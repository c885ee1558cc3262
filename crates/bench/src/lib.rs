//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§4) plus the §5.2 comparison and two ablations.
//!
//! The `repro` binary dispatches to one experiment per subcommand; each
//! returns a [`report::Report`] that renders as text and as JSON, and
//! [`claims`] states the paper's relations over those reports. See
//! `DESIGN.md` for the experiment index (E1–E17) and `EXPERIMENTS.md` for
//! recorded paper-vs-measured results.
//!
//! All throughput numbers come from the **simulated clock** of the
//! [`simdisk`] substrate (disk mechanics + modeled CPU costs), never from
//! wall-clock time, so runs are deterministic.

pub mod claims;
pub mod driver;
pub mod exp;
pub mod report;
pub mod rig;
pub mod tracectl;
pub mod workload;
