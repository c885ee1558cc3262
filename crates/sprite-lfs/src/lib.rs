//! A Sprite-LFS-style storage manager, built for the paper's §5.1
//! comparison (Table 6).
//!
//! Sprite LFS (Rosenblum & Ousterhout 1992) stores *physical* disk
//! addresses in its metadata, so moving or rewriting a block cascades:
//! a data-block write dirties the i-node (and possibly indirect blocks),
//! and a dirty i-node dirties its i-node-map block. LD-based file systems
//! store location-independent logical block numbers, so none of that
//! happens — that asymmetry is exactly what Table 6 quantifies:
//!
//! | operation | Sprite LFS | MINIX LLD |
//! |---|---|---|
//! | create/delete | `1 + 2δ + 2ε` blocks | `1 + 2ε` |
//! | overwrite | `1+δ+ε`, `2+δ+ε`, or `3+δ+ε` | `1+ε` |
//! | append | same as overwrite | `1+ε` or `2+ε` |
//!
//! where ε is the cost of a dirty i-node (many share an i-node block
//! written per segment) and δ the cost of an i-node-map block (shared by
//! many operations, written at checkpoints).
//!
//! This implementation is a real, recoverable mini-LFS: log-structured
//! segments with summaries, dirty i-nodes packed into i-node blocks at
//! segment flush, an i-node map written at checkpoints (two alternating
//! checkpoint regions) and roll-forward recovery from the newest
//! checkpoint. [`WriteCounters`] splits every block written by category
//! so the Table 6 quantities are *measured*, not assumed.

mod fsops;
mod log;

pub use fsops::{LfsError, Result};
pub use log::{LfsConfig, SpriteLfs, WriteCounters};
