//! Property tests for the observability layer: a trace that drops nothing
//! must account, event by event, for every microsecond the disk's own
//! counters charged on arbitrary workloads, and the stats counters
//! themselves must be monotone (so phase deltas are always well-defined).

use logical_disk_repro::ld_trace::{verify_jsonl, Event, Tracer};
use logical_disk_repro::lld::{CpuModel, LldConfig};
use logical_disk_repro::minix_fs::{FsConfig, FsCpuModel, LdStore, MinixFs};
use logical_disk_repro::simdisk::SimDisk;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Create(u8),
    Write(u8, u16),
    Read(u8),
    Unlink(u8),
    Sync,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..12).prop_map(Op::Create),
        (0u8..12, 1u16..6000).prop_map(|(i, len)| Op::Write(i, len)),
        (0u8..12).prop_map(Op::Read),
        (0u8..12).prop_map(Op::Unlink),
        Just(Op::Sync),
    ]
}

fn build_fs() -> MinixFs<LdStore<SimDisk>> {
    let lld_config = LldConfig {
        segment_bytes: 64 << 10,
        summary_bytes: 4 << 10,
        cpu: CpuModel::free(),
        ..LldConfig::default()
    };
    let fs_config = FsConfig {
        ninodes: 128,
        cache_bytes: 128 << 10,
        cpu: FsCpuModel::free(),
        ..FsConfig::default()
    };
    let store =
        LdStore::format(SimDisk::hp_c3010_with_capacity(16 << 20), lld_config).expect("format");
    MinixFs::format(store, fs_config).expect("mkfs")
}

/// Applies one op, ignoring expected logical errors (missing file etc.) —
/// the properties under test are about accounting, not FS semantics.
fn apply(fs: &mut MinixFs<LdStore<SimDisk>>, op: &Op) {
    match op {
        Op::Create(i) => {
            let _ = fs.create(&format!("/f{i}"));
        }
        Op::Write(i, len) => {
            if let Ok(ino) = fs.lookup(&format!("/f{i}")) {
                let data: Vec<u8> = (0..*len).map(|j| (j % 251) as u8).collect();
                let _ = fs.write(ino, 0, &data);
            }
        }
        Op::Read(i) => {
            if let Ok(ino) = fs.lookup(&format!("/f{i}")) {
                let mut buf = vec![0u8; 4096];
                let _ = fs.read(ino, 0, &mut buf);
            }
        }
        Op::Unlink(i) => {
            let _ = fs.unlink(&format!("/f{i}"));
        }
        Op::Sync => {
            let _ = fs.sync();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A ring that drops nothing holds every microsecond of disk busy
    /// time as exactly one mechanical event: per component, the events
    /// sum to the `DiskStats` delta since attach — to the microsecond, on
    /// arbitrary op sequences.
    #[test]
    fn attribution_reconciles_with_disk_counters(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let mut fs = build_fs();
        let tracer = Tracer::new(1 << 16);
        let stats0 = *fs.store().disk().stats();
        fs.store_mut().disk_mut().set_tracer(tracer.clone());

        for op in &ops {
            apply(&mut fs, op);
        }

        prop_assert_eq!(tracer.dropped(), 0, "ring too small for the property");
        let delta = fs
            .store()
            .disk()
            .stats()
            .delta_since(&stats0)
            .expect("later snapshot");
        // With nothing dropped, the verifier sums the events per component
        // and fails `Incomplete`, naming the component, on any mismatch.
        prop_assert_eq!(
            verify_jsonl(&tracer.to_jsonl(&delta.attribution())),
            Ok(0),
            "{}",
            tracer.dump_tail(100)
        );
    }

    /// `DiskStats::busy_us` decomposes exactly into its five components
    /// at every point of an arbitrary workload (no hidden time sink), and
    /// both stats structs are monotone: a later snapshot minus an earlier
    /// one is always well-defined.
    #[test]
    fn stats_are_monotone_and_busy_decomposes(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let mut fs = build_fs();
        let mut prev_disk = *fs.store().disk().stats();
        let mut prev_lld = *fs.store().lld().stats();

        for op in &ops {
            apply(&mut fs, op);
            let disk = *fs.store().disk().stats();
            let lld = *fs.store().lld().stats();

            // Monotone: every counter moved forward (or stood still).
            prop_assert!(
                disk.delta_since(&prev_disk).is_some(),
                "disk counters regressed across {op:?}"
            );
            prop_assert!(
                lld.delta_since(&prev_lld).is_some(),
                "lld counters regressed across {op:?}"
            );

            // Exact decomposition of busy time.
            prop_assert_eq!(
                disk.busy_us(),
                disk.seek_us + disk.rotation_us + disk.transfer_us
                    + disk.switch_us + disk.overhead_us
            );

            prev_disk = disk;
            prev_lld = lld;
        }
    }

    /// Tracing is observation only: running the same op sequence with and
    /// without a tracer attached produces identical simulated clocks and
    /// identical disk stats (the zero-cost-when-disabled contract's other
    /// half — zero *interference* when enabled).
    #[test]
    fn tracing_never_changes_timing(
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let mut plain = build_fs();
        for op in &ops {
            apply(&mut plain, op);
        }

        let mut traced = build_fs();
        let tracer = Tracer::new(64); // deliberately tiny: eviction must not matter
        traced.store_mut().disk_mut().set_tracer(tracer);
        for op in &ops {
            apply(&mut traced, op);
        }

        prop_assert_eq!(plain.now_us(), traced.now_us());
        prop_assert_eq!(*plain.store().disk().stats(), *traced.store().disk().stats());
        prop_assert_eq!(*plain.store().lld().stats(), *traced.store().lld().stats());
    }
}

/// DiskStats deltas across a stats reset come back as `None`, not a
/// panic — the regression that used to take down whole bench runs.
#[test]
fn delta_across_reset_is_none() {
    let mut fs = build_fs();
    let ino = fs.create("/x").expect("create");
    fs.write(ino, 0, &[7u8; 8192]).expect("write");
    fs.sync().expect("sync");
    let stale = *fs.store().disk().stats();
    assert!(stale.busy_us() > 0);
    fs.store_mut().disk_mut().reset_stats();
    let fresh = *fs.store().disk().stats();
    assert_eq!(fresh.delta_since(&stale), None, "underflow must be None");
}

/// A traced crash followed by a mount records the recovery sweep exactly
/// once, with the figures LLD reports for it.
#[test]
fn recovery_sweep_is_traced_once() {
    let mut fs = build_fs();
    let tracer = Tracer::new(1 << 16);
    fs.store_mut().disk_mut().set_tracer(tracer.clone());
    for i in 0..8u8 {
        apply(&mut fs, &Op::Create(i));
        apply(&mut fs, &Op::Write(i, 3000));
    }
    fs.sync().expect("sync");
    let config = fs.store().lld().config().clone();
    let mut disk = fs.into_store().into_disk();
    disk.crash_now();
    disk.revive();
    let store = LdStore::mount(disk, config).expect("recovery");
    let stats = *store.lld().stats();
    assert!(
        !stats.recovered_from_checkpoint,
        "a crash must force the sweep"
    );
    let sweeps: Vec<(u64, u64)> = tracer
        .tail(usize::MAX)
        .into_iter()
        .filter_map(|e| match e.event {
            Event::RecoverySweep { summaries, us } => Some((summaries, us)),
            _ => None,
        })
        .collect();
    assert_eq!(sweeps, [(stats.recovery_summaries_read, stats.recovery_us)]);
    assert!(stats.recovery_us > 0);
}
