//! Property tests for the observability layer: the tracer's mechanical
//! time attribution must reconcile with the disk's own counters to the
//! microsecond on arbitrary workloads, and the stats counters themselves
//! must be monotone (so phase deltas are always well-defined).

use logical_disk_repro::ld_trace::Tracer;
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
    let store = LdStore::format(SimDisk::hp_c3010_with_capacity(16 << 20), lld_config)
        .expect("format");
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

    /// The tracer attributes every microsecond of disk busy time to
    /// exactly one mechanical component: each attribution component
    /// equals the corresponding `DiskStats` delta since attach, and the
    /// five components sum to the busy-time delta — to the microsecond,
    /// on arbitrary op sequences.
    #[test]
    fn attribution_reconciles_with_disk_counters(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let mut fs = build_fs();
        let tracer = Tracer::new(1024);
        let stats0 = *fs.store().disk().stats();
        fs.store_mut().lld_mut().disk_mut().set_tracer(tracer.clone());
        fs.store_mut().lld_mut().set_tracer(tracer.clone());
        fs.set_tracer(tracer.clone());

        for op in &ops {
            apply(&mut fs, op);
        }

        let delta = fs
            .store()
            .disk()
            .stats()
            .delta_since(&stats0)
            .expect("later snapshot");
        let attr = tracer.attribution();
        prop_assert_eq!(attr.seek_us, delta.seek_us, "seek\n{}", tracer.dump_tail(100));
        prop_assert_eq!(attr.rotation_us, delta.rotation_us, "rotation\n{}", tracer.dump_tail(100));
        prop_assert_eq!(attr.transfer_us, delta.transfer_us, "transfer\n{}", tracer.dump_tail(100));
        prop_assert_eq!(attr.switch_us, delta.switch_us, "switch\n{}", tracer.dump_tail(100));
        prop_assert_eq!(attr.overhead_us, delta.overhead_us, "overhead\n{}", tracer.dump_tail(100));
        prop_assert_eq!(attr.busy_us(), delta.busy_us());

        // The exported stream passes its own verifier, including the
        // attribution-sum and disk-busy cross-checks.
        let jsonl = tracer.to_jsonl(Some(delta.busy_us()));
        prop_assert!(
            logical_disk_repro::ld_trace::verify_jsonl(&jsonl).is_ok(),
            "exported trace fails verification"
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
        traced.store_mut().lld_mut().disk_mut().set_tracer(tracer.clone());
        traced.store_mut().lld_mut().set_tracer(tracer.clone());
        traced.set_tracer(tracer.clone());
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
