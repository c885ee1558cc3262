//! Crash-anywhere property test at the file-system level: whatever sector
//! the power fails on, MINIX LLD must recover to a consistent state — all
//! durable files fully readable and holding bytes they held at some
//! point, directory structure coherent, and the file system writable
//! afterwards. This is the paper's no-fsck claim under adversarial timing.
//! Some cases attach battery-backed NVRAM, so below-threshold syncs are
//! absorbed by it and recovery materializes its tail.

use logical_disk_repro::lld::LldConfig;
use logical_disk_repro::minix_fs::{FsConfig, FsCpuModel, LdStore, MinixFs};
use logical_disk_repro::simdisk::SimDisk;
use proptest::prelude::*;

/// NVRAM attached to the disk in the cases that sample it.
const NVRAM_BYTES: usize = 256 << 10;

/// Queue sampling: 0 = queueing off (the historical direct path),
/// 1 = LOOK at depth 4 with write-behind, 2 = SATF at depth 8. The
/// crash invariants must hold identically — write-behind may only lose
/// an *unacknowledged* suffix, never synced data.
fn queue_config(mode: u8) -> (u32, u32, logical_disk_repro::simdisk::Scheduler) {
    match mode {
        1 => (4, 3, logical_disk_repro::simdisk::Scheduler::Look),
        2 => (8, 4, logical_disk_repro::simdisk::Scheduler::Satf),
        _ => (0, 0, logical_disk_repro::simdisk::Scheduler::Fcfs),
    }
}

fn configs(queue_mode: u8) -> (LldConfig, FsConfig) {
    let (queue_depth, writeback_depth, scheduler) = queue_config(queue_mode);
    (
        LldConfig {
            segment_bytes: 64 << 10,
            summary_bytes: 4 << 10,
            cpu: logical_disk_repro::lld::CpuModel::free(),
            queue_depth,
            writeback_depth,
            scheduler,
            ..LldConfig::default()
        },
        FsConfig {
            ninodes: 256,
            cache_bytes: 256 << 10,
            cpu: FsCpuModel::free(),
            ..FsConfig::default()
        },
    )
}

fn content(seed: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| ((seed * 31 + j * 7) % 251) as u8)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn any_crash_point_recovers_consistently(
        crash_after in 1u64..6_000,
        nfiles in 4usize..24,
        syncs in proptest::collection::vec(any::<bool>(), 24),
        queue_mode in 0u8..3,
        nvram in any::<bool>(),
    ) {
        let (lld_config, fs_config) = configs(queue_mode);
        let mut disk = SimDisk::hp_c3010_with_capacity(24 << 20);
        if nvram {
            disk = disk.with_nvram(NVRAM_BYTES);
        }
        let store = LdStore::format(disk, lld_config.clone()).expect("format");
        let mut fs = MinixFs::format(store, fs_config.clone()).expect("mkfs");

        // Trace the whole run; on failure the trailing events show what
        // the stack was doing when the invariant broke.
        // The disk keeps the tracer through the crash and the remount, so
        // the recovery sweep lands in the timeline too.
        let tracer = logical_disk_repro::ld_trace::Tracer::new(4096);
        fs.store_mut().disk_mut().set_tracer(tracer.clone());

        // A durable baseline. Each file keeps the list of contents it has
        // had: the original, then one more per overwrite issued.
        let mut durable: Vec<(String, Vec<Vec<u8>>)> = Vec::new();
        for i in 0..nfiles {
            let path = format!("/base{i:02}");
            let data = content(i, 512 + i * 301);
            let ino = fs.create(&path).expect("create");
            fs.write(ino, 0, &data).expect("write");
            durable.push((path, vec![data]));
        }
        fs.sync().expect("sync");

        // Chaos phase with the crash armed: creates, overwrites, deletes,
        // and scattered syncs, until the disk dies.
        fs.store_mut().disk_mut().crash_after_writes(crash_after);
        'chaos: for i in 0..24usize {
            let r: Result<(), logical_disk_repro::minix_fs::FsError> = (|| {
                let path = format!("/chaos{i:02}");
                let ino = fs.create(&path)?;
                fs.write(ino, 0, &content(100 + i, 2000))?;
                if i % 3 == 0 {
                    let n = durable.len();
                    let (p, versions) = &mut durable[i % n];
                    let ino = fs.lookup(p)?;
                    let patch = content(200 + i, 700);
                    let mut next = versions.last().expect("an original").clone();
                    next.resize(next.len().max(64 + patch.len()), 0);
                    next[64..64 + patch.len()].copy_from_slice(&patch);
                    versions.push(next);
                    fs.write(ino, 64, &patch)?;
                }
                if syncs[i] {
                    fs.sync()?;
                }
                Ok(())
            })();
            if r.is_err() {
                break 'chaos; // The crash fired.
            }
        }

        // Recover. Before mounting, the raw crashed image must pass the
        // offline consistency check — the no-fsck claim, verified by fsck.
        let mut disk = fs.into_store().into_disk();
        disk.revive();
        let report = logical_disk_repro::ldck::check_image(&disk.image_bytes(), &lld_config);
        prop_assert!(
            report.is_clean(),
            "crashed image has errors: {:?}\n{}",
            report.findings,
            tracer.dump_tail(100)
        );
        let store = LdStore::mount(disk, lld_config.clone()).expect("LD recovery must succeed");
        let mut fs = MinixFs::mount(store, fs_config).expect("mount must succeed");

        // Invariant 1: every directory entry resolves and reads fully.
        for d in fs.readdir("/").expect("readdir") {
            if d.name == "." || d.name == ".." {
                continue;
            }
            let path = format!("/{}", d.name);
            let ino = fs.lookup(&path).expect("entry resolves");
            let size = fs.stat(ino).expect("stat").size as usize;
            let mut buf = vec![0u8; size];
            prop_assert_eq!(
                fs.read(ino, 0, &mut buf).expect("read"),
                size,
                "{} truncated after recovery\n{}", &path, tracer.dump_tail(100)
            );
        }

        // Invariant 2: the pre-crash durable baseline still exists (baseline
        // files are never deleted), and each file reads back, at its
        // recovered size, as one of the versions it has had: the original
        // or the result of one of its overwrites.
        for (path, versions) in &durable {
            let ino = fs.lookup(path).expect("baseline file survives");
            let size = fs.stat(ino).expect("stat baseline").size as usize;
            let mut buf = vec![0u8; size];
            prop_assert_eq!(
                fs.read(ino, 0, &mut buf).expect("read baseline"),
                size,
                "baseline {} truncated\n{}", path, tracer.dump_tail(100)
            );
            prop_assert!(
                versions.contains(&buf),
                "baseline {} ({} bytes) matches none of its {} versions\n{}",
                path,
                size,
                versions.len(),
                tracer.dump_tail(100)
            );
        }

        // Invariant 3: the file system still works.
        let ino = fs.create("/after-recovery").expect("create after recovery");
        fs.write(ino, 0, b"alive").expect("write after recovery");
        fs.sync().expect("sync after recovery");

        // Invariant 4: the post-recovery medium checks clean too.
        let disk = fs.into_store().into_disk();
        let report = logical_disk_repro::ldck::check_image(&disk.image_bytes(), &lld_config);
        prop_assert!(
            report.is_clean(),
            "post-recovery image has errors: {:?}\n{}",
            report.findings,
            tracer.dump_tail(100)
        );
    }
}
