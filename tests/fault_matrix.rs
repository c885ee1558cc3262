//! Media-fault matrix at the file-system level: fault seed × error rate ×
//! crash point. Whatever the medium does, MINIX LLD must never *silently*
//! corrupt data — every durable file either reads back byte-identical or
//! the read reports an error — and after a scrub pass the file system
//! must keep working on the degraded medium.
//!
//! Two properties split the fault classes:
//!
//! - **Transient faults + crash-anywhere**: transient sector errors are
//!   recoverable by definition (they succeed within `maxfail` retries),
//!   so all the crash-matrix invariants must hold unchanged — recovery
//!   sweeps through the faults, every durable file reads fully, and the
//!   post-scrub image checks clean with zero unreadable blocks.
//! - **Latent faults, clean shutdown**: latent sectors never read; the
//!   data written on them is genuinely lost. The invariant is honesty,
//!   not resurrection: reads either fail loudly or return exactly the
//!   right bytes, the scrub retires what it can into the remap table,
//!   and `ldck` cross-checks the table on the final image.

use logical_disk_repro::lld::LldConfig;
use logical_disk_repro::minix_fs::{FsConfig, FsCpuModel, LdStore, MinixFs};
use logical_disk_repro::simdisk::{FaultConfig, SimDisk};
use proptest::prelude::*;

/// Queue sampling mirrors tests/crash_matrix.rs: 0 = queueing off,
/// 1 = LOOK at depth 4 with write-behind, 2 = SATF at depth 8. Media
/// faults and crashes must be survivable with requests in flight.
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
            queue_depth,
            writeback_depth,
            scheduler,
            segment_bytes: 64 << 10,
            summary_bytes: 4 << 10,
            // Deep enough for a multi-fault span: each retry of a span
            // gets past at most one transient sector per attempt.
            read_retries: 16,
            cpu: logical_disk_repro::lld::CpuModel::free(),
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Transient faults are invisible above the disk-manager layer: the
    /// whole crash-matrix contract holds at any error rate and any crash
    /// point, and no block is ever reported unreadable.
    #[test]
    fn transient_faults_and_crash_recover_consistently(
        fault_seed in any::<u64>(),
        transient_ppm in 0u32..=5_000,
        maxfail in 1u32..=2,
        crash_after in 1u64..6_000,
        nfiles in 4usize..16,
        syncs in proptest::collection::vec(any::<bool>(), 16),
        queue_mode in 0u8..3,
    ) {
        let (lld_config, fs_config) = configs(queue_mode);
        let fault_cfg = FaultConfig {
            seed: fault_seed,
            transient_ppm,
            transient_max_failures: maxfail,
            ..FaultConfig::default()
        };
        let mut disk = SimDisk::hp_c3010_with_capacity(24 << 20);
        disk.set_faults(fault_cfg);
        let store = LdStore::format(disk, lld_config.clone()).expect("format");
        let mut fs = MinixFs::format(store, fs_config.clone()).expect("mkfs");

        // The disk keeps the tracer through the crash and the remount.
        let tracer = logical_disk_repro::ld_trace::Tracer::new(4096);
        fs.store_mut().disk_mut().set_tracer(tracer.clone());

        // A durable baseline, written and synced on the faulty medium.
        let mut durable: Vec<(String, Vec<u8>)> = Vec::new();
        for i in 0..nfiles {
            let path = format!("/base{i:02}");
            let data = content(i, 512 + i * 301);
            let ino = fs.create(&path).expect("create");
            fs.write(ino, 0, &data).expect("write");
            durable.push((path, data));
        }
        fs.sync().expect("sync");

        // Chaos phase with the crash armed.
        fs.store_mut().disk_mut().crash_after_writes(crash_after);
        'chaos: for i in 0..16usize {
            let r: Result<(), logical_disk_repro::minix_fs::FsError> = (|| {
                let path = format!("/chaos{i:02}");
                let ino = fs.create(&path)?;
                fs.write(ino, 0, &content(100 + i, 2000))?;
                if i % 3 == 0 {
                    let (p, _) = &durable[i % durable.len()];
                    let ino = fs.lookup(p)?;
                    fs.write(ino, 64, &content(200 + i, 700))?;
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

        // Revive; the fault schedule survives (it belongs to the medium).
        let mut disk = fs.into_store().into_disk();
        disk.revive();
        let report = logical_disk_repro::ldck::check_image(&disk.image_bytes(), &lld_config);
        prop_assert!(
            report.is_clean(),
            "crashed image has errors: {:?}\n{}",
            report.findings,
            tracer.dump_tail(100)
        );
        // The recovery sweep itself runs against the faults.
        let store = LdStore::mount(disk, lld_config.clone()).expect("LD recovery under faults");
        let mut fs = MinixFs::mount(store, fs_config).expect("mount must succeed");

        // Every directory entry resolves and reads fully — retries make
        // transient faults invisible here.
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
        for (path, data) in &durable {
            let ino = fs.lookup(path).expect("baseline file survives");
            let mut buf = vec![0u8; data.len()];
            prop_assert_eq!(
                fs.read(ino, 0, &mut buf).expect("read baseline"),
                data.len(),
                "baseline {} truncated\n{}", path, tracer.dump_tail(100)
            );
        }
        prop_assert_eq!(
            fs.store().lld().stats().unreadable_blocks, 0,
            "transient faults must never exhaust the retry budget\n{}",
            tracer.dump_tail(100)
        );

        // Scrub the suspects the retries recorded; transient sectors
        // recover under probing, so nothing may be retired.
        let (_, remapped, unreadable) =
            fs.store_mut().lld_mut().scrub().expect("scrub");
        prop_assert_eq!(remapped, 0, "scrub retired a transient sector");
        prop_assert_eq!(unreadable, 0, "scrub lost a block to transient faults");

        // The file system still works on the faulty medium.
        let ino = fs.create("/after-scrub").expect("create after scrub");
        fs.write(ino, 0, b"alive").expect("write after scrub");
        fs.sync().expect("sync after scrub");

        let disk = fs.into_store().into_disk();
        let report = logical_disk_repro::ldck::check_image(&disk.image_bytes(), &lld_config);
        prop_assert!(
            report.is_clean(),
            "post-scrub image has errors: {:?}\n{}",
            report.findings,
            tracer.dump_tail(100)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Latent faults lose data but never integrity: each durable file
    /// either reads back byte-identical or the read reports an error,
    /// the scrub retires confirmed sectors into the remap table, and the
    /// cleanly-shut-down image passes `ldck` — remap table included.
    #[test]
    fn latent_faults_report_loss_never_corruption(
        fault_seed in any::<u64>(),
        latent_ppm in 0u32..=1_500,
        transient_ppm in 0u32..=3_000,
        nfiles in 6usize..24,
        queue_mode in 0u8..3,
    ) {
        let (lld_config, fs_config) = configs(queue_mode);
        let store = LdStore::format(
            SimDisk::hp_c3010_with_capacity(24 << 20),
            lld_config.clone(),
        )
        .expect("format");
        let mut fs = MinixFs::format(store, fs_config).expect("mkfs");

        let mut files: Vec<(String, Vec<u8>)> = Vec::new();
        for i in 0..nfiles {
            let path = format!("/f{i:02}");
            let data = content(i, 700 + i * 523);
            let ino = fs.create(&path).expect("create");
            fs.write(ino, 0, &data).expect("write");
            files.push((path, data));
        }
        fs.sync().expect("sync");

        // The defects were latent all along; the writes above landed on
        // them without noticing. Now they surface.
        let fault_cfg = FaultConfig {
            seed: fault_seed,
            latent_ppm,
            transient_ppm,
            ..FaultConfig::default()
        };
        fs.store_mut().disk_mut().set_faults(fault_cfg);
        fs.drop_caches().expect("drop caches");

        // Core invariant: loss is loud. A read may fail (latent sector
        // under the file or under metadata on its path) but whatever
        // succeeds must be exactly the written bytes.
        for (path, data) in &files {
            let r = (|| -> logical_disk_repro::minix_fs::Result<Vec<u8>> {
                let ino = fs.lookup(path)?;
                let mut buf = vec![0u8; data.len()];
                let got = fs.read(ino, 0, &mut buf)?;
                buf.truncate(got);
                Ok(buf)
            })();
            if let Ok(got) = r {
                prop_assert_eq!(
                    &got, data,
                    "{} read succeeded but returned wrong bytes", path
                );
            }
        }

        // Scrub: probe the whole medium, relocate what is still readable
        // off failing segments, retire confirmed sectors.
        let (_, remapped, _) =
            fs.store_mut().lld_mut().media_scan().expect("media scan");

        // The file system stays writable on the degraded medium — unless
        // the medium blocks the *read* path of the update (e.g. a latent
        // sector under the root directory). In that case the failure must
        // be the medium's, not scrambled state: the same update must
        // succeed once the medium stops failing.
        let probe = (|| -> logical_disk_repro::minix_fs::Result<()> {
            let ino = fs.create("/after-scrub")?;
            fs.write(ino, 0, b"alive")?;
            fs.sync()?;
            Ok(())
        })();
        if probe.is_err() {
            fs.store_mut().disk_mut().clear_faults();
            let ino = fs.create("/after-scrub2").expect("create on healed medium");
            fs.write(ino, 0, b"alive").expect("write on healed medium");
            fs.sync().expect("sync on healed medium");
        }

        // Clean shutdown carries the remap table into the checkpoint;
        // ldck must agree with it entry for entry.
        let mut store = fs.into_store();
        let table_len = store.lld().bad_sector_table().len() as u64;
        prop_assert_eq!(table_len, remapped, "scrub return disagrees with the table");
        use logical_disk_repro::ld_core::LogicalDisk;
        store.lld_mut().shutdown().expect("clean shutdown");
        let image = store.into_disk().image_bytes();
        let report = logical_disk_repro::ldck::check_image(&image, &lld_config);
        prop_assert!(
            report.is_clean(),
            "scrubbed image has errors: {:?}",
            report.findings
        );
        prop_assert_eq!(
            report.stats.bad_sectors, table_len,
            "checkpointed remap table must carry every retired sector"
        );
    }
}
