//! Crash matrix at the file-system level: queue mode × NVRAM × transient
//! media-fault rate (0 included). Each case runs its workload once while
//! the disk records every write, then rebuilds the disk at several crash
//! points drawn from that log (torn requests included) and at the log's
//! end, the power-off after the workload. At every crash point MINIX LLD
//! must recover to a consistent state with no fsck — the paper's claim
//! under adversarial timing:
//!
//! - the crashed image, and the medium after recovery, pass `ldck`;
//! - every directory entry resolves and reads fully;
//! - every baseline file reads, at its recovered size, as one of the
//!   versions it has had, and no older than the last version a returned
//!   `sync` made durable before the crash point;
//! - transient faults never exhaust the retry budget and a scrub
//!   retires nothing: they succeed on retry by definition;
//! - the file system takes a write and a sync.
//!
//! Every crash image gets a fresh fault state from the case's
//! `FaultConfig`: the transient failure counts and grown defects of the
//! recorded run are not carried over. NVRAM cases absorb below-threshold
//! syncs, and recovery materializes the NVRAM tail.
//!
//! A second property checks latent faults on a clean shutdown: loss is
//! loud, never silent corruption.

use logical_disk_repro::ldck::check_image;
use logical_disk_repro::lld::LldConfig;
use logical_disk_repro::minix_fs::{FsConfig, FsCpuModel, FsError, LdStore, MinixFs};
use logical_disk_repro::simdisk::{FaultConfig, Scheduler, SimDisk};
use proptest::prelude::*;
use proptest::sample::Index;
use std::sync::atomic::{AtomicU64, Ordering};

/// NVRAM attached to the disk in the cases that sample it.
const NVRAM_BYTES: usize = 256 << 10;

/// Steps of the chaos phase.
const CHAOS_STEPS: usize = 24;

/// Cases of the crash property.
const CASES: u32 = 32;

/// Crash images checked strictly inside the workloads' writes.
static INSIDE: AtomicU64 = AtomicU64::new(0);

/// Queue sampling: 0 = queueing off (the direct path), 1 = LOOK at
/// depth 4 with write-behind, 2 = SATF at depth 8. Write-behind may
/// only lose an *unacknowledged* suffix, never synced data.
fn configs(queue_mode: u8) -> (LldConfig, FsConfig) {
    let (queue_depth, writeback_depth, scheduler) = match queue_mode {
        1 => (4, 3, Scheduler::Look),
        2 => (8, 4, Scheduler::Satf),
        _ => (0, 0, Scheduler::Fcfs),
    };
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

/// A baseline file: the contents it has had (the original, then one per
/// overwrite issued) and, for each, the log length at which a returned
/// `sync` made it durable (`u64::MAX` while none has).
struct Baseline {
    path: String,
    versions: Vec<Vec<u8>>,
    durable_at: Vec<u64>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    fn crash_points_recover_consistently(
        nfiles in 4usize..24,
        syncs in proptest::collection::vec(any::<bool>(), CHAOS_STEPS),
        queue_mode in 0u8..3,
        nvram in any::<bool>(),
        transient in (any::<bool>(), 1u32..=5_000, 1u32..=2, any::<u64>()),
        points in proptest::collection::vec(any::<Index>(), 4),
    ) {
        let (lld_config, fs_config) = configs(queue_mode);
        let (faulty, ppm, maxfail, seed) = transient;
        let faults = FaultConfig {
            seed,
            transient_ppm: if faulty { ppm } else { 0 },
            transient_max_failures: maxfail,
            ..FaultConfig::default()
        };
        let mut disk = SimDisk::hp_c3010_with_capacity(24 << 20);
        if nvram {
            disk = disk.with_nvram(NVRAM_BYTES);
        }
        disk.set_faults(faults);
        // The tracer goes onto every disk of the case: on failure the
        // trailing events show the recorded run and the recovery.
        let tracer = logical_disk_repro::ld_trace::Tracer::new(4096);
        disk.set_tracer(tracer.clone());
        let store = LdStore::format(disk, lld_config.clone()).expect("format");
        let mut fs = MinixFs::format(store, fs_config.clone()).expect("mkfs");

        // A durable baseline, then the recorded chaos phase: creates,
        // overwrites of baseline files, and scattered syncs.
        let mut baseline = Vec::new();
        for i in 0..nfiles {
            let path = format!("/base{i:02}");
            let data = content(i, 512 + i * 301);
            let ino = fs.create(&path).expect("create");
            fs.write(ino, 0, &data).expect("write");
            baseline.push(Baseline { path, versions: vec![data], durable_at: vec![0] });
        }
        fs.sync().expect("sync");
        fs.store_mut().disk_mut().record_writes();
        for (i, &sync) in syncs.iter().enumerate() {
            let r: Result<(), FsError> = (|| {
                let ino = fs.create(&format!("/chaos{i:02}"))?;
                fs.write(ino, 0, &content(100 + i, 2000))?;
                if i % 3 == 0 {
                    let file = &mut baseline[i % nfiles];
                    let patch = content(200 + i, 700);
                    let mut next = file.versions.last().expect("an original").clone();
                    next.resize(next.len().max(64 + patch.len()), 0);
                    next[64..64 + patch.len()].copy_from_slice(&patch);
                    file.versions.push(next);
                    file.durable_at.push(u64::MAX);
                    let ino = fs.lookup(&file.path)?;
                    fs.write(ino, 64, &patch)?;
                }
                if sync {
                    fs.sync()?;
                    let at = fs.store().disk().recorded_writes();
                    for file in &mut baseline {
                        for d in file.durable_at.iter_mut().filter(|d| **d == u64::MAX) {
                            *d = at;
                        }
                    }
                }
                Ok(())
            })();
            r.expect("the recorded run never crashes");
        }
        let mut images = fs.into_store().into_disk().take_recording().expect("recording");

        // Crash points strictly inside the log, in increasing order, then
        // its end.
        let len = images.writes();
        let inside = len.saturating_sub(1) as usize;
        let mut crash_at: Vec<u64> =
            points.iter().filter(|_| inside > 0).map(|p| 1 + p.index(inside) as u64).collect();
        crash_at.sort_unstable();
        crash_at.dedup();
        crash_at.push(len);

        for &n in &crash_at {
            let case = format!(
                "queue mode {queue_mode}, nvram {nvram}, transient {} ppm, crash at write {n} of {len}",
                faults.transient_ppm
            );
            images.advance_to(n);
            let report = check_image(images.medium(), &lld_config);
            prop_assert!(
                report.is_clean(),
                "{}: crashed image has errors: {:?}\n{}",
                case, report.findings, tracer.dump_tail(100)
            );
            let mut disk = images.disk();
            disk.set_faults(faults);
            disk.set_tracer(tracer.clone());
            let store = LdStore::mount(disk, lld_config.clone()).expect("LD recovery must succeed");
            let mut fs = MinixFs::mount(store, fs_config.clone()).expect("mount must succeed");

            // Every entry reads whole at its recovered size; baseline
            // files (never deleted) read as a version no older than the
            // last one synced before the crash point.
            let entries = fs.readdir("/").expect("readdir").into_iter()
                .filter(|d| d.name != "." && d.name != "..")
                .map(|d| (format!("/{}", d.name), None));
            let baseline_files = baseline.iter().map(|file| (file.path.clone(), Some(file)));
            for (path, file) in entries.chain(baseline_files).collect::<Vec<_>>() {
                let ino = fs.lookup(&path).expect("entry resolves");
                let size = fs.stat(ino).expect("stat").size as usize;
                let mut buf = vec![0u8; size];
                let got = fs.read(ino, 0, &mut buf).expect("read");
                prop_assert_eq!(got, size, "{}: {} truncated\n{}", case, path, tracer.dump_tail(100));
                let Some(file) = file else { continue };
                let floor = file.durable_at.iter().rposition(|&at| at <= n).expect("synced");
                prop_assert!(
                    file.versions[floor..].contains(&buf),
                    "{}: {} ({} bytes) matches none of its versions {}..{}\n{}",
                    case, path, size, floor, file.versions.len(), tracer.dump_tail(100)
                );
            }

            prop_assert_eq!(
                fs.store().lld().stats().unreadable_blocks, 0,
                "{}: transient faults exhausted the retry budget\n{}", case, tracer.dump_tail(100)
            );
            let (_, remapped, unreadable) = fs.store_mut().lld_mut().scrub().expect("scrub");
            prop_assert_eq!(remapped, 0, "{}: scrub retired a transient sector", case);
            prop_assert_eq!(unreadable, 0, "{}: scrub lost a block to transient faults", case);

            let ino = fs.create("/after-recovery").expect("create after recovery");
            fs.write(ino, 0, b"alive").expect("write after recovery");
            fs.sync().expect("sync after recovery");
            let disk = fs.into_store().into_disk();
            let report = images.with_medium_of(&disk, |medium| check_image(medium, &lld_config));
            prop_assert!(
                report.is_clean(),
                "{}: post-recovery image has errors: {:?}\n{}",
                case, report.findings, tracer.dump_tail(100)
            );
        }
        INSIDE.fetch_add(crash_at.len() as u64 - 1, Ordering::Relaxed);
    }
}

/// Runs the crash property and reports how many crash images it checked
/// (shown with `--nocapture`).
#[test]
fn any_crash_point_recovers_consistently() {
    crash_points_recover_consistently();
    let inside = INSIDE.load(Ordering::Relaxed);
    println!("{inside} crash images inside the workloads' writes, {CASES} at their end");
    assert!(
        inside >= u64::from(CASES),
        "every case must crash mid-workload"
    );
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
