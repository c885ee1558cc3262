//! Recovery is a pure function of the image: opening the same disk image
//! twice — whether it recovers via the checkpoint or the full summary
//! sweep, on a healthy or a deterministically faulty medium, with or
//! without an NVRAM tail — must yield identical block maps, contents,
//! stats, remap tables, and post-recovery images and NVRAM, and `ldck`
//! must agree both times.

use ld_core::{ListHints, LogicalDisk, Pred, PredList};
use lld::{Lld, LldConfig, LldStats};
use proptest::prelude::*;
use simdisk::{BlockDev, FaultConfig, SimDisk};

const CAPACITY: u64 = 16 << 20;

/// NVRAM attached to the disk in the cases that sample it.
const NVRAM_BYTES: usize = 256 << 10;

/// A disk image: the medium and the NVRAM (empty when none is attached).
#[derive(Debug, PartialEq)]
struct Image {
    medium: Vec<u8>,
    nvram: Vec<u8>,
}

impl Image {
    /// The medium and NVRAM of `disk`, which must be up.
    fn of(disk: &mut SimDisk) -> Self {
        let mut nvram = vec![0u8; disk.nvram_bytes()];
        disk.nvram_read(0, &mut nvram).expect("nvram read");
        Self {
            medium: disk.image_bytes(),
            nvram,
        }
    }
}

fn test_config() -> LldConfig {
    LldConfig {
        segment_bytes: 64 << 10,
        summary_bytes: 4 << 10,
        read_retries: 16,
        cpu: lld::CpuModel::free(),
        ..LldConfig::default()
    }
}

fn content(seed: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| ((seed * 37 + j * 11) % 253) as u8)
        .collect()
}

/// Everything a client (or an auditor) can observe about a recovered
/// disk manager. Reads that fail are recorded as failures — a loss
/// reported on one recovery must be reported on the other too.
#[derive(Debug, PartialEq)]
struct Observed {
    stats: LldStats,
    lists: Vec<(ld_core::Lid, Vec<ld_core::Bid>)>,
    contents: Vec<(ld_core::Bid, Result<Vec<u8>, String>)>,
    bad_sectors: Vec<u64>,
    quarantined: u32,
    free_segments: u32,
}

/// Loads `image` into a fresh disk (with the given fault schedule — the
/// schedule belongs to the medium, not the image), recovers, and returns
/// the observable state plus the post-recovery image.
fn open_and_observe(
    image: &Image,
    config: &LldConfig,
    faults: Option<FaultConfig>,
) -> (Observed, Image) {
    let mut disk = SimDisk::hp_c3010_with_capacity(CAPACITY).with_nvram(image.nvram.len());
    disk.load_image(&image.medium);
    disk.nvram_write(0, &image.nvram).expect("nvram write");
    if let Some(f) = faults {
        disk.set_faults(f);
    }
    let mut lld = Lld::open(disk, config.clone()).expect("open");
    let stats = *lld.stats();
    let mut lists = Vec::new();
    let mut contents = Vec::new();
    for lid in lld.list_of_lists() {
        let bids = lld.list_blocks(lid).expect("list_blocks");
        for &b in &bids {
            let mut buf = vec![0u8; 64 << 10];
            let r = match lld.read(b, &mut buf) {
                Ok(n) => Ok(buf[..n].to_vec()),
                Err(e) => Err(e.to_string()),
            };
            contents.push((b, r));
        }
        lists.push((lid, bids));
    }
    let obs = Observed {
        stats,
        lists,
        contents,
        bad_sectors: lld.bad_sector_table(),
        quarantined: lld.quarantined_segments(),
        free_segments: lld.free_segments(),
    };
    (obs, Image::of(&mut lld.into_disk()))
}

/// A deterministic little workload: lists, writes, deletes, overwrites,
/// periodic flushes, and (optionally) a scrubbed faulty medium with an
/// unflushed tail before a crash. With NVRAM attached, flushes below the
/// seal threshold land there. Returns the crashed/shut-down image.
fn build_image(
    nblocks: usize,
    delete_stride: usize,
    fault_cfg: Option<FaultConfig>,
    nvram: bool,
    clean_shutdown: bool,
) -> Image {
    let mut disk = SimDisk::hp_c3010_with_capacity(CAPACITY);
    if nvram {
        disk = disk.with_nvram(NVRAM_BYTES);
    }
    let mut lld = Lld::format(disk, test_config()).unwrap();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let lid2 = lld
        .new_list(PredList::After(lid), ListHints::default())
        .unwrap();
    let mut blocks = Vec::new();
    for i in 0..nblocks {
        let l = if i % 3 == 0 { lid2 } else { lid };
        let b = lld.new_block(l, Pred::Start).unwrap();
        lld.write(b, &content(i, 1024 + (i % 5) * 600)).unwrap();
        blocks.push(b);
        if i % 7 == 0 {
            lld.flush(ld_core::FailureSet::PowerFailure).unwrap();
        }
    }
    for (i, &b) in blocks.iter().enumerate() {
        if i % delete_stride == 1 {
            let l = if i % 3 == 0 { lid2 } else { lid };
            lld.delete_block(b, l, None).unwrap();
        }
    }
    lld.flush(ld_core::FailureSet::PowerFailure).unwrap();
    if let Some(f) = fault_cfg {
        lld.disk_mut().set_faults(f);
        lld.media_scan().expect("media scan");
    }
    // Post-scrub activity plus an unflushed tail the recovery must discard.
    let b = lld.new_block(lid, Pred::Start).unwrap();
    lld.write(b, &content(999, 3000)).unwrap();
    if clean_shutdown {
        lld.shutdown().expect("shutdown");
        return Image::of(&mut lld.into_disk());
    }
    lld.flush(ld_core::FailureSet::PowerFailure).unwrap();
    let b = lld.new_block(lid2, Pred::Start).unwrap();
    lld.write(b, &content(1000, 1500)).unwrap();
    let mut disk = lld.into_disk();
    disk.crash_now();
    disk.revive();
    Image::of(&mut disk)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sweep path: a crashed image (healthy or scrubbed-faulty medium)
    /// recovers to the same observable state and the same on-disk bytes
    /// no matter how many times it is opened.
    #[test]
    fn sweep_recovery_is_idempotent(
        nblocks in 8usize..48,
        delete_stride in 2usize..5,
        fault_seed in any::<u64>(),
        with_faults in any::<bool>(),
        nvram in any::<bool>(),
        latent_ppm in 500u32..3_000,
    ) {
        let config = test_config();
        let fault_cfg = with_faults.then(|| FaultConfig {
            seed: fault_seed,
            latent_ppm,
            ..FaultConfig::default()
        });
        let image = build_image(nblocks, delete_stride, fault_cfg, nvram, false);
        let (obs1, post1) = open_and_observe(&image, &config, fault_cfg);
        let (obs2, post2) = open_and_observe(&image, &config, fault_cfg);
        prop_assert_eq!(&obs1, &obs2, "two recoveries of one image diverged");
        prop_assert_eq!(&post1, &post2, "post-recovery images diverged");
        prop_assert!(!obs1.stats.recovered_from_checkpoint);
        prop_assert!(nvram || !obs1.stats.recovery_nvram_applied);

        // A sweep writes no checkpoint, so the device it leaves behind
        // sweeps again on the next open, to the same state. A first sweep
        // that materialized an NVRAM tail also invalidated it, so the
        // second finds none: only that flag and the time may differ.
        let (mut obs3, post3) = open_and_observe(&post1, &config, fault_cfg);
        prop_assert!(!obs3.stats.recovery_nvram_applied);
        if obs1.stats.recovery_nvram_applied {
            obs3.stats.recovery_nvram_applied = true;
            obs3.stats.recovery_us = obs1.stats.recovery_us;
        }
        prop_assert_eq!(&obs1, &obs3, "re-opening the recovered device diverged");
        prop_assert_eq!(&post1, &post3, "a second sweep changed the image");

        let report = ldck::check_image(&image.medium, &config);
        prop_assert!(report.is_clean(), "crashed image: {:?}", report.findings);
        // ldck reads only the medium, and the remap records may still sit
        // in the NVRAM tail of the crashed image; the recovered medium
        // holds them all.
        let report = ldck::check_image(&post1.medium, &config);
        prop_assert!(report.is_clean(), "recovered image: {:?}", report.findings);
        prop_assert_eq!(
            report.stats.bad_sectors,
            obs1.bad_sectors.len() as u64,
            "ldck's sweep reconstructs a different remap table than recovery"
        );
    }

    /// Checkpoint path: a cleanly shut down scrubbed image restores the
    /// same state twice — and the consumed-checkpoint image it leaves
    /// behind *re-recovers* (now via the sweep) to that same state.
    #[test]
    fn checkpoint_recovery_is_idempotent(
        nblocks in 8usize..40,
        delete_stride in 2usize..5,
        fault_seed in any::<u64>(),
        latent_ppm in 500u32..3_000,
    ) {
        let config = test_config();
        let fault_cfg = Some(FaultConfig {
            seed: fault_seed,
            latent_ppm,
            ..FaultConfig::default()
        });
        let image = build_image(nblocks, delete_stride, fault_cfg, false, true);
        let (obs1, post1) = open_and_observe(&image, &config, fault_cfg);
        let (obs2, post2) = open_and_observe(&image, &config, fault_cfg);
        prop_assert_eq!(&obs1, &obs2, "two checkpoint restores diverged");
        prop_assert_eq!(&post1, &post2, "post-restore images diverged");
        // A latent fault on the header region makes `open` fall back to
        // the sweep — legitimate, and obs1 == obs2 already pins the flag.

        // Opening consumed the checkpoint (or fell back); the remap table
        // must survive the subsequent sweep with the same contents.
        let (obs3, _) = open_and_observe(&post1, &config, fault_cfg);
        prop_assert!(!obs3.stats.recovered_from_checkpoint);
        prop_assert_eq!(&obs1.bad_sectors, &obs3.bad_sectors);
        prop_assert_eq!(obs1.quarantined, obs3.quarantined);
        prop_assert_eq!(&obs1.lists, &obs3.lists);

        let report = ldck::check_image(&image.medium, &config);
        prop_assert!(report.is_clean(), "scrubbed image: {:?}", report.findings);
        prop_assert_eq!(report.stats.bad_sectors, obs1.bad_sectors.len() as u64);
    }
}
