//! Golden numbers for MINIX's linear directory scan under eviction
//! pressure.
//!
//! The benchmarks run behind the paper's 6,144 KB cache, which always holds
//! the directory being scanned, so none of them reaches the scan's cache
//! misses. Here a 12-block cache scans a 13-block directory: seven direct
//! blocks and six behind the indirect block, which competes for the cache
//! with the directory and i-node blocks it maps. A scan that stops early in
//! the indirect range fits in the cache and hits when repeated; a longer one
//! does not, so creates, lookups and unlinks miss in mid-scan. The cache's
//! hit and miss counts, the disk's read and write requests and the
//! simulated clock are pinned, so a change to the order of cache touches
//! shows up here.

use minix_fs::{BlockStore, FsConfig, LdStore, MinixFs, RawStore};
use simdisk::SimDisk;

const CAPACITY: u64 = 64 << 20;

/// Cache hits and misses, disk read and write requests, simulated clock.
type Golden = ((u64, u64), u64, u64, u64);

fn config() -> FsConfig {
    FsConfig {
        ninodes: 2048,
        cache_bytes: 12 * 4096,
        ..FsConfig::default()
    }
}

/// Fills the root directory past its direct blocks, then looks names up,
/// unlinks some and creates into the freed slots, each stopping in
/// mid-scan, and syncs.
fn run<S: BlockStore>(fs: &mut MinixFs<S>) {
    for i in 0..1600 {
        fs.create(&format!("/f{i:04}")).unwrap();
    }
    // Names in directory blocks 7 to 9; the second round hits.
    for _ in 0..2 {
        for i in [900, 1000, 1100, 1200, 1000] {
            fs.lookup(&format!("/f{i:04}")).unwrap();
        }
    }
    for i in (0..1600).step_by(97) {
        fs.lookup(&format!("/f{i:04}")).unwrap();
    }
    assert!(fs.lookup("/absent").is_err());
    for i in [3, 200, 700, 901, 950, 1203, 1400, 1599] {
        fs.unlink(&format!("/f{i:04}")).unwrap();
    }
    for i in 0..6 {
        fs.create(&format!("/g{i}")).unwrap();
    }
    for i in [1, 640, 1100, 1500] {
        fs.lookup(&format!("/f{i:04}")).unwrap();
    }
    fs.sync().unwrap();
}

#[test]
fn raw_store_scan_under_eviction_pressure() {
    let store = RawStore::format(SimDisk::hp_c3010_with_capacity(CAPACITY)).unwrap();
    let mut fs = MinixFs::format(store, config()).unwrap();
    run(&mut fs);
    let disk = fs.store().disk().stats();
    let got: Golden = (fs.cache_stats(), disk.read_ops, disk.write_ops, fs.now_us());
    assert_eq!(got, ((23054, 8719), 8719, 1325, 49386860));
}

#[test]
fn ld_store_scan_under_eviction_pressure() {
    let store = LdStore::format(
        SimDisk::hp_c3010_with_capacity(CAPACITY),
        lld::LldConfig::default(),
    )
    .unwrap();
    let mut fs = MinixFs::format(store, config()).unwrap();
    run(&mut fs);
    let disk = fs.store().disk().stats();
    let got: Golden = (fs.cache_stats(), disk.read_ops, disk.write_ops, fs.now_us());
    assert_eq!(got, ((23054, 8719), 6251, 144, 25296160));
}
