//! File-system tests, run over both stores wherever the behaviour should
//! be identical — the backend swap is the paper's whole point.

use simdisk::{MemDisk, SimDisk};

use crate::{
    AllocHint, BlockStore, FileType, FsConfig, FsError, InodeMode, LdStore, MinixFs, RawStore,
    INODE_SIZE, ROOT_INO,
};

fn raw_fs() -> MinixFs<RawStore<MemDisk>> {
    let store = RawStore::format(MemDisk::with_capacity(16 << 20)).unwrap();
    MinixFs::format(store, FsConfig::small_for_tests()).unwrap()
}

fn ld_fs() -> MinixFs<LdStore<MemDisk>> {
    let store = LdStore::format(
        MemDisk::with_capacity(16 << 20),
        lld::LldConfig::small_for_tests(),
    )
    .unwrap();
    MinixFs::format(store, FsConfig::small_for_tests()).unwrap()
}

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(13) ^ seed)
        .collect()
}

/// Runs a scenario against both backends.
fn on_both(f: impl Fn(&mut dyn FsOps)) {
    let mut raw = raw_fs();
    f(&mut raw);
    let mut ld = ld_fs();
    f(&mut ld);
}

/// Object-safe subset for running the same scenario over both stores.
trait FsOps {
    fn create(&mut self, path: &str) -> crate::Result<u32>;
    fn rename(&mut self, from: &str, to: &str) -> crate::Result<()>;
    fn mkdir(&mut self, path: &str) -> crate::Result<u32>;
    fn write(&mut self, ino: u32, offset: u64, data: &[u8]) -> crate::Result<()>;
    fn read(&mut self, ino: u32, offset: u64, buf: &mut [u8]) -> crate::Result<usize>;
    fn unlink(&mut self, path: &str) -> crate::Result<()>;
    fn rmdir(&mut self, path: &str) -> crate::Result<()>;
    fn lookup(&mut self, path: &str) -> crate::Result<u32>;
    fn readdir(&mut self, path: &str) -> crate::Result<Vec<fsutil::dirent::Dirent>>;
    fn stat(&mut self, ino: u32) -> crate::Result<crate::Stat>;
    fn truncate(&mut self, ino: u32) -> crate::Result<()>;
    fn sync(&mut self) -> crate::Result<()>;
    fn drop_caches(&mut self) -> crate::Result<()>;
}

impl<S: BlockStore> FsOps for MinixFs<S> {
    fn create(&mut self, path: &str) -> crate::Result<u32> {
        MinixFs::create(self, path)
    }
    fn rename(&mut self, from: &str, to: &str) -> crate::Result<()> {
        MinixFs::rename(self, from, to)
    }
    fn mkdir(&mut self, path: &str) -> crate::Result<u32> {
        MinixFs::mkdir(self, path)
    }
    fn write(&mut self, ino: u32, offset: u64, data: &[u8]) -> crate::Result<()> {
        MinixFs::write(self, ino, offset, data)
    }
    fn read(&mut self, ino: u32, offset: u64, buf: &mut [u8]) -> crate::Result<usize> {
        MinixFs::read(self, ino, offset, buf)
    }
    fn unlink(&mut self, path: &str) -> crate::Result<()> {
        MinixFs::unlink(self, path)
    }
    fn rmdir(&mut self, path: &str) -> crate::Result<()> {
        MinixFs::rmdir(self, path)
    }
    fn lookup(&mut self, path: &str) -> crate::Result<u32> {
        MinixFs::lookup(self, path)
    }
    fn readdir(&mut self, path: &str) -> crate::Result<Vec<fsutil::dirent::Dirent>> {
        MinixFs::readdir(self, path)
    }
    fn stat(&mut self, ino: u32) -> crate::Result<crate::Stat> {
        MinixFs::stat(self, ino)
    }
    fn truncate(&mut self, ino: u32) -> crate::Result<()> {
        MinixFs::truncate(self, ino)
    }
    fn sync(&mut self) -> crate::Result<()> {
        MinixFs::sync(self)
    }
    fn drop_caches(&mut self) -> crate::Result<()> {
        MinixFs::drop_caches(self)
    }
}

#[test]
fn create_write_read_roundtrip() {
    on_both(|fs| {
        let ino = fs.create("/hello.txt").unwrap();
        let data = pattern(10_000, 3);
        fs.write(ino, 0, &data).unwrap();
        let mut buf = vec![0u8; 10_000];
        assert_eq!(fs.read(ino, 0, &mut buf).unwrap(), 10_000);
        assert_eq!(buf, data);
        // Partial read at an unaligned offset.
        let mut buf = vec![0u8; 100];
        assert_eq!(fs.read(ino, 4090, &mut buf).unwrap(), 100);
        assert_eq!(buf, data[4090..4190]);
        // Read past EOF.
        assert_eq!(fs.read(ino, 10_000, &mut buf).unwrap(), 0);
        assert_eq!(fs.read(ino, 9_990, &mut buf).unwrap(), 10);
    });
}

#[test]
fn directories_nest_and_list() {
    on_both(|fs| {
        fs.mkdir("/a").unwrap();
        fs.mkdir("/a/b").unwrap();
        let f = fs.create("/a/b/file").unwrap();
        assert_eq!(fs.lookup("/a/b/file").unwrap(), f);
        let names: Vec<String> = fs
            .readdir("/a/b")
            .unwrap()
            .into_iter()
            .map(|d| d.name)
            .collect();
        assert_eq!(names, vec![".", "..", "file"]);
        assert_eq!(fs.lookup("/a/missing"), Err(FsError::NotFound));
        assert_eq!(fs.create("/a/b/file"), Err(FsError::Exists));
        assert_eq!(fs.lookup("/a/b/file/x"), Err(FsError::NotDir));
    });
}

#[test]
fn unlink_frees_and_name_disappears() {
    on_both(|fs| {
        let ino = fs.create("/f").unwrap();
        fs.write(ino, 0, &pattern(50_000, 1)).unwrap();
        fs.unlink("/f").unwrap();
        assert_eq!(fs.lookup("/f"), Err(FsError::NotFound));
        // The i-node number is recycled.
        let ino2 = fs.create("/g").unwrap();
        assert_eq!(ino2, ino);
        let mut buf = vec![0u8; 16];
        assert_eq!(fs.read(ino2, 0, &mut buf).unwrap(), 0, "new file is empty");
    });
}

#[test]
fn rmdir_requires_empty() {
    on_both(|fs| {
        fs.mkdir("/d").unwrap();
        fs.create("/d/x").unwrap();
        assert_eq!(fs.rmdir("/d"), Err(FsError::NotEmpty));
        fs.unlink("/d/x").unwrap();
        fs.rmdir("/d").unwrap();
        assert_eq!(fs.lookup("/d"), Err(FsError::NotFound));
        assert_eq!(fs.unlink("/nope"), Err(FsError::NotFound));
    });
}

#[test]
fn overwrite_in_place_preserves_rest() {
    on_both(|fs| {
        let ino = fs.create("/f").unwrap();
        let data = pattern(20_000, 7);
        fs.write(ino, 0, &data).unwrap();
        fs.write(ino, 5_000, &[0xAAu8; 100]).unwrap();
        let mut buf = vec![0u8; 20_000];
        fs.read(ino, 0, &mut buf).unwrap();
        assert_eq!(&buf[..5_000], &data[..5_000]);
        assert!(buf[5_000..5_100].iter().all(|&b| b == 0xAA));
        assert_eq!(&buf[5_100..], &data[5_100..]);
        assert_eq!(fs.stat(ino).unwrap().size, 20_000);
    });
}

#[test]
fn large_file_through_indirect_blocks() {
    on_both(|fs| {
        let ino = fs.create("/big").unwrap();
        // 7 direct blocks = 28 KB; write 300 KB to exercise the indirect
        // block (and stay clear of double-indirect for speed).
        let chunk = pattern(8192, 9);
        for i in 0..38u64 {
            fs.write(ino, i * 8192, &chunk).unwrap();
        }
        fs.drop_caches().unwrap();
        let mut buf = vec![0u8; 8192];
        for i in [0u64, 3, 17, 37] {
            assert_eq!(fs.read(ino, i * 8192, &mut buf).unwrap(), 8192);
            assert_eq!(buf, chunk, "chunk {i}");
        }
        fs.truncate(ino).unwrap();
        assert_eq!(fs.stat(ino).unwrap().size, 0);
        // Space actually came back: write again.
        fs.write(ino, 0, &chunk).unwrap();
    });
}

#[test]
fn double_indirect_blocks_work() {
    // 7 + 1024 blocks = ~4.1 MB before the double-indirect range.
    let store = RawStore::format(MemDisk::with_capacity(64 << 20)).unwrap();
    let mut fs = MinixFs::format(store, FsConfig::small_for_tests()).unwrap();
    let ino = fs.create("/huge").unwrap();
    let bs = 4096u64;
    let boundary = (7 + 1024) * bs;
    let data = pattern(4096, 4);
    fs.write(ino, boundary + 5 * bs, &data).unwrap();
    fs.drop_caches().unwrap();
    let mut buf = vec![0u8; 4096];
    assert_eq!(fs.read(ino, boundary + 5 * bs, &mut buf).unwrap(), 4096);
    assert_eq!(buf, data);
    // The hole before reads as zeroes.
    fs.read(ino, boundary, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 0));
}

#[test]
fn sync_persists_across_remount_raw() {
    let store = RawStore::format(MemDisk::with_capacity(16 << 20)).unwrap();
    let mut fs = MinixFs::format(store, FsConfig::small_for_tests()).unwrap();
    let ino = fs.create("/persist").unwrap();
    let data = pattern(12_345, 5);
    fs.write(ino, 0, &data).unwrap();
    fs.mkdir("/dir").unwrap();
    fs.sync().unwrap();

    let disk = fs.into_store().into_disk();
    let store = RawStore::mount(disk).unwrap();
    let mut fs = MinixFs::mount(store, FsConfig::small_for_tests()).unwrap();
    let ino2 = fs.lookup("/persist").unwrap();
    assert_eq!(ino2, ino);
    let mut buf = vec![0u8; 12_345];
    assert_eq!(fs.read(ino2, 0, &mut buf).unwrap(), 12_345);
    assert_eq!(buf, data);
    assert!(fs.lookup("/dir").is_ok());
    // The i-node bitmap survived: allocating gives a fresh i-node.
    let f2 = fs.create("/another").unwrap();
    assert_ne!(f2, ino);
}

#[test]
fn sync_persists_across_crash_ld() {
    // The headline property: MINIX over LLD is crash-consistent up to the
    // last sync, with zero fsck-style repair.
    let store = LdStore::format(
        MemDisk::with_capacity(16 << 20),
        lld::LldConfig::small_for_tests(),
    )
    .unwrap();
    let mut fs = MinixFs::format(store, FsConfig::small_for_tests()).unwrap();
    let ino = fs.create("/persist").unwrap();
    let data = pattern(30_000, 6);
    fs.write(ino, 0, &data).unwrap();
    fs.sync().unwrap();
    // Post-sync activity that must vanish.
    let doomed = fs.create("/doomed").unwrap();
    fs.write(doomed, 0, &pattern(5_000, 7)).unwrap();

    let disk = fs.into_store().into_disk(); // Crash: drop all memory state.
    let store = LdStore::mount(disk, lld::LldConfig::small_for_tests()).unwrap();
    let mut fs = MinixFs::mount(store, FsConfig::small_for_tests()).unwrap();
    let ino2 = fs.lookup("/persist").unwrap();
    assert_eq!(ino2, ino);
    let mut buf = vec![0u8; 30_000];
    assert_eq!(fs.read(ino2, 0, &mut buf).unwrap(), 30_000);
    assert_eq!(buf, data);
    assert_eq!(fs.lookup("/doomed"), Err(FsError::NotFound));
}

#[test]
fn compressed_store_keeps_compressing_after_remount() {
    // File lists take their hints from the meta list, whose hints LLD
    // carries through the crash and the recovery sweep.
    let text: Vec<u8> = b"the logical disk separates file and disk management. "
        .iter()
        .copied()
        .cycle()
        .take(16 << 10)
        .collect();
    let store = LdStore::format_compressed(
        MemDisk::with_capacity(16 << 20),
        lld::LldConfig::small_for_tests(),
    )
    .unwrap();
    let mut fs = MinixFs::format(store, FsConfig::small_for_tests()).unwrap();
    let before = fs.create("/before").unwrap();
    fs.write(before, 0, &text).unwrap();
    fs.sync().unwrap();

    let disk = fs.into_store().into_disk();
    let store = LdStore::mount(disk, lld::LldConfig::small_for_tests()).unwrap();
    let mut fs = MinixFs::mount(store, FsConfig::small_for_tests()).unwrap();
    let after = fs.create("/after").unwrap();
    fs.write(after, 0, &text).unwrap();
    fs.sync().unwrap();

    let lld = fs.store().lld();
    for lid in lld.list_of_lists() {
        assert_eq!(lld.list_hints(lid), Some(ld_core::ListHints::compressed()));
    }
    let stats = lld.stats();
    assert!(
        stats.stored_bytes_written * 2 < stats.user_bytes_written,
        "after the remount {} user bytes were stored as {}",
        stats.user_bytes_written,
        stats.stored_bytes_written
    );
    let mut buf = vec![0u8; text.len()];
    assert_eq!(fs.read(after, 0, &mut buf).unwrap(), text.len());
    assert_eq!(buf, text);
}

#[test]
fn many_files_in_one_directory() {
    // A miniature of the paper's small-file benchmark shape.
    on_both(|fs| {
        let data = pattern(1024, 2);
        for i in 0..200 {
            let ino = fs.create(&format!("/f{i:04}")).unwrap();
            fs.write(ino, 0, &data).unwrap();
        }
        fs.sync().unwrap();
        fs.drop_caches().unwrap();
        for i in 0..200 {
            let ino = fs.lookup(&format!("/f{i:04}")).unwrap();
            let mut buf = vec![0u8; 1024];
            assert_eq!(fs.read(ino, 0, &mut buf).unwrap(), 1024);
            assert_eq!(buf, data, "file {i}");
        }
        for i in 0..200 {
            fs.unlink(&format!("/f{i:04}")).unwrap();
        }
        assert_eq!(fs.readdir("/").unwrap().len(), 2, "only . and .. remain");
    });
}

#[test]
fn per_file_lists_cluster_on_ld() {
    let store = LdStore::format(
        MemDisk::with_capacity(16 << 20),
        lld::LldConfig::small_for_tests(),
    )
    .unwrap();
    let mut fs = MinixFs::format(store, FsConfig::small_for_tests()).unwrap();
    let a = fs.create("/a").unwrap();
    let b = fs.create("/b").unwrap();
    fs.write(a, 0, &pattern(8192, 1)).unwrap();
    fs.write(b, 0, &pattern(8192, 2)).unwrap();
    // Each file's group is a distinct LD list.
    let ga = fs.read_inode(a).unwrap().group;
    let gb = fs.read_inode(b).unwrap().group;
    assert_ne!(ga, 0);
    assert_ne!(gb, 0);
    assert_ne!(ga, gb);
    // Unlink deletes the whole list in one call.
    fs.unlink("/a").unwrap();
    let mut buf = vec![0u8; 8192];
    let ino_b = fs.lookup("/b").unwrap();
    assert_eq!(fs.read(ino_b, 0, &mut buf).unwrap(), 8192);
}

#[test]
fn small_inode_blocks_on_ld() {
    let store = LdStore::format(
        MemDisk::with_capacity(16 << 20),
        lld::LldConfig::small_for_tests(),
    )
    .unwrap();
    let config = FsConfig {
        inode_mode: InodeMode::SmallBlocks,
        ..FsConfig::small_for_tests()
    };
    let mut fs = MinixFs::format(store, config).unwrap();
    let ino = fs.create("/x").unwrap();
    fs.write(ino, 0, &pattern(5000, 8)).unwrap();
    fs.sync().unwrap();
    // Remount and verify i-nodes survive in their small blocks.
    let disk = fs.into_store().into_disk();
    let store = LdStore::mount(disk, lld::LldConfig::small_for_tests()).unwrap();
    let mut fs = MinixFs::mount(store, FsConfig::small_for_tests()).unwrap();
    let ino = fs.lookup("/x").unwrap();
    assert_eq!(fs.stat(ino).unwrap().size, 5000);
    fs.unlink("/x").unwrap();
    assert_eq!(fs.lookup("/x"), Err(FsError::NotFound));

    // The raw store rejects this mode.
    let raw = RawStore::format(MemDisk::with_capacity(8 << 20)).unwrap();
    let config = FsConfig {
        inode_mode: InodeMode::SmallBlocks,
        ..FsConfig::small_for_tests()
    };
    assert!(MinixFs::format(raw, config).is_err());
}

#[test]
fn readahead_only_on_raw_store() {
    let store = RawStore::format(MemDisk::with_capacity(16 << 20)).unwrap();
    let mut fs = MinixFs::format(store, FsConfig::small_for_tests()).unwrap();
    let ino = fs.create("/seq").unwrap();
    fs.write(ino, 0, &pattern(64 << 10, 1)).unwrap();
    fs.drop_caches().unwrap();
    let mut buf = vec![0u8; 4096];
    fs.read(ino, 0, &mut buf).unwrap();
    assert!(fs.stats().readahead_blocks > 0, "raw store prefetches");

    let store = LdStore::format(
        MemDisk::with_capacity(16 << 20),
        lld::LldConfig::small_for_tests(),
    )
    .unwrap();
    let mut fs = MinixFs::format(store, FsConfig::small_for_tests()).unwrap();
    let ino = fs.create("/seq").unwrap();
    fs.write(ino, 0, &pattern(64 << 10, 1)).unwrap();
    fs.drop_caches().unwrap();
    fs.read(ino, 0, &mut buf).unwrap();
    assert_eq!(
        fs.stats().readahead_blocks,
        0,
        "read-ahead is disabled over LD (§4.1)"
    );
}

#[test]
fn out_of_inodes_is_reported() {
    let store = RawStore::format(MemDisk::with_capacity(16 << 20)).unwrap();
    let config = FsConfig {
        ninodes: 4,
        ..FsConfig::small_for_tests()
    };
    let mut fs = MinixFs::format(store, config).unwrap();
    // Root consumed one; three left.
    fs.create("/a").unwrap();
    fs.create("/b").unwrap();
    fs.create("/c").unwrap();
    assert_eq!(fs.create("/d"), Err(FsError::NoInodes));
    fs.unlink("/b").unwrap();
    assert!(fs.create("/d").is_ok());
}

#[test]
fn cache_eviction_pressure_is_correct() {
    // A cache far smaller than the working set still yields correct data.
    let store = RawStore::format(MemDisk::with_capacity(16 << 20)).unwrap();
    let config = FsConfig {
        cache_bytes: 16 << 10, // Four blocks.
        ..FsConfig::small_for_tests()
    };
    let mut fs = MinixFs::format(store, config).unwrap();
    let ino = fs.create("/f").unwrap();
    let data = pattern(128 << 10, 3);
    fs.write(ino, 0, &data).unwrap();
    let mut buf = vec![0u8; 128 << 10];
    fs.read(ino, 0, &mut buf).unwrap();
    assert_eq!(buf, data);
}

#[test]
fn simdisk_backend_smoke() {
    // Everything also runs over the timed simulator (the benchmarks do).
    let store = RawStore::format(SimDisk::hp_c3010_with_capacity(16 << 20)).unwrap();
    let mut fs = MinixFs::format(store, FsConfig::small_for_tests()).unwrap();
    let t0 = fs.now_us();
    let ino = fs.create("/timed").unwrap();
    fs.write(ino, 0, &pattern(32 << 10, 1)).unwrap();
    fs.sync().unwrap();
    assert!(fs.now_us() > t0, "simulated time advanced");
}

#[test]
fn root_is_a_directory() {
    on_both(|fs| {
        let st = fs.stat(ROOT_INO).unwrap();
        assert_eq!(st.ftype, FileType::Dir);
        assert_eq!(fs.lookup("/").unwrap(), ROOT_INO);
    });
}

#[test]
fn store_hint_plumbing_allocates_contiguously_on_raw() {
    // White-box: sequential writes through the FS allocate consecutive
    // blocks on the raw store (MINIX's locality policy), which is what
    // makes its sequential reads competitive in Table 5.
    let store = RawStore::format(MemDisk::with_capacity(16 << 20)).unwrap();
    let mut fs = MinixFs::format(store, FsConfig::small_for_tests()).unwrap();
    let ino = fs.create("/f").unwrap();
    fs.write(ino, 0, &pattern(28 << 10, 1)).unwrap(); // 7 direct blocks.
    let inode = fs.read_inode(ino).unwrap();
    let zones: Vec<_> = inode.ptrs[..7].to_vec();
    for w in zones.windows(2) {
        assert_eq!(w[1], w[0] + 1, "zones not contiguous: {zones:?}");
    }
    let _ = AllocHint::default(); // Silence unused-import lint in some cfgs.
}

#[test]
fn rename_moves_files_and_directories() {
    on_both(|fs| {
        fs.mkdir("/a").unwrap();
        fs.mkdir("/b").unwrap();
        let ino = fs.create("/a/file").unwrap();
        fs.write(ino, 0, &pattern(5000, 1)).unwrap();

        fs.rename("/a/file", "/b/renamed").unwrap();
        assert_eq!(fs.lookup("/a/file"), Err(FsError::NotFound));
        let moved = fs.lookup("/b/renamed").unwrap();
        assert_eq!(moved, ino, "rename keeps the i-node");
        let mut buf = vec![0u8; 5000];
        assert_eq!(fs.read(moved, 0, &mut buf).unwrap(), 5000);
        assert_eq!(buf, pattern(5000, 1));

        // Destination collision is refused.
        fs.create("/b/taken").unwrap();
        assert_eq!(fs.rename("/b/renamed", "/b/taken"), Err(FsError::Exists));

        // Moving a directory updates "..".
        fs.mkdir("/a/sub").unwrap();
        fs.create("/a/sub/x").unwrap();
        fs.rename("/a/sub", "/b/sub").unwrap();
        assert!(fs.lookup("/b/sub/x").is_ok());
        let dotdot: Vec<_> = fs
            .readdir("/b/sub")
            .unwrap()
            .into_iter()
            .filter(|d| d.name == "..")
            .collect();
        assert_eq!(dotdot.len(), 1);

        // A directory cannot be moved into itself.
        assert!(fs.rename("/b", "/b/sub/loop").is_err());
    });
}

/// Runs `op` on `fs`, which keeps its directory indexes, and on `twin`,
/// which drops them first, so that its lookups and unlinks scan without
/// one (a create's miss reads every block and reinstalls it). Both must
/// answer alike and touch the same blocks: equal cache hits and misses,
/// and equal simulated time.
fn in_step<S: BlockStore>(
    fs: &mut MinixFs<S>,
    twin: &mut MinixFs<S>,
    op: impl Fn(&mut MinixFs<S>) -> String,
) -> String {
    twin.fs.dirs.clear();
    let got = op(fs);
    assert_eq!(got, op(twin));
    assert_eq!(fs.cache_stats(), twin.cache_stats(), "after {got}");
    assert_eq!(fs.now_us(), twin.now_us(), "after {got}");
    got
}

#[test]
fn dir_index_stops_where_the_scan_would() {
    // 1,200 entries fill 10 blocks, three of them through the indirect
    // zone, under a 16-block cache. Debug builds also check every indexed
    // answer against the blocks the scan reads.
    type Fs = MinixFs<RawStore<SimDisk>>;
    let config = FsConfig {
        ninodes: 2048,
        cache_bytes: 16 << 12,
        ..FsConfig::small_for_tests()
    };
    let format = || {
        let store = RawStore::format(SimDisk::hp_c3010_with_capacity(32 << 20)).unwrap();
        MinixFs::format(store, config.clone()).unwrap()
    };
    let remount = |fs: Fs| {
        let store = RawStore::mount(fs.into_store().into_disk()).unwrap();
        MinixFs::mount(store, config.clone()).unwrap()
    };
    let name = |i: usize| format!("/d/f{i:04}");
    let (mut fs, mut twin) = (format(), format());
    let d = fs.mkdir("/d").unwrap();
    twin.mkdir("/d").unwrap();
    for i in 0..1200 {
        fs.create(&name(i)).unwrap();
        twin.create(&name(i)).unwrap();
    }
    let size = |fs: &mut Fs, twin: &mut Fs| {
        in_step(fs, twin, |f| format!("{:?}", f.stat(d).map(|st| st.size)))
    };
    assert_eq!(size(&mut fs, &mut twin), format!("Ok({})", 10 << 12));

    // Unlink every third entry, look up every fifth and some absent names,
    // refill the holes.
    let churn = |fs: &mut Fs, twin: &mut Fs, round: usize| {
        for i in (round..1200).step_by(3) {
            assert_eq!(
                in_step(fs, twin, |f| format!("{:?}", f.unlink(&name(i)))),
                "Ok(())"
            );
        }
        for i in (0..1200).step_by(5) {
            let got = in_step(fs, twin, |f| format!("{:?}", f.lookup(&name(i))));
            assert_eq!(got == "Err(NotFound)", i % 3 == round, "{i}: {got}");
        }
        for i in 0..20 {
            let got = in_step(fs, twin, |f| format!("{:?}", f.lookup(&format!("/d/g{i}"))));
            assert_eq!(got, "Err(NotFound)");
        }
        for i in (round..1200).step_by(3) {
            assert!(in_step(fs, twin, |f| format!("{:?}", f.create(&name(i)))).starts_with("Ok"));
        }
        assert_eq!(
            size(fs, twin),
            format!("Ok({})", 10 << 12),
            "holes refilled"
        );
    };
    churn(&mut fs, &mut twin, 0);

    // After a remount nothing is indexed: the scan runs until a miss reads
    // every block and installs the index.
    fs.sync().unwrap();
    twin.sync().unwrap();
    let (mut fs, mut twin) = (remount(fs), remount(twin));
    assert!(fs.fs.dirs.is_empty());
    in_step(&mut fs, &mut twin, |f| format!("{:?}", f.unlink(&name(1))));
    assert!(!fs.fs.dirs.contains_key(&d), "hits read only part of /d");
    in_step(&mut fs, &mut twin, |f| format!("{:?}", f.create(&name(1))));
    assert!(fs.fs.dirs.contains_key(&d), "create's miss read all of /d");
    churn(&mut fs, &mut twin, 1);

    // A freed directory i-node is reused by the next directory.
    for i in 0..1200 {
        fs.unlink(&name(i)).unwrap();
        twin.unlink(&name(i)).unwrap();
    }
    in_step(&mut fs, &mut twin, |f| format!("{:?}", f.rmdir("/d")));
    assert!(!fs.fs.dirs.contains_key(&d));
    let e = in_step(&mut fs, &mut twin, |f| format!("{:?}", f.mkdir("/e")));
    assert_eq!(e, format!("Ok({d})"));
    for i in 0..5 {
        in_step(&mut fs, &mut twin, |f| {
            format!("{:?}", f.create(&format!("/e/f{i:04}")))
        });
    }
    for i in 0..10 {
        let got = in_step(&mut fs, &mut twin, |f| {
            format!("{:?}", f.lookup(&format!("/e/f{i:04}")))
        });
        assert_eq!(got.starts_with("Ok"), i < 5, "{i}: {got}");
    }
}

#[test]
fn inode_numbers_outside_the_table_are_not_found() {
    on_both(|fs| {
        let last = FsConfig::small_for_tests().ninodes;
        for ino in [0, last + 1, u32::MAX] {
            assert_eq!(fs.stat(ino), Err(FsError::NotFound), "stat {ino}");
            let got = fs.read(ino, 0, &mut [0u8; 8]);
            assert_eq!(got, Err(FsError::NotFound), "read {ino}");
            assert_eq!(
                fs.write(ino, 0, b"x"),
                Err(FsError::NotFound),
                "write {ino}"
            );
        }
    });
}

#[test]
fn write_past_the_largest_file_allocates_nothing() {
    // The i-node records a 32-bit size: a write ending past it fails before
    // it allocates a block.
    let store = RawStore::format(MemDisk::with_capacity(32 << 20)).unwrap();
    let mut fs = MinixFs::format(store, FsConfig::small_for_tests()).unwrap();
    let ino = fs.create("/f").unwrap();
    let free = fs.store().free_blocks();
    let max = u64::from(u32::MAX);
    assert_eq!(fs.write(ino, max - 10, &[7; 100]), Err(FsError::NoSpace));
    assert_eq!(fs.store().free_blocks(), free, "no block leaked");
    assert_eq!(fs.stat(ino).unwrap().size, 0);
    // A write that ends exactly at the limit fits.
    fs.write(ino, max - 100, &[7; 100]).unwrap();
    assert_eq!(fs.stat(ino).unwrap().size, max);
}

/// Fills the buffer cache's spare pool with buffers of nonzero bytes, then
/// reads three blocks whose stores return fewer bytes than the block's
/// length, or none: each must come out of the cache zero-padded, although
/// the buffer it was read into held another block's bytes.
fn recycled_buffers_read_back_zero_padded<S: BlockStore>(mut fs: MinixFs<S>) {
    let bs = fs.store().block_size();
    let small = if fs.store().supports_small_blocks() {
        INODE_SIZE
    } else {
        bs
    };
    // Nonzero blocks, small and full, evicted clean: the small ones from
    // the store into the cache, then a file of twice the cache's size,
    // synced, dropped and read back.
    let junk = vec![0xABu8; bs];
    for _ in 0..4 {
        let a = fs
            .store_mut()
            .alloc_sized(&AllocHint::after(None), small)
            .unwrap();
        fs.store_mut().write_block(a, &junk[..small]).unwrap();
        fs.fs.fetch(a, small).unwrap();
    }
    let ino = fs.create("/junk").unwrap();
    let cache_bytes = FsConfig::small_for_tests().cache_bytes;
    fs.write(ino, 0, &vec![0xAB; 2 * cache_bytes]).unwrap();
    fs.sync().unwrap();
    fs.drop_caches().unwrap();
    let mut buf = vec![0u8; 2 * cache_bytes];
    assert_eq!(fs.read(ino, 0, &mut buf).unwrap(), buf.len());
    assert!(buf.iter().all(|&b| b == 0xAB));
    assert!(fs.fs.cache.spares() > 0, "clean evictions left spares");

    // A partial write into a fresh block: the rest of the block is zero,
    // in the cache and after write-back.
    let f = fs.create("/f").unwrap();
    fs.write(f, 100, &[7; 10]).unwrap();
    fs.write(f, 2 * bs as u64, &[8]).unwrap();
    let mut want = vec![0u8; bs];
    want[100..110].fill(7);
    for round in ["cached", "written back"] {
        let mut got = vec![0xFFu8; bs];
        assert_eq!(fs.read(f, 0, &mut got).unwrap(), bs);
        assert_eq!(got, want, "partial write into a fresh block, {round}");
        fs.drop_caches().unwrap();
    }

    // A small block holding 10 bytes.
    let a = fs
        .store_mut()
        .alloc_sized(&AllocHint::after(None), small)
        .unwrap();
    fs.store_mut().write_block(a, &[9; 10]).unwrap();
    let mut want = vec![0u8; small];
    want[..10].fill(9);
    assert_eq!(
        fs.fs.fetch(a, small).unwrap(),
        &want[..],
        "short small block"
    );

    // A block never written.
    let a = fs.store_mut().alloc_block(&AllocHint::after(None)).unwrap();
    assert_eq!(
        fs.fs.fetch(a, bs).unwrap(),
        &vec![0u8; bs][..],
        "never-written block"
    );
}

#[test]
fn recycled_cache_buffers_read_back_zero_padded() {
    recycled_buffers_read_back_zero_padded(raw_fs());
    recycled_buffers_read_back_zero_padded(ld_fs());
    let store = LdStore::format_compressed(
        MemDisk::with_capacity(16 << 20),
        lld::LldConfig::small_for_tests(),
    )
    .unwrap();
    recycled_buffers_read_back_zero_padded(
        MinixFs::format(store, FsConfig::small_for_tests()).unwrap(),
    );
}
