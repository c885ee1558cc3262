//! Full-stack integration tests: MINIX over LLD over the simulated disk.

use logical_disk_repro::minix_fs::{BlockStore, FsConfig, FsError, InodeMode, LdStore, MinixFs};
use logical_disk_repro::simdisk::SimDisk;

fn lld_config() -> logical_disk_repro::lld::LldConfig {
    logical_disk_repro::lld::LldConfig {
        segment_bytes: 128 << 10,
        cpu: logical_disk_repro::lld::CpuModel::free(),
        ..logical_disk_repro::lld::LldConfig::default()
    }
}

fn fs_config() -> FsConfig {
    FsConfig {
        cache_bytes: 512 << 10,
        cpu: logical_disk_repro::minix_fs::FsCpuModel::free(),
        ..FsConfig::default()
    }
}

fn content(i: usize, len: usize) -> Vec<u8> {
    (0..len).map(|j| ((i * 31 + j * 7) % 251) as u8).collect()
}

/// Applies the same mixed workload to any backend and returns a digest of
/// the observable state.
fn workload<S: BlockStore>(fs: &mut MinixFs<S>) -> Vec<(String, Vec<u8>)> {
    fs.mkdir("/docs").expect("mkdir");
    fs.mkdir("/src").expect("mkdir");
    let mut live: Vec<(String, usize)> = Vec::new();
    for i in 0..120usize {
        let dir = if i % 3 == 0 { "/docs" } else { "/src" };
        let path = format!("{dir}/file{i:03}");
        let ino = fs.create(&path).expect("create");
        let len = 500 + (i * 137) % 9000;
        fs.write(ino, 0, &content(i, len)).expect("write");
        live.push((path, i));
        // Periodically delete an older file and overwrite another.
        if i % 7 == 3 && live.len() > 4 {
            let (victim, _) = live.remove(live.len() / 2);
            fs.unlink(&victim).expect("unlink");
        }
        if i % 5 == 2 && !live.is_empty() {
            let (path, seed) = live[live.len() / 3].clone();
            let ino = fs.lookup(&path).expect("lookup");
            fs.write(ino, 100, &content(seed + 1000, 300))
                .expect("overwrite");
        }
    }
    fs.sync().expect("sync");
    fs.drop_caches().expect("drop");

    // Digest: every live file's full contents, sorted by path.
    let mut out = Vec::new();
    for dir in ["/docs", "/src"] {
        for d in fs.readdir(dir).expect("readdir") {
            if d.name == "." || d.name == ".." {
                continue;
            }
            let path = format!("{dir}/{}", d.name);
            let ino = fs.lookup(&path).expect("lookup");
            let size = fs.stat(ino).expect("stat").size as usize;
            let mut buf = vec![0u8; size];
            assert_eq!(fs.read(ino, 0, &mut buf).expect("read"), size);
            out.push((path, buf));
        }
    }
    out.sort();
    out
}

#[test]
fn ld_backend_state_survives_crash_and_remount() {
    let store =
        LdStore::format(SimDisk::hp_c3010_with_capacity(32 << 20), lld_config()).expect("format");
    let mut fs = MinixFs::format(store, fs_config()).expect("mkfs");
    let digest = workload(&mut fs);

    // Crash (drop everything in memory) and recover by sweep.
    let mut disk = fs.into_store().into_disk();
    disk.crash_now();
    disk.revive();
    let store = LdStore::mount(disk, lld_config()).expect("LD recovery");
    let mut fs = MinixFs::mount(store, fs_config()).expect("mount");

    for (path, expected) in &digest {
        let ino = fs.lookup(path).expect("recovered lookup");
        let mut buf = vec![0u8; expected.len()];
        assert_eq!(fs.read(ino, 0, &mut buf).expect("read"), expected.len());
        assert_eq!(&buf, expected, "contents of {path} after recovery");
    }
}

#[test]
fn all_configuration_variants_run_the_workload() {
    for inode_mode in [InodeMode::Packed, InodeMode::SmallBlocks] {
        let store = LdStore::format(SimDisk::hp_c3010_with_capacity(32 << 20), lld_config())
            .expect("format");
        let config = FsConfig {
            inode_mode,
            ..fs_config()
        };
        let mut fs = MinixFs::format(store, config).expect("mkfs");
        let digest = workload(&mut fs);
        assert!(!digest.is_empty(), "{inode_mode:?}");
    }
}

#[test]
fn torn_segment_write_cannot_corrupt_the_file_system() {
    // Record one overwrite and its sync, then crash it at every sector
    // prefix of its log; after each crash the file system must mount and
    // the file must read fully, each block one of its two versions.
    let store =
        LdStore::format(SimDisk::hp_c3010_with_capacity(24 << 20), lld_config()).expect("format");
    let mut fs = MinixFs::format(store, fs_config()).expect("mkfs");
    let v1 = content(1, 5000);
    let v2 = content(2, 5000);
    let ino = fs.create("/target").expect("create");
    fs.write(ino, 0, &v1).expect("write");
    fs.sync().expect("sync");
    fs.store_mut().disk_mut().record_writes();
    fs.write(ino, 0, &v2).expect("overwrite");
    fs.sync().expect("sync");
    let mut disk = fs.into_store().into_disk();
    let mut images = disk.take_recording().expect("recording");
    let len = images.writes();
    for n in 0..=len {
        images.advance_to(n);
        let store = LdStore::mount(images.disk(), lld_config()).expect("recovery");
        let mut fs = MinixFs::mount(store, fs_config()).expect("mount");
        let ino = fs.lookup("/target").expect("file still exists");
        let mut buf = vec![0u8; 5000];
        assert_eq!(fs.read(ino, 0, &mut buf).expect("read"), 5000, "prefix {n}");
        // The file system cache wrote v2 in 4 KB blocks; LD guarantees
        // recovery to a segment boundary, so each BLOCK is entirely v1 or
        // entirely v2 (the paper's guarantee is block-level, not
        // whole-file transactional unless the FS uses ARUs).
        for (i, chunk) in buf.chunks(4096).enumerate() {
            let lo = i * 4096;
            let hi = lo + chunk.len();
            assert!(
                chunk == &v1[lo..hi] || chunk == &v2[lo..hi],
                "prefix {n}: block {i} is neither version"
            );
        }
        if n == len {
            assert_eq!(buf, v2, "the sync returned, so v2 is durable");
        }
    }
    println!("{} crash prefixes of the overwrite checked", len + 1);
}

#[test]
fn disk_full_surfaces_cleanly_through_the_stack() {
    let store =
        LdStore::format(SimDisk::hp_c3010_with_capacity(8 << 20), lld_config()).expect("format");
    let mut fs = MinixFs::format(store, fs_config()).expect("mkfs");
    let ino = fs.create("/hog").expect("create");
    let chunk = vec![0xFFu8; 64 << 10];
    let mut written = 0u64;
    let err = loop {
        match fs.write(ino, written, &chunk) {
            Ok(()) => written += chunk.len() as u64,
            Err(e) => break e,
        }
    };
    assert_eq!(err, FsError::NoSpace);
    assert!(written > 4 << 20, "most of the disk was usable");
    // The file system is still functional after ENOSPC.
    fs.sync().expect("sync after ENOSPC");
    let mut buf = vec![0u8; 4096];
    assert_eq!(fs.read(ino, 0, &mut buf).expect("read"), 4096);
}
