//! Differential check: MINIX on the logical disk vs. MINIX on the raw
//! disk. The LLD layer below the file system changes *where* bytes live
//! (log-structured segments, cleaning, compression) and *how fast* — it
//! must never change *what* the file system reads back. One deterministic
//! workload runs against both stacks on identical fault-free media; every
//! file, directory listing, and size must come out byte-identical.

use logical_disk_repro::lld::LldConfig;
use logical_disk_repro::minix_fs::{BlockStore, FsConfig, FsCpuModel, LdStore, MinixFs, RawStore};
use logical_disk_repro::simdisk::SimDisk;

const CAPACITY: u64 = 24 << 20;

fn fs_config() -> FsConfig {
    FsConfig {
        ninodes: 256,
        cache_bytes: 256 << 10,
        cpu: FsCpuModel::free(),
        ..FsConfig::default()
    }
}

fn content(seed: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| ((seed * 131 + j * 17) % 251) as u8)
        .collect()
}

/// The deterministic workload: a directory tree, files of many sizes,
/// overwrites, renames, deletions, truncations, interleaved syncs.
fn run_workload<S: BlockStore>(fs: &mut MinixFs<S>) {
    fs.mkdir("/docs").unwrap();
    fs.mkdir("/docs/old").unwrap();
    fs.mkdir("/tmp").unwrap();
    for i in 0..18usize {
        let dir = match i % 3 {
            0 => "/docs",
            1 => "/docs/old",
            _ => "/tmp",
        };
        let path = format!("{dir}/file{i:02}");
        let ino = fs.create(&path).unwrap();
        fs.write(ino, 0, &content(i, 200 + i * 731)).unwrap();
        if i % 5 == 0 {
            fs.sync().unwrap();
        }
    }
    // Overwrites in the middle and past the end of existing files.
    for i in [0usize, 3, 7, 12] {
        let dir = match i % 3 {
            0 => "/docs",
            1 => "/docs/old",
            _ => "/tmp",
        };
        let ino = fs.lookup(&format!("{dir}/file{i:02}")).unwrap();
        fs.write(ino, 100 + i as u64 * 37, &content(500 + i, 900))
            .unwrap();
        fs.write(ino, (200 + i * 731) as u64, &content(600 + i, 400))
            .unwrap();
    }
    fs.rename("/docs/file00", "/tmp/renamed00").unwrap();
    fs.rename("/docs/old/file04", "/docs/file04").unwrap();
    fs.unlink("/tmp/file02").unwrap();
    fs.unlink("/docs/old/file07").unwrap();
    let ino = fs.lookup("/tmp/file05").unwrap();
    fs.truncate(ino).unwrap();
    fs.write(ino, 0, b"fresh start").unwrap();
    fs.sync().unwrap();
    // A second wave after the sync, reusing freed inodes and blocks.
    for i in 18..24usize {
        let path = format!("/tmp/wave2-{i}");
        let ino = fs.create(&path).unwrap();
        fs.write(ino, 0, &content(i, 1000 + i * 211)).unwrap();
    }
    fs.sync().unwrap();
}

/// Recursively reads the whole tree: (path, size, contents) per file plus
/// (path, child names) per directory, in traversal order.
fn walk<S: BlockStore>(fs: &mut MinixFs<S>, dir: &str, out: &mut Vec<(String, u64, Vec<u8>)>) {
    let entries = fs.readdir(dir).unwrap();
    let names: Vec<String> = entries
        .iter()
        .filter(|d| d.name != "." && d.name != "..")
        .map(|d| d.name.clone())
        .collect();
    out.push((
        dir.to_string(),
        names.len() as u64,
        names.join("\n").into_bytes(),
    ));
    for name in names {
        let path = if dir == "/" {
            format!("/{name}")
        } else {
            format!("{dir}/{name}")
        };
        let ino = fs.lookup(&path).unwrap();
        let st = fs.stat(ino).unwrap();
        if st.ftype == logical_disk_repro::minix_fs::FileType::Dir {
            walk(fs, &path, out);
        } else {
            let mut buf = vec![0u8; st.size as usize];
            let n = fs.read(ino, 0, &mut buf).unwrap();
            assert_eq!(n, st.size as usize, "{path} read short");
            out.push((path, st.size, buf));
        }
    }
}

#[test]
fn minix_over_lld_matches_minix_over_raw_disk() {
    // The raw stack: classic update-in-place MINIX.
    let mut raw = MinixFs::format(
        RawStore::format(SimDisk::hp_c3010_with_capacity(CAPACITY)).unwrap(),
        fs_config(),
    )
    .unwrap();
    // The logical-disk stack: same file system, log-structured below.
    let lld_config = LldConfig {
        segment_bytes: 64 << 10,
        summary_bytes: 4 << 10,
        cpu: logical_disk_repro::lld::CpuModel::free(),
        ..LldConfig::default()
    };
    let mut lld = MinixFs::format(
        LdStore::format(SimDisk::hp_c3010_with_capacity(CAPACITY), lld_config).unwrap(),
        fs_config(),
    )
    .unwrap();

    run_workload(&mut raw);
    run_workload(&mut lld);

    // Compare through the cache first…
    let (mut a, mut b) = (Vec::new(), Vec::new());
    walk(&mut raw, "/", &mut a);
    walk(&mut lld, "/", &mut b);
    assert_eq!(a, b, "stacks diverged (cached reads)");

    // …then from the media: every cached page dropped, every byte must
    // come back off the (very differently laid out) disks identically.
    raw.drop_caches().unwrap();
    lld.drop_caches().unwrap();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    walk(&mut raw, "/", &mut a);
    walk(&mut lld, "/", &mut b);
    assert_eq!(a, b, "stacks diverged (media reads)");
}
