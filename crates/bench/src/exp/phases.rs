//! The two Sprite-LFS microbenchmarks (§4.2), reimplemented from their
//! description: small-file create/read/delete and the five-phase 80 MB
//! large-file benchmark.

use crate::driver::Bencher;
use crate::workload::{compressible_data, file_names, shuffled};

/// Small-file results, files per second (Table 4's unit).
#[derive(Debug, Clone, Copy)]
pub struct SmallFileResult {
    /// Files created (and written) per second.
    pub create_per_s: f64,
    /// Files read per second.
    pub read_per_s: f64,
    /// Files deleted per second.
    pub delete_per_s: f64,
}

/// "The first benchmark measures small file I/O: the cost of creating,
/// reading, and deleting N files in one directory." Each phase is fenced
/// with a sync, and the cache is flushed between phases.
pub fn small_file(fs: &mut dyn Bencher, n: usize, file_bytes: usize) -> SmallFileResult {
    let names = file_names(n);
    let data = compressible_data(file_bytes, 0x5F11E);

    // Create.
    let t0 = fs.now_us();
    for name in &names {
        let h = fs.create(name);
        fs.write(h, 0, &data);
    }
    fs.sync();
    let create_us = fs.now_us() - t0;

    fs.drop_caches();

    // Read.
    let mut buf = vec![0u8; file_bytes];
    let t0 = fs.now_us();
    for name in &names {
        let h = fs.open(name);
        let got = fs.read(h, 0, &mut buf);
        assert_eq!(got, file_bytes, "short read of {name}");
    }
    let read_us = fs.now_us() - t0;

    fs.drop_caches();

    // Delete.
    let t0 = fs.now_us();
    for name in &names {
        fs.unlink(name);
    }
    fs.sync();
    let delete_us = fs.now_us() - t0;

    SmallFileResult {
        create_per_s: crate::report::ops_per_s(n as u64, create_us),
        read_per_s: crate::report::ops_per_s(n as u64, read_us),
        delete_per_s: crate::report::ops_per_s(n as u64, delete_us),
    }
}

/// Large-file results, KB per second (Table 5's unit).
#[derive(Debug, Clone, Copy)]
pub struct LargeFileResult {
    /// Sequential write of the whole file.
    pub write_seq: f64,
    /// Sequential read.
    pub read_seq: f64,
    /// Random (shuffled chunk order) rewrite of the whole file.
    pub write_rand: f64,
    /// Random read of the whole file.
    pub read_rand: f64,
    /// Sequential re-read after the random writes.
    pub reread_seq: f64,
}

/// "The second benchmark ... writing and reading an 80-Mbyte file from a
/// newly created file system in five stages" (8 KB chunks).
pub fn large_file(fs: &mut dyn Bencher, file_bytes: u64, chunk: usize) -> LargeFileResult {
    let nchunks = (file_bytes / chunk as u64) as usize;
    let data = compressible_data(chunk, 0xB16F11E);
    let handle = fs.create("/bigfile");

    // 1. Sequential write.
    let t0 = fs.now_us();
    for i in 0..nchunks {
        fs.write(handle, (i * chunk) as u64, &data);
    }
    fs.sync();
    let write_seq = crate::report::kb_per_s(file_bytes, fs.now_us() - t0);
    fs.drop_caches();

    // 2. Sequential read.
    let mut buf = vec![0u8; chunk];
    let t0 = fs.now_us();
    for i in 0..nchunks {
        fs.read(handle, (i * chunk) as u64, &mut buf);
    }
    let read_seq = crate::report::kb_per_s(file_bytes, fs.now_us() - t0);
    fs.drop_caches();

    // 3. Random write (every chunk once, shuffled).
    let order = shuffled(nchunks, 0xAA);
    let t0 = fs.now_us();
    for &i in &order {
        fs.write(handle, (i * chunk) as u64, &data);
    }
    fs.sync();
    let write_rand = crate::report::kb_per_s(file_bytes, fs.now_us() - t0);
    fs.drop_caches();

    // 4. Random read (a different shuffle).
    let order = shuffled(nchunks, 0xBB);
    let t0 = fs.now_us();
    for &i in &order {
        fs.read(handle, (i * chunk) as u64, &mut buf);
    }
    let read_rand = crate::report::kb_per_s(file_bytes, fs.now_us() - t0);
    fs.drop_caches();

    // 5. Sequential re-read.
    let t0 = fs.now_us();
    for i in 0..nchunks {
        fs.read(handle, (i * chunk) as u64, &mut buf);
    }
    let reread_seq = crate::report::kb_per_s(file_bytes, fs.now_us() - t0);

    LargeFileResult {
        write_seq,
        read_seq,
        write_rand,
        read_rand,
        reread_seq,
    }
}
