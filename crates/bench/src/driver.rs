//! A uniform driver over the three file systems so one benchmark loop can
//! run all columns of Tables 4 and 5.
//!
//! The harness panics on file-system errors: an error mid-benchmark means
//! the rig is misconfigured, and there is nothing useful to continue with.

use ffs::Ffs;
use minix_fs::{LdStore, MinixFs, RawStore};
use simdisk::{DiskStats, SimDisk};

use crate::exp::Opts;
use crate::rig;

/// What a benchmark needs from a file system.
pub trait Bencher {
    /// Human-readable column label.
    fn label(&self) -> &'static str;

    /// Creates an empty file; returns a handle.
    fn create(&mut self, path: &str) -> u32;

    /// Opens an existing file.
    fn open(&mut self, path: &str) -> u32;

    /// Writes at an offset.
    fn write(&mut self, handle: u32, offset: u64, data: &[u8]);

    /// Reads at an offset; returns bytes read.
    fn read(&mut self, handle: u32, offset: u64, buf: &mut [u8]) -> usize;

    /// Removes a file.
    fn unlink(&mut self, path: &str);

    /// Flushes everything dirty.
    fn sync(&mut self);

    /// Flushes and empties the buffer cache (between phases, §4.2).
    fn drop_caches(&mut self);

    /// Simulated time in microseconds.
    fn now_us(&self) -> u64;

    /// Disk statistics snapshot.
    fn disk_stats(&self) -> DiskStats;

    /// Attaches an event tracer to this stack's simulated disk, where
    /// every layer (file system, disk manager if any, disk) records its
    /// events into a single timeline.
    fn attach_tracer(&mut self, tracer: ld_trace::Tracer);
}

/// The three file systems of Tables 4 and 5, in column order, each built
/// on a fresh rig disk of the given size.
pub const PAPER_STACKS: [fn(u64) -> Box<dyn Bencher>; 3] = [
    |bytes| Box::new(MinixLld(rig::minix_lld(bytes))),
    |bytes| Box::new(MinixRaw(rig::minix(bytes))),
    |bytes| Box::new(Sunos(rig::sunos(bytes))),
];

/// Runs `work` once on each of the [`PAPER_STACKS`], with `repro`'s
/// tracing applied. Returns each stack's label and result, plus the
/// footnotes tracing adds (empty when it is off).
pub fn on_paper_stacks<R>(
    disk_bytes: u64,
    opts: &Opts,
    exp: &str,
    mut work: impl FnMut(&mut dyn Bencher) -> R,
) -> (Vec<(&'static str, R)>, String) {
    let mut results = Vec::new();
    let mut footnotes = String::new();
    for build in PAPER_STACKS {
        let mut fs = build(disk_bytes);
        let tr = crate::tracectl::maybe_attach(fs.as_mut(), opts);
        results.push((fs.label(), work(fs.as_mut())));
        footnotes.push_str(&crate::tracectl::finish(tr, fs.as_ref(), opts, exp));
    }
    (results, footnotes)
}

/// MINIX over the raw store.
pub struct MinixRaw(pub MinixFs<RawStore<SimDisk>>);
/// MINIX over the LD store.
pub struct MinixLld(pub MinixFs<LdStore<SimDisk>>);
/// The FFS baseline.
pub struct Sunos(pub Ffs<SimDisk>);

/// The [`Bencher`] file operations, delegated to the wrapped file system
/// (MINIX and FFS name them alike).
macro_rules! delegate_ops {
    () => {
        fn create(&mut self, path: &str) -> u32 {
            self.0.create(path).expect("create")
        }
        fn open(&mut self, path: &str) -> u32 {
            self.0.lookup(path).expect("lookup")
        }
        fn write(&mut self, handle: u32, offset: u64, data: &[u8]) {
            self.0.write(handle, offset, data).expect("write");
        }
        fn read(&mut self, handle: u32, offset: u64, buf: &mut [u8]) -> usize {
            self.0.read(handle, offset, buf).expect("read")
        }
        fn unlink(&mut self, path: &str) {
            self.0.unlink(path).expect("unlink");
        }
        fn sync(&mut self) {
            self.0.sync().expect("sync");
        }
        fn drop_caches(&mut self) {
            self.0.drop_caches().expect("drop_caches");
        }
        fn now_us(&self) -> u64 {
            self.0.now_us()
        }
    };
}

impl Bencher for MinixRaw {
    delegate_ops!();

    fn label(&self) -> &'static str {
        "MINIX"
    }

    fn disk_stats(&self) -> DiskStats {
        *self.0.store().disk().stats()
    }

    fn attach_tracer(&mut self, tracer: ld_trace::Tracer) {
        self.0.store_mut().disk_mut().set_tracer(tracer);
    }
}

impl Bencher for MinixLld {
    delegate_ops!();

    fn label(&self) -> &'static str {
        "MINIX LLD"
    }

    fn disk_stats(&self) -> DiskStats {
        *self.0.store().disk().stats()
    }

    fn attach_tracer(&mut self, tracer: ld_trace::Tracer) {
        self.0.store_mut().disk_mut().set_tracer(tracer);
    }
}

impl Bencher for Sunos {
    delegate_ops!();

    fn label(&self) -> &'static str {
        "SunOS"
    }

    fn disk_stats(&self) -> DiskStats {
        *self.0.disk().stats()
    }

    fn attach_tracer(&mut self, tracer: ld_trace::Tracer) {
        self.0.disk_mut().set_tracer(tracer);
    }
}
