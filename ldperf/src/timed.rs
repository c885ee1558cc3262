//! Outside-in host timing of the stack's public boundaries.
//!
//! [`Timed`] wraps one layer and implements that layer's trait by
//! forwarding every method — the defaulted ones included — to the wrapped
//! value inside [`Timer::time`]. With [`Untimed`] the wrapper compiles to
//! the plain call; with a [`LayerClock`] each call is timed with
//! [`Instant`] and charged to its layer. A call made while another timed
//! call is open is a child of that call: the parent's self time is its
//! inclusive time minus the time of its children, so self times are
//! non-negative by construction and sum to the time spent inside the
//! outermost timed calls.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use ld_core::{Bid, FailureSet, Lid, ListHints, LogicalDisk, Pred, PredList, ReservationId};
use minix_fs::{Addr, AllocHint, BlockStore, FsConfig, Ino, MinixFs};
use simdisk::{BlockDev, DiskError};

/// A timed layer of the stack, named after its module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `minix-fs` file-system calls (with the `fsutil` cache and dirents).
    Minix = 0,
    /// `lld`, reached through `minix_fs::BlockStore` or `ld_core::LogicalDisk`.
    Lld = 1,
    /// `simdisk::BlockDev`.
    Simdisk = 2,
}

impl Layer {
    /// Every timed layer, outermost first.
    pub const ALL: [Layer; 3] = [Layer::Minix, Layer::Lld, Layer::Simdisk];
}

/// Cumulative per-layer host time and call counts at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Nanoseconds inside the layer's calls, children included.
    pub inclusive_ns: [u64; 3],
    /// Nanoseconds inside timed calls made while one of this layer's calls
    /// was the innermost open call.
    pub child_ns: [u64; 3],
    /// Calls into the layer.
    pub calls: [u64; 3],
}

impl Totals {
    /// The counters accumulated between `earlier` and `self`.
    pub fn since(&self, earlier: &Totals) -> Totals {
        let sub = |a: [u64; 3], b: [u64; 3]| std::array::from_fn(|i| a[i] - b[i]);
        Totals {
            inclusive_ns: sub(self.inclusive_ns, earlier.inclusive_ns),
            child_ns: sub(self.child_ns, earlier.child_ns),
            calls: sub(self.calls, earlier.calls),
        }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Totals) {
        for i in 0..3 {
            self.inclusive_ns[i] += other.inclusive_ns[i];
            self.child_ns[i] += other.child_ns[i];
            self.calls[i] += other.calls[i];
        }
    }

    /// Host nanoseconds spent in `layer` itself, excluding its children.
    pub fn self_ns(&self, layer: Layer) -> u64 {
        let i = layer as usize;
        self.inclusive_ns[i] - self.child_ns[i]
    }

    /// Calls into `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }
}

/// Charges the host time of a call to a layer.
pub trait Timer: Clone {
    /// Runs `f` as one call into `layer`.
    fn time<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R;

    /// The running totals, or `None` when nothing is recorded.
    fn totals(&self) -> Option<Totals>;
}

/// Records nothing: the wrapped stack runs exactly as the plain one.
#[derive(Debug, Clone, Copy, Default)]
pub struct Untimed;

impl Timer for Untimed {
    #[inline(always)]
    fn time<R>(&self, _layer: Layer, f: impl FnOnce() -> R) -> R {
        f()
    }

    fn totals(&self) -> Option<Totals> {
        None
    }
}

/// Per-layer wall-clock accounting shared by every wrapper of one stack.
#[derive(Debug, Clone, Default)]
pub struct LayerClock(Rc<ClockState>);

#[derive(Debug, Default)]
struct ClockState {
    totals: Cell<Totals>,
    /// The innermost open call's layer.
    open: Cell<Option<Layer>>,
}

impl Timer for LayerClock {
    fn time<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let state = &*self.0;
        let parent = state.open.replace(Some(layer));
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        state.open.set(parent);
        let mut t = state.totals.get();
        t.inclusive_ns[layer as usize] += ns;
        t.calls[layer as usize] += 1;
        if let Some(p) = parent {
            t.child_ns[p as usize] += ns;
        }
        state.totals.set(t);
        out
    }

    fn totals(&self) -> Option<Totals> {
        Some(self.0.totals.get())
    }
}

/// CPU time the calling thread has used, in nanoseconds (user plus system,
/// from `CLOCK_THREAD_CPUTIME_ID`). Unlike the wall clock it stops while
/// the thread waits for a CPU, so on a shared host it moves less with
/// other load. Each read is a system call, so it times regions, not calls.
pub fn thread_cpu_ns() -> u64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// One layer of the stack behind a timer.
#[derive(Debug)]
pub struct Timed<X, T> {
    inner: X,
    timer: T,
}

impl<X, T: Timer> Timed<X, T> {
    /// Wraps `inner`, charging its calls to `timer`.
    pub fn new(inner: X, timer: T) -> Self {
        Self { inner, timer }
    }

    /// The wrapped layer (untimed access).
    pub fn inner(&self) -> &X {
        &self.inner
    }

    /// The wrapped layer, mutably (untimed access).
    pub fn inner_mut(&mut self) -> &mut X {
        &mut self.inner
    }

    /// Unwraps the layer.
    pub fn into_inner(self) -> X {
        self.inner
    }
}

/// Forwards one trait method through the timer, calling the wrapped
/// value's implementation by its fully qualified path so that an inherent
/// method of the same name can never be picked instead.
macro_rules! forward {
    ($tr:path, $layer:ident, fn $name:ident(&self $(, $arg:ident: $ty:ty)*) -> $ret:ty) => {
        fn $name(&self $(, $arg: $ty)*) -> $ret {
            self.timer.time(Layer::$layer, || <X as $tr>::$name(&self.inner $(, $arg)*))
        }
    };
    ($tr:path, $layer:ident, fn $name:ident(&mut self $(, $arg:ident: $ty:ty)*) -> $ret:ty) => {
        fn $name(&mut self $(, $arg: $ty)*) -> $ret {
            self.timer.time(Layer::$layer, || <X as $tr>::$name(&mut self.inner $(, $arg)*))
        }
    };
}

impl<X: BlockDev, T: Timer> BlockDev for Timed<X, T> {
    forward!(BlockDev, Simdisk, fn total_sectors(&self) -> u64);
    forward!(BlockDev, Simdisk, fn read_sectors(&mut self, sector: u64, buf: &mut [u8]) -> Result<(), DiskError>);
    forward!(BlockDev, Simdisk, fn write_sectors(&mut self, sector: u64, data: &[u8]) -> Result<(), DiskError>);
    forward!(BlockDev, Simdisk, fn now_us(&self) -> u64);
    forward!(BlockDev, Simdisk, fn advance_us(&mut self, us: u64) -> ());
    forward!(BlockDev, Simdisk, fn capacity_bytes(&self) -> u64);
    forward!(BlockDev, Simdisk, fn nvram_bytes(&self) -> usize);
    forward!(BlockDev, Simdisk, fn nvram_write(&mut self, offset: usize, data: &[u8]) -> Result<(), DiskError>);
    forward!(BlockDev, Simdisk, fn nvram_read(&mut self, offset: usize, buf: &mut [u8]) -> Result<(), DiskError>);
    forward!(BlockDev, Simdisk, fn sched_cylinder(&self, sector: u64) -> u64);
    forward!(BlockDev, Simdisk, fn sched_head_cylinder(&self) -> u64);
    forward!(BlockDev, Simdisk, fn sched_access_us(&self, sector: u64) -> u64);
}

impl<X: BlockStore, T: Timer> BlockStore for Timed<X, T> {
    forward!(BlockStore, Lld, fn block_size(&self) -> usize);
    forward!(BlockStore, Lld, fn superblock_addr(&self) -> Addr);
    forward!(BlockStore, Lld, fn read_block(&mut self, addr: Addr, buf: &mut [u8]) -> minix_fs::Result<usize>);
    forward!(BlockStore, Lld, fn write_block(&mut self, addr: Addr, data: &[u8]) -> minix_fs::Result<()>);
    forward!(BlockStore, Lld, fn read_blocks(&mut self, addrs: &[Addr]) -> minix_fs::Result<Vec<Vec<u8>>>);
    forward!(BlockStore, Lld, fn alloc_block(&mut self, hint: &AllocHint) -> minix_fs::Result<Addr>);
    forward!(BlockStore, Lld, fn alloc_sized(&mut self, hint: &AllocHint, size: usize) -> minix_fs::Result<Addr>);
    forward!(BlockStore, Lld, fn free_block(&mut self, addr: Addr, hint: &AllocHint) -> minix_fs::Result<()>);
    forward!(BlockStore, Lld, fn new_group(&mut self, near: Option<u64>) -> minix_fs::Result<u64>);
    forward!(BlockStore, Lld, fn delete_group(&mut self, group: u64) -> minix_fs::Result<()>);
    forward!(BlockStore, Lld, fn sync(&mut self) -> minix_fs::Result<()>);
    forward!(BlockStore, Lld, fn supports_readahead(&self) -> bool);
    forward!(BlockStore, Lld, fn supports_small_blocks(&self) -> bool);
    forward!(BlockStore, Lld, fn free_blocks(&self) -> u64);
    forward!(BlockStore, Lld, fn now_us(&self) -> u64);
    forward!(BlockStore, Lld, fn advance_us(&mut self, us: u64) -> ());
}

impl<X: LogicalDisk, T: Timer> LogicalDisk for Timed<X, T> {
    forward!(LogicalDisk, Lld, fn default_block_size(&self) -> usize);
    forward!(LogicalDisk, Lld, fn capacity_bytes(&self) -> u64);
    forward!(LogicalDisk, Lld, fn free_bytes(&self) -> u64);
    forward!(LogicalDisk, Lld, fn read(&mut self, bid: Bid, buf: &mut [u8]) -> ld_core::Result<usize>);
    forward!(LogicalDisk, Lld, fn write(&mut self, bid: Bid, data: &[u8]) -> ld_core::Result<()>);
    forward!(LogicalDisk, Lld, fn new_block(&mut self, lid: Lid, pred: Pred) -> ld_core::Result<Bid>);
    forward!(LogicalDisk, Lld, fn new_block_with_size(&mut self, lid: Lid, pred: Pred, size: usize) -> ld_core::Result<Bid>);
    forward!(LogicalDisk, Lld, fn delete_block(&mut self, bid: Bid, lid: Lid, pred_hint: Option<Bid>) -> ld_core::Result<()>);
    forward!(LogicalDisk, Lld, fn new_list(&mut self, pred: PredList, hints: ListHints) -> ld_core::Result<Lid>);
    forward!(LogicalDisk, Lld, fn delete_list(&mut self, lid: Lid, pred_hint: Option<Lid>) -> ld_core::Result<()>);
    forward!(LogicalDisk, Lld, fn begin_aru(&mut self) -> ld_core::Result<()>);
    forward!(LogicalDisk, Lld, fn end_aru(&mut self) -> ld_core::Result<()>);
    forward!(LogicalDisk, Lld, fn flush(&mut self, failures: FailureSet) -> ld_core::Result<()>);
    forward!(LogicalDisk, Lld, fn flush_list(&mut self, lid: Lid) -> ld_core::Result<()>);
    forward!(LogicalDisk, Lld, fn reserve(&mut self, bytes: u64) -> ld_core::Result<ReservationId>);
    forward!(LogicalDisk, Lld, fn cancel_reservation(&mut self, id: ReservationId) -> ld_core::Result<()>);
    forward!(LogicalDisk, Lld, fn draw_reservation(&mut self, id: ReservationId, bytes: u64) -> ld_core::Result<()>);
    forward!(LogicalDisk, Lld, fn move_sublist(&mut self, src: Lid, first: Bid, last: Bid, dst: Lid, dst_pred: Pred) -> ld_core::Result<()>);
    forward!(LogicalDisk, Lld, fn move_list(&mut self, lid: Lid, pred: PredList) -> ld_core::Result<()>);
    forward!(LogicalDisk, Lld, fn swap_contents(&mut self, a: Bid, b: Bid) -> ld_core::Result<()>);
    forward!(LogicalDisk, Lld, fn block_at(&mut self, lid: Lid, index: u64) -> ld_core::Result<Bid>);
    forward!(LogicalDisk, Lld, fn list_blocks(&mut self, lid: Lid) -> ld_core::Result<Vec<Bid>>);
    forward!(LogicalDisk, Lld, fn block_len(&mut self, bid: Bid) -> ld_core::Result<usize>);
    forward!(LogicalDisk, Lld, fn shutdown(&mut self) -> ld_core::Result<()>);
}

/// The MINIX calls the workloads make. `MinixFs` has no trait, so the
/// wrapper times its inherent methods.
impl<S: BlockStore, T: Timer> Timed<MinixFs<S>, T> {
    /// Formats a file system on `store` (the format itself is timed as a
    /// MINIX call; it runs during set-up).
    pub fn format(store: S, config: FsConfig, timer: T) -> minix_fs::Result<Self> {
        let fs = timer.time(Layer::Minix, || MinixFs::format(store, config))?;
        Ok(Self::new(fs, timer))
    }

    /// Mounts the file system on `store` (MINIX's share of recovery).
    pub fn mount(store: S, config: FsConfig, timer: T) -> minix_fs::Result<Self> {
        let fs = timer.time(Layer::Minix, || MinixFs::mount(store, config))?;
        Ok(Self::new(fs, timer))
    }

    /// `MinixFs::create`.
    pub fn create(&mut self, path: &str) -> minix_fs::Result<Ino> {
        self.timer.time(Layer::Minix, || self.inner.create(path))
    }

    /// `MinixFs::lookup`.
    pub fn lookup(&mut self, path: &str) -> minix_fs::Result<Ino> {
        self.timer.time(Layer::Minix, || self.inner.lookup(path))
    }

    /// `MinixFs::write`.
    pub fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> minix_fs::Result<()> {
        self.timer
            .time(Layer::Minix, || self.inner.write(ino, offset, data))
    }

    /// `MinixFs::read`.
    pub fn read(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> minix_fs::Result<usize> {
        self.timer
            .time(Layer::Minix, || self.inner.read(ino, offset, buf))
    }

    /// `MinixFs::unlink`.
    pub fn unlink(&mut self, path: &str) -> minix_fs::Result<()> {
        self.timer.time(Layer::Minix, || self.inner.unlink(path))
    }

    /// `MinixFs::readdir`, returning the entry names.
    pub fn list_names(&mut self, path: &str) -> minix_fs::Result<Vec<String>> {
        let entries = self.timer.time(Layer::Minix, || self.inner.readdir(path))?;
        Ok(entries.into_iter().map(|e| e.name).collect())
    }

    /// `MinixFs::sync`.
    pub fn sync(&mut self) -> minix_fs::Result<()> {
        self.timer.time(Layer::Minix, || self.inner.sync())
    }

    /// `MinixFs::drop_caches`.
    pub fn drop_caches(&mut self) -> minix_fs::Result<()> {
        self.timer.time(Layer::Minix, || self.inner.drop_caches())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdisk::SimDisk;

    /// The defaulted scheduling hints must reach the simulator: a wrapper
    /// falling back to the trait's `0` would silently turn SATF into FCFS.
    #[test]
    fn scheduling_hints_are_forwarded() {
        let mut plain = SimDisk::hp_c3010_with_capacity(16 << 20);
        plain.write_sectors(20_000, &[0u8; 512]).expect("write");
        let mut timed = Timed::new(
            SimDisk::hp_c3010_with_capacity(16 << 20),
            LayerClock::default(),
        );
        timed.write_sectors(20_000, &[0u8; 512]).expect("write");
        for sector in [0, 1_000, 20_001, 30_000] {
            assert_eq!(timed.sched_access_us(sector), plain.sched_access_us(sector));
            assert_eq!(timed.sched_cylinder(sector), plain.sched_cylinder(sector));
            assert_ne!(timed.sched_access_us(sector), 0);
        }
        assert_eq!(timed.sched_head_cylinder(), plain.sched_head_cylinder());
        assert_ne!(timed.sched_head_cylinder(), 0);
    }

    #[test]
    fn thread_cpu_clock_counts_work_not_sleep() {
        let t0 = thread_cpu_ns();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let t1 = thread_cpu_ns();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(i | 1));
        }
        let t2 = thread_cpu_ns();
        assert!(t1 - t0 < 10_000_000, "a sleep used {} ns of CPU", t1 - t0);
        assert!(t2 > t1, "work used no CPU");
    }

    #[test]
    fn nested_calls_split_into_self_times() {
        let clock = LayerClock::default();
        clock.time(Layer::Minix, || {
            clock.time(Layer::Lld, || {
                clock.time(Layer::Simdisk, || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
            clock.time(Layer::Simdisk, || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
        });
        let t = clock.totals().expect("clock records");
        assert_eq!(t.calls, [1, 1, 2]);
        assert_eq!(t.child_ns[2], 0);
        assert!(t.self_ns(Layer::Simdisk) >= 3_000_000);
        let sum: u64 = Layer::ALL.iter().map(|&l| t.self_ns(l)).sum();
        assert_eq!(sum, t.inclusive_ns[0], "self times tile the outermost call");
    }
}
