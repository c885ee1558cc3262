//! A tagged command queue with pluggable, fully deterministic I/O
//! schedulers.
//!
//! The queue sits *in front of* a [`BlockDev`]: callers `submit` reads and
//! writes (each gets a monotonically increasing tag), the queue `dispatch`es
//! them one at a time in scheduler order, and every dispatched request
//! produces a [`Completion`]. Nothing here spends simulated time of its
//! own — all timing still comes from the device executing the chosen
//! request — so a queue at depth 1 is *bit-identical in time and state* to
//! calling the device directly.
//!
//! # Determinism rules
//!
//! Every schedule is a pure function of the submission order and the
//! simulated clock:
//!
//! - ties always break by submission tag (lowest first);
//! - all internal collections are order-preserving (`VecDeque`); there is
//!   no hash-map iteration anywhere in the dispatch path;
//! - cost estimates come from [`BlockDev::sched_access_us`] and friends,
//!   which are themselves functions of the simulated clock only.
//!
//! # Ordering rules (crash semantics)
//!
//! The scheduler may reorder *reads* freely with respect to each other and
//! to non-overlapping writes. It never reorders:
//!
//! - a write with respect to another write — **writes dispatch FIFO among
//!   themselves**, so a crash mid-queue loses a clean *suffix* of the
//!   submitted writes, exactly like the unqueued path loses the tail of an
//!   interrupted request;
//! - any two overlapping requests.
//!
//! A caller that needs a fence drains the queue.
//!
//! Adjacent-request coalescing is restricted to the same shape: a write
//! that starts exactly where the *most recently submitted* (still pending)
//! write ends is merged into it. The merged request writes its sectors in
//! ascending order, so the per-sector tear semantics of a crash are
//! identical to issuing the two writes back to back.

use std::collections::VecDeque;

use crate::{BlockDev, DiskError, SECTOR_SIZE};

/// Upper bound on a coalesced request, in sectors (4 MB). Keeps merged
/// multi-segment writebacks within one realistic transfer.
const MAX_COALESCED_SECTORS: u64 = 8192;

/// Which scheduler orders the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// First come, first served: dispatch in submission order.
    #[default]
    Fcfs,
    /// Shortest seek time first: nearest cylinder to the current head
    /// position.
    Sstf,
    /// Elevator: sweep the cylinders in one direction, reverse at the last
    /// request (LOOK variant — no run-out to the disk edge).
    Look,
    /// Shortest access time first: full positioning cost (command
    /// overhead plus seek plus rotational wait) from the CHS geometry and
    /// the rotational position model, evaluated at the current simulated
    /// clock.
    Satf,
}

impl Scheduler {
    /// Stable lowercase name (CLI / JSON).
    pub fn name(self) -> &'static str {
        match self {
            Scheduler::Fcfs => "fcfs",
            Scheduler::Sstf => "sstf",
            Scheduler::Look => "look",
            Scheduler::Satf => "satf",
        }
    }

    /// All schedulers, for sweeps.
    pub const ALL: [Scheduler; 4] = [
        Scheduler::Fcfs,
        Scheduler::Sstf,
        Scheduler::Look,
        Scheduler::Satf,
    ];
}

/// Queue counters. All monotonically increasing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Requests accepted by `submit_*` (including ones later coalesced).
    pub submitted: u64,
    /// Requests sent to the device (each completes before the next
    /// dispatches).
    pub dispatched: u64,
    /// Submitted requests that were merged into an already pending one
    /// instead of queueing separately.
    pub coalesced: u64,
    /// Sectors absorbed by coalescing.
    pub coalesced_sectors: u64,
    /// Sum over dispatches of the pending-queue depth at dispatch time;
    /// `depth_sum / dispatched` is the mean effective depth.
    pub depth_sum: u64,
    /// Maximum pending-queue depth seen at any dispatch.
    pub max_depth: u64,
}

impl QueueStats {
    /// Mean queue depth observed at dispatch time.
    pub fn mean_depth(&self) -> f64 {
        if self.dispatched == 0 {
            return 0.0;
        }
        self.depth_sum as f64 / self.dispatched as f64
    }
}

#[derive(Debug)]
enum Op {
    Read { sector: u64, count: u64 },
    Write { sector: u64, data: Vec<u8> },
}

impl Op {
    fn span(&self) -> (u64, u64) {
        match self {
            Op::Read { sector, count } => (*sector, *count),
            Op::Write { sector, data } => (*sector, (data.len() / SECTOR_SIZE) as u64),
        }
    }
}

#[derive(Debug)]
struct Request {
    tag: u64,
    op: Op,
}

/// The outcome of one dispatched request.
#[derive(Debug)]
pub struct Completion {
    /// Submission tag (the surviving tag, for coalesced writes).
    pub tag: u64,
    /// First sector of the request.
    pub sector: u64,
    /// Sectors covered.
    pub sectors: u64,
    /// Whether this was a write.
    pub write: bool,
    /// `Ok(Some(data))` for reads, `Ok(None)` for writes, or the device
    /// error.
    pub result: Result<Option<Vec<u8>>, DiskError>,
}

/// The tagged command queue. See the module docs for the ordering and
/// determinism contract.
#[derive(Debug, Default)]
pub struct RequestQueue {
    scheduler: Scheduler,
    pending: VecDeque<Request>,
    next_tag: u64,
    /// Elevator direction for [`Scheduler::Look`]: sweeping toward higher
    /// cylinders when true.
    look_up: bool,
    stats: QueueStats,
}

impl RequestQueue {
    /// Creates an empty queue. It merges sector-adjacent ascending writes
    /// (see module docs); coalescing never changes write ordering.
    pub fn new(scheduler: Scheduler) -> Self {
        Self {
            scheduler,
            look_up: true,
            ..Self::default()
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> &QueueStats {
        &self.stats
    }

    /// Pending requests.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no request is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queues a read of `count` sectors at `sector`; returns its tag. The
    /// data arrives in the corresponding [`Completion`].
    pub fn submit_read<D: BlockDev>(&mut self, disk: &D, sector: u64, count: u64) -> u64 {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.stats.submitted += 1;
        disk.trace(ld_trace::Event::QueueSubmit {
            tag,
            sector,
            sectors: count,
        });
        self.pending.push_back(Request {
            tag,
            op: Op::Read { sector, count },
        });
        tag
    }

    /// Queues a write, taking ownership of its bytes; returns the tag of
    /// the request that will carry it (an earlier request's tag when the
    /// write coalesces into it).
    pub fn submit_write<D: BlockDev>(&mut self, disk: &D, sector: u64, data: Vec<u8>) -> u64 {
        let count = (data.len() / SECTOR_SIZE) as u64;
        self.stats.submitted += 1;
        // Coalesce into the most recently submitted request when it is a
        // still-pending write ending exactly where this one starts. Only
        // the tail request qualifies, so no other write can sit between
        // the two halves.
        let tag = match self.pending.back_mut() {
            Some(Request {
                tag,
                op:
                    Op::Write {
                        sector: s0,
                        data: d0,
                    },
            }) if *s0 + (d0.len() / SECTOR_SIZE) as u64 == sector
                && (d0.len() / SECTOR_SIZE) as u64 + count <= MAX_COALESCED_SECTORS =>
            {
                d0.extend_from_slice(&data);
                self.stats.coalesced += 1;
                self.stats.coalesced_sectors += count;
                *tag
            }
            _ => {
                let tag = self.next_tag;
                self.next_tag += 1;
                self.pending.push_back(Request {
                    tag,
                    op: Op::Write { sector, data },
                });
                tag
            }
        };
        disk.trace(ld_trace::Event::QueueSubmit {
            tag,
            sector,
            sectors: count,
        });
        tag
    }

    /// Indices of requests allowed to dispatch now: those that (a) overlap
    /// no earlier pending request and (b) for writes, follow no earlier
    /// pending write (writes are FIFO).
    fn eligible(&self) -> Vec<usize> {
        let mut out = Vec::new();
        let mut write_seen = false;
        for (i, r) in self.pending.iter().enumerate() {
            let (sector, count) = r.op.span();
            let overlaps_earlier = self.pending.iter().take(i).any(|p| {
                let (s, c) = p.op.span();
                s < sector + count && sector < s + c
            });
            let is_write = matches!(r.op, Op::Write { .. });
            if !(overlaps_earlier || (is_write && write_seen)) {
                out.push(i);
            }
            write_seen |= is_write;
        }
        out
    }

    /// Picks which eligible request to dispatch, per the scheduler. All
    /// ties break by position in `eligible` (== submission order).
    fn pick<D: BlockDev>(&mut self, disk: &D, eligible: &[usize]) -> usize {
        let cyl_of = |i: usize| disk.sched_cylinder(self.pending[i].op.span().0);
        match self.scheduler {
            Scheduler::Fcfs => eligible[0],
            Scheduler::Sstf => {
                let head = disk.sched_head_cylinder();
                *eligible
                    .iter()
                    .min_by_key(|&&i| cyl_of(i).abs_diff(head))
                    .expect("eligible set is non-empty") // PANIC-OK: dispatch_one guarantees a candidate
            }
            Scheduler::Look => {
                let head = disk.sched_head_cylinder();
                let ahead = |c: u64| {
                    if self.look_up {
                        c >= head
                    } else {
                        c <= head
                    }
                };
                let in_sweep = eligible
                    .iter()
                    .filter(|&&i| ahead(cyl_of(i)))
                    .min_by_key(|&&i| cyl_of(i).abs_diff(head))
                    .copied();
                match in_sweep {
                    Some(i) => i,
                    None => {
                        // Nothing left in this direction: reverse.
                        self.look_up = !self.look_up;
                        *eligible
                            .iter()
                            .min_by_key(|&&i| cyl_of(i).abs_diff(head))
                            .expect("eligible set is non-empty") // PANIC-OK: dispatch_one guarantees a candidate
                    }
                }
            }
            Scheduler::Satf => {
                let access = |i: usize| disk.sched_access_us(self.pending[i].op.span().0);
                *eligible
                    .iter()
                    .min_by_key(|&&i| access(i))
                    .expect("eligible set is non-empty") // PANIC-OK: dispatch_one guarantees a candidate
            }
        }
    }

    /// Dispatches the scheduler's best eligible request against the
    /// device and returns its completion; `None` when the queue is empty.
    pub fn dispatch_one<D: BlockDev>(&mut self, disk: &mut D) -> Option<Completion> {
        self.pending.front()?;
        let eligible = self.eligible();
        debug_assert!(!eligible.is_empty(), "front request is always eligible");
        let idx = self.pick(disk, &eligible);
        let depth = self.len() as u64;
        self.stats.dispatched += 1;
        self.stats.depth_sum += depth;
        self.stats.max_depth = self.stats.max_depth.max(depth);
        let req = self.pending.remove(idx).expect("picked index is in range"); // PANIC-OK: idx comes from eligible()
        disk.trace(ld_trace::Event::QueueDispatch {
            tag: req.tag,
            depth,
        });
        let t0 = disk.now_us();
        let completion = match req.op {
            Op::Read { sector, count } => {
                let mut buf = vec![0u8; (count as usize) * SECTOR_SIZE];
                let result = disk.read_sectors(sector, &mut buf).map(|()| Some(buf));
                Completion {
                    tag: req.tag,
                    sector,
                    sectors: count,
                    write: false,
                    result,
                }
            }
            Op::Write { sector, data } => {
                let sectors = (data.len() / SECTOR_SIZE) as u64;
                let result = disk.write_sectors(sector, &data).map(|()| None);
                Completion {
                    tag: req.tag,
                    sector,
                    sectors,
                    write: true,
                    result,
                }
            }
        };
        disk.trace(ld_trace::Event::QueueComplete {
            tag: completion.tag,
            us: disk.now_us() - t0,
        });
        Some(completion)
    }

    /// Dispatches until the queue is empty, collecting completions in
    /// dispatch order.
    pub fn drain<D: BlockDev>(&mut self, disk: &mut D) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Some(c) = self.dispatch_one(disk) {
            out.push(c);
        }
        out
    }

    /// Drops every pending request without dispatching (crash / device
    /// down). The requests are simply lost, like a powered-off drive's
    /// queue.
    pub fn abandon(&mut self) {
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockDev, SimDisk};

    fn disk() -> SimDisk {
        SimDisk::hp_c3010_with_capacity(16 << 20)
    }

    #[test]
    fn depth1_fcfs_is_bit_identical_to_direct_calls() {
        let script: &[(u64, bool)] = &[(0, true), (4096, true), (0, false), (9000, true)];
        let run_direct = |disk: &mut SimDisk| {
            for &(sector, write) in script {
                let data = vec![0xA5u8; 8 * SECTOR_SIZE];
                if write {
                    disk.write_sectors(sector, &data).unwrap();
                } else {
                    let mut buf = vec![0u8; 8 * SECTOR_SIZE];
                    disk.read_sectors(sector, &mut buf).unwrap();
                }
            }
        };
        let run_queued = |disk: &mut SimDisk| {
            let mut q = RequestQueue::new(Scheduler::Fcfs);
            for &(sector, write) in script {
                let data = vec![0xA5u8; 8 * SECTOR_SIZE];
                if write {
                    q.submit_write(disk, sector, data);
                } else {
                    q.submit_read(disk, sector, 8);
                }
                // Depth 1: dispatch immediately after each submit.
                let c = q.dispatch_one(disk).unwrap();
                assert!(c.result.is_ok());
            }
        };
        let mut a = disk();
        run_direct(&mut a);
        let mut b = disk();
        run_queued(&mut b);
        assert_eq!(a.now_us(), b.now_us(), "clock must be bit-identical");
        assert_eq!(a.stats(), b.stats(), "stats must be bit-identical");
        assert_eq!(a.image_bytes(), b.image_bytes());
    }

    #[test]
    fn writes_dispatch_fifo_under_every_scheduler() {
        // Scattered writes: any seek-optimizing scheduler would love to
        // reorder these, and must not.
        let sectors = [20_000u64, 4, 12_000, 300, 7_777];
        for sched in Scheduler::ALL {
            let mut d = disk();
            let mut q = RequestQueue::new(sched);
            let mut tags = Vec::new();
            for (i, &s) in sectors.iter().enumerate() {
                let data = vec![i as u8; SECTOR_SIZE];
                tags.push(q.submit_write(&d, s, data));
            }
            let done: Vec<u64> = q.drain(&mut d).into_iter().map(|c| c.tag).collect();
            assert_eq!(done, tags, "{sched:?} reordered writes");
        }
    }

    #[test]
    fn look_orders_scattered_reads_by_position() {
        let mut d = disk();
        // Lay down data far apart so cylinders differ.
        let total = d.total_sectors();
        let sectors = [total - 8, 8, total / 2, total / 4];
        for &s in &sectors {
            d.write_sectors(s, &vec![1u8; SECTOR_SIZE]).unwrap();
        }
        let mut q = RequestQueue::new(Scheduler::Look);
        for &s in &sectors {
            q.submit_read(&d, s, 1);
        }
        let order: Vec<u64> = q.drain(&mut d).into_iter().map(|c| c.sector).collect();
        // Head starts wherever the setup writes left it; the elevator must
        // visit each side in monotone cylinder order. Weak but scheduler-
        // revealing check: the order is not submission order and every
        // read completed.
        assert_eq!(order.len(), sectors.len());
        assert_ne!(order, sectors.to_vec(), "LOOK should have reordered");
    }

    #[test]
    fn satf_picks_cheapest_access_first() {
        let mut d = disk();
        let far = d.total_sectors() - 8;
        let mut q = RequestQueue::new(Scheduler::Satf);
        // Submit the far read first, the near read second.
        q.submit_read(&d, far, 8);
        q.submit_read(&d, 0, 8);
        let order: Vec<u64> = q.drain(&mut d).into_iter().map(|c| c.sector).collect();
        assert_eq!(order, vec![0, far], "SATF must take the cheap one first");
    }

    #[test]
    fn overlapping_requests_keep_submission_order() {
        let mut d = disk();
        let far = d.total_sectors() - 8;
        let mut q = RequestQueue::new(Scheduler::Satf);
        // An expensive write, then an overlapping read: the read must not
        // jump ahead (it would return stale data).
        q.submit_write(&d, far, vec![0x77u8; SECTOR_SIZE]);
        q.submit_read(&d, far, 1);
        let done = q.drain(&mut d);
        assert!(done[0].write);
        assert_eq!(
            done[1].result.as_ref().unwrap().as_deref(),
            Some(&[0x77u8; SECTOR_SIZE][..])
        );
    }

    #[test]
    fn adjacent_ascending_writes_coalesce() {
        let mut d = disk();
        let mut q = RequestQueue::new(Scheduler::Fcfs);
        let t0 = q.submit_write(&d, 100, vec![1u8; 2 * SECTOR_SIZE]);
        let t1 = q.submit_write(&d, 102, vec![2u8; SECTOR_SIZE]);
        assert_eq!(t0, t1, "adjacent ascending write must merge");
        // Descending adjacency and gaps do not merge.
        let t2 = q.submit_write(&d, 99, vec![3u8; SECTOR_SIZE]);
        assert_ne!(t0, t2);
        let done = q.drain(&mut d);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].sectors, 3, "merged request covers both writes");
        assert_eq!(q.stats().coalesced, 1);
        assert_eq!(q.stats().coalesced_sectors, 1);
        let mut buf = vec![0u8; 4 * SECTOR_SIZE];
        d.read_sectors(99, &mut buf).unwrap();
        assert_eq!(&buf[..SECTOR_SIZE], &[3u8; SECTOR_SIZE][..]);
        assert_eq!(
            &buf[SECTOR_SIZE..3 * SECTOR_SIZE],
            &vec![1u8; 2 * SECTOR_SIZE][..]
        );
        assert_eq!(&buf[3 * SECTOR_SIZE..], &[2u8; SECTOR_SIZE][..]);
    }

    #[test]
    fn coalescing_saves_positioning_time() {
        // Two adjacent segment-sized writes as one request beat the same
        // writes issued back to back: one command overhead, one rotational
        // wait.
        let data = vec![0xC3u8; 128 * SECTOR_SIZE];
        let mut a = disk();
        a.write_sectors(1000, &data).unwrap();
        a.write_sectors(1128, &data).unwrap();
        let mut b = disk();
        let mut q = RequestQueue::new(Scheduler::Fcfs);
        q.submit_write(&b, 1000, data.clone());
        q.submit_write(&b, 1128, data);
        q.drain(&mut b);
        assert!(
            b.now_us() < a.now_us(),
            "coalesced {} us must beat back-to-back {} us",
            b.now_us(),
            a.now_us()
        );
        assert_eq!(a.image_bytes(), b.image_bytes());
    }

    #[test]
    fn queue_depth_statistics_accumulate() {
        let mut d = disk();
        let mut q = RequestQueue::new(Scheduler::Sstf);
        for i in 0..4u64 {
            q.submit_read(&d, i * 1000, 1);
        }
        q.drain(&mut d);
        let s = *q.stats();
        assert_eq!(s.submitted, 4);
        assert_eq!(s.dispatched, 4, "every dispatched request completes");
        assert_eq!(s.max_depth, 4);
        assert_eq!(s.depth_sum, 4 + 3 + 2 + 1);
        assert!((s.mean_depth() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn schedules_are_deterministic() {
        for sched in Scheduler::ALL {
            let run = || {
                let mut d = disk();
                let mut q = RequestQueue::new(sched);
                for i in 0..12u64 {
                    let s = (i * 7919) % (d.total_sectors() - 8);
                    if i % 3 == 0 {
                        q.submit_write(&d, s, vec![i as u8; SECTOR_SIZE]);
                    } else {
                        q.submit_read(&d, s, 1);
                    }
                }
                let tags: Vec<u64> = q.drain(&mut d).into_iter().map(|c| c.tag).collect();
                (tags, d.now_us())
            };
            assert_eq!(run(), run(), "{sched:?} schedule must be reproducible");
        }
    }
}
