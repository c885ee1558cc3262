//! Differential and ordering properties for the simdisk command queue.
//!
//! Three contracts from the queueing design are checked here at the
//! whole-stack and queue level:
//!
//! - **Depth-1 FCFS is the direct path.** With `queue_depth: 1` and the
//!   FCFS scheduler every seal is submitted and immediately drained, so
//!   the run must be *bit-identical* to `queue_depth: 0` — same final
//!   medium image, same simulated clock, same disk statistics. Queueing
//!   at depth 1 may not cost or save a single microsecond.
//! - **An FCFS queue sweeps like the direct path.** The recovery sweep
//!   reads its summaries through the queue whenever there is one; under
//!   FCFS, at depth 1 or deeper, it recovers the same state in the same
//!   simulated time as the direct sweep.
//! - **No scheduler reorders writes.** Whatever the scheduler does with
//!   reads, writes dispatch in submission order among themselves, reads
//!   never jump an overlapping request, and coalescing
//!   never changes bytes. A reference execution that performs the same
//!   operations strictly FIFO on a second disk must end with the same
//!   image, and every read must see the medium as of its submission
//!   point.

use logical_disk_repro::ld_core::{Bid, FailureSet, Lid, ListHints, LogicalDisk, Pred, PredList};
use logical_disk_repro::lld::{Lld, LldConfig, LldStats};
use logical_disk_repro::minix_fs::{FsConfig, FsCpuModel, LdStore, MinixFs};
use logical_disk_repro::simdisk::{BlockDev, DiskStats, RequestQueue, Scheduler, SimDisk};
use proptest::prelude::*;

fn configs(queue_depth: u32, scheduler: Scheduler) -> (LldConfig, FsConfig) {
    (
        LldConfig {
            segment_bytes: 64 << 10,
            summary_bytes: 4 << 10,
            queue_depth,
            scheduler,
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

/// Runs a deterministic file-system workload with enough churn to seal
/// many segments, trigger the cleaner, and exercise partial flushes, then
/// shuts down cleanly. Returns the final image, clock, and disk stats.
fn run_workload(
    queue_depth: u32,
    scheduler: Scheduler,
) -> (
    Vec<u8>,
    u64,
    logical_disk_repro::simdisk::DiskStats,
    logical_disk_repro::lld::LldStats,
) {
    let (lld_config, fs_config) = configs(queue_depth, scheduler);
    let store =
        LdStore::format(SimDisk::hp_c3010_with_capacity(24 << 20), lld_config).expect("format");
    let mut fs = MinixFs::format(store, fs_config).expect("mkfs");

    let mut live: Vec<String> = Vec::new();
    for i in 0..40usize {
        let path = format!("/f{i:02}");
        let ino = fs.create(&path).expect("create");
        fs.write(ino, 0, &content(i, 1500 + i * 217))
            .expect("write");
        live.push(path);
        if i % 3 == 0 {
            let p = &live[i / 2];
            let ino = fs.lookup(p).expect("lookup");
            fs.write(ino, 128, &content(100 + i, 900))
                .expect("overwrite");
        }
        if i % 7 == 4 {
            let p = live.remove(i % live.len());
            fs.unlink(&p).expect("unlink");
        }
        if i % 5 == 2 {
            fs.sync().expect("sync");
        }
    }
    fs.sync().expect("sync");

    let mut store = fs.into_store();
    let lld_stats = *store.lld().stats();
    store.lld_mut().shutdown().expect("shutdown");
    let disk = store.into_disk();
    let clock = disk.now_us();
    let stats = *disk.stats();
    (disk.image_bytes(), clock, stats, lld_stats)
}

/// The depth-1 FCFS differential: submitting each seal through the queue
/// and draining immediately must replay the exact direct-path run.
#[test]
fn fcfs_depth1_is_bit_identical_to_direct_path() {
    let (img0, clock0, disk0, lld0) = run_workload(0, Scheduler::Fcfs);
    let (img1, clock1, disk1, mut lld1) = run_workload(1, Scheduler::Fcfs);

    assert_eq!(clock0, clock1, "queueing at depth 1 changed the clock");
    assert_eq!(disk0, disk1, "queueing at depth 1 changed disk stats");
    assert_eq!(img0, img1, "queueing at depth 1 changed the medium");

    // The LLD stats agree except for the queue's own accounting.
    assert!(
        lld1.queued_segment_writes > 0,
        "depth 1 never used the queue"
    );
    lld1.queued_segment_writes = 0;
    lld1.queued_reads = 0;
    lld1.queue_drains = 0;
    assert_eq!(lld0, lld1, "queueing at depth 1 changed LLD behaviour");
}

/// Depth-1 identity is scheduler-independent: with at most one request
/// in flight there is never a scheduling decision to make.
#[test]
fn depth1_identity_holds_for_every_scheduler() {
    let (img0, clock0, _, _) = run_workload(0, Scheduler::Fcfs);
    for sched in Scheduler::ALL {
        let (img, clock, _, _) = run_workload(1, sched);
        assert_eq!(clock0, clock, "{sched:?} at depth 1 changed the clock");
        assert_eq!(img0, img, "{sched:?} at depth 1 changed the medium");
    }
}

/// The medium of a raw LLD run at depth 0 after a crash: three lists of
/// blocks of several sizes, overwrites and deletions, a flush, and an
/// unflushed tail the crash loses.
fn crash_image() -> Vec<u8> {
    let (config, _) = configs(0, Scheduler::Fcfs);
    let disk = SimDisk::hp_c3010_with_capacity(24 << 20);
    let mut ld = Lld::format(disk, config).expect("format");
    let lids: Vec<Lid> = (0..3)
        .map(|_| {
            ld.new_list(PredList::Start, ListHints::default())
                .expect("list")
        })
        .collect();
    let mut bids: Vec<(Lid, Bid)> = Vec::new();
    for i in 0..900usize {
        let lid = lids[i % 3];
        let bid = ld.new_block(lid, Pred::Start).expect("block");
        ld.write(bid, &content(i, 512 + (i * 997) % 3585))
            .expect("write");
        bids.push((lid, bid));
        if i % 4 == 3 {
            let (_, b) = bids[i / 2];
            ld.write(b, &content(i + 7, 4096)).expect("overwrite");
        }
        if i % 9 == 8 {
            let (lid, b) = bids.remove(i % bids.len());
            ld.delete_block(b, lid, None).expect("delete");
        }
    }
    ld.flush(FailureSet::PowerFailure).expect("flush");
    let (_, b) = bids[0];
    ld.write(b, &content(1, 100)).expect("unflushed write");
    let mut disk = ld.into_disk();
    disk.crash_now();
    disk.revive();
    disk.image_bytes()
}

/// A list's blocks with their contents.
type Contents = Vec<(Bid, Vec<u8>)>;

/// What one recovery of a crash image shows.
#[derive(Debug, PartialEq)]
struct Recovered {
    /// Every list, in list-of-lists order.
    lists: Vec<(Lid, Contents)>,
    lld: LldStats,
    disk: DiskStats,
    clock: u64,
}

/// Recovers `image` at queue depth `depth` (FCFS).
fn recover(image: &[u8], depth: u32) -> Recovered {
    let (config, _) = configs(depth, Scheduler::Fcfs);
    let mut disk = SimDisk::hp_c3010_with_capacity(24 << 20);
    disk.load_image(image);
    let mut ld = Lld::open(disk, config).expect("recover");
    let (lld, disk, clock) = (*ld.stats(), *ld.disk().stats(), ld.disk().now_us());
    let mut buf = vec![0u8; 4096];
    let lists = (ld.list_of_lists().into_iter())
        .map(|lid| {
            let blocks = (ld.list_blocks(lid).expect("list").into_iter())
                .map(|bid| {
                    let n = ld.read(bid, &mut buf).expect("read");
                    (bid, buf[..n].to_vec())
                })
                .collect();
            (lid, blocks)
        })
        .collect();
    Recovered {
        lists,
        lld,
        disk,
        clock,
    }
}

/// The recovery sweep through an FCFS queue reads the summaries in
/// segment order, however many are in flight: at depths 1 and 4 it
/// recovers the same lists and contents as the direct sweep, in the same
/// simulated time, with the same disk statistics.
#[test]
fn fcfs_queued_sweep_is_bit_identical_to_direct_sweep() {
    let image = crash_image();
    let direct = recover(&image, 0);
    assert!(!direct.lld.recovered_from_checkpoint);
    assert!(direct.lld.recovery_us > 0);
    assert_eq!(direct.lists.len(), 3);
    for depth in [1, 4] {
        let mut queued = recover(&image, depth);
        assert_eq!(
            queued.lld.queued_reads, queued.lld.recovery_summaries_read,
            "depth {depth}: every summary read goes through the queue"
        );
        queued.lld.queued_reads = 0;
        assert_eq!(queued, direct, "depth {depth}");
    }
}

/// One step of the generated request script.
#[derive(Debug, Clone)]
enum ScriptOp {
    /// Write `len` sectors at `sector`, filled from `seed`.
    Write { sector: u64, len: u64, seed: u8 },
    /// Read `len` sectors at `sector`.
    Read { sector: u64, len: u64 },
}

fn op_strategy(total_sectors: u64) -> impl Strategy<Value = ScriptOp> {
    let span = total_sectors - 8;
    prop_oneof![
        4 => (0..span, 1u64..8, any::<u8>())
            .prop_map(|(sector, len, seed)| ScriptOp::Write { sector, len, seed }),
        3 => (0..span, 1u64..8).prop_map(|(sector, len)| ScriptOp::Read { sector, len }),
    ]
}

fn fill(seed: u8, bytes: usize) -> Vec<u8> {
    (0..bytes).map(|j| seed.wrapping_add(j as u8)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every scheduler preserves per-sector write ordering: the queued execution ends with the same medium contents
    /// as a strict FIFO execution of the same script, write completions
    /// arrive in submission order, and every read returns the bytes the
    /// medium held at its submission point (so no read jumps an
    /// overlapping write, forward or backward).
    #[test]
    fn schedulers_preserve_write_order_and_read_consistency(
        script in proptest::collection::vec(op_strategy(4096), 1..40),
        sched_idx in 0usize..Scheduler::ALL.len(),
    ) {
        let scheduler = Scheduler::ALL[sched_idx];
        let sector_bytes = 512usize;

        // Queued execution, driven to empty after all submissions.
        let mut disk = SimDisk::hp_c3010_with_capacity(4096 * 512);
        let mut queue = RequestQueue::new(scheduler);
        // Reference execution: the same ops, strictly in order.
        let mut fifo_disk = SimDisk::hp_c3010_with_capacity(4096 * 512);
        // Expected read results, keyed by tag, captured at submission
        // time from the reference image.
        let mut expected_reads: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut write_tags: Vec<u64> = Vec::new();

        for op in &script {
            match *op {
                ScriptOp::Write { sector, len, seed } => {
                    let data = fill(seed, len as usize * sector_bytes);
                    fifo_disk.write_sectors(sector, &data).expect("fifo write");
                    let tag = queue.submit_write(&disk, sector, data);
                    // Coalescing reuses the tail write's tag; ordering is
                    // asserted over surviving (distinct) tags.
                    if write_tags.last() != Some(&tag) {
                        write_tags.push(tag);
                    }
                }
                ScriptOp::Read { sector, len } => {
                    let tag = queue.submit_read(&disk, sector, len);
                    let mut buf = vec![0u8; len as usize * sector_bytes];
                    fifo_disk.read_sectors(sector, &mut buf).expect("fifo read");
                    expected_reads.push((tag, buf));
                }
            }
        }

        let completions = queue.drain(&mut disk);
        prop_assert!(queue.is_empty());

        // Writes completed in submission order among themselves.
        let completed_writes: Vec<u64> = completions
            .iter()
            .filter(|c| c.write)
            .map(|c| c.tag)
            .collect();
        prop_assert_eq!(
            &completed_writes, &write_tags,
            "{:?} reordered writes", scheduler
        );

        // Every read observed its submission-time medium state.
        for (tag, expected) in &expected_reads {
            let c = completions
                .iter()
                .find(|c| c.tag == *tag)
                .expect("read completion present");
            let got = c.result.as_ref().expect("read ok").as_ref().expect("data");
            prop_assert_eq!(
                got, expected,
                "{:?} let read tag {} see a reordered write", scheduler, tag
            );
        }

        // Same final medium as the FIFO reference.
        prop_assert_eq!(
            disk.image_bytes(),
            fifo_disk.image_bytes(),
            "{:?} changed the final medium contents",
            scheduler
        );
    }
}
