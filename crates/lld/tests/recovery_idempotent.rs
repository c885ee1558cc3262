//! Recovery is a pure function of the image, and the image it recovers is
//! the truth: a crash anywhere in a small workload — on a healthy or a
//! scrubbed faulty medium, with or without an NVRAM tail, ending in a crash
//! or a clean shutdown — recovers via the checkpoint or the full summary
//! sweep to the model's state, twice over, and re-recovers to it after a
//! crash inside its own writes (`harness`).
//!
//! Directed workloads check a segment write torn mid-request, a clean
//! shutdown's checkpoint round trip, a shutdown of a disk filled until
//! allocation fails, and the sweep of a disk whose every segment holds a
//! summary.

mod harness;

use harness::{config, content, Op, Run};
use ld_core::{Bid, FailureSet, LdError, ListHints, LogicalDisk, Pred, PredList};
use lld::LldConfig;
use proptest::prelude::*;
use simdisk::{BlockDev, FaultConfig, SimDisk, SECTOR_SIZE};

const CAPACITY: u64 = 16 << 20;

/// A deterministic little workload: lists, writes, deletes, periodic
/// flushes, (optionally) a scan of a faulty medium, and more writes, then
/// either a clean shutdown or a flush and an unflushed tail. With NVRAM
/// attached, flushes below the seal threshold land there.
fn workload(
    nblocks: usize,
    delete_stride: usize,
    faults: Option<FaultConfig>,
    nvram: bool,
    clean_shutdown: bool,
) -> Result<Run, TestCaseError> {
    let mut run = Run::format(CAPACITY, nvram, config()).with_faults(faults);
    let lid = run.new_list(PredList::Start, ListHints::default())?;
    let lid2 = run.new_list(PredList::After(lid), ListHints::default())?;
    let owner = |i: usize| if i.is_multiple_of(3) { lid2 } else { lid };
    let mut blocks = Vec::new();
    for i in 0..nblocks {
        let b = run.new_block(owner(i), Pred::Start)?;
        run.write(b, &content(i as u64, 1024 + (i % 5) * 600))?;
        blocks.push(b);
        if i % 7 == 0 {
            run.flush()?;
        }
    }
    for (i, &b) in blocks.iter().enumerate() {
        if i % delete_stride == 1 {
            run.delete_block(b, owner(i))?;
        }
    }
    run.flush()?;
    if faults.is_some() {
        run.scan()?;
    }
    let b = run.new_block(lid, Pred::Start)?;
    run.write(b, &content(999, 3000))?;
    if clean_shutdown {
        run.shutdown()?;
        return Ok(run);
    }
    run.flush()?;
    let b = run.new_block(lid2, Pred::Start)?;
    run.write(b, &content(1000, 1500))?;
    Ok(run)
}

/// Crash points of the checkpoint path: the drawn ones and the cleanly
/// shut down image, which restores from the checkpoint (or, when a latent
/// fault hits the header region, sweeps); a crash at the end of the
/// restore's writes re-opens the consumed image by the sweep.
fn checkpoint_case(
    nblocks: usize,
    delete_stride: usize,
    fault_seed: u64,
    latent_ppm: u32,
    nvram: bool,
    drawn: &[u64],
) -> Result<(), TestCaseError> {
    let faults = Some(FaultConfig {
        seed: fault_seed,
        latent_ppm,
        ..FaultConfig::default()
    });
    let run = workload(nblocks, delete_stride, faults, nvram, true)?;
    let end = run.crashes().check_drawn(drawn)?;
    let reopened = &end.reopened().observed.stats;
    prop_assert!(!reopened.recovered_from_checkpoint);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sweep path: crashes in a workload ending in an unflushed tail.
    #[test]
    fn sweep_recovery_is_idempotent(
        nblocks in 8usize..48,
        delete_stride in 2usize..5,
        fault_seed in any::<u64>(),
        with_faults in any::<bool>(),
        nvram in any::<bool>(),
        latent_ppm in 500u32..3_000,
        drawn in proptest::collection::vec(any::<u64>(), 3),
    ) {
        let faults = with_faults.then_some(FaultConfig {
            seed: fault_seed,
            latent_ppm,
            ..FaultConfig::default()
        });
        let run = workload(nblocks, delete_stride, faults, nvram, false)?;
        // With NVRAM, a later flush's tail replaces an earlier one there.
        prop_assert!(!nvram || run.lld.stats().nvram_saves > 1);
        let end = run.crashes().check_drawn(&drawn)?;
        let stats = end.recovery.observed.stats;
        prop_assert!(!stats.recovered_from_checkpoint);
        prop_assert!(nvram || !stats.recovery_nvram_applied);
    }

    /// Checkpoint path: a cleanly shut down scrubbed image restores the
    /// same state twice, and the consumed-checkpoint image it leaves
    /// behind re-recovers (now by the sweep) to that same state.
    #[test]
    fn checkpoint_recovery_is_idempotent(
        nblocks in 8usize..40,
        delete_stride in 2usize..5,
        fault_seed in any::<u64>(),
        latent_ppm in 500u32..3_000,
        nvram in any::<bool>(),
        drawn in proptest::collection::vec(any::<u64>(), 3),
    ) {
        checkpoint_case(nblocks, delete_stride, fault_seed, latent_ppm, nvram, &drawn)?;
    }
}

/// Case 1,000,001 of the checkpoint property before scrub re-logged the
/// metadata of a segment it retires for a bad summary sector: the sweep
/// after the restore lost that summary's records (list 1 kept 4 of its 11
/// blocks, and the list order flipped).
#[test]
fn scrubbed_summary_sector_keeps_its_records() -> TestCaseResult {
    checkpoint_case(33, 3, 6_256_656_522_886_595_536, 1164, false, &[])
}

/// A lost summary can hold records that no re-log of the live lists and
/// blocks replaces: a `Swap` of two blocks whose copies lie in another
/// segment, and the deletion of a block and of a list created there. Scrub
/// retires the segment whose summary turns unreadable; the sweep after the
/// restore must still see the swapped contents and neither deleted entity.
#[test]
fn lost_summary_keeps_swaps_and_deletions() -> TestCaseResult {
    let mut run = Run::format(CAPACITY, false, config());
    let lid = run.new_list(PredList::Start, ListHints::default())?;
    let doomed = run.new_list(PredList::After(lid), ListHints::default())?;
    let d = run.new_block(doomed, Pred::Start)?;
    run.write(d, &content(0, 4096))?;
    // Fill segment `t` with `a`, `b`, `c` and more, until it seals.
    let mut made = Vec::new();
    let sealed = run.lld.stats().segments_sealed;
    for seed in 1.. {
        let b = run.new_block(lid, Pred::Start)?;
        run.write(b, &content(seed, 4096))?;
        made.push(b);
        if run.lld.stats().segments_sealed > sealed {
            break;
        }
    }
    let (a, b, c) = (made[0], made[1], made[2]);
    let at = |run: &Run, x: Bid| run.bids.iter().position(|&y| y == x).expect("live");
    run.apply(&Op::Swap {
        a: at(&run, a),
        b: at(&run, b),
    })?;
    // New blocks first, so the deleted ids stay free.
    let filler: Vec<Bid> = (0..20)
        .map(|_| run.new_block(lid, Pred::Start))
        .collect::<Result<_, _>>()?;
    run.delete_block(c, lid)?;
    let pos = run.lids.iter().position(|&l| l == doomed).expect("live");
    run.apply(&Op::DeleteList { lid: pos })?;
    // Fill segment `s`, which holds those records, until it seals.
    let sealed = run.lld.stats().segments_sealed;
    for (i, &f) in filler.iter().enumerate() {
        run.write(f, &content(100 + i as u64, 4096))?;
    }
    prop_assert!(run.lld.stats().segments_sealed > sealed);
    run.flush()?;

    // A medium whose only defect near them is in `s`'s summary.
    let (t, s) = (run.lld.block_segment(a), run.lld.block_segment(filler[0]));
    let (Some(t), Some(s)) = (t, s) else {
        return Err(TestCaseError::fail("both segments are sealed"));
    };
    let layout = *run.lld.layout();
    let bad = |f: FaultConfig, from: u64, count: u64| {
        let mut disk = SimDisk::hp_c3010_with_capacity(CAPACITY);
        disk.set_faults(f);
        let mut buf = [0u8; SECTOR_SIZE];
        (from..from + count).any(|x| disk.read_sectors(x, &mut buf).is_err())
    };
    let faults = (0..)
        .map(|seed| FaultConfig {
            seed,
            latent_ppm: 20_000,
            ..FaultConfig::default()
        })
        .find(|&f| {
            bad(f, layout.summary_base(s), layout.summary_sectors())
                && !bad(f, layout.segment_base(t), layout.segment_sectors)
        });
    let mut run = run.with_faults(faults);
    run.scan()?;
    prop_assert!(run.lld.stats().retire_records_relogged > 0);
    run.shutdown()?;
    let end = run.crashes().check_drawn(&[])?;
    prop_assert!(!end.reopened().observed.stats.recovered_from_checkpoint);
    Ok(())
}

// Directed workloads, checked at prefixes inside the operation each is
// about and at its log's end.

/// Room for the directed workloads; every crash image costs a scan of the
/// whole medium, so it is kept small.
const SMALL: u64 = 1 << 20;

fn small_run(nvram: bool) -> Run {
    Run::format(SMALL, nvram, LldConfig::small_for_tests())
}

/// A segment write torn after 10 sectors is invisible: the state of the
/// flush before it survives.
#[test]
fn torn_segment_write_is_ignored_at_recovery() -> TestCaseResult {
    let mut run = small_run(false);
    let lid = run.new_list(PredList::Start, ListHints::default())?;
    let a = run.new_block(lid, Pred::Start)?;
    run.write(a, &content(1, 4096))?;
    run.flush()?;
    let b = run.new_block(lid, Pred::After(a))?;
    run.write(b, &content(2, 4096))?;
    let flush = run.during(Run::flush)?;
    prop_assert!(flush.end - flush.start > 10);

    // A flush the crash interrupts surfaces as an error.
    run.write(b, &content(3, 4096))?;
    run.lld.disk_mut().crash_now();
    let r = run.lld.flush(FailureSet::PowerFailure);
    prop_assert!(r.is_err(), "a crashed write must surface as an error");

    let mut crashes = run.crashes();
    let torn = crashes.check(flush.start + 10, &[], None)?;
    prop_assert_eq!(torn.recovery.observed.state.list(lid), Some(&[a][..]));
    let rest = flush.start + 11..flush.end;
    let end = crashes.check_inside(rest, 3, None)?;
    prop_assert_eq!(end.recovery.observed.state.list(lid), Some(&[a, b][..]));
    Ok(())
}

/// A clean shutdown restores from its checkpoint, which the restore
/// consumes: a crash after it falls back to the sweep, to the same state.
#[test]
fn clean_shutdown_checkpoint_roundtrip() -> TestCaseResult {
    let mut run = small_run(false);
    let lid = run.new_list(PredList::Start, ListHints::default())?;
    let mut pred = Pred::Start;
    for i in 0..20 {
        let bid = run.new_block(lid, pred)?;
        run.write(bid, &content(i, 1000 + i as usize))?;
        pred = Pred::After(bid);
    }
    let shutdown = run.during(Run::shutdown)?;
    let flushed = run.lld.flush(FailureSet::PowerFailure);
    prop_assert_eq!(flushed, Err(LdError::ShutDown));
    let end = run.crashes().check_inside(shutdown, 4, None)?;
    prop_assert!(end.recovery.observed.stats.recovered_from_checkpoint);
    prop_assert!(!end.reopened().observed.stats.recovered_from_checkpoint);
    Ok(())
}

/// A disk filled until allocation fails still shuts down and recovers
/// every block. (The cleaning reserve leaves the checkpoint room: it is
/// restored from, and the sweep recovers the image the restore leaves.)
#[test]
fn shutdown_without_free_segments_still_recovers_by_sweep() -> TestCaseResult {
    let mut run = small_run(false);
    let lid = run.new_list(PredList::Start, ListHints::default())?;
    let mut pred = Pred::Start;
    for seed in 0.. {
        let Ok(bid) = run.new_sized_block(lid, pred, 4096)? else {
            break;
        };
        run.write(bid, &content(seed, 4096))?;
        pred = Pred::After(bid);
    }
    let blocks = run.bids.clone();
    let shutdown = run.during(Run::shutdown)?;
    let end = run.crashes().check_inside(shutdown, 4, None)?;
    prop_assert_eq!(end.recovery.observed.state.list(lid), Some(&blocks[..]));
    prop_assert!(!end.reopened().observed.stats.recovered_from_checkpoint);
    Ok(())
}

/// Overwrites 16 blocks 40 times over, then one below the flush threshold
/// (absorbed by NVRAM when there is some), and flushes; `base` seeds the
/// contents.
fn wrap(run: &mut Run, base: u64) -> Result<(), TestCaseError> {
    let bids = run.bids.clone();
    for round in 0..40 {
        for &b in &bids {
            run.write(b, &content(base + round, 4096))?;
        }
    }
    run.write(bids[0], &content(base + 40, 4096))?;
    run.flush()
}

/// Regression: once every segment had been written, a sweep found a valid
/// summary in each and no free segment, so the first seal after it failed
/// with `NoSpace` and an NVRAM tail could not be materialized (recovery
/// failed), although the cleaner had kept its reserve free at run time.
/// The recovered disk keeps working (40 more rounds), and what it then
/// holds survives a crash too.
#[test]
fn sweep_of_a_disk_with_a_summary_in_every_segment_keeps_the_reserve() -> TestCaseResult {
    for nvram in [false, true] {
        let mut run = small_run(nvram);
        let reserve = run.lld.config().cleaning_reserve_segments;
        let lid = run.new_list(PredList::Start, ListHints::default())?;
        for _ in 0..16 {
            run.new_block(lid, Pred::Start)?;
        }
        let flush = run.during(|run| wrap(run, 0))?;
        let segments = u64::from(run.lld.layout().segments);
        prop_assert!(run.lld.stats().segments_cleaned > segments);
        let more = |run: &mut Run| wrap(run, 100);
        let end = run.crashes().check_inside(flush, 4, Some(&more))?;
        let recovered = &end.recovery.observed;
        prop_assert_eq!(recovered.stats.recovery_nvram_applied, nvram);
        prop_assert!(
            recovered.state.free_segments >= reserve,
            "nvram {}: {}",
            nvram,
            recovered.state.free_segments
        );
    }
    Ok(())
}
