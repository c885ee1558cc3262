//! Property tests for LLD, on the crash harness (`harness`).
//!
//! 1. **Differential**: a random operation sequence applied to both LLD and
//!    the trivially-correct in-memory `ModelLd` must produce identical
//!    observable behaviour (same results, same list structures, same block
//!    contents).
//! 2. **Crash-anywhere**: a crash at drawn points of the same workloads,
//!    with NVRAM and the command queue (depth 8, SATF) sampled, recovers to
//!    the model's state at an operation boundary no older than the last
//!    flush (ARUs all or nothing, list order and hints included). Those
//!    workloads seldom fill a segment, so a second property overwrites one
//!    list on a 1 MB disk until the cleaner runs: prefetched victim spans,
//!    seals in flight before their NVRAM invalidation, and sweeps of a disk
//!    whose every segment holds a summary all meet crashes there.
//! 3. **Cleaning amid list churn**: every operation that changes list
//!    structure, interleaved with overwrite bursts that force cleaning and
//!    with `reorganize` and `reorganize_hot`. Debug builds check every
//!    victim's forwarding order against a fresh walk of its lists, so a
//!    stale cleaner rank memo fails here.
//! 4. **Directed workloads** for list structure, ARUs, swaps, compression
//!    and cleaning, each checked at prefixes inside the operation it is
//!    about and at its log's end. Three of them here and
//!    `recovery_idempotent::sweep_of_a_disk_with_a_summary_in_every_segment_keeps_the_reserve`
//!    assert that their runs sealed and cleaned segments before their
//!    crash positions: `cleaner_reclaims_overwritten_segments`,
//!    `swap_contents_survives_cleaning_of_the_swap_record` and
//!    `reorganize_hot_clusters_frequently_accessed_blocks`. They are the
//!    model-checked crash images among sealed and cleaned segments that
//!    property 2's random workloads, which seldom fill a segment, lack.

mod harness;

use std::collections::BTreeSet;

use harness::{config, content, Checked, Op, Run, Then};
use ld_core::{LdError, ListHints, LogicalDisk, Pred, PredList};
use lld::LldConfig;
use proptest::prelude::*;
use simdisk::Scheduler;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (any::<prop::sample::Index>(), any::<bool>())
            .prop_map(|(pred, compress)| Op::NewList { pred: pred.index(64), compress }),
        1 => any::<prop::sample::Index>().prop_map(|l| Op::DeleteList { lid: l.index(64) }),
        6 => (any::<prop::sample::Index>(), any::<prop::sample::Index>(), any::<bool>())
            .prop_map(|(l, p, small)| Op::NewBlock { lid: l.index(64), pred: p.index(64), small }),
        2 => (any::<prop::sample::Index>(), any::<bool>())
            .prop_map(|(b, hint)| Op::DeleteBlock { bid: b.index(64), hint }),
        8 => (any::<prop::sample::Index>(), 0usize..4096, any::<u8>())
            .prop_map(|(b, len, seed)| Op::Write { bid: b.index(64), len, seed }),
        4 => any::<prop::sample::Index>().prop_map(|b| Op::Read { bid: b.index(64) }),
        2 => Just(Op::Flush),
        2 => (any::<prop::sample::Index>(), 0usize..2048, any::<u8>())
            .prop_map(|(l, len, seed)| Op::AruBlock { lid: l.index(64), len, seed }),
        1 => (any::<prop::sample::Index>(), any::<prop::sample::Index>())
            .prop_map(|(l, p)| Op::MoveList { lid: l.index(64), pred: p.index(512) }),
        2 => (any::<prop::sample::Index>(), any::<prop::sample::Index>())
            .prop_map(|(a, b)| Op::Swap { a: a.index(64), b: b.index(64) }),
        2 => (any::<prop::sample::Index>(), 0u64..12)
            .prop_map(|(l, index)| Op::BlockAt { lid: l.index(64), index }),
    ]
}

/// Structural churn plus cleaner pressure (property 3).
fn churn_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (any::<prop::sample::Index>(), any::<bool>())
            .prop_map(|(pred, compress)| Op::NewList { pred: pred.index(64), compress }),
        1 => any::<prop::sample::Index>().prop_map(|l| Op::DeleteList { lid: l.index(64) }),
        6 => (any::<prop::sample::Index>(), any::<prop::sample::Index>(), any::<bool>())
            .prop_map(|(l, p, small)| Op::NewBlock { lid: l.index(64), pred: p.index(64), small }),
        2 => (any::<prop::sample::Index>(), any::<bool>())
            .prop_map(|(b, hint)| Op::DeleteBlock { bid: b.index(64), hint }),
        3 => (
            any::<prop::sample::Index>(),
            any::<prop::sample::Index>(),
            1usize..6,
            any::<prop::sample::Index>(),
            any::<prop::sample::Index>(),
        )
            .prop_map(|(src, first, len, dst, pred)| Op::MoveSublist {
                src: src.index(64),
                first: first.index(64),
                len,
                dst: dst.index(64),
                pred: pred.index(64),
            }),
        2 => (any::<prop::sample::Index>(), any::<prop::sample::Index>())
            .prop_map(|(l, p)| Op::MoveList { lid: l.index(64), pred: p.index(512) }),
        3 => (1usize..256, any::<u8>()).prop_map(|(blocks, seed)| Op::Burst { blocks, seed }),
        1 => (1u32..4).prop_map(|max| Op::Clean { max }),
        1 => (1usize..32).prop_map(|max| Op::ReorganizeHot { max }),
        1 => (1u32..4).prop_map(|lists| Op::Reorganize { lists }),
        1 => (any::<prop::sample::Index>(), any::<prop::sample::Index>())
            .prop_map(|(a, b)| Op::Swap { a: a.index(64), b: b.index(64) }),
        1 => Just(Op::Flush),
    ]
}

/// The harness configuration, with the command queue at depth 8 (SATF,
/// seven seals in flight) if `queued`: cleaner victims are prefetched as
/// one batch, and a seal's NVRAM invalidation waits for the queue to empty.
fn queued_config(queued: bool) -> LldConfig {
    let depth = if queued { 8 } else { 0 };
    LldConfig {
        queue_depth: depth,
        writeback_depth: depth.saturating_sub(1),
        scheduler: Scheduler::Satf,
        ..config()
    }
}

/// Appends two lists of eight 4 KB blocks.
fn add_two_lists(run: &mut Run) -> Result<(), TestCaseError> {
    for _ in 0..2 {
        let lid = run.new_list(PredList::Start, ListHints::default())?;
        let mut pred = Pred::Start;
        for _ in 0..8 {
            pred = Pred::After(run.new_block(lid, pred)?);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// LLD behaves exactly like the reference model under random workloads.
    #[test]
    fn lld_matches_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut run = Run::format(8 << 20, false, config());
        for op in &ops {
            run.apply(op)?;
        }
        run.check_live()?;
    }

    /// A crash anywhere recovers the model's state at an operation
    /// boundary no older than the last flush; operations after the crash
    /// are absent (all or nothing per ARU).
    #[test]
    fn crash_recovers_last_flushed_state(
        ops in proptest::collection::vec(op_strategy(), 1..100),
        flush_at in 0usize..100,
        nvram in any::<bool>(),
        queued in any::<bool>(),
        drawn in proptest::collection::vec(any::<u64>(), 2),
    ) {
        let mut run = Run::format(8 << 20, nvram, queued_config(queued));
        let flush_at = flush_at.min(ops.len());
        for op in &ops[..flush_at] {
            run.apply(op)?;
        }
        run.apply(&Op::Flush)?;
        for op in &ops[flush_at..] {
            run.apply(op)?;
        }
        run.crashes().check_drawn(&drawn)?;
    }

    /// Overwrite bursts on one list fill a 1 MB disk until the cleaner
    /// runs, batched and prefetched when queued, with flushes NVRAM absorbs
    /// when sampled: a crash anywhere, between a queued seal and its
    /// deferred NVRAM invalidation too, recovers the last flushed state,
    /// and so does a sweep of a disk on which every segment holds a summary.
    #[test]
    fn crash_amid_queued_cleaning_recovers(
        steps in proptest::collection::vec((1usize..32, any::<u8>(), any::<bool>()), 1..24),
        nvram in any::<bool>(),
        queued in any::<bool>(),
        drawn in proptest::collection::vec(any::<u64>(), 2),
    ) {
        let mut run = Run::format(1 << 20, nvram, queued_config(queued));
        let lid = run.new_list(PredList::Start, ListHints::default())?;
        let mut pred = Pred::Start;
        for _ in 0..24 {
            pred = Pred::After(run.new_block(lid, pred)?);
        }
        for (blocks, seed, flush) in steps {
            run.apply(&Op::Burst { blocks, seed })?;
            if flush {
                run.apply(&Op::Flush)?;
            }
        }
        run.crashes().check_drawn(&drawn)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cleaning amid list churn forwards every block intact and leaves a
    /// consistent image, with the cleaner's victims batched or not.
    #[test]
    fn cleaning_amid_list_churn_keeps_every_block(
        ops in proptest::collection::vec(churn_op_strategy(), 1..80),
        batched in any::<bool>(),
    ) {
        let depth = if batched { 8 } else { 0 };
        let config = LldConfig {
            queue_depth: depth,
            writeback_depth: depth / 2,
            ..config()
        };
        let mut run = Run::format(2 << 20, false, config);
        // Before the random operations (so their overwrite bursts have
        // work) and after them (so the final bursts surely reach the
        // cleaner).
        add_two_lists(&mut run)?;
        for (i, op) in ops.iter().enumerate() {
            run.apply(op)?;
            // Heat a few blocks and rank them at once: a memo that missed
            // this operation's change shows in the debug cross-check.
            run.apply(&Op::Burst { blocks: 8, seed: i as u8 })?;
            run.apply(&Op::ReorganizeHot { max: 8 })?;
        }
        add_two_lists(&mut run)?;
        let cleaned = run.lld.stats().segments_cleaned;
        for seed in 0..64 {
            if run.lld.stats().segments_cleaned > cleaned {
                break;
            }
            run.apply(&Op::Burst { blocks: run.bids.len(), seed })?;
        }
        prop_assert!(run.lld.stats().segments_cleaned > cleaned, "the cleaner never ran");
        run.apply(&Op::Flush)?;
        run.check_live()?;
        let report = ldck::check_image(&run.lld.disk().image_bytes(), run.lld.config());
        prop_assert!(report.is_clean(), "image has errors: {:?}", report.findings);
    }
}

// Directed workloads. Each is checked at prefixes inside the operation it
// is about and at its log's end.

/// Room for the few blocks of most directed workloads; every crash image
/// costs a scan of the whole medium, so it is kept small.
const SMALL: u64 = 1 << 20;

fn small_run() -> Run {
    Run::format(SMALL, false, LldConfig::small_for_tests())
}

/// Flushes `run`, then checks crash images inside the flush and at the
/// log's end, continued by `then`.
fn crash_in_flush(mut run: Run, then: Then) -> Result<Checked, TestCaseError> {
    let flush = run.during(Run::flush)?;
    run.crashes().check_inside(flush, 4, then)
}

/// Fails unless LLD sealed and cleaned segments since the format.
fn sealed_and_cleaned(run: &Run) -> TestCaseResult {
    let stats = run.lld.stats();
    prop_assert!(
        stats.segments_sealed > 0 && stats.segments_cleaned > 0,
        "sealed {}, cleaned {}",
        stats.segments_sealed,
        stats.segments_cleaned
    );
    Ok(())
}

#[test]
fn crash_recovery_restores_flushed_state() -> TestCaseResult {
    let mut run = small_run();
    let lid = run.new_list(PredList::Start, ListHints::default())?;
    let a = run.new_block(lid, Pred::Start)?;
    let b = run.new_block(lid, Pred::After(a))?;
    run.write(a, &content(1, 4096))?;
    run.write(b, &content(2, 2000))?;
    let end = crash_in_flush(run, None)?;
    prop_assert!(!end.recovery.observed.stats.recovered_from_checkpoint);
    prop_assert_eq!(end.recovery.observed.state.list(lid), Some(&[a, b][..]));
    Ok(())
}

/// Only the flushed prefix survives ("recovery up to the last segment
/// successfully written", §5.2).
#[test]
fn unflushed_tail_is_lost_on_crash() -> TestCaseResult {
    let mut run = small_run();
    let lid = run.new_list(PredList::Start, ListHints::default())?;
    let a = run.new_block(lid, Pred::Start)?;
    run.write(a, &content(1, 4096))?;
    let flush = run.during(Run::flush)?;
    // Unflushed: a second block and an overwrite of `a`.
    let b = run.new_block(lid, Pred::After(a))?;
    run.write(b, &content(2, 4096))?;
    run.write(a, &content(3, 4096))?;
    let end = run.crashes().check_inside(flush, 4, None)?;
    prop_assert_eq!(end.recovery.observed.state.list(lid), Some(&[a][..]));
    Ok(())
}

/// An ARU that updates `a` and creates `b`, flushed before its end: a
/// crash before the end rolls all of it back.
#[test]
fn aru_is_atomic_across_crash() -> TestCaseResult {
    let mut run = small_run();
    let lid = run.new_list(PredList::Start, ListHints::default())?;
    let a = run.new_block(lid, Pred::Start)?;
    run.write(a, &content(1, 4096))?;
    run.flush()?;
    run.begin_aru()?;
    run.write(a, &content(99, 4096))?;
    let b = run.new_block(lid, Pred::After(a))?;
    run.write(b, &content(98, 4096))?;
    let end = crash_in_flush(run, None)?;
    prop_assert_eq!(end.recovery.observed.state.list(lid), Some(&[a][..]));
    prop_assert!(end.recovery.observed.stats.recovery_records_discarded > 0);
    Ok(())
}

#[test]
fn completed_aru_survives_crash() -> TestCaseResult {
    let mut run = small_run();
    let lid = run.new_list(PredList::Start, ListHints::default())?;
    let a = run.new_block(lid, Pred::Start)?;
    run.write(a, &content(1, 4096))?;
    run.begin_aru()?;
    run.write(a, &content(50, 4096))?;
    let b = run.new_block(lid, Pred::After(a))?;
    run.write(b, &content(51, 4096))?;
    run.end_aru()?;
    let end = crash_in_flush(run, None)?;
    prop_assert_eq!(end.recovery.observed.state.list(lid), Some(&[a, b][..]));
    Ok(())
}

#[test]
fn compression_hint_shrinks_stored_bytes_transparently() -> TestCaseResult {
    let mut run = small_run();
    let lid = run.new_list(PredList::Start, ListHints::compressed())?;
    let bid = run.new_block(lid, Pred::Start)?;
    let data: Vec<u8> = b"segment cleaning policy "
        .iter()
        .copied()
        .cycle()
        .take(4096)
        .collect();
    run.write(bid, &data)?;
    let stats = run.lld.stats();
    prop_assert!(stats.stored_bytes_written < stats.user_bytes_written / 2);
    prop_assert_eq!(run.read(bid)?, data);
    // Recovery reads the compressed copy back from the medium.
    crash_in_flush(run, None)?;
    Ok(())
}

/// A 4 KB block and a 64-byte one share a disk; the size class survives
/// recovery, so an oversized write still fails after it.
#[test]
fn multiple_block_sizes_coexist() -> TestCaseResult {
    let mut run = small_run();
    let files = run.new_list(PredList::Start, ListHints::default())?;
    let inodes = run.new_list(PredList::After(files), ListHints::default())?;
    let d = run.new_block(files, Pred::Start)?;
    let i = run
        .new_sized_block(inodes, Pred::Start, 64)?
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
    run.write(d, &content(7, 4096))?;
    run.write(i, &content(8, 64))?;
    let oversized = |run: &mut Run| {
        let too_large = Err(LdError::BlockTooLarge { got: 65, max: 64 });
        prop_assert_eq!(run.both(|ld| ld.write(i, &content(8, 65)))?, too_large);
        run.flush()
    };
    let flush = run.during(oversized)?;
    run.crashes().check_inside(flush, 4, Some(&oversized))?;
    Ok(())
}

#[test]
fn delete_list_frees_blocks_and_survives_crash() -> TestCaseResult {
    let mut run = small_run();
    let l1 = run.new_list(PredList::Start, ListHints::default())?;
    let l2 = run.new_list(PredList::After(l1), ListHints::default())?;
    let keep = run.new_block(l2, Pred::Start)?;
    run.write(keep, &content(11, 4096))?;
    let mut pred = Pred::Start;
    for seed in 0..10 {
        let bid = run.new_block(l1, pred)?;
        run.write(bid, &content(seed, 4096))?;
        pred = Pred::After(bid);
    }
    let free_before = run.lld.free_bytes();
    run.delete_list(l1)?;
    prop_assert_eq!(run.lld.free_bytes(), free_before + 10 * 4096);
    let gone = run.both(|ld| ld.list_blocks(l1))?;
    prop_assert_eq!(gone, Err(LdError::UnknownList(l1)));
    let end = crash_in_flush(run, None)?;
    let state = &end.recovery.observed.state;
    prop_assert_eq!(state.list(l1), None);
    prop_assert_eq!(state.list(l2), Some(&[keep][..]));
    Ok(())
}

/// After recovery the moved blocks belong to their new list: deleting one
/// through it works.
#[test]
fn move_sublist_and_move_list_are_recoverable() -> TestCaseResult {
    let mut run = small_run();
    let l1 = run.new_list(PredList::Start, ListHints::default())?;
    let l2 = run.new_list(PredList::After(l1), ListHints::default())?;
    let mut bids = Vec::new();
    let mut pred = Pred::Start;
    for seed in 0..5 {
        let bid = run.new_block(l1, pred)?;
        run.write(bid, &content(seed, 512))?;
        bids.push(bid);
        pred = Pred::After(bid);
    }
    let moved = run.both(|ld| ld.move_sublist(l1, bids[1], bids[3], l2, Pred::Start))?;
    prop_assert_eq!(moved, Ok(()));
    prop_assert_eq!(run.both(|ld| ld.move_list(l2, PredList::Start))?, Ok(()));
    run.check_live()?;
    let delete_moved = |run: &mut Run| {
        let r = run.both(|ld| ld.delete_block(bids[2], l2, Some(bids[1])))?;
        prop_assert_eq!(r, Ok(()));
        run.flush()
    };
    let end = crash_in_flush(run, Some(&delete_moved))?;
    let state = &end.recovery.observed.state;
    let order: Vec<_> = state.lists.iter().map(|l| l.0).collect();
    prop_assert_eq!(order, vec![l2, l1]);
    prop_assert_eq!(state.list(l1), Some(&[bids[0], bids[4]][..]));
    prop_assert_eq!(state.list(l2), Some(&bids[1..4]));
    Ok(())
}

/// The contents trade places; the list order does not.
#[test]
fn swap_contents_swaps_and_survives_crash() -> TestCaseResult {
    let mut run = small_run();
    let lid = run.new_list(PredList::Start, ListHints::default())?;
    let a = run.new_block(lid, Pred::Start)?;
    let b = run.new_block(lid, Pred::After(a))?;
    run.write(a, &content(1, 3000))?;
    run.write(b, &content(2, 500))?;
    prop_assert_eq!(run.both(|ld| ld.swap_contents(a, b))?, Ok(()));
    prop_assert_eq!(run.read(a)?, content(2, 500));
    prop_assert_eq!(run.read(b)?, content(1, 3000));
    let end = crash_in_flush(run, None)?;
    prop_assert_eq!(end.recovery.observed.state.list(lid), Some(&[a, b][..]));
    Ok(())
}

/// The Swap record redirects mappings without a WriteBlock; cleaning the
/// segment holding it must forward the blocks so that recovery still sees
/// the swapped state.
#[test]
fn swap_contents_survives_cleaning_of_the_swap_record() -> TestCaseResult {
    let mut run = small_run();
    let lid = run.new_list(PredList::Start, ListHints::default())?;
    let a = run.new_block(lid, Pred::Start)?;
    let b = run.new_block(lid, Pred::After(a))?;
    run.write(a, &content(1, 4096))?;
    run.write(b, &content(2, 4096))?;
    prop_assert_eq!(run.both(|ld| ld.swap_contents(a, b))?, Ok(()));
    run.flush()?;
    let mut filler = Vec::new();
    let mut pred = Pred::After(b);
    for _ in 0..24 {
        let f = run.new_block(lid, pred)?;
        filler.push(f);
        pred = Pred::After(f);
    }
    // Overwrite the filler, cleaning a segment after each round, until the
    // segment that holds `a`, `b` and the Swap record is cleaned (`a`
    // leaves it).
    let mut home = None;
    for round in 0..16 {
        for &f in &filler {
            run.write(f, &content(round, 4096))?;
        }
        home = home.or(run.lld.block_segment(a));
        run.apply(&Op::Clean { max: 1 })?;
        if run.lld.block_segment(a) != home {
            break;
        }
    }
    prop_assert!(home.is_some() && run.lld.block_segment(a) != home);
    sealed_and_cleaned(&run)?;
    crash_in_flush(run, None)?;
    Ok(())
}

/// Overwrites fill a small disk until the cleaner reclaims the dead
/// segments; the cleaner's re-logged metadata recovers.
#[test]
fn cleaner_reclaims_overwritten_segments() -> TestCaseResult {
    let mut run = small_run();
    let lid = run.new_list(PredList::Start, ListHints::default())?;
    let mut pred = Pred::Start;
    for _ in 0..32 {
        pred = Pred::After(run.new_block(lid, pred)?);
    }
    let bids = run.bids.clone();
    for round in 0..8 {
        for (i, &bid) in bids.iter().enumerate() {
            run.write(bid, &content(round * 64 + i as u64, 4096))?;
        }
    }
    sealed_and_cleaned(&run)?;
    run.check_live()?;
    crash_in_flush(run, None)?;
    Ok(())
}

/// Reading a scattered eighth of a list heats it; `reorganize_hot` gathers
/// those blocks into one or two segments, and a crash inside the move
/// loses nothing.
#[test]
fn reorganize_hot_clusters_frequently_accessed_blocks() -> TestCaseResult {
    let mut run = small_run();
    let lid = run.new_list(PredList::Start, ListHints::default())?;
    let mut pred = Pred::Start;
    for _ in 0..64 {
        pred = Pred::After(run.new_block(lid, pred)?);
    }
    let bids = run.bids.clone();
    for round in 0..4 {
        for (i, &bid) in bids.iter().enumerate() {
            run.write(bid, &content(round * 64 + i as u64, 4096))?;
        }
    }
    sealed_and_cleaned(&run)?;
    let hot: Vec<_> = bids.iter().copied().step_by(8).collect();
    let mut buf = vec![0u8; 4096];
    for _ in 0..10 {
        for &b in &hot {
            run.lld
                .read(b, &mut buf)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
        }
    }
    let spread = |run: &Run| {
        let segments: BTreeSet<_> = hot
            .iter()
            .filter_map(|&b| run.lld.block_segment(b))
            .collect();
        segments.len()
    };
    let before = spread(&run);
    let mut moved = 0;
    let reorganize = run.during(|run| {
        moved = run.maintain("reorganize_hot", |lld| lld.reorganize_hot(hot.len()))?;
        Ok(())
    })?;
    prop_assert!(moved >= hot.len() as u32, "moved {}", moved);
    let after = spread(&run);
    prop_assert!(after < before && after <= 2, "{} -> {}", before, after);
    run.check_live()?;
    run.flush()?;
    run.crashes().check_inside(reorganize, 4, None)?;
    Ok(())
}
