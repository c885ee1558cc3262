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

mod harness;

use harness::{config, Op, Run};
use ld_core::{ListHints, Pred, PredList};
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
