//! Crashes inside the writes LLD makes outside normal operation, on the
//! crash harness (`harness`).
//!
//! Recovery materializes an NVRAM tail into a free segment and then
//! invalidates the NVRAM image. A crash anywhere in that, the
//! invalidation included, leaves an image the next recovery must bring
//! back to the same state: it must recognise a segment that already holds
//! the tail and not write a second copy under the same summary seq (that
//! copy costs a free segment, and once more writes and a crash follow,
//! `ldck` rejects the image with two segments claiming one seq).
//!
//! A clean shutdown seals the open segment and writes the checkpoint. A
//! crash anywhere in that must recover by the sweep, or by the checkpoint
//! once it is whole, with every flushed block intact.
//!
//! A seal invalidates the NVRAM image it supersedes. A crash that loses
//! that invalidation leaves a stale image the recovery must not replay
//! over the sealed copy.
//!
//! After each of these recoveries the disk takes more writes, enough to
//! seal a segment, and a flush; that image must check and recover too.
//!
//! A flush whose tail does not fit in NVRAM writes a partial segment
//! instead, and recovers from it.

mod harness;

use harness::{config, content, Run};
use ld_core::{ListHints, Pred, PredList};
use lld::LldConfig;
use proptest::prelude::*;

/// Room for the few segments these workloads fill; every crash image
/// costs a scan of the whole medium, so it is kept small.
const CAPACITY: u64 = 4 << 20;

/// Formats a disk, writes three blocks on one list and flushes them
/// (into NVRAM when the disk has it).
fn three_flushed_blocks(nvram: bool) -> Result<Run, TestCaseError> {
    let mut run = Run::format(CAPACITY, nvram, config());
    let lid = run.new_list(PredList::Start, ListHints::default())?;
    let mut pred = Pred::Start;
    for seed in 0..3 {
        let b = run.new_block(lid, pred)?;
        run.write(b, &content(seed, 4096))?;
        pred = Pred::After(b);
    }
    run.flush()?;
    Ok(run)
}

/// Appends enough blocks to the first list to seal a segment and
/// flushes. A duplicate tail seq shows up in `ldck` only once segments
/// sealed after the recovery reach the medium.
fn write_more(run: &mut Run) -> Result<(), TestCaseError> {
    let lid = run.lids[0];
    let mut pred = run.bids.last().map_or(Pred::Start, |&b| Pred::After(b));
    let sealed = run.lld.stats().segments_sealed;
    for seed in 100..137 {
        let b = run.new_block(lid, pred)?;
        run.write(b, &content(seed, 4096))?;
        pred = Pred::After(b);
    }
    prop_assert!(
        run.lld.stats().segments_sealed > sealed,
        "the extra writes seal a segment"
    );
    run.flush()
}

#[test]
fn lost_invalidation_does_not_materialize_the_tail_twice() -> TestCaseResult {
    let run = three_flushed_blocks(true)?;
    prop_assert_eq!(run.lld.stats().nvram_saves, 1, "NVRAM absorbs the flush");
    prop_assert_eq!(run.lld.stats().partial_segment_writes, 0);

    // The recovery materializes the tail and invalidates the image; every
    // crash inside it (33 positions) recovers to the same state, free
    // segments included.
    let mut crashes = run.crashes();
    let end = crashes.writes();
    let every: Vec<u64> = (0..64).collect();
    let checked = crashes.check(end, &every, Some(&write_more))?;
    prop_assert!(checked.recovery.observed.stats.recovery_nvram_applied);

    // Its last write is the invalidation, so the crash just before it lost
    // only that: the tail is on disk, and that recovery invalidates.
    let (_, lost) = &checked.nested[checked.nested.len() - 2];
    prop_assert!(
        !lost.observed.stats.recovery_nvram_applied,
        "the tail is already on disk"
    );
    prop_assert!(lost.nvram_written, "the image is invalidated");
    Ok(())
}

/// Walks every crash inside `shutdown` after three flushed blocks. The
/// sweep recovers the prefixes before the checkpoint is whole, and the
/// checkpoint the rest.
fn walk_shutdown(nvram: bool) -> TestCaseResult {
    let mut run = three_flushed_blocks(nvram)?;
    let from = run.position();
    run.shutdown()?;
    let mut crashes = run.crashes();
    let mut first_restore = None;
    for n in from..=crashes.writes() {
        let checked = crashes.check(n, &[], Some(&write_more))?;
        let restored = checked.recovery.observed.stats.recovered_from_checkpoint;
        match first_restore {
            None if restored => first_restore = Some(n),
            Some(_) => prop_assert!(restored, "crash at {}: a whole checkpoint stays whole", n),
            None => {}
        }
    }
    prop_assert!(
        first_restore.is_some_and(|n| n > from),
        "only a whole shutdown restores from its checkpoint: {:?}",
        first_restore
    );
    Ok(())
}

#[test]
fn every_crash_inside_a_clean_shutdown_recovers() -> TestCaseResult {
    walk_shutdown(false)
}

#[test]
fn every_crash_inside_a_clean_shutdown_with_nvram_recovers() -> TestCaseResult {
    walk_shutdown(true)
}

#[test]
fn lost_invalidation_after_a_seal_replays_the_sealed_copy() -> TestCaseResult {
    let mut run = Run::format(CAPACITY, true, config());
    let lid = run.new_list(PredList::Start, ListHints::default())?;
    let a = run.new_block(lid, Pred::Start)?;
    run.write(a, &content(0, 4096))?;
    run.flush()?;
    prop_assert_eq!(run.lld.stats().nvram_saves, 1, "NVRAM absorbs the flush");

    // Rewrite the block, then fill the segment so it seals, which
    // invalidates the image.
    run.write(a, &content(1, 4096))?;
    let mut pred = Pred::After(a);
    let mut sealed_at = None;
    for seed in 2..22 {
        let before = run.lld.stats().segments_sealed;
        let b = run.new_block(lid, pred)?;
        run.write(b, &content(seed, 4096))?;
        pred = Pred::After(b);
        if sealed_at.is_none() && run.lld.stats().segments_sealed > before {
            sealed_at = Some(run.position());
        }
    }
    let Some(at) = sealed_at else {
        return Err(TestCaseError::fail("no write sealed the segment"));
    };

    // The seal's last write is the invalidation; the crash just before it
    // lost only that. The sealed copy supersedes the image.
    let mut crashes = run.crashes();
    let checked = crashes.check(at - 1, &[], None)?;
    let stats = checked.recovery.observed.stats;
    prop_assert!(
        !stats.recovery_nvram_applied,
        "the sealed copy supersedes the image"
    );
    let end = crashes.writes();
    crashes.check(end, &[], None)?;
    Ok(())
}

/// A flush below the seal threshold whose tail does not fit in NVRAM
/// writes a partial segment instead: 66 blocks of 4 KB in a 512 KB segment
/// stay below its 75% threshold but exceed the 256 KB NVRAM.
#[test]
fn nvram_too_small_for_tail_writes_a_partial_segment() -> TestCaseResult {
    let config = LldConfig {
        segment_bytes: 512 << 10,
        ..LldConfig::small_for_tests()
    };
    let mut run = Run::format(CAPACITY, true, config);
    let lid = run.new_list(PredList::Start, ListHints::default())?;
    let mut pred = Pred::Start;
    for seed in 0..66 {
        let b = run.new_block(lid, pred)?;
        run.write(b, &content(seed, 4096))?;
        pred = Pred::After(b);
    }
    let flush = run.during(Run::flush)?;
    let stats = run.lld.stats();
    prop_assert_eq!(stats.nvram_saves, 0, "the tail does not fit in NVRAM");
    prop_assert_eq!(stats.partial_segment_writes, 1);
    let end = run.crashes().check_inside(flush, 4, None)?;
    prop_assert!(!end.recovery.observed.stats.recovery_nvram_applied);
    Ok(())
}
