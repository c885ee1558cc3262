//! Recovery is a pure function of the image, and the image it recovers is
//! the truth: a crash anywhere in a small workload — on a healthy or a
//! scrubbed faulty medium, with or without an NVRAM tail, ending in a crash
//! or a clean shutdown — recovers via the checkpoint or the full summary
//! sweep to the model's state, twice over, and re-recovers to it after a
//! crash inside its own writes (`harness`).

mod harness;

use harness::{config, content, Op, Run};
use ld_core::{Bid, ListHints, Pred, PredList};
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
