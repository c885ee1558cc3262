//! Property tests for LLD.
//!
//! 1. **Differential**: a random operation sequence applied to both LLD and
//!    the trivially-correct in-memory `ModelLd` must produce identical
//!    observable behaviour (same results, same list structures, same block
//!    contents).
//! 2. **Crash-anywhere**: after a random prefix of operations and a crash,
//!    recovery must reconstruct exactly the state as of the last `Flush`
//!    (plus anything in sealed segments), with ARU atomicity, list order
//!    and list hints.
//! 3. **Cleaning amid list churn**: every operation that changes list
//!    structure, interleaved with overwrite bursts that force cleaning and
//!    with `reorganize` and `reorganize_hot`. Debug builds check every
//!    victim's forwarding order against a fresh walk of its lists, so a
//!    stale cleaner rank memo fails here.

use ld_core::model::ModelLd;
use ld_core::{Bid, FailureSet, LdError, Lid, ListHints, LogicalDisk, Pred, PredList};
use lld::{Lld, LldConfig};
use proptest::prelude::*;
use simdisk::MemDisk;

/// A random LD operation, with indices into the live id vectors so that
/// most operations hit valid targets.
#[derive(Debug, Clone)]
enum Op {
    NewList {
        pred: usize,
        compress: bool,
    },
    DeleteList {
        lid: usize,
    },
    NewBlock {
        lid: usize,
        pred: usize,
        small: bool,
    },
    DeleteBlock {
        bid: usize,
        hint: bool,
    },
    Write {
        bid: usize,
        len: usize,
        seed: u8,
    },
    Read {
        bid: usize,
    },
    Flush,
    AruBlock {
        lid: usize,
        len: usize,
        seed: u8,
    },
    MoveList {
        lid: usize,
        pred: usize,
    },
    Swap {
        a: usize,
        b: usize,
    },
    BlockAt {
        lid: usize,
        index: u64,
    },
    MoveSublist {
        src: usize,
        first: usize,
        len: usize,
        dst: usize,
        pred: usize,
    },
    /// Overwrites up to `blocks` blocks, picked and ordered by `seed`:
    /// segments mix lists, and the blocks left alone keep victims live.
    Burst {
        blocks: usize,
        seed: u8,
    },
    Clean {
        max: u32,
    },
    ReorganizeHot {
        max: usize,
    },
    /// Clusters up to `lists` fragmented lists and cleans nothing more.
    Reorganize {
        lists: u32,
    },
}

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

fn data(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(17) ^ seed)
        .collect()
}

/// Incompressible bytes (xorshift64*).
fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
        })
        .collect()
}

fn pick<T: Copy>(v: &[T], idx: usize) -> Option<T> {
    if v.is_empty() {
        None
    } else {
        Some(v[idx % v.len()])
    }
}

/// Applies one op to both implementations and checks agreement.
fn apply_both(
    lld: &mut Lld<MemDisk>,
    model: &mut ModelLd,
    lids: &mut Vec<Lid>,
    bids: &mut Vec<Bid>,
    op: &Op,
) -> Result<(), TestCaseError> {
    match op {
        Op::NewList { pred, compress } => {
            let pred = match pick(lids, *pred) {
                Some(l) => PredList::After(l),
                None => PredList::Start,
            };
            let hints = if *compress {
                ListHints::compressed()
            } else {
                ListHints::default()
            };
            let a = lld.new_list(pred, hints);
            let b = model.new_list(pred, hints);
            prop_assert_eq!(a.is_ok(), b.is_ok(), "new_list disagreement");
            if let Ok(l) = a {
                prop_assert_eq!(l, b.unwrap(), "lid allocation must match");
                lids.push(l);
            }
        }
        Op::DeleteList { lid } => {
            let Some(l) = pick(lids, *lid) else {
                return Ok(());
            };
            let dead_a = lld.list_blocks(l).unwrap_or_default();
            let a = lld.delete_list(l, None);
            let b = model.delete_list(l, None);
            prop_assert_eq!(&a, &b, "delete_list disagreement");
            if a.is_ok() {
                lids.retain(|&x| x != l);
                bids.retain(|x| !dead_a.contains(x));
            }
        }
        Op::NewBlock { lid, pred, small } => {
            let Some(l) = pick(lids, *lid) else {
                return Ok(());
            };
            let pred = match pick(bids, *pred) {
                Some(b) => Pred::After(b),
                None => Pred::Start,
            };
            let size = if *small { 256 } else { 4096 };
            let a = lld.new_block_with_size(l, pred, size);
            let b = model.new_block_with_size(l, pred, size);
            prop_assert_eq!(&a, &b, "new_block disagreement");
            if let Ok(bid) = a {
                bids.push(bid);
            }
        }
        Op::DeleteBlock { bid, hint } => {
            let Some(b) = pick(bids, *bid) else {
                return Ok(());
            };
            // Find the owning list from the model via brute force.
            let mut owner = None;
            for l in lids.iter() {
                if model.list_blocks(*l).is_ok_and(|bs| bs.contains(&b)) {
                    owner = Some(*l);
                    break;
                }
            }
            let Some(l) = owner else { return Ok(()) };
            let hint = if *hint { Some(b) } else { None }; // Deliberately wrong hint sometimes.
            let a = lld.delete_block(b, l, hint);
            let m = model.delete_block(b, l, hint);
            prop_assert_eq!(&a, &m, "delete_block disagreement");
            if a.is_ok() {
                bids.retain(|&x| x != b);
            }
        }
        Op::Write { bid, len, seed } => {
            let Some(b) = pick(bids, *bid) else {
                return Ok(());
            };
            let payload = data(*len, *seed);
            let a = lld.write(b, &payload);
            let m = model.write(b, &payload);
            prop_assert_eq!(&a, &m, "write disagreement");
        }
        Op::Read { bid } => {
            let Some(b) = pick(bids, *bid) else {
                return Ok(());
            };
            let mut ba = vec![0u8; 8192];
            let mut bm = vec![0u8; 8192];
            let a = lld.read(b, &mut ba);
            let m = model.read(b, &mut bm);
            prop_assert_eq!(&a, &m, "read disagreement");
            if let Ok(n) = a {
                prop_assert_eq!(&ba[..n], &bm[..n], "read contents disagree");
            }
        }
        Op::Flush => {
            prop_assert_eq!(
                lld.flush(FailureSet::PowerFailure),
                model.flush(FailureSet::PowerFailure)
            );
        }
        Op::AruBlock { lid, len, seed } => {
            let Some(l) = pick(lids, *lid) else {
                return Ok(());
            };
            let payload = data(*len, *seed);
            let a = ld_core::with_aru(lld, |ld| {
                let b = ld.new_block(l, Pred::Start)?;
                ld.write(b, &payload)?;
                Ok(b)
            });
            let m = ld_core::with_aru(model, |ld| {
                let b = ld.new_block(l, Pred::Start)?;
                ld.write(b, &payload)?;
                Ok(b)
            });
            prop_assert_eq!(&a, &m, "ARU disagreement");
            if let Ok(b) = a {
                bids.push(b);
            }
        }
        Op::MoveList { lid, pred } => {
            let Some(l) = pick(lids, *lid) else {
                return Ok(());
            };
            // Mostly a live predecessor; sometimes the list itself or the
            // lowest id not live (a deleted list, or one never made), which
            // both must reject, naming it, and leave the order as it was.
            let pred = match *pred % 8 {
                0 => PredList::After(l),
                1 => PredList::After((0..).map(Lid).find(|x| !lids.contains(x)).unwrap()),
                _ => match pick(lids, *pred / 8) {
                    Some(p) if p != l => PredList::After(p),
                    _ => PredList::Start,
                },
            };
            let a = lld.move_list(l, pred);
            let m = model.move_list(l, pred);
            prop_assert_eq!(&a, &m, "move_list disagreement");
        }
        Op::Swap { a, b } => {
            let (Some(x), Some(y)) = (pick(bids, *a), pick(bids, *b)) else {
                return Ok(());
            };
            let ra = lld.swap_contents(x, y);
            let rm = model.swap_contents(x, y);
            prop_assert_eq!(&ra, &rm, "swap_contents disagreement");
        }
        Op::BlockAt { lid, index } => {
            let Some(l) = pick(lids, *lid) else {
                return Ok(());
            };
            prop_assert_eq!(
                lld.block_at(l, *index),
                model.block_at(l, *index),
                "block_at disagreement"
            );
        }
        Op::MoveSublist {
            src,
            first,
            len,
            dst,
            pred,
        } => {
            let (Some(s), Some(d)) = (pick(lids, *src), pick(lids, *dst)) else {
                return Ok(());
            };
            let on_src = model.list_blocks(s).unwrap_or_default();
            let Some(i) = (!on_src.is_empty()).then(|| *first % on_src.len()) else {
                return Ok(());
            };
            let chain = &on_src[i..(i + len).min(on_src.len())];
            let (first, last) = (chain[0], chain[chain.len() - 1]);
            let on_dst: Vec<Bid> = model
                .list_blocks(d)
                .unwrap_or_default()
                .into_iter()
                .filter(|b| !chain.contains(b))
                .collect();
            let pred = match pick(&on_dst, *pred) {
                Some(p) => Pred::After(p),
                None => Pred::Start,
            };
            let a = lld.move_sublist(s, first, last, d, pred);
            let m = model.move_sublist(s, first, last, d, pred);
            prop_assert_eq!(&a, &m, "move_sublist disagreement");
        }
        Op::Burst { blocks, seed } => {
            let mut order: Vec<(u64, Bid)> = bids
                .iter()
                .enumerate()
                .map(|(i, &b)| {
                    (
                        (i as u64 ^ u64::from(*seed)).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        b,
                    )
                })
                .collect();
            order.sort_unstable();
            for &(key, b) in order.iter().take(*blocks) {
                // Incompressible, so compressed lists fill segments too; a
                // block too small for 4 KB gets 256 bytes.
                let mut payload = noise(4096, key);
                if lld.write(b, &payload).is_err() {
                    payload.truncate(256);
                }
                let a = lld.write(b, &payload);
                let m = model.write(b, &payload);
                prop_assert_eq!(&a, &m, "burst write disagreement");
            }
        }
        Op::Clean { max } => {
            prop_assert!(lld.clean(*max).is_ok(), "clean failed");
        }
        Op::ReorganizeHot { max } => {
            prop_assert!(lld.reorganize_hot(*max).is_ok(), "reorganize_hot failed");
        }
        Op::Reorganize { lists } => {
            let r = lld.reorganize(*lists, 0);
            prop_assert!(r.is_ok(), "reorganize failed: {:?}", r);
        }
    }
    Ok(())
}

/// Appends two lists of eight 4 KB blocks to both implementations.
fn add_two_lists(
    lld: &mut Lld<MemDisk>,
    model: &mut ModelLd,
    lids: &mut Vec<Lid>,
    bids: &mut Vec<Bid>,
) -> Result<(), TestCaseError> {
    for _ in 0..2 {
        let l = lld.new_list(PredList::Start, ListHints::default()).unwrap();
        prop_assert_eq!(model.new_list(PredList::Start, ListHints::default()), Ok(l));
        lids.push(l);
        let mut pred = Pred::Start;
        for _ in 0..8 {
            let b = lld.new_block(l, pred).unwrap();
            prop_assert_eq!(model.new_block(l, pred), Ok(b));
            bids.push(b);
            pred = Pred::After(b);
        }
    }
    Ok(())
}

/// Checks full observable equivalence of the two implementations.
fn check_equivalent(
    lld: &mut Lld<MemDisk>,
    model: &mut ModelLd,
    lids: &[Lid],
    bids: &[Bid],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        &lld.list_of_lists()[..],
        model.list_of_lists(),
        "list of lists"
    );
    for l in lids {
        prop_assert_eq!(
            lld.list_blocks(*l),
            model.list_blocks(*l),
            "list {} structure",
            l
        );
    }
    for b in bids {
        let mut ba = vec![0u8; 8192];
        let mut bm = vec![0u8; 8192];
        let a = lld.read(*b, &mut ba);
        let m = model.read(*b, &mut bm);
        prop_assert_eq!(&a, &m, "final read of {}", b);
        if let Ok(n) = a {
            prop_assert_eq!(&ba[..n], &bm[..n], "final contents of {}", b);
        }
    }
    Ok(())
}

fn test_config() -> LldConfig {
    LldConfig {
        segment_bytes: 32 << 10,
        summary_bytes: 4 << 10,
        cleaning_reserve_segments: 3,
        cpu: lld::CpuModel::free(),
        compression_cost: ldcomp::CostModel::free(),
        ..LldConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// LLD behaves exactly like the reference model under random workloads.
    #[test]
    fn lld_matches_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let disk = MemDisk::with_capacity(8 << 20);
        let mut lld = Lld::format(disk, test_config()).unwrap();
        // The model has a different capacity-accounting granularity; size it
        // identically to LLD's payload capacity so NoSpace agrees.
        let mut model = ModelLd::new(lld.capacity_bytes(), 4096);
        let mut lids = Vec::new();
        let mut bids = Vec::new();
        for op in &ops {
            apply_both(&mut lld, &mut model, &mut lids, &mut bids, op)?;
        }
        check_equivalent(&mut lld, &mut model, &lids, &bids)?;
    }

    /// After a crash, recovery reproduces exactly the model state as of the
    /// last flush; operations after it are absent (all or nothing per ARU).
    #[test]
    fn crash_recovers_last_flushed_state(
        ops in proptest::collection::vec(op_strategy(), 1..100),
        flush_at in 0usize..100,
    ) {
        let disk = MemDisk::with_capacity(8 << 20);
        let mut lld = Lld::format(disk, test_config()).unwrap();
        let mut model = ModelLd::new(lld.capacity_bytes(), 4096);
        let mut lids = Vec::new();
        let mut bids = Vec::new();

        // Run a prefix, then an explicit flush, snapshotting the model.
        let flush_at = flush_at.min(ops.len());
        for op in &ops[..flush_at] {
            apply_both(&mut lld, &mut model, &mut lids, &mut bids, op)?;
        }
        lld.flush(FailureSet::PowerFailure).unwrap();
        let snapshot = model.clone();
        let snap_lids = lids.clone();
        let snap_bids = bids.clone();
        let snap_order: Vec<(Lid, Option<ListHints>)> = lld
            .list_of_lists()
            .into_iter()
            .map(|l| (l, lld.list_hints(l)))
            .collect();

        // Run the rest without flushing (ops may still seal segments on
        // their own — those survive; that is allowed by the contract, but
        // for a *deterministic* oracle we only check that flushed state is
        // a lower bound and recovered state is consistent).
        let mut sealed_after = false;
        for op in &ops[flush_at..] {
            let before = lld.stats().segments_sealed + lld.stats().partial_segment_writes;
            apply_both(&mut lld, &mut model, &mut lids, &mut bids, op)?;
            if lld.stats().segments_sealed + lld.stats().partial_segment_writes != before {
                sealed_after = true;
            }
        }

        // Crash and recover. The raw post-crash image must already pass
        // offline consistency checking (ldck mirrors the §3.6 sweep).
        let config = lld.config().clone();
        let disk = lld.into_disk();
        let pre = ldck::check_image(&disk.image_bytes(), &config);
        prop_assert!(
            pre.is_clean(),
            "post-crash image has errors: {:?}",
            pre.findings
        );
        let mut rec = Lld::open(disk, config).unwrap();

        if !sealed_after {
            // Nothing after the flush reached the medium: recovered state
            // must equal the snapshot exactly.
            let mut snap = snapshot;
            check_equivalent(&mut rec, &mut snap, &snap_lids, &snap_bids)?;
            // The list of lists and every list's hints come back too.
            let order: Vec<(Lid, Option<ListHints>)> = rec
                .list_of_lists()
                .into_iter()
                .map(|l| (l, rec.list_hints(l)))
                .collect();
            prop_assert_eq!(order, snap_order, "list order and hints after recovery");
            // Blocks created after the flush must not exist.
            for b in bids.iter().filter(|b| !snap_bids.contains(b)) {
                let r = rec.read(*b, &mut vec![0u8; 8192]);
                prop_assert_eq!(r, Err(LdError::UnknownBlock(*b)));
            }
        } else {
            // Some suffix state reached the disk on its own; recovery must
            // still produce an internally consistent LLD: every list walks
            // without error and every block on a list reads successfully.
            for l in rec.list_of_lists() {
                for b in rec.list_blocks(l).unwrap() {
                    let mut buf = vec![0u8; 8192];
                    prop_assert!(rec.read(b, &mut buf).is_ok(), "block {} unreadable", b);
                }
            }
        }

        // The medium must also check clean after recovery ran (the sweep
        // only rewrites the NVRAM tail, if any; the image stays valid).
        let config = rec.config().clone();
        let post = ldck::check_image(&rec.into_disk().image_bytes(), &config);
        prop_assert!(
            post.is_clean(),
            "post-recovery image has errors: {:?}",
            post.findings
        );
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
            ..test_config()
        };
        let disk = MemDisk::with_capacity(2 << 20);
        let mut lld = Lld::format(disk, config.clone()).unwrap();
        let mut model = ModelLd::new(lld.capacity_bytes(), 4096);
        let mut lids = Vec::new();
        let mut bids = Vec::new();
        // Before the random operations (so their overwrite bursts have
        // work) and after them (so the final bursts surely reach the
        // cleaner).
        add_two_lists(&mut lld, &mut model, &mut lids, &mut bids)?;
        for (i, op) in ops.iter().enumerate() {
            apply_both(&mut lld, &mut model, &mut lids, &mut bids, op)?;
            // Heat a few blocks and rank them at once: a memo that missed
            // this operation's change shows in the debug cross-check.
            let touch = Op::Burst { blocks: 8, seed: i as u8 };
            apply_both(&mut lld, &mut model, &mut lids, &mut bids, &touch)?;
            prop_assert!(lld.reorganize_hot(8).is_ok(), "reorganize_hot failed");
        }
        add_two_lists(&mut lld, &mut model, &mut lids, &mut bids)?;
        let cleaned = lld.stats().segments_cleaned;
        for seed in 0..64 {
            if lld.stats().segments_cleaned > cleaned {
                break;
            }
            let burst = Op::Burst { blocks: bids.len(), seed };
            apply_both(&mut lld, &mut model, &mut lids, &mut bids, &burst)?;
        }
        prop_assert!(lld.stats().segments_cleaned > cleaned, "the cleaner never ran");
        lld.flush(FailureSet::PowerFailure).unwrap();
        check_equivalent(&mut lld, &mut model, &lids, &bids)?;
        let report = ldck::check_image(&lld.into_disk().image_bytes(), &config);
        prop_assert!(report.is_clean(), "image has errors: {:?}", report.findings);
    }
}
