//! The LLD crash harness, shared by the model, crash, recovery, NVRAM and
//! media-fault tests. It follows CrashMonkey/B3 (Mohan et al., OSDI 2018)
//! in three phases:
//!
//! 1. **Workload.** [`Run`] applies each operation to LLD and to the
//!    reference `ModelLd`, whose results must agree, on a `SimDisk` that
//!    records every write (`SimDisk::record_writes`). At each operation
//!    boundary it keeps the model's state and the log position at which
//!    the operation returned; a boundary where a flush or shutdown
//!    returned is durable.
//! 2. **Crash states.** [`Crashes`] rebuilds the disk at prefixes of that
//!    log (`CrashImages`): drawn ones, torn requests included, and the
//!    log's end.
//! 3. **Check.** At each crash image [`Crashes::check`] requires that
//!    - (a) `ldck` passes the image before and after recovery, and its
//!      sweep of the recovered medium rebuilds the recovered remap table;
//!    - (b) two recoveries give the same [`Observed`] and leave the same
//!      medium and NVRAM; with a command queue, a sweep reads every
//!      summary through it;
//!    - (c) the recovered lists, list order, hints and contents are the
//!      model's at some boundary from the last durable one before the crash
//!      to the operation in flight at it, and every other block id ever
//!      allocated is unknown; a block may read back an error counted in
//!      `unreadable_blocks`, never other bytes;
//!    - (d) a crash at a prefix of the recovery's own recorded writes
//!      recovers to the same state, and no recovery grows the log beyond
//!      the NVRAM tail it materializes (Snippet 1 of SNIPPETS.md): one
//!      segment and the NVRAM invalidation, or no segment at all. The
//!      re-open of the recovered image writes nothing, and after a sweep
//!      it observes the same stats too.
//!
//! A continuation of the workload after each of those recoveries ([`Then`])
//! is checked at its log's end the same way. A directed workload takes the
//! log span of the operation it is about ([`Run::during`]) and has
//! [`Crashes::check_inside`] check prefixes spread over it.
//!
//! NVRAM and latent media faults are the two dimensions. Latent defects
//! surface when the workload scans the medium ([`Run::scan`]); a crash
//! image boots with them from the first durable boundary after the scan,
//! once the scrub's repairs are on the medium. Before that point a sweep
//! could find a summary sector unreadable whose records only the scrub's
//! unflushed re-log holds, a loss no log can prevent, so earlier images
//! boot on the medium as it was before its defects appeared.

#![allow(dead_code)] // Each test binary uses its own part.

use std::collections::BTreeMap;
use std::ops::Range;

use ld_core::model::ModelLd;
use ld_core::{Bid, FailureSet, LdError, Lid, ListHints, LogicalDisk, Pred, PredList};
use lld::{Layout, Lld, LldConfig, LldStats};
use proptest::prelude::*;
use simdisk::{BlockDev, CrashImages, FaultConfig, SimDisk, SECTOR_SIZE};

/// NVRAM attached to the disk in the cases that sample it.
const NVRAM_BYTES: usize = 256 << 10;

/// The LLD configuration every test uses: 64 KB segments, free CPU and
/// compression, and a retry budget deep enough for multi-fault spans.
pub fn config() -> LldConfig {
    LldConfig {
        segment_bytes: 64 << 10,
        summary_bytes: 4 << 10,
        read_retries: 16,
        cpu: lld::CpuModel::free(),
        compression_cost: ldcomp::CostModel::free(),
        ..LldConfig::default()
    }
}

/// `len` compressible bytes that differ with `seed`.
pub fn content(seed: u64, len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|j| ((seed * 37 + j * 11) % 253) as u8)
        .collect()
}

/// `len` incompressible bytes (xorshift64*).
pub fn noise(len: usize, seed: u64) -> Vec<u8> {
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

/// A random LD operation, with indices into the live id vectors so that
/// most operations hit valid targets.
#[derive(Debug, Clone)]
pub enum Op {
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

fn pick<T: Copy>(v: &[T], idx: usize) -> Option<T> {
    (!v.is_empty()).then(|| v[idx % v.len()])
}

/// Reads `bid` whole from `ld`.
fn read(ld: &mut dyn LogicalDisk, bid: Bid) -> ld_core::Result<Vec<u8>> {
    let mut buf = vec![0u8; ld.block_len(bid)?];
    let n = ld.read(bid, &mut buf)?;
    buf.truncate(n);
    Ok(buf)
}

/// The model's state after one operation.
struct Boundary {
    /// Log position at which the operation returned.
    at: u64,
    /// A flush or shutdown returned here: all before it survives a crash.
    durable: bool,
    model: ModelLd,
    /// Every list's hints (the model keeps none).
    hints: BTreeMap<Lid, ListHints>,
}

impl Boundary {
    /// The lists with their hints and blocks, in list-of-lists order.
    fn lists(&mut self) -> Vec<(Lid, Option<ListHints>, Vec<Bid>)> {
        let order = self.model.list_of_lists().to_vec();
        order
            .into_iter()
            .map(|l| {
                let blocks = self.model.list_blocks(l).expect("a listed list");
                (l, self.hints.get(&l).copied(), blocks)
            })
            .collect()
    }

    /// Whether `obs` shows this state: the same lists, every block on them
    /// reading back its contents or an error counted in `unreadable_blocks`,
    /// and no other block allocated.
    fn shows(&mut self, obs: &Observed) -> bool {
        if self.lists() != obs.state.lists || !obs.state.strays.is_empty() {
            return false;
        }
        let mut errors = 0;
        for (bid, got) in &obs.state.contents {
            match got {
                Err(LdError::Device(_)) => errors += 1,
                got => {
                    if read(&mut self.model, *bid) != *got {
                        return false;
                    }
                }
            }
        }
        errors <= obs.stats.unreadable_blocks
    }
}

/// Everything a client (or an auditor) can observe of a recovered disk
/// manager. A read that fails is recorded as the failure: a loss reported
/// by one recovery must be reported by the other too.
#[derive(Debug, PartialEq)]
pub struct Observed {
    /// Taken after the reads, so failed reads are counted.
    pub stats: LldStats,
    pub state: State,
}

/// The part of [`Observed`] that does not depend on how it was recovered.
#[derive(Debug, PartialEq)]
pub struct State {
    pub lists: Vec<(Lid, Option<ListHints>, Vec<Bid>)>,
    pub contents: Vec<(Bid, ld_core::Result<Vec<u8>>)>,
    /// Block ids ever allocated that no list holds but that are not
    /// unknown, with their lengths.
    pub strays: Vec<(Bid, ld_core::Result<usize>)>,
    pub bad_sectors: Vec<u64>,
    pub quarantined: u32,
    pub free_segments: u32,
}

impl State {
    /// The blocks of `lid`, if it is a list.
    pub fn list(&self, lid: Lid) -> Option<&[Bid]> {
        let mut lists = self.lists.iter();
        lists.find(|l| l.0 == lid).map(|l| &l.2[..])
    }

    /// The first difference between `self` and `other`, if any.
    fn diff(&self, other: &State) -> Option<String> {
        if self.lists != other.lists {
            return Some(format!("lists {:?} vs {:?}", self.lists, other.lists));
        }
        let contents = self.contents.iter().zip(&other.contents);
        if let Some(((bid, a), (_, b))) = contents.into_iter().find(|(a, b)| a != b) {
            let show = |r: &ld_core::Result<Vec<u8>>| r.clone().map(|v| v.len());
            return Some(format!("contents of {bid}: {:?} vs {:?}", show(a), show(b)));
        }
        let rest = |s: &State| {
            let health = (s.bad_sectors.clone(), s.quarantined, s.free_segments);
            (s.strays.clone(), health)
        };
        (rest(self) != rest(other)).then(|| {
            format!(
                "(strays, (bad sectors, quarantined, free segments)) {:?} vs {:?}",
                rest(self),
                rest(other)
            )
        })
    }
}

/// Observes `lld`, reading every block on every list and probing every
/// other block id below `top`.
fn observe(lld: &mut Lld<SimDisk>, top: u64) -> Observed {
    let mut lists = Vec::new();
    let mut contents = Vec::new();
    for lid in lld.list_of_lists() {
        let bids = lld.list_blocks(lid).expect("list_blocks");
        for &b in &bids {
            contents.push((b, read(lld, b)));
        }
        lists.push((lid, lld.list_hints(lid), bids));
    }
    let strays = (0..top)
        .map(Bid)
        .filter(|b| !contents.iter().any(|(c, _)| c == b))
        .map(|b| (b, lld.block_len(b)))
        .filter(|(b, len)| *len != Err(LdError::UnknownBlock(*b)))
        .collect();
    let state = State {
        lists,
        contents,
        strays,
        bad_sectors: lld.bad_sector_table(),
        quarantined: lld.quarantined_segments(),
        free_segments: lld.free_segments(),
    };
    Observed {
        stats: *lld.stats(),
        state,
    }
}

/// A workload on LLD and the model together (phase 1).
pub struct Run {
    pub lld: Lld<SimDisk>,
    model: ModelLd,
    hints: BTreeMap<Lid, ListHints>,
    /// Live lists and blocks, the targets random operations pick from.
    pub lids: Vec<Lid>,
    pub bids: Vec<Bid>,
    /// One past the highest block id ever allocated.
    top: u64,
    /// The medium's latent defects, surfacing at [`Run::scan`].
    faults: Option<FaultConfig>,
    scanned: bool,
    /// Log position from which crash images carry the defects.
    faulty_from: Option<u64>,
    boundaries: Vec<Boundary>,
    /// The state an open ARU started from: a crash before its end
    /// recovers to it, however much of the unit a flush made durable.
    aru_base: Option<(ModelLd, BTreeMap<Lid, ListHints>)>,
}

impl Run {
    /// Formats a disk of `capacity` bytes (with NVRAM if `nvram`) and
    /// starts recording.
    pub fn format(capacity: u64, nvram: bool, config: LldConfig) -> Self {
        let mut disk = SimDisk::hp_c3010_with_capacity(capacity);
        if nvram {
            disk = disk.with_nvram(NVRAM_BYTES);
        }
        let lld = Lld::format(disk, config).expect("format");
        let model = ModelLd::new(lld.capacity_bytes(), 4096);
        Self::resume(lld, model, BTreeMap::new(), None, 0)
    }

    /// Continues from `lld`, which holds what `model` and `hints` describe
    /// durably, on a medium with `faults` already surfaced; block ids below
    /// `top` were allocated before.
    fn resume(
        mut lld: Lld<SimDisk>,
        mut model: ModelLd,
        hints: BTreeMap<Lid, ListHints>,
        faults: Option<FaultConfig>,
        top: u64,
    ) -> Self {
        lld.disk_mut().record_writes();
        let lids = model.list_of_lists().to_vec();
        let bids = lids
            .iter()
            .flat_map(|&l| model.list_blocks(l).expect("a listed list"))
            .collect();
        let start = Boundary {
            at: 0,
            durable: true,
            model: model.clone(),
            hints: hints.clone(),
        };
        Self {
            lld,
            model,
            hints,
            lids,
            bids,
            top,
            faults,
            scanned: faults.is_some(),
            faulty_from: faults.map(|_| 0),
            boundaries: vec![start],
            aru_base: None,
        }
    }

    /// Gives the medium the latent defects of `faults` (none for `None`).
    pub fn with_faults(mut self, faults: Option<FaultConfig>) -> Self {
        self.faults = faults;
        self
    }

    /// The log position now.
    pub fn position(&self) -> u64 {
        self.lld.disk().recorded_writes()
    }

    /// Ends an operation; `durable` if all before it survives a crash.
    fn boundary(&mut self, durable: bool) {
        let at = self.position();
        if durable && self.scanned && self.faulty_from.is_none() {
            self.faulty_from = Some(at);
        }
        let (model, hints) = match &self.aru_base {
            Some((model, hints)) => (model.clone(), hints.clone()),
            None => (self.model.clone(), self.hints.clone()),
        };
        self.boundaries.push(Boundary {
            at,
            durable,
            model,
            hints,
        });
    }

    /// Applies `f` to LLD and to the model; their results must agree.
    fn step<T: PartialEq + std::fmt::Debug>(
        &mut self,
        f: impl Fn(&mut dyn LogicalDisk) -> ld_core::Result<T>,
    ) -> Result<ld_core::Result<T>, TestCaseError> {
        let a = f(&mut self.lld);
        let m = f(&mut self.model);
        prop_assert_eq!(&a, &m, "LLD and the model disagree");
        Ok(a)
    }

    /// [`Run::step`] as one operation.
    pub fn both<T: PartialEq + std::fmt::Debug>(
        &mut self,
        f: impl Fn(&mut dyn LogicalDisk) -> ld_core::Result<T>,
    ) -> Result<ld_core::Result<T>, TestCaseError> {
        let r = self.step(f)?;
        self.boundary(false);
        Ok(r)
    }

    /// [`Run::both`] for an operation whose result only has to agree.
    fn agree<T: PartialEq + std::fmt::Debug>(
        &mut self,
        f: impl Fn(&mut dyn LogicalDisk) -> ld_core::Result<T>,
    ) -> Result<(), TestCaseError> {
        self.both(f).map(drop)
    }

    /// Books `bid`, just allocated, as a target.
    fn born(&mut self, bid: Bid) {
        self.bids.push(bid);
        self.top = self.top.max(bid.0 + 1);
    }

    /// Runs maintenance the model does not see on LLD alone, which must
    /// succeed, as one operation.
    pub fn maintain<T>(
        &mut self,
        what: &str,
        f: impl FnOnce(&mut Lld<SimDisk>) -> ld_core::Result<T>,
    ) -> Result<T, TestCaseError> {
        let out = f(&mut self.lld).map_err(|e| TestCaseError::fail(format!("{what}: {e}")))?;
        self.boundary(false);
        Ok(out)
    }

    /// Creates a list after `pred`, booking its hints.
    fn new_list_after(
        &mut self,
        pred: PredList,
        hints: ListHints,
    ) -> Result<ld_core::Result<Lid>, TestCaseError> {
        let r = self.step(|ld| ld.new_list(pred, hints))?;
        if let Ok(lid) = r {
            self.lids.push(lid);
            self.hints.insert(lid, hints);
        }
        self.boundary(false);
        Ok(r)
    }

    pub fn new_list(&mut self, pred: PredList, hints: ListHints) -> Result<Lid, TestCaseError> {
        ok(self.new_list_after(pred, hints)?)
    }

    pub fn new_block(&mut self, lid: Lid, pred: Pred) -> Result<Bid, TestCaseError> {
        let bid = ok(self.both(|ld| ld.new_block(lid, pred))?)?;
        self.born(bid);
        Ok(bid)
    }

    /// Allocates a block of `size` bytes where both may fail alike.
    pub fn new_sized_block(
        &mut self,
        lid: Lid,
        pred: Pred,
        size: usize,
    ) -> Result<ld_core::Result<Bid>, TestCaseError> {
        let r = self.both(|ld| ld.new_block_with_size(lid, pred, size))?;
        if let Ok(bid) = r {
            self.born(bid);
        }
        Ok(r)
    }

    pub fn read(&mut self, bid: Bid) -> Result<Vec<u8>, TestCaseError> {
        ok(self.both(|ld| read(ld, bid))?)
    }

    pub fn write(&mut self, bid: Bid, data: &[u8]) -> Result<(), TestCaseError> {
        ok(self.both(|ld| ld.write(bid, data))?)
    }

    pub fn delete_block(&mut self, bid: Bid, lid: Lid) -> Result<(), TestCaseError> {
        ok(self.both(|ld| ld.delete_block(bid, lid, None))?)?;
        self.bids.retain(|&b| b != bid);
        Ok(())
    }

    pub fn delete_list(&mut self, lid: Lid) -> Result<(), TestCaseError> {
        let dead = self.model.list_blocks(lid).unwrap_or_default();
        ok(self.both(|ld| ld.delete_list(lid, None))?)?;
        self.lids.retain(|&l| l != lid);
        self.bids.retain(|b| !dead.contains(b));
        Ok(())
    }

    /// Opens an ARU on both. Until it ends, every boundary holds the state
    /// it started from.
    pub fn begin_aru(&mut self) -> Result<(), TestCaseError> {
        ok(self.step(|ld| ld.begin_aru())?)?;
        self.aru_base = Some((self.model.clone(), self.hints.clone()));
        self.boundary(false);
        Ok(())
    }

    pub fn end_aru(&mut self) -> Result<(), TestCaseError> {
        ok(self.step(|ld| ld.end_aru())?)?;
        self.aru_base = None;
        self.boundary(false);
        Ok(())
    }

    /// Flushes both; a flush that returns ends a durable boundary.
    pub fn flush(&mut self) -> Result<(), TestCaseError> {
        let r = self.step(|ld| ld.flush(FailureSet::PowerFailure))?;
        self.boundary(r.is_ok());
        Ok(())
    }

    /// Runs `op` and returns the span of the log it wrote.
    pub fn during(
        &mut self,
        op: impl FnOnce(&mut Self) -> Result<(), TestCaseError>,
    ) -> Result<Range<u64>, TestCaseError> {
        let from = self.position();
        op(self)?;
        Ok(from..self.position())
    }

    /// Lets the medium's latent defects surface and runs `media_scan`.
    /// Returns what its scrub returns.
    pub fn scan(&mut self) -> Result<(u64, u64, u64), TestCaseError> {
        if let Some(f) = self.faults {
            self.lld.disk_mut().set_faults(f);
            self.scanned = true;
        }
        self.maintain("media scan", |lld| lld.media_scan())
    }

    /// Shuts LLD down cleanly: a durable boundary.
    pub fn shutdown(&mut self) -> Result<(), TestCaseError> {
        let r = self.lld.shutdown();
        r.map_err(|e| TestCaseError::fail(format!("shutdown: {e}")))?;
        self.boundary(true);
        Ok(())
    }

    /// Opens the shut-down disk again, as a restart does.
    pub fn reopen(mut self) -> Result<Self, TestCaseError> {
        let config = self.lld.config().clone();
        self.lld = Lld::open(self.lld.into_disk(), config)
            .map_err(|e| TestCaseError::fail(format!("reopen: {e}")))?;
        self.model.restart();
        self.boundary(true);
        Ok(self)
    }

    /// Applies one random operation.
    pub fn apply(&mut self, op: &Op) -> Result<(), TestCaseError> {
        match *op {
            Op::NewList { pred, compress } => {
                let pred = match pick(&self.lids, pred) {
                    Some(l) => PredList::After(l),
                    None => PredList::Start,
                };
                let hints = if compress {
                    ListHints::compressed()
                } else {
                    ListHints::default()
                };
                // Rejections are the model's too; nothing to book.
                let _ = self.new_list_after(pred, hints)?;
            }
            Op::DeleteList { lid } => {
                let Some(l) = pick(&self.lids, lid) else {
                    return Ok(());
                };
                let dead = self.model.list_blocks(l).unwrap_or_default();
                if self.both(|ld| ld.delete_list(l, None))?.is_ok() {
                    self.lids.retain(|&x| x != l);
                    self.bids.retain(|x| !dead.contains(x));
                }
            }
            Op::NewBlock { lid, pred, small } => {
                let Some(l) = pick(&self.lids, lid) else {
                    return Ok(());
                };
                let pred = match pick(&self.bids, pred) {
                    Some(b) => Pred::After(b),
                    None => Pred::Start,
                };
                let size = if small { 256 } else { 4096 };
                if let Ok(b) = self.both(|ld| ld.new_block_with_size(l, pred, size))? {
                    self.born(b);
                }
            }
            Op::DeleteBlock { bid, hint } => {
                let Some(b) = pick(&self.bids, bid) else {
                    return Ok(());
                };
                let owner = self.lids.iter().copied().find(|&l| {
                    self.model
                        .list_blocks(l)
                        .is_ok_and(|blocks| blocks.contains(&b))
                });
                let Some(l) = owner else { return Ok(()) };
                let hint = hint.then_some(b); // Deliberately wrong hint sometimes.
                if self.both(|ld| ld.delete_block(b, l, hint))?.is_ok() {
                    self.bids.retain(|&x| x != b);
                }
            }
            Op::Write { bid, len, seed } => {
                let Some(b) = pick(&self.bids, bid) else {
                    return Ok(());
                };
                let data = content(u64::from(seed), len);
                self.agree(|ld| ld.write(b, &data))?;
            }
            Op::Read { bid } => {
                let Some(b) = pick(&self.bids, bid) else {
                    return Ok(());
                };
                self.agree(|ld| read(ld, b))?;
            }
            Op::Flush => {
                self.flush()?;
            }
            Op::AruBlock { lid, len, seed } => {
                let Some(l) = pick(&self.lids, lid) else {
                    return Ok(());
                };
                let data = content(u64::from(seed), len);
                let r = self.both(|ld| {
                    ld_core::with_aru(ld, |ld| {
                        let b = ld.new_block(l, Pred::Start)?;
                        ld.write(b, &data)?;
                        Ok(b)
                    })
                })?;
                if let Ok(b) = r {
                    self.born(b);
                }
            }
            Op::MoveList { lid, pred } => {
                let Some(l) = pick(&self.lids, lid) else {
                    return Ok(());
                };
                // Mostly a live predecessor; sometimes the list itself or
                // the lowest id not live (a deleted list, or one never
                // made), which both must reject, naming it, and leave the
                // order as it was.
                let pred = match pred % 8 {
                    0 => PredList::After(l),
                    1 => PredList::After((0..).map(Lid).find(|x| !self.lids.contains(x)).unwrap()),
                    _ => match pick(&self.lids, pred / 8) {
                        Some(p) if p != l => PredList::After(p),
                        _ => PredList::Start,
                    },
                };
                self.agree(|ld| ld.move_list(l, pred))?;
            }
            Op::Swap { a, b } => {
                let (Some(x), Some(y)) = (pick(&self.bids, a), pick(&self.bids, b)) else {
                    return Ok(());
                };
                self.agree(|ld| ld.swap_contents(x, y))?;
            }
            Op::BlockAt { lid, index } => {
                let Some(l) = pick(&self.lids, lid) else {
                    return Ok(());
                };
                self.agree(|ld| ld.block_at(l, index))?;
            }
            Op::MoveSublist {
                src,
                first,
                len,
                dst,
                pred,
            } => {
                let (Some(s), Some(d)) = (pick(&self.lids, src), pick(&self.lids, dst)) else {
                    return Ok(());
                };
                let on_src = self.model.list_blocks(s).unwrap_or_default();
                let Some(i) = (!on_src.is_empty()).then(|| first % on_src.len()) else {
                    return Ok(());
                };
                let chain = &on_src[i..(i + len).min(on_src.len())];
                let (first, last) = (chain[0], chain[chain.len() - 1]);
                let on_dst: Vec<Bid> = self
                    .model
                    .list_blocks(d)
                    .unwrap_or_default()
                    .into_iter()
                    .filter(|b| !chain.contains(b))
                    .collect();
                let pred = match pick(&on_dst, pred) {
                    Some(p) => Pred::After(p),
                    None => Pred::Start,
                };
                self.agree(|ld| ld.move_sublist(s, first, last, d, pred))?;
            }
            Op::Burst { blocks, seed } => {
                let mut order: Vec<(u64, Bid)> = self
                    .bids
                    .iter()
                    .enumerate()
                    .map(|(i, &b)| {
                        let key = (i as u64 ^ u64::from(seed)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        (key, b)
                    })
                    .collect();
                order.sort_unstable();
                for &(key, b) in order.iter().take(blocks) {
                    // Incompressible, so compressed lists fill segments
                    // too; a block too small for 4 KB gets 256 bytes.
                    let mut data = noise(4096, key);
                    if self.both(|ld| ld.write(b, &data))?.is_err() {
                        data.truncate(256);
                        self.agree(|ld| ld.write(b, &data))?;
                    }
                }
            }
            Op::Clean { max } => {
                self.maintain("clean", |lld| lld.clean(max))?;
            }
            Op::ReorganizeHot { max } => {
                self.maintain("reorganize_hot", |lld| lld.reorganize_hot(max))?;
            }
            Op::Reorganize { lists } => {
                self.maintain("reorganize", |lld| lld.reorganize(lists, 0))?;
            }
        }
        Ok(())
    }

    /// The live LLD must show the model's current state exactly.
    pub fn check_live(&mut self) -> Result<(), TestCaseError> {
        let obs = observe(&mut self.lld, self.top);
        let now = self.boundaries.last_mut().expect("a boundary");
        prop_assert_eq!(&obs.state.lists, &now.lists(), "live lists");
        prop_assert!(
            obs.stats.unreadable_blocks == 0 && now.shows(&obs),
            "live contents differ from the model's"
        );
        Ok(())
    }

    /// Ends the workload (phase 2).
    pub fn crashes(mut self) -> Crashes {
        let images = self.lld.disk_mut().take_recording().expect("recording");
        Crashes {
            images,
            config: self.lld.config().clone(),
            faults: self.faults,
            faulty_from: self.faulty_from,
            top: self.top,
            boundaries: self.boundaries,
            post: Vec::new(),
        }
    }
}

fn ok<T>(r: ld_core::Result<T>) -> Result<T, TestCaseError> {
    r.map_err(|e| TestCaseError::fail(format!("both failed: {e}")))
}

/// What one recovery showed: its observation and what it wrote.
pub struct Recovery {
    pub observed: Observed,
    /// The disk's counters at the end of the recovery itself.
    pub disk: simdisk::DiskStats,
    /// The NVRAM it left.
    nvram: Vec<u8>,
    /// Whether it changed the NVRAM.
    pub nvram_written: bool,
    /// Whether it wrote to the medium or the NVRAM.
    wrote: bool,
}

/// The outcome of [`Crashes::check`] at one crash image.
pub struct Checked {
    pub recovery: Recovery,
    /// The recoveries of crashes inside the first recovery's writes, the
    /// last at their end.
    pub nested: Vec<(u64, Recovery)>,
}

impl Checked {
    /// The recovery of the image the first recovery left: the last nested
    /// one, or the second recovery when the first wrote nothing.
    pub fn reopened(&self) -> &Recovery {
        self.nested.last().map_or(&self.recovery, |(_, r)| r)
    }
}

/// A continuation of the workload after a recovery: it must leave the disk
/// durable (end in a flush).
pub type Then<'a> = Option<&'a dyn Fn(&mut Run) -> Result<(), TestCaseError>>;

/// The crash images of a recorded run (phase 2) and their checks (phase 3).
pub struct Crashes {
    images: CrashImages,
    config: LldConfig,
    faults: Option<FaultConfig>,
    faulty_from: Option<u64>,
    top: u64,
    boundaries: Vec<Boundary>,
    /// The medium a recovery left, rendered into one buffer for the run.
    post: Vec<u8>,
}

/// `drawn` projected strictly inside a log of `writes` positions, in
/// increasing order, then its end.
fn points(drawn: &[u64], writes: u64) -> Vec<u64> {
    let inside = writes.saturating_sub(1);
    let mut at: Vec<u64> = drawn
        .iter()
        .filter(|_| inside > 0)
        .map(|p| 1 + p % inside)
        .collect();
    at.sort_unstable();
    at.dedup();
    at.push(writes);
    at
}

impl Crashes {
    /// Positions in the log.
    pub fn writes(&self) -> u64 {
        self.images.writes()
    }

    /// Checks the drawn crash points and the log's end, the recovery of
    /// each crashed at the same draws; returns what the end showed.
    pub fn check_drawn(&mut self, drawn: &[u64]) -> Result<Checked, TestCaseError> {
        let mut last = None;
        for n in points(drawn, self.writes()) {
            last = Some(self.check(n, drawn, None)?);
        }
        Ok(last.expect("the log's end"))
    }

    /// Checks `k` prefixes spread evenly over the writes of one operation,
    /// `span` of the log (its last write included), and then the log's
    /// end, continued by `then`; returns what the end showed.
    pub fn check_inside(
        &mut self,
        span: Range<u64>,
        k: u64,
        then: Then,
    ) -> Result<Checked, TestCaseError> {
        prop_assert!(span.start < span.end, "the operation wrote nothing");
        let len = span.end - span.start;
        let mut at: Vec<u64> = (1..=k)
            .map(|i| span.start + (len * i).div_ceil(k))
            .collect();
        at.push(self.writes());
        at.dedup();
        let end = at.pop().expect("the log's end");
        for n in at {
            self.check(n, &[], None)?;
        }
        self.check(end, &[], then)
    }

    /// Checks (a)–(d) at the crash image of prefix `n`, which must not be
    /// behind the last one checked, crashing its recovery at the prefixes
    /// `nested` draws. `then`, if given, continues the workload after the
    /// recovery and after each crash inside its writes, and each
    /// continuation's end is checked too.
    pub fn check(&mut self, n: u64, nested: &[u64], then: Then) -> Result<Checked, TestCaseError> {
        let when = format!("crash at write {n} of {}", self.writes());
        self.images.advance_to(n);
        let faults = self
            .faults
            .filter(|_| self.faulty_from.is_some_and(|at| n >= at));
        let mut report = ldck::check_image(self.images.medium(), &self.config);
        prop_assert!(
            report.is_clean(),
            "{}: crashed image: {:?}",
            when,
            report.findings
        );

        // (b) Two recoveries; (a) on the medium they leave, when they wrote.
        let (config, top) = (&self.config, self.top);
        let disk = self.images.disk();
        let (mut lld, first) = recover(disk, faults, config, &self.images, top, &when)?;
        let disk = self.images.disk();
        let (again, second) = recover(disk, faults, config, &self.images, top, &when)?;
        if let Some(diff) = first.observed.state.diff(&second.observed.state) {
            return Err(TestCaseError::fail(format!(
                "{when}: two recoveries diverged: {diff}"
            )));
        }
        prop_assert_eq!(
            first.observed.stats,
            second.observed.stats,
            "{}: two recoveries diverged",
            when
        );
        let mut same = first.wrote == second.wrote && first.nvram == second.nvram;
        if first.wrote {
            grew(&mut self.images, &lld, &mut self.post, &first, &when)?;
            let post = &self.post;
            same &= self
                .images
                .with_medium_of(again.disk(), |medium| medium == &post[..]);
            report = ldck::check_image(&self.post, &self.config);
            prop_assert!(
                report.is_clean(),
                "{}: recovered image: {:?}",
                when,
                report.findings
            );
        }
        prop_assert!(same, "{}: the recoveries left different images", when);
        prop_assert_eq!(
            report.stats.bad_sectors,
            first.observed.state.bad_sectors.len() as u64,
            "{}: ldck's sweep rebuilds another remap table",
            when
        );

        // (c) The truth: a boundary between the last durable one and the
        // operation in flight.
        let b = &self.boundaries;
        let durable = b
            .iter()
            .rposition(|x| x.durable && x.at <= n)
            .expect("durable start");
        let last = (durable + 1..b.len())
            .take_while(|&j| b[j - 1].at < n)
            .last()
            .unwrap_or(durable);
        let Some(j) = (durable..=last).find(|&j| self.boundaries[j].shows(&first.observed)) else {
            let expected = self.boundaries[durable].lists();
            let state = &first.observed.state;
            return Err(TestCaseError::fail(format!(
                "{when}: recovered to no state between boundaries {durable} and {last}: \
                 lists {:?}, strays {:?}, durable lists {expected:?}",
                state.lists, state.strays
            )));
        };

        // (d) Crashes inside the recovery's own writes, recorded by running
        // it once more when it wrote any.
        let mut log = None;
        if first.wrote {
            let mut disk = self.images.disk();
            disk.record_writes();
            (lld, _) = recover(disk, faults, &self.config, &self.images, top, &when)?;
            log = lld.disk_mut().take_recording();
        }
        if let Some(then) = then {
            self.carry_on(lld, j, faults, then, &when)?;
        }
        let mut inside = Vec::new();
        let Some(mut log) = log else {
            return Ok(Checked {
                recovery: first,
                nested: inside,
            });
        };
        let writes = log.writes();
        for m in points(nested, writes) {
            let when = format!("{when}, recovery crashed at write {m} of {writes}");
            log.advance_to(m);
            let report = ldck::check_image(log.medium(), &self.config);
            prop_assert!(
                report.is_clean(),
                "{}: crashed image: {:?}",
                when,
                report.findings
            );
            let (lld, rec) = recover(log.disk(), faults, &self.config, &log, top, &when)?;
            if rec.wrote {
                grew(&mut log, &lld, &mut self.post, &rec, &when)?;
            }
            if let Some(diff) = rec.observed.state.diff(&first.observed.state) {
                return Err(TestCaseError::fail(format!(
                    "{when}: recovered to another state: {diff}"
                )));
            }
            if m == writes {
                // The re-open of the recovered image leaves it as it is. A
                // sweep sweeps again to the same stats; only the NVRAM tail
                // it materialized and the time may differ.
                let same = !rec.wrote || (!rec.nvram_written && log.medium() == &self.post[..]);
                prop_assert!(same, "{}: the re-open changed the image", when);
                let mut stats = rec.observed.stats;
                stats.recovery_nvram_applied = first.observed.stats.recovery_nvram_applied;
                stats.recovery_us = first.observed.stats.recovery_us;
                prop_assert!(
                    first.observed.stats.recovered_from_checkpoint || stats == first.observed.stats,
                    "{}: the re-open swept to other stats: {:?} vs {:?}",
                    when,
                    rec.observed.stats,
                    first.observed.stats
                );
            }
            // The re-open continues from what `then` continued already.
            if let Some(then) = then.filter(|_| m < writes) {
                self.carry_on(lld, j, faults, then, &when)?;
            }
            inside.push((m, rec));
        }
        Ok(Checked {
            recovery: first,
            nested: inside,
        })
    }

    /// Runs `then` on `lld`, recovered to boundary `j`, and checks the
    /// log's end of that run.
    fn carry_on(
        &mut self,
        lld: Lld<SimDisk>,
        j: usize,
        faults: Option<FaultConfig>,
        then: &dyn Fn(&mut Run) -> Result<(), TestCaseError>,
        when: &str,
    ) -> Result<(), TestCaseError> {
        let truth = &self.boundaries[j];
        let mut model = truth.model.clone();
        model.restart();
        let mut run = Run::resume(lld, model, truth.hints.clone(), faults, self.top);
        then(&mut run)?;
        let mut crashes = run.crashes();
        std::mem::swap(&mut crashes.post, &mut self.post);
        let checked = crashes.check_drawn(&[]);
        std::mem::swap(&mut crashes.post, &mut self.post);
        checked.map_err(|e| TestCaseError::fail(format!("{when}, then: {e}")))?;
        Ok(())
    }
}

/// Boots `disk`, the crash image `pre` holds, with `faults` and recovers
/// it. Returns the disk manager and what it showed, probing block ids
/// below `top`.
fn recover(
    mut disk: SimDisk,
    faults: Option<FaultConfig>,
    config: &LldConfig,
    pre: &CrashImages,
    top: u64,
    when: &str,
) -> Result<(Lld<SimDisk>, Recovery), TestCaseError> {
    if let Some(f) = faults {
        disk.set_faults(f);
    }
    let mut lld = Lld::open(disk, config.clone())
        .map_err(|e| TestCaseError::fail(format!("{when}: recovery failed: {e}")))?;
    let (stats, disk) = (*lld.stats(), *lld.disk().stats());
    // With a command queue, the sweep reads every summary through it.
    let queued = if config.queue_depth >= 1 && !stats.recovered_from_checkpoint {
        stats.recovery_summaries_read
    } else {
        0
    };
    prop_assert_eq!(
        stats.queued_reads,
        queued,
        "{}: summaries read queued",
        when
    );
    let observed = observe(&mut lld, top);
    let mut nvram = vec![0u8; lld.disk().nvram_bytes()];
    lld.disk_mut()
        .nvram_read(0, &mut nvram)
        .expect("nvram read");
    let nvram_written = pre.nvram() != &nvram[..];
    let wrote = nvram_written || lld.disk().stats().sectors_written > 0;
    let recovery = Recovery {
        observed,
        disk,
        nvram,
        nvram_written,
        wrote,
    };
    Ok((lld, recovery))
}

/// Renders the medium `lld` recovered from the crash image `pre` into
/// `post` and checks that the recovery grew the log by no more than the
/// NVRAM tail it materialized: one segment and the NVRAM invalidation, or
/// no segment.
fn grew(
    pre: &mut CrashImages,
    lld: &Lld<SimDisk>,
    post: &mut Vec<u8>,
    recovery: &Recovery,
    when: &str,
) -> Result<(), TestCaseError> {
    pre.with_medium_of(lld.disk(), |medium| {
        post.clear();
        post.extend_from_slice(medium);
    });
    let layout: Layout = *lld.layout();
    let bytes = |seg| {
        let at = layout.segment_base(seg) as usize * SECTOR_SIZE;
        at..at + layout.segment_bytes
    };
    let segments = (0..layout.segments)
        .filter(|&seg| pre.medium()[bytes(seg)] != post[bytes(seg)])
        .count();
    let applied = recovery.observed.stats.recovery_nvram_applied;
    prop_assert_eq!(
        segments,
        usize::from(applied),
        "{}: the recovery wrote segments beyond the NVRAM tail",
        when
    );
    prop_assert!(
        !applied || recovery.nvram_written,
        "{}: the recovery left the NVRAM tail valid",
        when
    );
    Ok(())
}
