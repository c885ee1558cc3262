//! The block-number map and the list table (paper Figure 2).
//!
//! The block-number map stores, for each logical block: its physical
//! address, its successor in its list, its length, and whether it is
//! compressed. The list table stores the first logical block of each list;
//! lists are singly linked through the successor fields, and the lists
//! themselves form a singly linked *list of lists*. Both tables live
//! entirely in main memory (§3.4 analyses the cost of that choice; the
//! `memory` module reproduces the analysis).
//!
//! [`apply`] is the one meaning of each summary record for these tables.
//! The live operations apply their records through it (`Lld::commit`)
//! before logging them, and the recovery sweep replays the log through it,
//! so what a record did at run time is what it does again at recovery.
//! Number allocation, space accounting and the owner of a moved sub-list
//! stay with the live operations; recovery derives owners by walking lists.

use ld_core::ListHints;

use crate::records::Record;

/// Sentinel segment id: the block's live copy is in the in-memory open
/// segment buffer (not yet durable).
pub const OPEN_SEG: u32 = u32::MAX;
/// Sentinel segment id: the block is allocated but has never been written.
pub const NO_SEG: u32 = u32::MAX - 1;
/// Owner sentinel for blocks reconstructed from a `WriteBlock`/`Link`
/// record before their `NewBlock` record was replayed.
pub const PROVISIONAL_LIST: u64 = u64::MAX;

/// One entry of the block-number map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEntry {
    /// Physical segment holding the live copy, or a sentinel
    /// ([`OPEN_SEG`], [`NO_SEG`]).
    pub seg: u32,
    /// Byte offset of the stored bytes within the segment's data region.
    pub offset: u32,
    /// Stored length (compressed length when `compressed`).
    pub stored_len: u32,
    /// Logical length as last written by the file system.
    pub logical_len: u32,
    /// Size class fixed at allocation (write length limit).
    pub size_class: u32,
    /// Whether the stored bytes are compressed.
    pub compressed: bool,
    /// Successor in the owning list (`None` = last).
    pub next: Option<u64>,
    /// Owning list.
    pub list: u64,
}

impl BlockEntry {
    /// A fresh entry for a just-allocated, never-written block.
    pub fn new(list: u64, size_class: u32) -> Self {
        Self {
            seg: NO_SEG,
            offset: 0,
            stored_len: 0,
            logical_len: 0,
            size_class,
            compressed: false,
            next: None,
            list,
        }
    }

    /// Whether the live copy is on disk (not in-memory, not unwritten).
    pub fn on_disk(&self) -> bool {
        self.seg != OPEN_SEG && self.seg != NO_SEG
    }
}

/// The block-number map: logical block number → [`BlockEntry`].
///
/// Block numbers index a dense vector; freed numbers are recycled from a
/// free stack (block numbers are cheap names, and reuse keeps the map — and
/// therefore the paper's 6-bytes-per-block memory bill — dense).
#[derive(Debug, Default)]
pub struct BlockMap {
    entries: Vec<Option<BlockEntry>>,
    free: Vec<u64>,
}

impl BlockMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of allocated blocks.
    pub fn allocated(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    /// Size of the dense index (high-water mark of block numbers).
    pub fn capacity_slots(&self) -> usize {
        self.entries.len()
    }

    /// Allocates a fresh block number.
    pub fn alloc(&mut self, list: u64, size_class: u32) -> u64 {
        let entry = BlockEntry::new(list, size_class);
        match self.free.pop() {
            Some(bid) => {
                debug_assert!(self.entries[bid as usize].is_none());
                self.entries[bid as usize] = Some(entry);
                bid
            }
            None => {
                self.entries.push(Some(entry));
                (self.entries.len() - 1) as u64
            }
        }
    }

    /// Installs an entry under a specific number (recovery replay).
    pub fn install(&mut self, bid: u64, entry: BlockEntry) {
        *self.slot(bid) = Some(entry);
    }

    /// The slot of `bid`, growing the dense index to reach it.
    fn slot(&mut self, bid: u64) -> &mut Option<BlockEntry> {
        let idx = bid as usize;
        if idx >= self.entries.len() {
            self.entries.resize(idx + 1, None);
        }
        &mut self.entries[idx]
    }

    /// Frees a block number for reuse. Returns the old entry.
    pub fn free(&mut self, bid: u64) -> Option<BlockEntry> {
        let e = self.entries.get_mut(bid as usize)?.take();
        if e.is_some() {
            self.free.push(bid);
        }
        e
    }

    /// Looks up a block.
    pub fn get(&self, bid: u64) -> Option<&BlockEntry> {
        self.entries.get(bid as usize)?.as_ref()
    }

    /// Looks up a block mutably.
    pub fn get_mut(&mut self, bid: u64) -> Option<&mut BlockEntry> {
        self.entries.get_mut(bid as usize)?.as_mut()
    }

    /// Iterates over `(bid, entry)` for all allocated blocks.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &BlockEntry)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|e| (i as u64, e)))
    }

    /// The blocks whose live copy is in each of `segs`, each in ascending
    /// block-number order, found in one pass over the map.
    pub fn live_blocks_in(&self, segs: &[u32]) -> Vec<Vec<u64>> {
        let mut out = vec![Vec::new(); segs.len()];
        let Some(&top) = segs.iter().max() else {
            return out;
        };
        debug_assert!(top < NO_SEG, "sentinels are not physical segments");
        // Segment id → index into `segs`; the sentinels fall off the end.
        let mut slot = vec![usize::MAX; top as usize + 1];
        for (i, &s) in segs.iter().enumerate().rev() {
            slot[s as usize] = i;
        }
        for (bid, e) in self.iter() {
            if let Some(&i) = slot.get(e.seg as usize) {
                if i != usize::MAX {
                    out[i].push(bid);
                }
            }
        }
        out
    }

    /// Rebuilds the free stack from the dense index (after recovery
    /// replay). Free numbers are pushed in descending order so that
    /// low numbers are reused first.
    pub fn rebuild_free_stack(&mut self) {
        self.free = self
            .entries
            .iter()
            .enumerate()
            .rev()
            .filter_map(|(i, e)| e.is_none().then_some(i as u64))
            .collect();
    }
}

/// The cleaner's clustering rank of a block: `(position of its list in the
/// list of lists, position within its list)`. [`UNRANKED`] sorts after
/// every ranked block.
pub type Rank = (u32, u32);

/// Rank of a block not reachable from the list of lists.
pub const UNRANKED: Rank = (u32::MAX, u32::MAX);

/// Memo of [`Rank`]s, so the cleaner does not re-walk a list from its
/// head for every victim.
///
/// Filled lazily: a list is walked the first time one of its blocks is
/// ranked, and at most once per memo. The ranks stay valid until the
/// list structure changes (a block or list is created, deleted or
/// moved); writes, seals, cleaning and swaps move data, not list order.
/// The owner drops the memo on every structural change.
#[derive(Debug)]
pub struct RankMemo {
    /// Position in the list of lists, by list id (`u32::MAX` = not on it).
    list_pos: Vec<u32>,
    /// Whether a list's blocks are in `block_rank` yet, by list id.
    walked: Vec<bool>,
    /// Rank by block number; [`UNRANKED`] until the block's list is walked.
    block_rank: Vec<Rank>,
}

impl RankMemo {
    /// An empty memo over the current tables: one walk of the list of
    /// lists, no list walked yet.
    pub fn new(map: &BlockMap, lists: &ListTable) -> Self {
        let mut list_pos = vec![u32::MAX; lists.entries.len()];
        for (i, lid) in lists.order().into_iter().enumerate() {
            list_pos[lid as usize] = i as u32;
        }
        Self {
            walked: vec![false; list_pos.len()],
            list_pos,
            block_rank: vec![UNRANKED; map.entries.len()],
        }
    }

    /// The rank of `bid`, walking its list first if this memo has not.
    pub fn rank(&mut self, map: &BlockMap, lists: &ListTable, bid: u64) -> Rank {
        let Some(lid) = map.get(bid).map(|e| e.list as usize) else {
            return UNRANKED;
        };
        let list_pos = self.list_pos.get(lid).copied().unwrap_or(u32::MAX);
        if list_pos != u32::MAX && !self.walked[lid] {
            self.walked[lid] = true;
            // Same cycle guard as `Lld::walk_list`.
            let limit = map.allocated() + 1;
            let mut cur = lists.get(lid as u64).and_then(|e| e.first);
            let mut pos = 0usize;
            while let Some(b) = cur {
                if let Some(r) = self.block_rank.get_mut(b as usize) {
                    *r = (list_pos, pos as u32);
                }
                pos += 1;
                if pos > limit {
                    debug_assert!(false, "cycle in list {lid}");
                    break;
                }
                cur = map.get(b).and_then(|e| e.next);
            }
        }
        self.block_rank
            .get(bid as usize)
            .copied()
            .unwrap_or(UNRANKED)
    }
}

/// One entry of the list table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListEntry {
    /// First block on the list (`None` = empty list).
    pub first: Option<u64>,
    /// Successor in the list of lists.
    pub next_list: Option<u64>,
    /// Hints given at `NewList`.
    pub hints: ListHints,
}

/// The list table plus the list of lists.
#[derive(Debug, Default)]
pub struct ListTable {
    entries: Vec<Option<ListEntry>>,
    free: Vec<u64>,
    /// First list in the list of lists.
    head: Option<u64>,
}

impl ListTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of allocated lists.
    pub fn allocated(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    /// Size of the dense index (high-water mark of list numbers).
    pub fn capacity_slots(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Allocates a new list after `pred` in the list of lists
    /// (`None` = front). Returns `None` if `pred` is not allocated.
    pub fn alloc(&mut self, pred: Option<u64>, hints: ListHints) -> Option<u64> {
        if let Some(p) = pred {
            self.get(p)?;
        }
        let lid = match self.free.pop() {
            Some(lid) => lid,
            None => {
                self.entries.push(None);
                (self.entries.len() - 1) as u64
            }
        };
        let next_list = self.splice_after(lid, pred);
        self.entries[lid as usize] = Some(ListEntry {
            first: None,
            next_list,
            hints,
        });
        Some(lid)
    }

    /// Installs a list under a specific id (recovery replay), inserting it
    /// after `pred` in the list of lists when `pred` still exists (a stale
    /// predecessor degrades to front insertion — order is a hint, not a
    /// correctness property).
    pub fn install(&mut self, lid: u64, pred: Option<u64>, hints: ListHints) {
        let idx = lid as usize;
        if idx >= self.entries.len() {
            self.entries.resize(idx + 1, None);
        }
        // If the list already exists (replayed twice), keep its first
        // pointer; otherwise create it empty.
        let first = self.entries[idx].map(|e| e.first).unwrap_or(None);
        // Remove from the order chain if present, then reinsert.
        if self.entries[idx].is_some() {
            self.unlink_from_order(lid);
        }
        let next_list = self.splice_after(lid, pred.filter(|&p| p != lid));
        self.entries[idx] = Some(ListEntry {
            first,
            next_list,
            hints,
        });
    }

    /// Points `pred` (the front for `None` or a list not allocated) at
    /// `lid` in the list of lists; returns the list `lid` must point at.
    fn splice_after(&mut self, lid: u64, pred: Option<u64>) -> Option<u64> {
        match pred.and_then(|p| self.get_mut(p)) {
            Some(pe) => pe.next_list.replace(lid),
            None => self.head.replace(lid),
        }
    }

    fn unlink_from_order(&mut self, lid: u64) {
        if self.head == Some(lid) {
            self.head = self.entries[lid as usize].and_then(|e| e.next_list);
            return;
        }
        let mut cur = self.head;
        while let Some(c) = cur {
            let next = self.entries[c as usize].and_then(|e| e.next_list);
            if next == Some(lid) {
                let target_next = self.entries[lid as usize].and_then(|e| e.next_list);
                if let Some(ce) = self.get_mut(c) {
                    ce.next_list = target_next;
                }
                return;
            }
            cur = next;
        }
    }

    /// Frees a list id. `pred_hint` names the predecessor in the list of
    /// lists; if absent or wrong, the chain is searched (paper Table 1).
    /// Returns the old entry.
    pub fn free(&mut self, lid: u64, pred_hint: Option<u64>) -> Option<ListEntry> {
        let entry = *self.entries.get(lid as usize)?.as_ref()?;
        // Fast path via the hint.
        match pred_hint
            .and_then(|p| self.get_mut(p))
            .filter(|pe| pe.next_list == Some(lid))
        {
            Some(pe) => pe.next_list = entry.next_list,
            None => self.unlink_from_order(lid),
        }
        self.entries[lid as usize] = None;
        self.free.push(lid);
        Some(entry)
    }

    /// Moves `lid` after `pred` in the list of lists, keeping its blocks
    /// and hints. Returns `false`, moving nothing, unless `lid` and `pred`
    /// are allocated and distinct.
    pub fn move_after(&mut self, lid: u64, pred: Option<u64>) -> bool {
        let Some(hints) = self.get(lid).map(|e| e.hints) else {
            return false;
        };
        if pred.is_some_and(|p| p == lid || self.get(p).is_none()) {
            return false;
        }
        self.install(lid, pred, hints);
        true
    }

    /// Looks up a list.
    pub fn get(&self, lid: u64) -> Option<&ListEntry> {
        self.entries.get(lid as usize)?.as_ref()
    }

    /// Looks up a list mutably.
    pub fn get_mut(&mut self, lid: u64) -> Option<&mut ListEntry> {
        self.entries.get_mut(lid as usize)?.as_mut()
    }

    /// The list of lists, front to back.
    pub fn order(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.allocated());
        let mut cur = self.head;
        while let Some(lid) = cur {
            out.push(lid);
            cur = self.entries[lid as usize].and_then(|e| e.next_list);
        }
        out
    }

    /// The predecessor of `lid` in the list of lists (`None` if `lid` is
    /// the head).
    pub fn order_pred(&self, lid: u64) -> Option<u64> {
        let mut cur = self.head;
        while let Some(c) = cur {
            let next = self.entries[c as usize].and_then(|e| e.next_list);
            if next == Some(lid) {
                return Some(c);
            }
            cur = next;
        }
        None
    }

    /// Iterates over `(lid, entry)` for all allocated lists.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &ListEntry)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|e| (i as u64, e)))
    }

    /// Rebuilds the free stack after recovery replay.
    pub fn rebuild_free_stack(&mut self) {
        self.free = self
            .entries
            .iter()
            .enumerate()
            .rev()
            .filter_map(|(i, e)| e.is_none().then_some(i as u64))
            .collect();
    }
}

/// Applies one summary record to the tables: what `rec` means, for the
/// live operation that logs it (at [`OPEN_SEG`]) and for the recovery
/// sweep that replays it (at `seg`, the segment whose summary held it).
///
/// Replay can meet a record about a block or list whose creating record it
/// has not seen: such a block gets the [`PROVISIONAL_LIST`] owner, such a
/// list default hints. A replayed `DeleteBlock`/`DeleteList` frees numbers
/// onto the free stacks, which the sweep rebuilds afterwards. `EndAru` and
/// the medium-health records change neither table.
pub(crate) fn apply(map: &mut BlockMap, lists: &mut ListTable, seg: u32, rec: &Record) {
    match *rec {
        Record::NewBlock {
            bid,
            lid,
            size_class,
        } => match map.get_mut(bid) {
            // A cleaner re-log arriving after newer WriteBlock state must
            // not clobber the physical fields.
            Some(e) => {
                e.list = lid;
                e.size_class = size_class;
            }
            None => map.install(bid, BlockEntry::new(lid, size_class)),
        },
        Record::DeleteBlock { bid } => {
            map.free(bid);
        }
        Record::WriteBlock {
            bid,
            offset,
            stored_len,
            logical_len,
            compressed,
        }
        | Record::Locate {
            bid,
            offset,
            stored_len,
            logical_len,
            compressed,
            ..
        } => {
            let seg = match *rec {
                Record::Locate { seg, .. } => seg,
                _ => seg,
            };
            let e = ensure_block(map, bid);
            *e = BlockEntry {
                seg,
                offset,
                stored_len,
                logical_len,
                compressed,
                ..*e
            };
        }
        Record::Link { bid, next } => ensure_block(map, bid).next = next,
        Record::ListHead { lid, first } => {
            if lists.get(lid).is_none() {
                lists.install(lid, None, ListHints::default());
            }
            if let Some(l) = lists.get_mut(lid) {
                l.first = first;
            }
        }
        Record::NewList { lid, pred, hints } => lists.install(lid, pred, hints),
        Record::DeleteList { lid } => {
            // Free the list's blocks as they are linked at this point of
            // the log (matching the runtime semantics at that timestamp).
            let mut cur = lists.get(lid).and_then(|e| e.first);
            let mut guard = map.capacity_slots() + 1;
            while let Some(b) = cur {
                cur = map.get(b).and_then(|e| e.next);
                map.free(b);
                guard -= 1;
                if guard == 0 {
                    break;
                }
            }
            lists.free(lid, None);
        }
        Record::ListOrder { lid, pred } => {
            if lists.get(lid).is_some() {
                lists.move_after(lid, pred.filter(|&p| lists.get(p).is_some()));
            } else {
                lists.install(lid, pred, ListHints::default());
            }
        }
        Record::Swap { a, b } => {
            // Exchange the physical fields; skip unless both blocks exist
            // at this point of the log.
            if let (Some(&ea), Some(&eb)) = (map.get(a), map.get(b)) {
                for (bid, copy) in [(a, eb), (b, ea)] {
                    if let Some(e) = map.get_mut(bid) {
                        *e = BlockEntry {
                            size_class: e.size_class,
                            next: e.next,
                            list: e.list,
                            ..copy
                        };
                    }
                }
            }
        }
        Record::EndAru | Record::RetireSector { .. } | Record::Quarantine { .. } => {}
    }
}

/// The entry of `bid`, installed with a provisional owner when replay has
/// not met the block's `NewBlock` record yet.
fn ensure_block(map: &mut BlockMap, bid: u64) -> &mut BlockEntry {
    map.slot(bid)
        .get_or_insert(BlockEntry::new(PROVISIONAL_LIST, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_numbers_are_recycled_lowest_first_after_rebuild() {
        let mut m = BlockMap::new();
        let a = m.alloc(0, 4096);
        let b = m.alloc(0, 4096);
        let c = m.alloc(0, 4096);
        assert_eq!((a, b, c), (0, 1, 2));
        m.free(a);
        m.free(c);
        m.rebuild_free_stack();
        assert_eq!(m.alloc(0, 64), a, "lowest free number reused first");
        assert_eq!(m.allocated(), 2);
    }

    #[test]
    fn live_blocks_are_gathered_per_segment_in_one_pass() {
        let mut m = BlockMap::new();
        for seg in [7, 3, OPEN_SEG, 7, NO_SEG, 5, 3] {
            let bid = m.alloc(0, 4096);
            m.get_mut(bid).unwrap().seg = seg;
        }
        assert_eq!(
            m.live_blocks_in(&[3, 7, 9]),
            vec![vec![1, 6], vec![0, 3], vec![]]
        );
        assert!(m.live_blocks_in(&[]).is_empty());
    }

    #[test]
    fn freeing_twice_is_harmless() {
        let mut m = BlockMap::new();
        let a = m.alloc(0, 4096);
        assert!(m.free(a).is_some());
        assert!(m.free(a).is_none());
        assert_eq!(m.allocated(), 0);
    }

    #[test]
    fn list_of_lists_order_and_move() {
        let mut t = ListTable::new();
        let a = t.alloc(None, ListHints::default()).unwrap();
        let b = t.alloc(Some(a), ListHints::default()).unwrap();
        let c = t.alloc(Some(a), ListHints::default()).unwrap();
        assert_eq!(t.order(), vec![a, c, b]);
        assert!(t.move_after(b, None));
        assert_eq!(t.order(), vec![b, a, c]);
        assert!(t.move_after(b, Some(c)));
        assert_eq!(t.order(), vec![a, c, b]);
        assert_eq!(t.order_pred(c), Some(a));
        assert_eq!(t.order_pred(a), None);
    }

    #[test]
    fn free_list_uses_hint_or_scan() {
        let mut t = ListTable::new();
        let a = t.alloc(None, ListHints::default()).unwrap();
        let b = t.alloc(Some(a), ListHints::default()).unwrap();
        let c = t.alloc(Some(b), ListHints::default()).unwrap();
        // Wrong hint still works via scan.
        t.free(b, Some(c)).unwrap();
        assert_eq!(t.order(), vec![a, c]);
        // Correct hint.
        t.free(c, Some(a)).unwrap();
        assert_eq!(t.order(), vec![a]);
        // Head removal with no hint.
        t.free(a, None).unwrap();
        assert!(t.order().is_empty());
        assert_eq!(t.allocated(), 0);
    }

    #[test]
    fn alloc_with_dead_pred_fails() {
        let mut t = ListTable::new();
        let a = t.alloc(None, ListHints::default()).unwrap();
        t.free(a, None);
        assert_eq!(t.alloc(Some(a), ListHints::default()), None);
    }

    #[test]
    fn install_is_idempotent_and_preserves_first() {
        let mut t = ListTable::new();
        t.install(5, None, ListHints::default());
        t.get_mut(5).unwrap().first = Some(99);
        t.install(5, None, ListHints::compressed());
        assert_eq!(t.get(5).unwrap().first, Some(99));
        assert!(t.get(5).unwrap().hints.compress);
        assert_eq!(t.order(), vec![5]);
    }

    #[test]
    fn block_entry_tracks_disk_residence() {
        let e = BlockEntry::new(3, 4096);
        assert!(!e.on_disk());
        let mut e2 = e;
        e2.seg = 7;
        assert!(e2.on_disk());
        let mut e3 = e;
        e3.seg = OPEN_SEG;
        assert!(!e3.on_disk());
    }
}
