//! A write-back LRU buffer cache.
//!
//! Both MINIX variants in the evaluation use "a static buffer cache of
//! 6,144 Kbyte" (paper §4.2); the FFS baseline uses the same structure with
//! a different size. Keys are store addresses; values are whole block
//! images (variable-sized, supporting the small-i-node block variant).
//!
//! Entries live in a slab, a `Vec` with one element per resident block, and
//! are chained into a doubly linked recency list through slab indices: the
//! head is the most recently used block, the tail the least. A slot table
//! indexed by address holds each resident block's slab index, so a lookup
//! is one array load. A touch (`get`, `get_mut`, insert) unlinks the entry
//! and relinks it at the head; eviction takes the tail. Both are O(1) and
//! exact: the tail is always the block a scan for the oldest touch would
//! pick. A removed entry's place in the slab is filled by the last entry,
//! so the slab never holds more than the resident blocks.
//!
//! Store addresses are small and dense (the stack allocates them from
//! zero), so the table is a plain `Vec<u32>`. It grows on insert only, at
//! least doubling, so it is never more than twice the largest address
//! ever cached: under 1 MB for the 100 K blocks of the paper's 400 MB disk.
//!
//! The buffers of images that leave without a write-back — clean
//! evictions, discards, and images an insert replaces — go to a small pool
//! of spares, at most [`SPARE_MAX`], and [`BufferCache::spare`] and
//! [`BufferCache::spare_copy`] hand them out for the next image the caller
//! fills: a miss reads into a recycled buffer instead of a freshly zeroed
//! one. The pool changes no counter and no recency: it holds only buffers
//! no entry owns.

/// No entry: the end of the recency list, or an address with no block.
const NIL: u32 = u32::MAX;

/// The most spare buffers the cache keeps.
pub const SPARE_MAX: usize = 16;

/// Eviction victim handed back to the caller for write-back.
#[derive(Debug, PartialEq, Eq)]
pub struct Evicted {
    /// Store address of the evicted block.
    pub addr: u32,
    /// Block image (only returned when dirty; clean evictions are silent).
    pub data: Vec<u8>,
}

#[derive(Debug)]
struct Entry {
    addr: u32,
    data: Vec<u8>,
    dirty: bool,
    /// The next more recently used entry, or `NIL` at the head.
    prev: u32,
    /// The next less recently used entry, or `NIL` at the tail.
    next: u32,
}

/// The cache. Capacity is in bytes; entries are whole blocks.
#[derive(Debug)]
pub struct BufferCache {
    /// The resident blocks, in no particular order.
    slab: Vec<Entry>,
    /// Slab index of the block at each address, or `NIL`.
    slots: Vec<u32>,
    /// Most recently used entry.
    head: u32,
    /// Least recently used entry: the next victim.
    tail: u32,
    /// Buffers no entry owns, for reuse: at most [`SPARE_MAX`].
    spare: Vec<Vec<u8>>,
    capacity_bytes: usize,
    used_bytes: usize,
    dirty_bytes: usize,
    hits: u64,
    misses: u64,
}

impl BufferCache {
    /// Creates a cache holding at most `capacity_bytes` of block data.
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            slab: Vec::new(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            spare: Vec::new(),
            capacity_bytes,
            used_bytes: 0,
            dirty_bytes: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Bytes of dirty (not yet written back) data.
    pub fn dirty_bytes(&self) -> usize {
        self.dirty_bytes
    }

    /// A buffer of `len` bytes for an image the caller overwrites in full
    /// before inserting it: a spare of that length when there is one (its
    /// bytes are left over from the image it held), else a zeroed one.
    pub fn spare(&mut self, len: usize) -> Vec<u8> {
        self.take_spare(len).unwrap_or_else(|| vec![0; len])
    }

    /// How many spare buffers the cache holds.
    pub fn spares(&self) -> usize {
        self.spare.len()
    }

    /// A copy of `data` for an image to insert: in a spare of its length
    /// when there is one, else in a fresh buffer.
    pub fn spare_copy(&mut self, data: &[u8]) -> Vec<u8> {
        match self.take_spare(data.len()) {
            Some(mut buf) => {
                buf.copy_from_slice(data);
                buf
            }
            None => data.to_vec(),
        }
    }

    /// Takes a spare of `len` bytes out of the pool, if there is one.
    fn take_spare(&mut self, len: usize) -> Option<Vec<u8>> {
        let i = self.spare.iter().rposition(|b| b.len() == len)?;
        Some(self.spare.swap_remove(i))
    }

    /// Keeps a buffer that left the cache as a spare, while the pool has
    /// room.
    fn recycle(&mut self, buf: Vec<u8>) {
        if self.spare.len() < SPARE_MAX {
            self.spare.push(buf);
        }
    }

    /// The slab index of resident block `addr`.
    fn find(&self, addr: u32) -> Option<usize> {
        match self.slots.get(addr as usize) {
            Some(&i) if i != NIL => Some(i as usize),
            _ => None,
        }
    }

    /// Takes entry `i` out of the recency list.
    fn unlink(&mut self, i: usize) {
        let Entry { prev, next, .. } = self.slab[i];
        match prev {
            NIL => self.head = next,
            p => self.slab[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n as usize].prev = prev,
        }
    }

    /// Links unlinked entry `i` in at the head.
    fn push_front(&mut self, i: usize) {
        let e = &mut self.slab[i];
        e.prev = NIL;
        e.next = self.head;
        match self.head {
            NIL => self.tail = i as u32,
            h => self.slab[h as usize].prev = i as u32,
        }
        self.head = i as u32;
    }

    /// Makes resident block `addr` the most recently used; its slab index.
    fn touch(&mut self, addr: u32) -> Option<usize> {
        let i = self.find(addr)?;
        if self.head != i as u32 {
            self.unlink(i);
            self.push_front(i);
        }
        Some(i)
    }

    /// Looks up a block, refreshing recency. Records a hit or miss.
    pub fn get(&mut self, addr: u32) -> Option<&[u8]> {
        match self.touch(addr) {
            Some(i) => {
                self.hits += 1;
                Some(&self.slab[i].data)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// The most recently used block: the one the last `get`, `get_mut` or
    /// insert found or inserted.
    pub fn mru(&self) -> Option<&[u8]> {
        self.slab.get(self.head as usize).map(|e| e.data.as_slice())
    }

    /// Counts a hit for a touch of a resident block that the caller leaves
    /// out. Only exact when a later touch of the same block comes before
    /// any insert and before the caller stops touching blocks: then the
    /// recency order at every eviction, and at the end, is the same as
    /// with the touch.
    pub fn count_hit(&mut self) {
        self.hits += 1;
    }

    /// Whether a block is resident (no recency update, no stats).
    pub fn contains(&self, addr: u32) -> bool {
        self.find(addr).is_some()
    }

    /// Reads a resident block without refreshing recency or counting a
    /// hit or miss.
    pub fn peek(&self, addr: u32) -> Option<&[u8]> {
        self.find(addr).map(|i| self.slab[i].data.as_slice())
    }

    /// Inserts a clean block (after a read from the store). Returns dirty
    /// evictees that must be written back.
    pub fn insert_clean(&mut self, addr: u32, data: Vec<u8>) -> Vec<Evicted> {
        self.insert(addr, data, false)
    }

    /// Inserts or updates a block and marks it dirty. Returns dirty
    /// evictees that must be written back.
    pub fn insert_dirty(&mut self, addr: u32, data: Vec<u8>) -> Vec<Evicted> {
        self.insert(addr, data, true)
    }

    fn insert(&mut self, addr: u32, data: Vec<u8>, dirty: bool) -> Vec<Evicted> {
        self.used_bytes += data.len();
        self.dirty_bytes += if dirty { data.len() } else { 0 };
        match self.touch(addr) {
            Some(i) => {
                let e = &mut self.slab[i];
                let old = std::mem::replace(&mut e.data, data);
                let was_dirty = std::mem::replace(&mut e.dirty, dirty);
                self.forget(&old, was_dirty);
                self.recycle(old);
            }
            None => {
                let a = addr as usize;
                if a >= self.slots.len() {
                    let len = (a + 1).max(2 * self.slots.len());
                    self.slots.resize(len, NIL);
                }
                let i = self.slab.len();
                self.slots[a] = i as u32;
                self.slab.push(Entry {
                    addr,
                    data,
                    dirty,
                    prev: NIL,
                    next: NIL,
                });
                self.push_front(i);
            }
        }
        let mut evicted = Vec::new();
        // Never evicts the block just inserted: it is the head.
        while self.used_bytes > self.capacity_bytes && self.slab.len() > 1 {
            let e = self.remove(self.tail as usize);
            if e.dirty {
                evicted.push(Evicted {
                    addr: e.addr,
                    data: e.data,
                });
            } else {
                self.recycle(e.data);
            }
        }
        evicted
    }

    /// Takes a block's bytes off the counters as it leaves the cache.
    fn forget(&mut self, data: &[u8], dirty: bool) {
        self.used_bytes -= data.len();
        self.dirty_bytes -= if dirty { data.len() } else { 0 };
    }

    /// Takes entry `i` out of the list, the slot table and the slab, and
    /// moves the last entry into its place.
    fn remove(&mut self, i: usize) -> Entry {
        self.unlink(i);
        let e = self.slab.swap_remove(i);
        self.slots[e.addr as usize] = NIL;
        if let Some(&Entry {
            addr, prev, next, ..
        }) = self.slab.get(i)
        {
            let to = i as u32;
            self.slots[addr as usize] = to;
            match prev {
                NIL => self.head = to,
                p => self.slab[p as usize].next = to,
            }
            match next {
                NIL => self.tail = to,
                n => self.slab[n as usize].prev = to,
            }
        }
        self.forget(&e.data, e.dirty);
        e
    }

    /// Marks a resident block dirty (in-place mutation already applied via
    /// [`get_mut`](Self::get_mut)).
    pub fn mark_dirty(&mut self, addr: u32) {
        if let Some(i) = self.find(addr).filter(|&i| !self.slab[i].dirty) {
            self.slab[i].dirty = true;
            self.dirty_bytes += self.slab[i].data.len();
        }
    }

    /// Mutable access to a resident block (refreshes recency).
    pub fn get_mut(&mut self, addr: u32) -> Option<&mut [u8]> {
        self.touch(addr).map(|i| self.slab[i].data.as_mut_slice())
    }

    /// Removes a block without write-back (e.g. freed file blocks).
    pub fn discard(&mut self, addr: u32) {
        if let Some(i) = self.find(addr) {
            let e = self.remove(i);
            self.recycle(e.data);
        }
    }

    /// Takes all dirty blocks (clearing their dirty bits), in address
    /// order, for a sync. Address order gives the store its best shot at
    /// sequential write-back.
    pub fn take_dirty(&mut self) -> Vec<Evicted> {
        let mut dirty: Vec<Evicted> = self
            .slab
            .iter_mut()
            .filter(|e| e.dirty)
            .map(|e| {
                e.dirty = false;
                Evicted {
                    addr: e.addr,
                    data: e.data.clone(),
                }
            })
            .collect();
        dirty.sort_by_key(|e| e.addr);
        self.dirty_bytes = 0;
        dirty
    }

    /// Drops every entry. Dirty blocks are returned for write-back first —
    /// used by the benchmarks to defeat the cache between phases.
    pub fn drop_all(&mut self) -> Vec<Evicted> {
        let dirty = self.take_dirty();
        for e in self.slab.drain(..) {
            self.slots[e.addr as usize] = NIL;
        }
        self.head = NIL;
        self.tail = NIL;
        self.used_bytes = 0;
        dirty
    }

    /// Resets the hit/miss counters.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks the list against the slab and the slot table: it runs from
    /// head to tail through every entry once, with matching back links.
    fn assert_linked(c: &BufferCache) {
        let mut seen = 0;
        let (mut prev, mut cur) = (NIL, c.head);
        while cur != NIL {
            let e = &c.slab[cur as usize];
            assert_eq!(e.prev, prev, "back link of {}", e.addr);
            assert_eq!(c.slots[e.addr as usize], cur, "slot of {}", e.addr);
            (prev, cur) = (cur, e.next);
            seen += 1;
        }
        assert_eq!(c.tail, prev);
        assert_eq!(seen, c.slab.len());
        assert_eq!(c.slots.iter().filter(|&&i| i != NIL).count(), seen);
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut c = BufferCache::new(1 << 20);
        assert!(c.get(5).is_none());
        c.insert_clean(5, vec![1, 2, 3]);
        assert_eq!(c.get(5), Some(&[1u8, 2, 3][..]));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn peek_leaves_recency_and_counters_alone() {
        let mut c = BufferCache::new(2000);
        c.insert_clean(1, vec![1u8; 1000]);
        c.insert_clean(2, vec![2u8; 1000]);
        assert_eq!(c.peek(1), Some(&[1u8; 1000][..]));
        assert_eq!(c.peek(3), None);
        assert_eq!(c.stats(), (0, 0));
        // Block 1 is still the LRU: peeking did not refresh it.
        c.insert_clean(3, vec![3u8; 1000]);
        assert!(!c.contains(1) && c.contains(2));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = BufferCache::new(3000);
        c.insert_clean(1, vec![0u8; 1000]);
        c.insert_clean(2, vec![0u8; 1000]);
        c.insert_clean(3, vec![0u8; 1000]);
        // Touch 1 so 2 is the LRU.
        c.get(1);
        let ev = c.insert_clean(4, vec![0u8; 1000]);
        assert!(ev.is_empty(), "clean eviction is silent");
        assert!(c.contains(1) && !c.contains(2));
        assert_linked(&c);
    }

    #[test]
    fn dirty_eviction_returns_block_for_writeback() {
        let mut c = BufferCache::new(2000);
        c.insert_dirty(1, vec![7u8; 1000]);
        c.insert_clean(2, vec![0u8; 1000]);
        let ev = c.insert_clean(3, vec![0u8; 1000]);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].addr, 1);
        assert_eq!(ev[0].data, vec![7u8; 1000]);
    }

    #[test]
    fn take_dirty_clears_flags_and_sorts() {
        let mut c = BufferCache::new(1 << 20);
        c.insert_dirty(9, vec![9]);
        c.insert_dirty(3, vec![3]);
        c.insert_clean(5, vec![5]);
        let d = c.take_dirty();
        assert_eq!(d.iter().map(|e| e.addr).collect::<Vec<_>>(), vec![3, 9]);
        assert!(c.take_dirty().is_empty(), "dirty bits cleared");
    }

    #[test]
    fn drop_all_returns_dirty_then_empties() {
        let mut c = BufferCache::new(1 << 20);
        c.insert_dirty(1, vec![1]);
        c.insert_clean(2, vec![2]);
        let d = c.drop_all();
        assert_eq!(d.len(), 1);
        assert!(!c.contains(1) && !c.contains(2));
        assert_eq!(c.used_bytes(), 0);
        assert_eq!(c.mru(), None);
        assert_linked(&c);
    }

    #[test]
    fn update_replaces_without_leaking_bytes() {
        let mut c = BufferCache::new(1 << 20);
        c.insert_clean(1, vec![0u8; 100]);
        c.insert_dirty(1, vec![0u8; 50]);
        assert_eq!(c.used_bytes(), 50);
    }

    #[test]
    fn get_mut_then_mark_dirty_is_written_back() {
        let mut c = BufferCache::new(1 << 20);
        c.insert_clean(1, vec![0u8; 4]);
        c.get_mut(1).unwrap()[0] = 0xFF;
        c.mark_dirty(1);
        let d = c.take_dirty();
        assert_eq!(d[0].data[0], 0xFF);
    }

    #[test]
    fn hits_leave_one_slab_entry_per_resident_block() {
        let mut c = BufferCache::new(1 << 20);
        for a in 0..4 {
            c.insert_clean(a * 1000, vec![0u8; 8]);
        }
        let slots = c.slots.len();
        for k in 0..100_000u32 {
            assert!(c.get((k % 4) * 1000).is_some());
            assert_eq!(c.slab.len(), 4);
        }
        assert_eq!(c.slots.len(), slots, "hits never grow the slot table");
        assert_linked(&c);
    }

    #[test]
    fn unknown_addresses_miss_without_growing_the_table() {
        let mut c = BufferCache::new(1 << 20);
        c.insert_clean(7, vec![1]);
        let slots = c.slots.len();
        for addr in [u32::MAX, u32::MAX - 1, 8, 1 << 20] {
            assert!(c.get(addr).is_none());
            assert!(c.peek(addr).is_none());
            assert!(!c.contains(addr));
            assert!(c.get_mut(addr).is_none());
        }
        assert_eq!(c.stats(), (0, 4));
        assert_eq!(c.slots.len(), slots);
        assert_eq!(c.mru(), Some(&[1u8][..]));
    }

    #[test]
    fn mru_is_the_block_last_found_or_inserted() {
        let mut c = BufferCache::new(1 << 20);
        c.insert_clean(1, vec![1]);
        c.insert_clean(2, vec![2]);
        assert_eq!(c.mru(), Some(&[2u8][..]));
        c.get(1);
        assert_eq!(c.mru(), Some(&[1u8][..]));
        c.get(9);
        c.peek(2);
        assert_eq!(c.mru(), Some(&[1u8][..]), "a miss or a peek moves nothing");
        c.discard(1);
        assert_eq!(c.mru(), Some(&[2u8][..]));
    }

    #[test]
    fn reinserting_the_lru_block_makes_it_most_recent() {
        let mut c = BufferCache::new(3000);
        c.insert_clean(1, vec![0u8; 1000]);
        c.insert_clean(2, vec![0u8; 1000]);
        c.insert_clean(3, vec![0u8; 1000]);
        c.insert_dirty(1, vec![1u8; 1000]);
        let ev = c.insert_clean(4, vec![0u8; 1000]);
        assert!(ev.is_empty());
        assert!(c.contains(1) && !c.contains(2) && c.contains(3));
        assert_eq!(c.dirty_bytes(), 1000);
        assert_linked(&c);
    }

    #[test]
    fn discard_forgets_recency() {
        let mut c = BufferCache::new(3000);
        c.insert_dirty(1, vec![0u8; 1000]);
        c.insert_clean(2, vec![0u8; 1000]);
        c.insert_clean(3, vec![0u8; 1000]);
        c.discard(1);
        assert_eq!(c.dirty_bytes(), 0);
        assert_linked(&c);
        c.insert_clean(1, vec![0u8; 1000]);
        c.insert_clean(4, vec![0u8; 1000]);
        assert!(c.contains(1) && !c.contains(2) && c.contains(3));
        assert_linked(&c);
    }

    #[test]
    fn removal_moves_the_last_entry_and_keeps_the_list() {
        let mut c = BufferCache::new(1 << 20);
        for a in [10, 20, 30, 40, 50] {
            c.insert_clean(a, vec![a as u8]);
        }
        c.get(10);
        // Remove the head, the tail, a middle entry and the slab's last.
        for a in [10, 20, 40, 50] {
            c.discard(a);
            assert_linked(&c);
        }
        assert_eq!(c.slab.len(), 1);
        assert_eq!(c.mru(), Some(&[30u8][..]));
        c.discard(30);
        assert_linked(&c);
        assert_eq!((c.head, c.tail, c.used_bytes()), (NIL, NIL, 0));
    }
}
