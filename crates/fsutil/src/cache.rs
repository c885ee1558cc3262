//! A write-back LRU buffer cache.
//!
//! Both MINIX variants in the evaluation use "a static buffer cache of
//! 6,144 Kbyte" (paper §4.2); the FFS baseline uses the same structure with
//! a different size. Keys are store addresses; values are whole block
//! images (variable-sized, supporting the small-i-node block variant).
//!
//! Recency is a lazy queue of `(tick, addr)` pairs. A touch (`get`,
//! `get_mut`, insert) stamps a fresh tick on the entry as `last_used` and
//! pushes the pair on the back: O(1). The block's older pairs go stale and
//! stay; eviction pops from the front, skipping pairs whose entry is gone or
//! was touched since. Ticks only increase and each entry has one live pair,
//! so the first live pair is the entry with the smallest `last_used`: the
//! victim a scan of the whole cache would pick. A touch that finds the queue
//! longer than twice the entries first compacts it to its live pairs, which
//! bounds it on hit-only traffic and makes eviction amortised O(1).
//!
//! The entry map hashes addresses with [`AddrHasher`], a fixed
//! multiply-and-fold hash, not SipHash: the map is probed several times
//! per file-system call, and nothing iterates it in hash order except
//! [`take_dirty`](BufferCache::take_dirty), which sorts by address.

use std::collections::hash_map::Entry as Slot;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd 64-bit multiplier (2^64 / golden ratio).
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// A fixed hasher for `u32` block addresses. The key is multiplied into a
/// 128-bit product whose high half is folded into its low half, so every
/// key bit reaches the low bits the map takes its bucket index from; a
/// plain multiply would send all multiples of 4,096 to bucket 0. It has no
/// defence against crafted collisions, which is safe only because the keys
/// are addresses the stack allocates itself, never outside input.
#[derive(Debug, Default, Clone, Copy)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = self.0.rotate_left(32) ^ u64::from(n);
    }

    fn finish(&self) -> u64 {
        let p = u128::from(self.0) * u128::from(MIX);
        (p as u64) ^ ((p >> 64) as u64)
    }
}

/// Block address → cache entry.
type AddrMap<V> = HashMap<u32, V, BuildHasherDefault<AddrHasher>>;

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
    data: Vec<u8>,
    dirty: bool,
    last_used: u64,
}

/// The cache. Capacity is in bytes; entries are whole blocks.
#[derive(Debug)]
pub struct BufferCache {
    entries: AddrMap<Entry>,
    /// `(tick, addr)` per touch, oldest first; see the module doc.
    recency: VecDeque<(u64, u32)>,
    capacity_bytes: usize,
    used_bytes: usize,
    dirty_bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl BufferCache {
    /// Creates a cache holding at most `capacity_bytes` of block data.
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            entries: AddrMap::default(),
            recency: VecDeque::new(),
            capacity_bytes,
            used_bytes: 0,
            dirty_bytes: 0,
            tick: 0,
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

    /// Makes `addr` the most recently used block, if resident. Takes fields,
    /// not `self`, so that `get` can count a hit while holding the entry.
    fn touch<'a>(
        entries: &'a mut AddrMap<Entry>,
        recency: &mut VecDeque<(u64, u32)>,
        tick: &mut u64,
        addr: u32,
    ) -> Option<&'a mut Entry> {
        *tick += 1;
        if recency.len() > 2 * entries.len() {
            recency.retain(|&(t, a)| entries.get(&a).is_some_and(|e| e.last_used == t));
        }
        let e = entries.get_mut(&addr)?;
        e.last_used = *tick;
        recency.push_back((*tick, addr));
        Some(e)
    }

    /// Looks up a block, refreshing recency. Records a hit or miss.
    pub fn get(&mut self, addr: u32) -> Option<&[u8]> {
        match Self::touch(&mut self.entries, &mut self.recency, &mut self.tick, addr) {
            Some(e) => {
                self.hits += 1;
                Some(&e.data)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Whether a block is resident (no recency update, no stats).
    pub fn contains(&self, addr: u32) -> bool {
        self.entries.contains_key(&addr)
    }

    /// Reads a resident block without refreshing recency or counting a
    /// hit or miss.
    pub fn peek(&self, addr: u32) -> Option<&[u8]> {
        self.entries.get(&addr).map(|e| e.data.as_slice())
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
        let entry = Entry {
            data,
            dirty,
            last_used: 0,
        };
        if let Some(old) = self.entries.insert(addr, entry) {
            self.forget(&old);
        }
        Self::touch(&mut self.entries, &mut self.recency, &mut self.tick, addr);
        let mut evicted = Vec::new();
        // Never evicts the block just inserted: its pair is the newest.
        while self.used_bytes > self.capacity_bytes && self.entries.len() > 1 {
            let Some((tick, victim)) = self.recency.pop_front() else {
                break;
            };
            let e = match self.entries.entry(victim) {
                Slot::Occupied(o) if o.get().last_used == tick => o.remove(),
                _ => continue, // Stale pair.
            };
            self.forget(&e);
            if e.dirty {
                evicted.push(Evicted {
                    addr: victim,
                    data: e.data,
                });
            }
        }
        evicted
    }

    /// Takes a block that just left the cache off the byte counters.
    fn forget(&mut self, e: &Entry) {
        self.used_bytes -= e.data.len();
        self.dirty_bytes -= if e.dirty { e.data.len() } else { 0 };
    }

    /// Marks a resident block dirty (in-place mutation already applied via
    /// [`get_mut`](Self::get_mut)).
    pub fn mark_dirty(&mut self, addr: u32) {
        if let Some(e) = self.entries.get_mut(&addr).filter(|e| !e.dirty) {
            e.dirty = true;
            self.dirty_bytes += e.data.len();
        }
    }

    /// Mutable access to a resident block (refreshes recency).
    pub fn get_mut(&mut self, addr: u32) -> Option<&mut [u8]> {
        Self::touch(&mut self.entries, &mut self.recency, &mut self.tick, addr)
            .map(|e| e.data.as_mut_slice())
    }

    /// Removes a block without write-back (e.g. freed file blocks).
    pub fn discard(&mut self, addr: u32) {
        if let Some(e) = self.entries.remove(&addr) {
            self.forget(&e);
        }
    }

    /// Takes all dirty blocks (clearing their dirty bits), in address
    /// order, for a sync. Address order gives the store its best shot at
    /// sequential write-back.
    pub fn take_dirty(&mut self) -> Vec<Evicted> {
        let mut dirty: Vec<Evicted> = self
            .entries
            .iter_mut()
            .filter(|(_, e)| e.dirty)
            .map(|(a, e)| {
                e.dirty = false;
                Evicted {
                    addr: *a,
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
        self.entries.clear();
        self.recency.clear();
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
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    #[test]
    fn addr_hasher_spreads_strided_keys_over_low_bits() {
        let build = BuildHasherDefault::<AddrHasher>::default();
        for stride in [1u32, 8, 4096] {
            // The 2,048-bucket index of a 6 MB cache of 4 KB blocks.
            let buckets: HashSet<u64> = (0..4096u32)
                .map(|k| build.hash_one(k * stride) & 2047)
                .collect();
            assert!(
                buckets.len() >= 1024,
                "stride {stride}: {} of 2048 buckets",
                buckets.len()
            );
        }
    }

    #[test]
    fn addr_hasher_takes_any_bytes() {
        let mut h = AddrHasher::default();
        h.write(&[]);
        h.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
        let mut g = AddrHasher::default();
        g.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
        assert_eq!(h.finish(), g.finish());
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
    fn recency_queue_is_compacted_on_hits() {
        let mut c = BufferCache::new(1 << 20);
        for a in 0..4 {
            c.insert_clean(a, vec![0u8; 8]);
        }
        for _ in 0..100_000 {
            assert!(c.get(2).is_some());
            assert!(c.recency.len() <= 2 * c.entries.len() + 1);
        }
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
    }

    #[test]
    fn discard_forgets_recency() {
        let mut c = BufferCache::new(3000);
        c.insert_dirty(1, vec![0u8; 1000]);
        c.insert_clean(2, vec![0u8; 1000]);
        c.insert_clean(3, vec![0u8; 1000]);
        c.discard(1);
        assert_eq!(c.dirty_bytes(), 0);
        c.insert_clean(1, vec![0u8; 1000]);
        c.insert_clean(4, vec![0u8; 1000]);
        assert!(c.contains(1) && !c.contains(2) && c.contains(3));
    }
}
