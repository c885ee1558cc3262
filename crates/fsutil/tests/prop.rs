//! Property tests: the buffer cache against two models, and the bitmap
//! allocator against the bit-at-a-time search it replaced.
//!
//! The first cache model is a plain map plus a "backing store" map; the
//! invariant is that (cache ∪ write-backs ∪ store) always reproduces every
//! written block, and that capacity is respected. The second is a
//! reference LRU that picks each victim by scanning every entry for the
//! smallest `last_used`; the cache must evict the same blocks in the same
//! order. Most addresses are drawn from a few dozen, so blocks are touched
//! again; the rest reach up to 2^20, so the cache's address-indexed slot
//! table grows mid-run and is reused after `discard` and `drop_all`. In
//! that test every inserted image is built in a buffer from the cache's
//! spare pool (`spare_copy` for dirty inserts, `spare` then a copy for
//! clean ones), so the pool is in play throughout, and a `Spare` op
//! scribbles over a spare buffer: no resident block may change, and the
//! pool stays bounded.

use fsutil::{Bitmap, BufferCache, Evicted, SPARE_MAX};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// Addresses most ops draw from.
const ADDRS: u32 = 24;
/// Bound of the wide addresses.
const WIDE: u32 = 1 << 20;

#[derive(Debug, Clone)]
enum Op {
    WriteDirty { addr: u32, val: u8, len: u8 },
    InsertClean { addr: u32, val: u8, len: u8 },
    Get { addr: u32 },
    Peek { addr: u32 },
    GetMutDirty { addr: u32, val: u8 },
    Contains { addr: u32 },
    Discard { addr: u32 },
    TakeDirty,
    DropAll,
    Spare { len: u8 },
}

/// A block address: mostly one of a few dozen, sometimes one of eight far
/// apart below [`WIDE`] (which recur), sometimes any below it.
fn addr() -> impl Strategy<Value = u32> {
    prop_oneof![
        8 => 0..ADDRS,
        1 => (1u32..=8).prop_map(|k| k * (WIDE / 8) - 1),
        1 => 0..WIDE,
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (addr(), any::<u8>(), 1u8..32).prop_map(|(addr, val, len)| Op::WriteDirty { addr, val, len }),
        3 => (addr(), any::<u8>(), 1u8..32).prop_map(|(addr, val, len)| Op::InsertClean { addr, val, len }),
        5 => addr().prop_map(|addr| Op::Get { addr }),
        2 => addr().prop_map(|addr| Op::Peek { addr }),
        2 => (addr(), any::<u8>()).prop_map(|(addr, val)| Op::GetMutDirty { addr, val }),
        1 => addr().prop_map(|addr| Op::Contains { addr }),
        1 => addr().prop_map(|addr| Op::Discard { addr }),
        1 => Just(Op::TakeDirty),
        1 => Just(Op::DropAll),
        1 => (1u8..32).prop_map(|len| Op::Spare { len }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cache_never_loses_dirty_data(ops in proptest::collection::vec(op(), 1..100)) {
        let mut cache = BufferCache::new(256); // Tiny: constant eviction.
        // What the "disk" would hold after write-backs.
        let mut store: HashMap<u32, Vec<u8>> = HashMap::new();
        // The newest written value per address (what reads must observe
        // via cache-or-store).
        let mut truth: HashMap<u32, Vec<u8>> = HashMap::new();
        // Addresses whose newest value is allowed to be missing from the
        // store (discarded while dirty).
        let mut discarded: std::collections::HashSet<u32> = std::collections::HashSet::new();

        for op in ops {
            match op {
                Op::WriteDirty { addr, val, len } => {
                    let data = vec![val; len as usize];
                    for ev in cache.insert_dirty(addr, data.clone()) {
                        store.insert(ev.addr, ev.data);
                    }
                    truth.insert(addr, data);
                    discarded.remove(&addr);
                }
                Op::InsertClean { addr, val, len } => {
                    let data = vec![val; len as usize];
                    // A clean insert models a read from the store; only
                    // valid if it matches the store's content, so update
                    // both consistently.
                    for ev in cache.insert_clean(addr, data.clone()) {
                        store.insert(ev.addr, ev.data);
                    }
                    store.insert(addr, data.clone());
                    truth.insert(addr, data);
                    discarded.remove(&addr);
                }
                Op::Get { addr } => {
                    if let Some(data) = cache.get(addr) {
                        prop_assert_eq!(
                            data,
                            truth.get(&addr).map(Vec::as_slice).unwrap_or(&[]),
                            "cache returned stale data for {}", addr
                        );
                    }
                }
                Op::Peek { addr } => {
                    if let Some(data) = cache.peek(addr) {
                        prop_assert_eq!(
                            data,
                            truth.get(&addr).map(Vec::as_slice).unwrap_or(&[]),
                            "peek returned stale data for {}", addr
                        );
                    }
                }
                Op::GetMutDirty { addr, val } => {
                    if let Some(data) = cache.get_mut(addr) {
                        data[0] = val;
                        cache.mark_dirty(addr);
                        if let Some(t) = truth.get_mut(&addr) {
                            t[0] = val;
                        }
                    }
                }
                // Residency and the pool are checked by
                // `cache_matches_reference_lru`.
                Op::Contains { .. } | Op::Spare { .. } => {}
                Op::Discard { addr } => {
                    cache.discard(addr);
                    discarded.insert(addr);
                }
                Op::TakeDirty => {
                    for ev in cache.take_dirty() {
                        store.insert(ev.addr, ev.data);
                    }
                }
                Op::DropAll => {
                    for ev in cache.drop_all() {
                        store.insert(ev.addr, ev.data);
                    }
                }
            }
            prop_assert!(cache.used_bytes() <= 256 + 32, "capacity respected");
        }

        // Flush everything; now the store must hold the newest value of
        // every non-discarded address.
        for ev in cache.drop_all() {
            store.insert(ev.addr, ev.data);
        }
        for (addr, data) in &truth {
            if discarded.contains(addr) {
                continue;
            }
            prop_assert_eq!(
                store.get(addr),
                Some(data),
                "store lost the newest value of {}", addr
            );
        }
    }
}

/// The LRU policy by definition: every touch stamps a fresh tick, and the
/// victim is the entry with the smallest one other than the block just
/// inserted, found by scanning them all.
struct ReferenceLru {
    /// addr → (data, dirty, last_used).
    entries: HashMap<u32, (Vec<u8>, bool, u64)>,
    capacity_bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl ReferenceLru {
    fn new(capacity_bytes: usize) -> Self {
        Self {
            entries: HashMap::new(),
            capacity_bytes,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn used_bytes(&self) -> usize {
        self.entries.values().map(|e| e.0.len()).sum()
    }

    fn dirty_bytes(&self) -> usize {
        self.entries
            .values()
            .filter(|e| e.1)
            .map(|e| e.0.len())
            .sum()
    }

    fn touch(&mut self, addr: u32) -> Option<&mut (Vec<u8>, bool, u64)> {
        self.tick += 1;
        let e = self.entries.get_mut(&addr)?;
        e.2 = self.tick;
        Some(e)
    }

    fn get(&mut self, addr: u32) -> Option<Vec<u8>> {
        let data = self.touch(addr).map(|e| e.0.clone());
        match data {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        data
    }

    fn insert(&mut self, addr: u32, data: Vec<u8>, dirty: bool) -> Vec<Evicted> {
        self.entries.insert(addr, (data, dirty, 0));
        self.touch(addr);
        let mut evicted = Vec::new();
        while self.used_bytes() > self.capacity_bytes && self.entries.len() > 1 {
            let victim = *self
                .entries
                .iter()
                .filter(|(a, _)| **a != addr)
                .min_by_key(|(_, e)| e.2)
                .map(|(a, _)| a)
                .expect("len > 1");
            let (data, dirty, _) = self.entries.remove(&victim).expect("resident");
            if dirty {
                evicted.push(Evicted { addr: victim, data });
            }
        }
        evicted
    }

    fn take_dirty(&mut self) -> Vec<Evicted> {
        let mut dirty: Vec<Evicted> = self
            .entries
            .iter_mut()
            .filter(|(_, e)| e.1)
            .map(|(a, e)| {
                e.1 = false;
                Evicted {
                    addr: *a,
                    data: e.0.clone(),
                }
            })
            .collect();
        dirty.sort_by_key(|e| e.addr);
        dirty
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cache_matches_reference_lru(ops in proptest::collection::vec(op(), 1..200)) {
        let mut cache = BufferCache::new(256);
        let mut reference = ReferenceLru::new(256);
        // Every address an op has named, for the residency check.
        let mut named: BTreeSet<u32> = BTreeSet::new();
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                Op::WriteDirty { addr, val, len } | Op::InsertClean { addr, val, len } => {
                    let dirty = matches!(op, Op::WriteDirty { .. });
                    let data = vec![val; len as usize];
                    let image = if dirty {
                        cache.spare_copy(&data)
                    } else {
                        let mut image = cache.spare(len as usize);
                        prop_assert_eq!(image.len(), len as usize, "spare length at op {}", i);
                        image.copy_from_slice(&data);
                        image
                    };
                    prop_assert_eq!(&image, &data, "spare copy at op {}", i);
                    let got = if dirty {
                        cache.insert_dirty(addr, image)
                    } else {
                        cache.insert_clean(addr, image)
                    };
                    prop_assert_eq!(got, reference.insert(addr, data, dirty), "evictions at op {}", i);
                    named.insert(addr);
                }
                Op::Get { addr } => {
                    let got = cache.get(addr).map(<[u8]>::to_vec);
                    prop_assert_eq!(got, reference.get(addr), "get at op {}", i);
                    named.insert(addr);
                }
                Op::Peek { addr } => {
                    let got = cache.peek(addr).map(<[u8]>::to_vec);
                    let want = reference.entries.get(&addr).map(|e| e.0.clone());
                    prop_assert_eq!(got, want, "peek at op {}", i);
                    named.insert(addr);
                }
                Op::GetMutDirty { addr, val } => {
                    let hit = cache.get_mut(addr).map(|d| d[0] = val).is_some();
                    cache.mark_dirty(addr);
                    let ref_hit = reference.touch(addr).map(|e| {
                        e.0[0] = val;
                        e.1 = true;
                    });
                    prop_assert_eq!(hit, ref_hit.is_some(), "get_mut at op {}", i);
                    named.insert(addr);
                }
                Op::Contains { addr } => {
                    prop_assert_eq!(cache.contains(addr), reference.entries.contains_key(&addr));
                    named.insert(addr);
                }
                Op::Discard { addr } => {
                    cache.discard(addr);
                    reference.entries.remove(&addr);
                    named.insert(addr);
                }
                Op::TakeDirty => {
                    prop_assert_eq!(cache.take_dirty(), reference.take_dirty(), "take_dirty at op {}", i);
                }
                Op::DropAll => {
                    prop_assert_eq!(cache.drop_all(), reference.take_dirty(), "drop_all at op {}", i);
                    reference.entries.clear();
                }
                Op::Spare { len } => {
                    let mut junk = cache.spare(len as usize);
                    prop_assert_eq!(junk.len(), len as usize, "spare length at op {}", i);
                    junk.fill(0xEE);
                }
            }
            prop_assert!(cache.spares() <= SPARE_MAX, "{} spares after op {}", cache.spares(), i);
            // No spare shares bytes with a resident block: every one still
            // holds exactly the reference's bytes.
            for (a, e) in &reference.entries {
                prop_assert_eq!(cache.peek(*a), Some(e.0.as_slice()), "bytes of {} after op {}", a, i);
            }
            for &a in named.iter().chain(&[u32::MAX]) {
                prop_assert_eq!(cache.contains(a), reference.entries.contains_key(&a), "residency of {} after op {}", a, i);
            }
            let mru = reference.entries.values().max_by_key(|e| e.2).map(|e| e.0.as_slice());
            prop_assert_eq!(cache.mru(), mru, "most recent block after op {}", i);
            prop_assert_eq!(cache.used_bytes(), reference.used_bytes(), "used_bytes after op {}", i);
            prop_assert_eq!(cache.dirty_bytes(), reference.dirty_bytes(), "dirty_bytes after op {}", i);
            prop_assert_eq!(cache.stats(), (reference.hits, reference.misses), "stats after op {}", i);
        }
    }
}

/// The bitmap allocator as it first was: one bit per step, wrapping with
/// `%`, and a per-bit count over an image.
struct ReferenceBitmap {
    bits: Vec<u8>,
    len: usize,
    allocated: usize,
}

impl ReferenceBitmap {
    fn from_bytes(bytes: &[u8], len: usize) -> Self {
        let bits = bytes[..len.div_ceil(8)].to_vec();
        let allocated = (0..len)
            .filter(|&i| bits[i / 8] & (1 << (i % 8)) != 0)
            .count();
        Self {
            bits,
            len,
            allocated,
        }
    }

    fn get(&self, i: usize) -> bool {
        self.bits[i / 8] & (1 << (i % 8)) != 0
    }

    fn alloc_near(&mut self, hint: usize) -> Option<usize> {
        if self.allocated == self.len {
            return None;
        }
        let start = hint % self.len;
        let mut i = start;
        loop {
            if !self.get(i) {
                self.bits[i / 8] |= 1 << (i % 8);
                self.allocated += 1;
                return Some(i);
            }
            i = (i + 1) % self.len;
            if i == start {
                return None;
            }
        }
    }

    fn clear(&mut self, i: usize) {
        self.bits[i / 8] &= !(1 << (i % 8));
        self.allocated -= 1;
    }
}

#[derive(Debug, Clone)]
enum BitOp {
    /// Hints reach past `len`, so some wrap modulo it.
    AllocNear {
        hint: usize,
    },
    AllocFirst,
    /// Frees the allocated slot this index picks, if any.
    Clear {
        slot: prop::sample::Index,
    },
    /// Allocates until the bitmap is full.
    Fill,
    /// Frees every slot.
    Empty,
}

fn bit_op() -> impl Strategy<Value = BitOp> {
    prop_oneof![
        6 => (0usize..700).prop_map(|hint| BitOp::AllocNear { hint }),
        3 => Just(BitOp::AllocFirst),
        4 => any::<prop::sample::Index>().prop_map(|slot| BitOp::Clear { slot }),
        1 => Just(BitOp::Fill),
        1 => Just(BitOp::Empty),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The word-scanning search returns exactly the slot the bit-at-a-time
    /// loop returns, from an empty bitmap or from an image whose padding
    /// bits past `len` may be set, and never returns or counts a padding
    /// bit.
    #[test]
    fn bitmap_matches_bit_at_a_time_search(
        len in 1usize..300,
        image in proptest::collection::vec(any::<u8>(), 38usize),
        from_image in any::<bool>(),
        ops in proptest::collection::vec(bit_op(), 1..120),
    ) {
        let bytes = if from_image { image } else { vec![0u8; 38] };
        let mut bitmap = Bitmap::from_bytes(&bytes, len);
        let mut reference = ReferenceBitmap::from_bytes(&bytes, len);
        prop_assert_eq!(bitmap.allocated(), reference.allocated, "count of the image");
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                BitOp::AllocNear { hint } => {
                    prop_assert_eq!(bitmap.alloc_near(hint), reference.alloc_near(hint), "alloc_near({}) at op {}", hint, i);
                }
                BitOp::AllocFirst => {
                    prop_assert_eq!(bitmap.alloc_first(), reference.alloc_near(0), "alloc_first at op {}", i);
                }
                BitOp::Clear { slot } => {
                    let used: Vec<usize> = (0..len).filter(|&s| reference.get(s)).collect();
                    if !used.is_empty() {
                        let s = used[slot.index(used.len())];
                        bitmap.clear(s);
                        reference.clear(s);
                    }
                }
                BitOp::Fill => loop {
                    let got = bitmap.alloc_first();
                    prop_assert_eq!(got, reference.alloc_near(0), "fill at op {}", i);
                    if got.is_none() {
                        prop_assert_eq!(bitmap.free(), 0);
                        break;
                    }
                },
                BitOp::Empty => {
                    let used: Vec<usize> = (0..len).filter(|&s| reference.get(s)).collect();
                    for s in used {
                        bitmap.clear(s);
                        reference.clear(s);
                    }
                    prop_assert_eq!(bitmap.allocated(), 0);
                }
            }
            prop_assert_eq!(bitmap.allocated(), reference.allocated, "allocated after op {}", i);
            prop_assert_eq!(bitmap.as_bytes(), &reference.bits[..], "image after op {}", i);
            prop_assert!(bitmap.allocated() <= len);
        }
    }
}
