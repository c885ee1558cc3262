//! Fixed-size directory entry codec (MINIX-style), and the directory
//! index that answers MINIX's linear scan without its byte compares.
//!
//! Each entry is 32 bytes: a 4-byte little-endian i-node number (0 = free
//! slot) followed by a NUL-padded name of up to [`MAX_NAME`] bytes.
//!
//! MINIX finds a name, or a free slot, by reading a directory block by
//! block until one holds it, and those buffer-cache touches decide the
//! simulated time. [`locate`] keeps what every touch does to the cache
//! but, given a [`DirIndex`], skips the compares: the index says which
//! block the scan stops in.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};

use ld_core::wire;

/// Bytes per directory entry.
pub const DIRENT_SIZE: usize = 32;
/// Maximum file-name length.
pub const MAX_NAME: usize = DIRENT_SIZE - 4;

/// A decoded directory entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dirent {
    /// Target i-node number (never 0 for a live entry).
    pub ino: u32,
    /// File name.
    pub name: String,
}

/// Encodes an entry into a 32-byte slot.
///
/// # Panics
///
/// Panics if the name is empty, too long, or contains `/` or NUL — callers
/// validate names before reaching the codec.
pub fn encode(ino: u32, name: &str, slot: &mut [u8]) {
    assert!(slot.len() == DIRENT_SIZE, "slot must be one dirent");
    assert!(ino != 0, "ino 0 marks a free slot");
    assert!(
        !name.is_empty() && name.len() <= MAX_NAME,
        "invalid name length {}",
        name.len()
    );
    assert!(
        !name.bytes().any(|b| b == b'/' || b == 0),
        "name contains reserved bytes"
    );
    slot[..4].copy_from_slice(&ino.to_le_bytes());
    slot[4..].fill(0);
    slot[4..4 + name.len()].copy_from_slice(name.as_bytes());
}

/// Clears a slot (marks it free).
pub fn clear(slot: &mut [u8]) {
    slot[..4].copy_from_slice(&0u32.to_le_bytes());
}

/// Decodes a slot; `None` for a free slot or a mangled name.
pub fn decode(slot: &[u8]) -> Option<Dirent> {
    assert!(slot.len() == DIRENT_SIZE, "slot must be one dirent");
    let ino = wire::le_u32(slot, 0);
    if ino == 0 {
        return None;
    }
    let name_bytes = &slot[4..];
    let end = name_bytes.iter().position(|&b| b == 0).unwrap_or(MAX_NAME);
    let name = std::str::from_utf8(&name_bytes[..end]).ok()?.to_string();
    if name.is_empty() {
        return None;
    }
    Some(Dirent { ino, name })
}

/// Iterates the live entries in a directory block, yielding
/// `(slot_index, entry)`.
pub fn iter_block(block: &[u8]) -> impl Iterator<Item = (usize, Dirent)> + '_ {
    block
        .chunks_exact(DIRENT_SIZE)
        .enumerate()
        .filter_map(|(i, slot)| decode(slot).map(|d| (i, d)))
}

/// Finds the slot of `name` in a directory block (allocation-free).
fn find_in_block(block: &[u8], name: &str) -> Option<(usize, u32)> {
    let needle = name.as_bytes();
    if needle.is_empty() || needle.len() > MAX_NAME {
        return None;
    }
    block
        .chunks_exact(DIRENT_SIZE)
        .enumerate()
        .find_map(|(i, slot)| {
            let ino = wire::le_u32(slot, 0);
            if ino == 0 {
                return None;
            }
            let stored = &slot[4..];
            let matches = stored[..needle.len()] == *needle
                && (needle.len() == MAX_NAME || stored[needle.len()] == 0);
            matches.then_some((i, ino))
        })
}

/// Finds the first free slot in a directory block.
fn free_slot(block: &[u8]) -> Option<usize> {
    block
        .chunks_exact(DIRENT_SIZE)
        .position(|slot| wire::le_u32(slot, 0) == 0)
}

/// What a directory scan looks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe<'a> {
    /// The live entry with this name (the first, in slot order).
    Name(&'a str),
    /// The first free slot.
    Free,
}

impl Probe<'_> {
    /// Runs the probe over one block: the slot that answers it and the
    /// i-node there (0 for a free slot).
    pub fn in_block(self, block: &[u8]) -> Option<(usize, u32)> {
        match self {
            Probe::Name(name) => find_in_block(block, name),
            Probe::Free => free_slot(block).map(|slot| (slot, 0)),
        }
    }
}

/// A directory slot: block index within the directory, slot within the
/// block, and the i-node it holds (0 when free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirSlot {
    /// Block index within the directory.
    pub block: u64,
    /// Slot within the block.
    pub slot: usize,
    /// I-node number; 0 for a free slot.
    pub ino: u32,
}

/// A name as a slot stores it, NUL-padded: a hash key with no allocation.
type Key = [u8; MAX_NAME];

/// The key of a name a slot can hold (1 to [`MAX_NAME`] bytes).
fn key(name: &[u8]) -> Option<Key> {
    if name.is_empty() || name.len() > MAX_NAME {
        return None;
    }
    let mut k = [0u8; MAX_NAME];
    k[..name.len()].copy_from_slice(name);
    Some(k)
}

/// What one directory's blocks hold, kept in memory: where the linear scan
/// for any name or for a free slot stops, without reading the blocks.
///
/// Built block by block with [`add_block`](Self::add_block) and kept in
/// step with every slot the file system rewrites, it answers each
/// [`Probe`] as [`Probe::in_block`] over the blocks in order would.
#[derive(Debug, Default)]
pub struct DirIndex {
    /// Live name → its first slot in scan order.
    names: HashMap<Key, DirSlot>,
    /// Free slots as `(block, slot)`; the first is where a scan for one stops.
    free: BTreeSet<(u64, usize)>,
    /// Live entries hidden behind an earlier one of the same name.
    shadowed: usize,
}

impl DirIndex {
    /// Indexes block `idx` with the scan's semantics: a name taken by an
    /// earlier slot keeps that slot (as [`Probe::Name`] finds the first),
    /// and a slot with a nonzero i-node but an undecodable name is neither
    /// free ([`Probe::Free`]) nor findable.
    pub fn add_block(&mut self, idx: u64, block: &[u8]) {
        for (slot, raw) in block.chunks_exact(DIRENT_SIZE).enumerate() {
            let ino = wire::le_u32(raw, 0);
            if ino == 0 {
                self.free.insert((idx, slot));
                continue;
            }
            let stored = &raw[4..];
            let name = &stored[..stored.iter().position(|&b| b == 0).unwrap_or(MAX_NAME)];
            // As `decode`: a non-UTF-8 name matches no `&str`.
            if let Some(k) = key(name).filter(|_| std::str::from_utf8(name).is_ok()) {
                self.name(
                    k,
                    DirSlot {
                        block: idx,
                        slot,
                        ino,
                    },
                );
            }
        }
    }

    /// Where the scan for `probe` stops; `None` when it reads every block.
    pub fn find(&self, probe: Probe<'_>) -> Option<DirSlot> {
        match probe {
            Probe::Name(name) => key(name.as_bytes()).and_then(|k| self.names.get(&k).copied()),
            Probe::Free => self.free.first().map(|&(block, slot)| DirSlot {
                block,
                slot,
                ino: 0,
            }),
        }
    }

    /// Whether no name occurs twice. Only such an index can follow a
    /// removal: clearing the first of two same-named entries would uncover
    /// the second, which the index does not track.
    pub fn is_exact(&self) -> bool {
        self.shadowed == 0
    }

    /// Records `ino` written under `name` into the free slot `at`.
    pub fn fill(&mut self, at: DirSlot, name: &str, ino: u32) {
        self.free.remove(&(at.block, at.slot));
        if let Some(k) = key(name.as_bytes()) {
            self.name(k, DirSlot { ino, ..at });
        }
    }

    /// Records that the entry `at`, found by `name`, was cleared.
    pub fn clear(&mut self, at: DirSlot, name: &str) {
        if let Some(k) = key(name.as_bytes()) {
            self.names.remove(&k);
        }
        self.free.insert((at.block, at.slot));
    }

    /// Names slot `at`, unless the name is taken: by an earlier slot, since
    /// `add_block` goes in scan order and `fill` writes only names the scan
    /// has just missed.
    fn name(&mut self, k: Key, at: DirSlot) {
        match self.names.entry(k) {
            Entry::Vacant(v) => {
                v.insert(at);
            }
            Entry::Occupied(_) => self.shadowed += 1,
        }
    }
}

/// Where [`locate`] stopped, and the directory's index.
#[derive(Debug)]
pub struct Located {
    /// The stop block's store address and the slot that answers the probe;
    /// `None` when the scan read every block.
    pub stop: Option<(u32, DirSlot)>,
    /// The index passed in or, when a scan without one read every block,
    /// the one built from them (if [exact](DirIndex::is_exact)).
    pub index: Option<DirIndex>,
}

/// Runs MINIX's linear scan of a directory of `nblocks` blocks for
/// `probe`: reads blocks in order, up to the one that answers it, or all of
/// them. `read(idx, last, look)` maps block `idx` (through any indirect
/// block) and reads it through the buffer cache, returning its store
/// address or `None` for a hole; given `look`, it also shows `look` the
/// block's bytes.
///
/// `last` is false only when the scan is sure to read block `idx + 1`
/// next. The reader may then leave out a cache touch that the next block's
/// read is sure to repeat before anything is inserted or the scan ends
/// (`Fs` leaves out the directory's indirect block this way), so every
/// eviction and the final recency order are those of the eager walk.
///
/// With the directory's `index` the scan reads exactly those blocks but
/// compares no bytes: the index names the stop block, so `last` is known
/// for every block. Debug builds still show each block read to a check of
/// the index against its bytes. Without an index the scan compares each
/// block as it goes, and any block may be its last.
pub fn locate<E>(
    nblocks: u64,
    probe: Probe<'_>,
    index: Option<DirIndex>,
    mut read: impl FnMut(u64, bool, Option<&mut dyn FnMut(&[u8])>) -> Result<Option<u32>, E>,
) -> Result<Located, E> {
    let known = index.as_ref().map(|ix| ix.find(probe));
    let end = known.flatten().map_or(nblocks, |at| at.block + 1);
    // Copies of the blocks read, to index them if the scan reads them all.
    let mut seen = Vec::new();
    for idx in 0..end {
        let mut found = None;
        let addr = match known {
            Some(at) => {
                found = at.filter(|at| at.block == idx);
                let mut check = |block: &[u8]| {
                    assert_eq!(
                        probe.in_block(block),
                        found.map(|at| (at.slot, at.ino)),
                        "directory index disagrees with block {idx} on {probe:?}"
                    );
                };
                read(
                    idx,
                    idx + 1 == end,
                    cfg!(debug_assertions).then_some(&mut check as &mut dyn FnMut(&[u8])),
                )?
            }
            None => read(
                idx,
                true,
                Some(&mut |block: &[u8]| {
                    found = probe.in_block(block).map(|(slot, ino)| DirSlot {
                        block: idx,
                        slot,
                        ino,
                    });
                    if found.is_none() {
                        seen.push((idx, block.to_vec()));
                    }
                }),
            )?,
        };
        if let (Some(addr), Some(at)) = (addr, found) {
            return Ok(Located {
                stop: Some((addr, at)),
                index,
            });
        }
    }
    let index = index.or_else(|| {
        let mut ix = DirIndex::default();
        for (idx, block) in &seen {
            ix.add_block(*idx, block);
        }
        ix.is_exact().then_some(ix)
    });
    Ok(Located { stop: None, index })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_entry() {
        let mut slot = [0u8; DIRENT_SIZE];
        encode(42, "hello.txt", &mut slot);
        let d = decode(&slot).unwrap();
        assert_eq!(d.ino, 42);
        assert_eq!(d.name, "hello.txt");
    }

    #[test]
    fn max_length_name_roundtrips() {
        let name = "a".repeat(MAX_NAME);
        let mut slot = [0u8; DIRENT_SIZE];
        encode(1, &name, &mut slot);
        assert_eq!(decode(&slot).unwrap().name, name);
    }

    #[test]
    fn cleared_slot_is_free() {
        let mut slot = [0u8; DIRENT_SIZE];
        encode(7, "x", &mut slot);
        clear(&mut slot);
        assert_eq!(decode(&slot), None);
        assert_eq!(free_slot(&slot), Some(0));
    }

    #[test]
    fn block_iteration_and_search() {
        let mut block = vec![0u8; 4 * DIRENT_SIZE];
        encode(1, "one", &mut block[0..DIRENT_SIZE]);
        encode(3, "three", &mut block[2 * DIRENT_SIZE..3 * DIRENT_SIZE]);
        let entries: Vec<_> = iter_block(&block).collect();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, 0);
        assert_eq!(entries[1].1.name, "three");
        assert_eq!(find_in_block(&block, "three"), Some((2, 3)));
        assert_eq!(find_in_block(&block, "two"), None);
        assert_eq!(free_slot(&block), Some(1));

        // A full 4 KB directory block: every slot taken, no free slot.
        let mut full = vec![0u8; 4096];
        for (i, slot) in full.chunks_exact_mut(DIRENT_SIZE).enumerate() {
            encode(i as u32 + 1, &format!("file{i:04}"), slot);
        }
        assert_eq!(iter_block(&full).count(), 4096 / DIRENT_SIZE);
        assert_eq!(find_in_block(&full, "file0064"), Some((64, 65)));
        assert_eq!(find_in_block(&full, "file0127"), Some((127, 128)));
        assert_eq!(find_in_block(&full, "file0128"), None);
        assert_eq!(free_slot(&full), None);
    }

    #[test]
    fn index_follows_the_scan_semantics() {
        let mut block = vec![0u8; 4096];
        let slots: Vec<&mut [u8]> = block.chunks_exact_mut(DIRENT_SIZE).collect();
        let mut slots = slots.into_iter();
        encode(5, "dup", slots.next().unwrap()); // slot 0
        slots.next(); // slot 1: free
        encode(6, "dup", slots.next().unwrap()); // slot 2: a shadowed twin
        let empty = slots.next().unwrap(); // slot 3: live ino, empty name
        empty[..4].copy_from_slice(&7u32.to_le_bytes());
        let bad = slots.next().unwrap(); // slot 4: live ino, non-UTF-8 name
        bad[..4].copy_from_slice(&8u32.to_le_bytes());
        bad[4..6].copy_from_slice(&[0xff, 0xfe]);
        for (i, slot) in slots.enumerate() {
            encode(100 + i as u32, &format!("n{i}"), slot);
        }
        // Slot 1 is the only free slot; free another in a second block.
        let mut second = block.clone();
        clear(&mut second[9 * DIRENT_SIZE..10 * DIRENT_SIZE]);
        second[DIRENT_SIZE..2 * DIRENT_SIZE]
            .copy_from_slice(&block[5 * DIRENT_SIZE..6 * DIRENT_SIZE]);

        let mut ix = DirIndex::default();
        ix.add_block(0, &block);
        ix.add_block(1, &second);
        assert_eq!(
            ix.find(Probe::Name("dup")),
            Some(DirSlot {
                block: 0,
                slot: 0,
                ino: 5
            })
        );
        assert!(!ix.is_exact(), "dup and every name of block 0 repeat");
        assert!(!ix.free.contains(&(0, 3)) && !ix.free.contains(&(0, 4)));
        assert_eq!(ix.names.len(), 1 + 123, "slots 3 and 4 are unnamed");
        assert_eq!(ix.free.iter().collect::<Vec<_>>(), [&(0, 1), &(1, 9)]);
        assert_eq!(ix.find(Probe::Free).map(|at| at.slot), free_slot(&block));
        for (_, d) in iter_block(&block).chain(iter_block(&second)) {
            let at = ix.find(Probe::Name(&d.name)).unwrap();
            assert_eq!(at.block, 0, "block 0 shadows block 1");
            assert_eq!(
                find_in_block(&block, &d.name),
                Some((at.slot, at.ino)),
                "{}",
                d.name
            );
        }
        assert_eq!(ix.find(Probe::Name("n200")), None);

        // Filling and clearing move slots between the two sets.
        ix.fill(
            DirSlot {
                block: 0,
                slot: 1,
                ino: 0,
            },
            "new",
            9,
        );
        assert_eq!(
            ix.find(Probe::Free),
            Some(DirSlot {
                block: 1,
                slot: 9,
                ino: 0
            })
        );
        assert_eq!(
            ix.find(Probe::Name("new")),
            Some(DirSlot {
                block: 0,
                slot: 1,
                ino: 9
            })
        );
        ix.clear(
            DirSlot {
                block: 0,
                slot: 1,
                ino: 9,
            },
            "new",
        );
        assert_eq!(ix.find(Probe::Name("new")), None);
        assert_eq!(
            ix.find(Probe::Free).map(|at| (at.block, at.slot)),
            Some((0, 1))
        );
    }

    /// Blocks in memory; records every block read, as a cache would, with
    /// whether the scan said it might be the last.
    struct Blocks {
        blocks: Vec<Option<Vec<u8>>>,
        reads: Vec<(u64, bool)>,
    }

    impl Blocks {
        /// [`locate`] over these blocks: block `idx` lives at `1000 + idx`.
        fn locate(&mut self, probe: Probe<'_>, index: Option<DirIndex>) -> Located {
            let nblocks = self.blocks.len() as u64;
            locate(nblocks, probe, index, |idx, last, look| {
                self.reads.push((idx, last));
                let Some(block) = &self.blocks[idx as usize] else {
                    return Ok::<_, ()>(None);
                };
                if let Some(look) = look {
                    look(block);
                }
                Ok(Some(1000 + idx as u32))
            })
            .unwrap()
        }
    }

    #[test]
    fn locate_reads_the_same_blocks_with_and_without_an_index() {
        let mut blocks = Vec::new();
        for b in 0..4u32 {
            let mut block = vec![0u8; 8 * DIRENT_SIZE];
            for (s, slot) in block.chunks_exact_mut(DIRENT_SIZE).enumerate() {
                let n = b * 8 + s as u32;
                if n % 11 != 3 {
                    encode(n + 1, &format!("e{n}"), slot);
                }
            }
            blocks.push(Some(block));
        }
        blocks.insert(2, None); // A hole: mapped to no block.
        let mut fs = Blocks {
            blocks,
            reads: Vec::new(),
        };

        // No index: a miss reads every block and builds one.
        let got = fs.locate(Probe::Name("absent"), None);
        assert!(got.stop.is_none());
        let mut index = got.index;
        assert!(index.is_some());
        for probe in [
            Probe::Name("e0"),
            Probe::Name("e20"),
            Probe::Free,
            Probe::Name("e3"),
            Probe::Name("x"),
        ] {
            fs.reads.clear();
            let scan = fs.locate(probe, None);
            let scan_reads = std::mem::take(&mut fs.reads);
            let indexed = fs.locate(probe, index.take());
            assert_eq!(indexed.stop, scan.stop, "{probe:?}");
            // The same blocks; without an index, each may be the last.
            assert!(scan_reads.iter().all(|&(_, last)| last), "{probe:?}");
            let idxs = |reads: &[(u64, bool)]| reads.iter().map(|r| r.0).collect::<Vec<_>>();
            assert_eq!(idxs(&fs.reads), idxs(&scan_reads), "{probe:?}");
            let lasts: Vec<bool> = fs.reads.iter().map(|r| r.1).collect();
            let n = lasts.len();
            assert_eq!(lasts, (0..n).map(|k| k + 1 == n).collect::<Vec<_>>());
            index = indexed.index;
        }
        // e20 is in the fourth block, after the hole, at address 1003.
        let at = fs.locate(Probe::Name("e20"), index).stop;
        assert_eq!(
            at,
            Some((
                1003,
                DirSlot {
                    block: 3,
                    slot: 4,
                    ino: 21
                }
            ))
        );
    }

    #[test]
    #[should_panic(expected = "invalid name length")]
    fn oversized_name_panics() {
        let mut slot = [0u8; DIRENT_SIZE];
        encode(1, &"a".repeat(MAX_NAME + 1), &mut slot);
    }

    #[test]
    #[should_panic(expected = "reserved bytes")]
    fn slash_in_name_panics() {
        let mut slot = [0u8; DIRENT_SIZE];
        encode(1, "a/b", &mut slot);
    }
}
