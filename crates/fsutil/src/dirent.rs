//! Fixed-size directory entry codec (MINIX-style).
//!
//! Each entry is 32 bytes: a 4-byte little-endian i-node number (0 = free
//! slot) followed by a NUL-padded name of up to [`MAX_NAME`] bytes.

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

/// Finds the slot of `name` in a directory block (allocation-free; this
/// sits on the hot path of the 10,000-files-in-one-directory benchmark).
pub fn find_in_block(block: &[u8], name: &str) -> Option<(usize, u32)> {
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
pub fn free_slot(block: &[u8]) -> Option<usize> {
    block
        .chunks_exact(DIRENT_SIZE)
        .position(|slot| wire::le_u32(slot, 0) == 0)
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
