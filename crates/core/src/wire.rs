//! Little-endian wire-format readers and the checksum shared by every
//! on-disk decoder.
//!
//! All the stacked formats in this workspace — LLD segment summaries and
//! checkpoints, the NVRAM staging image, and the file systems' metadata
//! blocks — are little-endian with length-checked regions. These helpers
//! read a fixed-width integer out of a byte slice at an offset, and
//! [`fnv1a64`] is the one checksum they are all sealed with.
//!
//! # Panics
//!
//! Indexing panics if the slice is shorter than `at + size_of::<T>()`;
//! callers bound-check the containing region (sector, summary body,
//! checkpoint payload) before decoding fields out of it. That is the same
//! contract `T::from_le_bytes(slice.try_into().unwrap())` had, without
//! scattering `unwrap` through the decoders.

/// Reads a little-endian `u16` at byte offset `at`.
#[inline]
pub fn le_u16(b: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([b[at], b[at + 1]])
}

/// Reads a little-endian `u32` at byte offset `at`.
#[inline]
pub fn le_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

/// Reads a little-endian `u64` at byte offset `at`.
#[inline]
pub fn le_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes([
        b[at],
        b[at + 1],
        b[at + 2],
        b[at + 3],
        b[at + 4],
        b[at + 5],
        b[at + 6],
        b[at + 7],
    ])
}

/// FNV-1a 64-bit hash: the checksum of LLD summaries, checkpoints and the
/// NVRAM image, and of Sprite-LFS summaries and checkpoints.
pub fn fnv1a64(data: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf29ce484222325, data)
}

/// Continues an FNV-1a 64-bit hash `h` over `data`:
/// `fnv1a64_extend(fnv1a64(a), b) == fnv1a64(a ++ b)`, so a checksum over
/// several regions needs no buffer that joins them.
pub fn fnv1a64_extend(mut h: u64, data: &[u8]) -> u64 {
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_match_from_le_bytes_at_offsets() {
        let b: Vec<u8> = (1..=12).collect();
        assert_eq!(le_u16(&b, 3), u16::from_le_bytes([4, 5]));
        assert_eq!(le_u32(&b, 2), u32::from_le_bytes([3, 4, 5, 6]));
        assert_eq!(le_u64(&b, 1), u64::from_le_bytes([2, 3, 4, 5, 6, 7, 8, 9]));
    }

    #[test]
    fn extending_a_hash_equals_hashing_the_concatenation() {
        let b: Vec<u8> = (0..=255).collect();
        for split in [0, 1, 24, 255, 256] {
            let (head, tail) = b.split_at(split);
            assert_eq!(fnv1a64_extend(fnv1a64(head), tail), fnv1a64(&b));
        }
    }
}
