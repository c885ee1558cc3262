//! A persistent bitmap allocator, as used by the MINIX file system for free
//! i-nodes and free zones (paper §4.1) and by the FFS baseline's cylinder
//! groups.

/// A bitmap over `len` slots; bit set = allocated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    bits: Vec<u8>,
    len: usize,
    allocated: usize,
}

impl Bitmap {
    /// Creates a bitmap with all slots free.
    pub fn new(len: usize) -> Self {
        Self {
            bits: vec![0u8; len.div_ceil(8)],
            len,
            allocated: 0,
        }
    }

    /// Rebuilds a bitmap from serialized bytes (must cover `len` bits).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is too short for `len` bits.
    pub fn from_bytes(bytes: &[u8], len: usize) -> Self {
        assert!(bytes.len() >= len.div_ceil(8), "bitmap bytes too short");
        let bits = bytes[..len.div_ceil(8)].to_vec();
        // Whole bytes, then the used bits of a partial last byte: padding
        // bits past `len` are kept in the image but never counted.
        let whole = len / 8;
        let mut allocated: usize = bits[..whole].iter().map(|b| b.count_ones() as usize).sum();
        if let Some(last) = bits.get(whole) {
            allocated += (last & ((1u8 << (len % 8)) - 1)).count_ones() as usize;
        }
        Self {
            bits,
            len,
            allocated,
        }
    }

    /// Serialized form (little-endian bit order within bytes).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bits
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap has zero slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of allocated slots.
    pub fn allocated(&self) -> usize {
        self.allocated
    }

    /// Number of free slots.
    pub fn free(&self) -> usize {
        self.len - self.allocated
    }

    /// Whether slot `i` is allocated.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bitmap index {i} out of range");
        self.bits[i / 8] & (1 << (i % 8)) != 0
    }

    /// Allocates the first free slot at or after `hint`, wrapping around —
    /// the "allocate close to the previous allocation" policy MINIX uses
    /// for zones. A hint at or past `len` wraps modulo `len`.
    pub fn alloc_near(&mut self, hint: usize) -> Option<usize> {
        if self.allocated == self.len {
            return None;
        }
        let start = hint % self.len; // `len > 0`: some slot is free.
        let i = self
            .first_free(start, self.len)
            .or_else(|| self.first_free(0, start))?;
        self.set(i);
        Some(i)
    }

    /// The first free slot in `from..to` (`to <= len`), scanning 64 slots
    /// per step: the word starting at `from`'s byte, with the slots below
    /// `from` masked as allocated, has its first free slot at
    /// `trailing_ones`. Bytes past the end of the image read as
    /// allocated, and a slot found at or past `to` (a padding bit, or one
    /// beyond the range) ends the search.
    fn first_free(&self, from: usize, to: usize) -> Option<usize> {
        let mut i = from;
        while i < to {
            let byte = i / 8;
            let rest = &self.bits[byte..];
            let word = match rest.first_chunk::<8>() {
                Some(w) => u64::from_le_bytes(*w),
                None => {
                    let mut w = [0xFF; 8];
                    w[..rest.len()].copy_from_slice(rest);
                    u64::from_le_bytes(w)
                }
            };
            let free = (word | ((1u64 << (i % 8)) - 1)).trailing_ones() as usize;
            if free < 64 {
                let slot = byte * 8 + free;
                return (slot < to).then_some(slot);
            }
            i = byte * 8 + 64;
        }
        None
    }

    /// Allocates the first free slot from the beginning.
    pub fn alloc_first(&mut self) -> Option<usize> {
        self.alloc_near(0)
    }

    /// Marks slot `i` allocated.
    ///
    /// # Panics
    ///
    /// Panics if `i` is already allocated — double allocation is always a
    /// logic error.
    pub fn set(&mut self, i: usize) {
        assert!(!self.get(i), "slot {i} already allocated");
        self.bits[i / 8] |= 1 << (i % 8);
        self.allocated += 1;
    }

    /// Frees slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not allocated — double free is always a logic
    /// error.
    pub fn clear(&mut self, i: usize) {
        assert!(self.get(i), "slot {i} not allocated");
        self.bits[i / 8] &= !(1 << (i % 8));
        self.allocated -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_near_wraps_and_respects_hint() {
        let mut b = Bitmap::new(10);
        assert_eq!(b.alloc_near(7), Some(7));
        assert_eq!(b.alloc_near(7), Some(8));
        assert_eq!(b.alloc_near(9), Some(9));
        assert_eq!(b.alloc_near(9), Some(0), "wraps around");
        assert_eq!(b.free(), 6);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut b = Bitmap::new(3);
        for _ in 0..3 {
            assert!(b.alloc_first().is_some());
        }
        assert_eq!(b.alloc_first(), None);
        b.clear(1);
        assert_eq!(b.alloc_near(2), Some(1), "wraps to the only free bit");
        assert_eq!(b.alloc_near(2), None);
    }

    #[test]
    fn roundtrip_through_bytes() {
        let mut b = Bitmap::new(100);
        for i in [0usize, 7, 8, 63, 64, 99] {
            b.set(i);
        }
        let restored = Bitmap::from_bytes(b.as_bytes(), 100);
        assert_eq!(restored, b);
        assert_eq!(restored.allocated(), 6);
        assert!(restored.get(63) && !restored.get(62));
    }

    #[test]
    #[should_panic(expected = "already allocated")]
    fn double_alloc_panics() {
        let mut b = Bitmap::new(4);
        b.set(2);
        b.set(2);
    }

    #[test]
    #[should_panic(expected = "not allocated")]
    fn double_free_panics() {
        let mut b = Bitmap::new(4);
        b.clear(2);
    }
}
