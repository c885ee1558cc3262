//! NVRAM image format for the §5.3 extension (after Baker et al. 1992).
//!
//! When a `Flush` finds the segment below the seal threshold and the device
//! has battery-backed NVRAM, the open segment's current contents (data
//! prefix + encoded summary) are saved to NVRAM instead of being written as
//! a partial segment. The image survives a crash; recovery materializes it
//! into a free segment and replays its records like any other summary.

use ld_core::wire::{self, fnv1a64};

const NVRAM_MAGIC: u32 = 0x4C44_4E56; // "LDNV"
const NVRAM_VERSION: u16 = 1;
/// Fixed image header bytes.
pub const IMAGE_HEADER_LEN: usize = 4 + 2 + 2 + 4 + 4 + 8;

/// Encodes an NVRAM image from the open segment's data prefix and its
/// encoded summary region.
pub fn encode_image(data: &[u8], summary: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(IMAGE_HEADER_LEN + summary.len() + data.len());
    out.extend_from_slice(&NVRAM_MAGIC.to_le_bytes());
    out.extend_from_slice(&NVRAM_VERSION.to_le_bytes());
    out.extend_from_slice(&[0u8; 2]);
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out.extend_from_slice(&(summary.len() as u32).to_le_bytes());
    let checksum = wire::fnv1a64_extend(fnv1a64(summary), data);
    out.extend_from_slice(&checksum.to_le_bytes());
    out.extend_from_slice(summary);
    out.extend_from_slice(data);
    out
}

/// Bytes an image for `data_len` + `summary_len` occupies.
pub fn image_len(data_len: usize, summary_len: usize) -> usize {
    IMAGE_HEADER_LEN + summary_len + data_len
}

/// Decodes and validates an NVRAM region; returns `(summary, data)` or
/// `None` when no valid image is present.
pub fn decode_image(raw: &[u8]) -> Option<(Vec<u8>, Vec<u8>)> {
    if raw.len() < IMAGE_HEADER_LEN {
        return None;
    }
    let magic = wire::le_u32(raw, 0);
    let version = wire::le_u16(raw, 4);
    if magic != NVRAM_MAGIC || version != NVRAM_VERSION {
        return None;
    }
    let data_len = wire::le_u32(raw, 8) as usize;
    let summary_len = wire::le_u32(raw, 12) as usize;
    let checksum = wire::le_u64(raw, 16);
    let body = raw.get(IMAGE_HEADER_LEN..IMAGE_HEADER_LEN + summary_len + data_len)?;
    if fnv1a64(body) != checksum {
        return None;
    }
    Some((body[..summary_len].to_vec(), body[summary_len..].to_vec()))
}

/// A minimal invalidation stamp (kills the magic).
pub const INVALIDATE: [u8; 4] = [0u8; 4];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_roundtrip() {
        let data = vec![7u8; 1000];
        let summary = vec![9u8; 256];
        let img = encode_image(&data, &summary);
        assert_eq!(img.len(), image_len(data.len(), summary.len()));
        let (s, d) = decode_image(&img).expect("valid image");
        assert_eq!(s, summary);
        assert_eq!(d, data);
    }

    #[test]
    fn corruption_and_invalidation_are_detected() {
        let img = encode_image(&[1, 2, 3], &[4, 5, 6]);
        for i in (0..img.len()).filter(|&i| !(6..8).contains(&i)) {
            // Bytes 6..8 are reserved padding and carry no meaning.
            let mut c = img.clone();
            c[i] ^= 0xFF;
            assert!(decode_image(&c).is_none(), "flip at {i} accepted");
        }
        let mut dead = img.clone();
        dead[..4].copy_from_slice(&INVALIDATE);
        assert!(decode_image(&dead).is_none());
        assert!(decode_image(&[]).is_none());
    }
}
