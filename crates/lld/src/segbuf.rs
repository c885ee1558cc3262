//! The in-memory segment being filled (paper §3: "the segment being filled
//! is maintained in main memory and is written in a single disk operation").

use simdisk::SECTOR_SIZE;

use crate::records::{Stamped, SummaryBuilder};

/// The open segment buffer: a data region filling from the front and a
/// summary accumulating records.
///
/// `image` is the whole segment as it goes to disk, data region then
/// summary region, allocated once. Only `image[..used]` is specified
/// between seals; a full seal zeroes the padding after it and writes the
/// summary in place, so the segment leaves memory without another copy.
#[derive(Debug)]
pub struct SegmentBuffer {
    image: Vec<u8>,
    used: usize,
    data_capacity: usize,
    summary_capacity: usize,
    summary: SummaryBuilder,
    /// Pending modeled compression CPU (µs) for the pipeline model: charged
    /// at seal time as `max(compress, disk write)` (§3.3/§4.2).
    pub compress_us_pending: u64,
}

impl SegmentBuffer {
    /// Creates an empty buffer for a segment with the given region sizes.
    pub fn new(data_capacity: usize, summary_capacity: usize) -> Self {
        Self {
            image: vec![0u8; data_capacity + summary_capacity],
            used: 0,
            data_capacity,
            summary_capacity,
            summary: SummaryBuilder::new(),
            compress_us_pending: 0,
        }
    }

    /// Bytes of data currently in the buffer.
    pub fn data_used(&self) -> usize {
        self.used
    }

    /// Fill level of the data region in percent.
    pub fn fill_pct(&self) -> u32 {
        (self.used * 100 / self.data_capacity) as u32
    }

    /// Whether nothing (data or records) has been put in the buffer.
    pub fn is_empty(&self) -> bool {
        self.used == 0 && self.summary.count() == 0
    }

    /// Whether `bytes` more data and `records` more records fit.
    pub fn has_room(&self, bytes: usize, records: usize) -> bool {
        self.used + bytes <= self.data_capacity
            && self.summary.encoded_len() + records * SummaryBuilder::MAX_RECORD_LEN
                <= self.summary_capacity
    }

    /// Appends block bytes; returns the offset within the data region.
    ///
    /// # Panics
    ///
    /// Panics if the data region overflows — callers must check
    /// [`has_room`](Self::has_room) (and seal) first.
    pub fn append_data(&mut self, bytes: &[u8]) -> u32 {
        assert!(
            self.used + bytes.len() <= self.data_capacity,
            "segment buffer overflow"
        );
        let offset = self.used;
        self.image[offset..offset + bytes.len()].copy_from_slice(bytes);
        self.used += bytes.len();
        offset as u32
    }

    /// Appends a summary record.
    ///
    /// # Panics
    ///
    /// Panics if the summary region overflows — callers must check
    /// [`has_room`](Self::has_room) (and seal) first.
    pub fn push_record(&mut self, s: Stamped) {
        self.summary.push(s);
        assert!(
            self.summary.encoded_len() <= self.summary_capacity,
            "summary overflow"
        );
    }

    /// Reads back bytes previously appended (serving reads of blocks whose
    /// live copy is still in memory).
    pub fn read(&self, offset: u32, len: u32) -> &[u8] {
        let offset = offset as usize;
        let len = len as usize;
        assert!(offset + len <= self.used, "read beyond buffered data");
        &self.image[offset..offset + len]
    }

    /// Completes the whole segment (data, zero padding, summary) in place
    /// for a full seal, and returns it — written to disk in a single
    /// operation.
    pub fn seal(&mut self, seq: u64) -> &[u8] {
        self.image[self.used..self.data_capacity].fill(0);
        let summary = self.summary.finish(seq, self.summary_capacity);
        self.image[self.data_capacity..].copy_from_slice(&summary);
        &self.image
    }

    /// [`seal`](Self::seal)s the segment and hands its image over,
    /// leaving a fresh one behind. The blocks appended so far leave with
    /// it: [`read`](Self::read) must not be asked for them again, and
    /// [`reset`](Self::reset) should follow.
    pub fn take_sealed(&mut self, seq: u64) -> Vec<u8> {
        self.seal(seq);
        let fresh = vec![0u8; self.image.len()];
        std::mem::replace(&mut self.image, fresh)
    }

    /// Serializes the pieces of a partial write (§3.2): the sector-aligned
    /// data prefix actually used (possibly empty) and the summary.
    pub fn encode_partial(&self, seq: u64) -> (Vec<u8>, Vec<u8>) {
        let prefix_len = self.used.div_ceil(SECTOR_SIZE) * SECTOR_SIZE;
        let mut prefix = self.image[..self.used].to_vec();
        prefix.resize(prefix_len, 0);
        (prefix, self.summary.finish(seq, self.summary_capacity))
    }

    /// Empties the buffer for the next segment. The old bytes stay until
    /// overwritten; nothing reads past `used`.
    pub fn reset(&mut self) {
        self.used = 0;
        self.summary = SummaryBuilder::new();
        self.compress_us_pending = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{decode_summary, Record};

    fn rec(ts: u64) -> Stamped {
        Stamped {
            ts,
            ends_aru: true,
            aru: None,
            rec: Record::DeleteBlock { bid: ts },
        }
    }

    #[test]
    fn append_and_read_back() {
        let mut b = SegmentBuffer::new(4096, 1024);
        let o1 = b.append_data(b"hello");
        let o2 = b.append_data(b"world");
        assert_eq!(o1, 0);
        assert_eq!(o2, 5);
        assert_eq!(b.read(o2, 5), b"world");
        assert_eq!(b.data_used(), 10);
    }

    #[test]
    fn room_accounting_tracks_both_regions() {
        let mut b = SegmentBuffer::new(1024, crate::records::SUMMARY_HEADER_LEN + 128);
        assert!(b.has_room(1024, 0));
        assert!(!b.has_room(1025, 0));
        // Each record may cost up to MAX_RECORD_LEN.
        let n = 128 / SummaryBuilder::MAX_RECORD_LEN;
        assert!(b.has_room(0, n));
        assert!(!b.has_room(0, n + 10));
        for i in 0..4 {
            b.push_record(rec(i));
        }
    }

    #[test]
    fn full_encoding_roundtrips_summary_and_pads() {
        let mut b = SegmentBuffer::new(2048, 1024);
        b.append_data(&[7u8; 100]);
        b.push_record(rec(5));
        let bytes = b.seal(9).to_vec();
        assert_eq!(bytes.len(), 2048 + 1024);
        assert_eq!(&bytes[..100], &[7u8; 100][..]);
        assert!(bytes[100..2048].iter().all(|&x| x == 0));
        let s = decode_summary(&bytes[2048..]).unwrap();
        assert_eq!(s.seq, 9);
        assert_eq!(s.records.len(), 1);
    }

    #[test]
    fn seal_pads_over_the_previous_segment() {
        let mut b = SegmentBuffer::new(2048, 1024);
        b.append_data(&[7u8; 1500]);
        b.push_record(rec(5));
        b.seal(1);
        b.reset();
        b.append_data(&[1u8; 10]);
        b.push_record(rec(6));
        let bytes = b.seal(2);
        assert_eq!(&bytes[..10], &[1u8; 10][..]);
        assert!(bytes[10..2048].iter().all(|&x| x == 0), "stale data leaked");
        assert_eq!(decode_summary(&bytes[2048..]).unwrap().seq, 2);
    }

    #[test]
    fn taking_the_sealed_image_leaves_a_fresh_buffer() {
        let mut b = SegmentBuffer::new(2048, 1024);
        b.append_data(&[7u8; 100]);
        b.push_record(rec(5));
        let expected = b.seal(3).to_vec();
        let taken = b.take_sealed(3);
        assert_eq!(taken, expected);
        b.reset();
        assert!(b.is_empty());
        b.append_data(&[2u8; 4]);
        assert_eq!(b.read(0, 4), &[2u8; 4][..]);
        assert_eq!(b.seal(4).len(), 2048 + 1024);
    }

    #[test]
    fn partial_encoding_is_sector_aligned_prefix() {
        let mut b = SegmentBuffer::new(4096, 1024);
        b.append_data(&[3u8; 700]);
        b.push_record(rec(1));
        let (prefix, summary) = b.encode_partial(2);
        assert_eq!(prefix.len(), 1024); // 700 rounded up to 2 sectors.
        assert_eq!(&prefix[..700], &[3u8; 700][..]);
        assert_eq!(summary.len(), 1024);
        assert!(decode_summary(&summary).is_some());
    }

    #[test]
    fn partial_with_no_data_has_empty_prefix() {
        let mut b = SegmentBuffer::new(4096, 1024);
        b.push_record(rec(1));
        let (prefix, _) = b.encode_partial(1);
        assert!(prefix.is_empty());
    }

    #[test]
    fn reset_clears_everything() {
        let mut b = SegmentBuffer::new(1024, 1024);
        b.append_data(&[1u8; 10]);
        b.push_record(rec(1));
        b.compress_us_pending = 55;
        b.reset();
        assert!(b.is_empty());
        assert_eq!(b.compress_us_pending, 0);
        assert_eq!(b.fill_pct(), 0);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn data_overflow_panics() {
        let mut b = SegmentBuffer::new(8, 1024);
        b.append_data(&[0u8; 9]);
    }
}
