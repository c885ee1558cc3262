//! Segment-summary records and their wire format.
//!
//! Every LD state change is logged as a [`Record`] in the summary of the
//! segment being filled (paper §3: "segment summaries are used for logging
//! updates to LD's metadata"). Records carry a timestamp and the paper's
//! "ends an atomic recovery unit" bit (§3.1); recovery replays all records
//! from all summaries in timestamp order, deferring and finally discarding
//! the records of an incomplete trailing ARU.
//!
//! The encoding is deliberately compact — the paper budgets 7 bytes per
//! block entry and 12 per link tuple so that a segment's metadata fits in a
//! summary block. Here: one tag byte, a varint timestamp delta against the
//! previous record, and varint fields. A summary region holds a checksummed
//! header plus the record bodies; an invalid or torn summary fails
//! validation and the whole segment is ignored at recovery.

use ld_core::{wire, ListHints};

/// Magic number identifying a valid segment summary.
const SUMMARY_MAGIC: u32 = 0x4C44_5353; // "LDSS"
/// Summary format version.
const SUMMARY_VERSION: u16 = 1;
/// Bytes of the fixed summary header.
pub const SUMMARY_HEADER_LEN: usize = 4 + 2 + 2 + 8 + 8 + 4 + 4 + 8;

/// A logged state change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record {
    /// Block `bid` allocated on list `lid` with the given size class.
    NewBlock {
        /// The allocated block number.
        bid: u64,
        /// Owning list.
        lid: u64,
        /// Size class in bytes.
        size_class: u32,
    },
    /// Block `bid` freed.
    DeleteBlock {
        /// The freed block number.
        bid: u64,
    },
    /// Block contents written at `offset` in the data region of the segment
    /// whose summary holds this record.
    WriteBlock {
        /// The written block.
        bid: u64,
        /// Byte offset within this segment's data region.
        offset: u32,
        /// Stored (possibly compressed) length in bytes.
        stored_len: u32,
        /// Logical (uncompressed) length in bytes.
        logical_len: u32,
        /// Whether the stored bytes are compressed.
        compressed: bool,
    },
    /// Link tuple: the successor of `bid` in its list is now `next`
    /// (paper §3.1: "a timestamp, a block number, and the new value for the
    /// successor field").
    Link {
        /// The block whose successor changed.
        bid: u64,
        /// New successor, or `None` for end of list.
        next: Option<u64>,
    },
    /// The first block of list `lid` is now `first`.
    ListHead {
        /// The list whose head changed.
        lid: u64,
        /// New first block, or `None` for an empty list.
        first: Option<u64>,
    },
    /// List `lid` created after `pred` in the list of lists.
    NewList {
        /// The created list.
        lid: u64,
        /// Predecessor in the list of lists (`None` = front).
        pred: Option<u64>,
        /// Clustering/compression hints.
        hints: ListHints,
    },
    /// List `lid` deleted (with all its blocks).
    DeleteList {
        /// The deleted list.
        lid: u64,
    },
    /// List `lid` moved after `pred` in the list of lists.
    ListOrder {
        /// The moved list.
        lid: u64,
        /// New predecessor (`None` = front).
        pred: Option<u64>,
    },
    /// Explicit end of an atomic recovery unit.
    EndAru,
    /// The physical contents of `a` and `b` traded places
    /// (`SwapContents`, §5.4).
    Swap {
        /// First block.
        a: u64,
        /// Second block.
        b: u64,
    },
    /// Sector `sector` retired into the persistent bad-block remap table
    /// after a scrub confirmed it unreadable. Medium health is monotone —
    /// a retired sector never comes back — so recovery applies these
    /// regardless of ordering, and the cleaner re-logs them like any other
    /// live metadata.
    RetireSector {
        /// The retired physical sector.
        sector: u64,
    },
    /// Segment `seg` quarantined: its medium is failing, so it is excluded
    /// from allocation and cleaning forever.
    Quarantine {
        /// The quarantined segment.
        seg: u32,
    },
    /// A [`Record::WriteBlock`] naming its segment: block `bid`'s copy lies
    /// at `offset` in segment `seg`'s data region. Logged for every block
    /// on the medium when a segment is retired for a lost summary (whose
    /// `Swap`s moved copies without a `WriteBlock`), and re-logged by the
    /// cleaner for whichever block holds that copy then.
    Locate {
        /// The located block.
        bid: u64,
        /// The segment holding the copy.
        seg: u32,
        /// Byte offset within that segment's data region.
        offset: u32,
        /// Stored (possibly compressed) length in bytes.
        stored_len: u32,
        /// Logical (uncompressed) length in bytes.
        logical_len: u32,
        /// Whether the stored bytes are compressed.
        compressed: bool,
    },
}

/// A record with its timestamp and ARU tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamped {
    /// Global operation timestamp (a monotone counter, not wall clock).
    pub ts: u64,
    /// Whether this record ends an atomic recovery unit. Records issued
    /// outside an explicit ARU each end their own implicit unit, so this is
    /// `true` for them (paper §3.1).
    pub ends_aru: bool,
    /// The explicit atomic recovery unit this record belongs to, if any —
    /// the §5.4 concurrent-ARU extension ("each operation could take an
    /// atomic recovery unit identifier as an argument; BeginARU would
    /// generate these identifiers"). Recovery groups deferred records by
    /// this id and commits each group on its own `EndAru`.
    pub aru: Option<u64>,
    /// The state change itself.
    pub rec: Record,
}

// Record type tags (low nibble of the tag byte).
const T_NEW_BLOCK: u8 = 1;
const T_DELETE_BLOCK: u8 = 2;
const T_WRITE_BLOCK: u8 = 3;
const T_LINK: u8 = 4;
const T_LIST_HEAD: u8 = 5;
const T_NEW_LIST: u8 = 6;
const T_DELETE_LIST: u8 = 7;
const T_LIST_ORDER: u8 = 8;
const T_END_ARU: u8 = 9;
const T_SWAP: u8 = 10;
const T_RETIRE_SECTOR: u8 = 11;
const T_QUARANTINE: u8 = 12;
const T_LOCATE: u8 = 13;
// Tag byte flags.
const F_ENDS_ARU: u8 = 0x80;
const F_COMPRESSED: u8 = 0x40;
const F_HAS_ARU_ID: u8 = 0x20;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *data.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

fn put_opt(out: &mut Vec<u8>, v: Option<u64>) {
    // `None` encodes as 0, `Some(x)` as x + 1.
    put_varint(out, v.map_or(0, |x| x + 1));
}

fn get_opt(data: &[u8], pos: &mut usize) -> Option<Option<u64>> {
    let raw = get_varint(data, pos)?;
    Some(if raw == 0 { None } else { Some(raw - 1) })
}

/// Incrementally builds the record body of a segment summary.
///
/// The segment writer uses [`encoded_len`](Self::encoded_len) to seal the
/// segment before the summary would overflow its fixed region.
#[derive(Debug, Clone)]
pub struct SummaryBuilder {
    body: Vec<u8>,
    base_ts: Option<u64>,
    prev_ts: u64,
    count: u32,
}

impl Default for SummaryBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SummaryBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self {
            body: Vec::new(),
            base_ts: None,
            prev_ts: 0,
            count: 0,
        }
    }

    /// Number of records added.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Bytes the summary would occupy on disk right now (header + body).
    pub fn encoded_len(&self) -> usize {
        SUMMARY_HEADER_LEN + self.body.len()
    }

    /// Worst-case bytes one more record could add to the body (tag byte +
    /// up to six varints: timestamp delta, optional ARU id, four fields).
    pub const MAX_RECORD_LEN: usize = 1 + 10 * 6;

    /// Appends a record.
    ///
    /// # Panics
    ///
    /// Panics if timestamps are not monotonically non-decreasing — the
    /// writer owns the global counter, so a violation is a logic error.
    pub fn push(&mut self, s: Stamped) {
        let base = *self.base_ts.get_or_insert(s.ts);
        assert!(
            s.ts >= base && s.ts >= self.prev_ts,
            "timestamps must be monotone"
        );
        let delta = s.ts - self.prev_ts.max(base);
        let mut tag = match s.rec {
            Record::NewBlock { .. } => T_NEW_BLOCK,
            Record::DeleteBlock { .. } => T_DELETE_BLOCK,
            Record::WriteBlock { .. } => T_WRITE_BLOCK,
            Record::Link { .. } => T_LINK,
            Record::ListHead { .. } => T_LIST_HEAD,
            Record::NewList { .. } => T_NEW_LIST,
            Record::DeleteList { .. } => T_DELETE_LIST,
            Record::ListOrder { .. } => T_LIST_ORDER,
            Record::EndAru => T_END_ARU,
            Record::Swap { .. } => T_SWAP,
            Record::RetireSector { .. } => T_RETIRE_SECTOR,
            Record::Quarantine { .. } => T_QUARANTINE,
            Record::Locate { .. } => T_LOCATE,
        };
        if s.ends_aru {
            tag |= F_ENDS_ARU;
        }
        if let Record::WriteBlock {
            compressed: true, ..
        }
        | Record::Locate {
            compressed: true, ..
        } = s.rec
        {
            tag |= F_COMPRESSED;
        }
        if s.aru.is_some() {
            tag |= F_HAS_ARU_ID;
        }
        self.body.push(tag);
        put_varint(&mut self.body, delta);
        if let Some(id) = s.aru {
            put_varint(&mut self.body, id);
        }
        match s.rec {
            Record::NewBlock {
                bid,
                lid,
                size_class,
            } => {
                put_varint(&mut self.body, bid);
                put_varint(&mut self.body, lid);
                put_varint(&mut self.body, u64::from(size_class));
            }
            Record::DeleteBlock { bid } => put_varint(&mut self.body, bid),
            Record::WriteBlock {
                bid,
                offset,
                stored_len,
                logical_len,
                compressed: _,
            } => {
                put_varint(&mut self.body, bid);
                put_varint(&mut self.body, u64::from(offset));
                put_varint(&mut self.body, u64::from(stored_len));
                put_varint(&mut self.body, u64::from(logical_len));
            }
            Record::Link { bid, next } => {
                put_varint(&mut self.body, bid);
                put_opt(&mut self.body, next);
            }
            Record::ListHead { lid, first } => {
                put_varint(&mut self.body, lid);
                put_opt(&mut self.body, first);
            }
            Record::NewList { lid, pred, hints } => {
                put_varint(&mut self.body, lid);
                put_opt(&mut self.body, pred);
                put_varint(&mut self.body, u64::from(hints.to_bits()));
            }
            Record::DeleteList { lid } => put_varint(&mut self.body, lid),
            Record::ListOrder { lid, pred } => {
                put_varint(&mut self.body, lid);
                put_opt(&mut self.body, pred);
            }
            Record::EndAru => {}
            Record::Swap { a, b } => {
                put_varint(&mut self.body, a);
                put_varint(&mut self.body, b);
            }
            Record::RetireSector { sector } => put_varint(&mut self.body, sector),
            Record::Quarantine { seg } => put_varint(&mut self.body, u64::from(seg)),
            Record::Locate {
                bid,
                seg,
                offset,
                stored_len,
                logical_len,
                compressed: _,
            } => {
                // Segment and offset share a varint, so the record has
                // the four fields `MAX_RECORD_LEN` allows for.
                put_varint(&mut self.body, bid);
                put_varint(&mut self.body, u64::from(seg) << 32 | u64::from(offset));
                put_varint(&mut self.body, u64::from(stored_len));
                put_varint(&mut self.body, u64::from(logical_len));
            }
        }
        self.prev_ts = s.ts;
        self.count += 1;
    }

    /// Serializes the summary into exactly `summary_bytes` bytes (padded
    /// with zeroes), stamped with the physical-write sequence number `seq`.
    ///
    /// # Panics
    ///
    /// Panics if the summary does not fit — the writer must seal earlier.
    pub fn finish(&self, seq: u64, summary_bytes: usize) -> Vec<u8> {
        assert!(
            self.encoded_len() <= summary_bytes,
            "summary overflow: {} > {summary_bytes}",
            self.encoded_len()
        );
        let mut out = Vec::with_capacity(summary_bytes);
        out.extend_from_slice(&SUMMARY_MAGIC.to_le_bytes());
        out.extend_from_slice(&SUMMARY_VERSION.to_le_bytes());
        out.extend_from_slice(&[0u8; 2]); // Reserved.
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(&self.base_ts.unwrap_or(0).to_le_bytes());
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&(self.body.len() as u32).to_le_bytes());
        // The checksum covers the variable header fields (a corrupt seq or
        // base timestamp would silently misorder recovery) and the body.
        let mut hashed = out[8..32].to_vec();
        hashed.extend_from_slice(&self.body);
        out.extend_from_slice(&wire::fnv1a64(&hashed).to_le_bytes());
        out.extend_from_slice(&self.body);
        out.resize(summary_bytes, 0);
        out
    }
}

/// A decoded segment summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    /// Physical-write sequence number: strictly increasing across every
    /// segment write, used to order two copies of records with equal
    /// timestamps (a partial segment superseded by its sealed form, §3.2).
    pub seq: u64,
    /// The records, in the order they were logged.
    pub records: Vec<Stamped>,
}

/// Decodes a summary region read from disk. Returns `None` when the region
/// does not contain a valid summary (never-written, torn, or corrupt) —
/// recovery then ignores the whole segment.
pub fn decode_summary(data: &[u8]) -> Option<Summary> {
    if data.len() < SUMMARY_HEADER_LEN {
        return None;
    }
    let magic = wire::le_u32(data, 0);
    let version = wire::le_u16(data, 4);
    if magic != SUMMARY_MAGIC || version != SUMMARY_VERSION || data[6] != 0 || data[7] != 0 {
        return None;
    }
    let seq = wire::le_u64(data, 8);
    let base_ts = wire::le_u64(data, 16);
    let count = wire::le_u32(data, 24);
    let body_len = wire::le_u32(data, 28) as usize;
    let checksum = wire::le_u64(data, 32);
    let body = data.get(SUMMARY_HEADER_LEN..SUMMARY_HEADER_LEN + body_len)?;
    if wire::fnv1a64_extend(wire::fnv1a64(&data[8..32]), body) != checksum {
        return None;
    }

    let mut records = Vec::with_capacity(count as usize);
    let mut pos = 0usize;
    let mut prev_ts = base_ts;
    for _ in 0..count {
        let tag = *body.get(pos)?;
        pos += 1;
        let ends_aru = tag & F_ENDS_ARU != 0;
        let compressed = tag & F_COMPRESSED != 0;
        let delta = get_varint(body, &mut pos)?;
        let ts = prev_ts + delta;
        let aru = if tag & F_HAS_ARU_ID != 0 {
            Some(get_varint(body, &mut pos)?)
        } else {
            None
        };
        let rec = match tag & 0x0F {
            T_NEW_BLOCK => Record::NewBlock {
                bid: get_varint(body, &mut pos)?,
                lid: get_varint(body, &mut pos)?,
                size_class: get_varint(body, &mut pos)? as u32,
            },
            T_DELETE_BLOCK => Record::DeleteBlock {
                bid: get_varint(body, &mut pos)?,
            },
            T_WRITE_BLOCK => Record::WriteBlock {
                bid: get_varint(body, &mut pos)?,
                offset: get_varint(body, &mut pos)? as u32,
                stored_len: get_varint(body, &mut pos)? as u32,
                logical_len: get_varint(body, &mut pos)? as u32,
                compressed,
            },
            T_LINK => Record::Link {
                bid: get_varint(body, &mut pos)?,
                next: get_opt(body, &mut pos)?,
            },
            T_LIST_HEAD => Record::ListHead {
                lid: get_varint(body, &mut pos)?,
                first: get_opt(body, &mut pos)?,
            },
            T_NEW_LIST => {
                let lid = get_varint(body, &mut pos)?;
                let pred = get_opt(body, &mut pos)?;
                let bits = get_varint(body, &mut pos)?;
                Record::NewList {
                    lid,
                    pred,
                    // Only the low three bits carry hints.
                    hints: ListHints::from_bits(bits as u8),
                }
            }
            T_DELETE_LIST => Record::DeleteList {
                lid: get_varint(body, &mut pos)?,
            },
            T_LIST_ORDER => Record::ListOrder {
                lid: get_varint(body, &mut pos)?,
                pred: get_opt(body, &mut pos)?,
            },
            T_END_ARU => Record::EndAru,
            T_SWAP => Record::Swap {
                a: get_varint(body, &mut pos)?,
                b: get_varint(body, &mut pos)?,
            },
            T_RETIRE_SECTOR => Record::RetireSector {
                sector: get_varint(body, &mut pos)?,
            },
            T_QUARANTINE => Record::Quarantine {
                seg: get_varint(body, &mut pos)? as u32,
            },
            T_LOCATE => {
                let bid = get_varint(body, &mut pos)?;
                let at = get_varint(body, &mut pos)?;
                Record::Locate {
                    bid,
                    seg: u32::try_from(at >> 32).ok()?,
                    offset: at as u32,
                    stored_len: get_varint(body, &mut pos)? as u32,
                    logical_len: get_varint(body, &mut pos)? as u32,
                    compressed,
                }
            }
            _ => return None,
        };
        records.push(Stamped {
            ts,
            ends_aru,
            aru,
            rec,
        });
        prev_ts = ts;
    }
    if pos != body_len {
        return None;
    }
    Some(Summary { seq, records })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Stamped> {
        vec![
            Stamped {
                ts: 100,
                ends_aru: true,
                aru: None,
                rec: Record::NewList {
                    lid: 1,
                    pred: None,
                    hints: ListHints::compressed(),
                },
            },
            Stamped {
                ts: 101,
                ends_aru: false,
                aru: None,
                rec: Record::NewBlock {
                    bid: 7,
                    lid: 1,
                    size_class: 4096,
                },
            },
            Stamped {
                ts: 101,
                ends_aru: false,
                aru: None,
                rec: Record::ListHead {
                    lid: 1,
                    first: Some(7),
                },
            },
            Stamped {
                ts: 102,
                ends_aru: false,
                aru: None,
                rec: Record::WriteBlock {
                    bid: 7,
                    offset: 0,
                    stored_len: 2048,
                    logical_len: 4096,
                    compressed: true,
                },
            },
            Stamped {
                ts: 103,
                ends_aru: false,
                aru: None,
                rec: Record::Link { bid: 7, next: None },
            },
            Stamped {
                ts: 104,
                ends_aru: true,
                aru: None,
                rec: Record::EndAru,
            },
            Stamped {
                ts: 110,
                ends_aru: true,
                aru: None,
                rec: Record::DeleteBlock { bid: 7 },
            },
            Stamped {
                ts: 111,
                ends_aru: true,
                aru: None,
                rec: Record::ListOrder {
                    lid: 1,
                    pred: Some(0),
                },
            },
            Stamped {
                ts: 112,
                ends_aru: true,
                aru: None,
                rec: Record::DeleteList { lid: 1 },
            },
            Stamped {
                ts: 113,
                ends_aru: true,
                aru: None,
                rec: Record::Swap { a: 3, b: 9 },
            },
            Stamped {
                ts: 114,
                ends_aru: true,
                aru: None,
                rec: Record::RetireSector { sector: 123_456 },
            },
            Stamped {
                ts: 114,
                ends_aru: true,
                aru: None,
                rec: Record::Quarantine { seg: 17 },
            },
            Stamped {
                ts: 115,
                ends_aru: true,
                aru: None,
                rec: Record::Locate {
                    bid: u64::MAX >> 1,
                    seg: u32::MAX,
                    offset: u32::MAX,
                    stored_len: u32::MAX,
                    logical_len: u32::MAX,
                    compressed: true,
                },
            },
        ]
    }

    #[test]
    fn summary_roundtrip() {
        let mut b = SummaryBuilder::new();
        for r in sample_records() {
            b.push(r);
        }
        let bytes = b.finish(42, 4096);
        assert_eq!(bytes.len(), 4096);
        let s = decode_summary(&bytes).expect("valid summary");
        assert_eq!(s.seq, 42);
        assert_eq!(s.records, sample_records());
    }

    /// Pins the summary format: the stored checksum and the FNV-1a of the
    /// whole region for the sample records, and for an empty summary.
    #[test]
    fn summary_bytes_match_golden_checksums() {
        let mut b = SummaryBuilder::new();
        for r in sample_records() {
            b.push(r);
        }
        let full = b.finish(42, 4096);
        let empty = SummaryBuilder::new().finish(1, 512);
        let pin = |bytes: &[u8]| (wire::le_u64(bytes, 32), wire::fnv1a64(bytes));
        assert_eq!(pin(&full), (0xd29b_3ca4_d67d_a7e2, 0x4a83_0587_1ab1_66c8));
        assert_eq!(pin(&empty), (0x5b2a_969b_42d2_38a4, 0x3f44_e94a_7644_9665));
    }

    #[test]
    fn empty_summary_roundtrips() {
        let b = SummaryBuilder::new();
        let bytes = b.finish(1, 512);
        let s = decode_summary(&bytes).unwrap();
        assert_eq!(s.seq, 1);
        assert!(s.records.is_empty());
    }

    #[test]
    fn zeroed_region_is_not_a_summary() {
        assert_eq!(decode_summary(&[0u8; 4096]), None);
        assert_eq!(decode_summary(&[]), None);
    }

    #[test]
    fn corruption_anywhere_invalidates() {
        let mut b = SummaryBuilder::new();
        for r in sample_records() {
            b.push(r);
        }
        let bytes = b.finish(42, 4096);
        // Flip only header + encoded body bytes; padding is not covered.
        let used = b.encoded_len();
        for i in 0..used {
            let mut c = bytes.clone();
            c[i] ^= 0x01;
            let decoded = decode_summary(&c);
            // Either rejected outright or decodes to something different;
            // never a panic. (A flip in padding is impossible here because
            // we only flip used bytes.)
            if let Some(s) = decoded {
                assert_ne!(s.records, sample_records(), "flip at {i} went unnoticed");
            }
        }
    }

    #[test]
    fn truncated_summaries_are_rejected_not_panicking() {
        let mut b = SummaryBuilder::new();
        for r in sample_records() {
            b.push(r);
        }
        let bytes = b.finish(7, 4096);
        for l in 0..SUMMARY_HEADER_LEN + 32 {
            assert_eq!(decode_summary(&bytes[..l]), None);
        }
    }

    #[test]
    fn encoded_len_grows_monotonically_and_bounds_hold() {
        let mut b = SummaryBuilder::new();
        let mut prev = b.encoded_len();
        assert_eq!(prev, SUMMARY_HEADER_LEN);
        for (i, r) in sample_records().into_iter().enumerate() {
            b.push(r);
            let now = b.encoded_len();
            assert!(now > prev);
            assert!(
                now - prev <= SummaryBuilder::MAX_RECORD_LEN,
                "record {i} exceeded MAX_RECORD_LEN"
            );
            prev = now;
        }
    }

    #[test]
    fn varint_roundtrips_edge_values() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn fnv_matches_known_vector() {
        // FNV-1a("") and FNV-1a("a") published test vectors.
        assert_eq!(wire::fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(wire::fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
    }
}
