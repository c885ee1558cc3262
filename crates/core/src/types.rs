//! Identifier and parameter types of the LD interface.

/// A logical block number ("Bid" in the paper's Table 1).
///
/// Block numbers are location-independent names: the file system addresses
/// blocks by `Bid` and LD is free to move the physical data at any time. A
/// `Bid` stays valid from `NewBlock` until `DeleteBlock` (or until its list
/// is deleted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bid(pub u64);

impl std::fmt::Display for Bid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// A block-list identifier ("Lid" in the paper's Table 1).
///
/// Lists express logical relationships between blocks; LD uses them for
/// physical clustering (intrafile and interfile) and, optionally, for
/// per-list compression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lid(pub u64);

impl std::fmt::Display for Lid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Insertion position within a block list.
///
/// The paper encodes "insert at the beginning" as a special `PredBid` value;
/// an enum expresses the same thing without a sentinel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pred {
    /// Insert as the first block of the list.
    Start,
    /// Insert immediately after this block, which must be on the list.
    After(Bid),
}

/// Insertion position within the list of lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredList {
    /// Insert at the front of the list of lists.
    Start,
    /// Insert immediately after this list.
    After(Lid),
}

/// Per-list placement and representation hints passed to `NewList`
/// (paper §2.2: "whether the blocks in this list should be compressed and/or
/// clustered, and whether the list itself should be clustered near its
/// predecessor").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListHints {
    /// Physically cluster the blocks of this list in list order.
    pub cluster: bool,
    /// Transparently compress the blocks of this list.
    pub compress: bool,
    /// Place this list near its predecessor in the list of lists.
    pub interlist_cluster: bool,
}

impl Default for ListHints {
    fn default() -> Self {
        Self {
            cluster: true,
            compress: false,
            interlist_cluster: true,
        }
    }
}

impl ListHints {
    /// Hints requesting transparent compression as well as clustering.
    pub fn compressed() -> Self {
        Self {
            compress: true,
            ..Self::default()
        }
    }

    /// The on-disk form: bit 0 `cluster`, bit 1 `compress`, bit 2
    /// `interlist_cluster`.
    pub fn to_bits(self) -> u8 {
        u8::from(self.cluster)
            | u8::from(self.compress) << 1
            | u8::from(self.interlist_cluster) << 2
    }

    /// Inverse of [`to_bits`](Self::to_bits); higher bits are ignored.
    pub fn from_bits(bits: u8) -> Self {
        Self {
            cluster: bits & 1 != 0,
            compress: bits & 2 != 0,
            interlist_cluster: bits & 4 != 0,
        }
    }
}

/// The failure classes a `Flush` must survive (paper Table 1:
/// `Flush(FailureSet)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailureSet {
    /// Power loss / system crash: volatile state is lost, the medium
    /// survives. This is the failure class every implementation must handle.
    #[default]
    PowerFailure,
}

/// Handle for a physical-space reservation (paper §2.2: primitives "for
/// reserving physical disk space for logical blocks and for cancelling such
/// reservations", addressing file systems that cannot handle late `write`
/// failures due to lack of space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReservationId(pub u64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(Bid(7).to_string(), "b7");
        assert_eq!(Lid(3).to_string(), "l3");
    }

    #[test]
    fn default_hints_cluster_but_do_not_compress() {
        let h = ListHints::default();
        assert!(h.cluster && h.interlist_cluster && !h.compress);
        assert!(ListHints::compressed().compress);
    }
}
