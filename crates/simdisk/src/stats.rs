//! Operation and timing statistics for a simulated disk.

/// Counters accumulated by a [`crate::SimDisk`].
///
/// The time fields decompose where simulated disk time went, which the
/// benchmark harness uses to attribute costs (seek-bound vs transfer-bound
/// workloads) when regenerating the paper's tables.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DiskStats {
    /// Number of read requests.
    pub read_ops: u64,
    /// Read requests served entirely from the drive's read-ahead buffer.
    pub cached_reads: u64,
    /// Read requests that missed the read-ahead buffer and went to the
    /// medium (only counted while the drive has a read-ahead buffer, so
    /// `cached_reads + cache_misses == read_ops` on such drives).
    pub cache_misses: u64,
    /// Number of write requests.
    pub write_ops: u64,
    /// Sectors read.
    pub sectors_read: u64,
    /// Sectors written.
    pub sectors_written: u64,
    /// Non-null seeks performed.
    pub seeks: u64,
    /// Time spent seeking, microseconds.
    pub seek_us: u64,
    /// Time spent waiting for rotation, microseconds.
    pub rotation_us: u64,
    /// Time spent transferring data, microseconds.
    pub transfer_us: u64,
    /// Time spent on head/cylinder switches during transfers, microseconds.
    pub switch_us: u64,
    /// Per-command host and controller overhead, microseconds.
    pub overhead_us: u64,
    /// Sector-read attempts failed by the media-fault model.
    pub read_faults: u64,
}

impl DiskStats {
    /// Total time the disk spent servicing requests, microseconds.
    pub fn busy_us(&self) -> u64 {
        self.seek_us + self.rotation_us + self.transfer_us + self.switch_us + self.overhead_us
    }

    /// The mechanical breakdown of [`busy_us`](Self::busy_us) as the
    /// attribution table, with the read-ahead hit and miss counts as its
    /// memo.
    pub fn attribution(&self) -> ld_trace::Attribution {
        ld_trace::Attribution {
            seek_us: self.seek_us,
            rotation_us: self.rotation_us,
            transfer_us: self.transfer_us,
            switch_us: self.switch_us,
            overhead_us: self.overhead_us,
            cache_hits: self.cached_reads,
            cache_misses: self.cache_misses,
        }
    }

    /// Returns `self - earlier`, for measuring a benchmark phase.
    ///
    /// Returns `None` if `earlier` is not actually an earlier snapshot of
    /// the same counter set (any field would underflow) — e.g. snapshots
    /// taken across a [`crate::SimDisk::reset_stats`].
    pub fn delta_since(&self, earlier: &DiskStats) -> Option<DiskStats> {
        Some(DiskStats {
            read_ops: self.read_ops.checked_sub(earlier.read_ops)?,
            cached_reads: self.cached_reads.checked_sub(earlier.cached_reads)?,
            cache_misses: self.cache_misses.checked_sub(earlier.cache_misses)?,
            write_ops: self.write_ops.checked_sub(earlier.write_ops)?,
            sectors_read: self.sectors_read.checked_sub(earlier.sectors_read)?,
            sectors_written: self.sectors_written.checked_sub(earlier.sectors_written)?,
            seeks: self.seeks.checked_sub(earlier.seeks)?,
            seek_us: self.seek_us.checked_sub(earlier.seek_us)?,
            rotation_us: self.rotation_us.checked_sub(earlier.rotation_us)?,
            transfer_us: self.transfer_us.checked_sub(earlier.transfer_us)?,
            switch_us: self.switch_us.checked_sub(earlier.switch_us)?,
            overhead_us: self.overhead_us.checked_sub(earlier.overhead_us)?,
            read_faults: self.read_faults.checked_sub(earlier.read_faults)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_time_sums_components() {
        let s = DiskStats {
            seek_us: 10,
            rotation_us: 20,
            transfer_us: 30,
            switch_us: 5,
            overhead_us: 7,
            ..DiskStats::default()
        };
        assert_eq!(s.busy_us(), 72);
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let a = DiskStats {
            read_ops: 3,
            sectors_read: 24,
            seek_us: 100,
            ..DiskStats::default()
        };
        let b = DiskStats {
            read_ops: 5,
            sectors_read: 40,
            seek_us: 180,
            ..DiskStats::default()
        };
        let d = b.delta_since(&a).expect("b is later than a");
        assert_eq!(d.read_ops, 2);
        assert_eq!(d.sectors_read, 16);
        assert_eq!(d.seek_us, 80);
    }

    // Regression: `delta_since` used to subtract with bare `-`, panicking
    // when the "earlier" snapshot was taken after a stats reset (or from a
    // different disk).
    #[test]
    fn delta_since_underflow_is_none_not_a_panic() {
        let newer = DiskStats {
            read_ops: 3,
            ..DiskStats::default()
        };
        let older = DiskStats {
            read_ops: 5,
            ..DiskStats::default()
        };
        assert_eq!(newer.delta_since(&older), None);
        // The reflexive delta is all-zero, not an error.
        assert_eq!(newer.delta_since(&newer), Some(DiskStats::default()));
    }
}
