//! Configuration of the log-structured Logical Disk.

use crate::cleaner::CleaningPolicy;

/// Default block size class (paper: 4 KB).
pub(crate) const DEFAULT_BLOCK_SIZE: usize = 4096;
const _: () = assert!(DEFAULT_BLOCK_SIZE > 0);

/// Modeled CPU costs charged to the simulated clock per LD operation.
///
/// The paper measured on a 33 MHz SPARCstation; these constants let the
/// CPU-bound effects it reports (most prominently the ~15 % list-maintenance
/// overhead during create/delete phases, §4.2) show up in simulated time.
/// Set everything to zero for a pure-I/O model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuModel {
    /// Cost of one LD command dispatch (argument checking, map lookup).
    pub per_command_us: u64,
    /// Cost of copying/checksumming one block into the segment buffer, per
    /// 4 KB of data.
    pub per_block_copy_us: u64,
    /// Cost of one list-maintenance step (link-tuple creation, predecessor
    /// search step, list-head update).
    pub per_list_op_us: u64,
}

impl Default for CpuModel {
    fn default() -> Self {
        Self {
            per_command_us: 30,
            per_block_copy_us: 120,
            per_list_op_us: 60,
        }
    }
}

impl CpuModel {
    /// A model with no CPU cost at all.
    pub fn free() -> Self {
        Self {
            per_command_us: 0,
            per_block_copy_us: 0,
            per_list_op_us: 0,
        }
    }
}

/// Configuration for [`crate::Lld`].
#[derive(Debug, Clone)]
pub struct LldConfig {
    /// Segment size in bytes (paper default: 512 KB; §4.2 sweeps 64–512 KB).
    pub segment_bytes: usize,
    /// Bytes at the fixed end of each segment reserved for the segment
    /// summary. Must be a multiple of the sector size.
    pub summary_bytes: usize,
    /// Fill fraction (percent) above which a `Flush` seals the segment as
    /// full instead of writing a partial segment (paper §3.2: "for example,
    /// 75% of its capacity").
    pub flush_threshold_pct: u32,
    /// Segments withheld from payload capacity so the cleaner always has
    /// room to compact into.
    pub cleaning_reserve_segments: u32,
    /// Which segments the cleaner picks first.
    pub cleaning_policy: CleaningPolicy,
    /// Maintain block lists (link tuples, clustering). Disabled only by the
    /// §4.2 list-overhead experiment; recovery of list structure is
    /// unsupported while disabled.
    pub maintain_lists: bool,
    /// Modeled CPU costs.
    pub cpu: CpuModel,
    /// Modeled compression bandwidth (see [`ldcomp::CostModel`]).
    pub compression_cost: ldcomp::CostModel,
    /// Read attempts per sector span before LLD declares it unreadable
    /// (bounded retry against transient media faults; each failed attempt
    /// costs real simulated disk time). Clamped to at least 1.
    pub read_retries: u32,
    /// Tagged-command-queue depth. `0` disables queueing entirely — every
    /// request takes the direct depth-1 path, bit-identical to an LLD
    /// built without the queue. `1` routes segment writes through the
    /// queue but drains synchronously after each submit (identical
    /// timing; exercised by the differential test). `>= 2` additionally
    /// enables batched cleaner victim reads at this depth. The recovery
    /// sweep plans its own reads and takes no part in queueing at any
    /// depth.
    pub queue_depth: u32,
    /// Sealed segments allowed in flight (submitted but not yet on the
    /// medium) before a seal blocks and drains — write-behind. Clamped to
    /// `queue_depth - 1`; meaningless when `queue_depth <= 1`. A crash
    /// loses at most the in-flight (unacknowledged) seals, never an
    /// acknowledged flush.
    pub writeback_depth: u32,
    /// Scheduler ordering queued requests (see [`simdisk::Scheduler`]).
    /// Writes always dispatch in submission order regardless of policy;
    /// the scheduler only reorders reads between them.
    pub scheduler: simdisk::Scheduler,
}

impl Default for LldConfig {
    fn default() -> Self {
        Self {
            segment_bytes: 512 << 10,
            summary_bytes: 8 << 10,
            flush_threshold_pct: 75,
            cleaning_reserve_segments: 4,
            cleaning_policy: CleaningPolicy::CostBenefit,
            maintain_lists: true,
            cpu: CpuModel::default(),
            compression_cost: ldcomp::CostModel::default(),
            read_retries: 4,
            queue_depth: 0,
            writeback_depth: 0,
            scheduler: simdisk::Scheduler::Fcfs,
        }
    }
}

impl LldConfig {
    /// A configuration convenient for unit tests: small segments, no CPU
    /// model, greedy cleaning.
    pub fn small_for_tests() -> Self {
        Self {
            segment_bytes: 64 << 10,
            summary_bytes: 4 << 10,
            flush_threshold_pct: 75,
            cleaning_reserve_segments: 3,
            cleaning_policy: CleaningPolicy::Greedy,
            cpu: CpuModel::free(),
            compression_cost: ldcomp::CostModel::free(),
            ..Self::default()
        }
    }

    /// Payload bytes available in each segment.
    pub fn segment_data_bytes(&self) -> usize {
        self.segment_bytes - self.summary_bytes
    }

    /// Sealed segments allowed in flight after a seal submits — the
    /// write-behind allowance actually applied at runtime (the configured
    /// `writeback_depth` clamped to the queue capacity).
    pub fn writeback_allowance(&self) -> usize {
        if self.queue_depth <= 1 {
            0
        } else {
            self.writeback_depth.min(self.queue_depth - 1) as usize
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical configurations (zero sizes, summary larger
    /// than the segment, misaligned sizes) — these are programming errors,
    /// not runtime conditions.
    pub fn validate(&self) {
        let sector = simdisk::SECTOR_SIZE;
        assert!(self.segment_bytes > 0 && self.segment_bytes.is_multiple_of(sector));
        assert!(self.summary_bytes >= sector && self.summary_bytes.is_multiple_of(sector));
        assert!(
            self.summary_bytes < self.segment_bytes,
            "summary must leave room for data"
        );
        assert!(
            DEFAULT_BLOCK_SIZE <= self.segment_data_bytes(),
            "a block must fit in one segment"
        );
        assert!((1..=100).contains(&self.flush_threshold_pct));
        assert!(
            self.cleaning_reserve_segments >= 2,
            "cleaner needs headroom"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid_and_paper_shaped() {
        let c = LldConfig::default();
        c.validate();
        assert_eq!(c.segment_bytes, 512 << 10);
        assert_eq!(c.flush_threshold_pct, 75);
        let ld = crate::Lld::format(simdisk::MemDisk::with_capacity(8 << 20), c).unwrap();
        assert_eq!(ld_core::LogicalDisk::default_block_size(&ld), 4096);
    }

    #[test]
    #[should_panic(expected = "room for data")]
    fn oversized_summary_rejected() {
        let c = LldConfig {
            summary_bytes: 64 << 10,
            segment_bytes: 64 << 10,
            ..LldConfig::default()
        };
        c.validate();
    }

    #[test]
    fn segment_data_bytes_excludes_summary() {
        let c = LldConfig::default();
        assert_eq!(c.segment_data_bytes(), (512 << 10) - (8 << 10));
    }
}
