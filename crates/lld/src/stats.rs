//! Operation counters exposed by LLD for the benchmark harness.

/// Counters accumulated by [`crate::Lld`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LldStats {
    /// Full segments written (sealed).
    pub segments_sealed: u64,
    /// Partial segments written by `Flush` below the threshold (§3.2).
    pub partial_segment_writes: u64,
    /// `Flush` calls that sealed because the fill was above the threshold.
    pub flush_seals: u64,
    /// Logical block writes accepted from the file system.
    pub block_writes: u64,
    /// Logical block reads served.
    pub block_reads: u64,
    /// Block reads served from the in-memory open segment.
    pub block_reads_from_memory: u64,
    /// Payload bytes accepted from the file system.
    pub user_bytes_written: u64,
    /// Payload bytes after compression (equals `user_bytes_written` when
    /// compression is off).
    pub stored_bytes_written: u64,
    /// Link tuples and other list records logged (the §4.2 list-overhead
    /// experiment reads this).
    pub list_records_logged: u64,
    /// All records logged.
    pub records_logged: u64,
    /// Cleaner invocations.
    pub cleaner_runs: u64,
    /// Segments reclaimed by the cleaner.
    pub segments_cleaned: u64,
    /// Live bytes the cleaner copied forward (write amplification).
    pub cleaner_bytes_copied: u64,
    /// Sectors the cleaner asked the disk for: each victim's span (from its
    /// first live sector through its summary), and in the fallback the
    /// summary and each live block (retries not counted again).
    pub cleaner_sectors_read: u64,
    /// Records the cleaner re-logged to keep metadata recoverable.
    pub cleaner_records_relogged: u64,
    /// Records re-logged because a retired segment's summary was lost:
    /// every live list and block, so that no summary a sweep cannot read
    /// is the only copy of a live record.
    pub retire_records_relogged: u64,
    /// Segments rewritten by the reorganizer.
    pub reorganized_lists: u64,
    /// Segment summaries read by the last recovery sweep.
    pub recovery_summaries_read: u64,
    /// Simulated microseconds the last recovery took.
    pub recovery_us: u64,
    /// Records discarded at recovery as part of an incomplete trailing ARU.
    pub recovery_records_discarded: u64,
    /// Blocks dropped at recovery because no surviving record named their
    /// owning list (diagnostic; should be zero).
    pub recovery_orphans: u64,
    /// Below-threshold flushes absorbed by NVRAM instead of partial
    /// segment writes (§5.3 extension).
    pub nvram_saves: u64,
    /// Read attempts that failed on a media fault and were re-driven.
    pub retries: u64,
    /// Sectors retired into the persistent bad-block remap table.
    pub remapped_sectors: u64,
    /// Block reads (or scrub evacuations) that stayed unreadable after
    /// all retry attempts — data loss the caller was told about.
    pub unreadable_blocks: u64,
    /// Segment writes (seals and partial-flush images) submitted through
    /// the tagged command queue instead of the direct path.
    pub queued_segment_writes: u64,
    /// Reads submitted through the queue: the cleaner's batched victim
    /// prefetches. The recovery sweep reads directly, so it adds none.
    pub queued_reads: u64,
    /// Times a non-empty queue was drained to empty (every read, flush,
    /// and checkpoint fences behind all in-flight writes).
    pub queue_drains: u64,
    /// Whether the last recovery materialized an NVRAM-held segment tail.
    pub recovery_nvram_applied: bool,
    /// Whether the last startup used the clean-shutdown checkpoint instead
    /// of the recovery sweep.
    pub recovered_from_checkpoint: bool,
}

impl LldStats {
    /// Returns `self - earlier` on the monotone counters, for measuring a
    /// benchmark phase. The point-in-time fields (`recovery_*` snapshots
    /// of the last recovery, the two booleans) are carried over from
    /// `self` rather than subtracted.
    ///
    /// Returns `None` if `earlier` is not actually an earlier snapshot of
    /// the same counter set (any counter would underflow), e.g. across a
    /// [`crate::Lld::reset_stats`].
    pub fn delta_since(&self, earlier: &LldStats) -> Option<LldStats> {
        Some(LldStats {
            segments_sealed: self.segments_sealed.checked_sub(earlier.segments_sealed)?,
            partial_segment_writes: self
                .partial_segment_writes
                .checked_sub(earlier.partial_segment_writes)?,
            flush_seals: self.flush_seals.checked_sub(earlier.flush_seals)?,
            block_writes: self.block_writes.checked_sub(earlier.block_writes)?,
            block_reads: self.block_reads.checked_sub(earlier.block_reads)?,
            block_reads_from_memory: self
                .block_reads_from_memory
                .checked_sub(earlier.block_reads_from_memory)?,
            user_bytes_written: self
                .user_bytes_written
                .checked_sub(earlier.user_bytes_written)?,
            stored_bytes_written: self
                .stored_bytes_written
                .checked_sub(earlier.stored_bytes_written)?,
            list_records_logged: self
                .list_records_logged
                .checked_sub(earlier.list_records_logged)?,
            records_logged: self.records_logged.checked_sub(earlier.records_logged)?,
            cleaner_runs: self.cleaner_runs.checked_sub(earlier.cleaner_runs)?,
            segments_cleaned: self
                .segments_cleaned
                .checked_sub(earlier.segments_cleaned)?,
            cleaner_bytes_copied: self
                .cleaner_bytes_copied
                .checked_sub(earlier.cleaner_bytes_copied)?,
            cleaner_sectors_read: self
                .cleaner_sectors_read
                .checked_sub(earlier.cleaner_sectors_read)?,
            cleaner_records_relogged: self
                .cleaner_records_relogged
                .checked_sub(earlier.cleaner_records_relogged)?,
            retire_records_relogged: self
                .retire_records_relogged
                .checked_sub(earlier.retire_records_relogged)?,
            reorganized_lists: self
                .reorganized_lists
                .checked_sub(earlier.reorganized_lists)?,
            nvram_saves: self.nvram_saves.checked_sub(earlier.nvram_saves)?,
            retries: self.retries.checked_sub(earlier.retries)?,
            remapped_sectors: self
                .remapped_sectors
                .checked_sub(earlier.remapped_sectors)?,
            unreadable_blocks: self
                .unreadable_blocks
                .checked_sub(earlier.unreadable_blocks)?,
            queued_segment_writes: self
                .queued_segment_writes
                .checked_sub(earlier.queued_segment_writes)?,
            queued_reads: self.queued_reads.checked_sub(earlier.queued_reads)?,
            queue_drains: self.queue_drains.checked_sub(earlier.queue_drains)?,
            recovery_summaries_read: self.recovery_summaries_read,
            recovery_us: self.recovery_us,
            recovery_records_discarded: self.recovery_records_discarded,
            recovery_orphans: self.recovery_orphans,
            recovery_nvram_applied: self.recovery_nvram_applied,
            recovered_from_checkpoint: self.recovered_from_checkpoint,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_default_to_zero() {
        let s = LldStats::default();
        assert_eq!(s.segments_sealed, 0);
        assert!(!s.recovered_from_checkpoint);
    }

    #[test]
    fn delta_subtracts_counters_and_keeps_snapshots() {
        let earlier = LldStats {
            segments_sealed: 2,
            block_writes: 10,
            ..LldStats::default()
        };
        let later = LldStats {
            segments_sealed: 5,
            block_writes: 25,
            recovery_us: 999,
            recovered_from_checkpoint: true,
            ..LldStats::default()
        };
        let d = later.delta_since(&earlier).expect("later is later");
        assert_eq!(d.segments_sealed, 3);
        assert_eq!(d.block_writes, 15);
        // Point-in-time fields carry over, not subtract.
        assert_eq!(d.recovery_us, 999);
        assert!(d.recovered_from_checkpoint);
        // Underflow is an absent delta, not a panic.
        assert_eq!(earlier.delta_since(&later), None);
    }
}
