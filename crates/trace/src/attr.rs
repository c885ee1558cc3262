//! Mechanical time attribution.
//!
//! The table of where simulated disk busy time went, keyed by the
//! mechanical component that consumed it. The disk's own counters fill
//! it (`simdisk::DiskStats::attribution` over a run's delta), so it sums
//! to precisely the disk's `busy_us()` over that span. A trace whose ring
//! dropped nothing must account for it event by event
//! ([`crate::verify_jsonl`]).

/// Where simulated disk busy time went, in microseconds. The five
/// components mirror `DiskStats` and sum exactly to its `busy_us()`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Attribution {
    /// Arm movement.
    pub seek_us: u64,
    /// Rotational latency.
    pub rotation_us: u64,
    /// Data transfer (media or bus rate).
    pub transfer_us: u64,
    /// Head/cylinder switches during transfers.
    pub switch_us: u64,
    /// Per-command host and controller overhead.
    pub overhead_us: u64,
    /// Memo: read requests served from the drive's read-ahead buffer.
    /// Counts, not time — a hit's (bus-rate) time is already inside the
    /// transfer/overhead components.
    pub cache_hits: u64,
    /// Memo: read requests that missed the read-ahead buffer and went to
    /// the medium.
    pub cache_misses: u64,
}

impl Attribution {
    /// Total attributed busy time — by construction the exact sum of the
    /// five components.
    pub fn busy_us(&self) -> u64 {
        self.seek_us + self.rotation_us + self.transfer_us + self.switch_us + self.overhead_us
    }

    /// The components as `(label, us)` pairs, fixed order.
    pub fn components(&self) -> [(&'static str, u64); 5] {
        [
            ("seek", self.seek_us),
            ("rotation", self.rotation_us),
            ("transfer", self.transfer_us),
            ("switch", self.switch_us),
            ("overhead", self.overhead_us),
        ]
    }

    /// Renders the attribution table. The `us` column sums exactly to
    /// the printed total.
    pub fn render(&self) -> String {
        let busy = self.busy_us();
        let mut out = String::from("component        us      share\n");
        out.push_str("---------------------------------\n");
        for (label, us) in self.components() {
            let (p, t) = pct(us, busy);
            out.push_str(&format!("{label:<10} {us:>12}     {p:>3}.{t}%\n"));
        }
        out.push_str(&format!("{:<10} {busy:>12}    100.0%\n", "busy"));
        if self.cache_hits > 0 || self.cache_misses > 0 {
            // Memo row: request counts, not time — hit time is bus-rate
            // transfer + overhead, already inside the components above.
            let (p, t) = pct(self.cache_hits, self.cache_hits + self.cache_misses);
            out.push_str(&format!(
                "{:<10} {:>6} hits / {} misses  ({p:>3}.{t}% hit rate)\n",
                "readahead", self.cache_hits, self.cache_misses,
            ));
        }
        out
    }

    /// One-line summary for table footnotes.
    pub fn footnote(&self) -> String {
        let busy = self.busy_us();
        let parts: Vec<String> = self
            .components()
            .into_iter()
            .map(|(label, us)| {
                let (p, t) = pct(us, busy);
                format!("{label} {us} ({p}.{t}%)")
            })
            .collect();
        let mut out = format!("{} = busy {busy} us", parts.join(" + "));
        if self.cache_hits > 0 || self.cache_misses > 0 {
            out.push_str(&format!(
                " [readahead {} hits / {} misses]",
                self.cache_hits, self.cache_misses
            ));
        }
        out
    }
}

/// `part / whole` in integer tenths of a percent (no float formatting
/// drift), as (percent, tenth); 0 when `whole` is 0.
fn pct(part: u64, whole: u64) -> (u64, u64) {
    let tenths = (part * 1000).checked_div(whole).unwrap_or(0);
    (tenths / 10, tenths % 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_sum_to_busy() {
        let a = Attribution {
            seek_us: 10,
            rotation_us: 20,
            transfer_us: 30,
            switch_us: 5,
            overhead_us: 7,
            ..Attribution::default()
        };
        assert_eq!(a.busy_us(), 72);
        let total: u64 = a.components().iter().map(|(_, us)| us).sum();
        assert_eq!(total, a.busy_us());
    }

    #[test]
    fn memo_free_attribution_renders_components_and_busy_only() {
        let a = Attribution {
            seek_us: 10,
            transfer_us: 30,
            ..Attribution::default()
        };
        // Header, rule, five components, busy.
        assert_eq!(a.render().lines().count(), 8);
        assert!(a.render().ends_with("busy                 40    100.0%\n"));
        assert_eq!(
            a.footnote(),
            "seek 10 (25.0%) + rotation 0 (0.0%) + transfer 30 (75.0%) + \
             switch 0 (0.0%) + overhead 0 (0.0%) = busy 40 us"
        );
    }

    #[test]
    fn readahead_memo_is_counts_only_and_quiet_when_zero() {
        let a = Attribution {
            transfer_us: 40,
            cache_hits: 3,
            cache_misses: 1,
            ..Attribution::default()
        };
        assert_eq!(a.busy_us(), 40, "readahead memo must not inflate busy");
        assert!(a.render().contains("readahead"));
        assert!(a.render().contains("3 hits / 1 misses"));
        assert!(a.render().contains("75.0% hit rate"));
        assert!(a.footnote().contains("readahead 3 hits / 1 misses"));
        // Zero counters leave both renderings untouched, so traces from
        // cacheless runs are byte-identical to the old format.
        let quiet = Attribution {
            cache_hits: 0,
            cache_misses: 0,
            ..a
        };
        assert!(!quiet.render().contains("readahead"));
        assert!(!quiet.footnote().contains("readahead"));
    }

    #[test]
    fn render_handles_zero_busy() {
        let a = Attribution::default();
        let s = a.render();
        assert!(s.contains("busy"));
        assert!(s.contains("0.0%"));
    }

    #[test]
    fn footnote_mentions_every_component() {
        let a = Attribution {
            seek_us: 1,
            rotation_us: 2,
            transfer_us: 3,
            switch_us: 4,
            overhead_us: 5,
            ..Attribution::default()
        };
        let f = a.footnote();
        for needle in [
            "seek 1",
            "rotation 2",
            "transfer 3",
            "switch 4",
            "overhead 5",
            "busy 15",
        ] {
            assert!(f.contains(needle), "missing {needle} in {f}");
        }
    }
}
