//! Fixed-bucket log2 histograms.
//!
//! Buckets are powers of two: bucket 0 holds the value 0, bucket `i`
//! (1-based) holds values in `[2^(i-1), 2^i)`. 33 buckets cover every
//! value below 2^32; larger values saturate into the last bucket. Fixed
//! arrays mean recording never allocates.

/// Number of buckets (value 0, then 32 power-of-two ranges).
pub const BUCKETS: usize = 33;

/// A log2 histogram with fixed buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Bucket index for a value.
    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values, zero when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Lower bound of bucket `i` (inclusive).
    pub fn bucket_lo(i: usize) -> u64 {
        match i {
            0 => 0,
            _ => 1u64 << (i - 1),
        }
    }

    /// Renders a compact multi-line bar view of the non-empty buckets.
    pub fn render(&self, name: &str, unit: &str) -> String {
        let mut out = format!(
            "{name}: n={} mean={} max={} {unit}\n",
            self.count,
            self.mean(),
            self.max
        );
        if self.count == 0 {
            return out;
        }
        let peak = self.buckets.iter().copied().max().unwrap_or(1).max(1);
        let hi = self.buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
        let lo = self.buckets.iter().position(|&c| c > 0).unwrap_or(0);
        for i in lo..=hi {
            let c = self.buckets[i];
            let bar = "#".repeat(((c * 40).div_ceil(peak)) as usize);
            out.push_str(&format!(
                "  >= {:>10} {unit}: {c:>8} {bar}\n",
                Self::bucket_lo(i)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1023, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 9);
        assert_eq!(h.buckets()[0], 1); // 0
        assert_eq!(h.buckets()[1], 1); // 1
        assert_eq!(h.buckets()[2], 2); // 2..3
        assert_eq!(h.buckets()[3], 2); // 4..7
        assert_eq!(h.buckets()[4], 1); // 8
        assert_eq!(h.buckets()[10], 1); // 512..1023
        assert_eq!(h.buckets()[11], 1); // 1024..2047
        assert_eq!(h.max(), 1024);
    }

    #[test]
    fn huge_values_saturate_into_last_bucket() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.buckets()[BUCKETS - 1], 1);
    }

    #[test]
    fn render_marks_nonempty_range() {
        let mut h = Histogram::new();
        h.record(5);
        h.record(100);
        let s = h.render("lat", "us");
        assert!(s.contains("n=2"));
        assert!(s.contains("#"));
    }
}
