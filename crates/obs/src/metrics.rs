//! A fixed-bucket log-linear histogram.
//!
//! OWDs, queue depths and pair gaps are
//! all heavy-tailed, spanning 3–6 orders of magnitude, so linear
//! bucketing either loses the head or truncates the tail. Log-linear
//! bucketing (HdrHistogram's scheme) keeps a bounded relative error at
//! every magnitude with a small fixed memory footprint, and two
//! histograms with the same geometry merge by adding counts — which is
//! what per-link aggregation into a run manifest needs.

use crate::json::ObjectWriter;

/// A fixed-bucket log-linear histogram over `u64` values.
///
/// Geometry: starting at `first_bound`, each power-of-two magnitude is
/// split into `sub_buckets` equal linear buckets, over `doublings`
/// magnitudes. Values below `first_bound` land in a dedicated
/// *underflow* bucket, values at or above the top bound in an
/// *overflow* bucket, so no sample is ever silently lost.
///
/// With `sub_buckets = 16` the relative bucket width is ≤ 1/16 ≈ 6%
/// everywhere — plenty for OWD and queue-depth distributions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogLinearHistogram {
    first_bound: u64,
    sub_buckets: u32,
    doublings: u32,
    /// `bounds[i]` is the inclusive lower bound of bucket `i`; buckets
    /// span `[bounds[i], bounds[i+1])`.
    bounds: Vec<u64>,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl LogLinearHistogram {
    /// A histogram covering `[first_bound, first_bound << doublings)`.
    ///
    /// Panics when `first_bound` is 0, `sub_buckets` is 0, `doublings`
    /// is 0, or the top bound would overflow `u64`.
    pub fn new(first_bound: u64, sub_buckets: u32, doublings: u32) -> Self {
        assert!(first_bound > 0, "first bound must be positive");
        assert!(sub_buckets > 0, "need at least one sub-bucket");
        assert!(doublings > 0, "need at least one doubling");
        assert!(
            (64 - first_bound.leading_zeros()) + doublings <= 64,
            "histogram top bound overflows u64"
        );
        let mut bounds = Vec::with_capacity((sub_buckets * doublings) as usize + 1);
        for m in 0..doublings {
            let lo = first_bound << m;
            let width = lo; // the magnitude spans [lo, 2*lo)
            for k in 0..sub_buckets {
                bounds.push(lo + width * k as u64 / sub_buckets as u64);
            }
        }
        bounds.push(first_bound << doublings);
        // integer division can duplicate bounds when sub_buckets >
        // first_bound; deduplicate so buckets are strictly increasing
        bounds.dedup();
        let buckets = bounds.len() - 1;
        LogLinearHistogram {
            first_bound,
            sub_buckets,
            doublings,
            bounds,
            counts: vec![0; buckets],
            underflow: 0,
            overflow: 0,
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Geometry suited to nanosecond latencies: 1 us first bound, 16
    /// sub-buckets, 30 doublings (covers 1 us .. ~18 minutes).
    pub fn for_latency_ns() -> Self {
        LogLinearHistogram::new(1_000, 16, 30)
    }

    /// Geometry suited to queue depths in packets or kilobytes: first
    /// bound 1, 8 sub-buckets, 24 doublings.
    pub fn for_depth() -> Self {
        LogLinearHistogram::new(1, 8, 24)
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.total = self.total.saturating_add(n);
        self.sum = self.sum.saturating_add(value as u128 * n as u128);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if value < self.first_bound {
            self.underflow += n;
        } else if value >= *self.bounds.last().expect("non-empty bounds") {
            self.overflow += n;
        } else {
            let idx = match self.bounds.binary_search(&value) {
                Ok(i) => i,
                Err(i) => i - 1,
            };
            self.counts[idx] += n;
        }
    }

    /// Total recorded samples (including under/overflow).
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Samples below the first bound.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the top bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Smallest recorded sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest recorded sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Exact mean of the recorded samples (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum as f64 / self.total as f64)
    }

    /// The `(lower, upper, count)` triples of the regular buckets.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.bounds
            .windows(2)
            .zip(&self.counts)
            .map(|(w, &c)| (w[0], w[1], c))
    }

    /// Approximate quantile: the upper bound of the bucket containing
    /// the `q`-quantile sample (exact values for underflow: the first
    /// bound; for overflow: the recorded max). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * (self.total - 1) as f64).round() as u64;
        let mut seen = self.underflow;
        if rank < seen {
            return Some(self.first_bound);
        }
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if rank < seen {
                return Some(self.bounds[i + 1]);
            }
        }
        Some(self.max)
    }

    /// Adds `other`'s counts into `self`.
    ///
    /// Panics when the two histograms have different geometry — merging
    /// mismatched buckets would silently misassign mass.
    pub fn merge(&mut self, other: &LogLinearHistogram) {
        assert_eq!(
            (self.first_bound, self.sub_buckets, self.doublings),
            (other.first_bound, other.sub_buckets, other.doublings),
            "cannot merge histograms with different geometry"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.total = self.total.saturating_add(other.total);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Compact JSON summary (count, mean, min/max, p50/p90/p99,
    /// under/overflow) for embedding in manifests.
    pub fn summary_json(&self) -> String {
        let mut out = String::new();
        let mut w = ObjectWriter::new(&mut out);
        w.u64("count", self.total)
            .u64("underflow", self.underflow)
            .u64("overflow", self.overflow);
        match self.mean() {
            Some(m) => w.f64("mean", m),
            None => w.raw("mean", "null"),
        };
        match (self.min(), self.max()) {
            (Some(lo), Some(hi)) => w.u64("min", lo).u64("max", hi),
            _ => w.raw("min", "null").raw("max", "null"),
        };
        for (name, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
            match self.quantile(q) {
                Some(v) => w.u64(name, v),
                None => w.raw(name, "null"),
            };
        }
        w.finish();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_log_linear() {
        let h = LogLinearHistogram::new(16, 4, 2);
        // magnitude 0: [16,32) in 4 linear buckets of 4
        // magnitude 1: [32,64) in 4 linear buckets of 8
        let bounds: Vec<(u64, u64)> = h.buckets().map(|(lo, hi, _)| (lo, hi)).collect();
        assert_eq!(
            bounds,
            vec![
                (16, 20),
                (20, 24),
                (24, 28),
                (28, 32),
                (32, 40),
                (40, 48),
                (48, 56),
                (56, 64),
            ]
        );
    }

    #[test]
    fn values_land_in_the_right_bucket() {
        let mut h = LogLinearHistogram::new(16, 4, 2);
        h.record(16); // first bucket, inclusive lower bound
        h.record(19); // still first bucket
        h.record(20); // second bucket lower bound
        h.record(63); // last bucket
        let counts: Vec<u64> = h.buckets().map(|(_, _, c)| c).collect();
        assert_eq!(counts, vec![2, 1, 0, 0, 0, 0, 0, 1]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn underflow_and_overflow_buckets() {
        let mut h = LogLinearHistogram::new(16, 4, 2);
        h.record(0);
        h.record(15); // below 16 -> underflow
        h.record(64); // top bound is exclusive -> overflow
        h.record(u64::MAX);
        assert_eq!(h.underflow(), 2);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
    }

    #[test]
    fn merge_adds_counts_and_extremes() {
        let mut a = LogLinearHistogram::new(16, 4, 2);
        let mut b = LogLinearHistogram::new(16, 4, 2);
        a.record(17);
        a.record(2); // underflow
        b.record(17);
        b.record(100); // overflow
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.underflow(), 1);
        assert_eq!(a.overflow(), 1);
        assert_eq!(a.min(), Some(2));
        assert_eq!(a.max(), Some(100));
        let first = a.buckets().next().unwrap();
        assert_eq!(first.2, 2, "17 recorded twice across the merge");
    }

    #[test]
    #[should_panic(expected = "different geometry")]
    fn merge_rejects_mismatched_geometry() {
        let mut a = LogLinearHistogram::new(16, 4, 2);
        let b = LogLinearHistogram::new(16, 8, 2);
        a.merge(&b);
    }

    #[test]
    fn quantiles_are_monotone_and_bracketing() {
        let mut h = LogLinearHistogram::for_latency_ns();
        for v in [1_000u64, 10_000, 100_000, 1_000_000, 10_000_000] {
            for _ in 0..100 {
                h.record(v);
            }
        }
        let p50 = h.quantile(0.5).unwrap();
        let p90 = h.quantile(0.9).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!(p50 <= p90 && p90 <= p99);
        // p50 sits in the 100_000 ns bucket: upper bound within 1/16
        assert!(
            (100_000..=107_000).contains(&p50),
            "p50 = {p50} should bracket 100 us"
        );
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LogLinearHistogram::for_depth();
        h.record_n(10, 3);
        h.record(0); // underflow still contributes to the exact mean
        assert_eq!(h.mean(), Some(30.0 / 4.0));
    }

    #[test]
    fn dedup_keeps_buckets_strictly_increasing() {
        // sub_buckets > first_bound forces duplicate integer bounds
        let h = LogLinearHistogram::new(1, 8, 4);
        let mut prev = 0u64;
        for (lo, hi, _) in h.buckets() {
            assert!(lo < hi, "empty bucket [{lo},{hi})");
            assert!(lo >= prev);
            prev = hi;
        }
    }

    #[test]
    fn quantiles_on_empty_histogram_are_none() {
        let h = LogLinearHistogram::for_latency_ns();
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.quantile(1.0), None);
        let s = h.summary_json();
        assert!(s.contains("\"count\":0"));
        assert!(s.contains("\"mean\":null"));
        assert!(s.contains("\"p50\":null"));
        assert!(s.contains("\"p99\":null"));
    }

    #[test]
    fn quantiles_in_the_overflow_bucket_report_the_recorded_max() {
        let mut h = LogLinearHistogram::new(16, 4, 2); // top bound 64
        h.record(17);
        h.record_n(1_000, 8); // all mass beyond the top bound
        h.record(5_000);
        // p50 and up land in overflow: the exact recorded max is the
        // only honest answer the histogram can give there
        assert_eq!(h.quantile(0.5), Some(5_000));
        assert_eq!(h.quantile(0.99), Some(5_000));
        // below the overflow mass the regular buckets still answer
        assert_eq!(h.quantile(0.0), Some(20), "17 sits in [16,20)");
        let s = h.summary_json();
        assert!(s.contains("\"overflow\":9"));
        assert!(s.contains("\"p99\":5000"));
    }

    #[test]
    #[should_panic(expected = "different geometry")]
    fn merge_rejects_mismatched_first_bound_and_doublings() {
        // same sub-bucket count; differing bound/doublings must still
        // panic deterministically rather than misassign mass
        let mut a = LogLinearHistogram::new(16, 4, 2);
        let b = LogLinearHistogram::new(32, 4, 3);
        a.merge(&b);
    }

    #[test]
    fn summary_json_shape() {
        let mut h = LogLinearHistogram::new(16, 4, 2);
        h.record(20);
        let s = h.summary_json();
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("\"count\":1"));
        assert!(s.contains("\"p50\":"));
    }
}
