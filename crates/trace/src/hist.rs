//! Log2-bucketed latency histograms.
//!
//! Fixed 64-bucket layout (bucket `b` holds values whose bit length is
//! `b`, i.e. `[2^(b-1), 2^b)`; bucket 0 holds zero). A histogram is a
//! plain value, built when a summary is read (see
//! [`Tracer::stage_summaries`](crate::Tracer::stage_summaries)), so
//! nothing on a flow's path records into it. Quantiles are read as the
//! inclusive upper bound of the bucket containing the target rank —
//! coarse (≤2× error) but monotone, allocation-free, and identical
//! whatever order the samples were recorded in.

const BUCKETS: usize = 64;

/// A log2-bucketed histogram of `u64` samples.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    /// Smallest sample; `u64::MAX` while empty.
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Smallest sample (0 if empty).
    fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) as the inclusive upper bound of
    /// the log2 bucket holding that rank, clamped to the observed
    /// min/max. 0 if empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count;
        if n == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based, at least 1.
        let target = ((q * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &slot) in self.buckets.iter().enumerate() {
            seen += slot;
            if seen >= target {
                let upper = if b == 0 {
                    0
                } else if b >= 64 {
                    u64::MAX
                } else {
                    (1u64 << b) - 1
                };
                return upper.clamp(self.min(), self.max);
            }
        }
        self.max
    }

    /// The headline statistics.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count,
            sum: self.sum,
            min: self.min(),
            max: self.max,
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// Headline statistics read out of a [`LogHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median (bucket upper bound).
    pub p50: u64,
    /// 90th percentile (bucket upper bound).
    pub p90: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn records_and_reads_back() {
        let mut h = LogHistogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.snapshot(), HistSnapshot::default());
        for v in [1u64, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!((snap.count, snap.sum), (6, 1110));
        assert_eq!((snap.min, snap.max), (1, 1000));
        // p50 lands in the [2,3] bucket; upper bound 3.
        assert_eq!(snap.p50, 3);
        // p99 lands in the last occupied bucket, clamped to max.
        assert_eq!(snap.p99, 1000);
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = LogHistogram::new();
        for v in 0..1000u64 {
            h.record(v * 7 % 513);
        }
        let mut last = 0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(v >= last, "quantile({q}) = {v} < {last}");
            last = v;
        }
    }
}
