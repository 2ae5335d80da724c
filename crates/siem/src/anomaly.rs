//! Statistical anomaly detection over event rates.
//!
//! Complements the windowed signature rules in [`crate::siem`]: instead
//! of matching known-bad patterns, it learns per-source event-rate
//! baselines over fixed [`BUCKET_MS`] buckets and flags buckets whose
//! rate deviates by more than [`Z_THRESHOLD`] standard deviations — the
//! "collect as much information as possible … and use it to improve its
//! security posture" loop of tenet 7.

use std::collections::HashMap;

use parking_lot::RwLock;

/// Bucket width (ms) the event stream is aggregated into.
pub const BUCKET_MS: u64 = 60_000;
/// Number of history buckets forming the baseline.
pub const HISTORY_BUCKETS: usize = 30;
/// Flag a bucket whose rate is more than this many standard deviations
/// above the baseline mean.
pub const Z_THRESHOLD: f64 = 4.0;
/// Don't flag anything until at least this many buckets of history exist
/// (cold start).
pub const MIN_HISTORY_BUCKETS: usize = 5;

/// An anomalous rate finding.
#[derive(Debug, Clone, PartialEq)]
pub struct RateAnomaly {
    /// The source whose rate deviated.
    pub source: String,
    /// Bucket start time (ms).
    pub bucket_start_ms: u64,
    /// Events observed in the bucket.
    pub observed: u64,
    /// Baseline mean.
    pub mean: f64,
    /// Z-score of the observation.
    pub z_score: f64,
}

struct SourceHistory {
    /// Completed bucket counts, oldest first.
    buckets: Vec<u64>,
    /// Start of the bucket currently filling.
    current_start_ms: u64,
    /// Count in the current bucket.
    current_count: u64,
}

#[derive(Default)]
struct DetectorState {
    sources: HashMap<String, SourceHistory>,
    /// Every finding so far, in observation order.
    findings: Vec<RateAnomaly>,
}

/// Reads see the per-source histories.
impl std::ops::Deref for DetectorState {
    type Target = HashMap<String, SourceHistory>;

    fn deref(&self) -> &Self::Target {
        &self.sources
    }
}

/// Per-source event-rate anomaly detector.
#[derive(Default)]
pub struct AnomalyDetector {
    state: RwLock<DetectorState>,
}

impl AnomalyDetector {
    /// Create a detector.
    pub fn new() -> AnomalyDetector {
        AnomalyDetector::default()
    }

    /// Record one event from `source` at `at_ms`; returns an anomaly if
    /// the *completed* bucket (when the event rolls time forward) was
    /// anomalous against the source's baseline. The finding is also kept
    /// for [`AnomalyDetector::findings`].
    pub fn observe(&self, source: &str, at_ms: u64) -> Option<RateAnomaly> {
        let bucket_start = (at_ms / BUCKET_MS) * BUCKET_MS;
        let mut guard = self.state.write();
        let state = &mut *guard;
        // Few sources exist: look the source up, and allocate its key
        // only the first time it is seen.
        if !state.sources.contains_key(source) {
            state.sources.insert(
                source.to_string(),
                SourceHistory {
                    buckets: Vec::new(),
                    current_start_ms: bucket_start,
                    current_count: 0,
                },
            );
        }
        let hist = state.sources.get_mut(source).expect("inserted above");

        let mut finding = None;
        if bucket_start > hist.current_start_ms {
            // The previous bucket is complete: score it, then roll.
            let observed = hist.current_count;
            if hist.buckets.len() >= MIN_HISTORY_BUCKETS {
                let n = hist.buckets.len() as f64;
                let mean = hist.buckets.iter().sum::<u64>() as f64 / n;
                let var = hist
                    .buckets
                    .iter()
                    .map(|b| {
                        let d = *b as f64 - mean;
                        d * d
                    })
                    .sum::<f64>()
                    / n;
                // Floor the deviation so an all-quiet baseline can still
                // be exceeded meaningfully.
                let sd = var.sqrt().max(1.0);
                let z = (observed as f64 - mean) / sd;
                if z > Z_THRESHOLD {
                    finding = Some(RateAnomaly {
                        source: source.to_string(),
                        bucket_start_ms: hist.current_start_ms,
                        observed,
                        mean,
                        z_score: z,
                    });
                }
            }
            hist.buckets.push(observed);
            let overflow = hist.buckets.len().saturating_sub(HISTORY_BUCKETS);
            if overflow > 0 {
                hist.buckets.drain(..overflow);
            }
            // Any fully-empty buckets between count as zeros in history.
            let mut gap = hist.current_start_ms + BUCKET_MS;
            while gap < bucket_start && hist.buckets.len() < HISTORY_BUCKETS {
                hist.buckets.push(0);
                gap += BUCKET_MS;
            }
            hist.current_start_ms = bucket_start;
            hist.current_count = 0;
        }
        hist.current_count += 1;
        if let Some(found) = &finding {
            state.findings.push(found.clone());
        }
        finding
    }

    /// Every anomaly flagged so far, in observation order.
    pub fn findings(&self) -> Vec<RateAnomaly> {
        self.state.read().findings.clone()
    }

    /// Number of sources being tracked.
    pub fn tracked_sources(&self) -> usize {
        self.state.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Start of bucket `n` (ms).
    fn bucket(n: u64) -> u64 {
        n * BUCKET_MS
    }

    #[test]
    fn steady_rate_never_flags() {
        let d = AnomalyDetector::new();
        let mut anomalies = 0;
        // 5 events per bucket for 20 buckets.
        for b in 0..20u64 {
            for e in 0..5u64 {
                if d.observe("fds/broker", bucket(b) + e * BUCKET_MS / 10)
                    .is_some()
                {
                    anomalies += 1;
                }
            }
        }
        assert_eq!(anomalies, 0);
    }

    #[test]
    fn burst_is_flagged_with_context() {
        let d = AnomalyDetector::new();
        // Baseline: 5 per bucket for 10 buckets (past the warm-up).
        for b in 0..10u64 {
            for e in 0..5u64 {
                d.observe("fds/broker", bucket(b) + e * BUCKET_MS / 10);
            }
        }
        // Burst: 200 events in bucket 10.
        let mut finding = None;
        for e in 0..200u64 {
            if let Some(f) = d.observe("fds/broker", bucket(10) + e * BUCKET_MS / 250) {
                finding = Some(f);
            }
        }
        // The burst bucket is scored when time rolls into bucket 11.
        if finding.is_none() {
            finding = d.observe("fds/broker", bucket(11));
        }
        let f = finding.expect("burst flagged");
        assert_eq!(f.source, "fds/broker");
        assert_eq!(f.observed, 200);
        assert!(f.z_score > Z_THRESHOLD, "z = {}", f.z_score);
        assert!((f.mean - 5.0).abs() < 1.0);
    }

    #[test]
    fn cold_start_is_silent() {
        let d = AnomalyDetector::new();
        // A massive burst in the very first bucket: not enough history.
        for e in 0..500u64 {
            assert!(d.observe("new-host", e * BUCKET_MS / 500).is_none());
        }
        assert!(d.observe("new-host", bucket(1)).is_none());
    }

    #[test]
    fn sources_are_independent() {
        let d = AnomalyDetector::new();
        for b in 0..10u64 {
            d.observe("a", bucket(b));
            d.observe("b", bucket(b));
        }
        // Burst only on "a".
        for e in 0..100u64 {
            d.observe("a", bucket(10) + e * BUCKET_MS / 100);
        }
        let a_flag = d.observe("a", bucket(11));
        let b_flag = d.observe("b", bucket(11));
        assert!(a_flag.is_some());
        assert!(b_flag.is_none());
        assert_eq!(d.tracked_sources(), 2);
    }

    #[test]
    fn history_is_bounded() {
        let d = AnomalyDetector::new();
        for b in 0..1_000u64 {
            d.observe("x", bucket(b));
        }
        let state = d.state.read();
        assert!(state.get("x").unwrap().buckets.len() <= HISTORY_BUCKETS);
    }
}
