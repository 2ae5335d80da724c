//! Statistical anomaly detection over event rates.
//!
//! Complements the windowed signature rules in [`crate::siem`]: instead
//! of matching known-bad patterns, it learns per-source event-rate
//! baselines over fixed buckets and flags buckets whose rate deviates by
//! more than `z_threshold` standard deviations — the "collect as much
//! information as possible … and use it to improve its security posture"
//! loop of tenet 7.

use std::collections::HashMap;

use parking_lot::RwLock;

/// Configuration for the rate-anomaly detector.
#[derive(Debug, Clone)]
pub struct AnomalyConfig {
    /// Bucket width (ms) the event stream is aggregated into.
    pub bucket_ms: u64,
    /// Number of history buckets forming the baseline.
    pub history: usize,
    /// Flag a bucket whose rate is more than this many standard
    /// deviations above the baseline mean.
    pub z_threshold: f64,
    /// Don't flag anything until at least this many buckets of history
    /// exist (cold start).
    pub min_history: usize,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        AnomalyConfig {
            bucket_ms: 60_000,
            history: 30,
            z_threshold: 4.0,
            min_history: 5,
        }
    }
}

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
pub struct AnomalyDetector {
    /// Configuration.
    pub config: AnomalyConfig,
    state: RwLock<DetectorState>,
}

impl AnomalyDetector {
    /// Create a detector.
    pub fn new(config: AnomalyConfig) -> AnomalyDetector {
        AnomalyDetector {
            config,
            state: RwLock::new(DetectorState::default()),
        }
    }

    /// Record one event from `source` at `at_ms`; returns an anomaly if
    /// the *completed* bucket (when the event rolls time forward) was
    /// anomalous against the source's baseline. The finding is also kept
    /// for [`AnomalyDetector::findings`].
    pub fn observe(&self, source: &str, at_ms: u64) -> Option<RateAnomaly> {
        let bucket_ms = self.config.bucket_ms;
        let bucket_start = (at_ms / bucket_ms) * bucket_ms;
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
            if hist.buckets.len() >= self.config.min_history {
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
                if z > self.config.z_threshold {
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
            let overflow = hist.buckets.len().saturating_sub(self.config.history);
            if overflow > 0 {
                hist.buckets.drain(..overflow);
            }
            // Any fully-empty buckets between count as zeros in history.
            let mut gap = hist.current_start_ms + bucket_ms;
            while gap < bucket_start && hist.buckets.len() < self.config.history {
                hist.buckets.push(0);
                gap += bucket_ms;
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

    fn detector() -> AnomalyDetector {
        AnomalyDetector::new(AnomalyConfig {
            bucket_ms: 1_000,
            history: 10,
            z_threshold: 4.0,
            min_history: 3,
        })
    }

    #[test]
    fn steady_rate_never_flags() {
        let d = detector();
        let mut anomalies = 0;
        // 5 events/second for 20 seconds.
        for sec in 0..20u64 {
            for e in 0..5u64 {
                if d.observe("fds/broker", sec * 1000 + e * 100).is_some() {
                    anomalies += 1;
                }
            }
        }
        assert_eq!(anomalies, 0);
    }

    #[test]
    fn burst_is_flagged_with_context() {
        let d = detector();
        // Baseline: 5/s for 10 seconds.
        for sec in 0..10u64 {
            for e in 0..5u64 {
                d.observe("fds/broker", sec * 1000 + e * 100);
            }
        }
        // Burst: 200 events in second 10.
        let mut finding = None;
        for e in 0..200u64 {
            if let Some(f) = d.observe("fds/broker", 10_000 + e * 4) {
                finding = Some(f);
            }
        }
        // The burst bucket is scored when time rolls into second 11.
        if finding.is_none() {
            finding = d.observe("fds/broker", 11_000);
        }
        let f = finding.expect("burst flagged");
        assert_eq!(f.source, "fds/broker");
        assert_eq!(f.observed, 200);
        assert!(f.z_score > 4.0, "z = {}", f.z_score);
        assert!((f.mean - 5.0).abs() < 1.0);
    }

    #[test]
    fn cold_start_is_silent() {
        let d = detector();
        // A massive burst in the very first buckets: not enough history.
        for e in 0..500u64 {
            assert!(d.observe("new-host", e * 2).is_none());
        }
        assert!(d.observe("new-host", 1_000).is_none());
    }

    #[test]
    fn sources_are_independent() {
        let d = detector();
        for sec in 0..10u64 {
            d.observe("a", sec * 1000);
            d.observe("b", sec * 1000);
        }
        // Burst only on "a".
        for e in 0..100u64 {
            d.observe("a", 10_000 + e);
        }
        let a_flag = d.observe("a", 11_000);
        let b_flag = d.observe("b", 11_000);
        assert!(a_flag.is_some());
        assert!(b_flag.is_none());
        assert_eq!(d.tracked_sources(), 2);
    }

    #[test]
    fn history_is_bounded() {
        let d = detector();
        for sec in 0..1_000u64 {
            d.observe("x", sec * 1000);
        }
        let state = d.state.read();
        assert!(state.get("x").unwrap().buckets.len() <= d.config.history);
    }
}
