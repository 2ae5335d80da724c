//! Per-dependency circuit breakers: closed → open → half-open with a
//! probe budget.
//!
//! Breaker state is kept per `(dependency, lane)` where the lane is the
//! flow key (the client identity). This models *client-side* breakers —
//! each caller tracks its own view of a dependency's health — and it is
//! what makes the state machine deterministic under parallel execution:
//! a lane's admits and records happen in program order on whichever
//! thread runs that flow, and lanes never share mutable state.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dri_sync::ShardMap;
use parking_lot::RwLock;

/// Breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BreakerState {
    /// Healthy: calls flow through.
    Closed,
    /// Tripped: calls are rejected without touching the dependency.
    Open,
    /// Cooling off: a budgeted number of probe calls may pass.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name (span attributes, SIEM details).
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// Breaker thresholds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip Closed → Open.
    pub failure_threshold: u32,
    /// How long an Open breaker rejects before allowing probes (ms).
    pub open_ms: u64,
    /// Probe calls admitted per half-open episode.
    pub probe_budget: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            open_ms: 30_000,
            probe_budget: 1,
        }
    }
}

/// A state transition, surfaced to the sink (dri-core forwards these to
/// the SIEM and stamps them onto trace spans).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerTransition {
    /// Dependency the breaker guards (`idp`, `broker`, …).
    pub dependency: String,
    /// Lane (flow key) whose breaker moved.
    pub lane: String,
    /// Previous state.
    pub from: BreakerState,
    /// New state.
    pub to: BreakerState,
    /// Simulated time of the transition (ms).
    pub at_ms: u64,
    /// 1-based position of this transition in its lane's history. The
    /// triple `(dependency, lane, seq)` totally orders a run's
    /// transitions regardless of thread interleaving — sorting by it
    /// yields the byte-comparable breaker timeline the determinism
    /// tests diff serial vs parallel.
    pub seq: u64,
}

/// Observer for breaker transitions.
pub type TransitionSink = Arc<dyn Fn(&BreakerTransition) + Send + Sync>;

/// Rejection returned when an Open breaker fails a call fast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerOpen {
    /// Dependency that is open.
    pub dependency: String,
    /// Lane that was rejected.
    pub lane: String,
}

impl std::fmt::Display for BreakerOpen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "circuit open for {} (lane {})",
            self.dependency, self.lane
        )
    }
}

impl std::error::Error for BreakerOpen {}

#[derive(Debug, Clone, Default)]
struct LaneState {
    state: u8, // 0 = Closed, 1 = Open, 2 = HalfOpen
    consecutive_failures: u32,
    opened_at_ms: u64,
    probes_used: u32,
    /// Transitions this lane has emitted (feeds `BreakerTransition::seq`).
    transitions: u64,
}

impl LaneState {
    fn next_seq(&mut self) -> u64 {
        self.transitions += 1;
        self.transitions
    }
}

impl LaneState {
    fn state(&self) -> BreakerState {
        match self.state {
            1 => BreakerState::Open,
            2 => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }
}

/// Shards for the per-(dependency, lane) breaker map.
const BREAKER_SHARDS: usize = 16;

/// The breaker registry: one logical breaker per `(dependency, lane)`.
pub struct CircuitBreakers {
    config: BreakerConfig,
    /// Per-dependency threshold overrides installed by the SIEM
    /// feedback loop; absent dependencies use the base `config`.
    overrides: RwLock<HashMap<String, BreakerConfig>>,
    lanes: ShardMap<LaneState>,
    trips: AtomicU64,
    rejections: AtomicU64,
    sink: RwLock<Option<TransitionSink>>,
}

impl CircuitBreakers {
    /// A registry with the given thresholds.
    pub fn new(config: BreakerConfig) -> CircuitBreakers {
        CircuitBreakers {
            config,
            overrides: RwLock::new(HashMap::new()),
            lanes: ShardMap::new(BREAKER_SHARDS),
            trips: AtomicU64::new(0),
            rejections: AtomicU64::new(0),
            sink: RwLock::new(None),
        }
    }

    /// The base thresholds (ignoring per-dependency overrides).
    pub fn config(&self) -> &BreakerConfig {
        &self.config
    }

    /// The thresholds in effect for one dependency: its override if the
    /// feedback loop installed one, the base config otherwise.
    pub fn config_for(&self, dependency: &str) -> BreakerConfig {
        self.overrides
            .read()
            .get(dependency)
            .cloned()
            .unwrap_or_else(|| self.config.clone())
    }

    /// Install (or replace) a per-dependency threshold override. Only
    /// call this at quiescent points (window boundaries) — changing
    /// thresholds mid-storm would make breaker timelines depend on
    /// thread interleaving.
    pub fn set_dependency_config(&self, dependency: &str, config: BreakerConfig) {
        self.overrides
            .write()
            .insert(dependency.to_string(), config);
    }

    /// Drop a per-dependency override, reverting to the base config.
    pub fn clear_dependency_config(&self, dependency: &str) {
        self.overrides.write().remove(dependency);
    }

    /// All installed overrides, sorted by dependency (deterministic for
    /// feedback-loop assertions).
    pub fn dependency_overrides(&self) -> Vec<(String, BreakerConfig)> {
        let mut out: Vec<(String, BreakerConfig)> = self
            .overrides
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Install the transition observer.
    pub fn set_sink(&self, sink: TransitionSink) {
        *self.sink.write() = Some(sink);
    }

    /// Closed → Open trips so far.
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// Calls rejected without reaching the dependency.
    pub fn rejections(&self) -> u64 {
        self.rejections.load(Ordering::Relaxed)
    }

    /// Apply `f` to the `(dependency, lane)` breaker, creating it Closed
    /// on first use.
    fn with_lane<R>(&self, dependency: &str, lane: &str, f: impl FnOnce(&mut LaneState) -> R) -> R {
        dri_sync::with_key(format_args!("{dependency}|{lane}"), |key| {
            self.lanes.upsert(key, f)
        })
    }

    fn emit(&self, transitions: &[BreakerTransition]) {
        if transitions.is_empty() {
            return;
        }
        let sink = self.sink.read();
        if let Some(sink) = sink.as_ref() {
            for t in transitions {
                sink(t);
            }
        }
    }

    /// Ask to place a call on `dependency` for `lane`. Returns the state
    /// the call is admitted under, or [`BreakerOpen`] for a fast
    /// rejection. An Open breaker whose `open_ms` has elapsed moves to
    /// HalfOpen here and admits up to `probe_budget` probes.
    pub fn admit(
        &self,
        dependency: &str,
        lane: &str,
        now_ms: u64,
    ) -> Result<BreakerState, BreakerOpen> {
        let config = self.config_for(dependency);
        let mut transitions = Vec::new();
        let decision = self.with_lane(dependency, lane, |st| match st.state() {
            BreakerState::Closed => Ok(BreakerState::Closed),
            BreakerState::Open => {
                if now_ms >= st.opened_at_ms.saturating_add(config.open_ms) {
                    st.state = 2;
                    st.probes_used = 0;
                    transitions.push(BreakerTransition {
                        dependency: dependency.to_string(),
                        lane: lane.to_string(),
                        from: BreakerState::Open,
                        to: BreakerState::HalfOpen,
                        at_ms: now_ms,
                        seq: st.next_seq(),
                    });
                    if st.probes_used < config.probe_budget {
                        st.probes_used += 1;
                        Ok(BreakerState::HalfOpen)
                    } else {
                        Err(())
                    }
                } else {
                    Err(())
                }
            }
            BreakerState::HalfOpen => {
                if st.probes_used < config.probe_budget {
                    st.probes_used += 1;
                    Ok(BreakerState::HalfOpen)
                } else {
                    Err(())
                }
            }
        });
        self.emit(&transitions);
        decision.map_err(|()| {
            self.rejections.fetch_add(1, Ordering::Relaxed);
            BreakerOpen {
                dependency: dependency.to_string(),
                lane: lane.to_string(),
            }
        })
    }

    /// Report the outcome of an admitted call.
    pub fn record(&self, dependency: &str, lane: &str, now_ms: u64, success: bool) {
        let config = self.config_for(dependency);
        let mut transitions = Vec::new();
        self.with_lane(dependency, lane, |st| {
            let from = st.state();
            match (from, success) {
                (BreakerState::Closed, true) => st.consecutive_failures = 0,
                (BreakerState::Closed, false) => {
                    st.consecutive_failures += 1;
                    if st.consecutive_failures >= config.failure_threshold {
                        st.state = 1;
                        st.opened_at_ms = now_ms;
                        self.trips.fetch_add(1, Ordering::Relaxed);
                        transitions.push(BreakerTransition {
                            dependency: dependency.to_string(),
                            lane: lane.to_string(),
                            from,
                            to: BreakerState::Open,
                            at_ms: now_ms,
                            seq: st.next_seq(),
                        });
                    }
                }
                (BreakerState::HalfOpen, true) => {
                    st.state = 0;
                    st.consecutive_failures = 0;
                    st.probes_used = 0;
                    transitions.push(BreakerTransition {
                        dependency: dependency.to_string(),
                        lane: lane.to_string(),
                        from,
                        to: BreakerState::Closed,
                        at_ms: now_ms,
                        seq: st.next_seq(),
                    });
                }
                (BreakerState::HalfOpen, false) => {
                    st.state = 1;
                    st.opened_at_ms = now_ms;
                    st.probes_used = 0;
                    self.trips.fetch_add(1, Ordering::Relaxed);
                    transitions.push(BreakerTransition {
                        dependency: dependency.to_string(),
                        lane: lane.to_string(),
                        from,
                        to: BreakerState::Open,
                        at_ms: now_ms,
                        seq: st.next_seq(),
                    });
                }
                // A late record against an Open breaker (shouldn't
                // happen when callers admit first) changes nothing.
                (BreakerState::Open, _) => {}
            }
        });
        self.emit(&transitions);
    }

    /// The current state of one breaker, projecting an elapsed Open
    /// window as HalfOpen (read-only; no transition is emitted).
    pub fn state(&self, dependency: &str, lane: &str, now_ms: u64) -> BreakerState {
        let open_ms = self.config_for(dependency).open_ms;
        let state = dri_sync::with_key(format_args!("{dependency}|{lane}"), |key| {
            self.lanes.with(key, |st| match st.state() {
                BreakerState::Open if now_ms >= st.opened_at_ms.saturating_add(open_ms) => {
                    BreakerState::HalfOpen
                }
                s => s,
            })
        });
        state.unwrap_or(BreakerState::Closed)
    }
}

impl std::fmt::Debug for CircuitBreakers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CircuitBreakers")
            .field("trips", &self.trips())
            .field("rejections", &self.rejections())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn breakers() -> CircuitBreakers {
        CircuitBreakers::new(BreakerConfig::default())
    }

    #[test]
    fn trips_after_consecutive_failures_and_rejects() {
        let b = breakers();
        for _ in 0..3 {
            assert!(b.admit("idp", "alice", 0).is_ok());
            b.record("idp", "alice", 0, false);
        }
        assert_eq!(b.state("idp", "alice", 0), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        let err = b.admit("idp", "alice", 1_000).unwrap_err();
        assert_eq!(err.dependency, "idp");
        assert_eq!(b.rejections(), 1);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let b = breakers();
        for _ in 0..2 {
            b.admit("idp", "alice", 0).unwrap();
            b.record("idp", "alice", 0, false);
        }
        b.admit("idp", "alice", 0).unwrap();
        b.record("idp", "alice", 0, true);
        for _ in 0..2 {
            b.admit("idp", "alice", 0).unwrap();
            b.record("idp", "alice", 0, false);
        }
        assert_eq!(b.state("idp", "alice", 0), BreakerState::Closed);
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn half_open_probe_budget_then_close_or_reopen() {
        let b = breakers();
        for _ in 0..3 {
            b.admit("ca", "bob", 0).unwrap();
            b.record("ca", "bob", 0, false);
        }
        // Before the open window elapses: rejected.
        assert!(b.admit("ca", "bob", 29_999).is_err());
        // After: one probe passes, the second is rejected.
        assert_eq!(b.admit("ca", "bob", 30_000), Ok(BreakerState::HalfOpen));
        assert!(b.admit("ca", "bob", 30_000).is_err());
        // Probe failure reopens and the window restarts.
        b.record("ca", "bob", 30_000, false);
        assert_eq!(b.state("ca", "bob", 30_001), BreakerState::Open);
        assert_eq!(b.trips(), 2);
        // Next half-open probe succeeds: closed again.
        assert_eq!(b.admit("ca", "bob", 60_000), Ok(BreakerState::HalfOpen));
        b.record("ca", "bob", 60_000, true);
        assert_eq!(b.state("ca", "bob", 60_000), BreakerState::Closed);
        assert!(b.admit("ca", "bob", 60_000).is_ok());
    }

    #[test]
    fn lanes_are_independent() {
        let b = breakers();
        for _ in 0..3 {
            b.admit("broker", "alice", 0).unwrap();
            b.record("broker", "alice", 0, false);
        }
        assert_eq!(b.state("broker", "alice", 0), BreakerState::Open);
        assert_eq!(b.state("broker", "bob", 0), BreakerState::Closed);
        assert!(b.admit("broker", "bob", 0).is_ok());
        // And dependencies are independent per lane too.
        assert!(b.admit("idp", "alice", 0).is_ok());
    }

    #[test]
    fn transitions_are_emitted_in_order() {
        let b = breakers();
        let seen: Arc<Mutex<Vec<(BreakerState, BreakerState)>>> = Arc::new(Mutex::new(Vec::new()));
        let s2 = seen.clone();
        b.set_sink(Arc::new(move |t| {
            s2.lock().unwrap().push((t.from, t.to));
        }));
        for _ in 0..3 {
            b.admit("idp", "alice", 0).unwrap();
            b.record("idp", "alice", 0, false);
        }
        b.admit("idp", "alice", 30_000).unwrap();
        b.record("idp", "alice", 30_000, true);
        assert_eq!(
            *seen.lock().unwrap(),
            vec![
                (BreakerState::Closed, BreakerState::Open),
                (BreakerState::Open, BreakerState::HalfOpen),
                (BreakerState::HalfOpen, BreakerState::Closed),
            ]
        );
    }

    #[test]
    fn transition_seq_totally_orders_a_lane() {
        let b = breakers();
        let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let s2 = seen.clone();
        b.set_sink(Arc::new(move |t| {
            s2.lock().unwrap().push(t.seq);
        }));
        for _ in 0..3 {
            b.admit("idp", "alice", 0).unwrap();
            b.record("idp", "alice", 0, false);
        }
        b.admit("idp", "alice", 30_000).unwrap();
        b.record("idp", "alice", 30_000, true);
        assert_eq!(*seen.lock().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn dependency_overrides_tighten_and_revert() {
        let b = breakers();
        b.set_dependency_config(
            "idp",
            BreakerConfig {
                failure_threshold: 1,
                open_ms: 60_000,
                probe_budget: 1,
            },
        );
        // One failure now trips the tightened breaker...
        b.admit("idp", "alice", 0).unwrap();
        b.record("idp", "alice", 0, false);
        assert_eq!(b.state("idp", "alice", 0), BreakerState::Open);
        // ...and the longer open window applies.
        assert!(b.admit("idp", "alice", 30_000).is_err());
        assert_eq!(b.admit("idp", "alice", 60_000), Ok(BreakerState::HalfOpen));
        // Other dependencies keep the base thresholds.
        b.admit("broker", "alice", 0).unwrap();
        b.record("broker", "alice", 0, false);
        assert_eq!(b.state("broker", "alice", 0), BreakerState::Closed);
        assert_eq!(b.dependency_overrides().len(), 1);
        b.clear_dependency_config("idp");
        assert_eq!(b.config_for("idp"), *b.config());
        assert!(b.dependency_overrides().is_empty());
    }

    #[test]
    fn parallel_lanes_reach_the_same_states_as_serial() {
        let drive = |b: &CircuitBreakers, lane: &str| {
            for _ in 0..3 {
                let _ = b.admit("idp", lane, 0);
                b.record("idp", lane, 0, false);
            }
            let _ = b.admit("idp", lane, 30_000);
            b.record("idp", lane, 30_000, true);
        };
        let states = |b: &CircuitBreakers| {
            (0..32)
                .map(|i| b.state("idp", &format!("user-{i}"), 30_000))
                .collect::<Vec<_>>()
        };
        let serial = {
            let b = breakers();
            for i in 0..32 {
                drive(&b, &format!("user-{i}"));
            }
            (states(&b), b.trips())
        };
        let parallel = {
            let b = breakers();
            crossbeam::thread::scope(|scope| {
                for w in 0..8 {
                    let b = &b;
                    scope.spawn(move |_| {
                        for i in (w..32).step_by(8) {
                            drive(b, &format!("user-{i}"));
                        }
                    });
                }
            })
            .unwrap();
            (states(&b), b.trips())
        };
        assert_eq!(serial, parallel);
    }
}
