//! Per-dependency circuit breakers: closed → open → half-open with a
//! probe budget.
//!
//! Breaker state is kept per `(dependency, lane)` where the lane is the
//! flow key (the client identity). This models *client-side* breakers —
//! each caller tracks its own view of a dependency's health — and it is
//! what makes the state machine deterministic under parallel execution:
//! a lane's admits and records happen in program order on whichever
//! thread runs that flow, and lanes never share mutable state.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dri_sync::ShardMap;
use parking_lot::RwLock;

/// Breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BreakerState {
    /// Healthy: calls flow through.
    #[default]
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

/// Breaker thresholds. The registry holds none: callers pass the
/// thresholds in force for the dependency to every call.
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
    state: BreakerState,
    consecutive_failures: u32,
    opened_at_ms: u64,
    probes_used: u32,
    /// Transitions this lane has emitted (feeds `BreakerTransition::seq`).
    transitions: u64,
}

impl LaneState {
    /// Move the `(dependency, lane)` breaker to `to` at `at_ms`,
    /// returning the transition with the lane's next sequence number.
    fn move_to(
        &mut self,
        to: BreakerState,
        dependency: &str,
        lane: &str,
        at_ms: u64,
    ) -> BreakerTransition {
        let from = std::mem::replace(&mut self.state, to);
        self.transitions += 1;
        BreakerTransition {
            dependency: dependency.to_string(),
            lane: lane.to_string(),
            from,
            to,
            at_ms,
            seq: self.transitions,
        }
    }
}

/// Shards for the per-(dependency, lane) breaker map.
const BREAKER_SHARDS: usize = 16;

/// The breaker registry: one logical breaker per `(dependency, lane)`.
pub struct CircuitBreakers {
    lanes: ShardMap<LaneState>,
    trips: AtomicU64,
    rejections: AtomicU64,
    sink: RwLock<Option<TransitionSink>>,
}

impl CircuitBreakers {
    /// An empty registry: every breaker starts Closed on first use.
    pub fn new() -> CircuitBreakers {
        CircuitBreakers {
            lanes: ShardMap::new(BREAKER_SHARDS),
            trips: AtomicU64::new(0),
            rejections: AtomicU64::new(0),
            sink: RwLock::new(None),
        }
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
        config: &BreakerConfig,
    ) -> Result<BreakerState, BreakerOpen> {
        let mut transitions = Vec::new();
        let decision = self.with_lane(dependency, lane, |st| match st.state {
            BreakerState::Closed => Ok(BreakerState::Closed),
            BreakerState::Open => {
                if now_ms >= st.opened_at_ms.saturating_add(config.open_ms) {
                    st.probes_used = 0;
                    transitions.push(st.move_to(BreakerState::HalfOpen, dependency, lane, now_ms));
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
    pub fn record(
        &self,
        dependency: &str,
        lane: &str,
        now_ms: u64,
        success: bool,
        config: &BreakerConfig,
    ) {
        let mut transitions = Vec::new();
        self.with_lane(dependency, lane, |st| {
            match (st.state, success) {
                (BreakerState::Closed, true) => st.consecutive_failures = 0,
                (BreakerState::Closed, false) => {
                    st.consecutive_failures += 1;
                    if st.consecutive_failures >= config.failure_threshold {
                        st.opened_at_ms = now_ms;
                        self.trips.fetch_add(1, Ordering::Relaxed);
                        transitions.push(st.move_to(BreakerState::Open, dependency, lane, now_ms));
                    }
                }
                (BreakerState::HalfOpen, true) => {
                    st.consecutive_failures = 0;
                    st.probes_used = 0;
                    transitions.push(st.move_to(BreakerState::Closed, dependency, lane, now_ms));
                }
                (BreakerState::HalfOpen, false) => {
                    st.opened_at_ms = now_ms;
                    st.probes_used = 0;
                    self.trips.fetch_add(1, Ordering::Relaxed);
                    transitions.push(st.move_to(BreakerState::Open, dependency, lane, now_ms));
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
    pub fn state(
        &self,
        dependency: &str,
        lane: &str,
        now_ms: u64,
        config: &BreakerConfig,
    ) -> BreakerState {
        let state = dri_sync::with_key(format_args!("{dependency}|{lane}"), |key| {
            self.lanes.with(key, |st| match st.state {
                BreakerState::Open if now_ms >= st.opened_at_ms.saturating_add(config.open_ms) => {
                    BreakerState::HalfOpen
                }
                s => s,
            })
        });
        state.unwrap_or(BreakerState::Closed)
    }
}

impl Default for CircuitBreakers {
    fn default() -> Self {
        CircuitBreakers::new()
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

    const BASE: BreakerConfig = BreakerConfig {
        failure_threshold: 3,
        open_ms: 30_000,
        probe_budget: 1,
    };

    fn breakers() -> CircuitBreakers {
        CircuitBreakers::new()
    }

    #[test]
    fn trips_after_consecutive_failures_and_rejects() {
        let b = breakers();
        for _ in 0..3 {
            assert!(b.admit("idp", "alice", 0, &BASE).is_ok());
            b.record("idp", "alice", 0, false, &BASE);
        }
        assert_eq!(b.state("idp", "alice", 0, &BASE), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        let err = b.admit("idp", "alice", 1_000, &BASE).unwrap_err();
        assert_eq!(err.dependency, "idp");
        assert_eq!(b.rejections(), 1);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let b = breakers();
        for _ in 0..2 {
            b.admit("idp", "alice", 0, &BASE).unwrap();
            b.record("idp", "alice", 0, false, &BASE);
        }
        b.admit("idp", "alice", 0, &BASE).unwrap();
        b.record("idp", "alice", 0, true, &BASE);
        for _ in 0..2 {
            b.admit("idp", "alice", 0, &BASE).unwrap();
            b.record("idp", "alice", 0, false, &BASE);
        }
        assert_eq!(b.state("idp", "alice", 0, &BASE), BreakerState::Closed);
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn half_open_probe_budget_then_close_or_reopen() {
        let b = breakers();
        for _ in 0..3 {
            b.admit("ca", "bob", 0, &BASE).unwrap();
            b.record("ca", "bob", 0, false, &BASE);
        }
        // Before the open window elapses: rejected.
        assert!(b.admit("ca", "bob", 29_999, &BASE).is_err());
        // After: one probe passes, the second is rejected.
        assert_eq!(
            b.admit("ca", "bob", 30_000, &BASE),
            Ok(BreakerState::HalfOpen)
        );
        assert!(b.admit("ca", "bob", 30_000, &BASE).is_err());
        // Probe failure reopens and the window restarts.
        b.record("ca", "bob", 30_000, false, &BASE);
        assert_eq!(b.state("ca", "bob", 30_001, &BASE), BreakerState::Open);
        assert_eq!(b.trips(), 2);
        // Next half-open probe succeeds: closed again.
        assert_eq!(
            b.admit("ca", "bob", 60_000, &BASE),
            Ok(BreakerState::HalfOpen)
        );
        b.record("ca", "bob", 60_000, true, &BASE);
        assert_eq!(b.state("ca", "bob", 60_000, &BASE), BreakerState::Closed);
        assert!(b.admit("ca", "bob", 60_000, &BASE).is_ok());
    }

    #[test]
    fn lanes_are_independent() {
        let b = breakers();
        for _ in 0..3 {
            b.admit("broker", "alice", 0, &BASE).unwrap();
            b.record("broker", "alice", 0, false, &BASE);
        }
        assert_eq!(b.state("broker", "alice", 0, &BASE), BreakerState::Open);
        assert_eq!(b.state("broker", "bob", 0, &BASE), BreakerState::Closed);
        assert!(b.admit("broker", "bob", 0, &BASE).is_ok());
        // And dependencies are independent per lane too.
        assert!(b.admit("idp", "alice", 0, &BASE).is_ok());
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
            b.admit("idp", "alice", 0, &BASE).unwrap();
            b.record("idp", "alice", 0, false, &BASE);
        }
        b.admit("idp", "alice", 30_000, &BASE).unwrap();
        b.record("idp", "alice", 30_000, true, &BASE);
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
            b.admit("idp", "alice", 0, &BASE).unwrap();
            b.record("idp", "alice", 0, false, &BASE);
        }
        b.admit("idp", "alice", 30_000, &BASE).unwrap();
        b.record("idp", "alice", 30_000, true, &BASE);
        assert_eq!(*seen.lock().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn parallel_lanes_reach_the_same_states_as_serial() {
        let drive = |b: &CircuitBreakers, lane: &str| {
            for _ in 0..3 {
                let _ = b.admit("idp", lane, 0, &BASE);
                b.record("idp", lane, 0, false, &BASE);
            }
            let _ = b.admit("idp", lane, 30_000, &BASE);
            b.record("idp", lane, 30_000, true, &BASE);
        };
        let states = |b: &CircuitBreakers| {
            (0..32)
                .map(|i| b.state("idp", &format!("user-{i}"), 30_000, &BASE))
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
