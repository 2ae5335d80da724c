//! Seeded fault plans and the injection plane.
//!
//! A [`FaultPlan`] is a declarative schedule: *which component* misbehaves
//! *how* during *which simulated-time window*. The [`FaultPlane`] holds a
//! plan plus the shared [`SimClock`] and answers one question at every
//! instrumented hop: "does this call fail, and under which fault id?"
//!
//! Determinism contract: outage decisions depend only on the clock and
//! the plan; flaky decisions additionally depend on the calling flow's
//! *lane* (its trace id) and a per-lane attempt counter, both of which
//! are identical however flows are scheduled across worker threads.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use dri_clock::SimClock;
use dri_sync::{hash_key, ShardMap};

use crate::mix64;

/// How a matched component misbehaves inside its window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Hard outage: every call fails.
    Outage,
    /// Flaky window: each call fails with probability
    /// `fail_per_mille / 1000`, decided deterministically per lane.
    Flaky {
        /// Failure probability in 1/1000ths (e.g. 500 = 50%).
        fail_per_mille: u16,
    },
    /// Latency spike: calls succeed but drag `extra_steps` logical
    /// steps of `fault.latency` spans into the flow trace.
    Latency {
        /// Extra sibling spans injected per call (capped at 16).
        extra_steps: u32,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Component selector: either a full component id
    /// (`idp:https://idp.bristol.ac.uk`) or a bare category (`idp`,
    /// `broker`, `bastion`, …) matching every instance of the category.
    pub component: String,
    /// Failure mode.
    pub kind: FaultKind,
    /// Window start, simulated ms (inclusive).
    pub from_ms: u64,
    /// Window end, simulated ms (exclusive).
    pub until_ms: u64,
}

/// A deterministic, seeded schedule of faults.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed folded into every fault id and flaky roll.
    pub seed: u64,
    /// Scheduled faults, in declaration order.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan under `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            specs: Vec::new(),
        }
    }

    /// Schedule a hard outage of `component` for `[from_ms, until_ms)`.
    pub fn outage(mut self, component: impl Into<String>, from_ms: u64, until_ms: u64) -> Self {
        self.specs.push(FaultSpec {
            component: component.into(),
            kind: FaultKind::Outage,
            from_ms,
            until_ms,
        });
        self
    }

    /// Schedule a flaky window: each call fails with probability
    /// `fail_per_mille / 1000`.
    pub fn flaky(
        mut self,
        component: impl Into<String>,
        fail_per_mille: u16,
        from_ms: u64,
        until_ms: u64,
    ) -> Self {
        self.specs.push(FaultSpec {
            component: component.into(),
            kind: FaultKind::Flaky { fail_per_mille },
            from_ms,
            until_ms,
        });
        self
    }

    /// Schedule a latency spike adding `extra_steps` trace steps per call.
    pub fn latency(
        mut self,
        component: impl Into<String>,
        extra_steps: u32,
        from_ms: u64,
        until_ms: u64,
    ) -> Self {
        self.specs.push(FaultSpec {
            component: component.into(),
            kind: FaultKind::Latency { extra_steps },
            from_ms,
            until_ms,
        });
        self
    }

    /// The deterministic id of the `index`-th scheduled fault: a pure
    /// function of the plan seed and the spec position, so operators,
    /// SIEM events, and trace attributes all cite the same handle.
    pub fn fault_id(&self, index: usize) -> String {
        format!("fault-{:016x}", mix64(self.seed ^ mix64(index as u64)))
    }
}

/// A failure injected by the plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// Deterministic id of the fault spec that fired.
    pub fault_id: String,
    /// The component id the caller presented.
    pub component: String,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault {} on {}", self.fault_id, self.component)
    }
}

impl std::error::Error for InjectedFault {}

/// Shards for the per-(spec, lane) flaky attempt counters.
const LANE_SHARDS: usize = 16;

/// The runtime half: a plan bound to the simulation clock, consulted at
/// every instrumented hop.
pub struct FaultPlane {
    plan: FaultPlan,
    clock: SimClock,
    enabled: AtomicBool,
    latency_spans_injected: AtomicU64,
    /// Per `(spec index, component, lane)` attempt counters feeding the
    /// flaky roll. Each lane (= flow) advances its own counter in
    /// program order, so rolls are identical under any worker count.
    flaky_counters: ShardMap<u64>,
}

impl FaultPlane {
    /// Bind a plan to the simulation clock. Starts enabled.
    pub fn new(plan: FaultPlan, clock: SimClock) -> FaultPlane {
        FaultPlane {
            plan,
            clock,
            enabled: AtomicBool::new(true),
            latency_spans_injected: AtomicU64::new(0),
            flaky_counters: ShardMap::new(LANE_SHARDS),
        }
    }

    /// The bound plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Arm or disarm the plane without uninstalling it (the overhead
    /// guard measures the disarmed cost).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Release);
    }

    /// Whether the plane is armed.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// `fault.latency` spans injected so far.
    pub fn latency_spans_injected(&self) -> u64 {
        self.latency_spans_injected.load(Ordering::Relaxed)
    }

    /// Does `spec` target `component` (exact id or bare category)?
    fn matches(spec: &FaultSpec, component: &str) -> bool {
        if spec.component == component {
            return true;
        }
        let category = component.split(':').next().unwrap_or(component);
        spec.component == category
    }

    /// Consult the plane at a hop of `component`. `Ok(())` lets the call
    /// proceed; `Err` means the active fault fires here. On failure the
    /// fault id and component are attached to the innermost open trace
    /// span (`fault.injected` / `fault.component`); latency faults
    /// materialise as `fault.latency` child spans instead of failing.
    pub fn apply(&self, component: &str) -> Result<(), InjectedFault> {
        if !self.enabled() {
            return Ok(());
        }
        let now = self.clock.now_ms();
        for (index, spec) in self.plan.specs.iter().enumerate() {
            if now < spec.from_ms || now >= spec.until_ms || !Self::matches(spec, component) {
                continue;
            }
            match spec.kind {
                FaultKind::Outage => {
                    return Err(self.fail(index, component));
                }
                FaultKind::Flaky { fail_per_mille } => {
                    if self.flaky_roll(index, component, fail_per_mille) {
                        return Err(self.fail(index, component));
                    }
                }
                FaultKind::Latency { extra_steps } => {
                    let fault_id = self.plan.fault_id(index);
                    let n = extra_steps.min(16);
                    for _ in 0..n {
                        let _s = dri_trace::span_with(
                            "fault.latency",
                            stage_of(component),
                            &[("fault.component", component), ("fault.id", &fault_id)],
                        );
                    }
                    self.latency_spans_injected
                        .fetch_add(u64::from(n), Ordering::Relaxed);
                }
            }
        }
        Ok(())
    }

    /// The id of an outage currently covering `component`, if any — the
    /// handle kill-switch drills cite in their SIEM events.
    pub fn active_outage(&self, component: &str) -> Option<String> {
        if !self.enabled() {
            return None;
        }
        let now = self.clock.now_ms();
        self.plan.specs.iter().enumerate().find_map(|(i, spec)| {
            (spec.kind == FaultKind::Outage
                && now >= spec.from_ms
                && now < spec.until_ms
                && Self::matches(spec, component))
            .then(|| self.plan.fault_id(i))
        })
    }

    /// Deterministic per-lane coin flip for a flaky spec. The lane is
    /// the calling flow's trace id (empty outside a traced flow), so
    /// the K-th attempt of a given flow always rolls the same value.
    fn flaky_roll(&self, index: usize, component: &str, fail_per_mille: u16) -> bool {
        // The lane is the trace id in lowercase hex: the key text feeds
        // the roll, so it is part of every fault timeline.
        let key = match dri_trace::current_trace_id() {
            Some(lane) => format!("{index}|{component}|{lane}"),
            None => format!("{index}|{component}|"),
        };
        let attempt = {
            let mut shard = self.flaky_counters.write_shard(&key);
            let n = shard.entry(key.clone()).or_insert(0);
            *n += 1;
            *n
        };
        let roll = mix64(self.plan.seed ^ mix64(index as u64) ^ hash_key(&key) ^ attempt) % 1000;
        roll < u64::from(fail_per_mille)
    }

    fn fail(&self, index: usize, component: &str) -> InjectedFault {
        let fault_id = self.plan.fault_id(index);
        dri_trace::add_attr("fault.injected", &fault_id);
        dri_trace::add_attr("fault.component", component);
        InjectedFault {
            fault_id,
            component: component.to_string(),
        }
    }
}

impl std::fmt::Debug for FaultPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlane")
            .field("specs", &self.plan.specs.len())
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// The trace stage a component's spans belong to: its `fault.latency`
/// spans here and its `retry.backoff` spans in `dri-core`. A
/// `category:instance` id maps by its category.
pub fn stage_of(component: &str) -> dri_trace::Stage {
    match component.split(':').next().unwrap_or(component) {
        "idp" | "proxy" => dri_trace::Stage::Discovery,
        "broker" => dri_trace::Stage::Broker,
        "sshca" => dri_trace::Stage::SshCa,
        "bastion" => dri_trace::Stage::Bastion,
        "edge" => dri_trace::Stage::Edge,
        "tunnel" => dri_trace::Stage::Tunnel,
        "slurm" | "login" => dri_trace::Stage::Cluster,
        "tailnet" => dri_trace::Stage::Tailnet,
        _ => dri_trace::Stage::Flow,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(plan: FaultPlan) -> (FaultPlane, SimClock) {
        let clock = SimClock::new();
        (FaultPlane::new(plan, clock.clone()), clock)
    }

    #[test]
    fn outage_fails_only_inside_window() {
        let (p, clock) = plane(FaultPlan::new(7).outage("broker", 2_000, 3_000));
        assert!(p.apply("broker").is_ok(), "before window");
        clock.set(2_000);
        let err = p.apply("broker").unwrap_err();
        assert_eq!(err.component, "broker");
        assert_eq!(err.fault_id, p.plan().fault_id(0));
        clock.set(3_000);
        assert!(p.apply("broker").is_ok(), "window end is exclusive");
    }

    #[test]
    fn per_component_counters_aggregate_instances_by_category() {
        let (p, clock) = plane(
            FaultPlan::new(7)
                .outage("idp", 0, 10_000)
                .outage("slurm", 0, 10_000),
        );
        clock.set(500);
        let hook = crate::FaultHook::default();
        hook.install(std::sync::Arc::new(p));
        assert!(hook.check("idp:https://idp.bristol.ac.uk").is_err());
        assert!(hook.check("idp:https://idp.cardiff.ac.uk").is_err());
        assert!(hook.check("slurm").is_err());
        assert_eq!(
            hook.failures_by_component(),
            vec![("idp".to_string(), 2), ("slurm".to_string(), 1)]
        );
        assert_eq!(hook.failures_injected(), 3);
    }

    #[test]
    fn category_prefix_matches_instances() {
        let (p, clock) = plane(FaultPlan::new(7).outage("idp", 0, 10_000));
        clock.set(500);
        assert!(p.apply("idp:https://idp.bristol.ac.uk").is_err());
        assert!(p.apply("idp:https://idp.cardiff.ac.uk").is_err());
        assert!(p.apply("broker").is_ok());
    }

    #[test]
    fn exact_component_does_not_hit_siblings() {
        let (p, clock) =
            plane(FaultPlan::new(7).outage("idp:https://idp.bristol.ac.uk", 0, 10_000));
        clock.set(500);
        assert!(p.apply("idp:https://idp.bristol.ac.uk").is_err());
        assert!(
            p.apply("idp:https://idp.cardiff.ac.uk").is_ok(),
            "other IdPs of the category stay up"
        );
    }

    #[test]
    fn disabled_plane_is_transparent() {
        let (p, clock) = plane(FaultPlan::new(7).outage("broker", 0, 10_000));
        clock.set(500);
        p.set_enabled(false);
        assert!(p.apply("broker").is_ok());
        assert_eq!(p.active_outage("broker"), None);
        p.set_enabled(true);
        assert!(p.apply("broker").is_err());
    }

    #[test]
    fn flaky_rolls_are_deterministic_and_roughly_calibrated() {
        let run = || {
            let (p, clock) = plane(FaultPlan::new(99).flaky("edge", 500, 0, 1_000_000));
            clock.set(10);
            (0..200)
                .map(|_| p.apply("edge").is_err())
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run(), "same plan, same outcomes");
        let failures = a.iter().filter(|f| **f).count();
        assert!(
            (60..=140).contains(&failures),
            "~50% failure rate, got {failures}/200"
        );
    }

    #[test]
    fn flaky_zero_and_full_rates_are_exact() {
        let (p, clock) = plane(
            FaultPlan::new(1)
                .flaky("a", 0, 0, 1_000_000)
                .flaky("b", 1000, 0, 1_000_000),
        );
        clock.set(10);
        for _ in 0..50 {
            assert!(p.apply("a").is_ok());
            assert!(p.apply("b").is_err());
        }
    }

    #[test]
    fn active_outage_reports_the_fault_id() {
        let (p, clock) = plane(
            FaultPlan::new(3)
                .latency("broker", 2, 0, 10_000)
                .outage("bastion", 100, 10_000),
        );
        clock.set(500);
        assert_eq!(p.active_outage("broker"), None, "latency is not an outage");
        assert_eq!(p.active_outage("bastion"), Some(p.plan().fault_id(1)));
    }

    #[test]
    fn fault_ids_are_stable_per_seed_and_index() {
        let a = FaultPlan::new(5).outage("x", 0, 1);
        let b = FaultPlan::new(5).outage("x", 0, 1);
        assert_eq!(a.fault_id(0), b.fault_id(0));
        assert_ne!(a.fault_id(0), a.fault_id(1));
        assert_ne!(a.fault_id(0), FaultPlan::new(6).fault_id(0));
    }

    #[test]
    fn latency_fault_counts_spans_without_failing() {
        let (p, clock) = plane(FaultPlan::new(4).latency("sshca", 3, 0, 10_000));
        clock.set(10);
        assert!(p.apply("sshca").is_ok());
        // No flow is active in unit tests, so spans are no-ops, but the
        // injection counter still reflects the schedule.
        assert_eq!(p.latency_spans_injected(), 3);
    }
}
