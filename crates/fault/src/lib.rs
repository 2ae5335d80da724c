//! # dri-fault — deterministic fault injection and resilience
//!
//! The availability half of the paper's co-design, made first-class:
//!
//! * [`FaultPlan`] / [`FaultPlane`] — a **seeded schedule** of component
//!   outages, flaky windows, and latency spikes, applied at the same hop
//!   points `dri-trace` already instruments. Decisions are pure
//!   functions of `(plan seed, spec index, flow lane, per-lane counter)`,
//!   so the same seed yields byte-identical fault timelines whether the
//!   simulation runs serially or across eight workers.
//! * [`RetryPolicy`] — bounded retry with deterministic exponential
//!   backoff plus seeded jitter. No thread ever sleeps; backoff shows up
//!   as `retry.backoff` spans in the flow trace instead.
//! * [`CircuitBreakers`] — per-dependency closed → open → half-open
//!   breakers with probe budgets. State is kept per *(dependency, lane)*
//!   where the lane is the flow key, so breaker behaviour is identical
//!   under any worker count; transitions are surfaced through a sink
//!   (dri-core wires it to the SIEM). The registry holds no policy:
//!   each call carries the thresholds in force, which dri-core derives
//!   from whether the SIEM feedback loop has tightened the dependency.
//! * [`ErrorBudgets`] — SRE-style per-dependency, per-window error
//!   budgets (SLO target + burn-rate accounting over sim-time windows).
//!   Commutative counters make the budget state a pure function of the
//!   outcome multiset, independent of thread interleaving.
//!
//! The crate is substrate-only: it knows nothing about IdPs or bastions.
//! dri-core owns the wiring (which hops consult the plane, what counts
//! as a transient error, how degradation falls back).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod budget;
pub mod hook;
pub mod plan;
pub mod retry;

pub use breaker::{
    BreakerConfig, BreakerOpen, BreakerState, BreakerTransition, CircuitBreakers, TransitionSink,
};
pub use budget::{BudgetWindow, ErrorBudgets};
pub use hook::FaultHook;
pub use plan::{stage_of, FaultKind, FaultPlan, FaultPlane, FaultSpec, InjectedFault};
pub use retry::RetryPolicy;

/// splitmix64 finalizer: the shared bit mixer behind fault ids, flaky
/// rolls, and backoff jitter. Pure, allocation-free, stable.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
