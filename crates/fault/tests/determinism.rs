//! Scheduling-independence of the fault plane and circuit breakers.
//!
//! The tentpole guarantee at the crate level: for any seed, flaky rate,
//! and worker count, running the same per-lane call sequences serially
//! or fanned out over threads yields identical injected-failure counts,
//! identical per-lane breaker end states, and identical trip/rejection
//! totals — whole lanes are the unit of work, and every decision is a
//! pure function of `(seed, lane, attempt)`.

use std::sync::Arc;

use dri_clock::SimClock;
use dri_fault::{BreakerConfig, CircuitBreakers, FaultHook, FaultPlan, FaultPlane};
use dri_trace::{flow, Stage, Tracer};
use proptest::prelude::*;

const LANES: usize = 24;
const CALLS_PER_LANE: usize = 6;

/// Drive every lane's calls through one shared plane + breaker set,
/// assigning whole lanes to workers round-robin. Returns per-lane final
/// breaker states plus the global counters.
fn run(seed: u64, fail_per_mille: u16, workers: usize) -> (Vec<&'static str>, u64, u64, u64) {
    let clock = SimClock::new();
    clock.set(10);
    let tracer = Arc::new(Tracer::new(seed, 16, clock.clone()));
    tracer.set_enabled(true);
    let plan = FaultPlan::new(seed).flaky("idp", fail_per_mille, 0, 1_000_000);
    let hook = FaultHook::default();
    hook.install(Arc::new(FaultPlane::new(plan, clock.clone())));
    let breakers = CircuitBreakers::new(BreakerConfig::default());

    let work = |lane: usize| {
        let label = format!("lane-{lane}");
        // One flow per lane: the lane's trace id keys the flaky rolls.
        let _flow = flow(&tracer, &label, "fault.lane", Stage::Flow);
        for _ in 0..CALLS_PER_LANE {
            if breakers.admit("idp", &label, clock.now_ms()).is_err() {
                continue;
            }
            let ok = hook.check("idp:https://idp.example").is_ok();
            breakers.record("idp", &label, clock.now_ms(), ok);
        }
    };

    if workers <= 1 {
        for lane in 0..LANES {
            work(lane);
        }
    } else {
        std::thread::scope(|s| {
            for w in 0..workers {
                let work = &work;
                s.spawn(move || {
                    let mut lane = w;
                    while lane < LANES {
                        work(lane);
                        lane += workers;
                    }
                });
            }
        });
    }

    let states = (0..LANES)
        .map(|lane| {
            breakers
                .state("idp", &format!("lane-{lane}"), clock.now_ms())
                .as_str()
        })
        .collect();
    (
        states,
        breakers.trips(),
        breakers.rejections(),
        hook.failures_injected(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn breaker_outcomes_are_identical_serial_vs_eight_workers(
        seed in 0u64..10_000,
        fail_per_mille in 0u16..1000,
    ) {
        let serial = run(seed, fail_per_mille, 1);
        let parallel = run(seed, fail_per_mille, 8);
        prop_assert_eq!(serial, parallel);
    }

    #[test]
    fn breaker_outcomes_are_identical_across_worker_counts(
        seed in 0u64..10_000,
        fail_per_mille in 200u16..900,
        workers in 2usize..9,
    ) {
        let serial = run(seed, fail_per_mille, 1);
        let parallel = run(seed, fail_per_mille, workers);
        prop_assert_eq!(serial, parallel);
    }
}

#[test]
fn high_failure_rates_trip_lanes_and_reject_fast() {
    // At a 95% failure rate every lane should trip within its six calls,
    // and later calls in the lane are rejected by the open breaker.
    let (states, trips, rejections, injected) = run(5, 950, 1);
    assert!(trips >= LANES as u64 / 2, "trips: {trips}");
    assert!(rejections > 0);
    assert!(injected > 0);
    assert!(states.contains(&"open"));
    assert_eq!(run(5, 950, 1), run(5, 950, 8));
}
