//! Determinism of the fault plane over the assembled co-design: the
//! same seed and fault plan yield *byte-identical* trace exports,
//! breaker timelines, and error-budget ledgers — and identical SIEM
//! feedback decisions — whether the storm runs serially or fanned out
//! over eight workers. Chaos is replayable end to end.

use isambard_dri::core::resilience::{breaker_config, retry_policy};
use isambard_dri::core::{InfraConfig, Infrastructure, MetricsSnapshot};
use isambard_dri::fault::{BreakerTransition, FaultPlan};
use isambard_dri::trace::{chrome_trace, well_formed, SpanRecord};
use isambard_dri::workload::{build_population, run_storm, StormMode, StormResult};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// The chaos plan layered over the storm: a flaky IdP, a dragging
/// broker, and a flaky edge, all windowed over the whole run.
fn chaos_plan(seed: u64, now: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .flaky("idp", 200, now, now + 3_600_000)
        .latency("broker", 2, now, now + 3_600_000)
        .flaky("edge", 150, now, now + 3_600_000)
}

/// Everything a chaos run leaves behind, rendered in a scheduling-
/// invariant form so two runs can be diffed byte-for-byte.
struct ChaosLedger {
    metrics: MetricsSnapshot,
    result: StormResult,
    spans: Vec<SpanRecord>,
    /// `ErrorBudgets::export` — sorted `(dependency, window)` rows.
    budget_export: String,
    /// Breaker transitions sorted by `(dependency, lane, seq)`.
    breaker_timeline: String,
    /// SIEM feedback adjustments applied at the first window boundary
    /// after the storm, formatted one per line.
    feedback: Vec<String>,
    /// Dependencies tightened by the feedback pass, each with the
    /// breaker and retry policy derived for it.
    tightened: Vec<String>,
}

/// Build the population, arm the chaos plan, run the storm in `mode`,
/// then step past the budget-window boundary and run the SIEM feedback
/// pass — capturing every artefact in canonical form.
fn chaos_ledger(seed: u64, projects: usize, researchers: usize, mode: StormMode) -> ChaosLedger {
    let config = InfraConfig::builder()
        .seed(seed)
        .jupyter_capacity(4096)
        .interactive_nodes(4096)
        .edge_threshold(usize::MAX / 2)
        .build()
        .unwrap();
    let infra = Infrastructure::new(config);

    // Collect every breaker transition. `(dependency, lane, seq)`
    // totally orders them, so the sorted rendering is byte-comparable
    // across worker counts. (Replacing the sink detaches the SIEM feed
    // of breaker events; this suite only cares about the timeline.)
    let transitions: Arc<Mutex<Vec<BreakerTransition>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let collected = Arc::clone(&transitions);
        infra
            .resilience
            .breakers()
            .set_sink(Arc::new(move |t: &BreakerTransition| {
                collected.lock().unwrap().push(t.clone());
            }));
    }

    let users = build_population(&infra, projects, researchers)
        .unwrap()
        .members();
    infra.install_fault_plan(chaos_plan(seed, infra.clock.now_ms()));
    let result = run_storm(&infra, &users, mode);
    let spans = infra.tracer.all_spans();

    // Quiesce: step past the window boundary (default window is 60 s of
    // sim time) so the storm's window is complete, then let the SIEM
    // feedback loop react to it.
    infra.clock.advance(61_000);
    let feedback: Vec<String> = infra
        .apply_siem_feedback()
        .iter()
        .map(|f| {
            format!(
                "{} window={} burn={} anomalous={} action={:?}",
                f.dependency, f.window, f.burn_per_mille, f.anomalous, f.action
            )
        })
        .collect();
    let (c, p) = (breaker_config(true), retry_policy(true));
    let tightened: Vec<String> = infra
        .resilience
        .tightened()
        .iter()
        .map(|d| {
            format!(
                "{d} failure_threshold={} open_ms={} probe_budget={} \
                 max_attempts={} base_ms={} max_ms={} jitter_ms={}",
                c.failure_threshold,
                c.open_ms,
                c.probe_budget,
                p.max_attempts,
                p.base_ms,
                p.max_ms,
                p.jitter_ms
            )
        })
        .collect();

    let mut ts = transitions.lock().unwrap().clone();
    ts.sort_by(|a, b| (&a.dependency, &a.lane, a.seq).cmp(&(&b.dependency, &b.lane, b.seq)));
    let breaker_timeline: String = ts
        .iter()
        .map(|t| {
            format!(
                "{}|{}#{} {}->{} @{}\n",
                t.dependency,
                t.lane,
                t.seq,
                t.from.as_str(),
                t.to.as_str(),
                t.at_ms
            )
        })
        .collect();

    ChaosLedger {
        budget_export: infra.resilience.budgets().export(),
        metrics: infra.metrics(),
        result,
        spans,
        breaker_timeline,
        feedback,
        tightened,
    }
}

#[test]
fn chaos_storm_traces_are_bit_identical_serial_vs_parallel() {
    let s = chaos_ledger(11, 9, 4, StormMode::Serial);
    let p = chaos_ledger(11, 9, 4, StormMode::Parallel(8));

    well_formed(&s.spans).unwrap();
    well_formed(&p.spans).unwrap();

    // The chaos actually happened, identically on both runs.
    assert!(s.metrics.faults_injected > 0, "the plan fired");
    assert!(s.metrics.retries > 0, "transient faults were retried");
    assert_eq!(s.metrics.faults_injected, p.metrics.faults_injected);
    assert_eq!(s.metrics.retries, p.metrics.retries);
    assert_eq!(s.metrics.breaker_trips, p.metrics.breaker_trips);
    assert_eq!(s.metrics.breaker_rejections, p.metrics.breaker_rejections);
    assert_eq!(s.result.completed, p.result.completed);
    assert_eq!(s.result.failures.len(), p.result.failures.len());

    // Per-dependency breakdowns are scheduling-invariant too.
    assert!(!s.metrics.faults_by_dependency.is_empty());
    assert_eq!(
        s.metrics.faults_by_dependency,
        p.metrics.faults_by_dependency
    );
    assert_eq!(
        s.metrics.retries_by_dependency,
        p.metrics.retries_by_dependency
    );
    assert_eq!(
        s.metrics.budget_windows_exhausted,
        p.metrics.budget_windows_exhausted
    );

    // And the trace record is byte-for-byte the same: fault injections,
    // retry spans and all are scheduling-invariant.
    assert_eq!(
        chrome_trace(&s.spans),
        chrome_trace(&p.spans),
        "chaos must not make the trace export depend on interleaving"
    );
}

#[test]
fn budget_and_breaker_timelines_are_bit_identical_serial_vs_parallel() {
    let s = chaos_ledger(11, 9, 4, StormMode::Serial);
    let p = chaos_ledger(11, 9, 4, StormMode::Parallel(8));

    // The error-budget ledger is a pure function of the outcome
    // multiset: identical bytes under any worker count.
    assert!(
        s.budget_export.contains("idp "),
        "the flaky IdP recorded budget outcomes"
    );
    assert_eq!(
        s.budget_export, p.budget_export,
        "budget ledger must not depend on interleaving"
    );

    // Breaker transitions, sorted by (dependency, lane, seq), render
    // to the same bytes whether one thread or eight drove the lanes.
    assert_eq!(
        s.breaker_timeline, p.breaker_timeline,
        "breaker timeline must not depend on interleaving"
    );
}

#[test]
fn siem_feedback_is_deterministic_and_tightens_burned_dependencies() {
    let s = chaos_ledger(11, 9, 4, StormMode::Serial);
    let p = chaos_ledger(11, 9, 4, StormMode::Parallel(8));

    // The feedback pass saw identical budget state, so it made
    // identical decisions and tightened the same dependencies.
    assert_eq!(s.feedback, p.feedback);
    assert_eq!(s.tightened, p.tightened);

    // The storm reuses broker sessions, so the flaky IdP spec never
    // fires on this workload — but the 150‰ flaky edge burns far past
    // the 100‰ budget, so the loop must have tightened it: breaker
    // threshold down, open window doubled, retry budget down.
    assert!(
        s.feedback
            .iter()
            .any(|l| l.starts_with("edge ") && l.contains("action=Tightened")),
        "flaky edge should be tightened, got {:?}",
        s.feedback
    );
    assert!(
        s.tightened.iter().any(|l| l.starts_with("edge ")),
        "edge is tightened, got {:?}",
        s.tightened
    );
}

#[test]
fn retry_and_fault_markers_appear_in_the_trace() {
    let l = chaos_ledger(11, 4, 3, StormMode::Parallel(4));
    let spans = &l.spans;
    assert!(
        spans.iter().any(|s| s.name == "retry.backoff"),
        "retry spans are recorded"
    );
    assert!(
        spans
            .iter()
            .any(|s| s.attrs.iter().any(|(k, _)| k == "fault.injected")),
        "injected faults stamp their span"
    );
    assert!(
        spans.iter().any(|s| s.name == "fault.latency"),
        "latency faults materialise as spans"
    );
    assert!(
        spans
            .iter()
            .any(|s| s.attrs.iter().any(|(k, _)| k == "budget.burn_per_mille")),
        "final outcomes stamp the budget burn rate"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // For any seed and worker count, the chaos storm is replayable:
    // identical counters, byte-identical exports, identical feedback
    // decisions vs the serial run.
    #[test]
    fn chaos_storm_deterministic_for_any_seed_and_worker_count(
        seed in 0u64..1_000,
        workers in 2usize..9,
    ) {
        let s = chaos_ledger(seed, 2, 2, StormMode::Serial);
        let p = chaos_ledger(seed, 2, 2, StormMode::Parallel(workers));
        prop_assert_eq!(s.metrics.faults_injected, p.metrics.faults_injected);
        prop_assert_eq!(s.metrics.retries, p.metrics.retries);
        prop_assert_eq!(s.metrics.breaker_trips, p.metrics.breaker_trips);
        prop_assert_eq!(s.result.completed, p.result.completed);
        prop_assert!(well_formed(&s.spans).is_ok());
        prop_assert!(well_formed(&p.spans).is_ok());
        prop_assert_eq!(chrome_trace(&s.spans), chrome_trace(&p.spans));
        prop_assert_eq!(s.budget_export, p.budget_export);
        prop_assert_eq!(s.breaker_timeline, p.breaker_timeline);
        prop_assert_eq!(s.feedback, p.feedback);
        prop_assert_eq!(s.tightened, p.tightened);
    }
}
