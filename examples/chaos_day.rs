//! Chaos day: the six scripted resilience drills from the fault plane —
//! bastion loss, home-IdP outage with last-resort failover, a
//! kill-switch drill under an active fault, a scheduler outage, a
//! login-node drain, and a tailnet lease-expiry storm — followed by the
//! error-budget ledger, the SIEM feedback pass, a trace-shape audit,
//! and the fault-plane overhead guard.
//!
//! Every drill is deterministic: same seed, same fault ids, same
//! timeline, same trace bytes. The process exits nonzero if any drill
//! check fails, if the trace shape is missing its resilience markers,
//! if the PDP-bypass audit finds a flow that skipped policy, or if a
//! *disabled* fault plane costs more than 2% on the E9-style notebook
//! storm.
//!
//! ```sh
//! cargo run --release --example chaos_day
//! ```

use isambard_dri::core::{ChaosOutcome, FeedbackAction, InfraConfig, Infrastructure};
use isambard_dri::fault::FaultPlan;
use isambard_dri::workload::{build_population, run_storm, StormMode};

fn onboarded() -> Infrastructure {
    let infra = Infrastructure::new(InfraConfig::default());
    infra.create_federated_user("alice", "pw");
    infra
        .story1_onboard_pi("climate-llm", "alice", 100.0)
        .expect("onboarding");
    infra
}

fn print_outcome(outcome: &ChaosOutcome) {
    println!("\n== drill: {} ==", outcome.scenario);
    for line in &outcome.timeline {
        println!("  | {line}");
    }
    for (check, ok) in &outcome.checks {
        println!("  [{}] {check}", if *ok { "PASS" } else { "FAIL" });
    }
    println!(
        "  counters: retries={} breaker_trips={} degraded_logins={} fault_ids={:?}",
        outcome.retries, outcome.breaker_trips, outcome.degraded_logins, outcome.fault_ids
    );
}

/// Best-of-N wall time (µs) of the E9-style notebook storm under `plan`.
fn storm_best_us(plan: Option<FaultPlan>, disarm: bool) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..7 {
        let config = InfraConfig::builder()
            .seed(9)
            .jupyter_capacity(4096)
            .interactive_nodes(4096)
            .edge_threshold(usize::MAX / 2)
            .build()
            .unwrap();
        let infra = Infrastructure::new(config);
        let users = build_population(&infra, 9, 4)
            .expect("population")
            .members();
        if let Some(plan) = plan.clone() {
            let plane = infra.install_fault_plan(plan);
            if disarm {
                plane.set_enabled(false);
            }
        }
        let result = run_storm(&infra, &users, StormMode::Parallel(8));
        assert_eq!(result.completed, users.len(), "{:?}", result.failures);
        best = best.min(result.total_us);
    }
    best
}

fn main() {
    let mut failed = false;

    // Drill 1: HA bastion loss — transparent until the set is exhausted.
    let infra = onboarded();
    let bastion = infra
        .chaos_bastion_loss("alice", "climate-llm")
        .expect("bastion drill");
    print_outcome(&bastion);
    failed |= !bastion.passed();

    // Drill 2: home-IdP outage — retries, last-resort failover, breaker
    // trip, fast-path failover, recovery after the window.
    let infra = onboarded();
    let idp = infra.chaos_idp_outage("alice", 60_000).expect("idp drill");
    print_outcome(&idp);
    failed |= !idp.passed();

    // The drill's trace record must carry the resilience markers: retry
    // backoff spans, injected-fault attributes, and the degraded-login
    // stamp — that is what makes a chaos day auditable after the fact.
    let spans = infra.tracer.all_spans();
    let shape = [
        (
            "retry.backoff spans",
            spans.iter().any(|s| s.name == "retry.backoff"),
        ),
        (
            "fault.injected attributes",
            spans
                .iter()
                .any(|s| s.attrs.iter().any(|(k, _)| k == "fault.injected")),
        ),
        (
            "login.degraded attributes",
            spans
                .iter()
                .any(|s| s.attrs.iter().any(|(k, _)| k == "login.degraded")),
        ),
        (
            "breaker.rejected attributes",
            spans
                .iter()
                .any(|s| s.attrs.iter().any(|(k, _)| k == "breaker.rejected")),
        ),
    ];
    println!("\n== trace shape (idp-outage drill) ==");
    for (what, ok) in shape {
        println!("  [{}] {what}", if ok { "PASS" } else { "FAIL" });
        failed |= !ok;
    }
    let m = infra.metrics();
    println!(
        "  snapshot: retries={} trips={} rejections={} degraded={} injected={}",
        m.retries, m.breaker_trips, m.breaker_rejections, m.degraded_logins, m.faults_injected
    );

    // Drill 3: kill-switch drill citing the active fault id and the
    // originating trace.
    let infra = onboarded();
    let drill = infra
        .chaos_killswitch_drill("alice", "climate-llm", 60_000)
        .expect("killswitch drill");
    print_outcome(&drill);
    failed |= !drill.passed();

    // Drills 4–6: the cluster data plane, all on one infrastructure so
    // the error-budget ledger reads as one continuous campaign.
    let infra = onboarded();

    // Drill 4: scheduler outage — budget-gated fault injection, new
    // submissions fail closed, the running job survives and completes.
    let sched = infra
        .chaos_scheduler_outage("alice", "climate-llm")
        .expect("scheduler drill");
    print_outcome(&sched);
    failed |= !sched.passed();

    // Drill 5: login-node drain — established shells survive, new
    // sessions are refused until restore.
    let login = infra
        .chaos_login_drain("alice", "climate-llm")
        .expect("login drill");
    print_outcome(&login);
    failed |= !login.passed();

    // Drill 6: tailnet lease-expiry storm — expired leases force
    // re-auth, broker sessions and infra enrolments survive.
    infra
        .story2_register_admin("dave")
        .expect("admin onboarding");
    let tailnet = infra.chaos_tailnet_storm("dave").expect("tailnet drill");
    print_outcome(&tailnet);
    failed |= !tailnet.passed();

    // The campaign's error-budget ledger: per-dependency, per-window
    // ok/err counters with burn rate — byte-stable for a given seed.
    println!("\n== error-budget ledger (data-plane campaign) ==");
    print!("{}", infra.resilience.budgets().export());
    let m = infra.metrics();
    let burned = m.budget_windows_exhausted >= 1;
    println!(
        "  [{}] the scheduler-outage storm spent at least one window's budget",
        if burned { "PASS" } else { "FAIL" }
    );
    failed |= !burned;
    println!(
        "  faults_by_dependency={:?} retries_by_dependency={:?}",
        m.faults_by_dependency, m.retries_by_dependency
    );

    // Trace-shape audit: no recorded flow may carry an sshca span
    // without a preceding policy consultation (a PDP bypass).
    let bypasses = infra.audit_trace_shapes();
    println!(
        "  [{}] trace-shape audit: {} pdp bypasses",
        if bypasses.is_empty() { "PASS" } else { "FAIL" },
        bypasses.len()
    );
    failed |= !bypasses.is_empty();

    // SIEM feedback loop: a 150‰-flaky edge burns its 100‰ error budget
    // during an E9-style storm; at the next window boundary the
    // feedback pass tightens its breaker and retry budget.
    let config = InfraConfig::builder()
        .seed(9)
        .jupyter_capacity(4096)
        .interactive_nodes(4096)
        .edge_threshold(usize::MAX / 2)
        .build()
        .unwrap();
    let infra = Infrastructure::new(config);
    let users = build_population(&infra, 9, 4)
        .expect("population")
        .members();
    let now = infra.clock.now_ms();
    infra.install_fault_plan(FaultPlan::new(9).flaky("edge", 150, now, u64::MAX));
    run_storm(&infra, &users, StormMode::Parallel(8));
    infra.clock.advance(61_000);
    let adjustments = infra.apply_siem_feedback();
    println!("\n== siem feedback (flaky-edge storm) ==");
    for a in &adjustments {
        println!(
            "  {:?}: {} window={} burn={}‰ anomalous={}",
            a.action, a.dependency, a.window, a.burn_per_mille, a.anomalous
        );
    }
    let tightened = adjustments
        .iter()
        .any(|a| a.dependency == "edge" && a.action == FeedbackAction::Tightened);
    println!(
        "  [{}] flaky edge tightened after burning its budget",
        if tightened { "PASS" } else { "FAIL" }
    );
    failed |= !tightened;

    // Overhead guard: an installed-but-disarmed fault plane must be
    // within 2% of no plane at all on the E9-style storm (best of 7,
    // plus a 2ms absolute allowance for scheduler noise).
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 4 {
        let plan = FaultPlan::new(9)
            .flaky("idp", 200, 1_700_000_000_000, u64::MAX)
            .latency("broker", 2, 1_700_000_000_000, u64::MAX);
        let none = storm_best_us(None, false);
        let disarmed = storm_best_us(Some(plan), true);
        let budget = none + none / 50 + 2_000;
        let ok = disarmed <= budget;
        println!("\n== overhead guard ==");
        println!("  no plane       : {none} us (best of 7)");
        println!("  disarmed plane : {disarmed} us (budget {budget} us)");
        println!(
            "  [{}] disarmed fault plane costs <=2%",
            if ok { "PASS" } else { "FAIL" }
        );
        failed |= !ok;
    } else {
        println!("\n== overhead guard skipped ({cores} cores < 4) ==");
    }

    if failed {
        println!("\nchaos day FAILED");
        std::process::exit(1);
    }
    println!("\nchaos day passed: every drill check held");
}
