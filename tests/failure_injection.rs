//! Failure-injection tests: the co-design under component failures —
//! the availability half of the paper's "balancing security,
//! availability, usability, and cost-efficiency".

use isambard_dri::broker::BrokerError;
use isambard_dri::cluster::{JupyterError, LoginError, MgmtOp, SubmitError};
use isambard_dri::core::{ChaosOutcome, FlowError, InfraConfig, Infrastructure};
use isambard_dri::fault::FaultPlan;
use isambard_dri::federation::{AuthnError, ProxyError};
use isambard_dri::netsim::{BastionError, EdgeError, TailnetError};
use isambard_dri::sshca::CaError;

fn onboarded() -> Infrastructure {
    let infra = Infrastructure::new(InfraConfig::default());
    infra.create_federated_user("alice", "pw");
    infra.story1_onboard_pi("p", "alice", 100.0).unwrap();
    infra
}

#[test]
fn bastion_instance_failures_are_transparent_until_the_last() {
    let infra = onboarded();
    // Kill instances one by one; the HA set keeps serving.
    infra.bastion.drain_instance(0).unwrap();
    assert!(infra.story4_ssh_connect("alice", "p").is_ok());
    infra.bastion.drain_instance(1).unwrap();
    assert!(infra.story4_ssh_connect("alice", "p").is_ok());
    infra.bastion.drain_instance(2).unwrap();
    assert!(matches!(
        infra.story4_ssh_connect("alice", "p"),
        Err(FlowError::Bastion(BastionError::Unavailable))
    ));
    // Recovery restores service.
    infra.bastion.restore_instance(1).unwrap();
    assert!(infra.story4_ssh_connect("alice", "p").is_ok());
    // Out-of-range instance indices are refused, not silently ignored.
    assert!(matches!(
        infra.bastion.drain_instance(99),
        Err(BastionError::UnknownInstance(99))
    ));
    assert!(matches!(
        infra.bastion.restore_instance(99),
        Err(BastionError::UnknownInstance(99))
    ));
}

#[test]
fn broker_key_rotation_fails_closed_until_jwks_distributed() {
    let infra = onboarded();
    assert!(infra.story4_ssh_connect("alice", "p").is_ok());
    // Rotate the broker signing key. New tokens carry the new kid, which
    // the CA's stale JWKS snapshot does not know: the system fails
    // *closed*, never accepting a token it cannot verify.
    infra.broker.rotate_keys([201u8; 32]);
    assert!(matches!(
        infra.story4_ssh_connect("alice", "p"),
        Err(FlowError::Ca(_)) | Err(FlowError::Device(_))
    ));
    // Distributing the refreshed JWKS (both keys published) restores
    // service; in-flight old-key tokens stay valid too.
    infra.ssh_ca.update_jwks(infra.broker.jwks());
    assert!(infra.story4_ssh_connect("alice", "p").is_ok());
    // Pruning the retired key narrows trust without breaking new tokens.
    infra.broker.prune_keys(1);
    infra.ssh_ca.update_jwks(infra.broker.jwks());
    assert!(infra.story4_ssh_connect("alice", "p").is_ok());
}

#[test]
fn isolated_login_node_blocks_ssh_but_not_identity_plane() {
    let infra = onboarded();
    infra.network.isolate("mdc/login01").unwrap();
    // SSH path dies at the fabric.
    assert!(matches!(
        infra.story4_ssh_connect("alice", "p"),
        Err(FlowError::Bastion(BastionError::Network(_)))
    ));
    // But the identity plane is unaffected: fresh logins and tokens work.
    assert!(infra.federated_login("alice").is_ok());
    assert!(infra.token_for("alice", "ssh-ca", vec![]).is_ok());
    infra.network.deisolate("mdc/login01").unwrap();
    assert!(infra.story4_ssh_connect("alice", "p").is_ok());
}

#[test]
fn edge_outage_leaves_ssh_path_alive() {
    let infra = onboarded();
    infra.edge.set_down(true);
    assert!(infra.story6_jupyter("alice", "p", "198.51.100.77").is_err());
    // Independent access path still up — zoning pays off.
    assert!(infra.story4_ssh_connect("alice", "p").is_ok());
    infra.edge.set_down(false);
    assert!(infra.story6_jupyter("alice", "p", "198.51.100.77").is_ok());
}

#[test]
fn retired_idp_locks_out_its_users_only() {
    let infra = onboarded();
    // A partner IdP joins, a user onboards through it.
    let idp = infra.register_partner_idp(
        "Partner Uni",
        "partner.example",
        isambard_dri::federation::LevelOfAssurance::Medium,
    );
    infra.create_federated_user_at(&idp, "pat", "pw");
    infra
        .story1_onboard_pi("partner-proj", "pat", 10.0)
        .unwrap();
    // The federation retires the partner IdP (e.g. compromise).
    infra.registry.deregister_entity(&idp).unwrap();
    // pat can no longer authenticate (proxy refuses the unknown IdP) …
    assert!(matches!(
        infra.federated_login("pat"),
        Err(FlowError::Proxy(_))
    ));
    // … while Bristol users are untouched.
    assert!(infra.federated_login("alice").is_ok());
}

#[test]
fn jupyter_capacity_exhaustion_fails_closed_and_recovers() {
    let cfg = InfraConfig::builder().jupyter_capacity(1).build().unwrap();
    let infra = Infrastructure::new(cfg);
    infra.create_federated_user("alice", "pw");
    infra.story1_onboard_pi("p", "alice", 100.0).unwrap();
    let first = infra.story6_jupyter("alice", "p", "198.51.100.1").unwrap();
    assert!(matches!(
        infra.story6_jupyter("alice", "p", "198.51.100.2"),
        Err(FlowError::UnexpectedStatus(503, _))
    ));
    // Stopping the first frees capacity.
    infra.jupyter.stop(&first.notebook.id);
    assert!(infra.story6_jupyter("alice", "p", "198.51.100.3").is_ok());
}

#[test]
fn flaky_idp_window_is_ridden_out_by_retries() {
    let infra = onboarded();
    infra.enroll_last_resort_fallback("alice").unwrap();
    let now = infra.clock.now_ms();
    infra.install_fault_plan(FaultPlan::new(42).flaky("idp", 300, now, now + 3_600_000));
    // Fresh logins during the flaky window: transient failures are
    // retried with deterministic backoff, and every login lands — on the
    // primary path when a retry got through, on the last-resort fallback
    // when the whole budget was exhausted.
    for _ in 0..6 {
        infra.federated_login("alice").unwrap();
    }
    let m = infra.metrics();
    assert!(m.faults_injected > 0, "the plan actually fired");
    assert!(m.retries > 0, "transient failures were retried");
    assert_eq!(
        m.faults_by_dependency,
        vec![("idp".to_string(), m.faults_injected)]
    );
}

#[test]
fn flaky_edge_is_ridden_out_by_retries() {
    let infra = onboarded();
    let now = infra.clock.now_ms();
    infra.install_fault_plan(FaultPlan::new(7).flaky("edge", 500, now, now + 3_600_000));
    let mut ok = 0;
    for i in 0..8 {
        let ip = format!("198.51.100.{}", 10 + i);
        ok += usize::from(infra.story6_jupyter("alice", "p", &ip).is_ok());
    }
    assert!(
        ok >= 5,
        "most notebook flows ride out the flaky edge: {ok}/8"
    );
    assert!(infra.metrics().retries > 0);
}

#[test]
fn sshca_outage_fails_new_issuance_closed_but_existing_sessions_survive() {
    let infra = onboarded();
    infra.story4_ssh_connect("alice", "p").unwrap();
    let shells_before = infra.login_node.session_count();
    let now = infra.clock.now_ms();
    infra.install_fault_plan(FaultPlan::new(42).outage("sshca", now, now + 60_000));
    // New issuance fails *closed* — no retry, no degraded path: the CA
    // is the trust anchor.
    assert!(matches!(
        infra.story4_ssh_connect("alice", "p"),
        Err(FlowError::Ca(CaError::Unavailable))
    ));
    // Certs issued before the outage stay valid: the session opened
    // earlier is untouched.
    assert_eq!(infra.login_node.session_count(), shells_before);
    // Window passes: issuance resumes.
    infra.clock.advance(60_001);
    assert!(infra.story4_ssh_connect("alice", "p").is_ok());
}

#[test]
fn broker_outage_trips_the_breaker_and_fails_fast() {
    let infra = onboarded();
    let now = infra.clock.now_ms();
    infra.install_fault_plan(FaultPlan::new(42).outage("broker", now, now + 60_000));
    // Three exhausted retry rounds trip the per-lane breaker…
    for _ in 0..3 {
        assert!(matches!(
            infra.federated_login("alice"),
            Err(FlowError::Broker(_))
        ));
    }
    let m = infra.metrics();
    assert!(m.breaker_trips >= 1, "third failure opens the breaker");
    assert!(
        m.retries >= 6,
        "each round retried twice, saw {}",
        m.retries
    );
    // …so the fourth call is rejected fast, without touching the broker.
    let injected_before = infra.resilience.faults_injected();
    assert!(matches!(
        infra.federated_login("alice"),
        Err(FlowError::CircuitOpen(dep)) if dep == "broker"
    ));
    assert_eq!(
        infra.resilience.faults_injected(),
        injected_before,
        "open breaker shields the dependency"
    );
    assert!(infra.metrics().breaker_rejections >= 1);
    // Outage over and cool-down elapsed: the half-open probe succeeds
    // and service restores.
    infra.clock.advance(60_000 + 30_000 + 1);
    assert!(infra.federated_login("alice").is_ok());
}

#[test]
fn idp_outage_without_fallback_enrollment_fails_with_the_idp_error() {
    let infra = onboarded();
    let now = infra.clock.now_ms();
    infra.install_fault_plan(FaultPlan::new(42).outage("idp", now, now + 60_000));
    // No last-resort credential enrolled: the degraded path cannot help,
    // and the caller sees the real upstream error.
    assert!(matches!(
        infra.federated_login("alice"),
        Err(FlowError::Idp(AuthnError::IdpUnavailable))
    ));
    assert_eq!(infra.metrics().degraded_logins, 0);
}

#[test]
fn fault_counts_stay_cumulative_across_plan_reinstalls() {
    let infra = onboarded();
    // Plan 1: the home IdP is dark. The login exhausts its three
    // attempts against it.
    let now = infra.clock.now_ms();
    infra.install_fault_plan(FaultPlan::new(1).outage("idp", now, now + 60_000));
    assert!(infra.federated_login("alice").is_err());
    let first = infra.metrics();
    assert_eq!(first.faults_by_dependency, vec![("idp".to_string(), 3)]);
    assert_eq!(first.faults_injected, 3);
    // Plan 2 replaces plan 1: now the broker is dark.
    infra.clock.advance(60_001);
    let now = infra.clock.now_ms();
    infra.install_fault_plan(FaultPlan::new(2).outage("broker", now, now + 60_000));
    assert!(infra.federated_login("alice").is_err());
    let second = infra.metrics();
    assert_eq!(
        second.faults_by_dependency,
        vec![("broker".to_string(), 3), ("idp".to_string(), 3)],
        "plan 1's counts survive the re-install"
    );
    assert_eq!(second.faults_injected, 6);
}

#[test]
fn retries_total_is_the_sum_of_its_per_dependency_breakdown() {
    let infra = onboarded();
    infra.enroll_last_resort_fallback("alice").unwrap();
    let now = infra.clock.now_ms();
    infra.install_fault_plan(
        FaultPlan::new(9)
            .flaky("idp", 400, now, now + 3_600_000)
            .flaky("edge", 400, now, now + 3_600_000),
    );
    for i in 0..6 {
        let _ = infra.federated_login("alice");
        let _ = infra.story6_jupyter("alice", "p", &format!("198.51.100.{}", 40 + i));
    }
    let m = infra.metrics();
    let by_dependency: Vec<&str> = m
        .retries_by_dependency
        .iter()
        .map(|(d, _)| d.as_str())
        .collect();
    assert_eq!(by_dependency, ["edge", "idp"]);
    let sum: u64 = m.retries_by_dependency.iter().map(|(_, n)| n).sum();
    assert!(sum > 0);
    assert_eq!(m.retries, sum);
    assert_eq!(infra.resilience.retries(), sum);
}

/// One row per fault-plane category: an outage of that category makes
/// the story crossing its hop fail closed with the layer's own error,
/// and the one shared hook counts the injected failures under it.
#[test]
fn every_hop_obeys_the_one_hook() {
    type Story = fn(&Infrastructure) -> Result<(), FlowError>;
    let login: Story = |i| i.federated_login("alice").map(drop);
    let ssh: Story = |i| i.story4_ssh_connect("alice", "p").map(drop);
    let jupyter: Story = |i| i.story6_jupyter("alice", "p", "198.51.100.90").map(drop);
    let admin: Story = |i| i.story5_privileged_op("dave", MgmtOp::Health).map(drop);
    // The scheduler sits behind the notebook tunnel, which answers 503.
    let spawn_refused = JupyterError::Spawn(SubmitError::SchedulerUnavailable).to_string();
    let rows: [(&str, Story, FlowError); 9] = [
        ("idp", login, FlowError::Idp(AuthnError::IdpUnavailable)),
        ("proxy", login, FlowError::Proxy(ProxyError::Unavailable)),
        ("broker", login, FlowError::Broker(BrokerError::Unavailable)),
        ("sshca", ssh, FlowError::Ca(CaError::Unavailable)),
        (
            "bastion",
            ssh,
            FlowError::Bastion(BastionError::Unavailable),
        ),
        ("login", ssh, FlowError::Login(LoginError::Unavailable)),
        ("edge", jupyter, FlowError::Edge(EdgeError::Down)),
        (
            "slurm",
            jupyter,
            FlowError::UnexpectedStatus(503, spawn_refused),
        ),
        (
            "tailnet",
            admin,
            FlowError::Tailnet(TailnetError::Unavailable),
        ),
    ];
    for (category, story, want) in rows {
        let infra = onboarded();
        infra.story2_register_admin("dave").unwrap();
        let now = infra.clock.now_ms();
        infra.install_fault_plan(FaultPlan::new(42).outage(category, now, now + 60_000));
        assert_eq!(story(&infra), Err(want), "{category}");
        let counted = infra.resilience.faults_by_dependency();
        assert!(
            matches!(counted.as_slice(), [(c, n)] if c == category && *n > 0),
            "{category}: {counted:?}"
        );
    }
}

#[test]
fn partner_idp_registered_after_the_plan_obeys_it() {
    let infra = onboarded();
    // The plan goes in first; its IdP outage opens a minute later.
    let start = infra.clock.now_ms() + 60_000;
    infra.install_fault_plan(FaultPlan::new(42).outage("idp", start, start + 60_000));
    let idp = infra.register_partner_idp(
        "Partner Uni",
        "partner.example",
        isambard_dri::federation::LevelOfAssurance::Medium,
    );
    infra.create_federated_user_at(&idp, "pat", "pw");
    infra
        .story1_onboard_pi("partner-proj", "pat", 10.0)
        .unwrap();
    infra.clock.advance(60_000);
    assert!(matches!(
        infra.federated_login("pat"),
        Err(FlowError::Idp(AuthnError::IdpUnavailable))
    ));
    assert_eq!(
        infra.resilience.faults_by_dependency(),
        vec![("idp".to_string(), 3)]
    );
    // The window passes: the partner IdP answers again.
    infra.clock.advance(60_000);
    assert!(infra.federated_login("pat").is_ok());
}

#[test]
fn idp_outage_fails_over_to_last_resort_and_recovers() {
    let infra = onboarded();
    let outcome = infra.chaos_idp_outage("alice", 60_000).unwrap();
    assert!(outcome.passed(), "failed checks: {:?}", outcome.failures());
    assert_eq!(outcome.fault_ids.len(), 1);
    assert!(outcome.retries >= 6);
    assert!(
        outcome.degraded_logins >= 4,
        "three slow + one fast failover"
    );
    assert_eq!(outcome.breaker_trips, 1);
    let m = infra.metrics();
    assert!(m.degraded_logins >= 4 && m.retries >= 6 && m.breaker_trips >= 1);
}

#[test]
fn chaos_bastion_and_killswitch_drills_pass() {
    let infra = onboarded();
    let bastion = infra.chaos_bastion_loss("alice", "p").unwrap();
    assert!(bastion.passed(), "failed checks: {:?}", bastion.failures());

    let infra = onboarded();
    let drill = infra.chaos_killswitch_drill("alice", "p", 60_000).unwrap();
    assert!(drill.passed(), "failed checks: {:?}", drill.failures());
    assert_eq!(drill.fault_ids.len(), 1);
}

/// One drill's expected record: scenario, timeline, check names, fault
/// ids and the (retries, breaker trips, degraded logins) deltas.
struct Expected {
    scenario: &'static str,
    timeline: &'static [&'static str],
    checks: &'static [&'static str],
    fault_ids: &'static [&'static str],
    counters: (u64, u64, u64),
}

fn assert_drill(outcome: &ChaosOutcome, want: &Expected) {
    assert!(
        outcome.passed(),
        "{}: {:?}",
        want.scenario,
        outcome.failures()
    );
    assert_eq!(outcome.scenario, want.scenario);
    assert_eq!(outcome.timeline, want.timeline, "{}", want.scenario);
    let checks: Vec<&str> = outcome.checks.iter().map(|(name, _)| *name).collect();
    assert_eq!(checks, want.checks, "{}", want.scenario);
    assert_eq!(outcome.fault_ids, want.fault_ids, "{}", want.scenario);
    assert_eq!(
        (
            outcome.retries,
            outcome.breaker_trips,
            outcome.degraded_logins
        ),
        want.counters,
        "{}",
        want.scenario
    );
}

/// All six drills in the `chaos_day` arrangement, pinned literally:
/// drills 1–3 each on a fresh onboarded infrastructure, 4–6 in sequence
/// on one infrastructure with `dave` registered as an administrator
/// before the tailnet storm.
#[test]
fn six_chaos_drills_keep_their_exact_records() {
    let fresh = || {
        let infra = Infrastructure::new(InfraConfig::default());
        infra.create_federated_user("alice", "pw");
        infra
            .story1_onboard_pi("climate-llm", "alice", 100.0)
            .unwrap();
        infra
    };
    let mut outcomes = vec![
        fresh().chaos_bastion_loss("alice", "climate-llm").unwrap(),
        fresh().chaos_idp_outage("alice", 60_000).unwrap(),
        fresh()
            .chaos_killswitch_drill("alice", "climate-llm", 60_000)
            .unwrap(),
    ];
    let infra = fresh();
    outcomes.push(
        infra
            .chaos_scheduler_outage("alice", "climate-llm")
            .unwrap(),
    );
    outcomes.push(infra.chaos_login_drain("alice", "climate-llm").unwrap());
    infra.story2_register_admin("dave").unwrap();
    outcomes.push(infra.chaos_tailnet_storm("dave").unwrap());

    const FAULT: &str = "fault-4d9b3f1ec9cf6b1b";
    let expected = [
        Expected {
            scenario: "bastion-loss",
            timeline: &[
                "baseline: ssh relay through the full HA set",
                "drain instance 0: relay transparent",
                "drain instance 1: relay transparent",
                "drain last instance: relay refused",
                "restore one instance: service resumed",
            ],
            checks: &[
                "instance loss transparent until the last",
                "exhausted HA set refuses cleanly",
                "restore resumes service",
            ],
            fault_ids: &[],
            counters: (0, 0, 0),
        },
        Expected {
            scenario: "idp-outage",
            timeline: &[
                "schedule fault-4d9b3f1ec9cf6b1b: home IdP dark for 60000ms",
                "login 1: degraded to last-resort:alice after retries",
                "login 2: degraded to last-resort:alice after retries",
                "login 3: degraded to last-resort:alice after retries",
                "login 4: breaker open, failover without touching the IdP",
                "window passed: half-open probe, primary path restored",
            ],
            checks: &[
                "outage logins degrade to last resort",
                "faults were injected at the idp hop",
                "idp breaker tripped after repeated failures",
                "open breaker fails over fast",
                "primary path restored after the window",
            ],
            fault_ids: &[FAULT],
            counters: (6, 1, 4),
        },
        Expected {
            scenario: "killswitch-drill",
            timeline: &[
                "setup: live broker session + bastion relay + shell",
                "compromise simulated: active fault fault-4d9b3f1ec9cf6b1b",
                "kill chain: bastion=1 shells=1 notebooks=0 jobs=0",
                "stand down: subject reinstated, plane disarmed",
            ],
            checks: &[
                "kill chain severed live footholds",
                "drill cites an active fault id",
                "kill event joins to the originating trace",
                "reinstatement restores login",
            ],
            fault_ids: &[FAULT],
            counters: (0, 0, 0),
        },
        Expected {
            scenario: "scheduler-outage",
            timeline: &[
                "baseline: 20 healthy submissions seeded",
                "job job-000021 running before the outage",
                "schedule fault-4d9b3f1ec9cf6b1b: scheduler dark",
                "storm: 3 submissions refused, budget exhausted, drill closed",
                "job job-000021 completed through the outage",
                "recovery: submission accepted after disarm",
            ],
            checks: &[
                "baseline traffic seeded the budget window",
                "survivor job running before the outage",
                "drill admitted with budget headroom",
                "outage fails new submissions closed",
                "budget exhaustion closed the drill",
                "running job survived the scheduler outage",
                "recovery submission accepted",
            ],
            fault_ids: &[FAULT],
            counters: (0, 0, 0),
        },
        Expected {
            scenario: "login-drain",
            timeline: &[
                "baseline: shell shell-000001 established",
                "login node draining for maintenance",
                "new session refused while draining",
                "restore: new sessions accepted again",
            ],
            checks: &[
                "established shell survives the drain",
                "draining node refuses new sessions",
                "restore resumes service",
                "established shell alive end to end",
            ],
            fault_ids: &[],
            counters: (0, 0, 0),
        },
        Expected {
            scenario: "tailnet-storm",
            timeline: &[
                "baseline: dave-storm-drill enrolled, overlay path up",
                "storm: 1 user leases force-expired",
                "re-auth through the broker restored the overlay",
            ],
            checks: &[
                "baseline overlay path works",
                "storm expired at least the drill lease",
                "expired lease forces re-authentication",
                "broker session survives the storm",
                "re-enrolment restores the overlay",
                "infrastructure enrolment untouched",
            ],
            fault_ids: &[],
            counters: (0, 0, 0),
        },
    ];
    assert_eq!(outcomes.len(), expected.len());
    for (outcome, want) in outcomes.iter().zip(&expected) {
        assert_drill(outcome, want);
    }
}
