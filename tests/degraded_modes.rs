//! Degraded-mode invariants for the cluster data plane, property-tested
//! over arbitrary seeds:
//!
//! * **No established session is dropped.** Scheduler outages never kill
//!   running jobs, login-node drains and outages never kill open shells,
//!   tailnet lease storms never kill broker sessions.
//! * **No stale allow.** A dark scheduler refuses every new submission
//!   (fail closed, never fail open), a draining or dark login node
//!   refuses every new shell, an expired tailnet lease cannot reach the
//!   overlay, and the kill switch stays authoritative mid-outage.

use isambard_dri::broker::authz::AuthorizationSource;
use isambard_dri::cluster::login::LoginError;
use isambard_dri::cluster::slurm::{JobState, SubmitError};
use isambard_dri::core::{FlowError, InfraConfig, Infrastructure};
use isambard_dri::fault::FaultPlan;
use isambard_dri::netsim::tailnet::{TailnetError, TailnetNode};
use proptest::prelude::*;

/// A seeded co-design with one onboarded PI (`alice` on `proj`).
fn onboarded(seed: u64) -> Infrastructure {
    let infra = Infrastructure::new(InfraConfig::builder().seed(seed).build().unwrap());
    infra.create_federated_user("alice", "pw");
    infra
        .story1_onboard_pi("proj", "alice", 100.0)
        .expect("onboarding");
    infra
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Scheduler outage: running jobs complete through the whole outage,
    // new submissions fail closed, service resumes on disarm.
    #[test]
    fn scheduler_outage_keeps_running_jobs_and_fails_new_work_closed(
        seed in 0u64..10_000,
    ) {
        let infra = onboarded(seed);
        infra.federated_login("alice").unwrap();
        let subject = infra.subject_of("alice").unwrap();
        let account = infra
            .portal
            .unix_accounts(&subject)
            .into_iter()
            .find(|(p, _)| p == "proj")
            .map(|(_, a)| a)
            .unwrap();

        let survivor = infra
            .scheduler
            .submit(&account, "proj", "gh", 1, 600)
            .unwrap();
        infra.scheduler.tick();
        prop_assert!(infra
            .scheduler
            .job(&survivor)
            .is_some_and(|j| j.state == JobState::Running));

        let now = infra.clock.now_ms();
        let plane =
            infra.install_fault_plan(FaultPlan::new(seed).outage("slurm", now, u64::MAX));

        // No stale allow: every submission during the outage is refused
        // with the typed unavailable error — never silently queued.
        for _ in 0..5 {
            prop_assert!(matches!(
                infra.scheduler.submit(&account, "proj", "gh", 1, 60),
                Err(SubmitError::SchedulerUnavailable)
            ));
        }

        // No dropped work: tick/cancel never consult the fault plane, so
        // the running job completes on schedule mid-outage. It leaves the
        // job table as the project's one completed job, charged its full
        // 600 node-seconds.
        infra.clock.advance_secs(600);
        infra.scheduler.tick();
        prop_assert!(infra.scheduler.job(&survivor).is_none());
        let report = infra.scheduler.accounting_report();
        let row = report.iter().find(|row| row.project == "proj").unwrap();
        prop_assert_eq!((row.completed, row.cancelled, row.running), (1, 0, 0));
        prop_assert!((row.node_hours * 3600.0 - 600.0).abs() < 1e-6);

        // Disarm: submissions flow again.
        plane.set_enabled(false);
        prop_assert!(infra.scheduler.submit(&account, "proj", "gh", 1, 60).is_ok());
    }

    // Login node: drains and outages spare established shells, refuse
    // new ones, and never blunt the kill switch.
    #[test]
    fn login_degradation_keeps_shells_and_never_allows_stale_access(
        seed in 0u64..10_000,
    ) {
        let infra = onboarded(seed);
        let baseline = infra.story4_ssh_connect("alice", "proj").unwrap();
        let shell_id = baseline.shell.id.clone();

        // Drain: the open shell survives, new sessions are refused with
        // the typed draining error, restore resumes service.
        infra.login_node.set_draining(true);
        prop_assert!(infra.login_node.session_alive(&shell_id));
        prop_assert!(matches!(
            infra.story4_ssh_connect("alice", "proj"),
            Err(FlowError::Login(LoginError::Draining))
        ));
        infra.login_node.set_draining(false);
        prop_assert!(infra.story4_ssh_connect("alice", "proj").is_ok());

        // Hard outage: new shells fail closed, the established shell
        // stays alive.
        let now = infra.clock.now_ms();
        let plane =
            infra.install_fault_plan(FaultPlan::new(seed).outage("login", now, u64::MAX));
        prop_assert!(infra.story4_ssh_connect("alice", "proj").is_err());
        prop_assert!(infra.login_node.session_alive(&shell_id));

        // The kill switch stays authoritative mid-outage: no session
        // survives it, dark scheduler or not.
        let subject = infra.subject_of("alice").unwrap();
        infra.kill_user(&subject);
        prop_assert!(!infra.login_node.session_alive(&shell_id));
        prop_assert!(infra.broker.sessions_of_subject(&subject).is_empty());
        plane.set_enabled(false);
    }

    // Tailnet lease storm: expired leases force re-authentication, but
    // the broker session and infrastructure enrolments survive.
    #[test]
    fn tailnet_lease_storm_forces_reauth_without_dropping_sessions(
        seed in 0u64..10_000,
    ) {
        let infra = Infrastructure::new(InfraConfig::builder().seed(seed).build().unwrap());
        let admin = infra.story2_register_admin("dave").unwrap();
        let (token, _) = infra.token_for("dave", "mgmt-tailnet", Vec::new()).unwrap();
        let node = TailnetNode::generate("dave-node", &mut infra.rng.lock());
        infra.tailnet.enroll(&node, &token).unwrap();
        prop_assert!(infra.tailnet.send(&node, "mdc-mgmt01", b"ping").is_ok());

        let expired = infra.tailnet.expire_all_leases();
        prop_assert!(expired >= 1);

        // No stale allow: the expired lease cannot reach the overlay.
        prop_assert!(matches!(
            infra.tailnet.send(&node, "mdc-mgmt01", b"ping"),
            Err(TailnetError::NotEnrolled(_))
        ));

        // No dropped session: the broker session established before the
        // storm still stands, so re-auth is a token issuance, not a
        // fresh login ceremony.
        prop_assert!(!infra.broker.sessions_of_subject(&admin.subject).is_empty());
        let (fresh, _) = infra.token_for("dave", "mgmt-tailnet", Vec::new()).unwrap();
        infra.tailnet.enroll(&node, &fresh).unwrap();
        prop_assert!(infra.tailnet.send(&node, "mdc-mgmt01", b"ping").is_ok());

        // Infrastructure enrolments never lapse.
        prop_assert!(infra.tailnet.public_key_of("mdc-mgmt01").is_some());
    }
}
