//! E11 — kill switches: from SIEM alert to severed sessions.

use isambard_dri::cluster::{MgmtError, MgmtOp, TransportPath};
use isambard_dri::core::{InfraConfig, Infrastructure};
use isambard_dri::netsim::tailnet::{TailnetError, TailnetNode};
use isambard_dri::siem::EventKind;

fn victim_with_footholds() -> (Infrastructure, String) {
    let infra = Infrastructure::new(InfraConfig::default());
    infra.create_federated_user("alice", "pw");
    infra
        .story1_onboard_pi("climate-llm", "alice", 100.0)
        .unwrap();
    // Alice holds every kind of live access: an SSH shell, a bastion
    // relay, a notebook, and a batch job.
    let ssh = infra.story4_ssh_connect("alice", "climate-llm").unwrap();
    infra
        .story6_jupyter("alice", "climate-llm", "198.51.100.10")
        .unwrap();
    infra
        .scheduler
        .submit(&ssh.shell.account, "climate-llm", "gh", 2, 3600)
        .unwrap();
    infra.scheduler.tick();
    let subject = infra.subject_of("alice").unwrap();
    (infra, subject)
}

#[test]
fn kill_user_severs_every_foothold_instantly() {
    let (infra, subject) = victim_with_footholds();
    assert_eq!(infra.bastion.session_count(), 1);
    assert_eq!(infra.login_node.session_count(), 1);
    assert_eq!(infra.jupyter.session_count(), 1);

    let t0 = infra.clock.now_ms();
    let report = infra.kill_user(&subject);

    assert_eq!(report.at_ms, t0, "kill is immediate in simulated time");
    assert_eq!(report.bastion_sessions_cut, 1);
    assert_eq!(report.shells_cut, 1);
    assert_eq!(report.notebooks_cut, 1);
    // The notebook's backing job is cancelled by the notebook teardown;
    // the batch job by the account sweep.
    assert!(report.jobs_cancelled >= 1, "batch job cancelled");
    let (_pending, running) = infra.scheduler.queue_depth();
    assert_eq!(running, 0, "no job of the subject survives");
    assert!(report.proxy_suspended);

    assert_eq!(infra.bastion.session_count(), 0);
    assert_eq!(infra.login_node.session_count(), 0);
    assert_eq!(infra.jupyter.session_count(), 0);
    // New logins are refused at two independent layers.
    assert!(infra.federated_login("alice").is_err());
    // And the kill itself is in the SIEM.
    assert_eq!(infra.siem.events_of_kind(EventKind::KillSwitch).len(), 1);
}

#[test]
fn kill_switch_event_carries_originating_login_trace_id() {
    let (infra, subject) = victim_with_footholds();
    // The trace id stamped on the victim's broker session at login time
    // is the provenance link the SOC pivots on.
    let login_trace = infra
        .broker
        .sessions_of_subject(&subject)
        .into_iter()
        .rev()
        .find_map(|s| s.trace_id)
        .expect("login stamped a trace id on the session");

    infra.kill_user(&subject);

    let events = infra.siem.events_of_kind(EventKind::KillSwitch);
    assert_eq!(events.len(), 1);
    assert_eq!(
        events[0].trace_id,
        Some(login_trace),
        "severed-session event must cite the originating login's trace"
    );
}

#[test]
fn reinstatement_restores_access() {
    let (infra, subject) = victim_with_footholds();
    infra.kill_user(&subject);
    infra.reinstate_user(&subject);
    assert!(infra.federated_login("alice").is_ok());
    assert!(infra.story4_ssh_connect("alice", "climate-llm").is_ok());
}

#[test]
fn bastion_global_kill_severs_all_users() {
    let infra = Infrastructure::new(InfraConfig::default());
    for (i, name) in ["alice", "bob", "carol"].iter().enumerate() {
        infra.create_federated_user(name, "pw");
        infra
            .story1_onboard_pi(&format!("proj-{i}"), name, 10.0)
            .unwrap();
        infra
            .story4_ssh_connect(name, &format!("proj-{i}"))
            .unwrap();
    }
    assert_eq!(infra.bastion.session_count(), 3);
    let severed = infra.kill_bastion();
    assert_eq!(severed, 3);
    // Everyone is locked out until restore.
    assert!(infra.story4_ssh_connect("alice", "proj-0").is_err());
    infra.bastion.global_restore();
    assert!(infra.story4_ssh_connect("alice", "proj-0").is_ok());
}

#[test]
fn alert_driven_response_contains_live_attacker() {
    let (infra, subject) = victim_with_footholds();
    // Simulate the SOC deciding alice's account is compromised: feed the
    // SIEM enough token rejections to fire the token-abuse rule.
    for _ in 0..infra.config.detection.token_reject_threshold {
        infra.clock.advance(100);
        infra.emit(
            "mdc/login01",
            EventKind::TokenRejected,
            &subject,
            "replayed token",
            isambard_dri::siem::Severity::Warning,
        );
    }
    let alert = infra
        .siem
        .alerts()
        .into_iter()
        .find(|a| a.rule == "token-abuse")
        .expect("alert fired");
    let action = infra.respond_to_alert(&alert);
    assert!(action.contains("killed subject"));
    assert_eq!(infra.login_node.session_count(), 0);
    assert_eq!(infra.jupyter.session_count(), 0);
}

#[test]
fn detection_to_containment_latency_is_bounded() {
    let (infra, subject) = victim_with_footholds();
    let attack_start = infra.clock.now_ms();
    for _ in 0..infra.config.detection.token_reject_threshold {
        infra.clock.advance(1_000);
        infra.emit(
            "mdc/login01",
            EventKind::TokenRejected,
            &subject,
            "replayed token",
            isambard_dri::siem::Severity::Warning,
        );
    }
    let alert = infra.siem.alerts().into_iter().next().expect("alert");
    infra.respond_to_alert(&alert);
    let contained_at = infra.clock.now_ms();
    let latency_ms = contained_at - attack_start;
    // Containment happens within the detection window, not after it.
    assert!(
        latency_ms <= infra.config.detection.token_window_ms,
        "latency {latency_ms}ms"
    );
}

#[test]
fn kill_is_authoritative_on_the_admin_path() {
    let infra = Infrastructure::new(InfraConfig::default());
    let admin = infra.story2_register_admin("dave").unwrap();
    let (cluster_token, _) = infra.token_for("dave", "mgmt-cluster", vec![]).unwrap();
    let (tailnet_token, _) = infra.token_for("dave", "mgmt-tailnet", vec![]).unwrap();
    let node = TailnetNode::generate("dave-node", &mut infra.rng.lock());
    infra.tailnet.enroll(&node, &tailnet_token).unwrap();
    assert!(infra.tailnet.send(&node, "mdc-mgmt01", b"ping").is_ok());

    let report = infra.kill_user(&admin.subject);
    assert_eq!(report.tailnet_nodes_disabled, 1);

    // Tokens minted before the kill are refused by the management plane
    // and the tailnet coordinator alike, and the enrolled node is cut.
    assert_eq!(
        infra.mgmt.execute(
            TransportPath::Tailnet,
            &cluster_token,
            MgmtOp::DrainPartition("gh".into())
        ),
        Err(MgmtError::TokenRevoked)
    );
    let spare = TailnetNode::generate("dave-spare", &mut infra.rng.lock());
    assert_eq!(
        infra.tailnet.enroll(&spare, &tailnet_token),
        Err(TailnetError::TokenRevoked)
    );
    assert_eq!(
        infra.tailnet.send(&node, "mdc-mgmt01", b"ping"),
        Err(TailnetError::NodeDisabled("dave-node".into()))
    );

    // Reinstatement lifts the revocation but not the node cut: the
    // subject logs in and enrols again with a fresh token.
    infra.reinstate_user(&admin.subject);
    assert!(infra.tailnet.send(&node, "mdc-mgmt01", b"ping").is_err());
    infra.admin_login("dave").unwrap();
    let (fresh, _) = infra.token_for("dave", "mgmt-tailnet", vec![]).unwrap();
    infra.tailnet.enroll(&node, &fresh).unwrap();
    assert!(infra.tailnet.send(&node, "mdc-mgmt01", b"ping").is_ok());
}
