//! E7 — user story 5: privileged operations through layered enforcement.

mod common;

use isambard_dri::cluster::{MgmtError, MgmtOp, TransportPath};
use isambard_dri::core::config::ADMIN_TOKEN_TTL_SECS;
use isambard_dri::core::{FlowError, InfraConfig, Infrastructure};

#[test]
fn privileged_op_end_to_end() {
    let infra = Infrastructure::new(InfraConfig::default());
    infra.story2_register_admin("dave").unwrap();
    // Seed a job to cancel.
    infra
        .scheduler
        .submit("u-rogue", "p", "gh", 1, 1000)
        .unwrap();
    infra.scheduler.tick();

    let outcome = infra
        .story5_privileged_op("dave", MgmtOp::CancelUserJobs("u-rogue".into()))
        .unwrap();
    assert_eq!(outcome.detail, "cancelled 1 jobs of u-rogue");
    // The flow's spans show the device enrolled on the tailnet with a
    // `mgmt-tailnet` token and the command sent over it, before the
    // `mgmt-cluster` token the management plane checks.
    let spans = common::flow_spans(&infra, "story5.privileged_op", "dave");
    let hops: Vec<(&str, Option<&str>)> = spans
        .iter()
        .filter(|s| s.name.starts_with("tailnet.") || s.name == "broker.issue_token")
        .map(|s| {
            let aud = s.attrs.iter().find(|(k, _)| k == "aud");
            (s.name, aud.map(|(_, v)| v.as_str()))
        })
        .collect();
    assert_eq!(
        hops,
        [
            ("broker.issue_token", Some("mgmt-tailnet")),
            ("tailnet.enroll", None),
            ("tailnet.send", None),
            ("broker.issue_token", Some("mgmt-cluster")),
        ]
    );
    // The management plane's layers (token, cluster ACL) have no span:
    // the op in its audit log shows they passed.
    assert_eq!(infra.mgmt.audit_log().len(), 1);
}

#[test]
fn researcher_cannot_perform_privileged_ops() {
    let infra = Infrastructure::new(InfraConfig::default());
    infra.create_federated_user("alice", "pw");
    infra.story1_onboard_pi("p", "alice", 10.0).unwrap();
    // The PDP (critical sensitivity) or the broker stops her well before
    // the management plane.
    let err = infra
        .story5_privileged_op("alice", MgmtOp::Health)
        .unwrap_err();
    assert!(matches!(
        err,
        FlowError::PolicyDenied(_) | FlowError::Broker(_)
    ));
    assert!(infra.mgmt.audit_log().is_empty());
}

#[test]
fn direct_transport_rejected_even_with_valid_token() {
    let infra = Infrastructure::new(InfraConfig::default());
    infra.story2_register_admin("dave").unwrap();
    let (token, _) = infra.token_for("dave", "mgmt-cluster", vec![]).unwrap();
    assert_eq!(
        infra
            .mgmt
            .execute(TransportPath::Direct, &token, MgmtOp::Health)
            .unwrap_err(),
        MgmtError::WrongTransport
    );
}

#[test]
fn tailnet_kill_switch_stops_admin_ops() {
    let infra = Infrastructure::new(InfraConfig::default());
    infra.story2_register_admin("dave").unwrap();
    infra.kill_tailnet();
    assert!(matches!(
        infra.story5_privileged_op("dave", MgmtOp::Health),
        Err(FlowError::Tailnet(_))
    ));
    infra.tailnet.restore();
    assert!(infra.story5_privileged_op("dave", MgmtOp::Health).is_ok());
}

#[test]
fn cluster_acl_removal_is_an_independent_layer() {
    let infra = Infrastructure::new(InfraConfig::default());
    let outcome = infra.story2_register_admin("dave").unwrap();
    infra.mgmt.acl_remove(&outcome.subject);
    assert!(matches!(
        infra.story5_privileged_op("dave", MgmtOp::Health),
        Err(FlowError::Mgmt(MgmtError::NotOnClusterAcl))
    ));
}

#[test]
fn admin_token_expiry_forces_fresh_issuance() {
    let infra = Infrastructure::new(InfraConfig::default());
    infra.story2_register_admin("dave").unwrap();
    let (token, _) = infra.token_for("dave", "mgmt-cluster", vec![]).unwrap();
    infra.clock.advance_secs(ADMIN_TOKEN_TTL_SECS + 1);
    assert!(matches!(
        infra
            .mgmt
            .execute(TransportPath::Tailnet, &token, MgmtOp::Health),
        Err(MgmtError::BadToken(_))
    ));
    // A fresh token from the still-live session works.
    let (token2, _) = infra.token_for("dave", "mgmt-cluster", vec![]).unwrap();
    assert!(infra
        .mgmt
        .execute(TransportPath::Tailnet, &token2, MgmtOp::Health)
        .is_ok());
}
