//! E4 — user story 2: administrators-only accounts with hardware MFA.

mod common;

use isambard_dri::broker::BrokerError;
use isambard_dri::core::{FlowError, InfraConfig, Infrastructure};

#[test]
fn admin_registration_and_login() {
    let infra = Infrastructure::new(InfraConfig::default());
    let outcome = infra.story2_register_admin("dave").unwrap();
    assert_eq!(outcome.subject, "admin:dave");
    // Hardware-key ACR on the session.
    let session = infra.broker.session(&outcome.session_id).unwrap();
    assert_eq!(session.acr, "mfa-hw");
    // He can mint admin tokens.
    let (_, claims) = infra.token_for("dave", "mgmt-tailnet", vec![]).unwrap();
    assert!(claims.has_role("sysadmin"));
    // The hardware-key login ceremony precedes the broker session.
    let hops: Vec<&str> = common::flow_spans(&infra, "story2.register_admin", "dave")
        .iter()
        .map(|s| s.name)
        .collect();
    assert_eq!(
        hops,
        ["story2.register_admin", "login.admin", "broker.establish"]
    );
}

#[test]
fn unvetted_admin_cannot_login() {
    let infra = Infrastructure::new(InfraConfig::default());
    infra.create_admin("eve", "pw");
    // No vetting step: the hardware-key ceremony refuses at step one.
    assert!(matches!(
        infra.admin_login("eve"),
        Err(FlowError::ManagedIdp(
            isambard_dri::broker::ManagedIdpError::NotVetted
        ))
    ));
}

#[test]
fn admin_access_is_not_global() {
    let infra = Infrastructure::new(InfraConfig::default());
    infra.story2_register_admin("dave").unwrap();
    // Admin roles cover the management audiences, not research services.
    assert!(matches!(
        infra.token_for("dave", "ssh-ca", vec![]),
        Err(FlowError::Broker(BrokerError::NoRolesForAudience))
    ));
    assert!(matches!(
        infra.token_for("dave", "jupyter", vec![]),
        Err(FlowError::Broker(BrokerError::NoRolesForAudience))
    ));
}

#[test]
fn researcher_cannot_reach_admin_audiences() {
    let infra = Infrastructure::new(InfraConfig::default());
    infra.create_federated_user("alice", "pw");
    infra.story1_onboard_pi("p", "alice", 10.0).unwrap();
    let err = infra
        .token_for("alice", "mgmt-tailnet", vec![])
        .unwrap_err();
    // Whichever gate fires first, it must fire.
    assert!(matches!(
        err,
        FlowError::Broker(BrokerError::InsufficientLoa)
            | FlowError::Broker(BrokerError::AcrMismatch)
            | FlowError::Broker(BrokerError::AdminOnly)
            | FlowError::Broker(BrokerError::NoRolesForAudience)
    ));
}

#[test]
fn leaving_admin_loses_access() {
    let infra = Infrastructure::new(InfraConfig::default());
    let outcome = infra.story2_register_admin("dave").unwrap();
    // Dave leaves the group: directory deactivation + grant removal.
    infra.admin_idp.deactivate("dave").unwrap();
    infra.portal.revoke_admin(&outcome.subject, "mgmt-tailnet");
    infra.portal.revoke_admin(&outcome.subject, "mgmt-cluster");
    infra.mgmt.acl_remove(&outcome.subject);
    // New login fails at the IdP.
    assert!(infra.admin_login("dave").is_err());
    // The surviving session can no longer mint admin tokens.
    assert!(infra.token_for("dave", "mgmt-tailnet", vec![]).is_err());
}

#[test]
fn admin_population_stays_small_and_auditable() {
    let infra = Infrastructure::new(InfraConfig::default());
    for i in 0..19 {
        infra.story2_register_admin(format!("admin-{i}")).unwrap();
    }
    // ops + 19 = 20, the design size from the paper.
    assert_eq!(infra.admin_idp.user_count(), 20);
}
