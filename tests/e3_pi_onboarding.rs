//! E3 — user story 1: PI onboarding with authorisation-led registration.

mod common;

use isambard_dri::broker::AuthorizationSource;
use isambard_dri::broker::BrokerError;
use isambard_dri::core::{FlowError, InfraConfig, Infrastructure};

#[test]
fn full_pi_onboarding_pipeline() {
    let infra = Infrastructure::new(InfraConfig::default());
    infra.create_federated_user("alice", "pw");
    let outcome = infra
        .story1_onboard_pi("climate-llm", "alice", 5000.0)
        .unwrap();

    // The project exists and alice is its PI.
    let project = infra.portal.project(&outcome.project_id).unwrap();
    assert_eq!(project.name, "climate-llm");
    let member = project.member(&outcome.cuid).unwrap();
    assert_eq!(member.role.as_str(), "pi");
    assert_eq!(member.unix_account, outcome.unix_account);
    assert!(member.terms_accepted_at > 0);

    // Her session is live and she can mint tokens for member services.
    assert!(infra.broker.session(&outcome.session_id).is_some());
    let (_, claims) = infra.token_for("alice", "ssh-ca", vec![]).unwrap();
    assert!(claims.has_role("pi"));

    // The flow's spans show the designed order: the project exists and
    // the invitation is accepted before the broker establishes a session.
    const HOPS: [&str; 3] = [
        "portal.create_project",
        "portal.accept_invitation",
        "broker.establish",
    ];
    let hops: Vec<&str> = common::flow_spans(&infra, "story1.onboard_pi", "alice")
        .iter()
        .map(|s| s.name)
        .filter(|name| HOPS.contains(name))
        .collect();
    assert_eq!(hops, HOPS);
}

#[test]
fn registration_without_grant_fails_after_myaccessid() {
    let infra = Infrastructure::new(InfraConfig::default());
    infra.create_federated_user("mallory", "pw");
    // MyAccessID registration itself succeeds...
    let (cuid, _) = infra.proxy_authenticate("mallory").unwrap();
    assert!(infra.proxy.account(&cuid).is_some());
    // ...but the broker refuses the unauthorised subject — the paper's
    // "registration process will fail after the MyAccessID registration".
    assert!(matches!(
        infra.federated_login("mallory"),
        Err(FlowError::Broker(BrokerError::NotAuthorized))
    ));
}

#[test]
fn project_expiry_revokes_everything() {
    let infra = Infrastructure::new(InfraConfig::default());
    infra.create_federated_user("alice", "pw");
    let outcome = infra
        .story1_onboard_pi("shortlived", "alice", 100.0)
        .unwrap();
    assert!(!infra.portal.roles_for(&outcome.cuid, "ssh-ca").is_empty());

    // 91 days later the project is past its end date.
    infra.clock.advance_secs(91 * 24 * 3600);
    assert!(infra.portal.roles_for(&outcome.cuid, "ssh-ca").is_empty());
    // Re-login is refused: no active grants remain.
    assert!(matches!(
        infra.federated_login("alice"),
        Err(FlowError::Broker(BrokerError::NotAuthorized))
    ));
}

#[test]
fn on_demand_revocation_works_immediately() {
    let infra = Infrastructure::new(InfraConfig::default());
    infra.create_federated_user("alice", "pw");
    let outcome = infra
        .story1_onboard_pi("revocable", "alice", 100.0)
        .unwrap();
    infra
        .portal
        .revoke_project("admin:ops", &outcome.project_id)
        .unwrap();
    assert!(infra.portal.roles_for(&outcome.cuid, "jupyter").is_empty());
    assert!(infra
        .broker
        .issue_token(&outcome.session_id, "jupyter")
        .is_err());
}

#[test]
fn declining_terms_blocks_membership() {
    let infra = Infrastructure::new(InfraConfig::default());
    infra.create_federated_user("bob", "pw");
    let now = infra.clock.now_secs();
    let (_, invitation) = infra
        .portal
        .create_project(
            "admin:ops",
            "p",
            isambard_dri::portal::Allocation::gpu(1.0),
            now,
            now + 1000,
            "bob@x",
        )
        .unwrap();
    let (cuid, _) = infra.proxy_authenticate("bob").unwrap();
    assert!(infra
        .portal
        .accept_invitation(&invitation.token, &cuid, false)
        .is_err());
    assert!(!infra.portal.is_authorized_subject(&cuid));
}

#[test]
fn same_person_two_projects_two_unix_accounts() {
    let infra = Infrastructure::new(InfraConfig::default());
    infra.create_federated_user("alice", "pw");
    let p1 = infra.story1_onboard_pi("proj-a", "alice", 100.0).unwrap();
    let now = infra.clock.now_secs();
    let (_, inv2) = infra
        .portal
        .create_project(
            "admin:ops",
            "proj-b",
            isambard_dri::portal::Allocation::gpu(1.0),
            now,
            now + 10_000,
            "alice@x",
        )
        .unwrap();
    let m2 = infra
        .portal
        .accept_invitation(&inv2.token, &p1.cuid, true)
        .unwrap();
    assert_ne!(p1.unix_account, m2.unix_account);
}
