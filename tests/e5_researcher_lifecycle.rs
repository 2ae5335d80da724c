//! E5 — user story 3: researcher onboarding, privilege boundaries, and
//! lifecycle revocation (removal by PI, IdP deprovisioning).

mod common;

use isambard_dri::broker::AuthorizationSource;
use isambard_dri::broker::BrokerError;
use isambard_dri::core::{Cuid, FlowError, InfraConfig, Infrastructure, ProjectId};
use isambard_dri::federation::AuthnError;
use isambard_dri::portal::PortalError;

struct Setup {
    infra: Infrastructure,
    project_id: ProjectId,
    researcher_cuid: Cuid,
}

fn onboard() -> Setup {
    let infra = Infrastructure::new(InfraConfig::default());
    infra.create_federated_user("alice", "pw");
    let pi = infra.story1_onboard_pi("genomics", "alice", 100.0).unwrap();
    infra.create_federated_user("ravi", "pw2");
    let researcher = infra
        .story3_onboard_researcher("alice", &pi.project_id, "genomics", "ravi")
        .unwrap();
    Setup {
        infra,
        project_id: pi.project_id,
        researcher_cuid: researcher.cuid,
    }
}

#[test]
fn researcher_gets_researcher_role_not_pi() {
    let s = onboard();
    let roles = s.infra.portal.roles_for(&s.researcher_cuid, "jupyter");
    assert_eq!(roles, vec!["researcher"]);
    let (_, claims) = s.infra.token_for("ravi", "ssh-ca", vec![]).unwrap();
    assert!(claims.has_role("researcher"));
    assert!(!claims.has_role("pi"));
    // The PI's invitation is accepted before the broker session exists.
    const HOPS: [&str; 3] = [
        "portal.invite_researcher",
        "portal.accept_invitation",
        "broker.establish",
    ];
    let hops: Vec<&str> = common::flow_spans(&s.infra, "story3.onboard_researcher", "ravi")
        .iter()
        .map(|s| s.name)
        .filter(|name| HOPS.contains(name))
        .collect();
    assert_eq!(hops, HOPS);
}

#[test]
fn researcher_cannot_invite_others() {
    let s = onboard();
    assert_eq!(
        s.infra
            .portal
            .invite_researcher(&s.researcher_cuid, &s.project_id, "friend@x")
            .unwrap_err(),
        PortalError::Forbidden
    );
}

#[test]
fn pi_removal_revokes_researcher() {
    let s = onboard();
    let pi_subject = s.infra.subject_of("alice").unwrap();
    s.infra
        .portal
        .remove_member(&pi_subject, &s.project_id, &s.researcher_cuid)
        .unwrap();
    assert!(s
        .infra
        .portal
        .roles_for(&s.researcher_cuid, "jupyter")
        .is_empty());
    // Fresh login now fails — no authorisation remains.
    assert!(matches!(
        s.infra.federated_login("ravi"),
        Err(FlowError::Broker(BrokerError::NotAuthorized))
    ));
}

#[test]
fn idp_deprovisioning_blocks_authentication() {
    let s = onboard();
    // Ravi leaves his university: the institutional IdP deprovisions him.
    assert!(s.infra.university_idp.deprovision_user("ravi"));
    // "Authentication will fail if a user is no longer affiliated with
    // the organisational IdP" — the failure is at the IdP layer.
    assert!(matches!(
        s.infra.federated_login("ravi"),
        Err(FlowError::Idp(AuthnError::Deprovisioned))
    ));
}

#[test]
fn researcher_identity_is_persistent_across_logins() {
    let s = onboard();
    let before = s.infra.subject_of("ravi").unwrap();
    s.infra.federated_login("ravi").unwrap();
    s.infra.federated_login("ravi").unwrap();
    assert_eq!(s.infra.subject_of("ravi").unwrap(), before);
    // Exactly two community accounts exist (alice + ravi).
    assert_eq!(s.infra.proxy.account_count(), 2);
}

#[test]
fn removed_then_reinvited_keeps_same_cuid_but_new_grant() {
    let s = onboard();
    let pi_subject = s.infra.subject_of("alice").unwrap();
    s.infra
        .portal
        .remove_member(&pi_subject, &s.project_id, &s.researcher_cuid)
        .unwrap();
    let invitation = s
        .infra
        .portal
        .invite_researcher(&pi_subject, &s.project_id, "ravi@again")
        .unwrap();
    let membership = s
        .infra
        .portal
        .accept_invitation(&invitation.token, &s.researcher_cuid, true)
        .unwrap();
    assert_eq!(membership.subject, s.researcher_cuid);
    assert!(!s
        .infra
        .portal
        .roles_for(&s.researcher_cuid, "jupyter")
        .is_empty());
}
