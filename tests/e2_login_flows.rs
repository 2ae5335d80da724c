//! E2 — Fig. 2: the login page's three identity routes, plus federation
//! growth (partner IdPs appearing in discovery).

mod common;

use isambard_dri::core::{InfraConfig, Infrastructure};
use isambard_dri::federation::LevelOfAssurance;

#[test]
fn discovery_list_grows_with_partner_idps() {
    let infra = Infrastructure::new(InfraConfig::default());
    assert_eq!(infra.proxy.discovery_list().len(), 1);
    infra.register_partner_idp("University of Tartu", "ut.ee", LevelOfAssurance::Medium);
    infra.register_partner_idp("EPCC", "epcc.ed.ac.uk", LevelOfAssurance::High);
    let list = infra.proxy.discovery_list();
    assert_eq!(list.len(), 3);
    let names: Vec<&str> = list.iter().map(|d| d.display_name.as_str()).collect();
    assert!(names.contains(&"University of Tartu"));
    assert!(names.contains(&"EPCC"));
}

#[test]
fn partner_idp_user_full_journey() {
    let infra = Infrastructure::new(InfraConfig::default());
    let idp = infra.register_partner_idp("University of Tartu", "ut.ee", LevelOfAssurance::Medium);
    infra.create_federated_user_at(&idp, "mari", "pw");
    // Full story 1 via a partner IdP.
    let outcome = infra.story1_onboard_pi("estonia-ai", "mari", 50.0).unwrap();
    assert!(outcome.cuid.starts_with("maid-"));
    // And the SSH story works identically.
    let ssh = infra.story4_ssh_connect("mari", "estonia-ai").unwrap();
    assert_eq!(ssh.shell.project, "estonia-ai");
}

#[test]
fn same_human_two_idps_one_community_identity() {
    let infra = Infrastructure::new(InfraConfig::default());
    infra.create_federated_user("alice", "pw");
    let outcome = infra.story1_onboard_pi("p", "alice", 10.0).unwrap();
    // Alice also has a Tartu identity; she links it.
    let idp = infra.register_partner_idp("University of Tartu", "ut.ee", LevelOfAssurance::Medium);
    infra
        .proxy
        .link_identity(&outcome.cuid, &idp, "alice@ut.ee")
        .unwrap();
    let account = infra.proxy.account(&outcome.cuid).unwrap();
    assert_eq!(account.linked_identities.len(), 2);
    // Uniqueness guarantee: the Tartu identity cannot be linked again.
    assert!(infra
        .proxy
        .link_identity(&outcome.cuid, &idp, "alice@ut.ee")
        .is_err());
}

#[test]
fn three_routes_yield_distinct_acr_classes() {
    let infra = Infrastructure::new(InfraConfig::default());
    // Federated.
    infra.create_federated_user("alice", "pw");
    let pi = infra.story1_onboard_pi("p", "alice", 10.0).unwrap();
    let federated = infra.broker.session(&pi.session_id).unwrap();
    assert_eq!(federated.acr, "pwd");
    assert_eq!(federated.loa, LevelOfAssurance::Medium);

    // Last resort (password + TOTP).
    infra.create_last_resort_user("vendor", "pw");
    let now = infra.clock.now_secs();
    let (_, inv) = infra
        .portal
        .create_project(
            "admin:ops",
            "vp",
            isambard_dri::portal::Allocation::gpu(1.0),
            now,
            now + 100_000,
            "v@c",
        )
        .unwrap();
    infra
        .portal
        .accept_invitation(&inv.token, "last-resort:vendor", true)
        .unwrap();
    let session = infra.last_resort_login("vendor").unwrap();
    assert_eq!(session.acr, "mfa-totp");
    assert_eq!(session.loa, LevelOfAssurance::High);

    // Admin (hardware key).
    let admin = infra.story2_register_admin("dave").unwrap();
    let session = infra.broker.session(&admin.session_id).unwrap();
    assert_eq!(session.acr, "mfa-hw");
}

#[test]
fn login_steps_are_constant_per_route() {
    // The hops of a federated onboarding don't depend on how many users
    // exist: every user's story-1 flow records the same spans in the
    // same order.
    let infra = Infrastructure::new(InfraConfig::default());
    let hops = |label: &str| -> Vec<&'static str> {
        common::flow_spans(&infra, "story1.onboard_pi", label)
            .iter()
            .map(|s| s.name)
            .collect()
    };
    infra.create_federated_user("u0", "pw");
    infra.story1_onboard_pi("p0", "u0", 1.0).unwrap();
    let first = hops("u0");
    assert!(first.contains(&"login.proxy_authenticate"), "{first:?}");
    for i in 1..10 {
        let label = format!("u{i}");
        infra.create_federated_user(&label, "pw");
        infra
            .story1_onboard_pi(&format!("p{i}"), label.as_str(), 1.0)
            .unwrap();
        assert_eq!(hops(&label), first, "user {label}");
    }
}
