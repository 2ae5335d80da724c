//! E16 (extension) — the paper's stated next step, made executable:
//! NCSC CAF baseline-profile assessment of the deployed co-design.

use isambard_dri::core::{InfraConfig, Infrastructure};
use isambard_dri::policy::Achievement;

fn exercised() -> Infrastructure {
    let infra = Infrastructure::new(InfraConfig::default());
    infra.create_federated_user("alice", "pw");
    infra.story1_onboard_pi("p", "alice", 100.0).unwrap();
    infra.story2_register_admin("dave").unwrap();
    infra.story4_ssh_connect("alice", "p").unwrap();
    infra.story6_jupyter("alice", "p", "198.51.100.30").unwrap();
    infra.pump_network_logs();
    infra
}

#[test]
fn deployed_codesign_meets_caf_baseline() {
    let infra = exercised();
    let assessment = infra.caf_assessment();
    assert!(
        assessment.compliant(),
        "gaps: {:?}\n{:#?}",
        assessment.gaps(),
        assessment.controls
    );
    assert_eq!(assessment.score(), (14, 14));
}

#[test]
fn devsecops_gap_is_reported_honestly() {
    // The paper admits the DevSecOps culture is still being grown; the
    // assessment must show B6 as partially achieved, not achieved.
    let infra = exercised();
    let assessment = infra.caf_assessment();
    let b6 = assessment.controls.iter().find(|c| c.id == "B6").unwrap();
    assert_eq!(b6.achieved, Achievement::PartiallyAchieved);
    assert!(b6.met());
}

#[test]
fn fresh_deployment_fails_monitoring_principles() {
    // Never-exercised infrastructure has no telemetry; C1 cannot be met.
    let infra = Infrastructure::new(InfraConfig::default());
    let assessment = infra.caf_assessment();
    assert!(
        assessment.gaps().contains(&"C1"),
        "gaps: {:?}",
        assessment.gaps()
    );
}

#[test]
fn single_bastion_deployment_still_meets_baseline() {
    let cfg = InfraConfig {
        bastion_instances: 1,
        ..InfraConfig::default()
    };
    let infra = Infrastructure::new(cfg);
    infra.create_federated_user("alice", "pw");
    infra.story1_onboard_pi("p", "alice", 100.0).unwrap();
    infra.story4_ssh_connect("alice", "p").unwrap();
    infra.story6_jupyter("alice", "p", "198.51.100.30").unwrap();
    infra.story2_register_admin("dave").unwrap();
    infra.pump_network_logs();
    let assessment = infra.caf_assessment();
    let b5 = assessment.controls.iter().find(|c| c.id == "B5").unwrap();
    assert_eq!(b5.achieved, Achievement::PartiallyAchieved);
    assert!(assessment.compliant());
}

#[test]
fn compliance_probes_leave_nothing_behind() {
    // Every assessment runs the live revocation and kill-switch probes;
    // they must leave no session open, no key blocked, and the login ops
    // already holds intact.
    let infra = exercised();
    infra.admin_login("ops").expect("ops logs in");
    let broker_sessions = infra.broker.session_count();
    let bastion_sessions = infra.bastion.session_count();
    assert!(infra.tenet_audit().compliant());
    assert!(infra.caf_assessment().compliant());
    assert_eq!(infra.cis_report().score(), (11, 12));
    assert_eq!(infra.broker.session_count(), broker_sessions);
    assert_eq!(infra.bastion.session_count(), bastion_sessions);
    infra
        .story4_ssh_connect("alice", "p")
        .expect("story 4 after the probes");
    infra
        .token_for("ops", "mgmt-tailnet", vec![])
        .expect("ops's session survives the probes");
}
