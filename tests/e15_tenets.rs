//! E15 — the seven NIST zero-trust tenets, audited against the running
//! co-design and against ablated variants.

use isambard_dri::core::{InfraConfig, Infrastructure};
use isambard_dri::policy::{assess, Evidence, TENETS};

/// Exercise the infrastructure enough to generate real evidence.
fn exercised_infra() -> Infrastructure {
    exercised(InfraConfig::default())
}

/// Run all six stories on a deployment built from `cfg`.
fn exercised(cfg: InfraConfig) -> Infrastructure {
    let infra = Infrastructure::new(cfg);
    infra.create_federated_user("alice", "pw");
    infra
        .story1_onboard_pi("climate-llm", "alice", 100.0)
        .unwrap();
    infra.story2_register_admin("dave").unwrap();
    infra.story4_ssh_connect("alice", "climate-llm").unwrap();
    infra
        .story6_jupyter("alice", "climate-llm", "198.51.100.10")
        .unwrap();
    infra
        .story5_privileged_op("dave", isambard_dri::cluster::MgmtOp::Health)
        .unwrap();
    infra.pump_network_logs();
    infra
}

#[test]
fn full_codesign_passes_all_seven_tenets() {
    let infra = exercised_infra();
    let audit = infra.tenet_audit();
    assert!(
        audit.compliant(),
        "failing tenets: {:?}\n{:#?}",
        audit.gaps(),
        audit.controls
    );
    assert_eq!(audit.score(), (7, 7));
}

#[test]
fn evidence_is_live_not_configured() {
    let infra = exercised_infra();
    let ev = infra.evidence();
    // Real counters, not constants.
    assert!(ev.pdp_consultations >= 3, "stories consult the PDP");
    assert!(ev.events_collected > 10, "telemetry flowed");
    assert!(ev.telemetry_sources >= 3, "multiple domains ship logs");
    assert!(ev.assets_inventoried >= 5);
    assert!(ev.revocation_effective, "live revocation probe");
}

#[test]
fn long_lived_credentials_fail_tenet_3() {
    let cfg = InfraConfig {
        cert_ttl_secs: 365 * 24 * 3600, // year-long certs, the old way
        ..InfraConfig::default()
    };
    // Exercised like the full co-design, so every other tenet has its
    // evidence and the certificate lifetime is the only difference.
    let audit = exercised(cfg).tenet_audit();
    assert_eq!(audit.gaps(), ["3"], "year-long certs break tenet 3 only");
}

#[test]
fn no_telemetry_fails_tenet_7() {
    // A fresh, never-exercised deployment has no events and thus cannot
    // demonstrate tenet 7 — evidence must be earned.
    let infra = Infrastructure::new(InfraConfig::default());
    let audit = infra.tenet_audit();
    assert!(audit.gaps().contains(&"7"), "failing: {:?}", audit.gaps());
}

#[test]
fn perimeter_baseline_fails_most_tenets() {
    // The hand-built evidence of a perimeter deployment (long-lived keys,
    // plaintext interior, no PDP / SIEM) — the paper's "typical
    // supercomputing environment".
    let ev = Evidence {
        services_total: 6,
        services_with_policy: 1,
        channels_total: 5,
        channels_encrypted: 1,
        longest_credential_ttl_secs: 10 * 365 * 24 * 3600,
        tokens_session_bound: false,
        pdp_signals: 1,
        pdp_consultations: 0,
        assets_inventoried: 0,
        config_checks_run: 0,
        reauth_enforced: false,
        revocation_effective: false,
        events_collected: 0,
        telemetry_sources: 0,
        ..Evidence::default()
    };
    let audit = assess(TENETS, &ev);
    let (passed, _) = audit.score();
    assert_eq!(passed, 0);
}

#[test]
fn cis_report_matches_paper_self_assessment() {
    let infra = exercised_infra();
    let report = infra.cis_report();
    let (passed, total) = report.score();
    assert_eq!(total, 12);
    assert_eq!(passed, 11, "all but HPC-fabric encryption");
    assert_eq!(report.gaps()[0], "DRI-12");
}
