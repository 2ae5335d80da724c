//! Telemetry depth: the statistical anomaly loop and the metrics surface
//! (the "increased telemetry needed for introducing DevSecOps" of §V).

use isambard_dri::core::{InfraConfig, Infrastructure};
use isambard_dri::siem::{EventKind, Severity};

#[test]
fn steady_operations_produce_no_rate_anomalies() {
    let infra = Infrastructure::new(InfraConfig::default());
    infra.create_federated_user("alice", "pw");
    infra.story1_onboard_pi("p", "alice", 100.0).unwrap();
    // A calm hour: one token per minute.
    for _ in 0..60 {
        infra.clock.advance_secs(60);
        let _ = infra.token_for("alice", "ssh-ca", vec![]);
    }
    assert!(infra.rate_anomalies().is_empty());
}

#[test]
fn event_burst_is_flagged_statistically() {
    let infra = Infrastructure::new(InfraConfig::default());
    // Baseline: one benign event per minute from one source for an hour.
    for _ in 0..60 {
        infra.clock.advance_secs(60);
        infra.emit(
            "mdc/login01",
            EventKind::ConnAllowed,
            "",
            "routine",
            Severity::Info,
        );
    }
    assert!(infra.rate_anomalies().is_empty());
    // Burst: 500 events inside one minute (e.g. a runaway scanner),
    // using an event kind the signature rules ignore.
    for _ in 0..500 {
        infra.clock.advance(100);
        infra.emit(
            "mdc/login01",
            EventKind::ConnAllowed,
            "",
            "scan burst",
            Severity::Info,
        );
    }
    // Roll into the next bucket so the burst bucket is scored.
    infra.clock.advance_secs(120);
    infra.emit(
        "mdc/login01",
        EventKind::ConnAllowed,
        "",
        "after",
        Severity::Info,
    );
    let anomalies = infra.rate_anomalies();
    assert!(
        !anomalies.is_empty(),
        "burst must be flagged; sources tracked: {}",
        infra.anomaly.tracked_sources()
    );
    assert_eq!(anomalies[0].source, "mdc/login01");
    assert!(anomalies[0].z_score > 4.0);
}

#[test]
fn siem_indexes_events_by_trace_id() {
    let infra = Infrastructure::new(InfraConfig::default());
    infra.create_federated_user("alice", "pw");
    infra.story1_onboard_pi("p", "alice", 100.0).unwrap();
    infra.story4_ssh_connect("alice", "p").unwrap();
    // Traced flows stamp their events; the SIEM's trace index joins
    // them back so one trace id answers "what did this flow touch?".
    assert!(infra.siem.indexed_trace_count() > 0);
    let session = infra
        .broker
        .sessions_of_subject(&infra.subject_of("alice").unwrap());
    let trace = session
        .iter()
        .find_map(|s| s.trace_id)
        .expect("login session carries its origin trace id");
    assert!(
        !infra.siem.events_for_trace(trace).is_empty(),
        "the login trace joins to at least one SIEM event"
    );
}

#[test]
fn anomaly_and_signature_rules_are_complementary() {
    let infra = Infrastructure::new(InfraConfig::default());
    // Signature rules catch *semantic* badness at low volume (5 failures)…
    for _ in 0..5 {
        infra.clock.advance(1000);
        infra.emit(
            "fds/broker",
            EventKind::AuthnFailure,
            "victim",
            "bad password",
            Severity::Warning,
        );
    }
    assert!(!infra.siem.alerts().is_empty(), "signature rule fired");
    // …which is far below the statistical radar (needs history + volume).
    assert!(infra.rate_anomalies().is_empty());
}
