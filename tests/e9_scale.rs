//! E9 — the RSECon24 scale claim as an integration test: 45 trainees log
//! in and run notebooks simultaneously with zero authorisation errors.

use isambard_dri::core::{InfraConfig, Infrastructure};
use isambard_dri::workload::{build_population, run_storm, StormMode};

fn users_for(infra: &Infrastructure, projects: usize, per: usize) -> Vec<(String, String)> {
    build_population(infra, projects, per).unwrap().members()
}

#[test]
fn forty_five_concurrent_trainees() {
    let infra = Infrastructure::new(InfraConfig::default());
    let users = users_for(&infra, 9, 4); // 9 x 5 = 45
    assert_eq!(users.len(), 45);
    let result = run_storm(&infra, &users, StormMode::Parallel(8));
    assert_eq!(result.completed, 45, "failures: {:?}", result.failures);
    assert!(result.failures.is_empty());
    // 45 live notebooks, each on its own scheduler job and account.
    assert_eq!(infra.jupyter.session_count(), 45);
    let (_, running) = infra.scheduler.queue_depth();
    assert_eq!(running, 45);
}

#[test]
fn tenant_isolation_holds_under_load() {
    let infra = Infrastructure::new(InfraConfig::default());
    let users = users_for(&infra, 6, 4); // 30 users
    run_storm(&infra, &users, StormMode::Parallel(8));
    // Every project's members hold distinct unix accounts, and no account
    // appears in two projects.
    let mut seen = std::collections::HashSet::new();
    for p in 1..=6 {
        let project = infra.portal.project(&format!("proj-{p:06}")).unwrap();
        for m in &project.members {
            assert!(
                seen.insert(m.unix_account.clone()),
                "unix account {} reused across tenants",
                m.unix_account
            );
        }
    }
}

#[test]
fn post_storm_telemetry_is_complete() {
    let infra = Infrastructure::new(InfraConfig::default());
    let users = users_for(&infra, 9, 4);
    run_storm(&infra, &users, StormMode::Serial);
    // One AuthnSuccess per onboarding login + storm logins, one
    // TokenIssued + NotebookSpawned per storm flow.
    use isambard_dri::siem::EventKind;
    assert!(infra.siem.events_of_kind(EventKind::NotebookSpawned).len() >= 45);
    assert!(infra.siem.events_of_kind(EventKind::TokenIssued).len() >= 45);
    assert!(infra.siem.alerts().is_empty(), "benign load must not alert");
}
