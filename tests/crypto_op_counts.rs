//! Deterministic crypto op-count gate.
//!
//! Wall-clock costs vary by host; the number of Ed25519 signatures and
//! verifications a flow performs does not. This gate pins those counts
//! per flow, so a change that quietly adds a signature or a verify to a
//! hot path fails on any host. It also pins how many verifies a per-key
//! table serves and how many tables are built, so a long-lived key that
//! slips back to the plain path, or one re-prepared per flow, fails too.
//!
//! The same sections pin the spans a flow records and the PDP
//! consultations it makes, read from `Tracer::span_count` and
//! `Infrastructure::pdp_consultation_count`, so a dropped `policy.decide`
//! span or a second consultation fails here too.
//!
//! The counters are process-wide (`dri_crypto::ed25519::op_counts`), so
//! this file holds exactly one `#[test]`: no other test shares the
//! process and moves them while a section is being counted.

use isambard_dri::core::{InfraConfig, Infrastructure};
use isambard_dri::crypto::ed25519::{op_counts, OpCounts};
use isambard_dri::workload::{build_population, run_storm, StormMode};

const PROJECTS: usize = 4;
const USERS: u64 = PROJECTS as u64 * 8;

fn storm_infra(verification_cache: bool) -> (Infrastructure, Vec<(String, String)>) {
    let config = InfraConfig::builder()
        .jupyter_capacity(4096)
        .interactive_nodes(4096)
        .edge_threshold(usize::MAX / 2)
        .verification_cache(verification_cache)
        .build()
        .expect("gate config is valid");
    let infra = Infrastructure::new(config);
    let users = build_population(&infra, PROJECTS, 7)
        .expect("population")
        .members();
    (infra, users)
}

/// Ed25519 operations performed by `f`.
fn counted(f: impl FnOnce()) -> OpCounts {
    let before = op_counts();
    f();
    let after = op_counts();
    OpCounts {
        signs: after.signs - before.signs,
        verifies: after.verifies - before.verifies,
        tables: after.tables - before.tables,
        table_verifies: after.table_verifies - before.table_verifies,
    }
}

/// Spans recorded and PDP consultations made on `infra` by `f`.
fn traced(infra: &Infrastructure, f: impl FnOnce()) -> (usize, u64) {
    let (spans, pdp) = (infra.tracer.span_count(), infra.pdp_consultation_count());
    f();
    (
        infra.tracer.span_count() - spans,
        infra.pdp_consultation_count() - pdp,
    )
}

/// Ed25519 operations, then spans and PDP consultations, of one serial
/// storm over the population.
fn storm_counts(verification_cache: bool) -> (OpCounts, (usize, u64)) {
    let (infra, users) = storm_infra(verification_cache);
    assert_eq!(users.len() as u64, USERS);
    let mut ledger = (0, 0);
    let ops = counted(|| {
        ledger = traced(&infra, || {
            let result = run_storm(&infra, &users, StormMode::Serial);
            assert_eq!(result.completed, users.len(), "{:?}", result.failures);
        });
    });
    (ops, ledger)
}

/// Scale per-flow counts to `flows` flows; no flow builds a table.
fn per_flow(signs: u64, verifies: u64, table_verifies: u64, flows: u64) -> OpCounts {
    OpCounts {
        signs: signs * flows,
        verifies: verifies * flows,
        tables: 0,
        table_verifies: table_verifies * flows,
    }
}

#[test]
fn ed25519_ops_per_flow_are_pinned() {
    // Warm story 6: the one RBAC token signature and no verify at all
    // (the issuing broker seeds the token cache). Seven spans per flow
    // (flow root, policy.decide, broker.issue_token, edge.handle,
    // tunnel.handle, jupyter.spawn, slurm.submit) and one PDP
    // consultation.
    let (warm, warm_ledger) = storm_counts(true);
    assert_eq!(warm, per_flow(1, 0, 0, USERS), "warm storm");
    assert_eq!(
        warm_ledger,
        (7 * USERS as usize, USERS),
        "warm storm spans, PDP"
    );
    // Cold story 6 (verification caches off): the token is verified once
    // at the relying service, from the JWKS key's table. The span tree
    // and the consultation are the same as warm.
    let (cold, cold_ledger) = storm_counts(false);
    assert_eq!(cold, per_flow(1, 1, 1, USERS), "cold storm");
    assert_eq!(cold_ledger, warm_ledger, "cold storm spans, PDP");

    // One federated login plus story 4 (SSH through CA and bastion):
    // the counts measured when this gate was written. A change that moves
    // them must say why. Four verifies are under long-lived keys and use
    // their tables: the IdP's and the proxy's assertions, and the CA's
    // certificate at the bastion and at the login node. The fifth, the
    // possession proof under the user's own key, stays plain.
    let (infra, users) = storm_infra(true);
    let (label, project) = &users[1];
    let mut ssh_ledger = (0, 0);
    let ssh = counted(|| {
        ssh_ledger = traced(&infra, || {
            infra.federated_login(label).expect("federated login");
            infra
                .story4_ssh_connect(label.as_str(), project)
                .expect("story 4");
        });
    });
    assert_eq!(ssh, per_flow(5, 5, 4, 1), "federated login + story 4");
    // Fourteen spans over the two flows, and the one PDP consultation
    // story 4 makes before touching the CA.
    assert_eq!(ssh_ledger, (14, 1), "federated login + story 4 spans, PDP");

    // A rotation prepares only the new key, a prune none: the kept keys'
    // tables carry over, and every relying service's snapshot shares them.
    let rotation = counted(|| {
        infra.broker.rotate_keys([0x33; 32]);
        infra.jupyter.update_jwks(infra.broker.jwks());
        infra.broker.prune_keys(2);
        infra.jupyter.update_jwks(infra.broker.jwks());
    });
    assert_eq!(
        rotation,
        OpCounts {
            tables: 1,
            ..OpCounts::default()
        },
        "rotate_keys + prune_keys(2)"
    );
}
