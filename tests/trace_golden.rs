//! Golden digests of the trace exports.
//!
//! `trace_provenance` compares serial exports against parallel ones, so a
//! change that moves both the same way passes it. This file pins the
//! SHA-256 of the chrome-trace and flamegraph exports of one fixed-seed
//! storm, so any change to ids, steps, names, stages or attributes shows
//! up here. A deliberate change to the export must update the digests and
//! say why in CHANGES.md.

use isambard_dri::core::{InfraConfig, Infrastructure};
use isambard_dri::crypto::{hex, sha2::sha256};
use isambard_dri::trace::{chrome_trace, flamegraph};
use isambard_dri::workload::{build_population, run_storm, StormMode};

const CHROME_SHA256: &str = "e31b6cb0781e00e919edf86e35039b6cec0e618f30f9484ec68b7cc845488aaa";
const FLAMEGRAPH_SHA256: &str = "900997dbeb7abed0d54d96619c2bb9888951f867deecdc5230a963cb3392a1ab";

/// Seed 9, the RSECon population (9 projects × 5 members), one SSH story
/// for the CA and bastion stages, then the notebook storm in `mode`.
/// Returns the hex SHA-256 of the chrome trace and of the flamegraph.
fn export_digests(mode: StormMode) -> (String, String) {
    let config = InfraConfig::builder()
        .seed(9)
        .jupyter_capacity(4096)
        .interactive_nodes(4096)
        .edge_threshold(usize::MAX / 2)
        .build()
        .expect("golden config is valid");
    let infra = Infrastructure::new(config);
    let users = build_population(&infra, 9, 4)
        .expect("population")
        .members();
    infra
        .story4_ssh_connect(&users[0].0, &users[0].1)
        .expect("story 4");
    let result = run_storm(&infra, &users, mode);
    assert_eq!(result.completed, users.len(), "{:?}", result.failures);
    let spans = infra.tracer.all_spans();
    (
        hex::encode(&sha256(chrome_trace(&spans).as_bytes())),
        hex::encode(&sha256(flamegraph(&spans).as_bytes())),
    )
}

#[test]
fn storm_exports_match_their_golden_digests() {
    for mode in [StormMode::Serial, StormMode::Parallel(4)] {
        let (chrome, flame) = export_digests(mode);
        assert_eq!(chrome, CHROME_SHA256, "chrome trace, {mode:?}");
        assert_eq!(flame, FLAMEGRAPH_SHA256, "flamegraph, {mode:?}");
    }
}
