//! Golden digests of the trace exports.
//!
//! `trace_provenance` compares serial exports against parallel ones, so a
//! change that moves both the same way passes it. This file pins the
//! SHA-256 of the chrome-trace and flamegraph exports of one fixed-seed
//! storm, so any change to ids, steps, names, stages or attributes shows
//! up here, and of the sim-step part of the tracer's stage summaries, so
//! any change to how they are counted or bucketed does too. A deliberate
//! change to the export must update the digests and say why in
//! CHANGES.md.

use isambard_dri::core::{InfraConfig, Infrastructure};
use isambard_dri::crypto::{hex, sha2::sha256};
use isambard_dri::trace::{chrome_trace, flamegraph};
use isambard_dri::workload::{build_population, run_storm, StormMode};

const CHROME_SHA256: &str = "e31b6cb0781e00e919edf86e35039b6cec0e618f30f9484ec68b7cc845488aaa";
const FLAMEGRAPH_SHA256: &str = "900997dbeb7abed0d54d96619c2bb9888951f867deecdc5230a963cb3392a1ab";
const SUMMARY_SHA256: &str = "2ce00f5ae9b051ad7cea90046340aaf8c2e96a9d5feedbbbe5e5b7dfde83558e";

/// The hex SHA-256 of each export of one storm.
struct Digests {
    chrome: String,
    flamegraph: String,
    /// One line per stage: its name, then the count, sum, min, max, p50,
    /// p90 and p99 of its span durations in sim steps. Wall-clock
    /// figures vary run to run, so they are left out.
    summary: String,
}

/// Seed 9, the RSECon population (9 projects × 5 members), one SSH story
/// for the CA and bastion stages, then the notebook storm in `mode`.
fn export_digests(mode: StormMode) -> Digests {
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
    let summary: String = infra
        .tracer
        .stage_summaries()
        .iter()
        .map(|s| {
            let h = &s.steps;
            format!(
                "{} {} {} {} {} {} {} {}\n",
                s.stage.as_str(),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.p50,
                h.p90,
                h.p99
            )
        })
        .collect();
    let digest = |text: &str| hex::encode(&sha256(text.as_bytes()));
    Digests {
        chrome: digest(&chrome_trace(&spans)),
        flamegraph: digest(&flamegraph(&spans)),
        summary: digest(&summary),
    }
}

#[test]
fn storm_exports_match_their_golden_digests() {
    for mode in [StormMode::Serial, StormMode::Parallel(4)] {
        let digests = export_digests(mode);
        assert_eq!(digests.chrome, CHROME_SHA256, "chrome trace, {mode:?}");
        assert_eq!(
            digests.flamegraph, FLAMEGRAPH_SHA256,
            "flamegraph, {mode:?}"
        );
        assert_eq!(digests.summary, SUMMARY_SHA256, "stage summaries, {mode:?}");
    }
}
