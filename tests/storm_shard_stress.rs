//! Shard-correctness stress: the sharded identity/session hot path must
//! be *exact*, not just fast. A parallel login storm (128 users over 8
//! workers) has to complete with zero authorisation failures, the
//! per-shard token counters have to agree with a serial run of the same
//! seed (routing is a stable subject hash), metrics must aggregate
//! identically across shards, and the kill switch must sever every
//! session a subject holds no matter which shards they landed on.

use isambard_dri::core::{InfraConfig, Infrastructure};
use isambard_dri::trace::HistSnapshot;
use isambard_dri::workload::{build_population, run_storm, StormMode};

const STORM_USERS: usize = 128;

fn storm_setup(seed: u64) -> (Infrastructure, Vec<(String, String)>) {
    let config = InfraConfig::builder()
        .seed(seed)
        .jupyter_capacity(4096)
        .interactive_nodes(4096)
        .edge_threshold(usize::MAX / 2)
        .build()
        .expect("stress config is valid");
    let infra = Infrastructure::new(config);
    let users = build_population(&infra, STORM_USERS / 8, 7)
        .unwrap()
        .members();
    assert_eq!(users.len(), STORM_USERS);
    (infra, users)
}

#[test]
fn parallel_storm_128_users_zero_auth_failures() {
    let (infra, users) = storm_setup(42);
    let result = run_storm(&infra, &users, StormMode::Parallel(8));
    assert_eq!(
        result.completed, STORM_USERS,
        "failures: {:?}",
        result.failures
    );
    assert!(result.failures.is_empty());
    assert_eq!(infra.jupyter.session_count(), STORM_USERS);
    // The notebooks really landed spread over the session shards.
    let occupied = infra
        .jupyter
        .session_shard_lens()
        .iter()
        .filter(|&&n| n > 0)
        .count();
    assert!(occupied > 1, "128 sessions all hashed to one shard");
}

#[test]
fn per_shard_counters_match_serial_run_exactly() {
    let (serial_infra, serial_users) = storm_setup(7);
    let serial = run_storm(&serial_infra, &serial_users, StormMode::Serial);
    let (parallel_infra, parallel_users) = storm_setup(7);
    let parallel = run_storm(&parallel_infra, &parallel_users, StormMode::Parallel(8));

    assert_eq!(serial.completed, STORM_USERS);
    assert_eq!(parallel.completed, STORM_USERS);

    // Token routing is a stable hash of the subject, so the per-shard
    // counter *vector* — not just its sum — is identical whether the
    // storm ran on one thread or eight.
    assert_eq!(
        serial_infra.broker.shard_token_counts(),
        parallel_infra.broker.shard_token_counts()
    );
    assert_eq!(
        serial_infra.broker.tokens_issued(),
        parallel_infra.broker.tokens_issued()
    );

    // The cross-shard aggregated metrics snapshot is exact: a parallel
    // run is indistinguishable from a serial run of the same seed. The
    // only nondeterministic fields are the wall-clock stage summaries
    // (real elapsed time differs run to run by design); clear those
    // before comparing — every sim-step field must match bit for bit.
    let normalize = |mut m: isambard_dri::core::MetricsSnapshot| {
        for s in &mut m.stage_latencies {
            s.wall_us = HistSnapshot::default();
        }
        m
    };
    assert_eq!(
        normalize(serial_infra.metrics()),
        normalize(parallel_infra.metrics())
    );
}

#[test]
fn coarse_baseline_matches_sharded_results() {
    // broker_shards(1) is the coarse-lock baseline the E9 bench compares
    // against. It must produce the same outcome, just slower: the shard
    // count is a pure performance knob.
    let config = InfraConfig::builder()
        .seed(7)
        .jupyter_capacity(4096)
        .interactive_nodes(4096)
        .edge_threshold(usize::MAX / 2)
        .broker_shards(1)
        .build()
        .unwrap();
    let infra = Infrastructure::new(config);
    assert_eq!(infra.broker.shard_count(), 1);
    let users = build_population(&infra, 4, 7).unwrap().members();
    let result = run_storm(&infra, &users, StormMode::Parallel(8));
    assert_eq!(result.completed, 32, "failures: {:?}", result.failures);
    assert_eq!(infra.broker.shard_token_counts().len(), 1);
}

#[test]
fn kill_user_severs_sessions_spanning_shards() {
    let (infra, users) = storm_setup(42);
    run_storm(&infra, &users, StormMode::Parallel(8));

    let victim_label = &users[0].0;
    let victim = infra.subject_of(victim_label).unwrap();

    // Pile up extra broker sessions for the victim: session ids hash to
    // different shards, so one subject's sessions genuinely span the map.
    let mut victim_sessions = vec![infra.session_of(victim_label).unwrap().into_string()];
    for _ in 0..8 {
        victim_sessions.push(infra.federated_login(victim_label).unwrap().session_id);
    }
    for sid in &victim_sessions {
        assert!(infra.broker.session(sid).is_some());
    }

    let report = infra.kill_user(&victim);
    assert!(report.broker_revoked);
    assert!(report.notebooks_cut >= 1);

    // No session of the victim survives on *any* shard: every known
    // session id is gone, and a second sweep over each sharded map cuts
    // nothing.
    for sid in &victim_sessions {
        assert!(
            infra.broker.session(sid).is_none(),
            "session {sid} survived the kill"
        );
    }
    assert_eq!(infra.jupyter.sever_subject(&victim), 0);
    assert_eq!(infra.login_node.sever_by_key_id(&victim), 0);
    assert!(infra
        .broker
        .issue_token(&victim_sessions[0], "jupyter")
        .is_err());

    // Everyone else is untouched: their sessions are live and the
    // notebook population only lost the victim's.
    let survivor_label = &users[1].0;
    assert!(infra.session_of(survivor_label).is_ok());
    assert_eq!(
        infra.jupyter.session_count(),
        STORM_USERS - report.notebooks_cut
    );
}
