//! Bounded state under sustained load: a soak over several simulated
//! days. Each round logs the population in, runs a serial notebook storm
//! of more flows than the verified-token cache holds, leaves one notebook
//! per user and one batch job per project running, kills and reinstates
//! one user and revokes one token; then a day passes. After every round
//! the stores that hold per-flow state are no bigger than their live
//! contents plus a bound fixed by one round, so they stop growing:
//!
//! * the verified-token cache holds at most its capacity per shard;
//! * the scheduler's job table holds only pending and running jobs, and
//!   its walltime heap at most twice the running jobs;
//! * the accounting still counts every job ever submitted;
//! * the broker keeps no revoked token id, and drops expired ids when
//!   an issue finds their shard's table full, so it holds a few days'
//!   ids at most, not every id ever issued.
//!
//! Span logs, the SIEM log, broker sessions and bastion relays still grow
//! with history and are not checked here.

use isambard_dri::broker::authz::AuthorizationSource;
use isambard_dri::broker::token_cache::SHARD_CAPACITY;
use isambard_dri::core::{InfraConfig, Infrastructure};
use isambard_dri::workload::build_population;

/// Enough days that a broker keeping every token id would pass the
/// bound on the ids it tracks.
const ROUNDS: usize = 8;
const PROJECTS: usize = 5;
const RESEARCHERS_PER_PROJECT: usize = 7;
const USERS: usize = PROJECTS * (1 + RESEARCHERS_PER_PROJECT);
/// Storm passes per round: every user spawns a notebook this often.
const PASSES: usize = 4;
const FLOWS_PER_ROUND: usize = USERS * PASSES;
const BROKER_SHARDS: usize = 2;
const DAY_SECS: u64 = 24 * 3600;

#[test]
fn per_flow_state_stays_bounded_over_simulated_days() {
    let config = InfraConfig::builder()
        .broker_shards(BROKER_SHARDS)
        .edge_threshold(usize::MAX / 2)
        .build()
        .expect("soak config is valid");
    let infra = Infrastructure::new(config);
    let users = build_population(&infra, PROJECTS, RESEARCHERS_PER_PROJECT)
        .expect("population")
        .members();
    assert_eq!(users.len(), USERS);
    let cache_capacity = SHARD_CAPACITY * BROKER_SHARDS;
    // One round issues more live tokens than the cache holds, so the
    // cap, not expiry, keeps it bounded.
    assert!(FLOWS_PER_ROUND > cache_capacity);

    let mut jobs_submitted = 0;
    let mut held_notebooks: Vec<String> = Vec::new();
    for round in 0..ROUNDS {
        // Notebooks held over the day ran to their walltime: the walltime
        // pass folds their jobs into the accounting, and the users close
        // them, all but the one the kill switch severed.
        infra.scheduler.tick();
        if round > 0 {
            let closed = held_notebooks
                .drain(..)
                .filter(|id| infra.jupyter.stop(id))
                .count();
            assert_eq!(closed, USERS - 1);
        }
        for (label, _) in &users {
            infra.federated_login(label).expect("daily login");
        }

        let cache = infra.broker.token_cache();
        let (hits, misses) = (cache.hits(), cache.misses());
        let mut last_token_id = String::new();
        for pass in 0..PASSES {
            for (idx, (label, project)) in users.iter().enumerate() {
                let source_ip = format!("198.51.100.{}", idx + 1);
                let outcome = infra
                    .story6_jupyter(label.as_str(), project, &source_ip)
                    .unwrap_or_else(|e| panic!("round {round} story 6 for {label}: {e}"));
                jobs_submitted += 1;
                last_token_id = outcome.notebook.token_id.clone();
                if pass + 1 == PASSES {
                    held_notebooks.push(outcome.notebook.id.clone());
                } else {
                    assert!(infra.jupyter.stop(&outcome.notebook.id));
                }
            }
        }
        // Every flow's freshly seeded token was still cached when the
        // flow presented it, though the cache evicted all along.
        assert_eq!(cache.hits() - hits, FLOWS_PER_ROUND as u64);
        assert_eq!(cache.misses(), misses);

        // One batch job per project, due before the next round.
        for (label, project) in users.iter().step_by(1 + RESEARCHERS_PER_PROJECT) {
            let subject = infra.subject_of(label).expect("logged in");
            let (_, account) = infra
                .portal
                .unix_accounts(&subject)
                .into_iter()
                .find(|(p, _)| p == project)
                .expect("member account");
            infra
                .scheduler
                .submit(&account, project, "gh", 1, 3600)
                .expect("batch job");
            jobs_submitted += 1;
        }
        infra.scheduler.tick();

        // The kill switch cancels a researcher's notebook; reinstated,
        // they are back the next day.
        let (victim, _) = &users[1 + round % RESEARCHERS_PER_PROJECT];
        let subject = infra.subject_of(victim).expect("logged in");
        let report = infra.kill_user(&subject);
        assert_eq!(report.notebooks_cut, 1);
        infra.reinstate_user(&subject);

        // A revoked token id is dropped, not kept forever.
        let tracked = infra.broker.tracked_tokens();
        assert!(infra.broker.introspect(&last_token_id));
        infra.broker.revoke_token(&last_token_id);
        assert!(!infra.broker.introspect(&last_token_id));
        assert_eq!(infra.broker.tracked_tokens(), tracked - 1);

        // The bounds.
        assert!(
            cache.len() <= cache_capacity,
            "round {round}: {} cached verifications over {cache_capacity}",
            cache.len()
        );
        let (pending, running) = infra.scheduler.queue_depth();
        let (jobs, deadlines) = infra.scheduler.table_sizes();
        assert_eq!(jobs, pending + running, "round {round}: only live jobs");
        assert_eq!(running, USERS - 1 + PROJECTS, "round {round}");
        assert!(
            deadlines <= 2 * running,
            "round {round}: {deadlines} walltime entries for {running} running jobs"
        );
        let accounted: usize = infra
            .scheduler
            .accounting_report()
            .iter()
            .map(|row| row.completed + row.cancelled + row.running + row.pending)
            .sum();
        assert_eq!(accounted, jobs_submitted, "round {round}");
        // Each shard's table is swept when full and grows only while
        // over half of it is live, so it stays within a few doublings of
        // one day's issues. It has read from one to five days' worth.
        let tracked = infra.broker.tracked_tokens();
        assert!(
            tracked <= 6 * FLOWS_PER_ROUND,
            "round {round}: the broker tracks {tracked} token ids"
        );

        infra.clock.advance_secs(DAY_SECS);
    }
}
