//! Property tests over the scheduler and IAM invariants under random
//! operation sequences.

use isambard_dri::clock::SimClock;
use isambard_dri::cluster::{JobState, Scheduler};
use isambard_dri::fault::FaultHook;
use proptest::prelude::*;

/// A random scheduler operation.
#[derive(Debug, Clone)]
enum Op {
    Submit { nodes: u32, walltime: u64 },
    Advance { secs: u64 },
    Tick,
    CancelNewest,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u32..9, 1u64..5000).prop_map(|(nodes, walltime)| Op::Submit { nodes, walltime }),
        (1u64..5000).prop_map(|secs| Op::Advance { secs }),
        Just(Op::Tick),
        Just(Op::CancelNewest),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under any operation sequence: allocated nodes never exceed the
    /// partition size, never go "negative" (underflow would panic), and
    /// running jobs always equal the allocated node accounting.
    #[test]
    fn scheduler_never_overcommits(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let clock = SimClock::new();
        let sched = Scheduler::new(clock.clone(), FaultHook::default());
        sched.add_partition("gh", 8, 8);
        let mut job_ids: Vec<String> = Vec::new();

        for op in ops {
            match op {
                Op::Submit { nodes, walltime } => {
                    if let Ok(id) = sched.submit("u", "p", "gh", nodes, walltime) {
                        job_ids.push(id);
                    }
                }
                Op::Advance { secs } => {
                    clock.advance_secs(secs);
                }
                Op::Tick => sched.tick(),
                Op::CancelNewest => {
                    if let Some(id) = job_ids.pop() {
                        sched.cancel(&id);
                    }
                }
            }
            let part = sched.partition("gh").unwrap();
            prop_assert!(part.allocated_nodes <= part.total_nodes,
                "allocated {} > total {}", part.allocated_nodes, part.total_nodes);
        }

        // Final consistency: sum of nodes of running jobs == allocated.
        sched.tick();
        let part = sched.partition("gh").unwrap();
        let mut running_nodes = 0;
        for id in &job_ids {
            if let Some(j) = sched.job(id) {
                if j.state == JobState::Running {
                    running_nodes += j.nodes;
                }
            }
        }
        prop_assert!(running_nodes <= part.allocated_nodes);
    }

    /// Usage accounting is conserved: reported node-hours never exceed
    /// what completed/cancelled jobs could have consumed.
    #[test]
    fn usage_accounting_bounded(
        walltimes in proptest::collection::vec(1u64..1000, 1..20),
    ) {
        let clock = SimClock::new();
        let sched = Scheduler::new(clock.clone(), FaultHook::default());
        sched.add_partition("gh", 4, 4);
        let mut max_possible_node_secs = 0u64;
        for w in &walltimes {
            if sched.submit("u", "p", "gh", 1, *w).is_ok() {
                max_possible_node_secs += w;
            }
            sched.tick();
        }
        // Run everything to completion.
        clock.advance_secs(walltimes.iter().sum::<u64>() + 1000);
        for _ in 0..walltimes.len() {
            sched.tick();
        }
        let used: f64 = sched
            .accounting_report()
            .iter()
            .map(|row| row.node_hours * 3600.0)
            .sum();
        prop_assert!(used <= max_possible_node_secs as f64 + 1e-6,
            "used {used} > possible {max_possible_node_secs}");
    }
}

mod iam_properties {
    use isambard_dri::core::{InfraConfig, Infrastructure};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Unique UNIX accounts: any set of users across any set of
        /// projects never collides.
        #[test]
        fn unix_accounts_never_collide(users in 1usize..6, projects in 1usize..4) {
            let infra = Infrastructure::new(InfraConfig::default());
            let mut accounts = std::collections::HashSet::new();
            for p in 0..projects {
                let pi = format!("pi-{p}");
                infra.create_federated_user(&pi, "pw");
                let outcome = infra
                    .story1_onboard_pi(&format!("proj-{p}"), &pi, 10.0)
                    .unwrap();
                prop_assert!(accounts.insert(outcome.unix_account.clone()));
                for u in 0..users {
                    let label = format!("res-{p}-{u}");
                    infra.create_federated_user(&label, "pw");
                    let r = infra
                        .story3_onboard_researcher(&pi, &outcome.project_id, &format!("proj-{p}"), &label)
                        .unwrap();
                    prop_assert!(accounts.insert(r.unix_account.clone()),
                        "collision at {}", r.unix_account);
                }
            }
        }
    }
}
