//! The RSECon24 storm: N users log in and spawn notebooks concurrently.
//!
//! §IV-B: "The conference tested the Jupyter notebook user story at
//! scale, with 45 trainees logging in and running notebooks
//! simultaneously." The storm runs user story 6 for every member of a
//! population, either serially or fanned out over crossbeam scoped
//! threads, and reports completion counts and wall-clock latency
//! quantiles. What each flow did is in the tracer's spans.

use std::time::Instant;

use dri_core::Infrastructure;
use parking_lot::Mutex;

/// Serial or thread-parallel execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StormMode {
    /// One flow at a time.
    Serial,
    /// Fan out over `n` OS threads.
    Parallel(usize),
}

/// Outcome of a storm run.
#[derive(Debug, Clone)]
pub struct StormResult {
    /// Users attempted.
    pub attempted: usize,
    /// Notebook sessions successfully spawned.
    pub completed: usize,
    /// Failures (label, error text).
    pub failures: Vec<(String, String)>,
    /// Wall-clock latency per flow in microseconds, sorted.
    pub latencies_us: Vec<u64>,
    /// Total wall time (µs).
    pub total_us: u64,
}

impl StormResult {
    /// Latency quantile (0.0–1.0) in microseconds.
    pub fn latency_quantile(&self, q: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let idx = ((self.latencies_us.len() - 1) as f64 * q).round() as usize;
        self.latencies_us[idx]
    }

    /// Throughput in flows/second of wall time.
    pub fn throughput(&self) -> f64 {
        if self.total_us == 0 {
            return 0.0;
        }
        self.completed as f64 / (self.total_us as f64 / 1e6)
    }
}

/// Run the storm: each `label` executes user story 6 against `project`
/// from a unique source IP (so the DDoS scorer sees distinct clients).
///
/// Users must already be onboarded members of their project and logged
/// in (the population builder leaves them logged in).
pub fn run_storm(
    infra: &Infrastructure,
    users: &[(String, String)], // (label, project_name)
    mode: StormMode,
) -> StormResult {
    let failures = Mutex::new(Vec::new());
    let latencies = Mutex::new(Vec::with_capacity(users.len()));
    let start = Instant::now();

    let run_one = |idx: usize, label: &str, project: &str| {
        let source_ip = format!("198.51.{}.{}", idx / 250, idx % 250 + 1);
        let t0 = Instant::now();
        match infra.story6_jupyter(label, project, &source_ip) {
            Ok(_) => latencies.lock().push(t0.elapsed().as_micros() as u64),
            Err(e) => {
                failures.lock().push((label.to_string(), e.to_string()));
            }
        }
    };

    match mode {
        StormMode::Serial => {
            for (idx, (label, project)) in users.iter().enumerate() {
                run_one(idx, label, project);
            }
        }
        StormMode::Parallel(threads) => {
            let threads = threads.max(1);
            let chunk_size = users.len().div_ceil(threads).max(1);
            crossbeam::thread::scope(|scope| {
                for (ci, chunk) in users.chunks(chunk_size).enumerate() {
                    let run_one = &run_one;
                    scope.spawn(move |_| {
                        for (i, (label, project)) in chunk.iter().enumerate() {
                            run_one(ci * chunk_size + i, label, project);
                        }
                    });
                }
            })
            .expect("storm threads");
        }
    }

    let total_us = start.elapsed().as_micros() as u64;
    let mut latencies = latencies.into_inner();
    latencies.sort_unstable();
    let failures = failures.into_inner();
    StormResult {
        attempted: users.len(),
        completed: latencies.len(),
        failures,
        latencies_us: latencies,
        total_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::build_population;
    use dri_core::InfraConfig;

    fn storm_users(infra: &Infrastructure, projects: usize, per: usize) -> Vec<(String, String)> {
        build_population(infra, projects, per).unwrap().members()
    }

    #[test]
    fn serial_storm_45_users_all_succeed() {
        let infra = Infrastructure::new(InfraConfig::default());
        let users = storm_users(&infra, 9, 4); // 9 * (1 + 4) = 45
        assert_eq!(users.len(), 45);
        let result = run_storm(&infra, &users, StormMode::Serial);
        assert_eq!(result.completed, 45, "failures: {:?}", result.failures);
        assert_eq!(infra.jupyter.session_count(), 45);
        assert!(result.throughput() > 0.0);
    }

    #[test]
    fn parallel_storm_matches_serial_semantics() {
        let infra = Infrastructure::new(InfraConfig::default());
        let users = storm_users(&infra, 5, 3); // 20 users
        let result = run_storm(&infra, &users, StormMode::Parallel(4));
        assert_eq!(result.completed, 20, "failures: {:?}", result.failures);
        assert_eq!(infra.jupyter.session_count(), 20);
        // No cross-tenant leakage: every notebook runs under the unix
        // account of its own subject.
        for p in 0..5 {
            let project = infra.portal.project(&format!("proj-{:06}", p + 1)).unwrap();
            for m in &project.members {
                assert!(m.unix_account.starts_with('u'));
            }
        }
    }

    #[test]
    fn storm_respects_capacity() {
        let cfg = InfraConfig::builder().jupyter_capacity(10).build().unwrap();
        let infra = Infrastructure::new(cfg);
        let users = storm_users(&infra, 4, 3); // 16 users, capacity 10
        let result = run_storm(&infra, &users, StormMode::Serial);
        assert_eq!(result.completed, 10);
        assert_eq!(result.failures.len(), 6);
        assert!(result.failures.iter().all(|(_, e)| e.contains("capacity")));
    }

    #[test]
    fn quantiles_are_ordered() {
        let infra = Infrastructure::new(InfraConfig::default());
        let users = storm_users(&infra, 3, 2);
        let result = run_storm(&infra, &users, StormMode::Serial);
        assert!(result.latency_quantile(0.5) <= result.latency_quantile(0.99));
        assert_eq!(
            result.latency_quantile(1.0),
            *result.latencies_us.last().unwrap()
        );
    }
}
