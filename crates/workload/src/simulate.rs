//! A day-in-the-life simulation driver.
//!
//! Drives the infrastructure through a multi-hour simulated timeline with
//! Poisson arrivals: researchers show up, authenticate, fetch SSH
//! certificates, open notebooks, submit batch jobs; sessions and
//! credentials expire and renew on the paper's short-lived schedule. The
//! report quantifies the operational cost of zero trust (token volume,
//! re-authentications) against delivered work (jobs, notebooks).

use dri_clock::SimRng;
use dri_core::{FlowError, Infrastructure};

use crate::population::Population;

/// Parameters of the simulated day.
#[derive(Debug, Clone)]
pub struct DayConfig {
    /// Simulated duration (seconds).
    pub duration_secs: u64,
    /// Mean seconds between user activity events (Poisson).
    pub mean_interarrival_secs: f64,
    /// Probability an activity is a notebook (vs. an SSH+job session).
    pub notebook_fraction: f64,
    /// Nodes requested by each batch job.
    pub job_nodes: u32,
    /// Walltime of each batch job (seconds).
    pub job_walltime_secs: u64,
}

impl Default for DayConfig {
    fn default() -> Self {
        DayConfig {
            duration_secs: 8 * 3600,
            mean_interarrival_secs: 120.0,
            notebook_fraction: 0.4,
            job_nodes: 2,
            job_walltime_secs: 2 * 3600,
        }
    }
}

/// What happened during the simulated day.
#[derive(Debug, Clone, Default)]
pub struct DayReport {
    /// Activity events generated.
    pub activities: usize,
    /// Successful SSH sessions.
    pub ssh_sessions: usize,
    /// Batch jobs submitted.
    pub jobs_submitted: usize,
    /// Notebooks opened.
    pub notebooks: usize,
    /// Interactive re-authentications forced by session expiry.
    pub reauthentications: usize,
    /// Activities refused (policy or capacity) — should be 0 on a
    /// healthy day.
    pub refusals: usize,
    /// Broker tokens minted over the day.
    pub tokens_minted: u64,
    /// Scheduler node-hours delivered (from accounting).
    pub node_hours: f64,
}

/// Run the simulated day over an onboarded population.
pub fn run_day(
    infra: &Infrastructure,
    population: &Population,
    config: &DayConfig,
    rng: &mut SimRng,
) -> DayReport {
    let users = population.members();
    assert!(!users.is_empty(), "population must be onboarded");

    let tokens_before = infra.broker.tokens_issued();
    let start = infra.clock.now_secs();
    let mut report = DayReport::default();
    let mut ip_counter = 0u64;

    loop {
        let wait = rng.next_exp(config.mean_interarrival_secs).max(1.0) as u64;
        if infra.clock.now_secs() + wait >= start + config.duration_secs {
            break;
        }
        infra.clock.advance_secs(wait);
        infra.scheduler.tick();
        report.activities += 1;

        let (label, project) = rng.choose(&users).expect("non-empty").clone();
        // Re-authenticate when the broker session has lapsed.
        if infra.session_of(&label).is_err() {
            match infra.federated_login(&label) {
                Ok(_) => report.reauthentications += 1,
                Err(_) => {
                    report.refusals += 1;
                    continue;
                }
            }
        }

        if rng.chance(config.notebook_fraction) {
            ip_counter += 1;
            let ip = format!("203.0.{}.{}", ip_counter / 200, ip_counter % 200 + 1);
            match infra.story6_jupyter(&label, &project, &ip) {
                Ok(_) => report.notebooks += 1,
                Err(FlowError::Jupyter(_)) => report.refusals += 1,
                Err(_) => report.refusals += 1,
            }
        } else {
            match infra.story4_ssh_connect(&label, &project) {
                Ok(outcome) => {
                    report.ssh_sessions += 1;
                    if infra
                        .scheduler
                        .submit(
                            &outcome.shell.account,
                            &project,
                            "gh",
                            config.job_nodes,
                            config.job_walltime_secs,
                        )
                        .is_ok()
                    {
                        report.jobs_submitted += 1;
                        infra.scheduler.tick();
                    }
                }
                Err(_) => report.refusals += 1,
            }
        }
    }

    // Let the tail of the queue finish.
    infra.clock.advance_secs(config.job_walltime_secs + 1);
    infra.scheduler.tick();

    report.tokens_minted = infra.broker.tokens_issued() - tokens_before;
    report.node_hours = infra
        .scheduler
        .accounting_report()
        .iter()
        .map(|r| r.node_hours)
        .sum();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::build_population;
    use dri_core::InfraConfig;

    #[test]
    fn a_quiet_day_delivers_work_without_refusals() {
        let infra = Infrastructure::new(InfraConfig::default());
        let population = build_population(&infra, 3, 2).unwrap();
        let mut rng = SimRng::seed_from_u64(7);
        let config = DayConfig {
            duration_secs: 4 * 3600,
            mean_interarrival_secs: 300.0,
            ..Default::default()
        };
        let report = run_day(&infra, &population, &config, &mut rng);
        assert!(report.activities > 10, "{report:?}");
        assert_eq!(report.refusals, 0, "{report:?}");
        assert!(report.jobs_submitted + report.notebooks > 0);
        assert!(report.tokens_minted as usize >= report.ssh_sessions + report.notebooks);
        assert!(report.node_hours > 0.0);
    }

    #[test]
    fn long_day_forces_reauthentication() {
        let cfg = InfraConfig {
            session_ttl_secs: 3600, // 1-hour sessions
            ..InfraConfig::default()
        };
        let infra = Infrastructure::new(cfg);
        let population = build_population(&infra, 2, 1).unwrap();
        let mut rng = SimRng::seed_from_u64(9);
        let config = DayConfig {
            duration_secs: 8 * 3600,
            mean_interarrival_secs: 600.0,
            ..Default::default()
        };
        let report = run_day(&infra, &population, &config, &mut rng);
        assert!(
            report.reauthentications > 0,
            "1h sessions across an 8h day must re-auth: {report:?}"
        );
        assert_eq!(report.refusals, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let infra = Infrastructure::new(InfraConfig::default());
            let population = build_population(&infra, 2, 2).unwrap();
            let mut rng = SimRng::seed_from_u64(11);
            let config = DayConfig {
                duration_secs: 2 * 3600,
                ..Default::default()
            };
            let r = run_day(&infra, &population, &config, &mut rng);
            (r.activities, r.ssh_sessions, r.notebooks, r.tokens_minted)
        };
        assert_eq!(run(), run());
    }
}
