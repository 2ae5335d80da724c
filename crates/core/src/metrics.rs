//! A structured metrics snapshot across every subsystem — the
//! "increased telemetry needed for introducing DevSecOps" the paper's
//! conclusion calls for.

use dri_trace::StageSummary;

use crate::infra::Infrastructure;

/// A point-in-time operational snapshot of the whole co-design.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Simulated time (ms).
    pub at_ms: u64,
    // Identity layer.
    /// Community accounts registered at the proxy.
    pub community_accounts: usize,
    /// Live broker sessions.
    pub broker_sessions: usize,
    /// Tokens issued since start.
    pub tokens_issued: u64,
    // Portal.
    /// Projects (all states).
    pub projects: usize,
    // Access layer.
    /// Live bastion relay sessions.
    pub bastion_sessions: usize,
    /// Healthy bastion instances.
    pub bastion_healthy_instances: usize,
    /// Enrolled tailnet nodes.
    pub tailnet_nodes: usize,
    // HPC layer.
    /// Live shell sessions.
    pub shell_sessions: usize,
    /// Live notebook sessions.
    pub notebook_sessions: usize,
    /// (pending, running) batch jobs.
    pub queue_depth: (usize, usize),
    /// Provisioned UNIX accounts on the login node.
    pub unix_accounts: usize,
    // Security layer.
    /// Events ingested by the SIEM.
    pub siem_events: u64,
    /// Alerts raised.
    pub siem_alerts: usize,
    /// Assets in the inventory.
    pub inventory_assets: usize,
    /// Open vulnerability findings.
    pub vuln_findings: usize,
    /// PDP consultations.
    pub pdp_consultations: u64,
    // Verification caches.
    /// Verified-token cache hits (signature check skipped).
    pub token_cache_hits: u64,
    /// Verified-token cache misses (full verification performed).
    pub token_cache_misses: u64,
    /// Verified-token cache entries discarded on an epoch mismatch.
    pub token_cache_epoch_busts: u64,
    /// PDP decision-memo hits (trust algorithm skipped).
    pub pdp_memo_hits: u64,
    /// PDP decision-memo misses (trust algorithm evaluated).
    pub pdp_memo_misses: u64,
    /// PDP memo entries discarded on an epoch mismatch.
    pub pdp_memo_epoch_busts: u64,
    // Resilience layer.
    /// Retries performed across transient hops: the sum of
    /// `retries_by_dependency`.
    pub retries: u64,
    /// Circuit-breaker trips (closed → open).
    pub breaker_trips: u64,
    /// Calls rejected fast by an open breaker.
    pub breaker_rejections: u64,
    /// Logins that succeeded in degraded (last-resort failover) mode.
    pub degraded_logins: u64,
    /// Failures injected by the fault plane (0 when no plan installed):
    /// the sum of `faults_by_dependency`.
    pub faults_injected: u64,
    /// Failures injected per dependency (component category), sorted by
    /// name. Cumulative across plan re-installs: the infrastructure's
    /// one fault hook keeps the counts and outlives every plan, so a
    /// chaos campaign spanning several plans reads as one continuous
    /// series.
    pub faults_by_dependency: Vec<(String, u64)>,
    /// Retries performed per dependency, sorted by name. Lifetime
    /// counters — never reset on plan re-install.
    pub retries_by_dependency: Vec<(String, u64)>,
    /// Error-budget windows that have spent their budget so far (across
    /// all dependencies and windows).
    pub budget_windows_exhausted: usize,
    // Observability layer.
    /// Flow traces recorded.
    pub traces_recorded: usize,
    /// Per-stage latency summaries of the collected spans, in sim steps
    /// and wall-clock µs (only stages that recorded spans).
    pub stage_latencies: Vec<StageSummary>,
}

impl Infrastructure {
    /// Capture a metrics snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            at_ms: self.clock.now_ms(),
            community_accounts: self.proxy.account_count(),
            broker_sessions: self.broker.session_count(),
            tokens_issued: self.broker.tokens_issued(),
            projects: self.portal.project_count(),
            bastion_sessions: self.bastion.session_count(),
            bastion_healthy_instances: self.bastion.healthy_instances(),
            tailnet_nodes: self.tailnet.node_count(),
            shell_sessions: self.login_node.session_count(),
            notebook_sessions: self.jupyter.session_count(),
            queue_depth: self.scheduler.queue_depth(),
            unix_accounts: self.login_node.account_count(),
            siem_events: self.siem.events_ingested(),
            siem_alerts: self.siem.alerts().len(),
            inventory_assets: self.inventory.asset_count(),
            vuln_findings: self.inventory.scan().len(),
            pdp_consultations: self.pdp_consultation_count(),
            token_cache_hits: self.broker.token_cache().hits(),
            token_cache_misses: self.broker.token_cache().misses(),
            token_cache_epoch_busts: self.broker.token_cache().epoch_busts(),
            pdp_memo_hits: self.pdp.hits(),
            pdp_memo_misses: self.pdp.misses(),
            pdp_memo_epoch_busts: self.pdp.epoch_busts(),
            retries: self.resilience.retries(),
            breaker_trips: self.resilience.breakers().trips(),
            breaker_rejections: self.resilience.breakers().rejections(),
            degraded_logins: self.resilience.degraded_logins(),
            faults_injected: self.resilience.faults_injected(),
            faults_by_dependency: self.resilience.faults_by_dependency(),
            retries_by_dependency: self.resilience.retries_by_dependency(),
            budget_windows_exhausted: self
                .resilience
                .budgets()
                .timeline()
                .iter()
                .filter(|w| w.exhausted)
                .count(),
            traces_recorded: self.tracer.trace_count(),
            stage_latencies: self.tracer.stage_summaries(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InfraConfig;

    #[test]
    fn metrics_track_activity() {
        let infra = Infrastructure::new(InfraConfig::default());
        let before = infra.metrics();
        assert_eq!(before.broker_sessions, 0);
        assert_eq!(before.shell_sessions, 0);

        infra.create_federated_user("alice", "pw");
        infra.story1_onboard_pi("p", "alice", 10.0).unwrap();
        infra.story4_ssh_connect("alice", "p").unwrap();
        infra.story6_jupyter("alice", "p", "198.51.100.2").unwrap();

        let after = infra.metrics();
        assert_eq!(after.community_accounts, 1);
        assert_eq!(after.broker_sessions, 1);
        assert_eq!(after.projects, 1);
        assert_eq!(after.shell_sessions, 1);
        assert_eq!(after.notebook_sessions, 1);
        assert_eq!(after.queue_depth.1, 1);
        assert!(after.tokens_issued >= 2);
        assert!(after.pdp_consultations >= 2);
        // Sign-time seeding: every story token validated once is a hit.
        assert!(after.token_cache_hits >= 2);
        assert_eq!(
            after.pdp_memo_hits + after.pdp_memo_misses,
            after.pdp_consultations
        );
        assert!(after.siem_events > before.siem_events);
        assert!(after.traces_recorded >= 3, "one trace per story flow");
        let stages: Vec<&str> = after
            .stage_latencies
            .iter()
            .map(|s| s.stage.as_str())
            .collect();
        for expected in ["discovery", "broker", "sshca", "bastion", "cluster"] {
            assert!(stages.contains(&expected), "missing stage {expected}");
        }
        for s in &after.stage_latencies {
            assert!(s.steps.count > 0);
            assert!(s.steps.p50 <= s.steps.p99);
        }
    }

    #[test]
    fn tracing_off_yields_no_stage_latencies() {
        let cfg = InfraConfig::builder().tracing(false).build().unwrap();
        let infra = Infrastructure::new(cfg);
        infra.create_federated_user("alice", "pw");
        infra.story1_onboard_pi("p", "alice", 10.0).unwrap();
        let m = infra.metrics();
        assert_eq!(m.traces_recorded, 0);
        assert!(m.stage_latencies.is_empty());
    }

    #[test]
    fn kill_switch_reflected_in_metrics() {
        let infra = Infrastructure::new(InfraConfig::default());
        infra.create_federated_user("alice", "pw");
        infra.story1_onboard_pi("p", "alice", 10.0).unwrap();
        infra.story4_ssh_connect("alice", "p").unwrap();
        let subject = infra.subject_of("alice").unwrap();
        infra.kill_user(&subject);
        let m = infra.metrics();
        assert_eq!(m.bastion_sessions, 0);
        assert_eq!(m.shell_sessions, 0);
        assert_eq!(m.broker_sessions, 0);
    }
}
