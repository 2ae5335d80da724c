//! The resilience layer: bounded retries, per-dependency circuit
//! breakers, and the fault-plane wiring across the whole co-design.
//!
//! [`dri_fault`] supplies the substrate (plans, backoff math, breaker
//! state machines); this module owns the *policy*: which hops count as
//! transient, which dependency a hop charges, and how degradation falls
//! back (home IdP outage → IdP of last resort). Everything here is
//! deterministic per flow lane, so serial and 8-worker runs of the same
//! seed produce byte-identical traces and breaker timelines.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dri_fault::{
    stage_of, BreakerConfig, CircuitBreakers, ErrorBudgets, FaultHook, FaultPlan, FaultPlane,
    RetryPolicy,
};
use dri_federation::idp::AuthnError;
use dri_federation::proxy::ProxyError;
use dri_siem::events::{EventKind, Severity};
use parking_lot::RwLock;

use crate::flows::FlowError;
use crate::infra::Infrastructure;

/// The breaker thresholds in force for a dependency: the defaults, or,
/// once the SIEM feedback loop has tightened it, a breaker that trips
/// one failure earlier (floor 1) and stays open twice as long.
pub fn breaker_config(tightened: bool) -> BreakerConfig {
    let base = BreakerConfig::default();
    if !tightened {
        return base;
    }
    BreakerConfig {
        failure_threshold: base.failure_threshold.saturating_sub(1).max(1),
        open_ms: base.open_ms * 2,
        ..base
    }
}

/// The retry policy in force for a dependency: the default, or one
/// attempt fewer (floor 1) once the SIEM feedback loop has tightened it.
pub fn retry_policy(tightened: bool) -> RetryPolicy {
    let base = RetryPolicy::default();
    if !tightened {
        return base;
    }
    RetryPolicy {
        max_attempts: base.max_attempts.saturating_sub(1).max(1),
        ..base
    }
}

/// Per-infrastructure resilience state: breaker registry, the set of
/// tightened dependencies, error budgets, counters, and the fault hook
/// every instrumented hop shares.
pub struct Resilience {
    pub(crate) breakers: CircuitBreakers,
    /// Dependencies the SIEM feedback loop has tightened; the policies
    /// in force follow from membership ([`breaker_config`],
    /// [`retry_policy`]).
    pub(crate) tightened: RwLock<BTreeSet<String>>,
    /// Per-dependency, per-window error budgets fed by every
    /// `with_retry` outcome.
    pub(crate) budgets: ErrorBudgets,
    /// The one fault hook: every instrumented component holds a clone,
    /// and it counts injected failures across every plan installed.
    pub(crate) faults: FaultHook,
    pub(crate) seed: u64,
    pub(crate) degraded_logins: AtomicU64,
    /// Retries performed per dependency (lifetime of the infrastructure,
    /// not reset on plan re-install).
    pub(crate) retries_by_dependency: RwLock<BTreeMap<String, u64>>,
    /// Recovery credentials for federated users enrolled at the IdP of
    /// last resort (label → password), the paper's managed fallback.
    pub(crate) fallback_passwords: RwLock<HashMap<String, String>>,
}

impl Resilience {
    pub(crate) fn new(seed: u64) -> Resilience {
        Resilience {
            breakers: CircuitBreakers::new(),
            tightened: RwLock::new(BTreeSet::new()),
            budgets: ErrorBudgets::new(),
            faults: FaultHook::default(),
            seed,
            degraded_logins: AtomicU64::new(0),
            retries_by_dependency: RwLock::new(BTreeMap::new()),
            fallback_passwords: RwLock::new(HashMap::new()),
        }
    }

    /// Retries performed across all hops so far: the sum of
    /// [`Resilience::retries_by_dependency`].
    pub fn retries(&self) -> u64 {
        self.retries_by_dependency.read().values().sum()
    }

    /// Logins that succeeded in degraded (last-resort failover) mode.
    pub fn degraded_logins(&self) -> u64 {
        self.degraded_logins.load(Ordering::Relaxed)
    }

    /// The breaker registry (state queries, trip/rejection counters).
    pub fn breakers(&self) -> &CircuitBreakers {
        &self.breakers
    }

    /// Whether the SIEM feedback loop has tightened `dependency`.
    pub(crate) fn is_tightened(&self, dependency: &str) -> bool {
        self.tightened.read().contains(dependency)
    }

    /// The dependencies currently tightened, sorted by name.
    pub fn tightened(&self) -> Vec<String> {
        self.tightened.read().iter().cloned().collect()
    }

    /// The error-budget plane (per-dependency, per-window SLO
    /// accounting).
    pub fn budgets(&self) -> &ErrorBudgets {
        &self.budgets
    }

    /// Retries performed per dependency, sorted by dependency name.
    /// Lifetime counters: they keep accumulating across fault-plan
    /// re-installs.
    pub fn retries_by_dependency(&self) -> Vec<(String, u64)> {
        self.retries_by_dependency
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Failures injected per dependency (component category), sorted by
    /// name, by every fault plan ever installed on this infrastructure:
    /// the hook outlives each plan, so the counts are cumulative.
    pub fn faults_by_dependency(&self) -> Vec<(String, u64)> {
        self.faults.failures_by_component()
    }

    /// Total failures injected by every fault plan ever installed: the
    /// sum of [`Resilience::faults_by_dependency`].
    pub fn faults_injected(&self) -> u64 {
        self.faults.failures_injected()
    }
}

impl std::fmt::Debug for Resilience {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Resilience")
            .field("retries", &self.retries())
            .field("degraded_logins", &self.degraded_logins())
            .field("breaker_trips", &self.breakers.trips())
            .field("faults", &self.faults)
            .finish()
    }
}

/// The combined IdP + proxy hop error: the two legs retry as one unit
/// because the proxy consumes each IdP assertion exactly once, so every
/// retry must mint a fresh assertion.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum IdpHop {
    /// The institutional IdP refused or was unreachable.
    Idp(AuthnError),
    /// The MyAccessID-style proxy refused or was unreachable.
    Proxy(ProxyError),
}

impl IdpHop {
    pub(crate) fn is_transient(&self) -> bool {
        matches!(
            self,
            IdpHop::Idp(AuthnError::IdpUnavailable) | IdpHop::Proxy(ProxyError::Unavailable)
        )
    }
}

impl From<IdpHop> for FlowError {
    fn from(e: IdpHop) -> FlowError {
        match e {
            IdpHop::Idp(e) => FlowError::Idp(e),
            IdpHop::Proxy(e) => FlowError::Proxy(e),
        }
    }
}

impl std::fmt::Display for IdpHop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IdpHop::Idp(e) => write!(f, "{e}"),
            IdpHop::Proxy(e) => write!(f, "{e}"),
        }
    }
}

/// The SIEM source a dependency's fault events are attributed to.
pub(crate) fn source_of(dependency: &str) -> &'static str {
    match dependency {
        "idp" | "proxy" | "broker" => "fds/broker",
        "edge" | "tunnel" => "fds/zenith",
        "sshca" => "fds/ssh-ca",
        "bastion" => "sws/bastion",
        "login" | "slurm" => "mdc/login01",
        "tailnet" => "mdc/mgmt01",
        _ => "sec/siem",
    }
}

/// What [`Infrastructure::apply_siem_feedback`] did to one dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedbackAction {
    /// Budget exhausted or rate anomaly: breaker threshold tightened,
    /// open window doubled, retry budget reduced.
    Tightened,
    /// Previous window was healthy: no longer tightened, default
    /// policies restored.
    Relaxed,
}

/// One per-dependency adjustment made at a window boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedbackAdjustment {
    /// The dependency adjusted.
    pub dependency: String,
    /// The completed window the decision was based on.
    pub window: u64,
    /// That window's burn rate in per-mille of calls.
    pub burn_per_mille: u64,
    /// Whether a rate anomaly at the dependency's SIEM source
    /// contributed to the decision.
    pub anomalous: bool,
    /// What was done.
    pub action: FeedbackAction,
}

impl Infrastructure {
    /// Install a fault plan across every instrumented hop — control
    /// plane (IdPs, proxy, broker, SSH CA, bastion, edge) *and* the
    /// cluster data plane (scheduler, login node, tailnet coordination
    /// server). They all share one hook, so this replaces any earlier
    /// plan everywhere at once. Returns the bound plane so drills can
    /// query [`FaultPlane::active_outage`] or disarm it with
    /// [`FaultPlane::set_enabled`].
    pub fn install_fault_plan(&self, plan: FaultPlan) -> Arc<FaultPlane> {
        let plane = Arc::new(FaultPlane::new(plan, self.clock.clone()));
        self.resilience.faults.install(plane.clone());
        plane
    }

    /// **SIEM → resilience feedback.** Inspect the *previous* (completed)
    /// budget window of every dependency plus the SIEM's rate-anomaly
    /// findings, and adjust per-dependency breaker/retry policy:
    ///
    /// * exhausted budget or a rate anomaly at the dependency's source →
    ///   **tighten** (breaker trips one failure earlier, stays open twice
    ///   as long, retry budget shrinks by one attempt);
    /// * healthy window → **relax** (the defaults are back in force).
    ///
    /// Both adjustments are membership changes of one set; the breaker
    /// and retry policies in force are derived from it
    /// ([`breaker_config`], [`retry_policy`]).
    ///
    /// Call this at window boundaries only, from a quiescent point (no
    /// in-flight flows): adjusting thresholds mid-storm would make
    /// breaker timelines depend on thread interleaving. Applied at a
    /// boundary, the decision is a pure function of the completed
    /// window's commutative counters and the anomaly set, so the same
    /// seed + plan yields the same adjustments serial or parallel.
    /// Returns the adjustments sorted by dependency; each is also
    /// emitted as a [`EventKind::BudgetFeedback`] event (plus
    /// [`EventKind::BudgetExhausted`] for exhausted windows).
    pub fn apply_siem_feedback(&self) -> Vec<crate::resilience::FeedbackAdjustment> {
        let res = &self.resilience;
        let now = self.clock.now_ms();
        let current = res.budgets.window_of(now);
        let prev = current.saturating_sub(1);
        let anomaly_sources: Vec<String> = self
            .rate_anomalies()
            .into_iter()
            .map(|a| a.source)
            .collect();
        let mut out = Vec::new();
        for dependency in res.budgets.dependencies() {
            let exhausted = res.budgets.exhausted(&dependency, prev);
            let anomalous = anomaly_sources.iter().any(|s| s == source_of(&dependency));
            let burn = res.budgets.burn_per_mille(&dependency, prev);
            if exhausted || anomalous {
                res.tightened.write().insert(dependency.clone());
                if exhausted {
                    self.emit(
                        source_of(&dependency),
                        EventKind::BudgetExhausted,
                        &dependency,
                        format!("window {prev}: burn {burn}\u{2030} spent the error budget"),
                        Severity::High,
                    );
                }
                self.emit(
                    source_of(&dependency),
                    EventKind::BudgetFeedback,
                    &dependency,
                    format!(
                        "tightened breaker/retry for window {current} \
                         (window {prev} burn {burn}\u{2030}, anomaly={anomalous})"
                    ),
                    Severity::Warning,
                );
                out.push(FeedbackAdjustment {
                    dependency,
                    window: prev,
                    burn_per_mille: burn,
                    anomalous,
                    action: FeedbackAction::Tightened,
                });
            } else if res.tightened.write().remove(&dependency) {
                self.emit(
                    source_of(&dependency),
                    EventKind::BudgetFeedback,
                    &dependency,
                    format!(
                        "relaxed to baseline for window {current} \
                         (window {prev} burn {burn}\u{2030})"
                    ),
                    Severity::Info,
                );
                out.push(FeedbackAdjustment {
                    dependency,
                    window: prev,
                    burn_per_mille: burn,
                    anomalous: false,
                    action: FeedbackAction::Relaxed,
                });
            }
        }
        out
    }

    /// Audit every recorded flow trace for PDP bypasses (an `sshca` span
    /// with no preceding `policy` span) and ingest one
    /// [`EventKind::PdpBypass`] event per offending trace into the SIEM,
    /// where the `pdp-bypass` rule raises a critical alert on the first
    /// one. Returns the findings (sorted by trace id; empty on a healthy
    /// deployment).
    pub fn audit_trace_shapes(&self) -> Vec<dri_siem::PdpBypassFinding> {
        let findings = dri_siem::find_pdp_bypasses(&self.tracer.all_spans());
        if !findings.is_empty() {
            let events = dri_siem::pdp_bypass_events(&findings, "sec/siem");
            self.siem.ingest(events);
        }
        findings
    }

    /// Enrol a federated user at the IdP of Last Resort as a *fallback*
    /// route (the paper's degraded mode for home-IdP outages): a
    /// deterministic recovery credential plus mirrored member grants for
    /// the `last-resort:{label}` subject, so a failover login is
    /// authorised for the same member services.
    pub fn enroll_last_resort_fallback(&self, label: &str) -> Result<(), FlowError> {
        {
            let users = self.users.read();
            let user = users
                .get(label)
                .ok_or_else(|| FlowError::NoSuchUser(label.to_string()))?;
            if !matches!(user.kind, crate::users::UserKind::Federated { .. }) {
                return Err(FlowError::WrongIdentityKind);
            }
        }
        if self
            .resilience
            .fallback_passwords
            .read()
            .contains_key(label)
        {
            return Ok(()); // already enrolled
        }
        let password = format!("recovery-{label}-{:016x}", self.resilience.seed);
        self.last_resort_idp
            .register_totp_user(label, &password)
            .map_err(FlowError::ManagedIdp)?;
        let subject = format!("last-resort:{label}");
        for audience in crate::infra::MEMBER_AUDIENCES {
            self.portal.grant_admin(&subject, audience, &["member"]);
        }
        self.resilience
            .fallback_passwords
            .write()
            .insert(label.to_string(), password);
        Ok(())
    }

    /// Run `op` under the breaker + bounded-retry discipline for
    /// `dependency` on the calling flow's `lane`.
    ///
    /// * An Open breaker rejects fast with [`FlowError::CircuitOpen`].
    /// * Transient errors (per `is_transient`) retry up to the policy's
    ///   budget (one attempt fewer when the SIEM feedback loop has
    ///   tightened the dependency); each retry opens a deterministic `retry.backoff`
    ///   span carrying the computed backoff — no thread ever sleeps.
    /// * The breaker records one outcome per call: success, or failure
    ///   only when the *final* error was transient (a refusal means the
    ///   dependency answered and is healthy).
    /// * Every attempt lands in the error budget: successes and
    ///   refusals count `ok`, transient failures count `err`. The
    ///   counters commute, so budget state is identical serial vs
    ///   parallel.
    pub(crate) fn with_retry<T, E>(
        &self,
        dependency: &'static str,
        lane: &str,
        is_transient: impl Fn(&E) -> bool,
        mut op: impl FnMut() -> Result<T, E>,
    ) -> Result<T, FlowError>
    where
        FlowError: From<E>,
        E: std::fmt::Display,
    {
        let res = &self.resilience;
        let tightened = res.is_tightened(dependency);
        let breaker = breaker_config(tightened);
        if res
            .breakers
            .admit(dependency, lane, self.clock.now_ms(), &breaker)
            .is_err()
        {
            dri_trace::add_attr("breaker.rejected", dependency);
            return Err(FlowError::CircuitOpen(dependency.to_string()));
        }
        let policy = retry_policy(tightened);
        let mut attempt: u32 = 1;
        loop {
            match op() {
                Ok(v) => {
                    let now = self.clock.now_ms();
                    res.budgets.record(dependency, now, true);
                    self.stamp_budget_attr(dependency, now);
                    res.breakers.record(dependency, lane, now, true, &breaker);
                    return Ok(v);
                }
                Err(e) => {
                    let transient = is_transient(&e);
                    // A refusal means the dependency answered: it spends
                    // no error budget. A transient failure burns it.
                    res.budgets
                        .record(dependency, self.clock.now_ms(), !transient);
                    if transient {
                        self.emit_fault_observed(dependency, lane, &e);
                    }
                    if transient && policy.retries_left(attempt) > 0 {
                        let backoff =
                            policy.backoff_ms(res.seed, &format!("{dependency}|{lane}"), attempt);
                        *res.retries_by_dependency
                            .write()
                            .entry(dependency.to_string())
                            .or_insert(0) += 1;
                        let _span = dri_trace::span_with(
                            "retry.backoff",
                            stage_of(dependency),
                            &[
                                ("retry.dependency", dependency),
                                ("retry.attempt", &attempt.to_string()),
                                ("retry.backoff_ms", &backoff.to_string()),
                            ],
                        );
                        attempt += 1;
                        continue;
                    }
                    // Final outcome. Only a transient failure counts
                    // against the dependency's health.
                    let now = self.clock.now_ms();
                    self.stamp_budget_attr(dependency, now);
                    res.breakers
                        .record(dependency, lane, now, !transient, &breaker);
                    return Err(FlowError::from(e));
                }
            }
        }
    }

    /// Stamp the dependency's current burn rate on the active span. The
    /// `budget.` prefix is excluded from the chrome export: many lanes
    /// feed one window's counters, so the value read here races under
    /// parallel runs even though the *final* budget state does not.
    fn stamp_budget_attr(&self, dependency: &str, now_ms: u64) {
        let budgets = &self.resilience.budgets;
        let burn = budgets.burn_per_mille(dependency, budgets.window_of(now_ms));
        dri_trace::add_attr("budget.burn_per_mille", &burn.to_string());
    }

    /// Record an injected/observed transient fault in the SIEM, when a
    /// fault plane is armed (real outages without a plane are reported
    /// by their own layers).
    fn emit_fault_observed(&self, dependency: &str, lane: &str, error: &impl std::fmt::Display) {
        let armed = self.resilience.faults.plane().is_some_and(|p| p.enabled());
        if armed {
            self.emit(
                source_of(dependency),
                dri_siem::events::EventKind::FaultInjected,
                lane,
                format!("{dependency} hop failed: {error}"),
                dri_siem::events::Severity::Warning,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InfraConfig;
    use dri_broker::broker::BrokerError;
    use dri_fault::budget::WINDOW_MS;

    /// Drive calls that always fail transiently at `dependency` for
    /// `lane` until its breaker rejects one; returns the attempts each
    /// admitted call made.
    fn attempts_until_open(
        infra: &Infrastructure,
        dependency: &'static str,
        lane: &str,
    ) -> Vec<u32> {
        let mut per_call = Vec::new();
        loop {
            let mut attempts = 0;
            let outcome: Result<(), FlowError> = infra.with_retry(
                dependency,
                lane,
                |_: &FlowError| true,
                || {
                    attempts += 1;
                    Err(FlowError::Broker(BrokerError::Unavailable))
                },
            );
            if outcome == Err(FlowError::CircuitOpen(dependency.to_string())) {
                return per_call;
            }
            per_call.push(attempts);
        }
    }

    #[test]
    fn tightening_shrinks_breaker_and_retry_for_that_dependency_only() {
        let infra = Infrastructure::new(InfraConfig::default());
        let res = &infra.resilience;
        let now = infra.clock.now_ms();
        for _ in 0..10 {
            res.budgets.record("idp", now, false);
            res.budgets.record("broker", now, true);
        }
        infra.clock.advance(WINDOW_MS);
        let adjusted: Vec<(String, FeedbackAction)> = infra
            .apply_siem_feedback()
            .into_iter()
            .map(|a| (a.dependency, a.action))
            .collect();
        assert_eq!(adjusted, [("idp".to_string(), FeedbackAction::Tightened)]);
        assert_eq!(res.tightened(), ["idp"]);

        // Tightened idp: two attempts per call, open after two calls.
        // Broker keeps the defaults: three and three.
        assert_eq!(attempts_until_open(&infra, "idp", "alice"), [2, 2]);
        assert_eq!(attempts_until_open(&infra, "broker", "alice"), [3, 3, 3]);
        assert_eq!(
            breaker_config(true).open_ms,
            2 * breaker_config(false).open_ms
        );

        // The failures above burnt this window; the next one is quiet,
        // so its close relaxes idp and both defaults are back.
        infra.clock.advance(2 * WINDOW_MS);
        let relaxed: Vec<(String, FeedbackAction)> = infra
            .apply_siem_feedback()
            .into_iter()
            .map(|a| (a.dependency, a.action))
            .collect();
        assert_eq!(relaxed, [("idp".to_string(), FeedbackAction::Relaxed)]);
        assert!(res.tightened().is_empty());
        assert_eq!(attempts_until_open(&infra, "idp", "bob"), [3, 3, 3]);
    }
}
