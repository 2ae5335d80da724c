//! The resilience layer: bounded retries, per-dependency circuit
//! breakers, and the fault-plane wiring across the whole co-design.
//!
//! [`dri_fault`] supplies the substrate (plans, backoff math, breaker
//! state machines); this module owns the *policy*: which hops count as
//! transient, which dependency a hop charges, and how degradation falls
//! back (home IdP outage → IdP of last resort). Everything here is
//! deterministic per flow lane, so serial and 8-worker runs of the same
//! seed produce byte-identical traces and breaker timelines.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dri_fault::{
    stage_of, BreakerConfig, BudgetConfig, CircuitBreakers, ErrorBudgets, FaultPlan, FaultPlane,
    RetryPolicy,
};
use dri_federation::idp::AuthnError;
use dri_federation::proxy::ProxyError;
use dri_siem::events::{EventKind, Severity};
use parking_lot::RwLock;

use crate::flows::FlowError;
use crate::infra::Infrastructure;

/// Per-infrastructure resilience state: breaker registry, retry policy,
/// error budgets, counters, and the optional installed fault plane.
pub struct Resilience {
    pub(crate) breakers: CircuitBreakers,
    pub(crate) retry: RetryPolicy,
    /// Per-dependency retry overrides installed by the SIEM feedback
    /// loop; [`Resilience::retry_policy_for`] falls back to `retry`.
    pub(crate) retry_overrides: RwLock<HashMap<String, RetryPolicy>>,
    /// Per-dependency, per-window error budgets fed by every
    /// `with_retry` outcome.
    pub(crate) budgets: ErrorBudgets,
    pub(crate) plane: RwLock<Option<Arc<FaultPlane>>>,
    pub(crate) seed: u64,
    pub(crate) retries: AtomicU64,
    pub(crate) degraded_logins: AtomicU64,
    /// Failures injected by fault planes replaced by a later
    /// [`Infrastructure::install_fault_plan`] — keeps the metrics
    /// counter cumulative across re-installs.
    pub(crate) faults_injected_prior: AtomicU64,
    /// Per-component failure counts rolled over from replaced planes,
    /// mirroring `faults_injected_prior` at per-dependency granularity.
    pub(crate) faults_by_dependency_prior: RwLock<HashMap<String, u64>>,
    /// Retries performed per dependency (lifetime of the infrastructure,
    /// not reset on plan re-install).
    pub(crate) retries_by_dependency: RwLock<HashMap<String, u64>>,
    /// Recovery credentials for federated users enrolled at the IdP of
    /// last resort (label → password), the paper's managed fallback.
    pub(crate) fallback_passwords: RwLock<HashMap<String, String>>,
}

impl Resilience {
    pub(crate) fn new(seed: u64, budget: BudgetConfig) -> Resilience {
        Resilience {
            breakers: CircuitBreakers::new(BreakerConfig::default()),
            retry: RetryPolicy::default(),
            retry_overrides: RwLock::new(HashMap::new()),
            budgets: ErrorBudgets::new(budget),
            plane: RwLock::new(None),
            seed,
            retries: AtomicU64::new(0),
            degraded_logins: AtomicU64::new(0),
            faults_injected_prior: AtomicU64::new(0),
            faults_by_dependency_prior: RwLock::new(HashMap::new()),
            retries_by_dependency: RwLock::new(HashMap::new()),
            fallback_passwords: RwLock::new(HashMap::new()),
        }
    }

    /// Retries performed across all hops so far.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Logins that succeeded in degraded (last-resort failover) mode.
    pub fn degraded_logins(&self) -> u64 {
        self.degraded_logins.load(Ordering::Relaxed)
    }

    /// The breaker registry (state queries, trip/rejection counters).
    pub fn breakers(&self) -> &CircuitBreakers {
        &self.breakers
    }

    /// The effective retry policy for a dependency: the SIEM-feedback
    /// override when one is installed, the base policy otherwise.
    pub fn retry_policy_for(&self, dependency: &str) -> RetryPolicy {
        self.retry_overrides
            .read()
            .get(dependency)
            .cloned()
            .unwrap_or_else(|| self.retry.clone())
    }

    /// Per-dependency retry-policy overrides currently installed by the
    /// SIEM feedback loop, sorted by dependency.
    pub fn retry_overrides(&self) -> Vec<(String, RetryPolicy)> {
        let mut out: Vec<(String, RetryPolicy)> = self
            .retry_overrides
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
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
        let mut out: Vec<(String, u64)> = self
            .retries_by_dependency
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Failures injected per dependency (component category), sorted by
    /// name. Like [`Resilience::faults_injected`], the counts are
    /// **cumulative across plan re-installs**: when a new plan replaces
    /// an old plane, the old plane's per-component counters are rolled
    /// into a prior map and merged into every later reading.
    pub fn faults_by_dependency(&self) -> Vec<(String, u64)> {
        let mut merged: HashMap<String, u64> = self.faults_by_dependency_prior.read().clone();
        if let Some(plane) = self.plane() {
            for (component, n) in plane.failures_by_component() {
                *merged.entry(component).or_insert(0) += n;
            }
        }
        let mut out: Vec<(String, u64)> = merged.into_iter().collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The installed fault plane, if any.
    pub fn plane(&self) -> Option<Arc<FaultPlane>> {
        self.plane.read().clone()
    }

    /// Total failures injected by every fault plane ever installed on
    /// this infrastructure (cumulative across re-installs).
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected_prior.load(Ordering::Relaxed)
            + self.plane().map_or(0, |p| p.failures_injected())
    }
}

impl std::fmt::Debug for Resilience {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Resilience")
            .field("retries", &self.retries())
            .field("degraded_logins", &self.degraded_logins())
            .field("breaker_trips", &self.breakers.trips())
            .field("plane", &self.plane.read().is_some())
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
    /// Previous window was healthy: overrides removed, base policy
    /// restored.
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
    /// server) — and arm the resilience layer's view of it. Returns the
    /// bound plane so drills can query [`FaultPlane::active_outage`] or
    /// disarm it with [`FaultPlane::set_enabled`].
    pub fn install_fault_plan(&self, plan: FaultPlan) -> Arc<FaultPlane> {
        let plane = Arc::new(FaultPlane::new(plan, self.clock.clone()));
        self.university_idp.install_fault_plane(plane.clone());
        for idp in self.partner_idps.read().iter() {
            idp.install_fault_plane(plane.clone());
        }
        self.proxy.install_fault_plane(plane.clone());
        self.broker.install_fault_plane(plane.clone());
        self.ssh_ca.install_fault_plane(plane.clone());
        self.bastion.install_fault_plane(plane.clone());
        self.edge.install_fault_plane(plane.clone());
        self.scheduler.install_fault_plane(plane.clone());
        self.login_node.install_fault_plane(plane.clone());
        self.tailnet.install_fault_plane(plane.clone());
        if let Some(old) = self.resilience.plane.write().replace(plane.clone()) {
            self.resilience
                .faults_injected_prior
                .fetch_add(old.failures_injected(), Ordering::Relaxed);
            let mut prior = self.resilience.faults_by_dependency_prior.write();
            for (component, n) in old.failures_by_component() {
                *prior.entry(component).or_insert(0) += n;
            }
        }
        plane
    }

    /// **SIEM → resilience feedback.** Inspect the *previous* (completed)
    /// budget window of every dependency plus the SIEM's rate-anomaly
    /// findings, and adjust per-dependency breaker/retry policy:
    ///
    /// * exhausted budget or a rate anomaly at the dependency's source →
    ///   **tighten** (breaker trips one failure earlier, stays open twice
    ///   as long, retry budget shrinks by one attempt);
    /// * healthy window → **relax** (overrides removed, base policy
    ///   restored).
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
                let base = res.breakers.config().clone();
                let tightened = BreakerConfig {
                    failure_threshold: base.failure_threshold.saturating_sub(1).max(1),
                    open_ms: base.open_ms * 2,
                    ..base
                };
                res.breakers.set_dependency_config(&dependency, tightened);
                let base_retry = res.retry.clone();
                let tightened_retry = RetryPolicy {
                    max_attempts: base_retry.max_attempts.saturating_sub(1).max(1),
                    ..base_retry
                };
                res.retry_overrides
                    .write()
                    .insert(dependency.clone(), tightened_retry);
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
            } else {
                let had_breaker = res
                    .breakers
                    .dependency_overrides()
                    .iter()
                    .any(|(d, _)| d == &dependency);
                let had_retry = res.retry_overrides.write().remove(&dependency).is_some();
                if had_breaker {
                    res.breakers.clear_dependency_config(&dependency);
                }
                if had_breaker || had_retry {
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
    ///   budget (per-dependency override when the SIEM feedback loop
    ///   installed one); each retry opens a deterministic `retry.backoff`
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
        if res
            .breakers
            .admit(dependency, lane, self.clock.now_ms())
            .is_err()
        {
            dri_trace::add_attr("breaker.rejected", dependency);
            return Err(FlowError::CircuitOpen(dependency.to_string()));
        }
        let policy = res.retry_policy_for(dependency);
        let mut attempt: u32 = 1;
        loop {
            match op() {
                Ok(v) => {
                    let now = self.clock.now_ms();
                    res.budgets.record(dependency, now, true);
                    self.stamp_budget_attr(dependency, now);
                    res.breakers.record(dependency, lane, now, true);
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
                        res.retries.fetch_add(1, Ordering::Relaxed);
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
                    res.breakers.record(dependency, lane, now, !transient);
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
        let armed = self
            .resilience
            .plane
            .read()
            .as_ref()
            .is_some_and(|p| p.enabled());
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
