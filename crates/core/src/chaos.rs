//! Chaos-day drills: scripted fault-plan scenarios exercising the
//! paper-faithful degraded modes end to end.
//!
//! Each drill returns a [`ChaosOutcome`] with a timeline of what
//! happened and a list of named checks; callers (the `chaos_day`
//! example, the failure-injection tests) assert [`ChaosOutcome::passed`]
//! and inspect the counters. Drills are deterministic: every fault they
//! schedule comes from a seeded [`dri_fault::FaultPlan`], and every
//! decision the resilience layer takes is a pure function of
//! `(seed, lane, attempt)`.

use dri_broker::authz::AuthorizationSource;
use dri_cluster::login::LoginError;
use dri_cluster::slurm::{JobState, SubmitError};
use dri_fault::FaultPlan;
use dri_netsim::bastion::BastionError;
use dri_netsim::tailnet::{TailnetError, TailnetNode};
use dri_siem::events::{EventKind, SecurityEvent, Severity};

use crate::flows::FlowError;
use crate::infra::Infrastructure;
use crate::resilience::breaker_config;

/// Outcome of one chaos drill.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// Drill name (`bastion-loss`, `idp-outage`, `killswitch-drill`,
    /// `scheduler-outage`, `login-drain`, `tailnet-storm`).
    pub scenario: &'static str,
    /// Deterministic ids of the faults the drill scheduled.
    pub fault_ids: Vec<String>,
    /// Human-readable timeline of the drill.
    pub timeline: Vec<String>,
    /// Named assertions the drill evaluated.
    pub checks: Vec<(&'static str, bool)>,
    /// Retries performed during the drill.
    pub retries: u64,
    /// Breaker trips during the drill.
    pub breaker_trips: u64,
    /// Degraded logins during the drill.
    pub degraded_logins: u64,
}

impl ChaosOutcome {
    /// Did every check hold?
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The names of failed checks (empty when the drill passed).
    pub fn failures(&self) -> Vec<&'static str> {
        self.checks
            .iter()
            .filter(|(_, ok)| !*ok)
            .map(|(name, _)| *name)
            .collect()
    }
}

/// The bookkeeping every drill shares: counter readings at the start,
/// plus the timeline, checks and fault ids collected along the way.
struct Drill<'a> {
    infra: &'a Infrastructure,
    scenario: &'static str,
    retries_before: u64,
    trips_before: u64,
    degraded_before: u64,
    fault_ids: Vec<String>,
    timeline: Vec<String>,
    checks: Vec<(&'static str, bool)>,
}

impl<'a> Drill<'a> {
    fn start(infra: &'a Infrastructure, scenario: &'static str) -> Drill<'a> {
        Drill {
            infra,
            scenario,
            retries_before: infra.resilience.retries(),
            trips_before: infra.resilience.breakers().trips(),
            degraded_before: infra.resilience.degraded_logins(),
            fault_ids: Vec::new(),
            timeline: Vec::new(),
            checks: Vec::new(),
        }
    }

    fn note(&mut self, line: impl Into<String>) {
        self.timeline.push(line.into());
    }

    fn check(&mut self, name: &'static str, ok: bool) {
        self.checks.push((name, ok));
    }

    /// The outcome, with counters reported as deltas since [`Drill::start`].
    fn finish(self) -> ChaosOutcome {
        let resilience = &self.infra.resilience;
        ChaosOutcome {
            scenario: self.scenario,
            fault_ids: self.fault_ids,
            timeline: self.timeline,
            checks: self.checks,
            retries: resilience.retries() - self.retries_before,
            breaker_trips: resilience.breakers().trips() - self.trips_before,
            degraded_logins: resilience.degraded_logins() - self.degraded_before,
        }
    }
}

impl Infrastructure {
    /// **Chaos day 1 — bastion loss.** Instances of the HA bastion set
    /// are drained one by one: service stays transparent until the set
    /// is exhausted, refuses cleanly at zero, and resumes on restore.
    /// `label` must be an onboarded member of `project`.
    pub fn chaos_bastion_loss(
        &self,
        label: &str,
        project: &str,
    ) -> Result<ChaosOutcome, FlowError> {
        let mut drill = Drill::start(self, "bastion-loss");

        self.story4_ssh_connect(label, project)?;
        drill.note("baseline: ssh relay through the full HA set");

        let instances = self.config.bastion_instances;
        let mut transparent = true;
        for i in 0..instances.saturating_sub(1) {
            self.bastion.drain_instance(i).map_err(FlowError::Bastion)?;
            let ok = self.story4_ssh_connect(label, project).is_ok();
            transparent &= ok;
            drill.note(format!(
                "drain instance {i}: relay {}",
                if ok { "transparent" } else { "FAILED" }
            ));
        }
        drill.check("instance loss transparent until the last", transparent);

        self.bastion
            .drain_instance(instances - 1)
            .map_err(FlowError::Bastion)?;
        let exhausted = matches!(
            self.story4_ssh_connect(label, project),
            Err(FlowError::Bastion(BastionError::Unavailable))
        );
        drill.note("drain last instance: relay refused");
        drill.check("exhausted HA set refuses cleanly", exhausted);

        self.bastion
            .restore_instance(0)
            .map_err(FlowError::Bastion)?;
        let recovered = self.story4_ssh_connect(label, project).is_ok();
        drill.note("restore one instance: service resumed");
        drill.check("restore resumes service", recovered);
        for i in 1..instances {
            let _ = self.bastion.restore_instance(i);
        }

        Ok(drill.finish())
    }

    /// **Chaos day 2 — home-IdP outage.** The institutional IdP goes
    /// dark under a scheduled fault. Logins retry, fail over to the IdP
    /// of Last Resort (enrolled here if needed), the `idp` breaker trips
    /// after repeated failures so later failovers are *fast*, and the
    /// primary path recovers once the window passes and the breaker
    /// half-opens. `label` must be an onboarded federated user.
    pub fn chaos_idp_outage(&self, label: &str, outage_ms: u64) -> Result<ChaosOutcome, FlowError> {
        self.enroll_last_resort_fallback(label)?;
        let mut drill = Drill::start(self, "idp-outage");
        let before_rejections = self.resilience.breakers().rejections();

        let now = self.clock.now_ms();
        let plan = FaultPlan::new(self.config.seed).outage("idp", now, now + outage_ms);
        let fault_id = plan.fault_id(0);
        drill.fault_ids.push(fault_id.clone());
        let faults_before = self.resilience.faults_injected();
        self.install_fault_plan(plan);
        drill.note(format!(
            "schedule {fault_id}: home IdP dark for {outage_ms}ms"
        ));

        // Three logins during the outage: each exhausts its retry budget
        // against the dead IdP, then degrades. The third failure trips
        // the per-lane breaker.
        let mut degraded_ok = true;
        for round in 1..=3 {
            match self.federated_login(label) {
                Ok(session) => {
                    let degraded = session.subject.starts_with("last-resort:");
                    degraded_ok &= degraded;
                    drill.note(format!(
                        "login {round}: degraded to {} after retries",
                        session.subject
                    ));
                }
                Err(e) => {
                    degraded_ok = false;
                    drill.note(format!("login {round}: FAILED ({e})"));
                }
            }
        }
        drill.check("outage logins degrade to last resort", degraded_ok);
        drill.check(
            "faults were injected at the idp hop",
            self.resilience.faults_injected() > faults_before,
        );
        drill.check(
            "idp breaker tripped after repeated failures",
            self.resilience.breakers().trips() > drill.trips_before,
        );

        // A fourth login is rejected by the open breaker without touching
        // the IdP — and still lands on the last-resort route.
        let fast = self.federated_login(label);
        let fast_ok = fast
            .as_ref()
            .map(|s| s.subject.starts_with("last-resort:"))
            .unwrap_or(false);
        let rejected_fast = self.resilience.breakers().rejections() > before_rejections;
        drill.note("login 4: breaker open, failover without touching the IdP");
        drill.check("open breaker fails over fast", fast_ok && rejected_fast);

        // Outage window passes, breaker cools off, the probe succeeds:
        // primary path restored.
        let open_ms = breaker_config(self.resilience.is_tightened("idp")).open_ms;
        self.clock.advance(outage_ms + open_ms + 1);
        let restored = self
            .federated_login(label)
            .map(|s| s.subject.starts_with("maid-"))
            .unwrap_or(false);
        drill.note("window passed: half-open probe, primary path restored");
        drill.check("primary path restored after the window", restored);

        Ok(drill.finish())
    }

    /// **Chaos day 3 — kill-switch drill.** With live sessions on the
    /// books, a bastion compromise is simulated as a scheduled outage;
    /// the kill chain severs everything the subject holds, and the
    /// SIEM's kill event cites both the active fault id and the trace id
    /// of the login that created the severed access. `label` must be an
    /// onboarded member of `project`.
    pub fn chaos_killswitch_drill(
        &self,
        label: &str,
        project: &str,
        window_ms: u64,
    ) -> Result<ChaosOutcome, FlowError> {
        let mut drill = Drill::start(self, "killswitch-drill");

        self.federated_login(label)?;
        self.story4_ssh_connect(label, project)?;
        drill.note("setup: live broker session + bastion relay + shell");

        let now = self.clock.now_ms();
        let plan = FaultPlan::new(self.config.seed).outage("bastion", now, now + window_ms);
        let plane = self.install_fault_plan(plan);
        let fault_id = match plane.active_outage("bastion") {
            Some(id) => {
                drill.fault_ids.push(id.clone());
                id
            }
            None => {
                drill.check("active outage is queryable", false);
                String::new()
            }
        };
        drill.note(format!("compromise simulated: active fault {fault_id}"));

        let subject = self
            .subject_of(label)
            .ok_or_else(|| FlowError::NotLoggedIn(label.to_string()))?;
        let origin_trace = self
            .broker
            .sessions_of_subject(&subject)
            .into_iter()
            .rev()
            .find_map(|s| s.trace_id);
        let report = self.kill_user(&subject);
        self.siem.enqueue(
            SecurityEvent::new(
                self.clock.now_ms(),
                "sec/siem",
                EventKind::KillSwitch,
                &subject,
                format!(
                    "drill: severed {} footholds under active fault {fault_id}",
                    report.footholds()
                ),
                Severity::High,
            )
            .with_trace_id(origin_trace),
        );
        drill.note(format!(
            "kill chain: bastion={} shells={} notebooks={} jobs={}",
            report.bastion_sessions_cut,
            report.shells_cut,
            report.notebooks_cut,
            report.jobs_cancelled
        ));
        drill.check(
            "kill chain severed live footholds",
            report.bastion_sessions_cut >= 1 && report.shells_cut >= 1,
        );
        drill.check("drill cites an active fault id", !fault_id.is_empty());

        // The SOC can join the drill events back to the originating
        // login's full trace through the SIEM's trace index.
        let correlated = origin_trace
            .map(|t| {
                self.siem
                    .events_for_trace(t)
                    .iter()
                    .any(|e| e.kind == EventKind::KillSwitch && e.detail.contains(&fault_id))
            })
            .unwrap_or(false);
        drill.check("kill event joins to the originating trace", correlated);

        // Stand down: reinstate the subject, disarm the plane, re-login.
        self.reinstate_user(&subject);
        plane.set_enabled(false);
        let recovered = self.federated_login(label).is_ok();
        drill.note("stand down: subject reinstated, plane disarmed");
        drill.check("reinstatement restores login", recovered);

        Ok(drill.finish())
    }

    /// **Budget-driven chaos admission.** A drill targeting `dependency`
    /// may inject faults only while the dependency's *current* error-
    /// budget window still has headroom — replacing fixed drill windows
    /// with an adaptive gate: a dependency already burning its budget
    /// (organically or from an earlier drill) is left alone until the
    /// next window opens.
    pub fn chaos_admitted(&self, dependency: &str) -> bool {
        self.resilience
            .budgets()
            .has_headroom(dependency, self.clock.now_ms())
    }

    /// **Chaos day 4 — scheduler outage.** The Slurm control daemon goes
    /// dark under a scheduled fault. New submissions fail *closed*
    /// ([`SubmitError::SchedulerUnavailable`]) while already-running
    /// jobs keep running and complete on schedule — `tick`/`cancel`
    /// never consult the fault plane. The drill is budget-driven: the
    /// `slurm` window is first seeded with healthy traffic, and fault
    /// injection stops the moment the window's error budget is spent.
    /// `label` must be an onboarded member of `project`.
    pub fn chaos_scheduler_outage(
        &self,
        label: &str,
        project: &str,
    ) -> Result<ChaosOutcome, FlowError> {
        let mut drill = Drill::start(self, "scheduler-outage");

        self.federated_login(label)?;
        let subject = self
            .subject_of(label)
            .ok_or_else(|| FlowError::NotLoggedIn(label.to_string()))?;
        let account = self
            .portal
            .unix_accounts(&subject)
            .into_iter()
            .find(|(p, _)| p == project)
            .map(|(_, a)| a)
            .ok_or(FlowError::Jupyter(
                dri_cluster::jupyter::JupyterError::NoAccount,
            ))?;

        // Seed the budget window with healthy traffic so exhaustion is a
        // *rate* judgement, not a first-failure knee-jerk (an empty
        // window's budget is spent by a single error).
        let budgets = self.resilience.budgets();
        let mut seeded = 0;
        for _ in 0..20 {
            match self.scheduler.submit(&account, project, "gh", 1, 60) {
                Ok(id) => {
                    budgets.record("slurm", self.clock.now_ms(), true);
                    self.scheduler.cancel(&id);
                    seeded += 1;
                }
                Err(_) => break,
            }
        }
        drill.note(format!("baseline: {seeded} healthy submissions seeded"));
        drill.check("baseline traffic seeded the budget window", seeded == 20);

        // One long job running before the outage — the survivor.
        let survivor = self
            .scheduler
            .submit(&account, project, "gh", 1, 600)
            .map_err(|e| FlowError::Jupyter(dri_cluster::jupyter::JupyterError::Spawn(e)))?;
        self.scheduler.tick();
        let running = self
            .scheduler
            .job(&survivor)
            .is_some_and(|j| j.state == JobState::Running);
        drill.note(format!("job {survivor} running before the outage"));
        drill.check("survivor job running before the outage", running);

        let admitted = self.chaos_admitted("slurm");
        drill.check("drill admitted with budget headroom", admitted);

        let now = self.clock.now_ms();
        let plan = FaultPlan::new(self.config.seed).outage("slurm", now, u64::MAX);
        let fault_id = plan.fault_id(0);
        drill.fault_ids.push(fault_id.clone());
        let plane = self.install_fault_plan(plan);
        drill.note(format!("schedule {fault_id}: scheduler dark"));

        // Inject while the budget allows; each refused submission burns
        // budget, and exhaustion — not a fixed count — closes the drill.
        let mut failed_closed = true;
        let mut storm = 0;
        while self.chaos_admitted("slurm") && storm < 50 {
            let result = self.scheduler.submit(&account, project, "gh", 1, 60);
            failed_closed &= matches!(result, Err(SubmitError::SchedulerUnavailable));
            budgets.record("slurm", self.clock.now_ms(), false);
            storm += 1;
        }
        plane.set_enabled(false);
        drill.note(format!(
            "storm: {storm} submissions refused, budget exhausted, drill closed"
        ));
        drill.check(
            "outage fails new submissions closed",
            failed_closed && storm > 0,
        );
        drill.check(
            "budget exhaustion closed the drill",
            storm < 50 && !self.chaos_admitted("slurm"),
        );

        // The running job survives the whole outage and completes on
        // schedule.
        self.clock.advance_secs(600);
        self.scheduler.tick();
        let survived = self
            .scheduler
            .job(&survivor)
            .is_some_and(|j| j.state == JobState::Completed);
        drill.note(format!("job {survivor} completed through the outage"));
        drill.check("running job survived the scheduler outage", survived);

        // Disarmed plane + fresh window: submissions flow again.
        let recovered = match self.scheduler.submit(&account, project, "gh", 1, 60) {
            Ok(id) => {
                budgets.record("slurm", self.clock.now_ms(), true);
                self.scheduler.cancel(&id);
                true
            }
            Err(_) => false,
        };
        drill.note("recovery: submission accepted after disarm");
        drill.check("recovery submission accepted", recovered);

        Ok(drill.finish())
    }

    /// **Chaos day 5 — login-node drain.** The login node is drained for
    /// maintenance, mirroring the bastion's drain/restore: established
    /// shells keep running, *new* sessions are refused with
    /// [`LoginError::Draining`], and restore resumes service. `label`
    /// must be an onboarded member of `project`.
    pub fn chaos_login_drain(&self, label: &str, project: &str) -> Result<ChaosOutcome, FlowError> {
        let mut drill = Drill::start(self, "login-drain");
        let budgets = self.resilience.budgets();

        let baseline = self.story4_ssh_connect(label, project)?;
        budgets.record("login", self.clock.now_ms(), true);
        let shell_id = baseline.shell.id.clone();
        drill.note(format!("baseline: shell {shell_id} established"));

        self.login_node.set_draining(true);
        drill.note("login node draining for maintenance");

        let alive = self.login_node.session_alive(&shell_id);
        drill.check("established shell survives the drain", alive);

        let refused = matches!(
            self.story4_ssh_connect(label, project),
            Err(FlowError::Login(LoginError::Draining))
        );
        drill.note("new session refused while draining");
        drill.check("draining node refuses new sessions", refused);

        self.login_node.set_draining(false);
        let restored = self.story4_ssh_connect(label, project).is_ok();
        if restored {
            budgets.record("login", self.clock.now_ms(), true);
        }
        drill.note("restore: new sessions accepted again");
        drill.check("restore resumes service", restored);
        drill.check(
            "established shell alive end to end",
            self.login_node.session_alive(&shell_id),
        );

        Ok(drill.finish())
    }

    /// **Chaos day 6 — tailnet lease-expiry storm.** Every user lease on
    /// the admin tailnet is force-expired at once. Affected nodes lose
    /// the overlay until they re-authenticate through the broker for a
    /// fresh enrolment token; infrastructure enrolments and established
    /// broker sessions are untouched, so re-auth needs no new login.
    /// `label` must be a vetted administrator.
    pub fn chaos_tailnet_storm(&self, label: &str) -> Result<ChaosOutcome, FlowError> {
        let mut drill = Drill::start(self, "tailnet-storm");
        let budgets = self.resilience.budgets();

        self.admin_login(label)?;
        let subject = self
            .subject_of(label)
            .ok_or_else(|| FlowError::NotLoggedIn(label.to_string()))?;
        let (token, _) = self.token_for(label, "mgmt-tailnet", Vec::new())?;
        let node_name = format!("{label}-storm-drill");
        let node = TailnetNode::generate(&node_name, &mut self.rng.lock());
        self.tailnet
            .enroll(&node, &token)
            .map_err(FlowError::Tailnet)?;
        let baseline = self.tailnet.send(&node, "mdc-mgmt01", b"status").is_ok();
        budgets.record("tailnet", self.clock.now_ms(), baseline);
        drill.note(format!("baseline: {node_name} enrolled, overlay path up"));
        drill.check("baseline overlay path works", baseline);

        let expired = self.tailnet.expire_all_leases();
        drill.note(format!("storm: {expired} user leases force-expired"));
        drill.check("storm expired at least the drill lease", expired >= 1);

        let cut = matches!(
            self.tailnet.send(&node, "mdc-mgmt01", b"status"),
            Err(TailnetError::NotEnrolled(_))
        );
        drill.check("expired lease forces re-authentication", cut);

        // The broker session established before the storm is untouched:
        // re-auth is a token issuance, not a fresh login ceremony.
        let session_alive = !self.broker.sessions_of_subject(&subject).is_empty();
        drill.check("broker session survives the storm", session_alive);

        let (fresh, _) = self.token_for(label, "mgmt-tailnet", Vec::new())?;
        self.tailnet
            .enroll(&node, &fresh)
            .map_err(FlowError::Tailnet)?;
        let recovered = self.tailnet.send(&node, "mdc-mgmt01", b"status").is_ok();
        budgets.record("tailnet", self.clock.now_ms(), recovered);
        drill.note("re-auth through the broker restored the overlay");
        drill.check("re-enrolment restores the overlay", recovered);

        // Infrastructure enrolments never lapse: the management endpoint
        // was reachable throughout.
        let infra_intact = self.tailnet.public_key_of("mdc-mgmt01").is_some();
        drill.check("infrastructure enrolment untouched", infra_intact);

        Ok(drill.finish())
    }
}
