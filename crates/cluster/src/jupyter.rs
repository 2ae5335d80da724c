//! The Jupyter notebook service (user story 6).
//!
//! Two halves, as in the deployed system:
//!
//! * the **authenticator** runs on the login node at the MDC end of the
//!   Zenith tunnel: it extracts the broker token from the `x-auth-token`
//!   header and admits it through its [`TokenGate`]: audience `jupyter`,
//!   any of the roles `pi` and `researcher`, no ACR rule;
//! * the **spawner** places a notebook session on a compute node via the
//!   scheduler's interactive partition, bound to the user's per-project
//!   UNIX account.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dri_broker::broker::{IntrospectFn, Jwks};
use dri_broker::gate::TokenGate;
use dri_clock::{IdGen, SimClock};
use dri_crypto::json::Value;
use dri_crypto::jwt::JwtError;
use dri_sync::ShardMap;

use crate::slurm::{Scheduler, SubmitError};

/// Default shard count for the notebook session map.
pub const DEFAULT_JUPYTER_SHARDS: usize = 16;

/// Jupyter failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JupyterError {
    /// Missing `x-auth-token` header.
    NoToken,
    /// Token validation failed.
    BadToken(JwtError),
    /// Token revoked per introspection.
    TokenRevoked,
    /// Token valid but carries no usable role.
    RoleMissing,
    /// The token has no UNIX account claim for this cluster.
    NoAccount,
    /// The spawner could not get resources.
    Spawn(SubmitError),
    /// Service at capacity.
    AtCapacity,
}

impl std::fmt::Display for JupyterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JupyterError::NoToken => write!(f, "missing x-auth-token header"),
            JupyterError::BadToken(e) => write!(f, "token rejected: {e}"),
            JupyterError::TokenRevoked => write!(f, "token revoked"),
            JupyterError::RoleMissing => write!(f, "token carries no usable role"),
            JupyterError::NoAccount => write!(f, "no unix account claim"),
            JupyterError::Spawn(e) => write!(f, "spawn failed: {e}"),
            JupyterError::AtCapacity => write!(f, "service at capacity"),
        }
    }
}

impl std::error::Error for JupyterError {}

dri_broker::gate_errors!(JupyterError, unreachable!("no ACR rule"));

/// A live notebook session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotebookSession {
    /// Session id.
    pub id: String,
    /// Subject (cuid).
    pub subject: String,
    /// UNIX account the kernel runs as.
    pub unix_account: String,
    /// Project charged.
    pub project: String,
    /// Scheduler job backing the session.
    pub job_id: String,
    /// Token id that opened the session (for revocation tracing).
    pub token_id: String,
    /// Start time (ms).
    pub started_at_ms: u64,
}

/// The notebook service.
///
/// Every spawn admits its token through the service's [`TokenGate`],
/// which validates against an immutable JWKS snapshot with no lock held;
/// the snapshot is republished only on broker key rotation. Session
/// state is sharded; capacity is an atomic reservation counter so
/// `AtCapacity` is exact even under a parallel storm.
pub struct JupyterService {
    /// Interactive partition used for kernels.
    pub partition: String,
    /// Maximum simultaneous sessions.
    pub capacity: usize,
    clock: SimClock,
    gate: TokenGate,
    scheduler: Arc<Scheduler>,
    sessions: ShardMap<NotebookSession>,
    /// Live + in-flight session reservations.
    live: AtomicUsize,
    ids: IdGen,
}

impl JupyterService {
    /// Create the service. `introspect` is the broker's revocation
    /// check, consulted by the gate on every spawn after the JWKS
    /// validation.
    pub fn new(
        jwks: Jwks,
        introspect: IntrospectFn,
        scheduler: Arc<Scheduler>,
        partition: impl Into<String>,
        capacity: usize,
        clock: SimClock,
    ) -> JupyterService {
        JupyterService {
            partition: partition.into(),
            capacity,
            clock,
            gate: TokenGate::new(jwks, introspect, "jupyter", &["pi", "researcher"], None),
            scheduler,
            sessions: ShardMap::new(DEFAULT_JUPYTER_SHARDS),
            live: AtomicUsize::new(0),
            ids: IdGen::new("nb"),
        }
    }

    /// Refresh the JWKS snapshot (key rotation).
    pub fn update_jwks(&self, jwks: Jwks) {
        self.gate.update_jwks(jwks);
    }

    /// Epoch of the currently trusted JWKS snapshot.
    pub fn jwks_epoch(&self) -> u64 {
        self.gate.jwks_epoch()
    }

    /// Handle an authenticated spawn request arriving through the tunnel.
    /// `headers` are the forwarded HTTP headers.
    pub fn spawn(&self, headers: &[(String, String)]) -> Result<NotebookSession, JupyterError> {
        let _span = dri_trace::span("jupyter.spawn", dri_trace::Stage::Cluster);
        // Surface the propagated W3C context, proving the trace survived
        // the edge -> tunnel -> spawner boundary crossings. The header is
        // untrusted: only one that parses is recorded, and a header that
        // parses is exactly 55 bytes in canonical form.
        if let Some((_, tp)) = headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("traceparent"))
        {
            if dri_trace::TraceCtx::parse(tp).is_some() {
                dri_trace::add_attr("traceparent", tp);
            }
        }
        let token = headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("x-auth-token"))
            .map(|(_, v)| v.as_str())
            .ok_or(JupyterError::NoToken)?;
        let claims = self.gate.admit(token, self.clock.now_secs())?;
        // The broker attaches the target unix account + project as claims.
        let account = claims
            .extra_claim("unix_account")
            .and_then(Value::as_str)
            .ok_or(JupyterError::NoAccount)?
            .to_string();
        let project = claims
            .extra_claim("project")
            .and_then(Value::as_str)
            .unwrap_or("unknown")
            .to_string();

        // Atomically reserve a capacity slot; exact under parallel
        // storms (no read-check/insert race).
        if self
            .live
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.capacity).then_some(n + 1)
            })
            .is_err()
        {
            return Err(JupyterError::AtCapacity);
        }
        let job_id = match self
            .scheduler
            .submit(&account, &project, &self.partition, 1, 4 * 3600)
        {
            Ok(id) => id,
            Err(e) => {
                self.live.fetch_sub(1, Ordering::AcqRel);
                return Err(JupyterError::Spawn(e));
            }
        };
        self.scheduler.tick();

        let session = NotebookSession {
            id: self.ids.next(),
            subject: claims.subject.clone(),
            unix_account: account,
            project,
            job_id,
            token_id: claims.token_id.clone(),
            started_at_ms: self.clock.now_ms(),
        };
        self.sessions.insert(session.id.clone(), session.clone());
        Ok(session)
    }

    /// Stop a session (user action or expiry), cancelling its job.
    pub fn stop(&self, session_id: &str) -> bool {
        match self.sessions.remove(session_id) {
            Some(s) => {
                self.scheduler.cancel(&s.job_id);
                self.live.fetch_sub(1, Ordering::AcqRel);
                true
            }
            None => false,
        }
    }

    /// Sever every session of a subject (kill switch). Sweeps every
    /// shard so no session survives regardless of where it hashed.
    pub fn sever_subject(&self, subject: &str) -> usize {
        let victims = self.sessions.drain_matching(|_, s| s.subject == subject);
        for (_, s) in &victims {
            self.scheduler.cancel(&s.job_id);
        }
        self.live.fetch_sub(victims.len(), Ordering::AcqRel);
        victims.len()
    }

    /// Live session count.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Live sessions per shard, in shard order.
    pub fn session_shard_lens(&self) -> Vec<usize> {
        self.sessions.shard_lens()
    }

    /// Session snapshot.
    pub fn session(&self, id: &str) -> Option<NotebookSession> {
        self.sessions.get_cloned(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dri_broker::authz::StaticAuthz;
    use dri_broker::broker::{IdentityBroker, IdentitySource, TokenPolicy};
    use dri_broker::managed_idp::ManagedLogin;
    use dri_federation::metadata::FederationRegistry;

    struct Fixture {
        service: JupyterService,
        broker: Arc<IdentityBroker>,
        authz: Arc<StaticAuthz>,
        scheduler: Arc<Scheduler>,
        session_id: String,
        clock: SimClock,
    }

    fn fixture(capacity: usize) -> Fixture {
        let clock = SimClock::starting_at(3_000_000_000);
        let authz = Arc::new(StaticAuthz::new());
        authz.grant("last-resort:alice", "jupyter", &["researcher"]);
        let broker = Arc::new(IdentityBroker::new(
            "https://broker.isambard.ac.uk",
            [71u8; 32],
            3600,
            clock.clone(),
            Arc::new(FederationRegistry::new()),
            authz.clone(),
            dri_fault::FaultHook::default(),
        ));
        broker.register_service(TokenPolicy::standard("jupyter", 900));
        let session = broker
            .login_managed(
                &ManagedLogin {
                    subject: "last-resort:alice".into(),
                    acr: "mfa-totp".into(),
                },
                IdentitySource::LastResort,
            )
            .unwrap();
        let scheduler = Arc::new(Scheduler::new(
            clock.clone(),
            dri_fault::FaultHook::default(),
        ));
        scheduler.add_partition("interactive", 64, 1);
        let service = JupyterService::new(
            broker.jwks(),
            broker.introspector(),
            scheduler.clone(),
            "interactive",
            capacity,
            clock.clone(),
        );
        Fixture {
            service,
            broker,
            authz,
            scheduler,
            session_id: session.session_id,
            clock,
        }
    }

    fn token(f: &Fixture) -> String {
        f.broker
            .issue_token_with_extra(
                &f.session_id,
                "jupyter",
                vec![
                    ("unix_account".into(), Value::s("u123")),
                    ("project".into(), Value::s("climate-llm")),
                ],
            )
            .unwrap()
            .0
    }

    fn headers(token: &str) -> Vec<(String, String)> {
        vec![("x-auth-token".into(), token.into())]
    }

    #[test]
    fn spawn_happy_path() {
        let f = fixture(10);
        let session = f.service.spawn(&headers(&token(&f))).unwrap();
        assert_eq!(session.unix_account, "u123");
        assert_eq!(session.project, "climate-llm");
        // A job is really running behind it.
        let job = f.scheduler.job(&session.job_id).unwrap();
        assert_eq!(job.state, crate::slurm::JobState::Running);
        assert_eq!(job.user, "u123");
    }

    #[test]
    fn missing_or_bad_token_rejected() {
        let f = fixture(10);
        assert_eq!(f.service.spawn(&[]), Err(JupyterError::NoToken));
        assert!(matches!(
            f.service.spawn(&headers("junk")),
            Err(JupyterError::BadToken(_))
        ));
        // Expired token.
        let t = token(&f);
        f.clock.advance_secs(901);
        assert!(matches!(
            f.service.spawn(&headers(&t)),
            Err(JupyterError::BadToken(JwtError::Expired))
        ));
    }

    #[test]
    fn revoked_token_rejected_via_introspection() {
        let f = fixture(10);
        let (t, claims) = f
            .broker
            .issue_token_with_extra(
                &f.session_id,
                "jupyter",
                vec![("unix_account".into(), Value::s("u123"))],
            )
            .unwrap();
        f.broker.revoke_token(&claims.token_id);
        assert_eq!(
            f.service.spawn(&headers(&t)),
            Err(JupyterError::TokenRevoked)
        );
    }

    #[test]
    fn token_without_a_notebook_role_rejected() {
        let f = fixture(10);
        f.authz.grant("last-resort:alice", "jupyter", &["sysadmin"]);
        let err = f.service.spawn(&headers(&token(&f))).unwrap_err();
        assert_eq!(err, JupyterError::RoleMissing);
        assert_eq!(err.to_string(), "token carries no usable role");
    }

    #[test]
    fn token_without_account_claim_rejected() {
        let f = fixture(10);
        let (t, _) = f.broker.issue_token(&f.session_id, "jupyter").unwrap();
        assert_eq!(f.service.spawn(&headers(&t)), Err(JupyterError::NoAccount));
    }

    #[test]
    fn capacity_enforced() {
        let f = fixture(2);
        f.service.spawn(&headers(&token(&f))).unwrap();
        f.service.spawn(&headers(&token(&f))).unwrap();
        assert_eq!(
            f.service.spawn(&headers(&token(&f))),
            Err(JupyterError::AtCapacity)
        );
        assert_eq!(f.service.session_count(), 2);
    }

    /// Spawn inside a traced flow with `traceparent` set to `header`,
    /// and return the `traceparent` attributes the spawn span recorded.
    fn recorded_traceparents(header: &str) -> Vec<String> {
        let f = fixture(10);
        let tracer = Arc::new(dri_trace::Tracer::new(1, 4, f.clock.clone()));
        tracer.set_enabled(true);
        let mut hs = headers(&token(&f));
        hs.push(("traceparent".into(), header.into()));
        {
            let _flow = dri_trace::flow(&tracer, "alice", "story6", dri_trace::Stage::Flow);
            f.service.spawn(&hs).unwrap();
        }
        let spans = tracer.all_spans();
        let spawn = spans.iter().find(|s| s.name == "jupyter.spawn").unwrap();
        spawn
            .attrs
            .iter()
            .filter(|(k, _)| k == "traceparent")
            .map(|(_, v)| v.clone())
            .collect()
    }

    #[test]
    fn oversized_or_malformed_traceparent_is_not_recorded() {
        let huge = format!("00-{}", "a".repeat(64 * 1024));
        assert!(recorded_traceparents(&huge).is_empty());
        assert!(recorded_traceparents("00-not-a-header-01").is_empty());
        let valid = dri_trace::TraceCtx {
            trace_id: dri_trace::TraceId([7; 16]),
            span_id: dri_trace::SpanId([9; 8]),
        }
        .traceparent();
        assert_eq!(recorded_traceparents(&valid), vec![valid.clone()]);
        assert_eq!(valid.len(), 55);
    }

    #[test]
    fn stop_cancels_job() {
        let f = fixture(10);
        let session = f.service.spawn(&headers(&token(&f))).unwrap();
        assert!(f.service.stop(&session.id));
        // The cancelled job left the table for the accounting.
        assert!(f.scheduler.job(&session.job_id).is_none());
        let report = f.scheduler.accounting_report();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].project, "climate-llm");
        assert_eq!((report[0].cancelled, report[0].running), (1, 0));
        assert!(!f.service.stop(&session.id));
    }

    #[test]
    fn sever_subject_kills_all_their_notebooks() {
        let f = fixture(10);
        f.service.spawn(&headers(&token(&f))).unwrap();
        f.service.spawn(&headers(&token(&f))).unwrap();
        assert_eq!(f.service.sever_subject("last-resort:alice"), 2);
        assert_eq!(f.service.session_count(), 0);
        let (_pending, running) = f.scheduler.queue_depth();
        assert_eq!(running, 0);
    }
}
