//! The cluster management plane (user story 5).
//!
//! Privileged operations are defended in layers, each checked
//! independently ("segmentation and policy enforcement at each level"):
//!
//! 1. **transport** — requests must arrive via the admin tailnet; a
//!    request presented over any other path is rejected before the token
//!    is even looked at;
//! 2. **token** — a valid, unrevoked broker JWT, admitted through the
//!    plane's [`TokenGate`]: audience `mgmt-cluster`, the `sysadmin` role,
//!    ACR `mfa-hw`;
//! 3. **cluster ACL** — the subject must also appear on the cluster-local
//!    access control list (the paper's "separate access control list on
//!    the cluster level").

use std::collections::HashSet;
use std::sync::Arc;

use dri_broker::broker::{IntrospectFn, Jwks};
use dri_broker::gate::TokenGate;
use dri_clock::SimClock;
use dri_crypto::jwt::JwtError;
use parking_lot::RwLock;

use crate::slurm::Scheduler;

/// Privileged operations the management plane exposes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MgmtOp {
    /// Drain a partition (no new jobs start).
    DrainPartition(String),
    /// Cancel every job of a UNIX account.
    CancelUserJobs(String),
    /// Read-only health query.
    Health,
}

/// How the request reached the management plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportPath {
    /// Through the admin tailnet (the only legitimate path).
    Tailnet,
    /// Any direct network path (always rejected).
    Direct,
}

/// Management-plane failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MgmtError {
    /// Arrived outside the tailnet.
    WrongTransport,
    /// Token validation failed.
    BadToken(JwtError),
    /// Token revoked per introspection.
    TokenRevoked,
    /// Token lacks the sysadmin role.
    RoleMissing,
    /// Token ACR is not hardware-key MFA.
    AcrTooWeak,
    /// Subject not on the cluster-local ACL.
    NotOnClusterAcl,
}

impl std::fmt::Display for MgmtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MgmtError::WrongTransport => write!(f, "request must arrive via the admin tailnet"),
            MgmtError::BadToken(e) => write!(f, "token rejected: {e}"),
            MgmtError::TokenRevoked => write!(f, "token revoked"),
            MgmtError::RoleMissing => write!(f, "sysadmin role required"),
            MgmtError::AcrTooWeak => write!(f, "hardware-key MFA required"),
            MgmtError::NotOnClusterAcl => write!(f, "subject not on cluster ACL"),
        }
    }
}

impl std::error::Error for MgmtError {}

dri_broker::gate_errors!(MgmtError, MgmtError::AcrTooWeak);

/// Outcome of a privileged operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpResult {
    /// Which op ran.
    pub op: MgmtOp,
    /// Human-readable result.
    pub detail: String,
}

/// The management plane service (runs on admin nodes in the MDC
/// Management zone).
pub struct ManagementPlane {
    clock: SimClock,
    gate: TokenGate,
    scheduler: Arc<Scheduler>,
    cluster_acl: RwLock<HashSet<String>>,
    ops_executed: RwLock<Vec<(u64, String, MgmtOp)>>,
}

impl ManagementPlane {
    /// Create the management plane. `introspect` is the broker's
    /// revocation check, part of the token layer.
    pub fn new(
        jwks: Jwks,
        introspect: IntrospectFn,
        scheduler: Arc<Scheduler>,
        clock: SimClock,
    ) -> ManagementPlane {
        ManagementPlane {
            clock,
            gate: TokenGate::new(
                jwks,
                introspect,
                "mgmt-cluster",
                &["sysadmin"],
                Some("mfa-hw"),
            ),
            scheduler,
            cluster_acl: RwLock::new(HashSet::new()),
            ops_executed: RwLock::new(Vec::new()),
        }
    }

    /// Refresh the JWKS snapshot (key rotation).
    pub fn update_jwks(&self, jwks: Jwks) {
        self.gate.update_jwks(jwks);
    }

    /// Add a subject to the cluster-local ACL.
    pub fn acl_add(&self, subject: &str) {
        self.cluster_acl.write().insert(subject.to_string());
    }

    /// Remove a subject from the cluster-local ACL.
    pub fn acl_remove(&self, subject: &str) {
        self.cluster_acl.write().remove(subject);
    }

    /// Execute a privileged operation through the layered checks.
    pub fn execute(
        &self,
        transport: TransportPath,
        token: &str,
        op: MgmtOp,
    ) -> Result<OpResult, MgmtError> {
        // Layer 1: transport.
        if transport != TransportPath::Tailnet {
            return Err(MgmtError::WrongTransport);
        }
        // Layer 2: token.
        let claims = self.gate.admit(token, self.clock.now_secs())?;
        // Layer 3: cluster-local ACL.
        if !self.cluster_acl.read().contains(&claims.subject) {
            return Err(MgmtError::NotOnClusterAcl);
        }

        let detail = match &op {
            MgmtOp::DrainPartition(p) => {
                if self.scheduler.set_drained(p, true) {
                    format!("partition {p} drained")
                } else {
                    format!("partition {p} not found")
                }
            }
            MgmtOp::CancelUserJobs(user) => {
                let n = self.scheduler.cancel_user_jobs(user);
                format!("cancelled {n} jobs of {user}")
            }
            MgmtOp::Health => {
                let (pending, running) = self.scheduler.queue_depth();
                format!("queue: {pending} pending, {running} running")
            }
        };
        self.ops_executed
            .write()
            .push((self.clock.now_ms(), claims.subject.clone(), op.clone()));
        Ok(OpResult { op, detail })
    }

    /// Audit log of executed operations.
    pub fn audit_log(&self) -> Vec<(u64, String, MgmtOp)> {
        self.ops_executed.read().clone()
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
        mgmt: ManagementPlane,
        broker: Arc<IdentityBroker>,
        authz: Arc<StaticAuthz>,
        scheduler: Arc<Scheduler>,
        admin_session: String,
    }

    fn fixture() -> Fixture {
        let clock = SimClock::starting_at(4_000_000_000);
        let authz = Arc::new(StaticAuthz::new());
        authz.grant("admin:dave", "mgmt-cluster", &["sysadmin"]);
        authz.grant("last-resort:vendor", "mgmt-cluster", &["sysadmin"]); // rogue grant
        let broker = Arc::new(IdentityBroker::new(
            "https://broker.isambard.ac.uk",
            [81u8; 32],
            3600,
            clock.clone(),
            Arc::new(FederationRegistry::new()),
            authz.clone(),
            dri_fault::FaultHook::default(),
        ));
        broker.register_service(TokenPolicy::admin("mgmt-cluster", 600));
        let session = broker
            .login_managed(
                &ManagedLogin {
                    subject: "admin:dave".into(),
                    acr: "mfa-hw".into(),
                },
                IdentitySource::AdminIdp,
            )
            .unwrap();
        let scheduler = Arc::new(Scheduler::new(
            clock.clone(),
            dri_fault::FaultHook::default(),
        ));
        scheduler.add_partition("gh", 8, 8);
        let mgmt = ManagementPlane::new(
            broker.jwks(),
            broker.introspector(),
            scheduler.clone(),
            clock,
        );
        mgmt.acl_add("admin:dave");
        Fixture {
            mgmt,
            broker,
            authz,
            scheduler,
            admin_session: session.session_id,
        }
    }

    fn admin_token(f: &Fixture) -> String {
        f.broker
            .issue_token(&f.admin_session, "mgmt-cluster")
            .unwrap()
            .0
    }

    #[test]
    fn privileged_op_through_all_layers() {
        let f = fixture();
        f.scheduler.submit("mallory", "p", "gh", 1, 100).unwrap();
        f.scheduler.tick();
        let result = f
            .mgmt
            .execute(
                TransportPath::Tailnet,
                &admin_token(&f),
                MgmtOp::CancelUserJobs("mallory".into()),
            )
            .unwrap();
        assert_eq!(result.detail, "cancelled 1 jobs of mallory");
        assert_eq!(f.mgmt.audit_log().len(), 1);
    }

    #[test]
    fn direct_transport_rejected_before_token_check() {
        let f = fixture();
        assert_eq!(
            f.mgmt
                .execute(TransportPath::Direct, &admin_token(&f), MgmtOp::Health),
            Err(MgmtError::WrongTransport)
        );
        // Even garbage tokens get the same error — transport first.
        assert_eq!(
            f.mgmt
                .execute(TransportPath::Direct, "garbage", MgmtOp::Health),
            Err(MgmtError::WrongTransport)
        );
    }

    #[test]
    fn cluster_acl_is_an_independent_layer() {
        let f = fixture();
        // Remove from the cluster ACL: valid admin token no longer enough.
        f.mgmt.acl_remove("admin:dave");
        assert_eq!(
            f.mgmt
                .execute(TransportPath::Tailnet, &admin_token(&f), MgmtOp::Health),
            Err(MgmtError::NotOnClusterAcl)
        );
        f.mgmt.acl_add("admin:dave");
        assert!(f
            .mgmt
            .execute(TransportPath::Tailnet, &admin_token(&f), MgmtOp::Health)
            .is_ok());
    }

    #[test]
    fn bad_tokens_rejected() {
        let f = fixture();
        assert!(matches!(
            f.mgmt
                .execute(TransportPath::Tailnet, "junk", MgmtOp::Health),
            Err(MgmtError::BadToken(_))
        ));
    }

    #[test]
    fn token_without_sysadmin_role_rejected() {
        let f = fixture();
        f.authz.grant("admin:dave", "mgmt-cluster", &["auditor"]);
        let err = f
            .mgmt
            .execute(TransportPath::Tailnet, &admin_token(&f), MgmtOp::Health)
            .unwrap_err();
        assert_eq!(err, MgmtError::RoleMissing);
        assert_eq!(err.to_string(), "sysadmin role required");
        assert!(f.mgmt.audit_log().is_empty());
    }

    #[test]
    fn health_reports_queue() {
        let f = fixture();
        f.scheduler.submit("u", "p", "gh", 1, 100).unwrap();
        let r = f
            .mgmt
            .execute(TransportPath::Tailnet, &admin_token(&f), MgmtOp::Health)
            .unwrap();
        assert!(r.detail.contains("1 pending"));
    }
}
