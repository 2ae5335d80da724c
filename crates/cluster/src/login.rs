//! Login nodes: the gateway to the supercomputer (user plane).
//!
//! A login node accepts an SSH session only when (1) the presented
//! certificate chains to the trusted CA, is in its validity window, and
//! names the requested UNIX account as a principal; (2) the account is
//! actually provisioned on the node; and (3) the connecting client proves
//! possession of the certified private key by signing a fresh challenge.

use std::sync::atomic::{AtomicBool, Ordering};

use dri_clock::{IdGen, SimClock, SimRng};
use dri_crypto::ed25519::{PreparedVerifyingKey, VerifyingKey};
use dri_sshca::cert::{CertError, SshCertificate};
use dri_sync::{ShardMap, Snapshot};
use parking_lot::Mutex;

/// Default shard count for the per-node account and session maps.
pub const DEFAULT_LOGIN_SHARDS: usize = 16;

/// Login failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoginError {
    /// Certificate rejected.
    Cert(CertError),
    /// The UNIX account is not provisioned on this node.
    NoSuchAccount(String),
    /// Possession proof failed (signature didn't verify against the
    /// certified public key).
    BadPossessionProof,
    /// Account locked (kill switch).
    AccountLocked,
    /// The node is draining (maintenance): new sessions are refused,
    /// established sessions keep running — the graceful counterpart of
    /// `set_locked`, mirroring bastion drain/restore.
    Draining,
    /// The node is unreachable (fault-plane outage). New sessions fail
    /// closed; established sessions are not severed.
    Unavailable,
}

impl std::fmt::Display for LoginError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoginError::Cert(e) => write!(f, "certificate rejected: {e}"),
            LoginError::NoSuchAccount(a) => write!(f, "no such account {a}"),
            LoginError::BadPossessionProof => write!(f, "key possession proof failed"),
            LoginError::AccountLocked => write!(f, "account locked"),
            LoginError::Draining => write!(f, "login node draining"),
            LoginError::Unavailable => write!(f, "login node unavailable"),
        }
    }
}

impl std::error::Error for LoginError {}

/// A live shell session on a login node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShellSession {
    /// Session id.
    pub id: String,
    /// UNIX account.
    pub account: String,
    /// Project the account belongs to.
    pub project: String,
    /// Certificate key id (audit: which human).
    pub key_id: String,
    /// Start time (ms).
    pub started_at_ms: u64,
}

#[derive(Clone)]
struct AccountRecord {
    project: String,
    locked: bool,
}

/// A login node.
///
/// Account and session state is sharded by key hash
/// ([`dri_sync::ShardMap`]) so a login storm hitting many accounts
/// takes many different locks; the trusted CA key is a
/// [`dri_sync::Snapshot`] read lock-free on every certificate check,
/// stored pre-decompressed so the curve-point recovery is paid once at
/// trust time rather than on every login.
pub struct LoginNode {
    /// Fabric host id (`mdc/login01`).
    pub host_id: String,
    clock: SimClock,
    ca_key: Snapshot<PreparedVerifyingKey>,
    accounts: ShardMap<AccountRecord>,
    sessions: ShardMap<ShellSession>,
    rng: Mutex<SimRng>,
    ids: IdGen,
    /// Draining: refuse new sessions, keep established ones.
    draining: AtomicBool,
    /// Fault-plane hook consulted on `open_session` (component `login`).
    faults: dri_fault::FaultHook,
}

impl LoginNode {
    /// Create a login node trusting `ca_key` as the user CA and consulting
    /// `faults` on `open_session`.
    pub fn new(
        host_id: impl Into<String>,
        ca_key: VerifyingKey,
        clock: SimClock,
        rng: SimRng,
        faults: dri_fault::FaultHook,
    ) -> LoginNode {
        LoginNode::with_shards(host_id, ca_key, clock, rng, DEFAULT_LOGIN_SHARDS, faults)
    }

    /// Create a login node with an explicit shard count (1 reproduces a
    /// single coarse lock).
    pub fn with_shards(
        host_id: impl Into<String>,
        ca_key: VerifyingKey,
        clock: SimClock,
        rng: SimRng,
        shards: usize,
        faults: dri_fault::FaultHook,
    ) -> LoginNode {
        LoginNode {
            host_id: host_id.into(),
            clock,
            ca_key: Snapshot::new(PreparedVerifyingKey::new(&ca_key)),
            accounts: ShardMap::new(shards),
            sessions: ShardMap::new(shards),
            rng: Mutex::new(rng),
            ids: IdGen::new("shell"),
            draining: AtomicBool::new(false),
            faults,
        }
    }

    /// Update the trusted user-CA key.
    pub fn trust_ca(&self, key: VerifyingKey) {
        self.ca_key.store(PreparedVerifyingKey::new(&key));
    }

    /// Start or stop draining the node. Draining refuses *new* sessions
    /// with [`LoginError::Draining`] but — unlike `set_locked` — leaves
    /// every established session running, so maintenance (or an HA
    /// failover drill) never cuts live shells.
    pub fn set_draining(&self, draining: bool) {
        self.draining.store(draining, Ordering::Release);
    }

    /// Whether the node is currently draining.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Provision a per-project UNIX account (driven from the portal).
    pub fn provision_account(&self, account: &str, project: &str) {
        self.accounts.insert(
            account.to_string(),
            AccountRecord {
                project: project.to_string(),
                locked: false,
            },
        );
    }

    /// Deprovision an account (project expiry / member removal).
    pub fn deprovision_account(&self, account: &str) -> bool {
        let removed = self.accounts.remove(account).is_some();
        if removed {
            self.sessions.retain(|_, s| s.account != account);
        }
        removed
    }

    /// Lock / unlock an account (kill switch; sessions are severed on lock).
    pub fn set_locked(&self, account: &str, locked: bool) -> bool {
        let known = self
            .accounts
            .with_mut(account, |rec| rec.locked = locked)
            .is_some();
        if known && locked {
            self.sessions.retain(|_, s| s.account != account);
        }
        known
    }

    /// Open an SSH session: certificate + possession proof.
    ///
    /// `sign_challenge` is the client's key operation (e.g.
    /// `SshCertClient::sign_auth_challenge`).
    pub fn open_session(
        &self,
        cert: &SshCertificate,
        account: &str,
        sign_challenge: impl FnOnce(&[u8]) -> [u8; 64],
    ) -> Result<ShellSession, LoginError> {
        let _span = dri_trace::span_with(
            "login.open_session",
            dri_trace::Stage::Cluster,
            &[("account", account)],
        );
        self.faults
            .check("login")
            .map_err(|_| LoginError::Unavailable)?;
        if self.draining() {
            return Err(LoginError::Draining);
        }
        cert.verify_prepared(&self.ca_key.load(), self.clock.now_secs(), Some(account))
            .map_err(LoginError::Cert)?;
        let project = self
            .accounts
            .with(account, |rec| {
                if rec.locked {
                    Err(LoginError::AccountLocked)
                } else {
                    Ok(rec.project.clone())
                }
            })
            .ok_or_else(|| LoginError::NoSuchAccount(account.to_string()))??;
        // Possession proof: fresh challenge signed by the certified key.
        let mut challenge = [0u8; 32];
        self.rng.lock().fill_bytes(&mut challenge);
        let signature = sign_challenge(&challenge);
        let user_key = VerifyingKey::from_bytes(cert.public_key);
        if !user_key.verify(&challenge, &signature) {
            return Err(LoginError::BadPossessionProof);
        }
        let session = ShellSession {
            id: self.ids.next(),
            account: account.to_string(),
            project,
            key_id: cert.key_id.clone(),
            started_at_ms: self.clock.now_ms(),
        };
        self.sessions.insert(session.id.clone(), session.clone());
        Ok(session)
    }

    /// Is a session alive?
    pub fn session_alive(&self, id: &str) -> bool {
        self.sessions.contains_key(id)
    }

    /// Close a session.
    pub fn close_session(&self, id: &str) -> bool {
        self.sessions.remove(id).is_some()
    }

    /// Sever every session belonging to a certificate key id (kill switch
    /// driven by subject, not account). Sweeps every shard.
    pub fn sever_by_key_id(&self, key_id: &str) -> usize {
        self.sessions.retain(|_, s| s.key_id != key_id)
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Live sessions per shard, in shard order.
    pub fn session_shard_lens(&self) -> Vec<usize> {
        self.sessions.shard_lens()
    }

    /// Number of provisioned accounts.
    pub fn account_count(&self) -> usize {
        self.accounts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dri_crypto::ed25519::SigningKey;

    struct Fixture {
        node: LoginNode,
        ca: SigningKey,
        user_key: SigningKey,
        clock: SimClock,
        faults: dri_fault::FaultHook,
    }

    fn fixture() -> Fixture {
        let clock = SimClock::starting_at(500_000);
        let ca = SigningKey::from_seed(&[61u8; 32]);
        let user_key = SigningKey::from_seed(&[62u8; 32]);
        let faults = dri_fault::FaultHook::default();
        let node = LoginNode::new(
            "mdc/login01",
            ca.verifying_key(),
            clock.clone(),
            SimRng::seed_from_u64(7),
            faults.clone(),
        );
        node.provision_account("u123", "climate-llm");
        Fixture {
            node,
            ca,
            user_key,
            clock,
            faults,
        }
    }

    fn cert(f: &Fixture) -> SshCertificate {
        let now = f.clock.now_secs();
        SshCertificate {
            public_key: *f.user_key.verifying_key().as_bytes(),
            serial: 1,
            key_id: "maid-1".into(),
            principals: vec!["u123".into()],
            valid_after: now,
            valid_before: now + 3600,
            critical_options: vec![],
            extensions: vec![],
            signature: [0u8; 64],
        }
        .signed(&f.ca)
    }

    #[test]
    fn login_with_cert_and_possession_proof() {
        let f = fixture();
        let c = cert(&f);
        let session = f
            .node
            .open_session(&c, "u123", |ch| f.user_key.sign(ch))
            .unwrap();
        assert_eq!(session.project, "climate-llm");
        assert_eq!(session.key_id, "maid-1");
        assert!(f.node.session_alive(&session.id));
    }

    #[test]
    fn stolen_cert_without_private_key_fails() {
        let f = fixture();
        let c = cert(&f);
        let thief_key = SigningKey::from_seed(&[99u8; 32]);
        assert_eq!(
            f.node.open_session(&c, "u123", |ch| thief_key.sign(ch)),
            Err(LoginError::BadPossessionProof)
        );
    }

    #[test]
    fn unprovisioned_account_fails() {
        let f = fixture();
        let now = f.clock.now_secs();
        let c = SshCertificate {
            public_key: *f.user_key.verifying_key().as_bytes(),
            serial: 2,
            key_id: "maid-1".into(),
            principals: vec!["u999".into()],
            valid_after: now,
            valid_before: now + 3600,
            critical_options: vec![],
            extensions: vec![],
            signature: [0u8; 64],
        }
        .signed(&f.ca);
        assert_eq!(
            f.node.open_session(&c, "u999", |ch| f.user_key.sign(ch)),
            Err(LoginError::NoSuchAccount("u999".into()))
        );
    }

    #[test]
    fn expired_cert_fails() {
        let f = fixture();
        let c = cert(&f);
        f.clock.advance_secs(3601);
        assert_eq!(
            f.node.open_session(&c, "u123", |ch| f.user_key.sign(ch)),
            Err(LoginError::Cert(CertError::Expired))
        );
    }

    #[test]
    fn lock_severs_sessions_and_blocks_relogin() {
        let f = fixture();
        let c = cert(&f);
        let session = f
            .node
            .open_session(&c, "u123", |ch| f.user_key.sign(ch))
            .unwrap();
        assert!(f.node.set_locked("u123", true));
        assert!(!f.node.session_alive(&session.id));
        assert_eq!(
            f.node.open_session(&c, "u123", |ch| f.user_key.sign(ch)),
            Err(LoginError::AccountLocked)
        );
        f.node.set_locked("u123", false);
        assert!(f
            .node
            .open_session(&c, "u123", |ch| f.user_key.sign(ch))
            .is_ok());
    }

    #[test]
    fn drain_refuses_new_sessions_but_keeps_established_ones() {
        let f = fixture();
        let c = cert(&f);
        let session = f
            .node
            .open_session(&c, "u123", |ch| f.user_key.sign(ch))
            .unwrap();
        f.node.set_draining(true);
        assert!(f.node.draining());
        assert!(
            f.node.session_alive(&session.id),
            "drain must not sever live shells"
        );
        assert_eq!(
            f.node.open_session(&c, "u123", |ch| f.user_key.sign(ch)),
            Err(LoginError::Draining)
        );
        f.node.set_draining(false);
        assert!(f
            .node
            .open_session(&c, "u123", |ch| f.user_key.sign(ch))
            .is_ok());
    }

    #[test]
    fn fault_plane_outage_fails_new_sessions_closed() {
        let f = fixture();
        let c = cert(&f);
        let session = f
            .node
            .open_session(&c, "u123", |ch| f.user_key.sign(ch))
            .unwrap();
        let plan = dri_fault::FaultPlan::new(5).outage("login", 0, u64::MAX);
        let plane = std::sync::Arc::new(dri_fault::FaultPlane::new(plan, f.clock.clone()));
        f.faults.install(plane.clone());
        assert_eq!(
            f.node.open_session(&c, "u123", |ch| f.user_key.sign(ch)),
            Err(LoginError::Unavailable)
        );
        assert!(f.node.session_alive(&session.id));
        plane.set_enabled(false);
        assert!(f
            .node
            .open_session(&c, "u123", |ch| f.user_key.sign(ch))
            .is_ok());
    }

    #[test]
    fn deprovision_removes_account_and_sessions() {
        let f = fixture();
        let c = cert(&f);
        let s = f
            .node
            .open_session(&c, "u123", |ch| f.user_key.sign(ch))
            .unwrap();
        assert!(f.node.deprovision_account("u123"));
        assert!(!f.node.session_alive(&s.id));
        assert_eq!(f.node.account_count(), 0);
        assert!(!f.node.deprovision_account("u123"));
    }

    #[test]
    fn sever_by_key_id_cuts_only_that_subject() {
        let f = fixture();
        f.node.provision_account("u456", "genomics");
        let c1 = cert(&f);
        let now = f.clock.now_secs();
        let other_key = SigningKey::from_seed(&[63u8; 32]);
        let c2 = SshCertificate {
            public_key: *other_key.verifying_key().as_bytes(),
            serial: 3,
            key_id: "maid-2".into(),
            principals: vec!["u456".into()],
            valid_after: now,
            valid_before: now + 3600,
            critical_options: vec![],
            extensions: vec![],
            signature: [0u8; 64],
        }
        .signed(&f.ca);
        let s1 = f
            .node
            .open_session(&c1, "u123", |ch| f.user_key.sign(ch))
            .unwrap();
        let s2 = f
            .node
            .open_session(&c2, "u456", |ch| other_key.sign(ch))
            .unwrap();
        assert_eq!(f.node.sever_by_key_id("maid-1"), 1);
        assert!(!f.node.session_alive(&s1.id));
        assert!(f.node.session_alive(&s2.id));
    }
}
