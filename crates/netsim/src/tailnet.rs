//! The administrators' WireGuard-style overlay network (Tailscale-like).
//!
//! §III-B: access to management services rides a tailnet whose enrolment
//! is gated on broker-issued `mgmt-tailnet` RBAC tokens. Modelled
//! faithfully at the protocol level:
//!
//! * each node holds an X25519 keypair; the coordination server only ever
//!   sees public keys;
//! * enrolment requires a valid, unrevoked admin token, admitted through
//!   the coordinator's [`TokenGate`] (audience `mgmt-tailnet`, the
//!   `sysadmin` role, no ACR rule), and yields a **time-limited lease** —
//!   re-authentication is forced when it lapses;
//! * node-to-node traffic is end-to-end encrypted: X25519 ECDH → HKDF →
//!   ChaCha20-Poly1305 AEAD with the sender name as associated data, and tampering is
//!   detected;
//! * ACLs restrict which nodes may talk;
//! * the externally managed kill switch can drop one node, every node a
//!   subject enrolled, or the whole tailnet instantly.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use dri_broker::broker::{IntrospectFn, Jwks};
use dri_broker::gate::TokenGate;
use dri_clock::{SimClock, SimRng};
use dri_crypto::aead;
use dri_crypto::hkdf;
use dri_crypto::jwt::JwtError;
use dri_crypto::x25519;
use parking_lot::RwLock;

/// A device participating in the tailnet (lives with its owner; the
/// private key never reaches the coordination server).
pub struct TailnetNode {
    /// Node name (e.g. `dave-laptop`, `mdc-mgmt01`).
    pub name: String,
    private: [u8; 32],
    /// X25519 public key.
    pub public: [u8; 32],
}

impl TailnetNode {
    /// Generate a node keypair.
    pub fn generate(name: impl Into<String>, rng: &mut SimRng) -> TailnetNode {
        let private = x25519::clamp(rng.seed32());
        let public = x25519::public_key(&private);
        TailnetNode {
            name: name.into(),
            private,
            public,
        }
    }

    fn session_key(&self, peer_public: &[u8; 32]) -> [u8; 32] {
        let shared = x25519::shared_secret(&self.private, peer_public);
        let mut key = [0u8; 32];
        hkdf::hkdf(b"dri-tailnet-v1", &shared, b"session", &mut key);
        key
    }

    /// Seal a payload for `peer_public` with ChaCha20-Poly1305; the
    /// sender's node name is bound as associated data.
    pub fn seal(&self, peer_public: &[u8; 32], nonce12: &[u8; 12], plaintext: &[u8]) -> Vec<u8> {
        let key = self.session_key(peer_public);
        aead::seal(&key, nonce12, self.name.as_bytes(), plaintext)
    }

    /// Verify + decrypt a payload from the peer that owns
    /// `sender_public`, checking the sender-name associated data.
    /// `None` on any tamper.
    pub fn open_from(
        &self,
        sender_public: &[u8; 32],
        sender_name: &str,
        nonce12: &[u8; 12],
        frame: &[u8],
    ) -> Option<Vec<u8>> {
        let key = self.session_key(sender_public);
        aead::open(&key, nonce12, sender_name.as_bytes(), frame)
    }
}

/// Tailnet failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailnetError {
    /// Enrolment token invalid.
    BadToken(JwtError),
    /// Enrolment token revoked per introspection.
    TokenRevoked,
    /// Token lacks the admin role.
    RoleMissing,
    /// Node not enrolled (or lease expired — re-enrol).
    NotEnrolled(String),
    /// ACL forbids this pair.
    AclDenied,
    /// Node disabled by kill switch.
    NodeDisabled(String),
    /// Another subject already holds this node name.
    NameTaken(String),
    /// Whole tailnet disabled by kill switch.
    TailnetDown,
    /// Frame failed authentication (tamper or wrong keys).
    DecryptFailed,
    /// Coordination server unreachable (fault-plane outage). Enrolment
    /// and sends fail closed; existing leases are untouched.
    Unavailable,
}

impl std::fmt::Display for TailnetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TailnetError::BadToken(e) => write!(f, "enrolment token rejected: {e}"),
            TailnetError::TokenRevoked => write!(f, "enrolment token revoked"),
            TailnetError::RoleMissing => write!(f, "token lacks admin role"),
            TailnetError::NotEnrolled(n) => write!(f, "node {n} not enrolled"),
            TailnetError::AclDenied => write!(f, "ACL denies this path"),
            TailnetError::NodeDisabled(n) => write!(f, "node {n} disabled"),
            TailnetError::NameTaken(n) => write!(f, "node name {n} is held by another subject"),
            TailnetError::TailnetDown => write!(f, "tailnet disabled by kill switch"),
            TailnetError::DecryptFailed => write!(f, "frame authentication failed"),
            TailnetError::Unavailable => write!(f, "coordination server unavailable"),
        }
    }
}

impl std::error::Error for TailnetError {}

dri_broker::gate_errors!(TailnetError, unreachable!("no ACR rule"));

#[derive(Clone)]
struct Enrollment {
    public: [u8; 32],
    subject: String,
    lease_expires_at: u64,
    cut: Cut,
}

/// Whether, and by which kill switch, a node is cut off.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Cut {
    Live,
    /// Swept with every node of its subject by a kill; the subject
    /// brings it back by enrolling it again with a live token.
    Swept,
    /// Disabled by an operator; only `enable_node` brings it back.
    Operator,
}

/// The tailnet coordination server.
pub struct Tailnet {
    /// Enrolment lease duration (seconds).
    pub lease_secs: u64,
    clock: SimClock,
    gate: TokenGate,
    nodes: RwLock<HashMap<String, Enrollment>>,
    acl: RwLock<Vec<(String, String)>>, // (from, to) node-name pairs; "*" wildcard
    down: AtomicBool,
    nonce_counter: AtomicU64,
    /// Fault-plane hook consulted on enrol/send (component `tailnet`).
    faults: dri_fault::FaultHook,
}

impl Tailnet {
    /// Create a tailnet admitting enrolment tokens through a gate over
    /// `jwks` and the broker's revocation check `introspect`. Outages of
    /// component `tailnet` on `faults` make enrolment and sends fail with
    /// [`TailnetError::Unavailable`].
    pub fn new(
        jwks: Jwks,
        introspect: IntrospectFn,
        lease_secs: u64,
        clock: SimClock,
        faults: dri_fault::FaultHook,
    ) -> Tailnet {
        Tailnet {
            lease_secs,
            clock,
            gate: TokenGate::new(jwks, introspect, "mgmt-tailnet", &["sysadmin"], None),
            nodes: RwLock::new(HashMap::new()),
            acl: RwLock::new(Vec::new()),
            down: AtomicBool::new(false),
            nonce_counter: AtomicU64::new(0),
            faults,
        }
    }

    /// Refresh the JWKS snapshot (key rotation).
    pub fn update_jwks(&self, jwks: Jwks) {
        self.gate.update_jwks(jwks);
    }

    /// Force-expire every *user* lease (infrastructure enrolments, whose
    /// leases never lapse, are untouched). Returns how many leases were
    /// invalidated. This is the lease-expiry-storm drill: every affected
    /// node must re-authenticate through the broker to re-enrol, while
    /// nothing established elsewhere (broker sessions, shells) is cut.
    pub fn expire_all_leases(&self) -> usize {
        let mut expired = 0;
        for e in self.nodes.write().values_mut() {
            if e.lease_expires_at != u64::MAX {
                e.lease_expires_at = 0;
                expired += 1;
            }
        }
        expired
    }

    /// Permit `from` to reach `to` (`"*"` is a wildcard).
    pub fn allow(&self, from: &str, to: &str) {
        self.acl.write().push((from.to_string(), to.to_string()));
    }

    /// Enrol a node with an admin RBAC token. Returns the lease expiry.
    pub fn enroll(&self, node: &TailnetNode, token: &str) -> Result<u64, TailnetError> {
        let _span = dri_trace::span_with(
            "tailnet.enroll",
            dri_trace::Stage::Tailnet,
            &[("node", &node.name)],
        );
        self.faults
            .check("tailnet")
            .map_err(|_| TailnetError::Unavailable)?;
        let now = self.clock.now_secs();
        let claims = self.gate.admit(token, now)?;
        let mut nodes = self.nodes.write();
        // Re-enrolment by the holder renews the lease; a name another
        // subject holds (an infrastructure node included) is refused.
        match nodes.get(&node.name) {
            Some(e) if e.subject != claims.subject => {
                return Err(TailnetError::NameTaken(node.name.clone()));
            }
            Some(e) if e.cut == Cut::Operator => {
                return Err(TailnetError::NodeDisabled(node.name.clone()));
            }
            _ => {}
        }
        let lease_expires_at = now + self.lease_secs;
        nodes.insert(
            node.name.clone(),
            Enrollment {
                public: node.public,
                subject: claims.subject.clone(),
                lease_expires_at,
                cut: Cut::Live,
            },
        );
        Ok(lease_expires_at)
    }

    /// Enrol an infrastructure node (management servers join with a
    /// provisioning credential out of band; modelled as direct trust).
    pub fn enroll_infrastructure(&self, node: &TailnetNode) {
        self.nodes.write().insert(
            node.name.clone(),
            Enrollment {
                public: node.public,
                subject: format!("infra:{}", node.name),
                lease_expires_at: u64::MAX,
                cut: Cut::Live,
            },
        );
    }

    fn check_path(&self, from: &str, to: &str) -> Result<([u8; 32], [u8; 32]), TailnetError> {
        if self.down.load(Ordering::Acquire) {
            return Err(TailnetError::TailnetDown);
        }
        let now = self.clock.now_secs();
        let nodes = self.nodes.read();
        let f = nodes
            .get(from)
            .ok_or_else(|| TailnetError::NotEnrolled(from.to_string()))?;
        let t = nodes
            .get(to)
            .ok_or_else(|| TailnetError::NotEnrolled(to.to_string()))?;
        if f.cut != Cut::Live {
            return Err(TailnetError::NodeDisabled(from.to_string()));
        }
        if t.cut != Cut::Live {
            return Err(TailnetError::NodeDisabled(to.to_string()));
        }
        if now >= f.lease_expires_at {
            return Err(TailnetError::NotEnrolled(from.to_string()));
        }
        if now >= t.lease_expires_at {
            return Err(TailnetError::NotEnrolled(to.to_string()));
        }
        let allowed = self
            .acl
            .read()
            .iter()
            .any(|(a, b)| (a == "*" || a == from) && (b == "*" || b == to));
        if !allowed {
            return Err(TailnetError::AclDenied);
        }
        Ok((f.public, t.public))
    }

    /// Send an encrypted message from `from_node` to the node named `to`.
    /// Returns `(wire_frame, nonce)` after policy checks; the caller
    /// delivers the frame to the peer, which opens it with
    /// [`TailnetNode::open_from`].
    pub fn send(
        &self,
        from_node: &TailnetNode,
        to: &str,
        plaintext: &[u8],
    ) -> Result<(Vec<u8>, [u8; 12]), TailnetError> {
        let _span = dri_trace::span_with(
            "tailnet.send",
            dri_trace::Stage::Tailnet,
            &[("from", &from_node.name), ("to", to)],
        );
        self.faults
            .check("tailnet")
            .map_err(|_| TailnetError::Unavailable)?;
        let (_from_pub, to_pub) = self.check_path(&from_node.name, to)?;
        let mut nonce = [0u8; 12];
        let counter = self.nonce_counter.fetch_add(1, Ordering::Relaxed) + 1;
        nonce[..8].copy_from_slice(&counter.to_le_bytes());
        Ok((from_node.seal(&to_pub, &nonce, plaintext), nonce))
    }

    /// The registered public key for a node (peers fetch this from the
    /// coordination server to decrypt).
    pub fn public_key_of(&self, name: &str) -> Option<[u8; 32]> {
        self.nodes.read().get(name).map(|e| e.public)
    }

    /// Kill switch: disable one node until [`Tailnet::enable_node`];
    /// its owner cannot enrol it again meanwhile.
    pub fn disable_node(&self, name: &str) -> bool {
        match self.nodes.write().get_mut(name) {
            Some(e) => {
                e.cut = Cut::Operator;
                true
            }
            None => false,
        }
    }

    /// Kill switch: disable every node `subject` enrolled, in one sweep.
    /// Returns how many were disabled. Only a fresh enrolment, which
    /// needs a live token, brings a node back.
    pub fn disable_subject(&self, subject: &str) -> usize {
        let mut disabled = 0;
        for e in self.nodes.write().values_mut() {
            if e.subject == subject && e.cut == Cut::Live {
                e.cut = Cut::Swept;
                disabled += 1;
            }
        }
        disabled
    }

    /// Re-enable a node.
    pub fn enable_node(&self, name: &str) {
        if let Some(e) = self.nodes.write().get_mut(name) {
            e.cut = Cut::Live;
        }
    }

    /// Kill switch: take the whole tailnet down.
    pub fn kill(&self) {
        self.down.store(true, Ordering::Release);
    }

    /// Restore the tailnet.
    pub fn restore(&self) {
        self.down.store(false, Ordering::Release);
    }

    /// Enrolled node count.
    pub fn node_count(&self) -> usize {
        self.nodes.read().len()
    }

    /// Which subject enrolled a node.
    pub fn node_subject(&self, name: &str) -> Option<String> {
        self.nodes.read().get(name).map(|e| e.subject.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dri_broker::authz::StaticAuthz;
    use dri_broker::broker::{IdentityBroker, IdentitySource, TokenPolicy};
    use dri_broker::managed_idp::ManagedLogin;
    use dri_federation::metadata::FederationRegistry;
    use std::sync::Arc;

    struct Fixture {
        tailnet: Tailnet,
        broker: Arc<IdentityBroker>,
        authz: Arc<StaticAuthz>,
        clock: SimClock,
        admin_session: String,
        faults: dri_fault::FaultHook,
    }

    fn fixture() -> Fixture {
        let clock = SimClock::starting_at(2_000_000_000);
        let authz = Arc::new(StaticAuthz::new());
        authz.grant("admin:dave", "mgmt-tailnet", &["sysadmin"]);
        let broker = Arc::new(IdentityBroker::new(
            "https://broker.isambard.ac.uk",
            [51u8; 32],
            3600,
            clock.clone(),
            Arc::new(FederationRegistry::new()),
            authz.clone(),
            dri_fault::FaultHook::default(),
        ));
        broker.register_service(TokenPolicy::admin("mgmt-tailnet", 600));
        let session = broker
            .login_managed(
                &ManagedLogin {
                    subject: "admin:dave".into(),
                    acr: "mfa-hw".into(),
                },
                IdentitySource::AdminIdp,
            )
            .unwrap();
        let faults = dri_fault::FaultHook::default();
        let tailnet = Tailnet::new(
            broker.jwks(),
            broker.introspector(),
            4 * 3600,
            clock.clone(),
            faults.clone(),
        );
        Fixture {
            tailnet,
            broker,
            authz,
            clock,
            admin_session: session.session_id,
            faults,
        }
    }

    fn admin_token(f: &Fixture) -> String {
        f.broker
            .issue_token(&f.admin_session, "mgmt-tailnet")
            .unwrap()
            .0
    }

    #[test]
    fn enrolment_requires_valid_admin_token() {
        let f = fixture();
        let mut rng = SimRng::seed_from_u64(1);
        let laptop = TailnetNode::generate("dave-laptop", &mut rng);
        assert!(matches!(
            f.tailnet.enroll(&laptop, "junk.token.here"),
            Err(TailnetError::BadToken(_))
        ));
        let lease = f.tailnet.enroll(&laptop, &admin_token(&f)).unwrap();
        assert!(lease > f.clock.now_secs());
        assert_eq!(
            f.tailnet.node_subject("dave-laptop").as_deref(),
            Some("admin:dave")
        );
    }

    #[test]
    fn end_to_end_encryption_and_tamper_detection() {
        let f = fixture();
        let mut rng = SimRng::seed_from_u64(2);
        let laptop = TailnetNode::generate("dave-laptop", &mut rng);
        let mgmt = TailnetNode::generate("mdc-mgmt01", &mut rng);
        f.tailnet.enroll(&laptop, &admin_token(&f)).unwrap();
        f.tailnet.enroll_infrastructure(&mgmt);
        f.tailnet.allow("dave-laptop", "mdc-mgmt01");

        let (frame, nonce) = f
            .tailnet
            .send(&laptop, "mdc-mgmt01", b"systemctl restart slurmctld")
            .unwrap();
        // Ciphertext is not the plaintext.
        assert!(!frame.windows(7).any(|w| w == b"restart"));
        // The peer opens it with the sender's registered public key.
        let sender_pub = f.tailnet.public_key_of("dave-laptop").unwrap();
        let opened = mgmt
            .open_from(&sender_pub, "dave-laptop", &nonce, &frame)
            .unwrap();
        assert_eq!(opened, b"systemctl restart slurmctld");
        // Tampering is detected.
        let mut bad = frame.clone();
        bad[0] ^= 1;
        assert!(mgmt
            .open_from(&sender_pub, "dave-laptop", &nonce, &bad)
            .is_none());
        // A different node cannot open it.
        let eve = TailnetNode::generate("eve", &mut rng);
        assert!(eve
            .open_from(&sender_pub, "dave-laptop", &nonce, &frame)
            .is_none());
        // Claiming a different sender name also fails (AAD binding).
        assert!(mgmt
            .open_from(&sender_pub, "impostor", &nonce, &frame)
            .is_none());
    }

    #[test]
    fn acl_default_denies() {
        let f = fixture();
        let mut rng = SimRng::seed_from_u64(3);
        let laptop = TailnetNode::generate("dave-laptop", &mut rng);
        let mgmt = TailnetNode::generate("mdc-mgmt01", &mut rng);
        f.tailnet.enroll(&laptop, &admin_token(&f)).unwrap();
        f.tailnet.enroll_infrastructure(&mgmt);
        assert_eq!(
            f.tailnet.send(&laptop, "mdc-mgmt01", b"hi"),
            Err(TailnetError::AclDenied)
        );
    }

    #[test]
    fn lease_expiry_forces_reenrolment() {
        let f = fixture();
        let mut rng = SimRng::seed_from_u64(4);
        let laptop = TailnetNode::generate("dave-laptop", &mut rng);
        let mgmt = TailnetNode::generate("mdc-mgmt01", &mut rng);
        f.tailnet.enroll(&laptop, &admin_token(&f)).unwrap();
        f.tailnet.enroll_infrastructure(&mgmt);
        f.tailnet.allow("*", "*");
        assert!(f.tailnet.send(&laptop, "mdc-mgmt01", b"x").is_ok());
        f.clock.advance_secs(4 * 3600 + 1);
        assert_eq!(
            f.tailnet.send(&laptop, "mdc-mgmt01", b"x"),
            Err(TailnetError::NotEnrolled("dave-laptop".into()))
        );
        // Session is also stale at the broker by now; a *fresh* login
        // would be needed in reality — here we show re-enrolment works
        // with a fresh token.
        let session = f
            .broker
            .login_managed(
                &ManagedLogin {
                    subject: "admin:dave".into(),
                    acr: "mfa-hw".into(),
                },
                IdentitySource::AdminIdp,
            )
            .unwrap();
        let (tok, _) = f
            .broker
            .issue_token(&session.session_id, "mgmt-tailnet")
            .unwrap();
        f.tailnet.enroll(&laptop, &tok).unwrap();
        assert!(f.tailnet.send(&laptop, "mdc-mgmt01", b"x").is_ok());
    }

    #[test]
    fn kill_switches() {
        let f = fixture();
        let mut rng = SimRng::seed_from_u64(5);
        let laptop = TailnetNode::generate("dave-laptop", &mut rng);
        let mgmt = TailnetNode::generate("mdc-mgmt01", &mut rng);
        f.tailnet.enroll(&laptop, &admin_token(&f)).unwrap();
        f.tailnet.enroll_infrastructure(&mgmt);
        f.tailnet.allow("*", "*");

        assert!(f.tailnet.disable_node("dave-laptop"));
        assert_eq!(
            f.tailnet.send(&laptop, "mdc-mgmt01", b"x"),
            Err(TailnetError::NodeDisabled("dave-laptop".into()))
        );
        f.tailnet.enable_node("dave-laptop");
        assert!(f.tailnet.send(&laptop, "mdc-mgmt01", b"x").is_ok());

        f.tailnet.kill();
        assert_eq!(
            f.tailnet.send(&laptop, "mdc-mgmt01", b"x"),
            Err(TailnetError::TailnetDown)
        );
        f.tailnet.restore();
        assert!(f.tailnet.send(&laptop, "mdc-mgmt01", b"x").is_ok());
    }

    #[test]
    fn lease_expiry_storm_spares_infrastructure_and_allows_reenrolment() {
        let f = fixture();
        let mut rng = SimRng::seed_from_u64(7);
        let laptop = TailnetNode::generate("dave-laptop", &mut rng);
        let mgmt = TailnetNode::generate("mdc-mgmt01", &mut rng);
        f.tailnet.enroll(&laptop, &admin_token(&f)).unwrap();
        f.tailnet.enroll_infrastructure(&mgmt);
        f.tailnet.allow("*", "*");
        assert!(f.tailnet.send(&laptop, "mdc-mgmt01", b"x").is_ok());

        // The storm invalidates the user lease but not the infra one.
        assert_eq!(f.tailnet.expire_all_leases(), 1);
        assert_eq!(
            f.tailnet.send(&laptop, "mdc-mgmt01", b"x"),
            Err(TailnetError::NotEnrolled("dave-laptop".into()))
        );
        // Re-auth through the broker restores the path.
        f.tailnet.enroll(&laptop, &admin_token(&f)).unwrap();
        assert!(f.tailnet.send(&laptop, "mdc-mgmt01", b"x").is_ok());
        // Repeat storms are idempotent over infra nodes.
        assert_eq!(f.tailnet.expire_all_leases(), 1);
    }

    #[test]
    fn fault_plane_outage_fails_enrol_and_send_closed() {
        let f = fixture();
        let mut rng = SimRng::seed_from_u64(8);
        let laptop = TailnetNode::generate("dave-laptop", &mut rng);
        let mgmt = TailnetNode::generate("mdc-mgmt01", &mut rng);
        f.tailnet.enroll(&laptop, &admin_token(&f)).unwrap();
        f.tailnet.enroll_infrastructure(&mgmt);
        f.tailnet.allow("*", "*");

        let plan = dri_fault::FaultPlan::new(5).outage("tailnet", 0, u64::MAX);
        let plane = std::sync::Arc::new(dri_fault::FaultPlane::new(plan, f.clock.clone()));
        f.faults.install(plane.clone());
        assert_eq!(
            f.tailnet.send(&laptop, "mdc-mgmt01", b"x"),
            Err(TailnetError::Unavailable)
        );
        assert_eq!(
            f.tailnet.enroll(&laptop, &admin_token(&f)),
            Err(TailnetError::Unavailable)
        );
        // Leases were never touched: recovery is instant on disarm.
        plane.set_enabled(false);
        assert!(f.tailnet.send(&laptop, "mdc-mgmt01", b"x").is_ok());
    }

    #[test]
    fn token_without_sysadmin_role_cannot_enroll() {
        let f = fixture();
        f.authz.grant("admin:dave", "mgmt-tailnet", &["auditor"]);
        let mut rng = SimRng::seed_from_u64(9);
        let laptop = TailnetNode::generate("dave-laptop", &mut rng);
        let err = f.tailnet.enroll(&laptop, &admin_token(&f)).unwrap_err();
        assert_eq!(err, TailnetError::RoleMissing);
        assert_eq!(err.to_string(), "token lacks admin role");
        assert_eq!(f.tailnet.node_count(), 0);
    }

    #[test]
    fn non_admin_token_cannot_enroll() {
        let f = fixture();
        // Issue a researcher token for a different audience and try it.
        let mut rng = SimRng::seed_from_u64(6);
        let laptop = TailnetNode::generate("mallory-laptop", &mut rng);
        assert!(matches!(
            f.tailnet.enroll(&laptop, "not-even-a-token"),
            Err(TailnetError::BadToken(_))
        ));
    }
}
