//! The locked-down, high-availability SSH bastion set in SWS.
//!
//! §III-B of the paper: a redundant VM set whose only function is to relay
//! SSH from the internet to MDC login nodes. Properties modelled:
//!
//! * **HA + rolling updates** — N instances behind a load balancer; an
//!   instance can be drained for patching without dropping the service;
//! * **certificate-checked relay** — the bastion validates the user's SSH
//!   certificate (CA key, validity, principal) before forwarding;
//! * **externally managed kill switch** — per-user blocks and a global
//!   shutdown that sever live sessions immediately.

use std::collections::{HashMap, HashSet};

use dri_clock::{IdGen, SimClock};
use dri_crypto::ed25519::{PreparedVerifyingKey, VerifyingKey};
use dri_sshca::cert::{CertError, SshCertificate};
use dri_sync::Snapshot;
use parking_lot::RwLock;

use crate::topology::{NetError, Network};

/// Bastion failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BastionError {
    /// All instances are drained or the global kill switch is on.
    Unavailable,
    /// The network fabric refused one of the hops.
    Network(NetError),
    /// Certificate validation failed.
    Cert(CertError),
    /// This user (key id) is blocked by the kill switch.
    UserBlocked,
    /// No such session.
    UnknownSession,
    /// No such load-balanced instance (drain/restore out of range).
    UnknownInstance(usize),
}

impl std::fmt::Display for BastionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BastionError::Unavailable => write!(f, "bastion service unavailable"),
            BastionError::Network(e) => write!(f, "network refused: {e}"),
            BastionError::Cert(e) => write!(f, "certificate rejected: {e}"),
            BastionError::UserBlocked => write!(f, "user blocked by kill switch"),
            BastionError::UnknownSession => write!(f, "unknown session"),
            BastionError::UnknownInstance(i) => write!(f, "no bastion instance {i}"),
        }
    }
}

impl std::error::Error for BastionError {}

/// A live relayed SSH session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelaySession {
    /// Session id.
    pub id: String,
    /// Subject (certificate key id).
    pub key_id: String,
    /// UNIX account in use.
    pub principal: String,
    /// Login node connected to.
    pub target: String,
    /// Which bastion instance carries the session.
    pub instance: usize,
    /// Establishment time (ms).
    pub established_at_ms: u64,
}

struct BastionState {
    /// Healthy = accepting new sessions.
    instance_healthy: Vec<bool>,
    sessions: HashMap<String, RelaySession>,
    blocked_users: HashSet<String>,
    global_kill: bool,
    next_instance: usize,
}

/// The HA bastion service.
pub struct Bastion {
    /// The fabric host id of the bastion service.
    pub host_id: String,
    clock: SimClock,
    /// The trusted user-CA key, prepared once at trust time.
    ca_key: Snapshot<PreparedVerifyingKey>,
    state: RwLock<BastionState>,
    ids: IdGen,
    faults: dri_fault::FaultHook,
}

impl Bastion {
    /// Create a bastion with `instances` load-balanced VMs trusting the
    /// given user-CA key. Outages of component `bastion` on `faults` make
    /// [`relay`](Bastion::relay) fail with [`BastionError::Unavailable`],
    /// exactly as if every instance were drained.
    pub fn new(
        host_id: impl Into<String>,
        instances: usize,
        ca_key: VerifyingKey,
        clock: SimClock,
        faults: dri_fault::FaultHook,
    ) -> Bastion {
        assert!(instances > 0);
        Bastion {
            host_id: host_id.into(),
            clock,
            ca_key: Snapshot::new(PreparedVerifyingKey::new(&ca_key)),
            state: RwLock::new(BastionState {
                instance_healthy: vec![true; instances],
                sessions: HashMap::new(),
                blocked_users: HashSet::new(),
                global_kill: false,
                next_instance: 0,
            }),
            ids: IdGen::new("relay"),
            faults,
        }
    }

    /// Update the trusted CA key (CA rotation).
    pub fn trust_ca(&self, key: VerifyingKey) {
        self.ca_key.store(PreparedVerifyingKey::new(&key));
    }

    /// Relay an SSH connection from `src` to `target` as `principal`,
    /// presenting `cert`. Both network hops and the certificate are
    /// enforced.
    pub fn relay(
        &self,
        network: &Network,
        src: &str,
        target: &str,
        cert: &SshCertificate,
        principal: &str,
    ) -> Result<RelaySession, BastionError> {
        let _span = dri_trace::span_with(
            "bastion.relay",
            dri_trace::Stage::Bastion,
            &[("src", src), ("target", target), ("principal", principal)],
        );
        self.faults
            .check("bastion")
            .map_err(|_| BastionError::Unavailable)?;
        {
            let state = self.state.read();
            if state.global_kill {
                return Err(BastionError::Unavailable);
            }
            if state.blocked_users.contains(&cert.key_id) {
                return Err(BastionError::UserBlocked);
            }
            if !state.instance_healthy.contains(&true) {
                return Err(BastionError::Unavailable);
            }
        }

        // Hop 1: src -> bastion over ssh.
        network
            .connect(src, &self.host_id, "ssh")
            .map_err(BastionError::Network)?;
        // Certificate gate.
        cert.verify_prepared(&self.ca_key.load(), self.clock.now_secs(), Some(principal))
            .map_err(BastionError::Cert)?;
        // Hop 2: bastion -> login node over ssh.
        network
            .connect(&self.host_id, target, "ssh")
            .map_err(BastionError::Network)?;

        // Pick an instance (round-robin over healthy ones). Only a session
        // that is established takes a turn, so a refused relay shifts no
        // later session.
        let mut state = self.state.write();
        let healthy: Vec<usize> = state
            .instance_healthy
            .iter()
            .enumerate()
            .filter(|(_, h)| **h)
            .map(|(i, _)| i)
            .collect();
        if healthy.is_empty() {
            // Every instance was drained while the hops were checked.
            return Err(BastionError::Unavailable);
        }
        let instance = healthy[state.next_instance % healthy.len()];
        state.next_instance = state.next_instance.wrapping_add(1);
        let session = RelaySession {
            id: self.ids.next(),
            key_id: cert.key_id.clone(),
            principal: principal.to_string(),
            target: target.to_string(),
            instance,
            established_at_ms: self.clock.now_ms(),
        };
        state.sessions.insert(session.id.clone(), session.clone());
        Ok(session)
    }

    /// Is a session still alive?
    pub fn session_alive(&self, session_id: &str) -> bool {
        let state = self.state.read();
        if state.global_kill {
            return false;
        }
        match state.sessions.get(session_id) {
            Some(s) => !state.blocked_users.contains(&s.key_id),
            None => false,
        }
    }

    /// Kill switch: block one user, severing their live sessions.
    /// Returns how many sessions were cut.
    pub fn block_user(&self, key_id: &str) -> usize {
        let mut state = self.state.write();
        state.blocked_users.insert(key_id.to_string());
        let before = state.sessions.len();
        state.sessions.retain(|_, s| s.key_id != key_id);
        before - state.sessions.len()
    }

    /// Lift a user block.
    pub fn unblock_user(&self, key_id: &str) {
        self.state.write().blocked_users.remove(key_id);
    }

    /// Kill switch: shut the whole bastion down. Severs every session.
    pub fn global_kill(&self) -> usize {
        let mut state = self.state.write();
        state.global_kill = true;
        let n = state.sessions.len();
        state.sessions.clear();
        n
    }

    /// Restore service after a global kill.
    pub fn global_restore(&self) {
        self.state.write().global_kill = false;
    }

    /// Drain an instance for patching (stops new sessions landing on
    /// it). Fails on an out-of-range index rather than silently doing
    /// nothing — an ops runbook targeting a phantom instance is a bug.
    pub fn drain_instance(&self, idx: usize) -> Result<(), BastionError> {
        match self.state.write().instance_healthy.get_mut(idx) {
            Some(h) => {
                *h = false;
                Ok(())
            }
            None => Err(BastionError::UnknownInstance(idx)),
        }
    }

    /// Return a drained instance to service. Fails on an out-of-range
    /// index, like [`drain_instance`](Bastion::drain_instance).
    pub fn restore_instance(&self, idx: usize) -> Result<(), BastionError> {
        match self.state.write().instance_healthy.get_mut(idx) {
            Some(h) => {
                *h = true;
                Ok(())
            }
            None => Err(BastionError::UnknownInstance(idx)),
        }
    }

    /// Live session count.
    pub fn session_count(&self) -> usize {
        self.state.read().sessions.len()
    }

    /// Number of healthy instances.
    pub fn healthy_instances(&self) -> usize {
        self.state
            .read()
            .instance_healthy
            .iter()
            .filter(|h| **h)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Domain, Selector, Zone};
    use dri_crypto::ed25519::SigningKey;

    struct Fixture {
        net: Network,
        bastion: Bastion,
        ca: SigningKey,
        clock: SimClock,
    }

    fn fixture() -> Fixture {
        let clock = SimClock::starting_at(1_000_000);
        let net = Network::new(clock.clone());
        net.add_host("internet/laptop", Domain::Internet, Zone::Public, &[]);
        net.add_host("sws/bastion", Domain::Sws, Zone::Access, &["ssh"]);
        net.add_host("mdc/login01", Domain::Mdc, Zone::Hpc, &["ssh"]);
        net.allow(
            "inet->bastion",
            Selector::InDomain(Domain::Internet),
            Selector::Host("sws/bastion".into()),
            "ssh",
        );
        net.allow(
            "bastion->hpc",
            Selector::Host("sws/bastion".into()),
            Selector::DomainZone(Domain::Mdc, Zone::Hpc),
            "ssh",
        );
        let ca = SigningKey::from_seed(&[3u8; 32]);
        let bastion = Bastion::new(
            "sws/bastion",
            3,
            ca.verifying_key(),
            clock.clone(),
            dri_fault::FaultHook::default(),
        );
        Fixture {
            net,
            bastion,
            ca,
            clock,
        }
    }

    fn cert(f: &Fixture, key_id: &str, principal: &str) -> SshCertificate {
        let now = f.clock.now_secs();
        SshCertificate {
            public_key: [9u8; 32],
            serial: 1,
            key_id: key_id.into(),
            principals: vec![principal.into()],
            valid_after: now,
            valid_before: now + 3600,
            critical_options: vec![],
            extensions: vec![],
            signature: [0u8; 64],
        }
        .signed(&f.ca)
    }

    #[test]
    fn relay_happy_path() {
        let f = fixture();
        let c = cert(&f, "maid-1", "u123");
        let session = f
            .bastion
            .relay(&f.net, "internet/laptop", "mdc/login01", &c, "u123")
            .unwrap();
        assert!(f.bastion.session_alive(&session.id));
        assert_eq!(session.principal, "u123");
        assert_eq!(f.bastion.session_count(), 1);
    }

    #[test]
    fn relay_rejects_bad_principal_and_expired_cert() {
        let f = fixture();
        let c = cert(&f, "maid-1", "u123");
        assert_eq!(
            f.bastion
                .relay(&f.net, "internet/laptop", "mdc/login01", &c, "root"),
            Err(BastionError::Cert(CertError::PrincipalNotAllowed))
        );
        f.clock.advance_secs(3601);
        assert_eq!(
            f.bastion
                .relay(&f.net, "internet/laptop", "mdc/login01", &c, "u123"),
            Err(BastionError::Cert(CertError::Expired))
        );
    }

    #[test]
    fn refused_relays_take_no_round_robin_turn() {
        let f = fixture();
        let ok = cert(&f, "maid-1", "u123");
        let blocked = cert(&f, "maid-2", "u456");
        let relay = |c: &SshCertificate, principal: &str| {
            f.bastion
                .relay(&f.net, "internet/laptop", "mdc/login01", c, principal)
        };
        assert_eq!(relay(&ok, "u123").unwrap().instance, 0);
        f.bastion.block_user("maid-2");
        assert_eq!(relay(&blocked, "u456"), Err(BastionError::UserBlocked));
        assert_eq!(
            relay(&ok, "root"),
            Err(BastionError::Cert(CertError::PrincipalNotAllowed))
        );
        // The next session lands where it would have without the refusals.
        assert_eq!(relay(&ok, "u123").unwrap().instance, 1);
        assert_eq!(relay(&ok, "u123").unwrap().instance, 2);
    }

    #[test]
    fn relay_respects_fabric_policy() {
        let f = fixture();
        let c = cert(&f, "maid-1", "u123");
        // A target in a zone the bastion has no rule for.
        f.net
            .add_host("mdc/mgmt01", Domain::Mdc, Zone::Management, &["ssh"]);
        assert_eq!(
            f.bastion
                .relay(&f.net, "internet/laptop", "mdc/mgmt01", &c, "u123"),
            Err(BastionError::Network(NetError::Denied))
        );
    }

    #[test]
    fn per_user_kill_switch_severs_sessions() {
        let f = fixture();
        let c1 = cert(&f, "maid-1", "u123");
        let c2 = cert(&f, "maid-2", "u456");
        // Give maid-2's cert the right principal.
        let s1 = f
            .bastion
            .relay(&f.net, "internet/laptop", "mdc/login01", &c1, "u123")
            .unwrap();
        let s2 = f
            .bastion
            .relay(&f.net, "internet/laptop", "mdc/login01", &c2, "u456")
            .unwrap();
        let cut = f.bastion.block_user("maid-1");
        assert_eq!(cut, 1);
        assert!(!f.bastion.session_alive(&s1.id));
        assert!(f.bastion.session_alive(&s2.id));
        // Blocked user can't reconnect.
        assert_eq!(
            f.bastion
                .relay(&f.net, "internet/laptop", "mdc/login01", &c1, "u123"),
            Err(BastionError::UserBlocked)
        );
        f.bastion.unblock_user("maid-1");
        assert!(f
            .bastion
            .relay(&f.net, "internet/laptop", "mdc/login01", &c1, "u123")
            .is_ok());
    }

    #[test]
    fn global_kill_switch() {
        let f = fixture();
        let c = cert(&f, "maid-1", "u123");
        let s = f
            .bastion
            .relay(&f.net, "internet/laptop", "mdc/login01", &c, "u123")
            .unwrap();
        let cut = f.bastion.global_kill();
        assert_eq!(cut, 1);
        assert!(!f.bastion.session_alive(&s.id));
        assert_eq!(
            f.bastion
                .relay(&f.net, "internet/laptop", "mdc/login01", &c, "u123"),
            Err(BastionError::Unavailable)
        );
        f.bastion.global_restore();
        assert!(f
            .bastion
            .relay(&f.net, "internet/laptop", "mdc/login01", &c, "u123")
            .is_ok());
    }

    #[test]
    fn rolling_patching_keeps_service_up() {
        let f = fixture();
        let c = cert(&f, "maid-1", "u123");
        assert_eq!(f.bastion.healthy_instances(), 3);
        // Drain instances one at a time; service stays available.
        for i in 0..3 {
            f.bastion.drain_instance(i).unwrap();
            assert!(
                f.bastion
                    .relay(&f.net, "internet/laptop", "mdc/login01", &c, "u123")
                    .is_ok(),
                "available while instance {i} is patched"
            );
            f.bastion.restore_instance(i).unwrap();
        }
        // Draining everything takes the service down.
        for i in 0..3 {
            f.bastion.drain_instance(i).unwrap();
        }
        assert_eq!(
            f.bastion
                .relay(&f.net, "internet/laptop", "mdc/login01", &c, "u123"),
            Err(BastionError::Unavailable)
        );
    }

    #[test]
    fn wrong_ca_cert_rejected() {
        let f = fixture();
        let rogue = SigningKey::from_seed(&[99u8; 32]);
        let now = f.clock.now_secs();
        let c = SshCertificate {
            public_key: [9u8; 32],
            serial: 1,
            key_id: "attacker".into(),
            principals: vec!["u123".into()],
            valid_after: now,
            valid_before: now + 3600,
            critical_options: vec![],
            extensions: vec![],
            signature: [0u8; 64],
        }
        .signed(&rogue);
        assert_eq!(
            f.bastion
                .relay(&f.net, "internet/laptop", "mdc/login01", &c, "u123"),
            Err(BastionError::Cert(CertError::BadSignature))
        );
    }
}
