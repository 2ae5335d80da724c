//! The online SSH certificate authority (runs in FDS).
//!
//! Signing path, per user story 4: the client presents a broker-issued
//! token with audience `ssh-ca`; the CA admits it through its
//! [`TokenGate`] (audience `ssh-ca`, any of the roles `pi` and
//! `researcher`, no ACR rule), asks the authorisation source for the
//! subject's per-project UNIX accounts, and signs a certificate whose
//! principals are exactly those accounts. No accounts → no certificate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dri_broker::authz::AuthorizationSource;
use dri_broker::broker::{IntrospectFn, Jwks};
use dri_broker::gate::TokenGate;
use dri_clock::SimClock;
use dri_crypto::ed25519::{SigningKey, VerifyingKey};
use dri_crypto::jwt::JwtError;
use parking_lot::RwLock;

use crate::cert::SshCertificate;

/// CA failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaError {
    /// The presented token failed validation.
    BadToken(JwtError),
    /// Token lacks an acceptable role.
    RoleMissing,
    /// The subject has no project UNIX accounts to certify.
    NoPrincipals,
    /// Broker introspection says the token was revoked.
    TokenRevoked,
    /// The CA itself is unreachable (injected outage or flaky window).
    /// Already-issued certificates stay valid until their TTL — only
    /// *new* issuance fails closed.
    Unavailable,
}

impl std::fmt::Display for CaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaError::BadToken(e) => write!(f, "token rejected: {e}"),
            CaError::RoleMissing => write!(f, "token carries no usable role"),
            CaError::NoPrincipals => write!(f, "no project accounts to certify"),
            CaError::TokenRevoked => write!(f, "token revoked"),
            CaError::Unavailable => write!(f, "SSH CA unavailable"),
        }
    }
}

impl std::error::Error for CaError {}

dri_broker::gate_errors!(CaError, unreachable!("no ACR rule"));

/// Result of a successful signing request.
#[derive(Debug, Clone)]
pub struct SignedCertificate {
    /// The certificate.
    pub certificate: SshCertificate,
    /// Projects covered, as `(project_name, unix_account)` — the client
    /// uses these to build SSH aliases.
    pub projects: Vec<(String, String)>,
}

/// The SSH certificate authority.
pub struct SshCa {
    ca_key: RwLock<SigningKey>,
    clock: SimClock,
    gate: TokenGate,
    authz: Arc<dyn AuthorizationSource>,
    /// Certificate lifetime in seconds (short-lived by design; fixed at
    /// construction from the deployment config).
    pub cert_ttl_secs: u64,
    serial: AtomicU64,
    faults: dri_fault::FaultHook,
}

impl SshCa {
    /// Create a CA. `introspect` is the broker's revocation check, so a
    /// revoked token cannot get a certificate signed. Outages of component
    /// `sshca` on `faults` make [`sign_request`](SshCa::sign_request) fail
    /// closed with [`CaError::Unavailable`] while leaving issued
    /// certificates valid until TTL (validation is offline against the CA
    /// public key).
    pub fn new(
        seed: [u8; 32],
        cert_ttl_secs: u64,
        clock: SimClock,
        jwks: Jwks,
        introspect: IntrospectFn,
        authz: Arc<dyn AuthorizationSource>,
        faults: dri_fault::FaultHook,
    ) -> SshCa {
        SshCa {
            ca_key: RwLock::new(SigningKey::from_seed(&seed)),
            clock,
            gate: TokenGate::new(jwks, introspect, "ssh-ca", &["pi", "researcher"], None),
            authz,
            cert_ttl_secs,
            serial: AtomicU64::new(0),
            faults,
        }
    }

    /// The CA public key — distributed to every login node / bastion as
    /// the trusted user-CA key.
    pub fn public_key(&self) -> VerifyingKey {
        self.ca_key.read().verifying_key()
    }

    /// Refresh the JWKS snapshot (broker key rotation).
    pub fn update_jwks(&self, jwks: Jwks) {
        self.gate.update_jwks(jwks);
    }

    /// Rotate the CA key (old certificates become invalid everywhere the
    /// new key is distributed — a coarse kill switch).
    pub fn rotate_key(&self, seed: [u8; 32]) {
        *self.ca_key.write() = SigningKey::from_seed(&seed);
    }

    /// Sign a user's SSH public key after validating their `ssh-ca` token.
    pub fn sign_request(
        &self,
        token: &str,
        user_public_key: [u8; 32],
    ) -> Result<SignedCertificate, CaError> {
        let _span = dri_trace::span("sshca.sign_request", dri_trace::Stage::SshCa);
        self.faults
            .check("sshca")
            .map_err(|_| CaError::Unavailable)?;
        let now = self.clock.now_secs();
        let claims = self.gate.admit(token, now)?;
        let projects = self.authz.unix_accounts(&claims.subject);
        if projects.is_empty() {
            return Err(CaError::NoPrincipals);
        }
        let principals: Vec<String> = projects
            .iter()
            .map(|(_, account)| account.clone())
            .collect();
        let certificate = SshCertificate {
            public_key: user_public_key,
            serial: self.serial.fetch_add(1, Ordering::Relaxed) + 1,
            key_id: claims.subject.clone(),
            principals,
            valid_after: now,
            valid_before: now + self.cert_ttl_secs,
            critical_options: vec![],
            extensions: vec!["permit-pty".into(), "permit-agent-forwarding".into()],
            signature: [0u8; 64],
        }
        .signed(&self.ca_key.read());
        Ok(SignedCertificate {
            certificate,
            projects,
        })
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
        ca: SshCa,
        broker: Arc<IdentityBroker>,
        clock: SimClock,
        authz: Arc<StaticAuthz>,
        session_id: String,
    }

    fn fixture() -> Fixture {
        let clock = SimClock::starting_at(7_000_000_000);
        let authz = Arc::new(StaticAuthz::new());
        authz.grant("last-resort:alice", "ssh-ca", &["researcher"]);
        authz.add_unix_account("last-resort:alice", "climate-llm", "u1a2b3c4");
        let broker = Arc::new(IdentityBroker::new(
            "https://broker.isambard.ac.uk",
            [31u8; 32],
            3600,
            clock.clone(),
            Arc::new(FederationRegistry::new()),
            authz.clone(),
            dri_fault::FaultHook::default(),
        ));
        broker.register_service(TokenPolicy::standard("ssh-ca", 900));
        let session = broker
            .login_managed(
                &ManagedLogin {
                    subject: "last-resort:alice".into(),
                    acr: "mfa-totp".into(),
                },
                IdentitySource::LastResort,
            )
            .unwrap();
        let ca = SshCa::new(
            [32u8; 32],
            8 * 3600,
            clock.clone(),
            broker.jwks(),
            broker.introspector(),
            authz.clone(),
            dri_fault::FaultHook::default(),
        );
        Fixture {
            ca,
            broker,
            clock,
            authz,
            session_id: session.session_id,
        }
    }

    fn token(f: &Fixture) -> String {
        f.broker.issue_token(&f.session_id, "ssh-ca").unwrap().0
    }

    #[test]
    fn signs_certificate_with_project_principals() {
        let f = fixture();
        let signed = f.ca.sign_request(&token(&f), [5u8; 32]).unwrap();
        let cert = &signed.certificate;
        assert_eq!(cert.key_id, "last-resort:alice");
        assert_eq!(cert.principals, vec!["u1a2b3c4"]);
        assert_eq!(cert.remaining_secs(f.clock.now_secs()), 8 * 3600);
        assert_eq!(
            cert.verify(&f.ca.public_key(), f.clock.now_secs(), Some("u1a2b3c4")),
            Ok(())
        );
        assert_eq!(
            signed.projects,
            vec![("climate-llm".into(), "u1a2b3c4".into())]
        );
    }

    #[test]
    fn rejects_garbage_and_wrong_audience_tokens() {
        let f = fixture();
        assert!(matches!(
            f.ca.sign_request("garbage.token.here", [0u8; 32]),
            Err(CaError::BadToken(_))
        ));
        // Mint a token for a different audience.
        f.broker
            .register_service(TokenPolicy::standard("jupyter", 900));
        f.authz
            .grant("last-resort:alice", "jupyter", &["researcher"]);
        let (jupyter_token, _) = f.broker.issue_token(&f.session_id, "jupyter").unwrap();
        assert!(matches!(
            f.ca.sign_request(&jupyter_token, [0u8; 32]),
            Err(CaError::BadToken(JwtError::WrongAudience))
        ));
    }

    #[test]
    fn rejects_revoked_token_via_introspection() {
        let f = fixture();
        let (tok, claims) = f.broker.issue_token(&f.session_id, "ssh-ca").unwrap();
        f.broker.revoke_token(&claims.token_id);
        assert!(matches!(
            f.ca.sign_request(&tok, [0u8; 32]),
            Err(CaError::TokenRevoked)
        ));
    }

    #[test]
    fn token_without_a_research_role_rejected() {
        let f = fixture();
        f.authz.grant("last-resort:alice", "ssh-ca", &["sysadmin"]);
        let err = f.ca.sign_request(&token(&f), [0u8; 32]).unwrap_err();
        assert_eq!(err, CaError::RoleMissing);
        assert_eq!(err.to_string(), "token carries no usable role");
    }

    #[test]
    fn no_projects_no_certificate() {
        let f = fixture();
        // A subject with the role but no unix accounts.
        f.authz.grant("last-resort:bob", "ssh-ca", &["researcher"]);
        let session = f
            .broker
            .login_managed(
                &ManagedLogin {
                    subject: "last-resort:bob".into(),
                    acr: "mfa-totp".into(),
                },
                IdentitySource::LastResort,
            )
            .unwrap();
        let (tok, _) = f.broker.issue_token(&session.session_id, "ssh-ca").unwrap();
        assert!(matches!(
            f.ca.sign_request(&tok, [0u8; 32]),
            Err(CaError::NoPrincipals)
        ));
    }

    #[test]
    fn expired_token_rejected() {
        let f = fixture();
        let tok = token(&f);
        f.clock.advance_secs(901);
        assert!(matches!(
            f.ca.sign_request(&tok, [0u8; 32]),
            Err(CaError::BadToken(JwtError::Expired))
        ));
    }

    #[test]
    fn ca_key_rotation_invalidates_old_certs() {
        let f = fixture();
        let signed = f.ca.sign_request(&token(&f), [5u8; 32]).unwrap();
        let old_pub = f.ca.public_key();
        f.ca.rotate_key([77u8; 32]);
        let new_pub = f.ca.public_key();
        let now = f.clock.now_secs();
        // Against the new CA key the old cert fails; against the old key
        // it still passes (hosts must be re-provisioned, as in reality).
        assert!(signed.certificate.verify(&new_pub, now, None).is_err());
        assert!(signed.certificate.verify(&old_pub, now, None).is_ok());
    }

    #[test]
    fn serials_increase() {
        let f = fixture();
        let c1 = f.ca.sign_request(&token(&f), [5u8; 32]).unwrap();
        let c2 = f.ca.sign_request(&token(&f), [5u8; 32]).unwrap();
        assert!(c2.certificate.serial > c1.certificate.serial);
    }
}
