//! Institutional Identity Providers.
//!
//! Each IdP owns a user directory (credentials + attributes), signs
//! assertions for successful logins, and models the lifecycle events the
//! paper's user stories depend on: *"Authentication will fail if a user is
//! no longer affiliated with the organisational IdP"* (user story 3).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use dri_clock::SimClock;
use dri_crypto::ed25519::{SigningKey, VerifyingKey};
use dri_crypto::hmac::hmac_sha256;
use dri_crypto::sha2::sha256;
use parking_lot::RwLock;

use crate::assertion::Assertion;
use crate::types::{AttributeBundle, LevelOfAssurance};

/// How long an IdP assertion stays valid (seconds).
const ASSERTION_TTL_SECS: u64 = 300;

/// A user record inside an IdP directory.
#[derive(Debug, Clone)]
pub struct UserRecord {
    /// Local username (the part before the scope).
    pub username: String,
    /// Released attribute bundle.
    pub attributes: AttributeBundle,
    /// Salted password hash.
    password_hash: [u8; 32],
    salt: [u8; 8],
    /// TOTP secret, if MFA is enrolled at the IdP.
    totp_secret: Option<Vec<u8>>,
    /// Active affiliation? Deprovisioned users cannot authenticate.
    pub active: bool,
}

/// Authentication failures at an IdP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthnError {
    /// No such user.
    UnknownUser,
    /// Wrong password.
    BadPassword,
    /// TOTP required but missing or wrong.
    BadSecondFactor,
    /// The user is deprovisioned (left the organisation).
    Deprovisioned,
    /// The IdP itself is unreachable (injected outage or flaky window).
    /// Transient: retry, or fail over to the IdP of last resort.
    IdpUnavailable,
}

impl std::fmt::Display for AuthnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AuthnError::UnknownUser => "unknown user",
            AuthnError::BadPassword => "bad password",
            AuthnError::BadSecondFactor => "bad second factor",
            AuthnError::Deprovisioned => "user deprovisioned",
            AuthnError::IdpUnavailable => "identity provider unavailable",
        };
        f.write_str(s)
    }
}

impl std::error::Error for AuthnError {}

/// A simulated institutional IdP.
pub struct IdentityProvider {
    /// Entity id (matches the federation metadata entry).
    pub entity_id: String,
    /// Identity scope appended to usernames (e.g. `bristol.ac.uk`).
    pub scope: String,
    /// The strongest assurance this IdP can assert.
    pub max_loa: LevelOfAssurance,
    signing_key: SigningKey,
    clock: SimClock,
    users: RwLock<HashMap<String, UserRecord>>,
    assertion_counter: AtomicU64,
    faults: dri_fault::FaultHook,
}

impl IdentityProvider {
    /// Create an IdP with a deterministic signing key derived from `seed`.
    /// Outages of component `idp:{entity_id}` (or the bare `idp`
    /// category) on `faults` make
    /// [`authenticate`](IdentityProvider::authenticate) fail with
    /// [`AuthnError::IdpUnavailable`].
    pub fn new(
        entity_id: impl Into<String>,
        scope: impl Into<String>,
        max_loa: LevelOfAssurance,
        seed: [u8; 32],
        clock: SimClock,
        faults: dri_fault::FaultHook,
    ) -> IdentityProvider {
        IdentityProvider {
            entity_id: entity_id.into(),
            scope: scope.into(),
            max_loa,
            signing_key: SigningKey::from_seed(&seed),
            clock,
            users: RwLock::new(HashMap::new()),
            assertion_counter: AtomicU64::new(0),
            faults,
        }
    }

    /// The public key that belongs in federation metadata.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.signing_key.verifying_key()
    }

    /// Provision a user. The salt is derived deterministically from the
    /// username for reproducibility.
    pub fn provision_user(
        &self,
        username: &str,
        password: &str,
        display_name: &str,
        affiliation: &str,
        totp_secret: Option<Vec<u8>>,
    ) {
        let mut salt = [0u8; 8];
        salt.copy_from_slice(&sha256(username.as_bytes())[..8]);
        let eppn = format!("{}@{}", username, self.scope);
        let record = UserRecord {
            username: username.to_string(),
            attributes: AttributeBundle {
                eppn: eppn.clone(),
                display_name: display_name.to_string(),
                email: eppn,
                affiliation: format!("{}@{}", affiliation, self.scope),
                organisation: self.scope.clone(),
            },
            password_hash: hash_password(&salt, password),
            salt,
            totp_secret,
            active: true,
        };
        self.users.write().insert(username.to_string(), record);
    }

    /// Deprovision a user (left the organisation). Subsequent
    /// authentications fail with [`AuthnError::Deprovisioned`].
    pub fn deprovision_user(&self, username: &str) -> bool {
        match self.users.write().get_mut(username) {
            Some(u) => {
                u.active = false;
                true
            }
            None => false,
        }
    }

    /// Expected TOTP code for the current 30-second window (RFC 6238
    /// style over HMAC-SHA-256, truncated to 6 digits).
    pub fn current_totp(&self, username: &str) -> Option<u32> {
        let users = self.users.read();
        let secret = users.get(username)?.totp_secret.as_ref()?;
        Some(totp_code(secret, self.clock.now_secs() / 30))
    }

    /// Authenticate with password (+ TOTP when enrolled), producing a
    /// signed assertion addressed to `audience`.
    pub fn authenticate(
        &self,
        username: &str,
        password: &str,
        totp: Option<u32>,
        audience: &str,
    ) -> Result<String, AuthnError> {
        let _span = dri_trace::span_with(
            "idp.authenticate",
            dri_trace::Stage::Discovery,
            &[("idp", &self.entity_id)],
        );
        self.faults
            .check(&format!("idp:{}", self.entity_id))
            .map_err(|_| AuthnError::IdpUnavailable)?;
        let users = self.users.read();
        let user = users.get(username).ok_or(AuthnError::UnknownUser)?;
        if !user.active {
            return Err(AuthnError::Deprovisioned);
        }
        let supplied = hash_password(&user.salt, password);
        if !dri_crypto::ct_eq(&supplied, &user.password_hash) {
            return Err(AuthnError::BadPassword);
        }
        let authn_context = match &user.totp_secret {
            Some(secret) => {
                let expected = totp_code(secret, self.clock.now_secs() / 30);
                match totp {
                    Some(code) if code == expected => "pwd+totp",
                    _ => return Err(AuthnError::BadSecondFactor),
                }
            }
            None => "pwd",
        };
        let now = self.clock.now_secs();
        let serial = self.assertion_counter.fetch_add(1, Ordering::Relaxed) + 1;
        let assertion = Assertion {
            issuer: self.entity_id.clone(),
            subject: user.attributes.eppn.clone(),
            audience: audience.to_string(),
            issued_at: now,
            expires_at: now + ASSERTION_TTL_SECS,
            authn_context: authn_context.to_string(),
            loa: self.max_loa,
            attributes: user.attributes.to_attributes(),
            assertion_id: format!("{}#{serial}", self.entity_id),
        };
        Ok(assertion.sign(&self.signing_key))
    }

    /// Whether a username exists and is active.
    pub fn is_active(&self, username: &str) -> bool {
        self.users
            .read()
            .get(username)
            .map(|u| u.active)
            .unwrap_or(false)
    }

    /// Number of provisioned users.
    pub fn user_count(&self) -> usize {
        self.users.read().len()
    }
}

/// Salted password hash: SHA-256 over the salt then the password.
pub fn hash_password(salt: &[u8; 8], password: &str) -> [u8; 32] {
    let mut input = Vec::with_capacity(8 + password.len());
    input.extend_from_slice(salt);
    input.extend_from_slice(password.as_bytes());
    sha256(&input)
}

/// RFC 6238-style TOTP over HMAC-SHA-256, 6 digits.
pub fn totp_code(secret: &[u8], time_step: u64) -> u32 {
    let mac = hmac_sha256(secret, &time_step.to_be_bytes());
    let offset = (mac[31] & 0x0f) as usize;
    let bin = ((mac[offset] as u32 & 0x7f) << 24)
        | ((mac[offset + 1] as u32) << 16)
        | ((mac[offset + 2] as u32) << 8)
        | (mac[offset + 3] as u32);
    bin % 1_000_000
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idp() -> IdentityProvider {
        let clock = SimClock::new();
        let idp = IdentityProvider::new(
            "https://idp.bristol.ac.uk",
            "bristol.ac.uk",
            LevelOfAssurance::Medium,
            [9u8; 32],
            clock,
            dri_fault::FaultHook::default(),
        );
        idp.provision_user("alice", "hunter2", "Alice A", "staff", None);
        idp.provision_user(
            "bob",
            "passw0rd",
            "Bob B",
            "member",
            Some(b"bobsecret".to_vec()),
        );
        idp
    }

    #[test]
    fn password_login_produces_verifiable_assertion() {
        let idp = idp();
        let wire = idp.authenticate("alice", "hunter2", None, "aud").unwrap();
        let a = Assertion::verify(&wire, &(&idp.verifying_key()).into(), "aud", 10).unwrap();
        assert_eq!(a.subject, "alice@bristol.ac.uk");
        assert_eq!(a.authn_context, "pwd");
        assert_eq!(a.loa, LevelOfAssurance::Medium);
        assert_eq!(a.attribute("schacHomeOrganization"), Some("bristol.ac.uk"));
    }

    #[test]
    fn wrong_password_rejected() {
        let idp = idp();
        assert_eq!(
            idp.authenticate("alice", "wrong", None, "aud"),
            Err(AuthnError::BadPassword)
        );
        assert_eq!(
            idp.authenticate("nobody", "x", None, "aud"),
            Err(AuthnError::UnknownUser)
        );
    }

    #[test]
    fn totp_enforced_when_enrolled() {
        let idp = idp();
        // No code.
        assert_eq!(
            idp.authenticate("bob", "passw0rd", None, "aud"),
            Err(AuthnError::BadSecondFactor)
        );
        // Wrong code.
        let right = idp.current_totp("bob").unwrap();
        let wrong = (right + 1) % 1_000_000;
        assert_eq!(
            idp.authenticate("bob", "passw0rd", Some(wrong), "aud"),
            Err(AuthnError::BadSecondFactor)
        );
        // Right code.
        let wire = idp
            .authenticate("bob", "passw0rd", Some(right), "aud")
            .unwrap();
        let a = Assertion::verify(&wire, &(&idp.verifying_key()).into(), "aud", 1).unwrap();
        assert_eq!(a.authn_context, "pwd+totp");
    }

    #[test]
    fn deprovisioned_user_cannot_authenticate() {
        let idp = idp();
        assert!(idp.is_active("alice"));
        assert!(idp.deprovision_user("alice"));
        assert!(!idp.is_active("alice"));
        assert_eq!(
            idp.authenticate("alice", "hunter2", None, "aud"),
            Err(AuthnError::Deprovisioned)
        );
        assert!(!idp.deprovision_user("ghost"));
    }

    #[test]
    fn assertion_ids_are_unique() {
        let idp = idp();
        let w1 = idp.authenticate("alice", "hunter2", None, "aud").unwrap();
        let w2 = idp.authenticate("alice", "hunter2", None, "aud").unwrap();
        let a1 = Assertion::verify(&w1, &(&idp.verifying_key()).into(), "aud", 1).unwrap();
        let a2 = Assertion::verify(&w2, &(&idp.verifying_key()).into(), "aud", 1).unwrap();
        assert_ne!(a1.assertion_id, a2.assertion_id);
    }

    #[test]
    fn totp_changes_with_time_step() {
        assert_ne!(totp_code(b"secret", 1), totp_code(b"secret", 2));
        assert_eq!(totp_code(b"secret", 1), totp_code(b"secret", 1));
        assert!(totp_code(b"secret", 1) < 1_000_000);
    }
}
