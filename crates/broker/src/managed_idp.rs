//! Public-cloud managed IdPs.
//!
//! Two instances exist in the deployed system:
//!
//! * the **administrator IdP** — ~20 BriCS staff, registration requires a
//!   human vetting approval, login requires a hardware-key (FIDO2-style)
//!   signature over a fresh challenge (`acr = "mfa-hw"`);
//! * the **Identity Provider of Last Resort** — users whose institutions
//!   are not in MyAccessID (vendors, AI Safety Institute); password + TOTP
//!   (`acr = "mfa-totp"`).
//!
//! The hardware key is modelled faithfully enough to matter: the "device"
//! holds an Ed25519 keypair, the IdP stores only the public key, and a
//! login requires a signature over a server-chosen nonce — so a stolen
//! password alone can never produce an admin session (exercised by the
//! E10/E13 attack experiments).

use dri_clock::{IdGen, SimClock, SimRng};
use dri_crypto::ed25519::{SigningKey, VerifyingKey};
use dri_federation::idp::{hash_password, totp_code};
use dri_sync::ShardMap;
use parking_lot::Mutex;

/// The user-side half of a hardware key: lives on the user's device,
/// never enters the IdP.
#[derive(Clone)]
pub struct HardwareKey {
    key: SigningKey,
}

impl HardwareKey {
    /// Mint a new hardware key from RNG.
    pub fn generate(rng: &mut SimRng) -> HardwareKey {
        HardwareKey {
            key: SigningKey::from_seed(&rng.seed32()),
        }
    }

    /// Public half for enrolment.
    pub fn public(&self) -> VerifyingKey {
        self.key.verifying_key()
    }

    /// Sign an authentication challenge.
    pub fn sign_challenge(&self, challenge: &[u8]) -> [u8; 64] {
        self.key.sign(challenge)
    }
}

#[derive(Clone)]
struct DirectoryUser {
    username: String,
    password_hash: [u8; 32],
    salt: [u8; 8],
    totp_secret: Option<Vec<u8>>,
    hw_key: Option<VerifyingKey>,
    active: bool,
    /// Admin registrations require an explicit human approval first.
    vetted: bool,
}

/// A pending login challenge (hardware-key flow).
#[derive(Debug, Clone)]
struct PendingChallenge {
    username: String,
    nonce: [u8; 32],
    expires_at_ms: u64,
}

/// Errors from the managed IdP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManagedIdpError {
    /// No such user.
    UnknownUser,
    /// Wrong password.
    BadPassword,
    /// TOTP missing/wrong.
    BadTotp,
    /// Hardware-key signature invalid.
    BadHardwareKeySignature,
    /// Challenge expired or unknown.
    BadChallenge,
    /// Account not yet human-vetted (admin flow).
    NotVetted,
    /// Account deactivated.
    Deactivated,
    /// Username already registered.
    Duplicate,
    /// The user has no hardware key enrolled.
    NoHardwareKey,
}

impl std::fmt::Display for ManagedIdpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ManagedIdpError::UnknownUser => "unknown user",
            ManagedIdpError::BadPassword => "bad password",
            ManagedIdpError::BadTotp => "bad TOTP code",
            ManagedIdpError::BadHardwareKeySignature => "hardware key signature invalid",
            ManagedIdpError::BadChallenge => "challenge unknown or expired",
            ManagedIdpError::NotVetted => "account awaiting human vetting",
            ManagedIdpError::Deactivated => "account deactivated",
            ManagedIdpError::Duplicate => "username already registered",
            ManagedIdpError::NoHardwareKey => "no hardware key enrolled",
        };
        f.write_str(s)
    }
}

impl std::error::Error for ManagedIdpError {}

/// Challenge lifetime (ms): hardware-key challenges are single-use and
/// short-lived.
const CHALLENGE_TTL_MS: u64 = 60_000;

/// A successful managed-IdP authentication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManagedLogin {
    /// Stable subject id, prefixed by the IdP name (`admin:dave`).
    pub subject: String,
    /// Authentication context (`mfa-hw` or `mfa-totp`).
    pub acr: String,
}

/// A managed directory IdP (AWS-Identity-Center-like).
pub struct ManagedIdp {
    /// IdP name, used as the subject prefix (`admin` / `last-resort`).
    pub name: String,
    /// If true, users must be explicitly vetted before first login
    /// (admin IdP behaviour).
    pub requires_vetting: bool,
    clock: SimClock,
    users: ShardMap<DirectoryUser>,
    challenges: ShardMap<PendingChallenge>,
    rng: Mutex<SimRng>,
    ids: IdGen,
}

/// Shards per managed-IdP map: directories are small (tens of users) but
/// login storms hit them concurrently.
const IDP_SHARDS: usize = 8;

impl ManagedIdp {
    /// Create a managed IdP.
    pub fn new(
        name: impl Into<String>,
        requires_vetting: bool,
        clock: SimClock,
        rng: SimRng,
    ) -> ManagedIdp {
        ManagedIdp {
            name: name.into(),
            requires_vetting,
            clock,
            users: ShardMap::new(IDP_SHARDS),
            challenges: ShardMap::new(IDP_SHARDS),
            rng: Mutex::new(rng),
            ids: IdGen::new("chal"),
        }
    }

    /// Register a user with a TOTP second factor. Returns the TOTP secret
    /// (would be shown as a QR code).
    pub fn register_totp_user(
        &self,
        username: &str,
        password: &str,
    ) -> Result<Vec<u8>, ManagedIdpError> {
        // Duplicate-check and insert under the user's shard lock so a
        // racing double-registration cannot both succeed.
        let mut users = self.users.write_shard(username);
        if users.contains_key(username) {
            return Err(ManagedIdpError::Duplicate);
        }
        let mut rng = self.rng.lock();
        let mut secret = vec![0u8; 20];
        rng.fill_bytes(&mut secret);
        let mut salt = [0u8; 8];
        rng.fill_bytes(&mut salt);
        users.insert(
            username.to_string(),
            DirectoryUser {
                username: username.to_string(),
                password_hash: hash_password(&salt, password),
                salt,
                totp_secret: Some(secret.clone()),
                hw_key: None,
                active: true,
                vetted: !self.requires_vetting,
            },
        );
        Ok(secret)
    }

    /// Register a user with a hardware key (admin flow). The account stays
    /// unusable until [`ManagedIdp::vet_user`] is called when vetting is
    /// required.
    pub fn register_hw_user(
        &self,
        username: &str,
        password: &str,
        hw_public: VerifyingKey,
    ) -> Result<(), ManagedIdpError> {
        let mut users = self.users.write_shard(username);
        if users.contains_key(username) {
            return Err(ManagedIdpError::Duplicate);
        }
        let mut rng = self.rng.lock();
        let mut salt = [0u8; 8];
        rng.fill_bytes(&mut salt);
        users.insert(
            username.to_string(),
            DirectoryUser {
                username: username.to_string(),
                password_hash: hash_password(&salt, password),
                salt,
                totp_secret: None,
                hw_key: Some(hw_public),
                active: true,
                vetted: !self.requires_vetting,
            },
        );
        Ok(())
    }

    /// The human-in-the-loop identity confirmation of user story 2.
    pub fn vet_user(&self, username: &str) -> Result<(), ManagedIdpError> {
        self.users
            .with_mut(username, |u| u.vetted = true)
            .ok_or(ManagedIdpError::UnknownUser)
    }

    /// Deactivate an account ("access is revoked when an individual
    /// leaves the group").
    pub fn deactivate(&self, username: &str) -> Result<(), ManagedIdpError> {
        self.users
            .with_mut(username, |u| u.active = false)
            .ok_or(ManagedIdpError::UnknownUser)
    }

    /// TOTP login (last-resort users).
    pub fn login_totp(
        &self,
        username: &str,
        password: &str,
        code: u32,
    ) -> Result<ManagedLogin, ManagedIdpError> {
        let u = self
            .users
            .get_cloned(username)
            .ok_or(ManagedIdpError::UnknownUser)?;
        self.check_basics(&u, password)?;
        let secret = u.totp_secret.as_ref().ok_or(ManagedIdpError::BadTotp)?;
        let expected = totp_code(secret, self.clock.now_secs() / 30);
        if code != expected {
            return Err(ManagedIdpError::BadTotp);
        }
        Ok(ManagedLogin {
            subject: format!("{}:{}", self.name, u.username),
            acr: "mfa-totp".to_string(),
        })
    }

    /// Begin a hardware-key login: returns `(challenge_id, nonce)` after
    /// password verification.
    pub fn begin_hw_login(
        &self,
        username: &str,
        password: &str,
    ) -> Result<(String, [u8; 32]), ManagedIdpError> {
        let u = self
            .users
            .get_cloned(username)
            .ok_or(ManagedIdpError::UnknownUser)?;
        self.check_basics(&u, password)?;
        if u.hw_key.is_none() {
            return Err(ManagedIdpError::NoHardwareKey);
        }
        let mut nonce = [0u8; 32];
        self.rng.lock().fill_bytes(&mut nonce);
        let id = self.ids.next();
        self.challenges.insert(
            id.clone(),
            PendingChallenge {
                username: username.to_string(),
                nonce,
                expires_at_ms: self.clock.now_ms() + CHALLENGE_TTL_MS,
            },
        );
        Ok((id, nonce))
    }

    /// Complete a hardware-key login with the device's signature over the
    /// nonce. Challenges are single-use.
    pub fn finish_hw_login(
        &self,
        challenge_id: &str,
        signature: &[u8; 64],
    ) -> Result<ManagedLogin, ManagedIdpError> {
        let challenge = self
            .challenges
            .remove(challenge_id)
            .ok_or(ManagedIdpError::BadChallenge)?;
        if self.clock.now_ms() >= challenge.expires_at_ms {
            return Err(ManagedIdpError::BadChallenge);
        }
        let u = self
            .users
            .get_cloned(&challenge.username)
            .ok_or(ManagedIdpError::UnknownUser)?;
        let key = u.hw_key.as_ref().ok_or(ManagedIdpError::NoHardwareKey)?;
        if !key.verify(&challenge.nonce, signature) {
            return Err(ManagedIdpError::BadHardwareKeySignature);
        }
        Ok(ManagedLogin {
            subject: format!("{}:{}", self.name, u.username),
            acr: "mfa-hw".to_string(),
        })
    }

    fn check_basics(&self, u: &DirectoryUser, password: &str) -> Result<(), ManagedIdpError> {
        if !u.active {
            return Err(ManagedIdpError::Deactivated);
        }
        if !u.vetted {
            return Err(ManagedIdpError::NotVetted);
        }
        let supplied = hash_password(&u.salt, password);
        if !dri_crypto::ct_eq(&supplied, &u.password_hash) {
            return Err(ManagedIdpError::BadPassword);
        }
        Ok(())
    }

    /// The TOTP code currently expected for a user (test/client helper —
    /// in reality this lives in the user's authenticator app).
    pub fn current_totp(&self, username: &str) -> Option<u32> {
        let when = self.clock.now_secs() / 30;
        self.users
            .with(username, |u| {
                u.totp_secret.as_ref().map(|s| totp_code(s, when))
            })
            .flatten()
    }

    /// Directory size (metrics).
    pub fn user_count(&self) -> usize {
        self.users.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ManagedIdp, ManagedIdp) {
        let clock = SimClock::new();
        let admin = ManagedIdp::new("admin", true, clock.clone(), SimRng::seed_from_u64(1));
        let last_resort = ManagedIdp::new("last-resort", false, clock, SimRng::seed_from_u64(2));
        (admin, last_resort)
    }

    #[test]
    fn totp_login_roundtrip() {
        let (_, idp) = setup();
        idp.register_totp_user("vendor1", "pw").unwrap();
        let code = idp.current_totp("vendor1").unwrap();
        let login = idp.login_totp("vendor1", "pw", code).unwrap();
        assert_eq!(login.subject, "last-resort:vendor1");
        assert_eq!(login.acr, "mfa-totp");
        // Wrong code fails.
        assert_eq!(
            idp.login_totp("vendor1", "pw", (code + 1) % 1_000_000),
            Err(ManagedIdpError::BadTotp)
        );
        // Wrong password fails before TOTP is even checked.
        assert_eq!(
            idp.login_totp("vendor1", "nope", code),
            Err(ManagedIdpError::BadPassword)
        );
    }

    #[test]
    fn admin_requires_vetting_then_hardware_key() {
        let (admin, _) = setup();
        let mut rng = SimRng::seed_from_u64(77);
        let device = HardwareKey::generate(&mut rng);
        admin
            .register_hw_user("dave", "pw", device.public())
            .unwrap();
        // Not vetted yet: even the password step refuses.
        assert_eq!(
            admin.begin_hw_login("dave", "pw"),
            Err(ManagedIdpError::NotVetted)
        );
        admin.vet_user("dave").unwrap();
        let (cid, nonce) = admin.begin_hw_login("dave", "pw").unwrap();
        let sig = device.sign_challenge(&nonce);
        let login = admin.finish_hw_login(&cid, &sig).unwrap();
        assert_eq!(login.subject, "admin:dave");
        assert_eq!(login.acr, "mfa-hw");
    }

    #[test]
    fn hw_challenge_single_use_and_signature_checked() {
        let (admin, _) = setup();
        let mut rng = SimRng::seed_from_u64(78);
        let device = HardwareKey::generate(&mut rng);
        let wrong_device = HardwareKey::generate(&mut rng);
        admin
            .register_hw_user("dave", "pw", device.public())
            .unwrap();
        admin.vet_user("dave").unwrap();

        // Wrong device's signature is rejected.
        let (cid, nonce) = admin.begin_hw_login("dave", "pw").unwrap();
        let bad_sig = wrong_device.sign_challenge(&nonce);
        assert_eq!(
            admin.finish_hw_login(&cid, &bad_sig),
            Err(ManagedIdpError::BadHardwareKeySignature)
        );
        // The challenge was consumed: replay with the right key also fails.
        let good_sig = device.sign_challenge(&nonce);
        assert_eq!(
            admin.finish_hw_login(&cid, &good_sig),
            Err(ManagedIdpError::BadChallenge)
        );
    }

    #[test]
    fn hw_challenge_expires() {
        let clock = SimClock::new();
        let admin = ManagedIdp::new("admin", false, clock.clone(), SimRng::seed_from_u64(3));
        let mut rng = SimRng::seed_from_u64(4);
        let device = HardwareKey::generate(&mut rng);
        admin
            .register_hw_user("dave", "pw", device.public())
            .unwrap();
        let (cid, nonce) = admin.begin_hw_login("dave", "pw").unwrap();
        clock.advance(CHALLENGE_TTL_MS + 1);
        let sig = device.sign_challenge(&nonce);
        assert_eq!(
            admin.finish_hw_login(&cid, &sig),
            Err(ManagedIdpError::BadChallenge)
        );
    }

    #[test]
    fn deactivated_admin_locked_out() {
        let (admin, _) = setup();
        let mut rng = SimRng::seed_from_u64(5);
        let device = HardwareKey::generate(&mut rng);
        admin
            .register_hw_user("eve", "pw", device.public())
            .unwrap();
        admin.vet_user("eve").unwrap();
        admin.deactivate("eve").unwrap();
        assert_eq!(
            admin.begin_hw_login("eve", "pw"),
            Err(ManagedIdpError::Deactivated)
        );
    }

    #[test]
    fn duplicate_registration_rejected() {
        let (_, idp) = setup();
        idp.register_totp_user("u", "pw").unwrap();
        assert_eq!(
            idp.register_totp_user("u", "pw2"),
            Err(ManagedIdpError::Duplicate)
        );
    }
}
