//! OpenID-Connect-shaped flows on top of the identity broker.
//!
//! Two grants are modelled, matching how the deployed system is used:
//!
//! * **Authorization code + PKCE** — web applications (the portal, the
//!   Zenith-published Jupyter endpoints) redirect the user to the broker,
//!   receive a single-use code, and exchange it (with the PKCE verifier)
//!   for a token scoped to their audience.
//! * **Device authorization grant** — the SSH certificate client is a CLI
//!   on the user's laptop: it shows a user code, the user approves it in
//!   an authenticated browser session, and the CLI polls for the token.

use std::collections::HashMap;
use std::sync::Arc;

use dri_clock::{IdGen, SimClock, SimRng};
use dri_crypto::base64;
use dri_crypto::jwt::Claims;
use dri_crypto::sha2::sha256;
use parking_lot::{Mutex, RwLock};

use crate::broker::{BrokerError, IdentityBroker};

/// Lifetime of an authorization code (seconds).
const CODE_TTL_SECS: u64 = 60;
/// Lifetime of a device grant awaiting approval (seconds).
const DEVICE_TTL_SECS: u64 = 600;

/// A registered relying party.
#[derive(Debug, Clone)]
pub struct OidcClient {
    /// Client identifier.
    pub client_id: String,
    /// Exact-match redirect URI.
    pub redirect_uri: String,
    /// The audience tokens for this client are scoped to.
    pub audience: String,
}

/// OIDC flow failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OidcError {
    /// Client id not registered.
    UnknownClient(String),
    /// Redirect URI does not exactly match the registration.
    RedirectMismatch,
    /// Code unknown, already used, or expired.
    BadCode,
    /// PKCE verifier does not hash to the challenge.
    BadVerifier,
    /// The underlying broker refused.
    Broker(BrokerError),
    /// Session invalid at authorize time.
    InvalidSession,
}

impl std::fmt::Display for OidcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OidcError::UnknownClient(c) => write!(f, "unknown client {c}"),
            OidcError::RedirectMismatch => write!(f, "redirect_uri mismatch"),
            OidcError::BadCode => write!(f, "invalid authorization code"),
            OidcError::BadVerifier => write!(f, "PKCE verification failed"),
            OidcError::Broker(e) => write!(f, "broker refused: {e}"),
            OidcError::InvalidSession => write!(f, "invalid session"),
        }
    }
}

impl std::error::Error for OidcError {}

/// Device-flow specific outcomes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceFlowError {
    /// Grant unknown or expired.
    BadDeviceCode,
    /// User has not approved yet — poll again.
    AuthorizationPending,
    /// The user (or an admin) denied the grant.
    Denied,
    /// Broker refused token issuance after approval.
    Broker(BrokerError),
}

impl std::fmt::Display for DeviceFlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceFlowError::BadDeviceCode => write!(f, "invalid device code"),
            DeviceFlowError::AuthorizationPending => write!(f, "authorization pending"),
            DeviceFlowError::Denied => write!(f, "denied"),
            DeviceFlowError::Broker(e) => write!(f, "broker refused: {e}"),
        }
    }
}

impl std::error::Error for DeviceFlowError {}

/// A pending device authorization.
#[derive(Debug, Clone)]
pub struct DeviceGrant {
    /// Secret code the device polls with.
    pub device_code: String,
    /// Short human code the user types into the approval page.
    pub user_code: String,
    /// Client that initiated the flow.
    pub client_id: String,
    /// Expiry (seconds).
    pub expires_at: u64,
    state: DeviceState,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum DeviceState {
    Pending,
    Approved { session_id: String },
    Denied,
}

struct AuthCode {
    client_id: String,
    session_id: String,
    code_challenge: [u8; 32],
    expires_at: u64,
}

#[derive(Clone)]
struct RefreshGrant {
    client_id: String,
    session_id: String,
    /// Rotated out tokens; presenting one is treated as theft.
    rotated: bool,
}

/// The OIDC provider facade over the broker.
pub struct OidcProvider {
    broker: Arc<IdentityBroker>,
    clock: SimClock,
    clients: RwLock<HashMap<String, OidcClient>>,
    codes: Mutex<HashMap<String, AuthCode>>,
    devices: Mutex<HashMap<String, DeviceGrant>>, // by device_code
    user_codes: Mutex<HashMap<String, String>>,   // user_code -> device_code
    refresh_grants: Mutex<HashMap<String, RefreshGrant>>,
    rng: Mutex<SimRng>,
    ids: IdGen,
}

impl OidcProvider {
    /// Wrap a broker.
    pub fn new(broker: Arc<IdentityBroker>, clock: SimClock, rng: SimRng) -> OidcProvider {
        OidcProvider {
            broker,
            clock,
            clients: RwLock::new(HashMap::new()),
            codes: Mutex::new(HashMap::new()),
            devices: Mutex::new(HashMap::new()),
            user_codes: Mutex::new(HashMap::new()),
            refresh_grants: Mutex::new(HashMap::new()),
            rng: Mutex::new(rng),
            ids: IdGen::new("oidc"),
        }
    }

    /// Register a relying party.
    pub fn register_client(&self, client: OidcClient) {
        self.clients
            .write()
            .insert(client.client_id.clone(), client);
    }

    fn random_token(&self, prefix: &str) -> String {
        let mut bytes = [0u8; 16];
        self.rng.lock().fill_bytes(&mut bytes);
        format!("{prefix}-{}", dri_crypto::hex::encode(&bytes))
    }

    /// PKCE S256: hash a verifier into a challenge.
    pub fn s256(verifier: &str) -> String {
        base64::encode_url(&sha256(verifier.as_bytes()))
    }

    /// Authorization endpoint: the user arrives with an authenticated
    /// broker session; issue a single-use code bound to the PKCE
    /// challenge.
    pub fn authorize(
        &self,
        client_id: &str,
        redirect_uri: &str,
        code_challenge_s256: &str,
        session_id: &str,
    ) -> Result<String, OidcError> {
        let clients = self.clients.read();
        let client = clients
            .get(client_id)
            .ok_or_else(|| OidcError::UnknownClient(client_id.to_string()))?;
        if client.redirect_uri != redirect_uri {
            return Err(OidcError::RedirectMismatch);
        }
        if self.broker.session(session_id).is_none() {
            return Err(OidcError::InvalidSession);
        }
        let challenge_bytes =
            base64::decode_url(code_challenge_s256).map_err(|_| OidcError::BadVerifier)?;
        if challenge_bytes.len() != 32 {
            return Err(OidcError::BadVerifier);
        }
        let mut challenge = [0u8; 32];
        challenge.copy_from_slice(&challenge_bytes);

        let code = self.random_token("code");
        self.codes.lock().insert(
            code.clone(),
            AuthCode {
                client_id: client_id.to_string(),
                session_id: session_id.to_string(),
                code_challenge: challenge,
                expires_at: self.clock.now_secs() + CODE_TTL_SECS,
            },
        );
        Ok(code)
    }

    /// Token endpoint: exchange a code + PKCE verifier for an RBAC token
    /// scoped to the client's audience.
    pub fn exchange_code(
        &self,
        client_id: &str,
        code: &str,
        verifier: &str,
    ) -> Result<(String, Claims), OidcError> {
        let auth = self.codes.lock().remove(code).ok_or(OidcError::BadCode)?;
        if auth.client_id != client_id {
            return Err(OidcError::BadCode);
        }
        if self.clock.now_secs() >= auth.expires_at {
            return Err(OidcError::BadCode);
        }
        if sha256(verifier.as_bytes()) != auth.code_challenge {
            return Err(OidcError::BadVerifier);
        }
        let audience = {
            let clients = self.clients.read();
            clients
                .get(client_id)
                .ok_or_else(|| OidcError::UnknownClient(client_id.to_string()))?
                .audience
                .clone()
        };
        self.broker
            .issue_token(&auth.session_id, &audience)
            .map_err(OidcError::Broker)
    }

    /// Like [`OidcProvider::exchange_code`] but also minting a rotating
    /// refresh token (RFC 6749 §6 with OAuth 2.1-style rotation).
    pub fn exchange_code_with_refresh(
        &self,
        client_id: &str,
        code: &str,
        verifier: &str,
    ) -> Result<(String, Claims, String), OidcError> {
        let auth_session = {
            let codes = self.codes.lock();
            codes.get(code).map(|a| a.session_id.clone())
        };
        let (token, claims) = self.exchange_code(client_id, code, verifier)?;
        let session_id = auth_session.ok_or(OidcError::BadCode)?;
        let refresh = self.random_token("rt");
        self.refresh_grants.lock().insert(
            refresh.clone(),
            RefreshGrant {
                client_id: client_id.to_string(),
                session_id,
                rotated: false,
            },
        );
        Ok((token, claims, refresh))
    }

    /// Refresh grant: exchange a refresh token for a fresh access token
    /// and a *new* refresh token. Presenting an already-rotated token is
    /// treated as credential theft: the whole session is revoked.
    pub fn refresh(
        &self,
        client_id: &str,
        refresh_token: &str,
    ) -> Result<(String, Claims, String), OidcError> {
        let grant = {
            let mut grants = self.refresh_grants.lock();
            let grant = grants
                .get_mut(refresh_token)
                .ok_or(OidcError::BadCode)?
                .clone();
            if grant.rotated {
                // Reuse detected: kill the session defensively.
                self.broker.revoke_session(&grant.session_id);
                grants.remove(refresh_token);
                return Err(OidcError::BadCode);
            }
            grants.get_mut(refresh_token).expect("present").rotated = true;
            grant
        };
        if grant.client_id != client_id {
            return Err(OidcError::BadCode);
        }
        let audience = {
            let clients = self.clients.read();
            clients
                .get(client_id)
                .ok_or_else(|| OidcError::UnknownClient(client_id.to_string()))?
                .audience
                .clone()
        };
        let (token, claims) = self
            .broker
            .issue_token(&grant.session_id, &audience)
            .map_err(OidcError::Broker)?;
        let new_refresh = self.random_token("rt");
        self.refresh_grants.lock().insert(
            new_refresh.clone(),
            RefreshGrant {
                client_id: client_id.to_string(),
                session_id: grant.session_id,
                rotated: false,
            },
        );
        Ok((token, claims, new_refresh))
    }

    /// Device endpoint: start a device authorization (the SSH cert client).
    pub fn begin_device_flow(&self, client_id: &str) -> Result<DeviceGrant, OidcError> {
        if !self.clients.read().contains_key(client_id) {
            return Err(OidcError::UnknownClient(client_id.to_string()));
        }
        let device_code = self.random_token("dev");
        let user_code = {
            // Short human-typable code: 2 groups of 4 characters.
            let n = self.ids.next();
            let digest = sha256(n.as_bytes());
            let alphabet = b"BCDFGHJKLMNPQRSTVWXZ";
            let mut s = String::with_capacity(9);
            for (i, b) in digest.iter().take(8).enumerate() {
                if i == 4 {
                    s.push('-');
                }
                s.push(alphabet[(*b as usize) % alphabet.len()] as char);
            }
            s
        };
        let grant = DeviceGrant {
            device_code: device_code.clone(),
            user_code: user_code.clone(),
            client_id: client_id.to_string(),
            expires_at: self.clock.now_secs() + DEVICE_TTL_SECS,
            state: DeviceState::Pending,
        };
        self.devices
            .lock()
            .insert(device_code.clone(), grant.clone());
        self.user_codes.lock().insert(user_code, device_code);
        Ok(grant)
    }

    /// The user, in an authenticated browser session, approves the device
    /// showing `user_code`.
    pub fn approve_device(&self, user_code: &str, session_id: &str) -> Result<(), OidcError> {
        if self.broker.session(session_id).is_none() {
            return Err(OidcError::InvalidSession);
        }
        let device_code = self
            .user_codes
            .lock()
            .get(user_code)
            .cloned()
            .ok_or(OidcError::BadCode)?;
        let mut devices = self.devices.lock();
        let grant = devices.get_mut(&device_code).ok_or(OidcError::BadCode)?;
        if self.clock.now_secs() >= grant.expires_at {
            return Err(OidcError::BadCode);
        }
        grant.state = DeviceState::Approved {
            session_id: session_id.to_string(),
        };
        Ok(())
    }

    /// Deny a pending device grant.
    pub fn deny_device(&self, user_code: &str) -> Result<(), OidcError> {
        let device_code = self
            .user_codes
            .lock()
            .get(user_code)
            .cloned()
            .ok_or(OidcError::BadCode)?;
        let mut devices = self.devices.lock();
        let grant = devices.get_mut(&device_code).ok_or(OidcError::BadCode)?;
        grant.state = DeviceState::Denied;
        Ok(())
    }

    /// The device polls with its device code; on approval it receives the
    /// token for the client's audience.
    pub fn poll_device(&self, device_code: &str) -> Result<(String, Claims), DeviceFlowError> {
        let (state, client_id) = {
            let devices = self.devices.lock();
            let grant = devices
                .get(device_code)
                .ok_or(DeviceFlowError::BadDeviceCode)?;
            if self.clock.now_secs() >= grant.expires_at {
                return Err(DeviceFlowError::BadDeviceCode);
            }
            (grant.state.clone(), grant.client_id.clone())
        };
        match state {
            DeviceState::Pending => Err(DeviceFlowError::AuthorizationPending),
            DeviceState::Denied => Err(DeviceFlowError::Denied),
            DeviceState::Approved { session_id } => {
                let audience = {
                    let clients = self.clients.read();
                    clients
                        .get(&client_id)
                        .map(|c| c.audience.clone())
                        .ok_or(DeviceFlowError::BadDeviceCode)?
                };
                // Single use: consume the grant.
                self.devices.lock().remove(device_code);
                self.broker
                    .issue_token(&session_id, &audience)
                    .map_err(DeviceFlowError::Broker)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authz::StaticAuthz;
    use crate::broker::TokenPolicy;
    use crate::managed_idp::ManagedLogin;
    use crate::IdentitySource;
    use dri_federation::metadata::FederationRegistry;

    struct Fixture {
        oidc: OidcProvider,
        broker: Arc<IdentityBroker>,
        clock: SimClock,
        session_id: String,
    }

    fn fixture() -> Fixture {
        let clock = SimClock::starting_at(5_000_000);
        let registry = Arc::new(FederationRegistry::new());
        let authz = Arc::new(StaticAuthz::new());
        authz.grant("last-resort:carol", "jupyter", &["researcher"]);
        authz.grant("last-resort:carol", "ssh-ca", &["researcher"]);
        let broker = Arc::new(IdentityBroker::new(
            "https://broker.isambard.ac.uk",
            [21u8; 32],
            3600,
            clock.clone(),
            registry,
            authz,
            dri_fault::FaultHook::default(),
        ));
        broker.register_service(TokenPolicy::standard("jupyter", 600));
        broker.register_service(TokenPolicy::standard("ssh-ca", 900));
        let session = broker
            .login_managed(
                &ManagedLogin {
                    subject: "last-resort:carol".into(),
                    acr: "mfa-totp".into(),
                },
                IdentitySource::LastResort,
            )
            .unwrap();
        let oidc = OidcProvider::new(broker.clone(), clock.clone(), SimRng::seed_from_u64(3));
        oidc.register_client(OidcClient {
            client_id: "jupyter-web".into(),
            redirect_uri: "https://example.com/jupyter/callback".into(),
            audience: "jupyter".into(),
        });
        oidc.register_client(OidcClient {
            client_id: "ssh-cert-cli".into(),
            redirect_uri: "urn:ietf:wg:oauth:2.0:oob".into(),
            audience: "ssh-ca".into(),
        });
        Fixture {
            oidc,
            broker,
            clock,
            session_id: session.session_id,
        }
    }

    #[test]
    fn code_flow_with_pkce() {
        let f = fixture();
        let verifier = "a-very-random-verifier-string";
        let challenge = OidcProvider::s256(verifier);
        let code = f
            .oidc
            .authorize(
                "jupyter-web",
                "https://example.com/jupyter/callback",
                &challenge,
                &f.session_id,
            )
            .unwrap();
        let (token, claims) = f
            .oidc
            .exchange_code("jupyter-web", &code, verifier)
            .unwrap();
        assert_eq!(claims.audience, "jupyter");
        assert!(f
            .broker
            .jwks()
            .validate(&token, "jupyter", f.clock.now_secs())
            .is_ok());
        // Codes are single use.
        assert_eq!(
            f.oidc.exchange_code("jupyter-web", &code, verifier),
            Err(OidcError::BadCode)
        );
    }

    #[test]
    fn pkce_verifier_must_match() {
        let f = fixture();
        let challenge = OidcProvider::s256("right-verifier");
        let code = f
            .oidc
            .authorize(
                "jupyter-web",
                "https://example.com/jupyter/callback",
                &challenge,
                &f.session_id,
            )
            .unwrap();
        assert_eq!(
            f.oidc.exchange_code("jupyter-web", &code, "wrong-verifier"),
            Err(OidcError::BadVerifier)
        );
    }

    #[test]
    fn redirect_uri_pinned() {
        let f = fixture();
        let challenge = OidcProvider::s256("v");
        assert_eq!(
            f.oidc.authorize(
                "jupyter-web",
                "https://evil.example/cb",
                &challenge,
                &f.session_id
            ),
            Err(OidcError::RedirectMismatch)
        );
        assert!(matches!(
            f.oidc
                .authorize("ghost", "https://x", &challenge, &f.session_id),
            Err(OidcError::UnknownClient(_))
        ));
    }

    #[test]
    fn expired_code_rejected() {
        let f = fixture();
        let verifier = "v";
        let code = f
            .oidc
            .authorize(
                "jupyter-web",
                "https://example.com/jupyter/callback",
                &OidcProvider::s256(verifier),
                &f.session_id,
            )
            .unwrap();
        f.clock.advance_secs(CODE_TTL_SECS + 1);
        assert_eq!(
            f.oidc.exchange_code("jupyter-web", &code, verifier),
            Err(OidcError::BadCode)
        );
    }

    #[test]
    fn device_flow_happy_path() {
        let f = fixture();
        let grant = f.oidc.begin_device_flow("ssh-cert-cli").unwrap();
        // Device polls before approval.
        assert_eq!(
            f.oidc.poll_device(&grant.device_code),
            Err(DeviceFlowError::AuthorizationPending)
        );
        // User approves in their authenticated browser session.
        f.oidc
            .approve_device(&grant.user_code, &f.session_id)
            .unwrap();
        let (token, claims) = f.oidc.poll_device(&grant.device_code).unwrap();
        assert_eq!(claims.audience, "ssh-ca");
        assert!(f
            .broker
            .jwks()
            .validate(&token, "ssh-ca", f.clock.now_secs())
            .is_ok());
        // Grant consumed.
        assert_eq!(
            f.oidc.poll_device(&grant.device_code),
            Err(DeviceFlowError::BadDeviceCode)
        );
    }

    #[test]
    fn device_flow_denial_and_expiry() {
        let f = fixture();
        let g1 = f.oidc.begin_device_flow("ssh-cert-cli").unwrap();
        f.oidc.deny_device(&g1.user_code).unwrap();
        assert_eq!(
            f.oidc.poll_device(&g1.device_code),
            Err(DeviceFlowError::Denied)
        );

        let g2 = f.oidc.begin_device_flow("ssh-cert-cli").unwrap();
        f.clock.advance_secs(DEVICE_TTL_SECS + 1);
        assert_eq!(
            f.oidc.poll_device(&g2.device_code),
            Err(DeviceFlowError::BadDeviceCode)
        );
        assert_eq!(
            f.oidc.approve_device(&g2.user_code, &f.session_id),
            Err(OidcError::BadCode)
        );
    }

    #[test]
    fn refresh_token_rotation() {
        let f = fixture();
        let verifier = "v";
        let code = f
            .oidc
            .authorize(
                "jupyter-web",
                "https://example.com/jupyter/callback",
                &OidcProvider::s256(verifier),
                &f.session_id,
            )
            .unwrap();
        let (_t, _c, rt1) = f
            .oidc
            .exchange_code_with_refresh("jupyter-web", &code, verifier)
            .unwrap();
        // Refresh works and rotates.
        let (t2, c2, rt2) = f.oidc.refresh("jupyter-web", &rt1).unwrap();
        assert_eq!(c2.audience, "jupyter");
        assert!(f
            .broker
            .jwks()
            .validate(&t2, "jupyter", f.clock.now_secs())
            .is_ok());
        assert_ne!(rt1, rt2);
        // Wrong client can't use it.
        assert_eq!(
            f.oidc.refresh("ssh-cert-cli", &rt2),
            Err(OidcError::BadCode)
        );
    }

    #[test]
    fn refresh_reuse_kills_the_session() {
        let f = fixture();
        let verifier = "v";
        let code = f
            .oidc
            .authorize(
                "jupyter-web",
                "https://example.com/jupyter/callback",
                &OidcProvider::s256(verifier),
                &f.session_id,
            )
            .unwrap();
        let (_t, _c, rt1) = f
            .oidc
            .exchange_code_with_refresh("jupyter-web", &code, verifier)
            .unwrap();
        let (_t2, _c2, _rt2) = f.oidc.refresh("jupyter-web", &rt1).unwrap();
        // Replaying the rotated token is treated as theft: session dies.
        assert_eq!(f.oidc.refresh("jupyter-web", &rt1), Err(OidcError::BadCode));
        assert!(f.broker.session(&f.session_id).is_none());
    }

    #[test]
    fn device_user_codes_unique() {
        let f = fixture();
        let g1 = f.oidc.begin_device_flow("ssh-cert-cli").unwrap();
        let g2 = f.oidc.begin_device_flow("ssh-cert-cli").unwrap();
        assert_ne!(g1.user_code, g2.user_code);
        assert_ne!(g1.device_code, g2.device_code);
    }
}
