//! The identity broker: sessions, per-service token policies, JWKS with
//! rotation, and revocation.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dri_clock::{IdGen, SimClock};
use dri_crypto::ed25519::{PreparedVerifyingKey, SigningKey};
use dri_crypto::json::Value;
use dri_crypto::jwt::{self, Claims, Signer, Validation};
use dri_federation::assertion::{Assertion, AssertionError};
use dri_federation::metadata::{EntityKind, FederationRegistry};
use dri_federation::types::LevelOfAssurance;
use dri_sync::{clamp_shards, hash_key, shard_index, ShardMap, ShardSet, Snapshot};
use parking_lot::{Mutex, RwLock};

use crate::authz::AuthorizationSource;
use crate::managed_idp::ManagedLogin;
use crate::token_cache::TokenCache;

/// Where a session's identity came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdentitySource {
    /// MyAccessID-style federated login.
    Federated,
    /// The managed Identity Provider of Last Resort.
    LastResort,
    /// The dedicated administrator IdP (hardware-key MFA).
    AdminIdp,
}

/// Per-service (per-audience) token issuance policy.
#[derive(Debug, Clone)]
pub struct TokenPolicy {
    /// Audience string services validate against (e.g. `ssh-ca`).
    pub audience: String,
    /// Token lifetime in seconds — "short-lived" is the paper's design
    /// principle #1; typical values are minutes to a few hours.
    pub ttl_secs: u64,
    /// Minimum identity assurance required.
    pub min_loa: LevelOfAssurance,
    /// Required authentication context, if any (e.g. `mfa-hw`).
    pub required_acr: Option<String>,
    /// Restrict to sessions from the administrator IdP.
    pub admin_only: bool,
}

impl TokenPolicy {
    /// A relaxed policy for ordinary research services.
    pub fn standard(audience: impl Into<String>, ttl_secs: u64) -> TokenPolicy {
        TokenPolicy {
            audience: audience.into(),
            ttl_secs,
            min_loa: LevelOfAssurance::Medium,
            required_acr: None,
            admin_only: false,
        }
    }

    /// The locked-down policy management-plane services use.
    pub fn admin(audience: impl Into<String>, ttl_secs: u64) -> TokenPolicy {
        TokenPolicy {
            audience: audience.into(),
            ttl_secs,
            min_loa: LevelOfAssurance::High,
            required_acr: Some("mfa-hw".to_string()),
            admin_only: true,
        }
    }
}

/// A broker session (the result of an interactive login).
#[derive(Debug, Clone)]
pub struct SessionInfo {
    /// Opaque session id.
    pub session_id: String,
    /// Subject (cuid for federated users, `admin:name` / `last-resort:name`
    /// for managed identities).
    pub subject: String,
    /// Authentication context achieved at login.
    pub acr: String,
    /// Identity source.
    pub source: IdentitySource,
    /// Assurance level.
    pub loa: LevelOfAssurance,
    /// Establishment time (seconds).
    pub established_at: u64,
    /// Hard expiry (seconds) — re-authentication required after this.
    pub expires_at: u64,
    /// Trace id (hex) of the login flow that established this session,
    /// when it ran traced — provenance for later incident response.
    pub trace_id: Option<String>,
}

/// Broker failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrokerError {
    /// The upstream proxy is not registered in federation metadata.
    UnknownProxy(String),
    /// Upstream assertion invalid.
    BadAssertion(AssertionError),
    /// Authorisation-led registration: the subject holds no grants.
    NotAuthorized,
    /// No such session, or session revoked.
    InvalidSession,
    /// Session past its hard expiry — interactive re-auth required.
    SessionExpired,
    /// The audience has no registered token policy.
    UnknownService(String),
    /// The subject has no roles on this audience.
    NoRolesForAudience,
    /// Session assurance below the audience's minimum.
    InsufficientLoa,
    /// Session ACR does not satisfy the audience's requirement.
    AcrMismatch,
    /// Audience is admin-only and the session is not from the admin IdP.
    AdminOnly,
    /// Subject has been revoked by incident response.
    SubjectRevoked,
    /// The broker itself is unreachable (injected outage or flaky
    /// window). Transient: callers should retry with backoff.
    Unavailable,
}

impl std::fmt::Display for BrokerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BrokerError::UnknownProxy(x) => write!(f, "unknown upstream proxy {x}"),
            BrokerError::BadAssertion(e) => write!(f, "bad upstream assertion: {e}"),
            BrokerError::NotAuthorized => write!(f, "subject holds no authorisation"),
            BrokerError::InvalidSession => write!(f, "invalid or revoked session"),
            BrokerError::SessionExpired => write!(f, "session expired; re-authenticate"),
            BrokerError::UnknownService(x) => write!(f, "no token policy for audience {x}"),
            BrokerError::NoRolesForAudience => write!(f, "no roles for audience"),
            BrokerError::InsufficientLoa => write!(f, "assurance below audience minimum"),
            BrokerError::AcrMismatch => write!(f, "authentication context insufficient"),
            BrokerError::AdminOnly => write!(f, "audience restricted to admin identities"),
            BrokerError::SubjectRevoked => write!(f, "subject revoked"),
            BrokerError::Unavailable => write!(f, "identity broker unavailable"),
        }
    }
}

impl std::error::Error for BrokerError {}

/// A snapshot of the broker's public keys, distributed to relying
/// services so they can validate tokens locally (OIDC JWKS document).
///
/// Snapshots are immutable: the broker publishes a fresh one (with a
/// bumped [`Jwks::epoch`]) only when the key ring changes (rotation or
/// prune). Relying services hold the snapshot behind a
/// [`dri_sync::Snapshot`] cell and validate without taking any broker
/// lock; comparing epochs tells a cache whether it is stale.
#[derive(Debug, Clone)]
pub struct Jwks {
    /// Issuer the keys belong to.
    pub issuer: String,
    /// Key-ring generation; bumped by every rotation or prune.
    pub epoch: u64,
    /// Keys are stored prepared: each key's fixed-base table is built
    /// once, when its kid is first published, instead of paying 252
    /// doublings on every signature check.
    keys: HashMap<String, PreparedVerifyingKey>,
    /// The issuer's shared verified-token cache, consulted on
    /// validation. Every service holding this snapshot reaches the same
    /// cache, so a token verified (or seeded at signing) anywhere in the
    /// trust domain is a hit everywhere else.
    cache: Arc<TokenCache>,
}

impl Jwks {
    /// Validate a token against this key set for `audience` at `now`.
    pub fn validate(
        &self,
        token: &str,
        audience: &str,
        now_secs: u64,
    ) -> Result<Claims, jwt::JwtError> {
        self.validate_shared(token, audience, now_secs)
            .map(Arc::unwrap_or_clone)
    }

    /// [`Jwks::validate`], returning the claims shared with the token
    /// cache instead of a copy of them.
    pub fn validate_shared(
        &self,
        token: &str,
        audience: &str,
        now_secs: u64,
    ) -> Result<Arc<Claims>, jwt::JwtError> {
        let kid = jwt::peek_kid(token).ok_or(jwt::JwtError::Malformed)?;
        let key = self.keys.get(&kid).ok_or(jwt::JwtError::BadSignature)?;
        let validation = Validation {
            issuer: self.issuer.clone(),
            audience: audience.to_string(),
            now: now_secs,
            leeway: 0,
        };
        self.cache.validate(&kid, key, token, &validation)
    }

    /// Number of published keys.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }
}

/// The signing-key ring, published as an immutable snapshot. The last
/// entry is the active key; older entries stay for validating in-flight
/// tokens until pruned.
struct SignerRing {
    keys: Vec<(String, SigningKey)>,
}

impl SignerRing {
    /// The ring's verifying keys, prepared. A kid whose key bytes
    /// `previous` already holds reuses that prepared key (and its table),
    /// so a rotation prepares one key and a prune prepares none.
    fn prepared_keys(
        &self,
        previous: &HashMap<String, PreparedVerifyingKey>,
    ) -> HashMap<String, PreparedVerifyingKey> {
        self.keys
            .iter()
            .map(|(kid, sk)| {
                let vk = sk.verifying_key();
                let key = previous
                    .get(kid)
                    .filter(|p| p.as_bytes() == vk.as_bytes())
                    .cloned()
                    .unwrap_or_else(|| PreparedVerifyingKey::new(&vk));
                (kid.clone(), key)
            })
            .collect()
    }
}

/// Default number of shards per concurrent map (power of two).
pub const DEFAULT_BROKER_SHARDS: usize = 16;

/// The Front Door identity broker.
///
/// Hot-path state is sharded so parallel login storms touching
/// different subjects take different locks:
///
/// * sessions — [`ShardMap`] keyed by session id;
/// * active/revoked tokens — [`ShardMap`]/[`ShardSet`] keyed by `jti`;
/// * revoked subjects — [`ShardSet`] keyed by subject;
/// * `tokens_issued` — one `AtomicU64` per subject shard, summed on
///   read;
/// * signing keys, JWKS, and token policies — read-mostly
///   [`Snapshot`] cells: readers clone an `Arc` and never hold a lock
///   while signing or validating.
pub struct IdentityBroker {
    /// Issuer URL baked into every token.
    pub issuer: String,
    clock: SimClock,
    registry: Arc<FederationRegistry>,
    authz: Arc<dyn AuthorizationSource>,
    signer: Snapshot<SignerRing>,
    jwks_cache: Snapshot<Jwks>,
    /// Serialises key-ring changes with their JWKS publish, so
    /// concurrent rotations and prunes publish in ring order.
    key_admin: Mutex<()>,
    policies: Snapshot<HashMap<String, TokenPolicy>>,
    sessions: ShardMap<SessionInfo>,
    active_tokens: ShardMap<(String, u64)>, // jti -> (subject, exp)
    revoked_tokens: ShardSet,
    revoked_subjects: ShardSet,
    tokens_issued: Vec<AtomicU64>, // per subject shard
    session_ttl_secs: u64,
    session_ids: IdGen,
    jti_ids: IdGen,
    key_ids: IdGen,
    faults: dri_fault::FaultHook,
    token_cache: Arc<TokenCache>,
    /// Present only when `shards == 1`: reproduces the pre-sharding
    /// design, where one `RwLock<BrokerState>` was held across entire
    /// operations — including JWT signing inside `issue_token`. Session
    /// establishment and token issuance take it for write, lookups for
    /// read, so the coarse baseline benchmarked by E9 serializes exactly
    /// what the old broker serialized.
    coarse_gate: Option<RwLock<()>>,
}

impl IdentityBroker {
    /// Create a broker with an initial signing key derived from `seed`
    /// and the default shard count.
    pub fn new(
        issuer: impl Into<String>,
        seed: [u8; 32],
        session_ttl_secs: u64,
        clock: SimClock,
        registry: Arc<FederationRegistry>,
        authz: Arc<dyn AuthorizationSource>,
    ) -> IdentityBroker {
        IdentityBroker::with_shards(
            issuer,
            seed,
            session_ttl_secs,
            clock,
            registry,
            authz,
            DEFAULT_BROKER_SHARDS,
        )
    }

    /// Like [`IdentityBroker::new`] with an explicit shard count
    /// (rounded to a power of two; `1` reproduces the coarse-lock
    /// behaviour for baseline comparisons).
    #[allow(clippy::too_many_arguments)]
    pub fn with_shards(
        issuer: impl Into<String>,
        seed: [u8; 32],
        session_ttl_secs: u64,
        clock: SimClock,
        registry: Arc<FederationRegistry>,
        authz: Arc<dyn AuthorizationSource>,
        shards: usize,
    ) -> IdentityBroker {
        let issuer = issuer.into();
        let shards = clamp_shards(shards);
        let key_ids = IdGen::new("fds-key");
        let kid = key_ids.next();
        let ring = SignerRing {
            keys: vec![(kid, SigningKey::from_seed(&seed))],
        };
        let token_cache = Arc::new(TokenCache::new(shards));
        let jwks = Jwks {
            issuer: issuer.clone(),
            epoch: 0,
            keys: ring.prepared_keys(&HashMap::new()),
            cache: token_cache.clone(),
        };
        IdentityBroker {
            issuer,
            clock,
            registry,
            authz,
            signer: Snapshot::new(ring),
            jwks_cache: Snapshot::new(jwks),
            key_admin: Mutex::new(()),
            policies: Snapshot::new(HashMap::new()),
            sessions: ShardMap::new(shards),
            active_tokens: ShardMap::new(shards),
            revoked_tokens: ShardSet::new(shards),
            revoked_subjects: ShardSet::new(shards),
            tokens_issued: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            session_ttl_secs,
            session_ids: IdGen::new("sess"),
            jti_ids: IdGen::new("jti"),
            key_ids,
            faults: dri_fault::FaultHook::default(),
            token_cache,
            coarse_gate: (shards == 1).then(|| RwLock::new(())),
        }
    }

    /// Attach the infrastructure's shared fault hook; outages of component
    /// `broker` make login and token issuance fail with
    /// [`BrokerError::Unavailable`].
    pub fn with_fault_hook(mut self, hook: dri_fault::FaultHook) -> IdentityBroker {
        self.faults = hook;
        self
    }

    fn coarse_write(&self) -> Option<parking_lot::RwLockWriteGuard<'_, ()>> {
        self.coarse_gate.as_ref().map(|g| g.write())
    }

    fn coarse_read(&self) -> Option<parking_lot::RwLockReadGuard<'_, ()>> {
        self.coarse_gate.as_ref().map(|g| g.read())
    }

    /// Register (or replace) a per-audience token policy.
    pub fn register_service(&self, policy: TokenPolicy) {
        self.policies.rcu(|p| {
            let mut p = p.clone();
            p.insert(policy.audience.clone(), policy.clone());
            p
        });
    }

    /// Current JWKS snapshot for distribution to relying services.
    /// Cached: rebuilt only when the key ring changes.
    pub fn jwks(&self) -> Jwks {
        (*self.jwks_cache.load()).clone()
    }

    /// Current key-ring generation (bumped by rotation and prune): the
    /// epoch of the published JWKS.
    pub fn jwks_epoch(&self) -> u64 {
        self.jwks_cache.load().epoch
    }

    /// Change the key ring with `f` and publish the JWKS built from the
    /// result, under one lock: publishes happen in ring order and each
    /// bumps the epoch by one.
    fn change_ring(&self, f: impl FnOnce(&SignerRing) -> SignerRing) {
        let _admin = self.key_admin.lock();
        self.signer.rcu(f);
        // Invalidation leads caching: the verifier epoch bumps before
        // the new key set becomes visible, so no verification cached
        // under the old ring can be served once the ring changes.
        self.token_cache.bump_epoch();
        let previous = self.jwks_cache.load();
        self.jwks_cache.store(Jwks {
            issuer: self.issuer.clone(),
            epoch: previous.epoch + 1,
            keys: self.signer.load().prepared_keys(&previous.keys),
            cache: self.token_cache.clone(),
        });
    }

    /// Rotate the signing key. Old keys stay published for validation of
    /// in-flight tokens until pruned.
    pub fn rotate_keys(&self, seed: [u8; 32]) -> String {
        let kid = self.key_ids.next();
        self.change_ring(|ring| {
            let mut keys = ring.keys.clone();
            keys.push((kid.clone(), SigningKey::from_seed(&seed)));
            SignerRing { keys }
        });
        kid
    }

    /// Drop all but the newest `keep` signing keys.
    pub fn prune_keys(&self, keep: usize) {
        self.change_ring(|ring| {
            let start = ring.keys.len().saturating_sub(keep);
            SignerRing {
                keys: ring.keys[start..].to_vec(),
            }
        });
    }

    /// Establish a session from a federated (proxy) assertion. This is
    /// where *authorisation leads authentication*: an unknown subject is
    /// refused even with a perfectly valid assertion.
    pub fn login_federated(
        &self,
        proxy_entity_id: &str,
        assertion_wire: &str,
    ) -> Result<SessionInfo, BrokerError> {
        let _span = dri_trace::span_with(
            "broker.login_federated",
            dri_trace::Stage::Broker,
            &[("proxy", proxy_entity_id)],
        );
        self.faults
            .check("broker")
            .map_err(|_| BrokerError::Unavailable)?;
        let (_, proxy_key) = self
            .registry
            .lookup(proxy_entity_id)
            .filter(|(e, _)| e.kind == EntityKind::Proxy)
            .ok_or_else(|| BrokerError::UnknownProxy(proxy_entity_id.to_string()))?;
        let now = self.clock.now_secs();
        let assertion = Assertion::verify(assertion_wire, &proxy_key, &self.issuer, now)
            .map_err(BrokerError::BadAssertion)?;
        self.establish(
            assertion.subject.clone(),
            assertion.authn_context.clone(),
            IdentitySource::Federated,
            assertion.loa,
        )
    }

    /// Establish a session from a managed-IdP login.
    pub fn login_managed(
        &self,
        login: &ManagedLogin,
        source: IdentitySource,
    ) -> Result<SessionInfo, BrokerError> {
        // Managed identities are vetted by a human (admin IdP) or invited
        // (last resort); both assert High through controlled registration.
        self.establish(
            login.subject.clone(),
            login.acr.clone(),
            source,
            LevelOfAssurance::High,
        )
    }

    fn establish(
        &self,
        subject: String,
        acr: String,
        source: IdentitySource,
        loa: LevelOfAssurance,
    ) -> Result<SessionInfo, BrokerError> {
        let _span = dri_trace::span("broker.establish", dri_trace::Stage::Broker);
        let _coarse = self.coarse_write();
        if self.revoked_subjects.contains(&subject) {
            return Err(BrokerError::SubjectRevoked);
        }
        if !self.authz.is_authorized_subject(&subject) {
            return Err(BrokerError::NotAuthorized);
        }
        let now = self.clock.now_secs();
        let session = SessionInfo {
            session_id: self.session_ids.next(),
            subject,
            acr,
            source,
            loa,
            established_at: now,
            expires_at: now + self.session_ttl_secs,
            trace_id: dri_trace::current_trace_id(),
        };
        self.sessions
            .insert(session.session_id.clone(), session.clone());
        Ok(session)
    }

    /// Issue a short-lived RBAC token for `audience` from an established
    /// session. Fails closed on every policy dimension.
    pub fn issue_token(
        &self,
        session_id: &str,
        audience: &str,
    ) -> Result<(String, Claims), BrokerError> {
        self.issue_token_with_extra(session_id, audience, Vec::new())
    }

    /// Like [`IdentityBroker::issue_token`] but attaching extra claims
    /// (e.g. the project-scoped UNIX accounts for the SSH CA).
    pub fn issue_token_with_extra(
        &self,
        session_id: &str,
        audience: &str,
        extra: Vec<(String, Value)>,
    ) -> Result<(String, Claims), BrokerError> {
        self.issue_token_shared(session_id, audience, extra)
            .map(|(token, claims)| (token, Arc::unwrap_or_clone(claims)))
    }

    /// [`IdentityBroker::issue_token_with_extra`], returning the claims
    /// shared with the token cache's seed entry instead of a copy.
    pub fn issue_token_shared(
        &self,
        session_id: &str,
        audience: &str,
        extra: Vec<(String, Value)>,
    ) -> Result<(String, Arc<Claims>), BrokerError> {
        let _span = dri_trace::span_with(
            "broker.issue_token",
            dri_trace::Stage::Broker,
            &[("aud", audience)],
        );
        self.faults
            .check("broker")
            .map_err(|_| BrokerError::Unavailable)?;
        let _coarse = self.coarse_write();
        let now = self.clock.now_secs();
        // Copy out only what the token needs; the session stays in its
        // shard.
        let (subject, acr, source, loa, expires_at) = self
            .sessions
            .with(session_id, |s| {
                (
                    s.subject.clone(),
                    s.acr.clone(),
                    s.source,
                    s.loa,
                    s.expires_at,
                )
            })
            .ok_or(BrokerError::InvalidSession)?;
        let policies = self.policies.load();
        let policy = policies
            .get(audience)
            .ok_or_else(|| BrokerError::UnknownService(audience.to_string()))?;
        if now >= expires_at {
            return Err(BrokerError::SessionExpired);
        }
        if self.revoked_subjects.contains(&subject) {
            return Err(BrokerError::SubjectRevoked);
        }
        if loa < policy.min_loa {
            return Err(BrokerError::InsufficientLoa);
        }
        if let Some(required) = &policy.required_acr {
            if &acr != required {
                return Err(BrokerError::AcrMismatch);
            }
        }
        if policy.admin_only && source != IdentitySource::AdminIdp {
            return Err(BrokerError::AdminOnly);
        }
        let roles = self.authz.roles_for(&subject, audience);
        if roles.is_empty() {
            return Err(BrokerError::NoRolesForAudience);
        }

        // Count the issue on the subject's shard, record the active
        // token on the jti's shard, and sign off an immutable key-ring
        // snapshot — three independent touch points, no global lock.
        let shard = shard_index(hash_key(&subject), self.tokens_issued.len());
        self.tokens_issued[shard].fetch_add(1, Ordering::Relaxed);
        let token_id = self.jti_ids.next();
        let expires_at = now + policy.ttl_secs;
        self.active_tokens
            .insert(token_id.clone(), (subject.clone(), expires_at));
        let mut claims = Claims::new(self.issuer.clone(), subject, audience, now, policy.ttl_secs);
        claims.token_id = token_id;
        claims.session_id = session_id.to_string();
        claims.acr = acr;
        claims.roles = roles;
        claims.extra = extra;
        let ring = self.signer.load();
        let (kid, key) = ring.keys.last().expect("at least one key");
        let token = jwt::sign(&claims, &Signer::Ed25519(key), kid);
        // Issuer and verifiers share a trust domain: seed the verified-
        // token cache at sign time so the first validation is a hit.
        let claims = Arc::new(claims);
        self.token_cache.seed(kid, &token, Arc::clone(&claims));
        Ok((token, claims))
    }

    /// RFC 8693-style token exchange: a service holding a user's token
    /// for *its own* audience obtains a derived, narrower token for a
    /// downstream audience (e.g. Jupyter exchanging the user's `jupyter`
    /// token for a `slurm` token to submit the kernel job).
    ///
    /// The derived token:
    /// * carries the same subject and session binding;
    /// * names the exchanging service in an `act` (actor) claim;
    /// * expires no later than the subject token;
    /// * is still gated on the subject's roles for the target audience
    ///   and the target's policy (LoA / ACR / admin gates).
    pub fn exchange_token(
        &self,
        subject_token: &str,
        requesting_audience: &str,
        target_audience: &str,
    ) -> Result<(String, Claims), BrokerError> {
        let _span = dri_trace::span_with(
            "broker.exchange_token",
            dri_trace::Stage::Broker,
            &[("from", requesting_audience), ("to", target_audience)],
        );
        let now = self.clock.now_secs();
        let claims = self
            .jwks_cache
            .load()
            .validate(subject_token, requesting_audience, now)
            .map_err(|_| BrokerError::InvalidSession)?;
        if !self.introspect(&claims.token_id) {
            return Err(BrokerError::InvalidSession);
        }
        // Re-run full policy for the target audience off the same
        // session; the returned wire token is discarded because the
        // derived claims are re-signed below.
        let (_, mut derived) = self.issue_token(&claims.session_id, target_audience)?;
        // Cap the derived expiry at the subject token's and stamp the actor.
        derived
            .extra
            .push(("act".to_string(), Value::s(requesting_audience)));
        if derived.expires_at > claims.expires_at {
            derived.expires_at = claims.expires_at;
            // Correct the active-token record to the capped expiry.
            self.active_tokens.insert(
                derived.token_id.clone(),
                (derived.subject.clone(), derived.expires_at),
            );
        }
        // Re-sign (the actor claim and possibly the expiry changed).
        let ring = self.signer.load();
        let (kid, key) = ring.keys.last().expect("key");
        let token = jwt::sign(&derived, &Signer::Ed25519(key), kid);
        self.token_cache
            .seed(kid, &token, Arc::new(derived.clone()));
        Ok((token, derived))
    }

    /// Step-up authentication: a live session presents a stronger second
    /// factor and its ACR is upgraded in place (e.g. `pwd` -> `pwd+totp`).
    /// Downgrades are refused.
    pub fn step_up_session(
        &self,
        session_id: &str,
        new_acr: &str,
    ) -> Result<SessionInfo, BrokerError> {
        let rank = |acr: &str| match acr {
            "mfa-hw" => 3,
            "mfa-totp" | "pwd+totp" => 2,
            "pwd" => 1,
            _ => 0,
        };
        self.sessions
            .with_mut(session_id, |session| {
                if rank(new_acr) < rank(&session.acr) {
                    return Err(BrokerError::AcrMismatch);
                }
                session.acr = new_acr.to_string();
                Ok(session.clone())
            })
            .unwrap_or(Err(BrokerError::InvalidSession))
    }

    /// Introspection: is the token id still active (unexpired session-side
    /// and not revoked)? Services enforcing per-session access call this
    /// in addition to local JWKS validation.
    pub fn introspect(&self, jti: &str) -> bool {
        let _coarse = self.coarse_read();
        if self.revoked_tokens.contains(jti) {
            return false;
        }
        self.active_tokens
            .with(jti, |(subject, exp)| {
                !self.revoked_subjects.contains(subject) && self.clock.now_secs() < *exp
            })
            .unwrap_or(false)
    }

    /// Revoke a single token.
    ///
    /// Revocation is enforced by introspection (the JWKS path checks
    /// signatures, not liveness); bumping the verifier epoch first is
    /// defence in depth — no verification cached before the revocation
    /// survives it.
    pub fn revoke_token(&self, jti: &str) {
        self.token_cache.bump_epoch();
        self.revoked_tokens.insert(jti.to_string());
    }

    /// End a session (logout or kill switch). Tokens already issued remain
    /// until expiry unless services introspect.
    pub fn revoke_session(&self, session_id: &str) {
        self.sessions.remove(session_id);
    }

    /// Revoke a subject outright: sessions die, introspection fails, new
    /// logins are refused. The identity-layer kill switch.
    ///
    /// The revocation mark lands first (on the subject's shard), then a
    /// cross-shard sweep removes every session — so a login racing the
    /// kill either misses the session map or is refused at establish.
    pub fn revoke_subject(&self, subject: &str) {
        self.token_cache.bump_epoch();
        self.revoked_subjects.insert(subject.to_string());
        self.sessions.retain(|_, s| s.subject != subject);
    }

    /// Lift a subject revocation (post-incident).
    pub fn reinstate_subject(&self, subject: &str) {
        self.token_cache.bump_epoch();
        self.revoked_subjects.remove(subject);
    }

    /// Look up a live session.
    pub fn session(&self, session_id: &str) -> Option<SessionInfo> {
        self.with_session(session_id, SessionInfo::clone)
    }

    /// Read a live session in place, without cloning it. `f` runs under
    /// the session's shard lock, so it must not call back into the
    /// broker.
    pub fn with_session<R>(
        &self,
        session_id: &str,
        f: impl FnOnce(&SessionInfo) -> R,
    ) -> Option<R> {
        let _coarse = self.coarse_read();
        self.sessions.with(session_id, f)
    }

    /// Every live session of `subject`, sorted by session id for
    /// deterministic iteration. Incident response reads these *before*
    /// [`IdentityBroker::revoke_subject`] wipes them, e.g. to attach
    /// the originating login's trace id to the kill-switch event.
    pub fn sessions_of_subject(&self, subject: &str) -> Vec<SessionInfo> {
        let _coarse = self.coarse_read();
        let mut out = Vec::new();
        self.sessions.for_each(|_, s| {
            if s.subject == subject {
                out.push(s.clone());
            }
        });
        out.sort_by(|a, b| a.session_id.cmp(&b.session_id));
        out
    }

    /// Total tokens issued (metrics): the sum of the per-shard counters.
    pub fn tokens_issued(&self) -> u64 {
        self.tokens_issued
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Tokens issued per subject shard, in shard order. Routing is a
    /// stable hash of the subject, so for a fixed input set these
    /// counts are identical across serial and parallel runs.
    pub fn shard_token_counts(&self) -> Vec<u64> {
        self.tokens_issued
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Number of shards backing each concurrent map.
    pub fn shard_count(&self) -> usize {
        self.tokens_issued.len()
    }

    /// The shared verified-token cache (seeded at issuance, consulted by
    /// every published [`Jwks`] snapshot, epoch-bumped by every
    /// security-state change).
    pub fn token_cache(&self) -> &Arc<TokenCache> {
        &self.token_cache
    }

    /// Live session count (metrics).
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Live sessions per shard, in shard order.
    pub fn session_shard_lens(&self) -> Vec<usize> {
        self.sessions.shard_lens()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authz::StaticAuthz;
    use dri_federation::metadata::EntityDescriptor;
    use dri_federation::types::{Attribute, EntityCategory};

    struct Fixture {
        broker: IdentityBroker,
        proxy_key: SigningKey,
        authz: Arc<StaticAuthz>,
        clock: SimClock,
    }

    const PROXY: &str = "https://proxy.myaccessid.org";
    const BROKER: &str = "https://broker.isambard.ac.uk";

    fn fixture() -> Fixture {
        let clock = SimClock::starting_at(1_000_000_000);
        let registry = Arc::new(FederationRegistry::new());
        registry.register_federation("edugain", "GEANT");
        let proxy_key = SigningKey::from_seed(&[11u8; 32]);
        registry
            .register_entity(EntityDescriptor {
                entity_id: PROXY.into(),
                display_name: "MyAccessID".into(),
                kind: EntityKind::Proxy,
                home_federation: "edugain".into(),
                categories: vec![EntityCategory::ResearchAndScholarship],
                max_loa: LevelOfAssurance::High,
                signing_key: proxy_key.verifying_key(),
            })
            .unwrap();
        let authz = Arc::new(StaticAuthz::new());
        let broker = IdentityBroker::new(
            BROKER,
            [12u8; 32],
            8 * 3600,
            clock.clone(),
            registry,
            authz.clone(),
        );
        broker.register_service(TokenPolicy::standard("ssh-ca", 900));
        broker.register_service(TokenPolicy::admin("mgmt-tailnet", 600));
        Fixture {
            broker,
            proxy_key,
            authz,
            clock,
        }
    }

    fn proxy_assertion(f: &Fixture, cuid: &str) -> String {
        let now = f.clock.now_secs();
        Assertion {
            issuer: PROXY.into(),
            subject: cuid.into(),
            audience: BROKER.into(),
            issued_at: now,
            expires_at: now + 300,
            authn_context: "pwd".into(),
            loa: LevelOfAssurance::Medium,
            attributes: vec![Attribute::new("voPersonID", cuid)],
            assertion_id: format!("a-{cuid}-{now}"),
        }
        .sign(&f.proxy_key)
    }

    #[test]
    fn authorization_leads_authentication() {
        let f = fixture();
        let wire = proxy_assertion(&f, "maid-000001");
        // Valid assertion, but no grants: refused.
        assert!(matches!(
            f.broker.login_federated(PROXY, &wire),
            Err(BrokerError::NotAuthorized)
        ));
        // After a grant appears, the same user can register.
        f.authz.grant("maid-000001", "ssh-ca", &["researcher"]);
        let wire2 = proxy_assertion(&f, "maid-000001");
        let session = f.broker.login_federated(PROXY, &wire2).unwrap();
        assert_eq!(session.subject, "maid-000001");
        assert_eq!(session.source, IdentitySource::Federated);
    }

    #[test]
    fn issued_token_validates_against_jwks() {
        let f = fixture();
        f.authz.grant("maid-000001", "ssh-ca", &["researcher"]);
        let session = f
            .broker
            .login_federated(PROXY, &proxy_assertion(&f, "maid-000001"))
            .unwrap();
        let (token, claims) = f.broker.issue_token(&session.session_id, "ssh-ca").unwrap();
        let jwks = f.broker.jwks();
        let validated = jwks.validate(&token, "ssh-ca", f.clock.now_secs()).unwrap();
        assert_eq!(validated, claims);
        assert!(validated.has_role("researcher"));
        // Wrong audience fails.
        assert!(jwks
            .validate(&token, "jupyter", f.clock.now_secs())
            .is_err());
        assert!(f.broker.introspect(&claims.token_id));
    }

    #[test]
    fn token_expiry_enforced_via_jwks() {
        let f = fixture();
        f.authz.grant("u", "ssh-ca", &["researcher"]);
        let session = f
            .broker
            .login_federated(PROXY, &proxy_assertion(&f, "u"))
            .unwrap();
        let (token, claims) = f.broker.issue_token(&session.session_id, "ssh-ca").unwrap();
        f.clock.advance_secs(901);
        assert!(f
            .broker
            .jwks()
            .validate(&token, "ssh-ca", f.clock.now_secs())
            .is_err());
        assert!(!f.broker.introspect(&claims.token_id));
    }

    #[test]
    fn session_expiry_requires_reauth() {
        let f = fixture();
        f.authz.grant("u", "ssh-ca", &["researcher"]);
        let session = f
            .broker
            .login_federated(PROXY, &proxy_assertion(&f, "u"))
            .unwrap();
        f.clock.advance_secs(8 * 3600 + 1);
        assert!(matches!(
            f.broker.issue_token(&session.session_id, "ssh-ca"),
            Err(BrokerError::SessionExpired)
        ));
    }

    #[test]
    fn no_roles_no_token() {
        let f = fixture();
        f.authz.grant("u", "ssh-ca", &["researcher"]);
        let session = f
            .broker
            .login_federated(PROXY, &proxy_assertion(&f, "u"))
            .unwrap();
        f.broker
            .register_service(TokenPolicy::standard("jupyter", 900));
        assert!(matches!(
            f.broker.issue_token(&session.session_id, "jupyter"),
            Err(BrokerError::NoRolesForAudience)
        ));
        assert!(matches!(
            f.broker.issue_token(&session.session_id, "unregistered"),
            Err(BrokerError::UnknownService(_))
        ));
    }

    #[test]
    fn admin_audience_rejects_federated_sessions() {
        let f = fixture();
        f.authz.grant("u", "mgmt-tailnet", &["sysadmin"]);
        f.authz.grant("u", "ssh-ca", &["researcher"]);
        let session = f
            .broker
            .login_federated(PROXY, &proxy_assertion(&f, "u"))
            .unwrap();
        // Federated session: admin_only + acr + loa all fail; loa first.
        let err = f.broker.issue_token(&session.session_id, "mgmt-tailnet");
        assert!(matches!(
            err,
            Err(BrokerError::InsufficientLoa)
                | Err(BrokerError::AcrMismatch)
                | Err(BrokerError::AdminOnly)
        ));
    }

    #[test]
    fn admin_session_gets_admin_token() {
        let f = fixture();
        f.authz.grant("admin:dave", "mgmt-tailnet", &["sysadmin"]);
        let login = ManagedLogin {
            subject: "admin:dave".into(),
            acr: "mfa-hw".into(),
        };
        let session = f
            .broker
            .login_managed(&login, IdentitySource::AdminIdp)
            .unwrap();
        let (token, claims) = f
            .broker
            .issue_token(&session.session_id, "mgmt-tailnet")
            .unwrap();
        assert!(claims.has_role("sysadmin"));
        assert_eq!(claims.acr, "mfa-hw");
        assert!(f
            .broker
            .jwks()
            .validate(&token, "mgmt-tailnet", f.clock.now_secs())
            .is_ok());
    }

    #[test]
    fn last_resort_session_cannot_reach_admin_audience() {
        let f = fixture();
        f.authz
            .grant("last-resort:vendor", "mgmt-tailnet", &["sysadmin"]);
        let login = ManagedLogin {
            subject: "last-resort:vendor".into(),
            acr: "mfa-totp".into(),
        };
        let session = f
            .broker
            .login_managed(&login, IdentitySource::LastResort)
            .unwrap();
        assert!(matches!(
            f.broker.issue_token(&session.session_id, "mgmt-tailnet"),
            Err(BrokerError::AcrMismatch) | Err(BrokerError::AdminOnly)
        ));
    }

    #[test]
    fn revocation_kill_switch() {
        let f = fixture();
        f.authz.grant("u", "ssh-ca", &["researcher"]);
        let session = f
            .broker
            .login_federated(PROXY, &proxy_assertion(&f, "u"))
            .unwrap();
        let (_, claims) = f.broker.issue_token(&session.session_id, "ssh-ca").unwrap();
        assert!(f.broker.introspect(&claims.token_id));

        f.broker.revoke_subject("u");
        // Introspection now fails even though the JWT is unexpired.
        assert!(!f.broker.introspect(&claims.token_id));
        // Session is gone.
        assert!(matches!(
            f.broker.issue_token(&session.session_id, "ssh-ca"),
            Err(BrokerError::InvalidSession)
        ));
        // New logins are refused.
        assert!(matches!(
            f.broker.login_federated(PROXY, &proxy_assertion(&f, "u")),
            Err(BrokerError::SubjectRevoked)
        ));
        // Reinstatement restores access.
        f.broker.reinstate_subject("u");
        assert!(f
            .broker
            .login_federated(PROXY, &proxy_assertion(&f, "u"))
            .is_ok());
    }

    #[test]
    fn key_rotation_keeps_old_tokens_valid_until_prune() {
        let f = fixture();
        f.authz.grant("u", "ssh-ca", &["researcher"]);
        let session = f
            .broker
            .login_federated(PROXY, &proxy_assertion(&f, "u"))
            .unwrap();
        let (old_token, _) = f.broker.issue_token(&session.session_id, "ssh-ca").unwrap();
        f.broker.rotate_keys([99u8; 32]);
        let (new_token, _) = f.broker.issue_token(&session.session_id, "ssh-ca").unwrap();
        let jwks = f.broker.jwks();
        assert_eq!(jwks.key_count(), 2);
        let now = f.clock.now_secs();
        assert!(jwks.validate(&old_token, "ssh-ca", now).is_ok());
        assert!(jwks.validate(&new_token, "ssh-ca", now).is_ok());
        // After pruning to 1 key, the old token no longer validates.
        f.broker.prune_keys(1);
        let jwks2 = f.broker.jwks();
        assert!(jwks2.validate(&old_token, "ssh-ca", now).is_err());
        assert!(jwks2.validate(&new_token, "ssh-ca", now).is_ok());
    }

    #[test]
    fn concurrent_rotation_and_prune_publish_in_order() {
        for trial in 0..10u8 {
            let f = fixture();
            f.authz.grant("u", "ssh-ca", &["researcher"]);
            let session = f
                .broker
                .login_federated(PROXY, &proxy_assertion(&f, "u"))
                .unwrap();
            // Writers and reader start together; the reader polls the
            // published epoch until both writers are done.
            let start = std::sync::Barrier::new(3);
            let writers_done = AtomicU64::new(0);
            std::thread::scope(|scope| {
                for writer in 0..2u8 {
                    let (broker, start, writers_done) = (&f.broker, &start, &writers_done);
                    scope.spawn(move || {
                        start.wait();
                        for i in 0..8u8 {
                            // A distinct key seed per rotation.
                            broker.rotate_keys([64 + 16 * trial + 8 * writer + i; 32]);
                            broker.prune_keys(1);
                        }
                        writers_done.fetch_add(1, Ordering::Release);
                    });
                }
                let (broker, start, writers_done) = (&f.broker, &start, &writers_done);
                scope.spawn(move || {
                    start.wait();
                    let mut seen = 0;
                    while writers_done.load(Ordering::Acquire) < 2 {
                        let epoch = broker.jwks().epoch;
                        assert!(epoch >= seen, "published epoch went {seen} -> {epoch}");
                        seen = epoch;
                    }
                });
            });
            let jwks = f.broker.jwks();
            assert_eq!(jwks.epoch, f.broker.jwks_epoch());
            assert_eq!(jwks.key_count(), 1);
            let (token, _) = f.broker.issue_token(&session.session_id, "ssh-ca").unwrap();
            assert!(jwks.validate(&token, "ssh-ca", f.clock.now_secs()).is_ok());
        }
    }

    #[test]
    fn token_exchange_derives_narrower_token() {
        let f = fixture();
        f.authz.grant("u", "ssh-ca", &["researcher"]);
        f.broker
            .register_service(TokenPolicy::standard("jupyter", 900));
        f.broker
            .register_service(TokenPolicy::standard("slurm", 7200));
        f.authz.grant("u", "jupyter", &["researcher"]);
        f.authz.grant("u", "slurm", &["researcher"]);
        let session = f
            .broker
            .login_federated(PROXY, &proxy_assertion(&f, "u"))
            .unwrap();
        let (jupyter_token, jc) = f
            .broker
            .issue_token(&session.session_id, "jupyter")
            .unwrap();
        let (slurm_token, sc) = f
            .broker
            .exchange_token(&jupyter_token, "jupyter", "slurm")
            .unwrap();
        assert_eq!(sc.subject, jc.subject);
        assert_eq!(sc.audience, "slurm");
        // Derived expiry capped at the subject token's.
        assert!(sc.expires_at <= jc.expires_at);
        // Actor claim present.
        assert_eq!(
            sc.extra_claim("act").and_then(Value::as_str),
            Some("jupyter")
        );
        // And it validates.
        assert!(f
            .broker
            .jwks()
            .validate(&slurm_token, "slurm", f.clock.now_secs())
            .is_ok());
    }

    #[test]
    fn token_exchange_respects_target_policy() {
        let f = fixture();
        f.authz.grant("u", "ssh-ca", &["researcher"]);
        let session = f
            .broker
            .login_federated(PROXY, &proxy_assertion(&f, "u"))
            .unwrap();
        let (token, _) = f.broker.issue_token(&session.session_id, "ssh-ca").unwrap();
        // No roles on mgmt-tailnet (and LoA/ACR gates anyway): refused.
        assert!(f
            .broker
            .exchange_token(&token, "ssh-ca", "mgmt-tailnet")
            .is_err());
        // A revoked subject token cannot be exchanged.
        let (t2, c2) = f.broker.issue_token(&session.session_id, "ssh-ca").unwrap();
        f.broker.revoke_token(&c2.token_id);
        assert!(matches!(
            f.broker.exchange_token(&t2, "ssh-ca", "ssh-ca"),
            Err(BrokerError::InvalidSession)
        ));
    }

    #[test]
    fn step_up_upgrades_never_downgrades() {
        let f = fixture();
        f.authz.grant("u", "ssh-ca", &["researcher"]);
        let session = f
            .broker
            .login_federated(PROXY, &proxy_assertion(&f, "u"))
            .unwrap();
        assert_eq!(session.acr, "pwd");
        let upgraded = f
            .broker
            .step_up_session(&session.session_id, "pwd+totp")
            .unwrap();
        assert_eq!(upgraded.acr, "pwd+totp");
        // Downgrade refused.
        assert!(matches!(
            f.broker.step_up_session(&session.session_id, "pwd"),
            Err(BrokerError::AcrMismatch)
        ));
        // Unknown session refused.
        assert!(matches!(
            f.broker.step_up_session("sess-999999", "mfa-hw"),
            Err(BrokerError::InvalidSession)
        ));
    }

    #[test]
    fn single_token_revocation() {
        let f = fixture();
        f.authz.grant("u", "ssh-ca", &["researcher"]);
        let session = f
            .broker
            .login_federated(PROXY, &proxy_assertion(&f, "u"))
            .unwrap();
        let (_, c1) = f.broker.issue_token(&session.session_id, "ssh-ca").unwrap();
        let (_, c2) = f.broker.issue_token(&session.session_id, "ssh-ca").unwrap();
        f.broker.revoke_token(&c1.token_id);
        assert!(!f.broker.introspect(&c1.token_id));
        assert!(f.broker.introspect(&c2.token_id));
    }
}
