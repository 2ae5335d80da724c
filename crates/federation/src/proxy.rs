//! The MyAccessID-style IdP/SP proxy.
//!
//! The proxy is the hinge of the paper's federation design: it is a
//! *service provider* towards the institutional IdPs and an *identity
//! provider* towards infrastructure services (the identity broker in FDS).
//! It provides:
//!
//! * the **discovery service** — the list of eligible IdPs a user can pick
//!   from on the login page (Fig. 2), filtered to R&S-compliant entities;
//! * the **account registry** — a persistent, unique community identifier
//!   (`cuid`) per human, regardless of how many institutional identities
//!   they link;
//! * **assurance handling** — the proxy forwards the IdP's LoA and can
//!   elevate it after out-of-band vetting (AARC LoA "Cappuccino"-style);
//! * **proxy assertions** towards registered downstream services, signed
//!   with the proxy's own key.

use std::collections::HashMap;

use dri_clock::{IdGen, SimClock};
use dri_crypto::ed25519::{SigningKey, VerifyingKey};
use parking_lot::RwLock;

use crate::assertion::{Assertion, AssertionError};
use crate::metadata::{EntityKind, FederationRegistry};
use crate::types::{Attribute, EntityCategory, LevelOfAssurance};

/// TTL of assertions the proxy issues downstream (seconds).
const PROXY_ASSERTION_TTL_SECS: u64 = 300;

/// A row in the discovery ("where are you from?") list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscoveryEntry {
    /// IdP entity id.
    pub entity_id: String,
    /// Display name shown to the user.
    pub display_name: String,
    /// Assurance ceiling for this IdP.
    pub max_loa: LevelOfAssurance,
}

/// A registered community account.
#[derive(Debug, Clone)]
pub struct CommunityAccount {
    /// Persistent unique community id (never reassigned).
    pub cuid: String,
    /// Linked institutional identities as `(idp_entity_id, subject)`.
    pub linked_identities: Vec<(String, String)>,
    /// Registration time (seconds).
    pub registered_at: u64,
    /// Current effective assurance (max over linked identities and any
    /// out-of-band vetting).
    pub loa: LevelOfAssurance,
    /// Latest attribute snapshot from the home IdP.
    pub attributes: Vec<Attribute>,
    /// Suspended accounts cannot authenticate (kill switch / incident).
    pub suspended: bool,
}

/// Proxy errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProxyError {
    /// The asserting IdP is not in federation metadata.
    UnknownIdp(String),
    /// The IdP is registered but lacks the required category.
    IdpNotEligible(String),
    /// Upstream assertion failed verification.
    BadAssertion(AssertionError),
    /// The downstream service is not registered with the proxy.
    UnknownService(String),
    /// Account is suspended.
    Suspended,
    /// No such account.
    UnknownAccount,
    /// Replay of an assertion id we have already consumed.
    Replay,
    /// The proxy itself is unreachable (injected outage or flaky
    /// window). Transient: callers should retry with backoff.
    Unavailable,
}

impl std::fmt::Display for ProxyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProxyError::UnknownIdp(x) => write!(f, "unknown IdP {x}"),
            ProxyError::IdpNotEligible(x) => write!(f, "IdP {x} lacks required category"),
            ProxyError::BadAssertion(e) => write!(f, "bad upstream assertion: {e}"),
            ProxyError::UnknownService(x) => write!(f, "unknown downstream service {x}"),
            ProxyError::Suspended => write!(f, "account suspended"),
            ProxyError::UnknownAccount => write!(f, "unknown account"),
            ProxyError::Replay => write!(f, "assertion replay detected"),
            ProxyError::Unavailable => write!(f, "identity proxy unavailable"),
        }
    }
}

impl std::error::Error for ProxyError {}

/// The IdP proxy service.
pub struct IdpProxy {
    /// Proxy entity id (the audience institutional IdPs address).
    pub entity_id: String,
    signing_key: SigningKey,
    clock: SimClock,
    registry: std::sync::Arc<FederationRegistry>,
    /// Downstream services allowed to receive proxy assertions.
    services: RwLock<HashMap<String, ()>>,
    accounts: RwLock<HashMap<String, CommunityAccount>>, // cuid -> account
    identity_index: RwLock<HashMap<(String, String), String>>, // (idp, sub) -> cuid
    consumed_assertions: RwLock<std::collections::HashSet<String>>,
    ids: IdGen,
    faults: dri_fault::FaultHook,
}

impl IdpProxy {
    /// Create a proxy bound to a federation registry. Outages of
    /// component `proxy` on `faults` make
    /// [`broker_login`](IdpProxy::broker_login) fail with
    /// [`ProxyError::Unavailable`].
    pub fn new(
        entity_id: impl Into<String>,
        seed: [u8; 32],
        clock: SimClock,
        registry: std::sync::Arc<FederationRegistry>,
        faults: dri_fault::FaultHook,
    ) -> IdpProxy {
        IdpProxy {
            entity_id: entity_id.into(),
            signing_key: SigningKey::from_seed(&seed),
            clock,
            registry,
            services: RwLock::new(HashMap::new()),
            accounts: RwLock::new(HashMap::new()),
            identity_index: RwLock::new(HashMap::new()),
            consumed_assertions: RwLock::new(std::collections::HashSet::new()),
            ids: IdGen::new("maid"),
            faults,
        }
    }

    /// The proxy's assertion-signing public key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.signing_key.verifying_key()
    }

    /// Register a downstream Infrastructure Service Domain (e.g. the
    /// Isambard identity broker) as an allowed audience.
    pub fn register_service(&self, service_entity_id: impl Into<String>) {
        self.services.write().insert(service_entity_id.into(), ());
    }

    /// The discovery list: R&S-compliant IdPs, sorted by entity id.
    /// This is what the Fig. 2 login page renders.
    pub fn discovery_list(&self) -> Vec<DiscoveryEntry> {
        self.registry
            .idps_with_category(EntityCategory::ResearchAndScholarship)
            .into_iter()
            .map(|e| DiscoveryEntry {
                entity_id: e.entity_id,
                display_name: e.display_name,
                max_loa: e.max_loa,
            })
            .collect()
    }

    /// Consume an upstream IdP assertion: verify it against federation
    /// metadata, find-or-create the community account, and issue a proxy
    /// assertion addressed to `service_entity_id`.
    ///
    /// Returns `(cuid, wire_assertion)`.
    pub fn broker_login(
        &self,
        idp_entity_id: &str,
        upstream_wire: &str,
        service_entity_id: &str,
    ) -> Result<(String, String), ProxyError> {
        let _span = dri_trace::span_with(
            "proxy.broker_login",
            dri_trace::Stage::Discovery,
            &[("idp", idp_entity_id)],
        );
        self.faults
            .check("proxy")
            .map_err(|_| ProxyError::Unavailable)?;
        if !self.services.read().contains_key(service_entity_id) {
            return Err(ProxyError::UnknownService(service_entity_id.to_string()));
        }
        let (idp, idp_key) = self
            .registry
            .lookup(idp_entity_id)
            .ok_or_else(|| ProxyError::UnknownIdp(idp_entity_id.to_string()))?;
        if idp.kind != EntityKind::IdentityProvider
            || !idp.has_category(EntityCategory::ResearchAndScholarship)
        {
            return Err(ProxyError::IdpNotEligible(idp_entity_id.to_string()));
        }
        let now = self.clock.now_secs();
        let upstream = Assertion::verify(upstream_wire, &idp_key, &self.entity_id, now)
            .map_err(ProxyError::BadAssertion)?;
        if upstream.issuer != idp_entity_id {
            return Err(ProxyError::BadAssertion(AssertionError::BadSignature));
        }
        // One-time use: a captured assertion cannot be replayed.
        if !self
            .consumed_assertions
            .write()
            .insert(upstream.assertion_id.clone())
        {
            return Err(ProxyError::Replay);
        }

        let key = (idp_entity_id.to_string(), upstream.subject.clone());
        let cuid = {
            let index = self.identity_index.read();
            index.get(&key).cloned()
        };
        let cuid = match cuid {
            Some(cuid) => {
                let mut accounts = self.accounts.write();
                let account = accounts.get_mut(&cuid).expect("index points at account");
                if account.suspended {
                    return Err(ProxyError::Suspended);
                }
                account.attributes = upstream.attributes.clone();
                account.loa = account.loa.max(upstream.loa);
                cuid
            }
            None => {
                let cuid = self.ids.next();
                let account = CommunityAccount {
                    cuid: cuid.clone(),
                    linked_identities: vec![key.clone()],
                    registered_at: now,
                    loa: upstream.loa,
                    attributes: upstream.attributes.clone(),
                    suspended: false,
                };
                self.accounts.write().insert(cuid.clone(), account);
                self.identity_index.write().insert(key, cuid.clone());
                cuid
            }
        };

        let account = self.accounts.read().get(&cuid).cloned().expect("exists");
        let mut attributes = account.attributes.clone();
        attributes.push(Attribute::new("voPersonID", cuid.clone()));
        let assertion = Assertion {
            issuer: self.entity_id.clone(),
            subject: cuid.clone(),
            audience: service_entity_id.to_string(),
            issued_at: now,
            expires_at: now + PROXY_ASSERTION_TTL_SECS,
            authn_context: upstream.authn_context.clone(),
            loa: account.loa,
            attributes,
            assertion_id: format!("{}#{}", self.entity_id, upstream.assertion_id),
        };
        Ok((cuid, assertion.sign(&self.signing_key)))
    }

    /// Link an additional institutional identity to an existing account
    /// (the user proves control of both via fresh assertions upstream;
    /// here the already-verified pair is recorded).
    pub fn link_identity(
        &self,
        cuid: &str,
        idp_entity_id: &str,
        subject: &str,
    ) -> Result<(), ProxyError> {
        let mut accounts = self.accounts.write();
        let account = accounts.get_mut(cuid).ok_or(ProxyError::UnknownAccount)?;
        let key = (idp_entity_id.to_string(), subject.to_string());
        let mut index = self.identity_index.write();
        if index.contains_key(&key) {
            // Already linked somewhere: uniqueness guarantee forbids
            // double-linking.
            return Err(ProxyError::Replay);
        }
        account.linked_identities.push(key.clone());
        index.insert(key, cuid.to_string());
        Ok(())
    }

    /// Elevate assurance after out-of-band vetting (e.g. HPC-centre
    /// document check).
    pub fn elevate_loa(&self, cuid: &str, loa: LevelOfAssurance) -> Result<(), ProxyError> {
        let mut accounts = self.accounts.write();
        let account = accounts.get_mut(cuid).ok_or(ProxyError::UnknownAccount)?;
        account.loa = account.loa.max(loa);
        Ok(())
    }

    /// Suspend / unsuspend an account (incident response).
    pub fn set_suspended(&self, cuid: &str, suspended: bool) -> Result<(), ProxyError> {
        let mut accounts = self.accounts.write();
        let account = accounts.get_mut(cuid).ok_or(ProxyError::UnknownAccount)?;
        account.suspended = suspended;
        Ok(())
    }

    /// Fetch an account snapshot.
    pub fn account(&self, cuid: &str) -> Option<CommunityAccount> {
        self.accounts.read().get(cuid).cloned()
    }

    /// Registered account count.
    pub fn account_count(&self) -> usize {
        self.accounts.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idp::IdentityProvider;
    use crate::metadata::EntityDescriptor;
    use std::sync::Arc;

    struct Fixture {
        proxy: IdpProxy,
        idp: IdentityProvider,
        registry: Arc<FederationRegistry>,
        clock: SimClock,
    }

    /// The Bristol IdP with `alice` provisioned, keyed from `seed`.
    fn bristol(seed: [u8; 32], clock: &SimClock) -> IdentityProvider {
        let idp = IdentityProvider::new(
            "https://idp.bristol.ac.uk",
            "bristol.ac.uk",
            LevelOfAssurance::Medium,
            seed,
            clock.clone(),
            dri_fault::FaultHook::default(),
        );
        idp.provision_user("alice", "pw", "Alice", "staff", None);
        idp
    }

    fn register(registry: &FederationRegistry, idp: &IdentityProvider) {
        registry
            .register_entity(EntityDescriptor {
                entity_id: idp.entity_id.clone(),
                display_name: "University of Bristol".into(),
                kind: EntityKind::IdentityProvider,
                home_federation: "ukamf".into(),
                categories: vec![EntityCategory::ResearchAndScholarship],
                max_loa: LevelOfAssurance::Medium,
                signing_key: idp.verifying_key(),
            })
            .unwrap();
    }

    fn fixture() -> Fixture {
        let clock = SimClock::starting_at(1_000_000);
        let registry = Arc::new(FederationRegistry::new());
        registry.register_federation("ukamf", "Jisc");
        let idp = bristol([1u8; 32], &clock);
        register(&registry, &idp);
        let proxy = IdpProxy::new(
            "https://proxy.myaccessid.org",
            [2u8; 32],
            clock.clone(),
            registry.clone(),
            dri_fault::FaultHook::default(),
        );
        proxy.register_service("https://broker.isambard.ac.uk");
        Fixture {
            proxy,
            idp,
            registry,
            clock,
        }
    }

    fn login(f: &Fixture) -> (String, String) {
        let wire = f
            .idp
            .authenticate("alice", "pw", None, "https://proxy.myaccessid.org")
            .unwrap();
        f.proxy
            .broker_login(
                "https://idp.bristol.ac.uk",
                &wire,
                "https://broker.isambard.ac.uk",
            )
            .unwrap()
    }

    #[test]
    fn first_login_registers_account_with_persistent_cuid() {
        let f = fixture();
        let (cuid1, assertion_wire) = login(&f);
        assert_eq!(f.proxy.account_count(), 1);
        // Downstream assertion verifies against the proxy key and carries
        // the cuid as subject.
        let a = Assertion::verify(
            &assertion_wire,
            &(&f.proxy.verifying_key()).into(),
            "https://broker.isambard.ac.uk",
            1000,
        )
        .unwrap();
        assert_eq!(a.subject, cuid1);
        assert_eq!(a.attribute("voPersonID"), Some(cuid1.as_str()));
        // Second login: same cuid, no second account.
        let (cuid2, _) = login(&f);
        assert_eq!(cuid1, cuid2);
        assert_eq!(f.proxy.account_count(), 1);
    }

    /// Invalidation leads caching for the registry's prepared keys: after
    /// the IdP re-keys (deregistered, then registered with a new key), an
    /// assertion signed under the old key is refused.
    #[test]
    fn rekeyed_idp_assertions_under_the_old_key_are_refused() {
        let f = fixture();
        let old_wire = f
            .idp
            .authenticate("alice", "pw", None, "https://proxy.myaccessid.org")
            .unwrap();
        let rekeyed = bristol([3u8; 32], &f.clock);
        f.registry
            .deregister_entity("https://idp.bristol.ac.uk")
            .unwrap();
        register(&f.registry, &rekeyed);
        assert_eq!(
            f.proxy.broker_login(
                "https://idp.bristol.ac.uk",
                &old_wire,
                "https://broker.isambard.ac.uk"
            ),
            Err(ProxyError::BadAssertion(AssertionError::BadSignature))
        );
        let new_wire = rekeyed
            .authenticate("alice", "pw", None, "https://proxy.myaccessid.org")
            .unwrap();
        assert!(f
            .proxy
            .broker_login(
                "https://idp.bristol.ac.uk",
                &new_wire,
                "https://broker.isambard.ac.uk"
            )
            .is_ok());
    }

    #[test]
    fn discovery_lists_rns_idps() {
        let f = fixture();
        let list = f.proxy.discovery_list();
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].display_name, "University of Bristol");
    }

    #[test]
    fn replayed_assertion_rejected() {
        let f = fixture();
        let wire = f
            .idp
            .authenticate("alice", "pw", None, "https://proxy.myaccessid.org")
            .unwrap();
        assert!(f
            .proxy
            .broker_login(
                "https://idp.bristol.ac.uk",
                &wire,
                "https://broker.isambard.ac.uk"
            )
            .is_ok());
        assert_eq!(
            f.proxy.broker_login(
                "https://idp.bristol.ac.uk",
                &wire,
                "https://broker.isambard.ac.uk"
            ),
            Err(ProxyError::Replay)
        );
    }

    #[test]
    fn unknown_service_and_idp_rejected() {
        let f = fixture();
        let wire = f
            .idp
            .authenticate("alice", "pw", None, "https://proxy.myaccessid.org")
            .unwrap();
        assert!(matches!(
            f.proxy
                .broker_login("https://idp.bristol.ac.uk", &wire, "https://rogue.example"),
            Err(ProxyError::UnknownService(_))
        ));
        assert!(matches!(
            f.proxy.broker_login(
                "https://idp.unknown.example",
                &wire,
                "https://broker.isambard.ac.uk"
            ),
            Err(ProxyError::UnknownIdp(_))
        ));
    }

    #[test]
    fn suspended_account_cannot_login() {
        let f = fixture();
        let (cuid, _) = login(&f);
        f.proxy.set_suspended(&cuid, true).unwrap();
        let wire = f
            .idp
            .authenticate("alice", "pw", None, "https://proxy.myaccessid.org")
            .unwrap();
        assert_eq!(
            f.proxy.broker_login(
                "https://idp.bristol.ac.uk",
                &wire,
                "https://broker.isambard.ac.uk"
            ),
            Err(ProxyError::Suspended)
        );
        f.proxy.set_suspended(&cuid, false).unwrap();
        assert!(login(&f).0 == cuid);
    }

    #[test]
    fn identity_linking_preserves_uniqueness() {
        let f = fixture();
        let (cuid, _) = login(&f);
        f.proxy
            .link_identity(&cuid, "https://idp.tartu.ee", "alice@ut.ee")
            .unwrap();
        let account = f.proxy.account(&cuid).unwrap();
        assert_eq!(account.linked_identities.len(), 2);
        // Double-linking the same identity (even to the same account) fails.
        assert_eq!(
            f.proxy
                .link_identity(&cuid, "https://idp.tartu.ee", "alice@ut.ee"),
            Err(ProxyError::Replay)
        );
    }

    #[test]
    fn loa_elevation_sticks() {
        let f = fixture();
        let (cuid, _) = login(&f);
        assert_eq!(
            f.proxy.account(&cuid).unwrap().loa,
            LevelOfAssurance::Medium
        );
        f.proxy.elevate_loa(&cuid, LevelOfAssurance::High).unwrap();
        assert_eq!(f.proxy.account(&cuid).unwrap().loa, LevelOfAssurance::High);
        // A later Medium login does not downgrade.
        login(&f);
        assert_eq!(f.proxy.account(&cuid).unwrap().loa, LevelOfAssurance::High);
    }
}
