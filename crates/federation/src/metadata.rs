//! The federation metadata registry — the simulated eduGAIN.
//!
//! eduGAIN connects >80 national federations and >8000 entities; what the
//! rest of the stack needs from it is the *trust fabric*: given an entity
//! id, return its verified metadata (kind, signing key, categories, home
//! federation, assurance). Entities are registered by their national
//! federation (UKAMF, HAKA, …) which is itself registered with the
//! inter-federation.

use std::collections::HashMap;

use dri_crypto::ed25519::{PreparedVerifyingKey, VerifyingKey};
use parking_lot::RwLock;

use crate::types::{EntityCategory, LevelOfAssurance};

/// What role an entity plays in the federation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntityKind {
    /// Identity provider.
    IdentityProvider,
    /// Service provider (relying party).
    ServiceProvider,
    /// An IdP/SP proxy (MyAccessID-style).
    Proxy,
}

/// Published metadata for one federation entity.
#[derive(Debug, Clone)]
pub struct EntityDescriptor {
    /// Globally unique entity id (URL-shaped).
    pub entity_id: String,
    /// Human-readable display name (shown in discovery).
    pub display_name: String,
    /// IdP / SP / proxy.
    pub kind: EntityKind,
    /// The national federation that registered this entity.
    pub home_federation: String,
    /// Entity categories (R&S, Sirtfi, …).
    pub categories: Vec<EntityCategory>,
    /// Identity-vetting assurance this entity can assert.
    pub max_loa: LevelOfAssurance,
    /// Assertion-signing public key.
    pub signing_key: VerifyingKey,
}

impl EntityDescriptor {
    /// True if the entity declares the given category.
    pub fn has_category(&self, cat: EntityCategory) -> bool {
        self.categories.contains(&cat)
    }
}

/// Registry errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The home federation has not joined the inter-federation.
    UnknownFederation(String),
    /// Entity id already registered.
    DuplicateEntity(String),
    /// No such entity.
    UnknownEntity(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownFederation(x) => write!(f, "unknown federation {x}"),
            RegistryError::DuplicateEntity(x) => write!(f, "duplicate entity {x}"),
            RegistryError::UnknownEntity(x) => write!(f, "unknown entity {x}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// The inter-federation metadata registry (simulated eduGAIN).
#[derive(Debug, Default)]
pub struct FederationRegistry {
    inner: RwLock<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    federations: HashMap<String, String>, // name -> operator
    /// Each entity's descriptor next to its signing key, prepared once at
    /// registration, so deregistration drops both together.
    entities: HashMap<String, (EntityDescriptor, PreparedVerifyingKey)>,
}

impl FederationRegistry {
    /// An empty registry.
    pub fn new() -> FederationRegistry {
        FederationRegistry::default()
    }

    /// Join a national federation to the inter-federation.
    pub fn register_federation(&self, name: impl Into<String>, operator: impl Into<String>) {
        self.inner
            .write()
            .federations
            .insert(name.into(), operator.into());
    }

    /// Register an entity under its home federation. Its signing key is
    /// prepared here, once, for every assertion it will sign.
    pub fn register_entity(&self, desc: EntityDescriptor) -> Result<(), RegistryError> {
        // Built before taking the write lock: a table takes a few hundred µs.
        let key = PreparedVerifyingKey::new(&desc.signing_key);
        let mut inner = self.inner.write();
        if !inner.federations.contains_key(&desc.home_federation) {
            return Err(RegistryError::UnknownFederation(desc.home_federation));
        }
        if inner.entities.contains_key(&desc.entity_id) {
            return Err(RegistryError::DuplicateEntity(desc.entity_id));
        }
        inner.entities.insert(desc.entity_id.clone(), (desc, key));
        Ok(())
    }

    /// Remove an entity (e.g. a compromised or retired IdP).
    pub fn deregister_entity(&self, entity_id: &str) -> Result<(), RegistryError> {
        match self.inner.write().entities.remove(entity_id) {
            Some(_) => Ok(()),
            None => Err(RegistryError::UnknownEntity(entity_id.to_string())),
        }
    }

    /// Look up an entity's metadata together with its prepared signing
    /// key, the form assertion verification takes.
    pub fn lookup(&self, entity_id: &str) -> Option<(EntityDescriptor, PreparedVerifyingKey)> {
        self.inner.read().entities.get(entity_id).cloned()
    }

    /// The verified signing key for an entity, if registered.
    pub fn signing_key(&self, entity_id: &str) -> Option<VerifyingKey> {
        self.inner
            .read()
            .entities
            .get(entity_id)
            .map(|(e, _)| e.signing_key.clone())
    }

    /// All IdPs carrying a category — the input to the discovery service.
    pub fn idps_with_category(&self, cat: EntityCategory) -> Vec<EntityDescriptor> {
        let inner = self.inner.read();
        let mut out: Vec<EntityDescriptor> = inner
            .entities
            .values()
            .map(|(e, _)| e)
            .filter(|e| e.kind == EntityKind::IdentityProvider && e.has_category(cat))
            .cloned()
            .collect();
        out.sort_by(|a, b| a.entity_id.cmp(&b.entity_id));
        out
    }

    /// Count of registered entities (metrics).
    pub fn entity_count(&self) -> usize {
        self.inner.read().entities.len()
    }

    /// Count of member federations (metrics).
    pub fn federation_count(&self) -> usize {
        self.inner.read().federations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dri_crypto::ed25519::SigningKey;

    fn desc(id: &str, fed: &str, kind: EntityKind, cats: Vec<EntityCategory>) -> EntityDescriptor {
        EntityDescriptor {
            entity_id: id.into(),
            display_name: id.into(),
            kind,
            home_federation: fed.into(),
            categories: cats,
            max_loa: LevelOfAssurance::Medium,
            signing_key: SigningKey::from_seed(&[7u8; 32]).verifying_key(),
        }
    }

    #[test]
    fn registration_requires_known_federation() {
        let reg = FederationRegistry::new();
        let d = desc(
            "https://idp.x",
            "ukamf",
            EntityKind::IdentityProvider,
            vec![],
        );
        assert_eq!(
            reg.register_entity(d.clone()),
            Err(RegistryError::UnknownFederation("ukamf".into()))
        );
        reg.register_federation("ukamf", "Jisc");
        assert!(reg.register_entity(d.clone()).is_ok());
        assert_eq!(
            reg.register_entity(d),
            Err(RegistryError::DuplicateEntity("https://idp.x".into()))
        );
    }

    #[test]
    fn discovery_filters_by_category_and_kind() {
        let reg = FederationRegistry::new();
        reg.register_federation("ukamf", "Jisc");
        reg.register_entity(desc(
            "https://idp.rns",
            "ukamf",
            EntityKind::IdentityProvider,
            vec![EntityCategory::ResearchAndScholarship],
        ))
        .unwrap();
        reg.register_entity(desc(
            "https://idp.plain",
            "ukamf",
            EntityKind::IdentityProvider,
            vec![],
        ))
        .unwrap();
        reg.register_entity(desc(
            "https://sp.rns",
            "ukamf",
            EntityKind::ServiceProvider,
            vec![EntityCategory::ResearchAndScholarship],
        ))
        .unwrap();
        let found = reg.idps_with_category(EntityCategory::ResearchAndScholarship);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].entity_id, "https://idp.rns");
    }

    #[test]
    fn deregistration_removes_trust() {
        let reg = FederationRegistry::new();
        reg.register_federation("ukamf", "Jisc");
        reg.register_entity(desc(
            "https://idp.x",
            "ukamf",
            EntityKind::IdentityProvider,
            vec![],
        ))
        .unwrap();
        assert!(reg.signing_key("https://idp.x").is_some());
        reg.deregister_entity("https://idp.x").unwrap();
        assert!(reg.signing_key("https://idp.x").is_none());
        assert_eq!(
            reg.deregister_entity("https://idp.x"),
            Err(RegistryError::UnknownEntity("https://idp.x".into()))
        );
    }
}
