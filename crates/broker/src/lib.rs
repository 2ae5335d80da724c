//! # dri-broker — the Front Door identity broker
//!
//! The central service of the paper's Access Zone (FDS): it authenticates
//! users against upstream identity sources and mints the **short-lived,
//! per-service, role-scoped JWTs** that gate every other interaction in
//! the infrastructure.
//!
//! * [`broker`] — sessions, per-audience token policies, JWKS with key
//!   rotation, token issuance/validation/introspection, revocation (the
//!   identity-layer kill switch).
//! * [`managed_idp`] — the public-cloud managed IdP pair: the
//!   *administrator IdP* (hardware-key MFA, human-vetted registration) and
//!   the *Identity Provider of Last Resort* (password + TOTP) for users
//!   whose institutions are outside the MyAccessID federation.
//! * [`oidc`] — OpenID-Connect-shaped flows on top of the broker:
//!   authorization code with PKCE (web apps) and the device authorization
//!   grant (the SSH certificate client).
//! * [`gate`] — the [`TokenGate`] through which every relying service
//!   admits broker tokens: one rule (audience, roles, ACR) per service,
//!   one admission path for all of them.
//! * [`authz`] — the `AuthorizationSource` trait: *authorisation leads
//!   authentication*; the broker refuses to establish a session for a
//!   subject the portal has no grants for.
//!
//! Design invariants carried over from the paper:
//! 1. every token names exactly one audience — **RBAC is per service,
//!    never global**;
//! 2. tokens are short-lived and sessions re-authenticate on expiry;
//! 3. administrator identities come only from the dedicated managed IdP
//!    with hardware-key MFA (`acr = "mfa-hw"`);
//! 4. revocation is immediate: a revoked session/subject can hold unexpired
//!    tokens, but every relying service's [`TokenGate`] introspects them
//!    and rejects them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod authz;
pub mod broker;
pub mod gate;
pub mod managed_idp;
pub mod oidc;
pub mod token_cache;

pub use authz::{AuthorizationSource, StaticAuthz};
pub use broker::{
    BrokerError, IdentityBroker, IdentitySource, IntrospectFn, Jwks, SessionInfo, TokenPolicy,
};
pub use gate::{GateError, TokenGate};
pub use managed_idp::{HardwareKey, ManagedIdp, ManagedIdpError};
pub use oidc::{DeviceFlowError, DeviceGrant, OidcClient, OidcError, OidcProvider};
pub use token_cache::TokenCache;
