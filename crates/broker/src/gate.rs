//! The token gate: how a relying service admits a broker token.
//!
//! Every service that accepts broker tokens (Jupyter, the management
//! plane, the SSH CA, the tailnet coordinator) admits them through one
//! [`TokenGate`] built from its rule: the audience, the roles of which
//! any one admits, and an optional required ACR. The gate holds the
//! service's own JWKS snapshot (there is no global root of trust) and the
//! broker's revocation check, and runs the same four steps, in one order,
//! for every service. The service keeps only its domain checks (capacity,
//! principals, node names, the cluster ACL).

use std::sync::Arc;

use dri_crypto::jwt::{Claims, JwtError};
use dri_sync::Snapshot;

use crate::broker::{IntrospectFn, Jwks};

/// Why a gate refused a token, one variant per step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateError {
    /// Signature, issuer, audience or expiry validation failed.
    BadToken(JwtError),
    /// The broker says the token is revoked or unknown.
    TokenRevoked,
    /// The token carries none of the rule's roles.
    RoleMissing,
    /// The token's ACR is not the one the rule requires.
    AcrTooWeak,
}

/// One service's admission of broker tokens.
pub struct TokenGate {
    jwks: Snapshot<Jwks>,
    introspect: IntrospectFn,
    /// Audience the token must name.
    audience: &'static str,
    /// Roles of which any one admits.
    any_role: &'static [&'static str],
    /// Authentication context the token must carry, if any.
    acr: Option<&'static str>,
}

impl TokenGate {
    /// A gate admitting tokens for `audience` that carry any one of
    /// `any_role` (and, if given, the ACR `acr`), validated against
    /// `jwks` and checked live with `introspect`, the broker's
    /// revocation check.
    pub fn new(
        jwks: Jwks,
        introspect: IntrospectFn,
        audience: &'static str,
        any_role: &'static [&'static str],
        acr: Option<&'static str>,
    ) -> TokenGate {
        TokenGate {
            jwks: Snapshot::new(jwks),
            introspect,
            audience,
            any_role,
            acr,
        }
    }

    /// Admit `token` at `now` (seconds). The steps run in this order,
    /// and the first that fails names the refusal: validation against
    /// the JWKS snapshot, broker introspection, the role rule, the ACR
    /// rule.
    pub fn admit(&self, token: &str, now: u64) -> Result<Arc<Claims>, GateError> {
        let claims = self
            .jwks
            .load()
            .validate_shared(token, self.audience, now)
            .map_err(GateError::BadToken)?;
        if !(self.introspect)(&claims.token_id) {
            return Err(GateError::TokenRevoked);
        }
        if !self.any_role.iter().any(|role| claims.has_role(role)) {
            return Err(GateError::RoleMissing);
        }
        if self.acr.is_some_and(|acr| claims.acr != acr) {
            return Err(GateError::AcrTooWeak);
        }
        Ok(claims)
    }

    /// Replace the JWKS snapshot (broker key rotation).
    pub fn update_jwks(&self, jwks: Jwks) {
        self.jwks.store(jwks);
    }

    /// Epoch of the JWKS snapshot the gate validates against.
    pub fn jwks_epoch(&self) -> u64 {
        self.jwks.load().epoch
    }
}

/// `gate_errors!(ServiceError, acr_refusal)` maps [`GateError`] into a
/// service's error enum, which must have `BadToken(JwtError)`,
/// `TokenRevoked` and `RoleMissing` variants; `acr_refusal` is the value
/// for [`GateError::AcrTooWeak`].
#[macro_export]
macro_rules! gate_errors {
    ($error:ident, $acr_refusal:expr) => {
        impl From<$crate::gate::GateError> for $error {
            fn from(e: $crate::gate::GateError) -> $error {
                match e {
                    $crate::gate::GateError::BadToken(e) => $error::BadToken(e),
                    $crate::gate::GateError::TokenRevoked => $error::TokenRevoked,
                    $crate::gate::GateError::RoleMissing => $error::RoleMissing,
                    $crate::gate::GateError::AcrTooWeak => $acr_refusal,
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authz::StaticAuthz;
    use crate::broker::{IdentityBroker, IdentitySource, TokenPolicy};
    use crate::managed_idp::ManagedLogin;
    use dri_clock::SimClock;
    use dri_federation::metadata::FederationRegistry;

    struct Fixture {
        broker: Arc<IdentityBroker>,
        authz: Arc<StaticAuthz>,
        clock: SimClock,
    }

    /// A broker whose `mgmt-cluster` policy is the standard one, so it
    /// signs `mgmt-cluster` tokens for `mfa-totp` sessions that the
    /// management rule must then refuse.
    fn fixture() -> Fixture {
        let clock = SimClock::starting_at(5_000_000_000);
        let authz = Arc::new(StaticAuthz::new());
        let broker = Arc::new(IdentityBroker::new(
            "https://broker.isambard.ac.uk",
            [91u8; 32],
            3600,
            clock.clone(),
            Arc::new(FederationRegistry::new()),
            authz.clone(),
            dri_fault::FaultHook::default(),
        ));
        broker.register_service(TokenPolicy::standard("jupyter", 900));
        broker.register_service(TokenPolicy::standard("mgmt-cluster", 600));
        Fixture {
            broker,
            authz,
            clock,
        }
    }

    impl Fixture {
        /// The Jupyter rule: `jupyter`, any of `pi` and `researcher`.
        fn jupyter_gate(&self) -> TokenGate {
            let (jwks, introspect) = (self.broker.jwks(), self.broker.introspector());
            TokenGate::new(jwks, introspect, "jupyter", &["pi", "researcher"], None)
        }

        /// The management rule: `mgmt-cluster`, `sysadmin`, `mfa-hw`.
        fn mgmt_gate(&self) -> TokenGate {
            let (jwks, introspect) = (self.broker.jwks(), self.broker.introspector());
            TokenGate::new(
                jwks,
                introspect,
                "mgmt-cluster",
                &["sysadmin"],
                Some("mfa-hw"),
            )
        }

        /// A token for `subject` (an `mfa-totp` last-resort login)
        /// holding `roles` on `audience`.
        fn token(&self, subject: &str, audience: &str, roles: &[&str]) -> (String, String) {
            self.authz.grant(subject, audience, roles);
            let session = self
                .broker
                .login_managed(
                    &ManagedLogin {
                        subject: subject.into(),
                        acr: "mfa-totp".into(),
                    },
                    IdentitySource::LastResort,
                )
                .unwrap();
            let (token, claims) = self
                .broker
                .issue_token(&session.session_id, audience)
                .unwrap();
            (token, claims.token_id)
        }

        fn revoked(&self, subject: &str, audience: &str, roles: &[&str]) -> String {
            let (token, jti) = self.token(subject, audience, roles);
            self.broker.revoke_token(&jti);
            token
        }
    }

    #[test]
    fn each_refusal_comes_from_its_step() {
        let f = fixture();
        let jupyter = f.jupyter_gate();
        let mgmt = f.mgmt_gate();
        let now = f.clock.now_secs();
        let (researcher, _) = f.token("last-resort:alice", "jupyter", &["researcher"]);
        let (pi, _) = f.token("last-resort:paula", "jupyter", &["pi"]);
        let (sysadmin_totp, _) = f.token("last-resort:vendor", "mgmt-cluster", &["sysadmin"]);
        let (researcher_totp, _) = f.token("last-resort:rita", "mgmt-cluster", &["researcher"]);
        let (wrong_role, _) = f.token("last-resort:bob", "jupyter", &["sysadmin"]);
        let revoked = f.revoked("last-resort:carol", "jupyter", &["researcher"]);
        let revoked_elsewhere = f.revoked("last-resort:erin", "mgmt-cluster", &["sysadmin"]);
        let revoked_wrong_role = f.revoked("last-resort:fred", "jupyter", &["sysadmin"]);
        f.broker.rotate_keys([92u8; 32]);
        let (unknown_kid, _) = f.token("last-resort:gina", "jupyter", &["researcher"]);

        use GateError::{AcrTooWeak, RoleMissing, TokenRevoked};
        use JwtError::{BadSignature, Expired, Malformed, WrongAudience};
        let bad = |e| Err(GateError::BadToken(e));
        let (j, m, late) = (&jupyter, &mgmt, now + 901);
        let cases: [(&TokenGate, &str, u64, Result<(), GateError>); 13] = [
            (j, &researcher, now, Ok(())),
            (j, &pi, now, Ok(())),
            (j, "garbage", now, bad(Malformed)),
            (j, &unknown_kid, now, bad(BadSignature)),
            (j, &sysadmin_totp, now, bad(WrongAudience)),
            (j, &researcher, late, bad(Expired)),
            (j, &revoked, now, Err(TokenRevoked)),
            (j, &wrong_role, now, Err(RoleMissing)),
            (m, &sysadmin_totp, now, Err(AcrTooWeak)),
            // Precedence: the earliest failing step names the refusal.
            (j, &revoked_elsewhere, now, bad(WrongAudience)),
            (j, &revoked, late, bad(Expired)),
            (j, &revoked_wrong_role, now, Err(TokenRevoked)),
            (m, &researcher_totp, now, Err(RoleMissing)),
        ];
        for (i, (gate, token, at, expected)) in cases.into_iter().enumerate() {
            assert_eq!(gate.admit(token, at).map(|_| ()), expected, "case {i}");
        }
    }

    #[test]
    fn rotated_key_is_admitted_only_after_update_jwks() {
        let f = fixture();
        let gate = f.jupyter_gate();
        let before = gate.jwks_epoch();
        assert_eq!(before, f.broker.jwks_epoch());
        f.broker.rotate_keys([93u8; 32]);
        let (token, _) = f.token("last-resort:alice", "jupyter", &["researcher"]);
        let now = f.clock.now_secs();
        assert_eq!(
            gate.admit(&token, now).map(|_| ()),
            Err(GateError::BadToken(JwtError::BadSignature))
        );
        assert_eq!(gate.jwks_epoch(), before);
        gate.update_jwks(f.broker.jwks());
        assert_eq!(gate.jwks_epoch(), f.broker.jwks_epoch());
        assert!(gate.jwks_epoch() > before);
        let claims = gate.admit(&token, now).unwrap();
        assert_eq!(claims.subject, "last-resort:alice");
    }
}
