//! Signed authentication assertions — the simplified stand-in for SAML
//! assertions / OIDC id_tokens flowing between IdPs, the proxy, and the
//! identity broker.
//!
//! An assertion is a canonical-JSON document signed with the issuer's
//! Ed25519 key. Verification checks the signature against federation
//! metadata, the audience restriction, and the validity window.

use dri_crypto::base64;
use dri_crypto::ed25519::{PreparedVerifyingKey, SigningKey};
use dri_crypto::json::Value;

use crate::types::{Attribute, LevelOfAssurance};

/// A signed authentication statement about one subject.
#[derive(Debug, Clone, PartialEq)]
pub struct Assertion {
    /// Issuer entity id (e.g. `https://idp.bristol.ac.uk`).
    pub issuer: String,
    /// Subject identifier *scoped to the issuer*.
    pub subject: String,
    /// Audience entity id this assertion is addressed to.
    pub audience: String,
    /// Seconds-since-epoch issue time.
    pub issued_at: u64,
    /// Expiry (assertions are short-lived: minutes).
    pub expires_at: u64,
    /// Authentication context: how the user authenticated.
    pub authn_context: String,
    /// Identity assurance asserted by the issuer.
    pub loa: LevelOfAssurance,
    /// Released attributes.
    pub attributes: Vec<Attribute>,
    /// Unique assertion id (replay detection).
    pub assertion_id: String,
}

impl Assertion {
    fn to_value(&self) -> Value {
        Value::obj([
            ("iss", Value::s(&*self.issuer)),
            ("sub", Value::s(&*self.subject)),
            ("aud", Value::s(&*self.audience)),
            ("iat", Value::u(self.issued_at)),
            ("exp", Value::u(self.expires_at)),
            ("amr", Value::s(&*self.authn_context)),
            ("loa", Value::s(self.loa.as_str())),
            ("id", Value::s(&*self.assertion_id)),
            (
                "attrs",
                Value::Arr(
                    self.attributes
                        .iter()
                        .map(|a| {
                            Value::obj([("n", Value::s(&*a.name)), ("v", Value::s(&*a.value))])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_value(v: &Value) -> Result<Assertion, AssertionError> {
        let s = |k: &str| -> Result<String, AssertionError> {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(AssertionError::MissingField)
        };
        let u = |k: &str| -> Result<u64, AssertionError> {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or(AssertionError::MissingField)
        };
        let attrs = v
            .get("attrs")
            .and_then(Value::as_arr)
            .map(|arr| {
                arr.iter()
                    .filter_map(|a| {
                        Some(Attribute::new(a.get("n")?.as_str()?, a.get("v")?.as_str()?))
                    })
                    .collect()
            })
            .unwrap_or_default();
        Ok(Assertion {
            issuer: s("iss")?,
            subject: s("sub")?,
            audience: s("aud")?,
            issued_at: u("iat")?,
            expires_at: u("exp")?,
            authn_context: s("amr")?,
            loa: LevelOfAssurance::parse(&s("loa")?).ok_or(AssertionError::MissingField)?,
            attributes: attrs,
            assertion_id: s("id")?,
        })
    }

    /// Sign this assertion, producing the wire form `payload.signature`
    /// (both base64url).
    pub fn sign(&self, key: &SigningKey) -> String {
        let payload = self.to_value().to_json();
        let sig = key.sign(payload.as_bytes());
        format!(
            "{}.{}",
            base64::encode_url(payload.as_bytes()),
            base64::encode_url(&sig)
        )
    }

    /// Verify a wire-form assertion against the issuer's public key and
    /// the receiver's expectations. Issuer keys are long-lived federation
    /// metadata, so the key comes prepared.
    pub fn verify(
        wire: &str,
        issuer_key: &PreparedVerifyingKey,
        expected_audience: &str,
        now_secs: u64,
    ) -> Result<Assertion, AssertionError> {
        let (payload_b64, sig_b64) = wire.split_once('.').ok_or(AssertionError::Malformed)?;
        let payload = base64::decode_url(payload_b64).map_err(|_| AssertionError::Malformed)?;
        let sig = base64::decode_url(sig_b64).map_err(|_| AssertionError::Malformed)?;
        if sig.len() != 64 {
            return Err(AssertionError::BadSignature);
        }
        let mut sig64 = [0u8; 64];
        sig64.copy_from_slice(&sig);
        if !issuer_key.verify(&payload, &sig64) {
            return Err(AssertionError::BadSignature);
        }
        let text = std::str::from_utf8(&payload).map_err(|_| AssertionError::Malformed)?;
        let value = Value::parse(text).map_err(|_| AssertionError::Malformed)?;
        let assertion = Assertion::from_value(&value)?;
        if assertion.audience != expected_audience {
            return Err(AssertionError::WrongAudience);
        }
        if now_secs >= assertion.expires_at {
            return Err(AssertionError::Expired);
        }
        if now_secs + 300 < assertion.issued_at {
            // More than 5 minutes of clock skew: treat as invalid.
            return Err(AssertionError::NotYetValid);
        }
        Ok(assertion)
    }

    /// Fetch one attribute value by name.
    pub fn attribute(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|a| a.name == name)
            .map(|a| a.value.as_str())
    }
}

/// Assertion verification failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssertionError {
    /// Not parseable as `payload.signature`.
    Malformed,
    /// Signature failed against the issuer key on record.
    BadSignature,
    /// Addressed to a different audience.
    WrongAudience,
    /// Past `exp`.
    Expired,
    /// `iat` implausibly in the future.
    NotYetValid,
    /// Required field missing from the payload.
    MissingField,
}

impl std::fmt::Display for AssertionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AssertionError::Malformed => "malformed assertion",
            AssertionError::BadSignature => "assertion signature invalid",
            AssertionError::WrongAudience => "assertion audience mismatch",
            AssertionError::Expired => "assertion expired",
            AssertionError::NotYetValid => "assertion issued in the future",
            AssertionError::MissingField => "assertion missing required field",
        };
        f.write_str(s)
    }
}

impl std::error::Error for AssertionError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Assertion {
        Assertion {
            issuer: "https://idp.bristol.ac.uk".into(),
            subject: "alice".into(),
            audience: "https://proxy.myaccessid.org".into(),
            issued_at: 1000,
            expires_at: 1300,
            authn_context: "pwd+totp".into(),
            loa: LevelOfAssurance::Medium,
            attributes: vec![Attribute::new("mail", "alice@bristol.ac.uk")],
            assertion_id: "an-001".into(),
        }
    }

    #[test]
    fn sign_verify_roundtrip() {
        let key = SigningKey::from_seed(&[1u8; 32]);
        let a = sample();
        let wire = a.sign(&key);
        let got = Assertion::verify(
            &wire,
            &(&key.verifying_key()).into(),
            "https://proxy.myaccessid.org",
            1100,
        )
        .unwrap();
        assert_eq!(got, a);
        assert_eq!(got.attribute("mail"), Some("alice@bristol.ac.uk"));
        assert_eq!(got.attribute("nope"), None);
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let key = SigningKey::from_seed(&[1u8; 32]);
        let other = SigningKey::from_seed(&[2u8; 32]);
        let wire = sample().sign(&key);
        assert_eq!(
            Assertion::verify(
                &wire,
                &(&other.verifying_key()).into(),
                "https://proxy.myaccessid.org",
                1100
            ),
            Err(AssertionError::BadSignature)
        );
    }

    #[test]
    fn verify_rejects_expired_and_wrong_audience() {
        let key = SigningKey::from_seed(&[1u8; 32]);
        let wire = sample().sign(&key);
        let pk = (&key.verifying_key()).into();
        assert_eq!(
            Assertion::verify(&wire, &pk, "https://proxy.myaccessid.org", 1300),
            Err(AssertionError::Expired)
        );
        assert_eq!(
            Assertion::verify(&wire, &pk, "https://evil.example", 1100),
            Err(AssertionError::WrongAudience)
        );
    }

    #[test]
    fn verify_rejects_tampered_payload() {
        let key = SigningKey::from_seed(&[1u8; 32]);
        let wire = sample().sign(&key);
        let (payload_b64, sig_b64) = wire.split_once('.').unwrap();
        // Re-encode a modified payload with the original signature.
        let mut payload = dri_crypto::base64::decode_url(payload_b64).unwrap();
        let text = String::from_utf8(payload.clone()).unwrap();
        let modified = text.replace("alice", "mallory");
        payload = modified.into_bytes();
        let forged = format!("{}.{}", base64::encode_url(&payload), sig_b64);
        assert_eq!(
            Assertion::verify(
                &forged,
                &(&key.verifying_key()).into(),
                "https://proxy.myaccessid.org",
                1100
            ),
            Err(AssertionError::BadSignature)
        );
    }
}
