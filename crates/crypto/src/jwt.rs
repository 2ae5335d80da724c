//! JSON Web Tokens signed with `EdDSA` (Ed25519).
//!
//! These are the short-lived RBAC tokens at the heart of the paper's
//! design: every service-to-service and user-to-service access in the
//! simulated infrastructure is gated on one of these, and validation is a
//! real signature check plus `exp`/`nbf`/`aud`/`iss` claim enforcement.

use crate::base64::{decode_url, encode_into, Variant};
use crate::ed25519::{PreparedVerifyingKey, SigningKey, VerifyingKey};
use crate::json::{write_number, write_string, write_value, Value};

/// The one JWS algorithm signed and accepted: Ed25519 signatures.
const ALG: &str = "EdDSA";

/// Registered + custom claims carried by a token.
#[derive(Debug, Clone, PartialEq)]
pub struct Claims {
    /// Issuer (`iss`).
    pub issuer: String,
    /// Subject (`sub`) — the persistent unique user identifier.
    pub subject: String,
    /// Audience (`aud`) — the service this token is scoped to. Tokens are
    /// per-service in this design; there is no global token.
    pub audience: String,
    /// Expiry (`exp`), seconds since the simulation epoch.
    pub expires_at: u64,
    /// Not-before (`nbf`), seconds since the simulation epoch.
    pub not_before: u64,
    /// Issued-at (`iat`).
    pub issued_at: u64,
    /// Token id (`jti`) for replay detection / revocation.
    pub token_id: String,
    /// Roles granted (`roles`) — the RBAC payload.
    pub roles: Vec<String>,
    /// Session id binding the token to an authenticated session (`sid`).
    pub session_id: String,
    /// Authentication context class (`acr`), e.g. "mfa-hw", "mfa-totp", "pwd".
    pub acr: String,
    /// Additional claims (project ids, unix accounts, …).
    pub extra: Vec<(String, Value)>,
}

impl Claims {
    /// A minimal claims set; extend via the public fields.
    pub fn new(
        issuer: impl Into<String>,
        subject: impl Into<String>,
        audience: impl Into<String>,
        issued_at: u64,
        ttl_secs: u64,
    ) -> Claims {
        Claims {
            issuer: issuer.into(),
            subject: subject.into(),
            audience: audience.into(),
            expires_at: issued_at + ttl_secs,
            not_before: issued_at,
            issued_at,
            token_id: String::new(),
            roles: Vec::new(),
            session_id: String::new(),
            acr: String::new(),
            extra: Vec::new(),
        }
    }

    /// The claims as a JSON tree: the reference encoding that
    /// [`Claims::write_json`] must match byte for byte.
    #[cfg(test)]
    fn to_value(&self) -> Value {
        let mut v = Value::obj([
            ("iss", Value::s(&*self.issuer)),
            ("sub", Value::s(&*self.subject)),
            ("aud", Value::s(&*self.audience)),
            ("exp", Value::u(self.expires_at)),
            ("nbf", Value::u(self.not_before)),
            ("iat", Value::u(self.issued_at)),
            ("jti", Value::s(&*self.token_id)),
            ("sid", Value::s(&*self.session_id)),
            ("acr", Value::s(&*self.acr)),
            (
                "roles",
                Value::Arr(self.roles.iter().map(|r| Value::s(r.as_str())).collect()),
            ),
        ]);
        for (k, val) in &self.extra {
            v.set(k.clone(), val.clone());
        }
        v
    }

    /// Append the compact JSON of the claims to `out`, exactly as
    /// `to_value().to_json()` renders it but without building the tree:
    /// members in byte order of their names, and an extra claim
    /// replacing a registered claim (or an earlier extra) of the same
    /// name.
    fn write_json(&self, out: &mut String) {
        enum Member<'a> {
            Str(&'a str),
            Num(u64),
            Roles(&'a [String]),
            Extra(&'a Value),
        }
        // Registered names, already in byte order.
        let mut members: Vec<(&str, Member<'_>)> = Vec::with_capacity(10 + self.extra.len());
        members.extend([
            ("acr", Member::Str(&self.acr)),
            ("aud", Member::Str(&self.audience)),
            ("exp", Member::Num(self.expires_at)),
            ("iat", Member::Num(self.issued_at)),
            ("iss", Member::Str(&self.issuer)),
            ("jti", Member::Str(&self.token_id)),
            ("nbf", Member::Num(self.not_before)),
            ("roles", Member::Roles(&self.roles)),
            ("sid", Member::Str(&self.session_id)),
            ("sub", Member::Str(&self.subject)),
        ]);
        for (name, value) in &self.extra {
            match members.iter_mut().find(|(n, _)| *n == name.as_str()) {
                Some(slot) => slot.1 = Member::Extra(value),
                None => members.push((name, Member::Extra(value))),
            }
        }
        if !self.extra.is_empty() {
            members.sort_unstable_by(|a, b| a.0.cmp(b.0));
        }
        out.push('{');
        for (i, (name, member)) in members.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_string(name, out);
            out.push(':');
            match member {
                Member::Str(s) => write_string(s, out),
                Member::Num(n) => write_number(*n as f64, out),
                Member::Roles(roles) => {
                    out.push('[');
                    for (j, role) in roles.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        write_string(role, out);
                    }
                    out.push(']');
                }
                Member::Extra(value) => write_value(value, out),
            }
        }
        out.push('}');
    }

    fn from_value(v: &Value) -> Result<Claims, JwtError> {
        let get_s = |k: &str| -> String {
            v.get(k)
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let get_u = |k: &str| -> Option<u64> { v.get(k).and_then(Value::as_u64) };
        let roles = v
            .get("roles")
            .and_then(Value::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(|r| r.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default();
        let known = [
            "iss", "sub", "aud", "exp", "nbf", "iat", "jti", "sid", "acr", "roles",
        ];
        let extra = match v {
            Value::Obj(m) => m
                .iter()
                .filter(|(k, _)| !known.contains(&k.as_str()))
                .map(|(k, val)| (k.clone(), val.clone()))
                .collect(),
            _ => Vec::new(),
        };
        Ok(Claims {
            issuer: get_s("iss"),
            subject: get_s("sub"),
            audience: get_s("aud"),
            expires_at: get_u("exp").ok_or(JwtError::MissingClaim("exp"))?,
            not_before: get_u("nbf").unwrap_or(0),
            issued_at: get_u("iat").unwrap_or(0),
            token_id: get_s("jti"),
            session_id: get_s("sid"),
            acr: get_s("acr"),
            roles,
            extra,
        })
    }

    /// Look up an extra claim by name.
    pub fn extra_claim(&self, key: &str) -> Option<&Value> {
        self.extra.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// True if `role` is among the granted roles.
    pub fn has_role(&self, role: &str) -> bool {
        self.roles.iter().any(|r| r == role)
    }
}

/// Key material used to sign a token.
pub enum Signer<'a> {
    /// Ed25519 (EdDSA).
    Ed25519(&'a SigningKey),
}

/// Key material used to verify a token.
pub enum Verifier<'a> {
    /// Ed25519 public key.
    Ed25519(&'a VerifyingKey),
    /// Ed25519 public key with its curve point pre-decompressed — same
    /// accept/reject behaviour as `Ed25519`, minus the per-call point
    /// decompression (verification caches prepare keys once per JWKS
    /// publish).
    Ed25519Prepared(&'a PreparedVerifyingKey),
}

/// Unpadded base64url length of `n` bytes.
fn b64_len(n: usize) -> usize {
    (n * 4).div_ceil(3)
}

/// Sign `claims` into a compact JWS (`header.payload.signature`).
///
/// `kid` identifies the signing key in the issuer's JWKS. The header and
/// claims JSON are written into one scratch buffer and base64url-encoded
/// straight into the token, with no `Value` tree; the unit tests keep
/// the tree-building encoder as the byte-for-byte reference.
pub fn sign(claims: &Claims, signer: &Signer<'_>, kid: &str) -> String {
    let Signer::Ed25519(sk) = signer;
    sign_ed25519(claims, sk, kid).0
}

/// [`sign`] with an Ed25519 key, also returning the signature's
/// challenge digest SHA-512(R ‖ A ‖ `header.payload`), which signing
/// computes anyway (see [`SigningKey::sign_with_challenge`]). The token
/// is the one [`sign`] returns.
pub fn sign_ed25519(claims: &Claims, sk: &SigningKey, kid: &str) -> (String, [u8; 64]) {
    let mut token = signing_input(claims, kid);
    let (sig, challenge) = sk.sign_with_challenge(token.as_bytes());
    token.push('.');
    encode_into(&sig, Variant::UrlSafeNoPad, &mut token);
    (token, challenge)
}

/// `header.payload` of a token, with room for the signature segment
/// after it.
fn signing_input(claims: &Claims, kid: &str) -> String {
    // Header members in byte order: alg, kid, typ.
    let mut json = String::with_capacity(384);
    json.push_str("{\"alg\":");
    write_string(ALG, &mut json);
    json.push_str(",\"kid\":");
    write_string(kid, &mut json);
    json.push_str(",\"typ\":\"JWT\"}");
    let header_len = json.len();
    claims.write_json(&mut json);
    let (header, payload) = json.as_bytes().split_at(header_len);

    let mut token =
        String::with_capacity(b64_len(header.len()) + b64_len(payload.len()) + b64_len(64) + 2);
    encode_into(header, Variant::UrlSafeNoPad, &mut token);
    token.push('.');
    encode_into(payload, Variant::UrlSafeNoPad, &mut token);
    token
}

/// Expected-value checks applied during verification.
#[derive(Debug, Clone, Default)]
pub struct Validation {
    /// Required issuer; empty = skip check.
    pub issuer: String,
    /// Required audience; empty = skip check.
    pub audience: String,
    /// Current simulation time (seconds) for `exp`/`nbf` enforcement.
    pub now: u64,
    /// Allowed clock skew in seconds.
    pub leeway: u64,
}

/// Verify a compact JWS and return its claims.
pub fn verify(
    token: &str,
    verifier: &Verifier<'_>,
    validation: &Validation,
) -> Result<Claims, JwtError> {
    let mut parts = token.split('.');
    let (h, p, s) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(h), Some(p), Some(s), None) => (h, p, s),
        _ => return Err(JwtError::Malformed),
    };
    let header_bytes = decode_url(h).map_err(|_| JwtError::Malformed)?;
    let header_json = std::str::from_utf8(&header_bytes).map_err(|_| JwtError::Malformed)?;
    let header = Value::parse(header_json).map_err(|_| JwtError::Malformed)?;
    // Pinning the one algorithm forecloses alg-confusion attacks.
    if header.get("alg").and_then(Value::as_str) != Some(ALG) {
        return Err(JwtError::AlgorithmMismatch);
    }

    let signing_input = &token.as_bytes()[..h.len() + 1 + p.len()];
    let sig: [u8; 64] = decode_url(s)
        .map_err(|_| JwtError::Malformed)?
        .try_into()
        .map_err(|_| JwtError::BadSignature)?;
    let ok = match verifier {
        Verifier::Ed25519(pk) => pk.verify(signing_input, &sig),
        Verifier::Ed25519Prepared(pk) => pk.verify(signing_input, &sig),
    };
    if !ok {
        return Err(JwtError::BadSignature);
    }

    let payload_bytes = decode_url(p).map_err(|_| JwtError::Malformed)?;
    let payload_json = std::str::from_utf8(&payload_bytes).map_err(|_| JwtError::Malformed)?;
    let payload = Value::parse(payload_json).map_err(|_| JwtError::Malformed)?;
    let claims = Claims::from_value(&payload)?;

    validate_claims(&claims, validation)?;
    Ok(claims)
}

/// The claim-level checks of [`verify`] (issuer, audience, `nbf`, `exp`),
/// in the exact order `verify` applies them.
///
/// Split out so a verified-token cache can re-apply the *time-dependent*
/// checks on every cache hit: the signature over the bytes cannot change
/// after caching, but the clock keeps moving, so a hit must re-validate
/// freshness with the same semantics (and the same error kinds) as a
/// full verification.
pub fn validate_claims(claims: &Claims, validation: &Validation) -> Result<(), JwtError> {
    if !validation.issuer.is_empty() && claims.issuer != validation.issuer {
        return Err(JwtError::WrongIssuer);
    }
    if !validation.audience.is_empty() && claims.audience != validation.audience {
        return Err(JwtError::WrongAudience);
    }
    if validation.now + validation.leeway < claims.not_before {
        return Err(JwtError::NotYetValid);
    }
    if validation.now >= claims.expires_at + validation.leeway {
        return Err(JwtError::Expired);
    }
    Ok(())
}

/// Decode the `kid` header of a token without verifying it (used to pick
/// the right key from a JWKS before full verification).
pub fn peek_kid(token: &str) -> Option<String> {
    let h = token.split('.').next()?;
    let bytes = decode_url(h).ok()?;
    let json = std::str::from_utf8(&bytes).ok()?;
    if let Some(kid) = written_header_kid(json) {
        return Some(kid.to_string());
    }
    let v = Value::parse(json).ok()?;
    v.get("kid").and_then(Value::as_str).map(str::to_string)
}

/// The `kid` of a header laid out exactly as [`sign`] writes it,
/// `{"alg":"…","kid":"…","typ":"JWT"}`, with no escape in either value.
/// Such a header parses to an object whose `kid` is that text, so the
/// JSON parser is skipped; any other header returns `None` and is parsed.
fn written_header_kid(json: &str) -> Option<&str> {
    let (alg, rest) = json.strip_prefix(r#"{"alg":""#)?.split_once('"')?;
    let (kid, rest) = rest.strip_prefix(r#","kid":""#)?.split_once('"')?;
    let plain = !alg.contains('\\') && !kid.contains('\\');
    (plain && rest == r#","typ":"JWT"}"#).then_some(kid)
}

/// JWT verification errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JwtError {
    /// Structurally invalid token.
    Malformed,
    /// Signature check failed.
    BadSignature,
    /// Header algorithm does not match the verification key type.
    AlgorithmMismatch,
    /// `iss` mismatch.
    WrongIssuer,
    /// `aud` mismatch.
    WrongAudience,
    /// Token expired.
    Expired,
    /// `nbf` in the future.
    NotYetValid,
    /// Required claim absent.
    MissingClaim(&'static str),
}

impl std::fmt::Display for JwtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JwtError::Malformed => write!(f, "malformed token"),
            JwtError::BadSignature => write!(f, "signature verification failed"),
            JwtError::AlgorithmMismatch => write!(f, "algorithm mismatch"),
            JwtError::WrongIssuer => write!(f, "issuer mismatch"),
            JwtError::WrongAudience => write!(f, "audience mismatch"),
            JwtError::Expired => write!(f, "token expired"),
            JwtError::NotYetValid => write!(f, "token not yet valid"),
            JwtError::MissingClaim(c) => write!(f, "missing claim {c}"),
        }
    }
}

impl std::error::Error for JwtError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base64::encode_url;

    /// The `Value`-tree encoder [`sign`] replaced, kept as its reference.
    pub(super) fn sign_reference(claims: &Claims, signer: &Signer<'_>, kid: &str) -> String {
        let header = Value::obj([
            ("alg", Value::s(ALG)),
            ("typ", Value::s("JWT")),
            ("kid", Value::s(kid)),
        ]);
        let signing_input = format!(
            "{}.{}",
            encode_url(header.to_json().as_bytes()),
            encode_url(claims.to_value().to_json().as_bytes())
        );
        let Signer::Ed25519(sk) = signer;
        let sig = sk.sign(signing_input.as_bytes());
        format!("{signing_input}.{}", encode_url(&sig))
    }

    /// Claims that exercise every branch of the direct writer: escapes
    /// and control characters, non-ASCII, large and non-integral
    /// numbers, nested extras, extras overriding registered names and
    /// earlier extras, and names sorting before, between and after the
    /// registered ones.
    fn awkward_claims() -> Vec<Claims> {
        let mut out = vec![sample_claims(0), Claims::new("", "", "", 0, 0)];
        let mut c = sample_claims(u64::MAX / 3);
        c.subject = "quote\" back\\slash\n\r\t\u{1}\u{1f}\u{7f} é ☃ 𝄞".into();
        c.roles = vec!["".into(), "a\"b".into(), "pi".into()];
        c.acr = "\u{0}".into();
        c.extra = vec![
            ("sub".into(), Value::s("overrides the subject")),
            ("exp".into(), Value::Num(1.5)),
            (
                "z".into(),
                Value::Arr(vec![Value::Null, Value::Bool(true), Value::i(-7)]),
            ),
            (
                "A".into(),
                Value::obj([("k", Value::s("v")), ("b", Value::Num(1e300))]),
            ),
            ("roles".into(), Value::s("not a list")),
            ("jtj".into(), Value::Bool(false)),
            ("z".into(), Value::s("last z wins")),
            ("".into(), Value::u(9_007_199_254_740_993)),
        ];
        out.push(c);
        out
    }

    #[test]
    fn peek_kid_fast_path_agrees_with_the_parser() {
        let parsed = |json: &str| {
            let v = Value::parse(json).ok()?;
            v.get("kid").and_then(Value::as_str).map(str::to_string)
        };
        let headers = [
            r#"{"alg":"EdDSA","kid":"fds-key-1","typ":"JWT"}"#,
            r#"{"alg":"EdDSA","kid":"","typ":"JWT"}"#,
            "{\"alg\":\"\",\"kid\":\"é ☃ \u{7f}\ttab\",\"typ\":\"JWT\"}",
            r#"{"alg":"EdDSA","kid":"a\"b","typ":"JWT"}"#,
            r#"{"alg":"EdDSA","kid":"a\u0041","typ":"JWT"}"#,
            r#"{"alg":"Ed\u0044SA","kid":"k","typ":"JWT"}"#,
            r#"{"alg":"EdDSA","kid":"k","typ":"JWT"} "#,
            r#"{"alg":"EdDSA","kid":"k","typ":"JWT"}x"#,
            r#"{"alg":"EdDSA","kid":"k","typ":"JWT","kid":"other"}"#,
            r#"{"alg":"EdDSA","kid":"k","typ":"JWT""#,
            r#"{"alg":"EdDSA", "kid":"k","typ":"JWT"}"#,
            r#"{"kid":"k","alg":"EdDSA","typ":"JWT"}"#,
            r#"{"alg":"EdDSA","kid":7,"typ":"JWT"}"#,
            r#"{"alg":"EdDSA","kid":"k\"#,
            "",
        ];
        for json in headers {
            let token = format!("{}.e30.", encode_url(json.as_bytes()));
            assert_eq!(peek_kid(&token), parsed(json), "{json}");
        }
        let sk = SigningKey::from_seed(&[1u8; 32]);
        for kid in ["fds-key-1", "", "q\"uote", "back\\slash", "\u{1}"] {
            let token = sign(&sample_claims(0), &Signer::Ed25519(&sk), kid);
            assert_eq!(peek_kid(&token).as_deref(), Some(kid));
        }
    }

    #[test]
    fn direct_writer_matches_value_tree_reference() {
        let sk = SigningKey::from_seed(&[6u8; 32]);
        for claims in awkward_claims() {
            let mut json = String::new();
            claims.write_json(&mut json);
            assert_eq!(json, claims.to_value().to_json());
            for kid in ["fds-key-1", "", "k\"\u{2}"] {
                let signer = Signer::Ed25519(&sk);
                assert_eq!(
                    sign(&claims, &signer, kid),
                    sign_reference(&claims, &signer, kid)
                );
            }
        }
    }

    #[test]
    fn ed25519_signing_returns_the_token_and_its_challenge() {
        let sk = SigningKey::from_seed(&[6u8; 32]);
        for claims in awkward_claims() {
            let (token, digest) = sign_ed25519(&claims, &sk, "fds-key-1");
            assert_eq!(
                token,
                sign_reference(&claims, &Signer::Ed25519(&sk), "fds-key-1")
            );
            let (input, sig) = token.rsplit_once('.').unwrap();
            let sig = crate::base64::decode_url(sig).unwrap();
            let r: &[u8; 32] = sig[..32].try_into().unwrap();
            let a = sk.verifying_key();
            assert_eq!(
                digest,
                crate::ed25519::challenge(r, a.as_bytes(), input.as_bytes())
            );
        }
    }

    fn sample_claims(now: u64) -> Claims {
        let mut c = Claims::new(
            "https://idbroker.fds.example",
            "wlcg-12345",
            "slurm",
            now,
            900,
        );
        c.token_id = "jti-1".into();
        c.session_id = "sess-1".into();
        c.acr = "mfa-totp".into();
        c.roles = vec!["researcher".into()];
        c.extra.push(("project".into(), Value::s("brics-001")));
        c
    }

    #[test]
    fn eddsa_roundtrip() {
        let sk = SigningKey::from_seed(&[1u8; 32]);
        let claims = sample_claims(1000);
        let token = sign(&claims, &Signer::Ed25519(&sk), "fds-key-1");
        let got = verify(
            &token,
            &Verifier::Ed25519(&sk.verifying_key()),
            &Validation {
                issuer: claims.issuer.clone(),
                audience: "slurm".into(),
                now: 1500,
                leeway: 0,
            },
        )
        .unwrap();
        assert_eq!(got, claims);
        assert!(got.has_role("researcher"));
        assert_eq!(
            got.extra_claim("project").and_then(Value::as_str),
            Some("brics-001")
        );
        assert_eq!(peek_kid(&token).as_deref(), Some("fds-key-1"));
    }

    #[test]
    fn prepared_verifier_agrees_with_plain() {
        let sk = SigningKey::from_seed(&[9u8; 32]);
        let pk = sk.verifying_key();
        let prepared = PreparedVerifyingKey::new(&pk);
        let claims = sample_claims(1000);
        let token = sign(&claims, &Signer::Ed25519(&sk), "k");
        // Agreement across the full outcome space: ok, expired, wrong
        // audience, tampered signature.
        for (tok, now, aud) in [
            (token.clone(), 1500, ""),
            (token.clone(), 5000, ""),
            (token.clone(), 1500, "jupyter"),
            (format!("{}x", &token[..token.len() - 1]), 1500, ""),
        ] {
            let v = Validation {
                audience: aud.into(),
                now,
                ..Default::default()
            };
            assert_eq!(
                verify(&tok, &Verifier::Ed25519(&pk), &v),
                verify(&tok, &Verifier::Ed25519Prepared(&prepared), &v)
            );
        }
    }

    #[test]
    fn validate_claims_matches_verify_order() {
        let mut claims = sample_claims(1000); // valid [1000, 1900)
        claims.audience = "slurm".into();
        // WrongIssuer outranks WrongAudience outranks NotYetValid.
        let v = Validation {
            issuer: "rogue".into(),
            audience: "jupyter".into(),
            now: 10,
            leeway: 0,
        };
        assert_eq!(validate_claims(&claims, &v), Err(JwtError::WrongIssuer));
        let v = Validation {
            audience: "jupyter".into(),
            now: 10,
            ..Default::default()
        };
        assert_eq!(validate_claims(&claims, &v), Err(JwtError::WrongAudience));
        let v = Validation {
            now: 10,
            ..Default::default()
        };
        assert_eq!(validate_claims(&claims, &v), Err(JwtError::NotYetValid));
        let v = Validation {
            now: 1900,
            ..Default::default()
        };
        assert_eq!(validate_claims(&claims, &v), Err(JwtError::Expired));
        let v = Validation {
            now: 1500,
            ..Default::default()
        };
        assert_eq!(validate_claims(&claims, &v), Ok(()));
    }

    #[test]
    fn expiry_and_nbf_enforced() {
        let sk = SigningKey::from_seed(&[2u8; 32]);
        let claims = sample_claims(1000); // valid [1000, 1900)
        let token = sign(&claims, &Signer::Ed25519(&sk), "k");
        let pk = sk.verifying_key();
        let v = |now| Validation {
            now,
            ..Default::default()
        };
        assert_eq!(
            verify(&token, &Verifier::Ed25519(&pk), &v(999)),
            Err(JwtError::NotYetValid)
        );
        assert!(verify(&token, &Verifier::Ed25519(&pk), &v(1000)).is_ok());
        assert!(verify(&token, &Verifier::Ed25519(&pk), &v(1899)).is_ok());
        assert_eq!(
            verify(&token, &Verifier::Ed25519(&pk), &v(1900)),
            Err(JwtError::Expired)
        );
    }

    #[test]
    fn audience_and_issuer_enforced() {
        let sk = SigningKey::from_seed(&[3u8; 32]);
        let token = sign(&sample_claims(0), &Signer::Ed25519(&sk), "k");
        let pk = sk.verifying_key();
        assert_eq!(
            verify(
                &token,
                &Verifier::Ed25519(&pk),
                &Validation {
                    audience: "jupyter".into(),
                    now: 1,
                    ..Default::default()
                }
            ),
            Err(JwtError::WrongAudience)
        );
        assert_eq!(
            verify(
                &token,
                &Verifier::Ed25519(&pk),
                &Validation {
                    issuer: "rogue".into(),
                    now: 1,
                    ..Default::default()
                }
            ),
            Err(JwtError::WrongIssuer)
        );
    }

    #[test]
    fn tampered_payload_rejected() {
        let sk = SigningKey::from_seed(&[4u8; 32]);
        let token = sign(&sample_claims(0), &Signer::Ed25519(&sk), "k");
        let parts: Vec<&str> = token.split('.').collect();
        // Swap in an elevated-role payload, keep the original signature.
        let mut claims = sample_claims(0);
        claims.roles = vec!["admin".into()];
        let forged_payload = encode_url(claims.to_value().to_json().as_bytes());
        let forged = format!("{}.{}.{}", parts[0], forged_payload, parts[2]);
        assert_eq!(
            verify(
                &forged,
                &Verifier::Ed25519(&sk.verifying_key()),
                &Validation {
                    now: 1,
                    ..Default::default()
                }
            ),
            Err(JwtError::BadSignature)
        );
    }

    #[test]
    fn algorithm_confusion_rejected() {
        // An HS256 token MACed with the public key's bytes (the classic
        // confusion attack) must not verify against the Ed25519 key.
        let sk = SigningKey::from_seed(&[5u8; 32]);
        let pk = sk.verifying_key();
        let signing_input = format!(
            "{}.{}",
            encode_url(br#"{"alg":"HS256","kid":"k","typ":"JWT"}"#),
            encode_url(sample_claims(0).to_value().to_json().as_bytes())
        );
        let mac = crate::hmac::hmac_sha256(pk.as_bytes(), signing_input.as_bytes());
        let hs = format!("{signing_input}.{}", encode_url(&mac));
        let v = Validation {
            now: 1,
            ..Default::default()
        };
        let prepared = PreparedVerifyingKey::new(&pk);
        for verifier in [Verifier::Ed25519(&pk), Verifier::Ed25519Prepared(&prepared)] {
            assert_eq!(verify(&hs, &verifier, &v), Err(JwtError::AlgorithmMismatch));
        }
    }

    #[test]
    fn malformed_tokens_rejected() {
        let v = Validation {
            now: 1,
            ..Default::default()
        };
        for bad in ["", "a.b", "a.b.c.d", "!!!.###.$$$", "aGk.aGk.aGk"] {
            let pk = SigningKey::from_seed(&[5u8; 32]).verifying_key();
            assert!(verify(bad, &Verifier::Ed25519(&pk), &v).is_err(), "{bad}");
        }
    }
}
