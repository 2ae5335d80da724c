//! The SSH certificate format.
//!
//! Structured after OpenSSH user certificates (`ssh-ed25519-cert-v01`):
//! a to-be-signed body carrying the certified public key, serial, key id,
//! principals, validity window, critical options and extensions, followed
//! by the CA signature. Encoding is a deterministic length-prefixed byte
//! format; signatures are real Ed25519 over the exact encoded body.

use dri_crypto::base64;
use dri_crypto::ed25519::{PreparedVerifyingKey, SigningKey, VerifyingKey};

/// Certificate type: we only model user certificates (host certs would be
/// the same machinery).
const CERT_TYPE_USER: u8 = 1;

/// A parsed SSH user certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SshCertificate {
    /// The user's certified public key.
    pub public_key: [u8; 32],
    /// CA-assigned serial.
    pub serial: u64,
    /// Key id — set to the subject (cuid) for audit trails.
    pub key_id: String,
    /// UNIX accounts this certificate may log in as.
    pub principals: Vec<String>,
    /// Start of validity (seconds).
    pub valid_after: u64,
    /// End of validity (seconds) — short-lived by design.
    pub valid_before: u64,
    /// Critical options (enforced by the server or the login fails),
    /// e.g. `("force-command", ...)` or `("source-address", cidr)`.
    pub critical_options: Vec<(String, String)>,
    /// Extensions (advisory capabilities), e.g. `permit-pty`.
    pub extensions: Vec<String>,
    /// CA signature over the body.
    pub signature: [u8; 64],
}

/// Certificate errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertError {
    /// Wire format unparseable.
    Malformed,
    /// CA signature invalid.
    BadSignature,
    /// Outside the validity window.
    Expired,
    /// Not yet valid.
    NotYetValid,
    /// The requested principal is not in the certificate.
    PrincipalNotAllowed,
}

impl std::fmt::Display for CertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CertError::Malformed => "malformed certificate",
            CertError::BadSignature => "CA signature invalid",
            CertError::Expired => "certificate expired",
            CertError::NotYetValid => "certificate not yet valid",
            CertError::PrincipalNotAllowed => "principal not allowed by certificate",
        };
        f.write_str(s)
    }
}

impl std::error::Error for CertError {}

fn put_bytes(out: &mut Vec<u8>, data: &[u8]) {
    out.extend_from_slice(&(data.len() as u32).to_be_bytes());
    out.extend_from_slice(data);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn bytes(&mut self) -> Result<&'a [u8], CertError> {
        if self.pos + 4 > self.data.len() {
            return Err(CertError::Malformed);
        }
        let len =
            u32::from_be_bytes(self.data[self.pos..self.pos + 4].try_into().unwrap()) as usize;
        self.pos += 4;
        if self.pos + len > self.data.len() {
            return Err(CertError::Malformed);
        }
        let out = &self.data[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    fn string(&mut self) -> Result<String, CertError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| CertError::Malformed)
    }

    fn u64(&mut self) -> Result<u64, CertError> {
        if self.pos + 8 > self.data.len() {
            return Err(CertError::Malformed);
        }
        let v = u64::from_be_bytes(self.data[self.pos..self.pos + 8].try_into().unwrap());
        self.pos += 8;
        Ok(v)
    }

    fn u8(&mut self) -> Result<u8, CertError> {
        if self.pos >= self.data.len() {
            return Err(CertError::Malformed);
        }
        let v = self.data[self.pos];
        self.pos += 1;
        Ok(v)
    }
}

impl SshCertificate {
    /// Encode the to-be-signed body.
    fn tbs_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.push(CERT_TYPE_USER);
        put_bytes(&mut out, &self.public_key);
        out.extend_from_slice(&self.serial.to_be_bytes());
        put_str(&mut out, &self.key_id);
        out.extend_from_slice(&(self.principals.len() as u32).to_be_bytes());
        for p in &self.principals {
            put_str(&mut out, p);
        }
        out.extend_from_slice(&self.valid_after.to_be_bytes());
        out.extend_from_slice(&self.valid_before.to_be_bytes());
        out.extend_from_slice(&(self.critical_options.len() as u32).to_be_bytes());
        for (k, v) in &self.critical_options {
            put_str(&mut out, k);
            put_str(&mut out, v);
        }
        out.extend_from_slice(&(self.extensions.len() as u32).to_be_bytes());
        for e in &self.extensions {
            put_str(&mut out, e);
        }
        out
    }

    /// Sign the certificate body with the CA key, filling `signature`.
    pub fn signed(mut self, ca_key: &SigningKey) -> SshCertificate {
        self.signature = ca_key.sign(&self.tbs_bytes());
        self
    }

    /// Serialize to the base64 wire form (`ssh-ed25519-cert <b64>`).
    pub fn to_wire(&self) -> String {
        let mut out = self.tbs_bytes();
        out.extend_from_slice(&self.signature);
        format!("ssh-ed25519-cert {}", base64::encode_url(&out))
    }

    /// Parse from the wire form (no verification).
    pub fn from_wire(wire: &str) -> Result<SshCertificate, CertError> {
        let b64 = wire
            .strip_prefix("ssh-ed25519-cert ")
            .ok_or(CertError::Malformed)?;
        let data = base64::decode_url(b64).map_err(|_| CertError::Malformed)?;
        if data.len() < 64 {
            return Err(CertError::Malformed);
        }
        let (body, sig) = data.split_at(data.len() - 64);
        let mut signature = [0u8; 64];
        signature.copy_from_slice(sig);

        let mut r = Reader { data: body, pos: 0 };
        if r.u8()? != CERT_TYPE_USER {
            return Err(CertError::Malformed);
        }
        let pk = r.bytes()?;
        if pk.len() != 32 {
            return Err(CertError::Malformed);
        }
        let mut public_key = [0u8; 32];
        public_key.copy_from_slice(pk);
        let serial = r.u64()?;
        let key_id = r.string()?;
        let n_principals = r.count(4)?;
        let mut principals = Vec::with_capacity(n_principals);
        for _ in 0..n_principals {
            principals.push(r.string()?);
        }
        let valid_after = r.u64()?;
        let valid_before = r.u64()?;
        let n_opts = r.count(8)?;
        let mut critical_options = Vec::with_capacity(n_opts);
        for _ in 0..n_opts {
            critical_options.push((r.string()?, r.string()?));
        }
        let n_ext = r.count(4)?;
        let mut extensions = Vec::with_capacity(n_ext);
        for _ in 0..n_ext {
            extensions.push(r.string()?);
        }
        if r.pos != body.len() {
            return Err(CertError::Malformed);
        }
        Ok(SshCertificate {
            public_key,
            serial,
            key_id,
            principals,
            valid_after,
            valid_before,
            critical_options,
            extensions,
            signature,
        })
    }

    /// Full verification: CA signature, validity window, and (optionally)
    /// that `principal` is authorised by the certificate.
    pub fn verify(
        &self,
        ca_key: &VerifyingKey,
        now_secs: u64,
        principal: Option<&str>,
    ) -> Result<(), CertError> {
        self.check(
            ca_key.verify(&self.tbs_bytes(), &self.signature),
            now_secs,
            principal,
        )
    }

    /// [`SshCertificate::verify`] against a prepared CA key: same checks,
    /// same order, same errors, but the CA key's table is built once at
    /// trust time and each check skips the doublings of `[k]A`.
    pub fn verify_prepared(
        &self,
        ca_key: &PreparedVerifyingKey,
        now_secs: u64,
        principal: Option<&str>,
    ) -> Result<(), CertError> {
        self.check(
            ca_key.verify(&self.tbs_bytes(), &self.signature),
            now_secs,
            principal,
        )
    }

    /// The checks after the signature, in order: validity window, then
    /// the principal.
    fn check(
        &self,
        signature_ok: bool,
        now_secs: u64,
        principal: Option<&str>,
    ) -> Result<(), CertError> {
        if !signature_ok {
            return Err(CertError::BadSignature);
        }
        if now_secs < self.valid_after {
            return Err(CertError::NotYetValid);
        }
        if now_secs >= self.valid_before {
            return Err(CertError::Expired);
        }
        if let Some(p) = principal {
            if !self.principals.iter().any(|x| x == p) {
                return Err(CertError::PrincipalNotAllowed);
            }
        }
        Ok(())
    }

    /// Remaining lifetime at `now` (0 when expired).
    pub fn remaining_secs(&self, now_secs: u64) -> u64 {
        self.valid_before.saturating_sub(now_secs)
    }
}

impl<'a> Reader<'a> {
    /// Read the u32 count of a list whose items take at least
    /// `item_bytes` each. A count the remaining bytes cannot hold is
    /// malformed, so a hostile count never sizes an allocation.
    fn count(&mut self, item_bytes: usize) -> Result<usize, CertError> {
        if self.pos + 4 > self.data.len() {
            return Err(CertError::Malformed);
        }
        let v = u32::from_be_bytes(self.data[self.pos..self.pos + 4].try_into().unwrap());
        self.pos += 4;
        let n = v as usize;
        if n > (self.data.len() - self.pos) / item_bytes {
            return Err(CertError::Malformed);
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ca: &SigningKey) -> SshCertificate {
        SshCertificate {
            public_key: [7u8; 32],
            serial: 42,
            key_id: "maid-000001".into(),
            principals: vec!["u1a2b3c4".into(), "u5d6e7f8".into()],
            valid_after: 1000,
            valid_before: 1000 + 8 * 3600,
            critical_options: vec![("source-address".into(), "10.0.0.0/8".into())],
            extensions: vec!["permit-pty".into()],
            signature: [0u8; 64],
        }
        .signed(ca)
    }

    #[test]
    fn wire_roundtrip_preserves_everything() {
        let ca = SigningKey::from_seed(&[1u8; 32]);
        let cert = sample(&ca);
        let wire = cert.to_wire();
        let parsed = SshCertificate::from_wire(&wire).unwrap();
        assert_eq!(parsed, cert);
    }

    #[test]
    fn verify_accepts_valid_cert_and_principal() {
        let ca = SigningKey::from_seed(&[1u8; 32]);
        let cert = sample(&ca);
        let pk = ca.verifying_key();
        assert_eq!(cert.verify(&pk, 5000, Some("u1a2b3c4")), Ok(()));
        assert_eq!(cert.verify(&pk, 5000, None), Ok(()));
    }

    #[test]
    fn verify_rejects_unknown_principal() {
        let ca = SigningKey::from_seed(&[1u8; 32]);
        let cert = sample(&ca);
        assert_eq!(
            cert.verify(&ca.verifying_key(), 5000, Some("root")),
            Err(CertError::PrincipalNotAllowed)
        );
    }

    #[test]
    fn verify_enforces_validity_window() {
        let ca = SigningKey::from_seed(&[1u8; 32]);
        let cert = sample(&ca);
        let pk = ca.verifying_key();
        assert_eq!(cert.verify(&pk, 999, None), Err(CertError::NotYetValid));
        assert_eq!(
            cert.verify(&pk, 1000 + 8 * 3600, None),
            Err(CertError::Expired)
        );
        assert_eq!(cert.remaining_secs(1000), 8 * 3600);
        assert_eq!(cert.remaining_secs(u64::MAX), 0);
    }

    #[test]
    fn verify_prepared_agrees_with_verify() {
        let ca = SigningKey::from_seed(&[1u8; 32]);
        let rogue = SigningKey::from_seed(&[2u8; 32]);
        let cert = sample(&ca);
        for pk in [ca.verifying_key(), rogue.verifying_key()] {
            let prepared = PreparedVerifyingKey::new(&pk);
            for now in [999u64, 1000, 5000, 1000 + 8 * 3600] {
                for principal in [None, Some("u1a2b3c4"), Some("root")] {
                    assert_eq!(
                        cert.verify_prepared(&prepared, now, principal),
                        cert.verify(&pk, now, principal)
                    );
                }
            }
        }
    }

    #[test]
    fn verify_rejects_wrong_ca() {
        let ca = SigningKey::from_seed(&[1u8; 32]);
        let rogue = SigningKey::from_seed(&[2u8; 32]);
        let cert = sample(&ca);
        assert_eq!(
            cert.verify(&rogue.verifying_key(), 5000, None),
            Err(CertError::BadSignature)
        );
    }

    #[test]
    fn tampered_principals_break_signature() {
        let ca = SigningKey::from_seed(&[1u8; 32]);
        let mut cert = sample(&ca);
        cert.principals.push("root".into());
        assert_eq!(
            cert.verify(&ca.verifying_key(), 5000, Some("root")),
            Err(CertError::BadSignature)
        );
    }

    #[test]
    fn malformed_wire_rejected() {
        assert_eq!(
            SshCertificate::from_wire("not-a-cert"),
            Err(CertError::Malformed)
        );
        assert_eq!(
            SshCertificate::from_wire("ssh-ed25519-cert aGVsbG8"),
            Err(CertError::Malformed)
        );
        // Trailing garbage after a valid body is rejected.
        let ca = SigningKey::from_seed(&[1u8; 32]);
        let cert = sample(&ca);
        let mut raw = cert.tbs_bytes();
        raw.push(0xff);
        raw.extend_from_slice(&cert.signature);
        let wire = format!("ssh-ed25519-cert {}", base64::encode_url(&raw));
        assert_eq!(SshCertificate::from_wire(&wire), Err(CertError::Malformed));
    }

    #[test]
    fn hostile_list_counts_are_malformed_without_allocating() {
        // A count of u32::MAX once sized a `Vec::with_capacity` of about
        // 100 GB, which aborts the process instead of failing the parse.
        let ca = SigningKey::from_seed(&[1u8; 32]);
        let mut cert = sample(&ca);
        cert.principals.clear();
        cert.critical_options.clear();
        cert.extensions.clear();
        let body = cert.tbs_bytes();
        let principals_at = 1 + 4 + 32 + 8 + 4 + cert.key_id.len();
        let options_at = principals_at + 4 + 16;
        for at in [principals_at, options_at, options_at + 4] {
            for count in [u32::MAX, 1] {
                let mut raw = body.clone();
                raw[at..at + 4].copy_from_slice(&count.to_be_bytes());
                raw.extend_from_slice(&cert.signature);
                let wire = format!("ssh-ed25519-cert {}", base64::encode_url(&raw));
                assert_eq!(
                    SshCertificate::from_wire(&wire),
                    Err(CertError::Malformed),
                    "count {count} at {at}"
                );
            }
        }
    }
}
