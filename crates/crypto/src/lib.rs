//! # dri-crypto — simulation-grade cryptographic substrate
//!
//! From-scratch implementations of the primitives the Isambard federated
//! SSO / zero-trust co-design depends on: SHA-256/512, HMAC, HKDF, Ed25519
//! (RFC 8032), X25519 (RFC 7748), ChaCha20 (RFC 8439), base64/base64url,
//! hex, a minimal deterministic JSON codec, and JWT (EdDSA).
//!
//! Everything is verified against the published RFC / FIPS test vectors in
//! the unit tests, so signatures and tokens flowing through the simulated
//! infrastructure are *really* minted and *really* verified — a forged or
//! expired credential fails for real, not by convention.
//!
//! ## Security caveat
//!
//! This crate is **simulation-grade**: implementations are not constant
//! time, not side-channel hardened, and not audited. It exists so the
//! protocol logic in the rest of the workspace is genuine. Do **not** use
//! it to protect real systems.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
pub mod base64;
pub mod chacha20;
pub mod ed25519;
pub mod fe25519;
pub mod hex;
pub mod hkdf;
pub mod hmac;
pub mod json;
pub mod jwt;
pub mod poly1305;
pub mod sha2;
pub mod x25519;

/// Best-effort constant-time equality for secrets (MACs, tokens).
///
/// Returns `true` iff `a` and `b` have the same length and contents. The
/// comparison touches every byte regardless of where the first mismatch is.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_matches() {
        assert!(ct_eq(b"same", b"same"));
        assert!(!ct_eq(b"same", b"sane"));
        assert!(!ct_eq(b"short", b"longer"));
        assert!(ct_eq(b"", b""));
    }
}
