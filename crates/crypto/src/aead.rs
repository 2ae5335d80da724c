//! ChaCha20-Poly1305 AEAD (RFC 8439 §2.8).
//!
//! The authenticated encryption used on tailnet and tunnel frames: the
//! Poly1305 one-time key is derived from block 0 of the ChaCha20
//! keystream, the ciphertext starts at block 1, and the tag covers
//! `aad ‖ pad ‖ ciphertext ‖ pad ‖ len(aad) ‖ len(ct)`, fed to a
//! streaming Poly1305 piece by piece rather than copied into one buffer.

use crate::chacha20;
use crate::poly1305::Poly1305;

/// Encrypt and authenticate: returns `ciphertext ‖ tag(16)`.
pub fn seal(key: &[u8; 32], nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let otk = poly_key(key, nonce);
    // Room for the tag up front, so appending it does not reallocate.
    let mut out = Vec::with_capacity(plaintext.len() + 16);
    out.extend_from_slice(plaintext);
    chacha20::xor_in_place(key, nonce, 1, &mut out);
    let tag = tag(&otk, aad, &out);
    out.extend_from_slice(&tag);
    out
}

/// Verify and decrypt `ciphertext ‖ tag`; `None` on any authentication
/// failure (wrong key/nonce/aad, truncation, or tampering).
pub fn open(key: &[u8; 32], nonce: &[u8; 12], aad: &[u8], sealed: &[u8]) -> Option<Vec<u8>> {
    if sealed.len() < 16 {
        return None;
    }
    let (ct, tag) = sealed.split_at(sealed.len() - 16);
    let otk = poly_key(key, nonce);
    if !crate::ct_eq(&self::tag(&otk, aad, ct), tag) {
        return None;
    }
    Some(chacha20::decrypt(key, nonce, 1, ct))
}

/// The Poly1305 one-time key: first 32 bytes of keystream block 0.
fn poly_key(key: &[u8; 32], nonce: &[u8; 12]) -> [u8; 32] {
    let mut block = [0u8; 64];
    chacha20::xor_in_place(key, nonce, 0, &mut block);
    let mut otk = [0u8; 32];
    otk.copy_from_slice(&block[..32]);
    otk
}

/// The Poly1305 tag of `aad ‖ pad ‖ ct ‖ pad ‖ len(aad) ‖ len(ct)`.
fn tag(otk: &[u8; 32], aad: &[u8], ct: &[u8]) -> [u8; 16] {
    let mut mac = Poly1305::new(otk);
    mac.update(aad);
    mac.pad16();
    mac.update(ct);
    mac.pad16();
    let mut lengths = [0u8; 16];
    lengths[..8].copy_from_slice(&(aad.len() as u64).to_le_bytes());
    lengths[8..].copy_from_slice(&(ct.len() as u64).to_le_bytes());
    mac.update(&lengths);
    mac.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use crate::poly1305::tests::poly1305_reference;

    /// `seal` as it was before the streaming tag: the MAC input copied
    /// into one buffer, tagged by the five-limb reference Poly1305.
    fn seal_reference(key: &[u8; 32], nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let pad16 = |len: usize| (16 - (len % 16)) % 16;
        let mut out = chacha20::encrypt(key, nonce, 1, plaintext);
        let mut mac_data = Vec::new();
        mac_data.extend_from_slice(aad);
        mac_data.extend_from_slice(&[0u8; 16][..pad16(aad.len())]);
        mac_data.extend_from_slice(&out);
        mac_data.extend_from_slice(&[0u8; 16][..pad16(out.len())]);
        mac_data.extend_from_slice(&(aad.len() as u64).to_le_bytes());
        mac_data.extend_from_slice(&(out.len() as u64).to_le_bytes());
        let tag = poly1305_reference(&poly_key(key, nonce), &mac_data);
        out.extend_from_slice(&tag);
        out
    }

    // RFC 8439 §2.8.2 AEAD test vector.
    #[test]
    fn rfc8439_aead_vector() {
        let key = hex::decode_array::<32>(
            "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f",
        )
        .unwrap();
        let nonce = hex::decode_array::<12>("070000004041424344454647").unwrap();
        let aad = hex::decode("50515253c0c1c2c3c4c5c6c7").unwrap();
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
                          only one tip for the future, sunscreen would be it.";
        let sealed = seal(&key, &nonce, &aad, plaintext);
        let (ct, tag) = sealed.split_at(sealed.len() - 16);
        assert_eq!(
            hex::encode(ct),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6\
             3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36\
             92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc\
             3ff4def08e4b7a9de576d26586cec64b6116"
        );
        assert_eq!(hex::encode(tag), "1ae10b594f09e26a7e902ecbd0600691");
        assert_eq!(open(&key, &nonce, &aad, &sealed).unwrap(), plaintext);
    }

    #[test]
    fn open_rejects_tampering_anywhere() {
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        let sealed = seal(&key, &nonce, b"header", b"payload bytes");
        // Flip ciphertext, tag, aad, nonce, key — all must fail.
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 1;
            assert!(open(&key, &nonce, b"header", &bad).is_none(), "byte {i}");
        }
        assert!(open(&key, &nonce, b"Header", &sealed).is_none());
        assert!(open(&key, &[3u8; 12], b"header", &sealed).is_none());
        assert!(open(&[9u8; 32], &nonce, b"header", &sealed).is_none());
        // Truncation fails typed.
        assert!(open(&key, &nonce, b"header", &sealed[..10]).is_none());
    }

    #[test]
    fn roundtrip_various_sizes() {
        let key = [7u8; 32];
        for n in [0usize, 1, 15, 16, 17, 63, 64, 65, 1000] {
            let pt: Vec<u8> = (0..n).map(|i| i as u8).collect();
            let nonce = [n as u8; 12];
            let sealed = seal(&key, &nonce, b"", &pt);
            assert_eq!(open(&key, &nonce, b"", &sealed).unwrap(), pt, "len {n}");
        }
    }

    #[test]
    fn empty_plaintext_still_authenticated() {
        let key = [4u8; 32];
        let nonce = [5u8; 12];
        let sealed = seal(&key, &nonce, b"aad-only", b"");
        assert_eq!(sealed.len(), 16);
        assert_eq!(open(&key, &nonce, b"aad-only", &sealed).unwrap(), b"");
        assert!(open(&key, &nonce, b"other", &sealed).is_none());
    }

    #[test]
    fn seal_and_open_match_the_copying_reference() {
        let key = [0x42u8; 32];
        let data: Vec<u8> = (0..1100u32).map(|i| (i * 151 + i / 256) as u8).collect();
        let check = |nonce: &[u8; 12], aad: &[u8], pt: &[u8]| {
            let sealed = seal(&key, nonce, aad, pt);
            assert_eq!(
                sealed,
                seal_reference(&key, nonce, aad, pt),
                "aad {} pt {}",
                aad.len(),
                pt.len()
            );
            assert_eq!(open(&key, nonce, aad, &sealed).as_deref(), Some(pt));
        };
        // Every plaintext length, with associated data of varying length.
        for n in 0..=1100usize {
            let nonce = [n as u8; 12];
            check(&nonce, &data[..n % 41], &data[..n]);
        }
        // Every split of a buffer into associated data and plaintext.
        for total in (0..=96usize).chain([600, 1100]) {
            let nonce = [total as u8 ^ 0x80; 12];
            for cut in 0..=total {
                check(&nonce, &data[..cut], &data[cut..total]);
            }
        }
    }
}
