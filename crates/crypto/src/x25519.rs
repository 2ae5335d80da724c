//! X25519 Diffie–Hellman (RFC 7748), used by the simulated WireGuard-style
//! tailnet and Zenith tunnel handshakes.

use crate::fe25519::Fe;

/// Clamp a 32-byte scalar per RFC 7748 §5.
pub fn clamp(mut k: [u8; 32]) -> [u8; 32] {
    k[0] &= 248;
    k[31] &= 127;
    k[31] |= 64;
    k
}

/// The X25519 function: scalar multiplication on the Montgomery u-line.
pub fn x25519(scalar: &[u8; 32], u: &[u8; 32]) -> [u8; 32] {
    let k = clamp(*scalar);
    let x1 = Fe::from_bytes(u);
    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let mut swap = false;

    for t in (0..255).rev() {
        let k_t = (k[t / 8] >> (t % 8)) & 1 == 1;
        swap ^= k_t;
        Fe::cswap(swap, &mut x2, &mut x3);
        Fe::cswap(swap, &mut z2, &mut z3);
        swap = k_t;

        let a = x2.add(z2);
        let aa = a.square();
        let b = x2.sub(z2);
        let bb = b.square();
        let e = aa.sub(bb);
        let c = x3.add(z3);
        let d = x3.sub(z3);
        let da = d.mul(a);
        let cb = c.mul(b);
        x3 = da.add(cb).square();
        z3 = x1.mul(da.sub(cb).square());
        x2 = aa.mul(bb);
        z2 = e.mul(aa.add(e.mul_small(121665)));
    }
    Fe::cswap(swap, &mut x2, &mut x3);
    Fe::cswap(swap, &mut z2, &mut z3);
    x2.mul(z2.invert()).to_bytes()
}

/// The canonical base point u = 9.
pub fn basepoint() -> [u8; 32] {
    let mut bp = [0u8; 32];
    bp[0] = 9;
    bp
}

/// Derive the public key for a (clamped) private key.
pub fn public_key(private: &[u8; 32]) -> [u8; 32] {
    x25519(private, &basepoint())
}

/// Compute the shared secret between `private` and a peer's `public`.
pub fn shared_secret(private: &[u8; 32], peer_public: &[u8; 32]) -> [u8; 32] {
    x25519(private, peer_public)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    // RFC 7748 §5.2 test vector 1.
    #[test]
    fn rfc7748_vector1() {
        let k = hex::decode_array::<32>(
            "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
        )
        .unwrap();
        let u = hex::decode_array::<32>(
            "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
        )
        .unwrap();
        assert_eq!(
            hex::encode(&x25519(&k, &u)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
        );
    }

    // RFC 7748 §5.2 iterated test, 1 iteration.
    #[test]
    fn rfc7748_iterated_once() {
        let mut k = basepoint();
        k[0] = 9;
        let u = basepoint();
        assert_eq!(
            hex::encode(&x25519(&k, &u)),
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
        );
    }

    // RFC 7748 §5.2 iterated test, 1 000 iterations: k ← X25519(k, u)
    // and u ← the old k, from k = u = 9.
    #[test]
    fn rfc7748_iterated_1000_times() {
        let (mut k, mut u) = (basepoint(), basepoint());
        for _ in 0..1000 {
            (k, u) = (x25519(&k, &u), k);
        }
        assert_eq!(
            hex::encode(&k),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
        );
    }

    // RFC 7748 §6.1 Diffie–Hellman.
    #[test]
    fn rfc7748_dh() {
        let alice_priv = hex::decode_array::<32>(
            "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a",
        )
        .unwrap();
        let bob_priv = hex::decode_array::<32>(
            "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb",
        )
        .unwrap();
        let alice_pub = public_key(&alice_priv);
        let bob_pub = public_key(&bob_priv);
        assert_eq!(
            hex::encode(&alice_pub),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
        );
        assert_eq!(
            hex::encode(&bob_pub),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
        );
        let shared1 = shared_secret(&alice_priv, &bob_pub);
        let shared2 = shared_secret(&bob_priv, &alice_pub);
        assert_eq!(shared1, shared2);
        assert_eq!(
            hex::encode(&shared1),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
        );
    }

    #[test]
    fn dh_agreement_random_keys() {
        for seed in 0u8..8 {
            let a = [seed; 32];
            let b = [seed ^ 0xff; 32];
            let pa = public_key(&a);
            let pb = public_key(&b);
            assert_eq!(shared_secret(&a, &pb), shared_secret(&b, &pa));
        }
    }

    #[test]
    fn clamping_is_idempotent() {
        let k = [0xffu8; 32];
        assert_eq!(clamp(clamp(k)), clamp(k));
    }
}
