//! Poly1305 one-time authenticator (RFC 8439 §2.5).
//!
//! A streaming implementation with three limbs of 44, 44 and 42 bits
//! (radix 2^44), in the layout of poly1305-donna-64: a block costs nine
//! 64×64→128-bit multiplications instead of the 25 of a five-limb
//! radix-2^26 one. [`Poly1305::pad16`] zero-pads the input so far to a
//! block boundary, so [`crate::aead`] feeds the associated data, its
//! padding, the ciphertext and the lengths straight in, with no copy of
//! the frame. The five-limb version this replaced is kept in the unit
//! tests as the reference the streaming one is checked against.

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;

/// An in-progress Poly1305 computation under one one-time key.
pub struct Poly1305 {
    /// Clamped r, in three limbs.
    r: [u64; 3],
    /// 20·r1 and 20·r2: the reduction folds 2^132 ≡ 5·2^2 (mod 2^130 − 5).
    s: [u64; 2],
    /// The accumulator, in three limbs (each may carry a few extra bits
    /// between blocks).
    h: [u64; 3],
    /// The second key half, added at the end.
    pad: [u64; 2],
    /// Input not yet absorbed: always shorter than one block.
    buf: [u8; 16],
    buf_len: usize,
}

impl Poly1305 {
    /// Start a computation under the 32-byte one-time key `r ‖ s`.
    pub fn new(key: &[u8; 32]) -> Poly1305 {
        let t0 = u64::from_le_bytes(key[0..8].try_into().expect("8 bytes"));
        let t1 = u64::from_le_bytes(key[8..16].try_into().expect("8 bytes"));
        // r with the required clamping, split 44/44/42.
        let r0 = t0 & 0xffc_0fff_ffff;
        let r1 = ((t0 >> 44) | (t1 << 20)) & 0xfff_ffc0_ffff;
        let r2 = (t1 >> 24) & 0x00f_ffff_fc0f;
        Poly1305 {
            r: [r0, r1, r2],
            s: [r1 * 20, r2 * 20],
            h: [0; 3],
            pad: [
                u64::from_le_bytes(key[16..24].try_into().expect("8 bytes")),
                u64::from_le_bytes(key[24..32].try_into().expect("8 bytes")),
            ],
            buf: [0; 16],
            buf_len: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buf_len > 0 {
            let take = data.len().min(16 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 16 {
                return;
            }
            let block = self.buf;
            self.block(&block, 1 << 40);
            self.buf_len = 0;
        }
        let mut blocks = data.chunks_exact(16);
        for block in &mut blocks {
            self.block(block.try_into().expect("16 bytes"), 1 << 40);
        }
        let rest = blocks.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Absorb zero bytes up to the next multiple of 16 of the input so
    /// far (none if it is already one): the `pad16` of RFC 8439 §2.8.
    pub fn pad16(&mut self) {
        if self.buf_len > 0 {
            self.buf[self.buf_len..].fill(0);
            let block = self.buf;
            self.block(&block, 1 << 40);
            self.buf_len = 0;
        }
    }

    /// The 16-byte tag of everything absorbed.
    pub fn finalize(mut self) -> [u8; 16] {
        if self.buf_len > 0 {
            // The last, short block: a 1 byte after the data, then zeros,
            // and no 2^128 bit.
            self.buf[self.buf_len] = 1;
            self.buf[self.buf_len + 1..].fill(0);
            let block = self.buf;
            self.block(&block, 0);
        }
        let [mut h0, mut h1, mut h2] = self.h;

        // Carry fully, twice round.
        let mut c;
        c = h1 >> 44;
        h1 &= MASK44;
        h2 += c;
        c = h2 >> 42;
        h2 &= MASK42;
        h0 += c * 5;
        c = h0 >> 44;
        h0 &= MASK44;
        h1 += c;
        c = h1 >> 44;
        h1 &= MASK44;
        h2 += c;
        c = h2 >> 42;
        h2 &= MASK42;
        h0 += c * 5;
        c = h0 >> 44;
        h0 &= MASK44;
        h1 += c;

        // g = h + 5 − 2^130; use it when it did not go negative (h ≥ p).
        let mut g0 = h0 + 5;
        c = g0 >> 44;
        g0 &= MASK44;
        let mut g1 = h1 + c;
        c = g1 >> 44;
        g1 &= MASK44;
        let g2 = (h2 + c).wrapping_sub(1 << 42);
        let use_g = (g2 >> 63).wrapping_sub(1);
        h0 = (h0 & !use_g) | (g0 & use_g);
        h1 = (h1 & !use_g) | (g1 & use_g);
        h2 = (h2 & !use_g) | (g2 & use_g);

        // h + s mod 2^128.
        let [t0, t1] = self.pad;
        h0 += t0 & MASK44;
        c = h0 >> 44;
        h0 &= MASK44;
        h1 += (((t0 >> 44) | (t1 << 20)) & MASK44) + c;
        c = h1 >> 44;
        h1 &= MASK44;
        h2 += ((t1 >> 24) & MASK42) + c;
        h2 &= MASK42;

        let lo = h0 | (h1 << 44);
        let hi = (h1 >> 20) | (h2 << 24);
        let mut tag = [0u8; 16];
        tag[..8].copy_from_slice(&lo.to_le_bytes());
        tag[8..].copy_from_slice(&hi.to_le_bytes());
        tag
    }

    /// h = (h + block + hibit·2^128) · r mod 2^130 − 5, partly reduced.
    fn block(&mut self, block: &[u8; 16], hibit: u64) {
        let [r0, r1, r2] = self.r;
        let [s1, s2] = self.s;
        let t0 = u64::from_le_bytes(block[0..8].try_into().expect("8 bytes"));
        let t1 = u64::from_le_bytes(block[8..16].try_into().expect("8 bytes"));
        let h0 = self.h[0] + (t0 & MASK44);
        let h1 = self.h[1] + (((t0 >> 44) | (t1 << 20)) & MASK44);
        let h2 = self.h[2] + (((t1 >> 24) & MASK42) | hibit);

        let m = |a: u64, b: u64| a as u128 * b as u128;
        let d0 = m(h0, r0) + m(h1, s2) + m(h2, s1);
        let mut d1 = m(h0, r1) + m(h1, r0) + m(h2, s2);
        let mut d2 = m(h0, r2) + m(h1, r1) + m(h2, r0);

        let mut c = (d0 >> 44) as u64;
        let mut h0 = d0 as u64 & MASK44;
        d1 += c as u128;
        c = (d1 >> 44) as u64;
        let mut h1 = d1 as u64 & MASK44;
        d2 += c as u128;
        c = (d2 >> 42) as u64;
        let h2 = d2 as u64 & MASK42;
        h0 += c * 5;
        c = h0 >> 44;
        h0 &= MASK44;
        h1 += c;
        self.h = [h0, h1, h2];
    }
}

/// Compute the Poly1305 tag of `msg` under a 32-byte one-time key.
pub fn poly1305(key: &[u8; 32], msg: &[u8]) -> [u8; 16] {
    let mut mac = Poly1305::new(key);
    mac.update(msg);
    mac.finalize()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::hex;

    /// The five-limb radix-2^26 Poly1305 the streaming one replaced:
    /// the reference for the differential tests here and in `aead`.
    pub(crate) fn poly1305_reference(key: &[u8; 32], msg: &[u8]) -> [u8; 16] {
        // r with the required clamping.
        let mut r = [0u32; 5];
        let t0 = u32::from_le_bytes(key[0..4].try_into().unwrap());
        let t1 = u32::from_le_bytes(key[4..8].try_into().unwrap());
        let t2 = u32::from_le_bytes(key[8..12].try_into().unwrap());
        let t3 = u32::from_le_bytes(key[12..16].try_into().unwrap());
        r[0] = t0 & 0x03ff_ffff;
        r[1] = ((t0 >> 26) | (t1 << 6)) & 0x03ff_ff03;
        r[2] = ((t1 >> 20) | (t2 << 12)) & 0x03ff_c0ff;
        r[3] = ((t2 >> 14) | (t3 << 18)) & 0x03f0_3fff;
        r[4] = (t3 >> 8) & 0x000f_ffff;

        let mut h = [0u64; 5];
        let r64: [u64; 5] = [
            r[0] as u64,
            r[1] as u64,
            r[2] as u64,
            r[3] as u64,
            r[4] as u64,
        ];
        // Precomputed 5*r for the reduction.
        let s = [r64[1] * 5, r64[2] * 5, r64[3] * 5, r64[4] * 5];

        for chunk in msg.chunks(16) {
            // Load the block as five 26-bit limbs with the high bit set.
            let mut block = [0u8; 17];
            block[..chunk.len()].copy_from_slice(chunk);
            block[chunk.len()] = 1;
            let b0 = u32::from_le_bytes(block[0..4].try_into().unwrap());
            let b1 = u32::from_le_bytes(block[4..8].try_into().unwrap());
            let b2 = u32::from_le_bytes(block[8..12].try_into().unwrap());
            let b3 = u32::from_le_bytes(block[12..16].try_into().unwrap());
            let b4 = block[16] as u32;

            h[0] += (b0 & 0x03ff_ffff) as u64;
            h[1] += (((b0 >> 26) | (b1 << 6)) & 0x03ff_ffff) as u64;
            h[2] += (((b1 >> 20) | (b2 << 12)) & 0x03ff_ffff) as u64;
            h[3] += (((b2 >> 14) | (b3 << 18)) & 0x03ff_ffff) as u64;
            h[4] += (((b3 >> 8) | (b4 << 24)) & 0x03ff_ffff) as u64;

            // h *= r (mod 2^130 - 5), schoolbook with 5x fold.
            let d0 = (h[0] as u128) * (r64[0] as u128)
                + (h[1] as u128) * (s[3] as u128)
                + (h[2] as u128) * (s[2] as u128)
                + (h[3] as u128) * (s[1] as u128)
                + (h[4] as u128) * (s[0] as u128);
            let d1 = (h[0] as u128) * (r64[1] as u128)
                + (h[1] as u128) * (r64[0] as u128)
                + (h[2] as u128) * (s[3] as u128)
                + (h[3] as u128) * (s[2] as u128)
                + (h[4] as u128) * (s[1] as u128);
            let d2 = (h[0] as u128) * (r64[2] as u128)
                + (h[1] as u128) * (r64[1] as u128)
                + (h[2] as u128) * (r64[0] as u128)
                + (h[3] as u128) * (s[3] as u128)
                + (h[4] as u128) * (s[2] as u128);
            let d3 = (h[0] as u128) * (r64[3] as u128)
                + (h[1] as u128) * (r64[2] as u128)
                + (h[2] as u128) * (r64[1] as u128)
                + (h[3] as u128) * (r64[0] as u128)
                + (h[4] as u128) * (s[3] as u128);
            let d4 = (h[0] as u128) * (r64[4] as u128)
                + (h[1] as u128) * (r64[3] as u128)
                + (h[2] as u128) * (r64[2] as u128)
                + (h[3] as u128) * (r64[1] as u128)
                + (h[4] as u128) * (r64[0] as u128);

            // Carry propagation back to 26-bit limbs.
            let mut c: u128;
            let mut t = [0u64; 5];
            c = d0 >> 26;
            t[0] = (d0 as u64) & 0x03ff_ffff;
            let d1 = d1 + c;
            c = d1 >> 26;
            t[1] = (d1 as u64) & 0x03ff_ffff;
            let d2 = d2 + c;
            c = d2 >> 26;
            t[2] = (d2 as u64) & 0x03ff_ffff;
            let d3 = d3 + c;
            c = d3 >> 26;
            t[3] = (d3 as u64) & 0x03ff_ffff;
            let d4 = d4 + c;
            c = d4 >> 26;
            t[4] = (d4 as u64) & 0x03ff_ffff;
            t[0] += (c as u64) * 5;
            let carry = t[0] >> 26;
            t[0] &= 0x03ff_ffff;
            t[1] += carry;
            h = t;
        }

        // Final reduction mod 2^130 - 5.
        let mut carry = h[1] >> 26;
        h[1] &= 0x03ff_ffff;
        h[2] += carry;
        carry = h[2] >> 26;
        h[2] &= 0x03ff_ffff;
        h[3] += carry;
        carry = h[3] >> 26;
        h[3] &= 0x03ff_ffff;
        h[4] += carry;
        carry = h[4] >> 26;
        h[4] &= 0x03ff_ffff;
        h[0] += carry * 5;
        carry = h[0] >> 26;
        h[0] &= 0x03ff_ffff;
        h[1] += carry;

        // Compute h + -p and select.
        let mut g = [0u64; 5];
        g[0] = h[0].wrapping_add(5);
        carry = g[0] >> 26;
        g[0] &= 0x03ff_ffff;
        g[1] = h[1].wrapping_add(carry);
        carry = g[1] >> 26;
        g[1] &= 0x03ff_ffff;
        g[2] = h[2].wrapping_add(carry);
        carry = g[2] >> 26;
        g[2] &= 0x03ff_ffff;
        g[3] = h[3].wrapping_add(carry);
        carry = g[3] >> 26;
        g[3] &= 0x03ff_ffff;
        g[4] = h[4].wrapping_add(carry).wrapping_sub(1 << 26);

        // If g4's top bit clear, h >= p, use g.
        if g[4] >> 63 == 0 {
            h = g;
        }

        // Serialize h to 128 bits and add s (the second key half) mod 2^128.
        let acc: u128 = (h[0] as u128)
            | ((h[1] as u128) << 26)
            | ((h[2] as u128) << 52)
            | ((h[3] as u128) << 78)
            | ((h[4] as u128) << 104);
        let s_key = u128::from_le_bytes(key[16..32].try_into().unwrap());
        let tag = acc.wrapping_add(s_key);
        tag.to_le_bytes()
    }

    /// `msg` fed to a streaming computation in the pieces that `cuts`
    /// (sorted offsets) marks.
    fn streamed(key: &[u8; 32], msg: &[u8], cuts: &[usize]) -> [u8; 16] {
        let mut mac = Poly1305::new(key);
        let mut at = 0;
        for &cut in cuts {
            mac.update(&msg[at..cut]);
            at = cut;
        }
        mac.update(&msg[at..]);
        mac.finalize()
    }

    /// Bytes that do not repeat with a short period, so a misplaced
    /// block shows.
    fn bytes(n: usize, seed: u8) -> Vec<u8> {
        (0..n)
            .map(|i| (i as u8).wrapping_mul(151).wrapping_add(seed) ^ (i >> 8) as u8)
            .collect()
    }

    // RFC 8439 §2.5.2 test vector.
    #[test]
    fn rfc8439_vector() {
        let key = hex::decode_array::<32>(
            "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b",
        )
        .unwrap();
        let msg = b"Cryptographic Forum Research Group";
        for tag in [poly1305(&key, msg), poly1305_reference(&key, msg)] {
            assert_eq!(hex::encode(&tag), "a8061dc1305136c6c22b8baf0c0127a9");
        }
    }
    // RFC 8439 A.3 test vector #1: zero key, zero message.
    #[test]
    fn zero_key_zero_msg() {
        let key = [0u8; 32];
        let msg = [0u8; 64];
        assert_eq!(poly1305(&key, &msg), [0u8; 16]);
    }

    // RFC 8439 A.3 test vector #2: r = 0, s = text tail.
    #[test]
    fn r_zero_tag_is_s() {
        let mut key = [0u8; 32];
        let s = hex::decode("36e5f6b5c5e06070f0efca96227a863e").unwrap();
        key[16..].copy_from_slice(&s);
        let msg = b"Any submission to the IETF intended by the Contributor for publication as all or part of an IETF Internet-Draft or RFC and any statement made within the context of an IETF activity is considered an \"IETF Contribution\". Such statements include oral statements in IETF sessions, as well as written and electronic communications made at any time or place, which are addressed to";
        assert_eq!(
            hex::encode(&poly1305(&key, msg)),
            "36e5f6b5c5e06070f0efca96227a863e"
        );
    }

    #[test]
    fn tag_depends_on_every_byte() {
        let key = [7u8; 32];
        let msg = vec![1u8; 100];
        let tag = poly1305(&key, &msg);
        for i in [0usize, 50, 99] {
            let mut bad = msg.clone();
            bad[i] ^= 1;
            assert_ne!(poly1305(&key, &bad), tag, "byte {i}");
        }
    }

    #[test]
    fn all_lengths_stable() {
        let key = [3u8; 32];
        for n in 0..48usize {
            let msg = vec![0xa5u8; n];
            let t1 = poly1305(&key, &msg);
            let t2 = poly1305(&key, &msg);
            assert_eq!(t1, t2, "len {n}");
        }
    }

    #[test]
    fn streaming_matches_the_reference_at_every_length_and_split() {
        // Keys whose h reaches the top of its range: all-ones r and s
        // exercise every carry and the final h ≥ p selection.
        let keys = [[0xffu8; 32], [3u8; 32], {
            let mut k = [0u8; 32];
            k[..16].copy_from_slice(&bytes(16, 9));
            k[16..].copy_from_slice(&bytes(16, 77));
            k
        }];
        for key in &keys {
            for n in 0..=1100usize {
                let msg = bytes(n, n as u8);
                let want = poly1305_reference(key, &msg);
                assert_eq!(poly1305(key, &msg), want, "len {n}");
                // Every two-piece split of the short messages, and pieces
                // of every size from 1 to 17 bytes on all of them.
                if n <= 96 || n % 97 == 0 {
                    for cut in 0..=n {
                        assert_eq!(streamed(key, &msg, &[cut]), want, "len {n} cut {cut}");
                    }
                }
                for piece in [1usize, 7, 15, 16, 17] {
                    let cuts: Vec<usize> = (piece..n).step_by(piece).collect();
                    assert_eq!(streamed(key, &msg, &cuts), want, "len {n} piece {piece}");
                }
            }
        }
        // A message of 0xff bytes with all-ones r and s: h stays near
        // its largest value block after block.
        let msg = [0xffu8; 1100];
        assert_eq!(poly1305(&keys[0], &msg), poly1305_reference(&keys[0], &msg));
    }

    #[test]
    fn pad16_absorbs_zeros_to_the_block_boundary() {
        let key = [0x5au8; 32];
        for n in 0..=48usize {
            let msg = bytes(n, 1);
            let mut padded = msg.clone();
            padded.resize(n.div_ceil(16) * 16, 0);
            padded.extend_from_slice(b"tail");
            let mut mac = Poly1305::new(&key);
            mac.update(&msg);
            mac.pad16();
            mac.pad16();
            mac.update(b"tail");
            assert_eq!(mac.finalize(), poly1305_reference(&key, &padded), "len {n}");
        }
    }
}
