//! Arithmetic in GF(2^255 − 19), the base field of Curve25519 / edwards25519.
//!
//! Elements are held as four 64-bit little-endian limbs, always reduced to
//! `[0, p)` after every public operation. Multiplication uses schoolbook
//! 4×4 limb products accumulated in `u128`, squaring the 10 distinct
//! products, both followed by the standard `2^256 ≡ 38 (mod p)` fold.
//! Inversion and the decompression power use the ref10 addition chain.
//! This is variable-time, which is acceptable for the simulation-grade
//! purposes of this crate.

/// p = 2^255 − 19 as little-endian u64 limbs.
pub const P: [u64; 4] = [
    0xffff_ffff_ffff_ffed,
    0xffff_ffff_ffff_ffff,
    0xffff_ffff_ffff_ffff,
    0x7fff_ffff_ffff_ffff,
];

/// An element of GF(2^255 − 19), kept fully reduced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fe(pub [u64; 4]);

// Explicit arithmetic method names (`add`, `sub`, `mul`, `neg`) are
// deliberate here: operator overloading would hide the cost and the
// variable-time nature of these operations.
#[allow(clippy::should_implement_trait)]
impl Fe {
    /// The additive identity.
    pub const ZERO: Fe = Fe([0, 0, 0, 0]);
    /// The multiplicative identity.
    pub const ONE: Fe = Fe([1, 0, 0, 0]);

    /// Construct from little-endian bytes, ignoring the top bit (RFC 7748
    /// / 8032 convention) and reducing mod p.
    pub fn from_bytes(b: &[u8; 32]) -> Fe {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&b[i * 8..i * 8 + 8]);
            limbs[i] = u64::from_le_bytes(chunk);
        }
        limbs[3] &= 0x7fff_ffff_ffff_ffff;
        let mut fe = Fe(limbs);
        fe.reduce_once();
        fe
    }

    /// Serialize to 32 little-endian bytes (fully reduced, top bit clear).
    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[i * 8..i * 8 + 8].copy_from_slice(&self.0[i].to_le_bytes());
        }
        out
    }

    /// Subtract p once if the value is ≥ p.
    fn reduce_once(&mut self) {
        if geq(&self.0, &P) {
            self.0 = sub_raw(&self.0, &P);
        }
    }

    /// Field addition.
    pub fn add(self, rhs: Fe) -> Fe {
        let (sum, carry) = add_raw(&self.0, &rhs.0);
        let mut v = sum;
        if carry || geq(&v, &P) {
            v = sub_raw(&v, &P);
        }
        Fe(v)
    }

    /// Field subtraction.
    pub fn sub(self, rhs: Fe) -> Fe {
        if geq(&self.0, &rhs.0) {
            Fe(sub_raw(&self.0, &rhs.0))
        } else {
            // self - rhs + p
            let (tmp, _carry) = add_raw(&self.0, &P);
            Fe(sub_raw(&tmp, &rhs.0))
        }
    }

    /// Field negation.
    pub fn neg(self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// Field multiplication.
    pub fn mul(self, rhs: Fe) -> Fe {
        // Schoolbook 4x4 -> 8 limbs with per-row carry propagation (a
        // column-wise u128 accumulator can overflow with 4 summands).
        let a = &self.0;
        let b = &rhs.0;
        let mut r = [0u64; 8];
        for i in 0..4 {
            let mut carry: u128 = 0;
            for j in 0..4 {
                let v = (a[i] as u128) * (b[j] as u128) + r[i + j] as u128 + carry;
                r[i + j] = v as u64;
                carry = v >> 64;
            }
            r[i + 4] = carry as u64;
        }
        reduce_wide(&r)
    }

    /// Field squaring: the 6 cross products once, doubled, plus the 4
    /// diagonal squares — 10 limb products instead of `mul`'s 16.
    pub fn square(self) -> Fe {
        let a = &self.0;
        let mut r = [0u64; 8];
        // Cross products a[i]·a[j], i < j, row by row.
        for i in 0..3 {
            let mut carry: u128 = 0;
            for j in i + 1..4 {
                let v = (a[i] as u128) * (a[j] as u128) + r[i + j] as u128 + carry;
                r[i + j] = v as u64;
                carry = v >> 64;
            }
            r[i + 4] = carry as u64;
        }
        // Double them (the sum is below 2^511, so the shift cannot overflow).
        for i in (1..8).rev() {
            r[i] = (r[i] << 1) | (r[i - 1] >> 63);
        }
        // Add the diagonal squares a[i]^2 at limb 2i.
        let mut carry: u128 = 0;
        for i in 0..4 {
            let sq = (a[i] as u128) * (a[i] as u128);
            let lo = r[2 * i] as u128 + (sq as u64) as u128 + carry;
            r[2 * i] = lo as u64;
            let hi = r[2 * i + 1] as u128 + (sq >> 64) + (lo >> 64);
            r[2 * i + 1] = hi as u64;
            carry = hi >> 64;
        }
        reduce_wide(&r)
    }

    /// `self^(2^n)`: `n` successive squarings.
    fn square_n(self, n: u32) -> Fe {
        let mut x = self;
        for _ in 0..n {
            x = x.square();
        }
        x
    }

    /// Multiply by a small constant.
    pub fn mul_small(self, k: u64) -> Fe {
        let a = &self.0;
        let mut r = [0u64; 8];
        let mut carry: u128 = 0;
        for i in 0..4 {
            let v = (a[i] as u128) * (k as u128) + carry;
            r[i] = v as u64;
            carry = v >> 64;
        }
        r[4] = carry as u64;
        reduce_wide(&r)
    }

    /// Raise to the power given as 256-bit little-endian limbs
    /// (square-and-multiply): the reference the addition chains are
    /// tested against.
    #[cfg(test)]
    pub fn pow_limbs(self, exp: &[u64; 4]) -> Fe {
        let mut acc = Fe::ONE;
        // Process from the most significant bit downwards.
        for i in (0..256).rev() {
            acc = acc.square();
            let limb = exp[i / 64];
            if (limb >> (i % 64)) & 1 == 1 {
                acc = acc.mul(self);
            }
        }
        acc
    }

    /// The shared prefix of the ref10 addition chains for `invert` and
    /// `pow_p58`: returns `(self^(2^250 − 1), self^11)`.
    fn pow_2_250_1(self) -> (Fe, Fe) {
        let z2 = self.square();
        let z9 = z2.square_n(2).mul(self);
        let z11 = z9.mul(z2);
        let z_5_0 = z11.square().mul(z9); // 2^5 − 1
        let z_10_0 = z_5_0.square_n(5).mul(z_5_0);
        let z_20_0 = z_10_0.square_n(10).mul(z_10_0);
        let z_40_0 = z_20_0.square_n(20).mul(z_20_0);
        let z_50_0 = z_40_0.square_n(10).mul(z_10_0);
        let z_100_0 = z_50_0.square_n(50).mul(z_50_0);
        let z_200_0 = z_100_0.square_n(100).mul(z_100_0);
        let z_250_0 = z_200_0.square_n(50).mul(z_50_0);
        (z_250_0, z11)
    }

    /// Multiplicative inverse via Fermat: a^(p−2) = a^(2^255 − 21), by
    /// the ref10 chain (254 squarings, 11 multiplications). Maps 0 to 0.
    pub fn invert(self) -> Fe {
        let (z_250_0, z11) = self.pow_2_250_1();
        z_250_0.square_n(5).mul(z11)
    }

    /// a^((p−5)/8) = a^(2^252 − 3), the core of the combined sqrt/division
    /// used in point decompression (RFC 8032 §5.1.3).
    pub fn pow_p58(self) -> Fe {
        let (z_250_0, _) = self.pow_2_250_1();
        z_250_0.square_n(2).mul(self)
    }

    /// True if the element is zero.
    pub fn is_zero(self) -> bool {
        self.0 == [0, 0, 0, 0]
    }

    /// Least significant bit of the canonical representation (the "sign"
    /// bit used by point compression).
    pub fn is_negative(self) -> bool {
        self.0[0] & 1 == 1
    }

    /// Conditional swap (variable time — simulation grade).
    pub fn cswap(swap: bool, a: &mut Fe, b: &mut Fe) {
        if swap {
            std::mem::swap(a, b);
        }
    }
}

/// sqrt(−1) = 2^((p−1)/4) mod p, used in decompression.
pub const SQRT_M1: Fe = Fe([
    0xc4ee_1b27_4a0e_a0b0,
    0x2f43_1806_ad2f_e478,
    0x2b4d_0099_3dfb_d7a7,
    0x2b83_2480_4fc1_df0b,
]);

/// d = −121665/121666, the edwards25519 curve constant.
pub const D: Fe = Fe([
    0x75eb_4dca_1359_78a3,
    0x0070_0a4d_4141_d8ab,
    0x8cc7_4079_7779_e898,
    0x5203_6cee_2b6f_fe73,
]);

/// 2d, the constant every point addition multiplies by.
pub const D2: Fe = Fe([
    0xebd6_9b94_26b2_f159,
    0x00e0_149a_8283_b156,
    0x198e_80f2_eef3_d130,
    0x2406_d9dc_56df_fce7,
]);

/// Invert every element of `xs` in place with a single field inversion
/// (Montgomery's trick: 3 multiplications per element). No element may
/// be zero.
pub(crate) fn batch_invert(xs: &mut [Fe]) {
    let mut prefix = Vec::with_capacity(xs.len());
    let mut acc = Fe::ONE;
    for x in xs.iter() {
        prefix.push(acc);
        acc = acc.mul(*x);
    }
    // `inv` is always the inverse of the product of the elements not yet
    // visited by the backward sweep.
    let mut inv = acc.invert();
    for (x, before) in xs.iter_mut().zip(prefix).rev() {
        let next = inv.mul(*x);
        *x = inv.mul(before);
        inv = next;
    }
}

fn geq(a: &[u64; 4], b: &[u64; 4]) -> bool {
    for i in (0..4).rev() {
        if a[i] > b[i] {
            return true;
        }
        if a[i] < b[i] {
            return false;
        }
    }
    true
}

fn add_raw(a: &[u64; 4], b: &[u64; 4]) -> ([u64; 4], bool) {
    let mut out = [0u64; 4];
    let mut carry = false;
    for i in 0..4 {
        let (s1, c1) = a[i].overflowing_add(b[i]);
        let (s2, c2) = s1.overflowing_add(carry as u64);
        out[i] = s2;
        carry = c1 || c2;
    }
    (out, carry)
}

fn sub_raw(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let mut out = [0u64; 4];
    let mut borrow = false;
    for i in 0..4 {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow as u64);
        out[i] = d2;
        borrow = b1 || b2;
    }
    out
}

/// Reduce an 8-limb (512-bit) value mod p using 2^256 ≡ 38 and
/// 2^255 ≡ 19.
fn reduce_wide(r: &[u64; 8]) -> Fe {
    // lo + 38·hi: 256 bits plus a carry of at most 38.
    let mut lo = [0u64; 4];
    let mut carry: u128 = 0;
    for i in 0..4 {
        let v = r[i] as u128 + (r[i + 4] as u128) * 38 + carry;
        lo[i] = v as u64;
        carry = v >> 64;
    }
    // carry·2^256 + lo = (2·carry + bit 255)·2^255 + (lo mod 2^255).
    let top = ((carry as u64) << 1) | (lo[3] >> 63);
    lo[3] &= 0x7fff_ffff_ffff_ffff;
    let mut c = top * 19;
    for limb in lo.iter_mut() {
        let (v, o) = limb.overflowing_add(c);
        *limb = v;
        c = o as u64;
    }
    // Now below 2^255 + 77·19 < 2p: one conditional subtraction.
    let mut fe = Fe(lo);
    fe.reduce_once();
    fe
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fe(n: u64) -> Fe {
        Fe([n, 0, 0, 0])
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = fe(123456789);
        let b = fe(987654321);
        assert_eq!(a.add(b).sub(b), a);
        assert_eq!(a.sub(b).add(b), a);
    }

    #[test]
    fn neg_is_additive_inverse() {
        let a = Fe([0xdead_beef, 0xcafe, 0x1234, 0x0fff]);
        assert_eq!(a.add(a.neg()), Fe::ZERO);
        assert_eq!(Fe::ZERO.neg(), Fe::ZERO);
    }

    #[test]
    fn mul_matches_small_cases() {
        assert_eq!(fe(6).mul(fe(7)), fe(42));
        assert_eq!(fe(0).mul(fe(7)), Fe::ZERO);
        assert_eq!(fe(1).mul(fe(7)), fe(7));
    }

    #[test]
    fn p_is_zero() {
        let mut p = Fe(P);
        p.reduce_once();
        assert_eq!(p, Fe::ZERO);
        // p - 1 + 2 == 1
        let pm1 = Fe(P).sub(fe(1));
        assert_eq!(pm1.add(fe(2)), fe(1));
    }

    #[test]
    fn invert_small() {
        for n in [1u64, 2, 3, 12345, 0xffff_ffff] {
            let a = fe(n);
            assert_eq!(a.mul(a.invert()), Fe::ONE, "n = {n}");
        }
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        assert_eq!(SQRT_M1.square(), Fe::ONE.neg());
    }

    #[test]
    fn curve_d_definition() {
        // d * 121666 == -121665
        assert_eq!(D.mul(fe(121666)), fe(121665).neg());
        assert_eq!(D.add(D), D2);
    }

    #[test]
    fn bytes_roundtrip() {
        let a = Fe([
            0x0123_4567_89ab_cdef,
            0xfedc_ba98_7654_3210,
            0xaaaa,
            0x7000_0000_0000_0000,
        ]);
        assert_eq!(Fe::from_bytes(&a.to_bytes()), a);
    }

    #[test]
    fn from_bytes_reduces() {
        // 2^255 - 19 (i.e. p) encodes to zero once the high bit handling
        // and reduction are applied; p-1 stays p-1.
        let mut b = [0xffu8; 32];
        b[31] = 0x7f;
        // This is 2^255 - 1 = p + 18 -> reduces to 18.
        assert_eq!(Fe::from_bytes(&b), fe(18));
    }

    #[test]
    fn mul_small_matches_mul() {
        let a = Fe([u64::MAX, u64::MAX, u64::MAX, 0x7fff_ffff_ffff_ffff]);
        assert_eq!(a.mul_small(38), a.mul(fe(38)));
        assert_eq!(a.mul_small(121666), a.mul(fe(121666)));
    }

    #[test]
    fn pow_limbs_matches_repeated_mul() {
        let a = fe(3);
        // 3^10 = 59049
        assert_eq!(a.pow_limbs(&[10, 0, 0, 0]), fe(59049));
        assert_eq!(a.pow_limbs(&[0, 0, 0, 0]), Fe::ONE);
        assert_eq!(a.pow_limbs(&[1, 0, 0, 0]), a);
    }

    // Differential references: the addition chains against generic
    // square-and-multiply, and `square` against `mul`.
    const P_MINUS_2: [u64; 4] = [
        0xffff_ffff_ffff_ffeb,
        0xffff_ffff_ffff_ffff,
        0xffff_ffff_ffff_ffff,
        0x7fff_ffff_ffff_ffff,
    ];
    const P_MINUS_5_OVER_8: [u64; 4] = [
        0xffff_ffff_ffff_fffd,
        0xffff_ffff_ffff_ffff,
        0xffff_ffff_ffff_ffff,
        0x0fff_ffff_ffff_ffff,
    ];

    fn edge_elements() -> Vec<Fe> {
        let p_minus_1 = Fe(P).sub(fe(1));
        vec![
            Fe::ZERO,
            Fe::ONE,
            fe(2),
            fe(19),
            fe(u64::MAX),
            p_minus_1,
            p_minus_1.sub(fe(18)),
            Fe([u64::MAX, u64::MAX, u64::MAX, 0x3fff_ffff_ffff_ffff]),
            Fe([0, 0, 0, 0x4000_0000_0000_0000]),
            SQRT_M1,
            D,
        ]
    }

    #[test]
    fn fast_paths_match_references_on_edge_elements() {
        for a in edge_elements() {
            assert_eq!(a.square(), a.mul(a), "square {a:?}");
            assert_eq!(a.invert(), a.pow_limbs(&P_MINUS_2), "invert {a:?}");
            assert_eq!(a.pow_p58(), a.pow_limbs(&P_MINUS_5_OVER_8), "pow_p58 {a:?}");
        }
    }

    #[test]
    fn batch_invert_matches_invert() {
        let xs: Vec<Fe> = edge_elements().into_iter().skip(1).collect();
        let mut inv = xs.clone();
        batch_invert(&mut inv);
        for (x, i) in xs.iter().zip(&inv) {
            assert_eq!(*i, x.invert());
        }
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn square_matches_mul(b in any::<[u8; 32]>()) {
            let a = Fe::from_bytes(&b);
            prop_assert_eq!(a.square(), a.mul(a));
        }

        #[test]
        fn chains_match_pow_limbs(b in any::<[u8; 32]>()) {
            let a = Fe::from_bytes(&b);
            prop_assert_eq!(a.invert(), a.pow_limbs(&P_MINUS_2));
            prop_assert_eq!(a.pow_p58(), a.pow_limbs(&P_MINUS_5_OVER_8));
        }
    }
}
