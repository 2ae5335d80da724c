//! Arithmetic in GF(2^255 − 19), the base field of Curve25519 / edwards25519.
//!
//! Elements are held as four 64-bit little-endian limbs, always reduced to
//! `[0, p)` after every public operation. Multiplication uses schoolbook
//! 4×4 limb products accumulated in `u128`, squaring the 10 distinct
//! products, both followed by the standard `2^256 ≡ 38 (mod p)` fold.
//! Inversion is Bernstein–Yang safegcd (variable-time divsteps in batches
//! of 62 on signed 62-bit limbs, after libsecp256k1's `modinv64_var`); the
//! decompression power keeps the ref10 addition chain. This is
//! variable-time, which is acceptable for the simulation-grade purposes
//! of this crate.

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
    /// the ref10 chain (254 squarings, 11 multiplications): the reference
    /// `invert` is tested against.
    #[cfg(test)]
    fn invert_fermat(self) -> Fe {
        let (z_250_0, z11) = self.pow_2_250_1();
        z_250_0.square_n(5).mul(z11)
    }

    /// Multiplicative inverse by safegcd (Bernstein & Yang 2019, "Fast
    /// constant-time gcd computation and modular inversion"), in the
    /// variable-time form of libsecp256k1's `modinv64_var`: batches of 62
    /// divsteps on `(f, g) = (p, self)`, each applied to `(f, g)` and to
    /// the Bézout coefficients `(d, e)` as one 2×2 matrix, until `g = 0`;
    /// then `d = ±self^−1`. Maps 0 to 0.
    pub fn invert(self) -> Fe {
        let mut d = [0i64; 5];
        let mut e = [1i64, 0, 0, 0, 0];
        let mut f = P62;
        let mut g = to_signed62(&self.0);
        // Limbs of f and g still in use; shrinks as they do.
        let mut len = 5;
        // η = −δ, with δ = 1 at the start.
        let mut eta = -1i64;
        loop {
            let t;
            (eta, t) = divsteps_62_var(eta, f[0] as u64, g[0] as u64);
            update_de_62(&mut d, &mut e, &t);
            update_fg_62(&mut f[..len], &mut g[..len], &t);
            if g[..len].iter().all(|&x| x == 0) {
                break;
            }
            // Drop the top limb when it is only sign extension in both.
            let (fn_, gn) = (f[len - 1], g[len - 1]);
            if len > 1 && fn_ ^ (fn_ >> 63) == 0 && gn ^ (gn >> 63) == 0 {
                f[len - 2] |= fn_ << 62;
                g[len - 2] |= gn << 62;
                len -= 1;
            }
        }
        // f is now ±gcd(p, self) = ±1, and d = ±self^−1 accordingly.
        Fe(from_signed62(normalize_62(d, f[len - 1])))
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

/// p in signed 62-bit limbs: −19 + 2^7·2^248.
const P62: [i64; 5] = [-19, 0, 0, 0, 128];
/// p^−1 mod 2^62.
const P_INV62: u64 = 0x3943_5e50_d794_35e5;
/// The low 62 bits.
const M62: u64 = u64::MAX >> 2;

/// Reduced limbs as signed 62-bit limbs (all nonnegative).
fn to_signed62(a: &[u64; 4]) -> [i64; 5] {
    [
        a[0] & M62,
        (a[0] >> 62 | a[1] << 2) & M62,
        (a[1] >> 60 | a[2] << 4) & M62,
        (a[2] >> 58 | a[3] << 6) & M62,
        a[3] >> 56,
    ]
    .map(|x| x as i64)
}

/// Signed 62-bit limbs of a value in `[0, p)`, normalised, as u64 limbs.
fn from_signed62(v: [i64; 5]) -> [u64; 4] {
    let v = v.map(|x| x as u64);
    [
        v[0] | v[1] << 62,
        v[1] >> 2 | v[2] << 60,
        v[2] >> 4 | v[3] << 58,
        v[3] >> 6 | v[4] << 56,
    ]
}

/// The transition matrix of 62 divsteps, scaled by 2^62: it maps
/// `(f, g)` to `2^62·(f', g') = (u·f + v·g, q·f + r·g)`.
struct Trans {
    u: i64,
    v: i64,
    q: i64,
    r: i64,
}

/// 62 divsteps on the low 64 bits of `(f, g)` (f odd), starting from
/// `eta`; returns the new `eta` and the transition matrix. Runs of zero
/// bits in g are skipped at once, and each other step cancels up to 6
/// (η < 0) or 4 (η ≥ 0) low bits of g with one multiple of f.
fn divsteps_62_var(mut eta: i64, f0: u64, g0: u64) -> (i64, Trans) {
    let (mut u, mut v, mut q, mut r) = (1u64, 0u64, 0u64, 1u64);
    let (mut f, mut g) = (f0, g0);
    // Divsteps left in this batch.
    let mut i = 62u32;
    loop {
        // A sentinel bit stops the count at i.
        let zeros = (g | u64::MAX << i).trailing_zeros();
        g >>= zeros;
        u <<= zeros;
        v <<= zeros;
        eta -= i64::from(zeros);
        i -= zeros;
        if i == 0 {
            break;
        }
        debug_assert!(f & 1 == 1 && g & 1 == 1);
        let (m, w);
        if eta < 0 {
            // δ > 0 and g odd: swap, (f, g) = (g, −f).
            eta = -eta;
            (f, g) = (g, f.wrapping_neg());
            (u, q) = (q, u.wrapping_neg());
            (v, r) = (r, v.wrapping_neg());
            // Cancel up to 6 bits of g, no more than i, and no more than
            // η + 1 (after that η changes sign again).
            let limit = (eta + 1).min(i64::from(i)) as u32;
            m = (u64::MAX >> (64 - limit)) & 63;
            // w = −g/f mod 2^6.
            w = f
                .wrapping_mul(g)
                .wrapping_mul(f.wrapping_mul(f).wrapping_sub(2))
                & m;
        } else {
            // Here η is usually small: cancel up to 4 bits.
            let limit = (eta + 1).min(i64::from(i)) as u32;
            m = (u64::MAX >> (64 - limit)) & 15;
            // w = −g/f mod 2^4.
            let f_inv = f.wrapping_add((f.wrapping_add(1) & 4) << 1);
            w = f_inv.wrapping_neg().wrapping_mul(g) & m;
        }
        g = g.wrapping_add(f.wrapping_mul(w));
        q = q.wrapping_add(u.wrapping_mul(w));
        r = r.wrapping_add(v.wrapping_mul(w));
        debug_assert!(g & m == 0);
    }
    let t = Trans {
        u: u as i64,
        v: v as i64,
        q: q as i64,
        r: r as i64,
    };
    (eta, t)
}

/// `(d, e) = t·(d, e) / 2^62 mod p`, keeping both in `(−2p, p)`: a
/// multiple of p chosen to clear the low 62 bits is added before the
/// shift, and one more when the input was negative.
fn update_de_62(d: &mut [i64; 5], e: &mut [i64; 5], t: &Trans) {
    let (u, v, q, r) = (t.u as i128, t.v as i128, t.q as i128, t.r as i128);
    // Start with p·(t·[sd, se]) for the sign masks of d and e.
    let (sd, se) = (d[4] >> 63, e[4] >> 63);
    let mut md = (t.u & sd) + (t.v & se);
    let mut me = (t.q & sd) + (t.r & se);
    let mut cd = u * d[0] as i128 + v * e[0] as i128;
    let mut ce = q * d[0] as i128 + r * e[0] as i128;
    // Make t·[d, e] + p·[md, me] divisible by 2^62.
    md -= (P_INV62.wrapping_mul(cd as u64).wrapping_add(md as u64) & M62) as i64;
    me -= (P_INV62.wrapping_mul(ce as u64).wrapping_add(me as u64) & M62) as i64;
    cd += P62[0] as i128 * md as i128;
    ce += P62[0] as i128 * me as i128;
    debug_assert!(cd as u64 & M62 == 0 && ce as u64 & M62 == 0);
    cd >>= 62;
    ce >>= 62;
    for i in 1..5 {
        cd += u * d[i] as i128 + v * e[i] as i128 + P62[i] as i128 * md as i128;
        ce += q * d[i] as i128 + r * e[i] as i128 + P62[i] as i128 * me as i128;
        d[i - 1] = (cd as u64 & M62) as i64;
        e[i - 1] = (ce as u64 & M62) as i64;
        cd >>= 62;
        ce >>= 62;
    }
    d[4] = cd as i64;
    e[4] = ce as i64;
}

/// `(f, g) = t·(f, g) / 2^62` over the limbs in use (exact: the matrix
/// clears the low 62 bits of both).
fn update_fg_62(f: &mut [i64], g: &mut [i64], t: &Trans) {
    let (u, v, q, r) = (t.u as i128, t.v as i128, t.q as i128, t.r as i128);
    let mut cf = u * f[0] as i128 + v * g[0] as i128;
    let mut cg = q * f[0] as i128 + r * g[0] as i128;
    debug_assert!(cf as u64 & M62 == 0 && cg as u64 & M62 == 0);
    cf >>= 62;
    cg >>= 62;
    for i in 1..f.len() {
        cf += u * f[i] as i128 + v * g[i] as i128;
        cg += q * f[i] as i128 + r * g[i] as i128;
        f[i - 1] = (cf as u64 & M62) as i64;
        g[i - 1] = (cg as u64 & M62) as i64;
        cf >>= 62;
        cg >>= 62;
    }
    let top = f.len() - 1;
    f[top] = cf as i64;
    g[top] = cg as i64;
}

/// Bring `d` from `(−2p, p)` to `[0, p)`, negated first if `sign < 0`.
fn normalize_62(mut d: [i64; 5], sign: i64) -> [i64; 5] {
    let add_p = |d: &mut [i64; 5]| {
        if d[4] < 0 {
            for (x, m) in d.iter_mut().zip(P62) {
                *x += m;
            }
        }
    };
    let carry = |d: &mut [i64; 5]| {
        for i in 0..4 {
            d[i + 1] += d[i] >> 62;
            d[i] &= M62 as i64;
        }
    };
    // (−2p, p) → (−p, p), then negate if asked; limbs stay in (−2^63, 2^63).
    add_p(&mut d);
    if sign < 0 {
        d = d.map(|x| -x);
    }
    carry(&mut d);
    // (−p, p) → [0, p).
    add_p(&mut d);
    carry(&mut d);
    d
}

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
            assert_eq!(a.invert_fermat(), a.pow_limbs(&P_MINUS_2), "chain {a:?}");
            assert_eq!(a.invert(), a.invert_fermat(), "invert {a:?}");
            assert_eq!(a.pow_p58(), a.pow_limbs(&P_MINUS_5_OVER_8), "pow_p58 {a:?}");
        }
    }

    #[test]
    fn invert_matches_fermat_at_both_ends_of_the_field() {
        let p_minus_300 = Fe(P).sub(fe(300));
        for n in 0..300 {
            let low = fe(n);
            assert_eq!(low.invert(), low.invert_fermat(), "{n}");
            let high = p_minus_300.add(fe(n));
            assert_eq!(high.invert(), high.invert_fermat(), "p − 300 + {n}");
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
            prop_assert_eq!(a.invert_fermat(), a.pow_limbs(&P_MINUS_2));
            prop_assert_eq!(a.invert(), a.invert_fermat());
            prop_assert_eq!(a.pow_p58(), a.pow_limbs(&P_MINUS_5_OVER_8));
        }
    }
}
