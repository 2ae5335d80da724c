//! Arithmetic in GF(2^255 − 19), the base field of Curve25519 / edwards25519.
//!
//! Elements are held as four 64-bit little-endian limbs, reduced lazily:
//! an `Fe` may hold *any* 256-bit value congruent to its element, not
//! only the canonical one in `[0, p)`. `add`, `sub` and `neg` are
//! branch-free carry (borrow) chains that fold a carry-out (borrow-out)
//! back in as +38 (−38), since `2^256 ≡ 38 (mod p)`. `mul`, `square` and
//! `mul_small` multiply-accumulate straight-line into eight limbs in
//! `u128` and fold the top four back with one multiplication by 38;
//! nothing compares against p. The canonical value is computed only where
//! an element is observed: `to_bytes`, `==`, `is_zero`, `is_negative`,
//! and the input to `invert`.
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

/// The low 63 bits of a limb: bits 0..255 of the top limb.
const LOW_63: u64 = u64::MAX >> 1;

/// An element of GF(2^255 − 19): any 256-bit value congruent to it.
/// Equality compares canonical values.
#[derive(Clone, Copy, Debug)]
pub struct Fe(pub [u64; 4]);

impl PartialEq for Fe {
    fn eq(&self, other: &Fe) -> bool {
        self.canonical() == other.canonical()
    }
}

impl Eq for Fe {}

/// `a + b + carry` as (low limb, carry-out).
#[inline(always)]
fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// `a − b − borrow` as (low limb, borrow-out).
#[inline(always)]
fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let (d, b1) = a.overflowing_sub(b);
    let (d, b2) = d.overflowing_sub(borrow);
    (d, (b1 | b2) as u64)
}

/// `acc + a·b + carry` as (low limb, high limb); cannot overflow.
#[inline(always)]
fn mac(acc: u64, a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = acc as u128 + (a as u128) * (b as u128) + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// `r + c·2^256` folded to 256 bits as `r + 38·c`, for `c < 2^58`.
#[inline(always)]
fn fold_carry(r: [u64; 4], c: u64) -> [u64; 4] {
    let (r0, c) = adc(r[0], 38 * c, 0);
    let (r1, c) = adc(r[1], 0, c);
    let (r2, c) = adc(r[2], 0, c);
    let (r3, c) = adc(r[3], 0, c);
    // A second carry-out leaves r below 38·c, so this cannot overflow.
    [r0 + 38 * c, r1, r2, r3]
}

/// Reduce an 8-limb (512-bit) product to 256 bits: `lo + 38·hi`, then
/// the carry-out folded once more.
#[inline(always)]
fn reduce_wide(r: [u64; 8]) -> Fe {
    let (l0, c) = mac(r[0], r[4], 38, 0);
    let (l1, c) = mac(r[1], r[5], 38, c);
    let (l2, c) = mac(r[2], r[6], 38, c);
    let (l3, c) = mac(r[3], r[7], 38, c);
    Fe(fold_carry([l0, l1, l2, l3], c))
}

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
    /// / 8032 convention); the value need not be below p.
    pub fn from_bytes(b: &[u8; 32]) -> Fe {
        let mut limbs = [0u64; 4];
        for (limb, chunk) in limbs.iter_mut().zip(b.chunks_exact(8)) {
            *limb = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        limbs[3] &= LOW_63;
        Fe(limbs)
    }

    /// Serialize to 32 little-endian bytes (canonical, top bit clear).
    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (chunk, limb) in out.chunks_exact_mut(8).zip(self.canonical()) {
            chunk.copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    /// The canonical representative, in `[0, p)`.
    fn canonical(self) -> [u64; 4] {
        let [r0, r1, r2, r3] = self.0;
        // Fold bit 255 back in as 19: the value is now below 2^255 + 19.
        let (r0, c) = adc(r0, 19 * (r3 >> 63), 0);
        let (r1, c) = adc(r1, 0, c);
        let (r2, c) = adc(r2, 0, c);
        let r3 = (r3 & LOW_63) + c;
        // It is ≥ p exactly when adding 19 reaches bit 255; then adding
        // 19 and clearing that bit subtracts p.
        let (_, c) = adc(r0, 19, 0);
        let (_, c) = adc(r1, 0, c);
        let (_, c) = adc(r2, 0, c);
        let q = (r3 + c) >> 63;
        let (r0, c) = adc(r0, 19 * q, 0);
        let (r1, c) = adc(r1, 0, c);
        let (r2, c) = adc(r2, 0, c);
        [r0, r1, r2, (r3 + c) & LOW_63]
    }

    /// Field addition.
    pub fn add(self, rhs: Fe) -> Fe {
        let (a, b) = (self.0, rhs.0);
        let (r0, c) = adc(a[0], b[0], 0);
        let (r1, c) = adc(a[1], b[1], c);
        let (r2, c) = adc(a[2], b[2], c);
        let (r3, c) = adc(a[3], b[3], c);
        Fe(fold_carry([r0, r1, r2, r3], c))
    }

    /// Field subtraction.
    pub fn sub(self, rhs: Fe) -> Fe {
        let (a, b) = (self.0, rhs.0);
        let (r0, c) = sbb(a[0], b[0], 0);
        let (r1, c) = sbb(a[1], b[1], c);
        let (r2, c) = sbb(a[2], b[2], c);
        let (r3, c) = sbb(a[3], b[3], c);
        // A borrow-out added 2^256 ≡ 38: take 38 off again.
        let (r0, c) = sbb(r0, 38 * c, 0);
        let (r1, c) = sbb(r1, 0, c);
        let (r2, c) = sbb(r2, 0, c);
        let (r3, c) = sbb(r3, 0, c);
        // A second borrow-out leaves r ≥ 2^256 − 38, so this cannot
        // underflow.
        Fe([r0 - 38 * c, r1, r2, r3])
    }

    /// Field negation.
    pub fn neg(self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// Field multiplication: the 16 limb products row by row into eight
    /// limbs, then one fold.
    pub fn mul(self, rhs: Fe) -> Fe {
        let ([a0, a1, a2, a3], [b0, b1, b2, b3]) = (self.0, rhs.0);
        let (r0, c) = mac(0, a0, b0, 0);
        let (r1, c) = mac(0, a0, b1, c);
        let (r2, c) = mac(0, a0, b2, c);
        let (r3, r4) = mac(0, a0, b3, c);
        let (r1, c) = mac(r1, a1, b0, 0);
        let (r2, c) = mac(r2, a1, b1, c);
        let (r3, c) = mac(r3, a1, b2, c);
        let (r4, r5) = mac(r4, a1, b3, c);
        let (r2, c) = mac(r2, a2, b0, 0);
        let (r3, c) = mac(r3, a2, b1, c);
        let (r4, c) = mac(r4, a2, b2, c);
        let (r5, r6) = mac(r5, a2, b3, c);
        let (r3, c) = mac(r3, a3, b0, 0);
        let (r4, c) = mac(r4, a3, b1, c);
        let (r5, c) = mac(r5, a3, b2, c);
        let (r6, r7) = mac(r6, a3, b3, c);
        reduce_wide([r0, r1, r2, r3, r4, r5, r6, r7])
    }

    /// Field squaring: the 6 cross products once, doubled, plus the 4
    /// diagonal squares — 10 limb products instead of `mul`'s 16.
    pub fn square(self) -> Fe {
        let [a0, a1, a2, a3] = self.0;
        // Cross products a[i]·a[j], i < j, row by row.
        let (r1, c) = mac(0, a0, a1, 0);
        let (r2, c) = mac(0, a0, a2, c);
        let (r3, r4) = mac(0, a0, a3, c);
        let (r3, c) = mac(r3, a1, a2, 0);
        let (r4, r5) = mac(r4, a1, a3, c);
        let (r5, r6) = mac(r5, a2, a3, 0);
        // Double them (the sum is below 2^511, so the shift cannot overflow).
        let r7 = r6 >> 63;
        let r6 = r6 << 1 | r5 >> 63;
        let r5 = r5 << 1 | r4 >> 63;
        let r4 = r4 << 1 | r3 >> 63;
        let r3 = r3 << 1 | r2 >> 63;
        let r2 = r2 << 1 | r1 >> 63;
        let r1 = r1 << 1;
        // Add the diagonal squares a[i]^2 at limb 2i.
        let (r0, h0) = mac(0, a0, a0, 0);
        let (s1, h1) = mac(0, a1, a1, 0);
        let (s2, h2) = mac(0, a2, a2, 0);
        let (s3, h3) = mac(0, a3, a3, 0);
        let (r1, c) = adc(r1, h0, 0);
        let (r2, c) = adc(r2, s1, c);
        let (r3, c) = adc(r3, h1, c);
        let (r4, c) = adc(r4, s2, c);
        let (r5, c) = adc(r5, h2, c);
        let (r6, c) = adc(r6, s3, c);
        let r7 = r7 + h3 + c;
        reduce_wide([r0, r1, r2, r3, r4, r5, r6, r7])
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
        let [a0, a1, a2, a3] = self.0;
        let (r0, c) = mac(0, a0, k, 0);
        let (r1, c) = mac(0, a1, k, c);
        let (r2, c) = mac(0, a2, k, c);
        let (r3, r4) = mac(0, a3, k, c);
        reduce_wide([r0, r1, r2, r3, r4, 0, 0, 0])
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
        let mut g = to_signed62(&self.canonical());
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
        self.canonical() == [0, 0, 0, 0]
    }

    /// Least significant bit of the canonical representation (the "sign"
    /// bit used by point compression).
    pub fn is_negative(self) -> bool {
        self.canonical()[0] & 1 == 1
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

/// Canonical limbs (a value in `[0, p)`) as signed 62-bit limbs.
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

/// The fully reduced arithmetic the lazy `Fe` replaced, kept as the
/// differential reference: every operation leaves its result in `[0, p)`,
/// with data-dependent comparisons against p.
#[cfg(test)]
mod reference {
    use super::P;

    /// An element kept fully reduced after every operation.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub struct Reduced(pub [u64; 4]);

    impl Reduced {
        /// Any 256-bit value, reduced mod p.
        pub fn new(limbs: [u64; 4]) -> Reduced {
            let [a0, a1, a2, a3] = limbs;
            reduce_wide(&[a0, a1, a2, a3, 0, 0, 0, 0])
        }

        /// 32 little-endian bytes.
        pub fn to_bytes(self) -> [u8; 32] {
            let mut out = [0u8; 32];
            for i in 0..4 {
                out[i * 8..i * 8 + 8].copy_from_slice(&self.0[i].to_le_bytes());
            }
            out
        }

        fn reduce_once(&mut self) {
            if geq(&self.0, &P) {
                self.0 = sub_raw(&self.0, &P);
            }
        }

        pub fn add(self, rhs: Reduced) -> Reduced {
            let (sum, carry) = add_raw(&self.0, &rhs.0);
            let mut v = sum;
            if carry || geq(&v, &P) {
                v = sub_raw(&v, &P);
            }
            Reduced(v)
        }

        pub fn sub(self, rhs: Reduced) -> Reduced {
            if geq(&self.0, &rhs.0) {
                Reduced(sub_raw(&self.0, &rhs.0))
            } else {
                // self - rhs + p
                let (tmp, _carry) = add_raw(&self.0, &P);
                Reduced(sub_raw(&tmp, &rhs.0))
            }
        }

        pub fn neg(self) -> Reduced {
            Reduced([0; 4]).sub(self)
        }

        pub fn mul(self, rhs: Reduced) -> Reduced {
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

        pub fn square(self) -> Reduced {
            let a = &self.0;
            let mut r = [0u64; 8];
            for i in 0..3 {
                let mut carry: u128 = 0;
                for j in i + 1..4 {
                    let v = (a[i] as u128) * (a[j] as u128) + r[i + j] as u128 + carry;
                    r[i + j] = v as u64;
                    carry = v >> 64;
                }
                r[i + 4] = carry as u64;
            }
            for i in (1..8).rev() {
                r[i] = (r[i] << 1) | (r[i - 1] >> 63);
            }
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

        pub fn mul_small(self, k: u64) -> Reduced {
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

        /// Square-and-multiply over a 256-bit little-endian exponent.
        pub fn pow(self, exp: &[u64; 4]) -> Reduced {
            let mut acc = Reduced([1, 0, 0, 0]);
            for i in (0..256).rev() {
                acc = acc.square();
                if (exp[i / 64] >> (i % 64)) & 1 == 1 {
                    acc = acc.mul(self);
                }
            }
            acc
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
    fn reduce_wide(r: &[u64; 8]) -> Reduced {
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
        let mut fe = Reduced(lo);
        fe.reduce_once();
        fe
    }
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
        assert_eq!(Fe(P), Fe::ZERO);
        assert!(Fe(P).is_zero());
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

    // Differential tests of the lazy field against the fully reduced
    // reference: every operation and observer, on random and
    // non-canonical limb patterns, on two representations of one
    // element, and along long chains that never reduce.
    use reference::Reduced;

    /// The reference's value of a lazy element.
    fn reduced(a: Fe) -> Reduced {
        Reduced::new(a.0)
    }

    /// Every observer of `got` agrees with the reference's `want`.
    fn assert_same(got: Fe, want: Reduced, what: &str) {
        assert_eq!(
            got.to_bytes(),
            want.to_bytes(),
            "{what}: to_bytes of {got:?}"
        );
        assert_eq!(got, Fe(want.0), "{what}: == on {got:?}");
        assert_eq!(
            got.is_zero(),
            want.0 == [0; 4],
            "{what}: is_zero of {got:?}"
        );
        assert_eq!(
            got.is_negative(),
            want.0[0] & 1 == 1,
            "{what}: is_negative of {got:?}"
        );
    }

    /// The ring operations on `(a, b)` against the reference.
    fn assert_ops_match(a: Fe, b: Fe) {
        let (ra, rb) = (reduced(a), reduced(b));
        let what = format!("{a:?}, {b:?}");
        assert_same(a.add(b), ra.add(rb), &format!("add {what}"));
        assert_same(a.sub(b), ra.sub(rb), &format!("sub {what}"));
        assert_same(a.neg(), ra.neg(), &format!("neg {what}"));
        assert_same(a.mul(b), ra.mul(rb), &format!("mul {what}"));
        assert_same(a.square(), ra.square(), &format!("square {what}"));
        assert_same(
            a.mul_small(121665),
            ra.mul_small(121665),
            &format!("mul_small {what}"),
        );
        assert_same(
            a.mul_small(b.0[0]),
            ra.mul_small(b.0[0]),
            &format!("mul_small {what}"),
        );
    }

    /// `invert` and `pow_p58` against the reference's square-and-multiply.
    fn assert_powers_match(a: Fe) {
        let ra = reduced(a);
        assert_same(a.invert(), ra.pow(&P_MINUS_2), &format!("invert {a:?}"));
        assert_same(
            a.pow_p58(),
            ra.pow(&P_MINUS_5_OVER_8),
            &format!("pow_p58 {a:?}"),
        );
    }

    /// `a + b` on limbs, as integers (no carry out of the top limb).
    fn limb_sum(a: [u64; 4], b: [u64; 4]) -> Fe {
        let mut v = a;
        let mut c = 0;
        for (limb, b) in v.iter_mut().zip(b) {
            (*limb, c) = adc(*limb, b, c);
        }
        assert_eq!(c, 0, "a + b overflows 2^256");
        Fe(v)
    }

    /// `base + k` on limbs, as integers.
    fn plus(base: [u64; 4], k: u64) -> Fe {
        limb_sum(base, [k, 0, 0, 0])
    }

    /// 2p = 2^256 − 38.
    const TWO_P: [u64; 4] = [0xffff_ffff_ffff_ffda, u64::MAX, u64::MAX, u64::MAX];

    /// Limb patterns at the edges of the lazy range: k, p + k and 2p + k
    /// for k in [0, 38) — the last two are [2^255 − 19, 2^255 + 19) and
    /// [2^256 − 38, 2^256) — plus p − 1 .. p − 38, 2^255 + 19, limb
    /// boundaries and the curve constants.
    fn lazy_edges() -> Vec<Fe> {
        let mut v = Vec::new();
        for k in 0..38 {
            v.extend([plus([0; 4], k), plus(P, k), plus(TWO_P, k)]);
            v.push(plus([P[0] - 38, P[1], P[2], P[3]], k));
        }
        v.extend([
            plus(P, 38),
            Fe([u64::MAX, 0, 0, 0]),
            Fe([0, 1, 0, 0]),
            Fe([u64::MAX, u64::MAX, u64::MAX, 0]),
            Fe([0, 0, 0, 1 << 63]),
            SQRT_M1,
            D,
            D2,
        ]);
        v
    }

    #[test]
    fn every_op_matches_the_reference_on_non_canonical_edges() {
        let edges = lazy_edges();
        for &a in &edges {
            for &b in &edges {
                assert_ops_match(a, b);
            }
        }
    }

    #[test]
    fn invert_and_pow_p58_match_the_reference_on_non_canonical_edges() {
        for a in lazy_edges() {
            assert_powers_match(a);
        }
    }

    #[test]
    fn k_p_plus_k_and_2p_plus_k_are_one_element() {
        for k in 0..38 {
            let reps = [plus([0; 4], k), plus(P, k), plus(TWO_P, k)];
            for r in reps {
                assert_eq!(r, reps[0], "{r:?}");
                assert_eq!(r.to_bytes(), fe(k).to_bytes(), "{r:?}");
                assert_eq!(r.is_zero(), k == 0, "{r:?}");
                assert_eq!(r.is_negative(), k & 1 == 1, "{r:?}");
            }
        }
    }

    /// A chain of `len` operations over four registers, drawn from a
    /// splitmix64 stream seeded with `seed`: the lazy registers are never
    /// reduced in between, and each result is checked against the
    /// reference as it is written.
    fn assert_chain_matches(seed: u64, len: usize) {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut lazy: [Fe; 4] = std::array::from_fn(|_| Fe([next(), next(), next(), next()]));
        let mut refs = lazy.map(reduced);
        for step in 0..len {
            let x = next();
            let (d, i) = ((x >> 8) as usize % 4, (x >> 10) as usize % 4);
            let j = (i + 1 + (x >> 12) as usize % 3) % 4;
            let (a, b, ra, rb) = (lazy[i], lazy[j], refs[i], refs[j]);
            (lazy[d], refs[d]) = match x % 128 {
                0 => (a.invert(), ra.pow(&P_MINUS_2)),
                1 => (a.pow_p58(), ra.pow(&P_MINUS_5_OVER_8)),
                2..=23 => (a.add(b), ra.add(rb)),
                24..=45 => (a.sub(b), ra.sub(rb)),
                46..=55 => (a.neg(), ra.neg()),
                56..=85 => (a.mul(b), ra.mul(rb)),
                86..=107 => (a.square(), ra.square()),
                108..=117 => (a.mul_small(x >> 40), ra.mul_small(x >> 40)),
                // Fresh entropy, so no register collapses to a constant.
                _ => {
                    let r = Fe([x, x.rotate_left(17), !x, x.rotate_left(41)]);
                    (a.add(r), ra.add(reduced(r)))
                }
            };
            assert_same(lazy[d], refs[d], &format!("seed {seed} step {step}"));
        }
    }

    #[test]
    fn long_lazy_chains_match_the_reference() {
        for seed in 0..4 {
            assert_chain_matches(seed, 10_000);
        }
    }

    /// The long-chain differential at scale; run in release
    /// (`cargo test --release -p dri-crypto -- --include-ignored`).
    #[test]
    #[ignore = "slow in debug; scripts/check.sh runs it in release"]
    fn long_lazy_chains_match_the_reference_at_scale() {
        for seed in 0..64 {
            assert_chain_matches(1_000 + seed, 100_000);
        }
    }

    /// Any 256-bit limb pattern, or one of the lazy edges.
    fn any_fe() -> impl Strategy<Value = Fe> {
        let limbs = |b: [u8; 32]| {
            Fe(std::array::from_fn(|i| {
                u64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().unwrap())
            }))
        };
        let n = lazy_edges().len();
        prop_oneof![
            any::<[u8; 32]>().prop_map(limbs),
            (0..n).prop_map(|i| lazy_edges()[i]),
        ]
    }

    proptest! {
        #[test]
        fn every_op_matches_the_reference(a in any_fe(), b in any_fe()) {
            assert_ops_match(a, b);
            assert_powers_match(a);
            prop_assert_eq!(a == b, reduced(a) == reduced(b));
        }

        #[test]
        fn two_representations_of_one_element_agree(b in any::<[u8; 32]>(), c in any_fe()) {
            // x < 2^255, so x + p is below 2^256: a second representation.
            let x = Fe::from_bytes(&b);
            let y = limb_sum(x.0, P);
            prop_assert_eq!(x, y);
            prop_assert_eq!(x.to_bytes(), y.to_bytes());
            prop_assert_eq!(x.is_zero(), y.is_zero());
            prop_assert_eq!(x.is_negative(), y.is_negative());
            for (u, v) in [
                (x.add(c), y.add(c)),
                (c.sub(x), c.sub(y)),
                (x.neg(), y.neg()),
                (x.mul(c), y.mul(c)),
                (x.square(), y.square()),
                (x.mul_small(121665), y.mul_small(121665)),
                (x.invert(), y.invert()),
                (x.pow_p58(), y.pow_p58()),
            ] {
                prop_assert_eq!(u.to_bytes(), v.to_bytes());
            }
        }
    }
}
