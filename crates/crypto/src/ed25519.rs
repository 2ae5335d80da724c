//! Ed25519 signatures (RFC 8032), built on [`crate::fe25519`].
//!
//! Implements scalar arithmetic mod the group order `L`, the edwards25519
//! group in extended coordinates, point compression/decompression, and the
//! `sign`/`verify` operations. Verified against the RFC 8032 §7.1 test
//! vectors. Variable-time throughout (simulation grade).
//!
//! The fast paths follow the ref10 design (Bernstein et al., *High-speed
//! high-security signatures*). `[s]B` is at most 32 mixed additions from
//! a fixed-base table of signed radix-256 multiples of B (32 × 128
//! entries, 384 KiB on the heap, built once per process). `[k]A` in
//! verification is a signed radix-16 window over `A..8A`, or, for a
//! [`PreparedVerifyingKey`], at most 64 mixed additions from a radix-16
//! table of A (64 × 8 entries, 48 KiB): the narrower width keeps the
//! tables built per trusted key and per key rotation small and quick to
//! build. Both tables come from one builder and one walker, generic over
//! the window. Verification never decompresses R: it compresses
//! `[s]B + [k](−A)` and compares the bytes with R's encoding. Scalars
//! reduce mod `L` by Barrett reduction. Each fast path is
//! differential-tested against the naive code it replaced, which is kept
//! under `#[cfg(test)]`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::fe25519::{batch_invert, Fe, D, D2, SQRT_M1};
use crate::sha2::Sha512;

/// The group order L = 2^252 + 27742317777372353535851937790883648493,
/// little-endian limbs.
pub const L: [u64; 4] = [
    0x5812_631a_5cf5_d3ed,
    0x14de_f9de_a2f7_9cd6,
    0x0000_0000_0000_0000,
    0x1000_0000_0000_0000,
];

/// μ = ⌊2^512 / L⌋, the Barrett constant for reduction mod L.
const MU: [u64; 5] = [
    0xed9c_e5a3_0a2c_131b,
    0x2106_215d_0863_29a7,
    0xffff_ffff_ffff_ffeb,
    0xffff_ffff_ffff_ffff,
    0x0000_0000_0000_000f,
];

static SIGNS: AtomicU64 = AtomicU64::new(0);
static VERIFIES: AtomicU64 = AtomicU64::new(0);
static TABLES: AtomicU64 = AtomicU64::new(0);
static TABLE_VERIFIES: AtomicU64 = AtomicU64::new(0);

/// Process-wide Ed25519 operation counts since start-up.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Calls to [`SigningKey::sign`].
    pub signs: u64,
    /// Calls to [`VerifyingKey::verify`] and
    /// [`PreparedVerifyingKey::verify`], accepted or not.
    pub verifies: u64,
    /// Per-key fixed-base tables built by [`PreparedVerifyingKey::new`].
    pub tables: u64,
    /// The part of `verifies` served by a per-key table.
    pub table_verifies: u64,
}

/// Read the process-wide operation counters. They only grow; take the
/// difference of two readings to count the operations in between.
pub fn op_counts() -> OpCounts {
    OpCounts {
        signs: SIGNS.load(Ordering::Relaxed),
        verifies: VERIFIES.load(Ordering::Relaxed),
        tables: TABLES.load(Ordering::Relaxed),
        table_verifies: TABLE_VERIFIES.load(Ordering::Relaxed),
    }
}

/// A scalar mod L, kept fully reduced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Scalar(pub [u64; 4]);

#[allow(clippy::should_implement_trait)] // explicit arithmetic names, as in fe25519
#[allow(clippy::needless_range_loop)] // limb loops read more clearly indexed
impl Scalar {
    /// The zero scalar.
    pub const ZERO: Scalar = Scalar([0, 0, 0, 0]);

    /// Reduce a 512-bit little-endian value mod L (Barrett reduction;
    /// runs twice per signature).
    pub fn from_bytes_wide(bytes: &[u8; 64]) -> Scalar {
        let mut limbs = [0u64; 8];
        for i in 0..8 {
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
            limbs[i] = u64::from_le_bytes(chunk);
        }
        Scalar(barrett_reduce(&limbs))
    }

    /// Reduce a 256-bit little-endian value mod L.
    pub fn from_bytes(bytes: &[u8; 32]) -> Scalar {
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(bytes);
        Scalar::from_bytes_wide(&wide)
    }

    /// Parse a canonical scalar: rejects values ≥ L (required when
    /// verifying signatures, RFC 8032 §5.1.7).
    pub fn from_canonical_bytes(bytes: &[u8; 32]) -> Option<Scalar> {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
            limbs[i] = u64::from_le_bytes(chunk);
        }
        if geq(&limbs, &L) {
            None
        } else {
            Some(Scalar(limbs))
        }
    }

    /// Serialize to 32 little-endian bytes.
    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[i * 8..i * 8 + 8].copy_from_slice(&self.0[i].to_le_bytes());
        }
        out
    }

    /// Scalar addition mod L.
    pub fn add(self, rhs: Scalar) -> Scalar {
        let mut out = [0u64; 4];
        let mut carry = false;
        for i in 0..4 {
            let (s1, c1) = self.0[i].overflowing_add(rhs.0[i]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            out[i] = s2;
            carry = c1 || c2;
        }
        // Both inputs < L < 2^253, so no carry out of 256 bits.
        debug_assert!(!carry);
        if geq(&out, &L) {
            out = sub_wrapping(&out, &L);
        }
        Scalar(out)
    }

    /// Scalar multiplication mod L.
    pub fn mul(self, rhs: Scalar) -> Scalar {
        let mut wide = [0u64; 8];
        mul_limbs(&self.0, &rhs.0, &mut wide);
        Scalar(barrett_reduce(&wide))
    }

    /// True if the scalar is zero.
    pub fn is_zero(self) -> bool {
        self.0 == [0, 0, 0, 0]
    }

    /// Signed radix-2^w digits `e` with `self = Σ e[i]·2^(w·i)`, for
    /// `w = 256 / N` (4 or 8): `e[0..N−1]` lie in [−2^(w−1), 2^(w−1) − 1]
    /// and the top digit absorbs the last carry. Reduced scalars are
    /// below 2^253, so the top digit is at most 2 (w = 4) or 32 (w = 8).
    fn signed_digits<const N: usize>(&self) -> [i8; N] {
        let w = 256 / N;
        debug_assert!(w == 4 || w == 8);
        debug_assert!(self.0[3] >> 61 == 0, "scalar not reduced");
        let bytes = self.to_bytes();
        let mut e = [0i8; N];
        let mut carry = 0i16;
        for (i, d) in e.iter_mut().enumerate() {
            let bit = i * w;
            let v = i16::from(bytes[bit / 8] >> (bit % 8)) & ((1 << w) - 1);
            let v = v + carry;
            carry = if i + 1 < N {
                (v + (1 << (w - 1))) >> w
            } else {
                0
            };
            *d = (v - (carry << w)) as i8;
        }
        e
    }
}

fn geq<const N: usize>(a: &[u64; N], b: &[u64; N]) -> bool {
    for i in (0..N).rev() {
        if a[i] > b[i] {
            return true;
        }
        if a[i] < b[i] {
            return false;
        }
    }
    true
}

/// `a − b mod 2^(64·N)`.
fn sub_wrapping<const N: usize>(a: &[u64; N], b: &[u64; N]) -> [u64; N] {
    let mut out = [0u64; N];
    let mut borrow = false;
    for i in 0..N {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow as u64);
        out[i] = d2;
        borrow = b1 || b2;
    }
    out
}

/// `out = a·b mod 2^(64·out.len())`, schoolbook; `out` must start zeroed.
fn mul_limbs(a: &[u64], b: &[u64], out: &mut [u64]) {
    for (i, &ai) in a.iter().enumerate() {
        let mut carry: u128 = 0;
        for (j, &bj) in b.iter().enumerate() {
            let Some(o) = out.get_mut(i + j) else { break };
            let v = (ai as u128) * (bj as u128) + *o as u128 + carry;
            *o = v as u64;
            carry = v >> 64;
        }
        // Skipped exactly when the row was truncated.
        if let Some(o) = out.get_mut(i + b.len()) {
            *o = carry as u64;
        }
    }
}

/// Remainder of a 512-bit value mod L by Barrett reduction (HAC 14.42
/// with b = 2^64, k = 4, μ = ⌊b^8 / L⌋).
fn barrett_reduce(x: &[u64; 8]) -> [u64; 4] {
    // q3 = ⌊⌊x / b^3⌋ · μ / b^5⌋ underestimates ⌊x / L⌋ by at most 2.
    let mut q2 = [0u64; 10];
    mul_limbs(&x[3..], &MU, &mut q2);
    // r = (x − q3·L) mod b^5. HAC bounds r below 3L; for this L, μ's
    // truncation error is under 0.23, so r < 2L and the loop runs at
    // most once.
    let mut q3l = [0u64; 5];
    mul_limbs(&q2[5..], &L, &mut q3l);
    let x_lo = [x[0], x[1], x[2], x[3], x[4]];
    let mut r = sub_wrapping(&x_lo, &q3l);
    let l5 = [L[0], L[1], L[2], L[3], 0];
    while geq(&r, &l5) {
        r = sub_wrapping(&r, &l5);
    }
    [r[0], r[1], r[2], r[3]]
}

/// Remainder of a 512-bit value mod L via bitwise long division: the
/// reference Barrett reduction is tested against.
#[cfg(test)]
fn mod_l_wide(x: &[u64; 8]) -> [u64; 4] {
    // Working remainder with one spare limb of headroom.
    let mut rem = [0u64; 5];
    let l5 = [L[0], L[1], L[2], L[3], 0u64];
    for i in (0..512).rev() {
        // rem <<= 1
        for j in (1..5).rev() {
            rem[j] = (rem[j] << 1) | (rem[j - 1] >> 63);
        }
        rem[0] <<= 1;
        // rem |= bit i of x
        if (x[i / 64] >> (i % 64)) & 1 == 1 {
            rem[0] |= 1;
        }
        // rem -= L if rem >= L
        let mut ge = true;
        for j in (0..5).rev() {
            if rem[j] > l5[j] {
                break;
            }
            if rem[j] < l5[j] {
                ge = false;
                break;
            }
        }
        if ge {
            let mut borrow = false;
            for j in 0..5 {
                let (d1, b1) = rem[j].overflowing_sub(l5[j]);
                let (d2, b2) = d1.overflowing_sub(borrow as u64);
                rem[j] = d2;
                borrow = b1 || b2;
            }
            debug_assert!(!borrow);
        }
    }
    [rem[0], rem[1], rem[2], rem[3]]
}

/// A point on edwards25519 in extended twisted-Edwards coordinates
/// (X : Y : Z : T) with x = X/Z, y = Y/Z, xy = T/Z.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// A point in affine Niels form (y+x, y−x, 2d·xy): the operand of a
/// mixed addition, as stored in the fixed-base table.
#[derive(Clone, Copy)]
struct AffineNiels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

/// A point in projective Niels form (Y+X, Y−X, Z, 2d·T): the operand of
/// a general addition, as stored in a variable-base window.
#[derive(Clone, Copy)]
struct ProjectiveNiels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    z: Fe,
    t2d: Fe,
}

// Negation maps (x, y) to (−x, y): swap y±x and negate the xy term.
impl std::ops::Neg for AffineNiels {
    type Output = AffineNiels;
    fn neg(self) -> AffineNiels {
        AffineNiels {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            xy2d: self.xy2d.neg(),
        }
    }
}

impl std::ops::Neg for ProjectiveNiels {
    type Output = ProjectiveNiels;
    fn neg(self) -> ProjectiveNiels {
        ProjectiveNiels {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            z: self.z,
            t2d: self.t2d.neg(),
        }
    }
}

/// `digit·P` from a row holding `P..N·P`; `None` for a zero digit.
fn select<T: Copy + std::ops::Neg<Output = T>, const N: usize>(
    row: &[T; N],
    digit: i8,
) -> Option<T> {
    let entry = row[usize::from(digit.unsigned_abs()).checked_sub(1)?];
    Some(if digit < 0 { -entry } else { entry })
}

/// A fixed-base table of a point `P` for signed radix-2^w digits:
/// `ROWS = 256 / w` rows of `COLS = 2^(w−1)` affine Niels entries, row
/// `i` holding `(j+1)·2^(w·i)·P` for `j` in `0..COLS`.
type NielsTable<const ROWS: usize, const COLS: usize> = [[AffineNiels; COLS]; ROWS];

/// A per-key table: radix 16, 64 × 8 entries (48 KiB).
type KeyTable = NielsTable<64, 8>;

/// The base point's table: radix 256, 32 × 128 entries (384 KiB).
type BaseTable = NielsTable<32, 128>;

/// Build the fixed-base table of `p` row by row: `COLS − 1` additions,
/// one doubling and one batched inversion (to affine form) per row, so
/// only one row of projective points is held at a time.
fn niels_table<const ROWS: usize, const COLS: usize>(p: &Point) -> Box<NielsTable<ROWS, COLS>> {
    debug_assert_eq!(2 * COLS, 1 << (256 / ROWS), "COLS = 2^(w−1)");
    let mut rows = Vec::with_capacity(ROWS);
    let mut points = Vec::with_capacity(COLS);
    let mut zinv = Vec::with_capacity(COLS);
    let mut row_base = *p;
    for _ in 0..ROWS {
        let step = row_base.to_projective_niels();
        points.clear();
        points.push(row_base);
        for j in 1..COLS {
            points.push(points[j - 1].add_projective_niels(&step));
        }
        zinv.clear();
        zinv.extend(points.iter().map(|p| p.z));
        batch_invert(&mut zinv);
        rows.push(std::array::from_fn(|j| {
            let x = points[j].x.mul(zinv[j]);
            let y = points[j].y.mul(zinv[j]);
            AffineNiels {
                y_plus_x: y.add(x),
                y_minus_x: y.sub(x),
                xy2d: x.mul(y).mul(D2),
            }
        }));
        // The last entry is 2^(w−1)·row_base; one doubling gives the next.
        row_base = points[COLS - 1].double();
    }
    let Ok(table) = rows.into_boxed_slice().try_into() else {
        unreachable!("ROWS rows were pushed")
    };
    table
}

/// The base point's table, built on first use.
fn base_table() -> &'static BaseTable {
    static TABLE: OnceLock<Box<BaseTable>> = OnceLock::new();
    TABLE.get_or_init(|| niels_table(&Point::base()))
}

impl Point {
    /// The neutral element.
    pub fn identity() -> Point {
        Point {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
            t: Fe::ZERO,
        }
    }

    /// The standard base point B (RFC 8032 §5.1): y = 4/5, with x the
    /// even ("positive") root.
    pub fn base() -> Point {
        // x(B), y(B) as little-endian limb constants.
        const BX: [u64; 4] = [
            0xc956_2d60_8f25_d51a,
            0x692c_c760_9525_a7b2,
            0xc0a4_e231_fdd6_dc5c,
            0x2169_36d3_cd6e_53fe,
        ];
        const BY: [u64; 4] = [
            0x6666_6666_6666_6658,
            0x6666_6666_6666_6666,
            0x6666_6666_6666_6666,
            0x6666_6666_6666_6666,
        ];
        let x = Fe(BX);
        let y = Fe(BY);
        Point {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(y),
        }
    }

    /// The tail shared by every addition formula: (E·F, G·H, F·G, E·H).
    fn from_efgh(e: Fe, f: Fe, g: Fe, h: Fe) -> Point {
        Point {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    fn to_projective_niels(self) -> ProjectiveNiels {
        ProjectiveNiels {
            y_plus_x: self.y.add(self.x),
            y_minus_x: self.y.sub(self.x),
            z: self.z,
            t2d: self.t.mul(D2),
        }
    }

    /// Unified addition ("add-2008-hwcd-3" for a = −1 twisted Edwards
    /// curves) with a precomputed operand: 8 multiplications.
    fn add_projective_niels(&self, q: &ProjectiveNiels) -> Point {
        let a = self.y.sub(self.x).mul(q.y_minus_x);
        let b = self.y.add(self.x).mul(q.y_plus_x);
        let c = self.t.mul(q.t2d);
        let zz = self.z.mul(q.z);
        let d = zz.add(zz);
        Point::from_efgh(b.sub(a), d.sub(c), d.add(c), b.add(a))
    }

    /// Mixed addition with an affine operand (Z = 1): 7 multiplications.
    fn add_affine_niels(&self, q: &AffineNiels) -> Point {
        let a = self.y.sub(self.x).mul(q.y_minus_x);
        let b = self.y.add(self.x).mul(q.y_plus_x);
        let c = self.t.mul(q.xy2d);
        let d = self.z.add(self.z);
        Point::from_efgh(b.sub(a), d.sub(c), d.add(c), b.add(a))
    }

    /// Unified point addition (valid for doubling too).
    pub fn add(&self, other: &Point) -> Point {
        self.add_projective_niels(&other.to_projective_niels())
    }

    /// Point doubling (dbl-2008-hwcd).
    pub fn double(&self) -> Point {
        self.mul_by_pow_2(1)
    }

    /// `[2^k]P` by `k` doublings (dbl-2008-hwcd). Doubling never reads T,
    /// so T is computed for the final result only.
    fn mul_by_pow_2(&self, k: u32) -> Point {
        let mut p = *self;
        for i in 0..k {
            let a = p.x.square();
            let b = p.y.square();
            let zz = p.z.square();
            let c = zz.add(zz);
            // For a = −1: D = −A.
            let d = a.neg();
            let e = p.x.add(p.y).square().sub(a).sub(b);
            let g = d.add(b);
            let f = g.sub(c);
            let h = d.sub(b);
            p = Point {
                x: e.mul(f),
                y: g.mul(h),
                z: f.mul(g),
                t: if i + 1 == k { e.mul(h) } else { Fe::ZERO },
            };
        }
        p
    }

    /// `[s]B` from the base point's radix-256 table.
    pub fn mul_base(s: &Scalar) -> Point {
        Point::mul_fixed(base_table(), s)
    }

    /// `[s]P` from `P`'s fixed-base table: one mixed addition per nonzero
    /// signed radix-2^w digit of `s`, and no doublings.
    fn mul_fixed<const ROWS: usize, const COLS: usize>(
        table: &NielsTable<ROWS, COLS>,
        s: &Scalar,
    ) -> Point {
        let mut acc = Point::identity();
        for (row, &digit) in table.iter().zip(s.signed_digits::<ROWS>().iter()) {
            if let Some(q) = select(row, digit) {
                acc = acc.add_affine_niels(&q);
            }
        }
        acc
    }

    /// `[k]P` by a signed radix-16 window over the multiples `P..8P`:
    /// 252 doublings and at most 64 additions.
    fn mul_windowed(&self, k: &Scalar) -> Point {
        let p = self.to_projective_niels();
        let mut window = [p; 8];
        let mut multiple = *self;
        for entry in window.iter_mut().skip(1) {
            multiple = multiple.add_projective_niels(&p);
            *entry = multiple.to_projective_niels();
        }
        let mut acc = Point::identity();
        for (i, &digit) in k.signed_digits::<64>().iter().enumerate().rev() {
            if i < 63 {
                acc = acc.mul_by_pow_2(4);
            }
            if let Some(q) = select(&window, digit) {
                acc = acc.add_projective_niels(&q);
            }
        }
        acc
    }

    /// `[s]P` by MSB-first double-and-add over bits 0..253: the reference
    /// `mul_base`, `mul_fixed` and `mul_windowed` are tested against.
    #[cfg(test)]
    pub fn mul_scalar(&self, s: &Scalar) -> Point {
        let mut acc = Point::identity();
        let mut started = false;
        for i in (0..253).rev() {
            if started {
                acc = acc.double();
            }
            if (s.0[i / 64] >> (i % 64)) & 1 == 1 {
                acc = if started { acc.add(self) } else { *self };
                started = true;
            }
        }
        if started {
            acc
        } else {
            Point::identity()
        }
    }

    /// Compress to the 32-byte RFC 8032 wire format.
    pub fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x.mul(zinv);
        let y = self.y.mul(zinv);
        let mut out = y.to_bytes();
        if x.is_negative() {
            out[31] |= 0x80;
        }
        out
    }

    /// Decompress from the 32-byte wire format; `None` if not on the curve.
    pub fn decompress(bytes: &[u8; 32]) -> Option<Point> {
        let sign = bytes[31] >> 7 == 1;
        // `from_bytes` masks the sign bit. Canonicality: re-encoding y
        // with the sign bit must give back the input, so y ≥ p is rejected.
        let y = Fe::from_bytes(bytes);
        let mut y_bytes = y.to_bytes();
        y_bytes[31] |= bytes[31] & 0x80;
        if y_bytes != *bytes {
            return None;
        }
        // x^2 = (y^2 - 1) / (d y^2 + 1)
        let yy = y.square();
        let u = yy.sub(Fe::ONE);
        let v = D.mul(yy).add(Fe::ONE);
        // Candidate root: x = u v^3 (u v^7)^((p-5)/8)
        let v3 = v.square().mul(v);
        let v7 = v3.square().mul(v);
        let mut x = u.mul(v3).mul(u.mul(v7).pow_p58());
        let vxx = v.mul(x.square());
        if vxx != u {
            if vxx == u.neg() {
                x = x.mul(SQRT_M1);
            } else {
                return None;
            }
        }
        if x.is_zero() && sign {
            // −0 is not a valid encoding.
            return None;
        }
        if x.is_negative() != sign {
            x = x.neg();
        }
        Some(Point {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(y),
        })
    }

    /// Comparison in affine coordinates: the reference the recompressing
    /// verifier is tested against.
    #[cfg(test)]
    pub fn equals(&self, other: &Point) -> bool {
        // x1 z2 == x2 z1 and y1 z2 == y2 z1
        self.x.mul(other.z) == other.x.mul(self.z) && self.y.mul(other.z) == other.y.mul(self.z)
    }

    /// Check the curve equation −x² + y² = 1 + d x² y² holds.
    pub fn is_on_curve(&self) -> bool {
        let zinv = self.z.invert();
        let x = self.x.mul(zinv);
        let y = self.y.mul(zinv);
        let lhs = y.square().sub(x.square());
        let rhs = Fe::ONE.add(D.mul(x.square()).mul(y.square()));
        lhs == rhs
    }
}

/// An Ed25519 signing key (the 32-byte seed plus derived state).
#[derive(Clone)]
pub struct SigningKey {
    seed: [u8; 32],
    /// Clamped secret scalar, reduced mod L.
    a: Scalar,
    prefix: [u8; 32],
    public: VerifyingKey,
}

impl SigningKey {
    /// Derive a signing key from a 32-byte seed (RFC 8032 §5.1.5).
    pub fn from_seed(seed: &[u8; 32]) -> SigningKey {
        let mut h = Sha512::new();
        h.update(seed);
        let digest = h.finalize();
        let mut a_bytes = [0u8; 32];
        a_bytes.copy_from_slice(&digest[..32]);
        a_bytes[0] &= 248;
        a_bytes[31] &= 127;
        a_bytes[31] |= 64;
        let a = Scalar::from_bytes(&a_bytes);
        let mut prefix = [0u8; 32];
        prefix.copy_from_slice(&digest[32..]);
        let public = VerifyingKey {
            bytes: Point::mul_base(&a).compress(),
        };
        SigningKey {
            seed: *seed,
            a,
            prefix,
            public,
        }
    }

    /// The corresponding verifying (public) key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.public.clone()
    }

    /// The seed this key was derived from.
    pub fn seed(&self) -> &[u8; 32] {
        &self.seed
    }

    /// Sign `msg`, producing a 64-byte signature (R ‖ s).
    pub fn sign(&self, msg: &[u8]) -> [u8; 64] {
        self.sign_with_challenge(msg).0
    }

    /// [`SigningKey::sign`], also returning the challenge digest
    /// SHA-512(R ‖ A ‖ msg) that signing computes (RFC 8032 §5.1.6
    /// step 4) and that a verifier recomputes; see [`challenge`].
    pub fn sign_with_challenge(&self, msg: &[u8]) -> ([u8; 64], [u8; 64]) {
        SIGNS.fetch_add(1, Ordering::Relaxed);
        let mut h = Sha512::new();
        h.update(&self.prefix);
        h.update(msg);
        let r = Scalar::from_bytes_wide(&h.finalize());
        let r_point = Point::mul_base(&r).compress();

        let digest = challenge(&r_point, &self.public.bytes, msg);
        let k = Scalar::from_bytes_wide(&digest);
        let s = r.add(k.mul(self.a));

        let mut sig = [0u8; 64];
        sig[..32].copy_from_slice(&r_point);
        sig[32..].copy_from_slice(&s.to_bytes());
        (sig, digest)
    }
}

/// The challenge digest SHA-512(R ‖ A ‖ msg) of a signature whose first
/// half is `r`, under the public key encoded as `a`. Reduced mod L it is
/// the k of RFC 8032 §5.1.6 step 4 and §5.1.7 step 2.
pub fn challenge(r: &[u8; 32], a: &[u8; 32], msg: &[u8]) -> [u8; 64] {
    let mut h = Sha512::new();
    h.update(r);
    h.update(a);
    h.update(msg);
    h.finalize()
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the seed.
        write!(
            f,
            "SigningKey(pub={})",
            crate::hex::encode(&self.public.bytes)
        )
    }
}

/// RFC 8032 §5.1.7 with the cofactorless equation `[s]B == R + [k]A`,
/// for the key encoded as `a_bytes`; `mul_a` computes `[k]A`.
///
/// As in ref10, R is never decompressed: the check is
/// `compress([s]B + [k](−A)) == sig[..32]`. `compress` emits only the
/// canonical encoding of a curve point, so the bytes match exactly when
/// `sig[..32]` decodes to that point. Non-canonical, off-curve and "−0"
/// encodings of R therefore fail, as they fail to decompress.
fn verify_with(
    a_bytes: &[u8; 32],
    msg: &[u8],
    sig: &[u8; 64],
    mul_a: impl FnOnce(&Scalar) -> Point,
) -> bool {
    let r_bytes: &[u8; 32] = sig[..32].try_into().expect("32 bytes");
    let Some(s) = Scalar::from_canonical_bytes(sig[32..].try_into().expect("32 bytes")) else {
        return false;
    };

    let k = Scalar::from_bytes_wide(&challenge(r_bytes, a_bytes, msg));

    let minus_ka = -mul_a(&k).to_projective_niels();
    let r = Point::mul_base(&s).add_projective_niels(&minus_ka);
    r.compress() == *r_bytes
}

/// An Ed25519 verifying (public) key.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct VerifyingKey {
    bytes: [u8; 32],
}

impl VerifyingKey {
    /// Wrap 32 public-key bytes (validated lazily at verify time).
    pub fn from_bytes(bytes: [u8; 32]) -> VerifyingKey {
        VerifyingKey { bytes }
    }

    /// The raw 32-byte encoding.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.bytes
    }

    /// Verify `sig` over `msg` (RFC 8032 §5.1.7, cofactorless equation).
    pub fn verify(&self, msg: &[u8], sig: &[u8; 64]) -> bool {
        VERIFIES.fetch_add(1, Ordering::Relaxed);
        Point::decompress(&self.bytes)
            .is_some_and(|a| verify_with(&self.bytes, msg, sig, |k| a.mul_windowed(k)))
    }
}

impl std::fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VerifyingKey({})", crate::hex::encode(&self.bytes))
    }
}

/// A verifying key with a fixed-base table of its curve point, built
/// once up front.
///
/// [`VerifyingKey::verify`] decompresses the public-key point A and
/// computes `[k]A` with 252 doublings on every call. A verifier that
/// checks many signatures under the same long-lived key (JWKS keys, the
/// SSH user-CA key, federation entities' assertion keys) builds A's
/// table once, for about four plain verifies, and then computes `[k]A`
/// with 64 mixed additions and no doublings. The table is 48 KiB and
/// shared by every clone. Accept/reject behaviour is byte-for-byte
/// identical to the unprepared path: a key whose encoding is not a curve
/// point rejects every signature, exactly as `VerifyingKey::verify`
/// does. Keys used for only a few signatures should stay plain.
#[derive(Clone)]
pub struct PreparedVerifyingKey {
    bytes: [u8; 32],
    /// `None` when the key bytes do not decode to a curve point — such a
    /// key fails every verification, matching the lazy path.
    table: Option<Arc<KeyTable>>,
}

impl PreparedVerifyingKey {
    /// Decompress the key's curve point and build its fixed-base table,
    /// for reuse across verifies.
    pub fn new(key: &VerifyingKey) -> PreparedVerifyingKey {
        let table = Point::decompress(&key.bytes).map(|a| {
            TABLES.fetch_add(1, Ordering::Relaxed);
            Arc::from(niels_table::<64, 8>(&a))
        });
        PreparedVerifyingKey {
            bytes: key.bytes,
            table,
        }
    }

    /// The raw 32-byte encoding.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.bytes
    }

    /// The plain key this was prepared from.
    pub fn verifying_key(&self) -> VerifyingKey {
        VerifyingKey { bytes: self.bytes }
    }

    /// Verify `sig` over `msg` with `[k]A` read from the key's table.
    /// Same accept/reject behaviour as [`VerifyingKey::verify`].
    pub fn verify(&self, msg: &[u8], sig: &[u8; 64]) -> bool {
        VERIFIES.fetch_add(1, Ordering::Relaxed);
        self.table.as_ref().is_some_and(|table| {
            TABLE_VERIFIES.fetch_add(1, Ordering::Relaxed);
            verify_with(&self.bytes, msg, sig, |k| Point::mul_fixed(table, k))
        })
    }
}

impl std::fmt::Debug for PreparedVerifyingKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PreparedVerifyingKey({})",
            crate::hex::encode(&self.bytes)
        )
    }
}

impl From<&VerifyingKey> for PreparedVerifyingKey {
    fn from(key: &VerifyingKey) -> PreparedVerifyingKey {
        PreparedVerifyingKey::new(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    #[test]
    fn base_point_on_curve() {
        assert!(Point::base().is_on_curve());
        assert!(Point::identity().is_on_curve());
    }

    #[test]
    fn base_point_has_order_l() {
        // L · B == identity, (L-1) · B == -B
        let l_minus_1 = Scalar(sub_wrapping(&L, &[1, 0, 0, 0]));
        let p = Point::base().mul_scalar(&l_minus_1);
        let sum = p.add(&Point::base());
        assert!(sum.equals(&Point::identity()));
    }

    #[test]
    fn double_matches_add() {
        let b = Point::base();
        assert!(b.double().equals(&b.add(&b)));
        let four = b.double().double();
        let four_via_add = b.add(&b).add(&b).add(&b);
        assert!(four.equals(&four_via_add));
    }

    #[test]
    fn compress_decompress_roundtrip() {
        let mut p = Point::base();
        for _ in 0..16 {
            let c = p.compress();
            let q = Point::decompress(&c).expect("valid point");
            assert!(q.equals(&p));
            assert!(q.is_on_curve());
            p = p.add(&Point::base());
        }
    }

    #[test]
    fn decompress_rejects_garbage() {
        // A y with no corresponding x.
        let mut bad = [0u8; 32];
        bad[0] = 2;
        // y=2: x^2 = 3/(4d+1); whether this is square is fixed — test both
        // this and a known-bad high-bit pattern.
        let _ = Point::decompress(&bad); // must not panic either way
        let all_ff = [0xffu8; 32];
        assert!(Point::decompress(&all_ff).is_none());
    }

    #[test]
    fn scalar_mod_l() {
        // L reduces to zero.
        let mut bytes = [0u8; 32];
        for i in 0..4 {
            bytes[i * 8..i * 8 + 8].copy_from_slice(&L[i].to_le_bytes());
        }
        assert!(Scalar::from_bytes(&bytes).is_zero());
        assert!(Scalar::from_canonical_bytes(&bytes).is_none());
        // L - 1 is canonical.
        let lm1 = sub_wrapping(&L, &[1, 0, 0, 0]);
        let mut b2 = [0u8; 32];
        for i in 0..4 {
            b2[i * 8..i * 8 + 8].copy_from_slice(&lm1[i].to_le_bytes());
        }
        let s = Scalar::from_canonical_bytes(&b2).unwrap();
        assert_eq!(s.add(Scalar([1, 0, 0, 0])), Scalar::ZERO);
    }

    #[test]
    fn scalar_mul_small() {
        let a = Scalar([7, 0, 0, 0]);
        let b = Scalar([6, 0, 0, 0]);
        assert_eq!(a.mul(b), Scalar([42, 0, 0, 0]));
    }

    // RFC 8032 §7.1 TEST 1: empty message.
    #[test]
    fn rfc8032_test1() {
        let seed = hex::decode_array::<32>(
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        )
        .unwrap();
        let sk = SigningKey::from_seed(&seed);
        assert_eq!(
            hex::encode(sk.verifying_key().as_bytes()),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
        );
        let sig = sk.sign(b"");
        assert_eq!(
            hex::encode(&sig),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
             5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
        );
        assert!(sk.verifying_key().verify(b"", &sig));
    }

    // RFC 8032 §7.1 TEST 2: one-byte message.
    #[test]
    fn rfc8032_test2() {
        let seed = hex::decode_array::<32>(
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        )
        .unwrap();
        let sk = SigningKey::from_seed(&seed);
        assert_eq!(
            hex::encode(sk.verifying_key().as_bytes()),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c"
        );
        let sig = sk.sign(&[0x72]);
        assert_eq!(
            hex::encode(&sig),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
             085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
        );
        assert!(sk.verifying_key().verify(&[0x72], &sig));
    }

    // RFC 8032 §7.1 TEST 3: two-byte message.
    #[test]
    fn rfc8032_test3() {
        let seed = hex::decode_array::<32>(
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        )
        .unwrap();
        let sk = SigningKey::from_seed(&seed);
        assert_eq!(
            hex::encode(sk.verifying_key().as_bytes()),
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025"
        );
        let msg = [0xaf, 0x82];
        let sig = sk.sign(&msg);
        assert_eq!(
            hex::encode(&sig),
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
             18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"
        );
        assert!(sk.verifying_key().verify(&msg, &sig));
    }

    #[test]
    fn signing_returns_the_challenge_a_verifier_recomputes() {
        let sk = SigningKey::from_seed(&[42u8; 32]);
        let a = *sk.verifying_key().as_bytes();
        for msg in [&b""[..], b"an RBAC token body", &[0xa5u8; 300]] {
            let (sig, digest) = sk.sign_with_challenge(msg);
            assert_eq!(sig, sk.sign(msg));
            let r: &[u8; 32] = sig[..32].try_into().unwrap();
            assert_eq!(digest, challenge(r, &a, msg));
            let mut other = msg.to_vec();
            other.push(0);
            assert_ne!(digest, challenge(r, &a, &other));
        }
    }

    #[test]
    fn verify_rejects_tampering() {
        let sk = SigningKey::from_seed(&[42u8; 32]);
        let pk = sk.verifying_key();
        let sig = sk.sign(b"an RBAC token body");
        assert!(pk.verify(b"an RBAC token body", &sig));
        // Flip message
        assert!(!pk.verify(b"an RBAC token bodY", &sig));
        // Flip each half of the signature
        let mut bad = sig;
        bad[0] ^= 1;
        assert!(!pk.verify(b"an RBAC token body", &bad));
        let mut bad2 = sig;
        bad2[40] ^= 1;
        assert!(!pk.verify(b"an RBAC token body", &bad2));
        // Wrong key
        let other = SigningKey::from_seed(&[43u8; 32]).verifying_key();
        assert!(!other.verify(b"an RBAC token body", &sig));
    }

    #[test]
    fn prepared_key_matches_plain_verify() {
        let sk = SigningKey::from_seed(&[42u8; 32]);
        let pk = sk.verifying_key();
        let prepared = PreparedVerifyingKey::new(&pk);
        assert_eq!(prepared.as_bytes(), pk.as_bytes());
        assert_eq!(prepared.verifying_key(), pk);
        assert_eq!(
            format!("{prepared:?}"),
            format!("PreparedVerifyingKey({})", hex::encode(pk.as_bytes()))
        );
        // Clones share the one table.
        let clone = prepared.clone();
        assert!(Arc::ptr_eq(
            prepared.table.as_ref().unwrap(),
            clone.table.as_ref().unwrap()
        ));
        let sig = sk.sign(b"cached hot path");
        assert!(prepared.verify(b"cached hot path", &sig));
        assert!(clone.verify(b"cached hot path", &sig));
        assert!(!prepared.verify(b"cached hot patH", &sig));
        let mut bad = sig;
        bad[0] ^= 1;
        assert!(!prepared.verify(b"cached hot path", &bad));
        let mut bad2 = sig;
        bad2[40] ^= 1;
        assert!(!prepared.verify(b"cached hot path", &bad2));
    }

    #[test]
    fn prepared_key_with_invalid_point_rejects_everything() {
        // all-0xff is not a curve point; both paths must reject.
        let bogus = VerifyingKey::from_bytes([0xffu8; 32]);
        let prepared = PreparedVerifyingKey::new(&bogus);
        assert!(prepared.table.is_none());
        let sig = SigningKey::from_seed(&[1u8; 32]).sign(b"msg");
        assert!(!bogus.verify(b"msg", &sig));
        assert!(!prepared.verify(b"msg", &sig));
    }

    #[test]
    fn verify_rejects_non_canonical_s() {
        let sk = SigningKey::from_seed(&[7u8; 32]);
        let sig = sk.sign(b"msg");
        // Add L to s: same value mod L but non-canonical encoding.
        let mut s_bytes = [0u8; 32];
        s_bytes.copy_from_slice(&sig[32..]);
        let s = Scalar::from_bytes(&s_bytes);
        let mut malleated = sig;
        // s + L as a 256-bit integer
        let mut carry = 0u128;
        let mut out = [0u64; 4];
        for i in 0..4 {
            let v = s.0[i] as u128 + L[i] as u128 + carry;
            out[i] = v as u64;
            carry = v >> 64;
        }
        if carry == 0 {
            for i in 0..4 {
                malleated[32 + i * 8..32 + i * 8 + 8].copy_from_slice(&out[i].to_le_bytes());
            }
            assert!(!sk.verifying_key().verify(b"msg", &malleated));
        }
    }

    // ---- Differential tests: every fast path against its naive reference.

    use proptest::prelude::*;

    fn limbs_from_bytes(bytes: &[u8; 64]) -> [u64; 8] {
        let mut limbs = [0u64; 8];
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            limbs[i] = u64::from_le_bytes(chunk.try_into().unwrap());
        }
        limbs
    }

    /// Scalars at the edges of the signed radix-16 and radix-256
    /// recodings: zero, one, single digits either side of each sign
    /// flip, L−1 and L−2, all-8 nibbles (every radix-16 digit carries),
    /// all-0x80 bytes (every radix-256 digit carries), 2^252 − 1 (a carry
    /// ripples through every digit into the top one) and 2^251.
    fn edge_scalars() -> Vec<Scalar> {
        vec![
            Scalar::ZERO,
            Scalar([1, 0, 0, 0]),
            Scalar([7, 0, 0, 0]),
            Scalar([8, 0, 0, 0]),
            Scalar([15, 0, 0, 0]),
            Scalar([127, 0, 0, 0]),
            Scalar([128, 0, 0, 0]),
            Scalar([255, 0, 0, 0]),
            Scalar(sub_wrapping(&L, &[1, 0, 0, 0])),
            Scalar(sub_wrapping(&L, &[2, 0, 0, 0])),
            Scalar([
                0x8888_8888_8888_8888,
                0x8888_8888_8888_8888,
                0x8888_8888_8888_8888,
                0x0888_8888_8888_8888,
            ]),
            Scalar([
                0x8080_8080_8080_8080,
                0x8080_8080_8080_8080,
                0x8080_8080_8080_8080,
                0x0080_8080_8080_8080,
            ]),
            Scalar([u64::MAX, u64::MAX, u64::MAX, 0x0fff_ffff_ffff_ffff]),
            Scalar([0, 0, 0, 0x0800_0000_0000_0000]),
        ]
    }

    /// Encodings of the eight small-order points (the torsion subgroup).
    const SMALL_ORDER: [&str; 8] = [
        "0100000000000000000000000000000000000000000000000000000000000000",
        "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000080",
        "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
        "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
        "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
        "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
    ];

    fn small_order_points() -> Vec<[u8; 32]> {
        SMALL_ORDER
            .iter()
            .map(|h| hex::decode_array::<32>(h).unwrap())
            .collect()
    }

    /// Points off the prime-order subgroup too: every torsion point, and
    /// B plus each of them.
    fn edge_points() -> Vec<Point> {
        let mut points = vec![Point::base(), Point::identity()];
        for enc in small_order_points() {
            let t = Point::decompress(&enc).expect("torsion points decode");
            points.push(t);
            points.push(Point::base().add(&t));
        }
        points
    }

    /// The verifier this crate shipped before the fast paths: naive
    /// double-and-add for both scalar multiplications.
    fn naive_verify(key: &[u8; 32], msg: &[u8], sig: &[u8; 64]) -> bool {
        let Some(a) = Point::decompress(key) else {
            return false;
        };
        let r_bytes: [u8; 32] = sig[..32].try_into().unwrap();
        let s_bytes: [u8; 32] = sig[32..].try_into().unwrap();
        let Some(s) = Scalar::from_canonical_bytes(&s_bytes) else {
            return false;
        };
        let Some(r) = Point::decompress(&r_bytes) else {
            return false;
        };
        let mut h = Sha512::new();
        h.update(&r_bytes);
        h.update(key);
        h.update(msg);
        let k = Scalar(mod_l_wide(&limbs_from_bytes(&h.finalize())));
        Point::base()
            .mul_scalar(&s)
            .equals(&r.add(&a.mul_scalar(&k)))
    }

    /// Both verify paths agree with the naive verifier on `sig`; returns
    /// the shared verdict.
    fn verdict(key: &[u8; 32], msg: &[u8], sig: &[u8; 64]) -> bool {
        let vk = VerifyingKey::from_bytes(*key);
        let fast = vk.verify(msg, sig);
        assert_eq!(fast, PreparedVerifyingKey::new(&vk).verify(msg, sig));
        assert_eq!(fast, naive_verify(key, msg, sig), "key {key:?} sig {sig:?}");
        fast
    }

    /// `s + L` as a 256-bit integer, when it fits.
    fn s_plus_l(sig: &[u8; 64]) -> Option<[u8; 64]> {
        let s = Scalar::from_canonical_bytes(&sig[32..].try_into().unwrap()).unwrap();
        let mut carry = 0u128;
        let mut out = *sig;
        for i in 0..4 {
            let v = s.0[i] as u128 + L[i] as u128 + carry;
            out[32 + i * 8..40 + i * 8].copy_from_slice(&(v as u64).to_le_bytes());
            carry = v >> 64;
        }
        (carry == 0).then_some(out)
    }

    /// R encodings `Point::decompress` refuses and `compress` never
    /// emits: every non-canonical y in [p, 2^255) (p + 1 is the
    /// identity's y = 1) with either sign bit, the "−0" encodings of
    /// y = 1 and y = −1 (x = 0 with the sign bit set), and y = 2, which
    /// is off the curve.
    fn r_encodings_that_never_decode() -> Vec<[u8; 32]> {
        let mut encodings = Vec::new();
        for i in 0..19u8 {
            // p + i = 2^255 − 19 + i.
            let mut y = [0xffu8; 32];
            y[0] = 0xed + i;
            y[31] = 0x7f;
            encodings.push(y);
            y[31] |= 0x80;
            encodings.push(y);
        }
        for h in [
            "0100000000000000000000000000000000000000000000000000000000000080",
            "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
            "0200000000000000000000000000000000000000000000000000000000000000",
        ] {
            encodings.push(hex::decode_array::<32>(h).unwrap());
        }
        for r in &encodings {
            assert!(Point::decompress(r).is_none(), "{} decodes", hex::encode(r));
        }
        encodings
    }

    /// Every structured mutation of a valid signature must be rejected
    /// by the fast and the naive verifier alike.
    fn assert_mutations_rejected(key: &[u8; 32], msg: &[u8], sig: &[u8; 64]) {
        if let Some(bad) = s_plus_l(sig) {
            assert!(!verdict(key, msg, &bad), "s + L accepted");
        }
        // −R: a canonical encoding of a curve point, just not this one.
        let mut minus_r = *sig;
        minus_r[31] ^= 0x80;
        assert!(!verdict(key, msg, &minus_r), "−R accepted");
        for r in r_encodings_that_never_decode() {
            let mut bad_r = *sig;
            bad_r[..32].copy_from_slice(&r);
            assert!(!verdict(key, msg, &bad_r), "R = {}", hex::encode(&r));
        }
        for t in small_order_points() {
            let mut small_r = *sig;
            small_r[..32].copy_from_slice(&t);
            assert!(!verdict(key, msg, &small_r), "small-order R accepted");
            assert!(!verdict(&t, msg, sig), "small-order key accepted");
        }
    }

    #[test]
    fn barrett_matches_long_division_on_edges() {
        let widen = |k: [u64; 4]| {
            let mut limbs = [0u64; 8];
            limbs[..4].copy_from_slice(&k);
            limbs
        };
        let cases = [
            [0u64; 8],
            widen(sub_wrapping(&L, &[1, 0, 0, 0])),
            widen(L),
            widen([L[0] + 1, L[1], L[2], L[3]]),
            [u64::MAX; 8],
            [0, 0, 0, 0, 0, 0, 0, 1 << 63],
            [u64::MAX, u64::MAX, u64::MAX, u64::MAX, 0, 0, 0, 0],
        ];
        for x in cases {
            assert_eq!(barrett_reduce(&x), mod_l_wide(&x), "x = {x:x?}");
        }
        // L·k for a spread of k reduces to zero.
        for k in [1u64, 2, 16, u64::MAX] {
            let mut x = [0u64; 8];
            mul_limbs(&L, &[k], &mut x);
            assert_eq!(barrett_reduce(&x), [0; 4], "{k}·L");
        }
    }

    /// The digits of `s` lie in [−half, half − 1], the top one in
    /// [−half, half], and recompose to `s` in radix `2·half`.
    fn assert_digits_recompose<const N: usize>(s: Scalar, half: i16) {
        let digits = s.signed_digits::<N>();
        assert!(digits[..N - 1]
            .iter()
            .all(|&d| (-half..half).contains(&i16::from(d))));
        assert!((-half..=half).contains(&i16::from(digits[N - 1])));
        let mut acc = Scalar::ZERO;
        let mut pow = Scalar([1, 0, 0, 0]);
        for &d in &digits {
            let term = pow.mul(Scalar([d.unsigned_abs() as u64, 0, 0, 0]));
            acc = if d < 0 {
                acc.add(Scalar(sub_wrapping(&L, &term.0)))
            } else {
                acc.add(term)
            };
            pow = pow.mul(Scalar([2 * half as u64, 0, 0, 0]));
        }
        assert_eq!(acc, s, "radix {}", 2 * half);
    }

    #[test]
    fn signed_digits_recompose_and_stay_in_range() {
        for s in edge_scalars() {
            assert_digits_recompose::<64>(s, 8);
            assert_digits_recompose::<32>(s, 128);
        }
    }

    #[test]
    fn mul_base_matches_naive_on_edges() {
        for s in edge_scalars() {
            assert!(
                Point::mul_base(&s).equals(&Point::base().mul_scalar(&s)),
                "mul_base {s:?}"
            );
        }
    }

    #[test]
    fn scalar_multiplications_match_naive_on_edges() {
        let tables: Vec<_> = edge_points()
            .into_iter()
            .map(|p| (p, niels_table::<64, 8>(&p), niels_table::<32, 128>(&p)))
            .collect();
        for s in edge_scalars() {
            for (p, narrow, wide) in &tables {
                let naive = p.mul_scalar(&s);
                assert!(p.mul_windowed(&s).equals(&naive), "windowed {s:?}");
                assert!(
                    Point::mul_fixed(narrow, &s).equals(&naive),
                    "radix 16 {s:?}"
                );
                assert!(Point::mul_fixed(wide, &s).equals(&naive), "radix 256 {s:?}");
            }
        }
    }

    #[test]
    fn verify_rejects_structured_mutations_like_naive() {
        let sk = SigningKey::from_seed(&[9u8; 32]);
        let key = *sk.verifying_key().as_bytes();
        for msg in [&b""[..], b"x", b"an RBAC token body"] {
            let sig = sk.sign(msg);
            assert!(verdict(&key, msg, &sig));
            assert_mutations_rejected(&key, msg, &sig);
        }
    }

    #[test]
    fn op_counts_count_signs_and_verifies() {
        let sk = SigningKey::from_seed(&[3u8; 32]);
        let before = op_counts();
        let sig = sk.sign(b"m");
        assert!(sk.verifying_key().verify(b"m", &sig));
        assert!(!PreparedVerifyingKey::new(&sk.verifying_key()).verify(b"n", &sig));
        let after = op_counts();
        // Other tests run in parallel threads, so only lower bounds hold.
        assert!(after.signs > before.signs);
        assert!(after.verifies >= before.verifies + 2);
        assert!(after.tables > before.tables);
        assert!(after.table_verifies > before.table_verifies);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn barrett_matches_long_division(bytes in any::<[u8; 64]>()) {
            let x = limbs_from_bytes(&bytes);
            prop_assert_eq!(barrett_reduce(&x), mod_l_wide(&x));
            let s = Scalar::from_bytes_wide(&bytes);
            prop_assert_eq!(s.mul(s).0, mod_l_wide(&{
                let mut wide = [0u64; 8];
                mul_limbs(&s.0, &s.0, &mut wide);
                wide
            }));
        }

        #[test]
        fn mul_base_matches_naive(bytes in any::<[u8; 64]>()) {
            let s = Scalar(mod_l_wide(&limbs_from_bytes(&bytes)));
            prop_assert!(Point::mul_base(&s).equals(&Point::base().mul_scalar(&s)));
        }

        #[test]
        fn mul_windowed_matches_naive(
            point_scalar in any::<[u8; 64]>(),
            torsion in 0usize..9,
            bytes in any::<[u8; 64]>(),
        ) {
            let mut p = Point::base().mul_scalar(&Scalar(mod_l_wide(&limbs_from_bytes(&point_scalar))));
            if let Some(t) = small_order_points().get(torsion) {
                p = p.add(&Point::decompress(t).unwrap());
            }
            let s = Scalar(mod_l_wide(&limbs_from_bytes(&bytes)));
            let naive = p.mul_scalar(&s);
            prop_assert!(p.mul_windowed(&s).equals(&naive));
            prop_assert!(Point::mul_fixed(&niels_table::<64, 8>(&p), &s).equals(&naive));
        }

        #[test]
        fn verify_matches_naive(
            seed in any::<[u8; 32]>(),
            msg in proptest::collection::vec(any::<u8>(), 0..48),
            flip in 0usize..(64 * 8),
            key_flip in 0usize..(32 * 8),
        ) {
            let sk = SigningKey::from_seed(&seed);
            let key = *sk.verifying_key().as_bytes();
            let sig = sk.sign(&msg);
            prop_assert!(verdict(&key, &msg, &sig));
            let mut bad_sig = sig;
            bad_sig[flip / 8] ^= 1 << (flip % 8);
            prop_assert!(!verdict(&key, &msg, &bad_sig));
            let mut bad_key = key;
            bad_key[key_flip / 8] ^= 1 << (key_flip % 8);
            prop_assert!(!verdict(&bad_key, &msg, &sig));
            let mut bad_msg = msg.clone();
            bad_msg.push(0);
            prop_assert!(!verdict(&key, &bad_msg, &sig));
            assert_mutations_rejected(&key, &msg, &sig);
        }
    }
}
