//! Trace/span identifiers and the W3C-traceparent-style context.
//!
//! Identifiers are *minted*, not drawn from a shared RNG stream: a trace
//! id is a pure function of `(tracer seed, flow key, per-key sequence)`
//! and a span id of `(trace id, per-trace sequence)`. Minting therefore
//! commutes with scheduling — a login storm produces byte-identical ids
//! whether the flows run serially or across eight workers — which is
//! what lets the chrome-trace export be compared bit-for-bit across
//! runs.

use std::fmt::{self, Write};

/// Finalizer-style 64-bit mixer (splitmix64 finalizer). Good avalanche
/// so adjacent sequences yield unrelated-looking ids.
pub(crate) fn mix64(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Write `bytes` (at most 16) as lowercase hex without allocating.
fn write_hex(f: &mut fmt::Formatter<'_>, bytes: &[u8]) -> fmt::Result {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut buf = [0u8; 32];
    for (pair, b) in buf.chunks_exact_mut(2).zip(bytes) {
        pair[0] = HEX[(b >> 4) as usize];
        pair[1] = HEX[(b & 0xf) as usize];
    }
    f.write_str(std::str::from_utf8(&buf[..bytes.len() * 2]).expect("hex digits are ASCII"))
}

/// One lowercase hex digit (W3C Trace Context allows no uppercase).
fn hex_digit(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        _ => None,
    }
}

fn parse_hex(s: &str, out: &mut [u8]) -> bool {
    if s.len() != out.len() * 2 {
        return false;
    }
    for (slot, pair) in out.iter_mut().zip(s.as_bytes().chunks_exact(2)) {
        match (hex_digit(pair[0]), hex_digit(pair[1])) {
            (Some(h), Some(l)) => *slot = (h << 4) | l,
            _ => return false,
        }
    }
    true
}

/// A 128-bit trace identifier (W3C `trace-id` field width).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub [u8; 16]);

impl TraceId {
    /// Mint the id for the `seq`-th flow keyed by `key_hash` under
    /// `seed`. Deterministic and collision-spread: both halves go
    /// through an avalanche mixer.
    pub fn mint(seed: u64, key_hash: u64, seq: u64) -> TraceId {
        let hi = mix64(seed, key_hash ^ seq.rotate_left(32));
        let lo = mix64(hi ^ seed, seq.wrapping_add(key_hash));
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&hi.to_be_bytes());
        bytes[8..].copy_from_slice(&lo.to_be_bytes());
        // The all-zero trace id is invalid per W3C; nudge it if the
        // mixer ever lands there.
        if bytes == [0u8; 16] {
            bytes[15] = 1;
        }
        TraceId(bytes)
    }

    /// Low 64 bits (used to seed the per-trace span-id mint).
    pub fn low64(&self) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.0[8..]);
        u64::from_be_bytes(b)
    }

    /// 32-char lowercase hex form.
    pub fn to_hex(&self) -> String {
        self.to_string()
    }

    /// Parse the 32-char lowercase hex form.
    pub fn from_hex(s: &str) -> Option<TraceId> {
        let mut bytes = [0u8; 16];
        parse_hex(s, &mut bytes).then_some(TraceId(bytes))
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_hex(f, &self.0)
    }
}

impl fmt::Debug for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TraceId({self})")
    }
}

/// A 64-bit span identifier (W3C `parent-id` field width).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub [u8; 8]);

impl SpanId {
    /// Mint the `seq`-th span id within a trace whose low half is
    /// `trace_low`.
    pub fn mint(trace_low: u64, seq: u64) -> SpanId {
        let v = mix64(trace_low, seq);
        let bytes = if v == 0 {
            1u64.to_be_bytes()
        } else {
            v.to_be_bytes()
        };
        SpanId(bytes)
    }

    /// 16-char lowercase hex form.
    pub fn to_hex(&self) -> String {
        self.to_string()
    }

    /// Parse the 16-char lowercase hex form.
    pub fn from_hex(s: &str) -> Option<SpanId> {
        let mut bytes = [0u8; 8];
        parse_hex(s, &mut bytes).then_some(SpanId(bytes))
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_hex(f, &self.0)
    }
}

impl fmt::Debug for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SpanId({self})")
    }
}

/// The propagation context carried across component boundaries, in the
/// spirit of the W3C Trace Context `traceparent` header.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// The flow this work belongs to.
    pub trace_id: TraceId,
    /// The span acting as parent on the far side of the boundary.
    pub span_id: SpanId,
}

impl TraceCtx {
    /// Render as a `traceparent` header value
    /// (`00-<trace-id>-<parent-id>-01`; the `01` flag marks "sampled").
    pub fn traceparent(&self) -> String {
        let mut s = String::with_capacity(55);
        write!(s, "00-{}-{}-01", self.trace_id, self.span_id)
            .expect("writing to a String cannot fail");
        s
    }

    /// Parse a `traceparent` header value as W3C Trace Context version
    /// `00` defines it: `00-<32 hex>-<16 hex>-<2 hex>`, lowercase only,
    /// with neither id all zeros. Flags must be hex but are otherwise
    /// ignored. A header that parses is therefore exactly 55 bytes long.
    pub fn parse(header: &str) -> Option<TraceCtx> {
        let mut parts = header.split('-');
        let version = parts.next()?;
        if version != "00" {
            return None;
        }
        let trace_id = TraceId::from_hex(parts.next()?)?;
        let span_id = SpanId::from_hex(parts.next()?)?;
        let mut flags = [0u8; 1];
        if !parse_hex(parts.next()?, &mut flags) || parts.next().is_some() {
            return None;
        }
        if trace_id.0 == [0; 16] || span_id.0 == [0; 8] {
            return None;
        }
        Some(TraceCtx { trace_id, span_id })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mint_is_deterministic_and_spread() {
        let a = TraceId::mint(42, 7, 1);
        let b = TraceId::mint(42, 7, 1);
        assert_eq!(a, b);
        assert_ne!(a, TraceId::mint(42, 7, 2));
        assert_ne!(a, TraceId::mint(42, 8, 1));
        assert_ne!(a, TraceId::mint(43, 7, 1));
        // Sequential mints should differ in many bit positions, not one.
        let c = TraceId::mint(42, 7, 2);
        let differing: u32 =
            a.0.iter()
                .zip(c.0.iter())
                .map(|(x, y)| (x ^ y).count_ones())
                .sum();
        assert!(differing > 20, "only {differing} differing bits");
    }

    #[test]
    fn hex_round_trips() {
        let t = TraceId::mint(1, 2, 3);
        assert_eq!(TraceId::from_hex(&t.to_hex()), Some(t));
        assert_eq!(t.to_hex().len(), 32);
        let s = SpanId::mint(t.low64(), 4);
        assert_eq!(SpanId::from_hex(&s.to_hex()), Some(s));
        assert_eq!(s.to_hex().len(), 16);
        assert!(TraceId::from_hex("zz").is_none());
        assert!(SpanId::from_hex("0123").is_none());
    }

    #[test]
    fn traceparent_round_trips() {
        let ctx = TraceCtx {
            trace_id: TraceId::mint(9, 9, 9),
            span_id: SpanId::mint(1, 1),
        };
        let header = ctx.traceparent();
        assert_eq!(header.len(), 2 + 1 + 32 + 1 + 16 + 1 + 2);
        assert_eq!(TraceCtx::parse(&header), Some(ctx));
        assert!(TraceCtx::parse("01-00-00-00").is_none());
        assert!(TraceCtx::parse("garbage").is_none());
    }

    #[test]
    fn traceparent_parse_follows_w3c() {
        let ctx = TraceCtx {
            trace_id: TraceId::mint(9, 9, 9),
            span_id: SpanId::mint(1, 1),
        };
        let good = ctx.traceparent();
        let trace = ctx.trace_id.to_hex();
        let span = ctx.span_id.to_hex();
        let zero_trace = "0".repeat(32);
        let zero_span = "0".repeat(16);
        for bad in [
            good.to_uppercase(),
            format!("00-{}-{span}-01", trace.to_uppercase()),
            format!("00-{trace}-{}-01", span.to_uppercase()),
            format!("00-{trace}-{span}-0A"),
            format!("00-{trace}-{span}-zz"),
            format!("00-{trace}-{span}-1"),
            format!("00-{zero_trace}-{span}-01"),
            format!("00-{trace}-{zero_span}-01"),
            format!("00-{trace}-{span}-01-"),
            format!("00-{trace}-{span}-01-extra"),
            format!("ff-{trace}-{span}-01"),
            format!("00-+{}-{span}-01", &trace[1..]),
        ] {
            assert_eq!(TraceCtx::parse(&bad), None, "accepted {bad:?}");
        }
        assert_eq!(TraceCtx::parse(&format!("00-{trace}-{span}-00")), Some(ctx));
        assert_eq!(TraceId::from_hex(&trace.to_uppercase()), None);
    }

    #[test]
    fn ids_render_as_lowercase_hex() {
        let mut bytes = [0u8; 16];
        bytes[0] = 0x01;
        bytes[7] = 0xab;
        bytes[15] = 0xf0;
        let t = TraceId(bytes);
        assert_eq!(t.to_hex(), "01000000000000ab00000000000000f0");
        assert_eq!(
            format!("{t:?}"),
            "TraceId(01000000000000ab00000000000000f0)"
        );
        let s = SpanId([0xde, 0xad, 0xbe, 0xef, 0, 1, 2, 3]);
        assert_eq!(s.to_hex(), "deadbeef00010203");
        let ctx = TraceCtx {
            trace_id: t,
            span_id: s,
        };
        assert_eq!(
            ctx.traceparent(),
            "00-01000000000000ab00000000000000f0-deadbeef00010203-01"
        );
    }
}
