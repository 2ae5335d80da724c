//! # dri-clock — deterministic simulated time and randomness
//!
//! Every component of the simulated infrastructure takes time from a shared
//! [`SimClock`] and randomness from a seeded [`SimRng`] (xoshiro256\*\*).
//! No library code reads the wall clock or the OS entropy pool, which makes
//! every experiment reproducible bit-for-bit: the same seed and the same
//! event sequence always yield the same tokens, certificates, session ids,
//! and detection timelines.
//!
//! The clock is shared (`Arc` + atomic), cheap to clone, and monotone:
//! time only moves forward via [`SimClock::advance`] or [`SimClock::set`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared, monotone simulated clock with millisecond resolution.
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    now_ms: Arc<AtomicU64>,
}

impl SimClock {
    /// A clock starting at t = 0.
    pub fn new() -> SimClock {
        SimClock::default()
    }

    /// A clock starting at `start_ms` milliseconds.
    pub fn starting_at(start_ms: u64) -> SimClock {
        SimClock {
            now_ms: Arc::new(AtomicU64::new(start_ms)),
        }
    }

    /// Current simulated time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ms.load(Ordering::Acquire)
    }

    /// Current simulated time in whole seconds (what token `exp` claims use).
    pub fn now_secs(&self) -> u64 {
        self.now_ms() / 1000
    }

    /// Advance the clock by `delta_ms` milliseconds, returning the new time.
    pub fn advance(&self, delta_ms: u64) -> u64 {
        self.now_ms.fetch_add(delta_ms, Ordering::AcqRel) + delta_ms
    }

    /// Advance the clock by whole seconds.
    pub fn advance_secs(&self, delta_secs: u64) -> u64 {
        self.advance(delta_secs * 1000)
    }

    /// Jump to an absolute time. Panics if this would move time backwards.
    pub fn set(&self, at_ms: u64) {
        let prev = self.now_ms.swap(at_ms, Ordering::AcqRel);
        assert!(
            at_ms >= prev,
            "SimClock must be monotone ({prev} -> {at_ms})"
        );
    }
}

/// Deterministic xoshiro256\*\* PRNG.
///
/// Implemented from the public-domain reference (Blackman & Vigna). Not
/// cryptographically secure — key seeds derived from it are for simulation
/// determinism, not security.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Seed via splitmix64 so any u64 (including 0) gives a good state.
    pub fn seed_from_u64(seed: u64) -> SimRng {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        SimRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`. Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Rejection sampling to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fill a byte slice (used for key seeds and nonces).
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    /// A fresh 32-byte seed (for Ed25519 / X25519 keys).
    pub fn seed32(&mut self) -> [u8; 32] {
        let mut out = [0u8; 32];
        self.fill_bytes(&mut out);
        out
    }

    /// Exponentially-distributed inter-arrival time with mean `mean`
    /// (for Poisson arrival processes in the workload generator).
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        let u = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Split off an independent child RNG (deterministic derivation).
    pub fn split(&mut self) -> SimRng {
        SimRng::seed_from_u64(self.next_u64())
    }

    /// Pick a uniformly random element of a slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.next_below(items.len() as u64) as usize])
        }
    }
}

/// Monotonically increasing, human-readable unique id factory
/// (`prefix-000042`). One per subsystem keeps ids stable under refactors.
#[derive(Debug)]
pub struct IdGen {
    prefix: &'static str,
    counter: AtomicU64,
}

impl IdGen {
    /// A generator producing `prefix-N` ids starting from 1.
    pub fn new(prefix: &'static str) -> IdGen {
        IdGen {
            prefix,
            counter: AtomicU64::new(0),
        }
    }

    /// Next unique id.
    pub fn next(&self) -> String {
        use std::fmt::Write;
        let n = self.counter.fetch_add(1, Ordering::Relaxed) + 1;
        // Sized up front: `format!` would guess short and grow.
        let mut id = String::with_capacity(self.prefix.len() + 21);
        let _ = write!(id, "{}-{:06}", self.prefix, n);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_and_shares_state() {
        let c = SimClock::new();
        let c2 = c.clone();
        assert_eq!(c.now_ms(), 0);
        c.advance(1500);
        assert_eq!(c2.now_ms(), 1500);
        assert_eq!(c2.now_secs(), 1);
        c2.advance_secs(2);
        assert_eq!(c.now_ms(), 3500);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn clock_rejects_time_travel() {
        let c = SimClock::starting_at(5000);
        c.set(100);
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SimRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn next_below_is_in_range() {
        let mut rng = SimRng::seed_from_u64(7);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..200 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_f64_unit_interval() {
        let mut rng = SimRng::seed_from_u64(9);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((0.45..0.55).contains(&mean), "mean {mean} should be ~0.5");
    }

    #[test]
    fn exp_draws_have_roughly_right_mean() {
        let mut rng = SimRng::seed_from_u64(11);
        let mean = 100.0;
        let n = 20_000;
        let total: f64 = (0..n).map(|_| rng.next_exp(mean)).sum();
        let observed = total / n as f64;
        assert!(
            (mean * 0.95..mean * 1.05).contains(&observed),
            "observed mean {observed}"
        );
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        // All-zeros after fill would be astronomically unlikely.
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn split_produces_independent_streams() {
        let mut parent = SimRng::seed_from_u64(5);
        let mut child1 = parent.split();
        let mut child2 = parent.split();
        assert_ne!(child1.next_u64(), child2.next_u64());
    }

    #[test]
    fn idgen_monotone_unique() {
        let g = IdGen::new("sess");
        assert_eq!(g.next(), "sess-000001");
        assert_eq!(g.next(), "sess-000002");
    }

    #[test]
    fn choose_picks_members() {
        let mut rng = SimRng::seed_from_u64(2);
        let items = [1, 2, 3];
        for _ in 0..50 {
            assert!(items.contains(rng.choose(&items).unwrap()));
        }
        assert!(rng.choose::<u8>(&[]).is_none());
    }
}
