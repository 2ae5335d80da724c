//! Epoch-invalidated verified-token cache.
//!
//! Ed25519 verification costs two scalar multiplications plus two point
//! decompressions per token, and the zero-trust posture re-validates the
//! same short-lived token at every enforcement point it crosses. The
//! steady state is therefore dominated by re-verifying bytes that were
//! already verified moments ago. This cache amortises that cost while
//! keeping the failure mode safe: **invalidation leads caching** — every
//! security-state change (key rotation/prune, token revocation, subject
//! kill switch) bumps a verifier epoch *before* the state change takes
//! effect, and a hit is served only when
//!
//! 1. the entry's stamped epoch equals the current epoch, **and**
//! 2. the claim-time checks (`iss`/`aud`/`nbf`/`exp`) re-pass against the
//!    caller's clock via [`jwt::validate_claims`] — the exact checks, in
//!    the exact order, that the uncached [`jwt::verify`] performs.
//!
//! Entries are keyed `(kid, SHA-256(token bytes))`, so a hit can only be
//! served for a byte-identical token whose header, signature and payload
//! already passed the full parse + verify once. Stale entries are removed
//! lazily on the epoch mismatch that discovers them (counted as an
//! *epoch bust*), so the counters make invalidation observable.
//!
//! The issuing broker *seeds* the cache at sign time: issuer and
//! verifiers share a trust domain (the broker publishes the JWKS the
//! services hold), so a freshly signed token's first validation is
//! already a hit.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use dri_crypto::ed25519::PreparedVerifyingKey;
use dri_crypto::jwt::{self, Claims, JwtError, Validation, Verifier};
use dri_crypto::sha2::sha256;
use dri_sync::ShardMap;

/// Default shard count for the cache map (power of two).
pub const DEFAULT_CACHE_SHARDS: usize = 16;

/// A verified entry. The claims are shared: a hit hands out the `Arc`,
/// not a deep copy.
#[derive(Clone)]
struct CachedVerification {
    epoch: u64,
    claims: Arc<Claims>,
}

/// Sharded verified-token cache with epoch invalidation.
///
/// Shared (behind an `Arc`) between the issuing broker, which seeds and
/// invalidates it, and every relying service's [`crate::Jwks`] snapshot,
/// which consults it on validation.
pub struct TokenCache {
    /// Kill switch for the cache itself: `false` restores the uncached
    /// verify path byte-for-byte (cold baseline for benchmarks).
    enabled: AtomicBool,
    epoch: AtomicU64,
    entries: ShardMap<CachedVerification>,
    hits: AtomicU64,
    misses: AtomicU64,
    epoch_busts: AtomicU64,
}

impl TokenCache {
    /// Create an enabled cache with `shards` shards (rounded to a power
    /// of two).
    pub fn new(shards: usize) -> TokenCache {
        TokenCache {
            enabled: AtomicBool::new(true),
            epoch: AtomicU64::new(0),
            entries: ShardMap::new(shards),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            epoch_busts: AtomicU64::new(0),
        }
    }

    /// Enable or disable the cache. Disabled, [`TokenCache::validate`]
    /// performs the full uncached verification and seeding is a no-op.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Release);
    }

    /// Is the cache serving hits?
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// Current verifier epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Bump the verifier epoch, invalidating every cached verification.
    /// Returns the new epoch. Called *before* the security-state change
    /// it guards becomes visible: invalidation leads caching.
    pub fn bump_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Cache hits: validations served from a verified entry (signature
    /// verification skipped), plus validations that lost a verify race as
    /// described under [`TokenCache::misses`].
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses: one per distinct (token, epoch) verified into the
    /// cache plus one per failed verification. A validation that verified
    /// concurrently with another one of the same bytes, and found that
    /// one's entry on insert, counts as a hit.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries discarded because their epoch was stale.
    pub fn epoch_busts(&self) -> u64 {
        self.epoch_busts.load(Ordering::Relaxed)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn cache_key(kid: &str, token: &str) -> String {
        let digest = sha256(token.as_bytes());
        let mut key = String::with_capacity(kid.len() + 1 + 64);
        key.push_str(kid);
        key.push(':');
        for b in digest {
            key.push(char::from_digit((b >> 4) as u32, 16).unwrap());
            key.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
        }
        key
    }

    /// Seed the cache with a token the issuer just signed: the claims
    /// are trusted by construction, so the verifier's first validation
    /// of these bytes is a hit. The entry shares the issuer's claims.
    pub fn seed(&self, kid: &str, token: &str, claims: Arc<Claims>) {
        if !self.enabled() {
            return;
        }
        self.entries.insert(
            TokenCache::cache_key(kid, token),
            CachedVerification {
                epoch: self.epoch(),
                claims,
            },
        );
    }

    /// Validate `token` (whose header names `kid`, resolved by the
    /// caller to `key`) against `validation`, consulting the cache.
    ///
    /// Agreement contract: for any input, the result — `Ok` claims or
    /// `Err` kind — is identical to
    /// `jwt::verify(token, &Verifier::Ed25519Prepared(key), validation)`.
    /// The claims are shared with the cache entry, not copied.
    pub fn validate(
        &self,
        kid: &str,
        key: &PreparedVerifyingKey,
        token: &str,
        validation: &Validation,
    ) -> Result<Arc<Claims>, JwtError> {
        if !self.enabled() {
            return jwt::verify(token, &Verifier::Ed25519Prepared(key), validation).map(Arc::new);
        }
        let cache_key = TokenCache::cache_key(kid, token);
        let epoch = self.epoch();
        if let Some(entry) = self.entries.get_cloned(&cache_key) {
            if entry.epoch == epoch {
                // Structure and signature already verified for these
                // exact bytes; only the claim-time checks can differ.
                self.hits.fetch_add(1, Ordering::Relaxed);
                dri_trace::add_attr("cache.token", "hit");
                jwt::validate_claims(&entry.claims, validation)?;
                return Ok(entry.claims);
            }
            // Validations racing on one stale entry: only the one that
            // removes it counts the bust.
            if self
                .entries
                .remove_if(&cache_key, |e| e.epoch < epoch)
                .is_some()
            {
                self.epoch_busts.fetch_add(1, Ordering::Relaxed);
            }
        }
        let result = jwt::verify(token, &Verifier::Ed25519Prepared(key), validation).map(Arc::new);
        // As in the PDP memo: when concurrent validations of the same
        // bytes all miss, the first insert is the miss and the rest
        // replace its current-epoch entry and count hits.
        let raced = match &result {
            Ok(claims) => {
                let replaced = self.entries.insert(
                    cache_key,
                    CachedVerification {
                        epoch,
                        claims: Arc::clone(claims),
                    },
                );
                matches!(replaced, Some(entry) if entry.epoch == epoch)
            }
            Err(_) => false,
        };
        if raced {
            self.hits.fetch_add(1, Ordering::Relaxed);
            dri_trace::add_attr("cache.token", "hit");
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            dri_trace::add_attr("cache.token", "miss");
        }
        result
    }
}

impl std::fmt::Debug for TokenCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TokenCache")
            .field("enabled", &self.enabled())
            .field("epoch", &self.epoch())
            .field("entries", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("epoch_busts", &self.epoch_busts())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dri_crypto::ed25519::SigningKey;
    use dri_crypto::jwt::Signer;

    fn signed(sk: &SigningKey, kid: &str, now: u64, ttl: u64) -> (String, Claims) {
        let mut claims = Claims::new("iss", "sub", "aud", now, ttl);
        claims.token_id = "jti-1".into();
        let token = jwt::sign(&claims, &Signer::Ed25519(sk), kid);
        (token, claims)
    }

    fn validation(now: u64) -> Validation {
        Validation {
            issuer: "iss".into(),
            audience: "aud".into(),
            now,
            leeway: 0,
        }
    }

    #[test]
    fn miss_then_hit_returns_identical_claims() {
        let sk = SigningKey::from_seed(&[7u8; 32]);
        let pk = PreparedVerifyingKey::new(&sk.verifying_key());
        let cache = TokenCache::new(4);
        let (token, claims) = signed(&sk, "k1", 1000, 600);
        let v = validation(1000);
        assert_eq!(*cache.validate("k1", &pk, &token, &v).unwrap(), claims);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        assert_eq!(*cache.validate("k1", &pk, &token, &v).unwrap(), claims);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn hit_still_enforces_expiry() {
        let sk = SigningKey::from_seed(&[7u8; 32]);
        let pk = PreparedVerifyingKey::new(&sk.verifying_key());
        let cache = TokenCache::new(4);
        let (token, _) = signed(&sk, "k1", 1000, 600);
        cache
            .validate("k1", &pk, &token, &validation(1000))
            .unwrap();
        // The cached entry must not outlive the token.
        assert_eq!(
            cache.validate("k1", &pk, &token, &validation(1600)),
            Err(JwtError::Expired)
        );
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn epoch_bump_discards_entries() {
        let sk = SigningKey::from_seed(&[7u8; 32]);
        let pk = PreparedVerifyingKey::new(&sk.verifying_key());
        let cache = TokenCache::new(4);
        let (token, _) = signed(&sk, "k1", 1000, 600);
        let v = validation(1000);
        cache.validate("k1", &pk, &token, &v).unwrap();
        cache.bump_epoch();
        cache.validate("k1", &pk, &token, &v).unwrap();
        assert_eq!(cache.epoch_busts(), 1);
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
    }

    #[test]
    fn seeded_token_hits_on_first_validation() {
        let sk = SigningKey::from_seed(&[7u8; 32]);
        let pk = PreparedVerifyingKey::new(&sk.verifying_key());
        let cache = TokenCache::new(4);
        let (token, claims) = signed(&sk, "k1", 1000, 600);
        cache.seed("k1", &token, Arc::new(claims.clone()));
        assert_eq!(
            *cache
                .validate("k1", &pk, &token, &validation(1000))
                .unwrap(),
            claims
        );
        assert_eq!((cache.hits(), cache.misses()), (1, 0));
    }

    #[test]
    fn disabled_cache_neither_seeds_nor_hits() {
        let sk = SigningKey::from_seed(&[7u8; 32]);
        let pk = PreparedVerifyingKey::new(&sk.verifying_key());
        let cache = TokenCache::new(4);
        cache.set_enabled(false);
        let (token, claims) = signed(&sk, "k1", 1000, 600);
        cache.seed("k1", &token, Arc::new(claims.clone()));
        assert!(cache.is_empty());
        assert_eq!(
            *cache
                .validate("k1", &pk, &token, &validation(1000))
                .unwrap(),
            claims
        );
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }

    #[test]
    fn tampered_token_never_hits_the_verified_entry() {
        let sk = SigningKey::from_seed(&[7u8; 32]);
        let pk = PreparedVerifyingKey::new(&sk.verifying_key());
        let cache = TokenCache::new(4);
        let (token, _) = signed(&sk, "k1", 1000, 600);
        let v = validation(1000);
        cache.validate("k1", &pk, &token, &v).unwrap();
        // Any byte difference is a different SHA-256 key: full verify.
        let mut tampered = token.clone();
        tampered.pop();
        assert!(cache.validate("k1", &pk, &tampered, &v).is_err());
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
    }

    #[test]
    fn concurrent_first_validations_count_one_miss_per_token() {
        // Workers released together onto each unseeded token all miss
        // the lookup; only the first insert may count as a miss.
        const WORKERS: usize = 4;
        const TOKENS: u64 = 8;
        let sk = SigningKey::from_seed(&[7u8; 32]);
        let pk = PreparedVerifyingKey::new(&sk.verifying_key());
        let cache = TokenCache::new(4);
        let tokens: Vec<String> = (0..TOKENS)
            .map(|i| signed(&sk, "k1", 1000 + i, 600).0)
            .collect();
        let v = validation(1100);
        let barrier = std::sync::Barrier::new(WORKERS);
        std::thread::scope(|scope| {
            for _ in 0..WORKERS {
                scope.spawn(|| {
                    for token in &tokens {
                        barrier.wait();
                        cache.validate("k1", &pk, token, &v).unwrap();
                    }
                });
            }
        });
        assert_eq!(cache.misses(), TOKENS);
        assert_eq!(cache.hits(), TOKENS * (WORKERS as u64 - 1));
    }
}
