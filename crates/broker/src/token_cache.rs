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
//! Entries are keyed by the token's signature segment and hold the
//! first 32 bytes of its Ed25519 challenge, SHA-512(R ‖ A ‖
//! `header.payload`). A lookup that finds an entry recomputes the
//! challenge from the presented bytes and the published key for the
//! token's `kid`, and the entry counts only if the two agree: the same
//! signature segment gives the same R, the same key gives the same A,
//! and SHA-512's collision resistance then gives the same signing input.
//! So a hit is still only ever served for a byte-identical token whose
//! header, signature and payload already passed the full parse + verify
//! once, while the hit costs one SHA-512 over R, A and the signing input
//! rather than a hash of the whole token. An entry whose challenge does
//! not match is treated as absent (no hit, no bust, no eviction), so
//! the counts are those of keying by a hash of the token bytes. Stale
//! entries are removed lazily on the epoch mismatch that discovers them
//! (counted as an *epoch bust*), so the counters make invalidation
//! observable.
//!
//! The cache holds live state, not history: each shard keeps at most
//! [`SHARD_CAPACITY`] entries, so the default 16 shards hold at most
//! 1 024 (about 1 MiB). An insert that finds its shard full first drops
//! the shard's entries for tokens expired at the inserting time, which
//! are rarely presented again; if the shard is still full it evicts its
//! oldest entry, one per insert. The entry just inserted is never the one
//! evicted, so a token seeded at issue still hits when it is presented
//! right after. A dropped or evicted entry only turns a later hit into a
//! full verify, which decides the same way.
//!
//! The issuing broker *seeds* the cache at sign time: issuer and
//! verifiers share a trust domain (the broker publishes the JWKS the
//! services hold), so a freshly signed token's first validation is
//! already a hit. Signing computes the challenge anyway, so seeding
//! hashes nothing.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use dri_crypto::base64::decode_url_array;
use dri_crypto::ct_eq;
use dri_crypto::ed25519::{self, PreparedVerifyingKey};
use dri_crypto::jwt::{self, Claims, JwtError, Validation, Verifier};
use dri_sync::ShardMap;

/// Default shard count for the cache map (power of two).
pub const DEFAULT_CACHE_SHARDS: usize = 16;

/// Entries one shard holds at most; an insert into a full shard evicts.
pub const SHARD_CAPACITY: usize = 64;

/// The bytes of an Ed25519 challenge an entry keeps: a 256-bit prefix
/// of SHA-512 is still collision resistant.
const CHALLENGE_BYTES: usize = 32;

/// A verified entry. The claims are shared: a hit hands out the `Arc`,
/// not a deep copy.
#[derive(Clone)]
struct CachedVerification {
    epoch: u64,
    claims: Arc<Claims>,
    /// The leading bytes of the verified token's challenge.
    challenge: [u8; CHALLENGE_BYTES],
    /// Insertion order: a full shard evicts its lowest.
    seq: u64,
    /// The token's expiry, copied out of the claims so that a full shard
    /// is scanned without following a pointer per entry.
    expires_at: u64,
}

/// The leading [`CHALLENGE_BYTES`] of a challenge digest.
fn prefix(digest: &[u8; 64]) -> [u8; CHALLENGE_BYTES] {
    digest[..CHALLENGE_BYTES].try_into().expect("a prefix")
}

/// The challenge prefix of a presented token under `key`, or `None`
/// when its signature segment is not 64 bytes of canonical base64url.
fn presented_challenge(
    key: &PreparedVerifyingKey,
    signing_input: &str,
    signature: &str,
) -> Option<[u8; CHALLENGE_BYTES]> {
    let sig = decode_url_array::<64>(signature)?;
    let r = sig[..32].try_into().expect("32 bytes");
    Some(prefix(&ed25519::challenge(
        r,
        key.as_bytes(),
        signing_input.as_bytes(),
    )))
}

/// Sharded verified-token cache with epoch invalidation, bounded to
/// [`SHARD_CAPACITY`] entries per shard.
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
    /// The next entry's insertion sequence number.
    next_seq: AtomicU64,
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
            next_seq: AtomicU64::new(0),
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
    /// one's entry on insert, counts as a hit. A token whose entry was
    /// dropped or evicted from a full shard misses again on its next
    /// validation.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries discarded because their epoch was stale.
    pub fn epoch_busts(&self) -> u64 {
        self.epoch_busts.load(Ordering::Relaxed)
    }

    /// Number of entries held, at most [`SHARD_CAPACITY`] per shard.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Seed the cache with a token the issuer just signed, given the
    /// challenge digest signing returned with it
    /// ([`jwt::sign_ed25519`]): the claims are trusted by construction,
    /// so the verifier's first validation of these bytes is a hit. The
    /// entry shares the issuer's claims.
    pub fn seed(&self, token: &str, challenge: &[u8; 64], claims: Arc<Claims>) {
        if !self.enabled() {
            return;
        }
        let Some((_, signature)) = token.rsplit_once('.') else {
            return;
        };
        // A token is signed at its issue time.
        let now = claims.issued_at;
        self.insert(signature, self.epoch(), claims, prefix(challenge), now);
    }

    /// Insert an entry, returning the one it replaced. A new key into a
    /// full shard first drops the shard's entries for tokens expired at
    /// `now`, then, if the shard is still full, its oldest entry.
    fn insert(
        &self,
        signature: &str,
        epoch: u64,
        claims: Arc<Claims>,
        challenge: [u8; CHALLENGE_BYTES],
        now: u64,
    ) -> Option<CachedVerification> {
        let entry = CachedVerification {
            epoch,
            expires_at: claims.expires_at,
            claims,
            challenge,
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
        };
        let mut shard = self.entries.write_shard(signature);
        if shard.len() >= SHARD_CAPACITY && !shard.contains_key(signature) {
            // One scan finds the oldest entry and whether any expired.
            let (mut oldest, mut expired) = (u64::MAX, false);
            for e in shard.values() {
                oldest = oldest.min(e.seq);
                expired |= e.expires_at <= now;
            }
            if expired {
                shard.retain(|_, e| e.expires_at > now);
            } else {
                shard.retain(|_, e| e.seq != oldest);
            }
        }
        shard.insert(signature.to_string(), entry)
    }

    /// Validate `token` (whose header names the key published as `key`)
    /// against `validation`, consulting the cache.
    ///
    /// Agreement contract: for any input, the result — `Ok` claims or
    /// `Err` kind — is identical to
    /// `jwt::verify(token, &Verifier::Ed25519Prepared(key), validation)`.
    /// The claims are shared with the cache entry, not copied.
    pub fn validate(
        &self,
        key: &PreparedVerifyingKey,
        token: &str,
        validation: &Validation,
    ) -> Result<Arc<Claims>, JwtError> {
        if !self.enabled() {
            return jwt::verify(token, &Verifier::Ed25519Prepared(key), validation).map(Arc::new);
        }
        let epoch = self.epoch();
        // `header.payload` and the signature segment that keys the entry.
        let (signing_input, signature) = token.rsplit_once('.').unwrap_or_default();
        // The presented challenge, computed only when an entry exists.
        let mut challenge = None;
        if let Some(entry) = self.entries.get_cloned(signature) {
            challenge = presented_challenge(key, signing_input, signature);
            // An entry for other bytes under this signature is absent.
            if let Some(presented) = challenge.filter(|c| ct_eq(c, &entry.challenge)) {
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
                    .remove_if(signature, |e| {
                        e.epoch < epoch && ct_eq(&e.challenge, &presented)
                    })
                    .is_some()
                {
                    self.epoch_busts.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let result = jwt::verify(token, &Verifier::Ed25519Prepared(key), validation).map(Arc::new);
        // As in the PDP memo: when concurrent validations of the same
        // bytes all miss, the first insert is the miss and the rest
        // replace its current-epoch entry and count hits.
        let raced = match &result {
            Ok(claims) => {
                // Verified, so the token is `header.payload.signature`
                // with a 64-byte signature: this is its challenge.
                let challenge = challenge
                    .or_else(|| presented_challenge(key, signing_input, signature))
                    .expect("a verified token carries a 64-byte signature");
                let replaced = self.insert(
                    signature,
                    epoch,
                    Arc::clone(claims),
                    challenge,
                    validation.now,
                );
                matches!(replaced, Some(entry)
                    if entry.epoch == epoch && ct_eq(&entry.challenge, &challenge))
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

    fn signed(sk: &SigningKey, kid: &str, now: u64, ttl: u64) -> (String, Claims) {
        let (token, _, claims) = signed_with_challenge(sk, kid, now, ttl);
        (token, claims)
    }

    fn signed_with_challenge(
        sk: &SigningKey,
        kid: &str,
        now: u64,
        ttl: u64,
    ) -> (String, [u8; 64], Claims) {
        let mut claims = Claims::new("iss", "sub", "aud", now, ttl);
        claims.token_id = "jti-1".into();
        let (token, challenge) = jwt::sign_ed25519(&claims, sk, kid);
        (token, challenge, claims)
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
        assert_eq!(*cache.validate(&pk, &token, &v).unwrap(), claims);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        assert_eq!(*cache.validate(&pk, &token, &v).unwrap(), claims);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn hit_still_enforces_expiry() {
        let sk = SigningKey::from_seed(&[7u8; 32]);
        let pk = PreparedVerifyingKey::new(&sk.verifying_key());
        let cache = TokenCache::new(4);
        let (token, _) = signed(&sk, "k1", 1000, 600);
        cache.validate(&pk, &token, &validation(1000)).unwrap();
        // The cached entry must not outlive the token.
        assert_eq!(
            cache.validate(&pk, &token, &validation(1600)),
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
        cache.validate(&pk, &token, &v).unwrap();
        cache.bump_epoch();
        cache.validate(&pk, &token, &v).unwrap();
        assert_eq!(cache.epoch_busts(), 1);
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
    }

    #[test]
    fn seeded_token_hits_on_first_validation() {
        let sk = SigningKey::from_seed(&[7u8; 32]);
        let pk = PreparedVerifyingKey::new(&sk.verifying_key());
        let cache = TokenCache::new(4);
        let (token, challenge, claims) = signed_with_challenge(&sk, "k1", 1000, 600);
        cache.seed(&token, &challenge, Arc::new(claims.clone()));
        assert_eq!(
            *cache.validate(&pk, &token, &validation(1000)).unwrap(),
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
        let (token, challenge, claims) = signed_with_challenge(&sk, "k1", 1000, 600);
        cache.seed(&token, &challenge, Arc::new(claims.clone()));
        assert!(cache.is_empty());
        assert_eq!(
            *cache.validate(&pk, &token, &validation(1000)).unwrap(),
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
        cache.validate(&pk, &token, &v).unwrap();
        // Dropping a character changes the signature segment, so no
        // entry is found: full verify.
        let mut tampered = token.clone();
        tampered.pop();
        assert!(cache.validate(&pk, &tampered, &v).is_err());
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
    }

    /// `token` with its payload segment replaced by that of `other`.
    fn repointed(token: &str, other: &str) -> String {
        let parts: Vec<&str> = token.split('.').collect();
        let payload = other.split('.').nth(1).unwrap();
        format!("{}.{payload}.{}", parts[0], parts[2])
    }

    #[test]
    fn live_signature_over_a_repointed_payload_is_refused() {
        let sk = SigningKey::from_seed(&[7u8; 32]);
        let pk = PreparedVerifyingKey::new(&sk.verifying_key());
        let cache = TokenCache::new(4);
        let (live, challenge, claims) = signed_with_challenge(&sk, "k1", 1000, 600);
        cache.seed(&live, &challenge, Arc::new(claims.clone()));
        // Same signature segment, so the lookup finds the live entry; a
        // payload re-pointed at another subject must not be served it.
        let mut other = claims.clone();
        other.subject = "mallory".into();
        let forged = repointed(&live, &jwt::sign_ed25519(&other, &sk, "k1").0);
        assert_ne!(forged, live);
        let v = validation(1000);
        assert_eq!(
            cache.validate(&pk, &forged, &v),
            Err(JwtError::BadSignature)
        );
        assert_eq!(
            (cache.hits(), cache.misses(), cache.epoch_busts()),
            (0, 1, 0)
        );
        // The mismatch neither evicted nor replaced the live entry.
        assert_eq!(cache.len(), 1);
        assert_eq!(*cache.validate(&pk, &live, &v).unwrap(), claims);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));

        // Behind a stale epoch the forged token busts nothing either; the
        // live token's own validation finds and busts the stale entry.
        cache.bump_epoch();
        assert_eq!(
            cache.validate(&pk, &forged, &v),
            Err(JwtError::BadSignature)
        );
        assert_eq!((cache.epoch_busts(), cache.len()), (0, 1));
        assert_eq!(*cache.validate(&pk, &live, &v).unwrap(), claims);
        assert_eq!(
            (cache.hits(), cache.misses(), cache.epoch_busts()),
            (1, 3, 1)
        );
    }

    #[test]
    fn live_payload_and_r_with_another_canonical_s_is_refused() {
        use dri_crypto::base64::{decode_url, encode_url};
        use dri_crypto::ed25519::Scalar;
        let sk = SigningKey::from_seed(&[7u8; 32]);
        let pk = PreparedVerifyingKey::new(&sk.verifying_key());
        let cache = TokenCache::new(4);
        let (live, challenge, claims) = signed_with_challenge(&sk, "k1", 1000, 600);
        cache.seed(&live, &challenge, Arc::new(claims));
        let (input, signature) = live.rsplit_once('.').unwrap();
        let mut sig = decode_url(signature).unwrap();
        // S + 1: still a canonical scalar, so the verifier does the full
        // group check on it rather than rejecting the encoding.
        let s = Scalar::from_canonical_bytes(sig[32..].try_into().unwrap()).unwrap();
        let s1 = s.add(Scalar::from_bytes(&{
            let mut one = [0u8; 32];
            one[0] = 1;
            one
        }));
        sig[32..].copy_from_slice(&s1.to_bytes());
        assert!(Scalar::from_canonical_bytes(sig[32..].try_into().unwrap()).is_some());
        let forged = format!("{input}.{}", encode_url(&sig));
        let v = validation(1000);
        assert_eq!(
            cache.validate(&pk, &forged, &v),
            Err(JwtError::BadSignature)
        );
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        assert!(cache.validate(&pk, &live, &v).is_ok());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    /// Seed `n` distinct tokens issued at `now`, oldest first.
    fn seed_many(cache: &TokenCache, sk: &SigningKey, n: usize, now: u64, ttl: u64) -> Vec<String> {
        (0..n)
            .map(|i| {
                let mut claims = Claims::new("iss", "sub", "aud", now, ttl);
                claims.token_id = format!("jti-{now}-{i}");
                let (token, challenge) = jwt::sign_ed25519(&claims, sk, "k1");
                cache.seed(&token, &challenge, Arc::new(claims));
                token
            })
            .collect()
    }

    #[test]
    fn a_full_shard_evicts_its_oldest_entry_first() {
        let sk = SigningKey::from_seed(&[7u8; 32]);
        let pk = PreparedVerifyingKey::new(&sk.verifying_key());
        let cache = TokenCache::new(1);
        let tokens = seed_many(&cache, &sk, SHARD_CAPACITY + 2, 1000, 600);
        assert_eq!(cache.len(), SHARD_CAPACITY);
        let v = validation(1000);
        // The two oldest were evicted: each verifies in full again, and
        // its re-insert evicts the then-oldest entry.
        for token in &tokens[..2] {
            assert!(cache.validate(&pk, token, &v).is_ok());
        }
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        // Every later token is still held.
        for token in &tokens[4..] {
            assert!(cache.validate(&pk, token, &v).is_ok());
        }
        assert_eq!(
            (cache.hits(), cache.misses()),
            (SHARD_CAPACITY as u64 - 2, 2)
        );
        assert_eq!(cache.len(), SHARD_CAPACITY);
    }

    #[test]
    fn expired_entries_are_dropped_before_live_ones() {
        let sk = SigningKey::from_seed(&[7u8; 32]);
        let pk = PreparedVerifyingKey::new(&sk.verifying_key());
        let cache = TokenCache::new(1);
        // The oldest entry is long-lived; the rest expire at 1100.
        let long = seed_many(&cache, &sk, 1, 1000, 3600);
        seed_many(&cache, &sk, SHARD_CAPACITY - 1, 1000, 100);
        assert_eq!(cache.len(), SHARD_CAPACITY);
        // An insert at 1200 drops the expired entries, not the oldest.
        let fresh = seed_many(&cache, &sk, 1, 1200, 600);
        assert_eq!(cache.len(), 2);
        let v = validation(1200);
        assert!(cache.validate(&pk, &long[0], &v).is_ok());
        assert!(cache.validate(&pk, &fresh[0], &v).is_ok());
        assert_eq!((cache.hits(), cache.misses()), (2, 0));
    }

    #[test]
    fn the_newest_seeded_entry_always_survives() {
        let sk = SigningKey::from_seed(&[7u8; 32]);
        let pk = PreparedVerifyingKey::new(&sk.verifying_key());
        let cache = TokenCache::new(2);
        for round in 0..3 * SHARD_CAPACITY as u64 {
            let token = seed_many(&cache, &sk, 1, 1000 + round, 600).remove(0);
            assert!(cache.len() <= 2 * SHARD_CAPACITY);
            cache
                .validate(&pk, &token, &validation(1000 + round))
                .unwrap();
        }
        assert_eq!(cache.misses(), 0);
        assert_eq!(cache.hits(), 3 * SHARD_CAPACITY as u64);
    }

    #[test]
    fn a_stale_epoch_entry_in_a_full_shard_is_a_bust_not_a_hit() {
        let sk = SigningKey::from_seed(&[7u8; 32]);
        let pk = PreparedVerifyingKey::new(&sk.verifying_key());
        let cache = TokenCache::new(1);
        let tokens = seed_many(&cache, &sk, SHARD_CAPACITY, 1000, 600);
        cache.bump_epoch();
        let v = validation(1000);
        let newest = tokens.last().unwrap();
        assert!(cache.validate(&pk, newest, &v).is_ok());
        assert_eq!(
            (cache.hits(), cache.misses(), cache.epoch_busts()),
            (0, 1, 1)
        );
        // The re-verified entry is current; the next validation hits.
        assert!(cache.validate(&pk, newest, &v).is_ok());
        assert_eq!((cache.hits(), cache.len()), (1, SHARD_CAPACITY));
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
                        cache.validate(&pk, token, &v).unwrap();
                    }
                });
            }
        });
        assert_eq!(cache.misses(), TOKENS);
        assert_eq!(cache.hits(), TOKENS * (WORKERS as u64 - 1));
    }
}
