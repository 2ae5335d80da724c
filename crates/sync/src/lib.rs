//! Concurrency primitives shared by the sharded identity/session hot
//! path.
//!
//! Three building blocks, all safe code:
//!
//! * [`Snapshot`] — an arc-swap-style cell holding an `Arc<T>`. Readers
//!   clone the `Arc` under a briefly-held lock and then work lock-free
//!   on the immutable snapshot; writers install a whole new snapshot.
//!   Used for JWKS and signing-key state that changes only on key
//!   rotation but is read on every token validation.
//! * [`ShardMap`] — a fixed power-of-two array of `RwLock<HashMap>`
//!   shards routed by key hash, so concurrent login storms touching
//!   different subjects take different locks.
//! * [`hash_key`] / [`shard_index`] — the FNV-1a routing hash and mask.
//! * [`with_key`] — a composite key formatted on the stack, so a lookup
//!   under a `"{a}|{b}"`-style key allocates nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt::{self, Write};

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::sync::Arc;

/// FNV-1a over the key bytes: stable across runs (unlike `RandomState`)
/// so shard routing — and therefore per-shard counters — is
/// deterministic for a given input set.
pub fn hash_key(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Final avalanche so keys with common prefixes spread.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

/// Map a key hash onto one of `shards` slots (`shards` must be a power
/// of two).
pub fn shard_index(hash: u64, shards: usize) -> usize {
    debug_assert!(shards.is_power_of_two());
    (hash as usize) & (shards - 1)
}

/// Stack space for [`with_key`]; longer keys fall back to a `String`.
const KEY_BUF: usize = 256;

struct KeyBuf {
    buf: [u8; KEY_BUF],
    len: usize,
}

impl Write for KeyBuf {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let end = self.len + s.len();
        let dst = self.buf.get_mut(self.len..end).ok_or(fmt::Error)?;
        dst.copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

/// Call `f` with `args` formatted, on the stack when the text fits in
/// 256 bytes and in a `String` otherwise. Hot paths use it to look up
/// maps under composite keys such as `"{dependency}|{lane}"` without
/// allocating one per call.
pub fn with_key<R>(args: fmt::Arguments<'_>, f: impl FnOnce(&str) -> R) -> R {
    let mut key = KeyBuf {
        buf: [0; KEY_BUF],
        len: 0,
    };
    if key.write_fmt(args).is_err() {
        return f(&args.to_string());
    }
    f(std::str::from_utf8(&key.buf[..key.len]).expect("whole str slices were written"))
}

/// Round a requested shard count to the nearest usable power of two,
/// clamped to `[1, 1024]`.
pub fn clamp_shards(requested: usize) -> usize {
    requested.clamp(1, 1024).next_power_of_two()
}

/// An arc-swap-style snapshot cell: read-mostly state published as an
/// immutable `Arc<T>`.
///
/// `load` takes a read lock only long enough to clone the `Arc` — no
/// lock is held while the caller uses the snapshot, so validation-heavy
/// readers never contend with each other. `store` swaps in a whole new
/// snapshot; values that need a generation carry it themselves (the
/// broker's JWKS does).
pub struct Snapshot<T> {
    cell: RwLock<Arc<T>>,
}

impl<T> Snapshot<T> {
    /// Publish an initial value.
    pub fn new(value: T) -> Snapshot<T> {
        Snapshot {
            cell: RwLock::new(Arc::new(value)),
        }
    }

    /// Clone the current snapshot handle.
    pub fn load(&self) -> Arc<T> {
        self.cell.read().clone()
    }

    /// Publish a new snapshot.
    pub fn store(&self, value: T) {
        *self.cell.write() = Arc::new(value);
    }

    /// Rebuild the snapshot from the current one.
    pub fn rcu<F: FnOnce(&T) -> T>(&self, f: F) {
        let mut cell = self.cell.write();
        *cell = Arc::new(f(cell.as_ref()));
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Snapshot<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("value", &self.load())
            .finish()
    }
}

/// A fixed power-of-two array of `RwLock<HashMap>` shards routed by
/// string-key hash.
///
/// Point operations (`get`, `insert`, `remove`) lock exactly one shard;
/// whole-map operations (`for_each`, `retain`, `len`) visit shards one
/// at a time, never holding more than one lock — which keeps lock
/// ordering trivially deadlock-free.
pub struct ShardMap<V> {
    shards: Vec<RwLock<HashMap<String, V>>>,
}

impl<V> ShardMap<V> {
    /// Create a map with `shards` slots (rounded to a power of two).
    pub fn new(shards: usize) -> ShardMap<V> {
        let n = clamp_shards(shards);
        ShardMap {
            shards: (0..n).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard `key` routes to.
    pub fn shard_of(&self, key: &str) -> usize {
        shard_index(hash_key(key), self.shards.len())
    }

    /// Read-lock the shard holding `key`.
    pub fn read_shard(&self, key: &str) -> RwLockReadGuard<'_, HashMap<String, V>> {
        self.shards[self.shard_of(key)].read()
    }

    /// Write-lock the shard holding `key`.
    pub fn write_shard(&self, key: &str) -> RwLockWriteGuard<'_, HashMap<String, V>> {
        self.shards[self.shard_of(key)].write()
    }

    /// Insert, returning the previous value for `key` if any.
    pub fn insert(&self, key: String, value: V) -> Option<V> {
        self.write_shard(&key).insert(key, value)
    }

    /// Remove `key`, returning its value if present.
    pub fn remove(&self, key: &str) -> Option<V> {
        self.write_shard(key).remove(key)
    }

    /// Remove `key` only if `pred` holds for its value, checked and
    /// removed under one shard lock; returns the removed value.
    pub fn remove_if(&self, key: &str, pred: impl FnOnce(&V) -> bool) -> Option<V> {
        let mut shard = self.write_shard(key);
        if shard.get(key).is_some_and(pred) {
            shard.remove(key)
        } else {
            None
        }
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.read_shard(key).contains_key(key)
    }

    /// Clone-out lookup (values are small on the hot path).
    pub fn get_cloned(&self, key: &str) -> Option<V>
    where
        V: Clone,
    {
        self.read_shard(key).get(key).cloned()
    }

    /// Apply `f` to the value under `key`, if present.
    pub fn with<R>(&self, key: &str, f: impl FnOnce(&V) -> R) -> Option<R> {
        self.read_shard(key).get(key).map(f)
    }

    /// Apply `f` mutably to the value under `key`, if present.
    pub fn with_mut<R>(&self, key: &str, f: impl FnOnce(&mut V) -> R) -> Option<R> {
        self.write_shard(key).get_mut(key).map(f)
    }

    /// Apply `f` mutably to the value under `key`, inserting
    /// `V::default()` first when absent. Only that insert copies the key.
    pub fn upsert<R>(&self, key: &str, f: impl FnOnce(&mut V) -> R) -> R
    where
        V: Default,
    {
        let mut shard = self.write_shard(key);
        if let Some(v) = shard.get_mut(key) {
            return f(v);
        }
        f(shard.entry(key.to_string()).or_default())
    }

    /// Total entries across all shards (locks shards one at a time).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Entries per shard, in shard order.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.read().len()).collect()
    }

    /// Visit every entry (read lock, one shard at a time).
    pub fn for_each(&self, mut f: impl FnMut(&str, &V)) {
        for shard in &self.shards {
            for (k, v) in shard.read().iter() {
                f(k, v);
            }
        }
    }

    /// Keep only entries for which `f` returns true (write lock, one
    /// shard at a time). Returns how many entries were removed.
    pub fn retain(&self, mut f: impl FnMut(&str, &mut V) -> bool) -> usize {
        let mut removed = 0;
        for shard in &self.shards {
            let mut guard = shard.write();
            let before = guard.len();
            guard.retain(|k, v| f(k, v));
            removed += before - guard.len();
        }
        removed
    }

    /// Remove and return every entry matching `pred` (write lock, one
    /// shard at a time).
    pub fn drain_matching(&self, mut pred: impl FnMut(&str, &V) -> bool) -> Vec<(String, V)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let mut guard = shard.write();
            let keys: Vec<String> = guard
                .iter()
                .filter(|(k, v)| pred(k, v))
                .map(|(k, _)| k.clone())
                .collect();
            for k in keys {
                if let Some(v) = guard.remove(&k) {
                    out.push((k, v));
                }
            }
        }
        out
    }

    /// Snapshot of all entries (clone; read lock one shard at a time).
    pub fn entries(&self) -> Vec<(String, V)>
    where
        V: Clone,
    {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.read().iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        out
    }

    /// Remove every entry from every shard.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.write().clear();
        }
    }
}

impl<V> std::fmt::Debug for ShardMap<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardMap")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .finish()
    }
}

/// A sharded `HashSet<String>` (thin wrapper over [`ShardMap`] with unit
/// values) for revocation lists.
#[derive(Debug)]
pub struct ShardSet {
    map: ShardMap<()>,
}

impl ShardSet {
    /// Create a set with `shards` slots (rounded to a power of two).
    pub fn new(shards: usize) -> ShardSet {
        ShardSet {
            map: ShardMap::new(shards),
        }
    }

    /// Insert `key`; true if it was newly added.
    pub fn insert(&self, key: String) -> bool {
        self.map.insert(key, ()).is_none()
    }

    /// Remove `key`; true if it was present.
    pub fn remove(&self, key: &str) -> bool {
        self.map.remove(key).is_some()
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// All members, cloned.
    pub fn members(&self) -> Vec<String> {
        self.map.entries().into_iter().map(|(k, _)| k).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_routing_is_stable_and_spread() {
        assert_eq!(hash_key("alice"), hash_key("alice"));
        let shards = 16;
        let mut seen = std::collections::HashSet::new();
        for i in 0..256 {
            seen.insert(shard_index(hash_key(&format!("user-{i}")), shards));
        }
        // 256 keys over 16 shards must hit far more than one shard.
        assert!(seen.len() > shards / 2, "only {} shards hit", seen.len());
    }

    #[test]
    fn with_key_formats_short_and_long_keys_alike() {
        let long = "x".repeat(KEY_BUF);
        for lane in ["alice", "", long.as_str(), "é☃"] {
            let expected = format!("idp|{lane}|7");
            with_key(format_args!("idp|{lane}|{}", 7), |k| {
                assert_eq!(k, expected)
            });
        }
    }

    #[test]
    fn upsert_inserts_default_once_then_updates() {
        let m: ShardMap<u64> = ShardMap::new(4);
        assert_eq!(m.upsert("k", |v| std::mem::replace(v, 5)), 0);
        assert_eq!(m.upsert("k", |v| *v), 5);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn clamp_shards_rounds_to_power_of_two() {
        assert_eq!(clamp_shards(0), 1);
        assert_eq!(clamp_shards(1), 1);
        assert_eq!(clamp_shards(3), 4);
        assert_eq!(clamp_shards(16), 16);
        assert_eq!(clamp_shards(1 << 20), 1024);
    }

    #[test]
    fn snapshot_load_store_rcu() {
        let snap = Snapshot::new(vec![1, 2, 3]);
        let held = snap.load();
        snap.store(vec![4]);
        // The old handle still sees its snapshot; new loads see the new.
        assert_eq!(*held, vec![1, 2, 3]);
        assert_eq!(*snap.load(), vec![4]);
        snap.rcu(|v| v.iter().map(|x| x * 10).collect());
        assert_eq!(*snap.load(), vec![40]);
    }

    #[test]
    fn shard_map_point_ops() {
        let m: ShardMap<u32> = ShardMap::new(8);
        assert_eq!(m.shard_count(), 8);
        assert!(m.insert("a".into(), 1).is_none());
        assert_eq!(m.insert("a".into(), 2), Some(1));
        assert_eq!(m.get_cloned("a"), Some(2));
        assert!(m.contains_key("a"));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove("a"), Some(2));
        assert!(m.is_empty());
        m.insert("b".into(), 3);
        assert_eq!(m.remove_if("b", |&v| v > 3), None);
        assert_eq!(m.remove_if("b", |&v| v == 3), Some(3));
        assert_eq!(m.remove_if("b", |_| true), None);
    }

    #[test]
    fn shard_map_sweeps_cover_all_shards() {
        let m: ShardMap<u32> = ShardMap::new(8);
        for i in 0..100 {
            m.insert(format!("k{i}"), i);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.shard_lens().iter().sum::<usize>(), 100);
        let removed = m.retain(|_, v| *v % 2 == 0);
        assert_eq!(removed, 50);
        let drained = m.drain_matching(|_, v| *v < 10);
        assert_eq!(drained.len(), 5); // 0,2,4,6,8
        let mut count = 0;
        m.for_each(|_, _| count += 1);
        assert_eq!(count, 45);
    }

    #[test]
    fn shard_set_basics() {
        let s = ShardSet::new(4);
        assert!(s.insert("x".into()));
        assert!(!s.insert("x".into()));
        assert!(s.contains("x"));
        assert_eq!(s.len(), 1);
        assert!(s.remove("x"));
        assert!(s.is_empty());
    }

    #[test]
    fn concurrent_inserts_land_once() {
        let m: std::sync::Arc<ShardMap<usize>> = std::sync::Arc::new(ShardMap::new(16));
        crossbeam::thread::scope(|scope| {
            for t in 0..8 {
                let m = m.clone();
                scope.spawn(move |_| {
                    for i in 0..200 {
                        m.insert(format!("t{t}-k{i}"), i);
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(m.len(), 8 * 200);
    }
}
