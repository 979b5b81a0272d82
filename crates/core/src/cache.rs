//! In-memory model cache: content-addressed keys and a capacity-bounded
//! LRU map, the first tier of [`crate::PowerEngine`]'s two-tier store.
//!
//! A cached characterization is identified by a [`ModelKey`]: the module
//! spec, a content hash of the [`CharacterizationConfig`] and the shard
//! count. Two engines configured differently can therefore never collide
//! on a key even for the same module — the same rule the engine's
//! on-disk tier encodes in its artifact file names.

use std::collections::HashMap;
use std::hash::Hash;

use hdpm_netlist::ModuleSpec;

use crate::characterize::CharacterizationConfig;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over a byte string — the one content hash of the model store.
/// Besides the configuration fingerprint below, [`crate::persist`] uses it
/// to checksum artifact payloads inside the on-disk envelope.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Content hash of a characterization configuration: FNV-1a over its
/// canonical JSON serialization. Any field change — pattern budget, seed,
/// stimulus, delay model, tolerances, clustering — yields a different
/// fingerprint, so configurations address disjoint cache entries.
///
/// This is the **canonical key fingerprint of the whole store**: the
/// in-memory [`ModelKey`] and the on-disk artifact file names both derive
/// from it, so the two tiers can never disagree about which configuration
/// an artifact belongs to.
pub fn config_fingerprint(config: &CharacterizationConfig) -> u64 {
    let json = serde_json::to_string(config).expect("config serializes");
    fnv1a64(json.as_bytes())
}

/// Identity of one cached characterization:
/// `(module spec, configuration hash, shard count)`.
///
/// The shard count participates because a sharded run selects different
/// pattern streams than the sequential driver (`shards == 0` denotes the
/// sequential reference path, matching the `--shards 0` CLI convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelKey {
    /// The module the characterization ran on.
    pub spec: ModuleSpec,
    /// [`config_fingerprint`] of the characterization configuration.
    pub config_hash: u64,
    /// Shard count of the characterization driver; 0 = sequential.
    pub shards: usize,
}

impl ModelKey {
    /// Build the key for a spec under a configuration and shard count.
    pub fn new(spec: ModuleSpec, config: &CharacterizationConfig, shards: usize) -> Self {
        ModelKey {
            spec,
            config_hash: config_fingerprint(config),
            shards,
        }
    }

    /// The on-disk artifact file name of this key: the [`Display`] form
    /// plus `.json`, read back by [`ModelKey::from_file_name`].
    /// The disk tier joins this under its root, so it is keyed by exactly
    /// the same (spec, fingerprint, shards) triple as the memory tier.
    ///
    /// [`Display`]: std::fmt::Display
    pub fn artifact_file_name(&self) -> String {
        format!("{self}.json")
    }

    /// The key an artifact file name `{spec}_cfg{16 hex}_sh{N}.json`
    /// stands for: the inverse of [`ModelKey::artifact_file_name`], and
    /// the store's only parser of that format. `None` for anything else
    /// (foreign files, locks, temps, legacy pre-fingerprint names).
    pub fn from_file_name(name: &str) -> Option<ModelKey> {
        let stem = name.strip_suffix(".json")?;
        // `_sh` and `_cfg` cannot appear inside the 16-hex fingerprint, and
        // a rightmost split keeps underscores in module-kind ids intact.
        let (rest, shards) = stem.rsplit_once("_sh")?;
        let (spec, hex) = rest.rsplit_once("_cfg")?;
        if hex.len() != 16 {
            return None;
        }
        Some(ModelKey {
            spec: ModuleSpec::parse(spec)?,
            config_hash: u64::from_str_radix(hex, 16).ok()?,
            shards: shards.parse().ok()?,
        })
    }
}

impl std::fmt::Display for ModelKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}_cfg{:016x}_sh{}",
            self.spec, self.config_hash, self.shards
        )
    }
}

/// A capacity-bounded least-recently-used map with hit/miss/eviction
/// counters.
///
/// Recency is tracked with a monotonic tick per access; eviction scans
/// for the minimum tick, which is O(capacity) but deterministic and
/// allocation-free — engine capacities are tens to hundreds of entries,
/// where the scan is noise next to the cached characterizations it
/// fronts.
#[derive(Debug)]
pub struct LruCache<K: Eq + Hash + Clone, V> {
    capacity: usize,
    tick: u64,
    map: HashMap<K, Slot<V>>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

#[derive(Debug)]
struct Slot<V> {
    value: V,
    last_used: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// An empty cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        LruCache {
            capacity,
            tick: 0,
            map: HashMap::with_capacity(capacity),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up `key`, marking it most recently used on a hit. Counts one
    /// hit or miss.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.lookup(key, true)
    }

    /// Look up `key`, marking it most recently used and counting a hit
    /// when it is present. Counts no miss: for a probe whose caller falls
    /// back to a lookup that counts it. One hash of `key`, where
    /// [`LruCache::peek`] then [`LruCache::get`] would take two.
    pub fn touch(&mut self, key: &K) -> Option<&V> {
        self.lookup(key, false)
    }

    fn lookup(&mut self, key: &K, count_miss: bool) -> Option<&V> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(slot) => {
                slot.last_used = self.tick;
                self.hits += 1;
                Some(&slot.value)
            }
            None => {
                if count_miss {
                    self.misses += 1;
                }
                None
            }
        }
    }

    /// Look up `key` without touching recency or counters.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|slot| &slot.value)
    }

    /// Insert a value as most recently used, evicting the least recently
    /// used entry if the cache is full. Returns the evicted key, if any.
    /// Re-inserting an existing key replaces its value without eviction.
    pub fn insert(&mut self, key: K, value: V) -> Option<K> {
        self.tick += 1;
        if let Some(slot) = self.map.get_mut(&key) {
            slot.value = value;
            slot.last_used = self.tick;
            return None;
        }
        let evicted = if self.map.len() >= self.capacity {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone())
                .expect("full cache has a victim");
            self.map.remove(&victim);
            self.evictions += 1;
            Some(victim)
        } else {
            None
        };
        self.map.insert(
            key,
            Slot {
                value,
                last_used: self.tick,
            },
        );
        evicted
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lookups that found their key.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries removed to make room.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Iterate over the live `(key, value)` pairs in unspecified order,
    /// without touching recency or the counters. The engine's tier-B
    /// family fit harvests characterized siblings through this.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter().map(|(key, slot)| (key, &slot.value))
    }

    /// Up to `limit` keys ordered most-recently-used first — the
    /// "hottest" working set. Does not touch recency or the counters;
    /// cluster warm-key gossip uses this to tell peers what this cache
    /// is actually serving.
    pub fn hottest(&self, limit: usize) -> Vec<K> {
        let mut entries: Vec<(&K, u64)> = self
            .map
            .iter()
            .map(|(key, slot)| (key, slot.last_used))
            .collect();
        entries.sort_by_key(|&(_, last_used)| std::cmp::Reverse(last_used));
        entries
            .into_iter()
            .take(limit)
            .map(|(key, _)| key.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdpm_netlist::ModuleKind;

    /// Every configuration field separates the fingerprint, and with it
    /// the key and the artifact name. The headline regression: an older
    /// key dropped delay_model, convergence_tol, check_interval,
    /// min_class_samples and clustering, silently colliding different
    /// configurations onto one artifact.
    #[test]
    fn every_config_field_separates_the_key_and_artifact_name() {
        let base = CharacterizationConfig::default();
        let a = config_fingerprint(&base);
        assert_eq!(a, config_fingerprint(&base), "fingerprint is pure");
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        let name = ModelKey::new(spec, &base, 0).artifact_file_name();
        for changed in [
            CharacterizationConfig {
                max_patterns: base.max_patterns + 1,
                ..base
            },
            CharacterizationConfig {
                seed: base.seed ^ 1,
                ..base
            },
            CharacterizationConfig {
                stimulus: crate::StimulusKind::UniformHd,
                ..base
            },
            CharacterizationConfig {
                delay_model: hdpm_sim::DelayModel::Zero,
                ..base
            },
            CharacterizationConfig {
                convergence_tol: base.convergence_tol * 2.0,
                ..base
            },
            CharacterizationConfig {
                check_interval: base.check_interval + 1,
                ..base
            },
            CharacterizationConfig {
                min_class_samples: base.min_class_samples + 1,
                ..base
            },
            CharacterizationConfig {
                clustering: crate::ZeroClustering::Clustered(2),
                ..base
            },
        ] {
            assert_ne!(a, config_fingerprint(&changed), "{changed:?}");
            let changed_name = ModelKey::new(spec, &changed, 0).artifact_file_name();
            assert_ne!(name, changed_name, "{changed:?}");
        }
    }

    #[test]
    fn keys_differ_by_spec_config_and_shards() {
        let config = CharacterizationConfig::default();
        let spec_a = ModuleSpec::new(ModuleKind::RippleAdder, 8usize);
        let spec_b = ModuleSpec::new(ModuleKind::RippleAdder, 9usize);
        let k = ModelKey::new(spec_a, &config, 8);
        assert_eq!(k, ModelKey::new(spec_a, &config, 8));
        assert_ne!(k, ModelKey::new(spec_b, &config, 8), "spec in key");
        assert_ne!(k, ModelKey::new(spec_a, &config, 4), "shards in key");
        let reseeded = CharacterizationConfig { seed: 1, ..config };
        assert_ne!(k, ModelKey::new(spec_a, &reseeded, 8), "config in key");
        assert!(k.to_string().contains("_sh8"));
    }

    #[test]
    fn lru_evicts_least_recently_used_in_order() {
        let mut cache: LruCache<&str, u32> = LruCache::new(2);
        assert!(cache.insert("a", 1).is_none());
        assert!(cache.insert("b", 2).is_none());
        // Touch `a` so `b` becomes the LRU entry.
        assert_eq!(cache.get(&"a"), Some(&1));
        assert_eq!(cache.insert("c", 3), Some("b"));
        assert_eq!(cache.peek(&"a"), Some(&1));
        assert!(cache.peek(&"b").is_none());
        assert_eq!(cache.peek(&"c"), Some(&3));
        // `a` is now LRU (untouched since the `c` insert bumped the tick).
        assert_eq!(cache.insert("d", 4), Some("a"));
        assert_eq!(cache.evictions(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_counts_hits_and_misses() {
        let mut cache: LruCache<u32, u32> = LruCache::new(4);
        assert!(cache.get(&1).is_none());
        cache.insert(1, 10);
        assert_eq!(cache.get(&1), Some(&10));
        assert!(cache.get(&2).is_none());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.capacity(), 4);
        assert!(!cache.is_empty());
    }

    #[test]
    fn touch_counts_hits_only_and_refreshes_recency() {
        let mut cache: LruCache<&str, u32> = LruCache::new(2);
        assert!(cache.touch(&"a").is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 0), "no miss counted");
        cache.insert("a", 1);
        cache.insert("b", 2);
        // Touch `a` so `b` becomes the LRU entry.
        assert_eq!(cache.touch(&"a"), Some(&1));
        assert_eq!((cache.hits(), cache.misses()), (1, 0));
        assert_eq!(cache.insert("c", 3), Some("b"));
        assert_eq!(cache.peek(&"a"), Some(&1));
    }

    #[test]
    fn reinserting_replaces_without_eviction() {
        let mut cache: LruCache<&str, u32> = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        assert!(cache.insert("a", 10).is_none());
        assert_eq!(cache.peek(&"a"), Some(&10));
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = LruCache::<u32, u32>::new(0);
    }
}
