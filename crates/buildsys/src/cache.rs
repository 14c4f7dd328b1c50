//! The content-addressed action cache.
//!
//! The distributed build system caches every action's outputs under
//! the hash of its inputs (§2.1). A later build whose action inputs
//! are unchanged retrieves the artifact instead of re-running the
//! action — across successive releases of a warehouse-scale
//! application the observed hit rate exceeds 90%, which is what makes
//! Propeller's Phase 4 "regenerate only the hot modules" cheap: every
//! cold object is a cache hit.

use propeller_faults::{FaultInjector, FaultKind};
use propeller_obj::ContentHash;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// What a verified lookup observed about the entry it touched.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CacheEvent {
    /// The entry was present and its content digest verified.
    Hit,
    /// No entry was stored under the key.
    Miss,
    /// An entry was present but its content digest did not match its
    /// key: the cache invalidated it and reported a miss. The caller
    /// must rebuild the artifact.
    CorruptInvalidated,
    /// The entry had been silently evicted between insert and lookup;
    /// indistinguishable from a plain miss except to the ledger.
    Evicted,
}

/// Cumulative cache counters.
///
/// Invariant: `hits + misses == lookups`.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Total lookups served.
    pub lookups: u64,
    /// Lookups that found an artifact.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Artifacts stored (an insert over an existing key counts too).
    pub insertions: u64,
}

impl CacheStats {
    /// The counter deltas accumulated since `earlier` was snapshotted —
    /// per-release cache accounting for callers (the fleet loop) that
    /// share one cumulative cache across many pipeline runs. Saturates
    /// at zero if `earlier` is not actually an earlier snapshot of the
    /// same cache.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            lookups: self.lookups.saturating_sub(earlier.lookups),
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            insertions: self.insertions.saturating_sub(earlier.insertions),
        }
    }

    /// Hits as a fraction of lookups (`0.0` before any lookup).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Records these cumulative counters into `tel` under
    /// `{prefix}.lookups` / `.hits` / `.misses` / `.insertions`, plus a
    /// `{prefix}.hit_rate` gauge.
    ///
    /// Counters merge by addition, so call this once per cache at the
    /// end of a run — not per lookup — or totals will double-count.
    pub fn record_metrics(&self, tel: &propeller_telemetry::Telemetry, prefix: &str) {
        if !tel.is_enabled() {
            return;
        }
        tel.counter_add(&format!("{prefix}.lookups"), self.lookups);
        tel.counter_add(&format!("{prefix}.hits"), self.hits);
        tel.counter_add(&format!("{prefix}.misses"), self.misses);
        tel.counter_add(&format!("{prefix}.insertions"), self.insertions);
        tel.gauge_set(&format!("{prefix}.hit_rate"), self.hit_rate());
    }
}

/// A stored artifact plus the content digest recorded at insert time.
///
/// The digest is derived from the key, so a verifying lookup can
/// recompute the expected value and detect storage-level corruption
/// (modeled by the fault injector flipping the stored digest) without
/// trusting the entry itself.
#[derive(Clone, Debug)]
struct Entry<T> {
    value: T,
    digest: u64,
    /// Tenant that inserted the entry (eviction-pressure attribution).
    owner: u32,
    /// Monotonic insertion stamp; drives FIFO eviction order and lets
    /// the eviction queue skip stale records for replaced keys.
    stamp: u64,
}

/// Extra mixing over the raw key hash, so the stored digest is not
/// trivially equal to the key the map is addressed by.
fn digest_of(key: ContentHash) -> u64 {
    let mut z = key.0 ^ 0xD1E5_7A1E_5EED_F00D;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A content-addressed cache from input hashes to artifacts of type
/// `T`.
///
/// `T` is whatever a build action produces — an IR fingerprint, a
/// shared object-file artifact — and is returned by clone, so sharable
/// artifacts are usually stored as `Arc<..>`.
///
/// Every entry carries a content digest recorded at insert;
/// [`lookup`](ActionCache::lookup) re-derives the expected digest from
/// the key and treats a mismatch as corruption: the entry is
/// invalidated and the lookup reports a miss, so callers rebuild
/// instead of consuming a damaged artifact.
#[derive(Clone, Debug)]
pub struct ActionCache<T> {
    map: HashMap<ContentHash, Entry<T>>,
    stats: CacheStats,
    /// Maximum live entries (`None` = unbounded, the default). When
    /// bounded, inserts evict the oldest-inserted live entries first —
    /// a deterministic FIFO, independent of hash-map iteration order.
    capacity: Option<usize>,
    /// Tenant all subsequent operations are attributed to. The service
    /// sets this serially before each job; batch runs leave it at 0.
    owner: u32,
    /// Next insertion stamp.
    next_stamp: u64,
    /// Insertion order of live entries (may contain stale records for
    /// replaced or removed keys; skipped lazily during eviction).
    order: VecDeque<(u64, ContentHash)>,
    /// Per-owner slice of [`CacheStats`].
    owner_stats: BTreeMap<u32, CacheStats>,
    /// Per-owner count of *their* entries lost to pressure eviction
    /// (capacity bound or forced storm), keyed by the entry's owner.
    owner_evictions: BTreeMap<u32, u64>,
    /// Total pressure evictions (sum of `owner_evictions`).
    pressure_evictions: u64,
}

impl<T> Default for ActionCache<T> {
    fn default() -> Self {
        ActionCache {
            map: HashMap::new(),
            stats: CacheStats::default(),
            capacity: None,
            owner: 0,
            next_stamp: 0,
            order: VecDeque::new(),
            owner_stats: BTreeMap::new(),
            owner_evictions: BTreeMap::new(),
            pressure_evictions: 0,
        }
    }
}

impl<T> ActionCache<T> {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached artifacts.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no artifacts.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Bound the cache to at most `capacity` live entries, evicting
    /// oldest-inserted-first when the bound is exceeded. `None`
    /// restores the unbounded default (existing entries stay).
    pub fn set_capacity(&mut self, capacity: Option<usize>) {
        self.capacity = capacity.map(|c| c.max(1));
        self.enforce_capacity();
    }

    /// The configured capacity bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Attribute all subsequent lookups/inserts to `owner`. Callers
    /// that interleave tenants must set this from deterministic,
    /// sequential code (the service's event loop does).
    pub fn set_owner(&mut self, owner: u32) {
        self.owner = owner;
    }

    /// The counters attributed to `owner` (zero if never seen).
    pub fn owner_stats(&self, owner: u32) -> CacheStats {
        self.owner_stats.get(&owner).copied().unwrap_or_default()
    }

    /// How many of `owner`'s entries were lost to pressure eviction.
    pub fn owner_evictions(&self, owner: u32) -> u64 {
        self.owner_evictions.get(&owner).copied().unwrap_or(0)
    }

    /// Total entries lost to pressure eviction (capacity or storm).
    pub fn pressure_evictions(&self) -> u64 {
        self.pressure_evictions
    }

    /// Stores `value` under `key`, replacing any previous artifact
    /// (identical inputs produce identical outputs, so a replacement
    /// only ever happens when two racing builds computed the same
    /// thing).
    pub fn insert(&mut self, key: ContentHash, value: T) {
        self.stats.insertions += 1;
        self.owner_stats.entry(self.owner).or_default().insertions += 1;
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.map.insert(
            key,
            Entry {
                value,
                digest: digest_of(key),
                owner: self.owner,
                stamp,
            },
        );
        self.order.push_back((stamp, key));
        self.enforce_capacity();
    }

    /// Force-evict up to `n` oldest-inserted live entries (the
    /// `evict-storm` fault). Returns how many entries were actually
    /// evicted; each is attributed to the owner that inserted it.
    pub fn evict_oldest(&mut self, n: usize) -> u64 {
        let mut evicted = 0;
        while evicted < n as u64 {
            if !self.evict_front() {
                break;
            }
            evicted += 1;
        }
        evicted
    }

    /// Pop stale order records until a live entry is evicted. Returns
    /// false when nothing live remains.
    fn evict_front(&mut self) -> bool {
        while let Some((stamp, key)) = self.order.pop_front() {
            let live = matches!(self.map.get(&key), Some(entry) if entry.stamp == stamp);
            if live {
                let entry = self.map.remove(&key).expect("live entry exists");
                *self.owner_evictions.entry(entry.owner).or_insert(0) += 1;
                self.pressure_evictions += 1;
                return true;
            }
        }
        false
    }

    fn enforce_capacity(&mut self) {
        if let Some(cap) = self.capacity {
            while self.map.len() > cap {
                if !self.evict_front() {
                    break;
                }
            }
        }
    }
}

impl<T: Clone> ActionCache<T> {
    /// Looks up `key`, verifying the stored content digest, with an
    /// optional fault injector modeling storage-level damage.
    ///
    /// When an injector is supplied and an entry exists, the lookup
    /// first rolls for [`FaultKind::CacheEviction`] (the entry
    /// vanishes silently) and then [`FaultKind::CacheCorruption`] (the
    /// stored digest is flipped, which the verification below then
    /// genuinely detects). Faults only roll against live entries, so
    /// every fired cache fault corresponds to exactly one observable
    /// [`CacheEvent`] — that is what lets the degradation ledger
    /// account for injected faults exactly.
    ///
    /// Anything other than [`CacheEvent::Hit`] counts as a miss in
    /// [`CacheStats`], preserving `hits + misses == lookups`.
    pub fn lookup(
        &mut self,
        key: ContentHash,
        faults: Option<&FaultInjector>,
    ) -> (Option<T>, CacheEvent) {
        let owner = self.owner;
        self.stats.lookups += 1;
        self.owner_stats.entry(owner).or_default().lookups += 1;
        if self.map.contains_key(&key) {
            if let Some(inj) = faults {
                let site = format!("{:016x}", key.0);
                if inj.fires(FaultKind::CacheEviction, &site) {
                    self.map.remove(&key);
                    self.stats.misses += 1;
                    self.owner_stats.entry(owner).or_default().misses += 1;
                    return (None, CacheEvent::Evicted);
                }
                if inj.fires(FaultKind::CacheCorruption, &site) {
                    if let Some(entry) = self.map.get_mut(&key) {
                        entry.digest ^= 0xDEAD_BEEF_0BAD_CAFE;
                    }
                }
            }
        }
        match self.map.get(&key) {
            Some(entry) if entry.digest == digest_of(key) => {
                self.stats.hits += 1;
                self.owner_stats.entry(owner).or_default().hits += 1;
                (Some(entry.value.clone()), CacheEvent::Hit)
            }
            Some(_) => {
                // Digest mismatch: the artifact can't be trusted.
                // Drop it so the caller's rebuild re-inserts a clean
                // entry.
                self.map.remove(&key);
                self.stats.misses += 1;
                self.owner_stats.entry(owner).or_default().misses += 1;
                (None, CacheEvent::CorruptInvalidated)
            }
            None => {
                self.stats.misses += 1;
                self.owner_stats.entry(owner).or_default().misses += 1;
                (None, CacheEvent::Miss)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> ContentHash {
        ContentHash::of_bytes(&n.to_le_bytes())
    }

    #[test]
    fn since_yields_per_window_deltas() {
        let mut cache: ActionCache<u64> = ActionCache::new();
        cache.insert(key(1), 10);
        let _ = cache.lookup(key(1), None);
        let _ = cache.lookup(key(2), None);
        let before = cache.stats();
        let _ = cache.lookup(key(1), None);
        let _ = cache.lookup(key(1), None);
        let delta = cache.stats().since(&before);
        assert_eq!(delta.lookups, 2);
        assert_eq!(delta.hits, 2);
        assert_eq!(delta.misses, 0);
        assert_eq!(delta.insertions, 0);
        assert_eq!(delta.hit_rate(), 1.0);
        // A non-snapshot "earlier" saturates instead of wrapping.
        let weird = CacheStats {
            lookups: u64::MAX,
            ..before
        };
        assert_eq!(cache.stats().since(&weird).lookups, 0);
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let mut c = ActionCache::new();
        assert_eq!(c.lookup(key(1), None).0, None);
        c.insert(key(1), "artifact");
        assert_eq!(c.lookup(key(1), None).0, Some("artifact"));
        assert_eq!(c.lookup(key(2), None).0, None);
        let s = c.stats();
        assert_eq!((s.lookups, s.hits, s.misses, s.insertions), (3, 1, 2, 1));
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_cache_reports_zero_hit_rate() {
        let c: ActionCache<u32> = ActionCache::new();
        assert!(c.is_empty());
        assert_eq!(c.stats().hit_rate(), 0.0);
    }

    #[test]
    fn verified_lookup_without_injector_matches_plain_lookup() {
        let mut c = ActionCache::new();
        c.insert(key(3), "v");
        assert_eq!(c.lookup(key(3), None), (Some("v"), CacheEvent::Hit));
        assert_eq!(c.lookup(key(4), None), (None, CacheEvent::Miss));
    }

    #[test]
    fn corruption_is_detected_invalidated_and_rebuildable() {
        use propeller_faults::FaultPlan;
        let plan = FaultPlan::parse("corrupt-cache=1").unwrap();
        let inj = FaultInjector::new(plan, 1);
        let mut c = ActionCache::new();
        c.insert(key(5), "artifact");
        let (v, ev) = c.lookup(key(5), Some(&inj));
        assert_eq!((v, ev), (None, CacheEvent::CorruptInvalidated));
        assert!(c.is_empty(), "corrupt entry must be invalidated");
        // The rebuild re-inserts a clean entry that verifies again.
        c.insert(key(5), "rebuilt");
        assert_eq!(c.lookup(key(5), None).0, Some("rebuilt"));
        let s = c.stats();
        assert_eq!((s.lookups, s.hits, s.misses), (2, 1, 1));
        assert_eq!(inj.fired(FaultKind::CacheCorruption), 1);
    }

    #[test]
    fn eviction_is_a_silent_miss() {
        use propeller_faults::FaultPlan;
        let plan = FaultPlan::parse("evict-cache=1").unwrap();
        let inj = FaultInjector::new(plan, 2);
        let mut c = ActionCache::new();
        c.insert(key(6), 99);
        assert_eq!(c.lookup(key(6), Some(&inj)), (None, CacheEvent::Evicted));
        assert!(c.is_empty());
        // Faults only roll against live entries: a lookup of an absent
        // key is a plain miss and fires nothing.
        assert_eq!(c.lookup(key(6), Some(&inj)), (None, CacheEvent::Miss));
        assert_eq!(inj.fired(FaultKind::CacheEviction), 1);
    }

    #[test]
    fn capacity_bound_evicts_oldest_first() {
        let mut c = ActionCache::new();
        c.set_capacity(Some(2));
        c.insert(key(1), "a");
        c.insert(key(2), "b");
        c.insert(key(3), "c");
        // key(1) was inserted first, so it is the one evicted.
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup(key(1), None).0, None);
        assert_eq!(c.lookup(key(2), None).0, Some("b"));
        assert_eq!(c.lookup(key(3), None).0, Some("c"));
        assert_eq!(c.pressure_evictions(), 1);
        assert_eq!(c.owner_evictions(0), 1);
    }

    #[test]
    fn replacement_does_not_double_evict() {
        let mut c = ActionCache::new();
        c.set_capacity(Some(2));
        c.insert(key(1), "a");
        c.insert(key(1), "a2"); // replaces; stale order record remains
        c.insert(key(2), "b");
        // Still 2 live entries — the stale record for key(1)'s first
        // insert must not count toward the bound or get "evicted".
        assert_eq!(c.len(), 2);
        assert_eq!(c.pressure_evictions(), 0);
        c.insert(key(3), "c");
        // Now key(1) (oldest live stamp) goes.
        assert_eq!(c.lookup(key(1), None).0, None);
        assert_eq!(c.lookup(key(2), None).0, Some("b"));
        assert_eq!(c.pressure_evictions(), 1);
    }

    #[test]
    fn unbounded_default_never_evicts() {
        let mut c = ActionCache::new();
        for i in 0..100 {
            c.insert(key(i), i);
        }
        assert_eq!(c.len(), 100);
        assert_eq!(c.capacity(), None);
        assert_eq!(c.pressure_evictions(), 0);
    }

    #[test]
    fn per_owner_stats_split_lookup_traffic() {
        let mut c = ActionCache::new();
        c.set_owner(1);
        c.insert(key(1), "a");
        assert_eq!(c.lookup(key(1), None).0, Some("a"));
        c.set_owner(2);
        assert_eq!(c.lookup(key(1), None).0, Some("a"));
        assert_eq!(c.lookup(key(2), None).0, None);
        let s1 = c.owner_stats(1);
        let s2 = c.owner_stats(2);
        assert_eq!(
            (s1.lookups, s1.hits, s1.misses, s1.insertions),
            (1, 1, 0, 1)
        );
        assert_eq!(
            (s2.lookups, s2.hits, s2.misses, s2.insertions),
            (2, 1, 1, 0)
        );
        // Owner slices sum to the global stats.
        let g = c.stats();
        assert_eq!(g.lookups, s1.lookups + s2.lookups);
        assert_eq!(g.hits, s1.hits + s2.hits);
        assert_eq!(g.misses, s1.misses + s2.misses);
        assert_eq!(g.insertions, s1.insertions + s2.insertions);
        // hits + misses == lookups holds per owner.
        assert_eq!(s1.hits + s1.misses, s1.lookups);
        assert_eq!(s2.hits + s2.misses, s2.lookups);
    }

    #[test]
    fn eviction_storm_attributes_victims_to_their_owners() {
        let mut c = ActionCache::new();
        c.set_owner(1);
        c.insert(key(1), "a");
        c.insert(key(2), "b");
        c.set_owner(2);
        c.insert(key(3), "c");
        let evicted = c.evict_oldest(2);
        assert_eq!(evicted, 2);
        assert_eq!(c.owner_evictions(1), 2);
        assert_eq!(c.owner_evictions(2), 0);
        assert_eq!(c.lookup(key(3), None).0, Some("c"));
        // Asking for more than remains evicts what's there.
        assert_eq!(c.evict_oldest(5), 1);
        assert!(c.is_empty());
        assert_eq!(c.pressure_evictions(), 3);
    }

    #[test]
    fn stats_record_into_telemetry_under_prefix() {
        let mut c = ActionCache::new();
        c.insert(key(1), 10);
        c.lookup(key(1), None);
        c.lookup(key(2), None);
        let tel = propeller_telemetry::Telemetry::enabled();
        c.stats().record_metrics(&tel, "cache.ir");
        let m = tel.drain().metrics;
        assert_eq!(m.counter("cache.ir.lookups"), 2);
        assert_eq!(m.counter("cache.ir.hits"), 1);
        assert_eq!(m.counter("cache.ir.misses"), 1);
        assert_eq!(m.counter("cache.ir.insertions"), 1);
        assert!((m.gauges["cache.ir.hit_rate"] - 0.5).abs() < 1e-12);
    }
}
