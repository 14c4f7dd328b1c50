//! Property tests for the action cache's bookkeeping invariants.

use propeller_buildsys::ActionCache;
use propeller_obj::ContentHash;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every lookup is exactly one hit or one miss, regardless of the
    /// interleaving of lookups, inserts, and rebuilds.
    ///
    /// `ops` drives a random sequence over a small key space (so keys
    /// repeat and both hits and misses occur): op 0 = lookup,
    /// op 1 = insert, op 2 = lookup and insert on a miss (how the
    /// pipeline rebuilds an artifact).
    #[test]
    fn hits_plus_misses_equals_lookups(
        ops in prop::collection::vec((0u8..3, 0u8..16, any::<u32>()), 0..200),
    ) {
        let mut cache: ActionCache<u32> = ActionCache::new();
        for (op, key, value) in ops {
            let key = ContentHash::of_bytes(&[key]);
            match op {
                0 => {
                    cache.lookup(key);
                }
                1 => {
                    cache.insert(key, value);
                }
                _ => {
                    if cache.lookup(key).is_none() {
                        cache.insert(key, value);
                    }
                }
            }
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.hits + stats.misses, stats.lookups);
        prop_assert!(stats.hit_rate() >= 0.0 && stats.hit_rate() <= 1.0);

        // The invariant survives the trip through the metrics registry:
        // record into telemetry, read back from the drained snapshot.
        let tel = propeller_telemetry::Telemetry::enabled();
        stats.record_metrics(&tel, "cache");
        let m = tel.drain().metrics;
        prop_assert_eq!(m.counter("cache.hits") + m.counter("cache.misses"),
                        m.counter("cache.lookups"));
        prop_assert_eq!(m.counter("cache.lookups"), stats.lookups);
        prop_assert_eq!(m.counter("cache.insertions"), stats.insertions);
    }

}
