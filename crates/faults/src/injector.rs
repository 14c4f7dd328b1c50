//! The deterministic fault injector.
//!
//! Determinism is the whole point: a chaos run must be replayable
//! (same seed + same plan ⇒ identical faults ⇒ identical
//! `RunReport`), and it must stay replayable even though the pipeline
//! runs codegen on a thread pool. The injector therefore never draws
//! from a shared sequential RNG stream. Every decision is a pure hash
//! of `(seed, fault kind, site key, per-site occurrence index)` —
//! callers consult it from deterministic, sequential code (cache
//! lookups under the cache lock in plan order, executor actions in
//! spec order, profile records in sample order), so the occurrence
//! counters advance identically on every run regardless of how worker
//! threads interleave.

use crate::plan::{FaultKind, FaultPlan};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};

/// The splitmix64 step: a bijective, high-quality 64-bit mixer. Every
/// seed the fault injector, the relink service and the fleet loop
/// derive (per site, per tenant, per machine) is a composition of
/// this one function, so a seed derived anywhere replays everywhere.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the site key so decisions depend on *which* site rolls,
/// not on global roll order across unrelated sites.
fn key_hash(key: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Map a hash to a uniform `f64` in `[0, 1)` using the top 53 bits.
pub fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[derive(Default)]
struct InjectorState {
    /// Per `(kind, site-key-hash)` roll count; the index of the next
    /// roll at that site.
    occurrences: HashMap<(FaultKind, u64), u64>,
    /// Per kind: how many rolls actually fired (drives `limit` caps
    /// and the ledger's exact-accounting checks).
    fired: BTreeMap<FaultKind, u64>,
}

/// Seeded, deterministic source of scheduled faults.
///
/// ```
/// use propeller_faults::{FaultInjector, FaultKind, FaultPlan};
///
/// let plan = FaultPlan::parse("transient=1:2").unwrap();
/// let inj = FaultInjector::new(plan, 7);
/// assert!(inj.fires(FaultKind::TransientActionFailure, "compile m0"));
/// assert!(inj.fires(FaultKind::TransientActionFailure, "compile m1"));
/// // The occurrence cap of 2 is exhausted:
/// assert!(!inj.fires(FaultKind::TransientActionFailure, "compile m2"));
/// assert_eq!(inj.fired(FaultKind::TransientActionFailure), 2);
/// ```
pub struct FaultInjector {
    plan: FaultPlan,
    seed: u64,
    state: Mutex<InjectorState>,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan, seed: u64) -> FaultInjector {
        FaultInjector {
            plan,
            seed,
            state: Mutex::new(InjectorState::default()),
        }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Roll for a fault of `kind` at the site identified by `key`.
    ///
    /// Returns true when the fault fires. Each call advances the
    /// `(kind, key)` occurrence counter, so repeated rolls at one site
    /// are independent draws; the per-kind `limit` caps total fires.
    pub fn fires(&self, kind: FaultKind, key: &str) -> bool {
        let spec = self.plan.spec(kind);
        let kh = key_hash(key);
        let mut st = self.state.lock();
        let occ = st.occurrences.entry((kind, kh)).or_insert(0);
        let index = *occ;
        *occ += 1;
        if spec.is_disabled() {
            return false;
        }
        if let Some(limit) = spec.limit {
            if st.fired.get(&kind).copied().unwrap_or(0) >= limit {
                return false;
            }
        }
        let draw = unit_f64(splitmix64(
            self.seed
                ^ splitmix64(kind as u64 + 1)
                ^ splitmix64(kh)
                ^ splitmix64(index.wrapping_add(0x5EED)),
        ));
        if draw < spec.probability {
            *st.fired.entry(kind).or_insert(0) += 1;
            true
        } else {
            false
        }
    }

    /// How many faults of `kind` have fired so far. The pipeline's
    /// ledger must account for exactly this many injected faults.
    pub fn fired(&self, kind: FaultKind) -> u64 {
        self.state.lock().fired.get(&kind).copied().unwrap_or(0)
    }

    /// A deterministic uniform draw in `[0, 1)` that does not touch
    /// the occurrence state — used for backoff jitter, where the value
    /// must depend only on `(seed, label, n)`.
    pub fn unit(&self, label: &str, n: u64) -> f64 {
        unit_f64(splitmix64(
            self.seed ^ splitmix64(key_hash(label)) ^ splitmix64(n.wrapping_add(0x0B0F)),
        ))
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.plan)
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let plan = FaultPlan::parse("transient=0.5").unwrap();
        let a = FaultInjector::new(plan.clone(), 42);
        let b = FaultInjector::new(plan.clone(), 42);
        let c = FaultInjector::new(plan, 43);
        let keys = [
            "compile m0",
            "compile m1",
            "codegen m2",
            "link",
            "compile m0",
        ];
        let seq = |inj: &FaultInjector| {
            keys.iter()
                .map(|k| inj.fires(FaultKind::TransientActionFailure, k))
                .collect::<Vec<_>>()
        };
        let sa = seq(&a);
        assert_eq!(sa, seq(&b));
        // A different seed flips at least one decision over enough keys.
        let mut any_diff = false;
        for i in 0..64 {
            let k = format!("probe {i}");
            let da = a.fires(FaultKind::TransientActionFailure, &k);
            let dc = c.fires(FaultKind::TransientActionFailure, &k);
            any_diff |= da != dc;
        }
        assert!(any_diff);
    }

    #[test]
    fn decisions_are_independent_of_cross_site_order() {
        let plan = FaultPlan::parse("corrupt-cache=0.5").unwrap();
        let a = FaultInjector::new(plan.clone(), 9);
        let b = FaultInjector::new(plan, 9);
        // a rolls x then y; b rolls y then x. Per-site streams must
        // not change.
        let ax = a.fires(FaultKind::CacheCorruption, "x");
        let ay = a.fires(FaultKind::CacheCorruption, "y");
        let by = b.fires(FaultKind::CacheCorruption, "y");
        let bx = b.fires(FaultKind::CacheCorruption, "x");
        assert_eq!(ax, bx);
        assert_eq!(ay, by);
    }

    #[test]
    fn probability_one_always_fires_and_zero_never() {
        let plan = FaultPlan::parse("timeout=1,transient=0").unwrap();
        let inj = FaultInjector::new(plan, 1);
        for i in 0..32 {
            let k = format!("a{i}");
            assert!(inj.fires(FaultKind::ActionTimeout, &k));
            assert!(!inj.fires(FaultKind::TransientActionFailure, &k));
        }
        assert_eq!(inj.fired(FaultKind::ActionTimeout), 32);
        assert_eq!(inj.fired(FaultKind::TransientActionFailure), 0);
    }
}
