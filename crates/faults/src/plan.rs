//! Fault plans: *what* can go wrong, how often, and how many times.
//!
//! A [`FaultPlan`] is a static schedule of failure probabilities (with
//! optional occurrence caps) for every fault site the pipeline knows
//! how to survive. Plans are plain data: they can be parsed from the
//! CLI `--faults` spec string, compared for equality (the doctor diff
//! gate only compares degradation between runs at *equal* plans), and
//! round-tripped through a canonical spec string for reports.

use std::fmt;

/// Declares [`FaultKind`] from the one table that pairs each variant
/// with its `--faults` spec key, so the variant list, [`FaultKind::ALL`]
/// and the keys cannot drift apart.
macro_rules! fault_kinds {
    ($($(#[$doc:meta])* $variant:ident => $key:literal,)*) => {
        /// Every distinct failure mode the injector can schedule.
        ///
        /// The variants map one-to-one onto the degradation paths of the
        /// pipeline: the executor retries transient failures and timeouts,
        /// the action cache invalidates corrupt or evicted entries, phase 3
        /// salvages corrupt/truncated LBR data, and phase 4 falls back to
        /// the baseline codegen when a hot object permanently fails to
        /// rebuild.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum FaultKind {
            $($(#[$doc])* $variant,)*
        }

        impl FaultKind {
            /// All kinds in canonical (spec-string) order.
            pub const ALL: [FaultKind; [$(FaultKind::$variant),*].len()] =
                [$(FaultKind::$variant),*];

            /// The `--faults` spec key for this kind.
            pub fn key(self) -> &'static str {
                match self {
                    $(FaultKind::$variant => $key,)*
                }
            }
        }
    };
}

fault_kinds! {
    /// A distributed action fails but would succeed if rescheduled.
    TransientActionFailure => "transient",
    /// A distributed action hangs until the retry policy's deadline.
    ActionTimeout => "timeout",
    /// A cache entry's stored content digest no longer matches its key.
    CacheCorruption => "corrupt-cache",
    /// A cache entry silently disappears before lookup.
    CacheEviction => "evict-cache",
    /// An LBR record's addresses are garbage (point outside .text).
    LbrRecordCorruption => "corrupt-lbr",
    /// An LBR sample loses the tail of its record stack.
    SampleTruncation => "truncate-samples",
    /// Hot-object re-codegen fails on every attempt; no retry helps.
    PermanentCodegenFailure => "permanent-codegen",
    /// A tenant's arrival spawns extra copies of itself — the thundering
    /// herd a shared relink service must absorb without starving others.
    TenantBurstAmplification => "burst-amplify",
    /// An admitted job is cancelled mid-flight by its owner; the service
    /// must roll back without publishing partial artifacts.
    JobCancellation => "cancel-job",
    /// A queued job is silently dropped before it can be scheduled; the
    /// client retries with backoff as if the enqueue had been refused.
    QueueDrop => "drop-queue",
    /// Cache pressure spikes and the service force-evicts the oldest
    /// shared-cache entries, regardless of which tenant inserted them.
    CacheEvictionStorm => "evict-storm",
}

impl FaultKind {
    /// The kinds rolled by the relink service's scheduler rather than
    /// by the pipeline itself. The pipeline never consults these, so a
    /// plan containing only service kinds still drives every batch run
    /// down its zero-pipeline-fault path.
    pub const SERVICE: [FaultKind; 4] = [
        FaultKind::TenantBurstAmplification,
        FaultKind::JobCancellation,
        FaultKind::QueueDrop,
        FaultKind::CacheEvictionStorm,
    ];

    fn from_key(key: &str) -> Option<FaultKind> {
        FaultKind::ALL.iter().copied().find(|k| k.key() == key)
    }
}

/// Probability (+ optional occurrence cap) for one [`FaultKind`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultSpec {
    /// Chance in `[0, 1]` that any given roll at this site fires.
    pub probability: f64,
    /// Stop firing after this many occurrences (`None` = unbounded).
    pub limit: Option<u64>,
}

impl FaultSpec {
    /// A site that never fires.
    pub const fn never() -> FaultSpec {
        FaultSpec { probability: 0.0, limit: None }
    }

    /// Fire on every roll (until `limit`, if any).
    pub const fn always() -> FaultSpec {
        FaultSpec { probability: 1.0, limit: None }
    }

    /// Fire with probability `p`, unbounded.
    pub const fn p(probability: f64) -> FaultSpec {
        FaultSpec { probability, limit: None }
    }

    /// Fire with probability `p`, at most `n` times total.
    pub const fn count(probability: f64, n: u64) -> FaultSpec {
        FaultSpec { probability, limit: Some(n) }
    }

    /// True when this spec can never fire.
    pub fn is_disabled(&self) -> bool {
        self.probability <= 0.0 || self.limit == Some(0)
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::never()
    }
}

/// The full fault schedule for one pipeline run: one [`FaultSpec`] per
/// [`FaultKind`], indexed by the kind. Every disabled spec is stored as
/// [`FaultSpec::never`], so two plans are equal iff they schedule the
/// same faults.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    specs: [FaultSpec; FaultKind::ALL.len()],
}

impl FaultPlan {
    /// A plan with every fault disabled (the default).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when no fault in the plan can ever fire. The pipeline
    /// takes the exact legacy code path in this case, so zero-fault
    /// runs stay bit-identical to runs without a fault layer at all.
    pub fn is_none(&self) -> bool {
        FaultKind::ALL.iter().all(|&k| self.spec(k).is_disabled())
    }

    /// True when any service-level kind ([`FaultKind::SERVICE`]) can
    /// fire. The relink service arms its scheduler injector iff so.
    pub fn has_service_faults(&self) -> bool {
        FaultKind::SERVICE.iter().any(|&k| !self.spec(k).is_disabled())
    }

    /// The spec scheduled for `kind`.
    pub fn spec(&self, kind: FaultKind) -> FaultSpec {
        self.specs[kind as usize]
    }

    /// Schedules `spec` for `kind`; a spec that can never fire is
    /// stored as [`FaultSpec::never`].
    pub fn set(&mut self, kind: FaultKind, spec: FaultSpec) {
        self.specs[kind as usize] = if spec.is_disabled() { FaultSpec::never() } else { spec };
    }

    /// A plan that destroys the entire profile: every LBR record is
    /// corrupted, so phase 3 salvages nothing and the layout falls
    /// back to identity order.
    pub fn full_profile_loss() -> FaultPlan {
        let mut plan = FaultPlan::none();
        plan.set(FaultKind::LbrRecordCorruption, FaultSpec::always());
        plan
    }

    /// Parse a `--faults` spec string.
    ///
    /// Grammar: comma-separated `key=probability[:limit]` clauses,
    /// e.g. `transient=0.3,corrupt-cache=0.1:2,permanent-codegen=1`.
    /// Keys are the [`FaultKind::key`] names; probabilities must lie
    /// in `[0, 1]`.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultPlanParseError> {
        let mut plan = FaultPlan::none();
        let mut seen = Vec::new();
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let bad = |message: String| FaultPlanParseError { clause: clause.to_string(), message };
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| bad("expected key=probability[:limit]".to_string()))?;
            let key = key.trim();
            let kind = FaultKind::from_key(key).ok_or_else(|| {
                let known = FaultKind::ALL.map(|k| k.key()).join(", ");
                bad(format!("unknown fault kind {key:?} (known: {known})"))
            })?;
            // A second clause for a kind would silently override the first.
            if seen.contains(&kind) {
                return Err(bad(format!("{key:?} is already set by an earlier clause")));
            }
            seen.push(kind);
            let (prob_str, limit_str) = match value.split_once(':') {
                Some((p, l)) => (p.trim(), Some(l.trim())),
                None => (value.trim(), None),
            };
            let probability: f64 =
                prob_str.parse().map_err(|_| bad(format!("bad probability {prob_str:?}")))?;
            if !(0.0..=1.0).contains(&probability) {
                return Err(bad(format!("probability {probability} outside [0, 1]")));
            }
            let limit = limit_str
                .map(|l| l.parse().map_err(|_| bad(format!("bad occurrence limit {l:?}"))))
                .transpose()?;
            plan.set(kind, FaultSpec { probability, limit });
        }
        Ok(plan)
    }

    /// Canonical spec string: enabled kinds in [`FaultKind::ALL`]
    /// order. Parsing the result reproduces the plan exactly, and two
    /// plans are equal iff their canonical strings are equal, so this
    /// is what reports embed for the diff gate's plan comparison.
    pub fn to_spec_string(&self) -> String {
        let mut parts = Vec::new();
        for &kind in &FaultKind::ALL {
            let spec = self.spec(kind);
            if spec.is_disabled() {
                continue;
            }
            match spec.limit {
                Some(n) => parts.push(format!("{}={}:{}", kind.key(), spec.probability, n)),
                None => parts.push(format!("{}={}", kind.key(), spec.probability)),
            }
        }
        parts.join(",")
    }
}

/// A clause of a `--faults` spec string that failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlanParseError {
    pub clause: String,
    pub message: String,
}

impl fmt::Display for FaultPlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault clause {:?}: {}", self.clause, self.message)
    }
}

impl std::error::Error for FaultPlanParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_none() {
        assert!(FaultPlan::none().is_none());
        assert!(FaultPlan::parse("").unwrap().is_none());
        assert_eq!(FaultPlan::none().to_spec_string(), "");
    }

    #[test]
    fn parse_roundtrip() {
        let spec = "transient=0.3,corrupt-cache=0.1:2,permanent-codegen=1";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.spec(FaultKind::TransientActionFailure), FaultSpec::p(0.3));
        assert_eq!(plan.spec(FaultKind::CacheCorruption), FaultSpec::count(0.1, 2));
        assert_eq!(plan.spec(FaultKind::PermanentCodegenFailure), FaultSpec::always());
        let canonical = plan.to_spec_string();
        assert_eq!(FaultPlan::parse(&canonical).unwrap(), plan);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("transient").is_err());
        assert!(FaultPlan::parse("warp-core=0.5").is_err());
        assert!(FaultPlan::parse("transient=1.5").is_err());
        assert!(FaultPlan::parse("transient=0.5:x").is_err());
    }

    #[test]
    fn zero_probability_clause_keeps_plan_none() {
        let plan = FaultPlan::parse("transient=0,timeout=0.5:0").unwrap();
        assert!(plan.is_none());
    }

    #[test]
    fn a_repeated_key_is_an_error_naming_it() {
        // Used to keep only the last clause: `transient=0.9,transient=0`
        // ran fault-free.
        let err = FaultPlan::parse("transient=0.9,timeout=0.1, transient=0").unwrap_err();
        assert_eq!(err.clause, "transient=0");
        assert_eq!(
            err.to_string(),
            "bad fault clause \"transient=0\": \"transient\" is already set by an earlier clause"
        );
    }

    #[test]
    fn plans_are_equal_iff_their_canonical_strings_are() {
        // A disabled clause with a limit used to be kept as written: a plan
        // unequal to `none()` whose canonical string was still "".
        for spec in ["transient=0:5", "timeout=0.5:0", "corrupt-lbr=-0", "cancel-job=0:0"] {
            let plan = FaultPlan::parse(spec).unwrap();
            assert_eq!(plan.to_spec_string(), "", "{spec}");
            assert_eq!(plan, FaultPlan::none(), "{spec}");
        }
        let mut set = FaultPlan::none();
        set.set(FaultKind::QueueDrop, FaultSpec::count(0.0, 3));
        assert_eq!(set, FaultPlan::none());
        set.set(FaultKind::QueueDrop, FaultSpec::count(0.5, 3));
        assert_eq!(set, FaultPlan::parse("drop-queue=0.5:3").unwrap());
    }

    #[test]
    fn service_kinds_parse_and_roundtrip() {
        let spec = "burst-amplify=0.2,cancel-job=0.1:3,drop-queue=0.25,evict-storm=1";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.spec(FaultKind::TenantBurstAmplification), FaultSpec::p(0.2));
        assert_eq!(plan.spec(FaultKind::JobCancellation), FaultSpec::count(0.1, 3));
        assert_eq!(plan.spec(FaultKind::QueueDrop), FaultSpec::p(0.25));
        assert_eq!(plan.spec(FaultKind::CacheEvictionStorm), FaultSpec::always());
        assert!(plan.has_service_faults());
        assert!(!plan.is_none());
        let canonical = plan.to_spec_string();
        assert_eq!(FaultPlan::parse(&canonical).unwrap(), plan);
        // A pipeline-only plan has no service faults and vice versa.
        assert!(!FaultPlan::parse("transient=0.5").unwrap().has_service_faults());
        for kind in FaultKind::SERVICE {
            assert!(FaultKind::ALL.contains(&kind));
        }
    }
}
