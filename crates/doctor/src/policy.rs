//! The relink-vs-reuse decision for the fleet release loop.
//!
//! Every release must choose: relink against the best available
//! (merged, possibly stale) profile, or ship the baseline-equivalent
//! identity layout and wait for fresher samples. The input to that
//! choice is the stale-profile skew score
//! ([`crate::audit::layout_skew`]): the total-variation distance
//! between the stale profile's edge distribution and the current
//! release's fresh behavior.
//!
//! The policy is a plain threshold because the skew score already
//! compresses the staleness story into one number in `[0, 1]`: below
//! the threshold the profile still describes the binary and relinking
//! captures most of the oracle speedup; above it the layout would chase
//! behavior the binary no longer exhibits, and a wrongly-placed hot
//! path is worse than no placement at all.

use std::fmt;

/// The per-release decision.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum RelinkDecision {
    /// Relink against the merged stale profile: skew is low enough
    /// that the profile still describes this binary.
    Relink,
    /// Skip optimization this release: ship the identity layout (every
    /// Phase 2 object reused from cache) and wait for fresh samples.
    Reuse,
}

impl RelinkDecision {
    /// Stable lowercase name, used in reports and the release ledger.
    pub fn as_str(self) -> &'static str {
        match self {
            RelinkDecision::Relink => "relink",
            RelinkDecision::Reuse => "reuse",
        }
    }
}

impl fmt::Display for RelinkDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Threshold policy over the skew score.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct RelinkPolicy {
    /// Maximum tolerated skew (inclusive). `0.0` relinks only on a
    /// perfectly fresh profile; `1.0` always relinks.
    pub max_skew: f64,
}

impl Default for RelinkPolicy {
    fn default() -> Self {
        // EXPERIMENTS.md walks through choosing this from the
        // speedup-vs-staleness curve; 0.4 keeps clang-shaped workloads
        // relinking through moderate drift while rejecting profiles
        // whose hot edges have mostly moved.
        RelinkPolicy { max_skew: 0.4 }
    }
}

impl RelinkPolicy {
    /// Decides relink-vs-reuse for a release whose best available
    /// profile skews by `skew` against fresh behavior.
    pub fn decide(&self, skew: f64) -> RelinkDecision {
        if skew <= self.max_skew {
            RelinkDecision::Relink
        } else {
            RelinkDecision::Reuse
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_is_inclusive() {
        let p = RelinkPolicy { max_skew: 0.3 };
        assert_eq!(p.decide(0.0), RelinkDecision::Relink);
        assert_eq!(p.decide(0.3), RelinkDecision::Relink);
        assert_eq!(p.decide(0.300001), RelinkDecision::Reuse);
        assert_eq!(p.decide(1.0), RelinkDecision::Reuse);
    }

    #[test]
    fn extremes() {
        assert_eq!(
            RelinkPolicy { max_skew: 1.0 }.decide(1.0),
            RelinkDecision::Relink
        );
        assert_eq!(
            RelinkPolicy { max_skew: 0.0 }.decide(f64::EPSILON),
            RelinkDecision::Reuse
        );
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(RelinkDecision::Relink.as_str(), "relink");
        assert_eq!(RelinkDecision::Reuse.to_string(), "reuse");
    }
}
