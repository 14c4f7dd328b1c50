//! WPA options.

use crate::exttsp::ExtTspParams;

/// How blocks are ordered within one function.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum IntraOrder {
    /// Keep the original block order (ablation baseline).
    Original,
    /// Ext-TSP reordering (the paper's configuration).
    #[default]
    ExtTsp,
}

/// How text sections are ordered globally (`ld_prof`).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum GlobalOrder {
    /// Hot primaries by descending execution density, cold clusters
    /// last — the paper's default for the intra-function configuration.
    #[default]
    HotFirst,
    /// Whole-program Ext-TSP over clusters using call-site edges
    /// (§4.7's inter-procedural layout).
    ExtTspInterproc,
}

/// How cold blocks are identified for function splitting (§4.6: "our
/// experiments show that identifying cold blocks using hardware sample
/// profiles collected from an PGO optimized binary is more effective
/// than directly identifying cold blocks in the PGO profile").
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum ColdSource {
    /// Blocks never observed in hardware samples are cold (Propeller).
    #[default]
    HardwareSamples,
    /// Blocks with zero compile-time PGO frequency are cold (the
    /// in-compiler Machine Function Splitter heuristic; stale when the
    /// PGO profile no longer matches runtime behavior).
    PgoFrequencies,
}

/// Configuration for the whole-program analysis.
#[derive(Clone, PartialEq, Debug)]
pub struct WpaOptions {
    /// Intra-function ordering algorithm.
    pub intra: IntraOrder,
    /// Split cold blocks into `.cold` cluster sections (§4.6).
    pub split: bool,
    /// Where cold-block information comes from.
    pub cold_source: ColdSource,
    /// Global section ordering.
    pub global: GlobalOrder,
    /// Minimum sampled count for a block to be considered hot.
    pub hot_threshold: u64,
    /// Minimum total sample count for a *function* to receive layout
    /// directives. Thinly-sampled functions have unreliable block
    /// coverage — splitting them moves merely-unsampled (not cold)
    /// blocks out of line, costing more than the reordering gains.
    pub min_function_samples: u64,
    /// Additional clusters a hot function may be split into for
    /// inter-procedural layout (0 = primary + cold only; `k` allows up
    /// to `k` extra numbered clusters, cut at the coldest chain edges).
    pub interproc_split: usize,
    /// Ext-TSP parameters.
    pub exttsp: ExtTspParams,
    /// Collect full decision provenance: per-merge candidate detail
    /// (accepted and rejected), edge-funding attribution, and the rich
    /// per-function records behind `layout_provenance.json`. Off by
    /// default; arming never changes the layout or any default report.
    pub provenance: bool,
}

impl Default for WpaOptions {
    fn default() -> Self {
        WpaOptions {
            intra: IntraOrder::ExtTsp,
            split: true,
            cold_source: ColdSource::default(),
            global: GlobalOrder::HotFirst,
            hot_threshold: 1,
            min_function_samples: 32,
            interproc_split: 0,
            exttsp: ExtTspParams::default(),
            provenance: false,
        }
    }
}

impl WpaOptions {
    /// The §4.7 inter-procedural configuration.
    pub fn interprocedural() -> Self {
        WpaOptions {
            global: GlobalOrder::ExtTspInterproc,
            interproc_split: 2,
            ..Self::default()
        }
    }

    /// Whether a function sampled `total_count` times gets layout
    /// directives at all; below the floor it is left untouched and its
    /// object is reused from the cache.
    pub fn function_is_hot(&self, total_count: u64) -> bool {
        total_count >= self.min_function_samples.max(1)
    }

    /// Whether block `bb_id` of a hot function, sampled `count` times,
    /// is hot by the hardware samples. The entry executed if anything
    /// did, so it is hot whatever its count.
    pub fn block_is_sampled_hot(&self, bb_id: u32, count: u64) -> bool {
        bb_id == 0 || count >= self.hot_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_configuration() {
        let o = WpaOptions::default();
        assert_eq!(o.intra, IntraOrder::ExtTsp);
        assert!(o.split);
        assert_eq!(o.global, GlobalOrder::HotFirst);
        assert_eq!(o.interproc_split, 0);
        assert!(!o.provenance, "provenance collection must be opt-in");
    }

    #[test]
    fn interprocedural_preset() {
        let o = WpaOptions::interprocedural();
        assert_eq!(o.global, GlobalOrder::ExtTspInterproc);
        assert!(o.interproc_split > 0);
    }
}
