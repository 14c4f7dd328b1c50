//! Codegen options.

use crate::layout::FunctionClusters;
use propeller_ir::FunctionId;
use std::collections::HashMap;

/// How basic block sections are emitted, mirroring
/// `-fbasic-block-sections=` in LLVM.
#[derive(Clone, PartialEq, Debug, Default)]
pub enum BbSectionsMode {
    /// No basic block sections: one `.text.<fn>` section per function,
    /// branches resolved at compile time where possible. The baseline.
    #[default]
    Off,
    /// "Labels" mode: code is laid out exactly as in [`BbSectionsMode::Off`],
    /// but the `.llvm_bb_addr_map` section is emitted so hardware
    /// profiles can later be mapped to blocks (the Phase 2 metadata
    /// build). The pipeline's baseline rests on this: the
    /// `labels_object_is_the_plain_object_plus_the_map` property test
    /// pins that the object is the `Off` one plus the map section.
    Labels,
    /// "Clusters" mode: functions listed in the map are split into the
    /// given basic block cluster sections (the Phase 4 optimizing
    /// build); unlisted functions are emitted as in
    /// [`BbSectionsMode::Off`].
    Clusters(ClusterMap),
}

/// Per-function cluster directives — the in-memory form of the
/// `cc_prof.txt` file the whole-program analyzer produces (§3.3).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ClusterMap {
    map: HashMap<FunctionId, FunctionClusters>,
    /// The largest id with directives: program ids are dense, so it
    /// names a function of the program exactly when every id does.
    pub(crate) max_function: Option<FunctionId>,
}

impl ClusterMap {
    /// An empty map (no functions are split or reordered).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the cluster partition for a function.
    pub fn insert(&mut self, function: FunctionId, clusters: FunctionClusters) {
        self.map.insert(function, clusters);
        self.max_function = self.max_function.max(Some(function));
    }

    /// The partition for `function`, if directives exist.
    pub fn get(&self, function: FunctionId) -> Option<&FunctionClusters> {
        self.map.get(&function)
    }

    /// Number of functions with directives.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no function has directives.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over `(function, clusters)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (FunctionId, &FunctionClusters)> {
        self.map.iter().map(|(k, v)| (*k, v))
    }
}

/// Options controlling a codegen action.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct CodegenOptions {
    /// Basic block section emission mode.
    pub bb_sections: BbSectionsMode,
}

impl CodegenOptions {
    /// Baseline build: no sections, no metadata.
    pub fn baseline() -> Self {
        Self::default()
    }

    /// Phase 2 metadata build (`PM` in Figure 6): labels mode.
    pub fn with_labels() -> Self {
        CodegenOptions {
            bb_sections: BbSectionsMode::Labels,
        }
    }

    /// Phase 4 optimizing build (`PO` in Figure 6): cluster sections for
    /// the given functions.
    pub fn with_clusters(map: ClusterMap) -> Self {
        CodegenOptions {
            bb_sections: BbSectionsMode::Clusters(map),
        }
    }

    /// Whether the `.llvm_bb_addr_map` section should be emitted: in
    /// [`BbSectionsMode::Labels`] and [`BbSectionsMode::Clusters`].
    pub fn wants_bb_addr_map(&self) -> bool {
        !matches!(self.bb_sections, BbSectionsMode::Off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_ir::BlockId;

    #[test]
    fn presets() {
        assert!(!CodegenOptions::baseline().wants_bb_addr_map());
        assert!(CodegenOptions::with_labels().wants_bb_addr_map());
        let opts = CodegenOptions::with_clusters(ClusterMap::new());
        assert!(opts.wants_bb_addr_map());
    }

    #[test]
    fn cluster_map_access() {
        let mut m = ClusterMap::new();
        assert!(m.is_empty());
        m.insert(FunctionId(1), FunctionClusters::single(vec![BlockId(0)]));
        assert_eq!(m.len(), 1);
        assert!(m.get(FunctionId(1)).is_some());
        assert!(m.get(FunctionId(2)).is_none());
        assert_eq!(m.iter().count(), 1);
    }
}
