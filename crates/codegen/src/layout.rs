//! Cluster descriptions and the layout side table.

use propeller_ir::{BlockId, FunctionId};

/// How a basic block cluster's section is named (§3.4).
///
/// "The primary cluster retains the symbol of the parent function, while
/// the cold cluster gains a suffix - `.cold`. Any additional clusters
/// ... are named by appending a numeric identifier."
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ClusterName {
    /// The hot cluster; keeps the function's own symbol.
    Primary,
    /// The cold cluster; symbol is `<fn>.cold`.
    Cold,
    /// An extra cluster for inter-procedural layout; symbol is
    /// `<fn>.<n>`.
    Numbered(u32),
}

impl ClusterName {
    /// Renders the cluster's symbol given the owning function's name.
    pub fn symbol(&self, func_name: &str) -> String {
        match self {
            ClusterName::Primary => func_name.to_string(),
            ClusterName::Cold => format!("{func_name}.cold"),
            ClusterName::Numbered(n) => format!("{func_name}.{n}"),
        }
    }
}

/// One basic block cluster: a named, ordered set of blocks emitted into
/// a single text section.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cluster {
    /// Naming of the section/symbol.
    pub name: ClusterName,
    /// Blocks in emission order.
    pub blocks: Vec<BlockId>,
}

/// The complete cluster partition for one function.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FunctionClusters {
    /// Clusters in output order. Together they must contain every block
    /// of the function exactly once.
    pub clusters: Vec<Cluster>,
}

impl FunctionClusters {
    /// A single primary cluster holding `blocks` in the given order.
    pub fn single(blocks: Vec<BlockId>) -> Self {
        FunctionClusters {
            clusters: vec![Cluster {
                name: ClusterName::Primary,
                blocks,
            }],
        }
    }

    /// Primary + cold split.
    pub fn hot_cold(hot: Vec<BlockId>, cold: Vec<BlockId>) -> Self {
        let mut clusters = vec![Cluster {
            name: ClusterName::Primary,
            blocks: hot,
        }];
        if !cold.is_empty() {
            clusters.push(Cluster {
                name: ClusterName::Cold,
                blocks: cold,
            });
        }
        FunctionClusters { clusters }
    }

    /// Total number of blocks across clusters.
    pub fn num_blocks(&self) -> usize {
        self.clusters.iter().map(|c| c.blocks.len()).sum()
    }
}

/// Placement of one block within its section fragment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BlockPlacement {
    /// The block.
    pub block: BlockId,
    /// Byte offset within the fragment's section.
    pub offset: u32,
    /// Encoded size in bytes.
    pub size: u32,
}

/// One emitted text fragment (a whole function, or one cluster).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FragmentLayout {
    /// The symbol that names the fragment's section start.
    pub section_symbol: String,
    /// Placements in emission order.
    pub blocks: Vec<BlockPlacement>,
}

/// Layout of one function across its fragments.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FunctionLayout {
    /// The function.
    pub function: FunctionId,
    /// The function's primary symbol.
    pub func_symbol: String,
    /// Fragments in output order.
    pub fragments: Vec<FragmentLayout>,
}

/// The codegen side table the execution simulator uses as its "debug
/// info": where every block of every function landed.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DebugLayout {
    /// Per-function layouts, in module function order.
    pub functions: Vec<FunctionLayout>,
}

impl DebugLayout {
    /// Merges another module's layout into this one (used when linking
    /// several objects into a program-wide table).
    pub fn merge(&mut self, other: DebugLayout) {
        self.functions.extend(other.functions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_symbols() {
        assert_eq!(ClusterName::Primary.symbol("foo"), "foo");
        assert_eq!(ClusterName::Cold.symbol("foo"), "foo.cold");
        assert_eq!(ClusterName::Numbered(2).symbol("foo"), "foo.2");
    }

    #[test]
    fn hot_cold_omits_empty_cold() {
        let fc = FunctionClusters::hot_cold(vec![BlockId(0)], Vec::new());
        assert_eq!(fc.clusters.len(), 1);
        let fc = FunctionClusters::hot_cold(vec![BlockId(0)], vec![BlockId(1)]);
        assert_eq!(fc.clusters.len(), 2);
        assert_eq!(fc.num_blocks(), 2);
    }
}
