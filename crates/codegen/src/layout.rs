//! Cluster descriptions and the layout side table.

use propeller_ir::{BlockId, FunctionId};
use propeller_obj::{Span, Table};
use std::fmt::{self, Write};
use std::sync::Arc;

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
    /// Renders the cluster's symbol given the owning function's name;
    /// the primary cluster shares the function's.
    pub fn symbol(&self, func_name: &Arc<str>) -> Arc<str> {
        self.symbol_in(func_name, &mut String::new())
    }

    /// [`ClusterName::symbol`], formatting in `buf` so that a new name
    /// costs its one allocation once `buf` has grown.
    pub(crate) fn symbol_in(&self, func_name: &Arc<str>, buf: &mut String) -> Arc<str> {
        let suffix: &dyn fmt::Display = match self {
            ClusterName::Primary => return func_name.clone(),
            ClusterName::Cold => &"cold",
            ClusterName::Numbered(n) => n,
        };
        buf.clear();
        buf.reserve(func_name.len() + 12);
        let _ = write!(buf, "{func_name}.{suffix}");
        Arc::from(buf.as_str())
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
    /// The symbol that names the fragment's section start (for the
    /// primary cluster, the function's own name, shared).
    pub section_symbol: Arc<str>,
    /// Its placements in emission order: a span of
    /// [`DebugLayout::blocks`].
    pub blocks: Span<BlockPlacement>,
}

/// Layout of one function across its fragments.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FunctionLayout {
    /// The function.
    pub function: FunctionId,
    /// The function's primary symbol, shared with the IR.
    pub func_symbol: Arc<str>,
    /// Its fragments in output order: a span of
    /// [`DebugLayout::fragments`].
    pub fragments: Span<FragmentLayout>,
}

/// The codegen side table the execution simulator uses as its "debug
/// info": where every block of every function landed.
///
/// Three flat tables, built as a [`propeller_obj::BbAddrMap`] is:
/// [`DebugLayout::push_block`], then [`DebugLayout::close_fragment`] and
/// [`DebugLayout::close_function`]. Functions hold spans of the
/// fragments, fragments spans of the placements, so a module's table is
/// three allocations and every span lies inside its arrays.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct DebugLayout {
    functions: Table<FunctionLayout>,
    fragments: Table<FragmentLayout>,
    blocks: Table<BlockPlacement>,
}

impl DebugLayout {
    /// An empty table with room for `functions` functions, `fragments`
    /// fragments and `blocks` placements.
    pub fn with_capacity(functions: usize, fragments: usize, blocks: usize) -> Self {
        DebugLayout {
            functions: Table::with_capacity(functions),
            fragments: Table::with_capacity(fragments),
            blocks: Table::with_capacity(blocks),
        }
    }

    /// Per-function layouts, in module function order.
    pub fn functions(&self) -> &[FunctionLayout] {
        &self.functions
    }

    /// Every function's fragments, in function order.
    pub fn fragments(&self) -> &[FragmentLayout] {
        &self.fragments
    }

    /// Every fragment's placements, in fragment order.
    pub fn blocks(&self) -> &[BlockPlacement] {
        &self.blocks
    }

    /// `f`'s fragments.
    pub fn fragments_of(&self, f: &FunctionLayout) -> &[FragmentLayout] {
        &self.fragments[f.fragments]
    }

    /// `frag`'s placements.
    pub fn blocks_of(&self, frag: &FragmentLayout) -> &[BlockPlacement] {
        &self.blocks[frag.blocks]
    }

    /// Appends a placement to the fragment being built.
    pub fn push_block(&mut self, p: BlockPlacement) {
        self.blocks.push(p);
    }

    /// Closes the placements pushed since the last fragment into a
    /// fragment whose section `section_symbol` starts.
    pub fn close_fragment(&mut self, section_symbol: Arc<str>) {
        let blocks = self.blocks.close();
        self.fragments.push(FragmentLayout {
            section_symbol,
            blocks,
        });
    }

    /// Closes the fragments closed since the last function into
    /// `function`'s layout.
    pub fn close_function(&mut self, function: FunctionId, func_symbol: Arc<str>) {
        let fragments = self.fragments.close();
        self.functions.push(FunctionLayout {
            function,
            func_symbol,
            fragments,
        });
    }
}

/// The nested form — each function with its fragments, each fragment
/// with its placements — that the table had before it was flattened:
/// codegen's golden digest hashes it, so the rendering is kept exactly.
impl fmt::Debug for DebugLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let functions = self.functions.iter().map(|func| {
            let fragments = self.fragments_of(func).iter().map(|frag| {
                fmt::from_fn(move |f| {
                    f.debug_struct("FragmentLayout")
                        .field("section_symbol", &frag.section_symbol)
                        .field("blocks", &self.blocks_of(frag))
                        .finish()
                })
            });
            fmt::from_fn(move |f| {
                f.debug_struct("FunctionLayout")
                    .field("function", &func.function)
                    .field("func_symbol", &func.func_symbol)
                    .field(
                        "fragments",
                        &fmt::from_fn(|f| f.debug_list().entries(fragments.clone()).finish()),
                    )
                    .finish()
            })
        });
        f.debug_struct("DebugLayout")
            .field(
                "functions",
                &fmt::from_fn(|f| f.debug_list().entries(functions.clone()).finish()),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_symbols() {
        let foo: Arc<str> = "foo".into();
        assert_eq!(&*ClusterName::Primary.symbol(&foo), "foo");
        assert_eq!(&*ClusterName::Cold.symbol(&foo), "foo.cold");
        assert_eq!(&*ClusterName::Numbered(2).symbol(&foo), "foo.2");
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
