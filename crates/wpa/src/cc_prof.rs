//! Textual serialization of cluster directives — the `cc_prof.txt`
//! file of Figure 1.
//!
//! The format follows the LLVM Propeller profile convention: a `!`
//! line names a function, each following `!!` line lists one cluster's
//! basic block ids in layout order:
//!
//! ```text
//! !hot_function
//! !!primary 0 3 2
//! !!cold 1 4
//! !!1 5 6
//! ```
//!
//! `primary` keeps the function's symbol, `cold` becomes the `.cold`
//! section, a bare number `n` becomes the `.n` section (§3.4).

use propeller_codegen::{ClusterMap, ClusterName, FunctionClusters};
use propeller_ir::Program;

/// Renders a cluster map to `cc_prof.txt` contents. Functions are
/// emitted in name order for reproducible output.
pub fn cluster_map_to_text(map: &ClusterMap, program: &Program) -> String {
    let mut entries: Vec<(&str, &FunctionClusters)> = map
        .iter()
        .filter_map(|(fid, clusters)| {
            program.function(fid).map(|f| (&*f.name, clusters))
        })
        .collect();
    entries.sort_by_key(|(name, _)| *name);
    let mut out = String::new();
    for (name, clusters) in entries {
        out.push('!');
        out.push_str(name);
        out.push('\n');
        for c in &clusters.clusters {
            out.push_str("!!");
            match c.name {
                ClusterName::Primary => out.push_str("primary"),
                ClusterName::Cold => out.push_str("cold"),
                ClusterName::Numbered(n) => out.push_str(&n.to_string()),
            }
            for b in &c.blocks {
                out.push(' ');
                out.push_str(&b.0.to_string());
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_codegen::Cluster;
    use propeller_ir::{BlockId, FunctionBuilder, Inst, ProgramBuilder, Terminator};

    fn program() -> Program {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m.cc");
        for name in ["beta", "alpha"] {
            let mut f = FunctionBuilder::new(name);
            f.add_block(vec![Inst::Alu], Terminator::Jump(BlockId(1)));
            f.add_block(Vec::new(), Terminator::Jump(BlockId(2)));
            f.add_block(Vec::new(), Terminator::Jump(BlockId(3)));
            f.add_block(Vec::new(), Terminator::Ret);
            pb.add_function(m, f);
        }
        pb.finish().unwrap()
    }

    fn cluster(name: ClusterName, blocks: &[u32]) -> Cluster {
        Cluster { name, blocks: blocks.iter().copied().map(BlockId).collect() }
    }

    /// The parser this file once had was the only check of these bytes;
    /// `cc_prof.txt` is a CI artifact, so they are pinned by hand.
    #[test]
    fn writer_bytes_are_pinned() {
        let p = program();
        let id = |name: &str| p.functions().find(|f| &*f.name == name).unwrap().id;
        let mut map = ClusterMap::new();
        map.insert(
            id("beta"),
            FunctionClusters { clusters: vec![cluster(ClusterName::Primary, &[0])] },
        );
        map.insert(
            id("alpha"),
            FunctionClusters {
                clusters: vec![
                    cluster(ClusterName::Primary, &[0, 2]),
                    cluster(ClusterName::Numbered(1), &[3]),
                    cluster(ClusterName::Cold, &[1]),
                ],
            },
        );
        // Name order, not insertion or program order.
        assert_eq!(
            cluster_map_to_text(&map, &p),
            "!alpha\n!!primary 0 2\n!!1 3\n!!cold 1\n!beta\n!!primary 0\n"
        );
        assert_eq!(cluster_map_to_text(&ClusterMap::new(), &p), "");
    }
}
