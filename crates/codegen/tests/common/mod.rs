//! Inputs shared by this crate's integration tests.

use propeller_codegen::{Cluster, ClusterMap, ClusterName, FunctionClusters};
use propeller_ir::{BlockId, Program};
use propeller_synth::{generate, spec_by_name, GenParams};

/// A pinned synthetic program.
pub fn program(spec: &str, scale: f64, seed: u64, funcs_per_module: usize) -> Program {
    let spec = spec_by_name(spec).expect("built-in spec");
    generate(
        &spec,
        &GenParams {
            scale,
            seed,
            funcs_per_module,
            entry_points: 4,
        },
    )
    .program
}

/// A WPA-free stand-in for `cc_prof.txt`, the same shape as the linker
/// digest's `directives()`: two functions in three get directives,
/// blocks at least as frequent as half the entry stay hot (entry
/// first), the rest go `.cold`, and every fifth function's hot run is
/// cut in two with the second half a numbered cluster — so one-, two-
/// and three-fragment emission are all pinned. Returns the map and the
/// most fragments any one function got.
pub fn directives(p: &Program) -> (ClusterMap, usize) {
    let mut map = ClusterMap::new();
    let mut most = 0;
    for f in p.functions() {
        if f.id.0 % 3 == 2 || f.num_blocks() < 2 {
            continue;
        }
        let threshold = f.entry().freq / 2;
        let (mut hot, mut cold) = (vec![BlockId(0)], Vec::new());
        for b in &f.blocks[1..] {
            if b.freq >= threshold {
                hot.push(b.id);
            } else {
                cold.push(b.id);
            }
        }
        let mut clusters = FunctionClusters::hot_cold(hot, cold);
        let primary = &mut clusters.clusters[0].blocks;
        if f.id.0 % 5 == 0 && primary.len() >= 4 {
            let second = primary.split_off(primary.len() / 2);
            clusters.clusters.insert(
                1,
                Cluster {
                    name: ClusterName::Numbered(1),
                    blocks: second,
                },
            );
        }
        most = most.max(clusters.clusters.len());
        map.insert(f.id, clusters);
    }
    (map, most)
}
