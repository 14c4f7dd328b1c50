//! The four workloads. Every size is a constant of the benchmark —
//! nothing is calibrated at run time — so a parent commit and a change
//! do identical work per op.

pub mod fleet_drift;
pub mod pipeline;
pub mod serve_mix;

use crate::staged::Stage;
use propeller_synth::{spec_by_name, GenParams, GeneratedBenchmark};
use std::collections::BTreeMap;

/// One closed-loop op: issued only after the previous one completed.
pub struct OpOut {
    /// Wall seconds of the op's timed region.
    pub wall_s: f64,
    /// Digest of everything the op shipped.
    pub digest: u64,
    /// Operations the op attempted and how many of them returned an
    /// error or did not complete: 1 and 0/1 for the pipeline and fleet
    /// workloads, jobs for `serve_mix`.
    pub attempted: u64,
    pub failed: u64,
}

/// What the deep audit of one kept op found.
#[derive(Default)]
pub struct Audit {
    /// Mean modeled speedup of the shipped binaries over the
    /// PGO+ThinLTO baseline, percent.
    pub speedup_pct: f64,
    /// Total text of every binary the op shipped.
    pub text_kib: f64,
    /// Basic blocks of every input program the op processed.
    pub blocks: u64,
    /// Named digests, written to `results.json`.
    pub digests: Vec<(String, u64)>,
    /// Every check that failed; empty means the outputs are correct.
    pub errors: Vec<String>,
}

/// Per-layer values of one traced op, by metric name.
pub type LayerRow = BTreeMap<&'static str, f64>;

pub trait Workload {
    /// Runs one op with `jobs` worker threads. With `keep`, what the op
    /// shipped stays in the workload for [`Workload::audit`].
    fn op(&mut self, jobs: usize, keep: bool) -> Result<OpOut, String>;

    /// Checks the kept op's outputs against references that are not the
    /// code path under test alone.
    fn audit(&mut self, stage: &Stage) -> Audit;

    /// One traced op at `jobs` workers: the op itself inside spans,
    /// then its layers again one by one through the staged replica.
    /// The returned row holds the values spans do not carry.
    fn traced_op(&mut self, stage: &Stage, jobs: usize) -> Result<LayerRow, String>;

    /// Rows measured once per traced pass rather than per op (observer
    /// overhead pairs). Default: none.
    fn traced_extras(&mut self, _stage: &Stage) -> Result<LayerRow, String> {
        Ok(LayerRow::new())
    }
}

/// Every workload with the reason it was chosen (`BENCHMARK.json`'s
/// `why`).
pub const WORKLOADS: [(&str, &str); 4] = [
    ("cold_build", "cold cache-miss path on a 72k-block program: linker and codegen do most of the work, WPA almost none"),
    ("refresh_interproc", "a new profile arrived: inter-procedural Ext-TSP and the dynamic CFG do most of the work, linker and codegen little"),
    ("fleet_drift", "four releases with drift on shared caches: the warm cache-hit path, with sim, profile merge and skew audit doing most of the work"),
    ("serve_mix", "many tiny relink jobs through the service: per-job fixed cost, the event loop and the bounded shared cache dominate"),
];

/// The clang-like program every workload but the fleet (which
/// generates its own) is built from.
pub fn clang(scale: f64, seed: u64) -> GeneratedBenchmark {
    let spec = spec_by_name("clang").expect("clang is a built-in spec");
    let params = GenParams {
        scale,
        seed,
        funcs_per_module: 12,
        entry_points: 4,
    };
    propeller_synth::generate(&spec, &params)
}

/// Generates the workload's inputs. They are pinned, not drawn from
/// the run's `--seed`; `README.md` gives the measurements behind that.
pub fn generate(name: &str) -> Option<Box<dyn Workload>> {
    match name {
        "cold_build" => Some(Box::new(pipeline::Pipeline::cold_build())),
        "refresh_interproc" => Some(Box::new(pipeline::Pipeline::refresh_interproc())),
        "fleet_drift" => Some(Box::new(fleet_drift::FleetDrift::generate())),
        "serve_mix" => Some(Box::new(serve_mix::ServeMix::generate())),
        _ => None,
    }
}
