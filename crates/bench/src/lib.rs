//! Shared experiment harness for regenerating every table and figure
//! of the paper's evaluation (§5). Each artifact is a row of
//! `propeller_cli`'s command table (`src/bin/cli/paper.rs`); this
//! library holds the common machinery: generating a
//! benchmark at a manageable scale, running the full Propeller
//! pipeline, building the BOLT comparator inputs, simulating all
//! binaries under the same workload, and extrapolating memory/time
//! figures back to Table 2 scale.

pub mod runner;
pub mod table;

pub use runner::{run_benchmark, BenchArtifacts, RunConfig};
pub use table::Table;
