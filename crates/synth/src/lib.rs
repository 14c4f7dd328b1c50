//! Synthetic benchmark generation.
//!
//! The paper evaluates Propeller on four warehouse-scale applications
//! (Spanner, Search, Superroot, Bigtable), two open-source workloads
//! (Clang, MySQL) and eight SPEC2017 integer benchmarks. None of those
//! programs can be compiled by this reproduction's toolchain, so this
//! crate generates programs matching their *Table 2 characteristics* —
//! text size, function count, basic block count, cold-object fraction —
//! with realistic structure: lognormal-ish function sizes, loops,
//! biased branches, multi-module layout with wholly-cold modules, a
//! call graph with hot trunks and cold fringes, and exception landing
//! pads.
//!
//! The generated [`propeller_ir::Program`] is deterministic in the
//! seed; [`BenchmarkSpec::default_scale`] shrinks warehouse-scale
//! programs to laptop-friendly sizes while preserving the ratios the
//! experiments depend on (the harness extrapolates memory figures back
//! through the scale factor).

mod gen;
mod mutate;
mod spec;

pub use gen::{generate, GenParams, GeneratedBenchmark};
pub use mutate::{evolve, DriftParams};
pub use spec::{all_specs, spec_by_name, BenchKind, BenchmarkSpec};
