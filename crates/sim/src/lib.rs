//! Execution and front-end microarchitecture simulation.
//!
//! This crate stands in for the paper's Intel Skylake testbed plus
//! `linux perf`: it "runs" a linked binary by walking the program's CFG
//! (weighted by branch probabilities) at the *final addresses* the
//! linker assigned, and drives a front-end model — L1i/L2/L3 instruction
//! caches, a two-level iTLB with optional 2 MiB hugepages, a BTB whose
//! misses model branch resteers (`baclears`), and a DSB-style uop-cache
//! proxy. The counters it reports map one-to-one onto the paper's
//! Table 4 events, and its cycle model turns layout quality into the
//! walltime/latency/QPS deltas of Table 3.
//!
//! It also collects Last Branch Record samples exactly the way `perf`
//! does (32-deep taken-branch stacks at a fixed period), producing the
//! [`propeller_profile::HardwareProfile`] that Propeller's Phase 3
//! consumes, and can emit the Figure 7 instruction-access heat maps.
//!
//! Everything is deterministic given the workload seed.

mod attr;
mod cache;
mod config;
mod counters;
mod engine;
mod export;
mod heatmap;
mod image;
mod rng;

pub use attr::{
    AttributedCounters, BlockAttribution, Event, FoldedStacks, SymbolAttribution,
};
pub use cache::SetAssocCache;
pub use config::{CacheConfig, Penalties, TlbConfig, UarchConfig, Workload};
pub use counters::{CounterSet, SimReport};
pub use engine::{collect_profile, simulate, simulate_traced, SimOptions};
pub use export::{heatmap_csv, heatmap_pgm};
pub use heatmap::HeatMap;
pub use image::{ImageError, ProgramImage, SimBlock, SimTerm};
pub use rng::SplitMix64;
