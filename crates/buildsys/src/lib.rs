//! # The distributed build system, simulated
//!
//! Propeller is not a standalone binary rewriter — it is a *relinking*
//! optimizer designed to ride an existing caching, distributed build
//! system (§2.1). That infrastructure is what this crate models:
//!
//! * a content-addressed [`ActionCache`]: artifacts keyed by the hash
//!   of their inputs, so unchanged modules across releases are hits
//!   (the paper's ">90% hit rate" that makes relinking cheap);
//! * an [`Executor`] over a [`MachineConfig`]: admission control
//!   against the per-action memory ceiling (the 12 GB limit that
//!   excludes monolithic rewriters) plus a wall-clock model —
//!   dispatch overhead + critical path when distributed, a serial sum
//!   on a workstation;
//! * the [`cost`] functions turning work sizes into CPU seconds for
//!   the Table 5 / Fig. 9 build-time accounting.
//!
//! # Example
//!
//! ```
//! use propeller_buildsys::{ActionSpec, BuildError, Executor, MachineConfig, GIB};
//! use propeller_telemetry::Telemetry;
//!
//! let tel = Telemetry::disabled();
//! let distributed = Executor::new(MachineConfig::distributed());
//!
//! // Phase-sized actions fit comfortably…
//! let phase = [
//!     ActionSpec::new("codegen m1.cc", 1.4, 2 * GIB),
//!     ActionSpec::new("codegen m2.cc", 0.9, 2 * GIB),
//! ];
//! let (report, _) = distributed.run_phase(&phase, &tel, None).unwrap();
//! assert_eq!(report.num_actions, 2);
//! assert!((report.wall_secs - (2.0 + 1.4)).abs() < 1e-12);
//!
//! // …but a monolithic 36 GiB rewrite is rejected outright.
//! let bolt = ActionSpec::new("llvm-bolt", 600.0, 36 * GIB);
//! assert!(matches!(
//!     distributed.run_phase(std::slice::from_ref(&bolt), &tel, None),
//!     Err(BuildError::ActionOverMemoryLimit { .. })
//! ));
//! ```

mod action;
mod cache;
pub mod cost;
mod error;
mod executor;

pub use action::{ActionSpec, PhaseReport};
pub use cache::{ActionCache, CacheEvent, CacheStats};
pub use error::BuildError;
pub use executor::{
    default_jobs, panic_message, Executor, MachineConfig, PoolStats, ResilienceReport,
    DISPATCH_SECS, MAX_ATTEMPTS,
};

/// One gibibyte, the unit of the paper's per-action memory limits.
pub const GIB: u64 = 1 << 30;
