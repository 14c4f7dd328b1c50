//! # Deterministic fault injection for the Propeller pipeline
//!
//! Propeller's operational pitch (paper §1, §6) is that it lives
//! *inside* the production build system, where stale or truncated LBR
//! profiles, flaky distributed actions, and corrupt or evicted cache
//! entries are routine — and a profile-guided relink must degrade to
//! the baseline binary rather than fail the release. This crate is
//! the chaos half of that contract:
//!
//! * [`FaultPlan`] — a declarative schedule of failure probabilities
//!   (with optional occurrence caps) per [`FaultKind`], parseable
//!   from the CLI `--faults` spec string;
//! * [`FaultInjector`] — a seeded, deterministic decision source
//!   consulted by hooks in `buildsys::Executor`,
//!   `buildsys::ActionCache`, and `profile`; decisions are pure
//!   hashes of `(seed, kind, site, occurrence)`, so chaos runs replay
//!   bit-identically regardless of thread interleaving;
//! * [`RetryPolicy`] — the executor's retry budget and exponential
//!   backoff + jitter, all in modeled (cost-model) seconds;
//! * [`DegradationLedger`] — exact accounting of every degradation
//!   the pipeline performed (retries, cache rebuilds, salvaged
//!   samples, per-object codegen fallbacks, layout mode), flowing
//!   into `PropellerReport`/`RunReport`, telemetry, and the doctor.
//!
//! The crate is a dependency leaf: it knows nothing about the
//! pipeline, only how to schedule faults and count degradations.

mod injector;
mod ledger;
mod plan;
mod service;

pub use injector::{splitmix64, FaultInjector, RetryPolicy};
pub use ledger::{DegradationCounter, DegradationLedger, LayoutMode};
pub use plan::{FaultKind, FaultPlan, FaultPlanParseError, FaultSpec};
pub use service::{ServiceLedger, TenantCounter, TenantLedger};
