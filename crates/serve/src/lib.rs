//! Relink-as-a-service: a chaos-hardened, multi-tenant relink server.
//!
//! Warehouse Propeller (§5 of the paper) is not a batch tool: the
//! relink step runs as a shared service that many applications'
//! release pipelines hit concurrently. This crate models that service
//! deterministically on top of the real pipeline:
//!
//! - [`traffic`]: a seeded generator producing Zipf-shared multi-tenant
//!   arrivals with bursts, cancellations, and oversize jobs.
//! - [`service`]: the discrete-event scheduler — admission control
//!   against the per-action memory ceiling, bounded queues with
//!   round-robin tenant fairness, deadline timeouts, seeded-jitter
//!   client retry, and the four service-level fault kinds — running
//!   every admitted job through the real 4-phase pipeline against one
//!   shared content-addressed cache.
//! - [`soak`]: the chaos soak matrix proving the two service
//!   contracts: shipped binaries are byte-identical to equivalent
//!   batch runs, and the [`ServiceLedger`] is exact and byte-identical
//!   across `--jobs` counts and replays.
//!
//! Everything scheduled is in modeled sim-seconds — no wall-clock
//! sleeps anywhere — so a traffic run is bit-replayable.

mod service;
mod soak;
pub mod traffic;

pub use service::{
    batch_binary, job_seed, verify_batch, CompletedJob, RelinkService, ServeError, ServeOptions,
    ServiceReport,
};
pub use soak::{run_soak, soak_scenarios, SoakOutcome, SoakScenario};
pub use traffic::{gen_traffic, JobRequest, TrafficConfig};
