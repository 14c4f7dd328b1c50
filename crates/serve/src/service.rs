//! The relink service: a deterministic discrete-event scheduler over
//! real pipeline runs.
//!
//! Time here is modeled sim-seconds (microsecond-granular), never wall
//! clock: arrivals, queue waits, deadlines, retry backoff and slot
//! occupancy all advance a virtual clock, so a traffic run is
//! bit-replayable. The *work* is real — every admitted job executes
//! the full 4-phase pipeline against the shared [`BuildCaches`], with
//! real intra-job parallelism behind the `--jobs` knob — but jobs
//! execute synchronously at their (deterministic) start events, so the
//! shared-cache mutation order is a pure function of the traffic and
//! the service seed.
//!
//! ## Why service binaries are byte-identical to batch runs
//!
//! Each job gets its own pipeline [`FaultInjector`] seeded from
//! `(service seed, tenant, program)` — the same seed an equivalent
//! batch `run` would use. Non-cache fault sites (action names, module
//! names, LBR record indices) therefore roll identically in both
//! worlds. Cache-site rolls *can* differ (the service cache has live
//! entries where a fresh batch cache misses), but cache faults only
//! force rebuilds of content-addressed artifacts whose keys encode
//! their full inputs — the rebuilt bytes are identical, so cache state
//! never changes shipped binaries, only ledger accounting.
//!
//! Cancelled jobs are transactional: they are modeled as holding a
//! slot for part of their estimated duration and publish *nothing* —
//! no cache inserts, no binary — so a cancellation can never leak
//! partial state into other tenants' builds.

use propeller::{BuildCaches, PipelineError, Propeller, PropellerOptions};
use propeller_faults::{
    splitmix64 as mix, DegradationLedger, FaultInjector, FaultKind, FaultPlan, LayoutMode,
    ServiceLedger, TenantCounter, TenantLedger,
};
use propeller_obj::ContentHash;
use propeller_synth::{generate, spec_by_name, BenchmarkSpec, GenParams};
use propeller_telemetry::{Telemetry, TimeSeries, TENANT_LANE_BASE};
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::fmt;

use crate::traffic::JobRequest;

/// Service configuration. Everything that shapes scheduling is in
/// modeled units; `jobs` only widens the intra-job worker pool and
/// never changes any output byte.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Concurrent relink slots.
    pub slots: usize,
    /// Bounded queue capacity (total across tenants).
    pub queue_capacity: usize,
    /// Max modeled seconds an arrival may wait (queue + backoff)
    /// before it starts; older jobs time out at dequeue.
    pub deadline_secs: f64,
    /// Default fault plan for the service scheduler and every job.
    pub faults: FaultPlan,
    /// Per-tenant plan overrides (pipeline kinds — e.g. one tenant
    /// losing 100% of its profile). Service-level kinds always roll
    /// from the default plan's scheduler injector.
    pub tenant_faults: Vec<(u32, FaultPlan)>,
    /// Seed for the scheduler injector and per-job seeds.
    pub seed: u64,
    /// Intra-job worker threads (the pipeline `--jobs` knob).
    pub jobs: usize,
    /// Shared-cache capacity bound (entries per cache; `None` =
    /// unbounded).
    pub cache_capacity: Option<usize>,
    /// Extra arrivals cloned per `burst-amplify` fire.
    pub burst_clones: usize,
    /// Phase 3 profiling block budget per job.
    pub profile_budget: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            slots: 2,
            queue_capacity: 6,
            deadline_secs: 240.0,
            faults: FaultPlan::none(),
            tenant_faults: Vec::new(),
            seed: 0x5E12_51CE,
            jobs: 1,
            cache_capacity: None,
            burst_clones: 2,
            profile_budget: 60_000,
        }
    }
}

/// Client retry budget against queue-full refusals and queue drops,
/// including the first submission.
const RETRY_MAX_ATTEMPTS: u32 = 3;
/// Backoff before the first client retry, modeled seconds.
const RETRY_BASE_SECS: f64 = 2.0;
/// Backoff multiplier per failed attempt.
const RETRY_MULTIPLIER: f64 = 2.0;
/// Jitter fraction: wait is `backoff * (1 + frac * u)`.
const RETRY_JITTER_FRAC: f64 = 0.5;
/// Entries force-evicted per `evict-storm` fire.
const STORM_EVICTIONS: usize = 6;
/// Slot-time estimate for a job cancelled before its tenant ever
/// completed one (modeled seconds).
const DURATION_ESTIMATE_SECS: f64 = 30.0;

/// A job the service ran to completion: everything needed to replay it
/// as an equivalent batch run and compare bytes.
#[derive(Clone, Debug)]
pub struct CompletedJob {
    pub id: u64,
    pub tenant: u32,
    pub program_seed: u64,
    /// The pipeline seed this job (and its batch equivalent) used.
    pub job_seed: u64,
    /// The fault plan in force for this job's pipeline.
    pub plan: FaultPlan,
    /// Content hash over the shipped binary image.
    pub binary_digest: u64,
    /// The shipped binary bytes (small at service scales; kept so the
    /// soak can compare byte-for-byte, not just by digest).
    pub image: Vec<u8>,
    /// Modeled slot seconds the job consumed.
    pub duration_secs: f64,
    /// The job's pipeline degradation ledger.
    pub degradation: DegradationLedger,
}

/// The result of draining a service: the canonical ledger plus the
/// per-job evidence the soak verifies.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    pub ledger: ServiceLedger,
    pub completed: Vec<CompletedJob>,
    /// Exact-accounting violations observed per job (must be empty).
    pub violations: Vec<String>,
}

/// Service errors, with `source()` chains down to the pipeline.
#[derive(Debug)]
pub enum ServeError {
    UnknownBenchmark(String),
    Pipeline { job: u64, tenant: u32, source: PipelineError },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownBenchmark(name) => {
                write!(f, "unknown benchmark {name:?} (try `propeller_cli list`)")
            }
            ServeError::Pipeline { job, tenant, .. } => {
                write!(f, "relink job {job} (tenant t{tenant}) failed in the pipeline")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::UnknownBenchmark(_) => None,
            ServeError::Pipeline { source, .. } => Some(source),
        }
    }
}

/// The per-job pipeline seed: a pure function of the service seed and
/// the job's inputs (tenant, program), NOT of submission order — so
/// repeated relinks of the same inputs are idempotent byte-for-byte,
/// and a batch `run` with this seed reproduces the service's binary.
pub fn job_seed(service_seed: u64, tenant: u32, program_seed: u64) -> u64 {
    mix(service_seed ^ mix(u64::from(tenant) + 1) ^ mix(program_seed))
}

enum Ev {
    Arrive { req: JobRequest, attempt: u32, is_clone: bool, submit_us: u64 },
    Finish,
}

struct Item {
    t_us: u64,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Item {
    fn eq(&self, other: &Self) -> bool {
        self.t_us == other.t_us && self.seq == other.seq
    }
}
impl Eq for Item {}
impl PartialOrd for Item {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Item {
    // Reversed: BinaryHeap is a max-heap, we want earliest-first with
    // FIFO tie-break on push order.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.t_us, other.seq).cmp(&(self.t_us, self.seq))
    }
}

struct Queued {
    req: JobRequest,
    submit_us: u64,
    enqueued_us: u64,
}

/// The long-running multi-tenant relink service.
///
/// Stateful: [`submit`](RelinkService::submit) enqueues arrivals,
/// [`drain`](RelinkService::drain) advances the modeled clock until
/// the event queue is empty, and [`report`](RelinkService::report)
/// assembles the canonical ledger. [`run`](RelinkService::run) is the
/// batch convenience used by the `traffic` subcommand and the soak.
pub struct RelinkService {
    opts: ServeOptions,
    spec: BenchmarkSpec,
    scale: f64,
    caches: BuildCaches,
    /// Scheduler injector for the four service-level kinds; `None`
    /// when the default plan schedules none of them.
    scheduler_inj: Option<FaultInjector>,
    tel: Telemetry,
    heap: BinaryHeap<Item>,
    seq: u64,
    now_us: u64,
    free_slots: usize,
    queues: Vec<VecDeque<Queued>>,
    queued_total: usize,
    rr_next: usize,
    tenants: Vec<TenantLedger>,
    completed: Vec<CompletedJob>,
    violations: Vec<String>,
    /// Last completed duration per (tenant, program) — the estimate
    /// used to model cancelled jobs' slot time.
    durations: HashMap<(u32, u64), f64>,
    next_clone_id: u64,
    makespan_us: u64,
    ceiling_bytes: Option<u64>,
    /// Modeled-clock time series, armed by
    /// [`arm_timeline`](RelinkService::arm_timeline). `None` (the
    /// default) records nothing and changes no output byte.
    timeline: Option<TimeSeries>,
}

impl RelinkService {
    /// Create a service for `benchmark` at `scale` with fresh caches.
    pub fn new(benchmark: &str, scale: f64, opts: ServeOptions) -> Result<Self, ServeError> {
        let spec = spec_by_name(benchmark)
            .ok_or_else(|| ServeError::UnknownBenchmark(benchmark.to_string()))?;
        let scheduler_inj = opts.faults.has_service_faults().then(|| {
            FaultInjector::new(opts.faults.clone(), mix(opts.seed ^ 0x5E12_F417))
        });
        let caches = BuildCaches::new();
        caches.set_capacity(opts.cache_capacity);
        let ceiling_bytes = PropellerOptions::default().machine.ram_limit();
        let tenants_hint = 4;
        Ok(RelinkService {
            free_slots: opts.slots.max(1),
            scheduler_inj,
            caches,
            tel: Telemetry::disabled(),
            heap: BinaryHeap::new(),
            seq: 0,
            now_us: 0,
            queues: Vec::with_capacity(tenants_hint),
            queued_total: 0,
            rr_next: 0,
            tenants: Vec::with_capacity(tenants_hint),
            completed: Vec::new(),
            violations: Vec::new(),
            durations: HashMap::new(),
            next_clone_id: 1 << 32,
            makespan_us: 0,
            ceiling_bytes,
            timeline: None,
            spec,
            scale,
            opts,
        })
    }

    /// Arm the modeled-clock time-series recorder. Every subsequent
    /// scheduling decision records points keyed by sim-microseconds:
    /// per-tenant queue depth, slots in use, admission/rejection
    /// counters, cache hit rate, RSS headroom, and per-tenant
    /// submit-to-publish latency (event series + log2 histogram).
    /// Recording is a pure observer — ledgers, binaries and spans are
    /// byte-identical armed or not — and the recorded series are
    /// byte-identical across `--jobs` counts and replays, because
    /// every recorded value is modeled, never measured.
    pub fn arm_timeline(&mut self) {
        self.timeline = Some(TimeSeries::new());
    }

    /// The armed timeline (`None` unless
    /// [`arm_timeline`](RelinkService::arm_timeline) was called).
    pub fn timeline(&self) -> Option<&TimeSeries> {
        self.timeline.as_ref()
    }

    /// Books one `counter` event of `tenant` at `t_us`: the tenant's
    /// ledger row and, on the armed timeline, the cumulative series
    /// `{series}.t{tenant}` — the counter's table note, else its name.
    fn book(&mut self, tenant: u32, counter: TenantCounter, t_us: u64) {
        self.tenant_mut(tenant).bump(counter);
        if let Some(ts) = self.timeline.as_mut() {
            let series = counter.series().unwrap_or(counter.name());
            ts.counter_add(&format!("{series}.t{tenant}"), t_us, 1.0);
        }
    }

    /// Records the per-tenant and total queue-depth gauges after a
    /// queue mutation.
    fn tl_queue_depth(&mut self, tenant: u32, t_us: u64) {
        let depth = self.queues.get(tenant as usize).map_or(0, VecDeque::len) as f64;
        let total = self.queued_total as f64;
        if let Some(ts) = self.timeline.as_mut() {
            ts.gauge(&format!("queue_depth.t{tenant}"), t_us, depth);
            ts.gauge("queue_depth.total", t_us, total);
        }
    }

    /// Records the slots-in-use gauge at `t_us`.
    fn tl_slots(&mut self, t_us: u64) {
        let in_use = (self.opts.slots.max(1) - self.free_slots) as f64;
        if let Some(ts) = self.timeline.as_mut() {
            ts.gauge("slots_in_use", t_us, in_use);
        }
    }

    /// Attach a telemetry handle; each job then records one span in a
    /// per-tenant Chrome-trace lane.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// The telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// The shared caches (tests inspect per-tenant accounting).
    pub fn caches(&self) -> &BuildCaches {
        &self.caches
    }

    fn tenant_mut(&mut self, tenant: u32) -> &mut TenantLedger {
        let idx = tenant as usize;
        while self.tenants.len() <= idx {
            self.tenants.push(TenantLedger::default());
            self.queues.push(VecDeque::new());
        }
        &mut self.tenants[idx]
    }

    fn push_event(&mut self, t_us: u64, ev: Ev) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Item { t_us, seq, ev });
    }

    /// Submit one arrival. Its `arrival_us` must not precede the
    /// modeled clock (it is clamped forward if it does, so incremental
    /// REPL submissions after a drain stay monotonic).
    pub fn submit(&mut self, req: JobRequest) {
        let t = req.arrival_us.max(self.now_us);
        self.book(req.tenant, TenantCounter::Submitted, t);
        self.push_event(t, Ev::Arrive { submit_us: t, req, attempt: 0, is_clone: false });
    }

    /// The plan in force for `tenant`'s pipeline jobs.
    fn plan_for(&self, tenant: u32) -> FaultPlan {
        self.opts
            .tenant_faults
            .iter()
            .find(|(t, _)| *t == tenant)
            .map(|(_, p)| p.clone())
            .unwrap_or_else(|| self.opts.faults.clone())
    }

    /// Process events until the modeled timeline is empty.
    pub fn drain(&mut self) -> Result<(), ServeError> {
        while let Some(item) = self.heap.pop() {
            self.now_us = self.now_us.max(item.t_us);
            self.makespan_us = self.makespan_us.max(self.now_us);
            match item.ev {
                Ev::Arrive { req, attempt, is_clone, submit_us } => {
                    self.on_arrive(req, attempt, is_clone, submit_us)?;
                }
                Ev::Finish => {
                    self.free_slots += 1;
                    let now = self.now_us;
                    self.tl_slots(now);
                    self.fill_slots()?;
                }
            }
        }
        Ok(())
    }

    fn on_arrive(
        &mut self,
        req: JobRequest,
        attempt: u32,
        is_clone: bool,
        submit_us: u64,
    ) -> Result<(), ServeError> {
        let now = self.now_us;
        // Burst amplification rolls once per original arrival, before
        // admission, so even a rejected arrival can amplify.
        if attempt == 0 && !is_clone {
            let fires = self
                .scheduler_inj
                .as_ref()
                .is_some_and(|inj|

                    inj.fires(FaultKind::TenantBurstAmplification, &format!("arrive j{}", req.id)));
            if fires {
                for k in 0..self.opts.burst_clones {
                    let clone_id = self.next_clone_id;
                    self.next_clone_id += 1;
                    let t = now + (k as u64 + 1) * 100_000;
                    let clone = JobRequest {
                        id: clone_id,
                        arrival_us: t,
                        cancel_after_secs: None,
                        ..req.clone()
                    };
                    self.book(req.tenant, TenantCounter::BurstClones, t);
                    self.push_event(t, Ev::Arrive {
                        submit_us: t,
                        req: clone,
                        attempt: 0,
                        is_clone: true,
                    });
                }
            }
        }
        // Admission control: a job whose declared footprint cannot fit
        // under the per-action memory ceiling is refused outright — a
        // warehouse build scheduler never starts work it knows must
        // die.
        if let Some(ceiling) = self.ceiling_bytes {
            if req.declared_peak_bytes > ceiling {
                self.book(req.tenant, TenantCounter::RejectedMemory, now);
                return Ok(());
            }
        }
        if self.free_slots > 0 {
            self.free_slots -= 1;
            self.start_job(req, submit_us)?;
            return Ok(());
        }
        if self.queued_total < self.opts.queue_capacity {
            // `drop-queue` models the queue losing the entry before it
            // is ever scheduled; the client observes the loss exactly
            // like a refusal and retries with backoff.
            let dropped = self.scheduler_inj.as_ref().is_some_and(|inj| {
                inj.fires(FaultKind::QueueDrop, &format!("enqueue j{}#a{attempt}", req.id))
            });
            if !dropped {
                let tenant = req.tenant;
                self.tenant_mut(tenant); // ensure the queue row exists
                self.queues[tenant as usize].push_back(Queued {
                    req,
                    submit_us,
                    enqueued_us: self.now_us,
                });
                self.queued_total += 1;
                self.tl_queue_depth(tenant, now);
                return Ok(());
            }
            self.book(req.tenant, TenantCounter::QueueDrops, now);
        }
        // Queue full (or the enqueue was dropped): client-side retry
        // with seeded-jitter exponential backoff, all modeled.
        if attempt + 1 < RETRY_MAX_ATTEMPTS {
            let base = RETRY_BASE_SECS * RETRY_MULTIPLIER.powi(attempt as i32);
            let u = match &self.scheduler_inj {
                Some(inj) => inj.unit(&format!("backoff j{}", req.id), u64::from(attempt)),
                None => crate::traffic::unit_f64(mix(
                    self.opts.seed ^ mix(req.id + 0xBACC) ^ mix(u64::from(attempt) + 1),
                )),
            };
            let backoff = base * (1.0 + RETRY_JITTER_FRAC * u);
            self.book(req.tenant, TenantCounter::Retries, now);
            self.tenant_mut(req.tenant).retry_backoff_secs += backoff;
            let t = self.now_us + (backoff * 1e6) as u64;
            self.push_event(t, Ev::Arrive { submit_us, req, attempt: attempt + 1, is_clone });
        } else {
            self.book(req.tenant, TenantCounter::RejectedQueue, now);
        }
        Ok(())
    }

    /// A slot became free: pull queued jobs round-robin across tenants
    /// until slots are full or every queue is empty. Fairness is by
    /// tenant, not arrival order — a hot tenant cannot starve the
    /// tail.
    fn fill_slots(&mut self) -> Result<(), ServeError> {
        while self.free_slots > 0 && self.queued_total > 0 {
            let n = self.queues.len();
            let mut picked = None;
            for off in 0..n {
                let t = (self.rr_next + off) % n;
                if let Some(q) = self.queues[t].pop_front() {
                    self.queued_total -= 1;
                    self.rr_next = (t + 1) % n;
                    picked = Some(q);
                    break;
                }
            }
            let Some(q) = picked else { break };
            let now = self.now_us;
            self.tl_queue_depth(q.req.tenant, now);
            let wait = (self.now_us - q.enqueued_us) as f64 / 1e6;
            self.tenants[q.req.tenant as usize].queue_wait_secs += wait;
            // Deadline: measured from the original submit, so backoff
            // spent retrying counts against it too.
            let age = (self.now_us.saturating_sub(q.submit_us)) as f64 / 1e6;
            if age > self.opts.deadline_secs {
                self.book(q.req.tenant, TenantCounter::DeadlineTimeouts, now);
                continue;
            }
            // Cancelled while queued: the owner gave up before a slot
            // opened.
            if let Some(c) = q.req.cancel_after_secs {
                if q.submit_us + (c * 1e6) as u64 <= self.now_us {
                    self.book(q.req.tenant, TenantCounter::CancelledByClient, now);
                    continue;
                }
            }
            self.free_slots -= 1;
            self.start_job(q.req, q.submit_us)?;
        }
        Ok(())
    }

    /// Occupy a slot with `req` at the current modeled time. The slot
    /// is already debited by the caller.
    fn start_job(&mut self, req: JobRequest, submit_us: u64) -> Result<(), ServeError> {
        let now = self.now_us;
        let tenant = req.tenant;
        self.book(tenant, TenantCounter::Admitted, now);
        self.tl_slots(now);
        let est = self
            .durations
            .get(&(tenant, req.program_seed))
            .copied()
            .unwrap_or(DURATION_ESTIMATE_SECS);
        // Fault-driven cancellation: the owner kills the job mid
        // flight. Transactional — nothing is published, the slot frees
        // at the modeled cancel instant.
        let fault_cancel = self.scheduler_inj.as_ref().is_some_and(|inj| {
            inj.fires(FaultKind::JobCancellation, &format!("start j{}", req.id))
        });
        if fault_cancel {
            let frac = 0.25
                + 0.5
                    * self
                        .scheduler_inj
                        .as_ref()
                        .map(|inj| inj.unit(&format!("cancel j{}", req.id), 1))
                        .unwrap_or(0.5);
            let held = est * frac;
            self.book(tenant, TenantCounter::CancelledByFault, now);
            self.tenant_mut(tenant).busy_secs += held;
            self.push_event(now + (held * 1e6) as u64, Ev::Finish);
            return Ok(());
        }
        // Client cancellation landing mid-flight (it would have been
        // caught at dequeue if it had already passed).
        if let Some(c) = req.cancel_after_secs {
            let cancel_abs = submit_us + (c * 1e6) as u64;
            if cancel_abs <= now + (est * 1e6) as u64 {
                let held = (cancel_abs.saturating_sub(now)) as f64 / 1e6;
                self.book(tenant, TenantCounter::CancelledByClient, now);
                self.tenant_mut(tenant).busy_secs += held;
                self.push_event(cancel_abs.max(now), Ev::Finish);
                return Ok(());
            }
        }
        // Cache-pressure eviction storm, rolled at job start so the
        // storm hits the cache state this job is about to read.
        let storm = self.scheduler_inj.as_ref().is_some_and(|inj| {
            inj.fires(FaultKind::CacheEvictionStorm, &format!("storm j{}", req.id))
        });
        if storm {
            let evicted = self.caches.evict_oldest_objects(STORM_EVICTIONS);
            let row = self.tenant_mut(tenant);
            row.eviction_storms += 1;
            row.storm_evicted_entries += evicted;
        }
        // The real work: a full 4-phase pipeline run against the
        // shared caches, attributed to this tenant. Synchronous at the
        // start event — event order IS execution order, which is what
        // keeps shared-cache mutation deterministic.
        let plan = self.plan_for(tenant);
        let seed = job_seed(self.opts.seed, tenant, req.program_seed);
        self.caches.set_tenant(tenant);
        let (pipeline, image) = relink(
            &self.spec,
            self.scale,
            (req.program_seed, &plan, seed),
            self.opts.jobs,
            self.opts.profile_budget,
            self.caches.clone(),
        )
        .map_err(|source| ServeError::Pipeline { job: req.id, tenant, source })?;
        let duration = pipeline.times().total_wall_secs();
        let peak = [
            pipeline.times().phase1.max_action_memory,
            pipeline.times().phase2.max_action_memory,
            pipeline.times().phase3.max_action_memory,
            pipeline.times().phase4.max_action_memory,
        ]
        .into_iter()
        .max()
        .unwrap_or(0);
        let ledger = pipeline.degradation().clone();
        // Exact accounting per job: everything the job's injector
        // fired must be booked in its ledger, one-for-one.
        if let Some(inj) = pipeline.fault_injector() {
            let job = req.id;
            let unbooked = ledger.unbooked_faults(inj).into_iter();
            self.violations.extend(unbooked.map(|what| format!("job {job} (t{tenant}): {what}")));
        }
        let digest = ContentHash::of_bytes(&image).0;
        // Publish-time observability: the job's completion and latency
        // are stamped at the modeled publish instant (submit + queue +
        // run), not at the start event — `Point.seq` keeps the export
        // order canonical even though publish lies in the scheduler's
        // future.
        let publish_us = now + (duration * 1e6) as u64;
        self.book(tenant, TenantCounter::Completed, publish_us);
        let row = self.tenant_mut(tenant);
        row.busy_secs += duration;
        if !ledger.is_clean() {
            row.degraded_jobs += 1;
        }
        if ledger.layout_mode == LayoutMode::IdentityFallback {
            row.identity_fallbacks += 1;
        }
        row.degradation.absorb(&ledger);
        self.durations.insert((tenant, req.program_seed), duration);
        let ir = self.caches.tenant_ir_stats(tenant);
        let obj = self.caches.tenant_object_stats(tenant);
        let ceiling = self.ceiling_bytes;
        if let Some(ts) = self.timeline.as_mut() {
            let latency_ms = (publish_us.saturating_sub(submit_us)) as f64 / 1e3;
            ts.event(&format!("latency_ms.t{tenant}"), publish_us, latency_ms);
            let lookups = ir.lookups + obj.lookups;
            if lookups > 0 {
                let rate = (ir.hits + obj.hits) as f64 / lookups as f64;
                ts.gauge(&format!("cache_hit_rate.t{tenant}"), now, rate);
            }
            if let Some(ceiling) = ceiling {
                let headroom = ceiling.saturating_sub(peak) as f64 / (1u64 << 30) as f64;
                ts.event("rss_headroom_gb", now, headroom);
            }
        }
        // One span per job in the tenant's Chrome-trace lane —
        // namespaced above the buildsys worker band so tenant t never
        // shares a tid with pipeline worker t+1.
        if self.tel.is_enabled() {
            self.tel.with_worker(TENANT_LANE_BASE + u64::from(tenant), || {
                self.tel.emit_span(format!("t{tenant}/job{}", req.id), None, duration, peak)
            });
        }
        self.completed.push(CompletedJob {
            id: req.id,
            tenant,
            program_seed: req.program_seed,
            job_seed: seed,
            plan,
            binary_digest: digest,
            image,
            duration_secs: duration,
            degradation: ledger,
        });
        self.push_event(now + (duration * 1e6) as u64, Ev::Finish);
        Ok(())
    }

    /// Fired counts of the scheduler injector (exact-accounting gate).
    pub fn scheduler_fired(&self, kind: FaultKind) -> u64 {
        self.scheduler_inj.as_ref().map_or(0, |inj| inj.fired(kind))
    }

    /// Assemble the canonical ledger and evidence from the drained
    /// service. Per-tenant cache counters are read from the shared
    /// caches' per-owner accounting at this point.
    pub fn report(&self) -> ServiceReport {
        let mut ledger = ServiceLedger {
            benchmark: self.spec.name.to_string(),
            seed: self.opts.seed,
            plan: self.opts.faults.to_spec_string(),
            slots: self.opts.slots as u64,
            queue_capacity: self.opts.queue_capacity as u64,
            deadline_secs: self.opts.deadline_secs,
            makespan_secs: self.makespan_us as f64 / 1e6,
            tenants: Default::default(),
        };
        for (i, row) in self.tenants.iter().enumerate() {
            let t = i as u32;
            let mut row = row.clone();
            let ir = self.caches.tenant_ir_stats(t);
            let obj = self.caches.tenant_object_stats(t);
            row.cache_lookups = ir.lookups + obj.lookups;
            row.cache_hits = ir.hits + obj.hits;
            row.cache_misses = ir.misses + obj.misses;
            row.cache_insertions = ir.insertions + obj.insertions;
            row.pressure_evictions = self.caches.tenant_pressure_evictions(t);
            ledger.tenants.insert(format!("t{i}"), row);
        }
        ServiceReport {
            ledger,
            completed: self.completed.clone(),
            violations: self.violations.clone(),
        }
    }

    /// Submit a whole traffic plan and drain it — the `traffic`
    /// subcommand and the soak matrix.
    pub fn run(&mut self, traffic: &[JobRequest]) -> Result<ServiceReport, ServeError> {
        for req in traffic {
            self.submit(req.clone());
        }
        self.drain()?;
        Ok(self.report())
    }
}

/// Run the equivalent *batch* relink of one service job: fresh caches,
/// same program, same plan, same seed. The returned image must be
/// byte-identical to the service's — that is the core service
/// correctness contract.
pub fn batch_binary(
    benchmark: &str,
    scale: f64,
    job: &CompletedJob,
    jobs: usize,
    profile_budget: u64,
) -> Result<Vec<u8>, ServeError> {
    let spec = spec_by_name(benchmark)
        .ok_or_else(|| ServeError::UnknownBenchmark(benchmark.to_string()))?;
    let what = (job.program_seed, &job.plan, job.job_seed);
    relink(&spec, scale, what, jobs, profile_budget, BuildCaches::new())
        .map(|(_, image)| image)
        .map_err(|source| ServeError::Pipeline { job: job.id, tenant: job.tenant, source })
}

/// Batch equivalence over a drained service: one [`batch_binary`] per
/// distinct completed-job signature `(tenant, program, job seed, plan)`,
/// which every same-signature job's shipped bytes must equal. Returns
/// the number of signatures verified and the jobs that diverged, in
/// signature order.
pub fn verify_batch<'r>(
    benchmark: &str,
    scale: f64,
    profile_budget: u64,
    report: &'r ServiceReport,
) -> Result<(usize, Vec<&'r CompletedJob>), ServeError> {
    let mut by_sig: BTreeMap<_, Vec<&CompletedJob>> = BTreeMap::new();
    for job in &report.completed {
        let sig = (job.tenant, job.program_seed, job.job_seed, job.plan.to_spec_string());
        by_sig.entry(sig).or_default().push(job);
    }
    let mut divergent = Vec::new();
    for jobs_of_sig in by_sig.values() {
        let batch = batch_binary(benchmark, scale, jobs_of_sig[0], 1, profile_budget)?;
        divergent.extend(jobs_of_sig.iter().filter(|job| job.image != batch));
    }
    Ok((by_sig.len(), divergent))
}

/// One relink, the same in the service and in batch: the program
/// `program_seed` generates, through all four phases against `caches`
/// under `plan` and pipeline seed `seed`. Returns the finished pipeline
/// and the shipped image.
fn relink(
    spec: &BenchmarkSpec,
    scale: f64,
    (program_seed, plan, seed): (u64, &FaultPlan, u64),
    jobs: usize,
    profile_budget: u64,
    caches: BuildCaches,
) -> Result<(Propeller, Vec<u8>), PipelineError> {
    let params = GenParams { scale, seed: program_seed, ..GenParams::for_spec(spec) };
    let gen = generate(spec, &params);
    let opts = PropellerOptions {
        faults: plan.clone(),
        seed,
        jobs,
        profile_budget,
        ..PropellerOptions::default()
    };
    let mut pipeline = Propeller::with_caches(gen.program, gen.entries, opts, caches);
    pipeline.run_all()?;
    let shipped = pipeline.po_binary().ok_or(PipelineError::PhaseOrder { needs: "phase 4" })?;
    let image = shipped.image.clone();
    Ok((pipeline, image))
}
