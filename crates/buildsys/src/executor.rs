//! The phase executor: admission control, a wall-clock model for
//! distributed and workstation builds, and a deterministic local
//! worker pool that executes the real work behind the modeled actions.

use crate::{ActionSpec, BuildError, PhaseReport, GIB};
use propeller_faults::{FaultInjector, FaultKind};
use propeller_telemetry::{SpanId, Telemetry};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// The default worker count: one per available hardware thread. Probed
/// once per process — the probe reads cgroup files, and every pipeline
/// asks.
pub fn default_jobs() -> usize {
    static JOBS: OnceLock<usize> = OnceLock::new();
    *JOBS.get_or_init(|| std::thread::available_parallelism().map_or(4, |n| n.get()))
}

/// Total attempts per action, including the first. The final budgeted
/// attempt of a *transient* failure always succeeds (modeling a
/// reschedule onto a healthy worker), so only
/// [`FaultKind::PermanentCodegenFailure`] can exhaust the budget.
pub const MAX_ATTEMPTS: u32 = 4;
/// Backoff before the first retry, in modeled seconds.
const BASE_BACKOFF_SECS: f64 = 0.5;
/// Multiplier applied to the backoff after each failed attempt.
const BACKOFF_MULTIPLIER: f64 = 2.0;
/// Jitter as a fraction of the backoff: the modeled wait is
/// `backoff * (1 + JITTER_FRAC * u)` with `u` uniform in `[0, 1)`.
const JITTER_FRAC: f64 = 0.5;
/// Modeled seconds a hung action burns before the executor gives up on
/// it and reschedules.
const TIMEOUT_SECS: f64 = 30.0;
/// Scheduler dispatch overhead added to each distributed phase's
/// wall-clock, in modeled seconds.
pub const DISPATCH_SECS: f64 = 2.0;

/// Modeled backoff (with deterministic jitter) after failed attempt
/// number `attempt` (0-based) of the action named `key`.
fn backoff_secs(inj: &FaultInjector, key: &str, attempt: u32) -> f64 {
    let base = BASE_BACKOFF_SECS * BACKOFF_MULTIPLIER.powi(attempt as i32);
    base * (1.0 + JITTER_FRAC * inj.unit(key, u64::from(attempt)))
}

/// Best-effort extraction of a panic payload's message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Where a build's actions run.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum MachineConfig {
    /// The warehouse distributed build system (§2.1): effectively
    /// unbounded independent workers, one action per worker, but a
    /// hard per-action memory ceiling and a fixed scheduling/dispatch
    /// overhead per phase ([`DISPATCH_SECS`]).
    Distributed {
        /// Per-action peak-RSS limit in bytes (the paper's 12 GB).
        ram_limit: u64,
    },
    /// A single developer workstation: actions run back to back on one
    /// machine, with no per-action admission limit (this is where
    /// monolithic tools like BOLT live).
    Workstation,
}

impl MachineConfig {
    /// The default distributed build: 12 GiB per-action limit.
    pub fn distributed() -> Self {
        MachineConfig::Distributed { ram_limit: 12 * GIB }
    }

    /// A workstation build.
    pub fn workstation() -> Self {
        MachineConfig::Workstation
    }

    /// The per-action memory limit, if this machine enforces one.
    pub fn ram_limit(&self) -> Option<u64> {
        match self {
            MachineConfig::Distributed { ram_limit } => Some(*ram_limit),
            MachineConfig::Workstation => None,
        }
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::distributed()
    }
}

/// Runs phases of independent actions on a [`MachineConfig`].
///
/// The executor does two things: *admission control* (every action's
/// declared peak RSS is checked against the machine's per-action
/// limit before anything is scheduled) and *time accounting*. Actions
/// handed to one [`run_phase`](Executor::run_phase) call are
/// independent by construction — the pipeline only batches actions
/// with no mutual data dependencies — so the distributed critical
/// path is the single longest action.
#[derive(Clone, Debug)]
pub struct Executor {
    machine: MachineConfig,
    /// When present, scheduled faults
    /// ([transient failures](FaultKind::TransientActionFailure) and
    /// [timeouts](FaultKind::ActionTimeout)) hit actions run through
    /// [`run_phase`](Executor::run_phase), which retries them.
    faults: Option<Arc<FaultInjector>>,
    /// Local worker-pool width for [`execute_indexed`]
    /// (Executor::execute_indexed). `1` runs everything on the calling
    /// thread; the default is one worker per hardware thread.
    jobs: usize,
}

/// Measured timing of one [`Executor::execute_indexed`] batch: real
/// wall microseconds end to end, and useful-work microseconds summed
/// across workers. Feeds [`PhaseReport::wall_us`] / `busy_us`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PoolStats {
    /// Wall-clock microseconds for the whole batch.
    pub wall_us: u64,
    /// Work microseconds summed over all workers.
    pub busy_us: u64,
}

/// Per-phase retry accounting from one [`Executor::run_phase`],
/// feeding the degradation ledger. All-zero when no fault fired.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ResilienceReport {
    /// Attempts that failed transiently and were retried.
    pub retries: u64,
    /// Attempts that hit the modeled timeout deadline.
    pub timeouts: u64,
    /// Modeled seconds spent waiting in backoff (incl. jitter).
    pub backoff_secs: f64,
}

impl Executor {
    /// Creates an executor for `machine` with no fault injection and
    /// the default worker-pool width ([`default_jobs`]).
    pub fn new(machine: MachineConfig) -> Self {
        Executor {
            machine,
            faults: None,
            jobs: default_jobs(),
        }
    }

    /// Attaches a fault injector whose faults
    /// [`run_phase`](Executor::run_phase) absorbs by retrying.
    pub fn with_faults(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Sets the local worker-pool width (`--jobs`). `1` runs every item
    /// on the calling thread; values are clamped to at least 1.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// The configured worker-pool width.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `f` over every item on the worker pool and returns the
    /// results **in item order**, bit-identically to a serial loop.
    ///
    /// Determinism contract: `f(worker, index, &item)` must be a pure
    /// function of `(index, item)` — the `worker` argument is a lane id
    /// for telemetry only. Lanes pull indices from a shared cursor
    /// (dynamic load balancing), write each result into its slot, and
    /// the slots are read back in index order; result order, and
    /// therefore every downstream fold over the results, is independent
    /// of thread interleaving. The calling thread is lane 0; lanes 1..
    /// are spawned only when `jobs` and the item count both exceed one,
    /// so `jobs == 1` (or one item) runs everything on the caller.
    ///
    /// # Errors
    ///
    /// A panic inside `f` is caught where it happens and the
    /// *lowest-index* panic surfaces as [`BuildError::WorkerPanicked`]
    /// — a typed error, never a hang or a propagated unwind. The lanes
    /// keep draining past a panic, so the remaining items still run.
    pub fn execute_indexed<T, R, F>(
        &self,
        what: &str,
        items: &[T],
        f: F,
    ) -> Result<(Vec<R>, PoolStats), BuildError>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, usize, &T) -> R + Sync,
    {
        let start = Instant::now();
        let workers = self.jobs.min(items.len()).max(1);
        let next = AtomicUsize::new(0);
        let busy = AtomicU64::new(0);
        let slots: parking_lot::Mutex<Vec<Option<std::thread::Result<R>>>> =
            parking_lot::Mutex::new((0..items.len()).map(|_| None).collect());
        let lane = |w: usize| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            let t0 = Instant::now();
            // Catch the unwind *inside* the lane: a panicking closure
            // must not take the scope (and the caller) down with it, and
            // the other lanes keep draining.
            let r = std::panic::catch_unwind(AssertUnwindSafe(|| f(w, i, item)));
            busy.fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
            slots.lock()[i] = Some(r);
        };
        let lane = &lane;
        crossbeam::thread::scope(|s| {
            for w in 1..workers {
                s.spawn(move |_| lane(w));
            }
            lane(0);
        })
        .expect("pool workers catch their own panics");

        let mut out = Vec::with_capacity(items.len());
        for (i, slot) in slots.into_inner().into_iter().enumerate() {
            match slot {
                Some(Ok(v)) => out.push(v),
                Some(Err(payload)) => {
                    return Err(BuildError::WorkerPanicked {
                        what: what.to_string(),
                        message: panic_message(&*payload),
                    })
                }
                None => {
                    return Err(BuildError::WorkerPanicked {
                        what: what.to_string(),
                        message: format!("slot {i} left unfilled"),
                    })
                }
            }
        }
        let stats = PoolStats {
            wall_us: start.elapsed().as_micros() as u64,
            busy_us: busy.into_inner(),
        };
        Ok((out, stats))
    }

    /// Executes one phase of independent actions: admission control,
    /// then each action's modeled worker timeline (failed attempts +
    /// backoffs + the final successful run), then the wall-clock
    /// formula.
    ///
    /// Wall-clock:
    /// * distributed — [`DISPATCH_SECS`] `+ max(action latency)`: every
    ///   action gets its own worker, so the phase takes as long as its
    ///   longest action, plus the scheduler overhead;
    /// * workstation — `sum(action latency)`: serial execution.
    ///
    /// An empty phase (everything was a cache hit) costs nothing.
    ///
    /// Telemetry: one span per action under `parent`. Actions here are
    /// *modeled* — their cost lives in the cost model, not in local
    /// wall-clock — so each span is emitted with zero wall duration,
    /// its modeled latency as simulated time, and its declared peak
    /// RSS. The phase's wall-clock (dispatch + critical path, or serial
    /// sum) stays on the `parent` span the caller owns.
    ///
    /// Fault absorption: transient failures and timeouts scheduled by
    /// the attached injector are retried up to [`MAX_ATTEMPTS`] times, with
    /// exponential backoff + deterministic jitter charged in *modeled*
    /// seconds (nothing sleeps). Faults only roll on attempts that
    /// still have retry budget left, so the final budgeted attempt of a
    /// flaky action always succeeds — modeling the build system
    /// reassigning the action to a healthy worker. Failed attempts burn
    /// their full modeled cost (the action's CPU seconds for a
    /// transient crash, the timeout deadline for a hang), and each
    /// retry waits out a backoff; all of it lands in the phase's
    /// wall/CPU accounting, so chaos shows up in Table-5-style numbers
    /// instead of being free.
    ///
    /// Without an injector (or with an empty plan) no attempt can fail,
    /// so every action's latency is exactly its CPU seconds and the
    /// [`ResilienceReport`] stays zero — the guarantee behind
    /// "zero-fault runs are bit-identical".
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::ActionOverMemoryLimit`] if any action's
    /// declared peak RSS exceeds the distributed per-action limit; no
    /// action of the phase runs in that case.
    pub fn run_phase(
        &self,
        actions: &[ActionSpec],
        tel: &Telemetry,
        parent: Option<SpanId>,
    ) -> Result<(PhaseReport, ResilienceReport), BuildError> {
        // An over-limit action is a plan error, not a fault to retry.
        if let Some(limit) = self.machine.ram_limit() {
            if let Some(over) = actions.iter().find(|a| a.peak_rss_bytes > limit) {
                return Err(BuildError::ActionOverMemoryLimit {
                    action: over.name.clone(),
                    needed_bytes: over.peak_rss_bytes,
                    limit_bytes: limit,
                });
            }
        }
        if actions.is_empty() {
            return Ok((PhaseReport::default(), ResilienceReport::default()));
        }
        let inj = self.faults.as_deref().filter(|inj| !inj.plan().is_none());
        let mut res = ResilienceReport::default();
        let mut cpu_secs = 0.0f64;
        let mut critical_path = 0.0f64;
        let mut serial_latency = 0.0f64;
        for a in actions {
            let mut work = 0.0f64; // CPU the attempts burned
            let mut waited = 0.0f64; // backoff between attempts
            let mut attempt: u32 = 0;
            // Roll order is fixed (hang before crash) and rolls only
            // happen while budget remains, so every fired fault is
            // observed and retried exactly once.
            while let Some(inj) = inj.filter(|_| attempt + 1 < MAX_ATTEMPTS) {
                if inj.fires(FaultKind::ActionTimeout, &a.name) {
                    work += TIMEOUT_SECS;
                    res.timeouts += 1;
                } else if inj.fires(FaultKind::TransientActionFailure, &a.name) {
                    work += a.cpu_secs;
                    res.retries += 1;
                } else {
                    break;
                }
                let backoff = backoff_secs(inj, &a.name, attempt);
                waited += backoff;
                res.backoff_secs += backoff;
                attempt += 1;
            }
            work += a.cpu_secs;
            let latency = work + waited;
            cpu_secs += work;
            critical_path = critical_path.max(latency);
            serial_latency += latency;
            if tel.is_enabled() {
                tel.emit_span(format!("action:{}", a.name), parent, latency, a.peak_rss_bytes);
                tel.observe("executor.action_rss_bytes", a.peak_rss_bytes as f64);
            }
        }
        let wall_secs = match self.machine {
            MachineConfig::Distributed { .. } => DISPATCH_SECS + critical_path,
            MachineConfig::Workstation => serial_latency,
        };
        let report = PhaseReport {
            wall_secs,
            cpu_secs,
            num_actions: actions.len(),
            max_action_memory: actions.iter().map(|a| a.peak_rss_bytes).max().unwrap_or(0),
            // Modeled phases execute nothing locally; measured timing
            // is merged in by callers that ran real work on the pool.
            wall_us: 0,
            busy_us: 0,
        };
        if tel.is_enabled() {
            tel.counter_add("executor.actions", actions.len() as u64);
            tel.gauge_max("executor.max_action_rss_bytes", report.max_action_memory as f64);
            if res.retries > 0 {
                tel.counter_add("executor.action_retries", res.retries);
            }
            if res.timeouts > 0 {
                tel.counter_add("executor.action_timeouts", res.timeouts);
            }
        }
        Ok((report, res))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase() -> Vec<ActionSpec> {
        vec![
            ActionSpec::new("a", 1.0, 100),
            ActionSpec::new("b", 4.0, 300),
            ActionSpec::new("c", 2.0, 200),
        ]
    }

    #[test]
    fn distributed_wall_is_dispatch_plus_critical_path() {
        let ex = Executor::new(MachineConfig::Distributed { ram_limit: GIB });
        let (r, _) = ex.run_phase(&phase(), &Telemetry::disabled(), None).unwrap();
        assert!((r.wall_secs - (DISPATCH_SECS + 4.0)).abs() < 1e-12, "dispatch + max(1,4,2)");
        assert!((r.cpu_secs - 7.0).abs() < 1e-12);
        assert_eq!(r.num_actions, 3);
        assert_eq!(r.max_action_memory, 300);
    }

    #[test]
    fn workstation_wall_is_serial_sum() {
        let ex = Executor::new(MachineConfig::workstation());
        let (r, _) = ex.run_phase(&phase(), &Telemetry::disabled(), None).unwrap();
        assert!((r.wall_secs - 7.0).abs() < 1e-12, "1 + 4 + 2 serially");
    }

    #[test]
    fn empty_phase_is_free() {
        let ex = Executor::new(MachineConfig::distributed());
        let (r, _) = ex.run_phase(&[], &Telemetry::disabled(), None).unwrap();
        assert_eq!(r, PhaseReport::default());
    }

    #[test]
    fn distributed_rejects_over_limit_action() {
        let ex = Executor::new(MachineConfig::distributed());
        let err = ex
            .run_phase(
                &[
                    ActionSpec::new("ok", 1.0, GIB),
                    ActionSpec::new("llvm-bolt", 600.0, 36 * GIB),
                ],
                &Telemetry::disabled(),
                None,
            )
            .unwrap_err();
        assert_eq!(
            err,
            BuildError::ActionOverMemoryLimit {
                action: "llvm-bolt".into(),
                needed_bytes: 36 * GIB,
                limit_bytes: 12 * GIB,
            }
        );
    }

    #[test]
    fn workstation_admits_any_size() {
        let ex = Executor::new(MachineConfig::workstation());
        let (r, _) = ex
            .run_phase(
                &[ActionSpec::new("llvm-bolt", 600.0, 36 * GIB)],
                &Telemetry::disabled(),
                None,
            )
            .unwrap();
        assert_eq!(r.max_action_memory, 36 * GIB);
    }

    #[test]
    fn traced_phase_emits_one_span_per_action() {
        let tel = Telemetry::enabled();
        let ex = Executor::new(MachineConfig::distributed());
        let parent = {
            let phase_span = tel.span("phase");
            ex.run_phase(&phase(), &tel, phase_span.id()).unwrap();
            phase_span.id().unwrap()
        };
        let trace = tel.drain();
        let children = trace.children(parent);
        assert_eq!(children.len(), 3);
        assert!(children.iter().any(|s| s.name == "action:b" && s.sim_secs == 4.0));
        assert_eq!(trace.metrics.counter("executor.actions"), 3);
        assert_eq!(trace.metrics.gauges["executor.max_action_rss_bytes"], 300.0);
    }

    #[test]
    fn traced_phase_on_disabled_handle_records_nothing() {
        let tel = Telemetry::disabled();
        let ex = Executor::new(MachineConfig::distributed());
        let (r, _) = ex.run_phase(&phase(), &tel, None).unwrap();
        assert_eq!(r.num_actions, 3);
        assert!(tel.drain().spans.is_empty());
    }

    #[test]
    fn resilient_without_faults_is_the_closed_form() {
        let tel = Telemetry::enabled();
        for (machine, wall_secs) in [
            (MachineConfig::Distributed { ram_limit: GIB }, DISPATCH_SECS + 4.0),
            (MachineConfig::workstation(), 1.0 + 4.0 + 2.0),
        ] {
            let ex = Executor::new(machine);
            let (r, res) = ex.run_phase(&phase(), &tel, None).unwrap();
            let expect = PhaseReport {
                wall_secs,
                cpu_secs: 1.0 + 4.0 + 2.0,
                num_actions: 3,
                max_action_memory: 300,
                wall_us: 0,
                busy_us: 0,
            };
            assert_eq!(r, expect, "bit-exact, not approximately");
            assert_eq!(res, ResilienceReport::default());
        }
        let trace = tel.drain();
        assert_eq!(trace.spans.len(), 6);
        assert_eq!(trace.metrics.counter("executor.action_retries"), 0);
    }

    #[test]
    fn backoff_grows_and_jitter_is_bounded() {
        let inj = FaultInjector::new(propeller_faults::FaultPlan::none(), 5);
        let b0 = backoff_secs(&inj, "compile m0", 0);
        let b1 = backoff_secs(&inj, "compile m0", 1);
        let b2 = backoff_secs(&inj, "compile m0", 2);
        assert!((BASE_BACKOFF_SECS..BASE_BACKOFF_SECS * (1.0 + JITTER_FRAC)).contains(&b0));
        assert!(b1 > b0 / (1.0 + JITTER_FRAC));
        assert!(b2 > b1 / (1.0 + JITTER_FRAC));
        // Deterministic.
        assert_eq!(b0, backoff_secs(&inj, "compile m0", 0));
    }

    #[test]
    fn always_transient_retries_and_charges_wasted_work() {
        use propeller_faults::FaultPlan;
        let inj = Arc::new(FaultInjector::new(FaultPlan::parse("transient=1").unwrap(), 3));
        let ex = Executor::new(MachineConfig::workstation()).with_faults(inj.clone());
        let actions = [ActionSpec::new("a", 1.0, 100)];
        let (r, res) = ex
            .run_phase(&actions, &Telemetry::disabled(), None)
            .unwrap();
        // MAX_ATTEMPTS attempts: every one but the last a transient
        // failure, the last the guaranteed success; each failure waits
        // out its backoff.
        let failures = MAX_ATTEMPTS - 1;
        let backoff: f64 = (0..failures).map(|k| backoff_secs(&inj, "a", k)).sum();
        let unjittered: f64 = (0..failures)
            .map(|k| BASE_BACKOFF_SECS * BACKOFF_MULTIPLIER.powi(k as i32))
            .sum();
        assert!((unjittered..unjittered * (1.0 + JITTER_FRAC)).contains(&backoff));
        assert_eq!(res.retries, u64::from(failures));
        assert_eq!(res.timeouts, 0);
        assert!((res.backoff_secs - backoff).abs() < 1e-12);
        assert!((r.cpu_secs - f64::from(MAX_ATTEMPTS)).abs() < 1e-12);
        assert!((r.wall_secs - (f64::from(MAX_ATTEMPTS) + backoff)).abs() < 1e-12);
    }

    #[test]
    fn always_timeout_burns_deadline_not_cpu() {
        use propeller_faults::FaultPlan;
        let inj = Arc::new(FaultInjector::new(FaultPlan::parse("timeout=1:1").unwrap(), 3));
        let ex = Executor::new(MachineConfig::workstation()).with_faults(inj.clone());
        let actions = [ActionSpec::new("a", 1.0, 100)];
        let (r, res) = ex
            .run_phase(&actions, &Telemetry::disabled(), None)
            .unwrap();
        assert_eq!(res.timeouts, 1);
        // Hung attempt (the deadline) + backoff + clean rerun (1 s).
        let backoff = backoff_secs(&inj, "a", 0);
        assert!((r.cpu_secs - (TIMEOUT_SECS + 1.0)).abs() < 1e-12);
        assert!((r.wall_secs - (TIMEOUT_SECS + 1.0 + backoff)).abs() < 1e-12);
    }

    #[test]
    fn resilient_runs_are_deterministic() {
        use propeller_faults::FaultPlan;
        let plan = FaultPlan::parse("transient=0.4,timeout=0.2").unwrap();
        let run = |seed| {
            let ex = Executor::new(MachineConfig::distributed())
                .with_faults(Arc::new(FaultInjector::new(plan.clone(), seed)));
            ex.run_phase(&phase(), &Telemetry::disabled(), None).unwrap()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn resilient_still_rejects_over_limit_actions() {
        use propeller_faults::FaultPlan;
        let plan = FaultPlan::parse("transient=1").unwrap();
        let ex = Executor::new(MachineConfig::distributed())
            .with_faults(Arc::new(FaultInjector::new(plan, 1)));
        let err = ex
            .run_phase(
                &[ActionSpec::new("llvm-bolt", 600.0, 36 * GIB)],
                &Telemetry::disabled(),
                None,
            )
            .unwrap_err();
        assert!(matches!(err, BuildError::ActionOverMemoryLimit { .. }));
    }

    #[test]
    fn exactly_at_limit_is_admitted() {
        let ex = Executor::new(MachineConfig::distributed());
        assert!(ex
            .run_phase(&[ActionSpec::new("edge", 1.0, 12 * GIB)], &Telemetry::disabled(), None)
            .is_ok());
    }

    #[test]
    fn pool_results_are_in_item_order_at_any_width() {
        let items: Vec<u64> = (0..100).collect();
        let serial = Executor::new(MachineConfig::distributed()).with_jobs(1);
        let (expect, _) = serial
            .execute_indexed("square", &items, |_, i, &x| (i as u64, x * x))
            .unwrap();
        for jobs in [2, 3, 8] {
            let ex = Executor::new(MachineConfig::distributed()).with_jobs(jobs);
            let (got, stats) = ex
                .execute_indexed("square", &items, |_, i, &x| (i as u64, x * x))
                .unwrap();
            assert_eq!(got, expect, "jobs={jobs}");
            assert!(stats.wall_us > 0 || stats.busy_us == 0);
        }
    }

    #[test]
    fn pool_handles_empty_and_single_item_batches() {
        let ex = Executor::new(MachineConfig::distributed()).with_jobs(8);
        let (empty, _) = ex.execute_indexed("noop", &[] as &[u32], |_, _, &x| x).unwrap();
        assert!(empty.is_empty());
        let (one, _) = ex.execute_indexed("one", &[7u32], |w, _, &x| (w, x)).unwrap();
        // A single item runs on the calling thread as lane 0.
        assert_eq!(one, vec![(0, 7)]);
    }

    #[test]
    fn panicked_worker_surfaces_as_typed_error_not_a_hang() {
        for jobs in [1, 4] {
            let ex = Executor::new(MachineConfig::distributed()).with_jobs(jobs);
            let items: Vec<u32> = (0..32).collect();
            let err = ex
                .execute_indexed("flaky batch", &items, |_, _, &x| {
                    if x == 13 {
                        panic!("unlucky item {x}");
                    }
                    x
                })
                .unwrap_err();
            match err {
                BuildError::WorkerPanicked { what, message } => {
                    assert_eq!(what, "flaky batch");
                    assert!(message.contains("unlucky item 13"), "{message}");
                }
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn lowest_index_panic_wins_regardless_of_interleaving() {
        let ex = Executor::new(MachineConfig::distributed()).with_jobs(8);
        let items: Vec<u32> = (0..64).collect();
        let err = ex
            .execute_indexed("double panic", &items, |_, _, &x| {
                if x == 9 || x == 40 {
                    panic!("item {x}");
                }
                x
            })
            .unwrap_err();
        assert!(matches!(
            err,
            BuildError::WorkerPanicked { ref message, .. } if message.contains("item 9")
        ));
    }

    #[test]
    fn with_jobs_clamps_to_one() {
        let ex = Executor::new(MachineConfig::distributed()).with_jobs(0);
        assert_eq!(ex.jobs(), 1);
    }
}
