//! The two passes every workload goes through: the timed pass (spans
//! and allocator counting off) that yields the end-to-end metrics, and
//! the traced pass at `--jobs 1` that yields the per-layer metrics.

use crate::alloc;
use crate::metrics::PER_LAYER;
use crate::staged::{Counts, Stage};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::{self, Audit, LayerRow, Workload};
use propeller_telemetry::JsonValue;
use std::collections::BTreeMap;
use std::time::Instant;

const MIB: f64 = (1u64 << 20) as f64;

/// How much one run does. Only `--quick` departs from `full`.
#[derive(Copy, Clone)]
pub struct Plan {
    /// Set-ups per run, spread evenly over the first `min_ops` timed
    /// ops; `setup_s` is their median.
    pub setups: usize,
    /// Untimed warm-up ops per set-up.
    pub warmups: usize,
    /// Timed ops at least; p75 of 40 has ten samples beyond it.
    pub min_ops: usize,
    /// Ops of the allocation pass (`--jobs 1`, counting on).
    pub counted_ops: usize,
    /// Untraced `--jobs 1` ops the tracing overhead is taken against.
    pub base_ops: usize,
    pub traced_ops: usize,
    /// Whether the observer-overhead pairs run.
    pub extras: bool,
}

impl Plan {
    pub const fn full() -> Self {
        Plan {
            setups: 5,
            warmups: 2,
            min_ops: 40,
            counted_ops: 3,
            base_ops: 5,
            traced_ops: 5,
            extras: true,
        }
    }

    /// Checks only, never numbers.
    pub const fn quick() -> Self {
        Plan {
            setups: 1,
            warmups: 1,
            min_ops: 5,
            counted_ops: 1,
            base_ops: 1,
            traced_ops: 1,
            extras: false,
        }
    }
}

pub struct Settings {
    pub seed: u64,
    pub jobs: usize,
    /// The timed loop runs until this much wall time has passed (and
    /// `plan.min_ops` ops are done).
    pub seconds: f64,
    pub plan: Plan,
}

#[derive(Default)]
pub struct PassResult {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub digests: Vec<(String, u64)>,
    /// Timed ops (timed pass) or traced ops (traced pass).
    pub ops: usize,
    /// Timed pass: every timed op's wall seconds, in issue order.
    pub samples: Vec<f64>,
    /// Traced pass: every span.
    pub spans: Option<JsonValue>,
}

impl PassResult {
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    fn tally(
        &mut self,
        what: &str,
        op: Result<workloads::OpOut, String>,
    ) -> Option<workloads::OpOut> {
        match op {
            Ok(out) => {
                self.attempted += out.attempted;
                self.failed += out.failed;
                Some(out)
            }
            Err(e) => {
                self.attempted += 1;
                self.failed += 1;
                self.errors.push(format!("{what}: {e}"));
                None
            }
        }
    }
}

fn set_up(name: &str, warmups: usize, jobs: usize, res: &mut PassResult) -> Box<dyn Workload> {
    let mut w =
        workloads::generate(name).expect("workload names are validated at the command line");
    for _ in 0..warmups {
        res.tally("warm-up op", w.op(jobs, false));
    }
    w
}

/// End-to-end metrics of one workload.
pub fn timed_pass(name: &str, s: &Settings) -> PassResult {
    let mut res = PassResult::default();
    let plan = s.plan;

    // The inputs are pinned, so every op must ship the same bytes; the
    // deep audit of one op, drawn from the seed, therefore covers all.
    let tracer = Tracer::new();
    let counts = Counts::default();
    let stage = Stage {
        tr: &tracer,
        counts: &counts,
    };
    let audit_pick = (s.seed % plan.min_ops as u64) as usize;
    let mut walls = Vec::new();
    let mut digest = None;
    let mut audit = None;
    // Set-up is input generation plus warm-up ops. It is repeated at
    // even strides through the timed ops, each set-up's workload serving
    // the ops that follow, so that a few noisy seconds on a shared host
    // cannot decide `setup_s` the way they would if every set-up ran
    // back to back at the start.
    let stride = plan.min_ops.div_ceil(plan.setups);
    let mut setups = Vec::new();
    let mut w = None;
    let loop_start = Instant::now();
    let mut i = 0;
    while i < plan.min_ops || loop_start.elapsed().as_secs_f64() < s.seconds {
        if i % stride == 0 && setups.len() < plan.setups {
            let t = Instant::now();
            let built = set_up(name, plan.warmups, s.jobs, &mut res);
            setups.push(t.elapsed().as_secs_f64());
            w = Some(built);
        }
        let w = w.as_mut().expect("the first op follows a set-up");
        let keep = i == audit_pick;
        if let Some(out) = res.tally("timed op", w.op(s.jobs, keep)) {
            walls.push(out.wall_s);
            if *digest.get_or_insert(out.digest) != out.digest {
                res.errors
                    .push(format!("op {i} shipped different bytes than op 0"));
            }
            if keep {
                audit = Some(w.audit(&stage));
            }
        } else if res.failed > 3 {
            break;
        }
        i += 1;
    }
    res.ops = walls.len();
    let loop_s = loop_start.elapsed().as_secs_f64();

    // Allocation pass: `--jobs 1`, so the counts repeat exactly; the
    // same ops are the serial reference the timed ops' bytes must match.
    let (mut bytes, mut calls, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..plan.counted_ops {
        let w = w.as_mut().expect("the timed loop set one up");
        let (op, heap) = alloc::counted(|| w.op(1, false));
        if let Some(out) = res.tally("counted op", op) {
            if digest.is_some_and(|d| d != out.digest) {
                res.errors.push(format!(
                    "--jobs {} shipped different bytes than --jobs 1",
                    s.jobs
                ));
            }
            bytes.push(heap.bytes as f64 / MIB);
            calls.push(heap.calls as f64 / 1e3);
            peaks.push(heap.peak_live as f64 / MIB);
        }
    }

    eprintln!(
        "  pass time: set-ups {:.1} s {setups:.3?}, timed loop {loop_s:.1} s, allocation pass {:.1} s",
        setups.iter().sum::<f64>(),
        loop_start.elapsed().as_secs_f64() - loop_s
    );

    let audit = audit.unwrap_or_else(|| Audit {
        errors: vec![format!(
            "op {audit_pick} did not complete, nothing was audited"
        )],
        ..Audit::default()
    });
    res.errors.extend(audit.errors);
    res.digests = audit.digests;
    if let Some(d) = digest {
        res.digests.insert(0, ("op".into(), d));
    }

    let p50 = median(&walls);
    let m = &mut res.metrics;
    m.insert("setup_s".into(), median(&setups));
    m.insert("wall_s_p50".into(), p50);
    m.insert("wall_s_p75".into(), percentile(&walls, 0.75));
    m.insert(
        "kblocks_per_s".into(),
        if p50 > 0.0 {
            audit.blocks as f64 / 1e3 / p50
        } else {
            0.0
        },
    );
    m.insert("peak_heap_mib".into(), median(&peaks));
    m.insert("alloc_mib_per_op".into(), median(&bytes));
    m.insert("kallocs_per_op".into(), median(&calls));
    m.insert("speedup_pct".into(), audit.speedup_pct);
    m.insert("text_kib".into(), audit.text_kib);
    m.insert(
        "fail_share".into(),
        res.failed as f64 / res.attempted.max(1) as f64,
    );
    res.samples = walls;
    res
}

/// One traced op's complete row: span totals for every `_s` metric
/// whose stem names a span, the counts taken at the same boundaries,
/// the workload's own values, and what derives from those.
fn full_row(tracer: &Tracer, op: u32, counts: &Counts, own: LayerRow) -> BTreeMap<String, f64> {
    let mut row: BTreeMap<String, f64> = BTreeMap::new();
    for m in PER_LAYER {
        if let Some(stem) = m.name.strip_suffix("_s") {
            row.insert(m.name.into(), tracer.total(op, stem));
        }
    }
    for (k, v) in counts.take().into_iter().chain(own) {
        row.insert(k.into(), v);
    }
    let get = |k: &str| row.get(k).copied().unwrap_or(0.0);
    let (hot_blocks, wpa_s, sim_blocks, sim_s) = (
        get("wpa.hot_blocks"),
        get("wpa.run_s"),
        get("sim.blocks"),
        get("sim.busy_s"),
    );
    if hot_blocks > 0.0 {
        row.insert("wpa.us_per_hot_block".into(), wpa_s * 1e6 / hot_blocks);
    }
    if sim_s > 0.0 {
        row.insert("sim.mblocks_per_s".into(), sim_blocks / sim_s / 1e6);
    }
    row
}

/// Per-layer metrics of one workload.
pub fn traced_pass(name: &str, s: &Settings) -> PassResult {
    let mut res = PassResult::default();
    let plan = s.plan;
    let mut w = set_up(name, plan.warmups, 1, &mut res);

    let mut base = Vec::new();
    for _ in 0..plan.base_ops {
        if let Some(out) = res.tally("untraced --jobs 1 op", w.op(1, false)) {
            base.push(out.wall_s);
        }
    }

    let tracer = Tracer::new();
    let counts = Counts::default();
    let stage = Stage {
        tr: &tracer,
        counts: &counts,
    };
    let traced = |w: &mut Box<dyn Workload>, jobs: usize, res: &mut PassResult| {
        let op = tracer.next_op();
        res.attempted += 1;
        match w.traced_op(&stage, jobs) {
            Ok(own) => Some(full_row(&tracer, op, &counts, own)),
            Err(e) => {
                counts.take();
                res.failed += 1;
                res.errors.push(format!("traced op {op}: {e}"));
                None
            }
        }
    };
    let rows: Vec<_> = (0..plan.traced_ops)
        .filter_map(|_| traced(&mut w, 1, &mut res))
        .collect();
    res.ops = rows.len();
    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    for key in rows.iter().flat_map(|r| r.keys()) {
        let values: Vec<f64> = rows.iter().filter_map(|r| r.get(key).copied()).collect();
        layers.insert(key.clone(), median(&values));
    }
    // The pool's busy share only means something with more than one
    // worker: one more traced op at the run's `--jobs`.
    if s.jobs > 1 {
        if let Some(v) = traced(&mut w, s.jobs, &mut res)
            .and_then(|r| r.get("buildsys.pool_busy_share").copied())
        {
            layers.insert("buildsys.pool_busy_share".into(), v);
        }
    }
    if plan.extras {
        match w.traced_extras(&stage) {
            Ok(extra) => layers.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v))),
            Err(e) => res.errors.push(format!("observer overhead: {e}")),
        }
    }
    let base_p50 = median(&base);
    layers.insert("trace.base_s".into(), base_p50);
    if let (Some(&t), true) = (layers.get("trace.traced_wall_s"), base_p50 > 0.0) {
        layers.insert("trace.overhead_pct".into(), (t / base_p50 - 1.0) * 100.0);
    }
    res.metrics = layers;
    res.spans = Some(tracer.to_json());
    res
}
