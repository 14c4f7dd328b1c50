//! Wall-clock benchmark of the Propeller reproduction.
//!
//! `--workload W --seed N --seconds S --trace 0|1` runs one pass of one
//! workload and prints one JSON object as the last line of standard
//! output. Without `--workload` it runs both passes of all four
//! workloads and writes `results.json` and `trace_<workload>.json`
//! under `--out` (default `benchmark/out`). See `README.md`.

mod alloc;
mod checks;
mod compare;
mod harness;
mod metrics;
mod staged;
mod stats;
mod sweep;
mod trace;
mod workloads;

use harness::{PassResult, Plan, Settings};
use metrics::{Metric, END_TO_END, PER_LAYER};
use propeller_telemetry::json::obj;
use propeller_telemetry::JsonValue;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// `BENCHMARK.json`'s `run_seconds`.
const RUN_SECONDS: u64 = 15;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    jobs: usize,
    out: PathBuf,
    quick: bool,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn usage() -> String {
    "usage: propeller-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--jobs J] \
     [--out DIR] [--quick]\n       propeller-benchmark --scale-sweep [--out DIR]\n       \
     propeller-benchmark --compare A/results.json B/results.json\n       \
     propeller-benchmark --print-manifest"
        .to_string()
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: None,
        jobs: nproc().min(4),
        out: PathBuf::from("benchmark/out"),
        quick: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !workloads::WORKLOADS.iter().any(|(name, _)| name == w) {
                    return Err(format!("unknown workload {w:?}\n{}", usage()));
                }
                a.workload = Some(w.clone());
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&a.seconds) {
                    return Err("--seconds must lie in 0..=600".into());
                }
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--jobs" => {
                a.jobs = value()?.parse().map_err(|e| format!("--jobs: {e}"))?;
                if !(1..=256).contains(&a.jobs) {
                    return Err("--jobs must lie in 1..=256".into());
                }
            }
            "--out" => a.out = PathBuf::from(value()?),
            "--quick" => a.quick = true,
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(a)
}

fn metric_json(
    table: &[Metric],
    values: &std::collections::BTreeMap<String, f64>,
    prefix: &str,
) -> Vec<(String, JsonValue)> {
    table
        .iter()
        .map(|m| {
            let v = values.get(m.name).copied().unwrap_or(0.0);
            (
                format!("{prefix}{}", m.name),
                obj([
                    ("value", JsonValue::Num(v)),
                    ("unit", JsonValue::Str(m.unit.into())),
                ]),
            )
        })
        .collect()
}

fn print_table(workload: &str, pass: &str, table: &[Metric], res: &PassResult) {
    eprintln!(
        "== {workload} / {pass}: {} ops, {} attempted, {} failed",
        res.ops, res.attempted, res.failed
    );
    for m in table {
        if let Some(v) = res.metrics.get(m.name) {
            eprintln!("  {:<32} {:>16.6} {}", m.name, v, m.unit);
        }
    }
    if let Some(v) = res.metrics.get("fail_share") {
        eprintln!("  {:<32} {:>16.6} share", "fail_share", v);
    }
    for (name, d) in &res.digests {
        eprintln!("  digest {name:<25} {d:016x}");
    }
    for e in &res.errors {
        eprintln!("  CHECK FAILED: {e}");
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, JsonValue)>,
) -> String {
    obj([
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::Num(attempted.max(1) as f64)),
        ("failed", JsonValue::Num(failed as f64)),
        ("metrics", JsonValue::Obj(metrics)),
    ])
    .to_string_compact()
}

fn pass_json(res: &PassResult) -> JsonValue {
    obj([
        ("ops", JsonValue::Num(res.ops as f64)),
        ("attempted", JsonValue::Num(res.attempted as f64)),
        ("failed", JsonValue::Num(res.failed as f64)),
        ("correct", JsonValue::Bool(res.correct())),
        (
            "errors",
            JsonValue::Arr(res.errors.iter().cloned().map(JsonValue::Str).collect()),
        ),
        (
            "digests",
            JsonValue::Obj(
                res.digests
                    .iter()
                    .map(|(k, d)| (k.clone(), JsonValue::Str(format!("{d:016x}"))))
                    .collect(),
            ),
        ),
        (
            "metrics",
            JsonValue::Obj(
                res.metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), JsonValue::Num(*v)))
                    .collect(),
            ),
        ),
        (
            "wall_s_samples",
            JsonValue::Arr(res.samples.iter().map(|v| JsonValue::Num(*v)).collect()),
        ),
    ])
}

fn write(path: &Path, value: &JsonValue) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, value.to_string_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_trace(out: &Path, workload: &str, res: &PassResult) -> Result<(), String> {
    write(
        &out.join(format!("trace_{workload}.json")),
        &obj([
            ("workload", JsonValue::Str(workload.into())),
            (
                "layers",
                JsonValue::Obj(
                    res.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::Num(*v)))
                        .collect(),
                ),
            ),
            ("spans", res.spans.clone().unwrap_or(JsonValue::Null)),
        ]),
    )
}

fn print_manifest() {
    let metric = |m: &Metric, bounded: bool| {
        let mut members = vec![
            ("name", JsonValue::Str(m.name.into())),
            ("unit", JsonValue::Str(m.unit.into())),
            (
                "better",
                JsonValue::Str(if m.higher { "higher" } else { "lower" }.into()),
            ),
        ];
        if bounded {
            members.push(("bound", JsonValue::Num(m.bound)));
        }
        obj(members)
    };
    let manifest = obj([
        (
            "command",
            JsonValue::Arr(
                ["bash", "benchmark/run.sh"]
                    .map(|s| JsonValue::Str(s.into()))
                    .to_vec(),
            ),
        ),
        (
            "paths",
            JsonValue::Arr(vec![JsonValue::Str("benchmark".into())]),
        ),
        ("run_seconds", JsonValue::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            JsonValue::Arr(
                workloads::WORKLOADS
                    .iter()
                    .map(|(n, why)| {
                        obj([
                            ("name", JsonValue::Str((*n).into())),
                            ("why", JsonValue::Str((*why).into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            JsonValue::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            JsonValue::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ]);
    print!("{}", manifest.to_string_pretty());
}

fn run(argv: &[String]) -> Result<bool, String> {
    match argv.first().map(String::as_str) {
        Some("--print-manifest") => {
            print_manifest();
            return Ok(true);
        }
        Some("--compare") => {
            let [_, a, b] = argv else { return Err(usage()) };
            return compare::compare(Path::new(a), Path::new(b));
        }
        Some("--scale-sweep") => {
            let out = match argv {
                [_] => PathBuf::from("benchmark/out"),
                [_, flag, dir] if flag == "--out" => PathBuf::from(dir),
                _ => return Err(usage()),
            };
            return sweep::run(&out).map(|()| true);
        }
        _ => {}
    }
    let args = parse(argv)?;
    let settings = Settings {
        seed: args.seed,
        jobs: args.jobs,
        seconds: if args.quick { 0.0 } else { args.seconds },
        plan: if args.quick {
            Plan::quick()
        } else {
            Plan::full()
        },
    };
    eprintln!(
        "propeller-benchmark: seed {} jobs {} (nproc {}) seconds {}{}",
        args.seed,
        args.jobs,
        nproc(),
        settings.seconds,
        if args.quick {
            " QUICK: checks only, not for numbers"
        } else {
            ""
        }
    );

    // One pass of one workload: what the driver runs.
    if let (Some(w), Some(trace)) = (&args.workload, args.trace) {
        let (res, table, pass) = if trace {
            (harness::traced_pass(w, &settings), PER_LAYER, "traced pass")
        } else {
            (harness::timed_pass(w, &settings), END_TO_END, "timed pass")
        };
        print_table(w, pass, table, &res);
        if trace {
            write_trace(&args.out, w, &res)?;
        }
        println!(
            "{}",
            result_line(
                res.correct(),
                res.attempted,
                res.failed,
                metric_json(table, &res.metrics, "")
            )
        );
        return Ok(res.correct());
    }

    // Both passes of the chosen workloads.
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::WORKLOADS.iter().map(|(name, _)| *name).collect(),
    };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let (mut line_metrics, mut per_workload) = (Vec::new(), Vec::new());
    for name in names {
        let timed = harness::timed_pass(name, &settings);
        print_table(name, "timed pass", END_TO_END, &timed);
        let traced = harness::traced_pass(name, &settings);
        print_table(name, "traced pass", PER_LAYER, &traced);
        write_trace(&args.out, name, &traced)?;
        for res in [&timed, &traced] {
            correct &= res.correct();
            attempted += res.attempted;
            failed += res.failed;
        }
        line_metrics.extend(metric_json(END_TO_END, &timed.metrics, &format!("{name}.")));
        per_workload.push((
            name.to_string(),
            obj([
                ("end_to_end", pass_json(&timed)),
                ("per_layer", pass_json(&traced)),
            ]),
        ));
    }
    write(
        &args.out.join("results.json"),
        &obj([
            ("seed", JsonValue::Num(args.seed as f64)),
            ("jobs", JsonValue::Num(args.jobs as f64)),
            ("nproc", JsonValue::Num(nproc() as f64)),
            ("seconds", JsonValue::Num(settings.seconds)),
            ("quick", JsonValue::Bool(args.quick)),
            ("workloads", JsonValue::Obj(per_workload)),
        ]),
    )?;
    println!("{}", result_line(correct, attempted, failed, line_metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("propeller-benchmark: an output check failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("propeller-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
