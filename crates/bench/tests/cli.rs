//! End-to-end tests of the `propeller_cli` binary: the artifacts CI
//! `cmp`s, the exit-code contract (usage errors and unknown benchmarks
//! exit 1, never a panic's 101), and the shared service-run path behind
//! `traffic` / `timeline` / `slo`, and one run of every paper-artifact
//! row.

use propeller_obj::ContentHash;
use propeller_telemetry::JsonValue;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_propeller_cli"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("spawn propeller_cli")
}

/// A fresh directory per test, so parallel tests never share a file.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs the CLI with `--out <scratch>/<sub>` appended, requires exit 0,
/// and returns the output directory plus captured stdout.
fn run_ok(base: &Path, sub: &str, args: &[&str]) -> (PathBuf, String) {
    let dir = base.join(sub);
    let mut argv = args.to_vec();
    argv.extend(["--out", dir.to_str().expect("utf-8 path")]);
    let out = cli(&argv);
    assert!(
        out.status.success(),
        "{argv:?} exited {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    (dir, String::from_utf8(out.stdout).expect("utf-8 stdout"))
}

fn read(path: PathBuf) -> Vec<u8> {
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Every subcommand with the positionals it needs to get past argument
/// parsing; `true` marks the ones whose first positional is a benchmark.
const SUBCOMMANDS: [(&str, &[&str], bool); 30] = [
    ("list", &[], false),
    ("run", &["clang"], true),
    ("doctor", &["clang"], true),
    ("chaos", &["clang"], true),
    ("fleet", &["clang"], true),
    ("traffic", &["clang"], true),
    ("timeline", &["clang"], true),
    ("slo", &["clang"], true),
    ("serve", &["clang"], true),
    ("compare", &["clang"], true),
    ("perf-report", &["clang"], true),
    ("annotate", &["clang", "clang_fn1"], true),
    ("explain", &["clang", "clang_fn1"], true),
    ("diff", &["a.json", "b.json"], false),
    ("layout-diff", &["a.json", "b.json"], false),
    ("dump", &["clang"], true),
    ("map", &["clang"], true),
    ("table2", &["clang"], true),
    ("table3", &["clang"], true),
    ("table5", &["clang"], true),
    ("fig4", &["clang"], true),
    ("fig5", &["clang"], true),
    ("fig6", &["clang"], true),
    ("fig7", &["clang"], true),
    ("fig8", &["clang"], true),
    ("fig9", &["clang"], true),
    ("spec-table", &["clang"], true),
    ("ablation-split", &["clang"], true),
    ("ablation-interproc", &["clang"], true),
    ("ablation-prefetch", &["clang"], true),
];

#[test]
fn armed_run_reproduces_the_committed_baseline() {
    let base = scratch("baseline");
    let (dir, _) = run_ok(
        &base,
        "out",
        &[
            "run",
            "clang",
            "--scale",
            "0.004",
            "--seed",
            "77",
            "--provenance",
            "--jobs",
            "1",
        ],
    );
    let baseline = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci/bench_baseline.json");
    assert!(
        read(dir.join("run_report.json")) == read(baseline),
        "run_report.json drifted from ci/bench_baseline.json"
    );
    for artifact in ["cc_prof.txt", "ld_prof.txt", "layout_provenance.json"] {
        assert!(!read(dir.join(artifact)).is_empty(), "{artifact} is empty");
    }
}

#[test]
fn bad_invocations_exit_one_never_panic() {
    for (name, positionals, takes_bench) in SUBCOMMANDS {
        let mut argv = vec![name];
        argv.extend(positionals);
        argv.push("--bogus");
        let out = cli(&argv);
        assert_eq!(out.status.code(), Some(1), "{argv:?} must be a usage error");
        if takes_bench {
            argv.pop();
            argv[1] = "nosuch";
            let out = cli(&argv);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{argv:?}: {stderr}");
            assert!(
                stderr.contains("unknown benchmark \"nosuch\" (try `list`)"),
                "{argv:?}: {stderr}"
            );
        }
    }
}

/// `diff` and `layout-diff` on a file that is not the artifact they
/// read: exit 1 through the one `error: cannot parse
/// PATH` + cause path — never a panic (101), a stack overflow (134) or
/// an exit 0 over an all-defaults document.
#[test]
fn malformed_artifacts_are_parse_errors() {
    let dir = scratch("malformed");
    let file = |name: &str, contents: &[u8]| {
        let path = dir.join(name);
        std::fs::write(&path, contents).expect("write scratch file");
        path.to_str().expect("utf-8 path").to_string()
    };
    let baseline = read(Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci/bench_baseline.json"));
    let good = file("baseline.json", &baseline);
    let cut = file("cut.json", &baseline[..2000]);
    let deep = file("deep.json", &b"[".repeat(50_000));
    let empty = file("empty.json", b"{}");
    let ill_typed = file(
        "ill_typed.json",
        br#"{"benchmark": 3, "scale": 1, "seed": 0, "metrics": {}, "wall": {}, "layout": []}"#,
    );
    // A repeated name used to be resolved silently: the metrics map kept
    // the last value, and the second placement of `f` read as a move.
    let text = String::from_utf8(baseline.clone()).expect("utf-8 baseline");
    let repeated = text.replacen(
        "\"metrics\": {",
        "\"metrics\": {\"eval.speedup_pct\": 1,",
        1,
    );
    let repeated_metric = file("repeated_metric.json", repeated.as_bytes());
    let placement = |order| {
        format!(
            r#"{{"symbol": "f", "order": {order}, "addr": 0, "input_size": 1, "final_size": 1,
                "deleted_jumps": 0, "shrunk_branches": 0}}"#
        )
    };
    let repeated_symbol = file(
        "repeated_symbol.json",
        format!(
            r#"{{"benchmark": "x", "scale": 1, "seed": 0, "functions": [], "funding": [],
                "placements": [{}, {}]}}"#,
            placement(0),
            placement(1)
        )
        .as_bytes(),
    );
    for (argv, cause) in [
        (["diff", &good, &cut], "JSON error at byte 2000"),
        (["diff", &good, &empty], "missing `run_report.benchmark`"),
        (
            ["diff", &ill_typed, &good],
            "expected a string at `run_report.benchmark`",
        ),
        (["layout-diff", &cut, &cut], "JSON error at byte 2000"),
        (
            ["layout-diff", &good, &good],
            "missing `layout_provenance.functions`",
        ),
        (["diff", &good, &deep], "nesting deeper than 128"),
        (["layout-diff", &deep, &deep], "nesting deeper than 128"),
        (
            ["diff", &good, &repeated_metric],
            "repeated member name \"eval.speedup_pct\"",
        ),
        (
            ["layout-diff", &repeated_symbol, &repeated_symbol],
            "expected a name no earlier row has at `layout_provenance.placements[1].symbol`",
        ),
    ] {
        let out = cli(&argv);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{argv:?}: {stderr}");
        assert!(
            stderr.starts_with("error: cannot parse "),
            "{argv:?}: {stderr}"
        );
        assert!(
            stderr.contains("  caused by: ") && stderr.contains(cause),
            "{argv:?}: {stderr}"
        );
    }
    assert!(cli(&["diff", &good, &good]).status.success());
}

#[test]
fn unread_flags_and_out_of_range_numbers_are_usage_errors() {
    for argv in [
        &["dump", "clang", "--top", "5"][..],
        &["dump", "clang", "--provenance"],
        &["map", "clang", "--json"],
        &["traffic", "clang", "--jobs", "0"],
        &["fleet", "clang", "--jobs", "0"],
        &["serve", "clang", "--jobs", "0"],
        &["run", "clang", "--jobs", "0"],
    ] {
        assert_eq!(cli(argv).status.code(), Some(1), "{argv:?}");
    }

    // Numbers outside what the subcommand can honor are rejected where
    // they enter, before any program is generated. `--scale inf` used to
    // abort on a 6 EB allocation (134), `--scale nan` ran at Table 2 full
    // scale, `--scale 0` a 2-module program, `--releases 0` an empty
    // ledger with exit 0, `--slots 0` ran one slot and wrote a ledger
    // recording zero — and `diff --tolerance nan` passed every
    // regression, which turned CI's bench gate off.
    let dir = scratch("out_of_range");
    let never = dir.join("never");
    let never = never.to_str().expect("utf-8 path");
    let baseline = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci/bench_baseline.json");
    let text = String::from_utf8(read(baseline.clone())).expect("utf-8 baseline");
    let speedup = "\"eval.speedup_pct\": 2.8832914387810327";
    assert!(
        text.contains(speedup),
        "the baseline's speedup moved; update this test"
    );
    let regressed = dir.join("regressed.json");
    std::fs::write(
        &regressed,
        text.replace(speedup, "\"eval.speedup_pct\": 0.01"),
    )
    .expect("write regressed report");
    let good = baseline.to_str().expect("utf-8 path");
    let bad = regressed.to_str().expect("utf-8 path");
    let gated = cli(&["diff", good, bad]);
    assert_eq!(gated.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&gated.stdout).contains("REGRESSION"));
    for argv in [
        &["diff", good, bad, "--tolerance", "nan"][..],
        &["diff", good, bad, "--tolerance", "inf"],
        &["diff", good, bad, "--tolerance", "-1"],
        &["run", "clang", "--scale", "inf"],
        &["run", "clang", "--scale", "0"],
        &["run", "clang", "--scale", "-1"],
        &["compare", "clang", "--scale", "nan"],
        &["table3", "--scale", "nan"],
        &["fleet", "clang", "--drift", "nan"],
        &["fleet", "clang", "--drift", "1.5"],
        &["fleet", "clang", "--drift", "-0.1"],
        &["fleet", "clang", "--skew-threshold", "nan"],
        &["fleet", "clang", "--skew-threshold", "-1"],
        &["fleet", "clang", "--releases", "0"],
        &["fleet", "clang", "--machines", "0"],
        &["fleet", "clang", "--history-window", "0"],
        &["traffic", "clang", "--mean-gap", "0"],
        &["traffic", "clang", "--mean-gap", "nan"],
        // Zero arrivals ran and met every objective; a 1e308 s gap
        // wrapped the modeled clock.
        &["traffic", "clang", "--requests", "0"],
        &["slo", "clang", "--requests", "0"],
        &["traffic", "clang", "--requests", "3", "--mean-gap", "1e308"],
        &[
            "traffic",
            "clang",
            "--requests",
            "2",
            "--out",
            never,
            "--slots",
            "0",
        ],
        &[
            "traffic",
            "clang",
            "--requests",
            "2",
            "--out",
            never,
            "--tenants",
            "0",
        ],
        &["serve", "clang", "--slots", "0"],
    ] {
        let t0 = std::time::Instant::now();
        let out = cli(argv);
        let took = t0.elapsed();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{argv:?}: {stderr}");
        let named = format!("{} {}: need ", argv[argv.len() - 2], argv[argv.len() - 1]);
        assert!(
            stderr.starts_with(&named) && stderr.contains("usage:"),
            "{argv:?}: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{argv:?} started work before rejecting its input"
        );
        assert!(took.as_secs_f64() < 1.0, "{argv:?} took {took:?}");
    }
    assert!(
        !Path::new(never).exists(),
        "a rejected invocation wrote its --out directory"
    );

    // Two clauses for one kind used to keep only the last: this ran clean.
    let t0 = std::time::Instant::now();
    let out = cli(&[
        "run",
        "clang",
        "--scale",
        "0.002",
        "--faults",
        "transient=0.9,transient=0",
    ]);
    let took = t0.elapsed();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "a repeated --faults key started work: {stderr}"
    );
    assert!(
        took.as_secs_f64() < 1.0,
        "a repeated --faults key took {took:?}"
    );
    assert_eq!(
        stderr,
        "invalid --faults spec: bad fault clause \"transient=0\": \"transient\" is already \
         set by an earlier clause\n"
    );

    // 2^53: the first seed the JSON reports cannot round-trip.
    let out = cli(&["run", "clang", "--seed", "9007199254740992"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("9007199254740991"),
        "limit not named: {stderr}"
    );
}

/// A zero `--interval` or `window_secs` used to be clamped to one modeled
/// microsecond and walked across the whole makespan (an 18 s `slo`, an
/// allocation-failure abort in `timeline`). Both are typed errors now,
/// raised where the value enters — before any job runs. So is an
/// interval that would resample the makespan into too many rows.
#[test]
fn zero_interval_and_zero_window_are_typed_errors_before_any_work() {
    let base = scratch("zero_step");
    let out_dir = base.join("out");
    let shape = [
        "clang",
        "--requests",
        "10",
        "--tenants",
        "3",
        "--slots",
        "2",
        "--queue",
        "6",
        "--seed",
        "12648430",
        "--mean-gap",
        "60",
        "--out",
    ];
    let rejected = |cmd: &str, flag: &str, value: &str| {
        let mut argv = vec![cmd];
        argv.extend(shape);
        argv.extend([out_dir.to_str().expect("utf-8 path"), flag, value]);
        let t0 = std::time::Instant::now();
        let out = cli(&argv);
        let took = t0.elapsed();
        assert_eq!(out.status.code(), Some(1), "{argv:?}");
        assert!(took.as_secs_f64() < 1.0, "{argv:?} took {took:?}");
        assert!(
            !out_dir.exists(),
            "{argv:?} ran the service before rejecting its input"
        );
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    for bad in ["0", "-1", "nan", "inf"] {
        let stderr = rejected("timeline", "--interval", bad);
        assert!(stderr.contains(&format!("--interval {bad}")), "{stderr}");
        assert!(stderr.contains("usage:"), "not the usage path: {stderr}");

        let config = base.join(format!("window_{bad}.toml"));
        let text = format!(
            "[[objective]]\nmetric = \"p99_latency_ms\"\nmax_warn = 600000.0\n\
             window_secs = {bad}\ntarget = 0.99\n"
        );
        std::fs::write(&config, text).expect("write slo config");
        let stderr = rejected("slo", "--config", config.to_str().expect("utf-8 path"));
        assert!(stderr.contains("error: cannot parse"), "{stderr}");
        assert!(
            stderr.contains("slo config line 4: `window_secs`"),
            "{stderr}"
        );
    }
    // A target of 1.5 used to run the whole service and report a -50%
    // error budget; a repeated key silently kept its last value.
    for (name, body, cause) in [
        (
            "target.toml",
            "max_warn = 600000.0\nwindow_secs = 30\ntarget = 1.5\n",
            "line 5: `target`",
        ),
        (
            "repeat.toml",
            "metric = \"cache_hit_rate\"\n",
            "line 3: `metric`",
        ),
    ] {
        let config = base.join(name);
        let text = format!("[[objective]]\nmetric = \"p99_latency_ms\"\n{body}");
        std::fs::write(&config, text).expect("write slo config");
        let stderr = rejected("slo", "--config", config.to_str().expect("utf-8 path"));
        assert!(stderr.contains(&format!("slo config {cause}")), "{stderr}");
    }

    // A positive interval too fine for the makespan used to be resampled
    // anyway: at 1 µs a 4-request run wrote 6.7 GB of CSV. Here the 517.6 s
    // makespan at 10 ms is 51 761 rows per series. The makespan is known
    // only once the service has run, so this refusal comes after the work
    // but before anything is printed or written.
    let mut argv = vec!["timeline"];
    argv.extend(shape);
    argv.extend([out_dir.to_str().expect("utf-8 path"), "--interval", "0.01"]);
    let out = cli(&argv);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        out.stdout.is_empty() && !out_dir.exists(),
        "output before the refusal"
    );
    assert!(
        stderr.starts_with("--interval 0.01: need at most 10000 rows"),
        "{stderr}"
    );
    assert!(
        stderr.contains("got 51761 over the 517.6 s modeled makespan"),
        "{stderr}"
    );
}

/// The paper's evaluation end to end: every artifact row on one small
/// benchmark prints its title, its table header and as many table rows
/// as it has benchmarks (or configurations, for the ablations).
#[test]
fn every_paper_artifact_row_runs() {
    // (row, benchmark, title, first header cell, table rows).
    let rows: [(&str, &str, &str, &str, usize); 13] = [
        (
            "table2",
            "505.mcf",
            "Table 2: benchmark characteristics",
            "Benchmark",
            1,
        ),
        (
            "table3",
            "505.mcf",
            "Table 3: performance improvements",
            "Benchmark",
            1,
        ),
        ("table5", "505.mcf", "Table 5: build phases", "Benchmark", 1),
        ("fig4", "505.mcf", "Figure 4: peak memory", "Benchmark", 1),
        ("fig5", "505.mcf", "Figure 5: peak memory", "Benchmark", 1),
        (
            "fig6",
            "505.mcf",
            "Figure 6 [505.mcf]: section sizes",
            "binary",
            5,
        ),
        (
            "fig8",
            "505.mcf",
            "Figure 8 [505.mcf]: counters normalized",
            "binary",
            2,
        ),
        (
            "fig9",
            "505.mcf",
            "Figure 9: optimization run time",
            "Benchmark",
            1,
        ),
        (
            "spec-table",
            "505.mcf",
            "SPEC2017 integer benchmarks",
            "Benchmark",
            1,
        ),
        (
            "ablation-prefetch",
            "505.mcf",
            "§3.5 ablation: software prefetch",
            "Benchmark",
            1,
        ),
        (
            "ablation-split",
            "clang",
            "§4.6 ablation: function splitting on clang",
            "config",
            4,
        ),
        (
            "ablation-interproc",
            "clang",
            "§4.7 ablation: inter-procedural layout on",
            "config",
            3,
        ),
        (
            "fig7",
            "clang",
            "Figure 7(a): baseline (PGO+ThinLTO), active rows = ",
            "",
            0,
        ),
    ];
    for (row, bench, title, header, table_rows) in rows {
        let argv = [row, bench, "--scale", "0.05"];
        let out = cli(&argv);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{argv:?}: {stderr}");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        let mut lines = stdout.lines();
        assert!(
            lines.next().is_some_and(|line| line.starts_with(title)),
            "{argv:?}:\n{stdout}"
        );
        if row == "fig7" {
            // Three 40-row heat maps, not a table.
            for panel in ["Figure 7(b): + Propeller", "propeller band is "] {
                assert!(
                    stdout.contains(panel),
                    "{argv:?} lacks {panel:?}:\n{stdout}"
                );
            }
            assert!(stdout.lines().count() > 2 * 40, "{argv:?}:\n{stdout}");
            continue;
        }
        assert_eq!(lines.next(), Some(""), "{argv:?}:\n{stdout}");
        assert!(
            lines.next().is_some_and(|line| line.starts_with(header)),
            "{argv:?}:\n{stdout}"
        );
        assert!(
            lines.next().is_some_and(|line| line.starts_with("---")),
            "{argv:?}:\n{stdout}"
        );
        let body = lines.take_while(|line| !line.is_empty()).count();
        assert_eq!(body, table_rows, "{argv:?}:\n{stdout}");
    }
}

/// `(arrivals, makespan, completed)` from a service run's summary line,
/// e.g. `traffic: 6 arrivals (2 burst clones) over 31.4 modeled s -> 4 completed`.
fn ledger_totals(stdout: &str) -> (String, String, String) {
    let line = stdout.lines().next().expect("summary line");
    let words: Vec<&str> = line.split_whitespace().collect();
    let after = |key: &str| {
        let at = words
            .iter()
            .position(|w| *w == key)
            .unwrap_or_else(|| panic!("{key} in {line}"));
        words[at + 1].to_string()
    };
    (words[1].to_string(), after("over"), after("->"))
}

#[test]
fn traffic_timeline_and_slo_share_one_service_run() {
    let base = scratch("service");
    let plan = [
        "clang",
        "--requests",
        "4",
        "--tenants",
        "2",
        "--seed",
        "77",
        "--scale",
        "0.002",
    ];
    let run = |cmd: &'static str| {
        let argv: Vec<&str> = std::iter::once(cmd).chain(plan).collect();
        run_ok(&base, cmd, &argv)
    };
    let (_, traffic) = run("traffic");
    let (tl_dir, timeline) = run("timeline");
    let (slo_dir, slo) = run("slo");
    assert_eq!(ledger_totals(&traffic), ledger_totals(&timeline));
    assert_eq!(ledger_totals(&traffic), ledger_totals(&slo));
    assert!(
        read(tl_dir.join("timeline.csv")) == read(slo_dir.join("timeline.csv")),
        "timeline and slo recorded different series for one plan"
    );
}

#[test]
fn ledgers_are_byte_identical_across_jobs() {
    let base = scratch("jobs");
    let traffic = [
        "traffic",
        "clang",
        "--requests",
        "4",
        "--tenants",
        "2",
        "--seed",
        "77",
    ];
    let fleet = [
        "fleet",
        "clang",
        "--scale",
        "0.004",
        "--releases",
        "3",
        "--drift",
        "0",
    ];
    for (tag, args, artifact) in [
        ("traffic", &traffic[..], "service_ledger.json"),
        ("fleet", &fleet[..], "fleet_report.json"),
    ] {
        let at_jobs = |jobs: &'static str| {
            let argv: Vec<&str> = args.iter().copied().chain(["--jobs", jobs]).collect();
            read(
                run_ok(&base, &format!("{tag}_j{jobs}"), &argv)
                    .0
                    .join(artifact),
            )
        };
        assert!(
            at_jobs("1") == at_jobs("8"),
            "{artifact} differs between --jobs 1 and 8"
        );
    }
}

/// Asserts the FNV-1a digest of `bytes`, printing the new one on a
/// mismatch.
#[track_caller]
fn pin(what: &str, bytes: &[u8], golden: u64) {
    let digest = ContentHash::of_bytes(bytes).0;
    assert_eq!(digest, golden, "{what} digest is {digest:#018x}");
}

const SERVICE_LEDGER_DIGEST: u64 = 0x76d8_4665_7a26_4b0a;
const CHAOS_REPORT_DIGEST: u64 = 0x16c1_cb45_a003_1aab;
const FLEET_REPORT_DIGEST: u64 = 0xd180_1e91_eec5_0da5;
const COMPARE_JSON_DIGEST: u64 = 0xf765_51a0_e21d_8065;

/// FNV-1a digests of the artifacts that the built-in constants decide
/// (values that used to be option fields nobody set): the service's
/// client-retry budget and backoff, storm size and cancel estimate; the
/// pipeline's retry policy and profile floor; the fleet's age decay;
/// BOLT's three always-on passes. Recorded by running these cases
/// against the commit before the fields became constants — a digest
/// that moves means a shipped byte moved. `compare --json` was
/// re-recorded once since, when relaxation began moving the optimized
/// binary's address map with its blocks: its `doctor.skew` moved.
#[test]
fn artifacts_decided_by_builtin_constants_are_pinned() {
    let base = scratch("constants");

    // One slot and a two-deep queue under back-to-back arrivals: the
    // queue refuses, clients back off and give up, every started job
    // rolls an eviction storm, and t1's first job is cancelled by fault
    // before t1 ever completed one (held for 0.4 of the 30 s estimate).
    let (dir, _) = run_ok(
        &base,
        "traffic",
        &[
            "traffic",
            "clang",
            "--requests",
            "8",
            "--tenants",
            "2",
            "--seed",
            "77",
            "--scale",
            "0.002",
            "--queue",
            "2",
            "--slots",
            "1",
            "--mean-gap",
            "2",
            "--faults",
            "cancel-job=0.4,evict-storm=1",
        ],
    );
    let ledger = read(dir.join("service_ledger.json"));
    let text = std::str::from_utf8(&ledger).expect("utf-8 ledger");
    let doc = JsonValue::parse(text).expect("ledger parses");
    let totals = doc.get("totals").expect("a totals row");
    let counters = [
        "retries",
        "retry_backoff_secs",
        "rejected_queue",
        "storm_evicted_entries",
        "cancelled_by_fault",
    ];
    assert!(
        counters
            .iter()
            .all(|k| totals.get(k).and_then(JsonValue::as_f64) > Some(0.0)),
        "the run no longer exercises every service constant: {totals:?}"
    );
    pin("service_ledger.json", &ledger, SERVICE_LEDGER_DIGEST);

    // Retry backoff seconds under the default policy, and which
    // scenarios fall below the profile floor to the identity layout.
    let (dir, _) = run_ok(&base, "chaos", &["chaos", "--seed", "77"]);
    pin(
        "chaos_report.json",
        &read(dir.join("chaos_report.json")),
        CHAOS_REPORT_DIGEST,
    );

    // Skew under the default age decay; at threshold 0.7 release 1
    // reuses and release 2 relinks against the merged stale profile.
    let (dir, stdout) = run_ok(
        &base,
        "fleet",
        &[
            "fleet",
            "clang",
            "--scale",
            "0.004",
            "--releases",
            "3",
            "--seed",
            "77",
            "--drift",
            "0.5",
            "--skew-threshold",
            "0.7",
        ],
    );
    assert!(
        stdout.contains(" reuse ") && stdout.contains(" relink "),
        "{stdout}"
    );
    pin(
        "fleet_report.json",
        &read(dir.join("fleet_report.json")),
        FLEET_REPORT_DIGEST,
    );

    // `bolt.speedup_pct`: block reordering, splitting and hfsort all on.
    let out = cli(&[
        "compare", "clang", "--scale", "0.12", "--seed", "77", "--json",
    ]);
    assert!(out.status.success());
    pin("compare --json", &out.stdout, COMPARE_JSON_DIGEST);
}

/// `ci/gates.sh` is the one list of what CI runs: every subcommand is
/// the argv of at least one `inv NAME EXIT SUBCOMMAND ...` line there,
/// and CI's matrix runs exactly the groups it declares.
#[test]
fn every_subcommand_is_run_by_a_ci_gate() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let gates = String::from_utf8(read(repo.join("ci/gates.sh"))).expect("utf-8 gates.sh");
    let workflow = String::from_utf8(read(repo.join(".github/workflows/ci.yml"))).expect("utf-8");
    let groups = |text: &str, prefix: &str, split: char| -> Vec<String> {
        let line = text
            .lines()
            .find_map(|line| line.trim().strip_prefix(prefix));
        let list = line.unwrap_or_else(|| panic!("no `{prefix}` line"));
        let list = list.trim().trim_matches(['(', ')', '[', ']']);
        list.split(split)
            .map(|group| group.trim().to_string())
            .collect()
    };
    assert_eq!(
        groups(&gates, "GATE_GROUPS=", ' '),
        groups(&workflow, "group:", ',')
    );
    let started: Vec<&str> = gates
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            (words.next() == Some("inv"))
                .then(|| words.nth(2))
                .flatten()
        })
        .collect();
    for (name, _, _) in SUBCOMMANDS {
        assert!(
            started.contains(&name),
            "no `inv` line in ci/gates.sh runs `{name}`"
        );
    }
}

/// The usage text is generated from the command table, so it must
/// name every subcommand, and every flag it advertises must have a
/// setter behind it: `--flag 1 --bogus` has to get past `--flag` and
/// die on `--bogus` with a usage error, not a panic.
#[test]
fn usage_lists_every_subcommand_and_only_settable_flags() {
    let out = cli(&[]);
    assert_eq!(out.status.code(), Some(1));
    let usage = String::from_utf8_lossy(&out.stderr).into_owned();
    for (name, positionals, _) in SUBCOMMANDS {
        let prefix = format!("propeller_cli {name} ");
        let synopsis = usage
            .lines()
            .find(|line| format!("{line} ").starts_with(&prefix))
            .unwrap_or_else(|| panic!("usage omits `{name}`:\n{usage}"));
        for word in synopsis.split(' ').filter(|word| word.starts_with("[--")) {
            let flag = word.trim_matches(['[', ']']);
            let mut argv = vec![name];
            argv.extend(positionals);
            argv.extend([flag, "1", "--bogus"]);
            assert_eq!(cli(&argv).status.code(), Some(1), "{argv:?}");
        }
    }
}
