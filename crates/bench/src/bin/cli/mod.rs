//! The command table: every subcommand's name, positionals, accepted
//! flags, help text and entry point. `main` is a lookup in it, the
//! usage text is generated from it, and the flag parser rejects
//! whatever a row does not list.

mod args;
mod diff;
mod error;
mod paper;
mod pipeline;
mod service;

pub use args::Parsed;
pub use error::{fail, CliError};
use std::process::ExitCode;

/// One subcommand.
pub struct Command {
    /// Name and positionals, e.g. `diff <A.json> <B.json> [C.json ...]`:
    /// `<x>` is required, `[x]` optional, `...` repeats.
    pub synopsis: &'static str,
    /// Accepted flags, written as the (often shared) synopsis fragments
    /// the usage text prints: `[--flag]` is a switch, `[--flag META]`
    /// takes a value. The parser accepts exactly what is written here,
    /// so the help cannot drift from it.
    pub flags: &'static [&'static str],
    pub about: &'static str,
    pub run: Run,
}

type Run = fn(&Parsed) -> Result<ExitCode, CliError>;

impl Command {
    pub fn name(&self) -> &'static str {
        self.synopsis.split(' ').next().unwrap_or_default()
    }

    /// `None` when the subcommand does not accept `flag`, otherwise
    /// whether the flag takes a value.
    pub fn takes_value(&self, flag: &str) -> Option<bool> {
        let mut words = self.flags.iter().flat_map(|fragment| fragment.split(' '));
        let word = words.find(|word| word.trim_matches(['[', ']']) == flag)?;
        Some(!word.ends_with(']'))
    }

    /// Fewest and most positionals the synopsis allows.
    pub fn arity(&self) -> (usize, usize) {
        let args = || self.synopsis.split(' ').skip(1);
        let repeats = self.synopsis.contains("...");
        let min = args().filter(|arg| arg.starts_with('<')).count();
        (min, if repeats { usize::MAX } else { args().count() })
    }
}

const PROGRAM: &str = "[--scale S] [--seed N]";
const PROGRAM_MULT: &str = "[--scale MULT] [--seed N]";
const BUILD: &str = "[--faults SPEC] [--jobs N]";
const SCHEDULER: &str = "[--slots N] [--queue N] [--cache-capacity N]";
/// The full service shape: traffic plan, scheduler capacity, build knobs.
const SERVICE: &str = "[--requests N] [--tenants N] [--mean-gap SECS] [--slots N] [--queue N] \
                       [--cache-capacity N] [--faults SPEC] [--jobs N]";
const DIR_AND_TRACE: &str = "[--out DIR] [--trace-out FILE]";

/// A paper-artifact row: `<name> [bench ...]`, scaled by `--scale MULT`.
const fn artifact(synopsis: &'static str, about: &'static str, run: Run) -> Command {
    Command { synopsis, flags: &[PROGRAM_MULT], about, run }
}

pub const COMMANDS: &[Command] = &[
    Command {
        synopsis: "list",
        flags: &[],
        about: "List the available benchmark specs (Table 2).",
        run: pipeline::list,
    },
    Command {
        synopsis: "run <bench>",
        flags: &[
            PROGRAM,
            BUILD,
            DIR_AND_TRACE,
            "[--flamegraph-out FILE] [--heatmap-out FILE] [--top N] [--provenance]",
        ],
        about: "Run the 4-phase pipeline and evaluate it against the baseline; --out DIR writes \
                cc_prof.txt, ld_prof.txt, run_report.json (+ layout_provenance.json).",
        run: pipeline::run,
    },
    Command {
        synopsis: "doctor <bench>",
        flags: &[PROGRAM, BUILD],
        about: "Run the pipeline and audit profile quality, layout provenance, wall-clock vs \
                the cost model, and degradation; exits nonzero on any FAIL.",
        run: pipeline::doctor,
    },
    Command {
        synopsis: "chaos [bench]",
        flags: &[PROGRAM, "[--out DIR]"],
        about: "Run the 8-scenario fault matrix (default clang, scale 0.004, seed 77); exits \
                nonzero on any violated invariant. --out DIR writes chaos_report.json.",
        run: pipeline::chaos,
    },
    Command {
        synopsis: "fleet [bench]",
        flags: &[
            PROGRAM,
            BUILD,
            "[--releases N] [--machines M] [--drift D] [--skew-threshold T]",
            "[--history-window W] [--provenance] [--out DIR]",
        ],
        about: "Simulate the profile lifecycle across releases against an oracle arm; --out DIR \
                writes fleet_report.json + CSVs. At --drift 0 exits nonzero unless steady.",
        run: service::fleet,
    },
    Command {
        synopsis: "traffic [bench]",
        flags: &[PROGRAM, SERVICE, DIR_AND_TRACE, "[--soak] [--verify-batch]"],
        about: "Drive the multi-tenant relink service with a seeded traffic plan (--soak: the \
                8-scenario chaos matrix); --out DIR writes service_ledger.json / soak_*.json.",
        run: service::traffic,
    },
    Command {
        synopsis: "timeline [bench]",
        flags: &[PROGRAM, SERVICE, DIR_AND_TRACE, "[--interval SECS]"],
        about: "Run `traffic`'s plan with the modeled-clock time series armed; --out DIR writes \
                timeline.csv and timeline_sampled.csv (resampled every --interval, which must be \
                positive; default 10).",
        run: service::timeline,
    },
    Command {
        synopsis: "slo [bench]",
        flags: &[PROGRAM, SERVICE, DIR_AND_TRACE, "[--config FILE]"],
        about: "Evaluate the objectives in --config (TOML; default: built-in; a window_secs must \
                be positive) against the armed timeline; --out DIR writes slo_report.json. Exits \
                nonzero on any FAIL.",
        run: service::slo,
    },
    Command {
        synopsis: "serve [bench]",
        flags: &[PROGRAM, SCHEDULER, BUILD],
        about: "The relink service as a stdin REPL over one warm cache (default scale 0.002): \
                submit <tenant> [program-seed] | drain | ledger | shutdown.",
        run: service::serve,
    },
    Command {
        synopsis: "compare <bench>",
        flags: &[PROGRAM_MULT, "[--json] [--out FILE]"],
        about: "Propeller vs the BOLT comparator on one profile; --json emits a RunReport.",
        run: pipeline::compare,
    },
    Command {
        synopsis: "perf-report <bench>",
        flags: &[
            PROGRAM_MULT,
            "[--top N] [--event E] [--out FILE] [--flamegraph-out FILE]",
        ],
        about: "`perf report`-style per-symbol tables for baseline, Propeller and BOLT on one \
                workload; --out FILE writes perf_report.json.",
        run: pipeline::perf_report,
    },
    Command {
        synopsis: "annotate <bench> <function>",
        flags: &[PROGRAM_MULT, "[--event E]"],
        about: "`perf annotate` for one function in optimized layout order (default cycles).",
        run: pipeline::annotate,
    },
    Command {
        synopsis: "explain <bench> <function>[:<block>]",
        flags: &[PROGRAM_MULT],
        about: "Explain one function's (or block's) layout from sample mass to placed bytes.",
        run: pipeline::explain,
    },
    artifact(
        "table2 [bench ...]",
        "Table 2: benchmark characteristics, paper targets vs the generated programs.",
        paper::table2,
    ),
    artifact(
        "table3 [bench ...]",
        "Table 3: Propeller and BOLT speedups over the PGO+ThinLTO baseline.",
        paper::table3,
    ),
    artifact(
        "table5 [bench ...]",
        "Table 5: build phases of the warehouse-scale applications, modeled minutes.",
        paper::table5,
    ),
    artifact(
        "fig4 [bench ...]",
        "Figure 4: peak memory of profile conversion + WPA, Propeller vs perf2bolt.",
        paper::fig4,
    ),
    artifact(
        "fig5 [bench ...]",
        "Figure 5: peak memory of the Phase 4 relink vs BOLT vs the baseline link.",
        paper::fig5,
    ),
    artifact(
        "fig6 [bench ...]",
        "Figure 6: section sizes of the Base/PM/PO/BM/BO binaries, normalized to Base.",
        paper::fig6,
    ),
    artifact(
        "fig7 [bench ...]",
        "Figure 7: instruction-access heat maps, baseline vs Propeller vs BOLT (clang).",
        paper::fig7,
    ),
    artifact(
        "fig8 [bench ...]",
        "Figure 8: front-end counters normalized to the baseline (search, clang).",
        paper::fig8,
    ),
    artifact(
        "fig9 [bench ...]",
        "Figure 9: optimization run time, backends + relink vs BOLT's rewrite.",
        paper::fig9,
    ),
    artifact(
        "spec-table [bench ...]",
        "§5.4: layout optimizations on the SPEC2017 integer benchmarks.",
        paper::spec_table,
    ),
    artifact(
        "ablation-split [bench ...]",
        "§4.6 ablation: hot/cold splitting by hardware samples vs the PGO heuristic (clang).",
        paper::ablation_split,
    ),
    artifact(
        "ablation-interproc [bench ...]",
        "§4.7 ablation: intra-function vs inter-procedural layout, and layout time (clang).",
        paper::ablation_interproc,
    ),
    artifact(
        "ablation-prefetch [bench ...]",
        "§3.5 ablation: software prefetch insertion on top of code layout.",
        paper::ablation_prefetch,
    ),
    Command {
        synopsis: "diff <A.json> <B.json> [C.json ...]",
        flags: &["[--tolerance PCT]"],
        about: "Diff two RunReports, or trend three or more; exits nonzero when a gated metric \
                worsened by more than --tolerance percent (default 0).",
        run: diff::diff,
    },
    Command {
        synopsis: "layout-diff <A.json> <B.json>",
        flags: &[],
        about: "Diff two layout_provenance.json documents; a self-diff prints `identical`.",
        run: diff::layout_diff,
    },
    Command {
        synopsis: "dump <bench>",
        flags: &[PROGRAM],
        about: "Print the generated program as an IR listing.",
        run: pipeline::dump,
    },
    Command {
        synopsis: "map <bench>",
        flags: &[PROGRAM],
        about: "Print the optimized binary's linker map.",
        run: pipeline::map,
    },
];

/// The usage text, generated from [`COMMANDS`].
pub fn usage() -> String {
    let mut out = String::from("usage: propeller_cli <command> [arguments]\n");
    for cmd in COMMANDS {
        let synopsis = format!("{} {}", cmd.synopsis, cmd.flags.join(" "));
        out.push_str(&format!(
            "\npropeller_cli {}\n    {}\n",
            synopsis.trim_end(),
            cmd.about
        ));
    }
    out.push_str("\n--scale S is the absolute generator scale (default: the benchmark's own); ");
    out.push_str("--scale MULT multiplies the benchmark's default scale. A `[bench ...]` row ");
    out.push_str("covers the paper's benchmarks for that artifact unless some are named.\n");
    out
}

/// Looks the subcommand up, parses its arguments, runs it, and renders
/// any error through the single [`fail`] path.
pub fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_default();
    let result = match COMMANDS.iter().find(|cmd| cmd.name() == name) {
        Some(cmd) => Parsed::parse(cmd, argv).and_then(|p| (cmd.run)(&p)),
        None => Err(CliError::Usage(format!("unknown command {name:?}"))),
    };
    result.unwrap_or_else(fail)
}
