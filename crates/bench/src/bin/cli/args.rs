//! The one flag parser, the three shared option groups it fills, and
//! the one benchmark resolver every bench-taking subcommand goes
//! through.

use super::{CliError, Command};
use propeller::{FaultPlan, PropellerOptions};
use propeller_bench::runner::{generate_at, RunConfig};
use propeller_synth::{spec_by_name, BenchmarkSpec, GeneratedBenchmark};
use std::ops::{Bound, RangeBounds, RangeInclusive};
use std::path::PathBuf;
use std::str::FromStr;

/// Seed of every single-pipeline subcommand when `--seed` is absent.
const DEFAULT_SEED: u64 = 0xA5_2023;

/// Reports store the seed as a JSON number (an `f64`), which holds
/// integers exactly only below 2^53.
const MAX_SEED: u64 = (1 << 53) - 1;

/// Program selection: the `<bench>` positional plus these two.
#[derive(Default)]
pub struct ProgramSel {
    pub scale: Option<f64>,
    pub seed: Option<u64>,
}

/// Service shape: the traffic plan, the scheduler's capacity, the
/// fault plan and the worker count.
#[derive(Default)]
pub struct ServiceShape {
    pub requests: Option<usize>,
    pub tenants: Option<usize>,
    pub mean_gap: Option<f64>,
    pub slots: Option<usize>,
    pub queue: Option<usize>,
    pub cache_capacity: Option<usize>,
    pub faults: Option<FaultPlan>,
    pub jobs: Option<usize>,
}

/// Where artifacts go.
#[derive(Default)]
pub struct Outputs {
    pub out: Option<String>,
    pub trace_out: Option<String>,
    pub flamegraph_out: Option<String>,
    pub heatmap_out: Option<String>,
}

/// One parsed invocation: positionals, the three shared groups, and
/// the handful of flags only one or two subcommands read.
#[derive(Default)]
pub struct Parsed {
    /// The subcommand's name, for messages.
    pub cmd: &'static str,
    pub positionals: Vec<String>,
    pub program: ProgramSel,
    pub service: ServiceShape,
    pub outputs: Outputs,
    pub json: bool,
    pub provenance: bool,
    pub soak: bool,
    pub verify_batch: bool,
    pub top: Option<usize>,
    pub event: Option<String>,
    pub tolerance: Option<f64>,
    pub releases: Option<u32>,
    pub machines: Option<usize>,
    pub drift: Option<f64>,
    pub skew_threshold: Option<f64>,
    pub history_window: Option<u32>,
    pub interval: Option<f64>,
    pub config: Option<String>,
}

fn num<T: FromStr>(flag: &str, value: &str) -> Result<T, CliError> {
    value
        .parse()
        .map_err(|_| CliError::Usage(format!("{flag}: invalid value {value:?}")))
}

/// [`num`], then the range check; `need` says what would have passed.
/// Every numeric flag with a range is checked here, where it enters, so
/// no subcommand starts work on a value it cannot honor. (A NaN is in
/// no range.)
fn num_in<T: FromStr + PartialOrd>(
    flag: &str,
    value: &str,
    need: &str,
    range: impl RangeBounds<T>,
) -> Result<T, CliError> {
    let checked = num(flag, value).ok().filter(|v| range.contains(v));
    checked.ok_or_else(|| CliError::Usage(format!("{flag} {value}: need {need}")))
}

/// Every finite number above zero, and those with zero.
const POSITIVE: (Bound<f64>, Bound<f64>) = (Bound::Excluded(0.0), Bound::Included(f64::MAX));
const NON_NEGATIVE: RangeInclusive<f64> = 0.0..=f64::MAX;

fn spec_named(name: &str) -> Result<BenchmarkSpec, CliError> {
    spec_by_name(name).ok_or_else(|| CliError::UnknownBenchmark(name.to_string()))
}

impl Parsed {
    /// Parses `argv` (everything after the subcommand name) against
    /// `cmd`'s accepted flags and positional arity. A flag the
    /// subcommand never reads is a usage error, not a silent no-op.
    pub fn parse(cmd: &Command, mut argv: impl Iterator<Item = String>) -> Result<Self, CliError> {
        let name = cmd.name();
        let mut p = Parsed {
            cmd: name,
            ..Parsed::default()
        };
        while let Some(tok) = argv.next() {
            if !tok.starts_with("--") {
                p.positionals.push(tok);
                continue;
            }
            let takes_value = cmd
                .takes_value(&tok)
                .ok_or_else(|| CliError::Usage(format!("`{name}` takes no flag {tok}")))?;
            let value = match takes_value {
                true => argv
                    .next()
                    .ok_or_else(|| CliError::Usage(format!("{tok} needs a value")))?,
                false => String::new(),
            };
            p.set(&tok, value)?;
        }
        let (min, max) = cmd.arity();
        if !(min..=max).contains(&p.positionals.len()) {
            return Err(CliError::Usage(format!("expected `{}`", cmd.synopsis)));
        }
        Ok(p)
    }

    fn set(&mut self, flag: &str, v: String) -> Result<(), CliError> {
        match flag {
            "--scale" => {
                self.program.scale = Some(num_in(flag, &v, "a positive number", POSITIVE)?)
            }
            "--seed" => {
                let need = "at most 9007199254740991 (2^53 - 1), the largest seed the JSON \
                            reports can record exactly";
                self.program.seed = Some(num_in(flag, &v, need, ..=MAX_SEED)?);
            }
            "--requests" => self.service.requests = Some(num(flag, &v)?),
            "--tenants" => self.service.tenants = Some(num(flag, &v)?),
            "--mean-gap" => {
                self.service.mean_gap = Some(num_in(flag, &v, "a positive number", POSITIVE)?)
            }
            "--slots" => self.service.slots = Some(num(flag, &v)?),
            "--queue" => self.service.queue = Some(num(flag, &v)?),
            "--cache-capacity" => self.service.cache_capacity = Some(num(flag, &v)?),
            "--faults" => {
                self.service.faults = Some(FaultPlan::parse(&v).map_err(CliError::BadFaultSpec)?)
            }
            "--jobs" => {
                self.service.jobs = Some(num_in(flag, &v, "at least 1", 1..)?)
            }
            "--out" => self.outputs.out = Some(v),
            "--trace-out" => self.outputs.trace_out = Some(v),
            "--flamegraph-out" => self.outputs.flamegraph_out = Some(v),
            "--heatmap-out" => self.outputs.heatmap_out = Some(v),
            "--json" => self.json = true,
            "--provenance" => self.provenance = true,
            "--soak" => self.soak = true,
            "--verify-batch" => self.verify_batch = true,
            "--top" => self.top = Some(num(flag, &v)?),
            "--event" => self.event = Some(v),
            "--tolerance" => {
                self.tolerance = Some(num_in(flag, &v, "a non-negative number", NON_NEGATIVE)?)
            }
            "--releases" => self.releases = Some(num_in(flag, &v, "at least 1", 1..)?),
            "--machines" => self.machines = Some(num_in(flag, &v, "at least 1", 1..)?),
            "--drift" => self.drift = Some(num_in(flag, &v, "a number in [0, 1]", 0.0..=1.0)?),
            "--skew-threshold" => {
                let need = "a non-negative number";
                self.skew_threshold = Some(num_in(flag, &v, need, NON_NEGATIVE)?);
            }
            "--history-window" => self.history_window = Some(num(flag, &v)?),
            "--interval" => self.interval = Some(num_in(flag, &v, "a positive number", POSITIVE)?),
            "--config" => self.config = Some(v),
            _ => unreachable!("{flag} is in a synopsis but has no setter"),
        }
        Ok(())
    }

    /// The one place a benchmark name becomes a spec: the first
    /// positional, or `clang` where the subcommand makes it optional.
    pub fn resolve(&self) -> Result<BenchmarkSpec, CliError> {
        spec_named(self.positionals.first().map_or("clang", String::as_str))
    }

    /// The benchmarks a paper-artifact row covers: its positionals, or
    /// the `paper`'s own list when there are none. Every name resolves
    /// before any of them runs.
    pub fn benches(&self, paper: &[&str]) -> Result<Vec<BenchmarkSpec>, CliError> {
        let named: Vec<&str> = self.positionals.iter().map(String::as_str).collect();
        let names = if named.is_empty() { paper } else { &named };
        names.iter().map(|name| spec_named(name)).collect()
    }

    /// The comparison harness's configuration. For its rows `--scale`
    /// multiplies each spec's default scale.
    pub fn run_config(&self, provenance: bool) -> RunConfig {
        RunConfig {
            seed: self.seed(),
            scale_mult: self.program.scale.unwrap_or(1.0),
            provenance,
        }
    }

    /// Resolves the benchmark and generates it at `--scale` (absolute;
    /// default: the spec's own scale) and `--seed`.
    pub fn generate(&self) -> Result<(BenchmarkSpec, f64, GeneratedBenchmark), CliError> {
        let spec = self.resolve()?;
        let scale = self.program.scale.unwrap_or(spec.default_scale);
        let gen = generate_at(&spec, scale, self.seed());
        Ok((spec, scale, gen))
    }

    pub fn seed(&self) -> u64 {
        self.program.seed.unwrap_or(DEFAULT_SEED)
    }

    /// Pipeline options for this invocation: the defaults, plus the
    /// `--jobs` count and a non-empty `--faults` plan when given.
    /// Fault-free invocations keep the exact default options so their
    /// output stays bit-identical to builds without the fault layer.
    /// (`--jobs` never changes output at all: every parallel stage
    /// reduces in submission order.)
    pub fn pipeline_options(&self) -> PropellerOptions {
        let mut opts = PropellerOptions::default();
        opts.jobs = self.service.jobs.unwrap_or(opts.jobs);
        if let Some(plan) = self.service.faults.clone().filter(|plan| !plan.is_none()) {
            opts.faults = plan;
            // The injection schedule derives from the pipeline seed,
            // so --seed replays the exact same faults.
            opts.seed = self.seed();
        }
        opts
    }

    /// Creates the `--out` directory when the flag was given.
    pub fn out_dir(&self) -> Result<Option<PathBuf>, CliError> {
        let Some(dir) = &self.outputs.out else {
            return Ok(None);
        };
        std::fs::create_dir_all(dir).map_err(CliError::io(dir))?;
        Ok(Some(PathBuf::from(dir)))
    }
}

/// Writes `contents` to `path` without announcing it.
pub fn write_quiet(path: impl AsRef<std::path::Path>, contents: String) -> Result<(), CliError> {
    let path = path.as_ref();
    std::fs::write(path, contents).map_err(CliError::io(path.display()))
}

/// Writes `contents` to `path` and prints the `wrote PATH` line.
pub fn write_file(path: impl AsRef<std::path::Path>, contents: String) -> Result<(), CliError> {
    write_quiet(&path, contents)?;
    println!("wrote {}", path.as_ref().display());
    Ok(())
}

/// Reads `path` and parses it with the document type's own parser.
pub fn load<T, E>(path: &str, parse: fn(&str) -> Result<T, E>) -> Result<T, CliError>
where
    E: std::error::Error + 'static,
{
    let text = std::fs::read_to_string(path).map_err(CliError::io(path))?;
    parse(&text).map_err(|e| CliError::Parse {
        path: path.to_string(),
        source: Box::new(e),
    })
}
