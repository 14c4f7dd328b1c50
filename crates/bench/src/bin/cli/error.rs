//! The CLI's one error type and its one renderer.

use std::process::ExitCode;

/// What went wrong in a CLI invocation, with a `source()` chain down
/// to the failing layer. Every subcommand returns it through `?` and
/// `main` funnels it through [`fail`] — no `unwrap`/`expect` on state
/// that a run can actually reach. Failures of the machinery render
/// with an `error:` prefix above their cause chain; diagnoses of what
/// the user asked for (`Usage`, `UnknownBenchmark`, `BadFaultSpec`,
/// `Gate`) print verbatim.
#[derive(Debug)]
pub enum CliError {
    /// An internal pipeline contract broke: an artifact that the
    /// completed phases must have produced is absent.
    MissingArtifact {
        what: &'static str,
        needs: &'static str,
    },
    Pipeline(propeller::PipelineError),
    Serve(propeller_serve::ServeError),
    Io {
        path: String,
        source: std::io::Error,
    },
    Parse {
        path: String,
        source: Box<dyn std::error::Error>,
    },
    /// The command line itself is wrong; rendered above the usage text.
    Usage(String),
    UnknownBenchmark(String),
    BadFaultSpec(propeller::FaultPlanParseError),
    /// The run completed but a check it exists to enforce did not hold
    /// (a CI gate, an audit, a lookup in the run's results). The
    /// message is printed verbatim.
    Gate(String),
}

impl CliError {
    /// A `map_err` adapter naming the path an I/O call failed on.
    pub fn io(path: impl std::fmt::Display) -> impl FnOnce(std::io::Error) -> CliError {
        let path = path.to_string();
        move |source| CliError::Io { path, source }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::MissingArtifact { what, needs } => write!(
                f,
                "error: internal contract broken: {what} is missing although {needs}; \
                 please report this"
            ),
            CliError::Pipeline(_) => write!(f, "error: pipeline failed"),
            CliError::Serve(_) => write!(f, "error: relink service failed"),
            CliError::Io { path, .. } => write!(f, "error: cannot access {path}"),
            CliError::Parse { path, .. } => write!(f, "error: cannot parse {path}"),
            CliError::Usage(msg) => write!(f, "{msg}\n{}", super::usage()),
            CliError::UnknownBenchmark(name) => {
                write!(f, "unknown benchmark {name:?} (try `list`)")
            }
            CliError::BadFaultSpec(e) => write!(f, "invalid --faults spec: {e}"),
            CliError::Gate(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Pipeline(source) => Some(source),
            CliError::Serve(source) => Some(source),
            CliError::Io { source, .. } => Some(source),
            CliError::Parse { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<propeller::PipelineError> for CliError {
    fn from(source: propeller::PipelineError) -> Self {
        CliError::Pipeline(source)
    }
}

impl From<propeller_serve::ServeError> for CliError {
    fn from(source: propeller_serve::ServeError) -> Self {
        CliError::Serve(source)
    }
}

/// Renders `e` and its whole `source()` chain to stderr and returns
/// the failure exit code.
pub fn fail(e: CliError) -> ExitCode {
    eprintln!("{e}");
    let mut cur = std::error::Error::source(&e);
    while let Some(s) = cur {
        eprintln!("  caused by: {s}");
        cur = s.source();
    }
    ExitCode::FAILURE
}

/// `Option` → `Result` for artifacts the completed phases guarantee.
pub fn require<T>(opt: Option<T>, what: &'static str, needs: &'static str) -> Result<T, CliError> {
    opt.ok_or(CliError::MissingArtifact { what, needs })
}

/// Exit 0 when `ok`, otherwise a silent exit 1: the findings already
/// printed say why.
pub fn exit_code(ok: bool) -> ExitCode {
    ExitCode::from(u8::from(!ok))
}

/// Exit 0 when `ok`, otherwise the [`CliError::Gate`] carrying `msg`.
pub fn gate(ok: bool, msg: impl Into<String>) -> Result<ExitCode, CliError> {
    if ok {
        Ok(ExitCode::SUCCESS)
    } else {
        Err(CliError::Gate(msg.into()))
    }
}
