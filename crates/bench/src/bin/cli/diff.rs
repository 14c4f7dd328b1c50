//! The report-comparing subcommands: `diff`, `layout-diff`.

use super::args::load;
use super::error::exit_code;
use super::{CliError, Parsed};
use propeller_doctor::{diff_docs, diff_reports, render_layout_diff, ProvenanceDoc, RunReport};
use std::process::ExitCode;

pub fn diff(p: &Parsed) -> Result<ExitCode, CliError> {
    let (a, b) = (&p.positionals[0], &p.positionals[1]);
    let d = diff_reports(
        &load(a, RunReport::parse)?,
        &load(b, RunReport::parse)?,
        p.tolerance.unwrap_or(0.0),
    );
    print!("{}", d.render());
    Ok(exit_code(!d.has_regression()))
}

pub fn layout_diff(p: &Parsed) -> Result<ExitCode, CliError> {
    let (a, b) = (&p.positionals[0], &p.positionals[1]);
    let delta = diff_docs(
        &load(a, ProvenanceDoc::parse)?,
        &load(b, ProvenanceDoc::parse)?,
    );
    // Divergence between two runs is information, not failure: always
    // exit zero so CI can diff across releases.
    print!("{}", render_layout_diff(a, b, &delta));
    Ok(ExitCode::SUCCESS)
}
