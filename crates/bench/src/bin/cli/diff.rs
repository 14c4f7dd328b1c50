//! The report-comparing subcommands: `diff`, `layout-diff`.

use super::args::load;
use super::error::exit_code;
use super::{CliError, Parsed};
use propeller_doctor::{
    diff_docs, diff_reports, render_layout_diff, trend_reports, ProvenanceDoc, RunReport,
};
use std::process::ExitCode;

pub fn diff(p: &Parsed) -> Result<ExitCode, CliError> {
    let tolerance = p.tolerance.unwrap_or(0.0);
    let paths = &p.positionals;
    let reports = paths
        .iter()
        .map(|path| load(path, RunReport::parse))
        .collect::<Result<Vec<_>, _>>()?;
    let regressed = if let [a, b] = &reports[..] {
        let d = diff_reports(a, b, tolerance);
        print!("{}", d.render());
        d.has_regression()
    } else {
        let labeled: Vec<(String, &RunReport)> = paths.iter().cloned().zip(&reports).collect();
        let t = trend_reports(&labeled, tolerance);
        print!("{}", t.render());
        t.has_regression()
    };
    Ok(exit_code(!regressed))
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
