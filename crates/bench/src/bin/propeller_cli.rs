//! A command-line driver for the Propeller reproduction.
//!
//! Every subcommand — its positionals, the flags it accepts, what it
//! does, and whether its `--scale` is absolute or a multiplier — is one
//! row of the command table in `cli/mod.rs`. That table is the single
//! source of truth: `main` dispatches through it, the flag parser
//! rejects anything a row does not list, and running `propeller_cli`
//! with no arguments prints the help text generated from it.

mod cli;

fn main() -> std::process::ExitCode {
    cli::main()
}
