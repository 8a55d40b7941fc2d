//! `xpulpnn` — the command-line front door to the reproduction; run
//! `xpulpnn --help` for every subcommand (`cli::USAGE`).

use std::process::ExitCode;

mod cli;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::dispatch(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            // Only usage errors (exit 2) get the USAGE dump; runtime
            // failures (exit 1) keep their diagnostic unburied.
            if e.usage {
                eprintln!();
                eprintln!("{}", cli::USAGE);
            }
            ExitCode::from(e.exit_code())
        }
    }
}
