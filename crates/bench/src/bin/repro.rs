//! Regenerates the paper's tables and figures: `repro list`,
//! `repro all [--quick]`, `repro <id>… [--quick]`.
use instant3d_bench::experiments::{Experiment, ALL};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: repro list | repro all [--quick] | repro <id>… [--quick]");
    eprintln!("  --quick  reduced training budgets (smoke run)");
    eprintln!("experiment ids:");
    for e in ALL {
        eprintln!("  {}", e.id);
    }
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let names: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--quick")
        .collect();
    let selected: Vec<&Experiment> = match names[..] {
        ["list"] => {
            for e in ALL {
                println!("{}", e.id);
            }
            return ExitCode::SUCCESS;
        }
        ["all"] => {
            println!(
                "Instant-3D reproduction — full experiment suite ({} mode)",
                if quick { "quick" } else { "full" }
            );
            ALL.iter().collect()
        }
        _ => {
            let found: Option<Vec<_>> = names
                .iter()
                .map(|name| ALL.iter().find(|e| e.id == *name))
                .collect();
            match found {
                Some(found) if !found.is_empty() => found,
                _ => return usage(),
            }
        }
    };
    for e in selected {
        (e.run)(quick);
    }
    ExitCode::SUCCESS
}
