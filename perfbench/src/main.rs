//! Command-line entry point of the benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload join-64g --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it holds
//! the method (seed, machine, sample counts). A readable table goes to
//! standard error. `--workload all` runs every workload in turn, each in a
//! process of its own, and prints only the tables.

use std::process::{Command, ExitCode};
use windex_perfbench::{run, setup_sample, Options, SetupTimes, Size, Workload};

/// Set-ups measured in fresh child processes, besides the run's own.
const SETUP_CHILDREN: usize = 8;

const USAGE: &str =
    "usage: windex-perfbench --workload <join-64g|join-8g|serve-1gpu|serve-4gpu|all> \
--seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Measure one set-up in a fresh process of this executable.
fn child_setup(exe: &std::path::Path, workload: &str, seed: u64) -> Result<SetupTimes, String> {
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--setup-only",
        ])
        .output()
        .map_err(|e| format!("cannot start set-up process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "set-up process failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    stdout
        .lines()
        .find_map(SetupTimes::from_line)
        .ok_or_else(|| "set-up process printed no times".to_string())
}

/// Write the spans under the build directory, inside the checkout.
fn write_spans(json: &str, workload: &str, seed: u64) -> Result<std::path::PathBuf, String> {
    let root = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".to_string());
    let dir = std::path::Path::new(&root).join("perfbench-spans");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{workload}-seed{seed}.json"));
    std::fs::write(&path, json).map_err(|e| e.to_string())?;
    Ok(path)
}

fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(std::process::Stdio::null())
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" && !args.setup_only {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("error: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let opts = Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        size: Size::Full,
    };
    if args.setup_only {
        return match setup_sample(&opts) {
            Ok(t) => {
                println!("{}", t.to_line());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut children = Vec::with_capacity(SETUP_CHILDREN);
    for _ in 0..SETUP_CHILDREN {
        match child_setup(&exe, workload.name(), args.seed) {
            Ok(t) => children.push(t),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let outcome = run(&opts, &children);

    for e in outcome.errors.iter().take(20) {
        eprintln!("check failed: {e}");
    }
    if opts.trace {
        match write_spans(
            &outcome.tracer.to_json(workload.name(), args.seed),
            workload.name(),
            args.seed,
        ) {
            Ok(p) => eprintln!("spans written to {}", p.display()),
            Err(e) => eprintln!("warning: spans not written: {e}"),
        }
    }
    eprintln!(
        "{} seed {} ({}): attempted {}, failed {}, correct {}",
        workload.name(),
        args.seed,
        if opts.trace {
            "per layer"
        } else {
            "end to end"
        },
        outcome.attempted,
        outcome.failed,
        outcome.correct
    );
    for m in &outcome.metrics {
        eprintln!("  {:<44} {:>18.6} {}", m.name, m.value, m.unit);
    }

    println!("{}", outcome.method_json());
    println!("{}", outcome.result_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
