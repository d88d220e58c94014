//! The repo's canonical benchmark battery. See `README.md` beside
//! `Cargo.toml` for what is measured and why, and `../BENCHMARK.json` for
//! the contract later changes are held to.
//!
//! Two ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and prints its result as the last line —
//!   the form `BENCHMARK.json`'s `command` is driven in;
//! * without `--workload`, the whole battery: every workload untraced,
//!   then traced, each in a child process of its own (`--aa` and
//!   `--smoke` are variants of this).

mod battery;
mod common;
mod harness;
mod loops;
mod metrics;
mod micro;
mod procfs;
mod serve;
mod served;
mod spans;
mod stats;
mod tasks;

use std::path::PathBuf;
use std::process::ExitCode;

use common::Sizing;
use harness::{Outcome, RunOpts, Workload};

/// Worker 0 of a region is the calling thread, and unbounded recursion
/// such as `fib::par` runs on its stack: `fib(30)` overflows the default
/// 8 MiB main stack, so workloads run on a thread with this much.
const STACK_BYTES: usize = 256 << 20;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub aa: bool,
    pub smoke: bool,
    pub benchmark_json: bool,
}

const USAGE: &str =
    "usage: xgomp-benchmark [--workload NAME --trace 0|1] [--seed N] [--seconds S] \
                     [--aa] [--smoke] [--benchmark-json]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        aa: false,
        smoke: false,
        benchmark_json: false,
    };
    let mut seconds_given = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if metrics::workload(name).is_none() {
                    return Err(format!("unknown workload {name:?}"));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                args.seconds = s;
                seconds_given = true;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--aa" => args.aa = true,
            "--smoke" => args.smoke = true,
            "--benchmark-json" => args.benchmark_json = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if args.smoke && !seconds_given {
        args.seconds = 1.0;
    }
    Ok(args)
}

/// The benchmark package's own directory: where `cargo run` says it is,
/// else where it was when this binary was built.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// Where span files and battery reports go (git-ignored).
pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

fn run_one<W: Workload>(opts: &RunOpts, trace: bool) -> Outcome {
    if trace {
        harness::run_traced::<W>(opts)
    } else {
        harness::run_untraced::<W>(opts)
    }
}

type Runner = fn(&RunOpts, bool) -> Outcome;

/// One runner per entry of `metrics::WORKLOADS`, in the same order.
const RUNNERS: &[(&str, Runner)] = &[
    (tasks::TaskFib::NAME, run_one::<tasks::TaskFib>),
    (tasks::TaskSkew::NAME, run_one::<tasks::TaskSkew>),
    (PospLoop::NAME, run_one::<PospLoop>),
    (TriLoop::NAME, run_one::<TriLoop>),
    (serve::ServeWake::NAME, run_one::<serve::ServeWake>),
    (serve::ServeBurst::NAME, run_one::<serve::ServeBurst>),
];

type PospLoop = loops::LoopWorkload<loops::Posp>;
type TriLoop = loops::LoopWorkload<loops::Tri>;

fn run_workload(name: &str, args: &Args) -> Outcome {
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        sizing: Sizing::detect(args.smoke, args.trace),
    };
    println!(
        "machine: nproc {} | {} | T {} W {} | seed {} | seconds {} | pass {}{}",
        procfs::nproc(),
        procfs::cpu_model(),
        opts.sizing.team,
        opts.sizing.workers,
        opts.seed,
        opts.seconds,
        if args.trace { "traced" } else { "untraced" },
        if args.smoke { " | smoke" } else { "" },
    );
    let (_, run) = RUNNERS
        .iter()
        .find(|(n, _)| *n == name)
        .expect("parse_args admits registered workloads only");
    run(&opts, args.trace)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.benchmark_json {
        let json = serde_json::to_string_pretty(&metrics::benchmark_json()).expect("serializable");
        println!("{json}");
        return ExitCode::SUCCESS;
    }
    // Hermetic: nothing ambient may reach a runtime's defaults. Still
    // single-threaded here, before any runtime or thread exists.
    for var in common::AMBIENT_ENV {
        std::env::remove_var(var);
    }
    let Some(name) = args.workload.clone() else {
        return battery::run(&args);
    };
    let outcome = std::thread::Builder::new()
        .name(format!("bench-{name}"))
        .stack_size(STACK_BYTES)
        .spawn(move || run_workload(&name, &args))
        .expect("spawn the workload thread")
        .join();
    let Ok(outcome) = outcome else {
        eprintln!("the workload thread panicked");
        return ExitCode::from(3);
    };
    outcome.print_table();
    println!(
        "detail {}",
        serde_json::to_string(&outcome.detail_json()).expect("serializable")
    );
    println!(
        "{}",
        serde_json::to_string(&outcome.result_json()).expect("serializable")
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn driver_form_parses() {
        let a = parse("--workload serve_wake --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_wake"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, true));
        let a = parse("").unwrap();
        assert_eq!((a.workload, a.seconds), (None, metrics::RUN_SECONDS as f64));
        assert_eq!(parse("--smoke").unwrap().seconds, 1.0);
        assert_eq!(parse("--smoke --seconds 3").unwrap().seconds, 3.0);
    }

    #[test]
    fn bad_input_is_refused_where_it_enters() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed -1").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seconds inf").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--frobnicate").is_err());
    }

    #[test]
    fn every_registered_workload_has_a_runner() {
        let registered: Vec<_> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
        let runnable: Vec<_> = RUNNERS.iter().map(|(n, _)| *n).collect();
        assert_eq!(registered, runnable);
    }
}
