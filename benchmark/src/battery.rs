//! The whole battery in one command: every workload in a child process
//! of its own (so `VmHWM` and thread CPU are per workload), first
//! untraced, then traced; or, under `--aa`, untraced twice with the two
//! passes compared against the bounds.

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;

use crate::common::Sizing;
use crate::metrics::{self, WORKLOADS};
use crate::{procfs, Args};

fn field<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    match v {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(x) => Some(*x),
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        _ => None,
    }
}

/// What one child printed: the per-metric detail and whether its result
/// line said `correct`.
struct ChildRun {
    workload: &'static str,
    detail: Value,
    correct: bool,
}

impl ChildRun {
    fn median(&self, metric: &str) -> Option<f64> {
        number(field(field(&self.detail, metric)?, "median")?)
    }
}

/// Extracts the `detail` line and the final result line from a child's
/// standard output.
fn parse_child(workload: &'static str, stdout: &str) -> Result<ChildRun, String> {
    let detail = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("detail "))
        .ok_or("no detail line")?;
    let detail: Value = serde_json::from_str(detail).map_err(|e| format!("detail line: {e}"))?;
    let last = stdout.lines().last().ok_or("no output")?;
    let result: Value = serde_json::from_str(last).map_err(|e| format!("result line: {e}"))?;
    let correct = matches!(field(&result, "correct"), Some(Value::Bool(true)));
    Ok(ChildRun {
        workload,
        detail,
        correct,
    })
}

fn run_child(workload: &'static str, args: &Args, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines().filter(|l| !l.starts_with("detail ")) {
        println!("  {line}");
    }
    let run = parse_child(workload, &stdout)?;
    if !out.status.success() && run.correct {
        return Err(format!("exited with {}", out.status));
    }
    Ok(run)
}

fn run_pass(args: &Args, trace: bool, label: &str) -> (Vec<ChildRun>, bool) {
    println!("== {label} pass ==");
    let mut ok = true;
    let mut runs = Vec::new();
    for w in WORKLOADS {
        match run_child(w.name, args, trace) {
            Ok(run) => {
                ok &= run.correct;
                runs.push(run);
            }
            Err(e) => {
                eprintln!("{}: {e}", w.name);
                ok = false;
            }
        }
    }
    (runs, ok)
}

fn machine_json(args: &Args, sizing: &Sizing) -> Value {
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    let sha = crate::package_dir()
        .parent()
        .and_then(procfs::git_sha)
        .unwrap_or_else(|| "unknown".into());
    Value::Map(vec![
        ("nproc".into(), Value::UInt(procfs::nproc() as u64)),
        ("cpu_model".into(), Value::Str(procfs::cpu_model())),
        ("team".into(), Value::UInt(sizing.team as u64)),
        ("workers".into(), Value::UInt(sizing.workers as u64)),
        ("seed".into(), Value::UInt(args.seed)),
        ("seconds".into(), Value::Float(args.seconds)),
        ("smoke".into(), Value::Bool(args.smoke)),
        ("git_sha".into(), Value::Str(sha)),
        ("rustc".into(), Value::Str(rustc)),
    ])
}

fn write_bench_json(path: &Path, machine: &Value, runs: &[ChildRun]) {
    let doc = Value::Map(vec![
        ("schema".into(), Value::UInt(1)),
        ("machine".into(), machine.clone()),
        (
            "workloads".into(),
            Value::Map(
                runs.iter()
                    .map(|r| (r.workload.to_string(), r.detail.clone()))
                    .collect(),
            ),
        ),
    ]);
    let text = serde_json::to_string_pretty(&doc).expect("serializable");
    write_report(path, &(text + "\n"));
}

fn write_report(path: &Path, text: &str) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, text));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Compares two untraced passes of the same commit: per workload and
/// end-to-end metric, both medians, how much worse the second is than
/// the first (and the first than the second), and the bound. Returns the
/// report and whether every pair agrees within its bound.
fn compare_aa(first: &[ChildRun], second: &[ChildRun]) -> (String, bool) {
    let mut report = String::new();
    let mut agree = true;
    let _ = writeln!(
        report,
        "{:<12} {:<14} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "pass 1", "pass 2", "diff", "bound"
    );
    for a in first {
        let b = second.iter().find(|b| b.workload == a.workload);
        for m in metrics::E2E {
            let pair = b.and_then(|b| Some((a.median(m.name)?, b.median(m.name)?)));
            let Some((x, y)) = pair else {
                let _ = writeln!(
                    report,
                    "{:<12} {:<14} missing from a pass",
                    a.workload, m.name
                );
                agree = false;
                continue;
            };
            // Neither pass is the parent: take the worse direction.
            let diff = m.better.worsening(x, y).max(m.better.worsening(y, x));
            let within = diff <= m.bound;
            agree &= within;
            let _ = writeln!(
                report,
                "{:<12} {:<14} {x:>16.6} {y:>16.6} {:>8.2}% {:>6.0}%  {}",
                a.workload,
                m.name,
                diff * 100.0,
                m.bound * 100.0,
                if within { "ok" } else { "DISAGREE" }
            );
        }
    }
    (report, agree)
}

pub fn run(args: &Args) -> ExitCode {
    let sizing = Sizing::detect(args.smoke, false);
    let machine = machine_json(args, &sizing);
    println!(
        "machine {}",
        serde_json::to_string(&machine).expect("serializable")
    );
    let dir = crate::out_dir();

    let (first, mut ok) = run_pass(args, false, "untraced");
    if args.aa {
        let (second, second_ok) = run_pass(args, false, "second untraced");
        ok &= second_ok;
        let (report, agree) = compare_aa(&first, &second);
        let header = format!(
            "A/A: two untraced passes of one commit, one invocation\nmachine {}\n\n",
            serde_json::to_string(&machine).expect("serializable")
        );
        print!("{report}");
        write_report(&dir.join("AA.txt"), &(header + &report));
        if !agree {
            eprintln!("A/A: some metric does not repeat within its bound");
        }
        ok &= agree;
    } else {
        write_bench_json(&dir.join("BENCH_e2e.json"), &machine, &first);
        let (traced, traced_ok) = run_pass(args, true, "traced");
        ok &= traced_ok;
        write_bench_json(&dir.join("BENCH_layers.json"), &machine, &traced);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "battery: FAILED (a wrong result, a failed operation, or a child that did not finish)"
        );
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with(workload: &'static str, makespan: f64, ops: f64) -> ChildRun {
        let mut entries = Vec::new();
        for m in metrics::E2E {
            let v = match m.name {
                "makespan_s" => makespan,
                "ops_per_s" => ops,
                _ => 1.0,
            };
            entries.push((
                m.name.to_string(),
                crate::stats::Summary::single(v).to_json(m.unit),
            ));
        }
        ChildRun {
            workload,
            detail: Value::Map(entries),
            correct: true,
        }
    }

    #[test]
    fn child_output_round_trips() {
        let stdout = "machine: x\n  table\ndetail {\"makespan_s\":{\"median\":0.5,\"q1\":0.4,\"q3\":0.6,\"n\":9,\"unit\":\"s\"}}\n\
                      {\"correct\":true,\"attempted\":9,\"failed\":0,\"metrics\":{}}\n";
        let run = parse_child("task_fib", stdout).unwrap();
        assert!(run.correct);
        assert_eq!(run.median("makespan_s"), Some(0.5));
        assert_eq!(run.median("nope"), None);
        assert!(parse_child("task_fib", "garbage\n").is_err());
        let wrong = stdout.replace("\"correct\":true", "\"correct\":false");
        assert!(!parse_child("task_fib", &wrong).unwrap().correct);
    }

    #[test]
    fn aa_flags_pairs_beyond_their_bound_in_either_direction() {
        let makespan_bound = metrics::e2e("makespan_s").unwrap().bound;
        let a = [run_with("task_fib", 1.0, 100.0)];
        let (_, agree) = compare_aa(
            &a,
            &[run_with("task_fib", 1.0 + makespan_bound * 0.9, 100.0)],
        );
        assert!(agree);
        let (report, agree) = compare_aa(
            &a,
            &[run_with("task_fib", 1.0 + makespan_bound * 1.2, 100.0)],
        );
        assert!(!agree && report.contains("DISAGREE"));
        // Higher-is-better metrics worsen downwards; order of passes is moot.
        let low_ops = 100.0 * (1.0 - metrics::e2e("ops_per_s").unwrap().bound * 1.2);
        let (_, agree) = compare_aa(&a, &[run_with("task_fib", 1.0, low_ops)]);
        assert!(!agree);
        let (_, agree) = compare_aa(&[run_with("task_fib", 1.0, low_ops)], &a);
        assert!(!agree);
        let (report, agree) = compare_aa(&a, &[]);
        assert!(!agree && report.contains("missing"));
    }
}
