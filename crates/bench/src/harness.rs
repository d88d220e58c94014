//! Shared experiment machinery: CLI options, timed/verified runs.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::sync::OnceLock;

use xgomp_bots::{BotsApp, Scale};
use xgomp_core::{RuntimeConfig, TeamStats};

/// Options shared by every experiment binary.
#[derive(Debug, Clone)]
pub struct ExpCtx {
    /// Input scale.
    pub scale: Scale,
    /// Team size.
    pub threads: usize,
    /// Repetitions (median reported).
    pub reps: usize,
    /// Directory for CSV outputs.
    pub out_dir: PathBuf,
}

impl Default for ExpCtx {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2);
        ExpCtx {
            scale: Scale::Quick,
            threads: (2 * cores).max(4),
            reps: 3,
            out_dir: PathBuf::from("results"),
        }
    }
}

/// Parses the common CLI flags (see crate docs). Unknown flags abort
/// with usage help.
pub fn parse_args() -> ExpCtx {
    let mut ctx = ExpCtx::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1).cloned();
        let take = |name: &str| -> String {
            value.clone().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            })
        };
        match flag {
            "--scale" => {
                ctx.scale = match take("--scale").as_str() {
                    "test" => Scale::Test,
                    "quick" => Scale::Quick,
                    "paper" => Scale::Paper,
                    other => {
                        eprintln!("unknown scale `{other}` (test|quick|paper)");
                        std::process::exit(2);
                    }
                };
                i += 2;
            }
            "--threads" => {
                ctx.threads = take("--threads").parse().unwrap_or_else(|_| {
                    eprintln!("--threads expects a number");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--reps" => {
                ctx.reps = take("--reps").parse().unwrap_or_else(|_| {
                    eprintln!("--reps expects a number");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--out" => {
                ctx.out_dir = PathBuf::from(take("--out"));
                i += 2;
            }
            "--help" | "-h" => {
                println!("flags: --scale test|quick|paper  --threads N  --reps N  --out DIR");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }
    ctx
}

/// One timed, verified application run.
#[derive(Debug)]
pub struct Measured {
    /// Median wall-clock seconds over the repetitions.
    pub secs: f64,
    /// §V counter totals from the median run.
    pub stats: TeamStats,
}

/// Sequential-reference digests, computed once per (app, scale).
fn expected_digest(app: BotsApp, scale: Scale) -> u64 {
    static CACHE: OnceLock<Mutex<HashMap<(BotsApp, Scale), u64>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(&d) = cache.lock().unwrap().get(&(app, scale)) {
        return d;
    }
    let d = app.run_seq(scale);
    cache.lock().unwrap().insert((app, scale), d);
    d
}

/// Runs `app` on a runtime built from `cfg`, `reps` times; verifies the
/// digest against the sequential reference every time; returns the
/// median time and the stats of the median run.
pub fn time_app(cfg: &RuntimeConfig, app: BotsApp, scale: Scale, reps: usize) -> Measured {
    let expect = expected_digest(app, scale);
    let rt = cfg.clone().build();
    // Warmup run (first-touch allocation, thread spawn paths), excluded.
    let warm = rt.parallel(|ctx| app.run_par(ctx, scale));
    assert_eq!(warm.result, expect, "{} warmup wrong", app.name());
    let mut runs: Vec<(f64, TeamStats)> = (0..reps.max(1))
        .map(|_| {
            let out = rt.parallel(|ctx| app.run_par(ctx, scale));
            assert_eq!(
                out.result,
                expect,
                "{} produced a wrong result under {}",
                app.name(),
                cfg.name()
            );
            (out.wall.as_secs_f64(), out.stats)
        })
        .collect();
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    // Lower median: on a noisy shared host, scheduler outliers only
    // inflate, so the lower median is the better central estimate.
    let mid = (runs.len() - 1) / 2;
    let (secs, stats) = runs.swap_remove(mid);
    Measured { secs, stats }
}

/// Times an arbitrary region body (synthetic workloads, PoSp).
pub fn time_region<F>(cfg: &RuntimeConfig, reps: usize, mut body: F) -> Measured
where
    F: FnMut(&xgomp_core::TaskCtx<'_>),
{
    let rt = cfg.clone().build();
    let _warm = rt.parallel(|ctx| body(ctx));
    let mut runs: Vec<(f64, TeamStats)> = (0..reps.max(1))
        .map(|_| {
            let out = rt.parallel(|ctx| body(ctx));
            (out.wall.as_secs_f64(), out.stats)
        })
        .collect();
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mid = (runs.len() - 1) / 2;
    let (secs, stats) = runs.swap_remove(mid);
    Measured { secs, stats }
}

/// Pretty seconds: `12.3ms`, `1.234s`, …
pub fn fmt_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{s:.3}s")
    }
}

/// Pretty counts: `1.23M`, `45.6K`, …
pub fn fmt_count(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.2}B", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.2}M", n as f64 / 1e6)
    } else if n >= 10_000 {
        format!("{:.1}K", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}
