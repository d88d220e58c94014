//! One function per figure/table of the paper, each wrapped by a binary in
//! `src/bin/` (`repro_all` runs them all). Every function returns
//! [`Table`]s that the binaries print and write to CSV.

use xgomp_bots::{BotsApp, Scale};
use xgomp_core::{
    render_task_counts, render_timeline, DlbConfig, DlbStrategy, RuntimeConfig, StatsSnapshot,
};
use xgomp_posp::plot::{generate_par, PlotParams};

use crate::grain::{self, GrainParams};
use crate::harness::{fmt_count, fmt_secs, time_app, time_region, ExpCtx, Measured};
use crate::table::Table;

/// The five runtime presets of Figs. 1/4/5, in presentation order.
fn preset(name: &str, threads: usize) -> RuntimeConfig {
    match name {
        "GOMP" => RuntimeConfig::gomp(threads),
        "LOMP" => RuntimeConfig::lomp(threads),
        "XLOMP" => RuntimeConfig::xlomp(threads),
        "XGOMP" => RuntimeConfig::xgomp(threads),
        "XGOMPTB" => RuntimeConfig::xgomptb(threads),
        other => panic!("unknown preset {other}"),
    }
}

fn app_config(name: &str, app: BotsApp, ctx: &ExpCtx) -> RuntimeConfig {
    preset(name, ctx.threads).cost_model(app.suggested_cost_model())
}

// ---------------------------------------------------------------- Fig 1

/// Fig. 1: the motivation plot — GOMP vs LOMP vs XLOMP execution times
/// across the BOTS suite.
pub fn fig01(ctx: &ExpCtx) -> Table {
    let runtimes = ["GOMP", "LOMP", "XLOMP"];
    let mut t = Table::new(
        format!(
            "Fig. 1: BOTS execution time, {} threads (lower is better)",
            ctx.threads
        ),
        &["app", "GOMP", "LOMP", "XLOMP", "GOMP/XLOMP"],
    );
    for app in BotsApp::ALL {
        let times: Vec<f64> = runtimes
            .iter()
            .map(|r| time_app(&app_config(r, app, ctx), app, ctx.scale, ctx.reps).secs)
            .collect();
        t.row(vec![
            app.name().into(),
            fmt_secs(times[0]),
            fmt_secs(times[1]),
            fmt_secs(times[2]),
            format!("{:.1}x", times[0] / times[2].max(1e-9)),
        ]);
    }
    t
}

// ---------------------------------------------------------------- Fig 3

/// Fig. 3: per-thread load-imbalance profile of Fib and Sort under
/// XGOMP: timeline summary (left) and task-count summary (right).
pub fn fig03(ctx: &ExpCtx) -> String {
    let mut out = String::new();
    for app in [BotsApp::Fib, BotsApp::Sort] {
        let cfg = RuntimeConfig::xgomp(ctx.threads)
            .cost_model(app.suggested_cost_model())
            .profiling(true);
        let rt = cfg.build();
        let run = rt.parallel(|c| app.run_par(c, ctx.scale));
        out.push_str(&format!("\n===== {} under XGOMP =====\n", app.name()));
        out.push_str(&render_timeline(&run.logs, 96));
        out.push_str(&render_task_counts(&run.stats.workers));
    }
    out
}

// ------------------------------------------------------------ Figs 4, 5

/// Figs. 4 and 5: absolute execution time of all five runtimes, and the
/// XGOMP/XGOMPTB improvement over GOMP derived from the same runs.
pub fn fig04_05(ctx: &ExpCtx) -> (Table, Table) {
    let runtimes = ["GOMP", "XGOMP", "XGOMPTB", "LOMP", "XLOMP"];
    let mut fig4 = Table::new(
        format!(
            "Fig. 4: absolute BOTS execution time, {} threads (lower is better)",
            ctx.threads
        ),
        &["app", "GOMP", "XGOMP", "XGOMPTB", "LOMP", "XLOMP"],
    );
    let mut fig5 = Table::new(
        "Fig. 5: improvement over GOMP (higher is better)",
        &["app", "XGOMP", "XGOMPTB"],
    );
    for app in BotsApp::ALL {
        let times: Vec<f64> = runtimes
            .iter()
            .map(|r| time_app(&app_config(r, app, ctx), app, ctx.scale, ctx.reps).secs)
            .collect();
        fig4.row(vec![
            app.name().into(),
            fmt_secs(times[0]),
            fmt_secs(times[1]),
            fmt_secs(times[2]),
            fmt_secs(times[3]),
            fmt_secs(times[4]),
        ]);
        fig5.row(vec![
            app.name().into(),
            format!("{:.1}x", times[0] / times[1].max(1e-9)),
            format!("{:.1}x", times[0] / times[2].max(1e-9)),
        ]);
    }
    (fig4, fig5)
}

// ---------------------------------------------------------------- Fig 6

/// Fig. 6: scaling — execution time vs thread count for GOMP, XGOMP,
/// XGOMPTB on every app.
pub fn fig06(ctx: &ExpCtx) -> Table {
    let mut threads: Vec<usize> = vec![1, 2, 4, 8];
    if !threads.contains(&ctx.threads) {
        threads.push(ctx.threads);
    }
    threads.sort_unstable();
    threads.dedup();
    let mut t = Table::new(
        "Fig. 6: scaling, execution time vs threads (lower is better)",
        &["app", "runtime", "threads", "time"],
    );
    for app in BotsApp::ALL {
        for rt_name in ["GOMP", "XGOMP", "XGOMPTB"] {
            for &n in &threads {
                let cfg = preset(rt_name, n).cost_model(app.suggested_cost_model());
                let m = time_app(&cfg, app, ctx.scale, ctx.reps);
                t.row(vec![
                    app.name().into(),
                    rt_name.into(),
                    n.to_string(),
                    fmt_secs(m.secs),
                ]);
            }
        }
    }
    t
}

// --------------------------------------------- Table I, Fig 7, Tables II/III

/// The DLB parameter grid for one scale (the paper's §VI-B sweep,
/// reduced at smaller scales to keep wall time sane).
fn dlb_grid(scale: Scale) -> Vec<DlbConfig> {
    let (vic, steal, tint, ploc): (&[usize], &[usize], &[u64], &[f64]) = match scale {
        Scale::Test => (&[1, 4], &[4, 32], &[100, 10_000], &[0.5, 1.0]),
        Scale::Quick => (&[1, 8, 24], &[1, 32], &[1_000, 100_000], &[0.03, 1.0]),
        Scale::Paper => (
            &[1, 8, 16, 24],
            &[1, 8, 16, 32],
            &[1_000, 10_000, 100_000],
            &[0.03, 0.5, 1.0],
        ),
    };
    let mut grid = Vec::new();
    for &v in vic {
        for &s in steal {
            for &t in tint {
                for &p in ploc {
                    grid.push(
                        DlbConfig::new(DlbStrategy::WorkSteal)
                            .n_victim(v)
                            .n_steal(s)
                            .t_interval(t)
                            .p_local(p),
                    );
                }
            }
        }
    }
    grid
}

/// Everything the §VI-B DLB study produces.
pub struct DlbStudy {
    /// Table I: best settings per app per strategy.
    pub table1: Table,
    /// Fig. 7: best NA-RP / NA-WS vs static (XGOMPTB).
    pub fig7: Table,
    /// Table II: runtime statistics under the best DLB settings.
    pub table2: Table,
    /// Table III: runtime statistics under static balancing.
    pub table3: Table,
}

fn stats_row(app: BotsApp, label: &str, secs: f64, s: &StatsSnapshot) -> Vec<String> {
    vec![
        app.name().into(),
        label.into(),
        fmt_secs(secs),
        fmt_count(s.ntasks_self),
        fmt_count(s.ntasks_local),
        fmt_count(s.ntasks_remote),
        fmt_count(s.ntasks_static_push),
        fmt_count(s.ntasks_imm_exec),
        fmt_count(s.nreq_sent),
        fmt_count(s.nreq_handled),
        fmt_count(s.nreq_has_steal),
        fmt_count(s.ntasks_stolen),
        fmt_count(s.nsteal_local),
    ]
}

const STATS_HEADERS: [&str; 13] = [
    "app",
    "strategy",
    "time",
    "self",
    "local",
    "remote",
    "static-push",
    "imm-exec",
    "req-sent",
    "req-handled",
    "req-w/steal",
    "total-steal",
    "local-steal",
];

/// Runs the full §VI-B study: parameter sweep per app per strategy,
/// best-vs-static comparison, and the statistics tables.
pub fn dlb_study(ctx: &ExpCtx) -> DlbStudy {
    let mut table1 = Table::new(
        "Table I: optimal DLB settings (sweep winners)",
        &[
            "app",
            "strategy",
            "n_victim",
            "n_steal",
            "t_interval",
            "p_local",
            "time",
        ],
    );
    let mut fig7 = Table::new(
        "Fig. 7: best DLB vs static load balancing (lower is better)",
        &[
            "app",
            "STATIC",
            "BEST(NA-RP)",
            "BEST(NA-WS)",
            "RP gain",
            "WS gain",
        ],
    );
    let mut table2 = Table::new(
        "Table II: runtime statistics with NA-RP / NA-WS",
        &STATS_HEADERS,
    );
    let mut table3 = Table::new("Table III: runtime statistics with SLB", &STATS_HEADERS);

    for app in BotsApp::ALL {
        let base = RuntimeConfig::xgomptb(ctx.threads).cost_model(app.suggested_cost_model());
        // Static baseline (+ its §V statistics → Table III).
        let slb = time_app(&base, app, ctx.scale, ctx.reps);
        table3.row(stats_row(app, "SLB", slb.secs, &slb.stats.total()));

        let mut best_times = Vec::new();
        for strategy in [DlbStrategy::RedirectPush, DlbStrategy::WorkSteal] {
            let mut best: Option<(f64, DlbConfig, Measured)> = None;
            for cfg in dlb_grid(ctx.scale) {
                let cfg = DlbConfig { strategy, ..cfg };
                let run = time_app(&base.clone().dlb(cfg), app, ctx.scale, 1);
                if best.as_ref().map(|(b, _, _)| run.secs < *b).unwrap_or(true) {
                    best = Some((run.secs, cfg, run));
                }
            }
            let (_, cfg, _) = best.as_ref().unwrap();
            // Re-measure the winner at full reps for stable reporting.
            let confirmed = time_app(&base.clone().dlb(*cfg), app, ctx.scale, ctx.reps);
            table1.row(vec![
                app.name().into(),
                strategy.name().into(),
                cfg.n_victim.to_string(),
                cfg.n_steal.to_string(),
                cfg.t_interval.to_string(),
                format!("{:.2}", cfg.p_local),
                fmt_secs(confirmed.secs),
            ]);
            table2.row(stats_row(
                app,
                strategy.name(),
                confirmed.secs,
                &confirmed.stats.total(),
            ));
            best_times.push(confirmed.secs);
        }
        fig7.row(vec![
            app.name().into(),
            fmt_secs(slb.secs),
            fmt_secs(best_times[0]),
            fmt_secs(best_times[1]),
            format!("{:.2}x", slb.secs / best_times[0].max(1e-9)),
            format!("{:.2}x", slb.secs / best_times[1].max(1e-9)),
        ]);
    }
    DlbStudy {
        table1,
        fig7,
        table2,
        table3,
    }
}

// ---------------------------------------------------------------- Fig 8

/// Fig. 8: PoSp throughput (MH/s) vs task batch size, GOMP vs XGOMPTB.
pub fn fig08(ctx: &ExpCtx) -> Table {
    let (k, batches): (u32, &[usize]) = match ctx.scale {
        Scale::Test => (10, &[1, 16, 256]),
        Scale::Quick => (14, &[1, 4, 16, 64, 256, 1024, 4096]),
        Scale::Paper => (17, &[1, 4, 16, 64, 256, 1024, 4096, 8192, 16384]),
    };
    let mut t = Table::new(
        format!("Fig. 8: PoSp throughput vs batch size (2^{k} puzzles, MH/s, higher is better)"),
        &["batch", "GOMP MH/s", "XGOMPTB MH/s", "speedup"],
    );
    for &batch in batches {
        let params = PlotParams {
            k,
            batch,
            challenge: 0xC41A,
            n_buckets: 256,
        };
        let hashes = params.n_puzzles() as f64;
        let mut rates = Vec::new();
        for rt_name in ["GOMP", "XGOMPTB"] {
            let cfg = preset(rt_name, ctx.threads);
            let m = time_region(&cfg, ctx.reps, |c| {
                let plot = generate_par(c, &params);
                assert_eq!(plot.len(), params.n_puzzles());
            });
            rates.push(hashes / m.secs / 1e6);
        }
        t.row(vec![
            batch.to_string(),
            format!("{:.2}", rates[0]),
            format!("{:.2}", rates[1]),
            format!("{:.2}x", rates[1] / rates[0].max(1e-12)),
        ]);
    }
    t
}

// ----------------------------------------------------------- Figs 9, 10

/// Steal-size axis of the surfaces: Eq. 1 values ≈ {2,10,64,404,2560}
/// realized by concrete (n_victim, n_steal, t_interval) triples.
fn steal_points() -> Vec<(f64, DlbConfig)> {
    let mk = |v: usize, s: usize, t: u64| {
        DlbConfig::new(DlbStrategy::WorkSteal)
            .n_victim(v)
            .n_steal(s)
            .t_interval(t)
    };
    vec![
        (2.0, mk(1, 8, 10_000)),
        (10.0, mk(4, 10, 10_000)),
        (64.0, mk(8, 32, 10_000)),
        (404.0, mk(24, 67, 10_000)),
        (2560.0, mk(24, 320, 1_000)),
    ]
}

/// Figs. 9/10: DLB improvement over static XGOMPTB as a function of
/// task size × steal size (the 3-D surface, printed as a grid).
pub fn surface(ctx: &ExpCtx, strategy: DlbStrategy) -> Table {
    let fig = match strategy {
        DlbStrategy::RedirectPush => "Fig. 9 (NA-RP)",
        DlbStrategy::WorkSteal => "Fig. 10 (NA-WS)",
    };
    let budget: u64 = match ctx.scale {
        Scale::Test => 20_000_000,
        Scale::Quick => 150_000_000,
        Scale::Paper => 1_000_000_000,
    };
    let task_sizes: &[u64] = &[10, 100, 1_000, 10_000, 100_000];
    let mut t = Table::new(
        format!("{fig}: improvement over static (×) by task size × steal size"),
        &["task_cycles", "s=2", "s=10", "s=64", "s=404", "s=2560"],
    );
    // p_local follows the Table IV guidance per task-size class.
    for &size in task_sizes {
        let p = GrainParams::for_task_size(size, budget);
        // Tasks model memory traffic proportional to their compute (the
        // paper's tasks touch real arrays; pure spin would make NUMA
        // locality free). Calibrated so a remote execution costs ~5-10%
        // of the task's own time, as on real NUMA parts.
        let accesses = (size / 5_000).clamp(1, 100);
        let base = RuntimeConfig::xgomptb(ctx.threads)
            .cost_model(xgomp_core::CostModel::data_heavy(accesses));
        let t_static = time_region(&base, ctx.reps, |c| {
            grain::run(c, &p);
        })
        .secs;
        let mut row = vec![size.to_string()];
        for (_s, cfg) in steal_points() {
            let p_local = xgomp_core::guidelines::recommend_dlb(size).p_local;
            let dlb = DlbConfig {
                strategy,
                p_local,
                ..cfg
            };
            let t_dlb = time_region(&base.clone().dlb(dlb), ctx.reps, |c| {
                grain::run(c, &p);
            })
            .secs;
            row.push(format!("{:.2}", t_static / t_dlb.max(1e-9)));
        }
        t.row(row);
    }
    t
}

// ------------------------------------------------- §VI-A task-size survey

/// The §VI-A task-size characterization: per-app task-size histograms
/// measured with the §V profiler (the data behind the paper's "we order
/// applications based on their task size" and Table IV's classes).
pub fn task_sizes(ctx: &ExpCtx) -> Table {
    let mut t = Table::new(
        "§VI-A: measured task-size distribution per app (profiler TASK events)",
        &["app", "tasks", "mean cycles", "modal decade", "min", "max"],
    );
    for app in BotsApp::ALL {
        let cfg = RuntimeConfig::xgomptb(ctx.threads).profiling(true);
        let rt = cfg.build();
        let run = rt.parallel(|c| app.run_par(c, ctx.scale));
        let h = xgomp_core::TaskSizeHistogram::from_logs(&run.logs);
        t.row(vec![
            app.name().into(),
            h.count.to_string(),
            h.mean().to_string(),
            h.modal_decade_index()
                .map_or("-".into(), |i| format!("10^{i}")),
            h.min_ticks.to_string(),
            h.max_ticks.to_string(),
        ]);
    }
    t
}

// -------------------------------------------------------- Table IV, Fig 11

/// Table IV: the tuning guidelines, as encoded in
/// [`xgomp_core::guidelines`].
pub fn table4() -> Table {
    let mut t = Table::new(
        "Table IV: optimal DLB settings per task size (guidelines)",
        &[
            "task size (cycles)",
            "best DLB",
            "best P_local",
            "steal size",
            "realized config",
        ],
    );
    for g in xgomp_core::guidelines::guidelines() {
        t.row(vec![
            g.label.into(),
            g.strategy.name().into(),
            format!("{:.0}%", g.p_local * 100.0),
            if g.steal_size.1.is_infinite() {
                format!(">{:.0}", g.steal_size.0)
            } else {
                format!("{:.0}-{:.0}", g.steal_size.0, g.steal_size.1)
            },
            format!(
                "v={} s={} t={} p={:.2}",
                g.config.n_victim, g.config.n_steal, g.config.t_interval, g.config.p_local
            ),
        ]);
    }
    t
}

/// Fig. 11: STATIC vs NA-RP vs NA-WS with Table IV-guided parameters on
/// every app.
pub fn fig11(ctx: &ExpCtx) -> Table {
    let mut t = Table::new(
        "Fig. 11: guided DLB vs static (lower is better)",
        &["app", "STATIC", "NA-RP", "NA-WS", "best"],
    );
    for app in BotsApp::ALL {
        let base = RuntimeConfig::xgomptb(ctx.threads).cost_model(app.suggested_cost_model());
        let guided = xgomp_core::guidelines::recommend_dlb(app.typical_task_cycles());
        let t_static = time_app(&base, app, ctx.scale, ctx.reps).secs;
        let t_rp = time_app(
            &base.clone().dlb(DlbConfig {
                strategy: DlbStrategy::RedirectPush,
                ..guided
            }),
            app,
            ctx.scale,
            ctx.reps,
        )
        .secs;
        let t_ws = time_app(
            &base.clone().dlb(DlbConfig {
                strategy: DlbStrategy::WorkSteal,
                ..guided
            }),
            app,
            ctx.scale,
            ctx.reps,
        )
        .secs;
        let best = if t_static <= t_rp && t_static <= t_ws {
            "STATIC"
        } else if t_rp <= t_ws {
            "NA-RP"
        } else {
            "NA-WS"
        };
        t.row(vec![
            app.name().into(),
            fmt_secs(t_static),
            fmt_secs(t_rp),
            fmt_secs(t_ws),
            best.into(),
        ]);
    }
    t
}
