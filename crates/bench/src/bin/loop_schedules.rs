//! Schedule comparison for the data-parallel loop subsystem: static vs
//! dynamic vs guided vs adaptive under uniform / skewed / bimodal
//! per-iteration cost, on the `dataloops` kernels.
//!
//! Every cell is checksum-verified against the kernel's sequential
//! reference, and the skewed rows assert the subsystem's acceptance
//! property: a dynamic-family schedule (guided or adaptive) beats the
//! static partition wall-clock, with the range-steal counters showing
//! the zone-local-first flow that got it there.
//!
//! ```text
//! cargo run --release -p xgomp-bench --bin loop_schedules -- --scale test
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use xgomp_bench::harness::fmt_secs;
use xgomp_bench::{parse_args, Table};
use xgomp_bots::dataloops::{CostProfile, Kernel, Mandelbrot, SkewedSpmv, Triangular};
use xgomp_bots::Scale;
use xgomp_core::{
    DlbConfig, DlbStrategy, LoopReport, LoopSchedule, MachineTopology, Runtime, RuntimeConfig,
    TaskCtx,
};

fn schedules() -> [LoopSchedule; 9] {
    [
        LoopSchedule::Static,
        LoopSchedule::Dynamic(64),
        LoopSchedule::Guided(16),
        LoopSchedule::Adaptive,
        LoopSchedule::Tss {
            first: 1024,
            last: 32,
        },
        LoopSchedule::Factoring,
        LoopSchedule::WeightedFactoring,
        LoopSchedule::Awf,
        // Falls back to a fixed concrete member on a plain Runtime (no
        // server selector) — the column shows the fallback's cost.
        LoopSchedule::Auto,
    ]
}

/// Column headers matching [`schedules`], in order.
const SCHEDULE_COLS: [&str; 9] = [
    "static",
    "dynamic",
    "guided",
    "adaptive",
    "tss",
    "factoring",
    "wf",
    "awf",
    "auto",
];

/// Runs `kernel` under `sched`, verifying the checksum; returns the
/// median wall time and the last run's loop report.
fn run_one(
    cfg: &RuntimeConfig,
    kernel: &dyn Kernel,
    sched: LoopSchedule,
    reps: usize,
) -> (f64, LoopReport) {
    let rt = Runtime::new(cfg.clone());
    let expect = kernel.seq_checksum();
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let out = rt.parallel(|ctx| {
            let acc = AtomicU64::new(0);
            let report = ctx.parallel_for(0..kernel.len(), sched, |i, _| {
                acc.fetch_add(kernel.value(i), Ordering::Relaxed);
            });
            (acc.load(Ordering::Relaxed), report)
        });
        times.push(t0.elapsed().as_secs_f64());
        let (sum, report) = out.result;
        assert_eq!(sum, expect, "{}/{} checksum", kernel.name(), sched.name());
        assert_eq!(report.iterations, kernel.len());
        last = Some(report);
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], last.unwrap())
}

/// Times one checksummed run of an arbitrary iteration-space shape:
/// `run` drives whatever `parallel_for` flavour fits the shape and
/// returns `(checksum, report)`; the median wall time and last report
/// come back.
fn run_space(
    cfg: &RuntimeConfig,
    reps: usize,
    sched: LoopSchedule,
    expect: u64,
    run: impl Fn(&TaskCtx<'_>, LoopSchedule) -> (u64, LoopReport) + Sync,
) -> (f64, LoopReport) {
    let rt = Runtime::new(cfg.clone());
    let mut times = Vec::with_capacity(reps.max(1));
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let out = rt.parallel(|ctx| run(ctx, sched));
        times.push(t0.elapsed().as_secs_f64());
        let (sum, report) = out.result;
        assert_eq!(sum, expect, "space checksum under {}", sched.name());
        last = Some(report);
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], last.unwrap())
}

fn main() {
    let ctx = parse_args();
    let (spmv_n, tri_n, mandel) = match ctx.scale {
        Scale::Test => (30_000, 6_000, (96, 48, 384)),
        Scale::Quick => (150_000, 16_000, (256, 128, 768)),
        Scale::Paper => (600_000, 40_000, (512, 256, 2_048)),
    };

    // Two-socket topology so the per-zone pools and cross-zone range
    // stealing are actually exercised.
    let threads = ctx.threads.max(4);
    let cfg = RuntimeConfig::xgomptb(threads)
        .topology(MachineTopology::new(2, threads.div_ceil(2), 1))
        .dlb(DlbConfig::new(DlbStrategy::WorkSteal).t_interval(64));

    let cases: Vec<(Box<dyn Kernel>, CostProfile)> = vec![
        (
            Box::new(SkewedSpmv::new(spmv_n, CostProfile::Uniform, 11)),
            CostProfile::Uniform,
        ),
        (
            Box::new(SkewedSpmv::new(spmv_n, CostProfile::Skewed, 11)),
            CostProfile::Skewed,
        ),
        (
            Box::new(SkewedSpmv::new(spmv_n, CostProfile::Bimodal, 11)),
            CostProfile::Bimodal,
        ),
        (
            Box::new(Triangular::new(tri_n, CostProfile::Skewed, 11)),
            CostProfile::Skewed,
        ),
        (
            Box::new(Mandelbrot::new(mandel.0, mandel.1, mandel.2)),
            CostProfile::Bimodal,
        ),
    ];

    // `dynamic1` — batch size 1, the finest grain there is — runs on the
    // uniform profile only: what it tracks per commit is the claim path's
    // cost per iteration, and skew would only blur that.
    let mut headers = vec!["kernel", "profile"];
    headers.extend_from_slice(&SCHEDULE_COLS);
    headers.extend_from_slice(&["dynamic1", "best/static", "chunks", "local", "steals"]);
    let mut t = Table::new(
        format!(
            "parallel_for schedule comparison ({threads} workers, 2 sockets, NA-WS; \
             median of {} reps; checksum-verified)",
            ctx.reps
        ),
        &headers,
    );

    let mut skewed_ok = true;
    for (kernel, profile) in &cases {
        let mut times = Vec::new();
        let mut best_report = None;
        for sched in schedules() {
            let (secs, report) = run_one(&cfg, kernel.as_ref(), sched, ctx.reps);
            times.push(secs);
            if best_report.is_none() || secs <= *times.iter().min_by(|a, b| a.total_cmp(b)).unwrap()
            {
                best_report = Some(report);
            }
        }
        let t_static = times[0];
        // Every dynamic-family member competes against the static wall.
        let best_dyn = times[1..].iter().copied().fold(f64::INFINITY, f64::min);
        let speedup = t_static / best_dyn;
        if matches!(profile, CostProfile::Skewed) && best_dyn >= t_static {
            skewed_ok = false;
        }
        let dynamic1 = if matches!(profile, CostProfile::Uniform) {
            let (secs, report) = run_one(&cfg, kernel.as_ref(), LoopSchedule::Dynamic(1), ctx.reps);
            assert_eq!(report.chunks, kernel.len(), "b1 chunks are iterations");
            fmt_secs(secs)
        } else {
            "-".to_string()
        };
        let r = best_report.unwrap();
        let mut row = vec![kernel.name().to_string(), profile.name().to_string()];
        row.extend(times.iter().map(|&s| fmt_secs(s)));
        row.extend([
            dynamic1,
            format!("{speedup:.2}x"),
            r.chunks.to_string(),
            r.claimed_local.to_string(),
            r.range_steals.to_string(),
        ]);
        t.row(row);
    }
    t.print();
    t.write_csv(&ctx.out_dir, "loop_schedules").expect("csv");

    // ---- first-class iteration spaces × schedules ----------------------
    //
    // The same kernels driven through their *natural* shapes: the
    // Mandelbrot strip as a tiled 2-D rectangle (`parallel_for_2d`),
    // the triangular nest as a first-class triangular space
    // (`parallel_for_tri`) vs the legacy guarded square. Every cell is
    // checksum-verified; the `sched pts` / `noops cut` columns show the
    // guard iterations the triangular space never schedules.
    let mut sheaders = vec!["space", "kernel"];
    sheaders.extend_from_slice(&SCHEDULE_COLS);
    sheaders.extend_from_slice(&["iters", "sched pts", "noops cut"]);
    let mut st = Table::new(
        format!(
            "iteration-space shapes ({threads} workers, 2 sockets, NA-WS; \
             median of {} reps; checksum-verified)",
            ctx.reps
        ),
        &sheaders,
    );

    let mandel_k = Mandelbrot::new(mandel.0, mandel.1, mandel.2);
    let mandel_expect = mandel_k.seq_checksum();
    let (w, h) = (mandel.0, mandel.1);
    let tri_k = Triangular::new(tri_n, CostProfile::Skewed, 11);
    let tri_expect = tri_k.seq_checksum();
    let tri_pts = tri_n * (tri_n + 1) / 2;

    struct SpaceRow {
        space: &'static str,
        kernel: &'static str,
        times: Vec<f64>,
        report: LoopReport,
        sched_pts: u64,
        noops_cut: u64,
    }
    let mut rows: Vec<SpaceRow> = Vec::new();

    // 2-D rectangle: one point per pixel, row-major tiles.
    {
        let (mut times, mut report) = (Vec::new(), None);
        for sched in schedules() {
            let (secs, r) = run_space(&cfg, ctx.reps, sched, mandel_expect, |ctx, sched| {
                let acc = AtomicU64::new(0);
                let r = ctx.parallel_for_2d(h, w, sched, |(row, col), _| {
                    acc.fetch_add(mandel_k.value(row * w + col), Ordering::Relaxed);
                });
                (acc.load(Ordering::Relaxed), r)
            });
            times.push(secs);
            report = Some(r);
        }
        rows.push(SpaceRow {
            space: "rect2d",
            kernel: "mandelbrot",
            times,
            report: report.unwrap(),
            sched_pts: w * h,
            noops_cut: 0,
        });
    }

    // Legacy triangular shape: a square with a `c <= r` guard.
    {
        let (mut times, mut report) = (Vec::new(), None);
        for sched in schedules() {
            let (secs, r) = run_space(&cfg, ctx.reps, sched, tri_expect, |ctx, sched| {
                let acc = AtomicU64::new(0);
                let r = ctx.parallel_for_2d(tri_n, tri_n, sched, |(row, col), _| {
                    if col <= row {
                        acc.fetch_add(tri_k.pair_value(row, col), Ordering::Relaxed);
                    }
                });
                (acc.load(Ordering::Relaxed), r)
            });
            times.push(secs);
            report = Some(r);
        }
        rows.push(SpaceRow {
            space: "square+guard",
            kernel: "triangular",
            times,
            report: report.unwrap(),
            sched_pts: tri_n * tri_n,
            noops_cut: 0,
        });
    }

    // First-class triangular space: only the valid pairs exist.
    {
        let (mut times, mut report) = (Vec::new(), None);
        for sched in schedules() {
            let (secs, r) = run_space(&cfg, ctx.reps, sched, tri_expect, |ctx, sched| {
                let acc = AtomicU64::new(0);
                let r = ctx.parallel_for_tri(tri_n, sched, |(row, col), _| {
                    acc.fetch_add(tri_k.pair_value(row, col), Ordering::Relaxed);
                });
                (acc.load(Ordering::Relaxed), r)
            });
            times.push(secs);
            assert_eq!(r.iterations, tri_pts, "triangular runs only valid pairs");
            report = Some(r);
        }
        rows.push(SpaceRow {
            space: "triangular",
            kernel: "triangular",
            times,
            report: report.unwrap(),
            sched_pts: tri_pts,
            noops_cut: tri_k.eliminated_noops(),
        });
    }

    for r in &rows {
        let mut row = vec![r.space.to_string(), r.kernel.to_string()];
        row.extend(r.times.iter().map(|&s| fmt_secs(s)));
        row.extend([
            r.report.iterations.to_string(),
            r.sched_pts.to_string(),
            r.noops_cut.to_string(),
        ]);
        st.row(row);
    }
    st.print();
    st.write_csv(&ctx.out_dir, "loop_spaces").expect("csv");

    // ---- giant waved 1-D completion ------------------------------------
    //
    // A range past u32::MAX lowers onto panes and waves through the
    // same claim path; completion must conserve exactly in u64.
    let giant = u32::MAX as u64 + 5;
    let rt = Runtime::new(cfg.clone());
    let t0 = Instant::now();
    let out = rt.parallel(|ctx| {
        ctx.parallel_for(0..giant, LoopSchedule::Dynamic(1 << 20), |i, _| {
            std::hint::black_box(i);
        })
    });
    let secs = t0.elapsed().as_secs_f64();
    let report = out.result;
    assert_eq!(
        report.iterations, giant,
        "giant waved loop conserves in u64"
    );
    println!();
    println!(
        "giant waved loop: {giant} iterations (u32::MAX + 5) completed in {} \
         ({} chunks, {} range steals)",
        fmt_secs(secs),
        report.chunks,
        report.range_steals,
    );

    println!();
    if skewed_ok {
        println!(
            "OK: guided/adaptive beat static wall-clock on every skewed-cost kernel \
             (zone-local-first range flow; see local/steal counters above)."
        );
    } else {
        println!(
            "WARN: static won a skewed-cost row — expected only on heavily \
             oversubscribed or single-core hosts."
        );
    }
}
