//! Open-loop overload SLO harness: fixed-rate load past saturation,
//! mixed QoS classes, per-class latency percentiles and shed accounting.
//!
//! The serving claim under test: past saturation, admission quotas and
//! deadlines convert unbounded queueing into *typed, bounded* loss —
//! latency-sensitive work keeps a bounded p99 while background work is
//! shed (deadline) or refused (quota), and the outcome partition stays
//! exact: `submitted == completed + cancelled + shed`.
//!
//! Method: a closed-loop burst first calibrates the saturation
//! throughput; the measured phase then offers jobs *open-loop* at 2×
//! that rate — submission times are scheduled on a wall clock, never
//! gated on completions, which is what makes overload visible (a
//! closed loop self-throttles; an open loop queues). The mix is 20%
//! latency-sensitive (no deadline), 40% normal (roomy deadline), 40%
//! background (deadline shorter than the steady-state queue delay, so
//! admitted background jobs shed deterministically once the queue
//! fills).
//!
//! ```text
//! cargo run --release -p xgomp-bench --bin overload_slo -- --scale test
//! ```
//!
//! Emits the human table, `overload_slo.csv`, and a machine-readable
//! `overload_slo.json` under `--out` (CI schema-checks the JSON).

use std::time::{Duration, Instant};

use serde::Serialize;
use xgomp_bench::{parse_args, Table};
use xgomp_bots::Scale;
use xgomp_core::clock;
use xgomp_service::{QosClass, ServerConfig, SubmitOptions, TaskServer};

/// Spins for `ticks` timestamp-counter cycles; returns the end stamp.
fn spin_work(ticks: u64) -> u64 {
    let end = clock::now().saturating_add(ticks);
    loop {
        let t = clock::now();
        if t >= end {
            return t;
        }
        std::hint::spin_loop();
    }
}

/// Closed-loop calibration: blocking submits self-throttle at
/// `max_in_flight`, so the completion rate *is* the service capacity.
fn calibrate(server: &TaskServer, work_ticks: u64, jobs: usize) -> f64 {
    let t0 = Instant::now();
    let handles: Vec<_> = (0..jobs)
        .map(|_| server.submit(move |_| spin_work(work_ticks)).unwrap())
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    jobs as f64 / t0.elapsed().as_secs_f64().max(1e-9)
}

/// The `q`-quantile (0..=1) of an unsorted latency sample, in seconds.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One QoS class's open-loop outcome, as written to `overload_slo.json`.
#[derive(Serialize)]
#[cfg_attr(test, derive(Default))]
struct ClassSummary {
    class: &'static str,
    submitted: u64,
    completed: u64,
    cancelled: u64,
    shed: u64,
    rejected: u64,
    goodput_jobs_per_sec: f64,
    p50_secs: f64,
    p99_secs: f64,
    p999_secs: f64,
}

/// The open-loop window's summary: `overload_slo.json`. The counts cover
/// the window only (the calibration burst is subtracted), so they equal
/// the sums over `classes`.
#[derive(Serialize)]
#[cfg_attr(test, derive(Default))]
struct Summary {
    bench: &'static str,
    threads: usize,
    max_in_flight: usize,
    saturation_jobs_per_sec: f64,
    offered_jobs_per_sec: f64,
    window_secs: f64,
    submitted: u64,
    completed: u64,
    cancelled: u64,
    shed: u64,
    rejected: u64,
    classes: Vec<ClassSummary>,
}

fn main() {
    let ctx = parse_args();
    // (job cycles-equivalent in ns, calibration jobs, open-loop window,
    // background deadline multiple of the job time, LS p99 budget).
    let (job_ns, calib_jobs, window, bg_deadline_mul, ls_budget) = match ctx.scale {
        Scale::Test => (800_000u64, 300, Duration::from_millis(400), 1.0, 0.25),
        Scale::Quick => (1_000_000, 1_000, Duration::from_millis(1_500), 1.0, 0.15),
        Scale::Paper => (1_000_000, 3_000, Duration::from_secs(5), 1.0, 0.10),
    };
    // Spin bodies: never oversubscribe physical cores (the pacing
    // thread needs one too), whatever --threads asked for.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    let threads = ctx.threads.min((cores / 2).clamp(2, 8));
    let max_in_flight = threads * 4;
    let server = TaskServer::start(
        ServerConfig::new(threads)
            .max_in_flight(max_in_flight)
            .ls_reserve(max_in_flight / 4)
            .background_cap(max_in_flight / 2),
    );
    let work_ticks = clock::ns_to_ticks(job_ns);
    let job_secs = job_ns as f64 * 1e-9;
    let bg_deadline = Duration::from_secs_f64(job_secs * bg_deadline_mul);
    let normal_deadline = Duration::from_secs_f64((job_secs * 100.0).max(0.1));

    let saturation = calibrate(&server, work_ticks, calib_jobs);
    // Blocking calibration submits count as normal-class jobs and bump
    // `rejected` on every internal backpressure retry; the open-loop
    // accounting (tables, JSON, per-class goodput) starts here.
    let rejected_before = server.stats().rejected;
    let class_base = server.class_stats();
    let offered = 2.0 * saturation;
    let n_total = ((offered * window.as_secs_f64()) as usize).clamp(100, 50_000);

    // 20% LS / 40% normal / 40% background, interleaved so every class
    // sees the whole window.
    const PATTERN: [QosClass; 10] = [
        QosClass::LatencySensitive,
        QosClass::Normal,
        QosClass::Background,
        QosClass::Normal,
        QosClass::Background,
        QosClass::LatencySensitive,
        QosClass::Normal,
        QosClass::Background,
        QosClass::Normal,
        QosClass::Background,
    ];
    let mut pending = Vec::with_capacity(n_total);
    let mut rejected = [0u64; 3];
    let start = Instant::now();
    for i in 0..n_total {
        // Open loop: the i-th submission is due at a fixed wall-clock
        // offset, regardless of how far behind the server is.
        let due = start + Duration::from_secs_f64(i as f64 / offered);
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let qos = PATTERN[i % PATTERN.len()];
        let opts = match qos {
            QosClass::LatencySensitive => SubmitOptions::from(qos),
            QosClass::Normal => SubmitOptions::from(qos).deadline(normal_deadline),
            QosClass::Background => SubmitOptions::from(qos).deadline(bg_deadline),
        };
        let t_submit = clock::now();
        match server.with(opts).try_submit(move |_| spin_work(work_ticks)) {
            Ok(h) => pending.push((qos, t_submit, h)),
            Err(e) => {
                assert!(e.is_backpressure(), "overload refusals are typed: {e:?}");
                rejected[qos.index()] += 1;
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();

    // Drain: completed jobs yield their end stamp (latency = end −
    // submit, both on the TSC); shed/cancelled ones their typed error.
    let mut lat: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for (qos, t_submit, h) in pending {
        match h.join() {
            Ok(end) => lat[qos.index()].push(clock::ticks_to_secs(end.saturating_sub(t_submit))),
            Err(e) => assert!(
                e.is_deadline_exceeded() || e.is_cancelled(),
                "only typed loss: {e:?}"
            ),
        }
    }
    while server.stats().in_flight != 0 {
        std::thread::yield_now();
    }
    for l in &mut lat {
        l.sort_by(f64::total_cmp);
    }
    let by_class = server.class_stats();

    let mut t = Table::new(
        format!(
            "open-loop overload SLO: {:.0}/s offered over {:.0}/s saturation ({threads} workers, \
             max_in_flight {max_in_flight}, ls_reserve {}, background_cap {})",
            offered,
            saturation,
            max_in_flight / 4,
            max_in_flight / 2,
        ),
        &[
            "class",
            "submitted",
            "completed",
            "cancelled",
            "shed",
            "rejected",
            "goodput/s",
            "p50",
            "p99",
            "p99.9",
        ],
    );
    let ms = |s: f64| format!("{:.3}ms", s * 1e3);
    let mut classes = Vec::new();
    for c in &by_class {
        let i = c.class.index();
        let base = &class_base[i];
        let (submitted, completed, cancelled, shed) = (
            c.submitted - base.submitted,
            c.completed - base.completed,
            c.cancelled - base.cancelled,
            c.shed - base.shed,
        );
        let l = &lat[i];
        let (p50, p99, p999) = (
            percentile(l, 0.50),
            percentile(l, 0.99),
            percentile(l, 0.999),
        );
        let goodput = completed as f64 / wall;
        t.row(vec![
            c.class.name().to_string(),
            submitted.to_string(),
            completed.to_string(),
            cancelled.to_string(),
            shed.to_string(),
            rejected[i].to_string(),
            format!("{goodput:.0}"),
            ms(p50),
            ms(p99),
            ms(p999),
        ]);
        classes.push(ClassSummary {
            class: c.class.name(),
            submitted,
            completed,
            cancelled,
            shed,
            rejected: rejected[i],
            goodput_jobs_per_sec: goodput,
            p50_secs: p50,
            p99_secs: p99,
            p999_secs: p999,
        });
    }
    t.print();
    t.write_csv(&ctx.out_dir, "overload_slo").expect("csv");

    // The SLO claims, asserted at every scale.
    let ls = &by_class[QosClass::LatencySensitive.index()];
    let bg = &by_class[QosClass::Background.index()];
    let ls_p99 = percentile(&lat[QosClass::LatencySensitive.index()], 0.99);
    assert!(ls.completed > 0, "LS work must flow under overload");
    assert_eq!(ls.shed, 0, "LS jobs carry no deadline and are never shed");
    assert_eq!(ls.cancelled, 0, "nothing cancels LS jobs in this harness");
    assert!(
        bg.shed > 0,
        "2x overload must shed background work past its deadline \
         (bg submitted {}, completed {})",
        bg.submitted,
        bg.completed,
    );
    assert!(
        ls_p99 <= ls_budget,
        "LS p99 {:.3}ms exceeds the {:.0}ms budget — bounded in-flight \
         must bound LS latency under overload",
        ls_p99 * 1e3,
        ls_budget * 1e3,
    );
    let report = server.shutdown();
    let s = &report.stats;
    assert_eq!(
        s.submitted,
        s.completed + s.cancelled + s.shed,
        "outcome partition must be exact"
    );
    assert_eq!(s.rejected - rejected_before, rejected.iter().sum::<u64>());

    let open = |total: u64, calib: fn(&xgomp_service::QosClassStats) -> u64| -> u64 {
        total - class_base.iter().map(calib).sum::<u64>()
    };
    let summary = Summary {
        bench: "overload_slo",
        threads,
        max_in_flight,
        saturation_jobs_per_sec: saturation,
        offered_jobs_per_sec: offered,
        window_secs: wall,
        submitted: open(s.submitted, |c| c.submitted),
        completed: open(s.completed, |c| c.completed),
        cancelled: open(s.cancelled, |c| c.cancelled),
        shed: open(s.shed, |c| c.shed),
        rejected: s.rejected - rejected_before,
        classes,
    };
    let json = serde_json::to_string(&summary).expect("summary serializes");
    std::fs::create_dir_all(&ctx.out_dir).expect("out dir");
    let json_path = ctx.out_dir.join("overload_slo.json");
    std::fs::write(&json_path, &json).expect("write json");

    println!();
    println!(
        "OK: LS p99 {:.3}ms within {:.0}ms budget; background shed {} + refused {} under \
         2x overload; partition exact ({} = {} + {} + {}). JSON: {}",
        ls_p99 * 1e3,
        ls_budget * 1e3,
        bg.shed,
        rejected[QosClass::Background.index()],
        s.submitted,
        s.completed,
        s.cancelled,
        s.shed,
        json_path.display(),
    );
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use serde::Value;

    use super::*;

    /// The keys CI's schema step checks, top level and per class.
    const TOP_KEYS: &str = "threads max_in_flight saturation_jobs_per_sec offered_jobs_per_sec \
                            window_secs submitted completed cancelled shed rejected classes";
    const CLASS_KEYS: &str = "class submitted completed cancelled shed rejected \
                              goodput_jobs_per_sec p50_secs p99_secs p999_secs";

    /// Asserts that object `v` has exactly the keys in `want` and that its
    /// partition holds; returns its `submitted`.
    fn check(v: &Value, want: &str) -> u64 {
        let Value::Map(entries) = v else {
            panic!("expected an object, found {v:?}")
        };
        let keys: BTreeSet<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, want.split_whitespace().collect());
        let [submitted, completed, cancelled, shed] =
            ["submitted", "completed", "cancelled", "shed"].map(|k| match serde::field(v, k) {
                Ok(Value::UInt(n)) => *n,
                other => panic!("`{k}` is not a count: {other:?}"),
            });
        assert_eq!(submitted, completed + cancelled + shed);
        submitted
    }

    /// The JSON carries exactly the keys CI's schema step checks (plus the
    /// `bench` tag), and the partition holds top-level, per class and
    /// summed over the classes: a renamed field fails here, not only in CI.
    #[test]
    fn summary_json_has_the_schema_ci_checks() {
        let class = |submitted, completed, shed| ClassSummary {
            submitted,
            completed,
            shed,
            ..Default::default()
        };
        let summary = Summary {
            submitted: 60,
            completed: 30,
            shed: 30,
            classes: vec![class(20, 20, 0), class(40, 10, 30)],
            ..Default::default()
        };
        let json = serde_json::to_string(&summary).unwrap();
        let doc: Value = serde_json::from_str(&json).unwrap();
        let Ok(Value::Seq(classes)) = serde::field(&doc, "classes") else {
            panic!("`classes` is not an array")
        };
        let per_class: u64 = classes.iter().map(|c| check(c, CLASS_KEYS)).sum();
        assert_eq!(per_class, check(&doc, &format!("bench {TOP_KEYS}")));
    }
}
