//! Serve workloads: one closed-loop client against the task server.
//! `serve_wake` pings an idle (parked) server; `serve_burst` keeps it
//! saturated. Every job returns a seeded token the client checks.

use std::collections::VecDeque;
use std::time::Duration;

use xgomp_bots::rng::mix64;
use xgomp_core::{clock, TraceLevel};
use xgomp_service::{JobHandle, JobReport};

use crate::common::{spin_ticks, ticks_to_us, Sizing};
use crate::harness::{us_between, Ledger, Rep, Trace, Workload};
use crate::served::Served;
use crate::stats::{self, ratio};

/// What a job hands back: its token and the stamps of its body's first
/// and last instruction.
type Reply = (u64, u64, u64);

/// The client's stamps around one job: before the submit call, after it,
/// and when the join returned.
type ClientStamps = (u64, u64, u64);

/// `lat_tail_us` of a window. A window holds thousands of requests, so
/// p99 would be admissible (40 samples beyond it), but on this container
/// it follows the host: two passes of one binary read 115 and 148 µs on
/// `serve_wake`, where p95 moved 4 %.
const WINDOW_TAIL_PERCENTILE: f64 = 95.0;

/// Traced runs use windows a quarter the size, so that the base, traced
/// and trace-level phases each fit several.
const TRACED_WINDOW_DIVISOR: usize = 4;

fn token(seed: u64, index: u64) -> u64 {
    mix64(seed ^ mix64(index))
}

/// Spans of one served job from the client's stamps, the body's own
/// stamps, and the `JobReport` when the handle was probed for one.
fn job_spans(
    trace: &mut Trace,
    (t0, t1, t2): ClientStamps,
    (_, body_start, body_end): Reply,
    report: Option<JobReport>,
    joined_blocking: bool,
) {
    let request = trace.request();
    let root = trace.spans.push("job", t0, t2, None, request);
    trace.spans.push("submit_call", t0, t1, Some(root), request);
    let queued_from = match report {
        Some(r) => {
            trace.sample("queued_us", ticks_to_us(r.queued_cycles));
            trace.sample("run_us", ticks_to_us(r.run_cycles));
            body_start.saturating_sub(r.queued_cycles)
        }
        None => t1.min(body_start),
    };
    trace
        .spans
        .push("queued", queued_from, body_start, Some(root), request);
    trace
        .spans
        .push("run", body_start, body_end, Some(root), request);
    if joined_blocking {
        trace
            .spans
            .push("join_wake", body_end, t2, Some(root), request);
        trace.sample("lat_us", us_between(t0, t2));
    }
}

/// `(queued + run + join_wake) ÷ latency`, each a median measured on its
/// own: the stages of a served job are serial, so this should read ≈ 1.
fn reconstruct_ratio(trace: &Trace) -> f64 {
    let stages = stats::median(trace.samples("queued_us"))
        + stats::median(trace.samples("run_us"))
        + stats::median(&trace.spans.durations_us("join_wake"));
    ratio(stages, stats::median(trace.samples("lat_us")))
}

/// Fills in a window's job count and latency summary.
fn close_window(rep: &mut Rep, lat_us: &[f64], tail_percentile: f64) {
    rep.units = rep.attempted - rep.failed;
    let sorted = stats::sorted(lat_us);
    rep.lat_p50_us = stats::quantile_sorted(&sorted, 0.5);
    rep.lat_tail_us = stats::quantile_sorted(&sorted, tail_percentile / 100.0);
}

/// Times `SubmitterHandle::submit` (a reserved lane) on `n` jobs.
fn lane_leg(served: &mut Served, ledger: &mut Ledger, n: u64, think_ticks: u64) -> u64 {
    let mut lane = served.server.register_submitter(0);
    let mut calls_ns = Vec::with_capacity(n as usize);
    let mut failed = 0;
    for i in 0..n {
        spin_ticks(think_ticks);
        let t0 = clock::now();
        let handle = lane.submit(move |_| i);
        calls_ns.push(ticks_to_us(clock::now() - t0) * 1e3);
        failed += u64::from(!matches!(handle.map(JobHandle::join), Ok(Ok(v)) if v == i));
    }
    ledger.set_value(
        "service.server.lane_submit_call_ns",
        stats::median(&calls_ns),
    );
    failed
}

pub struct ServeWake {
    served: Served,
    seed: u64,
    next: u64,
    pings: usize,
    think_ticks: u64,
    leg_failed: u64,
    /// The window's request latencies; reused, so the client's own
    /// memory stays flat next to the server's.
    lat_us: Vec<f64>,
}

/// Think time between pings: five times what a worker spins before it
/// parks (≈ 10 µs), so every ping finds the team parked, and short enough
/// that the idle vCPU is not yet descheduled by the host — at 200 µs the
/// p50 moved between 48 and 73 µs with the hypervisor's mood.
const THINK_NS: u64 = 50_000;

impl ServeWake {
    /// One ping; returns the client stamps and the reply. `probe` spins
    /// on `is_done` to read the `JobReport` instead of blocking in `join`.
    fn ping(&mut self, probe: bool) -> Option<(ClientStamps, Reply, Option<JobReport>)> {
        spin_ticks(self.think_ticks);
        let expect = token(self.seed, self.next);
        self.next += 1;
        let t0 = clock::now();
        let handle = self
            .served
            .server
            .submit(move |_| {
                let started = clock::now();
                (expect, started, clock::now())
            })
            .ok()?;
        let t1 = clock::now();
        let report = if probe {
            while !handle.is_done() {
                std::hint::spin_loop();
            }
            handle.report()
        } else {
            None
        };
        let reply = handle.join().ok()?;
        let t2 = clock::now();
        let sane = reply.0 == expect && t0 <= reply.1 && reply.1 <= reply.2 && reply.2 <= t2;
        sane.then_some(((t0, t1, t2), reply, report))
    }

    fn window(&mut self, mut trace: Option<&mut Trace>) -> Rep {
        let mut rep = Rep::default();
        self.lat_us.clear();
        let started = clock::now();
        for i in 0..self.pings {
            // Traced windows alternate blocking pings (latency, join_wake)
            // with probing ones (`JobReport`): `join` consumes the handle.
            let probe = trace.is_some() && i % 2 == 1;
            rep.attempted += 1;
            match self.ping(probe) {
                Some((stamps, reply, report)) => {
                    if !probe {
                        self.lat_us.push(us_between(stamps.0, stamps.2));
                    }
                    if let Some(trace) = trace.as_deref_mut() {
                        job_spans(trace, stamps, reply, report, !probe);
                    }
                }
                None => rep.failed += 1,
            }
        }
        rep.wall_ticks = clock::now() - started;
        close_window(&mut rep, &self.lat_us, Self::TAIL_PERCENTILE);
        self.served.note(&rep, rep.attempted);
        rep
    }
}

impl Workload for ServeWake {
    const NAME: &'static str = "serve_wake";
    const UNIT: &'static str = "jobs";
    const TAIL_PERCENTILE: f64 = WINDOW_TAIL_PERCENTILE;
    const CALLER_IS_CLIENT: bool = true;
    const TAIL_PER_REP: bool = true;

    fn setup(seed: u64, sizing: &Sizing) -> Self {
        let mut pings = sizing.pick(4_000, 400);
        if sizing.traced {
            pings /= TRACED_WINDOW_DIVISOR;
        }
        let mut w = ServeWake {
            served: Served::start(sizing.workers, |cfg| cfg),
            seed,
            next: 0,
            pings: pings / 8,
            think_ticks: clock::ns_to_ticks(THINK_NS),
            leg_failed: 0,
            lat_us: Vec::with_capacity(pings),
        };
        w.window(None); // warm-up at an eighth of a window
        w.pings = pings;
        w
    }

    fn rep(&mut self) -> Rep {
        self.window(None)
    }

    fn traced_rep(&mut self, trace: &mut Trace) -> Rep {
        self.window(Some(trace))
    }

    fn set_trace_level(&mut self, level: TraceLevel) {
        self.served.server.set_trace_level(level);
    }

    fn layer_legs(&mut self, trace: &mut Trace, ledger: &mut Ledger, _budget: Duration) {
        ledger.set_value(
            "service.handle.lat_reconstruct_ratio",
            reconstruct_ratio(trace),
        );
        let n = self.pings as u64 / 2;
        self.leg_failed += lane_leg(&mut self.served, ledger, n, self.think_ticks);
    }

    fn teardown(self, trace: Option<(&mut Trace, &mut Ledger)>) -> u64 {
        self.leg_failed + self.served.finish(trace)
    }
}

pub struct ServeBurst {
    served: Served,
    seed: u64,
    next: u64,
    jobs: usize,
    job_ticks: u64,
    leg_failed: u64,
    lat_us: Vec<f64>,
}

const OUTSTANDING: usize = 64;
const JOB_NS: u64 = 2_000;
const MAX_IN_FLIGHT: usize = 256;

struct Pending {
    handle: JobHandle<Reply>,
    expect: u64,
    t0: u64,
    t1: u64,
}

impl ServeBurst {
    fn settle(&mut self, p: Pending, rep: &mut Rep, trace: Option<&mut Trace>) {
        let report = if trace.is_some() {
            p.handle.report()
        } else {
            None
        };
        match p.handle.join() {
            Ok(reply) if reply.0 == p.expect && reply.1 <= reply.2 => {
                let t2 = clock::now();
                self.lat_us.push(us_between(p.t0, t2));
                if let Some(trace) = trace {
                    job_spans(trace, (p.t0, p.t1, t2), reply, report, true);
                }
            }
            _ => rep.failed += 1,
        }
    }

    fn window(&mut self, mut trace: Option<&mut Trace>) -> Rep {
        let mut rep = Rep::default();
        self.lat_us.clear();
        let mut pending: VecDeque<Pending> = VecDeque::with_capacity(OUTSTANDING);
        let job_ticks = self.job_ticks;
        let started = clock::now();
        for _ in 0..self.jobs {
            if pending.len() == OUTSTANDING {
                let oldest = pending.pop_front().expect("window is full");
                self.settle(oldest, &mut rep, trace.as_deref_mut());
            }
            let expect = token(self.seed, self.next);
            self.next += 1;
            rep.attempted += 1;
            let t0 = clock::now();
            let submitted = self.served.server.submit(move |_| {
                let started = clock::now();
                spin_ticks(job_ticks);
                (expect, started, clock::now())
            });
            let t1 = clock::now();
            match submitted {
                Ok(handle) => pending.push_back(Pending {
                    handle,
                    expect,
                    t0,
                    t1,
                }),
                Err(_) => rep.failed += 1,
            }
        }
        for p in pending {
            self.settle(p, &mut rep, trace.as_deref_mut());
        }
        rep.wall_ticks = clock::now() - started;
        close_window(&mut rep, &self.lat_us, Self::TAIL_PERCENTILE);
        self.served.note(&rep, rep.attempted);
        rep
    }
}

impl Workload for ServeBurst {
    const NAME: &'static str = "serve_burst";
    const UNIT: &'static str = "jobs";
    const TAIL_PERCENTILE: f64 = WINDOW_TAIL_PERCENTILE;
    const CALLER_IS_CLIENT: bool = true;
    const TAIL_PER_REP: bool = true;

    fn setup(seed: u64, sizing: &Sizing) -> Self {
        let mut jobs = sizing.pick(400_000, 40_000);
        if sizing.traced {
            jobs /= TRACED_WINDOW_DIVISOR;
        }
        let mut w = ServeBurst {
            served: Served::start(sizing.workers, |cfg| cfg.max_in_flight(MAX_IN_FLIGHT)),
            seed,
            next: 0,
            jobs: jobs / 8,
            job_ticks: clock::ns_to_ticks(JOB_NS),
            leg_failed: 0,
            lat_us: Vec::with_capacity(jobs),
        };
        w.window(None); // warm-up at an eighth of a window
        w.jobs = jobs;
        w
    }

    fn rep(&mut self) -> Rep {
        self.window(None)
    }

    fn traced_rep(&mut self, trace: &mut Trace) -> Rep {
        self.window(Some(trace))
    }

    fn set_trace_level(&mut self, level: TraceLevel) {
        self.served.server.set_trace_level(level);
    }

    fn layer_legs(&mut self, trace: &mut Trace, ledger: &mut Ledger, _budget: Duration) {
        ledger.set_value(
            "service.handle.lat_reconstruct_ratio",
            reconstruct_ratio(trace),
        );
        let n = (self.jobs as u64 / 20).max(100);
        self.leg_failed += lane_leg(&mut self.served, ledger, n, 0);
    }

    fn teardown(self, trace: Option<(&mut Trace, &mut Ledger)>) -> u64 {
        self.leg_failed + self.served.finish(trace)
    }
}
