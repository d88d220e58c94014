//! Loop workloads, both through `TaskServer::submit_for`: `loop_posp`
//! (uniform tiny iterations at batch size 1 — the claim path) and
//! `loop_tri` (linearly growing rows under `Guided` — the balance path).

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xgomp_bots::dataloops::{CostProfile, Kernel, Triangular};
use xgomp_core::{clock, TaskCtx, TraceLevel};
use xgomp_posp::make_puzzle;
use xgomp_service::{JobHandle, LoopReport, LoopSchedule};

use crate::common::{ticks_to_us, Sizing, WorkerSlots};
use crate::harness::{Ledger, Rep, Trace, Workload};
use crate::served::Served;
use crate::stats::{self, ratio};

/// What a loop workload iterates over.
pub trait LoopKernel: Send + Sync + Sized + 'static {
    const NAME: &'static str;
    const UNIT: &'static str;
    /// The schedule the workload is defined under.
    const SCHEDULE: LoopSchedule;
    /// Whether to measure `Schedule::Auto` against it (costs 28 loops of
    /// convergence, so only where a choice of schedule matters).
    const AUTO_LEG: bool;

    fn build(seed: u64, sizing: &Sizing) -> Self;
    fn space(&self) -> Range<u64>;
    /// Iteration `i`'s contribution; a loop's result is their wrapping
    /// sum.
    fn value(&self, i: u64) -> u64;
}

/// PoSp plotting (paper Fig. 8): one BLAKE3 puzzle per iteration over a
/// nonce range that starts beyond `u32::MAX`; a *hit* is a puzzle whose
/// hash starts with a zero byte.
pub struct Posp {
    challenge: u64,
    space: Range<u64>,
}

const POSP_START: u64 = 1 << 33;

impl LoopKernel for Posp {
    const NAME: &'static str = "loop_posp";
    const UNIT: &'static str = "hashes";
    const SCHEDULE: LoopSchedule = LoopSchedule::Dynamic(1);
    const AUTO_LEG: bool = false;

    fn build(seed: u64, sizing: &Sizing) -> Self {
        Posp {
            challenge: seed,
            space: POSP_START..POSP_START + sizing.pick(1 << 19, 1 << 15),
        }
    }

    fn space(&self) -> Range<u64> {
        self.space.clone()
    }

    #[inline]
    fn value(&self, i: u64) -> u64 {
        let puzzle = make_puzzle(self.challenge ^ (i >> 32), i as u32);
        u64::from(puzzle.hash[0] == 0)
    }
}

/// Row `i` of a triangular nest costs `i + 1` trips.
pub struct Tri(Triangular);

impl LoopKernel for Tri {
    const NAME: &'static str = "loop_tri";
    const UNIT: &'static str = "rows";
    const SCHEDULE: LoopSchedule = LoopSchedule::Guided(16);
    const AUTO_LEG: bool = true;

    fn build(seed: u64, sizing: &Sizing) -> Self {
        Tri(Triangular::new(
            sizing.pick(14_000, 3_000),
            CostProfile::Skewed,
            seed,
        ))
    }

    fn space(&self) -> Range<u64> {
        0..self.0.rows()
    }

    #[inline]
    fn value(&self, i: u64) -> u64 {
        self.0.value(i)
    }
}

pub struct LoopWorkload<K: LoopKernel> {
    served: Served,
    kernel: Arc<K>,
    /// The sequential reference's result.
    expect: u64,
    acc: Arc<AtomicU64>,
    slots: Arc<WorkerSlots>,
    workers: usize,
    smoke: bool,
}

const WARMUP_REPS: usize = 2;

impl<K: LoopKernel> LoopWorkload<K> {
    /// Submits one loop; `timed` bodies also add their own ticks to the
    /// per-worker slots. Returns the handle and the stamps around the
    /// submit call.
    fn submit(&self, schedule: LoopSchedule, timed: bool) -> (JobHandle<LoopReport>, u64, u64) {
        self.acc.store(0, Ordering::Relaxed);
        let (kernel, acc) = (self.kernel.clone(), self.acc.clone());
        let add = move |i: u64| {
            let v = kernel.value(i);
            // Zero contributions skip the shared line: PoSp iterations are
            // ~150 ns and 255 in 256 of them miss.
            if v != 0 {
                acc.fetch_add(v, Ordering::Relaxed);
            }
        };
        let space = self.kernel.space();
        let t0 = clock::now();
        let handle = if timed {
            self.slots.reset();
            let slots = self.slots.clone();
            self.served
                .server
                .submit_for(space, schedule, move |i, ctx: &TaskCtx<'_>| {
                    let started = clock::now();
                    add(i);
                    slots.add(ctx.worker_id(), clock::now() - started);
                })
                .map_err(|e| e.to_string())
        } else {
            self.served
                .server
                .submit_for(space, schedule, move |i, _: &TaskCtx<'_>| add(i))
                .map_err(|e| e.to_string())
        };
        let t1 = clock::now();
        (
            handle.unwrap_or_else(|e| panic!("submit_for refused: {e}")),
            t0,
            t1,
        )
    }

    fn check(&self, report: Option<&LoopReport>) -> bool {
        let len = self.kernel.space().end - self.kernel.space().start;
        report.is_some_and(|r| r.iterations == len && r.cancelled_iters == 0)
            && self.acc.load(Ordering::Relaxed) == self.expect
    }

    fn finish_rep(&mut self, report: Option<&LoopReport>, t0: u64, t2: u64) -> Rep {
        let units = report.map_or(0, |r| r.iterations);
        let rep = Rep::single(t0, t2, units, self.check(report));
        self.served.note(&rep, 1);
        rep
    }

    fn run(&mut self, schedule: LoopSchedule) -> Rep {
        let (handle, t0, _) = self.submit(schedule, false);
        let report = handle.join().ok();
        let t2 = clock::now();
        self.finish_rep(report.as_ref(), t0, t2)
    }

    /// Median makespan in seconds of a few loops under `schedule`.
    fn makespan_under(&mut self, schedule: LoopSchedule, deadline: Instant) -> f64 {
        let mut walls = Vec::new();
        while walls.len() < 2 || (walls.len() < 5 && Instant::now() < deadline) {
            walls.push(clock::ticks_to_secs(self.run(schedule).wall_ticks));
        }
        stats::median(&walls)
    }

    /// The sequential reference: the wrapping sum of every iteration's
    /// value, computed on the calling thread.
    fn reference(kernel: &K) -> u64 {
        kernel
            .space()
            .fold(0u64, |acc, i| acc.wrapping_add(kernel.value(i)))
    }
}

impl<K: LoopKernel> Workload for LoopWorkload<K> {
    const NAME: &'static str = K::NAME;
    const UNIT: &'static str = K::UNIT;
    const TAIL_PERCENTILE: f64 = crate::harness::REP_TAIL_PERCENTILE;
    const CALLER_IS_CLIENT: bool = true;
    const TAIL_PER_REP: bool = false;

    fn setup(seed: u64, sizing: &Sizing) -> Self {
        let kernel = K::build(seed, sizing);
        let expect = Self::reference(&kernel);
        let mut w = LoopWorkload {
            served: Served::start(sizing.workers, |cfg| cfg),
            kernel: Arc::new(kernel),
            expect,
            acc: Arc::new(AtomicU64::new(0)),
            slots: Arc::new(WorkerSlots::new(sizing.workers)),
            workers: sizing.workers,
            smoke: sizing.smoke,
        };
        for _ in 0..WARMUP_REPS {
            w.run(K::SCHEDULE);
        }
        w
    }

    fn rep(&mut self) -> Rep {
        self.run(K::SCHEDULE)
    }

    fn traced_rep(&mut self, trace: &mut Trace) -> Rep {
        let (handle, t0, t1) = self.submit(K::SCHEDULE, true);
        // Polling keeps the handle, and with it the `JobReport`. A loop
        // lasts tens of milliseconds; 200 µs naps keep the client off the
        // workers' cores and add at most that to what it sees.
        while !handle.is_done() {
            std::thread::sleep(Duration::from_micros(200));
        }
        let job = handle.report();
        let report = handle.join().ok();
        let t2 = clock::now();

        let request = trace.request();
        let root = trace.spans.push("loop_job", t0, t2, None, request);
        trace.spans.push("submit_call", t0, t1, Some(root), request);
        if let Some(job) = job {
            // `JobReport` counts from admission, which happened inside the
            // submit call: anchoring at its return is at most that call off.
            let started = t1 + job.queued_cycles;
            let finished = started + job.run_cycles;
            trace.spans.push("queued", t1, started, Some(root), request);
            trace
                .spans
                .push("run", started, finished, Some(root), request);
            trace
                .spans
                .push("join_wake", finished.min(t2), t2, Some(root), request);
            trace.sample("queued_us", ticks_to_us(job.queued_cycles));
            trace.sample("run_us", ticks_to_us(job.run_cycles));
        }
        if let Some(r) = &report {
            trace.sample("chunks", r.chunks as f64);
            trace.sample("claimed_local", r.claimed_local as f64);
            trace.sample("range_steals", r.range_steals as f64);
        }
        trace.add_loads(&self.slots.loads());
        self.finish_rep(report.as_ref(), t0, t2)
    }

    fn set_trace_level(&mut self, level: TraceLevel) {
        self.served.server.set_trace_level(level);
    }

    fn layer_legs(&mut self, trace: &mut Trace, ledger: &mut Ledger, budget: Duration) {
        let chunks = stats::median(trace.samples("chunks"));
        ledger.set_value("core.loops.chunks", chunks);
        ledger.set_value(
            "core.loops.claim_local_ratio",
            ratio(stats::median(trace.samples("claimed_local")), chunks),
        );
        ledger.set_value(
            "core.loops.range_steals",
            stats::median(trace.samples("range_steals")),
        );

        // The single-thread baseline: the sequential reference again, timed
        // warm (set-up's pass, the first thing the process does, reads slow).
        let mut seq = [0.0; 3];
        for s in &mut seq {
            let t0 = Instant::now();
            let sum = Self::reference(&self.kernel);
            *s = t0.elapsed().as_secs_f64();
            assert_eq!(sum, self.expect, "the sequential reference does not repeat");
        }
        let seq_body_s = stats::median(&seq);
        let workers = self.workers as f64;

        let deadline = Instant::now() + budget;
        let own = self.makespan_under(K::SCHEDULE, deadline);
        let len = (self.kernel.space().end - self.kernel.space().start) as f64;
        ledger.set_value(
            "core.loops.claim_overhead_ns",
            (workers * own - seq_body_s) * 1e9 / len,
        );
        for (name, batch) in [
            ("core.loops.efficiency_b1", 1),
            ("core.loops.efficiency_b4", 4),
            ("core.loops.efficiency_b64", 64),
        ] {
            let m = self.makespan_under(LoopSchedule::Dynamic(batch), deadline);
            ledger.set_value(name, ratio(seq_body_s, workers * m));
        }
        let fixed = self.makespan_under(LoopSchedule::Static, deadline);
        ledger.set_value("core.loops.gain_vs_static", ratio(fixed, own));
        println!(
            "{}: sequential bodies {seq_body_s:.6} s; makespan {own:.6} s under {:?}, {fixed:.6} s under Static",
            K::NAME,
            K::SCHEDULE
        );

        if K::AUTO_LEG && !self.smoke {
            // `Auto` converges after exactly this many reports per site.
            let trials = xgomp_core::AUTO_PORTFOLIO_LEN as u32
                * xgomp_core::AUTO_TRIALS_PER_MEMBER
                * xgomp_core::AUTO_CONFIRM_WINDOWS;
            for _ in 0..trials {
                self.run(LoopSchedule::Auto);
            }
            let auto = self.makespan_under(LoopSchedule::Auto, deadline);
            let guided = self.makespan_under(LoopSchedule::Guided(16), deadline);
            ledger.set_value("core.loops.auto_vs_guided", ratio(auto, guided));
        }
    }

    fn teardown(self, trace: Option<(&mut Trace, &mut Ledger)>) -> u64 {
        self.served.finish(trace)
    }
}
