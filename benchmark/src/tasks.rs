//! Region workloads: `task_fib` (finest-grain tasks, static balancing)
//! and `task_skew` (rare heavy leaves under NA-WS).

use std::time::{Duration, Instant};

use xgomp_bots::fib;
use xgomp_bots::rng::mix64;
use xgomp_core::{
    clock, guidelines, DlbConfig, DlbStrategy, RegionOutput, Runtime, RuntimeConfig, TraceLevel,
};

use crate::common::{runtime_config, spin_ticks, Sizing, WorkerSlots};
use crate::harness::{Ledger, Rep, Trace, Workload};
use crate::stats::{self, ratio};

const WARMUP_REPS: usize = 3;

/// `fib(27)`, the value the full-size run must produce.
const FIB_27: u64 = 196_418;

fn region_rep<R>(
    rt: &Runtime,
    body: impl FnOnce(&xgomp_core::TaskCtx<'_>) -> R,
) -> (RegionOutput<R>, u64, u64) {
    let t0 = clock::now();
    let out = rt.parallel(body);
    (out, t0, clock::now())
}

fn trace_region<R>(trace: &mut Trace, out: &RegionOutput<R>, t0: u64, t1: u64) {
    let request = trace.request();
    trace.spans.push("region", t0, t1, None, request);
    trace.add_team(&out.stats.total(), 1.0, clock::ticks_to_secs(t1 - t0));
}

pub struct TaskFib {
    cfg: RuntimeConfig,
    rt: Runtime,
    n: u64,
    expect: u64,
}

impl TaskFib {
    fn run(&self) -> (Rep, RegionOutput<u64>, u64, u64) {
        let n = self.n;
        let (out, t0, t1) = region_rep(&self.rt, |ctx| fib::par(ctx, n));
        let total = out.stats.total();
        let wrong = out.result != self.expect
            || total.tasks_executed != total.tasks_created
            || out.stats.check_invariants().is_err();
        let rep = Rep::single(t0, t1, total.tasks_created, !wrong);
        (rep, out, t0, t1)
    }
}

impl Workload for TaskFib {
    const NAME: &'static str = "task_fib";
    const UNIT: &'static str = "tasks";
    const TAIL_PERCENTILE: f64 = crate::harness::REP_TAIL_PERCENTILE;
    const CALLER_IS_CLIENT: bool = false;
    const TAIL_PER_REP: bool = false;

    fn setup(_seed: u64, sizing: &Sizing) -> Self {
        // fib has no input to draw: the seed only varies the other five.
        let n = sizing.pick(27, 20);
        let expect = fib::seq(n);
        assert!(
            n != 27 || expect == FIB_27,
            "sequential reference is broken"
        );
        let cfg = runtime_config(sizing.team);
        let w = TaskFib {
            rt: Runtime::new(cfg.clone()),
            cfg,
            n,
            expect,
        };
        for _ in 0..WARMUP_REPS {
            w.run();
        }
        w
    }

    fn rep(&mut self) -> Rep {
        self.run().0
    }

    fn traced_rep(&mut self, trace: &mut Trace) -> Rep {
        let (rep, out, t0, t1) = self.run();
        trace_region(trace, &out, t0, t1);
        rep
    }

    fn set_trace_level(&mut self, level: TraceLevel) {
        self.rt = Runtime::new(self.cfg.clone().trace(level));
    }

    fn layer_legs(&mut self, _trace: &mut Trace, _ledger: &mut Ledger, _budget: Duration) {}

    fn teardown(self, _trace: Option<(&mut Trace, &mut Ledger)>) -> u64 {
        0
    }
}

const PRODUCERS: usize = 8;
/// Heavy leaves of even and of odd producers: 32 in 16 384 (1/512), laid
/// out so that the round-robin that hands producers to workers gives the
/// even workers seven times the heavy work.
const HEAVY_PER_PRODUCER: [usize; 2] = [7, 1];
const LEAF_NS: u64 = 1_000;
const HEAVY_FACTOR: u64 = 3_000;
/// Task size handed to the Table-IV guideline: a 1 µs leaf in cycles.
const LEAF_CYCLES: u64 = 3_000;

pub struct TaskSkew {
    cfg: RuntimeConfig,
    rt: Runtime,
    /// Spin budget in ticks of every leaf, per producer.
    costs: Vec<Vec<u64>>,
    leaves: usize,
    slots: WorkerSlots,
}

/// Leaf costs: every producer owns `leaves` 1 µs leaves, of which
/// `HEAVY_PER_PRODUCER` cost 3 000×. The seed moves each heavy leaf
/// inside its own stratum of the producer's leaves, on a fixed index
/// parity (the round-robin push sends even and odd leaves to different
/// queues), so every seed draws the same work with the same skew.
fn skew_costs(seed: u64, leaves: usize) -> Vec<Vec<u64>> {
    let light = clock::ns_to_ticks(LEAF_NS);
    (0..PRODUCERS)
        .map(|p| {
            let mut costs = vec![light; leaves];
            let heavy = HEAVY_PER_PRODUCER[p % 2];
            let stratum = leaves / heavy;
            for k in 0..heavy {
                let draw = mix64(seed ^ mix64((p * heavy + k) as u64)) as usize;
                let at = k * stratum + 2 * (draw % (stratum / 2)) + k % 2;
                costs[at] = light * HEAVY_FACTOR;
            }
            costs
        })
        .collect()
}

impl TaskSkew {
    fn run_on(&self, rt: &Runtime) -> (Rep, RegionOutput<()>, u64, u64) {
        self.slots.reset();
        let (costs, slots) = (&self.costs, &self.slots);
        let (out, t0, t1) = region_rep(rt, |ctx| {
            ctx.scope(|s| {
                for producer in costs {
                    s.spawn(move |ctx| {
                        ctx.scope(|s| {
                            for &cost in producer {
                                s.spawn(move |ctx| {
                                    slots.add(ctx.worker_id(), spin_ticks(cost));
                                });
                            }
                        });
                    });
                }
            });
        });
        let total = out.stats.total();
        let expect_tasks = (PRODUCERS + PRODUCERS * self.leaves) as u64;
        let wrong = self.slots.count() != (PRODUCERS * self.leaves) as u64
            || total.tasks_created != expect_tasks
            || total.tasks_executed != expect_tasks
            || out.stats.check_invariants().is_err();
        let rep = Rep::single(t0, t1, total.tasks_created, !wrong);
        (rep, out, t0, t1)
    }

    /// Median makespan in seconds of a few regions under `cfg`.
    fn makespan_under(&self, cfg: RuntimeConfig, budget: Duration) -> f64 {
        let rt = Runtime::new(cfg);
        let started = Instant::now();
        let mut walls = Vec::new();
        while walls.len() < 3 || (walls.len() < 9 && started.elapsed() < budget) {
            walls.push(clock::ticks_to_secs(self.run_on(&rt).0.wall_ticks));
        }
        stats::median(&walls)
    }
}

impl Workload for TaskSkew {
    const NAME: &'static str = "task_skew";
    const UNIT: &'static str = "tasks";
    const TAIL_PERCENTILE: f64 = crate::harness::REP_TAIL_PERCENTILE;
    const CALLER_IS_CLIENT: bool = false;
    const TAIL_PER_REP: bool = false;

    fn setup(seed: u64, sizing: &Sizing) -> Self {
        let leaves = sizing.pick(2_048, 256);
        let cfg = runtime_config(sizing.team).dlb(guidelines::recommend_dlb(LEAF_CYCLES));
        let w = TaskSkew {
            rt: Runtime::new(cfg.clone()),
            cfg,
            costs: skew_costs(seed, leaves),
            leaves,
            slots: WorkerSlots::new(sizing.team),
        };
        for _ in 0..WARMUP_REPS {
            w.run_on(&w.rt);
        }
        w
    }

    fn rep(&mut self) -> Rep {
        self.run_on(&self.rt).0
    }

    fn traced_rep(&mut self, trace: &mut Trace) -> Rep {
        let (rep, out, t0, t1) = self.run_on(&self.rt);
        trace_region(trace, &out, t0, t1);
        trace.add_loads(&self.slots.loads());
        rep
    }

    fn set_trace_level(&mut self, level: TraceLevel) {
        self.rt = Runtime::new(self.cfg.clone().trace(level));
    }

    fn layer_legs(&mut self, _trace: &mut Trace, ledger: &mut Ledger, budget: Duration) {
        let each = budget / 3;
        let slb = self.makespan_under(self.cfg.clone().slb(), each);
        let naws = self.makespan_under(self.cfg.clone(), each);
        let narp = self.makespan_under(
            self.cfg
                .clone()
                .dlb(DlbConfig::new(DlbStrategy::RedirectPush)),
            each,
        );
        println!("task_skew makespan: SLB {slb:.6} s, NA-WS {naws:.6} s, NA-RP {narp:.6} s");
        ledger.set_value("core.dlb.gain_vs_slb", ratio(slb, naws));
        ledger.set_value("core.dlb.narp_gain_vs_slb", ratio(slb, narp));
    }

    fn teardown(self, _trace: Option<(&mut Trace, &mut Ledger)>) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_draws_the_same_amount_of_skewed_work() {
        let light = clock::ns_to_ticks(LEAF_NS);
        for seed in [0, 1, 0xDEAD_BEEF] {
            let costs = skew_costs(seed, 2_048);
            assert_eq!(costs.len(), PRODUCERS);
            for (p, producer) in costs.iter().enumerate() {
                let heavy = producer.iter().filter(|&&c| c != light).count();
                assert_eq!((producer.len(), heavy), (2_048, HEAVY_PER_PRODUCER[p % 2]));
            }
        }
        assert_ne!(skew_costs(1, 2_048), skew_costs(2, 2_048));
        assert_eq!(skew_costs(7, 256), skew_costs(7, 256));
    }
}
