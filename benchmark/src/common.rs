//! Pieces every workload shares: hermetic configuration, the machine
//! sizing rule, TSC spin bodies, per-worker accumulators and the seeded
//! hash inputs are drawn from.

use std::sync::atomic::{AtomicU64, Ordering};

use xgomp_core::{clock, CostModel, MachineTopology, RuntimeConfig, TraceLevel};
use xgomp_service::ServerConfig;

use crate::procfs;

/// Environment variables that change a runtime's or server's defaults.
/// The battery removes them before anything is built and sets the
/// matching config fields in code instead.
pub const AMBIENT_ENV: &[&str] = &[
    "XGOMP_WAIT_POLICY",
    "XGOMP_TRACE",
    "XGOMP_TRACE_PATH",
    "XGOMP_TRACE_STREAM",
    "XGOMP_METRICS_ADDR",
];

/// How big this run is: team sizes from the machine, work sizes from
/// `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// `T = clamp(nproc, 2, 4)`: region teams, caller included.
    pub team: usize,
    /// `W = max(2, T − 1)`: server workers beside the one generator thread.
    pub workers: usize,
    /// Shrink every workload to about a second.
    pub smoke: bool,
    /// A traced run: several phases share the run, so serve windows are
    /// smaller.
    pub traced: bool,
}

impl Sizing {
    pub fn detect(smoke: bool, traced: bool) -> Self {
        let team = procfs::nproc().clamp(2, 4);
        Sizing {
            team,
            workers: (team - 1).max(2),
            smoke,
            traced,
        }
    }

    /// `full` normally, `small` under `--smoke`.
    pub fn pick<T>(&self, full: T, small: T) -> T {
        if self.smoke {
            small
        } else {
            full
        }
    }
}

/// The region runtime every task workload uses, with every field the
/// environment could have changed pinned.
pub fn runtime_config(team: usize) -> RuntimeConfig {
    RuntimeConfig::xgomptb(team)
        .topology(MachineTopology::fit_workers(team))
        .cost_model(CostModel::disabled())
        .park_idle(true)
        .profiling(false)
        .trace(TraceLevel::Off)
}

/// The server every loop and serve workload uses: the crate's defaults
/// on `workers` workers, no trace dump, no trace stream, no listener.
pub fn server_config(workers: usize) -> ServerConfig {
    let defaults = ServerConfig::new(workers);
    let dlb = defaults.runtime.dlb;
    let mut runtime = runtime_config(workers);
    runtime.dlb = dlb;
    let mut cfg = defaults.runtime(runtime).log_retunes(false);
    cfg.trace_dump = None;
    cfg.trace_stream = None;
    cfg.metrics_addr = None;
    cfg
}

/// Busy-waits `ticks` clock ticks and returns the ticks actually spent.
#[inline]
pub fn spin_ticks(ticks: u64) -> u64 {
    let start = clock::now();
    loop {
        let spent = clock::now().wrapping_sub(start);
        if spent >= ticks {
            return spent;
        }
        std::hint::spin_loop();
    }
}

pub fn ticks_to_us(ticks: u64) -> f64 {
    ticks as f64 / (clock::cycles_per_ns() * 1e3)
}

/// One worker's accumulator on its own cache lines.
#[repr(align(128))]
#[derive(Default)]
struct Slot {
    ticks: AtomicU64,
    count: AtomicU64,
}

/// Per-worker body time and body count, indexed by `ctx.worker_id()`.
/// Each slot has one writer at a time (the worker running the body), so
/// the relaxed read-modify-writes never contend.
pub struct WorkerSlots {
    slots: Vec<Slot>,
}

impl WorkerSlots {
    pub fn new(workers: usize) -> Self {
        WorkerSlots {
            slots: (0..workers).map(|_| Slot::default()).collect(),
        }
    }

    #[inline]
    pub fn add(&self, worker: usize, ticks: u64) {
        let s = &self.slots[worker];
        s.ticks.fetch_add(ticks, Ordering::Relaxed);
        s.count.fetch_add(1, Ordering::Relaxed);
    }

    pub fn reset(&self) {
        for s in &self.slots {
            s.ticks.store(0, Ordering::Relaxed);
            s.count.store(0, Ordering::Relaxed);
        }
    }

    pub fn count(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.count.load(Ordering::Relaxed))
            .sum()
    }

    /// Per-worker body ticks, as loads for the imbalance measures.
    pub fn loads(&self) -> Vec<f64> {
        self.slots
            .iter()
            .map(|s| s.ticks.load(Ordering::Relaxed) as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizing_rule_matches_the_readme() {
        let s = Sizing::detect(false, false);
        assert!((2..=4).contains(&s.team));
        assert_eq!(s.workers, (s.team - 1).max(2));
        assert_eq!(s.pick(10, 1), 10);
        assert_eq!(Sizing { smoke: true, ..s }.pick(10, 1), 1);
    }

    #[test]
    fn configs_pin_every_ambient_field() {
        let rt = runtime_config(3);
        assert!(rt.park_idle && !rt.profiling && rt.dlb.is_none());
        assert_eq!((rt.threads, rt.trace), (3, TraceLevel::Off));
        let sv = server_config(2);
        assert!(sv.trace_dump.is_none() && sv.trace_stream.is_none() && sv.metrics_addr.is_none());
        assert!(sv.runtime.dlb.is_some() && sv.runtime.park_idle && !sv.log_retunes);
    }

    #[test]
    fn spin_spends_at_least_its_budget() {
        let budget = clock::ns_to_ticks(20_000);
        assert!(spin_ticks(budget) >= budget);
        let slots = WorkerSlots::new(2);
        slots.add(1, 5);
        slots.add(1, 7);
        assert_eq!((slots.count(), slots.loads()), (2, vec![0.0, 12.0]));
        slots.reset();
        assert_eq!(slots.count(), 0);
    }
}
