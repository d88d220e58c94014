//! Calibrated NUMA-latency cost model.
//!
//! On the paper's machine, remote-zone memory traffic costs ≈100 ns per
//! access at the lower bound while cache-served local communication costs
//! a few ns (§IV-B). Our container has no real NUMA, so experiments that
//! depend on that asymmetry (the `p_local` sweeps, the locality-driven
//! wins of NA-RP/NA-WS on STRAS/Sort) inject it: when a task executes
//! away from its creation site, the runtime spins for the configured
//! latency multiplied by a per-task access estimate.
//!
//! The spin is calibrated once against the monotonic clock so the injected
//! delays are in real nanoseconds regardless of host speed.

use std::sync::OnceLock;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::placement::Locality;

/// How many spin-loop iterations buy one nanosecond on this host.
#[derive(Debug, Clone, Copy)]
pub struct SpinCalibration {
    iters_per_ns: f64,
}

impl SpinCalibration {
    /// Measures spin-loop throughput. Cached process-wide; call
    /// [`SpinCalibration::get`] instead of constructing repeatedly.
    fn measure() -> Self {
        // Warm up, then time a fixed iteration count.
        spin_iters(10_000);
        let iters: u64 = 2_000_000;
        let t0 = Instant::now();
        spin_iters(iters);
        let elapsed = t0.elapsed().as_nanos().max(1) as f64;
        SpinCalibration {
            iters_per_ns: (iters as f64 / elapsed).max(0.01),
        }
    }

    /// The process-wide calibration (measured on first use).
    pub fn get() -> Self {
        static CAL: OnceLock<SpinCalibration> = OnceLock::new();
        *CAL.get_or_init(Self::measure)
    }

    /// Spin for approximately `ns` nanoseconds.
    #[inline]
    pub fn spin_ns(&self, ns: u64) {
        spin_iters((ns as f64 * self.iters_per_ns) as u64);
    }
}

#[inline]
fn spin_iters(n: u64) {
    for _ in 0..n {
        std::hint::spin_loop();
    }
}

/// NUMA access-cost model applied when a task runs away from its creator.
///
/// `Disabled` is the default for unit tests; the figure binaries enable
/// [`CostModel::paper_default`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Master switch; when false all penalties are zero.
    pub enabled: bool,
    /// Injected ns when a task executes on another worker in the same
    /// zone (shared L3 / local DRAM).
    pub local_ns: u64,
    /// Injected ns when a task executes in a remote zone.
    pub remote_ns: u64,
    /// Number of modeled memory accesses per task (scales the penalty;
    /// tasks touching big arrays — STRAS, Sort — model more traffic).
    pub accesses_per_task: u64,
}

impl CostModel {
    /// No penalties (unit tests, pure-throughput micro-benches).
    pub const fn disabled() -> Self {
        CostModel {
            enabled: false,
            local_ns: 0,
            remote_ns: 0,
            accesses_per_task: 0,
        }
    }

    /// The paper-derived defaults: 25 ns same-zone, 100 ns remote-zone
    /// (paper's §IV-B lower bounds), one modeled access per task.
    pub const fn paper_default() -> Self {
        CostModel {
            enabled: true,
            local_ns: 25,
            remote_ns: 100,
            accesses_per_task: 1,
        }
    }

    /// A model for data-heavy tasks (large arrays per task, e.g.
    /// Strassen/Sort): the locality gap dominates task runtime.
    pub const fn data_heavy(accesses: u64) -> Self {
        CostModel {
            enabled: true,
            local_ns: 25,
            remote_ns: 100,
            accesses_per_task: accesses,
        }
    }

    /// Penalty in ns for executing a task with the given locality.
    #[inline]
    pub fn penalty_ns(&self, locality: Locality) -> u64 {
        if !self.enabled {
            return 0;
        }
        let per_access = match locality {
            Locality::SelfCore => 0,
            Locality::Local => self.local_ns,
            Locality::Remote => self.remote_ns,
        };
        per_access * self.accesses_per_task
    }

    /// Applies the penalty (spin-waits; no-op when zero).
    #[inline]
    pub fn apply(&self, locality: Locality) {
        let ns = self.penalty_ns(locality);
        if ns > 0 {
            SpinCalibration::get().spin_ns(ns);
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_model_is_free() {
        let m = CostModel::disabled();
        assert_eq!(m.penalty_ns(Locality::Remote), 0);
        assert_eq!(m.penalty_ns(Locality::SelfCore), 0);
    }

    #[test]
    fn penalties_are_ordered_by_distance() {
        let m = CostModel::paper_default();
        assert_eq!(m.penalty_ns(Locality::SelfCore), 0);
        assert!(m.penalty_ns(Locality::Local) > 0);
        assert!(m.penalty_ns(Locality::Remote) > m.penalty_ns(Locality::Local));
    }

    #[test]
    fn accesses_scale_penalty() {
        let m = CostModel::data_heavy(10);
        assert_eq!(
            m.penalty_ns(Locality::Remote),
            10 * CostModel::paper_default().penalty_ns(Locality::Remote)
        );
    }

    #[test]
    fn calibrated_spin_is_roughly_monotone() {
        let cal = SpinCalibration::get();
        let t0 = Instant::now();
        cal.spin_ns(50_000); // 50 µs
        let short = t0.elapsed();
        let t1 = Instant::now();
        cal.spin_ns(500_000); // 500 µs
        let long = t1.elapsed();
        // Generous bounds: scheduling noise exists, but 10x more spin
        // must take measurably longer.
        assert!(long > short, "spin_ns not monotone: {short:?} vs {long:?}");
    }
}
