//! Lock-less NUMA-aware dynamic load balancing (§IV).
//!
//! XQueue's static round-robin balancer ignores both load and locality.
//! This module adds the paper's two DLB strategies on top of the lattice,
//! built on a lock-less messaging protocol:
//!
//! * **[`DlbStrategy::RedirectPush`] (NA-RP, Alg. 3)** — a victim that
//!   accepts a steal request *redirects its next `n_steal` newly created
//!   tasks* into the thief's queue instead of its round-robin targets.
//!   Cheap (reuses the normal enqueue), pushes work *away* from its
//!   creation site.
//! * **[`DlbStrategy::WorkSteal`] (NA-WS, Alg. 4)** — the victim
//!   *migrates up to `n_steal` already-queued tasks* from its own row to
//!   the thief's queue. Slightly more dequeue work, but tends to bring
//!   tasks *back toward* their creators, preserving locality.
//!
//! Both are driven by [`DlbConfig`]'s four knobs — `n_victim`, `n_steal`,
//! `t_interval`, `p_local` — the parameters swept in Table I and
//! Figs. 9–11.

mod engine;
mod message;

pub(crate) use engine::{DlbEngine, DlbSeat};
pub use message::{pack_request, request_round, request_thief, MsgCell, ROUND_MASK};

use serde::{Deserialize, Serialize};

/// Which dynamic load-balancing strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DlbStrategy {
    /// NUMA-aware Redirect Push (NA-RP).
    RedirectPush,
    /// NUMA-aware Work Stealing (NA-WS).
    WorkSteal,
}

impl DlbStrategy {
    /// Short name used in reports ("NA-RP" / "NA-WS").
    pub fn name(&self) -> &'static str {
        match self {
            DlbStrategy::RedirectPush => "NA-RP",
            DlbStrategy::WorkSteal => "NA-WS",
        }
    }
}

/// DLB configuration (§IV-E).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DlbConfig {
    /// Strategy to run.
    pub strategy: DlbStrategy,
    /// Victims a thief asks per request burst (`N_victim`).
    pub n_victim: usize,
    /// Max tasks moved per handled request (`N_steal`).
    pub n_steal: usize,
    /// Idle scheduling points between request bursts (`T_interval`).
    pub t_interval: u64,
    /// Probability a thief picks a NUMA-local victim (`P_local`).
    pub p_local: f64,
}

impl DlbConfig {
    /// A reasonable middle-of-the-sweep default (the paper's most common
    /// best settings: moderate victims, large steals, local-leaning).
    pub fn new(strategy: DlbStrategy) -> Self {
        DlbConfig {
            strategy,
            n_victim: 8,
            n_steal: 32,
            t_interval: 10_000,
            p_local: 1.0,
        }
    }

    /// Builder-style setters.
    pub fn n_victim(mut self, v: usize) -> Self {
        self.n_victim = v.max(1);
        self
    }
    /// Sets `N_steal` (≥ 1).
    pub fn n_steal(mut self, v: usize) -> Self {
        self.n_steal = v.max(1);
        self
    }
    /// Sets `T_interval` (≥ 1).
    pub fn t_interval(mut self, v: u64) -> Self {
        self.t_interval = v.max(1);
        self
    }
    /// Sets `P_local` (clamped to `[0, 1]`).
    pub fn p_local(mut self, v: f64) -> Self {
        self.p_local = v.clamp(0.0, 1.0);
        self
    }

    /// The paper's Eq. 1 *steal size*:
    /// `S_steal = N_steal × N_victim / log10(T_interval)`.
    pub fn steal_size(&self) -> f64 {
        let denom = (self.t_interval.max(2) as f64).log10();
        (self.n_steal * self.n_victim) as f64 / denom
    }
}

/// A [`DlbConfig`] whose knobs can be re-tuned **while workers are
/// running** — the mechanism behind the task server's operator swaps
/// (`TaskServer::swap_tuning` in `xgomp-service`).
///
/// Every field is an independent relaxed atomic: workers re-read the
/// configuration at each scheduling point, so a store becomes visible
/// within one scheduling-point latency without stopping the team. A
/// reader may transiently observe a mix of old and new fields during a
/// swap; every mix is itself a valid configuration, so this is benign
/// (the same argument the paper makes for its last-writer-wins request
/// cells).
#[derive(Debug)]
pub struct DlbTuning {
    /// 0 = NA-RP, 1 = NA-WS.
    strategy: std::sync::atomic::AtomicU8,
    n_victim: std::sync::atomic::AtomicUsize,
    n_steal: std::sync::atomic::AtomicUsize,
    t_interval: std::sync::atomic::AtomicU64,
    /// `f64::to_bits` of `p_local`.
    p_local_bits: std::sync::atomic::AtomicU64,
    /// Completed [`store`](Self::store) calls that changed the config.
    retunes: std::sync::atomic::AtomicU64,
}

impl DlbTuning {
    fn strategy_code(s: DlbStrategy) -> u8 {
        match s {
            DlbStrategy::RedirectPush => 0,
            DlbStrategy::WorkSteal => 1,
        }
    }

    /// `cfg` with every knob in range — the form the cell holds. The
    /// fields are `pub`, so a struct literal bypasses the builder
    /// clamps; this applies the same ones.
    fn normalized(cfg: DlbConfig) -> DlbConfig {
        cfg.n_victim(cfg.n_victim)
            .n_steal(cfg.n_steal)
            .t_interval(cfg.t_interval)
            .p_local(cfg.p_local)
    }

    /// A tuning cell seeded with `cfg`.
    pub fn new(cfg: DlbConfig) -> Self {
        use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize};
        let cfg = Self::normalized(cfg);
        DlbTuning {
            strategy: AtomicU8::new(Self::strategy_code(cfg.strategy)),
            n_victim: AtomicUsize::new(cfg.n_victim),
            n_steal: AtomicUsize::new(cfg.n_steal),
            t_interval: AtomicU64::new(cfg.t_interval),
            p_local_bits: AtomicU64::new(cfg.p_local.to_bits()),
            retunes: AtomicU64::new(0),
        }
    }

    /// Snapshot of the active configuration.
    pub fn load(&self) -> DlbConfig {
        use std::sync::atomic::Ordering::Relaxed;
        DlbConfig {
            strategy: if self.strategy.load(Relaxed) == 0 {
                DlbStrategy::RedirectPush
            } else {
                DlbStrategy::WorkSteal
            },
            n_victim: self.n_victim.load(Relaxed),
            n_steal: self.n_steal.load(Relaxed),
            t_interval: self.t_interval.load(Relaxed),
            p_local: f64::from_bits(self.p_local_bits.load(Relaxed)),
        }
    }

    /// Publishes `cfg` as the active configuration (hot swap). Counts a
    /// retune when anything actually changed, compared in the clamped
    /// form the cell holds. Returns whether it did.
    pub fn store(&self, cfg: DlbConfig) -> bool {
        use std::sync::atomic::Ordering::Relaxed;
        let cfg = Self::normalized(cfg);
        let changed = self.load() != cfg;
        self.strategy
            .store(Self::strategy_code(cfg.strategy), Relaxed);
        self.n_victim.store(cfg.n_victim, Relaxed);
        self.n_steal.store(cfg.n_steal, Relaxed);
        self.t_interval.store(cfg.t_interval, Relaxed);
        self.p_local_bits.store(cfg.p_local.to_bits(), Relaxed);
        if changed {
            self.retunes.fetch_add(1, Relaxed);
        }
        changed
    }

    /// How many effective re-tunes have been published.
    pub fn retunes(&self) -> u64 {
        self.retunes.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuning_roundtrips_and_counts_retunes() {
        let a = DlbConfig::new(DlbStrategy::WorkSteal)
            .n_steal(4)
            .p_local(0.5);
        let t = DlbTuning::new(a);
        assert_eq!(t.load(), a);
        assert_eq!(t.retunes(), 0);
        t.store(a); // no change: not a retune
        assert_eq!(t.retunes(), 0);
        let b = DlbConfig::new(DlbStrategy::RedirectPush)
            .n_victim(24)
            .n_steal(128)
            .t_interval(1_000)
            .p_local(0.06);
        t.store(b);
        assert_eq!(t.load(), b);
        assert_eq!(t.retunes(), 1);
    }

    /// A struct literal bypasses the builder clamps; storing the same
    /// out-of-range config twice is one retune, not two.
    #[test]
    fn out_of_range_literal_counts_one_retune() {
        let t = DlbTuning::new(DlbConfig::new(DlbStrategy::WorkSteal));
        let raw = DlbConfig {
            strategy: DlbStrategy::RedirectPush,
            n_victim: 0,
            n_steal: 0,
            t_interval: 0,
            p_local: 1.5,
        };
        t.store(raw);
        t.store(raw);
        assert_eq!(t.retunes(), 1, "an identical store is not a retune");
        let held = t.load();
        assert_eq!((held.n_victim, held.n_steal, held.t_interval), (1, 1, 1));
        assert_eq!(held.p_local, 1.0);
    }

    #[test]
    fn steal_size_matches_eq1() {
        let c = DlbConfig::new(DlbStrategy::WorkSteal)
            .n_steal(32)
            .n_victim(24)
            .t_interval(1_000);
        assert!((c.steal_size() - 256.0).abs() < 1e-9);
    }

    #[test]
    fn builders_clamp() {
        let c = DlbConfig::new(DlbStrategy::RedirectPush)
            .n_victim(0)
            .n_steal(0)
            .t_interval(0)
            .p_local(7.0);
        assert_eq!(c.n_victim, 1);
        assert_eq!(c.n_steal, 1);
        assert_eq!(c.t_interval, 1);
        assert_eq!(c.p_local, 1.0);
        assert_eq!(c.strategy.name(), "NA-RP");
    }
}
