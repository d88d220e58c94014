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
//! Figs. 9–11. Like the paper, which fixes one configuration per run
//! (§IV-E), a team holds one [`DlbConfig`] for its whole life; a task
//! server changes it only between generations (`resume_with`).

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

    /// `self` with every knob in range. The fields are `pub`, so a
    /// struct literal bypasses the builder clamps; this applies the same
    /// ones. A team runs (and a server compares) the normalised form.
    pub fn normalized(self) -> Self {
        self.n_victim(self.n_victim)
            .n_steal(self.n_steal)
            .t_interval(self.t_interval)
            .p_local(self.p_local)
    }

    /// Makes `to`, normalised, the configuration `self` holds, and
    /// returns whether that is a retune: whether anything changed in the
    /// normalised form. A task server's `resume_with` counts these.
    pub fn retune(&mut self, to: DlbConfig) -> bool {
        let to = to.normalized();
        let changed = *self != to;
        *self = to;
        changed
    }

    /// The paper's Eq. 1 *steal size*:
    /// `S_steal = N_steal × N_victim / log10(T_interval)`.
    pub fn steal_size(&self) -> f64 {
        let denom = (self.t_interval.max(2) as f64).log10();
        (self.n_steal * self.n_victim) as f64 / denom
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
        let mut held = a;
        assert!(!held.retune(a), "no change: not a retune");
        assert_eq!(held, a);
        let b = DlbConfig::new(DlbStrategy::RedirectPush)
            .n_victim(24)
            .n_steal(128)
            .t_interval(1_000)
            .p_local(0.06);
        let retunes = [b, b, a].into_iter().filter(|&c| held.retune(c)).count();
        assert_eq!(held, a);
        assert_eq!(retunes, 2);
    }

    /// A struct literal bypasses the builder clamps; retuning to the
    /// same out-of-range config twice is one retune, not two.
    #[test]
    fn out_of_range_literal_counts_one_retune() {
        let mut held = DlbConfig::new(DlbStrategy::WorkSteal);
        let raw = DlbConfig {
            strategy: DlbStrategy::RedirectPush,
            n_victim: 0,
            n_steal: 0,
            t_interval: 0,
            p_local: 1.5,
        };
        let retunes = [raw, raw].into_iter().filter(|&c| held.retune(c)).count();
        assert_eq!(retunes, 1, "an identical config is not a retune");
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
