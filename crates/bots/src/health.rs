//! Health — BOTS `health`: a discrete-time simulation of the Colombian
//! health system. Villages form a tree; each village runs a hospital
//! with limited capacity, new patients arrive stochastically, and
//! untreated patients are referred up to the parent village. Each
//! timestep descends the tree with a task per sub-village.
//!
//! BOTS reads the village hierarchy from input files; we generate it
//! synthetically with matching branching structure ([`crate::rng`]).
//! Every village owns its RNG, so the simulation is deterministic
//! regardless of task interleaving.

use xgomp_core::TaskCtx;

use crate::rng::{Digest, Rng};

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct HealthParams {
    /// Tree depth (levels below the root).
    pub levels: u32,
    /// Children per village.
    pub branch: u32,
    /// Timesteps to simulate.
    pub steps: u32,
    /// Patients a hospital can treat per step.
    pub capacity: u32,
    /// Probability (1/1000) that a villager falls sick each step.
    pub sick_permille: u32,
    /// Village population.
    pub population: u32,
    /// World seed.
    pub seed: u64,
}

/// One village and its subtree.
#[derive(Debug)]
pub struct Village {
    rng: Rng,
    /// Patients waiting at this hospital.
    waiting: u64,
    /// Total treated here.
    treated: u64,
    /// Total referred upward from here.
    referred: u64,
    children: Vec<Village>,
}

impl Village {
    /// Builds the synthetic village tree.
    pub fn generate(p: &HealthParams) -> Village {
        fn build(rng: &mut Rng, level: u32, p: &HealthParams) -> Village {
            let children = if level < p.levels {
                (0..p.branch)
                    .map(|i| build(&mut rng.split(i as u64), level + 1, p))
                    .collect()
            } else {
                Vec::new()
            };
            Village {
                rng: rng.split(0xC0FFEE),
                waiting: 0,
                treated: 0,
                referred: 0,
                children,
            }
        }
        let mut rng = Rng::new(p.seed);
        build(&mut rng, 0, p)
    }

    /// New arrivals this step (deterministic per-village stream).
    fn arrivals(&mut self, p: &HealthParams) -> u64 {
        let mut sick = 0;
        // Binomial(population, rate) sampled cheaply: one draw per
        // expected-patient bucket keeps it O(1) per step.
        let expected = (p.population as u64 * p.sick_permille as u64) / 1000;
        let jitter = self.rng.below(2 * expected.max(1) + 1);
        sick += jitter;
        sick
    }

    /// Advances this subtree one timestep; returns patients referred up.
    fn step_seq(&mut self, p: &HealthParams) -> u64 {
        let mut incoming = 0u64;
        for c in self.children.iter_mut() {
            incoming += c.step_seq(p);
        }
        self.step_local(p, incoming)
    }

    fn step_par(&mut self, ctx: &TaskCtx<'_>, p: &HealthParams, task_levels: u32) -> u64 {
        if task_levels == 0 || self.children.is_empty() {
            return self.step_seq(p);
        }
        let mut up = vec![0u64; self.children.len()];
        let kids = &mut self.children;
        ctx.scope(|s| {
            for (c, slot) in kids.iter_mut().zip(up.iter_mut()) {
                s.spawn(move |ctx| *slot = c.step_par(ctx, p, task_levels - 1));
            }
        });
        let incoming: u64 = up.iter().sum();
        self.step_local(p, incoming)
    }

    /// Hospital dynamics: treat up to capacity; refer a fraction of the
    /// overflow upward; the rest keeps waiting.
    fn step_local(&mut self, p: &HealthParams, incoming: u64) -> u64 {
        self.waiting += incoming + self.arrivals(p);
        let treat = self.waiting.min(p.capacity as u64);
        self.waiting -= treat;
        self.treated += treat;
        // Half of the untreated overflow (rounded down) is referred up.
        let refer = self.waiting / 2;
        self.waiting -= refer;
        self.referred += refer;
        refer
    }

    /// Aggregates (treated, referred, waiting) over the subtree.
    pub fn totals(&self) -> (u64, u64, u64) {
        let mut t = (self.treated, self.referred, self.waiting);
        for c in &self.children {
            let (a, b, w) = c.totals();
            t.0 += a;
            t.1 += b;
            t.2 += w;
        }
        t
    }

    /// Number of villages in the subtree.
    pub fn n_villages(&self) -> usize {
        1 + self.children.iter().map(Village::n_villages).sum::<usize>()
    }
}

/// Sequential simulation; returns the digest of the final state.
pub fn seq(p: &HealthParams) -> u64 {
    let mut root = Village::generate(p);
    for _ in 0..p.steps {
        let referred_out = root.step_seq(p);
        // The root has no parent: referred-out patients rejoin its queue.
        root.waiting += referred_out;
        root.referred -= referred_out;
    }
    digest(&root)
}

/// Task-parallel simulation: per step, a task per sub-village down to
/// `task_levels` levels (BOTS `sim_village_par`).
pub fn par(ctx: &TaskCtx<'_>, p: &HealthParams, task_levels: u32) -> u64 {
    let mut root = Village::generate(p);
    for _ in 0..p.steps {
        let referred_out = root.step_par(ctx, p, task_levels);
        root.waiting += referred_out;
        root.referred -= referred_out;
    }
    digest(&root)
}

fn digest(root: &Village) -> u64 {
    let (treated, referred, waiting) = root.totals();
    let mut d = Digest::default();
    d.absorb(treated);
    d.absorb(referred);
    d.absorb(waiting);
    d.absorb(root.n_villages() as u64);
    d.value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xgomp_core::{Runtime, RuntimeConfig};

    fn small() -> HealthParams {
        HealthParams {
            levels: 3,
            branch: 3,
            steps: 10,
            capacity: 10,
            sick_permille: 30,
            population: 500,
            seed: 0x48EA_17C4,
        }
    }

    #[test]
    fn tree_size_matches_formula() {
        let p = small();
        let v = Village::generate(&p);
        // 1 + 3 + 9 + 27 villages for levels=3, branch=3.
        assert_eq!(v.n_villages(), 40);
    }

    #[test]
    fn simulation_is_deterministic() {
        assert_eq!(seq(&small()), seq(&small()));
    }

    #[test]
    fn patients_are_conserved_locally() {
        let p = small();
        let mut root = Village::generate(&p);
        for _ in 0..p.steps {
            let out = root.step_seq(&p);
            root.waiting += out;
            root.referred -= out;
        }
        let (treated, _referred, waiting) = root.totals();
        assert!(treated + waiting > 0, "nobody ever fell sick?");
    }

    #[test]
    fn par_matches_seq() {
        let p = small();
        let expect = seq(&p);
        let rt = Runtime::new(RuntimeConfig::xgomptb(4));
        for task_levels in [1u32, 2, 3] {
            let out = rt.parallel(|ctx| par(ctx, &p, task_levels));
            assert_eq!(out.result, expect, "task_levels={task_levels}");
        }
    }
}
