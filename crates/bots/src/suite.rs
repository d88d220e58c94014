//! Uniform driver for the nine-application suite: the benchmark harness
//! addresses every BOTS app through [`BotsApp`] (run sequentially or as
//! tasks, get an order-independent digest, query paper metadata).

use serde::{Deserialize, Serialize};
use xgomp_core::{CostModel, TaskCtx};

use crate::{align, fft, fib, floorplan, health, nqueens, sort, strassen, uts};

/// Input scale: `Test` for CI assertions, `Quick` for the figure binaries'
/// default runs, `Paper` for the closest-feasible reproduction runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scale {
    /// Milliseconds per app; used by unit/integration tests.
    Test,
    /// Sub-second per app per runtime; the figure binaries' default.
    Quick,
    /// Seconds per app; the closest-feasible reproduction runs
    /// (`repro_all --scale paper`).
    Paper,
}

/// The nine BOTS applications, in the paper's task-size order (Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BotsApp {
    /// Fibonacci (finest grain, 10–80 cycles/task).
    Fib,
    /// N-Queens solution counting.
    NQueens,
    /// Cooley–Tukey FFT.
    Fft,
    /// Floorplan branch-and-bound.
    Floorplan,
    /// Health-system simulation.
    Health,
    /// Unbalanced Tree Search.
    Uts,
    /// Strassen matrix multiply.
    Strassen,
    /// Cilksort.
    Sort,
    /// All-pairs protein alignment (coarsest grain).
    Align,
}

impl BotsApp {
    /// All apps in the paper's presentation order.
    pub const ALL: [BotsApp; 9] = [
        BotsApp::Fib,
        BotsApp::NQueens,
        BotsApp::Fft,
        BotsApp::Floorplan,
        BotsApp::Health,
        BotsApp::Uts,
        BotsApp::Strassen,
        BotsApp::Sort,
        BotsApp::Align,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            BotsApp::Fib => "FIB",
            BotsApp::NQueens => "NQUEENS",
            BotsApp::Fft => "FFT",
            BotsApp::Floorplan => "FP",
            BotsApp::Health => "HEALTH",
            BotsApp::Uts => "UTS",
            BotsApp::Strassen => "STRAS",
            BotsApp::Sort => "SORT",
            BotsApp::Align => "ALIGN",
        }
    }

    /// Representative per-task size in `rdtscp` cycles, from the paper's
    /// §VI measurements (drives Table IV guided configurations).
    pub fn typical_task_cycles(self) -> u64 {
        match self {
            BotsApp::Fib => 50,
            BotsApp::NQueens => 150,
            BotsApp::Fft => 500,
            BotsApp::Floorplan => 800,
            BotsApp::Health => 2_000,
            BotsApp::Uts => 3_000,
            BotsApp::Strassen => 10_000,
            BotsApp::Sort => 100_000,
            BotsApp::Align => 1_000_000,
        }
    }

    /// Suggested NUMA cost model: data-heavy apps (per-task arrays —
    /// STRAS, Sort, FFT) model more memory traffic per task (§VI-B1).
    pub fn suggested_cost_model(self) -> CostModel {
        match self {
            BotsApp::Strassen | BotsApp::Sort => CostModel::data_heavy(20),
            BotsApp::Fft => CostModel::data_heavy(5),
            _ => CostModel::paper_default(),
        }
    }

    /// Input description for reports (mirrors the paper's §VI-A list).
    pub fn params_string(self, scale: Scale) -> String {
        match self {
            BotsApp::Fib => format!("n={}", fib_n(scale)),
            BotsApp::NQueens => {
                let (n, d) = nq(scale);
                format!("n={n} depth={d}")
            }
            BotsApp::Fft => {
                let (logn, cut) = fftp(scale);
                format!("n=2^{logn} cutoff={cut}")
            }
            BotsApp::Floorplan => {
                let (cells, depth) = fpp(scale);
                format!("cells={cells} depth={depth}")
            }
            BotsApp::Health => {
                let (p, tl) = healthp(scale);
                format!(
                    "levels={} branch={} steps={} task_levels={tl}",
                    p.levels, p.branch, p.steps
                )
            }
            BotsApp::Uts => {
                let p = utsp(scale);
                format!("b0={} q={}‰ m={}", p.root_children, p.q_permille, p.m)
            }
            BotsApp::Strassen => {
                let (n, cut, d) = strasp(scale);
                format!("n={n} cutoff={cut} depth={d}")
            }
            BotsApp::Sort => {
                let (n, sc, mc) = sortp(scale);
                format!("n={n} sort_cutoff={sc} merge_cutoff={mc}")
            }
            BotsApp::Align => {
                let p = alignp(scale);
                format!("seqs={} len={}", p.n_seqs, p.len)
            }
        }
    }

    /// Sequential run; returns the result digest.
    pub fn run_seq(self, scale: Scale) -> u64 {
        match self {
            BotsApp::Fib => fib::seq(fib_n(scale)),
            BotsApp::NQueens => nqueens::seq(nq(scale).0),
            BotsApp::Fft => {
                let (logn, _) = fftp(scale);
                let input = fft::gen_input(1 << logn, FFT_SEED);
                fft::digest(&fft::fft_seq(&input, false))
            }
            BotsApp::Floorplan => {
                let (cells, _) = fpp(scale);
                let area = floorplan::seq(&floorplan::gen_cells(cells, FP_SEED));
                fp_digest(cells, area)
            }
            BotsApp::Health => health::seq(&healthp(scale).0),
            BotsApp::Uts => uts::seq(&utsp(scale)),
            BotsApp::Strassen => {
                let (n, cut, _) = strasp(scale);
                let a = strassen::Matrix::random(n, STRAS_SEED);
                let b = strassen::Matrix::random(n, STRAS_SEED + 1);
                strassen::digest(&strassen::seq(&a, &b, cut))
            }
            BotsApp::Sort => {
                let (n, _, _) = sortp(scale);
                let mut data = sort::gen_input(n, SORT_SEED);
                sort::seq(&mut data);
                sort::digest(&data)
            }
            BotsApp::Align => align::seq(&alignp(scale)),
        }
    }

    /// Task-parallel run on an open region; returns the result digest
    /// (must equal [`run_seq`](Self::run_seq) for the same scale).
    pub fn run_par(self, ctx: &TaskCtx<'_>, scale: Scale) -> u64 {
        match self {
            BotsApp::Fib => fib::par(ctx, fib_n(scale)),
            BotsApp::NQueens => {
                let (n, d) = nq(scale);
                nqueens::par(ctx, n, d)
            }
            BotsApp::Fft => {
                let (logn, cut) = fftp(scale);
                let input = fft::gen_input(1 << logn, FFT_SEED);
                fft::digest(&fft::par(ctx, &input, cut))
            }
            BotsApp::Floorplan => {
                let (cells, depth) = fpp(scale);
                let area = floorplan::par(ctx, &floorplan::gen_cells(cells, FP_SEED), depth);
                fp_digest(cells, area)
            }
            BotsApp::Health => {
                let (p, tl) = healthp(scale);
                health::par(ctx, &p, tl)
            }
            BotsApp::Uts => uts::par(ctx, &utsp(scale)),
            BotsApp::Strassen => {
                let (n, cut, d) = strasp(scale);
                let a = strassen::Matrix::random(n, STRAS_SEED);
                let b = strassen::Matrix::random(n, STRAS_SEED + 1);
                strassen::digest(&strassen::par(ctx, &a, &b, cut, d))
            }
            BotsApp::Sort => {
                let (n, sc, mc) = sortp(scale);
                let mut data = sort::gen_input(n, SORT_SEED);
                sort::par(ctx, &mut data, sc, mc);
                sort::digest(&data)
            }
            BotsApp::Align => align::par(ctx, &alignp(scale)),
        }
    }
}

/// Digest for floorplan runs: the optimal area alone can coincide
/// between instance sizes, so the instance size is mixed in.
fn fp_digest(cells: usize, area: u64) -> u64 {
    let mut d = crate::rng::Digest::default();
    d.absorb(cells as u64);
    d.absorb(area);
    d.value()
}

const FFT_SEED: u64 = 0xF47;
const FP_SEED: u64 = 77;
const STRAS_SEED: u64 = 0x57A5;
const SORT_SEED: u64 = 0x50B7;

fn fib_n(scale: Scale) -> u64 {
    match scale {
        Scale::Test => 16,
        Scale::Quick => 21,
        Scale::Paper => 27,
    }
}

fn nq(scale: Scale) -> (u8, usize) {
    match scale {
        Scale::Test => (6, 2),
        Scale::Quick => (8, 3),
        Scale::Paper => (10, 3),
    }
}

fn fftp(scale: Scale) -> (u32, usize) {
    match scale {
        Scale::Test => (10, 256),
        Scale::Quick => (14, 512),
        Scale::Paper => (17, 1024),
    }
}

fn fpp(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Test => (4, 2),
        Scale::Quick => (5, 2),
        Scale::Paper => (6, 3),
    }
}

fn healthp(scale: Scale) -> (health::HealthParams, u32) {
    let (levels, branch, steps, task_levels) = match scale {
        Scale::Test => (3, 3, 8, 2),
        Scale::Quick => (4, 3, 16, 2),
        Scale::Paper => (5, 3, 32, 3),
    };
    (
        health::HealthParams {
            levels,
            branch,
            steps,
            capacity: 10,
            sick_permille: 30,
            population: 500,
            seed: 0x48EA_17C4,
        },
        task_levels,
    )
}

fn utsp(scale: Scale) -> uts::UtsParams {
    let (root_children, q_permille) = match scale {
        Scale::Test => (64, 190),
        Scale::Quick => (256, 210),
        Scale::Paper => (512, 220),
    };
    uts::UtsParams {
        root_children,
        q_permille,
        m: 4,
        max_depth: 200,
        seed: 0xCAFE,
    }
}

fn strasp(scale: Scale) -> (usize, usize, usize) {
    match scale {
        Scale::Test => (32, 16, 1),
        Scale::Quick => (128, 32, 2),
        Scale::Paper => (256, 32, 3),
    }
}

fn sortp(scale: Scale) -> (usize, usize, usize) {
    match scale {
        Scale::Test => (4_096, 512, 1_024),
        Scale::Quick => (100_000, 2_048, 4_096),
        Scale::Paper => (1_000_000, 2_048, 4_096),
    }
}

fn alignp(scale: Scale) -> align::AlignParams {
    let (n_seqs, len) = match scale {
        Scale::Test => (6, 48),
        Scale::Quick => (12, 96),
        Scale::Paper => (20, 192),
    };
    align::AlignParams {
        n_seqs,
        len,
        seed: 0xA11,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xgomp_core::{Runtime, RuntimeConfig};

    #[test]
    fn every_app_par_matches_seq_at_test_scale() {
        let rt = Runtime::new(RuntimeConfig::xgomptb(4));
        for app in BotsApp::ALL {
            let expect = app.run_seq(Scale::Test);
            let out = rt.parallel(|ctx| app.run_par(ctx, Scale::Test));
            assert_eq!(out.result, expect, "{} diverged", app.name());
            out.stats.check_invariants().unwrap();
        }
    }

    #[test]
    fn metadata_is_complete() {
        for app in BotsApp::ALL {
            assert!(!app.name().is_empty());
            assert!(app.typical_task_cycles() > 0);
            assert!(!app.params_string(Scale::Quick).is_empty());
        }
        // Task-size ordering matches the paper's Fig. 4 (ascending).
        let sizes: Vec<u64> = BotsApp::ALL
            .iter()
            .map(|a| a.typical_task_cycles())
            .collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sizes, sorted, "ALL must be in task-size order");
    }

    #[test]
    fn digests_are_scale_sensitive() {
        for app in BotsApp::ALL {
            assert_ne!(
                app.run_seq(Scale::Test),
                app.run_seq(Scale::Quick),
                "{}: Test and Quick scales produced identical digests",
                app.name()
            );
        }
    }
}
