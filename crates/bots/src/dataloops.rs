//! Data-parallel kernels with tunable per-iteration imbalance — the
//! workload side of the loop subsystem (`TaskCtx::parallel_for`).
//!
//! BOTS covers the paper's *task*-parallel story; these kernels cover
//! the *data*-parallel one: each is a flat iteration space whose
//! per-iteration cost distribution is shaped by a [`CostProfile`], so a
//! schedule comparison (static vs dynamic vs guided vs adaptive) can be
//! run under uniform, skewed and bimodal imbalance — the axes LB4OMP's
//! loop-scheduling evaluation varies.
//!
//! Every kernel is a deterministic pure function of the iteration index
//! (integer arithmetic only, seeded by [`rng`](crate::rng)):
//! `value(i)` returns the iteration's contribution, and
//! [`Kernel::seq_checksum`] folds all of them sequentially — the
//! reference any parallel run must reproduce exactly.
//!
//! | Kernel | Structure | Natural imbalance |
//! |--------|-----------|-------------------|
//! | [`SkewedSpmv`] | CSR sparse matrix–vector row products | row lengths follow the profile |
//! | [`Triangular`] | row `i` of a triangular loop nest (`j ≤ i` inner work) | linearly growing cost |
//! | [`Mandelbrot`] | fixed-point escape-time per pixel | interior pixels ~100× edge pixels |

use crate::rng::{mix64, Rng};

/// Per-iteration cost shaping of a kernel's iteration space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostProfile {
    /// Every iteration costs about the same.
    Uniform,
    /// Cost grows toward the end of the space (the classic
    /// statically-unbalanceable tail: the last block dominates).
    Skewed,
    /// ~90% cheap iterations, ~10% expensive ones, interleaved
    /// pseudo-randomly (outlier-dominated distributions — the case
    /// modal-decade classification exists for).
    Bimodal,
}

impl CostProfile {
    /// All profiles, for sweeps.
    pub const ALL: [CostProfile; 3] = [
        CostProfile::Uniform,
        CostProfile::Skewed,
        CostProfile::Bimodal,
    ];

    /// Short label for tables.
    pub fn name(self) -> &'static str {
        match self {
            CostProfile::Uniform => "uniform",
            CostProfile::Skewed => "skewed",
            CostProfile::Bimodal => "bimodal",
        }
    }

    /// Inner-work multiplier for iteration `i` of `n`, scaled so the
    /// *total* work is comparable across profiles.
    fn weight(self, i: u64, n: u64) -> u64 {
        match self {
            CostProfile::Uniform => 8,
            // Quadratic ramp, mean ≈ 8: the top decile carries ~27% of
            // the work, the last block is ~3× the first.
            CostProfile::Skewed => 1 + (i * i * 21) / (n * n).max(1),
            // 1-in-10 iterations (hash-picked) cost ~64×.
            CostProfile::Bimodal => {
                if mix64(i).is_multiple_of(10) {
                    65
                } else {
                    1
                }
            }
        }
    }
}

/// A data-parallel kernel: an iteration space plus a pure per-iteration
/// function. Object-safe so harnesses can sweep kernels uniformly.
pub trait Kernel: Send + Sync {
    /// Kernel name for tables.
    fn name(&self) -> &'static str;

    /// Number of iterations in the space.
    fn len(&self) -> u64;

    /// Whether the space is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The iteration's contribution (pure; wrapping integer math).
    fn value(&self, i: u64) -> u64;

    /// Sequential reference checksum: the wrapping sum of every
    /// iteration's value.
    fn seq_checksum(&self) -> u64 {
        (0..self.len()).fold(0u64, |acc, i| acc.wrapping_add(self.value(i)))
    }
}

/// Row-skewed sparse matrix × vector product in CSR form: iteration `i`
/// computes row `i`'s dot product. Row lengths follow the cost profile,
/// so a static row partition is exactly as unbalanced as the profile.
pub struct SkewedSpmv {
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    vals: Vec<u64>,
    x: Vec<u64>,
}

impl SkewedSpmv {
    /// Builds an `n`-row synthetic matrix over an `n`-vector, with row
    /// lengths shaped by `profile` (deterministic in `seed`).
    pub fn new(n: u64, profile: CostProfile, seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x59A3);
        let cols = n.max(1) as u32;
        let mut row_ptr = Vec::with_capacity(n as usize + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0u32);
        for i in 0..n {
            let nnz = profile.weight(i, n);
            for _ in 0..nnz {
                col_idx.push(rng.below(cols as u64) as u32);
                vals.push(rng.next_u64() >> 32);
            }
            row_ptr.push(col_idx.len() as u32);
        }
        let x = (0..n.max(1)).map(|_| rng.next_u64() >> 32).collect();
        SkewedSpmv {
            row_ptr,
            col_idx,
            vals,
            x,
        }
    }

    /// Stored non-zeros (total work ∝ this).
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }
}

impl Kernel for SkewedSpmv {
    fn name(&self) -> &'static str {
        "spmv"
    }

    fn len(&self) -> u64 {
        (self.row_ptr.len() - 1) as u64
    }

    fn value(&self, i: u64) -> u64 {
        let (a, b) = (self.row_ptr[i as usize], self.row_ptr[i as usize + 1]);
        let mut acc = 0u64;
        for j in a..b {
            let (c, v) = (self.col_idx[j as usize], self.vals[j as usize]);
            acc = acc.wrapping_add(v.wrapping_mul(self.x[c as usize]));
        }
        acc
    }
}

/// Row `i` of a triangular loop nest: the inner loop runs `j ∈ 0..=i`
/// (optionally re-shaped by a profile), hashing `(i, j)` pairs — the
/// canonical linearly-skewed space where `schedule(static)` wastes half
/// the team.
pub struct Triangular {
    n: u64,
    profile: CostProfile,
    seed: u64,
}

impl Triangular {
    /// An `n`-row triangular space under `profile`.
    pub fn new(n: u64, profile: CostProfile, seed: u64) -> Self {
        Triangular { n, profile, seed }
    }

    /// Rows of the nest.
    pub fn rows(&self) -> u64 {
        self.n
    }

    /// The `(i, j)` pair's contribution. Under the `Skewed` profile the
    /// inner loop is the true triangular nest (`j ∈ 0..=i`), and
    /// `value(i)` is exactly `Σ_{j ≤ i} pair_value(i, j)` — so a run
    /// over the first-class triangular *space* (`parallel_for_tri`,
    /// one point per valid pair, no guard) must checksum identically to
    /// the 1-D row loop.
    pub fn pair_value(&self, i: u64, j: u64) -> u64 {
        let head = if j == 0 { self.seed ^ i } else { 0 };
        head.wrapping_add(mix64(i.wrapping_mul(0x9E37).wrapping_add(j)))
    }

    /// Guard no-ops a square `n × n` loop with a `j ≤ i` test burns
    /// that the triangular space never even schedules.
    pub fn eliminated_noops(&self) -> u64 {
        self.n * self.n - self.n * (self.n + 1) / 2
    }
}

impl Kernel for Triangular {
    fn name(&self) -> &'static str {
        "triangular"
    }

    fn len(&self) -> u64 {
        self.n
    }

    fn value(&self, i: u64) -> u64 {
        // The triangular structure itself is the skew for `Skewed`
        // (the real `j ≤ i` inner loop); other profiles re-shape the
        // inner trip count.
        let trips = match self.profile {
            CostProfile::Skewed => i + 1,
            p => p.weight(i, self.n) * 4,
        };
        (0..trips).fold(0u64, |acc, j| acc.wrapping_add(self.pair_value(i, j)))
    }
}

/// Escape-time fractal over a pixel strip in Q40.24 fixed point —
/// deterministic across platforms (no floats). Interior pixels run the
/// full iteration budget, exterior ones escape after a handful: a
/// naturally bimodal cost map that no static partition fits.
pub struct Mandelbrot {
    width: u64,
    height: u64,
    max_iter: u32,
}

impl Mandelbrot {
    /// A `width × height` strip of the classic region, `max_iter` budget.
    pub fn new(width: u64, height: u64, max_iter: u32) -> Self {
        Mandelbrot {
            width,
            height,
            max_iter,
        }
    }
}

/// Q40.24 fixed-point helpers.
const FP: i64 = 1 << 24;

#[inline]
fn fp_mul(a: i64, b: i64) -> i64 {
    ((a as i128 * b as i128) >> 24) as i64
}

impl Kernel for Mandelbrot {
    fn name(&self) -> &'static str {
        "mandelbrot"
    }

    fn len(&self) -> u64 {
        self.width * self.height
    }

    fn value(&self, i: u64) -> u64 {
        let (px, py) = (i % self.width, i / self.width);
        // Map onto x ∈ [-2, 0.5], y ∈ [-1.25, 1.25] (the interesting
        // region, guaranteeing a cheap/expensive pixel mix).
        let cx = -2 * FP + (5 * FP / 2) * px as i64 / self.width.max(1) as i64;
        let cy = -5 * FP / 4 + (5 * FP / 2) * py as i64 / self.height.max(1) as i64;
        let (mut zx, mut zy) = (0i64, 0i64);
        let mut it = 0u32;
        while it < self.max_iter {
            let (x2, y2) = (fp_mul(zx, zx), fp_mul(zy, zy));
            if x2 + y2 > 4 * FP {
                break;
            }
            let nzx = x2 - y2 + cx;
            zy = 2 * fp_mul(zx, zy) + cy;
            zx = nzx;
            it += 1;
        }
        it as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use xgomp_core::{LoopSchedule, Runtime, RuntimeConfig};

    fn kernels() -> Vec<Box<dyn Kernel>> {
        vec![
            Box::new(SkewedSpmv::new(2_000, CostProfile::Skewed, 7)),
            Box::new(Triangular::new(2_000, CostProfile::Skewed, 7)),
            Box::new(Mandelbrot::new(64, 32, 256)),
        ]
    }

    #[test]
    fn kernels_are_deterministic() {
        for k in kernels() {
            assert_eq!(k.seq_checksum(), k.seq_checksum(), "{}", k.name());
            assert!(!k.is_empty());
        }
        // Same seed ⇒ same matrix.
        let a = SkewedSpmv::new(500, CostProfile::Bimodal, 3).seq_checksum();
        let b = SkewedSpmv::new(500, CostProfile::Bimodal, 3).seq_checksum();
        assert_eq!(a, b);
        // Different seed ⇒ (overwhelmingly) different matrix.
        let c = SkewedSpmv::new(500, CostProfile::Bimodal, 4).seq_checksum();
        assert_ne!(a, c);
    }

    #[test]
    fn profiles_shape_spmv_row_lengths() {
        let n = 4_000;
        let uni = SkewedSpmv::new(n, CostProfile::Uniform, 1);
        let skew = SkewedSpmv::new(n, CostProfile::Skewed, 1);
        // Skewed: the last 10% of rows hold far more than 10% of nnz.
        let tail_first = skew.row_ptr[(n as usize * 9) / 10];
        let tail_nnz = skew.nnz() as u32 - tail_first;
        assert!(
            tail_nnz as u64 * 4 > skew.nnz() as u64,
            "skewed tail decile holds ≥ 25% of the work"
        );
        // Uniform rows are all equal.
        let lens: Vec<u32> = uni.row_ptr.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(lens.iter().all(|&l| l == lens[0]));
    }

    #[test]
    fn parallel_for_reproduces_the_sequential_checksum() {
        // The classic family plus the LB4OMP portfolio: every schedule
        // must reproduce the sequential checksum on every kernel.
        let schedules = [
            LoopSchedule::Guided(8),
            LoopSchedule::Tss {
                first: 128,
                last: 4,
            },
            LoopSchedule::Factoring,
            LoopSchedule::WeightedFactoring,
            LoopSchedule::Awf,
        ];
        for k in kernels() {
            let expect = k.seq_checksum();
            let rt = Runtime::new(RuntimeConfig::xgomptb(4));
            for sched in schedules {
                let out = rt.parallel(|ctx| {
                    let acc = AtomicU64::new(0);
                    ctx.parallel_for(0..k.len(), sched, |i, _| {
                        acc.fetch_add(k.value(i), Ordering::Relaxed);
                    });
                    acc.load(Ordering::Relaxed)
                });
                assert_eq!(out.result, expect, "{}/{}", k.name(), sched.name());
            }
        }
    }

    #[test]
    fn triangular_space_checksums_identically_to_the_guarded_square() {
        let n = 257u64;
        let k = Triangular::new(n, CostProfile::Skewed, 11);
        let expect = k.seq_checksum();
        let rt = Runtime::new(RuntimeConfig::xgomptb(4));

        // Legacy shape: the square with a `c <= r` guard — nearly half
        // the scheduled points are no-ops.
        let square = rt.parallel(|ctx| {
            let acc = AtomicU64::new(0);
            ctx.parallel_for_2d(n, n, LoopSchedule::Guided(4), |(r, c), _| {
                if c <= r {
                    acc.fetch_add(k.pair_value(r, c), Ordering::Relaxed);
                }
            });
            acc.load(Ordering::Relaxed)
        });
        assert_eq!(square.result, expect, "guarded square reproduces");

        // First-class triangular space: no guard, identical checksum,
        // and the loop report counts exactly the valid pairs.
        let tri = rt.parallel(|ctx| {
            let acc = AtomicU64::new(0);
            let report = ctx.parallel_for_tri(n, LoopSchedule::Dynamic(8), |(r, c), _| {
                acc.fetch_add(k.pair_value(r, c), Ordering::Relaxed);
            });
            (acc.load(Ordering::Relaxed), report.iterations)
        });
        assert_eq!(tri.result.0, expect, "triangular space reproduces");
        assert_eq!(tri.result.1, n * (n + 1) / 2, "only valid pairs run");
        assert_eq!(k.eliminated_noops(), n * n - n * (n + 1) / 2);
    }

    #[test]
    fn mandelbrot_cost_map_is_bimodal() {
        let m = Mandelbrot::new(64, 64, 512);
        let (mut cheap, mut expensive) = (0u64, 0u64);
        for i in 0..m.len() {
            let v = m.value(i);
            if v >= 512 {
                expensive += 1;
            } else if v < 32 {
                cheap += 1;
            }
        }
        assert!(expensive > 0, "interior pixels hit the budget");
        assert!(cheap > 0, "exterior pixels escape fast");
    }
}
