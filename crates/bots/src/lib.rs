//! # xgomp-bots
//!
//! The nine Barcelona OpenMP Task Suite (BOTS) applications used in the
//! paper's evaluation, reimplemented in Rust on the `xgomp-core` task
//! API. Each module provides a sequential reference (`seq`), a
//! task-parallel version (`par`) written the way the BOTS C code uses
//! OpenMP tasks, and tests asserting they agree.
//!
//! In the paper's Fig. 4 ordering (average task size, small → large):
//!
//! | App | Module | Parallel structure |
//! |-----|--------|--------------------|
//! | Fib      | [`fib`]       | binary recursion, task per call (10–80 cycle tasks) |
//! | NQueens  | [`nqueens`]   | task per row placement |
//! | FFT      | [`fft`]       | task per half-transform (Cooley–Tukey) |
//! | FP       | [`floorplan`] | branch-and-bound, task per candidate placement |
//! | Health   | [`health`]    | task per sub-village per timestep |
//! | UTS      | [`uts`]       | task per subtree (unbalanced by construction) |
//! | STRAS    | [`strassen`]  | task per Strassen quadrant product |
//! | Sort     | [`sort`]      | cilksort: parallel mergesort + parallel merge |
//! | Align    | [`align`]     | task per sequence pair, all spawned by one worker |
//!
//! Inputs are scaled by [`Scale`]: `Test` (CI), `Quick` (the figure
//! binaries' default), `Paper` (the closest feasible to the paper's inputs
//! on a laptop-class host; [`BotsApp::params_string`] prints each app's
//! inputs). BOTS input files are replaced by seeded synthetic generators
//! ([`rng`]).
//!
//! [`suite::BotsApp`] exposes the whole suite uniformly (name, run,
//! digest) for the benchmark harness.
//!
//! Beyond BOTS, [`dataloops`] adds *data-parallel* kernels (row-skewed
//! SpMV, triangular loop nest, fixed-point Mandelbrot) with tunable
//! per-iteration imbalance, driving `TaskCtx::parallel_for`'s schedule
//! comparison.

#![warn(missing_docs)]

pub mod align;
pub mod dataloops;
pub mod fft;
pub mod fib;
pub mod floorplan;
pub mod health;
pub mod nqueens;
pub mod rng;
pub mod sort;
pub mod strassen;
pub mod suite;
pub mod uts;

pub use suite::{BotsApp, Scale};
