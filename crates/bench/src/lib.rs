//! # xgomp-bench
//!
//! The reproduction harness: every figure and table of the paper's
//! evaluation (§VI–§VIII) is regenerated by a function in
//! [`experiments`], wrapped by a binary in `src/bin/` (the README's
//! "Reproduction harness" section is the index). Shared machinery —
//! timing, verification, table rendering, CSV output — lives here.
//!
//! All binaries accept:
//!
//! ```text
//! --scale test|quick|paper    input scale (default quick)
//! --threads N                 team size (default: 2 × cores, min 4)
//! --reps N                    repetitions, median reported (default 3)
//! --out DIR                   CSV output directory (default results/)
//! ```

#![warn(missing_docs)]

pub mod experiments;
pub mod grain;
pub mod harness;
pub mod table;

pub use harness::{parse_args, ExpCtx};
pub use table::Table;
