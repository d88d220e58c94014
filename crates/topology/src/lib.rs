//! # xgomp-topology
//!
//! A software model of the multi-socket NUMA machine the paper evaluates
//! on (an Intel Skylake with 192 cores / 384 hardware threads across eight
//! NUMA zones), plus the worker-placement and locality primitives the
//! XGOMP runtime's NUMA-aware load balancing needs.
//!
//! ## Why a model
//!
//! This reproduction runs wherever `cargo test` runs — typically a small
//! container without 8 sockets and without permission to pin threads (and
//! `libc` is outside the allowed dependency set). So the *topology is
//! virtual*: worker `i` is deterministically
//! assigned a core, socket, and NUMA zone exactly as OpenMP's
//! `OMP_PROC_BIND=close` would, and every policy decision in the runtime
//! (victim choice under `p_local`, self/local/remote accounting, steal
//! locality) is driven by this assignment. The latency asymmetry that
//! makes those policies matter is reproduced by an optional calibrated
//! [`CostModel`] that injects a spin-wait when a task runs away from the
//! core/zone where it was created (the paper quotes ≈100 ns lower-bound
//! remote access vs a few ns through shared cache, §IV-B).

#![warn(missing_docs)]

mod cost;
mod machine;
mod placement;

pub use cost::{CostModel, SpinCalibration};
pub use machine::{MachineTopology, ZoneId};
pub use placement::{Affinity, Locality, Placement};
