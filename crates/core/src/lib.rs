//! # xgomp-core
//!
//! A from-scratch Rust reproduction of the runtime described in
//! *"Optimizing Fine-Grained Parallelism Through Dynamic Load Balancing
//! on Multi-Socket Many-Core Systems"* (IPPS 2025): GNU-OpenMP-style
//! tasking rebuilt around the lock-less **XQueue** lattice, a hybrid
//! lock-free/lock-less **distributed tree barrier**, and two lock-less
//! NUMA-aware **dynamic load balancing** strategies (NA-RP and NA-WS).
//!
//! ## Quick start
//!
//! ```
//! use xgomp_core::{Runtime, RuntimeConfig};
//!
//! // The paper's best runtime: XQueue + distributed tree barrier.
//! let rt = Runtime::new(RuntimeConfig::xgomptb(4));
//! let out = rt.parallel(|ctx| {
//!     let mut squares = vec![0u64; 32];
//!     ctx.scope(|s| {
//!         for (i, sq) in squares.iter_mut().enumerate() {
//!             s.spawn(move |_| *sq = (i as u64) * (i as u64));
//!         }
//!     }); // implicit taskwait
//!     squares.iter().sum::<u64>()
//! });
//! assert_eq!(out.result, (0..32u64).map(|i| i * i).sum::<u64>());
//! ```
//!
//! ## The five runtimes of the paper
//!
//! [`RuntimeConfig::gomp`], [`RuntimeConfig::lomp`],
//! [`RuntimeConfig::xlomp`], [`RuntimeConfig::xgomp`] and
//! [`RuntimeConfig::xgomptb`] reproduce the five configurations evaluated
//! in Figs. 1 and 4–6; adding a [`DlbConfig`] reproduces the NA-RP /
//! NA-WS variants of Fig. 7 onwards. Every region returns a
//! [`RegionOutput`] carrying the §V statistics (task locality, steal
//! accounting) and, when enabled, per-thread event timelines.
//!
//! ## Crate map
//!
//! * task-level machinery: `task`, `alloc` (malloc vs multi-level);
//! * scheduling: `sched` (GOMP / LOMP / XQueue backends);
//! * termination: [`barrier`] (centralized / atomic-count / tree);
//! * load balancing: [`dlb`] (messaging protocol, NA-RP, NA-WS);
//! * data parallelism: [`loops`] (`parallel_for`, NUMA-aware
//!   iteration-space scheduling over per-zone range pools);
//! * tuning: [`guidelines`] (Table IV as code).

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]
#![deny(unsafe_op_in_unsafe_fn)]

mod alloc;
pub mod barrier;
mod cancel;
mod config;
mod ctx;
pub mod dlb;
pub mod guidelines;
pub mod loops;
mod sched;
mod task;
mod team;
mod util;

pub use alloc::AllocKind;
pub use barrier::BarrierKind;
pub use cancel::{raise_cancel, CancelReason, CancelToken, CancelUnwind};
pub use config::RuntimeConfig;
pub use ctx::{Scope, TaskCtx};
pub use dlb::{DlbConfig, DlbStrategy};
pub use loops::{
    auto_portfolio_member, AutoPick, AutoSelector, AutoSiteStatus, ChunkPolicy, IterSpace,
    LoopError, LoopId, LoopReport, LoopSchedule, LoopSpace, SpaceKind, AUTO_CONFIRM_WINDOWS,
    AUTO_FALLBACK, AUTO_PORTFOLIO_LEN, AUTO_TRIALS_PER_MEMBER, DEFAULT_TILE,
};
pub use sched::SchedulerKind;
pub use team::{IngressSource, RegionOutput, Runtime, ServingHooks};

// Re-exports so downstream crates need only depend on xgomp-core.
pub use xgomp_profiling::{
    chrome_json_from_dir, chrome_json_from_jsonl, clock, final_summary, render_task_counts,
    render_timeline, state_summary, DrainSummary, EventKind, LoopTelemetry, LoopTelemetrySnapshot,
    PerfLog, ProfileDump, PromText, StatsSnapshot, StreamLine, TaskSizeHistogram, TeamStats,
    TraceEvent, TraceLevel, TraceSnapshot, TraceStream, TraceStreamConfig, TraceStreamStats,
    Tracer, LOOP_SCHEDULES, LOOP_SCHEDULE_NAMES,
};
pub use xgomp_topology::{Affinity, CostModel, Locality, MachineTopology, Placement};
pub use xgomp_xqueue::{Parker, ParkerCell};
