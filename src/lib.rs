//! # xgomp — lock-less fine-grained tasking with NUMA-aware dynamic load balancing
//!
//! A from-scratch Rust reproduction of *"Optimizing Fine-Grained
//! Parallelism Through Dynamic Load Balancing on Multi-Socket Many-Core
//! Systems"* (IPPS 2025): the XQueue lattice runtime (XGOMP), the hybrid
//! lock-free/lock-less distributed tree barrier (XGOMPTB), the NA-RP and
//! NA-WS lock-less NUMA-aware load balancers, the §V profiling tools,
//! the BOTS benchmark suite, and the §VII Proof-of-Space application
//! with a from-scratch BLAKE3.
//!
//! This facade re-exports the public API of every crate in the
//! workspace; depend on `xgomp` and you get all of it:
//!
//! ```
//! use xgomp::{DlbConfig, DlbStrategy, Runtime, RuntimeConfig};
//!
//! // XGOMPTB with NUMA-aware work stealing, 4 workers.
//! let rt = Runtime::new(
//!     RuntimeConfig::xgomptb(4).dlb(DlbConfig::new(DlbStrategy::WorkSteal)),
//! );
//! let out = rt.parallel(|ctx| xgomp::bots::fib::par(ctx, 20));
//! assert_eq!(out.result, 6765);
//! // §V statistics come back with every region:
//! assert_eq!(out.stats.total().tasks_executed, out.stats.total().tasks_created);
//! ```
//!
//! See `README.md` for the architecture overview and its "Reproduction
//! harness" section for the experiment index, and `PAPER.md` for the
//! paper being reproduced.

#![warn(missing_docs)]

pub use xgomp_core::{
    auto_portfolio_member, chrome_json_from_dir, chrome_json_from_jsonl, clock, final_summary,
    guidelines, render_task_counts, render_timeline, state_summary, Affinity, AllocKind, AutoPick,
    AutoSelector, AutoSiteStatus, BarrierKind, ChunkPolicy, CostModel, DlbConfig, DlbStrategy,
    DrainSummary, EventKind, IngressSource, IterSpace, Locality, LoopError, LoopId, LoopReport,
    LoopSchedule, LoopSpace, LoopTelemetry, LoopTelemetrySnapshot, MachineTopology, Parker,
    PerfLog, Placement, ProfileDump, PromText, RegionOutput, Runtime, RuntimeConfig, SchedulerKind,
    Scope, SpaceKind, StatsSnapshot, StreamLine, TaskCtx, TaskSizeHistogram, TeamStats, TraceEvent,
    TraceLevel, TraceSnapshot, TraceStream, TraceStreamConfig, TraceStreamStats, Tracer,
    AUTO_CONFIRM_WINDOWS, AUTO_FALLBACK, AUTO_PORTFOLIO_LEN, AUTO_TRIALS_PER_MEMBER, DEFAULT_TILE,
};
pub use xgomp_service::{
    CancelReason, CancelToken, JobError, JobHandle, JobPanic, JobReport, JoinTimeout, QosClass,
    QosClassStats, ServerConfig, ServerStats, Submission, SubmitError, SubmitOptions,
    SubmitterHandle, TaskServer, STABLE_METRIC_FAMILIES,
};

/// The BOTS benchmark suite (`xgomp-bots`).
pub mod bots {
    pub use xgomp_bots::*;
}

/// The Proof-of-Space application and BLAKE3 (`xgomp-posp`).
pub mod posp {
    pub use xgomp_posp::*;
}

/// The lock-less queueing substrate (`xgomp-xqueue`).
pub mod xqueue {
    pub use xgomp_xqueue::*;
}

/// The simulated NUMA machine model (`xgomp-topology`).
pub mod topology {
    pub use xgomp_topology::*;
}

/// The §V profiling tools (`xgomp-profiling`).
pub mod profiling {
    pub use xgomp_profiling::*;
}

/// The persistent task-server runtime (`xgomp-service`).
pub mod service {
    pub use xgomp_service::*;
}
