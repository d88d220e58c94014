//! Runtime configuration and the paper's five runtime presets.
//!
//! | Preset | Scheduler | Barrier | Allocator |
//! |--------|-----------|---------|-----------|
//! | [`RuntimeConfig::gomp`]    | global locked priority queue | centralized (locked) | malloc |
//! | [`RuntimeConfig::lomp`]    | lock-free deques + stealing  | atomic counter | multi-level |
//! | [`RuntimeConfig::xlomp`]   | XQueue lattice               | atomic counter | multi-level |
//! | [`RuntimeConfig::xgomp`]   | XQueue lattice               | atomic counter | malloc |
//! | [`RuntimeConfig::xgomptb`] | XQueue lattice               | distributed tree | malloc |
//!
//! Any field can be overridden afterwards (builder style), which is how
//! the bench harness runs the paper's ablations (e.g. XQueue with the
//! centralized barrier isolates the barrier's contribution).

use serde::{Deserialize, Serialize};

use xgomp_profiling::TraceLevel;
use xgomp_topology::{Affinity, CostModel, MachineTopology};

use crate::alloc::AllocKind;
use crate::barrier::BarrierKind;
use crate::dlb::DlbConfig;
use crate::sched::SchedulerKind;
use crate::team::Runtime;

/// Full configuration of a [`Runtime`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// Team size (workers, including the master).
    pub threads: usize,
    /// Task-queue backend.
    pub scheduler: SchedulerKind,
    /// Team barrier / termination detector.
    pub barrier: BarrierKind,
    /// Task-record allocation policy.
    pub allocator: AllocKind,
    /// Slots per SPSC queue (`S_queue`; XQueue scheduler only).
    pub queue_capacity: usize,
    /// Dynamic load balancing, if any (XQueue scheduler only).
    pub dlb: Option<DlbConfig>,
    /// Simulated machine (see `xgomp_topology`'s "Why a model").
    pub topology: MachineTopology,
    /// Worker→core binding policy.
    pub affinity: Affinity,
    /// NUMA latency model applied to non-local task execution.
    pub cost_model: CostModel,
    /// Per-thread event profiling (§V); off by default.
    pub profiling: bool,
    /// Event-driven idle handling: workers that exhaust their spin
    /// backoff park on the team's NUMA-aware [`Parker`] and are woken by
    /// producers/DLB/teardown instead of spinning. On by default; turn
    /// off to reproduce the paper's pure spin-idle measurement mode (the
    /// latency-vs-CPU trade-off knob of the task server).
    ///
    /// The default honors the `XGOMP_WAIT_POLICY` environment variable
    /// (the `OMP_WAIT_POLICY` analog): `active` = spin idle
    /// (`park_idle = false`), `passive` = park (the default). An explicit
    /// [`park_idle`](RuntimeConfig::park_idle) call always wins. CI runs
    /// the whole test suite once per policy so idle-subsystem regressions
    /// cannot hide behind either default.
    ///
    /// [`Parker`]: xgomp_xqueue::Parker
    pub park_idle: bool,
    /// Flight-recorder trace level (`Off`/`Lifecycle`/`Full`; see
    /// [`TraceLevel`]). Off by default — every instrumentation site then
    /// costs one relaxed load plus a branch. The default honors the
    /// `XGOMP_TRACE` environment variable (`off`/`lifecycle`/`full`);
    /// an explicit [`trace`](RuntimeConfig::trace) call wins. The task
    /// server can also flip the level live, without a new generation.
    pub trace: TraceLevel,
}

/// Default idle policy from `XGOMP_WAIT_POLICY` (see
/// [`RuntimeConfig::park_idle`]); read once per process.
fn default_park_idle() -> bool {
    static POLICY: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *POLICY.get_or_init(|| {
        !std::env::var("XGOMP_WAIT_POLICY").is_ok_and(|v| v.eq_ignore_ascii_case("active"))
    })
}

/// Default trace level from `XGOMP_TRACE` (see [`RuntimeConfig::trace`]);
/// read once per process.
fn default_trace_level() -> TraceLevel {
    static LEVEL: std::sync::OnceLock<TraceLevel> = std::sync::OnceLock::new();
    *LEVEL.get_or_init(TraceLevel::from_env)
}

impl RuntimeConfig {
    fn base(threads: usize) -> Self {
        let threads = threads.max(1);
        RuntimeConfig {
            threads,
            scheduler: SchedulerKind::XQueue,
            barrier: BarrierKind::Tree,
            allocator: AllocKind::Malloc,
            queue_capacity: xgomp_xqueue::DEFAULT_CAPACITY,
            dlb: None,
            topology: MachineTopology::fit_workers(threads),
            affinity: Affinity::Close,
            cost_model: CostModel::disabled(),
            profiling: false,
            park_idle: default_park_idle(),
            trace: default_trace_level(),
        }
    }

    /// GNU OpenMP model: global task lock + priority queue, centralized
    /// barrier, malloc per task.
    pub fn gomp(threads: usize) -> Self {
        RuntimeConfig {
            scheduler: SchedulerKind::Gomp,
            barrier: BarrierKind::Centralized,
            allocator: AllocKind::Malloc,
            ..Self::base(threads)
        }
    }

    /// LLVM OpenMP model: lock-free work-stealing deques, atomic-counter
    /// barrier, multi-level allocator.
    pub fn lomp(threads: usize) -> Self {
        RuntimeConfig {
            scheduler: SchedulerKind::Lomp,
            barrier: BarrierKind::AtomicCount,
            allocator: AllocKind::MultiLevel,
            ..Self::base(threads)
        }
    }

    /// XQueue in the LLVM-style runtime (XLOMP): lattice scheduling with
    /// the multi-level allocator and atomic-counter barrier.
    pub fn xlomp(threads: usize) -> Self {
        RuntimeConfig {
            scheduler: SchedulerKind::XQueue,
            barrier: BarrierKind::AtomicCount,
            allocator: AllocKind::MultiLevel,
            ..Self::base(threads)
        }
    }

    /// XGOMP (§III-A): XQueue replaces the global queue/lock; the global
    /// task counter stays as an acquire-release atomic.
    pub fn xgomp(threads: usize) -> Self {
        RuntimeConfig {
            scheduler: SchedulerKind::XQueue,
            barrier: BarrierKind::AtomicCount,
            allocator: AllocKind::Malloc,
            ..Self::base(threads)
        }
    }

    /// XGOMPTB (§III-B): XGOMP plus the hybrid distributed tree barrier.
    pub fn xgomptb(threads: usize) -> Self {
        RuntimeConfig {
            scheduler: SchedulerKind::XQueue,
            barrier: BarrierKind::Tree,
            allocator: AllocKind::Malloc,
            ..Self::base(threads)
        }
    }

    /// Panics unless a team of `self.threads` workers can exist — the
    /// one statement of the team-size limits every team constructor (and
    /// the task server's `resume_with`) checks.
    pub fn assert_team_size(&self) {
        assert!(self.threads >= 1, "a team needs at least one worker");
        assert!(
            self.threads <= (1 << 24),
            "worker ids must fit the 24-bit message-cell field"
        );
    }

    // ---- builder-style overrides ----

    /// Enables a DLB strategy (meaningful with the XQueue scheduler).
    pub fn dlb(mut self, cfg: DlbConfig) -> Self {
        self.dlb = Some(cfg);
        self
    }

    /// Clears any DLB strategy (back to static load balancing).
    pub fn slb(mut self) -> Self {
        self.dlb = None;
        self
    }

    /// Overrides the barrier (ablations).
    pub fn barrier(mut self, kind: BarrierKind) -> Self {
        self.barrier = kind;
        self
    }

    /// Overrides the allocator (ablations).
    pub fn allocator(mut self, kind: AllocKind) -> Self {
        self.allocator = kind;
        self
    }

    /// Sets `S_queue`, the per-SPSC-queue capacity.
    pub fn queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = cap.max(2);
        self
    }

    /// Replaces the simulated machine.
    pub fn topology(mut self, topo: MachineTopology) -> Self {
        self.topology = topo;
        self
    }

    /// Sets the worker binding policy.
    pub fn affinity(mut self, a: Affinity) -> Self {
        self.affinity = a;
        self
    }

    /// Sets the NUMA cost model.
    pub fn cost_model(mut self, m: CostModel) -> Self {
        self.cost_model = m;
        self
    }

    /// Toggles §V profiling.
    pub fn profiling(mut self, on: bool) -> Self {
        self.profiling = on;
        self
    }

    /// Toggles event-driven idling (see [`RuntimeConfig::park_idle`]).
    pub fn park_idle(mut self, on: bool) -> Self {
        self.park_idle = on;
        self
    }

    /// Sets the flight-recorder trace level (see
    /// [`RuntimeConfig::trace`]).
    pub fn trace(mut self, level: TraceLevel) -> Self {
        self.trace = level;
        self
    }

    /// Human-readable preset name for reports: recognizes the five paper
    /// presets and annotates DLB, e.g. `"XGOMPTB+NA-WS"`.
    pub fn name(&self) -> String {
        let base = match (self.scheduler, self.barrier, self.allocator) {
            (SchedulerKind::Gomp, BarrierKind::Centralized, AllocKind::Malloc) => "GOMP",
            (SchedulerKind::Lomp, BarrierKind::AtomicCount, AllocKind::MultiLevel) => "LOMP",
            (SchedulerKind::XQueue, BarrierKind::AtomicCount, AllocKind::MultiLevel) => "XLOMP",
            (SchedulerKind::XQueue, BarrierKind::AtomicCount, AllocKind::Malloc) => "XGOMP",
            (SchedulerKind::XQueue, BarrierKind::Tree, AllocKind::Malloc) => "XGOMPTB",
            _ => "CUSTOM",
        };
        match &self.dlb {
            None => base.to_string(),
            Some(d) => format!("{base}+{}", d.strategy.name()),
        }
    }

    /// Convenience: `Runtime::new(self)`.
    pub fn build(self) -> Runtime {
        Runtime::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dlb::{DlbConfig, DlbStrategy};

    #[test]
    fn preset_names() {
        assert_eq!(RuntimeConfig::gomp(4).name(), "GOMP");
        assert_eq!(RuntimeConfig::lomp(4).name(), "LOMP");
        assert_eq!(RuntimeConfig::xgomp(4).name(), "XGOMP");
        assert_eq!(RuntimeConfig::xgomptb(4).name(), "XGOMPTB");
        assert_eq!(RuntimeConfig::xlomp(4).name(), "XLOMP");
        assert_eq!(
            RuntimeConfig::xgomptb(4)
                .dlb(DlbConfig::new(DlbStrategy::WorkSteal))
                .name(),
            "XGOMPTB+NA-WS"
        );
        assert_eq!(
            RuntimeConfig::xgomptb(4)
                .barrier(BarrierKind::Centralized)
                .name(),
            "CUSTOM"
        );
    }

    #[test]
    fn builders_compose() {
        let cfg = RuntimeConfig::xgomptb(8)
            .queue_capacity(64)
            .profiling(true)
            .dlb(DlbConfig::new(DlbStrategy::RedirectPush))
            .slb();
        assert_eq!(cfg.threads, 8);
        assert_eq!(cfg.queue_capacity, 64);
        assert!(cfg.profiling);
        assert!(cfg.dlb.is_none());
        assert!(cfg.topology.total_hw_threads() >= 8);
    }

    #[test]
    fn config_serializes() {
        let cfg = RuntimeConfig::xgomptb(4).dlb(DlbConfig::new(DlbStrategy::WorkSteal));
        let json = serde_json::to_string(&cfg).unwrap();
        assert!(json.contains("Tree"));
        let back: RuntimeConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.name(), "XGOMPTB+NA-WS");
    }
}
