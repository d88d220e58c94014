//! The engine: who runs a region. A [`Runtime`] owns one set of hot
//! worker threads ([`Workers`]), started lazily by its first region and
//! parked on a generation-stamped [`StartGate`] between regions
//! (libgomp's pooled threads); every region checks the set out, publishes
//! freshly built team state through the gate, runs the master path on the
//! caller, waits for the workers to retire and hands the quiesced team to
//! `finish_region`, which fills the [`RegionOutput`]. Panic routing across
//! threads (a worker's payload re-raised on the region caller, the hot
//! thread kept parkable) lives here too.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use xgomp_profiling::{PerfLog, TeamStats};

use super::exec::{master_main, worker_loop};
use super::{build_team, finish_region, ServingHooks, TeamShared, Worker};
use crate::config::RuntimeConfig;
use crate::ctx::TaskCtx;
use crate::util::locked;

/// Stack size for worker threads. The scheduling loops *help*: an
/// executing task that waits (taskwait, overflow → execute-immediately)
/// picks up further tasks in a nested `execute` frame. Nested work is
/// popped newest first from the worker's private stack, so for it that
/// depth follows user recursion; work taken from the lattice (placed,
/// cross-pushed or root-level tasks) can still nest with the backlog.
/// 32 MiB of (virtual, lazily-committed) stack keeps deep fine-grained
/// workloads like BOTS fib off the guard page.
const WORKER_STACK_BYTES: usize = 32 * 1024 * 1024;

/// A configured runtime: the execution engine. Cheap to construct —
/// [`new`](Self::new) spawns no thread; the first region starts
/// `threads − 1` hot worker threads, which park on a start gate between
/// regions and are joined when the runtime drops. Every region builds
/// fresh *team state* on those hot *threads*, so each [`RegionOutput`]
/// field is per region (the paper's per-region measurement methodology).
///
/// Regions may overlap on one runtime — from several threads, or nested
/// from inside a task: a region *checks* the worker set *out*, and a
/// caller that finds it gone runs on a set of its own.
pub struct Runtime {
    cfg: RuntimeConfig,
    /// The hot worker set, while no region has it checked out.
    hot: Mutex<Option<Workers>>,
}

impl Runtime {
    /// Builds a runtime from `cfg` (validated).
    pub fn new(cfg: RuntimeConfig) -> Self {
        cfg.assert_team_size();
        Runtime {
            cfg,
            hot: Mutex::new(None),
        }
    }

    /// The configuration this runtime was built with.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Replaces the configuration between regions (`&mut self` proves
    /// none is open). Scheduler, barrier, DLB and allocator settings take
    /// effect at the next region, which builds fresh team state anyway;
    /// a changed worker count makes that region's check-out join the
    /// parked threads and spawn a new set — once per resize, never per
    /// region.
    pub fn reconfigure(&mut self, cfg: RuntimeConfig) {
        cfg.assert_team_size();
        self.cfg = cfg;
    }

    /// Opens a parallel region: `f` runs on the caller (worker 0, the
    /// master) as the implicit single task; the region returns when
    /// every transitively spawned task has completed (detected by the
    /// configured barrier).
    ///
    /// # Panics
    ///
    /// Re-raises the panic of a task body that panicked inside the
    /// region, with the task's own payload; the runtime stays usable.
    pub fn parallel<R>(&self, f: impl FnOnce(&TaskCtx<'_>) -> R) -> RegionOutput<R> {
        self.region(ServingHooks::default(), false, f)
    }

    /// Opens a region with the persistent-executor [`ServingHooks`]: an
    /// ingress source polled by idle workers and optional telemetry /
    /// tracer hooks. Task-body panics are isolated:
    /// they re-raise at the parent's next `taskwait` instead of
    /// poisoning the team.
    pub fn serve<R>(
        &self,
        hooks: ServingHooks,
        f: impl FnOnce(&TaskCtx<'_>) -> R,
    ) -> RegionOutput<R> {
        self.region(hooks, true, f)
    }

    fn region<R>(
        &self,
        hooks: ServingHooks,
        isolate_panics: bool,
        f: impl FnOnce(&TaskCtx<'_>) -> R,
    ) -> RegionOutput<R> {
        let n_aux = self.cfg.threads - 1;
        // Check the hot workers out; an empty slot (first region, or an
        // overlapping region holds them) or a resized team spawns a set.
        let workers = locked(&self.hot)
            .take()
            .filter(|w| w.threads.len() == n_aux)
            .unwrap_or_else(|| Workers::spawn(n_aux));

        let team = Arc::new(build_team(&self.cfg, hooks, isolate_panics));
        let started = Instant::now();
        {
            let mut st = workers.gate.lock();
            st.team = Some(team.clone());
            st.retired = 0;
            st.generation += 1;
            workers.gate.cv.notify_all();
        }

        // The master catches a panicked region's payload; a master that
        // unwinds anyway drops `workers`, which joins them instead of
        // returning threads of unknown state to the slot.
        let result = master_main(&team, f);

        {
            let mut st = workers.gate.lock();
            while st.retired < n_aux {
                st = workers.gate.wait(st);
            }
            st.team = None;
        }
        let wall = started.elapsed();
        // An overlapping region may have put its set back first; the
        // displaced one is joined here, outside the slot's lock.
        let displaced = locked(&self.hot).replace(workers);
        drop(displaced);

        let team = Arc::into_inner(team).expect("workers retired their team handles");
        finish_region(team, result, wall)
    }
}

/// The generation-stamped gate hot workers park on between regions.
#[derive(Default)]
struct StartGate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    /// Bumped once per opened region; workers run exactly the generations
    /// they observe.
    generation: u64,
    /// The open generation's team (present iff a region is running).
    team: Option<Arc<TeamShared>>,
    /// Workers that have finished the current generation.
    retired: usize,
    /// Set once, on drop: workers exit their park loop.
    shutdown: bool,
}

impl StartGate {
    fn lock(&self) -> MutexGuard<'_, GateState> {
        locked(&self.state)
    }

    fn wait<'a>(&self, st: MutexGuard<'a, GateState>) -> MutexGuard<'a, GateState> {
        self.cv.wait(st).unwrap_or_else(PoisonError::into_inner)
    }
}

/// The park loop hot workers run for their whole life: wait for a
/// generation to open, run its region, retire, repeat.
fn parked_worker(gate: Arc<StartGate>, w: usize) {
    let mut last_gen = 0u64;
    loop {
        let team = {
            let mut st = gate.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation > last_gen {
                    break;
                }
                st = gate.wait(st);
            }
            last_gen = st.generation;
            Arc::clone(st.team.as_ref().expect("open generation has a team"))
        };
        // A panicking task body must not kill the hot worker: the
        // completion guard has already poisoned the team (ending the
        // region for everyone); catching here keeps the thread parkable
        // for the next generation and the payload for the region caller.
        if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // This generation's seat `w`, claimed on the thread the gate
            // just handed the team to; it retires (log, ledger, free
            // list back to the team) when it drops, on either path.
            let worker = Worker::claim(&team, w);
            team.barrier.arrive(w);
            worker_loop(&worker);
        })) {
            team.poison();
            locked(&team.panic).get_or_insert(payload);
        }
        drop(team);
        let mut st = gate.lock();
        st.retired += 1;
        gate.cv.notify_all();
    }
}

/// One set of hot worker threads (workers `1..=n_aux` of a team) parked
/// on a start gate of their own. Dropping the set releases and joins it.
struct Workers {
    gate: Arc<StartGate>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Workers {
    fn spawn(n_aux: usize) -> Self {
        let gate = Arc::<StartGate>::default();
        let threads = (1..=n_aux)
            .map(|w| {
                let gate = gate.clone();
                std::thread::Builder::new()
                    .name(format!("xgomp-worker-{w}"))
                    .stack_size(WORKER_STACK_BYTES)
                    .spawn(move || parked_worker(gate, w))
                    .expect("spawn worker thread")
            })
            .collect();
        Workers { gate, threads }
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        {
            let mut st = self.gate.lock();
            st.shutdown = true;
            self.gate.cv.notify_all();
        }
        for h in self.threads.drain(..) {
            // A worker that unwound due to a bug would surface here; the
            // park loop itself never panics.
            let _ = h.join();
        }
    }
}

/// What a parallel region returns: the closure's result plus the region's
/// telemetry.
#[derive(Debug)]
pub struct RegionOutput<R> {
    /// Value returned by the region closure.
    pub result: R,
    /// Per-worker counter snapshots (§V statistics).
    pub stats: TeamStats,
    /// Per-worker event logs (empty unless profiling was enabled).
    pub logs: Vec<PerfLog>,
    /// Wall-clock duration of the region: generation opened on the
    /// start gate to last worker retired. It contains no thread creation
    /// — the workers are hot — which is what the scheduler comparisons of
    /// Figs. 4–7 (`crates/bench`) want.
    pub wall: Duration,
}
