//! Lifecycle: the serve states, `pause`/`resume`/config swap, the master
//! thread (one `Runtime::serve` region per generation) and the serve loop
//! worker 0 runs inside each generation.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use super::placement::ServiceSource;
use super::{ServerShared, TaskServer};
use crate::{locked, wait};
use xgomp_core::{
    DlbConfig, EventKind, IngressSource, RegionOutput, Runtime, RuntimeConfig, ServingHooks,
    TaskCtx, TraceLevel,
};
use xgomp_topology::Placement;
use xgomp_xqueue::IdleGate;

// ---- lifecycle states (ServerShared::state) ----------------------------

/// A generation is open; drainers inject, submissions flow.
pub(super) const SERVING: u32 = 0;
/// `pause()` requested: the serve loop is completing every job admitted
/// before the pause; new submissions divert to the spill for the next
/// generation.
pub(super) const DRAINING: u32 = 1;
/// Between generations: team quiescent and parked, ingress retained,
/// submissions queue (or bounce at the bound).
pub(super) const PAUSED: u32 = 2;
/// `shutdown()` (or drop): admission closed, everything admitted — queued
/// jobs included — drains before the team is torn down. Terminal.
pub(super) const CLOSING: u32 = 3;

/// Tasks the serve loop executes per iteration between ingress polls.
/// The poll itself takes one job at a time (see `ServiceSource::poll`
/// for why); this only bounds how long worker 0 runs the team's
/// already-injected tasks before it looks at the ingress and the deadline
/// heap again.
const RUN_BATCH: usize = 128;

/// Point-in-time lifecycle of a [`TaskServer`] (see the
/// [crate docs](crate#lifecycle-generations-pauseresume-config-swap) for
/// the state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifecycle {
    /// A generation is open and executing jobs.
    Serving,
    /// A [`pause`](TaskServer::pause) is finishing the pre-pause jobs.
    Draining,
    /// Parked between generations; submissions queue for the next one.
    Paused,
    /// Shut down (or shutting down); submissions are rejected.
    Closed,
}

/// Why [`TaskServer::pause`] / [`resume`](TaskServer::resume) /
/// [`resume_with`](TaskServer::resume_with) could not change the
/// lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleError {
    /// The server is closed (or closed while the request was waiting).
    Closed,
    /// `resume` was called on a server that is not paused.
    NotPaused,
}

impl std::fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LifecycleError::Closed => write!(f, "task server is closed"),
            LifecycleError::NotPaused => write!(f, "task server is not paused"),
        }
    }
}

impl std::error::Error for LifecycleError {}

/// Command sent from a `resume`/`resume_with` caller to the master
/// control loop: open the next generation, optionally with a new
/// runtime configuration.
#[derive(Default)]
pub(super) struct ControlPlane {
    resume: Option<Option<RuntimeConfig>>,
}

impl TaskServer {
    /// Completes every job admitted before the pause and parks the team
    /// between generations. Returns once the server is quiescent: every
    /// worker parked (~0 CPU), ingress lanes and
    /// [`SubmitterHandle`](super::SubmitterHandle)s retained, and
    /// submissions from the pause onward held (queued) for the next
    /// generation.
    ///
    /// Idempotent: pausing a pausing/paused server just waits for /
    /// confirms quiescence. Fails only on a closed server.
    pub fn pause(&self) -> Result<(), LifecycleError> {
        let shared = &self.shared;
        let mut ctl = locked(&shared.ctl);
        loop {
            match shared.state.load(Ordering::SeqCst) {
                SERVING => {
                    // Under the spill lock: no spill pop follows it.
                    let spill = locked(&shared.spill);
                    shared.state.store(DRAINING, Ordering::SeqCst);
                    drop(spill);
                    shared.ctl_cv.notify_all();
                    // The whole team may be asleep; the state store rings
                    // no bell on its own.
                    shared.doorbell.with_current(|p| p.unpark_all());
                }
                DRAINING => ctl = wait(&shared.ctl_cv, ctl),
                PAUSED => {
                    if ctl.resume.is_none() {
                        drop(ctl);
                        // Quiescent barrier for the continuous pipeline
                        // too: every event emitted before the pause is
                        // drained and flushed to the rolling stream
                        // before we report the server paused.
                        if let Some(c) = &self.collector {
                            c.flush_barrier(Duration::from_secs(5));
                        }
                        return Ok(());
                    }
                    // A resume is in flight: wait for the generation to
                    // open, then request a fresh drain through the
                    // SERVING arm.
                    ctl = wait(&shared.ctl_cv, ctl);
                }
                _ => return Err(LifecycleError::Closed),
            }
        }
    }

    /// Opens the next generation with the current configuration,
    /// completing queued-while-paused jobs first. Returns once the new
    /// generation is serving. Requires a paused (or pausing) server.
    pub fn resume(&self) -> Result<(), LifecycleError> {
        self.resume_inner(None)
    }

    /// Opens the next generation under a new [`RuntimeConfig`], applied
    /// at the generation boundary: worker count, barrier/scheduler kind,
    /// topology and `park_idle` all take effect for generation N+1. A
    /// changed worker count rebuilds the thread set and re-maps workers
    /// and doorbells onto the existing ingress shards; a `Some` DLB in
    /// the config seeds the tuning cell (a retune when it changes the
    /// active configuration). Either way the boundary bumps the swap
    /// epoch, so `Schedule::Auto` loop sites re-explore.
    pub fn resume_with(&self, rt: RuntimeConfig) -> Result<(), LifecycleError> {
        rt.assert_team_size();
        self.resume_inner(Some(rt))
    }

    fn resume_inner(&self, cfg: Option<RuntimeConfig>) -> Result<(), LifecycleError> {
        let shared = &self.shared;
        let mut ctl = locked(&shared.ctl);
        loop {
            match shared.state.load(Ordering::SeqCst) {
                PAUSED => break,
                // A pause is completing; resume right after it.
                DRAINING => ctl = wait(&shared.ctl_cv, ctl),
                SERVING => return Err(LifecycleError::NotPaused),
                _ => return Err(LifecycleError::Closed),
            }
        }
        // Concurrent resumes race benignly: the last command in before
        // the master picks one up wins; all callers wait for the next
        // generation. The wait observes the *generation counter*, not
        // the instantaneous SERVING state — a pause() racing in right
        // after the new generation opens could flip SERVING→DRAINING
        // before this thread wakes, and a state-based wait would then
        // block forever on a resume that actually succeeded.
        let sent_gen = shared.generation.load(Ordering::SeqCst);
        ctl.resume = Some(cfg);
        shared.ctl_cv.notify_all();
        loop {
            if shared.state.load(Ordering::SeqCst) == CLOSING {
                return Err(LifecycleError::Closed);
            }
            if shared.generation.load(Ordering::SeqCst) > sent_gen {
                return Ok(());
            }
            ctl = wait(&shared.ctl_cv, ctl);
        }
    }

    /// Hot-swaps the DLB configuration driving the team, effective at
    /// the workers' next scheduling points — no pause required. This is
    /// how the server is retuned: pick the config (Table IV is
    /// `xgomp_core::guidelines::recommend_dlb`) and swap it in. A swap
    /// that changes the configuration counts a retune; every swap bumps
    /// the swap epoch, so `Schedule::Auto` loop sites re-explore.
    pub fn swap_tuning(&self, dlb: DlbConfig) {
        if self.shared.tuning.store(dlb) {
            self.shared.log_retune("swap_tuning");
        }
        self.shared.swap_epoch.fetch_add(1, Ordering::Release);
    }

    /// Current lifecycle state (racy snapshot).
    pub fn lifecycle(&self) -> Lifecycle {
        match self.shared.state.load(Ordering::SeqCst) {
            SERVING => Lifecycle::Serving,
            DRAINING => Lifecycle::Draining,
            PAUSED => Lifecycle::Paused,
            _ => Lifecycle::Closed,
        }
    }

    /// Serve generations opened so far.
    pub fn generation(&self) -> u64 {
        self.shared.generation.load(Ordering::Relaxed)
    }

    /// Whether the server has been closed to new submissions.
    pub fn is_closed(&self) -> bool {
        self.shared.state.load(Ordering::SeqCst) == CLOSING
    }
}

/// Per-worker NUMA zones and the sorted distinct zone list of `rt`'s
/// placement — the single source of the zone-ranking logic shared by
/// server construction (shard count) and every generation's re-map.
pub(super) fn placement_zones(rt: &RuntimeConfig) -> (Vec<usize>, Vec<usize>) {
    let placement = Placement::new(rt.topology.clone(), rt.threads, rt.affinity);
    let zones: Vec<usize> = (0..rt.threads).map(|w| placement.zone_of(w)).collect();
    let mut distinct = zones.clone();
    distinct.sort_unstable();
    distinct.dedup();
    (zones, distinct)
}

/// Computes one generation's ingress maps for runtime `rt` against the
/// fixed shard set: worker → shard (dense zone rank, folded onto the
/// available shards) and shard → doorbell zone.
pub(super) fn generation_layout(rt: &RuntimeConfig, n_shards: usize) -> (Vec<usize>, Vec<usize>) {
    let (zones, distinct) = placement_zones(rt);
    let shard_of_worker = zones
        .iter()
        .map(|z| distinct.binary_search(z).expect("zone in distinct set") % n_shards)
        .collect();
    let zone_of_shard = (0..n_shards)
        .map(|s| distinct[s % distinct.len()])
        .collect();
    (shard_of_worker, zone_of_shard)
}

/// The master thread: one `Runtime::serve` region per generation, with the
/// control handshake (pause quiescence, resume commands, config swaps,
/// final shutdown drain) between regions.
pub(super) fn master_loop(
    shared: Arc<ServerShared>,
    rt: RuntimeConfig,
    first_layout: Vec<usize>,
) -> Vec<RegionOutput<()>> {
    let mut team = Runtime::new(rt);
    let mut layout = Some(first_layout);
    let mut regions: Vec<RegionOutput<()>> = Vec::new();

    loop {
        // Install this generation's ingress maps.
        let shard_of_worker = layout.take().unwrap_or_else(|| {
            let (workers, zones) = generation_layout(team.config(), shared.ingress.n_shards());
            for (cell, z) in shared.zone_of_shard.iter().zip(zones) {
                cell.store(z, Ordering::Relaxed);
            }
            workers
        });
        let threads = team.config().threads;
        shared.current_threads.store(threads, Ordering::Relaxed);
        // SeqCst: resume() waiters poll this counter to learn their
        // generation opened (see `resume_inner`).
        let gen = shared.generation.fetch_add(1, Ordering::SeqCst) + 1;
        // Open the generation: resume() callers unblock only now, with
        // the maps installed and the generation counter advanced. The
        // resume command is consumed in the same critical section that
        // stores SERVING, so a concurrent pause() never observes a
        // "paused" server that is actually mid-resume. A no-op for
        // generation 1 (already serving) and for a closing drain
        // generation (admission stays shut).
        {
            let mut ctl = locked(&shared.ctl);
            ctl.resume = None;
            if shared.state.load(Ordering::SeqCst) != CLOSING {
                shared.state.store(SERVING, Ordering::SeqCst);
                shared.ctl_cv.notify_all();
            }
        }

        let source = Arc::new(ServiceSource {
            shared: shared.clone(),
            shard_of_worker,
        });
        let hooks = ServingHooks {
            source: Some(source.clone() as Arc<dyn IngressSource>),
            tuning: Some(shared.tuning.clone()),
            loop_stats: Some(shared.loop_stats.clone()),
            auto_select: Some(shared.auto_select.clone()),
            tracer: Some(shared.tracer.clone()),
        };
        // Generation markers go through `emit_meta`, which claims ring 0
        // for its emit — free exactly here, between regions, on the
        // master thread.
        shared
            .tracer
            .emit_meta(0, EventKind::GenOpen, 0, gen, threads as u64);
        // The generation's workers are the only writers of their outcome
        // cells while it runs; the claim drops with this iteration.
        let _outcomes = shared.outcomes.claim(0..threads);
        regions.push(team.serve(hooks, |ctx| serve_loop(ctx, &shared, &source)));
        shared.tracer.emit_meta(0, EventKind::GenClose, 0, gen, 0);

        // Generation over. If a pause requested it, publish quiescence.
        {
            let _ctl = locked(&shared.ctl);
            if shared.state.load(Ordering::SeqCst) == DRAINING {
                shared.state.store(PAUSED, Ordering::SeqCst);
                shared.ctl_cv.notify_all();
            }
        }

        // Wait for what comes next: a resume command, or shutdown (which
        // runs one more closing generation when jobs are still queued).
        let resume_cfg: Option<Option<RuntimeConfig>> = {
            let mut ctl = locked(&shared.ctl);
            loop {
                if shared.state.load(Ordering::SeqCst) == CLOSING {
                    break if shared.in_flight.load(Ordering::SeqCst) == 0 {
                        None // fully drained: tear down
                    } else {
                        Some(None) // final drain generation, same config
                    };
                }
                // Peek, don't take: the command stays visible (so a
                // concurrent pause() knows a resume is in flight) until
                // the next generation's SERVING store consumes it.
                if let Some(cmd) = ctl.resume.clone() {
                    break Some(cmd);
                }
                ctl = wait(&shared.ctl_cv, ctl);
            }
        };
        let Some(cfg) = resume_cfg else {
            break;
        };
        if let Some(new_rt) = cfg {
            apply_config(&shared, &mut team, new_rt);
        }
    }
    regions
}

/// Applies a `resume_with` configuration at the generation boundary.
fn apply_config(shared: &ServerShared, team: &mut Runtime, new_rt: RuntimeConfig) {
    if let Some(dlb) = new_rt.dlb {
        if shared.tuning.store(dlb) {
            shared.log_retune("resume_with");
        }
    }
    team.reconfigure(new_rt);
    // A config swap re-opens `Auto` exploration even when the DLB seed is
    // unchanged: a site's converged pick was measured on the old shape.
    // (A resize needs nothing more — the next generation's claims grow
    // the per-worker cells.)
    shared.swap_epoch.fetch_add(1, Ordering::Release);
}

impl ServerShared {
    /// The stderr line of a store that changed the DLB configuration
    /// (`ServerConfig::log_retunes`); `source` names the call.
    fn log_retune(&self, source: &str) {
        if !self.log_retunes {
            return;
        }
        let cfg = self.tuning.load();
        eprintln!(
            "[xgomp-service] DLB retune #{} ({source}) -> {} \
             (n_victim={}, n_steal={}, t_interval={}, p_local={}, steal size {:.0})",
            self.tuning.retunes(),
            cfg.strategy.name(),
            cfg.n_victim,
            cfg.n_steal,
            cfg.t_interval,
            cfg.p_local,
            cfg.steal_size(),
        );
    }
}

/// One generation's serve loop, run by worker 0 as the region closure:
/// drain ingress, execute, park when idle, and exit
/// at the generation's drain point (pause: every job in flight spilled;
/// shutdown: everything admitted done).
fn serve_loop(ctx: &TaskCtx<'_>, shared: &ServerShared, source: &ServiceSource) {
    // Publish the team's parker as the doorbell before any worker could
    // possibly park. (Replaces the previous generation's parker, which
    // has no sleepers left.)
    let parker = ctx.parker().clone();
    shared.doorbell.publish(parker.clone());
    let mut gate = IdleGate::default();
    let mut last_retunes = shared.tuning.retunes();
    loop {
        if ctx.is_poisoned() {
            // Un-isolated panic (a runtime bug — job panics are caught):
            // the team is ending; don't spin on the drain conditions.
            break;
        }
        shared.deadlines.sweep(ctx);
        let injected = source.poll(ctx);
        let ran = ctx.run_pending(RUN_BATCH);
        if ctx.trace_on(TraceLevel::Lifecycle) {
            // Retunes land from a concurrent `swap_tuning`, on a thread
            // with no ring of its own; the serve loop is the one place
            // that polls often enough to stamp them near their effect.
            let r = shared.tuning.retunes();
            if r != last_retunes {
                last_retunes = r;
                ctx.trace_emit(TraceLevel::Lifecycle, EventKind::Retune, 0, r, 0);
            }
        }
        if injected > 0 || ran > 0 {
            gate.reset();
            continue;
        }
        let st = shared.state.load(Ordering::SeqCst);
        match st {
            // Shutdown drains *everything admitted*; the final in-flight
            // decrement rings no bell, so spin the (short) tail out.
            CLOSING if shared.in_flight.load(Ordering::SeqCst) == 0 => break,
            // A pause is done once every job in flight sits in the spill:
            // its length, read under the spill lock, equals an `in_flight`
            // load taken after it. Proof, from two rules:
            // * `pause()` stored `DRAINING` under the spill lock and
            //   `drain_spill` pops only after reading `SERVING`/`CLOSING`
            //   under it, so since `st` the spill has only grown, and a
            //   spilled job stays counted until it runs. Equality leaves
            //   no counted job in a ring, mid-placement or in the team.
            // * A job the load did not count was admitted after it (all
            //   four accesses are SeqCst), so after `st` saw `DRAINING`;
            //   its producer's `rings_open` load comes later still and
            //   sees `DRAINING` or later, so it spills (or, once `CLOSING`,
            //   joins the final drain generation). Every job from the pause
            //   on spills, so this converges under sustained submission.
            DRAINING => {
                let spilled = locked(&shared.spill).len();
                if spilled == shared.in_flight.load(Ordering::SeqCst) {
                    break;
                }
            }
            _ => {}
        }
        // Event-driven idle arm of the serve loop: park worker 0 once
        // the backoff saturates. Only while serving — the pause/shutdown
        // drains are short and their exit conditions ring no bell.
        gate.idle(&parker, 0, st == SERVING && ctx.park_idle_enabled(), || {
            ctx.is_poisoned()
                || ctx.has_local_work_hint()
                || shared.has_queued_jobs()
                || shared.state.load(Ordering::SeqCst) != SERVING
        });
    }
}
