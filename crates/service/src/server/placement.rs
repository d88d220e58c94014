//! Placement: how an admitted job reaches the team. The submit side
//! pushes it into an ingress ring along its [`Route`] (or the spill,
//! from a pause onward) and rings the doorbell; the drain side
//! ([`ServiceSource`]) is what idle workers and the serve loop poll.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use super::lifecycle::{CLOSING, DRAINING, PAUSED, SERVING};
use super::ServerShared;
use crate::handle::JobRef;
use crate::locked;
use xgomp_core::{IngressSource, TaskCtx};
use xgomp_xqueue::Backoff;

/// Where an admitted job enters the ingress tier.
#[derive(Debug, Clone, Copy)]
pub(super) enum Route {
    /// The claim-guarded lanes, rotating shards starting at `hint`.
    Anonymous { hint: usize },
    /// A registered submitter's reserved SPSC lane.
    Pinned { shard: usize, lane: usize },
}

impl ServerShared {
    /// Places an admitted job along `route` until it lands, then rings
    /// the doorbell for the shard that took it. Returns whether that
    /// ring woke a parked worker — the gate of the joiner's spin (see
    /// `JobHandle::wait_until`); a spilled job returns `false`.
    ///
    /// Anonymous placement rotates over the claim-guarded lanes; pinned
    /// placement is *strict* — the job waits for its reserved lane
    /// rather than falling over to claim-guarded ones, which is what
    /// keeps registered traffic contention-free and per-lane accounting
    /// exact. While serving, a full ring waits out the (running)
    /// drainers. Liveness: every queued job rang a doorbell, and workers
    /// never park while the ingress looks non-empty, so a full ring is
    /// always being drained — except from a pause onward, where
    /// submissions divert to the spill: the rings belong to the pause
    /// drain, and a `try_submit` must never block until `resume`.
    pub(super) fn place(&self, route: Route, mut job: JobRef) -> bool {
        if !self.rings_open() {
            self.spill_job(job);
            return false;
        }
        let home = match route {
            Route::Anonymous { hint } => hint,
            Route::Pinned { shard, .. } => shard,
        };
        let mut backoff = Backoff::new();
        loop {
            let pushed = match route {
                Route::Anonymous { hint } => self.ingress.push_from(hint, job),
                Route::Pinned { shard, lane } => self
                    .ingress
                    .shard(shard)
                    .push_reserved(lane, job)
                    .map(|()| shard),
            };
            match pushed {
                Ok(shard) => {
                    // Ring for the shard that actually took the job:
                    // under fallover it may not be `home`, and waking
                    // `home`'s zone instead would leave the job stranded
                    // behind another shard's backlog.
                    return self.ring_doorbell(shard);
                }
                Err(back) if !self.rings_open() => {
                    // A pause landed mid-placement: no drainer will free
                    // a slot before resume — spill instead of blocking
                    // the caller.
                    self.spill_job(back);
                    return false;
                }
                Err(back) => {
                    job = back;
                    // Queues full: make sure someone is draining them.
                    self.ring_doorbell(home);
                    backoff.snooze();
                }
            }
        }
    }

    /// Whether ring placement is live: drainers are pulling from the
    /// rings and will keep doing so (serving), or a closing drain is
    /// taking everything anyway. From the pause onward the rings belong
    /// to the pause drain — submissions divert to the spill, which is
    /// what lets that drain converge under sustained traffic.
    ///
    /// This load is the producer half of the one Dekker handshake the
    /// pause drain relies on (SeqCst on all four accesses): it follows
    /// the job's admission increment, and the drain loads `in_flight`
    /// after it has seen `DRAINING` — so either the drain counts the job,
    /// or this load sees `DRAINING` (or later) and the job spills.
    fn rings_open(&self) -> bool {
        matches!(self.state.load(Ordering::SeqCst), SERVING | CLOSING)
    }

    /// Queues a job for the *next* generation (submissions that arrive
    /// from the pause onward), or catches a job that lost the ring race
    /// against a pause. Bounded by `max_in_flight`; drained before the
    /// ingress by the first polls of the next (or closing) generation.
    fn spill_job(&self, job: JobRef) {
        {
            let mut spill = locked(&self.spill);
            spill.push_back(job);
            self.spill_nonempty.store(true, Ordering::SeqCst);
        }
        // Harmless while paused (nobody is parked in a live generation);
        // necessary while closing, where drainers are still running.
        self.ring_doorbell(0);
    }

    /// Moves one spilled job into the team (one at a time for the same
    /// reason as the ingress drain — see [`ServiceSource::poll`]). Runs
    /// before the ingress drain so spilled jobs cannot be starved by
    /// fresh pushes.
    ///
    /// Like the ingress drain, the job is spawned into the *draining
    /// worker's own* queue: a job cross-pushed into a peer's SPSC queue
    /// is stranded if that peer is stalled inside another job's body,
    /// even while this worker idles. Pops only after reading `SERVING`/
    /// `CLOSING` *under the spill lock*, which `pause()` holds for its
    /// `DRAINING` store: no pop follows that store.
    fn drain_spill(&self, ctx: &TaskCtx<'_>) -> usize {
        if !self.spill_nonempty.load(Ordering::SeqCst) {
            return 0;
        }
        let job = {
            let mut spill = locked(&self.spill);
            if !self.rings_open() {
                return 0;
            }
            let job = spill.pop_front();
            if spill.is_empty() {
                self.spill_nonempty.store(false, Ordering::SeqCst);
            }
            job
        };
        let Some(job) = job else { return 0 };
        ctx.spawn_local(move |ctx| job.run(ctx));
        1
    }

    /// Racy "anything queued for the team?" probe (pre-park re-checks).
    pub(super) fn has_queued_jobs(&self) -> bool {
        self.spill_nonempty.load(Ordering::SeqCst) || !self.ingress.looks_empty()
    }

    /// Wakes one parked worker for shard `shard`'s zone (zone-local
    /// first); returns whether one was woken. No-op (`false`) before the
    /// serve loop has published the parker — at that point every worker
    /// is still awake.
    fn ring_doorbell(&self, shard: usize) -> bool {
        let zone = self.zone_of_shard[shard % self.zone_of_shard.len()].load(Ordering::Relaxed);
        self.doorbell
            .with_current(|p| p.notify_any(zone).is_some())
            .unwrap_or(false)
    }
}

/// The [`IngressSource`] wired into one generation's team: idle workers
/// (and the master loop) drain their zone's shard and spawn the jobs.
/// Rebuilt per generation so the worker → shard map always matches the
/// live placement.
pub(super) struct ServiceSource {
    pub(super) shared: Arc<ServerShared>,
    /// worker → ingress shard for this generation.
    pub(super) shard_of_worker: Vec<usize>,
}

impl IngressSource for ServiceSource {
    fn poll(&self, ctx: &TaskCtx<'_>) -> usize {
        // Drains are gated on the lifecycle. While pausing (`DRAINING`),
        // the rings keep draining — everything that reached them was
        // admitted before the pause and must complete — but the spill,
        // where pause-time submissions divert, is held back by
        // `drain_spill`; that is what lets the drain converge under
        // sustained submission. Paused drains nothing; closing, everything.
        if self.shared.state.load(Ordering::SeqCst) == PAUSED {
            return 0;
        }
        let shared = &self.shared;
        let mut n = shared.drain_spill(ctx);
        let hint = self
            .shard_of_worker
            .get(ctx.worker_id())
            .copied()
            .unwrap_or(0);
        // Take ONE job (`drain_one`: claim, dequeue, release, then hand
        // it out — no batch buffer) and spawn it into this worker's own
        // queue: it is popped by this worker's very next scheduler
        // visit. Batched
        // cross-pushed drains (the previous design) could strand a job
        // in a stalled peer's SPSC queue — or, batched-to-self, behind
        // an earlier job of the same batch that blocks indefinitely —
        // while other workers idle. One-at-a-time self-service keeps
        // every not-yet-claimed job in the shared MPSC ingress, where
        // any idle worker can claim it: an admitted job can only wait
        // on a *running* job, never on a stalled queue. The poll sits
        // in the serve/idle loops, which re-poll immediately while
        // injections succeed, so throughput is a claim per job, not a
        // drain cycle per job. Spawned from a peer of the master, the
        // job's root task is parentless: completing it touches no count
        // on the region's shared implicit task.
        if let Some(job) = shared.ingress.drain_one(hint) {
            ctx.spawn_local(move |ctx| job.run(ctx));
            n += 1;
        }
        n
    }

    fn has_pending(&self) -> bool {
        // Pre-park re-check: a job is counted (lane `pushed`, spill flag)
        // before the submitter's doorbell fence, so a worker either sees
        // it and stays awake or is woken by the bell (see
        // `xgomp_xqueue::parker`). Gated like `poll`: queued-for-next-
        // generation jobs must not keep workers awake, but a pause drain
        // keeps them helping until the rings are empty.
        match self.shared.state.load(Ordering::SeqCst) {
            PAUSED => false,
            DRAINING => !self.shared.ingress.looks_empty(),
            _ => self.shared.has_queued_jobs(),
        }
    }
}
