//! NUMA-sharded MPSC ingress built on the lock-less B-queue.
//!
//! External submitter threads are strangers to the runtime: they own no
//! worker slot, so they cannot touch the XQueue lattice (whose SPSC
//! roles are worker-bound). Ingress therefore runs on its own tier:
//!
//! * one [`IngressShard`] per NUMA zone of the team's placement, so a
//!   submitter consistently feeds the shard whose workers will spawn its
//!   jobs (creator-locality for everything the job spawns afterwards);
//! * each shard is a set of *lanes* — bounded SPSC
//!   [`BQueue`](xgomp_xqueue::BQueue)s — multiplexed into an MPSC by two
//!   single-word atomic claims: a producer claim per lane and one drain
//!   claim per shard. The claims are the only read-modify-write atomics
//!   on the submission path; every queue operation stays the paper's
//!   plain load/store B-queue protocol, and the worker-to-worker
//!   scheduling fabric behind it remains fully lock-less.
//!
//! ## Registered lanes
//!
//! A lane can be *reserved* for one submitter
//! ([`IngressShard::reserve_lane`]): the reservation is a permanent
//! producer claim, making the lane an honest SPSC channel — the pinned
//! submitter pushes with plain loads and stores and never races another
//! producer's claim CAS, while anonymous submitters skip reserved lanes.
//! Registration on a live shard is safe: winning the reservation does
//! not hand the lane over until any in-flight anonymous producer claim
//! has drained (a SeqCst Dekker handshake between the reservation flag
//! and the producer claim — see [`reserve_lane`](IngressShard::reserve_lane)),
//! so the lane never has two concurrent producers. This is what
//! `TaskServer::register_submitter` hands out, replacing the old
//! thread-hash lane choice whose collisions let two submitters contend
//! on one lane while others sat empty.
//!
//! A ring slot holds one [`JobRef`]: the thin pointer to a job's one
//! record (closure, handle state and result slot in one allocation — see
//! `handle.rs`), given up by the push and taken back by the drain. The
//! submitter allocates nothing else to queue a job. Whichever idle worker
//! claimed the drain hands the reference to `TaskCtx::spawn_local` inside
//! a one-word closure, so the job lands in that worker's own queue and its
//! root task stores the closure inline.
//!
//! ## Generations
//!
//! The ingress tier belongs to the *server*, not to any one team
//! generation: shards, lanes, reservations and their counters all
//! survive a `TaskServer::pause()`/`resume()` cycle and a config swap.
//! A pause *drains* the rings (jobs that reached them were admitted
//! before the pause and must complete with that generation); pause-time
//! submissions divert to the server's spill queue and re-enter through
//! the first polls of the next generation. A config swap that changes
//! the team's zone map
//! *re-maps* workers and doorbells onto the existing shard set rather
//! than reallocating it — which is exactly what lets a pinned
//! [`SubmitterHandle`](crate::SubmitterHandle)'s `(shard, lane)`
//! coordinates stay valid across every generation.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use crate::handle::{JobHeader, JobRef};
use xgomp_xqueue::{BQueue, Backoff};

struct Lane {
    /// Job references given up by `JobRef::into_raw`.
    q: BQueue<JobHeader>,
    /// Producer-side claim: holder is the lane's unique producer.
    producing: AtomicBool,
    /// Permanent reservation (registered submitter). While set, the
    /// anonymous push path skips this lane entirely.
    reserved: AtomicBool,
    /// Jobs ever pushed into this lane; bumped after the enqueue, before
    /// the submitter's fenced doorbell (the emptiness probes rely on it).
    pushed: AtomicU64,
    /// Jobs ever drained out of this lane.
    drained: AtomicU64,
}

impl Lane {
    /// Jobs in the ring by the lane counters: `drained` is loaded first
    /// and the difference saturates, so a drain counted before its push
    /// reads as empty, never as an underflow.
    fn occupancy(&self) -> usize {
        let drained = self.drained.load(Ordering::Relaxed);
        self.pushed.load(Ordering::Relaxed).saturating_sub(drained) as usize
    }

    /// Enqueues `job`, counting it in `pushed`; a full ring hands it back.
    ///
    /// # Safety
    ///
    /// The caller is the lane's unique producer.
    unsafe fn push(&self, job: JobRef) -> Result<(), JobRef> {
        // SAFETY: the caller is the unique producer. A rejected pointer is
        // the reference `into_raw` gave up just now.
        unsafe {
            self.q
                .enqueue(job.into_raw())
                .map_err(|back| JobRef::from_raw(back))?;
        }
        self.pushed.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Dequeues one job, counting it in `drained`.
    ///
    /// # Safety
    ///
    /// The caller is the lane's unique consumer.
    unsafe fn pop(&self) -> Option<JobRef> {
        // SAFETY: the caller is the unique consumer; every queued pointer
        // is a reference a push gave up, taken back once here.
        let job = unsafe { JobRef::from_raw(self.q.dequeue()?) };
        self.drained.fetch_add(1, Ordering::Relaxed);
        Some(job)
    }
}

/// One NUMA zone's ingress: lanes of SPSC rings + a drain claim making
/// the ensemble MPSC.
pub struct IngressShard {
    lanes: Box<[Lane]>,
    /// Consumer-side claim: holder is the unique consumer of all lanes.
    draining: AtomicBool,
    /// Rotates the first lane probed by producers, spreading contention.
    next_lane: AtomicUsize,
    /// Anonymous pushes that found a lane's producer claim held — the
    /// cross-submitter contention registered lanes exist to eliminate.
    claim_conflicts: AtomicU64,
}

impl IngressShard {
    fn new(lanes: usize, lane_capacity: usize) -> Self {
        IngressShard {
            lanes: (0..lanes.max(1))
                .map(|_| Lane {
                    q: BQueue::with_capacity(lane_capacity),
                    producing: AtomicBool::new(false),
                    reserved: AtomicBool::new(false),
                    pushed: AtomicU64::new(0),
                    drained: AtomicU64::new(0),
                })
                .collect(),
            draining: AtomicBool::new(false),
            next_lane: AtomicUsize::new(0),
            claim_conflicts: AtomicU64::new(0),
        }
    }

    /// Number of lanes in this shard.
    pub fn n_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Slots across all lanes (actual ring capacities).
    pub fn capacity(&self) -> usize {
        self.lanes.iter().map(|l| l.q.capacity()).sum()
    }

    /// Reserves a free lane for one registered submitter; `None` when
    /// none is reservable (the caller falls back to the anonymous claim
    /// path). Lane 0 is never reservable: anonymous submitters must
    /// always have somewhere to land, or a fully registered shard would
    /// starve them. Release with [`release_lane`](Self::release_lane).
    pub(crate) fn reserve_lane(&self) -> Option<usize> {
        let lane = self
            .lanes
            .iter()
            .skip(1)
            .position(|l| {
                l.reserved
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok()
            })
            .map(|i| i + 1)?;
        // Registration handshake (Dekker with `try_push_ptr`): an
        // anonymous producer that claimed `producing` before this
        // reservation became visible may still be mid-enqueue, and
        // returning now would let the reservation holder become a second
        // concurrent producer on an SPSC ring. Both sides' flag
        // store→load pairs are SeqCst, so every anonymous claimant
        // either sees the reservation at its re-check and bails without
        // touching the ring, or this load sees its `producing` claim and
        // waits for the release — whose Release/Acquire pairing also
        // makes the in-flight enqueue happen-before the holder's first
        // `push_ptr_reserved`. Claimants that bail still toggle
        // `producing`, but never enqueue, so one observed `false` here
        // is enough; the wait spans at most one in-flight enqueue plus
        // brief bail toggles from claimants whose pre-check missed the
        // reservation. The backoff yields in case the mid-enqueue
        // producer was preempted on an oversubscribed host.
        let mut backoff = Backoff::new();
        while self.lanes[lane].producing.load(Ordering::SeqCst) {
            backoff.snooze();
        }
        Some(lane)
    }

    /// Returns a reserved lane to the anonymous pool.
    pub(crate) fn release_lane(&self, lane: usize) {
        let was = self.lanes[lane].reserved.swap(false, Ordering::AcqRel);
        debug_assert!(was, "released lane {lane} was not reserved");
    }

    /// Pushes through a reserved lane. The caller must hold the
    /// reservation of `lane` — that makes it the lane's unique producer,
    /// so the push is a plain SPSC enqueue with no claim traffic. A full
    /// lane hands the job back.
    pub(crate) fn push_reserved(&self, lane: usize, job: JobRef) -> Result<(), JobRef> {
        let l = &self.lanes[lane];
        debug_assert!(l.reserved.load(Ordering::Relaxed), "lane not reserved");
        // SAFETY: the reservation makes the holder the unique producer.
        unsafe { l.push(job) }
    }

    /// Enqueues `job` into any lane of this shard; hands it back when
    /// every lane is full or producer-claimed by someone else, so retry
    /// loops can probe many lanes and shards with the same reference.
    /// Skips reserved lanes.
    pub(crate) fn try_push(&self, mut job: JobRef) -> Result<(), JobRef> {
        let start = self.next_lane.fetch_add(1, Ordering::Relaxed);
        for i in 0..self.lanes.len() {
            let lane = &self.lanes[(start + i) % self.lanes.len()];
            if lane.reserved.load(Ordering::Acquire) {
                continue;
            }
            if lane
                .producing
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::Relaxed)
                .is_err()
            {
                self.claim_conflicts.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            // The claim may have raced a registration: re-check so a
            // reserved lane never sees an anonymous producer. SeqCst on
            // the claim CAS above and this load is the anonymous half of
            // the handshake documented in `reserve_lane` — if this read
            // misses a reservation, the reserver is guaranteed to see
            // our `producing` claim and wait it out.
            if lane.reserved.load(Ordering::SeqCst) {
                lane.producing.store(false, Ordering::Release);
                continue;
            }
            // SAFETY: the `producing` claim makes this thread the lane's
            // unique producer for the duration of the call.
            let pushed = unsafe { lane.push(job) };
            lane.producing.store(false, Ordering::Release);
            match pushed {
                Ok(()) => return Ok(()),
                Err(back) => job = back,
            }
        }
        Err(job)
    }

    /// Dequeues one job, first lane first, if the drain claim is free;
    /// `None` when the claim is held or every lane is empty. The claim
    /// is released *before* the job is returned, so whatever the caller
    /// does with it (spawn it, or run it inline on queue overflow) never
    /// blocks other drainers.
    pub(crate) fn drain_one(&self) -> Option<JobRef> {
        if self
            .draining
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return None;
        }
        // SAFETY: the `draining` claim makes this thread the unique
        // consumer of every lane in the shard.
        let job = self.lanes.iter().find_map(|lane| unsafe { lane.pop() });
        self.draining.store(false, Ordering::Release);
        job
    }

    /// Whether every lane currently looks empty (racy hint).
    pub fn looks_empty(&self) -> bool {
        self.lanes.iter().all(|l| l.occupancy() == 0)
    }

    /// Jobs currently in this shard's lanes by their `pushed − drained`
    /// counters (racy; exact only while no push or drain is in flight).
    pub fn occupancy(&self) -> usize {
        self.lanes.iter().map(Lane::occupancy).sum()
    }

    /// Per-lane `(pushed, drained)` counters (conservation checks).
    pub fn lane_counters(&self) -> Vec<(u64, u64)> {
        self.lanes
            .iter()
            .map(|l| {
                (
                    l.pushed.load(Ordering::Relaxed),
                    l.drained.load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    /// Anonymous pushes that lost a lane-claim race in this shard.
    pub fn claim_conflicts(&self) -> u64 {
        self.claim_conflicts.load(Ordering::Relaxed)
    }
}

impl Drop for IngressShard {
    fn drop(&mut self) {
        // Give back the references of jobs that were never drained (only
        // reachable when a server is torn down without its shutdown
        // drain, e.g. on panic); a record freed here drops its body unrun.
        for lane in self.lanes.iter() {
            // SAFETY: `&mut self` — no concurrent producers or consumers.
            while unsafe { lane.pop() }.is_some() {}
        }
    }
}

/// The full ingress tier: one shard per NUMA zone of the placement.
pub struct ShardedIngress {
    shards: Box<[IngressShard]>,
}

impl ShardedIngress {
    /// Builds `n_shards` shards of `lanes × lane_capacity` slots each.
    pub fn new(n_shards: usize, lanes: usize, lane_capacity: usize) -> Self {
        ShardedIngress {
            shards: (0..n_shards.max(1))
                .map(|_| IngressShard::new(lanes, lane_capacity))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `i` (stats, registration).
    pub fn shard(&self, i: usize) -> &IngressShard {
        &self.shards[i]
    }

    /// Total slots across every shard.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.capacity()).sum()
    }

    /// Anonymous lane-claim conflicts summed over all shards.
    pub fn claim_conflicts(&self) -> u64 {
        self.shards.iter().map(|s| s.claim_conflicts()).sum()
    }

    /// Pushes preferring shard `hint`, falling over to the others; see
    /// [`IngressShard::try_push`] for the hand-back contract.
    /// `Ok` carries the index of the shard that accepted the job, so the
    /// caller can ring the doorbell of the zone the job actually landed
    /// in (fallover may pick a different shard than `hint`).
    pub(crate) fn push_from(&self, hint: usize, mut job: JobRef) -> Result<usize, JobRef> {
        for i in 0..self.shards.len() {
            let shard = (hint + i) % self.shards.len();
            match self.shards[shard].try_push(job) {
                Ok(()) => return Ok(shard),
                Err(back) => job = back,
            }
        }
        Err(job)
    }

    /// Takes one job, preferring shard `hint` (the caller's zone) and
    /// helping the other shards only when it yields nothing — work
    /// conservation without giving up locality. See
    /// [`IngressShard::drain_one`] for the claim discipline.
    pub(crate) fn drain_one(&self, hint: usize) -> Option<JobRef> {
        let n = self.shards.len();
        (0..n).find_map(|i| self.shards[(hint + i) % n].drain_one())
    }

    /// Racy emptiness hint across all shards.
    pub fn looks_empty(&self) -> bool {
        self.shards.iter().all(|s| s.looks_empty())
    }

    /// Jobs currently sitting in ring slots across all shards (racy;
    /// exact while quiescent — 0 after a pause, whose drain empties the
    /// rings).
    pub fn occupancy(&self) -> usize {
        self.shards.iter().map(|s| s.occupancy()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    impl IngressShard {
        /// Drains until the shard yields nothing; returns the count.
        fn drain_all(&self) -> u64 {
            std::iter::from_fn(|| self.drain_one()).count() as u64
        }
    }

    fn counter_job(hits: Arc<AtomicU64>) -> JobRef {
        JobRef::from_fn(move |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        })
    }

    #[test]
    fn push_drain_roundtrip() {
        let shard = IngressShard::new(2, 8);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..5 {
            shard.try_push(counter_job(hits.clone())).ok().unwrap();
        }
        assert!(!shard.looks_empty());
        let drained: Vec<JobRef> = std::iter::from_fn(|| shard.drain_one()).collect();
        assert_eq!(drained.len(), 5);
        assert!(shard.looks_empty());
        let (pushed, got): (u64, u64) = shard
            .lane_counters()
            .iter()
            .fold((0, 0), |(a, b), &(p, d)| (a + p, b + d));
        assert_eq!((pushed, got), (5, 5));
        drop(drained); // dropping undrained bodies must not leak or run them
        assert_eq!(hits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn full_shard_hands_the_job_back() {
        let shard = IngressShard::new(1, 2); // one lane, two slots
        let hits = Arc::new(AtomicU64::new(0));
        shard.try_push(counter_job(hits.clone())).ok().unwrap();
        shard.try_push(counter_job(hits.clone())).ok().unwrap();
        assert!(shard.try_push(counter_job(hits.clone())).is_err());
    }

    #[test]
    fn drain_claim_is_exclusive() {
        let shard = IngressShard::new(1, 8);
        shard.try_push(counter_job(Arc::default())).ok().unwrap();
        shard.draining.store(true, Ordering::Release);
        assert!(shard.drain_one().is_none(), "a held claim yields nothing");
        shard.draining.store(false, Ordering::Release);
        assert!(shard.drain_one().is_some());
    }

    /// The claim is dropped before the job is handed out: a second
    /// drainer gets the next job while the first still holds its own.
    #[test]
    fn drain_one_releases_the_claim_before_returning() {
        let shard = IngressShard::new(2, 4);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..3 {
            shard.try_push(counter_job(hits.clone())).ok().unwrap();
        }
        let first = shard.drain_one().expect("a queued job");
        assert!(!shard.draining.load(Ordering::Acquire), "claim released");
        let second = shard.drain_one().expect("the claim is free again");
        assert_eq!(shard.occupancy(), 1);
        drop((first, second));
        assert_eq!(shard.drain_all(), 1);
        assert_eq!(hits.load(Ordering::Relaxed), 0, "drained bodies never ran");
    }

    #[test]
    fn reserved_lane_is_invisible_to_anonymous_pushes() {
        let shard = IngressShard::new(2, 2);
        let lane = shard.reserve_lane().expect("free lane");
        let hits = Arc::new(AtomicU64::new(0));
        // Anonymous pushes can only land in the one unreserved lane.
        shard.try_push(counter_job(hits.clone())).ok().unwrap();
        shard.try_push(counter_job(hits.clone())).ok().unwrap();
        assert!(
            shard.try_push(counter_job(hits.clone())).is_err(),
            "reserved lane must not absorb anonymous pushes"
        );
        let counters = shard.lane_counters();
        assert_eq!(counters[lane].0, 0, "reserved lane untouched");
        // The reservation holder pushes without a claim.
        shard
            .push_reserved(lane, counter_job(hits.clone()))
            .ok()
            .unwrap();
        assert_eq!(shard.lane_counters()[lane].0, 1);
        // Release: the lane rejoins the anonymous pool.
        shard.release_lane(lane);
        assert_eq!(shard.drain_all(), 3);
        shard.try_push(counter_job(hits)).ok().unwrap();
    }

    #[test]
    fn reservations_exhaust_then_fail() {
        let shard = IngressShard::new(3, 4);
        assert_eq!(shard.reserve_lane(), Some(1), "lane 0 stays anonymous");
        assert_eq!(shard.reserve_lane(), Some(2));
        assert!(shard.reserve_lane().is_none(), "no reservable lane left");
        shard.release_lane(1);
        assert_eq!(shard.reserve_lane(), Some(1));
    }

    /// The emptiness probes read the lane counters, not the ring slots:
    /// they must agree with anonymous pushes, reserved-lane pushes and
    /// drains, survive a drain that is counted before its push, and be
    /// the number the `/metrics` gauge renders.
    #[test]
    fn lane_counters_answer_emptiness() {
        let shard = IngressShard::new(2, 4);
        let hits = Arc::new(AtomicU64::new(0));
        assert!(shard.looks_empty());
        assert_eq!(shard.occupancy(), 0);
        let lane = shard.reserve_lane().expect("lane 1 is reservable");
        shard.try_push(counter_job(hits.clone())).ok().unwrap();
        shard.try_push(counter_job(hits.clone())).ok().unwrap();
        shard
            .push_reserved(lane, counter_job(hits.clone()))
            .ok()
            .unwrap();
        assert!(!shard.looks_empty());
        assert_eq!(shard.occupancy(), 3);
        assert!(shard.drain_one().is_some() && shard.drain_one().is_some());
        assert_eq!(shard.occupancy(), 1);
        assert_eq!(shard.drain_all(), 1);
        assert!(shard.looks_empty());
        assert_eq!(shard.occupancy(), 0);

        // A push whose `pushed` bump has not landed yet is drained and
        // counted first: the probes read empty, not `u64` wrap-around.
        let ptr = counter_job(hits.clone()).into_raw();
        // SAFETY: the reservation makes this thread the lane's producer.
        unsafe { shard.lanes[lane].q.enqueue(ptr) }.ok().unwrap();
        assert_eq!(shard.drain_all(), 1);
        assert_eq!(shard.occupancy(), 0, "drained-before-pushed underflowed");
        assert!(shard.looks_empty());
        shard.lanes[lane].pushed.fetch_add(1, Ordering::Relaxed);
        assert_eq!(shard.occupancy(), 0);
        assert_eq!(shard.lane_counters()[lane], (2, 2));
        shard.release_lane(lane);
        assert_eq!(hits.load(Ordering::Relaxed), 0, "drained bodies never ran");

        // The gauge: one worker held in a gated job leaves three
        // anonymous submissions sitting in the rings.
        let server = crate::TaskServer::start(crate::ServerConfig::new(1).lane_capacity(4));
        let (gate, running) = (
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicBool::new(false)),
        );
        let (g, r) = (gate.clone(), running.clone());
        let blocker = server
            .submit(move |_| {
                r.store(true, Ordering::Release);
                while !g.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            })
            .unwrap();
        while !running.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        let queued: Vec<_> = (0..3u32)
            .map(|i| server.try_submit(move |_| i).unwrap())
            .collect();
        let occupancy = server.ingress().occupancy();
        assert_eq!(occupancy, 3);
        let sample = format!("xgomp_ingress_occupancy {occupancy}");
        assert!(
            server.render_prometheus().lines().any(|l| l == sample),
            "gauge disagrees with ingress().occupancy()"
        );
        gate.store(true, Ordering::Release);
        blocker.join().unwrap();
        for (i, h) in queued.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), i as u32);
        }
        let report = server.shutdown();
        assert_eq!(report.stats.queued, 0);
    }

    #[test]
    fn fallover_spreads_to_other_shards() {
        let ingress = ShardedIngress::new(2, 1, 2);
        let hits = Arc::new(AtomicU64::new(0));
        // Shard 0 takes 2, then pushes must fall over to shard 1.
        for _ in 0..4 {
            ingress
                .push_from(0, counter_job(hits.clone()))
                .ok()
                .unwrap();
        }
        assert!(!ingress.shards[1].looks_empty());
        // A drainer hinted at shard 1 still collects everything.
        assert_eq!(std::iter::from_fn(|| ingress.drain_one(1)).count(), 4);
    }

    /// Hammers live registration against anonymous pushes on a tiny
    /// shard: the reservation handshake must guarantee the reserved
    /// lane never has two concurrent producers, observable as exact job
    /// conservation (a lost or duplicated enqueue shows up as a count
    /// mismatch or a double-free under the test allocator).
    #[test]
    fn registration_racing_anonymous_pushes_conserves_jobs() {
        let shard = Arc::new(IngressShard::new(2, 4)); // lane 1 is the contended one
        const ANON_THREADS: u64 = 3;
        const ANON_JOBS: u64 = 4_000;
        const ROUNDS: u64 = 1_000;
        const PER_ROUND: u64 = 4;
        let drained = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));

        let drainer = {
            let shard = shard.clone();
            let drained = drained.clone();
            let stop = stop.clone();
            std::thread::spawn(move || loop {
                if shard.drain_one().is_some() {
                    drained.fetch_add(1, Ordering::Relaxed);
                } else {
                    if stop.load(Ordering::Acquire) && shard.looks_empty() {
                        return;
                    }
                    std::thread::yield_now();
                }
            })
        };

        // Registrar: repeatedly reserve the lane on the live shard,
        // push through the reserved path, release — racing the
        // anonymous claimants below the whole time.
        let registrar = {
            let shard = shard.clone();
            std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    let lane = loop {
                        match shard.reserve_lane() {
                            Some(l) => break l,
                            None => std::thread::yield_now(),
                        }
                    };
                    for i in 0..PER_ROUND {
                        let mut job = JobRef::from_fn(move |_| {
                            std::hint::black_box(i);
                        });
                        loop {
                            match shard.push_reserved(lane, job) {
                                Ok(()) => break,
                                Err(back) => {
                                    job = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                    shard.release_lane(lane);
                }
            })
        };

        let anons: Vec<_> = (0..ANON_THREADS)
            .map(|_| {
                let shard = shard.clone();
                std::thread::spawn(move || {
                    for i in 0..ANON_JOBS {
                        let mut job = JobRef::from_fn(move |_| {
                            std::hint::black_box(i);
                        });
                        loop {
                            match shard.try_push(job) {
                                Ok(()) => break,
                                Err(back) => {
                                    job = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                })
            })
            .collect();

        registrar.join().unwrap();
        for a in anons {
            a.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        drainer.join().unwrap();
        let rest = shard.drain_all();
        let total = ANON_THREADS * ANON_JOBS + ROUNDS * PER_ROUND;
        assert_eq!(
            drained.load(Ordering::Relaxed) + rest,
            total,
            "registration race lost or duplicated jobs"
        );
        let (pushed, got): (u64, u64) = shard
            .lane_counters()
            .iter()
            .fold((0, 0), |(a, b), &(p, d)| (a + p, b + d));
        assert_eq!((pushed, got), (total, total));
    }

    #[test]
    fn concurrent_submitters_conserve_jobs() {
        let ingress = Arc::new(ShardedIngress::new(3, 4, 64));
        const PER_THREAD: u64 = 2_000;
        const THREADS: u64 = 6;
        let drained = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));

        // One drainer per shard hint, mimicking idle workers.
        let drainers: Vec<_> = (0..3usize)
            .map(|hint| {
                let ingress = ingress.clone();
                let drained = drained.clone();
                let stop = stop.clone();
                std::thread::spawn(move || loop {
                    if ingress.drain_one(hint).is_some() {
                        drained.fetch_add(1, Ordering::Relaxed);
                    } else {
                        if stop.load(Ordering::Acquire) && ingress.looks_empty() {
                            return;
                        }
                        std::thread::yield_now();
                    }
                })
            })
            .collect();

        let submitters: Vec<_> = (0..THREADS)
            .map(|t| {
                let ingress = ingress.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        let mut job = JobRef::from_fn(move |_| {
                            std::hint::black_box(i);
                        });
                        loop {
                            match ingress.push_from(t as usize, job) {
                                Ok(_shard) => break,
                                Err(back) => {
                                    job = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                })
            })
            .collect();

        for s in submitters {
            s.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        for d in drainers {
            d.join().unwrap();
        }
        // Post-join sweep for anything left between the emptiness check
        // and the last push.
        let rest = std::iter::from_fn(|| ingress.drain_one(0)).count() as u64;
        assert_eq!(
            drained.load(Ordering::Relaxed) + rest,
            PER_THREAD * THREADS,
            "ingress lost or duplicated jobs"
        );
    }
}
