//! Futex-style, NUMA-aware parking for idle workers.
//!
//! The queuing layers of this crate are deliberately kernel-free: spinning
//! workers synchronize through plain loads and stores. A *persistent*
//! runtime cannot afford that bargain while idle — a task server with no
//! jobs in flight would burn one core per worker forever. This module is
//! the explicitly kernel-assisted idle tier layered next to the lock-less
//! fabric: a worker that has exhausted its spin backoff publishes a
//! per-worker *parking word* and blocks on an OS primitive; producers pay
//! one fence plus one relaxed load on the hot path (nothing else when
//! nobody is parked) and otherwise wake exactly one sleeper.
//!
//! Wake-ups are NUMA-aware, mirroring the NA-RP victim order of the DLB
//! engine: workers are grouped into *zone wake sets*, and
//! [`Parker::notify_any`] wakes a parked worker in the caller's zone
//! before it even looks at a remote zone — a woken worker starts with the
//! producer's cache lines close by.
//!
//! ## Protocol (no lost wake-ups)
//!
//! Parking is split into three steps so callers can re-check their own
//! wake conditions between the *announcement* and the *sleep*:
//!
//! 1. [`prepare_park`](Parker::prepare_park) — announce intent (state →
//!    `PARKED`, zone set updated) and issue a `SeqCst` fence;
//! 2. the caller re-checks every condition a waker could signal (queues,
//!    ingress, poison, release) and either
//! 3. [`cancel_park`](Parker::cancel_park)s, or commits with
//!    [`park`](Parker::park), which sleeps until notified.
//!
//! [`park_unless`](Parker::park_unless) runs the three steps around a
//! caller-supplied re-check; the scheduling loops go through it (via
//! [`IdleGate`]) instead of spelling the sequence out.
//!
//! Wakers store their payload (a queued task, a flag), issue a `SeqCst`
//! fence, and then examine parking words. The paired fences close the
//! sleep/wake race: either the waker observes the announcement and
//! notifies, or the sleeper's re-check (which follows its own fence)
//! observes the payload and cancels. Both can happen; neither can be
//! missed.

use std::sync::atomic::{fence, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

use crate::{Backoff, CachePadded};

/// Worker is running (or spinning); not observable by wakers.
const IDLE: u32 = 0;
/// Worker announced intent to park, or is asleep.
const PARKED: u32 = 1;
/// A waker claimed this worker; it must not (stay) asleep.
const NOTIFIED: u32 = 2;

/// One worker's parking word plus the OS primitive it sleeps on, padded
/// (in the parker's slot array) so wakers probing one worker's state
/// never bounce a neighbour's line. Starts `IDLE` (0).
#[derive(Default)]
struct ParkSlot {
    state: AtomicU32,
    lock: Mutex<()>,
    cv: Condvar,
}

/// A zone's wake set: its member workers and how many are announced.
struct ZoneSet {
    workers: Vec<usize>,
    /// Workers of this zone currently in `PARKED` (announced or asleep);
    /// an over-approximation while a `NOTIFIED` worker is still waking.
    parked: AtomicUsize,
}

/// NUMA-aware parking facility for one team of workers.
///
/// Construction takes the worker → zone assignment (any dense-ish zone
/// ids work; the runtime passes its [`Placement`] zones). The structure
/// is topology-agnostic on purpose: zone ids are opaque group labels.
///
/// [`Placement`]: https://docs.rs/xgomp-topology
pub struct Parker {
    slots: Box<[CachePadded<ParkSlot>]>,
    zones: Box<[ZoneSet]>,
    zone_of: Box<[usize]>,
    /// Global count of announced workers — the producers' fast-path gate.
    n_parked: AtomicUsize,
    /// Cumulative committed parks (a worker that actually slept).
    parks: AtomicU64,
    /// Cumulative wake-ups delivered (successful `PARKED → NOTIFIED`).
    wakes: AtomicU64,
}

impl Parker {
    /// Builds a parker for `zone_of.len()` workers, `zone_of[w]` giving
    /// worker `w`'s wake-set (NUMA zone) id.
    pub fn new(zone_of: &[usize]) -> Self {
        assert!(!zone_of.is_empty(), "a parker needs at least one worker");
        let n_zones = zone_of.iter().copied().max().unwrap_or(0) + 1;
        let mut zones: Vec<ZoneSet> = (0..n_zones)
            .map(|_| ZoneSet {
                workers: Vec::new(),
                parked: AtomicUsize::new(0),
            })
            .collect();
        for (w, &z) in zone_of.iter().enumerate() {
            zones[z].workers.push(w);
        }
        Parker {
            slots: zone_of.iter().map(|_| CachePadded::default()).collect(),
            zones: zones.into_boxed_slice(),
            zone_of: zone_of.to_vec().into_boxed_slice(),
            n_parked: AtomicUsize::new(0),
            parks: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
        }
    }

    /// Number of workers this parker serves.
    #[inline]
    pub fn n_workers(&self) -> usize {
        self.slots.len()
    }

    /// Number of zone wake sets.
    #[inline]
    pub fn n_zones(&self) -> usize {
        self.zones.len()
    }

    /// Zone (wake set) of worker `w`.
    #[inline]
    pub fn zone_of(&self, w: usize) -> usize {
        self.zone_of[w]
    }

    // ---- sleeper side -------------------------------------------------

    /// Announces that worker `w` intends to park. Returns `false` when a
    /// pending notification was consumed instead — the caller already has
    /// a reason to stay awake and must not call [`park`](Self::park).
    ///
    /// On `true`, the caller must re-check its wake conditions and then
    /// either [`park`](Self::park) or [`cancel_park`](Self::cancel_park).
    /// The announcement is followed by a `SeqCst` fence, so those
    /// re-check loads observe anything stored before a waker's fence.
    pub fn prepare_park(&self, w: usize) -> bool {
        let slot = &self.slots[w].0;
        let prev = slot.state.swap(PARKED, Ordering::SeqCst);
        if prev == NOTIFIED {
            // A wake raced our last wake-up; consume it and stay awake.
            slot.state.store(IDLE, Ordering::Release);
            return false;
        }
        debug_assert_eq!(prev, IDLE, "worker {w} double-announced a park");
        self.zones[self.zone_of[w]]
            .parked
            .fetch_add(1, Ordering::Relaxed);
        self.n_parked.fetch_add(1, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        true
    }

    /// Withdraws an announcement made by [`prepare_park`](Self::prepare_park)
    /// (the re-check found a reason to stay awake).
    pub fn cancel_park(&self, w: usize) {
        let slot = &self.slots[w].0;
        // A waker may have claimed us between announce and cancel; its
        // notification is consumed here — we are awake either way.
        slot.state.swap(IDLE, Ordering::SeqCst);
        self.retire_announcement(w);
    }

    /// Commits the park: blocks until a waker notifies worker `w`.
    /// Must follow a `true` return from [`prepare_park`](Self::prepare_park).
    pub fn park(&self, w: usize) {
        let slot = &self.slots[w].0;
        {
            let mut guard = slot.lock.lock().unwrap_or_else(PoisonError::into_inner);
            while slot.state.load(Ordering::Acquire) != NOTIFIED {
                guard = slot.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
            }
        }
        slot.state.store(IDLE, Ordering::Release);
        self.retire_announcement(w);
        self.parks.fetch_add(1, Ordering::Relaxed);
    }

    fn retire_announcement(&self, w: usize) {
        self.zones[self.zone_of[w]]
            .parked
            .fetch_sub(1, Ordering::Relaxed);
        self.n_parked.fetch_sub(1, Ordering::Relaxed);
    }

    /// The whole announce → re-check → commit sequence for worker `w`,
    /// written once: `stay_awake` is the caller's re-check of every
    /// condition a waker could have signalled. It runs *after* the
    /// announcement's fence, which is what makes a `false` answer safe
    /// to sleep on — a waker that stored its payload before our
    /// announcement is seen here, one that stores it after sees the
    /// announcement and notifies. Returns whether the park was committed
    /// (`w` slept and has been woken); `false` means a pending
    /// notification or the re-check kept it awake.
    #[inline]
    pub fn park_unless(&self, w: usize, stay_awake: impl FnOnce() -> bool) -> bool {
        if !self.prepare_park(w) {
            return false;
        }
        if stay_awake() {
            self.cancel_park(w);
            return false;
        }
        self.park(w);
        true
    }

    // ---- waker side ---------------------------------------------------

    /// Claims and wakes worker `w` if it is announced/asleep. Returns
    /// whether this call delivered the wake-up.
    ///
    /// Issues the waker-side `SeqCst` fence itself, so callers only need
    /// to have stored their payload (queue push, flag) beforehand.
    pub fn unpark(&self, w: usize) -> bool {
        fence(Ordering::SeqCst);
        self.unpark_no_fence(w)
    }

    fn unpark_no_fence(&self, w: usize) -> bool {
        let slot = &self.slots[w].0;
        if slot
            .state
            .compare_exchange(PARKED, NOTIFIED, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        // Acquire (and release) the slot lock so the sleeper is either
        // not yet waiting (it will see NOTIFIED under the lock) or
        // already waiting (the notify below reaches it). Without this,
        // a notify could fire between its check and its wait.
        drop(slot.lock.lock().unwrap_or_else(PoisonError::into_inner));
        slot.cv.notify_one();
        self.wakes.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Wakes one announced worker of zone `zone`, if any (the caller —
    /// [`notify_any`](Self::notify_any) — has issued the waker fence).
    fn unpark_one_in_zone_no_fence(&self, zone: usize) -> Option<usize> {
        let set = self.zones.get(zone)?;
        if set.parked.load(Ordering::Relaxed) == 0 {
            return None;
        }
        set.workers
            .iter()
            .copied()
            .find(|&w| self.unpark_no_fence(w))
    }

    /// Wakes one parked worker, trying the preferred zone first and the
    /// remaining zones only when it has no parked worker — the NA-RP
    /// "local victims first" order applied to wake-ups. Returns the woken
    /// worker, if any.
    pub fn notify_any(&self, prefer_zone: usize) -> Option<usize> {
        fence(Ordering::SeqCst);
        if self.n_parked.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let n = self.zones.len();
        // Normalize first so an out-of-range zone id still probes every
        // zone: starting the rotation at the raw id would skip residue
        // `prefer_zone % n` and could miss a parked worker entirely.
        let prefer = prefer_zone % n;
        for i in 0..n {
            if let Some(w) = self.unpark_one_in_zone_no_fence((prefer + i) % n) {
                return Some(w);
            }
        }
        None
    }

    /// Wakes worker `target` if it is parked — the cheap producer-side
    /// hook after pushing into `target`'s queue. No-op (one fence + one
    /// relaxed load) while nobody in the team is parked.
    #[inline]
    pub fn notify_push(&self, target: usize) -> bool {
        fence(Ordering::SeqCst);
        if self.n_parked.load(Ordering::Relaxed) == 0 {
            return false;
        }
        self.unpark_no_fence(target)
    }

    /// Wakes every parked worker (poison, region release, shutdown).
    /// Returns how many wake-ups were delivered.
    pub fn unpark_all(&self) -> usize {
        fence(Ordering::SeqCst);
        if self.n_parked.load(Ordering::Relaxed) == 0 {
            return 0;
        }
        (0..self.slots.len())
            .filter(|&w| self.unpark_no_fence(w))
            .count()
    }

    // ---- observability ------------------------------------------------

    /// Workers currently announced or asleep (racy snapshot).
    pub fn currently_parked(&self) -> usize {
        self.n_parked.load(Ordering::Relaxed)
    }

    /// Workers of `zone` currently announced or asleep (racy snapshot).
    pub fn parked_in_zone(&self, zone: usize) -> usize {
        self.zones
            .get(zone)
            .map_or(0, |z| z.parked.load(Ordering::Relaxed))
    }

    /// Cumulative committed parks (sleeps actually entered).
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }

    /// Cumulative delivered wake-ups.
    pub fn wakes(&self) -> u64 {
        self.wakes.load(Ordering::Relaxed)
    }
}

/// The idle arm shared by every scheduling loop: spin/yield through a
/// [`Backoff`], and once it saturates park through
/// [`Parker::park_unless`] — the loops supply only their stay-awake
/// predicate.
#[derive(Debug, Default)]
pub struct IdleGate {
    backoff: Backoff,
    /// Set when a park attempt ended awake: skip the next attempt so
    /// the iteration after a cancel re-probes immediately (the hint may
    /// be work we can take right now) but, if that probe comes up
    /// empty, lands in the snooze instead of hard-spinning the
    /// announce/cancel counters while e.g. another worker holds the
    /// drain claim the hint points at.
    skip_park: bool,
}

impl IdleGate {
    /// The loop found work: probe aggressively again.
    #[inline]
    pub fn reset(&mut self) {
        self.backoff.reset();
        self.skip_park = false;
    }

    /// One idle step of worker `w`: snooze, or — with `may_park` and a
    /// saturated backoff — attempt a park. Returns whether `w` slept.
    #[inline]
    pub fn idle(
        &mut self,
        parker: &Parker,
        w: usize,
        may_park: bool,
        stay_awake: impl FnOnce() -> bool,
    ) -> bool {
        if !(may_park && self.backoff.is_completed()) || std::mem::take(&mut self.skip_park) {
            self.backoff.snooze();
            return false;
        }
        let slept = parker.park_unless(w, stay_awake);
        if slept {
            // Woken for a reason: probe aggressively again.
            self.backoff.reset();
        }
        self.skip_park = !slept;
        slept
    }
}

/// A multi-generation doorbell: publishes the *current* team's [`Parker`]
/// to threads that outlive any single team generation.
///
/// A persistent server that pauses and resumes replaces its team's parker
/// at every generation boundary (the parker is sized per worker set), but
/// submitter threads hold their doorbell reference across generations.
/// `ParkerCell` closes that gap with a publication registry:
///
/// * [`publish`](Self::publish) installs a new generation's parker with a
///   single `Release` pointer store — readers never take a lock;
/// * [`with_current`](Self::with_current) runs a closure against the
///   currently published parker (one `Acquire` load on the hot path);
/// * every parker ever published is retained, so a reader that loaded the
///   pointer just before a swap still dereferences a live parker — a
///   *retired* parker has no sleepers (its region quiesced and
///   `unpark_all` ran), so a stale notification is a harmless no-op;
/// * the retained history also preserves retired generations' park/wake
///   counters: [`parks`](Self::parks)/[`wakes`](Self::wakes) report
///   cumulative totals across every generation.
///
/// Publications are expected to be rare (generation boundaries), so the
/// retained history is bounded in practice by the pause/resume count —
/// one small `Parker` allocation per generation is the price of keeping
/// the reader side a single unsynchronized pointer load (freeing a
/// retired parker would need hazard/epoch machinery on every doorbell).
/// The cumulative counters are O(1): a retired parker's totals are
/// folded into running sums at publish time (they are final by then —
/// its region quiesced, and a stale notification on a parker with no
/// sleepers bumps nothing).
#[derive(Default)]
pub struct ParkerCell {
    current: AtomicPtr<Parker>,
    /// Every parker ever published, in order. Never shrinks: this is what
    /// keeps `current`'s referent alive for lock-free readers.
    history: Mutex<Vec<std::sync::Arc<Parker>>>,
    /// Final park/wake totals of every *retired* generation.
    retired_parks: AtomicU64,
    retired_wakes: AtomicU64,
}

impl ParkerCell {
    /// An empty cell: [`with_current`](Self::with_current) returns `None`
    /// until the first [`publish`](Self::publish).
    pub fn new() -> Self {
        ParkerCell {
            current: AtomicPtr::new(std::ptr::null_mut()),
            history: Mutex::new(Vec::new()),
            retired_parks: AtomicU64::new(0),
            retired_wakes: AtomicU64::new(0),
        }
    }

    /// Installs `parker` as the current generation's doorbell target,
    /// retiring the previous one (its final counters are folded into the
    /// cumulative totals).
    pub fn publish(&self, parker: std::sync::Arc<Parker>) {
        let raw = std::sync::Arc::as_ptr(&parker) as *mut Parker;
        let mut history = self.history.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(prev) = history.last() {
            // The previous generation quiesced before its replacement is
            // published, so these counters are final.
            self.retired_parks
                .fetch_add(prev.parks(), Ordering::Relaxed);
            self.retired_wakes
                .fetch_add(prev.wakes(), Ordering::Relaxed);
        }
        history.push(parker);
        // The store is ordered after the history push (Release), so a
        // reader that observes the pointer is guaranteed the Arc keeping
        // it alive has already been retained.
        self.current.store(raw, Ordering::Release);
    }

    /// Runs `f` against the currently published parker; `None` before the
    /// first publication. Lock-free: one `Acquire` pointer load.
    pub fn with_current<R>(&self, f: impl FnOnce(&Parker) -> R) -> Option<R> {
        let raw = self.current.load(Ordering::Acquire);
        if raw.is_null() {
            return None;
        }
        // SAFETY: `raw` was published by `publish`, which retained the
        // owning `Arc` in `history` first; history entries are never
        // removed while the cell is alive, and `&self` keeps the cell
        // alive for the duration of `f`.
        Some(f(unsafe { &*raw }))
    }

    /// How many parkers have been published (server generations so far).
    pub fn published(&self) -> usize {
        self.history
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Cumulative committed parks across every published generation
    /// (retired totals + the current parker's live counter; O(1)).
    pub fn parks(&self) -> u64 {
        self.retired_parks.load(Ordering::Relaxed) + self.with_current(|p| p.parks()).unwrap_or(0)
    }

    /// Cumulative delivered wake-ups across every published generation
    /// (retired totals + the current parker's live counter; O(1)).
    pub fn wakes(&self) -> u64 {
        self.retired_wakes.load(Ordering::Relaxed) + self.with_current(|p| p.wakes()).unwrap_or(0)
    }
}

impl std::fmt::Debug for ParkerCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParkerCell")
            .field("published", &self.published())
            .field("parks", &self.parks())
            .field("wakes", &self.wakes())
            .finish()
    }
}

impl std::fmt::Debug for Parker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Parker")
            .field("workers", &self.n_workers())
            .field("zones", &self.n_zones())
            .field("currently_parked", &self.currently_parked())
            .field("parks", &self.parks())
            .field("wakes", &self.wakes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::time::Duration;

    /// Parks worker `w` on a thread and reports when it wakes.
    fn park_on_thread(p: &Arc<Parker>, w: usize) -> std::thread::JoinHandle<()> {
        let p = p.clone();
        std::thread::spawn(move || {
            assert!(p.prepare_park(w), "no wake can be pending yet");
            p.park(w);
        })
    }

    fn wait_parked(p: &Parker, n: usize) {
        let mut spins = 0;
        while p.currently_parked() < n {
            std::thread::yield_now();
            spins += 1;
            assert!(spins < 1_000_000, "workers never parked");
        }
        // `parked` counts announcements; give the sleepers a moment to
        // actually reach the condvar so wake delivery is exercised.
        std::thread::sleep(Duration::from_millis(10));
    }

    #[test]
    fn local_zone_is_woken_before_remote() {
        // Workers 0,1 in zone 0; workers 2,3 in zone 1.
        let p = Arc::new(Parker::new(&[0, 0, 1, 1]));
        let h1 = park_on_thread(&p, 1); // zone 0
        let h3 = park_on_thread(&p, 3); // zone 1
        wait_parked(&p, 2);

        // A wake preferring zone 0 must pick the zone-0 sleeper.
        assert_eq!(p.notify_any(0), Some(1), "zone-local sleeper first");
        h1.join().unwrap();

        // Only the remote sleeper is left: now — and only now — a
        // zone-0 wake may cross zones.
        assert_eq!(p.parked_in_zone(0), 0);
        assert_eq!(
            p.notify_any(0),
            Some(3),
            "remote woken only when local set empty"
        );
        h3.join().unwrap();
        assert_eq!(p.currently_parked(), 0);
        assert_eq!(p.parks(), 2);
        assert_eq!(p.wakes(), 2);
    }

    /// An out-of-range zone id must still probe every zone: before the
    /// normalization in `notify_any`, the rotation started at the raw id
    /// and skipped residue `prefer_zone % n`, losing the wake entirely.
    #[test]
    fn out_of_range_zone_hint_still_wakes() {
        // Workers 0 in zone 0; worker 1 in zone 1.
        let p = Arc::new(Parker::new(&[0, 1]));
        let h = park_on_thread(&p, 1); // zone 1 == 3 % 2
        wait_parked(&p, 1);
        assert_eq!(
            p.notify_any(3),
            Some(1),
            "raw zone id 3 must reach the zone-1 sleeper"
        );
        h.join().unwrap();
        assert_eq!(p.currently_parked(), 0);
    }

    #[test]
    fn targeted_unpark_only_hits_parked_workers() {
        let p = Arc::new(Parker::new(&[0, 0]));
        assert!(!p.unpark(0), "idle worker cannot be woken");
        let h = park_on_thread(&p, 0);
        wait_parked(&p, 1);
        assert!(!p.notify_push(1), "worker 1 is not parked");
        assert!(p.notify_push(0));
        assert!(!p.unpark(0), "second wake finds it already notified");
        h.join().unwrap();
    }

    #[test]
    fn pending_notify_is_consumed_by_prepare() {
        let p = Parker::new(&[0]);
        // Announce, get claimed by a waker, then try to announce again:
        // the stale notification must be consumed, not slept through.
        assert!(p.prepare_park(0));
        assert!(p.unpark(0));
        // Sleeper side: the commit would return immediately; model the
        // cancel path instead (re-check found the waker's payload).
        p.cancel_park(0);
        // The *next* announcement starts clean.
        assert!(p.prepare_park(0));
        p.cancel_park(0);
        assert_eq!(p.currently_parked(), 0);
    }

    /// A waker's payload lands between the announcement and the
    /// re-check: `park_unless` must withdraw, never commit the park.
    #[test]
    fn park_unless_cancels_when_predicate_flips_after_announce() {
        let p = Parker::new(&[0]);
        let payload = AtomicUsize::new(0);
        let slept = p.park_unless(0, || {
            assert_eq!(p.currently_parked(), 1, "re-check follows the announce");
            assert_eq!(payload.load(Ordering::SeqCst), 0, "false before it");
            payload.store(1, Ordering::SeqCst); // the flip, inside the window
            payload.load(Ordering::SeqCst) != 0
        });
        assert!(!slept, "withdrawn, not slept");
        assert_eq!(p.parks(), 0, "no park was committed");
        assert_eq!(p.currently_parked(), 0, "announcement withdrawn");
    }

    #[test]
    fn unpark_all_wakes_every_sleeper() {
        let p = Arc::new(Parker::new(&[0, 0, 1, 1, 2]));
        let hs: Vec<_> = (0..5).map(|w| park_on_thread(&p, w)).collect();
        wait_parked(&p, 5);
        assert_eq!(p.unpark_all(), 5);
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(p.currently_parked(), 0);
        assert_eq!(p.parks(), 5);
    }

    /// The no-lost-wakeup property under a submit-racing-park storm:
    /// a producer hands tokens to a consumer that parks whenever it sees
    /// none; every token must be consumed (no hang = pass).
    #[test]
    fn no_lost_wakeup_stress() {
        const TOKENS: usize = 30_000;
        let p = Arc::new(Parker::new(&[0, 0]));
        let pending = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(AtomicUsize::new(0));

        let consumer = {
            let p = p.clone();
            let pending = pending.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                while done.load(Ordering::Acquire) < TOKENS {
                    // Consume whatever is visible.
                    while pending
                        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1))
                        .is_ok()
                    {
                        done.fetch_add(1, Ordering::Release);
                    }
                    if done.load(Ordering::Acquire) >= TOKENS {
                        break;
                    }
                    // Park with the full announce/re-check/commit dance.
                    if p.prepare_park(0) {
                        if pending.load(Ordering::Acquire) > 0
                            || done.load(Ordering::Acquire) >= TOKENS
                        {
                            p.cancel_park(0);
                        } else {
                            p.park(0);
                        }
                    }
                }
            })
        };

        for i in 0..TOKENS {
            pending.fetch_add(1, Ordering::AcqRel);
            p.notify_push(0);
            if i % 1024 == 0 {
                // Give the consumer time to actually fall asleep so the
                // committed-park path is exercised, not just the cancel.
                while p.currently_parked() == 0 && done.load(Ordering::Acquire) < i {
                    std::hint::spin_loop();
                }
            }
        }
        // Final safety wake in case the last token raced an announcement
        // that our notify_push already claimed (consumer consumes it).
        p.unpark_all();
        consumer.join().unwrap();
        assert_eq!(done.load(Ordering::Relaxed), TOKENS);
        assert_eq!(pending.load(Ordering::Relaxed), 0);
    }

    /// The multi-generation doorbell: counters accumulate across
    /// published parkers, stale notifications on retired generations are
    /// harmless, and wakes reach the current generation's sleepers.
    #[test]
    fn parker_cell_spans_generations() {
        let cell = ParkerCell::new();
        assert!(cell.with_current(|_| ()).is_none(), "empty cell");
        assert_eq!(cell.notify_stats(), (0, 0));

        // Generation 1: park, wake through the cell, retire.
        let gen1 = Arc::new(Parker::new(&[0, 0]));
        cell.publish(gen1.clone());
        let h = park_on_thread(&gen1, 0);
        wait_parked(&gen1, 1);
        assert_eq!(cell.with_current(|p| p.notify_any(0)), Some(Some(0)));
        h.join().unwrap();

        // Generation 2 replaces it; a doorbell rung now must reach the
        // new team, and the cumulative counters keep generation 1's.
        let gen2 = Arc::new(Parker::new(&[0]));
        cell.publish(gen2.clone());
        assert_eq!(cell.published(), 2);
        let h = park_on_thread(&gen2, 0);
        wait_parked(&gen2, 1);
        // A stale ring on the retired parker wakes nobody and breaks
        // nothing (generation 1 has no sleepers left).
        assert_eq!(gen1.notify_any(0), None);
        assert_eq!(cell.with_current(|p| p.notify_any(0)), Some(Some(0)));
        h.join().unwrap();
        assert_eq!(cell.notify_stats(), (2, 2));
    }

    impl ParkerCell {
        fn notify_stats(&self) -> (u64, u64) {
            (self.parks(), self.wakes())
        }
    }

    #[test]
    fn counters_track_parks_and_wakes() {
        let p = Arc::new(Parker::new(&[0]));
        for _ in 0..3 {
            let h = park_on_thread(&p, 0);
            wait_parked(&p, 1);
            assert!(p.unpark(0));
            h.join().unwrap();
        }
        assert_eq!(p.parks(), 3);
        assert_eq!(p.wakes(), 3);
        assert_eq!(p.currently_parked(), 0);
    }
}
