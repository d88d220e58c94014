//! The DLB engine: thief/victim state machines for NA-RP and NA-WS
//! (§IV-C, §IV-D, Algs. 1–4), wired into the XQueue scheduler's
//! scheduling points.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use xgomp_profiling::WorkerStats;
use xgomp_topology::Placement;
use xgomp_xqueue::{bump, CachePadded, Parker};

use super::message::MsgCell;
use super::{DlbConfig, DlbStrategy};
use crate::sched::Row;

/// Victim-side per-worker redirect state (NA-RP, Alg. 3).
#[derive(Debug)]
struct RedirectState {
    /// Current thief (`ctid_thief`); `-1` = no redirect armed.
    thief: i64,
    /// Remaining redirect quota for this request.
    remaining: u64,
    /// Tasks pushed for the current request (statistics).
    pushed: u64,
}

impl Default for RedirectState {
    fn default() -> Self {
        RedirectState {
            thief: -1,
            remaining: 0,
            pushed: 0,
        }
    }
}

/// Engine owned by the XQueue scheduler when DLB is enabled: the shared
/// half of the protocol — the message cells, which a thief writes and a
/// victim answers, and everything read-only.
///
/// The configuration is held by value, normalised once: a team's DLB
/// strategy and knobs are fixed for its life.
pub(crate) struct DlbEngine {
    cfg: DlbConfig,
    cells: Box<[CachePadded<MsgCell>]>,
    placement: Arc<Placement>,
    /// Team idle parker: a victim that migrates tasks into a thief's row
    /// must wake that thief — a thief parks between request bursts, and
    /// nobody else would ever touch its row.
    parker: Arc<Parker>,
}

/// Worker `w`'s half of the protocol, owned by its scheduler seat: the
/// thief and victim state machines (Algs. 1–4) and the state only they
/// write, its worker's statistics block included. A thief never touches
/// a victim's seat, only its message cell.
pub(crate) struct DlbSeat<'e> {
    eng: &'e DlbEngine,
    w: usize,
    stats: &'e WorkerStats,
    /// Thief side: the idle timeout counter of §IV-B — idle scheduling
    /// points since the last request burst.
    idle_iters: Cell<u64>,
    /// Victim side (NA-RP).
    redirect: RefCell<RedirectState>,
    rng: RefCell<SmallRng>,
}

impl DlbEngine {
    pub fn new(n: usize, cfg: DlbConfig, placement: Arc<Placement>, parker: Arc<Parker>) -> Self {
        DlbEngine {
            cfg: cfg.normalized(),
            cells: (0..n).map(|_| CachePadded(MsgCell::new())).collect(),
            placement,
            parker,
        }
    }

    /// Worker `w`'s seat (the scheduler's seat claim covers it), writing
    /// `stats`.
    pub fn seat<'e>(&'e self, w: usize, stats: &'e WorkerStats) -> DlbSeat<'e> {
        DlbSeat {
            eng: self,
            w,
            stats,
            idle_iters: Cell::new(0),
            redirect: RefCell::default(),
            // Deterministic per-worker seeds keep experiments repeatable.
            rng: RefCell::new(SmallRng::seed_from_u64(0xD1B0_5EED ^ (w as u64) << 17)),
        }
    }

    /// The configuration this team runs (normalised).
    pub fn config(&self) -> DlbConfig {
        self.cfg
    }
}

impl DlbSeat<'_> {
    /// Books one served request that moved `moved` tasks from this
    /// victim to `thief` (either strategy); returns whether any moved.
    fn settle(&self, thief: usize, moved: u64) -> bool {
        if moved == 0 {
            return false;
        }
        let stats = self.stats;
        bump(&stats.nreq_has_steal, 1);
        bump(&stats.ntasks_stolen, moved);
        if self.eng.placement.is_numa_local(self.w, thief) {
            bump(&stats.nsteal_local, moved);
        } else {
            bump(&stats.nsteal_remote, moved);
        }
        true
    }

    /// Picks a victim for this thief: NUMA-local with probability
    /// `p_local`, remote otherwise; falls back to the other pool when a
    /// pool is empty (single-zone or zone-filling placements).
    fn pick_victim(&self, p_local: f64) -> Option<usize> {
        let locals = self.eng.placement.local_peers(self.w);
        let remotes = self.eng.placement.remote_peers(self.w);
        let rng = &mut *self.rng.borrow_mut();
        let use_local = rng.gen::<f64>() < p_local;
        let pool = match (use_local, locals.is_empty(), remotes.is_empty()) {
            (true, false, _) => locals,
            (true, true, false) => remotes,
            (false, _, false) => remotes,
            (false, false, true) => locals,
            _ => return None, // team of one
        };
        Some(pool[rng.gen_range(0..pool.len())])
    }

    /// Thief hook: called at every idle scheduling point (Alg. 1 plus the
    /// §IV-B timeout counter). Sends a burst of `n_victim` requests when
    /// the counter is at zero, then waits `t_interval` idle iterations
    /// before retrying.
    pub fn on_idle(&self) {
        let (eng, w) = (self.eng, self.w);
        let cfg = &eng.cfg;
        let send_now = {
            let mut idle_iters = self.idle_iters.get();
            let send = idle_iters == 0;
            idle_iters += 1;
            if idle_iters >= cfg.t_interval {
                idle_iters = 0; // timeout reached: retry next point
            }
            self.idle_iters.set(idle_iters);
            send
        };
        if !send_now {
            return;
        }
        for _ in 0..cfg.n_victim {
            if let Some(victim) = self.pick_victim(cfg.p_local) {
                if eng.cells[victim].0.try_send_request(w) {
                    bump(&self.stats.nreq_sent, 1);
                }
            }
        }
    }

    /// Resets the thief timeout when the worker found work ("the counter
    /// is reset … if the worker is no longer idle").
    pub fn on_active(&self) {
        self.idle_iters.set(0);
    }

    /// Victim hook: called when the worker has found a task to execute
    /// ("when a worker finds a task to execute, it becomes a victim and
    /// tries to handle a request", §IV-B). `row` is this worker's own
    /// lattice row (producer *and* consumer roles).
    pub fn on_found_task(&self, row: &Row<'_>) {
        let (eng, w) = (self.eng, self.w);
        let cfg = &eng.cfg;
        match cfg.strategy {
            DlbStrategy::WorkSteal => {
                if let Some(thief) = eng.cells[w].0.take_valid_request() {
                    bump(&self.stats.nreq_handled, 1);
                    self.work_steal(row, thief, cfg.n_steal);
                    eng.cells[w].0.bump_round();
                }
            }
            DlbStrategy::RedirectPush => {
                let armed = self.redirect.borrow().thief >= 0;
                if armed {
                    return; // finish the current redirect first (§IV-C)
                }
                if let Some(thief) = eng.cells[w].0.take_valid_request() {
                    bump(&self.stats.nreq_handled, 1);
                    if thief == w {
                        // Degenerate self-request; drop it.
                        eng.cells[w].0.bump_round();
                        return;
                    }
                    // Arm: the next `n_steal` spawns are redirected. The
                    // round is bumped when the quota completes.
                    let rd = &mut *self.redirect.borrow_mut();
                    rd.thief = thief as i64;
                    rd.remaining = cfg.n_steal as u64;
                    rd.pushed = 0;
                }
            }
        }
    }

    /// NA-WS migration (Alg. 4): move up to `n_steal` queued tasks from
    /// this victim into the thief's queue, oldest first: the bottom of the
    /// victim's own stack (in a recursion, its shallowest and largest
    /// pending subtrees), then its row.
    fn work_steal(&self, row: &Row<'_>, thief: usize, n_steal: usize) {
        let (eng, w) = (self.eng, self.w);
        if thief == w || thief >= eng.cells.len() {
            return;
        }
        let stats = self.stats;
        let mut moved = 0u64;
        while (moved as usize) < n_steal {
            // Producer-side fullness check first: `is_full_hint` is exact
            // for the (thief ← w) queue because w is its only producer.
            if row.is_full_hint(thief) {
                if moved == 0 {
                    bump(&stats.nreq_target_full, 1);
                }
                break;
            }
            match row.pop_oldest() {
                None => {
                    if moved == 0 {
                        bump(&stats.nreq_src_empty, 1);
                    }
                    break;
                }
                Some(task) => {
                    // Fullness was checked and only the thief (consumer)
                    // can change occupancy, monotonically downwards.
                    row.push(thief, task)
                        .expect("push after negative fullness hint cannot fail");
                    moved += 1;
                }
            }
        }
        if self.settle(thief, moved) {
            // The thief may have parked since sending its request; the
            // migrated tasks sit in its row, reachable by no one else.
            eng.parker.notify_push(thief);
        }
    }

    /// NA-RP spawn hook (Alg. 3, `doRedirectPush`): if a redirect is
    /// armed, returns the thief to push the new task to and consumes one
    /// quota unit. Disarms (and bumps the round) when the quota is
    /// exhausted or the thief's queue is full. Under NA-WS no redirect
    /// is ever armed, so this is `None`.
    pub fn redirect_target(&self, row: &Row<'_>) -> Option<usize> {
        let rd = &mut *self.redirect.borrow_mut();
        if rd.thief < 0 {
            return None;
        }
        let thief = rd.thief as usize;
        let full = row.is_full_hint(thief);
        if rd.remaining == 0 || full {
            // `ctid_thief ← -1` (no thief); request completed.
            if full && rd.pushed == 0 {
                bump(&self.stats.nreq_target_full, 1);
            }
            self.finish_redirect(rd);
            return None;
        }
        rd.remaining -= 1;
        rd.pushed += 1;
        if rd.remaining == 0 {
            self.finish_redirect(rd);
        }
        Some(thief)
    }

    /// Completes this victim's armed request: settles what it pushed,
    /// disarms, and bumps the round so the cell accepts new requests.
    fn finish_redirect(&self, rd: &mut RedirectState) {
        self.settle(rd.thief as usize, rd.pushed);
        *rd = RedirectState::default();
        self.eng.cells[self.w].0.bump_round();
    }
}

#[cfg(test)]
impl DlbEngine {
    /// Diagnostic access to a worker's message cell.
    pub fn cell(&self, w: usize) -> &MsgCell {
        &self.cells[w].0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::Rows;
    use crate::task::Task;
    use std::ptr::NonNull;
    use xgomp_topology::{Affinity, MachineTopology};

    fn make_engine(n: usize, cfg: DlbConfig) -> (DlbEngine, Rows) {
        make_engine_with(n, cfg, 16)
    }

    fn make_engine_with(n: usize, cfg: DlbConfig, queue_capacity: usize) -> (DlbEngine, Rows) {
        let placement = Arc::new(Placement::new(
            MachineTopology::new(2, 2, 1),
            n,
            Affinity::Close,
        ));
        let parker = Arc::new(Parker::new(
            &(0..n).map(|w| placement.zone_of(w)).collect::<Vec<_>>(),
        ));
        (
            DlbEngine::new(n, cfg, placement, parker),
            Rows::new(n, queue_capacity),
        )
    }

    fn mk_task(creator: u32) -> NonNull<Task> {
        NonNull::new(Box::into_raw(Box::new(Task::new(None, creator, 0)))).unwrap()
    }

    unsafe fn free_task(p: NonNull<Task>) {
        drop(unsafe { Box::from_raw(p.as_ptr()) });
    }

    #[test]
    fn thief_bursts_then_waits_t_interval() {
        let cfg = DlbConfig::new(DlbStrategy::WorkSteal)
            .n_victim(2)
            .t_interval(5)
            .p_local(1.0);
        let (eng, _rows) = make_engine(4, cfg);
        let st = WorkerStats::default();
        let s0 = eng.seat(0, &st);
        s0.on_idle(); // burst at counter 0
        let sent_after_first = st.snapshot().nreq_sent;
        assert!(sent_after_first >= 1, "first idle point must send");
        for _ in 0..3 {
            s0.on_idle(); // counter 1..3: silent
        }
        assert_eq!(st.snapshot().nreq_sent, sent_after_first);
        // The victim handles the pending request so the retry burst
        // has somewhere to land (p_local = 1 ⇒ worker 1 is the only
        // candidate for worker 0 on the 2×2 topology).
        assert_eq!(eng.cell(1).take_valid_request(), Some(0));
        eng.cell(1).bump_round();
        s0.on_idle(); // counter hits t_interval: resets
        s0.on_idle(); // counter 0 again: burst
        assert!(st.snapshot().nreq_sent > sent_after_first);
    }

    #[test]
    fn work_steal_migrates_tasks_to_thief() {
        let cfg = DlbConfig::new(DlbStrategy::WorkSteal)
            .n_steal(3)
            .p_local(1.0);
        let (eng, rows) = make_engine(2, cfg);
        let st = WorkerStats::default();
        let (r0, r1) = (rows.claim(0), rows.claim(1));
        // Victim 0 has 5 queued tasks in its master queue.
        let mut ptrs = Vec::new();
        for _ in 0..5 {
            let t = mk_task(0);
            ptrs.push(t);
            r0.push(0, t).unwrap();
        }
        // Thief 1 requests; victim handles at its next found-task point.
        assert!(eng.cell(0).try_send_request(1));
        eng.seat(0, &st).on_found_task(&r0);
        let s = st.snapshot();
        assert_eq!(s.nreq_handled, 1);
        assert_eq!(s.ntasks_stolen, 3, "moves exactly n_steal tasks");
        assert_eq!(s.nreq_has_steal, 1);
        // Topology 2×2×1 close: workers 0 and 1 share zone 0.
        assert_eq!(s.nsteal_local, 3);
        // Thief's row now holds 3 tasks.
        let mut got = 0;
        while r1.pop().is_some() {
            got += 1;
        }
        assert_eq!(got, 3);
        // Victim keeps the rest.
        let mut kept = 0;
        while r0.pop().is_some() {
            kept += 1;
        }
        assert_eq!(kept, 2);
        for p in ptrs {
            unsafe { free_task(p) };
        }
    }

    #[test]
    fn work_steal_migrates_the_oldest_own_task_first() {
        let cfg = DlbConfig::new(DlbStrategy::WorkSteal)
            .n_steal(1)
            .p_local(1.0);
        let (eng, rows) = make_engine(2, cfg);
        let st = WorkerStats::default();
        let (r0, r1) = (rows.claim(0), rows.claim(1));
        // Victim 0's own stack holds a, b, c (c the newest).
        let (a, b, c) = (mk_task(0), mk_task(0), mk_task(0));
        for t in [a, b, c] {
            r0.push_nested(t).unwrap();
        }
        assert!(eng.cell(0).try_send_request(1));
        eng.seat(0, &st).on_found_task(&r0);
        assert_eq!(st.snapshot().ntasks_stolen, 1);
        // The thief gets the oldest; the victim keeps running newest first.
        assert_eq!(r1.pop(), Some(a));
        assert_eq!(r1.pop(), None);
        assert_eq!(r0.pop(), Some(c));
        assert_eq!(r0.pop(), Some(b));
        assert_eq!(r0.pop(), None);
        for p in [a, b, c] {
            unsafe { free_task(p) };
        }
    }

    #[test]
    fn work_steal_empty_source_counts() {
        let cfg = DlbConfig::new(DlbStrategy::WorkSteal);
        let (eng, rows) = make_engine(2, cfg);
        let st = WorkerStats::default();
        assert!(eng.cell(0).try_send_request(1));
        eng.seat(0, &st).on_found_task(&rows.claim(0));
        let s = st.snapshot();
        assert_eq!(s.nreq_handled, 1);
        assert_eq!(s.nreq_src_empty, 1);
        assert_eq!(s.ntasks_stolen, 0);
        // Round bumped: a new request can arrive.
        assert!(eng.cell(0).try_send_request(1));
    }

    #[test]
    fn redirect_push_arms_and_consumes_quota() {
        let cfg = DlbConfig::new(DlbStrategy::RedirectPush).n_steal(2);
        let (eng, rows) = make_engine(2, cfg);
        let st = WorkerStats::default();
        let (s0, r0) = (eng.seat(0, &st), rows.claim(0));
        assert!(eng.cell(0).try_send_request(1));
        s0.on_found_task(&r0); // arms the redirect
        assert_eq!(st.snapshot().nreq_handled, 1);
        // While armed, further requests are not even examined.
        let round_before = eng.cell(0).current_round();
        s0.on_found_task(&r0);
        assert_eq!(eng.cell(0).current_round(), round_before);
        // Two spawns get redirected to the thief, then disarm.
        assert_eq!(s0.redirect_target(&r0), Some(1));
        assert_eq!(s0.redirect_target(&r0), Some(1));
        assert_eq!(s0.redirect_target(&r0), None, "quota exhausted");
        let s = st.snapshot();
        assert_eq!(s.ntasks_stolen, 2);
        assert_eq!(s.nreq_has_steal, 1);
        // Round bumped on completion (§IV-C).
        assert_eq!(eng.cell(0).current_round(), round_before + 1);
    }

    #[test]
    fn redirect_push_disarms_on_full_target() {
        let cfg = DlbConfig::new(DlbStrategy::RedirectPush).n_steal(100);
        let (eng, mut rows) = make_engine_with(2, cfg, 2); // tiny queues
        let st = WorkerStats::default();
        let (s0, r0) = (eng.seat(0, &st), rows.claim(0));
        assert!(eng.cell(0).try_send_request(1));
        s0.on_found_task(&r0);
        // Fill the (thief=1 ← victim=0) queue via redirects.
        let mut pushed = Vec::new();
        while let Some(target) = s0.redirect_target(&r0) {
            let t = mk_task(0);
            pushed.push(t);
            r0.push(target, t).unwrap();
        }
        // Queue capacity is 2: exactly 2 redirects then disarm.
        assert_eq!(pushed.len(), 2);
        assert_eq!(st.snapshot().ntasks_stolen, 2);
        drop(r0);
        rows.drain_all(&mut |p| unsafe { free_task(p) });
    }

    #[test]
    fn p_local_zero_prefers_remote_victims() {
        let cfg = DlbConfig::new(DlbStrategy::WorkSteal).p_local(0.0);
        let (eng, _rows) = make_engine(4, cfg);
        let st = WorkerStats::default();
        // Workers 0,1 in zone 0; 2,3 in zone 1 (2 sockets × 2 cores).
        let s0 = eng.seat(0, &st);
        for _ in 0..64 {
            if let Some(v) = s0.pick_victim(eng.config().p_local) {
                assert!(v >= 2, "p_local=0 must pick remote zone, got {v}");
            }
        }
    }

    #[test]
    fn p_local_one_prefers_local_victims() {
        let cfg = DlbConfig::new(DlbStrategy::WorkSteal).p_local(1.0);
        let (eng, _rows) = make_engine(4, cfg);
        let st = WorkerStats::default();
        let s0 = eng.seat(0, &st);
        for _ in 0..64 {
            if let Some(v) = s0.pick_victim(eng.config().p_local) {
                assert_eq!(v, 1, "p_local=1 must pick the zone peer");
            }
        }
    }
}
