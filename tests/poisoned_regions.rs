//! A poisoned region ends the way a clean one does: through the barrier
//! release, after every task was retired. A task body that panics in a
//! non-isolating team poisons it; from then on no queued body starts (the
//! tasks are discarded), and a frame that spawned borrowing tasks — a
//! [`TaskCtx::scope`], or the scope `parallel_for` drains through — is
//! left only once the bodies still running on other workers returned.
//!
//! The loop-payload probes check which panic the region re-raises when a
//! loop body panics on one worker while the master's drain runs on: the
//! body's, never a later panic of the loop's own bookkeeping.
//!
//! Each scope probe runs a borrowing child B on one worker while its
//! sibling A panics on the other. B waits for the poison, then watches for up to
//! [`WATCH`] whether the frame it borrows from has exited. A scope that
//! stops waiting on poison lets that frame go at once, so the window only
//! bounds how fast such a runtime is caught; a correct one keeps the
//! frame for as long as B runs, whatever the window.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

use xgomp::{DlbConfig, DlbStrategy, LoopSchedule, Runtime, RuntimeConfig, TaskCtx};

/// How long B watches the frame once the team is poisoned.
const WATCH: Duration = Duration::from_millis(200);

/// Turns a step that cannot happen (a hang) into a failure.
const STUCK: Duration = Duration::from_secs(30);

/// What B saw.
const RUNNING: u8 = 0;
const FRAME_HELD: u8 = 1;
const FRAME_EXITED: u8 = 2;

/// The state one probe shares between its region frame and its tasks.
#[derive(Default)]
struct Probe {
    /// Set when the frame the children borrow from exits.
    frame_exited: AtomicBool,
    /// Set once B runs.
    b_started: AtomicBool,
    /// B's verdict: [`RUNNING`] until it has watched the frame.
    b_saw: AtomicU8,
}

/// Sets the probe's `frame_exited` when the frame holding it exits,
/// normally or by unwinding.
struct FrameGuard<'a>(&'a Probe);

impl Drop for FrameGuard<'_> {
    fn drop(&mut self) {
        self.0.frame_exited.store(true, Ordering::Release);
    }
}

/// Spins until `cond` holds; failing after [`STUCK`] only turns a hang
/// into a message.
fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + STUCK;
    while !cond() {
        assert!(Instant::now() < deadline, "stuck waiting for {what}");
        std::thread::yield_now();
    }
}

impl Probe {
    /// Child B: announces itself, waits for the team's poison, then
    /// watches the frame for [`WATCH`]. `borrowed` lives in that frame.
    fn child_b(&self, ctx: &TaskCtx<'_>, borrowed: &AtomicU64) {
        borrowed.fetch_add(1, Ordering::Relaxed);
        self.b_started.store(true, Ordering::Release);
        wait_for("the sibling's poison", || ctx.is_poisoned());
        let deadline = Instant::now() + WATCH;
        let mut saw = FRAME_HELD;
        while Instant::now() < deadline {
            if self.frame_exited.load(Ordering::Acquire) {
                saw = FRAME_EXITED;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        self.b_saw.store(saw, Ordering::Release);
    }

    /// Child A: waits until B runs, then panics.
    fn child_a(&self) {
        wait_for("the borrowing sibling to start", || {
            self.b_started.load(Ordering::Acquire)
        });
        panic!("sibling A panicked");
    }

    /// Checks what the region left behind: its panic re-raised, and B
    /// done before the frame went.
    fn verdict(&self, region: std::thread::Result<()>, label: &str) {
        let msg = reraised(region);
        assert_eq!(msg, "sibling A panicked", "{label}: the region's payload");
        assert!(self.frame_exited.load(Ordering::Acquire), "{label}");
        match self.b_saw.load(Ordering::Acquire) {
            FRAME_HELD => {}
            FRAME_EXITED => {
                panic!("{label}: scope returned while a borrowing child still ran")
            }
            RUNNING => panic!("{label}: the region returned before its child B finished"),
            other => unreachable!("{label}: B's verdict {other}"),
        }
    }
}

/// The message of the panic a region re-raised.
fn reraised(region: std::thread::Result<()>) -> String {
    let payload = region.expect_err("the region must re-raise the panic");
    let literal = payload.downcast_ref::<&str>().map(|s| s.to_string());
    literal
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string payload>".to_string())
}

/// A scope on a two-worker team: B placed on worker 1, A on worker 0.
fn scope_waits_for_running_children(cfg: RuntimeConfig, label: &str) {
    let rt = Runtime::new(cfg);
    let probe = Probe::default();
    let region = catch_unwind(AssertUnwindSafe(|| {
        rt.parallel(|ctx| {
            let _frame = FrameGuard(&probe);
            let borrowed = AtomicU64::new(0);
            ctx.scope(|s| {
                let (probe, borrowed) = (&probe, &borrowed);
                s.spawn_on(1, move |c| probe.child_b(c, borrowed));
                s.spawn_on(0, move |_| probe.child_a());
            });
        });
    }));
    probe.verdict(region.map(drop), label);
    // The runtime stays usable after the poisoned region.
    assert_eq!(rt.parallel(|_| 7).result, 7, "{label}: next region");
}

#[test]
fn scope_outlives_its_running_children_under_xqueue_static() {
    let cfg = RuntimeConfig::xgomptb(2);
    scope_waits_for_running_children(cfg, "xgomptb");
}

#[test]
fn scope_outlives_its_running_children_under_na_ws() {
    let cfg = RuntimeConfig::xgomptb(2).dlb(DlbConfig::new(DlbStrategy::WorkSteal));
    scope_waits_for_running_children(cfg, "xgomptb + NA-WS");
}

#[test]
fn scope_outlives_its_running_children_under_na_rp() {
    let cfg = RuntimeConfig::xgomptb(2).dlb(DlbConfig::new(DlbStrategy::RedirectPush));
    scope_waits_for_running_children(cfg, "xgomptb + NA-RP");
}

#[test]
fn scope_outlives_its_running_children_under_gomp() {
    scope_waits_for_running_children(RuntimeConfig::gomp(2), "gomp");
}

#[test]
fn scope_outlives_its_running_children_under_lomp() {
    scope_waits_for_running_children(RuntimeConfig::lomp(2), "lomp");
}

/// A `Dynamic(1)` loop on two workers: one iteration on worker 0 panics
/// (A) once worker 1's first iteration (B) runs; the loop's drain state
/// lives in the frame of the `parallel_for` call.
#[test]
fn parallel_for_outlives_its_running_drains() {
    let rt = Runtime::new(RuntimeConfig::xgomptb(2));
    let probe = Probe::default();
    let (a_claimed, b_claimed) = (AtomicBool::new(false), AtomicBool::new(false));
    let region = catch_unwind(AssertUnwindSafe(|| {
        rt.parallel(|ctx| {
            let _frame = FrameGuard(&probe);
            let borrowed = AtomicU64::new(0);
            ctx.parallel_for(0..64u64, LoopSchedule::Dynamic(1), |_, c| {
                match c.worker_id() {
                    0 if !a_claimed.swap(true, Ordering::AcqRel) => probe.child_a(),
                    1 if !b_claimed.swap(true, Ordering::AcqRel) => probe.child_b(c, &borrowed),
                    _ => {}
                }
            });
        });
    }));
    probe.verdict(region.map(drop), "parallel_for Dynamic(1)");
}

/// A `Dynamic(1)` loop on two workers whose first iteration on worker 1
/// panics while worker 0's drain runs on: the region re-raises the body's
/// payload. The master's drain comes up one iteration short, so a master
/// that went on past its scope would replace the payload with a panic of
/// the loop's own bookkeeping.
fn parallel_for_reraises_the_body_panic(cfg: RuntimeConfig, label: &str) {
    let rt = Runtime::new(cfg);
    let region = catch_unwind(AssertUnwindSafe(|| {
        rt.parallel(|ctx| {
            ctx.parallel_for(0..64u64, LoopSchedule::Dynamic(1), |_, c| {
                if c.worker_id() == 1 {
                    panic!("iteration on worker 1 panicked");
                }
                wait_for("worker 1's panic", || c.is_poisoned());
            });
        });
    }));
    let msg = reraised(region.map(drop));
    assert_eq!(msg, "iteration on worker 1 panicked", "{label}");
    assert_eq!(rt.parallel(|_| 7).result, 7, "{label}: next region");
}

#[test]
fn parallel_for_reraises_the_body_panic_under_xqueue_static() {
    parallel_for_reraises_the_body_panic(RuntimeConfig::xgomptb(2), "xgomptb");
}

#[test]
fn parallel_for_reraises_the_body_panic_under_gomp() {
    parallel_for_reraises_the_body_panic(RuntimeConfig::gomp(2), "gomp");
}

#[test]
fn parallel_for_reraises_the_body_panic_under_lomp() {
    parallel_for_reraises_the_body_panic(RuntimeConfig::lomp(2), "lomp");
}

/// Sets its flag when dropped.
struct DropFlag<'a>(&'a AtomicBool);

impl Drop for DropFlag<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// In a poisoned team an undeferred child is discarded like a queued one:
/// never run, its body dropped before its spawn returns. Worker 1's child
/// panics; once the poison shows, the master fills its own capacity-2
/// queue and spawns a third child there, which finds it full.
#[test]
fn an_undeferred_child_is_discarded_in_a_poisoned_team() {
    let rt = Runtime::new(RuntimeConfig::xgomptb(2).queue_capacity(2));
    let (ran, dropped) = (AtomicBool::new(false), AtomicBool::new(false));
    let region = catch_unwind(AssertUnwindSafe(|| {
        rt.parallel(|ctx| {
            ctx.scope(|s| {
                s.spawn_on(1, |_| panic!("worker 1 panicked"));
                wait_for("worker 1's panic", || ctx.is_poisoned());
                s.spawn_on(0, |_| {});
                s.spawn_on(0, |_| {});
                let (ran, flag) = (&ran, DropFlag(&dropped));
                s.spawn_on(0, move |_| {
                    let _flag = flag;
                    ran.store(true, Ordering::Relaxed);
                });
                assert!(
                    dropped.load(Ordering::Acquire),
                    "the discarded body outlived its spawn"
                );
            });
        });
    }));
    assert_eq!(reraised(region.map(drop)), "worker 1 panicked");
    assert!(!ran.load(Ordering::Relaxed), "a poisoned team ran a body");
    assert_eq!(rt.parallel(|_| 7).result, 7, "next region");
}
