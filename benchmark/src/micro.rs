//! Micro legs: each layer's public functions timed directly, from
//! outside, in batches. A leg reports the median over its batches.

use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use xgomp_core::dlb::MsgCell;
use xgomp_core::{clock, Runtime};
use xgomp_service::{LoopSchedule, TaskServer};
use xgomp_xqueue::{
    BQueue, EventRing, PaneSet, Parker, RangePool, XQueueLattice, DEFAULT_CAPACITY,
};

use crate::common::{runtime_config, server_config, spin_ticks, ticks_to_us, Sizing};
use crate::harness::Ledger;
use crate::procfs;
use crate::stats::Summary;

/// Every leg reports on at least this many batches.
const MIN_BATCHES: usize = 15;
/// Operations per batch of the nanosecond-scale legs.
const OPS: u64 = 400_000;

fn leg(budget: Duration, mut batch: impl FnMut() -> f64) -> Summary {
    batch(); // warm caches and lazy set-up
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_BATCHES || started.elapsed() < budget {
        samples.push(batch());
    }
    Summary::of(&samples)
}

fn ns_per_op(ticks: u64, ops: u64) -> f64 {
    ticks_to_us(ticks) * 1e3 / ops as f64
}

/// The one item every queue leg streams. Queues move pointers and never
/// look through them.
static ITEM: u64 = 0;

fn item() -> NonNull<u64> {
    NonNull::from(&ITEM)
}

/// Streams `OPS` items from a producer thread to the calling thread and
/// returns ns per item, timed from a common start line.
fn stream(push: impl Fn(NonNull<u64>) -> bool + Sync, pop: impl Fn() -> bool) -> f64 {
    let start_line = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            start_line.wait();
            for _ in 0..OPS {
                while !push(item()) {
                    std::hint::spin_loop();
                }
            }
        });
        start_line.wait();
        let t0 = clock::now();
        let mut got = 0;
        while got < OPS {
            if pop() {
                got += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        ns_per_op(clock::now() - t0, OPS)
    })
}

fn bqueue_handoff() -> f64 {
    let q = BQueue::<u64>::with_capacity(DEFAULT_CAPACITY);
    stream(
        // SAFETY: only the spawned thread enqueues into `q`.
        |it| unsafe { q.enqueue(it) }.is_ok(),
        // SAFETY: only the calling thread dequeues from `q`.
        || unsafe { q.dequeue() }.is_some(),
    )
}

fn lattice_cross() -> f64 {
    let lattice = XQueueLattice::<u64>::new(2, DEFAULT_CAPACITY);
    stream(
        // SAFETY: only the spawned thread acts as producer 0.
        |it| unsafe { lattice.push(0, 1, it) }.is_ok(),
        // SAFETY: only the calling thread acts as consumer 1.
        || unsafe { lattice.pop(1) }.is_some(),
    )
}

fn lattice_push_pop() -> f64 {
    let lattice = XQueueLattice::<u64>::new(2, DEFAULT_CAPACITY);
    let t0 = clock::now();
    for _ in 0..OPS {
        // SAFETY: this thread is the only one touching the lattice, so it
        // holds producer role 0 and consumer role 0.
        unsafe {
            let pushed = lattice.push(0, 0, item()).is_ok();
            let popped = lattice.pop(0).is_some();
            debug_assert!(pushed && popped);
        }
    }
    ns_per_op(clock::now() - t0, OPS)
}

fn rangepool_claim() -> f64 {
    let pool = RangePool::new(0, u32::MAX);
    let t0 = clock::now();
    for _ in 0..OPS {
        std::hint::black_box(pool.claim(1));
    }
    ns_per_op(clock::now() - t0, OPS)
}

/// Two threads claiming from one pool; ns per claim as each thread sees
/// it.
fn rangepool_claim_2t() -> f64 {
    let pool = RangePool::new(0, u32::MAX);
    let start_line = Barrier::new(2);
    let claim_all = || {
        start_line.wait();
        let t0 = clock::now();
        for _ in 0..OPS {
            std::hint::black_box(pool.claim(1));
        }
        clock::now() - t0
    };
    std::thread::scope(|s| {
        let other = s.spawn(claim_all);
        let mine = claim_all();
        let theirs = other.join().expect("claimer thread");
        ns_per_op(mine.max(theirs), OPS)
    })
}

/// `claim(1)` over a u64 range beyond `u32::MAX`, through 64 Ki-unit
/// panes so every batch crosses several pane rollovers.
fn panes_claim() -> f64 {
    let lo = 1u64 << 33;
    let set = PaneSet::with_pane_units(lo, lo + (1 << 34), 1 << 16);
    let t0 = clock::now();
    for _ in 0..OPS {
        std::hint::black_box(set.claim(1));
    }
    ns_per_op(clock::now() - t0, OPS)
}

/// `steal_half` from a full set, `deposit_if_empty` into an empty one
/// (which is then drained for the next round).
fn panes_steal_half() -> f64 {
    const ROUNDS: u64 = 200;
    const STEALS: u64 = 30;
    let mut ticks = 0;
    for _ in 0..ROUNDS {
        let rich = PaneSet::new(0, 1 << 40);
        let poor = PaneSet::empty();
        let t0 = clock::now();
        for _ in 0..STEALS {
            if let Some((lo, hi)) = rich.steal_half() {
                let landed = poor.deposit_if_empty(lo, hi);
                debug_assert!(landed);
                poor.drain_all_with(|_, _| {});
            }
        }
        ticks += clock::now() - t0;
    }
    ns_per_op(ticks, ROUNDS * STEALS)
}

/// `unpark(w)` → the sleeper returns from `park(w)`; median of a batch
/// of wakes, in microseconds.
fn parker_wake() -> f64 {
    const WAKES: usize = 24;
    let parker = Parker::new(&[0, 0]);
    let woke_at = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let settle = clock::ns_to_ticks(60_000);
    std::thread::scope(|s| {
        s.spawn(|| loop {
            if !parker.prepare_park(1) {
                continue;
            }
            if stop.load(Ordering::SeqCst) {
                parker.cancel_park(1);
                break;
            }
            parker.park(1);
            woke_at.store(clock::now(), Ordering::Release);
        });
        let mut wakes = Vec::with_capacity(WAKES);
        for _ in 0..WAKES {
            while parker.currently_parked() == 0 {
                std::hint::spin_loop();
            }
            // Announced is not yet asleep: give it time to block.
            spin_ticks(settle);
            woke_at.store(0, Ordering::Relaxed);
            let t0 = clock::now();
            parker.unpark(1);
            let t1 = loop {
                match woke_at.load(Ordering::Acquire) {
                    0 => std::hint::spin_loop(),
                    t => break t,
                }
            };
            wakes.push(ticks_to_us(t1.saturating_sub(t0)));
        }
        stop.store(true, Ordering::SeqCst);
        parker.unpark(1);
        crate::stats::median(&wakes)
    })
}

fn parker_notify_idle() -> f64 {
    let parker = Parker::new(&[0, 0]);
    let t0 = clock::now();
    for _ in 0..OPS {
        std::hint::black_box(parker.notify_any(0));
    }
    ns_per_op(clock::now() - t0, OPS)
}

fn eventring_emit() -> f64 {
    let ring = EventRing::new();
    let t0 = clock::now();
    for i in 0..OPS {
        ring.emit(i, 1, 2, 3, 4);
    }
    std::hint::black_box(ring.emitted());
    ns_per_op(clock::now() - t0, OPS)
}

fn region_empty(rt: &Runtime) -> f64 {
    const REGIONS: u64 = 20;
    let t0 = clock::now();
    for _ in 0..REGIONS {
        rt.parallel(|_| ());
    }
    ticks_to_us(clock::now() - t0) / REGIONS as f64
}

/// One worker spawning and running empty tasks: ns per task.
fn task_spawn_run(rt: &Runtime) -> f64 {
    const TASKS: u64 = 100_000;
    let t0 = clock::now();
    rt.parallel(|ctx| {
        ctx.scope(|s| {
            for _ in 0..TASKS {
                s.spawn(|_| {});
            }
        })
    });
    ns_per_op(clock::now() - t0, TASKS)
}

/// Thief deposits a request, victim validates it and bumps the round:
/// ns per round trip across two threads.
fn msg_roundtrip() -> f64 {
    const ROUNDS: u64 = 100_000;
    let cell = MsgCell::new();
    let start_line = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            start_line.wait();
            for _ in 0..ROUNDS {
                while !cell.try_send_request(1) {
                    std::hint::spin_loop();
                }
            }
        });
        start_line.wait();
        let t0 = clock::now();
        for _ in 0..ROUNDS {
            while cell.take_valid_request().is_none() {
                std::hint::spin_loop();
            }
            cell.bump_round();
        }
        ns_per_op(clock::now() - t0, ROUNDS)
    })
}

/// CPU the process's other threads burn while the server sits idle, in
/// ms per second.
fn idle_cpu_ms_per_s(window: Duration) -> f64 {
    let others = || procfs::live_threads_cpu_s() - procfs::thread_cpu_s();
    std::thread::sleep(Duration::from_millis(50)); // let the team park
    let (c0, t0) = (others(), Instant::now());
    std::thread::sleep(window);
    (others() - c0).max(0.0) * 1e3 / t0.elapsed().as_secs_f64()
}

/// A one-iteration loop through an idle server: the fixed cost of
/// `submit_for` → `join`, in microseconds.
fn empty_loop(server: &TaskServer, think_ticks: u64) -> f64 {
    const LOOPS: u64 = 16;
    let mut ticks = 0;
    for _ in 0..LOOPS {
        spin_ticks(think_ticks);
        let t0 = clock::now();
        let handle = server
            .submit_for(0..1u64, LoopSchedule::Static, |_, _| {})
            .unwrap_or_else(|e| panic!("submit_for refused: {e}"));
        handle.join().expect("empty loop");
        ticks += clock::now() - t0;
    }
    ticks_to_us(ticks) / LOOPS as f64
}

/// Runs every micro leg, sharing `budget` evenly, and books the results.
pub fn run_all(ledger: &mut Ledger, budget: Duration, sizing: &Sizing) {
    const LEGS: u32 = 15;
    let each = budget / LEGS;
    ledger.set("xqueue.bqueue.handoff_ns", leg(each, bqueue_handoff));
    ledger.set("xqueue.lattice.push_pop_ns", leg(each, lattice_push_pop));
    ledger.set("xqueue.lattice.cross_ns", leg(each, lattice_cross));
    ledger.set("xqueue.rangepool.claim_ns", leg(each, rangepool_claim));
    ledger.set(
        "xqueue.rangepool.claim_2t_ns",
        leg(each, rangepool_claim_2t),
    );
    ledger.set("xqueue.panes.claim_ns", leg(each, panes_claim));
    ledger.set("xqueue.panes.steal_half_ns", leg(each, panes_steal_half));
    ledger.set("xqueue.parker.wake_us", leg(each, parker_wake));
    ledger.set(
        "xqueue.parker.notify_idle_ns",
        leg(each, parker_notify_idle),
    );
    ledger.set("xqueue.eventring.emit_ns", leg(each, eventring_emit));
    ledger.set("core.dlb.msg_roundtrip_ns", leg(each, msg_roundtrip));

    let team = Runtime::new(runtime_config(sizing.team));
    ledger.set(
        "core.team.region_empty_us",
        leg(each, || region_empty(&team)),
    );
    let solo = Runtime::new(runtime_config(1));
    ledger.set(
        "core.task.spawn_run_ns",
        leg(each, || task_spawn_run(&solo)),
    );

    let server = TaskServer::start(server_config(sizing.workers));
    let idle_window = each.max(Duration::from_millis(sizing.pick(400, 100)));
    ledger.set_value(
        "service.server.idle_cpu_ms_per_s",
        idle_cpu_ms_per_s(idle_window),
    );
    let think = clock::ns_to_ticks(50_000);
    ledger.set(
        "core.loops.empty_loop_us",
        leg(each, || empty_loop(&server, think)),
    );
    server.shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_meter_sees_a_busy_thread() {
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
            let busy = idle_cpu_ms_per_s(Duration::from_millis(100));
            stop.store(true, Ordering::Relaxed);
            assert!(busy > 300.0, "a spinning thread read {busy} ms/s");
        });
    }
}
