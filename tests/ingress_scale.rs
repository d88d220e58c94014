//! Ingress at scale: 64 submitter threads through registered lanes.
//!
//! Every submitter registers a pinned SPSC lane
//! (`TaskServer::register_submitter`), so the submission tier runs with
//! **zero** producer-claim traffic: the test asserts per-lane
//! conservation (every lane drains exactly what its one submitter
//! pushed) and that the anonymous claim path recorded no cross-lane
//! contention at all — the property the registered-lane API exists for,
//! and one a thread-hash lane choice cannot give (two hashed submitters
//! sharing a lane serialize on its claim word).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use xgomp::service::{ServerConfig, TaskServer};
use xgomp::{DlbConfig, DlbStrategy, MachineTopology, RuntimeConfig};

const SUBMITTERS: usize = 64;
const ZONES: usize = 4;
const JOBS_PER: u64 = 250;

#[test]
fn sixty_four_registered_submitters_conserve_per_lane() {
    // Four NUMA zones of two workers each → four ingress shards. Each
    // shard needs 64/4 = 16 reservable lanes plus the always-anonymous
    // lane 0.
    let runtime = RuntimeConfig::xgomptb(8)
        .topology(MachineTopology::new(ZONES, 2, 1))
        .dlb(DlbConfig::new(DlbStrategy::WorkSteal).t_interval(256));
    let server = Arc::new(TaskServer::start(
        ServerConfig::new(8)
            .runtime(runtime)
            .lanes_per_shard(SUBMITTERS / ZONES + 1)
            .lane_capacity(64)
            .max_in_flight(100_000), // clamped to real ring capacity
    ));
    assert_eq!(server.stats().shards, ZONES);

    // Register every lane up front and keep the handles alive for the
    // whole run — a dropped handle releases its lane for re-reservation,
    // which would let two submitters share one lane across time and
    // spoil the per-lane accounting below.
    let subs: Vec<_> = (0..SUBMITTERS)
        .map(|t| {
            let sub = server.register_submitter(t % ZONES);
            assert!(sub.lane().is_some(), "submitter {t} must get a pinned lane");
            sub
        })
        .collect();
    let mut used_lanes: Vec<(usize, usize)> = subs
        .iter()
        .map(|s| (s.shard(), s.lane().unwrap()))
        .collect();
    used_lanes.sort_unstable();
    used_lanes.dedup();
    assert_eq!(
        used_lanes.len(),
        SUBMITTERS,
        "every submitter owned its own lane"
    );

    let sum = Arc::new(AtomicU64::new(0));
    let threads: Vec<_> = subs
        .into_iter()
        .enumerate()
        .map(|(t, mut sub)| {
            let sum = sum.clone();
            let t = t as u64;
            std::thread::spawn(move || {
                let handles: Vec<_> = (0..JOBS_PER)
                    .map(|i| sub.submit(move |_| t * 1_000 + i).unwrap())
                    .collect();
                let mut local = 0u64;
                for h in handles {
                    local += h.join().unwrap();
                }
                sum.fetch_add(local, Ordering::Relaxed);
                sub // keep the lane reserved until the main thread says so
            })
        })
        .collect();

    let subs: Vec<_> = threads.into_iter().map(|th| th.join().unwrap()).collect();

    let expected: u64 = (0..SUBMITTERS as u64)
        .map(|t| (0..JOBS_PER).map(|i| t * 1_000 + i).sum::<u64>())
        .sum();
    assert_eq!(sum.load(Ordering::Relaxed), expected, "results corrupted");

    // Conservation and contention accounting. All jobs are joined, so
    // every push has been drained — lane by lane.
    let ingress = server.ingress();
    let mut total_pushed = 0u64;
    for shard_idx in 0..ingress.n_shards() {
        let shard = ingress.shard(shard_idx);
        for (lane_idx, (pushed, drained)) in shard.lane_counters().into_iter().enumerate() {
            assert_eq!(
                pushed, drained,
                "shard {shard_idx} lane {lane_idx} lost jobs in flight"
            );
            if lane_idx == 0 {
                assert_eq!(pushed, 0, "anonymous lane 0 must stay untouched");
            } else {
                assert_eq!(
                    pushed, JOBS_PER,
                    "shard {shard_idx} lane {lane_idx}: pinning leaked across lanes"
                );
            }
            total_pushed += pushed;
        }
    }
    assert_eq!(total_pushed, SUBMITTERS as u64 * JOBS_PER);
    assert_eq!(
        ingress.claim_conflicts(),
        0,
        "registered lanes must never touch a producer claim"
    );

    drop(subs);
    let server = Arc::into_inner(server).expect("all submitters done");
    let report = server.shutdown();
    assert_eq!(report.stats.completed, SUBMITTERS as u64 * JOBS_PER);
    report
        .region
        .expect("clean serve")
        .stats
        .check_invariants()
        .unwrap();
}
