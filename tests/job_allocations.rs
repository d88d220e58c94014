//! Heap allocations per served job, counted process-wide by the shared
//! counting allocator (`support`): a job's root task is allocated on the
//! worker, not on the submitting thread. So the file holds one `#[test]`,
//! and no other test's allocations land in the tally. The per-job figure
//! is a run of 2 000 joined jobs minus a run of 1 000 (after a warm-up),
//! on a one-worker server, which cancels every per-run allocation.
//!
//! A served job is one record (closure, handle state and result slot),
//! its cancellation token and its root task (`Malloc` policy): three
//! allocations. A deadline adds the deadline set's `BTreeMap` nodes,
//! amortized over the jobs.

use std::time::Duration;

use xgomp::{ServerConfig, SubmitOptions, TaskServer};

mod support;

/// Process-wide allocations while `n` jobs are submitted through `opts`
/// and joined, one at a time.
fn run_allocs(server: &TaskServer, opts: SubmitOptions, n: u64) -> u64 {
    let before = support::allocs().1;
    for i in 0..n {
        let h = server.with(opts).submit(move |_| i).unwrap();
        assert_eq!(h.join().unwrap(), i);
    }
    support::allocs().1 - before
}

/// Allocations per job submitted through `opts` to a one-worker server
/// with the default configuration.
fn per_job(opts: SubmitOptions) -> f64 {
    let server = TaskServer::start(ServerConfig::new(1));
    run_allocs(&server, opts, 1_000);
    let small = run_allocs(&server, opts, 1_000);
    let large = run_allocs(&server, opts, 2_000);
    server.shutdown();
    large.saturating_sub(small) as f64 / 1_000.0
}

#[test]
fn a_served_job_allocates_its_record_token_and_root_task() {
    let plain = per_job(SubmitOptions::new());
    eprintln!("{plain} allocations per job");
    assert!(plain <= 3.0, "{plain} allocations per job");
    let timed = per_job(SubmitOptions::new().deadline(Duration::from_secs(3_600)));
    eprintln!("{timed} allocations per job with a deadline");
    assert!(timed <= 3.3, "{timed} allocations per job with a deadline");
}
