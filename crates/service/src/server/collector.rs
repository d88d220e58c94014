//! The streaming trace collector: one thread tailing every worker's
//! event ring into the rolling on-disk stream, with a flush barrier for
//! `pause` and one final exact drain at shutdown.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use super::ServerShared;
use crate::{locked, wait_timeout};
use xgomp_core::TraceStream;

/// Control word shared with the collector thread: stop flag plus a
/// flush barrier (`pause` requests a flush and waits for its ack).
struct CollectorCtl {
    inner: Mutex<CollectorState>,
    cv: Condvar,
}

#[derive(Default)]
struct CollectorState {
    stop: bool,
    /// Flush barrier tickets issued; the collector acknowledges by
    /// advancing `flushes_done` after a drain + file flush.
    flush_requests: u64,
    flushes_done: u64,
}

/// Handle of the running collector thread (owned by the `TaskServer`).
pub(super) struct TraceCollector {
    ctl: Arc<CollectorCtl>,
    thread: std::thread::JoinHandle<()>,
}

impl TraceCollector {
    pub(super) fn spawn(
        shared: Arc<ServerShared>,
        stream: TraceStream,
        interval: Duration,
    ) -> Self {
        let ctl = Arc::new(CollectorCtl {
            inner: Mutex::new(CollectorState::default()),
            cv: Condvar::new(),
        });
        let thread = {
            let ctl = ctl.clone();
            std::thread::Builder::new()
                .name("xgomp-trace-collector".into())
                .spawn(move || collector_loop(shared, stream, interval, ctl))
                .expect("spawn trace collector")
        };
        TraceCollector { ctl, thread }
    }

    /// Flush barrier: every record emitted before this call is drained
    /// to disk and flushed when it returns (bounded wait).
    pub(super) fn flush_barrier(&self, timeout: Duration) {
        let mut g = locked(&self.ctl.inner);
        g.flush_requests += 1;
        let ticket = g.flush_requests;
        self.ctl.cv.notify_all();
        let deadline = Instant::now() + timeout;
        while g.flushes_done < ticket && !g.stop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            g = wait_timeout(&self.ctl.cv, g, deadline - now);
        }
    }

    /// Stops the collector and joins it; the thread runs one final
    /// exact drain ([`TraceStream::finish`]) on the way out.
    pub(super) fn stop(self) {
        locked(&self.ctl.inner).stop = true;
        self.ctl.cv.notify_all();
        let _ = self.thread.join();
    }
}

/// The collector thread: tail every ring on the cadence, acknowledge
/// flush barriers, and finish with one last exact drain + summary when
/// stopped.
fn collector_loop(
    shared: Arc<ServerShared>,
    mut stream: TraceStream,
    interval: Duration,
    ctl: Arc<CollectorCtl>,
) {
    let mut acked_flush = 0u64;
    let mut reported_io_error = false;
    loop {
        let (stop, flush_target) = {
            let g = locked(&ctl.inner);
            (g.stop, g.flush_requests)
        };
        if stop {
            break;
        }
        // Drain first, flush second: a barrier requested before this
        // read covers every record emitted before the request.
        if let Err(e) = stream.drain_cycle(&shared.tracer) {
            if !reported_io_error {
                reported_io_error = true;
                eprintln!("xgomp-service: trace stream write failed: {e}");
            }
        }
        *locked(&shared.obs.stream) = stream.stats();
        if flush_target > acked_flush {
            let _ = stream.flush();
            acked_flush = flush_target;
            locked(&ctl.inner).flushes_done = acked_flush;
            ctl.cv.notify_all();
        }
        let g = locked(&ctl.inner);
        if g.stop || g.flush_requests > acked_flush {
            continue;
        }
        drop(wait_timeout(&ctl.cv, g, interval));
    }
    match stream.finish(&shared.tracer) {
        Ok(stats) => *locked(&shared.obs.stream) = stats,
        Err(e) => {
            if !reported_io_error {
                eprintln!("xgomp-service: trace stream finish failed: {e}");
            }
        }
    }
    // Wake anyone still blocked on a flush barrier: the finish drain
    // above subsumes every outstanding ticket.
    let mut g = locked(&ctl.inner);
    g.flushes_done = g.flush_requests;
    ctl.cv.notify_all();
}
