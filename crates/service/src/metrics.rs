//! In-process metrics endpoint: a tiny blocking HTTP/1.1 responder on
//! `std::net::TcpListener` — no dependencies — serving the server's
//! Prometheus exposition on `GET /metrics` and a JSON liveness probe on
//! `GET /healthz`.
//!
//! Deliberately minimal: one accept thread, one short-lived thread per
//! connection with a bounded concurrent-connection cap (excess
//! connections get an inline `503`), one deadline for the whole request
//! head so a stalled or trickling client cannot pin a handler, and
//! `Connection: close` on every response.
//! Graceful teardown unblocks `accept` with a loopback self-connect and
//! waits (bounded) for in-flight handlers to finish.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Most connection handlers alive at once; beyond this the accept
/// thread answers `503` inline without spawning.
const MAX_CONNECTIONS: usize = 8;
/// Per-connection budget for reading the whole request head, and the
/// socket write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(2);
/// Largest request head (request line + headers) we accept.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// What the endpoint serves — closures so this module stays independent
/// of the server's internals.
pub(crate) struct MetricsHooks {
    /// Body of `GET /metrics` (full Prometheus exposition).
    pub render: Box<dyn Fn() -> String + Send + Sync>,
    /// Body of `GET /healthz` (JSON serve-state document).
    pub health: Box<dyn Fn() -> String + Send + Sync>,
}

/// A bound, running metrics listener.
pub(crate) struct MetricsListener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl MetricsListener {
    /// Binds `addr` (port `0` picks an ephemeral port — read the result
    /// back with [`local_addr`](Self::local_addr)) and starts the
    /// accept thread.
    pub fn bind(addr: &str, hooks: MetricsHooks) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let hooks = Arc::new(hooks);
        let accept_thread = {
            let stop = stop.clone();
            let active = active.clone();
            thread::Builder::new()
                .name("xgomp-metrics".into())
                .spawn(move || accept_loop(listener, stop, active, hooks))
                .expect("spawn metrics accept thread")
        };
        Ok(MetricsListener {
            addr: bound,
            stop,
            active,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address actually bound (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, unblocks the accept thread, joins it, and
    /// waits (bounded) for in-flight connection handlers to drain.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // `accept` has no timeout: a loopback self-connect is the
        // portable way to break it out.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let deadline = Instant::now() + IO_TIMEOUT;
        while self.active.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for MetricsListener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    hooks: Arc<MetricsHooks>,
) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        // Reserve a handler slot; shed inline when saturated so a slow
        // scraper pool cannot grow threads without bound.
        if active.fetch_add(1, Ordering::AcqRel) >= MAX_CONNECTIONS {
            active.fetch_sub(1, Ordering::AcqRel);
            let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
            let _ = respond(
                &mut stream,
                503,
                "Service Unavailable",
                "text/plain",
                "busy\n",
            );
            continue;
        }
        let slot = active.clone();
        let hooks = hooks.clone();
        let spawned = thread::Builder::new()
            .name("xgomp-metrics-conn".into())
            .spawn(move || {
                handle_connection(&mut stream, &hooks);
                slot.fetch_sub(1, Ordering::AcqRel);
            });
        if spawned.is_err() {
            active.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

fn handle_connection(stream: &mut TcpStream, hooks: &MetricsHooks) {
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let Some(head) = read_request_head(stream) else {
        return;
    };
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    // Route on the path alone, ignoring any query string.
    let path = path.split('?').next().unwrap_or("");
    let _ = match (method, path) {
        ("GET", "/metrics") => {
            let body = (hooks.render)();
            respond(
                stream,
                200,
                "OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            )
        }
        ("GET", "/healthz") => {
            let body = (hooks.health)();
            respond(stream, 200, "OK", "application/json", &body)
        }
        ("GET", _) => respond(stream, 404, "Not Found", "text/plain", "not found\n"),
        _ => respond(
            stream,
            405,
            "Method Not Allowed",
            "text/plain",
            "method not allowed\n",
        ),
    };
}

/// Reads until the end of the request head (`CRLFCRLF`), bounded by
/// [`MAX_REQUEST_BYTES`] and by one [`IO_TIMEOUT`] deadline for the whole
/// head: each read may wait only for the time left, so a client that
/// trickles a byte at a time still loses its handler when the deadline
/// passes. The body, if any, is ignored — both endpoints are bodiless
/// GETs.
fn read_request_head(stream: &mut TcpStream) -> Option<String> {
    let deadline = Instant::now() + IO_TIMEOUT;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        // A zero timeout is rejected, so a passed deadline ends the read.
        let left = deadline.saturating_duration_since(Instant::now());
        stream.set_read_timeout(Some(left)).ok()?;
        let n = stream.read(&mut chunk).ok().filter(|&n| n > 0)?;
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") {
            return Some(String::from_utf8_lossy(&buf).into_owned());
        }
        if buf.len() > MAX_REQUEST_BYTES {
            return None;
        }
    }
}

fn respond(
    stream: &mut TcpStream,
    code: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
