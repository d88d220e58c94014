//! Safe owned-handle wrapper over [`BQueue`].
//!
//! [`channel`] splits one B-queue into a [`Sender`] and a [`Receiver`]
//! whose ownership *is* the SPSC role contract: each handle is `Send` but
//! not `Clone`, so at most one thread can produce and one consume. Values
//! are boxed on send and unboxed on receive; values still in flight when
//! both handles are gone are dropped with the channel.
//!
//! The runtime does not use this wrapper (it manages task pointers
//! directly), but it is the recommended entry point for standalone users
//! and it is what the property tests drive.

use std::ptr::NonNull;
use std::sync::Arc;

use crate::bqueue::BQueue;

/// Creates a bounded lock-less SPSC channel with `capacity` slots.
///
/// ```
/// let (tx, rx) = xgomp_xqueue::spsc::channel::<u32>(8);
/// tx.send(1).unwrap();
/// tx.send(2).unwrap();
/// assert_eq!(rx.recv(), Some(1));
/// assert_eq!(rx.recv(), Some(2));
/// assert_eq!(rx.recv(), None);
/// ```
pub fn channel<T: Send>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let q = Arc::new(Chan(BQueue::with_capacity(capacity)));
    (Sender { q: q.clone() }, Receiver { q })
}

/// The queue both handles share. Every pointer in it is a `Box` leaked by
/// [`Sender::send`].
struct Chan<T: Send>(BQueue<T>);

impl<T: Send> Drop for Chan<T> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` means the last `Arc` owner is dropping the
        // channel, so no handle is left: this is the sole consumer, and
        // the count's release/acquire makes every send visible here.
        while let Some(p) = unsafe { self.0.dequeue() } {
            // SAFETY: every queued pointer came from `Box::into_raw` in `send`.
            drop(unsafe { Box::from_raw(p.as_ptr()) });
        }
    }
}

/// Producing half of an SPSC channel. Not cloneable: the unique owner is
/// the unique producer.
pub struct Sender<T: Send> {
    q: Arc<Chan<T>>,
}

/// Consuming half of an SPSC channel. Not cloneable: the unique owner is
/// the unique consumer.
pub struct Receiver<T: Send> {
    q: Arc<Chan<T>>,
}

impl<T: Send> Sender<T> {
    /// Sends `value`, returning it back if the channel is full.
    pub fn send(&self, value: T) -> Result<(), T> {
        let ptr = NonNull::new(Box::into_raw(Box::new(value))).expect("Box is never null");
        // SAFETY: `Sender` is unique and not Clone, so this thread is the
        // only producer for the lifetime of the call.
        match unsafe { self.q.0.enqueue(ptr) } {
            Ok(()) => Ok(()),
            // SAFETY: the rejected pointer is the Box we just leaked.
            Err(p) => Err(*unsafe { Box::from_raw(p.as_ptr()) }),
        }
    }

    /// Whether the next [`send`](Self::send) would fail.
    pub fn is_full(&self) -> bool {
        // SAFETY: unique producer, see `send`.
        unsafe { self.q.0.is_full_hint() }
    }
}

impl<T: Send> Receiver<T> {
    /// Receives the oldest value, or `None` if the channel appears empty.
    pub fn recv(&self) -> Option<T> {
        // SAFETY: `Receiver` is unique and not Clone, so this thread is
        // the only consumer for the lifetime of the call.
        let p = unsafe { self.q.0.dequeue() }?;
        // SAFETY: every queued pointer came from `Box::into_raw` in `send`.
        Some(*unsafe { Box::from_raw(p.as_ptr()) })
    }

    /// Whether the channel appears empty (may be stale — a concurrent
    /// sender can publish right after this returns `true`).
    pub fn is_empty(&self) -> bool {
        // SAFETY: unique consumer, see `recv`.
        unsafe { self.q.0.is_empty_hint() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_overflow() {
        let (tx, rx) = channel::<String>(4);
        for i in 0..4 {
            tx.send(format!("v{i}")).unwrap();
        }
        assert!(tx.is_full());
        assert_eq!(tx.send("spill".into()), Err("spill".to_string()));
        assert_eq!(rx.recv().as_deref(), Some("v0"));
        tx.send("v4".into()).unwrap();
        let rest: Vec<String> = std::iter::from_fn(|| rx.recv()).collect();
        assert_eq!(rest, vec!["v1", "v2", "v3", "v4"]);
        assert!(rx.is_empty());
    }

    #[test]
    fn drop_receiver_drops_in_flight_values() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (tx, rx) = channel::<D>(8);
        for _ in 0..5 {
            tx.send(D).unwrap();
        }
        drop(rx);
        // A value sent after the receiver is gone is freed too.
        tx.send(D).unwrap();
        drop(tx);
        assert_eq!(DROPS.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn threaded_pipeline() {
        let (tx, rx) = channel::<u64>(32);
        let producer = std::thread::spawn(move || {
            for i in 0..50_000u64 {
                let mut v = i;
                loop {
                    match tx.send(v) {
                        Ok(()) => break,
                        Err(back) => {
                            v = back;
                            std::thread::yield_now();
                        }
                    }
                }
            }
        });
        let mut expect = 0u64;
        while expect < 50_000 {
            if let Some(v) = rx.recv() {
                assert_eq!(v, expect);
                expect += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
    }
}
