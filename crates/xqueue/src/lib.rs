//! # xgomp-xqueue
//!
//! The lock-less queuing substrate of the XGOMP runtime, reproducing the
//! data structures of *"Optimizing Fine-Grained Parallelism Through Dynamic
//! Load Balancing on Multi-Socket Many-Core Systems"* (IPPS 2025) and its
//! prior work (XQueue, MASCOTS 2021; B-queue, Fang et al.).
//!
//! Two layers are provided:
//!
//! * [`BQueue`] — a bounded single-producer/single-consumer ring buffer that
//!   synchronizes exclusively through the *contents* of its slots (a null
//!   pointer means "empty slot"). Producer and consumer each keep private
//!   cursors and only probe a shared slot once per *batch*, which is what
//!   makes core-to-core hand-off cost ~tens of cycles instead of a cache
//!   ping-pong per element.
//! * [`XQueueLattice`] — the XQueue structure: for a team of `n` workers,
//!   an `n × n` matrix of B-queues. Worker `w`'s *master* queue is
//!   `(producer = w, consumer = w)`; the remaining `n - 1` queues in
//!   column `w` are its *auxiliary* queues, each written by exactly one
//!   other worker. Every queue therefore stays strictly SPSC while the
//!   aggregate behaves as a relaxed-order MPMC queue.
//!
//! ## Lock-less, in the paper's sense
//!
//! The paper distinguishes *lock-free* code (atomic read-modify-write
//! primitives such as compare-and-swap) from *lock-less* code (plain loads
//! and stores only, made safe by single-writer disciplines). The queuing
//! layers of this crate ([`BQueue`], [`XQueueLattice`], [`spsc`]) are
//! lock-less: their only atomic operations are `load(Acquire)` and
//! `store(Release)`, which compile to ordinary `MOV`s on x86-64 — no
//! atomic RMW instruction anywhere on a queue operation.
//!
//! Two modules are deliberate exceptions. [`rangepool`] — the
//! iteration-space substrate of `parallel_for` — uses CAS, but only once
//! per *chunk* of iterations, never per iteration, so the amortized cost
//! vanishes into the loop body. The other is the [`parker`] module: the
//! kernel-assisted *idle* tier. Spinning is the right trade while work is
//! in flight, but a persistent server must not burn a core per worker
//! while empty, so exhausted-backoff workers park on an OS primitive and
//! are woken through per-worker parking words (which do use CAS — they
//! exist precisely to leave the lock-less fast path). The fast path pays
//! one fence plus one relaxed load per push while nobody is parked.
//!
//! The [`eventring`] flight recorder keeps the discipline on its hot
//! side: an emit is relaxed slot stores plus one Release index publish,
//! no RMW anywhere on the writer path; only the *reader's* drop
//! accounting uses a `fetch_add`, off the measured path by definition.
//! [`Cells`] is the same discipline for any per-worker block: one padded
//! slot per worker seat, claimed by its one writer, updated with
//! [`bump`] (load + store) and summed on read.
//!
//! ## Safety model
//!
//! Rust forbids the C trick of racing on `volatile` cells, so the slot
//! array is `AtomicPtr` and the SPSC contract is expressed as `unsafe`
//! role methods: [`BQueue::enqueue`]/[`BQueue::dequeue`] require that at
//! most one thread acts as producer and one as consumer at any time. The
//! safe [`spsc::channel`] wrapper enforces the discipline with owned
//! handles; the runtime's scheduler enforces it structurally (worker `p`
//! only ever produces into row `p` of the lattice).

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]
#![deny(unsafe_op_in_unsafe_fn)]

mod backoff;
mod bqueue;
pub mod cells;
pub mod eventring;
mod lattice;
pub mod panes;
pub mod parker;
pub mod rangepool;
pub mod spsc;

pub use backoff::Backoff;
pub use bqueue::{BQueue, DEFAULT_CAPACITY};
pub use cells::{bump, CachePadded, Cells, Claim};
pub use eventring::{EventRing, RawEvent, RingCursor, DEFAULT_EVENT_CAPACITY};
pub use lattice::{PushCursor, XQueueLattice};
pub use panes::{PaneSet, DEFAULT_PANE_UNITS, MAX_SHARE_UNITS};
pub use parker::{IdleGate, Parker, ParkerCell};
pub use rangepool::{IterRange, RangePool};
