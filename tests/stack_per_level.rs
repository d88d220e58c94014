//! Release stack per nesting level, the stack row of the cost table.
//!
//! A waiting task runs other tasks on its own stack (the help-first
//! `taskwait`, the overflow rule's immediate execution), so every frame
//! between one task body and the next one nested in it is paid once per
//! nesting level, and nesting runs thousands of levels deep. How large
//! those frames are follows inlining more than code size, so two probes
//! pin the bytes per level of a release build on a one-worker team, as
//! the distance between a local of consecutive levels:
//!
//! * the **scope chain** — `body → scope → taskwait → execute → body`:
//!   each level spawns one child and waits for it;
//! * the **overflow chain** — capacity-2 queues, each level spawns two
//!   no-ops and then its child, so from the second level on every spawn
//!   finds its target full and runs undeferred:
//!   `body → spawn → execute → body`.
//!
//! Debug builds inline nothing and are not pinned.

#![cfg(not(debug_assertions))]

use xgomp::{Runtime, RuntimeConfig, TaskCtx};

/// Nesting levels per probe.
const LEVELS: usize = 200;

/// Bytes per level recorded for the scope chain (x86-64, rustc 1.95).
const SCOPE_CHAIN_BYTES: usize = 256;

/// Bytes per level recorded for the overflow chain (x86-64, rustc 1.95):
/// the undeferred task's 72-byte record lives in one of these frames.
const OVERFLOW_CHAIN_BYTES: usize = 304;

/// The address of a local on the calling level's frame.
#[inline(always)]
fn here() -> usize {
    let marker = 0u8;
    std::hint::black_box(&marker) as *const u8 as usize
}

/// One level of the scope chain: returns the address of its own frame
/// and of the deepest level's.
fn scope_level(ctx: &TaskCtx<'_>, depth: usize) -> (usize, usize) {
    let me = here();
    let mut deepest = me;
    if depth > 0 {
        ctx.scope(|s| s.spawn(|c| deepest = scope_level(c, depth - 1).1));
    }
    (me, deepest)
}

/// One level of the overflow chain, measured like [`scope_level`].
fn overflow_level(ctx: &TaskCtx<'_>, depth: usize) -> (usize, usize) {
    let me = here();
    let mut deepest = me;
    if depth > 0 {
        ctx.scope(|s| {
            s.spawn(|_| {});
            s.spawn(|_| {});
            s.spawn(|c| deepest = overflow_level(c, depth - 1).1);
        });
    }
    (me, deepest)
}

/// Bytes per level of a `LEVELS`-deep chain of `level` on `cfg`. The
/// chain starts in a child of the implicit task, so every level is an
/// explicit task's.
fn bytes_per_level(cfg: RuntimeConfig, level: fn(&TaskCtx<'_>, usize) -> (usize, usize)) -> usize {
    let out = Runtime::new(cfg).parallel(|ctx| {
        let mut ends = (0, 0);
        ctx.scope(|s| s.spawn(|c| ends = level(c, LEVELS)));
        ends
    });
    let (top, bottom) = out.result;
    assert!(top > bottom, "the stack grows down");
    let per_level = (top - bottom) / LEVELS;
    eprintln!("{per_level} B per level");
    per_level
}

#[test]
fn scope_chain_stays_within_its_bytes_per_level() {
    let bytes = bytes_per_level(RuntimeConfig::xgomptb(1), scope_level);
    assert!(
        bytes <= SCOPE_CHAIN_BYTES,
        "scope chain: {bytes} B per level, recorded {SCOPE_CHAIN_BYTES} B"
    );
}

#[test]
fn overflow_chain_stays_within_its_bytes_per_level() {
    let cfg = RuntimeConfig::xgomptb(1).queue_capacity(2);
    let bytes = bytes_per_level(cfg, overflow_level);
    assert!(
        bytes <= OVERFLOW_CHAIN_BYTES,
        "overflow chain: {bytes} B per level, recorded {OVERFLOW_CHAIN_BYTES} B"
    );
}
