//! `Schedule::Auto`: the online per-loop-site selector behind
//! [`LoopSchedule::Auto`] and the portfolio it chooses from.
//!
//! [`AutoSelector`] is the server-owned per-loop-site selector: keyed by
//! a caller-supplied [`LoopId`] (or the space's shape when none is
//! given), it trials the portfolio across repeated loop instances,
//! scores each member by measured makespan over a fixed trial window,
//! and converges on the fastest once two consecutive sweep windows agree
//! (two-window hysteresis). A converged site re-explores when the DLB
//! tuning swap epoch moves (`watch_swaps`: an operator's `swap_tuning`)
//! or when its makespan drifts to ≥2× the converged baseline for several
//! consecutive runs (distribution shift).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use xgomp_profiling::LOOP_SCHEDULES;

use super::{IterSpace, LoopSchedule};
use crate::util::locked;

/// Caller-supplied identity of one *loop site* — the "same loop, seen
/// again and again" key [`LoopSchedule::Auto`] selection state hangs
/// off. Use one id per static loop in your program (a hash of its name,
/// a line number, an enum — anything stable across instances).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LoopId(pub u64);

/// What `Auto` resolves to when no selector is attached to the team
/// (plain [`Runtime`](crate::Runtime) regions outside a task server).
pub const AUTO_FALLBACK: LoopSchedule = LoopSchedule::Guided(8);

/// Portfolio members the auto selector trials, in sweep order.
pub const AUTO_PORTFOLIO_LEN: usize = 7;

/// Loop instances per member per sweep window (the trial window).
pub const AUTO_TRIALS_PER_MEMBER: u32 = 2;

/// Consecutive sweep windows that must agree on a winner before the
/// site converges (two-window hysteresis).
pub const AUTO_CONFIRM_WINDOWS: u32 = 2;

/// Consecutive converged runs at ≥2× the converged baseline makespan
/// that re-open exploration (distribution shift).
const AUTO_DRIFT_RUNS: u32 = 3;

/// The `i`-th portfolio member for a loop of `units` scheduling units on
/// `workers` workers (TSS derives its trapezoid from the shape).
pub fn auto_portfolio_member(i: usize, units: u64, workers: u32) -> LoopSchedule {
    let p = u64::from(workers.max(1));
    match i {
        0 => LoopSchedule::Dynamic(64),
        1 => LoopSchedule::Guided(8),
        2 => LoopSchedule::Adaptive,
        3 => LoopSchedule::Tss {
            first: (units / (2 * p)).clamp(1, u64::from(u32::MAX)) as u32,
            last: 1,
        },
        4 => LoopSchedule::Factoring,
        5 => LoopSchedule::WeightedFactoring,
        _ => LoopSchedule::Awf,
    }
}

/// splitmix64 — the test suites' standard mixer, reused here so site
/// keys derived from space shapes are well distributed.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The implicit site key of a space: its shape, hashed. Two loops over
/// the same shape share selection state unless they pass an explicit
/// [`LoopId`].
pub(crate) fn space_site_key(space: &IterSpace) -> u64 {
    match *space {
        IterSpace::Range1D { start, len } => mix(1).wrapping_add(mix(start) ^ mix(len)),
        IterSpace::Rect2D {
            rows,
            cols,
            tile_rows,
            tile_cols,
        } => mix(2)
            .wrapping_add(mix(rows) ^ mix(cols))
            .wrapping_add(mix(u64::from(tile_rows) << 32 | u64::from(tile_cols))),
        IterSpace::Triangular { n, tile } => mix(3).wrapping_add(mix(n) ^ mix(u64::from(tile))),
    }
}

/// One pick handed out by [`AutoSelector::pick`]: the concrete schedule
/// to run plus the attribution token the caller hands back to
/// [`AutoSelector::report`] with the measured makespan.
#[derive(Debug, Clone, Copy)]
pub struct AutoPick {
    /// The concrete portfolio member to run the loop under.
    pub schedule: LoopSchedule,
    /// Attribution token (portfolio member index).
    token: u32,
}

/// Selection phase of one loop site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Sweeping the portfolio, currently trialing `member`.
    Explore { member: usize },
    /// Converged on `member`; every pick returns it.
    Converged { member: usize },
}

/// Per-site selection state.
#[derive(Debug)]
struct SiteState {
    phase: Phase,
    /// Makespan-tick sums and run counts of the current sweep window.
    score: [u64; AUTO_PORTFOLIO_LEN],
    runs: [u32; AUTO_PORTFOLIO_LEN],
    /// Winner of the previous completed sweep + agreement streak.
    prev_winner: Option<usize>,
    agree: u32,
    /// Completed sweep windows (monotone; test observability).
    sweeps: u32,
    /// Converged-state EWMA baseline makespan and drift streak.
    baseline: u64,
    slow_runs: u32,
}

impl SiteState {
    fn fresh() -> Self {
        SiteState {
            phase: Phase::Explore { member: 0 },
            score: [0; AUTO_PORTFOLIO_LEN],
            runs: [0; AUTO_PORTFOLIO_LEN],
            prev_winner: None,
            agree: 0,
            sweeps: 0,
            baseline: 0,
            slow_runs: 0,
        }
    }

    /// Re-opens exploration (epoch change / drift), keeping only the
    /// monotone sweep counter.
    fn reexplore(&mut self) {
        let sweeps = self.sweeps;
        *self = SiteState::fresh();
        self.sweeps = sweeps;
    }
}

/// Point-in-time view of one site's selection state (test/debug
/// observability; see [`AutoSelector::site_status`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoSiteStatus {
    /// The converged member's portfolio index, `None` while exploring.
    pub converged: Option<usize>,
    /// Completed sweep windows (monotone — grows again after a
    /// re-exploration).
    pub sweeps: u32,
    /// Makespan reports folded in so far, current window only.
    pub window_runs: u32,
}

/// The server-owned online schedule selector behind
/// [`LoopSchedule::Auto`]: keyed by a [`LoopId`] or the space's shape, it
/// trials the portfolio, scores by makespan and converges with
/// two-window hysteresis. One instance rides across generations;
/// `parallel_for` consults it through the team when a loop is submitted
/// as `Auto`.
#[derive(Debug, Default)]
pub struct AutoSelector {
    sites: Mutex<HashMap<u64, SiteState>>,
    /// External tuning-swap epoch (the server's `swap_epoch`); a change
    /// re-opens exploration at every site.
    swap_epoch: Mutex<Option<Arc<AtomicU64>>>,
    epoch_seen: AtomicU64,
    /// Selections handed out, by concrete schedule family index
    /// (`xgomp_loop_auto_selected_total{schedule=...}`).
    selected: [AtomicU64; LOOP_SCHEDULES],
}

impl AutoSelector {
    /// A selector with no sites and no swap watch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the external tuning-swap epoch: every bump re-opens
    /// exploration at every site (the converged answer was measured
    /// under the old tuning).
    pub fn watch_swaps(&self, epoch: Arc<AtomicU64>) {
        *locked(&self.swap_epoch) = Some(epoch);
    }

    fn current_epoch(&self) -> u64 {
        locked(&self.swap_epoch)
            .as_ref()
            .map_or(0, |e| e.load(Ordering::Acquire))
    }

    /// Picks the schedule for the next instance of site `key` — a loop
    /// of `units` scheduling units on `workers` workers. Hand the
    /// returned pick's makespan back via [`report`](Self::report).
    pub fn pick(&self, key: u64, units: u64, workers: u32) -> AutoPick {
        let epoch = self.current_epoch();
        let mut sites = locked(&self.sites);
        if self.epoch_seen.swap(epoch, Ordering::AcqRel) != epoch {
            // Tuning swapped: every converged answer is stale.
            for s in sites.values_mut() {
                s.reexplore();
            }
        }
        let st = sites.entry(key).or_insert_with(SiteState::fresh);
        let (Phase::Explore { member } | Phase::Converged { member }) = st.phase;
        let schedule = auto_portfolio_member(member, units, workers);
        self.selected[schedule.index().min(LOOP_SCHEDULES - 1)].fetch_add(1, Ordering::Relaxed);
        AutoPick {
            schedule,
            token: member as u32,
        }
    }

    /// Folds one completed instance's measured makespan (ticks) back
    /// into site `key`. `pick` is the value [`pick`](Self::pick)
    /// returned for that instance (attribution survives concurrent
    /// in-flight instances: a report whose member no longer matches the
    /// site's current focus is dropped rather than mis-scored).
    pub fn report(&self, key: u64, pick: AutoPick, makespan_ticks: u64) {
        let m = pick.token as usize;
        let mut sites = locked(&self.sites);
        let Some(st) = sites.get_mut(&key) else {
            return;
        };
        match st.phase {
            Phase::Explore { member } if member == m => {
                st.score[m] = st.score[m].saturating_add(makespan_ticks.max(1));
                st.runs[m] += 1;
                if st.runs[m] < AUTO_TRIALS_PER_MEMBER {
                    return;
                }
                if m + 1 < AUTO_PORTFOLIO_LEN {
                    st.phase = Phase::Explore { member: m + 1 };
                    return;
                }
                // Sweep complete: score by mean makespan, lowest wins.
                st.sweeps += 1;
                let winner = (0..AUTO_PORTFOLIO_LEN)
                    .min_by_key(|&i| st.score[i] / u64::from(st.runs[i].max(1)))
                    .unwrap_or(0);
                let mean = st.score[winner] / u64::from(st.runs[winner].max(1));
                if st.prev_winner == Some(winner) {
                    st.agree += 1;
                } else {
                    st.agree = 1;
                }
                st.prev_winner = Some(winner);
                if st.agree >= AUTO_CONFIRM_WINDOWS {
                    st.phase = Phase::Converged { member: winner };
                    st.baseline = mean.max(1);
                    st.slow_runs = 0;
                } else {
                    st.phase = Phase::Explore { member: 0 };
                    st.score = [0; AUTO_PORTFOLIO_LEN];
                    st.runs = [0; AUTO_PORTFOLIO_LEN];
                }
            }
            Phase::Converged { member } if member == m => {
                // Drift watch: sustained ≥2× the converged baseline
                // re-opens exploration; in-band runs keep the EWMA warm.
                if makespan_ticks > st.baseline.saturating_mul(2) {
                    st.slow_runs += 1;
                    if st.slow_runs >= AUTO_DRIFT_RUNS {
                        st.reexplore();
                    }
                } else {
                    st.slow_runs = 0;
                    st.baseline = (3 * st.baseline + makespan_ticks.max(1)) / 4;
                }
            }
            // Stale attribution (site moved on mid-flight): drop.
            _ => {}
        }
    }

    /// Selections handed out so far, by concrete schedule family index
    /// ([`xgomp_profiling::LOOP_SCHEDULE_NAMES`] order; the `auto` slot
    /// itself is always zero — picks are always concrete).
    pub fn selected_counts(&self) -> [u64; LOOP_SCHEDULES] {
        std::array::from_fn(|i| self.selected[i].load(Ordering::Relaxed))
    }

    /// Site `key`'s current selection state, `None` if never picked.
    pub fn site_status(&self, key: u64) -> Option<AutoSiteStatus> {
        let sites = locked(&self.sites);
        sites.get(&key).map(|st| AutoSiteStatus {
            converged: match st.phase {
                Phase::Converged { member } => Some(member),
                Phase::Explore { .. } => None,
            },
            sweeps: st.sweeps,
            window_runs: st.runs.iter().sum(),
        })
    }
}
