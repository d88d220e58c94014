//! Online Table-IV adaptation: turn live task-size measurements into
//! hot DLB re-tunes.
//!
//! The paper's §VIII guidelines pick a `DlbConfig` from the measured
//! per-task cycle count — but offline, once per run. LB4OMP's lesson is
//! that the right parameters are a property of the *current* workload,
//! so the controller re-evaluates the guidelines over a sliding window
//! of completed tasks and hot-swaps the team's [`DlbTuning`] cell
//! whenever the recommendation changes. Workers observe the new knobs at
//! their next scheduling point; nothing stops or restarts.
//!
//! ## Classification: modal decade, not window mean
//!
//! The window is classified by its **modal decade** — the decade bucket
//! of the window histogram holding the most tasks, with a percentile
//! (median) tie-break, positioned within the decade by the window mean
//! (see `TaskSizeHistogram::modal_cycles`). A plain window *mean* is
//! dragged across Table-IV class boundaries by minority outliers: a
//! window of mostly 50-cycle tasks with a few million-cycle stragglers
//! has a mean in the "coarse" class and would tune NA-RP against a
//! workload that is overwhelmingly fine-grained. The modal decade tunes
//! for what *most* tasks look like, which is what the paper's "highest
//! proportion around 10^k cycles" characterization keys on.
//!
//! ## Hysteresis
//!
//! A workload whose mean task size straddles a Table-IV class boundary
//! would flap between configurations window after window — each retune
//! churns redirect state and steal quotas for no benefit. The
//! controller therefore applies a confirmation band: a *changed*
//! recommendation is only published after
//! [`confirm_windows`](AdaptiveController::confirm_windows) consecutive
//! windows (default 2) recommend the same configuration. A window that
//! agrees with the active configuration clears any pending candidate.
//!
//! ## External swaps
//!
//! The tuning cell is shared: `TaskServer::swap_tuning` (and a config
//! swap at a generation boundary) can replace the active `DlbConfig`
//! out from under the controller mid-window. Without care, a candidate
//! that was one window short of confirmation *before* the swap would
//! publish one window *after* it — overriding the operator's explicit
//! choice with a recommendation computed against the previous
//! configuration. The controller therefore watches an external-swap
//! epoch ([`watch_swaps`](AdaptiveController::watch_swaps)): on any
//! epoch change it drops the pending candidate *and* re-baselines its
//! window snapshot, so hysteresis restarts cleanly from the swap and
//! only post-swap windows can argue against the new configuration.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use xgomp_core::guidelines::recommend_dlb;
use xgomp_core::{DlbConfig, DlbTuning, LiveTaskSampler, TaskSizeHistogram};

/// Windowed Table-IV controller (driven from the server's master loop).
pub struct AdaptiveController {
    tuning: Arc<DlbTuning>,
    sampler: Arc<LiveTaskSampler>,
    /// Completed tasks per adaptation window; 0 disables the controller.
    window: u64,
    /// Emit a line to stderr on every effective retune.
    log: bool,
    /// Cumulative snapshot at the last window boundary.
    last: TaskSizeHistogram,
    /// Consecutive agreeing windows a changed recommendation needs.
    confirm: u32,
    /// Candidate configuration awaiting confirmation, with the number of
    /// consecutive windows that have recommended it.
    pending: Option<(DlbConfig, u32)>,
    /// External-swap epoch (see [`watch_swaps`](Self::watch_swaps)) and
    /// the last value observed by [`tick`](Self::tick).
    swap_epoch: Option<Arc<AtomicU64>>,
    seen_epoch: u64,
}

impl AdaptiveController {
    /// A controller re-tuning `tuning` from `sampler` every `window`
    /// completed tasks, with the default two-window hysteresis.
    pub fn new(
        tuning: Arc<DlbTuning>,
        sampler: Arc<LiveTaskSampler>,
        window: u64,
        log: bool,
    ) -> Self {
        AdaptiveController {
            tuning,
            sampler,
            window,
            log,
            last: TaskSizeHistogram::default(),
            confirm: 2,
            pending: None,
            swap_epoch: None,
            seen_epoch: 0,
        }
    }

    /// Watches `epoch` for external [`DlbTuning`] swaps: whenever the
    /// counter changes between ticks, the pending candidate is dropped
    /// and the window baseline resets to *now*, so a half-confirmed
    /// recommendation computed against the previous configuration can
    /// never publish right after a manual swap.
    pub fn watch_swaps(mut self, epoch: Arc<AtomicU64>) -> Self {
        self.seen_epoch = epoch.load(Ordering::Acquire);
        self.swap_epoch = Some(epoch);
        self
    }

    /// Sets how many consecutive windows must agree on a *changed*
    /// recommendation before it is published (≥ 1; 1 disables the
    /// hysteresis and restores retune-on-first-window behavior).
    pub fn confirm_windows(mut self, n: u32) -> Self {
        self.confirm = n.max(1);
        self
    }

    /// Called from the master loop at every scheduling opportunity; when
    /// a full window of tasks has completed since the last check,
    /// re-applies Table IV to the window's modal-decade task size (see
    /// the module docs — the mean is only used to position the
    /// representative within the modal decade). A changed
    /// recommendation is published only once `confirm_windows`
    /// consecutive windows agree on it. Returns the newly published
    /// config if this tick caused an effective retune.
    pub fn tick(&mut self) -> Option<DlbConfig> {
        if self.window == 0 {
            return None;
        }
        // An external swap landed since the last tick: restart hysteresis
        // from the swap point. Both the pending candidate and the partial
        // window it was building on were computed against the *previous*
        // configuration — publishing either would override the swap.
        if let Some(epoch) = &self.swap_epoch {
            let now = epoch.load(Ordering::Acquire);
            if now != self.seen_epoch {
                self.seen_epoch = now;
                self.pending = None;
                self.last = self.sampler.snapshot();
                return None;
            }
        }
        // Cheap gate before the full snapshot merge.
        if self.sampler.tasks_observed() < self.last.count + self.window {
            return None;
        }
        let now = self.sampler.snapshot();
        let window = now.window_since(&self.last);
        self.last = now;
        // Modal-decade classification (median tie-break, mean-positioned
        // within the decade) — robust to distributions that straddle a
        // Table-IV class boundary only through their tails.
        let rep = window.modal_cycles()?;

        let mut recommended = recommend_dlb(rep);
        let active = self.tuning.load();
        // Table IV tunes the *task*-side knobs only; the loop-rebalance
        // cadence is the operator's (or `swap_tuning`'s). Carry the
        // active value so a retune can neither re-enable a disabled
        // balancer nor count a no-op class change as a retune.
        recommended.rebalance_interval = active.rebalance_interval;
        if recommended == active {
            // Boundary flap back onto the active class: abandon any
            // half-confirmed candidate.
            self.pending = None;
            return None;
        }
        let confirmed = match &mut self.pending {
            Some((candidate, seen)) if *candidate == recommended => {
                *seen += 1;
                *seen >= self.confirm
            }
            _ => {
                self.pending = Some((recommended, 1));
                1 >= self.confirm
            }
        };
        if !confirmed {
            return None;
        }
        self.pending = None;
        self.tuning.store(recommended);
        if self.log {
            eprintln!(
                "[xgomp-service] DLB retune #{}: window modal {} cycles/task \
                 (mean {}) -> {} \
                 (n_victim={}, n_steal={}, t_interval={}, p_local={}, steal size {:.0})",
                self.tuning.retunes(),
                rep,
                window.mean(),
                recommended.strategy.name(),
                recommended.n_victim,
                recommended.n_steal,
                recommended.t_interval,
                recommended.p_local,
                recommended.steal_size(),
            );
        }
        Some(recommended)
    }

    /// How many effective retunes the tuning cell has seen.
    pub fn retunes(&self) -> u64 {
        self.tuning.retunes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xgomp_core::DlbStrategy;

    fn controller(window: u64) -> (AdaptiveController, Arc<LiveTaskSampler>) {
        let tuning = Arc::new(DlbTuning::new(DlbConfig::new(DlbStrategy::WorkSteal)));
        let sampler = Arc::<LiveTaskSampler>::default();
        (
            AdaptiveController::new(tuning, sampler.clone(), window, false),
            sampler,
        )
    }

    fn feed(sampler: &LiveTaskSampler, lane: usize, n: u64, cycles: u64) {
        let lanes = sampler.lanes.claim(lane..lane + 1);
        for _ in 0..n {
            lanes.seat(lane).record(cycles, 1);
        }
    }

    #[test]
    fn no_retune_before_a_full_window() {
        let (mut c, sampler) = controller(100);
        feed(&sampler, 0, 99, 50);
        assert!(c.tick().is_none());
        feed(&sampler, 0, 1, 50);
        // First full window: Table IV row 1 differs from the seed config,
        // but hysteresis holds it back as a candidate…
        assert!(c.tick().is_none(), "first window only nominates");
        // …until a second window agrees.
        feed(&sampler, 0, 100, 50);
        let cfg = c.tick().expect("second agreeing window publishes");
        assert_eq!(cfg.strategy, DlbStrategy::WorkSteal);
        assert_eq!(cfg, recommend_dlb(50));
    }

    #[test]
    fn distribution_shift_switches_strategy_after_confirmation() {
        let (mut c, sampler) = controller(64);
        feed(&sampler, 0, 128, 200);
        assert!(c.tick().is_none(), "fine-task tune pending");
        feed(&sampler, 0, 64, 200);
        let first = c.tick().expect("confirmed tune for fine tasks");
        assert_eq!(first.strategy, DlbStrategy::WorkSteal);
        // The workload shifts to coarse tasks (> 10^4 cycles).
        feed(&sampler, 1, 64, 200_000);
        assert!(c.tick().is_none(), "coarse window 1 only nominates");
        feed(&sampler, 1, 64, 200_000);
        let second = c.tick().expect("coarse window 2 confirms");
        assert_eq!(second.strategy, DlbStrategy::RedirectPush);
        assert_eq!(c.retunes(), 2);
    }

    #[test]
    fn retunes_preserve_the_rebalance_interval() {
        // The loop-balancer cadence is not a Table-IV knob: a confirmed
        // task-side retune must carry the active value — in particular
        // it must never re-enable a disabled (interval 0) balancer with
        // the guideline configs' default.
        let tuning = Arc::new(DlbTuning::new(
            DlbConfig::new(DlbStrategy::WorkSteal).rebalance_interval(0),
        ));
        let sampler = Arc::<LiveTaskSampler>::default();
        let mut c =
            AdaptiveController::new(tuning.clone(), sampler.clone(), 64, false).confirm_windows(1);
        feed(&sampler, 0, 64, 200_000);
        let cfg = c.tick().expect("coarse window retunes");
        assert_eq!(cfg.strategy, DlbStrategy::RedirectPush);
        assert_eq!(cfg.rebalance_interval, 0, "balancer stays disabled");
        assert_eq!(tuning.load().rebalance_interval, 0);
    }

    #[test]
    fn confirm_windows_one_restores_immediate_retunes() {
        let (c, sampler) = controller(64);
        let mut c = c.confirm_windows(1);
        feed(&sampler, 0, 64, 200_000);
        assert!(c.tick().is_some(), "no hysteresis: first window tunes");
    }

    #[test]
    fn boundary_flapping_does_not_retune() {
        // Means alternate across the 10^4 class boundary every window:
        // NA-WS row, NA-RP row, NA-WS row, … With two-window hysteresis
        // the candidate never survives two windows, so after the initial
        // settle no retune happens at all.
        let (c, sampler) = controller(32);
        let mut c = c.confirm_windows(2);
        // Settle on the fine-grained class first (two agreeing windows).
        feed(&sampler, 0, 64, 5_000);
        c.tick();
        feed(&sampler, 0, 32, 5_000);
        c.tick();
        let settled = c.retunes();
        assert_eq!(settled, 1, "settling tune published once");
        let active = c.tuning.load();
        for flap in 0..10 {
            let cycles = if flap % 2 == 0 { 20_000 } else { 5_000 };
            feed(&sampler, 0, 32, cycles);
            assert!(
                c.tick().is_none(),
                "flapping window {flap} must not publish"
            );
        }
        assert_eq!(c.retunes(), settled, "no flap retunes");
        assert_eq!(c.tuning.load(), active);
    }

    #[test]
    fn sustained_shift_still_converges() {
        let (c, sampler) = controller(32);
        let mut c = c.confirm_windows(3);
        for _ in 0..3 {
            feed(&sampler, 0, 32, 500);
            c.tick();
        }
        assert_eq!(c.retunes(), 1, "three agreeing windows publish");
        // A real (sustained) shift takes exactly `confirm` windows.
        for w in 0..3 {
            feed(&sampler, 0, 32, 300_000);
            let tick = c.tick();
            if w < 2 {
                assert!(tick.is_none(), "window {w} still confirming");
            } else {
                assert_eq!(tick.unwrap().strategy, DlbStrategy::RedirectPush);
            }
        }
    }

    #[test]
    fn stable_distribution_does_not_flap() {
        let (mut c, sampler) = controller(32);
        for round in 0..8 {
            feed(&sampler, 0, 32, 5_000);
            let tick = c.tick();
            if round == 1 {
                assert!(tick.is_some(), "second agreeing window tunes");
            } else {
                assert!(tick.is_none(), "same distribution must not retune");
            }
        }
        assert_eq!(c.retunes(), 1);
    }

    /// Regression: a half-confirmed candidate from before an external
    /// `DlbTuning` swap must not publish one window after the swap.
    /// Without the epoch reset, the pre-swap nomination window plus one
    /// post-swap agreeing window reach `confirm_windows` and override
    /// the operator's explicit configuration.
    #[test]
    fn external_swap_resets_pending_candidate() {
        let tuning = Arc::new(DlbTuning::new(DlbConfig::new(DlbStrategy::WorkSteal)));
        let epoch = Arc::new(AtomicU64::new(0));
        let sampler = Arc::<LiveTaskSampler>::default();
        let mut c = AdaptiveController::new(tuning.clone(), sampler.clone(), 32, false)
            .confirm_windows(2)
            .watch_swaps(epoch.clone());

        // Settle on the fine-grained recommendation first.
        feed(&sampler, 0, 32, 500);
        c.tick();
        feed(&sampler, 0, 32, 500);
        assert!(c.tick().is_some(), "settling tune");

        // Window nominates the coarse class — half-confirmed candidate.
        feed(&sampler, 0, 32, 300_000);
        assert!(c.tick().is_none(), "first coarse window only nominates");

        // Operator swaps the tuning manually, mid-window.
        let manual = DlbConfig::new(DlbStrategy::WorkSteal)
            .n_steal(3)
            .p_local(0.9);
        tuning.store(manual);
        epoch.fetch_add(1, Ordering::Release);
        feed(&sampler, 0, 16, 300_000); // stale half-window tail

        // This tick observes the swap: it must drop the candidate and
        // re-baseline, NOT publish the stale coarse recommendation.
        assert!(c.tick().is_none(), "swap tick must not publish");
        assert_eq!(tuning.load(), manual, "manual swap survives the tick");

        // One more agreeing window alone must not publish either (the
        // count restarted); two post-swap windows may.
        feed(&sampler, 0, 32, 300_000);
        assert!(c.tick().is_none(), "post-swap window 1 only nominates");
        assert_eq!(tuning.load(), manual);
        feed(&sampler, 0, 32, 300_000);
        let cfg = c.tick().expect("two clean post-swap windows publish");
        assert_eq!(cfg.strategy, DlbStrategy::RedirectPush);
    }

    /// A team resize (`resume_with`) reaches the controller as a swap
    /// epoch bump — the sampler is the server's for life, its counts
    /// never restart and new workers just record on new lanes.
    #[test]
    fn rebind_resets_baseline_and_candidate() {
        let epoch = Arc::new(AtomicU64::new(0));
        let (c, sampler) = controller(32);
        let mut c = c.watch_swaps(epoch.clone());
        feed(&sampler, 0, 32, 300_000);
        assert!(c.tick().is_none(), "nomination pending");
        // Team resized 1 → 4 workers: the stale candidate must go, and
        // the window restarts at the boundary.
        epoch.fetch_add(1, Ordering::Release);
        assert!(c.tick().is_none(), "the boundary tick only re-baselines");
        feed(&sampler, 1, 32, 300_000);
        assert!(c.tick().is_none(), "post-resize window 1 nominates anew");
        feed(&sampler, 3, 32, 300_000);
        assert_eq!(
            c.tick().expect("window 2 confirms").strategy,
            DlbStrategy::RedirectPush
        );
    }

    /// Regression for the modal-decade classifier: a *bimodal* window —
    /// overwhelmingly fine tasks plus a minority of huge ones — must
    /// tune for the majority class. The old window-mean classifier saw
    /// a mean of ~450k cycles (outlier-dragged across the 10^4 class
    /// boundary) and tuned NA-RP against a workload that is 90%+
    /// 50-cycle tasks.
    #[test]
    fn bimodal_window_tunes_for_the_majority_class() {
        let tuning = Arc::new(DlbTuning::new(
            // Seed with the coarse-class config so a fine-class retune is
            // observable as a strategy change.
            recommend_dlb(200_000),
        ));
        let sampler = Arc::<LiveTaskSampler>::default();
        let mut c =
            AdaptiveController::new(tuning.clone(), sampler.clone(), 512, false).confirm_windows(2);
        for _ in 0..2 {
            // One window: 1000 tiny tasks + 100 huge ones. Window mean
            // ≈ 455k cycles (coarse class); modal decade is 10^1..10^2.
            feed(&sampler, 0, 1_000, 50);
            feed(&sampler, 1, 100, 5_000_000);
            c.tick();
        }
        let active = tuning.load();
        assert_eq!(
            active.strategy,
            DlbStrategy::WorkSteal,
            "bimodal window must classify by its modal decade (fine), \
             not its outlier-dragged mean (coarse)"
        );
        assert_eq!(active, recommend_dlb(50));
    }

    #[test]
    fn disabled_controller_never_ticks() {
        let (mut c, sampler) = controller(0);
        feed(&sampler, 0, 1_000, 10);
        assert!(c.tick().is_none());
    }
}
