//! Cooperative training supervision: deadline budgets, external
//! cancellation, and divergence sentinels checked at step boundaries.
//!
//! The paper's campaign only *discovers* sick trainings after paying for
//! them in full — a diverged run burns its whole 2-hour allocation before
//! the `TimeoutError` fires. Treating failed trainings as first-class,
//! early-terminated evaluations is standard HPO practice (Diaz et al.);
//! this module gives the trainer the hooks to do it:
//!
//! * a **divergence sentinel** ([`Sentinel`]): abort as soon as the loss
//!   goes non-finite, crosses an absolute ceiling, or explodes past a
//!   configurable factor of its initial value;
//! * a **deadline budget**: the scheduler's simulated per-task limit,
//!   converted to a steps budget via the cost model's minutes-per-step,
//!   checked before every step so the job stops *at* the wall instead of
//!   being charged for crossing it;
//! * **external cancellation**: a cheap `is-cancelled` probe (backed by the
//!   worker pool's shutdown flag) polled at step boundaries, so a training
//!   whose campaign has left stops within one check interval;
//! * **progress heartbeats**: periodic `(done, projected)` simulated-minute
//!   reports the scheduler's supervision loop consumes.
//!
//! All hooks are optional; [`Supervision::none`] reproduces the plain
//! training loop bit-for-bit (the step-boundary checks consume no
//! randomness, so the rng stream — and therefore every trained weight —
//! is untouched by supervision).

use crate::trainer::DIVERGENCE_LOSS_LIMIT;
use dphpo_obs::{Recorder, SpanCtx};

/// Why a supervised training run stopped before completing its steps.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AbortReason {
    /// The divergence sentinel fired: non-finite loss/gradients/weights,
    /// or the loss crossed an absolute or relative ceiling.
    Diverged {
        /// Step at which divergence was detected (0-based).
        step: usize,
        /// The offending loss value (may be `NaN`/`inf`).
        loss: f64,
    },
    /// The simulated-clock deadline budget ran out.
    Deadline {
        /// First step that would have crossed the budget.
        step: usize,
        /// Simulated minutes consumed when the budget fired.
        sim_minutes: f64,
    },
    /// The external cancellation probe returned true (the worker pool is
    /// shutting down).
    Cancelled {
        /// Step at which cancellation was observed.
        step: usize,
    },
}

/// Divergence thresholds checked every step.
#[derive(Clone, Copy, Debug)]
pub struct Sentinel {
    /// Absolute loss ceiling; values beyond it are irrecoverable even when
    /// still finite.
    loss_limit: f64,
    /// Relative ceiling: abort once the loss exceeds
    /// `explosion_factor ×` the first step's loss. `INFINITY` disables the
    /// relative check (the plain, pre-supervision behaviour).
    explosion_factor: f64,
}

impl Default for Sentinel {
    fn default() -> Self {
        // Absolute check only — identical to the historical trainer.
        Sentinel { loss_limit: DIVERGENCE_LOSS_LIMIT, explosion_factor: f64::INFINITY }
    }
}

impl Sentinel {
    /// The supervised-runtime sentinel: absolute ceiling plus a 10⁶×
    /// explosion factor relative to the initial loss, catching runaway
    /// trainings several steps before they reach the absolute limit.
    pub fn supervised() -> Self {
        Sentinel { loss_limit: DIVERGENCE_LOSS_LIMIT, explosion_factor: 1e6 }
    }

    /// True if `loss` (at `step`, with `initial` the first step's loss)
    /// should abort training.
    pub fn fires(&self, loss: f64, initial: Option<f64>) -> bool {
        if !loss.is_finite() || loss > self.loss_limit {
            return true;
        }
        match initial {
            Some(first) if first.is_finite() && first > 0.0 => {
                loss > self.explosion_factor * first
            }
            _ => false,
        }
    }
}

/// Supervision hooks threaded into [`crate::trainer::train_supervised`].
///
/// All checks run at step boundaries and consume no randomness, so two
/// runs with the same seed produce bit-identical weights whether or not
/// supervision is attached — only *how far* an aborted run gets differs.
pub struct Supervision<'a> {
    /// External cancellation probe, polled every `check_every` steps.
    pub cancelled: Option<&'a (dyn Fn() -> bool + 'a)>,
    /// Simulated-minutes budget for the whole training (the scheduler's
    /// per-task timeout). `None` disables the deadline check.
    pub deadline_minutes: Option<f64>,
    /// Simulated minutes one optimisation step costs (deterministic, from
    /// the cost model's mean — sampling here would perturb the rng stream).
    pub minutes_per_step: f64,
    /// Progress heartbeat `(done_minutes, projected_total_minutes)`,
    /// emitted every `heartbeat_every` steps.
    pub heartbeat: Option<&'a (dyn Fn(f64, f64) + 'a)>,
    /// Steps between heartbeats (0 disables them).
    pub heartbeat_every: usize,
    /// Steps between cancellation/deadline checks (min 1).
    pub check_every: usize,
    /// Divergence thresholds (checked every step regardless of
    /// `check_every` — a non-finite loss poisons everything after it).
    pub sentinel: Sentinel,
    /// Telemetry sink. `None` (the default) keeps the training loop's
    /// disabled path at a single branch; when set and
    /// [`Recorder::enabled`], the trainer emits per-step spans, loss/LR/
    /// gradient-norm histograms, tape arena gauges, and streamed
    /// learning-curve rows. Recording consumes no randomness, so weights
    /// stay bit-identical with telemetry on or off.
    pub recorder: Option<&'a dyn Recorder>,
    /// Span identity `(seed, run, gen, task, attempt)` for emitted events;
    /// ignored when `recorder` is `None`.
    pub span: SpanCtx,
}

impl Supervision<'static> {
    /// No supervision: plain training (the historical behaviour).
    pub fn none() -> Self {
        Supervision {
            cancelled: None,
            deadline_minutes: None,
            minutes_per_step: 0.0,
            heartbeat: None,
            heartbeat_every: 0,
            check_every: 1,
            sentinel: Sentinel::default(),
            recorder: None,
            span: SpanCtx::default(),
        }
    }
}

impl<'a> Supervision<'a> {
    /// True if the external probe says this run is cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.is_some_and(|probe| probe())
    }

    /// The recorder when attached *and* enabled — the single branch the
    /// trainer's hot path pays when telemetry is off.
    pub fn obs(&self) -> Option<&'a dyn Recorder> {
        self.recorder.filter(|r| r.enabled())
    }

    /// Simulated minutes consumed after `steps` completed steps.
    pub fn sim_minutes(&self, steps: usize) -> f64 {
        steps as f64 * self.minutes_per_step
    }

    /// True if starting step `step` (0-based) would cross the deadline:
    /// the budget must cover the step about to be paid for.
    pub fn deadline_fires(&self, step: usize) -> bool {
        match self.deadline_minutes {
            Some(limit) => self.sim_minutes(step + 1) > limit,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sentinel_matches_legacy_thresholds() {
        let s = Sentinel::default();
        assert!(!s.fires(1e11, Some(1e-3)), "legacy sentinel has no relative check");
        assert!(s.fires(1e13, Some(1e-3)));
        assert!(s.fires(f64::NAN, None));
        assert!(s.fires(f64::INFINITY, None));
    }

    #[test]
    fn supervised_sentinel_adds_relative_explosion_check() {
        let s = Sentinel::supervised();
        assert!(s.fires(2e3, Some(1e-3)), "1e6x explosion over initial loss");
        assert!(!s.fires(0.5, Some(1e-3)), "slow growth is not divergence");
        // Degenerate initial losses disable the relative check.
        assert!(!s.fires(1e3, Some(0.0)));
        assert!(!s.fires(1e3, Some(f64::INFINITY)));
    }

    #[test]
    fn deadline_fires_on_the_step_that_would_cross_the_budget() {
        let sup = Supervision {
            deadline_minutes: Some(10.0),
            minutes_per_step: 1.0,
            ..Supervision::none()
        };
        assert!(!sup.deadline_fires(8), "step 9/10 still inside the budget");
        assert!(!sup.deadline_fires(9), "step 10/10 exactly exhausts it");
        assert!(sup.deadline_fires(10), "step 11 crosses the wall");
        assert_eq!(sup.sim_minutes(5), 5.0);
    }

    #[test]
    fn unsupervised_probes_are_inert() {
        let sup = Supervision::none();
        assert!(!sup.is_cancelled());
        assert!(!sup.deadline_fires(usize::MAX - 1));
    }
}
