//! The evaluation closure of the layer pass: `core::workflow`'s
//! per-individual evaluation, step by step through public entry points,
//! with a span around each call. It must reproduce what the campaign
//! journaled bit for bit — objectives and charged minutes — or the layer
//! pass is timing something other than the campaign's work.

use crate::adapter::{
    decode, estimated_minutes, paper_job, substitute, template_vars, AbortReason, EvalContext,
    EvalFault, EvalOutcome, EvalRecord, Fitness, Json, Lcurve, Recorder, SeedableRng, Sentinel,
    StdRng, Supervision, TaskCtx, TrainConfig, TrainRun, INPUT_TEMPLATE, LCURVE_TAIL_ROWS,
};
use crate::spans::Tracer;

/// Span names (the per-layer metrics aggregate by them) and their layers.
pub mod span {
    pub const EVAL: (&str, &str) = ("core.eval", "core.eval");
    pub const PREPARE: (&str, &str) = ("core.workflow.prepare", "core.workflow");
    pub const LCURVE: (&str, &str) = ("core.workflow.lcurve", "core.workflow");
    pub const SETUP: (&str, &str) = ("dnnp.setup", "dnnp");
    pub const STEPS: (&str, &str) = ("dnnp.steps", "dnnp");
    pub const FINISH: (&str, &str) = ("dnnp.finish", "dnnp");
}

fn failure(minutes: f64) -> EvalRecord {
    EvalRecord {
        fitness: Fitness::penalty(2),
        minutes,
        failed: true,
        lcurve_tail: Vec::new(),
    }
}

/// Where an evaluation's spans go: the recorder, the span that caused the
/// evaluation (the scheduler call, on another thread), and the operation id
/// its spans share.
#[derive(Clone, Copy)]
pub struct Site<'t> {
    pub tracer: &'t Tracer,
    pub parent: Option<u64>,
    pub op: u64,
}

/// Evaluate one genome as the campaign's workers do (supervised: deadline,
/// cancellation, heartbeats, the strict divergence sentinel), recording
/// spans at `site`. `telemetry` is the program's own recorder, attached
/// only for the step-phase re-runs.
pub fn evaluate(
    site: Site<'_>,
    ctx: &EvalContext,
    genome: &[f64],
    seed: u64,
    task: &TaskCtx<'_>,
    telemetry: Option<&dyn Recorder>,
) -> EvalOutcome<EvalRecord> {
    let Site { tracer, parent, op } = site;
    let mut eval_span = match parent {
        Some(p) => tracer.span_under(p, span::EVAL.0, span::EVAL.1, op),
        None => tracer.span(span::EVAL.0, span::EVAL.1, op),
    };
    let (record, abort) = evaluate_record(tracer, op, ctx, genome, seed, task, telemetry);
    eval_span.set_value(decode(genome).rcut);
    eval_span.set_count(u64::from(record.failed));
    eval_span.end();
    // The scheduler-facing classification `core::ea` applies.
    if record.failed {
        let fault = match abort {
            Some(AbortReason::Diverged { step, loss }) => EvalFault::Diverged { step, loss },
            Some(AbortReason::Deadline { .. }) => EvalFault::Deadline,
            Some(AbortReason::Cancelled { .. }) => EvalFault::Cancelled,
            None => EvalFault::Failed("training failed".to_string()),
        };
        EvalOutcome {
            value: Err(fault),
            minutes: record.minutes,
        }
    } else {
        let minutes = record.minutes;
        EvalOutcome {
            value: Ok(record),
            minutes,
        }
    }
}

fn evaluate_record(
    tracer: &Tracer,
    op: u64,
    ctx: &EvalContext,
    genome: &[f64],
    seed: u64,
    task: &TaskCtx<'_>,
    telemetry: Option<&dyn Recorder>,
) -> (EvalRecord, Option<AbortReason>) {
    let mean_minutes = estimated_minutes(ctx, genome);
    let num_steps = ctx.base_config.num_steps.max(1);
    let cancelled = || task.is_cancelled();
    let beat = |done: f64, projected: f64| task.heartbeat(done, projected);
    let sup = Supervision {
        cancelled: Some(&cancelled),
        deadline_minutes: task.deadline_minutes,
        minutes_per_step: mean_minutes / num_steps as f64,
        heartbeat: Some(&beat),
        heartbeat_every: (num_steps / 8).max(1),
        check_every: 1,
        sentinel: Sentinel::supervised(),
        recorder: telemetry,
        ..Supervision::none()
    };

    // decode → template → input.json → parse → validate.
    let prepare = tracer.span(span::PREPARE.0, span::PREPARE.1, op);
    let decoded = decode(genome);
    let mut rng = StdRng::seed_from_u64(seed);
    let base = &ctx.base_config;
    let vars = template_vars(
        &decoded,
        &base.embedding_neurons,
        &base.fitting_neurons,
        base.num_steps,
        base.batch_per_worker,
        base.n_workers,
        base.disp_freq,
        base.val_max_frames,
        seed,
    );
    let config = substitute(INPUT_TEMPLATE, &vars).and_then(|text| {
        let doc = Json::parse(&text).map_err(|e| e.to_string())?;
        let config = TrainConfig::from_input_json(&doc)?;
        config.validate()?;
        Ok(config)
    });
    prepare.end();
    let Ok(config) = config else {
        return (failure(0.1), None);
    };

    let setup = tracer.span(span::SETUP.0, span::SETUP.1, op);
    let run = TrainRun::new(&config, &ctx.train, &ctx.val, &mut rng, &sup);
    setup.end();
    let Ok(mut run) = run else {
        return (failure(0.1), None);
    };

    // `count` is the number of `step()` calls: the completed steps, plus
    // the one a sentinel or deadline abort cut short.
    let mut steps = tracer.span(span::STEPS.0, span::STEPS.1, op);
    let mut calls = 1u64;
    while run.step() {
        calls += 1;
    }
    steps.set_count(calls);
    steps.set_value(decoded.rcut);
    steps.end();

    let finish = tracer.span(span::FINISH.0, span::FINISH.1, op);
    let report = run.finish();
    finish.end();

    let full_minutes = ctx
        .cost_model
        .gpu_minutes(&paper_job(config.rcut), &mut rng);
    let progress = report.steps_completed as f64 / config.num_steps.max(1) as f64;
    let minutes = (full_minutes * progress).max(0.1);

    let lcurve = tracer.span(span::LCURVE.0, span::LCURVE.1, op);
    let text = report.lcurve.to_text();
    match report.abort {
        Some(abort @ AbortReason::Deadline { .. }) => {
            return (
                failure(sup.deadline_minutes.unwrap_or(minutes)),
                Some(abort),
            );
        }
        Some(abort) => return (failure(minutes), Some(abort)),
        None => {}
    }
    if report.diverged {
        return (failure(minutes), None);
    }
    let parsed = Lcurve::parse(&text);
    lcurve.end();
    let Ok(parsed) = parsed else {
        return (failure(minutes), None);
    };
    let record = match parsed.final_losses() {
        Some((rmse_e, rmse_f)) if rmse_e.is_finite() && rmse_f.is_finite() => EvalRecord {
            fitness: Fitness::new(vec![rmse_e, rmse_f]),
            minutes,
            failed: false,
            lcurve_tail: parsed.tail(LCURVE_TAIL_ROWS).to_vec(),
        },
        _ => failure(minutes),
    };
    (record, None)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::adapter::{
        build_dataset, eval_context, evaluate_individual, reduced_campaign, CampaignMode,
    };

    /// The mirrored closure returns objectives (and charged minutes)
    /// bit-equal to `evaluate_individual` for every activation choice.
    #[test]
    fn mirrored_closure_matches_evaluate_individual_for_all_five_activations() {
        let config = reduced_campaign(7, 12, 1, 30, CampaignMode::Generational, 1);
        let (train, val) = build_dataset(&config);
        let ctx = eval_context(&config, &Arc::clone(&train), &Arc::clone(&val));
        let tracer = Tracer::new();
        for activation in 0..5 {
            let gene = activation as f64 + 0.5;
            let genome = vec![0.004, 6e-5, 7.5, 2.5, 1.5, gene, gene];
            let want = evaluate_individual(&ctx, &genome, 41);
            assert!(!want.failed, "activation {activation} should train");
            let got = evaluate(
                Site {
                    tracer: &tracer,
                    parent: None,
                    op: activation,
                },
                &ctx,
                &genome,
                41,
                &TaskCtx::detached(0),
                None,
            );
            let got = got.value.expect("mirrored evaluation succeeds");
            let bits = |f: &Fitness| f.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&got.fitness),
                bits(&want.fitness),
                "activation {activation}"
            );
            assert_eq!(got.minutes.to_bits(), want.minutes.to_bits());
            assert_eq!(got.lcurve_tail, want.lcurve_tail);
        }
        let spans = tracer.finish();
        let steps: Vec<_> = spans.iter().filter(|s| s.name == span::STEPS.0).collect();
        assert_eq!(steps.len(), 5);
        assert!(steps.iter().all(|s| s.count == 30 && s.value == 7.5));
        assert_eq!(spans.iter().filter(|s| s.name == span::EVAL.0).count(), 5);
    }

    /// A configuration that cannot train is the MAXINT penalty, as in the
    /// program's workflow.
    #[test]
    fn invalid_configuration_is_a_penalty() {
        let config = reduced_campaign(7, 12, 1, 10, CampaignMode::Generational, 1);
        let (train, val) = build_dataset(&config);
        let ctx = eval_context(&config, &train, &val);
        let genome = vec![0.0, 6e-5, 7.5, 2.5, 1.5, 4.5, 4.5];
        let want = evaluate_individual(&ctx, &genome, 5);
        let tracer = Tracer::new();
        let got = evaluate(
            Site {
                tracer: &tracer,
                parent: None,
                op: 0,
            },
            &ctx,
            &genome,
            5,
            &TaskCtx::detached(0),
            None,
        );
        assert!(want.failed && got.value.is_err());
        assert_eq!(got.minutes.to_bits(), want.minutes.to_bits());
    }
}
