//! `learn_groups`: the §7 learned chooser on Workload B. Set-up runs the
//! two-week grouping of long-running jobs and, largest group first (as
//! `exp_learning` does), discovers each group's candidate configurations
//! from its base jobs, keeping the first three groups with enough
//! alternatives. A timed round runs `build_group_dataset`, `train_group`
//! and `evaluate` for every group.
//!
//! Every seed trains the same shape: `GROUP_JOBS` jobs and `K_ALT`
//! alternatives per group, and the full epoch budget (patience = epochs).
//! With `exp_learning`'s early stopping and uncapped groups the amount of
//! training work varied about twofold between seeds (9.5 s to 16.5 s
//! rounds), which no bound on a median could hold. The training RNG is
//! fixed for the same reason: seeded from `--seed`, it alone moved a
//! round of this fixed shape between 4.0 s and 5.6 s.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use scope_exec::ABTester;
use scope_ir::Job;
use scope_optimizer::{compile_job, RuleConfig};
use scope_workload::{Workload, WorkloadProfile};
use steer_core::{Pipeline, PipelineParams};
use steer_learn::{
    build_group_dataset, evaluate, train_group, GroupDataset, GroupEval, LearnedChooser, Mlp,
    Split, TrainParams,
};

use crate::probe::{measure, median_setup, mix, run_rounds, Span};
use crate::report::{check_rounds_agree, end_to_end, mean, Layers, Outcome};
use crate::Args;

/// Job groups trained per round.
const GROUPS: usize = 3;
/// Hidden width: `exp_learning`'s default.
const HIDDEN: usize = 256;
/// Days of Workload B grouped (§7: two weeks).
const DAYS: u32 = 14;
/// Jobs per trained group (the group's first jobs in submission order).
const GROUP_JOBS: usize = 12;
/// Alternative configurations per group (K = 1 + `K_ALT`, paper: 7–10).
const K_ALT: usize = 4;
/// Base jobs per group whose discovery supplies the alternatives.
const BASE_JOBS: usize = 6;
/// Training epochs, all of them run.
const EPOCHS: usize = 200;
/// The one learning rate trained (`TrainParams`' default tries 1e-3 and
/// 3e-4 at 150 epochs each): with one, the model training starts from is
/// the one `train_group` returns at zero epochs, which the loss check
/// compares against.
const LR: f64 = 1e-3;
/// Candidate configurations per base job in the set-up's discovery. Half
/// the experiment's M keeps one set-up near 3 s, so that `SETUPS` of them
/// fit a run.
const SETUP_M: usize = 500;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Seed of the training RNG (splits, initial weights, batch order).
const TRAIN_SEED: u64 = 0x7EA3;

struct Group {
    jobs: Vec<Job>,
    alt_configs: Vec<RuleConfig>,
}

struct Inputs {
    groups: Vec<Group>,
    ab_seed: u64,
}

fn setup(seed: u64) -> Inputs {
    let w = Workload::generate(WorkloadProfile::workload_b(1.0));
    let ab_seed = mix(2021, seed);
    let ab = ABTester::new(ab_seed);
    let default = RuleConfig::default_config();
    // Long-running jobs of two weeks, grouped by default signature.
    let mut by_group: BTreeMap<String, Vec<Job>> = BTreeMap::new();
    for job in (0..DAYS).flat_map(|d| w.day(d)) {
        let Ok(compiled) = compile_job(&job, &default) else {
            continue;
        };
        let runtime = ab.run(&job, &compiled.plan, 0).runtime;
        if (120.0..=7200.0).contains(&runtime) {
            by_group
                .entry(compiled.signature.to_bit_string())
                .or_default()
                .push(job);
        }
    }
    let mut ranked: Vec<Vec<Job>> = by_group
        .into_values()
        .filter(|jobs| jobs.len() >= GROUP_JOBS)
        .collect();
    // Size descending; the map's key order breaks ties.
    ranked.sort_by_key(|jobs| std::cmp::Reverse(jobs.len()));

    let pipeline = Pipeline::new(
        ab.clone(),
        PipelineParams {
            sample_frac: 1.0,
            min_runtime_s: 60.0,
            max_runtime_s: f64::INFINITY,
            m_candidates: SETUP_M,
            ..crate::discover::params(1)
        },
    );
    let mut rng = StdRng::seed_from_u64(mix(0x7EA2, seed));
    let groups = ranked
        .into_iter()
        .filter_map(|mut jobs| {
            let mut alt_configs = Vec::new();
            for base in jobs.iter().take(BASE_JOBS) {
                let Some((compiled, metrics)) = pipeline.default_run(base) else {
                    continue;
                };
                if let Some(outcome) = pipeline.analyze_job(base, &compiled, metrics, &mut rng) {
                    let mut executed = outcome.executed;
                    executed.sort_by(|a, b| a.metrics.runtime.total_cmp(&b.metrics.runtime));
                    for cand in executed.into_iter().take(3) {
                        if !alt_configs.contains(&cand.config) {
                            alt_configs.push(cand.config);
                        }
                    }
                }
            }
            if alt_configs.len() < K_ALT {
                return None;
            }
            alt_configs.truncate(K_ALT);
            jobs.truncate(GROUP_JOBS);
            Some(Group { jobs, alt_configs })
        })
        .take(GROUPS)
        .collect();
    Inputs { groups, ab_seed }
}

struct Trained {
    /// Index into `Inputs::groups`.
    group: usize,
    /// The training RNG as `train_group` received it.
    rng_before: StdRng,
    ds: GroupDataset,
    chooser: LearnedChooser,
    split: Split,
    eval: GroupEval,
    dataset_s: f64,
    train_s: f64,
}

/// Group `gi`'s training parameters: full-batch (a group's training
/// split is smaller than the batch), one learning rate, no early stop.
fn train_params(gi: usize, epochs: usize) -> TrainParams {
    TrainParams {
        hidden: HIDDEN,
        lrs: vec![LR],
        epochs,
        patience: EPOCHS,
        seed: gi as u64,
        ..TrainParams::default()
    }
}

fn round(inp: &Inputs) -> (Vec<Trained>, Span) {
    let ab = ABTester::new(inp.ab_seed);
    let mut rng = StdRng::seed_from_u64(TRAIN_SEED);
    measure(|| {
        inp.groups
            .iter()
            .enumerate()
            .filter_map(|(gi, g)| {
                let t = Instant::now();
                let refs: Vec<&Job> = g.jobs.iter().collect();
                let ds = build_group_dataset(&refs, &g.alt_configs, &ab);
                let dataset_s = t.elapsed().as_secs_f64();
                if ds.is_empty() {
                    return None;
                }
                let t = Instant::now();
                let rng_before = rng.clone();
                let (chooser, split) = train_group(&ds, &train_params(gi, EPOCHS), &mut rng);
                let eval = evaluate(&ds, &chooser, &split);
                Some(Trained {
                    group: gi,
                    rng_before,
                    ds,
                    chooser,
                    split,
                    eval,
                    dataset_s,
                    train_s: t.elapsed().as_secs_f64(),
                })
            })
            .collect()
    })
}

/// Mean binary cross-entropy of `model` over `idx`, against per-sample
/// min-max normalized runtimes (fastest 0, slowest 1).
fn bce(model: &Mlp, chooser: &LearnedChooser, ds: &GroupDataset, idx: &[usize]) -> f64 {
    let mut total = 0.0;
    for &i in idx {
        let s = &ds.samples[i];
        let lo = s.runtimes.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = s.runtimes.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let pred = model.predict(&chooser.normalizer.transform(&s.features));
        let mut loss = 0.0;
        for (p, r) in pred.iter().zip(&s.runtimes) {
            let y = if hi > lo { (r - lo) / (hi - lo) } else { 0.0 };
            let p = p.clamp(1e-7, 1.0 - 1e-7);
            loss -= y * p.ln() + (1.0 - y) * (1.0 - p).ln();
        }
        total += loss / pred.len().max(1) as f64;
    }
    total / idx.len().max(1) as f64
}

fn check(out: &mut Outcome, inp: &Inputs, trained: &[Trained]) {
    let ab = ABTester::new(inp.ab_seed);
    out.check(inp.groups.len() == GROUPS, || {
        format!(
            "only {} groups with {GROUP_JOBS} jobs and {K_ALT} alternatives",
            inp.groups.len()
        )
    });
    for t in trained {
        let (gi, g) = (t.group, &inp.groups[t.group]);
        // The model training started from: the same RNG state and
        // parameters at zero epochs. Each epoch is one full-batch gradient
        // step at a small learning rate, so the returned model (the best
        // on validation, after at least one epoch) fits the training split
        // better than it.
        let (initial, _) = train_group(&t.ds, &train_params(gi, 0), &mut t.rng_before.clone());
        let trained_loss = bce(&t.chooser.model, &t.chooser, &t.ds, &t.split.train);
        let initial_loss = bce(&initial.model, &t.chooser, &t.ds, &t.split.train);
        out.check(trained_loss < initial_loss, || {
            format!("group {gi}: training loss {trained_loss} not below the initial model's {initial_loss}")
        });
        for s in &t.ds.samples {
            let k = t.chooser.choose(&s.features);
            out.check(k < t.ds.k(), || {
                format!("group {gi}: choice {k} out of range")
            });
        }
        let by_id: BTreeMap<u64, &Job> = g.jobs.iter().map(|j| (j.id.0, j)).collect();
        for q in &t.eval.per_query {
            let rerun = by_id.get(&q.job_id.0).and_then(|job| {
                let plan = compile_job(job, t.ds.configs.get(q.chosen)?).ok()?;
                Some(ab.run(job, &plan.plan, 0).runtime)
            });
            out.check(
                rerun.is_some_and(|r| r.to_bits() == q.learned_runtime.to_bits()),
                || {
                    format!(
                        "group {gi}: job {}'s learned runtime {} differs from its chosen config's rerun {rerun:?}",
                        q.job_id.0, q.learned_runtime
                    )
                },
            );
        }
    }
}

fn fingerprint(trained: &[Trained]) -> u64 {
    let mut h = DefaultHasher::new();
    for t in trained {
        t.chooser.val_loss.to_bits().hash(&mut h);
        for q in &t.eval.per_query {
            (q.job_id.0, q.chosen, q.learned_runtime.to_bits()).hash(&mut h);
        }
    }
    h.finish()
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (inp, setup_s) = median_setup(SETUPS, || setup(args.seed));
    let (runs, overhead) = run_rounds(args, true, || round(&inp));
    check(&mut out, &inp, &runs[0].0);
    let fingerprints: Vec<u64> = runs.iter().map(|(t, _)| fingerprint(t)).collect();
    check_rounds_agree(&mut out, &fingerprints);
    out.attempted = (GROUPS * runs.len()) as u64;
    out.failed = runs.iter().map(|(t, _)| (GROUPS - t.len()) as u64).sum();
    let samples: usize = runs[0].0.iter().map(|t| t.ds.len()).sum();

    if args.trace {
        let (trained, span) = &runs[0];
        let mut layers = Layers::default();
        layers.set(
            "learn.dataset_ms",
            1e3 * mean(&trained.iter().map(|t| t.dataset_s).collect::<Vec<_>>()),
        );
        layers.set(
            "learn.train_ms_per_group",
            1e3 * mean(&trained.iter().map(|t| t.train_s).collect::<Vec<_>>()),
        );
        layers.set("learn.train_s", span.wall_s);
        layers.set(
            "learn.samples_per_group",
            samples as f64 / trained.len().max(1) as f64,
        );
        let mut choose_us = Vec::new();
        for t in trained {
            for s in &t.ds.samples {
                let at = Instant::now();
                std::hint::black_box(t.chooser.choose(&s.features));
                choose_us.push(at.elapsed().as_secs_f64() * 1e6);
            }
        }
        layers.set("learn.choose_us", mean(&choose_us));
        layers.set("trace.overhead_pct", overhead);
        layers.into_outcome(&mut out);
    } else {
        // The warm-up round (the checked one) is left out.
        let timed = &runs[1..];
        let train_s: f64 = timed
            .iter()
            .flat_map(|(t, _)| t)
            .map(|t| t.dataset_s + t.train_s)
            .sum();
        end_to_end(
            &mut out,
            timed,
            samples as f64,
            GROUPS as f64,
            train_s,
            setup_s,
        );
    }
    out
}
