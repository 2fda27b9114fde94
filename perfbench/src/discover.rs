//! `discover_days`: the daily offline discovery service. One long-lived
//! pipeline (and its compile cache) runs `Pipeline::discover` over
//! consecutive days of Workload A at the experiment parameters (M = 1000,
//! top-10 execution) on 2 workers. A round is the same days on a fresh
//! pipeline, so every round does identical work; generating each day's
//! jobs is inside the timed day.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use scope_exec::{result_fingerprint, ABTester, RetryPolicy};
use scope_ir::Job;
use scope_lint::{ConfigVerdict, JobLint, PlanBounds};
use scope_optimizer::{
    compile_with_model, effective_config, CompileBudget, CompiledPlan, CostModel, RuleConfig,
    RuleId, RuleSet, NUM_RULES,
};
use scope_trace::Counter;
use scope_workload::{Workload, WorkloadProfile};
use steer_core::{
    approximate_span_cached, candidate_configs_effective, vet_candidate, DiscoveryReport, Pipeline,
    PipelineParams,
};

use crate::probe::{allocated_bytes, measure, mix, run_rounds, Span};
use crate::report::{check_rounds_agree, end_to_end, mean, median, quantile, Layers, Outcome};
use crate::Args;

/// Consecutive days per round.
const DAYS: u32 = 2;
/// Discovery workers: the machine's core count.
const THREADS: usize = 2;
/// Analyzed jobs of day 0 whose layers a traced run times from outside.
const PROBE_JOBS: usize = 8;

/// The experiment parameters, except that every in-window job is
/// analyzed: with half of them sampled, which heavy jobs a seed drew moved
/// the round's work by about a sixth between seeds.
pub fn params(n_threads: usize) -> PipelineParams {
    PipelineParams {
        m_candidates: 1000,
        execute_top_k: 10,
        sample_frac: 1.0,
        n_threads,
        ..PipelineParams::default()
    }
}

/// Everything a round is built from. The jobs are Workload A's first
/// days; `--seed` drives the A/B harness's noise and the discovery RNG
/// (candidate configurations and analysis order).
pub struct Inputs {
    pub workload: Workload,
    pub ab_seed: u64,
    pub rng_seed: u64,
}

pub fn inputs(seed: u64) -> Inputs {
    Inputs {
        workload: Workload::generate(WorkloadProfile::workload_a(1.0)),
        ab_seed: mix(2021, seed),
        rng_seed: mix(0x7410, seed),
    }
}

pub struct Day {
    pub jobs: Vec<Job>,
    pub report: DiscoveryReport,
    pub gen_s: f64,
    /// Wall time inside `Pipeline::discover`.
    pub discover_s: f64,
    /// Worker-chunk imbalance of the analyze stage, when traced.
    pub imbalance: Option<f64>,
}

/// One discovery day on `pipeline`, generating the day's jobs first.
fn discover_day(w: &Workload, pipeline: &Pipeline, day: u32, rng: &mut StdRng) -> Day {
    let t = Instant::now();
    let jobs = w.day(day);
    let gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let report = pipeline.discover(&jobs, rng);
    let discover_s = t.elapsed().as_secs_f64();
    let imbalance = if scope_trace::enabled() {
        chunk_imbalance(&scope_trace::take_spans())
    } else {
        None
    };
    Day {
        jobs,
        report,
        gen_s,
        discover_s,
        imbalance,
    }
}

/// Days `0..DAYS` on a fresh pipeline with `THREADS` workers.
fn round(inp: &Inputs) -> (Vec<Day>, Span) {
    let pipeline = Pipeline::new(ABTester::new(inp.ab_seed), params(THREADS));
    let mut rng = StdRng::seed_from_u64(inp.rng_seed);
    measure(|| {
        (0..DAYS)
            .map(|d| discover_day(&inp.workload, &pipeline, d, &mut rng))
            .collect()
    })
}

/// Everything result-bearing in a report (timings, cache and tracer
/// statistics excluded: they may vary between runs).
fn report_fingerprint(r: &DiscoveryReport) -> u64 {
    let text = format!(
        "{:?}|{}|{}|{}|{}|{}|{:?}",
        r.outcomes,
        r.not_selected,
        r.out_of_window,
        r.failed_defaults,
        r.failed_candidates,
        r.duplicate_plans,
        r.vetting,
    );
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

fn compile_default(job: &Job) -> Option<CompiledPlan> {
    let obs = job.catalog.observe();
    compile_with_model(
        &job.plan,
        &obs,
        &effective_config(job, &RuleConfig::default_config()),
        &CompileBudget::default(),
        &CostModel::DEFAULT,
    )
    .ok()
}

/// Check one day's report against independent recomputation and the
/// method's properties. Returns the day's failed jobs (default did not
/// compile, or its baseline run failed).
fn check_day(out: &mut Outcome, day: &Day, p: &PipelineParams, ab: &ABTester) -> u64 {
    let r = &day.report;
    let by_id: BTreeMap<u64, &Job> = day.jobs.iter().map(|j| (j.id.0, j)).collect();
    // Baselines recomputed from scratch: fresh default compile, then the
    // same A/B harness the pipeline runs.
    let (mut no_compile, mut failed, mut out_of_window, mut in_window) = (0, 0, 0, 0);
    for job in &day.jobs {
        let Some(default) = compile_default(job) else {
            no_compile += 1;
            continue;
        };
        let run = ab.run_with_retry(job, &default.plan, 0, &p.retry);
        if !run.outcome.is_success() {
            failed += 1;
        } else if run.metrics.runtime < p.min_runtime_s || run.metrics.runtime > p.max_runtime_s {
            out_of_window += 1;
        } else {
            in_window += 1;
        }
    }
    let sampled = ((in_window as f64) * p.sample_frac).ceil() as usize;
    out.check(
        r.failed_defaults == failed
            && r.out_of_window == out_of_window
            && r.outcomes.len() + r.not_selected == sampled,
        || {
            format!(
                "job counts do not add up: report has {} failed defaults, {} out of window, {} analyzed; \
                 recomputed {failed} failed, {out_of_window} out of window, {sampled} sampled of {in_window} in window \
                 ({no_compile} without a default plan, {} jobs)",
                r.failed_defaults,
                r.out_of_window,
                r.outcomes.len() + r.not_selected,
                day.jobs.len()
            )
        },
    );
    for o in &r.outcomes {
        let Some(job) = by_id.get(&o.job_id.0) else {
            out.check(false, || format!("outcome for unknown job {}", o.job_id.0));
            continue;
        };
        let Some(default) = compile_default(job) else {
            out.check(false, || {
                format!(
                    "job {}: analyzed but its default does not compile",
                    job.id.0
                )
            });
            continue;
        };
        out.check(
            default.signature == o.group && default.est_cost.to_bits() == o.default_cost.to_bits(),
            || {
                format!(
                    "job {}: reported default plan differs from a fresh compile",
                    job.id.0
                )
            },
        );
        let default_fp = result_fingerprint(&default.plan);
        let obs = job.catalog.observe();
        let mut seen = HashSet::new();
        out.check(o.executed.len() <= p.execute_top_k, || {
            format!(
                "job {}: {} executed alternatives exceed top-{}",
                job.id.0,
                o.executed.len(),
                p.execute_top_k
            )
        });
        for pair in o.executed.windows(2) {
            out.check(pair[0].est_cost <= pair[1].est_cost, || {
                format!(
                    "job {}: executed alternatives not in ascending cost",
                    job.id.0
                )
            });
        }
        for c in &o.executed {
            out.check(c.signature != o.group, || {
                format!("job {}: executed the default plan again", job.id.0)
            });
            out.check(seen.insert(c.signature), || {
                format!("job {}: executed one plan twice", job.id.0)
            });
            match compile_with_model(
                &job.plan,
                &obs,
                &c.config,
                &p.compile_budget,
                &CostModel::DEFAULT,
            ) {
                Ok(fresh) => {
                    out.check(
                        fresh.est_cost.to_bits() == c.est_cost.to_bits()
                            && fresh.signature == c.signature,
                        || {
                            format!(
                                "job {}: a fresh uncached compile does not reproduce an executed alternative",
                                job.id.0
                            )
                        },
                    );
                    out.check(result_fingerprint(&fresh.plan) == default_fp, || {
                        format!("job {}: a steered plan changes the query result", job.id.0)
                    });
                }
                Err(e) => out.check(false, || {
                    format!(
                        "job {}: executed alternative no longer compiles: {e:?}",
                        job.id.0
                    )
                }),
            }
        }
    }
    (no_compile + failed) as u64
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let p = params(THREADS);
    // Set-up: the workload, and the 1-worker discovery of day 0 every
    // timed round's day 0 must reproduce exactly.
    let ((inp, reference), setup) = measure(|| {
        let inp = inputs(args.seed);
        let pipeline = Pipeline::new(ABTester::new(inp.ab_seed), params(1));
        let mut rng = StdRng::seed_from_u64(inp.rng_seed);
        let day0 = discover_day(&inp.workload, &pipeline, 0, &mut rng);
        (inp, report_fingerprint(&day0.report))
    });

    let (runs, overhead) = run_rounds(args, false, || round(&inp));

    // Correctness: the first round in full, every round's fingerprints
    // against it, and day 0 against the 1-worker reference.
    let ab = ABTester::new(inp.ab_seed);
    let mut failed_per_round = 0;
    for day in &runs[0].0 {
        failed_per_round += check_day(&mut out, day, &p, &ab);
    }
    let fingerprints: Vec<Vec<u64>> = runs
        .iter()
        .map(|(days, _)| days.iter().map(|d| report_fingerprint(&d.report)).collect())
        .collect();
    check_rounds_agree(&mut out, &fingerprints);
    out.check(fingerprints[0][0] == reference, || {
        format!("day 0 at {THREADS} workers differs from the 1-worker run")
    });
    let jobs_per_round: u64 = runs[0].0.iter().map(|d| d.jobs.len() as u64).sum();
    out.attempted = jobs_per_round * runs.len() as u64;
    out.failed = failed_per_round * runs.len() as u64;

    if args.trace {
        let mut layers = Layers::default();
        trace_layers(&mut layers, &inp, &runs[0].0, &runs[1].0, &p);
        layers.set("trace.overhead_pct", overhead);
        layers.into_outcome(&mut out);
    } else {
        let discover_s: f64 = runs
            .iter()
            .flat_map(|(days, _)| days)
            .map(|d| d.discover_s)
            .sum();
        end_to_end(
            &mut out,
            &runs,
            jobs_per_round as f64,
            jobs_per_round as f64,
            discover_s,
            setup.wall_s,
        );
    }
    out
}

fn hint_set(job: &Job) -> RuleSet {
    let mut forced = RuleSet::EMPTY;
    for &raw in &job.hints {
        if (raw as usize) < NUM_RULES {
            forced.insert(RuleId(raw));
        }
    }
    forced
}

/// Largest worker chunk's summed `analyze_job` time over the mean chunk's,
/// from the tracer's spans of one discovery day (one chunk per worker
/// thread).
fn chunk_imbalance(spans: &[scope_trace::SpanEvent]) -> Option<f64> {
    let mut per_thread: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "analyze_job") {
        *per_thread.entry(s.thread).or_default() += s.dur_us as f64;
    }
    let sums: Vec<f64> = per_thread.into_values().collect();
    let max = sums.iter().copied().fold(0.0, f64::max);
    (max > 0.0).then(|| max / mean(&sums))
}

/// Per-layer metrics: the untraced round's stage timings, the traced
/// round's funnel counters, cache statistics and span-derived chunk
/// balance, and outside-in timings of each layer's public entry point on
/// day 0's analyzed jobs.
fn trace_layers(
    layers: &mut Layers,
    inp: &Inputs,
    untraced: &[Day],
    traced: &[Day],
    p: &PipelineParams,
) {
    let days = untraced.len() as f64;
    layers.set(
        "workload.day_ms",
        1e3 * mean(&untraced.iter().map(|d| d.gen_s).collect::<Vec<_>>()),
    );
    layers.set(
        "pipeline.defaults_s",
        untraced
            .iter()
            .map(|d| d.report.timings.default_runs_s)
            .sum::<f64>()
            / days,
    );
    layers.set(
        "pipeline.analyze_s",
        untraced
            .iter()
            .map(|d| d.report.timings.analyze_s)
            .sum::<f64>()
            / days,
    );
    let (hits, lookups) = untraced.iter().fold((0u64, 0u64), |(h, l), d| {
        (
            h + d.report.cache.hits,
            l + d.report.cache.hits + d.report.cache.misses,
        )
    });
    layers.set("cache.hit_ratio", hits as f64 / lookups.max(1) as f64);

    let counter = |c: Counter| {
        traced
            .iter()
            .map(|d| d.report.metrics.counter(c))
            .sum::<u64>() as f64
            / days
    };
    for (name, c) in [
        ("pipeline.funnel.generated", Counter::FunnelGenerated),
        (
            "pipeline.funnel.static_rejected",
            Counter::FunnelStaticRejected,
        ),
        ("pipeline.funnel.compiled", Counter::FunnelCompiled),
        ("pipeline.funnel.cache_hit", Counter::FunnelCacheHit),
        (
            "pipeline.funnel.compile_failed",
            Counter::FunnelCompileFailed,
        ),
        ("pipeline.funnel.vetoed", Counter::FunnelVetoed),
        ("pipeline.funnel.duplicate", Counter::FunnelDuplicate),
        ("pipeline.funnel.executed", Counter::FunnelExecuted),
    ] {
        layers.set(name, counter(c));
    }
    layers.set("compile.candidate_calls", counter(Counter::FunnelCompiled));
    layers.set("exec.trials", counter(Counter::ExecRuns));
    let tasks = traced
        .iter()
        .map(|d| {
            d.report
                .metrics
                .histogram(scope_trace::Histogram::CompileTasks)
                .mean()
        })
        .collect::<Vec<_>>();
    layers.set("compile.tasks_per_candidate", mean(&tasks));

    let imbalance: Vec<f64> = traced.iter().filter_map(|d| d.imbalance).collect();
    layers.set("par.chunk_imbalance", mean(&imbalance));

    // Outside-in: each layer's public function on day 0's analyzed jobs,
    // serially and uncached.
    let day0 = &untraced[0];
    let by_id: BTreeMap<u64, &Job> = day0.jobs.iter().map(|j| (j.id.0, j)).collect();
    let probe_jobs: Vec<&Job> = day0
        .report
        .outcomes
        .iter()
        .filter_map(|o| by_id.get(&o.job_id.0).copied())
        .take(PROBE_JOBS)
        .collect();
    let ab = ABTester::new(inp.ab_seed);
    let retry = RetryPolicy::default();
    let (mut span_ms, mut search_n, mut bounds_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut classify_ns, mut compile_us, mut vet_us, mut run_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut generated, mut invalid, mut attempted, mut ok, mut retirable) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut alloc_bytes = 0u64;
    for job in probe_jobs {
        let obs = job.catalog.observe();
        let Some(default) = compile_default(job) else {
            continue;
        };
        let t = Instant::now();
        let span = approximate_span_cached(&job.plan, &obs, None);
        span_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let mut rng = StdRng::seed_from_u64(mix(inp.rng_seed, job.id.0));
        let configs = candidate_configs_effective(&span, &hint_set(job), p.m_candidates, &mut rng);
        search_n.push(configs.len() as f64);
        generated += configs.len() as u64;
        let lint = JobLint::new(&job.plan);
        let t = Instant::now();
        let verdicts: Vec<ConfigVerdict> = configs.iter().map(|c| lint.classify(c)).collect();
        classify_ns.push(t.elapsed().as_secs_f64() * 1e9 / configs.len().max(1) as f64);
        let t = Instant::now();
        let bounds = PlanBounds::analyze(&job.plan, &obs);
        bounds_us.push(t.elapsed().as_secs_f64() * 1e6);
        let mut compiled: Vec<CompiledPlan> = Vec::new();
        for (config, verdict) in configs.iter().zip(&verdicts) {
            if matches!(verdict, ConfigVerdict::Invalid { .. }) {
                invalid += 1;
                continue;
            }
            attempted += 1;
            let t = Instant::now();
            let (result, bytes) = allocated_bytes(|| {
                compile_with_model(
                    &job.plan,
                    &obs,
                    config,
                    &p.compile_budget,
                    &CostModel::DEFAULT,
                )
            });
            compile_us.push(t.elapsed().as_secs_f64() * 1e6);
            alloc_bytes += bytes;
            let Ok(c) = result else {
                continue;
            };
            ok += 1;
            if bounds.cost_lo_model(config.enabled(), &CostModel::DEFAULT) > default.est_cost {
                retirable += 1;
            }
            let t = Instant::now();
            let vetted = vet_candidate(&default, &c).is_ok();
            vet_us.push(t.elapsed().as_secs_f64() * 1e6);
            if vetted {
                compiled.push(c);
            }
        }
        compiled.sort_by(|a, b| a.est_cost.total_cmp(&b.est_cost));
        for plan in std::iter::once(&default).chain(compiled.iter().take(p.execute_top_k)) {
            let t = Instant::now();
            let _run = ab.run_with_retry(job, &plan.plan, 0, &retry);
            run_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    layers.set("span.ms_per_job", mean(&span_ms));
    layers.set("search.candidates_per_job", mean(&search_n));
    layers.set("lint.classify_ns", mean(&classify_ns));
    layers.set(
        "lint.invalid_ratio",
        invalid as f64 / generated.max(1) as f64,
    );
    layers.set("bounds.analyze_us_per_job", mean(&bounds_us));
    layers.set(
        "bounds.retirable_ratio",
        retirable as f64 / ok.max(1) as f64,
    );
    layers.set("compile.candidate_us_p50", median(&compile_us));
    layers.set("compile.candidate_us_p99", quantile(&compile_us, 0.99));
    layers.set(
        "compile.candidate_ok_ratio",
        ok as f64 / attempted.max(1) as f64,
    );
    layers.set(
        "compile.alloc_kb_per_candidate",
        alloc_bytes as f64 / 1024.0 / attempted.max(1) as f64,
    );
    layers.set("guard.vet_us", mean(&vet_us));
    layers.set("exec.run_us", mean(&run_us));
}
