//! `deploy_days`: the daily loop after deployment, over consecutive virtual
//! days of Workload A. Set-up discovers day 0, minimizes the winners and
//! ingests them into a `FlightController`; it runs `SETUPS` times and
//! `setup_s` is the median. Each timed day then runs
//! flighting (`serve_day`, `revalidate_background`, `advance`), the
//! runtime-feedback loop (`model_for` compiles, `ingest`, `end_of_day`),
//! `publish_from`, and `SteeringService::serve_day` at 2 threads over a
//! closed-loop request stream of 100 requests per job. A round is the
//! same virtual days from the set-up state, so every round does identical
//! work.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use scope_exec::{ABTester, ArrivalCurve, RetryPolicy, ServeFaultProfile};
use scope_optimizer::{
    compile_job, compile_job_with_model, CompileBudget, CostWeights, RuleConfig,
};
use scope_trace::{Counter, Histogram, MetricsSnapshot};
use scope_workload::{Workload, WorkloadProfile};
use steer_core::par::run_chunked_on;
use steer_core::{
    minimize_config, winning_configs, CorrectionBand, CorrectionStore, FlightConfig,
    FlightController, HintStatus, Pipeline, PipelineParams, ServeRequest, ServiceConfig,
    SteeringService,
};

use crate::probe::{measure, median_setup, mix, run_rounds, Span};
use crate::report::{check_rounds_agree, end_to_end, mean, median, quantile, Layers, Outcome};
use crate::Args;

/// Virtual days per round (day 0 is the set-up's discovery day).
const DAYS: u32 = 15;
/// Serving threads and discovery workers: the machine's core count.
const THREADS: usize = 2;
/// Serving requests per job per virtual day (paper scale: ≈95k/day).
const REQUESTS_PER_JOB: u64 = 100;
/// After serving this day, the day's most-steered group is retired from
/// the serving table for the rest of the round.
const RETIRE_DAY: u32 = DAYS / 2;
/// Candidate configurations per job in the set-up's discovery of day 0.
/// A quarter of the experiment's M keeps one set-up near 4 s, so that
/// `SETUPS` of them fit a run.
const SETUP_M: usize = 250;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Inputs {
    workload: Workload,
    ab_seed: u64,
    serve_seed: u64,
    /// The controller after ingesting day 0's minimized winners.
    start: FlightController,
    /// Per virtual day `1..=DAYS`: each job's id and default-plan group key.
    day_keys: Vec<Vec<(u64, String)>>,
}

fn setup(seed: u64) -> Inputs {
    let workload = Workload::generate(WorkloadProfile::workload_a(1.0));
    let ab_seed = mix(2021, seed);
    let params = PipelineParams {
        m_candidates: SETUP_M,
        ..crate::discover::params(THREADS)
    };
    let pipeline = Pipeline::new(ABTester::new(ab_seed), params);
    let day0 = workload.day(0);
    let mut rng = StdRng::seed_from_u64(mix(0x5E24E, seed));
    let report = pipeline.discover(&day0, &mut rng);
    let mut winners = Vec::new();
    for w in winning_configs(&report.outcomes, 10.0) {
        let Some(job) = day0.iter().find(|j| j.id == w.base_job) else {
            continue;
        };
        if let Some(min) = minimize_config(job, &w.config) {
            let mut m = w.clone();
            m.config = min.config;
            winners.push(m);
        }
    }
    let mut start = FlightController::new(FlightConfig::default());
    start.ingest(&winners, 0);
    let default = RuleConfig::default_config();
    let day_keys = (1..=DAYS)
        .map(|day| {
            let jobs = workload.day(day);
            run_chunked_on(
                &jobs,
                THREADS,
                |job| {
                    let key = compile_job(job, &default)
                        .map(|c| c.signature.to_bit_string())
                        .unwrap_or_default();
                    Some((job.id.0, key))
                },
                |job| format!("job {}", job.id.0),
            )
        })
        .collect();
    Inputs {
        workload,
        ab_seed,
        serve_seed: mix(0x5E2E, seed),
        start,
        day_keys,
    }
}

fn requests(inp: &Inputs, day: u32) -> Vec<ServeRequest> {
    let curve = ArrivalCurve::new(inp.serve_seed);
    let keys = &inp.day_keys[(day - 1) as usize];
    let mut out = Vec::with_capacity(keys.len() * REQUESTS_PER_JOB as usize);
    for (job_id, key) in keys {
        for k in 0..REQUESTS_PER_JOB {
            let idx = out.len() as u64;
            out.push(ServeRequest {
                job_id: job_id.wrapping_mul(REQUESTS_PER_JOB).wrapping_add(k),
                group_key: key.clone(),
                arrival_us: curve.arrival_us(day, idx, None),
            });
        }
    }
    out
}

/// Per-day timings of one layer call each, measured around the call.
#[derive(Default)]
struct DayTimes {
    jobs: usize,
    flight_serve_s: f64,
    revalidate_s: f64,
    advance_s: f64,
    ingest_s: f64,
    ingests: usize,
    end_of_day_s: f64,
    publish_s: f64,
    serve_s: f64,
    decisions: usize,
    steered: usize,
    /// Optimizer compiles in the flight and feedback steps (traced only),
    /// minus the hint compiles `serve_day` reports.
    default_compiles: u64,
    exec_runs: u64,
}

struct Round {
    days: Vec<DayTimes>,
    requests: u64,
    answered: u64,
    recover_s: f64,
    journal_lines: usize,
    journal_bytes: usize,
    active_templates: usize,
    /// Hash of every day's decision stream and the final snapshot.
    fingerprint: u64,
}

fn service_config(inp: &Inputs) -> ServiceConfig {
    ServiceConfig {
        seed: inp.serve_seed,
        ..ServiceConfig::default()
    }
}

/// One round: `DAYS` virtual days from the set-up state. With `check`,
/// every correctness check runs on the way (outside the timed segments).
fn round(inp: &Inputs, out: &mut Outcome, check: bool) -> (Round, Span) {
    let ab = ABTester::new(inp.ab_seed);
    let retry = RetryPolicy::default();
    let budget = CompileBudget::default();
    let default = RuleConfig::default_config();
    let fault = ServeFaultProfile::none();
    let band = CorrectionBand::DEFAULT;
    let mut flights = inp.start.clone();
    let mut service = SteeringService::new(service_config(inp));
    let mut store = CorrectionStore::new();
    let mut banned: BTreeSet<String> = BTreeSet::new();
    let mut timed = Span::default();
    let mut r = Round {
        days: Vec::new(),
        requests: 0,
        answered: 0,
        recover_s: 0.0,
        journal_lines: 0,
        journal_bytes: 0,
        active_templates: 0,
        fingerprint: 0,
    };
    let mut fp = DefaultHasher::new();
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    for day in 1..=DAYS {
        let mut dt = DayTimes::default();
        let before = scope_trace::enabled().then(MetricsSnapshot::capture);
        let (served_hints, span) = measure(|| {
            let jobs = inp.workload.day(day);
            dt.jobs = jobs.len();
            let mut flight_report = None;
            dt.flight_serve_s = time(&mut || {
                flight_report = Some(flights.serve_day(&jobs, &ab, &retry, day));
            });
            dt.revalidate_s = time(&mut || {
                flights.revalidate_background(&jobs, &ab, day);
            });
            dt.advance_s = time(&mut || {
                flights.advance(day);
            });
            for (i, job) in jobs.iter().enumerate() {
                let model = store.model_for(job.template.0, CostWeights::DEFAULT);
                let Ok(c) = compile_job_with_model(job, &default, &budget, &model) else {
                    continue;
                };
                let m = ab.run(job, &c.plan, 0);
                let token = u64::from(day) << 32 | i as u64;
                let ti = Instant::now();
                store.ingest(job.template.0, token, &c.est_cost_vec, &m, false);
                dt.ingest_s += ti.elapsed().as_secs_f64();
                dt.ingests += 1;
            }
            dt.end_of_day_s = time(&mut || {
                store.end_of_day(|_, _| true);
            });
            dt.publish_s = time(&mut || {
                service.publish_from(&flights, &fault);
                for g in &banned {
                    service.retire(g);
                }
            });
            flight_report.map_or(0, |f| (f.steered + f.vetoes) as u64)
        });
        timed.add(span);
        if let Some(before) = before {
            let delta = MetricsSnapshot::capture().since(&before);
            dt.default_compiles = delta
                .histogram(Histogram::CompileMicros)
                .count
                .saturating_sub(served_hints);
            dt.exec_runs = delta.counter(Counter::ExecRuns);
        }

        let reqs = requests(inp, day);
        let (report, span) = measure(|| service.serve_day(&reqs, &fault, day, THREADS));
        timed.add(span);
        dt.serve_s = span.wall_s;
        dt.decisions = report.decisions.len();
        dt.steered = report.steered;
        r.requests += reqs.len() as u64;
        r.answered += reqs
            .iter()
            .zip(&report.decisions)
            .filter(|(q, d)| q.job_id == d.job_id)
            .count() as u64;
        report.fingerprint.hash(&mut fp);

        if check {
            out.check(report.decisions.len() == reqs.len(), || {
                format!(
                    "day {day}: {} decisions for {} requests",
                    report.decisions.len(),
                    reqs.len()
                )
            });
            for d in report.decisions.iter().filter(|d| d.steered) {
                let group = d.group.as_deref().unwrap_or("");
                let hint = flights.store.hint(group);
                out.check(
                    hint.is_some_and(|h| h.status == HintStatus::Active && h.config == d.config),
                    || {
                        format!(
                            "day {day}: steered decision does not carry its group's Active hint"
                        )
                    },
                );
                out.check(!banned.contains(group), || {
                    format!("day {day}: steered onto a retired group")
                });
            }
            let templates: BTreeSet<u64> =
                inp.workload.day(day).iter().map(|j| j.template.0).collect();
            for t in templates {
                let c = store.corrections_for(t);
                let inside = |x: f64| x.is_finite() && x > 0.0 && band.lo <= x && x <= band.hi;
                out.check(inside(c.rows) && inside(c.cpu) && inside(c.io), || {
                    format!("day {day}: template {t} correction {c:?} outside {band:?}")
                });
            }
            if day == DAYS {
                // The same day's stream at one serving thread, on a fresh
                // service built from the same controller state.
                let mut one = SteeringService::new(service_config(inp));
                one.publish_from(&flights, &fault);
                for g in &banned {
                    one.retire(g);
                }
                let single = one.serve_day(&reqs, &fault, day, 1);
                out.check(single.fingerprint == report.fingerprint, || {
                    format!("day {day}: decision stream differs between 1 and {THREADS} threads")
                });
            }
        }
        if day == RETIRE_DAY {
            let mut steered: BTreeMap<&str, usize> = BTreeMap::new();
            for d in report.decisions.iter().filter(|d| d.steered) {
                *steered.entry(d.group.as_deref().unwrap_or("")).or_default() += 1;
            }
            let victim = steered
                .into_iter()
                .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(a.0)))
                .map(|(g, _)| g.to_string());
            if let Some(victim) = victim {
                let (_, span) = measure(|| service.retire(&victim));
                timed.add(span);
                banned.insert(victim);
            }
        }
        r.days.push(dt);
    }
    let config = flights.config.clone();
    let journal = flights.journal_text();
    let (recovered, span) = measure(|| FlightController::recover(None, &journal, config));
    timed.add(span);
    r.recover_s = span.wall_s;
    let live = flights.snapshot_text();
    if check {
        out.check(
            recovered
                .as_ref()
                .is_ok_and(|(c, _)| c.snapshot_text() == live),
            || "recovery from the journal does not reproduce the live controller".to_string(),
        );
    }
    live.hash(&mut fp);
    r.journal_lines = journal.lines().count();
    r.journal_bytes = journal.len();
    r.active_templates = store.active_count();
    r.fingerprint = fp.finish();
    (r, timed)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (inp, setup_s) = median_setup(SETUPS, || setup(args.seed));
    let mut first = true;
    let (runs, overhead) = run_rounds(args, true, || {
        let r = round(&inp, &mut out, first);
        first = false;
        r
    });
    let fingerprints: Vec<u64> = runs.iter().map(|(r, _)| r.fingerprint).collect();
    check_rounds_agree(&mut out, &fingerprints);
    out.attempted = runs.iter().map(|(r, _)| r.requests).sum();
    out.failed = runs.iter().map(|(r, _)| r.requests - r.answered).sum();
    let jobs: usize = runs[0].0.days.iter().map(|d| d.jobs).sum();

    if args.trace {
        let mut layers = Layers::default();
        trace_layers(&mut layers, &inp, &runs[0], &runs[1].0);
        layers.set("trace.overhead_pct", overhead);
        layers.into_outcome(&mut out);
    } else {
        // The warm-up round (the checked one) is left out.
        let timed = &runs[1..];
        let serve_s: f64 = timed
            .iter()
            .flat_map(|(r, _)| &r.days)
            .map(|d| d.serve_s)
            .sum();
        let requests = runs[0].0.requests as f64;
        end_to_end(&mut out, timed, jobs as f64, requests, serve_s, setup_s);
    }
    out
}

fn trace_layers(layers: &mut Layers, inp: &Inputs, untraced: &(Round, Span), traced: &Round) {
    let (r, span) = untraced;
    let per_day = |f: &dyn Fn(&DayTimes) -> f64| mean(&r.days.iter().map(f).collect::<Vec<_>>());
    layers.set("flight.serve_day_ms", 1e3 * per_day(&|d| d.flight_serve_s));
    layers.set("flight.revalidate_ms", 1e3 * per_day(&|d| d.revalidate_s));
    layers.set("flight.advance_us", 1e6 * per_day(&|d| d.advance_s));
    layers.set("flight.journal_events", r.journal_lines as f64);
    layers.set("flight.journal_kb", r.journal_bytes as f64 / 1024.0);
    layers.set("flight.recover_ms", 1e3 * r.recover_s);
    let ingests: usize = r.days.iter().map(|d| d.ingests).sum();
    let ingest_s: f64 = r.days.iter().map(|d| d.ingest_s).sum();
    layers.set("feedback.ingest_ns", 1e9 * ingest_s / ingests.max(1) as f64);
    layers.set("feedback.end_of_day_us", 1e6 * per_day(&|d| d.end_of_day_s));
    layers.set("feedback.active_templates", r.active_templates as f64);
    layers.set("serve.day_ms", 1e3 * per_day(&|d| d.serve_s));
    layers.set("serve.publish_us", 1e6 * per_day(&|d| d.publish_s));
    let decisions: usize = r.days.iter().map(|d| d.decisions).sum();
    let steered: usize = r.days.iter().map(|d| d.steered).sum();
    layers.set(
        "serve.steered_ratio",
        steered as f64 / decisions.max(1) as f64,
    );
    layers.set("deploy.day_s", span.wall_s / f64::from(DAYS));
    let jobs: usize = traced.days.iter().map(|d| d.jobs).sum();
    let compiles: u64 = traced.days.iter().map(|d| d.default_compiles).sum();
    layers.set(
        "compile.default_per_job_day",
        compiles as f64 / jobs.max(1) as f64,
    );
    let runs: u64 = traced.days.iter().map(|d| d.exec_runs).sum();
    layers.set("exec.trials", runs as f64 / f64::from(DAYS));

    // Outside-in: default compiles and simulated runs on day 1's jobs,
    // serving-table lookups on day 1's request keys against a table
    // published from the set-up controller advanced one day.
    let ab = ABTester::new(inp.ab_seed);
    let default = RuleConfig::default_config();
    let jobs = inp.workload.day(1);
    let mut compile_us = Vec::new();
    let mut run_us = Vec::new();
    for job in jobs.iter().take(300) {
        let t = Instant::now();
        let Ok(c) = compile_job(job, &default) else {
            continue;
        };
        compile_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let _ = ab.run(job, &c.plan, 0);
        run_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    layers.set("compile.default_us_p50", median(&compile_us));
    layers.set("exec.run_us", mean(&run_us));
    let mut flights = inp.start.clone();
    flights.advance(1);
    let mut service = SteeringService::new(service_config(inp));
    service.publish_from(&flights, &ServeFaultProfile::none());
    let mut lookup_ns = Vec::new();
    for (_, key) in &inp.day_keys[0] {
        for _ in 0..20 {
            let t = Instant::now();
            let hit = service.table.lookup(key);
            lookup_ns.push(t.elapsed().as_secs_f64() * 1e9);
            std::hint::black_box(hit);
        }
    }
    layers.set("serve.lookup_ns_p50", median(&lookup_ns));
    layers.set("serve.lookup_ns_p99", quantile(&lookup_ns, 0.99));
}
