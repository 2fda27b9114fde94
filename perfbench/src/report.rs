//! The run's result: correctness, operation counts and named metrics,
//! printed as one JSON object on the last line of standard output.

use std::process::ExitCode;

use crate::probe::Span;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Failed correctness checks, one line each. Any entry fails the run.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Record a correctness check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let line = what();
            eprintln!("CHECK FAILED: {line}");
            self.problems.push(line);
        }
    }

    /// Print the result line and map it to the exit code: 0 when every
    /// check held and every metric is a finite number, 1 otherwise.
    pub fn print(mut self) -> ExitCode {
        for m in &self.metrics {
            if !m.value.is_finite() {
                self.problems
                    .push(format!("metric {} is not finite ({})", m.name, m.value));
            }
        }
        let correct = self.problems.is_empty();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        }
    }
}

/// Median of `xs` (mean of the middle pair for even lengths); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated `q`-quantile of `xs`; NaN when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Mean of `xs`; 0 when empty (a layer that did no work).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Every per-layer metric a traced run reports, with its unit. A workload
/// that does not exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.day_ms", "ms"),
    ("compile.candidate_us_p50", "us"),
    ("compile.candidate_us_p99", "us"),
    ("compile.candidate_calls", "count"),
    ("compile.candidate_ok_ratio", "ratio"),
    ("compile.tasks_per_candidate", "count"),
    ("compile.alloc_kb_per_candidate", "KiB"),
    ("compile.default_us_p50", "us"),
    ("compile.default_per_job_day", "count"),
    ("cache.hit_ratio", "ratio"),
    ("span.ms_per_job", "ms"),
    ("search.candidates_per_job", "count"),
    ("lint.classify_ns", "ns"),
    ("lint.invalid_ratio", "ratio"),
    ("bounds.analyze_us_per_job", "us"),
    ("bounds.retirable_ratio", "ratio"),
    ("guard.vet_us", "us"),
    ("exec.run_us", "us"),
    ("exec.trials", "count"),
    ("pipeline.defaults_s", "s"),
    ("pipeline.analyze_s", "s"),
    ("pipeline.funnel.generated", "count"),
    ("pipeline.funnel.static_rejected", "count"),
    ("pipeline.funnel.compiled", "count"),
    ("pipeline.funnel.cache_hit", "count"),
    ("pipeline.funnel.compile_failed", "count"),
    ("pipeline.funnel.vetoed", "count"),
    ("pipeline.funnel.duplicate", "count"),
    ("pipeline.funnel.executed", "count"),
    ("par.chunk_imbalance", "ratio"),
    ("flight.serve_day_ms", "ms"),
    ("flight.revalidate_ms", "ms"),
    ("flight.advance_us", "us"),
    ("flight.journal_events", "count"),
    ("flight.journal_kb", "KiB"),
    ("flight.recover_ms", "ms"),
    ("feedback.ingest_ns", "ns"),
    ("feedback.end_of_day_us", "us"),
    ("feedback.active_templates", "count"),
    ("serve.lookup_ns_p50", "ns"),
    ("serve.lookup_ns_p99", "ns"),
    ("serve.day_ms", "ms"),
    ("serve.publish_us", "us"),
    ("serve.steered_ratio", "ratio"),
    ("deploy.day_s", "s"),
    ("learn.dataset_ms", "ms"),
    ("learn.train_ms_per_group", "ms"),
    ("learn.choose_us", "us"),
    ("learn.train_s", "s"),
    ("learn.samples_per_group", "count"),
    ("process.peak_rss_mb", "MiB"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer values a traced run measured, filled into the full
/// [`PER_LAYER`] list in its order (unmeasured layers read 0).
#[derive(Default)]
pub struct Layers {
    values: Vec<(&'static str, f64)>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "per-layer metric {name} is not declared"
        );
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    pub fn into_outcome(mut self, out: &mut Outcome) {
        self.set("process.peak_rss_mb", crate::probe::peak_rss_mib());
        for &(name, unit) in PER_LAYER {
            let value = self
                .values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            out.metric(name, value, unit);
        }
    }
}

/// Fail the run unless every round's fingerprint equals the first's.
pub fn check_rounds_agree<F: PartialEq>(out: &mut Outcome, fingerprints: &[F]) {
    for (i, f) in fingerprints.iter().enumerate() {
        out.check(*f == fingerprints[0], || {
            format!("round {i} differs from round 0")
        });
    }
}

/// The end-to-end metrics every workload reports: from its timed rounds
/// `runs` (each doing `jobs_per_round` jobs and `ops_per_round`
/// operations), the medians over rounds of the jobs per wall second and
/// the CPU seconds; the operations per wall second spent inside the
/// public call that handles them, `op_wall_s` over all timed rounds
/// together; and the set-up time. Also prints, to standard error, the
/// timed intervals each metric rests on.
pub fn end_to_end<R>(
    out: &mut Outcome,
    runs: &[(R, Span)],
    jobs_per_round: f64,
    ops_per_round: f64,
    op_wall_s: f64,
    setup_s: f64,
) {
    let walls: Vec<f64> = runs.iter().map(|(_, s)| s.wall_s).collect();
    let cpus: Vec<f64> = runs.iter().map(|(_, s)| s.cpu_s).collect();
    let rates: Vec<f64> = walls.iter().map(|w| jobs_per_round / w).collect();
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    eprintln!(
        "intervals: {{\"jobs_per_s\": [{}], \"cpu_s\": [{}], \"ops_per_s\": [{op_wall_s:.4}], \"setup_s\": [{setup_s:.4}]}}",
        list(&walls),
        list(&cpus),
    );
    out.metric("jobs_per_s", median(&rates), "jobs/s");
    out.metric("cpu_s", median(&cpus), "s");
    out.metric(
        "ops_per_s",
        ops_per_round * runs.len() as f64 / op_wall_s,
        "1/s",
    );
    out.metric("setup_s", setup_s, "s");
}
