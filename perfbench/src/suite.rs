//! The `suite` scenario: the paper's batch job, the 50-benchmark suite
//! at `AnalysisRequest::new()` defaults with an auto `WorkerBudget`.
//! Simulation dominates it and it never touches the daemon.

use crate::report::{report_bits, Metrics, Tally};
use crate::spans::Tracer;
use crate::stats::median;
use fuzzyphase::pipeline::run_benchmark;
use fuzzyphase::{
    all_benchmarks, run_suite, AnalysisRequest, BenchmarkId, BenchmarkSpec, Quadrant, SuiteResult,
    WorkerBudget,
};
use fuzzyphase_profiler::ProfileSession;
use fuzzyphase_regtree::{analyze, PredictabilityReport};
use fuzzyphase_stats::SeedSequence;
use fuzzyphase_workload::dss::DssDatabase;
use fuzzyphase_workload::{Workload, WorkloadEvent};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The probe subset other workloads run: one benchmark per paper
/// quadrant, serially (four jobs on two workers would make the wall
/// time hinge on how the jobs pair up).
const PROBE: [&str; 4] = ["gzip", "wupwise", "gcc", "mcf"];

/// Benchmarks the traced run also runs untraced, to measure the tracing
/// overhead.
const OVERHEAD_SUBSET: usize = 10;

/// Set-ups measured per run; the median is reported.
const SETUP_REPS: usize = 21;

pub fn specs(full: bool) -> Vec<BenchmarkSpec> {
    if full {
        all_benchmarks()
    } else {
        PROBE.iter().map(|n| BenchmarkSpec::spec(n)).collect()
    }
}

pub fn request(seed: u64, full: bool) -> AnalysisRequest {
    let req = AnalysisRequest::new().with_seed(seed);
    if full {
        req
    } else {
        req.with_workers(WorkerBudget::suite_only(1))
    }
}

/// The suite's set-up: the shared DSS database image plus every
/// benchmark's workload, as `run_suite` builds them.
pub fn setup_s(specs: &[BenchmarkSpec], req: &AnalysisRequest) -> f64 {
    let times: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            let db = DssDatabase::new();
            let seeds = SeedSequence::new(req.seed());
            let built: Vec<Box<dyn Workload>> = specs
                .iter()
                .map(|s| s.build(seeds.seed_for(&s.name()), Some(&db)))
                .collect();
            black_box(built);
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Untraced: at least `passes` `run_suite` passes, and more until
/// `seconds` have been spent; the mean pass wall counts. The host's
/// speed shifts every few seconds, so a time average over more passes
/// is steadier than any one pass or their median. The first pass is
/// checked in full, every later one against the first, bit for bit.
pub fn run(
    specs: &[BenchmarkSpec],
    req: &AnalysisRequest,
    passes: usize,
    seconds: f64,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut first: Option<SuiteResult> = None;
    while walls.len() < passes || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let result = run_suite(specs, req);
        walls.push(t.elapsed().as_secs_f64());
        match &first {
            None => {
                check(specs, req, &result, tally);
                m.put("suite.quadrant_agreement", "ratio", result.agreement());
                first = Some(result);
            }
            Some(f) => {
                for (a, b) in f.benchmarks.iter().zip(&result.benchmarks) {
                    tally.check(
                        a.quadrant == b.quadrant
                            && report_bits(&a.report) == report_bits(&b.report),
                        || format!("{}: pass {} differs from pass 1", b.name, walls.len()),
                    );
                }
            }
        }
    }
    m.put(
        "suite_s",
        "s",
        walls.iter().sum::<f64>() / walls.len() as f64,
    );
    m.counts.insert("suite_s", walls.len());
}

/// Checks a `run_suite` result: every report and quadrant re-derived
/// from the benchmark's own profile, and one seed-chosen benchmark
/// re-run end to end through `run_benchmark`, bit for bit.
fn check(specs: &[BenchmarkSpec], req: &AnalysisRequest, result: &SuiteResult, tally: &mut Tally) {
    tally.check(result.benchmarks.len() == specs.len(), || {
        format!(
            "suite returned {} of {} benchmarks",
            result.benchmarks.len(),
            specs.len()
        )
    });
    for b in &result.benchmarks {
        let eipvs = b.profile.eipvs();
        let report = analyze(&eipvs.vectors, &eipvs.cpis, req.analysis());
        let quadrant = req
            .thresholds()
            .classify(report.cpi_variance, report.re_min);
        tally.check(
            report_bits(&report) == report_bits(&b.report) && quadrant == b.quadrant,
            || {
                format!(
                    "{}: report differs from analyze over its own profile",
                    b.name
                )
            },
        );
    }
    let i = (req.seed() % specs.len() as u64) as usize;
    let again = run_benchmark(&specs[i], req);
    let same = result.benchmarks.get(i).is_some_and(|b| {
        b.name == again.name
            && b.quadrant == again.quadrant
            && report_bits(&b.report) == report_bits(&again.report)
            && b.profile == again.profile
    });
    tally.check(same, || {
        format!("{}: run_benchmark differs from run_suite", again.name)
    });
}

/// Times every `next_event` call of the workload it wraps (when
/// `timed`). The events are too many to record one span each, so their
/// summed time becomes the inner time of the enclosing `profiler.run`
/// span.
struct TimedWorkload<W> {
    inner: W,
    timed: bool,
    ns: u64,
    events: u64,
}

impl<W: Workload> Workload for TimedWorkload<W> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_event(&mut self) -> WorkloadEvent {
        self.events += 1;
        if !self.timed {
            return self.inner.next_event();
        }
        let t = Instant::now();
        let e = self.inner.next_event();
        self.ns += t.elapsed().as_nanos() as u64;
        e
    }
}

/// One benchmark's outcome in the traced pass.
struct Outcome {
    name: String,
    report: PredictabilityReport,
    quadrant: Quadrant,
    vectors: usize,
    events: u64,
}

/// One benchmark the way `run_benchmark_with_db` runs it, taken apart
/// into the calls it makes, one span around each.
fn run_one(
    spec: &BenchmarkSpec,
    item: u64,
    req: &AnalysisRequest,
    db: Option<&Arc<DssDatabase>>,
    tr: &mut Tracer,
) -> Outcome {
    let b = tr.begin("core.benchmark", item, None);
    let s = tr.begin("workload.build", item, Some(b));
    let seed = SeedSequence::new(req.seed()).seed_for(&spec.name());
    let mut workload = TimedWorkload {
        inner: spec.build(seed, db),
        timed: tr.enabled(),
        ns: 0,
        events: 0,
    };
    tr.end(s);
    let mut pcfg = req.profile().clone();
    pcfg.sampler = spec.sampler;
    let s = tr.begin("profiler.run", item, Some(b));
    let profile = ProfileSession::run(&mut workload, &pcfg);
    tr.end(s);
    tr.add_inner(s, workload.ns);
    let s = tr.begin("profiler.eipvs", item, Some(b));
    let eipvs = profile.eipvs();
    tr.end(s);
    let s = tr.begin("regtree.analyze", item, Some(b));
    let report = analyze(&eipvs.vectors, &eipvs.cpis, req.analysis());
    tr.end(s);
    let s = tr.begin("core.classify", item, Some(b));
    let quadrant = req
        .thresholds()
        .classify(report.cpi_variance, report.re_min);
    tr.end(s);
    tr.end(b);
    Outcome {
        name: spec.name(),
        report,
        quadrant,
        vectors: eipvs.len(),
        events: workload.events,
    }
}

/// Traced: `run_suite` with the auto budget (the reference and the
/// parallel wall), then a serial traced pass, which must match the
/// reference bit for bit and doubles as the single-threaded baseline.
/// Tracing overhead is measured on the first [`OVERHEAD_SUBSET`]
/// benchmarks, each also run untraced right beside its traced run (in
/// alternating order), so both see the same host speed.
pub fn run_traced(
    specs: &[BenchmarkSpec],
    req: &AnalysisRequest,
    m: &mut Metrics,
    tally: &mut Tally,
    tr: &mut Tracer,
) {
    let workers = req.workers().resolve(specs.len()).0;
    let t = Instant::now();
    let reference = run_suite(specs, req);
    let wall_par = t.elapsed().as_secs_f64();

    let s = tr.begin("workload.dss_image", 0, None);
    let db = specs
        .iter()
        .any(|s| matches!(s.id, BenchmarkId::OdbH(_)))
        .then(DssDatabase::new);
    tr.end(s);
    let mut untraced = Vec::new();
    let mut untraced_s = 0.0;
    let mut untimed = |i: usize, spec: &BenchmarkSpec| {
        let t = Instant::now();
        untraced.push(run_one(
            spec,
            i as u64,
            req,
            db.as_ref(),
            &mut Tracer::new(false),
        ));
        untraced_s += t.elapsed().as_secs_f64();
    };
    let mut traced = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let paired = i < OVERHEAD_SUBSET;
        if paired && i % 2 == 0 {
            untimed(i, spec);
        }
        traced.push(run_one(spec, i as u64, req, db.as_ref(), tr));
        if paired && i % 2 == 1 {
            untimed(i, spec);
        }
    }
    let benchmark_s = tr.durations_us("core.benchmark");
    let paired_traced_s = benchmark_s[..untraced.len()].iter().sum::<f64>() / 1e6;

    tally.check(traced.len() == specs.len(), || {
        "traced pass lost benchmarks".into()
    });
    for (i, (r, o)) in reference.benchmarks.iter().zip(&traced).enumerate() {
        let bits = report_bits(&r.report);
        let untraced_same = untraced
            .get(i)
            .is_none_or(|u| bits == report_bits(&u.report) && r.quadrant == u.quadrant);
        tally.check(
            r.name == o.name
                && bits == report_bits(&o.report)
                && r.quadrant == o.quadrant
                && untraced_same,
            || format!("{}: serial pass differs from run_suite", r.name),
        );
    }

    m.put("workload.next_event_s", "s", tr.inner_s("profiler.run"));
    m.put(
        "workload.events",
        "count",
        traced.iter().map(|o| o.events).sum::<u64>() as f64,
    );
    m.put("profiler.run_self_s", "s", tr.self_s("profiler.run"));
    m.put("profiler.eipvs_s", "s", tr.total_s("profiler.eipvs"));
    m.put(
        "profiler.vectors",
        "count",
        traced.iter().map(|o| o.vectors).sum::<usize>() as f64,
    );
    m.put("regtree.analyze_s", "s", tr.total_s("regtree.analyze"));
    m.put(
        "core.suite_idle_s",
        "s",
        workers as f64 * wall_par - tr.total_s("core.benchmark"),
    );
    m.put(
        "core.serial_suite_s",
        "s",
        tr.total_s("workload.dss_image") + tr.total_s("core.benchmark"),
    );
    m.put("suite.quadrant_agreement", "ratio", reference.agreement());
    m.put("trace.overhead_s", "s", paired_traced_s - untraced_s);
    m.put(
        "trace.overhead_pct",
        "%",
        (paired_traced_s - untraced_s) / untraced_s * 100.0,
    );
}
