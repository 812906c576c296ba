//! Reproducibility: every stochastic component is a pure function of its
//! seed, end to end.

use fuzzyphase::prelude::*;

fn cfg(seed: u64) -> AnalysisRequest {
    AnalysisRequest::new()
        .with_intervals(20)
        .with_warmup(4)
        .with_seed(seed)
}

#[test]
fn same_seed_same_everything() {
    let a = cfg(1).run(&BenchmarkSpec::odb_h(13));
    let b = cfg(1).run(&BenchmarkSpec::odb_h(13));
    assert_eq!(a.profile, b.profile);
    assert_eq!(a.report, b.report);
    assert_eq!(a.quadrant, b.quadrant);
}

#[test]
fn different_seed_different_samples_same_shape() {
    let a = cfg(1).run(&BenchmarkSpec::spec("mcf"));
    let b = cfg(2).run(&BenchmarkSpec::spec("mcf"));
    assert_ne!(a.profile.samples, b.profile.samples);
    // The *character* is seed-independent.
    assert_eq!(a.quadrant, b.quadrant);
    assert!((a.report.cpi_mean - b.report.cpi_mean).abs() < 0.4);
}

#[test]
fn suite_parallelism_does_not_change_results() {
    let specs = vec![
        BenchmarkSpec::spec("gzip"),
        BenchmarkSpec::spec("art"),
        BenchmarkSpec::odb_h(8),
    ];
    let c1 = cfg(5).with_workers(WorkerBudget::suite_only(1));
    let c3 = cfg(5).with_workers(WorkerBudget { suite: 3, fold: 2 });
    let serial = c1.run_suite(&specs);
    let parallel = c3.run_suite(&specs);
    for (a, b) in serial.benchmarks.iter().zip(&parallel.benchmarks) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.report, b.report);
    }
}

#[test]
fn workloads_are_deterministic_generators() {
    use fuzzyphase::workload::Workload;
    for spec in [
        BenchmarkSpec::odb_c(),
        BenchmarkSpec::sjas(),
        BenchmarkSpec::odb_h(18),
        BenchmarkSpec::spec("gcc"),
    ] {
        let mut a = spec.build(9, None);
        let mut b = spec.build(9, None);
        for _ in 0..500 {
            assert_eq!(a.next_event(), b.next_event(), "{}", spec.name());
        }
    }
}

#[test]
fn cross_validation_depends_only_on_seed() {
    use fuzzyphase::regtree::{cross_validate, Dataset};
    use fuzzyphase::stats::SparseVec;
    let rows: Vec<SparseVec> = (0..60)
        .map(|i| SparseVec::from_pairs([((i % 6) as u32, 10.0 + i as f64)]))
        .collect();
    let ys: Vec<f64> = (0..60).map(|i| 1.0 + (i % 6) as f64 * 0.2).collect();
    let ds = Dataset::new(rows, ys);
    assert_eq!(cross_validate(&ds, 3), cross_validate(&ds, 3));
    assert_ne!(cross_validate(&ds, 3).re, cross_validate(&ds, 4).re);
}

/// FNV-1a over 64-bit words: a stable, dependency-free digest.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Known-answer pin of the simulator: a digest of every sampled EIP,
/// thread and CPI bit, every interval statistic, the run totals and the
/// RE curve of seven benchmarks covering the OLTP, Java, DSS and SPEC
/// models. Any change to the RNG stream, cache/TLB/branch models,
/// workload sampling or the sampler moves it; performance work on
/// those layers must leave it unchanged (DESIGN.md D16).
#[test]
fn simulator_known_answer_digest() {
    let req = AnalysisRequest::new()
        .with_intervals(24)
        .with_warmup(2)
        .with_seed(0x5EED);
    let specs = [
        BenchmarkSpec::odb_c(),
        BenchmarkSpec::sjas(),
        BenchmarkSpec::odb_h(13),
        BenchmarkSpec::spec("gzip"),
        BenchmarkSpec::spec("wupwise"),
        BenchmarkSpec::spec("gcc"),
        BenchmarkSpec::spec("mcf"),
    ];
    let mut h = Fnv::new();
    for spec in &specs {
        let r = req.run(spec);
        let p = &r.profile;
        h.u64(p.samples.len() as u64);
        for s in &p.samples {
            h.u64(s.eip);
            h.u64(u64::from(s.thread));
            h.u64(u64::from(s.is_os));
            h.f64(s.cpi);
        }
        h.u64(p.intervals.len() as u64);
        for i in &p.intervals {
            for v in [
                i.cpi,
                i.breakdown.work,
                i.breakdown.fe,
                i.breakdown.exe,
                i.breakdown.other,
                i.start_seconds,
                i.l3_mpki,
                i.mispredict_pki,
                i.branch_pki,
            ] {
                h.f64(v);
            }
        }
        for v in [
            p.total_instructions,
            p.total_cycles,
            p.context_switches,
            p.os_instructions,
        ] {
            h.u64(v);
        }
        h.f64(p.seconds);
        h.u64(r.report.re_curve.len() as u64);
        for &re in &r.report.re_curve {
            h.f64(re);
        }
        h.f64(r.report.re_min);
    }
    assert_eq!(
        h.0, 0x33f6_43ac_c876_b02c,
        "simulator output moved: digest {:#018x}",
        h.0
    );
}
