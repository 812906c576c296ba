//! Stage-level wall-time benchmark for the regression-tree pipeline,
//! emitting `BENCH_regtree.json` for CI and regression tracking.
//!
//! ```text
//! cargo run --release -p fuzzyphase-bench --bin bench_regtree -- [out.json]
//! ```
//!
//! Times, on an EIPV-shaped dataset of ≥ 200 intervals:
//!
//! - `fit_scalar` — scalar oracle build: per-fit gather + global sort,
//!   presorted split-entry cache partitioned per node,
//! - `fit_columnar` — cold columnar build: bucket-and-sort the columnar
//!   layout, then the batch fit kernels,
//! - `fit_cached` — `Fitter::full` steady state: the dataset's
//!   memoized columnar primary storage feeds the batch kernels directly,
//! - `fit_incremental` — the streamed-refit steady state: a
//!   phase-structured session bootstrapped to half length, the rest fed
//!   to `Fitter::incremental` in frame-batch deltas, one refit per
//!   batch (the daemon's cadenced-refit path, DESIGN.md D15),
//! - `fit_stream_scratch` — the same refit points served by a scratch
//!   `Fitter::full` of each prefix (what the daemon did before D15),
//! - `sse_scalar` / `sse_batch` — fold-partial SSE accumulation over the
//!   full dataset, per-`k` scalar walk vs the batch kernel,
//! - `cv_serial` — current cross-validation on one thread (batch
//!   kernels, serial folds),
//! - `cv_parallel` — the same folds fanned across a worker pool,
//! - `diff_fit` — the fuzzydiff discriminant fit over two EIPV sides
//!   (union build + indicator-target tree through the shared columnar
//!   kernel + report rendering).
//!
//! Every optimized stage is checked against its baseline for exact
//! equality before timings are reported: the cached and columnar builds
//! must produce the scalar oracle's tree, the batch SSE partials must be
//! bit-identical to the scalar walk, and the parallel curve must be
//! bit-identical to the serial one.

use fuzzyphase_diff::{diff, DiffOptions};
use fuzzyphase_profiler::{EipvData, Sample};
use fuzzyphase_regtree::{
    eval_sse_batch, eval_sse_scalar, ColumnarDataset, CrossValidation, Dataset, FitDelta, Fitter,
};
use fuzzyphase_stats::{seeded_rng, SparseVec};
use rand::Rng;
use serde::Serialize;
use std::time::Instant;

/// Wall time of one pipeline stage, median over `reps` repetitions.
#[derive(Serialize)]
struct Stage {
    name: String,
    reps: usize,
    median_ms: f64,
    min_ms: f64,
}

#[derive(Serialize)]
struct Report {
    intervals: usize,
    features: u32,
    nnz_per_row: usize,
    /// Length of the phase-structured session the streamed-refit stages
    /// (`fit_incremental` / `fit_stream_scratch`) run over; the first
    /// half is bootstrapped untimed, the second half streams in
    /// frame-batch deltas.
    stream_intervals: usize,
    folds: usize,
    k_max: usize,
    /// `std::thread::available_parallelism()` on the machine that produced
    /// this report — context for comparing CV speedups across runners
    /// (`None` when the platform cannot report it).
    available_parallelism: Option<usize>,
    cv_workers: usize,
    stages: Vec<Stage>,
    /// Fold-parallel CV vs current serial CV: the pool's contribution
    /// alone (≈ 1.0 on a single-core machine).
    cv_speedup_parallel: f64,
    /// Incremental streamed refits vs scratch refits of the same
    /// prefixes: the daemon's steady-state refit advantage.
    incremental_refit_speedup: f64,
    /// `Fitter::full` produced the same tree as the scalar oracle.
    cached_tree_identical: bool,
    /// Batch columnar fit produced the same tree as the scalar oracle.
    columnar_tree_identical: bool,
    /// The final incrementally-maintained tree equals a scratch fit of
    /// the whole dataset.
    incremental_tree_identical: bool,
    /// Batch SSE fold partials are bit-identical to the scalar walk.
    sse_batch_bit_identical: bool,
    parallel_curve_bit_identical: bool,
    /// Two fuzzydiff fits over the same sides rendered identical bytes.
    diff_report_byte_stable: bool,
}

/// A realistic EIPV-shaped dataset.
fn eipv_dataset(n: usize, features: u32, nnz: usize, seed: u64) -> Dataset {
    let mut rng = seeded_rng(seed);
    let mut rows = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for i in 0..n {
        let phase = (i / 20) % 3;
        let base = phase as u32 * (features / 3);
        let pairs: Vec<(u32, f64)> = (0..nnz)
            .map(|_| {
                (
                    base + rng.gen_range(0..features / 3),
                    rng.gen_range(1.0..5.0),
                )
            })
            .collect();
        rows.push(SparseVec::from_pairs(pairs));
        ys.push(1.0 + phase as f64 * 0.8 + rng.gen_range(-0.05..0.05));
    }
    Dataset::new(rows, ys)
}

/// A phase-structured EIPV trajectory for the streamed-refit stages:
/// `phases` recurring program phases with Zipf-skewed unequal durations,
/// each phase dominated by its own fixed set of hot EIPs (the hottest
/// consistently hottest, as the 90/10 rule makes real EIPVs look) over a
/// uniform cold tail, and a per-phase CPI level. A regression tree's
/// leaves then capture *real* phases — the paper's use case — so the
/// split structure is stable under streaming instead of churning on
/// per-interval noise the way a uniform-random dataset makes it.
fn phased_eipv_dataset(n: usize, features: u32, nnz: usize, seed: u64) -> Dataset {
    let mut rng = seeded_rng(seed);
    let phases = 12usize;
    let hot_per_phase = 24usize;
    let band = features / phases as u32;
    let durations: Vec<usize> = (0..phases).map(|p| 2 + 24 / (p + 1)).collect();
    let cycle: usize = durations.iter().sum();
    let phase_of = |i: usize| -> usize {
        let mut t = i % cycle;
        for (p, &d) in durations.iter().enumerate() {
            if t < d {
                return p;
            }
            t -= d;
        }
        phases - 1
    };
    let mut rows = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for i in 0..n {
        let phase = phase_of(i);
        let base = phase as u32 * band;
        let mut pairs: Vec<(u32, f64)> = Vec::with_capacity(nnz);
        for h in 0..hot_per_phase {
            pairs.push((
                base + h as u32 * 7,
                120.0 / (h + 1) as f64 + rng.gen_range(0.0..4.0),
            ));
        }
        for _ in hot_per_phase..nnz {
            pairs.push((base + rng.gen_range(0..band), rng.gen_range(1.0..5.0)));
        }
        rows.push(SparseVec::from_pairs(pairs));
        ys.push(1.0 + phase as f64 * 0.3 + rng.gen_range(-0.025..0.025));
    }
    Dataset::new(rows, ys)
}

/// One synthetic EIPV side for the `diff_fit` stage: `vectors` EIPV
/// rows over a code region starting at `base`, CPIs in `[cpi_lo,
/// cpi_hi)`.
fn eipv_side(vectors: usize, base: u64, cpi_lo: f64, cpi_hi: f64, seed: u64) -> EipvData {
    let spv = 100;
    let mut rng = seeded_rng(seed);
    let samples: Vec<Sample> = (0..vectors * spv)
        .map(|_| Sample {
            eip: base + rng.gen_range(0..400u64) * 8,
            thread: 0,
            is_os: false,
            cpi: rng.gen_range(cpi_lo..cpi_hi),
        })
        .collect();
    EipvData::from_samples(&samples, spv)
}

/// Runs `f` `reps` times, returning (median ms, min ms).
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, f64) {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let out = f();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(out);
            ms
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    (samples[samples.len() / 2], samples[0])
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_regtree.json".to_string());

    let (intervals, features, nnz) = (240, 6_000u32, 80);
    let ds = eipv_dataset(intervals, features, nnz, 1);
    let reps = 7;

    let fitter = Fitter::new();
    let (fit_scalar_med, fit_scalar_min) = time_ms(reps, || fitter.fit_scalar(&ds));
    let (fit_columnar_med, fit_columnar_min) = time_ms(reps, || {
        fitter.full_on_columns(&ColumnarDataset::from_dataset(&ds))
    });
    // Warm the dataset's memoized columnar storage so `fit_cached`
    // times the steady state `Fitter::full` actually runs at.
    let warm_tree = fitter.full(&ds);
    let (fit_cached_med, fit_cached_min) = time_ms(reps, || fitter.full(&ds));
    let cached_tree_identical = fitter.full(&ds) == fitter.fit_scalar(&ds);
    let columnar_tree_identical = fitter.full_on_columns(ds.columnar()) == fitter.fit_scalar(&ds);

    // The streamed-refit steady state: a phase-structured session of
    // `stream_intervals` frames, the first half absorbed in one
    // bootstrap gulp, the second half arriving as frame-batch deltas
    // with one cadenced refit per batch — incremental delta maintenance
    // vs a scratch `Fitter::full` of each of the same prefixes (what
    // the daemon did before D15). Cloning the bootstrapped state keeps
    // the one-time bootstrap out of the timed region, so the stage
    // measures exactly the daemon's recurring per-refit cost.
    let stream_intervals = 1920usize;
    let delta_batch = 10;
    let sds = phased_eipv_dataset(stream_intervals, features, nnz, 2);
    let half = stream_intervals / 2;
    let stream_fitter = Fitter::new().max_leaves(16).min_leaf(8);
    let boot = {
        let mut state = stream_fitter.begin();
        stream_fitter.incremental(
            &mut state,
            &FitDelta::new(
                (0..half).map(|i| sds.row(i).clone()).collect(),
                (0..half).map(|i| sds.target(i)).collect(),
            ),
        );
        state
    };
    let batches: Vec<(Vec<SparseVec>, Vec<f64>)> = (half..stream_intervals)
        .step_by(delta_batch)
        .map(|start| {
            let end = (start + delta_batch).min(stream_intervals);
            (
                (start..end).map(|i| sds.row(i).clone()).collect(),
                (start..end).map(|i| sds.target(i)).collect(),
            )
        })
        .collect();
    let stream_incremental = || {
        let mut state = boot.clone();
        let mut last = None;
        for (rows, ys) in &batches {
            let delta = FitDelta::new(rows.clone(), ys.clone());
            last = Some(stream_fitter.incremental(&mut state, &delta));
        }
        last.expect("at least one batch")
    };
    let stream_reps = 5;
    let (fit_incremental_med, fit_incremental_min) = time_ms(stream_reps, stream_incremental);
    let (fit_stream_scratch_med, fit_stream_scratch_min) = time_ms(stream_reps, || {
        let mut last = None;
        for end in (half..stream_intervals).step_by(delta_batch) {
            let end = (end + delta_batch).min(stream_intervals);
            let prefix = Dataset::new(
                (0..end).map(|i| sds.row(i).clone()).collect(),
                (0..end).map(|i| sds.target(i)).collect(),
            );
            last = Some(stream_fitter.full(&prefix));
        }
        last.expect("at least one prefix")
    });
    let incremental_tree_identical = stream_incremental() == stream_fitter.full(&sds);

    let k_max_eval = CrossValidation::default().k_max;
    let all_rows: Vec<usize> = (0..ds.len()).collect();
    let (sse_scalar_med, sse_scalar_min) = time_ms(reps, || {
        eval_sse_scalar(&warm_tree, &ds, &all_rows, k_max_eval)
    });
    let (sse_batch_med, sse_batch_min) = time_ms(reps, || {
        eval_sse_batch(&warm_tree, &ds, &all_rows, k_max_eval)
    });
    let sse_batch_bit_identical = {
        let a = eval_sse_batch(&warm_tree, &ds, &all_rows, k_max_eval);
        let b = eval_sse_scalar(&warm_tree, &ds, &all_rows, k_max_eval);
        a.len() == b.len() && a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits())
    };

    let serial_cv = CrossValidation {
        seed: 7,
        workers: 1,
        ..Default::default()
    };
    let available_parallelism = std::thread::available_parallelism().ok().map(|n| n.get());
    let workers = available_parallelism.unwrap_or(4).min(serial_cv.folds);
    let parallel_cv = CrossValidation {
        workers,
        ..serial_cv
    };
    let (cv_serial_med, cv_serial_min) = time_ms(reps, || serial_cv.run(&ds));
    let (cv_parallel_med, cv_parallel_min) = time_ms(reps, || parallel_cv.run(&ds));
    let (a, b) = (serial_cv.run(&ds), parallel_cv.run(&ds));
    let parallel_curve_bit_identical = a == b
        && a.re
            .iter()
            .zip(&b.re)
            .all(|(x, y)| x.to_bits() == y.to_bits());

    // fuzzydiff discriminant fit: two 120-vector sides with overlapping
    // code regions — half the candidate's intervals dive into a slower
    // region, the shape `Diff` requests see in practice.
    let side_a = eipv_side(120, 0x40_0000, 0.9, 1.3, 11);
    let side_b = {
        let fast = eipv_side(60, 0x40_0000, 1.0, 1.4, 12);
        let slow = eipv_side(60, 0x41_0000, 2.0, 2.8, 13);
        let mut b = fast;
        b.absorb(&slow);
        b
    };
    let opts = DiffOptions::default();
    let (diff_fit_med, diff_fit_min) = time_ms(reps, || {
        diff(&side_a, &side_b, "baseline", "candidate", &opts).expect("diff fits")
    });
    let diff_report_byte_stable = {
        let a = diff(&side_a, &side_b, "baseline", "candidate", &opts).expect("diff fits");
        let b = diff(&side_a, &side_b, "baseline", "candidate", &opts).expect("diff fits");
        a.to_json() == b.to_json()
    };

    let stage = |name: &str, med: f64, min: f64| Stage {
        name: name.to_string(),
        reps,
        median_ms: med,
        min_ms: min,
    };
    let stream_stage = |name: &str, med: f64, min: f64| Stage {
        name: name.to_string(),
        reps: stream_reps,
        median_ms: med,
        min_ms: min,
    };
    let report = Report {
        intervals,
        features,
        nnz_per_row: nnz,
        stream_intervals,
        folds: serial_cv.folds,
        k_max: serial_cv.k_max,
        available_parallelism,
        cv_workers: workers,
        stages: vec![
            stage("fit_scalar", fit_scalar_med, fit_scalar_min),
            stage("fit_columnar", fit_columnar_med, fit_columnar_min),
            stage("fit_cached", fit_cached_med, fit_cached_min),
            stream_stage("fit_incremental", fit_incremental_med, fit_incremental_min),
            stream_stage(
                "fit_stream_scratch",
                fit_stream_scratch_med,
                fit_stream_scratch_min,
            ),
            stage("sse_scalar", sse_scalar_med, sse_scalar_min),
            stage("sse_batch", sse_batch_med, sse_batch_min),
            stage("cv_serial", cv_serial_med, cv_serial_min),
            stage("cv_parallel", cv_parallel_med, cv_parallel_min),
            stage("diff_fit", diff_fit_med, diff_fit_min),
        ],
        cv_speedup_parallel: cv_serial_med / cv_parallel_med,
        incremental_refit_speedup: fit_stream_scratch_med / fit_incremental_med,
        cached_tree_identical,
        columnar_tree_identical,
        incremental_tree_identical,
        sse_batch_bit_identical,
        parallel_curve_bit_identical,
        diff_report_byte_stable,
    };

    assert!(
        report.cached_tree_identical,
        "Fitter::full diverged from the scalar oracle"
    );
    assert!(
        report.parallel_curve_bit_identical,
        "parallel cross-validation changed the RE curve"
    );
    assert!(
        report.columnar_tree_identical,
        "columnar batch fit changed the fitted tree"
    );
    assert!(
        report.incremental_tree_identical,
        "incremental delta maintenance changed the fitted tree"
    );
    assert!(
        report.sse_batch_bit_identical,
        "batch SSE accumulation changed the fold partials"
    );
    assert!(
        report.diff_report_byte_stable,
        "fuzzydiff report bytes drifted between identical fits"
    );

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, &json).expect("write bench report");

    println!("dataset: {intervals} intervals x {features} features (~{nnz} nnz/row)");
    for s in &report.stages {
        println!(
            "{:<12} median {:8.2} ms   min {:8.2} ms   ({} reps)",
            s.name, s.median_ms, s.min_ms, s.reps
        );
    }
    println!(
        "fit speedup vs scalar:      {:.2}x  [tree identical: {}]",
        fit_scalar_med / fit_cached_med,
        report.cached_tree_identical
    );
    println!(
        "incremental refit speedup:  {:.2}x  [tree identical: {}]",
        report.incremental_refit_speedup, report.incremental_tree_identical
    );
    println!(
        "cv speedup ({} fold workers): {:.2}x  [curve bit-identical: {}]",
        report.cv_workers, report.cv_speedup_parallel, report.parallel_curve_bit_identical
    );
    println!("wrote {out_path}");
}
