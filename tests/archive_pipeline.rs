//! The collection/analysis split (§3): profile once, archive the samples,
//! and reproduce the analysis from the archive alone.

use fuzzyphase::cluster::{choose_k_bic, project};
use fuzzyphase::prelude::*;
use fuzzyphase::profiler::{load_trace, read_samples, save_trace, write_samples_v2, EipvData};
use fuzzyphase::workload::spec::spec_workload;

fn profile(name: &str, n: usize) -> ProfileData {
    let mut w = spec_workload(name, 11);
    let cfg = ProfileConfig {
        num_intervals: n,
        warmup_intervals: 5,
        ..Default::default()
    };
    ProfileSession::run(&mut w, &cfg)
}

#[test]
fn binary_archive_reproduces_the_analysis() {
    // Archive to disk, reload, rebuild EIPVs from the raw samples: the
    // saved trace carries CPI as f64, so structure and numbers match.
    let data = profile("mcf", 60);
    let direct = analyze(
        &data.eipvs().vectors,
        &data.eipvs().cpis,
        &AnalysisOptions::default(),
    );
    let dir = std::env::temp_dir().join("fuzzyphase-archive-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("mcf.fzph");
    save_trace(&data.samples, &path).expect("save");
    let samples = load_trace(&path).expect("load");
    let _ = std::fs::remove_file(&path);
    let spv = (data.interval_len / data.period) as usize;
    let rebuilt = EipvData::from_samples(&samples, spv);
    let from_archive = analyze(&rebuilt.vectors, &rebuilt.cpis, &AnalysisOptions::default());

    assert_eq!(from_archive, direct);
    assert_eq!(from_archive.re_min.to_bits(), direct.re_min.to_bits());
}

#[test]
fn v2_archive_reproduces_the_analysis_bit_for_bit() {
    // The v2 codec carries CPI as f64, so the archived analysis is
    // *exactly* the direct one.
    let data = profile("mcf", 60);
    let direct = analyze(
        &data.eipvs().vectors,
        &data.eipvs().cpis,
        &AnalysisOptions::default(),
    );

    let bytes = write_samples_v2(&data.samples);
    let samples = read_samples(&bytes).expect("decode");
    let spv = (data.interval_len / data.period) as usize;
    let rebuilt = EipvData::from_samples(&samples, spv);
    let from_archive = analyze(&rebuilt.vectors, &rebuilt.cpis, &AnalysisOptions::default());

    assert_eq!(from_archive, direct);
    assert_eq!(
        from_archive.cpi_variance.to_bits(),
        direct.cpi_variance.to_bits()
    );
    assert_eq!(from_archive.re_min.to_bits(), direct.re_min.to_bits());
    for (a, b) in from_archive.re_curve.iter().zip(&direct.re_curve) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn trace_files_roundtrip_on_disk() {
    let data = profile("gzip", 20);
    let dir = std::env::temp_dir().join("fuzzyphase-archive-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("gzip.fzph");
    save_trace(&data.samples, &path).expect("save");
    let loaded = load_trace(&path).expect("load");
    // The simulated CPIs are ones f32 cannot represent, so the exact
    // round trip below shows the archive keeps every bit.
    assert!(data.samples.iter().any(|s| (s.cpi as f32) as f64 != s.cpi));
    assert_eq!(loaded.len(), data.samples.len());
    for (a, b) in loaded.iter().zip(&data.samples) {
        assert_eq!(a.eip, b.eip);
        assert_eq!(a.thread, b.thread);
        assert_eq!(a.is_os, b.is_os);
        assert_eq!(a.cpi.to_bits(), b.cpi.to_bits());
    }
    // The binary trace is far smaller than the JSON profile archive.
    let json_len = serde_json::to_string(&data.samples).expect("json").len();
    let bin_len = std::fs::metadata(&path).expect("meta").len() as usize;
    assert!(bin_len * 3 < json_len, "bin {bin_len} vs json {json_len}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bic_chooses_sane_k_for_phased_workload() {
    // mcf has two phases; SimPoint's BIC selection should land on a small
    // cluster count, not the maximum offered.
    let data = profile("mcf", 60);
    let eipvs = data.eipvs();
    let points = project(&eipvs.vectors, 15, 7);
    let (k, clustering) = choose_k_bic(&points, &[1, 2, 3, 4, 6, 8, 12, 20], 0.9, 7);
    assert!((2..=8).contains(&k), "chose k={k}");
    assert_eq!(clustering.num_clusters(), k);
    // The chosen clustering should separate CPI decently: weighted
    // within-cluster CPI variance well below total variance.
    let total_var = fuzzyphase::stats::variance(&eipvs.cpis);
    let members = clustering.members();
    let mut within = 0.0;
    for m in &members {
        if m.is_empty() {
            continue;
        }
        let cpis: Vec<f64> = m.iter().map(|&i| eipvs.cpis[i]).collect();
        within += fuzzyphase::stats::variance(&cpis) * m.len() as f64;
    }
    within /= eipvs.cpis.len() as f64;
    assert!(
        within < total_var * 0.5,
        "within {within} vs total {total_var}"
    );
}
