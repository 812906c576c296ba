//! Quickstart: the paper's Table 1 / Figure 1 worked example, then a real
//! benchmark through the full pipeline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use fuzzyphase::prelude::*;
use fuzzyphase::regtree::{Dataset, Fitter};

fn main() {
    // --- Part 1: fit the paper's worked example (Table 1 -> Figure 1) ---
    println!("Part 1: the paper's 8-EIPV example");
    let ds = Dataset::paper_example();
    let tree = Fitter::new().max_leaves(4).full(&ds);
    let root = tree.root().split.expect("root splits");
    println!(
        "  root split: (EIP{}, {}) — the figure's (EIP0, 20)",
        root.feature, root.threshold
    );
    for i in 0..ds.len() {
        println!(
            "  EIPV{} -> chamber mean CPI {:.2} (actual {:.1})",
            i,
            tree.predict(ds.row(i)),
            ds.target(i)
        );
    }

    // --- Part 2: profile a simulated benchmark end to end ---
    println!("\nPart 2: mcf on the simulated Itanium 2");
    let result = AnalysisRequest::new()
        .with_intervals(80) // short demo run
        .run(&BenchmarkSpec::spec("mcf"));
    println!(
        "  CPI {:.2}, variance {:.3}, RE_min {:.3} at k={} -> {} (paper: {})",
        result.report.cpi_mean,
        result.report.cpi_variance,
        result.report.re_min,
        result.report.k_at_min,
        result.quadrant,
        result.expected_quadrant,
    );
    println!(
        "  recommended sampling: {}",
        result.quadrant.recommendation().name()
    );
}
