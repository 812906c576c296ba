//! CART regression trees over EIP vectors — the paper's measurement
//! instrument (§4).
//!
//! The paper quantifies how well EIPs can possibly predict CPI by fitting
//! regression trees: the EIPV space is recursively split by "is EIP *f*
//! executed more than *n* times in this interval?", choosing at every step
//! the (EIP, count) pair that minimizes the weighted CPI variance of the
//! two sides (§4.1). Ten-fold cross-validation (§4.4) then measures the
//! *relative error* `RE_k` of the best `k`-chamber tree; its asymptote is
//! the theoretical upper bound on predicting CPI from EIPs alone.
//!
//! * [`dataset`] — the (EIPV, CPI) sample collection.
//! * [`columnar`] — per-feature contiguous storage + batch fit kernels.
//! * [`tree`] — the fitted tree with nested `T_k` sub-trees.
//! * [`incremental`] — [`Fitter`], the fit configuration: one-shot and
//!   delta-maintained incremental fits.
//! * [`builder`] — the scalar reference fit, the growers' oracle.
//! * [`crossval`] — 10-fold CV, RE curves, `k_opt` selection.
//! * [`analysis`] — the one-call [`analysis::PredictabilityReport`].
//!
//! # Kernel / oracle policy (DESIGN.md D13)
//!
//! The hot paths run batch kernels over the columnar layout by default;
//! each kernel has a scalar reference implementation that computes the
//! same floating-point operations in the same order, so results are
//! bit-identical — property-tested here and re-proven in CI by building
//! the whole test suite with `--features scalar-ref`, which swaps the
//! scalar paths back in behind the public entry points.
//!
//! # Example: the paper's Table 1 / Figure 1 worked example
//!
//! ```
//! use fuzzyphase_regtree::{Dataset, Fitter};
//!
//! let ds = Dataset::paper_example();
//! let tree = Fitter::new().max_leaves(4).full(&ds);
//! // Root splits on EIP0 at count 20, exactly like Figure 1.
//! assert_eq!(tree.root().split.unwrap().feature, 0);
//! assert_eq!(tree.root().split.unwrap().threshold, 20.0);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod builder;
pub mod columnar;
pub mod crossval;
pub mod dataset;
pub mod incremental;
mod kernel;
pub mod tree;

pub use analysis::{analyze, AnalysisOptions, PredictabilityReport};
pub use columnar::ColumnarDataset;
pub use crossval::{
    cross_validate, cross_validate_ensemble, eval_sse_batch, eval_sse_scalar, CrossValidation,
    ReCurve,
};
pub use dataset::Dataset;
pub use incremental::{FitDelta, FitState, Fitter};
pub use tree::{Node, RegressionTree, Split};
