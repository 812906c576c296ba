//! The sampling profiler: this workspace's stand-in for VTune.
//!
//! §3 of the paper collects data by event-based sampling: the VTune driver
//! interrupts execution every N retired instructions (1 M by default,
//! 100 K for SjAS), recording the EIP at the interruption point, the
//! time-stamp counter, event-counter totals and the owning thread. Samples
//! are then aggregated into **EIP vectors** — per-interval histograms of
//! sampled EIPs — each paired with the interval's instantaneous CPI
//! (§3.2).
//!
//! This crate drives a [`Workload`] through a simulated
//! [`Core`](fuzzyphase_arch::Core), takes samples at exactly the same
//! semantics, and builds EIPVs:
//!
//! ```
//! use fuzzyphase_profiler::{ProfileConfig, ProfileSession};
//! use fuzzyphase_workload::spec::spec_workload;
//!
//! let mut cfg = ProfileConfig::default();
//! cfg.num_intervals = 4; // tiny run for the doctest
//! let mut w = spec_workload("gzip", 1);
//! let data = ProfileSession::run(&mut w, &cfg);
//! assert_eq!(data.intervals.len(), 4);
//! let eipvs = data.eipvs();
//! assert_eq!(eipvs.vectors.len(), 4);
//! ```

#![warn(missing_docs)]

pub mod eipv;
pub mod export;
pub(crate) mod recorder;
pub mod sampler;
pub mod session;
pub mod smp;
pub mod trace;

pub use eipv::{EipIndex, EipvBuilder, EipvData};
pub use export::{intervals_csv, load_profile, samples_csv, save_profile};
pub use sampler::{overhead_fraction, SamplerSpec};
pub use session::{IntervalStat, ProfileConfig, ProfileData, ProfileSession, Sample};
pub use smp::SmpProfileSession;
pub use trace::{load_trace, read_samples, save_trace, write_samples_v2};

pub use fuzzyphase_workload::Workload;
