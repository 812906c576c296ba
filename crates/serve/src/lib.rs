//! `fuzzyphase-serve`: the offline pipeline as a streaming service.
//!
//! The paper's workflow is batch: profile a workload, build EIPVs, fit
//! the regression tree, classify the quadrant. This crate turns that
//! into a long-running daemon (`fuzzyphased`): clients open a TCP
//! connection, stream the binary v2 sample codec
//! ([`fuzzyphase_profiler::trace`]) in length-prefixed frames, and get
//! newline-delimited JSON back — streaming CPI statistics per batch,
//! interim regression-tree refits on a cadence, and a final
//! [`PredictabilityReport`] + quadrant that is bit-for-bit what the
//! offline `analyze` produces on the same trace. That equality is by
//! construction, not luck: the daemon accumulates vectors through the
//! same [`EipvBuilder`] the offline `EipvData::from_samples` uses, and
//! the codec carries CPIs as exact `f64` bits.
//!
//! Production concerns are first-class: bounded per-session ingest
//! queues with explicit `Pause`/`Resume` backpressure, a shared
//! analysis pool sized by the core crate's `WorkerBudget`, per-session
//! and global limits, idle-session sweeping on an injected [`Clock`],
//! `Stats` counters, and two-phase graceful shutdown. See
//! `DESIGN.md` §D9 for the architecture and the full wire protocol.
//!
//! ```
//! use fuzzyphase_serve::{Server, ServerConfig, ServeClient};
//! use fuzzyphase_profiler::Sample;
//!
//! let mut cfg = ServerConfig::default();
//! cfg.request.analysis_mut().cv.folds = 5; // tiny trace for the doctest
//! cfg.request.analysis_mut().cv.k_max = 4;
//! let server = Server::start(cfg).unwrap();
//!
//! let mut client = ServeClient::connect(&server.local_addr().to_string()).unwrap();
//! client.hello("doc", 10, 0).unwrap();
//! let trace: Vec<Sample> = (0..80)
//!     .map(|i| Sample { eip: 0x400 + (i % 5) * 8, thread: 0, is_os: false, cpi: 1.0 + (i % 3) as f64 * 0.1 })
//!     .collect();
//! client.stream_trace(&trace, 25).unwrap();
//! client.finish().unwrap();
//! let (report, _) = client.wait_report().unwrap();
//! client.close();
//! server.shutdown();
//! # let _ = report;
//! ```
//!
//! [`PredictabilityReport`]: fuzzyphase_regtree::PredictabilityReport
//! [`EipvBuilder`]: fuzzyphase_profiler::EipvBuilder

#![warn(missing_docs)]

pub mod client;
pub mod clock;
pub mod framing;
pub mod metrics;
pub mod protocol;
pub mod recovery;
pub mod scheduler;
pub mod server;
pub mod session;
pub mod spool;

pub use client::ServeClient;
pub use clock::{Clock, ManualClock, SystemClock};
pub use metrics::{Metrics, StatsSnapshot};
pub use protocol::{ClientControl, ServerMsg, PROTOCOL_VERSION};
pub use recovery::{recover_all, RecoveredSession, RecoveryStats};
pub use scheduler::Scheduler;
pub use server::{shard_for_token, Server, ServerConfig};
pub use session::{FitOutcome, IngestProgress, SessionConfig, SessionEngine};
pub use spool::{SessionMeta, SessionSpool, SpoolConfig};
