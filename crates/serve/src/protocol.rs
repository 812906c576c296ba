//! Wire protocol: control-frame payloads and server replies.
//!
//! Both directions speak JSON. Client control frames (frame kind 1)
//! carry one [`ClientControl`] value; sample frames (frame kind 2) carry
//! raw v2 trace-codec bytes (`fuzzyphase_profiler::trace`). Server
//! replies are newline-delimited JSON, one [`ServerMsg`] per line, in
//! session order — a client can drive the whole exchange with a
//! line-buffered reader.
//!
//! There is one protocol version, [`PROTOCOL_VERSION`], and every
//! `Hello` must state it. The server's `Hello` reply carries a resume
//! token and the high-water frame sequence number, and a reconnecting
//! client presents the token to continue from the last durable frame.
//! Decoding is strict on both sides: a control type, frame kind or
//! reply line this build does not know is an error, like garbage.

use crate::metrics::StatsSnapshot;
use fuzzyphase::Quadrant;
use fuzzyphase_diff::DiffReport;
use fuzzyphase_regtree::PredictabilityReport;
use fuzzyphase_sampling::Recommendation;
use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, Write};

/// The wire-protocol version. A `Hello` stating any other version is
/// refused with `Error`.
pub const PROTOCOL_VERSION: u32 = 2;

/// A control request from the client (frame kind 1 payload).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClientControl {
    /// Opens a session. Must be the first control frame; `Stats`,
    /// `Ping` and `Shutdown` are the only requests allowed before it.
    Hello {
        /// Client-chosen session label (shows up in errors).
        name: String,
        /// Samples per EIPV vector (the profiler's `samples_per_interval`).
        spv: usize,
        /// Refit the regression tree every this many completed vectors
        /// (0 = only the final fit).
        refit_every: usize,
        /// The client's protocol version; must equal
        /// [`PROTOCOL_VERSION`].
        protocol: u32,
        /// Resume a durable session by its token instead of opening a
        /// fresh one. The server replies with the high-water sequence
        /// number so the client retransmits only the gap.
        resume: Option<String>,
    },
    /// Declares end-of-trace: run the final analysis and send `Report`.
    Finish,
    /// Requests a [`StatsSnapshot`] (allowed without a session).
    Stats,
    /// Liveness probe; server answers `Pong`.
    Ping,
    /// Asks the daemon to drain and exit (admin; allowed without a
    /// session).
    Shutdown,
    /// Requests the cross-shard suite report: every finished session's
    /// partial state, merged in token order and re-analyzed as one
    /// suite (allowed without a session). Answered with
    /// [`ServerMsg::SuiteReport`], or `Error` when no session has
    /// finished yet.
    SuiteReport,
    /// Requests a differential analysis between two sessions (allowed
    /// without a session): each side is a resume token or a path to
    /// an archived spool session directory. The owning shards replay
    /// each side through the ingest path and the daemon fits the
    /// discriminant tree, answering with [`ServerMsg::Diff`] — bytes
    /// identical to the offline `fuzzydiff` CLI over the same spools.
    Diff {
        /// Side A: resume token or spool session directory (the
        /// baseline/"fast" run by convention).
        a: String,
        /// Side B: resume token or spool session directory (the
        /// candidate/"slow" run by convention).
        b: String,
    },
}

/// One newline-delimited JSON reply from the server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServerMsg {
    /// Session accepted.
    Hello {
        /// Server-assigned session id.
        session: u64,
        /// Samples per vector in effect.
        spv: usize,
        /// Refit cadence in effect.
        refit_every: usize,
        /// With spooling enabled: token to present in a future
        /// `Hello { resume }` to continue this session.
        resume_token: Option<String>,
        /// Highest durable frame sequence number (0 for a fresh
        /// session). On resume, the client retransmits from here.
        last_seq: u64,
    },
    /// Periodic ingest acknowledgement (one per decoded sample frame).
    Progress {
        /// Samples ingested so far.
        samples: u64,
        /// Completed EIPV vectors so far.
        vectors: u64,
        /// Streaming mean of per-sample CPI.
        cpi_mean: f64,
        /// Streaming population variance of per-sample CPI (Welford).
        cpi_variance: f64,
    },
    /// An interim *incremental* refit summary: the
    /// cadenced refit consumed the session's accumulated delta through
    /// the delta-maintained fitter (DESIGN.md D15) instead of refitting
    /// from scratch, and reports what moved — "nodes changed, RE moved
    /// from x to y" — rather than a whole report. The maintained tree
    /// is bit-identical to a scratch fit of the same vectors; the final
    /// `Report` is unchanged and still bit-identical to offline.
    RefitDelta {
        /// Vectors the refitted tree covers (all vectors so far).
        vectors: u64,
        /// New vectors this refit consumed (0 on a coalesced cadence
        /// tick that found nothing new).
        delta_vectors: u64,
        /// Arena nodes that differ from the previous interim tree
        /// (compared positionally; the whole arena counts on the first
        /// refit).
        nodes_changed: u64,
        /// Leaves (chambers) of the refitted tree.
        num_leaves: u64,
        /// Training relative error before this refit (`1.0` — the
        /// mean-predictor baseline — on the session's first refit).
        re_from: f64,
        /// Training relative error after this refit: leaf SSE over
        /// root SSE of the maintained tree. A training-data figure —
        /// cheap and deterministic; the cross-validated RE curve still
        /// arrives with the final `Report`.
        re_to: f64,
    },
    /// The final analysis, sent after `Finish`. Bit-identical to running
    /// the offline pipeline on the same trace.
    Report {
        /// The final analysis report.
        report: PredictabilityReport,
        /// Quadrant under the server's thresholds.
        quadrant: Quadrant,
        /// Sampling technique recommendation for that quadrant.
        recommendation: Recommendation,
        /// Total samples ingested.
        samples: u64,
        /// Total completed vectors analyzed.
        vectors: u64,
    },
    /// Answer to [`ClientControl::SuiteReport`]: the analysis of every
    /// finished session's vectors, merged across shards in token order.
    /// Deterministic for a given set of finished sessions — bit-identical
    /// no matter how many shards the daemon runs or which shard owned
    /// which session.
    SuiteReport {
        /// Analysis over the merged suite vectors.
        report: PredictabilityReport,
        /// Quadrant under the server's thresholds.
        quadrant: Quadrant,
        /// Sampling technique recommendation for that quadrant.
        recommendation: Recommendation,
        /// Finished sessions merged into this report.
        sessions: u64,
        /// Total samples across those sessions.
        samples: u64,
        /// Total completed vectors analyzed.
        vectors: u64,
        /// Shard count the daemon is running with (diagnostic; the
        /// report's bytes do not depend on it).
        shards: u64,
    },
    /// Answer to [`ClientControl::Diff`]: the discriminant-tree report
    /// explaining which EIPV features separate the two sessions.
    /// Deterministic — the embedded report's JSON is byte-identical to
    /// the offline `fuzzydiff` CLI over the same two spools.
    Diff {
        /// The differential-analysis report.
        report: DiffReport,
    },
    /// Backpressure: stop sending sample frames until `Resume`.
    Pause,
    /// Backpressure released: sending may continue.
    Resume,
    /// Answer to `Ping`.
    Pong,
    /// Answer to `Stats`.
    Stats(StatsSnapshot),
    /// A session-fatal problem; the server closes the connection after
    /// sending it.
    Error {
        /// Human-readable cause.
        message: String,
    },
    /// Orderly close: the server is done with this connection.
    Bye,
}

/// Serializes `msg` as one JSON line onto `w` (no flush — callers batch
/// and flush at protocol boundaries).
pub fn write_msg<W: Write>(w: &mut W, msg: &ServerMsg) -> io::Result<()> {
    let line = serde_json::to_string(msg).map_err(io::Error::other)?;
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")
}

/// Reads one JSON line from `r` and parses it as a [`ServerMsg`].
/// Returns `Ok(None)` on EOF; a line that is not a known `ServerMsg`
/// is an error.
pub fn read_msg<R: BufRead>(r: &mut R) -> io::Result<Option<ServerMsg>> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let msg = serde_json::from_str(line.trim_end()).map_err(io::Error::other)?;
    Ok(Some(msg))
}

/// Serializes a control request to the JSON payload of a kind-1 frame.
pub fn encode_control(ctl: &ClientControl) -> io::Result<Vec<u8>> {
    Ok(serde_json::to_string(ctl)
        .map_err(io::Error::other)?
        .into_bytes())
}

/// Parses the JSON payload of a kind-1 frame. A request type this build
/// does not know, or one missing a required field (such as `Hello`'s
/// `protocol`), is an error like non-JSON.
pub fn decode_control(payload: &[u8]) -> io::Result<ClientControl> {
    let text =
        std::str::from_utf8(payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    serde_json::from_str(text).map_err(io::Error::other)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_roundtrips() {
        let msgs = [
            ClientControl::Hello {
                name: "mcf".into(),
                spv: 100,
                refit_every: 25,
                protocol: PROTOCOL_VERSION,
                resume: None,
            },
            ClientControl::Hello {
                name: "resumer".into(),
                spv: 100,
                refit_every: 0,
                protocol: PROTOCOL_VERSION,
                resume: Some("sess-00000007".into()),
            },
            ClientControl::Finish,
            ClientControl::Stats,
            ClientControl::Ping,
            ClientControl::Shutdown,
            ClientControl::SuiteReport,
            ClientControl::Diff {
                a: "sess-00000001".into(),
                b: "/var/spool/fuzzyphase/shard-000/sess-00000002".into(),
            },
        ];
        for m in &msgs {
            let bytes = encode_control(m).expect("encode");
            let back = decode_control(&bytes).expect("decode");
            assert_eq!(&back, m);
        }
    }

    #[test]
    fn server_msgs_roundtrip_as_json_lines() {
        let msgs = [
            ServerMsg::Hello {
                session: 7,
                spv: 100,
                refit_every: 0,
                resume_token: Some("sess-00000007".into()),
                last_seq: 42,
            },
            ServerMsg::Progress {
                samples: 500,
                vectors: 5,
                cpi_mean: 1.25,
                cpi_variance: 0.002,
            },
            ServerMsg::RefitDelta {
                vectors: 40,
                delta_vectors: 10,
                nodes_changed: 7,
                num_leaves: 12,
                re_from: 0.81,
                re_to: 0.74,
            },
            ServerMsg::Diff {
                report: fuzzyphase_diff::DiffReport {
                    class_a: fuzzyphase_diff::ClassSummary {
                        label: "sess-00000001".into(),
                        vectors: 4,
                        cpi_mean: 1.0,
                    },
                    class_b: fuzzyphase_diff::ClassSummary {
                        label: "sess-00000002".into(),
                        vectors: 4,
                        cpi_mean: 2.0,
                    },
                    num_features: 9,
                    leaves: 1,
                    separability: 0.0,
                    paths: Vec::new(),
                    explanation: "indistinguishable".into(),
                },
            },
            ServerMsg::Pause,
            ServerMsg::Resume,
            ServerMsg::Pong,
            ServerMsg::Error {
                message: "too many sessions".into(),
            },
            ServerMsg::Bye,
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            write_msg(&mut buf, m).expect("write");
        }
        let mut r = io::BufReader::new(&buf[..]);
        for m in &msgs {
            let got = read_msg(&mut r).expect("read").expect("line");
            assert_eq!(&got, m);
        }
        assert!(read_msg(&mut r).expect("read").is_none());
    }

    #[test]
    fn unit_variants_are_bare_strings() {
        let mut buf = Vec::new();
        write_msg(&mut buf, &ServerMsg::Pause).expect("write");
        assert_eq!(std::str::from_utf8(&buf).expect("utf8"), "\"Pause\"\n");
    }

    #[test]
    fn decode_control_rejects_garbage() {
        assert!(decode_control(b"not json").is_err());
        assert!(decode_control(&[0xFF, 0xFE]).is_err());
    }

    #[test]
    fn decode_control_rejects_unknown_requests() {
        // Well-formed JSON is not enough: an unknown request type is refused.
        let unknown = br#"{"Subscribe":{"events":["refit"]}}"#;
        assert!(decode_control(unknown).is_err());
    }

    #[test]
    fn versionless_hello_is_rejected() {
        // A `Hello` must carry its protocol version; the same request with it
        // decodes.
        let versionless = br#"{"Hello":{"name":"old","spv":100,"refit_every":5}}"#;
        assert!(decode_control(versionless).is_err());
        let versioned = br#"{"Hello":{"name":"old","spv":100,"refit_every":5,"protocol":2}}"#;
        assert_eq!(
            decode_control(versioned).expect("versioned Hello decodes"),
            ClientControl::Hello {
                name: "old".into(),
                spv: 100,
                refit_every: 5,
                protocol: PROTOCOL_VERSION,
                resume: None,
            }
        );
    }

    #[test]
    fn read_msg_rejects_unknown_server_lines() {
        let mut buf = Vec::new();
        write_msg(&mut buf, &ServerMsg::Pong).expect("write");
        buf.extend_from_slice(b"{\"Forecast\":{\"eta_ms\":12}}\n");
        let mut r = io::BufReader::new(&buf[..]);
        assert_eq!(read_msg(&mut r).expect("read"), Some(ServerMsg::Pong));
        assert!(read_msg(&mut r).is_err());
    }
}
