//! The traced per-frame replay.
//!
//! The daemon is not instrumented, so its per-frame layers are timed by
//! replaying the scenario's frames, in the same order, on this thread
//! through the same public functions the daemon calls: the client's
//! `write_samples_v2`, `read_frame`, `SessionSpool::append_frame`,
//! `read_samples_into`, `SessionEngine::ingest`, `write_msg`,
//! `SessionEngine::snapshot_delta` + `Fitter::incremental` when a refit
//! is due, `SessionEngine::finalize_with_partial`, and `recover_all`
//! over the spool at the end. Refits run inline, so unlike the daemon
//! they never coalesce. Socket transfer, queue waits and thread
//! hand-offs are not replayed; they make up the unattributed share.

use crate::daemon::{Reference, BATCH, SPV};
use crate::report::{report_bits, Tally};
use crate::spans::Tracer;
use fuzzyphase::AnalysisRequest;
use fuzzyphase_profiler::trace::{read_samples_into, write_samples_v2};
use fuzzyphase_profiler::Sample;
use fuzzyphase_regtree::{Dataset, FitDelta, Fitter, RegressionTree};
use fuzzyphase_serve::framing::{read_frame, write_frame, FRAME_SAMPLES};
use fuzzyphase_serve::protocol::write_msg;
use fuzzyphase_serve::{
    recover_all, ServerMsg, SessionConfig, SessionEngine, SessionMeta, SessionSpool, SpoolConfig,
};
use std::io;
use std::path::PathBuf;
use std::time::Instant;

/// Every this many refits (and the last) the incremental tree is
/// checked against a scratch fit of the same prefix.
const ORACLE_EVERY: usize = 32;

pub struct Replay<'a> {
    pub traces: &'a [Vec<Sample>],
    pub refs: &'a [Reference],
    /// Sessions replayed per trace (flood repeats its trace).
    pub sessions: usize,
    pub refit_every: usize,
    pub spool: Option<PathBuf>,
    pub request: &'a AnalysisRequest,
}

/// Work counts of one replay.
#[derive(Debug, Default)]
pub struct ReplayOut {
    pub wall_s: f64,
    pub frames: u64,
    pub refits: u64,
    pub delta_vectors: u64,
    pub nodes_changed: u64,
    pub spool_bytes: u64,
    pub spool_fsyncs: u64,
    pub segments_sealed: u64,
    pub frames_replayed: u64,
}

impl Replay<'_> {
    pub fn run(&self, tr: &mut Tracer, tally: &mut Tally) -> io::Result<ReplayOut> {
        let start = Instant::now();
        let mut out = ReplayOut::default();
        let analysis = *self.request.analysis();
        let cfg = SessionConfig {
            spv: SPV,
            refit_every: self.refit_every,
            analysis,
            thresholds: *self.request.thresholds(),
        };
        let fitter = Fitter::new()
            .max_leaves(analysis.cv.k_max)
            .min_leaf(analysis.cv.min_leaf);
        let spool_cfg = self.spool.as_ref().map(SpoolConfig::new);
        let mut item = 0u64;
        let mut wire = Vec::new();
        let mut reply = Vec::new();
        let mut samples = Vec::new();
        let mut session_id = 0u64;
        for (trace, r) in self.traces.iter().zip(self.refs) {
            for _ in 0..self.sessions {
                session_id += 1;
                let mut engine = SessionEngine::new(cfg);
                let mut spool = match &spool_cfg {
                    Some(sc) => Some(SessionSpool::create(
                        sc,
                        SessionMeta {
                            token: format!("sess-{session_id:08}"),
                            name: format!("replay-{session_id}"),
                            spv: SPV,
                            refit_every: self.refit_every,
                            protocol: 2,
                        },
                    )?),
                    None => None,
                };
                let mut unsynced = 0u32;
                let mut state = fitter.begin();
                let mut prev: Option<RegressionTree> = None;
                let mut checkpoints: Vec<(usize, RegressionTree)> = Vec::new();
                let frames = trace.len().div_ceil(BATCH);
                for chunk in trace.chunks(BATCH) {
                    let f = tr.begin("frame", item, None);
                    let s = tr.begin("trace.encode", item, Some(f));
                    let encoded = write_samples_v2(chunk);
                    tr.end(s);
                    wire.clear();
                    write_frame(&mut wire, FRAME_SAMPLES, &encoded)?;
                    let s = tr.begin("framing.read_frame", item, Some(f));
                    let (_, payload) = read_frame(&mut wire.as_slice(), usize::MAX)?
                        .ok_or_else(|| io::Error::other("frame vanished"))?;
                    tr.end(s);
                    if let (Some(sp), Some(sc)) = (spool.as_mut(), &spool_cfg) {
                        let s = tr.begin("spool.append", item, Some(f));
                        let sealed = sp.append_frame(&payload)?;
                        tr.end(s);
                        // Data syncs by the documented policy: every
                        // `fsync_every` records, and before sealing.
                        unsynced += 1;
                        if sc.fsync_every > 0 && unsynced >= sc.fsync_every {
                            out.spool_fsyncs += 1;
                            unsynced = 0;
                        }
                        if sealed {
                            out.spool_fsyncs += u64::from(unsynced > 0);
                            unsynced = 0;
                            out.segments_sealed += 1;
                        }
                        out.spool_bytes += payload.len() as u64;
                    }
                    let s = tr.begin("trace.decode", item, Some(f));
                    read_samples_into(&payload, &mut samples)?;
                    tr.end(s);
                    let s = tr.begin("session.ingest", item, Some(f));
                    let p = engine.ingest(&samples);
                    tr.end(s);
                    let s = tr.begin("protocol.write_msg", item, Some(f));
                    reply.clear();
                    write_msg(
                        &mut reply,
                        &ServerMsg::Progress {
                            samples: p.samples,
                            vectors: p.vectors,
                            cpi_mean: p.cpi_mean,
                            cpi_variance: p.cpi_variance,
                        },
                    )?;
                    tr.end(s);
                    if engine.refit_due() {
                        let s = tr.begin("regtree.incremental", item, Some(f));
                        let (vectors, cpis) = engine.snapshot_delta(state.rows());
                        let delta_vectors = vectors.len() as u64;
                        let tree = fitter.incremental(&mut state, &FitDelta::new(vectors, cpis));
                        tr.end(s);
                        out.refits += 1;
                        out.delta_vectors += delta_vectors;
                        out.nodes_changed += match &prev {
                            Some(p) => tree.nodes_changed_from(p),
                            None => tree.nodes().len(),
                        } as u64;
                        if out.refits as usize % ORACLE_EVERY == 1 {
                            checkpoints.push((state.rows(), tree.clone()));
                        }
                        prev = Some(tree);
                    }
                    tr.end(f);
                    item += 1;
                }
                out.frames += frames as u64;
                if let Some(tree) = &prev {
                    checkpoints.push((state.rows(), tree.clone()));
                }
                if let Some(mut sp) = spool {
                    sp.sync()?;
                }
                let s = tr.begin("session.finalize", session_id, None);
                let finished = engine.finalize_with_partial();
                tr.end(s);
                let Ok((fit, progress, (data, _))) = finished else {
                    tally.check(false, || {
                        format!("replay session {session_id}: final fit refused")
                    });
                    continue;
                };
                tally.check(
                    report_bits(&fit.report) == r.bits
                        && fit.quadrant == r.quadrant
                        && progress.samples == r.samples
                        && progress.vectors == r.vectors,
                    || {
                        format!(
                            "replay session {session_id}: final fit differs from offline analyze"
                        )
                    },
                );
                for (rows, tree) in checkpoints {
                    let scratch = fitter.full(&Dataset::new(
                        data.vectors[..rows].to_vec(),
                        data.cpis[..rows].to_vec(),
                    ));
                    tally.check(scratch == tree, || {
                        format!("replay session {session_id}: incremental tree over {rows} vectors differs from Fitter::full")
                    });
                }
            }
        }
        if let Some(sc) = &spool_cfg {
            let s = tr.begin("recovery.recover_all", 0, None);
            let (recovered, stats) = recover_all(sc)?;
            tr.end(s);
            out.frames_replayed = stats.frames_replayed;
            let expected: Vec<u64> = self
                .traces
                .iter()
                .flat_map(|t| std::iter::repeat_n(t.len() as u64, self.sessions))
                .collect();
            let got: Vec<u64> = recovered.values().map(|r| r.spool.state.samples).collect();
            tally.check(got == expected, || {
                format!("recover_all restored samples {got:?}, expected {expected:?}")
            });
        }
        out.wall_s = start.elapsed().as_secs_f64();
        Ok(out)
    }
}
