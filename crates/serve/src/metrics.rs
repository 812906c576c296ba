//! Global daemon counters, served by the `Stats` request.
//!
//! All counters are lock-free `AtomicU64`s updated from the accept,
//! reader, engine and worker threads; [`Metrics::snapshot`] reads them
//! into the serializable [`StatsSnapshot`] the wire protocol carries.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters for one daemon instance.
#[derive(Debug, Default)]
pub struct Metrics {
    sessions_served: AtomicU64,
    sessions_active: AtomicU64,
    sessions_refused: AtomicU64,
    samples_ingested: AtomicU64,
    bytes_ingested: AtomicU64,
    frames_ingested: AtomicU64,
    refits_run: AtomicU64,
    refits_coalesced: AtomicU64,
    reports_sent: AtomicU64,
    pauses_sent: AtomicU64,
    session_errors: AtomicU64,
    idle_reaped: AtomicU64,
    ingest_queue_high_water: AtomicU64,
    analysis_queue_high_water: AtomicU64,
    spool_records: AtomicU64,
    spool_bytes: AtomicU64,
    segments_sealed: AtomicU64,
    compactions_run: AtomicU64,
    sessions_recovered: AtomicU64,
    sessions_resumed: AtomicU64,
    frames_replayed: AtomicU64,
    torn_records: AtomicU64,
    suite_reports_sent: AtomicU64,
}

impl Metrics {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a session being admitted (served + active).
    pub fn session_started(&self) {
        self.sessions_served.fetch_add(1, Ordering::Relaxed);
        self.sessions_active.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a session ending (for any reason).
    pub fn session_ended(&self) {
        self.sessions_active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records a connection turned away (capacity or drain).
    pub fn session_refused(&self) {
        self.sessions_refused.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one decoded samples frame.
    pub fn ingested(&self, samples: u64, bytes: u64) {
        self.samples_ingested.fetch_add(samples, Ordering::Relaxed);
        self.bytes_ingested.fetch_add(bytes, Ordering::Relaxed);
        self.frames_ingested.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a completed regression-tree refit.
    pub fn refit_run(&self) {
        self.refits_run.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a refit skipped because one was already in flight.
    pub fn refit_coalesced(&self) {
        self.refits_coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a final report delivered.
    pub fn report_sent(&self) {
        self.reports_sent.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a backpressure pause pushed to a client.
    pub fn pause_sent(&self) {
        self.pauses_sent.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a session-level error (protocol, limits, I/O).
    pub fn session_error(&self) {
        self.session_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an idle session reaped by the sweeper.
    pub fn idle_reap(&self) {
        self.idle_reaped.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds an observed per-session ingest-queue depth into the
    /// high-water mark.
    pub fn observe_ingest_depth(&self, depth: u64) {
        self.ingest_queue_high_water
            .fetch_max(depth, Ordering::Relaxed);
    }

    /// Folds an observed analysis-pool queue depth into the high-water
    /// mark.
    pub fn observe_analysis_depth(&self, depth: u64) {
        self.analysis_queue_high_water
            .fetch_max(depth, Ordering::Relaxed);
    }

    /// The ingest-queue high-water mark seen so far.
    pub fn ingest_queue_high_water(&self) -> u64 {
        self.ingest_queue_high_water.load(Ordering::Relaxed)
    }

    /// Records one frame appended to a session spool.
    pub fn spool_append(&self, bytes: u64) {
        self.spool_records.fetch_add(1, Ordering::Relaxed);
        self.spool_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records a spool segment sealed by rotation.
    pub fn segment_sealed(&self) {
        self.segments_sealed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a completed compaction pass.
    pub fn compaction_run(&self) {
        self.compactions_run.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds a startup (or on-demand) recovery into the counters.
    pub fn recovery(&self, sessions: u64, frames: u64, torn: u64) {
        self.sessions_recovered
            .fetch_add(sessions, Ordering::Relaxed);
        self.frames_replayed.fetch_add(frames, Ordering::Relaxed);
        self.torn_records.fetch_add(torn, Ordering::Relaxed);
    }

    /// Records a client resuming a recovered session.
    pub fn session_resumed(&self) {
        self.sessions_resumed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a cross-shard suite report delivered.
    pub fn suite_report_sent(&self) {
        self.suite_reports_sent.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads every counter into a serializable snapshot.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            sessions_served: self.sessions_served.load(Ordering::Relaxed),
            sessions_active: self.sessions_active.load(Ordering::Relaxed),
            sessions_refused: self.sessions_refused.load(Ordering::Relaxed),
            samples_ingested: self.samples_ingested.load(Ordering::Relaxed),
            bytes_ingested: self.bytes_ingested.load(Ordering::Relaxed),
            frames_ingested: self.frames_ingested.load(Ordering::Relaxed),
            refits_run: self.refits_run.load(Ordering::Relaxed),
            refits_coalesced: self.refits_coalesced.load(Ordering::Relaxed),
            reports_sent: self.reports_sent.load(Ordering::Relaxed),
            pauses_sent: self.pauses_sent.load(Ordering::Relaxed),
            session_errors: self.session_errors.load(Ordering::Relaxed),
            idle_reaped: self.idle_reaped.load(Ordering::Relaxed),
            ingest_queue_high_water: self.ingest_queue_high_water.load(Ordering::Relaxed),
            analysis_queue_high_water: self.analysis_queue_high_water.load(Ordering::Relaxed),
            spool_records: self.spool_records.load(Ordering::Relaxed),
            spool_bytes: self.spool_bytes.load(Ordering::Relaxed),
            segments_sealed: self.segments_sealed.load(Ordering::Relaxed),
            compactions_run: self.compactions_run.load(Ordering::Relaxed),
            sessions_recovered: self.sessions_recovered.load(Ordering::Relaxed),
            sessions_resumed: self.sessions_resumed.load(Ordering::Relaxed),
            frames_replayed: self.frames_replayed.load(Ordering::Relaxed),
            torn_records: self.torn_records.load(Ordering::Relaxed),
            suite_reports_sent: self.suite_reports_sent.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of the daemon counters (the `Stats` reply).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Sessions admitted since start.
    pub sessions_served: u64,
    /// Sessions currently open.
    pub sessions_active: u64,
    /// Connections refused (capacity or drain).
    pub sessions_refused: u64,
    /// Samples decoded from clients.
    pub samples_ingested: u64,
    /// Payload bytes decoded from clients.
    pub bytes_ingested: u64,
    /// Sample frames decoded.
    pub frames_ingested: u64,
    /// Regression-tree refits completed (periodic + final).
    pub refits_run: u64,
    /// Refits skipped because the session already had one in flight.
    pub refits_coalesced: u64,
    /// Final reports delivered.
    pub reports_sent: u64,
    /// Backpressure pauses pushed to clients.
    pub pauses_sent: u64,
    /// Session-level errors.
    pub session_errors: u64,
    /// Sessions closed by the idle sweeper.
    pub idle_reaped: u64,
    /// Deepest per-session ingest queue observed.
    pub ingest_queue_high_water: u64,
    /// Deepest analysis-pool queue observed.
    pub analysis_queue_high_water: u64,
    /// Frames appended to session spools.
    pub spool_records: u64,
    /// Payload bytes appended to session spools.
    pub spool_bytes: u64,
    /// Spool segments sealed by rotation.
    pub segments_sealed: u64,
    /// Compaction passes completed.
    pub compactions_run: u64,
    /// Sessions rebuilt from spools (startup scan + on-demand).
    pub sessions_recovered: u64,
    /// Recovered sessions a client resumed.
    pub sessions_resumed: u64,
    /// Frame records replayed during recovery.
    pub frames_replayed: u64,
    /// Torn spool records found (each marks a truncation point).
    pub torn_records: u64,
    /// Cross-shard suite reports delivered.
    pub suite_reports_sent: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_into_snapshot() {
        let m = Metrics::new();
        m.session_started();
        m.session_started();
        m.session_ended();
        m.session_refused();
        m.ingested(100, 900);
        m.ingested(50, 400);
        m.refit_run();
        m.refit_coalesced();
        m.report_sent();
        m.pause_sent();
        m.session_error();
        m.idle_reap();
        m.observe_ingest_depth(3);
        m.observe_ingest_depth(1);
        m.observe_analysis_depth(2);
        m.spool_append(900);
        m.spool_append(400);
        m.segment_sealed();
        m.compaction_run();
        m.recovery(2, 9, 1);
        m.session_resumed();
        m.suite_report_sent();
        let s = m.snapshot();
        assert_eq!(s.sessions_served, 2);
        assert_eq!(s.sessions_active, 1);
        assert_eq!(s.sessions_refused, 1);
        assert_eq!(s.samples_ingested, 150);
        assert_eq!(s.bytes_ingested, 1300);
        assert_eq!(s.frames_ingested, 2);
        assert_eq!(s.refits_run, 1);
        assert_eq!(s.refits_coalesced, 1);
        assert_eq!(s.reports_sent, 1);
        assert_eq!(s.pauses_sent, 1);
        assert_eq!(s.session_errors, 1);
        assert_eq!(s.idle_reaped, 1);
        assert_eq!(s.ingest_queue_high_water, 3);
        assert_eq!(s.analysis_queue_high_water, 2);
        assert_eq!(s.spool_records, 2);
        assert_eq!(s.spool_bytes, 1300);
        assert_eq!(s.segments_sealed, 1);
        assert_eq!(s.compactions_run, 1);
        assert_eq!(s.sessions_recovered, 2);
        assert_eq!(s.sessions_resumed, 1);
        assert_eq!(s.frames_replayed, 9);
        assert_eq!(s.torn_records, 1);
        assert_eq!(s.suite_reports_sent, 1);
    }

    #[test]
    fn snapshot_serializes_roundtrip() {
        let m = Metrics::new();
        m.ingested(7, 70);
        let s = m.snapshot();
        let json = serde_json::to_string(&s).expect("serialize");
        let back: StatsSnapshot = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, s);
    }
}
