//! The daemon itself: listener, per-connection threads, backpressure,
//! limits, idle sweeping and graceful shutdown.
//!
//! Thread shape, per daemon: one accept thread, one idle-sweeper
//! thread, and a fixed [`Scheduler`] pool for regression-tree fits.
//! Per connection: a *reader* thread (decodes frames, enforces limits,
//! applies backpressure) and, once `Hello` lands, an *engine* thread
//! (drains the bounded ingest queue, updates the [`SessionEngine`],
//! submits fit snapshots to the pool). Replies from any thread go
//! through one mutex-guarded writer per connection, so JSON lines never
//! interleave.
//!
//! Backpressure is a contract, not advice: the ingest queue is a
//! bounded channel of `queue_cap` frames. When the reader finds it
//! full it pushes `Pause` to the client and then *blocks* on the queue
//! — the client may stop cooperating, but the server's memory use per
//! session stays capped either way. The engine sends `Resume` once the
//! queue drains to half capacity.
//!
//! Shutdown is two-phase. [`Server::begin_shutdown`] flips the daemon
//! to *draining*: new connections are refused with an `Error` line,
//! in-flight sessions run to completion. [`Server::shutdown`] then
//! waits for the session table to empty (up to `drain_deadline_ms`,
//! after which stragglers' sockets are closed), stops the accept loop
//! with a self-connection nudge, and joins every thread.

use crate::clock::{Clock, SystemClock};
use crate::framing::{read_frame, FRAME_CONTROL, FRAME_SAMPLES};
use crate::metrics::{Metrics, StatsSnapshot};
use crate::protocol::{decode_control, write_msg, ClientControl, ServerMsg, PROTOCOL_VERSION};
use crate::recovery::{recover_session, RecoveredSession};
use crate::scheduler::{InFlight, Scheduler};
use crate::session::{SessionConfig, SessionEngine};
use crate::spool::{compact_session, SessionMeta, SessionSpool, SpoolConfig};
use fuzzyphase::{merge_partials, AnalysisRequest, SessionPartial, WorkerBudget};
use fuzzyphase_profiler::trace::read_samples_into;
use fuzzyphase_profiler::EipvData;
use fuzzyphase_regtree::{FitDelta, FitState, Fitter, RegressionTree};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Maximum concurrent sessions; `Hello` beyond this is refused.
    pub max_sessions: usize,
    /// Maximum bytes in one frame payload.
    pub max_frame_bytes: usize,
    /// Maximum sample-payload bytes one session may stream.
    pub max_session_bytes: u64,
    /// Per-session ingest queue capacity, in frames (the backpressure
    /// bound).
    pub queue_cap: usize,
    /// Close sessions quiet for this long (0 disables the sweeper).
    pub idle_timeout_ms: u64,
    /// Idle-sweeper polling cadence.
    pub sweep_interval_ms: u64,
    /// Engine-side floor on per-batch processing time. 0 in production;
    /// tests raise it to make a deliberately slow consumer, so
    /// backpressure is reproducible instead of racing the scheduler.
    pub min_batch_interval_ms: u64,
    /// How long [`Server::shutdown`] waits for sessions to finish
    /// before force-closing their sockets.
    pub drain_deadline_ms: u64,
    /// Thread budget: `suite` sizes the fit pool, `fold` becomes each
    /// fit's `cv.workers` — the same split the offline suite runner
    /// uses.
    pub workers: WorkerBudget,
    /// The analysis request applied to every session: regression-tree
    /// options, quadrant thresholds, differential-analysis options and
    /// the default refit cadence, all behind the one builder the
    /// offline pipeline uses. (The request's own worker budget and
    /// profile shape are ignored here — the daemon profiles nothing and
    /// sizes threads with [`ServerConfig::workers`].)
    pub request: AnalysisRequest,
    /// Write-ahead trace spool (DESIGN.md D10). `None` disables
    /// durability: no spooling, no recovery, no resume tokens.
    pub spool: Option<SpoolConfig>,
    /// Worker shards (DESIGN.md D11). Each session is routed to one
    /// shard by a stable hash of its token; every shard owns its own
    /// session map, fit scheduler and spool subdirectory. 1 (the
    /// default) keeps the flat single-shard layout.
    pub shards: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_sessions: 64,
            max_frame_bytes: 8 << 20,
            max_session_bytes: 1 << 30,
            queue_cap: 64,
            idle_timeout_ms: 30_000,
            sweep_interval_ms: 25,
            min_batch_interval_ms: 0,
            drain_deadline_ms: 10_000,
            workers: WorkerBudget::default(),
            request: AnalysisRequest::new(),
            spool: None,
            shards: 1,
        }
    }
}

/// FNV-1a over the token bytes — the stable session→shard router.
/// Stability matters doubly: reconnects land on the shard that owns the
/// session's live state, and (unlike a load-balancing pick) the mapping
/// is a pure function of the token, never of arrival order.
pub fn shard_for_token(token: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in token.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % shards.max(1) as u64) as usize
}

/// Shard `index`'s spool root: the flat root itself for a single-shard
/// daemon (byte-compatible with pre-shard spool layouts), or
/// `<root>/shard-NNN` when sharded.
fn shard_spool_config(base: &SpoolConfig, index: usize, shards: usize) -> SpoolConfig {
    if shards <= 1 {
        base.clone()
    } else {
        SpoolConfig {
            dir: base.dir.join(crate::recovery::shard_dir_name(index)),
            ..base.clone()
        }
    }
}

const STATE_RUNNING: u8 = 0;
const STATE_DRAINING: u8 = 1;
const STATE_STOPPED: u8 = 2;

/// One worker shard: exclusive owner of a subset of sessions, routed by
/// [`shard_for_token`]. Each shard has its own session map, fit
/// scheduler, recovered-session map, token claims, spool subdirectory
/// and finished-session partials — the only cross-shard structures are
/// the admission lock (exact `max_sessions` enforcement) and the merge
/// in `suite_report`, both deliberate synchronization points.
struct Shard {
    /// Regression-tree fit pool for this shard's sessions.
    scheduler: Scheduler,
    /// This shard's spool root (`<root>` flat when the daemon runs one
    /// shard, `<root>/shard-NNN` otherwise). `None` when durability is
    /// off.
    spool: Option<SpoolConfig>,
    /// Active sessions by id — `BTreeMap` so sweeps and drains walk in
    /// a stable order.
    sessions: Mutex<BTreeMap<u64, Arc<SessionShared>>>,
    /// Sessions rebuilt from spools at startup, waiting for their
    /// client to reconnect. Consume-on-resume: a token leaves the map
    /// for good the moment a connection claims it; later resumes of the
    /// same token replay the spool from disk on demand.
    recovered: Mutex<BTreeMap<String, RecoveredSession>>,
    /// Resume tokens currently owned by a live connection — the claim
    /// that prevents two clients from resuming the same session.
    active_tokens: Mutex<BTreeSet<String>>,
    /// Finished sessions' suite contributions, keyed by token. Read by
    /// `SuiteReport`, which merges every shard's map in token order.
    partials: Mutex<BTreeMap<String, SessionPartial>>,
}

/// State shared by every daemon thread.
struct Shared {
    cfg: ServerConfig,
    fold_workers: usize,
    metrics: Arc<Metrics>,
    clock: Arc<dyn Clock>,
    state: AtomicU8,
    shutdown_requested: AtomicBool,
    next_session: AtomicU64,
    /// The worker shards (always at least one).
    shards: Vec<Shard>,
    /// Serializes admission so the `max_sessions` cap is exact across
    /// shards: count-then-insert happens under this lock, never racing
    /// another connection's admission.
    admission: Mutex<()>,
}

impl Shared {
    fn begin_drain(&self) {
        let _ = self.state.compare_exchange(
            STATE_RUNNING,
            STATE_DRAINING,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }

    fn shard_for(&self, token: &str) -> usize {
        shard_for_token(token, self.shards.len())
    }

    /// Total open sessions across all shards.
    fn total_sessions(&self) -> usize {
        self.shards.iter().map(|s| s.sessions.lock().len()).sum()
    }

    /// Runs `f` on every live session, shard by shard.
    fn for_each_session(&self, mut f: impl FnMut(&Arc<SessionShared>)) {
        for shard in &self.shards {
            for s in shard.sessions.lock().values() {
                f(s);
            }
        }
    }
}

/// The incremental-refit state one session accumulates across interim
/// fits (DESIGN.md D15): the delta-maintained [`FitState`], the last
/// interim tree (for the `nodes_changed` wire count) and its training
/// RE (the next message's `re_from`). Guarded by a mutex that is in
/// practice uncontended — `refit_in_flight` already serializes refits
/// per session — and never held across a wire write.
#[derive(Default)]
struct RefitState {
    state: Option<FitState>,
    prev_tree: Option<RegressionTree>,
    prev_re: Option<f64>,
}

/// Per-connection state shared by reader, engine, sweeper and fit jobs.
struct SessionShared {
    /// Server-assigned id; 0 until `Hello` registers the session.
    id: AtomicU64,
    stream: TcpStream,
    writer: Mutex<BufWriter<TcpStream>>,
    paused: AtomicBool,
    dead: AtomicBool,
    expired: AtomicBool,
    /// Set while a refit job is queued or running; see [`InFlight`].
    refit_in_flight: Arc<AtomicBool>,
    /// Incremental-refit state; see [`RefitState`].
    refit: Mutex<RefitState>,
    /// Set while a compaction job is queued or running.
    compaction_in_flight: Arc<AtomicBool>,
    /// Set once the final `Report` went out — the reader's cue to
    /// delete the session's spool at teardown.
    completed: AtomicBool,
    last_activity: AtomicU64,
}

impl SessionShared {
    fn new(stream: TcpStream, writer: TcpStream, now: u64) -> Self {
        Self {
            id: AtomicU64::new(0),
            stream,
            writer: Mutex::new(BufWriter::new(writer)),
            paused: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            expired: AtomicBool::new(false),
            refit_in_flight: Arc::new(AtomicBool::new(false)),
            refit: Mutex::new(RefitState::default()),
            compaction_in_flight: Arc::new(AtomicBool::new(false)),
            completed: AtomicBool::new(false),
            last_activity: AtomicU64::new(now),
        }
    }

    /// Writes one JSON line and flushes; marks the session dead on I/O
    /// failure so every thread stops touching the socket. The dead
    /// latch is set *after* the writer guard is released: it is a
    /// stop-touching-the-socket signal with no ordering relationship to
    /// the wire, and keeping it out of the guard scope keeps the flag's
    /// locking discipline uniform across the codebase (R9).
    fn send(&self, msg: &ServerMsg) -> io::Result<()> {
        let r = {
            let mut w = self.writer.lock();
            // fuzzylint: allow(guard_blocking) — the writer lock exists to
            // serialize whole-frame wire writes; flushing under it is the point
            write_msg(&mut *w, msg).and_then(|()| w.flush())
        };
        if r.is_err() {
            self.dead.store(true, Ordering::SeqCst);
        }
        r
    }

    /// Latches the pause flag and puts `Pause` on the wire as one step
    /// under the writer lock. Pairing the flag with the write is what
    /// keeps backpressure race-free: if flag and wire could interleave,
    /// the engine's `Resume` could land before this `Pause` with the
    /// flag already cleared, and a cooperative client would stall
    /// forever on a pause nobody will lift.
    fn send_pause(&self) -> io::Result<()> {
        let r = {
            let mut w = self.writer.lock();
            self.paused.store(true, Ordering::SeqCst);
            // fuzzylint: allow(guard_blocking) — flag and wire must leave as
            // one step under the writer lock (the PR-6 lost-wakeup fix)
            write_msg(&mut *w, &ServerMsg::Pause).and_then(|()| w.flush())
        };
        if r.is_err() {
            self.dead.store(true, Ordering::SeqCst);
        }
        r
    }

    /// Clears the pause flag and sends `Resume`, also under the writer
    /// lock; a no-op when the session is not paused. See [`Self::send_pause`].
    fn send_resume_if_paused(&self) -> io::Result<()> {
        let r = {
            let mut w = self.writer.lock();
            if !self.paused.swap(false, Ordering::SeqCst) {
                return Ok(());
            }
            // fuzzylint: allow(guard_blocking) — flag and wire must leave as
            // one step under the writer lock (the PR-6 lost-wakeup fix)
            write_msg(&mut *w, &ServerMsg::Resume).and_then(|()| w.flush())
        };
        if r.is_err() {
            self.dead.store(true, Ordering::SeqCst);
        }
        r
    }

    fn send_error(&self, metrics: &Metrics, message: String) {
        metrics.session_error();
        let _ = self.send(&ServerMsg::Error { message });
    }

    fn touch(&self, clock: &dyn Clock) {
        self.last_activity
            .store(clock.now_millis(), Ordering::Relaxed);
    }
}

/// What the reader hands the engine.
enum EngineMsg {
    /// Raw trace-codec bytes of one samples frame.
    Batch(Vec<u8>),
    /// End of trace: run the final fit and report.
    Finish,
}

/// A running daemon handle. Call [`Server::shutdown`] for an orderly
/// stop; merely dropping the handle leaves daemon threads running until
/// process exit.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    sweeper: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds and starts serving with the real clock.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        Self::start_with_clock(cfg, Arc::new(SystemClock::new()))
    }

    /// Binds and starts serving with an injected clock (tests drive
    /// idle timeouts with a [`ManualClock`](crate::clock::ManualClock)).
    pub fn start_with_clock(cfg: ServerConfig, clock: Arc<dyn Clock>) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let metrics = Arc::new(Metrics::new());
        let shard_count = cfg.shards.max(1);
        let (pool, fold_workers) = cfg.workers.resolve(cfg.max_sessions.max(1));
        // The fit budget splits evenly across shards (every shard gets
        // at least one worker, so a --shards value above the pool width
        // oversubscribes rather than starving shards).
        let shard_pool = (pool / shard_count).max(1);

        // Replay spools before accepting connections: crashed sessions
        // become resumable, and the id counter starts past every token
        // on disk so a restart never reissues one. The scan is
        // layout-agnostic (flat and shard-NNN directories both count),
        // so restarting with a different --shards value recovers
        // everything; each recovered session is then routed to the
        // shard the *current* hash assigns its token.
        let mut recovered_by_shard: Vec<BTreeMap<String, RecoveredSession>> =
            (0..shard_count).map(|_| BTreeMap::new()).collect();
        let mut first_id = 1u64;
        if let Some(spool_cfg) = &cfg.spool {
            let (map, rstats) = crate::recovery::recover_all(spool_cfg)?;
            metrics.recovery(
                rstats.sessions_recovered,
                rstats.frames_replayed,
                rstats.torn_records,
            );
            first_id = rstats.max_session_id + 1;
            for (token, sess) in map {
                let idx = shard_for_token(&token, shard_count);
                recovered_by_shard[idx].insert(token, sess);
            }
        }

        let shards: Vec<Shard> = recovered_by_shard
            .into_iter()
            .enumerate()
            .map(|(index, recovered)| Shard {
                scheduler: Scheduler::new(
                    shard_pool,
                    cfg.max_sessions.max(1),
                    Arc::clone(&metrics),
                ),
                spool: cfg
                    .spool
                    .as_ref()
                    .map(|s| shard_spool_config(s, index, shard_count)),
                sessions: Mutex::new(BTreeMap::new()),
                recovered: Mutex::new(recovered),
                active_tokens: Mutex::new(BTreeSet::new()),
                partials: Mutex::new(BTreeMap::new()),
            })
            .collect();

        let shared = Arc::new(Shared {
            cfg,
            fold_workers,
            metrics,
            clock,
            state: AtomicU8::new(STATE_RUNNING),
            shutdown_requested: AtomicBool::new(false),
            next_session: AtomicU64::new(first_id),
            shards,
            admission: Mutex::new(()),
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("fuzzyphased-accept".into())
                .spawn(move || accept_loop(listener, shared, conns))
                // fuzzylint: allow(panic) — cannot serve without the
                // accept thread; failing to spawn it at startup is fatal
                .expect("spawn accept thread")
        };
        let sweeper = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fuzzyphased-sweeper".into())
                .spawn(move || sweep_loop(shared))
                // fuzzylint: allow(panic) — same startup-only failure mode
                // as the accept thread
                .expect("spawn sweeper thread")
        };
        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            sweeper: Some(sweeper),
            conns,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the daemon counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// The daemon's metrics handle.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// Whether a client sent the `Shutdown` control request.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Number of currently open sessions (across all shards).
    pub fn active_sessions(&self) -> usize {
        self.shared.total_sessions()
    }

    /// Number of worker shards this daemon runs.
    pub fn shard_count(&self) -> usize {
        self.shared.shards.len()
    }

    /// Open sessions per shard, in shard order — the router's live
    /// distribution (tests and diagnostics; the wire `Stats` carries
    /// only scalars).
    pub fn shard_sessions(&self) -> Vec<usize> {
        self.shared
            .shards
            .iter()
            .map(|s| s.sessions.lock().len())
            .collect()
    }

    /// Enters draining: running sessions continue, new connections are
    /// refused with an `Error` line.
    pub fn begin_shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Graceful stop: drain sessions (force-closing any that outlive
    /// `drain_deadline_ms`), stop accepting, join all threads.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        let poll = Duration::from_millis(10);
        let mut waited = 0u64;
        while self.shared.total_sessions() > 0 {
            if waited >= self.shared.cfg.drain_deadline_ms {
                self.shared.for_each_session(|s| {
                    s.dead.store(true, Ordering::SeqCst);
                    let _ = s.stream.shutdown(Shutdown::Both);
                });
            }
            std::thread::sleep(poll);
            waited += 10;
        }
        self.shared.state.store(STATE_STOPPED, Ordering::SeqCst);
        // Nudge the accept loop out of its blocking accept().
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            // fuzzylint: allow(panic) — a panicked daemon thread is a bug;
            // surface it at shutdown rather than swallowing it
            h.join().expect("accept thread panicked");
        }
        if let Some(h) = self.sweeper.take() {
            // fuzzylint: allow(panic) — as above
            h.join().expect("sweeper thread panicked");
        }
        let conns: Vec<_> = std::mem::take(&mut *self.conns.lock());
        for h in conns {
            // fuzzylint: allow(panic) — as above
            h.join().expect("connection thread panicked");
        }
    }

    /// Simulated crash for recovery tests: no drain, no final fits, no
    /// goodbye — every session socket is force-closed and threads are
    /// joined, leaving spool directories exactly as a SIGKILL would.
    /// Sessions are *not* completed, so their spools survive for the
    /// next daemon start to recover.
    pub fn abort(mut self) {
        self.shared.state.store(STATE_STOPPED, Ordering::SeqCst);
        self.shared.for_each_session(|s| {
            s.dead.store(true, Ordering::SeqCst);
            let _ = s.stream.shutdown(Shutdown::Both);
        });
        // Nudge the accept loop out of its blocking accept().
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.sweeper.take() {
            let _ = h.join();
        }
        let conns: Vec<_> = std::mem::take(&mut *self.conns.lock());
        for h in conns {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, conns: Arc<Mutex<Vec<JoinHandle<()>>>>) {
    for stream in listener.incoming() {
        if shared.state.load(Ordering::SeqCst) == STATE_STOPPED {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        if shared.state.load(Ordering::SeqCst) == STATE_DRAINING {
            shared.metrics.session_refused();
            refuse(stream, "daemon is draining; not accepting new connections");
            continue;
        }
        let shared2 = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("fuzzyphased-conn".into())
            .spawn(move || connection_thread(stream, shared2));
        match spawned {
            Ok(h) => conns.lock().push(h),
            Err(_) => shared.metrics.session_refused(),
        }
    }
}

/// Best-effort refusal: one `Error` line, one `Bye`, close.
fn refuse(stream: TcpStream, why: &str) {
    let mut w = BufWriter::new(stream);
    let _ = write_msg(
        &mut w,
        &ServerMsg::Error {
            message: why.to_string(),
        },
    );
    let _ = write_msg(&mut w, &ServerMsg::Bye);
    let _ = w.flush();
}

fn sweep_loop(shared: Arc<Shared>) {
    loop {
        if shared.state.load(Ordering::SeqCst) == STATE_STOPPED {
            break;
        }
        if shared.cfg.idle_timeout_ms > 0 {
            let now = shared.clock.now_millis();
            shared.for_each_session(|s| {
                let quiet = now.saturating_sub(s.last_activity.load(Ordering::Relaxed));
                if quiet >= shared.cfg.idle_timeout_ms && !s.expired.swap(true, Ordering::SeqCst) {
                    shared.metrics.idle_reap();
                    // EOF the reader; the write side stays open so the
                    // timeout error can still be delivered.
                    let _ = s.stream.shutdown(Shutdown::Read);
                }
            });
        }
        std::thread::sleep(Duration::from_millis(shared.cfg.sweep_interval_ms.max(1)));
    }
}

/// Everything `open_session` hands back to the reader loop.
struct OpenedSession {
    id: u64,
    /// Index of the shard that owns this session.
    shard: usize,
    tx: crossbeam::channel::Sender<EngineMsg>,
    engine: JoinHandle<()>,
    /// The session's write-ahead spool (None when durability is off).
    spool: Option<SessionSpool>,
    /// The resume token, owned for the connection's lifetime.
    token: Option<String>,
}

/// Reader side of one connection: frames in, limits, backpressure.
fn connection_thread(stream: TcpStream, shared: Arc<Shared>) {
    let (writer_half, mut reader_half) = match (stream.try_clone(), stream.try_clone()) {
        (Ok(w), Ok(r)) => (w, r),
        _ => return,
    };
    let session = Arc::new(SessionShared::new(
        stream,
        writer_half,
        shared.clock.now_millis(),
    ));

    let mut registered: Option<OpenedSession> = None;
    let mut session_bytes: u64 = 0;

    loop {
        if session.dead.load(Ordering::SeqCst) {
            break;
        }
        let frame = match read_frame(&mut reader_half, shared.cfg.max_frame_bytes) {
            Ok(Some(f)) => f,
            Ok(None) => {
                if session.expired.load(Ordering::SeqCst) {
                    let _ = session.send(&ServerMsg::Error {
                        message: format!(
                            "session {} idle for {} ms; closing",
                            session.id.load(Ordering::Relaxed),
                            shared.cfg.idle_timeout_ms
                        ),
                    });
                    let _ = session.send(&ServerMsg::Bye);
                }
                break;
            }
            Err(e) => {
                session.send_error(&shared.metrics, format!("bad frame: {e}"));
                break;
            }
        };
        session.touch(shared.clock.as_ref());

        match frame {
            (FRAME_CONTROL, payload) => {
                let ctl = match decode_control(&payload) {
                    Ok(c) => c,
                    Err(e) => {
                        session.send_error(&shared.metrics, format!("bad control frame: {e}"));
                        break;
                    }
                };
                match ctl {
                    ClientControl::Hello {
                        name,
                        spv,
                        refit_every,
                        protocol,
                        resume,
                    } => {
                        if registered.is_some() {
                            session.send_error(&shared.metrics, "duplicate Hello".to_string());
                            break;
                        }
                        match open_session(
                            &shared,
                            &session,
                            &name,
                            spv,
                            refit_every,
                            protocol,
                            resume,
                        ) {
                            Ok(r) => {
                                session_bytes = r.1;
                                registered = Some(r.0);
                            }
                            Err(msg) => {
                                let _ = session.send(&ServerMsg::Error { message: msg });
                                break;
                            }
                        }
                    }
                    ClientControl::Finish => match &registered {
                        Some(opened) => {
                            if opened.tx.send(EngineMsg::Finish).is_err() {
                                break;
                            }
                        }
                        None => {
                            session.send_error(&shared.metrics, "Finish before Hello".to_string());
                            break;
                        }
                    },
                    ClientControl::Stats => {
                        let _ = session.send(&ServerMsg::Stats(shared.metrics.snapshot()));
                    }
                    ClientControl::Ping => {
                        let _ = session.send(&ServerMsg::Pong);
                    }
                    ClientControl::Shutdown => {
                        shared.shutdown_requested.store(true, Ordering::SeqCst);
                        shared.begin_drain();
                        let _ = session.send(&ServerMsg::Bye);
                        break;
                    }
                    ClientControl::SuiteReport => match suite_report(&shared) {
                        Ok(msg) => {
                            shared.metrics.suite_report_sent();
                            let _ = session.send(&msg);
                        }
                        Err(message) => {
                            session.send_error(&shared.metrics, message);
                        }
                    },
                    ClientControl::Diff { a, b } => match diff_report(&shared, &a, &b) {
                        Ok(msg) => {
                            let _ = session.send(&msg);
                        }
                        Err(message) => {
                            session.send_error(&shared.metrics, message);
                        }
                    },
                }
            }
            (FRAME_SAMPLES, payload) => {
                let Some(opened) = &mut registered else {
                    session.send_error(&shared.metrics, "samples before Hello".to_string());
                    break;
                };
                session_bytes += payload.len() as u64;
                if session_bytes > shared.cfg.max_session_bytes {
                    session.send_error(
                        &shared.metrics,
                        format!(
                            "session exceeded {} payload bytes",
                            shared.cfg.max_session_bytes
                        ),
                    );
                    break;
                }
                // Write-ahead: the frame must be durable before it can
                // enter the ingest queue. A frame the spool never saw is
                // a frame the client still owns (its `last_seq` after a
                // crash tells it to retransmit).
                if let Some(spool) = opened.spool.as_mut() {
                    match spool.append_frame(&payload) {
                        Ok(sealed) => {
                            shared.metrics.spool_append(payload.len() as u64);
                            if sealed {
                                shared.metrics.segment_sealed();
                                schedule_compaction(&shared, opened.shard, &session, spool.dir());
                            }
                        }
                        Err(e) => {
                            session.send_error(&shared.metrics, format!("spool write failed: {e}"));
                            break;
                        }
                    }
                }
                // Backpressure: if the bounded queue is full, tell the
                // client to pause, then block until the engine frees a
                // slot. Memory stays bounded whether or not the client
                // listens.
                match opened.tx.try_send(EngineMsg::Batch(payload)) {
                    Ok(()) => {}
                    Err(crossbeam::channel::TrySendError::Full(msg)) => {
                        shared.metrics.pause_sent();
                        let _ = session.send_pause();
                        if opened.tx.send(msg).is_err() {
                            break;
                        }
                    }
                    Err(crossbeam::channel::TrySendError::Disconnected(_)) => break,
                }
                shared.metrics.observe_ingest_depth(opened.tx.len() as u64);
            }
            (kind, _) => {
                session.send_error(&shared.metrics, format!("unknown frame kind {kind}"));
                break;
            }
        }
    }

    // Teardown: closing the ingest channel stops the engine once it has
    // drained everything already queued.
    if let Some(opened) = registered {
        let shard = &shared.shards[opened.shard];
        drop(opened.tx);
        // fuzzylint: allow(panic) — engine panics are daemon bugs;
        // propagate them instead of hiding a half-dead session
        opened.engine.join().expect("session engine panicked");
        shard.sessions.lock().remove(&opened.id);
        shared.metrics.session_ended();
        if let Some(mut spool) = opened.spool {
            let _ = spool.sync();
            // Let an in-flight compaction finish before deciding the
            // directory's fate.
            while session.compaction_in_flight.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            if session.completed.load(Ordering::SeqCst) {
                // Report delivered: the spool has served its purpose.
                let dir = spool.dir().to_path_buf();
                drop(spool);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
        if let Some(token) = opened.token {
            shard.active_tokens.lock().remove(&token);
        }
    }
    let _ = session.stream.shutdown(Shutdown::Both);
}

/// Builds the cross-shard suite report: clones every shard's finished
/// partials, folds them in token order ([`merge_partials`] — the bits
/// are the same for any shard count), and runs the suite-level fit.
/// Runs inline on the requesting connection's thread, like `Stats`.
fn suite_report(shared: &Arc<Shared>) -> Result<ServerMsg, String> {
    let mut partials: Vec<SessionPartial> = Vec::new();
    for shard in &shared.shards {
        partials.extend(shard.partials.lock().values().cloned());
    }
    if partials.is_empty() {
        return Err("no finished sessions to report on".to_string());
    }
    let merged = merge_partials(partials);
    let folds = shared.cfg.request.analysis().cv.folds;
    if merged.data.len() < folds {
        return Err(format!(
            "suite too small: {} complete vectors across {} sessions, need at least {} (one per fold)",
            merged.data.len(),
            merged.sessions,
            folds
        ));
    }
    let mut scfg = SessionConfig {
        spv: 1,
        refit_every: 0,
        analysis: *shared.cfg.request.analysis(),
        thresholds: *shared.cfg.request.thresholds(),
    };
    scfg.analysis.cv.workers = shared.fold_workers;
    let fit = crate::session::run_fit(&merged.data.vectors, &merged.data.cpis, &scfg);
    Ok(ServerMsg::SuiteReport {
        report: fit.report,
        quadrant: fit.quadrant,
        recommendation: fit.recommendation,
        sessions: merged.sessions as u64,
        samples: merged.samples,
        vectors: merged.data.len() as u64,
        shards: shared.shards.len() as u64,
    })
}

/// Resolves one `Diff` side — a resume token or a path to a spool
/// session directory — to its canonical label (the session token) and
/// replayed EIPV data. Read-only: finished partials and recovered
/// sessions are cloned without consuming their resume entries, and
/// on-disk spools are replayed on demand. Labeling by token (never the
/// raw path) is what makes the daemon's reply byte-identical to the
/// offline `fuzzydiff` CLI over the same spool directories.
fn diff_side(shared: &Arc<Shared>, spec: &str) -> Result<(String, EipvData), String> {
    let path = Path::new(spec);
    if spec.contains(std::path::MAIN_SEPARATOR) || path.is_dir() {
        let token = path
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| format!("diff side '{spec}': not a session directory"))?
            .to_string();
        let rec = crate::spool::recover_session_dir(path, &token)
            .map_err(|e| format!("diff side '{spec}': {e}"))?;
        return Ok((token, rec.state.builder.data().clone()));
    }
    let shard = &shared.shards[shared.shard_for(spec)];
    if let Some(partial) = shard.partials.lock().get(spec) {
        return Ok((spec.to_string(), partial.data.clone()));
    }
    if let Some(rec) = shard.recovered.lock().get(spec) {
        return Ok((spec.to_string(), rec.spool.state.builder.data().clone()));
    }
    let Some(spool_cfg) = &shared.cfg.spool else {
        return Err(format!(
            "diff side '{spec}': daemon has no spool; pass a session directory path"
        ));
    };
    let dir = locate_session_dir(spool_cfg, shard.spool.as_ref(), spec);
    let rec = recover_session(&dir, spec).map_err(|e| format!("diff side '{spec}': {e}"))?;
    Ok((spec.to_string(), rec.spool.state.builder.data().clone()))
}

/// Answers [`ClientControl::Diff`]: resolves both sides, fits the
/// discriminant tree (`fuzzyphase_diff::diff` with the daemon request's
/// diff options — the defaults are the wire contract) on the owning
/// shard's fit pool, inline on this connection's thread when the pool
/// is unavailable. The reply bytes depend only on the two sides'
/// spooled samples, never on shard count or where the fit ran.
fn diff_report(shared: &Arc<Shared>, a: &str, b: &str) -> Result<ServerMsg, String> {
    let (label_a, data_a) = diff_side(shared, a)?;
    let (label_b, data_b) = diff_side(shared, b)?;
    let opts = *shared.cfg.request.diff();
    let shard = &shared.shards[shared.shard_for(&label_a)];
    let fit = {
        let (tx, rx) = crossbeam::channel::bounded(1);
        let (ja, jb) = (data_a.clone(), data_b.clone());
        let (la, lb) = (label_a.clone(), label_b.clone());
        let queued = shard.scheduler.submit(&shared.metrics, move || {
            let _ = tx.send(fuzzyphase_diff::diff(&ja, &jb, &la, &lb, &opts));
        });
        if queued {
            rx.recv()
                .map_err(|_| "diff fit job disappeared".to_string())?
        } else {
            fuzzyphase_diff::diff(&data_a, &data_b, &label_a, &label_b, &opts)
        }
    };
    let report = fit.map_err(|e| e.to_string())?;
    Ok(ServerMsg::Diff { report })
}

/// Queues a compaction pass for one session's spool on its shard's
/// analysis pool, at most one in flight per session. The job owns the
/// `compaction_in_flight` latch, as in [`submit_refit`].
fn schedule_compaction(shared: &Arc<Shared>, shard: usize, session: &SessionShared, dir: &Path) {
    let Some(latch) = InFlight::claim(&session.compaction_in_flight) else {
        return;
    };
    let dir = dir.to_path_buf();
    let job_shared = Arc::clone(shared);
    shared.shards[shard]
        .scheduler
        .submit(&shared.metrics, move || {
            if let Ok(Some(_)) = compact_session(&dir) {
                job_shared.metrics.compaction_run();
            }
            drop(latch);
        });
}

/// Where a resumable session's spool directory actually lives. The
/// current-hash shard directory is checked first, then the flat root (a
/// spool left by a single-shard run), then every `shard-NNN`
/// subdirectory in sorted order (a spool left by a run with a different
/// shard count). When nothing exists the preferred path is returned, so
/// the caller's recovery error names the canonical location.
fn locate_session_dir(
    root: &SpoolConfig,
    shard_spool: Option<&SpoolConfig>,
    token: &str,
) -> PathBuf {
    let mut candidates: Vec<PathBuf> = Vec::new();
    if let Some(s) = shard_spool {
        candidates.push(s.dir.join(token));
    }
    candidates.push(root.dir.join(token));
    if let Ok(entries) = std::fs::read_dir(&root.dir) {
        let mut shard_dirs: Vec<PathBuf> = entries
            .flatten()
            .filter(|e| {
                e.file_name()
                    .to_str()
                    .is_some_and(|n| crate::recovery::parse_shard_dir(n).is_some())
            })
            .map(|e| e.path())
            .collect();
        shard_dirs.sort();
        for d in shard_dirs {
            candidates.push(d.join(token));
        }
    }
    let preferred = candidates[0].clone();
    candidates
        .into_iter()
        .find(|p| p.is_dir())
        .unwrap_or(preferred)
}

/// Validates `Hello` (fresh or resume), registers the session and
/// spawns its engine. Returns the opened session plus the initial
/// session-byte count (a resumed session inherits its replayed bytes,
/// so `max_session_bytes` is a whole-trace limit, not a per-connection
/// one).
fn open_session(
    shared: &Arc<Shared>,
    session: &Arc<SessionShared>,
    name: &str,
    spv: usize,
    refit_every: usize,
    protocol: u32,
    resume: Option<String>,
) -> Result<(OpenedSession, u64), String> {
    if spv == 0 {
        shared.metrics.session_error();
        return Err(format!("session '{name}': spv must be positive"));
    }
    // Hello's cadence wins; 0 falls back to the daemon request's
    // default cadence (itself 0 unless configured — no interim refits,
    // the pre-D15 behavior).
    let refit_every = if refit_every > 0 {
        refit_every
    } else {
        shared.cfg.request.refit_every()
    };
    if protocol != PROTOCOL_VERSION {
        shared.metrics.session_error();
        return Err(format!(
            "unsupported protocol version {protocol} (daemon speaks {PROTOCOL_VERSION})"
        ));
    }
    // Resume: route by token (a pure hash, so the reconnect lands on
    // the shard that owns the session), claim the token on that shard,
    // then rebuild state — from the startup map when the session
    // crashed with the daemon, from disk when only the connection died.
    let resumed: Option<(usize, RecoveredSession)> = match (&resume, &shared.cfg.spool) {
        (None, _) => None,
        (Some(_), None) => {
            shared.metrics.session_error();
            return Err("daemon has no spool; sessions cannot be resumed".to_string());
        }
        (Some(token), Some(spool_cfg)) => {
            let shard_idx = shared.shard_for(token);
            let shard = &shared.shards[shard_idx];
            if !shard.active_tokens.lock().insert(token.clone()) {
                shared.metrics.session_error();
                return Err(format!("session '{token}' is already connected"));
            }
            let release = || {
                shard.active_tokens.lock().remove(token);
                shared.metrics.session_error();
            };
            let rec = match shard.recovered.lock().remove(token) {
                Some(r) => r,
                None => {
                    let dir = locate_session_dir(spool_cfg, shard.spool.as_ref(), token);
                    match recover_session(&dir, token) {
                        Ok(r) => {
                            shared
                                .metrics
                                .recovery(1, r.spool.state.frames, r.spool.torn_records);
                            r
                        }
                        Err(e) => {
                            release();
                            return Err(format!("cannot resume session '{token}': {e}"));
                        }
                    }
                }
            };
            if rec.spool.state.meta.spv != spv {
                // Put the state back: the token is still resumable.
                let msg = format!(
                    "resume '{token}': spv {spv} does not match the session's spv {}",
                    rec.spool.state.meta.spv
                );
                shard.recovered.lock().insert(token.clone(), rec);
                release();
                return Err(msg);
            }
            Some((shard_idx, rec))
        }
    };
    let resume_shard = resumed.as_ref().map(|(si, _)| *si);

    // Admission + routing. A fresh session's token (`sess-NNNNNNNN`)
    // exists only once its id does, so the id is allocated under the
    // admission lock and the shard computed from the resulting token —
    // the same hash a future resume of that token will route by. The
    // lock makes the count-then-insert exact across shards.
    let (id, shard_idx) = {
        let _admission = shared.admission.lock();
        let total = shared.total_sessions();
        if total >= shared.cfg.max_sessions {
            shared.metrics.session_refused();
            if let (Some(si), Some(t)) = (resume_shard, &resume) {
                shared.shards[si].active_tokens.lock().remove(t);
            }
            return Err(format!(
                "too many sessions ({total} active, limit {})",
                shared.cfg.max_sessions
            ));
        }
        let id = shared.next_session.fetch_add(1, Ordering::SeqCst);
        let shard_idx = match resume_shard {
            Some(si) => si,
            None => shared.shard_for(&format!("sess-{id:08}")),
        };
        session.id.store(id, Ordering::Relaxed);
        shared.shards[shard_idx]
            .sessions
            .lock()
            .insert(id, Arc::clone(session));
        (id, shard_idx)
    };
    shared.metrics.session_started();
    let shard = &shared.shards[shard_idx];
    let deregister = || {
        shard.sessions.lock().remove(&id);
        shared.metrics.session_ended();
    };
    // Every token this session can own (resume or fresh) hashes to
    // `shard_idx`, so cleanup always targets that shard's claim set.
    let release_token = |token: &Option<String>| {
        if let Some(t) = token {
            shard.active_tokens.lock().remove(t);
        }
    };

    let mut scfg = SessionConfig {
        spv,
        refit_every,
        analysis: *shared.cfg.request.analysis(),
        thresholds: *shared.cfg.request.thresholds(),
    };
    scfg.analysis.cv.workers = shared.fold_workers;

    // Build the engine (fresh, or restored from the replayed state) and
    // the spool appender.
    let (engine, spool, token, last_seq, bytes) = match (resumed, &shard.spool) {
        // Resume was validated against the spool config above, so a
        // recovered session always pairs with one; handle the impossible
        // combination as an error rather than a panic.
        (Some(_), None) => {
            deregister();
            release_token(&resume);
            return Err("daemon has no spool; sessions cannot be resumed".to_string());
        }
        (Some((_, rec)), Some(spool_cfg)) => {
            // Reopen the spool where the scan actually found it — which
            // may be a different shard directory (or the flat root) than
            // the current hash would pick, after a --shards change.
            let spool = match SessionSpool::resume_in(rec.dir.clone(), spool_cfg, &rec.spool) {
                Ok(s) => s,
                Err(e) => {
                    deregister();
                    release_token(&resume);
                    return Err(format!("cannot reopen spool for '{name}': {e}"));
                }
            };
            let state = rec.spool.state;
            let engine = SessionEngine::restore(scfg, state.builder, state.welford, state.samples);
            shared.metrics.session_resumed();
            (engine, Some(spool), resume, state.frames, state.bytes)
        }
        (None, Some(spool_cfg)) => {
            let token = format!("sess-{id:08}");
            shard.active_tokens.lock().insert(token.clone());
            let meta = SessionMeta {
                token: token.clone(),
                name: name.to_string(),
                spv,
                refit_every,
                protocol,
            };
            match SessionSpool::create(spool_cfg, meta) {
                Ok(s) => (SessionEngine::new(scfg), Some(s), Some(token), 0, 0),
                Err(e) => {
                    shard.active_tokens.lock().remove(&token);
                    deregister();
                    return Err(format!("cannot create spool for '{name}': {e}"));
                }
            }
        }
        (None, None) => (SessionEngine::new(scfg), None, None, 0, 0),
    };

    let hello = ServerMsg::Hello {
        session: id,
        spv,
        refit_every,
        resume_token: token.clone(),
        last_seq,
    };
    if session.send(&hello).is_err() {
        deregister();
        release_token(&token);
        return Err("client went away during Hello".to_string());
    }

    // The key this session's finished state will carry into the suite
    // merge — the resume token when durability is on, else the
    // deterministic fresh-token string (still unique per id).
    let suite_key = token.clone().unwrap_or_else(|| format!("sess-{id:08}"));
    let (tx, rx) = crossbeam::channel::bounded::<EngineMsg>(shared.cfg.queue_cap.max(1));
    let engine_shared = Arc::clone(shared);
    let engine_session = Arc::clone(session);
    let spawned = std::thread::Builder::new()
        .name(format!("fuzzyphased-sess-{id}"))
        .spawn(move || {
            engine_thread(
                rx,
                engine_shared,
                engine_session,
                engine,
                shard_idx,
                suite_key,
            )
        });
    match spawned {
        Ok(h) => Ok((
            OpenedSession {
                id,
                shard: shard_idx,
                tx,
                engine: h,
                spool,
                token,
            },
            bytes,
        )),
        Err(e) => {
            deregister();
            release_token(&token);
            Err(format!("session '{name}': {e}"))
        }
    }
}

/// Engine side of one session: decode, accumulate, refit, finalize.
fn engine_thread(
    rx: crossbeam::channel::Receiver<EngineMsg>,
    shared: Arc<Shared>,
    session: Arc<SessionShared>,
    mut engine: SessionEngine,
    shard: usize,
    suite_key: String,
) {
    // Frame-decode scratch, reused across batches: once grown to the
    // largest frame seen, the decode path stops allocating.
    let mut samples = Vec::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            EngineMsg::Batch(bytes) => {
                if let Err(e) = read_samples_into(&bytes, &mut samples) {
                    session.send_error(&shared.metrics, format!("bad sample payload: {e}"));
                    // Unblock a reader stuck in a blocking read.
                    let _ = session.stream.shutdown(Shutdown::Both);
                    return;
                }
                let progress = engine.ingest(&samples);
                shared
                    .metrics
                    .ingested(samples.len() as u64, bytes.len() as u64);
                session.touch(shared.clock.as_ref());
                if session
                    .send(&ServerMsg::Progress {
                        samples: progress.samples,
                        vectors: progress.vectors,
                        cpi_mean: progress.cpi_mean,
                        cpi_variance: progress.cpi_variance,
                    })
                    .is_err()
                {
                    let _ = session.stream.shutdown(Shutdown::Both);
                    return;
                }
                if shared.cfg.min_batch_interval_ms > 0 {
                    std::thread::sleep(Duration::from_millis(shared.cfg.min_batch_interval_ms));
                }
                // Release backpressure once the queue has real headroom.
                if session.paused.load(Ordering::SeqCst)
                    && rx.len() <= shared.cfg.queue_cap.max(1) / 2
                {
                    let _ = session.send_resume_if_paused();
                }
                if engine.refit_due() {
                    match InFlight::claim(&session.refit_in_flight) {
                        Some(latch) => submit_refit(&shared, shard, &session, &mut engine, latch),
                        None => shared.metrics.refit_coalesced(),
                    }
                }
            }
            EngineMsg::Finish => {
                finish_session(&shared, shard, &session, engine, suite_key);
                return;
            }
        }
    }
}

/// Cuts the session's accumulated delta (everything since the rows the
/// [`FitState`] has already absorbed) and queues an *incremental* refit
/// on the shard's pool (DESIGN.md D15). The job folds the delta into
/// the session's delta-maintained split statistics, rebuilds only the
/// subtrees whose best split changed, and reports the movement as a
/// [`ServerMsg::RefitDelta`] — nodes changed, training RE from → to —
/// instead of re-deriving a whole report from scratch.
///
/// The first refit of a connection (fresh or resumed) sees an empty
/// `FitState`, so its "delta" is the whole accumulated prefix — which
/// by the D15 soundness argument produces exactly the tree a scratch
/// fit of that prefix would, the property the recovery tests pin.
///
/// The job owns `latch`, so `refit_in_flight` clears however the job
/// ends, or when the stopping pool drops it unrun.
fn submit_refit(
    shared: &Arc<Shared>,
    shard: usize,
    session: &Arc<SessionShared>,
    engine: &mut SessionEngine,
    latch: InFlight,
) {
    let absorbed = session
        .refit
        .lock()
        .state
        .as_ref()
        .map_or(0, FitState::rows);
    let (vectors, cpis) = engine.snapshot_delta(absorbed);
    let total = engine.vectors();
    let cfg = *engine.config();
    let job_shared = Arc::clone(shared);
    let job_session = Arc::clone(session);
    shared.shards[shard]
        .scheduler
        .submit(&shared.metrics, move || {
            // Same tree parameters the final fit's CV folds use.
            let fitter = Fitter::new()
                .max_leaves(cfg.analysis.cv.k_max)
                .min_leaf(cfg.analysis.cv.min_leaf);
            let delta_vectors = vectors.len() as u64;
            let delta = FitDelta::new(vectors, cpis);
            let msg = {
                let mut refit = job_session.refit.lock();
                let mut state = refit.state.take().unwrap_or_else(|| fitter.begin());
                let tree = fitter.incremental(&mut state, &delta);
                let re_to = tree.training_re();
                let nodes_changed = match &refit.prev_tree {
                    Some(prev) => tree.nodes_changed_from(prev),
                    None => tree.nodes().len(),
                } as u64;
                // Before any interim fit the "model" is the root mean:
                // all of the variance is unexplained, RE = 1.
                let re_from = refit.prev_re.unwrap_or(1.0);
                let msg = ServerMsg::RefitDelta {
                    vectors: total,
                    delta_vectors,
                    nodes_changed,
                    num_leaves: tree.num_leaves() as u64,
                    re_from,
                    re_to,
                };
                refit.prev_re = Some(re_to);
                refit.prev_tree = Some(tree);
                refit.state = Some(state);
                msg
            };
            job_shared.metrics.refit_run();
            let _ = job_session.send(&msg);
            // Only now, with the RefitDelta on the wire, may
            // `finish_session` go on to send the Report.
            drop(latch);
        });
}

/// Runs the final fit on the shard's pool (so a burst of finishing
/// sessions is still bounded by the worker budget), stores the
/// session's suite partial, then reports and says goodbye.
fn finish_session(
    shared: &Arc<Shared>,
    shard: usize,
    session: &Arc<SessionShared>,
    engine: SessionEngine,
    suite_key: String,
) {
    // All interim RefitDelta lines must precede the Report line.
    while session.refit_in_flight.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let (dtx, drx) = crossbeam::channel::bounded(1);
    let queued = shared.shards[shard]
        .scheduler
        .submit(&shared.metrics, move || {
            let _ = dtx.send(engine.finalize_with_partial());
        });
    let outcome = if queued {
        match drx.recv() {
            Ok(r) => r,
            Err(_) => Err("analysis worker dropped the final fit".to_string()),
        }
    } else {
        Err("daemon is stopping; final fit not run".to_string())
    };
    match outcome {
        Ok((fit, progress, (data, welford))) => {
            shared.metrics.refit_run();
            shared.metrics.report_sent();
            // Bank the suite contribution before the Report goes out: a
            // client that sees the Report may immediately ask for the
            // suite on another connection.
            let partial = SessionPartial {
                token: suite_key.clone(),
                data,
                cpi: welford.state(),
                samples: progress.samples,
            };
            shared.shards[shard]
                .partials
                .lock()
                .insert(suite_key, partial);
            // The report is out: the session's spool is no longer
            // needed, whatever happens to the socket from here on.
            session.completed.store(true, Ordering::SeqCst);
            let _ = session.send(&ServerMsg::Report {
                report: fit.report,
                quadrant: fit.quadrant,
                recommendation: fit.recommendation,
                samples: progress.samples,
                vectors: progress.vectors,
            });
        }
        Err(message) => {
            session.send_error(&shared.metrics, message);
        }
    }
    let _ = session.send(&ServerMsg::Bye);
}
