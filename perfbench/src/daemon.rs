//! The daemon scenarios, `flood` and `live`, against an in-process
//! `fuzzyphased` (so `Server::abort` can model a crash).
//!
//! The load generator is this process: one sender thread per
//! connection, each driving one `ServeClient` (whose own reader thread
//! receives the replies).

use crate::book::AckBook;
use crate::gen::phased_trace;
use crate::report::{report_bits, Metrics, Tally};
use fuzzyphase::{AnalysisRequest, Quadrant};
use fuzzyphase_profiler::{EipvData, Sample};
use fuzzyphase_regtree::analyze;
use fuzzyphase_serve::{ServeClient, Server, ServerConfig, ServerMsg, SpoolConfig, StatsSnapshot};
use std::path::Path;
use std::time::{Duration, Instant};

/// Samples per frame.
pub const BATCH: usize = 500;
/// Samples per EIPV vector.
pub const SPV: usize = 100;

/// The offline answer a session's `Report` must equal: `analyze` over
/// `EipvData::from_samples(trace, spv)` under the daemon's request.
#[derive(Debug, Clone)]
pub struct Reference {
    pub bits: Vec<u64>,
    pub quadrant: Quadrant,
    pub samples: u64,
    pub vectors: u64,
}

pub fn reference(trace: &[Sample], req: &AnalysisRequest) -> Reference {
    let data = EipvData::from_samples(trace, SPV);
    let report = analyze(&data.vectors, &data.cpis, req.analysis());
    Reference {
        quadrant: req
            .thresholds()
            .classify(report.cpi_variance, report.re_min),
        bits: report_bits(&report),
        samples: trace.len() as u64,
        vectors: data.len() as u64,
    }
}

/// One trace per connection, and its reference.
pub fn traces(
    seed: u64,
    first_stream: u64,
    conns: usize,
    samples: usize,
    req: &AnalysisRequest,
) -> (Vec<Vec<Sample>>, Vec<Reference>) {
    let traces: Vec<Vec<Sample>> = (0..conns as u64)
        .map(|c| phased_trace(seed, first_stream + c, samples))
        .collect();
    let refs = traces.iter().map(|t| reference(t, req)).collect();
    (traces, refs)
}

fn report_matches(msg: &ServerMsg, r: &Reference) -> bool {
    match msg {
        ServerMsg::Report {
            report,
            quadrant,
            samples,
            vectors,
            ..
        } => {
            report_bits(report) == r.bits
                && *quadrant == r.quadrant
                && *samples == r.samples
                && *vectors == r.vectors
        }
        _ => false,
    }
}

/// Cumulative sample watermark after each frame.
fn watermarks(trace: &[Sample]) -> Vec<u64> {
    let mut total = 0u64;
    trace
        .chunks(BATCH)
        .map(|c| {
            total += c.len() as u64;
            total
        })
        .collect()
}

fn since(epoch: Instant) -> f64 {
    epoch.elapsed().as_secs_f64()
}

/// Books one reply; an `Error` ends the session.
fn absorb(book: &mut AckBook, msg: ServerMsg, epoch: Instant) -> Result<(), String> {
    match msg {
        ServerMsg::Progress {
            samples, vectors, ..
        } => book.on_progress(samples, vectors, since(epoch)),
        ServerMsg::RefitDelta { vectors, .. } => book.on_refit(vectors, since(epoch)),
        ServerMsg::Error { message } => return Err(message),
        _ => {}
    }
    Ok(())
}

/// Receives until the `Report`; `None` if the session ends without one.
fn wait_report(client: &mut ServeClient) -> Option<ServerMsg> {
    loop {
        match client.recv() {
            Ok(msg @ ServerMsg::Report { .. }) => return Some(msg),
            Ok(ServerMsg::Error { .. } | ServerMsg::Bye) | Err(_) => return None,
            Ok(_) => {}
        }
    }
}

/// Median of `Server::start` times until the daemon listens. Starts
/// run back to back in batches and are shut down untimed after each
/// batch, so no start follows the idle wait of a shutdown.
pub fn setup_s(spool: Option<&Path>, batches: usize, per_batch: usize) -> std::io::Result<f64> {
    let cfg = ServerConfig {
        spool: spool.map(SpoolConfig::new),
        ..ServerConfig::default()
    };
    let mut times = Vec::with_capacity(batches * per_batch);
    for _ in 0..batches {
        let mut servers = Vec::with_capacity(per_batch);
        for _ in 0..per_batch {
            let t = Instant::now();
            let server = Server::start(cfg.clone())?;
            times.push(t.elapsed().as_secs_f64());
            servers.push(server);
        }
        for server in servers {
            server.shutdown();
        }
    }
    Ok(crate::stats::median(&times))
}

/// Daemon counters the per-layer metrics read, summed over the
/// daemons a scenario ran (high-water marks take the maximum).
fn put_stats(m: &mut Metrics, stats: &[StatsSnapshot]) {
    let sum = |f: fn(&StatsSnapshot) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let max = |f: fn(&StatsSnapshot) -> u64| stats.iter().map(f).max().unwrap_or(0) as f64;
    let run = sum(|s| s.refits_run);
    let coalesced = sum(|s| s.refits_coalesced);
    m.put("serve.refits_run", "count", run);
    m.put("serve.refits_coalesced", "count", coalesced);
    m.put(
        "serve.refit_useful_ratio",
        "ratio",
        run / (run + coalesced).max(1.0),
    );
    m.put("serve.pauses_sent", "count", sum(|s| s.pauses_sent));
    m.put(
        "serve.ingest_queue_high_water",
        "count",
        max(|s| s.ingest_queue_high_water),
    );
    m.put(
        "serve.analysis_queue_high_water",
        "count",
        max(|s| s.analysis_queue_high_water),
    );
    m.put("serve.torn_records", "count", sum(|s| s.torn_records));
}

/// `flood`: each connection runs back-to-back sessions over its trace,
/// closed loop with `window` frames in flight (below the daemon's
/// `queue_cap`, so it never pauses), each ending `Finish` → `Report`.
pub struct Flood {
    pub seconds: f64,
    pub window: usize,
}

struct FloodConn {
    samples: u64,
    stream_s: f64,
    report_ms: Vec<f64>,
    send_us: Vec<f64>,
    pauses: u64,
    tally: Tally,
}

fn flood_conn(
    addr: &str,
    idx: usize,
    trace: &[Sample],
    r: &Reference,
    window: usize,
    deadline: Instant,
) -> FloodConn {
    let marks = watermarks(trace);
    let chunks: Vec<&[Sample]> = trace.chunks(BATCH).collect();
    let n = chunks.len();
    let mut out = FloodConn {
        samples: 0,
        stream_s: 0.0,
        report_ms: Vec::new(),
        send_us: Vec::new(),
        pauses: 0,
        tally: Tally::default(),
    };
    while Instant::now() < deadline {
        let mut client = match ServeClient::connect(addr) {
            Ok(c) => c,
            Err(e) => {
                out.tally
                    .check(false, || format!("flood-{idx}: connect: {e}"));
                break;
            }
        };
        if let Err(e) = client.hello(&format!("flood-{idx}"), SPV, 0) {
            out.tally
                .check(false, || format!("flood-{idx}: hello: {e}"));
            break;
        }
        let mut book = AckBook::new(vec![0.0; n], marks.clone());
        let epoch = Instant::now();
        let mut next = 0;
        let mut error = None;
        while book.acked() < n && error.is_none() {
            if next < n && next - book.acked() < window {
                let t = Instant::now();
                book.set_due(next, since(epoch));
                if let Err(e) = client.send_samples(chunks[next]) {
                    error = Some(format!("send: {e}"));
                    break;
                }
                out.send_us.push(t.elapsed().as_secs_f64() * 1e6);
                next += 1;
            } else {
                match client.recv() {
                    Ok(msg) => error = absorb(&mut book, msg, epoch).err(),
                    Err(e) => error = Some(format!("recv: {e}")),
                }
            }
            while let Some(msg) = client.try_recv() {
                if let Err(e) = absorb(&mut book, msg, epoch) {
                    error = Some(e);
                }
            }
        }
        out.stream_s += since(epoch);
        out.samples += book.acked().checked_sub(1).map_or(0, |last| marks[last]);
        out.tally.attempted += n as u64;
        out.tally.failed += book.unacked() as u64;
        if let Some(e) = error {
            out.tally.check(false, || format!("flood-{idx}: {e}"));
            break;
        }
        let t = Instant::now();
        let report = client.finish().ok().and_then(|()| wait_report(&mut client));
        if report.is_some() {
            out.report_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        out.tally.check(
            report.as_ref().is_some_and(|m| report_matches(m, r)),
            || format!("flood-{idx}: missing Report or Report differs from offline analyze"),
        );
        out.pauses += client.pauses_seen();
        client.close();
    }
    out
}

impl Flood {
    pub fn run(
        &self,
        traces: &[Vec<Sample>],
        refs: &[Reference],
        m: &mut Metrics,
        tally: &mut Tally,
    ) -> std::io::Result<()> {
        let server = Server::start(ServerConfig::default())?;
        let addr = server.local_addr().to_string();
        let deadline = Instant::now() + Duration::from_secs_f64(self.seconds);
        let conns: Vec<FloodConn> = std::thread::scope(|s| {
            let handles: Vec<_> = traces
                .iter()
                .zip(refs)
                .enumerate()
                .map(|(i, (t, r))| {
                    let addr = addr.as_str();
                    s.spawn(move || flood_conn(addr, i, t, r, self.window, deadline))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("flood sender thread"))
                .collect()
        });
        let stats = server.stats();
        server.shutdown();

        let ingest_sps: f64 = conns
            .iter()
            .map(|c| c.samples as f64 / c.stream_s.max(1e-9))
            .sum();
        m.put("ingest_sps", "samples/s", ingest_sps);
        let report_ms: Vec<f64> = conns
            .iter()
            .flat_map(|c| c.report_ms.iter().copied())
            .collect();
        m.put_pct("report_p50_ms", "ms", &report_ms, 50.0);
        let send_us: Vec<f64> = conns
            .iter()
            .flat_map(|c| c.send_us.iter().copied())
            .collect();
        m.put_pct("client.send_us_p50", "us", &send_us, 50.0);
        m.counts.insert("flood.sessions", report_ms.len());
        m.counts.insert(
            "flood.client_pauses_seen",
            conns.iter().map(|c| c.pauses).sum::<u64>() as usize,
        );
        put_stats(m, &[stats]);
        for c in conns {
            tally.absorb(c.tally);
        }
        Ok(())
    }
}

/// `live`: open loop at `rate` frames/s per connection with the spool
/// and refits on; after the last frame the daemon is aborted,
/// restarted on the same spool, and both sessions are resumed and
/// finished.
pub struct Live {
    pub rate: f64,
    pub refit_every: usize,
}

struct LiveConn {
    book: AckBook,
    late_ms: Vec<f64>,
    send_us: Vec<f64>,
    error: Option<String>,
}

fn live_conn(client: &mut ServeClient, trace: &[Sample], epoch: Instant, rate: f64) -> LiveConn {
    let chunks: Vec<&[Sample]> = trace.chunks(BATCH).collect();
    let due: Vec<f64> = (0..chunks.len()).map(|i| i as f64 / rate).collect();
    let mut out = LiveConn {
        book: AckBook::new(due.clone(), watermarks(trace)),
        late_ms: Vec::new(),
        send_us: Vec::new(),
        error: None,
    };
    let mut next = 0;
    while out.book.unacked() > 0 && out.error.is_none() {
        while let Some(msg) = client.try_recv() {
            if let Err(e) = absorb(&mut out.book, msg, epoch) {
                out.error = Some(e);
            }
        }
        if out.book.unacked() == 0 {
            break;
        }
        let now = since(epoch);
        if next < chunks.len() {
            if now >= due[next] {
                out.late_ms.push((now - due[next]) * 1e3);
                let t = Instant::now();
                if let Err(e) = client.send_samples(chunks[next]) {
                    out.error = Some(format!("send: {e}"));
                }
                out.send_us.push(t.elapsed().as_secs_f64() * 1e6);
                next += 1;
            } else {
                // Poll finely so replies are stamped close to arrival.
                std::thread::sleep(Duration::from_secs_f64((due[next] - now).min(100e-6)));
            }
        } else {
            match client.recv() {
                Ok(msg) => out.error = absorb(&mut out.book, msg, epoch).err(),
                Err(e) => out.error = Some(format!("recv: {e}")),
            }
        }
    }
    out
}

impl Live {
    pub fn run(
        &self,
        traces: &[Vec<Sample>],
        refs: &[Reference],
        spool: &Path,
        m: &mut Metrics,
        tally: &mut Tally,
    ) -> std::io::Result<()> {
        let cfg = ServerConfig {
            spool: Some(SpoolConfig::new(spool)),
            ..ServerConfig::default()
        };
        let server = Server::start(cfg.clone())?;
        let addr = server.local_addr().to_string();
        let mut sessions = Vec::new();
        for i in 0..traces.len() {
            let mut client = ServeClient::connect(&addr)?;
            client.hello(&format!("live-{i}"), SPV, self.refit_every)?;
            let token = client
                .resume_token()
                .ok_or_else(|| std::io::Error::other("daemon issued no resume token"))?
                .to_string();
            sessions.push((client, token));
        }
        let epoch = Instant::now() + Duration::from_millis(20);
        let conns: Vec<LiveConn> = std::thread::scope(|s| {
            let handles: Vec<_> = sessions
                .iter_mut()
                .zip(traces)
                .map(|((client, _), trace)| {
                    s.spawn(move || {
                        std::thread::sleep(epoch.saturating_duration_since(Instant::now()));
                        live_conn(client, trace, epoch, self.rate)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("live sender thread"))
                .collect()
        });
        let mut stats = vec![server.stats()];
        // The crash: no drain, refits possibly in flight.
        server.abort();
        let tokens: Vec<String> = sessions
            .into_iter()
            .map(|(client, token)| {
                client.close();
                token
            })
            .collect();

        let server = Server::start(cfg)?;
        let addr = server.local_addr().to_string();
        let mut resumed = Vec::new();
        for (i, token) in tokens.iter().enumerate() {
            let mut client = ServeClient::connect(&addr)?;
            let last_seq =
                client.hello_resume(&format!("live-{i}"), SPV, self.refit_every, token)?;
            resumed.push((client, last_seq));
        }

        let mut retransmitted = 0usize;
        for ((client, last_seq), trace) in resumed.iter_mut().zip(traces) {
            let chunks: Vec<&[Sample]> = trace.chunks(BATCH).collect();
            for chunk in chunks.iter().skip(*last_seq as usize) {
                client.send_samples(chunk)?;
                retransmitted += 1;
            }
            client.finish()?;
        }
        for (i, ((client, _), r)) in resumed.iter_mut().zip(refs).enumerate() {
            let report = wait_report(client);
            tally.check(
                report.as_ref().is_some_and(|msg| report_matches(msg, r)),
                || {
                    format!(
                        "live-{i}: missing post-recovery Report or it differs from offline analyze"
                    )
                },
            );
        }
        for (client, _) in resumed {
            client.close();
        }
        stats.push(server.stats());
        server.shutdown();

        let mut ack_ms = Vec::new();
        let mut refit_ms = Vec::new();
        let mut late_ms = Vec::new();
        let mut send_us = Vec::new();
        let mut unmatched = 0;
        for (i, c) in conns.into_iter().enumerate() {
            tally.attempted += c.book.frames() as u64;
            tally.failed += c.book.unacked() as u64;
            if let Some(e) = &c.error {
                tally.check(false, || format!("live-{i}: {e}"));
            }
            unmatched += c.book.refits_unmatched as usize;
            ack_ms.extend(c.book.ack_ms);
            refit_ms.extend(c.book.refit_ms);
            late_ms.extend(c.late_ms);
            send_us.extend(c.send_us);
        }
        m.put_pct("ack_p50_ms", "ms", &ack_ms, 50.0);
        m.put_pct("ack_p99_ms", "ms", &ack_ms, 99.0);
        m.put_pct("refit_p50_ms", "ms", &refit_ms, 50.0);
        m.put_pct("refit_p90_ms", "ms", &refit_ms, 90.0);
        m.put_pct("gen.late_ms", "ms", &late_ms, 90.0);
        m.put_pct("client.send_us_p50", "us", &send_us, 50.0);
        m.counts.insert("live.retransmitted_frames", retransmitted);
        m.counts.insert("live.refits_unmatched", unmatched);
        put_stats(m, &stats);
        Ok(())
    }
}
