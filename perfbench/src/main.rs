//! fuzzyphase's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite|flood|live --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run covers all three scenarios so that it can report every
//! metric: the selected workload runs at full size for `--seconds`, the
//! other two as fixed-size probes, and a name takes the value of the
//! first scenario that measures it. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` adds the traced passes and prints the per-layer
//! metrics. The last line of standard output is the result object; the
//! line before it records the machine and generator shape. See
//! `perfbench/README.md`.

mod book;
mod daemon;
mod gen;
mod replay;
mod report;
mod spans;
mod stats;
mod suite;

use daemon::{Flood, Live, BATCH};
use fuzzyphase::AnalysisRequest;
use replay::Replay;
use report::{peak_rss_mb, Metrics, Tally};
use spans::Tracer;
use std::io;
use std::path::{Path, PathBuf};

const END_TO_END: &[&str] = &[
    "setup_s",
    "suite_s",
    "ingest_sps",
    "report_p50_ms",
    "ack_p50_ms",
    "ack_p99_ms",
    "refit_p50_ms",
    "refit_p90_ms",
    "peak_rss_mb",
];

const PER_LAYER: &[&str] = &[
    "workload.next_event_s",
    "workload.events",
    "profiler.run_self_s",
    "profiler.eipvs_s",
    "profiler.vectors",
    "regtree.analyze_s",
    "core.suite_idle_s",
    "core.serial_suite_s",
    "suite.quadrant_agreement",
    "trace.encode_us_p50",
    "trace.encode_us_p99",
    "framing.read_frame_us_p50",
    "framing.read_frame_us_p99",
    "trace.decode_us_p50",
    "trace.decode_us_p99",
    "session.ingest_us_p50",
    "session.ingest_us_p99",
    "protocol.write_msg_us_p50",
    "protocol.write_msg_us_p99",
    "spool.append_us_p50",
    "spool.append_us_p99",
    "spool.fsyncs",
    "spool.bytes",
    "spool.segments_sealed",
    "regtree.incremental_ms_p50",
    "regtree.incremental_ms_p90",
    "regtree.delta_vectors",
    "regtree.nodes_changed",
    "regtree.refits",
    "recovery.recover_all_ms",
    "recovery.frames_replayed",
    "session.finalize_ms_p50",
    "client.send_us_p50",
    "serve.refits_run",
    "serve.refits_coalesced",
    "serve.refit_useful_ratio",
    "serve.pauses_sent",
    "serve.ingest_queue_high_water",
    "serve.analysis_queue_high_water",
    "serve.torn_records",
    "serve.unattributed_ms",
    "gen.late_ms",
    "trace.overhead_s",
    "trace.overhead_pct",
];

/// Per-frame layers: span name and its p50/p99 metric names.
const FRAME_LAYERS: &[(&str, &str, &str)] = &[
    ("trace.encode", "trace.encode_us_p50", "trace.encode_us_p99"),
    (
        "framing.read_frame",
        "framing.read_frame_us_p50",
        "framing.read_frame_us_p99",
    ),
    ("trace.decode", "trace.decode_us_p50", "trace.decode_us_p99"),
    (
        "session.ingest",
        "session.ingest_us_p50",
        "session.ingest_us_p99",
    ),
    (
        "protocol.write_msg",
        "protocol.write_msg_us_p50",
        "protocol.write_msg_us_p99",
    ),
    ("spool.append", "spool.append_us_p50", "spool.append_us_p99"),
];

// Scenario shapes. Why each workload exists is in README.md.
/// Flood: frames in flight per connection (below the daemon's default
/// `queue_cap` of 64, so it never pauses) and frames per session.
const FLOOD_WINDOW: usize = 16;
const FLOOD_SESSION_FRAMES: usize = 100;
/// Flood sessions per connection the traced replay repeats.
const FLOOD_REPLAY_SESSIONS: usize = 10;
/// Live: frames per second per connection and the refit cadence in
/// vectors.
const LIVE_RATE: f64 = 100.0;
const LIVE_REFIT_EVERY: usize = 20;
/// Probe lengths when the scenario is not the selected workload; long
/// enough for every percentile it reports to have ten samples beyond.
const FLOOD_PROBE_S: f64 = 4.0;
const LIVE_PROBE_S: f64 = 6.0;
/// Untraced `run_suite` passes of the probe subset, about 10 s in all
/// (the full suite runs one pass, or more within `--seconds`).
const SUITE_PROBE_PASSES: usize = 6;
/// `Server::start` set-ups measured per daemon run: batches × starts.
const DAEMON_SETUP: (usize, usize) = (8, 8);
/// Trace streams: flood uses 0.., live 16.. (distinct EIP ranges).
const LIVE_STREAMS: u64 = 16;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Suite,
    Flood,
    Live,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Suite => "suite",
            Workload::Flood => "flood",
            Workload::Live => "live",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!("usage: perfbench --workload suite|flood|live --seed N --seconds S --trace 0|1");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: Workload::Suite,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                args.workload = match value.as_str() {
                    "suite" => Workload::Suite,
                    "flood" => Workload::Flood,
                    "live" => Workload::Live,
                    _ => usage(),
                }
            }
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value.parse().unwrap_or_else(|_| usage());
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    usage();
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    args
}

/// What the run found, before printing.
struct Run {
    metrics: Metrics,
    tally: Tally,
    connections: usize,
    span_files: Vec<String>,
}

fn main() {
    let args = parse_args();
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("run-{}", std::process::id()));
    let result = std::fs::create_dir_all(&work).and_then(|()| run(&args, &root, &work));
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(run) => print(&args, run),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args, root: &Path, work: &Path) -> io::Result<Run> {
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let connections = parallelism.min(2);
    let mut run = Run {
        metrics: Metrics::default(),
        tally: Tally::default(),
        connections,
        span_files: Vec::new(),
    };
    let setup = match args.workload {
        Workload::Suite => suite::setup_s(&suite::specs(true), &suite::request(args.seed, true)),
        Workload::Flood => daemon::setup_s(None, DAEMON_SETUP.0, DAEMON_SETUP.1)?,
        Workload::Live => daemon::setup_s(
            Some(&work.join("setup-spool")),
            DAEMON_SETUP.0,
            DAEMON_SETUP.1,
        )?,
    };
    run.metrics.put("setup_s", "s", setup);
    let order = match args.workload {
        Workload::Suite => [Workload::Suite, Workload::Flood, Workload::Live],
        Workload::Flood => [Workload::Flood, Workload::Suite, Workload::Live],
        Workload::Live => [Workload::Live, Workload::Suite, Workload::Flood],
    };
    for (i, &w) in order.iter().enumerate() {
        let full = i == 0;
        let mut m = Metrics::default();
        let mut tr = Tracer::new(args.trace);
        match w {
            Workload::Suite => {
                let specs = suite::specs(full);
                let req = suite::request(args.seed, full);
                let (passes, seconds) = if full {
                    (1, args.seconds)
                } else {
                    (SUITE_PROBE_PASSES, 0.0)
                };
                if args.trace {
                    suite::run_traced(&specs, &req, &mut m, &mut run.tally, &mut tr);
                } else {
                    suite::run(&specs, &req, passes, seconds, &mut m, &mut run.tally);
                }
            }
            Workload::Flood => flood(args, full, connections, &mut m, &mut run.tally, &mut tr)?,
            Workload::Live => live(
                args,
                full,
                connections,
                work,
                &mut m,
                &mut run.tally,
                &mut tr,
            )?,
        }
        // Peak memory of the set-up and the selected workload, before
        // the probes add theirs.
        if full {
            if let Some(mb) = peak_rss_mb() {
                m.put("peak_rss_mb", "MB", mb);
            }
        }
        if args.trace {
            let dir = root.join("spans");
            std::fs::create_dir_all(&dir)?;
            let file = dir.join(format!(
                "{}-seed{}-{}-{}.jsonl",
                args.workload.name(),
                args.seed,
                w.name(),
                if full { "full" } else { "probe" }
            ));
            tr.write_jsonl(&file)?;
            run.span_files.push(file.display().to_string());
        }
        run.metrics.merge(m);
    }
    Ok(run)
}

/// Runs the replay untraced and then traced over the same frames, and
/// puts the per-layer figures and the tracing overhead.
fn replay_pair(
    replay: Replay<'_>,
    spool_root: Option<&Path>,
    m: &mut Metrics,
    tally: &mut Tally,
    tr: &mut Tracer,
) -> io::Result<()> {
    let with_spool = |name: &str| Replay {
        spool: spool_root.map(|d| d.join(name)),
        ..replay
    };
    let base = with_spool("replay-untraced").run(&mut Tracer::new(false), tally)?;
    let out = with_spool("replay-traced").run(tr, tally)?;
    for &(span, p50, p99) in FRAME_LAYERS {
        let d = tr.durations_us(span);
        m.put_pct(p50, "us", &d, 50.0);
        m.put_pct(p99, "us", &d, 99.0);
    }
    let ms = |span| -> Vec<f64> { tr.durations_us(span).iter().map(|us| us / 1e3).collect() };
    m.put_pct(
        "session.finalize_ms_p50",
        "ms",
        &ms("session.finalize"),
        50.0,
    );
    if out.refits > 0 {
        let inc = ms("regtree.incremental");
        m.put_pct("regtree.incremental_ms_p50", "ms", &inc, 50.0);
        m.put_pct("regtree.incremental_ms_p90", "ms", &inc, 90.0);
        m.put("regtree.delta_vectors", "count", out.delta_vectors as f64);
        m.put("regtree.nodes_changed", "count", out.nodes_changed as f64);
        m.put("regtree.refits", "count", out.refits as f64);
    }
    if spool_root.is_some() {
        m.put("spool.fsyncs", "count", out.spool_fsyncs as f64);
        m.put("spool.bytes", "bytes", out.spool_bytes as f64);
        m.put("spool.segments_sealed", "count", out.segments_sealed as f64);
        m.put(
            "recovery.recover_all_ms",
            "ms",
            tr.total_s("recovery.recover_all") * 1e3,
        );
        m.put(
            "recovery.frames_replayed",
            "count",
            out.frames_replayed as f64,
        );
    }
    m.put("trace.overhead_s", "s", out.wall_s - base.wall_s);
    m.put(
        "trace.overhead_pct",
        "%",
        (out.wall_s - base.wall_s) / base.wall_s * 100.0,
    );
    m.counts.insert("replay.frames", out.frames as usize);
    Ok(())
}

fn flood(
    args: &Args,
    full: bool,
    conns: usize,
    m: &mut Metrics,
    tally: &mut Tally,
    tr: &mut Tracer,
) -> io::Result<()> {
    let req = AnalysisRequest::new();
    let (traces, refs) = daemon::traces(args.seed, 0, conns, FLOOD_SESSION_FRAMES * BATCH, &req);
    let seconds = if full { args.seconds } else { FLOOD_PROBE_S };
    Flood {
        seconds,
        window: FLOOD_WINDOW,
    }
    .run(&traces, &refs, m, tally)?;
    if args.trace {
        let replay = Replay {
            traces: &traces,
            refs: &refs,
            sessions: FLOOD_REPLAY_SESSIONS,
            refit_every: 0,
            spool: None,
            request: &req,
        };
        replay_pair(replay, None, m, tally, tr)?;
    }
    Ok(())
}

fn live(
    args: &Args,
    full: bool,
    conns: usize,
    work: &Path,
    m: &mut Metrics,
    tally: &mut Tally,
    tr: &mut Tracer,
) -> io::Result<()> {
    let req = AnalysisRequest::new();
    let seconds = if full { args.seconds } else { LIVE_PROBE_S };
    let frames = (LIVE_RATE * seconds).round() as usize;
    let (traces, refs) = daemon::traces(args.seed, LIVE_STREAMS, conns, frames * BATCH, &req);
    Live {
        rate: LIVE_RATE,
        refit_every: LIVE_REFIT_EVERY,
    }
    .run(&traces, &refs, &work.join("live-spool"), m, tally)?;
    if args.trace {
        let replay = Replay {
            traces: &traces,
            refs: &refs,
            sessions: 1,
            refit_every: LIVE_REFIT_EVERY,
            spool: None,
            request: &req,
        };
        replay_pair(replay, Some(work), m, tally, tr)?;
        // What the replayed layers do not explain of the ack median:
        // socket transfer, queue waits, thread hand-offs, Nagle.
        let layers_us: f64 = ["client.send_us_p50"]
            .iter()
            .chain(FRAME_LAYERS.iter().skip(1).map(|(_, p50, _)| p50))
            .filter_map(|name| m.get(name))
            .sum();
        if let Some(ack) = m.get("ack_p50_ms") {
            m.put("serve.unattributed_ms", "ms", ack - layers_us / 1e3);
        }
    }
    Ok(())
}

fn print(args: &Args, run: Run) {
    let Run {
        metrics,
        mut tally,
        connections,
        span_files,
    } = run;
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let (json, missing) = metrics.json(names);
    for name in &missing {
        tally.check(false, || format!("metric {name} was not measured"));
    }
    for (name, (value, unit)) in metrics.iter() {
        eprintln!("perfbench: {name:<34} {value:>16.4} {unit}");
    }
    for p in &tally.problems {
        eprintln!("perfbench: FAILED: {p}");
    }
    let counts: Vec<String> = metrics
        .counts
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    let files: Vec<String> = span_files.iter().map(|f| format!("\"{f}\"")).collect();
    let overhead = metrics.get("trace.overhead_pct").filter(|_| args.trace);
    println!(
        "{{\"record\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"available_parallelism\":{},\"connections\":{connections},\"sender_threads\":{connections},\"tracing_overhead_pct\":{},\"samples\":{{{}}},\"span_files\":[{}]}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        overhead.map_or("null".to_string(), |o| o.to_string()),
        counts.join(","),
        files.join(","),
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{json}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    );
}
