//! Loopback integration tests: a real `Server` on 127.0.0.1 driven by
//! `ServeClient`, pinning the tentpole guarantees — streamed results
//! bit-identical to the offline pipeline, bounded-queue backpressure,
//! graceful shutdown, idle sweeping and protocol limits.

use fuzzyphase::prelude::*;
use fuzzyphase_profiler::Sample;
use fuzzyphase_serve::{ClientControl, ManualClock, ServeClient, Server, ServerConfig, ServerMsg};
use std::sync::Arc;

/// A cheap synthetic trace with real phase structure (three EIP bands).
fn synth_trace(n: u64) -> Vec<Sample> {
    (0..n)
        .map(|i| {
            let phase = (i / 50) % 3;
            Sample {
                eip: 0x40_0000 + phase * 0x1000 + (i % 11) * 0x10,
                thread: 0,
                is_os: false,
                cpi: 0.8 + phase as f64 * 0.4 + (i % 7) as f64 * 0.01,
            }
        })
        .collect()
}

/// Server options sized for the synthetic traces: 5 folds, small trees.
fn tiny_server_cfg() -> ServerConfig {
    let mut cfg = ServerConfig::default();
    cfg.request.analysis_mut().cv.folds = 5;
    cfg.request.analysis_mut().cv.k_max = 8;
    cfg
}

fn stream_and_report(
    addr: &str,
    name: &str,
    samples: &[Sample],
    spv: usize,
    refit_every: usize,
    batch: usize,
) -> (ServerMsg, Vec<ServerMsg>) {
    let mut client = ServeClient::connect(addr).expect("connect");
    client.hello(name, spv, refit_every).expect("hello");
    client.stream_trace(samples, batch).expect("stream");
    client.finish().expect("finish");
    let out = client.wait_report().expect("report");
    client.close();
    out
}

/// The tentpole acceptance: for three suite benchmarks, the daemon's
/// final streamed report (RE curve, CPI variance, quadrant,
/// recommendation) is bit-for-bit the offline `analyze` result.
#[test]
fn streamed_reports_match_offline_bit_for_bit_for_three_benchmarks() {
    let request = AnalysisRequest::new().with_intervals(30).with_warmup(5);

    let server = Server::start(ServerConfig {
        request: request.clone(),
        ..ServerConfig::default()
    })
    .expect("start server");
    let addr = server.local_addr().to_string();

    // One benchmark per paper quadrant flavor: Q-I, Q-III, Q-IV.
    for name in ["gzip", "gcc", "mcf"] {
        let offline = request.run(&BenchmarkSpec::spec(name));
        let spv = (offline.profile.interval_len / offline.profile.period) as usize;

        // Odd batch size so frames straddle vector boundaries; a refit
        // cadence so the interim path runs too.
        let (report, interim) =
            stream_and_report(&addr, name, &offline.profile.samples, spv, 7, 333);

        let ServerMsg::Report {
            report,
            quadrant,
            recommendation,
            samples,
            vectors,
        } = report
        else {
            panic!("expected Report, got {report:?}");
        };
        assert_eq!(samples as usize, offline.profile.samples.len());
        assert_eq!(vectors as usize, offline.report.num_vectors);
        assert_eq!(quadrant, offline.quadrant, "{name}: quadrant");
        assert_eq!(recommendation, offline.quadrant.recommendation());
        assert_eq!(report, offline.report, "{name}: report value equality");
        // Value equality on f64 is necessary but we promised *bits*.
        assert_eq!(
            report.cpi_variance.to_bits(),
            offline.report.cpi_variance.to_bits()
        );
        assert_eq!(report.cpi_mean.to_bits(), offline.report.cpi_mean.to_bits());
        assert_eq!(report.re_min.to_bits(), offline.report.re_min.to_bits());
        assert_eq!(report.re_curve.len(), offline.report.re_curve.len());
        for (a, b) in report.re_curve.iter().zip(&offline.report.re_curve) {
            assert_eq!(a.to_bits(), b.to_bits(), "{name}: RE curve bits");
        }
        assert!(
            interim
                .iter()
                .any(|m| matches!(m, ServerMsg::RefitDelta { .. })),
            "{name}: expected at least one interim refit delta"
        );
    }

    let stats = server.stats();
    assert_eq!(stats.reports_sent, 3);
    assert_eq!(stats.sessions_served, 3);
    server.shutdown();
}

/// Every interim `RefitDelta` the daemon emits is the incremental
/// fitter's view of an exact prefix of the trace — so its `re_to` must
/// be bit-identical to a scratch `Fitter::full` fit of that prefix, and
/// consecutive deltas must chain (`re_from` = previous `re_to`,
/// starting from the root-model baseline of 1.0).
#[test]
fn interim_refit_deltas_match_scratch_fits_of_their_prefixes() {
    use fuzzyphase_profiler::EipvData;
    let mut cfg = tiny_server_cfg();
    // Slow the engine slightly so refit jobs land between batches
    // instead of coalescing into one — we want a chain of deltas.
    cfg.min_batch_interval_ms = 5;
    let analysis = *cfg.request.analysis();
    let server = Server::start(cfg).expect("start");
    let addr = server.local_addr().to_string();

    let trace = synth_trace(900);
    let spv = 10;
    let (report, interim) = stream_and_report(&addr, "prefix", &trace, spv, 2, 57);
    assert!(matches!(report, ServerMsg::Report { .. }));

    let fitter = fuzzyphase_regtree::Fitter::new()
        .max_leaves(analysis.cv.k_max)
        .min_leaf(analysis.cv.min_leaf);
    let mut expect_from = 1.0f64;
    let mut deltas = 0;
    for msg in &interim {
        let ServerMsg::RefitDelta {
            vectors,
            delta_vectors,
            re_from,
            re_to,
            num_leaves,
            ..
        } = msg
        else {
            continue;
        };
        deltas += 1;
        assert!(*delta_vectors > 0, "refit with an empty delta");
        assert_eq!(re_from.to_bits(), expect_from.to_bits(), "re_from chains");
        // Scratch-fit the exact prefix the daemon had absorbed.
        let prefix = EipvData::from_samples(&trace[..*vectors as usize * spv], spv);
        let ds = fuzzyphase_regtree::Dataset::new(prefix.vectors, prefix.cpis);
        let scratch = fitter.full(&ds);
        assert_eq!(
            re_to.to_bits(),
            scratch.training_re().to_bits(),
            "interim RE must match a scratch fit of the {vectors}-vector prefix"
        );
        assert_eq!(*num_leaves as usize, scratch.num_leaves());
        expect_from = *re_to;
    }
    assert!(
        deltas >= 2,
        "wanted at least two chained deltas: {interim:?}"
    );
    server.shutdown();
}

/// Two sessions streaming the same trace get bit-identical reports —
/// the daemon holds the workspace determinism bar.
#[test]
fn repeated_sessions_are_deterministic() {
    let server = Server::start(tiny_server_cfg()).expect("start");
    let addr = server.local_addr().to_string();
    let trace = synth_trace(600);

    let (a, _) = stream_and_report(&addr, "a", &trace, 10, 0, 97);
    let (b, _) = stream_and_report(&addr, "b", &trace, 10, 0, 41); // different batching
    match (a, b) {
        (ServerMsg::Report { report: ra, .. }, ServerMsg::Report { report: rb, .. }) => {
            assert_eq!(ra, rb);
            for (x, y) in ra.re_curve.iter().zip(&rb.re_curve) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        other => panic!("expected two reports, got {other:?}"),
    }
    server.shutdown();
}

/// Backpressure: with a slow engine and a tiny queue, the server must
/// send `Pause`, later `Resume`, and the ingest queue must never grow
/// past its cap.
#[test]
fn backpressure_keeps_the_ingest_queue_bounded() {
    let mut cfg = tiny_server_cfg();
    cfg.queue_cap = 4;
    cfg.min_batch_interval_ms = 5; // deliberately slow consumer
    cfg.idle_timeout_ms = 0;
    let server = Server::start(cfg).expect("start");
    let addr = server.local_addr().to_string();

    let trace = synth_trace(640);
    let mut client = ServeClient::connect(&addr).expect("connect");
    client.hello("pressure", 10, 0).expect("hello");
    client.stream_trace(&trace, 10).expect("stream"); // 64 eager frames
    client.finish().expect("finish");
    let (report, seen) = client.wait_report().expect("report");
    assert!(matches!(report, ServerMsg::Report { .. }));

    let pauses = client.pauses_seen();
    assert!(pauses >= 1, "server never paused the client");
    assert!(
        seen.iter().any(|m| matches!(m, ServerMsg::Resume)),
        "pause was never released"
    );
    client.close();

    let stats = server.stats();
    assert_eq!(stats.pauses_sent, pauses);
    assert!(
        stats.ingest_queue_high_water <= 4,
        "queue grew past its cap: {}",
        stats.ingest_queue_high_water
    );
    assert_eq!(stats.samples_ingested, 640);
    server.shutdown();
}

/// Graceful shutdown: draining refuses new connections with an `Error`
/// line while the in-flight session still completes and reports.
#[test]
fn graceful_shutdown_drains_in_flight_sessions() {
    let mut cfg = tiny_server_cfg();
    cfg.min_batch_interval_ms = 5;
    let server = Server::start(cfg).expect("start");
    let addr = server.local_addr().to_string();

    let trace = synth_trace(400);
    let mut inflight = ServeClient::connect(&addr).expect("connect");
    inflight.hello("inflight", 10, 0).expect("hello");
    inflight.stream_trace(&trace, 20).expect("stream");

    server.begin_shutdown();

    // New connections are now politely refused.
    let mut late = ServeClient::connect(&addr).expect("tcp connect still works");
    match late.recv().expect("refusal line") {
        ServerMsg::Error { message } => assert!(message.contains("draining"), "{message}"),
        other => panic!("expected Error, got {other:?}"),
    }
    late.close();

    // The in-flight session still runs to a full report.
    inflight.finish().expect("finish");
    let (report, _) = inflight.wait_report().expect("report");
    assert!(matches!(report, ServerMsg::Report { .. }));
    inflight.close();

    let stats = server.stats();
    assert!(stats.sessions_refused >= 1);
    assert_eq!(stats.reports_sent, 1);
    server.shutdown();
}

/// Idle sessions are reaped on the injected clock: no real waiting, the
/// test advances a `ManualClock` past the timeout.
#[test]
fn idle_sessions_are_reaped_by_the_manual_clock() {
    let clock = Arc::new(ManualClock::new());
    let mut cfg = tiny_server_cfg();
    cfg.idle_timeout_ms = 1_000;
    cfg.sweep_interval_ms = 1;
    let server =
        Server::start_with_clock(cfg, Arc::clone(&clock) as Arc<dyn fuzzyphase_serve::Clock>)
            .expect("start");
    let addr = server.local_addr().to_string();

    let mut client = ServeClient::connect(&addr).expect("connect");
    client.hello("sleepy", 10, 0).expect("hello");
    // Session goes quiet; time passes only because we say so.
    clock.advance(2_000);

    let seen = client
        .recv_until(|m| matches!(m, ServerMsg::Error { .. }))
        .expect("idle error");
    let Some(ServerMsg::Error { message }) = seen.last() else {
        panic!("expected Error last, got {seen:?}");
    };
    assert!(message.contains("idle"), "{message}");
    client.close();

    // The reap is reflected in stats and the session table drains.
    let stats = server.stats();
    assert_eq!(stats.idle_reaped, 1);
    server.shutdown();
    // (shutdown joins the connection thread, so the table is empty now.)
}

/// Protocol and limit enforcement: pre-Hello requests, session caps and
/// invalid opens all answer with a specific `Error`.
#[test]
fn limits_and_protocol_errors_are_enforced() {
    let mut cfg = tiny_server_cfg();
    cfg.max_sessions = 1;
    let server = Server::start(cfg).expect("start");
    let addr = server.local_addr().to_string();

    // Ping and Stats work without a session.
    let mut probe = ServeClient::connect(&addr).expect("connect");
    probe.send_control(&ClientControl::Ping).expect("ping");
    assert!(matches!(probe.recv().expect("pong"), ServerMsg::Pong));
    probe.send_control(&ClientControl::Stats).expect("stats");
    assert!(matches!(probe.recv().expect("stats"), ServerMsg::Stats(_)));

    // Samples before Hello are rejected.
    probe.send_samples(&synth_trace(5)).expect("send");
    match probe.recv().expect("error") {
        ServerMsg::Error { message } => assert!(message.contains("before Hello"), "{message}"),
        other => panic!("expected Error, got {other:?}"),
    }
    probe.close();

    // Zero spv is rejected at Hello.
    let mut bad = ServeClient::connect(&addr).expect("connect");
    assert!(bad.hello("bad", 0, 0).is_err());
    bad.close();

    // The session cap turns the second concurrent Hello away.
    let mut first = ServeClient::connect(&addr).expect("connect");
    first.hello("first", 10, 0).expect("hello");
    let mut second = ServeClient::connect(&addr).expect("connect");
    let err = second.hello("second", 10, 0).expect_err("over cap");
    assert!(err.to_string().contains("too many sessions"), "{err}");
    second.close();
    first.close();

    let stats = server.stats();
    assert!(stats.sessions_refused >= 1);
    assert!(stats.session_errors >= 2);
    server.shutdown();
}

/// The `Shutdown` control request flips the daemon into draining and
/// surfaces through `Server::shutdown_requested` — what `fuzzyphased`'s
/// main loop polls.
#[test]
fn shutdown_control_request_reaches_the_daemon() {
    let server = Server::start(tiny_server_cfg()).expect("start");
    let addr = server.local_addr().to_string();
    assert!(!server.shutdown_requested());

    let mut admin = ServeClient::connect(&addr).expect("connect");
    admin.send_control(&ClientControl::Shutdown).expect("send");
    assert!(matches!(admin.recv().expect("bye"), ServerMsg::Bye));
    admin.close();

    assert!(server.shutdown_requested());
    server.shutdown();
}

/// A control frame of 150,000 nested `[` used to overflow the connection
/// thread's stack and abort the whole daemon. The JSON parser's nesting
/// limit turns it into an `Error` for that client, while a concurrent
/// well-formed session carries on and reports exactly what it reports
/// undisturbed.
#[test]
fn deeply_nested_control_frame_gets_an_error_not_an_abort() {
    use fuzzyphase_serve::framing::{write_frame, FRAME_CONTROL};
    use fuzzyphase_serve::protocol::read_msg;
    use std::io::BufReader;
    use std::net::TcpStream;

    let server = Server::start(tiny_server_cfg()).expect("start");
    let addr = server.local_addr().to_string();
    let trace = synth_trace(2_000);
    let (undisturbed, _) = stream_and_report(&addr, "calm", &trace, 50, 0, 250);

    // Open a well-formed session and stream half of it.
    let mut calm = ServeClient::connect(&addr).expect("connect");
    calm.hello("calm", 50, 0).expect("hello");
    calm.stream_trace(&trace[..1_000], 250).expect("stream");

    // The hostile peer.
    let mut hostile = TcpStream::connect(&addr).expect("connect");
    write_frame(&mut hostile, FRAME_CONTROL, &[b'['; 150_000]).expect("send");
    let mut replies = BufReader::new(hostile);
    match read_msg(&mut replies).expect("a reply, not a dropped socket") {
        Some(ServerMsg::Error { message }) => {
            assert!(message.contains("recursion limit"), "{message}")
        }
        other => panic!("expected Error, got {other:?}"),
    }

    // The daemon is still up: the session finishes bit-identically and
    // new connections are accepted.
    calm.stream_trace(&trace[1_000..], 250).expect("stream");
    calm.finish().expect("finish");
    let (report, _) = calm.wait_report().expect("report");
    calm.close();
    assert_eq!(report, undisturbed);
    let mut probe = ServeClient::connect(&addr).expect("connect after the attack");
    probe.send_control(&ClientControl::Ping).expect("ping");
    assert!(matches!(probe.recv().expect("pong"), ServerMsg::Pong));
    probe.close();
    assert!(server.stats().session_errors >= 1);
    server.shutdown();
}

/// Runs `f` on its own thread and waits at most `secs` for it, so a
/// wedged daemon fails the test instead of hanging it. A panic in `f`
/// is re-raised here.
fn within<T: Send + 'static>(secs: u64, what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    use std::sync::mpsc::RecvTimeoutError;
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(std::time::Duration::from_secs(secs)) {
        Ok(value) => value,
        Err(RecvTimeoutError::Disconnected) => match worker.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the worker sends before it returns"),
        },
        Err(RecvTimeoutError::Timeout) => panic!("{what} did not finish within {secs} s"),
    }
}

/// A NaN CPI is malformed input like any other: the frame carrying it
/// gets `Error` (it must never reach the refit job's `FitDelta`), a
/// concurrent session's `Report` stays bit-identical, and `shutdown`
/// returns. Every wait is bounded.
#[test]
fn non_finite_cpi_frame_gets_an_error_and_shutdown_returns() {
    let server = Server::start(tiny_server_cfg()).expect("start");
    let addr = server.local_addr().to_string();
    let trace = synth_trace(2_000);
    let undisturbed = {
        let (addr, trace) = (addr.clone(), trace.clone());
        within(60, "the undisturbed session", move || {
            stream_and_report(&addr, "calm", &trace, 50, 0, 250).0
        })
    };

    let mut calm = ServeClient::connect(&addr).expect("connect");
    calm.hello("calm", 50, 0).expect("hello");
    calm.stream_trace(&trace[..1_000], 250).expect("stream");

    // The poisoned session refits every 5 vectors. Its NaN frame is the
    // last thing it sends, so nothing races the daemon's reply.
    let reply = {
        let addr = addr.clone();
        within(30, "the reply to the NaN frame", move || {
            let good = synth_trace(400);
            let mut bad = ServeClient::connect(&addr).expect("connect");
            bad.hello("nan", 50, 5).expect("hello");
            bad.stream_trace(&good, 100).expect("stream");
            let mut poisoned = synth_trace(100);
            poisoned[42].cpi = f64::NAN;
            bad.send_samples(&poisoned).expect("send");
            bad.wait_report()
        })
    };
    match reply {
        Err(e) => assert!(e.to_string().contains("non-finite CPI"), "{e}"),
        Ok((report, _)) => panic!("expected Error, got {report:?}"),
    }

    let report = within(60, "the concurrent session", move || {
        calm.stream_trace(&trace[1_000..], 250).expect("stream");
        calm.finish().expect("finish");
        let (report, _) = calm.wait_report().expect("report");
        calm.close();
        report
    });
    assert_eq!(report, undisturbed);
    let (ServerMsg::Report { report: a, .. }, ServerMsg::Report { report: b, .. }) =
        (&report, &undisturbed)
    else {
        panic!("expected two Reports");
    };
    assert_eq!(a.cpi_variance.to_bits(), b.cpi_variance.to_bits());
    for (x, y) in a.re_curve.iter().zip(&b.re_curve) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert!(server.stats().session_errors >= 1);
    within(30, "shutdown", move || server.shutdown());
}

/// Raw frames for one connection: (kind, payload).
type Frames = Vec<(u8, Vec<u8>)>;

/// Opens a raw connection, writes `frames`, and collects every reply
/// line until the daemon closes the socket.
fn raw_exchange(addr: &str, frames: &Frames) -> Vec<ServerMsg> {
    use fuzzyphase_serve::framing::write_frame;
    use fuzzyphase_serve::protocol::read_msg;
    use std::io::BufReader;
    use std::net::TcpStream;

    let mut sock = TcpStream::connect(addr).expect("connect");
    for (kind, payload) in frames {
        write_frame(&mut sock, *kind, payload).expect("send");
    }
    let mut replies = BufReader::new(sock);
    let mut seen = Vec::new();
    while let Ok(Some(msg)) = read_msg(&mut replies) {
        seen.push(msg);
    }
    seen
}

/// The daemon speaks one protocol and one trace codec. A `Hello`
/// without a version, a `Hello` for protocol 1, an unknown control
/// type, a frame of unknown kind 7 and a v1 (`f32`-CPI) trace frame
/// each get `Error` and a closed socket, while a concurrent well-formed
/// session's `Report` stays bit-identical to the offline analysis.
/// Every wait is bounded.
#[test]
fn strict_wire_refuses_what_it_does_not_speak() {
    use fuzzyphase_profiler::EipvData;
    use fuzzyphase_serve::framing::{FRAME_CONTROL, FRAME_SAMPLES};
    use fuzzyphase_serve::protocol::encode_control;

    let cfg = tiny_server_cfg();
    let analysis = *cfg.request.analysis();
    let server = Server::start(cfg).expect("start");
    let addr = server.local_addr().to_string();
    let trace = synth_trace(2_000);
    let spv = 50;

    let mut calm = ServeClient::connect(&addr).expect("connect");
    calm.hello("calm", spv, 0).expect("hello");
    calm.stream_trace(&trace[..1_000], 250).expect("stream");

    let hello = |protocol| {
        encode_control(&ClientControl::Hello {
            name: "strict".into(),
            spv,
            refit_every: 0,
            protocol,
            resume: None,
        })
        .expect("encode")
    };
    // A v1 frame: magic "FZPH", version 1, one sample (count, EIP
    // delta, thread, is_os), then its CPI as an f32.
    let mut v1_frame = b"FZPH".to_vec();
    v1_frame.extend_from_slice(&1u32.to_be_bytes());
    v1_frame.extend_from_slice(&[1, 0x80, 0x01, 0, 0]);
    v1_frame.extend_from_slice(&1.0f32.to_be_bytes());
    let legs: Vec<(&str, Frames, &str)> = vec![
        (
            "versionless Hello",
            vec![(
                FRAME_CONTROL,
                br#"{"Hello":{"name":"old","spv":50,"refit_every":0}}"#.to_vec(),
            )],
            "protocol",
        ),
        (
            "protocol 1",
            vec![(FRAME_CONTROL, hello(1))],
            "unsupported protocol version 1",
        ),
        (
            "unknown control type",
            vec![(
                FRAME_CONTROL,
                br#"{"Subscribe":{"events":["refit"]}}"#.to_vec(),
            )],
            "bad control frame",
        ),
        (
            "frame kind 7",
            vec![(7, b"{}".to_vec())],
            "unknown frame kind 7",
        ),
        (
            "v1 trace frame",
            vec![
                (FRAME_CONTROL, hello(fuzzyphase_serve::PROTOCOL_VERSION)),
                (FRAME_SAMPLES, v1_frame),
            ],
            "unsupported trace version 1",
        ),
    ];
    for (what, frames, expect) in legs {
        let replies = {
            let addr = addr.clone();
            within(30, what, move || raw_exchange(&addr, &frames))
        };
        // Only the v1-frame leg gets as far as a session.
        let (last, rest) = replies
            .split_last()
            .unwrap_or_else(|| panic!("{what}: no reply"));
        assert!(
            rest.iter().all(|m| matches!(m, ServerMsg::Hello { .. })),
            "{what}: {replies:?}"
        );
        match last {
            ServerMsg::Error { message } => assert!(message.contains(expect), "{what}: {message}"),
            other => panic!("{what}: expected Error then a closed socket, got {other:?}"),
        }
    }

    let report = within(60, "the concurrent session", move || {
        calm.stream_trace(&trace[1_000..], 250).expect("stream");
        calm.finish().expect("finish");
        let (report, _) = calm.wait_report().expect("report");
        calm.close();
        report
    });
    let ServerMsg::Report { report, .. } = report else {
        panic!("expected Report, got {report:?}");
    };
    let data = EipvData::from_samples(&synth_trace(2_000), spv);
    let offline = fuzzyphase_regtree::analyze(&data.vectors, &data.cpis, &analysis);
    assert_eq!(report, offline);
    assert_eq!(
        report.cpi_variance.to_bits(),
        offline.cpi_variance.to_bits()
    );
    assert_eq!(report.cpi_mean.to_bits(), offline.cpi_mean.to_bits());
    assert_eq!(report.re_min.to_bits(), offline.re_min.to_bits());
    for (a, b) in report.re_curve.iter().zip(&offline.re_curve) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert!(server.stats().session_errors >= 5);
    within(30, "shutdown", move || server.shutdown());
}
