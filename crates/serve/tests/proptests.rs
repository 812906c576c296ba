//! Property tests for the decoders on the daemon's untrusted paths:
//! the frame layer, control frames, server reply lines, the trace codec
//! and spool records. Each must answer arbitrary bytes and mutated
//! valid encodings with `Ok` or `Err` — never a panic — and must not
//! allocate beyond what the input's own size or the declared limit
//! allows.

use fuzzyphase_profiler::trace::{put_varint, read_samples_into, write_samples_v2};
use fuzzyphase_profiler::Sample;
use fuzzyphase_serve::framing::{read_frame, write_frame, FRAME_SAMPLES, HEADER_LEN};
use fuzzyphase_serve::protocol::{
    decode_control, encode_control, read_msg, write_msg, ClientControl, ServerMsg, PROTOCOL_VERSION,
};
use fuzzyphase_serve::spool::{encode_record, scan_record, RecordScan, REC_FRAME, REC_META};
use proptest::prelude::*;
use std::io::{self, BufReader};

/// The frame limit the frame-layer properties run under.
const LIMIT: usize = 16;
/// The fewest bytes one v2 sample can take: EIP delta and thread
/// varints of one byte each, the OS flag, and an 8-byte CPI.
const MIN_SAMPLE_BYTES: usize = 11;

/// One edit: (position, op, byte). Op 0 overwrites, 1 deletes and 2
/// inserts; positions wrap around the buffer.
type Edit = (usize, u8, u8);

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    prop::collection::vec((any::<usize>(), 0u8..3, any::<u8>()), 1..8)
}

fn mutate(mut bytes: Vec<u8>, edits: &[Edit]) -> Vec<u8> {
    for &(pos, op, byte) in edits {
        let at = pos % (bytes.len() + 1);
        match op {
            0 if at < bytes.len() => bytes[at] = byte,
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, byte),
        }
    }
    bytes
}

fn any_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..max)
}

fn samples() -> impl Strategy<Value = Vec<Sample>> {
    prop::collection::vec((any::<u64>(), 0u32..64, any::<bool>(), 0.0f64..8.0), 0..12).prop_map(
        |raw| {
            raw.into_iter()
                .map(|(eip, thread, is_os, cpi)| Sample {
                    eip,
                    thread,
                    is_os,
                    cpi,
                })
                .collect()
        },
    )
}

fn control(pick: usize) -> ClientControl {
    match pick % 5 {
        0 => ClientControl::Hello {
            name: "prop".into(),
            spv: 100,
            refit_every: 4,
            protocol: PROTOCOL_VERSION,
            resume: Some("sess-00000003".into()),
        },
        1 => ClientControl::Finish,
        2 => ClientControl::Stats,
        3 => ClientControl::SuiteReport,
        _ => ClientControl::Diff {
            a: "sess-00000001".into(),
            b: "/spool/shard-001/sess-00000002".into(),
        },
    }
}

fn server_msg(pick: usize) -> ServerMsg {
    match pick % 4 {
        0 => ServerMsg::Hello {
            session: 3,
            spv: 100,
            refit_every: 4,
            resume_token: Some("sess-00000003".into()),
            last_seq: 9,
        },
        1 => ServerMsg::Progress {
            samples: 500,
            vectors: 5,
            cpi_mean: 1.25,
            cpi_variance: 0.5,
        },
        2 => ServerMsg::Error {
            message: "bad frame".into(),
        },
        _ => ServerMsg::Pause,
    }
}

/// Reads frames until a clean end or an error; every frame returned
/// must respect the limit.
fn drain_frames(mut input: &[u8]) -> Result<(), TestCaseError> {
    loop {
        match read_frame(&mut input, LIMIT) {
            Ok(Some((_, payload))) => prop_assert!(payload.len() <= LIMIT),
            Ok(None) | Err(_) => return Ok(()),
        }
    }
}

/// Reads reply lines until a clean end or the first line that does not
/// parse.
fn drain_lines(input: &[u8]) {
    let mut r = BufReader::new(input);
    while let Ok(Some(_)) = read_msg(&mut r) {}
}

/// Decodes a trace payload into a fresh buffer; whatever the header
/// claims, the buffer may not grow past what the payload's size can
/// hold.
fn decode_bounded(payload: &[u8]) -> Result<(), TestCaseError> {
    let mut out = Vec::new();
    let decoded = read_samples_into(payload, &mut out);
    let room = 4.max(payload.len() / MIN_SAMPLE_BYTES);
    prop_assert!(
        out.capacity() <= room,
        "{} bytes reserved room for {} samples",
        payload.len(),
        out.capacity()
    );
    if decoded.is_ok() {
        prop_assert!(out.len() * MIN_SAMPLE_BYTES <= payload.len());
    }
    Ok(())
}

/// Scans records until the end of valid data; each record must account
/// for exactly the bytes it claims.
fn drain_records(mut buf: &[u8]) -> Result<(), TestCaseError> {
    loop {
        match scan_record(buf) {
            RecordScan::Record {
                payload, consumed, ..
            } => {
                prop_assert!(consumed <= buf.len());
                prop_assert_eq!(consumed, 8 + 1 + payload.len());
                buf = &buf[consumed..];
            }
            RecordScan::End { .. } => return Ok(()),
        }
    }
}

proptest! {
    #[test]
    fn read_frame_is_total(input in any_bytes(96)) {
        drain_frames(&input)?;
    }

    #[test]
    fn read_frame_survives_mutated_frames(
        payloads in prop::collection::vec(any_bytes(LIMIT + 1), 1..4),
        edits in edits(),
    ) {
        let mut wire = Vec::new();
        for p in &payloads {
            write_frame(&mut wire, FRAME_SAMPLES, p).expect("write to a Vec");
        }
        drain_frames(&mutate(wire, &edits))?;
    }

    #[test]
    fn oversized_length_prefix_is_refused_before_reading_it(
        kind in any::<u8>(),
        len in (LIMIT as u32 + 1)..u32::MAX,
        tail in any_bytes(8),
    ) {
        let mut wire = vec![kind];
        wire.extend_from_slice(&len.to_be_bytes());
        wire.extend_from_slice(&tail);
        prop_assert_eq!(wire.len(), HEADER_LEN + tail.len());
        let err = read_frame(&mut wire.as_slice(), LIMIT).expect_err("over the limit");
        prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn decode_control_is_total(input in any_bytes(64)) {
        let _ = decode_control(&input);
    }

    #[test]
    fn decode_control_survives_mutated_requests(pick in any::<usize>(), edits in edits()) {
        let valid = encode_control(&control(pick)).expect("encode");
        let _ = decode_control(&mutate(valid, &edits));
    }

    #[test]
    fn read_msg_is_total(input in any_bytes(64)) {
        drain_lines(&input);
    }

    #[test]
    fn read_msg_survives_mutated_lines(
        picks in prop::collection::vec(any::<usize>(), 1..4),
        edits in edits(),
    ) {
        let mut wire = Vec::new();
        for &p in &picks {
            write_msg(&mut wire, &server_msg(p)).expect("write to a Vec");
        }
        drain_lines(&mutate(wire, &edits));
    }

    #[test]
    fn read_samples_is_total(input in any_bytes(96)) {
        decode_bounded(&input)?;
    }

    #[test]
    fn read_samples_survives_mutated_frames(samples in samples(), edits in edits()) {
        decode_bounded(&mutate(write_samples_v2(&samples).to_vec(), &edits))?;
    }

    #[test]
    fn read_samples_bounds_lying_counts(
        count in any::<u64>(),
        shift in 0u32..64,
        body in any_bytes(64),
    ) {
        // Shifting spreads the claimed count over every magnitude, so
        // small lies near the body's size come up as well as huge ones.
        let mut count_varint = bytes::BytesMut::new();
        put_varint(&mut count_varint, count >> shift);
        let mut frame = b"FZPH".to_vec();
        frame.extend_from_slice(&2u32.to_be_bytes());
        frame.extend_from_slice(&count_varint);
        frame.extend_from_slice(&body);
        decode_bounded(&frame)?;
    }

    #[test]
    fn scan_record_is_total(input in any_bytes(64)) {
        drain_records(&input)?;
    }

    #[test]
    fn scan_record_survives_mutated_records(
        payloads in prop::collection::vec(any_bytes(24), 1..4),
        edits in edits(),
    ) {
        let mut log = encode_record(REC_META, b"{}");
        for p in &payloads {
            log.extend_from_slice(&encode_record(REC_FRAME, p));
        }
        drain_records(&mutate(log, &edits))?;
    }
}
