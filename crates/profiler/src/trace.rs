//! Compact binary sample traces.
//!
//! The paper's tool chain (§3, built on the authors' earlier
//! infrastructure \[32\]) separates *collection* from *analysis*: the
//! driver logs raw samples on the measurement machine and the regression
//! analysis runs offline. JSON archives (see [`crate::export`]) are
//! convenient but large — a 250-interval ODB-C run is ~25 K samples and a
//! SjAS run 250 K. This module provides the compact binary codec for the
//! sample stream: delta-encoded EIPs (consecutive samples often hit nearby
//! code), varint thread ids and `f64` CPIs.
//!
//! The frame is version-tagged and there is one version, **v2**, which
//! stores CPI as `f64`: analysis from a v2 archive (or a v2 stream into
//! the serve daemon) is bit-identical to analyzing the in-memory
//! samples. Any other version tag, including the retired `f32`-CPI v1,
//! is rejected. A NaN or infinite CPI is rejected at decode too: no
//! interval CPI can be non-finite, and one would poison every statistic
//! downstream.
//!
//! ```
//! use fuzzyphase_profiler::trace::{read_samples, write_samples_v2};
//! use fuzzyphase_profiler::Sample;
//!
//! let samples = vec![Sample { eip: 0x4000_1000, thread: 3, is_os: false, cpi: 2.25 }];
//! assert_eq!(read_samples(&write_samples_v2(&samples)).unwrap(), samples);
//! ```

use crate::session::Sample;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io;

/// File magic ("FZPH").
const MAGIC: u32 = 0x465A_5048;
/// Codec version with `f64` CPIs (exact round-trip), the only one.
const VERSION_V2: u32 = 2;

/// Appends a LEB128 varint to `buf`. Public because the serve daemon's
/// spool records and snapshots reuse this exact encoding, keeping the
/// whole on-disk story one codec.
pub fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Decodes a LEB128 varint written by [`put_varint`].
///
/// # Errors
///
/// Returns `UnexpectedEof` on a truncated varint and `InvalidData` when
/// the encoding runs past 64 bits.
pub fn get_varint(buf: &mut impl Buf) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated varint",
            ));
        }
        let byte = buf.get_u8();
        if shift >= 64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint too long",
            ));
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// ZigZag encoding of a signed delta.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encodes a sample stream into the v2 binary format (`f64` CPIs):
/// decoding gives back bit-identical samples, so any analysis run on the
/// decoded stream equals the analysis of the original samples exactly.
pub fn write_samples_v2(samples: &[Sample]) -> Bytes {
    let mut buf = BytesMut::with_capacity(16 + samples.len() * 8);
    buf.put_u32(MAGIC);
    buf.put_u32(VERSION_V2);
    put_varint(&mut buf, samples.len() as u64);
    let mut prev_eip: u64 = 0;
    for s in samples {
        put_varint(&mut buf, zigzag(s.eip.wrapping_sub(prev_eip) as i64));
        prev_eip = s.eip;
        put_varint(&mut buf, s.thread as u64);
        buf.put_u8(u8::from(s.is_os));
        buf.put_f64(s.cpi);
    }
    buf.freeze()
}

/// Decodes a v2 sample stream written by [`write_samples_v2`].
///
/// # Errors
///
/// Returns `InvalidData` on bad magic/version, a NaN or infinite CPI, or
/// corrupt payloads, and `UnexpectedEof` when the buffer is truncated.
pub fn read_samples(data: &[u8]) -> io::Result<Vec<Sample>> {
    let mut out = Vec::new();
    read_samples_into(data, &mut out)?;
    Ok(out)
}

/// Decodes a sample stream into a caller-owned buffer, clearing it
/// first. Steady-state frame decoding (the serve daemon's engine loop,
/// spool replay) reuses one buffer across frames, so decode allocates
/// nothing once the buffer has grown to the largest frame seen.
///
/// # Errors
///
/// Same conditions as [`read_samples`]; on error `out` holds an
/// unspecified partial decode.
pub fn read_samples_into(mut data: &[u8], out: &mut Vec<Sample>) -> io::Result<()> {
    out.clear();
    if data.remaining() < 8 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "truncated header",
        ));
    }
    if data.get_u32() != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad magic"));
    }
    let version = data.get_u32();
    if version != VERSION_V2 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported trace version {version}"),
        ));
    }
    let count = get_varint(&mut data)? as usize;
    // Each sample needs at least 1 (eip) + 1 (thread) + 1 (flag) + 8
    // (CPI) bytes, which also bounds what a lying count can reserve.
    if count > data.remaining() / 11 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "sample count exceeds payload",
        ));
    }
    out.reserve(count);
    let mut prev_eip: u64 = 0;
    for _ in 0..count {
        let delta = unzigzag(get_varint(&mut data)?);
        let eip = prev_eip.wrapping_add(delta as u64);
        prev_eip = eip;
        let thread = get_varint(&mut data)? as u32;
        if data.remaining() < 9 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated sample",
            ));
        }
        let is_os = data.get_u8() != 0;
        let cpi = data.get_f64();
        if !cpi.is_finite() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("non-finite CPI {cpi}"),
            ));
        }
        out.push(Sample {
            eip,
            thread,
            is_os,
            cpi,
        });
    }
    Ok(())
}

/// Writes a sample trace to disk in the v2 format, so a saved archive
/// reproduces the analysis of the original samples bit for bit.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save_trace(samples: &[Sample], path: impl AsRef<std::path::Path>) -> io::Result<()> {
    std::fs::write(path, write_samples_v2(samples))
}

/// Reads a sample trace from disk.
///
/// # Errors
///
/// Propagates I/O and decode errors.
pub fn load_trace(path: impl AsRef<std::path::Path>) -> io::Result<Vec<Sample>> {
    let data = std::fs::read(path)?;
    read_samples(&data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzyphase_stats::seeded_rng;
    use rand::Rng;

    fn random_samples(n: usize, seed: u64) -> Vec<Sample> {
        let mut rng = seeded_rng(seed);
        (0..n)
            .map(|_| Sample {
                eip: 0x4000_0000 + rng.gen_range(0..100_000u64) * 16,
                thread: rng.gen_range(0..20),
                is_os: rng.gen_bool(0.1),
                cpi: rng.gen_range(50..500) as f64 / 100.0,
            })
            .collect()
    }

    #[test]
    fn roundtrip_exact() {
        let samples = random_samples(5000, 1);
        let bytes = write_samples_v2(&samples);
        assert_eq!(read_samples(&bytes).expect("decode"), samples);
    }

    #[test]
    fn empty_roundtrip() {
        let bytes = write_samples_v2(&[]);
        assert!(read_samples(&bytes).expect("decode").is_empty());
    }

    #[test]
    fn binary_is_much_smaller_than_json() {
        let samples = random_samples(10_000, 2);
        let bin = write_samples_v2(&samples).len();
        let json = serde_json::to_string(&samples).expect("json").len();
        assert!(
            bin * 4 < json,
            "binary {bin} bytes should be ≤ 1/4 of JSON {json}"
        );
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_samples(b"XXXXXXXXXXXX").expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_truncation() {
        let bytes = write_samples_v2(&random_samples(100, 3));
        for cut in [0, 3, 7, 9] {
            assert!(read_samples(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn rejects_overlong_count() {
        // u64::MAX, and one sample more than the 11-byte minimum allows.
        for (count, body) in [(u64::MAX, 0), (2, 21)] {
            let mut buf = BytesMut::new();
            buf.put_u32(MAGIC);
            buf.put_u32(VERSION_V2);
            put_varint(&mut buf, count);
            buf.put_slice(&[0; 21][..body]);
            let err = read_samples(&buf.freeze()).expect_err("must fail");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn rejects_unknown_version() {
        // 1 is the retired f32-CPI codec: an empty v1 frame is still
        // refused by its tag alone.
        for version in [1, 99] {
            let mut buf = BytesMut::new();
            buf.put_u32(MAGIC);
            buf.put_u32(version);
            put_varint(&mut buf, 0);
            let err = read_samples(&buf.freeze()).expect_err("must fail");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn v2_roundtrip_is_bit_exact() {
        // CPIs chosen to NOT be f32-representable.
        let samples: Vec<Sample> = (0..500)
            .map(|i| Sample {
                eip: 0x4000_0000 + i * 16,
                thread: (i % 7) as u32,
                is_os: i % 13 == 0,
                cpi: 1.0 + (i as f64) * 0.123_456_789_012_345,
            })
            .collect();
        let back = read_samples(&write_samples_v2(&samples)).expect("decode");
        assert_eq!(back.len(), samples.len());
        for (a, b) in back.iter().zip(&samples) {
            assert_eq!(a, b);
            assert_eq!(a.cpi.to_bits(), b.cpi.to_bits());
        }
    }

    #[test]
    fn v2_rejects_truncation() {
        let samples = random_samples(50, 10);
        let bytes = write_samples_v2(&samples);
        assert!(read_samples(&bytes[..bytes.len() - 5]).is_err());
    }

    #[test]
    fn varint_roundtrip_extremes() {
        for v in [0u64, 1, 127, 128, 16_383, u32::MAX as u64, u64::MAX] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut slice = &buf[..];
            assert_eq!(get_varint(&mut slice).expect("decode"), v);
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn file_roundtrip() {
        let samples = random_samples(500, 4);
        let dir = std::env::temp_dir().join("fuzzyphase-trace-test");
        std::fs::create_dir_all(&dir).expect("tmp");
        let path = dir.join("t.fzph");
        save_trace(&samples, &path).expect("save");
        assert_eq!(load_trace(&path).expect("load"), samples);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_non_finite_cpi() {
        for cpi in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut samples = random_samples(20, 11);
            samples[7].cpi = cpi;
            let err = read_samples(&write_samples_v2(&samples))
                .expect_err("non-finite CPI must not decode");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{cpi}");
        }
    }
}
