//! `fuzzydiff` — explain why two runs perform differently.
//!
//! ```text
//! fuzzydiff SPOOL_DIR_A SPOOL_DIR_B          # offline: replay two spools
//! fuzzydiff --connect ADDR SIDE_A SIDE_B     # ask a live fuzzyphased
//! ```
//!
//! Offline mode replays two archived spool session directories through
//! the same `EipvBuilder` path the daemon ingests with, fits the
//! discriminant tree and prints the [`DiffReport`] as one JSON line.
//! Daemon mode sends a `Diff` request; each side is a
//! resume token or a spool session directory path on the daemon's
//! host. Both modes print the same bytes for the same two spools —
//! that equality is pinned by the serve crate's loopback tests and the
//! `serve_smoke.sh` CI leg.
//!
//! [`DiffReport`]: fuzzyphase_diff::DiffReport

use fuzzyphase::AnalysisRequest;
use fuzzyphase_diff::{diff, DiffReport};
use fuzzyphase_profiler::EipvData;
use fuzzyphase_serve::spool::recover_session_dir;
use fuzzyphase_serve::ServeClient;
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: fuzzydiff SPOOL_DIR_A SPOOL_DIR_B\n\
         \x20      fuzzydiff --connect ADDR SIDE_A SIDE_B\n\
         \n\
         Offline mode replays two archived spool session directories and\n\
         prints the discriminant-tree DiffReport as one JSON line. With\n\
         --connect, SIDE_A/SIDE_B are resume tokens or spool directory\n\
         paths resolved by the daemon at ADDR; the reply bytes are\n\
         identical to the offline run over the same spools."
    );
    std::process::exit(2);
}

/// Replays one spool session directory into its EIPV data; the side's
/// label is the session token (the directory name), exactly like the
/// daemon's `Diff` resolution.
fn load_side(dir: &str) -> Result<(String, EipvData), String> {
    let path = Path::new(dir);
    let token = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| format!("'{dir}' is not a session directory"))?
        .to_string();
    let rec =
        recover_session_dir(path, &token).map_err(|e| format!("cannot replay '{dir}': {e}"))?;
    Ok((token, rec.state.builder.data().clone()))
}

fn offline(dir_a: &str, dir_b: &str) -> Result<DiffReport, String> {
    let (label_a, data_a) = load_side(dir_a)?;
    let (label_b, data_b) = load_side(dir_b)?;
    // The request's diff defaults are the wire contract the daemon
    // fits with — byte-identical replies over the same spools.
    let request = AnalysisRequest::new();
    diff(&data_a, &data_b, &label_a, &label_b, request.diff()).map_err(|e| e.to_string())
}

fn connected(addr: &str, a: &str, b: &str) -> Result<DiffReport, String> {
    let mut client =
        ServeClient::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let report = client.diff(a, b).map_err(|e| e.to_string())?;
    client.close();
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [a, b] if a != "--connect" => offline(a, b),
        [flag, addr, a, b] if flag == "--connect" => connected(addr, a, b),
        _ => usage(),
    };
    match result {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("fuzzydiff: {msg}");
            ExitCode::FAILURE
        }
    }
}
