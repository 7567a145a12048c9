//! A standalone fleet shard: one sketch server in its own process.
//!
//! The multi-process fleet smoke test (and the CI job wrapping it) spawns
//! several of these, kills one with a real signal, and proves the fleet
//! recovers. The shard starts with an *empty* store unless its
//! `--snapshot-dir` holds snapshots, which it recovers first; otherwise
//! sketches arrive over the wire via `SYNC`, exactly as replicas are
//! seeded in production.
//!
//! Usage: `ds_shard [--addr HOST:PORT] [--seed N] [--snapshot-dir DIR]`
//!
//! Prints `ADDR <bound-address>` on stdout once listening, then serves
//! until stdin reaches EOF (the parent dropping the pipe is the shutdown
//! signal — no signal handling needed, and a `kill -9` is exactly the
//! chaos the tests want).

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::Arc;

use ds_core::store::SketchStore;
use ds_serve::{ServeConfig, Server};
use ds_storage::gen::{imdb_database, ImdbConfig};

fn main() -> std::io::Result<()> {
    let mut addr = "127.0.0.1:0".to_string();
    let mut seed = 42u64;
    let mut snapshot_dir: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("ds_shard: {flag} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--addr" => addr = value("--addr"),
            "--seed" => {
                seed = value("--seed").parse().unwrap_or_else(|e| {
                    eprintln!("ds_shard: bad --seed: {e}");
                    std::process::exit(2);
                })
            }
            "--snapshot-dir" => snapshot_dir = Some(PathBuf::from(value("--snapshot-dir"))),
            other => {
                eprintln!("ds_shard: unknown flag '{other}'");
                std::process::exit(2);
            }
        }
    }

    // Every shard generates the same deterministic catalog from the seed,
    // so queries parse identically fleet-wide without shipping the schema.
    let db = Arc::new(imdb_database(&ImdbConfig::tiny(seed)));
    let store = Arc::new(SketchStore::new());
    let server = Server::start(
        db,
        store,
        ServeConfig::builder()
            .addr(addr)
            .snapshot_dir(snapshot_dir)
            .build()
            .map_err(std::io::Error::from)?,
    )?;

    // The parent parses this line to learn the OS-assigned port.
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "ADDR {}", server.local_addr())?;
    stdout.flush()?;

    // Serve until the parent closes our stdin.
    let stdin = std::io::stdin();
    let mut line = String::new();
    let mut handle = stdin.lock();
    while handle.read_line(&mut line)? > 0 {
        line.clear();
    }
    server.shutdown();
    Ok(())
}
