//! `cleanml-worker` — a remote task executor for the distributed engine.
//!
//! Connects to a coordinator (a study binary started with `--listen`),
//! rebuilds the study's task graph from the wire handshake, then leases
//! ready tasks, fetches their inputs by content address, and ships
//! finished artifacts back as CMAF frames until the coordinator says
//! goodbye:
//!
//! ```sh
//! cargo run --release -p cleanml-bench --bin study -- \
//!     --quick --listen 127.0.0.1:7401 --cache-dir run_dir out_dir &
//! cargo run --release -p cleanml-bench --bin cleanml-worker -- \
//!     --connect 127.0.0.1:7401
//! ```
//!
//! The worker is stateless and disposable: `kill -9` it mid-task and the
//! coordinator re-leases the orphaned work after `--lease-timeout`; start
//! as many as the coordinator's study has parallel width.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use cleanml_bench::cli;
use cleanml_engine::remote::{run_worker, FaultPlan};

fn main() {
    let args = cli::WORKER.parse_or_exit(std::env::args());
    let addr = args.connect.expect("--connect is required");
    let name = args.name.unwrap_or_else(|| format!("worker-{}", std::process::id()));
    let retry_secs = args.retry.unwrap_or(30);

    // The coordinator may still be building its graph (or not be up yet in
    // a scripted launch): retry the connect for a bounded window.
    let deadline = Instant::now() + Duration::from_secs(retry_secs);
    let stream = loop {
        match TcpStream::connect(&addr) {
            Ok(stream) => break stream,
            Err(e) if Instant::now() < deadline => {
                eprintln!("[{name}] {addr} not ready ({e}); retrying");
                std::thread::sleep(Duration::from_millis(250));
            }
            Err(e) => {
                eprintln!("[{name}] cannot connect to {addr}: {e}");
                std::process::exit(1);
            }
        }
    };
    eprintln!("[{name}] connected to {addr}");

    match run_worker(stream, &name, &FaultPlan::default()) {
        Ok(summary) => {
            println!(
                "[{name}] session complete: {} tasks executed, {} inputs fetched, \
                 {} dependencies recomputed locally",
                summary.completed,
                summary.fetched,
                summary.computed.saturating_sub(summary.completed),
            );
        }
        Err(e) => {
            eprintln!("[{name}] session failed: {e}");
            std::process::exit(1);
        }
    }
}
