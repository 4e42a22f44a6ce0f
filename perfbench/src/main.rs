//! End-to-end and per-layer benchmark of the MetaHipMer pipeline.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload wetlands-1r --seed 20260614 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is the result object; the lines before
//! it explain the run. See `perfbench/README.md`.

mod bench;
mod metrics;
mod replay;
mod stats;
mod trace;
mod worker;
mod workload;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("worker") => worker::main(&args[1..]),
        _ => bench::main(&args),
    };
    std::process::exit(code)
}
