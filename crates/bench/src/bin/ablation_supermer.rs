//! Ablation: supermer-routed single-pass k-mer analysis vs per-k-mer routing.
//!
//! The k-mer analysis stage is the communication-heaviest part of the
//! pipeline: the per-k-mer baseline ships every canonical k-mer as a ~32-byte
//! packed struct — twice (once for Bloom admission, once for counting). The
//! supermer path decomposes each read once into maximal same-minimizer runs
//! and ships them as packed 2-bit sequence with a quality sidecar
//! (~(s+k−1)/4 bytes per s k-mers) to minimizer-owned shards, which count
//! exactly on the receive side of a single exchange and admit a k-mer by the
//! threshold `count >= 2`, with no Bloom filter.
//!
//! This harness runs the same assembly twice — supermer routing off and on —
//! and compares the *k-mer-analysis wire bytes* of the two runs. It exits
//! non-zero unless the supermer path ships at least 4× fewer bytes AND the
//! final assembly is byte-identical, so CI runs it as a smoke check. The
//! measured numbers are appended to `BENCH_kmer_comm.json` so the perf
//! trajectory accumulates across commits.

use baselines::{Assembler, MetaHipMerAssembler};
use mhm_bench::{fmt, print_table, scaled_eval_params, team};
use mhm_core::AssemblyConfig;
use std::io::Write;

fn run() {
    let ranks = std::thread::available_parallelism()
        .map(|n| n.get().min(4))
        .unwrap_or(4);
    let ds = mgsim::mg64_sim(mgsim::Mg64Scale::Tiny, 20260614);
    let eval = scaled_eval_params();

    let mut outputs = Vec::new();
    for (label, use_supermers) in [("per-kmer baseline", false), ("supermer-routed", true)] {
        let cfg = AssemblyConfig {
            use_supermers,
            ..Default::default()
        };
        let team = team(ranks);
        let assembler = MetaHipMerAssembler { config: cfg };
        let output = assembler.assemble(&team, &ds.library, Some(&ds.rrna_consensus));
        let report = asm_metrics::evaluate(&output.sequences(), &ds.refs, &eval);
        println!("{label}: {}", report.summary_line());
        outputs.push((label, output));
    }
    let base = &outputs[0].1;
    let sup = &outputs[1].1;

    let mut rows = Vec::new();
    for (stage, _, _) in &base.stages {
        let b = base.stage_stats(stage);
        let s = sup.stage_stats(stage);
        rows.push(vec![
            stage.clone(),
            b.bytes_sent.to_string(),
            s.bytes_sent.to_string(),
            s.supermer_bytes.to_string(),
            fmt(b.bytes_sent as f64 / (s.bytes_sent as f64).max(1.0), 1),
        ]);
    }
    print_table(
        "Ablation — supermer-routed k-mer analysis",
        &[
            "Stage",
            "Bytes (per-kmer)",
            "Bytes (supermer)",
            "Supermer payload",
            "Byte ratio",
        ],
        &rows,
    );

    // ---- The two hard claims of the ablation --------------------------------
    let base_bytes = base.stage_stats("kmer_analysis").bytes_sent;
    let sup_bytes = sup.stage_stats("kmer_analysis").bytes_sent;
    let ratio = base_bytes as f64 / (sup_bytes as f64).max(1.0);
    println!("\nK-mer-analysis wire bytes: {base_bytes} -> {sup_bytes} ({ratio:.1}x fewer)");
    assert!(
        ratio >= 4.0,
        "supermer routing must cut kmer-analysis wire bytes >= 4x, got {ratio:.1}x"
    );
    let (seq_base, seq_sup) = (base.sequences(), sup.sequences());
    assert_eq!(
        seq_base, seq_sup,
        "assembly must be byte-identical with and without supermer routing"
    );
    println!(
        "Assembly byte-identical across routing modes: {} scaffolds, {} bases",
        seq_sup.len(),
        seq_sup.iter().map(|s| s.len()).sum::<usize>()
    );

    // ---- Snapshot for the perf trajectory -----------------------------------
    let snapshot = format!(
        "{{\n  \"bench\": \"ablation_supermer\",\n  \"ranks\": {ranks},\n  \
         \"kmer_analysis_bytes_per_kmer\": {base_bytes},\n  \
         \"kmer_analysis_bytes_supermer\": {sup_bytes},\n  \
         \"supermer_payload_bytes\": {},\n  \"byte_ratio\": {ratio:.2},\n  \
         \"kmer_analysis_msgs_per_kmer\": {},\n  \"kmer_analysis_msgs_supermer\": {},\n  \
         \"scaffolds\": {},\n  \"total_bases\": {}\n}}\n",
        sup.stage_stats("kmer_analysis").supermer_bytes,
        base.stage_stats("kmer_analysis").msgs_sent,
        sup.stage_stats("kmer_analysis").msgs_sent,
        seq_sup.len(),
        seq_sup.iter().map(|s| s.len()).sum::<usize>(),
    );
    let path = "BENCH_kmer_comm.json";
    match std::fs::File::create(path).and_then(|mut f| f.write_all(snapshot.as_bytes())) {
        Ok(()) => println!("Wrote {path}"),
        Err(e) => eprintln!("Could not write {path}: {e}"),
    }
}

fn main() {
    // Exit non-zero even when a failure happens on a spawned rank thread
    // whose join result nobody inspects (see mhm_bench::harness_exit_code).
    mhm_bench::run_harness(run);
}
