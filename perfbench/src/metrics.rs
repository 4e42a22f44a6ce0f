//! The metrics the benchmark reports (the same lists `BENCHMARK.json`
//! declares), the per-layer arithmetic over a traced replay, and the JSON
//! result line.

use crate::replay::{Replay, RRNA_SCAN};
use crate::trace::Trace;
use pgas::StatsSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Reported with tracing off.
pub const END_TO_END: &[Metric] = &[
    m("assemble_s", "s"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
    m("genome_fraction_pct", "%"),
];

/// Reported by the traced replay. `*_s` is span self time: Σ over calls of
/// the slowest rank's self time.
pub const PER_LAYER: &[Metric] = &[
    m("seqio.parse_s", "s"),
    m("seqio.mbases_per_s", "Mbase/s"),
    m("readstore.build_s", "s"),
    m("readstore.resident_bytes_max", "bytes"),
    m("readstore.fetch_bytes", "bytes"),
    m("dbg.kmer_analysis_s", "s"),
    m("dbg.kmer_analysis.ns_per_obs", "ns"),
    m("dbg.kmer_analysis.bytes", "bytes"),
    m("dbg.kmer_merging_s", "s"),
    m("dbg.build_graph_s", "s"),
    m("dbg.traverse_s", "s"),
    m("dbg.traverse.stitch_rounds", "count"),
    m("dbg.traverse.stitch_bytes", "bytes"),
    m("dbg.bubble_prune_s", "s"),
    m("dbg.contigs", "count"),
    m("dbg.contig_store_build_s", "s"),
    m("dbg.contig_store.resident_bytes_max", "bytes"),
    m("aligner.seed_index_s", "s"),
    m("aligner.align_s", "s"),
    m("aligner.ns_per_read", "ns"),
    m("aligner.alignments", "count"),
    m("aligner.bytes", "bytes"),
    m("aligner.localize_s", "s"),
    m("local_assembly_s", "s"),
    m("local_assembly.ns_per_contig", "ns"),
    m("local_assembly.bases_added", "bp"),
    m("local_assembly.bases_per_contig", "bp"),
    m("local_assembly.balance", "ratio"),
    m("local_assembly.steals", "count"),
    m("scaffolding.realign_s", "s"),
    m("scaffolding.links_s", "s"),
    m("scaffolding.links", "count"),
    m("scaffolding.traverse_s", "s"),
    m("scaffolding.gap_close_s", "s"),
    m("scaffolding.gaps_closed", "count"),
    m("scaffolding.gaps_total", "count"),
    m("rrna_hmm.scan_s", "s"),
    m("rrna_hmm.cells", "count"),
    m("rrna_hmm.ns_per_cell", "ns"),
    m("rrna_hmm.hits", "count"),
    m("pgas.msgs", "count"),
    m("pgas.bytes", "bytes"),
    m("pgas.barriers", "count"),
    m("pgas.rpc_round_trips", "count"),
    m("dht.remote_frac", "ratio"),
    m("dht.cache_hit_rate", "ratio"),
    m("dht.cache_evictions", "count"),
    m("pgas.parallel_efficiency", "ratio"),
    m("quality.scaffold_n50_bp", "bp"),
    m("quality.misassemblies", "count"),
    m("quality.rrna_recovered", "count"),
    m("trace.total_s", "s"),
    m("trace.untraced_assemble_s", "s"),
    m("trace.overhead_ratio", "ratio"),
];

/// `a / b`, or 0 when there is nothing to divide by (e.g. no HMM cells on a
/// workload without an rRNA model).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The per-layer values a traced replay yields on its own. `windows` is the
/// number of k-mer windows of the input summed over the k schedule (the
/// observations k-mer analysis makes); `parse_s` and `input_bases` time the
/// FASTQ parse during set-up.
pub fn layer_values(
    trace: &Trace,
    replay: &Replay,
    windows: u64,
    input_bases: u64,
    parse_s: f64,
) -> BTreeMap<&'static str, f64> {
    let stat = |name: &str, f: fn(&StatsSnapshot) -> u64| trace.stat(name, f) as f64;
    let total = trace
        .ranks
        .iter()
        .flatten()
        .filter(|s| s.parent.is_none())
        .fold(StatsSnapshot::default(), |acc, s| acc.add(&s.stats));
    let max = |v: &[u64]| v.iter().copied().max().unwrap_or(0) as f64;

    let kmer_s = trace.self_s("dbg.kmer_analysis");
    let align_s = trace.self_s("aligner.align");
    let local_s = trace.self_s("local_assembly.extend");
    let scan_s = trace.self_s(RRNA_SCAN);
    let contigs_attempted = trace.note("local_assembly.extend", "contigs") as f64;
    let bases_added = trace.note("local_assembly.extend", "bases_added") as f64;
    let cells = trace.note(RRNA_SCAN, "cells") as f64;
    let work: Vec<f64> = trace
        .per_rank_note("local_assembly.extend", "contigs")
        .into_iter()
        .map(|w| w as f64)
        .collect();

    BTreeMap::from([
        ("seqio.parse_s", parse_s),
        (
            "seqio.mbases_per_s",
            ratio(input_bases as f64 * 1e-6, parse_s),
        ),
        ("readstore.build_s", trace.self_s("readstore.build")),
        ("readstore.resident_bytes_max", max(&replay.read_resident)),
        ("readstore.fetch_bytes", total.read_fetch_bytes as f64),
        ("dbg.kmer_analysis_s", kmer_s),
        (
            "dbg.kmer_analysis.ns_per_obs",
            ratio(kmer_s * 1e9, windows as f64),
        ),
        (
            "dbg.kmer_analysis.bytes",
            stat("dbg.kmer_analysis", |s| s.bytes_sent),
        ),
        ("dbg.kmer_merging_s", trace.self_s("dbg.kmer_merging")),
        ("dbg.build_graph_s", trace.self_s("dbg.build_graph")),
        ("dbg.traverse_s", trace.self_s("dbg.traverse")),
        (
            "dbg.traverse.stitch_rounds",
            stat("dbg.traverse", |s| s.traversal_rounds),
        ),
        (
            "dbg.traverse.stitch_bytes",
            stat("dbg.traverse", |s| s.stitch_bytes),
        ),
        ("dbg.bubble_prune_s", trace.self_s("dbg.bubble_prune")),
        (
            "dbg.contigs",
            trace.note("dbg.bubble_prune", "contigs") as f64,
        ),
        (
            "dbg.contig_store_build_s",
            trace.self_s("dbg.contig_store_build"),
        ),
        (
            "dbg.contig_store.resident_bytes_max",
            max(&replay.contig_resident),
        ),
        ("aligner.seed_index_s", trace.self_s("aligner.seed_index")),
        ("aligner.align_s", align_s),
        (
            "aligner.ns_per_read",
            ratio(align_s * 1e9, trace.note("aligner.align", "reads") as f64),
        ),
        (
            "aligner.alignments",
            trace.note("aligner.align", "alignments") as f64,
        ),
        (
            "aligner.bytes",
            stat("aligner.seed_index", |s| s.bytes_sent) + stat("aligner.align", |s| s.bytes_sent),
        ),
        ("aligner.localize_s", trace.self_s("aligner.localize")),
        ("local_assembly_s", local_s),
        (
            "local_assembly.ns_per_contig",
            ratio(local_s * 1e9, contigs_attempted),
        ),
        ("local_assembly.bases_added", bases_added),
        (
            "local_assembly.bases_per_contig",
            ratio(bases_added, contigs_attempted),
        ),
        (
            "local_assembly.balance",
            pgas::stats::load_balance_ratio(&work),
        ),
        (
            "local_assembly.steals",
            stat("local_assembly.extend", |s| s.steals),
        ),
        ("scaffolding.realign_s", trace.self_s("scaffolding.realign")),
        ("scaffolding.links_s", trace.self_s("scaffolding.links")),
        (
            "scaffolding.links",
            trace.note("scaffolding.links", "links") as f64,
        ),
        (
            "scaffolding.traverse_s",
            trace.self_s("scaffolding.traverse"),
        ),
        (
            "scaffolding.gap_close_s",
            trace.self_s("scaffolding.gap_close"),
        ),
        (
            "scaffolding.gaps_closed",
            trace.note("scaffolding.gap_close", "gaps_closed") as f64,
        ),
        (
            "scaffolding.gaps_total",
            trace.note("scaffolding.gap_close", "gaps_total") as f64,
        ),
        ("rrna_hmm.scan_s", scan_s),
        ("rrna_hmm.cells", cells),
        ("rrna_hmm.ns_per_cell", ratio(scan_s * 1e9, cells)),
        ("rrna_hmm.hits", trace.note(RRNA_SCAN, "hits") as f64),
        ("pgas.msgs", total.msgs_sent as f64),
        ("pgas.bytes", total.bytes_sent as f64),
        ("pgas.barriers", max(&replay.barriers)),
        ("pgas.rpc_round_trips", total.rpc_round_trips as f64),
        ("dht.remote_frac", total.remote_fraction()),
        ("dht.cache_hit_rate", total.cache_hit_rate()),
        ("dht.cache_evictions", total.cache_evictions as f64),
        ("trace.total_s", replay.total_s),
    ])
}

/// The values of `table`, in table order; fails naming the first metric
/// that has no finite value.
pub fn collect(
    table: &'static [Metric],
    values: &BTreeMap<&'static str, f64>,
) -> Result<Vec<(&'static Metric, f64)>, String> {
    table
        .iter()
        .map(|metric| match values.get(metric.name) {
            Some(v) if v.is_finite() => Ok((metric, *v)),
            Some(v) => Err(format!("metric {} is not finite: {v}", metric.name)),
            None => Err(format!("metric {} was not measured", metric.name)),
        })
        .collect()
}

/// The result line: one JSON object, the last line of standard output.
pub fn render_result(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&'static Metric, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (metric, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        let first_ok = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for metric in &all {
            assert!(valid_name(metric.name), "bad metric name {}", metric.name);
            assert!(valid_unit(metric.unit), "bad unit {}", metric.unit);
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names must be unique");
        assert!(!valid_name("a b") && !valid_name(".x") && !valid_name("a/b"));
    }

    /// `(name, unit)` of every metric object in one top-level array of
    /// `BENCHMARK.json`, which keeps one metric per line.
    fn declared(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("array present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closed")];
        let field = |line: &str, f: &str| -> Option<String> {
            let tag = format!("\"{f}\": \"");
            let at = line.find(&tag)? + tag.len();
            Some(line[at..at + line[at..].find('"')?].to_string())
        };
        body.lines()
            .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(
                declared(&json, key),
                ours,
                "{key} differs from BENCHMARK.json"
            );
        }
    }

    #[test]
    fn result_line_holds_every_declared_metric() {
        for table in [END_TO_END, PER_LAYER] {
            let values: BTreeMap<&'static str, f64> = table
                .iter()
                .enumerate()
                .map(|(i, m)| (m.name, i as f64 + 0.5))
                .collect();
            let line = render_result(true, 3, 0, &collect(table, &values).unwrap());
            assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
            for metric in table {
                let entry = format!("\"{}\": {{\"value\": ", metric.name);
                assert!(line.contains(&entry), "{} missing", metric.name);
            }
            assert!(line.ends_with("}}"));
        }
    }

    #[test]
    fn missing_or_non_finite_values_are_refused() {
        let mut values: BTreeMap<&'static str, f64> =
            END_TO_END.iter().map(|m| (m.name, 1.0)).collect();
        assert!(collect(END_TO_END, &values).is_ok());
        values.insert("setup_s", f64::NAN);
        assert!(collect(END_TO_END, &values).is_err());
        values.remove("setup_s");
        assert!(collect(END_TO_END, &values).is_err());
    }
}
