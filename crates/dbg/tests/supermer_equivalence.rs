//! Property test of the supermer-routed single-pass k-mer analysis: over
//! randomised reads (with sequencing errors, ambiguous bases and mixed base
//! qualities), team widths of 1–8 ranks, and both Bloom settings, the
//! minimizer-partitioned supermer path must produce a counts table —
//! keys, occurrence counts *and* per-side extension tallies — identical to
//! the per-k-mer baseline's.

use dbg::{kmer_analysis, KmerAnalysisParams};
use kmers::{Kmer, KmerCounts};
use pgas::{Ctx, Team};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seqio::Read;

/// A random read: mostly sampled from a couple of shared "genomes" (so many
/// k-mers recur and survive ε=2), with point errors, occasional Ns and a mix
/// of high/low base qualities.
fn random_reads(rng: &mut StdRng, genomes: &[Vec<u8>], n: usize) -> Vec<Read> {
    let bases = [b'A', b'C', b'G', b'T'];
    (0..n)
        .map(|i| {
            let g = &genomes[rng.gen_range(0..genomes.len())];
            let len = rng.gen_range(40..120usize).min(g.len());
            let start = rng.gen_range(0..=g.len() - len);
            let mut seq: Vec<u8> = g[start..start + len].to_vec();
            // Sprinkle errors and ambiguous bases.
            for b in seq.iter_mut() {
                let roll = rng.gen_range(0..100u32);
                if roll < 2 {
                    *b = bases[rng.gen_range(0..4)];
                } else if roll < 3 {
                    *b = b'N';
                }
            }
            let qual: Vec<u8> = (0..seq.len()).map(|_| rng.gen_range(5..45u8)).collect();
            Read::new(format!("r{i}"), &seq, &qual)
        })
        .collect()
}

/// Runs analysis on `ranks` ranks and gathers the whole table, sorted by key.
fn run_table(reads: &[Read], ranks: usize, params: &KmerAnalysisParams) -> Vec<(Kmer, KmerCounts)> {
    let team = Team::single_node(ranks);
    let mut all: Vec<(Kmer, KmerCounts)> = team
        .run(move |ctx: &Ctx| {
            let range = ctx.block_range(reads.len());
            let res = kmer_analysis(ctx, &reads[range], params);
            ctx.barrier();
            res.counts.local_entries(ctx)
        })
        .into_iter()
        .flatten()
        .collect();
    all.sort_by_key(|a| a.0);
    all
}

#[test]
fn supermer_routing_matches_per_kmer_baseline_on_randomised_reads() {
    let mut rng = StdRng::seed_from_u64(20260728);
    for trial in 0..6 {
        let genomes: Vec<Vec<u8>> = (0..2)
            .map(|_| {
                (0..rng.gen_range(150..400usize))
                    .map(|_| [b'A', b'C', b'G', b'T'][rng.gen_range(0..4)])
                    .collect()
            })
            .collect();
        let n_reads = rng.gen_range(20..80);
        let reads = random_reads(&mut rng, &genomes, n_reads);
        let k = *[7usize, 11, 17, 21].get(rng.gen_range(0..4)).unwrap();
        let m = rng.gen_range(3..=k.min(19));
        // With the Bloom pre-pass, admission is only deterministic for
        // k-mers seen at least twice, so pair it with ε >= 2.
        let use_bloom = rng.gen_range(0..2) == 0;
        let min_count = if use_bloom {
            2
        } else {
            rng.gen_range(1..=3u32)
        };
        let params = KmerAnalysisParams {
            k,
            min_count,
            use_bloom,
            minimizer_len: m,
            batch: *[1usize, 7, 4096].get(rng.gen_range(0..3)).unwrap(),
            ..Default::default()
        };
        let mut supermer = params.clone();
        supermer.use_supermers = true;
        let mut per_kmer = params.clone();
        per_kmer.use_supermers = false;

        // The per-k-mer baseline on one rank is the reference.
        let reference = run_table(&reads, 1, &per_kmer);
        for ranks in 1..=8usize {
            let got = run_table(&reads, ranks, &supermer);
            assert_eq!(
                got, reference,
                "supermer table diverged: trial={trial} ranks={ranks} k={k} m={m} \
                 bloom={use_bloom} eps={min_count}"
            );
        }
        // And the baseline itself must be rank-count invariant too.
        let baseline_4 = run_table(&reads, 4, &per_kmer);
        assert_eq!(
            baseline_4, reference,
            "baseline not rank-invariant: trial={trial}"
        );
    }
}
