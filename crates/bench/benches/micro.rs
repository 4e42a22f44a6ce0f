//! Criterion micro-benchmarks of the distributed substrates: the four
//! hash-table phases, k-mer analysis, the extraction hot loops (rolling
//! minimizer, supermer grouping), both graph-traversal implementations,
//! alignment, local assembly and the Bloom filter. `cargo bench -p mhm_bench`
//! runs them all.

use aligner::{align_reads, build_seed_index, AlignParams, Alignment, AlignmentSet};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dbg::{
    build_graph, kmer_analysis, traverse_contigs, KmerAnalysisParams, ThresholdPolicy,
    TraversalParams,
};
use dht::{bulk_merge, DistBloom, DistMap};
use kmers::{kmer_minimizer, Kmer, SupermerIter};
use mgsim::{CommunityParams, ReadSimParams};
use mhm_core::{extend_contigs_locally, LocalAssemblyParams};
use pgas::Team;
use seqio::alphabet::revcomp;
use seqio::{Read, ReadLibrary};
use std::sync::Arc;

fn dataset() -> (Vec<Read>, dbg::ContigSet) {
    let (refs, _) = mgsim::generate_community(&CommunityParams {
        num_taxa: 3,
        genome_len_range: (5_000, 6_000),
        seed: 99,
        ..Default::default()
    });
    let lib = mgsim::simulate_reads(
        &refs,
        &ReadSimParams {
            read_len: 100,
            seed: 100,
            ..Default::default()
        }
        .with_target_coverage(&refs, 12.0),
    );
    let contigs = dbg::ContigSet::from_sequences(
        31,
        refs.genomes.iter().map(|g| (g.seq.clone(), 10.0)).collect(),
    );
    (lib.reads, contigs)
}

fn bench_dht_phases(c: &mut Criterion) {
    let team = Team::single_node(4);
    c.bench_function("dht/update_only_bulk_merge_100k", |b| {
        b.iter(|| {
            team.run(|ctx| {
                let map: Arc<DistMap<u64, u64>> = DistMap::shared(ctx);
                bulk_merge(
                    ctx,
                    &map,
                    (0..25_000u64).map(|k| (k % 5_000, 1)),
                    2048,
                    |a, v| *a += v,
                );
            })
        })
    });
    c.bench_function("dht/global_read_write_20k", |b| {
        b.iter(|| {
            team.run(|ctx| {
                let map: Arc<DistMap<u64, u64>> = DistMap::shared(ctx);
                for i in 0..5_000u64 {
                    map.update(ctx, &(i % 1000), |v| {
                        if let Some(v) = v {
                            *v += 1
                        }
                    });
                    map.upsert(ctx, i % 1000, || 0, |v| *v += 1);
                }
            })
        })
    });
    c.bench_function("dht/bloom_insert_40k", |b| {
        b.iter(|| {
            team.run(|ctx| {
                let bloom = ctx.share(|| DistBloom::new(ctx.ranks(), 40_000, 0.01));
                for i in 0..10_000u64 {
                    bloom.insert_and_check(ctx, &(i ^ (ctx.rank() as u64) << 32));
                }
            })
        })
    });
}

fn bench_extraction_hot_loops(c: &mut Criterion) {
    // A 100 kb pseudo-random sequence: long enough that the rolling-minimizer
    // deque and the supermer run-grouping dominate, not setup.
    let seq: Vec<u8> = {
        let mut x = 0x9E3779B97F4A7C15u64;
        (0..100_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                [b'A', b'C', b'G', b'T'][(x & 3) as usize]
            })
            .collect()
    };
    c.bench_function("kmers/rolling_minimizer_100kb", |b| {
        // The streaming path: one O(len) pass maintains every window's
        // canonical minimizer through the monotonic deque.
        b.iter(|| {
            SupermerIter::new(&seq, 21, 15)
                .map(|s| s.minimizer)
                .sum::<u64>()
        })
    });
    c.bench_function("kmers/kmer_minimizer_1k_windows", |b| {
        // The per-k-mer recomputation (owner-side routing checks).
        let kmers: Vec<Kmer> = (0..1000)
            .map(|i| Kmer::from_bytes(&seq[i..i + 21]).unwrap())
            .collect();
        b.iter(|| kmers.iter().map(|km| kmer_minimizer(km, 15)).sum::<u64>())
    });
    c.bench_function("kmers/supermer_iter_100kb", |b| {
        b.iter(|| {
            SupermerIter::new(&seq, 21, 15)
                .map(|s| s.kmers)
                .sum::<usize>()
        })
    });
}

fn bench_compute_kernels(c: &mut Criterion) {
    // 1 Mb pseudo-random sequence for the bulk codecs, plus a sprinkling of
    // Ns so the pack path exercises its exception handling.
    let seq: Vec<u8> = {
        let mut x = 0xD1B54A32D192ED03u64;
        (0..1 << 20)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                [b'A', b'C', b'G', b'T'][(x & 3) as usize]
            })
            .collect()
    };
    let mut noisy = seq.clone();
    for i in (0..noisy.len()).step_by(997) {
        noisy[i] = b'N';
    }
    let packed = dbg::PackedSeq::from_bytes(&seq);
    c.bench_function("kernels/pack_1mb", |b| {
        b.iter(|| dbg::PackedSeq::from_bytes(&noisy).packed_bytes())
    });
    c.bench_function("kernels/unpack_1mb", |b| b.iter(|| packed.unpack().len()));

    // k=95 spans three words of the packed representation.
    let kmers_95: Vec<Kmer> = (0..2_000)
        .map(|i| Kmer::from_bytes(&seq[i * 97..i * 97 + 95]).unwrap())
        .collect();
    c.bench_function("kernels/revcomp_2k_k95", |b| {
        b.iter(|| {
            kmers_95
                .iter()
                .map(|km| km.revcomp().first_code() as u64)
                .sum::<u64>()
        })
    });
    c.bench_function("kernels/canonical_2k_k95", |b| {
        b.iter(|| {
            kmers_95
                .iter()
                .map(|km| km.canonical().0.first_code() as u64)
                .sum::<u64>()
        })
    });

    // The aligner's ungapped verification rule over a correlated pair.
    let read_side: Vec<u8> = noisy
        .iter()
        .enumerate()
        .map(|(i, &b)| if i % 7 == 0 { b'A' } else { b })
        .collect();
    c.bench_function("kernels/verify_match_count_1mb", |b| {
        b.iter(|| mhm_simd::match_count_except(&noisy, &read_side, b'N'))
    });
}

fn bench_read_store(c: &mut Criterion) {
    let (reads, _) = dataset();
    let lib = {
        let mut lib = seqio::ReadLibrary::new_unpaired("bench");
        lib.reads = reads.clone();
        lib
    };
    // The ingestion hot loop: 2-bit packing + quality run-length encoding.
    c.bench_function("readstore/pack_reads", |b| {
        b.iter(|| {
            reads
                .iter()
                .map(|r| readstore::PackedRead::from_read(r).packed_bytes())
                .sum::<usize>()
        })
    });
    // The consumer hot loop: unpacking sequence + qualities back out.
    let packed: Vec<readstore::PackedRead> =
        reads.iter().map(readstore::PackedRead::from_read).collect();
    c.bench_function("readstore/unpack_reads", |b| {
        b.iter(|| packed.iter().map(|p| p.unpack().seq.len()).sum::<usize>())
    });
    // A full cold-cache fill: every rank fetches every foreign block once
    // through the aggregated collective path.
    let team = Team::single_node(4);
    c.bench_function("readstore/block_fetch_fill_4ranks", |b| {
        b.iter(|| {
            team.run(|ctx| {
                let store =
                    readstore::ReadStore::build(ctx, &lib, &readstore::ReadStoreParams::default());
                let mut reader = store.reader(ctx);
                let ids: Vec<u64> = (0..store.num_blocks() as u64).collect();
                reader
                    .get_many(ctx, &ids)
                    .iter()
                    .flatten()
                    .map(|blk| blk.packed_bytes())
                    .sum::<usize>()
            })
        })
    });
}

fn bench_pipeline_stages(c: &mut Criterion) {
    let (reads, contigs) = dataset();
    let team = Team::single_node(4);
    c.bench_function("dbg/kmer_analysis_k21", |b| {
        // The pipeline's default path: supermer routing with the singleton
        // admission threshold.
        b.iter(|| {
            team.run(|ctx| {
                let range = ctx.block_range(reads.len());
                let params = KmerAnalysisParams {
                    k: 21,
                    ..Default::default()
                };
                kmer_analysis(ctx, &reads[range], &params).counts.len()
            })
        })
    });
    // Both traversal implementations over the same graph: the segment
    // compactor (default) and the per-hop ablation baseline, so hot-loop
    // regressions in either show up without running the full pipeline.
    for (name, segment) in [
        ("dbg/traversal_segment_k21", true),
        ("dbg/traversal_perhop_k21", false),
    ] {
        let reads = reads.clone();
        let team = Arc::clone(&team);
        c.bench_function(name, move |b| {
            b.iter_batched(
                || {
                    team.run(|ctx| {
                        let range = ctx.block_range(reads.len());
                        let params = KmerAnalysisParams {
                            k: 21,
                            use_bloom: false,
                            ..Default::default()
                        };
                        kmer_analysis(ctx, &reads[range], &params)
                    })
                    .pop()
                    .unwrap()
                },
                |analysis| {
                    team.run(|ctx| {
                        let graph = build_graph(
                            ctx,
                            &analysis.counts,
                            ThresholdPolicy::metahipmer_default(),
                        );
                        traverse_contigs(
                            ctx,
                            &graph,
                            21,
                            &TraversalParams {
                                use_segment_traversal: segment,
                                ..Default::default()
                            },
                        )
                        .len()
                    })
                },
                BatchSize::LargeInput,
            )
        });
    }
    c.bench_function("aligner/align_2k_reads", |b| {
        b.iter(|| {
            team.run(|ctx| {
                let index = build_seed_index(ctx, &contigs, 15);
                ctx.barrier();
                let range = ctx.block_range(reads.len().min(2000));
                let my = range.map(|i| (i as u64, reads[i].clone()));
                align_reads(
                    ctx,
                    my,
                    &contigs,
                    &index,
                    &AlignParams {
                        seed_len: 15,
                        ..Default::default()
                    },
                )
                .alignments
                .len()
            })
        })
    });
}

/// A tiled community for local assembly: the middle half of each genome is a
/// contig, error-free 2x100 bp pairs (insert 300) start every 4 bp along the
/// whole genome, and every read lying inside a contig is aligned to it, so
/// both contig ends have a flank to walk into.
fn tiled_flanks() -> (dbg::ContigSet, ReadLibrary, AlignmentSet) {
    let (refs, _) = mgsim::generate_community(&CommunityParams {
        num_taxa: 32,
        genome_len_range: (4_000, 4_000),
        seed: 13,
        ..Default::default()
    });
    let (read_len, insert) = (100usize, 300usize);
    let flank = |g: &[u8]| g.len() / 4..g.len() * 3 / 4;
    let contigs = dbg::ContigSet::from_sequences(
        31,
        refs.genomes
            .iter()
            .map(|g| (g.seq[flank(&g.seq)].to_vec(), 10.0))
            .collect(),
    );
    let mut lib = ReadLibrary::new_paired("tiled", insert, 30);
    let mut alignments = AlignmentSet::default();
    for g in &refs.genomes {
        let g = &g.seq;
        let span = flank(g);
        let (contig, stored_forward) = contigs
            .contigs
            .iter()
            .find_map(|c| {
                if c.seq == g[span.clone()] {
                    Some((c.id, true))
                } else if c.seq == revcomp(&g[span.clone()]) {
                    Some((c.id, false))
                } else {
                    None
                }
            })
            .expect("every genome has its contig");
        for i in (0..g.len() - insert).step_by(4) {
            let pair = lib.num_pairs() as u64;
            let mate2 = revcomp(&g[i + insert - read_len..i + insert]);
            lib.push_pair(
                Read::with_uniform_quality(format!("p{pair}/1"), &g[i..i + read_len], 35),
                Read::with_uniform_quality(format!("p{pair}/2"), &mate2, 35),
            );
            for (mate, start, forward) in [(0, i, true), (1, i + insert - read_len, false)] {
                if start < span.start || start + read_len > span.end {
                    continue;
                }
                let offset = (start - span.start) as i64;
                let (forward, contig_offset) = if stored_forward {
                    (forward, offset)
                } else {
                    (!forward, span.len() as i64 - offset - read_len as i64)
                };
                alignments.alignments.push(Alignment {
                    read_id: 2 * pair + mate,
                    contig,
                    forward,
                    contig_offset,
                    aligned_len: read_len,
                    matches: read_len,
                });
            }
        }
    }
    (contigs, lib, alignments)
}

fn bench_local_assembly(c: &mut Criterion) {
    let (contigs, lib, alignments) = tiled_flanks();
    let team = Team::single_node(1);
    c.bench_function("local_assembly/extend_contigs_synthetic", |b| {
        b.iter(|| {
            team.run(|ctx| {
                let params = LocalAssemblyParams::default();
                let (set, _) = extend_contigs_locally(ctx, &contigs, &alignments, &lib, &params);
                set.total_bases()
            })
        })
    });
}

fn config() -> Criterion {
    Criterion::default().sample_size(10)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_dht_phases, bench_extraction_hot_loops, bench_compute_kernels, bench_read_store, bench_pipeline_stages, bench_local_assembly
}
criterion_main!(benches);
