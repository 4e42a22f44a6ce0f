//! Parallel k-mer analysis (§II-B).
//!
//! Every rank processes its slice of the reads, extracts canonical k-mers with
//! their left/right extension observations, and routes them to owner ranks
//! with aggregated messages. Owners count in their local shard of a
//! distributed hash table. Two refinements from the paper are reproduced:
//!
//! * **supermer routing** (the default): instead of shipping every canonical
//!   k-mer as a ~32-byte packed struct — twice, once for the Bloom pass and
//!   once for counting — each read is decomposed once into *supermers*
//!   (maximal runs of consecutive k-mers sharing a canonical minimizer, see
//!   [`kmers::minimizer`]) which travel as packed 2-bit sequence with a
//!   quality/extension sidecar, ~(s+k−1)/4 bytes per s k-mers. The counts
//!   table is partitioned by minimizer ([`MinimizerPartitioner`]), so every
//!   occurrence of a k-mer arrives at its owner, which counts it exactly,
//!   straight into its own shard, on the receive side of a *single* exchange;
//! * **singleton admission** keeps a k-mer in the table downstream stages
//!   consume only once it has been seen at least twice, so singleton error
//!   k-mers never survive into it. The paper puts a Bloom filter in front of
//!   the table for this; the per-k-mer path still runs that Bloom pass (sized
//!   from an all-reduced global k-mer estimate so shards stay correctly
//!   provisioned however unevenly the reads are distributed) and filters the
//!   exact counts by it afterwards. The supermer path needs no filter: its
//!   counts are exact, so admission is the threshold `count >= 2`, applied
//!   with the ε cutoff once the stream ends. (Unlike the real UPC
//!   implementation, this reproduction therefore holds every distinct k-mer
//!   in the table until that cutoff — admission shapes the result, not the
//!   peak memory; the cutoff gives the dropped entries' capacity back.)
//!
//! HipMer's heavy-hitter detection is not reproduced: counting is exact and
//! the table is partitioned by minimizer, so no stage needs hot k-mers
//! spread across owners.
//!
//! Setting [`KmerAnalysisParams::use_supermers`] to `false` selects the
//! legacy per-k-mer path (hash partitioning, separate Bloom round trip,
//! per-k-mer counting exchange). With `min_count >= 2` both paths produce an
//! identical counts table — the `ablation_supermer` harness relies on this to
//! measure the wire-byte saving with byte-identical assemblies. (With
//! `min_count == 1` *and* `use_bloom`, the per-k-mer path also keeps the
//! singletons its Bloom filter falsely reports as seen; the supermer path
//! keeps none.)

use dht::{DistBloom, DistMap, Partitioner};
use kmers::minimizer::{
    encode_supermer, expand_supermer, kmer_minimizer, minimizer_shard, SupermerBlobIter,
    SupermerIter, MAX_MINIMIZER_LEN,
};
use kmers::{kmers_with_exts_iter, Kmer, KmerCounts};
use pgas::{BlobAggregator, Ctx};
use seqio::{Read, ReadSource};
use std::sync::Arc;

/// The distributed k-mer → counts table produced by analysis.
pub type KmerCountsMap = Arc<DistMap<Kmer, KmerCounts>>;

/// Routes a canonical k-mer to the shard of its canonical minimizer, so that
/// table ownership agrees with supermer routing: every k-mer expanded from a
/// supermer is owned by the rank the supermer was shipped to. Because the
/// canonical minimizer is strand-invariant, the partitioner can be evaluated
/// on canonical keys while senders route read-orientation supermers.
#[derive(Debug, Clone, Copy)]
pub struct MinimizerPartitioner {
    m: usize,
}

impl MinimizerPartitioner {
    /// Creates a partitioner for minimizer length `m`
    /// (`1..=`[`MAX_MINIMIZER_LEN`]).
    pub fn new(m: usize) -> Self {
        assert!(
            (1..=MAX_MINIMIZER_LEN).contains(&m),
            "minimizer length must be in 1..={MAX_MINIMIZER_LEN}, got {m}"
        );
        MinimizerPartitioner { m }
    }

    /// The minimizer length.
    pub fn m(&self) -> usize {
        self.m
    }
}

impl Partitioner<Kmer> for MinimizerPartitioner {
    fn owner_of(&self, key: &Kmer, ranks: usize) -> usize {
        minimizer_shard(kmer_minimizer(key, self.m.min(key.k())), ranks)
    }
}

/// Parameters of k-mer analysis.
#[derive(Debug, Clone)]
pub struct KmerAnalysisParams {
    /// k-mer length (must be odd so no k-mer is its own reverse complement).
    pub k: usize,
    /// Minimum count ε for a k-mer to be kept (the paper uses ε ≈ 2–3).
    pub min_count: u32,
    /// Phred threshold above which an extension base counts as high quality.
    pub hq_threshold: u8,
    /// Whether to keep only k-mers seen at least twice, whatever
    /// `min_count` says. The per-k-mer path decides this with a Bloom-filter
    /// pre-pass; the supermer path counts exactly and applies the threshold
    /// `max(min_count, 2)`.
    pub use_bloom: bool,
    /// Aggregation batch size for the all-to-all exchanges (items for the
    /// per-k-mer path; multiplied by the packed k-mer size to obtain the
    /// supermer path's byte batch).
    pub batch: usize,
    /// Route supermers to minimizer-owned shards (single exchange) instead of
    /// individual k-mers to hash-owned shards (Bloom + counting exchanges).
    pub use_supermers: bool,
    /// Minimizer length m for supermer routing; clamped to
    /// `min(k, `[`MAX_MINIMIZER_LEN`]`)`.
    pub minimizer_len: usize,
}

impl Default for KmerAnalysisParams {
    fn default() -> Self {
        KmerAnalysisParams {
            k: 21,
            min_count: 2,
            hq_threshold: 20,
            use_bloom: true,
            batch: 4096,
            use_supermers: true,
            minimizer_len: 15,
        }
    }
}

impl KmerAnalysisParams {
    /// The effective minimizer length: `minimizer_len` clamped into
    /// `1..=min(k, MAX_MINIMIZER_LEN)`.
    pub fn effective_minimizer_len(&self) -> usize {
        self.minimizer_len.clamp(1, self.k.min(MAX_MINIMIZER_LEN))
    }
}

/// The result of k-mer analysis.
pub struct KmerAnalysis {
    /// Distributed table of canonical k-mers that passed the ε filter.
    pub counts: KmerCountsMap,
}

/// Runs k-mer analysis over this rank's slice of the reads. Collective: every
/// rank must call with its own `reads` slice. Returns the shared distributed
/// counts table (identical `Arc` on every rank).
pub fn kmer_analysis(ctx: &Ctx, reads: &[Read], params: &KmerAnalysisParams) -> KmerAnalysis {
    let mut source: &[Read] = reads;
    kmer_analysis_from(ctx, &mut source, params)
}

/// Runs k-mer analysis over a streaming [`ReadSource`] — the distributed
/// read store's ingest path, where this rank's reads are unpacked one at a
/// time from owned packed blocks instead of living in a replicated slice.
/// Collective: every rank must call with its own source. The result is
/// independent of how reads are distributed over ranks (counts are global
/// sums and admission triggers on the second occurrence wherever it
/// arrives), which is what keeps distributed-read assemblies byte-identical
/// to the replicated baseline.
pub fn kmer_analysis_from(
    ctx: &Ctx,
    source: &mut dyn ReadSource,
    params: &KmerAnalysisParams,
) -> KmerAnalysis {
    assert!(params.k >= 3, "k must be at least 3");
    assert!(
        params.k % 2 == 1,
        "k must be odd so canonical k-mers are unambiguous"
    );
    assert!(params.min_count >= 1);
    if params.use_supermers {
        supermer_analysis(ctx, source, params)
    } else {
        per_kmer_analysis(ctx, source, params)
    }
}

/// Shares a Bloom filter sized from the *global* k-mer estimate: every rank
/// contributes its local estimate to an all-reduce, and each of the `ranks`
/// shards is provisioned for an equal split of the total. Sizing from one
/// rank's local estimate (as the seed did) under-provisions every shard when
/// reads are unevenly distributed, inflating the false-positive rate.
fn shared_bloom(ctx: &Ctx, local_estimate: usize) -> Arc<DistBloom> {
    let global = ctx.allreduce_sum_u64(local_estimate as u64) as usize;
    let expected_per_shard = global / ctx.ranks() + 16;
    ctx.share(|| DistBloom::new(ctx.ranks(), expected_per_shard * 2, 0.01))
}

/// The supermer-routed single-pass analysis: one extraction pass per read,
/// one aggregated shipment per owner, and all per-k-mer work (exact counting
/// into the owner's shard, then the admission threshold) on the receive
/// side.
fn supermer_analysis(
    ctx: &Ctx,
    source: &mut dyn ReadSource,
    params: &KmerAnalysisParams,
) -> KmerAnalysis {
    let k = params.k;
    let m = params.effective_minimizer_len();
    let ranks = ctx.ranks();
    let counts: KmerCountsMap =
        ctx.share(|| DistMap::with_partitioner(ranks, Arc::new(MinimizerPartitioner::new(m))));

    // --- Send side: one streaming supermer pass over this rank's reads ------
    // The byte batch matches the per-k-mer path's message size (batch items of
    // a packed k-mer each) so message counts stay comparable across modes.
    let batch_bytes = params
        .batch
        .saturating_mul(std::mem::size_of::<Kmer>())
        .max(64);
    let mut agg = BlobAggregator::new(ctx, batch_bytes);
    source.for_each_read(&mut |read| {
        for sm in SupermerIter::new(&read.seq, k, m) {
            let dest = minimizer_shard(sm.minimizer, ranks);
            let wrote = agg.push_with(dest, |buf| {
                encode_supermer(buf, &read.seq, &read.qual, params.hq_threshold, &sm)
            });
            ctx.record_supermer_bytes(wrote);
        }
    });
    let blobs = agg.finish();

    // --- Receive side: expansion and exact counting -------------------------
    // Every occurrence of a k-mer arrives here, so the owner counts it
    // exactly straight into its shard and admission is a plain threshold
    // afterwards: with `use_bloom` a k-mer must have been seen at least twice,
    // the rule the per-k-mer path's Bloom pass approximates.
    let threshold = if params.use_bloom {
        params.min_count.max(2)
    } else {
        params.min_count
    };
    let rank = ctx.rank();
    let mut shard = counts.local_view(ctx);
    // By value, so each received blob is freed once it has been expanded.
    for blob in blobs {
        for record in SupermerBlobIter::new(&blob) {
            expand_supermer(&record, k, |obs| {
                debug_assert_eq!(counts.owner_of(&obs.kmer), rank, "misrouted supermer");
                let mut c = KmerCounts::default();
                c.observe(obs.exts);
                shard.merge(obs.kmer, c, |a, b| a.merge(&b));
            });
        }
    }
    drop(shard);
    ctx.barrier();

    counts.retain_local(ctx, |_, v| v.count >= threshold);
    ctx.barrier();

    KmerAnalysis { counts }
}

/// The legacy per-k-mer analysis: a Bloom admission exchange and a counting
/// exchange, each re-extracting the reads. Kept (behind
/// `use_supermers = false`) as the measurable baseline of the supermer
/// ablation and as the fine-grained path of `baselines::RayMetaLike`.
fn per_kmer_analysis(
    ctx: &Ctx,
    source: &mut dyn ReadSource,
    params: &KmerAnalysisParams,
) -> KmerAnalysis {
    let counts: KmerCountsMap = DistMap::shared(ctx);

    // --- Optional pass 1: Bloom admission ------------------------------------
    // The admission set lives on the owner rank: a k-mer is admitted once the
    // Bloom filter has seen it before, i.e. from its second occurrence on.
    let admitted: Option<Arc<DistMap<Kmer, ()>>> = if params.use_bloom {
        let bloom = shared_bloom(ctx, source.estimate_kmers(params.k));
        let admitted: Arc<DistMap<Kmer, ()>> = DistMap::shared(ctx);
        let mut agg: pgas::Aggregator<Kmer> = pgas::Aggregator::new(ctx, params.batch);
        source.for_each_read(&mut |read| {
            for obs in kmers_with_exts_iter(&read.seq, &read.qual, params.k, params.hq_threshold) {
                agg.push(counts.owner_of(&obs.kmer), obs.kmer);
            }
        });
        let mine = agg.finish();
        for kmer in mine {
            if bloom.insert_and_check(ctx, &kmer) {
                admitted.upsert(ctx, kmer, || (), |_| {});
            }
        }
        ctx.barrier();
        Some(admitted)
    } else {
        None
    };

    // --- Pass 2: exact counting with extensions ------------------------------
    // `dht::bulk_merge` inlined around the streaming source (the callback
    // contract cannot hand it a by-value iterator without buffering reads).
    let mut agg: pgas::Aggregator<(Kmer, KmerCounts)> = pgas::Aggregator::new(ctx, params.batch);
    source.for_each_read(&mut |read| {
        for obs in kmers_with_exts_iter(&read.seq, &read.qual, params.k, params.hq_threshold) {
            let mut c = KmerCounts::default();
            c.observe(obs.exts);
            agg.push(counts.owner_of(&obs.kmer), (obs.kmer, c));
        }
    });
    let mine = agg.finish();
    counts.apply_local_batch(ctx, mine, |v| v, |a, b| a.merge(&b));
    ctx.barrier();

    // --- Filtering: Bloom admission and the ε depth cutoff -------------------
    if let Some(admitted) = &admitted {
        counts.retain_local(ctx, |k, _| {
            // `contains` on a key this rank owns is a purely local check.
            admitted.contains(ctx, k)
        });
    }
    counts.retain_local(ctx, |_, v| v.count >= params.min_count);
    ctx.barrier();

    KmerAnalysis { counts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas::Team;
    use seqio::Read;

    fn reads_from(seqs: &[&str]) -> Vec<Read> {
        seqs.iter()
            .enumerate()
            .map(|(i, s)| Read::with_uniform_quality(format!("r{i}"), s.as_bytes(), 35))
            .collect()
    }

    /// Partition reads across ranks the way the pipeline does.
    fn my_slice<'a>(ctx: &Ctx, reads: &'a [Read]) -> &'a [Read] {
        let range = ctx.block_range(reads.len());
        &reads[range]
    }

    /// Every analysis test runs both routing modes.
    fn both_modes(base: KmerAnalysisParams) -> [KmerAnalysisParams; 2] {
        let mut supermer = base.clone();
        supermer.use_supermers = true;
        let mut per_kmer = base;
        per_kmer.use_supermers = false;
        [supermer, per_kmer]
    }

    #[test]
    fn counts_match_naive_counting() {
        // 3 identical reads: every k-mer appears 3 times.
        let reads = reads_from(&["ACGTACGGTTCAGGCA"; 3]);
        let team = Team::single_node(2);
        let k = 7;
        for params in both_modes(KmerAnalysisParams {
            k,
            min_count: 2,
            use_bloom: false,
            ..Default::default()
        }) {
            let reads = &reads;
            let params = &params;
            let out = team.run(move |ctx| {
                let mine = my_slice(ctx, reads);
                let res = kmer_analysis(ctx, mine, params);
                ctx.barrier();
                (res.counts.len(), {
                    let mut all = Vec::new();
                    res.counts.for_each_local(ctx, |_, v| all.push(v.count));
                    all
                })
            });
            let expected_kmers = 16 - k + 1;
            assert_eq!(out[0].0, expected_kmers);
            let counts: Vec<u32> = out.iter().flat_map(|(_, c)| c.clone()).collect();
            assert_eq!(counts.len(), expected_kmers);
            assert!(counts.iter().all(|&c| c == 3));
        }
    }

    #[test]
    fn min_count_filters_singletons() {
        // One read seen twice plus one singleton read: the singleton's unique
        // k-mers must be filtered out by ε = 2.
        let mut reads = reads_from(&["ACGTACGGTTCAGGCAT", "ACGTACGGTTCAGGCAT"]);
        reads.extend(reads_from(&["GGGGGCCCCCAAAAATTTTT"]));
        let team = Team::single_node(2);
        for params in both_modes(KmerAnalysisParams {
            k: 9,
            min_count: 2,
            use_bloom: false,
            ..Default::default()
        }) {
            let reads = &reads;
            let params = &params;
            let total = team.run(move |ctx| {
                let mine = my_slice(ctx, reads);
                let res = kmer_analysis(ctx, mine, params);
                ctx.barrier();
                res.counts.len()
            });
            // The duplicated read contributes 17-9+1 = 9 distinct canonical
            // k-mers. Two of the singleton read's windows happen to be
            // canonical pairs of each other (GGGGGCCCC/GGGGCCCCC and
            // AAAAATTTT/AAAATTTTT), so those two canonical k-mers reach count
            // 2 within a single read and survive the ε filter as well.
            assert_eq!(total[0], 9 + 2);
        }
    }

    #[test]
    fn bloom_prepass_gives_same_result_as_exact_for_repeated_kmers() {
        let reads = reads_from(&["ACGTACGGTTCAGGCATTACG"; 4]);
        let team = Team::single_node(3);
        for use_supermers in [true, false] {
            let run = |use_bloom: bool| {
                let reads = &reads;
                team.run(move |ctx| {
                    let params = KmerAnalysisParams {
                        k: 11,
                        min_count: 2,
                        use_bloom,
                        use_supermers,
                        ..Default::default()
                    };
                    let res = kmer_analysis(ctx, my_slice(ctx, reads), &params);
                    ctx.barrier();
                    res.counts.len()
                })[0]
            };
            let (with_bloom, without_bloom) = (run(true), run(false));
            assert_eq!(with_bloom, without_bloom);
            assert_eq!(with_bloom, 21 - 11 + 1);
        }

        // With singletons in the input, the supermer path's admission is the
        // exact rule: `use_bloom` at ε = 1 keeps precisely what ε = 2 keeps,
        // down to counts and extension tallies, at every team width.
        let reads = reads_from(&[
            "ACGTACGGTTCAGGCATTACGGATCCAGTT",
            "ACGTACGGTTCAGGCATTACGGATCCAGTT",
            "TTGACCGGATNACCAGGTTCCAGGAACCTT",
            "TTGACCGGATAACCAGGTTCCAGGAACCTT",
            "GGGGGCCCCCAAAAATTTTTGGGGGCCCCC",
            "CATGCATGCCGTAGGCTAGCTTAGCGGATA",
        ]);
        for ranks in 1..=8 {
            let table = |use_bloom: bool, min_count: u32| {
                let reads = &reads;
                let mut all: Vec<(Kmer, KmerCounts)> = Team::single_node(ranks)
                    .run(move |ctx| {
                        let params = KmerAnalysisParams {
                            k: 11,
                            min_count,
                            use_bloom,
                            use_supermers: true,
                            ..Default::default()
                        };
                        let res = kmer_analysis(ctx, my_slice(ctx, reads), &params);
                        ctx.barrier();
                        res.counts.local_entries(ctx)
                    })
                    .into_iter()
                    .flatten()
                    .collect();
                all.sort_by_key(|a| a.0);
                all
            };
            let admitted = table(true, 1);
            assert!(!admitted.is_empty());
            assert!(admitted.iter().all(|(_, c)| c.count >= 2));
            assert!(
                table(false, 1).len() > admitted.len(),
                "the input must contain singletons"
            );
            assert_eq!(admitted, table(false, 2), "ranks={ranks}");
        }
    }

    #[test]
    fn extensions_recorded_for_interior_kmers() {
        let reads = reads_from(&["AAACCCGGGTTTACG"; 2]);
        let team = Team::single_node(1);
        for params in both_modes(KmerAnalysisParams {
            k: 5,
            min_count: 2,
            use_bloom: false,
            ..Default::default()
        }) {
            let reads = &reads;
            let params = &params;
            team.run(move |ctx| {
                let res = kmer_analysis(ctx, reads, params);
                // Interior k-mer CCCGG; its reverse complement CCGGG also
                // occurs in the read, so the canonical entry is observed twice
                // per read.
                let km: Kmer = "CCCGG".parse().unwrap();
                let (canon, _) = km.canonical();
                let entry = res
                    .counts
                    .get_cloned(ctx, &canon)
                    .expect("interior k-mer present");
                assert_eq!(entry.count, 4);
                assert!(entry.left.total() > 0);
                assert!(entry.right.total() > 0);
            });
        }
    }

    #[test]
    fn supermer_and_per_kmer_tables_are_identical_with_bloom() {
        // Bloom on, ε = 2: admission is deterministic for every surviving
        // k-mer, so the two routing modes must agree exactly — including
        // counts and extension tallies.
        let reads = reads_from(&[
            "ACGTACGGTTCAGGCATTACGGATCCAGTT",
            "ACGTACGGTTCAGGCATTACGGATCCAGTT",
            "TTGACCGGATNACCAGGTTCCAGGAACCTT",
            "TTGACCGGATAACCAGGTTCCAGGAACCTT",
            "GGGGGCCCCCAAAAATTTTTGGGGGCCCCC",
        ]);
        let collect = |use_supermers: bool| {
            let team = Team::single_node(3);
            let reads = &reads;
            let mut all: Vec<(Kmer, KmerCounts)> = team
                .run(move |ctx| {
                    let params = KmerAnalysisParams {
                        k: 11,
                        min_count: 2,
                        use_bloom: true,
                        use_supermers,
                        ..Default::default()
                    };
                    let res = kmer_analysis(ctx, my_slice(ctx, reads), &params);
                    ctx.barrier();
                    res.counts.local_entries(ctx)
                })
                .into_iter()
                .flatten()
                .collect();
            all.sort_by_key(|a| a.0);
            all
        };
        let supermer = collect(true);
        let per_kmer = collect(false);
        assert!(!supermer.is_empty());
        assert_eq!(supermer, per_kmer);
    }

    #[test]
    fn supermer_mode_ships_fewer_bytes() {
        let seq: String = (0..400)
            .map(|i| ['A', 'C', 'G', 'T'][((i * 2654435761usize) >> 5) % 4])
            .collect();
        let reads = reads_from(&[seq.as_str(); 6]);
        let bytes_for = |use_supermers: bool| {
            let team = Team::single_node(4);
            let reads = &reads;
            team.run(move |ctx| {
                let params = KmerAnalysisParams {
                    k: 21,
                    min_count: 2,
                    use_bloom: true,
                    use_supermers,
                    ..Default::default()
                };
                let _ = kmer_analysis(ctx, my_slice(ctx, reads), &params);
            });
            team.stats_total()
        };
        let supermer = bytes_for(true);
        let per_kmer = bytes_for(false);
        assert!(
            supermer.bytes_sent * 4 < per_kmer.bytes_sent,
            "supermer routing must cut k-mer analysis bytes >=4x: {} vs {}",
            supermer.bytes_sent,
            per_kmer.bytes_sent
        );
        assert!(supermer.supermer_bytes > 0);
        assert!(supermer.supermer_bytes <= supermer.bytes_sent);
        assert_eq!(per_kmer.supermer_bytes, 0);
    }

    #[test]
    #[should_panic]
    fn even_k_rejected() {
        let team = Team::single_node(1);
        team.run(|ctx| {
            let params = KmerAnalysisParams {
                k: 10,
                ..Default::default()
            };
            let _ = kmer_analysis(ctx, &[], &params);
        });
    }
}
