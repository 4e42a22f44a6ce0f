//! The traced replay: `MetaHipMer::assemble_rank`'s stage sequence, called
//! through the same public functions in the same order, with a span around
//! each call. Stage spans carry the names `AssemblyOutput::stages` uses so
//! the two can be cross-checked; layer spans nest inside them.
//!
//! The replay covers the default configuration only (distributed reads and
//! contigs, every pass on, no checkpointing); [`check_config`] refuses any
//! other. If the pipeline changes its stage sequence, the replay's scaffold
//! digest or its stage sums stop matching the untraced runs and the
//! benchmark fails instead of measuring a different program.

use crate::trace::{Recorder, Span};
use aligner::{
    align_reads_ref, build_seed_index_ref, localize_pairs, AlignParams, AlignmentSet,
    ReadDistribution,
};
use dbg::{
    build_graph, inject_contig_kmers_ref, kmer_analysis_from, merge_bubbles_and_remove_hair,
    prune_iteratively, traverse_contigs, ContigStore, ContigsRef,
};
use mhm_core::local_assembly::extend_contigs_locally_ref;
use mhm_core::{AssemblyConfig, MetaHipMer};
use pgas::{Ctx, Team};
use readstore::{ReadStore, ReadsRef};
use rrna_hmm::RrnaDetector;
use scaffolding::{build_links_ref, close_gaps_ref, traverse_contig_graph_ref};
use seqio::{ReadId, ReadLibrary};
use std::sync::Arc;
use std::time::Instant;

/// Names of the spans that mirror `AssemblyOutput::stages` entries.
pub const STAGES: [&str; 9] = [
    "read_ingestion",
    "kmer_analysis",
    "kmer_merging",
    "graph_traversal",
    "bubble_pruning",
    "alignment",
    "local_assembly",
    "read_localization",
    "scaffolding",
];

/// The extra span around the benchmark's own rRNA scan. The scan inside
/// `traverse_contig_graph_ref` cannot be timed from outside, so the replay
/// repeats it after the scaffolding stage; it is excluded from the traced
/// total because the program does not run it twice.
pub const RRNA_SCAN: &str = "rrna_hmm.scan";

/// Refuses configurations the replay does not follow.
pub fn check_config(cfg: &AssemblyConfig) -> Result<(), String> {
    let follows = cfg.use_distributed_reads
        && cfg.use_distributed_contigs
        && cfg.bubble_merging
        && cfg.pruning
        && cfg.local_assembly
        && cfg.read_localization
        && cfg.scaffolding
        && cfg.checkpoint_dir.is_none()
        && !cfg.resume;
    if follows {
        Ok(())
    } else {
        Err("the traced replay follows only the default pipeline configuration".into())
    }
}

/// What the replay returns besides its spans.
pub struct Replay {
    /// Per-rank span lists.
    pub spans: Vec<Vec<Span>>,
    pub scaffolds: Vec<Vec<u8>>,
    /// Per-rank barriers entered between the first and last replayed stage.
    pub barriers: Vec<u64>,
    /// Per-rank peak read / contig bytes resident (running maxima).
    pub read_resident: Vec<u64>,
    pub contig_resident: Vec<u64>,
    /// Wall seconds of the replayed stages on the team, excluding the
    /// benchmark's own rRNA scan.
    pub total_s: f64,
}

/// Runs the traced replay on `team`.
pub fn replay(
    team: &Arc<Team>,
    mhm: &MetaHipMer,
    library: &ReadLibrary,
    rrna_consensus: Option<&[u8]>,
) -> Replay {
    let detector = rrna_consensus
        .filter(|c| !c.is_empty())
        .map(RrnaDetector::from_consensus);
    team.set_hierarchical_exchange(mhm.config.use_hierarchical_exchange);
    let epoch = Instant::now();
    let per_rank = team.run(|ctx| {
        let mut rec = Recorder::new(Some(ctx), epoch);
        let barriers_before = ctx.barriers_entered();
        let scaffolds = replay_rank(&mut rec, mhm, library, detector.as_ref());
        let barriers = ctx.barriers_entered() - barriers_before;
        let stats = ctx.stats().snapshot();
        (
            rec.into_spans(),
            scaffolds,
            barriers,
            stats.read_bytes_resident,
            stats.contig_bytes_resident,
        )
    });
    let wall_ns = epoch.elapsed().as_nanos() as u64;
    let scan_ns = per_rank
        .iter()
        .flat_map(|r| r.0.iter().filter(|s| s.name == RRNA_SCAN))
        .map(Span::duration_ns)
        .max()
        .unwrap_or(0);
    let mut out = Replay {
        spans: Vec::new(),
        scaffolds: Vec::new(),
        barriers: Vec::new(),
        read_resident: Vec::new(),
        contig_resident: Vec::new(),
        total_s: (wall_ns - scan_ns) as f64 * 1e-9,
    };
    for (rank, (spans, scaffolds, barriers, reads, contigs)) in per_rank.into_iter().enumerate() {
        if rank == 0 {
            out.scaffolds = scaffolds;
        }
        out.spans.push(spans);
        out.barriers.push(barriers);
        out.read_resident.push(reads);
        out.contig_resident.push(contigs);
    }
    out
}

/// Seed index, barrier, alignment: `ReadsHolder::align` of the pipeline.
fn align(
    rec: &mut Recorder,
    ctx: &Ctx,
    reads: &ReadStore,
    ids: Vec<ReadId>,
    contigs: ContigsRef<'_>,
    params: &AlignParams,
) -> AlignmentSet {
    let index = rec.span("aligner.seed_index", |_| {
        build_seed_index_ref(ctx, contigs, params.seed_len)
    });
    ctx.barrier();
    rec.span("aligner.align", |rec| {
        rec.note("reads", ids.len() as u64);
        let set = align_reads_ref(ctx, reads.stream(ctx, ids), contigs, &index, params);
        rec.note("alignments", set.alignments.len() as u64);
        set
    })
}

/// One rank's replay; returns the scaffold sequences.
fn replay_rank(
    rec: &mut Recorder,
    mhm: &MetaHipMer,
    library: &ReadLibrary,
    rrna: Option<&RrnaDetector>,
) -> Vec<Vec<u8>> {
    let ctx = rec
        .ctx()
        .expect("replay spans are recorded inside the team");
    let cfg = &mhm.config;
    assert!(library.paired, "the replay follows the paired-library path");
    let num_pairs = library.num_pairs();
    let mut distribution = ReadDistribution::block(num_pairs, ctx.ranks());
    let mut contigs: Option<Arc<ContigStore>> = None;

    let reads = rec.span("read_ingestion", |rec| {
        rec.span("readstore.build", |_| {
            ReadStore::build(ctx, library, &cfg.read_store_params())
        })
    });

    let k_values = cfg.k_values();
    for (iter, &k) in k_values.iter().enumerate() {
        let my_read_ids = distribution.read_ids_of(ctx.rank());

        let analysis = rec.span("kmer_analysis", |rec| {
            rec.span("dbg.kmer_analysis", |_| {
                let mut source = reads.owned_reads(ctx);
                kmer_analysis_from(ctx, &mut source, &cfg.analysis_params(k))
            })
        });

        if let Some(prev) = &contigs {
            rec.span("kmer_merging", |rec| {
                rec.span("dbg.kmer_merging", |_| {
                    inject_contig_kmers_ref(
                        ctx,
                        &analysis.counts,
                        ContigsRef::Store(prev),
                        k,
                        cfg.min_kmer_count,
                    )
                })
            });
        }

        let (graph, traversed) = rec.span("graph_traversal", |rec| {
            let graph = rec.span("dbg.build_graph", |_| {
                build_graph(ctx, &analysis.counts, cfg.threshold)
            });
            let set = rec.span("dbg.traverse", |_| {
                traverse_contigs(ctx, &graph, k, &cfg.traversal_params())
            });
            (graph, set)
        });

        let cleaned = rec.span("bubble_pruning", |rec| {
            let current = rec.span("dbg.bubble_prune", |rec| {
                let mut current = traversed;
                current = merge_bubbles_and_remove_hair(ctx, &current, &graph, &cfg.bubble).0;
                current = prune_iteratively(ctx, &current, &graph, &cfg.prune).0;
                if ctx.rank() == 0 {
                    rec.note("contigs", current.contigs.len() as u64);
                }
                current
            });
            rec.span("dbg.contig_store_build", |_| {
                ContigStore::build(ctx, &current, &cfg.contig_store_params())
            })
        });

        let alignments = rec.span("alignment", |rec| {
            align(
                rec,
                ctx,
                &reads,
                my_read_ids,
                ContigsRef::Store(&cleaned),
                &cfg.align,
            )
        });

        let is_last = iter + 1 == k_values.len();
        let extended = rec.span("local_assembly", |rec| {
            let set = rec.span("local_assembly.extend", |rec| {
                let (set, work) = extend_contigs_locally_ref(
                    ctx,
                    ContigsRef::Store(&cleaned),
                    &alignments,
                    ReadsRef::Store(&reads),
                    &cfg.local,
                );
                rec.note("contigs", work as u64);
                let added = set.total_bases().saturating_sub(cleaned.total_bases());
                // Bases are global; note them once so the sum over ranks holds.
                if ctx.rank() == 0 {
                    rec.note("bases_added", added as u64);
                }
                set
            });
            rec.span("dbg.contig_store_build", |_| {
                ContigStore::build(ctx, &set, &cfg.contig_store_params())
            })
        });

        if !is_last {
            distribution = rec.span("read_localization", |rec| {
                rec.span("aligner.localize", |_| {
                    localize_pairs(ctx, num_pairs, &alignments.alignments)
                })
            });
        }
        contigs = Some(extended);
    }

    let final_contigs = contigs.expect("the k schedule is never empty");
    assert!(
        !final_contigs.is_empty(),
        "the replay follows the scaffolding path, which needs contigs"
    );
    let scaffolds = rec.span("scaffolding", |rec| {
        let contigs = ContigsRef::Store(&final_contigs);
        let alignments = rec.span("scaffolding.realign", |_| {
            let ids = distribution.read_ids_of(ctx.rank());
            let index = build_seed_index_ref(ctx, contigs, cfg.align.seed_len);
            ctx.barrier();
            align_reads_ref(ctx, reads.stream(ctx, ids), contigs, &index, &cfg.align)
        });
        let links = rec.span("scaffolding.links", |rec| {
            let links = build_links_ref(
                ctx,
                contigs,
                &alignments,
                ReadsRef::Store(&reads),
                &cfg.scaffold.links,
            );
            if ctx.rank() == 0 {
                rec.note("links", links.links.len() as u64);
            }
            links
        });
        let gapped = rec.span("scaffolding.traverse", |_| {
            traverse_contig_graph_ref(ctx, contigs, &links, rrna, &cfg.scaffold.traversal)
        });
        rec.span("scaffolding.gap_close", |rec| {
            let (set, report) =
                close_gaps_ref(ctx, contigs, gapped, &links, &cfg.scaffold.gap_closing);
            if ctx.rank() == 0 {
                let closed = report.closed_by_overlap + report.closed_by_suspended;
                rec.note("gaps_closed", closed as u64);
                rec.note("gaps_total", report.gaps_total as u64);
            }
            set
        })
    });

    if let Some(detector) = rrna {
        let min_len = cfg.scaffold.traversal.rrna_min_len;
        rec.span(RRNA_SCAN, |rec| {
            let (mut cells, mut hits) = (0u64, 0u64);
            final_contigs.map().for_each_local(ctx, |_, packed| {
                if packed.len() >= min_len {
                    // `is_hit` scores only sequences of at least the
                    // detector's own minimum length, on both strands.
                    if packed.len() >= detector.min_len {
                        cells += (packed.len() * detector.hmm.len() * 2) as u64;
                    }
                    hits += detector.is_hit(&packed.unpack()) as u64;
                }
            });
            rec.note("cells", cells);
            rec.note("hits", hits);
        });
    }

    scaffolds.sequences()
}
