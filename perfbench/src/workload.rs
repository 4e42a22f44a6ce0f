//! The benchmark's workloads: how each input is generated from the seed, and
//! how many ranks assemble it. See `perfbench/README.md` for why each exists.
//!
//! Each workload's community is fixed; the seed draws the reads. A fresh
//! community per seed would change the work itself (run time over wetlands
//! communities varies by half from seed to seed), while fresh reads of one
//! community change the input but not how much work it asks for.

use mgsim::{CommunityParams, ReadSimParams, SimDataset};

/// Seed of both workloads' communities.
const COMMUNITY_SEED: u64 = 20260614;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `mgsim::wetlands_sim(3, seed)` at 1 rank: diverse, uneven, ~7×
    /// coverage; many short contigs, with the rRNA model.
    Wetlands1r,
    /// The same input at 2 ranks: sharded stores, caches and real traffic.
    Wetlands2r,
    /// Six near-evenly abundant 25 kbp genomes at 30× and no rRNA model:
    /// k-mer analysis dominates and the rRNA HMM does no work.
    Deep1r,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Wetlands1r, Workload::Wetlands2r, Workload::Deep1r];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Wetlands1r => "wetlands-1r",
            Workload::Wetlands2r => "wetlands-2r",
            Workload::Deep1r => "deep-1r",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn ranks(self) -> usize {
        match self {
            Workload::Wetlands2r => 2,
            Workload::Wetlands1r | Workload::Deep1r => 1,
        }
    }

    /// Whether the assembly is given the community's rRNA consensus.
    pub fn uses_rrna_model(self) -> bool {
        self != Workload::Deep1r
    }

    /// Generates the workload's input (reads, references, rRNA consensus).
    pub fn generate(self, seed: u64) -> SimDataset {
        let (community, reads) = match self {
            // `mgsim::wetlands_sim(3, _)`'s community and reads, with the
            // community seed held fixed.
            Workload::Wetlands1r | Workload::Wetlands2r => (
                CommunityParams {
                    num_taxa: 28,
                    genome_len_range: (10_000, 25_000),
                    abundance_sigma: 1.8,
                    strain_variants: 3,
                    strain_snp_rate: 0.012,
                    rrna_len: 400,
                    rrna_divergence: 0.03,
                    repeats_per_genome: 3,
                    repeat_len: 300,
                    rare_taxon_abundance: None,
                    seed: COMMUNITY_SEED,
                },
                ReadSimParams {
                    read_len: 100,
                    insert_size: 280,
                    insert_sd: 30,
                    error_rate: 0.008,
                    num_pairs: 18_000,
                    seed: seed.wrapping_add(3),
                    ..Default::default()
                },
            ),
            // Six genomes of 20–30 kbp, near-even abundance, no strains,
            // 30× in 2×100 bp pairs (24 056 pairs for this community).
            Workload::Deep1r => (
                CommunityParams {
                    num_taxa: 6,
                    genome_len_range: (20_000, 30_000),
                    abundance_sigma: 0.3,
                    strain_variants: 0,
                    seed: COMMUNITY_SEED,
                    ..Default::default()
                },
                ReadSimParams {
                    read_len: 100,
                    error_rate: 0.005,
                    seed: seed.wrapping_add(1),
                    ..Default::default()
                },
            ),
        };
        let (refs, rrna_consensus) = mgsim::generate_community(&community);
        let reads = if self == Workload::Deep1r {
            reads.with_target_coverage(&refs, 30.0)
        } else {
            reads
        };
        SimDataset {
            library: mgsim::simulate_reads(&refs, &reads),
            refs,
            rrna_consensus,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("wetlands-4r"), None);
    }

    /// At the community seed the wetlands input is exactly the
    /// `wetlands_sim` preset's, so the two cannot drift apart unnoticed.
    #[test]
    fn wetlands_input_is_the_preset_at_the_community_seed() {
        let ours = Workload::Wetlands1r.generate(COMMUNITY_SEED);
        let preset = mgsim::wetlands_sim(3, COMMUNITY_SEED);
        assert_eq!(ours.rrna_consensus, preset.rrna_consensus);
        assert_eq!(ours.refs.total_bases(), preset.refs.total_bases());
        assert_eq!(ours.library.num_reads(), preset.library.num_reads());
        let seqs = |ds: &SimDataset| -> Vec<Vec<u8>> {
            ds.library.reads.iter().map(|r| r.seq.clone()).collect()
        };
        assert_eq!(seqs(&ours), seqs(&preset));
    }

    #[test]
    fn the_seed_draws_new_reads_of_the_same_community() {
        for w in [Workload::Wetlands1r, Workload::Deep1r] {
            let (a, b) = (w.generate(1), w.generate(2));
            assert_eq!(a.refs.total_bases(), b.refs.total_bases());
            assert_eq!(a.library.num_reads(), b.library.num_reads());
            assert_ne!(a.library.reads[0].seq, b.library.reads[0].seq);
            assert_eq!(w.generate(1).library.reads[7].seq, a.library.reads[7].seq);
        }
    }
}
