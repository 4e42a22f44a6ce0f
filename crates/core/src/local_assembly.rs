//! Local assembly: mer-walking contig extension with dynamic work stealing
//! (§II-G).
//!
//! For every contig, the reads that align near its ends (plus mates of
//! aligned reads that themselves did not align to it, projected outward by
//! the library insert size) are gathered into a local pool. The contig end is
//! then extended base by base: every occurrence of the last `m` assembled
//! bases in a pool read votes for the base that follows it. A
//! unanimous-enough vote extends the contig; a conflicted vote *upshifts* the
//! mer size `m` (more context disambiguates repeats); no votes *downshift* it
//! (less context rescues thin coverage). The walk terminates when it
//! encounters a fork after downshifting or a dead end after upshifting, as in
//! the paper.
//!
//! Votes are looked up, not searched for. Each pool position is encoded once
//! into a `u128` holding the 2-bit codes of the bases that start there, and the
//! codes are sorted: for every mer size `m`, the occurrences of a context are
//! then one contiguous range of that table, found by binary search, whose
//! entries point at the bases that follow them. The same table serves both
//! ends of a contig: a left-end vote is the complement of the base *before*
//! an occurrence of the reverse-complemented context.
//!
//! Because the cost of a walk is unpredictable, contigs are dealt to ranks in
//! blocks through the shared atomic counter of [`pgas::DynamicBlocks`].

use aligner::AlignmentSet;
use dbg::{ContigSet, ContigsRef};
use dht::{bulk_merge, DistMap, FxHashMap, FxHashSet};
use pgas::{Ctx, DynamicBlocks};
use readstore::ReadsRef;
use seqio::alphabet::{
    complement, decode_base, encode_base, is_valid_base, revcomp, revcomp_in_place,
};
use seqio::{ReadId, ReadLibrary};
use std::sync::Arc;

/// Parameters of local assembly.
#[derive(Debug, Clone, Copy)]
pub struct LocalAssemblyParams {
    /// Initial mer size used for walking.
    pub mer_size: usize,
    /// Step L by which the mer size is shifted up/down.
    pub shift: usize,
    /// Smallest mer size before a downshift terminates the walk.
    pub min_mer: usize,
    /// Largest mer size before an upshift terminates the walk. Mer sizes lie
    /// in `1..=45`, the widest window a packed vote-table entry holds.
    pub max_mer: usize,
    /// Minimum votes for an extension base to be accepted.
    pub min_votes: usize,
    /// Maximum number of contradicting votes tolerated for an extension.
    pub max_contradictions: usize,
    /// Maximum bases added per contig end (safety bound).
    pub max_extension: usize,
    /// Reads whose alignment ends within this distance of a contig end (or
    /// whose projected mate lands beyond it) join the end's read pool.
    pub end_window: usize,
    /// Work-stealing block size (contigs per grab).
    pub block_size: usize,
    /// Aggregated-lookup batch size for pool-table fetches: `> 1` fetches a
    /// grabbed block's pools in one aggregated message pair per owner instead
    /// of one fine-grained read per contig; `1` keeps the per-contig reads.
    pub lookup_batch: usize,
}

impl Default for LocalAssemblyParams {
    fn default() -> Self {
        LocalAssemblyParams {
            mer_size: 19,
            shift: 4,
            min_mer: 11,
            max_mer: 33,
            min_votes: 2,
            max_contradictions: 1,
            max_extension: 400,
            end_window: 150,
            block_size: 16,
            lookup_batch: 4096,
        }
    }
}

/// Extends every contig of a replicated set at both ends. Collective.
pub fn extend_contigs_locally(
    ctx: &Ctx,
    contigs: &ContigSet,
    alignments: &AlignmentSet,
    library: &ReadLibrary,
    params: &LocalAssemblyParams,
) -> (ContigSet, usize) {
    extend_contigs_locally_ref(
        ctx,
        ContigsRef::Local(contigs),
        alignments,
        ReadsRef::Local(library),
        params,
    )
}

/// Extends every contig at both ends using locally gathered reads. Collective.
/// Returns the extended contig set (identical on every rank) and the per-rank
/// number of contigs processed (the Figure-5 load-balance signal).
///
/// Against the distributed contig store, a grabbed block's contig sequences
/// travel in the same kind of *one-sided* aggregated batch as its read pools
/// ([`dbg::ContigReader::get_many_onesided`]) — the steal loop cannot reach a
/// collective in lockstep — so the walks themselves stay communication-free.
///
/// Against the distributed *read* store, pool membership is decided from the
/// replicated length table alone; the sequences of pool members (aligned
/// reads near contig ends plus their projected mates) are then fetched in one
/// collective aggregated round before the steal loop starts, so the loop
/// itself touches no read storage.
pub fn extend_contigs_locally_ref(
    ctx: &Ctx,
    contigs: ContigsRef<'_>,
    alignments: &AlignmentSet,
    reads: ReadsRef<'_>,
    params: &LocalAssemblyParams,
) -> (ContigSet, usize) {
    let entries = pool_entries(contigs, alignments, reads, params);

    // ---- Fetch pool member sequences, then build the pools ------------------
    // Distributed read store: one collective aggregated fetch for every pool
    // member this rank named (block-deduplicated); the replicated baseline
    // borrows straight from the library. Collective — every rank reaches this
    // point with its own (possibly empty) id set.
    let fetched: FxHashMap<ReadId, seqio::Read> = match reads {
        ReadsRef::Local(_) => FxHashMap::default(),
        ReadsRef::Store(store) => {
            let ids: Vec<ReadId> = entries.iter().map(|&(_, id, _)| id).collect();
            store.reader(ctx).fetch_reads(ctx, &ids, false)
        }
    };
    let seq_of = |id: ReadId| -> &[u8] {
        match reads {
            ReadsRef::Local(lib) => &lib.read(id).seq,
            ReadsRef::Store(_) => &fetched.get(&id).expect("pool read fetched").seq,
        }
    };
    let mut pools: FxHashMap<u64, Vec<Vec<u8>>> = FxHashMap::default();
    for &(contig, id, forward) in &entries {
        pools
            .entry(contig)
            .or_default()
            .push(oriented_seq(seq_of(id), forward));
    }
    drop(entries);

    // ---- Store each contig's read pool in a global hash table ----------------
    // "Each thread reads a portion of the reads file, and stores the reads into
    // a global hash table. Then each thread processes a local subset of
    // contigs, and extracts the reads relevant to each contig to local
    // storage." (§II-G). The pool table is a distributed hash table populated
    // with the usual aggregated update-only phase.
    let ranks = ctx.ranks();
    let pool_table: Arc<DistMap<u64, Vec<Vec<u8>>>> = DistMap::shared(ctx);
    bulk_merge(ctx, &pool_table, pools, 1024, |a, mut b| a.append(&mut b));

    // ---- Walk contigs with dynamic work stealing ----------------------------
    // Once a contig's reads are extracted to local storage the walk itself
    // needs no communication; blocks of contigs are grabbed through the shared
    // atomic counter so ranks with cheap walks steal from slower ones. A
    // grabbed block's read pools — and, with a distributed contig store, its
    // contig sequences — are fetched with one *one-sided* aggregated batch
    // per block (the steal loop cannot reach a collective in lockstep, so the
    // two-sided `get_many` is not usable here) instead of one fine-grained
    // read per contig.
    let blocks = ctx.share(|| DynamicBlocks::new(contigs.num_contigs(), params.block_size));
    let mut reader = contigs.store().map(|s| s.reader(ctx));
    let mut extended_local: Vec<(u64, Vec<u8>, f64)> = Vec::new();
    let mut processed = 0usize;
    let mut first = true;
    while let Some(range) = blocks.next_block(ctx, first) {
        first = false;
        // Contig ids are dense (`ContigSet::from_sequences` numbers them
        // 0..n in order), so the block range is the id range.
        let ids: Vec<u64> = range.clone().map(|idx| idx as u64).collect();
        let pools: Vec<Option<Vec<Vec<u8>>>> = if params.lookup_batch > 1 {
            pool_table.get_many_onesided(ctx, &ids)
        } else {
            ids.iter()
                .map(|id| pool_table.get_cloned(ctx, id))
                .collect()
        };
        let block_seqs: Option<Vec<Vec<u8>>> = reader.as_mut().map(|reader| {
            let fetched = if params.lookup_batch > 1 {
                reader.get_many_onesided(ctx, &ids)
            } else {
                ids.iter().map(|id| reader.get(ctx, *id)).collect()
            };
            fetched
                .into_iter()
                .map(|p| p.expect("contig present in store").unpack())
                .collect()
        });
        for ((j, idx), pool) in range.enumerate().zip(pools) {
            let id = idx as u64;
            processed += 1;
            let pool = pool.unwrap_or_default();
            let seq: &[u8] = match (&contigs, &block_seqs) {
                (ContigsRef::Local(set), _) => &set.contigs[idx].seq,
                (ContigsRef::Store(_), Some(seqs)) => &seqs[j],
                (ContigsRef::Store(_), None) => unreachable!("store sources fetch blocks"),
            };
            let depth = contigs.depth_of(id).expect("contig exists");
            let new_seq = extend_one(seq, &pool, params);
            extended_local.push((id, new_seq, depth));
        }
    }
    ctx.barrier();

    // ---- Gather the extended contigs into a new deterministic set ------------
    let mut out: Vec<Vec<(u64, Vec<u8>, f64)>> = vec![Vec::new(); ranks];
    out[0] = extended_local;
    let gathered = ctx.exchange(out);
    let set = if ctx.rank() == 0 {
        ContigSet::from_sequences(
            contigs.k(),
            gathered
                .into_iter()
                .map(|(_, seq, depth)| (seq, depth))
                .collect(),
        )
    } else {
        ContigSet::new(contigs.k())
    };
    (ctx.broadcast(|| set), processed)
}

/// Decides pool membership from metadata only. Each entry is one pool push:
/// (contig, read id, orientation). Entries are recorded in alignment order
/// before any sequence bytes move, so pools come out deterministic and
/// identical whichever store backs the contigs and reads.
fn pool_entries(
    contigs: ContigsRef<'_>,
    alignments: &AlignmentSet,
    reads: ReadsRef<'_>,
    params: &LocalAssemblyParams,
) -> Vec<(u64, ReadId, bool)> {
    // (read, contig) pairs that aligned: a mate in this set lies inside that
    // contig, not in its flank, so it is not projected onto it.
    let aligned: FxHashSet<(ReadId, u64)> = alignments
        .alignments
        .iter()
        .map(|a| (a.read_id, a.contig))
        .collect();
    let mut entries = Vec::new();
    for a in &alignments.alignments {
        let Some(contig_len) = contigs.len_of(a.contig) else {
            continue;
        };
        let read_len = reads.len_of(a.read_id);
        let near_head = a.contig_offset < params.end_window as i64;
        let near_tail =
            a.contig_offset + read_len as i64 > contig_len as i64 - params.end_window as i64;
        if !(near_head || near_tail) {
            continue;
        }
        entries.push((a.contig, a.read_id, a.forward));
        // Project the unaligned mate outward: if the mate did not align to this
        // contig it likely lies in the unassembled flank, so add it (in the
        // orientation implied by the library) to the pool as well. Unpaired
        // libraries have no mates.
        if let Some(mate_id) = reads.mate_of(a.read_id) {
            if !aligned.contains(&(mate_id, a.contig)) {
                // FR library: the mate points back toward the read, so in
                // contig orientation it appears reverse-complemented
                // relative to the aligned read's orientation.
                entries.push((a.contig, mate_id, !a.forward));
            }
        }
    }
    entries
}

fn oriented_seq(seq: &[u8], forward: bool) -> Vec<u8> {
    if forward {
        seq.to_vec()
    } else {
        revcomp(seq)
    }
}

/// Extends one contig sequence at both ends using its read pool.
fn extend_one(contig_seq: &[u8], pool: &[Vec<u8>], params: &LocalAssemblyParams) -> Vec<u8> {
    // Right (tail) extension on the forward strand, then left extension done as
    // a right extension of the reverse complement, voted from the same table.
    let table = VoteTable::new(pool);
    let mut seq = contig_seq.to_vec();
    walk_extension(&mut seq, params, |context| table.votes_after(context));
    revcomp_in_place(&mut seq);
    walk_extension(&mut seq, params, |context| {
        table.votes_after_revcomp(context)
    });
    revcomp_in_place(&mut seq);
    seq
}

/// Mer-walks rightwards from the end of `seq`, appending the bases it
/// assembles. `vote` counts the pool's votes for the base after a context,
/// indexed by 2-bit base code.
fn walk_extension(
    seq: &mut Vec<u8>,
    params: &LocalAssemblyParams,
    mut vote: impl FnMut(&[u8]) -> [usize; 4],
) {
    let limit = seq.len() + params.max_extension;
    let mut mer = params.mer_size;
    let mut shifted_up = false;
    let mut shifted_down = false;
    // The context is the last `mer` bases of the assembled sequence.
    while seq.len() < limit && seq.len() >= mer {
        let votes = vote(&seq[seq.len() - mer..]);
        let total: usize = votes.iter().sum();
        let (best, best_votes) = votes
            .iter()
            .enumerate()
            .max_by_key(|&(_, &v)| v)
            .map(|(i, &v)| (i, v))
            .expect("four vote slots");
        let contradictions = total - best_votes;
        if total == 0 {
            // Dead end: downshift, or stop if we already upshifted / hit bottom.
            if shifted_up || mer <= params.min_mer {
                break;
            }
            mer = mer.saturating_sub(params.shift).max(params.min_mer);
            shifted_down = true;
            continue;
        }
        if best_votes >= params.min_votes && contradictions <= params.max_contradictions {
            seq.push(decode_base(best as u8));
            continue;
        }
        // Fork: upshift, or stop if we already downshifted / hit the ceiling.
        if shifted_down || mer >= params.max_mer {
            break;
        }
        mer = (mer + params.shift).min(params.max_mer);
        shifted_up = true;
    }
}

/// Largest mer size a walk can use: a packed table entry holds the 2-bit
/// codes of `MAX_WALK_MER` bases, the run length and the pool position in one
/// `u128`.
pub(crate) const MAX_WALK_MER: usize = (128 - RUN_BITS - POS_BITS) as usize / 2;

/// Bits of a packed table entry holding its pool position (the low bits).
const POS_BITS: u32 = 32;

/// Bits of a packed table entry holding its run length, just above the
/// position.
const RUN_BITS: u32 = 6;

/// Top bits of a packed table entry holding its window of base codes.
const WINDOW_MASK: u128 = !0 << (128 - 2 * MAX_WALK_MER);

/// Sits before, between and after the pool reads in
/// [`VoteTable::bytes`]: not a base, so no window spans it and no vote reads
/// it.
const SEPARATOR: u8 = 0;

/// 2-bit code of an upper-case `A/C/G/T`; `None` for any other byte. Lower
/// case is rejected (unlike [`encode_base`]): a window must equal the walk
/// context byte for byte, and contexts are upper-case ACGT.
fn window_code(b: u8) -> Option<u8> {
    encode_base(b).filter(|_| is_valid_base(b))
}

/// The vote table of one contig's read pool (see the module docs).
///
/// Votes equal those of a byte scan that finds every occurrence of the
/// context in every pool read, overlapping ones included, and counts the
/// [`encode_base`] code of the byte after it: a read no longer than the
/// context has no such byte, and a window holding anything but upper-case
/// ACGT never equals a context.
struct VoteTable {
    /// The pool reads, each preceded and followed by [`SEPARATOR`].
    bytes: Vec<u8>,
    /// One entry per upper-case ACGT byte of `bytes`: the codes of the run of
    /// upper-case ACGT starting there (at most [`MAX_WALK_MER`] bases,
    /// left-aligned in [`WINDOW_MASK`]), the run's length and the byte's
    /// position. Sorted, so for every mer size `m` the windows that equal a
    /// context are one contiguous range.
    entries: Vec<u128>,
}

impl VoteTable {
    fn new(pool: &[Vec<u8>]) -> Self {
        let mut bytes = vec![SEPARATOR];
        for read in pool {
            bytes.extend_from_slice(read);
            bytes.push(SEPARATOR);
        }
        assert!(
            bytes.len() <= 1 << POS_BITS,
            "read pool of {} bytes overflows a packed position",
            bytes.len()
        );
        let mut entries = Vec::with_capacity(bytes.len());
        let mut window = 0u128;
        let mut run = 0u128;
        for (pos, &b) in bytes.iter().enumerate().rev() {
            let Some(code) = window_code(b) else {
                window = 0;
                run = 0;
                continue;
            };
            window = ((code as u128) << 126 | window >> 2) & WINDOW_MASK;
            run = (run + 1).min(MAX_WALK_MER as u128);
            entries.push(window | run << POS_BITS | pos as u128);
        }
        entries.sort_unstable();
        VoteTable { bytes, entries }
    }

    /// Votes for the base after `context` in the pool reads.
    fn votes_after(&self, context: &[u8]) -> [usize; 4] {
        let mer = context.len();
        self.tally(context.iter().copied(), |pos| self.bytes[pos + mer])
    }

    /// Votes for the base after `context` in the reverse complements of the
    /// pool reads: the complements of the bases before `revcomp(context)` in
    /// the reads themselves.
    fn votes_after_revcomp(&self, context: &[u8]) -> [usize; 4] {
        let rc_context = context.iter().rev().map(|&b| complement(b));
        let mut votes = self.tally(rc_context, |pos| self.bytes[pos - 1]);
        // Complementing a base code `c` gives `3 - c`.
        votes.reverse();
        votes
    }

    /// Counts the [`encode_base`] codes of `flank(pos)` over the positions
    /// `pos` where `window` occurs.
    fn tally(
        &self,
        window: impl ExactSizeIterator<Item = u8>,
        flank: impl Fn(usize) -> u8,
    ) -> [usize; 4] {
        let mer = window.len();
        assert!(
            (1..=MAX_WALK_MER).contains(&mer),
            "mer size {mer} outside 1..={MAX_WALK_MER}"
        );
        let key = window.fold(0u128, |key, b| {
            let code = window_code(b).expect("walk contexts are upper-case ACGT");
            key << 2 | code as u128
        });
        let shift = 128 - 2 * mer as u32;
        let first = self.entries.partition_point(|&e| e >> shift < key);
        let mut votes = [0usize; 4];
        for &entry in self.entries[first..]
            .iter()
            .take_while(|&&e| e >> shift == key)
        {
            let run = (entry >> POS_BITS) as usize & ((1 << RUN_BITS) - 1);
            if run < mer {
                continue;
            }
            let pos = entry as u32 as usize;
            if let Some(code) = encode_base(flank(pos)) {
                votes[code as usize] += 1;
            }
        }
        votes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aligner::Alignment;
    use pgas::Team;
    use seqio::Read;

    fn genome(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                b"ACGT"[(state % 4) as usize]
            })
            .collect()
    }

    /// Naive substring search, the byte scan the vote table replaces.
    fn find_sub(haystack: &[u8], needle: &[u8]) -> Option<usize> {
        if needle.is_empty() || haystack.len() < needle.len() {
            return None;
        }
        haystack.windows(needle.len()).position(|w| w == needle)
    }

    /// The reference votes: scan every pool read for every occurrence of
    /// `context` and count the byte after it.
    fn scan_votes(pool: &[Vec<u8>], context: &[u8]) -> [usize; 4] {
        let mer = context.len();
        let mut votes = [0usize; 4];
        for read in pool {
            if read.len() <= mer {
                continue;
            }
            let mut start = 0usize;
            while let Some(pos) = find_sub(&read[start..], context) {
                let abs = start + pos;
                if abs + mer < read.len() {
                    if let Some(code) = encode_base(read[abs + mer]) {
                        votes[code as usize] += 1;
                    }
                }
                start = abs + 1;
                if start >= read.len() {
                    break;
                }
            }
        }
        votes
    }

    /// Walks `seq` rightwards with the vote table of `pool`, returning the
    /// added bases.
    fn walk(seq: &[u8], pool: &[Vec<u8>]) -> Vec<u8> {
        let table = VoteTable::new(pool);
        let mut walked = seq.to_vec();
        walk_extension(&mut walked, &LocalAssemblyParams::default(), |context| {
            table.votes_after(context)
        });
        walked.split_off(seq.len())
    }

    #[test]
    fn walk_extension_recovers_truncated_tail() {
        let g = genome(300, 5);
        let contig_end = &g[..200];
        // Reads covering the region around position 180..280.
        let pool: Vec<Vec<u8>> = (150..230)
            .step_by(7)
            .map(|i| g[i..i + 60].to_vec())
            .collect();
        let added = walk(contig_end, &pool);
        assert!(!added.is_empty(), "no extension recovered");
        // Everything added must match the true genome continuation.
        let truth = &g[200..200 + added.len()];
        assert_eq!(added.as_slice(), truth);
    }

    #[test]
    fn walk_stops_without_reads() {
        let g = genome(200, 6);
        assert!(walk(&g, &[]).is_empty());
    }

    #[test]
    fn walk_stops_at_genuine_fork() {
        let g = genome(200, 7);
        let contig_end = &g[..120];
        // Two divergent continuations after position 140, both well covered:
        // a fork the walk should not blindly cross.
        let mut variant_a = g[..170].to_vec();
        let mut variant_b = g[..140].to_vec();
        variant_b.extend_from_slice(&genome(60, 99));
        variant_a.truncate(200);
        let mut pool = Vec::new();
        for i in (100..140).step_by(5) {
            pool.push(variant_a[i..(i + 50).min(variant_a.len())].to_vec());
            pool.push(variant_b[i..(i + 50).min(variant_b.len())].to_vec());
        }
        let added = walk(contig_end, &pool);
        // It may extend through the shared region (up to ~20 bases) but must
        // stop around the divergence point rather than picking a side forever.
        assert!(
            added.len() <= 30,
            "walk crossed a fork: {} bases",
            added.len()
        );
        // Whatever was added matches the shared prefix.
        let truth = &g[120..120 + added.len().min(20)];
        assert_eq!(&added[..added.len().min(20)], truth);
    }

    /// A pool built to hit every corner of the byte scan: repeats whose
    /// occurrences overlap, `N`, lower case and other bytes that break
    /// windows (and may still be flank votes), reads no longer than the mer
    /// size, and reads taken from both strands.
    fn adversarial_pool(seed: u64) -> Vec<Vec<u8>> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut source = genome(120, seed);
        source.extend(std::iter::repeat_n(b'A', 45));
        source.extend_from_slice(&genome(60, seed + 1));
        source.extend(b"AC".iter().cycle().take(50));
        source.extend_from_slice(&genome(60, seed + 2));
        source.extend(b"GGT".iter().cycle().take(48));
        source.extend_from_slice(&genome(80, seed + 3));
        let source_rc = revcomp(&source);
        (0..30)
            .map(|_| {
                let strand = if next(2) == 0 { &source } else { &source_rc };
                let len = [5, 11, 12, 19, 33, 34, 60, 100][next(8)];
                let start = next(strand.len() - len + 1);
                let mut read = strand[start..start + len].to_vec();
                for _ in 0..next(4) {
                    let at = next(len);
                    read[at] = match next(4) {
                        0 => b'N',
                        1 => read[at].to_ascii_lowercase(),
                        2 => b'X',
                        _ => b"ACGT"[next(4)],
                    };
                }
                read
            })
            .collect()
    }

    #[test]
    fn vote_table_equals_the_byte_scan() {
        let mut voted = 0usize;
        for seed in 1..=12u64 {
            let pool = adversarial_pool(seed);
            let rc_pool: Vec<Vec<u8>> = pool.iter().map(|r| revcomp(r)).collect();
            let table = VoteTable::new(&pool);
            for mer in 1..=MAX_WALK_MER {
                // Contexts: each read's last `mer` bases and a window from its
                // middle (upper-cased, other bytes replaced), plus
                // homopolymer, dinucleotide and random contexts.
                let mut contexts: Vec<Vec<u8>> = Vec::new();
                for read in pool.iter().filter(|r| r.len() >= mer) {
                    for start in [read.len() - mer, (read.len() - mer) / 2] {
                        let window = read[start..start + mer].iter().map(|&b| {
                            window_code(b.to_ascii_uppercase()).map_or(b'C', decode_base)
                        });
                        contexts.push(window.collect());
                    }
                }
                contexts.push(vec![b'A'; mer]);
                contexts.push(b"AC".iter().cycle().take(mer).copied().collect());
                contexts.push(b"TG".iter().cycle().take(mer).copied().collect());
                contexts.push(genome(mer, seed * 100 + mer as u64));
                for context in &contexts {
                    let after = table.votes_after(context);
                    assert_eq!(after, scan_votes(&pool, context), "forward, mer {mer}");
                    let after_rc = table.votes_after_revcomp(context);
                    assert_eq!(after_rc, scan_votes(&rc_pool, context), "rc, mer {mer}");
                    voted += after.iter().chain(&after_rc).sum::<usize>();
                }
            }
        }
        assert!(
            voted > 10_000,
            "contexts barely occur in the pools: {voted} votes"
        );
    }

    /// Two 500-bp contigs and a paired library of three pairs of 60-bp reads
    /// (read ids `2p` and `2p + 1`).
    fn mate_fixture() -> (ContigSet, ReadLibrary) {
        let contigs =
            ContigSet::from_sequences(21, vec![(genome(500, 1), 10.0), (genome(500, 2), 10.0)]);
        let mut lib = ReadLibrary::new_paired("lib", 200, 20);
        for p in 0..3 {
            let read = |mate: u64| {
                Read::with_uniform_quality(format!("p{p}/{mate}"), &genome(60, 10 + p), 35)
            };
            lib.push_pair(read(1), read(2));
        }
        (contigs, lib)
    }

    fn aligned(read_id: ReadId, contig: u64, contig_offset: i64) -> Alignment {
        Alignment {
            read_id,
            contig,
            forward: true,
            contig_offset,
            aligned_len: 60,
            matches: 60,
        }
    }

    #[test]
    fn mates_are_projected_only_onto_contigs_they_did_not_align_to() {
        let (contigs, lib) = mate_fixture();
        let alignments = AlignmentSet {
            alignments: vec![
                // Pair 0: both mates on contig 0, so neither is projected.
                aligned(0, 0, 0),
                aligned(1, 0, 20),
                // Pair 1: mates on different contigs; each is projected onto
                // the other's contig.
                aligned(2, 0, 10),
                aligned(3, 1, 440),
                // Pair 2: read 4 aligned twice to contig 1, its mate nowhere:
                // the mate is projected once per alignment.
                aligned(4, 1, 0),
                aligned(4, 1, 5),
            ],
        };
        let entries = pool_entries(
            ContigsRef::Local(&contigs),
            &alignments,
            ReadsRef::Local(&lib),
            &LocalAssemblyParams::default(),
        );
        assert_eq!(
            entries,
            vec![
                (0, 0, true),
                (0, 1, true),
                (0, 2, true),
                (0, 3, false),
                (1, 3, true),
                (1, 2, false),
                (1, 4, true),
                (1, 5, false),
                (1, 4, true),
                (1, 5, false),
            ]
        );
    }

    /// A 600-bp genome whose middle 300 bp form the only contig, a paired
    /// library tiling the whole genome, and the alignments of every read that
    /// lies fully inside the contig.
    fn flank_fixture() -> (Vec<u8>, ContigSet, ReadLibrary, AlignmentSet) {
        let g = genome(600, 8);
        // The contig covers only the middle of the genome.
        let contig_seq = g[150..450].to_vec();
        let contigs = ContigSet::from_sequences(21, vec![(contig_seq.clone(), 12.0)]);
        let stored_forward = contigs.contigs[0].seq == contig_seq;
        // Paired reads tile the whole genome.
        let mut lib = ReadLibrary::new_paired("lib", 200, 20);
        let mut alignments = AlignmentSet::default();
        let read_len = 60usize;
        for (pair, i) in (0..g.len() - 200).step_by(9).enumerate() {
            let pair = pair as u64;
            let r1 = &g[i..i + read_len];
            let r2 = revcomp(&g[i + 200 - read_len..i + 200]);
            lib.push_pair(
                Read::with_uniform_quality(format!("p{pair}/1"), r1, 35),
                Read::with_uniform_quality(format!("p{pair}/2"), &r2, 35),
            );
            // Hand-build alignments of any read that lies fully inside the
            // contig region (150..450), in contig coordinates.
            for (mate, start, fwd_on_genome) in [(0u64, i, true), (1u64, i + 200 - read_len, false)]
            {
                if start >= 150 && start + read_len <= 450 {
                    let contig_off = (start - 150) as i64;
                    let (forward, contig_offset) = if stored_forward {
                        (fwd_on_genome, contig_off)
                    } else {
                        (!fwd_on_genome, 300 - contig_off - read_len as i64)
                    };
                    alignments.alignments.push(Alignment {
                        read_id: 2 * pair + mate,
                        contig: 0,
                        forward,
                        contig_offset,
                        aligned_len: read_len,
                        matches: read_len,
                    });
                }
            }
        }
        (g, contigs, lib, alignments)
    }

    /// Extends the fixture on two ranks, each contributing the alignments of
    /// its own block of pairs, and checks every rank got the same set.
    fn extend_flank_fixture(
        contigs: &ContigSet,
        lib: &ReadLibrary,
        alignments: &AlignmentSet,
    ) -> ContigSet {
        let team = Team::single_node(2);
        let out = team.run(|ctx| {
            let range = ctx.block_range(lib.num_pairs());
            let mine = AlignmentSet {
                alignments: alignments
                    .alignments
                    .iter()
                    .filter(|a| range.contains(&((a.read_id / 2) as usize)))
                    .copied()
                    .collect(),
            };
            extend_contigs_locally(ctx, contigs, &mine, lib, &LocalAssemblyParams::default())
        });
        for (set, _) in &out[1..] {
            assert_eq!(set, &out[0].0);
        }
        out.into_iter().next().expect("two ranks").0
    }

    #[test]
    fn extend_contigs_locally_grows_contig_toward_covered_flank() {
        let (g, contigs, lib, alignments) = flank_fixture();
        let extended = extend_flank_fixture(&contigs, &lib, &alignments);
        assert_eq!(extended.len(), 1);
        assert!(
            extended.contigs[0].len() > contigs.contigs[0].len() + 20,
            "contig was not extended: {} -> {}",
            contigs.contigs[0].len(),
            extended.contigs[0].len()
        );
        // The extension must match the real genome (no junk bases).
        let ext = String::from_utf8(extended.contigs[0].seq.clone()).unwrap();
        let fwd = String::from_utf8(g.clone()).unwrap();
        let rc = String::from_utf8(revcomp(&g)).unwrap();
        assert!(
            fwd.contains(&ext) || rc.contains(&ext),
            "extended contig is not a substring of the genome"
        );
    }

    /// The vote table matches walk contexts only if they are upper-case ACGT.
    /// The right walk starts from the contig itself and the left walk from
    /// the reverse complement of the contig plus its right extension, which
    /// the extended contig contains: both are upper-case ACGT when the input
    /// and output contigs are.
    #[test]
    fn contigs_reaching_walk_extension_are_uppercase_acgt() {
        let (_, contigs, lib, alignments) = flank_fixture();
        let extended = extend_flank_fixture(&contigs, &lib, &alignments);
        for contig in contigs.contigs.iter().chain(&extended.contigs) {
            assert!(
                contig.seq.iter().all(|&b| is_valid_base(b)),
                "contig {} holds a byte other than upper-case ACGT",
                contig.id
            );
        }
    }
}
