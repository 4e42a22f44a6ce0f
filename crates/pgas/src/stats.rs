//! Per-rank communication and memory-system accounting.
//!
//! UPC runs on a real interconnect; our ranks are threads, so wall-clock alone
//! would hide communication effects such as the read-localisation optimisation
//! of §II-I (whose benefit is *fewer off-node seed lookups* and *better cache
//! reuse*). Every simulated remote operation is therefore counted here, and the
//! experiment harnesses report these counters next to the timings.

use std::sync::atomic::{AtomicU64, Ordering};

/// Declares every counter once: the table below generates the atomic
/// [`CommStats`] fields, their plain-value [`StatsSnapshot`] twins, and the
/// per-counter methods (`reset`, `snapshot`, `add`, `delta_from`, `map`),
/// all in table order.
macro_rules! comm_counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Atomic per-rank counters. Padded to a cache line to avoid false
        /// sharing between ranks that update their own counters concurrently.
        #[derive(Debug, Default)]
        #[repr(align(128))]
        pub struct CommStats {
            $($(#[$doc])* pub $name: AtomicU64,)*
        }

        impl CommStats {
            /// Resets every counter to zero.
            pub fn reset(&self) {
                $(self.$name.store(0, Ordering::Relaxed);)*
            }

            /// Takes a plain-value snapshot of the counters.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }
        }

        /// A plain-value copy of [`CommStats`], summable across ranks.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl StatsSnapshot {
            /// Element-wise sum of two snapshots. Summing the per-rank
            /// running-max `*_resident` peaks gives the team-wide resident
            /// total (each rank's peak is its own shard + cache).
            pub fn add(&self, other: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name + other.$name,)*
                }
            }

            /// Difference (`self - other`), saturating at zero; used to
            /// measure a phase by snapshotting before and after. A running-max
            /// `*_resident` gauge only grows between resets, so its delta is
            /// how much the peak rose during the phase.
            pub fn delta_from(&self, before: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.saturating_sub(before.$name),)*
                }
            }

            /// Applies `f` to every counter, one call per counter in
            /// declaration order (so a collective `f` issues the same
            /// sequence on every rank).
            pub fn map(&self, mut f: impl FnMut(u64) -> u64) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: f(self.$name),)*
                }
            }
        }
    };
}

comm_counters! {
    /// Aggregated messages sent (one per flushed batch).
    msgs_sent,
    /// Payload bytes across all sent messages.
    bytes_sent,
    /// Payload bytes of messages whose destination rank shares the sender's
    /// simulated node (shared-memory transfers; a subset of `bytes_sent`).
    on_node_bytes,
    /// Payload bytes of messages that crossed a node boundary (interconnect
    /// transfers; `on_node_bytes + off_node_bytes == bytes_sent`).
    off_node_bytes,
    /// Aggregated messages whose destination shares the sender's node
    /// (`on_node_msgs + off_node_msgs == msgs_sent`).
    on_node_msgs,
    /// Aggregated messages that crossed a node boundary — the interconnect
    /// injection count the two-level exchange reduces.
    off_node_msgs,
    /// The subset of `off_node_msgs` sent point to point by one-sided
    /// aggregated reads (one request and one response leg per contacted
    /// owner): traffic node-leader routing cannot batch, because it never
    /// passes through a collective exchange.
    onesided_off_node_msgs,
    /// Fine-grained operations that targeted data owned by a rank on another
    /// simulated node.
    remote_ops,
    /// Fine-grained operations that stayed within the simulated node.
    local_ops,
    /// Global atomic operations (compare-and-swap, fetch-add on shared state).
    atomic_ops,
    /// Software-cache hits (read-only phase of the distributed hash tables).
    cache_hits,
    /// Software-cache misses.
    cache_misses,
    /// Work blocks obtained through the dynamic work-stealing counter beyond
    /// the rank's initial block.
    steals,
    /// Completed aggregated request–response round trips (batched lookups).
    rpc_round_trips,
    /// Payload bytes of the response legs of aggregated request–response
    /// exchanges (a subset of `bytes_sent`, recorded on the serving rank).
    rpc_resp_bytes,
    /// Software-cache evictions (entries displaced by the capacity bound).
    cache_evictions,
    /// Payload bytes of packed supermer records shipped by supermer-routed
    /// k-mer analysis (a subset of `bytes_sent`, recorded on the sender).
    supermer_bytes,
    /// Collective endpoint-exchange rounds performed by the segment-stitching
    /// contig traversal (pred resolution + pointer-jumping + assembly).
    /// Recorded on rank 0 only, so a summed snapshot reads as "rounds".
    traversal_rounds,
    /// Payload bytes of segment-stitching exchanges during traversal (a
    /// subset of `bytes_sent`, recorded on the sender).
    stitch_bytes,
    /// Peak contig bytes resident on this rank: the owned shard of the
    /// distributed contig store plus the rank's reader cache (packed bytes),
    /// or the full replicated `ContigSet` (raw bytes) when the distributed
    /// store is disabled. Updated with a running max, not a sum.
    contig_bytes_resident,
    /// Packed contig bytes fetched from remote shards of the distributed
    /// contig store (cache-miss fills; a measure of contig read traffic).
    contig_fetch_bytes,
    /// Peak read bytes resident on this rank: the owned shard of the
    /// distributed read store plus the rank's reader cache (packed bytes), or
    /// the full replicated `ReadLibrary` (raw seq+qual bytes) when the
    /// distributed store is disabled. Updated with a running max, not a sum.
    read_bytes_resident,
    /// Packed read-block bytes fetched from remote shards of the distributed
    /// read store (cache-miss fills; a measure of read fetch traffic).
    read_fetch_bytes,
}

impl StatsSnapshot {
    /// Total fine-grained (per-key) global accesses, local and remote. The
    /// quantity the lookup-aggregation ablation compares against `msgs_sent`.
    pub fn fine_grained_ops(&self) -> u64 {
        self.remote_ops + self.local_ops
    }

    /// Fraction of fine-grained operations that crossed a node boundary.
    pub fn remote_fraction(&self) -> f64 {
        let total = self.remote_ops + self.local_ops;
        if total == 0 {
            0.0
        } else {
            self.remote_ops as f64 / total as f64
        }
    }

    /// Fraction of sent payload bytes that crossed a node boundary — the
    /// quantity the topology ablation tracks (interconnect pressure).
    pub fn off_node_byte_fraction(&self) -> f64 {
        let total = self.on_node_bytes + self.off_node_bytes;
        if total == 0 {
            0.0
        } else {
            self.off_node_bytes as f64 / total as f64
        }
    }

    /// Software-cache hit rate in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Load-balance ratio: average work divided by maximum work across ranks, in
/// `(0, 1]`; 1.0 means perfectly balanced. This is the quantity the paper
/// quotes for the local-assembly stage ("improves load balance from about 0.33
/// to 0.55").
pub fn load_balance_ratio(per_rank_work: &[f64]) -> f64 {
    if per_rank_work.is_empty() {
        return 1.0;
    }
    let max = per_rank_work.iter().cloned().fold(f64::MIN, f64::max);
    if max <= 0.0 {
        return 1.0;
    }
    let avg = per_rank_work.iter().sum::<f64>() / per_rank_work.len() as f64;
    avg / max
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_reset() {
        let s = CommStats::default();
        s.msgs_sent.fetch_add(3, Ordering::Relaxed);
        s.bytes_sent.fetch_add(100, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.msgs_sent, 3);
        assert_eq!(snap.bytes_sent, 100);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn add_and_delta() {
        // Distinct non-zero values for every counter, straight from the table.
        let mut next = 0;
        let a = StatsSnapshot::default().map(|_| {
            next += 1;
            next
        });
        let b = a.add(&a);
        assert_eq!(b, a.map(|v| 2 * v));
        assert_eq!(b.msgs_sent, 2);
        let d = b.delta_from(&a);
        assert_eq!(d, a);
        assert_eq!(a.delta_from(&b), StatsSnapshot::default());
    }

    #[test]
    fn ratios() {
        let s = StatsSnapshot {
            remote_ops: 30,
            local_ops: 70,
            cache_hits: 9,
            cache_misses: 1,
            ..Default::default()
        };
        assert!((s.remote_fraction() - 0.3).abs() < 1e-12);
        assert!((s.cache_hit_rate() - 0.9).abs() < 1e-12);
        assert_eq!(StatsSnapshot::default().remote_fraction(), 0.0);
        assert_eq!(StatsSnapshot::default().cache_hit_rate(), 0.0);
        let b = StatsSnapshot {
            on_node_bytes: 300,
            off_node_bytes: 100,
            ..Default::default()
        };
        assert!((b.off_node_byte_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(StatsSnapshot::default().off_node_byte_fraction(), 0.0);
    }

    #[test]
    fn load_balance() {
        assert!((load_balance_ratio(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((load_balance_ratio(&[4.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        assert_eq!(load_balance_ratio(&[]), 1.0);
        assert_eq!(load_balance_ratio(&[0.0, 0.0]), 1.0);
    }
}
