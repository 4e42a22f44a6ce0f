//! In-memory span recorder for the traced replay, and the arithmetic that
//! turns its spans into per-layer numbers.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! pipeline's public functions; nothing inside the program is instrumented.
//! Every rank records the same span sequence (the replay is SPMD), so the
//! `i`-th span of one rank and the `i`-th span of another are the same call.

use pgas::{Ctx, StatsSnapshot};
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call on one rank.
#[derive(Debug, Clone, Default)]
pub struct Span {
    pub name: &'static str,
    /// Index (in the same rank's span list) of the enclosing span.
    pub parent: Option<usize>,
    pub rank: usize,
    /// Nanoseconds since the shared epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Communication-counter delta over the span (`ctx.stats()`).
    pub stats: StatsSnapshot,
    /// Barriers this rank entered during the span.
    pub barriers: u64,
    /// Work counts noted by the replay inside the span (reads aligned,
    /// contigs attempted, ...).
    pub notes: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn note(&self, key: &str) -> u64 {
        self.notes
            .iter()
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .sum()
    }
}

/// Records nested spans for one rank. Without a `Ctx` (set-up, before the
/// team runs) spans carry no counter deltas.
pub struct Recorder<'c, 't> {
    ctx: Option<&'c Ctx<'t>>,
    rank: usize,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl<'c, 't> Recorder<'c, 't> {
    pub fn new(ctx: Option<&'c Ctx<'t>>, epoch: Instant) -> Self {
        Recorder {
            ctx,
            rank: ctx.map_or(0, |c| c.rank()),
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn ctx(&self) -> Option<&'c Ctx<'t>> {
        self.ctx
    }

    fn probe(&self) -> (StatsSnapshot, u64) {
        match self.ctx {
            Some(ctx) => (ctx.stats().snapshot(), ctx.barriers_entered()),
            None => (StatsSnapshot::default(), 0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, nested under the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let index = self.spans.len();
        let (stats_before, barriers_before) = self.probe();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            rank: self.rank,
            start_ns: self.now_ns(),
            ..Default::default()
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        let (stats_after, barriers_after) = self.probe();
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.stats = stats_after.delta_from(&stats_before);
        span.barriers = barriers_after - barriers_before;
        out
    }

    /// Adds a work count to the innermost open span.
    pub fn note(&mut self, key: &'static str, value: u64) {
        let index = *self.open.last().expect("note outside any span");
        self.spans[index].notes.push((key, value));
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "spans left open");
        self.spans
    }
}

/// Self time of every span of one rank: its duration minus the part of its
/// interval that its children cover (overlapping children counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// The spans of all ranks, checked to describe the same call sequence.
pub struct Trace {
    /// `ranks[r]` is rank `r`'s span list.
    pub ranks: Vec<Vec<Span>>,
    self_ns: Vec<Vec<u64>>,
}

impl Trace {
    /// Fails if the ranks recorded different call sequences: the replay is
    /// SPMD, so a mismatch means it no longer follows one program.
    pub fn new(ranks: Vec<Vec<Span>>) -> Result<Trace, String> {
        let first = ranks.first().ok_or("no ranks traced")?;
        for (r, spans) in ranks.iter().enumerate() {
            let same = spans.len() == first.len()
                && spans
                    .iter()
                    .zip(first)
                    .all(|(a, b)| a.name == b.name && a.parent == b.parent);
            if !same {
                return Err(format!("rank {r} recorded a different span sequence"));
            }
        }
        let self_ns = ranks.iter().map(|s| self_times_ns(s)).collect();
        Ok(Trace { ranks, self_ns })
    }

    fn calls(&self, name: &str) -> impl Iterator<Item = usize> + '_ {
        let name = name.to_string();
        self.ranks[0]
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
            .map(|(i, _)| i)
    }

    /// Σ over calls named `name` of the slowest rank's self time, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.calls(name)
            .map(|i| self.self_ns.iter().map(|r| r[i]).max().unwrap_or(0))
            .sum::<u64>() as f64
            * 1e-9
    }

    /// Σ over calls named `name` of the slowest rank's wall time, in seconds.
    pub fn wall_s(&self, name: &str) -> f64 {
        self.calls(name)
            .map(|i| {
                self.ranks
                    .iter()
                    .map(|r| r[i].duration_ns())
                    .max()
                    .unwrap_or(0)
            })
            .sum::<u64>() as f64
            * 1e-9
    }

    /// Σ over ranks and calls named `name` of a counter delta.
    pub fn stat(&self, name: &str, field: impl Fn(&StatsSnapshot) -> u64) -> u64 {
        self.calls(name)
            .map(|i| self.ranks.iter().map(|r| field(&r[i].stats)).sum::<u64>())
            .sum()
    }

    /// Σ over ranks and calls named `name` of a noted work count.
    pub fn note(&self, name: &str, key: &str) -> u64 {
        self.per_rank_note(name, key).iter().sum()
    }

    /// Per-rank Σ over calls named `name` of a noted work count.
    pub fn per_rank_note(&self, name: &str, key: &str) -> Vec<u64> {
        self.ranks
            .iter()
            .map(|spans| self.calls(name).map(|i| spans[i].note(key)).sum())
            .collect()
    }

    /// Tab-separated rows, one per span and rank, under [`TSV_HEADER`];
    /// `phase` tells set-up spans from the assembly's.
    pub fn to_tsv(&self, phase: &str) -> String {
        let mut out = String::new();
        for (spans, self_ns) in self.ranks.iter().zip(&self.self_ns) {
            for (i, s) in spans.iter().enumerate() {
                let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
                let notes: Vec<String> = s.notes.iter().map(|(k, v)| format!("{k}={v}")).collect();
                let _ = writeln!(
                    out,
                    "{phase}\t{}\t{i}\t{}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                    s.rank,
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    self_ns[i],
                    s.barriers,
                    s.stats.msgs_sent,
                    s.stats.bytes_sent,
                    notes.join(",")
                );
            }
        }
        out
    }
}

pub const TSV_HEADER: &str =
    "phase\trank\tindex\tname\tparent\tstart_ns\tend_ns\tself_ns\tbarriers\tmsgs\tbytes\tnotes\n";

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start_ns: start,
            end_ns: end,
            ..Default::default()
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 40, 90),
            span("b.inner", Some(2), 50, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 50),
            span("b", Some(0), 30, 70),
            span("c", Some(0), 35, 40),
            // A child sticking out of its parent only covers the overlap.
            span("d", Some(0), 90, 120),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn per_call_max_over_ranks_then_sum_over_calls() {
        let rank = |r: usize, d1: u64, d2: u64| {
            let mut s = vec![span("x", None, 0, d1), span("x", None, d1, d1 + d2)];
            for sp in &mut s {
                sp.rank = r;
                sp.notes.push(("work", 1 + r as u64));
            }
            s
        };
        let trace = Trace::new(vec![rank(0, 10, 40), rank(1, 30, 20)]).unwrap();
        assert!((trace.self_s("x") - 70e-9).abs() < 1e-15);
        assert!((trace.wall_s("x") - 70e-9).abs() < 1e-15);
        assert_eq!(trace.note("x", "work"), 2 + 4);
        assert_eq!(trace.per_rank_note("x", "work"), vec![2, 4]);
    }

    #[test]
    fn diverging_rank_sequences_are_rejected() {
        let a = vec![span("x", None, 0, 1)];
        let b = vec![span("y", None, 0, 1)];
        assert!(Trace::new(vec![a.clone(), b]).is_err());
        assert!(Trace::new(vec![a.clone(), vec![]]).is_err());
        assert!(Trace::new(vec![a.clone(), a]).is_ok());
    }

    #[test]
    fn recorder_nests_and_notes() {
        let mut rec = Recorder::new(None, Instant::now());
        rec.span("outer", |rec| {
            rec.span("inner", |rec| rec.note("n", 3));
            rec.note("m", 1);
        });
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].note("n"), 3);
        assert_eq!(spans[0].note("m"), 1);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
