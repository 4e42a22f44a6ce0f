//! One measured assembly in a fresh process, so peak memory is that run's
//! alone (an allocator that has already assembled keeps a retained-heap
//! floor). The parent starts `perfbench worker ...` once per sample and reads
//! `key value` lines from its standard output.
//!
//! Three modes: `sample` sets up and calls `MetaHipMer::assemble` untraced;
//! `replay` sets up and runs the traced replay instead; `setup` only sets
//! up, to give the set-up time more samples than the assemblies do.

use crate::metrics;
use crate::replay;
use crate::stats::scaffold_digest;
use crate::trace::{Recorder, Span, Trace, TSV_HEADER};
use mhm_core::{AssemblyConfig, MetaHipMer};
use pgas::Team;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Mode {
    #[default]
    Sample,
    Replay,
    Setup,
}

impl Mode {
    const ALL: [Mode; 3] = [Mode::Sample, Mode::Replay, Mode::Setup];

    fn name(self) -> &'static str {
        match self {
            Mode::Sample => "sample",
            Mode::Replay => "replay",
            Mode::Setup => "setup",
        }
    }
}

/// Worker arguments, as the parent passes them.
#[derive(Debug, Clone, Default)]
pub struct Job {
    pub mode: Mode,
    pub fastq: PathBuf,
    pub insert: usize,
    pub insert_sd: usize,
    pub ranks: usize,
    pub rrna: Option<PathBuf>,
    /// Write the scaffold sequences here, one per line.
    pub scaffolds_out: Option<PathBuf>,
    /// Write the span table here (replay mode).
    pub trace_out: Option<PathBuf>,
}

impl Job {
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "worker".to_string(),
            self.mode.name().to_string(),
            self.fastq.display().to_string(),
            self.insert.to_string(),
            self.insert_sd.to_string(),
            self.ranks.to_string(),
        ];
        let opt = |p: &Option<PathBuf>| p.as_ref().map_or("-".into(), |p| p.display().to_string());
        args.extend([
            opt(&self.rrna),
            opt(&self.scaffolds_out),
            opt(&self.trace_out),
        ]);
        args
    }

    pub fn from_args(args: &[String]) -> Result<Job, String> {
        let [mode, fastq, insert, sd, ranks, rrna, scaffolds, trace] = args else {
            return Err(format!("worker takes 8 arguments, got {}", args.len()));
        };
        let num = |s: &str| s.parse::<usize>().map_err(|e| format!("{s}: {e}"));
        let opt = |s: &str| (s != "-").then(|| PathBuf::from(s));
        Ok(Job {
            mode: Mode::ALL
                .into_iter()
                .find(|m| m.name() == mode)
                .ok_or(format!("unknown worker mode {mode}"))?,
            fastq: PathBuf::from(fastq),
            insert: num(insert)?,
            insert_sd: num(sd)?,
            ranks: num(ranks)?.max(1),
            rrna: opt(rrna),
            scaffolds_out: opt(scaffolds),
            trace_out: opt(trace),
        })
    }
}

/// Runs a job under the repository's harness panic accounting, so a masked
/// rank-thread panic fails the worker like a direct one.
pub fn main(args: &[String]) -> i32 {
    match Job::from_args(args) {
        Ok(job) => mhm_bench::harness_exit_code(|| run(&job)),
        Err(e) => {
            eprintln!("perfbench worker: {e}");
            2
        }
    }
}

fn run(job: &Job) {
    let epoch = Instant::now();
    let mut setup = Recorder::new(None, epoch);
    let (library, rrna, team, mhm) = setup.span("setup", |rec| {
        let text = rec
            .span("setup.read_file", |_| std::fs::read_to_string(&job.fastq))
            .expect("read the workload's FASTQ");
        let library = rec.span("seqio.parse", |_| {
            seqio::fastq::library_from_fastq("reads", &text, job.insert, job.insert_sd)
        });
        let library = library.expect("the workload's FASTQ parses");
        drop(text);
        let rrna = job
            .rrna
            .as_ref()
            .map(|p| std::fs::read(p).expect("read the rRNA consensus"));
        let team = rec.span("setup.team", |_| Team::single_node(job.ranks));
        let mhm = rec.span("setup.new", |_| MetaHipMer::new(AssemblyConfig::default()));
        (library, rrna, team, mhm)
    });
    let setup_spans = setup.into_spans();
    emit("setup_s", setup_spans[0].duration_ns() as f64 * 1e-9);

    let scaffolds = match job.mode {
        Mode::Setup => return,
        Mode::Replay => replay_job(job, &setup_spans, &library, rrna.as_deref(), &team, &mhm),
        Mode::Sample => {
            let start = Instant::now();
            let out = mhm.assemble(&team, &library, rrna.as_deref());
            emit("assemble_s", start.elapsed().as_secs_f64());
            for (name, secs, stats) in &out.stages {
                emit(&format!("stage.{name}.s"), *secs);
                emit(&format!("stage.{name}.msgs"), stats.msgs_sent as f64);
                emit(&format!("stage.{name}.bytes"), stats.bytes_sent as f64);
            }
            out.sequences()
        }
    };
    println!("digest {:016x}", scaffold_digest(&scaffolds));
    emit("scaffolds", scaffolds.len() as f64);
    emit("peak_rss_kb", peak_rss_kb() as f64);
    if let Some(path) = &job.scaffolds_out {
        let mut text = Vec::new();
        for s in &scaffolds {
            text.extend_from_slice(s);
            text.push(b'\n');
        }
        std::fs::write(path, text).expect("write the scaffolds");
    }
}

fn replay_job(
    job: &Job,
    setup_spans: &[Span],
    library: &seqio::ReadLibrary,
    rrna: Option<&[u8]>,
    team: &std::sync::Arc<Team>,
    mhm: &MetaHipMer,
) -> Vec<Vec<u8>> {
    replay::check_config(&mhm.config).expect("replayable configuration");
    let mut out = replay::replay(team, mhm, library, rrna);
    let trace = Trace::new(std::mem::take(&mut out.spans)).expect("SPMD span sequence");
    let parse_s = setup_spans
        .iter()
        .find(|s| s.name == "seqio.parse")
        .map_or(0.0, |s| s.duration_ns() as f64 * 1e-9);
    let windows: u64 = mhm
        .config
        .k_values()
        .iter()
        .flat_map(|&k| {
            library
                .reads
                .iter()
                .map(move |r| r.seq.len().saturating_sub(k - 1))
        })
        .map(|w| w as u64)
        .sum();
    let layers =
        metrics::layer_values(&trace, &out, windows, library.total_bases() as u64, parse_s);
    for (name, value) in &layers {
        emit(&format!("layer.{name}"), *value);
    }
    for stage in replay::STAGES {
        emit(&format!("stage.{stage}.s"), trace.wall_s(stage));
        emit(
            &format!("stage.{stage}.msgs"),
            trace.stat(stage, |s| s.msgs_sent) as f64,
        );
        emit(
            &format!("stage.{stage}.bytes"),
            trace.stat(stage, |s| s.bytes_sent) as f64,
        );
    }
    if let Some(path) = &job.trace_out {
        let setup = Trace::new(vec![setup_spans.to_vec()]).expect("one set-up recorder");
        let text = [
            TSV_HEADER,
            &setup.to_tsv("setup"),
            &trace.to_tsv("assemble"),
        ]
        .concat();
        std::fs::write(path, text).expect("write the span table");
    }
    out.scaffolds
}

fn emit(key: &str, value: f64) {
    println!("{key} {value}");
}

/// Peak resident set size of this process (`VmHWM`), in KiB.
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status")
}

/// Parses a worker's `key value` lines; the digest stays text.
pub fn parse_output(stdout: &str) -> (BTreeMap<String, f64>, Option<String>) {
    let mut values = BTreeMap::new();
    let mut digest = None;
    for line in stdout.lines() {
        let Some((key, value)) = line.split_once(' ') else {
            continue;
        };
        if key == "digest" {
            digest = Some(value.to_string());
        } else if let Ok(v) = value.parse::<f64>() {
            values.insert(key.to_string(), v);
        }
    }
    (values, digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_arguments_round_trip() {
        let job = Job {
            mode: Mode::Replay,
            fastq: "a/reads.fq".into(),
            insert: 280,
            insert_sd: 30,
            ranks: 2,
            rrna: Some("a/rrna.txt".into()),
            scaffolds_out: None,
            trace_out: Some("a/trace.tsv".into()),
        };
        let args = job.to_args();
        assert_eq!(args[0], "worker");
        let back = Job::from_args(&args[1..]).unwrap();
        assert_eq!(back.to_args(), args);
        assert!(Job::from_args(&args[2..]).is_err());
    }

    #[test]
    fn worker_output_parses() {
        let (values, digest) = parse_output("setup_s 0.25\ndigest 00ff\nnoise\nstage.a.s 1e-3\n");
        assert_eq!(values["setup_s"], 0.25);
        assert_eq!(values["stage.a.s"], 0.001);
        assert_eq!(digest.as_deref(), Some("00ff"));
    }
}
