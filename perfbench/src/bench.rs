//! One benchmark run: the workload's input from the seed, untraced samples
//! in fresh worker processes for `--seconds`, the correctness gate, and with
//! `--trace 1` one traced replay and its self-checks.
//!
//! The loop is closed with a single caller: each sample starts after the
//! previous one has finished.

use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::replay::STAGES;
use crate::stats::{median, quartiles};
use crate::worker::{self, Job, Mode};
use crate::workload::Workload;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Untraced samples per run at the least, however short `--seconds` is, so
/// every reported time is a median of three.
const MIN_SAMPLES: usize = 3;

/// Set-up-only processes per run, on top of the untraced samples' set-ups.
const SETUP_ONLY_SAMPLES: usize = 10;

/// Settings that change what the program computes or how: with any of
/// them set, two builds would not be measured on the same program.
const PINNED_ENV: [&str; 4] = [
    "MHM_FORCE_SCALAR",
    "MHM_CONFORMANCE",
    "MHM_SCALE",
    "MHM_RANKS_PER_NODE",
];

const USAGE: &str =
    "usage: perfbench --workload <wetlands-1r|wetlands-2r|deep-1r> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    for pair in args.chunks(2) {
        let [key, value] = pair else {
            return Err(format!("missing value after {}", pair[0]));
        };
        map.insert(key.as_str(), value.as_str());
    }
    let get = |key: &str| map.get(key).copied().ok_or(format!("missing {key}"));
    let workload = get("--workload")?;
    let args = Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got {other}")),
        },
    };
    if map.len() != 4 {
        return Err("unexpected arguments".into());
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, got {}",
            args.seconds
        ));
    }
    Ok(args)
}

fn check_pins() -> Result<(), String> {
    if let Some(var) = PINNED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!(
            "{var} is set; unset it so every build measures the same program"
        ));
    }
    if cfg!(debug_assertions) {
        return Err("built without optimisations; run the release build".into());
    }
    Ok(())
}

pub fn main(args: &[String]) -> i32 {
    let args = match parse_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return 2;
        }
    };
    if let Err(e) = check_pins() {
        eprintln!("perfbench: refusing to measure: {e}");
        return 2;
    }
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let work = out_dir.join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("create {}: {e}", work.display()))
        .and_then(|()| run(&args, &work, &out_dir));
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok((correct, line)) => {
            println!("{line}");
            if correct {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    }
}

/// Attempts and failures across the run's worker processes.
#[derive(Default)]
struct Gate {
    attempted: usize,
    failed: usize,
}

impl Gate {
    fn fail(&mut self, why: &str) {
        self.failed += 1;
        println!("FAILED: {why}");
    }
}

/// Runs one worker to completion and parses its output.
fn run_worker(gate: &mut Gate, job: &Job) -> Option<(BTreeMap<String, f64>, String)> {
    gate.attempted += 1;
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let output = Command::new(exe)
        .args(job.to_args())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    let output = match output {
        Ok(o) if o.status.success() => o,
        Ok(o) => {
            gate.fail(&format!("worker exited with {}", o.status));
            return None;
        }
        Err(e) => {
            gate.fail(&format!("worker did not start: {e}"));
            return None;
        }
    };
    match worker::parse_output(&String::from_utf8_lossy(&output.stdout)) {
        (values, Some(digest)) => Some((values, digest)),
        (values, None) if job.mode == Mode::Setup => Some((values, String::new())),
        (_, None) => {
            gate.fail("worker printed no scaffold digest");
            None
        }
    }
}

fn summary(name: &str, unit: &str, values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    println!(
        "{name}: median {med:.4} {unit} (q1 {q1:.4}, q3 {q3:.4}, n={})",
        values.len()
    );
    med
}

fn run(args: &Args, work: &Path, out_dir: &Path) -> Result<(bool, String), String> {
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "pinned: simd={} force_scalar={} conformance={} profile=release nproc={nproc}",
        mhm_simd::level().name(),
        mhm_simd::force_scalar(),
        pgas::Team::single_node(1).conformance_checking(),
    );

    let generated = Instant::now();
    let ds = w.generate(args.seed);
    let write = |name: &str, bytes: &[u8]| -> Result<PathBuf, String> {
        let path = work.join(name);
        std::fs::write(&path, bytes).map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(path)
    };
    let fastq = write(
        "reads.fq",
        seqio::fastq::library_to_fastq(&ds.library).as_bytes(),
    )?;
    let rrna = if w.uses_rrna_model() {
        Some(write("rrna.txt", &ds.rrna_consensus)?)
    } else {
        None
    };
    println!(
        "input: {} {} ranks, seed {}: {} reads, {} bases, {} reference bp (generated in {:.2} s)",
        w.name(),
        w.ranks(),
        args.seed,
        ds.library.num_reads(),
        ds.library.total_bases(),
        ds.refs.total_bases(),
        generated.elapsed().as_secs_f64()
    );

    let job = Job {
        fastq,
        insert: ds.library.insert_size,
        insert_sd: ds.library.insert_sd,
        ranks: w.ranks(),
        rrna,
        ..Default::default()
    };
    let mut gate = Gate::default();

    // Untraced samples, one fresh process each, until the next one would
    // end after the deadline.
    let scaffolds_path = work.join("scaffolds.txt");
    let deadline = Duration::from_secs_f64(args.seconds);
    let measuring = Instant::now();
    let mut samples: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut digests: Vec<String> = Vec::new();
    loop {
        let mut sample = job.clone();
        if samples.is_empty() {
            sample.scaffolds_out = Some(scaffolds_path.clone());
        }
        let started = Instant::now();
        if let Some((values, digest)) = run_worker(&mut gate, &sample) {
            samples.push(values);
            digests.push(digest);
        }
        let next_end = measuring.elapsed() + started.elapsed();
        if gate.attempted >= MIN_SAMPLES && (next_end > deadline || gate.failed > 0) {
            break;
        }
    }
    if samples.is_empty() {
        return Err("every untraced sample failed".into());
    }
    let digest = digests[0].clone();
    for (i, d) in digests.iter().enumerate().skip(1) {
        if *d != digest {
            gate.fail(&format!(
                "sample {i} digest {d} differs from sample 0's {digest}"
            ));
        }
    }
    println!("digest: {digest} ({} scaffolds)", samples[0]["scaffolds"]);

    // Set-up is short and noisy: time it in extra set-up-only processes too.
    let mut setups: Vec<f64> = samples.iter().map(|s| s["setup_s"]).collect();
    for _ in 0..SETUP_ONLY_SAMPLES {
        let setup = Job {
            mode: Mode::Setup,
            ..job.clone()
        };
        if let Some((values, _)) = run_worker(&mut gate, &setup) {
            setups.push(values["setup_s"]);
        }
    }

    let series = |key: &str| -> Vec<f64> { samples.iter().map(|s| s[key]).collect() };
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let assemble_s = summary("assemble_s", "s", &series("assemble_s"));
    values.insert("assemble_s", assemble_s);
    values.insert("setup_s", summary("setup_s", "s", &setups));
    let rss: Vec<f64> = series("peak_rss_kb").iter().map(|kb| kb / 1024.0).collect();
    values.insert("peak_rss_mb", summary("peak_rss_mb", "MB", &rss));

    // The multi-rank assembly must equal the single-rank one.
    let mut efficiency = 1.0;
    if w.ranks() > 1 {
        let reference = Job {
            ranks: 1,
            ..job.clone()
        };
        if let Some((ref_values, ref_digest)) = run_worker(&mut gate, &reference) {
            if ref_digest != digest {
                gate.fail(&format!(
                    "{} ranks digest {digest} differs from 1 rank's {ref_digest}",
                    w.ranks()
                ));
            }
            efficiency = ref_values["assemble_s"] / (w.ranks() as f64 * assemble_s);
            println!(
                "1-rank reference: digest {ref_digest}, assemble_s {:.4} s",
                ref_values["assemble_s"]
            );
        }
    }

    let text = std::fs::read(&scaffolds_path).map_err(|e| format!("read scaffolds: {e}"))?;
    let seqs: Vec<Vec<u8>> = text
        .split(|&b| b == b'\n')
        .filter(|s| !s.is_empty())
        .map(<[u8]>::to_vec)
        .collect();
    let report = asm_metrics::evaluate(&seqs, &ds.refs, &mhm_bench::scaled_eval_params());
    println!("quality: {}", report.summary_line());
    values.insert("genome_fraction_pct", report.genome_fraction * 100.0);

    let table = if args.trace {
        values.insert("quality.scaffold_n50_bp", report.n50 as f64);
        values.insert("quality.misassemblies", report.misassemblies as f64);
        values.insert("quality.rrna_recovered", report.rrna_recovered as f64);
        values.insert("pgas.parallel_efficiency", efficiency);
        let trace_path = out_dir.join(format!("trace-{}-{}.tsv", w.name(), args.seed));
        let traced = Job {
            mode: Mode::Replay,
            trace_out: Some(trace_path.clone()),
            ..job.clone()
        };
        if let Some((layers, replay_digest)) = run_worker(&mut gate, &traced) {
            println!("trace: spans written to {}", trace_path.display());
            check_replay(&mut gate, &samples, &layers, &digest, &replay_digest);
            for metric in PER_LAYER {
                if let Some(v) = layers.get(&format!("layer.{}", metric.name)) {
                    values.insert(metric.name, *v);
                }
            }
            let traced_total = layers["layer.trace.total_s"];
            values.insert("trace.untraced_assemble_s", assemble_s);
            values.insert("trace.overhead_ratio", traced_total / assemble_s);
            println!(
                "trace: traced total {traced_total:.4} s vs untraced median assemble_s {assemble_s:.4} s"
            );
        }
        PER_LAYER
    } else {
        END_TO_END
    };

    let collected = metrics::collect(table, &values)?;
    let correct = gate.failed == 0;
    Ok((
        correct,
        metrics::render_result(correct, gate.attempted, gate.failed, &collected),
    ))
}

/// The replay must produce the untraced scaffolds, and each stage it replays
/// must look like the program's: present in both, with the same message and
/// byte counts where the untraced samples agree on them, and a time within
/// a factor of two (give or take 0.25 s) of the untraced median.
fn check_replay(
    gate: &mut Gate,
    samples: &[BTreeMap<String, f64>],
    replay: &BTreeMap<String, f64>,
    digest: &str,
    replay_digest: &str,
) {
    if replay_digest != digest {
        gate.fail(&format!(
            "replay digest {replay_digest} differs from the untraced {digest}; the replay has drifted from the pipeline"
        ));
        return;
    }
    let mut drift = Vec::new();
    let untraced_stages: Vec<&str> = samples[0]
        .keys()
        .filter_map(|k| k.strip_prefix("stage.")?.strip_suffix(".s"))
        .collect();
    for stage in &untraced_stages {
        if !STAGES.contains(stage) {
            drift.push(format!("program stage {stage} is not replayed"));
        }
    }
    for stage in STAGES {
        let key = |what: &str| format!("stage.{stage}.{what}");
        let replayed = replay[&key("s")];
        if !untraced_stages.contains(&stage) {
            if replayed > 0.0 {
                drift.push(format!(
                    "replayed stage {stage} does not run in the program"
                ));
            }
            continue;
        }
        let untraced: Vec<f64> = samples.iter().map(|s| s[&key("s")]).collect();
        let untraced = median(&untraced);
        println!("cross-check {stage}: replay {replayed:.4} s, untraced median {untraced:.4} s");
        if replayed > 2.0 * untraced + 0.25 || replayed < 0.5 * untraced - 0.25 {
            drift.push(format!(
                "{stage} took {replayed:.3} s replayed vs {untraced:.3} s"
            ));
        }
        for what in ["msgs", "bytes"] {
            let counts: Vec<f64> = samples.iter().map(|s| s[&key(what)]).collect();
            let steady = counts.iter().all(|c| *c == counts[0]);
            if steady && replay[&key(what)] != counts[0] {
                drift.push(format!(
                    "{stage} {what}: replay {} vs program {}",
                    replay[&key(what)],
                    counts[0]
                ));
            }
        }
    }
    if !drift.is_empty() {
        gate.fail(&format!(
            "replay drifted from the pipeline: {}",
            drift.join("; ")
        ));
    }
}
