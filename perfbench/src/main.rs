//! The repository benchmark.
//!
//! ```sh
//! python3 perfbench/run.py --workload point_tcp --seed 1 --seconds 35 --trace 0
//! ```
//!
//! `run.py` builds this package and runs it from the repository root. A
//! run builds the paper rig, drives one named workload for `--seconds`,
//! checks every answer it can, and prints a table, a self-describing
//! record and, as its last line, the result object. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` runs the same load once more and
//! then replays seeded samples through each layer to report the
//! per-layer metrics (see `metrics.rs`).
//!
//! Exit codes: 0 when every check passed, 1 when an answer check failed
//! (the result is still printed, with `"correct": false`), 2 when the
//! benchmark could not measure (nothing is printed as a result).

mod corpus_adhoc;
mod layers;
mod metrics;
mod point_tcp;
mod rig;
mod stats;
mod write_refresh;

use metrics::{json_str, MetricDef, Report, END_TO_END, PER_LAYER};
use rcc_mtcache::MTCache;
use rig::Usage;
use stats::Samples;
use std::process::ExitCode;

/// The workloads, each with the one-line reason it exists.
const WORKLOADS: &[(&str, &str)] = &[
    (
        "point_tcp",
        "hot point reads over TCP whose plans stay cached: the front-end, parse, guard and remote transport do the work",
    ),
    (
        "corpus_adhoc",
        "ad-hoc corpus reads that mostly miss the plan cache: bind, optimize, flow analysis and batch operators do the work",
    ),
    (
        "write_refresh",
        "durable commits and replication refresh beside open-loop TCP reads: the only workload that writes",
    ),
];

/// Names of the closed-loop operation's rate, median and p99.
pub const OPS: [&str; 3] = ["gen.op_per_s", "op_p50_us", "gen.op_p99_us"];
/// Names of the reads' rate, median and p99.
pub const READS: [&str; 3] = ["gen.read_per_s", "read_p50_us", "gen.read_p99_us"];

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// Seconds of measured load.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Commit of the source under test, if known.
    pub commit: Option<String>,
    /// Digest of the source under test, if known.
    pub source: Option<String>,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: f64::NAN,
        trace: false,
        commit: None,
        source: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value}")),
                }
            }
            "--commit" => opts.commit = Some(value),
            "--source" => opts.source = Some(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.iter().any(|(w, _)| *w == opts.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    if opts.seconds.is_nan() {
        return Err("--seconds is required (BENCHMARK.json's run_seconds)".into());
    }
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(opts)
}

/// What a workload run produced.
pub struct Outcome {
    /// Metric values.
    pub report: Report,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: errors, refusals and wrong answers.
    pub failed: u64,
    describe: Vec<(&'static str, String)>,
}

impl Outcome {
    /// An empty outcome for `opts`.
    pub fn new(opts: &Opts) -> Outcome {
        Outcome {
            report: Report::new(),
            attempted: 0,
            failed: 0,
            describe: vec![("seconds", opts.seconds.to_string())],
        }
    }

    /// Add `key: value` (a JSON literal) to the self-describing record.
    pub fn describe(&mut self, key: &'static str, value: String) {
        self.describe.push((key, value));
    }

    /// Report `setup_s` as the median of the timed set-ups, and
    /// `peak_rss_mb` as the peak resident memory so far: the loaded rig.
    /// Growth during the load is left out, since it scales with the work
    /// a run completes (cached plans, for one) and a faster program would
    /// read as a bigger one.
    pub fn setup(&mut self, seconds: &[f64]) {
        self.describe("setups", seconds.len().to_string());
        self.report
            .set("setup_s", stats::median(seconds), seconds.len() as u64);
        match rig::peak_rss_mib() {
            Ok(mib) => self.report.set("peak_rss_mb", mib, 1),
            Err(e) => self.report.error(format!("peak_rss_mb: {e}")),
        }
    }

    /// Report a loop's rate, median and p99 under `names`, over a phase
    /// that ran `usage.seconds`.
    pub fn loop_figures(&mut self, names: [&'static str; 3], latency: &Samples, usage: &Usage) {
        let n = latency.len() as u64;
        self.report.set(names[0], n as f64 / usage.seconds, n);
        self.report.set_quantile(names[1], latency, 0.5);
        self.report.set_quantile(names[2], latency, 0.99);
    }

    /// Report `cpu_us_per_op`: the whole process's CPU time during the
    /// phase (clients, servers, agents) per operation completed.
    pub fn cpu_per_op(&mut self, ops: &Samples, usage: &Usage) {
        self.report
            .set_ratio("cpu_us_per_op", usage.cpu_s * 1e6, ops.len() as u64);
    }

    /// Count a load phase's operations and failures, and note the share
    /// of the machine the hypervisor stole meanwhile.
    pub fn tally(&mut self, attempted: u64, failed: u64, usage: &Usage) {
        self.attempted += attempted;
        self.failed += failed;
        self.describe("stolen_share", format!("{:.4}", usage.stolen));
    }

    /// Report `gen.late_share` for a closed loop, where nothing is
    /// scheduled and so nothing can run late: 0 over 0 dispatches, marked
    /// in the record as not applicable.
    pub fn closed_loop_lateness(&mut self) {
        self.report.set("gen.late_share", 0.0, 0);
        self.describe("late_share", "\"not applicable: closed loop\"".into());
    }

    /// Report delivered staleness, merged over every region's histogram.
    pub fn staleness(&mut self, cache: &MTCache) {
        let snap = cache.metrics().snapshot();
        let parts: Vec<_> = snap
            .values
            .keys()
            .filter(|k| k.starts_with("rcc_delivered_staleness_seconds{"))
            .filter_map(|k| snap.histogram(k))
            .collect();
        let merged = match stats::merge_histograms(&parts) {
            Ok(m) => m,
            Err(e) => return self.report.error(format!("staleness_p50_s: {e}")),
        };
        for (name, q) in [("staleness_p50_s", 0.5), ("staleness_p99_s", 0.99)] {
            match stats::histogram_quantile(&merged, q) {
                Ok(v) => self.report.set(name, v, merged.count),
                Err(e) => self.report.error(format!("{name}: {e}")),
            }
        }
    }

    /// Write the traced run's spans out and note where they went.
    pub fn spans(&mut self, log: &layers::SpanLog) {
        let path = rig::work_dir().join(format!("spans-{}.jsonl", std::process::id()));
        match log.write(&path) {
            Ok(()) => {
                self.describe("spans", log.len().to_string());
                self.describe("span_file", json_str(&path.display().to_string()));
            }
            Err(e) => self
                .report
                .error(format!("span file {}: {e}", path.display())),
        }
    }
}

fn run(opts: &Opts) -> Result<Outcome, String> {
    match opts.workload.as_str() {
        "point_tcp" => point_tcp::run(opts),
        "corpus_adhoc" => corpus_adhoc::run(opts),
        "write_refresh" => write_refresh::run(opts),
        other => Err(format!("unknown workload {other}")),
    }
}

fn record(opts: &Opts, out: &Outcome, rows: &[(&MetricDef, metrics::Reading)]) -> String {
    let why = WORKLOADS
        .iter()
        .find(|(w, _)| *w == opts.workload)
        .map_or("", |(_, why)| why);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut fields = vec![
        ("workload", json_str(&opts.workload)),
        ("why", json_str(why)),
        ("seed", opts.seed.to_string()),
        ("trace", opts.trace.to_string()),
        ("nproc", nproc.to_string()),
        ("data_seed", rig::DATA_SEED.to_string()),
        (
            "git_commit",
            opts.commit.as_deref().map_or("null".into(), json_str),
        ),
        (
            "source_sha256",
            opts.source.as_deref().map_or("null".into(), json_str),
        ),
    ];
    fields.extend(out.describe.iter().map(|(k, v)| (*k, v.clone())));
    let samples: Vec<String> = rows
        .iter()
        .map(|(d, r)| format!("{}:{}", json_str(d.name), r.samples))
        .collect();
    let samples = format!("{{{}}}", samples.join(","));
    fields.push(("samples", samples));
    if opts.trace {
        let predictions: Vec<String> = rows
            .iter()
            .map(|(d, _)| {
                format!(
                    "{}:{{\"moves\":{},\"holds\":{}}}",
                    json_str(d.name),
                    json_str(d.moves),
                    json_str(d.holds)
                )
            })
            .collect();
        fields.push(("predictions", format!("{{{}}}", predictions.join(","))));
    }
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!("{{\"record\":{{{}}}}}", body.join(","))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", opts.workload);
            return ExitCode::from(2);
        }
    };
    let defs = if opts.trace { PER_LAYER } else { END_TO_END };
    let rows = match out.report.select(defs) {
        Ok(rows) => rows,
        Err(errors) => {
            for e in errors {
                eprintln!("perfbench: {e}");
            }
            return ExitCode::from(2);
        }
    };
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "perfbench {} seed {} trace {}: {} attempted, {} failed",
        opts.workload,
        opts.seed,
        u8::from(opts.trace),
        out.attempted,
        out.failed
    );
    for (d, r) in &rows {
        println!(
            "  {:<36} {:>16.4} {:<6} n={}",
            d.name, r.value, d.unit, r.samples
        );
    }
    // measured in this mode too, but reported in the other mode's result
    for (d, r) in out.report.others(defs) {
        println!(
            "  {:<36} {:>16.4} {:<6} n={} (also measured)",
            d.name, r.value, d.unit, r.samples
        );
    }
    println!("{}", record(&opts, &out, &rows));
    let metrics: Vec<String> = rows
        .iter()
        .map(|(d, r)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(d.name),
                r.value,
                json_str(d.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
