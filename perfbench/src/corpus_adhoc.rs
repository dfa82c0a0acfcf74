//! `corpus_adhoc`: a closed loop of ad-hoc analytical reads.
//!
//! One thread calls `MTCache::execute` on a fresh, seeded
//! `currency_corpus` stream — point, range, aggregate and join shapes
//! under every clause shape. Fresh literals make most statements miss the
//! plan cache, so bind, optimize, the flow analysis and the batch
//! operators do the work. The simulated clock steps 1 s after every
//! [`ADVANCE_EVERY`] queries, so the guards sweep the whole region cycle.
//! Remote branches call the in-process back-end; there is no TCP.

use crate::layers::{self, ProbeSize, ReadRig};
use crate::rig::{self, Net, Usage};
use crate::stats::Samples;
use crate::{Opts, Outcome, OPS, READS};
use rcc_common::{Duration as SimDuration, Row};
use rcc_executor::RemoteService;
use rcc_mtcache::MTCache;
use rcc_net::{ClientConfig, NetClient};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Table scale: 15k customers, ~150k orders.
pub const SCALE: f64 = 0.1;
/// Queries between 1 s steps of the simulated clock.
pub const ADVANCE_EVERY: usize = 16;
/// Every this many queries, the answer is kept and checked afterwards.
pub const CHECK_EVERY: usize = 32;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Statements in each replay of the traced run.
pub const REPLAY: usize = 1200;
/// The traced run's commit probe, at this workload's table size.
pub const PROBE: ProbeSize = ProbeSize {
    scale: SCALE,
    commits: 100,
    per_step: 4,
};
/// Statements generated per chunk of the stream.
const CHUNK: usize = 256;

/// An endless seeded statement stream, generated a chunk at a time.
pub struct Stream {
    seed: u64,
    chunk: u64,
    max_key: i64,
    buf: VecDeque<String>,
}

impl Stream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Stream {
        Stream {
            seed,
            chunk: 0,
            max_key: rig::customers(SCALE) as i64,
            buf: VecDeque::new(),
        }
    }

    /// The next statement.
    pub fn next_sql(&mut self) -> String {
        if self.buf.is_empty() {
            self.chunk += 1;
            let chunk_seed = self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ self.chunk;
            self.buf
                .extend(rcc_tpcd::currency_corpus(CHUNK, chunk_seed, self.max_key));
        }
        self.buf.pop_front().expect("chunk is never empty")
    }

    /// The next `n` statements.
    pub fn take(&mut self, n: usize) -> Vec<String> {
        (0..n).map(|_| self.next_sql()).collect()
    }
}

fn step(cache: &MTCache) -> Result<(), String> {
    cache
        .advance(SimDuration::from_secs(1))
        .map_err(|e| format!("advance: {e}"))
}

/// The closed loop's totals.
struct Load {
    latency: Samples,
    local: u64,
    /// Errors, plus kept answers that differ from the back-end's.
    failed: u64,
    checked: usize,
}

/// Run the closed loop for `seconds`, then check the kept answers.
fn drive(cache: &MTCache, stream: &mut Stream, seconds: f64) -> Result<(Load, Usage), String> {
    let mut latency = Samples::new();
    let (mut local, mut failed) = (0, 0);
    let mut kept = Vec::new();
    let meter = rig::UsageMeter::start()?;
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut i = 0usize;
    while Instant::now() < deadline {
        let sql = stream.next_sql();
        let sent = Instant::now();
        let answer = cache.execute(&sql);
        latency.push(sent.elapsed());
        match answer {
            Ok(r) => {
                local += u64::from(!r.used_remote);
                if i.is_multiple_of(CHECK_EVERY) {
                    kept.push((sql, r.rows));
                }
            }
            Err(_) => failed += 1,
        }
        i += 1;
        if i.is_multiple_of(ADVANCE_EVERY) {
            step(cache)?;
        }
    }
    let usage = meter.finish()?;
    let load = Load {
        latency,
        local,
        failed: failed + wrong_answers(cache, &kept),
        checked: kept.len(),
    };
    Ok((load, usage))
}

/// Answers kept during the loop that differ from the back-end's answer to
/// the same query. Nothing writes, so the back-end's answer is the same
/// at any time.
fn wrong_answers(cache: &MTCache, kept: &[(String, Vec<Row>)]) -> u64 {
    kept.iter()
        .filter(
            |(sql, rows)| match cache.backend().query(rig::strip_currency(sql)) {
                Ok((_, truth)) => !rig::same_rows(rows, &truth),
                Err(_) => true,
            },
        )
        .count() as u64
}

/// Run the workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::new(opts);
    out.describe("scale", SCALE.to_string());
    out.describe("clients", "1".into());
    out.describe("queries_per_clock_step", ADVANCE_EVERY.to_string());
    out.describe("check_every", CHECK_EVERY.to_string());
    out.describe("loop", "\"closed\"".into());
    out.describe("sync_policy", "\"none (in-memory back-end)\"".into());
    let build = |_| rig::paper_rig(SCALE, None);
    let (cache, setups) = if opts.trace {
        (build(0)?, Vec::new())
    } else {
        rig::timed_setups(SETUPS, build, drop)?
    };
    if !opts.trace {
        out.setup(&setups);
    }
    let mut stream = Stream::new(opts.seed);
    let shipped_before = rig::counter_sum(&cache.metrics().snapshot(), "rcc_rows_shipped_total");
    let (load, usage) = drive(&cache, &mut stream, opts.seconds)?;
    let reads = load.latency.len() as u64;
    out.tally(reads, load.failed, &usage);
    out.describe("answers_checked", load.checked.to_string());
    out.cpu_per_op(&load.latency, &usage);
    out.loop_figures(OPS, &load.latency, &usage);
    out.loop_figures(READS, &load.latency, &usage);
    out.report
        .set_ratio("local_share", load.local as f64, reads);
    if !opts.trace {
        return Ok(out);
    }
    let shipped =
        rig::counter_sum(&cache.metrics().snapshot(), "rcc_rows_shipped_total") - shipped_before;
    out.report
        .set_ratio("backend.rows_shipped_per_read", shipped as f64, reads);
    out.closed_loop_lateness();
    out.staleness(&cache);

    // TCP servers exist only for the replay's round-trip and transport
    // probes; the cache's remote branch keeps calling in-process.
    let net = Net::spawn(&cache, false)?;
    let mut client = NetClient::connect(net.front.addr(), &ClientConfig::default())
        .map_err(|e| format!("connect: {e}"))?;
    let mut replay = ReadRig {
        cache: &cache,
        client: &mut client,
        cache_remote: Arc::clone(cache.backend()) as Arc<dyn RemoteService>,
        tcp_remote: Arc::clone(&net.remote),
        reads_over_tcp: false,
        advance_every: Some(ADVANCE_EVERY),
        cold_plans: true,
    };
    let stmts = stream.take(REPLAY);
    layers::measure(&mut out, &mut replay, &stmts, PROBE, opts.seed)?;
    drop(client);
    net.shutdown(&cache);
    Ok(out)
}
