//! `write_refresh`: back-to-back commits beside an open-loop reader.
//!
//! One writer thread commits `UpdateWorkload::next_change` (70 % customer
//! updates, 30 % order inserts) through `MasterDb::execute_txn` on a
//! durable back-end with group commit, and steps the simulated clock 1 s
//! after every [`COMMITS_PER_STEP`] commits, which runs the agents and the
//! heartbeats. Beside it one reader connection sends point statements over
//! TCP on a fixed schedule, its latency charged from each read's due time.
//! Both regions are healthy and bounds come from {10, 15, 30} s, so guards
//! take both branches.

use crate::layers::{self, ProbeSize, ReadRig};
use crate::rig::{self, Net, Usage};
use crate::stats::Samples;
use crate::{Opts, Outcome, OPS, READS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcc_backend::TableChange;
use rcc_common::Duration as SimDuration;
use rcc_executor::RemoteService;
use rcc_mtcache::MTCache;
use rcc_net::{ClientConfig, NetClient};
use rcc_tpcd::UpdateWorkload;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Table scale: 1.5k customers, ~15k orders.
pub const SCALE: f64 = 0.01;
/// Distinct customer keys the reader draws from.
pub const HOT_KEYS: usize = 128;
/// Currency bounds of the reads, seconds.
pub const BOUNDS_S: [u32; 3] = [10, 15, 30];
/// Commits between 1 s steps of the simulated clock.
pub const COMMITS_PER_STEP: usize = 10;
/// The reader's schedule, reads per second.
pub const READ_RATE: f64 = 30.0;
/// Set-ups per run; `setup_s` is their median. A durable set-up takes
/// ~0.1 s and its fsyncs make single ones noisy, so there are many.
pub const SETUPS: usize = 21;
/// Statements in each replay of the traced run.
pub const REPLAY: usize = 1200;
/// The traced run's commit probe.
pub const PROBE: ProbeSize = ProbeSize {
    scale: SCALE,
    commits: 400,
    per_step: COMMITS_PER_STEP,
};

/// A durable rig ready for the writer and the reader.
pub struct Prepared {
    cache: Arc<MTCache>,
    net: Net,
    stmts: Arc<Vec<String>>,
    dir: PathBuf,
}

impl Prepared {
    fn teardown(self) {
        self.net.shutdown(&self.cache);
        drop(self.cache);
        rig::remove_data_dir(&self.dir);
    }
}

fn prepare(seed: u64, setup: usize) -> Result<Prepared, String> {
    let dir = rig::fresh_data_dir(&format!("setup{setup}"))?;
    let cache = rig::paper_rig(SCALE, Some(&dir))?;
    let net = Net::spawn(&cache, true)?;
    let keys = rig::hot_keys(HOT_KEYS, rig::customers(SCALE), seed);
    let mut stmts = Vec::with_capacity(keys.len() * 2 * BOUNDS_S.len());
    for &k in &keys {
        for b in BOUNDS_S {
            stmts.push(rig::point_sql(true, k, b));
            stmts.push(rig::point_sql(false, k, b));
        }
    }
    for sql in &stmts {
        cache
            .execute(sql)
            .map_err(|e| format!("compile {sql}: {e}"))?;
    }
    Ok(Prepared {
        cache,
        net,
        stmts: Arc::new(stmts),
        dir,
    })
}

/// The writer's totals.
#[derive(Default)]
struct Writes {
    latency: Samples,
    failed: u64,
}

fn writer(cache: &MTCache, seed: u64, start: &Barrier, seconds: f64) -> Result<Writes, String> {
    let mut stream = UpdateWorkload::new(rig::customers(SCALE), seed);
    let mut out = Writes::default();
    start.wait();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut commits = 0usize;
    while Instant::now() < deadline {
        let (table, change) = stream.next_change();
        let sent = Instant::now();
        let committed = cache
            .master()
            .execute_txn(vec![TableChange::new(table, change)]);
        out.latency.push(sent.elapsed());
        out.failed += u64::from(committed.is_err());
        commits += 1;
        if commits.is_multiple_of(COMMITS_PER_STEP) {
            cache
                .advance(SimDuration::from_secs(1))
                .map_err(|e| format!("advance: {e}"))?;
        }
    }
    Ok(out)
}

/// The reader's totals.
#[derive(Default)]
struct Reads {
    latency: Samples,
    local: u64,
    late: u64,
    failed: u64,
}

fn reader(
    addr: SocketAddr,
    stmts: &[String],
    seed: u64,
    start: &Barrier,
    seconds: f64,
) -> Result<Reads, String> {
    let mut client =
        NetClient::connect(addr, &ClientConfig::default()).map_err(|e| format!("connect: {e}"))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Reads::default();
    let gap = Duration::from_secs_f64(1.0 / READ_RATE);
    let due_count = (seconds * READ_RATE) as u32;
    start.wait();
    let epoch = Instant::now();
    for k in 0..due_count {
        let due = epoch + gap * k;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        } else {
            out.late += 1;
        }
        let sql = &stmts[rng.gen_range(0..stmts.len())];
        match client.query(sql) {
            Ok(r) => out.local += u64::from(!r.used_remote),
            Err(_) => out.failed += 1,
        }
        // open loop: charged from the due time, so a stall delays the
        // reads queued behind it too
        out.latency.push(due.elapsed());
    }
    Ok(out)
}

/// One load phase and its checks.
struct Load {
    writes: Writes,
    reads: Reads,
    /// What the writer and the reader used.
    usage: Usage,
    /// Rows the back-end shipped to the cache meanwhile.
    shipped: u64,
    /// SLO violations, plus views that differ from the master after the
    /// drain.
    failed: u64,
}

/// Run the writer and the reader for `seconds`, then check that the
/// currency guarantee held and that, after a drain, every view matches.
fn drive(prep: &Prepared, seed: u64, seconds: f64) -> Result<Load, String> {
    let cache = &prep.cache;
    let shipped_before = rig::counter_sum(&cache.metrics().snapshot(), "rcc_rows_shipped_total");
    let start = Barrier::new(2);
    let addr = prep.net.front.addr();
    let meter = rig::UsageMeter::start()?;
    let (writes, reads) = std::thread::scope(|s| {
        let w = s.spawn(|| writer(cache, seed, &start, seconds));
        let r = s.spawn(|| reader(addr, &prep.stmts, seed ^ 0x7e, &start, seconds));
        let panicked = "load thread panicked".to_string();
        (
            w.join().unwrap_or_else(|_| Err(panicked.clone())),
            r.join().unwrap_or(Err(panicked)),
        )
    });
    let usage = meter.finish()?;
    let snap = cache.metrics().snapshot();
    let mut failed = snap.counter("rcc_slo_violations_total{sanctioned=\"no\"}");
    let shipped = rig::counter_sum(&snap, "rcc_rows_shipped_total") - shipped_before;
    cache
        .advance(SimDuration::from_secs(60))
        .map_err(|e| format!("drain: {e}"))?;
    failed += rig::views_differing(cache)?.len() as u64;
    Ok(Load {
        writes: writes?,
        reads: reads?,
        usage,
        shipped,
        failed,
    })
}

/// Run the workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::new(opts);
    out.describe("scale", SCALE.to_string());
    out.describe("hot_keys", HOT_KEYS.to_string());
    out.describe("bounds_s", format!("{BOUNDS_S:?}"));
    out.describe("commits_per_clock_step", COMMITS_PER_STEP.to_string());
    out.describe("read_rate_per_s", READ_RATE.to_string());
    out.describe("loop", "\"closed writer, open-loop reader\"".into());
    out.describe("sync_policy", "\"group\"".into());
    let (prep, setups) = if opts.trace {
        (prepare(opts.seed, 0)?, Vec::new())
    } else {
        rig::timed_setups(SETUPS, |i| prepare(opts.seed, i), Prepared::teardown)?
    };
    if !opts.trace {
        out.setup(&setups);
    }
    let load = drive(&prep, opts.seed, opts.seconds)?;
    let ops = load.writes.latency.len() + load.reads.latency.len();
    let failed = load.writes.failed + load.reads.failed + load.failed;
    out.tally(ops as u64, failed, &load.usage);
    let (writes, reads) = (&load.writes, &load.reads);
    let read_count = reads.latency.len() as u64;
    let cache = &prep.cache;
    let addr = prep.net.front.addr();

    out.cpu_per_op(&writes.latency, &load.usage);
    out.loop_figures(OPS, &writes.latency, &load.usage);
    // the open loop's rate is what it achieved against its schedule
    out.loop_figures(READS, &reads.latency, &load.usage);
    out.report
        .set_ratio("local_share", reads.local as f64, read_count);
    if opts.trace {
        out.report.set_ratio(
            "backend.rows_shipped_per_read",
            load.shipped as f64,
            read_count,
        );
        out.report
            .set_ratio("gen.late_share", reads.late as f64, read_count);
        out.staleness(cache);
        let mut client = NetClient::connect(addr, &ClientConfig::default())
            .map_err(|e| format!("connect: {e}"))?;
        let mut replay = ReadRig {
            cache,
            client: &mut client,
            cache_remote: Arc::clone(&prep.net.remote) as Arc<dyn RemoteService>,
            tcp_remote: Arc::clone(&prep.net.remote),
            reads_over_tcp: true,
            advance_every: Some(16),
            cold_plans: false,
        };
        let stmts = rig::sample(&prep.stmts, REPLAY, opts.seed ^ 0x5a);
        layers::measure(&mut out, &mut replay, &stmts, PROBE, opts.seed)?;
    }
    prep.teardown();
    Ok(out)
}
