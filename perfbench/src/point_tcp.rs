//! `point_tcp`: closed-loop point reads over TCP from a hot key set.
//!
//! Two connections, one thread each, send back to back. Half the reads
//! look up `customer` by key, half look up `orders` by customer key, all
//! under `CURRENCY BOUND 15 SEC`. CR1 is stalled, so the customer half
//! fails its guard and ships to the back-end over TCP; the orders half is
//! answered from CR2's view. Every statement is compiled during set-up and
//! the clock stands still, so the front-end, parse on a plan-cache hit,
//! the guard and the remote transport do most of the work.

use crate::layers::{self, ProbeSize, ReadRig};
use crate::rig::{self, Net, Usage};
use crate::stats::Samples;
use crate::{Opts, Outcome, OPS, READS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcc_common::{Duration as SimDuration, Row};
use rcc_executor::RemoteService;
use rcc_mtcache::MTCache;
use rcc_net::{ClientConfig, NetClient};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Table scale: 15k customers, ~150k orders.
pub const SCALE: f64 = 0.1;
/// Distinct customer keys the reads draw from.
pub const HOT_KEYS: usize = 256;
/// Currency bound of every read, seconds.
pub const BOUND_S: u32 = 15;
/// Closed-loop client connections, one thread each.
pub const CLIENTS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Statements in each replay of the traced run.
pub const REPLAY: usize = 2000;
/// The traced run's commit probe, at this workload's table size.
pub const PROBE: ProbeSize = ProbeSize {
    scale: SCALE,
    commits: 100,
    per_step: 4,
};

/// A rig ready to serve the hot statements.
pub struct Prepared {
    /// The cache.
    pub cache: Arc<MTCache>,
    /// Its TCP servers.
    pub net: Net,
    /// The hot statements, customer and orders alternating.
    pub stmts: Arc<Vec<String>>,
    /// Each statement's answer, read from the master at set-up.
    pub expected: Arc<Vec<Vec<Row>>>,
}

impl Prepared {
    fn teardown(self) {
        self.net.shutdown(&self.cache);
    }
}

/// Build the rig, stall CR1, compile every hot statement and capture its
/// answer from the master.
pub fn prepare(seed: u64) -> Result<Prepared, String> {
    let cache = rig::paper_rig(SCALE, None)?;
    let net = Net::spawn(&cache, true)?;
    cache.set_region_stalled("CR1", true);
    cache
        .advance(SimDuration::from_secs(90))
        .map_err(|e| format!("advance: {e}"))?;
    let keys = rig::hot_keys(HOT_KEYS, rig::customers(SCALE), seed);
    let stmts: Vec<String> = keys
        .iter()
        .flat_map(|&k| {
            [
                rig::point_sql(true, k, BOUND_S),
                rig::point_sql(false, k, BOUND_S),
            ]
        })
        .collect();
    let mut expected = Vec::with_capacity(stmts.len());
    for sql in &stmts {
        cache
            .execute(sql)
            .map_err(|e| format!("compile {sql}: {e}"))?;
        let (_, rows) = cache
            .backend()
            .query(rig::strip_currency(sql))
            .map_err(|e| format!("master answer for {sql}: {e}"))?;
        expected.push(rows);
    }
    Ok(Prepared {
        cache,
        net,
        stmts: Arc::new(stmts),
        expected: Arc::new(expected),
    })
}

/// What the closed loop, or one of its clients, saw.
#[derive(Default)]
struct Load {
    latency: Samples,
    local: u64,
    failed: u64,
}

fn client_loop(
    addr: SocketAddr,
    stmts: &[String],
    expected: &[Vec<Row>],
    seed: u64,
    start: &Barrier,
    seconds: f64,
) -> Result<Load, String> {
    let mut client =
        NetClient::connect(addr, &ClientConfig::default()).map_err(|e| format!("connect: {e}"))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tally = Load::default();
    start.wait();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let i = rng.gen_range(0..stmts.len());
        let sent = Instant::now();
        let answer = client.query(&stmts[i]);
        tally.latency.push(sent.elapsed());
        match answer {
            Ok(r) if rig::same_rows(&r.rows, &expected[i]) => {
                tally.local += u64::from(!r.used_remote)
            }
            _ => tally.failed += 1,
        }
    }
    Ok(tally)
}

/// Run the closed loop for `seconds`.
fn drive(prep: &Prepared, seed: u64, seconds: f64) -> Result<(Load, Usage), String> {
    let addr = prep.net.front.addr();
    let start = Barrier::new(CLIENTS + 1);
    let meter = rig::UsageMeter::start()?;
    let tallies = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let start = &start;
                let stmts = &prep.stmts;
                let expected = &prep.expected;
                s.spawn(move || {
                    client_loop(
                        addr,
                        stmts,
                        expected,
                        seed ^ (0x9e37 * (c as u64 + 1)),
                        start,
                        seconds,
                    )
                })
            })
            .collect();
        start.wait();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect::<Vec<_>>()
    });
    let usage = meter.finish()?;
    let mut total = Load::default();
    for t in tallies {
        let t = t?;
        total.latency.extend(&t.latency);
        total.local += t.local;
        total.failed += t.failed;
    }
    Ok((total, usage))
}

/// Run the workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::new(opts);
    out.describe("scale", SCALE.to_string());
    out.describe("hot_keys", HOT_KEYS.to_string());
    out.describe("clients", CLIENTS.to_string());
    out.describe("bound_s", BOUND_S.to_string());
    out.describe("loop", "\"closed\"".into());
    out.describe("sync_policy", "\"none (in-memory back-end)\"".into());
    let (prep, setups) = if opts.trace {
        (prepare(opts.seed)?, Vec::new())
    } else {
        rig::timed_setups(SETUPS, |_| prepare(opts.seed), Prepared::teardown)?
    };
    if !opts.trace {
        out.setup(&setups);
    }
    let shipped_before =
        rig::counter_sum(&prep.cache.metrics().snapshot(), "rcc_rows_shipped_total");
    let (load, usage) = drive(&prep, opts.seed, opts.seconds)?;
    let reads = load.latency.len() as u64;
    out.tally(reads, load.failed, &usage);
    out.cpu_per_op(&load.latency, &usage);
    out.loop_figures(OPS, &load.latency, &usage);
    out.loop_figures(READS, &load.latency, &usage);
    out.report
        .set_ratio("local_share", load.local as f64, reads);
    if opts.trace {
        let shipped = rig::counter_sum(&prep.cache.metrics().snapshot(), "rcc_rows_shipped_total")
            - shipped_before;
        out.report
            .set_ratio("backend.rows_shipped_per_read", shipped as f64, reads);
        out.closed_loop_lateness();
        out.staleness(&prep.cache);
        let mut client = NetClient::connect(prep.net.front.addr(), &ClientConfig::default())
            .map_err(|e| format!("connect: {e}"))?;
        let mut replay = ReadRig {
            cache: &prep.cache,
            client: &mut client,
            cache_remote: Arc::clone(&prep.net.remote) as Arc<dyn RemoteService>,
            tcp_remote: Arc::clone(&prep.net.remote),
            reads_over_tcp: true,
            advance_every: None,
            cold_plans: false,
        };
        let stmts = rig::sample(&prep.stmts, REPLAY, opts.seed ^ 0x5a);
        layers::measure(&mut out, &mut replay, &stmts, PROBE, opts.seed)?;
    }
    prep.teardown();
    Ok(out)
}
