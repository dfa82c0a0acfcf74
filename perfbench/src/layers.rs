//! The traced run: per-layer timing from the benchmark's own side.
//!
//! Nothing inside the program is instrumented. For each statement of a
//! fixed, seeded sample the replay calls each layer's public entry point
//! in pipeline order and records one span per call: name, start, end and
//! parent, with the spans of one statement sharing its id. Spans stay in
//! memory until the run ends. Layers the program runs inside one call
//! (the front-end around `MTCache::execute`, the transport around the
//! back-end's query) are timed as the difference of two spans taken on
//! the same statement.

use crate::metrics::Report;
use crate::rig::{self, same_rows};
use crate::stats::Samples;
use crate::Outcome;
use rcc_backend::TableChange;
use rcc_common::{Clock, Duration as SimDuration, Result as RccResult, Row, Schema};
use rcc_executor::{execute_plan, wire, ExecContext, RemoteService};
use rcc_mtcache::MTCache;
use rcc_net::{NetClient, TcpRemoteService};
use rcc_obs::TraceRef;
use rcc_tpcd::UpdateWorkload;
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Statement (or commit) the span belongs to.
    pub stmt: u32,
    /// Layer call.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, nanoseconds since the log began.
    pub start_ns: u64,
    /// End, nanoseconds since the log began (0 while open).
    pub end_ns: u64,
}

/// In-memory span store, written out once at the end of the run.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; close it with [`SpanLog::close`].
    pub fn open(&mut self, stmt: u32, name: &'static str, parent: Option<u32>) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            stmt,
            name,
            parent,
            start_ns,
            end_ns: 0,
        });
        (self.spans.len() - 1) as u32
    }

    /// Close span `id` and return its duration.
    pub fn close(&mut self, id: u32) -> Duration {
        let end = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        Duration::from_nanos(end - span.start_ns)
    }

    /// Time `f` as a closed span under `parent`.
    pub fn time<R>(
        &mut self,
        stmt: u32,
        name: &'static str,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let id = self.open(stmt, name, Some(parent));
        let out = f();
        (out, self.close(id))
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"stmt\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.stmt, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A [`RemoteService`] that remembers the SQL it forwards, so the replay
/// can time exactly the remote calls a statement made.
#[derive(Debug)]
struct RecordingRemote {
    inner: Arc<dyn RemoteService>,
    shipped: Mutex<Vec<String>>,
}

impl RecordingRemote {
    fn note(&self, sql: &str) {
        self.shipped
            .lock()
            .expect("recording lock poisoned")
            .push(sql.to_string());
    }

    fn take(&self) -> Vec<String> {
        std::mem::take(&mut *self.shipped.lock().expect("recording lock poisoned"))
    }
}

impl RemoteService for RecordingRemote {
    fn execute(&self, sql: &str) -> RccResult<(Schema, Vec<Row>)> {
        self.note(sql);
        self.inner.execute(sql)
    }

    fn execute_with_bytes(&self, sql: &str) -> RccResult<(Schema, Vec<Row>, u64)> {
        self.note(sql);
        self.inner.execute_with_bytes(sql)
    }

    fn execute_traced(
        &self,
        sql: &str,
        trace: Option<&TraceRef>,
    ) -> RccResult<(Schema, Vec<Row>, u64)> {
        self.note(sql);
        self.inner.execute_traced(sql, trace)
    }
}

/// What a read replay runs against.
pub struct ReadRig<'a> {
    /// The cache under test.
    pub cache: &'a Arc<MTCache>,
    /// A client of a front-end serving `cache`.
    pub client: &'a mut NetClient,
    /// The service the cache's remote branch calls.
    pub cache_remote: Arc<dyn RemoteService>,
    /// A TCP transport to the back-end listener, for the transport probe.
    pub tcp_remote: Arc<TcpRemoteService>,
    /// True when the workload's reads arrive over TCP: the top-level call
    /// is then the round trip, otherwise `MTCache::execute`.
    pub reads_over_tcp: bool,
    /// Advance the simulated clock 1 s after this many statements.
    pub advance_every: Option<usize>,
    /// Empty the plan cache before each replay, so a replay meets the
    /// same hits and misses however often the sample is replayed.
    pub cold_plans: bool,
}

impl ReadRig<'_> {
    /// Put the rig in the same state before every replay of a sample:
    /// the clock at the start of a replication cycle (lcm of the regions'
    /// 15 s and 10 s intervals) when it moves, and optionally no plans.
    fn reset(&self) -> Result<(), String> {
        if self.advance_every.is_some() {
            let into_cycle = self.cache.clock().now().millis().rem_euclid(30_000);
            if into_cycle > 0 {
                self.cache
                    .advance(SimDuration::from_millis(30_000 - into_cycle))
                    .map_err(|e| format!("advance: {e}"))?;
            }
        }
        if self.cold_plans {
            self.cache.plan_cache().invalidate();
        }
        Ok(())
    }
}

/// Per-layer samples and counts gathered by [`replay_traced`].
#[derive(Debug, Default)]
struct ReadLayers {
    /// Top-level call as timed inside the traced replay.
    pub top: Samples,
    roundtrip: Samples,
    frontend: Samples,
    transport: Samples,
    parse: Samples,
    execute: Samples,
    compile: Samples,
    flow: Samples,
    exec: Samples,
    remote_ship: Samples,
    encode: Samples,
    decode: Samples,
    backend_query: Samples,
    wire_bytes: u64,
    reads: u64,
    guard_evals: u64,
    guard_ns: u64,
    rows: u64,
    plan_hits: u64,
    attributed_ns: u128,
    top_ns: u128,
    /// Statements that failed or whose answers disagreed across layers.
    pub failed: u64,
}

impl ReadLayers {
    /// Put every read-side per-layer metric into `report`; `untraced` is
    /// the top-level call timed without the layer calls around it.
    fn report(&self, report: &mut Report, untraced: &Samples) {
        report.set_quantile("net.roundtrip_p50_us", &self.roundtrip, 0.5);
        report.set_quantile("net.roundtrip_p99_us", &self.roundtrip, 0.99);
        report.set_quantile("net.frontend_p50_us", &self.frontend, 0.5);
        report.set_quantile("net.remote_transport_p50_us", &self.transport, 0.5);
        report.set_ratio(
            "net.wire_bytes_per_read",
            self.wire_bytes as f64,
            self.reads,
        );
        report.set_quantile("sql.parse_p50_us", &self.parse, 0.5);
        report.set_quantile("mtcache.execute_p50_us", &self.execute, 0.5);
        report.set_quantile("mtcache.execute_p99_us", &self.execute, 0.99);
        report.set_ratio(
            "mtcache.plan_cache_hit_share",
            self.plan_hits as f64,
            self.reads,
        );
        report.set_quantile("mtcache.backend_query_p50_us", &self.backend_query, 0.5);
        report.set_quantile("optimizer.compile_p50_us", &self.compile, 0.5);
        report.set_quantile("optimizer.compile_p99_us", &self.compile, 0.99);
        report.set_quantile("flow.analyze_p50_us", &self.flow, 0.5);
        report.set_quantile("executor.exec_p50_us", &self.exec, 0.5);
        report.set_quantile("executor.exec_p99_us", &self.exec, 0.99);
        report.set_ratio(
            "executor.guard_evals_per_read",
            self.guard_evals as f64,
            self.reads,
        );
        report.set_ratio(
            "executor.guard_ns_per_eval",
            self.guard_ns as f64,
            self.guard_evals,
        );
        report.set_quantile("executor.remote_ship_p50_us", &self.remote_ship, 0.5);
        report.set_quantile("executor.wire_encode_p50_us", &self.encode, 0.5);
        report.set_quantile("executor.wire_decode_p50_us", &self.decode, 0.5);
        report.set_ratio(
            "executor.rows_returned_per_read",
            self.rows as f64,
            self.reads,
        );
        if self.top_ns == 0 {
            report.error("trace.attributed_share: no top-level time".into());
        } else {
            report.set(
                "trace.attributed_share",
                self.attributed_ns as f64 / self.top_ns as f64,
                self.reads,
            );
        }
        match (self.top.quantile_us(0.5), untraced.quantile_us(0.5)) {
            (Ok(traced), Ok(plain)) if plain > 0.0 => report.set(
                "trace.overhead_share",
                traced / plain - 1.0,
                untraced.len() as u64,
            ),
            (Err(e), _) | (_, Err(e)) => report.error(format!("trace.overhead_share: {e}")),
            _ => report.error("trace.overhead_share: zero untraced time".into()),
        }
    }
}

fn advance_clock(cache: &MTCache) -> Result<(), String> {
    cache
        .advance(SimDuration::from_secs(1))
        .map_err(|e| format!("advance: {e}"))
}

/// Replay `stmts` through every read layer, recording spans in `log`.
fn replay_traced(
    rig: &mut ReadRig<'_>,
    stmts: &[String],
    log: &mut SpanLog,
) -> Result<ReadLayers, String> {
    let mut out = ReadLayers::default();
    let cache = rig.cache;
    let clock: Arc<dyn Clock> = Arc::new(cache.clock().clone());
    let no_params = HashMap::new();
    rig.reset()?;
    for (i, sql) in stmts.iter().enumerate() {
        if rig.advance_every.is_some_and(|n| i > 0 && i % n == 0) {
            advance_clock(cache)?;
        }
        let id = i as u32;
        let root = log.open(id, "statement", None);
        out.reads += 1;

        // MTCache::execute in the plan cache's natural state
        let (hits_before, _) = cache.plan_cache().stats();
        let (answer, t_execute) = log.time(id, "mtcache.execute", root, || cache.execute(sql));
        let hit = cache.plan_cache().stats().0 > hits_before;
        let Ok(answer) = answer else {
            out.failed += 1;
            log.close(root);
            continue;
        };
        out.execute.push(t_execute);
        out.plan_hits += u64::from(hit);
        out.rows += answer.rows.len() as u64;

        // the same statement over TCP; the front-end now finds its plan
        let (net, t_roundtrip) = log.time(id, "net.roundtrip", root, || rig.client.query(sql));
        let t_execute_hit = if hit {
            t_execute
        } else {
            let (again, t) = log.time(id, "mtcache.execute_hit", root, || cache.execute(sql));
            if again.is_err() {
                out.failed += 1;
            }
            t
        };
        match net {
            Ok(net) => {
                out.wire_bytes += net.wire_bytes;
                out.failed += u64::from(!same_rows(&net.rows, &answer.rows));
            }
            Err(_) => out.failed += 1,
        }
        out.roundtrip.push(t_roundtrip);
        let t_frontend = t_roundtrip.saturating_sub(t_execute_hit);
        out.frontend.push(t_frontend);

        let (parsed, t_parse) = log.time(id, "sql.parse", root, || rcc_sql::parse_statement(sql));
        black_box(parsed.is_ok());
        out.parse.push(t_parse);

        // EXPLAIN parses, binds and optimizes; compile = explain - parse
        let (optimized, t_explain) = log.time(id, "mtcache.explain", root, || {
            cache.explain(sql, &no_params)
        });
        let Ok(optimized) = optimized else {
            out.failed += 1;
            log.close(root);
            continue;
        };
        let t_compile = t_explain.saturating_sub(t_parse);
        out.compile.push(t_compile);

        let (elided, t_flow) = log.time(id, "flow.analyze", root, || {
            let flow = rcc_flow::analyze(cache.catalog(), &optimized.plan);
            rcc_flow::elide(&optimized.plan, &flow)
        });
        black_box(elided);
        out.flow.push(t_flow);

        let recording = Arc::new(RecordingRemote {
            inner: Arc::clone(&rig.cache_remote),
            shipped: Mutex::new(Vec::new()),
        });
        let ctx = ExecContext::new(
            Arc::clone(cache.cache_storage()),
            Some(Arc::clone(&recording) as Arc<dyn RemoteService>),
            Arc::clone(&clock),
        );
        let (result, t_exec) = log.time(id, "executor.exec", root, || {
            execute_plan(&optimized.plan, &ctx)
        });
        let Ok(result) = result else {
            out.failed += 1;
            log.close(root);
            continue;
        };
        out.failed += u64::from(!same_rows(&result.rows, &answer.rows));
        out.exec.push(t_exec);
        out.guard_evals += ctx.meter.guard_eval_count();
        out.guard_ns += u64::try_from(ctx.meter.guard_eval().as_nanos()).unwrap_or(u64::MAX);
        if ctx
            .meter
            .remote_queries
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0
        {
            out.remote_ship.push(ctx.meter.remote_ship());
        }

        let (bytes, t_encode) = log.time(id, "executor.wire_encode", root, || {
            wire::encode_result(&result.schema, &result.rows)
        });
        out.encode.push(t_encode);
        let (decoded, t_decode) = log.time(id, "executor.wire_decode", root, || {
            wire::decode_result(bytes)
        });
        out.failed += u64::from(decoded.is_err());
        out.decode.push(t_decode);

        for shipped in recording.take() {
            let (payload, t_backend) = log.time(id, "mtcache.backend_query", root, || {
                cache.backend().query_wire(&shipped)
            });
            let (over_tcp, t_tcp) = log.time(id, "net.tcp_remote", root, || {
                rig.tcp_remote.execute(&shipped)
            });
            out.failed += u64::from(payload.is_err() || over_tcp.is_err());
            out.backend_query.push(t_backend);
            out.transport.push(t_tcp.saturating_sub(t_backend));
        }
        log.close(root);

        // the top-level call and the disjoint layer times inside it
        let (top, inner) = if rig.reads_over_tcp {
            // the round trip's server side hit the plan cache
            (t_roundtrip, t_frontend + t_parse + t_exec)
        } else if hit {
            (t_execute, t_parse + t_exec)
        } else {
            (t_execute, t_parse + t_compile + t_flow + t_exec)
        };
        out.top.push(top);
        out.top_ns += top.as_nanos();
        out.attributed_ns += inner.as_nanos();
    }
    Ok(out)
}

/// Replay `stmts` calling only the top-level layer, untimed otherwise;
/// returns its latencies and the number of failed statements.
fn replay_untraced(rig: &mut ReadRig<'_>, stmts: &[String]) -> Result<(Samples, u64), String> {
    let mut top = Samples::new();
    let mut failed = 0;
    rig.reset()?;
    for (i, sql) in stmts.iter().enumerate() {
        if rig.advance_every.is_some_and(|n| i > 0 && i % n == 0) {
            advance_clock(rig.cache)?;
        }
        let started = Instant::now();
        let ok = if rig.reads_over_tcp {
            rig.client.query(sql).is_ok()
        } else {
            rig.cache.execute(sql).is_ok()
        };
        top.push(started.elapsed());
        failed += u64::from(!ok);
    }
    Ok((top, failed))
}

/// The traced run's layer measurements, after the workload's load: replay
/// `stmts` untraced and then traced on `rig`, run the commit probe, and
/// put every per-layer metric, failure and span count into `out`.
pub fn measure(
    out: &mut Outcome,
    rig: &mut ReadRig<'_>,
    stmts: &[String],
    probe: ProbeSize,
    seed: u64,
) -> Result<(), String> {
    let mut log = SpanLog::new();
    let (untraced, failed) = replay_untraced(rig, stmts)?;
    let traced = replay_traced(rig, stmts, &mut log)?;
    out.attempted += 2 * stmts.len() as u64;
    out.failed += failed + traced.failed;
    traced.report(&mut out.report, &untraced);
    let commits = commit_probe(probe, seed, &mut log)?;
    out.attempted += 2 * probe.commits as u64;
    out.failed += commits.failed;
    commits.report(&mut out.report);
    out.spans(&log);
    Ok(())
}

/// Size of a commit probe.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSize {
    /// Table scale of the probe rigs.
    pub scale: f64,
    /// Commits per rig: 7 customer updates, then 3 order inserts, per 10.
    pub commits: usize,
    /// Commits between 1 s clock steps.
    pub per_step: usize,
}

/// Write-path samples from [`commit_probe`].
#[derive(Debug, Default)]
struct CommitLayers {
    update: Samples,
    insert: Samples,
    durable: Samples,
    memory: Samples,
    cycles: Samples,
    wal_bytes: u64,
    fsyncs: u64,
    publishes: u64,
    commits: u64,
    applied: u64,
    /// Commits that failed, plus views that differed after the drain.
    pub failed: u64,
}

impl CommitLayers {
    /// Put every write-side per-layer metric into `report`.
    fn report(&self, report: &mut Report) {
        report.set_quantile("backend.commit_update_p50_us", &self.update, 0.5);
        report.set_quantile("backend.commit_insert_p50_us", &self.insert, 0.5);
        match (self.insert.quantile_us(0.5), self.update.quantile_us(0.5)) {
            (Ok(i), Ok(u)) if u > 0.0 => report.set(
                "backend.insert_over_update",
                i / u,
                (self.insert.len() + self.update.len()) as u64,
            ),
            (Err(e), _) | (_, Err(e)) => report.error(format!("backend.insert_over_update: {e}")),
            _ => report.error("backend.insert_over_update: zero update time".into()),
        }
        report.set_ratio(
            "storage.wal_bytes_per_commit",
            self.wal_bytes as f64,
            self.commits,
        );
        report.set_ratio(
            "storage.fsyncs_per_commit",
            self.fsyncs as f64,
            self.commits,
        );
        report.set_ratio(
            "storage.publishes_per_commit",
            self.publishes as f64,
            self.commits,
        );
        match (self.durable.quantile_us(0.5), self.memory.quantile_us(0.5)) {
            (Ok(d), Ok(m)) if d > 0.0 => report.set(
                "storage.wal_share",
                (d - m) / d,
                (self.durable.len() + self.memory.len()) as u64,
            ),
            (Err(e), _) | (_, Err(e)) => report.error(format!("storage.wal_share: {e}")),
            _ => report.error("storage.wal_share: zero durable time".into()),
        }
        report.set_quantile("replication.cycle_p50_us", &self.cycles, 0.5);
        report.set_ratio(
            "replication.txns_applied_per_cycle",
            self.applied as f64,
            self.cycles.len() as u64,
        );
    }
}

/// Commit one seeded stream on a fresh durable (group-commit) rig and
/// again on a fresh in-memory rig, stepping the clock every
/// `size.per_step` commits; then drain replication and check every view
/// against the master. Spans of the durable pass go to `log`.
fn commit_probe(size: ProbeSize, seed: u64, log: &mut SpanLog) -> Result<CommitLayers, String> {
    let mut out = CommitLayers::default();
    let customers = rig::customers(size.scale);
    for durable in [true, false] {
        let dir = if durable {
            Some(rig::fresh_data_dir("probe")?)
        } else {
            None
        };
        let cache = rig::paper_rig(size.scale, dir.as_deref())?;
        let store = cache.master().durability();
        let master = cache.master().storage();
        let mut stream = UpdateWorkload::new(customers, seed);
        let applied_before = rig::counter_sum(
            &cache.metrics().snapshot(),
            "rcc_replication_txns_applied_total",
        );
        for i in 0..size.commits {
            let insert = i % 10 >= 7;
            let (table, change) = if insert {
                stream.order_insert()
            } else {
                stream.customer_update()
            };
            let txn = vec![TableChange::new(table, change)];
            let wal_before = store
                .as_ref()
                .map_or((0, 0), |s| (s.wal_bytes(), s.wal_fsyncs()));
            let publishes_before = master.total_publishes();
            let id = log.open(
                i as u32,
                if insert {
                    "commit_insert"
                } else {
                    "commit_update"
                },
                None,
            );
            let committed = cache.master().execute_txn(txn);
            let took = log.close(id);
            if committed.is_err() {
                out.failed += 1;
                continue;
            }
            if durable {
                let wal_after = store
                    .as_ref()
                    .map_or((0, 0), |s| (s.wal_bytes(), s.wal_fsyncs()));
                out.wal_bytes += wal_after.0.saturating_sub(wal_before.0);
                out.fsyncs += wal_after.1.saturating_sub(wal_before.1);
                out.publishes += master.total_publishes() - publishes_before;
                out.commits += 1;
                if insert {
                    out.insert.push(took);
                } else {
                    out.update.push(took);
                }
                out.durable.push(took);
            } else {
                out.memory.push(took);
            }
            if (i + 1) % size.per_step == 0 {
                let id = log.open(i as u32, "replication.cycle", None);
                let stepped = advance_clock(&cache);
                let took = log.close(id);
                stepped?;
                if durable {
                    out.cycles.push(took);
                }
            }
        }
        if durable {
            out.applied += rig::counter_sum(
                &cache.metrics().snapshot(),
                "rcc_replication_txns_applied_total",
            ) - applied_before;
        }
        // drain: two full lcm(15, 10) s cycles carry every commit over
        cache
            .advance(SimDuration::from_secs(60))
            .map_err(|e| format!("drain: {e}"))?;
        out.failed += rig::views_differing(&cache)?.len() as u64;
        drop(store);
        drop(cache);
        if let Some(dir) = dir {
            rig::remove_data_dir(&dir);
        }
    }
    Ok(out)
}
