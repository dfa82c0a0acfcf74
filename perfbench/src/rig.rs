//! The paper rig and the pieces every workload shares: the TCP servers,
//! the point statements, timed set-up and the answer checks.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcc_common::{Row, Value};
use rcc_executor::RemoteService;
use rcc_mtcache::paper::{paper_setup, paper_setup_durable, warm_up, DurabilityOptions};
use rcc_mtcache::MTCache;
use rcc_net::{
    BackendNetServer, NetServer, NetServerConfig, PoolConfig, RetryPolicy, TcpRemoteService,
};
use rcc_obs::MetricsSnapshot;
use rcc_storage::SyncPolicy;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Seed of the generated TPC-D tables. Fixed, so every workload seed reads
/// the same data and only the statement and commit streams vary.
pub const DATA_SEED: u64 = 42;

/// Customers at `scale` (the generator's rounding).
pub fn customers(scale: f64) -> u64 {
    rcc_tpcd::TpcdGenerator::new(scale, DATA_SEED).customer_count()
}

/// Where the benchmark keeps scratch state: data directories and span
/// files, under the directory it runs from.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

/// A fresh, empty data directory for a durable back-end.
pub fn fresh_data_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = work_dir().join(format!("data-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Remove a data directory made by [`fresh_data_dir`].
pub fn remove_data_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Build the warmed-up paper rig; durable with group commit when
/// `data_dir` is given.
pub fn paper_rig(scale: f64, data_dir: Option<&Path>) -> Result<Arc<MTCache>, String> {
    let cache = match data_dir {
        Some(dir) => paper_setup_durable(
            scale,
            DATA_SEED,
            DurabilityOptions {
                data_dir: dir.to_path_buf(),
                sync: SyncPolicy::Group,
            },
        ),
        None => paper_setup(scale, DATA_SEED),
    }
    .map_err(|e| format!("paper rig: {e}"))?;
    warm_up(&cache).map_err(|e| format!("warm-up: {e}"))?;
    Ok(Arc::new(cache))
}

/// The TCP side of a rig: the back-end behind its listener, the pooled
/// transport the cache's remote branch ships over, and the front-end.
pub struct Net {
    /// Front-end serving the cache.
    pub front: NetServer,
    /// Transport to the back-end listener.
    pub remote: Arc<TcpRemoteService>,
    /// Back-end listener.
    pub backend: BackendNetServer,
}

impl Net {
    /// Spawn both servers on ephemeral loopback ports. With `install`, the
    /// cache's remote branch ships over the TCP transport; otherwise it
    /// keeps calling the in-process back-end.
    pub fn spawn(cache: &Arc<MTCache>, install: bool) -> Result<Net, String> {
        let backend = BackendNetServer::spawn(Arc::clone(cache.backend()), "127.0.0.1:0")
            .map_err(|e| format!("back-end listener: {e}"))?;
        let remote = Arc::new(
            TcpRemoteService::new(
                backend.addr(),
                PoolConfig::default(),
                RetryPolicy::default(),
            )
            .map_err(|e| format!("transport: {e}"))?,
        );
        if install {
            remote.set_metrics(Arc::clone(cache.metrics()));
            cache.set_remote_service(Some(Arc::clone(&remote) as Arc<dyn RemoteService>));
        }
        let front = NetServer::spawn(Arc::clone(cache), "127.0.0.1:0", NetServerConfig::default())
            .map_err(|e| format!("front-end: {e}"))?;
        Ok(Net {
            front,
            remote,
            backend,
        })
    }

    /// Stop both servers and join their threads. Clients must have
    /// disconnected first.
    pub fn shutdown(mut self, cache: &MTCache) {
        self.front.shutdown();
        cache.set_remote_service(None);
        drop(self.remote);
        self.backend.shutdown();
    }
}

/// Run `build` `count` times, tearing each result down before the next
/// build; returns the last result and every build's seconds.
pub fn timed_setups<T>(
    count: usize,
    mut build: impl FnMut(usize) -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(count);
    let mut kept = None;
    for i in 0..count {
        if let Some(old) = kept.take() {
            teardown(old);
        }
        let started = Instant::now();
        kept = Some(build(i)?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one build"), times))
}

/// A point lookup on `customer` by key (`customer_side`) or on `orders` by
/// customer key, under a currency bound of `bound_s` seconds.
pub fn point_sql(customer_side: bool, key: i64, bound_s: u32) -> String {
    if customer_side {
        format!(
            "SELECT c_acctbal FROM customer WHERE c_custkey = {key} \
             CURRENCY BOUND {bound_s} SEC ON (customer)"
        )
    } else {
        format!(
            "SELECT o_totalprice FROM orders WHERE o_custkey = {key} \
             CURRENCY BOUND {bound_s} SEC ON (orders)"
        )
    }
}

/// `n` distinct customer keys in `1..=max`, drawn from `seed`.
pub fn hot_keys(n: usize, max: u64, seed: u64) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys = BTreeSet::new();
    while keys.len() < n.min(max as usize) {
        keys.insert(rng.gen_range(1..=max) as i64);
    }
    keys.into_iter().collect()
}

/// `n` statements drawn with replacement from `stmts`, seeded.
pub fn sample(stmts: &[String], n: usize, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| stmts[rng.gen_range(0..stmts.len())].clone())
        .collect()
}

/// The statement with its currency clause removed — what the back-end,
/// which always serves the latest snapshot, accepts.
pub fn strip_currency(sql: &str) -> &str {
    match sql.find(" CURRENCY ") {
        Some(i) => &sql[..i],
        None => sql,
    }
}

/// Whether two answers hold the same rows, in any order. Floats compare
/// with a relative tolerance, since a sum may add in another order.
pub fn same_rows(a: &[Row], b: &[Row]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut a: Vec<&[Value]> = a.iter().map(Row::values).collect();
    let mut b: Vec<&[Value]> = b.iter().map(Row::values).collect();
    a.sort();
    b.sort();
    a.iter()
        .zip(&b)
        .all(|(x, y)| x.len() == y.len() && x.iter().zip(y.iter()).all(|(u, v)| same_value(u, v)))
}

fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
        _ => a == b,
    }
}

/// Check every cached view against the master's projection of its base
/// table; returns the names of views that differ.
pub fn views_differing(cache: &MTCache) -> Result<Vec<String>, String> {
    let mut differing = Vec::new();
    for (view, base) in [("cust_prj", "customer"), ("orders_prj", "orders")] {
        let v = cache
            .cache_storage()
            .table(view)
            .map_err(|e| format!("view {view}: {e}"))?
            .snapshot();
        let t = cache
            .master()
            .table(base)
            .map_err(|e| format!("table {base}: {e}"))?
            .snapshot();
        let ordinals: Vec<usize> = v
            .schema()
            .columns()
            .iter()
            .map(|c| {
                t.schema()
                    .columns()
                    .iter()
                    .position(|b| b.name == c.name)
                    .ok_or_else(|| format!("{view}.{} has no base column", c.name))
            })
            .collect::<Result<_, _>>()?;
        let projected: Vec<Row> = t
            .iter()
            .map(|r| Row::new(ordinals.iter().map(|&i| r.get(i).clone()).collect()))
            .collect();
        let cached: Vec<Row> = v.iter().cloned().collect();
        if !same_rows(&cached, &projected) {
            differing.push(view.to_string());
        }
    }
    Ok(differing)
}

/// Sum of a counter over all its label sets.
pub fn counter_sum(snap: &MetricsSnapshot, name: &str) -> u64 {
    let labelled = format!("{name}{{");
    snap.values
        .keys()
        .filter(|k| *k == name || k.starts_with(&labelled))
        .map(|k| snap.counter(k))
        .sum()
}

/// CPU seconds (user + system) this process and its finished threads
/// have used, from `/proc` (whose clock ticks are 1/100 s on Linux).
pub fn process_cpu_s() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => Ok((user + system) as f64 / 100.0),
        _ => Err("unreadable /proc/self/stat".into()),
    }
}

/// The machine-wide CPU time counters of `/proc/stat`: (stolen, total) in
/// clock ticks.
fn machine_ticks() -> Result<(u64, u64), String> {
    let stat = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal ...
    match fields.get(7) {
        Some(&steal) => Ok((steal, fields.iter().sum())),
        None => Err("unreadable /proc/stat".into()),
    }
}

/// What a load phase used: its wall time, the process's CPU time and the
/// share of the machine's CPU time the hypervisor stole meanwhile.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// Wall seconds.
    pub seconds: f64,
    /// CPU seconds (user + system) of this process.
    pub cpu_s: f64,
    /// Stolen share of the machine's CPU time.
    pub stolen: f64,
}

/// Measures a load phase's [`Usage`] from its start.
pub struct UsageMeter {
    began: Instant,
    cpu_s: f64,
    ticks: (u64, u64),
}

impl UsageMeter {
    /// Start measuring now.
    pub fn start() -> Result<UsageMeter, String> {
        Ok(UsageMeter {
            began: Instant::now(),
            cpu_s: process_cpu_s()?,
            ticks: machine_ticks()?,
        })
    }

    /// What the phase used since [`UsageMeter::start`].
    pub fn finish(self) -> Result<Usage, String> {
        let seconds = self.began.elapsed().as_secs_f64();
        let cpu_s = process_cpu_s()? - self.cpu_s;
        let (stolen, total) = machine_ticks()?;
        Ok(Usage {
            seconds,
            cpu_s,
            stolen: (stolen - self.ticks.0) as f64 / (total - self.ticks.1).max(1) as f64,
        })
    }
}

/// Peak resident memory of this process in MiB, from `/proc`.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_currency_cuts_the_clause() {
        let sql = point_sql(true, 7, 15);
        assert_eq!(
            strip_currency(&sql),
            "SELECT c_acctbal FROM customer WHERE c_custkey = 7"
        );
        assert_eq!(strip_currency("SELECT 1"), "SELECT 1");
    }

    #[test]
    fn rows_compare_as_multisets_with_float_tolerance() {
        let r = |k: i64, f: f64| Row::new(vec![Value::Int(k), Value::Float(f)]);
        assert!(same_rows(
            &[r(1, 1.0), r(2, 2.0)],
            &[r(2, 2.0), r(1, 1.0 + 1e-12)]
        ));
        assert!(!same_rows(&[r(1, 1.0)], &[r(1, 1.01)]));
        assert!(!same_rows(&[r(1, 1.0)], &[r(1, 1.0), r(1, 1.0)]));
    }

    #[test]
    fn hot_keys_are_distinct_seeded_and_in_range() {
        let a = hot_keys(100, 500, 3);
        assert_eq!(a, hot_keys(100, 500, 3));
        assert_ne!(a, hot_keys(100, 500, 4));
        assert_eq!(a.len(), 100);
        assert!(a.iter().all(|&k| (1..=500).contains(&k)));
    }
}
