//! `wal_commit` — commit throughput of the durable back-end.
//!
//! Drives `MasterDb::execute_txn` from N concurrent writer threads under
//! three durability modes and reports transactions/second for each:
//!
//! * **in_memory** — no durability attached (the default rig): the commit
//!   path without a WAL — row apply, copy-on-write publish of the touched
//!   chunks, and the replication-log append.
//! * **group_commit** — WAL appended per commit, fsyncs batched across
//!   concurrent committers (leader election); a commit is acknowledged
//!   only after a sync covering its LSN completes.
//! * **fsync_per_commit** — WAL appended *and* fsynced inside every
//!   commit before the COW epoch publishes: the strict
//!   write-ahead-of-publish discipline.
//!
//! It then checks that a commit costs what it changes, not what the table
//! holds: `size_invariance` times single-row in-memory update commits on a
//! 1k-row and on a 64k-row table (one writer) and reports the ratio of
//! their median latencies, `ratio_64k_over_1k`, which should stay ≤ 2.
//!
//! ```sh
//! cargo run -p rcc-bench --bin wal_commit --release -- \
//!     [--threads N] [--txns N] [--quick] [--out PATH]
//! ```
//!
//! Writes `BENCH_wal.json`.

use rcc_backend::TableChange;
use rcc_common::{Row, Value};
use rcc_mtcache::MTCache;
use rcc_storage::table::RowChange;
use rcc_storage::SyncPolicy;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

struct Options {
    threads: usize,
    txns: usize,
    out: String,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            threads: 4,
            txns: 500,
            out: "BENCH_wal.json".into(),
        }
    }
}

fn parse_args() -> Options {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--threads" => opts.threads = value().parse().expect("--threads"),
            "--txns" => opts.txns = value().parse().expect("--txns"),
            "--quick" => {
                opts.threads = 2;
                opts.txns = 100;
            }
            "--out" => opts.out = value(),
            other => panic!("unknown flag {other}"),
        }
    }
    opts
}

/// Table sizes and commit count of the size-invariance check.
const SMALL_ROWS: usize = 1_000;
const LARGE_ROWS: usize = 64_000;

struct ModeResult {
    txns_per_sec: f64,
    elapsed_secs: f64,
    wal_fsyncs: u64,
    wal_bytes: u64,
}

fn bench_mode(name: &str, sync: Option<SyncPolicy>, opts: &Options) -> ModeResult {
    let dir = std::env::temp_dir().join(format!("rcc-wal-bench-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = match sync {
        Some(policy) => MTCache::new_durable(&dir, policy).expect("durable cache"),
        None => MTCache::new(),
    };
    cache
        .execute("CREATE TABLE bench_t (k INT, v VARCHAR, PRIMARY KEY (k))")
        .expect("create table");
    let master = Arc::clone(cache.master());

    let started = Instant::now();
    let workers: Vec<_> = (0..opts.threads)
        .map(|t| {
            let master = Arc::clone(&master);
            let txns = opts.txns;
            std::thread::spawn(move || {
                for i in 0..txns {
                    let k = (t * txns + i) as i64;
                    let row = Row::new(vec![Value::Int(k), Value::Str(format!("payload-{k}"))]);
                    master
                        .execute_txn(vec![TableChange::new("bench_t", RowChange::Insert(row))])
                        .expect("commit");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker");
    }
    let elapsed = started.elapsed();

    let total = (opts.threads * opts.txns) as f64;
    let (wal_fsyncs, wal_bytes) = match master.durability() {
        Some(store) => (store.wal_fsyncs(), store.wal_bytes()),
        None => (0, 0),
    };
    let result = ModeResult {
        txns_per_sec: total / elapsed.as_secs_f64(),
        elapsed_secs: elapsed.as_secs_f64(),
        wal_fsyncs,
        wal_bytes,
    };
    eprintln!(
        "wal_commit: {name:>16}  {:>9.0} txns/s  ({:.3}s, {} fsyncs, {} wal bytes)",
        result.txns_per_sec, result.elapsed_secs, result.wal_fsyncs, result.wal_bytes
    );
    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Median latency, in µs, of `commits` single-row update commits against an
/// in-memory table bulk-loaded with `rows` rows.
fn commit_p50_us(rows: usize, commits: usize) -> f64 {
    let cache = MTCache::new();
    cache
        .execute("CREATE TABLE bench_t (k INT, v VARCHAR, PRIMARY KEY (k))")
        .expect("create table");
    let master = Arc::clone(cache.master());
    let row = |k: i64, tag: &str| Row::new(vec![Value::Int(k), Value::Str(format!("{tag}-{k}"))]);
    master
        .bulk_load(
            "bench_t",
            (0..rows as i64).map(|k| row(k, "payload")).collect(),
        )
        .expect("bulk load");
    let mut samples: Vec<f64> = (0..commits)
        .map(|i| {
            // stride across the table so commits land in every chunk
            let k = ((i * 7_919) % rows) as i64;
            let change = RowChange::Update {
                key: vec![Value::Int(k)],
                row: row(k, "updated"),
            };
            let started = Instant::now();
            master
                .execute_txn(vec![TableChange::new("bench_t", change)])
                .expect("commit");
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    let p50 = samples[samples.len() / 2];
    eprintln!("wal_commit: {rows:>6}-row table  single-row commit p50 {p50:.1} us");
    p50
}

fn render_mode(r: &ModeResult) -> String {
    format!(
        "{{ \"txns_per_sec\": {:.1}, \"elapsed_secs\": {:.6}, \"wal_fsyncs\": {}, \
         \"wal_bytes\": {} }}",
        r.txns_per_sec, r.elapsed_secs, r.wal_fsyncs, r.wal_bytes
    )
}

fn main() {
    let opts = parse_args();
    eprintln!(
        "wal_commit: {} threads x {} txns per mode",
        opts.threads, opts.txns
    );

    let in_memory = bench_mode("in_memory", None, &opts);
    let group = bench_mode("group_commit", Some(SyncPolicy::Group), &opts);
    let fsync = bench_mode("fsync_per_commit", Some(SyncPolicy::Always), &opts);
    let size_commits = opts.threads * opts.txns;
    let small_p50 = commit_p50_us(SMALL_ROWS, size_commits);
    let large_p50 = commit_p50_us(LARGE_ROWS, size_commits);
    let ratio = large_p50 / small_p50;
    eprintln!("wal_commit: size invariance 64k/1k = {ratio:.2} (gate: <= 2)");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Sanity: every durable mode paid for its WAL; fsync-per-commit issued
    // at least one fsync per transaction.
    let total = (opts.threads * opts.txns) as u64;
    assert!(group.wal_bytes > 0 && fsync.wal_bytes > 0);
    assert!(
        fsync.wal_fsyncs >= total,
        "Always policy fsyncs every commit: {} < {total}",
        fsync.wal_fsyncs
    );
    assert!(
        group.wal_fsyncs <= fsync.wal_fsyncs,
        "group commit batches fsyncs"
    );

    let json = format!(
        "{{\n  \"bench\": \"wal_commit\",\n  \"nproc\": {},\n  \"threads\": {},\n  \
         \"txns_per_thread\": {},\n  \"modes\": {{\n    \"in_memory\": {},\n    \
         \"group_commit\": {},\n    \"fsync_per_commit\": {}\n  }},\n  \
         \"size_invariance\": {{ \"small_rows\": {}, \"large_rows\": {}, \"commits\": {}, \
         \"small_p50_us\": {:.2}, \"large_p50_us\": {:.2}, \"ratio_64k_over_1k\": {:.3} }}\n}}\n",
        nproc,
        opts.threads,
        opts.txns,
        render_mode(&in_memory),
        render_mode(&group),
        render_mode(&fsync),
        SMALL_ROWS,
        LARGE_ROWS,
        size_commits,
        small_p50,
        large_p50,
        ratio,
    );
    let out = PathBuf::from(&opts.out);
    let mut f = std::fs::File::create(&out).expect("create output file");
    f.write_all(json.as_bytes()).expect("write output file");
    eprintln!("wrote {}", out.display());
}
