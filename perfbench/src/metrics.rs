//! The benchmark's metric catalogue and the report that fills it.
//!
//! `BENCHMARK.json` lists the same names and units; `run.py` refuses a
//! result whose metrics differ from that file, so the two cannot drift.
//! Each per-layer metric also records which end-to-end metric it should
//! move on which workload, and where it should hold still.

use crate::stats::{self, Samples};
use std::collections::BTreeMap;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One metric of the catalogue.
#[derive(Debug)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metric and workload this one should move.
    pub moves: &'static str,
    /// Workload where it should hold still (or `-`).
    pub holds: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    holds: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        moves,
        holds,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by untraced runs (`--trace 0`). Every
/// workload reports every one. The "op" is the workload's closed-loop
/// operation: a TCP point read (point_tcp), a corpus query (corpus_adhoc)
/// or a commit (write_refresh); `cpu_us_per_op` charges the whole
/// process's CPU time during the load (clients, servers, agents) to those
/// operations. "Reads" are the point reads over TCP
/// (point_tcp, write_refresh) or the corpus queries (corpus_adhoc).
///
/// Only metrics that stay steady when the hypervisor steals CPU are gated
/// here: a stolen millisecond stalls every TCP read in flight, so rates
/// and p99s of the loops swing by 2-10x between minutes on a shared VM.
/// They are reported ungated as `gen.*` per-layer metrics, and printed
/// beside these in every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower, "-", "-"),
    m("peak_rss_mb", "MiB", Lower, "-", "-"),
    m("op_p50_us", "us", Lower, "-", "-"),
    m("cpu_us_per_op", "us", Lower, "-", "-"),
    m("read_p50_us", "us", Lower, "-", "-"),
    m("local_share", "ratio", Higher, "-", "-"),
];

/// Per-layer metrics, printed by traced runs (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    m(
        "net.roundtrip_p50_us",
        "us",
        Lower,
        "read_p50_us on point_tcp",
        "corpus_adhoc (its reads never use TCP)",
    ),
    m(
        "net.roundtrip_p99_us",
        "us",
        Lower,
        "gen.read_p99_us on point_tcp",
        "corpus_adhoc",
    ),
    m(
        "net.frontend_p50_us",
        "us",
        Lower,
        "gen.read_per_s on point_tcp",
        "corpus_adhoc",
    ),
    m(
        "net.remote_transport_p50_us",
        "us",
        Lower,
        "read_p50_us on point_tcp",
        "corpus_adhoc",
    ),
    m("net.wire_bytes_per_read", "B", Lower, "- (count)", "-"),
    m(
        "sql.parse_p50_us",
        "us",
        Lower,
        "read_p50_us on point_tcp",
        "corpus_adhoc (misses parse anyway)",
    ),
    m(
        "mtcache.execute_p50_us",
        "us",
        Lower,
        "read_p50_us on point_tcp and corpus_adhoc",
        "-",
    ),
    m(
        "mtcache.execute_p99_us",
        "us",
        Lower,
        "gen.read_p99_us on point_tcp and corpus_adhoc",
        "-",
    ),
    m(
        "mtcache.plan_cache_hit_share",
        "ratio",
        Higher,
        "explains read_p50_us on corpus_adhoc vs point_tcp",
        "point_tcp (stays near 1)",
    ),
    m(
        "mtcache.backend_query_p50_us",
        "us",
        Lower,
        "read_p50_us on point_tcp",
        "-",
    ),
    m(
        "staleness_p50_s",
        "sim_s",
        Lower,
        "- (delivered currency; corpus_adhoc, write_refresh)",
        "point_tcp (the clock stands still)",
    ),
    m(
        "staleness_p99_s",
        "sim_s",
        Lower,
        "- (delivered currency; corpus_adhoc, write_refresh)",
        "point_tcp",
    ),
    m(
        "optimizer.compile_p50_us",
        "us",
        Lower,
        "read_p50_us and gen.read_per_s on corpus_adhoc",
        "point_tcp (plan-cache hits)",
    ),
    m(
        "optimizer.compile_p99_us",
        "us",
        Lower,
        "gen.read_p99_us on corpus_adhoc",
        "point_tcp",
    ),
    m(
        "flow.analyze_p50_us",
        "us",
        Lower,
        "read_p50_us on corpus_adhoc",
        "point_tcp",
    ),
    m(
        "executor.exec_p50_us",
        "us",
        Lower,
        "read_p50_us on corpus_adhoc",
        "point_tcp (tiny executions)",
    ),
    m(
        "executor.exec_p99_us",
        "us",
        Lower,
        "gen.read_p99_us on corpus_adhoc",
        "point_tcp",
    ),
    m(
        "executor.guard_evals_per_read",
        "count",
        Lower,
        "read_p50_us on point_tcp",
        "-",
    ),
    m(
        "executor.guard_ns_per_eval",
        "ns",
        Lower,
        "read_p50_us on point_tcp",
        "-",
    ),
    m(
        "executor.remote_ship_p50_us",
        "us",
        Lower,
        "read_p50_us on point_tcp",
        "-",
    ),
    m(
        "executor.wire_encode_p50_us",
        "us",
        Lower,
        "read_p50_us on point_tcp",
        "-",
    ),
    m(
        "executor.wire_decode_p50_us",
        "us",
        Lower,
        "read_p50_us on point_tcp",
        "-",
    ),
    m(
        "executor.rows_returned_per_read",
        "count",
        Lower,
        "- (count)",
        "-",
    ),
    m(
        "backend.commit_update_p50_us",
        "us",
        Lower,
        "op_p50_us and gen.op_per_s on write_refresh",
        "point_tcp and corpus_adhoc reads",
    ),
    m(
        "backend.commit_insert_p50_us",
        "us",
        Lower,
        "gen.op_p99_us on write_refresh",
        "point_tcp and corpus_adhoc reads",
    ),
    m(
        "backend.insert_over_update",
        "ratio",
        Lower,
        "gen.op_p99_us on write_refresh",
        "-",
    ),
    m(
        "backend.rows_shipped_per_read",
        "count",
        Lower,
        "tracks 1 - local_share",
        "-",
    ),
    m(
        "storage.wal_bytes_per_commit",
        "B",
        Lower,
        "op_p50_us on write_refresh",
        "-",
    ),
    m(
        "storage.fsyncs_per_commit",
        "count",
        Lower,
        "op_p50_us on write_refresh",
        "-",
    ),
    m(
        "storage.publishes_per_commit",
        "count",
        Lower,
        "op_p50_us on write_refresh",
        "-",
    ),
    m(
        "storage.wal_share",
        "ratio",
        Lower,
        "op_p50_us on write_refresh",
        "-",
    ),
    m(
        "replication.cycle_p50_us",
        "us",
        Lower,
        "gen.op_per_s and gen.read_p99_us on write_refresh",
        "corpus_adhoc (nothing to apply)",
    ),
    m(
        "replication.txns_applied_per_cycle",
        "count",
        Higher,
        "- (count; fixed by the commits per clock step)",
        "-",
    ),
    m(
        "gen.op_per_s",
        "1/s",
        Higher,
        "- (the closed loop's rate; throughput gains show here and in cpu_us_per_op)",
        "-",
    ),
    m(
        "gen.op_p99_us",
        "us",
        Lower,
        "- (the closed loop's tail; commit p99 on write_refresh)",
        "-",
    ),
    m(
        "gen.read_per_s",
        "1/s",
        Higher,
        "- (reads a second; the open loop's achieved rate on write_refresh)",
        "-",
    ),
    m(
        "gen.read_p99_us",
        "us",
        Lower,
        "- (read tail; on write_refresh it shows what commits cost the reads)",
        "-",
    ),
    m(
        "gen.late_share",
        "ratio",
        Lower,
        "guards the meaning of gen.read_p99_us on write_refresh",
        "-",
    ),
    m(
        "trace.attributed_share",
        "ratio",
        Higher,
        "- (self-check: layer times over the top-level call)",
        "-",
    ),
    m(
        "trace.overhead_share",
        "ratio",
        Lower,
        "- (traced over untraced top-level p50, minus 1)",
        "-",
    ),
];

/// One reported value with the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// The value.
    pub value: f64,
    /// Samples (or events) it was computed from.
    pub samples: u64,
}

/// Metric values gathered by one run, plus any reporting errors.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, Reading>,
    errors: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Set `name` to `value`, computed from `samples` observations.
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        if !value.is_finite() {
            self.errors
                .push(format!("{name}: value {value} is not a finite number"));
            return;
        }
        self.values.insert(name, Reading { value, samples });
    }

    /// Set `name` to a ratio `num / den` over `den` events.
    pub fn set_ratio(&mut self, name: &'static str, num: f64, den: u64) {
        if den == 0 {
            self.errors.push(format!("{name}: no events to divide by"));
            return;
        }
        self.set(name, num / den as f64, den);
    }

    /// Set `name` to the `q`-quantile of `s` in microseconds, or record
    /// an error when the sample-count rule forbids it.
    pub fn set_quantile(&mut self, name: &'static str, s: &Samples, q: f64) {
        match s.quantile_us(q) {
            Ok(v) => self.set(name, v, s.len() as u64),
            Err(e) => self.errors.push(format!("{name}: {e}")),
        }
    }

    /// Record a reporting error.
    pub fn error(&mut self, msg: String) {
        self.errors.push(msg);
    }

    /// Readings of catalogued metrics outside `defs`, in catalogue order.
    pub fn others(&self, defs: &'static [MetricDef]) -> Vec<(&'static MetricDef, Reading)> {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .filter(|d| !defs.iter().any(|g| g.name == d.name))
            .filter_map(|d| self.values.get(d.name).map(|r| (d, *r)))
            .collect()
    }

    /// The readings for `defs` in catalogue order, or every problem found:
    /// reporting errors, missing metrics, invalid names or units.
    pub fn select(
        &self,
        defs: &'static [MetricDef],
    ) -> Result<Vec<(&MetricDef, Reading)>, Vec<String>> {
        // an error about a metric of the other mode does not fail this one
        let other_mode = |e: &&String| {
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .filter(|d| !defs.iter().any(|g| g.name == d.name))
                .any(|d| e.starts_with(&format!("{}:", d.name)))
        };
        let mut errors: Vec<String> = self
            .errors
            .iter()
            .filter(|e| !other_mode(e))
            .cloned()
            .collect();
        let mut out = Vec::new();
        for def in defs {
            if !stats::valid_name(def.name) || !stats::valid_unit(def.unit) {
                errors.push(format!("{}: invalid name or unit {:?}", def.name, def.unit));
            }
            match self.values.get(def.name) {
                Some(r) => out.push((def, *r)),
                None if errors.iter().any(|e| e.starts_with(def.name)) => {}
                None => errors.push(format!("{}: not measured", def.name)),
            }
        }
        if errors.is_empty() {
            Ok(out)
        } else {
            Err(errors)
        }
    }
}

/// JSON string literal for `s`.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn catalogue_names_and_units_are_valid_and_unique() {
        let mut seen = HashSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(stats::valid_name(def.name), "{}", def.name);
            assert!(stats::valid_unit(def.unit), "{}: {}", def.name, def.unit);
            assert!(seen.insert(def.name), "{} listed twice", def.name);
        }
        assert_eq!(END_TO_END[0].name, "setup_s");
        assert_eq!(END_TO_END[0].unit, "s");
        assert_eq!(END_TO_END[0].better, Better::Lower);
    }

    #[test]
    fn select_reports_missing_and_thin_metrics() {
        let mut r = Report::new();
        let mut thin = Samples::new();
        thin.push(std::time::Duration::from_nanos(5));
        r.set_quantile("op_p50_us", &thin, 0.5);
        r.set_quantile("gen.op_p99_us", &thin, 0.99);
        let errors = r.select(END_TO_END).expect_err("nothing measured");
        let has = |errors: &[String], prefix: &str| errors.iter().any(|e| e.starts_with(prefix));
        assert!(has(&errors, "setup_s: not measured"));
        assert!(has(&errors, "op_p50_us: p50"));
        assert!(!has(&errors, "op_p50_us: not measured"));
        // the p99 belongs to the traced mode's result
        assert!(!has(&errors, "gen.op_p99_us"));
        let errors = r.select(PER_LAYER).expect_err("nothing measured");
        assert!(has(&errors, "gen.op_p99_us: p99"));
    }

    #[test]
    fn non_finite_values_are_errors() {
        let mut r = Report::new();
        r.set("setup_s", f64::NAN, 1);
        r.set_ratio("local_share", 1.0, 0);
        assert!(!r.values.contains_key("setup_s"));
        assert_eq!(r.errors.len(), 2);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
