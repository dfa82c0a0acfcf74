//! Model-based property tests for the storage engine: a `BTreeMap`
//! reference model must agree with the table under arbitrary interleavings
//! of inserts, upserts, deletes and scans; secondary-index range scans must
//! equal full-scan filtering.

use proptest::prelude::*;
use rcc_common::{Column, DataType, Row, Schema, Value};
use rcc_storage::{KeyRange, Table};
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Upsert(i64, i64),
    Delete(i64),
    Get(i64),
    RangeScan(i64, i64),
    IndexScan(i64, i64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        ((-50i64..50), (-100i64..100)).prop_map(|(k, v)| Op::Upsert(k, v)),
        (-50i64..50).prop_map(Op::Delete),
        (-50i64..50).prop_map(Op::Get),
        ((-60i64..60), (-60i64..60)).prop_map(|(a, b)| Op::RangeScan(a.min(b), a.max(b))),
        ((-110i64..110), (-110i64..110)).prop_map(|(a, b)| Op::IndexScan(a.min(b), a.max(b))),
    ]
}

fn table() -> Table {
    let schema = Schema::new(vec![
        Column::new("k", DataType::Int),
        Column::new("v", DataType::Int),
    ]);
    let mut t = Table::new("t", schema, vec![0]);
    t.create_index("ix_v", vec![1]).unwrap();
    t
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    #[test]
    fn table_agrees_with_btreemap_model(ops in proptest::collection::vec(op(), 1..120)) {
        let mut table = table();
        let mut model: BTreeMap<i64, i64> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Upsert(k, v) => {
                    table.upsert(Row::new(vec![Value::Int(k), Value::Int(v)])).unwrap();
                    model.insert(k, v);
                }
                Op::Delete(k) => {
                    let t_old = table.delete(&[Value::Int(k)]);
                    let m_old = model.remove(&k);
                    prop_assert_eq!(t_old.is_some(), m_old.is_some());
                }
                Op::Get(k) => {
                    let t_val = table
                        .get(&[Value::Int(k)])
                        .map(|r| r.get(1).as_int().unwrap());
                    prop_assert_eq!(t_val, model.get(&k).copied());
                }
                Op::RangeScan(lo, hi) => {
                    let rows = table.collect_range(
                        &KeyRange::between(Value::Int(lo), Value::Int(hi)),
                        |_| true,
                    );
                    let expect: Vec<(i64, i64)> =
                        model.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
                    let got: Vec<(i64, i64)> = rows
                        .iter()
                        .map(|r| (r.get(0).as_int().unwrap(), r.get(1).as_int().unwrap()))
                        .collect();
                    prop_assert_eq!(got, expect, "range [{}, {}]", lo, hi);
                }
                Op::IndexScan(lo, hi) => {
                    let via_index = table
                        .index_scan("ix_v", &KeyRange::between(Value::Int(lo), Value::Int(hi)))
                        .unwrap();
                    let mut via_filter: Vec<Row> = table
                        .collect_range(&KeyRange::all(), |r| {
                            let v = r.get(1).as_int().unwrap();
                            (lo..=hi).contains(&v)
                        });
                    // index order: (v, k); filter order: k — compare as sets
                    let mut a: Vec<(i64, i64)> = via_index
                        .iter()
                        .map(|r| (r.get(0).as_int().unwrap(), r.get(1).as_int().unwrap()))
                        .collect();
                    let mut b: Vec<(i64, i64)> = via_filter
                        .drain(..)
                        .map(|r| (r.get(0).as_int().unwrap(), r.get(1).as_int().unwrap()))
                        .collect();
                    a.sort();
                    b.sort();
                    prop_assert_eq!(a, b);
                }
            }
            prop_assert_eq!(table.row_count(), model.len());
        }
    }

    #[test]
    fn index_scan_results_sorted_by_index_key(
        rows in proptest::collection::btree_map(-50i64..50, -50i64..50, 0..60),
        lo in -60i64..60,
    ) {
        let mut table = table();
        for (k, v) in &rows {
            table.insert(Row::new(vec![Value::Int(*k), Value::Int(*v)])).unwrap();
        }
        let hits = table.index_scan("ix_v", &KeyRange::at_least(Value::Int(lo))).unwrap();
        for w in hits.windows(2) {
            let a = w[0].get(1).as_int().unwrap();
            let b = w[1].get(1).as_int().unwrap();
            prop_assert!(a <= b, "index scan must return index order");
        }
    }

    #[test]
    fn range_intersection_matches_double_filter(
        a_lo in -20i64..20, a_hi in -20i64..20,
        b_lo in -20i64..20, b_hi in -20i64..20,
        probe in -25i64..25,
    ) {
        let a = KeyRange::between(Value::Int(a_lo.min(a_hi)), Value::Int(a_lo.max(a_hi)));
        let b = KeyRange::between(Value::Int(b_lo.min(b_hi)), Value::Int(b_lo.max(b_hi)));
        let both = a.intersect(&b);
        let v = Value::Int(probe);
        prop_assert_eq!(both.contains(&v), a.contains(&v) && b.contains(&v));
    }

    #[test]
    fn contains_range_is_consistent_with_membership(
        a_lo in -20i64..20, a_hi in -20i64..20,
        b_lo in -20i64..20, b_hi in -20i64..20,
    ) {
        let a = KeyRange::between(Value::Int(a_lo.min(a_hi)), Value::Int(a_lo.max(a_hi)));
        let b = KeyRange::between(Value::Int(b_lo.min(b_hi)), Value::Int(b_lo.max(b_hi)));
        if a.contains_range(&b) {
            // every point of b must be in a
            for p in (b_lo.min(b_hi))..=(b_lo.max(b_hi)) {
                prop_assert!(a.contains(&Value::Int(p)), "p={p}");
            }
        }
    }
}

/// Composite-key table model: rows keyed `(a, b)` with an indexed `v`,
/// checked against a `BTreeMap` of rows and a `BTreeSet` of index entries
/// through every scan entry point. Runs of inserts and deletes push the
/// table across chunk split and merge sizes.
mod chunked_model {
    use super::*;
    use std::collections::BTreeSet;
    use std::ops::Bound;

    #[derive(Debug, Clone)]
    enum Op {
        /// Strict inserts of `(a, b)` for `a` in `a0..a0 + n`, `b` in `0..3`.
        InsertRun(i64, i64, i64),
        Upsert(i64, i64, i64),
        Delete(i64, i64),
        /// Delete every row with `a` in `a0..a0 + n`.
        DeleteRun(i64, i64),
        Truncate,
        Check(KeyRange, usize),
    }

    fn bound() -> impl Strategy<Value = Bound<Value>> {
        (0u8..3, -10i64..330).prop_map(|(kind, x)| match kind {
            0 => Bound::Unbounded,
            1 => Bound::Included(Value::Int(x)),
            _ => Bound::Excluded(Value::Int(x)),
        })
    }

    fn key_range() -> impl Strategy<Value = KeyRange> {
        (bound(), bound()).prop_map(|(low, high)| KeyRange { low, high })
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            ((0i64..320), (1i64..120), (-40i64..40)).prop_map(|(a, n, v)| Op::InsertRun(a, n, v)),
            ((0i64..320), (0i64..3), (-40i64..40)).prop_map(|(a, b, v)| Op::Upsert(a, b, v)),
            ((0i64..320), (0i64..3)).prop_map(|(a, b)| Op::Delete(a, b)),
            ((0i64..320), (1i64..150)).prop_map(|(a, n)| Op::DeleteRun(a, n)),
            (0u8..12).prop_map(|x| if x == 0 {
                Op::Truncate
            } else {
                Op::Delete(x as i64, 0)
            }),
            (
                key_range(),
                prop_oneof![Just(1usize), 5usize..60, Just(128usize), Just(5000usize)]
            )
                .prop_map(|(r, t)| Op::Check(r, t)),
        ]
    }

    type Rows = BTreeMap<(i64, i64), i64>;
    type Entries = BTreeSet<(i64, (i64, i64))>;

    fn table() -> Table {
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
            Column::new("v", DataType::Int),
        ]);
        let mut t = Table::new("t", schema, vec![0, 1]);
        t.create_index("ix_v", vec![2]).unwrap();
        t
    }

    fn row(a: i64, b: i64, v: i64) -> Row {
        Row::new(vec![Value::Int(a), Value::Int(b), Value::Int(v)])
    }

    fn triple(r: &Row) -> (i64, i64, i64) {
        let i = |c| r.get(c).as_int().unwrap();
        (i(0), i(1), i(2))
    }

    fn upsert(t: &mut Table, rows: &mut Rows, ix: &mut Entries, a: i64, b: i64, v: i64) {
        t.upsert(row(a, b, v)).unwrap();
        if let Some(old) = rows.insert((a, b), v) {
            ix.remove(&(old, (a, b)));
        }
        ix.insert((v, (a, b)));
    }

    fn delete(t: &mut Table, rows: &mut Rows, ix: &mut Entries, a: i64, b: i64) -> bool {
        let got = t.delete(&[Value::Int(a), Value::Int(b)]);
        let want = rows.remove(&(a, b));
        if let Some(v) = want {
            ix.remove(&(v, (a, b)));
        }
        got.map(|r| triple(&r).2) == want
    }

    /// Every scan entry point over `range` agrees with the models.
    fn check(
        t: &Table,
        rows: &Rows,
        ix: &Entries,
        range: &KeyRange,
        target: usize,
    ) -> TestCaseResult {
        let want: Vec<(i64, i64, i64)> = rows
            .iter()
            .filter(|((a, _), _)| range.contains(&Value::Int(*a)))
            .map(|((a, b), v)| (*a, *b, *v))
            .collect();
        let mut serial = Vec::new();
        t.scan_range(range, |_| true, |r| serial.push(triple(r)));
        prop_assert_eq!(&serial, &want, "scan_range {:?}", range);

        let plan = t.plan_morsels(range, target);
        let mut merged = Vec::new();
        let mut cols = vec![Vec::new(), Vec::new()];
        let mut filled = 0;
        for i in 0..plan.morsel_count() {
            let (start, end) = plan.bounds(i);
            t.scan_morsel(range, start, end, |_| true, |r| merged.push(triple(r)));
            filled += t
                .fill_morsel_columns(
                    range,
                    start,
                    end,
                    &[2, 0],
                    |r| Ok(r.get(2).as_int()? % 3 != 0),
                    &mut cols,
                )
                .unwrap();
        }
        prop_assert_eq!(&merged, &want, "morsels {:?} target {}", range, target);
        let kept: Vec<(i64, i64)> = want
            .iter()
            .filter(|(_, _, v)| v % 3 != 0)
            .map(|(a, _, v)| (*v, *a))
            .collect();
        let got: Vec<(i64, i64)> = cols[0]
            .iter()
            .zip(&cols[1])
            .map(|(v, a)| (v.as_int().unwrap(), a.as_int().unwrap()))
            .collect();
        prop_assert_eq!(filled, kept.len());
        prop_assert_eq!(got, kept, "fill_morsel_columns {:?}", range);

        let want_ix: Vec<(i64, i64, i64)> = ix
            .iter()
            .filter(|(v, _)| range.contains(&Value::Int(*v)))
            .map(|(v, (a, b))| (*a, *b, *v))
            .collect();
        let via_index: Vec<(i64, i64, i64)> = t
            .index_scan("ix_v", range)
            .unwrap()
            .iter()
            .map(triple)
            .collect();
        prop_assert_eq!(&via_index, &want_ix, "index_scan {:?}", range);
        let pks: Vec<(i64, i64)> = t
            .index_pks("ix_v", range)
            .unwrap()
            .iter()
            .map(|k| (k[0].as_int().unwrap(), k[1].as_int().unwrap()))
            .collect();
        let want_pks: Vec<(i64, i64)> = want_ix.iter().map(|(a, b, _)| (*a, *b)).collect();
        prop_assert_eq!(pks, want_pks, "index_pks {:?}", range);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

        #[test]
        fn chunked_table_agrees_with_btree_models(ops in proptest::collection::vec(op(), 1..80)) {
            let mut t = table();
            let mut rows = Rows::new();
            let mut ix = Entries::new();
            for op in ops {
                match op {
                    Op::InsertRun(a0, n, v) => {
                        for a in a0..a0 + n {
                            for b in 0..3 {
                                let v = (v + a * 7 + b) % 41;
                                let dup = rows.contains_key(&(a, b));
                                prop_assert_eq!(t.insert(row(a, b, v)).is_err(), dup);
                                if !dup {
                                    rows.insert((a, b), v);
                                    ix.insert((v, (a, b)));
                                }
                            }
                        }
                    }
                    Op::Upsert(a, b, v) => upsert(&mut t, &mut rows, &mut ix, a, b, v),
                    Op::Delete(a, b) => prop_assert!(delete(&mut t, &mut rows, &mut ix, a, b)),
                    Op::DeleteRun(a0, n) => {
                        for a in a0..a0 + n {
                            for b in 0..3 {
                                prop_assert!(delete(&mut t, &mut rows, &mut ix, a, b));
                            }
                        }
                    }
                    Op::Truncate => {
                        t.truncate();
                        rows.clear();
                        ix.clear();
                    }
                    Op::Check(range, target) => check(&t, &rows, &ix, &range, target)?,
                }
                prop_assert_eq!(t.row_count(), rows.len());
                prop_assert_eq!(t.indexes()[0].len(), ix.len());
            }
            check(&t, &rows, &ix, &KeyRange::all(), 100)?;
            let all: Vec<(i64, i64, i64)> = t.iter().map(triple).collect();
            let want: Vec<(i64, i64, i64)> = rows.iter().map(|((a, b), v)| (*a, *b, *v)).collect();
            prop_assert_eq!(all, want);
        }
    }
}
