//! Secondary indexes.
//!
//! An index is a `ChunkMap` keyed by (index-key values, clustered key),
//! the same chunk-shared sorted map that holds a table's rows, so a
//! copy-on-write table publish copies only the index chunk a change
//! touches.

use crate::chunked::ChunkMap;
use crate::range::KeyRange;
use rcc_common::{Row, Value};
use std::ops::Bound;

/// A secondary index mapping (index-key, clustered-key) pairs to row
/// locations. Including the clustered key in the sort key makes duplicate
/// index keys unambiguous, the same trick real engines use.
#[derive(Debug, Clone)]
pub struct SecondaryIndex {
    name: String,
    /// Ordinals (into the table schema) of the indexed columns.
    columns: Vec<usize>,
    /// (index key values, clustered key values), in that order.
    entries: ChunkMap<(Vec<Value>, Vec<Value>), ()>,
}

impl SecondaryIndex {
    /// Create an empty index over the given column ordinals.
    ///
    /// # Panics
    /// Panics if `columns` is empty.
    pub fn new(name: impl Into<String>, columns: Vec<usize>) -> SecondaryIndex {
        assert!(!columns.is_empty(), "an index needs at least one column");
        SecondaryIndex {
            name: name.into(),
            columns,
            entries: ChunkMap::new(),
        }
    }

    /// Index name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Indexed column ordinals.
    pub fn columns(&self) -> &[usize] {
        &self.columns
    }

    /// Number of entries (== table row count once synced).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.len() == 0
    }

    fn key_of(&self, row: &Row) -> Vec<Value> {
        self.columns.iter().map(|&i| row.get(i).clone()).collect()
    }

    /// Add an entry for `row` stored at clustered key `pk`.
    pub fn insert(&mut self, row: &Row, pk: Vec<Value>) {
        self.entries.insert((self.key_of(row), pk), ());
    }

    /// Remove the entry for `row` stored at clustered key `pk`.
    pub fn remove(&mut self, row: &Row, pk: &[Value]) {
        self.entries.remove(&(self.key_of(row), pk.to_vec()));
    }

    /// Move the entry at clustered key `pk` from `old`'s index key to
    /// `new`'s. Leaves the index untouched when the indexed columns did
    /// not change.
    pub(crate) fn replace(&mut self, old: &Row, new: &Row, pk: &[Value]) {
        let (old_key, new_key) = (self.key_of(old), self.key_of(new));
        if old_key != new_key {
            self.entries.remove(&(old_key, pk.to_vec()));
            self.entries.insert((new_key, pk.to_vec()), ());
        }
    }

    /// Drop all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Visit the clustered keys of all rows whose *first* indexed column
    /// falls in `range`, in index order.
    pub fn scan<E>(&self, range: &KeyRange, mut emit: E)
    where
        E: FnMut(&[Value]),
    {
        let low = match &range.low {
            Bound::Unbounded => None,
            Bound::Included(v) | Bound::Excluded(v) => Some(std::slice::from_ref(v)),
        };
        let below = |(key, _): &(Vec<Value>, Vec<Value>)| low.is_some_and(|l| key.as_slice() < l);
        for ((key, pk), ()) in self.entries.iter_from(below) {
            let first = &key[0];
            if !range.contains(first) {
                let above_high = match &range.high {
                    Bound::Unbounded => false,
                    Bound::Included(h) => first > h,
                    Bound::Excluded(h) => first >= h,
                };
                if above_high {
                    break;
                }
                continue;
            }
            emit(pk);
        }
    }

    /// Estimate of entries in `range` (exact here, since we can count).
    pub fn count_in(&self, range: &KeyRange) -> usize {
        let mut n = 0;
        self.scan(range, |_| n += 1);
        n
    }

    /// The entry map, for checking what two table versions share.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> &ChunkMap<(Vec<Value>, Vec<Value>), ()> {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::Row;

    fn row(k: i64, v: i64) -> Row {
        Row::new(vec![Value::Int(k), Value::Int(v)])
    }

    fn sample() -> SecondaryIndex {
        // index on column 1 (v); clustered key = column 0 (k)
        let mut ix = SecondaryIndex::new("ix", vec![1]);
        for (k, v) in [(1, 30), (2, 10), (3, 20), (4, 10)] {
            ix.insert(&row(k, v), vec![Value::Int(k)]);
        }
        ix
    }

    #[test]
    fn scan_in_index_order_with_duplicates() {
        let ix = sample();
        let mut pks = Vec::new();
        ix.scan(&KeyRange::all(), |pk| pks.push(pk[0].as_int().unwrap()));
        // v=10 twice (pk 2 then 4), v=20 (pk 3), v=30 (pk 1)
        assert_eq!(pks, vec![2, 4, 3, 1]);
    }

    #[test]
    fn range_scans() {
        let ix = sample();
        assert_eq!(ix.count_in(&KeyRange::eq(Value::Int(10))), 2);
        assert_eq!(
            ix.count_in(&KeyRange::between(Value::Int(10), Value::Int(20))),
            3
        );
        assert_eq!(ix.count_in(&KeyRange::greater_than(Value::Int(20))), 1);
        assert_eq!(ix.count_in(&KeyRange::less_than(Value::Int(10))), 0);
    }

    #[test]
    fn remove_specific_entry() {
        let mut ix = sample();
        ix.remove(&row(4, 10), &[Value::Int(4)]);
        assert_eq!(ix.count_in(&KeyRange::eq(Value::Int(10))), 1);
        assert_eq!(ix.len(), 3);
    }

    #[test]
    fn clear_empties() {
        let mut ix = sample();
        ix.clear();
        assert!(ix.is_empty());
    }
}
