//! The sorted map behind clustered rows and secondary indexes.
//!
//! A [`ChunkMap`] keeps its entries in key order inside `Arc`'d chunks of
//! at most [`CHUNK_CAP`] entries, listed in order by a plain `Vec`
//! directory. Cloning a map copies only the directory (one refcount bump
//! per chunk), and a mutation `Arc::make_mut`s only the chunk it touches.
//! A copy-on-write publish of a table therefore costs
//! O(directory + rows changed × chunk) instead of O(rows): the new version
//! shares every untouched chunk with its predecessor, which keeps reading
//! its own chunks unchanged.
//!
//! Shape invariants: no chunk is empty, every key of a chunk sorts below
//! every key of the next chunk, and no chunk holds more than `CHUNK_CAP`
//! entries. A full chunk splits in half before taking a new key; a key past
//! the last one is appended, starting a fresh chunk once the last is full,
//! so a sorted bulk load leaves every chunk full. A delete that leaves a
//! chunk under a quarter full merges it with a neighbour, splitting the
//! pair evenly again if it would overflow.

use std::borrow::Borrow;
use std::sync::Arc;

/// Most entries one chunk holds.
const CHUNK_CAP: usize = 128;

/// A delete that leaves a chunk smaller than this merges it with a
/// neighbour.
const MIN_FILL: usize = CHUNK_CAP / 4;

type Chunk<K, V> = Arc<Vec<(K, V)>>;

/// An ordered map of unique keys, stored as shared sorted chunks.
#[derive(Debug, Clone)]
pub(crate) struct ChunkMap<K, V> {
    chunks: Vec<Chunk<K, V>>,
    len: usize,
}

fn last_key<K, V>(chunk: &[(K, V)]) -> &K {
    &chunk[chunk.len() - 1].0
}

/// The chunk's entries, unshared first if a snapshot still holds them,
/// with room reserved up to `CHUNK_CAP` so later inserts never overshoot it.
fn chunk_mut<K: Clone, V: Clone>(chunk: &mut Chunk<K, V>) -> &mut Vec<(K, V)> {
    let entries = Arc::make_mut(chunk);
    if entries.len() == entries.capacity() && entries.len() < CHUNK_CAP {
        entries.reserve_exact(CHUNK_CAP - entries.len());
    }
    entries
}

fn new_chunk<K, V>(key: K, value: V) -> Chunk<K, V> {
    let mut entries = Vec::with_capacity(CHUNK_CAP);
    entries.push((key, value));
    Arc::new(entries)
}

impl<K: Ord + Clone, V: Clone> ChunkMap<K, V> {
    /// An empty map.
    pub(crate) fn new() -> Self {
        ChunkMap {
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The chunk that holds `key` or would receive it: the first chunk
    /// whose last key is not below `key`, else the last chunk (0 when the
    /// map is empty).
    fn chunk_for<Q>(&self, key: &Q) -> usize
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let i = self.chunks.partition_point(|c| last_key(c).borrow() < key);
        i.min(self.chunks.len().saturating_sub(1))
    }

    /// Chunk index and in-chunk position of `key`, if present.
    fn find<Q>(&self, key: &Q) -> Option<(usize, usize)>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let ci = self.chunk_for(key);
        let pos = self
            .chunks
            .get(ci)?
            .binary_search_by(|(k, _)| k.borrow().cmp(key))
            .ok()?;
        Some((ci, pos))
    }

    /// The value stored under `key`.
    pub(crate) fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let (ci, pos) = self.find(key)?;
        Some(&self.chunks[ci][pos].1)
    }

    /// Insert `value` under `key`, returning the value it replaces.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        let Some(last) = self.chunks.last_mut() else {
            self.chunks.push(new_chunk(key, value));
            self.len = 1;
            return None;
        };
        if *last_key(last) < key {
            if last.len() < CHUNK_CAP {
                chunk_mut(last).push((key, value));
            } else {
                self.chunks.push(new_chunk(key, value));
            }
            self.len += 1;
            return None;
        }
        let mut ci = self.chunk_for(&key);
        let mut pos = match self.chunks[ci].binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(pos) => {
                let slot = &mut Arc::make_mut(&mut self.chunks[ci])[pos].1;
                return Some(std::mem::replace(slot, value));
            }
            Err(pos) => pos,
        };
        if self.chunks[ci].len() == CHUNK_CAP {
            let tail = chunk_mut(&mut self.chunks[ci]).split_off(CHUNK_CAP / 2);
            self.chunks.insert(ci + 1, Arc::new(tail));
            if pos > CHUNK_CAP / 2 {
                ci += 1;
                pos -= CHUNK_CAP / 2;
            }
        }
        chunk_mut(&mut self.chunks[ci]).insert(pos, (key, value));
        self.len += 1;
        None
    }

    /// Remove `key`, returning its value.
    pub(crate) fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let (ci, pos) = self.find(key)?;
        let (_, value) = chunk_mut(&mut self.chunks[ci]).remove(pos);
        self.len -= 1;
        if self.chunks[ci].len() < MIN_FILL {
            self.merge(ci);
        }
        Some(value)
    }

    /// Fold the underfull chunk `ci` into a neighbour (the next one, or
    /// the previous one for the last chunk); an empty chunk just leaves
    /// the directory.
    fn merge(&mut self, ci: usize) {
        if self.chunks[ci].is_empty() {
            self.chunks.remove(ci);
            return;
        }
        if self.chunks.len() < 2 {
            return;
        }
        let left = ci.min(self.chunks.len() - 2);
        let right = self.chunks.remove(left + 1);
        let merged = Arc::make_mut(&mut self.chunks[left]);
        merged.reserve_exact(right.len());
        merged.extend(Arc::try_unwrap(right).unwrap_or_else(|shared| shared.to_vec()));
        if merged.len() > CHUNK_CAP {
            let tail = merged.split_off(merged.len() / 2);
            self.chunks.insert(left + 1, Arc::new(tail));
        }
    }

    /// Remove every entry.
    pub(crate) fn clear(&mut self) {
        self.chunks.clear();
        self.len = 0;
    }

    /// Every entry in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &(K, V)> {
        self.iter_from(|_| false)
    }

    /// Entries in key order, starting at the first key for which `below`
    /// is false. `below` must hold for a prefix of the key order, as
    /// "sorts before the probe" does.
    pub(crate) fn iter_from(&self, below: impl Fn(&K) -> bool) -> impl Iterator<Item = &(K, V)> {
        let ci = self.chunks.partition_point(|c| below(last_key(c)));
        let pos = self
            .chunks
            .get(ci)
            .map_or(0, |c| c.partition_point(|(k, _)| below(k)));
        self.chunks[ci..]
            .iter()
            .enumerate()
            .flat_map(move |(i, c)| c[if i == 0 { pos } else { 0 }..].iter())
    }

    /// The chunk directory, for checking what two versions share.
    #[cfg(test)]
    pub(crate) fn chunks(&self) -> &[Chunk<K, V>] {
        &self.chunks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    impl<K: Ord + Clone, V: Clone> ChunkMap<K, V> {
        /// Assert the shape invariants from the module docs.
        fn check_shape(&self) {
            let mut total = 0;
            for (i, c) in self.chunks.iter().enumerate() {
                assert!(!c.is_empty() && c.len() <= CHUNK_CAP, "chunk {i} size");
                assert!(c.windows(2).all(|w| w[0].0 < w[1].0), "chunk {i} order");
                if let Some(next) = self.chunks.get(i + 1) {
                    assert!(*last_key(c) < next[0].0, "chunks {i}/{} order", i + 1);
                }
                total += c.len();
            }
            assert_eq!(total, self.len);
        }
    }

    #[test]
    fn sorted_load_packs_chunks_full() {
        let mut m = ChunkMap::new();
        for k in 0..(CHUNK_CAP * 5 + 3) {
            m.insert(k, ());
        }
        m.check_shape();
        let sizes: Vec<usize> = m.chunks().iter().map(|c| c.len()).collect();
        assert_eq!(
            sizes,
            vec![CHUNK_CAP, CHUNK_CAP, CHUNK_CAP, CHUNK_CAP, CHUNK_CAP, 3]
        );
    }

    #[test]
    fn deletes_merge_underfull_chunks() {
        let mut m = ChunkMap::new();
        for k in 0..CHUNK_CAP * 4 {
            m.insert(k, k);
        }
        for k in (0..CHUNK_CAP * 4).filter(|k| k % 8 != 0) {
            assert_eq!(m.remove(&k), Some(k));
            m.check_shape();
        }
        assert_eq!(m.len(), CHUNK_CAP / 2);
        assert!(
            m.chunks().iter().all(|c| c.len() >= MIN_FILL),
            "no underfull chunk survives beside a neighbour"
        );
        assert!(m.chunks().len() <= CHUNK_CAP / 2 / MIN_FILL);
        for k in (0..CHUNK_CAP * 4).step_by(8) {
            m.remove(&k);
        }
        assert!(m.chunks().is_empty());
    }

    #[test]
    fn clone_shares_untouched_chunks() {
        let mut a = ChunkMap::new();
        for k in 0..CHUNK_CAP * 8 {
            a.insert(k, 0u8);
        }
        let mut b = a.clone();
        b.insert(3 * CHUNK_CAP + 5, 1);
        let shared = a
            .chunks()
            .iter()
            .zip(b.chunks())
            .filter(|(x, y)| Arc::ptr_eq(x, y))
            .count();
        assert_eq!(shared, a.chunks().len() - 1);
        assert_eq!(a.get(&(3 * CHUNK_CAP + 5)), Some(&0));
        assert_eq!(b.get(&(3 * CHUNK_CAP + 5)), Some(&1));
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u16, u8),
        Remove(u16),
        RemoveRun(u16, u16),
        Clear,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u16..1200, 0u8..255).prop_map(|(k, v)| Op::Insert(k, v)),
            (0u16..1200, 0u8..255).prop_map(|(k, v)| Op::Insert(k, v)),
            (0u16..1200).prop_map(Op::Remove),
            (0u16..1200, 1u16..400).prop_map(|(k, n)| Op::RemoveRun(k, n)),
            (0u16..40).prop_map(|k| if k == 0 { Op::Clear } else { Op::Remove(k) }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

        #[test]
        fn agrees_with_btreemap_and_keeps_shape(ops in proptest::collection::vec(op(), 1..900)) {
            let mut m = ChunkMap::new();
            let mut model = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Insert(k, v) => prop_assert_eq!(m.insert(k, v), model.insert(k, v)),
                    Op::Remove(k) => prop_assert_eq!(m.remove(&k), model.remove(&k)),
                    Op::RemoveRun(k, n) => {
                        for k in k..k.saturating_add(n) {
                            prop_assert_eq!(m.remove(&k), model.remove(&k));
                        }
                    }
                    Op::Clear => {
                        m.clear();
                        model.clear();
                    }
                }
                m.check_shape();
            }
            let got: Vec<(u16, u8)> = m.iter().copied().collect();
            let want: Vec<(u16, u8)> = model.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(got, want);
            for probe in [0u16, 1, 77, 600, 1199, 1200] {
                let got: Vec<u16> = m.iter_from(|k| *k < probe).map(|(k, _)| *k).collect();
                let want: Vec<u16> = model.range(probe..).map(|(k, _)| *k).collect();
                prop_assert_eq!(got, want, "iter_from {}", probe);
                prop_assert_eq!(m.get(&probe), model.get(&probe));
            }
        }
    }
}
