//! Flat-arena maps for the million-account hot path.
//!
//! [`FlatMap`] stores its records in dense slabs (keys and values) and
//! resolves keys through a small open-addressing index of `u32` slot
//! numbers. All three live in [`PagedVec`]s, so cloning a map copies page
//! pointers and a clone's first write copies one page. Compared to the
//! pointer-chasing `BTreeMap` it replaces in the state and NFT crates it
//! gives:
//!
//! - O(1) expected lookup/insert/remove with zero per-record allocation;
//! - cache-friendly linear scans over the value slab (`values_unordered`);
//! - copy-on-write forks: a clone of a 10⁶-record map costs a few thousand
//!   pointer copies, and writes afterwards copy only the pages they touch;
//! - a lazily-rebuilt sorted-order cache so deterministic key-sorted
//!   iteration — which the commitment layer depends on for bit-identical
//!   state roots — costs one run-adaptive sort after a burst of insertions
//!   rather than a tree traversal per read;
//! - one bulk-load path (`FromIterator`, which `Deserialize` also takes):
//!   keys that arrive in ascending order go straight into the slab pages,
//!   the index is built once, and the order cache starts sorted, so a
//!   sorted load costs no probe per record and no sort.
//!
//! Slots are internal: `remove` swap-fills the freed slot from the tail, so
//! a record's slot moves whenever another record is removed.
//!
//! Determinism: the probe hash uses fixed multiply-xor constants (no
//! `RandomState`), so index layout, iteration and behaviour are identical
//! across runs and platforms. Sorted iteration is by `Ord` on the key and is
//! byte-identical to iterating the equivalent `BTreeMap`.
//!
//! # Example
//!
//! ```
//! use parole_primitives::{Address, FlatMap};
//! let mut m: FlatMap<Address, u64> = FlatMap::new();
//! m.insert(Address::from_low_u64(9), 90);
//! m.insert(Address::from_low_u64(3), 30);
//! assert_eq!(m.get(&Address::from_low_u64(3)), Some(&30));
//! let keys: Vec<_> = m.iter_sorted().map(|(k, _)| *k).collect();
//! assert_eq!(keys, vec![Address::from_low_u64(3), Address::from_low_u64(9)]);
//! ```

use crate::{Address, PagedVec, TokenId, PAGE_LEN};
use serde::{DeError, Deserialize, Serialize, Value};
use std::sync::{Arc, Mutex};

/// The storage layout of the state layer's hot maps: always the flat
/// arena. A one-variant enum, kept only for callers that still name the
/// layout explicitly (`L2State::with_backend`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageBackend {
    /// Dense slab + open-addressing index ([`FlatMap`]).
    Arena,
}

/// Keys usable in a [`FlatMap`]: cheaply copyable, totally ordered,
/// printable (a load error names the key), and hashable through a
/// deterministic fixed-constant mix.
pub trait FlatKey: Copy + Ord + Eq + std::fmt::Debug + std::fmt::Display {
    /// A well-mixed 64-bit hash of the key. Must be deterministic across
    /// runs and platforms (no per-process seeding).
    fn flat_hash(&self) -> u64;
}

/// SplitMix64 finalizer: fixed constants, full avalanche.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl FlatKey for Address {
    fn flat_hash(&self) -> u64 {
        let b = self.as_bytes();
        let mut lo = [0u8; 8];
        let mut hi = [0u8; 8];
        let mut mid = [0u8; 4];
        lo.copy_from_slice(&b[12..20]);
        hi.copy_from_slice(&b[0..8]);
        mid.copy_from_slice(&b[8..12]);
        mix64(
            u64::from_be_bytes(lo)
                ^ u64::from_be_bytes(hi).rotate_left(17)
                ^ u64::from(u32::from_be_bytes(mid)).rotate_left(41),
        )
    }
}

impl FlatKey for TokenId {
    fn flat_hash(&self) -> u64 {
        mix64(self.value())
    }
}

impl FlatKey for u64 {
    fn flat_hash(&self) -> u64 {
        mix64(*self)
    }
}

const EMPTY: u32 = u32::MAX;

/// Lazily-maintained key-sorted view of the slab. `stale` flips on any
/// insertion/removal; readers rebuild on demand and share the result via
/// `Arc` so a rebuild is amortized across every reader until the next
/// mutation.
#[derive(Debug, Default)]
struct OrderCache {
    sorted: Arc<Vec<u32>>,
    stale: bool,
}

/// A dense, paged hash map. See the [module docs](self).
#[derive(Debug)]
pub struct FlatMap<K, V> {
    keys: PagedVec<K>,
    vals: PagedVec<V>,
    /// Open-addressing table of slot numbers into `keys`/`vals`.
    /// Power-of-two length; `EMPTY` marks a free bucket.
    index: PagedVec<u32>,
    mask: usize,
    order: Mutex<OrderCache>,
}

impl<K: FlatKey, V: Clone> Default for FlatMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: FlatKey, V: Clone> FlatMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty map pre-sized for `cap` records without rehashing.
    pub fn with_capacity(cap: usize) -> Self {
        let buckets = Self::buckets_for(cap);
        FlatMap {
            keys: PagedVec::with_capacity(cap),
            vals: PagedVec::with_capacity(cap),
            index: vec![EMPTY; buckets].into(),
            mask: buckets - 1,
            order: Mutex::new(OrderCache {
                sorted: Arc::new(Vec::new()),
                stale: false,
            }),
        }
    }

    fn buckets_for(records: usize) -> usize {
        // Keep load factor under 1/2; minimum 8 buckets.
        (records.max(4) * 2).next_power_of_two()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the map holds no records.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The `(bucket, slot)` holding `key`, if present.
    #[inline]
    fn find(&self, key: &K) -> Option<(usize, usize)> {
        let mut i = (key.flat_hash() as usize) & self.mask;
        loop {
            let slot = self.index[i];
            if slot == EMPTY {
                return None;
            }
            if self.keys[slot as usize] == *key {
                return Some((i, slot as usize));
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Shared reference to the value for `key`.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key).map(|(_, s)| &self.vals[s])
    }

    /// Mutable reference to the value for `key`.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let (_, slot) = self.find(key)?;
        self.vals.get_mut(slot)
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_some()
    }

    fn grow(&mut self) {
        let buckets = Self::buckets_for(self.keys.len() + 1);
        if buckets <= self.index.len() {
            return;
        }
        self.index = Self::rehash(&self.keys, buckets);
        self.mask = buckets - 1;
    }

    /// An index of `buckets` (a power of two) over every slot of `keys`.
    /// Rehashes into a plain `Vec` and pages it once, rather than paying a
    /// copy-on-write check per bucket write.
    fn rehash(keys: &PagedVec<K>, buckets: usize) -> PagedVec<u32> {
        let mask = buckets - 1;
        let mut index = vec![EMPTY; buckets];
        for (slot, key) in keys.iter().enumerate() {
            let mut i = (key.flat_hash() as usize) & mask;
            while index[i] != EMPTY {
                i = (i + 1) & mask;
            }
            index[i] = slot as u32;
        }
        index.into()
    }

    /// A map over slabs whose keys are strictly ascending: the index is
    /// built in one pass, and the sorted order is the slot order, so the
    /// order cache starts fresh without a sort.
    fn from_ascending(keys: PagedVec<K>, vals: PagedVec<V>) -> Self {
        let buckets = Self::buckets_for(keys.len());
        FlatMap {
            index: Self::rehash(&keys, buckets),
            mask: buckets - 1,
            order: Mutex::new(OrderCache {
                sorted: Arc::new((0..keys.len() as u32).collect()),
                stale: false,
            }),
            keys,
            vals,
        }
    }

    fn mark_stale(&mut self) {
        // `&mut self` guarantees exclusivity, so reach the cache without a
        // lock round-trip.
        self.order.get_mut().expect("order cache poisoned").stale = true;
    }

    /// Inserts or replaces, returning the previous value if any.
    pub fn insert(&mut self, key: K, val: V) -> Option<V> {
        if let Some((_, slot)) = self.find(&key) {
            return Some(std::mem::replace(&mut self.vals[slot], val));
        }
        self.push_new(key, val);
        None
    }

    /// Appends a record for a key the caller found absent. A key above
    /// every other extends a fresh order cache in place, so the next sorted
    /// read needs no rebuild; any other key marks the cache stale. A cache
    /// still shared (with a clone of the map, or a reader's `Arc`) is
    /// marked stale too rather than copied, since the map may never read
    /// its order again.
    fn push_new(&mut self, key: K, val: V) {
        if (self.keys.len() + 1) * 2 > self.index.len() {
            self.grow();
        }
        let slot = self.keys.len() as u32;
        let mut i = (key.flat_hash() as usize) & self.mask;
        while self.index[i] != EMPTY {
            i = (i + 1) & self.mask;
        }
        self.index[i] = slot;
        // `&mut self` guarantees exclusivity, so reach the cache without a
        // lock round-trip.
        let order = self.order.get_mut().expect("order cache poisoned");
        let appends = !order.stale
            && order.sorted.len() == self.keys.len()
            && order
                .sorted
                .last()
                .is_none_or(|&last| self.keys[last as usize] < key);
        match Arc::get_mut(&mut order.sorted) {
            Some(sorted) if appends => sorted.push(slot),
            _ => order.stale = true,
        }
        self.keys.push(key);
        self.vals.push(val);
    }

    /// The value for `key`, inserting `default()` first if absent, and
    /// whether it was inserted — one lookup either way.
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> (&mut V, bool) {
        let (slot, inserted) = match self.find(&key) {
            Some((_, s)) => (s, false),
            None => {
                self.push_new(key, default());
                (self.len() - 1, true)
            }
        };
        (&mut self.vals[slot], inserted)
    }

    /// Removes `key`, returning its value. Swap-fills the freed dense slot
    /// from the tail and repairs both index entries, then backward-shifts
    /// the probe chain so linear probing needs no tombstones.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (bucket, slot) = self.find(key)?;
        self.remove_bucket(bucket);
        let last = self.keys.len() - 1;
        if slot != last {
            // The record at `last` is about to swap into `slot`; repoint its
            // index entry while the slab still holds it.
            let (moved, _) = self
                .find(&self.keys[last])
                .expect("moved record must be indexed");
            debug_assert_eq!(self.index[moved], last as u32);
            self.index[moved] = slot as u32;
        }
        self.keys.swap_remove(slot);
        let val = self.vals.swap_remove(slot);
        self.mark_stale();
        Some(val)
    }

    /// Backward-shift deletion for linear probing (Knuth 6.4 R): clears the
    /// bucket and slides later chain members back so lookups never need to
    /// probe across a hole.
    fn remove_bucket(&mut self, mut i: usize) {
        let mask = self.mask;
        let mut j = i;
        loop {
            self.index[i] = EMPTY;
            loop {
                j = (j + 1) & mask;
                let slot = self.index[j];
                if slot == EMPTY {
                    return;
                }
                let home = (self.keys[slot as usize].flat_hash() as usize) & mask;
                // Move the record at `j` into the hole at `i` iff its home
                // bucket lies cyclically outside (i, j].
                if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(i) & mask) {
                    self.index[i] = slot;
                    i = j;
                    break;
                }
            }
        }
    }

    /// Drops every record.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.vals.clear();
        self.index = vec![EMPTY; self.index.len()].into();
        self.mark_stale();
    }

    /// Unordered iteration in dense-slot order (cache-linear, not sorted).
    pub fn iter_unordered(&self) -> impl Iterator<Item = (&K, &V)> {
        self.keys.iter().zip(self.vals.iter())
    }

    /// Unordered value scan in dense-slot order.
    pub fn values_unordered(&self) -> impl Iterator<Item = &V> {
        self.vals.iter()
    }

    /// The key-sorted slot order, rebuilding the cache if stale. Cheap to
    /// call repeatedly between mutations (`Arc` clone of the cached vec).
    pub fn sorted_slots(&self) -> Arc<Vec<u32>> {
        let mut guard = self.order.lock().expect("order cache poisoned");
        if guard.stale || guard.sorted.len() != self.keys.len() {
            // Sort slot numbers in place (no key copies held beside the
            // map), reading keys through the page slices directly. Keys are
            // unique, so a stable sort gives the unstable sort's order; it
            // is the run-adaptive one: a bulk-loaded ascending prefix with a
            // few keys inserted after it costs a merge, not a full sort.
            let pages: Vec<&[K]> = self.keys.pages().collect();
            let key = |slot: u32| &pages[slot as usize / PAGE_LEN][slot as usize % PAGE_LEN];
            let mut slots: Vec<u32> = (0..self.keys.len() as u32).collect();
            slots.sort_by(|a, b| key(*a).cmp(key(*b)));
            guard.sorted = Arc::new(slots);
            guard.stale = false;
        }
        Arc::clone(&guard.sorted)
    }

    /// The keys in sorted order. The result shares the key slab's pages
    /// for the longest prefix of slots already in key order and copies only
    /// the keys after it, so a map bulk-loaded in ascending order through
    /// [`FromIterator`] hands out its sorted keys without copying a full
    /// page.
    pub fn sorted_keys(&self) -> PagedVec<K> {
        let order = self.sorted_slots();
        let in_place = order
            .iter()
            .zip(0u32..)
            .take_while(|&(&slot, i)| slot == i)
            .count();
        let mut keys = self.keys.clone();
        keys.truncate(in_place);
        keys.extend(
            order[in_place..]
                .iter()
                .map(|&slot| self.keys[slot as usize]),
        );
        keys
    }

    /// `(shared, total)` full pages of this map's slabs and index that
    /// `other` stores at the same address (see [`PagedVec::shared_pages`]).
    /// Test hook for copy-on-write sharing.
    #[doc(hidden)]
    pub fn shared_pages(&self, other: &Self) -> (usize, usize) {
        let (k, kt) = self.keys.shared_pages(&other.keys);
        let (v, vt) = self.vals.shared_pages(&other.vals);
        let (i, it) = self.index.shared_pages(&other.index);
        (k + v + i, kt + vt + it)
    }

    /// Key-sorted iteration — byte-identical order to the equivalent
    /// `BTreeMap`, as required for deterministic commitment preimages.
    pub fn iter_sorted(&self) -> SortedIter<'_, K, V> {
        SortedIter {
            map: self,
            order: self.sorted_slots(),
            pos: 0,
        }
    }
}

/// Iterator over a [`FlatMap`] in key-sorted order. Holds an `Arc` of the
/// order cache, so it stays valid (and cheap) across concurrent readers.
pub struct SortedIter<'a, K, V> {
    map: &'a FlatMap<K, V>,
    order: Arc<Vec<u32>>,
    pos: usize,
}

impl<'a, K: FlatKey, V> Iterator for SortedIter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let slot = *self.order.get(self.pos)? as usize;
        self.pos += 1;
        Some((&self.map.keys[slot], &self.map.vals[slot]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.order.len() - self.pos;
        (rem, Some(rem))
    }
}

impl<'a, K: FlatKey, V> ExactSizeIterator for SortedIter<'a, K, V> {}

impl<K: FlatKey, V: Clone> Clone for FlatMap<K, V> {
    fn clone(&self) -> Self {
        let guard = self.order.lock().expect("order cache poisoned");
        let order = OrderCache {
            sorted: Arc::clone(&guard.sorted),
            stale: guard.stale,
        };
        drop(guard);
        FlatMap {
            keys: self.keys.clone(),
            vals: self.vals.clone(),
            index: self.index.clone(),
            mask: self.mask,
            order: Mutex::new(order),
        }
    }
}

impl<K: FlatKey, V: Clone + PartialEq> PartialEq for FlatMap<K, V> {
    /// Content equality: same key set, equal values — independent of
    /// insertion order, probe layout or slot assignment.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter_unordered().all(|(k, v)| other.get(k) == Some(v))
    }
}

impl<K: FlatKey, V: Clone + Eq> Eq for FlatMap<K, V> {}

impl<K: FlatKey + Serialize, V: Clone + Serialize> Serialize for FlatMap<K, V> {
    /// Key-sorted `[k, v]` entries — the same shape the vendored serde
    /// renders a `BTreeMap` as, so the wire format is independent of the
    /// map's layout.
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter_sorted()
                .map(|(k, v)| (k.to_value(), v.to_value()))
                .collect(),
        )
    }
}

impl<K: FlatKey + Deserialize, V: Clone + Deserialize> Deserialize for FlatMap<K, V> {
    /// Loads through the bulk path ([`FromIterator`]) and rejects a repeated
    /// key, naming it: `Serialize` never writes one, so a repeat means the
    /// input was corrupted or written by hand, and keeping either entry
    /// would load a different map than the one that was written.
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let entries: Vec<(&Value, &Value)> = match value {
            Value::Map(entries) => entries.iter().map(|(k, v)| (k, v)).collect(),
            Value::Seq(items) => items
                .iter()
                .map(|item| match item {
                    Value::Seq(pair) if pair.len() == 2 => Ok((&pair[0], &pair[1])),
                    other => Err(DeError::custom(format!(
                        "FlatMap: expected [key, value] pair, found {}",
                        other.kind()
                    ))),
                })
                .collect::<Result<_, _>>()?,
            other => {
                return Err(DeError::custom(format!(
                    "FlatMap: expected map, found {}",
                    other.kind()
                )))
            }
        };
        let out: FlatMap<K, V> = entries
            .iter()
            .map(|&(k, v)| Ok((K::from_value(k)?, V::from_value(v)?)))
            .collect::<Result<_, DeError>>()?;
        if out.len() < entries.len() {
            // The bulk load kept one value per key; find the first repeat.
            let mut seen: FlatMap<K, ()> = FlatMap::with_capacity(entries.len());
            for &(k, _) in &entries {
                let key = K::from_value(k)?;
                if seen.insert(key, ()).is_some() {
                    return Err(DeError::custom(format!("FlatMap: repeated key {key}")));
                }
            }
        }
        Ok(out)
    }
}

impl<K: FlatKey, V: Clone> FromIterator<(K, V)> for FlatMap<K, V> {
    /// Bulk load, equal to inserting each pair in turn into
    /// [`FlatMap::new`]. While keys arrive strictly ascending they go
    /// straight into the slab pages, and the index is then built in one
    /// pass with the order cache already sorted. The first out-of-order or
    /// repeated key switches to [`FlatMap::insert`] for the rest, so the
    /// last value for a key wins.
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut iter = iter.into_iter().peekable();
        let mut keys = PagedVec::new();
        let mut vals = PagedVec::new();
        let mut last: Option<K> = None;
        while let Some((k, v)) = iter.next_if(|&(k, _)| last.is_none_or(|last| k > last)) {
            last = Some(k);
            keys.push(k);
            vals.push(v);
        }
        let mut out = FlatMap::from_ascending(keys, vals);
        for (k, v) in iter {
            out.insert(k, v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn addr(v: u64) -> Address {
        Address::from_low_u64(v)
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: FlatMap<Address, u64> = FlatMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(addr(1), 10), None);
        assert_eq!(m.insert(addr(2), 20), None);
        assert_eq!(m.insert(addr(1), 11), Some(10));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&addr(1)), Some(&11));
        assert_eq!(m.remove(&addr(1)), Some(11));
        assert_eq!(m.remove(&addr(1)), None);
        assert_eq!(m.get(&addr(1)), None);
        assert_eq!(m.get(&addr(2)), Some(&20));
    }

    #[test]
    fn sorted_iteration_matches_btreemap() {
        let mut flat: FlatMap<Address, u64> = FlatMap::new();
        let mut tree: BTreeMap<Address, u64> = BTreeMap::new();
        // Insertion order deliberately scrambled relative to key order.
        for v in [9u64, 2, 7, 1, 1000, 55, 3, 4, 12, 8, 600, 41] {
            flat.insert(addr(v), v * 10);
            tree.insert(addr(v), v * 10);
        }
        flat.remove(&addr(7));
        tree.remove(&addr(7));
        let f: Vec<_> = flat.iter_sorted().map(|(k, v)| (*k, *v)).collect();
        let t: Vec<_> = tree.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(f, t);
    }

    #[test]
    fn order_cache_refreshes_after_mutation() {
        let mut m: FlatMap<u64, u64> = FlatMap::new();
        m.insert(5, 50);
        assert_eq!(m.iter_sorted().count(), 1);
        m.insert(1, 10);
        let keys: Vec<u64> = m.iter_sorted().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 5]);
        m.remove(&1);
        let keys: Vec<u64> = m.iter_sorted().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![5]);
    }

    #[test]
    fn content_equality_ignores_insertion_order() {
        let mut a: FlatMap<u64, u64> = FlatMap::new();
        let mut b: FlatMap<u64, u64> = FlatMap::new();
        for k in 0..100 {
            a.insert(k, k);
        }
        for k in (0..100).rev() {
            b.insert(k, k);
        }
        assert_eq!(a, b);
        b.insert(100, 100);
        assert_ne!(a, b);
        b.remove(&100);
        assert_eq!(a, b);
        b.insert(5, 999);
        assert_ne!(a, b);
    }

    #[test]
    fn serde_shape_matches_btreemap() {
        let mut flat: FlatMap<u64, u64> = FlatMap::new();
        let mut tree: BTreeMap<u64, u64> = BTreeMap::new();
        for v in [5u64, 3, 8, 1] {
            flat.insert(v, v + 100);
            tree.insert(v, v + 100);
        }
        assert_eq!(
            serde_json::to_string(&flat.to_value()),
            serde_json::to_string(&tree.to_value())
        );
        let back = FlatMap::<u64, u64>::from_value(&flat.to_value()).unwrap();
        assert_eq!(back, flat);
    }

    #[test]
    fn deserialize_rejects_a_repeated_key_in_map_shape() {
        let entry = |k: u64, v: u64| (k.to_value(), v.to_value());
        let value = Value::Map(vec![entry(1, 10), entry(5, 50), entry(1, 11)]);
        let err = FlatMap::<u64, u64>::from_value(&value).unwrap_err();
        assert_eq!(err.message(), "FlatMap: repeated key 1");
        let value = Value::Map(vec![entry(1, 10), entry(5, 50), entry(3, 30)]);
        let back = FlatMap::<u64, u64>::from_value(&value).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.get(&3), Some(&30));
    }

    #[test]
    fn deserialize_rejects_a_repeated_key_in_pair_seq_shape() {
        // Address keys are not strings, so a map is written as `[key,
        // value]` pairs: the shape of a list of tuples.
        let pairs = |p: &[(u64, u64)]| {
            let p: Vec<(Address, u64)> = p.iter().map(|&(a, v)| (addr(a), v)).collect();
            serde_json::to_string(&p).unwrap()
        };
        let map: FlatMap<Address, u64> = [(addr(2), 20), (addr(7), 70)].into_iter().collect();
        let written = serde_json::to_string(&map).unwrap();
        assert_eq!(written, pairs(&[(2, 20), (7, 70)]));
        let back: FlatMap<Address, u64> = serde_json::from_str(&written).unwrap();
        assert_eq!(back, map);
        // The same address twice, as a corrupted or hand-edited state file
        // might hold it.
        let repeated = pairs(&[(2, 20), (7, 70), (2, 21)]);
        let err = serde_json::from_str::<FlatMap<Address, u64>>(&repeated).unwrap_err();
        assert!(
            err.to_string()
                .contains(&format!("FlatMap: repeated key {}", addr(2))),
            "{err}"
        );
    }

    #[test]
    fn ascending_load_shares_its_key_pages_with_sorted_keys() {
        let n = 3 * PAGE_LEN as u64 + 5;
        let m: FlatMap<u64, u64> = (0..n).map(|k| (k, k * 10)).collect();
        assert!(
            !m.order.lock().unwrap().stale,
            "loaded sorted, no sort owed"
        );
        let keys = m.sorted_keys();
        assert_eq!(keys.to_vec(), (0..n).collect::<Vec<_>>());
        assert_eq!(keys.shared_pages(&m.keys), (3, 3));
        for k in 0..n {
            assert_eq!(m.get(&k), Some(&(k * 10)));
        }
    }

    #[test]
    fn a_key_above_every_other_keeps_the_order_cache_fresh() {
        let n = 3 * PAGE_LEN as u64 + 5;
        let stale = |m: &FlatMap<u64, u64>| m.order.lock().unwrap().stale;
        let mut m: FlatMap<u64, u64> = (0..n).map(|k| (2 * k, k)).collect();
        m.insert(10 * n, 1);
        assert!(!stale(&m), "an appended key extends the cache in place");
        let keys = m.sorted_keys();
        assert_eq!(keys.shared_pages(&m.keys), (3, 3));
        let mut want: Vec<u64> = (0..n).map(|k| 2 * k).collect();
        want.push(10 * n);
        assert_eq!(keys.to_vec(), want);

        // A key below the largest still owes a rebuild.
        m.insert(3, 1);
        assert!(stale(&m));
        want.insert(2, 3);
        assert_eq!(m.sorted_keys().to_vec(), want);

        // A cache a clone still shares is marked stale, not copied.
        let clone = m.clone();
        m.insert(20 * n, 1);
        assert!(stale(&m) && !stale(&clone));
        want.push(20 * n);
        assert_eq!(m.sorted_keys().to_vec(), want);
    }

    #[test]
    fn a_late_out_of_order_key_still_shares_the_leading_pages() {
        let n = 3 * PAGE_LEN as u64 + 5;
        let late = 2 * PAGE_LEN as u64 + 10;
        let m: FlatMap<u64, u64> = (0..n)
            .filter(|&k| k != late)
            .chain([late, 4])
            .map(|k| (k, k + 1))
            .collect();
        assert_eq!(m.len(), n as usize);
        let keys = m.sorted_keys();
        assert_eq!(keys.to_vec(), (0..n).collect::<Vec<_>>());
        let want: Vec<u64> = m.iter_sorted().map(|(k, _)| *k).collect();
        assert_eq!(keys.to_vec(), want);
        assert_eq!(keys.shared_pages(&m.keys), (2, 3));
    }

    #[test]
    fn slots_are_dense_and_resolvable() {
        let mut m: FlatMap<TokenId, Address> = FlatMap::new();
        for v in 0..50u64 {
            m.insert(TokenId::new(v), addr(v));
        }
        for v in 0..50u64 {
            let (_, slot) = m.find(&TokenId::new(v)).unwrap();
            assert!(slot < m.len());
            assert_eq!(m.keys[slot], TokenId::new(v));
            assert_eq!(m.vals[slot], addr(v));
        }
    }

    #[test]
    fn heavy_churn_differential_vs_btreemap() {
        // Deterministic pseudo-random op stream; no external RNG needed.
        let mut flat: FlatMap<u64, u64> = FlatMap::new();
        let mut tree: BTreeMap<u64, u64> = BTreeMap::new();
        let mut x = 0x1234_5678_9abc_def0u64;
        for step in 0..20_000u64 {
            x = mix64(x.wrapping_add(step));
            let key = x % 512; // force collisions and reuse
            match x % 3 {
                0 | 1 => {
                    assert_eq!(flat.insert(key, step), tree.insert(key, step));
                }
                _ => {
                    assert_eq!(flat.remove(&key), tree.remove(&key));
                }
            }
            assert_eq!(flat.len(), tree.len());
        }
        let f: Vec<_> = flat.iter_sorted().map(|(k, v)| (*k, *v)).collect();
        let t: Vec<_> = tree.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(f, t);
    }
}
