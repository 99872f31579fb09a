//! Small ordered maps and sets kept as one sorted vector.
//!
//! A `BTreeMap` or `BTreeSet` that holds anything allocates a whole leaf of
//! eleven slots: 632 B for one `(String, Value)` attribute, 1 072 B for two
//! resource addresses, 544 B for one attribute span. The maps a resource
//! carries — its attributes, its dependencies, the spans of its block's
//! arguments — hold one to a few entries, and the memo, the state and the
//! cloud's records hold one of each per resource. [`VecMap`] and [`VecSet`]
//! keep their entries in one vector sorted by key and answer as the B-tree
//! ones do: the same iteration order and the same `Debug`, `Hash`, `Eq`,
//! `Ord` and JSON forms, so a content hash, a log line or a rendered plan
//! cannot tell them apart.
//!
//! A lookup is a binary search. An insert or a remove moves the entries
//! behind it, which is what a map of a few entries wants and a large one
//! does not: a large one is built whole — collected, extended or decoded —
//! which sorts once and allocates the exact length.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::iter::FusedIterator;
use std::ops::Index;

use serde::{DeError, Deserialize, Reader, Serialize, Writer};

/// An ordered map with `BTreeMap`'s semantics over one sorted vector.
#[derive(Clone, PartialEq, Eq)]
pub struct VecMap<K, V> {
    /// Strictly increasing by key.
    entries: Vec<(K, V)>,
}

/// An ordered set with `BTreeSet`'s semantics over one sorted vector.
#[derive(Clone, PartialEq, Eq)]
pub struct VecSet<T> {
    /// Strictly increasing.
    items: Vec<T>,
}

// ------------------------------------------------------------------ map

impl<K, V> VecMap<K, V> {
    pub const fn new() -> Self {
        VecMap {
            entries: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries in key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter(self.entries.iter())
    }

    pub fn keys(&self) -> impl DoubleEndedIterator<Item = &K> + ExactSizeIterator + Clone {
        self.entries.iter().map(|(k, _)| k)
    }

    pub fn values(&self) -> impl DoubleEndedIterator<Item = &V> + ExactSizeIterator + Clone {
        self.entries.iter().map(|(_, v)| v)
    }

    pub fn values_mut(&mut self) -> impl DoubleEndedIterator<Item = &mut V> + ExactSizeIterator {
        self.entries.iter_mut().map(|(_, v)| v)
    }

    /// Keep the entries `keep` says yes to, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| keep(k, v));
    }
}

impl<K: Ord, V> VecMap<K, V> {
    /// Where `key` is (`Ok`) or would go (`Err`).
    fn find<Q>(&self, key: &Q) -> Result<usize, usize>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.entries.binary_search_by(|(k, _)| k.borrow().cmp(key))
    }

    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.find(key).ok().map(|at| &self.entries[at].1)
    }

    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let at = self.find(key).ok()?;
        Some(&mut self.entries[at].1)
    }

    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.find(key).is_ok()
    }

    /// Map `key` to `value`; the value it had. As in a `BTreeMap`, a key
    /// already present is not replaced, only its value.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(&key) {
            Ok(at) => Some(std::mem::replace(&mut self.entries[at].1, value)),
            Err(at) => {
                self.entries.insert(at, (key, value));
                None
            }
        }
    }

    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let at = self.find(key).ok()?;
        Some(self.entries.remove(at).1)
    }

    /// The map of `entries` in any order, at their exact length: sorted
    /// once, stably, and of equal keys the first key with the last value —
    /// what inserting them one by one into a `BTreeMap` keeps.
    fn from_vec(mut entries: Vec<(K, V)>) -> Self {
        if !entries.is_sorted_by(|a, b| a.0 < b.0) {
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            entries.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    std::mem::swap(&mut later.1, &mut kept.1);
                }
                same
            });
        }
        entries.shrink_to_fit();
        VecMap { entries }
    }
}

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap::new()
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for VecMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// As `BTreeMap` hashes: the length, then each entry.
impl<K: Hash, V: Hash> Hash for VecMap<K, V> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        for entry in self {
            entry.hash(state);
        }
    }
}

impl<K: PartialOrd, V: PartialOrd> PartialOrd for VecMap<K, V> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        self.iter().partial_cmp(other.iter())
    }
}

impl<K: Ord, V: Ord> Ord for VecMap<K, V> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.iter().cmp(other.iter())
    }
}

impl<K, V, Q> Index<&Q> for VecMap<K, V>
where
    K: Borrow<Q> + Ord,
    Q: Ord + ?Sized,
{
    type Output = V;

    fn index(&self, key: &Q) -> &V {
        self.get(key).expect("no entry found for key")
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for VecMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        VecMap::from_vec(iter.into_iter().collect())
    }
}

/// As if each entry were inserted in turn, sorted once.
impl<K: Ord, V> Extend<(K, V)> for VecMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        let len = self.entries.len();
        self.entries.extend(iter);
        if self.entries.len() > len {
            *self = VecMap::from_vec(std::mem::take(&mut self.entries));
        }
    }
}

impl<K: Ord, V, const N: usize> From<[(K, V); N]> for VecMap<K, V> {
    fn from(entries: [(K, V); N]) -> Self {
        entries.into_iter().collect()
    }
}

impl<K, V> IntoIterator for VecMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::vec::IntoIter<(K, V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl<'a, K, V> IntoIterator for &'a VecMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The entries of a [`VecMap`] in key order, as `(&K, &V)`.
#[derive(Clone)]
pub struct Iter<'a, K, V>(std::slice::Iter<'a, (K, V)>);

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(k, v)| (k, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl<K, V> DoubleEndedIterator for Iter<'_, K, V> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.0.next_back().map(|(k, v)| (k, v))
    }
}

impl<K, V> ExactSizeIterator for Iter<'_, K, V> {}
impl<K, V> FusedIterator for Iter<'_, K, V> {}

/// A JSON object, as a `BTreeMap`'s: the entries in key order.
impl<K: Serialize, V: Serialize> Serialize for VecMap<K, V> {
    fn ser(&self, w: &mut Writer<'_>) {
        w.begin_obj();
        let mut first = true;
        for (k, v) in self {
            w.key(first, k);
            first = false;
            v.ser(w);
        }
        w.end_obj(first);
    }
}

/// An object in any key order, a repeated key's last value winning, as a
/// `BTreeMap` reads it. Canonical JSON arrives sorted, which costs one
/// check of the order.
impl<K: Deserialize + Ord, V: Deserialize> Deserialize for VecMap<K, V> {
    fn deser(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.begin_obj()?;
        let entries = read_small(|| {
            if !r.next_entry()? {
                return Ok(None);
            }
            let key = K::deser(r)?;
            r.colon()?;
            Ok(Some((key, V::deser(r)?)))
        })?;
        Ok(VecMap::from_vec(entries))
    }
}

/// Entries a decoded collection reads before it allocates: the common
/// sizes get one allocation of their exact length.
const READ_AHEAD: usize = 8;

/// The items `next` yields until `None`, in a vector allocated once for up
/// to [`READ_AHEAD`] of them (a growing vector would allocate, grow and
/// shrink to the exact length).
fn read_small<T>(mut next: impl FnMut() -> Result<Option<T>, DeError>) -> Result<Vec<T>, DeError> {
    let mut head: [Option<T>; READ_AHEAD] = Default::default();
    for (n, slot) in head.iter_mut().enumerate() {
        match next()? {
            Some(item) => *slot = Some(item),
            None => {
                let mut items = Vec::with_capacity(n);
                items.extend(head.into_iter().flatten());
                return Ok(items);
            }
        }
    }
    let mut items: Vec<T> = head.into_iter().flatten().collect();
    while let Some(item) = next()? {
        items.push(item);
    }
    Ok(items)
}

// ------------------------------------------------------------------ set

impl<T> VecSet<T> {
    pub const fn new() -> Self {
        VecSet { items: Vec::new() }
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The items in order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    /// Keep the items `keep` says yes to, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        self.items.retain(|item| keep(item));
    }
}

impl<T: Ord> VecSet<T> {
    fn find<Q>(&self, value: &Q) -> Result<usize, usize>
    where
        T: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.items.binary_search_by(|item| item.borrow().cmp(value))
    }

    pub fn contains<Q>(&self, value: &Q) -> bool
    where
        T: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.find(value).is_ok()
    }

    /// Add `value`; whether it was new. As in a `BTreeSet`, an equal item
    /// already present stays.
    pub fn insert(&mut self, value: T) -> bool {
        match self.find(&value) {
            Ok(_) => false,
            Err(at) => {
                self.items.insert(at, value);
                true
            }
        }
    }

    pub fn remove<Q>(&mut self, value: &Q) -> bool
    where
        T: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let Ok(at) = self.find(value) else {
            return false;
        };
        self.items.remove(at);
        true
    }

    /// The set of `items` in any order, at its exact length: sorted once,
    /// stably, the first of equal items kept.
    fn from_vec(mut items: Vec<T>) -> Self {
        if !items.is_sorted_by(|a, b| a < b) {
            items.sort();
            items.dedup();
        }
        items.shrink_to_fit();
        VecSet { items }
    }
}

impl<T> Default for VecSet<T> {
    fn default() -> Self {
        VecSet::new()
    }
}

impl<T: fmt::Debug> fmt::Debug for VecSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// As `BTreeSet` hashes: the length, then each item.
impl<T: Hash> Hash for VecSet<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        for item in self {
            item.hash(state);
        }
    }
}

impl<T: PartialOrd> PartialOrd for VecSet<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        self.iter().partial_cmp(other.iter())
    }
}

impl<T: Ord> Ord for VecSet<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.iter().cmp(other.iter())
    }
}

impl<T: Ord> FromIterator<T> for VecSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        VecSet::from_vec(iter.into_iter().collect())
    }
}

/// As if each item were inserted in turn, sorted once.
impl<T: Ord> Extend<T> for VecSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        let len = self.items.len();
        self.items.extend(iter);
        if self.items.len() > len {
            *self = VecSet::from_vec(std::mem::take(&mut self.items));
        }
    }
}

impl<T> IntoIterator for VecSet<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl<'a, T> IntoIterator for &'a VecSet<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A JSON array in order, as a `BTreeSet`'s.
impl<T: Serialize> Serialize for VecSet<T> {
    fn ser(&self, w: &mut Writer<'_>) {
        w.seq(self);
    }
}

/// An array in any order, a repeated item read once.
impl<T: Deserialize + Ord> Deserialize for VecSet<T> {
    fn deser(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.begin_arr()?;
        let items = read_small(|| match r.next_elem()? {
            true => T::deser(r).map(Some),
            false => Ok(None),
        })?;
        Ok(VecSet::from_vec(items))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_built_map_holds_its_exact_length() {
        let map: VecMap<u32, u32> = (0..5).rev().map(|k| (k, k)).collect();
        assert_eq!(map.entries.capacity(), 5);
        let read: VecMap<String, u32> =
            serde_json::from_str(r#"{"b":1,"a":2,"c":3}"#).expect("an object");
        assert_eq!(read.entries.capacity(), 3);
        let read: VecSet<u32> = serde_json::from_str("[9,1,2,3,4,5,6,7,8,1]").expect("an array");
        assert_eq!(read.items, (1..10).collect::<Vec<_>>());
        assert_eq!(read.items.capacity(), 9);
    }
}
