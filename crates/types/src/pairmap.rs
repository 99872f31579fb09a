//! A map keyed by a pair of names.
//!
//! The front end's tables are keyed by `(type, name)` — a block — or
//! `(type, value)` — an identity. Keyed by an owned pair, every probe would
//! build two `String`s to throw away; keyed by a rendered `"type.name"`,
//! one. [`PairMap`] nests the second name under the first, so a lookup
//! borrows both halves and an insert copies only the half that is new: a
//! resource type is stored once however many blocks have it.

use std::collections::BTreeMap;

/// An ordered map from `(first, second)` to `V`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairMap<V> {
    map: BTreeMap<String, BTreeMap<String, V>>,
}

impl<V> Default for PairMap<V> {
    fn default() -> Self {
        PairMap {
            map: BTreeMap::new(),
        }
    }
}

impl<V> PairMap<V> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn get(&self, first: &str, second: &str) -> Option<&V> {
        self.map.get(first)?.get(second)
    }

    pub fn get_mut(&mut self, first: &str, second: &str) -> Option<&mut V> {
        self.map.get_mut(first)?.get_mut(second)
    }

    pub fn contains(&self, first: &str, second: &str) -> bool {
        self.get(first, second).is_some()
    }

    /// Map the pair to `value`; what it was mapped to before.
    pub fn insert(&mut self, first: &str, second: &str, value: V) -> Option<V> {
        match self.map.get_mut(first) {
            Some(seconds) => match seconds.get_mut(second) {
                Some(held) => Some(std::mem::replace(held, value)),
                None => seconds.insert(second.to_owned(), value),
            },
            None => {
                let seconds = BTreeMap::from([(second.to_owned(), value)]);
                self.map.insert(first.to_owned(), seconds);
                None
            }
        }
    }

    pub fn remove(&mut self, first: &str, second: &str) -> Option<V> {
        let seconds = self.map.get_mut(first)?;
        let value = seconds.remove(second)?;
        if seconds.is_empty() {
            self.map.remove(first);
        }
        Some(value)
    }

    /// Every entry, in `(first, second)` order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, &V)> {
        self.map.iter().flat_map(|(first, seconds)| {
            let seconds = seconds.iter();
            seconds.map(move |(second, value)| (first.as_str(), second.as_str(), value))
        })
    }

    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.map.values_mut().flat_map(BTreeMap::values_mut)
    }

    /// Number of pairs mapped.
    pub fn len(&self) -> usize {
        self.map.values().map(BTreeMap::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut m: PairMap<u32> = PairMap::new();
        assert_eq!(m.insert("aws_vpc", "main", 1), None);
        assert_eq!(m.insert("aws_vpc", "main", 2), Some(1));
        assert_eq!(m.insert("aws_vpc", "spare", 3), None);
        assert_eq!(m.insert("aws_subnet", "main", 4), None);
        assert_eq!(m.get("aws_vpc", "main"), Some(&2));
        assert_eq!(m.get("aws_vpc", "none"), None);
        assert_eq!(m.get("none", "main"), None);
        assert_eq!(m.len(), 3);
        if let Some(v) = m.get_mut("aws_subnet", "main") {
            *v += 1;
        }
        let all: Vec<_> = m.iter().map(|(a, b, v)| (a, b, *v)).collect();
        let expected = vec![
            ("aws_subnet", "main", 5),
            ("aws_vpc", "main", 2),
            ("aws_vpc", "spare", 3),
        ];
        assert_eq!(all, expected);
        assert_eq!(m.remove("aws_subnet", "main"), Some(5));
        assert_eq!(m.remove("aws_subnet", "main"), None);
        assert_eq!(m.len(), 2);
        assert!(!m.contains("aws_subnet", "main"));
        assert_eq!(m, m.clone());
        m.clear();
        assert!(m.is_empty());
    }
}
