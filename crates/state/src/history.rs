//! The "time machine": version history queries over the delta log.
//!
//! §3.4: "better version control systems that track the mapping between past
//! configurations and their corresponding states — i.e., a 'time machine' —
//! would be a significant help to checkpointing resource states and
//! generating precise rollback plans."
//!
//! The old store checkpointed a *full snapshot* per version; the log store
//! keeps one [`VersionRecord`] per commit instead — author, message, time,
//! the program (a hash or a patch) and the delta — and this view answers
//! the same queries (`latest`, `by_serial`) over those records without
//! materializing any state. Materialization is a separate, explicit step
//! ([`crate::LogStore::snapshot_at`]), because most history queries never
//! need it.

use crate::log::VersionRecord;

/// Borrowed, query-friendly view over the store's version records
/// (oldest first). Obtained from [`crate::LogStore::history`].
#[derive(Debug, Clone, Copy)]
pub struct HistoryView<'a> {
    versions: &'a [VersionRecord],
}

impl<'a> HistoryView<'a> {
    pub(crate) fn new(versions: &'a [VersionRecord]) -> HistoryView<'a> {
        HistoryView { versions }
    }

    /// Number of committed versions.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Latest committed version.
    pub fn latest(&self) -> Option<&'a VersionRecord> {
        self.versions.last()
    }

    /// The version with the given serial.
    pub fn by_serial(&self, serial: u64) -> Option<&'a VersionRecord> {
        self.versions.iter().find(|v| v.serial == serial)
    }

    /// All versions, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &'a VersionRecord> {
        self.versions.iter()
    }
}

impl<'a> IntoIterator for HistoryView<'a> {
    type Item = &'a VersionRecord;
    type IntoIter = std::slice::Iter<'a, VersionRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.versions.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless_types::SimTime;
    use std::collections::BTreeMap;

    fn version(serial: u64, at: u64, author: &str) -> VersionRecord {
        VersionRecord {
            serial,
            at: SimTime(at),
            author: author.to_owned(),
            message: format!("v{serial}"),
            config: None,
            puts: vec![],
            dels: vec![],
            outputs: BTreeMap::new(),
            patch: None,
        }
    }

    fn versions() -> Vec<VersionRecord> {
        vec![
            version(1, 100, "alice"),
            version(2, 200, "bob"),
            version(5, 500, "alice"),
        ]
    }

    #[test]
    fn lookup_by_serial_and_latest() {
        let vs = versions();
        let h = HistoryView::new(&vs);
        assert_eq!(h.len(), 3);
        assert_eq!(h.latest().unwrap().serial, 5);
        assert_eq!(h.by_serial(2).unwrap().author, "bob");
        assert!(h.by_serial(3).is_none());
    }
}
