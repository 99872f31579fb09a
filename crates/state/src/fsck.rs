//! Offline integrity checking for state logs (`cloudless state fsck`).
//!
//! fsck re-derives everything the log claims and cross-checks it:
//!
//! 1. **Framing** — magic header, per-record FNV-64 line checksums. A
//!    damaged *final* record is reported as a torn tail (recoverable by
//!    open); damage anywhere earlier is an error.
//! 2. **Content addresses** — every blob's framed hash must equal the
//!    FNV-128 of its body.
//! 3. **Version chain** — serials strictly increase; every `puts` hash
//!    resolves to a blob seen earlier in the log that holds the record of
//!    the put's address; every `prev` (and `dels` entry) must match the
//!    world as replayed up to that record, so the O(delta) undo chain is
//!    provably consistent.
//! 4. **Checkpoint reachability** — each checkpoint's address→hash map
//!    must equal the replayed fold at that point, its serial must match
//!    the last version, and every hash it references must resolve.
//! 5. **Program chain** — a version's `config` resolves to a blob seen
//!    earlier; a `patch` names the newest earlier version that recorded a
//!    program, and its window fits that program's text on `char`
//!    boundaries, so every version's source can be rebuilt.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;

use crate::cas::{decode_resource, ContentHash};
use crate::log::{Frames, LogRecord};

/// What fsck found.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    pub records: usize,
    pub blobs: usize,
    pub versions: usize,
    pub checkpoints: usize,
    /// Bytes of damaged final record (recoverable on open; fsck still
    /// reports the log as not clean until recovery has run).
    pub torn_tail_bytes: u64,
    pub errors: Vec<String>,
}

impl FsckReport {
    /// A clean log: no errors and no torn tail.
    pub fn clean(&self) -> bool {
        self.errors.is_empty() && self.torn_tail_bytes == 0
    }

    /// Human-readable summary, one line per fact.
    pub fn render(&self) -> String {
        let mut out = format!(
            "records: {} ({} blobs, {} versions, {} checkpoints)\n",
            self.records, self.blobs, self.versions, self.checkpoints
        );
        if self.torn_tail_bytes > 0 {
            out.push_str(&format!(
                "torn tail: {} bytes (recoverable on open)\n",
                self.torn_tail_bytes
            ));
        }
        for e in &self.errors {
            out.push_str(&format!("error: {e}\n"));
        }
        out.push_str(if self.clean() {
            "clean\n"
        } else {
            "NOT CLEAN\n"
        });
        out
    }
}

/// fsck a log file on disk.
pub fn fsck_file(path: &Path) -> Result<FsckReport, std::io::Error> {
    Ok(fsck_bytes(&std::fs::read(path)?))
}

/// fsck raw log bytes. Never fails: all damage lands in the report.
pub fn fsck_bytes(bytes: &[u8]) -> FsckReport {
    let mut report = FsckReport::default();
    // pass 1: framing — the walk open makes, except that a damaged line
    // with more after it is noted and passed over, so every one is found
    let mut frames = match Frames::after_header(bytes) {
        Ok(frames) => frames,
        Err(why) => {
            report.errors.push(why);
            return report;
        }
    };
    let mut records: Vec<(usize, LogRecord)> = Vec::new(); // (line no, record)
    let mut whole = frames.pos;
    while let Some((_, last, record)) = frames.next() {
        let line_no = records.len() + report.errors.len() + 2;
        match record {
            Ok(record) => records.push((line_no, record)),
            Err(_) if last => break,
            Err(why) => report.errors.push(format!("line {line_no}: {why}")),
        }
        whole = frames.pos;
    }
    // what follows the last whole line is a torn append: recoverable
    // (open truncates it), not structural corruption
    report.torn_tail_bytes = (bytes.len() - whole) as u64;

    // pass 2: semantic replay
    let mut blobs: HashMap<ContentHash, &str> = HashMap::new();
    let mut world: BTreeMap<String, ContentHash> = BTreeMap::new();
    let mut last_serial: Option<u64> = None;
    // the newest version that recorded a program, and its text when the
    // chain behind it could be followed
    let mut program: Option<(u64, Option<String>)> = None;
    for (line, record) in &records {
        report.records += 1;
        match record {
            LogRecord::Blob(b) => {
                report.blobs += 1;
                let computed = ContentHash::of(&b.body);
                if computed != b.hash {
                    report.errors.push(format!(
                        "line {line}: blob framed as {} but body hashes to {computed}",
                        b.hash
                    ));
                }
                blobs.insert(b.hash, &*b.body);
            }
            LogRecord::Version(v) => {
                report.versions += 1;
                if let Some(prev) = last_serial {
                    if v.serial <= prev {
                        report.errors.push(format!(
                            "line {line}: version serial {} not after {prev}",
                            v.serial
                        ));
                    }
                }
                last_serial = Some(v.serial);
                for p in &v.puts {
                    match blobs
                        .get(&p.hash)
                        .map(|body| decode_resource(&p.addr, body))
                    {
                        None => report.errors.push(format!(
                            "line {line}: put {} references blob {} not yet in log",
                            p.addr, p.hash
                        )),
                        Some(Err(why)) => {
                            report
                                .errors
                                .push(format!("line {line}: put {}: {why}", p.addr));
                        }
                        Some(Ok(_)) => {}
                    }
                    if world.get(&p.addr).copied() != p.prev {
                        report.errors.push(format!(
                            "line {line}: put {} claims prev {:?} but replay says {:?}",
                            p.addr,
                            p.prev.map(|h| h.to_string()),
                            world.get(&p.addr).map(|h| h.to_string()),
                        ));
                    }
                    world.insert(p.addr.clone(), p.hash);
                }
                match (v.config, &v.patch) {
                    (Some(full), _) => {
                        let body = blobs.get(&full).map(|body| (*body).to_owned());
                        if body.is_none() {
                            report
                                .errors
                                .push(format!("line {line}: program blob {full} not yet in log"));
                        }
                        program = Some((v.serial, body));
                    }
                    (None, Some(patch)) => {
                        // a chain already reported broken stays unknown
                        let mut text = match program.take() {
                            Some((base, text)) if base == patch.base => text,
                            other => {
                                report.errors.push(format!(
                                    "line {line}: program patch on serial {} but the newest \
                                     program is that of {:?}",
                                    patch.base,
                                    other.map(|(base, _)| base)
                                ));
                                None
                            }
                        };
                        if let Some(Err(why)) = text.as_mut().map(|text| patch.apply(text)) {
                            report.errors.push(format!("line {line}: {why}"));
                            text = None;
                        }
                        program = Some((v.serial, text));
                    }
                    (None, None) => {}
                }
                for d in &v.dels {
                    match world.remove(&d.addr) {
                        Some(had) if had == d.prev => {}
                        Some(had) => report.errors.push(format!(
                            "line {line}: del {} claims prev {} but replay says {had}",
                            d.addr, d.prev
                        )),
                        None => report.errors.push(format!(
                            "line {line}: del {} of address absent in replay",
                            d.addr
                        )),
                    }
                }
            }
            LogRecord::Checkpoint(c) => {
                report.checkpoints += 1;
                if let Some(prev) = last_serial {
                    if c.serial != prev {
                        report.errors.push(format!(
                            "line {line}: checkpoint serial {} but last version was {prev}",
                            c.serial
                        ));
                    }
                }
                if !c.folds_to(&world) {
                    report.errors.push(format!(
                        "line {line}: checkpoint at serial {} disagrees with replayed world \
                         ({} vs {} entries)",
                        c.serial,
                        c.entries.len(),
                        world.len()
                    ));
                }
                for (addr, hash) in &c.entries {
                    if !blobs.contains_key(hash) {
                        report.errors.push(format!(
                            "line {line}: checkpoint entry {addr} references unreachable blob {hash}"
                        ));
                    }
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cas::fnv64;
    use crate::log::MemDevice;
    use crate::store::{CommitMeta, LogStore, StateDelta};
    use cloudless_types::{Region, ResourceAddr, ResourceId, SimTime, Value};

    fn res(addr: &str, name: &str) -> crate::DeployedResource {
        let addr: ResourceAddr = addr.parse().unwrap();
        crate::DeployedResource {
            rtype: addr.rtype.clone(),
            id: ResourceId::new("id-1"),
            region: Region::new("us-east-1"),
            attrs: [("name".to_owned(), Value::from(name))].into(),
            depends_on: vec![],
            created_at: SimTime::ZERO,
            addr,
        }
    }

    fn store_with_history() -> LogStore {
        let mut store = LogStore::in_memory();
        for i in 0..10 {
            store
                .commit(
                    StateDelta {
                        puts: vec![res("aws_vpc.v", &format!("n{i}"))],
                        ..Default::default()
                    },
                    CommitMeta::bare(format!("v{i}")),
                )
                .unwrap();
        }
        store.append_checkpoint().unwrap();
        store
    }

    fn bytes_of(store: &mut LogStore) -> Vec<u8> {
        store.device.read_all().unwrap()
    }

    #[test]
    fn clean_log_passes() {
        let mut store = store_with_history();
        let report = fsck_bytes(&bytes_of(&mut store));
        assert!(report.clean(), "{}", report.render());
        assert_eq!(report.versions, 10);
        assert!(report.checkpoints >= 1);
        assert!(report.render().contains("clean"));
    }

    #[test]
    fn empty_and_fresh_logs_pass() {
        assert!(fsck_bytes(b"").clean());
        let mut store = LogStore::in_memory();
        assert!(fsck_bytes(&bytes_of(&mut store)).clean());
    }

    #[test]
    fn torn_tail_is_flagged_but_recoverable() {
        let mut store = store_with_history();
        let mut bytes = bytes_of(&mut store);
        bytes.truncate(bytes.len() - 5);
        let report = fsck_bytes(&bytes);
        assert!(!report.clean());
        assert!(report.torn_tail_bytes > 0);
        assert!(report.errors.is_empty(), "torn tail is not a hard error");
        // open recovers; after that fsck is clean
        let (store, rec) = LogStore::open_device(Box::new(MemDevice::from_bytes(bytes))).unwrap();
        assert!(rec.torn_bytes_dropped > 0);
        let mut store = store;
        assert!(fsck_bytes(&bytes_of(&mut store)).clean());
    }

    #[test]
    fn flipped_byte_mid_log_is_an_error() {
        let mut store = store_with_history();
        let mut bytes = bytes_of(&mut store);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let report = fsck_bytes(&bytes);
        assert!(!report.clean());
        assert!(!report.errors.is_empty());
    }

    #[test]
    fn blob_body_tamper_breaks_content_address() {
        let mut store = LogStore::in_memory();
        store
            .commit(
                StateDelta {
                    puts: vec![res("aws_vpc.v", "aaaa")],
                    ..Default::default()
                },
                CommitMeta::bare("v1"),
            )
            .unwrap();
        let bytes = bytes_of(&mut store);
        // tamper with the blob body *and* re-frame the line checksum, so
        // only the content address can catch it
        let text = String::from_utf8(bytes).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let blob_line = lines
            .iter()
            .position(|l| l.contains("aaaa"))
            .expect("blob line");
        let payload = lines[blob_line].split_once(' ').unwrap().1;
        let tampered_payload = payload.replace("aaaa", "bbbb");
        lines[blob_line] = format!(
            "{:016x} {tampered_payload}",
            fnv64(tampered_payload.as_bytes())
        );
        let tampered = lines.join("\n") + "\n";
        let report = fsck_bytes(tampered.as_bytes());
        assert!(!report.clean());
        assert!(
            report.errors.iter().any(|e| e.contains("hashes to")),
            "{}",
            report.render()
        );
    }

    #[test]
    fn checkpoint_disagreement_is_caught() {
        let mut store = store_with_history();
        let bytes = bytes_of(&mut store);
        let text = String::from_utf8(bytes).unwrap();
        // drop one version record; the later checkpoint no longer folds
        let lines: Vec<&str> = text.lines().collect();
        let victim = lines
            .iter()
            .position(|l| l.contains("\"n4\"") && l.contains("Version"))
            .or_else(|| lines.iter().position(|l| l.contains("Version")))
            .unwrap();
        let pruned: String = lines
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != victim)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        let report = fsck_bytes(pruned.as_bytes());
        assert!(!report.clean(), "{}", report.render());
    }
}
