//! The memo image: the pipeline's memo checkpointed beside the state log,
//! so that a fresh process splices its first edit instead of walking every
//! block cold.
//!
//! The image is a header line, flat little-endian sections, a directory of
//! where each sits, and one checksum over every byte before it. The
//! sections: the source and its chunk table (offsets, first lines, hashes
//! and block names); each block's instance count and record; the blocks in
//! name order; the block DAG's successors; the plan cache's visiting order
//! and the addresses it owes; and the claims in key order, each written as
//! it is made. A block's name resolves to its position through the name
//! order. No dirtiness is written: the plan cache reads it off its
//! changes, which the image owes, so the first run plans each changed
//! instance again and the blocks that read it. Opening
//! an image checks the checksum, copies the integer tables and validates
//! them, and parses the program's non-resource half off its chunks. It
//! decodes no block: a block's record (its instances, spans and lifecycle)
//! is decoded when a read of the instance list first reaches it
//! ([`Instances::by_block`]), and a claim is looked up where it sits
//! ([`ClaimTable`]). A block with a deferred attribute is decoded, parsed
//! and expanded again at open (expressions are not encoded). The checksum
//! vouches for every record: one that does not decode is the writer's
//! defect, and stops the process rather than be planned from.
//!
//! A record says nothing of where its block sits (spans count from the start
//! of its chunk), so the memo writes the next image copying the records of
//! the blocks no edit reached and encoding the rest.
//!
//! The key is the format version (the header line) and a fingerprint of what
//! a walk reads besides the source and the state: the inputs, the lint gate,
//! the validation level, the mined specs' rules, and the catalog, module
//! library and data resolver. The plan cache is anchored to the serial, log
//! length and last version's frame it was written at; a store anywhere else
//! keeps the front-end memo and re-plans every instance. An image that is
//! absent, of another version, under another key, damaged or inconsistent is
//! refused with a `MEM0xx` reason, and the run is the cold start it would
//! have been.

use std::cmp::Ordering;
use std::fmt;
use std::io::Write;
use std::ops::Range;
use std::sync::Arc;

use cloudless_analyze::incremental::{outer_refs, LintEnv};
use cloudless_graph::{DagBuilder, NodeId};
use cloudless_hcl::fingerprint::{Chunk, ChunkKind, ChunkMap};
use cloudless_hcl::parser::parse_at;
use cloudless_hcl::program::{
    expand_resource_block, expand_root, provider_region, BlockSource, EvalEnv, Instances,
    Lifecycle, Program, ResourceInstance, RootExpansion,
};
use cloudless_hcl::Diagnostics;
use cloudless_obs::Recorder;
use cloudless_state::cas::fnv64;
use cloudless_types::{
    join, Attrs, ResourceAddr, ResourceKey, ResourceTypeName, SourcePos, Span, Value, VecMap,
};
use serde::{Deserialize, Serialize};

use super::{parse_block, Claims, Memo, PipelineCtx, Rule};

/// The header line: the format and its version.
const MAGIC: &str = "cloudless-memo v3";
/// What every version's header starts with.
const MAGIC_STEM: &str = "cloudless-memo v";

/// What a walk reads besides the source and the state, that the engine
/// holds and the memo does not (the catalog, the module library and the
/// data resolver, fingerprinted), and where the image's plan cache is
/// anchored: the committed serial, the log's length and the checksum of the
/// last version's frame.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ImageKey {
    pub env: u64,
    pub serial: u64,
    pub log_bytes: u64,
    pub head: u64,
}

/// Why an image was refused: a `MEM0xx` code and what it found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Refusal {
    pub code: &'static str,
    pub why: String,
}

impl fmt::Display for Refusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.why)
    }
}

fn refuse<T>(code: &'static str, why: impl Into<String>) -> Result<T, Refusal> {
    Err(Refusal {
        code,
        why: why.into(),
    })
}

/// MEM001: there is no image (or it cannot be read).
fn absent(why: impl Into<String>) -> Refusal {
    Refusal {
        code: "MEM001",
        why: why.into(),
    }
}

/// MEM005: the image's contents do not fit together.
fn inconsistent<T>(why: impl Into<String>) -> Result<T, Refusal> {
    refuse("MEM005", why)
}

/// The key of a memo derived under `config` in an engine whose catalog,
/// modules and data fingerprint to `env`.
fn key_of(config: (impl fmt::Debug, impl fmt::Debug, impl fmt::Debug), env: u64) -> u64 {
    let (gate, level, inputs) = config;
    let text = format!("{MAGIC}\n{gate:?}\n{level:?}\n{inputs:?}\n{env:016x}");
    fnv64(text.as_bytes())
}

/// The fingerprint of mined specs' rules: a memo clean under one set is
/// held to another as `Scope::pick` holds it, by checking its manifest.
fn rules_of(specs: &[cloudless_validate::MinedSpec]) -> u64 {
    let rules: Vec<_> = specs.iter().map(|spec| spec.rule()).collect();
    fnv64(format!("{rules:?}").as_bytes())
}

/// The image's checksum, fed as the bytes go by: four interleaved
/// multiply-xor lanes over 32-byte blocks of 8-byte words, so every word
/// sits behind a bijection and a changed one changes the sum; the length
/// goes in last, so a cut does too.
struct Sum {
    lanes: [u64; 4],
    /// The first `held` bytes of a block not yet whole.
    pending: [u8; 32],
    held: usize,
    len: u64,
}

const K: u64 = 0x9E37_79B9_7F4A_7C15;

impl Sum {
    fn new() -> Sum {
        Sum {
            lanes: [1, 2, 3, 4],
            pending: [0; 32],
            held: 0,
            len: 0,
        }
    }

    fn block(&mut self, block: &[u8]) {
        for (lane, word) in self.lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().unwrap_or_default());
            *lane = (*lane ^ word).wrapping_mul(K).rotate_left(29);
        }
    }

    fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.held > 0 {
            let take = bytes.len().min(32 - self.held);
            self.pending[self.held..self.held + take].copy_from_slice(&bytes[..take]);
            (self.held, bytes) = (self.held + take, &bytes[take..]);
            if self.held < 32 {
                return;
            }
            let block = self.pending;
            self.block(&block);
            self.held = 0;
        }
        let mut blocks = bytes.chunks_exact(32);
        for block in blocks.by_ref() {
            self.block(block);
        }
        let rest = blocks.remainder();
        self.pending[..rest.len()].copy_from_slice(rest);
        self.held = rest.len();
    }

    fn finish(mut self) -> u64 {
        let mut tail = [0u8; 32];
        tail[..self.held].copy_from_slice(&self.pending[..self.held]);
        self.block(&tail);
        let mix = |h: u64| (h ^ (h >> 31)).wrapping_mul(K);
        let folded = (self.lanes.iter()).fold(self.len, |sum, &lane| {
            (sum.rotate_left(17) ^ mix(lane)).wrapping_mul(K)
        });
        folded ^ (folded >> 29)
    }
}

fn checksum(bytes: &[u8]) -> u64 {
    let mut sum = Sum::new();
    sum.update(bytes);
    sum.finish()
}

// ------------------------------------------------------------------ bytes

/// The sections of an image, in the order they are written; the directory
/// at its end says where each one is.
const HEAD: usize = 0;
const SOURCE: usize = 1;
const NAMES: usize = 2;
const CHUNKS: usize = 3;
const RECORDS: usize = 4;
const BLOCKS: usize = 5;
const BY_NAME: usize = 6;
const SUCC_AT: usize = 7;
const SUCC: usize = 8;
const ORDER: usize = 9;
const OWED: usize = 10;
const CLAIM_HEAP: usize = 11;
const CLAIM_AT: usize = 12;
const SECTIONS: usize = 13;

fn too_large() -> std::io::Error {
    std::io::Error::other("the memo is too large for a memo image")
}

fn u32_of(v: usize) -> std::io::Result<[u8; 4]> {
    Ok(u32::try_from(v).map_err(|_| too_large())?.to_le_bytes())
}

/// What an image on its way out gathers before it sums and writes it.
const BUFFER: usize = 1 << 16;

/// An image on its way out: its sections gathered in a buffer, summed and
/// written into `w` a buffer at a time, then the directory and the sum.
struct Out<'w> {
    w: &'w mut dyn Write,
    buf: Vec<u8>,
    sum: Sum,
    /// Bytes written so far.
    at: usize,
    /// Where each section written so far starts.
    starts: Vec<usize>,
}

impl<'w> Out<'w> {
    fn new(w: &'w mut dyn Write) -> Out<'w> {
        Out {
            w,
            buf: Vec::with_capacity(BUFFER),
            sum: Sum::new(),
            at: 0,
            starts: Vec::with_capacity(SECTIONS),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.sum.update(&self.buf);
        self.w.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }

    fn put(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.at += bytes.len();
        if self.buf.len() + bytes.len() > BUFFER {
            self.flush()?;
        }
        if bytes.len() >= BUFFER {
            self.sum.update(bytes);
            return self.w.write_all(bytes);
        }
        self.buf.extend_from_slice(bytes);
        Ok(())
    }

    /// The next section starts here.
    fn section(&mut self) {
        self.starts.push(self.at);
    }

    fn u8(&mut self, v: u8) -> std::io::Result<()> {
        self.put(&[v])
    }

    fn u32(&mut self, v: usize) -> std::io::Result<()> {
        self.put(&u32_of(v)?)
    }

    fn u64(&mut self, v: u64) -> std::io::Result<()> {
        self.put(&v.to_le_bytes())
    }

    /// A length, then the bytes.
    fn bytes(&mut self, b: &[u8]) -> std::io::Result<()> {
        self.u32(b.len())?;
        self.put(b)
    }

    /// The directory (each section's start and end), then the sum.
    fn finish(mut self) -> std::io::Result<()> {
        let starts = std::mem::take(&mut self.starts);
        let ends: Vec<usize> = starts.iter().skip(1).copied().chain([self.at]).collect();
        for (start, end) in starts.into_iter().zip(ends) {
            self.u32(start)?;
            self.u32(end)?;
        }
        self.flush()?;
        let Out { w, sum, .. } = self;
        w.write_all(&sum.finish().to_le_bytes())
    }
}

/// A read of a table, every length checked against what is left.
struct In<'b> {
    bytes: &'b [u8],
    at: usize,
}

impl<'b> In<'b> {
    fn take(&mut self, n: usize) -> Option<&'b [u8]> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())?;
        let taken = &self.bytes[self.at..end];
        self.at = end;
        Some(taken)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<usize> {
        Some(u32_at(self.take(4)?, 0))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// A length, then that many bytes.
    fn bytes(&mut self) -> Option<&'b [u8]> {
        let n = self.u32()?;
        self.take(n)
    }

    fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

/// The `u32` at byte `at` of `b` (zero past its end).
fn u32_at(b: &[u8], at: usize) -> usize {
    let word = b.get(at..at + 4).and_then(|w| w.try_into().ok());
    u32::from_le_bytes(word.unwrap_or_default()) as usize
}

// ------------------------------------------------------------------ claims

/// A claim's key as the claim table orders it: the rule's tag and attribute
/// (the order [`Rule`] has), then what it is of and what it claims.
type ClaimKey<'a> = (u8, &'a [u8], &'a [u8], &'a [u8]);

fn rule_key(rule: Rule) -> (u8, &'static str) {
    match rule {
        Rule::Block(attr) => (0, attr),
        Rule::Instance(attr) => (1, attr),
        Rule::Name => (2, ""),
        Rule::Quota => (3, ""),
        Rule::Var => (4, ""),
        Rule::Local => (5, ""),
    }
}

/// The claims an image holds, searched where they sit: entries in key order
/// in a heap, each a tag, an attribute, an owner, a value and a count,
/// reached through a table of their offsets. Empty for a memo no image
/// loaded.
#[derive(Clone, Default)]
pub(super) struct ClaimTable {
    image: Option<Arc<Image>>,
}

impl ClaimTable {
    fn heap(&self) -> &[u8] {
        self.image
            .as_deref()
            .map_or(&[], |image| image.section(CLAIM_HEAP))
    }

    pub(super) fn len(&self) -> usize {
        self.image
            .as_deref()
            .map_or(0, |image| image.section(CLAIM_AT).len() / 4)
    }

    /// Where entry `k` starts in the heap (the heap's end, past the last).
    fn offset(&self, k: usize) -> usize {
        match self.image.as_deref() {
            Some(image) if k < self.len() => u32_at(image.section(CLAIM_AT), 4 * k),
            _ => self.heap().len(),
        }
    }

    /// Entry `k`: its key and its count.
    fn entry(&self, k: usize) -> Option<(ClaimKey<'_>, i64)> {
        let mut read = In {
            bytes: self.heap().get(self.offset(k)..)?,
            at: 0,
        };
        let tag = read.u8()?;
        let attr_len = read.u8()? as usize;
        let attr = read.take(attr_len)?;
        let of = read.bytes()?;
        let what = read.bytes()?;
        let count = read.u64()? as i64;
        Some(((tag, attr, of, what), count))
    }

    /// Where `key` is among the entries (`Err`: where it would go).
    fn search(&self, key: &ClaimKey<'_>) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let Some((at, _)) = self.entry(mid) else {
                return Err(lo);
            };
            match at.cmp(key) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// How many holders the image gives `claim`.
    pub(super) fn held(&self, rule: Rule, of: &str, what: &str) -> isize {
        let (tag, attr) = rule_key(rule);
        let key: ClaimKey<'_> = (tag, attr.as_bytes(), of.as_bytes(), what.as_bytes());
        match self.search(&key) {
            Ok(k) => self.entry(k).map_or(0, |(_, count)| count as isize),
            Err(_) => 0,
        }
    }

    /// Whether every entry reads, they are in key order with no zero count,
    /// and each starts where the one before it ends.
    fn in_order(&self) -> bool {
        let mut last = None;
        for k in 0..self.len() {
            let Some((key, count)) = self.entry(k) else {
                return false;
            };
            let (_, attr, of, what) = key;
            let len = 2 + attr.len() + 4 + of.len() + 4 + what.len() + 8;
            let fits = self.offset(k) + len == self.offset(k + 1);
            if count == 0 || !fits || last.is_some_and(|last| last >= key) {
                return false;
            }
            last = Some(key);
        }
        self.offset(0) == 0
    }
}

/// A claims heap on its way out: the base table's entries `..next` are
/// written, and where each entry written starts.
struct ClaimsOut<'c> {
    base: &'c ClaimTable,
    next: usize,
    offsets: Vec<u32>,
    /// Bytes of heap written.
    at: usize,
}

impl ClaimsOut<'_> {
    /// Copy the base table's entries up to `k`, in one run.
    fn copy_to(&mut self, k: usize, out: &mut Out<'_>) -> std::io::Result<()> {
        let (from, to) = (self.base.offset(self.next), self.base.offset(k));
        for j in self.next..k {
            let at = self.base.offset(j) - from + self.at;
            self.offsets
                .push(u32::try_from(at).map_err(|_| too_large())?);
        }
        out.put(&self.base.heap()[from..to])?;
        self.at += to - from;
        self.next = k;
        Ok(())
    }

    fn entry(&mut self, key: ClaimKey<'_>, held: i64, out: &mut Out<'_>) -> std::io::Result<()> {
        let (tag, attr, of, what) = key;
        self.offsets
            .push(u32::try_from(self.at).map_err(|_| too_large())?);
        let at = out.at;
        out.u8(tag)?;
        out.u8(u8::try_from(attr.len()).map_err(|_| too_large())?)?;
        out.put(attr)?;
        out.bytes(of)?;
        out.bytes(what)?;
        out.u64(held as u64)?;
        self.at += out.at - at;
        Ok(())
    }
}

/// Write the claims of `claims` — the image's table copied by the run, with
/// what the memo has held since merged in, in key order — as a heap, then
/// the table of its offsets.
fn write_claims(claims: &Claims, out: &mut Out<'_>) -> std::io::Result<()> {
    let base = &claims.base;
    let mut heap = ClaimsOut {
        base,
        next: 0,
        offsets: Vec::with_capacity(base.len() + 64),
        at: 0,
    };
    out.section();
    let delta = claims.delta.iter().flat_map(|(&rule, held)| {
        let (tag, attr) = rule_key(rule);
        held.iter().map(move |(of, what, &by)| {
            ((tag, attr.as_bytes(), of.as_bytes(), what.as_bytes()), by)
        })
    });
    for (key, by) in delta {
        let held = match base.search(&key) {
            Ok(k) => {
                heap.copy_to(k, out)?;
                heap.next = k + 1;
                base.entry(k).map_or(0, |(_, held)| held)
            }
            Err(k) => {
                heap.copy_to(k, out)?;
                0
            }
        };
        if held + by as i64 != 0 {
            heap.entry(key, held + by as i64, out)?;
        }
    }
    heap.copy_to(base.len(), out)?;
    out.section();
    for at in heap.offsets {
        out.put(&at.to_le_bytes())?;
    }
    Ok(())
}

// ------------------------------------------------------------------ records

/// A span, counted from the start of its block's chunk: lines from the
/// chunk's first, bytes from its first; columns as they are.
#[derive(Serialize, Deserialize, Clone, Copy)]
struct SpanRec(i64, u32, i64, i64, u32, i64);

impl SpanRec {
    fn of(s: Span, chunk: &Chunk) -> SpanRec {
        let (line, at) = (i64::from(chunk.line), chunk.start as i64);
        let rel = |p: SourcePos| (i64::from(p.line) - line, p.col, i64::from(p.offset) - at);
        let ((l, c, o), (el, ec, eo)) = (rel(s.start), rel(s.end));
        SpanRec(l, c, o, el, ec, eo)
    }

    /// The span in file coordinates, its chunk starting at `line` and byte
    /// `at`. (The spans of a block no edit reached are never shown: one a
    /// later edit moved may not fit, and is pinned to the file.)
    fn span(self, line: u32, at: usize) -> Span {
        let SpanRec(l, c, o, el, ec, eo) = self;
        let fit = |n: i64, base: i64| {
            let placed = n.checked_add(base).and_then(|at| u32::try_from(at).ok());
            placed.unwrap_or(0)
        };
        let (line, at) = (i64::from(line), at as i64);
        let start = SourcePos::new(fit(l, line), c, fit(o, at));
        Span::new(start, SourcePos::new(fit(el, line), ec, fit(eo, at)))
    }
}

/// One instance: its key, attributes, dependencies (`type`, `name`, key),
/// `count.index` and `each`.
#[derive(Serialize)]
struct InstOut<'a>(
    &'a ResourceKey,
    &'a Attrs,
    Vec<(&'a str, &'a str, &'a ResourceKey)>,
    Option<u32>,
    Option<&'a (String, Value)>,
);

#[derive(Deserialize)]
struct InstIn(
    ResourceKey,
    Attrs,
    Vec<(String, String, ResourceKey)>,
    Option<u32>,
    Option<(String, Value)>,
);

/// One block's record: its span, lifecycle bits and attribute spans, and its
/// instances.
#[derive(Serialize)]
struct BlockOut<'a>(SpanRec, u8, Vec<(&'a str, SpanRec)>, Vec<InstOut<'a>>);

#[derive(Deserialize)]
struct BlockIn(SpanRec, u8, Vec<(String, SpanRec)>, Vec<InstIn>);

fn lifecycle_bits(l: Lifecycle) -> u8 {
    u8::from(l.prevent_destroy) | u8::from(l.create_before_destroy) << 1
}

/// The record of the block whose chunk is `chunk` and instances `of`.
fn record(chunk: &Chunk, of: &[Arc<ResourceInstance>]) -> String {
    let rel = |span: Span| SpanRec::of(span, chunk);
    let (span, lifecycle, attr_spans) = match of.first() {
        Some(inst) => {
            let spans = inst.attr_spans.iter().map(|(a, s)| (a.as_str(), rel(*s)));
            (
                rel(inst.span),
                lifecycle_bits(inst.lifecycle),
                spans.collect(),
            )
        }
        None => (SpanRec(0, 1, 0, 0, 1, 0), 0, Vec::new()),
    };
    let insts = of.iter().map(|inst| {
        let deps = inst.depends_on.iter();
        let deps = deps.map(|d| (d.rtype.as_str(), d.name.as_str(), &d.key));
        InstOut(
            &inst.addr.key,
            &inst.attrs,
            deps.collect(),
            inst.env.count_index,
            inst.env.each.as_ref(),
        )
    });
    let rec = BlockOut(span, lifecycle, attr_spans, insts.collect());
    serde_json::to_string(&rec).unwrap_or_default()
}

// ------------------------------------------------------------------ tables

/// A chunk's entry: start, end, first line, hash, and the offsets and
/// lengths of its type and name in the names section (a chunk that holds no
/// resource has no type).
const CHUNK: usize = 4 * 3 + 8 + 4 * 4;
/// Blocks whose records a write encodes at once, half on each side of a
/// [`join`].
const BATCH: usize = 4096;
/// A block's entry: its chunk, its record's offset and length, its count of
/// instances and its flags ([`DEFERRED`]).
const BLOCK: usize = 4 * 4 + 1;
const DEFERRED: u8 = 1;

/// An opened image: its bytes, where its sections sit in them, and what the
/// records of its blocks are decoded under.
pub(super) struct Image {
    bytes: Vec<u8>,
    sections: [Range<usize>; SECTIONS],
    file: Arc<str>,
    vars: cloudless_hcl::program::Bindings,
    locals: cloudless_hcl::program::Bindings,
    /// The program's evaluated `provider` blocks.
    providers: std::collections::BTreeMap<String, Attrs>,
    recorder: Arc<dyn Recorder>,
}

impl Image {
    fn section(&self, s: usize) -> &[u8] {
        &self.bytes[self.sections[s].clone()]
    }

    /// How many bytes the image holds.
    pub(super) fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Field `k` (a `u32`) of block `b`'s entry.
    fn block_field(&self, b: usize, k: usize) -> usize {
        u32_at(self.section(BLOCKS), b * BLOCK + 4 * k)
    }

    fn flags(&self, b: usize) -> u8 {
        self.section(BLOCKS)[b * BLOCK + 16]
    }

    /// Where block `b`'s record sits in the image.
    fn record_at(&self, b: usize) -> Range<usize> {
        let at = self.sections[RECORDS].start + self.block_field(b, 1);
        at..at + self.block_field(b, 2)
    }

    fn name(&self, at: Range<usize>) -> &str {
        std::str::from_utf8(&self.section(NAMES)[at]).unwrap_or_default()
    }
}

impl BlockSource for Image {
    fn decode(&self, b: usize) -> Vec<ResourceInstance> {
        let bytes = &self.bytes[self.record_at(b)];
        self.recorder
            .counter("pipeline.image_bytes_decoded", bytes.len() as u64);
        let decoded = std::str::from_utf8(bytes).map_err(|e| e.to_string());
        let decoded = decoded
            .and_then(|text| serde_json::from_str::<BlockIn>(text).map_err(|e| e.to_string()));
        let count = self.block_field(b, 3);
        let decoded = decoded.and_then(|block| match block.3.len() {
            n if n == count => Ok(block),
            n => Err(format!("{n} instance(s), not {count}")),
        });
        let BlockIn(span, lifecycle, attr_spans, insts) = decoded.unwrap_or_else(|why| {
            panic!("the memo image's record of block {b} does not decode under a valid checksum: {why}")
        });
        let (start, _, line, _, [rtype, name]) =
            chunk_entry(self.section(CHUNKS), self.block_field(b, 0));
        let (rtype, name) = (ResourceTypeName::new(self.name(rtype)), self.name(name));
        let region = provider_region(&self.providers, &rtype);
        let attr_spans = attr_spans
            .into_iter()
            .map(|(a, rec)| (a, rec.span(line, start)));
        let attr_spans = Arc::new(attr_spans.collect::<VecMap<_, _>>());
        let lifecycle = Lifecycle {
            prevent_destroy: lifecycle & 1 != 0,
            create_before_destroy: lifecycle & 2 != 0,
        };
        let addr = |rtype: &str, name: &str, key: ResourceKey| ResourceAddr {
            key,
            ..ResourceAddr::root(ResourceTypeName::new(rtype), name)
        };
        let instance = |InstIn(key, attrs, deps, count_index, each)| ResourceInstance {
            addr: ResourceAddr {
                key,
                ..ResourceAddr::root(rtype.clone(), name)
            },
            attrs,
            deferred: Vec::new(),
            depends_on: deps.into_iter().map(|(t, n, k)| addr(&t, &n, k)).collect(),
            span: span.span(line, start),
            attr_spans: Arc::clone(&attr_spans),
            lifecycle,
            env: EvalEnv {
                vars: Arc::clone(&self.vars),
                locals: Arc::clone(&self.locals),
                count_index,
                each,
            },
            file: Arc::clone(&self.file),
            provider_region: region.clone(),
        };
        insts.into_iter().map(instance).collect()
    }
}

/// Chunk `c` of the chunk table `chunks`: start, end, first line, hash, and
/// where its type and name sit in the names section.
fn chunk_entry(chunks: &[u8], c: usize) -> (usize, usize, u32, u64, [Range<usize>; 2]) {
    let e = c * CHUNK;
    let field = |k: usize| u32_at(chunks, e + 4 * k);
    let hash = chunks.get(e + 12..e + 20).and_then(|h| h.try_into().ok());
    let name = |k: usize| field(5 + 2 * k)..field(5 + 2 * k) + field(6 + 2 * k);
    let hash = u64::from_le_bytes(hash.unwrap_or_default());
    (
        field(0),
        field(1),
        field(2) as u32,
        hash,
        [name(0), name(1)],
    )
}

// ------------------------------------------------------------------ write

/// Write `memo` as an image under `key` through `w`, section by section:
/// the tables encoded anew, the records of the blocks the memo still holds
/// as its image had them copied in runs, and every other block's encoded.
pub(crate) fn write(memo: &Memo, key: ImageKey, w: &mut dyn Write) -> std::io::Result<()> {
    let image = memo.image.as_deref();
    let mut out = Out::new(w);
    out.put(format!("{MAGIC}\n").as_bytes())?;
    let plan = &memo.plan;
    let config = (&memo.config.0, &memo.config.1, &memo.config.2);
    out.section();
    out.u64(key_of(config, key.env))?;
    out.u64(rules_of(&memo.specs))?;
    out.u64(key.serial)?;
    out.u64(key.log_bytes)?;
    out.u64(key.head)?;
    out.u8(u8::from(plan.serial == Some(key.serial)))?;
    for n in outer_counts(&memo.program) {
        out.u32(n)?;
    }
    out.section();
    out.put(memo.source.as_bytes())?;

    // the chunks' names, then the chunks
    let chunks = &memo.chunks.chunks;
    fn names(chunk: &Chunk) -> [&str; 2] {
        match &chunk.kind {
            ChunkKind::Resource { rtype, name } => [rtype, name],
            ChunkKind::Other => ["", ""],
        }
    }
    out.section();
    for chunk in chunks {
        for name in names(chunk) {
            out.put(name.as_bytes())?;
        }
    }
    out.section();
    let mut heap = 0;
    for chunk in chunks {
        let [rtype, name] = names(chunk);
        let (start, end, line) = (chunk.start, chunk.end, chunk.line as usize);
        let names = [heap, rtype.len(), heap + rtype.len(), name.len()];
        heap += rtype.len() + name.len();
        let mut entry = [0u8; CHUNK];
        for (k, field) in [start, end, line].into_iter().chain(names).enumerate() {
            // (the hash sits between the first line and the names)
            let at = if k < 3 { 4 * k } else { 4 * k + 8 };
            entry[at..at + 4].copy_from_slice(&u32_of(field)?);
        }
        entry[12..20].copy_from_slice(&chunk.hash.to_le_bytes());
        out.put(&entry)?;
    }

    // the records: the image's copied in runs, the rest encoded a batch of
    // blocks at a time, in two halves side by side ([`join`]); then the
    // blocks
    let instances = &memo.manifest.instances;
    let ranges = &memo.root.block_ranges;
    let sourced = |b: usize| image.zip(instances.sourced(ranges[b].clone()));
    let encode = |blocks: Range<usize>| -> Vec<Option<String>> {
        let fresh = |b: usize| {
            let of = || instances.slice(ranges[b].clone());
            (sourced(b).is_none()).then(|| record(&chunks[memo.block_chunk[b]], of()))
        };
        blocks.map(fresh).collect()
    };
    let mut placed = Vec::with_capacity(ranges.len());
    out.section();
    let (records, mut at, mut run) = (out.at, 0, 0..0);
    for first in (0..ranges.len()).step_by(BATCH) {
        let (last, mid) = ((first + BATCH).min(ranges.len()), first + BATCH / 2);
        let mid = mid.min(last);
        // (a helper only when both halves have a block to encode)
        let todo = |blocks: Range<usize>| blocks.into_iter().any(|b| sourced(b).is_none());
        let (back, front) = match todo(first..mid) && todo(mid..last) {
            true => join(|| encode(mid..last), || encode(first..mid)),
            false => (encode(mid..last), encode(first..mid)),
        };
        for (b, fresh) in (first..last).zip(front.into_iter().chain(back)) {
            let deferred = match (sourced(b), fresh) {
                (Some((image, from)), _) => {
                    let record = image.record_at(from);
                    if record.start != run.end {
                        let copied = std::mem::replace(&mut run, record.start..record.start);
                        out.put(&image.bytes[copied])?;
                    }
                    run.end = record.end;
                    at += record.len();
                    image.flags(from) & DEFERRED
                }
                (None, record) => {
                    if let Some(image) = image {
                        out.put(&image.bytes[std::mem::take(&mut run)])?;
                    }
                    let record = record.unwrap_or_default();
                    out.put(record.as_bytes())?;
                    at += record.len();
                    let of = instances.slice(ranges[b].clone());
                    match of.iter().any(|inst| !inst.deferred.is_empty()) {
                        true => DEFERRED,
                        false => 0,
                    }
                }
            };
            placed.push((at, deferred));
        }
    }
    if let Some(image) = image {
        out.put(&image.bytes[run])?;
    }
    debug_assert_eq!(out.at - records, at);
    out.section();
    let mut from = 0;
    for (b, (span, &(to, deferred))) in ranges.iter().zip(&placed).enumerate() {
        out.u32(memo.block_chunk[b])?;
        out.u32(from)?;
        out.u32(to - from)?;
        out.u32(span.len())?;
        out.u8(deferred)?;
        from = to;
    }
    out.section();
    for &b in &memo.by_name {
        out.u32(b as usize)?;
    }
    // the block DAG's successors
    out.section();
    let mut at = 0;
    for b in 0..ranges.len() {
        out.u32(at)?;
        at += memo.dag.successors(NodeId(b as u32)).len();
    }
    out.u32(at)?;
    out.section();
    for b in 0..ranges.len() {
        for d in memo.dag.successors(NodeId(b as u32)) {
            out.u32(d.index())?;
        }
    }
    // the plan cache: the visiting order, and the addresses it owes
    out.section();
    for &at in &plan.order {
        out.u32(at)?;
    }
    out.section();
    // (by position the changes, whose instances a write has at hand; by
    // name the rest)
    let by_name = |out: &mut Out<'_>, addr: &ResourceAddr| {
        out.u8(1)?;
        out.bytes(addr.to_string().as_bytes())
    };
    for addr in &plan.away {
        by_name(&mut out, addr)?;
    }
    for &at in plan.changes.keys() {
        out.u8(0)?;
        out.u32(at)?;
    }
    for change in plan.deletes.values() {
        by_name(&mut out, &change.addr)?;
    }
    write_claims(&memo.claims, &mut out)?;
    out.finish()
}

fn outer_counts(p: &Program) -> [usize; 5] {
    let (v, l, p, d, o) = (&p.variables, &p.locals, &p.providers, &p.data, &p.outputs);
    [v.len(), l.len(), p.len(), d.len(), o.len()]
}

// ------------------------------------------------------------------- read

/// What an opened image gives the pipeline: the memo, the serial it was
/// written at, and whether its plan cache is of the committed state. If it
/// is, the first run plans the edit and what the image owes: the changes
/// and deletions its plan holds (none once an apply has landed whole). If
/// not, it plans every instance.
pub(crate) struct Loaded {
    pub memo: Box<Memo>,
    pub serial: u64,
    pub planned: bool,
}

/// Open what the store read as its image, or say why not.
pub(crate) fn open(
    image: Result<Option<Vec<u8>>, String>,
    key: ImageKey,
    ctx: &PipelineCtx<'_>,
) -> Result<Loaded, Refusal> {
    match image {
        Ok(Some(bytes)) => read(bytes, key, ctx),
        Ok(None) => Err(absent("no memo image")),
        Err(e) => Err(absent(format!("the memo image cannot be read: {e}"))),
    }
}

/// The program's non-resource half: each chunk that holds no resource
/// block, parsed where it sits in the file.
fn outer_half(source: &str, chunks: &[Chunk]) -> Result<Program, Refusal> {
    let mut program = Program {
        filename: "main.tf".to_owned(),
        ..Program::default()
    };
    for chunk in chunks.iter().filter(|chunk| chunk.kind == ChunkKind::Other) {
        let origin = SourcePos::new(chunk.line, 1, chunk.start as u32);
        let text = &source[chunk.start..chunk.end];
        let parsed = parse_at(text, "main.tf", origin).and_then(Program::from_file);
        let Ok(part) = parsed else {
            return inconsistent("the program's non-resource half does not parse");
        };
        if !part.resources.is_empty() || !part.modules.is_empty() {
            return inconsistent("the program's non-resource half holds blocks it may not");
        }
        program.variables.extend(part.variables);
        program.locals.extend(part.locals);
        program.providers.extend(part.providers);
        program.data.extend(part.data);
        program.outputs.extend(part.outputs);
    }
    Ok(program)
}

/// An address the plan cache owes a plan: an instance's, by position, or
/// one no instance has.
enum Owed {
    At(usize),
    Addr(ResourceAddr),
}

/// What the tables of an image say, copied out of its bytes: everything
/// but the claims and the records, which are read where they sit.
struct Tables {
    chunks: ChunkMap,
    block_chunk: Vec<usize>,
    ranges: Vec<Range<usize>>,
    flags: Vec<u8>,
    by_name: Vec<u32>,
    dag: cloudless_graph::Dag<()>,
    order: Vec<usize>,
    owed: Vec<Owed>,
}

/// Where each section of `bytes` (an image whose checksum sits at `body`)
/// is, as its directory says.
fn directory(
    bytes: &[u8],
    body: usize,
    header: usize,
) -> Result<[Range<usize>; SECTIONS], Refusal> {
    let Some(dir) = body.checked_sub(8 * SECTIONS).filter(|&dir| dir >= header) else {
        return inconsistent("the image has no directory");
    };
    let mut sections: [Range<usize>; SECTIONS] = Default::default();
    for (s, section) in sections.iter_mut().enumerate() {
        let (start, end) = (u32_at(bytes, dir + 8 * s), u32_at(bytes, dir + 8 * s + 4));
        if start < header || start > end || end > dir {
            return inconsistent("a section runs outside the image");
        }
        *section = start..end;
    }
    Ok(sections)
}

/// Open `bytes` as a memo for a run under `ctx` in an engine whose key is
/// `key`, or say why not.
fn read(bytes: Vec<u8>, key: ImageKey, ctx: &PipelineCtx<'_>) -> Result<Loaded, Refusal> {
    let header = format!("{MAGIC}\n");
    if !bytes.starts_with(header.as_bytes()) {
        let line = bytes.split(|&b| b == b'\n').next().unwrap_or_default();
        let line = String::from_utf8_lossy(line);
        return match line.strip_prefix(MAGIC_STEM) {
            Some(version) if bytes.len() > line.len() => refuse(
                "MEM002",
                format!("image of format v{version}, not {MAGIC:?}"),
            ),
            _ => refuse("MEM004", "not a memo image (no header)"),
        };
    }
    let Some(body) = bytes
        .len()
        .checked_sub(8)
        .filter(|&end| end >= header.len())
    else {
        return refuse("MEM004", "the image ends early");
    };
    let written = u64::from_le_bytes(bytes[body..].try_into().unwrap_or_default());
    if written != checksum(&bytes[..body]) {
        return refuse("MEM004", "the image's checksum does not match its bytes");
    }
    let sections = directory(&bytes, body, header.len())?;
    let section = |s: usize| &bytes[sections[s].clone()];
    let mut head = In {
        bytes: section(HEAD),
        at: 0,
    };
    let fields = (
        head.u64(),
        head.u64(),
        head.u64(),
        head.u64(),
        head.u64(),
        head.u8(),
    );
    let (Some(id), Some(specs), Some(serial), Some(log_bytes), Some(at_head), Some(planned)) =
        fields
    else {
        return inconsistent("the head is short");
    };
    if id != key_of((ctx.lint, ctx.level, ctx.inputs), key.env) {
        let why = "image under another key (inputs, lint gate, validation level, catalog, \
                   modules or data differ)";
        return refuse("MEM003", why);
    }
    let mut outer = [0; 5];
    for n in &mut outer {
        *n = head
            .u32()
            .map_or_else(|| inconsistent("the head is short"), Ok)?;
    }
    let Ok(source) = std::str::from_utf8(section(SOURCE)) else {
        return inconsistent("the source is not text");
    };
    let source = source.to_owned();
    let tables = tables(&section, &source)?;
    let Tables {
        chunks,
        block_chunk,
        ranges,
        flags,
        by_name,
        dag,
        order,
        owed,
    } = tables;

    // the non-resource half, parsed, and its expansion
    let program = outer_half(&source, &chunks.chunks)?;
    if outer_counts(&program) != outer {
        return inconsistent("the program's non-resource half declares other blocks");
    }
    let expanded = expand_root(&program, ctx.inputs, ctx.modules, ctx.data);
    let Ok((mut manifest, root)) = expanded else {
        return inconsistent("the program's non-resource half does not expand");
    };
    if !manifest.warnings.is_empty() {
        return inconsistent("the program's non-resource half expands with warnings");
    }
    let image = Arc::new(Image {
        bytes,
        sections,
        file: Arc::clone(&root.file),
        vars: Arc::clone(&root.vars),
        locals: Arc::clone(&root.locals),
        providers: manifest.provider_config.clone(),
        recorder: Arc::clone(ctx.recorder),
    });
    let claims = ClaimTable {
        image: Some(Arc::clone(&image)),
    };
    if !claims.in_order() {
        return inconsistent("the claims are not in key order");
    }
    let counts = ranges.iter().map(|span| span.len());
    manifest.instances = Instances::by_block(Arc::clone(&image) as Arc<dyn BlockSource>, counts);
    let mut memo = Box::new(Memo {
        config: (ctx.lint, ctx.level, ctx.inputs.clone()),
        specs: ctx.mined_specs().to_vec(),
        lint_env: LintEnv::build(&program),
        manifest,
        root: RootExpansion {
            block_ranges: ranges,
            ..root
        },
        source,
        chunks,
        block_chunk,
        dag,
        by_name,
        image: Some(image),
        ..Memo::default()
    });
    memo.claims.base = claims;
    for (rtype, name) in &outer_refs(&program).hazard_refs {
        memo.outer.insert(rtype, name, ());
    }
    memo.program = program;
    memo.plan.set_order(order);
    for (b, f) in flags.iter().enumerate() {
        if f & DEFERRED != 0 {
            reexpand(&mut memo, b, ctx)?;
        }
    }
    if specs != rules_of(ctx.mined_specs())
        && ctx
            .miner
            .is_some_and(|miner| !miner.check(&memo.manifest).is_empty())
    {
        let why = "the image's program deviates from the spec miner's conventions";
        return refuse("MEM003", why);
    }
    let anchored =
        planned == 1 && (serial, log_bytes, at_head) == (key.serial, key.log_bytes, key.head);
    if anchored {
        memo.plan.serial = Some(serial);
        for owes in owed {
            let addr = match owes {
                Owed::Addr(addr) => addr,
                Owed::At(at) => memo.manifest.instances.at(at).addr.clone(),
            };
            memo.plan.away.push(addr);
        }
    }
    Ok(Loaded {
        memo,
        serial,
        planned: anchored,
    })
}

/// Read the tables off the sections `section` gives, and check that they
/// fit together and `source`.
fn tables<'b>(section: &impl Fn(usize) -> &'b [u8], source: &str) -> Result<Tables, Refusal> {
    let (entries, names) = (section(CHUNKS), section(NAMES));
    let Ok(names) = std::str::from_utf8(names) else {
        return inconsistent("a block name is not text");
    };
    if !entries.len().is_multiple_of(CHUNK) {
        return inconsistent("the chunk table is cut");
    }
    // the chunk table, tiling the source
    let mut chunks = Vec::with_capacity(entries.len() / CHUNK);
    let mut end = 0;
    for c in 0..entries.len() / CHUNK {
        let (start, stop, line, hash, [rtype, name]) = chunk_entry(entries, c);
        let kind = match (names.get(rtype), names.get(name)) {
            (Some(""), Some("")) => ChunkKind::Other,
            (Some(rtype), Some(name)) if !rtype.is_empty() => ChunkKind::Resource {
                rtype: rtype.to_owned(),
                name: name.to_owned(),
            },
            _ => return inconsistent("a block name is not in the names"),
        };
        let fits = start == end && start < stop && stop <= source.len();
        if !fits || !source.is_char_boundary(stop) {
            return inconsistent("the chunks do not tile the source");
        }
        end = stop;
        chunks.push(Chunk {
            start,
            end: stop,
            line,
            hash,
            kind,
        });
    }
    if end != source.len() {
        return inconsistent("the chunks do not tile the source");
    }
    let chunks = ChunkMap {
        chunks,
        src_len: source.len(),
    };
    let block_chunk: Vec<usize> = chunks.resource_chunks().collect();

    // the blocks, their names' order, their successors and the plan cache
    let (n, m) = (block_chunk.len(), section(ORDER).len() / 4);
    let (entries, records) = (section(BLOCKS), section(RECORDS).len());
    let (by_name, succ_at, succ) = (section(BY_NAME), section(SUCC_AT), section(SUCC));
    let sized = entries.len() == n * BLOCK && by_name.len() == 4 * n;
    if !sized || succ_at.len() != 4 * (n + 1) || !section(ORDER).len().is_multiple_of(4) {
        return inconsistent("the block tables are not the source's");
    }
    let by_name: Vec<u32> = (0..n).map(|k| u32_at(by_name, 4 * k) as u32).collect();
    let order: Vec<usize> = (0..m).map(|k| u32_at(section(ORDER), 4 * k)).collect();
    let mut owed = Vec::new();
    let mut read = In {
        bytes: section(OWED),
        at: 0,
    };
    while !read.done() {
        let owes = match read.u8() {
            Some(0) => read.u32().filter(|&at| at < m).map(Owed::At),
            _ => (read.bytes())
                .and_then(|addr| std::str::from_utf8(addr).ok()?.parse().ok())
                .map(Owed::Addr),
        };
        let Some(owes) = owes else {
            return inconsistent("an owed address does not read");
        };
        owed.push(owes);
    }

    let (mut ranges, mut flags, mut first) = (Vec::with_capacity(n), Vec::with_capacity(n), 0);
    for b in 0..n {
        let entry = &entries[b * BLOCK..];
        let (chunk, at, len, count) = (
            u32_at(entry, 0),
            u32_at(entry, 4),
            u32_at(entry, 8),
            u32_at(entry, 12),
        );
        let fits = at.checked_add(len).is_some_and(|end| end <= records);
        if chunk != block_chunk[b] || !fits {
            return inconsistent("a block is not where its chunk is");
        }
        ranges.push(first..first + count);
        first += count;
        flags.push(entry[16]);
    }
    let mut seen = vec![false; m];
    let placed = |at: &usize| at < &m && !std::mem::replace(&mut seen[*at], true);
    if first != m || !order.iter().all(placed) {
        return inconsistent("the visiting order is no order of the instances");
    }
    let name_of = |b: u32| match chunks.chunks.get(*block_chunk.get(b as usize)?)?.kind {
        ChunkKind::Resource {
            ref rtype,
            ref name,
        } => Some((rtype.as_str(), name.as_str())),
        ChunkKind::Other => None,
    };
    let sorted = by_name.windows(2).all(|w| name_of(w[0]) < name_of(w[1]));
    if by_name.iter().any(|&b| b as usize >= n) || !sorted {
        return inconsistent("the blocks are not in name order");
    }
    let mut dag: DagBuilder<()> = DagBuilder::with_capacity(n);
    for _ in 0..n {
        dag.add_node(());
    }
    for b in 0..n {
        let (from, to) = (u32_at(succ_at, 4 * b), u32_at(succ_at, 4 * b + 4));
        if from > to || 4 * to > succ.len() {
            return inconsistent("the block DAG has an edge it cannot");
        }
        for k in from..to {
            let d = u32_at(succ, 4 * k);
            let edge = (d < n).then(|| dag.add_edge(NodeId(b as u32), NodeId(d as u32)));
            if !matches!(edge, Some(Ok(_))) {
                return inconsistent("the block DAG has an edge it cannot");
            }
        }
    }
    let Ok(dag) = dag.seal() else {
        return inconsistent("the block DAG has a cycle");
    };
    Ok(Tables {
        chunks,
        block_chunk,
        ranges,
        flags,
        by_name,
        dag,
        order,
        owed,
    })
}

/// A block with a deferred attribute, parsed off its chunk and expanded
/// again under the root bindings: its instances' deferred attributes and
/// spans are the expansion's (their attributes must be the image's).
fn reexpand(memo: &mut Memo, b: usize, ctx: &PipelineCtx<'_>) -> Result<(), Refusal> {
    let chunk = &memo.chunks.chunks[memo.block_chunk[b]];
    let Ok(rb) = parse_block(&memo.source, chunk, &memo.program.filename) else {
        return inconsistent("a block with a deferred attribute does not parse");
    };
    let declared = |t: &str, n: &str| memo.block_named(t, n).is_some();
    let (mut diags, mut fresh) = (Diagnostics::new(), Vec::new());
    let root = &memo.root;
    expand_resource_block(
        &rb,
        &root.vars,
        &root.locals,
        &declared,
        ctx.data,
        &root.file,
        &[],
        &mut diags,
        &mut fresh,
    );
    let range = memo.root.block_ranges[b].clone();
    let decoded = memo.manifest.instances.slice(range.clone());
    let same = |(was, now): (&Arc<ResourceInstance>, &ResourceInstance)| {
        was.addr == now.addr && was.attrs == now.attrs
    };
    if !diags.is_empty() || decoded.len() != fresh.len() || !decoded.iter().zip(&fresh).all(same) {
        return inconsistent("a block with a deferred attribute expands otherwise");
    }
    let placed: Vec<Arc<ResourceInstance>> = (decoded.iter().zip(fresh))
        .map(|(was, fresh)| {
            let mut inst = ResourceInstance::clone(was);
            (inst.deferred, inst.span, inst.attr_spans) =
                (fresh.deferred, fresh.span, fresh.attr_spans);
            Arc::new(inst)
        })
        .collect();
    memo.manifest.instances.write(range, &placed);
    Ok(())
}
