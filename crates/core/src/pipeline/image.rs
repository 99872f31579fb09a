//! The memo image: the pipeline's memo checkpointed beside the state log,
//! so that a fresh process splices its first edit instead of walking every
//! block cold.
//!
//! The image is a sequence of frames in `state.log`'s framing — a header
//! line, then one checksummed JSON record per line — read by the log's one
//! reader ([`Frames`]). It holds what costs more to derive than to decode:
//! the source text, each block's instances (attributes, keys, dependencies,
//! spans), the block DAG's edges, the claims the lint stage and the readers
//! make, and the plan cache's visiting order and dirtiness. Everything else
//! is derived at load: the chunk table from the chunks' lengths and the
//! source; the program's non-resource half by parsing its chunks where they
//! sit in the file, and from it the root bindings, the outputs and the lint
//! environment; the validation index and the instance-level claims from the
//! manifest; each instance's place in the visiting order from the order. A
//! block with a deferred attribute is parsed and expanded again
//! (expressions are not encoded).
//!
//! A block's record and a piece of the source say nothing of where they
//! sit: spans count from the start of the block's chunk, and a piece holds
//! a fixed number of chunks. So an edit changes the records of the blocks
//! it touches, and a memo loaded from an image writes every other frame
//! back as it read it ([`Cached`]).
//!
//! The key is the format version (the header line) and a fingerprint of
//! everything a walk reads besides the source and the state: the inputs,
//! the lint gate, the validation level, the mined specs' rules, and the
//! catalog, module library and data resolver. The plan cache is anchored
//! to the serial, log length and last version it was written at; a store
//! anywhere else keeps the front-end memo and re-plans every instance.
//! Changes and deletions are not encoded: their addresses are owed a plan,
//! as a commit owes the ones it wrote.
//!
//! An image that is absent, of another version, under another key, damaged
//! or inconsistent is refused with a `MEM0xx` reason, and the run is the
//! cold start it would have been without one.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::io::Write;
use std::ops::Range;
use std::sync::Arc;

use cloudless_analyze::incremental::{outer_refs, DeclEdit, LintEnv, IDENTITY_ATTRS};
use cloudless_graph::{DagBuilder, NodeId};
use cloudless_hcl::eval::Resolver;
use cloudless_hcl::fingerprint::{fnv1a, Chunk, ChunkKind, ChunkMap};
use cloudless_hcl::program::{
    expand_resource_block, expand_root, EvalEnv, Lifecycle, Program, ResourceInstance,
};
use cloudless_hcl::Diagnostics;
use cloudless_state::cas::fnv64;
use cloudless_state::log::frame_payload;
use cloudless_state::Frames;
use cloudless_types::{
    join, Attrs, ResourceAddr, ResourceKey, ResourceTypeName, SourcePos, Span, Value, VecMap,
    VecSet,
};
use cloudless_validate::incremental::ManifestIndex;
use cloudless_validate::SpecMiner;
use serde::{Deserialize, Serialize};

use super::{instance_level_claims, parse_block, stage, Claim, Claims, Memo, PipelineCtx, Rule};

/// The header line: the format and its version.
const MAGIC: &str = "cloudless-memo v1";
/// What every version's header starts with.
const MAGIC_STEM: &str = "cloudless-memo v";

/// Blocks, claims or chunks of source per frame: what the writer's buffer
/// holds at once.
const PER_FRAME: usize = 256;
/// Frames of blocks each side of a join frames before they are written.
const BATCH: usize = 8;

/// What a walk reads besides the source and the state, that the engine
/// holds and the memo does not (the catalog, the module library and the
/// data resolver, fingerprinted), and where the image's plan cache is
/// anchored: the committed serial, the log's length and a fingerprint of
/// what the last version wrote.
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

/// MEM004: a frame cannot be read.
fn damaged(at: usize, why: String) -> Refusal {
    Refusal {
        code: "MEM004",
        why: format!("the frame at byte {at} is damaged ({why})"),
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

// ------------------------------------------------------------------ frames

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

/// The head frame.
#[derive(Serialize, Deserialize)]
struct Head {
    key: u64,
    /// The rules of the mined specs the memo is clean under.
    specs: u64,
    /// The committed serial, log length and last version the plan cache is
    /// of, when it is of one (`planned`).
    serial: u64,
    log_bytes: u64,
    head: u64,
    planned: bool,
    source_bytes: usize,
    blocks: usize,
    /// Where the chunks that hold no resource block start and end.
    others: Vec<(usize, usize)>,
    /// How many variables, locals, providers, data blocks and outputs they
    /// declare: parsed at load, they must declare as many.
    outer: Vec<usize>,
}

/// One instance: its key, attributes, dependencies (by position in the
/// manifest), `count.index` and `each`.
#[derive(Serialize)]
struct InstOut<'a>(
    &'a ResourceKey,
    &'a Attrs,
    Vec<u32>,
    Option<u32>,
    Option<&'a (String, Value)>,
);

#[derive(Deserialize)]
struct InstIn(
    ResourceKey,
    Attrs,
    Vec<u32>,
    Option<u32>,
    Option<(String, Value)>,
);

/// One resource block, in source order: its type and name, the length of
/// its chunk, its span, lifecycle bits and attribute spans, the blocks that
/// depend on it, its dirtiness in the plan cache, whether it has a deferred
/// attribute, and its instances.
#[derive(Serialize)]
struct BlockOut<'a>(
    &'a str,
    &'a str,
    usize,
    SpanRec,
    u8,
    Vec<(&'a str, SpanRec)>,
    Vec<u32>,
    Option<bool>,
    bool,
    Vec<InstOut<'a>>,
);

#[derive(Deserialize)]
struct BlockIn(
    String,
    String,
    usize,
    SpanRec,
    u8,
    Vec<(String, SpanRec)>,
    Vec<u32>,
    Option<bool>,
    bool,
    Vec<InstIn>,
);

/// A claim of a rule the manifest does not give back: a block's identity
/// (by the attribute it claims), or a reader of a variable or a local.
#[derive(Serialize)]
struct ClaimOut<'a>(&'a str, &'a str, &'a str, i64);

#[derive(Deserialize)]
struct ClaimIn(String, String, String, i64);

/// An address the plan cache owes a plan: an instance's, by position, or
/// one no instance has.
#[derive(Serialize, Deserialize)]
enum Owed {
    At(u32),
    Addr(ResourceAddr),
}

#[derive(Serialize)]
enum Out<'a> {
    Head(&'a Head),
    Source(&'a str),
    Blocks(Vec<BlockOut<'a>>),
    Claims(Vec<ClaimOut<'a>>),
    Plan(Vec<u32>, Vec<Owed>),
    End(u64),
}

#[derive(Deserialize)]
enum In {
    Head(Head),
    Source(String),
    Blocks(Vec<BlockIn>),
    Claims(Vec<ClaimIn>),
    Plan(Vec<u32>, Vec<Owed>),
    End(u64),
}

/// The reader rules, by the name a claim frame gives them.
const READERS: [(Rule, &str); 2] = [(Rule::Var, "var"), (Rule::Local, "local")];

/// The frames of the image a memo was loaded from, as read: the `k`-th
/// piece of source and frame of blocks are written again as they were while
/// no chunk and no block of theirs has changed since.
#[derive(Default)]
pub(super) struct Cached {
    bytes: Vec<u8>,
    /// Each piece of source's bytes in `bytes`.
    pieces: Vec<Range<usize>>,
    /// Each frame of blocks' bytes in `bytes`.
    blocks: Vec<Range<usize>>,
    /// Chunks and blocks whose frames no longer hold them as they are.
    chunks_changed: BTreeSet<usize>,
    blocks_changed: BTreeSet<usize>,
}

impl Cached {
    /// Chunk `at` of the memo changed.
    pub(super) fn chunk(&mut self, at: usize) {
        if !self.bytes.is_empty() {
            self.chunks_changed.insert(at);
        }
    }

    /// Block `at` of the memo changed.
    pub(super) fn block(&mut self, at: usize) {
        if !self.bytes.is_empty() {
            self.blocks_changed.insert(at);
        }
    }

    /// The memo's chunks or blocks were renumbered: no frame is written
    /// again.
    pub(super) fn forget(&mut self) {
        *self = Cached::default();
    }

    /// The bytes of frame `k` of `frames`, unless one of its `items` (what
    /// the `k`-th frame of a kind holds) changed since.
    fn reuse<'c>(
        &'c self,
        frames: &[Range<usize>],
        k: usize,
        changed: &BTreeSet<usize>,
        items: Range<usize>,
    ) -> Option<&'c [u8]> {
        let frame = frames.get(k)?;
        changed
            .range(items)
            .next()
            .is_none()
            .then(|| &self.bytes[frame.clone()])
    }

    pub(super) fn approx_bytes(&self) -> usize {
        self.bytes.len()
    }
}

// ------------------------------------------------------------------ write

/// Frames on their way out: each framed in one buffer, then written.
struct Emit<'w> {
    w: &'w mut dyn Write,
    buf: String,
    frames: u64,
}

impl Emit<'_> {
    fn frame(&mut self, out: Out<'_>) -> std::io::Result<()> {
        self.buf.clear();
        frame_payload(&mut self.buf, out);
        self.frames += 1;
        self.w.write_all(self.buf.as_bytes())
    }

    /// Frames framed elsewhere: the bytes and how many.
    fn framed(&mut self, bytes: &[u8], frames: u64) -> std::io::Result<()> {
        self.frames += frames;
        self.w.write_all(bytes)
    }
}

/// Write `memo` as an image under `key`, frame by frame through `w`. A
/// frame the memo loaded and has not changed since is copied; the blocks
/// are framed a few frames at a time in two halves side by side ([`join`]),
/// which the writer's buffers bound.
pub(crate) fn write(memo: &Memo, key: ImageKey, w: &mut dyn Write) -> std::io::Result<()> {
    w.write_all(format!("{MAGIC}\n").as_bytes())?;
    let mut out = Emit {
        w,
        buf: String::new(),
        frames: 0,
    };
    let (plan, cached) = (&memo.plan, &memo.image);
    let config = (&memo.config.0, &memo.config.1, &memo.config.2);
    let chunks = &memo.chunks.chunks;
    let others = chunks.iter().filter(|chunk| chunk.kind == ChunkKind::Other);
    let head = Head {
        key: key_of(config, key.env),
        specs: rules_of(&memo.specs),
        serial: key.serial,
        log_bytes: key.log_bytes,
        head: key.head,
        planned: plan.serial == Some(key.serial),
        source_bytes: memo.source.len(),
        blocks: memo.root.block_ranges.len(),
        others: others.map(|chunk| (chunk.start, chunk.end)).collect(),
        outer: outer_counts(&memo.program),
    };
    out.frame(Out::Head(&head))?;
    for (k, first) in (0..chunks.len()).step_by(PER_FRAME).enumerate() {
        let last = chunks.len().min(first + PER_FRAME);
        match cached.reuse(&cached.pieces, k, &cached.chunks_changed, first..last) {
            Some(bytes) => out.framed(bytes, 1)?,
            None => {
                let text = &memo.source[chunks[first].start..chunks[last - 1].end];
                out.frame(Out::Source(text))?;
            }
        }
    }
    let positions: HashMap<&ResourceAddr, u32> = (memo.manifest.instances.iter())
        .enumerate()
        .map(|(at, inst)| (&inst.addr, at as u32))
        .collect();
    let position = |addr: &ResourceAddr| positions.get(addr).copied();
    let n = memo.root.block_ranges.len();
    let blocks = |frames: Range<usize>| -> std::io::Result<Vec<u8>> {
        let mut bytes = Vec::new();
        for k in frames {
            let items = k * PER_FRAME..n.min((k + 1) * PER_FRAME);
            match cached.reuse(&cached.blocks, k, &cached.blocks_changed, items.clone()) {
                Some(reused) => bytes.extend_from_slice(reused),
                None => {
                    let records = items.map(|b| block(memo, b, &position));
                    let records = records.collect::<std::io::Result<_>>()?;
                    let mut text = String::new();
                    frame_payload(&mut text, Out::Blocks(records));
                    bytes.extend_from_slice(text.as_bytes());
                }
            }
        }
        Ok(bytes)
    };
    let frames = n.div_ceil(PER_FRAME);
    for first in (0..frames).step_by(2 * BATCH) {
        let (mid, end) = ((first + BATCH).min(frames), (first + 2 * BATCH).min(frames));
        let (back, front) = join(|| blocks(mid..end), || blocks(first..mid));
        out.framed(&front?, (mid - first) as u64)?;
        out.framed(&back?, (end - mid) as u64)?;
    }
    // the claims the manifest does not give back
    let mut encoded = Vec::new();
    for (rule, claims) in &memo.claims.0 {
        let kind = match rule {
            Rule::Block(attr) => *attr,
            Rule::Var | Rule::Local => READERS.iter().find(|(r, _)| r == rule).map_or("", |r| r.1),
            Rule::Instance(_) | Rule::Name | Rule::Quota => continue,
        };
        encoded.extend(
            claims
                .iter()
                .map(|(of, what, &n)| ClaimOut(kind, of, what, n as i64)),
        );
    }
    let mut encoded = encoded.into_iter().peekable();
    while encoded.peek().is_some() {
        out.frame(Out::Claims(encoded.by_ref().take(PER_FRAME).collect()))?;
    }
    let order = plan.order.iter().map(|&at| at as u32).collect();
    let owed = |addr: &ResourceAddr| match position(addr) {
        Some(at) => Owed::At(at),
        None => Owed::Addr(addr.clone()),
    };
    let mut owes: Vec<Owed> = plan.away.iter().map(owed).collect();
    owes.extend(plan.changes.keys().map(|&at| Owed::At(at as u32)));
    owes.extend(plan.deletes.values().map(|change| owed(&change.addr)));
    out.frame(Out::Plan(order, owes))?;
    let end = out.frames + 1;
    out.frame(Out::End(end))
}

/// The record of block `b` of `memo`, its instances' dependencies placed
/// by `position`.
fn block<'m>(
    memo: &'m Memo,
    b: usize,
    position: &impl Fn(&ResourceAddr) -> Option<u32>,
) -> std::io::Result<BlockOut<'m>> {
    let chunk = &memo.chunks.chunks[memo.block_chunk[b]];
    let ChunkKind::Resource { rtype, name } = &chunk.kind else {
        return Err(std::io::Error::other("a block's chunk holds no resource"));
    };
    let of = &memo.manifest.instances[memo.root.block_ranges[b].clone()];
    let mut insts = Vec::with_capacity(of.len());
    for inst in of {
        let deps = inst.depends_on.iter().map(|addr| {
            position(addr).ok_or_else(|| std::io::Error::other("a dependency is no instance"))
        });
        insts.push(InstOut(
            &inst.addr.key,
            &inst.attrs,
            deps.collect::<Result<_, _>>()?,
            inst.env.count_index,
            inst.env.each.as_ref(),
        ));
    }
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
    let dependents = memo.dag.successors(NodeId(b as u32));
    Ok(BlockOut(
        rtype,
        name,
        chunk.end - chunk.start,
        span,
        lifecycle,
        attr_spans,
        dependents.iter().map(|d| d.index() as u32).collect(),
        memo.plan.dirty.get(rtype, name).copied(),
        of.iter().any(|inst| !inst.deferred.is_empty()),
        insts,
    ))
}

fn lifecycle_bits(l: Lifecycle) -> u8 {
    u8::from(l.prevent_destroy) | u8::from(l.create_before_destroy) << 1
}

fn outer_counts(p: &Program) -> Vec<usize> {
    let (v, l, p, d, o) = (&p.variables, &p.locals, &p.providers, &p.data, &p.outputs);
    vec![v.len(), l.len(), p.len(), d.len(), o.len()]
}

// ------------------------------------------------------------------- read

/// What a decoded image gives the pipeline: the memo, the serial it was
/// written at, and whether its plan cache is of the committed state (else
/// it plans every instance).
pub(crate) struct Loaded {
    pub memo: Box<Memo>,
    pub serial: u64,
    pub planned: bool,
}

/// Decode what the store read as its image, or say why not.
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

/// What one half of the frames after the source holds: its blocks, built,
/// and where each frame of them sits; the claims; the plan cache; the end
/// frame, by its place in the half.
#[derive(Default)]
struct Half {
    built: Built,
    frames_of_blocks: Vec<Range<usize>>,
    claims: Vec<ClaimIn>,
    plan: Option<(Vec<u32>, Vec<Owed>)>,
    end: Option<(u64, u64)>,
    frames: u64,
}

/// Decode the frames of `frames` and build the blocks they hold as they
/// come, or say why not.
fn half(frames: &mut Frames<'_, In>) -> Result<Half, Refusal> {
    let mut half = Half::default();
    while let Some((at, _, frame)) = frames.next() {
        let frame = frame.map_err(|why| damaged(at, why))?;
        half.frames += 1;
        match frame {
            _ if half.end.is_some() => return refuse("MEM004", "a frame past the end"),
            In::Blocks(blocks) => {
                half.built.add(blocks);
                half.frames_of_blocks.push(at..frames.next_at());
            }
            In::Claims(part) => half.claims.extend(part),
            In::Plan(order, owed) => half.plan = Some((order, owed)),
            In::End(n) => half.end = Some((n, half.frames)),
            In::Head(_) | In::Source(_) => return inconsistent("a frame out of place"),
        }
    }
    match frames.finished() {
        true => Ok(half),
        false => refuse("MEM004", "the image ends in a torn frame"),
    }
}

/// Decode `bytes` into a memo for a run under `ctx` in an engine whose
/// key is `key`, or say why not. The head and the source are read first;
/// the frames after them are decoded in two halves side by side, and the
/// memo is built in joins ([`join`]) of about equal halves.
fn read(bytes: Vec<u8>, key: ImageKey, ctx: &PipelineCtx<'_>) -> Result<Loaded, Refusal> {
    let Some(mut frames) = Frames::<In>::after_line(&bytes, MAGIC) else {
        let line = bytes.split(|&b| b == b'\n').next().unwrap_or_default();
        let line = String::from_utf8_lossy(line);
        return match line.strip_prefix(MAGIC_STEM) {
            Some(version) => refuse(
                "MEM002",
                format!("image of format v{version}, not {MAGIC:?}"),
            ),
            None => refuse("MEM004", "not a memo image (no header)"),
        };
    };
    let next = |frames: &mut Frames<'_, In>| match frames.next() {
        Some((at, _, frame)) => frame.map_err(|why| damaged(at, why)).map(|f| (at, f)),
        None => refuse("MEM004", "the image ends early"),
    };
    let (_, In::Head(head)) = next(&mut frames)? else {
        return refuse("MEM004", "the image has no head");
    };
    if head.key != key_of((ctx.lint, ctx.level, ctx.inputs), key.env) {
        let why = "image under another key (inputs, lint gate, validation level, catalog, \
                   modules or data differ)";
        return refuse("MEM003", why);
    }
    // (no count the image gives is larger than the image)
    let mut source = String::with_capacity(head.source_bytes.min(bytes.len()));
    let mut pieces = Vec::new();
    while source.len() < head.source_bytes {
        let (at, In::Source(piece)) = next(&mut frames)? else {
            return inconsistent("the source is short");
        };
        source.push_str(&piece);
        pieces.push(at..frames.next_at());
    }
    let read = 1 + pieces.len() as u64;

    // the rest in two halves side by side, each built as it is decoded
    let mut back = frames.split();
    let (back, front) = join(move || half(&mut back), || half(&mut frames));
    let (mut front, back) = (front?, back?);
    let end = match (front.end, back.end) {
        (Some((n, at)), None) if back.frames == 0 => Some((n, read + at)),
        (None, Some((n, at))) => Some((n, read + front.frames + at)),
        _ => None,
    };
    match end {
        Some((n, at)) if n == at => {}
        Some((n, at)) => return refuse("MEM004", format!("frame {at} ends an image of {n}")),
        None => return refuse("MEM004", "the image does not end once, last"),
    }
    let Some((order, owed)) = front.plan.or(back.plan) else {
        return inconsistent("no plan cache");
    };
    let mut claims = front.claims;
    claims.extend(back.claims);
    let mut built = front.built;
    built.absorb(back.built);
    front.frames_of_blocks.extend(back.frames_of_blocks);
    if source.len() != head.source_bytes || built.ranges.len() != head.blocks {
        return inconsistent("the source or the blocks are short");
    }
    if built
        .edges
        .iter()
        .any(|&(_, to)| to as usize >= head.blocks)
    {
        return inconsistent("the block DAG has an edge past the blocks");
    }

    // the instances' dependencies in two halves
    let instances = &built.instances;
    let (mid, deps) = (instances.len() / 2, std::mem::take(&mut built.deps));
    let sets = |on: &[Vec<u32>]| {
        let addr = |&at: &u32| instances[at as usize].addr.clone();
        let set = |on: &Vec<u32>| {
            let held = on.iter().all(|&at| (at as usize) < instances.len());
            held.then(|| on.iter().map(addr).collect::<VecSet<_>>())
        };
        on.iter().map(set).collect::<Option<Vec<_>>>()
    };
    let (rest, sets) = join(|| sets(&deps[mid..]), || sets(&deps[..mid]));
    let Some(sets) = sets
        .zip(rest)
        .map(|(sets, rest)| sets.into_iter().chain(rest))
    else {
        return inconsistent("a dependency past the manifest");
    };
    for (inst, set) in built.instances.iter_mut().zip(sets) {
        inst.depends_on = set;
    }
    let mut memo = derive(source, &head, ctx)?;
    let Later { dirty, deferred } = assemble(&mut memo, built, &head)?;
    memo.image = Cached {
        bytes,
        pieces,
        blocks: front.frames_of_blocks,
        ..Cached::default()
    };

    // the index, the plan cache, its dirtiness and the decoded claims beside
    // the claims the instances make and the declared blocks
    let Memo {
        manifest,
        mindex,
        claims: held,
        plan: cache,
        lint_env,
        chunks,
        block_chunk,
        ..
    } = &mut *memo;
    let (chunks, block_chunk) = (&chunks.chunks, &*block_chunk);
    let (decoded, ()) = join(
        || -> Result<_, Refusal> {
            *mindex = ManifestIndex::build(manifest);
            place(cache, &manifest.instances, order, owed)?;
            for (b, flag) in dirty {
                if let ChunkKind::Resource { rtype, name } = &chunks[block_chunk[b]].kind {
                    cache.dirty.insert(rtype, name, flag);
                }
            }
            let mut decoded = Claims::default();
            for ClaimIn(kind, of, what, n) in &claims {
                let reader = READERS.iter().find(|(_, name)| name == kind);
                let rule = match reader {
                    Some((rule, _)) => *rule,
                    None => match IDENTITY_ATTRS.iter().find(|attr| *attr == kind) {
                        Some(attr) => Rule::Block(attr),
                        None => return inconsistent(format!("a claim of unknown kind {kind:?}")),
                    },
                };
                let what = Cow::Borrowed(what.as_str());
                decoded.hold(&Claim { rule, of, what }, *n as isize);
            }
            Ok(decoded)
        },
        || {
            stage(held, instance_level_claims(&manifest.instances), 1);
            let kinds = block_chunk.iter().map(|&ci| &chunks[ci].kind);
            let added = kinds.filter_map(|kind| match kind {
                ChunkKind::Resource { rtype, name } => Some((rtype.clone(), name.clone())),
                ChunkKind::Other => None,
            });
            let added = added.collect();
            lint_env.apply(DeclEdit {
                added,
                removed: Vec::new(),
            });
        },
    );
    held.merge(decoded?);
    for b in deferred {
        reexpand(&mut memo, b, ctx)?;
    }
    let deviates = |miner: &SpecMiner| !miner.check(&memo.manifest).is_empty();
    if head.specs != rules_of(ctx.mined_specs()) && ctx.miner.is_some_and(deviates) {
        let why = "the image's program deviates from the spec miner's conventions";
        return refuse("MEM003", why);
    }
    let at = (head.serial, head.log_bytes, head.head);
    let anchored = head.planned && at == (key.serial, key.log_bytes, key.head);
    if anchored {
        memo.plan.serial = Some(head.serial);
    } else {
        memo.plan.away.clear();
    }
    Ok(Loaded {
        memo,
        serial: head.serial,
        planned: anchored,
    })
}

/// The plan cache's visiting order, and the addresses it owes a plan.
fn place(
    cache: &mut super::PlanCache,
    instances: &[Arc<ResourceInstance>],
    order: Vec<u32>,
    owed: Vec<Owed>,
) -> Result<(), Refusal> {
    let mut seen = vec![false; instances.len()];
    for &at in &order {
        let fresh = seen
            .get_mut(at as usize)
            .map(|s| !std::mem::replace(s, true));
        if fresh != Some(true) {
            return inconsistent("the visiting order is no order of the instances");
        }
    }
    if order.len() != instances.len() {
        return inconsistent("the visiting order is no order of the instances");
    }
    cache.set_order(order.into_iter().map(|at| at as usize).collect());
    for owes in owed {
        cache.away.push(match owes {
            Owed::At(at) => match instances.get(at as usize) {
                Some(inst) => inst.addr.clone(),
                None => return inconsistent("a plan is owed past the manifest"),
            },
            Owed::Addr(addr) => addr,
        });
    }
    Ok(())
}

/// A block's span and its attributes' spans, from the start of its chunk.
type Spans = (SpanRec, Vec<(String, SpanRec)>);

/// What a run of consecutive blocks builds on its own: their instances
/// (dependencies, spans, bindings and file still to come) with the
/// dependencies by position, each block's range of them, the block DAG's
/// edges from them, the type, name and length of their chunks and their
/// spans there (none for a block without instances), the plan cache's
/// dirtiness of them, and the ones to expand again.
#[derive(Default)]
struct Built {
    instances: Vec<ResourceInstance>,
    deps: Vec<Vec<u32>>,
    ranges: Vec<Range<usize>>,
    edges: Vec<(u32, u32)>,
    chunks: Vec<(String, String, usize)>,
    spans: Vec<Option<Spans>>,
    dirty: Vec<(usize, bool)>,
    deferred: Vec<usize>,
}

impl Built {
    /// Build `blocks`, the ones after these.
    fn add(&mut self, blocks: Vec<BlockIn>) {
        let (env, file) = (EvalEnv::default(), Arc::<str>::from(""));
        let nowhere = Span::new(SourcePos::start(), SourcePos::start());
        for block in blocks {
            let b = self.ranges.len();
            let BlockIn(
                rtype,
                name,
                len,
                span,
                lifecycle,
                spans,
                dependents,
                dirty,
                deferred,
                insts,
            ) = block;
            self.edges
                .extend(dependents.into_iter().map(|d| (b as u32, d)));
            self.dirty.extend(dirty.map(|dirty| (b, dirty)));
            if deferred {
                self.deferred.push(b);
            }
            let start = self.instances.len();
            let lifecycle = Lifecycle {
                prevent_destroy: lifecycle & 1 != 0,
                create_before_destroy: lifecycle & 2 != 0,
            };
            let rtype_name = ResourceTypeName::new(rtype.as_str());
            for InstIn(key, attrs, on, count_index, each) in insts {
                let mut addr = ResourceAddr::root(rtype_name.clone(), name.as_str());
                addr.key = key;
                self.instances.push(ResourceInstance {
                    addr,
                    attrs,
                    deferred: Vec::new(),
                    depends_on: VecSet::new(),
                    span: nowhere,
                    attr_spans: Arc::default(),
                    lifecycle,
                    env: EvalEnv {
                        count_index,
                        each,
                        ..env.clone()
                    },
                    file: Arc::clone(&file),
                });
                self.deps.push(on);
            }
            let has = start < self.instances.len();
            self.spans.push(has.then_some((span, spans)));
            self.ranges.push(start..self.instances.len());
            self.chunks.push((rtype, name, len));
        }
    }

    /// Append the run of blocks that follows these.
    fn absorb(&mut self, next: Built) {
        let (blocks, instances) = (self.ranges.len(), self.instances.len());
        self.instances.extend(next.instances);
        self.deps.extend(next.deps);
        let ranges = next.ranges.into_iter();
        self.ranges
            .extend(ranges.map(|span| span.start + instances..span.end + instances));
        let shift = |(from, to): (u32, u32)| (from + blocks as u32, to);
        self.edges.extend(next.edges.into_iter().map(shift));
        self.chunks.extend(next.chunks);
        self.spans.extend(next.spans);
        self.dirty
            .extend(next.dirty.into_iter().map(|(b, dirty)| (b + blocks, dirty)));
        self.deferred
            .extend(next.deferred.into_iter().map(|b| b + blocks));
    }
}

/// The memo's tables that follow from the source alone (and the engine's
/// configuration, which the key matched): the program's non-resource half,
/// parsed where it sits in the file, and what is derived from it.
fn derive(source: String, head: &Head, ctx: &PipelineCtx<'_>) -> Result<Box<Memo>, Refusal> {
    let mut program = Program {
        filename: "main.tf".to_owned(),
        ..Program::default()
    };
    if !head.others.is_empty() {
        // the source with everything but those chunks blanked out, lines
        // kept: the non-resource half parses where it sits in the file
        let blank = |b: u8| if b == b'\n' { b } else { b' ' };
        let mut masked: Vec<u8> = source.bytes().map(blank).collect();
        for &(start, end) in &head.others {
            let (Some(to), Some(from)) = (masked.get_mut(start..end), source.get(start..end))
            else {
                return inconsistent("a chunk past the source");
            };
            to.copy_from_slice(from.as_bytes());
        }
        let parsed = String::from_utf8(masked).ok().and_then(|masked| {
            let file = cloudless_hcl::parse(&masked, "main.tf");
            file.and_then(Program::from_file).ok()
        });
        let Some(parsed) = parsed else {
            return inconsistent("the program's non-resource half does not parse");
        };
        program = parsed;
    }
    if !program.resources.is_empty() || !program.modules.is_empty() {
        return inconsistent("the program's non-resource half holds blocks it may not");
    }
    if outer_counts(&program) != head.outer {
        return inconsistent("the program's non-resource half declares other blocks");
    }
    let expanded = expand_root(&program, ctx.inputs, ctx.modules, ctx.data);
    let Ok((manifest, root)) = expanded else {
        return inconsistent("the program's non-resource half does not expand");
    };
    if !manifest.warnings.is_empty() {
        return inconsistent("the program's non-resource half expands with warnings");
    }
    let mut memo = Box::new(Memo {
        config: (ctx.lint, ctx.level, ctx.inputs.clone()),
        specs: ctx.mined_specs().to_vec(),
        lint_env: LintEnv::build(&program),
        manifest,
        root,
        source,
        ..Memo::default()
    });
    for (rtype, name) in &outer_refs(&program).hazard_refs {
        memo.outer.insert(rtype, name, ());
    }
    memo.program = program;
    Ok(memo)
}

/// Put the blocks into the memo: the chunk table, tiling the source with
/// the other chunks (each hashed, and its first line counted); the block
/// DAG; the instances, placed in their chunks and bound to the root
/// module's bindings and file. What is left for later: the blocks to expand
/// again and the plan cache's dirtiness.
fn assemble(memo: &mut Memo, built: Built, head: &Head) -> Result<Later, Refusal> {
    let Built {
        mut instances,
        ranges,
        edges,
        chunks: blocks,
        mut spans,
        dirty,
        deferred,
        ..
    } = built;
    let mut tiles = Tiles {
        source: &memo.source,
        chunks: Vec::new(),
        at: 0,
        line: 1,
    };
    let mut others = head.others.iter().peekable();
    for (rtype, name, len) in blocks {
        while let Some(&(start, end)) = others.next_if(|(start, _)| *start == tiles.at) {
            tiles.take(start, end, ChunkKind::Other)?;
        }
        let kind = ChunkKind::Resource { rtype, name };
        let end = tiles.at.saturating_add(len);
        tiles.take(tiles.at, end, kind)?;
    }
    for &(start, end) in others {
        tiles.take(start, end, ChunkKind::Other)?;
    }
    if tiles.at != memo.source.len() {
        return inconsistent("the chunks do not tile the source");
    }
    let (chunks, src_len) = (tiles.chunks, memo.source.len());
    memo.chunks = ChunkMap { chunks, src_len };
    memo.block_chunk = memo.chunks.resource_chunks().collect();
    let mut builder: DagBuilder<()> = DagBuilder::with_capacity(ranges.len());
    for _ in &ranges {
        builder.add_node(());
    }
    for (from, to) in edges {
        if builder.add_edge(NodeId(from), NodeId(to)).is_err() {
            return inconsistent("the block DAG has an edge it cannot");
        }
    }
    let Ok(dag) = builder.seal() else {
        return inconsistent("the block DAG has a cycle");
    };
    // the spans and bindings in two halves
    let mid = ranges.len() / 2;
    let (first, rest) = instances.split_at_mut(ranges.get(mid).map_or(0, |span| span.start));
    let rest_spans = spans.split_off(mid);
    let (root, chunks, block_chunk) = (&memo.root, &memo.chunks.chunks, &memo.block_chunk);
    let place =
        |instances: &mut [ResourceInstance], blocks: Range<usize>, spans: Vec<Option<Spans>>| {
            let base = ranges.get(blocks.start).map_or(0, |span| span.start);
            for (b, spans) in blocks.zip(spans) {
                let Some((span, attr_spans)) = spans else {
                    continue;
                };
                let chunk = &chunks[block_chunk[b]];
                let place = |rec: SpanRec| rec.span(chunk.line, chunk.start);
                let attr_spans = attr_spans.into_iter().map(|(a, rec)| (a, place(rec)));
                let attr_spans = Arc::new(attr_spans.collect::<VecMap<_, _>>());
                for inst in &mut instances[ranges[b].start - base..ranges[b].end - base] {
                    inst.span = place(span);
                    inst.attr_spans = Arc::clone(&attr_spans);
                    inst.env.vars = Arc::clone(&root.vars);
                    inst.env.locals = Arc::clone(&root.locals);
                    inst.file = Arc::clone(&root.file);
                }
            }
        };
    let n = ranges.len();
    join(
        || place(rest, mid..n, rest_spans),
        || place(first, 0..mid, spans),
    );
    memo.dag = dag;
    memo.root.block_ranges = ranges;
    *memo.manifest.instances.make_mut() = instances.into_iter().map(Arc::new).collect();
    Ok(Later { dirty, deferred })
}

/// What a memo's load does once its manifest is in place: the plan
/// cache's dirtiness of each block, and the blocks to expand again.
struct Later {
    dirty: Vec<(usize, bool)>,
    deferred: Vec<usize>,
}

/// The chunk table as it is laid over the source, chunk after chunk: each
/// hashed, and its first line counted.
struct Tiles<'s> {
    source: &'s str,
    chunks: Vec<Chunk>,
    at: usize,
    line: u32,
}

impl Tiles<'_> {
    /// The next chunk, `start..end` of the source, of `kind`.
    fn take(&mut self, start: usize, end: usize, kind: ChunkKind) -> Result<(), Refusal> {
        let fits = start == self.at && start < end && self.source.is_char_boundary(end);
        let Some(bytes) = self.source.as_bytes().get(start..end).filter(|_| fits) else {
            return inconsistent("the chunks do not tile the source");
        };
        let line = self.line;
        self.line += bytes.iter().filter(|&&b| b == b'\n').count() as u32;
        self.at = end;
        let hash = fnv1a(bytes);
        self.chunks.push(Chunk {
            start,
            end,
            line,
            hash,
            kind,
        });
        Ok(())
    }
}

/// A block with a deferred attribute, parsed off its chunk and expanded
/// again under the root bindings: its instances' deferred attributes and
/// spans are the expansion's (their attributes must be the image's).
fn reexpand(memo: &mut Memo, b: usize, ctx: &PipelineCtx<'_>) -> Result<(), Refusal> {
    let chunk = &memo.chunks.chunks[memo.block_chunk[b]];
    let Ok(rb) = parse_block(&memo.source, chunk, &memo.program.filename) else {
        return inconsistent("a block with a deferred attribute does not parse");
    };
    let declared = |t: &str, n: &str| memo.lint_env.declares(&DeclEdit::default(), t, n);
    let (mut diags, mut fresh) = (Diagnostics::new(), Vec::new());
    let root = &memo.root;
    let data: &dyn Resolver = ctx.data;
    expand_resource_block(
        &rb,
        &root.vars,
        &root.locals,
        &declared,
        data,
        &root.file,
        &[],
        &mut diags,
        &mut fresh,
    );
    let range = memo.root.block_ranges[b].clone();
    let decoded = &mut memo.manifest.instances.make_mut()[range];
    let same = |(was, now): (&Arc<ResourceInstance>, &ResourceInstance)| {
        was.addr == now.addr && was.attrs == now.attrs
    };
    if !diags.is_empty() || decoded.len() != fresh.len() || !decoded.iter().zip(&fresh).all(same) {
        return inconsistent("a block with a deferred attribute expands otherwise");
    }
    for (inst, fresh) in decoded.iter_mut().zip(fresh) {
        let Some(inst) = Arc::get_mut(inst) else {
            return inconsistent("an instance is shared before it is loaded");
        };
        (inst.deferred, inst.span, inst.attr_spans) =
            (fresh.deferred, fresh.span, fresh.attr_spans);
    }
    Ok(())
}
