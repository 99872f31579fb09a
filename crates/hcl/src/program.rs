//! The analyzed program model and its expansion into resource instances.
//!
//! [`Program::from_file`] classifies the raw AST blocks into variables,
//! locals, providers, data sources, resources, modules and outputs — and
//! rejects malformed declarations with spanned diagnostics.
//!
//! [`expand`] then performs what Terraform calls *evaluation*: it binds
//! variable inputs, computes locals, resolves data sources, expands `count`
//! and `for_each` into per-instance addresses, recursively instantiates
//! modules, evaluates every attribute as far as plan time allows, and
//! extracts the dependency edges between instances. The result is a
//! [`Manifest`] — the desired-state document the rest of the stack consumes.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};

use cloudless_types::{
    Attrs, ResourceAddr, ResourceKey, ResourceTypeName, Span, Value, VecMap, VecSet,
};

use crate::ast::{Attribute, Block, BlockBody, Expr, File, Reference};
use crate::diag::{Diagnostic, Diagnostics};
use crate::eval::{eval, EvalError, Resolver, Scope};
use crate::parser::parse;

/// A `variable "name" { … }` declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Variable {
    pub name: String,
    /// Declared type keyword (`string`, `number`, `bool`, `list`, `map`), if
    /// any. Stored as text; enforcement happens in `cloudless-validate`.
    pub ty: Option<String>,
    pub default: Option<Expr>,
    pub description: Option<String>,
    /// `sensitive = true`: the value must never reach a plaintext sink
    /// (logged attributes, unencrypted stores, plain outputs). Enforced by
    /// the taint pass in `cloudless-analyze`.
    pub sensitive: bool,
    pub span: Span,
}

/// A single entry of a `locals { … }` block.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalDef {
    pub name: String,
    pub value: Expr,
    pub span: Span,
}

/// A `data "type" "name" { … }` block.
#[derive(Debug, Clone, PartialEq)]
pub struct DataBlock {
    pub rtype: String,
    pub name: String,
    pub attrs: Vec<Attribute>,
    pub span: Span,
}

/// Lifecycle meta-arguments of a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Lifecycle {
    pub prevent_destroy: bool,
    pub create_before_destroy: bool,
}

/// A `resource "type" "name" { … }` block, with meta-arguments separated
/// from plain attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceBlock {
    pub rtype: String,
    pub name: String,
    pub count: Option<Expr>,
    pub for_each: Option<Expr>,
    pub depends_on: Vec<Reference>,
    pub attrs: Vec<Attribute>,
    pub lifecycle: Lifecycle,
    pub span: Span,
}

/// A `module "name" { source = … }` call.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleCall {
    pub name: String,
    pub source: String,
    /// Input attributes (everything except `source`).
    pub inputs: Vec<Attribute>,
    pub span: Span,
}

/// An `output "name" { value = … }` declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    pub name: String,
    pub value: Expr,
    pub span: Span,
}

/// A `provider "aws" { … }` configuration block.
#[derive(Debug, Clone, PartialEq)]
pub struct ProviderConfig {
    pub name: String,
    pub attrs: Vec<Attribute>,
    pub span: Span,
}

/// A fully classified IaC program (one file; modules pull in more files).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    pub filename: String,
    pub variables: Vec<Variable>,
    pub locals: Vec<LocalDef>,
    pub providers: Vec<ProviderConfig>,
    pub data: Vec<DataBlock>,
    pub resources: Vec<ResourceBlock>,
    pub modules: Vec<ModuleCall>,
    pub outputs: Vec<Output>,
}

/// Take the first attribute called `name` out of `attrs`.
fn take_attr(attrs: &mut Vec<Attribute>, name: &str) -> Option<Attribute> {
    let at = attrs.iter().position(|a| a.name == name)?;
    Some(attrs.remove(at))
}

impl Program {
    /// Classify a parsed [`File`] into a [`Program`]. The file's blocks are
    /// taken apart, not copied: every name and expression the parser
    /// allocated moves into the declaration that holds it.
    pub fn from_file(file: File) -> Result<Program, Diagnostics> {
        let mut p = Program {
            filename: file.filename,
            ..Program::default()
        };
        let mut diags = Diagnostics::new();
        for block in file.blocks {
            if let Err(refused) = p.declare(block) {
                diags.extend(refused);
            }
        }
        let fname = &p.filename;
        // duplicate detection
        let mut seen = BTreeSet::new();
        for r in &p.resources {
            if !seen.insert((r.rtype.as_str(), r.name.as_str())) {
                diags.push(Diagnostic::error(
                    "HCL017",
                    fname,
                    r.span,
                    format!("duplicate resource {}.{}", r.rtype, r.name),
                ));
            }
        }
        let mut seen = BTreeSet::new();
        for v in &p.variables {
            if !seen.insert(v.name.as_str()) {
                diags.push(Diagnostic::error(
                    "HCL017",
                    fname,
                    v.span,
                    format!("duplicate variable {:?}", v.name),
                ));
            }
        }
        diags.into_result(p)
    }

    /// Add what one top-level block declares.
    fn declare(&mut self, block: Block) -> Result<(), Diagnostics> {
        let Block {
            kind,
            labels,
            mut body,
            span,
        } = block;
        let mut repeated = Diagnostics::new();
        repeated_arguments(&body, &self.filename, &mut repeated);
        if !repeated.is_empty() {
            return Err(repeated);
        }
        let refused = |code: &str, message: &str| {
            Err(Diagnostic::error(code, &self.filename, span, message).into())
        };
        let mut labels = labels.into_iter();
        match kind.as_str() {
            "variable" => {
                let Some(name) = labels.next() else {
                    return refused("HCL010", "variable block requires a name label");
                };
                let ty = body.attr("type").and_then(|a| match &a.value {
                    Expr::Ref(r, _) if r.parts.len() == 1 => Some(r.parts[0].clone()),
                    e => e.as_plain_str().map(str::to_owned),
                });
                let description = body
                    .attr("description")
                    .and_then(|a| a.value.as_plain_str().map(str::to_owned));
                let sensitive = matches!(
                    body.attr("sensitive").map(|a| &a.value),
                    Some(Expr::Bool(true, _))
                );
                self.variables.push(Variable {
                    name,
                    ty,
                    default: take_attr(&mut body.attrs, "default").map(|a| a.value),
                    description,
                    sensitive,
                    span,
                });
            }
            "locals" => {
                let defs = body.attrs.into_iter().map(|a| LocalDef {
                    name: a.name,
                    value: a.value,
                    span: a.span,
                });
                self.locals.extend(defs);
            }
            "provider" => match labels.next() {
                Some(name) => self.providers.push(ProviderConfig {
                    name,
                    attrs: body.attrs,
                    span,
                }),
                None => return refused("HCL011", "provider block requires a name label"),
            },
            "data" => match (labels.next(), labels.next()) {
                (Some(rtype), Some(name)) => self.data.push(DataBlock {
                    rtype,
                    name,
                    attrs: body.attrs,
                    span,
                }),
                _ => return refused("HCL012", "data block requires type and name labels"),
            },
            "resource" => match (labels.next(), labels.next()) {
                (Some(rtype), Some(name)) => {
                    let rb = classify_resource(rtype, name, body, span, &self.filename)?;
                    self.resources.push(rb);
                }
                _ => return refused("HCL013", "resource block requires type and name labels"),
            },
            "module" => {
                let Some(name) = labels.next() else {
                    return refused("HCL014", "module block requires a name label");
                };
                let source = body.attr("source").and_then(|a| a.value.as_plain_str());
                let Some(source) = source.map(str::to_owned) else {
                    let message = "module block requires a literal `source` attribute";
                    return refused("HCL014", message);
                };
                body.attrs.retain(|a| a.name != "source");
                self.modules.push(ModuleCall {
                    name,
                    source,
                    inputs: body.attrs,
                    span,
                });
            }
            "output" => {
                let Some(name) = labels.next() else {
                    return refused("HCL015", "output block requires a name label");
                };
                let Some(value) = take_attr(&mut body.attrs, "value") else {
                    return refused("HCL015", "output block requires a `value` attribute");
                };
                self.outputs.push(Output {
                    name,
                    value: value.value,
                    span,
                });
            }
            "terraform" => {
                // settings block — accepted and ignored for compatibility
            }
            other => {
                let message = format!("unknown block kind {other:?}");
                return refused("HCL016", &message);
            }
        }
        Ok(())
    }

    /// Find a resource block by `type.name`.
    pub fn resource(&self, rtype: &str, name: &str) -> Option<&ResourceBlock> {
        self.resources
            .iter()
            .find(|r| r.rtype == rtype && r.name == name)
    }
}

/// `HCL045` at each argument a block body sets again, naming where it was
/// first set; nested blocks' bodies too. One value would silently win.
fn repeated_arguments(body: &BlockBody, fname: &str, diags: &mut Diagnostics) {
    for (at, a) in body.attrs.iter().enumerate() {
        if let Some(first) = body.attrs[..at].iter().find(|b| b.name == a.name) {
            diags.push(Diagnostic::error(
                "HCL045",
                fname,
                a.span,
                format!(
                    "argument {:?} is set twice; it was first set at {fname}:{}",
                    a.name, first.span.start
                ),
            ));
        }
    }
    for nested in &body.blocks {
        repeated_arguments(&nested.body, fname, diags);
    }
}

/// The resource block `rtype.name` out of its body: meta-arguments apart
/// from plain attributes, nested blocks folded into list attributes.
fn classify_resource(
    rtype: String,
    name: String,
    body: BlockBody,
    span: Span,
    fname: &str,
) -> Result<ResourceBlock, Diagnostics> {
    let mut diags = Diagnostics::new();
    let mut rb = ResourceBlock {
        rtype,
        name,
        count: None,
        for_each: None,
        depends_on: Vec::new(),
        attrs: Vec::new(),
        lifecycle: Lifecycle::default(),
        span,
    };
    // the meta-arguments come out; the plain attributes stay where they are
    let mut attrs = body.attrs;
    attrs.retain_mut(|a| {
        let value = |a: &mut Attribute| std::mem::replace(&mut a.value, Expr::Null(a.span));
        match a.name.as_str() {
            "count" => rb.count = Some(value(a)),
            "for_each" => rb.for_each = Some(value(a)),
            "depends_on" => match value(a) {
                Expr::List(items, _) => {
                    for item in items {
                        match item {
                            Expr::Ref(r, _) => rb.depends_on.push(r),
                            other => diags.push(Diagnostic::error(
                                "HCL018",
                                fname,
                                other.span(),
                                "depends_on entries must be resource references",
                            )),
                        }
                    }
                }
                other => diags.push(Diagnostic::error(
                    "HCL018",
                    fname,
                    other.span(),
                    "depends_on must be a list of resource references",
                )),
            },
            _ => return true,
        }
        false
    });
    rb.attrs = attrs;
    if rb.count.is_some() && rb.for_each.is_some() {
        diags.push(Diagnostic::error(
            "HCL019",
            fname,
            span,
            "a resource cannot use both `count` and `for_each`",
        ));
    }
    // Nested blocks: `lifecycle` is a meta-block; any other repeated nested
    // block (e.g. `ingress`) becomes a list-of-maps attribute, matching how
    // provider schemas model them.
    let mut grouped: BTreeMap<String, Vec<(BlockBody, Span)>> = BTreeMap::new();
    for nb in body.blocks {
        if nb.kind == "lifecycle" {
            for a in &nb.body.attrs {
                let flag = matches!(a.value, Expr::Bool(true, _));
                match a.name.as_str() {
                    "prevent_destroy" => rb.lifecycle.prevent_destroy = flag,
                    "create_before_destroy" => rb.lifecycle.create_before_destroy = flag,
                    other => diags.push(Diagnostic::warning(
                        "HCL020",
                        fname,
                        a.span,
                        format!("unknown lifecycle argument {other:?} ignored"),
                    )),
                }
            }
        } else {
            grouped.entry(nb.kind).or_default().push((nb.body, nb.span));
        }
    }
    for (kind, blocks) in grouped {
        let span = blocks[0].1;
        let items: Vec<Expr> = blocks
            .into_iter()
            .map(|(body, span)| {
                let entries = body.attrs.into_iter();
                let entries = entries.map(|a| (crate::ast::MapKey::Ident(a.name), a.value));
                Expr::Map(entries.collect(), span)
            })
            .collect();
        rb.attrs.push(Attribute {
            name: kind,
            value: Expr::List(items, span),
            span,
        });
    }
    diags.into_result(rb)
}

// ---------------------------------------------------------------------------
// Expansion
// ---------------------------------------------------------------------------

/// In-memory library of module sources, keyed by the `source` string used in
/// `module` blocks. (The simulation has no filesystem layout convention; the
/// CLI layer maps directories into this library.)
#[derive(Debug, Clone, Default)]
pub struct ModuleLibrary {
    sources: BTreeMap<String, String>,
}

impl ModuleLibrary {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn insert(&mut self, source_key: impl Into<String>, hcl: impl Into<String>) -> &mut Self {
        self.sources.insert(source_key.into(), hcl.into());
        self
    }

    pub fn get(&self, source_key: &str) -> Option<&str> {
        self.sources.get(source_key).map(String::as_str)
    }
}

/// Evaluation environment captured per instance so deferred attributes can
/// be re-evaluated at apply time with the exact same lexical scope.
#[derive(Debug, Clone)]
pub struct EvalEnv {
    pub vars: Arc<BTreeMap<String, Value>>,
    pub locals: Arc<BTreeMap<String, Value>>,
    pub count_index: Option<u32>,
    pub each: Option<(String, Value)>,
}

impl EvalEnv {
    /// Build a [`Scope`] over this environment with the given resolver.
    pub fn scope<'a>(&'a self, resolver: &'a dyn Resolver) -> Scope<'a> {
        Scope {
            vars: &self.vars,
            locals: &self.locals,
            count_index: self.count_index,
            each: self.each.clone(),
            resolver,
            bindings: Vec::new(),
        }
    }
}

/// An attribute whose value could not be computed at plan time because it
/// references computed attributes of other resources.
#[derive(Debug, Clone)]
pub struct DeferredAttr {
    pub name: String,
    pub expr: Expr,
    pub span: Span,
    /// The references that caused the deferral (targets of the dependency
    /// edges this attribute induces).
    pub waiting_on: Vec<Reference>,
}

/// One concrete resource instance in the desired state.
#[derive(Debug, Clone)]
pub struct ResourceInstance {
    pub addr: ResourceAddr,
    /// Attributes whose values are known at plan time.
    pub attrs: Attrs,
    /// Attributes that must be finalized at apply time.
    pub deferred: Vec<DeferredAttr>,
    /// Addresses of instances this one depends on (references + depends_on).
    pub depends_on: VecSet<ResourceAddr>,
    /// Span of the resource block (for diagnostics).
    pub span: Span,
    /// Span of each attribute, including deferred ones (for precise
    /// error localization, §3.5). One table per block, shared by its
    /// instances.
    pub attr_spans: Arc<VecMap<String, Span>>,
    pub lifecycle: Lifecycle,
    /// Captured scope for apply-time re-evaluation.
    pub env: EvalEnv,
    /// File the resource was declared in (one allocation per program, shared
    /// by its instances).
    pub file: Arc<str>,
    /// The `region` its provider's `provider` block sets, if it sets one:
    /// the region it lands in unless it pins its own
    /// ([`cloudless_types::Provider::effective_region`]).
    pub provider_region: Option<Arc<str>>,
}

/// The `region` the `provider` block of `rtype`'s provider sets among
/// `config` (a manifest's evaluated `provider` blocks), if it sets one.
pub fn provider_region(
    config: &BTreeMap<String, Attrs>,
    rtype: &ResourceTypeName,
) -> Option<Arc<str>> {
    let region = config
        .get(rtype.provider_prefix())?
        .get("region")?
        .as_str()?;
    Some(Arc::from(region))
}

impl ResourceInstance {
    /// Resource type of this instance.
    pub fn rtype(&self) -> ResourceTypeName {
        self.addr.rtype.clone()
    }
}

/// A program output after expansion: either fully known or deferred.
#[derive(Debug, Clone)]
pub enum OutputValue {
    Known(Value),
    Deferred {
        expr: Expr,
        env: EvalEnv,
        /// The module that declares the output: its references resolve
        /// among that module's resources.
        module_path: Vec<String>,
        span: Span,
    },
}

/// A manifest's instances: one list, shared copy-on-write, and read by the
/// block when it comes from a [`BlockSource`].
///
/// Cloning is O(1), one reference-count bump, so a clone of a
/// [`Manifest`] costs its outputs, not its instances. A list built whole
/// ([`FromIterator`]) is a slice ([`std::ops::Deref`]). A list built by the
/// block ([`Instances::by_block`]) decodes a block the first time a read
/// reaches it: [`Instances::at`] and [`Instances::slice`] within one block
/// decode that block, [`Instances::len`] none, and a read of the whole
/// slice every block left, once, in two halves side by side. A decoded
/// block's instances are the ones every later read returns.
///
/// The writes copy the list first only when another clone still shares it:
/// [`Instances::write`] replaces a block's instances and
/// [`Instances::regroup`] rebuilds the list from its blocks and new ones,
/// both leaving the other blocks as undecoded as they were;
/// [`Instances::make_mut`] is the slice, for writing.
#[derive(Clone, Default)]
pub struct Instances(Arc<List>);

/// The list behind [`Instances`].
#[derive(Clone, Default)]
struct List {
    /// The whole list, once read whole (from the start, when built whole).
    all: OnceLock<Vec<Arc<ResourceInstance>>>,
    /// Until then, its blocks.
    blocks: Option<Blocks>,
}

/// A list read by the block: where each block starts, and each one's
/// instances, decoded or given. A block is shared by every list that holds
/// it, so it is decoded once for all of them.
#[derive(Clone)]
struct Blocks {
    source: Arc<dyn BlockSource>,
    /// Each block's first instance, then one past the last.
    starts: Vec<usize>,
    slots: Vec<Arc<Slot>>,
}

/// One block of a [`Blocks`]: the source's block it decodes from (none when
/// a write gave it), and its instances once there.
struct Slot {
    from: Option<usize>,
    got: OnceLock<Box<[Arc<ResourceInstance>]>>,
}

impl Slot {
    fn given(with: &[Arc<ResourceInstance>]) -> Arc<Slot> {
        let got = OnceLock::from(Box::from(with));
        Arc::new(Slot { from: None, got })
    }
}

/// Where a list read by the block decodes its blocks from.
pub trait BlockSource: Send + Sync {
    /// The instances of block `b`.
    fn decode(&self, b: usize) -> Vec<ResourceInstance>;
}

/// A piece of the list [`Instances::regroup`] builds: the old list's block
/// at an index, its instances at a range, or new instances.
pub enum Piece<'a> {
    Kept(usize, std::ops::Range<usize>),
    New(&'a [Arc<ResourceInstance>]),
}

impl Blocks {
    /// The block instance `at` sits in.
    fn block_of(&self, at: usize) -> usize {
        self.starts.partition_point(|&start| start <= at) - 1
    }

    /// Block `b`'s instances, decoded if they are not yet.
    fn block(&self, b: usize) -> &[Arc<ResourceInstance>] {
        let slot = &self.slots[b];
        slot.got.get_or_init(|| {
            let decoded = slot.from.map_or_else(Vec::new, |b| self.source.decode(b));
            decoded.into_iter().map(Arc::new).collect()
        })
    }

    /// Whether block `b` is exactly the instances at `span`.
    fn holds(&self, b: usize, span: &std::ops::Range<usize>) -> bool {
        b < self.slots.len() && self.starts[b] == span.start && self.starts[b + 1] == span.end
    }

    /// Every block's instances in order, the ones still undecoded decoded
    /// in two halves side by side.
    fn gather(&self) -> Vec<Arc<ResourceInstance>> {
        let half = |blocks: std::ops::Range<usize>| {
            let mut out = Vec::with_capacity(self.starts[blocks.end] - self.starts[blocks.start]);
            for b in blocks {
                out.extend_from_slice(self.block(b));
            }
            out
        };
        let (n, mid) = (self.slots.len(), self.slots.len() / 2);
        let (rest, mut all) = cloudless_types::join(|| half(mid..n), || half(0..mid));
        all.extend(rest);
        all
    }

    /// The block whose instances are exactly `span`, if one is (and `span`
    /// is not empty).
    fn exactly(&self, span: &std::ops::Range<usize>) -> Option<usize> {
        let b = self.block_of(span.start);
        let ends = (span.start < span.end) && self.starts.get(b + 1) == Some(&span.end);
        (ends && self.starts[b] == span.start).then_some(b)
    }
}

impl List {
    fn whole(&self) -> &Vec<Arc<ResourceInstance>> {
        self.all
            .get_or_init(|| self.blocks.as_ref().map_or_else(Vec::new, Blocks::gather))
    }

    /// The blocks, while the list is read by the block.
    fn by_block(&self) -> Option<&Blocks> {
        self.blocks.as_ref().filter(|_| self.all.get().is_none())
    }
}

impl Instances {
    /// A list of blocks of `counts` instances each, block `b` decoded from
    /// `source` when a read first reaches it.
    pub fn by_block(
        source: Arc<dyn BlockSource>,
        counts: impl Iterator<Item = usize>,
    ) -> Instances {
        let mut starts = vec![0];
        let mut slots = Vec::new();
        for (b, n) in counts.enumerate() {
            starts.push(starts[b] + n);
            let got = OnceLock::new();
            slots.push(Arc::new(Slot { from: Some(b), got }));
        }
        let blocks = Some(Blocks {
            source,
            starts,
            slots,
        });
        Instances(Arc::new(List {
            all: OnceLock::new(),
            blocks,
        }))
    }

    /// How many instances the list holds (decodes nothing).
    pub fn len(&self) -> usize {
        match self.0.by_block() {
            Some(blocks) => blocks.starts.last().copied().unwrap_or(0),
            None => self.0.whole().len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Instance `at` (decodes its block).
    pub fn at(&self, at: usize) -> &Arc<ResourceInstance> {
        &self.slice(at..at + 1)[0]
    }

    /// The instances at `span`: the block's, when it lies within one (it
    /// decodes that block alone), else the whole list's.
    pub fn slice(&self, span: std::ops::Range<usize>) -> &[Arc<ResourceInstance>] {
        if let Some(blocks) = self.0.by_block().filter(|_| span.start < span.end) {
            let b = blocks.block_of(span.start);
            let start = blocks.starts[b];
            if span.end <= blocks.starts[b + 1] {
                return &blocks.block(b)[span.start - start..span.end - start];
            }
        }
        &self.0.whole()[span]
    }

    /// The source's block the list's block at exactly `span` still holds as
    /// the source gives it (decoded or not), if the list is read by the
    /// block and no write has replaced it.
    pub fn sourced(&self, span: std::ops::Range<usize>) -> Option<usize> {
        let blocks = self.0.blocks.as_ref()?;
        blocks.slots[blocks.exactly(&span)?].from
    }

    /// Replace the instances at `span` with as many others: within the one
    /// block `span` is, that block alone (no other is decoded).
    pub fn write(&mut self, span: std::ops::Range<usize>, with: &[Arc<ResourceInstance>]) {
        if span.is_empty() {
            return;
        }
        if let Some(b) = self.0.by_block().and_then(|blocks| blocks.exactly(&span)) {
            let list = Arc::make_mut(&mut self.0);
            if let Some(blocks) = &mut list.blocks {
                blocks.slots[b] = Slot::given(with);
                return;
            }
        }
        self.make_mut()[span].clone_from_slice(with);
    }

    /// The list made of `pieces` in order: blocks of this list, each at its
    /// index and range (still undecoded, when it is), and new instances,
    /// each a block.
    pub fn regroup<'a>(&mut self, pieces: impl Iterator<Item = Piece<'a>>) {
        let pieces: Vec<Piece<'a>> = pieces.collect();
        let aligned = |blocks: &Blocks| {
            pieces.iter().all(|piece| match piece {
                Piece::Kept(b, span) => blocks.holds(*b, span),
                Piece::New(_) => true,
            })
        };
        if let Some(blocks) = self.0.by_block().filter(|blocks| aligned(blocks)) {
            let (mut starts, mut slots) = (vec![0], Vec::with_capacity(pieces.len()));
            for piece in &pieces {
                let (slot, n) = match piece {
                    Piece::Kept(b, span) => (Arc::clone(&blocks.slots[*b]), span.len()),
                    Piece::New(with) => (Slot::given(with), with.len()),
                };
                starts.push(starts[starts.len() - 1] + n);
                slots.push(slot);
            }
            let source = Arc::clone(&blocks.source);
            let blocks = Some(Blocks {
                source,
                starts,
                slots,
            });
            self.0 = Arc::new(List {
                all: OnceLock::new(),
                blocks,
            });
            return;
        }
        let was = self.0.whole();
        let mut list = Vec::with_capacity(was.len());
        for piece in pieces {
            match piece {
                Piece::Kept(_, span) => list.extend_from_slice(&was[span]),
                Piece::New(with) => list.extend_from_slice(with),
            }
        }
        *self = list.into_iter().collect();
    }

    /// The list, for writing: every block decoded, and unshared first if
    /// another clone holds it.
    pub fn make_mut(&mut self) -> &mut Vec<Arc<ResourceInstance>> {
        self.0.whole();
        let list = Arc::make_mut(&mut self.0);
        list.blocks = None;
        list.all.get_mut().expect("the whole list was just read")
    }

    /// Whether `a` and `b` are the same list, not merely equal ones.
    pub fn ptr_eq(a: &Instances, b: &Instances) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl std::fmt::Debug for Instances {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Instances").field(self.0.whole()).finish()
    }
}

impl std::ops::Deref for Instances {
    type Target = [Arc<ResourceInstance>];

    fn deref(&self) -> &Self::Target {
        self.0.whole()
    }
}

impl<'a> IntoIterator for &'a Instances {
    type Item = &'a Arc<ResourceInstance>;
    type IntoIter = std::slice::Iter<'a, Arc<ResourceInstance>>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.whole().iter()
    }
}

impl FromIterator<Arc<ResourceInstance>> for Instances {
    fn from_iter<I: IntoIterator<Item = Arc<ResourceInstance>>>(iter: I) -> Self {
        let all = OnceLock::from(iter.into_iter().collect::<Vec<_>>());
        Instances(Arc::new(List { all, blocks: None }))
    }
}

/// The expanded desired state: what the planner diffs against reality.
///
/// Instances are `Arc`-shared so downstream consumers (the differ's
/// `PlannedChange::desired`, plan nodes, executors) can hold them without
/// deep-copying attribute and expression trees — at 100k resources those
/// copies dominated the diff wall-clock — and the list of them is
/// [`Instances`], so cloning a manifest copies none of it.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    pub instances: Instances,
    pub outputs: BTreeMap<String, OutputValue>,
    /// Evaluated provider configuration blocks (`provider "aws" { … }`),
    /// keyed by provider name.
    pub provider_config: BTreeMap<String, Attrs>,
    /// Non-fatal diagnostics produced during expansion.
    pub warnings: Diagnostics,
}

impl Default for EvalEnv {
    fn default() -> Self {
        EvalEnv {
            vars: Arc::new(BTreeMap::new()),
            locals: Arc::new(BTreeMap::new()),
            count_index: None,
            each: None,
        }
    }
}

impl Manifest {
    /// Look up an instance by address.
    pub fn instance(&self, addr: &ResourceAddr) -> Option<&ResourceInstance> {
        self.instances
            .iter()
            .find(|i| &i.addr == addr)
            .map(Arc::as_ref)
    }
}

/// Expand `program` with the given variable `inputs`.
///
/// `data_resolver` answers `data.*` references (the cloud substrate provides
/// one). `modules` supplies module sources for `module` blocks.
pub fn expand(
    program: &Program,
    inputs: &BTreeMap<String, Value>,
    modules: &ModuleLibrary,
    data_resolver: &dyn Resolver,
) -> Result<Manifest, Diagnostics> {
    expand_root(program, inputs, modules, data_resolver).map(|(manifest, _)| manifest)
}

/// What expanding the root module established besides the manifest: the
/// bindings every root block was expanded under and where each block's
/// instances landed. With these, [`expand_resource_block`] can expand a
/// single edited or added block later and splice the result in place.
#[derive(Debug, Clone, Default)]
pub struct RootExpansion {
    /// The program's file name, as its instances share it.
    pub file: Arc<str>,
    pub vars: Bindings,
    pub locals: Bindings,
    /// Per root resource block, in declaration order, where its instances
    /// sit in `Manifest::instances`.
    pub block_ranges: Vec<std::ops::Range<usize>>,
}

/// [`expand`], also returning the root module's [`RootExpansion`].
pub fn expand_root(
    program: &Program,
    inputs: &BTreeMap<String, Value>,
    modules: &ModuleLibrary,
    data_resolver: &dyn Resolver,
) -> Result<(Manifest, RootExpansion), Diagnostics> {
    let mut manifest = Manifest::default();
    let mut diags = Diagnostics::new();
    let root = expand_into(
        program,
        inputs,
        modules,
        data_resolver,
        &[],
        &mut manifest,
        &mut diags,
        0,
    );
    // every instance, a module's too, lands where the root's provider
    // block says
    if manifest
        .provider_config
        .values()
        .any(|attrs| attrs.contains_key("region"))
    {
        let config = &manifest.provider_config;
        for inst in manifest.instances.make_mut() {
            let region = provider_region(config, &inst.addr.rtype);
            Arc::make_mut(inst).provider_region = region;
        }
    }
    diags.into_result((manifest, root))
}

/// Maximum module nesting depth (defensive bound against recursive modules).
const MAX_MODULE_DEPTH: usize = 16;

/// A shared name→value environment (variable or local bindings), in the
/// `Arc` form [`EvalEnv`] captures.
pub type Bindings = Arc<BTreeMap<String, Value>>;

/// Steps 1–2 of expansion: bind variable inputs (inputs override defaults;
/// missing required → error; declared types enforced on whichever value
/// wins) and evaluate locals to fixpoint.
fn bind_env(
    program: &Program,
    inputs: &BTreeMap<String, Value>,
    data_resolver: &dyn Resolver,
    warnings: &mut Diagnostics,
    diags: &mut Diagnostics,
) -> (Bindings, Bindings) {
    let fname = &program.filename;

    let type_ok = |ty: &str, val: &Value| -> bool {
        match ty {
            "string" => matches!(val, Value::Str(_)),
            "number" => matches!(val, Value::Num(_)),
            "bool" => matches!(val, Value::Bool(_)),
            "list" => matches!(val, Value::List(_)),
            "map" | "object" => matches!(val, Value::Map(_)),
            _ => true, // unknown type keyword: don't guess
        }
    };
    let mut vars: BTreeMap<String, Value> = BTreeMap::new();
    for v in &program.variables {
        if let Some(val) = inputs.get(&v.name) {
            if let Some(ty) = &v.ty {
                if !type_ok(ty, val) {
                    diags.push(Diagnostic::error(
                        "HCL044",
                        fname,
                        v.span,
                        format!(
                            "variable {:?} is declared as {ty} but the input is {}",
                            v.name,
                            val.kind()
                        ),
                    ));
                    continue;
                }
            }
            vars.insert(v.name.clone(), val.clone());
        } else if let Some(default) = &v.default {
            let scope = Scope::bare(data_resolver);
            match eval(default, &scope) {
                Ok(val) => {
                    if let Some(ty) = &v.ty {
                        if !type_ok(ty, &val) {
                            diags.push(Diagnostic::error(
                                "HCL044",
                                fname,
                                v.span,
                                format!(
                                    "variable {:?} is declared as {ty} but its default is {}",
                                    v.name,
                                    val.kind()
                                ),
                            ));
                            continue;
                        }
                    }
                    vars.insert(v.name.clone(), val);
                }
                Err(e) => diags.push(Diagnostic::error(
                    "HCL030",
                    fname,
                    e.span(),
                    format!("cannot evaluate default of variable {:?}: {e}", v.name),
                )),
            }
        } else {
            diags.push(Diagnostic::error(
                "HCL031",
                fname,
                v.span,
                format!("required variable {:?} was not provided", v.name),
            ));
        }
    }
    // Unknown inputs are a warning (typo detection).
    for k in inputs.keys() {
        if !program.variables.iter().any(|v| &v.name == k) {
            warnings.push(Diagnostic::warning(
                "HCL032",
                fname,
                Span::synthetic(),
                format!("input {k:?} does not match any declared variable"),
            ));
        }
    }

    // 2. Evaluate locals to fixpoint (locals may reference other locals in
    //    any order; iterate until no progress).
    let mut locals: BTreeMap<String, Value> = BTreeMap::new();
    let mut pending: Vec<&LocalDef> = program.locals.iter().collect();
    loop {
        let before = pending.len();
        let mut still = Vec::new();
        for l in pending {
            let scope = Scope {
                vars: &vars,
                locals: &locals,
                count_index: None,
                each: None,
                resolver: data_resolver,
                bindings: Vec::new(),
            };
            match eval(&l.value, &scope) {
                Ok(v) => {
                    locals.insert(l.name.clone(), v);
                }
                Err(EvalError::UnknownRef { ref reference, .. }) if reference.root() == "local" => {
                    still.push(l); // may resolve on a later pass
                }
                Err(e) => {
                    diags.push(Diagnostic::error(
                        "HCL033",
                        fname,
                        e.span(),
                        format!("cannot evaluate local {:?}: {e}", l.name),
                    ));
                }
            }
        }
        if still.is_empty() || still.len() == before {
            for l in still {
                diags.push(Diagnostic::error(
                    "HCL034",
                    fname,
                    l.span,
                    format!(
                        "local {:?} has an unresolvable (possibly cyclic) reference",
                        l.name
                    ),
                ));
            }
            break;
        }
        pending = still;
    }

    (Arc::new(vars), Arc::new(locals))
}

/// The `(type, name)` of a block another block depends on, borrowed from the
/// program that declares the dependent.
pub type BlockKey<'p> = (&'p str, &'p str);

/// Expand one resource block into its per-key instances (step 4 of
/// expansion), appended to `out`, and return the blocks it depends on:
/// explicit `depends_on` plus every resource its attributes reference.
/// `declared` answers whether `(type, name)` is a block of the same module.
/// The instances' own `depends_on` is left empty: dependencies are between
/// blocks until every block is expanded, and the caller turns the returned
/// keys into instance addresses then.
#[allow(clippy::too_many_arguments)]
pub fn expand_resource_block<'p>(
    rb: &'p ResourceBlock,
    vars: &Bindings,
    locals: &Bindings,
    declared: &dyn Fn(&str, &str) -> bool,
    data_resolver: &dyn Resolver,
    fname: &Arc<str>,
    module_path: &[String],
    diags: &mut Diagnostics,
    out: &mut Vec<ResourceInstance>,
) -> BTreeSet<BlockKey<'p>> {
    // Dependency extraction: explicit depends_on + references.
    let mut dep_blocks: BTreeSet<BlockKey<'p>> = BTreeSet::new();
    let mut note = |r: &'p Reference| {
        if let [rtype, name, ..] = r.parts.as_slice() {
            dep_blocks.insert((rtype, name));
        }
    };
    rb.depends_on.iter().for_each(&mut note);
    for a in &rb.attrs {
        a.value.walk_refs(&mut |r, _| {
            if is_resource_ref(r) {
                note(r);
            }
        });
    }

    let base_env = EvalEnv {
        vars: vars.clone(),
        locals: locals.clone(),
        count_index: None,
        each: None,
    };
    let Some(keys) = expansion_keys(rb, &base_env, data_resolver, fname, diags) else {
        return dep_blocks;
    };
    let attr_spans = rb.attrs.iter().map(|a| (a.name.clone(), a.span));
    let attr_spans = Arc::new(attr_spans.collect::<VecMap<_, _>>());
    // the known attributes of one instance, before they become its map
    let mut known = Vec::new();
    for at in 0..keys.len() {
        let (count_index, each, key) = keys.key(at);
        let env = EvalEnv {
            count_index,
            each,
            ..base_env.clone()
        };
        let mut addr = ResourceAddr::root(ResourceTypeName::new(&rb.rtype), &rb.name);
        for m in module_path.iter().rev() {
            addr = addr.in_module(m.clone());
        }
        addr.key = key;
        let mut inst = ResourceInstance {
            addr,
            attrs: Attrs::new(),
            deferred: Vec::new(),
            depends_on: VecSet::new(),
            span: rb.span,
            attr_spans: Arc::clone(&attr_spans),
            lifecycle: rb.lifecycle,
            env,
            file: Arc::clone(fname),
            provider_region: None,
        };
        let scope = inst.env.scope(data_resolver);
        for a in &rb.attrs {
            match eval(&a.value, &scope) {
                Ok(v) => known.push((a.name.clone(), v)),
                Err(e) if e.is_deferred() => {
                    let mut waiting = Vec::new();
                    a.value.walk_refs(&mut |r, _| {
                        if is_resource_ref(r) {
                            waiting.push(r.clone());
                        }
                    });
                    inst.deferred.push(DeferredAttr {
                        name: a.name.clone(),
                        expr: a.value.clone(),
                        span: a.span,
                        waiting_on: waiting,
                    });
                }
                Err(e) => diags.push(Diagnostic::error(
                    "HCL036",
                    fname,
                    e.span(),
                    format!(
                        "in {}.{}: cannot evaluate {:?}: {e}",
                        rb.rtype, rb.name, a.name
                    ),
                )),
            }
        }
        drop(scope);
        inst.attrs = known.drain(..).collect();
        for (t, n) in dep_blocks.iter().filter(|(t, n)| !declared(t, n)) {
            diags.push(Diagnostic::error(
                "HCL037",
                fname,
                rb.span,
                format!(
                    "{}.{} references undeclared resource {t}.{n}",
                    rb.rtype, rb.name
                ),
            ));
        }
        out.push(inst);
    }
    dep_blocks
}

#[allow(clippy::too_many_arguments)]
fn expand_into(
    program: &Program,
    inputs: &BTreeMap<String, Value>,
    modules: &ModuleLibrary,
    data_resolver: &dyn Resolver,
    module_path: &[String],
    manifest: &mut Manifest,
    diags: &mut Diagnostics,
    depth: usize,
) -> RootExpansion {
    let file: Arc<str> = Arc::from(program.filename.as_str());
    let fname = &file;

    // 1–2. Bind variables and evaluate locals.
    let (vars, locals) = bind_env(
        program,
        inputs,
        data_resolver,
        &mut manifest.warnings,
        diags,
    );

    // 3. Provider config blocks (root module only).
    if module_path.is_empty() {
        for pc in &program.providers {
            let scope = Scope {
                vars: &vars,
                locals: &locals,
                count_index: None,
                each: None,
                resolver: data_resolver,
                bindings: Vec::new(),
            };
            let mut attrs = Attrs::new();
            for a in &pc.attrs {
                match eval(&a.value, &scope) {
                    Ok(v) => {
                        attrs.insert(a.name.clone(), v);
                    }
                    Err(e) => diags.push(Diagnostic::error(
                        "HCL035",
                        fname,
                        e.span(),
                        format!("cannot evaluate provider attribute {:?}: {e}", a.name),
                    )),
                }
            }
            manifest.provider_config.insert(pc.name.clone(), attrs);
        }
    }

    // 4. Expand resources. A block's instances sit side by side, so a
    // dependency on `type.name` is a dependency on that block's range.
    let block_of: HashMap<BlockKey<'_>, usize> = (program.resources.iter().enumerate())
        .map(|(bi, r)| ((r.rtype.as_str(), r.name.as_str()), bi))
        .collect();
    let mut block_ranges = Vec::with_capacity(program.resources.len());
    let mut block_deps = Vec::with_capacity(program.resources.len());
    let mut insts = Vec::new();
    let instances = manifest.instances.make_mut();
    for rb in &program.resources {
        block_deps.push(expand_resource_block(
            rb,
            &vars,
            &locals,
            &|t, n| block_of.contains_key(&(t, n)),
            data_resolver,
            fname,
            module_path,
            diags,
            &mut insts,
        ));
        let start = instances.len();
        instances.extend(insts.drain(..).map(Arc::new));
        block_ranges.push(start..instances.len());
    }

    // Now that every block is expanded, block-level dependencies become
    // instance-level: each instance depends on every instance of the blocks
    // its own block depends on (other than itself).
    for (range, deps) in block_ranges.iter().zip(&block_deps) {
        for at in range.clone() {
            let own = &instances[at].addr;
            let blocks = deps.iter().filter_map(|key| block_of.get(key));
            let depends_on: VecSet<ResourceAddr> = blocks
                .flat_map(|&bi| &instances[block_ranges[bi].clone()])
                .map(|inst| &inst.addr)
                .filter(|addr| *addr != own)
                .cloned()
                .collect();
            // freshly built this call, so refcount is 1 and this never clones
            Arc::make_mut(&mut instances[at]).depends_on = depends_on;
        }
    }

    // 5. Modules (recursive).
    for mc in &program.modules {
        if depth >= MAX_MODULE_DEPTH {
            diags.push(Diagnostic::error(
                "HCL038",
                fname,
                mc.span,
                format!("module nesting exceeds {MAX_MODULE_DEPTH} levels"),
            ));
            continue;
        }
        let source = match modules.get(&mc.source) {
            Some(s) => s,
            None => {
                diags.push(Diagnostic::error(
                    "HCL039",
                    fname,
                    mc.span,
                    format!("module source {:?} not found in module library", mc.source),
                ));
                continue;
            }
        };
        // Evaluate inputs in the parent scope.
        let scope = Scope {
            vars: &vars,
            locals: &locals,
            count_index: None,
            each: None,
            resolver: data_resolver,
            bindings: Vec::new(),
        };
        let mut child_inputs = BTreeMap::new();
        let mut input_err = false;
        for a in &mc.inputs {
            match eval(&a.value, &scope) {
                Ok(v) => {
                    child_inputs.insert(a.name.clone(), v);
                }
                Err(e) => {
                    // Module inputs referencing computed resource attrs are a
                    // real Terraform pattern, but supporting them requires
                    // module-boundary deferral; we report a clear error
                    // instead (documented limitation).
                    diags.push(Diagnostic::error(
                        "HCL040",
                        fname,
                        e.span(),
                        format!(
                            "module {:?} input {:?} cannot be evaluated at plan time: {e}",
                            mc.name, a.name
                        ),
                    ));
                    input_err = true;
                }
            }
        }
        if input_err {
            continue;
        }
        let child_file = format!("{}:{}", mc.source, mc.name);
        let child_program = match parse(source, &child_file).and_then(Program::from_file) {
            Ok(p) => p,
            Err(ds) => {
                diags.extend(ds);
                continue;
            }
        };
        let mut child_path = module_path.to_vec();
        child_path.push(mc.name.clone());
        // Child instances and outputs accumulate into the same manifest; the
        // module path disambiguates addresses.
        let mut child_manifest = Manifest::default();
        expand_into(
            &child_program,
            &child_inputs,
            modules,
            data_resolver,
            &child_path,
            &mut child_manifest,
            diags,
            depth + 1,
        );
        let child = child_manifest.instances.make_mut();
        manifest.instances.make_mut().append(child);
        manifest.warnings.extend(child_manifest.warnings);
        for (name, out) in child_manifest.outputs {
            manifest
                .outputs
                .insert(format!("{}.{}", mc.name, name), out);
        }
    }

    // 6. Outputs.
    for o in &program.outputs {
        let scope = Scope {
            vars: &vars,
            locals: &locals,
            count_index: None,
            each: None,
            resolver: data_resolver,
            bindings: Vec::new(),
        };
        match eval(&o.value, &scope) {
            Ok(v) => {
                manifest
                    .outputs
                    .insert(o.name.clone(), OutputValue::Known(v));
            }
            Err(e) if e.is_deferred() => {
                manifest.outputs.insert(
                    o.name.clone(),
                    OutputValue::Deferred {
                        expr: o.value.clone(),
                        env: EvalEnv {
                            vars: vars.clone(),
                            locals: locals.clone(),
                            count_index: None,
                            each: None,
                        },
                        module_path: module_path.to_vec(),
                        span: o.span,
                    },
                );
            }
            Err(e) => diags.push(Diagnostic::error(
                "HCL041",
                fname,
                e.span(),
                format!("cannot evaluate output {:?}: {e}", o.name),
            )),
        }
    }

    RootExpansion {
        file,
        vars,
        locals,
        block_ranges,
    }
}

/// Whether a reference points at a resource (as opposed to scope/builtin
/// namespaces).
pub fn is_resource_ref(r: &Reference) -> bool {
    !matches!(
        r.root(),
        "var" | "local" | "count" | "each" | "data" | "module" | "path" | "terraform"
    )
}

/// The instances a resource block expands to.
enum ExpansionKeys {
    Single,
    /// `count = n`.
    Count(u32),
    /// `for_each`: each key with its value.
    Each(Vec<(String, Value)>),
}

impl ExpansionKeys {
    fn len(&self) -> usize {
        match self {
            ExpansionKeys::Single => 1,
            ExpansionKeys::Count(n) => *n as usize,
            ExpansionKeys::Each(entries) => entries.len(),
        }
    }

    /// The `at`-th instance: its `count.index`, its `each`, its address key.
    fn key(&self, at: usize) -> (Option<u32>, Option<(String, Value)>, ResourceKey) {
        match self {
            ExpansionKeys::Single => (None, None, ResourceKey::None),
            ExpansionKeys::Count(_) => (Some(at as u32), None, ResourceKey::Index(at as u32)),
            ExpansionKeys::Each(entries) => {
                let (key, value) = &entries[at];
                let each = (key.clone(), value.clone());
                (None, Some(each), ResourceKey::Key(key.clone()))
            }
        }
    }
}

fn expansion_keys(
    rb: &ResourceBlock,
    env: &EvalEnv,
    resolver: &dyn Resolver,
    fname: &str,
    diags: &mut Diagnostics,
) -> Option<ExpansionKeys> {
    if let Some(count_expr) = &rb.count {
        let scope = env.scope(resolver);
        match eval(count_expr, &scope) {
            Ok(v) => match v.as_int() {
                Some(n) if n >= 0 => Some(ExpansionKeys::Count(n as u32)),
                _ => {
                    diags.push(Diagnostic::error(
                        "HCL042",
                        fname,
                        count_expr.span(),
                        format!("count must be a non-negative integer, got {v}"),
                    ));
                    None
                }
            },
            Err(e) => {
                diags.push(Diagnostic::error(
                    "HCL042",
                    fname,
                    e.span(),
                    format!(
                        "count of {}.{} must be known at plan time: {e}",
                        rb.rtype, rb.name
                    ),
                ));
                None
            }
        }
    } else if let Some(fe) = &rb.for_each {
        let scope = env.scope(resolver);
        match eval(fe, &scope) {
            Ok(Value::Map(m)) => Some(ExpansionKeys::Each(m.into_iter().collect())),
            Ok(Value::List(items)) => {
                let mut out = Vec::new();
                for item in items {
                    match item {
                        Value::Str(s) => out.push((s.clone(), Value::Str(s))),
                        other => {
                            diags.push(Diagnostic::error(
                                "HCL043",
                                fname,
                                fe.span(),
                                format!(
                                    "for_each list elements must be strings, got {}",
                                    other.kind()
                                ),
                            ));
                            return None;
                        }
                    }
                }
                Some(ExpansionKeys::Each(out))
            }
            Ok(other) => {
                diags.push(Diagnostic::error(
                    "HCL043",
                    fname,
                    fe.span(),
                    format!(
                        "for_each must be a map or list of strings, got {}",
                        other.kind()
                    ),
                ));
                None
            }
            Err(e) => {
                diags.push(Diagnostic::error(
                    "HCL043",
                    fname,
                    e.span(),
                    format!(
                        "for_each of {}.{} must be known at plan time: {e}",
                        rb.rtype, rb.name
                    ),
                ));
                None
            }
        }
    } else {
        Some(ExpansionKeys::Single)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::MapResolver;
    use cloudless_types::value::vmap;
    use cloudless_types::ResourceKey;

    fn load(src: &str) -> Program {
        Program::from_file(parse(src, "main.tf").expect("parse")).expect("analyze")
    }

    fn expand_simple(src: &str) -> Manifest {
        expand_with(src, BTreeMap::new())
    }

    fn expand_with(src: &str, inputs: BTreeMap<String, Value>) -> Manifest {
        let p = load(src);
        let mut data = MapResolver::new();
        data.insert(
            "data.aws_region.current",
            vmap([("name", Value::from("us-east-1"))]),
        );
        expand(&p, &inputs, &ModuleLibrary::new(), &data).expect("expand")
    }

    #[test]
    fn classify_figure2() {
        let p = load(
            r#"
data "aws_region" "current" {}
variable "vmName" {
  type    = string
  default = "cloudless"
}
resource "aws_network_interface" "n1" {
  name     = "example-nic"
  location = data.aws_region.current.name
}
resource "aws_virtual_machine" "vm1" {
  name    = var.vmName
  nic_ids = [aws_network_interface.n1.id]
}
"#,
        );
        assert_eq!(p.data.len(), 1);
        assert_eq!(p.variables.len(), 1);
        assert_eq!(p.variables[0].ty.as_deref(), Some("string"));
        assert_eq!(p.resources.len(), 2);
        assert!(p.resource("aws_virtual_machine", "vm1").is_some());
    }

    #[test]
    fn expand_figure2_defers_nic_id() {
        let m = expand_simple(
            r#"
data "aws_region" "current" {}
variable "vmName" { default = "cloudless" }
resource "aws_network_interface" "n1" {
  name     = "example-nic"
  location = data.aws_region.current.name
}
resource "aws_virtual_machine" "vm1" {
  name    = var.vmName
  nic_ids = [aws_network_interface.n1.id]
}
"#,
        );
        assert_eq!(m.instances.len(), 2);
        let nic = &m.instances[0];
        assert_eq!(nic.attrs.get("location"), Some(&Value::from("us-east-1")));
        let vm = &m.instances[1];
        assert_eq!(vm.attrs.get("name"), Some(&Value::from("cloudless")));
        assert_eq!(vm.deferred.len(), 1);
        assert_eq!(vm.deferred[0].name, "nic_ids");
        assert_eq!(
            vm.deferred[0].waiting_on[0].dotted(),
            "aws_network_interface.n1.id"
        );
        // dependency edge extracted
        assert!(vm.depends_on.contains(&nic.addr));
    }

    #[test]
    fn count_expansion() {
        let m = expand_simple(
            r#"
resource "aws_vm" "web" {
  count = 3
  name  = "web-${count.index}"
}
"#,
        );
        assert_eq!(m.instances.len(), 3);
        assert_eq!(m.instances[0].addr.key, ResourceKey::Index(0));
        assert_eq!(
            m.instances[2].attrs.get("name"),
            Some(&Value::from("web-2"))
        );
    }

    #[test]
    fn for_each_expansion_map_and_list() {
        let m = expand_simple(
            r#"
resource "aws_subnet" "s" {
  for_each = { a = "10.0.1.0/24", b = "10.0.2.0/24" }
  cidr     = each.value
  tag      = each.key
}
resource "aws_bucket" "b" {
  for_each = ["logs", "media"]
  name     = each.key
}
"#,
        );
        assert_eq!(m.instances.len(), 4);
        let sa = m
            .instances
            .iter()
            .find(|i| i.addr.key == ResourceKey::Key("a".into()))
            .unwrap();
        assert_eq!(sa.attrs.get("cidr"), Some(&Value::from("10.0.1.0/24")));
        let logs = m
            .instances
            .iter()
            .find(|i| i.addr.name == "b" && i.addr.key == ResourceKey::Key("logs".into()))
            .unwrap();
        assert_eq!(logs.attrs.get("name"), Some(&Value::from("logs")));
    }

    #[test]
    fn locals_fixpoint_and_cycle() {
        let m = expand_simple(
            r#"
locals {
  b = "${local.a}-suffix"
  a = "base"
}
resource "aws_vm" "v" { name = local.b }
"#,
        );
        assert_eq!(
            m.instances[0].attrs.get("name"),
            Some(&Value::from("base-suffix"))
        );

        let p = load(
            r#"
locals {
  x = local.y
  y = local.x
}
"#,
        );
        let err = expand(
            &p,
            &BTreeMap::new(),
            &ModuleLibrary::new(),
            &MapResolver::new(),
        )
        .unwrap_err();
        assert!(err.has_errors());
    }

    #[test]
    fn variable_type_enforced_on_inputs_and_defaults() {
        let p = load(r#"variable "n" { type = number }"#);
        let mut inputs = BTreeMap::new();
        inputs.insert("n".to_owned(), Value::from("not-a-number"));
        let err = expand(&p, &inputs, &ModuleLibrary::new(), &MapResolver::new()).unwrap_err();
        assert!(err.items.iter().any(|d| d.code == "HCL044"), "{err}");

        let p = load(r#"variable "n" { type = number default = "oops" }"#);
        let err = expand(
            &p,
            &BTreeMap::new(),
            &ModuleLibrary::new(),
            &MapResolver::new(),
        )
        .unwrap_err();
        assert!(err.items.iter().any(|d| d.code == "HCL044"), "{err}");

        // matching types pass
        let p = load(r#"variable "n" { type = number default = 4 }"#);
        assert!(expand(
            &p,
            &BTreeMap::new(),
            &ModuleLibrary::new(),
            &MapResolver::new()
        )
        .is_ok());
    }

    #[test]
    fn missing_required_variable() {
        let p = load(r#"variable "x" {}"#);
        let err = expand(
            &p,
            &BTreeMap::new(),
            &ModuleLibrary::new(),
            &MapResolver::new(),
        )
        .unwrap_err();
        assert!(err.items[0].message.contains("required variable"));
    }

    #[test]
    fn undeclared_reference_is_error() {
        let p = load(r#"resource "aws_vm" "v" { nic = aws_nic.ghost.id }"#);
        let err = expand(
            &p,
            &BTreeMap::new(),
            &ModuleLibrary::new(),
            &MapResolver::new(),
        )
        .unwrap_err();
        assert!(err
            .items
            .iter()
            .any(|d| d.message.contains("undeclared resource")));
    }

    #[test]
    fn depends_on_explicit() {
        let m = expand_simple(
            r#"
resource "aws_vpc" "v" { cidr = "10.0.0.0/16" }
resource "aws_vm" "w" {
  depends_on = [aws_vpc.v]
  name = "w"
}
"#,
        );
        let vm = m.instance(&"aws_vm.w".parse().unwrap()).unwrap();
        assert!(vm.depends_on.contains(&"aws_vpc.v".parse().unwrap()));
    }

    #[test]
    fn dependency_on_counted_block_covers_all_instances() {
        let m = expand_simple(
            r#"
resource "aws_nic" "n" {
  count = 2
  name  = "n-${count.index}"
}
resource "aws_vm" "v" {
  nics = [aws_nic.n[0].id, aws_nic.n[1].id]
}
"#,
        );
        let vm = m.instance(&"aws_vm.v".parse().unwrap()).unwrap();
        assert_eq!(vm.depends_on.len(), 2);
    }

    #[test]
    fn modules_expand_with_prefixed_addresses() {
        let mut lib = ModuleLibrary::new();
        lib.insert(
            "./modules/network",
            r#"
variable "cidr" {}
resource "aws_vpc" "main" { cidr = var.cidr }
output "vpc_cidr" { value = var.cidr }
"#,
        );
        let p = load(
            r#"
module "net" {
  source = "./modules/network"
  cidr   = "10.1.0.0/16"
}
"#,
        );
        let m = expand(&p, &BTreeMap::new(), &lib, &MapResolver::new()).expect("expand");
        assert_eq!(m.instances.len(), 1);
        assert_eq!(m.instances[0].addr.to_string(), "module.net.aws_vpc.main");
        assert_eq!(
            m.instances[0].attrs.get("cidr"),
            Some(&Value::from("10.1.0.0/16"))
        );
        match m.outputs.get("net.vpc_cidr") {
            Some(OutputValue::Known(v)) => assert_eq!(v, &Value::from("10.1.0.0/16")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn module_missing_source_errors() {
        let p = load(r#"module "net" { source = "nowhere" }"#);
        let err = expand(
            &p,
            &BTreeMap::new(),
            &ModuleLibrary::new(),
            &MapResolver::new(),
        )
        .unwrap_err();
        assert!(err.items[0].message.contains("not found in module library"));
    }

    #[test]
    fn nested_blocks_become_list_attrs() {
        let m = expand_simple(
            r#"
resource "aws_security_group" "sg" {
  name = "web"
  ingress {
    port     = 80
    protocol = "tcp"
  }
  ingress {
    port     = 443
    protocol = "tcp"
  }
}
"#,
        );
        let sg = &m.instances[0];
        let ingress = sg.attrs.get("ingress").unwrap().as_list().unwrap();
        assert_eq!(ingress.len(), 2);
        assert_eq!(ingress[1].get("port"), Some(&Value::from(443i64)));
    }

    #[test]
    fn lifecycle_meta_args() {
        let m = expand_simple(
            r#"
resource "aws_db" "d" {
  name = "x"
  lifecycle {
    prevent_destroy       = true
    create_before_destroy = true
  }
}
"#,
        );
        assert!(m.instances[0].lifecycle.prevent_destroy);
        assert!(m.instances[0].lifecycle.create_before_destroy);
    }

    #[test]
    fn count_and_for_each_conflict() {
        let f = parse(
            r#"resource "aws_vm" "v" { count = 1 for_each = ["a"] }"#,
            "t",
        )
        .unwrap();
        assert!(Program::from_file(f).is_err());
    }

    #[test]
    fn duplicate_resource_rejected() {
        let f = parse(
            r#"
resource "aws_vm" "v" { name = "a" }
resource "aws_vm" "v" { name = "b" }
"#,
            "t",
        )
        .unwrap();
        assert!(Program::from_file(f).is_err());
    }

    #[test]
    fn a_repeated_argument_is_refused_where_it_repeats() {
        let src = "resource \"aws_s3_bucket\" \"b\" {\n  bucket = \"one\"\n  bucket = \"two\"\n\
                   ingress {\n    port = 1\n    port = 2\n  }\n}\n";
        let err = Program::from_file(parse(src, "main.tf").unwrap()).unwrap_err();
        let found: Vec<_> = err
            .iter()
            .map(|d| (d.code.as_str(), d.span.start.line))
            .collect();
        assert_eq!(found, [("HCL045", 3), ("HCL045", 6)], "{err}");
        assert!(
            err.to_string().contains("first set at main.tf:2:3"),
            "{err}"
        );
        // the same name in two nested blocks is two blocks, not a repeat
        let src =
            "resource \"aws_sg\" \"g\" {\n  ingress { port = 1 }\n  ingress { port = 2 }\n}\n";
        assert!(Program::from_file(parse(src, "main.tf").unwrap()).is_ok());
    }

    #[test]
    fn outputs_can_defer() {
        let m = expand_simple(
            r#"
resource "aws_vm" "v" { name = "x" }
output "vm_id" { value = aws_vm.v.id }
output "static" { value = "s" }
"#,
        );
        assert!(matches!(
            m.outputs.get("vm_id"),
            Some(OutputValue::Deferred { .. })
        ));
        assert!(
            matches!(m.outputs.get("static"), Some(OutputValue::Known(v)) if v == &Value::from("s"))
        );
    }

    #[test]
    fn provider_config_captured() {
        let m = expand_simple(
            r#"
provider "aws" { region = "us-west-2" }
resource "aws_vm" "v" { name = "x" }
"#,
        );
        assert_eq!(
            m.provider_config.get("aws").and_then(|a| a.get("region")),
            Some(&Value::from("us-west-2"))
        );
    }

    #[test]
    fn unknown_input_warns() {
        let mut inputs = BTreeMap::new();
        inputs.insert("typo".to_owned(), Value::from("x"));
        let m = expand_with(r#"resource "aws_vm" "v" { name = "x" }"#, inputs);
        assert_eq!(m.warnings.len(), 1);
    }

    #[test]
    fn count_zero_produces_nothing() {
        let m = expand_simple(
            r#"
variable "enabled" { default = false }
resource "aws_vm" "v" {
  count = var.enabled ? 1 : 0
  name  = "x"
}
"#,
        );
        assert!(m.instances.is_empty());
    }
}
