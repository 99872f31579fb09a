//! Frozen workload inputs: programs, edit scripts and drift scripts.
//!
//! Everything here is a pure function of its arguments and a seed, driven
//! by an in-file splitmix64, so the benchmark's inputs cannot move when
//! `vendor/rand` or `crates/bench` change. `tests::inputs_are_pinned` pins
//! the FNV-64 of every generated artifact for two seeds.

use std::fmt::Write as _;

/// FNV-1a, 64 bit: the checksum used for inputs, session files and plans.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// splitmix64 (Steele, Lea, Flood 2014).
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`). The modulo bias is below 2^-40 for
    /// every range used here.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// `k` distinct values from `0..n`, in draw order.
    pub fn distinct(&mut self, k: usize, n: usize) -> Vec<usize> {
        assert!(k <= n, "cannot draw {k} distinct values from 0..{n}");
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let v = self.range(0, n);
            if seen.insert(v) {
                out.push(v);
            }
        }
        out
    }
}

const TYPES: [(&str, &str); 5] = [
    ("aws_s3_bucket", "bucket"),
    ("aws_security_group", "name"),
    ("aws_network_interface", "name"),
    ("aws_virtual_machine", "name"),
    ("aws_db_instance", "name"),
];

/// One block of the layered program. `rev` and `rewritten` carry the edits
/// applied so far, so the text is always re-derivable from the spec.
#[derive(Debug, Clone)]
pub struct LayeredBlock {
    pub rtype: &'static str,
    pub name_attr: &'static str,
    /// Dependencies into the previous layer, as rendered references.
    pub deps: Vec<String>,
    /// 0 = as generated; each edit bumps it and so changes the name value.
    pub rev: u32,
    /// Body rewritten (extra comment lines) rather than one value tweaked.
    pub rewritten: bool,
}

/// The layered random DAG of the scale experiments, frozen: `n` resources
/// in 64 layers of width `max(8, n/64)`, one block per resource, each
/// depending on 1–3 blocks of the previous layer. `tail` holds whole extra
/// blocks (fleets, structural edits) rendered after the layered part.
#[derive(Debug, Clone)]
pub struct Estate {
    pub blocks: Vec<LayeredBlock>,
    pub tail: Vec<String>,
}

impl Estate {
    pub fn layered(n: usize, seed: u64) -> Estate {
        let mut rng = SplitMix64::new(seed ^ 0x1A7E_8ED0);
        let width = (n / 64).max(8);
        let mut blocks: Vec<LayeredBlock> = Vec::with_capacity(n);
        for i in 0..n {
            let layer = i / width;
            let (rtype, name_attr) = TYPES[rng.range(0, TYPES.len())];
            let mut deps = Vec::new();
            if layer > 0 {
                let prev_start = (layer - 1) * width;
                let prev_end = (layer * width).min(i);
                for _ in 0..rng.range(1, 4) {
                    let d = rng.range(prev_start, prev_end);
                    deps.push(format!("{}.r{d}", blocks[d].rtype));
                }
                deps.sort();
                deps.dedup();
            }
            blocks.push(LayeredBlock {
                rtype,
                name_attr,
                deps,
                rev: 0,
                rewritten: false,
            });
        }
        Estate {
            blocks,
            tail: Vec::new(),
        }
    }

    /// The name value block `i` currently declares.
    pub fn name_value(&self, i: usize) -> String {
        match self.blocks[i].rev {
            0 => format!("r-{i}"),
            rev => format!("r-{i}-v{rev}"),
        }
    }

    pub fn addr(&self, i: usize) -> String {
        format!("{}.r{i}", self.blocks[i].rtype)
    }

    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.blocks.len() * 150);
        for (i, b) in self.blocks.iter().enumerate() {
            let _ = write!(
                out,
                "resource \"{}\" \"r{i}\" {{\n  {} = \"{}\"",
                b.rtype,
                b.name_attr,
                self.name_value(i)
            );
            if b.rtype == "aws_db_instance" {
                out.push_str("\n  engine = \"postgres\"");
            }
            if b.rewritten {
                let _ = write!(
                    out,
                    "\n  # block rewritten, revision {}\n  # second comment line",
                    b.rev
                );
            }
            if !b.deps.is_empty() {
                let _ = write!(out, "\n  depends_on = [{}]", b.deps.join(", "));
            }
            out.push_str("\n}\n");
        }
        for t in &self.tail {
            out.push_str(t);
        }
        out
    }

    /// Change one attribute value of block `i`.
    pub fn tweak(&mut self, i: usize) {
        self.blocks[i].rev += 1;
    }

    /// Rewrite the body of block `i`: new value plus comment lines.
    pub fn rewrite(&mut self, i: usize) {
        self.blocks[i].rev += 1;
        self.blocks[i].rewritten = true;
    }

    /// Edit every 100th block at once.
    pub fn cross(&mut self) {
        for i in (0..self.blocks.len()).step_by(100) {
            self.blocks[i].rev += 1;
        }
    }
}

/// A standalone bucket block, the unit of a structural edit.
pub fn extra_block(k: usize) -> String {
    format!("resource \"aws_s3_bucket\" \"extra{k}\" {{\n  bucket = \"extra-{k}\"\n}}\n")
}

/// The only program shape with `count`, `for_each` and interpolation: one
/// VM fleet and one bucket set keyed by a literal list.
pub fn fleet_blocks(fleet: usize, keys: usize) -> String {
    let mut out = format!(
        "resource \"aws_virtual_machine\" \"fleet\" {{\n  count = {fleet}\n  name  = \"fleet-${{count.index}}\"\n}}\n"
    );
    out.push_str("resource \"aws_s3_bucket\" \"shard\" {\n  for_each = [");
    for k in 0..keys {
        if k > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"k{k}\"");
    }
    out.push_str("]\n  bucket   = \"shard-${each.key}\"\n}\n");
    out
}

/// A quota-fitting three-tier program for the fidelity check against the
/// shipped binary (default quotas, at most `vms` VMs).
pub fn webapp(vms: usize) -> String {
    format!(
        r#"resource "aws_vpc" "main" {{
  cidr_block = "10.0.0.0/16"
}}
resource "aws_subnet" "app" {{
  vpc_id     = aws_vpc.main.id
  cidr_block = "10.0.1.0/24"
}}
resource "aws_security_group" "web" {{
  name = "web"
}}
resource "aws_virtual_machine" "web" {{
  count      = {vms}
  name       = "web-${{count.index}}"
  depends_on = [aws_subnet.app, aws_security_group.web]
}}
resource "aws_s3_bucket" "assets" {{
  for_each = ["static", "uploads", "logs"]
  bucket   = "webapp-${{each.key}}"
}}
resource "aws_db_instance" "main" {{
  name       = "webapp-db"
  engine     = "postgres"
  depends_on = [aws_subnet.app]
}}
"#
    )
}

/// One save of the watch stream. The class is a property of the input,
/// whichever path the engine then takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaveClass {
    Block,
    Cross,
    Structural,
    Typo,
    Fix,
}

impl SaveClass {
    pub fn name(self) -> &'static str {
        match self {
            SaveClass::Block => "block",
            SaveClass::Cross => "cross",
            SaveClass::Structural => "structural",
            SaveClass::Typo => "typo",
            SaveClass::Fix => "fix",
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Save {
    /// Tweak one attribute of this block.
    Tweak(usize),
    /// Rewrite the body of this block.
    Rewrite(usize),
    Cross,
    /// Append `extra_block(k)`.
    Append(usize),
    /// Remove the last appended block.
    RemoveLast,
    /// Save a file with a syntax error inside this block; the estate itself
    /// is unchanged.
    Typo(usize),
    /// Save the estate as it was before the typo.
    Fix,
}

impl Save {
    pub fn class(&self) -> SaveClass {
        match self {
            Save::Tweak(_) | Save::Rewrite(_) => SaveClass::Block,
            Save::Cross => SaveClass::Cross,
            Save::Append(_) | Save::RemoveLast => SaveClass::Structural,
            Save::Typo(_) => SaveClass::Typo,
            Save::Fix => SaveClass::Fix,
        }
    }

    /// Apply the save to the estate and return the text that is written.
    pub fn apply(&self, estate: &mut Estate) -> String {
        match self {
            Save::Tweak(i) => estate.tweak(*i),
            Save::Rewrite(i) => estate.rewrite(*i),
            Save::Cross => estate.cross(),
            Save::Append(k) => estate.tail.push(extra_block(*k)),
            Save::RemoveLast => {
                estate.tail.pop();
            }
            Save::Typo(i) => {
                // drop the closing quote of block i's name value
                let needle = format!("\"{}\"", estate.name_value(*i));
                let broken = format!("\"{}", estate.name_value(*i));
                return estate.render().replacen(&needle, &broken, 1);
            }
            Save::Fix => {}
        }
        estate.render()
    }
}

/// Shape of one round of the watch stream.
#[derive(Debug, Clone, Copy)]
pub struct StreamShape {
    pub block: usize,
    pub cross: usize,
    /// Structural saves: append, remove, append, remove, …
    pub structural: usize,
    /// Typos, each followed by its fix.
    pub typo: usize,
}

impl StreamShape {
    pub fn saves(&self) -> usize {
        self.block + self.cross + self.structural + 2 * self.typo
    }
}

/// One round of saves over an estate of `n` layered blocks. Block saves
/// take one block from each of `shape.block` equal slices of the program,
/// in shuffled order: uniform over the depth of the DAG by construction, so
/// the median replan does not hang on which depths a seed happened to draw
/// (a last-layer edit replans one block, a layer-0 edit most of the world).
/// The rarer classes are spread evenly through the stream, and `round`
/// keeps appended block names distinct between rounds.
pub fn watch_round(n: usize, shape: StreamShape, seed: u64, round: usize) -> Vec<Save> {
    let mut rng = SplitMix64::new(seed ^ 0x57A7_C4ED ^ ((round as u64) << 32));
    let structural = (0..shape.structural).map(|s| match s % 2 {
        0 => Save::Append(round * shape.structural + s),
        _ => Save::RemoveLast,
    });
    let queues: [Vec<Save>; 3] = [
        structural.collect(),
        vec![Save::Cross; shape.cross],
        (0..shape.typo)
            .map(|_| Save::Typo(rng.range(0, n)))
            .collect(),
    ];
    // round-robin over the classes so none clusters at one end
    let longest = queues.iter().map(Vec::len).max().unwrap_or(0);
    let rare: Vec<&Save> = (0..longest)
        .flat_map(|k| queues.iter().filter_map(move |q| q.get(k)))
        .collect();

    let mut out = Vec::with_capacity(shape.saves());
    let push_rare = |out: &mut Vec<Save>, save: &Save| {
        out.push(save.clone());
        if matches!(save, Save::Typo(_)) {
            out.push(Save::Fix);
        }
    };
    let mut blocks: Vec<usize> = (0..shape.block)
        .map(|k| rng.range(k * n / shape.block, (k + 1) * n / shape.block))
        .collect();
    for k in (1..blocks.len()).rev() {
        blocks.swap(k, rng.range(0, k + 1));
    }
    let mut placed = 0;
    for (b, i) in blocks.into_iter().enumerate() {
        out.push(match rng.range(0, 2) {
            0 => Save::Tweak(i),
            _ => Save::Rewrite(i),
        });
        // rare save j follows block save ⌈(j+1)·block/(rares+1)⌉
        while placed < rare.len() && (b + 1) * (rare.len() + 1) >= (placed + 1) * shape.block {
            push_rare(&mut out, rare[placed]);
            placed += 1;
        }
    }
    for save in &rare[placed..] {
        push_rare(&mut out, save);
    }
    out
}

/// The blocks `edits` single-attribute edits touch, uniform over depth.
pub fn reapply_edits(n: usize, edits: usize, seed: u64, round: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ 0x00ED_17A9 ^ ((round as u64) << 32));
    rng.distinct(edits, n)
}

/// Shape of the out-of-band drift of one reconcile iteration.
#[derive(Debug, Clone, Copy)]
pub struct DriftShape {
    pub fleet: usize,
    pub keys: usize,
    pub attr_updates: usize,
    /// The last this-many fleet members are deleted.
    pub fleet_deleted: usize,
    pub keys_deleted: usize,
    pub rogues: usize,
}

impl DriftShape {
    /// Activity-log events the drift leaves behind.
    pub fn events(&self) -> usize {
        self.attr_updates + self.fleet_deleted + self.keys_deleted + self.rogues
    }

    /// Edit ops a minimal reconciler emits: one `SetAttr` per update, one
    /// `SetCount`, one `RemoveForEachKeys`, one `AddBlock` per rogue.
    pub fn oracle_ops(&self) -> usize {
        self.attr_updates + 2 + self.rogues
    }
}

/// One scripted out-of-band mutation, by address (the harness resolves
/// addresses to cloud ids against the converged state).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mutation {
    Update {
        addr: String,
        attr: &'static str,
        value: String,
    },
    Delete {
        addr: String,
    },
    Rogue {
        bucket: String,
    },
}

pub fn drift_script(estate: &Estate, shape: DriftShape, seed: u64, round: usize) -> Vec<Mutation> {
    let mut rng = SplitMix64::new(seed ^ 0x0D21_F7ED ^ ((round as u64) << 32));
    let mut out = Vec::with_capacity(shape.events());
    for i in rng.distinct(shape.attr_updates, estate.blocks.len()) {
        out.push(Mutation::Update {
            addr: estate.addr(i),
            attr: estate.blocks[i].name_attr,
            value: format!("r-{i}-drift{round}"),
        });
    }
    for m in shape.fleet - shape.fleet_deleted..shape.fleet {
        out.push(Mutation::Delete {
            addr: format!("aws_virtual_machine.fleet[{m}]"),
        });
    }
    let mut keys = rng.distinct(shape.keys_deleted, shape.keys);
    keys.sort_unstable();
    for k in keys {
        out.push(Mutation::Delete {
            addr: format!("aws_s3_bucket.shard[\"k{k}\"]"),
        });
    }
    for r in 0..shape.rogues {
        out.push(Mutation::Rogue {
            bucket: format!("rogue-{seed}-{round}-{r}"),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn debug_fnv<T: std::fmt::Debug>(v: &T) -> u64 {
        fnv64(format!("{v:?}").as_bytes())
    }

    const SHAPE: StreamShape = StreamShape {
        block: 100,
        cross: 5,
        structural: 3,
        typo: 2,
    };
    const DRIFT: DriftShape = DriftShape {
        fleet: 2000,
        keys: 500,
        attr_updates: 100,
        fleet_deleted: 200,
        keys_deleted: 50,
        rogues: 10,
    };

    /// `[layered 2000, fleet, webapp, watch round, reapply edits, drift]`.
    fn fingerprints(seed: u64) -> [u64; 6] {
        let estate = Estate::layered(2000, seed);
        [
            fnv64(estate.render().as_bytes()),
            fnv64(fleet_blocks(DRIFT.fleet, DRIFT.keys).as_bytes()),
            fnv64(webapp(40).as_bytes()),
            debug_fnv(&watch_round(2000, SHAPE, seed, 1)),
            debug_fnv(&reapply_edits(2000, 4, seed, 1)),
            debug_fnv(&drift_script(&estate, DRIFT, seed, 1)),
        ]
    }

    #[test]
    fn inputs_are_pinned() {
        assert_eq!(
            fingerprints(42),
            PINNED_42,
            "seed 42: {:#x?}",
            fingerprints(42)
        );
        assert_eq!(fingerprints(7), PINNED_7, "seed 7: {:#x?}", fingerprints(7));
    }

    const PINNED_42: [u64; 6] = [
        0xed89511af6b07242,
        0xfb02e732ca887dc9,
        0x4a0a590df5830966,
        0xf488de6f0afa6a9a,
        0x8694d0bdf6e90495,
        0xc43fe465930184d1,
    ];
    const PINNED_7: [u64; 6] = [
        0x8cc645814611c911,
        0xfb02e732ca887dc9,
        0x4a0a590df5830966,
        0xf0d6d44f085eb0be,
        0xfbc14caa34857e80,
        0x6cbb370251bd4205,
    ];

    #[test]
    fn splitmix_matches_reference_vector() {
        // first outputs for seed 1234567, from the reference implementation
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn watch_round_has_the_declared_shape() {
        let saves = watch_round(2000, SHAPE, 42, 0);
        assert_eq!(saves.len(), SHAPE.saves());
        let count = |c: SaveClass| saves.iter().filter(|s| s.class() == c).count();
        assert_eq!(count(SaveClass::Block), 100);
        assert_eq!(count(SaveClass::Cross), 5);
        assert_eq!(count(SaveClass::Structural), 3);
        assert_eq!(count(SaveClass::Typo), 2);
        assert_eq!(count(SaveClass::Fix), 2);
        // every typo is directly followed by its fix
        for (i, s) in saves.iter().enumerate() {
            if matches!(s, Save::Typo(_)) {
                assert!(matches!(saves[i + 1], Save::Fix));
            }
        }
        // the rare classes are spread out, not clustered at one end
        let first_rare = saves.iter().position(|s| s.class() != SaveClass::Block);
        let last_rare = saves.iter().rposition(|s| s.class() != SaveClass::Block);
        assert_eq!(first_rare, Some(10));
        assert!(last_rare.unwrap() > 100);
    }

    #[test]
    fn edits_are_cumulative_and_typos_leave_the_estate_alone() {
        let mut e = Estate::layered(200, 42);
        let before = e.render();
        let broken = Save::Typo(17).apply(&mut e);
        assert_ne!(broken, before);
        assert_eq!(Save::Fix.apply(&mut e), before);
        Save::Tweak(17).apply(&mut e);
        let twice = Save::Rewrite(17).apply(&mut e);
        assert!(
            twice.contains("\"r-17-v2\""),
            "second edit builds on the first"
        );
        assert!(twice.contains("# block rewritten, revision 2"));
        let grown = Save::Append(3).apply(&mut e);
        assert!(grown.ends_with(&extra_block(3)));
        assert_eq!(Save::RemoveLast.apply(&mut e), twice);
    }

    #[test]
    fn drift_script_matches_its_shape() {
        let estate = Estate::layered(2000, 42);
        let script = drift_script(&estate, DRIFT, 42, 0);
        assert_eq!(script.len(), DRIFT.events());
        assert_eq!(DRIFT.events(), 360);
        assert_eq!(DRIFT.oracle_ops(), 112);
        let again = drift_script(&estate, DRIFT, 42, 0);
        assert_eq!(script, again);
        assert_ne!(script, drift_script(&estate, DRIFT, 42, 1));
    }
}
