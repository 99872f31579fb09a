//! The three mutators of the never-panic suites (this crate's `mutation.rs`
//! and `crates/hcl/tests/mutation.rs`): bit flips, truncations and splices
//! (a range deleted, duplicated, or overwritten with bytes that matter to
//! the grammar under test).

use proptest::prelude::*;

/// One way to damage a document; positions are taken modulo its length.
#[derive(Debug, Clone)]
pub enum Damage {
    Flip { at: usize, bit: u8 },
    Truncate { at: usize },
    Delete { at: usize, len: usize },
    Duplicate { at: usize, len: usize },
    Overwrite { at: usize, with: Vec<u8> },
}

impl Damage {
    pub fn apply(&self, doc: &[u8]) -> Vec<u8> {
        let n = doc.len();
        let mut out = doc.to_vec();
        match self {
            Damage::Flip { at, bit } => out[at % n] ^= 1 << (bit % 8),
            Damage::Truncate { at } => out.truncate(at % n),
            Damage::Delete { at, len } => {
                let at = at % n;
                out.drain(at..(at + len).min(n));
            }
            Damage::Duplicate { at, len } => {
                let at = at % n;
                let copy = doc[at..(at + len).min(n)].to_vec();
                out.splice(at..at, copy);
            }
            Damage::Overwrite { at, with } => {
                let at = at % n;
                let end = (at + with.len()).min(n);
                out.splice(at..end, with.iter().copied());
            }
        }
        out
    }
}

/// Any one damage; `grammar` draws the bytes an overwrite splices in.
pub fn damage(grammar: impl Strategy<Value = Vec<u8>> + 'static) -> impl Strategy<Value = Damage> {
    let at = || 0usize..1 << 20;
    prop_oneof![
        (at(), any::<u8>()).prop_map(|(at, bit)| Damage::Flip { at, bit }),
        (at(), any::<u8>()).prop_map(|(at, bit)| Damage::Flip { at, bit }),
        at().prop_map(|at| Damage::Truncate { at }),
        (at(), 1usize..40).prop_map(|(at, len)| Damage::Delete { at, len }),
        (at(), 1usize..40).prop_map(|(at, len)| Damage::Duplicate { at, len }),
        (at(), grammar).prop_map(|(at, with)| Damage::Overwrite { at, with }),
    ]
}
