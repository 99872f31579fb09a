//! Inserting and removing nodes of a sealed [`Dag`] without sealing it
//! again.
//!
//! A [`Renumbering`] says where a splice puts every node: the nodes before
//! its first inserted or removed one keep their ids, and from there on each
//! old node moves to a new id or goes, and new nodes take ids of their own.
//! [`Dag::splice`] then renumbers the old rows through it, drops the edges
//! of removed nodes and appends each inserted node's in-edges, deduplicated
//! among themselves. An inserted node may depend on standing nodes and on
//! nodes inserted before it, nothing else: nothing standing depends on an
//! inserted node, so every new edge runs from an earlier node of the order
//! "standing nodes, then inserted ones in turn", and the graph stays
//! acyclic. That refusal is the cycle check, and it costs the edit.
//!
//! The spliced graph is the one [`crate::DagBuilder::seal`] builds from the
//! old graph's [`Dag::edges`], renumbered, followed by each inserted node's
//! in-edges in turn: successor rows are the same, and predecessor rows
//! hold the same nodes. A standing node's predecessor row keeps the old
//! graph's order, so it is `seal`'s row for row where the old graph lists
//! each node's predecessors in ascending order (as `seal` does from edges
//! added in `from` order, and as every splice of such a graph does).
//!
//! Cost: a row before the first inserted or removed node is read only when
//! it gains or loses an entry, or when some standing node's id changes (then
//! every successor row may name one). So an append or removal at the end of
//! the graph costs its edges plus a copy of the successor rows from the
//! first one it touches, and an insertion at the head renumbers everything.

use std::sync::Arc;

use crate::dag::{Dag, EdgeError, NodeId};

/// A node of a splice, by where it comes from; also the far end of an
/// inserted node's in-edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Origin {
    /// A node of the graph being spliced, by its id there.
    Standing(NodeId),
    /// The node a splice inserts as its `k`-th, counted in id order.
    Inserted(usize),
}

/// Where a splice puts each node of a graph of `old_len` nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Renumbering {
    old_len: usize,
    /// The first id an old node leaves or a new one takes; every id below
    /// it is the same node before and after.
    first: usize,
    /// Old node `first + k`'s new id (`None`: removed).
    to: Vec<Option<NodeId>>,
    /// What sits at new id `first + k`.
    places: Vec<Origin>,
    /// How many standing nodes change id, how many nodes go and how many
    /// come.
    moved: usize,
    removed: usize,
    inserted: usize,
}

impl Renumbering {
    /// The renumbering of a graph of `old_len` nodes that removes the old
    /// nodes `removed` and inserts new nodes at the ids `inserted` of the
    /// result, both in ascending order; the standing nodes keep their
    /// order. O(ids from the first removed or inserted one on).
    pub fn new(
        old_len: usize,
        removed: &[NodeId],
        inserted: &[NodeId],
    ) -> Result<Renumbering, EdgeError> {
        let first = [removed.first(), inserted.first()].into_iter().flatten();
        let first = first.map(|id| id.index()).min().unwrap_or(old_len);
        let unknown =
            |id: Option<&NodeId>| EdgeError::UnknownNode(id.copied().unwrap_or(NodeId(u32::MAX)));
        // every removed id is `first` or past it
        if first > old_len || removed.len() > old_len - first {
            return Err(unknown(removed.first().or(inserted.first())));
        }
        let len = old_len - removed.len() + inserted.len();
        let mut out = Renumbering {
            old_len,
            first,
            to: Vec::with_capacity(old_len - first),
            places: Vec::with_capacity(len - first),
            moved: 0,
            removed: removed.len(),
            inserted: 0,
        };
        let (mut gone, mut came) = (removed.iter().peekable(), inserted.iter().peekable());
        let mut old = first;
        while first + out.places.len() < len {
            let at = NodeId((first + out.places.len()) as u32);
            if came.next_if(|&&id| id == at).is_some() {
                out.places.push(Origin::Inserted(out.inserted));
                out.inserted += 1;
            } else if old == old_len {
                return Err(unknown(came.peek().copied()));
            } else if gone.next_if(|&&id| id.index() == old).is_some() {
                out.to.push(None);
                old += 1;
            } else {
                out.moved += usize::from(at.index() != old);
                out.to.push(Some(at));
                out.places.push(Origin::Standing(NodeId(old as u32)));
                old += 1;
            }
        }
        while old < old_len && gone.next_if(|&&id| id.index() == old).is_some() {
            out.to.push(None);
            old += 1;
        }
        match (old == old_len, gone.next(), came.next()) {
            (true, None, None) => Ok(out),
            (_, stray, None) => Err(unknown(stray.or(Some(&NodeId(old as u32))))),
            (_, _, stray) => Err(unknown(stray)),
        }
    }

    /// The number of nodes after it.
    pub fn len(&self) -> usize {
        self.first + self.places.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The first id that is not the same node before and after.
    pub fn first(&self) -> usize {
        self.first
    }

    /// Old node `old`'s new id (`None`: removed, or no node).
    pub fn get(&self, old: NodeId) -> Option<NodeId> {
        match old.index().checked_sub(self.first) {
            None => Some(old),
            Some(k) => self.to.get(k).copied().flatten(),
        }
    }

    /// What sits at each new id from [`Renumbering::first`] on.
    pub fn places(&self) -> &[Origin] {
        &self.places
    }

    /// The ids of the inserted nodes, ascending.
    pub(crate) fn inserted(&self) -> impl Iterator<Item = NodeId> + '_ {
        let places = self.places.iter().enumerate();
        places
            .filter(|(_, place)| matches!(place, Origin::Inserted(_)))
            .map(|(k, _)| NodeId((self.first + k) as u32))
    }

    /// How many standing nodes change id.
    pub fn moved(&self) -> usize {
        self.moved
    }

    /// How many nodes the splice moves to another id, inserts or removes.
    pub fn renumbered(&self) -> usize {
        self.moved + self.removed + self.inserted
    }
}

impl<N> Dag<N> {
    /// This graph renumbered by `to`, with the `inserted` nodes in (their
    /// payloads and what each depends on, in the order of their ids). See
    /// the [module docs](crate::splice) for what it equals and what it
    /// costs. Refused: an in-edge from the node itself
    /// ([`EdgeError::WouldCycle`]); one from a removed or unknown node, or
    /// from a node inserted after it, which is not there yet
    /// ([`EdgeError::UnknownNode`]); a renumbering of another graph, or one
    /// that inserts another number of nodes.
    pub fn splice<'d>(
        mut self,
        to: &Renumbering,
        inserted: impl IntoIterator<Item = (N, &'d [Origin])>,
    ) -> Result<Dag<N>, EdgeError> {
        let (payloads, deps): (Vec<N>, Vec<&[Origin]>) = inserted.into_iter().unzip();
        let at: Vec<NodeId> = to.inserted().collect();
        if to.old_len != self.len() || at.len() != deps.len() {
            return Err(EdgeError::UnknownNode(NodeId(to.old_len as u32)));
        }
        // each inserted node's in-edges, first occurrence kept: its row of
        // the predecessor table
        let (mut reads, mut read_at) = (Vec::new(), vec![0]);
        for (k, deps) in deps.iter().enumerate() {
            let row = reads.len();
            for dep in deps.iter() {
                let from = match *dep {
                    Origin::Standing(old) => to.get(old).ok_or(EdgeError::UnknownNode(old))?,
                    Origin::Inserted(j) if j < k => at[j],
                    Origin::Inserted(j) if j == k => {
                        let node = at[k];
                        let path = vec![node];
                        return Err(EdgeError::WouldCycle {
                            from: node,
                            to: node,
                            path,
                        });
                    }
                    Origin::Inserted(j) => {
                        let later = at.get(j).copied().unwrap_or(NodeId(u32::MAX));
                        return Err(EdgeError::UnknownNode(later));
                    }
                };
                if !reads[row..].contains(&from) {
                    reads.push(from);
                }
            }
            read_at.push(reads.len());
        }
        // the same edges by their far end, in the order the inserted nodes
        // come: what each row of the successor table gains
        let mut gains = Vec::with_capacity(reads.len());
        for (k, &node) in at.iter().enumerate() {
            let row = &reads[read_at[k]..read_at[k + 1]];
            gains.extend(row.iter().map(|&from| (from, node)));
        }
        gains.sort_by_key(|&(from, _)| from);

        let first = to.first;
        let topo = Arc::make_mut(&mut self.topo);
        // The first row of each table that changes. Every one when a
        // standing node changes id, as any row may name it; else the first
        // that gains an inserted node (as a successor) or loses a removed
        // one.
        let (succ_lo, pred_lo) = if to.moved > 0 {
            (0, 0)
        } else {
            let removed = to.to.iter().enumerate().filter(|(_, id)| id.is_none());
            let (mut succ_lo, mut pred_lo) = (first, first);
            for (k, _) in removed {
                let least = |row: &[NodeId]| row.iter().map(|id| id.index()).min();
                succ_lo = succ_lo.min(least(topo.pred.neighbors(first + k)).unwrap_or(first));
                pred_lo = pred_lo.min(least(topo.succ.neighbors(first + k)).unwrap_or(first));
            }
            (
                succ_lo.min(gains.first().map_or(first, |&(from, _)| from.index())),
                pred_lo,
            )
        };
        // what sits at each new id
        let place = |row: usize| match row.checked_sub(first) {
            None => Origin::Standing(NodeId(row as u32)),
            Some(k) => to.places[k],
        };
        let succ = topo.succ.split_off(succ_lo);
        let mut gains = gains.into_iter().peekable();
        for row in succ_lo..to.len() {
            let kept = match place(row) {
                Origin::Standing(old) => succ.neighbors(old.index() - succ_lo),
                Origin::Inserted(_) => &[],
            };
            let gained = std::iter::from_fn(|| gains.next_if(|&(from, _)| from.index() == row));
            let targets = kept.iter().filter_map(|&id| to.get(id));
            (topo.succ).push_row(targets.chain(gained.map(|(_, target)| target)));
        }
        let pred = topo.pred.split_off(pred_lo);
        for row in pred_lo..to.len() {
            match place(row) {
                Origin::Standing(old) => {
                    let sources = pred.neighbors(old.index() - pred_lo).iter();
                    topo.pred.push_row(sources.filter_map(|&id| to.get(id)));
                }
                Origin::Inserted(k) => {
                    topo.pred
                        .push_row(reads[read_at[k]..read_at[k + 1]].iter().copied());
                }
            }
        }

        let tail = self.nodes.split_off(first);
        let mut olds = tail.into_iter().zip(first..);
        let mut payloads = payloads.into_iter();
        for place in &to.places {
            let node = match *place {
                Origin::Standing(old) => olds
                    .find(|&(_, id)| id == old.index())
                    .map(|(node, _)| node),
                Origin::Inserted(_) => payloads.next(),
            };
            self.nodes.extend(node);
        }
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|&id| NodeId(id)).collect()
    }

    #[test]
    fn an_edit_at_the_end_moves_nothing_and_one_at_the_head_moves_everything() {
        let append = Renumbering::new(4, &[], &ids(&[4])).expect("an append");
        assert_eq!(
            (append.first(), append.moved(), append.renumbered()),
            (4, 0, 1)
        );
        let removal = Renumbering::new(5, &ids(&[4]), &[]).expect("a removal");
        assert_eq!((removal.len(), removal.get(NodeId(4))), (4, None));
        assert_eq!(removal.renumbered(), 1);
        let head = Renumbering::new(4, &[], &ids(&[0])).expect("a head insertion");
        assert_eq!((head.moved(), head.renumbered()), (4, 5));
        assert_eq!(head.get(NodeId(3)), Some(NodeId(4)));
        assert_eq!(head.places()[0], Origin::Inserted(0));
    }

    #[test]
    fn ids_out_of_order_or_range_are_refused() {
        for (removed, inserted) in [
            (&[2, 1][..], &[][..]),
            (&[1, 1], &[]),
            (&[4], &[]),
            (&[], &[6]),
            (&[], &[2, 2]),
            (&[0, 1, 2, 3], &[1]),
        ] {
            let to = Renumbering::new(4, &ids(removed), &ids(inserted));
            assert!(to.is_err(), "{removed:?} {inserted:?}: {to:?}");
        }
    }
}
