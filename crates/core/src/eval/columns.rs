//! The column-at-a-time bitset kernel: every sub-query of a `QList`
//! evaluated over all nodes of a tree at once, 64 nodes per machine word.
//!
//! The per-node evaluators walk the tree and, at each node, run the whole
//! program — one stack frame, one `match` and one bit write per
//! `(node, sub-query)` pair. This kernel turns the loops inside out: it
//! walks the program once and computes, per sub-query `q_i`, the column
//! `V_i` — bit `p` set when `q_i` holds at the node in position `p`.
//!
//! **Layout.** [`Layout::new`] scans the tree's arena once and numbers
//! the live nodes densely in slot order. A node's slot is always greater
//! than its parent's (the allocation order documented on
//! [`parbox_xml::Tree`]), so positions list every parent before its
//! children and the root at position 0. Per position the layout keeps
//! the parent's position and the label (`None` at a virtual node), plus
//! three bit columns: live, element and virtual. The only buffer sized by
//! the arena rather than by the live nodes is the slot → position map.
//!
//! **Columns.** [`eval_columns`] computes, in `QList` order:
//!
//! * `True` — the live column;
//! * `LabelIs`, `TextIs` — comparisons over element nodes (a virtual
//!   node has no label or text of its own);
//! * `Child(j)` — the set bits of `V_j` scattered to their parents;
//! * `Desc(j)` — `DV_j`;
//! * `Or`, `And`, `Not` — word operations, `Not` masked by the live
//!   column;
//! * `DV_i` — the **upward closure** of `V_i`: walk the set bits from the
//!   highest position down and set each one's parent, stopping wherever
//!   the parent is already set. A parent sits at a lower position than
//!   its child, so a descending walk meets every newly set bit after the
//!   bit that set it; a parent in the word being walked is re-queued in
//!   that word. Each bit of `DV_i` is visited once: `O(n/64 + |DV_i|)`.
//!
//! A fragment costs `O(|QList|·n/64 + Σ|V_j| + Σ|DV_i|)` — the sums over
//! the `Child` operands and the closed columns — plus one arena scan.
//! The semantics at a virtual node are those of the per-node reference
//! interpreter ([`crate::eval::reference`]): `True` and `Not(x)` (when
//! `x` does not) hold there, `LabelIs` and `TextIs` never do.

use parbox_bool::ResolvedTriplet;
use parbox_query::{Op, ResolvedQuery};
use parbox_xml::{FragmentId, LabelId, NodeId, Tree};
use std::collections::HashMap;

/// Slot → position entry of a tomb-stoned slot.
const NO_POS: u32 = u32::MAX;

/// The live nodes of one tree in slot order, as the kernel reads them.
pub(crate) struct Layout<'t> {
    tree: &'t Tree,
    /// Arena slot → position, [`NO_POS`] for a tomb-stone.
    pos_of: Vec<u32>,
    /// Position → arena slot.
    slot: Vec<u32>,
    /// Position → the parent's position; the root (position 0) is its
    /// own parent.
    parent: Vec<u32>,
    /// Position → label, `None` at a virtual node.
    label: Vec<Option<LabelId>>,
    live: Vec<u64>,
    element: Vec<u64>,
    virt: Vec<u64>,
}

impl<'t> Layout<'t> {
    /// One sequential scan of `tree`'s arena.
    pub(crate) fn new(tree: &'t Tree) -> Layout<'t> {
        let n = tree.len();
        let words = n.div_ceil(64);
        let mut pos_of = vec![NO_POS; tree.arena_len()];
        // Indexed writes into filled vectors: measurably faster here than
        // pushes.
        let mut slot = vec![0u32; n];
        let mut parent = vec![0u32; n];
        let mut label = vec![None; n];
        let mut virt = vec![0u64; words];
        for (p, (id, node)) in tree.live_nodes().enumerate() {
            pos_of[id.index()] = p as u32;
            slot[p] = id.index() as u32;
            parent[p] = match node.parent() {
                Some(up) => {
                    let up = pos_of[up.index()];
                    debug_assert!(up != NO_POS, "parent of {id} is not in an earlier slot");
                    up
                }
                None => p as u32,
            };
            if node.kind.is_virtual() {
                virt[p / 64] |= 1 << (p % 64);
            } else {
                label[p] = Some(node.label);
            }
        }
        debug_assert_eq!(pos_of[tree.root().index()], 0, "root first in slot order");
        let mut live = vec![u64::MAX; words];
        if !n.is_multiple_of(64) {
            live[words - 1] = (1 << (n % 64)) - 1;
        }
        let element = live.iter().zip(&virt).map(|(l, v)| l & !v).collect();
        Layout {
            tree,
            pos_of,
            slot,
            parent,
            label,
            live,
            element,
            virt,
        }
    }

    /// Number of live nodes.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.slot.len()
    }

    /// Words per column.
    #[inline]
    pub(crate) fn words(&self) -> usize {
        self.live.len()
    }

    /// Position of the live node `id`.
    #[inline]
    pub(crate) fn pos(&self, id: NodeId) -> usize {
        self.pos_of[id.index()] as usize
    }

    /// The live node at position `p`.
    #[inline]
    pub(crate) fn node(&self, p: usize) -> NodeId {
        NodeId::from_index(self.slot[p] as usize)
    }

    /// The element (non-virtual) nodes.
    pub(crate) fn element(&self) -> &[u64] {
        &self.element
    }

    /// The *spine*: nodes whose subtree holds a virtual node — the upward
    /// closure of the virtual column.
    pub(crate) fn spine(&self) -> Vec<u64> {
        let mut spine = self.virt.clone();
        self.close_upward(&mut spine);
        spine
    }

    /// A column with the bits of `ids` set.
    pub(crate) fn column_of(&self, ids: &[NodeId]) -> Vec<u64> {
        let mut col = vec![0u64; self.words()];
        for &id in ids {
            let p = self.pos(id);
            col[p / 64] |= 1 << (p % 64);
        }
        col
    }

    /// `out` := upward closure of `out` (every ancestor of a set bit set).
    fn close_upward(&self, out: &mut [u64]) {
        for w in (0..out.len()).rev() {
            let mut pending = out[w];
            while pending != 0 {
                let b = 63 - pending.leading_zeros() as usize;
                pending &= !(1 << b);
                let up = self.parent[w * 64 + b] as usize;
                let (uw, bit) = (up / 64, 1u64 << (up % 64));
                if out[uw] & bit == 0 {
                    out[uw] |= bit;
                    if uw == w {
                        // Same word, lower bit: not walked yet.
                        pending |= bit;
                    }
                }
            }
        }
    }

    /// `out` := the parents of the set bits of `src` (the root has none).
    fn scatter_to_parents(&self, src: &[u64], out: &mut [u64]) {
        for (w, &word) in src.iter().enumerate() {
            let mut rest = if w == 0 { word & !1 } else { word };
            while rest != 0 {
                let up = self.parent[w * 64 + rest.trailing_zeros() as usize] as usize;
                rest &= rest - 1;
                out[up / 64] |= 1 << (up % 64);
            }
        }
    }

    /// `out` := the nodes labelled `want`.
    fn label_column(&self, want: LabelId, out: &mut [u64]) {
        for (o, chunk) in out.iter_mut().zip(self.label.chunks(64)) {
            let mut bits = 0u64;
            for (b, &l) in chunk.iter().enumerate() {
                bits |= u64::from(l == Some(want)) << b;
            }
            *o = bits;
        }
    }

    /// `out` := the element nodes whose text is `want`.
    fn text_column(&self, want: &str, out: &mut [u64]) {
        for (w, &word) in self.element.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let node = self
                    .tree
                    .node(NodeId::from_index(self.slot[w * 64 + b] as usize));
                if node.text.as_deref() == Some(want) {
                    out[w] |= 1 << b;
                }
            }
        }
    }
}

/// `V_i` for every sub-query and `DV_i` for those asked for, one column of
/// [`Layout::words`] words each.
pub(crate) struct Columns {
    words: usize,
    v: Vec<u64>,
    /// Zero for a sub-query whose `DV` was not computed.
    dv: Vec<u64>,
}

impl Columns {
    /// Does sub-query `i` hold at position `p`?
    #[inline]
    pub(crate) fn v_bit(&self, i: usize, p: usize) -> bool {
        bit(&self.v[i * self.words..], p)
    }

    /// Does sub-query `i` hold at position `p` or below it? Meaningful
    /// only when the columns were built with every `DV`.
    #[inline]
    pub(crate) fn dv_bit(&self, i: usize, p: usize) -> bool {
        bit(&self.dv[i * self.words..], p)
    }

    /// Column `V_i`.
    #[inline]
    pub(crate) fn v(&self, i: usize) -> &[u64] {
        &self.v[i * self.words..(i + 1) * self.words]
    }
}

/// Is bit `p` of `col` set?
#[inline]
pub(crate) fn bit(col: &[u64], p: usize) -> bool {
    (col[p / 64] >> (p % 64)) & 1 == 1
}

/// The positions of the set bits of `col`, ascending.
pub(crate) fn ones(col: &[u64]) -> impl Iterator<Item = usize> + '_ {
    col.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + b
            })
        })
    })
}

#[inline]
fn set_bit(col: &mut [u64], p: usize, value: bool) {
    let (w, b) = (p / 64, p % 64);
    col[w] = (col[w] & !(1 << b)) | (u64::from(value) << b);
}

/// Resolved triplets of sub-fragments, by fragment.
pub(crate) type SubTriplets<'r> = HashMap<FragmentId, &'r ResolvedTriplet>;

/// Evaluates `q` over every node of `layout`. `DV_i` is computed for
/// every sub-query when `all_dv`, otherwise only for the operands of
/// `Desc`.
///
/// With `subs`, a virtual node takes the values of its sub-fragment's
/// resolved triplet: `V_i` is overwritten there with `r.v[i]` before
/// any later sub-query reads column `i`, and the `DV_i` closure starts
/// from `r.dv[i]` there. Without, a virtual node is the opaque leaf
/// described in the module docs.
pub(crate) fn eval_columns(
    layout: &Layout<'_>,
    q: &ResolvedQuery,
    all_dv: bool,
    subs: Option<&SubTriplets<'_>>,
) -> Columns {
    let (m, words) = (q.len(), layout.words());
    let subs: Vec<(usize, &ResolvedTriplet)> = match subs {
        None => Vec::new(),
        Some(subs) => ones(&layout.virt)
            .map(|p| {
                let frag = layout.tree.node(layout.node(p)).kind.fragment();
                let frag = frag.expect("a virtual node names its fragment");
                let r = subs
                    .get(&frag)
                    .unwrap_or_else(|| panic!("missing resolved triplet for {frag}"));
                (p, *r)
            })
            .collect(),
    };
    let mut need_dv = vec![all_dv; m];
    for op in &q.ops {
        if let Op::Desc(j) = op {
            need_dv[*j as usize] = true;
        }
    }
    let mut v = vec![0u64; m * words];
    let mut dv = vec![0u64; m * words];
    for (i, op) in q.ops.iter().enumerate() {
        let (done, rest) = v.split_at_mut(i * words);
        let out = &mut rest[..words];
        let col = |j: u32| &done[j as usize * words..(j as usize + 1) * words];
        match op {
            Op::True => out.copy_from_slice(&layout.live),
            Op::LabelIs(None) => {}
            Op::LabelIs(Some(l)) => layout.label_column(*l, out),
            Op::TextIs(s) => layout.text_column(s, out),
            Op::Child(j) => layout.scatter_to_parents(col(*j), out),
            Op::Desc(j) => out.copy_from_slice(&dv[*j as usize * words..][..words]),
            Op::Or(a, b) => {
                for ((o, x), y) in out.iter_mut().zip(col(*a)).zip(col(*b)) {
                    *o = x | y;
                }
            }
            Op::And(a, b) => {
                for ((o, x), y) in out.iter_mut().zip(col(*a)).zip(col(*b)) {
                    *o = x & y;
                }
            }
            Op::Not(a) => {
                for ((o, x), l) in out.iter_mut().zip(col(*a)).zip(&layout.live) {
                    *o = !x & l;
                }
            }
        }
        for &(p, r) in &subs {
            set_bit(out, p, r.v[i]);
        }
        if need_dv[i] {
            let closed = &mut dv[i * words..(i + 1) * words];
            closed.copy_from_slice(out);
            for &(p, r) in &subs {
                set_bit(closed, p, r.dv[i]);
            }
            layout.close_upward(closed);
        }
    }
    Columns { words, v, dv }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::reference::centralized_eval_reference;
    use crate::eval::{bottom_up, bottom_up_formula_only, centralized_eval_counted};
    use parbox_query::{compile, parse_query, CompiledQuery};
    use parbox_xml::FragmentId;

    fn compiled(q: &str) -> CompiledQuery {
        compile(&parse_query(q).unwrap())
    }

    /// The kernel's answer and work units against the per-node reference.
    fn agrees_with_reference(tree: &Tree, q: &str) {
        let q = compiled(q);
        assert_eq!(
            centralized_eval_counted(tree, &q),
            centralized_eval_reference(tree, &q),
            "{q}"
        );
    }

    #[test]
    fn deep_chain_closes_across_hundreds_of_words_iteratively() {
        // 50 001 nodes: each DV closure walks ~780 words from the leaf up.
        let depth: usize = 50_000;
        let mut tree = Tree::new("d");
        let mut at = tree.root();
        for _ in 1..depth {
            at = tree.add_child(at, "d");
        }
        tree.add_child(at, "leaf");
        let layout = Layout::new(&tree);
        assert_eq!(layout.words(), (depth + 1).div_ceil(64));
        let q = compiled("[//leaf]").resolve(tree.labels());
        let cols = eval_columns(&layout, &q, true, None);
        let root = q.root as usize;
        assert!(cols.v_bit(root, 0));
        // `//leaf` holds on every node of the chain except the leaf.
        let leaf_to_root = cols.v(root).iter().map(|w| w.count_ones()).sum::<u32>();
        assert_eq!(leaf_to_root as usize, depth);
        agrees_with_reference(&tree, "[//leaf and not(//nothing)]");
    }

    #[test]
    fn single_node_tree() {
        let tree = Tree::parse("<a>t</a>").unwrap();
        for q in [
            "[.]",
            "[label() = a]",
            "[a]",
            "[//a]",
            "[not(*)]",
            "[text() = \"t\"]",
        ] {
            agrees_with_reference(&tree, q);
        }
        let run = bottom_up(&tree, &compiled("[not(*)]"));
        let r = run.triplet.resolved().expect("closed");
        assert!(
            r.v.iter().zip(&r.dv).all(|(v, dv)| v == dv),
            "DV = V at a leaf"
        );
        assert!(r.cv.iter().all(|c| !c), "a leaf has no children");
    }

    #[test]
    fn fragment_whose_only_child_is_virtual() {
        let mut tree = Tree::new("a");
        let r = tree.root();
        tree.add_virtual_child(r, FragmentId(3));
        for q in ["[*]", "[//b]", "[not(*/b)]", "[*[not(c)]]"] {
            let q = compiled(q);
            let fast = bottom_up(&tree, &q);
            let slow = bottom_up_formula_only(&tree, &q);
            assert_eq!(fast.triplet, slow.triplet, "{q}");
            assert_eq!(fast.work_units, 2 * q.len() as u64);
            assert!(!fast.triplet.is_closed());
        }
        let layout = Layout::new(&tree);
        assert_eq!(layout.spine(), vec![0b11], "the root and the virtual node");
    }

    #[test]
    fn absent_label_resolves_to_an_empty_column() {
        let tree = Tree::parse("<a><b/><c/></a>").unwrap();
        let q = compiled("[//zzz or not(//zzz)]").resolve(tree.labels());
        assert!(q.ops.iter().any(|op| matches!(op, Op::LabelIs(None))));
        let layout = Layout::new(&tree);
        let cols = eval_columns(&layout, &q, true, None);
        let absent = q
            .ops
            .iter()
            .position(|op| matches!(op, Op::LabelIs(None)))
            .unwrap();
        assert!(cols.v(absent).iter().all(|&w| w == 0));
        assert!(cols.v_bit(q.root as usize, 0));
    }

    #[test]
    fn text_never_holds_at_a_virtual_node() {
        let mut tree = Tree::parse("<a><b>x</b></a>").unwrap();
        let r = tree.root();
        let v = tree.add_virtual_child(r, FragmentId(1));
        // A virtual node carries no text in practice; give it some to
        // show the kernel does not read it.
        tree.set_text(v, "x");
        let q = compiled("[text() = \"x\"]").resolve(tree.labels());
        let text = q
            .ops
            .iter()
            .position(|op| matches!(op, Op::TextIs(_)))
            .unwrap();
        let layout = Layout::new(&tree);
        let cols = eval_columns(&layout, &q, false, None);
        assert!(cols.v_bit(text, layout.pos(tree.children(r).next().unwrap())));
        assert!(!cols.v_bit(text, layout.pos(v)));
        agrees_with_reference(&tree, "[*[text() = \"x\"] and */parbox:virtual]");
        agrees_with_reference(&tree, "[not(*[not(text() = \"x\")])]");
    }

    #[test]
    fn positions_skip_tomb_stones_and_follow_slots() {
        let mut tree = Tree::parse("<a><b><c/></b><d/></a>").unwrap();
        let r = tree.root();
        let b = tree.children(r).next().unwrap();
        tree.remove_subtree(b).unwrap();
        let e = tree.insert_child(r, 0, "e");
        let layout = Layout::new(&tree);
        assert_eq!(layout.len(), 3);
        assert_eq!(layout.pos(r), 0);
        // `e` was allocated last, so it is last although it is the first
        // child.
        assert_eq!(layout.pos(e), 2);
        agrees_with_reference(&tree, "[e and d and not(b)]");
    }
}
