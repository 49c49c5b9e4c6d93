//! Memoized `bottomUp` with change propagation — the evaluation half of
//! delta-repair view maintenance.
//!
//! [`bottom_up`](fn@crate::eval::bottom_up) keeps only two live vector
//! triplets at a time, so after an update the whole fragment must be
//! re-evaluated. [`IncrementalBottomUp`] instead memoizes the `(V, DV)`
//! vectors of every *live* node. An in-place data update
//! (`insNode`/`delNode`) changes the child list of exactly one surviving
//! node — the *anchor* — so only the anchor, any newly inserted subtree,
//! and the anchor's ancestors can have stale vectors.
//! [`IncrementalBottomUp::propagate`] recomputes the inserted subtree
//! and the anchor against the memoized off-path children and then
//! climbs **only as far as something changed**: a parent reads `V` and
//! `DV` of a child and nothing else, so once a path node's two vectors
//! come out id-equal to its memoized ones, every ancestor's are what
//! they were, the root's triplet included. An update the query cannot
//! see costs the inserted leaf and its anchor; one it can see climbs
//! until a disjunction absorbs it. The root's `CV` is recomputed only
//! when the root is.
//!
//! Because the formula arena is hash-consed and the per-node math here
//! produces the operand *sets* of the
//! [`FormulaEvaluator`](mod@crate::eval::bottom_up) (`Formula::any`
//! canonicalises, so order and the early exit on a `true` operand do not
//! show), a repaired triplet is **id-identical** to what a fresh
//! [`bottom_up`](fn@crate::eval::bottom_up) over the updated fragment
//! would produce (asserted by the equivalence proptests) — so delta
//! repair can never drift from invalidate-and-recompute.
//!
//! The memo is one flat table of `2·|QList|` formula ids per live node.
//! A deleted node's row is released by a sweep that runs when dead rows
//! outnumber live nodes, so a document that keeps its size keeps its
//! memo's size (the tree's own tomb-stoned slots cost four bytes each
//! here).

use parbox_bool::{Formula, Triplet};
use parbox_query::{CompiledQuery, Op, ResolvedQuery};
use parbox_xml::{NodeId, Tree};

/// Work units between two progress ticks of a build: about half a
/// millisecond of an optimised build, a few of a debug one — far inside
/// any supervision deadline, far above the cost of a tick.
const TICK_WORK: usize = 1 << 14;

const NO_ROW: u32 = u32::MAX;

/// The memoized `(V, DV)` vectors of every live node, in one table.
/// `CV` is not stored: it is only read at the node itself
/// (`Op::Child`), never by the parent, and is rebuilt from the
/// children's `V` whenever the node is recomputed.
#[derive(Debug, Clone)]
struct Memo {
    m: usize,
    /// Arena slot → row, [`NO_ROW`] for a slot never evaluated (a new
    /// node before its repair) or swept after its node died.
    row_of: Vec<u32>,
    /// Row → the arena slot it belongs to, [`NO_ROW`] when free.
    owner: Vec<u32>,
    /// Row `r` holds `V` at `[2mr, 2mr + m)` and `DV` right behind it.
    cells: Vec<Formula>,
    free: Vec<u32>,
}

impl Memo {
    fn new(m: usize, arena_len: usize, live: usize) -> Memo {
        Memo {
            m,
            row_of: vec![NO_ROW; arena_len],
            owner: Vec::with_capacity(live),
            cells: Vec::with_capacity(live * 2 * m),
            free: Vec::new(),
        }
    }

    /// Offset of `n`'s `V` in `cells`; its `DV` starts `m` further on.
    fn base(&self, n: NodeId) -> Option<usize> {
        match self.row_of[n.index()] {
            NO_ROW => None,
            r => Some(r as usize * 2 * self.m),
        }
    }

    /// Rows in use.
    fn held(&self) -> usize {
        self.owner.len() - self.free.len()
    }

    /// Memoizes `n`'s vectors; returns whether they differ from what was
    /// there (a node seen for the first time always differs).
    fn store(&mut self, n: NodeId, v: &[Formula], dv: &[Formula]) -> bool {
        let m = self.m;
        let b = match self.base(n) {
            Some(b) if self.cells[b..b + m] == *v && self.cells[b + m..b + 2 * m] == *dv => {
                return false;
            }
            Some(b) => b,
            None => {
                let r = self.free.pop().unwrap_or_else(|| {
                    self.owner.push(NO_ROW);
                    self.cells.resize(self.owner.len() * 2 * m, Formula::FALSE);
                    (self.owner.len() - 1) as u32
                });
                self.owner[r as usize] = n.index() as u32;
                self.row_of[n.index()] = r;
                r as usize * 2 * m
            }
        };
        self.cells[b..b + m].copy_from_slice(v);
        self.cells[b + m..b + 2 * m].copy_from_slice(dv);
        true
    }

    /// Releases the rows of tomb-stoned nodes once they outnumber the
    /// live ones: every live node holds a row, so the table stays within
    /// twice the fragment and a sweep is paid for by the deletions that
    /// made it due.
    fn sweep_if_mostly_dead(&mut self, tree: &Tree) {
        if self.held() <= 2 * tree.len() {
            return;
        }
        for r in 0..self.owner.len() {
            let slot = self.owner[r];
            if slot != NO_ROW && !tree.is_live(NodeId::from_index(slot as usize)) {
                self.owner[r] = NO_ROW;
                self.row_of[slot as usize] = NO_ROW;
                self.free.push(r as u32);
            }
        }
    }
}

/// Buffers one node's computation runs in, reused from node to node.
#[derive(Debug, Clone, Default)]
struct Scratch {
    v: Vec<Formula>,
    cv: Vec<Formula>,
    dv: Vec<Formula>,
    /// Offsets of the children's rows in the memo.
    kids: Vec<usize>,
    /// Operands of the disjunction being built.
    ops: Vec<Formula>,
}

/// What one change propagation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Propagation {
    /// Whether the fragment-root triplet differs from the one before.
    /// False whenever the climb stopped below the root.
    pub root_changed: bool,
    /// Nodes whose vectors were recomputed: the inserted subtree, the
    /// anchor, and its ancestors up to the first unchanged one.
    pub nodes_recomputed: u64,
    /// Work units on the same scale as
    /// [`FragmentRun`](crate::eval::FragmentRun): `nodes × |QList|`.
    pub work_units: u64,
}

/// Result of [`IncrementalBottomUp::repair`]: a [`Propagation`] and a
/// copy of the root triplet it left.
#[derive(Debug, Clone)]
pub struct RepairRun {
    /// The fragment-root triplet after the repair.
    pub triplet: Triplet,
    /// Whether it differs from the one before the repair.
    pub root_changed: bool,
    /// Nodes whose vectors were recomputed.
    pub nodes_recomputed: u64,
    /// `nodes_recomputed × |QList|`.
    pub work_units: u64,
}

/// The cached `bottomUp` evaluation of one `(fragment, query)` pair,
/// repairable in place after data updates.
#[derive(Debug, Clone)]
pub struct IncrementalBottomUp {
    q: CompiledQuery,
    memo: Memo,
    scratch: Scratch,
    root: Triplet,
}

impl IncrementalBottomUp {
    /// Evaluates `q` over the fragment, memoizing every live node.
    /// Returns the state and the work spent (`live nodes × |QList|`).
    ///
    /// The initial build runs the formula path at every node (the spine
    /// fast path cannot be used — it leaves no per-node state), so it
    /// costs a small constant factor over
    /// [`bottom_up`](fn@crate::eval::bottom_up); the price is paid once
    /// and buys change-sized updates thereafter.
    pub fn build(tree: &Tree, q: &CompiledQuery) -> (IncrementalBottomUp, u64) {
        IncrementalBottomUp::build_with_progress(tree, q, &mut || {})
    }

    /// [`IncrementalBottomUp::build`], calling `tick` at a steady pace
    /// of work done, so that a caller someone is waiting for can show it
    /// is alive however large `fragment × |QList|` is.
    pub fn build_with_progress(
        tree: &Tree,
        q: &CompiledQuery,
        tick: &mut dyn FnMut(),
    ) -> (IncrementalBottomUp, u64) {
        let resolved = q.resolve(tree.labels());
        let m = resolved.len();
        let mut memo = Memo::new(m, tree.arena_len(), tree.len());
        let mut scratch = Scratch::default();
        let mut nodes = 0u64;
        let mut unticked = 0usize;
        // Postorder ends at the root, whose vectors stay in `scratch`.
        for n in tree.postorder(tree.root()) {
            compute_node(tree, &resolved, &memo, n, &mut scratch);
            memo.store(n, &scratch.v, &scratch.dv);
            nodes += 1;
            unticked += m;
            if unticked >= TICK_WORK {
                unticked = 0;
                tick();
            }
        }
        let root = Triplet {
            v: scratch.v.clone(),
            cv: scratch.cv.clone(),
            dv: scratch.dv.clone(),
        };
        let state = IncrementalBottomUp {
            q: q.clone(),
            memo,
            scratch,
            root,
        };
        (state, nodes * m as u64)
    }

    /// The current fragment-root triplet.
    pub fn triplet(&self) -> &Triplet {
        &self.root
    }

    /// The query this state was built for.
    pub fn query(&self) -> &CompiledQuery {
        &self.q
    }

    /// Brings the cached evaluation up to date after an in-place data
    /// update whose deepest surviving changed node is `anchor` (the
    /// parent of an inserted or deleted subtree). Children without
    /// vectors — freshly inserted subtrees — are evaluated bottom-up
    /// first; then `anchor` and its ancestors are recomputed, nearest
    /// first, until one comes out with the `(V, DV)` it had: from there
    /// up nothing can have changed, and everything off the path is
    /// reused as is.
    pub fn propagate(&mut self, tree: &Tree, anchor: NodeId) -> Propagation {
        // Re-resolve: an insert may have interned a label the query
        // mentions but the fragment had never seen. Memo entries that
        // are not recomputed stay valid — their nodes' labels are
        // unchanged and distinct from any newly interned label, so their
        // `LabelIs` constants are unaffected by the table growth.
        let resolved = self.q.resolve(tree.labels());
        let m = self.memo.m;
        if self.memo.row_of.len() < tree.arena_len() {
            self.memo.row_of.resize(tree.arena_len(), NO_ROW);
        }
        let (memo, scratch) = (&mut self.memo, &mut self.scratch);
        let mut nodes = 0u64;
        let mut root_changed = false;
        let mut p = anchor;
        loop {
            for &c in tree.node(p).child_ids() {
                if memo.base(c).is_none() {
                    for n in tree.postorder(c) {
                        compute_node(tree, &resolved, memo, n, scratch);
                        memo.store(n, &scratch.v, &scratch.dv);
                        nodes += 1;
                    }
                }
            }
            compute_node(tree, &resolved, memo, p, scratch);
            nodes += 1;
            let moved = memo.store(p, &scratch.v, &scratch.dv);
            if p == tree.root() {
                root_changed = moved || scratch.cv != self.root.cv;
                if root_changed {
                    self.root.v.clone_from(&scratch.v);
                    self.root.cv.clone_from(&scratch.cv);
                    self.root.dv.clone_from(&scratch.dv);
                }
                break;
            }
            if !moved {
                break;
            }
            p = tree.node(p).parent().expect("below the root");
        }
        memo.sweep_if_mostly_dead(tree);
        Propagation {
            root_changed,
            nodes_recomputed: nodes,
            work_units: nodes * m as u64,
        }
    }

    /// [`IncrementalBottomUp::propagate`], returning a copy of the root
    /// triplet as well.
    pub fn repair(&mut self, tree: &Tree, anchor: NodeId) -> RepairRun {
        let run = self.propagate(tree, anchor);
        RepairRun {
            triplet: self.root.clone(),
            root_changed: run.root_changed,
            nodes_recomputed: run.nodes_recomputed,
            work_units: run.work_units,
        }
    }
}

/// One node of the paper's Fig. 3(b) case analysis, fed from memoized
/// children, into `s.v`, `s.cv` and `s.dv`. Each disjunction gets the
/// operands the [`FormulaEvaluator`](mod@crate::eval::bottom_up) gives
/// it (`false` ones skipped), so the interned formulas — and with them
/// the triplets — come out identical.
fn compute_node(tree: &Tree, q: &ResolvedQuery, memo: &Memo, n: NodeId, s: &mut Scratch) {
    let node = tree.node(n);
    let m = memo.m;
    s.v.clear();
    s.cv.clear();
    s.dv.clear();
    if let Some(frag) = node.kind.fragment() {
        let t = Triplet::fresh_vars(frag, m);
        s.v.extend(t.v);
        s.cv.extend(t.cv);
        s.dv.extend(t.dv);
        return;
    }
    s.kids.clear();
    s.kids.extend(
        node.child_ids()
            .iter()
            .map(|&c| memo.base(c).expect("children evaluated before parents")),
    );
    for (i, op) in q.ops.iter().enumerate() {
        let cv = any_over(&memo.cells, &s.kids, i, Formula::FALSE, &mut s.ops);
        s.cv.push(cv);
        let value = match op {
            Op::True => Formula::TRUE,
            Op::LabelIs(l) => Formula::constant(Some(node.label) == *l),
            Op::TextIs(t) => Formula::constant(node.text.as_deref() == Some(t.as_ref())),
            // Sub-queries are topologically numbered, so `j < i`.
            Op::Child(j) => s.cv[*j as usize],
            Op::Desc(j) => s.dv[*j as usize],
            Op::Or(a, b) => Formula::or(s.v[*a as usize], s.v[*b as usize]),
            Op::And(a, b) => Formula::and(s.v[*a as usize], s.v[*b as usize]),
            Op::Not(a) => s.v[*a as usize].not(),
        };
        let dv = any_over(&memo.cells, &s.kids, m + i, value, &mut s.ops);
        s.dv.push(dv);
        s.v.push(value);
    }
}

/// `own ∨ ⋁ cells[kid + at]` over the children's rows, as
/// [`Formula::any`] would intern it: a `true` operand decides it, `false`
/// ones drop out, a single operand is the result (it is canonical
/// already), and only two or more go to the arena.
fn any_over(
    cells: &[Formula],
    kids: &[usize],
    at: usize,
    own: Formula,
    ops: &mut Vec<Formula>,
) -> Formula {
    if own == Formula::TRUE {
        return Formula::TRUE;
    }
    ops.clear();
    for &kid in kids {
        match cells[kid + at] {
            Formula::TRUE => return Formula::TRUE,
            Formula::FALSE => {}
            f => ops.push(f),
        }
    }
    if own != Formula::FALSE {
        ops.push(own);
    }
    match ops[..] {
        [] => Formula::FALSE,
        [f] => f,
        _ => Formula::any(ops.iter().copied()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::bottom_up;
    use parbox_query::{compile, parse_query};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn compiled(q: &str) -> CompiledQuery {
        compile(&parse_query(q).unwrap())
    }

    #[test]
    fn build_matches_bottom_up_exactly() {
        for (xml, q) in [
            ("<a><b><c>x</c></b><d/></a>", "[//c = \"x\" and //d]"),
            (r#"<a><b/><parbox:virtual ref="2"/></a>"#, "[//b[c]]"),
            ("<r><s><t/></s></r>", "[not //q or //t]"),
        ] {
            let tree = Tree::parse(xml).unwrap();
            let cq = compiled(q);
            let (state, work) = IncrementalBottomUp::build(&tree, &cq);
            let run = bottom_up(&tree, &cq);
            assert_eq!(state.triplet(), &run.triplet, "on {xml} {q}");
            assert_eq!(work, run.work_units);
        }
    }

    #[test]
    fn insert_repair_matches_recompute() {
        let mut tree = Tree::parse("<r><a><x>1</x></a><b/></r>").unwrap();
        let cq = compiled("[//goal or //x = \"1\"]");
        let (mut state, _) = IncrementalBottomUp::build(&tree, &cq);
        let a = tree
            .descendants(tree.root())
            .find(|&n| tree.label_str(n) == "a")
            .unwrap();
        tree.add_child(a, "goal");
        let run = state.repair(&tree, a);
        assert_eq!(run.triplet, bottom_up(&tree, &cq).triplet);
        // Path (a, r) + the inserted leaf: three nodes, not the tree.
        assert_eq!(run.nodes_recomputed, 3);
    }

    #[test]
    fn delete_repair_matches_recompute() {
        let mut tree = Tree::parse("<r><a><x>1</x><pad/></a><b/></r>").unwrap();
        let cq = compiled("[//x = \"1\"]");
        let (mut state, _) = IncrementalBottomUp::build(&tree, &cq);
        let x = tree
            .descendants(tree.root())
            .find(|&n| tree.label_str(n) == "x")
            .unwrap();
        let anchor = tree.ancestors(x).next().unwrap();
        tree.remove_subtree(x).unwrap();
        let run = state.repair(&tree, anchor);
        assert_eq!(run.triplet, bottom_up(&tree, &cq).triplet);
        assert!(!run.triplet.resolved().unwrap().v[cq.root() as usize]);
    }

    #[test]
    fn repair_handles_new_query_labels() {
        // The inserted label is mentioned by the query but absent from
        // the document at build time: repair must re-resolve.
        let mut tree = Tree::parse("<r><a/></r>").unwrap();
        let cq = compiled("[//unseen]");
        let (mut state, _) = IncrementalBottomUp::build(&tree, &cq);
        assert!(!state.triplet().resolved().unwrap().v[cq.root() as usize]);
        let a = tree
            .descendants(tree.root())
            .find(|&n| tree.label_str(n) == "a")
            .unwrap();
        tree.add_child(a, "unseen");
        let run = state.repair(&tree, a);
        assert_eq!(run.triplet, bottom_up(&tree, &cq).triplet);
        assert!(run.triplet.resolved().unwrap().v[cq.root() as usize]);
    }

    fn find(tree: &Tree, label: &str) -> NodeId {
        tree.descendants(tree.root())
            .find(|&n| tree.label_str(n) == label)
            .unwrap()
    }

    #[test]
    fn insert_the_query_cannot_see_stops_at_the_anchor() {
        let mut tree = Tree::parse("<r><a><b><c><d/></c></b></a><x>1</x></r>").unwrap();
        let cq = compiled("[//x = \"1\" and not //goal]");
        let (mut state, _) = IncrementalBottomUp::build(&tree, &cq);
        let before = state.triplet().clone();
        let d = find(&tree, "d");
        tree.add_child(d, "noise");
        let run = state.repair(&tree, d);
        // The new leaf and `d`, whose vectors come out as they were:
        // none of c, b, a, r is looked at.
        assert_eq!(run.nodes_recomputed, 2);
        assert_eq!(run.work_units, 2 * cq.len() as u64);
        assert!(!run.root_changed);
        assert_eq!(run.triplet, before);
        assert_eq!(run.triplet, bottom_up(&tree, &cq).triplet);
    }

    #[test]
    fn insert_the_query_can_see_climbs_until_absorbed() {
        let mut tree = Tree::parse("<r><a><b><c><d/></c><goal/></b></a><x>1</x></r>").unwrap();
        let cq = compiled("[//x = \"1\" and not //goal]");
        let (mut state, _) = IncrementalBottomUp::build(&tree, &cq);
        let d = find(&tree, "d");
        tree.add_child(d, "goal");
        let run = state.repair(&tree, d);
        // `//goal` turns true at the leaf, d and c. It held at b already
        // (b's other child), so b comes out unchanged and absorbs the
        // change: a and r are not recomputed.
        assert_eq!(run.nodes_recomputed, 4);
        assert!(!run.root_changed);
        assert_eq!(run.triplet, bottom_up(&tree, &cq).triplet);

        // Deleting b's own goal child changes b (no child of it is a
        // goal any more) but not a: its descendants still have one.
        let b = find(&tree, "b");
        let own = *tree.node(b).child_ids().last().unwrap();
        tree.remove_subtree(own).unwrap();
        assert_eq!(state.repair(&tree, b).nodes_recomputed, 2);

        // Deleting the last one reaches the root and flips the answer.
        let deep = *tree.node(d).child_ids().last().unwrap();
        tree.remove_subtree(deep).unwrap();
        let run = state.repair(&tree, d);
        assert_eq!(run.nodes_recomputed, 5, "d, c, b, a, r");
        assert!(run.root_changed);
        assert_eq!(run.triplet, bottom_up(&tree, &cq).triplet);
        assert!(run.triplet.resolved().unwrap().v[cq.root() as usize]);
    }

    #[test]
    fn memo_holds_vectors_for_live_nodes_only() {
        let mut tree = Tree::parse("<r><a><x>1</x></a><b/><c/><d/><e/></r>").unwrap();
        let cq = compiled("[//x = \"1\" or //goal]");
        let (mut state, _) = IncrementalBottomUp::build(&tree, &cq);
        let (a, live) = (find(&tree, "a"), tree.len());
        assert_eq!((live, state.memo.held()), (7, 7));
        for pair in 0..1000 {
            let leaf = tree.add_child(a, "goal");
            state.repair(&tree, a);
            tree.remove_subtree(leaf).unwrap();
            let run = state.repair(&tree, a);
            assert_eq!(run.triplet, bottom_up(&tree, &cq).triplet, "pair {pair}");
            // Dead rows never outnumber the live nodes…
            assert!(state.memo.held() <= 2 * live, "pair {pair}");
        }
        // …and the sweep that sees to it frees them all: it has just run
        // (every 8th pair on 7 live nodes), so what holds vectors is the
        // tree, although its arena is 1 000 tomb-stones longer.
        assert_eq!(tree.len(), live);
        assert_eq!(tree.arena_len(), live + 1000);
        assert_eq!(state.memo.held(), live);
        assert_eq!(state.memo.cells.len(), (2 * live + 1) * 2 * cq.len());
    }

    #[test]
    fn build_ticks_at_a_steady_pace_of_work() {
        let mut tree = Tree::new("r");
        let root = tree.root();
        for _ in 0..2 * TICK_WORK {
            tree.add_child(root, "leaf");
        }
        let cq = compiled("[//goal]");
        let mut ticks = 0u64;
        let (state, work) =
            IncrementalBottomUp::build_with_progress(&tree, &cq, &mut || ticks += 1);
        let nodes = work as usize / cq.len();
        assert_eq!(ticks as usize, nodes / TICK_WORK.div_ceil(cq.len()));
        assert!(ticks > 0);
        assert_eq!(state.triplet(), &bottom_up(&tree, &cq).triplet);
    }

    #[test]
    fn random_update_schedule_never_drifts() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut tree =
            Tree::parse(r#"<r><a><x>1</x><pad/></a><b><parbox:virtual ref="3"/></b></r>"#).unwrap();
        let cq = compiled("[//x = \"1\" or //goal and not //pad]");
        let (mut state, _) = IncrementalBottomUp::build(&tree, &cq);
        for step in 0..60 {
            let nodes: Vec<NodeId> = tree
                .descendants(tree.root())
                .filter(|&n| !tree.node(n).kind.is_virtual())
                .collect();
            let node = nodes[rng.random_range(0..nodes.len())];
            let anchor = if rng.random_bool(0.7) || node == tree.root() {
                let label = ["goal", "pad", "x"][rng.random_range(0..3usize)];
                tree.add_child(node, label);
                node
            } else {
                let parent = tree.ancestors(node).next().unwrap();
                if !tree.virtual_nodes(node).is_empty() {
                    continue;
                }
                tree.remove_subtree(node).unwrap();
                parent
            };
            let run = state.repair(&tree, anchor);
            assert_eq!(
                run.triplet,
                bottom_up(&tree, &cq).triplet,
                "drift at step {step}"
            );
        }
    }
}
