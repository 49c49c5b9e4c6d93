//! Procedure `bottomUp` (paper, Fig. 3b): partial evaluation of the
//! sub-query list over one fragment, producing a `(V, CV, DV)` triplet of
//! Boolean *formulas* — and the one fragment pass every local evaluation
//! runs on: `bottomUp` itself, the repair memo's build
//! ([`IncrementalBottomUp`](crate::eval::IncrementalBottomUp)), and the
//! aggregation of [`crate::aggregate`].
//!
//! At a virtual node (a leaf standing for sub-fragment `F_k`) the values
//! of the sub-queries are unknown; fresh variables `x_i`, `cx_i`, `dx_i`
//! are introduced instead (Example 3.1) and the traversal continues
//! without waiting — this is what decouples the dependencies between the
//! per-fragment partial-evaluation processes.
//!
//! Only the *spine* — the nodes whose subtree holds a virtual node —
//! needs formulas; everywhere else every value is a constant. So a
//! `FragmentPass` first runs the column-at-a-time bitset kernel
//! (`eval/columns.rs`) over the whole fragment, which gives the `V` and
//! `DV` of every node as bits, and computes the spine as the kernel's
//! upward closure of the virtual column — the nodes where `//virtual`
//! holds. It then walks the spine in postorder and runs the one formula
//! step, `compute_node` (`eval/incremental.rs`), at each spine node. The
//! step reads its children's `(V, DV)` rows: a spine child's from its
//! own step, an off-spine child's as `Formula::constant` of its bits,
//! which interns nothing. `Rows` says which nodes keep a row: the spine
//! and its children for [`bottom_up`], every live node for the memo.
//!
//! A fragment without virtual nodes (every leaf fragment, and whole
//! documents) has no spine: its triplet is constants read from the
//! root's columns.
//!
//! [`bottom_up_formula_only`] runs the formula step at every node and no
//! kernel: the literal reading of Fig. 3(b) and the oracle the pass is
//! tested against. The step interns each disjunction once, over the
//! operand set Fig. 3(b) gives it, so both return id-identical triplets.
//! The seed implementation, with the original accumulation, is preserved
//! in [`crate::eval::reference`] as the differential-testing oracle of
//! both.

use crate::eval::columns::{bit, eval_columns, ones, Columns, Layout};
use crate::eval::incremental::{compute_node, Memo, Scratch, TICK_WORK};
use parbox_bool::{Formula, Triplet};
use parbox_query::{CompiledQuery, ResolvedQuery};
use parbox_xml::{NodeId, Tree};

/// Result of partially evaluating one fragment.
#[derive(Debug, Clone)]
pub struct FragmentRun {
    /// The computed `(V, CV, DV)` triplet for the fragment root.
    pub triplet: Triplet,
    /// Work units: `nodes visited × |QList|`.
    pub work_units: u64,
}

/// Partially evaluates `q` over the fragment `tree` (which may contain
/// virtual nodes), returning the triplet for its root.
pub fn bottom_up(tree: &Tree, q: &CompiledQuery) -> FragmentRun {
    let resolved = q.resolve(tree.labels());
    let pass = FragmentPass::run(tree, &resolved, Rows::Spine, |_, _| {}, &mut || {});
    FragmentRun {
        work_units: pass.work_units(),
        triplet: pass.root,
    }
}

/// `bottomUp` without the kernel: the formula step at every node, as a
/// literal reading of the paper's Fig. 3(b) would run it. The
/// differential oracle of [`bottom_up`], which must return an
/// id-identical triplet, and the ablation that prices the kernel (see
/// `benches/kernels.rs`); production callers use [`bottom_up`].
pub fn bottom_up_formula_only(tree: &Tree, q: &CompiledQuery) -> FragmentRun {
    let resolved = q.resolve(tree.labels());
    let m = resolved.len();
    let mut memo = Memo::new(m, tree.arena_len(), tree.len());
    let mut s = Scratch::default();
    // Postorder ends at the root, whose vectors stay in `s`.
    for n in tree.postorder(tree.root()) {
        compute_node(tree, &resolved, &memo, n, NodeId::index, &mut s);
        memo.store(n.index(), &s.v, &s.dv);
    }
    FragmentRun {
        triplet: Triplet {
            v: s.v,
            cv: s.cv,
            dv: s.dv,
        },
        work_units: (tree.len() * m) as u64,
    }
}

/// Which nodes a [`FragmentPass`] gives a `(V, DV)` row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rows {
    /// The spine and the children of spine nodes: what the formula step
    /// reads.
    Spine,
    /// Every live node: what change propagation reads later.
    Every,
}

/// One fragment evaluated: the kernel's columns for every node, the
/// spine, the formula rows [`Rows`] asks for, and the root triplet.
pub(crate) struct FragmentPass<'t> {
    pub(crate) layout: Layout<'t>,
    pub(crate) cols: Columns,
    pub(crate) spine: Vec<u64>,
    pub(crate) memo: Memo,
    pub(crate) scratch: Scratch,
    /// The fragment-root triplet.
    pub(crate) root: Triplet,
}

impl<'t> FragmentPass<'t> {
    /// Evaluates `q` over `tree`. `on_spine` sees each spine node's `V`
    /// right after its formula step, in postorder; `tick` is called
    /// whenever rows worth `TICK_WORK` work units have been stored since
    /// the last call.
    pub(crate) fn run(
        tree: &'t Tree,
        q: &ResolvedQuery,
        rows: Rows,
        mut on_spine: impl FnMut(NodeId, &[Formula]),
        tick: &mut dyn FnMut(),
    ) -> FragmentPass<'t> {
        let m = q.len();
        // Allocated ahead of the pass's working buffers: the root triplet
        // may stay cached for long, and allocated after them it lands
        // among their freed chunks. That made `scan_miss`'s resident
        // memory grow 15 % more in its measured phase (2-vCPU host).
        let mut root = Triplet {
            v: Vec::with_capacity(m),
            cv: Vec::with_capacity(m),
            dv: Vec::with_capacity(m),
        };
        let layout = Layout::new(tree);
        let spine = layout.spine();
        let root_on_spine = spine[0] & 1 != 0;
        let full = rows == Rows::Every;
        // An off-spine `DV` is read by a spine parent or by propagation;
        // without either only the root's is, and that is "the column is
        // not empty".
        let cols = eval_columns(&layout, q, root_on_spine || full, None);
        // Rows to hold: every node, or the root and the children of spine
        // nodes, or none. Sized up front so the table is allocated once.
        let held = match (full, root_on_spine) {
            (true, _) => layout.len(),
            (false, true) => {
                1 + ones(&spine)
                    .map(|p| tree.node(layout.node(p)).child_ids().len())
                    .sum::<usize>()
            }
            (false, false) => 0,
        };
        // A memo that outlives the pass is keyed by arena slot, as
        // propagation finds nodes; one that does not, by position.
        let key = |n: NodeId| if full { n.index() } else { layout.pos(n) };
        let keys = if full { tree.arena_len() } else { layout.len() };
        let mut memo = Memo::new(m, keys, held);
        let mut s = Scratch::default();
        let per_tick = TICK_WORK.div_ceil(m.max(1));
        let mut stored = 0usize;
        let mut row_done = || {
            stored += 1;
            if stored.is_multiple_of(per_tick) {
                tick();
            }
        };
        let fill = |memo: &mut Memo, s: &mut Scratch, p: usize| {
            s.v.clear();
            s.dv.clear();
            s.v.extend((0..m).map(|i| Formula::constant(cols.v_bit(i, p))));
            s.dv.extend((0..m).map(|i| Formula::constant(cols.dv_bit(i, p))));
            memo.store(key(layout.node(p)), &s.v, &s.dv);
        };
        if full {
            for p in (0..layout.len()).filter(|&p| !bit(&spine, p)) {
                fill(&mut memo, &mut s, p);
                row_done();
            }
        }
        if root_on_spine {
            // Iterative postorder over the spine: (node, next child).
            let mut stack: Vec<(NodeId, usize)> = vec![(tree.root(), 0)];
            while let Some((n, next)) = stack.last_mut() {
                let kids = tree.node(*n).child_ids();
                if let Some(k) = kids[*next..]
                    .iter()
                    .position(|&c| bit(&spine, layout.pos(c)))
                {
                    let child = kids[*next + k];
                    *next += k + 1;
                    stack.push((child, 0));
                    continue;
                }
                let n = *n;
                stack.pop();
                for &c in kids {
                    if memo.base(key(c)).is_none() {
                        fill(&mut memo, &mut s, layout.pos(c));
                    }
                }
                compute_node(tree, q, &memo, n, key, &mut s);
                memo.store(key(n), &s.v, &s.dv);
                row_done();
                on_spine(n, &s.v);
            }
            // The root came last; its vectors are still in the scratch.
            root.v.extend_from_slice(&s.v);
            root.cv.extend_from_slice(&s.cv);
            root.dv.extend_from_slice(&s.dv);
        } else {
            // No unknowns: the root is position 0 and every node is below
            // it, so `DV` at the root is "the column is not empty".
            let kids = layout.column_of(tree.node(tree.root()).child_ids());
            for col in (0..m).map(|i| cols.v(i)) {
                root.v.push(Formula::constant(col[0] & 1 != 0));
                root.cv.push(Formula::constant(
                    col.iter().zip(&kids).any(|(c, k)| c & k != 0),
                ));
                root.dv.push(Formula::constant(col.iter().any(|&c| c != 0)));
            }
        }
        FragmentPass {
            layout,
            cols,
            spine,
            memo,
            scratch: s,
            root,
        }
    }

    /// Work units: `live nodes × |QList|`.
    pub(crate) fn work_units(&self) -> u64 {
        (self.layout.len() * self.memo.m) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbox_bool::VecKind;
    use parbox_query::{compile, parse_query};
    use parbox_xml::FragmentId;

    fn triplet(xml: &str, q: &str) -> Triplet {
        let tree = Tree::parse(xml).unwrap();
        let compiled = compile(&parse_query(q).unwrap());
        bottom_up(&tree, &compiled).triplet
    }

    #[test]
    fn closed_fragment_yields_constants() {
        let t = triplet("<a><b/></a>", "[//b]");
        assert!(t.is_closed());
        let r = t.resolved().unwrap();
        let root = r.v.len() - 1;
        assert!(r.v[root], "//b holds at the root");
    }

    #[test]
    fn virtual_node_introduces_variables() {
        let t = triplet(r#"<a><parbox:virtual ref="2"/></a>"#, "[//b]");
        assert!(!t.is_closed());
        let vars =
            t.v.iter()
                .chain(&t.cv)
                .chain(&t.dv)
                .flat_map(|f| f.vars())
                .collect::<std::collections::BTreeSet<_>>();
        assert!(vars.iter().all(|v| v.frag == FragmentId(2)));
        assert!(!vars.is_empty());
    }

    #[test]
    fn matches_centralized_on_whole_trees() {
        use crate::eval::centralized::centralized_eval;
        for (xml, q) in [
            ("<a><b><c>x</c></b><d/></a>", "[//c = \"x\" and //d]"),
            ("<a><b/><b><c/></b></a>", "[//b[c]]"),
            ("<r><s><t/></s></r>", "[not //q or //t]"),
            ("<r><a/></r>", "[*/a]"),
        ] {
            let tree = Tree::parse(xml).unwrap();
            let compiled = compile(&parse_query(q).unwrap());
            let run = bottom_up(&tree, &compiled);
            let r = run.triplet.resolved().expect("closed");
            let root = compiled.root() as usize;
            assert_eq!(
                r.v[root],
                centralized_eval(&tree, &compiled),
                "mismatch on {xml} {q}"
            );
        }
    }

    #[test]
    fn work_counts_virtual_nodes_too() {
        let tree = Tree::parse(r#"<a><b/><parbox:virtual ref="1"/></a>"#).unwrap();
        let compiled = compile(&parse_query("[//b]").unwrap());
        let run = bottom_up(&tree, &compiled);
        assert_eq!(run.work_units, 3 * compiled.len() as u64);
    }

    #[test]
    fn example_3_1_structure() {
        // Fragment F1 of the paper: broker with a name child and a virtual
        // node for F2. Query: [//stock[code/text()="yhoo"]].
        let xml = r#"<broker><name>Merill Lynch</name><parbox:virtual ref="2"/></broker>"#;
        let t = triplet(xml, "[//stock[code/text() = \"yhoo\"]]");
        // The query can only hold via F2: the root V is a small residual
        // formula over F2's variables — "F2's root subtree contains the
        // stock" (a DV variable) or "F2's root itself is the matching
        // stock child of the broker" (a V variable). This is the analogue
        // of the paper's V_F1 = <…, dx8, dx8>.
        let root = t.v.len() - 1;
        let vars = t.v[root].vars();
        assert!(
            !vars.is_empty() && vars.len() <= 2,
            "V_root = {}",
            t.v[root]
        );
        for var in vars {
            assert_eq!(var.frag, FragmentId(2));
            assert!(matches!(var.vec, VecKind::DV | VecKind::V));
        }
    }

    #[test]
    fn cv_accumulates_over_children() {
        let t = triplet("<r><a/><b/></r>", "[.]");
        // ε is true at every node, so CV at the root must be true (it has
        // children) and DV true as well.
        let r = t.resolved().unwrap();
        assert!(r.cv[0]);
        assert!(r.dv[0]);
    }

    #[test]
    fn leaf_fragment_cv_false() {
        let t = triplet("<r/>", "[.]");
        let r = t.resolved().unwrap();
        assert!(!r.cv[0], "no children");
        assert!(r.v[0] && r.dv[0]);
    }

    #[test]
    fn variables_reference_all_three_kinds() {
        let t = triplet(r#"<a><parbox:virtual ref="5"/></a>"#, "[*/x or //y]");
        let mut kinds = std::collections::BTreeSet::new();
        for f in t.v.iter().chain(&t.cv).chain(&t.dv) {
            for v in f.vars() {
                kinds.insert(v.vec);
            }
        }
        // Child accumulation uses V vars; descendant accumulation uses DV.
        assert!(kinds.contains(&VecKind::V));
        assert!(kinds.contains(&VecKind::DV));
    }

    /// Builds a fragment whose root has `fanout` virtual children — the
    /// widest possible formula-path node.
    fn wide_fanout_tree(fanout: u32) -> Tree {
        let mut xml = String::from("<hub>");
        for i in 0..fanout {
            xml.push_str(&format!(r#"<parbox:virtual ref="{}"/>"#, i + 1));
        }
        xml.push_str("</hub>");
        Tree::parse(&xml).unwrap()
    }

    #[test]
    fn wide_fanout_accumulation_is_linear() {
        // Regression for the O(k²) child-accumulation: evaluating a node
        // with 10 000 virtual children must write O(k) operand slots into
        // the arena, not O(k²). The seed accumulation would copy
        // ~k²/2 ≈ 5·10⁷ operands per sub-query and time out here.
        let fanout = 10_000u32;
        let tree = wide_fanout_tree(fanout);
        let compiled = compile(&parse_query("[//b]").unwrap());
        let before = Formula::arena_stats();
        let run = bottom_up(&tree, &compiled);
        let after = Formula::arena_stats();
        assert!(!run.triplet.is_closed());
        let slots = after.operand_slots - before.operand_slots;
        // Linear bound: a handful of n-ary nodes per sub-query, each with
        // ≤ fanout operands. 8·k is generous; k²/2 would be 5·10⁷.
        assert!(
            slots <= 8 * u64::from(fanout) * compiled.len() as u64,
            "operand slots {slots} not linear in fan-out {fanout}"
        );
        // And the result is the expected wide disjunction: every child
        // fragment is referenced.
        let root = compiled.root() as usize;
        let frags: std::collections::BTreeSet<FragmentId> = run.triplet.dv[root]
            .vars()
            .into_iter()
            .map(|v| v.frag)
            .collect();
        assert_eq!(frags.len(), fanout as usize);
    }

    #[test]
    fn wide_fanout_matches_reference_semantics() {
        // The buffered accumulation must agree with the seed evaluator
        // entry by entry (here: after closing both with the same
        // assignment).
        let tree = wide_fanout_tree(64);
        let compiled = compile(&parse_query("[//b or */c]").unwrap());
        let run = bottom_up(&tree, &compiled);
        let ref_run = crate::eval::reference::bottom_up_reference(&tree, &compiled);
        assert_eq!(run.work_units, ref_run.work_units);
        let assign = |v: parbox_bool::Var| (v.frag.0 + v.sub).is_multiple_of(3);
        let close = run
            .triplet
            .substitute(&|v| Some(Formula::constant(assign(v))));
        let ref_close = ref_run
            .triplet
            .substitute(&|v| Some(parbox_bool::reference::RefFormula::Const(assign(v))));
        assert_eq!(close.resolved(), ref_close.resolved());
    }
}
