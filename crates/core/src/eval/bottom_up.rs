//! Procedure `bottomUp` (paper, Fig. 3b): partial evaluation of the
//! sub-query list over one fragment, producing a `(V, CV, DV)` triplet of
//! Boolean *formulas*.
//!
//! At a virtual node (a leaf standing for sub-fragment `F_k`) the values
//! of the sub-queries are unknown; fresh variables `x_i`, `cx_i`, `dx_i`
//! are introduced instead (Example 3.1) and the traversal continues
//! without waiting — this is what decouples the dependencies between the
//! per-fragment partial-evaluation processes.
//!
//! Only the *spine* — the nodes whose subtree holds a virtual node —
//! needs formulas; everywhere else every value is a constant. So
//! [`bottom_up`] first runs the column-at-a-time bitset kernel
//! (`eval/columns.rs`) over the whole fragment, which gives the `V` and
//! `DV` of every node as bits, and computes the spine as the kernel's
//! upward closure of the virtual column — the nodes where `//virtual`
//! holds. A fragment without virtual nodes (every leaf fragment, and
//! whole documents) is then finished: its triplet is constants read from
//! the root's bits. Otherwise the formula evaluator below walks the spine
//! only, taking the `V`/`DV` of each off-spine child from the columns.
//!
//! The formula evaluator keeps only two vector triplets at a time per
//! live ancestor (current accumulation + completed child), not one per
//! node. Child accumulation is **buffered**: each live frame collects
//! per-sub-query operand lists and interns one n-ary `Or` per entry when
//! the node completes, so fan-out `k` costs `O(k)` operand slots instead
//! of the `O(k²)` a pairwise re-flattening accumulation pays (see the
//! `wide_fanout_*` regression tests). An off-spine child contributes a
//! `true` operand where its bit is set and nothing where it is clear —
//! the operand set the formula path would build from its constants, so
//! the triplet is id-identical to [`bottom_up_formula_only`]'s. The seed
//! implementation, with the original accumulation, is preserved in
//! [`crate::eval::reference`] as the `expD` baseline.

use crate::eval::columns::{eval_columns, Columns, Layout};
use parbox_bool::{Formula, Triplet};
use parbox_query::{CompiledQuery, Op, ResolvedQuery};
use parbox_xml::{FragmentId, NodeId, Tree};

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
    let m = resolved.len();
    let layout = Layout::new(tree);
    let work_units = (layout.len() * m) as u64;
    let root = tree.root();
    if !layout.has_virtual() {
        // No unknowns: partial evaluation is full evaluation. The root is
        // position 0 and every node is below it, so `DV` at the root is
        // "the column is not empty".
        let cols = eval_columns(&layout, &resolved, false);
        let kids = layout.column_of(tree.node(root).child_ids());
        let mut t = Triplet {
            v: Vec::with_capacity(m),
            cv: Vec::with_capacity(m),
            dv: Vec::with_capacity(m),
        };
        for i in 0..m {
            let col = cols.v(i);
            t.v.push(Formula::constant(col[0] & 1 != 0));
            t.cv.push(Formula::constant(
                col.iter().zip(&kids).any(|(c, k)| c & k != 0),
            ));
            t.dv.push(Formula::constant(col.iter().any(|&c| c != 0)));
        }
        return FragmentRun {
            triplet: t,
            work_units,
        };
    }
    let cols = eval_columns(&layout, &resolved, true);
    let spine = layout.spine();
    let mut eval = FormulaEvaluator {
        tree,
        q: &resolved,
        m,
        off_spine: Some(OffSpine {
            layout: &layout,
            cols: &cols,
            spine: &spine,
        }),
    };
    let (v, cv, dv) = eval.run(root);
    FragmentRun {
        triplet: Triplet { v, cv, dv },
        work_units,
    }
}

/// Ablation reference: `bottomUp` with the spine optimization disabled —
/// every node is evaluated through the formula path, as a literal reading
/// of the paper's Fig. 3(b) would. Exists so the benchmark suite can
/// quantify the spine fast-path (see `benches/kernels.rs`) and as the
/// differential oracle of [`bottom_up`]; production callers should use
/// [`bottom_up`].
pub fn bottom_up_formula_only(tree: &Tree, q: &CompiledQuery) -> FragmentRun {
    let resolved = q.resolve(tree.labels());
    let m = resolved.len();
    let mut eval = FormulaEvaluator {
        tree,
        q: &resolved,
        m,
        off_spine: None,
    };
    let (v, cv, dv) = eval.run(tree.root());
    FragmentRun {
        triplet: Triplet { v, cv, dv },
        work_units: (tree.len() * m) as u64,
    }
}

struct FormulaEvaluator<'a> {
    tree: &'a Tree,
    q: &'a ResolvedQuery,
    m: usize,
    /// The kernel's values for the nodes off the spine; `None` evaluates
    /// every node as formulas.
    off_spine: Option<OffSpine<'a>>,
}

struct OffSpine<'a> {
    layout: &'a Layout<'a>,
    cols: &'a Columns,
    spine: &'a [u64],
}

impl OffSpine<'_> {
    /// `child`'s position when it is off the spine.
    fn pos(&self, child: NodeId) -> Option<usize> {
        let p = self.layout.pos(child);
        ((self.spine[p / 64] >> (p % 64)) & 1 == 0).then_some(p)
    }
}

struct Frame {
    node: NodeId,
    child_idx: usize,
    /// Per sub-query: `V_w(qi)` of each completed child `w` (lines 3–5's
    /// `CV_v(qi) |= V_w(qi)`, deferred to one n-ary intern at pop).
    cv_ops: Vec<Vec<Formula>>,
    /// Per sub-query: `DV_w(qi)` of each completed child.
    dv_ops: Vec<Vec<Formula>>,
}

type Vectors = (Vec<Formula>, Vec<Formula>, Vec<Formula>);

impl<'a> FormulaEvaluator<'a> {
    fn empty_frame(&self, node: NodeId) -> Frame {
        Frame {
            node,
            child_idx: 0,
            cv_ops: vec![Vec::new(); self.m],
            dv_ops: vec![Vec::new(); self.m],
        }
    }

    /// Iterative postorder evaluation; returns `(V, CV, DV)` of `start`.
    fn run(&mut self, start: NodeId) -> Vectors {
        let mut stack = vec![self.empty_frame(start)];
        // (V, DV) of the most recently completed child.
        let mut done: Option<(Vec<Formula>, Vec<Formula>)> = None;
        loop {
            let frame = stack.last_mut().expect("non-empty until return");
            if let Some((v_w, dv_w)) = done.take() {
                // Lines 3–5: buffer the child's vectors; the disjunction
                // is interned once when this frame pops. `false` operands
                // would be dropped by the n-ary constructor anyway — skip
                // them here so buffers stay proportional to the number of
                // *contributing* children.
                for i in 0..self.m {
                    if v_w[i] != Formula::FALSE {
                        frame.cv_ops[i].push(v_w[i]);
                    }
                    if dv_w[i] != Formula::FALSE {
                        frame.dv_ops[i].push(dv_w[i]);
                    }
                }
            }
            let kids = self.tree.node(frame.node).child_ids();
            if frame.child_idx < kids.len() {
                let child = kids[frame.child_idx];
                frame.child_idx += 1;
                let off_spine = self.off_spine.as_ref();
                if let Some((off, p)) = off_spine.and_then(|off| Some((off, off.pos(child)?))) {
                    // Virtual-free subtree: its constants, read from the
                    // columns — `true` operands only, as above.
                    for i in 0..self.m {
                        if off.cols.v_bit(i, p) {
                            frame.cv_ops[i].push(Formula::TRUE);
                        }
                        if off.cols.dv_bit(i, p) {
                            frame.dv_ops[i].push(Formula::TRUE);
                        }
                    }
                    continue;
                }
                let frame = self.empty_frame(child);
                stack.push(frame);
                continue;
            }
            let frame = stack.pop().expect("just peeked");
            let (v, cv, dv) = self.compute_node(frame);
            if stack.is_empty() {
                return (v, cv, dv);
            }
            done = Some((v, dv));
        }
    }

    /// Computes `V` at a node (lines 6–17), or introduces fresh variables
    /// at a virtual node. The buffered child operands are interned here —
    /// one n-ary `Or` per sub-query entry.
    fn compute_node(&mut self, frame: Frame) -> Vectors {
        let Frame {
            node,
            cv_ops,
            dv_ops,
            ..
        } = frame;
        let n = self.tree.node(node);
        if let Some(frag) = n.kind.fragment() {
            return self.virtual_vectors(frag);
        }
        let cv: Vec<Formula> = cv_ops.into_iter().map(Formula::any).collect();
        let mut dv: Vec<Formula> = Vec::with_capacity(self.m);
        let mut v: Vec<Formula> = Vec::with_capacity(self.m);
        for (i, op) in self.q.ops.iter().enumerate() {
            let value = match op {
                Op::True => Formula::TRUE,
                Op::LabelIs(l) => Formula::constant(Some(n.label) == *l),
                Op::TextIs(s) => Formula::constant(n.text.as_deref() == Some(s.as_ref())),
                Op::Child(j) => cv[*j as usize],
                // Sub-queries are topologically numbered, so `j < i` and
                // `dv[j]` is already finalized (includes `V` at this node).
                Op::Desc(j) => dv[*j as usize],
                Op::Or(a, b) => Formula::or(v[*a as usize], v[*b as usize]),
                Op::And(a, b) => Formula::and(v[*a as usize], v[*b as usize]),
                Op::Not(a) => v[*a as usize].not(),
            };
            // Line 17: DV_v(qi) := V_v(qi) ∨ ⋁_w DV_w(qi), one intern.
            dv.push(Formula::any(
                dv_ops[i].iter().copied().chain(std::iter::once(value)),
            ));
            v.push(value);
        }
        (v, cv, dv)
    }

    /// Fresh-variable triplet for a virtual node referencing `frag`.
    ///
    /// The paper (Example 3.1) additionally runs the case analysis at the
    /// virtual node, so only leaf cases receive fresh variables; unifying
    /// against the sub-fragment's full `(V, CV, DV)` triplet is
    /// semantically identical and keeps the solver uniform (DESIGN.md §4).
    fn virtual_vectors(&self, frag: FragmentId) -> Vectors {
        let t = Triplet::fresh_vars(frag, self.m);
        (t.v, t.cv, t.dv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbox_bool::VecKind;
    use parbox_query::{compile, parse_query};

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
