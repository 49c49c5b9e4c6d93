//! The per-node reference evaluators, kept as oracles and baselines; no
//! production path calls into this module.
//!
//! * [`centralized_eval_reference`] — the per-node bitset interpreter that
//!   was the centralized kernel before the column-at-a-time kernel
//!   (`eval/columns.rs`) replaced it: one postorder walk, the whole
//!   `QList` interpreted at every node into `|QList|`-bit vectors. It is
//!   the oracle the kernel's differential tests compare against, answer
//!   and work units alike.
//! * [`bottom_up_reference`] — the **seed** `bottomUp` evaluator over
//!   [`parbox_bool::reference::RefFormula`] trees with the original
//!   pairwise child accumulation: the differential-testing oracle the
//!   hash-consed arena is checked against. This is a line-for-line port of the pre-arena
//!   implementation: the accumulation loop re-flattens the growing n-ary
//!   `Or` once per child (`O(k²)` over fan-out `k`), and every
//!   composition allocates a fresh `Vec` + `Arc<[..]>`. Its virtual-free
//!   subtrees run on the per-node interpreter above, as they did in the
//!   seed.
//!
//! Production callers use [`crate::eval::centralized_eval()`] and
//! [`crate::eval::bottom_up()`].

use crate::eval::bitset::BitSet;
use crate::eval::centralized::CentralizedRun;
use parbox_bool::reference::{RefFormula, RefTriplet};
use parbox_query::{CompiledQuery, Op, ResolvedQuery};
use parbox_xml::{FragmentId, NodeId, Tree};

/// Per-node reference for [`crate::eval::centralized_eval_counted()`]:
/// the same answer and work units, computed node by node.
pub fn centralized_eval_reference(tree: &Tree, q: &CompiledQuery) -> CentralizedRun {
    let resolved = q.resolve(tree.labels());
    let (v, _cv, _dv, nodes) = eval_vectors_at(tree, &resolved, tree.root());
    CentralizedRun {
        answer: v.get(resolved.root as usize),
        work_units: nodes * resolved.len() as u64,
    }
}

/// Runs the per-node interpreter over the subtree at `start` and returns
/// its `(V, CV, DV)` vectors and the number of nodes visited.
pub(crate) fn eval_vectors_at(
    tree: &Tree,
    resolved: &ResolvedQuery,
    start: NodeId,
) -> (BitSet, BitSet, BitSet, u64) {
    let m = resolved.len();
    let mut eval = Evaluator {
        tree,
        q: resolved,
        m,
        pool: Vec::new(),
        nodes: 0,
    };
    let (v, cv, dv) = eval.run(start);
    (v, cv, dv, eval.nodes)
}

struct Evaluator<'a> {
    tree: &'a Tree,
    q: &'a ResolvedQuery,
    m: usize,
    /// Pool of zeroed bitsets for frame reuse (at most O(depth) live).
    pool: Vec<BitSet>,
    nodes: u64,
}

struct BitFrame {
    node: NodeId,
    child_idx: usize,
    cv: BitSet,
    dv: BitSet,
}

impl<'a> Evaluator<'a> {
    /// Returns a zeroed bitset, reusing pooled ones.
    fn alloc(&mut self) -> BitSet {
        match self.pool.pop() {
            Some(mut b) => {
                b.clear();
                b
            }
            None => BitSet::zeros(self.m),
        }
    }

    /// Iterative postorder evaluation; returns `(V, CV, DV)` of `start`.
    fn run(&mut self, start: NodeId) -> (BitSet, BitSet, BitSet) {
        let (cv, dv) = (self.alloc(), self.alloc());
        let mut stack = vec![BitFrame {
            node: start,
            child_idx: 0,
            cv,
            dv,
        }];
        // (V, DV) of the most recently completed child.
        let mut done: Option<(BitSet, BitSet)> = None;
        loop {
            let frame = stack.last_mut().expect("non-empty until return");
            // Fold the child that just completed into the accumulators.
            if let Some((v_w, dv_w)) = done.take() {
                frame.cv.or_assign(&v_w);
                frame.dv.or_assign(&dv_w);
                self.pool.push(v_w);
                self.pool.push(dv_w);
            }
            let kids = self.tree.node(frame.node).child_ids();
            if frame.child_idx < kids.len() {
                let child = kids[frame.child_idx];
                frame.child_idx += 1;
                let (cv, dv) = (self.alloc(), self.alloc());
                stack.push(BitFrame {
                    node: child,
                    child_idx: 0,
                    cv,
                    dv,
                });
                continue;
            }
            // All children folded: compute V at this node.
            let frame = stack.pop().expect("just peeked");
            let keep_cv = stack.is_empty();
            let cv_root = if keep_cv {
                Some(frame.cv.clone())
            } else {
                None
            };
            let (v, dv) = self.compute_node(frame);
            if let Some(cv) = cv_root {
                return (v, cv, dv);
            }
            done = Some((v, dv));
        }
    }

    /// Computes the `V` vector at a node from its accumulated `CV`/`DV`,
    /// updating `DV` with `V` (paper, Fig. 3b lines 6–17).
    fn compute_node(&mut self, frame: BitFrame) -> (BitSet, BitSet) {
        self.nodes += 1;
        let BitFrame {
            node, cv, mut dv, ..
        } = frame;
        let n = self.tree.node(node);
        let mut v = self.alloc();
        for (i, op) in self.q.ops.iter().enumerate() {
            let value = match op {
                Op::True => true,
                // A virtual node has no label/text of its own.
                Op::LabelIs(l) => !n.kind.is_virtual() && Some(n.label) == *l,
                Op::TextIs(s) => !n.kind.is_virtual() && n.text.as_deref() == Some(s.as_ref()),
                Op::Child(j) => cv.get(*j as usize),
                Op::Desc(j) => dv.get(*j as usize),
                Op::Or(a, b) => v.get(*a as usize) || v.get(*b as usize),
                Op::And(a, b) => v.get(*a as usize) && v.get(*b as usize),
                Op::Not(a) => !v.get(*a as usize),
            };
            v.set(i, value);
            if value {
                dv.set(i, true); // line 17: DV := V ∨ DV
            }
        }
        self.pool.push(cv);
        (v, dv)
    }
}

/// Result of partially evaluating one fragment in the seed
/// representation.
#[derive(Debug, Clone)]
pub struct RefFragmentRun {
    /// The computed `(V, CV, DV)` triplet for the fragment root.
    pub triplet: RefTriplet,
    /// Work units: `nodes visited × |QList|` (identical accounting to
    /// [`crate::eval::bottom_up()`]).
    pub work_units: u64,
}

/// Seed-representation `bottomUp` (same spine fast path, original
/// formula kernel).
pub fn bottom_up_reference(tree: &Tree, q: &CompiledQuery) -> RefFragmentRun {
    let resolved = q.resolve(tree.labels());
    let m = resolved.len();
    let root = tree.root();
    // `spine[n]` — does n's subtree contain a virtual node? One postorder
    // sweep.
    let mut spine = vec![false; tree.arena_len()];
    for n in tree.postorder(root) {
        let node = tree.node(n);
        spine[n.index()] =
            node.kind.is_virtual() || node.child_ids().iter().any(|c| spine[c.index()]);
    }
    if !spine[root.index()] {
        let (v, cv, dv, nodes) = eval_vectors_at(tree, &resolved, root);
        let to_vec = |b: &BitSet| {
            (0..m)
                .map(|i| RefFormula::Const(b.get(i)))
                .collect::<Vec<_>>()
        };
        return RefFragmentRun {
            triplet: RefTriplet {
                v: to_vec(&v),
                cv: to_vec(&cv),
                dv: to_vec(&dv),
            },
            work_units: nodes * m as u64,
        };
    }
    let mut eval = RefEvaluator {
        tree,
        q: &resolved,
        m,
        nodes: 0,
        spine: &spine,
    };
    let (v, cv, dv) = eval.run(root);
    RefFragmentRun {
        triplet: RefTriplet { v, cv, dv },
        work_units: eval.nodes * m as u64,
    }
}

struct RefEvaluator<'a> {
    tree: &'a Tree,
    q: &'a ResolvedQuery,
    m: usize,
    nodes: u64,
    spine: &'a [bool],
}

struct Frame {
    node: NodeId,
    child_idx: usize,
    cv: Vec<RefFormula>,
    dv: Vec<RefFormula>,
}

type Vectors = (Vec<RefFormula>, Vec<RefFormula>, Vec<RefFormula>);

impl<'a> RefEvaluator<'a> {
    fn empty_frame(&self, node: NodeId) -> Frame {
        Frame {
            node,
            child_idx: 0,
            cv: vec![RefFormula::FALSE; self.m],
            dv: vec![RefFormula::FALSE; self.m],
        }
    }

    fn run(&mut self, start: NodeId) -> Vectors {
        let mut stack = vec![self.empty_frame(start)];
        let mut done: Option<(Vec<RefFormula>, Vec<RefFormula>)> = None;
        loop {
            let frame = stack.last_mut().expect("non-empty until return");
            if let Some((v_w, dv_w)) = done.take() {
                // The seed accumulation: one binary `or` per child, which
                // re-flattens the accumulated n-ary node every time.
                for i in 0..self.m {
                    frame.cv[i] = RefFormula::or(take(&mut frame.cv[i]), v_w[i].clone());
                    frame.dv[i] = RefFormula::or(take(&mut frame.dv[i]), dv_w[i].clone());
                }
            }
            let kids = self.tree.node(frame.node).child_ids();
            if frame.child_idx < kids.len() {
                let child = kids[frame.child_idx];
                frame.child_idx += 1;
                if !self.spine[child.index()] {
                    let (v, _cv, dv, nodes) = eval_vectors_at(self.tree, self.q, child);
                    self.nodes += nodes;
                    let to_vec = |b: &BitSet, m: usize| {
                        (0..m)
                            .map(|i| RefFormula::Const(b.get(i)))
                            .collect::<Vec<_>>()
                    };
                    done = Some((to_vec(&v, self.m), to_vec(&dv, self.m)));
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

    fn compute_node(&mut self, frame: Frame) -> Vectors {
        self.nodes += 1;
        let Frame {
            node, cv, mut dv, ..
        } = frame;
        let n = self.tree.node(node);
        if let Some(frag) = n.kind.fragment() {
            return self.virtual_vectors(frag);
        }
        let mut v: Vec<RefFormula> = Vec::with_capacity(self.m);
        for (i, op) in self.q.ops.iter().enumerate() {
            let value = match op {
                Op::True => RefFormula::TRUE,
                Op::LabelIs(l) => RefFormula::Const(Some(n.label) == *l),
                Op::TextIs(s) => RefFormula::Const(n.text.as_deref() == Some(s.as_ref())),
                Op::Child(j) => cv[*j as usize].clone(),
                Op::Desc(j) => dv[*j as usize].clone(),
                Op::Or(a, b) => RefFormula::or(v[*a as usize].clone(), v[*b as usize].clone()),
                Op::And(a, b) => RefFormula::and(v[*a as usize].clone(), v[*b as usize].clone()),
                Op::Not(a) => v[*a as usize].clone().not(),
            };
            dv[i] = RefFormula::or(value.clone(), take(&mut dv[i]));
            v.push(value);
        }
        (v, cv, dv)
    }

    fn virtual_vectors(&self, frag: FragmentId) -> Vectors {
        let t = RefTriplet::fresh_vars(frag, self.m);
        (t.v, t.cv, t.dv)
    }
}

#[inline]
fn take(f: &mut RefFormula) -> RefFormula {
    std::mem::replace(f, RefFormula::FALSE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbox_query::{compile, parse_query};

    #[test]
    fn reference_agrees_with_production_on_closed_trees() {
        for (xml, q) in [
            ("<a><b><c>x</c></b><d/></a>", "[//c = \"x\" and //d]"),
            ("<a><b/><b><c/></b></a>", "[//b[c]]"),
            ("<r><s><t/></s></r>", "[not //q or //t]"),
        ] {
            let tree = Tree::parse(xml).unwrap();
            let compiled = compile(&parse_query(q).unwrap());
            let prod = crate::eval::bottom_up(&tree, &compiled);
            let seed = bottom_up_reference(&tree, &compiled);
            assert_eq!(
                prod.triplet.resolved().expect("closed"),
                seed.triplet.resolved().expect("closed"),
                "{xml} {q}"
            );
            assert_eq!(prod.work_units, seed.work_units);
        }
    }

    #[test]
    fn reference_agrees_on_open_fragments_under_all_small_assignments() {
        let tree = Tree::parse(r#"<a><parbox:virtual ref="1"/><b/><parbox:virtual ref="2"/></a>"#)
            .unwrap();
        let compiled = compile(&parse_query("[//b and */c]").unwrap());
        let prod = crate::eval::bottom_up(&tree, &compiled);
        let seed = bottom_up_reference(&tree, &compiled);
        for bits in 0..64u32 {
            let assign = move |v: parbox_bool::Var| {
                let h = v.frag.0 * 7 + v.sub * 3 + v.vec as u32;
                bits & (1 << (h % 6)) != 0
            };
            let p = prod
                .triplet
                .substitute(&|v| Some(parbox_bool::Formula::constant(assign(v))))
                .resolved()
                .expect("closed");
            let s = seed
                .triplet
                .substitute(&|v| Some(RefFormula::Const(assign(v))))
                .resolved()
                .expect("closed");
            assert_eq!(p, s, "assignment {bits:b}");
        }
    }
}
