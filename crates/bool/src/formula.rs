//! Boolean formulas — the *partial answers* of ParBoX.
//!
//! A formula is either a constant, a [`Var`], or a Boolean combination.
//! Construction goes through smart constructors that implement the
//! paper's `compFm` procedure (Fig. 3b): composing a constant with a
//! formula folds immediately (`true ∧ f = f`, `false ∧ f = false`, …), so
//! a formula only retains structure that genuinely depends on unknown
//! sub-fragment values.
//!
//! Since the hash-consed arena rework, a [`Formula`] is a `Copy` handle
//! (a [`FormulaId`]) into the process-wide [`crate::arena`]: equality and
//! hashing are `O(1)` id comparisons, identical subformulas are stored
//! once and shared as a DAG, `size`/[`Formula::closed`] read metadata
//! cached at interning, and [`Formula::substitute`], [`Formula::eval`]
//! and the three-valued [`Formula::kleene_all`] are memoized single
//! passes over the DAG. `And`/`Or` remain n-ary and
//! flattened (operands additionally sorted and deduplicated), keeping
//! formula size linear in the number of referenced virtual nodes — the
//! paper's `O(card(F_j))` bound on entry size.
//!
//! Constructors intern through a thread-local cache and, on a miss, the
//! arena's one intern lock (see [`crate::arena`]); snapshots and
//! metadata reads are entirely lock-free.
//!
//! The previous tree representation is preserved verbatim in
//! [`crate::reference`] as a differential-testing oracle.

use crate::arena::{self, DagNode, Node};
use crate::var::Var;
use parbox_xml::FragmentId;
use std::collections::BTreeSet;
use std::fmt;

pub use crate::arena::{ArenaStats, FormulaId, ShardCounters};

/// A Boolean formula over sub-fragment variables — a cheap `Copy` handle
/// into the hash-consing arena. Two handles are equal iff the formulas
/// are structurally identical (canonical form makes this sound).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Formula(FormulaId);

/// The Boolean operator argument of [`comp_fm`], mirroring the paper's
/// `AND`, `OR`, `NEG`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoolOp {
    /// Conjunction.
    And,
    /// Disjunction.
    Or,
    /// Negation (unary; the second operand is ignored).
    Neg,
}

/// The paper's `compFm(f1, f2, op)`: composes two partial answers,
/// folding constants so the result is a truth value whenever possible.
pub fn comp_fm(f1: Formula, f2: Formula, op: BoolOp) -> Formula {
    match op {
        BoolOp::Neg => f1.not(),
        BoolOp::And => Formula::and(f1, f2),
        BoolOp::Or => Formula::or(f1, f2),
    }
}

/// A structural view of a formula's top node, cloned out of the arena
/// for pattern matching ([`Formula::node`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormulaNode {
    /// A known truth value.
    Const(bool),
    /// An unknown triplet entry of a sub-fragment.
    Var(Var),
    /// Negation.
    Not(Formula),
    /// N-ary conjunction (canonical: ≥ 2 sorted, distinct operands).
    And(Vec<Formula>),
    /// N-ary disjunction (canonical: ≥ 2 sorted, distinct operands).
    Or(Vec<Formula>),
}

impl Formula {
    /// The constant `true`.
    pub const TRUE: Formula = Formula(arena::TRUE_ID);
    /// The constant `false`.
    pub const FALSE: Formula = Formula(arena::FALSE_ID);

    /// The id naming this formula in the arena — stable for the life of
    /// the process, suitable as an `O(1)` cache key.
    #[inline]
    pub fn id(self) -> FormulaId {
        self.0
    }

    /// A constant formula.
    #[inline]
    pub fn constant(b: bool) -> Formula {
        if b {
            Formula::TRUE
        } else {
            Formula::FALSE
        }
    }

    /// A variable formula. After the calling thread's first use of `v`
    /// this is a read in the thread's variable table: no hashing of the
    /// node and no intern lock.
    #[inline]
    pub fn var(v: Var) -> Formula {
        Formula(arena::mk_var(v))
    }

    /// The variables of `frag` for sub-queries `0..len`, one vector per
    /// vector kind in `VecKind::ALL` order, from one probe of the
    /// thread's variable table.
    pub(crate) fn var_rows(frag: FragmentId, len: usize) -> [Vec<Formula>; 3] {
        arena::var_rows(frag, len, |ids| ids.iter().map(|&id| Formula(id)).collect())
    }

    /// Smart conjunction with constant folding and flattening.
    pub fn and(a: Formula, b: Formula) -> Formula {
        // Constant cases fold without touching the arena at all.
        match (a, b) {
            (Formula::FALSE, _) | (_, Formula::FALSE) => Formula::FALSE,
            (Formula::TRUE, f) | (f, Formula::TRUE) => f,
            (a, b) => Formula(arena::mk_nary(true, [a.0, b.0])),
        }
    }

    /// Smart disjunction with constant folding and flattening.
    pub fn or(a: Formula, b: Formula) -> Formula {
        match (a, b) {
            (Formula::TRUE, _) | (_, Formula::TRUE) => Formula::TRUE,
            (Formula::FALSE, f) | (f, Formula::FALSE) => f,
            (a, b) => Formula(arena::mk_nary(false, [a.0, b.0])),
        }
    }

    /// Smart negation (double negation and constants fold).
    /// Named after the paper's `NEG`; an owned-`self` combinator rather
    /// than `std::ops::Not` so call sites chain like the other builders.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Formula {
        match self {
            Formula::TRUE => Formula::FALSE,
            Formula::FALSE => Formula::TRUE,
            f => Formula(arena::mk_not(f.0)),
        }
    }

    /// N-ary disjunction of an iterator (absorbs constants). One arena
    /// interning for the whole operand list — `O(k log k)` for fan-out
    /// `k`, unlike a fold of binary [`Formula::or`]s which re-flattens
    /// the accumulator per operand (`O(k²)`). No lock is held while the
    /// iterator runs, so items may themselves build formulas.
    pub fn any<I: IntoIterator<Item = Formula>>(items: I) -> Formula {
        Formula(arena::mk_nary(false, items.into_iter().map(|f| f.0)))
    }

    /// N-ary conjunction of an iterator (absorbs constants); single
    /// interning, like [`Formula::any`].
    pub fn all<I: IntoIterator<Item = Formula>>(items: I) -> Formula {
        Formula(arena::mk_nary(true, items.into_iter().map(|f| f.0)))
    }

    /// True when the formula is a constant. The paper's `isFormula(f)`
    /// predicate is the negation of this. `O(1)`, lock-free.
    #[inline]
    pub fn is_const(&self) -> bool {
        *self == Formula::TRUE || *self == Formula::FALSE
    }

    /// The constant value, if fully evaluated. `O(1)`, lock-free.
    #[inline]
    pub fn as_const(&self) -> Option<bool> {
        match *self {
            Formula::TRUE => Some(true),
            Formula::FALSE => Some(false),
            _ => None,
        }
    }

    /// Number of nodes of the formula's *tree expansion* (shared
    /// subformulas counted once per occurrence, saturating); proxy for
    /// the size a tree representation would occupy. Cached at interning —
    /// `O(1)` per call.
    pub fn size(&self) -> usize {
        usize::try_from(arena::size_of(self.0)).unwrap_or(usize::MAX)
    }

    /// The set of variables occurring in the formula.
    pub fn vars(&self) -> BTreeSet<Var> {
        let dag = arena::snapshot(&[self.0]);
        let mut out = BTreeSet::new();
        for node in &dag.nodes {
            if let DagNode::Var(v) = node {
                out.insert(*v);
            }
        }
        out
    }

    /// True when the formula references at least one variable. Cached at
    /// interning — `O(1)` per call, no set materialized.
    #[inline]
    pub fn has_free_vars(&self) -> bool {
        if self.is_const() {
            return false;
        }
        arena::has_vars(self.0)
    }

    /// True when the formula references no variables. By canonical
    /// construction a variable-free formula is always a constant, so this
    /// is equivalent to [`Formula::is_const`] — but it is spelled against
    /// the cached `has_free_vars` bit so the equivalence is checked, not
    /// assumed, in debug builds.
    pub fn closed(&self) -> bool {
        let closed = !self.has_free_vars();
        debug_assert_eq!(closed, self.is_const());
        closed
    }

    /// A structural view of the top node, for pattern matching.
    pub fn node(&self) -> FormulaNode {
        match arena::node(self.0) {
            Node::Const(b) => FormulaNode::Const(*b),
            Node::Var(v) => FormulaNode::Var(*v),
            Node::Not(x) => FormulaNode::Not(Formula(*x)),
            Node::And(xs) => FormulaNode::And(xs.iter().map(|&x| Formula(x)).collect()),
            Node::Or(xs) => FormulaNode::Or(xs.iter().map(|&x| Formula(x)).collect()),
        }
    }

    /// Substitutes variables using `lookup`, re-simplifying along the
    /// way. Variables for which `lookup` returns `None` remain free.
    ///
    /// One memoized pass over the shared DAG: every distinct subformula
    /// is rebuilt once and `lookup` is consulted once per distinct
    /// variable, regardless of how often either occurs in the tree
    /// expansion.
    pub fn substitute<F>(&self, lookup: &F) -> Formula
    where
        F: Fn(Var) -> Option<Formula>,
    {
        Self::substitute_all(std::slice::from_ref(self), lookup)[0]
    }

    /// [`Formula::substitute`] over several formulas at once, sharing one
    /// snapshot and one memo table — the coordinator substitutes all
    /// `3·|QList|` entries of a triplet in a single DAG pass.
    pub fn substitute_all<F>(fs: &[Formula], lookup: &F) -> Vec<Formula>
    where
        F: Fn(Var) -> Option<Formula>,
    {
        // Fast path: nothing to substitute into.
        if fs.iter().all(|f| f.is_const()) {
            return fs.to_vec();
        }
        let roots: Vec<FormulaId> = fs.iter().map(|f| f.0).collect();
        let dag = arena::snapshot(&roots);
        // One lookup per *distinct* variable node, regardless of how
        // often it occurs in the tree expansion.
        let replacements: Vec<Option<Formula>> = dag
            .nodes
            .iter()
            .map(|node| match node {
                DagNode::Var(v) => lookup(*v),
                _ => None,
            })
            .collect();
        // Rebuild bottom-up; `memo[i]` is the substituted formula of
        // local node `i`. Re-interning unchanged subformulas mostly hits
        // the thread-local intern cache.
        let mut memo: Vec<FormulaId> = Vec::with_capacity(dag.nodes.len());
        for (i, node) in dag.nodes.iter().enumerate() {
            let id = match node {
                DagNode::Const(b) => arena::mk_const(*b),
                DagNode::Var(v) => match replacements[i] {
                    Some(repl) => repl.0,
                    None => arena::mk_var(*v),
                },
                DagNode::Not(x) => arena::mk_not(memo[*x as usize]),
                DagNode::And(r) => {
                    arena::mk_nary(true, dag.ops(r).iter().map(|&x| memo[x as usize]))
                }
                DagNode::Or(r) => {
                    arena::mk_nary(false, dag.ops(r).iter().map(|&x| memo[x as usize]))
                }
            };
            memo.push(id);
        }
        dag.roots
            .iter()
            .map(|&r| Formula(memo[r as usize]))
            .collect()
    }

    /// Evaluates the formula under a total assignment. One memoized pass
    /// over the shared DAG; the traversal is lock-free and `assign` runs
    /// against local data only.
    pub fn eval<F>(&self, assign: &F) -> bool
    where
        F: Fn(Var) -> bool,
    {
        let leaf = |n: &Node| match n {
            Node::Const(b) => *b,
            Node::Var(v) => assign(*v),
            _ => unreachable!("fold passes only leaves"),
        };
        arena::fold(&[self.0], leaf, |op, ops| match op {
            Node::Not(_) => !ops[0],
            Node::And(_) => ops.iter().all(|&b| b),
            _ => ops.iter().any(|&b| b),
        })[0]
    }

    /// Kleene three-valued evaluation of several formulas in one memoized
    /// pass: `Some` when a formula has that value under every value of
    /// the variables `lookup` leaves unknown (`None`), `None` otherwise.
    /// Interns nothing; the arena only folds constants, flattens,
    /// deduplicates and cancels double negation, so a formula is
    /// determined exactly when substituting the known variables folds it
    /// to a constant.
    ///
    /// Each determined value carries the least *depth* at which it is
    /// determined. A constant formula is determined at
    /// `floor`, a variable at the larger of `floor` and the depth
    /// `lookup` gives it; a disjunction that is true at the least depth
    /// of its true operands, one that is false at the greatest depth of
    /// all its operands, and a conjunction dually. If a variable's depth
    /// is the least cut-off at which it is known, a result's depth is
    /// the least cut-off at which substituting the variables known by
    /// then folds the formula to that constant.
    pub fn kleene_all<F>(fs: &[Formula], floor: u32, lookup: &F) -> Vec<Option<Known>>
    where
        F: Fn(Var) -> Option<Known>,
    {
        let at_floor = |value| Known {
            value,
            depth: floor,
        };
        let roots: Vec<FormulaId> = fs.iter().map(|f| f.0).collect();
        arena::fold(
            &roots,
            |leaf| match leaf {
                Node::Const(b) => Some(at_floor(*b)),
                Node::Var(v) => lookup(*v).map(|k| Known {
                    value: k.value,
                    depth: k.depth.max(floor),
                }),
                _ => unreachable!("fold passes only leaves"),
            },
            |op, ops| match op {
                Node::Not(_) => ops[0].map(|k| Known {
                    value: !k.value,
                    ..k
                }),
                Node::And(_) => junction(false, ops.iter().copied()),
                _ => junction(true, ops.iter().copied()),
            },
        )
    }

    /// Arena occupancy and intern-path counters (the intern map's, plus
    /// thread-local cache hits) — used by regression tests to assert
    /// construction-cost bounds and by the benchmark's `bool.arena_*`
    /// metrics.
    pub fn arena_stats() -> ArenaStats {
        arena::stats()
    }

    /// Snapshot of the DAG reachable from `roots` (crate-internal; the
    /// wire encoder and renderer traverse snapshots, never the arena).
    pub(crate) fn snapshot_many(roots: &[Formula]) -> crate::arena::Dag {
        let ids: Vec<FormulaId> = roots.iter().map(|f| f.0).collect();
        arena::snapshot(&ids)
    }
}

/// A truth value determined by three-valued evaluation
/// ([`Formula::kleene_all`]), with the least depth at which it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Known {
    /// The truth value.
    pub value: bool,
    /// The least depth at which the value is determined.
    pub depth: u32,
}

/// Kleene value of an n-ary junction whose `absorbing` operand value
/// decides it (`false` for `And`, `true` for `Or`): decided at the least
/// depth of its absorbing operands, else, once every operand is known,
/// the other value at the greatest depth of all of them.
fn junction<I: Iterator<Item = Option<Known>>>(absorbing: bool, ops: I) -> Option<Known> {
    let (mut decided, mut open, mut latest) = (None::<u32>, false, 0u32);
    for k in ops {
        match k {
            Some(k) if k.value == absorbing => {
                decided = Some(decided.map_or(k.depth, |d| d.min(k.depth)));
            }
            Some(k) => latest = latest.max(k.depth),
            None => open = true,
        }
    }
    match decided {
        Some(depth) => Some(Known {
            value: absorbing,
            depth,
        }),
        None if open => None,
        None => Some(Known {
            value: !absorbing,
            depth: latest,
        }),
    }
}

impl From<bool> for Formula {
    fn from(b: bool) -> Self {
        Formula::constant(b)
    }
}

impl From<Var> for Formula {
    fn from(v: Var) -> Self {
        Formula::var(v)
    }
}

impl fmt::Display for Formula {
    /// Renders the tree expansion in the paper's notation. Iterative
    /// (explicit work stack), so deep chains cannot overflow the call
    /// stack; output length equals the tree-expansion size.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        render(*self, f)
    }
}

impl fmt::Debug for Formula {
    /// Debug output matches `Display` — a rendered formula reads better
    /// in assertion failures than an opaque arena id.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        render(*self, f)
    }
}

/// Iterative renderer over a DAG snapshot.
fn render(formula: Formula, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let dag = Formula::snapshot_many(&[formula]);
    enum Tok {
        Node(u32),
        Lit(&'static str),
    }
    let mut stack = vec![Tok::Node(dag.roots[0])];
    while let Some(tok) = stack.pop() {
        match tok {
            Tok::Lit(s) => f.write_str(s)?,
            Tok::Node(ix) => match &dag.nodes[ix as usize] {
                DagNode::Const(b) => f.write_str(if *b { "1" } else { "0" })?,
                DagNode::Var(v) => write!(f, "{v}")?,
                DagNode::Not(x) => {
                    f.write_str("¬(")?;
                    stack.push(Tok::Lit(")"));
                    stack.push(Tok::Node(*x));
                }
                DagNode::And(r) | DagNode::Or(r) => {
                    let sep = if matches!(&dag.nodes[ix as usize], DagNode::And(_)) {
                        " ∧ "
                    } else {
                        " ∨ "
                    };
                    f.write_str("(")?;
                    stack.push(Tok::Lit(")"));
                    for (k, &x) in dag.ops(r).iter().enumerate().rev() {
                        stack.push(Tok::Node(x));
                        if k > 0 {
                            stack.push(Tok::Lit(sep));
                        }
                    }
                }
            },
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::VecKind;
    use parbox_xml::FragmentId;

    fn v(i: u32) -> Formula {
        Formula::var(Var::new(FragmentId(i), VecKind::V, 0))
    }

    #[test]
    fn constant_folding_and() {
        assert_eq!(Formula::and(Formula::TRUE, v(1)), v(1));
        assert_eq!(Formula::and(v(1), Formula::TRUE), v(1));
        assert_eq!(Formula::and(Formula::FALSE, v(1)), Formula::FALSE);
        assert_eq!(Formula::and(v(1), Formula::FALSE), Formula::FALSE);
        assert_eq!(Formula::and(Formula::TRUE, Formula::FALSE), Formula::FALSE);
    }

    #[test]
    fn constant_folding_or() {
        assert_eq!(Formula::or(Formula::FALSE, v(1)), v(1));
        assert_eq!(Formula::or(v(1), Formula::FALSE), v(1));
        assert_eq!(Formula::or(Formula::TRUE, v(1)), Formula::TRUE);
        assert_eq!(Formula::or(v(1), Formula::TRUE), Formula::TRUE);
    }

    #[test]
    fn comp_fm_matches_paper_cases() {
        // (c0) two constants.
        assert_eq!(
            comp_fm(Formula::TRUE, Formula::TRUE, BoolOp::And),
            Formula::TRUE
        );
        assert_eq!(
            comp_fm(Formula::TRUE, Formula::FALSE, BoolOp::And),
            Formula::FALSE
        );
        // (c1) constant, formula.
        assert_eq!(comp_fm(Formula::TRUE, v(1), BoolOp::And), v(1));
        assert_eq!(comp_fm(Formula::FALSE, v(1), BoolOp::And), Formula::FALSE);
        assert_eq!(comp_fm(Formula::TRUE, v(1), BoolOp::Or), Formula::TRUE);
        assert_eq!(comp_fm(Formula::FALSE, v(1), BoolOp::Or), v(1));
        // (c2) formula, constant — symmetric.
        assert_eq!(comp_fm(v(1), Formula::TRUE, BoolOp::And), v(1));
        assert_eq!(comp_fm(v(1), Formula::FALSE, BoolOp::Or), v(1));
        // (c3) two formulas — structure retained.
        let f = comp_fm(v(1), v(2), BoolOp::And);
        assert!(matches!(f.node(), FormulaNode::And(_)));
        // NEG ignores the second operand.
        assert_eq!(comp_fm(Formula::TRUE, v(9), BoolOp::Neg), Formula::FALSE);
    }

    #[test]
    fn nary_flattening() {
        let f = Formula::and(Formula::and(v(1), v(2)), v(3));
        let FormulaNode::And(xs) = f.node() else {
            panic!("{f}")
        };
        assert_eq!(xs.len(), 3);
        let g = Formula::or(v(1), Formula::or(v(2), v(3)));
        let FormulaNode::Or(xs) = g.node() else {
            panic!("{g}")
        };
        assert_eq!(xs.len(), 3);
    }

    #[test]
    fn hash_consing_makes_equality_id_equality() {
        // The same formula built twice, in different operand order, is
        // the same arena node.
        let a = Formula::and(Formula::or(v(1), v(2)), v(3).not());
        let b = Formula::and(v(3).not(), Formula::or(v(2), v(1)));
        assert_eq!(a.id(), b.id());
        assert_eq!(a, b);
        // Duplicate operands collapse.
        assert_eq!(Formula::and(v(1), v(1)), v(1));
        assert_eq!(Formula::any([v(2), v(1), v(2)]), Formula::or(v(1), v(2)));
    }

    #[test]
    fn double_negation_folds() {
        assert_eq!(v(1).not().not(), v(1));
        assert_eq!(Formula::TRUE.not(), Formula::FALSE);
    }

    #[test]
    fn any_and_all_absorb() {
        assert_eq!(Formula::any(vec![]), Formula::FALSE);
        assert_eq!(Formula::all(vec![]), Formula::TRUE);
        assert_eq!(Formula::any(vec![Formula::FALSE, v(2)]), v(2));
        assert_eq!(Formula::all(vec![Formula::TRUE, v(2)]), v(2));
        assert_eq!(Formula::any(vec![v(1), Formula::TRUE]), Formula::TRUE);
        assert_eq!(Formula::all(vec![v(1), Formula::FALSE]), Formula::FALSE);
    }

    #[test]
    fn vars_collects_all() {
        let f = Formula::and(Formula::or(v(1), v(2)), v(3).not());
        let vs = f.vars();
        assert_eq!(vs.len(), 3);
    }

    #[test]
    fn closed_without_materializing_vars() {
        assert!(Formula::TRUE.closed());
        assert!(!v(1).closed());
        assert!(!Formula::or(v(1), v(2)).closed());
        assert!(v(1).has_free_vars());
        assert!(!Formula::FALSE.has_free_vars());
    }

    #[test]
    fn substitution_resolves_and_simplifies() {
        // (v1 ∨ v2) ∧ ¬v3 with v1=false, v2=true, v3=false → true.
        let f = Formula::and(Formula::or(v(1), v(2)), v(3).not());
        let g = f.substitute(&|var: Var| match var.frag.0 {
            1 => Some(Formula::FALSE),
            2 => Some(Formula::TRUE),
            3 => Some(Formula::FALSE),
            _ => None,
        });
        assert_eq!(g, Formula::TRUE);
    }

    #[test]
    fn partial_substitution_leaves_free_vars() {
        let f = Formula::or(v(1), v(2));
        let g = f.substitute(&|var: Var| (var.frag.0 == 1).then_some(Formula::FALSE));
        assert_eq!(g, v(2));
        let h = f.substitute(&|var: Var| (var.frag.0 == 1).then_some(Formula::TRUE));
        assert_eq!(h, Formula::TRUE);
    }

    #[test]
    fn substitute_all_shares_one_memo() {
        let fs = [Formula::or(v(1), v(2)), Formula::and(v(1), v(2)), v(1)];
        let out =
            Formula::substitute_all(&fs, &|var: Var| Some(Formula::constant(var.frag.0 == 1)));
        assert_eq!(out, vec![Formula::TRUE, Formula::FALSE, Formula::TRUE]);
    }

    #[test]
    fn eval_total_assignment() {
        let f = Formula::and(v(1), v(2).not());
        assert!(f.eval(&|var: Var| var.frag.0 == 1));
        assert!(!f.eval(&|_| true));
    }

    #[test]
    fn kleene_decides_what_every_completion_agrees_on() {
        let f = Formula::and(Formula::or(v(1), v(2)), v(3).not());
        let kleene = |known: &dyn Fn(u32) -> Option<bool>| {
            let lookup = |var: Var| known(var.frag.0).map(|value| Known { value, depth: 0 });
            Formula::kleene_all(&[f], 0, &lookup)[0].map(|k| k.value)
        };
        // v3 = true decides the conjunction whatever v1 and v2 are.
        assert_eq!(kleene(&|frag| (frag == 3).then_some(true)), Some(false));
        // v1 = true leaves ¬v3 open.
        assert_eq!(kleene(&|frag| (frag == 1).then_some(true)), None);
        assert_eq!(kleene(&|frag| Some(frag != 3)), Some(true));
    }

    #[test]
    fn kleene_depth_is_the_least_depth_that_decides() {
        let known = |value, depth| Some(Known { value, depth });
        let depth_of = |var: Var| match var.frag.0 {
            1 => known(true, 5),
            2 => known(true, 2),
            3 => known(false, 7),
            _ => None,
        };
        // A true disjunction needs only its shallowest true operand…
        let or = Formula::or(v(1), v(2));
        // …a false conjunction its shallowest false one; a true
        // conjunction needs all of them, and constants sit at the floor.
        let and = Formula::and(v(1), v(2));
        let fs = [or, Formula::and(v(1), v(3)), and, and.not(), Formula::TRUE];
        assert_eq!(
            Formula::kleene_all(&fs, 1, &depth_of),
            vec![
                known(true, 2),
                known(false, 7),
                known(true, 5),
                known(false, 5),
                known(true, 1),
            ]
        );
        // Variables never resolve shallower than the floor.
        assert_eq!(
            Formula::kleene_all(&[or], 3, &depth_of),
            vec![known(true, 3)]
        );
        assert_eq!(
            Formula::kleene_all(&[Formula::or(v(1), v(4))], 0, &depth_of),
            vec![known(true, 5)]
        );
        assert_eq!(
            Formula::kleene_all(&[Formula::and(v(1), v(4))], 0, &depth_of),
            vec![None]
        );
    }

    #[test]
    fn size_counts_tree_expansion_nodes() {
        assert_eq!(Formula::TRUE.size(), 1);
        assert_eq!(v(1).size(), 1);
        assert_eq!(Formula::and(v(1), v(2)).size(), 3);
        assert_eq!(Formula::and(v(1), v(2)).not().size(), 4);
        // Shared subformulas count once per occurrence:
        // And[¬(v1∨v2), (v1∨v2∨v3)] — the second Or flattens.
        let shared = Formula::or(v(1), v(2));
        let f = Formula::and(shared.not(), Formula::or(shared, v(3)));
        assert_eq!(f.size(), 1 + (1 + 3) + 4);
    }

    #[test]
    fn display_uses_paper_notation() {
        let f = Formula::or(v(1), v(2).not());
        let s = f.to_string();
        // Operand order is canonical (by arena id), so accept either.
        assert!(
            s == "(x1@F1 ∨ ¬(x1@F2))" || s == "(¬(x1@F2) ∨ x1@F1)",
            "{s}"
        );
        assert_eq!(Formula::TRUE.to_string(), "1");
        assert_eq!(v(1).not().to_string(), "¬(x1@F1)");
    }

    #[test]
    fn substitution_with_open_replacements() {
        // Replacement formulas may themselves be open.
        let f = Formula::and(v(1), v(2));
        let g = f.substitute(&|var: Var| (var.frag.0 == 1).then(|| Formula::or(v(3), v(4))));
        assert_eq!(g, Formula::all([Formula::or(v(3), v(4)), v(2)]));
    }

    #[test]
    fn arena_stats_monotone() {
        let before = Formula::arena_stats();
        let _ = Formula::any((0..16).map(v));
        let after = Formula::arena_stats();
        assert!(after.nodes >= before.nodes);
        assert!(after.operand_slots >= before.operand_slots);
    }
}
