//! The seed *tree* representation of formulas and triplets, preserved
//! verbatim as a differential-testing oracle.
//!
//! The production [`crate::Formula`] is a handle into the hash-consing
//! arena; this module keeps the original `Arc`-tree enum it replaced,
//! with the original smart constructors, substitution and evaluation —
//! including the original cost profile (per-composition allocation,
//! re-flattening n-ary accumulation, tree-walking substitution). It
//! backs the property tests asserting that arena-built formulas `eval`,
//! `substitute` and resolve identically to the seed semantics
//! (`tests/formula_props.rs`), and the workspace differential tests that
//! compare whole `bottomUp` pipelines against it.
//!
//! Nothing here is used on production paths.

use crate::formula::Formula;
use crate::triplet::{ResolvedTriplet, SolveError};
use crate::var::{Var, VecKind};
use parbox_xml::FragmentId;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// The seed formula tree: one heap node per connective occurrence.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RefFormula {
    /// A known truth value.
    Const(bool),
    /// An unknown triplet entry of a sub-fragment.
    Var(Var),
    /// Negation.
    Not(Arc<RefFormula>),
    /// N-ary conjunction (flattened, at least two operands).
    And(Arc<[RefFormula]>),
    /// N-ary disjunction (flattened, at least two operands).
    Or(Arc<[RefFormula]>),
}

impl RefFormula {
    /// The constant `true`.
    pub const TRUE: RefFormula = RefFormula::Const(true);
    /// The constant `false`.
    pub const FALSE: RefFormula = RefFormula::Const(false);

    /// A variable formula.
    #[inline]
    pub fn var(v: Var) -> RefFormula {
        RefFormula::Var(v)
    }

    /// Seed smart conjunction: constant folding plus per-call
    /// re-flattening into a fresh `Arc<[..]>`.
    pub fn and(a: RefFormula, b: RefFormula) -> RefFormula {
        match (a, b) {
            (RefFormula::Const(false), _) | (_, RefFormula::Const(false)) => RefFormula::FALSE,
            (RefFormula::Const(true), f) | (f, RefFormula::Const(true)) => f,
            (a, b) => {
                let mut ops: Vec<RefFormula> = Vec::with_capacity(2);
                Self::flatten_into(a, &mut ops, true);
                Self::flatten_into(b, &mut ops, true);
                debug_assert!(ops.len() >= 2);
                RefFormula::And(ops.into())
            }
        }
    }

    /// Seed smart disjunction (see [`RefFormula::and`]).
    pub fn or(a: RefFormula, b: RefFormula) -> RefFormula {
        match (a, b) {
            (RefFormula::Const(true), _) | (_, RefFormula::Const(true)) => RefFormula::TRUE,
            (RefFormula::Const(false), f) | (f, RefFormula::Const(false)) => f,
            (a, b) => {
                let mut ops: Vec<RefFormula> = Vec::with_capacity(2);
                Self::flatten_into(a, &mut ops, false);
                Self::flatten_into(b, &mut ops, false);
                debug_assert!(ops.len() >= 2);
                RefFormula::Or(ops.into())
            }
        }
    }

    fn flatten_into(f: RefFormula, ops: &mut Vec<RefFormula>, conj: bool) {
        match (f, conj) {
            (RefFormula::And(xs), true) | (RefFormula::Or(xs), false) => {
                ops.extend(xs.iter().cloned())
            }
            (f, _) => ops.push(f),
        }
    }

    /// Seed smart negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> RefFormula {
        match self {
            RefFormula::Const(b) => RefFormula::Const(!b),
            RefFormula::Not(inner) => (*inner).clone(),
            f => RefFormula::Not(Arc::new(f)),
        }
    }

    /// Seed n-ary disjunction: a fold of binary [`RefFormula::or`] — the
    /// `O(k²)` accumulation the arena's single-pass `any` replaces.
    pub fn any<I: IntoIterator<Item = RefFormula>>(items: I) -> RefFormula {
        items.into_iter().fold(RefFormula::FALSE, RefFormula::or)
    }

    /// Seed n-ary conjunction (fold of binary [`RefFormula::and`]).
    pub fn all<I: IntoIterator<Item = RefFormula>>(items: I) -> RefFormula {
        items.into_iter().fold(RefFormula::TRUE, RefFormula::and)
    }

    /// The constant value, if fully evaluated.
    #[inline]
    pub fn as_const(&self) -> Option<bool> {
        match self {
            RefFormula::Const(b) => Some(*b),
            _ => None,
        }
    }

    /// Number of nodes of the formula tree.
    pub fn size(&self) -> usize {
        match self {
            RefFormula::Const(_) | RefFormula::Var(_) => 1,
            RefFormula::Not(f) => 1 + f.size(),
            RefFormula::And(xs) | RefFormula::Or(xs) => {
                1 + xs.iter().map(RefFormula::size).sum::<usize>()
            }
        }
    }

    /// The set of variables occurring in the formula (materializes the
    /// full set, as the seed did).
    pub fn vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut BTreeSet<Var>) {
        match self {
            RefFormula::Const(_) => {}
            RefFormula::Var(v) => {
                out.insert(*v);
            }
            RefFormula::Not(f) => f.collect_vars(out),
            RefFormula::And(xs) | RefFormula::Or(xs) => {
                for f in xs.iter() {
                    f.collect_vars(out);
                }
            }
        }
    }

    /// Seed substitution: a full tree walk per call, rebuilding shared
    /// sub-DAGs once per occurrence.
    pub fn substitute<F>(&self, lookup: &F) -> RefFormula
    where
        F: Fn(Var) -> Option<RefFormula>,
    {
        match self {
            RefFormula::Const(b) => RefFormula::Const(*b),
            RefFormula::Var(v) => lookup(*v).unwrap_or(RefFormula::Var(*v)),
            RefFormula::Not(f) => f.substitute(lookup).not(),
            RefFormula::And(xs) => RefFormula::all(xs.iter().map(|f| f.substitute(lookup))),
            RefFormula::Or(xs) => RefFormula::any(xs.iter().map(|f| f.substitute(lookup))),
        }
    }

    /// Seed evaluation under a total assignment (tree walk).
    pub fn eval<F>(&self, assign: &F) -> bool
    where
        F: Fn(Var) -> bool,
    {
        match self {
            RefFormula::Const(b) => *b,
            RefFormula::Var(v) => assign(*v),
            RefFormula::Not(f) => !f.eval(assign),
            RefFormula::And(xs) => xs.iter().all(|f| f.eval(assign)),
            RefFormula::Or(xs) => xs.iter().any(|f| f.eval(assign)),
        }
    }

    /// Re-expresses this tree as an arena formula (iterative, so deep
    /// oracle trees cannot overflow the stack). Semantics-preserving:
    /// the result `eval`s identically under every assignment.
    pub fn to_arena(&self) -> Formula {
        enum Step<'a> {
            Visit(&'a RefFormula),
            BuildNot,
            BuildNary { conj: bool, n: usize },
        }
        let mut steps = vec![Step::Visit(self)];
        let mut values: Vec<Formula> = Vec::new();
        while let Some(step) = steps.pop() {
            match step {
                Step::Visit(f) => match f {
                    RefFormula::Const(b) => values.push(Formula::constant(*b)),
                    RefFormula::Var(v) => values.push(Formula::var(*v)),
                    RefFormula::Not(inner) => {
                        steps.push(Step::BuildNot);
                        steps.push(Step::Visit(inner));
                    }
                    RefFormula::And(xs) | RefFormula::Or(xs) => {
                        steps.push(Step::BuildNary {
                            conj: matches!(f, RefFormula::And(_)),
                            n: xs.len(),
                        });
                        for x in xs.iter().rev() {
                            steps.push(Step::Visit(x));
                        }
                    }
                },
                Step::BuildNot => {
                    let inner = values.pop().expect("operand built");
                    values.push(inner.not());
                }
                Step::BuildNary { conj, n } => {
                    let ops = values.split_off(values.len() - n);
                    values.push(if conj {
                        Formula::all(ops)
                    } else {
                        Formula::any(ops)
                    });
                }
            }
        }
        values.pop().expect("one value per formula")
    }
}

/// The seed `(V, CV, DV)` triplet over [`RefFormula`] entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefTriplet {
    /// Sub-query values at the fragment root.
    pub v: Vec<RefFormula>,
    /// Sub-query values accumulated over the root's children.
    pub cv: Vec<RefFormula>,
    /// Sub-query values accumulated over the root and its descendants.
    pub dv: Vec<RefFormula>,
}

impl RefTriplet {
    /// An all-`false` triplet of the given width.
    pub fn all_false(len: usize) -> RefTriplet {
        RefTriplet {
            v: vec![RefFormula::FALSE; len],
            cv: vec![RefFormula::FALSE; len],
            dv: vec![RefFormula::FALSE; len],
        }
    }

    /// The triplet of fresh variables for sub-fragment `frag`.
    pub fn fresh_vars(frag: FragmentId, len: usize) -> RefTriplet {
        let mk = |vec: VecKind| {
            (0..len as u32)
                .map(|i| RefFormula::Var(Var::new(frag, vec, i)))
                .collect()
        };
        RefTriplet {
            v: mk(VecKind::V),
            cv: mk(VecKind::CV),
            dv: mk(VecKind::DV),
        }
    }

    /// Width (`|QList(q)|`).
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// True for a zero-width triplet.
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// Substitutes every entry (seed tree walks).
    pub fn substitute<F>(&self, lookup: &F) -> RefTriplet
    where
        F: Fn(Var) -> Option<RefFormula>,
    {
        RefTriplet {
            v: self.v.iter().map(|f| f.substitute(lookup)).collect(),
            cv: self.cv.iter().map(|f| f.substitute(lookup)).collect(),
            dv: self.dv.iter().map(|f| f.substitute(lookup)).collect(),
        }
    }

    /// Converts to plain Booleans; `None` if any entry is still open.
    pub fn resolved(&self) -> Option<ResolvedTriplet> {
        let take = |xs: &[RefFormula]| {
            xs.iter()
                .map(RefFormula::as_const)
                .collect::<Option<Vec<_>>>()
        };
        Some(ResolvedTriplet {
            v: take(&self.v)?,
            cv: take(&self.cv)?,
            dv: take(&self.dv)?,
        })
    }
}

/// Seed equation-system solve: per-fragment seed substitution in
/// bottom-up order (the original `evalST` implementation).
pub fn ref_solve(
    triplets: &HashMap<FragmentId, RefTriplet>,
    bottom_up: &[FragmentId],
) -> Result<HashMap<FragmentId, ResolvedTriplet>, SolveError> {
    let mut resolved: HashMap<FragmentId, ResolvedTriplet> = HashMap::new();
    for &frag in bottom_up {
        let triplet = triplets
            .get(&frag)
            .ok_or(SolveError::MissingFragment(frag))?;
        let substituted = triplet.substitute(&|var: Var| {
            resolved
                .get(&var.frag)
                .map(|r| RefFormula::Const(r.value_of(var)))
        });
        let closed = substituted
            .resolved()
            .ok_or(SolveError::NotBottomUp(frag))?;
        resolved.insert(frag, closed);
    }
    Ok(resolved)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> RefFormula {
        RefFormula::var(Var::new(FragmentId(i), VecKind::V, 0))
    }

    #[test]
    fn seed_semantics_preserved() {
        assert_eq!(RefFormula::and(RefFormula::TRUE, v(1)), v(1));
        assert_eq!(RefFormula::or(v(1), RefFormula::TRUE), RefFormula::TRUE);
        assert_eq!(v(1).not().not(), v(1));
        // Seed does *not* deduplicate: And(v1, v1) keeps both operands.
        let dup = RefFormula::and(v(1), v(1));
        let RefFormula::And(xs) = &dup else {
            panic!("{dup:?}")
        };
        assert_eq!(xs.len(), 2);
    }

    #[test]
    fn to_arena_preserves_truth_tables() {
        let f = RefFormula::and(RefFormula::or(v(1), v(2)), v(3).not());
        let g = f.to_arena();
        for bits in 0..8u32 {
            let assign = move |var: Var| bits & (1 << var.frag.0.saturating_sub(1)) != 0;
            assert_eq!(f.eval(&assign), g.eval(&assign), "bits {bits:b}");
        }
    }

    #[test]
    fn ref_solve_matches_shape() {
        let mut triplets = HashMap::new();
        let mut root = RefTriplet::all_false(1);
        root.v[0] = RefFormula::Var(Var::new(FragmentId(1), VecKind::DV, 0));
        triplets.insert(FragmentId(0), root);
        let mut leaf = RefTriplet::all_false(1);
        leaf.dv[0] = RefFormula::TRUE;
        triplets.insert(FragmentId(1), leaf);
        let solved = ref_solve(&triplets, &[FragmentId(1), FragmentId(0)]).unwrap();
        assert!(solved[&FragmentId(0)].v[0]);
    }
}
