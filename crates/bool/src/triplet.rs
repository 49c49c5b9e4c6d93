//! Triplets `(V, CV, DV)` of formula vectors and the Boolean equation
//! system solved by the coordinator.
//!
//! Partially evaluating a fragment `F_j` yields one triplet of vectors,
//! each with `|QList(q)|` entries (paper, Fig. 3b):
//!
//! * `V[i]`  — value of sub-query `q_i` at the fragment root,
//! * `CV[i]` — `q_i` holds at some child of the fragment root,
//! * `DV[i]` — `q_i` holds at the root or some descendant.
//!
//! Entries are [`Formula`]s whose variables refer to `F_j`'s direct
//! sub-fragments. Collecting the triplets of every fragment produces a
//! *linear system of Boolean equations* (Example 3.2) that
//! [`EquationSystem::solve`] resolves in one bottom-up pass over the
//! fragment hierarchy (the paper's `evalST`). That pass is
//! [`KleeneRows`]: it evaluates each fragment's entries in three-valued
//! logic against the rows of the fragments solved before it, so a
//! system with fragments missing still yields every value that no
//! content of the missing fragments could change.

use crate::arena::FxHasher;
use crate::formula::Formula;
use crate::var::{Var, VecKind};
use parbox_xml::FragmentId;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;

/// The `(V, CV, DV)` triplet computed for one fragment.
///
/// Entries are arena [`Formula`] handles, so triplet equality and
/// hashing reduce to `O(1)` id comparisons per entry — `Triplet` values
/// are therefore cheap, stable cache keys (the serving engine shares
/// identical triplets of a wave by content this way).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Triplet {
    /// Sub-query values at the fragment root.
    pub v: Vec<Formula>,
    /// Sub-query values accumulated over the root's children.
    pub cv: Vec<Formula>,
    /// Sub-query values accumulated over the root and its descendants.
    pub dv: Vec<Formula>,
}

impl Triplet {
    /// An all-`false` triplet of the given width.
    pub fn all_false(len: usize) -> Triplet {
        Triplet {
            v: vec![Formula::FALSE; len],
            cv: vec![Formula::FALSE; len],
            dv: vec![Formula::FALSE; len],
        }
    }

    /// The triplet of *fresh variables* introduced at a virtual node for
    /// sub-fragment `frag`: `x_i`, `cx_i`, `dx_i` for every sub-query.
    /// All `3·len` of them come from one probe of the thread's variable
    /// table; only the thread's first use of a variable interns it.
    pub fn fresh_vars(frag: FragmentId, len: usize) -> Triplet {
        let [v, cv, dv] = Formula::var_rows(frag, len);
        Triplet { v, cv, dv }
    }

    /// `V`, `CV` and `DV` from one vector holding them back to back.
    fn split(mut v: Vec<Formula>) -> Triplet {
        let m = v.len() / 3;
        let dv = v.split_off(2 * m);
        let cv = v.split_off(m);
        Triplet { v, cv, dv }
    }

    /// Width (must equal `|QList(q)|`).
    pub fn len(&self) -> usize {
        debug_assert!(self.v.len() == self.cv.len() && self.cv.len() == self.dv.len());
        self.v.len()
    }

    /// True for a zero-width triplet.
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// Access one vector by kind.
    pub fn get(&self, kind: VecKind) -> &[Formula] {
        match kind {
            VecKind::V => &self.v,
            VecKind::CV => &self.cv,
            VecKind::DV => &self.dv,
        }
    }

    /// Total formula size over all entries (proxy for message payload; the
    /// exact wire size is [`crate::triplet_dag_wire_size`]).
    pub fn size(&self) -> usize {
        self.v
            .iter()
            .chain(&self.cv)
            .chain(&self.dv)
            .map(Formula::size)
            .sum()
    }

    /// True when no entry references a variable. `O(1)` per entry: a
    /// canonical variable-free formula is a constant, so this checks ids
    /// against the two constant ids — no variable set is materialized.
    pub fn is_closed(&self) -> bool {
        self.v
            .iter()
            .chain(&self.cv)
            .chain(&self.dv)
            .all(|f| f.is_const())
    }

    /// Substitutes every entry, re-simplifying. All `3·|QList|` entries
    /// share one DAG snapshot and one memo table
    /// ([`Formula::substitute_all`]): each distinct subformula is
    /// rebuilt once per triplet, not once per occurrence.
    pub fn substitute<F>(&self, lookup: &F) -> Triplet
    where
        F: Fn(Var) -> Option<Formula>,
    {
        let roots: Vec<Formula> = self
            .v
            .iter()
            .chain(&self.cv)
            .chain(&self.dv)
            .copied()
            .collect();
        Triplet::split(Formula::substitute_all(&roots, lookup))
    }

    /// Projects a member program's triplet out of this one, computed
    /// under a merged program the member embeds into: entry `i` of the
    /// result is entry `proj[i]` of `self`, with the variables' sub-query
    /// ids renumbered back into the member's id space (the inverse of
    /// `proj`). Rebuilt through the canonical constructors, so the
    /// result is id-identical to evaluating the member program alone.
    ///
    /// # Panics
    /// Panics if a selected entry mentions a sub-query outside `proj`:
    /// an embedding covers the operand closure of everything it selects.
    pub fn project(&self, proj: &[u32]) -> Triplet {
        let roots: Vec<Formula> = [&self.v, &self.cv, &self.dv]
            .into_iter()
            .flat_map(|xs| proj.iter().map(move |&i| xs[i as usize]))
            .collect();
        // A closed selection (every leaf fragment's) has nothing to
        // renumber.
        if roots.iter().all(Formula::is_const) {
            return Triplet::split(roots);
        }
        let mut inverse = vec![u32::MAX; self.len()];
        for (i, &h) in proj.iter().enumerate() {
            inverse[h as usize] = i as u32;
        }
        Triplet::split(Formula::substitute_all(&roots, &|var: Var| {
            let sub = inverse[var.sub as usize];
            assert_ne!(sub, u32::MAX, "variable outside the member's closure");
            Some(Formula::var(Var::new(var.frag, var.vec, sub)))
        }))
    }

    /// Converts to plain Booleans; `None` if any entry is still open.
    pub fn resolved(&self) -> Option<ResolvedTriplet> {
        let take = |xs: &[Formula]| xs.iter().map(Formula::as_const).collect::<Option<Vec<_>>>();
        Some(ResolvedTriplet {
            v: take(&self.v)?,
            cv: take(&self.cv)?,
            dv: take(&self.dv)?,
        })
    }
}

impl fmt::Display for Triplet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let row = |f: &mut fmt::Formatter<'_>, name: &str, xs: &[Formula]| -> fmt::Result {
            write!(f, "{name} = <")?;
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{x}")?;
            }
            writeln!(f, ">")
        };
        row(f, "V ", &self.v)?;
        row(f, "CV", &self.cv)?;
        row(f, "DV", &self.dv)
    }
}

/// The difference between two triplets of the same width: the entries
/// whose formula changed, as `(vector, index, new formula)` records.
///
/// This is what a site ships to the coordinator after repairing a cached
/// triplet in place — an update that touches one root-to-change path
/// perturbs only the entries whose sub-query saw the change, so the
/// delta is usually far smaller than the full triplet
/// ([`crate::encode::triplet_delta_dag_wire_size`] accounts the bytes).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TripletDelta {
    /// Width of the triplets being diffed (`|QList(q)|`).
    pub width: u32,
    /// Changed entries: which vector, which sub-query index, new value.
    pub changed: Vec<(VecKind, u32, Formula)>,
}

impl TripletDelta {
    /// Records the entries of `new` that differ from `old`. Both triplets
    /// must have the same width (the query did not change, only the data).
    pub fn diff(old: &Triplet, new: &Triplet) -> TripletDelta {
        assert_eq!(old.len(), new.len(), "triplet widths must match");
        let mut changed = Vec::new();
        for kind in VecKind::ALL {
            let (o, n) = (old.get(kind), new.get(kind));
            for (i, (a, b)) in o.iter().zip(n).enumerate() {
                if a != b {
                    changed.push((kind, i as u32, *b));
                }
            }
        }
        TripletDelta {
            width: new.len() as u32,
            changed,
        }
    }

    /// Rebuilds the new triplet by patching `base` (the old triplet) with
    /// the changed entries. Inverse of [`TripletDelta::diff`].
    pub fn apply(&self, base: &Triplet) -> Triplet {
        assert_eq!(base.len(), self.width as usize, "triplet widths must match");
        let mut out = base.clone();
        for &(kind, ix, f) in &self.changed {
            let vec = match kind {
                VecKind::V => &mut out.v,
                VecKind::CV => &mut out.cv,
                VecKind::DV => &mut out.dv,
            };
            vec[ix as usize] = f;
        }
        out
    }

    /// Number of changed entries.
    pub fn len(&self) -> usize {
        self.changed.len()
    }

    /// True when the two triplets were identical.
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty()
    }
}

/// A fully resolved triplet of truth values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedTriplet {
    /// Values of `V`.
    pub v: Vec<bool>,
    /// Values of `CV`.
    pub cv: Vec<bool>,
    /// Values of `DV`.
    pub dv: Vec<bool>,
}

impl ResolvedTriplet {
    /// Value of a variable referring to this triplet's fragment.
    #[inline]
    pub fn value_of(&self, var: Var) -> bool {
        match var.vec {
            VecKind::V => self.v[var.sub as usize],
            VecKind::CV => self.cv[var.sub as usize],
            VecKind::DV => self.dv[var.sub as usize],
        }
    }
}

/// A Boolean equation system evaluated in three-valued logic.
///
/// Each fragment has one row of `3·w` values — `V`, then `CV`, then
/// `DV` — where `None` marks an entry the fragments at hand do not
/// determine. An absent fragment reads as all unknown, so a determined
/// entry holds under every content of the fragments never given: the
/// certain answer. Nothing is interned, and a determined entry is
/// exactly one that [`Formula::substitute`] with the children's values
/// would fold to a constant ([`Formula::kleene_all`]).
///
/// One solver, two access patterns. [`KleeneRows::solve`] evaluates a
/// fragment's whole row at once, against the fragments given before
/// it. [`KleeneRows::register`] evaluates nothing; [`KleeneRows::value`]
/// then folds only the entries its answer reads, each at most once,
/// against the fragments registered when it is first asked for.
#[derive(Debug, Clone, Default)]
pub struct KleeneRows<'t> {
    rows: HashMap<FragmentId, Row<'t>, BuildHasherDefault<FxHasher>>,
    /// Per row, `3·w` slots from its `start`: `None` until the entry is
    /// evaluated, then its Kleene value.
    memo: Vec<Option<Option<bool>>>,
}

/// One fragment's row of a [`KleeneRows`].
#[derive(Debug, Clone)]
struct Row<'t> {
    /// The triplet and projection the entries are read from; `None` for
    /// a row [`KleeneRows::solve`] evaluated whole.
    source: Option<(&'t Triplet, Option<&'t [u32]>)>,
    /// The projection's inverse (merged sub-query id to the row's),
    /// built when an entry with variables is first evaluated.
    inverse: Option<Vec<u32>>,
    start: usize,
    width: u32,
}

impl Row<'_> {
    /// The memo slot of entry `sub` of vector `vec`.
    fn slot(&self, var: Var) -> usize {
        assert!(var.sub < self.width, "{var} outside its fragment's row");
        self.start + (var.vec as u32 * self.width + var.sub) as usize
    }

    /// The formula behind memo slot `slot` of a registered row.
    fn formula(&self, slot: usize) -> Formula {
        let (triplet, proj) = self.source.expect("an unevaluated entry keeps its source");
        entry(triplet, proj, self.width as usize, slot - self.start)
    }
}

/// Entry `ix` of the `3·width` row read from `triplet` through `proj`.
fn entry(triplet: &Triplet, proj: Option<&[u32]>, width: usize, ix: usize) -> Formula {
    let i = ix % width;
    [&triplet.v, &triplet.cv, &triplet.dv][ix / width][proj.map_or(i, |p| p[i] as usize)]
}

/// The inverse of a projection into a `merged_width` program:
/// `u32::MAX` for the merged sub-queries outside it.
fn invert(proj: &[u32], merged_width: usize) -> Vec<u32> {
    let mut inverse = vec![u32::MAX; merged_width];
    for (i, &h) in proj.iter().enumerate() {
        inverse[h as usize] = i as u32;
    }
    inverse
}

impl<'t> KleeneRows<'t> {
    /// No fragment given yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gives fragment `frag`'s `triplet`, read through `proj` as in
    /// [`KleeneRows::solve`], and evaluates nothing: its entries are
    /// folded when [`KleeneRows::value`] first reads them.
    pub fn register(&mut self, frag: FragmentId, triplet: &'t Triplet, proj: Option<&'t [u32]>) {
        let width = proj.map_or(triplet.len(), <[u32]>::len);
        let start = self.memo.len();
        self.memo.resize(start + 3 * width, None);
        let row = Row {
            source: Some((triplet, proj)),
            inverse: None,
            start,
            width: width as u32,
        };
        self.rows.insert(frag, row);
    }

    /// Evaluates fragment `frag`'s whole row from `triplet` and returns
    /// it. With a projection, entry `i` of the row is entry `proj[i]` of
    /// the triplet and the variables' sub-query ids are read back
    /// through the inverse of `proj`, so a triplet computed under a
    /// merged program answers for one member program; without one, the
    /// row is the whole triplet. Variables read the rows of fragments
    /// given before (unknown when their fragment was not).
    ///
    /// # Panics
    /// Panics if a selected entry mentions a sub-query outside `proj`:
    /// an embedding covers the operand closure of everything it selects.
    pub fn solve(
        &mut self,
        frag: FragmentId,
        triplet: &Triplet,
        proj: Option<&[u32]>,
    ) -> Vec<Option<bool>> {
        let width = proj.map_or(triplet.len(), <[u32]>::len);
        let entries = (0..3 * width).map(|ix| entry(triplet, proj, width, ix));
        // Most rows (every leaf fragment's) are closed: no fold.
        let mut row: Vec<Option<bool>> = entries
            .clone()
            .map_while(|f| f.as_const().map(Some))
            .collect();
        if row.len() < 3 * width {
            let entries: Vec<Formula> = entries.collect();
            let inverse = proj.map(|p| invert(p, triplet.len()));
            let mut pending = Vec::new();
            row = loop {
                let row = self.fold(&entries, inverse.as_deref(), &mut pending);
                if pending.is_empty() || row.iter().all(Option::is_some) {
                    break row;
                }
                self.settle(std::mem::take(&mut pending));
            };
        }
        let start = self.memo.len();
        self.memo.extend(row.iter().map(|&v| Some(v)));
        let row_of = Row {
            source: None,
            inverse: None,
            start,
            width: width as u32,
        };
        self.rows.insert(frag, row_of);
        row
    }

    /// The value of `var`: `None` when its fragment was not given or
    /// does not determine the entry. Evaluates the entry, and every
    /// entry it reads, the first time it is asked for.
    pub fn value(&mut self, var: Var) -> Option<bool> {
        let slot = self.rows.get(&var.frag)?.slot(var);
        if self.memo[slot].is_none() {
            self.settle(vec![(var.frag, slot)]);
        }
        self.memo[slot].expect("settled above")
    }

    /// Evaluates the `stack`'s entries, each after the unevaluated
    /// entries it reads: an explicit stack, so a long chain of
    /// fragments cannot overflow the call stack. Variables point into
    /// sub-fragments, so an entry is folded at most twice — once to
    /// find what it reads, once to read it. Kleene logic is monotone: a
    /// value decided with the unevaluated entries unknown is final, and
    /// those entries stay unevaluated.
    fn settle(&mut self, mut stack: Vec<(FragmentId, usize)>) {
        let mut pending = Vec::new();
        while let Some(&(frag, slot)) = stack.last() {
            if self.memo[slot].is_some() {
                stack.pop();
                continue;
            }
            let row = self
                .rows
                .get_mut(&frag)
                .expect("only given rows are pending");
            let formula = row.formula(slot);
            // Lent out for the fold, which reads only sub-fragments' rows.
            let inverse = match (row.inverse.take(), row.source) {
                (None, Some((triplet, Some(proj)))) => Some(invert(proj, triplet.len())),
                (inverse, _) => inverse,
            };
            let value = self.fold(&[formula], inverse.as_deref(), &mut pending)[0];
            self.rows.get_mut(&frag).expect("given above").inverse = inverse;
            if pending.is_empty() || value.is_some() {
                self.memo[slot] = Some(value);
                pending.clear();
                stack.pop();
            } else {
                stack.append(&mut pending);
            }
        }
    }

    /// Kleene-folds `entries` of one row. A variable reads the entry of
    /// its fragment's row that it names, its sub-query id mapped through
    /// `inverse` when the row is a projection; it is unknown when its
    /// fragment was not given. An unevaluated entry that is a constant
    /// is memoised on the spot; any other is read as unknown and pushed
    /// to `pending`, for the caller to evaluate and fold again if that
    /// unknown left an entry undecided.
    fn fold(
        &mut self,
        entries: &[Formula],
        inverse: Option<&[u32]>,
        pending: &mut Vec<(FragmentId, usize)>,
    ) -> Vec<Option<bool>> {
        let (rows, memo) = (&self.rows, &mut self.memo);
        Formula::kleene_all(entries, |var: Var| {
            let sub = match inverse {
                Some(inverse) => {
                    let sub = inverse[var.sub as usize];
                    assert_ne!(sub, u32::MAX, "variable outside the member's closure");
                    sub
                }
                None => var.sub,
            };
            let row = rows.get(&var.frag)?;
            let slot = row.slot(Var { sub, ..var });
            if let Some(value) = memo[slot] {
                return value;
            }
            let value = row.formula(slot).as_const();
            match value {
                Some(_) => memo[slot] = Some(value),
                None => pending.push((var.frag, slot)),
            }
            value
        })
    }
}

/// Error from [`EquationSystem::solve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// A triplet references a fragment for which no triplet was provided
    /// (a site failed to answer, or the source tree is inconsistent).
    MissingFragment(FragmentId),
    /// After substituting all sub-fragment values an entry is still open —
    /// the fragment order was not bottom-up.
    NotBottomUp(FragmentId),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::MissingFragment(id) => {
                write!(f, "no triplet received for fragment {id}")
            }
            SolveError::NotBottomUp(id) => write!(
                f,
                "triplet of fragment {id} still open after substitution; order is not bottom-up"
            ),
        }
    }
}

impl std::error::Error for SolveError {}

/// The linear system of Boolean equations assembled by the coordinator:
/// one [`Triplet`] per fragment, with variables pointing at sub-fragments.
#[derive(Debug, Default, Clone)]
pub struct EquationSystem {
    triplets: HashMap<FragmentId, Triplet>,
}

impl EquationSystem {
    /// An empty system.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the triplet computed for `frag` (replacing any previous
    /// one — incremental maintenance re-registers updated fragments).
    pub fn insert(&mut self, frag: FragmentId, triplet: Triplet) {
        self.triplets.insert(frag, triplet);
    }

    /// Triplet registered for `frag`.
    pub fn get(&self, frag: FragmentId) -> Option<&Triplet> {
        self.triplets.get(&frag)
    }

    /// Number of registered fragments.
    pub fn len(&self) -> usize {
        self.triplets.len()
    }

    /// True when no triplet was registered.
    pub fn is_empty(&self) -> bool {
        self.triplets.is_empty()
    }

    /// Solves the system given a *bottom-up* fragment order (children
    /// before parents — a postorder of the fragment tree). Returns the
    /// resolved truth values per fragment.
    ///
    /// This is the paper's `evalST`: leaves are closed, and each step
    /// evaluates a parent's entries against its children's resolved
    /// vectors (Example 3.3) — one [`KleeneRows`] pass, linear in the
    /// total size of the system.
    pub fn solve(
        &self,
        bottom_up: &[FragmentId],
    ) -> Result<HashMap<FragmentId, ResolvedTriplet>, SolveError> {
        let mut rows = KleeneRows::new();
        let mut resolved: HashMap<FragmentId, ResolvedTriplet> = HashMap::new();
        for &frag in bottom_up {
            let triplet = self
                .triplets
                .get(&frag)
                .ok_or(SolveError::MissingFragment(frag))?;
            let row = rows.solve(frag, triplet, None);
            let values: Option<Vec<bool>> = row.into_iter().collect();
            let mut values = values.ok_or(SolveError::NotBottomUp(frag))?;
            let w = triplet.len();
            let dv = values.split_off(2 * w);
            let cv = values.split_off(w);
            resolved.insert(frag, ResolvedTriplet { v: values, cv, dv });
        }
        Ok(resolved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fid(i: u32) -> FragmentId {
        FragmentId(i)
    }

    #[test]
    fn fresh_vars_have_right_shape() {
        let t = Triplet::fresh_vars(fid(2), 4);
        assert_eq!(t.len(), 4);
        assert!(!t.is_closed());
        assert_eq!(t.v[3], Formula::var(Var::new(fid(2), VecKind::V, 3)));
        assert_eq!(t.dv[0], Formula::var(Var::new(fid(2), VecKind::DV, 0)));
    }

    #[test]
    fn all_false_is_closed() {
        let t = Triplet::all_false(3);
        assert!(t.is_closed());
        assert_eq!(
            t.resolved().unwrap(),
            ResolvedTriplet {
                v: vec![false; 3],
                cv: vec![false; 3],
                dv: vec![false; 3]
            }
        );
    }

    #[test]
    fn project_selects_entries_and_renumbers_their_variables() {
        // A merged program of width 4 whose entries 3 and 1 are a
        // member's sub-queries 0 and 1.
        let var = |vec, sub| Formula::var(Var::new(fid(7), vec, sub));
        let mut merged = Triplet::all_false(4);
        merged.v[1] = Formula::or(var(VecKind::V, 3), var(VecKind::DV, 1));
        merged.cv[3] = var(VecKind::V, 3);
        merged.dv[3] = Formula::TRUE;
        merged.v[0] = var(VecKind::V, 2); // outside the member: never read
        let member = merged.project(&[3, 1]);
        assert_eq!(member.len(), 2);
        assert_eq!(
            member.v[1],
            Formula::or(var(VecKind::V, 0), var(VecKind::DV, 1))
        );
        assert_eq!(member.cv[0], var(VecKind::V, 0));
        assert_eq!(member.dv, vec![Formula::TRUE, Formula::FALSE]);
        assert_eq!(member.v[0], Formula::FALSE);
        // The identity embedding changes nothing, id for id.
        assert_eq!(merged.project(&[0, 1, 2, 3]), merged);
    }

    #[test]
    fn solve_example_3_3_shape() {
        // Mimics the paper's Example 3.3 for the last sub-query only:
        // F0's answer = dy ∨ dz where dy is DV of F1, dz is DV of F3;
        // F1's DV = dx (DV of F2); F2 resolves to 1; F3 resolves to 0.
        let w = 1;
        let dvar = |frag: u32| Formula::var(Var::new(fid(frag), VecKind::DV, 0));

        let mut sys = EquationSystem::new();
        let mut f0 = Triplet::all_false(w);
        f0.v[0] = Formula::or(dvar(1), dvar(3));
        f0.dv[0] = f0.v[0];
        sys.insert(fid(0), f0);

        let mut f1 = Triplet::all_false(w);
        f1.v[0] = dvar(2);
        f1.dv[0] = dvar(2);
        sys.insert(fid(1), f1);

        let mut f2 = Triplet::all_false(w);
        f2.v[0] = Formula::TRUE;
        f2.dv[0] = Formula::TRUE;
        sys.insert(fid(2), f2);

        sys.insert(fid(3), Triplet::all_false(w)); // dz = 0

        let order = [fid(2), fid(3), fid(1), fid(0)];
        let solved = sys.solve(&order).unwrap();
        assert!(solved[&fid(0)].v[0], "query answer should be true");
        assert!(solved[&fid(1)].dv[0]);
        assert!(!solved[&fid(3)].dv[0]);
    }

    #[test]
    fn value_evaluates_only_what_its_entry_reads() {
        // F0's V[0] = x0@F1 ∨ x1@F1. F1's V[0] is true, so F1's V[1]
        // (which reads F2) and everything of F2 stay unevaluated.
        let var = |frag, sub| Formula::var(Var::new(fid(frag), VecKind::V, sub));
        let mut f0 = Triplet::all_false(2);
        f0.v[0] = Formula::or(var(1, 0), var(1, 1));
        f0.v[1] = var(1, 1);
        let mut f1 = Triplet::all_false(2);
        f1.v[0] = Formula::TRUE;
        f1.v[1] = Formula::not(var(2, 0));
        let f2 = Triplet::all_false(2);
        let mut rows = KleeneRows::new();
        for (f, t) in [(2, &f2), (1, &f1), (0, &f0)] {
            rows.register(fid(f), t, None);
        }
        assert!(
            rows.memo.iter().all(Option::is_none),
            "registering folds nothing"
        );
        assert_eq!(rows.value(Var::new(fid(0), VecKind::V, 0)), Some(true));
        assert_eq!(rows.memo.iter().filter(|m| m.is_some()).count(), 2);
        // F0's V[1] reads through F1's V[1] down to F2.
        assert_eq!(rows.value(Var::new(fid(0), VecKind::V, 1)), Some(true));
        assert_eq!(rows.memo.iter().filter(|m| m.is_some()).count(), 5);
        // An entry of a fragment never given is unknown.
        assert_eq!(rows.value(Var::new(fid(9), VecKind::V, 0)), None);
    }

    #[test]
    fn value_reads_a_long_chain_without_recursing() {
        // F_k's V[0] = x0@F_{k+1}; the last fragment's is true.
        let n = 50_000;
        let triplets: Vec<Triplet> = (0..n)
            .map(|k| {
                let mut t = Triplet::all_false(1);
                t.v[0] = match k + 1 < n {
                    true => Formula::var(Var::new(fid(k + 1), VecKind::V, 0)),
                    false => Formula::TRUE,
                };
                t
            })
            .collect();
        let mut rows = KleeneRows::new();
        for (k, t) in triplets.iter().enumerate() {
            rows.register(fid(k as u32), t, None);
        }
        assert_eq!(rows.value(Var::new(fid(0), VecKind::V, 0)), Some(true));
    }

    #[test]
    #[should_panic(expected = "variable outside the member's closure")]
    fn a_projection_must_cover_what_its_entries_read() {
        // Member entry 0 is merged entry 0, which reads merged sub-query
        // 1 of F1: outside the projection [0].
        let mut f0 = Triplet::all_false(2);
        f0.v[0] = Formula::var(Var::new(fid(1), VecKind::V, 1));
        let f1 = Triplet::all_false(2);
        let proj = [0];
        let mut rows = KleeneRows::new();
        rows.register(fid(1), &f1, Some(&proj));
        rows.register(fid(0), &f0, Some(&proj));
        rows.value(Var::new(fid(0), VecKind::V, 0));
    }

    #[test]
    fn solve_detects_missing_fragment() {
        let mut sys = EquationSystem::new();
        let mut f0 = Triplet::all_false(1);
        f0.v[0] = Formula::var(Var::new(fid(9), VecKind::V, 0));
        sys.insert(fid(0), f0);
        // Order never supplies F9's triplet.
        let err = sys.solve(&[fid(0)]).unwrap_err();
        assert_eq!(err, SolveError::NotBottomUp(fid(0)));
        let err = sys.solve(&[fid(9), fid(0)]).unwrap_err();
        assert_eq!(err, SolveError::MissingFragment(fid(9)));
    }

    #[test]
    fn substitute_simplifies_entries() {
        let mut t = Triplet::all_false(2);
        let x = Var::new(fid(1), VecKind::V, 0);
        t.v[0] = Formula::or(Formula::var(x), Formula::FALSE);
        let s = t.substitute(&|var| (var == x).then_some(Formula::TRUE));
        assert_eq!(s.v[0], Formula::TRUE);
        assert!(s.is_closed());
    }

    #[test]
    fn resolved_none_when_open() {
        let t = Triplet::fresh_vars(fid(1), 2);
        assert!(t.resolved().is_none());
    }

    #[test]
    fn display_renders_vectors() {
        let t = Triplet::fresh_vars(fid(2), 2);
        let s = t.to_string();
        assert!(s.contains("V  = <x1@F2, x2@F2>"), "{s}");
        assert!(s.contains("DV = <dx1@F2, dx2@F2>"), "{s}");
    }

    #[test]
    fn size_sums_entries() {
        let t = Triplet::all_false(2);
        assert_eq!(t.size(), 6);
    }
}
