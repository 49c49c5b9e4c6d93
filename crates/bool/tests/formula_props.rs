//! Property-based tests of the formula algebra: the smart constructors
//! must be *sound* simplifications (same truth table as the naive
//! connectives), substitution must commute with evaluation, the wire
//! encoding must be lossless — and, since the hash-consing arena
//! rework, arena-built formulas must `eval`, `substitute` and resolve
//! **identically to the seed tree semantics** preserved in
//! [`parbox_bool::reference`].

use bytes::BytesMut;
use parbox_bool::reference::{RefFormula, RefTriplet};
use parbox_bool::{
    comp_fm, decode_formula_dag, decode_triplet_dag, encode_formula_dag, encode_triplet_dag,
    BoolOp, Formula, Triplet, Var, VecKind,
};
use parbox_xml::FragmentId;
use proptest::prelude::*;

/// A small pool of variables so random assignments are meaningful.
fn var_pool() -> Vec<Var> {
    let mut out = Vec::new();
    for f in 0..3u32 {
        for (k, vec) in [VecKind::V, VecKind::CV, VecKind::DV]
            .into_iter()
            .enumerate()
        {
            out.push(Var::new(FragmentId(f), vec, k as u32));
        }
    }
    out
}

/// Random *seed* formulas; the matching arena formula is derived with
/// [`RefFormula::to_arena`], which mirrors the construction step by step
/// through the arena's smart constructors.
fn ref_strategy() -> impl Strategy<Value = RefFormula> {
    let pool = var_pool();
    let leaf = prop_oneof![
        Just(RefFormula::TRUE),
        Just(RefFormula::FALSE),
        (0..pool.len()).prop_map(move |i| RefFormula::Var(pool[i])),
    ];
    leaf.prop_recursive(4, 48, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| RefFormula::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| RefFormula::or(a, b)),
            inner.clone().prop_map(RefFormula::not),
        ]
    })
}

fn formula_strategy() -> impl Strategy<Value = Formula> {
    ref_strategy().prop_map(|rf| rf.to_arena())
}

/// Deterministic assignment derived from a seed byte.
fn assignment(seed: u8) -> impl Fn(Var) -> bool {
    move |v: Var| {
        let h = v.frag.0 as u8
            ^ (v.sub as u8)
            ^ match v.vec {
                VecKind::V => 0,
                VecKind::CV => 1,
                VecKind::DV => 2,
            };
        (h ^ seed).count_ones().is_multiple_of(2)
    }
}

/// Deterministic *partial* substitution: maps a variable to `true`,
/// `false` or leaves it free, by seed.
fn partial(seed: u8) -> impl Fn(Var) -> Option<bool> {
    let assign = assignment(seed);
    move |v: Var| match (v.frag.0 + v.sub + seed as u32) % 3 {
        0 => None,
        _ => Some(assign(v)),
    }
}

proptest! {
    #[test]
    fn smart_constructors_preserve_truth(a in formula_strategy(), b in formula_strategy(), seed: u8) {
        let assign = assignment(seed);
        prop_assert_eq!(Formula::and(a, b).eval(&assign), a.eval(&assign) && b.eval(&assign));
        prop_assert_eq!(Formula::or(a, b).eval(&assign), a.eval(&assign) || b.eval(&assign));
        prop_assert_eq!(a.not().eval(&assign), !a.eval(&assign));
    }

    #[test]
    fn comp_fm_matches_connectives(a in formula_strategy(), b in formula_strategy(), seed: u8) {
        let assign = assignment(seed);
        prop_assert_eq!(
            comp_fm(a, b, BoolOp::And).eval(&assign),
            a.eval(&assign) && b.eval(&assign)
        );
        prop_assert_eq!(
            comp_fm(a, b, BoolOp::Or).eval(&assign),
            a.eval(&assign) || b.eval(&assign)
        );
        prop_assert_eq!(comp_fm(a, b, BoolOp::Neg).eval(&assign), !a.eval(&assign));
    }

    #[test]
    fn total_substitution_equals_evaluation(f in formula_strategy(), seed: u8) {
        let assign = assignment(seed);
        let substituted = f.substitute(&|v| Some(Formula::constant(assign(v))));
        prop_assert_eq!(substituted.as_const(), Some(f.eval(&assign)));
    }

    #[test]
    fn partial_then_rest_equals_total(f in formula_strategy(), seed: u8) {
        // Substituting fragment 0's variables first, then the rest, must
        // agree with direct evaluation (unification order irrelevance —
        // the paper's "order is of no consequence" remark).
        let assign = assignment(seed);
        let phase1 = f.substitute(&|v| {
            (v.frag == FragmentId(0)).then(|| Formula::constant(assign(v)))
        });
        let phase2 = phase1.substitute(&|v| Some(Formula::constant(assign(v))));
        prop_assert_eq!(phase2.as_const(), Some(f.eval(&assign)));
    }

    #[test]
    fn kleene_evaluation_equals_substitution(f in formula_strategy(), seed: u8) {
        // Three-valued evaluation decides exactly what substituting the
        // known variables folds to a constant.
        let known = partial(seed);
        let folded = f.substitute(&|v| known(v).map(Formula::constant));
        let kleene = Formula::kleene_all(&[f], &known)[0];
        prop_assert_eq!(kleene, folded.as_const());
    }

    #[test]
    fn constants_are_fully_folded(a in formula_strategy()) {
        // A formula without variables must be a constant (compFm folds
        // eagerly, so open structure implies open variables).
        let closed = a.substitute(&|_| Some(Formula::FALSE));
        prop_assert!(closed.is_const());
        // The cached has_free_vars bit agrees.
        prop_assert!(closed.closed());
        prop_assert_eq!(a.closed(), a.vars().is_empty());
    }

    #[test]
    fn dag_encoding_round_trips(f in formula_strategy()) {
        let mut buf = BytesMut::new();
        encode_formula_dag(&f, &mut buf);
        let mut bytes = buf.freeze();
        let back = decode_formula_dag(&mut bytes).unwrap();
        prop_assert_eq!(back, f);
        prop_assert_eq!(bytes.len(), 0);
    }

    #[test]
    fn vars_is_sound(f in formula_strategy(), seed: u8) {
        // Flipping a variable NOT in vars() never changes the value.
        let vars = f.vars();
        let assign = assignment(seed);
        for probe in var_pool() {
            if vars.contains(&probe) {
                continue;
            }
            let flipped = |v: Var| if v == probe { !assign(v) } else { assign(v) };
            prop_assert_eq!(f.eval(&assign), f.eval(&flipped));
        }
    }

    // ---- arena vs seed oracle -------------------------------------------

    #[test]
    fn arena_eval_matches_seed(rf in ref_strategy(), seed: u8) {
        let f = rf.to_arena();
        let assign = assignment(seed);
        prop_assert_eq!(f.eval(&assign), rf.eval(&assign));
    }

    #[test]
    fn arena_substitute_matches_seed(rf in ref_strategy(), seed: u8, probe: u8) {
        // The same partial substitution applied in both representations
        // must yield semantically identical results, resolve to the same
        // constant (or stay open together), and agree on free variables.
        let f = rf.to_arena();
        let lookup = partial(seed);
        let f_sub = f.substitute(&|v| lookup(v).map(Formula::constant));
        let rf_sub = rf.substitute(&|v| lookup(v).map(RefFormula::Const));
        prop_assert_eq!(f_sub.as_const(), rf_sub.as_const());
        prop_assert_eq!(f_sub.vars(), rf_sub.vars());
        let assign = assignment(probe);
        prop_assert_eq!(f_sub.eval(&assign), rf_sub.eval(&assign));
    }

    #[test]
    fn arena_vars_and_size_match_seed(rf in ref_strategy()) {
        let f = rf.to_arena();
        prop_assert_eq!(f.vars(), rf.vars());
        // Canonicalization (dedup, double-negation, constant folds) can
        // only shrink the tree expansion, never grow it.
        prop_assert!(f.size() <= rf.size(), "arena {} > seed {}", f.size(), rf.size());
    }

    #[test]
    fn arena_triplet_resolves_like_seed(
        a in ref_strategy(), b in ref_strategy(), c in ref_strategy(), seed: u8
    ) {
        // A triplet substituted to closedness resolves to the same truth
        // values in both representations.
        let rt = RefTriplet {
            v: vec![a.clone()],
            cv: vec![b.clone()],
            dv: vec![c.clone()],
        };
        let t = Triplet {
            v: vec![a.to_arena()],
            cv: vec![b.to_arena()],
            dv: vec![c.to_arena()],
        };
        let assign = assignment(seed);
        let rt_closed = rt.substitute(&|v| Some(RefFormula::Const(assign(v))));
        let t_closed = t.substitute(&|v| Some(Formula::constant(assign(v))));
        prop_assert_eq!(t_closed.resolved(), rt_closed.resolved());
        prop_assert!(t_closed.is_closed());
    }

    #[test]
    fn sharded_interning_is_deterministic_and_matches_seed(rf in ref_strategy(), seed: u8) {
        // Interning must canonicalize identically no matter
        // which thread (and therefore which thread-local cache) builds
        // the formula: the id is a pure function of the structure.
        let here = rf.to_arena();
        let again = rf.to_arena();
        prop_assert_eq!(here.id(), again.id(), "rebuild on the same thread");
        let rf2 = rf.clone();
        let there = std::thread::spawn(move || rf2.to_arena().id())
            .join()
            .expect("builder thread");
        prop_assert_eq!(here.id(), there, "rebuild on a fresh thread");
        // And the interned formula stays structurally equivalent to the
        // seed oracle: same truth table over the variable pool.
        let assign = assignment(seed);
        prop_assert_eq!(here.eval(&assign), rf.eval(&assign));
        prop_assert_eq!(here.vars(), rf.vars());
    }

    #[test]
    fn dag_triplet_round_trips(
        a in ref_strategy(), b in ref_strategy(), c in ref_strategy()
    ) {
        let t = Triplet {
            v: vec![a.to_arena(), b.to_arena()],
            cv: vec![c.to_arena(), a.to_arena()],
            dv: vec![Formula::or(a.to_arena(), c.to_arena()), b.to_arena()],
        };
        let mut buf = BytesMut::new();
        encode_triplet_dag(&t, &mut buf);
        let mut bytes = buf.freeze();
        let back = decode_triplet_dag(&mut bytes).unwrap();
        prop_assert_eq!(back, t);
        prop_assert_eq!(bytes.len(), 0);
    }
}
