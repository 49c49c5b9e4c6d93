//! Differential tests of the column-at-a-time kernel on trees with a
//! mutation history behind them: tomb-stoned slots, subtrees appended out
//! of document order, and virtual nodes left by fragmentation. Trees run
//! to a few hundred live nodes, so columns span several words.
//!
//! * `centralized_eval_counted` (the kernel) must equal the per-node
//!   reference interpreter in answer and work units, on whole trees and
//!   on fragments (where virtual nodes are opaque).
//! * On every fragment, `bottom_up` (kernel plus formulas on the spine)
//!   must return a triplet id-identical to `bottom_up_formula_only`
//!   (formulas everywhere), with equal work units.
//! * On every fragment, the repair memo's build (kernel plus a row at
//!   every node) must be id-identical to `bottom_up_formula_only`; after
//!   one random insert or delete, its change propagation must be
//!   id-identical to `bottom_up` of the mutated fragment.
//! * On whole trees, the extensions' centralized forms — `count`, `sum`
//!   and `select` — must agree with the per-node reference interpreter
//!   asked at every node.
//!
//! Queries are single compiled queries and `merge_programs` batches.

use parbox_core::{
    bottom_up, bottom_up_formula_only, centralized_eval_counted, centralized_eval_reference,
    count_centralized, select_centralized, sum_centralized, IncrementalBottomUp,
};
use parbox_frag::Forest;
use parbox_query::{
    compile, compile_selection, merge_programs, CompiledQuery, Path, Query, SelStep,
    SelectionProgram, Step,
};
use parbox_xml::{FragmentId, NodeId, Tree};
use proptest::prelude::*;
use std::collections::BTreeSet;

const LABELS: [&str; 5] = ["a", "b", "c", "d", "e"];
const TEXTS: [&str; 3] = ["x", "7", "z"];

/// One step of a mutation history; the `usize`s pick nodes, positions
/// and labels modulo what is there.
#[derive(Debug, Clone)]
enum Mutation {
    Insert(usize, usize, usize),
    Remove(usize),
    SplitThenGraft(usize),
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        3 => (0usize..10_000, 0usize..8, 0usize..100)
            .prop_map(|(n, pos, l)| Mutation::Insert(n, pos, l)),
        1 => (0usize..10_000).prop_map(Mutation::Remove),
        2 => (0usize..10_000).prop_map(Mutation::SplitThenGraft),
    ]
}

/// A tree from a preorder `(depth, label, text)` script, 80–320 nodes.
fn tree_strategy() -> impl Strategy<Value = Tree> {
    let row = (
        0usize..6,
        0usize..LABELS.len(),
        proptest::option::of(0usize..TEXTS.len()),
    );
    (
        0usize..LABELS.len(),
        proptest::collection::vec(row, 80..320),
    )
        .prop_map(|(root_label, rows)| {
            let mut tree = Tree::new(LABELS[root_label]);
            let mut stack: Vec<(usize, NodeId)> = vec![(0, tree.root())];
            for (depth, label, text) in rows {
                while stack.len() > 1 && stack.last().unwrap().0 > depth {
                    stack.pop();
                }
                let parent = stack.last().unwrap().1;
                let node = tree.add_child(parent, LABELS[label]);
                if let Some(t) = text {
                    tree.set_text(node, TEXTS[t]);
                }
                stack.push((stack.last().unwrap().0 + 1, node));
            }
            tree
        })
}

/// Applies `history`; removals are skipped when they would take more
/// than a quarter of the tree, so trees stay several words wide.
fn mutate(tree: &mut Tree, history: &[Mutation]) {
    for step in history {
        let nodes: Vec<NodeId> = tree.descendants(tree.root()).collect();
        match *step {
            Mutation::Insert(n, pos, l) => {
                let at = tree.insert_child(nodes[n % nodes.len()], pos, LABELS[l % LABELS.len()]);
                if l % 3 == 0 {
                    tree.set_text(at, TEXTS[l % TEXTS.len()]);
                }
            }
            Mutation::Remove(n) if nodes.len() > 1 => {
                let at = nodes[1 + n % (nodes.len() - 1)];
                if 4 * tree.subtree_size(at) <= tree.len() {
                    tree.remove_subtree(at).unwrap();
                }
            }
            Mutation::SplitThenGraft(n) if nodes.len() > 1 => {
                let at = nodes[1 + n % (nodes.len() - 1)];
                let sub = tree.split_off(at, FragmentId(99)).unwrap();
                let (v, _) = tree.virtual_nodes(tree.root())[0];
                tree.graft(v, &sub).unwrap();
            }
            _ => {}
        }
        tree.validate().unwrap();
    }
}

fn query_strategy() -> impl Strategy<Value = Query> {
    let leaf = prop_oneof![
        (0usize..LABELS.len()).prop_map(|i| Query::Path(Path::empty().desc().child(LABELS[i]))),
        (0usize..LABELS.len()).prop_map(|i| Query::Path(Path::empty().child(LABELS[i]))),
        (0usize..LABELS.len(), 0usize..TEXTS.len()).prop_map(|(i, t)| Query::TextEq(
            Path::empty().desc().child(LABELS[i]),
            TEXTS[t].to_string()
        )),
        (0usize..LABELS.len()).prop_map(|i| Query::LabelEq(LABELS[i].to_string())),
        Just(Query::LabelEq("absent".to_string())),
        // Virtual nodes carry this tag but satisfy no label test.
        Just(Query::Path(Path::empty().desc().child("parbox:virtual"))),
        Just(Query::Path(Path::empty().desc().then(Step::Wildcard))),
        Just(Query::Path(
            Path::empty().then(Step::Wildcard).then(Step::Wildcard)
        )),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.clone().prop_map(Query::not),
            (0usize..LABELS.len(), inner.clone())
                .prop_map(|(i, q)| Query::Path(Path::empty().desc().child(LABELS[i]).filter(q))),
            (0usize..LABELS.len(), inner.clone())
                .prop_map(|(i, q)| Query::Path(Path::empty().child(LABELS[i]).filter(q))),
        ]
    })
}

/// The members compiled one by one, then merged into one program.
fn programs(queries: &[Query]) -> Vec<CompiledQuery> {
    let mut out: Vec<CompiledQuery> = queries.iter().map(compile).collect();
    out.push(merge_programs(&out).merged().clone());
    out
}

fn check_centralized(tree: &Tree, q: &CompiledQuery) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        centralized_eval_counted(tree, q),
        centralized_eval_reference(tree, q),
        "centralized on {} live nodes, query\n{}",
        tree.len(),
        q
    );
    Ok(())
}

/// Builds the repair memo on `t`, then applies one insert or delete
/// picked by `edit` to a copy and propagates it.
fn check_memo(
    t: &Tree,
    q: &CompiledQuery,
    (pick, label, insert): (usize, usize, bool),
) -> Result<(), TestCaseError> {
    let (mut state, work) = IncrementalBottomUp::build(t, q);
    let slow = bottom_up_formula_only(t, q);
    prop_assert_eq!(state.triplet(), &slow.triplet, "memo build, query\n{}", q);
    prop_assert_eq!(work, slow.work_units);

    let mut t = t.clone();
    let nodes: Vec<NodeId> = t
        .descendants(t.root())
        .filter(|&n| !t.node(n).kind.is_virtual())
        .collect();
    let at = nodes[pick % nodes.len()];
    let anchor = if insert || at == t.root() || !t.virtual_nodes(at).is_empty() {
        t.insert_child(at, label % 4, LABELS[label % LABELS.len()]);
        at
    } else {
        let parent = t.node(at).parent().expect("not the root");
        t.remove_subtree(at).unwrap();
        parent
    };
    state.propagate(&t, anchor);
    prop_assert_eq!(
        state.triplet(),
        &bottom_up(&t, q).triplet,
        "memo after an edit at {}, query\n{}",
        anchor,
        q
    );
    Ok(())
}

/// Does `q` hold at `n`? The per-node reference over `n`'s subtree: with
/// downward axes only, `V` at a node reads nothing outside it.
fn holds_at(tree: &Tree, q: &CompiledQuery, n: NodeId) -> bool {
    centralized_eval_reference(&tree.extract_subtree(n), q).answer
}

/// `sel`'s automaton run top-down over the reference's qualifier bits.
fn select_by_reference(tree: &Tree, sel: &SelectionProgram) -> Vec<NodeId> {
    let (k, mut selected) = (sel.steps.len(), Vec::new());
    let mut todo = vec![(tree.root(), BTreeSet::from([0usize]))];
    while let Some((n, mut states)) = todo.pop() {
        for (i, step) in sel.steps.iter().enumerate() {
            let moves = states.contains(&i)
                && match step {
                    SelStep::Qual(q) => {
                        let qual = CompiledQuery::from_parts(sel.quals.subs().to_vec(), *q);
                        holds_at(tree, &qual, n)
                    }
                    SelStep::DescOrSelf => true,
                    SelStep::Child => false,
                };
            if moves {
                states.insert(i + 1);
            }
        }
        if states.contains(&k) {
            selected.push(n);
        }
        let down: BTreeSet<usize> = states
            .iter()
            .filter_map(|&i| match sel.steps.get(i) {
                Some(SelStep::Child) => Some(i + 1),
                Some(SelStep::DescOrSelf) => Some(i),
                _ => None,
            })
            .collect();
        if !down.is_empty() {
            todo.extend(tree.children(n).map(|c| (c, down.clone())));
        }
    }
    selected.sort_by_key(|n| n.index());
    selected
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernel_matches_per_node_reference(
        tree in tree_strategy(),
        history in proptest::collection::vec(mutation_strategy(), 0..24),
        queries in proptest::collection::vec(query_strategy(), 1..4),
        cuts in proptest::collection::vec(0usize..10_000, 0..5),
        edit in (0usize..10_000, 0usize..100, proptest::bool::ANY),
    ) {
        let mut tree = tree;
        mutate(&mut tree, &history);
        let programs = programs(&queries);
        for q in &programs {
            check_centralized(&tree, q)?;
        }

        let mut forest = Forest::from_tree(tree);
        for seed in cuts {
            let frags: Vec<FragmentId> = forest.fragment_ids().collect();
            let frag = frags[seed % frags.len()];
            let candidates: Vec<NodeId> = {
                let t = &forest.fragment(frag).tree;
                t.descendants(t.root())
                    .skip(1)
                    .filter(|&n| !t.node(n).kind.is_virtual())
                    .collect()
            };
            if !candidates.is_empty() {
                forest.split(frag, candidates[(seed / 7) % candidates.len()]).unwrap();
            }
        }
        for f in forest.fragment_ids() {
            let t = &forest.fragment(f).tree;
            for q in &programs {
                check_centralized(t, q)?;
                let fast = bottom_up(t, q);
                let slow = bottom_up_formula_only(t, q);
                prop_assert_eq!(&fast.triplet, &slow.triplet, "fragment {} query\n{}", f, q);
                prop_assert_eq!(fast.work_units, slow.work_units);
                prop_assert_eq!(fast.work_units, (t.len() * q.len()) as u64);
                check_memo(t, q, edit)?;
            }
        }
    }

    #[test]
    fn extensions_match_the_per_node_reference(
        tree in tree_strategy(),
        history in proptest::collection::vec(mutation_strategy(), 0..24),
        query in query_strategy(),
    ) {
        let mut tree = tree;
        mutate(&mut tree, &history);
        let q = compile(&query);
        let matched: Vec<NodeId> = tree
            .descendants(tree.root())
            .filter(|&n| holds_at(&tree, &q, n))
            .collect();
        prop_assert_eq!(count_centralized(&tree, &q), matched.len() as u64, "{}", q);
        let sum: f64 = matched
            .iter()
            .filter_map(|&n| tree.node(n).text.as_deref()?.trim().parse::<f64>().ok())
            .filter(|x| x.is_finite())
            .sum();
        prop_assert_eq!(sum_centralized(&tree, &q), sum, "{}", q);
        if let Ok(sel) = compile_selection(&query) {
            prop_assert_eq!(
                select_centralized(&tree, &sel),
                select_by_reference(&tree, &sel),
                "{}",
                query
            );
        }
    }
}
