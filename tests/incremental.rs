//! Integration tests of the incremental view maintenance of Section 5:
//! long random update sequences against a from-scratch oracle, locality
//! of recomputation, and traffic independence from data and update size.

use parbox::core::{bottom_up, parbox, Engine, EngineConfig, MaterializedView, Update};
use parbox::frag::{Forest, Placement, SiteId};
use parbox::net::{Cluster, NetworkModel};
use parbox::query::{compile, parse_query, CompiledQuery, Query};
use parbox::xmark::{generate, resolve_data_update, resolve_update, XmarkConfig};
use parbox::xml::{FragmentId, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn setup(bytes: usize, frags: usize, q: &str) -> (Forest, Placement, MaterializedView) {
    let mut tree = parbox::xml::Tree::new("corpus");
    let root = tree.root();
    for i in 0..frags {
        let doc = generate(XmarkConfig {
            target_bytes: bytes / frags,
            seed: 31 + i as u64,
        });
        tree.append_tree(root, &doc);
    }
    let mut forest = Forest::from_tree(tree);
    let f0 = forest.root_fragment();
    let cuts: Vec<_> = {
        let t = &forest.fragment(f0).tree;
        t.children(t.root()).skip(1).collect()
    };
    for c in cuts {
        forest.split(f0, c).unwrap();
    }
    let placement = Placement::one_per_fragment(&forest);
    let compiled = compile(&parse_query(q).unwrap());
    let (view, _) =
        MaterializedView::materialize(&forest, &placement, NetworkModel::lan(), &compiled);
    (forest, placement, view)
}

fn oracle(forest: &Forest, placement: &Placement, q: &CompiledQuery) -> bool {
    let cluster = Cluster::new(forest, placement, NetworkModel::lan());
    parbox(&cluster, q).answer
}

/// Picks a random non-virtual node inside a random fragment.
fn random_node(forest: &Forest, rng: &mut StdRng) -> (FragmentId, NodeId) {
    let frags: Vec<FragmentId> = forest.fragment_ids().collect();
    let frag = frags[rng.random_range(0..frags.len())];
    let tree = &forest.fragment(frag).tree;
    let nodes: Vec<NodeId> = tree
        .descendants(tree.root())
        .filter(|&n| !tree.node(n).kind.is_virtual())
        .collect();
    (frag, nodes[rng.random_range(0..nodes.len())])
}

#[test]
fn long_random_update_sequence_stays_consistent() {
    let (mut forest, mut placement, mut view) = setup(
        24_000,
        4,
        "[//item[payment/text() = \"Cash\"] or //sentinel]",
    );
    let mut rng = StdRng::seed_from_u64(0xFEED);
    let mut applied = 0;
    for step in 0..120 {
        let (frag, node) = random_node(&forest, &mut rng);
        let tree = &forest.fragment(frag).tree;
        let update = match rng.random_range(0..10) {
            0..=4 => Update::InsNode {
                frag,
                parent: node,
                label: if rng.random_bool(0.1) {
                    "sentinel"
                } else {
                    "filler"
                }
                .into(),
                text: rng.random_bool(0.5).then(|| "Cash".to_string()),
            },
            5..=6 => {
                if node == tree.root() || !tree.virtual_nodes(node).is_empty() {
                    continue;
                }
                Update::DelNode { frag, node }
            }
            7..=8 => {
                if node == tree.root() || tree.subtree_size(node) < 2 {
                    continue;
                }
                Update::SplitFragments {
                    frag,
                    node,
                    to_site: Some(SiteId(rng.random_range(0..6))),
                }
            }
            _ => {
                let vnodes = tree.virtual_nodes(tree.root());
                if vnodes.is_empty() {
                    continue;
                }
                let (vn, _) = vnodes[rng.random_range(0..vnodes.len())];
                Update::MergeFragments { frag, node: vn }
            }
        };
        view.apply(&mut forest, &mut placement, update).unwrap();
        applied += 1;
        forest.validate().unwrap();
        assert_eq!(
            view.answer(),
            oracle(&forest, &placement, view.query()),
            "divergence at step {step}"
        );
    }
    assert!(applied > 60, "too few updates exercised: {applied}");
}

#[test]
fn maintenance_visits_only_the_updated_fragments_site() {
    let (mut forest, mut placement, mut view) = setup(20_000, 5, "[//nothing-here]");
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..25 {
        let (frag, node) = random_node(&forest, &mut rng);
        let expected_site = placement.site_of(frag);
        let rep = view
            .apply(
                &mut forest,
                &mut placement,
                Update::InsNode {
                    frag,
                    parent: node,
                    label: "filler".into(),
                    text: None,
                },
            )
            .unwrap();
        let visited: Vec<SiteId> = rep
            .report
            .sites()
            .filter(|(_, r)| r.visits > 0)
            .map(|(s, _)| s)
            .collect();
        assert_eq!(visited, vec![expected_site]);
    }
}

#[test]
fn maintenance_traffic_constant_as_document_grows() {
    let (mut forest, mut placement, mut view) = setup(20_000, 4, "[//needle]");
    let frag = forest.fragment_ids().last().unwrap();
    let parent = forest.fragment(frag).tree.root();

    let probe = |view: &mut MaterializedView, forest: &mut Forest, placement: &mut Placement| {
        view.apply(
            forest,
            placement,
            Update::InsNode {
                frag,
                parent,
                label: "probe".into(),
                text: None,
            },
        )
        .unwrap()
        .report
        .total_bytes()
    };

    let before = probe(&mut view, &mut forest, &mut placement);
    // Grow the fragment by three orders of magnitude more nodes.
    for i in 0..2_000 {
        view.apply(
            &mut forest,
            &mut placement,
            Update::InsNode {
                frag,
                parent,
                label: "bulk".into(),
                text: Some(format!("row {i}")),
            },
        )
        .unwrap();
    }
    let after = probe(&mut view, &mut forest, &mut placement);
    assert_eq!(before, after, "maintenance traffic grew with |T|");
}

#[test]
fn view_survives_full_defragmentation() {
    // Merge everything back into one fragment, one merge at a time, with
    // the view staying consistent throughout.
    let (mut forest, mut placement, mut view) = setup(16_000, 4, "[//item]");
    loop {
        let root = forest.root_fragment();
        let vnode = {
            let t = &forest.fragment(root).tree;
            t.virtual_nodes(t.root()).first().map(|&(n, _)| n)
        };
        let Some(vnode) = vnode else { break };
        view.apply(
            &mut forest,
            &mut placement,
            Update::MergeFragments {
                frag: root,
                node: vnode,
            },
        )
        .unwrap();
        assert_eq!(view.answer(), oracle(&forest, &placement, view.query()));
    }
    assert_eq!(forest.card(), 1);
    assert!(view.answer(), "items exist in every XMark document");
}

// ---------------------------------------------------------------------
// Delta repair vs invalidate-and-recompute: the resident engine's two
// maintenance modes must be observationally equivalent on any update
// schedule. The delta engine repairs cached triplets in place (O(depth));
// the legacy engine drops and recomputes them (O(|fragment|)) — both must
// produce the same answers as one-shot ParBoX at every step.

/// Two engines over identical deployments, differing only in
/// [`EngineConfig::delta_maintenance`], plus a small standing query pool.
fn twin_engines(doc_seed: u64) -> (Engine, Engine, Vec<Query>) {
    let tree = generate(XmarkConfig {
        target_bytes: 6_000,
        seed: doc_seed,
    });
    let mut forest = Forest::from_tree(tree);
    parbox::frag::strategies::fragment_evenly(&mut forest, 4).unwrap();
    let placement = Placement::round_robin(&forest, 2);
    let delta = Engine::new(forest.clone(), placement.clone(), EngineConfig::default())
        .expect("valid deployment");
    let legacy = Engine::new(
        forest,
        placement,
        EngineConfig {
            delta_maintenance: false,
            ..EngineConfig::default()
        },
    )
    .expect("valid deployment");
    let queries = [
        "[//item[payment/text() = \"Cash\"]]",
        "[//item and //person]",
        "[not(//no-such-label)]",
    ]
    .iter()
    .map(|s| parse_query(s).unwrap())
    .collect();
    (delta, legacy, queries)
}

proptest! {
    // Each case spawns two engines' worth of site workers, so fewer
    // cases than a pure-function property would use.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On a random schedule of Section-5 updates (inserts, deletes,
    /// splits, merges — the structural ones exercise the invalidation
    /// fallback inside the delta engine), both maintenance modes agree
    /// with the one-shot oracle after every step.
    #[test]
    fn delta_repair_equals_invalidate_and_recompute(
        doc_seed in 0u64..500,
        update_seeds in proptest::collection::vec(any::<u64>(), 1..20),
    ) {
        let (mut delta, mut legacy, queries) = twin_engines(doc_seed);
        // Warm both caches so the delta engine has entries to repair.
        for q in &queries {
            prop_assert_eq!(delta.query(q).answer, legacy.query(q).answer);
        }
        for (step, seed) in update_seeds.iter().enumerate() {
            // Both forests evolve identically, so resolving against the
            // delta engine yields an update valid for both.
            let Some(update) = resolve_update(delta.forest(), *seed) else {
                continue;
            };
            delta.apply(update.clone()).unwrap();
            legacy.apply(update).unwrap();
            for q in &queries {
                let expected = oracle(delta.forest(), delta.placement(), &compile(q));
                prop_assert_eq!(delta.query(q).answer, expected, "delta, step {}: {}", step, q);
                prop_assert_eq!(legacy.query(q).answer, expected, "legacy, step {}: {}", step, q);
            }
        }
        // The invalidation engine must never have repaired in place.
        prop_assert_eq!(legacy.stats().entries_repaired, 0);
    }
}

/// Ad-hoc queries over the labels and texts [`sensitive_update`]
/// inserts and deletes, so updates flip them often; they share
/// sub-queries, so the programs a site merges into one group overlap.
const AD_HOC: [&str; 8] = [
    "[//sentinel]",
    "[//item and not //sentinel]",
    "[//filler/text() = \"v1\" or //sentinel/text() = \"v2\"]",
    "[//item[sentinel] or //person[filler]]",
    "[*/sentinel or */*/filler]",
    "[not(//filler[sentinel]) and //item]",
    "[//*[sentinel and filler]]",
    "[not(//no-such-label)]",
];

/// A pure data update the [`AD_HOC`] queries can see: a `sentinel`,
/// `filler` or `item` leaf under a random node, or the deletion of a
/// small subtree.
fn sensitive_update(forest: &Forest, rng: &mut StdRng) -> Option<Update> {
    let (frag, node) = random_node(forest, rng);
    let tree = &forest.fragment(frag).tree;
    if rng.random_bool(0.6) {
        let label = ["sentinel", "filler", "item"][rng.random_range(0..3usize)];
        let text = [None, Some("v1"), Some("v2")][rng.random_range(0..3usize)];
        return Some(Update::InsNode {
            frag,
            parent: node,
            label: label.into(),
            text: text.map(String::from),
        });
    }
    let deletable =
        node != tree.root() && tree.virtual_nodes(node).is_empty() && tree.subtree_size(node) <= 4;
    deletable.then_some(Update::DelNode { frag, node })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One memo per group must be as good as one per entry: on a random
    /// schedule of data updates interleaved with ad-hoc queries, with a
    /// site cache of three entries (so members are evicted from live
    /// groups, groups die, and evicted fingerprints come back to join
    /// the next group), every answer equals the oracle **and** every
    /// triplet a site holds for a program equals `bottomUp` of that
    /// program alone on the fragment as it stands — id for id, not just
    /// logically.
    #[test]
    fn grouped_repair_keeps_every_site_entry_id_identical_to_bottom_up(
        doc_seed in 0u64..500,
        schedule_seed in any::<u64>(),
    ) {
        let tree = generate(XmarkConfig { target_bytes: 6_000, seed: doc_seed });
        let mut forest = Forest::from_tree(tree);
        parbox::frag::strategies::fragment_evenly(&mut forest, 4).unwrap();
        let placement = Placement::round_robin(&forest, 4);
        let config = EngineConfig { site_cache_capacity: 3, ..EngineConfig::default() };
        let mut engine = Engine::new(forest, placement, config).expect("valid deployment");
        let mut rng = StdRng::seed_from_u64(schedule_seed);

        let mut asked: Vec<Query> = Vec::new();
        // Per (program, fragment): the triplet the site last showed.
        let mut shown: std::collections::HashMap<(String, FragmentId), _> = Default::default();
        let mut repaired_in_place = 0usize;
        for step in 0..40 {
            // A query comes in every fourth step or so, known or not;
            // the stretches of updates between them are what a group
            // lives through.
            if asked.is_empty() || rng.random_range(0..4u32) == 0 {
                let q = parse_query(AD_HOC[rng.random_range(0..AD_HOC.len())]).unwrap();
                asked.retain(|known| *known != q);
                asked.push(q);
                // One more than a site can hold.
                if asked.len() > 4 {
                    asked.remove(0);
                }
            } else if let Some(update) = sensitive_update(engine.forest(), &mut rng) {
                // Repairs what the owning site still caches; a solve
                // entry whose source was evicted there is invalidated.
                engine.apply(update).unwrap();
            }
            for q in &asked {
                let expected = oracle(engine.forest(), engine.placement(), &compile(q));
                prop_assert_eq!(engine.query(q).answer, expected, "step {}: {}", step, q);
            }
            // What the sites hold for the most recent program (a second
            // would chase the first out of three slots).
            let q = asked.last().expect("asked one above");
            let program = compile(q);
            for (frag, held, hit) in engine.site_triplets(&program) {
                let fresh = bottom_up(&engine.forest().fragment(frag).tree, &program);
                prop_assert_eq!(&*held, &fresh.triplet, "step {}: {} on {}", step, q, frag);
                let before = shown.insert((q.to_string(), frag), Arc::clone(&held));
                repaired_in_place += usize::from(hit && before.is_some_and(|t| t != held));
            }
        }
        // Not vacuous: entries were read back from the cache with a
        // triplet an update had given them there.
        prop_assert!(repaired_in_place > 0, "no repaired entry was read back");
    }
}

/// Deterministic direction of the same property: a pure data-update
/// schedule (no splits/merges) is serviced *entirely* by in-place repair
/// on the delta engine — zero invalidations — while still agreeing with
/// the invalidate-and-recompute engine at every step.
#[test]
fn data_update_schedule_repairs_in_place_and_agrees() {
    let (mut delta, mut legacy, queries) = twin_engines(2006);
    for q in &queries {
        assert_eq!(delta.query(q).answer, legacy.query(q).answer);
    }
    let mut applied = 0;
    for seed in 0..60u64 {
        let Some(update) = resolve_data_update(delta.forest(), seed) else {
            continue;
        };
        delta.apply(update.clone()).unwrap();
        legacy.apply(update).unwrap();
        applied += 1;
        for q in &queries {
            let expected = oracle(delta.forest(), delta.placement(), &compile(q));
            assert_eq!(delta.query(q).answer, expected, "delta after seed {seed}");
            assert_eq!(legacy.query(q).answer, expected, "legacy after seed {seed}");
        }
    }
    assert!(applied > 10, "schedule too thin: {applied} updates");
    let stats = delta.stats();
    assert!(stats.entries_repaired > 0, "delta engine never repaired");
    assert_eq!(
        stats.entries_invalidated, 0,
        "data updates must repair, not invalidate"
    );
    assert_eq!(legacy.stats().entries_repaired, 0);
    assert!(legacy.stats().entries_invalidated > 0);
}

#[test]
fn refresh_tracks_external_mutations() {
    let (mut forest, mut placement, mut view) = setup(16_000, 3, "[//external-marker]");
    assert!(!view.answer());
    // Mutate the forest directly (not through the view), as a second
    // writer would, then refresh the view for the changed fragment.
    let frag = forest.fragment_ids().last().unwrap();
    let root = forest.fragment(frag).tree.root();
    forest.tree_mut(frag).add_child(root, "external-marker");
    let rep = view.refresh(&forest, &placement, frag);
    assert!(rep.answer_changed);
    assert!(view.answer());
    assert_eq!(view.answer(), oracle(&forest, &placement, view.query()));
    let _ = &mut placement;
}
