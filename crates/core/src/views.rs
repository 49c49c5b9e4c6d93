//! The updates of the paper's Section 5 and the one mutation path they
//! take through a fragmented document.
//!
//! A materialized Boolean view `M(q, T)` is maintained incrementally by
//! re-evaluating only the updated fragment `F_j` at its own site and
//! re-solving the (local, cheap) equation system, for `O(|q| ·
//! card(F))` traffic — independent of both `|T|` and the size of the
//! update. The serving engine is that view: [`crate::serve::Engine::subscribe`]
//! materializes it and [`crate::serve::Engine::apply`] maintains it,
//! repairing the cached triplets of `F_j` in place under data updates
//! and re-evaluating just the stale fragments after a split or merge.
//! This module holds what the engine and every other caller share:
//! the [`Update`] itself and [`apply_update_to_forest`], which mutates
//! the forest and placement and reports the [`UpdateEffect`].
//!
//! Four update operations are supported, matching the paper exactly:
//! `insNode`, `delNode`, `splitFragments` and `mergeFragments`.

use parbox_frag::{Forest, FragError, Placement, SiteId};
use parbox_xml::{FragmentId, NodeId, XmlError};

/// An update against a fragmented document.
#[derive(Debug, Clone)]
pub enum Update {
    /// `insNode(A, v)`: insert a node labelled `label` (with optional
    /// text) as a child of `parent` in fragment `frag`.
    InsNode {
        /// Fragment receiving the node.
        frag: FragmentId,
        /// Parent node within the fragment.
        parent: NodeId,
        /// Tag of the new node.
        label: String,
        /// Optional text content.
        text: Option<String>,
    },
    /// `delNode(v)`: delete the subtree rooted at `node` from `frag`.
    /// The subtree must not contain virtual nodes (sub-fragment pointers
    /// are removed with `mergeFragments` first).
    DelNode {
        /// Fragment owning the node.
        frag: FragmentId,
        /// Root of the subtree to delete.
        node: NodeId,
    },
    /// `splitFragments(v)`: make the subtree at `node` a new fragment,
    /// optionally assigning it to `to_site` (defaults to `frag`'s site).
    SplitFragments {
        /// Fragment being split.
        frag: FragmentId,
        /// Cut node.
        node: NodeId,
        /// Destination site for the new fragment.
        to_site: Option<SiteId>,
    },
    /// `mergeFragments(v)`: merge the sub-fragment referenced by the
    /// virtual node `node` back into `frag`. No-op if `node` is not
    /// virtual (the paper's definition).
    MergeFragments {
        /// Host fragment.
        frag: FragmentId,
        /// The virtual node to merge.
        node: NodeId,
    },
}

/// Errors from view maintenance.
#[derive(Debug)]
pub enum ViewError {
    /// The underlying fragmentation operation failed.
    Frag(FragError),
    /// The tree operation failed, or the update names a node that is not
    /// live in its fragment ([`XmlError::StaleNode`]).
    Xml(XmlError),
    /// `delNode` would orphan sub-fragments.
    WouldOrphanFragments(Vec<FragmentId>),
    /// `insNode` names a virtual node as the parent: a virtual node
    /// stands for a sub-fragment and stays a leaf, so the insert belongs
    /// under that fragment's root instead.
    VirtualParent(NodeId),
}

impl std::fmt::Display for ViewError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViewError::Frag(e) => write!(f, "{e}"),
            ViewError::Xml(e) => write!(f, "{e}"),
            ViewError::WouldOrphanFragments(fs) => {
                write!(f, "deleting this subtree would orphan fragments {fs:?}")
            }
            ViewError::VirtualParent(n) => {
                write!(f, "cannot insert under virtual node {n}")
            }
        }
    }
}

impl std::error::Error for ViewError {}

/// An in-place data update expressed *against the fragment tree*: which
/// fragment changed, and the deepest surviving node whose subtree the
/// change lives under (the parent of an inserted or deleted subtree).
///
/// This is the unit the delta-repair maintenance path pushes through the
/// cached `bottomUp` evaluation
/// ([`IncrementalBottomUp::propagate`](crate::eval::IncrementalBottomUp::propagate)):
/// everything off the root-to-`anchor` path keeps its memoized vectors,
/// and so does the path above the first node the change does not reach.
/// Only `insNode`/`delNode` produce a delta — `splitFragments` and
/// `mergeFragments` restructure the fragment tree itself and take the
/// invalidation path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragmentDelta {
    /// The fragment whose tree changed in place.
    pub frag: FragmentId,
    /// Parent of the inserted/deleted subtree; the root-to-`anchor` path
    /// is the only part of the fragment whose triplet contribution can
    /// have changed.
    pub anchor: NodeId,
    /// Exact node-count change of the fragment (+1 for `insNode`, minus
    /// the removed subtree for `delNode`) — lets
    /// [`ForestStats`](parbox_frag::ForestStats) be maintained in `O(1)`
    /// instead of re-walking the fragment.
    pub nodes_delta: isize,
    /// Exact serialized-byte change of the fragment, measured at
    /// mutation time.
    pub bytes_delta: isize,
}

/// The structural effect of applying one [`Update`] to a forest.
#[derive(Debug, Clone, Default)]
pub struct UpdateEffect {
    /// Fragments whose trees changed in place (the update's host
    /// fragments).
    pub touched: Vec<FragmentId>,
    /// Fragments created by the update (`splitFragments`).
    pub added: Vec<FragmentId>,
    /// Fragments that ceased to exist (`mergeFragments`).
    pub removed: Vec<FragmentId>,
    /// For pure data updates: the change as a [`FragmentDelta`], enabling
    /// O(depth) repair of cached triplets instead of invalidation.
    pub delta: Option<FragmentDelta>,
}

impl UpdateEffect {
    /// Fragments whose `(V, CV, DV)` triplets are stale after the update:
    /// the touched hosts plus any newly created fragments.
    pub fn stale(&self) -> impl Iterator<Item = FragmentId> + '_ {
        self.touched.iter().chain(&self.added).copied()
    }

    /// True when the fragment tree itself changed shape (split/merge), so
    /// the source tree's structure must be refreshed.
    pub fn restructured(&self) -> bool {
        !self.added.is_empty() || !self.removed.is_empty()
    }
}

/// Applies one update to the fragmented document, mutating the forest and
/// placement, and reports which fragments were touched, added or removed.
///
/// This is the mutation path of the serving engine's update routing
/// ([`crate::serve::Engine::apply`]). An update whose fragment is not
/// live ([`FragError::UnknownFragment`]), whose node is not a live node
/// of it ([`XmlError::StaleNode`]), or an `insNode` under a virtual node
/// ([`ViewError::VirtualParent`]) is rejected before anything mutates.
pub fn apply_update_to_forest(
    forest: &mut Forest,
    placement: &mut Placement,
    update: Update,
) -> Result<UpdateEffect, ViewError> {
    let (Update::InsNode {
        frag, parent: node, ..
    }
    | Update::DelNode { frag, node }
    | Update::SplitFragments { frag, node, .. }
    | Update::MergeFragments { frag, node }) = update;
    check_live(forest, frag, node)?;
    match update {
        Update::InsNode {
            frag,
            parent,
            label,
            text,
        } => {
            if forest.fragment(frag).tree.node(parent).kind.is_virtual() {
                return Err(ViewError::VirtualParent(parent));
            }
            let tree = forest.tree_mut(frag);
            let new = match text {
                Some(t) => tree.add_text_child(parent, &label, &t),
                None => tree.add_child(parent, &label),
            };
            let bytes_delta = tree.node_byte_size(new) as isize;
            Ok(UpdateEffect {
                touched: vec![frag],
                delta: Some(FragmentDelta {
                    frag,
                    anchor: parent,
                    nodes_delta: 1,
                    bytes_delta,
                }),
                ..Default::default()
            })
        }
        Update::DelNode { frag, node } => {
            let tree = &forest.fragment(frag).tree;
            let orphans: Vec<FragmentId> = tree
                .virtual_nodes(node)
                .into_iter()
                .map(|(_, f)| f)
                .collect();
            if !orphans.is_empty() {
                return Err(ViewError::WouldOrphanFragments(orphans));
            }
            let anchor = tree.ancestors(node).next();
            let nodes_delta = -(tree.subtree_size(node) as isize);
            let bytes_delta = -(tree.byte_size(node) as isize);
            forest
                .tree_mut(frag)
                .remove_subtree(node)
                .map_err(ViewError::Xml)?;
            Ok(UpdateEffect {
                touched: vec![frag],
                delta: anchor.map(|anchor| FragmentDelta {
                    frag,
                    anchor,
                    nodes_delta,
                    bytes_delta,
                }),
                ..Default::default()
            })
        }
        Update::SplitFragments {
            frag,
            node,
            to_site,
        } => {
            let new = forest.split(frag, node).map_err(ViewError::Frag)?;
            let site = to_site.unwrap_or_else(|| placement.site_of(frag));
            placement.assign(new, site);
            // Splitting does not change any query answer, but both the
            // triplets and the source tree must be refreshed (paper,
            // Section 5).
            Ok(UpdateEffect {
                touched: vec![frag],
                added: vec![new],
                ..Default::default()
            })
        }
        Update::MergeFragments { frag, node } => {
            match forest.merge(frag, node).map_err(ViewError::Frag)? {
                Some(gone) => Ok(UpdateEffect {
                    touched: vec![frag],
                    removed: vec![gone],
                    ..Default::default()
                }),
                None => Ok(UpdateEffect::default()), // non-virtual node: no action
            }
        }
    }
}

/// Rejects an update whose fragment is not live, or whose node is not a
/// live node of it.
fn check_live(forest: &Forest, frag: FragmentId, node: NodeId) -> Result<(), ViewError> {
    if !forest.is_live(frag) {
        return Err(ViewError::Frag(FragError::UnknownFragment(frag)));
    }
    if !forest.fragment(frag).tree.is_live(node) {
        return Err(ViewError::Xml(XmlError::StaleNode));
    }
    Ok(())
}

/// [`apply_update_to_forest`] with incremental maintenance of the source
/// tree [`ForestStats`](parbox_frag::ForestStats): a pure data update
/// adjusts the touched fragment's figures in `O(1)` from the exact
/// deltas the mutation measured; a split or merge re-measures only the
/// touched and added fragments (`O(|F_j|)` each, recording their
/// children), then re-derives depth, parent, site and the postorder from
/// the cached children in `O(card(F))`, walking no other fragment. The
/// maintained index stays equal to
/// [`ForestStats::compute`](parbox_frag::ForestStats::compute) from
/// scratch (asserted by the serve suite's proptests).
pub fn apply_update_tracked(
    forest: &mut Forest,
    placement: &mut Placement,
    stats: &mut parbox_frag::ForestStats,
    update: Update,
) -> Result<UpdateEffect, ViewError> {
    let effect = apply_update_to_forest(forest, placement, update)?;
    for &gone in &effect.removed {
        stats.remove_fragment(gone);
    }
    if let (Some(d), false) = (effect.delta, effect.restructured()) {
        // Pure data update: the mutation already measured its exact
        // node/byte deltas — adjust in O(1) instead of re-walking.
        stats.adjust_fragment(d.frag, d.nodes_delta, d.bytes_delta);
    } else {
        for f in effect.stale() {
            stats.refresh_fragment(forest, placement, f);
        }
    }
    if effect.restructured() {
        stats.refresh_structure(forest, placement);
    }
    Ok(effect)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::parbox;
    use crate::serve::{Engine, EngineConfig, Notification, SubscriptionId};
    use parbox_frag::{strategies, ForestStats};
    use parbox_net::{Cluster, NetworkModel};
    use parbox_query::{compile, parse_query, Query};
    use parbox_xml::Tree;

    /// `r` in fragment 0 with `a`, `b` and `c` split off below it into
    /// fragments 1–3, one site per fragment.
    fn document() -> (Forest, Placement) {
        let tree = Tree::parse("<r><a><x>1</x><pad/></a><b><y>2</y><pad/></b><c><z>3</z></c></r>")
            .unwrap();
        let mut forest = Forest::from_tree(tree);
        let root = forest.root_fragment();
        strategies::star(&mut forest, root).unwrap();
        let placement = Placement::one_per_fragment(&forest);
        (forest, placement)
    }

    /// The materialized view of `q` over [`document`]: a standing query
    /// of a resident engine.
    fn view(q: &str) -> (Engine, Query, SubscriptionId) {
        let (forest, placement) = document();
        let mut engine = Engine::new(forest, placement, EngineConfig::default()).unwrap();
        let q = parse_query(q).unwrap();
        let sub = engine.subscribe(&q);
        (engine, q, sub)
    }

    fn node_of(forest: &Forest, frag: FragmentId, label: &str) -> NodeId {
        let t = &forest.fragment(frag).tree;
        t.descendants(t.root())
            .find(|&n| t.label_str(n) == label)
            .unwrap()
    }

    /// Re-evaluates from scratch as an oracle.
    fn oracle(engine: &Engine, q: &Query) -> bool {
        let cluster = Cluster::new(engine.forest(), engine.placement(), NetworkModel::lan());
        parbox(&cluster, &compile(q)).answer
    }

    fn insert(frag: FragmentId, parent: NodeId, label: &str) -> Update {
        Update::InsNode {
            frag,
            parent,
            label: label.into(),
            text: None,
        }
    }

    #[test]
    fn ins_node_flips_answer() {
        let (mut e, q, sub) = view("[//goal]");
        assert_eq!(e.subscription_answer(sub), Some(false));
        let frag = FragmentId(2);
        let parent = node_of(e.forest(), frag, "b");
        let up = e.apply(insert(frag, parent, "goal")).unwrap();
        let flip = Notification {
            subscription: sub,
            answer: true,
        };
        assert_eq!(up.notifications, vec![flip]);
        assert_eq!(up.effect.stale().collect::<Vec<_>>(), vec![frag]);
        assert_eq!(e.subscription_answer(sub), Some(oracle(&e, &q)));
    }

    #[test]
    fn del_node_flips_answer_back() {
        let (mut e, q, sub) = view("[//y = \"2\"]");
        assert_eq!(e.subscription_answer(sub), Some(true));
        let frag = FragmentId(2);
        let y = node_of(e.forest(), frag, "y");
        let up = e.apply(Update::DelNode { frag, node: y }).unwrap();
        let flip = Notification {
            subscription: sub,
            answer: false,
        };
        assert_eq!(up.notifications, vec![flip]);
        assert_eq!(e.subscription_answer(sub), Some(oracle(&e, &q)));
    }

    #[test]
    fn irrelevant_update_stops_after_triplet_comparison() {
        let (mut e, q, sub) = view("[//x = \"1\"]");
        // Insert an unrelated node in fragment c: the repair certifies
        // the triplet unchanged, so the view keeps its memoized answer
        // and nothing is re-solved.
        let frag = FragmentId(3);
        let parent = node_of(e.forest(), frag, "c");
        let rounds = e.stats().rounds;
        let up = e.apply(insert(frag, parent, "noise")).unwrap();
        assert!(up.notifications.is_empty());
        assert!(up.repaired >= 1 && up.invalidated == 0);
        assert_eq!(e.stats().rounds, rounds, "no re-solve");
        assert_eq!(e.subscription_answer(sub), Some(true));
        assert_eq!(e.subscription_answer(sub), Some(oracle(&e, &q)));
    }

    #[test]
    fn maintenance_is_localized() {
        let (mut e, _, _) = view("[//goal]");
        let frag = FragmentId(1);
        let parent = node_of(e.forest(), frag, "a");
        let up = e.apply(insert(frag, parent, "noise")).unwrap();
        // Only the updated fragment's site was visited.
        let visited: Vec<_> = up
            .report
            .sites()
            .filter(|(_, r)| r.visits > 0)
            .map(|(s, _)| s)
            .collect();
        assert_eq!(visited, vec![e.placement().site_of(frag)]);
    }

    #[test]
    fn split_preserves_answer_and_updates_state() {
        let (mut e, q, sub) = view("[//y = \"2\"]");
        let frag = FragmentId(2);
        let y = node_of(e.forest(), frag, "y");
        let up = e
            .apply(Update::SplitFragments {
                frag,
                node: y,
                to_site: Some(SiteId(9)),
            })
            .unwrap();
        assert!(up.notifications.is_empty(), "splitting keeps the answer");
        assert_eq!(e.forest().card(), 5);
        assert_eq!(e.subscription_answer(sub), Some(true));
        assert_eq!(e.subscription_answer(sub), Some(oracle(&e, &q)));
        let new_frag = e.forest().fragment_ids().last().unwrap();
        assert_eq!(up.effect.added, vec![new_frag]);
        assert_eq!(e.placement().site_of(new_frag), SiteId(9));
    }

    #[test]
    fn merge_preserves_answer() {
        let (mut e, q, sub) = view("[//y = \"2\"]");
        // Merge fragment 2 (subtree b) back into the root fragment.
        let root = e.forest().root_fragment();
        let t = &e.forest().fragment(root).tree;
        let vnode = t
            .virtual_nodes(t.root())
            .into_iter()
            .find(|&(_, f)| f == FragmentId(2))
            .unwrap()
            .0;
        let up = e
            .apply(Update::MergeFragments {
                frag: root,
                node: vnode,
            })
            .unwrap();
        assert!(up.notifications.is_empty());
        assert_eq!(e.forest().card(), 3);
        assert_eq!(e.subscription_answer(sub), Some(true));
        assert_eq!(e.subscription_answer(sub), Some(oracle(&e, &q)));
    }

    #[test]
    fn merge_non_virtual_is_noop() {
        let (mut forest, mut placement) = document();
        let frag = FragmentId(2);
        let y = node_of(&forest, frag, "y");
        let effect = apply_update_to_forest(
            &mut forest,
            &mut placement,
            Update::MergeFragments { frag, node: y },
        )
        .unwrap();
        assert_eq!(effect.stale().count(), 0);
        assert!(!effect.restructured() && effect.delta.is_none());
        assert_eq!(forest.card(), 4);
    }

    #[test]
    fn del_node_refuses_to_orphan() {
        let (mut forest, mut placement) = document();
        // Split y out of fragment 2, then try to delete the virtual node
        // that now stands for it.
        let frag = FragmentId(2);
        let y = node_of(&forest, frag, "y");
        let split = Update::SplitFragments {
            frag,
            node: y,
            to_site: None,
        };
        apply_update_to_forest(&mut forest, &mut placement, split).unwrap();
        let t = &forest.fragment(frag).tree;
        let (v, orphan) = t.virtual_nodes(t.root())[0];
        let err = apply_update_to_forest(
            &mut forest,
            &mut placement,
            Update::DelNode { frag, node: v },
        )
        .unwrap_err();
        assert!(matches!(err, ViewError::WouldOrphanFragments(fs) if fs == vec![orphan]));
        assert!(forest.fragment(frag).tree.is_live(v), "nothing was deleted");
    }

    #[test]
    fn traffic_independent_of_update_and_data_size() {
        let (mut e, _, _) = view("[//goal]");
        let frag = FragmentId(1);
        let parent = node_of(e.forest(), frag, "a");
        // Small update.
        let rep1 = e.apply(insert(frag, parent, "n1")).unwrap().report;
        // Large update: 100 inserts, then one more to measure.
        for i in 0..100 {
            let bulk = Update::InsNode {
                frag,
                parent,
                label: format!("bulk{i}"),
                text: Some("payload".into()),
            };
            e.apply(bulk).unwrap();
        }
        let rep2 = e.apply(insert(frag, parent, "n2")).unwrap().report;
        assert_eq!(
            rep1.total_bytes(),
            rep2.total_bytes(),
            "maintenance traffic must not depend on |T|"
        );
    }

    #[test]
    fn tracked_updates_keep_stats_equal_to_recompute() {
        let (mut forest, mut placement) = document();
        let mut stats = ForestStats::compute(&forest, &placement);
        let frag = FragmentId(2);
        let parent = node_of(&forest, frag, "b");
        let goal = insert(frag, parent, "goal");
        apply_update_tracked(&mut forest, &mut placement, &mut stats, goal).unwrap();
        assert_eq!(stats, ForestStats::compute(&forest, &placement));
        let y = node_of(&forest, frag, "y");
        apply_update_tracked(
            &mut forest,
            &mut placement,
            &mut stats,
            Update::SplitFragments {
                frag,
                node: y,
                to_site: Some(SiteId(5)),
            },
        )
        .unwrap();
        assert_eq!(stats, ForestStats::compute(&forest, &placement));
        let vnode = {
            let t = &forest.fragment(frag).tree;
            t.virtual_nodes(t.root())[0].0
        };
        apply_update_tracked(
            &mut forest,
            &mut placement,
            &mut stats,
            Update::MergeFragments { frag, node: vnode },
        )
        .unwrap();
        assert_eq!(stats, ForestStats::compute(&forest, &placement));
    }

    #[test]
    fn random_update_sequences_match_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (mut e, q, sub) = view("[//x = \"1\" or //goal]");
        let mut rng = StdRng::seed_from_u64(42);
        for step in 0..40 {
            let frags: Vec<FragmentId> = e.forest().fragment_ids().collect();
            let frag = frags[rng.random_range(0..frags.len())];
            let tree = &e.forest().fragment(frag).tree;
            let nodes: Vec<NodeId> = tree
                .descendants(tree.root())
                .filter(|&n| !tree.node(n).kind.is_virtual())
                .collect();
            let node = nodes[rng.random_range(0..nodes.len())];
            let update = match rng.random_range(0..3) {
                0 => insert(
                    frag,
                    node,
                    if rng.random_bool(0.2) { "goal" } else { "pad" },
                ),
                1 => {
                    if node == tree.root() || !tree.virtual_nodes(node).is_empty() {
                        continue;
                    }
                    Update::DelNode { frag, node }
                }
                _ => {
                    if node == tree.root() || tree.subtree_size(node) < 2 {
                        continue;
                    }
                    Update::SplitFragments {
                        frag,
                        node,
                        to_site: None,
                    }
                }
            };
            e.apply(update).unwrap();
            assert_eq!(
                e.subscription_answer(sub),
                Some(oracle(&e, &q)),
                "divergence at step {step}"
            );
            e.forest().validate().unwrap();
        }
    }
}
