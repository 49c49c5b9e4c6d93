//! Property-based tests of the XML store: serialization round-trips,
//! structural surgery preserves invariants, and iterators agree.

use parbox_xml::{FragmentId, NodeId, Tree};
use proptest::prelude::*;

const LABELS: [&str; 6] = ["a", "b", "item", "name", "x-y", "ns:tag"];
const TEXTS: [&str; 5] = ["", "hello", "two words", "<&\"'>", "päyload ≤ ∞"];

/// Builds a random tree from a preorder (depth, label, text, attr) script.
fn tree_strategy() -> impl Strategy<Value = Tree> {
    let row = (
        0usize..5,
        0usize..LABELS.len(),
        proptest::option::of(0usize..TEXTS.len()),
        proptest::bool::ANY,
    );
    proptest::collection::vec(row, 0..50).prop_map(|rows| {
        let mut tree = Tree::new("root");
        let mut stack: Vec<(usize, NodeId)> = vec![(0, tree.root())];
        for (depth, label, text, attr) in rows {
            let depth = depth + 1;
            while stack
                .last()
                .map(|&(d, _)| d + 1 > depth && d > 0)
                .unwrap_or(false)
            {
                stack.pop();
            }
            let parent = stack.last().expect("root kept").1;
            let node = tree.add_child(parent, LABELS[label]);
            if let Some(t) = text {
                if !TEXTS[t].is_empty() {
                    tree.set_text(node, TEXTS[t]);
                }
            }
            if attr {
                tree.set_attr(node, "k", TEXTS[(label + 1) % TEXTS.len()]);
            }
            stack.push((stack.last().unwrap().0 + 1, node));
        }
        tree
    })
}

proptest! {
    #[test]
    fn serialize_parse_round_trip(tree in tree_strategy()) {
        let xml = tree.to_xml();
        let back = Tree::parse(&xml).unwrap();
        prop_assert!(tree.structural_eq(&back), "xml: {xml}");
    }

    #[test]
    fn pretty_print_round_trip(tree in tree_strategy()) {
        let xml = parbox_xml::write_tree(&tree, &parbox_xml::WriteOptions { indent: true });
        let back = Tree::parse(&xml).unwrap();
        prop_assert!(tree.structural_eq(&back), "xml: {xml}");
    }

    #[test]
    fn traversals_are_consistent(tree in tree_strategy()) {
        let pre: Vec<NodeId> = tree.descendants(tree.root()).collect();
        let post: Vec<NodeId> = tree.postorder(tree.root()).collect();
        prop_assert_eq!(pre.len(), tree.len());
        prop_assert_eq!(post.len(), tree.len());
        // Same node sets.
        let mut a = pre.clone();
        let mut b = post.clone();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
        // Postorder: every node after all of its descendants.
        let pos: std::collections::HashMap<NodeId, usize> =
            post.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for &n in &post {
            for c in tree.children(n) {
                prop_assert!(pos[&c] < pos[&n]);
            }
        }
    }

    #[test]
    fn split_then_graft_is_identity(tree in tree_strategy(), pick in 0usize..1000) {
        let candidates: Vec<NodeId> =
            tree.descendants(tree.root()).skip(1).collect();
        if candidates.is_empty() {
            return Ok(());
        }
        let node = candidates[pick % candidates.len()];
        let before = tree.clone();
        let mut work = tree;
        let sub = work.split_off(node, FragmentId(9)).unwrap();
        work.validate().unwrap();
        sub.validate().unwrap();
        // The cut-out subtree matches the original subtree.
        prop_assert!(sub.structural_eq(&before.extract_subtree(node)));
        // Grafting it back restores the original.
        let v = work
            .virtual_nodes(work.root())
            .into_iter()
            .find(|&(_, f)| f == FragmentId(9))
            .unwrap()
            .0;
        work.graft(v, &sub).unwrap();
        prop_assert!(work.structural_eq(&before));
        work.validate().unwrap();
    }

    #[test]
    fn remove_subtree_shrinks_consistently(tree in tree_strategy(), pick in 0usize..1000) {
        let candidates: Vec<NodeId> =
            tree.descendants(tree.root()).skip(1).collect();
        if candidates.is_empty() {
            return Ok(());
        }
        let node = candidates[pick % candidates.len()];
        let removed = tree.subtree_size(node);
        let before = tree.len();
        let mut work = tree;
        work.remove_subtree(node).unwrap();
        prop_assert_eq!(work.len(), before - removed);
        work.validate().unwrap();
        // Removed ids are dead; re-removal errors.
        prop_assert!(!work.is_live(node));
        prop_assert!(work.remove_subtree(node).is_err());
    }

    /// A random history of insertions at positions, removals, split-and-
    /// graft round trips and virtual children keeps the allocation order:
    /// every child in a later slot than its parent, so slot order lists
    /// the root first and every parent before its children.
    #[test]
    fn mutation_history_keeps_children_in_later_slots(
        tree in tree_strategy(),
        script in proptest::collection::vec((0usize..4, 0usize..1000, 0usize..8), 0..24),
    ) {
        let mut work = tree;
        for (kind, pick, pos) in script {
            let nodes: Vec<NodeId> = work.descendants(work.root()).collect();
            let at = nodes[pick % nodes.len()];
            let inner = at != work.root() && !work.node(at).kind.is_virtual();
            match kind {
                0 => {
                    work.insert_child(at, pos, LABELS[pos % LABELS.len()]);
                }
                1 if inner => work.remove_subtree(at).unwrap(),
                2 if inner => {
                    let sub = work.split_off(at, FragmentId(9)).unwrap();
                    let v = work
                        .virtual_nodes(work.root())
                        .into_iter()
                        .find(|&(_, f)| f == FragmentId(9))
                        .unwrap()
                        .0;
                    work.graft(v, &sub).unwrap();
                }
                3 if !work.node(at).kind.is_virtual() => {
                    work.add_virtual_child(at, FragmentId(5));
                }
                _ => {}
            }
            work.validate().unwrap();
            let order: Vec<NodeId> = work.live_nodes().map(|(id, _)| id).collect();
            prop_assert_eq!(order.len(), work.len());
            prop_assert_eq!(order[0], work.root());
            for (id, node) in work.live_nodes() {
                if let Some(parent) = node.parent() {
                    prop_assert!(parent < id, "{} under {}", id, parent);
                }
            }
        }
    }

    #[test]
    fn byte_size_monotone_under_growth(tree in tree_strategy()) {
        let before = tree.byte_size(tree.root());
        let mut work = tree;
        let root = work.root();
        work.add_text_child(root, "extra", "some text payload");
        prop_assert!(work.byte_size(root) > before);
    }

    #[test]
    fn append_tree_preserves_both(host in tree_strategy(), guest in tree_strategy()) {
        let host_before = host.clone();
        let mut work = host;
        let root = work.root();
        let at = work.append_tree(root, &guest);
        work.validate().unwrap();
        prop_assert_eq!(work.len(), host_before.len() + guest.len());
        prop_assert!(work.extract_subtree(at).structural_eq(&guest));
    }
}
