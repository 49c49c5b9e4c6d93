//! The [`Forest`]: a tree decomposed into disjoint fragments.
//!
//! A fragment is a subtree of the original document whose leaves may be
//! *virtual nodes* pointing at sub-fragments (paper, Section 2.1). The
//! forest tracks the fragment tree (parent/child relation between
//! fragments) and supports the paper's structural update operations
//! `splitFragments` and `mergeFragments` (Section 5).
//!
//! No constraints are imposed on the decomposition: fragments may nest
//! arbitrarily, appear at any level, and have any size — the paper's
//! "most generic possible" fragmentation setting.

use crate::FragError;
use parbox_xml::{FragmentId, NodeId, Tree};
use std::sync::Arc;

/// One fragment of a fragmented tree.
///
/// The tree is held behind an [`Arc`] so a long-lived deployment (the
/// serving engine's per-site workers) can share fragment trees with the
/// authoritative forest without copying; updates go through
/// [`Forest::tree_mut`], which copies-on-write when a site still holds
/// the old handle.
#[derive(Debug, Clone)]
pub struct Fragment {
    /// The fragment's id (its index in the forest).
    pub id: FragmentId,
    /// The fragment's tree; leaves may be virtual nodes.
    pub tree: Arc<Tree>,
    /// Parent fragment in the fragment tree (`None` for the root fragment).
    pub parent: Option<FragmentId>,
}

impl Fragment {
    /// Ids of this fragment's sub-fragments, in document order of their
    /// virtual nodes.
    pub fn sub_fragments(&self) -> Vec<FragmentId> {
        self.tree
            .virtual_nodes(self.tree.root())
            .into_iter()
            .map(|(_, f)| f)
            .collect()
    }

    /// Number of (live) nodes in the fragment, virtual nodes included.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True when the fragment holds no nodes (cannot happen: a fragment
    /// always has a root).
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// True when this fragment has no sub-fragments (a *leaf fragment*).
    pub fn is_leaf(&self) -> bool {
        self.sub_fragments().is_empty()
    }

    /// Approximate serialized size in bytes.
    pub fn byte_size(&self) -> usize {
        self.tree.byte_size(self.tree.root())
    }
}

/// A fragmented XML tree: the collection `F` of disjoint fragments
/// `F_0 … F_n` plus the fragment-tree relation.
#[derive(Debug, Clone)]
pub struct Forest {
    /// Slot per fragment id; merged fragments leave `None` tomb-stones.
    fragments: Vec<Option<Fragment>>,
    root: FragmentId,
}

impl Forest {
    /// Wraps a whole (unfragmented) tree as a forest with the single root
    /// fragment `F0`.
    pub fn from_tree(tree: Tree) -> Forest {
        let root = FragmentId(0);
        Forest {
            fragments: vec![Some(Fragment {
                id: root,
                tree: Arc::new(tree),
                parent: None,
            })],
            root,
        }
    }

    /// The root fragment's id (the fragment containing the document root).
    #[inline]
    pub fn root_fragment(&self) -> FragmentId {
        self.root
    }

    /// Immutable access to a fragment.
    ///
    /// # Panics
    /// Panics if `id` does not name a live fragment.
    pub fn fragment(&self, id: FragmentId) -> &Fragment {
        self.fragments[id.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("fragment {id} was merged away"))
    }

    /// Mutable access to a fragment.
    pub fn fragment_mut(&mut self, id: FragmentId) -> &mut Fragment {
        self.fragments[id.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("fragment {id} was merged away"))
    }

    /// Mutable access to a fragment's tree, copying-on-write if the tree
    /// is currently shared (e.g. with a serving engine's site worker —
    /// the worker keeps its old handle until the engine ships it a fresh
    /// one).
    ///
    /// # Panics
    /// Panics if `id` does not name a live fragment.
    pub fn tree_mut(&mut self, id: FragmentId) -> &mut Tree {
        Arc::make_mut(&mut self.fragment_mut(id).tree)
    }

    /// A shared handle to a fragment's tree (cheap to clone and send to
    /// a site worker).
    ///
    /// # Panics
    /// Panics if `id` does not name a live fragment.
    pub fn tree_handle(&self, id: FragmentId) -> Arc<Tree> {
        Arc::clone(&self.fragment(id).tree)
    }

    /// True if `id` names a live fragment.
    pub fn is_live(&self, id: FragmentId) -> bool {
        self.fragments
            .get(id.index())
            .map(|f| f.is_some())
            .unwrap_or(false)
    }

    /// Live fragment ids, ascending.
    pub fn fragment_ids(&self) -> impl Iterator<Item = FragmentId> + '_ {
        self.fragments
            .iter()
            .filter_map(|f| f.as_ref().map(|f| f.id))
    }

    /// `card(F)`: the number of fragments.
    pub fn card(&self) -> usize {
        self.fragments.iter().filter(|f| f.is_some()).count()
    }

    /// Total number of nodes over all fragments (≈ `|T|` plus one virtual
    /// node per non-root fragment).
    pub fn total_nodes(&self) -> usize {
        self.fragment_ids().map(|id| self.fragment(id).len()).sum()
    }

    /// Total approximate byte size over all fragments.
    pub fn total_bytes(&self) -> usize {
        self.fragment_ids()
            .map(|id| self.fragment(id).byte_size())
            .sum()
    }

    /// The paper's `splitFragments(v)`: makes the subtree rooted at `node`
    /// (inside fragment `frag`) a new sub-fragment, leaving a virtual node
    /// in its place. Returns the new fragment's id.
    pub fn split(&mut self, frag: FragmentId, node: NodeId) -> Result<FragmentId, FragError> {
        if !self.is_live(frag) {
            return Err(FragError::UnknownFragment(frag));
        }
        let new_id = FragmentId(self.fragments.len() as u32);
        let subtree = self
            .tree_mut(frag)
            .split_off(node, new_id)
            .map_err(FragError::Tree)?;
        // Sub-fragments whose virtual nodes moved into the new fragment now
        // hang below it in the fragment tree.
        let moved: Vec<FragmentId> = subtree
            .virtual_nodes(subtree.root())
            .into_iter()
            .map(|(_, f)| f)
            .collect();
        self.fragments.push(Some(Fragment {
            id: new_id,
            tree: Arc::new(subtree),
            parent: Some(frag),
        }));
        for m in moved {
            if self.is_live(m) {
                self.fragment_mut(m).parent = Some(new_id);
            }
        }
        Ok(new_id)
    }

    /// The paper's `mergeFragments(v)`: replaces the virtual node `node`
    /// (inside fragment `frag`) by the sub-fragment it references, which
    /// ceases to exist. If `node` is not virtual, no action is taken
    /// (matching the paper's definition). Returns the merged fragment's
    /// id when a merge happened.
    pub fn merge(
        &mut self,
        frag: FragmentId,
        node: NodeId,
    ) -> Result<Option<FragmentId>, FragError> {
        if !self.is_live(frag) {
            return Err(FragError::UnknownFragment(frag));
        }
        let Some(sub_id) = self.fragment(frag).tree.node(node).kind.fragment() else {
            return Ok(None);
        };
        if !self.is_live(sub_id) {
            return Err(FragError::UnknownFragment(sub_id));
        }
        let sub = self.fragments[sub_id.index()]
            .take()
            .expect("liveness checked");
        self.tree_mut(frag)
            .graft(node, &sub.tree)
            .map_err(FragError::Tree)?;
        // Grand-children fragments are adopted by the host.
        for g in sub.sub_fragments() {
            if self.is_live(g) {
                self.fragment_mut(g).parent = Some(frag);
            }
        }
        Ok(Some(sub_id))
    }

    /// Child fragments of `id` in the fragment tree.
    pub fn children(&self, id: FragmentId) -> Vec<FragmentId> {
        self.fragment(id).sub_fragments()
    }

    /// Parent fragment of `id` in the fragment tree.
    pub fn parent(&self, id: FragmentId) -> Option<FragmentId> {
        self.fragment(id).parent
    }

    /// Bottom-up (postorder) traversal of the fragment tree — the order
    /// in which the coordinator's `evalST` resolves triplets.
    pub fn postorder(&self) -> Vec<FragmentId> {
        let mut out = Vec::with_capacity(self.card());
        self.postorder_into(self.root, &mut out);
        out
    }

    fn postorder_into(&self, id: FragmentId, out: &mut Vec<FragmentId>) {
        for child in self.children(id) {
            self.postorder_into(child, out);
        }
        out.push(id);
    }

    /// Depth of a fragment in the fragment tree (root fragment = 0).
    pub fn depth(&self, id: FragmentId) -> usize {
        let mut d = 0;
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Reassembles the whole original tree by merging every fragment back
    /// into the root fragment (on a clone; the forest is not modified).
    /// Used by tests to check that fragmentation preserves the document.
    pub fn reassemble(&self) -> Tree {
        let mut forest = self.clone();
        loop {
            let root = forest.root;
            let vnode = {
                let tree = &forest.fragment(root).tree;
                tree.virtual_nodes(tree.root()).first().map(|&(n, _)| n)
            };
            match vnode {
                Some(n) => {
                    forest
                        .merge(root, n)
                        .expect("merging a listed virtual node cannot fail");
                }
                None => return Tree::clone(&forest.fragment(root).tree),
            }
        }
    }

    /// Checks forest invariants: the fragment tree is a tree rooted at the
    /// root fragment, every virtual node is a leaf referencing a live
    /// fragment whose `parent` points back, and every non-root fragment is
    /// referenced by exactly one virtual node.
    pub fn validate(&self) -> Result<(), String> {
        if !self.is_live(self.root) {
            return Err("root fragment is not live".into());
        }
        if self.fragment(self.root).parent.is_some() {
            return Err("root fragment has a parent".into());
        }
        let mut referenced = vec![0usize; self.fragments.len()];
        for id in self.fragment_ids() {
            let frag = self.fragment(id);
            frag.tree
                .validate()
                .map_err(|e| format!("fragment {id}: {e}"))?;
            for (vnode, sub) in frag.tree.virtual_nodes(frag.tree.root()) {
                if frag.tree.children(vnode).next().is_some() {
                    return Err(format!(
                        "virtual node {vnode} in fragment {id} has children"
                    ));
                }
                if !self.is_live(sub) {
                    return Err(format!("fragment {id} references dead fragment {sub}"));
                }
                if self.fragment(sub).parent != Some(id) {
                    return Err(format!(
                        "fragment {sub} parent pointer does not match its virtual node in {id}"
                    ));
                }
                referenced[sub.index()] += 1;
            }
        }
        for id in self.fragment_ids() {
            let n = referenced[id.index()];
            if id == self.root {
                if n != 0 {
                    return Err("root fragment is referenced by a virtual node".into());
                }
            } else if n != 1 {
                return Err(format!("fragment {id} referenced by {n} virtual nodes"));
            }
        }
        // Reachability from the root (fragment tree is connected).
        let reachable = self.postorder();
        if reachable.len() != self.card() {
            return Err(format!(
                "fragment tree reaches {} of {} fragments",
                reachable.len(),
                self.card()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `<r><a><x/><y/></a><b><z/></b></r>`
    fn sample_forest() -> Forest {
        let t = Tree::parse("<r><a><x/><y/></a><b><z/></b></r>").unwrap();
        Forest::from_tree(t)
    }

    fn find(forest: &Forest, frag: FragmentId, label: &str) -> NodeId {
        let tree = &forest.fragment(frag).tree;
        tree.descendants(tree.root())
            .find(|&n| tree.label_str(n) == label)
            .unwrap_or_else(|| panic!("no node labelled {label}"))
    }

    #[test]
    fn from_tree_single_fragment() {
        let f = sample_forest();
        assert_eq!(f.card(), 1);
        assert_eq!(f.root_fragment(), FragmentId(0));
        assert!(f.fragment(FragmentId(0)).is_leaf());
        f.validate().unwrap();
    }

    #[test]
    fn split_creates_subfragment() {
        let mut f = sample_forest();
        let a = find(&f, FragmentId(0), "a");
        let f1 = f.split(FragmentId(0), a).unwrap();
        assert_eq!(f.card(), 2);
        assert_eq!(f.parent(f1), Some(FragmentId(0)));
        assert_eq!(f.children(FragmentId(0)), vec![f1]);
        assert_eq!(f.fragment(f1).len(), 3); // a, x, y
        f.validate().unwrap();
    }

    #[test]
    fn nested_split_updates_fragment_tree() {
        let mut f = sample_forest();
        let a = find(&f, FragmentId(0), "a");
        let f1 = f.split(FragmentId(0), a).unwrap();
        let x = find(&f, f1, "x");
        let f2 = f.split(f1, x).unwrap();
        assert_eq!(f.parent(f2), Some(f1));
        assert_eq!(f.depth(f2), 2);
        assert_eq!(f.postorder(), vec![f2, f1, FragmentId(0)]);
        f.validate().unwrap();
    }

    #[test]
    fn split_above_existing_fragment_reparents() {
        // Split x first (child of a), then split a: x's fragment must be
        // re-parented under a's fragment.
        let mut f = sample_forest();
        let x = find(&f, FragmentId(0), "x");
        let fx = f.split(FragmentId(0), x).unwrap();
        assert_eq!(f.parent(fx), Some(FragmentId(0)));
        let a = find(&f, FragmentId(0), "a");
        let fa = f.split(FragmentId(0), a).unwrap();
        assert_eq!(f.parent(fx), Some(fa));
        assert_eq!(f.children(fa), vec![fx]);
        f.validate().unwrap();
    }

    #[test]
    fn merge_restores_tree() {
        let original = Tree::parse("<r><a><x/><y/></a><b><z/></b></r>").unwrap();
        let mut f = sample_forest();
        let a = find(&f, FragmentId(0), "a");
        let f1 = f.split(FragmentId(0), a).unwrap();
        let tree0 = &f.fragment(FragmentId(0)).tree;
        let (vnode, _) = tree0.virtual_nodes(tree0.root())[0];
        let merged = f.merge(FragmentId(0), vnode).unwrap();
        assert_eq!(merged, Some(f1));
        assert_eq!(f.card(), 1);
        assert!(f.fragment(FragmentId(0)).tree.structural_eq(&original));
        f.validate().unwrap();
    }

    #[test]
    fn merge_non_virtual_is_noop() {
        let mut f = sample_forest();
        let b = find(&f, FragmentId(0), "b");
        assert_eq!(f.merge(FragmentId(0), b).unwrap(), None);
        assert_eq!(f.card(), 1);
    }

    #[test]
    fn merge_adopts_grandchildren() {
        let mut f = sample_forest();
        let a = find(&f, FragmentId(0), "a");
        let f1 = f.split(FragmentId(0), a).unwrap();
        let x = find(&f, f1, "x");
        let f2 = f.split(f1, x).unwrap();
        // Merge f1 back into f0; f2 must become a child of f0.
        let tree0 = &f.fragment(FragmentId(0)).tree;
        let (vnode, _) = tree0.virtual_nodes(tree0.root())[0];
        f.merge(FragmentId(0), vnode).unwrap();
        assert_eq!(f.parent(f2), Some(FragmentId(0)));
        assert_eq!(f.children(FragmentId(0)), vec![f2]);
        f.validate().unwrap();
    }

    #[test]
    fn reassemble_round_trips() {
        let original = Tree::parse("<r><a><x/><y/></a><b><z/></b></r>").unwrap();
        let mut f = sample_forest();
        let a = find(&f, FragmentId(0), "a");
        let f1 = f.split(FragmentId(0), a).unwrap();
        let y = find(&f, f1, "y");
        f.split(f1, y).unwrap();
        let b = find(&f, FragmentId(0), "b");
        f.split(FragmentId(0), b).unwrap();
        assert_eq!(f.card(), 4);
        assert!(f.reassemble().structural_eq(&original));
        // Reassembly is non-destructive.
        assert_eq!(f.card(), 4);
        f.validate().unwrap();
    }

    #[test]
    fn validate_rejects_a_virtual_node_with_children() {
        let mut f = sample_forest();
        let a = find(&f, FragmentId(0), "a");
        f.split(FragmentId(0), a).unwrap();
        f.validate().unwrap();
        let vnode = {
            let t = &f.fragment(FragmentId(0)).tree;
            t.virtual_nodes(t.root())[0].0
        };
        f.tree_mut(FragmentId(0)).add_child(vnode, "B");
        let err = f.validate().unwrap_err();
        assert!(err.contains("has children"), "{err}");
    }

    #[test]
    fn split_root_node_is_rejected() {
        let mut f = sample_forest();
        let root = f.fragment(FragmentId(0)).tree.root();
        assert!(f.split(FragmentId(0), root).is_err());
    }

    #[test]
    fn card_and_sizes_account_every_fragment() {
        let mut f = sample_forest();
        let total_before = f.total_nodes();
        let a = find(&f, FragmentId(0), "a");
        f.split(FragmentId(0), a).unwrap();
        // One virtual node was added.
        assert_eq!(f.total_nodes(), total_before + 1);
        assert!(f.total_bytes() > 0);
    }

    #[test]
    fn postorder_is_children_first() {
        let mut f = sample_forest();
        let a = find(&f, FragmentId(0), "a");
        let f1 = f.split(FragmentId(0), a).unwrap();
        let b = find(&f, FragmentId(0), "b");
        let f2 = f.split(FragmentId(0), b).unwrap();
        let order = f.postorder();
        assert_eq!(order.last(), Some(&FragmentId(0)));
        assert!(order.contains(&f1) && order.contains(&f2));
    }
}
