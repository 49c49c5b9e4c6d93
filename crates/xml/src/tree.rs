//! The arena-based XML tree.

use crate::iter::{Ancestors, Descendants, Postorder};
use crate::{FragmentId, LabelId, LabelTable, Node, NodeId, NodeKind, XmlError};

/// An ordered, labelled XML tree stored in a flat arena.
///
/// The tree always has a root. Structural mutation (insert / remove /
/// split / graft) is supported in place; removed slots are tomb-stoned, so
/// `NodeId`s of live nodes are never invalidated by unrelated mutations.
///
/// This is the storage substrate for both whole documents and fragments of
/// documents: a *fragment* is simply a `Tree` whose leaves may include
/// [`NodeKind::Virtual`] nodes pointing at sub-fragments (paper, Section 2.1).
///
/// **Allocation order.** A node's slot index is greater than its
/// parent's: every node is allocated after the parent it is attached to,
/// and no node is ever re-parented. Slot order ([`Tree::live_nodes`])
/// therefore lists every parent before its children, and the root first.
/// [`Tree::validate`] checks this.
#[derive(Debug, Clone)]
pub struct Tree {
    nodes: Vec<Node>,
    labels: LabelTable,
    root: NodeId,
    live_count: usize,
}

impl Tree {
    /// Creates a tree with a single root element labelled `root_label`.
    pub fn new(root_label: &str) -> Self {
        let mut labels = LabelTable::new();
        let lid = labels.intern(root_label);
        let root = Node::new(lid, NodeKind::Element);
        Tree {
            nodes: vec![root],
            labels,
            root: NodeId(0),
            live_count: 1,
        }
    }

    /// Parses an XML document string. See [`crate::parse_str`].
    pub fn parse(input: &str) -> Result<Self, XmlError> {
        crate::parse_str(input, &crate::ParseOptions::default())
    }

    /// Serializes the tree back to XML. See [`crate::write_tree`].
    pub fn to_xml(&self) -> String {
        crate::write_tree(self, &crate::WriteOptions::default())
    }

    /// The root node id.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Immutable access to a node.
    ///
    /// # Panics
    /// Panics (in debug builds) if `id` refers to a removed node.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        let n = &self.nodes[id.index()];
        debug_assert!(n.live, "access to removed node {id}");
        n
    }

    /// Mutable access to a node.
    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        let n = &mut self.nodes[id.index()];
        debug_assert!(n.live, "access to removed node {id}");
        n
    }

    /// True if `id` names a live node of this tree.
    #[inline]
    pub fn is_live(&self, id: NodeId) -> bool {
        self.nodes.get(id.index()).map(|n| n.live).unwrap_or(false)
    }

    /// The label table of this tree.
    #[inline]
    pub fn labels(&self) -> &LabelTable {
        &self.labels
    }

    /// Interns a label in this tree's table.
    pub fn intern_label(&mut self, name: &str) -> LabelId {
        self.labels.intern(name)
    }

    /// The tag name of a node as a string.
    #[inline]
    pub fn label_str(&self, id: NodeId) -> &str {
        self.labels.resolve(self.node(id).label)
    }

    /// Number of live nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// True when only tomb-stones remain (cannot normally happen: the root
    /// is never removable).
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Size of the backing arena (≥ [`Self::len`]; tomb-stones included).
    /// Useful for sizing side tables indexed by [`NodeId::index`].
    #[inline]
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// Live nodes in arena-slot order, which lists every parent before
    /// its children (see the allocation order on [`Tree`]). One sequential
    /// scan of the arena, tomb-stones skipped.
    pub fn live_nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.live)
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Appends a new element child to `parent` and returns its id.
    pub fn add_child(&mut self, parent: NodeId, label: &str) -> NodeId {
        let lid = self.labels.intern(label);
        self.push_node(parent, Node::new(lid, NodeKind::Element))
    }

    /// Appends a new element child with text content.
    pub fn add_text_child(&mut self, parent: NodeId, label: &str, text: &str) -> NodeId {
        let id = self.add_child(parent, label);
        self.node_mut(id).text = Some(text.into());
        id
    }

    /// Appends a virtual child pointing at sub-fragment `frag`.
    pub fn add_virtual_child(&mut self, parent: NodeId, frag: FragmentId) -> NodeId {
        let lid = self.labels.intern(crate::writer::VIRTUAL_TAG);
        self.push_node(parent, Node::new(lid, NodeKind::Virtual(frag)))
    }

    /// Inserts a new element child of `parent` at position `pos` among its
    /// children (clamped to the end).
    pub fn insert_child(&mut self, parent: NodeId, pos: usize, label: &str) -> NodeId {
        let lid = self.labels.intern(label);
        let id = self.alloc(Node::new(lid, NodeKind::Element));
        self.nodes[id.index()].parent = Some(parent);
        let kids = &mut self.nodes[parent.index()].children;
        let pos = pos.min(kids.len());
        kids.insert(pos, id);
        id
    }

    fn alloc(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.live_count += 1;
        id
    }

    fn push_node(&mut self, parent: NodeId, mut node: Node) -> NodeId {
        debug_assert!(self.is_live(parent));
        node.parent = Some(parent);
        let id = self.alloc(node);
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Sets the text content of a node.
    pub fn set_text(&mut self, id: NodeId, text: &str) {
        self.node_mut(id).text = Some(text.into());
    }

    /// Adds an attribute to a node.
    pub fn set_attr(&mut self, id: NodeId, name: &str, value: &str) {
        let node = self.node_mut(id);
        if let Some(slot) = node.attrs.iter_mut().find(|(n, _)| n.as_ref() == name) {
            slot.1 = value.into();
        } else {
            node.attrs.push((name.into(), value.into()));
        }
    }

    /// Children of `id` in document order.
    pub fn children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.node(id).children.iter().copied()
    }

    /// Proper ancestors of `id`, nearest first.
    pub fn ancestors(&self, id: NodeId) -> Ancestors<'_> {
        Ancestors::new(self, id)
    }

    /// `id` and all its descendants, preorder (document order).
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        Descendants::new(self, id)
    }

    /// `id` and all its descendants, postorder (children before parents) —
    /// the traversal order of the paper's `bottomUp` procedure.
    pub fn postorder(&self, id: NodeId) -> Postorder<'_> {
        Postorder::new(self, id)
    }

    /// Number of nodes in the subtree rooted at `id` (inclusive).
    pub fn subtree_size(&self, id: NodeId) -> usize {
        self.descendants(id).count()
    }

    /// Ids of all virtual nodes in the subtree rooted at `id`, in document
    /// order, together with the fragments they reference.
    pub fn virtual_nodes(&self, id: NodeId) -> Vec<(NodeId, FragmentId)> {
        self.descendants(id)
            .filter_map(|n| self.node(n).kind.fragment().map(|f| (n, f)))
            .collect()
    }

    /// Removes the subtree rooted at `id` from the tree (the paper's
    /// `delNode`). The root cannot be removed.
    pub fn remove_subtree(&mut self, id: NodeId) -> Result<(), XmlError> {
        if !self.is_live(id) {
            return Err(XmlError::StaleNode);
        }
        if id == self.root {
            return Err(XmlError::RootNotAllowed);
        }
        let parent = self.nodes[id.index()].parent.expect("non-root has parent");
        let kids = &mut self.nodes[parent.index()].children;
        let pos = kids
            .iter()
            .position(|&c| c == id)
            .expect("child listed in parent");
        kids.remove(pos);
        // Tomb-stone the whole subtree.
        let ids: Vec<NodeId> = self.descendants(id).collect();
        for nid in ids {
            self.nodes[nid.index()].live = false;
            self.nodes[nid.index()].children.clear();
            self.live_count -= 1;
        }
        Ok(())
    }

    /// Extracts the subtree rooted at `at` into a new `Tree`, replacing it
    /// in `self` with a virtual node referencing `frag`. This is the tree
    /// half of the paper's `splitFragments(v)` (Section 5).
    pub fn split_off(&mut self, at: NodeId, frag: FragmentId) -> Result<Tree, XmlError> {
        if !self.is_live(at) {
            return Err(XmlError::StaleNode);
        }
        if at == self.root {
            return Err(XmlError::RootNotAllowed);
        }
        let extracted = self.extract_subtree(at);
        let parent = self.nodes[at.index()].parent.expect("non-root has parent");
        let pos = self.nodes[parent.index()]
            .children
            .iter()
            .position(|&c| c == at)
            .expect("child listed in parent");
        // Tomb-stone the original subtree nodes.
        let ids: Vec<NodeId> = self.descendants(at).collect();
        for nid in ids {
            self.nodes[nid.index()].live = false;
            self.nodes[nid.index()].children.clear();
            self.live_count -= 1;
        }
        // Replace with a virtual node at the same position.
        let lid = self.labels.intern(crate::writer::VIRTUAL_TAG);
        let mut vn = Node::new(lid, NodeKind::Virtual(frag));
        vn.parent = Some(parent);
        let vid = self.alloc(vn);
        self.nodes[parent.index()].children[pos] = vid;
        Ok(extracted)
    }

    /// Deep-copies the subtree rooted at `at` into a fresh tree (labels
    /// re-interned). Does not modify `self`.
    pub fn extract_subtree(&self, at: NodeId) -> Tree {
        let mut out = Tree::new(self.label_str(at));
        let root = out.root();
        out.node_mut(root).text = self.node(at).text.clone();
        out.node_mut(root).attrs = self.node(at).attrs.clone();
        out.node_mut(root).kind = self.node(at).kind;
        self.copy_children_into(at, &mut out, root);
        out
    }

    fn copy_children_into(&self, from: NodeId, out: &mut Tree, to: NodeId) {
        // Iterative copy: depth is bounded only by memory. Sibling order is
        // preserved because children are appended while visiting their
        // parent pair, in document order; the stack order of *pairs* only
        // affects when grandchildren get filled in.
        let mut stack: Vec<(NodeId, NodeId)> = vec![(from, to)];
        while let Some((src_parent, dst_parent)) = stack.pop() {
            for &child in self.node(src_parent).child_ids() {
                let src = self.node(child);
                let lid = out.labels.intern(self.labels.resolve(src.label));
                let mut n = Node::new(lid, src.kind);
                n.text = src.text.clone();
                n.attrs = src.attrs.clone();
                let nid = out.push_node(dst_parent, n);
                stack.push((child, nid));
            }
        }
    }

    /// Appends a deep copy of `sub` (root included) as the last child of
    /// `parent`. Labels are re-interned. Returns the id of the copied
    /// root.
    pub fn append_tree(&mut self, parent: NodeId, sub: &Tree) -> NodeId {
        let sroot = sub.root();
        let lid = self.labels.intern(sub.label_str(sroot));
        let mut n = Node::new(lid, sub.node(sroot).kind);
        n.text = sub.node(sroot).text.clone();
        n.attrs = sub.node(sroot).attrs.clone();
        let nid = self.push_node(parent, n);
        sub.copy_children_into(sroot, self, nid);
        nid
    }

    /// Grafts `sub` into this tree at the virtual node `at`, which must
    /// reference a fragment: the virtual node is replaced by a deep copy of
    /// `sub`'s root and subtree. This is the tree half of the paper's
    /// `mergeFragments(v)`. Returns the id of the grafted root.
    pub fn graft(&mut self, at: NodeId, sub: &Tree) -> Result<NodeId, XmlError> {
        if !self.is_live(at) {
            return Err(XmlError::StaleNode);
        }
        debug_assert!(
            self.node(at).kind.is_virtual(),
            "graft target must be a virtual node"
        );
        let parent = self.nodes[at.index()]
            .parent
            .ok_or(XmlError::RootNotAllowed)?;
        let pos = self.nodes[parent.index()]
            .children
            .iter()
            .position(|&c| c == at)
            .expect("child listed in parent");
        // Copy sub's root.
        let sroot = sub.root();
        let lid = self.labels.intern(sub.label_str(sroot));
        let mut n = Node::new(lid, sub.node(sroot).kind);
        n.text = sub.node(sroot).text.clone();
        n.attrs = sub.node(sroot).attrs.clone();
        n.parent = Some(parent);
        let nid = self.alloc(n);
        self.nodes[parent.index()].children[pos] = nid;
        sub.copy_children_into(sroot, self, nid);
        // Tomb-stone the virtual node.
        self.nodes[at.index()].live = false;
        self.live_count -= 1;
        Ok(nid)
    }

    /// Structural equality: same labels, kinds, text, attributes and child
    /// structure (node ids may differ).
    pub fn structural_eq(&self, other: &Tree) -> bool {
        fn eq_at(a: &Tree, an: NodeId, b: &Tree, bn: NodeId) -> bool {
            let na = a.node(an);
            let nb = b.node(bn);
            if a.labels.resolve(na.label) != b.labels.resolve(nb.label)
                || na.kind != nb.kind
                || na.text != nb.text
                || na.attrs != nb.attrs
                || na.children.len() != nb.children.len()
            {
                return false;
            }
            na.children
                .iter()
                .zip(nb.children.iter())
                .all(|(&ca, &cb)| eq_at(a, ca, b, cb))
        }
        eq_at(self, self.root, other, other.root)
    }

    /// Approximate serialized size in bytes of the subtree rooted at `id`.
    /// Used by the network simulator to cost data shipping (the
    /// `NaiveCentralized` baseline ships fragments wholesale).
    pub fn byte_size(&self, id: NodeId) -> usize {
        self.descendants(id).map(|n| self.node_byte_size(n)).sum()
    }

    /// Approximate serialized size of a single node (its own tags, text
    /// and attributes, children excluded) — the per-node summand of
    /// [`Tree::byte_size`], exposed so statistics can be maintained in
    /// `O(1)` under single-node data updates.
    pub fn node_byte_size(&self, id: NodeId) -> usize {
        let node = self.node(id);
        // "<tag>" + "</tag>" + text + attributes.
        let tag = self.labels.resolve(node.label).len();
        let attrs: usize = node.attrs.iter().map(|(k, v)| k.len() + v.len() + 4).sum();
        2 * tag + 5 + attrs + node.text.as_deref().map_or(0, str::len)
    }

    /// Verifies arena invariants (parent/child symmetry, liveness, single
    /// root, acyclicity, a child's slot after its parent's). Intended for
    /// tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        if !self.is_live(self.root) {
            return Err("root is not live".into());
        }
        if self.node(self.root).parent.is_some() {
            return Err("root has a parent".into());
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![self.root];
        let mut count = 0usize;
        while let Some(id) = stack.pop() {
            if seen[id.index()] {
                return Err(format!("cycle or shared node at {id}"));
            }
            seen[id.index()] = true;
            count += 1;
            let n = &self.nodes[id.index()];
            if !n.live {
                return Err(format!("reachable node {id} is tomb-stoned"));
            }
            for &c in &n.children {
                if self.nodes[c.index()].parent != Some(id) {
                    return Err(format!("child {c} of {id} has wrong parent link"));
                }
                if c.index() <= id.index() {
                    return Err(format!("child {c} of {id} sits in an earlier slot"));
                }
                stack.push(c);
            }
        }
        if count != self.live_count {
            return Err(format!(
                "live_count {} != reachable {}",
                self.live_count, count
            ));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.live && !seen[i] {
                return Err(format!("live node n{i} unreachable from root"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tree {
        // <a><b>one</b><c><d/></c></a>
        let mut t = Tree::new("a");
        let r = t.root();
        t.add_text_child(r, "b", "one");
        let c = t.add_child(r, "c");
        t.add_child(c, "d");
        t
    }

    #[test]
    fn build_and_navigate() {
        let t = sample();
        let r = t.root();
        assert_eq!(t.label_str(r), "a");
        assert_eq!(t.len(), 4);
        let kids: Vec<_> = t.children(r).collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(t.label_str(kids[0]), "b");
        assert_eq!(t.node(kids[0]).text.as_deref(), Some("one"));
        let d = t.children(kids[1]).next().unwrap();
        assert_eq!(t.label_str(d), "d");
        assert_eq!(t.node(d).parent(), Some(kids[1]));
        t.validate().unwrap();
    }

    #[test]
    fn insert_child_positions() {
        let mut t = Tree::new("r");
        let r = t.root();
        t.add_child(r, "x");
        t.add_child(r, "z");
        t.insert_child(r, 1, "y");
        let names: Vec<_> = t.children(r).map(|c| t.label_str(c).to_string()).collect();
        assert_eq!(names, vec!["x", "y", "z"]);
        // Position past the end clamps.
        t.insert_child(r, 99, "w");
        let names: Vec<_> = t.children(r).map(|c| t.label_str(c).to_string()).collect();
        assert_eq!(names, vec!["x", "y", "z", "w"]);
        t.validate().unwrap();
    }

    #[test]
    fn remove_subtree_tombstones() {
        let mut t = sample();
        let r = t.root();
        let c = t.children(r).nth(1).unwrap();
        t.remove_subtree(c).unwrap();
        assert_eq!(t.len(), 2);
        assert!(!t.is_live(c));
        assert_eq!(t.children(r).count(), 1);
        t.validate().unwrap();
    }

    #[test]
    fn remove_root_is_rejected() {
        let mut t = sample();
        let r = t.root();
        assert_eq!(t.remove_subtree(r), Err(XmlError::RootNotAllowed));
    }

    #[test]
    fn remove_twice_is_stale() {
        let mut t = sample();
        let r = t.root();
        let b = t.children(r).next().unwrap();
        t.remove_subtree(b).unwrap();
        assert_eq!(t.remove_subtree(b), Err(XmlError::StaleNode));
    }

    #[test]
    fn split_off_replaces_with_virtual_node() {
        let mut t = sample();
        let r = t.root();
        let c = t.children(r).nth(1).unwrap();
        let sub = t.split_off(c, FragmentId(7)).unwrap();
        // Extracted fragment is <c><d/></c>.
        assert_eq!(sub.label_str(sub.root()), "c");
        assert_eq!(sub.len(), 2);
        // Original now has a virtual node in c's position.
        let kids: Vec<_> = t.children(r).collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(t.node(kids[1]).kind, NodeKind::Virtual(FragmentId(7)));
        t.validate().unwrap();
        sub.validate().unwrap();
    }

    #[test]
    fn graft_restores_split() {
        let mut t = sample();
        let before = t.clone();
        let r = t.root();
        let c = t.children(r).nth(1).unwrap();
        let sub = t.split_off(c, FragmentId(1)).unwrap();
        let v = t
            .virtual_nodes(t.root())
            .into_iter()
            .find(|&(_, f)| f == FragmentId(1))
            .unwrap()
            .0;
        t.graft(v, &sub).unwrap();
        assert!(t.structural_eq(&before));
        t.validate().unwrap();
    }

    #[test]
    fn structural_eq_detects_differences() {
        let a = sample();
        let mut b = sample();
        assert!(a.structural_eq(&b));
        let r = b.root();
        b.add_child(r, "extra");
        assert!(!a.structural_eq(&b));
    }

    #[test]
    fn extract_subtree_is_nondestructive() {
        let t = sample();
        let r = t.root();
        let c = t.children(r).nth(1).unwrap();
        let sub = t.extract_subtree(c);
        assert_eq!(sub.len(), 2);
        assert_eq!(t.len(), 4); // unchanged
        sub.validate().unwrap();
    }

    #[test]
    fn byte_size_grows_with_content() {
        let mut t = Tree::new("r");
        let base = t.byte_size(t.root());
        let r = t.root();
        t.add_text_child(r, "item", "payload-payload");
        assert!(t.byte_size(t.root()) > base + 10);
    }

    #[test]
    fn set_attr_overwrites_existing() {
        let mut t = Tree::new("r");
        let r = t.root();
        t.set_attr(r, "k", "1");
        t.set_attr(r, "k", "2");
        assert_eq!(t.node(r).attr("k"), Some("2"));
        assert_eq!(t.node(r).attrs.len(), 1);
    }

    #[test]
    fn append_tree_copies_whole_subtree() {
        let mut host = Tree::new("host");
        let sub = sample();
        let r = host.root();
        let at = host.append_tree(r, &sub);
        assert_eq!(host.label_str(at), "a");
        assert_eq!(host.subtree_size(at), 4);
        assert_eq!(host.len(), 5);
        // Source unchanged; host valid.
        assert_eq!(sub.len(), 4);
        host.validate().unwrap();
    }

    #[test]
    fn virtual_nodes_are_listed_in_document_order() {
        let mut t = Tree::new("r");
        let r = t.root();
        t.add_virtual_child(r, FragmentId(2));
        let m = t.add_child(r, "mid");
        t.add_virtual_child(m, FragmentId(5));
        let vs = t.virtual_nodes(t.root());
        let frags: Vec<_> = vs.iter().map(|&(_, f)| f).collect();
        assert_eq!(frags, vec![FragmentId(2), FragmentId(5)]);
    }

    #[test]
    fn subtree_size_counts_inclusive() {
        let t = sample();
        assert_eq!(t.subtree_size(t.root()), 4);
        let c = t.children(t.root()).nth(1).unwrap();
        assert_eq!(t.subtree_size(c), 2);
    }
}
