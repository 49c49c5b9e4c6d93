//! The source tree `S_T` (paper, Section 2.1 and Fig. 2b), with the
//! per-fragment sizes a cost-based planner reads.
//!
//! The source tree is the *only* structure ParBoX's algorithms require:
//! it records, for every fragment, the site that stores it, its parent
//! and its child fragments. It is induced from the fragment tree and the
//! placement `h`, and is small (one entry per fragment) — cheap enough to
//! replicate on every site for `FullDistParBoX`.
//!
//! [`ForestStats`] is that tree, and every distributed strategy's cost
//! hangs off the same entries: how big each fragment is (nodes and
//! serialized bytes), how deep it sits, how many sub-fragments hang off
//! it, and how the fragments spread over sites. Recomputing those from
//! the trees is `O(|T|)`, far too slow to consult on every planning
//! decision, so the index is maintained *incrementally*: after an update
//! only the touched fragments are re-measured (`O(|F_j|)`, which also
//! records their children), and when the fragment tree changed shape
//! [`ForestStats::refresh_structure`] re-derives depth, parent, site and
//! the postorder from the cached children in `O(card(F))`, without
//! walking any fragment.
//!
//! The maintained index is asserted equal to a recompute-from-scratch
//! oracle under random insert/remove/split/merge sequences (see the
//! proptest in `crates/frag/tests` and `parbox-core`'s serve suite).

use crate::{Forest, Placement, SiteId};
use parbox_xml::FragmentId;
use std::collections::BTreeMap;

/// One entry of the source tree: a fragment's place in the deployment
/// and its size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragmentStats {
    /// Live nodes in the fragment, virtual nodes included.
    pub nodes: usize,
    /// Approximate serialized size in bytes (what `NaiveCentralized`
    /// ships).
    pub bytes: usize,
    /// Depth in the fragment tree (root fragment = 0).
    pub depth: usize,
    /// Site storing the fragment.
    pub site: SiteId,
    /// Parent fragment in the fragment tree (`None` for the root).
    pub parent: Option<FragmentId>,
    /// Direct sub-fragments, in document order of their virtual nodes;
    /// their number is the fragment's virtual-node fan-out.
    pub children: Vec<FragmentId>,
}

/// Per-site placement totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// Fragments stored at the site (`card(F_Si)`).
    pub fragments: usize,
    /// Total nodes stored at the site (`|F_Si|`).
    pub nodes: usize,
    /// Total approximate bytes stored at the site.
    pub bytes: usize,
}

/// The source tree `S_T` of a fragmented, placed document, with cached
/// sizes so planning reads them in `O(1)`–`O(card(F))` instead of
/// walking trees.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestStats {
    per_fragment: BTreeMap<FragmentId, FragmentStats>,
    per_site: BTreeMap<u32, SiteStats>,
    root: FragmentId,
    postorder: Vec<FragmentId>,
}

impl ForestStats {
    /// Measures the whole forest from scratch — the oracle the
    /// incremental maintenance is tested against.
    pub fn compute(forest: &Forest, placement: &Placement) -> ForestStats {
        let mut stats = ForestStats {
            per_fragment: BTreeMap::new(),
            per_site: BTreeMap::new(),
            root: forest.root_fragment(),
            postorder: Vec::with_capacity(forest.card()),
        };
        for f in forest.fragment_ids() {
            stats
                .per_fragment
                .insert(f, Self::measure(forest, placement, f));
        }
        stats.refresh_structure(forest, placement);
        stats
    }

    fn measure(forest: &Forest, placement: &Placement, f: FragmentId) -> FragmentStats {
        let frag = forest.fragment(f);
        FragmentStats {
            nodes: frag.len(),
            bytes: frag.byte_size(),
            depth: forest.depth(f),
            site: placement.site_of(f),
            parent: frag.parent,
            children: frag.sub_fragments(),
        }
    }

    fn debit_site(&mut self, old: &FragmentStats) {
        let site = self
            .per_site
            .get_mut(&old.site.0)
            .expect("every tracked fragment has a site entry");
        site.fragments -= 1;
        site.nodes -= old.nodes;
        site.bytes -= old.bytes;
        if site.fragments == 0 {
            self.per_site.remove(&old.site.0);
        }
    }

    /// Re-measures one fragment after its tree changed (or it was just
    /// created), children included. `O(|F_j|)` — the cost of walking only
    /// the touched fragment. A split or merge must follow up with
    /// [`ForestStats::refresh_structure`].
    pub fn refresh_fragment(&mut self, forest: &Forest, placement: &Placement, f: FragmentId) {
        let entry = Self::measure(forest, placement, f);
        let site = self.per_site.entry(entry.site.0).or_default();
        site.fragments += 1;
        site.nodes += entry.nodes;
        site.bytes += entry.bytes;
        if let Some(old) = self.per_fragment.insert(f, entry) {
            self.debit_site(&old);
        }
    }

    /// Adjusts one fragment's node/byte figures by a known pure-data
    /// delta (`insNode`/`delNode`) without re-walking the fragment —
    /// `O(1)`, against `refresh_fragment`'s `O(|F_j|)`. The deltas must
    /// be exact (callers measure the inserted/removed nodes at mutation
    /// time) so the maintained figures stay equal to the
    /// recompute-from-scratch oracle. Untracked fragments are ignored.
    pub fn adjust_fragment(&mut self, f: FragmentId, nodes_delta: isize, bytes_delta: isize) {
        let Some(entry) = self.per_fragment.get_mut(&f) else {
            return;
        };
        entry.nodes = entry.nodes.saturating_add_signed(nodes_delta);
        entry.bytes = entry.bytes.saturating_add_signed(bytes_delta);
        if let Some(site) = self.per_site.get_mut(&entry.site.0) {
            site.nodes = site.nodes.saturating_add_signed(nodes_delta);
            site.bytes = site.bytes.saturating_add_signed(bytes_delta);
        }
    }

    /// Forgets a fragment that ceased to exist (`mergeFragments`).
    pub fn remove_fragment(&mut self, f: FragmentId) {
        if let Some(old) = self.per_fragment.remove(&f) {
            self.debit_site(&old);
        }
    }

    /// Re-derives the structure after the fragment tree changed shape:
    /// depth, parent and site of every fragment, the per-site totals and
    /// the postorder, all from the cached children — `O(card(F))`, without
    /// walking any fragment's nodes. The touched and added fragments must
    /// have been re-measured first ([`ForestStats::refresh_fragment`]).
    pub fn refresh_structure(&mut self, forest: &Forest, placement: &Placement) {
        self.root = forest.root_fragment();
        self.postorder.clear();
        // Iterative postorder: (fragment, parent, depth, next child).
        let mut stack = vec![(self.root, None, 0usize, 0usize)];
        while let Some(top) = stack.last_mut() {
            let (f, parent, depth, next) = *top;
            let entry = self
                .per_fragment
                .get_mut(&f)
                .unwrap_or_else(|| panic!("fragment {f} is not tracked"));
            if next == 0 {
                entry.parent = parent;
                entry.depth = depth;
                entry.site = placement.site_of(f);
            }
            match entry.children.get(next) {
                Some(&child) => {
                    top.3 += 1;
                    stack.push((child, Some(f), depth + 1, 0));
                }
                None => {
                    self.postorder.push(f);
                    stack.pop();
                }
            }
        }
        // Rebuild the (small) per-site table from the per-fragment rows;
        // placement changes are rare and the table is O(sites).
        let mut per_site: BTreeMap<u32, SiteStats> = BTreeMap::new();
        for entry in self.per_fragment.values() {
            let site = per_site.entry(entry.site.0).or_default();
            site.fragments += 1;
            site.nodes += entry.nodes;
            site.bytes += entry.bytes;
        }
        self.per_site = per_site;
    }

    /// Statistics of one fragment.
    ///
    /// # Panics
    /// Panics if the fragment is not tracked.
    pub fn fragment(&self, f: FragmentId) -> &FragmentStats {
        self.per_fragment
            .get(&f)
            .unwrap_or_else(|| panic!("fragment {f} is not tracked"))
    }

    /// Iterator over `(fragment, stats)`, ascending by fragment.
    pub fn fragments(&self) -> impl Iterator<Item = (FragmentId, &FragmentStats)> {
        self.per_fragment.iter().map(|(&f, s)| (f, s))
    }

    /// The root fragment.
    pub fn root(&self) -> FragmentId {
        self.root
    }

    /// All fragments in bottom-up (postorder) order, children in
    /// document order — the resolution order of `evalST`.
    pub fn postorder(&self) -> &[FragmentId] {
        &self.postorder
    }

    /// Child fragments of `f`, in document order of their virtual nodes.
    pub fn children(&self, f: FragmentId) -> &[FragmentId] {
        &self.fragment(f).children
    }

    /// Site storing a fragment.
    pub fn site_of(&self, f: FragmentId) -> SiteId {
        self.fragment(f).site
    }

    /// Distinct sites, ascending — the sites the coordinator contacts in
    /// stage 1 of ParBoX.
    pub fn sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.per_site.keys().map(|&s| SiteId(s))
    }

    /// Placement totals of one site (default-empty when the site stores
    /// nothing).
    pub fn site(&self, site: SiteId) -> SiteStats {
        self.per_site.get(&site.0).copied().unwrap_or_default()
    }

    /// Fragments stored at `site`, ascending (`card(F_Si)` is this
    /// list's length).
    pub fn fragments_at(&self, site: SiteId) -> Vec<FragmentId> {
        self.fragments()
            .filter(|(_, s)| s.site == site)
            .map(|(f, _)| f)
            .collect()
    }

    /// Fragments at a given fragment-tree depth, ascending — the
    /// wavefront visited by `LazyParBoX` at traversal step `depth`.
    pub fn fragments_at_depth(&self, depth: usize) -> Vec<FragmentId> {
        self.fragments()
            .filter(|(_, s)| s.depth == depth)
            .map(|(f, _)| f)
            .collect()
    }

    /// `card(F)`.
    pub fn card(&self) -> usize {
        self.per_fragment.len()
    }

    /// Number of distinct sites in use.
    pub fn site_count(&self) -> usize {
        self.per_site.len()
    }

    /// Total live nodes over all fragments (`|T|` plus one virtual node
    /// per non-root fragment).
    pub fn total_nodes(&self) -> usize {
        self.per_fragment.values().map(|e| e.nodes).sum()
    }

    /// Total approximate bytes over all fragments.
    pub fn total_bytes(&self) -> usize {
        self.per_fragment.values().map(|e| e.bytes).sum()
    }

    /// Maximum fragment-tree depth.
    pub fn max_depth(&self) -> usize {
        self.per_fragment
            .values()
            .map(|e| e.depth)
            .max()
            .unwrap_or(0)
    }

    /// Approximate serialized size of the source tree in bytes (one
    /// compact record per fragment) — what `FullDistParBoX` ships when it
    /// replicates the source tree.
    pub fn byte_size(&self) -> usize {
        // frag id + site id + parent id + child count ≈ 16 bytes/entry.
        16 * self.per_fragment.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbox_xml::Tree;

    fn forest() -> (Forest, Placement) {
        let tree = Tree::parse("<r><a><x>1</x><y/></a><b><z>22</z></b><c/></r>").unwrap();
        let mut forest = Forest::from_tree(tree);
        let root = forest.root_fragment();
        crate::strategies::star(&mut forest, root).unwrap();
        let placement = Placement::round_robin(&forest, 2);
        (forest, placement)
    }

    /// Builds the paper's Fig. 2 configuration: F0 ⊃ {F1 ⊃ {F2}, F3},
    /// with F2 and F3 both on site S2.
    fn fig2() -> (Forest, Placement) {
        let t = Tree::parse(
            "<portfolio>\
               <broker><name>Bache</name><market><title>NYSE</title></market></broker>\
               <broker2><market2><stock><code>GOOG</code></stock></market2></broker2>\
             </portfolio>",
        )
        .unwrap();
        let mut forest = Forest::from_tree(t);
        let f0 = forest.root_fragment();
        let find = |forest: &Forest, frag, label: &str| {
            let tree = &forest.fragment(frag).tree;
            tree.descendants(tree.root())
                .find(|&n| tree.label_str(n) == label)
                .unwrap()
        };
        // F1 = broker2 subtree; F2 = stock inside F1; F3 = market inside F0.
        let b2 = find(&forest, f0, "broker2");
        let f1 = forest.split(f0, b2).unwrap();
        let stock = find(&forest, f1, "stock");
        let f2 = forest.split(f1, stock).unwrap();
        let market = find(&forest, f0, "market");
        let f3 = forest.split(f0, market).unwrap();

        let mut p = Placement::new();
        p.assign(f0, SiteId(0));
        p.assign(f1, SiteId(1));
        p.assign(f2, SiteId(2));
        p.assign(f3, SiteId(2));
        (forest, p)
    }

    #[test]
    fn structure_matches_fig2() {
        let (forest, p) = fig2();
        let st = ForestStats::compute(&forest, &p);
        assert_eq!(st.card(), 4);
        assert_eq!(st.root(), FragmentId(0));
        assert_eq!(st.fragment(FragmentId(2)).parent, Some(FragmentId(1)));
        assert_eq!(st.fragment(FragmentId(3)).parent, Some(FragmentId(0)));
        // F0's virtual nodes in document order: market (F3), then broker2 (F1).
        assert_eq!(st.children(FragmentId(0)), [FragmentId(3), FragmentId(1)]);
        assert_eq!(st.children(FragmentId(1)), [FragmentId(2)]);
        assert_eq!(
            st.sites().collect::<Vec<_>>(),
            vec![SiteId(0), SiteId(1), SiteId(2)]
        );
        // S2 stores both F2 and F3 — the site NaiveDistributed visits twice.
        assert_eq!(
            st.fragments_at(SiteId(2)),
            vec![FragmentId(2), FragmentId(3)]
        );
        assert_eq!(st.site_of(FragmentId(3)), SiteId(2));
    }

    #[test]
    fn depths_and_wavefronts() {
        let (forest, p) = fig2();
        let st = ForestStats::compute(&forest, &p);
        assert_eq!(st.fragments_at_depth(0), vec![FragmentId(0)]);
        assert_eq!(st.fragments_at_depth(1), vec![FragmentId(1), FragmentId(3)]);
        assert_eq!(st.fragments_at_depth(2), vec![FragmentId(2)]);
        assert_eq!(st.max_depth(), 2);
    }

    #[test]
    fn postorder_resolves_children_first() {
        let (forest, p) = fig2();
        let st = ForestStats::compute(&forest, &p);
        let order = st.postorder();
        let pos = |f: FragmentId| order.iter().position(|&x| x == f).unwrap();
        assert!(pos(FragmentId(2)) < pos(FragmentId(1)));
        assert!(pos(FragmentId(1)) < pos(FragmentId(0)));
        assert!(pos(FragmentId(3)) < pos(FragmentId(0)));
        assert_eq!(order, forest.postorder());
    }

    #[test]
    fn byte_size_is_per_fragment() {
        let (forest, p) = fig2();
        let st = ForestStats::compute(&forest, &p);
        assert_eq!(st.byte_size(), 16 * 4);
    }

    #[test]
    fn compute_measures_every_fragment() {
        let (forest, placement) = forest();
        let stats = ForestStats::compute(&forest, &placement);
        assert_eq!(stats.card(), forest.card());
        assert_eq!(stats.total_nodes(), forest.total_nodes());
        assert_eq!(stats.total_bytes(), forest.total_bytes());
        assert_eq!(stats.site_count(), placement.sites().len());
        for f in forest.fragment_ids() {
            let s = stats.fragment(f);
            assert_eq!(s.nodes, forest.fragment(f).len());
            assert_eq!(s.bytes, forest.fragment(f).byte_size());
            assert_eq!(s.depth, forest.depth(f));
            assert_eq!(s.children, forest.children(f));
            assert_eq!(s.site, placement.site_of(f));
        }
        // Root has fanout 3 (the star), depth 0.
        let root = stats.fragment(forest.root_fragment());
        assert_eq!((root.depth, root.children.len()), (0, 3));
        assert_eq!(stats.max_depth(), 1);
    }

    #[test]
    fn per_site_totals_partition_the_forest() {
        let (forest, placement) = forest();
        let stats = ForestStats::compute(&forest, &placement);
        let nodes: usize = stats.sites().map(|s| stats.site(s).nodes).sum();
        let frags: usize = stats.sites().map(|s| stats.site(s).fragments).sum();
        assert_eq!(nodes, forest.total_nodes());
        assert_eq!(frags, forest.card());
        assert_eq!(stats.site(SiteId(99)), SiteStats::default());
    }

    #[test]
    fn node_accounting_per_site() {
        // `|F_Si|` is each site's node total, and summed over the sites
        // it is the whole forest.
        let (forest, placement) = forest();
        let st = ForestStats::compute(&forest, &placement);
        let at = |s| -> usize {
            let frags = st.fragments_at(s);
            frags.iter().map(|&f| forest.fragment(f).len()).sum()
        };
        let total: usize = st.sites().map(at).sum();
        assert_eq!(total, forest.total_nodes());
        assert!(st.sites().all(|s| st.site(s).nodes == at(s)));
    }

    #[test]
    fn refresh_fragment_tracks_growth() {
        let (mut forest, placement) = forest();
        let mut stats = ForestStats::compute(&forest, &placement);
        let f = FragmentId(1);
        let root = forest.fragment(f).tree.root();
        forest.tree_mut(f).add_child(root, "grown");
        stats.refresh_fragment(&forest, &placement, f);
        assert_eq!(stats, ForestStats::compute(&forest, &placement));
    }

    #[test]
    fn split_then_structure_refresh_matches_oracle() {
        let (mut forest, mut placement) = forest();
        let mut stats = ForestStats::compute(&forest, &placement);
        let f1 = FragmentId(1);
        let cut = {
            let t = &forest.fragment(f1).tree;
            t.children(t.root()).next().unwrap()
        };
        let new = forest.split(f1, cut).unwrap();
        placement.assign(new, SiteId(7));
        stats.refresh_fragment(&forest, &placement, f1);
        stats.refresh_fragment(&forest, &placement, new);
        stats.refresh_structure(&forest, &placement);
        assert_eq!(stats, ForestStats::compute(&forest, &placement));
        assert_eq!(stats.fragment(new).depth, 2);
        assert_eq!(stats.postorder(), forest.postorder());
    }

    #[test]
    fn remove_fragment_tracks_merges() {
        let (mut forest, placement) = forest();
        let mut stats = ForestStats::compute(&forest, &placement);
        let root = forest.root_fragment();
        let vnode = {
            let t = &forest.fragment(root).tree;
            t.virtual_nodes(t.root())[0].0
        };
        let gone = forest.merge(root, vnode).unwrap().unwrap();
        stats.remove_fragment(gone);
        stats.refresh_fragment(&forest, &placement, root);
        stats.refresh_structure(&forest, &placement);
        assert_eq!(stats, ForestStats::compute(&forest, &placement));
        assert!(!stats.postorder().contains(&gone));
    }
}
