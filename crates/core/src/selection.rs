//! Data-selection XPath queries — the extension sketched in the paper's
//! conclusions: "processing data selection XPath queries with the
//! performance guarantee that each site is visited at most twice".
//!
//! A selection query returns the *set of nodes* reached via a path. The
//! evaluation reuses the Boolean machinery end-to-end:
//!
//! 1. **Visit 1** (identical to ParBoX): every site partially evaluates
//!    the qualifier program over its fragments; the coordinator solves
//!    the Boolean equation system, fully resolving every fragment's
//!    triplet.
//! 2. **Visit 2**: the coordinator walks the source tree top-down in
//!    depth waves. Each fragment's site receives the resolved triplets
//!    of its sub-fragments plus the automaton state set arriving at its
//!    fragment root; it runs the column kernel once over the fragment
//!    (qualifier bits for every node, each virtual node taking its
//!    sub-fragment's resolved values) and one top-down pass (state
//!    propagation), returning the selected nodes and the state sets
//!    flowing into each virtual node.
//!
//! With one fragment per site (the paper's experimental setting) every
//! site is visited exactly twice; in general a site is visited once in
//! phase 1 plus once per depth wave containing one of its fragments.

use crate::algorithms::{query_wire_size, resolved_triplet_wire_size};
use crate::eval::bottom_up;
use crate::eval::columns::{eval_columns, Layout, SubTriplets};
use parbox_bool::{triplet_dag_wire_size, EquationSystem};
use parbox_net::{run_sites_parallel, Cluster, MessageKind, RunReport, SiteId};
use parbox_query::{SelStep, SelectionProgram};
use parbox_xml::{FragmentId, NodeId, Tree};
use std::collections::HashMap;
use std::time::Instant;

/// Result of a distributed selection.
#[derive(Debug, Clone)]
pub struct SelectionOutcome {
    /// Selected nodes, tagged with the fragment that owns them, in
    /// document order within each fragment.
    pub nodes: Vec<(FragmentId, NodeId)>,
    /// Full cost accounting (both visits).
    pub report: RunReport,
}

/// Selects, on a whole (unfragmented) tree, every node reached via the
/// selection program's path from the root. The correctness oracle for
/// [`select_distributed`].
pub fn select_centralized(tree: &Tree, sel: &SelectionProgram) -> Vec<NodeId> {
    let empty = HashMap::new();
    let pass = fragment_select_pass(tree, sel, &empty, 1u64);
    pass.selected
}

/// Distributed selection over a fragmented tree.
pub fn select_distributed(cluster: &Cluster<'_>, sel: &SelectionProgram) -> SelectionOutcome {
    let wall = Instant::now();
    let mut report = RunReport::new();
    let coord = cluster.coordinator();
    let st = &cluster.forest_stats;
    let sites: Vec<SiteId> = st.sites().collect();
    let m = sel.quals.len();

    // ---- Visit 1: ParBoX over the qualifier program. --------------------
    let qsize = query_wire_size(&sel.quals);
    for &s in &sites {
        report.record_visit(s);
        if s != coord {
            report.record_message(coord, s, qsize, MessageKind::Query);
        }
    }
    let runs = run_sites_parallel(&sites, |s| {
        st.fragments_at(s)
            .into_iter()
            .map(|f| (f, bottom_up(&cluster.forest.fragment(f).tree, &sel.quals)))
            .collect::<Vec<_>>()
    });
    let mut sys = EquationSystem::new();
    for run in runs {
        report.record_compute(run.site, run.elapsed);
        for (frag, frun) in run.output {
            report.record_work(run.site, frun.work_units);
            if run.site != coord {
                report.record_message(
                    run.site,
                    coord,
                    triplet_dag_wire_size(&frun.triplet),
                    MessageKind::Triplet,
                );
            }
            sys.insert(frag, frun.triplet);
        }
    }
    let resolved = sys.solve(st.postorder()).expect("complete bottom-up order");

    // ---- Visit 2: top-down state propagation in depth waves. ------------
    let mut nodes: Vec<(FragmentId, NodeId)> = Vec::new();
    let mut incoming: HashMap<FragmentId, u64> = HashMap::new();
    incoming.insert(st.root(), 1u64); // state 0 arrives at the root
    for depth in 0..=st.max_depth() {
        let wave = st.fragments_at_depth(depth);
        let mut wave_sites: Vec<parbox_net::SiteId> = Vec::new();
        for &frag in &wave {
            let Some(&mask) = incoming.get(&frag) else {
                continue;
            };
            let site = st.site_of(frag);
            if !wave_sites.contains(&site) {
                wave_sites.push(site);
                report.record_visit(site);
            }
            // Request: sub-fragment triplets + the incoming state mask.
            let entry = st.fragment(frag);
            if site != coord {
                let bytes = 8 + entry.children.len() * resolved_triplet_wire_size(m);
                report.record_message(coord, site, bytes, MessageKind::Control);
            }
            // Local work at the fragment's site.
            let children: SubTriplets =
                entry.children.iter().map(|&c| (c, &resolved[&c])).collect();
            let start = Instant::now();
            let tree = &cluster.forest.fragment(frag).tree;
            let pass = fragment_select_pass(tree, sel, &children, mask);
            report.record_compute(site, start.elapsed());
            report.record_work(site, pass.work_units);
            // Response: selected node ids + per-virtual-node state masks.
            if site != coord {
                let bytes = 4 + 8 * pass.selected.len() + 8 * pass.out_masks.len();
                report.record_message(site, coord, bytes, MessageKind::Data);
            }
            for n in pass.selected {
                nodes.push((frag, n));
            }
            for (sub, sub_mask) in pass.out_masks {
                if sub_mask != 0 {
                    incoming.insert(sub, sub_mask);
                }
            }
        }
    }

    report.elapsed_wall_s = wall.elapsed().as_secs_f64();
    report.elapsed_model_s = report.total_compute_s()
        + cluster
            .model
            .shared_link_time(report.messages.iter().map(|msg| msg.bytes));
    SelectionOutcome { nodes, report }
}

struct SelectPass {
    selected: Vec<NodeId>,
    out_masks: Vec<(FragmentId, u64)>,
    work_units: u64,
}

/// One fragment-local selection pass: the column kernel computing the
/// qualifier bits of every node (virtual nodes read from their
/// sub-fragment's resolved triplet), then a top-down sweep propagating
/// automaton state sets from `root_mask`.
fn fragment_select_pass(
    tree: &Tree,
    sel: &SelectionProgram,
    children: &SubTriplets<'_>,
    root_mask: u64,
) -> SelectPass {
    let resolved = sel.quals.resolve(tree.labels());
    let k = sel.steps.len();
    let layout = Layout::new(tree);
    let cols = eval_columns(&layout, &resolved, false, Some(children));
    let mut work = (layout.len() * resolved.len()) as u64;

    // Top-down: propagate state masks; virtual nodes terminate locally
    // and emit the raw mask for their sub-fragment.
    let mut selected = Vec::new();
    let mut out_masks = Vec::new();
    let accept = 1u64 << k;
    let mut down: Vec<(NodeId, u64)> = vec![(tree.root(), root_mask)];
    while let Some((node, raw)) = down.pop() {
        work += k as u64 + 1;
        if let Some(frag) = tree.node(node).kind.fragment() {
            out_masks.push((frag, raw));
            continue;
        }
        // ε-closure at this node (one ascending pass suffices: additions
        // only ever set higher states).
        let mut mask = raw;
        for (i, step) in sel.steps.iter().enumerate() {
            if mask & (1 << i) == 0 {
                continue;
            }
            match step {
                SelStep::Qual(q) => {
                    if cols.v_bit(*q as usize, layout.pos(node)) {
                        mask |= 1 << (i + 1);
                    }
                }
                SelStep::DescOrSelf => {
                    mask |= 1 << (i + 1);
                }
                SelStep::Child => {}
            }
        }
        if mask & accept != 0 {
            selected.push(node);
        }
        // Edge transitions to children.
        let mut child_raw = 0u64;
        for (i, step) in sel.steps.iter().enumerate() {
            if mask & (1 << i) == 0 {
                continue;
            }
            match step {
                SelStep::Child => child_raw |= 1 << (i + 1),
                SelStep::DescOrSelf => child_raw |= 1 << i,
                SelStep::Qual(_) => {}
            }
        }
        if child_raw != 0 {
            // Reverse push keeps document order in the output.
            for &c in tree.node(node).child_ids().iter().rev() {
                down.push((c, child_raw));
            }
        }
    }
    // The reversed child pushes make the DFS visit in document order, but
    // sort anyway so the contract is independent of traversal details.
    selected.sort_by_key(|n| n.index());

    SelectPass {
        selected,
        out_masks,
        work_units: work,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbox_frag::{strategies, Forest, Placement};
    use parbox_net::NetworkModel;
    use parbox_query::{compile_selection, parse_query};

    fn sel(src: &str) -> SelectionProgram {
        compile_selection(&parse_query(src).unwrap()).unwrap()
    }

    fn labels_of(tree: &Tree, nodes: &[NodeId]) -> Vec<String> {
        nodes
            .iter()
            .map(|&n| tree.label_str(n).to_string())
            .collect()
    }

    #[test]
    fn centralized_selects_descendants() {
        let tree = Tree::parse("<r><a><b/><b><b/></b></a><b/></r>").unwrap();
        let got = select_centralized(&tree, &sel("[//b]"));
        assert_eq!(got.len(), 4);
        assert!(labels_of(&tree, &got).iter().all(|l| l == "b"));
    }

    #[test]
    fn centralized_child_vs_descendant() {
        let tree = Tree::parse("<r><a><c/></a><c/></r>").unwrap();
        assert_eq!(select_centralized(&tree, &sel("[c]")).len(), 1);
        assert_eq!(select_centralized(&tree, &sel("[//c]")).len(), 2);
        assert_eq!(select_centralized(&tree, &sel("[a/c]")).len(), 1);
        assert_eq!(select_centralized(&tree, &sel("[*/c]")).len(), 1);
    }

    #[test]
    fn centralized_with_qualifier() {
        let tree = Tree::parse(
            r#"<r><stock><code>GOOG</code></stock><stock><code>YHOO</code></stock></r>"#,
        )
        .unwrap();
        let got = select_centralized(&tree, &sel("[//stock[code/text() = \"GOOG\"]]"));
        assert_eq!(got.len(), 1);
        let got = select_centralized(&tree, &sel("[//stock]"));
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn root_selection_cases() {
        let tree = Tree::parse("<r><a/></r>").unwrap();
        // ε selects exactly the root.
        let got = select_centralized(&tree, &sel("[.]"));
        assert_eq!(got, vec![tree.root()]);
        // label()=r also selects the root; label()=z selects nothing.
        assert_eq!(select_centralized(&tree, &sel("[label() = r]")).len(), 1);
        assert_eq!(select_centralized(&tree, &sel("[label() = z]")).len(), 0);
        // //a includes descendants only (not the root).
        assert_eq!(select_centralized(&tree, &sel("[//a]")).len(), 1);
    }

    #[test]
    fn text_selection() {
        let tree =
            Tree::parse("<r><code>GOOG</code><code>YHOO</code><name>GOOG</name></r>").unwrap();
        let got = select_centralized(&tree, &sel("[//code/text() = \"GOOG\"]"));
        assert_eq!(got.len(), 1);
        assert_eq!(labels_of(&tree, &got), vec!["code"]);
    }

    fn fragmented_doc() -> (Forest, Placement) {
        let tree = Tree::parse(
            r#"<r>
                 <div><stock><code>GOOG</code></stock><pad/></div>
                 <div><stock><code>YHOO</code></stock>
                      <deep><stock><code>GOOG</code></stock></deep></div>
                 <stock><code>GOOG</code></stock>
               </r>"#,
        )
        .unwrap();
        let mut forest = Forest::from_tree(tree);
        let root = forest.root_fragment();
        strategies::star(&mut forest, root).unwrap();
        // Further split the deep subtree out of the second div.
        let f2 = forest
            .fragment_ids()
            .find(|&f| {
                let t = &forest.fragment(f).tree;
                t.descendants(t.root()).any(|n| t.label_str(n) == "deep")
            })
            .unwrap();
        let deep = {
            let t = &forest.fragment(f2).tree;
            t.descendants(t.root())
                .find(|&n| t.label_str(n) == "deep")
                .unwrap()
        };
        forest.split(f2, deep).unwrap();
        let placement = Placement::one_per_fragment(&forest);
        (forest, placement)
    }

    #[test]
    fn distributed_matches_centralized() {
        let (forest, placement) = fragmented_doc();
        let whole = forest.reassemble();
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        for src in [
            "[//stock]",
            "[//stock[code/text() = \"GOOG\"]]",
            "[//code]",
            "[stock]",
            "[//deep//code]",
            "[//nothing]",
        ] {
            let program = sel(src);
            let central = select_centralized(&whole, &program);
            let distributed = select_distributed(&cluster, &program);
            assert_eq!(
                distributed.nodes.len(),
                central.len(),
                "count mismatch for {src}"
            );
            // Same multiset of labels (node ids differ across forests).
            let mut a: Vec<String> = central
                .iter()
                .map(|&n| whole.label_str(n).to_string())
                .collect();
            let mut b: Vec<String> = distributed
                .nodes
                .iter()
                .map(|&(f, n)| forest.fragment(f).tree.label_str(n).to_string())
                .collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "label mismatch for {src}");
        }
    }

    #[test]
    fn qualifiers_read_sub_fragment_roots_through_their_resolved_values() {
        // Each qualifier holds at the first div only through its child,
        // the root of another fragment, or below it: what the div's site
        // sees at that virtual node is the child fragment's resolved
        // triplet, `V` for the child step and `DV` for the descendant.
        let tree = Tree::parse(
            "<r><div><stock><deal><code>GOOG</code></deal></stock></div><div><pad/></div></r>",
        )
        .unwrap();
        let mut forest = Forest::from_tree(tree);
        let root = forest.root_fragment();
        let stock = {
            let t = &forest.fragment(root).tree;
            t.descendants(t.root())
                .find(|&n| t.label_str(n) == "stock")
                .unwrap()
        };
        forest.split(root, stock).unwrap();
        let placement = Placement::one_per_fragment(&forest);
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        for src in ["[//div[stock]]", "[//div[//code = \"GOOG\"]]"] {
            let out = select_distributed(&cluster, &sel(src));
            let got: Vec<_> = out
                .nodes
                .iter()
                .map(|&(f, n)| (f, forest.fragment(f).tree.label_str(n).to_string()))
                .collect();
            assert_eq!(got, vec![(root, "div".to_string())], "{src}");
        }
    }

    #[test]
    fn each_site_visited_at_most_twice() {
        let (forest, placement) = fragmented_doc();
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let out = select_distributed(&cluster, &sel("[//stock]"));
        for (site, rep) in out.report.sites() {
            assert!(rep.visits <= 2, "site {site} visited {} times", rep.visits);
        }
    }

    #[test]
    fn skipped_subtrees_receive_no_second_visit() {
        // A child-only path never descends past depth 1 of the document,
        // so deep fragments get no phase-2 visit at all.
        let (forest, placement) = fragmented_doc();
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let out = select_distributed(&cluster, &sel("[stock]"));
        assert_eq!(out.nodes.len(), 1);
        // The `deep` fragment's site is visited only once (phase 1).
        let deep_frag = forest
            .fragment_ids()
            .find(|&f| {
                let t = &forest.fragment(f).tree;
                t.label_str(t.root()) == "deep"
            })
            .unwrap();
        let deep_site = placement.site_of(deep_frag);
        assert_eq!(out.report.site(deep_site).visits, 1);
    }

    #[test]
    fn selection_traffic_carries_results_not_fragments() {
        let (forest, placement) = fragmented_doc();
        let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
        let out = select_distributed(&cluster, &sel("[//stock]"));
        // Data messages carry only node ids (8B each + 4B header).
        let data = out.report.bytes_of_kind(MessageKind::Data);
        assert!(data < 200, "result bytes should be tiny, got {data}");
    }
}
