//! Temporal database over a version chain: the paper's FT2 scenario.
//! Each fragment is one version of an auction site, nested under its
//! predecessor; versions live on different archive servers. LazyParBoX
//! walks the chain only as deep as needed to answer a query, while
//! eager ParBoX evaluates every version in parallel.
//!
//! Run with: `cargo run --example temporal_versions`

use parbox::core::{full_dist_parbox, lazy_parbox, parbox};
use parbox::frag::{Forest, Placement};
use parbox::net::{Cluster, NetworkModel};
use parbox::query::{compile, parse_query};
use parbox::xmark::{generate, XmarkConfig};
use parbox::xml::Tree;

const VERSIONS: usize = 6;

fn main() {
    // Build the version history: version 0 (current) at the top, each
    // older version nested below, each tagged with a release label.
    let mut tree = Tree::new("history");
    let mut cur = tree.root();
    for v in 0..VERSIONS {
        let version = tree.add_child(cur, "version");
        tree.set_attr(version, "seq", &v.to_string());
        let tag = tree.add_child(version, "release");
        tree.set_text(tag, &format!("r{v}"));
        let snapshot = generate(XmarkConfig {
            target_bytes: 12_000,
            seed: 7 + v as u64,
        });
        tree.append_tree(version, &snapshot);
        cur = version;
    }

    // Fragment: one version per archive server, chained (FT2).
    let mut forest = Forest::from_tree(tree);
    let mut last = forest.root_fragment();
    for v in 1..VERSIONS {
        let cut = {
            let t = &forest.fragment(last).tree;
            t.descendants(t.root())
                .find(|&n| {
                    t.label_str(n) == "version" && t.node(n).attr("seq") == Some(&v.to_string())
                })
                .expect("version node")
        };
        last = forest.split(last, cut).expect("splittable");
    }
    let placement = Placement::one_per_fragment(&forest);
    let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
    println!(
        "version chain: {} fragments, depth {}",
        forest.card(),
        cluster.forest_stats.max_depth()
    );

    // Query 1: was release r1 ever published? (shallow — near the top)
    // Query 2: was release r5 ever published? (deep — end of the chain)
    // Query 3: was release r9 ever published? (nowhere — full walk)
    for release in ["r1", "r5", "r9"] {
        let q =
            compile(&parse_query(&format!("[//version[release/text() = \"{release}\"]]")).unwrap());
        let eager = parbox(&cluster, &q);
        let lazy = lazy_parbox(&cluster, &q);
        let fulld = full_dist_parbox(&cluster, &q);
        assert_eq!(eager.answer, lazy.answer);
        assert_eq!(eager.answer, fulld.answer);
        let lazy_visits: usize = lazy.report.sites().map(|(_, r)| r.visits).sum();
        println!(
            "{release}: answer={:<5}  eager-work={:>7}  lazy-work={:>7}  lazy-visited {} of {} versions",
            eager.answer,
            eager.report.total_work(),
            lazy.report.total_work(),
            lazy_visits,
            forest.card()
        );
    }

    // The headline trade-off: for shallow hits lazy does a fraction of
    // the work; for misses it walks everything sequentially.
    let shallow = compile(&parse_query("[//version[release/text() = \"r0\"]]").unwrap());
    let lazy = lazy_parbox(&cluster, &shallow);
    let eager = parbox(&cluster, &shallow);
    println!(
        "\nshallow hit: lazy evaluated {} fragment(s), eager evaluated {}",
        lazy.report.sites().map(|(_, r)| r.visits).sum::<usize>(),
        forest.card()
    );
    assert!(lazy.report.total_work() < eager.report.total_work());
}
