//! End-to-end tests over the experiment builders: every algorithm agrees
//! on every experiment topology, fragments really ship as serialized XML
//! and triplets as their binary encoding, and the harness experiment
//! functions produce sound series.

use parbox::boolean::{decode_triplet_dag, encode_triplet_dag};
use parbox::core::{
    centralized_eval, full_dist_parbox, hybrid_parbox, lazy_parbox, naive_centralized,
    naive_distributed, parbox,
};
use parbox::net::{Cluster, NetworkModel};
use parbox::query::{compile, parse_query};
use parbox::xmark::{marker_query, query_with_qlist};
use parbox_bench::{ft1, ft2_chain, ft3, single_site_split, Scale};

fn tiny() -> Scale {
    Scale {
        corpus_bytes: 36_000,
        seed: 4242,
    }
}

#[test]
fn all_algorithms_agree_on_every_topology() {
    let scale = tiny();
    let clusters: Vec<(&str, parbox::frag::Forest, parbox::frag::Placement)> = vec![
        ("ft1", ft1(scale, 5).0, ft1(scale, 5).1),
        ("ft2", ft2_chain(scale, 5).0, ft2_chain(scale, 5).1),
        ("ft3", ft3(scale, 0.5).0, ft3(scale, 0.5).1),
        (
            "single-site",
            single_site_split(scale, 4).0,
            single_site_split(scale, 4).1,
        ),
    ];
    let queries = [
        marker_query("F0"),
        marker_query("F3"),
        "[//item and //person]".to_string(),
        "[not(//item[payment/text() = \"Bitcoin\"])]".to_string(),
        "[//open_auction[bidder/increase/text() = \"5.00\"]]".to_string(),
    ];
    for (name, forest, placement) in &clusters {
        let whole = forest.reassemble();
        let cluster = Cluster::new(forest, placement, NetworkModel::lan());
        for src in &queries {
            let q = compile(&parse_query(src).unwrap());
            let expected = centralized_eval(&whole, &q);
            assert_eq!(parbox(&cluster, &q).answer, expected, "parbox {name} {src}");
            assert_eq!(
                naive_centralized(&cluster, &q).answer,
                expected,
                "nc {name} {src}"
            );
            assert_eq!(
                naive_distributed(&cluster, &q).answer,
                expected,
                "nd {name} {src}"
            );
            assert_eq!(
                hybrid_parbox(&cluster, &q).answer,
                expected,
                "hy {name} {src}"
            );
            assert_eq!(
                full_dist_parbox(&cluster, &q).answer,
                expected,
                "fd {name} {src}"
            );
            assert_eq!(
                lazy_parbox(&cluster, &q).answer,
                expected,
                "lz {name} {src}"
            );
        }
    }
}

#[test]
fn triplets_survive_the_wire() {
    // What the net layer accounts as "triplet bytes" must actually be a
    // decodable encoding carrying the same values.
    let (forest, _) = ft1(tiny(), 4);
    let (_, q) = query_with_qlist(15, 1);
    for f in forest.fragment_ids() {
        let run = parbox::core::bottom_up(&forest.fragment(f).tree, &q);
        let mut buf = bytes::BytesMut::new();
        encode_triplet_dag(&run.triplet, &mut buf);
        let mut wire = buf.freeze();
        let back = decode_triplet_dag(&mut wire).unwrap();
        assert_eq!(back, run.triplet, "fragment {f}");
    }
}

#[test]
fn fragments_survive_the_wire_as_xml() {
    let (forest, _) = ft2_chain(tiny(), 4);
    for f in forest.fragment_ids() {
        let t = &forest.fragment(f).tree;
        let xml = t.to_xml();
        let back = parbox::xml::Tree::parse(&xml).unwrap();
        assert!(t.structural_eq(&back), "fragment {f} lost in serialization");
    }
}

#[test]
fn marker_queries_target_exactly_one_fragment() {
    let (forest, placement) = ft2_chain(tiny(), 5);
    let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
    for f in forest.fragment_ids() {
        let q = compile(&parse_query(&marker_query(&f.to_string())).unwrap());
        assert!(parbox(&cluster, &q).answer, "marker {f} must be found");
        // Every *other* fragment alone cannot satisfy the marker: its
        // local DV entry is either false or still open (depends on its
        // sub-fragments, which is where the marker actually lives).
        for other in forest.fragment_ids().filter(|&o| o != f) {
            let run = parbox::core::bottom_up(&forest.fragment(other).tree, &q);
            let local = &run.triplet.dv[q.root() as usize];
            assert_ne!(
                local.as_const(),
                Some(true),
                "marker {f} wrongly matched inside {other}"
            );
        }
    }
    // A marker that was never planted is not found.
    let q = compile(&parse_query(&marker_query("F99")).unwrap());
    assert!(!parbox(&cluster, &q).answer);
}

#[test]
fn experiment_series_are_internally_consistent() {
    use parbox_bench::experiments as exp;
    let scale = tiny();

    // Fig. 7: NaiveCentralized's modeled runtime grows with machine count
    // (shipping dominates), and ParBoX never ships data.
    let rows = exp::experiment1_fig7(scale, 6);
    let rt = |series: &str, x: f64| {
        rows.iter()
            .find(|r| r.series == series && r.x == x)
            .unwrap()
            .runtime_s
    };
    let bytes = |series: &str, x: f64| {
        rows.iter()
            .find(|r| r.series == series && r.x == x)
            .unwrap()
            .bytes
    };
    assert!(rt("NaiveCentralized", 6.0) > rt("NaiveCentralized", 1.0));
    assert!(bytes("NaiveCentralized", 6.0) > 10 * bytes("ParBoX", 6.0));

    // Fig. 12: runtime grows with data for every query size.
    let rows = exp::experiment3_fig12(scale, 4);
    for size in ["|QList|=2", "|QList|=23"] {
        let mut xs: Vec<(f64, f64)> = rows
            .iter()
            .filter(|r| r.series == size)
            .map(|r| (r.x, r.runtime_s))
            .collect();
        xs.sort_by(|a, b| a.0.total_cmp(&b.0));
        assert!(
            xs.last().unwrap().1 > xs.first().unwrap().1 * 0.8,
            "{size} did not grow with data: {xs:?}"
        );
    }

    // Fig. 4: ParBoX ships less than NaiveCentralized, visits once.
    let table = exp::fig4_table(scale, 4);
    let pb = table.iter().find(|r| r.algorithm == "ParBoX").unwrap();
    let nc = table
        .iter()
        .find(|r| r.algorithm == "NaiveCentralized")
        .unwrap();
    assert!(pb.bytes < nc.bytes);
    assert_eq!(pb.max_visits, 1);
}

#[test]
fn wan_model_changes_the_winner_margin_not_the_answer() {
    let (forest, placement) = ft1(tiny(), 4);
    let (_, q) = query_with_qlist(8, 9);
    let lan = Cluster::new(&forest, &placement, NetworkModel::lan());
    let wan = Cluster::new(&forest, &placement, NetworkModel::wan());
    let a = parbox(&lan, &q);
    let b = parbox(&wan, &q);
    assert_eq!(a.answer, b.answer);
    assert!(b.report.elapsed_model_s > a.report.elapsed_model_s);
    // Traffic identical: the model only re-prices it.
    assert_eq!(a.report.total_bytes(), b.report.total_bytes());
}
