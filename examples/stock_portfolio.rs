//! The paper's running example end-to-end: a distributed stock
//! portfolio, all six evaluation algorithms, and incremental maintenance
//! of a cached "price alert" view under live trades.
//!
//! Run with: `cargo run --example stock_portfolio`

use parbox::core::{
    full_dist_parbox, hybrid_parbox, lazy_parbox, naive_centralized, naive_distributed, parbox,
    MaterializedView, Update,
};
use parbox::frag::{Forest, Placement, SiteId};
use parbox::net::{Cluster, NetworkModel};
use parbox::query::{compile, parse_query};
use parbox::xmark::{portfolio, PortfolioConfig};
use parbox::xml::FragmentId;

fn main() {
    // Generate a portfolio: 3 brokers × 2 markets × 4 stocks.
    let tree = portfolio(PortfolioConfig {
        brokers: 3,
        markets_per_broker: 2,
        stocks_per_market: 4,
        seed: 42,
    });

    // Fragment like the paper's Fig. 2: the second broker keeps its data
    // on its own servers (F1), and inside it the exchange requires its
    // market data to stay on the exchange's machines (F2). The third
    // broker's first market is also remote (F3).
    let mut forest = Forest::from_tree(tree);
    let f0 = forest.root_fragment();
    let broker2 = {
        let t = &forest.fragment(f0).tree;
        t.children(t.root()).nth(1).expect("second broker")
    };
    let f1 = forest.split(f0, broker2).unwrap();
    let market_in_f1 = {
        let t = &forest.fragment(f1).tree;
        t.descendants(t.root())
            .find(|&n| t.label_str(n) == "market")
            .unwrap()
    };
    let f2 = forest.split(f1, market_in_f1).unwrap();
    let market_in_f0 = {
        let t = &forest.fragment(f0).tree;
        t.descendants(t.root())
            .find(|&n| t.label_str(n) == "market")
            .unwrap()
    };
    let f3 = forest.split(f0, market_in_f0).unwrap();

    // Place: portfolio owner's desktop (S0), broker server (S1), the
    // exchange's server (S2) hosting both F2 and F3.
    let mut placement = Placement::new();
    placement.assign(f0, SiteId(0));
    placement.assign(f1, SiteId(1));
    placement.assign(f2, SiteId(2));
    placement.assign(f3, SiteId(2));
    let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());

    // The alert: has GOOG reached a selling price of 376 anywhere?
    let q = compile(
        &parse_query("[//stock[code/text() = \"GOOG\" and sell/text() = \"376\"]]").unwrap(),
    );

    println!("== all six algorithms, one query ==");
    for (name, out) in [
        ("ParBoX", parbox(&cluster, &q)),
        ("NaiveCentralized", naive_centralized(&cluster, &q)),
        ("NaiveDistributed", naive_distributed(&cluster, &q)),
        ("HybridParBoX", hybrid_parbox(&cluster, &q)),
        ("FullDistParBoX", full_dist_parbox(&cluster, &q)),
        ("LazyParBoX", lazy_parbox(&cluster, &q)),
    ] {
        println!(
            "{name:<18} answer={:<5} max-visits={} traffic={}B",
            out.answer,
            out.report.max_visits(),
            out.report.total_bytes()
        );
    }

    // Cache the alert as a materialized view and maintain it as trades
    // happen on the exchange's servers.
    println!("\n== incremental maintenance of the alert view ==");
    let (mut view, initial) =
        MaterializedView::materialize(&forest, &placement, NetworkModel::lan(), &q);
    println!(
        "materialized: answer={} ({} bytes)",
        view.answer(),
        initial.report.total_bytes()
    );

    // A trade on an unrelated stock: triplet unchanged, no re-solve.
    let market = forest.fragment(f2).tree.root();
    let rep = view
        .apply(
            &mut forest,
            &mut placement,
            Update::InsNode {
                frag: f2,
                parent: market,
                label: "tick".into(),
                text: Some("noise".into()),
            },
        )
        .unwrap();
    println!(
        "irrelevant tick:   answer={} changed={} traffic={}B",
        rep.answer,
        rep.answer_changed,
        rep.report.total_bytes()
    );

    // GOOG hits 376 on the exchange: one fragment re-evaluated, answer flips.
    view.apply(
        &mut forest,
        &mut placement,
        Update::InsNode {
            frag: f2,
            parent: market,
            label: "stock".into(),
            text: None,
        },
    )
    .unwrap();
    let new_stock = {
        let t = &forest.fragment(f2).tree;
        t.children(market).last().unwrap()
    };
    for (label, text) in [("code", "GOOG"), ("sell", "376")] {
        view.apply(
            &mut forest,
            &mut placement,
            Update::InsNode {
                frag: f2,
                parent: new_stock,
                label: label.into(),
                text: Some(text.into()),
            },
        )
        .unwrap();
    }
    println!("GOOG@376 listed:   answer={} (alert fires)", view.answer());
    assert!(view.answer());

    // The exchange archives that market into its own fragment.
    let rep2 = view
        .apply(
            &mut forest,
            &mut placement,
            Update::SplitFragments {
                frag: f2,
                node: new_stock,
                to_site: Some(SiteId(3)),
            },
        )
        .unwrap();
    println!(
        "archive split:     answer={} changed={} fragments={}",
        rep2.answer,
        rep2.answer_changed,
        forest.card()
    );
    assert!(view.answer(), "split must not lose the alert");
    let _ = FragmentId(0);
}
