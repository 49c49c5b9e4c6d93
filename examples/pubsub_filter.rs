//! Publish–subscribe filtering: the paper's motivating use case for
//! Boolean XPath (Section 1). Subscriptions are standing queries on the
//! resident serving engine: each published update repairs the cached
//! triplets in place (O(depth), not O(|fragment|), once a fragment's
//! first update has built the repair memos) and pushes a notification
//! to every subscriber whose predicate flipped.
//!
//! Run with: `cargo run --example pubsub_filter`

use parbox::core::{Engine, EngineConfig, Update};
use parbox::frag::{Forest, Placement};
use parbox::query::{parse_query, Query};
use parbox::xmark::{generate, XmarkConfig};

fn main() {
    // The "publisher": an auction site whose top-level sections live on
    // different machines (regions, categories, people, auctions…).
    let tree = generate(XmarkConfig {
        target_bytes: 40_000,
        seed: 99,
    });
    let mut forest = Forest::from_tree(tree);
    let f0 = forest.root_fragment();
    let sections: Vec<_> = {
        let t = &forest.fragment(f0).tree;
        t.children(t.root()).collect()
    };
    for s in sections {
        forest
            .split(f0, s)
            .expect("top-level sections split cleanly");
    }
    let placement = Placement::one_per_fragment(&forest);
    println!(
        "publisher: {} fragments over {} sites",
        forest.card(),
        placement.sites().len()
    );

    // Subscriptions, from plain structural to negated compound.
    let subs: Vec<(&str, Query)> = [
        ("cash-items", "[//item[payment/text() = \"Cash\"]]"),
        (
            "recall-watch",
            "[//item[name/text() = \"recalled-widget\"]]",
        ),
        ("empty-site", "[not(//item) and not(//person)]"),
        ("combo", "[//person and //item[payment/text() = \"Cash\"]]"),
    ]
    .into_iter()
    .map(|(name, src)| (name, parse_query(src).expect("valid subscription")))
    .collect();

    // One resident engine serves every subscription: standing queries
    // share the two-level triplet cache and are refreshed by the same
    // delta repair that maintains it.
    let mut engine =
        Engine::new(forest, placement, EngineConfig::default()).expect("valid deployment");
    let ids: Vec<_> = subs
        .iter()
        .map(|(name, q)| {
            let id = engine.subscribe(q);
            println!(
                "subscribe {:<14} initially {}",
                name,
                engine.subscription_answer(id).expect("just subscribed")
            );
            (id, *name)
        })
        .collect();

    // A published update: a recalled item appears in a region.
    let regions_frag = engine
        .forest()
        .fragment_ids()
        .find(|&f| {
            let t = &engine.forest().fragment(f).tree;
            t.label_str(t.root()) == "regions"
        })
        .expect("regions fragment");
    let region_node = {
        let t = &engine.forest().fragment(regions_frag).tree;
        t.children(t.root()).next().expect("a region")
    };
    println!("\npublish: recalled-widget listed under {regions_frag}");

    let out = engine
        .apply(Update::InsNode {
            frag: regions_frag,
            parent: region_node,
            label: "item".into(),
            text: None,
        })
        .expect("insert applies");
    assert!(out.notifications.is_empty(), "bare <item/> flips nothing");
    let item_node = {
        let t = &engine.forest().fragment(regions_frag).tree;
        t.children(region_node).last().expect("just inserted")
    };
    let out = engine
        .apply(Update::InsNode {
            frag: regions_frag,
            parent: item_node,
            label: "name".into(),
            text: Some("recalled-widget".into()),
        })
        .expect("insert applies");

    // The engine pushed the flips — no polling, no per-view refresh.
    for n in &out.notifications {
        let (_, name) = ids
            .iter()
            .find(|(id, _)| *id == n.subscription)
            .expect("notified subscription is registered");
        println!("notify {:<14} predicate is now {}", name, n.answer);
    }
    assert!(
        out.notifications.iter().any(|n| {
            let (_, name) = ids.iter().find(|(id, _)| *id == n.subscription).unwrap();
            *name == "recall-watch" && n.answer
        }),
        "the recall subscription must fire"
    );

    let stats = engine.stats();
    assert!(
        stats.entries_repaired > 0 && stats.entries_invalidated == 0,
        "both updates must be maintained by in-place repair"
    );
    println!(
        "\nmaintenance: {} entries repaired in place, {} invalidated, \
         {} nodes re-interned, {} delta bytes shipped",
        stats.entries_repaired,
        stats.entries_invalidated,
        stats.repair_nodes_recomputed,
        stats.repair_delta_bytes
    );

    println!("\nfinal state:");
    for (id, name) in &ids {
        println!(
            "  {:<14} {}",
            name,
            engine.subscription_answer(*id).expect("still subscribed")
        );
    }
    engine.shutdown();
}
