//! Serving a live query/update stream from a resident engine.
//!
//! The one-shot algorithms spawn fresh site threads per query; a serving
//! deployment keeps every site resident. This example deploys the
//! portfolio document once, then demonstrates the three serving-engine
//! behaviours: admission batching, triplet-cache hits on repeated
//! queries (zero data-plane messages), and update routing that
//! invalidates exactly one fragment's cache entries.
//!
//! Run with: `cargo run --example serve`

use parbox::core::Update;
use parbox::prelude::*;

fn main() {
    // 1. The Fig. 1(b) portfolio, fragmented per broker (as in the
    //    quickstart), deployed once onto persistent site workers.
    let tree = Tree::parse(
        r#"<portofolio>
             <broker>
               <name>Merill Lynch</name>
               <market><name>NASDAQ</name>
                 <stock><code>GOOG</code><buy>374</buy><sell>373</sell></stock>
                 <stock><code>YHOO</code><buy>33</buy><sell>35</sell></stock>
               </market>
             </broker>
             <broker>
               <name>Bache</name>
               <market><name>NYSE</name>
                 <stock><code>IBM</code><buy>80</buy><sell>78</sell></stock>
               </market>
             </broker>
           </portofolio>"#,
    )
    .expect("valid XML");
    let mut forest = Forest::from_tree(tree);
    let f0 = forest.root_fragment();
    let brokers: Vec<_> = {
        let t = &forest.fragment(f0).tree;
        t.children(t.root()).collect()
    };
    for broker in brokers {
        forest.split(f0, broker).expect("splittable");
    }
    let placement = Placement::one_per_fragment(&forest);
    let mut engine =
        Engine::new(forest, placement, EngineConfig::default()).expect("valid deployment");
    println!(
        "deployed {} fragments on {} resident site workers\n",
        engine.forest().card(),
        engine.placement().sites().len()
    );

    // 2. Admission batching: three users submit concurrently; one round
    //    answers all of them with a single visit per site.
    let sources = [
        "[//stock[code/text() = \"GOOG\"]]",
        "[//broker[name/text() = \"Bache\"]]",
        "[//stock[code/text() = \"MSFT\"]]",
    ];
    let tickets: Vec<_> = (sources.iter())
        .map(|src| engine.submit(&parse_query(src).expect("valid XBL")))
        .collect();
    let round = engine.flush().expect("queries pending");
    for (ticket, src) in tickets.iter().zip(sources) {
        match round.answers.iter().find(|(t, _)| t == ticket) {
            Some((_, answer)) => println!("{answer:<5}  {src}"),
            None => println!("{:?}  {src}", round.completeness(*ticket)),
        }
    }
    println!(
        "one round: {} members, max visits/site {}, {} bytes\n",
        round.members,
        round.report.max_visits(),
        round.report.total_bytes()
    );

    // 3. A repeated query hits the triplet cache: the coordinator
    //    re-solves from cached triplets without contacting any site.
    let hot = parse_query(sources[0]).unwrap();
    let repeat = engine.query(&hot);
    assert!(repeat.from_cache);
    println!(
        "repeat of {:?}: answer {:?} from cache — {} messages, {} data-plane bytes\n",
        sources[0],
        repeat.answer,
        repeat.report.total_messages(),
        repeat.report.data_plane_bytes()
    );

    // 4. An update routes to the owning site and invalidates only that
    //    fragment's cache entries; the next query re-evaluates one
    //    fragment and sees the new document.
    let q_msft = parse_query(sources[2]).unwrap();
    assert_eq!(engine.query(&q_msft).answer, Some(false));
    let (frag, market) = {
        let forest = engine.forest();
        let frag = forest
            .fragment_ids()
            .find(|&f| {
                let t = &forest.fragment(f).tree;
                t.descendants(t.root()).any(|n| t.label_str(n) == "market")
            })
            .expect("a broker fragment holds a market");
        let t = &forest.fragment(frag).tree;
        let market = t
            .descendants(t.root())
            .find(|&n| t.label_str(n) == "stock")
            .expect("stock node");
        (frag, market)
    };
    let up = engine
        .apply(Update::InsNode {
            frag,
            parent: market,
            label: "code".into(),
            text: Some("MSFT".into()),
        })
        .expect("valid update");
    println!(
        "update touched fragment {:?}, invalidated {} coordinator cache entries",
        up.effect.touched, up.invalidated
    );
    let after = engine.query(&q_msft);
    assert_eq!(
        after.answer,
        Some(true),
        "the inserted MSFT code is visible"
    );
    println!("re-query after update: answer {:?}", after.answer);

    let stats = engine.stats();
    println!(
        "\nlifetime: {} rounds, {} queries, {} coordinator cache hits, {} site cache hits",
        stats.rounds, stats.queries, stats.members_from_cache, stats.site_cache_hits
    );
}
