//! Seeded op-stream generation. Everything here runs before the clock
//! starts: the engine only ever receives the generated inputs.

use parbox_core::{apply_update_to_forest, Update};
use parbox_frag::{Forest, Placement};
use parbox_query::{Path, Query, Step};
use parbox_xmark::{batch_workload, XMARK_VOCAB};
use parbox_xml::{FragmentId, NodeId};
use std::collections::VecDeque;

/// The query pools and the documents are part of a workload's
/// *definition*, drawn once from this constant; `--seed` draws the
/// traffic (which pool query, which unique constant, which update).
/// Byte counts and hit ratios then agree across seeds, so the spread
/// over seeds measures the engine and not the generator.
pub const SHAPE_SEED: u64 = 42;

/// splitmix64: the benchmark's own generator, so the op stream does not
/// move when the vendored `rand` stand-in does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// The first `n` queries of the fixed pool.
pub fn pool(n: usize) -> Vec<Query> {
    batch_workload(n, SHAPE_SEED)
}

/// Never-seen queries are built on this many pool queries.
const FRESH_BASES: usize = 256;

/// Unique ids are nine digits wide, so every unique query has the same
/// text length and the same request size whatever the seed.
const UNIQUE_BASE: u64 = 100_000_000;
const UNIQUE_SPAN: u64 = 900_000_000;

/// Yields queries no engine cache has seen: a pool query combined with
/// `//name/text() = "u<id>"` for an id used once per generator. The
/// connective alternates, so half the answers are the pool query's own
/// (`or`) and half are false (`and`): the oracle check sees both values.
#[derive(Debug)]
pub struct UniqueQueries {
    pool: Vec<Query>,
    order: Vec<usize>,
    first_id: u64,
    drawn: u64,
}

impl UniqueQueries {
    pub fn new(pool: Vec<Query>, seed: u64) -> UniqueQueries {
        let mut rng = Rng::new(seed ^ 0x517e_5eed);
        let order = rng.permutation(pool.len());
        let first_id = rng.next_u64() % UNIQUE_SPAN;
        UniqueQueries {
            pool,
            order,
            first_id,
            drawn: 0,
        }
    }

    pub fn next_query(&mut self) -> Query {
        let n = self.drawn;
        assert!(n < UNIQUE_SPAN, "unique ids exhausted");
        self.drawn += 1;
        let id = UNIQUE_BASE + (self.first_id + n) % UNIQUE_SPAN;
        let base = self.pool[self.order[n as usize % self.order.len()]].clone();
        let probe = Query::TextEq(Path::empty().desc().child("name"), format!("u{id}"));
        if n.is_multiple_of(2) {
            base.and(probe)
        } else {
            base.or(probe)
        }
    }
}

/// Set in an op's entry when the op is the first use of its query.
const FRESH: u32 = 1 << 31;

/// A pre-generated query stream. Queries are kept as text: the driver
/// parses each one on the clock, as a client's request would be.
#[derive(Debug)]
pub struct QueryStream {
    /// Every distinct query of the stream: the fixed pool, then each
    /// never-seen query in the order of first use.
    pub texts: Vec<String>,
    /// How many of `texts` are the fixed pool.
    pub pool: usize,
    ops: Vec<u32>,
}

impl QueryStream {
    /// `ops` draws in rounds of `round` ops. Exactly `fresh_per_round` ops
    /// of every round, at seeded positions, are never-seen queries. The
    /// others repeat, without repetition inside a round, queries of the
    /// *window*: the `window` queries most recently seen for the first
    /// time when the round starts, which is the fixed pool until fresh
    /// queries push it out. With no fresh query the stream is uniform
    /// draws from the pool; with some, every repeat is of a query at most
    /// `window / fresh_per_round` rounds old, which any cache that holds
    /// that many rounds answers, whatever its eviction order. The
    /// coordinator hit ratio is then `1 - fresh_per_round / round` by
    /// construction and every round merges the same number of programs.
    pub fn generate(
        window: usize,
        fresh_per_round: usize,
        round: usize,
        ops: usize,
        seed: u64,
    ) -> QueryStream {
        assert!(
            fresh_per_round <= round && round - fresh_per_round <= window,
            "a round's repeats are distinct queries of the window"
        );
        let mut texts: Vec<String> = pool(window).iter().map(Query::to_string).collect();
        let mut fresh = UniqueQueries::new(pool(FRESH_BASES), seed);
        let mut rng = Rng::new(seed);
        let mut stream = Vec::with_capacity(ops);
        let mut repeated = Vec::with_capacity(round);
        while stream.len() < ops {
            let oldest = texts.len() - window;
            let mut is_fresh = vec![false; round];
            for &slot in rng.permutation(round).iter().take(fresh_per_round) {
                is_fresh[slot] = true;
            }
            repeated.clear();
            for fresh_here in is_fresh.into_iter().take(ops - stream.len()) {
                stream.push(if fresh_here {
                    texts.push(fresh.next_query().to_string());
                    (texts.len() - 1) as u32 | FRESH
                } else {
                    let key = loop {
                        let key = (oldest + rng.below(window)) as u32;
                        if !repeated.contains(&key) {
                            break key;
                        }
                    };
                    repeated.push(key);
                    key
                });
            }
        }
        QueryStream {
            texts,
            pool: window,
            ops: stream,
        }
    }

    /// The index in `texts` of the query op `op` submits.
    pub fn key(&self, op: usize) -> usize {
        (self.ops[op] & !FRESH) as usize
    }

    pub fn text(&self, op: usize) -> &str {
        &self.texts[self.key(op)]
    }

    /// Whether op `op` is the first use of its query.
    pub fn is_fresh(&self, op: usize) -> bool {
        self.ops[op] & FRESH != 0
    }
}

/// The standing queries of the update workload. Half are structural
/// pool queries, true whatever the stream inserts: every update repairs
/// their entries and certifies them unchanged. Half ask for a text value
/// the stream inserts and removes again (`//*/text() = "v<k>"`), so
/// their triplets change, deltas are shipped, the coordinator
/// re-projects and subscribers are notified.
pub fn standing_queries(n: usize) -> Vec<Query> {
    let mut queries = pool(n / 2);
    queries.extend(
        (queries.len()..n)
            .map(|k| Query::TextEq(Path::empty().desc().then(Step::Wildcard), format!("v{k}"))),
    );
    queries
}

/// Inserted leaves alive at a time. An inserted text matches one of the
/// eight text-dependent standing queries with probability 1/200, so with
/// 128 alive each of them is true about half the time and flips every
/// few hundred updates.
const LIVE_INSERTS: usize = 128;

/// Generates `ops` pure data updates: `InsNode` of a leaf as
/// `parbox_xmark::resolve_data_update` draws it (an XMark label under a
/// uniformly drawn non-virtual node of a uniformly drawn fragment, with a
/// text value `v0..v99` half the time), and `DelNode` of the oldest leaf
/// the stream inserted once `LIVE_INSERTS` of them are alive. Each is
/// resolved against a shadow copy of the deployed forest and replayed on
/// it, which is how the generator learns the inserted node's id.
///
/// Unlike that resolver's 70/30 mix of inserts and deletions of deployed
/// subtrees, this keeps the document what it was deployed as, plus
/// `LIVE_INSERTS` leaves, in size and in shape. Under the 70/30 mix it
/// grew by 28 % in one run and `apply` slowed by a third from the first
/// tenth to the last, because repair cost follows the fan-out along the
/// path to the root: a drift in the input, not a property of the engine.
pub fn update_stream(forest: &Forest, placement: &Placement, ops: usize, seed: u64) -> Vec<Update> {
    let mut shadow = forest.clone();
    let mut placement = placement.clone();
    let parents: Vec<(FragmentId, Vec<NodeId>)> = shadow
        .fragment_ids()
        .map(|f| {
            let tree = &shadow.fragment(f).tree;
            let nodes = tree
                .descendants(tree.root())
                .filter(|&n| !tree.node(n).kind.is_virtual())
                .collect();
            (f, nodes)
        })
        .collect();
    let mut rng = Rng::new(seed);
    let mut live: VecDeque<(FragmentId, NodeId)> = VecDeque::with_capacity(LIVE_INSERTS);
    let mut out = Vec::with_capacity(ops);
    while out.len() < ops {
        let update = if live.len() < LIVE_INSERTS {
            let (frag, nodes) = &parents[rng.below(parents.len())];
            Update::InsNode {
                frag: *frag,
                parent: nodes[rng.below(nodes.len())],
                label: XMARK_VOCAB[rng.below(XMARK_VOCAB.len())].to_string(),
                text: (rng.below(2) == 0).then(|| format!("v{}", rng.below(100))),
            }
        } else {
            let (frag, node) = live.pop_front().expect("inserted leaves are alive");
            Update::DelNode { frag, node }
        };
        apply_update_to_forest(&mut shadow, &mut placement, update.clone())
            .expect("an update resolved against the shadow forest applies to it");
        if let Update::InsNode { frag, parent, .. } = &update {
            let siblings = shadow.fragment(*frag).tree.node(*parent).child_ids();
            live.push_back((*frag, *siblings.last().expect("the inserted child")));
        }
        out.push(update);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbox_query::{compile, parse_query};
    use std::collections::HashSet;

    #[test]
    fn unique_queries_have_distinct_fingerprints_and_round_trip() {
        let mut gen = UniqueQueries::new(pool(256), 7);
        let mut seen = HashSet::new();
        for _ in 0..10_000 {
            let q = gen.next_query();
            assert!(
                seen.insert(compile(&q).fingerprint()),
                "repeated fingerprint for {q}"
            );
            assert_eq!(parse_query(&q.to_string()).unwrap(), q, "round trip of {q}");
        }
    }

    #[test]
    fn unique_queries_all_have_one_text_length_per_pool_query() {
        let mut gen = UniqueQueries::new(pool(4), 1);
        let lens: Vec<usize> = (0..64)
            .map(|_| gen.next_query().to_string().len())
            .collect();
        for i in 8..64 {
            assert_eq!(lens[i], lens[i - 8], "same pool query and connective");
        }
    }

    #[test]
    fn streams_repeat_under_a_seed_and_differ_across_seeds() {
        let a = QueryStream::generate(64, 16, 32, 4000, 3);
        let b = QueryStream::generate(64, 16, 32, 4000, 3);
        let c = QueryStream::generate(64, 16, 32, 4000, 4);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.texts, b.texts);
        assert_ne!(a.ops, c.ops);
        // A shorter stream is a prefix of a longer one: the set-up-only
        // runs generate the warm-up alone.
        let short = QueryStream::generate(64, 16, 32, 640, 3);
        assert_eq!(short.ops[..], a.ops[..640]);
    }

    #[test]
    fn every_round_repeats_distinct_recent_queries() {
        let s = QueryStream::generate(64, 16, 32, 4000, 3);
        let mut first_seen = vec![usize::MAX; s.texts.len()];
        for round in 0..4000 / 32 {
            let ops = round * 32..round * 32 + 32;
            let keys: HashSet<usize> = ops.clone().map(|i| s.key(i)).collect();
            assert_eq!(keys.len(), 32, "round {round} repeats no query");
            assert_eq!(ops.clone().filter(|&i| s.is_fresh(i)).count(), 16);
            for i in ops {
                let key = s.key(i);
                if s.is_fresh(i) {
                    assert_eq!(first_seen[key], usize::MAX, "fresh means never seen");
                    first_seen[key] = round;
                } else if key >= s.pool {
                    assert!(
                        (round.saturating_sub(4)..round).contains(&first_seen[key]),
                        "a repeat is of one of the last four rounds"
                    );
                } else {
                    assert!(round < 4, "the pool has left the window by round 4");
                }
            }
        }
        assert_eq!(s.texts.len(), 64 + 2000);
    }

    #[test]
    fn pool_only_and_fresh_only_streams() {
        let hits = QueryStream::generate(256, 0, 1, 1000, 9);
        assert_eq!(hits.texts.len(), 256);
        assert!((0..1000).all(|i| !hits.is_fresh(i) && hits.key(i) < 256));
        let misses = QueryStream::generate(256, 1, 1, 1000, 9);
        assert!((0..1000).all(|i| misses.is_fresh(i) && misses.key(i) == 256 + i));
        assert_eq!(
            misses.texts[256..].iter().collect::<HashSet<_>>().len(),
            1000,
            "no text repeats"
        );
    }

    #[test]
    fn update_streams_keep_the_document_and_flip_standing_queries() {
        let spec = crate::workloads::by_name("update_repair").unwrap();
        let (forest, placement) = crate::workloads::Spec {
            corpus_bytes: 64 * 1024,
            ..*spec
        }
        .deploy();
        let updates = update_stream(&forest, &placement, 4000, 5);
        assert_eq!(
            format!("{updates:?}"),
            format!("{:?}", update_stream(&forest, &placement, 4000, 5))
        );
        let standing: Vec<_> = standing_queries(16).iter().map(compile).collect();
        let (mut replay, mut p) = (forest.clone(), placement.clone());
        let mut answers: Vec<bool> = Vec::new();
        let mut flips = 0;
        for (i, u) in updates.into_iter().enumerate() {
            apply_update_to_forest(&mut replay, &mut p, u).expect("every generated update applies");
            if i % 50 == 0 {
                let document = replay.reassemble();
                let now: Vec<bool> = standing
                    .iter()
                    .map(|q| parbox_core::centralized_eval(&document, q))
                    .collect();
                flips += now.iter().zip(&answers).filter(|(a, b)| a != b).count();
                answers = now;
            }
        }
        assert_eq!(
            replay.total_nodes(),
            forest.total_nodes() + LIVE_INSERTS,
            "the deployed document plus the leaves alive"
        );
        assert!(flips > 0, "some standing query changes its answer");
    }
}
