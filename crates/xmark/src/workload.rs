//! Mixed query/update serving workloads.
//!
//! The paper proves its guarantees per query and per update; a serving
//! deployment sees a *stream* interleaving both. [`mixed_workload`]
//! generates such a stream with the two properties real traffic has that
//! uniform random streams lack:
//!
//! * **repeats** — a configurable fraction of queries are exact repeats
//!   of earlier ones (hot queries recur across users), which is what a
//!   fingerprint-keyed triplet cache exploits;
//! * **interleaved updates** — a configurable fraction of operations are
//!   Section-5 updates, which is what forces the cache to invalidate.
//!
//! Updates are emitted as seeds and resolved against the *live* forest
//! with [`resolve_update`] at execution time (an update generated ahead
//! of time could name nodes that no longer exist by the time it runs).

use crate::queries::{batch_workload, XMARK_VOCAB};
use parbox_core::{Engine, Update};
use parbox_frag::Forest;
use parbox_query::Query;
use parbox_xml::{FragmentId, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// One operation of a mixed serving stream.
#[derive(Debug, Clone)]
pub enum MixedOp {
    /// Answer this query.
    Query(Query),
    /// Apply an update; resolve it against the live forest with
    /// [`resolve_update`] using the carried seed.
    Update {
        /// Deterministic seed for [`resolve_update`].
        seed: u64,
    },
}

/// Configuration for [`mixed_workload`].
#[derive(Debug, Clone, Copy)]
pub struct MixedConfig {
    /// Total operations (queries + updates).
    pub ops: usize,
    /// Fraction of queries that exactly repeat an earlier query.
    pub repeat_fraction: f64,
    /// Fraction of operations that are updates.
    pub update_fraction: f64,
    /// RNG seed; equal configs generate identical streams.
    pub seed: u64,
}

impl MixedConfig {
    /// The serving mix of the `expC` experiment: ~20% repeated queries
    /// with one update per fifty operations.
    pub fn serving(ops: usize, seed: u64) -> MixedConfig {
        MixedConfig {
            ops,
            repeat_fraction: 0.2,
            update_fraction: 0.02,
            seed,
        }
    }
}

/// Generates a deterministic mixed query/update stream. Fresh queries
/// come from the overlapping multi-user pool of [`batch_workload`];
/// repeats re-issue a uniformly chosen earlier query verbatim.
pub fn mixed_workload(config: MixedConfig) -> Vec<MixedOp> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    // Draw fresh queries from the shared pool lazily, in a deterministic
    // order decoupled from the repeat/update coin flips.
    let fresh = batch_workload(config.ops, config.seed ^ 0x51ab);
    let mut next_fresh = 0usize;
    let mut issued: Vec<Query> = Vec::new();
    let mut out = Vec::with_capacity(config.ops);
    for _ in 0..config.ops {
        if rng.random_bool(config.update_fraction.clamp(0.0, 1.0)) {
            out.push(MixedOp::Update {
                seed: rng.next_u64(),
            });
            continue;
        }
        let repeat = !issued.is_empty() && rng.random_bool(config.repeat_fraction.clamp(0.0, 1.0));
        let q = if repeat {
            issued[rng.random_range(0..issued.len())].clone()
        } else {
            let q = fresh[next_fresh % fresh.len()].clone();
            next_fresh += 1;
            q
        };
        issued.push(q.clone());
        out.push(MixedOp::Query(q));
    }
    out
}

/// Resolves an update seed against the live forest into a concrete
/// Section-5 [`Update`]: mostly inserts (with XMark vocabulary labels, so
/// they can flip query answers), some subtree deletions, and an
/// occasional `splitFragments`. Returns `None` when the drawn target is
/// not updatable (e.g. deleting a fragment root) — callers simply skip
/// the operation, keeping the stream deterministic.
pub fn resolve_update(forest: &Forest, seed: u64) -> Option<Update> {
    let mut rng = StdRng::seed_from_u64(seed);
    let frags: Vec<FragmentId> = forest.fragment_ids().collect();
    let frag = frags[rng.random_range(0..frags.len())];
    let tree = &forest.fragment(frag).tree;
    let nodes: Vec<NodeId> = tree
        .descendants(tree.root())
        .filter(|&n| !tree.node(n).kind.is_virtual())
        .collect();
    if nodes.is_empty() {
        return None;
    }
    let node = nodes[rng.random_range(0..nodes.len())];
    match rng.random_range(0..10u32) {
        0..=6 => {
            let label = XMARK_VOCAB[rng.random_range(0..XMARK_VOCAB.len())];
            let text = rng
                .random_bool(0.5)
                .then(|| format!("v{}", rng.random_range(0..100u32)));
            Some(Update::InsNode {
                frag,
                parent: node,
                label: label.to_string(),
                text,
            })
        }
        7..=8 => {
            if node == tree.root() || !tree.virtual_nodes(node).is_empty() {
                return None;
            }
            Some(Update::DelNode { frag, node })
        }
        _ => {
            if node == tree.root() || tree.subtree_size(node) < 2 {
                return None;
            }
            Some(Update::SplitFragments {
                frag,
                node,
                to_site: None,
            })
        }
    }
}

/// Resolves an update seed into a *pure data* update: inserts (with
/// XMark vocabulary labels) and small-subtree deletions only — never
/// `splitFragments`. Every update this resolver produces keeps the
/// fragmentation intact, so a delta-maintaining engine can take the
/// O(depth) repair path on all of them (restructuring updates fall back
/// to invalidate-and-recompute by design). Returns `None` when the drawn
/// target is not deletable; callers skip the operation.
pub fn resolve_data_update(forest: &Forest, seed: u64) -> Option<Update> {
    let mut rng = StdRng::seed_from_u64(seed);
    let frags: Vec<FragmentId> = forest.fragment_ids().collect();
    let frag = frags[rng.random_range(0..frags.len())];
    let tree = &forest.fragment(frag).tree;
    let nodes: Vec<NodeId> = tree
        .descendants(tree.root())
        .filter(|&n| !tree.node(n).kind.is_virtual())
        .collect();
    if nodes.is_empty() {
        return None;
    }
    let node = nodes[rng.random_range(0..nodes.len())];
    if rng.random_range(0..10u32) <= 6 {
        let label = XMARK_VOCAB[rng.random_range(0..XMARK_VOCAB.len())];
        let text = rng
            .random_bool(0.5)
            .then(|| format!("v{}", rng.random_range(0..100u32)));
        Some(Update::InsNode {
            frag,
            parent: node,
            label: label.to_string(),
            text,
        })
    } else {
        // Deletions stay small so a long update stream keeps the document
        // near its generated size instead of eroding it.
        if node == tree.root()
            || !tree.virtual_nodes(node).is_empty()
            || tree.subtree_size(node) > 4
        {
            return None;
        }
        Some(Update::DelNode { frag, node })
    }
}

/// Generates a deterministic *update-heavy* stream: ≥50% of operations
/// are updates (resolve them with [`resolve_data_update`]), and every
/// query is drawn uniformly from a small fixed pool of `pool` queries —
/// the standing queries of an incremental-view-maintenance workload.
pub fn update_heavy_workload(ops: usize, pool: usize, seed: u64) -> Vec<MixedOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let queries = batch_workload(pool.max(1), seed ^ 0x1e77);
    let mut out = Vec::with_capacity(ops);
    for _ in 0..ops {
        if rng.random_bool(0.55) {
            out.push(MixedOp::Update {
                seed: rng.next_u64(),
            });
        } else {
            out.push(MixedOp::Query(
                queries[rng.random_range(0..queries.len())].clone(),
            ));
        }
    }
    out
}

/// Aggregate result of driving one mixed stream through an engine.
#[derive(Debug, Clone, Default)]
pub struct StreamReport {
    /// Query answers, in stream (submission) order.
    pub answers: Vec<bool>,
    /// Updates that resolved and were applied (unresolvable seeds skip).
    pub updates_applied: usize,
    /// Total simulated traffic: every flushed round plus update routing.
    pub bytes: usize,
    /// Total work units (`RunReport::total_work`): every flushed round
    /// plus every update's repair — a count that repeats exactly.
    pub work_units: u64,
    /// Answers that went out degraded (`Completeness::Partial`) —
    /// always zero without fault injection.
    pub partial_answers: usize,
}

/// Drives a [`mixed_workload`] stream through a resident engine — the
/// canonical serving loop shared by the CLI `serve` command and the
/// `expC` experiment: queries are submitted and flushed by the engine's
/// admission policy ([`Engine::poll`]), updates resolve against the live
/// forest and flush whatever is pending first, and a final flush drains
/// the tail.
pub fn drive_stream(engine: &mut Engine, stream: &[MixedOp]) -> StreamReport {
    drive_stream_with(engine, stream, resolve_update)
}

/// [`drive_stream`] with an explicit update resolver — pass
/// [`resolve_update`] for the full Section-5 mix or
/// [`resolve_data_update`] for pure data-update streams.
pub fn drive_stream_with<F>(engine: &mut Engine, stream: &[MixedOp], mut resolve: F) -> StreamReport
where
    F: FnMut(&Forest, u64) -> Option<Update>,
{
    let mut report = StreamReport::default();
    let absorb = |report: &mut StreamReport, out: Option<parbox_core::RoundOutcome>| {
        if let Some(out) = out {
            report.answers.extend(out.answers.iter().map(|&(_, a)| a));
            report.bytes += out.report.total_bytes();
            report.work_units += out.report.total_work();
            report.partial_answers += out.partial.len();
        }
    };
    for op in stream {
        match op {
            MixedOp::Query(q) => {
                engine.submit(q);
                let out = engine.poll();
                absorb(&mut report, out);
            }
            MixedOp::Update { seed } => {
                if let Some(update) = resolve(engine.forest(), *seed) {
                    let up = engine.apply(update).expect("resolved update applies");
                    report.updates_applied += 1;
                    report.bytes += up.report.total_bytes();
                    report.work_units += up.report.total_work();
                    absorb(&mut report, up.flushed);
                }
            }
        }
    }
    let tail = engine.flush();
    absorb(&mut report, tail);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbox_xml::Tree;

    fn ops_of(stream: &[MixedOp]) -> (usize, usize) {
        let updates = stream
            .iter()
            .filter(|o| matches!(o, MixedOp::Update { .. }))
            .count();
        (stream.len() - updates, updates)
    }

    #[test]
    fn deterministic_under_seed() {
        let a = mixed_workload(MixedConfig::serving(200, 9));
        let b = mixed_workload(MixedConfig::serving(200, 9));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            match (x, y) {
                (MixedOp::Query(p), MixedOp::Query(q)) => assert_eq!(p, q),
                (MixedOp::Update { seed: s }, MixedOp::Update { seed: t }) => assert_eq!(s, t),
                _ => panic!("streams diverged"),
            }
        }
    }

    #[test]
    fn fractions_are_respected() {
        let stream = mixed_workload(MixedConfig {
            ops: 2000,
            repeat_fraction: 0.2,
            update_fraction: 0.05,
            seed: 4,
        });
        let (queries, updates) = ops_of(&stream);
        assert_eq!(queries + updates, 2000);
        assert!((60..=140).contains(&updates), "updates: {updates}");
        // ~20% of queries repeat an earlier one exactly.
        let mut seen = std::collections::HashSet::new();
        let mut repeats = 0usize;
        for op in &stream {
            if let MixedOp::Query(q) = op {
                if !seen.insert(format!("{q}")) {
                    repeats += 1;
                }
            }
        }
        // The shared pool occasionally collides on its own; the floor is
        // what matters for cache-hit coverage.
        assert!(
            repeats * 100 / queries >= 15,
            "repeat rate too low: {repeats}/{queries}"
        );
    }

    #[test]
    fn resolved_updates_apply_cleanly() {
        let tree = Tree::parse(
            "<site><item><name>a</name></item><person><name>b</name></person><extra/></site>",
        )
        .unwrap();
        let mut forest = Forest::from_tree(tree);
        let root = forest.root_fragment();
        let cut = {
            let t = &forest.fragment(root).tree;
            t.children(t.root()).next().unwrap()
        };
        forest.split(root, cut).unwrap();
        let mut placement = parbox_frag::Placement::one_per_fragment(&forest);

        let mut applied = 0usize;
        for seed in 0..200u64 {
            if let Some(update) = resolve_update(&forest, seed) {
                parbox_core::apply_update_to_forest(&mut forest, &mut placement, update)
                    .expect("resolved updates are valid");
                applied += 1;
                forest.validate().unwrap();
            }
        }
        assert!(applied > 100, "most seeds resolve: {applied}");
    }

    #[test]
    fn data_updates_never_restructure() {
        let tree = Tree::parse(
            "<site><item><name>a</name></item><person><name>b</name></person><extra/></site>",
        )
        .unwrap();
        let mut forest = Forest::from_tree(tree);
        let root = forest.root_fragment();
        let cut = {
            let t = &forest.fragment(root).tree;
            t.children(t.root()).next().unwrap()
        };
        forest.split(root, cut).unwrap();
        let fragments_before = forest.fragment_ids().count();
        let mut placement = parbox_frag::Placement::one_per_fragment(&forest);

        let mut applied = 0usize;
        for seed in 0..200u64 {
            if let Some(update) = resolve_data_update(&forest, seed) {
                assert!(
                    matches!(update, Update::InsNode { .. } | Update::DelNode { .. }),
                    "data resolver produced {update:?}"
                );
                parbox_core::apply_update_to_forest(&mut forest, &mut placement, update)
                    .expect("resolved updates are valid");
                applied += 1;
            }
        }
        assert!(applied > 100, "most seeds resolve: {applied}");
        assert_eq!(
            forest.fragment_ids().count(),
            fragments_before,
            "pure data updates must not change the fragmentation"
        );
    }

    #[test]
    fn update_heavy_stream_is_mostly_updates_from_a_small_pool() {
        let stream = update_heavy_workload(2000, 4, 7);
        let (queries, updates) = ops_of(&stream);
        assert_eq!(queries + updates, 2000);
        assert!(
            updates * 100 / 2000 >= 50,
            "update-heavy stream must be ≥50% updates: {updates}"
        );
        let distinct: std::collections::HashSet<String> = stream
            .iter()
            .filter_map(|op| match op {
                MixedOp::Query(q) => Some(format!("{q}")),
                _ => None,
            })
            .collect();
        assert!(
            distinct.len() <= 4,
            "queries come from the fixed pool: {}",
            distinct.len()
        );
        // Determinism: same arguments, same stream.
        let again = update_heavy_workload(2000, 4, 7);
        assert_eq!(stream.len(), again.len());
    }
}
