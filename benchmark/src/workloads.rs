//! The four workloads: deployment, cache sizes, stream shape, op counts.
//! Each differs from its neighbour in one property, so a metric that
//! moves on one and not the other names the layer that moved it.

use crate::gen::SHAPE_SEED;
use parbox_bench::{ft1, Scale};
use parbox_frag::{Forest, Placement, SiteId};

/// Where the fragments of the FT1 star live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Root fragment on site 0, every other fragment on site 1: several
    /// fragments per site (the paper's Experiment 4), and one site
    /// thread carries the critical path.
    RootApart,
    /// One site, and so one resident thread, per fragment.
    OnePerFragment,
}

/// What one op is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Boolean queries, `in_flight` submitted before each flush. Of
    /// every round `fresh_per_round` have never been seen by any cache;
    /// the rest repeat queries of the `window` most recently first seen
    /// (the fixed pool, where nothing is fresh). See
    /// `QueryStream::generate`.
    Queries {
        window: usize,
        fresh_per_round: usize,
        in_flight: usize,
    },
    /// Pure data updates under `standing` subscribed queries.
    Updates { standing: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub corpus_bytes: usize,
    pub fragments: usize,
    pub layout: Layout,
    /// `EngineConfig::site_cache_capacity`. The default of 4096 lets a
    /// 512 KiB document reach 4.7 GB under distinct queries, because
    /// every entry keeps a per-node repair memo; see the README.
    pub site_cache: usize,
    pub traffic: Traffic,
    /// Ops run in set-up before the clock starts, sized so that every
    /// cache is full and a set-up takes 2 to 3 s.
    pub warmup_ops: usize,
    /// Measured ops per second of `--seconds`: the run is fixed work,
    /// so every count repeats exactly under one seed.
    pub ops_per_second: usize,
    /// In the traced run, every `trace_every`-th round is replayed
    /// through the layers' public functions.
    pub trace_every: usize,
}

impl Spec {
    /// The coordinator hit ratio the stream is built to have: the share
    /// of a round that repeats a recent query. `None` for the update
    /// workload.
    pub fn hit_ratio(&self) -> Option<f64> {
        match self.traffic {
            Traffic::Queries {
                fresh_per_round,
                in_flight,
                ..
            } => Some(1.0 - fresh_per_round as f64 / in_flight as f64),
            Traffic::Updates { .. } => None,
        }
    }

    pub fn in_flight(&self) -> usize {
        match self.traffic {
            Traffic::Queries { in_flight, .. } => in_flight,
            Traffic::Updates { .. } => 1,
        }
    }

    /// Generates, fragments and places the document.
    pub fn deploy(&self) -> (Forest, Placement) {
        let scale = Scale {
            corpus_bytes: self.corpus_bytes,
            seed: SHAPE_SEED,
        };
        let (forest, per_fragment) = ft1(scale, self.fragments);
        let placement = match self.layout {
            Layout::OnePerFragment => per_fragment,
            Layout::RootApart => {
                let root = forest.root_fragment();
                let mut p = Placement::new();
                for f in forest.fragment_ids() {
                    p.assign(f, SiteId(u32::from(f != root)));
                }
                p
            }
        };
        (forest, placement)
    }
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        // Every query unique: compile, dispatch, bottomUp on all 8 fragments, encode, solve on each op.
        name: "scan_miss",
        corpus_bytes: 128 * 1024,
        fragments: 8,
        layout: Layout::RootApart,
        site_cache: 64,
        traffic: Traffic::Queries {
            window: 256,
            fresh_per_round: 1,
            in_flight: 1,
        },
        warmup_ops: 1_000,
        ops_per_second: 360,
        trace_every: 4,
    },
    Spec {
        // `scan_miss` at hit ratio 1: parse, compile, fingerprint, cache lookup; no site is visited.
        name: "hot_hit",
        corpus_bytes: 128 * 1024,
        fragments: 8,
        layout: Layout::RootApart,
        site_cache: 64,
        traffic: Traffic::Queries {
            window: 256,
            fresh_per_round: 0,
            in_flight: 1,
        },
        warmup_ops: 600_000,
        ops_per_second: 280_000,
        trace_every: 1000,
    },
    Spec {
        // 64 site threads, 32 queries per round, half never seen and half repeats of the last two rounds: admission batching, fan-out, 64 envelopes.
        name: "fanout_batch",
        corpus_bytes: 256 * 1024,
        fragments: 64,
        layout: Layout::OnePerFragment,
        site_cache: 32,
        traffic: Traffic::Queries {
            window: 32,
            fresh_per_round: 16,
            in_flight: 32,
        },
        warmup_ops: 1_600,
        ops_per_second: 704,
        trace_every: 2,
    },
    Spec {
        // Data updates under 16 standing queries, half of which the inserted text values flip: patch closure, O(depth) memo repair, deltas, re-projection, notifications.
        name: "update_repair",
        corpus_bytes: 256 * 1024,
        fragments: 4,
        layout: Layout::OnePerFragment,
        site_cache: 64,
        traffic: Traffic::Updates { standing: 16 },
        warmup_ops: 20_000,
        ops_per_second: 7_200,
        trace_every: 25,
    },
];

pub fn by_name(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}
