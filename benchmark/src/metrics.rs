//! The metric sheet: every end-to-end and per-layer metric by name and
//! unit, derived from phase counters, snapshots and replay sums.
//! `BENCHMARK.json` lists the same names; `check.sh` compares the two.

use crate::driver::{Phase, SetupTimes, Snapshot};
use crate::proc::ProcSample;
use crate::trace::ReplaySums;
use crate::workloads::{Spec, Traffic};

pub type Metric = (&'static str, f64, &'static str);

/// Resident memory may grow by this share of its peak in the measured
/// phase of a query workload. The caches are full when set-up ends (that
/// is checked exactly, by their entry counts); what still grows is the
/// engine's own: about 0.25 KB per never-seen query on `scan_miss` and
/// 3.6 KB on `fanout_batch`, 3 to 4 % of the peak over a run on either.
/// The update workload is not held to it: there memory
/// grows by about 1 KB per update for as long as updates arrive (every
/// inserted node takes a new slot in the tree and in the repair memo of
/// every cached program, and deleted nodes keep theirs), which no
/// warm-up levels off.
const PLATEAU_SHARE: f64 = 0.10;

fn per(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end metrics of one untraced run. `setups` are the times
/// of the run's set-ups; `measured` is the whole measured phase, between
/// the process samples `before` and `after`; `warmup` and `measured`
/// together are every op the engine served since deployment.
pub fn end_to_end(
    setups: &[f64],
    warmup: &Phase,
    measured: &Phase,
    before: &ProcSample,
    after: &ProcSample,
) -> Vec<Metric> {
    let mut setups = setups.to_vec();
    setups.sort_by(|a, b| a.partial_cmp(b).expect("set-up times are finite"));
    let ops = measured.ops as f64;
    vec![
        ("setup_s", setups[setups.len() / 2], "s"),
        ("ops_per_s", per(ops, measured.busy_ns as f64 / 1e9), "1/s"),
        ("op_p50_ms", measured.latency.quantile_ms(0.50), "ms"),
        ("op_p95_ms", measured.latency.quantile_ms(0.95), "ms"),
        (
            "cpu_ms_per_op",
            per((after.cpu_s() - before.cpu_s()) * 1e3, ops),
            "ms",
        ),
        ("peak_rss_mb", after.peak_rss_mb, "MB"),
        // What the engine would ship between sites, over its lifetime:
        // on a hit-only stream that is the cost of filling the cache
        // spread over the hits, small and never zero.
        (
            "wire_bytes_per_op",
            per(
                (warmup.wire_bytes + measured.wire_bytes) as f64,
                (warmup.ops + measured.ops) as f64,
            ),
            "B",
        ),
    ]
}

/// Workload-shape self-checks on a phase; each failure is one line.
pub fn shape_violations(
    spec: &Spec,
    planned_ops: u64,
    phase: &Phase,
    before: &Snapshot,
    after: &Snapshot,
    check_plateau: bool,
) -> Vec<String> {
    let mut bad = Vec::new();
    let (e0, e1) = (&before.engine, &after.engine);
    // A standing query's refresh counts as a query in the engine, so
    // an update workload is held to its update count alone.
    let counted = match spec.traffic {
        Traffic::Queries { .. } => e1.queries - e0.queries,
        Traffic::Updates { .. } => e1.updates - e0.updates,
    };
    if phase.ops != planned_ops || counted != planned_ops {
        bad.push(format!(
            "ops completed {} (engine counted {counted}) != planned {planned_ops}",
            phase.ops
        ));
    }
    if e1.partial_answers != e0.partial_answers {
        bad.push("Partial answers without injected faults".to_string());
    }
    let entries = |s: &Snapshot| -> Vec<usize> { s.sites.values().map(|c| c.entries).collect() };
    if check_plateau && entries(before) != entries(after) {
        bad.push(format!(
            "site caches held {:?} entries after set-up and {:?} at the end: set-up did not fill them",
            entries(before),
            entries(after)
        ));
    }
    if let Some(built_for) = spec.hit_ratio() {
        let got = coord_hit_ratio(before, after);
        if got != built_for {
            bad.push(format!(
                "coordinator hit ratio {got:.4} on a stream built for {built_for}"
            ));
        }
        let occupancy = per(
            (e1.queries - e0.queries) as f64,
            (e1.rounds - e0.rounds) as f64,
        );
        if occupancy != spec.in_flight() as f64 {
            bad.push(format!(
                "batch occupancy {occupancy}, built for {}",
                spec.in_flight()
            ));
        }
        let growth = after.proc.rss_mb - before.proc.rss_mb;
        if check_plateau && growth >= PLATEAU_SHARE * after.proc.peak_rss_mb {
            bad.push(format!(
                "resident memory grew {growth:.1} MB in the measured phase (peak {:.1} MB): set-up did not reach the plateau",
                after.proc.peak_rss_mb
            ));
        }
    } else {
        if phase.not_repaired != 0 || e1.entries_invalidated != e0.entries_invalidated {
            bad.push(format!(
                "{} updates were not pure repairs; {} entries invalidated",
                phase.not_repaired,
                e1.entries_invalidated - e0.entries_invalidated
            ));
        }
        if e1.entries_repaired == e0.entries_repaired {
            bad.push("no cache entry was repaired".to_string());
        }
        if e1.notifications == e0.notifications {
            bad.push("no update flipped a standing query".to_string());
        }
    }
    bad
}

fn coord_hit_ratio(before: &Snapshot, after: &Snapshot) -> f64 {
    let hits = (after.engine.members_from_cache - before.engine.members_from_cache) as f64;
    let misses = (after.engine.members_evaluated - before.engine.members_evaluated) as f64;
    per(hits, hits + misses)
}

/// The per-layer metrics of one traced run. Counts and driver-side times
/// come from `counted` (a phase with extra clock reads but no replay,
/// between `before` and `after`); replayed times from `replay`.
#[allow(clippy::too_many_arguments)]
pub fn per_layer(
    setup: &SetupTimes,
    counted: &Phase,
    before: &Snapshot,
    after: &Snapshot,
    traced: &Phase,
    replay: &ReplaySums,
) -> Vec<Metric> {
    let d = &counted.detail;
    let ops = counted.ops as f64;
    let rounds = counted.rounds as f64;
    let (e0, e1) = (&before.engine, &after.engine);
    let de = |f: fn(&parbox_core::EngineStats) -> u64| (f(e1) - f(e0)) as f64;
    let updates = de(|e| e.updates);

    let site = |f: fn(&parbox_net::engine::SiteCacheStats) -> u64| -> f64 {
        after
            .sites
            .iter()
            .map(|(s, a)| f(a) - before.sites.get(s).map_or(0, f))
            .sum::<u64>() as f64
    };
    let (site_hits, site_misses) = (site(|s| s.hits), site(|s| s.misses));

    let (a0, a1) = (&before.arena, &after.arena);
    let shard = |f: fn(&parbox_bool::ShardCounters) -> u64| -> f64 {
        (a1.shards.iter().map(f).sum::<u64>() - a0.shards.iter().map(f).sum::<u64>()) as f64
    };
    let local_hits = (a1.local_hits - a0.local_hits) as f64;
    let interns = shard(|s| s.interns) + shard(|s| s.hits) + local_hits;

    let r_ops = replay.ops as f64;
    let dispatched = replay.dispatched_rounds as f64;
    let us = |ns: u64| ns as f64 / 1e3;
    let mb = setup.xml_bytes as f64 / 1e6;
    let cpu = after.proc.cpu_s() - before.proc.cpu_s();

    vec![
        ("query.parse_us", per(us(d.parse_ns), ops), "us"),
        (
            "query.compile_us",
            per(us(replay.compile_ns), replay.compiled as f64),
            "us",
        ),
        (
            "query.merge_us_per_round",
            per(us(replay.merge_ns), dispatched),
            "us",
        ),
        (
            "query.merge_dedup_ratio",
            per(replay.merged_len as f64, replay.member_len as f64),
            "ratio",
        ),
        (
            "query.qlist_len",
            per(replay.merged_len as f64, dispatched),
            "count",
        ),
        ("serve.submit_us", per(us(d.submit_ns), ops), "us"),
        (
            "serve.flush_us_per_round",
            per(us(d.flush_ns), rounds),
            "us",
        ),
        ("serve.apply_us", per(us(d.apply_ns), updates), "us"),
        ("serve.rounds", de(|e| e.rounds), "count"),
        (
            "serve.batch_occupancy",
            per(de(|e| e.queries), de(|e| e.rounds)),
            "count",
        ),
        (
            "serve.coord_hit_ratio",
            coord_hit_ratio(before, after),
            "ratio",
        ),
        (
            "serve.fragments_evaluated_per_op",
            per(de(|e| e.fragments_evaluated), ops),
            "count",
        ),
        (
            "serve.lazy_round_share",
            per(d.lazy_rounds as f64, d.planned_rounds as f64),
            "ratio",
        ),
        (
            "serve.residual_us_per_op",
            per(us(replay.flush_ns) - us(replay.attributed_ns), r_ops),
            "us",
        ),
        (
            "serve.attributed_share",
            per(replay.attributed_ns as f64, replay.flush_ns as f64),
            "ratio",
        ),
        ("serve.deploy_ms", setup.deploy_s * 1e3, "ms"),
        ("serve.warmup_s", setup.warmup_s, "s"),
        (
            "net.dispatch_us_per_round",
            per(us(replay.dispatch_ns), dispatched),
            "us",
        ),
        ("net.visits_per_op", per(d.visits as f64, ops), "count"),
        ("net.messages_per_op", per(d.messages as f64, ops), "count"),
        (
            "net.data_plane_bytes_per_op",
            per(d.data_plane_bytes as f64, ops),
            "B",
        ),
        (
            "net.control_bytes_per_op",
            per((counted.wire_bytes - d.data_plane_bytes) as f64, ops),
            "B",
        ),
        ("net.modeled_s_per_op", per(d.modeled_s, ops), "s"),
        (
            "net.site_compute_us_per_op",
            per(d.compute_s * 1e6, ops),
            "us",
        ),
        (
            "net.max_site_compute_share",
            per(d.max_site_compute_s, d.compute_s),
            "ratio",
        ),
        (
            "net.site_cache_hit_ratio",
            per(site_hits, site_hits + site_misses),
            "ratio",
        ),
        ("net.site_cache_evictions", site(|s| s.evictions), "count"),
        (
            "eval.bottom_up_us_per_op",
            per(us(replay.bottom_up_ns), r_ops),
            "us",
        ),
        (
            "eval.memo_build_us_per_op",
            per(us(replay.memo_build_ns), r_ops),
            "us",
        ),
        (
            "eval.work_units_per_op",
            per(d.work_units as f64, ops),
            "count",
        ),
        (
            "eval.ns_per_work_unit",
            per(replay.bottom_up_ns as f64, replay.work_units as f64),
            "ns",
        ),
        (
            "eval.repair_us_per_update",
            per(us(replay.repair_ns), replay.rounds as f64),
            "us",
        ),
        (
            "eval.repair_nodes_per_update",
            per(de(|e| e.repair_nodes_recomputed), updates),
            "count",
        ),
        (
            "bool.encode_us_per_op",
            per(us(replay.encode_ns), r_ops),
            "us",
        ),
        (
            "bool.decode_us_per_op",
            per(us(replay.decode_ns), r_ops),
            "us",
        ),
        (
            "bool.envelope_bytes_per_op",
            per(replay.envelope_bytes as f64, r_ops),
            "B",
        ),
        (
            "bool.solve_us_per_op",
            per(us(replay.solve_ns), r_ops),
            "us",
        ),
        (
            "bool.arena_nodes_per_kop",
            per((a1.nodes - a0.nodes) as f64 * 1e3, ops),
            "count",
        ),
        (
            "bool.arena_local_hit_ratio",
            per(local_hits, interns),
            "ratio",
        ),
        (
            "bool.arena_locks_per_op",
            per(shard(|s| s.locks), ops),
            "count",
        ),
        (
            "views.entries_repaired_per_update",
            per(de(|e| e.entries_repaired), updates),
            "count",
        ),
        (
            "views.entries_invalidated_per_update",
            per(de(|e| e.entries_invalidated), updates),
            "count",
        ),
        (
            "views.delta_bytes_per_update",
            per(de(|e| e.repair_delta_bytes), updates),
            "B",
        ),
        (
            "views.notifications_per_update",
            per(de(|e| e.notifications), updates),
            "count",
        ),
        ("xml.parse_mb_per_s", per(mb, setup.parse_s), "MB/s"),
        ("xml.write_mb_per_s", per(mb, setup.write_s), "MB/s"),
        ("frag.fragment_ms", setup.fragment_s * 1e3, "ms"),
        ("frag.stats_compute_ms", setup.stats_s * 1e3, "ms"),
        (
            "proc.sys_cpu_share",
            per(after.proc.sys_s - before.proc.sys_s, cpu),
            "ratio",
        ),
        ("proc.rss_after_setup_mb", before.proc.rss_mb, "MB"),
        (
            "proc.rss_growth_mb",
            after.proc.rss_mb - before.proc.rss_mb,
            "MB",
        ),
        (
            "proc.ctx_switches_per_op",
            per(
                after
                    .proc
                    .ctx_switches
                    .saturating_sub(before.proc.ctx_switches) as f64,
                ops,
            ),
            "count",
        ),
        (
            "trace.overhead_share",
            per(
                traced.latency.quantile_ns(0.5),
                counted.latency.quantile_ns(0.5),
            ) - 1.0,
            "ratio",
        ),
    ]
}
