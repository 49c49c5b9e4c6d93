//! **Experiment H**: delta-repair incremental view maintenance vs
//! invalidate-and-recompute on an update-heavy serving stream — by
//! default 600 operations (≥50% pure data updates, queries from a
//! four-query standing pool) against a 4-site FT1 deployment of a
//! ~512 KiB XMark document.
//!
//! Usage:
//! `cargo run --release -p parbox-bench --bin expH_ivm \
//!    [--scale BYTES] [--sites N] [--ops N] [--json PATH]`
//!
//! `--json PATH` additionally writes the measured row as a JSON object
//! (the CI workflow uploads it as the IVM artifact).

// The experiment is named expH in the issue tracker; keep the binary name.
#![allow(non_snake_case)]

use parbox_bench::experiments::{exph_ivm, ExpHRow};
use parbox_bench::Scale;

fn flag(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2).find(|w| w[0] == name).map(|w| w[1].clone())
}

fn to_json(r: &ExpHRow) -> String {
    format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"expH_ivm\",\n",
            "  \"sites\": {},\n",
            "  \"ops\": {},\n",
            "  \"queries\": {},\n",
            "  \"updates_applied\": {},\n",
            "  \"delta_wall_s\": {:.6},\n",
            "  \"legacy_wall_s\": {:.6},\n",
            "  \"speedup\": {:.3},\n",
            "  \"delta_work_units\": {},\n",
            "  \"legacy_work_units\": {},\n",
            "  \"work_ratio\": {:.3},\n",
            "  \"entries_repaired\": {},\n",
            "  \"entries_invalidated\": {},\n",
            "  \"nodes_recomputed\": {},\n",
            "  \"fragment_nodes\": {},\n",
            "  \"delta_bytes\": {},\n",
            "  \"delta_traffic_bytes\": {},\n",
            "  \"legacy_traffic_bytes\": {}\n",
            "}}\n"
        ),
        r.sites,
        r.ops,
        r.queries,
        r.updates_applied,
        r.delta_wall_s,
        r.legacy_wall_s,
        r.speedup,
        r.delta_work,
        r.legacy_work,
        r.work_ratio,
        r.entries_repaired,
        r.entries_invalidated,
        r.nodes_recomputed,
        r.fragment_nodes,
        r.delta_bytes,
        r.delta_traffic_bytes,
        r.legacy_traffic_bytes,
    )
}

fn main() {
    let mut scale = Scale::from_args();
    if !std::env::args().any(|a| a == "--scale") {
        scale.corpus_bytes = 512 * 1024; // large fragments: O(|F|) recompute dominates
    }
    let sites: usize = flag("--sites").and_then(|v| v.parse().ok()).unwrap_or(4);
    let ops: usize = flag("--ops").and_then(|v| v.parse().ok()).unwrap_or(600);

    let row = exph_ivm(scale, sites, ops);
    println!(
        "Experiment H — delta-repair view maintenance vs invalidate-and-recompute \
         (corpus {} bytes, {} sites, {} ops)",
        scale.corpus_bytes, row.sites, row.ops
    );
    println!(
        "  stream: {} queries answered, {} updates applied (identically in both runs)",
        row.queries, row.updates_applied
    );
    println!(
        "  work units: delta {} vs legacy {} ({:.1}x, gated)",
        row.delta_work, row.legacy_work, row.work_ratio
    );
    println!(
        "  wall-clock: delta {:.3}s vs legacy {:.3}s ({:.1}x, reported)",
        row.delta_wall_s, row.legacy_wall_s, row.speedup
    );
    println!(
        "  repair: {} entries repaired in place, {} invalidated, {} nodes re-interned \
         (forest holds {} nodes)",
        row.entries_repaired, row.entries_invalidated, row.nodes_recomputed, row.fragment_nodes
    );
    println!(
        "  traffic: delta {} bytes ({} of them triplet deltas) vs legacy {} bytes",
        row.delta_traffic_bytes, row.delta_bytes, row.legacy_traffic_bytes
    );
    assert!(
        row.work_ratio >= 5.0,
        "delta repair must do at most a fifth of invalidate-and-recompute's work \
         on the update-heavy stream (measured {:.1}x)",
        row.work_ratio
    );
    // The delta run lasts tens of milliseconds, so its wall-clock ratio
    // is a sanity bound, not the gate: far below the work ratio means
    // the work units stopped describing the time.
    assert!(
        row.speedup > 2.0,
        "delta repair was not even 2x faster in wall-clock (measured {:.1}x)",
        row.speedup
    );
    assert!(
        row.entries_repaired > 0 && row.entries_invalidated == 0,
        "the stream must be maintained by in-place repair alone \
         ({} repaired, {} invalidated)",
        row.entries_repaired,
        row.entries_invalidated
    );

    if let Some(path) = flag("--json") {
        std::fs::write(&path, to_json(&row)).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("  json row written to {path}");
    }
}
