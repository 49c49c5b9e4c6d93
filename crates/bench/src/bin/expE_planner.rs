//! **Experiment E**: the cost-based planner across query shapes ×
//! fragmentations (star / chain / even) × network models
//! (lan / wan / infinite) — by default 8 machines at the standard
//! corpus scale.
//!
//! Usage:
//! `cargo run --release -p parbox-bench --bin expE_planner \
//!    [--scale BYTES] [--machines N] [--json PATH]`
//!
//! Per cell every fixed strategy runs once and is scored by its
//! report's `elapsed_model_s`, priced from work units and message
//! bytes, so the sweep is deterministic; the adaptive planner's time
//! is its chosen strategy's run. The binary asserts: adaptive within
//! 1.1× of the best fixed strategy on every cell, ≥2× better than the
//! worst fixed strategy on at least one cell, visit/message estimates
//! exact for the deterministic strategies, and traffic estimates
//! within the documented factor (the last two checked inside the
//! sweep). `--json PATH` writes the
//! rows — prediction next to measurement — for the CI artifact.

// The experiment is named expE in the issue tracker; keep the binary name.
#![allow(non_snake_case)]

use parbox_bench::experiments::{expe_check, expe_planner, ExpERow};
use parbox_bench::Scale;

fn flag(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2).find(|w| w[0] == name).map(|w| w[1].clone())
}

fn to_json(rows: &[ExpERow]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"expE_planner\",\n  \"cells\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"fragmentation\": \"{}\", \"network\": \"{}\", \"query\": \"{}\", \
             \"qlist\": {}, \"chosen\": \"{}\", \
             \"predicted\": {{\"visits\": {}, \"messages\": {}, \"traffic_bytes\": {}, \
             \"rounds\": {}, \"modeled_s\": {:.9}}}, \
             \"measured\": {{\"visits\": {}, \"messages\": {}, \"traffic_bytes\": {}}}, \
             \"adaptive_model_s\": {:.9}, \"best\": \"{}\", \"best_model_s\": {:.9}, \
             \"worst\": \"{}\", \"worst_model_s\": {:.9}}}{}\n",
            r.fragmentation,
            r.network,
            r.query,
            r.qlist,
            r.chosen,
            r.estimate.visits,
            r.estimate.messages,
            r.estimate.traffic_bytes,
            r.estimate.rounds,
            r.estimate.modeled_s,
            r.measured_visits,
            r.measured_messages,
            r.measured_bytes,
            r.adaptive_model_s,
            r.best,
            r.best_model_s,
            r.worst,
            r.worst_model_s,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let scale = Scale::from_args();
    let machines: usize = flag("--machines").and_then(|v| v.parse().ok()).unwrap_or(8);

    let rows = expe_planner(scale, machines);
    println!(
        "Experiment E — cost-based planner, {machines} machines, {} cells",
        rows.len()
    );
    println!(
        "{:<6} {:<9} {:<15} {:<18} {:>12} {:>12} {:>12} {:>8}",
        "shape", "network", "query", "chosen", "adaptive(s)", "best(s)", "worst(s)", "vs worst"
    );
    for r in &rows {
        println!(
            "{:<6} {:<9} {:<15} {:<18} {:>12.6} {:>12.6} {:>12.6} {:>7.1}x",
            r.fragmentation,
            r.network,
            r.query,
            r.chosen,
            r.adaptive_model_s,
            r.best_model_s,
            r.worst_model_s,
            r.worst_model_s / r.adaptive_model_s.max(1e-12)
        );
    }

    // Acceptance: adaptive ≤ 1.1x best per cell, ≥2x better than the
    // worst somewhere.
    expe_check(&rows);
    let wins = rows
        .iter()
        .filter(|r| r.worst_model_s >= 2.0 * r.adaptive_model_s.max(1e-12))
        .count();
    println!(
        "acceptance: adaptive within 1.1x of best on all {} cells, ≥2x vs worst on {wins}",
        rows.len()
    );

    if let Some(path) = flag("--json") {
        std::fs::write(&path, to_json(&rows)).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("json rows written to {path}");
    }
}
