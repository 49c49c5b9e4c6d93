//! **Experiment G**: chaos-hardened serving. Sweeps fault kinds ×
//! injection rates × network models over a resident FT1 deployment with
//! deterministic fault injection at the site actors, checking every
//! answer against the centralized oracle — by default 6 machines, 150
//! stream ops per cell, rates 1% and 5%, all five fault kinds plus the
//! mixed cell and a fault-free baseline, under LAN and WAN models.
//!
//! Usage:
//! `cargo run --release -p parbox-bench --bin expG_chaos \
//!    [--scale BYTES] [--machines N] [--queries N] [--rate R] [--json PATH]`
//!
//! `--rate R` replaces the default rate sweep with a single injection
//! rate. `--json PATH` writes the cells as `BENCH_chaos.json` (the CI
//! workflow uploads it next to the expE artifact). The binary
//! asserts the ISSUE acceptance criteria: faults were actually injected
//! in the panic and wedge cells, **zero** `Complete` answers disagree
//! with the oracle anywhere, every cell recovers to all-correct answers
//! after the plan disarms (no process restart), and actor-outage p99
//! stays bounded.

// The experiment is named expG in the issue tracker; keep the binary name.
#![allow(non_snake_case)]

use parbox_bench::experiments::{expg_chaos, ExpGCell};
use parbox_bench::Scale;

fn flag(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2).find(|w| w[0] == name).map(|w| w[1].clone())
}

fn to_json(cells: &[ExpGCell], machines: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"expG_chaos\",\n");
    out.push_str(&format!("  \"machines\": {machines},\n"));
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"network\": \"{}\", \"kind\": \"{}\", \"rate\": {}, \
             \"queries\": {}, \"updates\": {}, \"injected\": {}, \
             \"timeouts\": {}, \"retries\": {}, \"restarts\": {}, \
             \"complete\": {}, \"partial\": {}, \
             \"wrong_complete\": {}, \"wrong_partial\": {}, \
             \"recovery_p99_ms\": {:.3}, \"recovery_max_ms\": {:.3}, \
             \"recovered_after_disarm\": {}}}{}\n",
            c.network,
            c.kind,
            c.rate,
            c.queries,
            c.updates,
            c.injected,
            c.timeouts,
            c.retries,
            c.restarts,
            c.complete_answers,
            c.partial_answers,
            c.wrong_complete,
            c.wrong_partial,
            c.recovery_p99_ms,
            c.recovery_max_ms,
            c.recovered_after_disarm,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let scale = Scale::from_args();
    let machines: usize = flag("--machines").and_then(|v| v.parse().ok()).unwrap_or(6);
    let queries: usize = flag("--queries")
        .and_then(|v| v.parse().ok())
        .unwrap_or(150);
    let rates: Vec<f64> = match flag("--rate").and_then(|v| v.parse().ok()) {
        Some(r) => vec![r],
        None => vec![0.01, 0.05],
    };
    let kinds = ["panic", "wedge", "delay", "drop", "crash", "mixed"];

    let cells = expg_chaos(scale, machines, queries, &rates, &kinds);
    println!(
        "Experiment G — chaos-hardened serving ({machines} machines, {queries} stream ops/cell, \
         rates {rates:?})"
    );
    println!(
        "  {:<4} {:<6} {:>5}  {:>4}/{:<4} {:>8} {:>8} {:>8} {:>8} {:>8} {:>7} {:>12} {:>10}",
        "net",
        "kind",
        "rate",
        "ok",
        "part",
        "injected",
        "timeouts",
        "retries",
        "restarts",
        "wrong",
        "wrongP",
        "rec p99 (ms)",
        "recovered"
    );
    for c in &cells {
        println!(
            "  {:<4} {:<6} {:>5.2} {:>5}/{:<4} {:>8} {:>8} {:>8} {:>8} {:>8} {:>7} {:>12.2} {:>10}",
            c.network,
            c.kind,
            c.rate,
            c.complete_answers,
            c.partial_answers,
            c.injected,
            c.timeouts,
            c.retries,
            c.restarts,
            c.wrong_complete,
            c.wrong_partial,
            c.recovery_p99_ms,
            c.recovered_after_disarm
        );
    }

    // ---- Acceptance ----------------------------------------------------
    let wrong: usize = cells.iter().map(|c| c.wrong_complete).sum();
    assert_eq!(
        wrong, 0,
        "acceptance: a Complete answer disagreed with the oracle"
    );
    for c in &cells {
        assert!(
            c.recovered_after_disarm,
            "acceptance: {}/{}@{} did not recover to all-correct answers after disarm",
            c.network, c.kind, c.rate
        );
        if matches!(c.kind.as_str(), "panic" | "wedge") && c.rate >= 0.01 {
            assert!(
                c.injected > 0,
                "acceptance: {}/{}@{} injected no faults",
                c.network,
                c.kind,
                c.rate
            );
        }
    }
    let rec_p99 = cells
        .iter()
        .map(|c| c.recovery_p99_ms)
        .fold(0.0f64, f64::max);
    assert!(
        rec_p99 < 2_000.0,
        "acceptance: actor-outage p99 unbounded ({rec_p99:.1} ms)"
    );
    println!(
        "  acceptance: zero wrong Complete answers, every cell recovered, \
         worst recovery p99 {rec_p99:.1} ms"
    );

    if let Some(path) = flag("--json") {
        std::fs::write(&path, to_json(&cells, machines))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("  json cells written to {path}");
    }
}
