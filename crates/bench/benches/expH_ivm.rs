//! Criterion bench for Experiment H: an update-heavy stream (≥50% pure
//! data updates, queries from a small standing pool) through a
//! delta-maintaining engine vs the invalidate-and-recompute engine.
//! Engines are rebuilt per iteration — updates mutate the forest, so a
//! warm engine would measure a drifting document. Both arms pay the
//! identical build cost; the difference is pure maintenance strategy.

// The experiment is named expH in the issue tracker; keep the bench name.
#![allow(non_snake_case)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parbox_bench::{ft1, Scale};
use parbox_core::{Engine, EngineConfig};
use parbox_xmark::{drive_stream_with, resolve_data_update, update_heavy_workload};
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let scale = Scale {
        corpus_bytes: 96 * 1024,
        seed: 2006,
    };
    let sites = 4;
    let ops = 64;
    let stream = update_heavy_workload(ops, 4, scale.seed);
    let run = |delta_maintenance: bool| {
        let (forest, placement) = ft1(scale, sites);
        let mut engine = Engine::new(
            forest,
            placement,
            EngineConfig {
                max_batch: 1,
                batch_window: Duration::ZERO,
                delta_maintenance,
                ..EngineConfig::default()
            },
        )
        .expect("valid deployment");
        let report = drive_stream_with(&mut engine, &stream, resolve_data_update);
        (report, engine.stats())
    };

    // The smoke's own gate is on counts, which repeat exactly: same
    // answers, nothing invalidated, and less work even on a stream this
    // short, where the first update to each fragment still has to build
    // the memos of everything cached on it.
    let ((delta, stats), (legacy, _)) = (run(true), run(false));
    assert_eq!(delta.answers, legacy.answers);
    assert_eq!(stats.entries_invalidated, 0);
    assert!(stats.entries_repaired > 0);
    assert!(
        delta.work_units < legacy.work_units,
        "delta {} vs legacy {} work units",
        delta.work_units,
        legacy.work_units
    );

    let mut group = c.benchmark_group("expH");
    group.sample_size(10);
    for (name, delta_maintenance) in [("delta", true), ("legacy", false)] {
        group.bench_with_input(BenchmarkId::new(name, ops), &ops, |b, _| {
            b.iter(|| black_box(run(delta_maintenance).0.answers.len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
