//! Criterion bench for Section 5: incremental view maintenance vs full
//! re-evaluation after a single-node insert.

use criterion::{criterion_group, criterion_main, Criterion};
use parbox_bench::{ft1, Scale};
use parbox_core::{parbox, Engine, EngineConfig, Update};
use parbox_net::{Cluster, NetworkModel};
use parbox_query::{compile, parse_query};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let scale = Scale {
        corpus_bytes: 96 * 1024,
        seed: 2006,
    };
    let query = parse_query("[//qmarker[key/text() = \"F0\"]]").unwrap();
    let q = compile(&query);

    let mut group = c.benchmark_group("incremental");
    group.sample_size(10);

    group.bench_function("maintain_insert", |b| {
        b.iter_batched(
            || {
                let (forest, placement) = ft1(scale, 4);
                let mut engine = Engine::new(forest, placement, EngineConfig::default())
                    .expect("valid deployment");
                let view = engine.subscribe(&query);
                (engine, view)
            },
            |(mut engine, view)| {
                let frag = engine.forest().fragment_ids().last().unwrap();
                let parent = engine.forest().fragment(frag).tree.root();
                engine
                    .apply(Update::InsNode {
                        frag,
                        parent,
                        label: "noise".into(),
                        text: None,
                    })
                    .unwrap();
                black_box(engine.subscription_answer(view))
            },
            criterion::BatchSize::SmallInput,
        )
    });

    group.bench_function("full_reeval", |b| {
        let (forest, placement) = ft1(scale, 4);
        b.iter(|| {
            let cluster = Cluster::new(&forest, &placement, NetworkModel::lan());
            black_box(parbox(&cluster, &q).answer)
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
