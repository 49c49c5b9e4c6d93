//! Criterion bench for Experiment G: the serving loop's fault-handling
//! overhead. Three kernels over the same warm resident deployment: the
//! inert-plan round (the zero-fault hot path — its cost *is* the chaos
//! subsystem's overhead when nothing is injected), a panic-heavy plan
//! (restart + re-seed + retry per injection), and a supervised round's
//! bookkeeping with faults armed but never firing.

// The experiment is named expG in the issue tracker; keep the bench name.
#![allow(non_snake_case)]

use criterion::{criterion_group, criterion_main, Criterion};
use parbox_bench::{ft1, Scale};
use parbox_core::{Engine, EngineConfig};
use parbox_net::{FaultKind, FaultPlan, FaultRates, SupervisorConfig};
use parbox_xmark::batch_workload;
use std::hint::black_box;
use std::time::Duration;

fn chaos_supervisor(seed: u64) -> SupervisorConfig {
    SupervisorConfig {
        deadline: Duration::from_millis(30),
        max_attempts: 4,
        restart_after_timeouts: 1,
        backoff_base: Duration::from_millis(1),
        jitter_seed: seed,
    }
}

fn bench(c: &mut Criterion) {
    let scale = Scale {
        corpus_bytes: 64 * 1024,
        seed: 2006,
    };
    let queries = batch_workload(32, scale.seed ^ 0xF0F0);

    let mut group = c.benchmark_group("expG");
    group.sample_size(10);

    // Zero-fault baseline: the inert plan must cost nothing beyond one
    // branch per request.
    let (forest, placement) = ft1(scale, 8);
    let mut inert = Engine::new(forest, placement, EngineConfig::default()).unwrap();
    for q in &queries {
        inert.query(q);
    }
    group.bench_function("inert_plan_closed_loop_32q", |b| {
        b.iter(|| {
            let mut answered = 0usize;
            for q in &queries {
                answered += usize::from(inert.query(black_box(q)).answer == Some(true));
            }
            black_box(answered)
        })
    });

    // Armed but never firing: supervised-round bookkeeping (deadlines,
    // per-request fault decisions) on an otherwise healthy engine.
    let (forest, placement) = ft1(scale, 8);
    let armed_config = EngineConfig {
        fault_plan: FaultPlan::random(7, FaultRates::only(FaultKind::Panic, 0.0), Duration::ZERO),
        supervisor: Some(chaos_supervisor(7)),
        ..EngineConfig::default()
    };
    let mut armed = Engine::new(forest, placement, armed_config).unwrap();
    for q in &queries {
        armed.query(q);
    }
    group.bench_function("armed_zero_rate_closed_loop_32q", |b| {
        b.iter(|| {
            let mut answered = 0usize;
            for q in &queries {
                answered += usize::from(armed.query(black_box(q)).answer == Some(true));
            }
            black_box(answered)
        })
    });

    // Panic-heavy: each injection costs a restart, a re-seed and a
    // retry — the recovery path itself. Caches are cleared per pass so
    // rounds keep reaching the data plane (and its injector).
    let (forest, placement) = ft1(scale, 8);
    let chaos_config = EngineConfig {
        fault_plan: FaultPlan::random(7, FaultRates::only(FaultKind::Panic, 0.05), Duration::ZERO),
        supervisor: Some(chaos_supervisor(7)),
        ..EngineConfig::default()
    };
    let mut chaotic = Engine::new(forest, placement, chaos_config).unwrap();
    group.bench_function("panic_5pct_closed_loop_32q", |b| {
        b.iter(|| {
            chaotic.clear_solve_cache();
            let mut answered = 0usize;
            for q in &queries {
                answered += usize::from(chaotic.query(black_box(q)).answer == Some(true));
            }
            black_box(answered)
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
