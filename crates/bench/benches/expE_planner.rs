//! Experiment E bench: the adaptive planner against fixed strategies on
//! two contrasting cells — the paper's LAN star (where ParBoX-style
//! rounds win) and a WAN star with a small corpus (where shipping can
//! win) — plus the planning step itself, which must stay microseconds.

// Named after the issue-tracker experiment id.
#![allow(non_snake_case)]

use criterion::{criterion_group, criterion_main, Criterion};
use parbox_bench::{ft1, Scale};
use parbox_core::plan::{choose, plan_run, PlanContext, Strategy};
use parbox_core::{naive_centralized, parbox};
use parbox_net::{Cluster, NetworkModel};
use parbox_xmark::query_with_qlist;

fn bench_planner(c: &mut Criterion) {
    let scale = Scale {
        corpus_bytes: 64 * 1024,
        seed: 2006,
    };
    let (forest, placement) = ft1(scale, 8);
    let (_, q) = query_with_qlist(8, scale.seed);

    let lan = Cluster::new(&forest, &placement, NetworkModel::lan());
    let wan = Cluster::new(&forest, &placement, NetworkModel::wan());

    // The decision alone: estimate all five strategies from statistics.
    c.bench_function("expE/choose_only", |b| {
        let cx = PlanContext::new(&lan, &q);
        b.iter(|| choose(&Strategy::ALL, &cx).chosen().estimate.modeled_s)
    });

    c.bench_function("expE/adaptive_lan", |b| {
        b.iter(|| plan_run(&lan, &q).answer)
    });
    c.bench_function("expE/parbox_lan", |b| b.iter(|| parbox(&lan, &q).answer));
    c.bench_function("expE/naive_lan", |b| {
        b.iter(|| naive_centralized(&lan, &q).answer)
    });
    c.bench_function("expE/adaptive_wan", |b| {
        b.iter(|| plan_run(&wan, &q).answer)
    });
}

criterion_group!(benches, bench_planner);
criterion_main!(benches);
