//! Micro-benchmarks of the building blocks: XML parsing, query
//! compilation, the column-at-a-time bitset kernel (against the per-node
//! reference interpreter it replaced), the formula-valued `bottomUp`, and
//! the equation-system solver.

use criterion::{criterion_group, criterion_main, Criterion};
use parbox_bool::EquationSystem;
use parbox_core::{
    bottom_up, bottom_up_formula_only, centralized_eval, centralized_eval_reference, BitSet,
};
use parbox_frag::{Forest, Placement};
use parbox_query::{compile, parse_query};
use parbox_xmark::{generate, query_with_qlist, XmarkConfig};
use parbox_xml::Tree;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let tree = generate(XmarkConfig {
        target_bytes: 128 * 1024,
        seed: 1,
    });
    let xml = tree.to_xml();
    let (_, q8) = query_with_qlist(8, 1);
    let (_, q23) = query_with_qlist(23, 1);

    let mut group = c.benchmark_group("kernels");
    group.sample_size(10);

    group.bench_function("xml_parse_128k", |b| {
        b.iter(|| black_box(Tree::parse(&xml).unwrap().len()))
    });

    group.bench_function("query_compile", |b| {
        b.iter(|| {
            let q =
                parse_query("[//stock[code/text() = \"GOOG\" and sell/text() = \"376\"]]").unwrap();
            black_box(compile(&q).len())
        })
    });

    group.bench_function("centralized_q8", |b| {
        b.iter(|| black_box(centralized_eval(&tree, &q8)))
    });

    // The per-node interpreter the column kernel replaced, on the same
    // document and query: the kernel ratio is centralized_reference_q8
    // over centralized_q8.
    group.bench_function("centralized_reference_q8", |b| {
        b.iter(|| black_box(centralized_eval_reference(&tree, &q8).answer))
    });

    group.bench_function("centralized_q23", |b| {
        b.iter(|| black_box(centralized_eval(&tree, &q23)))
    });

    // bottomUp over a fragment that keeps most of the document but has
    // one virtual node — the case where the spine fast path matters.
    let fragmented = {
        let mut forest = Forest::from_tree(tree.clone());
        let root = forest.root_fragment();
        let cut = {
            let t = &forest.fragment(root).tree;
            t.children(t.root()).next().unwrap()
        };
        forest.split(root, cut).unwrap();
        forest
    };
    let f0 = fragmented.root_fragment();
    group.bench_function("bottom_up_root_fragment_q8", |b| {
        b.iter(|| black_box(bottom_up(&fragmented.fragment(f0).tree, &q8).work_units))
    });

    // The split-off fragment has no virtual node: constants straight from
    // the root's columns.
    let leaf = fragmented
        .fragment_ids()
        .find(|&f| f != f0)
        .expect("the split made a second fragment");
    group.bench_function("bottom_up_leaf_fragment_q8", |b| {
        b.iter(|| black_box(bottom_up(&fragmented.fragment(leaf).tree, &q8).work_units))
    });

    // Ablation: the same fragment through the pure formula path — this is
    // what a literal reading of Fig. 3(b) costs without the spine
    // fast-path (DESIGN.md §4).
    group.bench_function("bottom_up_no_spine_fastpath_q8", |b| {
        b.iter(|| black_box(bottom_up_formula_only(&fragmented.fragment(f0).tree, &q8).work_units))
    });

    // Equation-system solve for a 100-fragment star.
    let sys = {
        let mut sys = EquationSystem::new();
        let mut star = Forest::from_tree(generate(XmarkConfig {
            target_bytes: 32 * 1024,
            seed: 2,
        }));
        let root = star.root_fragment();
        parbox_frag::strategies::star(&mut star, root).unwrap();
        let _ = Placement::one_per_fragment(&star);
        for f in star.fragment_ids() {
            sys.insert(f, bottom_up(&star.fragment(f).tree, &q8).triplet);
        }
        (sys, star.postorder())
    };
    group.bench_function("eval_st_solve", |b| {
        b.iter(|| black_box(sys.0.solve(&sys.1).unwrap().len()))
    });

    // Word-parallel bitset kernels at a serving-realistic width
    // (|QList| of a large batch) — the chunk-unrolled loops LLVM
    // autovectorizes.
    let width = 1024;
    let (mut x, mut y) = (BitSet::zeros(width), BitSet::zeros(width));
    for i in (0..width).step_by(3) {
        x.set(i, true);
    }
    for i in (0..width).step_by(7) {
        y.set(i, true);
    }
    group.bench_function("bitset_or_assign_1024", |b| {
        b.iter(|| {
            x.or_assign(black_box(&y));
            black_box(x.get(0))
        })
    });
    group.bench_function("bitset_and_assign_1024", |b| {
        b.iter(|| {
            let mut z = x.clone();
            z.and_assign(black_box(&y));
            black_box(z.is_empty())
        })
    });
    group.bench_function("bitset_count_ones_1024", |b| {
        b.iter(|| black_box(x.count_ones()))
    });
    group.bench_function("bitset_any_intersect_1024", |b| {
        b.iter(|| black_box(x.any_intersect(&y)))
    });
    group.bench_function("bitset_iter_ones_1024", |b| {
        b.iter(|| black_box(x.iter_ones().sum::<usize>()))
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
