//! Micro-benchmarks of the building blocks: XML parsing, query
//! compilation, the column-at-a-time bitset kernel (against the per-node
//! reference interpreter it replaced), the formula-valued `bottomUp` and
//! the repair memo's build on the same kernel, the equation-system
//! solver and the coordinator's member solve.

use criterion::{criterion_group, criterion_main, Criterion};
use parbox_bench::{ft1, Scale};
use parbox_bool::{EquationSystem, KleeneRows, Var, VecKind};
use parbox_core::{
    bottom_up, bottom_up_formula_only, centralized_eval, centralized_eval_reference,
    IncrementalBottomUp,
};
use parbox_frag::{Forest, Placement};
use parbox_query::{compile, merge_programs, parse_query, Path, Query};
use parbox_xmark::{batch_workload, generate, query_with_qlist, XmarkConfig};
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

    // The repair memo's build on the same fragment: the same pass, with a
    // row kept at every node.
    group.bench_function("memo_build_root_fragment_q8", |b| {
        b.iter(|| black_box(IncrementalBottomUp::build(&fragmented.fragment(f0).tree, &q8).1))
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
    // fast-path (docs/ARCHITECTURE.md, "Stage 5").
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

    // One member solve at the coordinator: the 64-fragment FT1 star of
    // the `fanout_batch` workload, every fragment's triplet computed
    // under the merged program of 16 never-seen queries, and one
    // member's answer evaluated through its projection — the per-member
    // work of a serving round.
    let (star, _) = ft1(
        Scale {
            corpus_bytes: 256 * 1024,
            seed: 42,
        },
        64,
    );
    // Pool queries 6..22 merge 135 wide, the workload's mean round.
    let members: Vec<_> = batch_workload(22, 42)
        .into_iter()
        .skip(6)
        .enumerate()
        .map(|(i, base)| {
            let probe = Query::TextEq(Path::empty().desc().child("name"), format!("u{i}"));
            compile(&if i % 2 == 0 {
                base.and(probe)
            } else {
                base.or(probe)
            })
        })
        .collect();
    let merged = merge_programs(&members).merged().clone();
    assert_eq!(merged.len(), 135);
    let member = &members[0];
    let proj = member.embedding_into(&merged).expect("members embed");
    let sources: Vec<_> = star
        .postorder()
        .into_iter()
        .map(|f| (f, bottom_up(&star.fragment(f).tree, &merged).triplet))
        .collect();
    let root = Var::new(star.root_fragment(), VecKind::V, member.root());
    group.bench_function("solve_fanout_root", |b| {
        b.iter(|| {
            let mut rows = KleeneRows::new();
            for (f, triplet) in &sources {
                rows.solve(*f, triplet, Some(&proj));
            }
            black_box(rows.value(root))
        })
    });
    // The same answer evaluated on demand, as the serving engine's
    // member solve does: only the entries the root's `V` entry reads.
    group.bench_function("solve_fanout_root_on_demand", |b| {
        b.iter(|| {
            let mut rows = KleeneRows::new();
            for (f, triplet) in &sources {
                rows.register(*f, triplet, Some(&proj));
            }
            black_box(rows.value(root))
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
