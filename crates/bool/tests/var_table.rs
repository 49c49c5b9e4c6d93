//! The thread-local variable table behind `Formula::var` and
//! `Triplet::fresh_vars`, and the intern map under racing threads. A
//! binary of its own: the arena's counters are process-wide, so a lock
//! or intern count is only this test's in its own process,
//! and the tests here take turns on `SERIAL` for the same reason.

use parbox_bool::{Formula, FormulaId, Triplet, Var, VecKind};
use parbox_xml::FragmentId;
use std::sync::{Arc, Barrier, Mutex};
use std::thread;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Every id of `t`, in `(V, CV, DV)` order.
fn ids(t: &Triplet) -> Vec<FormulaId> {
    VecKind::ALL
        .iter()
        .flat_map(|&k| t.get(k).iter().map(|f| f.id()))
        .collect()
}

/// Intern-lock acquisitions of the intern path so far, process-wide.
fn locks() -> u64 {
    Formula::arena_stats().shards.iter().map(|s| s.locks).sum()
}

/// Distinct nodes interned so far, process-wide.
fn interns() -> u64 {
    Formula::arena_stats().shards[0].interns
}

/// The variables of fragments `base..base + frags`, `width` sub-queries
/// each, minted on the calling thread.
fn mint(base: u32, frags: u32, width: usize) -> Vec<FormulaId> {
    (base..base + frags)
        .flat_map(|f| ids(&Triplet::fresh_vars(FragmentId(f), width)))
        .collect()
}

#[test]
fn repeats_past_the_intern_cache_take_no_lock() {
    let _serial = serial();
    // 64 fragments × 3 × 64 = 12 288 variables: more than the 8192 the
    // thread-local intern cache holds, so that cache alone would thrash.
    let first = mint(10_000, 64, 64);
    assert_eq!(first.len(), 12_288);
    let before = locks();
    let second = mint(10_000, 64, 64);
    assert_eq!(second, first, "a repeat must return the same ids");
    assert_eq!(locks(), before, "a repeat must take no intern lock");
    // One variable at a time reads the same table.
    let x = Formula::var(Var::new(FragmentId(10_063), VecKind::DV, 63));
    assert_eq!(x.id(), *first.last().unwrap());
    assert_eq!(locks(), before);
}

#[test]
fn two_threads_mint_the_same_ids() {
    let _serial = serial();
    let spawn = || thread::spawn(|| mint(20_000, 16, 40));
    let (a, b) = (spawn(), spawn());
    let (a, b) = (a.join().unwrap(), b.join().unwrap());
    assert_eq!(a, b);
    // And both agree with this thread's single-variable path.
    let here: Vec<FormulaId> = (20_000..20_016)
        .flat_map(|f| {
            VecKind::ALL.into_iter().flat_map(move |k| {
                (0..40).map(move |sub| Formula::var(Var::new(FragmentId(f), k, sub)).id())
            })
        })
        .collect();
    assert_eq!(a, here);
}

#[test]
fn fresh_vars_are_prefixes_of_wider_fresh_vars() {
    let _serial = serial();
    let f = FragmentId(30_000);
    // Narrow first, then wider: the rows grow.
    let narrow = Triplet::fresh_vars(f, 5);
    let wide = Triplet::fresh_vars(f, 5 + 11);
    for k in VecKind::ALL {
        assert_eq!(narrow.get(k), &wide.get(k)[..5], "{k:?}");
    }
    // Wider first on a new thread: the narrow triplet is a prefix too,
    // and both match this thread's.
    let (wide2, narrow2) = thread::spawn(move || {
        let wide = Triplet::fresh_vars(f, 16);
        (wide, Triplet::fresh_vars(f, 5))
    })
    .join()
    .unwrap();
    assert_eq!(wide2, wide);
    assert_eq!(narrow2, narrow);
    assert_eq!(Triplet::fresh_vars(f, 0).len(), 0);
}

#[test]
fn a_sub_far_past_the_row_is_minted_without_growing_it() {
    let _serial = serial();
    // A decoded wire variable may name any sub; the row must not grow
    // to reach it (that would be 16 GiB here), and the id must still
    // be the canonical one.
    let far = Var::new(FragmentId(40_000), VecKind::CV, u32::MAX - 1);
    let here = Formula::var(far);
    let there = thread::spawn(move || Formula::var(far)).join().unwrap();
    assert_eq!(here, there);
    assert_eq!(Formula::var(far), here);
    assert_eq!(here.to_string(), "cx4294967295@F40000");
    // The row itself still starts at sub 0.
    let t = Triplet::fresh_vars(FragmentId(40_000), 2);
    assert_eq!(
        t.cv[1],
        Formula::var(Var::new(FragmentId(40_000), VecKind::CV, 1))
    );
}

#[test]
fn racing_threads_intern_each_node_once() {
    let _serial = serial();
    const THREADS: usize = 8;
    // The variables exist before the race, so the racing threads only
    // intern the 1 000 fresh operator nodes built on them.
    let x: Arc<[Formula]> = (0..=500)
        .map(|sub| Formula::var(Var::new(FragmentId(50_000), VecKind::V, sub)))
        .collect();
    let before = interns();
    let start = Arc::new(Barrier::new(THREADS));
    let racers: Vec<_> = (0..THREADS)
        .map(|_| {
            let (x, start) = (Arc::clone(&x), Arc::clone(&start));
            thread::spawn(move || {
                start.wait();
                (0..500)
                    .flat_map(|i| {
                        let not = x[i].not();
                        [not, Formula::or(not, x[i + 1])]
                    })
                    .map(Formula::id)
                    .collect::<Vec<FormulaId>>()
            })
        })
        .collect();
    let ids: Vec<Vec<FormulaId>> = racers.into_iter().map(|t| t.join().unwrap()).collect();
    assert_eq!(ids[0].len(), 1_000);
    for (t, other) in ids.iter().enumerate().skip(1) {
        assert_eq!(other, &ids[0], "thread {t} disagrees with thread 0");
    }
    let mut distinct = ids[0].clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), 1_000);
    assert_eq!(interns() - before, 1_000, "each node is interned once");
}
