//! The hash-consing formula arena backing [`crate::Formula`].
//!
//! Every distinct formula is stored exactly once in a process-wide node
//! table; a [`FormulaId`] (a `u32`) names it. Interning performs
//! *canonicalization* at construction time:
//!
//! * constants fold (`compFm`'s cases, plus `¬¬f = f`),
//! * `And`/`Or` operands are flattened one level (children of a
//!   canonical `And` are never `And`s or constants), sorted by id and
//!   deduplicated.
//!
//! Canonical form makes structural equality *id equality* (`O(1)`), lets
//! per-node metadata (`size`, `has_vars`) be computed once at interning,
//! and turns `substitute`/`eval` into memoized single passes over the
//! shared DAG instead of walks over an exponentially larger tree
//! expansion.
//!
//! # One intern map and the locking discipline
//!
//! The arena has two halves:
//!
//! * a [`Mutex`]-guarded intern map (node → id) — the only lock in the
//!   arena, held for one map probe plus at most one append;
//! * an append-only, **lock-free readable** node store: exponentially
//!   growing segments of `OnceLock` slots, published before the id that
//!   names them escapes the interning call. Reads (`node`, `size_of`,
//!   `has_vars`, snapshot extraction, `mk_nary` flattening) never take
//!   any lock, so [`snapshot`] runs concurrently with interning.
//!
//! A [`FormulaId`] is its node's slot in the store: ids are dense and
//! follow interning order, so nodes built together sit together in the
//! store, and the memos of [`snapshot`] and [`fold`] see keys that
//! differ in their low bits.
//!
//! On top of the map, every thread keeps a bounded **thread-local
//! intern cache** (canonical node → id). The mapping is immutable — the
//! arena only grows and ids never move — so the cache needs no
//! invalidation; a hit skips hashing into the shared map and the intern
//! lock entirely. This is the `SitePool` workers' fast path: a serving
//! round re-interns the same working set of small residual formulas
//! over and over.
//!
//! Variables skip that cache. `bottomUp` mints `3·|QList|` of them at
//! every virtual node, so a root fragment with many virtual children
//! mints more per round than the cache holds, and every one would miss.
//! Each thread instead keeps a **variable table**: per fragment, one
//! dense row of ids per vector kind, indexed by the sub-query. A minted
//! variable is an array read; only a thread's first use of a variable
//! interns it (through the cache and the map, so the id is the same on
//! every thread) and records the id. The table costs 4 bytes per
//! variable the thread minted, which the arena keeps forever anyway.
//!
//! Between them, the cache and the table answer every intern a serving
//! workload repeats, so the lock is taken only by a node's first
//! construction on a thread, and one map is enough.
//!
//! As before, no lock is ever held while invoking caller-supplied
//! closures (lookups and assignments run against a lock-free [`Dag`]
//! snapshot or inside a lock-free [`fold`]), the arena only grows — ids
//! stay valid for the life of the process — and growth is bounded by
//! the number of *distinct* formulas ever built.

use crate::var::{Var, VecKind};
use parbox_xml::FragmentId;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The rustc-style Fx multiplicative hasher. Interning hashes a `Node`
/// on every constructor call — the hottest hash site in the system —
/// and the inputs are tiny structured ids, exactly the workload SipHash
/// is overkill for.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

pub(crate) type FxBuild = BuildHasherDefault<FxHasher>;

/// Id of one distinct (canonical) formula in the process-wide arena.
///
/// Two formulas are structurally equal iff their ids are equal, which is
/// what makes [`crate::Formula`] comparisons, hashing, and cache keys
/// `O(1)`. The id is the node's slot in the arena's store, so ids are
/// dense and follow interning order: `false` is 0 and `true` is 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FormulaId(pub u32);

/// Id of the constant `false` (interned first, at construction).
pub(crate) const FALSE_ID: FormulaId = FormulaId(0);
/// Id of the constant `true` (interned second, at construction).
pub(crate) const TRUE_ID: FormulaId = FormulaId(1);

/// One interned node. Operand ids always name already-published nodes,
/// so following them through the lock-free store can never observe an
/// unfinished entry.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) enum Node {
    Const(bool),
    Var(Var),
    Not(FormulaId),
    And(Arc<[FormulaId]>),
    Or(Arc<[FormulaId]>),
}

/// Intern-path counters of the arena's intern map (see
/// [`crate::Formula::arena_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Distinct nodes interned (intern-map misses that appended to the
    /// store).
    pub interns: u64,
    /// Intern-map hits under the intern lock (the node already existed).
    pub hits: u64,
    /// Times the intern lock was acquired by the intern path.
    pub locks: u64,
}

/// Arena occupancy and intern-path counters (see
/// [`crate::Formula::arena_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaStats {
    /// Distinct formulas interned since process start.
    pub nodes: usize,
    /// Total operand slots stored across all n-ary nodes — the figure
    /// that is linear in fan-out for buffered construction and quadratic
    /// for naive pairwise accumulation.
    pub operand_slots: u64,
    /// Intern requests answered by a thread-local cache — no intern
    /// lock, no shared-map probe.
    pub local_hits: u64,
    /// The intern map's counters. One map, so one element; it stays an
    /// array because callers sum it, and the benchmark's `bool.arena_*`
    /// metrics are among them.
    pub shards: [ShardCounters; 1],
}

// ---------------------------------------------------------------------------
// Lock-free append-only node store
// ---------------------------------------------------------------------------

/// Everything the read paths need about one interned node.
pub(crate) struct Entry {
    pub(crate) node: Node,
    /// Tree-expansion node count (saturating).
    pub(crate) size: u64,
    /// Does the formula reference any variable?
    pub(crate) has_vars: bool,
}

/// Smallest segment, in slots. Segment `s` holds `SEG_BASE << s` slots.
const SEG_BASE: usize = 64;
/// `SEG_BASE · (2^SEG_COUNT − 1) ≥ u32::MAX`: enough segments to back
/// every slot but `u32::MAX`, which [`IdMap`] needs free.
const SEG_COUNT: usize = 27;

/// Append-only node storage. Writers (holding the intern lock) publish
/// entries through `OnceLock::set`; readers resolve any *escaped* id
/// without synchronization beyond the `OnceLock` acquire load — the
/// entry was published before its id was returned.
struct Store {
    segments: [OnceLock<Box<[OnceLock<Entry>]>>; SEG_COUNT],
}

impl Store {
    fn new() -> Store {
        Store {
            segments: [const { OnceLock::new() }; SEG_COUNT],
        }
    }

    /// `(segment, offset)` of a slot: segment `s` starts at slot
    /// `SEG_BASE · (2^s − 1)`.
    #[inline]
    fn locate(slot: u32) -> (usize, usize) {
        let seg = (slot as usize / SEG_BASE + 1).ilog2() as usize;
        let offset = slot as usize - SEG_BASE * ((1 << seg) - 1);
        (seg, offset)
    }

    /// Lock-free read of a published slot.
    #[inline]
    fn get(&self, slot: u32) -> &Entry {
        let (seg, offset) = Self::locate(slot);
        self.segments[seg]
            .get()
            .expect("segment of an escaped id is allocated")[offset]
            .get()
            .expect("entry of an escaped id is published")
    }

    /// Publishes `entry` at `slot`. Called with the intern lock held,
    /// before the slot's id escapes.
    fn publish(&self, slot: u32, entry: Entry) {
        let (seg, offset) = Self::locate(slot);
        let segment = self.segments[seg].get_or_init(|| {
            (0..SEG_BASE << seg)
                .map(|_| OnceLock::new())
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        if segment[offset].set(entry).is_err() {
            unreachable!("arena slot {slot} published twice");
        }
    }
}

// ---------------------------------------------------------------------------
// The intern map
// ---------------------------------------------------------------------------

struct InternMap {
    /// Canonical node → id.
    ids: HashMap<Node, FormulaId, FxBuild>,
    /// Next free slot (== number of interned nodes).
    len: u32,
    operand_slots: u64,
    hits: u64,
    locks: u64,
}

struct Arena {
    map: Mutex<InternMap>,
    store: Store,
    /// Intern requests served by thread-local caches (no intern lock).
    local_hits: AtomicU64,
}

impl Arena {
    /// Interns `node`, appending to the store on a miss. Poisoning is
    /// ignored: an append either completes (store publish, then map
    /// insert) or leaves both untouched, so a panicking holder cannot
    /// leave state that later operations would misread.
    fn intern(&self, node: Node, size: u64, has_vars: bool) -> FormulaId {
        let mut map = self
            .map
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        map.locks += 1;
        if let Some(&id) = map.ids.get(&node) {
            map.hits += 1;
            return id;
        }
        // Count operand slots only for nodes actually stored — a
        // hash-consing hit stores nothing.
        if let Node::And(xs) | Node::Or(xs) = &node {
            map.operand_slots += xs.len() as u64;
        }
        // `< u32::MAX`, not `≤`: the memos store `id + 1`, so the
        // all-ones id must stay unused.
        let slot = map.len;
        assert!(slot < u32::MAX, "formula arena full (2^32 - 1 nodes)");
        map.len += 1;
        self.store.publish(
            slot,
            Entry {
                node: node.clone(),
                size,
                has_vars,
            },
        );
        map.ids.insert(node, FormulaId(slot));
        FormulaId(slot)
    }
}

static ARENA: OnceLock<Arena> = OnceLock::new();

fn arena() -> &'static Arena {
    ARENA.get_or_init(|| {
        let arena = Arena {
            map: Mutex::new(InternMap {
                ids: HashMap::default(),
                len: 0,
                operand_slots: 0,
                hits: 0,
                locks: 0,
            }),
            store: Store::new(),
            local_hits: AtomicU64::new(0),
        };
        // The two constants are interned first, so `FALSE_ID`/`TRUE_ID`
        // are the compile-time ids 0 and 1. This cannot produce
        // duplicates later: every constructor folds constants before
        // interning, so `Node::Const` never reaches the intern path.
        let f = arena.intern(Node::Const(false), 1, false);
        let t = arena.intern(Node::Const(true), 1, false);
        debug_assert_eq!(f, FALSE_ID);
        debug_assert_eq!(t, TRUE_ID);
        arena
    })
}

// ---------------------------------------------------------------------------
// Thread-local intern fast path
// ---------------------------------------------------------------------------

/// Bound on the per-thread cache; reaching it clears the cache (epoch
/// style) rather than evicting, keeping the fast path branch-light.
const LOCAL_CAP: usize = 8192;

thread_local! {
    static LOCAL_INTERN: RefCell<HashMap<Node, FormulaId, FxBuild>> =
        RefCell::new(HashMap::default());
}

// ---------------------------------------------------------------------------
// Thread-local variable table
// ---------------------------------------------------------------------------

/// One fragment's variables minted on this thread: a row of ids per
/// [`VecKind`], in `VecKind::ALL` order, indexed by `sub`.
type VarRows = [Vec<FormulaId>; 3];

thread_local! {
    /// Fragment → the ids of `x_sub`, `cx_sub` and `dx_sub` this thread
    /// has minted. Keyed by hash, not by fragment index, because test
    /// and split fragment ids are sparse. A row only grows by appending
    /// its next `sub`, so it is dense: the table holds 4 bytes per
    /// variable the thread minted, plus one fixed-size entry per
    /// fragment it minted one of, and the arena keeps every such
    /// variable forever, so the table never outgrows the arena. A `sub`
    /// past the row's end (a decoded wire variable, say) is interned
    /// without being recorded, so no input can make a row sparse.
    static LOCAL_VARS: RefCell<HashMap<FragmentId, VarRows, FxBuild>> =
        RefCell::new(HashMap::default());
}

/// Extends `row` (the `kind` row of `frag`) to at least `len` ids,
/// interning each new variable through the cache-then-map path so its
/// id is the one every other thread gets.
fn extend_row(row: &mut Vec<FormulaId>, frag: FragmentId, kind: VecKind, len: usize) {
    for sub in row.len()..len {
        row.push(intern(Node::Var(Var::new(frag, kind, sub as u32)), 1, true));
    }
}

/// The variable constructor: an array read in the thread's variable
/// table, interning (and recording) only on the thread's first use.
pub(crate) fn mk_var(v: Var) -> FormulaId {
    let sub = v.sub as usize;
    LOCAL_VARS.with(|t| {
        let mut table = t.borrow_mut();
        let row = &mut table.entry(v.frag).or_default()[v.vec as usize];
        if sub <= row.len() {
            extend_row(row, v.frag, v.vec, sub + 1);
            row[sub]
        } else {
            intern(Node::Var(v), 1, true)
        }
    })
}

/// `row(ids)` of the first `len` ids of each of `frag`'s three rows, in
/// `VecKind::ALL` order: one table probe for all `3·len` variables.
pub(crate) fn var_rows<T>(frag: FragmentId, len: usize, row: impl Fn(&[FormulaId]) -> T) -> [T; 3] {
    LOCAL_VARS.with(|t| {
        let mut table = t.borrow_mut();
        let rows = table.entry(frag).or_default();
        for (ids, kind) in rows.iter_mut().zip(VecKind::ALL) {
            extend_row(ids, frag, kind, len);
        }
        std::array::from_fn(|k| row(&rows[k][..len]))
    })
}

/// The interning entry point: thread-local cache first, then the intern
/// map. The node→id mapping is immutable, so the local cache never needs
/// invalidation.
fn intern(node: Node, size: u64, has_vars: bool) -> FormulaId {
    if let Some(id) = LOCAL_INTERN.with(|c| c.borrow().get(&node).copied()) {
        arena().local_hits.fetch_add(1, Ordering::Relaxed);
        return id;
    }
    let id = arena().intern(node.clone(), size, has_vars);
    LOCAL_INTERN.with(|c| {
        let mut cache = c.borrow_mut();
        if cache.len() >= LOCAL_CAP {
            cache.clear();
        }
        cache.insert(node, id);
    });
    id
}

// ---------------------------------------------------------------------------
// Constructors and read paths (crate-internal API)
// ---------------------------------------------------------------------------

/// Lock-free read of a published node.
#[inline]
pub(crate) fn entry(id: FormulaId) -> &'static Entry {
    arena().store.get(id.0)
}

/// The node named by `id` (lock-free).
#[inline]
pub(crate) fn node(id: FormulaId) -> &'static Node {
    &entry(id).node
}

/// Tree-expansion size of `id` (lock-free).
#[inline]
pub(crate) fn size_of(id: FormulaId) -> u64 {
    entry(id).size
}

/// Does `id` reference any variable? (lock-free).
#[inline]
pub(crate) fn has_vars(id: FormulaId) -> bool {
    entry(id).has_vars
}

pub(crate) fn mk_const(b: bool) -> FormulaId {
    if b {
        TRUE_ID
    } else {
        FALSE_ID
    }
}

pub(crate) fn mk_not(a: FormulaId) -> FormulaId {
    match entry(a) {
        Entry {
            node: Node::Const(b),
            ..
        } => mk_const(!b),
        Entry {
            node: Node::Not(inner),
            ..
        } => *inner,
        e => intern(Node::Not(a), e.size.saturating_add(1), e.has_vars),
    }
}

/// Canonical n-ary conjunction (`conj`) or disjunction: folds constants,
/// flattens same-operator children one level (sufficient by the
/// canonical invariant), sorts by id and deduplicates, all in one pass —
/// a single interning regardless of operand count. Operand reads go
/// through the lock-free store, so flattening never holds any lock.
pub(crate) fn mk_nary<I>(conj: bool, ops: I) -> FormulaId
where
    I: IntoIterator<Item = FormulaId>,
{
    let (absorbing, neutral) = if conj {
        (FALSE_ID, TRUE_ID)
    } else {
        (TRUE_ID, FALSE_ID)
    };
    let mut out: Vec<FormulaId> = Vec::new();
    for id in ops {
        if id == absorbing {
            return absorbing;
        }
        if id == neutral {
            continue;
        }
        match node(id) {
            Node::And(xs) if conj => out.extend_from_slice(xs),
            Node::Or(xs) if !conj => out.extend_from_slice(xs),
            _ => out.push(id),
        }
    }
    out.sort_unstable();
    out.dedup();
    match out.len() {
        0 => neutral,
        1 => out[0],
        _ => {
            let size = out
                .iter()
                .fold(1u64, |acc, i| acc.saturating_add(size_of(*i)));
            let has_vars = out.iter().any(|i| has_vars(*i));
            let n = if conj {
                Node::And(out.into())
            } else {
                Node::Or(out.into())
            };
            intern(n, size, has_vars)
        }
    }
}

/// Occupancy and intern-path counters.
pub(crate) fn stats() -> ArenaStats {
    let a = arena();
    // Deliberately not counted in `locks`: those meter the intern path,
    // not diagnostics.
    let map = a
        .map
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    ArenaStats {
        nodes: map.len as usize,
        operand_slots: map.operand_slots,
        local_hits: a.local_hits.load(Ordering::Relaxed),
        shards: [ShardCounters {
            interns: u64::from(map.len),
            hits: map.hits,
            locks: map.locks,
        }],
    }
}

/// Extracts the sub-DAG reachable from `roots` into a local snapshot,
/// children before parents. Iterative (no recursion), so arbitrarily
/// deep formulas cannot overflow the stack; entirely lock-free — it
/// reads published store entries only, so it runs concurrently with
/// interning.
pub(crate) fn snapshot(roots: &[FormulaId]) -> Dag {
    let mut dag = Dag {
        nodes: Vec::new(),
        operands: Vec::new(),
        roots: Vec::with_capacity(roots.len()),
    };
    let mut memo = IdMap::new();
    let mut stack: Vec<(FormulaId, bool)> = Vec::new();
    for &root in roots {
        if memo.get(root.0).is_none() {
            stack.push((root, false));
            while let Some((id, expanded)) = stack.pop() {
                if memo.get(id.0).is_some() {
                    continue;
                }
                let n = node(id);
                if expanded {
                    let at = |x: &FormulaId| memo.get(x.0).expect("child snapshot first");
                    let local = match n {
                        Node::Const(b) => DagNode::Const(*b),
                        Node::Var(v) => DagNode::Var(*v),
                        Node::Not(x) => DagNode::Not(at(x)),
                        Node::And(xs) | Node::Or(xs) => {
                            let start = dag.operands.len() as u32;
                            dag.operands.extend(xs.iter().map(at));
                            let range = start..dag.operands.len() as u32;
                            if matches!(n, Node::And(_)) {
                                DagNode::And(range)
                            } else {
                                DagNode::Or(range)
                            }
                        }
                    };
                    memo.insert(id.0, dag.nodes.len() as u32);
                    dag.nodes.push(local);
                } else {
                    stack.push((id, true));
                    match n {
                        Node::Not(x) if memo.get(x.0).is_none() => stack.push((*x, false)),
                        Node::And(xs) | Node::Or(xs) => {
                            for x in xs.iter() {
                                if memo.get(x.0).is_none() {
                                    stack.push((*x, false));
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        dag.roots
            .push(memo.get(root.0).expect("root snapshot above"));
    }
    dag
}

/// Values the DAG reachable from `roots` bottom-up in one memoized pass
/// without materializing a [`Dag`]: `leaf` values a constant or
/// variable at each occurrence, `inner` values each distinct operator
/// node from its operands' values, in operand order. Iterative and
/// lock-free like [`snapshot`], but only operator nodes enter the memo
/// and the stack — the cheap traversal for evaluation, where most nodes
/// are variables read once.
pub(crate) fn fold<T: Copy>(
    roots: &[FormulaId],
    leaf: impl Fn(&Node) -> T,
    inner: impl Fn(&Node, &[T]) -> T,
) -> Vec<T> {
    let operands = |n: &'static Node| -> &'static [FormulaId] {
        match n {
            Node::Not(x) => std::slice::from_ref(x),
            Node::And(xs) | Node::Or(xs) => xs,
            Node::Const(_) | Node::Var(_) => &[],
        }
    };
    let is_leaf = |n: &Node| matches!(n, Node::Const(_) | Node::Var(_));
    let mut memo = IdMap::new();
    let mut values: Vec<T> = Vec::new();
    let mut scratch: Vec<T> = Vec::new();
    let mut stack: Vec<(FormulaId, bool)> = Vec::new();
    let mut out = Vec::with_capacity(roots.len());
    for &root in roots {
        if is_leaf(node(root)) {
            out.push(leaf(node(root)));
            continue;
        }
        stack.push((root, false));
        while let Some((id, expanded)) = stack.pop() {
            if memo.get(id.0).is_some() {
                continue;
            }
            let n = node(id);
            if expanded {
                scratch.clear();
                for x in operands(n) {
                    let nx = node(*x);
                    scratch.push(if is_leaf(nx) {
                        leaf(nx)
                    } else {
                        values[memo.get(x.0).expect("operands first") as usize]
                    });
                }
                memo.insert(id.0, values.len() as u32);
                values.push(inner(n, &scratch));
            } else {
                stack.push((id, true));
                for x in operands(n) {
                    if !is_leaf(node(*x)) && memo.get(x.0).is_none() {
                        stack.push((*x, false));
                    }
                }
            }
        }
        out.push(values[memo.get(root.0).expect("root folded above") as usize]);
    }
    out
}

/// One node of a [`Dag`] snapshot; operand references are indices into
/// [`Dag::operands`] / earlier [`Dag::nodes`] entries.
#[derive(Debug, Clone)]
pub(crate) enum DagNode {
    Const(bool),
    Var(Var),
    Not(u32),
    And(Range<u32>),
    Or(Range<u32>),
}

/// A lock-free snapshot of the sub-DAG reachable from a set of roots, in
/// topological order (children strictly before parents). The traversals
/// that rebuild or print formulas — substitute, rendering, wire encoding
/// — run over snapshots, evaluation over [`fold`], so no arena lock is
/// ever held across user code.
#[derive(Debug, Clone)]
pub(crate) struct Dag {
    pub(crate) nodes: Vec<DagNode>,
    pub(crate) operands: Vec<u32>,
    /// One entry per requested root, in request order.
    pub(crate) roots: Vec<u32>,
}

impl Dag {
    /// Local indices of the operands of an n-ary node.
    pub(crate) fn ops(&self, range: &Range<u32>) -> &[u32] {
        &self.operands[range.start as usize..range.end as usize]
    }
}

/// Minimal open-addressing `u32 → u32` map with multiplicative hashing.
/// The memo of every snapshot and fold is the hot data structure of
/// every substitute/eval/encode pass; `std`'s SipHash-backed `HashMap`
/// dominated those passes. The probe multiplies the key by the golden
/// ratio constant and keeps the product's *low* bits (Fibonacci hashing
/// would keep the high ones), and low product bits depend only on low
/// key bits: keys that differ only above the mask share one probe
/// chain. Arena ids are dense slots in interning order, so the ids one
/// pass meets differ in their low bits and spread over the table.
struct IdMap {
    /// `(key + 1, value)`; key slot 0 means empty.
    slots: Vec<(u32, u32)>,
    mask: usize,
    len: usize,
}

impl IdMap {
    fn new() -> IdMap {
        IdMap {
            slots: vec![(0, 0); 16],
            mask: 15,
            len: 0,
        }
    }

    #[inline]
    fn probe(&self, key: u32) -> usize {
        (key.wrapping_add(1).wrapping_mul(0x9e37_79b1) as usize) & self.mask
    }

    fn get(&self, key: u32) -> Option<u32> {
        let stored = key + 1;
        let mut i = self.probe(key);
        loop {
            let (k, v) = self.slots[i];
            if k == stored {
                return Some(v);
            }
            if k == 0 {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn insert(&mut self, key: u32, value: u32) {
        if self.len * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let stored = key + 1;
        let mut i = self.probe(key);
        loop {
            let (k, _) = self.slots[i];
            if k == 0 {
                self.slots[i] = (stored, value);
                self.len += 1;
                return;
            }
            if k == stored {
                self.slots[i] = (stored, value);
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); 0]);
        self.mask = old.len() * 2 - 1;
        self.slots = vec![(0, 0); old.len() * 2];
        self.len = 0;
        for (k, v) in old {
            if k != 0 {
                self.insert(k - 1, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_have_fixed_ids() {
        assert_eq!(mk_const(false), FALSE_ID);
        assert_eq!(mk_const(true), TRUE_ID);
        // Interned first, at slots 0 and 1.
        assert_eq!(FALSE_ID.0, 0);
        assert_eq!(TRUE_ID.0, 1);
    }

    #[test]
    fn store_locate_is_contiguous() {
        // Slots map to (segment, offset) without gaps or overlaps.
        let mut expected: Vec<(usize, usize)> = Vec::new();
        for seg in 0..4 {
            for off in 0..SEG_BASE << seg {
                expected.push((seg, off));
            }
        }
        for (slot, want) in expected.iter().enumerate() {
            assert_eq!(Store::locate(slot as u32), *want, "slot {slot}");
        }
        // The full segment ladder covers every slot below `u32::MAX`,
        // and one segment fewer would not.
        assert!(SEG_BASE * ((1usize << SEG_COUNT) - 1) >= u32::MAX as usize);
        assert!(SEG_BASE * ((1usize << (SEG_COUNT - 1)) - 1) < u32::MAX as usize);
        assert_eq!(Store::locate(u32::MAX - 1).0, SEG_COUNT - 1);
    }

    #[test]
    fn same_node_same_id_across_shrad_paths() {
        let v = Var::new(FragmentId(7001), VecKind::V, 3);
        let a = mk_var(v);
        let b = mk_var(v);
        assert_eq!(a, b);
    }

    #[test]
    fn stats_count_per_shard() {
        let before = stats();
        let vars: Vec<FormulaId> = (0..64)
            .map(|i| mk_var(Var::new(FragmentId(8000 + i), VecKind::DV, i)))
            .collect();
        let or = mk_nary(false, vars.clone());
        assert_ne!(or, TRUE_ID);
        let after = stats();
        assert!(after.nodes >= before.nodes + 64);
        assert!(after.operand_slots >= before.operand_slots + 64);
        let interned: u64 = after.shards.iter().map(|s| s.interns).sum();
        assert_eq!(interned as usize, after.nodes);
    }

    #[test]
    fn ids_follow_interning_order() {
        // Sibling tests intern concurrently, so the ids need not be
        // consecutive, but a node interned later gets a later slot.
        let ids: Vec<FormulaId> = (0..64)
            .map(|i| mk_not(mk_var(Var::new(FragmentId(9300 + i), VecKind::V, 0))))
            .collect();
        for pair in ids.windows(2) {
            assert!(pair[0] < pair[1], "{:?} then {:?}", pair[0], pair[1]);
        }
    }

    #[test]
    fn local_cache_absorbs_repeats() {
        // Sibling tests intern concurrently and the arena counters are
        // process-global, so the hermetic evidence is this thread's own
        // cache: the key is resident after the first construction and
        // the repeats add nothing to it (a miss would insert). A
        // negation, because a variable stops at the variable table.
        let x = mk_var(Var::new(FragmentId(9102), VecKind::CV, 1));
        let first = mk_not(x);
        let resident = || LOCAL_INTERN.with(|c| c.borrow().get(&Node::Not(x)).copied());
        let cached = || LOCAL_INTERN.with(|c| c.borrow().len());
        assert_eq!(resident(), Some(first));
        let (len_before, before) = (cached(), stats());
        for _ in 0..100 {
            assert_eq!(mk_not(x), first);
        }
        assert_eq!(cached(), len_before, "repeats must not miss");
        assert!(stats().local_hits >= before.local_hits + 100);
    }
}
