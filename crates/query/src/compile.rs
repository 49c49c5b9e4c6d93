//! Compilation of normalized queries into the paper's `QList`.
//!
//! A [`CompiledQuery`] is a flat program of [`SubQuery`] op-codes in
//! topological order: each operand index refers to an *earlier* entry, so
//! one left-to-right pass computes all sub-query values at a node — exactly
//! the structure procedure `bottomUp` (Fig. 3b) iterates over.
//!
//! The op-codes mirror the paper's cases c0–c8. Two remarks:
//!
//! * case c4 (`ε[qj]/qk`) computes `V(qj) ∧ V(qk)`, which coincides with
//!   case c7 (`qj ∧ qk`); we emit a single [`SubQuery::And`] op for both;
//! * identical sub-queries are hash-consed, so `|QList|` counts *distinct*
//!   sub-queries (the paper's bound `O(|q|)` still holds).

use crate::ast::Query;
use crate::normalize::{normalize, NQuery, NStep};
use parbox_xml::{LabelId, LabelTable};
use std::collections::HashMap;
use std::fmt;

/// Index of a sub-query within a [`CompiledQuery`].
pub type SubId = u32;

/// One sub-query op-code (an entry of the paper's `QList`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SubQuery {
    /// `ε` — true at every node (case c0).
    True,
    /// `label() = A` (case c1).
    LabelIs(String),
    /// `text() = s` (case c2).
    TextIs(String),
    /// `*/q` — true iff `q` holds at some child (case c3, reads `CV`).
    Child(SubId),
    /// `//q` — true iff `q` holds at the node or some descendant
    /// (case c5, reads `DV`).
    Desc(SubId),
    /// `q ∨ q` (case c6).
    Or(SubId, SubId),
    /// `q ∧ q` (cases c4 and c7).
    And(SubId, SubId),
    /// `¬ q` (case c8).
    Not(SubId),
}

impl SubQuery {
    /// Operand sub-queries referenced by this op.
    pub fn operands(&self) -> impl Iterator<Item = SubId> {
        let (a, b) = match *self {
            SubQuery::True | SubQuery::LabelIs(_) | SubQuery::TextIs(_) => (None, None),
            SubQuery::Child(x) | SubQuery::Desc(x) | SubQuery::Not(x) => (Some(x), None),
            SubQuery::Or(x, y) | SubQuery::And(x, y) => (Some(x), Some(y)),
        };
        a.into_iter().chain(b)
    }

    /// A copy with operand ids rewritten through `f` (used to translate a
    /// program's ops into another program's id space).
    fn remap(&self, f: impl Fn(SubId) -> SubId) -> SubQuery {
        match self {
            SubQuery::True | SubQuery::LabelIs(_) | SubQuery::TextIs(_) => self.clone(),
            SubQuery::Child(x) => SubQuery::Child(f(*x)),
            SubQuery::Desc(x) => SubQuery::Desc(f(*x)),
            SubQuery::Not(x) => SubQuery::Not(f(*x)),
            SubQuery::Or(x, y) => SubQuery::Or(f(*x), f(*y)),
            SubQuery::And(x, y) => SubQuery::And(f(*x), f(*y)),
        }
    }
}

/// A stable, structural fingerprint of a compiled query.
///
/// Fingerprints are computed *hash-consed*: every sub-query's fingerprint
/// is an FNV-1a hash over its op-code tag and the fingerprints of its
/// operands, and the query fingerprint is its root sub-query's. Two
/// programs denoting the same (hash-consed) query structure therefore
/// fingerprint identically — in particular, a [`QueryBatch`] member's
/// fingerprint equals the fingerprint of the member compiled solo, which
/// is what lets a serving engine key its triplet caches by
/// `(fragment, fingerprint)` across batch boundaries.
///
/// Fingerprints depend only on the program structure (no pointer values,
/// no process state), so they are stable across runs and machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryFingerprint(pub u64);

impl fmt::Display for QueryFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

fn fnv_u64(h: u64, x: u64) -> u64 {
    fnv_bytes(h, &x.to_le_bytes())
}

/// Computes the structural fingerprint of every sub-query of a program,
/// in program order. Entry `i` depends only on the *structure* reachable
/// from sub-query `i`, never on its numeric id.
pub fn sub_fingerprints(subs: &[SubQuery]) -> Vec<u64> {
    let mut fps: Vec<u64> = Vec::with_capacity(subs.len());
    for s in subs {
        let h = match s {
            SubQuery::True => fnv_bytes(FNV_OFFSET, &[0]),
            SubQuery::LabelIs(a) => fnv_bytes(fnv_bytes(FNV_OFFSET, &[1]), a.as_bytes()),
            SubQuery::TextIs(t) => fnv_bytes(fnv_bytes(FNV_OFFSET, &[2]), t.as_bytes()),
            SubQuery::Child(x) => fnv_u64(fnv_bytes(FNV_OFFSET, &[3]), fps[*x as usize]),
            SubQuery::Desc(x) => fnv_u64(fnv_bytes(FNV_OFFSET, &[4]), fps[*x as usize]),
            SubQuery::Not(x) => fnv_u64(fnv_bytes(FNV_OFFSET, &[5]), fps[*x as usize]),
            SubQuery::Or(x, y) => fnv_u64(
                fnv_u64(fnv_bytes(FNV_OFFSET, &[6]), fps[*x as usize]),
                fps[*y as usize],
            ),
            SubQuery::And(x, y) => fnv_u64(
                fnv_u64(fnv_bytes(FNV_OFFSET, &[7]), fps[*x as usize]),
                fps[*y as usize],
            ),
        };
        fps.push(h);
    }
    fps
}

/// A compiled XBL query: the topologically sorted list of distinct
/// sub-queries (`QList`) plus the id of the root query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledQuery {
    subs: Vec<SubQuery>,
    root: SubId,
    /// Structural fingerprint of the root sub-query (derived from `subs`
    /// and `root`, so the derived equality stays consistent).
    fp: QueryFingerprint,
}

impl CompiledQuery {
    /// Assembles a compiled query from raw parts. The caller must uphold
    /// the topological-order invariant (operands precede their users);
    /// this is checked in debug builds.
    pub fn from_parts(subs: Vec<SubQuery>, root: SubId) -> CompiledQuery {
        debug_assert!((root as usize) < subs.len());
        debug_assert!(subs
            .iter()
            .enumerate()
            .all(|(i, s)| s.operands().all(|op| (op as usize) < i)));
        let fp = QueryFingerprint(sub_fingerprints(&subs)[root as usize]);
        CompiledQuery { subs, root, fp }
    }

    /// The query's stable structural fingerprint — see
    /// [`QueryFingerprint`] for the guarantees it carries.
    #[inline]
    pub fn fingerprint(&self) -> QueryFingerprint {
        self.fp
    }

    /// Fingerprint of the whole program *as a compiled artifact*: hashes
    /// every sub-query's structural fingerprint in program order, so two
    /// programs collide only when their `QList`s are identical entry for
    /// entry — same structure *and* same numbering — which is exactly
    /// when their triplets are interchangeable.
    ///
    /// Contrast with [`CompiledQuery::fingerprint`], which identifies the
    /// root sub-query's *meaning* and deliberately ignores unreachable
    /// entries: a merged [`QueryBatch`] program shares its root
    /// fingerprint with its last member, but not its program fingerprint.
    /// Caches holding whole-program evaluation results (a site worker's
    /// triplet cache) must key by this one.
    pub fn program_fingerprint(&self) -> QueryFingerprint {
        let mut h = FNV_OFFSET;
        for fp in sub_fingerprints(&self.subs) {
            h = fnv_u64(h, fp);
        }
        QueryFingerprint(fnv_u64(h, self.root as u64))
    }

    /// For each sub-query of `self`, the id of the structurally identical
    /// sub-query in `host`; `None` if some sub-query has no counterpart.
    ///
    /// A [`QueryBatch`] member always embeds into the batch's merged
    /// program (`compile_batch` hash-conses every member sub-query into
    /// the merged `QList`), so this mapping recovers where each member
    /// entry landed — the serving engine uses it to project a member's
    /// triplet out of a merged batch triplet.
    pub fn embedding_into(&self, host: &CompiledQuery) -> Option<Vec<SubId>> {
        let memo: HashMap<&SubQuery, SubId> = host
            .subs
            .iter()
            .enumerate()
            .map(|(i, s)| (s, i as SubId))
            .collect();
        let mut map: Vec<SubId> = Vec::with_capacity(self.subs.len());
        for s in &self.subs {
            let translated = s.remap(|op| map[op as usize]);
            let id = *memo.get(&translated)?;
            map.push(id);
        }
        Some(map)
    }

    /// `|QList|` — the number of distinct sub-queries. This is the query
    /// size knob of the paper's experiments (2, 8, 15, 23).
    #[inline]
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// True for the trivial (empty) program; never produced by [`compile`].
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// Id of the root sub-query (the query answer).
    #[inline]
    pub fn root(&self) -> SubId {
        self.root
    }

    /// The sub-query list in topological order.
    #[inline]
    pub fn subs(&self) -> &[SubQuery] {
        &self.subs
    }

    /// Resolves label names against a tree's label table, producing a
    /// program whose hot-loop comparisons are integer equality.
    pub fn resolve(&self, labels: &LabelTable) -> ResolvedQuery {
        ResolvedQuery {
            ops: self
                .subs
                .iter()
                .map(|s| match s {
                    SubQuery::True => Op::True,
                    SubQuery::LabelIs(a) => Op::LabelIs(labels.lookup(a)),
                    SubQuery::TextIs(t) => Op::TextIs(t.as_str().into()),
                    SubQuery::Child(x) => Op::Child(*x),
                    SubQuery::Desc(x) => Op::Desc(*x),
                    SubQuery::Or(x, y) => Op::Or(*x, *y),
                    SubQuery::And(x, y) => Op::And(*x, *y),
                    SubQuery::Not(x) => Op::Not(*x),
                })
                .collect(),
            root: self.root,
        }
    }
}

impl fmt::Display for CompiledQuery {
    /// Renders the program in the style of the paper's Example 2.1:
    /// `q1 = label() = code`, `q2 = text() = "yhoo"`, `q3 = q1 ∧ q2`, …
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.subs.iter().enumerate() {
            let i = i + 1; // paper numbers from q1
            match s {
                SubQuery::True => writeln!(f, "q{i} = ε")?,
                SubQuery::LabelIs(a) => writeln!(f, "q{i} = (label() = {a})")?,
                SubQuery::TextIs(t) => writeln!(f, "q{i} = (text() = \"{t}\")")?,
                SubQuery::Child(x) => writeln!(f, "q{i} = */q{}", x + 1)?,
                SubQuery::Desc(x) => writeln!(f, "q{i} = //q{}", x + 1)?,
                SubQuery::Or(x, y) => writeln!(f, "q{i} = q{} ∨ q{}", x + 1, y + 1)?,
                SubQuery::And(x, y) => writeln!(f, "q{i} = q{} ∧ q{}", x + 1, y + 1)?,
                SubQuery::Not(x) => writeln!(f, "q{i} = ¬q{}", x + 1)?,
            }
        }
        writeln!(f, "root = q{}", self.root + 1)
    }
}

/// A compiled query with labels resolved against one tree's label table.
#[derive(Debug, Clone)]
pub struct ResolvedQuery {
    /// Resolved op-codes, topologically ordered.
    pub ops: Vec<Op>,
    /// Root op id.
    pub root: SubId,
}

impl ResolvedQuery {
    /// Number of ops.
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when there are no ops (never produced by [`compile`]).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Resolved sub-query op-code. `LabelIs(None)` means the label does not
/// occur in the tree at all, so the predicate is false everywhere.
#[derive(Debug, Clone)]
pub enum Op {
    /// `ε`.
    True,
    /// `label() = A`, with `A` resolved (or absent from the tree).
    LabelIs(Option<LabelId>),
    /// `text() = s`.
    TextIs(Box<str>),
    /// `*/q`.
    Child(SubId),
    /// `//q`.
    Desc(SubId),
    /// `q ∨ q`.
    Or(SubId, SubId),
    /// `q ∧ q`.
    And(SubId, SubId),
    /// `¬ q`.
    Not(SubId),
}

/// Compiles a query: `normalize` + `QList` construction, both `O(|q|)`.
///
/// ```
/// use parbox_query::{parse_query, compile};
/// let q = parse_query("[//stock[code/text() = \"yhoo\"]]").unwrap();
/// let c = compile(&q);
/// assert!(c.len() >= 6);
/// assert_eq!(c.root() as usize, c.len() - 1);
/// ```
pub fn compile(q: &Query) -> CompiledQuery {
    let n = normalize(q);
    let mut b = Builder {
        subs: Vec::new(),
        memo: HashMap::new(),
    };
    let root = b.compile_nquery(&n);
    CompiledQuery::from_parts(b.subs, root)
}

/// A batch of queries compiled into **one shared program**: the union of
/// the member queries' `QList`s, hash-consed across query boundaries, plus
/// one root id per member.
///
/// This is the front end of the multi-query batch engine: evaluating the
/// merged program once per fragment computes every member query's answer
/// in the same tree traversal, so a whole batch costs one site visit and
/// one `(V, CV, DV)` exchange instead of one per query. Sub-queries shared
/// between members (common predicates, common path prefixes) are compiled
/// — and evaluated, and shipped — exactly once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryBatch {
    merged: CompiledQuery,
    roots: Vec<SubId>,
    /// Structural fingerprint of each member (derived from `merged` and
    /// `roots`), equal to the fingerprint of the member compiled solo.
    member_fps: Vec<QueryFingerprint>,
}

impl QueryBatch {
    /// The merged program covering every member query.
    ///
    /// Its [`CompiledQuery::root`] is the last member's root; per-member
    /// answers are read through [`QueryBatch::roots`] instead.
    #[inline]
    pub fn merged(&self) -> &CompiledQuery {
        &self.merged
    }

    /// Root sub-query id of each member, in input order.
    #[inline]
    pub fn roots(&self) -> &[SubId] {
        &self.roots
    }

    /// Root sub-query id of member `i`.
    #[inline]
    pub fn root_of(&self, i: usize) -> SubId {
        self.roots[i]
    }

    /// Structural fingerprint of member `i` — equal to
    /// `compile(&members[i]).fingerprint()`, because fingerprints are
    /// computed over sub-query structure, not numeric ids.
    #[inline]
    pub fn member_fingerprint(&self, i: usize) -> QueryFingerprint {
        self.member_fps[i]
    }

    /// Number of member queries in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.roots.len()
    }

    /// True for a batch with no member queries (never produced by
    /// [`compile_batch`], which rejects empty input).
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// `|QList|` of the merged program — the width of the batched
    /// `(V, CV, DV)` triplets. At most the sum of the members' individual
    /// `|QList|`s; smaller whenever members share sub-queries.
    #[inline]
    pub fn merged_len(&self) -> usize {
        self.merged.len()
    }
}

/// Compiles `queries` into a [`QueryBatch`] with one merged, deduplicated
/// `QList`. Linear in the total query size; panics on an empty slice.
///
/// ```
/// use parbox_query::{compile, compile_batch, parse_query};
///
/// let queries: Vec<_> = ["[//item and //person]", "[//item and //price]"]
///     .iter()
///     .map(|s| parse_query(s).unwrap())
///     .collect();
/// let batch = compile_batch(&queries);
/// assert_eq!(batch.len(), 2);
/// // `//item` is compiled once: the merged program is smaller than the
/// // two programs compiled separately.
/// let separate: usize = queries.iter().map(|q| compile(q).len()).sum();
/// assert!(batch.merged_len() < separate);
/// ```
pub fn compile_batch(queries: &[Query]) -> QueryBatch {
    assert!(!queries.is_empty(), "empty query batch");
    let mut b = Builder {
        subs: Vec::new(),
        memo: HashMap::new(),
    };
    let roots: Vec<SubId> = queries
        .iter()
        .map(|q| {
            let n = normalize(q);
            b.compile_nquery(&n)
        })
        .collect();
    let root = *roots.last().expect("non-empty batch");
    let merged = CompiledQuery::from_parts(b.subs, root);
    let fps = sub_fingerprints(merged.subs());
    let member_fps = roots
        .iter()
        .map(|&r| QueryFingerprint(fps[r as usize]))
        .collect();
    QueryBatch {
        merged,
        roots,
        member_fps,
    }
}

/// Merges *already compiled* programs into a [`QueryBatch`], hash-consing
/// their `QList`s exactly as [`compile_batch`] would — without re-running
/// parse/normalize/compile on the members. Produces the identical batch:
/// a serving engine that compiled each query once at admission reuses
/// those programs for every round the query participates in.
///
/// Panics on an empty slice, like [`compile_batch`].
///
/// ```
/// use parbox_query::{compile, compile_batch, merge_programs, parse_query};
///
/// let queries: Vec<_> = ["[//item and //person]", "[//item and //price]"]
///     .iter()
///     .map(|s| parse_query(s).unwrap())
///     .collect();
/// let compiled: Vec<_> = queries.iter().map(compile).collect();
/// assert_eq!(merge_programs(&compiled), compile_batch(&queries));
/// ```
pub fn merge_programs(programs: &[CompiledQuery]) -> QueryBatch {
    merge_embedded(programs).0
}

/// [`merge_programs`] over borrowed members, also returning where each
/// member's sub-queries landed: entry `k` is what
/// `member_k.embedding_into(batch.merged())` would compute, read off
/// the merge itself instead of re-hashing the merged program once per
/// member — which is quadratic when thousands of programs merge.
///
/// Panics on an empty input, like [`compile_batch`].
pub fn merge_embedded<'a>(
    programs: impl IntoIterator<Item = &'a CompiledQuery>,
) -> (QueryBatch, Vec<Vec<SubId>>) {
    let mut b = Builder {
        subs: Vec::new(),
        memo: HashMap::new(),
    };
    let mut member_fps: Vec<QueryFingerprint> = Vec::new();
    let mut roots: Vec<SubId> = Vec::new();
    let mut embeddings: Vec<Vec<SubId>> = Vec::new();
    for p in programs {
        // Translate the member's ops into the shared id space; `add`
        // dedups against everything merged so far.
        let mut map: Vec<SubId> = Vec::with_capacity(p.len());
        for s in p.subs() {
            let translated = s.remap(|op| map[op as usize]);
            map.push(b.add(translated));
        }
        roots.push(map[p.root() as usize]);
        member_fps.push(p.fingerprint());
        embeddings.push(map);
    }
    let root = *roots.last().expect("empty query batch");
    let batch = QueryBatch {
        merged: CompiledQuery::from_parts(b.subs, root),
        roots,
        member_fps,
    };
    (batch, embeddings)
}

struct Builder {
    subs: Vec<SubQuery>,
    memo: HashMap<SubQuery, SubId>,
}

impl Builder {
    fn add(&mut self, s: SubQuery) -> SubId {
        if let Some(&id) = self.memo.get(&s) {
            return id;
        }
        let id = self.subs.len() as SubId;
        self.subs.push(s.clone());
        self.memo.insert(s, id);
        id
    }

    fn compile_nquery(&mut self, q: &NQuery) -> SubId {
        match q {
            NQuery::True => self.add(SubQuery::True),
            NQuery::LabelIs(a) => self.add(SubQuery::LabelIs(a.clone())),
            NQuery::TextIs(s) => self.add(SubQuery::TextIs(s.clone())),
            NQuery::Path(steps) => self.compile_steps(steps),
            NQuery::Not(inner) => {
                let x = self.compile_nquery(inner);
                self.add(SubQuery::Not(x))
            }
            NQuery::And(a, b) => {
                let x = self.compile_nquery(a);
                let y = self.compile_nquery(b);
                self.add(SubQuery::And(x, y))
            }
            NQuery::Or(a, b) => {
                let x = self.compile_nquery(a);
                let y = self.compile_nquery(b);
                self.add(SubQuery::Or(x, y))
            }
        }
    }

    /// Compiles `β1/…/βn` right-to-left: the value of the path at a node is
    /// the value of β1 applied to the compiled rest.
    fn compile_steps(&mut self, steps: &[NStep]) -> SubId {
        match steps.split_first() {
            None => self.add(SubQuery::True),
            Some((NStep::Wildcard, rest)) => {
                let r = self.compile_steps(rest);
                self.add(SubQuery::Child(r))
            }
            Some((NStep::DescOrSelf, rest)) => {
                let r = self.compile_steps(rest);
                self.add(SubQuery::Desc(r))
            }
            Some((NStep::Qual(q), rest)) => {
                let x = self.compile_nquery(q);
                if rest.is_empty() {
                    // ε[q]/ε ≡ q.
                    x
                } else {
                    let r = self.compile_steps(rest);
                    self.add(SubQuery::And(x, r))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn comp(src: &str) -> CompiledQuery {
        compile(&parse_query(src).unwrap())
    }

    #[test]
    fn topological_order_invariant() {
        for src in [
            "[//a]",
            "[//stock[code/text() = \"yhoo\"]]",
            "[//a and //b or not(//c//d[label() = e])]",
        ] {
            let c = comp(src);
            for (i, s) in c.subs().iter().enumerate() {
                for op in s.operands() {
                    assert!((op as usize) < i, "operand q{op} not before q{i} in {src}");
                }
            }
            assert!((c.root() as usize) < c.len());
        }
    }

    #[test]
    fn example_2_1_compiles_to_expected_ops() {
        // //stock[code/text() = "yhoo"]
        let c = comp("[//stock[code/text() = \"yhoo\"]]");
        // Distinct sub-queries after ε-elision and c4/c7 fusion (the
        // paper's QList in Example 2.1 lists ten entries; ours drops the
        // redundant ε wrappers):
        //   q1 = label()=stock        (from the merged qualifier's ∧-left)
        //   q2 = label()=code
        //   q3 = text()="yhoo"
        //   q4 = q2 ∧ q3
        //   q5 = */q4
        //   q6 = q1 ∧ q5
        //   q7 = */q6
        //   q8 = //q7
        assert_eq!(c.len(), 8);
        assert!(matches!(c.subs()[0], SubQuery::LabelIs(ref a) if a == "stock"));
        assert!(matches!(c.subs()[1], SubQuery::LabelIs(ref a) if a == "code"));
        assert!(matches!(c.subs()[2], SubQuery::TextIs(ref t) if t == "yhoo"));
        assert!(matches!(c.subs()[3], SubQuery::And(1, 2)));
        assert!(matches!(c.subs()[4], SubQuery::Child(3)));
        assert!(matches!(c.subs()[5], SubQuery::And(0, 4)));
        assert!(matches!(c.subs()[6], SubQuery::Child(5)));
        assert!(matches!(c.subs()[7], SubQuery::Desc(6)));
        assert_eq!(c.root(), 7);
    }

    #[test]
    fn intro_query_structure() {
        // [//A ∧ //B] from the paper's introduction.
        let c = comp("[//A ∧ //B]");
        assert_eq!(c.len(), 7); // label A, child, desc, label B, child, desc, and
        assert!(matches!(c.subs()[c.root() as usize], SubQuery::And(_, _)));
    }

    #[test]
    fn hash_consing_dedups_repeated_subqueries() {
        let once = comp("[//a]");
        let twice = comp("[//a or //a]");
        // Only the Or op is new.
        assert_eq!(twice.len(), once.len() + 1);
    }

    #[test]
    fn qlist_size_linear_in_query() {
        let small = comp("[//a]");
        let big = comp("[//a/b/c/d/e/f/g]");
        assert!(big.len() > small.len());
        assert!(big.len() <= 3 * 7 + 2); // O(|q|)
    }

    #[test]
    fn resolve_maps_missing_labels_to_none() {
        let mut labels = parbox_xml::LabelTable::new();
        labels.intern("a");
        let c = comp("[//a and //zzz]");
        let r = c.resolve(&labels);
        let mut saw_some = false;
        let mut saw_none = false;
        for op in &r.ops {
            match op {
                Op::LabelIs(Some(_)) => saw_some = true,
                Op::LabelIs(None) => saw_none = true,
                _ => {}
            }
        }
        assert!(saw_some && saw_none);
        assert_eq!(r.len(), c.len());
    }

    #[test]
    fn display_lists_subqueries_like_example_2_1() {
        let c = comp("[//stock[code/text() = \"yhoo\"]]");
        let s = c.to_string();
        assert!(s.contains("q1 = (label() = stock)"), "{s}");
        assert!(s.contains("q4 = q2 ∧ q3"), "{s}");
        assert!(s.contains("root = q8"), "{s}");
    }

    #[test]
    fn trivial_query_compiles() {
        let c = comp("[.]");
        assert_eq!(c.len(), 1);
        assert!(matches!(c.subs()[0], SubQuery::True));
    }

    fn batch(srcs: &[&str]) -> QueryBatch {
        let queries: Vec<_> = srcs.iter().map(|s| parse_query(s).unwrap()).collect();
        compile_batch(&queries)
    }

    #[test]
    fn batch_merged_program_is_topologically_ordered() {
        let b = batch(&["[//a and //b]", "[//b or //c]", "[not(//a)]"]);
        assert_eq!(b.len(), 3);
        for (i, s) in b.merged().subs().iter().enumerate() {
            for op in s.operands() {
                assert!((op as usize) < i);
            }
        }
        for &r in b.roots() {
            assert!((r as usize) < b.merged_len());
        }
    }

    #[test]
    fn batch_members_evaluate_like_their_solo_programs() {
        // Each member's root in the merged program denotes the same
        // sub-query as its solo compilation's root op.
        let srcs = ["[//a and //b]", "[//a]", "[//x[y/text() = \"v\"]]"];
        let b = batch(&srcs);
        for (i, src) in srcs.iter().enumerate() {
            let solo = comp(src);
            let merged_root = &b.merged().subs()[b.root_of(i) as usize];
            let solo_root = &solo.subs()[solo.root() as usize];
            assert_eq!(
                std::mem::discriminant(merged_root),
                std::mem::discriminant(solo_root),
                "root op of {src}"
            );
        }
    }

    #[test]
    fn batch_dedups_across_members() {
        let solo = comp("[//a and //b]");
        // Two identical members: merged program no bigger than one copy.
        let b = batch(&["[//a and //b]", "[//a and //b]"]);
        assert_eq!(b.merged_len(), solo.len());
        assert_eq!(b.root_of(0), b.root_of(1));
        // Overlapping members share the `//a` chain.
        let b = batch(&["[//a and //b]", "[//a and //c]"]);
        let sum = solo.len() + comp("[//a and //c]").len();
        assert!(b.merged_len() < sum, "{} vs {sum}", b.merged_len());
    }

    #[test]
    fn batch_of_one_matches_compile() {
        let q = parse_query("[//a/b]").unwrap();
        let b = compile_batch(std::slice::from_ref(&q));
        assert_eq!(b.merged(), &compile(&q));
        assert_eq!(b.roots(), &[b.merged().root()]);
        assert!(!b.is_empty());
    }

    #[test]
    #[should_panic(expected = "empty query batch")]
    fn empty_batch_panics() {
        compile_batch(&[]);
    }

    #[test]
    fn fingerprint_is_structural_and_stable() {
        // Equal programs fingerprint identically; distinct ones differ.
        assert_eq!(
            comp("[//a and //b]").fingerprint(),
            comp("[//a ∧ //b]").fingerprint()
        );
        assert_ne!(
            comp("[//a and //b]").fingerprint(),
            comp("[//a and //c]").fingerprint()
        );
        assert_ne!(comp("[//a]").fingerprint(), comp("[not //a]").fingerprint());
        // Stable across processes: pin one value so a hash-function change
        // (which would silently invalidate persisted cache keys) is loud.
        let fps = sub_fingerprints(comp("[.]").subs());
        assert_eq!(fps, vec![0xaf63_bd4c_8601_b7df]);
    }

    #[test]
    fn merge_programs_equals_compile_batch() {
        let srcs = [
            "[//a and //b]",
            "[//b or //c]",
            "[//a and //b]",
            "[//x[y/text() = \"v\"]]",
            "[not(//a)]",
        ];
        let queries: Vec<_> = srcs.iter().map(|s| parse_query(s).unwrap()).collect();
        let compiled: Vec<_> = queries.iter().map(compile).collect();
        // Identical merged program, roots and member fingerprints — the
        // two entry points are interchangeable.
        assert_eq!(merge_programs(&compiled), compile_batch(&queries));
        // Single program: the merge is the program itself.
        let solo = merge_programs(&compiled[..1]);
        assert_eq!(solo.merged(), &compiled[0]);
        // The embeddings read off the merge are the ones looked up in
        // its result.
        let (batch, embeddings) = merge_embedded(&compiled);
        assert_eq!(batch, merge_programs(&compiled));
        for (member, embedding) in compiled.iter().zip(&embeddings) {
            assert_eq!(
                member.embedding_into(batch.merged()).as_ref(),
                Some(embedding)
            );
        }
    }

    #[test]
    #[should_panic(expected = "empty query batch")]
    fn merge_programs_rejects_empty() {
        merge_programs(&[]);
    }

    #[test]
    fn program_fingerprint_distinguishes_batches_with_shared_tail() {
        // Two merged programs ending in the same member share their root
        // fingerprint but MUST NOT share their program fingerprint — a
        // whole-program cache keyed by the root fingerprint would serve
        // triplets of the wrong program.
        let ab = batch(&["[//a]", "[//b]"]).merged().clone();
        let cb = batch(&["[//c]", "[//b]"]).merged().clone();
        assert_eq!(ab.fingerprint(), cb.fingerprint(), "same root meaning");
        assert_ne!(
            ab.program_fingerprint(),
            cb.program_fingerprint(),
            "different programs"
        );
        // Identical programs agree on both.
        let ab2 = batch(&["[//a]", "[//b]"]).merged().clone();
        assert_eq!(ab.program_fingerprint(), ab2.program_fingerprint());
        // A program differing only in root sub-query also differs.
        let ba = batch(&["[//b]", "[//a]"]).merged().clone();
        assert_ne!(ab.program_fingerprint(), ba.program_fingerprint());
    }

    #[test]
    fn batch_member_fingerprints_match_solo_compiles() {
        let srcs = [
            "[//a and //b]",
            "[//b or //c]",
            "[//a and //b]",
            "[not(//a)]",
        ];
        let b = batch(&srcs);
        for (i, src) in srcs.iter().enumerate() {
            assert_eq!(
                b.member_fingerprint(i),
                comp(src).fingerprint(),
                "member {i} ({src})"
            );
        }
        // Identical members share a fingerprint.
        assert_eq!(b.member_fingerprint(0), b.member_fingerprint(2));
    }

    #[test]
    fn members_embed_into_merged_program() {
        let srcs = [
            "[//a and //b]",
            "[//x[y/text() = \"v\"]]",
            "[//b or not //a]",
        ];
        let b = batch(&srcs);
        for (i, src) in srcs.iter().enumerate() {
            let solo = comp(src);
            let map = solo
                .embedding_into(b.merged())
                .unwrap_or_else(|| panic!("member {src} must embed"));
            assert_eq!(map.len(), solo.len());
            // The member's root maps onto the batch's recorded root.
            assert_eq!(map[solo.root() as usize], b.root_of(i));
            // Mapped ops are structurally identical after translation.
            for (j, s) in solo.subs().iter().enumerate() {
                let host = &b.merged().subs()[map[j] as usize];
                assert_eq!(
                    std::mem::discriminant(s),
                    std::mem::discriminant(host),
                    "op {j} of {src}"
                );
            }
        }
    }

    #[test]
    fn embedding_fails_for_foreign_programs() {
        let a = comp("[//a and //b]");
        let other = comp("[//c]");
        assert_eq!(other.embedding_into(&a), None);
        // Self-embedding is the identity.
        let id = a.embedding_into(&a).unwrap();
        assert_eq!(id, (0..a.len() as SubId).collect::<Vec<_>>());
    }
}
