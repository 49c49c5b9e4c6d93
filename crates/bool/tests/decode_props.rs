//! The wire decoders take bytes from other sites, so malformed input
//! must come back as a [`DecodeError`], never as a panic, a ragged
//! triplet or an allocation sized by a count read off the wire. Every
//! `decode_*` is fed random bytes, truncations of valid encodings and
//! single-byte flips of valid encodings.

use bytes::{Bytes, BytesMut};
use parbox_bool::{
    decode_formula_dag, decode_site_envelope_dag, decode_triplet_dag, decode_triplet_delta_dag,
    encode_formula_dag, encode_site_envelope_dag, encode_triplet_dag, encode_triplet_delta_dag,
    DecodeError, Formula, Triplet, TripletDelta, Var, VecKind,
};
use parbox_xml::FragmentId;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, recording the largest single request made by
/// the current thread so a test can bound what one call allocated.
struct Largest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: allocations made while the thread's locals are being
    // torn down are not recorded.
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping only writes
// a thread-local `Cell<usize>`, which neither allocates nor unwinds.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees for `layout` are the ones
        // `System.alloc` needs.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`, as the
        // caller guarantees for this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`, plus the caller's guarantees for
        // `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Largest = Largest;

fn bytes_of(slice: &[u8]) -> Bytes {
    Bytes::from(slice.to_vec())
}

/// The four decoders, each reduced to "the triplets it returned".
type Decoder = fn(&mut Bytes) -> Result<Vec<Triplet>, DecodeError>;

const DECODERS: [(&str, Decoder); 4] = [
    ("formula", |b| decode_formula_dag(b).map(|_| Vec::new())),
    ("triplet", |b| decode_triplet_dag(b).map(|t| vec![t])),
    ("delta", |b| decode_triplet_delta_dag(b).map(|_| Vec::new())),
    ("envelope", |b| {
        decode_site_envelope_dag(b).map(|es| es.into_iter().map(|(_, t)| t).collect())
    }),
];

/// Runs every decoder over `bytes`: each must return (no panic), and
/// every triplet it returns must have rows of equal width.
fn decode_all(bytes: &[u8]) -> Result<(), TestCaseError> {
    for (name, decode) in DECODERS {
        if let Ok(triplets) = decode(&mut bytes_of(bytes)) {
            for t in triplets {
                prop_assert!(
                    t.v.len() == t.cv.len() && t.v.len() == t.dv.len(),
                    "{name} decoded a ragged triplet from {bytes:?}"
                );
            }
        }
    }
    Ok(())
}

/// A formula over a small variable pool, built from a seed so shared
/// subformulas (and hence a non-trivial node table) are common.
fn formula(seed: u64) -> Formula {
    let mut s = seed | 1;
    let mut pool: Vec<Formula> = (0..4)
        .map(|i| Formula::var(Var::new(FragmentId(i % 3), VecKind::DV, i)))
        .collect();
    for _ in 0..6 {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let a = pool[(s % pool.len() as u64) as usize];
        let b = pool[((s >> 8) % pool.len() as u64) as usize];
        pool.push(match s >> 16 & 3 {
            0 => Formula::and(a, b),
            1 => Formula::or(a, b),
            2 => a.not(),
            _ => Formula::or(a, Formula::TRUE),
        });
    }
    *pool.last().expect("non-empty pool")
}

/// One valid encoding of each decoder's format, built from `seed`.
fn valid_encodings(seed: u64, width: usize) -> Vec<Vec<u8>> {
    let mut t = Triplet::fresh_vars(FragmentId(2), width);
    for (i, f) in t.v.iter_mut().chain(&mut t.dv).enumerate() {
        if i % 2 == 0 {
            *f = formula(seed.wrapping_add(i as u64));
        }
    }
    let old = Triplet::all_false(width);
    let delta = TripletDelta::diff(&old, &t);
    let other = Triplet::all_false(width);

    let mut out = Vec::new();
    let mut buf = BytesMut::new();
    encode_formula_dag(&formula(seed), &mut buf);
    out.push(buf.as_ref().to_vec());
    let mut buf = BytesMut::new();
    encode_triplet_dag(&t, &mut buf);
    out.push(buf.as_ref().to_vec());
    let mut buf = BytesMut::new();
    encode_triplet_delta_dag(&delta, &mut buf);
    out.push(buf.as_ref().to_vec());
    let mut buf = BytesMut::new();
    encode_site_envelope_dag(&[(FragmentId(1), &t), (FragmentId(5), &other)], &mut buf);
    out.push(buf.as_ref().to_vec());
    out
}

/// Bytes skewed towards small values, so random input often gets past
/// the first count and tag into the table and rows.
fn byte() -> impl Strategy<Value = u8> {
    prop_oneof![0u8..8, any::<u8>()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decoders_never_panic_on_random_bytes(bytes in proptest::collection::vec(byte(), 0..48)) {
        decode_all(&bytes)?;
    }

    #[test]
    fn truncated_encodings_are_truncated_errors(seed: u64, width in 1usize..5, cut: usize) {
        for (i, enc) in valid_encodings(seed, width).into_iter().enumerate() {
            let (name, decode) = DECODERS[i];
            // The whole encoding decodes and a strict prefix never does.
            prop_assert!(decode(&mut bytes_of(&enc)).is_ok(), "{name}");
            let prefix = &enc[..cut % enc.len()];
            prop_assert_eq!(
                decode(&mut bytes_of(prefix)).err(),
                Some(DecodeError::Truncated),
                "{} prefix {:?}",
                name,
                prefix
            );
            decode_all(prefix)?;
        }
    }

    #[test]
    fn flipped_bytes_decode_or_error(seed: u64, width in 1usize..5, at: usize, mask in 0u8..255) {
        for mut enc in valid_encodings(seed, width) {
            let i = at % enc.len();
            enc[i] ^= mask + 1;
            decode_all(&enc)?;
        }
    }
}

/// A varint holding 2^60: nine bytes.
fn varint_2_pow_60() -> Vec<u8> {
    let mut out = vec![0x80; 8];
    out.push(0x10);
    out
}

#[test]
fn huge_declared_counts_error_without_huge_allocations() {
    const TAG_TRUE: u8 = 1;
    const TAG_AND: u8 = 4;
    let huge = varint_2_pow_60();
    let with = |pre: &[u8], post: &[u8]| [pre, &huge, post].concat();
    // Ten bytes each; the arity case needs two more for its table.
    let cases: [(&str, Vec<u8>); 5] = [
        // 2^60 table nodes, then one `true`.
        ("formula", with(&[], &[TAG_TRUE])),
        // An empty table, then a `V` row of 2^60 entries.
        ("triplet", with(&[0], &[])),
        // Width 1, then 2^60 records.
        ("delta", with(&[1], &[])),
        // 2^60 entries, an empty table.
        ("envelope", with(&[], &[0])),
        // A `true` node, then an and-node of arity 2^60.
        ("formula", with(&[2, TAG_TRUE, TAG_AND], &[])),
    ];
    // Any per-element preallocation is capped at 1024 elements; the
    // widest element is an envelope entry.
    let cap = 1024 * std::mem::size_of::<(FragmentId, Triplet)>();
    // Touch the arena so its one-time set-up is not counted below.
    let _ = Formula::var(Var::new(FragmentId(0), VecKind::V, 0));
    for (name, bytes) in cases {
        let decode = DECODERS
            .iter()
            .find(|(n, _)| *n == name)
            .expect("known decoder")
            .1;
        let mut input = bytes_of(&bytes);
        LARGEST.with(|m| m.set(0));
        let out = decode(&mut input);
        let largest = LARGEST.with(Cell::get);
        assert_eq!(out.err(), Some(DecodeError::Truncated), "{name}");
        assert!(
            largest <= cap,
            "{name}: a {largest}-byte allocation for a {}-byte input",
            bytes.len()
        );
    }
}
