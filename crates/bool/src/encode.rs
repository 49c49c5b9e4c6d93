//! Binary wire encoding for formulas and triplets.
//!
//! The network layer ships triplets between sites; encoding them gives
//! honest byte counts for the paper's communication-cost measurements
//! (`O(|q| · card(F))` per query). The format is a varint-compressed
//! *node table* (children before parents, operands as table indices)
//! followed by per-entry root indices ([`encode_formula_dag`] /
//! [`encode_triplet_dag`] / [`encode_site_envelope_dag`]). Shared
//! subformulas are encoded **once**, and an envelope shares one table
//! across every triplet it carries.
//!
//! Encoders walk arena snapshots and decoders fill the table front to
//! back, so a deep `Not`/`And` chain cannot overflow the call stack in
//! either direction. Decoders accept arbitrary bytes: malformed input is
//! a [`DecodeError`], never a panic, and no count read from the wire
//! pre-allocates more than a fixed bound.

use crate::arena::DagNode;
use crate::formula::Formula;
use crate::triplet::{Triplet, TripletDelta};
use crate::var::{Var, VecKind};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use parbox_xml::FragmentId;
use std::fmt;

const TAG_FALSE: u8 = 0;
const TAG_TRUE: u8 = 1;
const TAG_VAR: u8 = 2;
const TAG_NOT: u8 = 3;
const TAG_AND: u8 = 4;
const TAG_OR: u8 = 5;

/// Decoding error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended mid-value.
    Truncated,
    /// Unknown tag byte.
    BadTag(u8),
    /// An n-ary node with fewer than two operands.
    BadArity(u32),
    /// A DAG reference pointing at itself, forward, or out of the table —
    /// or a varint wider than the format allows.
    BadIndex(u64),
    /// A triplet whose `V`, `CV` and `DV` rows differ in width.
    RaggedTriplet {
        /// Width of the `V` row.
        v: usize,
        /// Width of the `CV` row.
        cv: usize,
        /// Width of the `DV` row.
        dv: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated formula encoding"),
            DecodeError::BadTag(t) => write!(f, "unknown formula tag {t}"),
            DecodeError::BadArity(n) => write!(f, "n-ary formula with arity {n}"),
            DecodeError::BadIndex(i) => write!(f, "invalid DAG node reference {i}"),
            DecodeError::RaggedTriplet { v, cv, dv } => {
                write!(f, "triplet rows of unequal width ({v}, {cv}, {dv})")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Never pre-allocate more than this many elements from an
/// attacker-controlled count; the vectors still grow to the real size.
const MAX_PREALLOC: usize = 1024;

/// The capacity to reserve for `count` elements read off the wire.
fn prealloc(count: u64) -> usize {
    usize::try_from(count).map_or(MAX_PREALLOC, |n| n.min(MAX_PREALLOC))
}

fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

fn get_varint(buf: &mut Bytes) -> Result<u64, DecodeError> {
    let mut out: u64 = 0;
    for shift in (0..64).step_by(7) {
        if buf.remaining() < 1 {
            return Err(DecodeError::Truncated);
        }
        let byte = buf.get_u8();
        // The 10th byte holds only bit 63: anything above is overflow,
        // not silently droppable (a malformed stream must not decode to
        // a small, plausible value).
        if shift == 63 && byte & !0x01 != 0 {
            return Err(DecodeError::BadIndex(out));
        }
        out |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(out);
        }
    }
    Err(DecodeError::BadIndex(out))
}

/// Reads a varint that must fit a `u32` (fragment ids, sub-query
/// indices, widths).
fn get_varint_u32(buf: &mut Bytes) -> Result<u32, DecodeError> {
    let v = get_varint(buf)?;
    u32::try_from(v).map_err(|_| DecodeError::BadIndex(v))
}

fn put_vec_kind(buf: &mut BytesMut, kind: VecKind) {
    buf.put_u8(match kind {
        VecKind::V => 0,
        VecKind::CV => 1,
        VecKind::DV => 2,
    });
}

fn get_vec_kind(buf: &mut Bytes) -> Result<VecKind, DecodeError> {
    if buf.remaining() < 1 {
        return Err(DecodeError::Truncated);
    }
    match buf.get_u8() {
        0 => Ok(VecKind::V),
        1 => Ok(VecKind::CV),
        2 => Ok(VecKind::DV),
        t => Err(DecodeError::BadTag(t)),
    }
}

/// The table entry a root index names.
fn table_ref(table: &[Formula], ix: u64) -> Result<Formula, DecodeError> {
    usize::try_from(ix)
        .ok()
        .and_then(|i| table.get(i))
        .copied()
        .ok_or(DecodeError::BadIndex(ix))
}

/// Writes the DAG node table: varint node count, then one record per
/// node with operand references as varint indices of strictly earlier
/// table entries.
fn encode_dag_nodes(dag: &crate::arena::Dag, buf: &mut BytesMut) {
    put_varint(buf, dag.nodes.len() as u64);
    for node in &dag.nodes {
        match node {
            DagNode::Const(false) => buf.put_u8(TAG_FALSE),
            DagNode::Const(true) => buf.put_u8(TAG_TRUE),
            DagNode::Var(v) => {
                buf.put_u8(TAG_VAR);
                put_varint(buf, u64::from(v.frag.0));
                put_vec_kind(buf, v.vec);
                put_varint(buf, u64::from(v.sub));
            }
            DagNode::Not(x) => {
                buf.put_u8(TAG_NOT);
                put_varint(buf, u64::from(*x));
            }
            DagNode::And(r) | DagNode::Or(r) => {
                buf.put_u8(if matches!(node, DagNode::And(_)) {
                    TAG_AND
                } else {
                    TAG_OR
                });
                let ops = dag.ops(r);
                put_varint(buf, ops.len() as u64);
                for &x in ops {
                    put_varint(buf, u64::from(x));
                }
            }
        }
    }
}

/// Reads a DAG node table back into interned formulas, one per table
/// entry. References must point strictly backwards (acyclic by
/// construction); anything else is a [`DecodeError::BadIndex`].
fn decode_dag_nodes(buf: &mut Bytes) -> Result<Vec<Formula>, DecodeError> {
    let n = get_varint(buf)?;
    let mut table: Vec<Formula> = Vec::with_capacity(prealloc(n));
    for i in 0..n {
        let back_ref = |ix: u64| -> Result<usize, DecodeError> {
            if ix < i {
                Ok(ix as usize)
            } else {
                Err(DecodeError::BadIndex(ix))
            }
        };
        if buf.remaining() < 1 {
            return Err(DecodeError::Truncated);
        }
        let f = match buf.get_u8() {
            TAG_FALSE => Formula::FALSE,
            TAG_TRUE => Formula::TRUE,
            TAG_VAR => {
                let frag = FragmentId(get_varint_u32(buf)?);
                let vec = get_vec_kind(buf)?;
                let sub = get_varint_u32(buf)?;
                Formula::var(Var::new(frag, vec, sub))
            }
            TAG_NOT => table[back_ref(get_varint(buf)?)?].not(),
            tag @ (TAG_AND | TAG_OR) => {
                let arity = get_varint(buf)?;
                if arity < 2 {
                    return Err(DecodeError::BadArity(arity as u32));
                }
                let mut ops = Vec::with_capacity(prealloc(arity));
                for _ in 0..arity {
                    ops.push(table[back_ref(get_varint(buf)?)?]);
                }
                if tag == TAG_AND {
                    Formula::all(ops)
                } else {
                    Formula::any(ops)
                }
            }
            t => return Err(DecodeError::BadTag(t)),
        };
        table.push(f);
    }
    Ok(table)
}

/// Writes a triplet's `V`, `CV` and `DV` rows, each a varint length
/// followed by one table index per entry; `roots` yields the indices in
/// entry order.
fn encode_triplet_rows(t: &Triplet, roots: &mut std::slice::Iter<'_, u32>, buf: &mut BytesMut) {
    for row in [&t.v, &t.cv, &t.dv] {
        put_varint(buf, row.len() as u64);
        for &ix in roots.by_ref().take(row.len()) {
            put_varint(buf, u64::from(ix));
        }
    }
}

fn decode_root_row(buf: &mut Bytes, table: &[Formula]) -> Result<Vec<Formula>, DecodeError> {
    let len = get_varint(buf)?;
    let mut out = Vec::with_capacity(prealloc(len));
    for _ in 0..len {
        out.push(table_ref(table, get_varint(buf)?)?);
    }
    Ok(out)
}

/// Reads the three rows [`encode_triplet_rows`] wrote, rejecting a
/// triplet whose rows differ in width.
fn decode_triplet_rows(buf: &mut Bytes, table: &[Formula]) -> Result<Triplet, DecodeError> {
    let v = decode_root_row(buf, table)?;
    let cv = decode_root_row(buf, table)?;
    let dv = decode_root_row(buf, table)?;
    if v.len() != cv.len() || v.len() != dv.len() {
        return Err(DecodeError::RaggedTriplet {
            v: v.len(),
            cv: cv.len(),
            dv: dv.len(),
        });
    }
    Ok(Triplet { v, cv, dv })
}

/// Encodes one formula in the DAG format (node table + root index).
pub fn encode_formula_dag(f: &Formula, buf: &mut BytesMut) {
    let dag = Formula::snapshot_many(std::slice::from_ref(f));
    encode_dag_nodes(&dag, buf);
    put_varint(buf, u64::from(dag.roots[0]));
}

/// Decodes one DAG-format formula.
pub fn decode_formula_dag(buf: &mut Bytes) -> Result<Formula, DecodeError> {
    let table = decode_dag_nodes(buf)?;
    table_ref(&table, get_varint(buf)?)
}

/// Encodes a triplet in the DAG format: one node table shared by all
/// `3·|QList|` entries, then the three root-index vectors. Subformulas
/// shared across entries — the common case, since `DV` accumulates `V` —
/// are encoded once.
pub fn encode_triplet_dag(t: &Triplet, buf: &mut BytesMut) {
    let roots: Vec<Formula> = t.v.iter().chain(&t.cv).chain(&t.dv).copied().collect();
    let dag = Formula::snapshot_many(&roots);
    encode_dag_nodes(&dag, buf);
    encode_triplet_rows(t, &mut dag.roots.iter(), buf);
}

/// Decodes a DAG-format triplet.
pub fn decode_triplet_dag(buf: &mut Bytes) -> Result<Triplet, DecodeError> {
    let table = decode_dag_nodes(buf)?;
    decode_triplet_rows(buf, &table)
}

/// Exact wire size in bytes of a DAG-format triplet — the unit in which
/// the production algorithms account data-plane traffic.
pub fn triplet_dag_wire_size(t: &Triplet) -> usize {
    let mut buf = BytesMut::new();
    encode_triplet_dag(t, &mut buf);
    buf.len()
}

/// Encodes a [`TripletDelta`] in the DAG format: varint width and record
/// count, one node table shared by every changed formula, then per
/// record the vector tag, entry index, and root table index. An update
/// that perturbs `k` of the `3·|QList|` entries costs `O(k)` on the
/// wire instead of a full triplet re-ship.
pub fn encode_triplet_delta_dag(d: &TripletDelta, buf: &mut BytesMut) {
    let roots: Vec<Formula> = d.changed.iter().map(|&(_, _, f)| f).collect();
    let dag = Formula::snapshot_many(&roots);
    put_varint(buf, u64::from(d.width));
    put_varint(buf, d.changed.len() as u64);
    encode_dag_nodes(&dag, buf);
    for (rec, &(kind, ix, _)) in d.changed.iter().enumerate() {
        put_vec_kind(buf, kind);
        put_varint(buf, u64::from(ix));
        put_varint(buf, u64::from(dag.roots[rec]));
    }
}

/// Decodes a DAG-format triplet delta. Entry indices are validated
/// against the declared width so [`TripletDelta::apply`] cannot panic on
/// decoded input.
pub fn decode_triplet_delta_dag(buf: &mut Bytes) -> Result<TripletDelta, DecodeError> {
    let width = get_varint_u32(buf)?;
    let n = get_varint(buf)?;
    let table = decode_dag_nodes(buf)?;
    let mut changed = Vec::with_capacity(prealloc(n));
    for _ in 0..n {
        let kind = get_vec_kind(buf)?;
        let ix = get_varint(buf)?;
        if ix >= u64::from(width) {
            return Err(DecodeError::BadIndex(ix));
        }
        let f = table_ref(&table, get_varint(buf)?)?;
        changed.push((kind, ix as u32, f));
    }
    Ok(TripletDelta { width, changed })
}

/// Exact wire size in bytes of a DAG-format triplet delta — what the
/// serving engine accounts for a repaired cache entry instead of
/// [`triplet_dag_wire_size`].
pub fn triplet_delta_dag_wire_size(d: &TripletDelta) -> usize {
    let mut buf = BytesMut::new();
    encode_triplet_delta_dag(d, &mut buf);
    buf.len()
}

/// Encodes a site envelope in the DAG format: **one node table for the
/// whole envelope**, shared across every fragment's triplet, then per
/// entry the fragment id and its three root-index vectors.
pub fn encode_site_envelope_dag(entries: &[(FragmentId, &Triplet)], buf: &mut BytesMut) {
    let roots: Vec<Formula> = entries
        .iter()
        .flat_map(|(_, t)| t.v.iter().chain(&t.cv).chain(&t.dv).copied())
        .collect();
    let dag = Formula::snapshot_many(&roots);
    put_varint(buf, entries.len() as u64);
    encode_dag_nodes(&dag, buf);
    // `dag.roots` holds one index per entry formula, in request order.
    let mut roots = dag.roots.iter();
    for (frag, t) in entries {
        put_varint(buf, u64::from(frag.0));
        encode_triplet_rows(t, &mut roots, buf);
    }
    debug_assert!(roots.next().is_none());
}

/// Decodes a DAG-format site envelope.
pub fn decode_site_envelope_dag(
    buf: &mut Bytes,
) -> Result<Vec<(FragmentId, Triplet)>, DecodeError> {
    let n = get_varint(buf)?;
    let table = decode_dag_nodes(buf)?;
    let mut entries = Vec::with_capacity(prealloc(n));
    for _ in 0..n {
        let frag = FragmentId(get_varint_u32(buf)?);
        entries.push((frag, decode_triplet_rows(buf, &table)?));
    }
    Ok(entries)
}

/// Exact wire size in bytes of a DAG-format site envelope.
pub fn site_envelope_dag_wire_size(entries: &[(FragmentId, &Triplet)]) -> usize {
    let mut buf = BytesMut::new();
    encode_site_envelope_dag(entries, &mut buf);
    buf.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(f: &Formula) -> Formula {
        let mut buf = BytesMut::new();
        encode_formula_dag(f, &mut buf);
        let mut bytes = buf.freeze();
        let out = decode_formula_dag(&mut bytes).unwrap();
        assert_eq!(bytes.remaining(), 0, "trailing bytes");
        out
    }

    fn var(frag: u32, vec: VecKind, sub: u32) -> Formula {
        Formula::var(Var::new(FragmentId(frag), vec, sub))
    }

    #[test]
    fn round_trip_constants_and_vars() {
        for f in [Formula::TRUE, Formula::FALSE, var(7, VecKind::CV, 3)] {
            assert_eq!(rt(&f), f);
        }
    }

    #[test]
    fn round_trip_nested() {
        let a = var(1, VecKind::V, 0);
        let b = var(2, VecKind::DV, 9);
        let f = Formula::and(Formula::or(a, b), b.not()).not();
        assert_eq!(rt(&f), f);
    }

    #[test]
    fn round_trip_triplet_both_formats() {
        // A triplet ships whole, or as a delta against the triplet the
        // receiver already holds.
        let old = Triplet::fresh_vars(FragmentId(3), 5);
        let mut t = old.clone();
        t.v[0] = Formula::TRUE;
        t.cv[4] = Formula::or(var(1, VecKind::V, 2), var(2, VecKind::V, 2));
        let mut buf = BytesMut::new();
        encode_triplet_dag(&t, &mut buf);
        let mut bytes = buf.freeze();
        assert_eq!(decode_triplet_dag(&mut bytes).unwrap(), t);
        assert_eq!(bytes.remaining(), 0);

        let mut buf = BytesMut::new();
        encode_triplet_delta_dag(&TripletDelta::diff(&old, &t), &mut buf);
        let mut bytes = buf.freeze();
        assert_eq!(decode_triplet_delta_dag(&mut bytes).unwrap().apply(&old), t);
        assert_eq!(bytes.remaining(), 0);
    }

    #[test]
    fn wire_size_matches_encoding() {
        let t = Triplet::fresh_vars(FragmentId(3), 4);
        let mut buf = BytesMut::new();
        encode_triplet_dag(&t, &mut buf);
        assert_eq!(triplet_dag_wire_size(&t), buf.len());
    }

    #[test]
    fn wire_size_scales_with_qlist_not_data() {
        // Constant-entry triplets: a one-node table (count + tag), then
        // three rows of a length byte plus one index byte per entry.
        let small = Triplet::all_false(2);
        let big = Triplet::all_false(23);
        let s = triplet_dag_wire_size(&small);
        let b = triplet_dag_wire_size(&big);
        assert!(b > s);
        assert_eq!(s, 2 + 3 * (1 + 2));
        assert_eq!(b, 2 + 3 * (1 + 23));
    }

    #[test]
    fn round_trip_site_envelope() {
        let a = Triplet::fresh_vars(FragmentId(1), 3);
        let b = Triplet::all_false(3);
        let entries = vec![(FragmentId(1), &a), (FragmentId(4), &b)];
        let mut buf = BytesMut::new();
        encode_site_envelope_dag(&entries, &mut buf);
        assert_eq!(buf.len(), site_envelope_dag_wire_size(&entries));
        let mut bytes = buf.freeze();
        let back = decode_site_envelope_dag(&mut bytes).unwrap();
        assert_eq!(bytes.remaining(), 0);
        assert_eq!(back, vec![(FragmentId(1), a), (FragmentId(4), b)]);
    }

    #[test]
    fn dag_envelope_shares_one_table_across_fragments() {
        // Two fragments with identical triplets: the envelope stores the
        // formulas once, so the second fragment costs only its root rows.
        let t = Triplet::fresh_vars(FragmentId(9), 6);
        let entries = vec![(FragmentId(1), &t), (FragmentId(2), &t)];
        let dag = site_envelope_dag_wire_size(&entries);
        let single = site_envelope_dag_wire_size(&entries[..1]);
        assert!(
            dag < single + single / 2,
            "sharing failed: 2 frags {dag} vs 1 frag {single}"
        );
    }

    #[test]
    fn empty_envelope_is_just_a_count() {
        // Varint count + varint empty table = 2 bytes.
        assert_eq!(site_envelope_dag_wire_size(&[]), 2);
        let mut buf = BytesMut::new();
        encode_site_envelope_dag(&[], &mut buf);
        assert_eq!(buf.len(), 2);
        let back = decode_site_envelope_dag(&mut buf.freeze()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn envelope_beats_per_query_messages_on_shared_width() {
        // A batch of 8 two-sub-query members with full overlap: the
        // envelope carries one width-2 triplet instead of 8.
        let t = Triplet::all_false(2);
        let batched = site_envelope_dag_wire_size(&[(FragmentId(0), &t)]);
        let sequential = 8 * triplet_dag_wire_size(&t);
        assert!(batched < sequential, "{batched} vs {sequential}");
    }

    #[test]
    fn truncated_envelope_errors() {
        let mut empty = Bytes::new();
        assert_eq!(
            decode_site_envelope_dag(&mut empty),
            Err(DecodeError::Truncated)
        );
        // Count says one record, the table is empty, the record is missing.
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 1);
        put_varint(&mut buf, 0);
        let mut bytes = buf.freeze();
        assert_eq!(
            decode_site_envelope_dag(&mut bytes),
            Err(DecodeError::Truncated)
        );
    }

    #[test]
    fn decode_errors() {
        let mut empty = Bytes::new();
        assert_eq!(decode_formula_dag(&mut empty), Err(DecodeError::Truncated));
        let mut bad = Bytes::from_static(&[1, 99]);
        assert_eq!(decode_formula_dag(&mut bad), Err(DecodeError::BadTag(99)));
        // A variable node cut off before its vector kind.
        let mut trunc = Bytes::from_static(&[1, TAG_VAR, 1]);
        assert_eq!(decode_formula_dag(&mut trunc), Err(DecodeError::Truncated));
        // Arity 1 and-node.
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 2);
        buf.put_u8(TAG_TRUE);
        buf.put_u8(TAG_AND);
        put_varint(&mut buf, 1);
        put_varint(&mut buf, 0);
        let mut bytes = buf.freeze();
        assert_eq!(
            decode_formula_dag(&mut bytes),
            Err(DecodeError::BadArity(1))
        );
    }

    #[test]
    fn ragged_triplet_rows_are_rejected() {
        // A one-node table holding `true`, then rows of width 1, 0 and 0.
        let ragged = DecodeError::RaggedTriplet { v: 1, cv: 0, dv: 0 };
        let mut triplet = Bytes::from_static(&[1, TAG_TRUE, 1, 0, 0, 0]);
        assert_eq!(decode_triplet_dag(&mut triplet), Err(ragged.clone()));
        // The same rows as the one entry of an envelope, fragment 7.
        let mut envelope = Bytes::from_static(&[1, 1, TAG_TRUE, 7, 1, 0, 0, 0]);
        assert_eq!(decode_site_envelope_dag(&mut envelope), Err(ragged));
    }

    #[test]
    fn dag_decode_rejects_forward_references() {
        // Table of one Not node referencing itself (index 0 at index 0).
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 1);
        buf.put_u8(TAG_NOT);
        put_varint(&mut buf, 0);
        put_varint(&mut buf, 0);
        let mut bytes = buf.freeze();
        assert_eq!(
            decode_formula_dag(&mut bytes),
            Err(DecodeError::BadIndex(0))
        );
        // Root index past the table.
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 1);
        buf.put_u8(TAG_TRUE);
        put_varint(&mut buf, 7);
        let mut bytes = buf.freeze();
        assert_eq!(
            decode_formula_dag(&mut bytes),
            Err(DecodeError::BadIndex(7))
        );
    }

    #[test]
    fn triplet_delta_diff_apply_round_trips() {
        let old = Triplet::fresh_vars(FragmentId(3), 6);
        let mut new = old.clone();
        new.v[1] = Formula::TRUE;
        new.dv[4] = Formula::or(var(1, VecKind::DV, 4), var(2, VecKind::DV, 4));
        let d = TripletDelta::diff(&old, &new);
        assert_eq!(d.len(), 2);
        assert_eq!(d.apply(&old), new);

        let empty = TripletDelta::diff(&old, &old);
        assert!(empty.is_empty());
        assert_eq!(empty.apply(&old), old);
    }

    #[test]
    fn triplet_delta_dag_round_trips() {
        let old = Triplet::fresh_vars(FragmentId(3), 6);
        let mut new = old.clone();
        let shared = Formula::any((0..8).map(|i| var(i, VecKind::DV, 0)));
        new.v[0] = shared;
        new.cv[2] = Formula::or(shared, var(9, VecKind::V, 2));
        new.dv[5] = shared.not();
        let d = TripletDelta::diff(&old, &new);
        let mut buf = BytesMut::new();
        encode_triplet_delta_dag(&d, &mut buf);
        assert_eq!(buf.len(), triplet_delta_dag_wire_size(&d));
        let mut bytes = buf.freeze();
        let back = decode_triplet_delta_dag(&mut bytes).unwrap();
        assert_eq!(bytes.remaining(), 0);
        assert_eq!(back, d);
        assert_eq!(back.apply(&old), new);
    }

    #[test]
    fn sparse_delta_beats_full_triplet_on_the_wire() {
        // One changed entry out of 3·32: the delta ships a single
        // formula, the full triplet ships 96 roots plus fresh variables.
        let old = Triplet::fresh_vars(FragmentId(3), 32);
        let mut new = old.clone();
        new.dv[17] = Formula::TRUE;
        let d = TripletDelta::diff(&old, &new);
        assert_eq!(d.len(), 1);
        let delta = triplet_delta_dag_wire_size(&d);
        let full = triplet_dag_wire_size(&new);
        assert!(delta * 4 < full, "delta {delta} vs full {full}");
    }

    #[test]
    fn triplet_delta_decode_rejects_out_of_range_index() {
        // Width 2 but a record targeting entry 5.
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 2); // width
        put_varint(&mut buf, 1); // one record
        put_varint(&mut buf, 1); // table: one node
        buf.put_u8(TAG_TRUE);
        buf.put_u8(0); // VecKind::V
        put_varint(&mut buf, 5); // entry index out of range
        put_varint(&mut buf, 0); // root
        let mut bytes = buf.freeze();
        assert_eq!(
            decode_triplet_delta_dag(&mut bytes),
            Err(DecodeError::BadIndex(5))
        );
        let mut empty = Bytes::new();
        assert_eq!(
            decode_triplet_delta_dag(&mut empty),
            Err(DecodeError::Truncated)
        );
    }

    #[test]
    fn varint_round_trips() {
        for v in [0u64, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut bytes = buf.freeze();
            assert_eq!(get_varint(&mut bytes).unwrap(), v);
            assert_eq!(bytes.remaining(), 0);
        }
    }

    #[test]
    fn deep_chain_encodes_and_decodes_iteratively() {
        // Alternating ∧/¬ chain ~60k deep: recursive codecs would
        // overflow the stack in both directions; ours must not.
        let mut f = var(0, VecKind::V, 0);
        for i in 1..30_000u32 {
            f = Formula::and(var(i, VecKind::V, 0), f.not());
        }
        assert_eq!(rt(&f), f);
        // Display is iterative too (length check keeps output unused).
        assert!(f.to_string().len() > 100_000);
    }
}
