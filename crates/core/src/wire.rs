//! Wire encoding of query responses and group-committed delta batches.
//!
//! The communication-cost experiments (Figures 10 and 11) charge the
//! exact serialized size of `result + VO`. This module defines that
//! format and measures it. The encoding is self-describing enough for the
//! client to decode without the schema; all authentication happens later
//! in [`crate::verify`].
//!
//! Format version 3 adds the [`DeltaBatch`] envelope (magic `VBX3`):
//! `k` update ops travelling from the central commit to the edge apply
//! under one signed payload stream and one owner freshness stamp. The
//! `VBX2` response encoding is unchanged and its decoder kept — the two
//! message types coexist on the wire, distinguished by magic.

use crate::frame::{get_sig, get_str, put_sig, put_str};
use crate::scheme::{DeltaBatch, TxnBatch, UpdateOp};
use crate::verify::{FreshnessStamp, ResponseFreshness};
use crate::vo::{CompactPart, CompactResponse, QueryResponse, ResultRow, VerificationObject, VoOp};
use crate::CoreError;
use bytes::{Buf, BufMut};
use vbx_crypto::accum::{Accumulator, DigestRole, SignedDigest};
use vbx_crypto::Signature;
use vbx_storage::{Tuple, Value};

/// Format version 2: v1 plus the trailing freshness section
/// (applied seq + optional owner stamp).
const MAGIC: &[u8; 4] = b"VBX2";

/// Format version 3: the group-commit [`DeltaBatch`] envelope.
const BATCH_MAGIC: &[u8; 4] = b"VBX3";

/// Format version 4: the compact stack-machine VO envelope
/// ([`CompactResponse`]). `VBX2`/`VBX3` stay on the wire unchanged;
/// the four magics disambiguate.
const COMPACT_MAGIC: &[u8; 4] = b"VBX4";

/// Format version 7 (`VBX5` is the frame layer itself, in
/// [`crate::frame`]; `6` is retired): the atomic multi-table
/// [`TxnBatch`] envelope —
/// every touched table's `VBX3`-shaped section under **one** magic,
/// one contiguous seq range, and one trailing freshness stamp.
const TXN_MAGIC: &[u8; 4] = b"VBX7";

/// `VBX4` op tags.
const OP_BEGIN: u8 = 0x01;
const OP_END: u8 = 0x02;
const OP_PUSH: u8 = 0x03;
const OP_ROW: u8 = 0x04;
const OP_REF: u8 = 0x05;

pub(crate) fn put_digest<const L: usize>(out: &mut Vec<u8>, d: &SignedDigest<L>) {
    out.push(d.role.to_tag());
    out.extend_from_slice(&d.exp.to_be_bytes());
    put_sig(out, &d.sig);
}

pub(crate) fn get_digest<const L: usize>(
    buf: &mut &[u8],
    acc: &Accumulator<L>,
) -> Result<SignedDigest<L>, CoreError> {
    let corrupt = |m: &str| CoreError::Wire(m.to_string());
    if buf.remaining() < 1 + L * 8 {
        return Err(corrupt("digest truncated"));
    }
    let role = DigestRole::from_tag(buf.get_u8()).ok_or_else(|| corrupt("bad role tag"))?;
    let exp_bytes = &buf[..L * 8];
    let exp = acc
        .exp_from_canonical(exp_bytes)
        .ok_or_else(|| corrupt("exponent out of range"))?;
    buf.advance(L * 8);
    let sig = get_sig(buf, "digest signature")?;
    Ok(SignedDigest { exp, role, sig })
}

/// Serialize a full response (rows + VO).
pub fn encode_response<const L: usize>(resp: &QueryResponse<L>) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    out.extend_from_slice(MAGIC);

    // rows
    out.put_u32(resp.rows.len() as u32);
    for row in &resp.rows {
        out.put_u64(row.key);
        out.put_u16(row.values.len() as u16);
        for v in &row.values {
            v.encode_into(&mut out);
        }
    }

    // VO
    put_digest(&mut out, &resp.vo.top);
    out.put_u32(resp.vo.d_s.len() as u32);
    for d in &resp.vo.d_s {
        put_digest(&mut out, d);
    }
    out.put_u32(resp.vo.d_p.len() as u32);
    for d in &resp.vo.d_p {
        put_digest(&mut out, d);
    }
    out.put_u32(resp.vo.key_version);

    // freshness: applied seq, then an optional owner stamp
    out.put_u64(resp.freshness.applied_seq);
    put_stamp(&mut out, resp.freshness.stamp.as_ref());
    out
}

pub(crate) fn put_stamp(out: &mut Vec<u8>, stamp: Option<&FreshnessStamp>) {
    match stamp {
        None => out.push(0),
        Some(stamp) => {
            out.push(1);
            out.put_u64(stamp.seq);
            out.put_u64(stamp.clock);
            out.put_u32(stamp.key_version);
            put_sig(out, &stamp.sig);
        }
    }
}

/// Exact bytes [`put_stamp`] emits for the stamp alone (excluding the
/// presence tag): `seq + clock + key_version + sig_len + sig`, or 0
/// when absent.
pub fn stamp_wire_bytes(stamp: Option<&FreshnessStamp>) -> usize {
    stamp.map_or(0, |s| 8 + 8 + 4 + 2 + s.sig.len())
}

/// Exact wire size of a whole freshness section as every vbx encoding
/// frames it: advisory `applied_seq`, the stamp-presence tag, and the
/// optional stamp. The single source of truth for freshness byte
/// accounting — the baselines' `wire_bytes` delegate here so the
/// Figure 10/11 comparisons can never drift from the real encoding.
pub fn freshness_wire_bytes(freshness: &ResponseFreshness) -> usize {
    8 + 1 + stamp_wire_bytes(freshness.stamp.as_ref())
}

pub(crate) fn get_stamp(buf: &mut &[u8]) -> Result<Option<FreshnessStamp>, CoreError> {
    let corrupt = |m: &str| CoreError::Wire(m.to_string());
    if buf.remaining() < 1 {
        return Err(corrupt("freshness stamp tag truncated"));
    }
    match buf.get_u8() {
        0 => Ok(None),
        1 => {
            if buf.remaining() < 20 {
                return Err(corrupt("freshness stamp truncated"));
            }
            let seq = buf.get_u64();
            let clock = buf.get_u64();
            let key_version = buf.get_u32();
            let sig = get_sig(buf, "freshness signature")?;
            Ok(Some(FreshnessStamp {
                seq,
                clock,
                key_version,
                sig,
            }))
        }
        _ => Err(corrupt("bad freshness stamp tag")),
    }
}

/// Decode a response. `acc` supplies the group width and validates
/// exponent ranges.
pub fn decode_response<const L: usize>(
    bytes: &[u8],
    acc: &Accumulator<L>,
) -> Result<QueryResponse<L>, CoreError> {
    let corrupt = |m: &str| CoreError::Wire(m.to_string());
    let mut buf = bytes;
    if buf.remaining() < 8 || &buf[..4] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    buf.advance(4);

    let n_rows = buf.get_u32() as usize;
    let mut rows = Vec::with_capacity(n_rows.min(1 << 20));
    for _ in 0..n_rows {
        if buf.remaining() < 10 {
            return Err(corrupt("row truncated"));
        }
        let key = buf.get_u64();
        let arity = buf.get_u16() as usize;
        let mut values = Vec::with_capacity(arity.min(1 << 16));
        for _ in 0..arity {
            values.push(Value::decode(&mut buf).map_err(CoreError::Storage)?);
        }
        rows.push(ResultRow { key, values });
    }

    let top = get_digest(&mut buf, acc)?;
    if buf.remaining() < 4 {
        return Err(corrupt("D_S header truncated"));
    }
    let n_ds = buf.get_u32() as usize;
    let mut d_s = Vec::with_capacity(n_ds.min(1 << 20));
    for _ in 0..n_ds {
        d_s.push(get_digest(&mut buf, acc)?);
    }
    if buf.remaining() < 4 {
        return Err(corrupt("D_P header truncated"));
    }
    let n_dp = buf.get_u32() as usize;
    let mut d_p = Vec::with_capacity(n_dp.min(1 << 20));
    for _ in 0..n_dp {
        d_p.push(get_digest(&mut buf, acc)?);
    }
    if buf.remaining() < 4 {
        return Err(corrupt("key version truncated"));
    }
    let key_version = buf.get_u32();

    if buf.remaining() < 9 {
        return Err(corrupt("freshness truncated"));
    }
    let applied_seq = buf.get_u64();
    let stamp = get_stamp(&mut buf)?;
    if buf.has_remaining() {
        return Err(corrupt("trailing bytes"));
    }
    Ok(QueryResponse {
        rows,
        vo: VerificationObject {
            top,
            d_s,
            d_p,
            key_version,
        },
        freshness: ResponseFreshness { applied_seq, stamp },
    })
}

/// Encode one [`UpdateOp`] (tag byte + operands). Shared by the `VBX3`
/// batch envelope and the durability WAL records so both streams frame
/// ops identically.
pub(crate) fn put_update_op(out: &mut Vec<u8>, op: &UpdateOp) {
    match op {
        UpdateOp::Insert(tuple) => {
            out.push(0);
            tuple.encode_into(out);
        }
        UpdateOp::Delete(key) => {
            out.push(1);
            out.put_u64(*key);
        }
        UpdateOp::DeleteRange(lo, hi) => {
            out.push(2);
            out.put_u64(*lo);
            out.put_u64(*hi);
        }
    }
}

/// Decode one [`UpdateOp`], advancing `buf`.
pub(crate) fn get_update_op(buf: &mut &[u8]) -> Result<UpdateOp, CoreError> {
    let corrupt = |m: &str| CoreError::Wire(m.to_string());
    if buf.remaining() < 1 {
        return Err(corrupt("op truncated"));
    }
    Ok(match buf.get_u8() {
        0 => UpdateOp::Insert(Tuple::decode(buf).map_err(CoreError::Storage)?),
        1 => {
            if buf.remaining() < 8 {
                return Err(corrupt("delete key truncated"));
            }
            UpdateOp::Delete(buf.get_u64())
        }
        2 => {
            if buf.remaining() < 16 {
                return Err(corrupt("delete range truncated"));
            }
            UpdateOp::DeleteRange(buf.get_u64(), buf.get_u64())
        }
        _ => return Err(corrupt("bad op tag")),
    })
}

/// Encode one stamp-less batch section (the `VBX3` body between magic
/// and stamp) — shared by the batch and txn envelopes.
fn put_batch_section<const L: usize>(out: &mut Vec<u8>, batch: &DeltaBatch<Vec<SignedDigest<L>>>) {
    out.put_u64(batch.start_seq);
    put_str(out, &batch.table);
    out.put_u32(batch.key_version);

    out.put_u32(batch.ops.len() as u32);
    for op in &batch.ops {
        put_update_op(out, op);
    }

    out.put_u32(batch.payloads.len() as u32);
    for payload in &batch.payloads {
        out.put_u32(payload.len() as u32);
        for d in payload {
            put_digest(out, d);
        }
    }
}

/// Decode one batch section written by [`put_batch_section`], advancing
/// `buf`. The returned batch carries no stamp.
fn get_batch_section<const L: usize>(
    buf: &mut &[u8],
    acc: &Accumulator<L>,
) -> Result<DeltaBatch<Vec<SignedDigest<L>>>, CoreError> {
    let corrupt = |m: &str| CoreError::Wire(m.to_string());
    if buf.remaining() < 8 {
        return Err(corrupt("batch header truncated"));
    }
    let start_seq = buf.get_u64();
    let table = get_str(buf, "table name")?;
    if buf.remaining() < 8 {
        return Err(corrupt("batch key version truncated"));
    }
    let key_version = buf.get_u32();

    let n_ops = buf.get_u32() as usize;
    let mut ops = Vec::with_capacity(n_ops.min(1 << 16));
    for _ in 0..n_ops {
        ops.push(get_update_op(buf)?);
    }

    if buf.remaining() < 4 {
        return Err(corrupt("payload header truncated"));
    }
    let n_payloads = buf.get_u32() as usize;
    let mut payloads = Vec::with_capacity(n_payloads.min(1 << 16));
    for _ in 0..n_payloads {
        if buf.remaining() < 4 {
            return Err(corrupt("payload digest count truncated"));
        }
        let n_digests = buf.get_u32() as usize;
        let mut digests = Vec::with_capacity(n_digests.min(1 << 20));
        for _ in 0..n_digests {
            digests.push(get_digest(buf, acc)?);
        }
        payloads.push(digests);
    }

    Ok(DeltaBatch {
        start_seq,
        table,
        ops,
        payloads,
        key_version,
        stamp: None,
    })
}

/// Serialize a group-committed delta batch — the `VBX3` envelope the
/// central server ships over the subscription transport: `k` update ops,
/// the scheme's packed signed-digest payload stream, and the optional
/// owner freshness stamp attesting the batch's end sequence.
pub fn encode_delta_batch<const L: usize>(batch: &DeltaBatch<Vec<SignedDigest<L>>>) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    out.extend_from_slice(BATCH_MAGIC);
    put_batch_section(&mut out, batch);
    put_stamp(&mut out, batch.stamp.as_ref());
    out
}

/// Decode a `VBX3` delta batch. Structurally hostile input (truncation,
/// lying counters, bad tags, trailing bytes) errors and never panics;
/// *semantically* hostile input — consistent bytes carrying forged ops
/// or digests — is caught later, by the replica's replay divergence
/// check and by the stamp/digest signatures.
pub fn decode_delta_batch<const L: usize>(
    bytes: &[u8],
    acc: &Accumulator<L>,
) -> Result<DeltaBatch<Vec<SignedDigest<L>>>, CoreError> {
    let corrupt = |m: &str| CoreError::Wire(m.to_string());
    let mut buf = bytes;
    if buf.remaining() < 4 || &buf[..4] != BATCH_MAGIC {
        return Err(corrupt("bad batch magic"));
    }
    buf.advance(4);
    let mut batch = get_batch_section(&mut buf, acc)?;
    batch.stamp = get_stamp(&mut buf)?;
    if buf.has_remaining() {
        return Err(corrupt("trailing bytes in batch"));
    }
    Ok(batch)
}

/// Serialize an atomic multi-table transaction — the `VBX7` envelope
/// the central ships so every shard owner receives the whole txn as
/// **one** message: each touched table's packed sweep as a stamp-less
/// `VBX3`-shaped section, plus one trailing owner stamp attesting the
/// txn's end sequence.
pub fn encode_txn_batch<const L: usize>(txn: &TxnBatch<Vec<SignedDigest<L>>>) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024 * txn.sections.len().max(1));
    out.extend_from_slice(TXN_MAGIC);
    out.put_u32(txn.sections.len() as u32);
    for section in &txn.sections {
        put_batch_section(&mut out, section);
    }
    put_stamp(&mut out, txn.stamp.as_ref());
    out
}

/// Decode a `VBX7` txn envelope. Same hostile-input contract as
/// [`decode_delta_batch`]; additionally rejects envelopes whose
/// sections do not chain into one contiguous seq range — an edge must
/// never apply a gapped or empty txn.
pub fn decode_txn_batch<const L: usize>(
    bytes: &[u8],
    acc: &Accumulator<L>,
) -> Result<TxnBatch<Vec<SignedDigest<L>>>, CoreError> {
    let corrupt = |m: &str| CoreError::Wire(m.to_string());
    let mut buf = bytes;
    if buf.remaining() < 4 || &buf[..4] != TXN_MAGIC {
        return Err(corrupt("bad txn magic"));
    }
    buf.advance(4);
    if buf.remaining() < 4 {
        return Err(corrupt("txn section count truncated"));
    }
    let n_sections = buf.get_u32() as usize;
    let mut sections = Vec::with_capacity(n_sections.min(1 << 12));
    for _ in 0..n_sections {
        sections.push(get_batch_section(&mut buf, acc)?);
    }
    let stamp = get_stamp(&mut buf)?;
    if buf.has_remaining() {
        return Err(corrupt("trailing bytes in txn"));
    }
    let txn = TxnBatch { sections, stamp };
    if !txn.is_contiguous() {
        return Err(corrupt("txn sections not contiguous"));
    }
    Ok(txn)
}

/// Byte-size breakdown of a response — the quantities plotted in
/// Figures 10 and 11.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResponseSize {
    /// Serialized result rows.
    pub result_bytes: usize,
    /// Serialized verification object.
    pub vo_bytes: usize,
    /// Framing overhead (magic, counters).
    pub framing_bytes: usize,
}

impl ResponseSize {
    /// Total bytes on the wire.
    pub fn total(&self) -> usize {
        self.result_bytes + self.vo_bytes + self.framing_bytes
    }
}

/// Measure a response without keeping the serialized buffer.
pub fn measure_response<const L: usize>(resp: &QueryResponse<L>) -> ResponseSize {
    let result_bytes: usize = resp
        .rows
        .iter()
        .map(|r| 10 + r.values.iter().map(Value::wire_len).sum::<usize>())
        .sum();
    let digest_len = |d: &SignedDigest<L>| 1 + L * 8 + 2 + d.sig.len();
    let stamp_bytes = stamp_wire_bytes(resp.freshness.stamp.as_ref());
    let vo_bytes = digest_len(&resp.vo.top)
        + resp.vo.d_s.iter().map(digest_len).sum::<usize>()
        + resp.vo.d_p.iter().map(digest_len).sum::<usize>()
        + 4 // key version
        + stamp_bytes;
    ResponseSize {
        result_bytes,
        vo_bytes,
        // magic + row count + D_S/D_P counters + applied seq + stamp tag
        framing_bytes: 4 + 4 + 4 + 4 + 8 + 1,
    }
}

// ---------------------------------------------------------------------
// VBX4 — compact stack-machine VO envelope
// ---------------------------------------------------------------------
//
// Layout (all integers big-endian):
//
// ```text
// "VBX4" | key_version u32
// | dict_count u32 | dict entries (role u8, exp L*8, sig_len u16, sig)
// | agg_flag u8 [| sig_len u16 | sig]
// | part_count u32
// | per part: top digest, row_count u32, op_count u32, ops…
// | applied_seq u64 | stamp
// ```
//
// The dictionary and aggregate signature come *before* the parts so a
// streaming verifier makes one forward pass buffering only the
// dictionary; the freshness tail comes *last* so an edge can cache the
// response prefix and append its current freshness per request. `Row`
// ops carry their row payload inline — the stream needs no side table.

/// Serialize everything of a compact response **except** the freshness
/// tail. This is the cacheable prefix: an edge stores these bytes once
/// and stitches a current freshness tail onto each request with
/// [`compact_response_bytes`].
pub fn encode_compact_prefix<const L: usize>(resp: &CompactResponse<L>) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    out.extend_from_slice(COMPACT_MAGIC);
    out.put_u32(resp.key_version);

    out.put_u32(resp.dict.len() as u32);
    for d in &resp.dict {
        put_digest(&mut out, d);
    }

    match &resp.agg_sig {
        None => out.push(0),
        Some(sig) => {
            out.push(1);
            put_sig(&mut out, sig);
        }
    }

    out.put_u32(resp.parts.len() as u32);
    for part in &resp.parts {
        put_digest(&mut out, &part.top);
        out.put_u32(part.rows.len() as u32);
        out.put_u32(part.ops.len() as u32);
        let mut next_row = 0usize;
        for op in &part.ops {
            match op {
                VoOp::Begin => out.push(OP_BEGIN),
                VoOp::End => out.push(OP_END),
                VoOp::Push(d) => {
                    out.push(OP_PUSH);
                    put_digest(&mut out, d);
                }
                VoOp::Row => {
                    let row = &part.rows[next_row];
                    next_row += 1;
                    out.push(OP_ROW);
                    out.put_u64(row.key);
                    out.put_u16(row.values.len() as u16);
                    for v in &row.values {
                        v.encode_into(&mut out);
                    }
                }
                VoOp::Ref(i) => {
                    out.push(OP_REF);
                    out.put_u32(*i);
                }
            }
        }
        debug_assert_eq!(next_row, part.rows.len(), "Row ops must cover all rows");
    }
    out
}

/// Stitch a freshness tail onto a cached `VBX4` prefix, producing the
/// full wire buffer.
pub fn compact_response_bytes(prefix: &[u8], freshness: &ResponseFreshness) -> Vec<u8> {
    let mut out = Vec::with_capacity(prefix.len() + 32);
    out.extend_from_slice(prefix);
    out.put_u64(freshness.applied_seq);
    put_stamp(&mut out, freshness.stamp.as_ref());
    out
}

/// Serialize a full compact response (prefix + its own freshness tail).
pub fn encode_compact_response<const L: usize>(resp: &CompactResponse<L>) -> Vec<u8> {
    compact_response_bytes(&encode_compact_prefix(resp), &resp.freshness)
}

/// Decode and fully materialise a `VBX4` buffer. Structurally hostile
/// input (truncation, lying counters, bad tags, trailing bytes) errors
/// and never panics; forged digests and rows are caught later by
/// [`crate::verify::ClientVerifier::verify_compact`].
pub fn decode_compact_response<const L: usize>(
    bytes: &[u8],
    acc: &Accumulator<L>,
) -> Result<CompactResponse<L>, CoreError> {
    let mut stream = CompactStream::<L>::open(bytes, acc)?;
    let mut parts = Vec::with_capacity((stream.part_count() as usize).min(1 << 16));
    for _ in 0..stream.part_count() {
        let header = stream.begin_part()?;
        let mut rows = Vec::with_capacity((header.row_count as usize).min(1 << 20));
        let mut ops = Vec::with_capacity((header.op_count as usize).min(1 << 20));
        for _ in 0..header.op_count {
            ops.push(match stream.next_op()? {
                StreamOp::Begin => VoOp::Begin,
                StreamOp::End => VoOp::End,
                StreamOp::Push(d) => VoOp::Push(d),
                StreamOp::Ref(i) => VoOp::Ref(i),
                StreamOp::Row(row) => {
                    rows.push(row);
                    VoOp::Row
                }
            });
        }
        if rows.len() != header.row_count as usize {
            return Err(CoreError::Wire("row count does not match Row ops".into()));
        }
        parts.push(CompactPart {
            rows,
            top: header.top,
            ops,
        });
    }
    let dict = stream.dict().to_vec();
    let agg_sig = stream.agg_sig().cloned();
    let key_version = stream.key_version();
    let freshness = stream.finish()?;
    Ok(CompactResponse {
        parts,
        dict,
        agg_sig,
        key_version,
        freshness,
    })
}

/// One decoded op off a `VBX4` stream. Unlike [`VoOp`], `Row` carries
/// its payload — the wire interleaves rows into the op stream so a
/// streaming verifier needs a single forward cursor.
#[derive(Clone, Debug)]
pub enum StreamOp<const L: usize> {
    /// Push a fresh digest frame.
    Begin,
    /// Pop the current frame and fold it into its parent.
    End,
    /// Fold a shipped digest into the innermost frame.
    Push(SignedDigest<L>),
    /// The next result row, inline.
    Row(ResultRow),
    /// Fold the dictionary entry at this index.
    Ref(u32),
}

/// Header of one part in a `VBX4` stream.
#[derive(Clone, Debug)]
pub struct StreamPartHeader<const L: usize> {
    /// The part's signed top digest.
    pub top: SignedDigest<L>,
    /// Result rows the part's op stream will yield.
    pub row_count: u32,
    /// Ops in the part's stream.
    pub op_count: u32,
}

/// Incremental decoder for a `VBX4` buffer: [`open`](Self::open) parses
/// the header and dictionary, then the caller alternates
/// [`begin_part`](Self::begin_part) and [`next_op`](Self::next_op) and
/// ends with [`finish`](Self::finish) for the freshness tail. Only the
/// dictionary is buffered — this is what gives
/// `ClientVerifier::verify_compact_stream` its O(depth) memory bound.
pub struct CompactStream<'a, const L: usize> {
    buf: &'a [u8],
    acc: &'a Accumulator<L>,
    dict: Vec<SignedDigest<L>>,
    agg_sig: Option<Signature>,
    key_version: u32,
    part_count: u32,
    parts_begun: u32,
    ops_left: u32,
}

impl<'a, const L: usize> CompactStream<'a, L> {
    /// Parse the envelope header, dictionary, and aggregate signature.
    pub fn open(bytes: &'a [u8], acc: &'a Accumulator<L>) -> Result<Self, CoreError> {
        let corrupt = |m: &str| CoreError::Wire(m.to_string());
        let mut buf = bytes;
        if buf.remaining() < 8 || &buf[..4] != COMPACT_MAGIC {
            return Err(corrupt("bad compact magic"));
        }
        buf.advance(4);
        let key_version = buf.get_u32();

        if buf.remaining() < 4 {
            return Err(corrupt("dictionary header truncated"));
        }
        let n_dict = buf.get_u32() as usize;
        let mut dict = Vec::with_capacity(n_dict.min(1 << 20));
        for _ in 0..n_dict {
            dict.push(get_digest(&mut buf, acc)?);
        }

        if buf.remaining() < 1 {
            return Err(corrupt("aggregate flag truncated"));
        }
        let agg_sig = match buf.get_u8() {
            0 => None,
            1 => Some(get_sig(&mut buf, "aggregate signature")?),
            _ => return Err(corrupt("bad aggregate flag")),
        };

        if buf.remaining() < 4 {
            return Err(corrupt("part count truncated"));
        }
        let part_count = buf.get_u32();
        Ok(Self {
            buf,
            acc,
            dict,
            agg_sig,
            key_version,
            part_count,
            parts_begun: 0,
            ops_left: 0,
        })
    }

    /// Parts announced by the envelope.
    pub fn part_count(&self) -> u32 {
        self.part_count
    }

    /// Key version the digests were signed under.
    pub fn key_version(&self) -> u32 {
        self.key_version
    }

    /// The single condensed signature, when present.
    pub fn agg_sig(&self) -> Option<&Signature> {
        self.agg_sig.as_ref()
    }

    /// The shared digest dictionary (the stream's only buffered state).
    pub fn dict(&self) -> &[SignedDigest<L>] {
        &self.dict
    }

    /// Advance to the next part's header. Errors if the current part
    /// still has undrained ops or every part was already begun.
    pub fn begin_part(&mut self) -> Result<StreamPartHeader<L>, CoreError> {
        let corrupt = |m: &str| CoreError::Wire(m.to_string());
        if self.ops_left != 0 {
            return Err(corrupt("part begun with ops undrained"));
        }
        if self.parts_begun == self.part_count {
            return Err(corrupt("no parts left"));
        }
        let top = get_digest(&mut self.buf, self.acc)?;
        if self.buf.remaining() < 8 {
            return Err(corrupt("part header truncated"));
        }
        let row_count = self.buf.get_u32();
        let op_count = self.buf.get_u32();
        self.parts_begun += 1;
        self.ops_left = op_count;
        Ok(StreamPartHeader {
            top,
            row_count,
            op_count,
        })
    }

    /// Decode the next op of the current part.
    pub fn next_op(&mut self) -> Result<StreamOp<L>, CoreError> {
        let corrupt = |m: &str| CoreError::Wire(m.to_string());
        if self.ops_left == 0 {
            return Err(corrupt("no ops left in part"));
        }
        self.ops_left -= 1;
        if self.buf.remaining() < 1 {
            return Err(corrupt("op truncated"));
        }
        Ok(match self.buf.get_u8() {
            OP_BEGIN => StreamOp::Begin,
            OP_END => StreamOp::End,
            OP_PUSH => StreamOp::Push(get_digest(&mut self.buf, self.acc)?),
            OP_ROW => {
                if self.buf.remaining() < 10 {
                    return Err(corrupt("row truncated"));
                }
                let key = self.buf.get_u64();
                let arity = self.buf.get_u16() as usize;
                let mut values = Vec::with_capacity(arity.min(1 << 16));
                for _ in 0..arity {
                    values.push(Value::decode(&mut self.buf).map_err(CoreError::Storage)?);
                }
                StreamOp::Row(ResultRow { key, values })
            }
            OP_REF => {
                if self.buf.remaining() < 4 {
                    return Err(corrupt("dictionary reference truncated"));
                }
                StreamOp::Ref(self.buf.get_u32())
            }
            _ => return Err(corrupt("bad op tag")),
        })
    }

    /// Consume the freshness tail and check nothing trails it. Errors
    /// if parts or ops remain undrained.
    pub fn finish(mut self) -> Result<ResponseFreshness, CoreError> {
        let corrupt = |m: &str| CoreError::Wire(m.to_string());
        if self.ops_left != 0 || self.parts_begun != self.part_count {
            return Err(corrupt("stream finished with parts undrained"));
        }
        if self.buf.remaining() < 9 {
            return Err(corrupt("freshness truncated"));
        }
        let applied_seq = self.buf.get_u64();
        let stamp = get_stamp(&mut self.buf)?;
        if self.buf.has_remaining() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(ResponseFreshness { applied_seq, stamp })
    }
}

/// Measure a compact response without keeping the serialized buffer —
/// the `vo_bytes_compact` quantity the benches compare against the
/// legacy flat encoding's `vo_bytes`.
pub fn measure_compact<const L: usize>(resp: &CompactResponse<L>) -> ResponseSize {
    let digest_len = |d: &SignedDigest<L>| 1 + L * 8 + 2 + d.sig.len();
    let mut result_bytes = 0usize;
    // Key version counted in vo_bytes, matching [`measure_response`].
    let mut vo_bytes = resp.dict.iter().map(digest_len).sum::<usize>()
        + resp.agg_sig.as_ref().map_or(0, |sig| 2 + sig.len())
        + 4
        + stamp_wire_bytes(resp.freshness.stamp.as_ref());
    // magic, dict count, agg flag, part count, applied seq, stamp tag
    let mut framing_bytes = 4 + 4 + 1 + 4 + 8 + 1;
    for part in &resp.parts {
        vo_bytes += digest_len(&part.top);
        framing_bytes += 4 + 4; // row count + op count
        for op in &part.ops {
            match op {
                VoOp::Begin | VoOp::End => vo_bytes += 1,
                VoOp::Push(d) => vo_bytes += 1 + digest_len(d),
                // The Row tag replaces the flat encoding's external row
                // framing — it marks a row, it ships no auth material.
                VoOp::Row => framing_bytes += 1,
                VoOp::Ref(_) => vo_bytes += 1 + 4,
            }
        }
        result_bytes += part
            .rows
            .iter()
            .map(|r| 10 + r.values.iter().map(Value::wire_len).sum::<usize>())
            .sum::<usize>();
    }
    ResponseSize {
        result_bytes,
        vo_bytes,
        framing_bytes,
    }
}
