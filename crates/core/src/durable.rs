//! Durability codecs: WAL records and scheme-state serialisation.
//!
//! The central's write-ahead log (see `vbx-storage::wal`) stores one
//! record per committed write. This module defines the record payload
//! format — reusing the VBX wire codecs for ops, signed digests and
//! freshness stamps — and the [`DurableScheme`] trait every
//! authenticated scheme implements so its store and delta payloads can
//! be checkpointed and replayed.
//!
//! ## Record format (`VBW1`)
//!
//! ```text
//! record := "VBW1" kind:u8 clock:u64 body
//! (kind 0, the retired single-op record, is rejected as unknown)
//! kind 1 (commit batch) := start_seq:u64 table key_version:u32
//!                          n_ops:u32 op* n_payloads:u32 payload* stamp?
//! kind 2 (heartbeat)    := stamp?
//! kind 3 (commit txn)   := n_sections:u32 section* stamp?
//! section               := start_seq:u64 table key_version:u32
//!                          n_ops:u32 op* n_payloads:u32 payload*
//! ```
//!
//! `table` is a `u32`-length-prefixed UTF-8 string, `op` is the shared
//! `VBX3` update-op framing, `payload` is `u32` length + the scheme's
//! opaque delta bytes, and `stamp?` is the shared optional-stamp
//! framing. `clock` rides in every record so recovery restores a
//! monotonic [`FreshnessStamp`] clock — a restarted central must never
//! sign a stamp that rewinds `(seq, clock)`.
//!
//! Decoding arbitrary bytes never panics: truncation, lying counters
//! and bad tags all surface as [`CoreError::Wire`] (fuzzed in
//! `tests/wire_fuzz.rs`).

use crate::scheme::{AuthScheme, DeltaBatch, TxnBatch, VbScheme};
use crate::tree_codec;
use crate::verify::FreshnessStamp;
use crate::wire;
use crate::CoreError;
use bytes::{Buf, BufMut};
use vbx_crypto::accum::SignedDigest;

const MAGIC: &[u8; 4] = b"VBW1";

const KIND_COMMIT_BATCH: u8 = 1;
const KIND_HEARTBEAT: u8 = 2;
const KIND_COMMIT_TXN: u8 = 3;

/// A scheme whose store and delta payloads have byte encodings, making
/// the central recoverable: checkpoints persist `encode_store`, WAL
/// records persist `encode_delta`, and recovery replays the decoded
/// payloads through `AuthScheme::apply_delta_batch` to byte-identical
/// state.
pub trait DurableScheme: AuthScheme {
    /// Serialise a store (tree/table + signed digests) for a checkpoint.
    fn encode_store(&self, store: &Self::Store) -> Vec<u8>;
    /// Decode a checkpointed store.
    fn decode_store(&self, bytes: &[u8]) -> Result<Self::Store, CoreError>;
    /// Serialise one delta payload for a WAL record.
    fn encode_delta(&self, payload: &Self::Delta) -> Vec<u8>;
    /// Decode one delta payload (must consume `bytes` exactly).
    fn decode_delta(&self, bytes: &[u8]) -> Result<Self::Delta, CoreError>;
}

impl<const L: usize> DurableScheme for VbScheme<L> {
    fn encode_store(&self, store: &Self::Store) -> Vec<u8> {
        tree_codec::encode_tree(store)
    }

    fn decode_store(&self, bytes: &[u8]) -> Result<Self::Store, CoreError> {
        tree_codec::decode_tree(bytes, self.acc.clone())
    }

    fn encode_delta(&self, payload: &Self::Delta) -> Vec<u8> {
        encode_digest_vec(payload)
    }

    fn decode_delta(&self, bytes: &[u8]) -> Result<Self::Delta, CoreError> {
        decode_digest_vec(bytes, |buf| wire::get_digest(buf, &self.acc))
    }
}

/// Encode one signed digest with the shared `VBX` framing (role tag,
/// canonical exponent bytes, length-prefixed signature). Public so the
/// baseline schemes' store codecs frame digests identically.
pub fn put_signed_digest<const L: usize>(out: &mut Vec<u8>, d: &SignedDigest<L>) {
    wire::put_digest(out, d);
}

/// Decode one signed digest, advancing `buf`; `acc` validates the
/// exponent range.
pub fn get_signed_digest<const L: usize>(
    buf: &mut &[u8],
    acc: &vbx_crypto::accum::Accumulator<L>,
) -> Result<SignedDigest<L>, CoreError> {
    wire::get_digest(buf, acc)
}

/// Encode a `Vec<SignedDigest>` delta payload (the VB-tree's and the
/// naive scheme's payload shape) with the shared digest framing.
pub fn encode_digest_vec<const L: usize>(digests: &[SignedDigest<L>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + digests.len() * (L * 8 + 16));
    out.put_u32(digests.len() as u32);
    for d in digests {
        wire::put_digest(&mut out, d);
    }
    out
}

/// Decode a digest-vec payload written by [`encode_digest_vec`],
/// rejecting trailing bytes. `get` supplies the scheme's accumulator
/// context (exponent range validation).
pub fn decode_digest_vec<const L: usize>(
    bytes: &[u8],
    mut get: impl FnMut(&mut &[u8]) -> Result<SignedDigest<L>, CoreError>,
) -> Result<Vec<SignedDigest<L>>, CoreError> {
    let corrupt = |m: &str| CoreError::Wire(m.to_string());
    let mut buf = bytes;
    if buf.remaining() < 4 {
        return Err(corrupt("digest vec count truncated"));
    }
    let n = buf.get_u32() as usize;
    let mut digests = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        digests.push(get(&mut buf)?);
    }
    if buf.has_remaining() {
        return Err(corrupt("trailing bytes in digest vec"));
    }
    Ok(digests)
}

/// One decoded WAL record.
pub enum WalRecord<S: AuthScheme> {
    /// A whole group-committed batch (one record, one fsync — the
    /// durability analogue of the batched signing sweep).
    CommitBatch {
        /// Owner logical clock when the batch committed.
        clock: u64,
        /// The batch envelope (carries its own optional stamp).
        batch: DeltaBatch<S::Delta>,
    },
    /// A clock tick + freshness stamp with no data change. Logged so a
    /// restart cannot rewind the clock below a stamp already handed out.
    Heartbeat {
        /// Owner logical clock at the tick.
        clock: u64,
        /// The signed stamp issued by the tick.
        stamp: FreshnessStamp,
    },
    /// An atomic multi-table transaction: **one** record carries every
    /// touched table's packed sweep, fsync'd before *any* table's state
    /// is acked. Recovery treats the record all-or-nothing — a torn
    /// tail rolls back the whole txn, never a table subset.
    CommitTxn {
        /// Owner logical clock when the txn committed.
        clock: u64,
        /// The txn envelope (carries its own optional stamp).
        txn: TxnBatch<S::Delta>,
    },
}

impl<S: AuthScheme> WalRecord<S> {
    /// The owner clock carried by this record.
    pub fn clock(&self) -> u64 {
        match self {
            WalRecord::CommitBatch { clock, .. }
            | WalRecord::Heartbeat { clock, .. }
            | WalRecord::CommitTxn { clock, .. } => *clock,
        }
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.put_u32(s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> Result<String, CoreError> {
    let corrupt = |m: &str| CoreError::Wire(m.to_string());
    if buf.remaining() < 4 {
        return Err(corrupt("string length truncated"));
    }
    let len = buf.get_u32() as usize;
    if buf.remaining() < len {
        return Err(corrupt("string truncated"));
    }
    let s = core::str::from_utf8(&buf[..len])
        .map_err(|_| corrupt("string not UTF-8"))?
        .to_string();
    buf.advance(len);
    Ok(s)
}

fn put_payload(out: &mut Vec<u8>, bytes: &[u8]) {
    out.put_u32(bytes.len() as u32);
    out.extend_from_slice(bytes);
}

fn get_payload<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8], CoreError> {
    let corrupt = |m: &str| CoreError::Wire(m.to_string());
    if buf.remaining() < 4 {
        return Err(corrupt("payload length truncated"));
    }
    let len = buf.get_u32() as usize;
    if buf.remaining() < len {
        return Err(corrupt("payload truncated"));
    }
    let payload = &buf[..len];
    buf.advance(len);
    Ok(payload)
}

/// Encode one batch section (everything in a batch record except the
/// trailing stamp) — shared by the batch and txn record codecs.
fn put_batch_section<S: DurableScheme>(
    out: &mut Vec<u8>,
    scheme: &S,
    batch: &DeltaBatch<S::Delta>,
) {
    out.put_u64(batch.start_seq);
    put_str(out, &batch.table);
    out.put_u32(batch.key_version);
    out.put_u32(batch.ops.len() as u32);
    for op in &batch.ops {
        wire::put_update_op(out, op);
    }
    out.put_u32(batch.payloads.len() as u32);
    for payload in &batch.payloads {
        put_payload(out, &scheme.encode_delta(payload));
    }
}

/// Decode one batch section written by [`put_batch_section`], advancing
/// `buf`. The returned batch carries no stamp.
fn get_batch_section<S: DurableScheme>(
    scheme: &S,
    buf: &mut &[u8],
) -> Result<DeltaBatch<S::Delta>, CoreError> {
    let corrupt = |m: &str| CoreError::Wire(m.to_string());
    if buf.remaining() < 8 {
        return Err(corrupt("batch start seq truncated"));
    }
    let start_seq = buf.get_u64();
    let table = get_str(buf)?;
    if buf.remaining() < 8 {
        return Err(corrupt("batch header truncated"));
    }
    let key_version = buf.get_u32();
    let n_ops = buf.get_u32() as usize;
    let mut ops = Vec::with_capacity(n_ops.min(1 << 16));
    for _ in 0..n_ops {
        ops.push(wire::get_update_op(buf)?);
    }
    if buf.remaining() < 4 {
        return Err(corrupt("batch payload count truncated"));
    }
    let n_payloads = buf.get_u32() as usize;
    let mut payloads = Vec::with_capacity(n_payloads.min(1 << 16));
    for _ in 0..n_payloads {
        payloads.push(scheme.decode_delta(get_payload(buf)?)?);
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

/// Encode a batch commit record.
pub fn encode_wal_commit_batch<S: DurableScheme>(
    scheme: &S,
    clock: u64,
    batch: &DeltaBatch<S::Delta>,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    out.extend_from_slice(MAGIC);
    out.push(KIND_COMMIT_BATCH);
    out.put_u64(clock);
    put_batch_section(&mut out, scheme, batch);
    wire::put_stamp(&mut out, batch.stamp.as_ref());
    out
}

/// Encode a multi-table txn commit record: **one** record, one fsync,
/// covering every touched table's packed sweep plus one freshness
/// stamp attesting the txn's end seq.
pub fn encode_wal_commit_txn<S: DurableScheme>(
    scheme: &S,
    clock: u64,
    txn: &TxnBatch<S::Delta>,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024 * txn.sections.len().max(1));
    out.extend_from_slice(MAGIC);
    out.push(KIND_COMMIT_TXN);
    out.put_u64(clock);
    out.put_u32(txn.sections.len() as u32);
    for section in &txn.sections {
        put_batch_section(&mut out, scheme, section);
    }
    wire::put_stamp(&mut out, txn.stamp.as_ref());
    out
}

/// Encode a heartbeat record.
pub fn encode_wal_heartbeat(clock: u64, stamp: &FreshnessStamp) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(MAGIC);
    out.push(KIND_HEARTBEAT);
    out.put_u64(clock);
    wire::put_stamp(&mut out, Some(stamp));
    out
}

/// Decode any WAL record payload. Never panics on hostile bytes.
pub fn decode_wal_record<S: DurableScheme>(
    scheme: &S,
    bytes: &[u8],
) -> Result<WalRecord<S>, CoreError> {
    let corrupt = |m: &str| CoreError::Wire(m.to_string());
    let mut buf = bytes;
    if buf.remaining() < 4 || &buf[..4] != MAGIC {
        return Err(corrupt("bad WAL record magic"));
    }
    buf.advance(4);
    if buf.remaining() < 9 {
        return Err(corrupt("WAL record header truncated"));
    }
    let kind = buf.get_u8();
    let clock = buf.get_u64();
    let record = match kind {
        KIND_COMMIT_BATCH => {
            let mut batch = get_batch_section(scheme, &mut buf)?;
            batch.stamp = wire::get_stamp(&mut buf)?;
            WalRecord::CommitBatch { clock, batch }
        }
        KIND_COMMIT_TXN => {
            if buf.remaining() < 4 {
                return Err(corrupt("txn section count truncated"));
            }
            let n_sections = buf.get_u32() as usize;
            let mut sections = Vec::with_capacity(n_sections.min(1 << 12));
            for _ in 0..n_sections {
                sections.push(get_batch_section(scheme, &mut buf)?);
            }
            let stamp = wire::get_stamp(&mut buf)?;
            let txn = TxnBatch { sections, stamp };
            if !txn.is_contiguous() {
                return Err(corrupt("txn sections not contiguous"));
            }
            WalRecord::CommitTxn { clock, txn }
        }
        KIND_HEARTBEAT => {
            let stamp = wire::get_stamp(&mut buf)?
                .ok_or_else(|| corrupt("heartbeat record without stamp"))?;
            WalRecord::Heartbeat { clock, stamp }
        }
        t => return Err(corrupt(&format!("bad WAL record kind {t}"))),
    };
    if buf.has_remaining() {
        return Err(corrupt("trailing bytes in WAL record"));
    }
    Ok(record)
}

/// Encode a freshness stamp (checkpoint stamp-history sections).
pub fn encode_stamp(out: &mut Vec<u8>, stamp: &FreshnessStamp) {
    wire::put_stamp(out, Some(stamp));
}

/// Decode a stamp written by [`encode_stamp`], advancing `buf`.
pub fn decode_stamp(buf: &mut &[u8]) -> Result<FreshnessStamp, CoreError> {
    wire::get_stamp(buf)?.ok_or_else(|| CoreError::Wire("missing stamp".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::UpdateOp;
    use vbx_crypto::{Acc256, MockSigner, Signer};
    use vbx_storage::workload::WorkloadSpec;
    use vbx_storage::Tuple;
    use vbx_storage::Value;

    fn scheme() -> VbScheme<4> {
        VbScheme {
            acc: Acc256::test_default(),
            config: crate::tree::VbTreeConfig::with_fanout(8),
        }
    }

    fn sample_stamp(signer: &dyn Signer) -> FreshnessStamp {
        FreshnessStamp::sign(signer, 7, 42)
    }

    #[test]
    fn heartbeat_roundtrip() {
        let s = scheme();
        let signer = MockSigner::new(8);
        let stamp = sample_stamp(&signer);
        let bytes = encode_wal_heartbeat(4, &stamp);
        match decode_wal_record(&s, &bytes).unwrap() {
            WalRecord::Heartbeat { clock, stamp: got } => {
                assert_eq!(clock, 4);
                assert_eq!(got, stamp);
            }
            _ => panic!("wrong record kind"),
        }
    }

    #[test]
    fn commit_txn_roundtrip_and_truncation() {
        let s = scheme();
        let signer = MockSigner::new(10);
        let table = WorkloadSpec::new(20, 2, 8).build();
        let mut store = s.build(&table, &signer);
        let tuple = Tuple::new(
            table.schema(),
            600,
            vec![Value::from("txn-a"), Value::from(1i64)],
        )
        .unwrap();
        let op_a = UpdateOp::Insert(tuple);
        let pay_a = s.update(&mut store, &op_a, &signer).unwrap();
        let op_b = UpdateOp::Delete(600);
        let pay_b = s.update(&mut store, &op_b, &signer).unwrap();
        let txn = TxnBatch {
            sections: vec![
                DeltaBatch {
                    start_seq: 5,
                    table: "a".to_string(),
                    ops: vec![op_a],
                    payloads: vec![pay_a],
                    key_version: 2,
                    stamp: None,
                },
                DeltaBatch {
                    start_seq: 6,
                    table: "b".to_string(),
                    ops: vec![op_b],
                    payloads: vec![pay_b],
                    key_version: 2,
                    stamp: None,
                },
            ],
            stamp: Some(sample_stamp(&signer)),
        };
        let bytes = encode_wal_commit_txn(&s, 13, &txn);
        match decode_wal_record(&s, &bytes).unwrap() {
            WalRecord::CommitTxn { clock, txn: got } => {
                assert_eq!(clock, 13);
                assert_eq!(got.sections.len(), 2);
                assert_eq!(got.start_seq(), 5);
                assert_eq!(got.end_seq(), 7);
                assert_eq!(got.stamp, txn.stamp);
                assert_eq!(got.sections[0].table, "a");
                assert_eq!(got.sections[1].table, "b");
            }
            _ => panic!("wrong record kind"),
        }
        for cut in 0..bytes.len() {
            assert!(decode_wal_record(&s, &bytes[..cut]).is_err());
        }
    }

    #[test]
    fn commit_txn_rejects_gapped_sections() {
        let s = scheme();
        let signer = MockSigner::new(11);
        let table = WorkloadSpec::new(20, 2, 8).build();
        let mut store = s.build(&table, &signer);
        let op = UpdateOp::Delete(4);
        let payload = s.update(&mut store, &op, &signer).unwrap();
        let txn: TxnBatch<_> = TxnBatch {
            sections: vec![
                DeltaBatch {
                    start_seq: 5,
                    table: "a".to_string(),
                    ops: vec![op.clone()],
                    payloads: vec![payload.clone()],
                    key_version: 0,
                    stamp: None,
                },
                DeltaBatch {
                    // Gap: the previous section ends at seq 6.
                    start_seq: 7,
                    table: "b".to_string(),
                    ops: vec![op],
                    payloads: vec![payload],
                    key_version: 0,
                    stamp: None,
                },
            ],
            stamp: None,
        };
        assert!(!txn.is_contiguous());
        let bytes = encode_wal_commit_txn(&s, 1, &txn);
        assert!(decode_wal_record(&s, &bytes).is_err());
    }

    #[test]
    fn truncation_never_panics() {
        let s = scheme();
        let signer = MockSigner::new(9);
        let stamp = sample_stamp(&signer);
        let bytes = encode_wal_heartbeat(4, &stamp);
        for cut in 0..bytes.len() {
            assert!(decode_wal_record(&s, &bytes[..cut]).is_err());
        }
    }
}
