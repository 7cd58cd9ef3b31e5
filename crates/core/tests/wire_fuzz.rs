//! Hostile-input hardening for `wire::decode_response` and
//! `wire::decode_delta_batch`: truncated buffers, oversized length
//! prefixes, lying op counters, and bit-flips anywhere in the buffer
//! must produce errors (or verification failures for semantic fields),
//! never panics or unbounded allocations.

use vbx_core::{
    check_freshness, decode_compact_response, decode_delta_batch, decode_response,
    decode_wal_record, encode_compact_response, encode_delta_batch, encode_response,
    encode_wal_commit_batch, encode_wal_commit_txn, encode_wal_heartbeat, execute, execute_compact,
    AuthScheme, ClientVerifier, CompactPart, CompactResponse, CostMeter, DeltaBatch,
    FreshnessPolicy, FreshnessStamp, RangeQuery, ResponseFreshness, TxnBatch, UpdateOp, VbScheme,
    VbTree, VbTreeConfig, VerifyError, VoOp, MAX_VO_STACK,
};
use vbx_crypto::signer::{MockSigner, Signer};
use vbx_crypto::Acc256;
use vbx_storage::workload::WorkloadSpec;
use vbx_storage::Table;

struct Fixture {
    tree: VbTree<4>,
    signer: MockSigner,
    table: Table,
    acc: Acc256,
}

fn fixture(rows: u64) -> Fixture {
    let table = WorkloadSpec::new(rows, 3, 8).build();
    let signer = MockSigner::new(11);
    let acc = Acc256::test_default();
    let tree = VbTree::bulk_load(&table, VbTreeConfig::with_fanout(4), acc.clone(), &signer);
    Fixture {
        tree,
        signer,
        table,
        acc,
    }
}

/// A stamped response + its encoding, as an honest cluster edge would
/// ship it.
fn stamped_bytes(f: &Fixture, q: &RangeQuery) -> (vbx_core::QueryResponse<4>, Vec<u8>) {
    let mut resp = execute(&f.tree, q, None);
    resp.freshness = ResponseFreshness {
        applied_seq: 3,
        stamp: Some(FreshnessStamp::sign(&f.signer, 3, 7)),
    };
    let bytes = encode_response(&resp);
    (resp, bytes)
}

#[test]
fn every_truncation_errors_never_panics() {
    let f = fixture(24);
    let (_, bytes) = stamped_bytes(&f, &RangeQuery::select_all(0, 15));
    for cut in 0..bytes.len() {
        assert!(
            decode_response(&bytes[..cut], &f.acc).is_err(),
            "prefix of {cut} bytes must not decode"
        );
    }
    assert!(decode_response(&bytes, &f.acc).is_ok());
}

#[test]
fn oversized_length_prefixes_error_without_blowup() {
    let f = fixture(16);
    let (_, bytes) = stamped_bytes(&f, &RangeQuery::select_all(0, 7));

    // Row count (offset 4): claim 2^32-1 rows in a tiny buffer.
    let mut huge_rows = bytes.clone();
    huge_rows[4..8].copy_from_slice(&u32::MAX.to_be_bytes());
    assert!(decode_response(&huge_rows, &f.acc).is_err());

    // First row's arity (offset 8 + 8): claim 65535 values.
    let mut huge_arity = bytes.clone();
    huge_arity[16..18].copy_from_slice(&u16::MAX.to_be_bytes());
    assert!(decode_response(&huge_arity, &f.acc).is_err());

    // Stamp signature length (last u16 before the signature bytes):
    // claim a signature longer than the buffer.
    let sig_len_at = bytes.len() - 32 - 2;
    let mut huge_sig = bytes.clone();
    huge_sig[sig_len_at..sig_len_at + 2].copy_from_slice(&u16::MAX.to_be_bytes());
    assert!(decode_response(&huge_sig, &f.acc).is_err());

    // Every count field zeroed/maxed at once still terminates quickly.
    let mut chaos = bytes;
    for w in chaos.chunks_exact_mut(5) {
        w[0] ^= 0xFF;
    }
    let _ = decode_response(&chaos, &f.acc); // outcome irrelevant; no panic/OOM
}

#[test]
fn single_bit_flips_never_panic_decode_or_verify() {
    let f = fixture(20);
    let q = RangeQuery::select_all(2, 13);
    let (_, bytes) = stamped_bytes(&f, &q);
    let client = ClientVerifier::new(&f.acc, f.table.schema());
    for i in 0..bytes.len() {
        for bit in [0x01u8, 0x80] {
            let mut flipped = bytes.clone();
            flipped[i] ^= bit;
            // Either the decoder rejects the buffer, or the decoded
            // response goes through full verification — neither path
            // may panic.
            if let Ok(resp) = decode_response(&flipped, &f.acc) {
                let _ = client.verify(f.signer.verifier().as_ref(), &q, &resp);
            }
        }
    }
}

#[test]
fn stamp_seq_bitflips_are_rejected_by_freshness_verification() {
    let f = fixture(20);
    let q = RangeQuery::select_all(2, 13);
    let (resp, bytes) = stamped_bytes(&f, &q);
    let stamp = resp.freshness.stamp.as_ref().unwrap();
    // Freshness section layout (from the end): sig | sig_len u16 |
    // key_version u32 | clock u64 | seq u64.
    let seq_at = bytes.len() - stamp.sig.len() - 2 - 4 - 8 - 8;
    let client = ClientVerifier::new(&f.acc, f.table.schema());

    for bit in 0..8u32 {
        let mut flipped = bytes.clone();
        flipped[seq_at + 7] ^= 1 << bit; // low byte of the stamp's seq
        let decoded = decode_response(&flipped, &f.acc).expect("seq is not length-bearing");
        // Without a freshness policy the flip is invisible…
        client
            .verify(f.signer.verifier().as_ref(), &q, &decoded)
            .expect("stamp is ignored without a policy");
        // …but a freshness-enforcing client catches the forged seq.
        let err = ClientVerifier::new(&f.acc, f.table.schema())
            .with_freshness(FreshnessPolicy::default(), 3, 7)
            .verify(f.signer.verifier().as_ref(), &q, &decoded)
            .unwrap_err();
        assert_eq!(err, VerifyError::BadSignature { part: "freshness" });
    }

    // The advisory applied_seq sits before the stamp; flipping it does
    // not break the signed attestation (documented: the stamp, not the
    // edge's claim, is the trusted bound).
    let applied_at = bytes.len() - stamp.sig.len() - 2 - 4 - 8 - 8 - 1 - 8;
    let mut flipped = bytes.clone();
    flipped[applied_at + 7] ^= 0x01;
    let decoded = decode_response(&flipped, &f.acc).unwrap();
    assert_ne!(decoded.freshness.applied_seq, resp.freshness.applied_seq);
    ClientVerifier::new(&f.acc, f.table.schema())
        .with_freshness(FreshnessPolicy::default(), 3, 7)
        .verify(f.signer.verifier().as_ref(), &q, &decoded)
        .expect("advisory applied_seq is not part of the signed stamp");
}

#[test]
fn stamp_roundtrips_and_unstamped_responses_stay_compact() {
    let f = fixture(12);
    let q = RangeQuery::select_all(0, 5);
    let (resp, bytes) = stamped_bytes(&f, &q);
    let decoded = decode_response(&bytes, &f.acc).unwrap();
    assert_eq!(decoded.freshness, resp.freshness);
    assert_eq!(bytes.len(), vbx_core::measure_response(&resp).total());

    let bare = execute(&f.tree, &q, None);
    let bare_bytes = encode_response(&bare);
    assert_eq!(bare_bytes.len(), vbx_core::measure_response(&bare).total());
    assert_eq!(
        bytes.len() - bare_bytes.len(),
        8 + 8 + 4 + 2 + resp.freshness.stamp.as_ref().unwrap().sig.len(),
        "stamp cost on the wire is exactly seq+clock+key_version+sig"
    );
    let decoded_bare = decode_response(&bare_bytes, &f.acc).unwrap();
    assert_eq!(decoded_bare.freshness, ResponseFreshness::default());
}

// ---------------------------------------------------------------------
// VBX3 delta-batch envelope
// ---------------------------------------------------------------------

/// An honest group-committed batch (mixed ops, packed VB-tree payload,
/// owner stamp) plus its encoding and the pre-batch replica to replay
/// it against.
fn batch_fixture() -> (
    Fixture,
    VbTree<4>,
    DeltaBatch<Vec<vbx_crypto::accum::SignedDigest<4>>>,
    Vec<u8>,
) {
    let f = fixture(32);
    let scheme = VbScheme::new(f.acc.clone(), f.tree.config().clone());
    let replica = f.tree.clone();
    let mut master = f.tree.clone();
    let schema = f.table.schema().clone();
    let tuple = |key: u64| {
        vbx_storage::Tuple::new(
            &schema,
            key,
            vec![
                vbx_storage::Value::from("a"),
                vbx_storage::Value::from("b"),
                vbx_storage::Value::from(9i64),
            ],
        )
        .unwrap()
    };
    let ops = vec![
        UpdateOp::Insert(tuple(500)),
        UpdateOp::Delete(3),
        UpdateOp::DeleteRange(10, 14),
        UpdateOp::Insert(tuple(501)),
    ];
    let payloads = scheme.update_batch(&mut master, &ops, &f.signer).unwrap();
    let batch = DeltaBatch {
        start_seq: 5,
        table: "t".to_string(),
        ops,
        payloads,
        key_version: f.signer.key_version(),
        stamp: Some(FreshnessStamp::sign(&f.signer, 9, 4)),
    };
    let bytes = encode_delta_batch(&batch);
    (f, replica, batch, bytes)
}

#[test]
fn batch_roundtrips_and_replays() {
    let (f, replica, batch, bytes) = batch_fixture();
    let scheme = VbScheme::new(f.acc.clone(), f.tree.config().clone());
    let decoded = decode_delta_batch(&bytes, &f.acc).unwrap();
    assert_eq!(decoded.start_seq, batch.start_seq);
    assert_eq!(decoded.end_seq(), batch.start_seq + 4);
    assert_eq!(decoded.table, batch.table);
    assert_eq!(decoded.len(), batch.len());
    assert_eq!(decoded.key_version, batch.key_version);
    assert_eq!(decoded.stamp, batch.stamp);

    // The decoded batch replays to the master's exact state.
    let mut master = replica.clone();
    scheme
        .update_batch(&mut master, &batch.ops, &f.signer)
        .unwrap();
    let mut applied = replica.clone();
    scheme
        .apply_delta_batch(
            &mut applied,
            &decoded.ops,
            &decoded.payloads,
            decoded.key_version,
        )
        .unwrap();
    assert_eq!(applied.root_digest().exp, master.root_digest().exp);
}

#[test]
fn batch_truncations_error_never_panic() {
    let (f, _, _, bytes) = batch_fixture();
    for cut in 0..bytes.len() {
        assert!(
            decode_delta_batch(&bytes[..cut], &f.acc).is_err(),
            "prefix of {cut} bytes must not decode"
        );
    }
    assert!(decode_delta_batch(&bytes, &f.acc).is_ok());
}

#[test]
fn batch_op_count_lies_error_or_diverge() {
    let (f, replica, batch, bytes) = batch_fixture();
    let scheme = VbScheme::new(f.acc.clone(), f.tree.config().clone());
    // Header: magic(4) + start_seq(8) + table_len(4) + table + kv(4).
    let n_ops_at = 4 + 8 + 4 + batch.table.len() + 4;
    for lie in [0u32, 1, 3, 5, 1 << 20, u32::MAX] {
        let mut forged = bytes.clone();
        forged[n_ops_at..n_ops_at + 4].copy_from_slice(&lie.to_be_bytes());
        // Either the decoder rejects the inconsistent framing, or the
        // replica's replay rejects the op/payload mismatch — a lying
        // counter must never panic or silently apply.
        if let Ok(decoded) = decode_delta_batch(&forged, &f.acc) {
            let mut target = replica.clone();
            assert!(
                scheme
                    .apply_delta_batch(
                        &mut target,
                        &decoded.ops,
                        &decoded.payloads,
                        decoded.key_version,
                    )
                    .is_err(),
                "op-count lie of {lie} must not replay cleanly"
            );
            // The failed replay must leave the replica untouched.
            assert_eq!(target.root_digest().exp, replica.root_digest().exp);
        }
    }
}

#[test]
fn batch_stamp_seq_flips_break_the_stamp_signature() {
    let (f, _, batch, bytes) = batch_fixture();
    let stamp = batch.stamp.as_ref().unwrap();
    // Trailing stamp layout: tag | seq u64 | clock u64 | kv u32 |
    // sig_len u16 | sig.
    let seq_at = bytes.len() - stamp.sig.len() - 2 - 4 - 8 - 8;
    for bit in 0..8u32 {
        let mut flipped = bytes.clone();
        flipped[seq_at + 7] ^= 1 << bit;
        let decoded = decode_delta_batch(&flipped, &f.acc).expect("seq is not length-bearing");
        let end_seq = decoded.end_seq();
        let forged = decoded.stamp.expect("stamp survives decode");
        assert!(
            !forged.verify(f.signer.verifier().as_ref()),
            "forged stamp seq must not verify"
        );
        // Through the shared freshness check, the flip reads as a bad
        // signature — not as acceptable staleness.
        let freshness = ResponseFreshness {
            applied_seq: end_seq,
            stamp: Some(forged),
        };
        let mut meter = CostMeter::new();
        assert_eq!(
            check_freshness(
                Some(&freshness),
                &FreshnessPolicy::default(),
                9,
                4,
                f.signer.verifier().as_ref(),
                &mut meter,
            ),
            Err(VerifyError::BadSignature { part: "freshness" })
        );
    }
}

#[test]
fn batch_bit_flips_never_panic() {
    let (f, replica, _, bytes) = batch_fixture();
    let scheme = VbScheme::new(f.acc.clone(), f.tree.config().clone());
    for i in 0..bytes.len() {
        for bit in [0x01u8, 0x80] {
            let mut flipped = bytes.clone();
            flipped[i] ^= bit;
            // Either the decoder rejects the buffer, or the decoded
            // batch goes through a full replica replay — neither path
            // may panic, and a failed replay must restore the replica.
            if let Ok(decoded) = decode_delta_batch(&flipped, &f.acc) {
                let mut target = replica.clone();
                let before = target.root_digest().exp;
                if scheme
                    .apply_delta_batch(
                        &mut target,
                        &decoded.ops,
                        &decoded.payloads,
                        decoded.key_version,
                    )
                    .is_err()
                {
                    assert_eq!(target.root_digest().exp, before);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// VBX4 compact op-stream envelope
// ---------------------------------------------------------------------

/// An honest aggregated compact response (stamped, as a cluster edge
/// would ship it) plus its encoding.
fn compact_fixture(f: &Fixture, q: &RangeQuery) -> (CompactResponse<4>, Vec<u8>) {
    let mut resp = execute_compact(&f.tree, q, None, Some(f.signer.verifier().as_ref()));
    resp.freshness = ResponseFreshness {
        applied_seq: 3,
        stamp: Some(FreshnessStamp::sign(&f.signer, 3, 7)),
    };
    let bytes = encode_compact_response(&resp);
    (resp, bytes)
}

#[test]
fn compact_truncations_error_never_panic() {
    let f = fixture(24);
    let (_, bytes) = compact_fixture(&f, &RangeQuery::select_all(0, 15));
    for cut in 0..bytes.len() {
        assert!(
            decode_compact_response(&bytes[..cut], &f.acc).is_err(),
            "prefix of {cut} bytes must not decode"
        );
    }
    assert!(decode_compact_response(&bytes, &f.acc).is_ok());
}

#[test]
fn compact_count_lies_error_without_blowup() {
    let f = fixture(24);
    // Not subtree-aligned, so D_S is non-empty and the response
    // carries an aggregate signature.
    let q = RangeQuery::select_all(0, 14);
    let (resp, bytes) = compact_fixture(&f, &q);
    let agg_len = resp.agg_sig.as_ref().unwrap().len();
    // Header: magic(4) + key_version(4), then dict_count(4) (the dict
    // is empty for a single query), agg flag(1) + sig_len(2) + sig,
    // part_count(4), the part's top digest (1 + 32 + 2 + 0 — the
    // signature was condensed away), row_count(4), op_count(4).
    let dict_count_at = 8;
    let part_count_at = 12 + 1 + 2 + agg_len;
    let row_count_at = part_count_at + 4 + 35;
    let op_count_at = row_count_at + 4;
    let client = ClientVerifier::new(&f.acc, f.table.schema());
    for (at, name) in [
        (dict_count_at, "dict count"),
        (part_count_at, "part count"),
        (row_count_at, "row count"),
        (op_count_at, "op count"),
    ] {
        let truth = u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap());
        for lie in [0u32, 1, 7, 1 << 20, u32::MAX] {
            if lie == truth {
                continue;
            }
            let mut forged = bytes.clone();
            forged[at..at + 4].copy_from_slice(&lie.to_be_bytes());
            // A lying counter must decode-error or verify-error —
            // never panic, never over-allocate, never accept.
            if let Ok(decoded) = decode_compact_response(&forged, &f.acc) {
                assert!(
                    client
                        .verify_compact(
                            f.signer.verifier().as_ref(),
                            std::slice::from_ref(&q),
                            &decoded
                        )
                        .is_err(),
                    "{name} lie of {lie} must not verify"
                );
            }
        }
    }
}

#[test]
fn compact_stack_abuse_errors_as_malformed() {
    let f = fixture(40);
    let q = RangeQuery::select_all(5, 25);
    // A part whose top digest is honestly signed but whose op stream is
    // hostile: the stack machine must reject the *structure* before any
    // digest equation is even considered.
    let honest = execute_compact(&f.tree, &q, None, None);
    let client = ClientVerifier::new(&f.acc, f.table.schema());
    let abuse: [(&str, Vec<VoOp<4>>); 4] = [
        ("underflow", vec![VoOp::End]),
        (
            "overflow",
            std::iter::repeat_n(VoOp::Begin, MAX_VO_STACK + 6).collect(),
        ),
        ("unbalanced", vec![VoOp::Begin]),
        ("dict ref out of range", vec![VoOp::Ref(999)]),
    ];
    for (name, ops) in abuse {
        let forged = CompactResponse {
            parts: vec![CompactPart {
                rows: Vec::new(),
                top: honest.parts[0].top.clone(),
                ops,
            }],
            dict: Vec::new(),
            agg_sig: None,
            key_version: honest.key_version,
            freshness: ResponseFreshness::default(),
        };
        let materialized = client.verify_compact(
            f.signer.verifier().as_ref(),
            std::slice::from_ref(&q),
            &forged,
        );
        assert!(
            matches!(materialized, Err(VerifyError::MalformedVo { .. })),
            "{name}: materialized verifier must reject, got {materialized:?}"
        );
        let streamed = client.verify_compact_stream(
            f.signer.verifier().as_ref(),
            std::slice::from_ref(&q),
            &encode_compact_response(&forged),
            &mut |_, _| {},
        );
        assert!(
            matches!(streamed, Err(VerifyError::MalformedVo { .. })),
            "{name}: streaming verifier must reject, got {streamed:?}"
        );
    }
}

#[test]
fn compact_aggregate_sig_flips_are_bad_signatures() {
    let f = fixture(30);
    let q = RangeQuery::select_all(2, 21);
    let (resp, bytes) = compact_fixture(&f, &q);
    let agg_len = resp.agg_sig.as_ref().unwrap().len();
    let client = ClientVerifier::new(&f.acc, f.table.schema());
    // The aggregate signature sits right after magic + key_version +
    // empty dict + flag + sig_len.
    let agg_at = 4 + 4 + 4 + 1 + 2;
    for off in [0, agg_len / 2, agg_len - 1] {
        let mut flipped = bytes.clone();
        flipped[agg_at + off] ^= 0x40;
        let decoded = decode_compact_response(&flipped, &f.acc).unwrap();
        assert_eq!(
            client
                .verify_compact(
                    f.signer.verifier().as_ref(),
                    std::slice::from_ref(&q),
                    &decoded
                )
                .unwrap_err(),
            VerifyError::BadSignature { part: "aggregate" }
        );
    }
}

// ---------------------------------------------------------------------
// WAL record codec + framing (durability subsystem)
// ---------------------------------------------------------------------

type WalPayloads = Vec<Vec<u8>>;

/// One honestly encoded WAL record of each kind (single-op commit,
/// group-committed batch, heartbeat), as the durable central logs them.
fn wal_records() -> (Fixture, WalPayloads) {
    let f = fixture(24);
    let scheme = VbScheme::new(f.acc.clone(), f.tree.config().clone());
    let schema = f.table.schema().clone();
    let mut tree = f.tree.clone();
    let tuple = |key: u64| {
        vbx_storage::Tuple::new(
            &schema,
            key,
            vec![
                vbx_storage::Value::from("a"),
                vbx_storage::Value::from("b"),
                vbx_storage::Value::from(9i64),
            ],
        )
        .unwrap()
    };

    let ops = vec![UpdateOp::Insert(tuple(700))];
    let payloads = scheme.update_batch(&mut tree, &ops, &f.signer).unwrap();
    let txn = TxnBatch {
        sections: vec![DeltaBatch {
            start_seq: 4,
            table: "t".to_string(),
            ops,
            payloads,
            key_version: f.signer.key_version(),
            stamp: None,
        }],
        stamp: Some(FreshnessStamp::sign(&f.signer, 5, 11)),
    };
    let commit_txn = encode_wal_commit_txn(&scheme, 11, &txn);

    let ops = vec![UpdateOp::Insert(tuple(701)), UpdateOp::Delete(3)];
    let payloads = scheme.update_batch(&mut tree, &ops, &f.signer).unwrap();
    let batch = DeltaBatch {
        start_seq: 5,
        table: "t".to_string(),
        ops,
        payloads,
        key_version: f.signer.key_version(),
        stamp: Some(FreshnessStamp::sign(&f.signer, 7, 12)),
    };
    let commit_batch = encode_wal_commit_batch(&scheme, 12, &batch);

    let heartbeat = encode_wal_heartbeat(13, &FreshnessStamp::sign(&f.signer, 7, 13));

    (f, vec![commit_txn, commit_batch, heartbeat])
}

#[test]
fn wal_record_truncations_error_never_panic() {
    let (f, records) = wal_records();
    let scheme = VbScheme::new(f.acc.clone(), f.tree.config().clone());
    for (kind, bytes) in records.iter().enumerate() {
        for cut in 0..bytes.len() {
            assert!(
                decode_wal_record(&scheme, &bytes[..cut]).is_err(),
                "record kind {kind}: prefix of {cut} bytes must not decode"
            );
        }
        assert!(decode_wal_record(&scheme, bytes).is_ok());
    }
}

#[test]
fn wal_record_bit_flips_never_panic() {
    let (f, records) = wal_records();
    let scheme = VbScheme::new(f.acc.clone(), f.tree.config().clone());
    for bytes in &records {
        for i in 0..bytes.len() {
            for bit in [0x01u8, 0x80] {
                let mut flipped = bytes.clone();
                flipped[i] ^= bit;
                // A flip in a non-semantic byte (e.g. the clock) may
                // still decode; a flip anywhere else must error. Either
                // way: no panic, no unbounded allocation. (On disk the
                // frame CRC catches all of these first — this is the
                // codec's own last line of defense.)
                let _ = decode_wal_record(&scheme, &flipped);
            }
        }
    }
}

#[test]
fn wal_framing_survives_truncation_length_lies_and_checksum_flips() {
    use vbx_storage::wal::{scan_bytes, MAX_RECORD_LEN};
    use vbx_storage::WalTail;

    let payloads: [&[u8]; 3] = [b"first record", b"", b"third, longest record of all"];
    let frame = |p: &[u8]| {
        let mut out = (p.len() as u32).to_be_bytes().to_vec();
        out.extend_from_slice(&vbx_storage::crc32(p).to_be_bytes());
        out.extend_from_slice(p);
        out
    };
    let mut file = b"VWAL1\x00\x00\x00".to_vec();
    let mut boundaries = vec![file.len()];
    for p in payloads {
        file.extend_from_slice(&frame(p));
        boundaries.push(file.len());
    }

    let clean = scan_bytes(&file).unwrap();
    assert_eq!(clean.records, payloads.map(<[u8]>::to_vec));
    assert_eq!(clean.tail, WalTail::Clean);

    // Every truncation keeps exactly the records whose frames survived
    // whole — the longest valid prefix, never a panic, never a partial
    // record surfacing as data.
    for cut in 0..file.len() {
        let scan = scan_bytes(&file[..cut]).unwrap();
        let whole = boundaries
            .iter()
            .filter(|b| **b <= cut)
            .count()
            .saturating_sub(1); // cuts inside the magic keep no records
        assert_eq!(scan.records.len(), whole, "cut at {cut}");
        assert_eq!(
            scan.records,
            payloads[..whole]
                .iter()
                .map(|p| p.to_vec())
                .collect::<Vec<_>>()
        );
        // A cut on a frame boundary (or the empty never-created file)
        // ends Clean; anywhere else leaves a discarded torn tail.
        if cut != 0 && !boundaries.contains(&cut) {
            assert!(matches!(scan.tail, WalTail::Torn { .. }), "cut at {cut}");
        }
    }

    // A length lie on the second record: absurd lengths and
    // past-the-end lengths both stop the scan there, keeping record 1.
    let lie_at = boundaries[1];
    for lie in [MAX_RECORD_LEN + 1, u32::MAX, file.len() as u32] {
        let mut forged = file.clone();
        forged[lie_at..lie_at + 4].copy_from_slice(&lie.to_be_bytes());
        let scan = scan_bytes(&forged).unwrap();
        assert_eq!(scan.records, vec![payloads[0].to_vec()], "lie {lie}");
        assert!(matches!(scan.tail, WalTail::Torn { offset, .. } if offset == lie_at));
    }

    // A bit-flip anywhere in a frame (header or payload) invalidates
    // that record and everything after it — flipped bytes never
    // surface as record data.
    for i in boundaries[0]..file.len() {
        for bit in [0x01u8, 0x80] {
            let mut flipped = file.clone();
            flipped[i] ^= bit;
            let scan = scan_bytes(&flipped).unwrap();
            for rec in &scan.records {
                assert!(
                    payloads.contains(&rec.as_slice()),
                    "flip at {i} surfaced corrupt record data"
                );
            }
        }
    }

    // A flipped magic rejects the whole file as corrupt rather than
    // misparsing it.
    let mut bad_magic = file.clone();
    bad_magic[0] ^= 0x01;
    assert!(scan_bytes(&bad_magic).is_err());
}

#[test]
fn compact_bit_flips_never_panic_decode_or_verify() {
    let f = fixture(20);
    let q = RangeQuery::select_all(2, 13);
    let (_, bytes) = compact_fixture(&f, &q);
    let client = ClientVerifier::new(&f.acc, f.table.schema());
    for i in 0..bytes.len() {
        for bit in [0x01u8, 0x80] {
            let mut flipped = bytes.clone();
            flipped[i] ^= bit;
            // Decode rejection, verification rejection, or (for bytes
            // outside the authenticated content, e.g. the advisory
            // applied_seq) acceptance — but never a panic, on either
            // the materialized or the streaming path.
            if let Ok(resp) = decode_compact_response(&flipped, &f.acc) {
                let _ = client.verify_compact(
                    f.signer.verifier().as_ref(),
                    std::slice::from_ref(&q),
                    &resp,
                );
            }
            let _ = client.verify_compact_stream(
                f.signer.verifier().as_ref(),
                std::slice::from_ref(&q),
                &flipped,
                &mut |_, _| {},
            );
        }
    }
}

// ---------------------------------------------------------------------
// VBX5 frame layer (the transport's message framing)
// ---------------------------------------------------------------------

use vbx_core::frame::FRAME_HEADER_LEN;
use vbx_core::{ErrorCode, Frame, FrameBuffer, FrameKind, NetMsg, MAX_FRAME_LEN};

/// One honest frame of every message kind the protocol speaks, with
/// payloads that exercise every field codec (strings, queries, options,
/// verbatim envelopes).
fn frame_zoo() -> Vec<(NetMsg, Vec<u8>)> {
    let f = fixture(12);
    let stamp = FreshnessStamp::sign(&f.signer, 3, 7);
    let msgs = vec![
        NetMsg::Ping,
        NetMsg::Pong { applied_seq: 42 },
        NetMsg::RangeReq {
            table: "t".to_string(),
            query: RangeQuery::select_all(0, 5),
        },
        NetMsg::SqlReq {
            sql: "SELECT * FROM t WHERE k BETWEEN 0 AND 5".to_string(),
        },
        NetMsg::CompactReq {
            table: "t".to_string(),
            queries: vec![RangeQuery::select_all(0, 5), RangeQuery::select_all(9, 11)],
            aggregate: true,
        },
        NetMsg::BundleReq,
        NetMsg::Subscribe { cursor: 17 },
        NetMsg::PollDeltas { max: 64 },
        NetMsg::HeartbeatReq,
        NetMsg::QueryResp(stamped_bytes(&f, &RangeQuery::select_all(0, 5)).1),
        NetMsg::CompactResp(compact_fixture(&f, &RangeQuery::select_all(0, 5)).1),
        NetMsg::BundleResp(vec![0xAB; 97]),
        NetMsg::DeltaBatch(batch_fixture().3),
        NetMsg::DeltaTxn(vec![4, 5, 6, 7]),
        NetMsg::SkipRange {
            start_seq: 9,
            count: 4,
        },
        NetMsg::Stamp { stamp: Some(stamp) },
        NetMsg::Stamp { stamp: None },
        NetMsg::SubAck {
            head: 30,
            oldest: 12,
        },
        NetMsg::Ack { applied_seq: 30 },
        NetMsg::ChunkRequest {
            table: "t".to_string(),
            index: 3,
        },
        NetMsg::Chunk(vec![0xC4; 61]),
        NetMsg::RestoreDone {
            chunks: 5,
            head: 88,
        },
        NetMsg::Error {
            code: ErrorCode::Lagging,
            message: "subscription overflowed".to_string(),
        },
    ];
    msgs.into_iter()
        .map(|m| {
            let bytes = m.to_frame().encode();
            (m, bytes)
        })
        .collect()
}

#[test]
fn frame_truncations_error_never_panic() {
    for (msg, bytes) in frame_zoo() {
        // Strict one-shot decode: every proper prefix must error.
        for cut in 0..bytes.len() {
            assert!(
                Frame::decode(&bytes[..cut]).is_err(),
                "{:?}: prefix of {cut} bytes must not decode",
                msg.kind()
            );
        }
        let frame = Frame::decode(&bytes).unwrap();
        assert_eq!(NetMsg::from_frame(&frame).unwrap(), msg);

        // The incremental buffer treats the same prefixes as
        // need-more-bytes, never as a frame and never as corruption.
        for cut in 0..bytes.len() {
            let mut buf = FrameBuffer::new();
            buf.extend(&bytes[..cut]);
            assert!(
                matches!(buf.try_frame(), Ok(None)),
                "{:?}: prefix of {cut} bytes must stay pending",
                msg.kind()
            );
        }
    }
}

#[test]
fn frame_length_lies_error_without_blowup() {
    let bytes = NetMsg::Subscribe { cursor: 5 }.to_frame().encode();
    for lie in [
        0u32,
        (MAX_FRAME_LEN as u32) + 1,
        u32::MAX,
        (bytes.len() as u32) * 2,
    ] {
        let mut forged = bytes.clone();
        forged[0..4].copy_from_slice(&lie.to_be_bytes());
        assert!(Frame::decode(&forged).is_err(), "length lie {lie}");
        let mut buf = FrameBuffer::new();
        buf.extend(&forged);
        // An absurd length is corruption; a plausible-but-wrong one is
        // indistinguishable from a short read until the checksum runs.
        // Either way, no frame and no panic.
        if let Ok(Some(_)) = buf.try_frame() {
            panic!("length lie {lie} must not produce a frame")
        }
    }
}

#[test]
fn frame_checksum_and_kind_corruption_is_rejected() {
    for (msg, bytes) in frame_zoo() {
        // Flip one bit of the stored CRC: both decoders must reject.
        let mut bad_crc = bytes.clone();
        bad_crc[5] ^= 0x10;
        assert!(Frame::decode(&bad_crc).is_err(), "{:?}", msg.kind());
        let mut buf = FrameBuffer::new();
        buf.extend(&bad_crc);
        assert!(buf.try_frame().is_err(), "{:?}", msg.kind());

        // Flip one payload bit: the CRC catches it before any payload
        // parsing happens.
        if bytes.len() > FRAME_HEADER_LEN + 1 {
            let mut bad_payload = bytes.clone();
            let last = bad_payload.len() - 1;
            bad_payload[last] ^= 0x01;
            assert!(Frame::decode(&bad_payload).is_err(), "{:?}", msg.kind());
        }
    }

    // An unknown kind tag with a *correct* checksum still errors.
    for tag in [0x00u8, 0x2C, 0x7F, 0xFF] {
        assert!(
            FrameKind::from_tag(tag).is_none(),
            "tag {tag:#x} is unassigned"
        );
        let mut raw = Vec::new();
        let payload: &[u8] = b"";
        raw.extend_from_slice(&(1u32 + payload.len() as u32).to_be_bytes());
        let mut body = vec![tag];
        body.extend_from_slice(payload);
        raw.extend_from_slice(&vbx_storage::crc32(&body).to_be_bytes());
        raw.extend_from_slice(&body);
        assert!(Frame::decode(&raw).is_err(), "unknown kind {tag:#x}");
        let mut buf = FrameBuffer::new();
        buf.extend(&raw);
        assert!(buf.try_frame().is_err(), "unknown kind {tag:#x}");
    }
}

#[test]
fn frame_buffer_reassembles_arbitrary_chunkings() {
    let zoo = frame_zoo();
    let stream: Vec<u8> = zoo.iter().flat_map(|(_, b)| b.clone()).collect();

    // Byte-at-a-time, tiny chunks, and one giant write must all yield
    // the identical frame sequence.
    for chunk in [1usize, 3, 7, stream.len()] {
        let mut buf = FrameBuffer::new();
        let mut out = Vec::new();
        for piece in stream.chunks(chunk) {
            buf.extend(piece);
            while let Some(frame) = buf.try_frame().unwrap() {
                out.push(NetMsg::from_frame(&frame).unwrap());
            }
        }
        assert_eq!(buf.pending(), 0, "chunk size {chunk}");
        assert_eq!(
            out,
            zoo.iter().map(|(m, _)| m.clone()).collect::<Vec<_>>(),
            "chunk size {chunk}"
        );
    }
}

#[test]
fn frame_stream_bit_flips_never_panic() {
    let zoo = frame_zoo();
    // A short stream of three frames; flip every bit position once.
    let stream: Vec<u8> = zoo[..3].iter().flat_map(|(_, b)| b.clone()).collect();
    for i in 0..stream.len() {
        for bit in [0x01u8, 0x80] {
            let mut flipped = stream.clone();
            flipped[i] ^= bit;
            let mut buf = FrameBuffer::new();
            buf.extend(&flipped);
            // Drain until the corruption surfaces (Err) or the buffer
            // runs dry — whichever comes first, without panicking. A
            // frame that does come out intact must be one of the
            // originals (the flip landed in a later frame).
            loop {
                match buf.try_frame() {
                    Ok(Some(frame)) => {
                        let msg = NetMsg::from_frame(&frame);
                        if let Ok(msg) = msg {
                            assert!(
                                zoo.iter().any(|(m, _)| *m == msg),
                                "flip at {i} surfaced a forged message"
                            );
                        }
                    }
                    Ok(None) => break,
                    Err(_) => break,
                }
            }
        }
    }
}

#[test]
fn net_msg_rejects_trailing_bytes() {
    let frame = NetMsg::Subscribe { cursor: 9 }.to_frame();
    let mut padded = frame.clone();
    padded.payload.push(0);
    assert!(NetMsg::from_frame(&padded).is_err());

    // Envelope-carrying kinds are verbatim passthroughs: bytes are the
    // payload, so "trailing" bytes are simply part of the envelope and
    // the *envelope* decoder rejects them later.
    let resp = NetMsg::QueryResp(vec![9, 9, 9]);
    assert_eq!(NetMsg::from_frame(&resp.to_frame()).unwrap(), resp);
}
