//! The group-commit write pipeline, end to end: batched commits at the
//! central server (one signing sweep + one stamp for `k` ops), the
//! opt-in coalescing queue, batch replay at the edge (one snapshot
//! clone + one swap + one cache invalidation), single-envelope cluster
//! fan-out with range placeholders, and — via the new generic
//! `SchemeClient::verify_range_fresh` — staleness detection for the
//! Naive and Merkle baselines, closing the "freshness is VB-tree-only"
//! gap.

use std::sync::Arc;
use vbx_baselines::{MerkleScheme, NaiveScheme};
use vbx_core::{
    decode_delta_batch, encode_delta_batch, encode_tree, AuthScheme, DurableScheme,
    FreshnessPolicy, RangeQuery, VbScheme, VbTreeConfig, VerifyError,
};
use vbx_crypto::signer::MockSigner;
use vbx_crypto::Acc256;
use vbx_edge::{
    CentralServer, ClusterConfig, ClusterCoordinator, DurabilityConfig, EdgeServer,
    GroupCommitConfig, KeyFreshnessPolicy, SchemeClient, SchemeClientError, UpdateOp,
};
use vbx_storage::wal::WAL_FILE;
use vbx_storage::workload::WorkloadSpec;
use vbx_storage::{MemVfs, Schema, Table, Tuple, Value, Vfs};

fn fresh_tuple(schema: &Schema, key: u64) -> Tuple {
    Tuple::new(
        schema,
        key,
        vec![
            Value::from(format!("new{key}")),
            Value::from("w"),
            Value::from((key % 97) as i64),
        ],
    )
    .expect("schema-conformant tuple")
}

fn items_table(rows: u64) -> Table {
    WorkloadSpec {
        table: "items".into(),
        ..WorkloadSpec::new(rows, 3, 8)
    }
    .build()
}

fn mixed_ops(schema: &Schema, n: usize) -> Vec<UpdateOp> {
    (0..n as u64)
        .map(|i| match i % 3 {
            0 => UpdateOp::Insert(fresh_tuple(schema, 5_000 + i)),
            1 => UpdateOp::Delete(2 * i + 1),
            _ => UpdateOp::DeleteRange(10 * i + 100, 10 * i + 102),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Central commit + edge apply
// ---------------------------------------------------------------------

#[test]
fn batched_commit_applies_at_the_edge_identically_to_per_op() {
    let signer = Arc::new(MockSigner::with_version(0x6C, 1));
    let acc = Acc256::test_default();
    let table = items_table(80);
    let schema = table.schema().clone();
    let ops = mixed_ops(&schema, 9);

    // Per-op reference pipeline: every op commits as a batch of one.
    let mut per_op = CentralServer::new(acc.clone(), signer.clone(), VbTreeConfig::with_fanout(6));
    per_op.create_table(table.clone());
    let per_op_edge = EdgeServer::from_bundle(per_op.bundle());
    for op in ops.clone() {
        let delta = match op {
            UpdateOp::Insert(t) => per_op.insert("items", t),
            UpdateOp::Delete(k) => per_op.delete("items", k),
            UpdateOp::DeleteRange(lo, hi) => per_op.delete_range("items", lo, hi),
        }
        .expect("per-op commit");
        per_op_edge
            .apply_delta_batch(&delta)
            .expect("per-op replay");
    }

    // Group-commit pipeline: one batch, one edge apply.
    let mut grouped = CentralServer::new(acc.clone(), signer.clone(), VbTreeConfig::with_fanout(6));
    grouped.create_table(table);
    let grouped_edge = EdgeServer::from_bundle(grouped.bundle());
    let swaps_before = grouped_edge
        .service()
        .replica("items")
        .unwrap()
        .published_count();
    let batch = grouped
        .execute_update_batch("items", ops)
        .expect("batched commit");
    assert_eq!(batch.start_seq, 0);
    assert_eq!(batch.end_seq(), 9);
    grouped_edge
        .apply_delta_batch(&batch)
        .expect("batch replay");

    // Same sequence position, byte-identical replica trees.
    assert_eq!(grouped_edge.applied_seq(), per_op_edge.applied_seq());
    assert_eq!(
        encode_tree(&*grouped_edge.tree("items").unwrap()),
        encode_tree(&*per_op_edge.tree("items").unwrap()),
        "batched and per-op replicas must converge byte-identically"
    );
    // k ops → exactly one successor snapshot published.
    let swaps = grouped_edge
        .service()
        .replica("items")
        .unwrap()
        .published_count()
        - swaps_before;
    assert_eq!(swaps, 1, "a batch must cost one snapshot swap, not k");

    // The batch travels the wire intact and replays on a fresh replica.
    let bytes = encode_delta_batch(&batch);
    let decoded = decode_delta_batch(&bytes, &acc).expect("wire roundtrip");
    let wire_edge =
        EdgeServer::from_bundle_with_scheme(VbScheme::new(acc, VbTreeConfig::with_fanout(6)), {
            let mut fresh =
                CentralServer::new(Acc256::test_default(), signer, VbTreeConfig::with_fanout(6));
            fresh.create_table(items_table(80));
            fresh.bundle()
        });
    wire_edge.apply_delta_batch(&decoded).expect("wire replay");
    assert_eq!(
        encode_tree(&*wire_edge.tree("items").unwrap()),
        encode_tree(&*per_op_edge.tree("items").unwrap()),
    );
}

#[test]
fn batch_replays_on_a_wire_provisioned_replica() {
    // Regression: arena NodeIds are NOT canonical — `decode_tree`
    // renumbers nodes in postorder while bulk loads assign them level
    // by level — so a replica provisioned from the *serialized* bundle
    // (the bytes the central server actually ships) has different ids
    // than the central tree. The batch sweep must therefore walk in
    // structural order; an id-ordered sweep makes any batch touching
    // two non-nested paths fail as ReplicaDivergence on such a replica.
    let signer = Arc::new(MockSigner::with_version(0x75, 1));
    let mut central =
        CentralServer::new(Acc256::test_default(), signer, VbTreeConfig::with_fanout(6));
    central.create_table(items_table(80));
    let schema = central.tree("items").unwrap().schema().clone();
    let edge = EdgeServer::from_bundle(
        vbx_edge::EdgeBundle::from_bytes(&central.bundle().to_bytes(), central.accumulator())
            .expect("bundle wire roundtrip"),
    );

    // Two ops on widely separated keys: distinct leaves under the root.
    let batch = central
        .execute_update_batch(
            "items",
            vec![
                UpdateOp::Delete(0),
                UpdateOp::Delete(79),
                UpdateOp::Insert(fresh_tuple(&schema, 2_000)),
            ],
        )
        .expect("batched commit");
    edge.apply_delta_batch(&batch)
        .expect("wire-provisioned replica must replay an honest multi-path batch");
    assert_eq!(
        edge.tree("items").unwrap().root_digest().exp,
        central.tree("items").unwrap().root_digest().exp,
    );
    edge.tree("items").unwrap().check_integrity(None).unwrap();
}

#[test]
fn batch_out_of_order_and_empty_batches() {
    let signer = Arc::new(MockSigner::with_version(0x6D, 1));
    let mut central =
        CentralServer::new(Acc256::test_default(), signer, VbTreeConfig::with_fanout(6));
    central.create_table(items_table(40));
    let schema = central.tree("items").unwrap().schema().clone();
    let edge = EdgeServer::from_bundle(central.bundle());

    // An empty batch commits nothing, logs nothing, stamps nothing.
    let empty = central
        .execute_update_batch("items", Vec::new())
        .expect("empty batch is a no-op");
    assert!(empty.is_empty());
    assert_eq!(central.delta_log().next_seq(), 0);
    edge.apply_delta_batch(&empty).expect("no-op at the edge");
    assert_eq!(edge.applied_seq(), 0);

    // A replica refuses a batch that does not start at its position.
    let batch = central
        .execute_update_batch("items", vec![UpdateOp::Insert(fresh_tuple(&schema, 900))])
        .unwrap();
    edge.apply_delta_batch(&batch).expect("in-order batch");
    let err = edge.apply_delta_batch(&batch).unwrap_err();
    assert!(
        matches!(
            err,
            vbx_edge::EdgeError::OutOfOrder {
                expected: 1,
                got: 0
            }
        ),
        "replaying the same batch must be out of order, got {err}"
    );
}

// ---------------------------------------------------------------------
// The opt-in coalescing queue
// ---------------------------------------------------------------------

#[test]
fn failed_baseline_batch_restores_store_and_catalog() {
    // The baselines use the trait's default per-op `update_batch` loop,
    // which snapshots the store so a failing op restores the pre-batch
    // store — otherwise the never-logged
    // prefix would silently diverge the central store from its catalog
    // and every replica.
    let signer = Arc::new(MockSigner::with_version(0x76, 1));
    let table = WorkloadSpec {
        table: "n".into(),
        ..WorkloadSpec::new(30, 3, 8)
    }
    .build();
    let mut central =
        CentralServer::with_scheme(NaiveScheme::<4>::new(Acc256::test_default()), signer);
    central.create_table(table);
    let len_before = central.store("n").unwrap().len();

    // Delete(3) applies, then Delete(999_999) fails.
    let err = central
        .execute_update_batch("n", vec![UpdateOp::Delete(3), UpdateOp::Delete(999_999)])
        .unwrap_err();
    assert!(matches!(err, vbx_edge::CentralError::Scheme(_)));
    assert_eq!(
        central.store("n").unwrap().len(),
        len_before,
        "failed batch must not leave a half-applied store"
    );
    assert_eq!(central.delta_log().next_seq(), 0, "nothing may be logged");

    // The restored state commits cleanly afterwards.
    let batch = central
        .execute_update_batch("n", vec![UpdateOp::Delete(3)])
        .expect("restored store accepts the valid prefix again");
    assert_eq!(batch.len(), 1);
    assert_eq!(central.store("n").unwrap().len(), len_before - 1);
}

#[test]
fn group_commit_queue_coalesces_to_max_batch() {
    let signer = Arc::new(MockSigner::with_version(0x6E, 1));
    let mut central =
        CentralServer::new(Acc256::test_default(), signer, VbTreeConfig::with_fanout(6))
            .with_group_commit(GroupCommitConfig {
                max_batch: 4,
                commit_interval: u64::MAX,
            });
    central.create_table(items_table(40));
    let schema = central.tree("items").unwrap().schema().clone();
    let edge = EdgeServer::from_bundle(central.bundle());

    // Three enqueues: nothing commits yet.
    for i in 0..3u64 {
        let flushed = central
            .enqueue_update("items", UpdateOp::Insert(fresh_tuple(&schema, 700 + i)))
            .unwrap();
        assert!(flushed.is_empty(), "below max_batch nothing may commit");
    }
    assert_eq!(central.pending_commits(), 3);
    assert_eq!(central.delta_log().next_seq(), 0);

    // The fourth reaches max_batch: one 4-op batch commits.
    let flushed = central
        .enqueue_update("items", UpdateOp::Delete(7))
        .unwrap();
    let batches = flushed
        .batches()
        .expect("a single-table flush commits plain batches");
    assert_eq!(batches.len(), 1);
    assert_eq!(batches[0].len(), 4);
    let batch = batches[0].clone();
    assert_eq!(central.pending_commits(), 0);
    assert_eq!(central.delta_log().next_seq(), 4);
    edge.apply_delta_batch(&batch).unwrap();
    assert_eq!(edge.applied_seq(), 4);
    assert!(edge.tree("items").unwrap().get(700).is_some());
    assert!(edge.tree("items").unwrap().get(7).is_none());
}

#[test]
fn group_commit_flush_groups_multi_table_runs_into_one_txn() {
    let signer = Arc::new(MockSigner::with_version(0x6F, 1));
    let mut central =
        CentralServer::new(Acc256::test_default(), signer, VbTreeConfig::with_fanout(6))
            .with_group_commit(GroupCommitConfig {
                max_batch: 16,
                commit_interval: u64::MAX,
            });
    central.create_table(items_table(40));
    central.create_table({
        let mut spec = WorkloadSpec::new(40, 3, 8);
        spec.table = "other".into();
        spec.build()
    });
    let schema = central.tree("items").unwrap().schema().clone();
    let other_schema = central.tree("other").unwrap().schema().clone();

    // a a b b b a → three single-table runs, arrival order preserved.
    central
        .enqueue_update("items", UpdateOp::Insert(fresh_tuple(&schema, 800)))
        .unwrap();
    central
        .enqueue_update("items", UpdateOp::Insert(fresh_tuple(&schema, 801)))
        .unwrap();
    for i in 0..3u64 {
        central
            .enqueue_update(
                "other",
                UpdateOp::Insert(fresh_tuple(&other_schema, 810 + i)),
            )
            .unwrap();
    }
    central
        .enqueue_update("items", UpdateOp::Delete(5))
        .unwrap();
    let flushed = central.flush_group_commit().unwrap();
    let txn = flushed
        .txn()
        .expect("a multi-table flush commits one atomic txn");
    assert_eq!(
        txn.sections
            .iter()
            .map(|b| (b.table.as_str(), b.len(), b.start_seq))
            .collect::<Vec<_>>(),
        vec![("items", 2, 0), ("other", 3, 2), ("items", 1, 5)],
        "txn sections keep consecutive same-table runs in arrival order"
    );
    assert!(
        txn.is_contiguous(),
        "sections must chain seamlessly through the seq space"
    );
    assert_eq!(central.pending_commits(), 0);
    assert_eq!(central.delta_log().next_seq(), 6);
}

#[test]
fn group_commit_interval_flushes_aged_ops() {
    let signer = Arc::new(MockSigner::with_version(0x70, 1));
    let mut central =
        CentralServer::new(Acc256::test_default(), signer, VbTreeConfig::with_fanout(6))
            .with_group_commit(GroupCommitConfig {
                max_batch: 1_000,
                commit_interval: 2,
            });
    central.create_table(items_table(40));
    let schema = central.tree("items").unwrap().schema().clone();

    central
        .enqueue_update("items", UpdateOp::Insert(fresh_tuple(&schema, 820)))
        .unwrap();
    assert_eq!(central.pending_commits(), 1);
    // One clock tick is below the interval: the op stays queued.
    central.heartbeat();
    assert_eq!(central.pending_commits(), 1);
    // The second tick ages it past the interval and the heartbeat
    // itself flushes the run — a quiet queue no longer holds a pending
    // op hostage until the next enqueue arrives.
    central.heartbeat();
    assert_eq!(central.pending_commits(), 0);
    assert_eq!(central.delta_log().next_seq(), 1);

    // The enqueue-side trigger still works when the clock advances
    // through commits rather than heartbeats.
    central
        .enqueue_update("items", UpdateOp::Insert(fresh_tuple(&schema, 821)))
        .unwrap();
    central.heartbeat();
    central.heartbeat();
    assert_eq!(
        central.pending_commits(),
        0,
        "every aged run flushes without an enqueue"
    );
    assert_eq!(central.delta_log().next_seq(), 2);
}

#[test]
fn failed_multi_table_flush_drops_the_whole_txn() {
    let signer = Arc::new(MockSigner::with_version(0x74, 1));
    let mut central =
        CentralServer::new(Acc256::test_default(), signer, VbTreeConfig::with_fanout(6))
            .with_group_commit(GroupCommitConfig {
                max_batch: 16,
                commit_interval: u64::MAX,
            });
    central.create_table(items_table(40));
    let schema = central.tree("items").unwrap().schema().clone();
    let edge = EdgeServer::from_bundle(central.bundle());

    // Run 1 (items), run 2 (missing table), run 3 (items again): the
    // grouped flush is one atomic txn, so the bad middle run aborts
    // the *whole* thing — no partial-flush surface, no half-commit.
    central
        .enqueue_update("items", UpdateOp::Insert(fresh_tuple(&schema, 840)))
        .unwrap();
    central
        .enqueue_update("ghost", UpdateOp::Delete(1))
        .unwrap();
    central
        .enqueue_update("items", UpdateOp::Delete(7))
        .unwrap();
    // A failed flush is a plain `CentralError`: it has no way to carry
    // stray committed batches.
    let err = central.flush_group_commit().unwrap_err();
    assert!(matches!(
        err,
        vbx_edge::CentralError::UnknownTable(ref t) if t == "ghost"
    ));
    assert_eq!(central.delta_log().next_seq(), 0, "nothing may be logged");
    assert_eq!(
        central.pending_commits(),
        0,
        "the failed txn's ops are dropped as a unit, not re-queued"
    );

    // The untouched central accepts a clean commit afterwards, and the
    // dropped txn's insert never surfaces.
    central
        .enqueue_update("items", UpdateOp::Delete(7))
        .unwrap();
    let retried = central.flush_group_commit().unwrap();
    let batches = retried.batches().expect("single-table flush");
    assert_eq!(batches.len(), 1);
    edge.apply_delta_batch(&batches[0]).unwrap();
    assert!(edge.tree("items").unwrap().get(7).is_none());
    assert!(
        edge.tree("items").unwrap().get(840).is_none(),
        "an op from the aborted txn must never commit"
    );
    assert_eq!(edge.applied_seq(), central.delta_log().next_seq());
}

#[test]
fn enqueue_without_group_commit_commits_immediately() {
    let signer = Arc::new(MockSigner::with_version(0x71, 1));
    let mut central =
        CentralServer::new(Acc256::test_default(), signer, VbTreeConfig::with_fanout(6));
    central.create_table(items_table(40));
    let schema = central.tree("items").unwrap().schema().clone();
    let flushed = central
        .enqueue_update("items", UpdateOp::Insert(fresh_tuple(&schema, 830)))
        .unwrap();
    let batches = flushed.batches().expect("immediate commit");
    assert_eq!(batches.len(), 1);
    assert_eq!(batches[0].len(), 1);
    assert_eq!(central.delta_log().next_seq(), 1);
}

// ---------------------------------------------------------------------
// Cluster fan-out
// ---------------------------------------------------------------------

#[test]
fn cluster_fans_a_batch_out_as_one_envelope() {
    let signer = Arc::new(MockSigner::with_version(0x72, 1));
    let scheme = VbScheme::<4>::new(Acc256::test_default(), VbTreeConfig::with_fanout(6));
    let mut c = ClusterCoordinator::new(
        scheme,
        signer,
        ClusterConfig {
            edges: 3,
            retention: 64,
            ..ClusterConfig::default()
        },
    );
    for i in 0..3 {
        let spec = WorkloadSpec {
            table: format!("t{i}"),
            ..WorkloadSpec::new(40, 3, 8)
        };
        c.create_table(spec.build());
    }
    c.sync().unwrap();
    let schema = c.central().schema("t0").unwrap().clone();

    // An 8-op batch on t0: the owner's queue gets ONE envelope, every
    // other edge ONE range placeholder.
    let ops: Vec<UpdateOp> = (0..8u64)
        .map(|i| UpdateOp::Insert(fresh_tuple(&schema, 900 + i)))
        .collect();
    let batch = c.update_batch("t0", ops).unwrap();
    assert_eq!(batch.len(), 8);
    let lags = c.lag_report();
    assert!(
        lags.iter().all(|l| l.queued == 1),
        "one queue item per edge for an 8-op batch: {lags:?}"
    );
    assert!(lags.iter().all(|l| l.lag == 8));

    // Draining one item advances every edge by the whole range.
    for e in 0..3 {
        assert_eq!(c.drain_edge(e, usize::MAX).unwrap(), 1);
    }
    let lags = c.lag_report();
    assert!(lags.iter().all(|l| l.lag == 0), "{lags:?}");

    // The batch's single stamp attests the end seq: a strict client
    // accepts the owning edge right after the drain.
    let q = RangeQuery::select_all(898, 910);
    let routed = c.query("t0", &q).unwrap();
    let (owner_seq, owner_clock) = c.owner_position();
    let verifier = c
        .central()
        .registry()
        .verifier(routed.response.vo.key_version)
        .unwrap();
    let acc = c.central().accumulator().clone();
    vbx_core::ClientVerifier::new(&acc, &schema)
        .with_freshness(FreshnessPolicy::strict(), owner_seq, owner_clock)
        .verify(verifier.as_ref(), &q, &routed.response)
        .expect("drained edge with a batch stamp must verify strictly");
}

// ---------------------------------------------------------------------
// Baseline freshness: staleness detection is no longer VB-tree-only
// ---------------------------------------------------------------------

/// Generic staleness scenario: commit through the coordinator, query
/// before and after draining the lagging edge's queue, verifying with
/// the scheme-generic freshness client.
fn baseline_staleness_detected<S>(scheme: S, table: Table)
where
    S: AuthScheme + Clone,
{
    let signer = Arc::new(MockSigner::with_version(0x73, 1));
    let mut c = ClusterCoordinator::new(
        scheme.clone(),
        signer.clone(),
        ClusterConfig {
            edges: 2,
            retention: 64,
            ..ClusterConfig::default()
        },
    );
    let name = table.schema().table.clone();
    let schema = table.schema().clone();
    c.create_table(table);
    c.sync().unwrap();

    let client = SchemeClient::new(
        scheme,
        [(name.clone(), schema.clone())].into_iter().collect(),
    );
    let q = RangeQuery::select_all(0, 30);
    let verify = |c: &ClusterCoordinator<S>| {
        let routed = c.query(&name, &q).expect("routed");
        let (owner_seq, owner_clock) = c.owner_position();
        client.verify_range_fresh(
            &name,
            &q,
            &routed.response,
            c.central().registry(),
            KeyFreshnessPolicy::RequireCurrent,
            FreshnessPolicy::strict(),
            owner_seq,
            owner_clock,
        )
    };

    // Fresh edge: strict policy passes for the baseline scheme.
    verify(&c).expect("fresh baseline edge must verify strictly");

    // Commit without draining: honest-but-stale, detected as Stale.
    c.central_mut()
        .execute_update_batch(&name, vec![UpdateOp::Delete(3), UpdateOp::Delete(5)])
        .expect("batched baseline commit");
    c.fan_out().unwrap();
    match verify(&c) {
        Err(SchemeClientError::Freshness(VerifyError::Stale { .. })) => {}
        other => panic!("lagging baseline edge must read as Stale, got {other:?}"),
    }

    // Drain: the same strict client accepts again, minus the deleted rows.
    let owner = c.route(&name).unwrap();
    c.drain_edge(owner, usize::MAX).unwrap();
    for e in 0..c.num_edges() {
        c.drain_edge(e, usize::MAX).unwrap();
    }
    let (batch, _) = verify(&c).expect("drained baseline edge verifies strictly again");
    assert!(batch.rows.iter().all(|r| r.key != 3 && r.key != 5));
}

#[test]
fn naive_scheme_staleness_detected() {
    let table = WorkloadSpec {
        table: "n0".into(),
        ..WorkloadSpec::new(40, 3, 8)
    }
    .build();
    baseline_staleness_detected(NaiveScheme::<4>::new(Acc256::test_default()), table);
}

#[test]
fn merkle_scheme_staleness_detected() {
    let table = WorkloadSpec {
        table: "m0".into(),
        ..WorkloadSpec::new(40, 3, 8)
    }
    .build();
    baseline_staleness_detected(MerkleScheme, table);
}

#[test]
fn vb_scheme_staleness_detected_via_generic_client() {
    // The same generic path also covers the VB-tree, so every scheme
    // shares one freshness pipeline.
    let table = items_table(40);
    baseline_staleness_detected(
        VbScheme::<4>::new(Acc256::test_default(), VbTreeConfig::with_fanout(6)),
        table,
    );
}

// ---------------------------------------------------------------------
// Failed commits change nothing
// ---------------------------------------------------------------------

/// Everything a failed commit must leave untouched: the full
/// recoverable state, the owner position, and the WAL.
fn durable_fingerprint<S: DurableScheme>(
    central: &CentralServer<S>,
    vfs: &MemVfs,
) -> (Vec<u8>, (u64, u64), usize) {
    let wal = vfs.read(WAL_FILE).unwrap().map_or(0, |b| b.len());
    (central.encode_state(), central.owner_position(), wal)
}

fn failed_commits_change_nothing<S: DurableScheme>(scheme: S) {
    let vfs = Arc::new(MemVfs::new());
    let config = DurabilityConfig {
        checkpoint_every: 0,
        ..DurabilityConfig::default()
    };
    let mut central = CentralServer::with_scheme(scheme, Arc::new(MockSigner::new(0x7A)))
        .with_delta_retention(64)
        .with_durability(vfs.clone(), config)
        .expect("durability init");
    central.create_table(items_table(20));
    central.create_table(
        WorkloadSpec {
            table: "other".into(),
            ..WorkloadSpec::new(20, 3, 8)
        }
        .build(),
    );
    let schema = central.schema("items").unwrap().clone();
    // One good commit of each shape, so the WAL and log are not empty.
    central.insert("items", fresh_tuple(&schema, 900)).unwrap();
    let mut txn = central.begin_txn();
    txn.stage("items", UpdateOp::Insert(fresh_tuple(&schema, 901)))
        .stage("other", UpdateOp::Delete(1));
    central.commit_txn(txn).unwrap();

    let before = durable_fingerprint(&central, &vfs);
    let check = |label: &str, central: &CentralServer<S>, failed: bool| {
        assert!(failed, "{} {label}: the commit must fail", S::NAME);
        assert!(
            durable_fingerprint(central, &vfs) == before,
            "{} {label}: a failed commit changed the state, position or WAL",
            S::NAME
        );
    };

    let failed = central.insert("ghost", fresh_tuple(&schema, 1)).is_err();
    check("unknown table", &central, failed);
    let failed = central.insert("items", fresh_tuple(&schema, 900)).is_err();
    check("duplicate-key insert", &central, failed);
    let failed = central.delete("items", 999_999).is_err();
    check("delete of a missing key", &central, failed);

    // Multi-table txns whose last section fails: once on a table an
    // earlier section already swept, once on a table only it touches.
    let mut txn = central.begin_txn();
    txn.stage("items", UpdateOp::Insert(fresh_tuple(&schema, 902)))
        .stage("other", UpdateOp::Delete(2))
        .stage("items", UpdateOp::Delete(999_999));
    let failed = central.commit_txn(txn).is_err();
    check("txn failing in a repeated table", &central, failed);
    let mut txn = central.begin_txn();
    txn.stage("items", UpdateOp::Insert(fresh_tuple(&schema, 903)))
        .stage("items", UpdateOp::Delete(3))
        .stage("other", UpdateOp::Delete(999_999));
    let failed = central.commit_txn(txn).is_err();
    check("txn failing in its last table", &central, failed);

    // The untouched central still commits, at the unchanged position.
    let batch = central
        .delete("items", 3)
        .expect("clean commit after failures");
    assert_eq!(batch.start_seq, before.1 .0);
}

#[test]
fn failed_commits_change_nothing_vb() {
    failed_commits_change_nothing(VbScheme::<4>::new(
        Acc256::test_default(),
        VbTreeConfig::with_fanout(6),
    ));
}

#[test]
fn failed_commits_change_nothing_naive() {
    failed_commits_change_nothing(NaiveScheme::<4>::new(Acc256::test_default()));
}

#[test]
fn failed_commits_change_nothing_merkle() {
    failed_commits_change_nothing(MerkleScheme);
}

#[test]
fn drop_table_takes_its_join_views_along() {
    // Regression: dropping one side of a join view left the view
    // behind, so every later commit on the other side failed in the
    // view refresh *after* changing that table's store and catalog —
    // diverging the central from its log, its WAL and every edge.
    let vfs = Arc::new(MemVfs::new());
    let signer = Arc::new(MockSigner::with_version(0x7B, 1));
    let scheme = VbScheme::<4>::new(Acc256::test_default(), VbTreeConfig::with_fanout(6));
    let config = DurabilityConfig::default();
    let mut central = CentralServer::with_scheme(scheme.clone(), signer.clone())
        .with_durability(vfs.clone(), config)
        .expect("durability init");
    for (table, seed) in [("orders", 7), ("parts", 4242)] {
        central.create_table(
            WorkloadSpec {
                table: table.into(),
                seed,
                ..WorkloadSpec::new(25, 3, 8)
            }
            .build(),
        );
    }
    let view = central
        .materialize_join("orders", "parts", "a2", "a2")
        .unwrap();

    assert!(central.drop_table("parts"));
    assert!(central.views().is_empty(), "the view went with its table");
    assert!(central.store(&view).is_none(), "and so did its store");

    let edge = EdgeServer::from_bundle(central.bundle());
    let batch = central
        .execute_update_batch("orders", vec![UpdateOp::Delete(0)])
        .expect("the surviving table still commits");
    assert_eq!(central.owner_position(), (1, 1));
    edge.apply_delta_batch(&batch).unwrap();
    assert!(edge.tree("orders").unwrap().get(0).is_none());

    // The drop and the commit are both durable.
    let recovered = CentralServer::recover(scheme, signer, vfs, config).expect("recovery");
    assert!(recovered.encode_state() == central.encode_state());
}
