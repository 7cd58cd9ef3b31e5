//! Property test for the durability subsystem: for **any** mix of
//! single-op commits, group-committed batches and heartbeats, under any
//! checkpoint cadence, recovery is path-independent —
//!
//! `recover(latest checkpoint + WAL suffix)`
//!   ≡ `recover(post-DDL checkpoint + full WAL)`
//!   ≡ a never-crashed in-memory control,
//!
//! byte-for-byte on `encode_state()`, for all three authentication
//! schemes. `retain_wal` keeps every record so the full-history replay
//! stays possible; the second recovery path is forced by restoring the
//! crash image's checkpoint directory to its post-`create_table` state.

use proptest::prelude::*;
use std::sync::Arc;
use vbx_baselines::{MerkleScheme, NaiveScheme};
use vbx_core::{DurableScheme, VbScheme, VbTreeConfig};
use vbx_crypto::signer::MockSigner;
use vbx_crypto::{Acc256, Signer};
use vbx_edge::{CentralServer, DurabilityConfig, UpdateOp};
use vbx_storage::workload::WorkloadSpec;
use vbx_storage::{FailpointFs, MemVfs, Schema, Tuple, Value, Vfs};

const TABLE: &str = "t0";
const TABLE2: &str = "t1";

#[derive(Clone, Debug)]
enum Op {
    Insert(u64),
    Delete(u64),
    DeleteRange(u64, u64),
    Batch(Vec<u64>),
    Heartbeat,
    /// Atomic multi-table txn: each `(table_sel, key)` stages an insert
    /// on `t0` (even sel) or `t1` (odd sel) — one `CommitTxn` record.
    Txn(Vec<(u8, u64)>),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u64..200).prop_map(Op::Insert),
        2 => (0u64..200).prop_map(Op::Delete),
        1 => (0u64..200, 0u64..30).prop_map(|(lo, span)| Op::DeleteRange(lo, lo + span)),
        2 => proptest::collection::vec(0u64..200, 1..4).prop_map(Op::Batch),
        1 => Just(Op::Heartbeat),
        2 => proptest::collection::vec((0u8..2, 0u64..200), 1..6).prop_map(Op::Txn),
    ]
}

fn tuple(schema: &Schema, key: u64) -> Tuple {
    Tuple::new(
        schema,
        key,
        vec![
            Value::from(format!("v{key:04}")),
            Value::from((key % 89) as i64),
        ],
    )
    .expect("schema-conformant tuple")
}

/// Apply one op; `Ok(false)` means the central rejected it (duplicate
/// key, missing key, duplicate inside a batch) and committed nothing.
fn apply<S: DurableScheme>(central: &mut CentralServer<S>, op: &Op) -> bool {
    let schema = central.schema(TABLE).expect("table exists").clone();
    match op {
        Op::Insert(k) => central.insert(TABLE, tuple(&schema, *k)).is_ok(),
        Op::Delete(k) => central.delete(TABLE, *k).is_ok(),
        Op::DeleteRange(lo, hi) => central.delete_range(TABLE, *lo, *hi).is_ok(),
        Op::Batch(keys) => central
            .execute_update_batch(
                TABLE,
                keys.iter()
                    .map(|k| UpdateOp::Insert(tuple(&schema, *k)))
                    .collect(),
            )
            .is_ok(),
        Op::Heartbeat => {
            central.heartbeat();
            true
        }
        Op::Txn(stages) => {
            let schema2 = central.schema(TABLE2).expect("table exists").clone();
            let mut txn = central.begin_txn();
            for (sel, k) in stages {
                let (name, schema) = if sel % 2 == 0 {
                    (TABLE, &schema)
                } else {
                    (TABLE2, &schema2)
                };
                txn.stage(name, UpdateOp::Insert(tuple(schema, *k)));
            }
            central.commit_txn(txn).is_ok()
        }
    }
}

fn check_scheme<S: DurableScheme + Clone>(scheme: S, ops: &[Op], checkpoint_every: u64) {
    let signer: Arc<dyn Signer> = Arc::new(MockSigner::new(23));
    let config = DurabilityConfig {
        checkpoint_every,
        retain_wal: true,
        page_size: 256,
    };
    let fps = Arc::new(FailpointFs::new());
    let mut durable = CentralServer::with_scheme(scheme.clone(), signer.clone())
        .with_delta_retention(512)
        .with_durability(fps.clone(), config)
        .expect("durability init");
    durable.create_table(
        WorkloadSpec {
            table: TABLE.into(),
            ..WorkloadSpec::new(8, 2, 8)
        }
        .build(),
    );
    durable.create_table(
        WorkloadSpec {
            table: TABLE2.into(),
            ..WorkloadSpec::new(8, 2, 8)
        }
        .build(),
    );
    // The checkpoint directory right after DDL: WAL replay from here
    // covers the *entire* commit history.
    let post_ddl: Vec<(String, Vec<u8>)> = {
        let image = fps.crash_image();
        image
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| n.starts_with("ckpt-"))
            .map(|n| {
                let bytes = image.read(&n).unwrap().unwrap();
                (n, bytes)
            })
            .collect()
    };
    assert_eq!(post_ddl.len(), 1, "exactly one live checkpoint after DDL");

    let mut control =
        CentralServer::with_scheme(scheme.clone(), signer.clone()).with_delta_retention(512);
    control.create_table(
        WorkloadSpec {
            table: TABLE.into(),
            ..WorkloadSpec::new(8, 2, 8)
        }
        .build(),
    );
    control.create_table(
        WorkloadSpec {
            table: TABLE2.into(),
            ..WorkloadSpec::new(8, 2, 8)
        }
        .build(),
    );
    for op in ops {
        if apply(&mut durable, op) {
            assert!(apply(&mut control, op), "control rejected a committed op");
        }
    }
    fps.kill();
    let image = fps.crash_image();

    // Path 1: latest checkpoint + WAL suffix.
    let suffix = CentralServer::recover(
        scheme.clone(),
        signer.clone(),
        Arc::new(image.crash_image()) as Arc<dyn Vfs>,
        config,
    )
    .expect("checkpoint+suffix recovery");

    // Path 2: rewind the checkpoint directory to its post-DDL state so
    // recovery must replay the full WAL from seq 0.
    let full: MemVfs = image.crash_image();
    for name in full.list().unwrap() {
        if name.starts_with("ckpt-") {
            full.remove(&name).unwrap();
        }
    }
    for (name, bytes) in &post_ddl {
        full.set_durable(name, bytes.clone());
    }
    let replayed = CentralServer::recover(scheme, signer, Arc::new(full) as Arc<dyn Vfs>, config)
        .expect("full-WAL recovery");

    let want = control.encode_state();
    assert_eq!(
        suffix.encode_state(),
        want,
        "checkpoint+suffix recovery diverged from control"
    );
    assert_eq!(
        replayed.encode_state(),
        want,
        "full-WAL recovery diverged from control"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn recovery_is_path_independent(
        ops in proptest::collection::vec(arb_op(), 1..25),
        checkpoint_every in 1u64..8,
    ) {
        check_scheme(
            VbScheme::<4>::new(Acc256::test_default(), VbTreeConfig::with_fanout(6)),
            &ops,
            checkpoint_every,
        );
        check_scheme(NaiveScheme::<4>::new(Acc256::test_default()), &ops, checkpoint_every);
        check_scheme(MerkleScheme, &ops, checkpoint_every);
    }
}
