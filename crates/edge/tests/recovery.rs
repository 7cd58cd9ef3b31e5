//! Crash-matrix tests for the durable central: every fault-injection
//! point of [`FailpointFs`] is driven against a scripted update
//! workload, the victim's surviving disk image is recovered, and the
//! recovered server must be **byte-identical** (via `encode_state`) to
//! a never-crashed control that executed some prefix of the script —
//! a prefix containing at least every commit the victim acked before
//! the crash (append-before-ack: an acked commit is never lost).
//!
//! Also covered: clock monotonicity across restart (a recovered server
//! never issues a freshness stamp that rewinds `(seq, clock)`), key
//! rotation straddling a crash, torn-checkpoint fallback, and the
//! cluster's resubscription path — edges keep their cursors across a
//! central crash and observe no gaps or duplicate sequence numbers.

use std::sync::Arc;
use vbx_baselines::{MerkleScheme, NaiveScheme};
use vbx_core::{DurableScheme, VbScheme, VbTreeConfig};
use vbx_crypto::signer::MockSigner;
use vbx_crypto::{Acc256, Signer};
use vbx_edge::{
    CentralError, CentralServer, ClusterCoordinator, ClusterError, DurabilityConfig, UpdateOp,
};
use vbx_storage::workload::WorkloadSpec;
use vbx_storage::{FailPoint, FailpointFs, Schema, Tuple, Value, Vfs};

const TABLE: &str = "t0";
const TABLE2: &str = "t1";
const RETENTION: usize = 64;

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        table: TABLE.into(),
        ..WorkloadSpec::new(8, 2, 8)
    }
}

fn spec2() -> WorkloadSpec {
    WorkloadSpec {
        table: TABLE2.into(),
        ..WorkloadSpec::new(8, 2, 8)
    }
}

fn vb() -> VbScheme<4> {
    VbScheme::new(Acc256::test_default(), VbTreeConfig::with_fanout(6))
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

/// One deterministic workload step, identical for victim and control.
#[derive(Clone, Debug)]
enum Step {
    Insert(u64),
    Delete(u64),
    /// Group-committed inserts: one WAL record, one fsync for the run.
    Batch(Vec<u64>),
    RangeDelete(u64, u64),
    Heartbeat,
    /// Atomic multi-table txn: each `(table_sel, key)` stages an insert
    /// on `t0` (sel 0) or `t1` (sel 1); the whole list commits as ONE
    /// `CommitTxn` WAL record.
    Txn(Vec<(u8, u64)>),
}

fn script() -> Vec<Step> {
    use Step::*;
    vec![
        Insert(100),
        Insert(101),
        Heartbeat,
        Batch(vec![102, 103, 104]),
        Delete(100),
        Insert(105),
        Heartbeat,
        RangeDelete(0, 3),
        Batch(vec![106, 107]),
        Txn(vec![(0, 140), (1, 141), (0, 142), (1, 143)]),
        Insert(108),
        Delete(101),
        Txn(vec![(1, 150), (0, 151)]),
        Insert(109),
        Heartbeat,
        Insert(110),
    ]
}

fn run_step<S: DurableScheme>(
    central: &mut CentralServer<S>,
    step: &Step,
) -> Result<(), CentralError<S::Error>> {
    let schema = central.schema(TABLE).expect("table exists").clone();
    match step {
        Step::Insert(k) => central.insert(TABLE, tuple(&schema, *k)).map(drop),
        Step::Delete(k) => central.delete(TABLE, *k).map(drop),
        Step::Batch(keys) => central
            .execute_update_batch(
                TABLE,
                keys.iter()
                    .map(|k| UpdateOp::Insert(tuple(&schema, *k)))
                    .collect(),
            )
            .map(drop),
        Step::RangeDelete(lo, hi) => central.delete_range(TABLE, *lo, *hi).map(drop),
        Step::Heartbeat => {
            central.heartbeat();
            Ok(())
        }
        Step::Txn(stages) => {
            let schema2 = central.schema(TABLE2).expect("table exists").clone();
            let mut txn = central.begin_txn();
            for (sel, k) in stages {
                let (name, schema) = match sel {
                    0 => (TABLE, &schema),
                    _ => (TABLE2, &schema2),
                };
                txn.stage(name, UpdateOp::Insert(tuple(schema, *k)));
            }
            central.commit_txn(txn).map(drop)
        }
    }
}

fn config() -> DurabilityConfig {
    DurabilityConfig {
        checkpoint_every: 5,
        retain_wal: false,
        page_size: 256,
    }
}

/// Every fault-injection point the matrix drives, at several script
/// depths. `keep` values slice a WAL record's frame at the length
/// prefix (4), inside the checksum (6), and inside the payload (20).
fn matrix_points() -> Vec<FailPoint> {
    vec![
        FailPoint::BeforeAppend { file: "wal".into() },
        FailPoint::TornAppend {
            file: "wal".into(),
            keep: 0,
        },
        FailPoint::TornAppend {
            file: "wal".into(),
            keep: 4,
        },
        FailPoint::TornAppend {
            file: "wal".into(),
            keep: 6,
        },
        FailPoint::TornAppend {
            file: "wal".into(),
            keep: 20,
        },
        // Deep into a `CommitTxn` record's payload — between per-table
        // sections of the txn, proving a torn multi-table append never
        // recovers a table subset.
        FailPoint::TornAppend {
            file: "wal".into(),
            keep: 150,
        },
        FailPoint::AfterAppend { file: "wal".into() },
        FailPoint::BeforeSync { file: "wal".into() },
        FailPoint::TornAtomicWrite {
            file: "ckpt".into(),
            keep: 0,
            replace_with_garbage: false,
        },
        FailPoint::TornAtomicWrite {
            file: "ckpt".into(),
            keep: 40,
            replace_with_garbage: true,
        },
        FailPoint::BeforeTruncate { file: "wal".into() },
        FailPoint::BeforeTruncate {
            file: "ckpt".into(),
        },
    ]
}

/// Run one crash case: execute the script with `point` armed at step
/// `arm_at`, crash, recover from the surviving image, and check the
/// recovered state against a never-crashed control.
fn run_case<S: DurableScheme + Clone>(scheme: S, label: &str, arm_at: usize, point: &FailPoint) {
    let ctx = format!("[{label} {point:?} arm@{arm_at}]");
    let signer: Arc<dyn Signer> = Arc::new(MockSigner::new(7));
    let fps = Arc::new(FailpointFs::new());
    let mut victim = CentralServer::with_scheme(scheme.clone(), signer.clone())
        .with_delta_retention(RETENTION)
        .with_durability(fps.clone(), config())
        .expect("durability init");
    victim.create_table(spec().build());
    victim.create_table(spec2().build());

    // Drive the script until the process dies or durability poisons.
    // `acked` tracks the owner position after each *delivered* ack — a
    // result that raced the crash was never delivered to anyone.
    let mut acked: Option<(usize, (u64, u64))> = None;
    for (i, step) in script().iter().enumerate() {
        if i == arm_at {
            fps.arm(point.clone());
        }
        let result = run_step(&mut victim, step);
        if fps.is_crashed() {
            break;
        }
        match result {
            Ok(()) => acked = Some((i, victim.owner_position())),
            Err(_) => break,
        }
    }
    fps.kill(); // if the point never tripped, die between steps
    drop(victim);

    // Recover from exactly what was durable.
    let image = Arc::new(fps.crash_image());
    let recovered = CentralServer::recover(
        scheme.clone(),
        signer.clone(),
        image.clone() as Arc<dyn Vfs>,
        config(),
    )
    .unwrap_or_else(|e| panic!("{ctx} recovery failed: {e}"));
    let target = recovered.encode_state();

    // The recovered state must equal a never-crashed control after
    // some script prefix…
    let mut control =
        CentralServer::with_scheme(scheme.clone(), signer.clone()).with_delta_retention(RETENTION);
    control.create_table(spec().build());
    control.create_table(spec2().build());
    let mut matched = (control.encode_state() == target).then_some(0usize);
    for (i, step) in script().iter().enumerate() {
        if matched.is_some() {
            break;
        }
        run_step(&mut control, step).expect("control never fails");
        if control.encode_state() == target {
            matched = Some(i + 1);
        }
    }
    let matched =
        matched.unwrap_or_else(|| panic!("{ctx} recovered state matches no script prefix"));

    // …and that prefix contains every acked commit (append-before-ack),
    // at a position that never rewinds below the last acked stamp.
    if let Some((last_idx, position)) = acked {
        assert!(
            matched > last_idx,
            "{ctx} acked step {last_idx} missing from recovered state (prefix {matched})"
        );
        assert!(
            recovered.owner_position() >= position,
            "{ctx} recovered position {:?} rewinds below acked {position:?}",
            recovered.owner_position()
        );
    }

    // The recovered server keeps committing durably: finish the script
    // on both sides and the states stay byte-identical.
    let mut recovered = recovered;
    for step in &script()[matched..] {
        run_step(&mut recovered, step).unwrap_or_else(|e| panic!("{ctx} post-recovery: {e}"));
        run_step(&mut control, step).expect("control never fails");
    }
    assert_eq!(
        recovered.encode_state(),
        control.encode_state(),
        "{ctx} post-recovery commits diverged from control"
    );

    // And a second crash right now loses nothing: everything the
    // recovered server acked is durable again.
    let twice = CentralServer::recover(
        scheme,
        signer,
        Arc::new(image.crash_image()) as Arc<dyn Vfs>,
        config(),
    )
    .unwrap_or_else(|e| panic!("{ctx} second recovery failed: {e}"));
    assert_eq!(
        twice.encode_state(),
        recovered.encode_state(),
        "{ctx} second crash+recovery diverged"
    );
}

fn crash_matrix<S: DurableScheme + Clone>(scheme: S, label: &str) {
    // Arm points cover plain ops (0, 3, 7) and both txn steps (9, 12),
    // so every fault fires at least once inside a `CommitTxn` append.
    for point in &matrix_points() {
        for arm_at in [0, 3, 7, 9, 12] {
            run_case(scheme.clone(), label, arm_at, point);
        }
    }
}

#[test]
fn crash_matrix_vb() {
    crash_matrix(vb(), "vb");
}

#[test]
fn crash_matrix_naive() {
    crash_matrix(NaiveScheme::<4>::new(Acc256::test_default()), "naive");
}

#[test]
fn crash_matrix_merkle() {
    crash_matrix(MerkleScheme, "merkle");
}

#[test]
fn clock_never_rewinds_across_recovery() {
    // Heartbeats advance only the clock; they are WAL-logged so a
    // restart cannot issue a stamp below one already handed out.
    let signer: Arc<dyn Signer> = Arc::new(MockSigner::new(11));
    let fps = Arc::new(FailpointFs::new());
    let mut central = CentralServer::with_scheme(vb(), signer.clone())
        .with_delta_retention(RETENTION)
        .with_durability(fps.clone(), config())
        .expect("durability init");
    central.create_table(spec().build());
    let schema = central.schema(TABLE).unwrap().clone();
    central.insert(TABLE, tuple(&schema, 500)).unwrap();
    for _ in 0..5 {
        central.heartbeat();
    }
    let last = central.heartbeat();
    fps.kill();

    let mut recovered = CentralServer::recover(
        vb(),
        signer,
        Arc::new(fps.crash_image()) as Arc<dyn Vfs>,
        config(),
    )
    .expect("recovery");
    let (seq, clock) = recovered.owner_position();
    assert!(
        (seq, clock) >= (last.seq, last.clock),
        "recovered position ({seq}, {clock}) rewinds below issued stamp ({}, {})",
        last.seq,
        last.clock
    );
    let fresh = recovered.heartbeat();
    assert!(
        (fresh.seq, fresh.clock) > (last.seq, last.clock),
        "post-recovery stamp rewinds"
    );
}

#[test]
fn key_rotation_survives_recovery() {
    // rotate_key is DDL: it forces a checkpoint under the new key, so
    // recovery with the new signer reproduces the rotated state.
    let v1: Arc<dyn Signer> = Arc::new(MockSigner::with_version(13, 1));
    let v2: Arc<dyn Signer> = Arc::new(MockSigner::with_version(13, 2));
    let fps = Arc::new(FailpointFs::new());
    let mut central = CentralServer::with_scheme(vb(), v1.clone())
        .with_delta_retention(RETENTION)
        .with_durability(fps.clone(), config())
        .expect("durability init");
    central.create_table(spec().build());
    let schema = central.schema(TABLE).unwrap().clone();
    central.insert(TABLE, tuple(&schema, 300)).unwrap();
    central.rotate_key(v2.clone());
    central.insert(TABLE, tuple(&schema, 301)).unwrap();
    fps.kill();

    let recovered = CentralServer::recover(
        vb(),
        v2.clone(),
        Arc::new(fps.crash_image()) as Arc<dyn Vfs>,
        config(),
    )
    .expect("recovery under rotated key");
    let mut control = CentralServer::with_scheme(vb(), v1).with_delta_retention(RETENTION);
    control.create_table(spec().build());
    control.insert(TABLE, tuple(&schema, 300)).unwrap();
    control.rotate_key(v2.clone());
    control.insert(TABLE, tuple(&schema, 301)).unwrap();
    assert_eq!(recovered.encode_state(), control.encode_state());

    // The old signer cannot recover the rotated state.
    let wrong: Arc<dyn Signer> = Arc::new(MockSigner::with_version(13, 1));
    assert!(CentralServer::<VbScheme<4>>::recover(
        vb(),
        wrong,
        Arc::new(fps.crash_image()) as Arc<dyn Vfs>,
        config(),
    )
    .is_err());
}

#[test]
fn cluster_resubscribes_without_gaps_or_duplicates() {
    // Crash the central *between commit and fan-out*: the commit is
    // durable (WAL) but no edge ever saw it. After recovery the edges
    // keep their cursors (adopt_central) and the resumed subscription
    // delivers exactly the missing range — no gap, no re-delivery.
    let signer: Arc<dyn Signer> = Arc::new(MockSigner::new(17));
    let fps = Arc::new(FailpointFs::new());
    let central = CentralServer::with_scheme(vb(), signer.clone())
        .with_delta_retention(RETENTION)
        .with_durability(fps.clone(), config())
        .expect("durability init");
    let mut cluster = ClusterCoordinator::from_central(central, 2);
    cluster.create_table(spec().build());
    let schema = cluster.central().schema(TABLE).unwrap().clone();

    for k in [200, 201, 202] {
        cluster.insert(TABLE, tuple(&schema, k)).unwrap();
    }
    cluster
        .update_batch(
            TABLE,
            vec![
                UpdateOp::Insert(tuple(&schema, 203)),
                UpdateOp::Insert(tuple(&schema, 204)),
            ],
        )
        .unwrap();
    cluster.sync().expect("edges drain");
    let before = cluster.lag_report();
    assert!(before.iter().all(|l| l.lag == 0));

    // Commit at the central only — the fan-out never happens.
    cluster
        .central_mut()
        .insert(TABLE, tuple(&schema, 205))
        .unwrap();
    let head_before_crash = cluster.central().delta_log().next_seq();
    fps.kill();

    let recovered = CentralServer::recover(
        vb(),
        signer.clone(),
        Arc::new(fps.crash_image()) as Arc<dyn Vfs>,
        config(),
    )
    .expect("recovery");
    assert_eq!(
        recovered.delta_log().next_seq(),
        head_before_crash,
        "durable commit missing after recovery"
    );

    cluster.adopt_central(recovered).expect("cursors intact");
    cluster.sync().expect("resubscription drains cleanly");
    let after = cluster.lag_report();
    for lag in &after {
        assert_eq!(lag.lag, 0, "edge {} not caught up", lag.edge);
        assert_eq!(
            lag.applied_seq, head_before_crash,
            "edge {} position wrong after resubscription",
            lag.edge
        );
    }
    // An out-of-order or duplicate delta would have tripped the edge's
    // replay guard (`OutOfOrder`) during sync — a clean drain plus the
    // exact head position is the no-gap/no-duplicate proof.

    // Adopting a central whose history rolled back must be refused.
    let mut stale = CentralServer::with_scheme(vb(), signer).with_delta_retention(RETENTION);
    stale.create_table(spec().build());
    assert!(matches!(
        cluster.adopt_central(stale),
        Err(ClusterError::RolledBack { .. })
    ));
}

#[test]
fn torn_commit_txn_never_recovers_a_table_subset() {
    // Direct all-or-nothing proof: a txn touching t0 AND t1 whose
    // single `CommitTxn` append tears at any offset — before, inside
    // the checksum, inside section one, between sections, or at the
    // very end — recovers either with BOTH tables advanced or with
    // NEITHER. A recovered image holding the t0 keys without the t1
    // keys (or vice versa) would be exactly the partial-flush bug the
    // txn protocol exists to kill.
    for keep in [0usize, 4, 6, 20, 80, 150, 300] {
        let ctx = format!("[torn txn keep={keep}]");
        let signer: Arc<dyn Signer> = Arc::new(MockSigner::new(29));
        let fps = Arc::new(FailpointFs::new());
        let mut central = CentralServer::with_scheme(vb(), signer.clone())
            .with_delta_retention(RETENTION)
            .with_durability(fps.clone(), config())
            .expect("durability init");
        central.create_table(spec().build());
        central.create_table(spec2().build());
        let s0 = central.schema(TABLE).unwrap().clone();
        let s1 = central.schema(TABLE2).unwrap().clone();

        // A fully durable baseline txn first, so recovery has a real
        // committed txn to replay in front of the torn one.
        let mut base = central.begin_txn();
        base.stage(TABLE, UpdateOp::Insert(tuple(&s0, 400)))
            .stage(TABLE2, UpdateOp::Insert(tuple(&s1, 401)));
        central.commit_txn(base).expect("baseline txn");

        fps.arm(FailPoint::TornAppend {
            file: "wal".into(),
            keep,
        });
        let mut doomed = central.begin_txn();
        doomed
            .stage(TABLE, UpdateOp::Insert(tuple(&s0, 410)))
            .stage(TABLE2, UpdateOp::Insert(tuple(&s1, 411)))
            .stage(TABLE, UpdateOp::Insert(tuple(&s0, 412)));
        let _ = central.commit_txn(doomed); // dies at the append
        drop(central);

        let recovered = CentralServer::recover(
            vb(),
            signer,
            Arc::new(fps.crash_image()) as Arc<dyn Vfs>,
            config(),
        )
        .unwrap_or_else(|e| panic!("{ctx} recovery failed: {e}"));

        // The baseline txn is acked and fully durable on both tables.
        let t0 = recovered.store(TABLE).unwrap();
        let t1 = recovered.store(TABLE2).unwrap();
        assert!(t0.get(400).is_some(), "{ctx} baseline t0 key lost");
        assert!(t1.get(401).is_some(), "{ctx} baseline t1 key lost");

        // The torn txn is all-or-nothing across tables.
        let t0_in = t0.get(410).is_some() && t0.get(412).is_some();
        let t1_in = t1.get(411).is_some();
        assert_eq!(
            t0_in, t1_in,
            "{ctx} recovered a table subset of the torn txn (t0={t0_in}, t1={t1_in})"
        );
        // And the log position agrees with whichever side survived.
        let expect_seq = if t0_in { 5 } else { 2 };
        assert_eq!(
            recovered.delta_log().next_seq(),
            expect_seq,
            "{ctx} log head disagrees with recovered stores"
        );
    }
}
