//! Cluster regression tests: sharded fan-out, freshness-verified reads
//! (a lagging edge is rejected under a tight policy and accepted once
//! its subscription queue drains), the tamper matrix re-run through the
//! coordinator's routed-query path, and the bounded `DeltaLog` cursor
//! API.

use std::sync::Arc;
use vbx_baselines::{MerkleScheme, NaiveScheme};
use vbx_core::{
    AuthScheme, ClientVerifier, FreshnessPolicy, RangeQuery, TamperMode, VbScheme, VbTreeConfig,
    VerifyError,
};
use vbx_crypto::signer::{MockSigner, Signer};
use vbx_crypto::Acc256;
use vbx_edge::{
    ClusterConfig, ClusterCoordinator, ClusterError, DeltaLog, KeyFreshnessPolicy, SchemeClient,
    UpdateOp,
};
use vbx_storage::workload::WorkloadSpec;
use vbx_storage::{Schema, Tuple, Value};

const SEED_VERSION: u64 = 9;

fn cluster(tables: usize, rows: u64, edges: usize) -> ClusterCoordinator<VbScheme<4>> {
    let signer = Arc::new(MockSigner::with_version(SEED_VERSION, 1));
    let scheme = VbScheme::new(Acc256::test_default(), VbTreeConfig::with_fanout(6));
    let mut c = ClusterCoordinator::new(
        scheme,
        signer,
        ClusterConfig {
            edges,
            retention: 64,
            ..ClusterConfig::default()
        },
    );
    for i in 0..tables {
        let spec = WorkloadSpec {
            table: format!("t{i}"),
            ..WorkloadSpec::new(rows, 3, 8)
        };
        c.create_table(spec.build());
    }
    c
}

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

/// Verify a routed response against the owner position under `policy`.
fn verify_routed(
    c: &ClusterCoordinator<VbScheme<4>>,
    table: &str,
    q: &RangeQuery,
    policy: FreshnessPolicy,
) -> Result<usize, VerifyError> {
    let routed = c.query(table, q).expect("route + serve");
    let schema = c.central().schema(table).expect("base table").clone();
    let acc = c.central().accumulator().clone();
    let (owner_seq, owner_clock) = c.owner_position();
    let verifier = c
        .central()
        .registry()
        .verifier(routed.response.vo.key_version)
        .expect("published key");
    ClientVerifier::new(&acc, &schema)
        .with_freshness(policy, owner_seq, owner_clock)
        .verify(verifier.as_ref(), q, &routed.response)
        .map(|r| r.rows)
}

#[test]
fn sharding_distributes_tables_and_routes_queries() {
    let mut c = cluster(5, 40, 3);
    c.sync().unwrap(); // deliver the initial owner stamp to every edge
    let map = c.shard_map();
    assert_eq!(map.num_tables(), 5);
    // Least-loaded assignment: no edge owns more than ceil(5/3) tables.
    let loads: Vec<usize> = (0..3).map(|e| map.tables_of(e).len()).collect();
    assert_eq!(loads.iter().sum::<usize>(), 5);
    assert!(
        loads.iter().all(|&l| l <= 2),
        "unbalanced shard map {loads:?}"
    );
    // Queries land on the owning edge and verify as fresh.
    for i in 0..5 {
        let table = format!("t{i}");
        let owner = c.route(&table).unwrap();
        assert_eq!(map.owner(&table), Some(owner));
        let rows = verify_routed(
            &c,
            &table,
            &RangeQuery::select_all(5, 25),
            FreshnessPolicy::strict(),
        )
        .expect("fresh edge must verify");
        assert_eq!(rows, 21);
    }
}

#[test]
fn lagging_edge_rejected_then_accepted_after_drain() {
    let mut c = cluster(3, 50, 3);
    let victim_table = "t0".to_string();
    let owner = c.route(&victim_table).unwrap();
    let schema = c.central().tree(&victim_table).unwrap().schema().clone();

    // Start from a fully-synced cluster so the edge holds a stamp.
    c.sync().unwrap();

    // Commit updates; fan-out enqueues them but the owner edge is never
    // drained — an honest replica that simply fell behind.
    for k in 0..4u64 {
        c.insert(&victim_table, fresh_tuple(&schema, 1_000 + k))
            .unwrap();
    }
    let lag = c.lag_report()[owner];
    assert_eq!(lag.lag, 4, "edge {owner} should lag 4 deltas: {lag:?}");
    assert_eq!(lag.queued, 4);

    // A tight policy rejects the stale (but honest!) response as
    // Stale — distinct from any tampering error.
    let q = RangeQuery::select_all(0, 2_000);
    let err = verify_routed(&c, &victim_table, &q, FreshnessPolicy::max_lag(0)).unwrap_err();
    assert!(
        matches!(err, VerifyError::Stale { lag: Some(4), .. }),
        "expected Stale with lag 4, got {err:?}"
    );
    // A lenient policy accepts the same response.
    verify_routed(&c, &victim_table, &q, FreshnessPolicy::max_lag(4))
        .expect("policy with slack accepts the lagging edge");

    // Draining the subscription queue catches the edge up; the strict
    // policy accepts and the new rows are visible + verified.
    c.drain_edge(owner, usize::MAX).unwrap();
    assert_eq!(c.lag_report()[owner].lag, 0);
    let rows = verify_routed(&c, &victim_table, &q, FreshnessPolicy::strict())
        .expect("caught-up edge must verify strictly");
    assert_eq!(rows, 54);
}

#[test]
fn missing_stamp_is_stale_under_policy() {
    // A freshly-provisioned cluster that never synced has no owner
    // stamps at the edges: verification without a policy passes, with a
    // policy it reports Stale { None, None }.
    let c = cluster(1, 30, 3);
    let q = RangeQuery::select_all(0, 10);
    let routed = c.query("t0", &q).unwrap();
    assert!(routed.response.freshness.stamp.is_none());
    let err = verify_routed(&c, "t0", &q, FreshnessPolicy::default()).unwrap_err();
    assert_eq!(
        err,
        VerifyError::Stale {
            lag: None,
            age: None
        }
    );
}

#[test]
fn heartbeats_bound_stamp_age() {
    let mut c = cluster(2, 40, 3);
    c.sync().unwrap();
    c.broadcast_heartbeat().unwrap();
    let q = RangeQuery::select_all(0, 20);
    verify_routed(&c, "t0", &q, FreshnessPolicy::strict()).expect("just heartbeated");

    // The owner's clock advances twice without the edges hearing about
    // it (a partition): zero delta lag, but the stamp ages out.
    c.central_mut().heartbeat();
    c.central_mut().heartbeat();
    let err = verify_routed(&c, "t0", &q, FreshnessPolicy::max_age(1)).unwrap_err();
    assert!(
        matches!(err, VerifyError::Stale { age: Some(2), .. }),
        "expected Stale with age 2, got {err:?}"
    );
    // Contact restored: the broadcast delivers the fresh stamp.
    c.broadcast_heartbeat().unwrap();
    verify_routed(&c, "t0", &q, FreshnessPolicy::max_age(0)).expect("stamp refreshed");
}

#[test]
fn rotation_reads_as_stale_not_tampering() {
    // After a key rotation, an edge still serving old-key VOs holds a
    // stamp from the *new* key generation: that stamp cannot prove
    // freshness for the old-key response, and the client must report
    // Stale — never BadSignature (which would read as tampering by an
    // honest replica).
    let mut c = cluster(1, 30, 3);
    c.sync().unwrap();
    let q = RangeQuery::select_all(0, 10);
    verify_routed(&c, "t0", &q, FreshnessPolicy::strict()).expect("fresh before rotation");

    c.central_mut()
        .rotate_key(Arc::new(MockSigner::with_version(SEED_VERSION, 2)));
    let owner = c.route("t0").unwrap();
    // The subscription delivers the new-generation stamp, but the
    // edge's replica tree (and hence its VOs) is still v1 — it has not
    // been re-bundled yet.
    c.drain_edge(owner, usize::MAX).unwrap();
    let routed = c.query("t0", &q).unwrap();
    assert_eq!(routed.response.vo.key_version, 1);
    assert_eq!(
        routed
            .response
            .freshness
            .stamp
            .as_ref()
            .unwrap()
            .key_version,
        2
    );
    let err = verify_routed(&c, "t0", &q, FreshnessPolicy::default()).unwrap_err();
    assert_eq!(
        err,
        VerifyError::Stale {
            lag: None,
            age: None
        },
        "cross-generation stamp must read as stale, not forged"
    );
}

#[test]
fn foreign_deltas_skip_but_keep_positions_contiguous() {
    let mut c = cluster(2, 30, 2);
    let schema0 = c.central().tree("t0").unwrap().schema().clone();
    let owner0 = c.route("t0").unwrap();
    let other = 1 - owner0;

    c.insert("t0", fresh_tuple(&schema0, 500)).unwrap();
    c.sync().unwrap();
    // The non-owner consumed the delta as a placeholder: position
    // advanced, replica untouched, strict freshness still verifies.
    assert_eq!(c.edge(other).unwrap().applied_seq(), 1);
    let t1 = c.shard_map().tables_of(other)[0].to_string();
    verify_routed(
        &c,
        &t1,
        &RangeQuery::select_all(0, 10),
        FreshnessPolicy::strict(),
    )
    .expect("non-owner stays fresh after skipping a foreign delta");
}

#[test]
fn scatter_gather_serves_multi_table_joins() {
    let mut c = cluster(4, 40, 3);
    c.sync().unwrap();
    let legs = vec![
        ("t0".to_string(), RangeQuery::select_all(5, 15)),
        ("t1".to_string(), RangeQuery::select_all(5, 15)),
        ("t3".to_string(), RangeQuery::select_all(20, 30)),
    ];
    let responses = c.scatter_gather(&legs).unwrap();
    assert_eq!(responses.len(), 3);
    // Legs land on their owning edges (t0 and t3 share an owner only if
    // the shard map says so) and every leg verifies independently.
    for (routed, (table, q)) in responses.iter().zip(&legs) {
        assert_eq!(routed.edge, c.route(table).unwrap());
        let rows = verify_routed(&c, table, q, FreshnessPolicy::strict()).unwrap();
        assert_eq!(rows, routed.response.rows.len());
        assert_eq!(rows, 11);
    }
    // An unassigned table is a routing error, not a panic.
    assert!(matches!(
        c.scatter_gather(&[("nope".into(), RangeQuery::select_all(0, 1))]),
        Err(ClusterError::UnknownTable(_))
    ));
}

/// The tamper matrix re-run through the coordinator's routed path: the
/// detection verdicts must be exactly those of the direct
/// `tamper_matrix` pipeline.
fn detected_via_cluster<S>(scheme: S, mode: TamperMode) -> bool
where
    S: AuthScheme + Clone,
{
    let signer = Arc::new(MockSigner::with_version(77, 1));
    let mut c = ClusterCoordinator::new(
        scheme.clone(),
        signer,
        ClusterConfig {
            edges: 3,
            retention: 64,
            ..ClusterConfig::default()
        },
    );
    let spec = WorkloadSpec::new(60, 4, 10);
    let name = spec.table.clone();
    c.create_table(spec.build());

    // Exercise replication through the fan-out path before tampering.
    let schema = c.central().schema(&name).expect("created").clone();
    let tuple = Tuple::new(
        &schema,
        500,
        vec![
            Value::from("late"),
            Value::from("x"),
            Value::from("y"),
            Value::from(9i64),
        ],
    )
    .unwrap();
    c.insert(&name, tuple).unwrap();
    c.sync().unwrap();

    let owner = c.route(&name).unwrap();
    c.edge_mut(owner).unwrap().set_tamper(mode);
    let query = RangeQuery::select_all(5, 45);
    let routed = c.query(&name, &query).unwrap();

    let client = SchemeClient::new(scheme, c.edge(owner).unwrap().schemas());
    client
        .verify_range(
            &name,
            &query,
            &routed.response,
            c.central().registry(),
            KeyFreshnessPolicy::RequireCurrent,
        )
        .is_err()
}

#[test]
fn tamper_matrix_holds_through_the_coordinator() {
    let acc = Acc256::test_default();
    let modes = [
        TamperMode::MutateValue,
        TamperMode::InjectRow,
        TamperMode::DropRow,
        TamperMode::DropAndReclassify { key: 20 },
    ];
    let expectations: [(&str, [bool; 4]); 3] = [
        ("vb-tree", [true, true, true, false]),
        ("naive", [true, true, false, false]),
        ("merkle", [true, true, true, true]),
    ];
    for (scheme_name, expected) in expectations {
        for (mode, want) in modes.iter().zip(expected) {
            let got = match scheme_name {
                "vb-tree" => detected_via_cluster(
                    VbScheme::new(acc.clone(), VbTreeConfig::with_fanout(6)),
                    mode.clone(),
                ),
                "naive" => detected_via_cluster(NaiveScheme::<4>::new(acc.clone()), mode.clone()),
                _ => detected_via_cluster(MerkleScheme, mode.clone()),
            };
            assert_eq!(
                got, want,
                "{scheme_name} × {mode:?} through the coordinator: expected detected={want}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// DeltaLog: bounded retention + cursors
// ---------------------------------------------------------------------

#[test]
fn delta_log_retention_evicts_and_reports_truncation() {
    let mut log: DeltaLog<()> = DeltaLog::new(3);
    for seq in 0..5 {
        log.push_batch(unit_batch(seq, 1)).unwrap();
    }
    assert_eq!(log.len(), 3);
    assert_eq!(log.oldest_seq(), 2);
    assert_eq!(log.next_seq(), 5);

    // A cursor inside the window clones only the tail.
    let tail = log.collect_since(3).unwrap();
    assert_eq!(
        tail.iter().map(|e| e.start_seq()).collect::<Vec<_>>(),
        vec![3, 4]
    );
    // At the head: empty, not an error.
    assert!(log.collect_since(5).unwrap().is_empty());
    // Beyond the head (replica restored from a newer snapshot): empty.
    assert!(log.collect_since(9).unwrap().is_empty());
    // Behind the window: explicit truncation, never a silent gap.
    assert!(matches!(
        log.collect_since(1),
        Err(vbx_edge::DeltaLogError::Truncated {
            requested: 1,
            oldest: 2
        })
    ));
}

#[test]
fn delta_log_rejects_gaps() {
    // Non-contiguous appends are a structured error, not a panic: the
    // recovery path replays WAL records through the same append and
    // must surface a gap as corruption instead of aborting the process.
    let mut log: DeltaLog<()> = DeltaLog::new(8);
    log.push_batch(unit_batch(0, 1)).unwrap();
    assert!(matches!(
        log.push_batch(unit_batch(2, 1)),
        Err(vbx_edge::DeltaLogError::NonContiguous {
            expected: 1,
            got: 2
        })
    ));
    // A rejected push leaves the log untouched…
    assert_eq!(log.next_seq(), 1);
    // …and the same holds for batches: gaps and empties are rejected.
    assert!(matches!(
        log.push_batch(unit_batch(5, 2)),
        Err(vbx_edge::DeltaLogError::NonContiguous {
            expected: 1,
            got: 5
        })
    ));
    assert!(matches!(
        log.push_batch(unit_batch(1, 0)),
        Err(vbx_edge::DeltaLogError::EmptyBatch)
    ));
    log.push_batch(unit_batch(1, 1)).unwrap();
    assert_eq!(log.next_seq(), 2);
}

fn unit_batch(start_seq: u64, k: u64) -> vbx_edge::DeltaBatch<()> {
    vbx_edge::DeltaBatch {
        start_seq,
        table: "t".into(),
        ops: (start_seq..start_seq + k).map(UpdateOp::Delete).collect(),
        payloads: vec![()],
        key_version: 1,
        stamp: None,
    }
}

#[test]
fn delta_log_batches_occupy_ranges_and_evict_as_units() {
    // Retention counts ops: a 3-op batch + 2 singles = 5 ops in a
    // window of 4 evicts the whole batch (entries leave as the unit
    // they arrived as).
    let mut log: DeltaLog<()> = DeltaLog::new(4);
    log.push_batch(unit_batch(0, 3)).unwrap();
    log.push_batch(unit_batch(3, 1)).unwrap();
    log.push_batch(unit_batch(4, 1)).unwrap();
    assert_eq!(log.len(), 2);
    assert_eq!(log.oldest_seq(), 3);
    assert_eq!(log.next_seq(), 5);

    // Cursors on batch boundaries: a batch spans [5, 9).
    log.push_batch(unit_batch(5, 4)).unwrap();
    assert_eq!(log.next_seq(), 9);
    let tail = log.collect_since(5).unwrap();
    assert_eq!(tail.len(), 1);
    assert_eq!((tail[0].start_seq(), tail[0].end_seq()), (5, 9));
    assert_eq!(tail[0].ops(), 4);
    // A cursor inside the batch's range still surfaces the batch (a
    // subscriber can only land there by breaking the end_seq rule, and
    // re-delivery beats a silent gap)…
    let mid = log.collect_since(7).unwrap();
    assert_eq!(mid[0].start_seq(), 5);
    // …and a cursor at the batch's end sees nothing new.
    assert!(log.collect_since(9).unwrap().is_empty());

    // The newest entry is always kept, even when it alone exceeds the
    // retention window.
    let mut log: DeltaLog<()> = DeltaLog::new(2);
    log.push_batch(unit_batch(0, 5)).unwrap();
    assert_eq!(log.len(), 5);
    assert_eq!(log.next_seq(), 5);
    log.push_batch(unit_batch(5, 1)).unwrap();
    assert_eq!(log.oldest_seq(), 5, "oversized batch evicted as a unit");
}

#[test]
fn coordinator_surfaces_truncated_subscriptions() {
    // Retention 2: an edge that missed more than 2 deltas cannot
    // resubscribe and the coordinator says so explicitly.
    let signer = Arc::new(MockSigner::with_version(SEED_VERSION, 1));
    let scheme = VbScheme::<4>::new(Acc256::test_default(), VbTreeConfig::with_fanout(6));
    let mut c = ClusterCoordinator::new(
        scheme,
        signer,
        ClusterConfig {
            edges: 2,
            retention: 2,
            ..ClusterConfig::default()
        },
    );
    let spec = WorkloadSpec {
        table: "t0".into(),
        ..WorkloadSpec::new(30, 3, 8)
    };
    c.create_table(spec.build());
    let schema = c.central().tree("t0").unwrap().schema().clone();
    // Three commits without fan-out: the first falls out of the window.
    for k in 0..3u64 {
        c.central_mut()
            .insert("t0", fresh_tuple(&schema, 600 + k))
            .unwrap();
    }
    assert!(matches!(
        c.fan_out(),
        Err(ClusterError::Truncated(
            vbx_edge::DeltaLogError::Truncated { .. }
        ))
    ));
}

#[test]
fn slow_edge_trips_queue_bound_and_recovers_by_resubscribing() {
    let signer = Arc::new(MockSigner::with_version(SEED_VERSION, 1));
    let scheme = VbScheme::new(Acc256::test_default(), VbTreeConfig::with_fanout(6));
    let mut c = ClusterCoordinator::new(
        scheme,
        signer,
        ClusterConfig {
            edges: 2,
            retention: 64,
            max_queue: 3,
        },
    );
    let spec = WorkloadSpec {
        table: "t0".to_string(),
        ..WorkloadSpec::new(40, 3, 8)
    };
    c.create_table(spec.build());
    c.sync().unwrap();
    let owner = c.route("t0").unwrap();
    let other_edge = 1 - owner;
    let schema = c.central().schema("t0").unwrap().clone();

    // Commit past the bound while only the *other* replica keeps up:
    // the owner's bounded queue trips (placeholders and deltas alike
    // count), the backlog is dropped, and the edge is marked
    // disconnected — the writer itself never blocks or errors.
    for k in 0..6u64 {
        c.insert("t0", fresh_tuple(&schema, 2_000 + k)).unwrap();
        c.fan_out().unwrap();
        c.drain_edge(other_edge, usize::MAX).unwrap();
    }
    let lag = c.lag_report()[owner];
    assert!(lag.disconnected, "queue bound of 3 must trip on 6 deltas");
    assert_eq!(lag.queued, 0, "a disconnected edge buffers nothing");

    // Explicit error instead of silent growth: draining reports the
    // disconnect, and further commits skip the edge entirely.
    match c.drain_edge(owner, usize::MAX) {
        Err(ClusterError::Disconnected { edge, bound, .. }) => {
            assert_eq!(edge, owner);
            assert_eq!(bound, 3);
        }
        other => panic!("expected Disconnected, got {other:?}"),
    }
    c.insert("t0", fresh_tuple(&schema, 2_100)).unwrap();
    assert_eq!(
        c.sync().unwrap(),
        1,
        "sync serves the healthy edge, leaves the dead one alone"
    );
    assert_eq!(c.lag_report()[owner].queued, 0);

    // The healthy edge kept replicating throughout.
    assert!(!c.lag_report()[other_edge].disconnected);
    assert_eq!(c.lag_report()[other_edge].lag, 0);

    // Resubscribing re-provisions from the central's current state:
    // cursor at head, fresh stores, strict verification green again.
    c.resubscribe_edge(owner).unwrap();
    let lag = c.lag_report()[owner];
    assert!(!lag.disconnected);
    assert_eq!(lag.lag, 0, "resubscribed edge snaps to the head");
    let q = RangeQuery::select_all(0, 3_000);
    let rows = verify_routed(&c, "t0", &q, FreshnessPolicy::strict())
        .expect("resubscribed edge must verify strictly");
    assert_eq!(rows, 47, "40 seeded + 7 inserted rows");
}

// ---------------------------------------------------------------------
// Verified sync + failover (shard-map mutation, promotion, dropped
// tables)
// ---------------------------------------------------------------------

#[test]
#[should_panic(expected = "at least one edge")]
fn shard_map_with_zero_edges_panics_instead_of_clamping() {
    let _ = vbx_edge::ShardMap::new(0);
}

#[test]
fn shard_map_mutations_bump_version_and_keep_load_counts() {
    let mut m = vbx_edge::ShardMap::new(3);
    assert_eq!(m.version(), 0);
    assert_eq!(m.assign("a"), 0);
    assert_eq!(m.assign("b"), 1);
    assert_eq!(m.assign("c"), 2);
    assert_eq!(m.assign("d"), 0);
    let v_after_assign = m.version();
    assert_eq!(v_after_assign, 4, "every fresh assignment bumps");
    assert_eq!(m.assign("a"), 0, "re-assign is a no-op");
    assert_eq!(m.version(), v_after_assign);

    // Reassign moves load with the table.
    assert_eq!(m.reassign("d", 1), Some(0));
    assert_eq!(m.version(), v_after_assign + 1);
    assert_eq!(m.tables_of(0), vec!["a"]);
    assert_eq!(m.tables_of(1), vec!["b", "d"]);
    assert_eq!(m.reassign("nope", 1), None, "unknown table");
    assert_eq!(m.reassign("a", 99), None, "owner out of range");
    assert_eq!(
        m.version(),
        v_after_assign + 1,
        "failed reassigns do not bump"
    );

    // Promote moves everything the dead edge owned.
    let moved = m.promote_replica(1, 2);
    assert_eq!(moved, vec!["b".to_string(), "d".to_string()]);
    assert!(m.tables_of(1).is_empty());
    assert_eq!(m.tables_of(2), vec!["b", "c", "d"]);
    assert_eq!(m.version(), v_after_assign + 2);
    assert!(
        m.promote_replica(1, 1).is_empty(),
        "self-promotion is a no-op"
    );

    // Remove shrinks the owner's load so later assignments rebalance.
    assert_eq!(m.remove_table("c"), Some(2));
    assert_eq!(m.remove_table("c"), None);
    assert_eq!(m.num_tables(), 3);
    assert_eq!(m.version(), v_after_assign + 3);
}

#[test]
fn killing_an_edge_under_load_promotes_a_verified_standby() {
    let mut c = cluster(2, 40, 3);
    c.sync().unwrap();
    let schema0 = c.central().schema("t0").unwrap().clone();
    let schema1 = c.central().schema("t1").unwrap().clone();
    let dead = c.route("t0").unwrap();
    let standby = 2usize;
    assert_ne!(dead, standby, "t0/t1 land on edges 0/1, standby is 2");

    // Load phase: commits land while replication is in flight (the
    // queues are deliberately not fully drained).
    for k in 0..8u64 {
        c.insert("t0", fresh_tuple(&schema0, 3_000 + k)).unwrap();
        c.insert("t1", fresh_tuple(&schema1, 3_000 + k)).unwrap();
        if k % 2 == 0 {
            c.sync().unwrap();
        }
    }

    // Kill the owner of t0 mid-stream and fail over to the standby.
    let shard_version_before = c.shard_map().version();
    let moved = c.promote_replica(dead, standby).unwrap();
    assert_eq!(moved, vec!["t0".to_string()]);
    assert_eq!(c.route("t0").unwrap(), standby, "queries reroute at once");
    assert!(
        c.shard_map().version() > shard_version_before,
        "promotion must bump the shard map version"
    );
    assert!(c.lag_report()[dead].disconnected);

    // The promoted standby serves fresh, fully verified responses —
    // zero unverified rows cross a client (a response that fails
    // verification is rejected wholesale, so a strict-policy success
    // here means every row was authenticated).
    let q = RangeQuery::select_all(0, 5_000);
    let rows = verify_routed(&c, "t0", &q, FreshnessPolicy::strict())
        .expect("promoted standby must serve verifiable responses");
    assert_eq!(rows, 48, "40 seeded + 8 inserted");

    // Replication continues over the standby's existing cursor
    // subscription: later commits flow to it as the new owner.
    for k in 0..4u64 {
        c.insert("t0", fresh_tuple(&schema0, 4_000 + k)).unwrap();
    }
    c.sync().unwrap();
    let rows = verify_routed(&c, "t0", &q, FreshnessPolicy::strict())
        .expect("post-failover replication must keep verifying");
    assert_eq!(rows, 52);
    assert_eq!(c.lag_report()[standby].lag, 0);

    // t1's owner is untouched by the failover.
    let rows = verify_routed(&c, "t1", &q, FreshnessPolicy::strict()).unwrap();
    assert_eq!(rows, 48);
}

#[test]
fn promotion_of_a_disconnected_standby_reprovisions_it_verified() {
    let signer = Arc::new(MockSigner::with_version(SEED_VERSION, 1));
    let scheme = VbScheme::new(Acc256::test_default(), VbTreeConfig::with_fanout(6));
    let mut c = ClusterCoordinator::new(
        scheme,
        signer,
        ClusterConfig {
            edges: 2,
            retention: 64,
            max_queue: 2,
        },
    );
    let spec = WorkloadSpec {
        table: "t0".to_string(),
        ..WorkloadSpec::new(30, 3, 8)
    };
    c.create_table(spec.build());
    c.sync().unwrap();
    let owner = c.route("t0").unwrap();
    let standby = 1 - owner;
    let schema = c.central().schema("t0").unwrap().clone();

    // Trip the standby's bounded queue so it is itself disconnected,
    // then kill the owner: promotion must rebuild the standby through
    // the verified resubscribe path.
    for k in 0..5u64 {
        c.insert("t0", fresh_tuple(&schema, 6_000 + k)).unwrap();
        c.fan_out().unwrap();
        c.drain_edge(owner, usize::MAX).unwrap();
    }
    assert!(c.lag_report()[standby].disconnected);

    let moved = c.promote_replica(owner, standby).unwrap();
    assert_eq!(moved, vec!["t0".to_string()]);
    let lag = c.lag_report()[standby];
    assert!(!lag.disconnected);
    assert_eq!(lag.lag, 0);
    let q = RangeQuery::select_all(0, 7_000);
    let rows = verify_routed(&c, "t0", &q, FreshnessPolicy::strict()).unwrap();
    assert_eq!(rows, 35);
}

#[test]
fn promote_replica_rejects_bad_edge_ids() {
    let mut c = cluster(1, 10, 2);
    assert!(matches!(
        c.promote_replica(7, 0),
        Err(ClusterError::UnknownEdge(7))
    ));
    assert!(matches!(
        c.promote_replica(0, 7),
        Err(ClusterError::UnknownEdge(7))
    ));
    assert!(matches!(
        c.promote_replica(1, 1),
        Err(ClusterError::UnknownEdge(1))
    ));
}

#[test]
fn resubscribe_after_dropped_table_removes_the_stale_assignment() {
    let mut c = cluster(2, 20, 1);
    c.sync().unwrap();
    assert_eq!(c.shard_map().num_tables(), 2);

    // Drop t1 from the central catalog while the shard map still
    // assigns it, then force the edge through resubscription. The old
    // code panicked on the missing schema; now the stale assignment is
    // removed and the load count shrinks.
    assert!(c.central_mut().drop_table("t1"));
    assert!(!c.central_mut().drop_table("t1"), "second drop is a no-op");
    let version_before = c.shard_map().version();
    c.resubscribe_edge(0).unwrap();
    assert_eq!(c.shard_map().num_tables(), 1);
    assert_eq!(c.shard_map().owner("t1"), None);
    assert!(c.shard_map().version() > version_before);

    // The surviving table still serves verified reads, and the freed
    // load slot is reused by the next assignment.
    let q = RangeQuery::select_all(0, 1_000);
    let rows = verify_routed(&c, "t0", &q, FreshnessPolicy::strict()).unwrap();
    assert_eq!(rows, 20);
    let spec = WorkloadSpec {
        table: "t2".to_string(),
        ..WorkloadSpec::new(10, 3, 8)
    };
    c.create_table(spec.build());
    assert_eq!(c.shard_map().num_tables(), 2);
}

#[test]
fn clone_verified_reproduces_the_store_and_rejects_a_foreign_key() {
    let c = cluster(1, 50, 1);
    let scheme = c.central().scheme().clone();
    let source = c.central().store("t0").unwrap();
    let copy = vbx_edge::clone_verified(&scheme, source, c.central().verifier()).unwrap();
    assert_eq!(copy.len(), source.len());
    assert_eq!(copy.version(), source.version());
    assert_eq!(copy.root_digest().exp, source.root_digest().exp);

    // A verifier holding a different public key refuses the stream on
    // the first chunk — nothing unverified is ever installed.
    let stranger = MockSigner::new(4_242);
    match vbx_edge::clone_verified(&scheme, source, stranger.verifier()) {
        Err(vbx_core::SyncError::BadSignature(_)) => {}
        Err(other) => panic!("expected BadSignature, got {other}"),
        Ok(_) => panic!("a foreign key must not verify the stream"),
    }
}

#[test]
fn killing_an_edge_mid_txn_never_exposes_cross_table_skew() {
    // Atomic multi-table txns under failover: every edge owning a txn
    // table receives the WHOLE atom and applies it all-or-none, so no
    // replica — and no scatter-gather reader — ever observes t0 at the
    // txn's end seq while t1 is still behind (or vice versa).
    let mut c = cluster(2, 40, 4);
    c.sync().unwrap();
    let schema0 = c.central().schema("t0").unwrap().clone();
    let schema1 = c.central().schema("t1").unwrap().clone();
    let (own0, own1) = (c.route("t0").unwrap(), c.route("t1").unwrap());
    assert_ne!(own0, own1, "t0/t1 land on distinct owners");

    // Txn 1: inserts on both tables, one envelope. Drain only t1's
    // owner — t0's owner holds the atom in its queue, "mid-txn".
    let mut txn = c.begin_txn();
    txn.stage("t0", UpdateOp::Insert(fresh_tuple(&schema0, 9_000)))
        .stage("t1", UpdateOp::Insert(fresh_tuple(&schema1, 9_001)));
    let committed = c.commit_txn(txn).expect("txn commit");
    assert_eq!(committed.sections.len(), 2);
    c.drain_edge(own1, usize::MAX).unwrap();

    // The drained owner applied the whole atom: its served table shows
    // the txn key and its position covers the txn's end seq (the t0
    // section advanced it as a placeholder). The undrained owner
    // applied nothing: no txn key, position still before the txn — so
    // a strict freshness check flags that leg as stale rather than
    // ever serving one table of the txn without the other.
    let end_seq = committed.end_seq();
    let drained = c.edge(own1).unwrap();
    assert!(drained.tree("t1").unwrap().get(9_001).is_some());
    assert_eq!(drained.applied_seq(), end_seq);
    let undrained = c.edge(own0).unwrap();
    assert!(undrained.tree("t0").unwrap().get(9_000).is_none());
    assert!(undrained.applied_seq() < committed.start_seq() + 1);

    // Kill t0's owner with the atom still queued and fail over to a
    // standby: the promoted replica rebuilds from the central's
    // post-txn state through verified chunk sync.
    let standby = (0..c.num_edges())
        .find(|e| *e != own0 && *e != own1)
        .unwrap();
    c.mark_edge_dead(own0).unwrap();
    let moved = c.promote_replica(own0, standby).unwrap();
    assert_eq!(moved, vec!["t0".to_string()]);

    // Txn 2 lands after the failover and flows to the new owner.
    let mut txn = c.begin_txn();
    txn.stage("t0", UpdateOp::Insert(fresh_tuple(&schema0, 9_100)))
        .stage("t1", UpdateOp::Insert(fresh_tuple(&schema1, 9_101)))
        .stage("t0", UpdateOp::Delete(3));
    c.commit_txn(txn).expect("post-failover txn");
    c.sync().unwrap();

    // Scatter-gather both tables and verify each leg strictly against
    // the owner position: a leg lagging behind the txn would fail as
    // Stale, so two strict passes prove the reader saw NO skew.
    let q = RangeQuery::select_all(0, 10_000);
    let legs = vec![("t0".to_string(), q.clone()), ("t1".to_string(), q.clone())];
    let acc = c.central().accumulator().clone();
    let (owner_seq, owner_clock) = c.owner_position();
    for routed in c.scatter_gather(&legs).expect("scatter-gather") {
        let schema = c.central().schema(&routed.table).unwrap().clone();
        let verifier = c
            .central()
            .registry()
            .verifier(routed.response.vo.key_version)
            .expect("published key");
        let report = ClientVerifier::new(&acc, &schema)
            .with_freshness(FreshnessPolicy::strict(), owner_seq, owner_clock)
            .verify(verifier.as_ref(), &q, &routed.response)
            .unwrap_or_else(|e| panic!("leg {} failed strict verify: {e}", routed.table));
        // t0: 40 seeded + 2 inserts - 1 delete; t1: 40 seeded + 2 inserts.
        let want = if routed.table == "t0" { 41 } else { 42 };
        assert_eq!(report.rows, want, "leg {} row count", routed.table);
    }

    // Both txns are fully visible on the serving edges, never a subset.
    for (edge, table, key) in [
        (standby, "t0", 9_000),
        (standby, "t0", 9_100),
        (own1, "t1", 9_001),
        (own1, "t1", 9_101),
    ] {
        assert!(
            c.edge(edge)
                .unwrap()
                .tree(table)
                .unwrap()
                .get(key)
                .is_some(),
            "edge {edge} missing {table}/{key} after failover"
        );
    }
}
