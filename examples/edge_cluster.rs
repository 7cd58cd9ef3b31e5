//! An edge-computing cluster: one central server, three edge servers,
//! live updates propagated as signed deltas, and key rotation exposing a
//! lagging replica.
//!
//! ```text
//! cargo run --example edge_cluster
//! ```

use std::sync::Arc;
use vbx::prelude::*;

fn main() {
    let acc = Acc256::test_default();
    let signer = Arc::new(MockSigner::with_version(99, 1));
    let mut central = CentralServer::new(acc.clone(), signer, VbTreeConfig::default());
    central.create_table(
        WorkloadSpec {
            table: "sensors".into(),
            ..WorkloadSpec::new(3_000, 5, 12)
        }
        .build(),
    );

    // Three geographically-distributed edges receive replicas.
    let mut edges: Vec<EdgeServer<VbScheme<4>>> = (0..3)
        .map(|_| EdgeServer::from_bundle(central.bundle()))
        .collect();
    let client = EdgeClient::new(edges[0].schemas(), acc.clone());
    println!("cluster: central + {} edges", edges.len());

    // ------------------------------------------------------------------
    // Live updates: the central server commits each one as a batch of
    // one and ships the signed delta; replicas replay it without any key
    // under the Section 3.4 path locks.
    // ------------------------------------------------------------------
    let schema = central.tree("sensors").unwrap().schema().clone();
    for k in 10_000..10_020u64 {
        let tuple = Tuple::new(
            &schema,
            k,
            vec![
                Value::from(format!("reading-{k}")),
                Value::from("site-7"),
                Value::from("ok"),
                Value::from("raw"),
                Value::from((k % 100) as i64),
            ],
        )
        .unwrap();
        let delta = central.insert("sensors", tuple).unwrap();
        for e in &mut edges {
            e.apply_delta_batch(&delta).unwrap();
        }
    }
    let delta = central.delete_range("sensors", 100, 149).unwrap();
    for e in &mut edges {
        e.apply_delta_batch(&delta).unwrap();
    }
    println!(
        "updates: 20 inserts + one 50-row range delete propagated; edge 0 lock stats: {:?}",
        edges[0].service().lock_stats()
    );

    // Every replica is digest-identical to the master.
    let master = central.tree("sensors").unwrap().root_digest().exp;
    for (i, e) in edges.iter().enumerate() {
        assert_eq!(e.tree("sensors").unwrap().root_digest().exp, master);
        println!("edge {i}: replica digest matches master");
    }

    // Queries spanning old and new data verify everywhere.
    let sql = "SELECT a0, a4 FROM sensors WHERE id BETWEEN 9990 AND 10005";
    for (i, e) in edges.iter().enumerate() {
        let (_, resp) = e.query_sql(sql).unwrap();
        let rows = client
            .verify(
                sql,
                &resp,
                central.registry(),
                KeyFreshnessPolicy::RequireCurrent,
            )
            .unwrap();
        println!("edge {i}: answered + verified {} rows", rows.rows.len());
    }

    // ------------------------------------------------------------------
    // Key rotation: edge 2 misses the rotation and serves stale data.
    // ------------------------------------------------------------------
    central.rotate_key(Arc::new(MockSigner::with_version(99, 2)));
    let fresh_edge = EdgeServer::from_bundle(central.bundle());
    let (_, fresh) = fresh_edge.query_sql(sql).unwrap();
    let (_, stale) = edges[2].query_sql(sql).unwrap();
    println!(
        "rotation: fresh edge signs under v{}, lagging edge under v{}",
        fresh.vo.key_version, stale.vo.key_version
    );
    assert!(client
        .verify(
            sql,
            &fresh,
            central.registry(),
            KeyFreshnessPolicy::RequireCurrent
        )
        .is_ok());
    match client.verify(
        sql,
        &stale,
        central.registry(),
        KeyFreshnessPolicy::RequireCurrent,
    ) {
        Err(e) => println!("client: stale replica rejected — {e}"),
        Ok(_) => unreachable!("stale key must be rejected under RequireCurrent"),
    }
}
