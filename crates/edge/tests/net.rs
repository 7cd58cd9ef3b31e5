//! Networked-deployment conformance: the same seeded
//! query + update + tamper script runs over the in-process loopback
//! transport and over real TCP, and must produce **byte-identical**
//! response envelopes and identical client verdicts — including the
//! `Stale` rejection of an unreplicated edge and the tamper matrix.
//! Plus: the bounded subscription backlog (a lagging subscriber gets an
//! explicit error, never an unbounded queue) and graceful shutdown.

use std::sync::Arc;
use vbx_core::{
    decode_compact_response, decode_response, ClientVerifier, FreshnessPolicy, RangeQuery,
    VbScheme, VbTreeConfig,
};
use vbx_crypto::signer::{MockSigner, Signer};
use vbx_crypto::Acc256;
use vbx_edge::net::{bootstrap_edge, replicate_once, sync_stamp, ChunkFetch};
use vbx_edge::{
    restore_table, CentralEndpoint, CentralServer, EdgeEndpoint, EdgeError, FrameEndpoint,
    LoopbackTransport, NetClient, NetError, NetServer, TamperMode, TcpTransport, Transport,
};
use vbx_storage::workload::WorkloadSpec;
use vbx_storage::{Schema, Tuple, Value};

const SEED_VERSION: u64 = 9;

fn central_fixture() -> (CentralServer<VbScheme<4>>, Arc<MockSigner>) {
    let signer = Arc::new(MockSigner::with_version(SEED_VERSION, 1));
    let scheme = VbScheme::new(Acc256::test_default(), VbTreeConfig::with_fanout(6));
    let mut central = CentralServer::with_scheme(scheme, signer.clone()).with_delta_retention(64);
    central.create_table(
        WorkloadSpec {
            table: "t0".to_string(),
            ..WorkloadSpec::new(48, 3, 8)
        }
        .build(),
    );
    (central, signer)
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

/// One transcript entry: a step label plus the bytes (a verbatim wire
/// envelope, or a rendered verdict) the step produced.
type Transcript = Vec<(String, Vec<u8>)>;

/// The seeded conformance script. Every byte it records — response
/// envelopes and rendered verify verdicts — must be identical whichever
/// transport carries the frames.
fn run_script(transport: &dyn Transport, central_addr: &str, edge_addr: &str) -> Transcript {
    let mut t: Transcript = Vec::new();
    let (central, signer) = central_fixture();
    let acc = Acc256::test_default();
    let schema = central.schema("t0").expect("seeded table").clone();
    let verifier = signer.verifier();

    // Trusted side on the wire.
    let central_ep = Arc::new(CentralEndpoint::new(central));
    let central_srv = NetServer::spawn(
        transport.listen(central_addr).expect("bind central"),
        central_ep.clone() as Arc<dyn FrameEndpoint>,
    );
    let mut feed = NetClient::connect(transport, central_srv.addr()).expect("dial central");

    // Provision the edge over the wire, then serve it on the wire too.
    let edge = Arc::new(bootstrap_edge(&mut feed, &acc).expect("bootstrap from bundle"));
    sync_stamp(&mut feed, &edge).expect("initial stamp");
    let edge_ep = Arc::new(EdgeEndpoint::new(edge.clone()).with_aggregator(verifier.clone()));
    let edge_srv = NetServer::spawn(
        transport.listen(edge_addr).expect("bind edge"),
        edge_ep.clone() as Arc<dyn FrameEndpoint>,
    );
    let mut reader = NetClient::connect(transport, edge_srv.addr()).expect("dial edge");

    let q = RangeQuery::select_all(5, 25);
    let owner = |ep: &CentralEndpoint<4>| ep.with_central(|c| c.owner_position());
    let verify = |bytes: &[u8], (seq, clock): (u64, u64)| -> Vec<u8> {
        let resp = decode_response(bytes, &acc).expect("envelope decodes");
        let verdict = ClientVerifier::new(&acc, &schema)
            .with_freshness(FreshnessPolicy::strict(), seq, clock)
            .verify(verifier.as_ref(), &q, &resp)
            .map(|v| v.rows);
        format!("{verdict:?}").into_bytes()
    };

    // 1. A fresh verified read of the seeded table.
    let bytes = reader.query_range("t0", &q).expect("range query");
    t.push(("q1.verdict".into(), verify(&bytes, owner(&central_ep))));
    t.push(("q1.bytes".into(), bytes));

    // 2. Commit updates at the central, replicate them over the wire,
    //    and read again: new rows visible, still verifiably fresh.
    central_ep.with_central(|c| {
        c.insert("t0", fresh_tuple(&schema, 500)).expect("insert");
        c.delete("t0", 3).expect("delete");
        c.heartbeat();
    });
    feed.subscribe(edge.applied_seq()).expect("subscribe");
    let applied = replicate_once(&mut feed, &edge, 64).expect("replicate");
    assert_eq!(applied, 2, "one DeltaBatch frame per committed op");
    sync_stamp(&mut feed, &edge).expect("stamp after replication");
    let bytes = reader.query_range("t0", &q).expect("post-update query");
    t.push(("q2.verdict".into(), verify(&bytes, owner(&central_ep))));
    t.push(("q2.bytes".into(), bytes));

    // 3. A compact (VBX4) read with signature aggregation.
    let queries = [
        RangeQuery::select_all(5, 25),
        RangeQuery::select_all(30, 41),
    ];
    let bytes = reader
        .query_compact("t0", &queries, true)
        .expect("compact query");
    let compact = decode_compact_response(&bytes, &acc).expect("VBX4 decodes");
    let verdict = ClientVerifier::new(&acc, &schema)
        .verify_compact(verifier.as_ref(), &queries, &compact)
        .map(|v| v.rows);
    t.push(("q3.verdict".into(), format!("{verdict:?}").into_bytes()));
    t.push(("q3.bytes".into(), bytes));

    // 4. Commit without replicating: the edge's stamp ages out and a
    //    strict client must reject the read as Stale — same verdict,
    //    same bytes, on either transport.
    central_ep.with_central(|c| {
        c.insert("t0", fresh_tuple(&schema, 700)).expect("insert");
        c.heartbeat();
    });
    let bytes = reader
        .query_range("t0", &q)
        .expect("stale edge still serves");
    let verdict = verify(&bytes, owner(&central_ep));
    assert!(
        std::str::from_utf8(&verdict).unwrap().contains("Stale"),
        "unreplicated edge must verify as stale"
    );
    t.push(("q4.verdict".into(), verdict));
    t.push(("q4.bytes".into(), bytes));

    // 5. Catch up, then run the tamper matrix through the socket: a
    //    compromised edge is caught by verification, not by transport.
    feed.subscribe(edge.applied_seq()).expect("resubscribe");
    replicate_once(&mut feed, &edge, 64).expect("catch up");
    sync_stamp(&mut feed, &edge).expect("fresh stamp");
    for (name, mode) in [
        ("mutate", TamperMode::MutateValue),
        ("inject", TamperMode::InjectRow),
        ("drop", TamperMode::DropRow),
    ] {
        edge.set_tamper(mode);
        let bytes = reader.query_range("t0", &q).expect("tampered edge serves");
        let verdict = verify(&bytes, owner(&central_ep));
        assert!(
            std::str::from_utf8(&verdict).unwrap().starts_with("Err"),
            "{name}: tampering must be rejected"
        );
        t.push((format!("tamper.{name}.verdict"), verdict));
        t.push((format!("tamper.{name}.bytes"), bytes));
    }
    edge.set_tamper(TamperMode::None);

    // 6. Honest again: the final read verifies.
    let bytes = reader.query_range("t0", &q).expect("honest query");
    let verdict = verify(&bytes, owner(&central_ep));
    assert!(std::str::from_utf8(&verdict).unwrap().starts_with("Ok"));
    t.push(("q5.verdict".into(), verdict));
    t.push(("q5.bytes".into(), bytes));

    assert!(
        central_srv
            .stats()
            .frames
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0
    );
    assert!(
        edge_srv
            .stats()
            .frames
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0
    );
    edge_srv.shutdown();
    central_srv.shutdown();
    t
}

#[test]
fn loopback_and_tcp_transcripts_are_byte_identical() {
    let loopback = LoopbackTransport::new();
    let a = run_script(&loopback, "conf-central", "conf-edge");
    let tcp = TcpTransport;
    let b = run_script(&tcp, "127.0.0.1:0", "127.0.0.1:0");

    assert_eq!(a.len(), b.len(), "same script, same number of steps");
    for ((la, ba), (lb, bb)) in a.iter().zip(&b) {
        assert_eq!(la, lb, "step order diverged");
        assert_eq!(ba, bb, "step {la}: loopback and TCP bytes diverged");
    }
}

#[test]
fn lagging_subscriber_gets_explicit_error_not_unbounded_queue() {
    let (central, _signer) = central_fixture();
    let schema = central.schema("t0").unwrap().clone();
    let central_ep = Arc::new(CentralEndpoint::new(central).with_max_backlog(4));
    let transport = LoopbackTransport::new();
    let srv = NetServer::spawn(
        transport.listen("lag-central").unwrap(),
        central_ep.clone() as Arc<dyn FrameEndpoint>,
    );
    let mut client = NetClient::connect(&transport, srv.addr()).unwrap();

    client.subscribe(0).expect("subscribe at genesis");
    // Fall 6 entries behind a bound of 4.
    central_ep.with_central(|c| {
        for k in 0..6 {
            c.insert("t0", fresh_tuple(&schema, 900 + k)).unwrap();
        }
    });
    match client.poll_deltas(64) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, vbx_core::ErrorCode::Lagging),
        other => panic!("expected Lagging disconnect, got {other:?}"),
    }
    // The subscription is gone — polling again is a protocol error…
    match client.poll_deltas(64) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, vbx_core::ErrorCode::BadRequest),
        other => panic!("expected poll-before-subscribe, got {other:?}"),
    }
    // …until an explicit resubscribe at the head, which drains clean.
    let (head, _oldest) = client.subscribe(6).expect("resubscribe at head");
    assert_eq!(head, 6);
    let (entries, _, _) = client.poll_deltas(64).expect("healthy poll");
    assert!(entries.is_empty(), "caught-up subscriber has no backlog");
    srv.shutdown();
}

#[test]
fn tcp_shutdown_is_graceful_and_connections_drain() {
    let (central, _signer) = central_fixture();
    let central_ep = Arc::new(CentralEndpoint::new(central));
    let tcp = TcpTransport;
    let srv = NetServer::spawn(
        tcp.listen("127.0.0.1:0").unwrap(),
        central_ep as Arc<dyn FrameEndpoint>,
    );
    let addr = srv.addr().to_string();

    // A handful of concurrent clients, each mid-conversation.
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                let mut c = NetClient::connect(&TcpTransport, &addr).unwrap();
                for _ in 0..3 {
                    c.ping().expect("server answers while up");
                }
            });
        }
    });
    let stats = srv.stats();
    assert!(stats.accepted.load(std::sync::atomic::Ordering::Relaxed) >= 4);
    assert_eq!(
        stats.frames.load(std::sync::atomic::Ordering::Relaxed),
        12,
        "every ping frame was served"
    );
    srv.shutdown(); // joins the accept loop and every connection thread

    // The endpoint is gone: a fresh dial must fail (refused) or find a
    // dead socket (EOF/timeout on the call) — never hang forever.
    if let Ok(mut c) = NetClient::connect(&TcpTransport, &addr) {
        assert!(c.ping().is_err(), "no one is serving after shutdown");
    }
}

// ---------------------------------------------------------------------
// Verified chunked state sync over the wire.
// ---------------------------------------------------------------------

/// Drive a full verified restore of `t0` over `transport`: record the
/// verbatim chunk bytes (the conformance transcript), rebuild through
/// [`restore_table`], and check the replica and the resume cursor.
fn run_restore(
    transport: &dyn Transport,
    addr: &str,
) -> (Vec<Vec<u8>>, vbx_edge::RestoredTable<4>) {
    let (central, signer) = central_fixture();
    let schema = central.schema("t0").expect("seeded table").clone();
    let central_ep = Arc::new(CentralEndpoint::new(central));
    let srv = NetServer::spawn(
        transport.listen(addr).expect("bind central"),
        central_ep.clone() as Arc<dyn FrameEndpoint>,
    );
    // Commit a couple of updates first, so the restored state is not
    // just the bulk-loaded seed and the log head is past genesis.
    central_ep.with_central(|c| {
        c.insert("t0", fresh_tuple(&schema, 800)).expect("insert");
        c.delete("t0", 7).expect("delete");
    });

    let mut client = NetClient::connect(transport, srv.addr()).expect("dial central");

    // Raw fetch loop — keeps the verbatim chunk bytes so the two
    // transports can be compared byte-for-byte.
    let mut raw: Vec<Vec<u8>> = Vec::new();
    loop {
        match client
            .fetch_chunk("t0", raw.len() as u32)
            .expect("fetch chunk")
        {
            ChunkFetch::Chunk(bytes) => raw.push(bytes),
            ChunkFetch::Done { chunks, head } => {
                assert_eq!(chunks as usize, raw.len(), "stream length is stable");
                assert_eq!(head, 2, "two committed ops ahead of the seed");
                break;
            }
        }
    }

    // The library path: restore, verifying every chunk as it ingests.
    let scheme = VbScheme::new(Acc256::test_default(), VbTreeConfig::with_fanout(6));
    let restored =
        restore_table(&mut client, &scheme, signer.verifier(), "t0").expect("verified restore");

    // The restored replica matches the central's live store exactly and
    // passes a full audit, signatures included.
    let (len, version, root) = central_ep.with_central(|c| {
        let s = c.store("t0").expect("t0 lives");
        (s.len(), s.version(), s.root_digest().clone())
    });
    assert_eq!(restored.tree.len(), len);
    assert_eq!(restored.tree.version(), version);
    assert_eq!(*restored.tree.root_digest(), root);
    restored
        .tree
        .check_integrity(Some(signer.verifier().as_ref()))
        .expect("restored replica passes a full audit");

    // `head` is the exact cursor to subscribe from: no gap, no replay.
    let (h, _oldest) = client.subscribe(restored.head).expect("subscribe at head");
    assert_eq!(h, restored.head);
    let (entries, _, _) = client.poll_deltas(16).expect("healthy poll");
    assert!(
        entries.is_empty(),
        "restored-at-head replica has no backlog"
    );

    // Error surface: an unknown table is a remote error, and an index
    // past the end is the Done marker, not a failure.
    match client.fetch_chunk("nope", 0) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, vbx_core::ErrorCode::UnknownTable),
        other => panic!("expected UnknownTable, got {other:?}"),
    }
    match client.fetch_chunk("t0", 1_000).expect("past-end fetch") {
        ChunkFetch::Done { chunks, .. } => assert_eq!(chunks as usize, raw.len()),
        ChunkFetch::Chunk(_) => panic!("index past the end must answer Done"),
    }

    srv.shutdown();
    (raw, restored)
}

#[test]
fn chunk_streams_are_verified_and_byte_identical_across_transports() {
    let loopback = LoopbackTransport::new();
    let (raw_a, restored_a) = run_restore(&loopback, "restore-central");
    let (raw_b, restored_b) = run_restore(&TcpTransport, "127.0.0.1:0");

    assert_eq!(raw_a, raw_b, "loopback and TCP chunk streams diverged");
    assert_eq!(restored_a.chunks as usize, raw_a.len());
    assert_eq!(restored_a.head, restored_b.head);
    assert_eq!(
        restored_a.tree.root_digest(),
        restored_b.tree.root_digest(),
        "both transports restored the same tree"
    );
}

#[test]
fn a_tampered_chunk_off_the_wire_is_rejected_mid_restore() {
    let (central, signer) = central_fixture();
    let central_ep = Arc::new(CentralEndpoint::new(central));
    let transport = LoopbackTransport::new();
    let srv = NetServer::spawn(
        transport.listen("tamper-restore").unwrap(),
        central_ep.clone() as Arc<dyn FrameEndpoint>,
    );
    let mut client = NetClient::connect(&transport, srv.addr()).unwrap();

    let fetch = |client: &mut NetClient, i: u32| match client.fetch_chunk("t0", i).unwrap() {
        ChunkFetch::Chunk(bytes) => bytes,
        ChunkFetch::Done { .. } => panic!("chunk {i} exists"),
    };
    let skeleton = fetch(&mut client, 0);
    let mut leaves = fetch(&mut client, 1);

    // An on-path attacker flips one bit in a leaf run: the restorer
    // rejects the chunk the moment it ingests it — never at finish(),
    // never by installing the state.
    let mid = leaves.len() / 2;
    leaves[mid] ^= 0x08;
    let mut r = vbx_core::Restorer::new(Acc256::test_default(), signer.verifier());
    r.ingest(&skeleton).expect("honest skeleton");
    assert!(
        r.ingest(&leaves).is_err(),
        "a flipped bit in a wire chunk must be rejected as it ingests"
    );
    srv.shutdown();
}

#[test]
fn replicate_once_reports_typed_apply_failures_with_progress() {
    // Two tables; the edge's t1 replica is silently diverged (it
    // already holds key 999), so the second replicated entry must fail
    // with the *typed* apply error — not flattened into a protocol
    // error — and report how far the cursor advanced first.
    let (mut central, signer) = central_fixture();
    central.create_table(
        WorkloadSpec {
            table: "t1".to_string(),
            ..WorkloadSpec::new(30, 3, 8)
        }
        .build(),
    );
    let schema0 = central.schema("t0").unwrap().clone();
    let schema1 = central.schema("t1").unwrap().clone();
    let central_ep = Arc::new(CentralEndpoint::new(central));
    let transport = LoopbackTransport::new();
    let srv = NetServer::spawn(
        transport.listen("apply-central").unwrap(),
        central_ep.clone() as Arc<dyn FrameEndpoint>,
    );
    let mut feed = NetClient::connect(&transport, srv.addr()).unwrap();

    let acc = Acc256::test_default();
    let mut edge = bootstrap_edge(&mut feed, &acc).expect("bootstrap");

    // Diverge: pre-install a t1 replica that already contains key 999.
    let mut diverged = (*edge.store("t1").expect("t1 replica")).clone();
    diverged
        .insert(fresh_tuple(&schema1, 999), signer.as_ref())
        .expect("local divergence");
    edge.install_table("t1", schema1.clone(), diverged);

    // The central commits two ops; the first applies cleanly, the
    // second collides with the divergence.
    central_ep.with_central(|c| {
        c.insert("t0", fresh_tuple(&schema0, 800)).expect("t0 op");
        c.insert("t1", fresh_tuple(&schema1, 999)).expect("t1 op");
    });
    feed.subscribe(edge.applied_seq()).expect("subscribe");
    match replicate_once(&mut feed, &edge, 64) {
        Err(NetError::Apply {
            applied,
            source: EdgeError::Scheme(_),
        }) => assert_eq!(applied, 1, "the t0 op landed before the failure"),
        other => panic!("expected a typed Apply failure, got {other:?}"),
    }
    assert_eq!(
        edge.applied_seq(),
        1,
        "the cursor advanced exactly past the good op"
    );
    srv.shutdown();
}
