//! Standing up the deployment under test: a durable `CentralServer`,
//! an `EdgeServer` provisioned from the central's bundle and served by
//! `NetServer` on TCP loopback, and the client connections.

use crate::seams::{TracedEndpoint, TracedSigner, TracedTransport, TracedVerifier, TracedVfs};
use crate::trace;
use crate::workload::{build_tables, ReadStream, Scale, Workload, READ_TABLE, TABLES};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use vbx_core::{
    decode_compact_response, ClientVerifier, FreshnessPolicy, NetMsg, VbScheme, VbTreeConfig,
};
use vbx_crypto::{rsa, Acc256, SigVerifier, Signer};
use vbx_edge::{
    CentralServer, DurabilityConfig, EdgeBundle, EdgeEndpoint, EdgeServer, FrameEndpoint,
    NetClient, NetServer, TcpTransport, Transport,
};
use vbx_storage::{DiskVfs, Schema, Vfs};

/// The scheme: VB-tree over the 256-bit test accumulator.
pub type Scheme = VbScheme<4>;

/// Delta-log retention; enabling it also turns on per-commit freshness
/// stamps.
pub const DELTA_RETENTION: usize = 1 << 16;

/// The scheme's public parameters.
pub fn scheme() -> Scheme {
    VbScheme::new(Acc256::test_default(), VbTreeConfig::default())
}

/// The owner's key: the RSA-1024 CRT fixture.
pub fn owner_key() -> Arc<dyn Signer> {
    Arc::new(rsa::fixture_keypair_crt_1024())
}

/// What one set-up cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Workload start → first verified response, seconds.
    pub total_s: f64,
    /// Building and signing the tables, seconds.
    pub build_s: f64,
    /// Bundle encode + decode + edge construction, seconds.
    pub bundle_s: f64,
    /// Encoded bundle size.
    pub bundle_bytes: u64,
}

/// A running deployment.
pub struct Stack {
    /// The trusted central (durable).
    pub central: CentralServer<Scheme>,
    /// The edge server behind `server`.
    pub edge: Arc<EdgeServer<Scheme>>,
    /// The TCP frame server.
    pub server: NetServer,
    /// The reader connection.
    pub reader: NetClient,
    /// The writer's connection (`ingest_mixed` only).
    pub writer: Option<NetClient>,
    /// Digest algebra.
    pub acc: Acc256,
    /// Schema of every table, in [`TABLES`] order.
    pub schemas: Vec<Schema>,
    /// The client's signature verifier.
    pub verifier: Arc<dyn SigVerifier>,
    /// The central's WAL directory.
    pub dir: PathBuf,
    /// Delta sequence before the first workload commit.
    pub base_seq: u64,
    /// What the set-up cost.
    pub times: SetupTimes,
}

fn fail(what: &str, e: impl std::fmt::Debug) -> String {
    format!("{what}: {e:?}")
}

impl Stack {
    /// Set up the deployment for `workload` in `dir` (created; must not
    /// hold a previous WAL), wrapping every seam when `traced`. Ends
    /// with one verified response, so the time covers everything a
    /// client waits for before its first answer. While recording is on,
    /// the whole set-up is one `setup` request.
    pub fn setup(
        workload: Workload,
        scale: Scale,
        seed: u64,
        traced: bool,
        dir: &Path,
    ) -> Result<Stack, String> {
        let t0 = Instant::now();
        let _root = trace::root("setup", trace::next_id(), t0);
        let key = owner_key();
        let signer: Arc<dyn Signer> = if traced {
            Arc::new(TracedSigner::new(Arc::clone(&key)))
        } else {
            Arc::clone(&key)
        };
        let disk: Arc<dyn Vfs> = Arc::new(DiskVfs::open(dir).map_err(|e| fail("open wal dir", e))?);
        let vfs: Arc<dyn Vfs> = if traced {
            Arc::new(TracedVfs::new(disk))
        } else {
            disk
        };
        let mut central = CentralServer::with_scheme(scheme(), signer)
            .with_delta_retention(DELTA_RETENTION)
            .with_durability(vfs, DurabilityConfig::default())
            .map_err(|e| fail("durability", e))?;

        let t_build = Instant::now();
        for table in build_tables(scale, seed) {
            central.create_table(table);
        }
        let build_s = t_build.elapsed().as_secs_f64();
        let schemas: Vec<Schema> = TABLES
            .iter()
            .map(|t| {
                central
                    .schema(t)
                    .cloned()
                    .ok_or_else(|| format!("table {t} missing"))
            })
            .collect::<Result<_, _>>()?;
        let stamp = central.heartbeat();
        let base_seq = central.delta_log().next_seq();

        let t_bundle = Instant::now();
        let acc = Acc256::test_default();
        let bundle_bytes = central.bundle().to_bytes();
        let bundle = EdgeBundle::from_bytes(&bundle_bytes, &acc).map_err(|e| fail("bundle", e))?;
        let edge = Arc::new(EdgeServer::from_bundle(bundle));
        let bundle_s = t_bundle.elapsed().as_secs_f64();

        let public = key.verifier();
        let (aggregator, verifier): (Arc<dyn SigVerifier>, Arc<dyn SigVerifier>) = if traced {
            (
                Arc::new(TracedVerifier::edge(Arc::clone(&public))),
                Arc::new(TracedVerifier::client(public)),
            )
        } else {
            (Arc::clone(&public), public)
        };
        let mut endpoint: Arc<dyn FrameEndpoint> =
            Arc::new(EdgeEndpoint::new(Arc::clone(&edge)).with_aggregator(aggregator));
        let transport: Arc<dyn Transport> = if traced {
            endpoint = Arc::new(TracedEndpoint::new(endpoint));
            Arc::new(TracedTransport::new(Arc::new(TcpTransport)))
        } else {
            Arc::new(TcpTransport)
        };
        let listener = transport
            .listen("127.0.0.1:0")
            .map_err(|e| fail("listen", e))?;
        let server = NetServer::spawn(listener, endpoint);

        // Dial one connection at a time and ping it before the next, so
        // the n-th dialled connection is the n-th accepted one.
        let dial = || -> Result<NetClient, String> {
            let mut client = NetClient::connect(transport.as_ref(), server.addr())
                .map_err(|e| fail("connect", e))?;
            client.ping().map_err(|e| fail("ping", e))?;
            Ok(client)
        };
        let mut reader = dial()?;
        let mut writer = if workload.concurrent_writer() {
            Some(dial()?)
        } else {
            None
        };
        let pusher = writer.as_mut().unwrap_or(&mut reader);
        pusher
            .push_replication(&NetMsg::Stamp { stamp: Some(stamp) })
            .map_err(|e| fail("stamp", e))?;

        let mut stack = Stack {
            central,
            edge,
            server,
            reader,
            writer,
            acc,
            schemas,
            verifier,
            dir: dir.to_path_buf(),
            base_seq,
            times: SetupTimes::default(),
        };

        // The first verified response.
        let queries = ReadStream::new(workload, scale, seed, "setup").next_batch();
        let bytes = stack
            .reader
            .query_compact(READ_TABLE, &queries, true)
            .map_err(|e| fail("first query", e))?;
        let resp =
            decode_compact_response::<4>(&bytes, &stack.acc).map_err(|e| fail("decode", e))?;
        let (owner_seq, owner_clock) = stack.central.owner_position();
        ClientVerifier::new(&stack.acc, &stack.schemas[0])
            .with_freshness(FreshnessPolicy::strict(), owner_seq, owner_clock)
            .verify_compact(stack.verifier.as_ref(), &queries, &resp)
            .map_err(|e| fail("first verify", e))?;
        for (part, q) in resp.parts.iter().zip(&queries) {
            let expected = if q.lo >= scale.rows {
                0
            } else {
                q.hi.min(scale.rows - 1) - q.lo + 1
            };
            if part.rows.len() as u64 != expected {
                return Err(format!(
                    "first query: {} rows, expected {expected}",
                    part.rows.len()
                ));
            }
        }

        stack.times = SetupTimes {
            total_s: t0.elapsed().as_secs_f64(),
            build_s,
            bundle_s,
            bundle_bytes: bundle_bytes.len() as u64,
        };
        Ok(stack)
    }

    /// Shut the server down, drop the central, and delete the WAL
    /// directory.
    pub fn close(self) {
        let Stack {
            central,
            edge,
            server,
            reader,
            writer,
            dir,
            ..
        } = self;
        drop(reader);
        drop(writer);
        server.shutdown();
        drop(edge);
        drop(central);
        let _ = std::fs::remove_dir_all(dir);
    }
}
