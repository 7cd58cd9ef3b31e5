//! Wrappers around the program's public seams: `Transport`/`Conn`,
//! `FrameEndpoint`, `Signer`, `SigVerifier` and `Vfs`.
//!
//! Each wrapper forwards every call unchanged to the wrapped object and
//! records a span around it when tracing is on. None of them alters a
//! byte, an order or a result; the `seams` test proves it by running the
//! same seeded smoke workload wrapped and recording, and unwrapped, and
//! comparing response bytes, WAL files and cost-meter counts.
//!
//! The traced connections also carry the span context across the
//! client/server thread boundary: the `n`-th connection dialled pairs
//! with the `n`-th connection accepted (the harness dials one
//! connection at a time and pings it before the next), and the client
//! side publishes its current request and span ids in the pair's slot
//! before each send, so the server thread's spans join the request.

use crate::trace::{self, Ctx};
use std::cell::Cell;
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use vbx_core::{Frame, FrameKind};
use vbx_crypto::signer::AggregateVerify;
use vbx_crypto::{SigVerifier, Signature, Signer};
use vbx_edge::{Conn, ConnState, FrameEndpoint, Listener, Transport};
use vbx_storage::{StorageError, Vfs};

// ---------------------------------------------------------------------
// Transport / Conn
// ---------------------------------------------------------------------

#[derive(Default)]
struct Slot {
    req: AtomicU64,
    parent: AtomicU64,
}

#[derive(Default)]
struct Pairing {
    dialed: AtomicUsize,
    accepted: AtomicUsize,
    slots: Mutex<Vec<Arc<Slot>>>,
}

impl Pairing {
    fn slot(&self, index: usize) -> Arc<Slot> {
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        while slots.len() <= index {
            slots.push(Arc::default());
        }
        Arc::clone(&slots[index])
    }
}

thread_local! {
    /// Frames and bytes this thread's client connections moved since
    /// the last [`take_net_io`].
    static NET_IO: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count_io(frame: &Frame) {
    NET_IO.with(|c| {
        let (frames, bytes) = c.get();
        c.set((frames + 1, bytes + frame.encoded_len() as u64));
    });
}

/// Frames and bytes sent plus received by this thread's traced client
/// connections since the previous call.
pub fn take_net_io() -> (u64, u64) {
    NET_IO.with(|c| c.replace((0, 0)))
}

/// A transport whose connections propagate span context and count
/// frames.
pub struct TracedTransport {
    inner: Arc<dyn Transport>,
    pairing: Arc<Pairing>,
}

impl TracedTransport {
    /// Wrap a transport.
    pub fn new(inner: Arc<dyn Transport>) -> Self {
        Self {
            inner,
            pairing: Arc::default(),
        }
    }
}

struct TracedConn {
    inner: Box<dyn Conn>,
    slot: Arc<Slot>,
    server: bool,
}

impl Conn for TracedConn {
    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        if !self.server {
            let c = trace::ctx();
            self.slot.req.store(c.req, Ordering::SeqCst);
            self.slot.parent.store(c.parent, Ordering::SeqCst);
            count_io(frame);
        }
        self.inner.send(frame)
    }

    fn recv(&mut self) -> io::Result<Frame> {
        let frame = self.inner.recv()?;
        if self.server {
            trace::set_ctx(Ctx {
                req: self.slot.req.load(Ordering::SeqCst),
                parent: self.slot.parent.load(Ordering::SeqCst),
            });
        } else {
            count_io(&frame);
        }
        Ok(frame)
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }
}

struct TracedListener {
    inner: Box<dyn Listener>,
    pairing: Arc<Pairing>,
}

impl Listener for TracedListener {
    fn accept(&mut self) -> io::Result<Option<Box<dyn Conn>>> {
        Ok(self.inner.accept()?.map(|conn| {
            let index = self.pairing.accepted.fetch_add(1, Ordering::SeqCst);
            Box::new(TracedConn {
                inner: conn,
                slot: self.pairing.slot(index),
                server: true,
            }) as Box<dyn Conn>
        }))
    }

    fn local_addr(&self) -> String {
        self.inner.local_addr()
    }
}

impl Transport for TracedTransport {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn listen(&self, addr: &str) -> io::Result<Box<dyn Listener>> {
        Ok(Box::new(TracedListener {
            inner: self.inner.listen(addr)?,
            pairing: Arc::clone(&self.pairing),
        }))
    }

    fn connect(&self, addr: &str) -> io::Result<Box<dyn Conn>> {
        let conn = self.inner.connect(addr)?;
        let index = self.pairing.dialed.fetch_add(1, Ordering::SeqCst);
        Ok(Box::new(TracedConn {
            inner: conn,
            slot: self.pairing.slot(index),
            server: false,
        }))
    }
}

// ---------------------------------------------------------------------
// FrameEndpoint
// ---------------------------------------------------------------------

/// An endpoint that times `serve_frame` by request kind.
pub struct TracedEndpoint {
    inner: Arc<dyn FrameEndpoint>,
}

impl TracedEndpoint {
    /// Wrap an endpoint.
    pub fn new(inner: Arc<dyn FrameEndpoint>) -> Self {
        Self { inner }
    }
}

impl FrameEndpoint for TracedEndpoint {
    fn serve_frame(&self, state: &mut ConnState, frame: &Frame) -> Vec<Frame> {
        let name = match frame.kind {
            FrameKind::CompactReq => "edge.query",
            FrameKind::DeltaBatch => "edge.apply_batch",
            FrameKind::DeltaTxn => "edge.apply_txn",
            _ => "edge.other",
        };
        let mut span = trace::enter(name);
        let out = self.inner.serve_frame(state, frame);
        span.add_bytes(out.iter().map(|f| f.encoded_len() as u64).sum());
        out
    }
}

// ---------------------------------------------------------------------
// Signer / SigVerifier
// ---------------------------------------------------------------------

/// A signer that times every signature.
pub struct TracedSigner {
    inner: Arc<dyn Signer>,
}

impl TracedSigner {
    /// Wrap a signer.
    pub fn new(inner: Arc<dyn Signer>) -> Self {
        Self { inner }
    }
}

impl Signer for TracedSigner {
    fn sign(&self, msg: &[u8]) -> Signature {
        let _span = trace::enter("crypto.sign");
        self.inner.sign(msg)
    }

    fn signature_len(&self) -> usize {
        self.inner.signature_len()
    }

    fn key_version(&self) -> u32 {
        self.inner.key_version()
    }

    fn verifier(&self) -> Arc<dyn SigVerifier> {
        self.inner.verifier()
    }
}

/// A verifier that times signature checks (client side) or signature
/// condensing (the edge's aggregator).
pub struct TracedVerifier {
    inner: Arc<dyn SigVerifier>,
    check: &'static str,
    condense: &'static str,
}

impl TracedVerifier {
    /// The client's verifier: checks are `client.sigverify` spans.
    pub fn client(inner: Arc<dyn SigVerifier>) -> Self {
        Self {
            inner,
            check: "client.sigverify",
            condense: "client.aggregate",
        }
    }

    /// The edge's aggregator: condensing is `edge.aggregate` spans.
    pub fn edge(inner: Arc<dyn SigVerifier>) -> Self {
        Self {
            inner,
            check: "edge.sigverify",
            condense: "edge.aggregate",
        }
    }
}

struct TracedAggregate {
    inner: Box<dyn AggregateVerify>,
    name: &'static str,
    absorb_ns: u64,
}

impl AggregateVerify for TracedAggregate {
    fn absorb(&mut self, msg: &[u8]) {
        if trace::enabled() {
            let t0 = Instant::now();
            self.inner.absorb(msg);
            self.absorb_ns += t0.elapsed().as_nanos() as u64;
        } else {
            self.inner.absorb(msg);
        }
    }

    fn finish(self: Box<Self>, agg: &Signature) -> bool {
        let TracedAggregate {
            inner,
            name,
            absorb_ns,
        } = *self;
        let mut span = trace::enter(name);
        span.add_aux(absorb_ns);
        inner.finish(agg)
    }
}

impl SigVerifier for TracedVerifier {
    fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        let _span = trace::enter(self.check);
        self.inner.verify(msg, sig)
    }

    fn signature_len(&self) -> usize {
        self.inner.signature_len()
    }

    fn key_version(&self) -> u32 {
        self.inner.key_version()
    }

    fn aggregate_signatures(&self, sigs: &[Signature]) -> Option<Signature> {
        let _span = trace::enter(self.condense);
        self.inner.aggregate_signatures(sigs)
    }

    fn begin_aggregate(&self) -> Option<Box<dyn AggregateVerify>> {
        let inner = self.inner.begin_aggregate()?;
        Some(Box::new(TracedAggregate {
            inner,
            name: self.check,
            absorb_ns: 0,
        }))
    }
}

// ---------------------------------------------------------------------
// Vfs
// ---------------------------------------------------------------------

/// A file system that times appends, fsyncs and checkpoint writes.
pub struct TracedVfs {
    inner: Arc<dyn Vfs>,
}

impl TracedVfs {
    /// Wrap a file system.
    pub fn new(inner: Arc<dyn Vfs>) -> Self {
        Self { inner }
    }
}

impl Vfs for TracedVfs {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        self.inner.read(name)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let mut span = trace::enter("storage.append");
        span.add_bytes(bytes.len() as u64);
        self.inner.append(name, bytes)
    }

    fn sync(&self, name: &str) -> Result<(), StorageError> {
        let _span = trace::enter("storage.fsync");
        self.inner.sync(name)
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let mut span = trace::enter(if name.starts_with("ckpt-") {
            "storage.checkpoint"
        } else {
            "storage.write_atomic"
        });
        span.add_bytes(bytes.len() as u64);
        self.inner.write_atomic(name, bytes)
    }

    fn truncate(&self, name: &str) -> Result<(), StorageError> {
        let _span = trace::enter("storage.truncate");
        self.inner.truncate(name)
    }

    fn remove(&self, name: &str) -> Result<(), StorageError> {
        self.inner.remove(name)
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        self.inner.list()
    }
}
