//! In-memory span recorder for the traced run.
//!
//! A span is `(id, parent, request, name, start, end)` plus two
//! counters (`bytes`, `aux`). Spans of one request share its request
//! id; the parent link is carried in a thread-local context, and across
//! the client/server thread boundary by the traced connections in
//! [`crate::seams`]. Recording is off unless [`set_enabled`] turned it
//! on, so an untraced phase pays one relaxed atomic load per seam call.
//! Spans stay in memory and are written out once, at exit.

use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Unique span id (never 0).
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    /// Request id shared by every span of one request (0 for none).
    pub req: u64,
    /// `layer.operation`, e.g. `client.verify`.
    pub name: &'static str,
    /// Start, nanoseconds since the process epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the process epoch.
    pub end_ns: u64,
    /// Bytes moved by the operation, where that is meaningful.
    pub bytes: u64,
    /// A second per-span counter (frames on request roots, absorbed
    /// aggregate-verification nanoseconds on `client.sigverify`).
    pub aux: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span context a new span inherits on this thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ctx {
    /// Request id.
    pub req: u64,
    /// Parent span id.
    pub parent: u64,
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static CTX: Cell<Ctx> = const { Cell::new(Ctx { req: 0, parent: 0 }) };
}

/// The process epoch all span times count from.
pub fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the epoch.
pub fn now_ns() -> u64 {
    ns_at(Instant::now())
}

/// Nanoseconds from the epoch to `t` (0 if `t` is earlier).
pub fn ns_at(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Turn recording on or off.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A fresh id for a request or span.
pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// This thread's current context.
pub fn ctx() -> Ctx {
    CTX.with(|c| c.get())
}

/// Replace this thread's context.
pub fn set_ctx(ctx: Ctx) {
    CTX.with(|c| c.set(ctx));
}

/// Take every recorded span, leaving the recorder empty.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()))
}

/// An open span; it is recorded when dropped. Inert when recording was
/// off at creation.
pub struct Guard {
    span: Span,
    prev: Ctx,
    live: bool,
}

impl Guard {
    fn inert() -> Self {
        Guard {
            span: Span {
                id: 0,
                parent: 0,
                req: 0,
                name: "",
                start_ns: 0,
                end_ns: 0,
                bytes: 0,
                aux: 0,
            },
            prev: Ctx::default(),
            live: false,
        }
    }

    /// Whether this span will be recorded.
    pub fn live(&self) -> bool {
        self.live
    }

    /// Add to the span's byte count.
    pub fn add_bytes(&mut self, n: u64) {
        self.span.bytes += n;
    }

    /// Add to the span's auxiliary count.
    pub fn add_aux(&mut self, n: u64) {
        self.span.aux += n;
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        self.span.end_ns = now_ns().max(self.span.start_ns);
        set_ctx(self.prev);
        SPANS
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(self.span);
    }
}

/// Open a child span of the current context.
pub fn enter(name: &'static str) -> Guard {
    if !enabled() {
        return Guard::inert();
    }
    let prev = ctx();
    let id = next_id();
    set_ctx(Ctx {
        req: prev.req,
        parent: id,
    });
    Guard {
        span: Span {
            id,
            parent: prev.parent,
            req: prev.req,
            name,
            start_ns: now_ns(),
            end_ns: 0,
            bytes: 0,
            aux: 0,
        },
        prev,
        live: true,
    }
}

/// Open a request's root span, starting at `start` (the request's
/// scheduled time, which may lie in the past).
pub fn root(name: &'static str, req: u64, start: Instant) -> Guard {
    if !enabled() {
        return Guard::inert();
    }
    let prev = ctx();
    let id = next_id();
    set_ctx(Ctx { req, parent: id });
    Guard {
        span: Span {
            id,
            parent: 0,
            req,
            name,
            start_ns: ns_at(start),
            end_ns: 0,
            bytes: 0,
            aux: 0,
        },
        prev,
        live: true,
    }
}

/// Record an already-finished child span of the current context.
pub fn record_between(name: &'static str, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    let c = ctx();
    let span = Span {
        id: next_id(),
        parent: c.parent,
        req: c.req,
        name,
        start_ns: ns_at(start),
        end_ns: ns_at(end).max(ns_at(start)),
        bytes: 0,
        aux: 0,
    };
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(span);
}

/// Write spans as JSON lines (one object per span).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"bytes\":{},\"aux\":{}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns, s.bytes, s.aux
        )?;
    }
    out.flush()
}
