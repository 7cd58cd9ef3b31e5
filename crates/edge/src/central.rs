//! The trusted central DBMS, generic over the authentication scheme.
//!
//! Owns the master database, the private signing key, and the
//! authoritative authenticated stores (VB-trees, Naive digest tables, or
//! Merkle trees — anything implementing
//! [`AuthScheme`](vbx_core::scheme::AuthScheme)). Every write — a single
//! op, a group-committed batch, a multi-table transaction — goes through
//! one commit routine that records **signed update deltas** for edge
//! replicas (which cannot sign anything themselves), refreshes
//! materialised join views, and manages key rotation with validity
//! windows for the delayed-propagation mode. The central is the single
//! writer (`&mut self`), so it takes no locks; the Section 3.4 protocol
//! runs at the edges, where readers race the replayed writes.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use vbx_core::scheme::{AuthScheme, DeltaBatch, TxnBatch, UpdateOp, VbScheme};
use vbx_core::{CoreError, FreshnessStamp, VbTree, VbTreeConfig};
use vbx_crypto::accum::Accumulator;
use vbx_crypto::{KeyRegistry, Signer};
use vbx_query::{build_view_table, JoinViewDef};
use vbx_storage::{Catalog, StorageError, Table, Tuple};

/// Cursor and append errors from the [`DeltaLog`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaLogError {
    /// The requested cursor points before the retention window — the
    /// subscriber fell too far behind and must re-bundle.
    Truncated {
        /// Sequence number the subscriber asked for.
        requested: u64,
        /// Oldest sequence number still retained.
        oldest: u64,
    },
    /// An appended entry's sequence number is not exactly the log's
    /// next: the log is the authoritative contiguous history, and
    /// recovery replay depends on gap-free seq ranges.
    NonContiguous {
        /// The sequence number the log expected next.
        expected: u64,
        /// The sequence number the entry actually carried.
        got: u64,
    },
    /// An empty batch was pushed (batches must carry at least one op to
    /// occupy a sequence range).
    EmptyBatch,
}

impl core::fmt::Display for DeltaLogError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DeltaLogError::Truncated { requested, oldest } => write!(
                f,
                "delta {requested} evicted from the retention window (oldest retained: {oldest})"
            ),
            DeltaLogError::NonContiguous { expected, got } => {
                write!(f, "non-contiguous delta seq {got} (log expects {expected})")
            }
            DeltaLogError::EmptyBatch => write!(f, "empty delta batch"),
        }
    }
}

impl std::error::Error for DeltaLogError {}

/// One retained unit of the signed-delta log: a group-committed
/// [`DeltaBatch`] occupying a whole sequence *range* (a single op is a
/// batch of one), or an atomic multi-table [`TxnBatch`]. Both are shared
/// out as `Arc`s so fanning one out to N subscribers clones a pointer,
/// not `k` ops and payloads.
#[derive(Clone, Debug)]
pub enum LogEntry<P> {
    /// `k` ops group-committed under one payload stream + stamp.
    Batch(Arc<DeltaBatch<P>>),
    /// An atomic multi-table transaction: its sections were committed
    /// as one unit and travel (and are applied, skipped, or evicted
    /// downstream) as one unit.
    Txn(Arc<TxnBatch<P>>),
}

impl<P> LogEntry<P> {
    /// The entry's per-table sections in commit order: a batch is its
    /// own single section.
    pub fn sections(&self) -> &[DeltaBatch<P>] {
        match self {
            LogEntry::Batch(b) => core::slice::from_ref(b.as_ref()),
            LogEntry::Txn(t) => &t.sections,
        }
    }

    /// The owner stamp attesting the entry's end position, if stamped.
    pub fn stamp(&self) -> Option<&FreshnessStamp> {
        match self {
            LogEntry::Batch(b) => b.stamp.as_ref(),
            LogEntry::Txn(t) => t.stamp.as_ref(),
        }
    }

    /// First sequence number the entry covers.
    pub fn start_seq(&self) -> u64 {
        self.sections()[0].start_seq
    }

    /// One past the last sequence number the entry covers.
    pub fn end_seq(&self) -> u64 {
        self.start_seq() + self.ops() as u64
    }

    /// Number of update ops the entry carries.
    pub fn ops(&self) -> usize {
        self.sections().iter().map(DeltaBatch::len).sum()
    }

    /// Table the entry's ops apply to; `None` for a multi-table txn
    /// (use [`tables`](Self::tables)).
    pub fn table(&self) -> Option<&str> {
        match self {
            LogEntry::Batch(b) => Some(&b.table),
            LogEntry::Txn(_) => None,
        }
    }

    /// Every table the entry touches: one for a `Batch`, each section's
    /// table (in commit order, repeats possible) for a `Txn`.
    pub fn tables(&self) -> impl Iterator<Item = &str> {
        self.sections().iter().map(|s| s.table.as_str())
    }
}

/// The central server's signed-delta log with a **bounded retention
/// window** and a cursor API.
///
/// Before PR 4, `deltas_since` cloned the full remaining `Vec` on every
/// poll, making fan-out to N subscribing edges O(edges × history). The
/// log now retains only the newest `retention` *ops* (older entries are
/// evicted — a subscriber that far behind re-bundles instead), and
/// [`since`](Self::since) hands out a borrowing iterator so pollers
/// clone exactly the entries they still need. An entry is a
/// [`LogEntry`] — a group-committed batch or a multi-table txn — and
/// cursors work on the underlying *sequence numbers*, so a batch of `k`
/// ops advances a subscriber's cursor by `k` in one hop.
#[derive(Clone, Debug)]
pub struct DeltaLog<P> {
    entries: VecDeque<LogEntry<P>>,
    /// Sequence number of the first retained entry's first op.
    start_seq: u64,
    /// Ops (not entries) currently retained.
    retained_ops: usize,
    retention: usize,
}

impl<P: Clone> DeltaLog<P> {
    /// An empty log retaining at most `retention` ops (min 1).
    pub fn new(retention: usize) -> Self {
        Self {
            entries: VecDeque::new(),
            start_seq: 0,
            retained_ops: 0,
            retention: retention.max(1),
        }
    }

    /// An empty log that never evicts (the pre-cluster behaviour).
    pub fn unbounded() -> Self {
        Self::new(usize::MAX)
    }

    /// Sequence number the next pushed op must carry.
    pub fn next_seq(&self) -> u64 {
        self.start_seq + self.retained_ops as u64
    }

    /// Oldest sequence number still retained.
    pub fn oldest_seq(&self) -> u64 {
        self.start_seq
    }

    /// Number of retained ops (a batch of `k` counts `k`).
    pub fn len(&self) -> usize {
        self.retained_ops
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append a group-committed batch covering `[start_seq, end_seq())`,
    /// evicting past the retention window. Returns the shared handle
    /// also kept in the log (for immediate fan-out without a re-read).
    /// Rejects empty batches and any `batch.start_seq` that is not
    /// exactly [`next_seq`](Self::next_seq).
    pub fn push_batch(
        &mut self,
        batch: DeltaBatch<P>,
    ) -> Result<Arc<DeltaBatch<P>>, DeltaLogError> {
        let shared = Arc::new(batch);
        self.append(LogEntry::Batch(shared.clone()))?;
        Ok(shared)
    }

    /// Append an atomic multi-table transaction covering
    /// `[txn.start_seq(), txn.end_seq())`, evicting past the retention
    /// window (a txn is evicted as the single unit it arrived as, like
    /// every entry). Returns the shared handle also kept in the log.
    /// Rejects txns with no (or empty) sections, and any section chain
    /// that does not start exactly at [`next_seq`](Self::next_seq) and
    /// stay gap-free section to section.
    pub fn push_txn(&mut self, txn: TxnBatch<P>) -> Result<Arc<TxnBatch<P>>, DeltaLogError> {
        let shared = Arc::new(txn);
        self.append(LogEntry::Txn(shared.clone()))?;
        Ok(shared)
    }

    /// Append any entry after checking that it is non-empty and its
    /// sections chain gap-free from [`next_seq`](Self::next_seq) — the
    /// log is the authoritative contiguous history, and silently
    /// accepting a gap would poison every cursor and recovery replay
    /// downstream.
    pub(crate) fn append(&mut self, entry: LogEntry<P>) -> Result<(), DeltaLogError> {
        let sections = entry.sections();
        if sections.is_empty() || sections.iter().any(DeltaBatch::is_empty) {
            return Err(DeltaLogError::EmptyBatch);
        }
        let mut next = self.next_seq();
        for section in sections {
            if section.start_seq != next {
                return Err(DeltaLogError::NonContiguous {
                    expected: next,
                    got: section.start_seq,
                });
            }
            next = section.end_seq();
        }
        self.retained_ops += entry.ops();
        self.entries.push_back(entry);
        // Evict whole entries (a batch leaves as the unit it arrived
        // as), always keeping the newest entry even if it alone exceeds
        // the window.
        while self.retained_ops > self.retention && self.entries.len() > 1 {
            let evicted = self.entries.pop_front().expect("len > 1");
            self.retained_ops -= evicted.ops();
            self.start_seq = evicted.end_seq();
        }
        Ok(())
    }

    /// Rebuild a log from checkpointed parts (durability recovery).
    pub(crate) fn from_parts(
        entries: VecDeque<LogEntry<P>>,
        start_seq: u64,
        retention: usize,
    ) -> Self {
        let retained_ops = entries.iter().map(LogEntry::ops).sum();
        Self {
            entries,
            start_seq,
            retained_ops,
            retention: retention.max(1),
        }
    }

    /// The retention window in ops.
    pub fn retention(&self) -> usize {
        self.retention
    }

    /// Every retained entry in seq order (checkpoints persist these).
    pub fn entries(&self) -> impl Iterator<Item = &LogEntry<P>> {
        self.entries.iter()
    }

    /// Borrowing iterator over every retained entry covering any `seq >=
    /// cursor`. A cursor at (or past) the head yields an empty
    /// iterator; a cursor before the retention window is an error (the
    /// subscriber must re-bundle). Subscribers advance their cursor to
    /// each entry's [`end_seq`](LogEntry::end_seq), so a cursor always
    /// lands on an entry boundary; a cursor *inside* a batch (possible
    /// only for a subscriber that did not follow that rule) receives the
    /// whole batch again.
    pub fn since(
        &self,
        cursor: u64,
    ) -> Result<impl Iterator<Item = &LogEntry<P>> + '_, DeltaLogError> {
        if cursor < self.start_seq {
            return Err(DeltaLogError::Truncated {
                requested: cursor,
                oldest: self.start_seq,
            });
        }
        // Entries are ordered by seq range: skip everything fully
        // consumed by the cursor.
        let lo = self.entries.partition_point(|e| e.end_seq() <= cursor);
        Ok(self.entries.range(lo..))
    }

    /// Owned clone of every retained entry covering any `seq >= cursor`
    /// (clones only the tail the subscriber still needs; batch entries
    /// clone an `Arc`).
    pub fn collect_since(&self, cursor: u64) -> Result<Vec<LogEntry<P>>, DeltaLogError> {
        Ok(self.since(cursor)?.cloned().collect())
    }
}

/// Initial distribution bundle for a new edge server: full replicas of
/// every tree (base tables and views). VB-tree specific — the wire
/// format serialises signed tree nodes.
#[derive(Clone)]
pub struct EdgeBundle<const L: usize> {
    /// Tree replicas by name.
    pub trees: BTreeMap<String, VbTree<L>>,
    /// View definitions.
    pub views: Vec<JoinViewDef>,
    /// Sequence number the bundle reflects.
    pub as_of_seq: u64,
}

impl<const L: usize> EdgeBundle<L> {
    /// Serialize the bundle — the bytes the central server actually
    /// ships to a new edge site.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4096);
        out.extend_from_slice(b"VBB1");
        out.extend_from_slice(&self.as_of_seq.to_be_bytes());
        let put_str = |out: &mut Vec<u8>, s: &str| {
            out.extend_from_slice(&(s.len() as u32).to_be_bytes());
            out.extend_from_slice(s.as_bytes());
        };
        out.extend_from_slice(&(self.views.len() as u32).to_be_bytes());
        for v in &self.views {
            put_str(&mut out, &v.name);
            put_str(&mut out, &v.left_table);
            put_str(&mut out, &v.right_table);
            put_str(&mut out, &v.left_col);
            put_str(&mut out, &v.right_col);
        }
        out.extend_from_slice(&(self.trees.len() as u32).to_be_bytes());
        for (name, tree) in &self.trees {
            put_str(&mut out, name);
            let tree_bytes = vbx_core::encode_tree(tree);
            out.extend_from_slice(&(tree_bytes.len() as u64).to_be_bytes());
            out.extend_from_slice(&tree_bytes);
        }
        out
    }

    /// Decode a bundle, structurally validating every tree.
    pub fn from_bytes(bytes: &[u8], acc: &Accumulator<L>) -> Result<Self, CoreError> {
        let corrupt = |m: &str| CoreError::Wire(m.to_string());
        let mut buf = bytes;
        let take = |buf: &mut &[u8], n: usize| -> Result<Vec<u8>, CoreError> {
            if buf.len() < n {
                return Err(corrupt("bundle truncated"));
            }
            let out = buf[..n].to_vec();
            *buf = &buf[n..];
            Ok(out)
        };
        let get_str = |buf: &mut &[u8]| -> Result<String, CoreError> {
            let len = u32::from_be_bytes(take(buf, 4)?.try_into().unwrap()) as usize;
            String::from_utf8(take(buf, len)?).map_err(|_| corrupt("bundle string not UTF-8"))
        };

        if take(&mut buf, 4)? != b"VBB1" {
            return Err(corrupt("bad bundle magic"));
        }
        let as_of_seq = u64::from_be_bytes(take(&mut buf, 8)?.try_into().unwrap());
        let n_views = u32::from_be_bytes(take(&mut buf, 4)?.try_into().unwrap()) as usize;
        let mut views = Vec::with_capacity(n_views.min(1024));
        for _ in 0..n_views {
            let name = get_str(&mut buf)?;
            let left_table = get_str(&mut buf)?;
            let right_table = get_str(&mut buf)?;
            let left_col = get_str(&mut buf)?;
            let right_col = get_str(&mut buf)?;
            views.push(JoinViewDef {
                name,
                left_table,
                right_table,
                left_col,
                right_col,
            });
        }
        let n_trees = u32::from_be_bytes(take(&mut buf, 4)?.try_into().unwrap()) as usize;
        let mut trees = BTreeMap::new();
        for _ in 0..n_trees {
            let name = get_str(&mut buf)?;
            let tree_len = u64::from_be_bytes(take(&mut buf, 8)?.try_into().unwrap()) as usize;
            let tree_bytes = take(&mut buf, tree_len)?;
            let tree = vbx_core::decode_tree(&tree_bytes, acc.clone())?;
            trees.insert(name, tree);
        }
        if !buf.is_empty() {
            return Err(corrupt("trailing bytes in bundle"));
        }
        Ok(Self {
            trees,
            views,
            as_of_seq,
        })
    }
}

/// Errors from central-server operations, parameterised by the scheme's
/// own error type.
#[derive(Debug)]
pub enum CentralError<E> {
    /// Storage-level failure.
    Storage(StorageError),
    /// Scheme-level failure (tree/digest/signing).
    Scheme(E),
    /// Unknown table.
    UnknownTable(String),
    /// The write-ahead log or a checkpoint could not be made durable.
    /// The in-memory commit may be ahead of disk: the server refuses
    /// further commits until replaced via recovery, so no state that
    /// was acked to a caller can be silently lost in a later crash.
    Durability(StorageError),
}

impl<E: core::fmt::Display> core::fmt::Display for CentralError<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CentralError::Storage(e) => write!(f, "{e}"),
            CentralError::Scheme(e) => write!(f, "{e}"),
            CentralError::UnknownTable(t) => write!(f, "unknown table {t}"),
            CentralError::Durability(e) => write!(f, "durability failure: {e}"),
        }
    }
}

impl<E: std::error::Error> std::error::Error for CentralError<E> {}

impl<E> From<StorageError> for CentralError<E> {
    fn from(e: StorageError) -> Self {
        CentralError::Storage(e)
    }
}

/// Newest per-commit stamps kept for lagging subscribers (see
/// [`CentralServer::stamp_for_seq`]). An edge further behind keeps its
/// old stamp until it catches up — conservative, never unsound.
const STAMP_RETENTION: usize = 1_024;

/// Knobs of the opt-in group-commit queue
/// ([`CentralServer::with_group_commit`]): independent single-op
/// transactions enqueued via [`CentralServer::enqueue_update`] coalesce
/// into [`DeltaBatch`] commits, amortising the per-commit signature,
/// stamp, snapshot swap, and fan-out message over up to `max_batch`
/// ops. The price is commit latency: an enqueued op is not visible to
/// replicas until its batch flushes.
#[derive(Clone, Copy, Debug)]
pub struct GroupCommitConfig {
    /// Flush once this many ops are pending (≥ 1).
    pub max_batch: usize,
    /// Flush at the first enqueue after the oldest pending op has
    /// waited this many logical-clock ticks (commits and heartbeats
    /// advance the clock). `0` keeps ops pending only until the next
    /// flush trigger; `u64::MAX` disables the age trigger.
    pub commit_interval: u64,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        Self {
            max_batch: 16,
            commit_interval: 4,
        }
    }
}

/// Batches committed by one group-commit flush (shared handles into the
/// [`DeltaLog`], ready for immediate fan-out or edge replay).
pub type CommittedBatches<S> = Vec<Arc<DeltaBatch<<S as AuthScheme>::Delta>>>;

/// A committed batch (a shared handle into the [`DeltaLog`]) or the
/// reason nothing committed.
pub type Committed<S> =
    Result<Arc<DeltaBatch<<S as AuthScheme>::Delta>>, CentralError<<S as AuthScheme>::Error>>;

/// A staged multi-table update transaction (see
/// [`CentralServer::begin_txn`]). Ops buffer in arrival order; nothing
/// signs, logs, or hits the WAL until
/// [`CentralServer::commit_txn`] — staging is free, and a dropped `Txn`
/// simply never happened.
#[derive(Clone, Debug, Default)]
pub struct Txn {
    staged: Vec<(String, UpdateOp)>,
}

impl Txn {
    /// Stage one update against `table`.
    pub fn stage(&mut self, table: impl Into<String>, op: UpdateOp) -> &mut Self {
        self.staged.push((table.into(), op));
        self
    }

    /// Number of staged ops.
    pub fn len(&self) -> usize {
        self.staged.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty()
    }
}

/// What one group-commit flush committed: one [`DeltaBatch`] when the
/// pending queue named a single table, or one atomic [`TxnBatch`]
/// through [`CentralServer::commit_txn`] when it spanned several.
/// Either way a flush commits all-or-nothing.
pub enum Flushed<S: AuthScheme> {
    /// The batch committed for a single-table queue (empty when the
    /// call committed nothing).
    Batches(CommittedBatches<S>),
    /// One atomic multi-table transaction covering every pending run.
    Txn(Arc<TxnBatch<S::Delta>>),
}

impl<S: AuthScheme> Flushed<S> {
    /// True when this call committed nothing.
    pub fn is_empty(&self) -> bool {
        match self {
            Flushed::Batches(batches) => batches.is_empty(),
            Flushed::Txn(txn) => txn.sections.is_empty(),
        }
    }

    /// Total update ops committed by this call.
    pub fn ops(&self) -> u64 {
        match self {
            Flushed::Batches(batches) => batches.iter().map(|b| b.len() as u64).sum(),
            Flushed::Txn(txn) => txn.ops(),
        }
    }

    /// The committed batch, when the pending queue named one table.
    pub fn batches(&self) -> Option<&CommittedBatches<S>> {
        match self {
            Flushed::Batches(batches) => Some(batches),
            Flushed::Txn(_) => None,
        }
    }

    /// The committed txn, when this flush rerouted through
    /// [`CentralServer::commit_txn`].
    pub fn txn(&self) -> Option<&Arc<TxnBatch<S::Delta>>> {
        match self {
            Flushed::Batches(_) => None,
            Flushed::Txn(txn) => Some(txn),
        }
    }
}

impl<S: AuthScheme> core::fmt::Debug for Flushed<S> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Flushed::Batches(batches) => f
                .debug_struct("Flushed::Batches")
                .field("batches", &batches.len())
                .finish(),
            Flushed::Txn(txn) => f
                .debug_struct("Flushed::Txn")
                .field("sections", &txn.sections.len())
                .finish(),
        }
    }
}

/// The trusted central DBMS, generic over the authentication scheme.
pub struct CentralServer<S: AuthScheme> {
    pub(crate) scheme: S,
    pub(crate) signer: Arc<dyn Signer>,
    pub(crate) registry: KeyRegistry,
    pub(crate) catalog: Catalog,
    pub(crate) stores: BTreeMap<String, S::Store>,
    pub(crate) views: Vec<JoinViewDef>,
    pub(crate) log: DeltaLog<S::Delta>,
    /// Owner stamps per attested seq, pruned to the log's retention
    /// window and capped at [`STAMP_RETENTION`] (the newest stamp is
    /// always kept).
    pub(crate) stamps: BTreeMap<u64, FreshnessStamp>,
    /// Sign a fresh stamp on every commit. Enabled by
    /// [`with_delta_retention`](Self::with_delta_retention) (cluster
    /// deployments); standalone servers skip the per-commit signature
    /// — with an RSA signer that is a full extra signing operation per
    /// update — and attest only on [`heartbeat`](Self::heartbeat).
    pub(crate) stamp_commits: bool,
    /// Group-commit knobs; `None` = every update commits individually.
    pub(crate) group_commit: Option<GroupCommitConfig>,
    /// Ops waiting for the next group-commit flush, in arrival order.
    /// Queued-not-yet-committed: these are *not* WAL-protected — an op
    /// is durable only once its batch commits (and is acked as such).
    pub(crate) pending: Vec<(String, UpdateOp)>,
    /// Clock value when the oldest pending op was enqueued.
    pub(crate) pending_since_clock: u64,
    pub(crate) clock: u64,
    /// Write-ahead durability engine; `None` = in-memory only (the
    /// pre-durability behaviour, still the default).
    pub(crate) durability: Option<crate::durability::DurabilityEngine<S>>,
}

impl<S: AuthScheme> CentralServer<S> {
    /// Create a central server for a scheme and publish the initial key
    /// version.
    pub fn with_scheme(scheme: S, signer: Arc<dyn Signer>) -> Self {
        let mut registry = KeyRegistry::new();
        registry.publish(signer.verifier(), 0);
        let mut stamps = BTreeMap::new();
        stamps.insert(0, FreshnessStamp::sign(signer.as_ref(), 0, 0));
        Self {
            scheme,
            signer,
            registry,
            catalog: Catalog::new(),
            stores: BTreeMap::new(),
            views: Vec::new(),
            log: DeltaLog::unbounded(),
            stamps,
            stamp_commits: false,
            group_commit: None,
            pending: Vec::new(),
            pending_since_clock: 0,
            clock: 0,
            durability: None,
        }
    }

    /// Bound the delta log's retention window (see [`DeltaLog`]) and
    /// enable per-commit freshness stamps (the cluster subscription
    /// mode). Subscribers further behind than `retention` deltas get
    /// [`DeltaLogError::Truncated`] and must re-bundle.
    pub fn with_delta_retention(mut self, retention: usize) -> Self {
        self.log = DeltaLog::new(retention);
        self.stamp_commits = true;
        self
    }

    /// Enable the group-commit queue (see [`GroupCommitConfig`]):
    /// [`enqueue_update`](Self::enqueue_update) coalesces independent
    /// single-op transactions into [`DeltaBatch`] commits instead of
    /// committing each op individually.
    pub fn with_group_commit(mut self, config: GroupCommitConfig) -> Self {
        self.group_commit = Some(GroupCommitConfig {
            max_batch: config.max_batch.max(1),
            ..config
        });
        self
    }

    /// The scheme descriptor (public parameters).
    pub fn scheme(&self) -> &S {
        &self.scheme
    }

    /// The public key registry (clients consult it for freshness).
    pub fn registry(&self) -> &KeyRegistry {
        &self.registry
    }

    /// Verifier for the *current* signing key. [`rotate_key`]
    /// (Self::rotate_key) re-signs every store under the new key, so
    /// this verifier always authenticates the central's live state —
    /// the anchor a restoring edge checks chunk proofs against.
    pub fn verifier(&self) -> Arc<dyn vbx_crypto::SigVerifier> {
        self.signer.verifier()
    }

    /// Logical clock (advances with every committed update).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Register a base table: builds and signs its authenticated store.
    /// With durability enabled this is DDL and forces a checkpoint (the
    /// WAL carries only update deltas, so schema changes must land in a
    /// full snapshot).
    pub fn create_table(&mut self, table: Table) {
        let store = self.scheme.build(&table, self.signer.as_ref());
        self.stores.insert(table.schema().table.clone(), store);
        self.catalog.put(table);
        self.durability_mark_ddl();
    }

    /// Drop a base table from the catalog and discard its store, along
    /// with every join view that reads it (definition and store — a
    /// view over a missing table could never refresh again). Returns
    /// `false` when no such table exists. DDL, like
    /// [`create_table`](Self::create_table): forces one checkpoint so
    /// the drop lands in a durable snapshot. Edges that still hold an
    /// assignment for the table discover the drop on their next
    /// (re)subscription and remove the stale replica.
    pub fn drop_table(&mut self, name: &str) -> bool {
        let existed = self.catalog.remove(name).is_some();
        self.stores.remove(name);
        if existed {
            self.views.retain(|def| {
                let reads = def.left_table == name || def.right_table == name;
                if reads {
                    self.stores.remove(&def.name);
                }
                !reads
            });
            self.durability_mark_ddl();
        }
        existed
    }

    /// Authoritative store lookup.
    pub fn store(&self, name: &str) -> Option<&S::Store> {
        self.stores.get(name)
    }

    /// Schema of a base table (scheme-independent metadata clients and
    /// the cluster coordinator share).
    pub fn schema(&self, name: &str) -> Option<&vbx_storage::Schema> {
        self.catalog.get(name).map(Table::schema)
    }

    /// Materialise an equijoin view and build its authenticated store
    /// (Section 3.3's join strategy — works for every scheme, since a
    /// view is just another table). Returns the canonical view name.
    pub fn materialize_join(
        &mut self,
        left: &str,
        right: &str,
        left_col: &str,
        right_col: &str,
    ) -> Result<String, CentralError<S::Error>> {
        let lt = self
            .catalog
            .get(left)
            .ok_or_else(|| CentralError::UnknownTable(left.into()))?;
        let rt = self
            .catalog
            .get(right)
            .ok_or_else(|| CentralError::UnknownTable(right.into()))?;
        let def = JoinViewDef::new(left, right, left_col, right_col);
        let view_table = build_view_table(&def, lt, rt)?;
        let store = self.scheme.build(&view_table, self.signer.as_ref());
        let name = def.name.clone();
        self.stores.insert(name.clone(), store);
        self.views.push(def);
        self.durability_mark_ddl();
        Ok(name)
    }

    /// Registered view definitions.
    pub fn views(&self) -> &[JoinViewDef] {
        &self.views
    }

    /// Log entries after `seq` (edge servers pull these to catch up —
    /// batches and txns alike). A `seq`
    /// beyond the log — a replica ahead of this server, e.g. restored
    /// from a newer snapshot — yields an empty batch rather than
    /// panicking the trusted side on untrusted input. A `seq` before
    /// the retention window yields the retained suffix; the resulting
    /// gap surfaces as `OutOfOrder` at the replica, which must then
    /// re-bundle. Prefer the cursor API on
    /// [`delta_log`](Self::delta_log), which reports truncation
    /// explicitly and clones only the needed tail.
    pub fn deltas_since(&self, seq: u64) -> Vec<LogEntry<S::Delta>> {
        self.log
            .collect_since(seq.max(self.log.oldest_seq()))
            .expect("cursor clamped into the retention window")
    }

    /// The signed-delta log (bounded retention + cursor API).
    pub fn delta_log(&self) -> &DeltaLog<S::Delta> {
        &self.log
    }

    /// The newest owner freshness stamp.
    pub fn freshness_stamp(&self) -> FreshnessStamp {
        self.stamps
            .values()
            .next_back()
            .expect("a stamp is signed at construction")
            .clone()
    }

    /// The owner stamp attesting exactly `seq` committed deltas, if
    /// still retained. Subscribers install this on an edge replica once
    /// the replica has applied through `seq`.
    pub fn stamp_for_seq(&self, seq: u64) -> Option<FreshnessStamp> {
        self.stamps.get(&seq).cloned()
    }

    /// The owner position `(next_seq, clock)` a trusted client measures
    /// staleness against.
    pub fn owner_position(&self) -> (u64, u64) {
        (self.log.next_seq(), self.clock)
    }

    /// Advance the logical clock and re-sign the current position — the
    /// owner's liveness heartbeat. Edges that receive (via their
    /// subscription) this stamp prove recent contact; a partitioned
    /// edge keeps an aging stamp and trips `FreshnessPolicy::max_age`.
    ///
    /// The heartbeat also **flushes aged group-commit runs**: the
    /// enqueue-side age trigger only fires on the *next* enqueue, so a
    /// queue that goes quiet would otherwise hold its pending ops
    /// hostage indefinitely. The heartbeat — the one event guaranteed
    /// to keep happening — commits any run whose oldest op has waited
    /// past `commit_interval`. A failing flush follows
    /// [`flush_group_commit`](Self::flush_group_commit)'s documented
    /// semantics (the failing ops are dropped; a durability failure
    /// poisons the engine and resurfaces on the next commit), and the
    /// stamp signed below attests the *post-flush* position.
    pub fn heartbeat(&mut self) -> FreshnessStamp {
        self.clock += 1;
        if let Some(config) = self.group_commit {
            let aged = !self.pending.is_empty()
                && self.clock.saturating_sub(self.pending_since_clock) >= config.commit_interval;
            if aged {
                let _ = self.flush_group_commit();
            }
        }
        let stamp = FreshnessStamp::sign(self.signer.as_ref(), self.log.next_seq(), self.clock);
        self.stamps.insert(self.log.next_seq(), stamp.clone());
        self.prune_stamps();
        // Persist the clock advance so recovery never rewinds below a
        // handed-out stamp's `(seq, clock)`. A WAL failure here poisons
        // the engine: subsequent commits fail instead of acking state
        // that could rewind past this stamp after a crash.
        self.durability_heartbeat(&stamp);
        stamp
    }

    /// Drop stamps no subscriber can land on anymore: below the delta
    /// log's retention window, and beyond the [`STAMP_RETENTION`] cap
    /// (oldest first — the newest stamp is always kept).
    pub(crate) fn prune_stamps(&mut self) {
        let oldest = self.log.oldest_seq();
        self.stamps.retain(|&seq, _| seq >= oldest);
        while self.stamps.len() > STAMP_RETENTION {
            self.stamps.pop_first();
        }
    }

    /// Insert a tuple: a batch of one through
    /// [`execute_update_batch`](Self::execute_update_batch).
    pub fn insert(&mut self, table: &str, tuple: Tuple) -> Committed<S> {
        self.execute_update_batch(table, vec![UpdateOp::Insert(tuple)])
    }

    /// Delete a tuple: a batch of one.
    pub fn delete(&mut self, table: &str, key: u64) -> Committed<S> {
        self.execute_update_batch(table, vec![UpdateOp::Delete(key)])
    }

    /// Batch range delete (equation (12)'s transaction): a batch of one.
    pub fn delete_range(&mut self, table: &str, lo: u64, hi: u64) -> Committed<S> {
        self.execute_update_batch(table, vec![UpdateOp::DeleteRange(lo, hi)])
    }

    /// One group-commit transaction on one table: the one-section case
    /// of the commit routine behind [`commit_txn`](Self::commit_txn).
    /// The whole batch goes through [`AuthScheme::update_batch`] (for
    /// the VB-tree: one deferred signing sweep over the dirty nodes
    /// instead of per-op path re-signs), views refresh **once**, and one
    /// [`DeltaBatch`] covering the ops' whole sequence range is logged —
    /// with **one** freshness stamp attesting the batch's end position
    /// (in cluster mode) instead of one per op. `k` ops thus cost ~1
    /// signature sweep, ~1 stamp, ~1 WAL record and ~1 fan-out message.
    ///
    /// An empty `ops` is a no-op: nothing commits or logs.
    pub fn execute_update_batch(&mut self, table: &str, ops: Vec<UpdateOp>) -> Committed<S> {
        if ops.is_empty() {
            return Ok(Arc::new(DeltaBatch {
                start_seq: self.log.next_seq(),
                table: table.to_string(),
                ops,
                payloads: Vec::new(),
                key_version: self.signer.key_version(),
                stamp: None,
            }));
        }
        match self.commit(vec![(table.to_string(), ops)], false)? {
            LogEntry::Batch(batch) => Ok(batch),
            LogEntry::Txn(_) => unreachable!("a batch commit logs a batch"),
        }
    }

    /// Begin staging an atomic multi-table transaction. Stage ops with
    /// [`Txn::stage`], then commit the whole set with
    /// [`commit_txn`](Self::commit_txn).
    pub fn begin_txn(&self) -> Txn {
        Txn::default()
    }

    /// Commit a staged multi-table transaction **atomically**: run every
    /// per-table [`AuthScheme::update_batch`] signing sweep, then log
    /// one [`TxnBatch`] and append **one** checksummed `CommitTxn` WAL
    /// record — fsync'd before *any* table's state is acked.
    ///
    /// All-or-nothing: on any failure — an unknown table, a bad row, a
    /// failing sweep — no store, catalog table, log entry, or durable
    /// record changes at all. (A WAL failure poisons the durability
    /// engine, exactly like every other commit.)
    ///
    /// Consecutive same-table runs become the txn's sections, chained
    /// over one contiguous sequence range in arrival order, and one
    /// freshness stamp attests the txn's end position (cluster mode).
    /// Committing an empty txn is a no-op returning a sectionless
    /// `TxnBatch`.
    pub fn commit_txn(
        &mut self,
        txn: Txn,
    ) -> Result<Arc<TxnBatch<S::Delta>>, CentralError<S::Error>> {
        if txn.staged.is_empty() {
            return Ok(Arc::new(TxnBatch {
                sections: Vec::new(),
                stamp: None,
            }));
        }
        let mut runs: Vec<(String, Vec<UpdateOp>)> = Vec::new();
        for (table, op) in txn.staged {
            match runs.last_mut() {
                Some((t, run)) if *t == table => run.push(op),
                _ => runs.push((table, vec![op])),
            }
        }
        match self.commit(runs, true)? {
            LogEntry::Txn(txn) => Ok(txn),
            LogEntry::Batch(_) => unreachable!("a txn commit logs a txn"),
        }
    }

    /// The one commit routine: apply non-empty `sections` in order,
    /// refresh the views over every touched table, then advance the
    /// clock, stamp, log and WAL-append (before the ack) **one** entry —
    /// a [`TxnBatch`] when `as_txn`, else the single section as a
    /// [`DeltaBatch`].
    ///
    /// All-or-nothing. Validation runs before anything mutates: every
    /// table exists and every inserted row fits its schema, so a
    /// section's catalog mirror cannot fail once its store sweep
    /// succeeded. `update_batch` restores its own store on failure, so
    /// only tables touched *before* the last section keep an undo copy
    /// (store + catalog table) — a one-section commit copies nothing and
    /// stays O(delta).
    fn commit(
        &mut self,
        sections: Vec<(String, Vec<UpdateOp>)>,
        as_txn: bool,
    ) -> Result<LogEntry<S::Delta>, CentralError<S::Error>> {
        for (table, ops) in &sections {
            let cat = self
                .catalog
                .get(table)
                .ok_or_else(|| CentralError::UnknownTable(table.clone()))?;
            for op in ops {
                if let UpdateOp::Insert(tuple) = op {
                    cat.schema().check_row(&tuple.values)?;
                }
            }
        }
        let last = sections.len() - 1;
        let mut undo: BTreeMap<String, (S::Store, Table)> = BTreeMap::new();
        let mut payloads = Vec::with_capacity(sections.len());
        for (i, (table, ops)) in sections.iter().enumerate() {
            let store = self.stores.get_mut(table).expect("catalog mirrors stores");
            let cat = self.catalog.get_mut(table).expect("validated above");
            if i < last && !undo.contains_key(table) {
                undo.insert(table.clone(), (store.clone(), cat.clone()));
            }
            let swept = match self.scheme.update_batch(store, ops, self.signer.as_ref()) {
                Ok(p) => mirror_ops(cat, ops).map(|()| p).map_err(CentralError::from),
                Err(e) => Err(CentralError::Scheme(e)),
            };
            match swept {
                Ok(p) => payloads.push(p),
                Err(e) => {
                    for (table, (store, cat)) in undo {
                        self.stores.insert(table, store);
                        self.catalog.put(cat);
                    }
                    return Err(e);
                }
            }
        }
        self.refresh_views_for(sections.iter().map(|(t, _)| t.as_str()))?;

        self.clock += 1;
        let key_version = self.signer.key_version();
        let mut seq = self.log.next_seq();
        let mut batches: Vec<DeltaBatch<S::Delta>> = sections
            .into_iter()
            .zip(payloads)
            .map(|((table, ops), payloads)| {
                let start_seq = seq;
                seq += ops.len() as u64;
                DeltaBatch {
                    start_seq,
                    table,
                    ops,
                    payloads,
                    key_version,
                    stamp: None,
                }
            })
            .collect();
        // One stamp for the whole entry, attesting its end position.
        let stamp = self.stamp_commits.then(|| {
            let stamp = FreshnessStamp::sign(self.signer.as_ref(), seq, self.clock);
            self.stamps.insert(seq, stamp.clone());
            stamp
        });
        let entry = if as_txn {
            LogEntry::Txn(Arc::new(TxnBatch {
                sections: batches,
                stamp,
            }))
        } else {
            let mut batch = batches.pop().expect("one section");
            batch.stamp = stamp;
            LogEntry::Batch(Arc::new(batch))
        };
        self.log
            .append(entry.clone())
            .expect("commit path issues contiguous seqs");
        if self.stamp_commits {
            self.prune_stamps();
        }
        // Append-before-ack: one WAL record (and one fsync) covers the
        // whole entry — no table's state is acked before it is durable.
        self.durability_commit(&entry)?;
        Ok(entry)
    }

    /// Enqueue one update into the group-commit queue, committing
    /// whatever the queue's flush rules say is due: without
    /// [`with_group_commit`](Self::with_group_commit) the op commits
    /// immediately as a batch of one; with it, ops coalesce until
    /// `max_batch` are pending or the oldest has waited
    /// `commit_interval` clock ticks. Returns what *this* call
    /// committed (often nothing — the op just joined the queue).
    ///
    /// Commit order across tables is exactly arrival order: a flush
    /// whose pending queue spans more than one table commits as one
    /// atomic [`commit_txn`](Self::commit_txn) — see
    /// [`flush_group_commit`](Self::flush_group_commit).
    pub fn enqueue_update(
        &mut self,
        table: &str,
        op: UpdateOp,
    ) -> Result<Flushed<S>, CentralError<S::Error>> {
        let Some(config) = self.group_commit else {
            return Ok(Flushed::Batches(vec![
                self.execute_update_batch(table, vec![op])?
            ]));
        };
        if self.pending.is_empty() {
            self.pending_since_clock = self.clock;
        }
        self.pending.push((table.to_string(), op));
        let due = self.pending.len() >= config.max_batch
            || self.clock.saturating_sub(self.pending_since_clock) >= config.commit_interval;
        if due {
            self.flush_group_commit()
        } else {
            Ok(Flushed::Batches(Vec::new()))
        }
    }

    /// Commit every pending group-commit op now, all-or-nothing. Call
    /// this to bound commit latency when the enqueue-side triggers have
    /// not fired.
    ///
    /// A queue naming one table commits as one [`DeltaBatch`] through
    /// [`execute_update_batch`](Self::execute_update_batch); a queue
    /// touching **more than one table** commits through
    /// [`commit_txn`](Self::commit_txn), every consecutive same-table
    /// run a section of one atomic [`TxnBatch`]. On failure nothing
    /// commits and the whole queue's ops are dropped with the error,
    /// exactly like a failed single commit.
    pub fn flush_group_commit(&mut self) -> Result<Flushed<S>, CentralError<S::Error>> {
        let pending = std::mem::take(&mut self.pending);
        let Some((table, _)) = pending.first() else {
            return Ok(Flushed::Batches(Vec::new()));
        };
        if pending.iter().all(|(t, _)| t == table) {
            let table = table.clone();
            let ops = pending.into_iter().map(|(_, op)| op).collect();
            let batch = self.execute_update_batch(&table, ops)?;
            return Ok(Flushed::Batches(vec![batch]));
        }
        let txn = self.commit_txn(Txn { staged: pending })?;
        Ok(Flushed::Txn(txn))
    }

    /// Ops waiting in the group-commit queue.
    pub fn pending_commits(&self) -> usize {
        self.pending.len()
    }

    /// Rotate the signing key: re-sign every store under the new key and
    /// publish the new version with a validity window starting now
    /// (Section 3.4's defence for delayed propagation).
    pub fn rotate_key(&mut self, new_signer: Arc<dyn Signer>) {
        self.signer = new_signer;
        self.registry.publish(self.signer.verifier(), self.clock);
        // Stamps signed under the retired key would fail against the
        // new verifier; re-attest the current position under the new
        // key.
        self.stamps.clear();
        self.stamps.insert(
            self.log.next_seq(),
            FreshnessStamp::sign(self.signer.as_ref(), self.log.next_seq(), self.clock),
        );
        // Rebuild (re-sign) every base-table store under the new key.
        let names: Vec<String> = self.stores.keys().cloned().collect();
        for name in names {
            if let Some(table) = self.catalog.get(&name) {
                let store = self.scheme.build(table, self.signer.as_ref());
                self.stores.insert(name, store);
            }
        }
        // Views are derived; refresh them too.
        let defs = self.views.clone();
        for def in defs {
            let (Some(lt), Some(rt)) = (
                self.catalog.get(&def.left_table),
                self.catalog.get(&def.right_table),
            ) else {
                continue;
            };
            if let Ok(view_table) = build_view_table(&def, lt, rt) {
                let store = self.scheme.build(&view_table, self.signer.as_ref());
                self.stores.insert(def.name.clone(), store);
            }
        }
        // A key rotation invalidates every checkpointed signature:
        // force a fresh checkpoint under the new key.
        self.durability_mark_ddl();
    }

    /// Rebuild every join view that reads any of `tables` (each view
    /// once, however many of its tables the commit touched).
    pub(crate) fn refresh_views_for<'a>(
        &mut self,
        tables: impl Iterator<Item = &'a str>,
    ) -> Result<(), CentralError<S::Error>> {
        let tables: Vec<&str> = tables.collect();
        let affected: Vec<JoinViewDef> = self
            .views
            .iter()
            .filter(|d| {
                tables.contains(&d.left_table.as_str()) || tables.contains(&d.right_table.as_str())
            })
            .cloned()
            .collect();
        for def in affected {
            let lt = self
                .catalog
                .get(&def.left_table)
                .ok_or_else(|| CentralError::UnknownTable(def.left_table.clone()))?;
            let rt = self
                .catalog
                .get(&def.right_table)
                .ok_or_else(|| CentralError::UnknownTable(def.right_table.clone()))?;
            let view_table = build_view_table(&def, lt, rt)?;
            let store = self.scheme.build(&view_table, self.signer.as_ref());
            self.stores.insert(def.name.clone(), store);
        }
        Ok(())
    }
}

/// Mirror committed (or replayed) ops into a plain-tuple catalog table —
/// the one helper the commit routine and WAL replay share.
pub(crate) fn mirror_ops(cat: &mut Table, ops: &[UpdateOp]) -> Result<(), StorageError> {
    for op in ops {
        match op {
            UpdateOp::Insert(tuple) => cat.insert(tuple.clone())?,
            UpdateOp::Delete(key) => {
                cat.delete(*key)?;
            }
            UpdateOp::DeleteRange(lo, hi) => {
                let doomed: Vec<u64> = cat.range(*lo, *hi).map(|t| t.key).collect();
                for k in doomed {
                    cat.delete(k)?;
                }
            }
        }
    }
    Ok(())
}

/// VB-tree specific surface: the compatibility constructor and the tree
/// distribution bundle (its wire format serialises signed tree nodes).
impl<const L: usize> CentralServer<VbScheme<L>> {
    /// Create a VB-tree central server from accumulator parameters and
    /// tree geometry.
    pub fn new(acc: Accumulator<L>, signer: Arc<dyn Signer>, config: VbTreeConfig) -> Self {
        Self::with_scheme(VbScheme::new(acc, config), signer)
    }

    /// The digest algebra (public parameters).
    pub fn accumulator(&self) -> &Accumulator<L> {
        &self.scheme.acc
    }

    /// Authoritative tree lookup.
    pub fn tree(&self, name: &str) -> Option<&VbTree<L>> {
        self.stores.get(name)
    }

    /// Snapshot everything for a new edge server.
    pub fn bundle(&self) -> EdgeBundle<L> {
        EdgeBundle {
            trees: self.stores.clone(),
            views: self.views.clone(),
            as_of_seq: self.log.next_seq(),
        }
    }

    /// Rebuilt view trees (edges re-fetch these after applying deltas;
    /// views are refreshed wholesale because their rowids shift).
    pub fn view_trees(&self) -> BTreeMap<String, VbTree<L>> {
        self.views
            .iter()
            .filter_map(|d| {
                self.stores
                    .get(&d.name)
                    .map(|t| (d.name.clone(), t.clone()))
            })
            .collect()
    }
}
