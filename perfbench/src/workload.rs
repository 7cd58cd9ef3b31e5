//! The three workloads and everything generated from the seed: tables,
//! read streams, the writer's commit plan, and the reference key model
//! every verified row count is checked against.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::time::Duration;
use vbx_core::{RangeQuery, UpdateOp};
use vbx_storage::workload::WorkloadSpec;
use vbx_storage::{Schema, Table, Value};

/// The table every workload reads.
pub const READ_TABLE: &str = "items";
/// The second table: `ingest_mixed` writes it in two-table txns; the
/// read workloads' write segments write only it, so they never
/// invalidate the edge's cached `items` responses.
pub const SIDE_TABLE: &str = "orders";
/// Payload attributes per row.
pub const COLUMNS: usize = 4;
/// Bytes per text attribute.
pub const ATTR_BYTES: usize = 10;
/// Ranges per compact request.
pub const RANGES_PER_REQUEST: usize = 2;
/// `scan_uniform` range widths, in rows (inclusive bounds).
pub const SCAN_WIDTH: (u64, u64) = (20, 60);
/// `point_hot`'s hot set: distinct batches, against the edge's
/// 1,024-entry compact cache.
pub const HOT_BATCHES: usize = 256;
/// Rows per `point_hot` range.
pub const HOT_WIDTH: u64 = 2;
/// Keys beyond the initial rows that inserts draw from, so table size
/// stays fixed while keys churn.
pub const SPARE_KEYS: u64 = 96;
/// Ops per commit: half inserts of absent keys, half deletes of
/// present keys.
pub const COMMIT_OPS: usize = 8;
/// Fixed commit rate of the writer, commits per second.
pub const WRITE_RATE: f64 = 20.0;
/// Every `TXN_EVERY`-th `ingest_mixed` commit is a two-table `commit_txn`.
pub const TXN_EVERY: u64 = 4;
/// The tables every workload creates, in creation order.
pub const TABLES: [&str; 2] = [READ_TABLE, SIDE_TABLE];

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Uniform 20–60-row scans: VO build and client verification.
    ScanUniform,
    /// A 256-batch hot set of 2-row lookups: the edge's cache.
    PointHot,
    /// `point_hot` reads beside a durable writer at 20 commits/s.
    IngestMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ScanUniform,
        Workload::PointHot,
        Workload::IngestMixed,
    ];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanUniform => "scan_uniform",
            Workload::PointHot => "point_hot",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    /// Open-loop read rate on the one reader connection, requests per
    /// second: a third to a half of what the connection can carry, so a
    /// request seldom queues behind the one before it.
    pub fn read_rate(self) -> f64 {
        match self {
            Workload::ScanUniform => 100.0,
            Workload::PointHot => 250.0,
            Workload::IngestMixed => 200.0,
        }
    }

    /// Whether reads draw from the fixed hot set.
    pub fn hot(self) -> bool {
        !matches!(self, Workload::ScanUniform)
    }

    /// Whether the writer runs beside the reader, whose reads then
    /// verify freshness against the writer's position (else it commits
    /// in its own segment of each round, over the reader connection).
    pub fn concurrent_writer(self) -> bool {
        matches!(self, Workload::IngestMixed)
    }
}

/// Table sizes of one run (the benchmark uses [`Scale::full`]; tests
/// use [`Scale::smoke`]).
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Rows of [`READ_TABLE`].
    pub rows: u64,
    /// Rows of [`SIDE_TABLE`].
    pub side_rows: u64,
}

impl Scale {
    /// The benchmark's sizes: 2,000 `items` rows; 1,000 `orders` rows
    /// in `ingest_mixed`, 250 in the read workloads (a side table for
    /// their write segments). Set-up signs every row, three times a
    /// run, so the sizes are what keeps a run within its time.
    pub fn full(workload: Workload) -> Self {
        Self {
            rows: 2_000,
            side_rows: if workload.concurrent_writer() {
                1_000
            } else {
                250
            },
        }
    }

    /// The smoke tests' sizes.
    pub fn smoke(workload: Workload) -> Self {
        Self {
            rows: 300,
            side_rows: if workload.concurrent_writer() {
                300
            } else {
                100
            },
        }
    }

    /// Rows of `table`.
    pub fn rows_of(self, table: &str) -> u64 {
        if table == READ_TABLE {
            self.rows
        } else {
            self.side_rows
        }
    }

    /// Keys reads of [`READ_TABLE`] range over.
    pub fn key_domain(self) -> u64 {
        self.rows + SPARE_KEYS
    }
}

/// Mix a seed with a stream label (SplitMix64 finaliser).
pub fn mix(seed: u64, label: u64) -> u64 {
    let mut z = seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn label(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The table generator for `table` under `seed`.
pub fn table_spec(table: &str, scale: Scale, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        table: table.into(),
        seed: mix(seed, label(table)),
        ..WorkloadSpec::new(scale.rows_of(table), COLUMNS, ATTR_BYTES)
    }
}

/// Build every table.
pub fn build_tables(scale: Scale, seed: u64) -> Vec<Table> {
    TABLES
        .iter()
        .map(|t| table_spec(t, scale, seed).build())
        .collect()
}

/// A request stream.
pub struct ReadStream {
    rng: StdRng,
    hot: Option<Vec<Vec<RangeQuery>>>,
    rows: u64,
}

/// The fixed hot set shared by every stream of a run.
pub fn hot_set(scale: Scale, seed: u64) -> Vec<Vec<RangeQuery>> {
    let mut rng = StdRng::seed_from_u64(mix(seed, label("hot")));
    let top = scale.key_domain() - HOT_WIDTH;
    (0..HOT_BATCHES)
        .map(|_| {
            (0..RANGES_PER_REQUEST)
                .map(|_| {
                    let lo = rng.gen_range(0..=top);
                    RangeQuery::select_all(lo, lo + HOT_WIDTH - 1)
                })
                .collect()
        })
        .collect()
}

impl ReadStream {
    /// The stream of `phase` (`"open"`, `"setup"`, `"smoke"`), so each
    /// phase of a run draws its own requests.
    pub fn new(workload: Workload, scale: Scale, seed: u64, phase: &str) -> Self {
        let stream = mix(seed, label(phase));
        Self {
            rng: StdRng::seed_from_u64(stream),
            hot: workload.hot().then(|| hot_set(scale, seed)),
            rows: scale.rows,
        }
    }

    /// The next request's ranges.
    pub fn next_batch(&mut self) -> Vec<RangeQuery> {
        match &self.hot {
            Some(hot) => hot[self.rng.gen_range(0..hot.len())].clone(),
            None => (0..RANGES_PER_REQUEST)
                .map(|_| {
                    let width = self.rng.gen_range(SCAN_WIDTH.0..=SCAN_WIDTH.1);
                    let lo = self.rng.gen_range(0..=self.rows - width);
                    RangeQuery::select_all(lo, lo + width - 1)
                })
                .collect(),
        }
    }
}

/// One planned commit.
#[derive(Clone, Debug)]
pub enum Commit {
    /// A single-table `execute_update_batch`.
    Batch {
        /// The table.
        table: String,
        /// Deletes, then inserts.
        ops: Vec<UpdateOp>,
    },
    /// A `commit_txn` with one run of ops per table.
    Txn {
        /// `(table, ops)` runs, in staging order.
        sections: Vec<(String, Vec<UpdateOp>)>,
    },
}

impl Commit {
    /// Every `(table, op)` of the commit.
    pub fn ops(&self) -> Vec<(&str, &UpdateOp)> {
        match self {
            Commit::Batch { table, ops } => ops.iter().map(|op| (table.as_str(), op)).collect(),
            Commit::Txn { sections } => sections
                .iter()
                .flat_map(|(t, ops)| ops.iter().map(move |op| (t.as_str(), op)))
                .collect(),
        }
    }

    /// Bytes the user asked to store: inserted keys and values, and the
    /// deleted keys.
    pub fn user_bytes(&self) -> u64 {
        self.ops()
            .into_iter()
            .map(|(_, op)| match op {
                UpdateOp::Insert(t) => 8 + t.values.iter().map(value_bytes).sum::<u64>(),
                UpdateOp::Delete(_) => 8,
                UpdateOp::DeleteRange(_, _) => 16,
            })
            .sum()
    }

    /// Changes to [`READ_TABLE`]: `(key, inserted)`.
    fn read_table_changes(&self) -> Vec<(u64, bool)> {
        self.ops()
            .into_iter()
            .filter(|(t, _)| *t == READ_TABLE)
            .filter_map(|(_, op)| match op {
                UpdateOp::Insert(t) => Some((t.key, true)),
                UpdateOp::Delete(k) => Some((*k, false)),
                UpdateOp::DeleteRange(_, _) => None,
            })
            .collect()
    }
}

fn value_bytes(v: &Value) -> u64 {
    match v {
        Value::Int(_) | Value::Float(_) => 8,
        Value::Text(s) => s.len() as u64,
        Value::Bytes(b) => b.len() as u64,
    }
}

struct KeyPool {
    present: Vec<u64>,
    absent: Vec<u64>,
}

impl KeyPool {
    fn new(rows: u64) -> Self {
        Self {
            present: (0..rows).collect(),
            absent: (rows..rows + SPARE_KEYS).collect(),
        }
    }

    /// `n` deletes of present keys and `n` inserts of absent ones; a
    /// key deleted here is insertable only from the next commit on.
    fn churn(&mut self, rng: &mut StdRng, n: usize) -> (Vec<u64>, Vec<u64>) {
        let inserts: Vec<u64> = (0..n)
            .map(|_| {
                let i = rng.gen_range(0..self.absent.len());
                self.absent.swap_remove(i)
            })
            .collect();
        let deletes: Vec<u64> = (0..n)
            .map(|_| {
                let i = rng.gen_range(0..self.present.len());
                self.present.swap_remove(i)
            })
            .collect();
        self.present.extend(&inserts);
        self.absent.extend(&deletes);
        (deletes, inserts)
    }
}

/// The writer's commit plan: every commit of a run, generated up front
/// from the seed, so readers can check row counts against it without
/// synchronising with the writer.
pub struct WritePlan {
    /// Commits in order; each has [`COMMIT_OPS`] ops.
    pub commits: Vec<Commit>,
}

impl WritePlan {
    /// Plan `count` commits. `ingest_mixed` commits batches on
    /// [`READ_TABLE`] and makes every [`TXN_EVERY`]-th commit a
    /// two-table txn; the read workloads commit batches on
    /// [`SIDE_TABLE`].
    pub fn new(
        workload: Workload,
        scale: Scale,
        seed: u64,
        schemas: &[Schema],
        count: usize,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(mix(seed, label("writer")));
        let mut pools: Vec<KeyPool> = schemas
            .iter()
            .map(|s| KeyPool::new(scale.rows_of(&s.table)))
            .collect();
        let half = COMMIT_OPS / 2;
        let mut ops_for = |rng: &mut StdRng, t: usize, n: usize| -> Vec<UpdateOp> {
            let (deletes, inserts) = pools[t].churn(rng, n);
            let spec = table_spec(&schemas[t].table, scale, seed);
            let mut ops: Vec<UpdateOp> = deletes.into_iter().map(UpdateOp::Delete).collect();
            ops.extend(
                inserts
                    .into_iter()
                    .map(|k| UpdateOp::Insert(spec.make_tuple(&schemas[t], k, rng)) as UpdateOp),
            );
            ops
        };
        let commits = (0..count as u64)
            .map(|j| {
                if !workload.concurrent_writer() {
                    Commit::Batch {
                        table: SIDE_TABLE.into(),
                        ops: ops_for(&mut rng, 1, half),
                    }
                } else if j % TXN_EVERY == TXN_EVERY - 1 {
                    Commit::Txn {
                        sections: (0..schemas.len())
                            .map(|t| {
                                let n = half / schemas.len();
                                (schemas[t].table.clone(), ops_for(&mut rng, t, n))
                            })
                            .collect(),
                    }
                } else {
                    Commit::Batch {
                        table: READ_TABLE.into(),
                        ops: ops_for(&mut rng, 0, half),
                    }
                }
            })
            .collect();
        Self { commits }
    }

    /// Commits planned for a writer running `span` at [`WRITE_RATE`],
    /// with headroom.
    pub fn count_for(span: Duration) -> usize {
        (span.as_secs_f64() * WRITE_RATE).ceil() as usize + 8
    }
}

/// The reference model of [`READ_TABLE`]'s keys after each commit.
pub struct KeyModel {
    base: BTreeSet<u64>,
    changes: Vec<Vec<(u64, bool)>>,
}

impl KeyModel {
    /// The model for a write plan over the initial table.
    pub fn new(scale: Scale, plan: &WritePlan) -> Self {
        Self {
            base: (0..scale.rows).collect(),
            changes: plan
                .commits
                .iter()
                .map(Commit::read_table_changes)
                .collect(),
        }
    }

    /// Rows of `[lo, hi]` after the first `commits` commits.
    pub fn count(&self, lo: u64, hi: u64, commits: usize) -> u64 {
        let mut n = self.base.range(lo..=hi).count() as i64;
        for change in self.changes.iter().take(commits) {
            for &(k, inserted) in change {
                if (lo..=hi).contains(&k) {
                    n += if inserted { 1 } else { -1 };
                }
            }
        }
        n.max(0) as u64
    }

    /// Whether `rows[i]` rows in `queries[i]` match the table after
    /// some commit count in `commits` (one count for all ranges: a
    /// compact response is served from one snapshot).
    pub fn matches(
        &self,
        queries: &[RangeQuery],
        rows: &[usize],
        commits: std::ops::RangeInclusive<usize>,
    ) -> bool {
        commits.into_iter().any(|c| {
            queries
                .iter()
                .zip(rows)
                .all(|(q, &r)| self.count(q.lo, q.hi, c) == r as u64)
        })
    }
}
