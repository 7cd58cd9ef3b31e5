//! One run of a workload: set-ups, warm-up, the open-loop read phase,
//! the writer, and the output checks.
//!
//! Reads run open-loop on one connection and are timed from their
//! scheduled send, so a stall shows as latency of the requests queued
//! behind it. Every response is decoded, verified, and its row counts
//! checked against the seeded key model.

use crate::seams;
use crate::stack::{owner_key, scheme, SetupTimes, Stack};
use crate::trace::{self, Span};
use crate::workload::{
    Commit, KeyModel, ReadStream, Scale, Workload, WritePlan, COMMIT_OPS, READ_TABLE, WRITE_RATE,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use vbx_core::{
    decode_compact_response, encode_delta_batch, encode_txn_batch, measure_compact, ClientVerifier,
    CostMeter, FreshnessPolicy, NetMsg, RangeQuery,
};
use vbx_crypto::{Acc256, SigVerifier};
use vbx_edge::{CacheStats, CentralServer, DurabilityConfig, NetClient};
use vbx_storage::{DiskVfs, Schema, Vfs};

/// Warm-up before timing starts, so caches are full.
pub const WARMUP: Duration = Duration::from_millis(1500);

/// Which part of a run an operation was scheduled in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Warm-up (not timed).
    Warm,
    /// The open-loop phase (timed).
    Open,
    /// A write segment of the read workloads (timed).
    Write,
}

/// One verified read.
#[derive(Clone, Debug)]
pub struct ReadSample {
    /// Phase of the scheduled send.
    pub phase: Phase,
    /// Round of the scheduled send (0 during warm-up).
    pub round: u32,
    /// Whether its spans were recorded.
    pub traced: bool,
    /// Verified, and row counts matched the model.
    pub ok: bool,
    /// Scheduled send → rows verified, ns.
    pub lat_ns: u64,
    /// Scheduled send → actual send, ns.
    pub late_ns: u64,
    /// Encoded response size.
    pub resp_bytes: u64,
    /// Result plus VO bytes as `measure_compact` counts them.
    pub payload_bytes: u64,
    /// Primitive operations the client's verification counted.
    pub meter: CostMeter,
    /// Ranges in the request.
    pub ranges: usize,
    /// Rows returned over all ranges.
    pub rows: usize,
    /// The response bytes (kept only when asked for).
    pub body: Option<Vec<u8>>,
}

/// One durable commit and its push to the edge.
#[derive(Clone, Debug)]
pub struct WriteSample {
    /// Phase of the scheduled commit.
    pub phase: Phase,
    /// Whether its spans were recorded.
    pub traced: bool,
    /// Committed, and the edge acked exactly its end position.
    pub ok: bool,
    /// Scheduled → actual start, ns.
    pub late_ns: u64,
    /// Scheduled → durable return, ns.
    pub commit_ns: u64,
    /// Scheduled → the edge's ack, ns.
    pub visible_ns: u64,
    /// User bytes the commit stored.
    pub user_bytes: u64,
}

/// State the readers and the writer share.
pub struct Shared<'a> {
    /// The workload.
    pub workload: Workload,
    /// Digest algebra.
    pub acc: &'a Acc256,
    /// Schema of [`READ_TABLE`].
    pub schema: &'a Schema,
    /// The client's signature verifier.
    pub verifier: &'a dyn SigVerifier,
    /// The reference key model.
    pub model: &'a KeyModel,
    /// Delta sequence before the first commit.
    pub base_seq: u64,
    /// Commits the edge has acked.
    pub acked: AtomicU64,
    /// The owner position `(seq, clock)` the writer last published.
    pub owner: Mutex<(u64, u64)>,
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Sleep until `t`, spinning through its last stretch: a timer
/// wake-up alone overshoots by tens of microseconds, which would read
/// as latency of a request scheduled at `t`.
fn sleep_until(t: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        if t - now > SPIN {
            std::thread::sleep(t - now - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Send one compact request, verify the response, and check its row
/// counts against the model.
pub fn read_once(
    sh: &Shared<'_>,
    client: &mut NetClient,
    queries: &[RangeQuery],
    sched: Instant,
    phase: Phase,
    keep_body: bool,
) -> ReadSample {
    // Count only this request's frames (a write segment may have
    // pushed over the same connection since the last read).
    seams::take_net_io();
    let acked = sh.acked.load(Ordering::SeqCst) as usize;
    let (owner_seq, owner_clock) = *sh.owner.lock().unwrap_or_else(|e| e.into_inner());
    let mut root = trace::root("query", trace::next_id(), sched);
    let start = Instant::now();
    trace::record_between("gen.wait", sched, start);
    let result = (|| {
        let bytes = {
            let _s = trace::enter("net.call");
            client.query_compact(READ_TABLE, queries, true).ok()?
        };
        let resp = {
            let _s = trace::enter("client.decode");
            decode_compact_response::<4>(&bytes, sh.acc).ok()?
        };
        let report = {
            let _s = trace::enter("client.verify");
            let verifier = ClientVerifier::new(sh.acc, sh.schema);
            let verifier = if sh.workload.concurrent_writer() {
                verifier.with_freshness(
                    FreshnessPolicy::max_lag(COMMIT_OPS as u64),
                    owner_seq,
                    owner_clock,
                )
            } else {
                verifier
            };
            verifier.verify_compact(sh.verifier, queries, &resp).ok()?
        };
        Some((bytes, resp, report))
    })();
    let done = Instant::now();
    let (frames, io_bytes) = seams::take_net_io();
    root.add_bytes(io_bytes);
    root.add_aux(frames);
    let traced = root.live();
    drop(root);

    let mut sample = ReadSample {
        phase,
        round: 0,
        traced,
        ok: false,
        lat_ns: ns(done - sched),
        late_ns: ns(start.saturating_duration_since(sched)),
        resp_bytes: 0,
        payload_bytes: 0,
        meter: CostMeter::default(),
        ranges: queries.len(),
        rows: 0,
        body: None,
    };
    if let Some((bytes, resp, report)) = result {
        let rows: Vec<usize> = resp.parts.iter().map(|p| p.rows.len()).collect();
        let applied = resp.freshness.applied_seq.saturating_sub(sh.base_seq);
        let visible = (applied / COMMIT_OPS as u64) as usize;
        sample.ok = applied % COMMIT_OPS as u64 == 0
            && report.rows == rows.iter().sum::<usize>()
            && sh.model.matches(queries, &rows, acked..=visible.max(acked));
        let size = measure_compact(&resp);
        sample.resp_bytes = bytes.len() as u64;
        sample.payload_bytes = (size.result_bytes + size.vo_bytes) as u64;
        sample.meter = report.meter;
        sample.rows = report.rows;
        sample.body = keep_body.then_some(bytes);
    }
    sample
}

/// Commit one planned commit durably, push it to the edge, and publish
/// the new owner position and ack count.
pub fn write_once(
    sh: &Shared<'_>,
    central: &mut CentralServer<crate::stack::Scheme>,
    client: &mut NetClient,
    commit: &Commit,
    index: u64,
    sched: Instant,
    phase: Phase,
) -> WriteSample {
    let commit = commit.clone();
    let user_bytes = commit.user_bytes();
    let root = trace::root("write", trace::next_id(), sched);
    let start = Instant::now();
    trace::record_between("gen.wait", sched, start);
    let mut committed = None;
    let ok = (|| {
        let (msg, end_seq) = match commit {
            Commit::Batch { table, ops } => {
                let batch = {
                    let _s = trace::enter("central.commit_batch");
                    central.execute_update_batch(&table, ops).ok()?
                };
                committed = Some(Instant::now());
                *sh.owner.lock().unwrap_or_else(|e| e.into_inner()) = central.owner_position();
                let _s = trace::enter("central.encode");
                (
                    NetMsg::DeltaBatch(encode_delta_batch(&batch)),
                    batch.end_seq(),
                )
            }
            Commit::Txn { sections } => {
                let mut staged = central.begin_txn();
                for (table, ops) in sections {
                    for op in ops {
                        staged.stage(table.clone(), op);
                    }
                }
                let txn = {
                    let _s = trace::enter("central.commit_txn");
                    central.commit_txn(staged).ok()?
                };
                committed = Some(Instant::now());
                *sh.owner.lock().unwrap_or_else(|e| e.into_inner()) = central.owner_position();
                let _s = trace::enter("central.encode");
                (
                    NetMsg::DeltaTxn(encode_txn_batch(&txn)),
                    txn.start_seq() + txn.ops(),
                )
            }
        };
        let applied = {
            let _s = trace::enter("central.push");
            client.push_replication(&msg).ok()?
        };
        Some(applied == end_seq)
    })()
    .unwrap_or(false);
    let visible = Instant::now();
    let traced = root.live();
    drop(root);
    if ok {
        sh.acked.store(index + 1, Ordering::SeqCst);
    }
    WriteSample {
        phase,
        traced,
        ok,
        late_ns: ns(start.saturating_duration_since(sched)),
        commit_ns: ns(committed.unwrap_or(visible) - sched),
        visible_ns: ns(visible - sched),
        user_bytes,
    }
}

/// What to run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds (open-loop and write phases).
    pub seconds: f64,
    /// Wrap the seams and record spans.
    pub trace: bool,
    /// Scratch directory for WAL directories.
    pub work_dir: PathBuf,
}

/// Set-ups timed per run (`setup_s` is their median); the last one
/// serves the run.
const SETUPS: usize = 3;

/// Rounds the measured time is split into. Each round has an
/// open-loop read segment and, on the read workloads, a write segment,
/// so every metric samples the whole run rather than one stretch of it.
/// A traced run records spans in the odd rounds; the even rounds are
/// its untraced control.
pub const ROUNDS: u32 = 6;

/// Whether round `r` of a run records spans.
pub fn traced_round(trace: bool, r: u32) -> bool {
    trace && r % 2 == 1
}

/// When each segment of a run starts and ends.
#[derive(Clone, Copy, Debug)]
struct Timeline {
    /// Warm-up start.
    warm_start: Instant,
    /// First round's start (warm-up end).
    start: Instant,
    /// Round length.
    round: Duration,
    /// Open-loop segment per round.
    open: Duration,
}

impl Timeline {
    fn new(workload: Workload, seconds: f64) -> Self {
        let round = seconds / f64::from(ROUNDS);
        // The read workloads' write segments get a third of each round,
        // so a 20 s run times about 130 commits.
        let open = if workload.concurrent_writer() {
            1.0
        } else {
            2.0 / 3.0
        };
        let warm_start = Instant::now() + Duration::from_millis(20);
        Self {
            warm_start,
            start: warm_start + WARMUP,
            round: Duration::from_secs_f64(round),
            open: Duration::from_secs_f64(round * open),
        }
    }

    fn round_start(&self, r: u32) -> Instant {
        self.start + self.round * r
    }

    fn open_end(&self, r: u32) -> Instant {
        self.round_start(r) + self.open
    }

    /// End of the last round.
    fn end(&self) -> Instant {
        self.round_start(ROUNDS)
    }

    /// The write segments' total length.
    fn write_time(&self) -> Duration {
        (self.round - self.open) * ROUNDS
    }

    /// The phase `t` falls in.
    fn phase_at(&self, t: Instant) -> Phase {
        if t < self.start {
            return Phase::Warm;
        }
        let into = (t - self.start).as_secs_f64() % self.round.as_secs_f64();
        if into < self.open.as_secs_f64() {
            Phase::Open
        } else {
            Phase::Write
        }
    }
}

/// Everything a run measured.
pub struct RunOutput {
    /// Whether spans were recorded.
    pub trace: bool,
    /// Every set-up's cost.
    pub setups: Vec<SetupTimes>,
    /// Every read.
    pub reads: Vec<ReadSample>,
    /// Every commit.
    pub writes: Vec<WriteSample>,
    /// Compact-cache counters over the measured open-loop segments.
    pub cache: CacheStats,
    /// Edge lock conflicts over the same segments.
    pub lock_conflicts: u64,
    /// Output checks and whether each passed.
    pub checks: Vec<(&'static str, bool)>,
    /// Recorded spans.
    pub spans: Vec<Span>,
    /// Rows per table.
    pub rows: u64,
}

fn cache_add(total: &mut CacheStats, a: CacheStats, b: CacheStats) {
    total.hits += b.hits - a.hits;
    total.misses += b.misses - a.misses;
    total.invalidated += b.invalidated - a.invalidated;
    total.evicted += b.evicted - a.evicted;
    total.stale_skips += b.stale_skips - a.stale_skips;
}

/// Commit at [`WRITE_RATE`] from `start` until `end`, continuing the
/// plan at `next`.
#[allow(clippy::too_many_arguments)]
fn writer_loop(
    sh: &Shared<'_>,
    central: &mut CentralServer<crate::stack::Scheme>,
    client: &mut NetClient,
    plan: &WritePlan,
    next: &mut usize,
    start: Instant,
    end: Instant,
    phase_of: impl Fn(Instant) -> Phase,
) -> Vec<WriteSample> {
    let interval = Duration::from_secs_f64(1.0 / WRITE_RATE);
    let mut samples = Vec::new();
    for k in 0u32.. {
        let sched = start + interval * k;
        let Some(commit) = plan.commits.get(*next) else {
            break;
        };
        // The last commit starts a full interval before `end`, so it is
        // done before the next segment's schedule begins.
        if sched + interval > end {
            break;
        }
        sleep_until(sched);
        let phase = phase_of(sched);
        samples.push(write_once(
            sh,
            central,
            client,
            commit,
            *next as u64,
            sched,
            phase,
        ));
        *next += 1;
    }
    samples
}

/// The reader connection's whole run: the open-loop warm-up, then per
/// round its open-loop schedule and (when handed the central) the
/// round's write segment.
fn reader_loop(
    sh: &Shared<'_>,
    client: &mut NetClient,
    scale: Scale,
    seed: u64,
    tl: &Timeline,
    mut writer: Option<(&mut CentralServer<crate::stack::Scheme>, &WritePlan)>,
) -> (Vec<ReadSample>, Vec<WriteSample>) {
    let interval = Duration::from_secs_f64(1.0 / sh.workload.read_rate());
    let mut stream = ReadStream::new(sh.workload, scale, seed, "open");
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    let mut open_loop =
        |client: &mut NetClient, from: Instant, to: Instant, phase: Phase, round| {
            for k in 0u32.. {
                let sched = from + interval * k;
                if sched >= to {
                    break;
                }
                sleep_until(sched);
                let queries = stream.next_batch();
                let sample = read_once(sh, client, &queries, sched, phase, false);
                reads.push(ReadSample { round, ..sample });
            }
        };
    open_loop(client, tl.warm_start, tl.start, Phase::Warm, 0);
    let mut next_commit = 0;
    for r in 0..ROUNDS {
        open_loop(client, tl.round_start(r), tl.open_end(r), Phase::Open, r);
        if let Some((central, plan)) = writer.as_mut() {
            writes.extend(writer_loop(
                sh,
                central,
                client,
                plan,
                &mut next_commit,
                tl.open_end(r),
                tl.round_start(r + 1),
                |_| Phase::Write,
            ));
        }
    }
    (reads, writes)
}

/// Run one workload end to end.
pub fn run(cfg: &RunConfig) -> Result<RunOutput, String> {
    let workload = cfg.workload;
    let scale = Scale::full(workload);
    std::fs::create_dir_all(&cfg.work_dir).map_err(|e| format!("work dir: {e}"))?;
    let wal_dir = |i: usize| cfg.work_dir.join(format!("wal-{}-{i}", std::process::id()));

    let mut setups = Vec::with_capacity(SETUPS);
    for i in 0..SETUPS - 1 {
        let _ = std::fs::remove_dir_all(wal_dir(i));
        let stack = Stack::setup(workload, scale, cfg.seed, cfg.trace, &wal_dir(i))?;
        setups.push(stack.times);
        stack.close();
    }
    let last = SETUPS - 1;
    let _ = std::fs::remove_dir_all(wal_dir(last));
    // A traced run records the set-up that serves it.
    trace::set_enabled(cfg.trace);
    let stack = Stack::setup(workload, scale, cfg.seed, cfg.trace, &wal_dir(last));
    trace::set_enabled(false);
    let mut stack = stack?;
    setups.push(stack.times);

    let tl = Timeline::new(workload, cfg.seconds);
    let write_time = if workload.concurrent_writer() {
        tl.end() - tl.warm_start
    } else {
        tl.write_time()
    };
    let commits = WritePlan::count_for(write_time) + ROUNDS as usize;
    let plan = WritePlan::new(workload, scale, cfg.seed, &stack.schemas, commits);
    let model = KeyModel::new(scale, &plan);
    let owner = stack.central.owner_position();
    let sh = Shared {
        workload,
        acc: &stack.acc,
        schema: &stack.schemas[0],
        verifier: stack.verifier.as_ref(),
        model: &model,
        base_seq: stack.base_seq,
        acked: AtomicU64::new(0),
        owner: Mutex::new(owner),
    };
    let edge = Arc::clone(&stack.edge);
    let mut writer = stack.writer.take();
    let (reader, central) = (&mut stack.reader, &mut stack.central);

    let (reads, writes, cache, lock_conflicts) = std::thread::scope(|scope| {
        let (sh, tl, plan) = (&sh, &tl, &plan);
        let concurrent = workload.concurrent_writer();
        // The writer's own connection exists only when it runs beside
        // the reader; otherwise the reader commits in its write segments.
        let mut central = Some(central);
        let writer_handle = writer.as_mut().map(|client| {
            let central = central.take().expect("one writer");
            scope.spawn(move || {
                let mut next = 0;
                writer_loop(
                    sh,
                    central,
                    client,
                    plan,
                    &mut next,
                    tl.warm_start,
                    tl.end(),
                    |t| tl.phase_at(t),
                )
            })
        });
        let reader_central = central.map(|c| (c, plan));
        let reader_handle =
            scope.spawn(move || reader_loop(sh, reader, scale, cfg.seed, tl, reader_central));

        // Record spans in the open-loop and write segments of the odd
        // rounds (an untraced run measures the cache over every round).
        let mut cache = CacheStats::default();
        let mut lock_conflicts = 0;
        for r in 0..ROUNDS {
            let traced = traced_round(cfg.trace, r);
            if cfg.trace && !traced {
                continue;
            }
            sleep_until(tl.round_start(r));
            let (cache0, locks0) = (
                edge.service().compact_cache_stats(),
                edge.service().lock_stats(),
            );
            trace::set_enabled(traced);
            sleep_until(tl.open_end(r));
            trace::set_enabled(false);
            cache_add(&mut cache, cache0, edge.service().compact_cache_stats());
            lock_conflicts += edge.service().lock_stats().conflicts - locks0.conflicts;
            if traced && !concurrent {
                trace::set_enabled(true);
                sleep_until(tl.round_start(r + 1));
                trace::set_enabled(false);
            }
        }

        let (reads, mut writes) = reader_handle.join().expect("reader thread panicked");
        if let Some(h) = writer_handle {
            writes.extend(h.join().expect("writer thread panicked"));
        }
        (reads, writes, cache, lock_conflicts)
    });

    // Output checks.
    let mut checks = Vec::new();
    let head = stack.central.delta_log().next_seq();
    checks.push((
        "edge applied_seq equals the central's last seq",
        edge.applied_seq() == head,
    ));
    let recovered = DiskVfs::open(&stack.dir)
        .map_err(|e| format!("{e:?}"))
        .and_then(|disk| {
            let vfs: Arc<dyn Vfs> = Arc::new(disk);
            CentralServer::recover(scheme(), owner_key(), vfs, DurabilityConfig::default())
                .map_err(|e| format!("{e:?}"))
        });
    let identical = match recovered {
        Ok(r) => r.encode_state() == stack.central.encode_state(),
        Err(_) => false,
    };
    checks.push(("recovered central state is byte-identical", identical));

    stack.writer = writer;
    stack.close();
    Ok(RunOutput {
        trace: cfg.trace,
        setups,
        reads,
        writes,
        cache,
        lock_conflicts,
        checks,
        spans: trace::drain(),
        rows: scale.rows,
    })
}
