//! Turning a run's samples and spans into named metrics.

use crate::run::{traced_round, Phase, ReadSample, RunOutput, WriteSample};
use crate::trace::Span;
use crate::workload::{ATTR_BYTES, COLUMNS};
use std::collections::{BTreeMap, HashMap};
use vbx_analysis::comm::vbtree_comm;
use vbx_analysis::compute::vbtree_compute;
use vbx_analysis::Params;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: u64,
    /// Why the value is 0, when the workload does not exercise it.
    pub note: Option<&'static str>,
}

fn metric(name: &'static str, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        n: n as u64,
        note: None,
    }
}

fn absent(name: &'static str, unit: &'static str, why: &'static str) -> Metric {
    Metric {
        name,
        value: 0.0,
        unit,
        n: 0,
        note: Some(why),
    }
}

/// Nearest-rank percentile of unsorted values (`q` in `[0, 1]`).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Ops attempted and failed (reads, commits, and the output checks).
pub fn counts(out: &RunOutput) -> (u64, u64) {
    let attempted = out.reads.len() + out.writes.len() + out.checks.len();
    let failed = out.reads.iter().filter(|r| !r.ok).count()
        + out.writes.iter().filter(|w| !w.ok).count()
        + out.checks.iter().filter(|(_, ok)| !ok).count();
    (attempted as u64, failed as u64)
}

/// Reads of the timed open-loop phase (when `untraced`, only those of
/// rounds that recorded no spans).
fn open_reads(out: &RunOutput, untraced: bool) -> Vec<&ReadSample> {
    out.reads
        .iter()
        .filter(|r| r.phase == Phase::Open && r.ok)
        .filter(|r| !(untraced && traced_round(out.trace, r.round)))
        .collect()
}

/// Commits of the timed window.
fn timed_writes(out: &RunOutput) -> Vec<&WriteSample> {
    out.writes
        .iter()
        .filter(|w| matches!(w.phase, Phase::Open | Phase::Write) && w.ok)
        .collect()
}

/// Peak resident set of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Read and commit p90 of the timed window, ms, pooled over rounds.
pub fn p90s(out: &RunOutput) -> (f64, f64) {
    let reads: Vec<f64> = open_reads(out, false)
        .iter()
        .map(|r| ms(r.lat_ns))
        .collect();
    let commits: Vec<f64> = timed_writes(out).iter().map(|w| ms(w.commit_ns)).collect();
    (percentile(&reads, 0.9), percentile(&commits, 0.9))
}

/// Open-loop read latency's `q`-percentile in each round, ms (untraced
/// reads only).
pub fn query_rounds(out: &RunOutput, q: f64) -> Vec<f64> {
    let mut by_round: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for r in open_reads(out, true) {
        by_round.entry(r.round).or_default().push(ms(r.lat_ns));
    }
    by_round.values().map(|v| percentile(v, q)).collect()
}

/// The end-to-end metrics.
pub fn end_to_end(out: &RunOutput) -> Vec<Metric> {
    let setup: Vec<f64> = out.setups.iter().map(|s| s.total_s).collect();
    // A traced run's untraced rounds stand in for its end-to-end figures.
    let reads = open_reads(out, true);
    let bytes: Vec<f64> = reads.iter().map(|r| r.resp_bytes as f64).collect();
    let lat: Vec<f64> = reads.iter().map(|r| ms(r.lat_ns)).collect();
    let writes = timed_writes(out);
    let commit: Vec<f64> = writes.iter().map(|w| ms(w.commit_ns)).collect();
    let visible: Vec<f64> = writes.iter().map(|w| ms(w.visible_ns)).collect();
    let (nr, nw) = (reads.len(), writes.len());
    vec![
        metric("setup_s", median(&setup), "s", setup.len()),
        metric("query_p50_ms", median(&lat), "ms", nr),
        metric("resp_bytes_per_query", mean(&bytes), "bytes", bytes.len()),
        metric("commit_p50_ms", percentile(&commit, 0.5), "ms", nw),
        metric("visible_p50_ms", percentile(&visible, 0.5), "ms", nw),
        metric("peak_rss_mb", peak_rss_mb(), "MiB", 1),
    ]
}

/// Spans grouped by request, with each span's self time.
struct Requests<'a> {
    roots: Vec<&'a Span>,
    members: HashMap<u64, Vec<&'a Span>>,
    self_ns: HashMap<u64, u64>,
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur) = (0u64, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(cur), e.min(hi));
        if e > s {
            total += e - s;
            cur = e;
        }
    }
    total
}

impl<'a> Requests<'a> {
    fn new(spans: &'a [Span]) -> Self {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        let mut members: HashMap<u64, Vec<&Span>> = HashMap::new();
        let mut roots = Vec::new();
        for s in spans {
            if s.parent == 0 {
                roots.push(s);
            } else {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
            if s.req != 0 {
                members.entry(s.req).or_default().push(s);
            }
        }
        let self_ns = spans
            .iter()
            .map(|s| {
                let kids = children.remove(&s.id).unwrap_or_default();
                (s.id, s.dur_ns() - covered(kids, s.start_ns, s.end_ns))
            })
            .collect();
        Self {
            roots,
            members,
            self_ns,
        }
    }

    fn roots(&self, name: &str) -> Vec<&'a Span> {
        self.roots
            .iter()
            .copied()
            .filter(|r| r.name == name)
            .collect()
    }

    fn spans(&self, root: &Span) -> &[&'a Span] {
        self.members.get(&root.req).map_or(&[], Vec::as_slice)
    }

    /// Per root: the summed duration (plus `aux` when `with_aux`) of its
    /// spans named `name`, µs.
    fn sum_us(&self, roots: &[&Span], name: &str, with_aux: bool) -> Vec<f64> {
        roots
            .iter()
            .map(|r| {
                self.spans(r)
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| s.dur_ns() + if with_aux { s.aux } else { 0 })
                    .sum::<u64>() as f64
                    / 1e3
            })
            .collect()
    }

    /// Per root: how many spans named `name` it has.
    fn count(&self, roots: &[&Span], name: &str) -> Vec<f64> {
        roots
            .iter()
            .map(|r| self.spans(r).iter().filter(|s| s.name == name).count() as f64)
            .collect()
    }

    /// Per root: bytes of its spans named `name`.
    fn bytes(&self, roots: &[&Span], name: &str) -> Vec<f64> {
        roots
            .iter()
            .map(|r| {
                self.spans(r)
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| s.bytes)
                    .sum::<u64>() as f64
            })
            .collect()
    }

    /// Durations of every span named `name` under `roots`, µs.
    fn each_us(&self, roots: &[&Span], name: &str) -> Vec<f64> {
        roots
            .iter()
            .flat_map(|r| self.spans(r).iter().filter(|s| s.name == name))
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Per root: self time of its spans named `name`, µs.
    fn self_us(&self, roots: &[&Span], name: &str) -> Vec<f64> {
        roots
            .iter()
            .map(|r| {
                self.spans(r)
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| self.self_ns[&s.id])
                    .sum::<u64>() as f64
                    / 1e3
            })
            .collect()
    }

    /// The share of the median request's time that `time` of its
    /// non-root spans accounts for: over the requests whose duration
    /// lies between the 40th and 60th percentile, the mean of
    /// (Σ `time(span)`) ÷ root duration.
    fn coverage(&self, roots: &[&Span], time: impl Fn(&Span) -> u64) -> f64 {
        let durs: Vec<f64> = roots.iter().map(|r| r.dur_ns() as f64).collect();
        let (lo, hi) = (percentile(&durs, 0.4), percentile(&durs, 0.6));
        let shares: Vec<f64> = roots
            .iter()
            .filter(|r| (lo..=hi).contains(&(r.dur_ns() as f64)) && r.dur_ns() > 0)
            .map(|r| {
                let attributed: u64 = self
                    .spans(r)
                    .iter()
                    .filter(|s| s.parent != 0)
                    .map(|s| time(s))
                    .sum();
                attributed as f64 / r.dur_ns() as f64
            })
            .collect();
        mean(&shares)
    }
}

/// Spans the seam wrappers record inside the program, as opposed to the
/// harness's own spans around the public calls it makes.
fn is_seam(name: &str) -> bool {
    [
        "edge.",
        "crypto.",
        "storage.",
        "client.sigverify",
        "client.aggregate",
    ]
    .iter()
    .any(|p| name.starts_with(p))
}

/// Per-commit counts a change may cite as counts.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CommitCounts {
    /// Signatures per commit.
    pub signs: f64,
    /// WAL fsyncs per commit.
    pub fsyncs: f64,
    /// WAL bytes appended per commit.
    pub wal_bytes: f64,
}

impl CommitCounts {
    fn of(req: &Requests<'_>) -> Self {
        let writes = req.roots("write");
        Self {
            signs: mean(&req.count(&writes, "crypto.sign")),
            fsyncs: mean(&req.count(&writes, "storage.fsync")),
            wal_bytes: mean(&req.bytes(&writes, "storage.append")),
        }
    }
}

/// Per-commit counts over the recorded commits.
pub fn commit_counts(spans: &[Span]) -> CommitCounts {
    CommitCounts::of(&Requests::new(spans))
}

/// The analytical model's parameters for this table shape.
fn model_params(rows: u64) -> Params {
    Params {
        n_r: rows,
        n_c: COLUMNS,
        q_c: COLUMNS,
        attr_size: ATTR_BYTES as f64,
        // The 256-bit accumulator's digests.
        digest_len: 32,
        ..Params::default()
    }
}

/// The per-layer metrics of a traced run.
pub fn per_layer(out: &RunOutput) -> Vec<Metric> {
    let req = Requests::new(&out.spans);
    let queries = req.roots("query");
    let writes = req.roots("write");
    let open_ok: Vec<&ReadSample> = out
        .reads
        .iter()
        .filter(|r| r.phase == Phase::Open && r.ok)
        .collect();
    let traced_writes: Vec<&WriteSample> =
        timed_writes(out).into_iter().filter(|w| w.traced).collect();
    let nq = queries.len();
    let nw = writes.len();
    let mut m = Vec::new();

    // client
    let per_req =
        |f: fn(&ReadSample) -> u64| -> Vec<f64> { open_ok.iter().map(|r| f(r) as f64).collect() };
    m.push(metric(
        "client.decode_us",
        median(&req.sum_us(&queries, "client.decode", false)),
        "us",
        nq,
    ));
    m.push(metric(
        "client.verify_us",
        median(&req.sum_us(&queries, "client.verify", false)),
        "us",
        nq,
    ));
    m.push(metric(
        "client.sigverify_us",
        median(&req.sum_us(&queries, "client.sigverify", true)),
        "us",
        nq,
    ));
    let nr = open_ok.len();
    m.push(metric(
        "client.hash_ops",
        mean(&per_req(|r| r.meter.hash_ops)),
        "count",
        nr,
    ));
    m.push(metric(
        "client.combine_ops",
        mean(&per_req(|r| r.meter.combine_ops)),
        "count",
        nr,
    ));
    m.push(metric(
        "client.lift_ops",
        mean(&per_req(|r| r.meter.lift_ops)),
        "count",
        nr,
    ));
    m.push(metric(
        "client.sig_checks",
        mean(&per_req(|r| r.meter.verify_ops)),
        "count",
        nr,
    ));

    // net
    let rtt = req.sum_us(&queries, "net.call", false);
    let serve = req.sum_us(&queries, "edge.query", false);
    let wire: Vec<f64> = rtt.iter().zip(&serve).map(|(a, b)| a - b).collect();
    m.push(metric("net.rtt_us", median(&rtt), "us", nq));
    m.push(metric("net.wire_us", median(&wire), "us", nq));
    let io_bytes: Vec<f64> = queries.iter().map(|r| r.bytes as f64).collect();
    let frames: Vec<f64> = queries.iter().map(|r| r.aux as f64).collect();
    m.push(metric("net.bytes_per_query", mean(&io_bytes), "bytes", nq));
    m.push(metric("net.frames_per_query", mean(&frames), "count", nq));

    // edge
    m.push(metric("edge.query_us", median(&serve), "us", nq));
    m.push(metric(
        "edge.aggregate_us",
        mean(&req.sum_us(&queries, "edge.aggregate", false)),
        "us",
        nq,
    ));
    let c = out.cache;
    let lookups = c.hits + c.misses;
    m.push(metric(
        "edge.cache_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            c.hits as f64 / lookups as f64
        },
        "fraction",
        lookups as usize,
    ));
    m.push(metric(
        "edge.cache_invalidated",
        c.invalidated as f64,
        "count",
        1,
    ));
    m.push(metric("edge.cache_evicted", c.evicted as f64, "count", 1));
    m.push(metric(
        "edge.lock_conflicts",
        out.lock_conflicts as f64,
        "count",
        1,
    ));

    // edge apply, central, crypto, storage: per commit
    let no_txn = "no two-table txns: only ingest_mixed commits them";
    let timed = |name: &'static str, span: &str, unit: &'static str, why: &'static str| {
        let v = req.each_us(&writes, span);
        if v.is_empty() {
            absent(name, unit, why)
        } else {
            metric(name, median(&v), unit, v.len())
        }
    };
    m.push(timed(
        "edge.apply_batch_us",
        "edge.apply_batch",
        "us",
        "no commits traced",
    ));
    m.push(timed("edge.apply_txn_us", "edge.apply_txn", "us", no_txn));
    m.push(timed(
        "central.commit_batch_us",
        "central.commit_batch",
        "us",
        "no commits traced",
    ));
    m.push(timed(
        "central.commit_txn_us",
        "central.commit_txn",
        "us",
        no_txn,
    ));
    let self_us: Vec<f64> = req
        .self_us(&writes, "central.commit_batch")
        .iter()
        .zip(req.self_us(&writes, "central.commit_txn"))
        .map(|(a, b)| a + b)
        .collect();
    m.push(metric("central.self_us", median(&self_us), "us", nw));
    m.push(metric(
        "central.encode_us",
        median(&req.sum_us(&writes, "central.encode", false)),
        "us",
        nw,
    ));
    m.push(metric(
        "central.push_us",
        median(&req.sum_us(&writes, "central.push", false)),
        "us",
        nw,
    ));
    let per_commit = CommitCounts::of(&req);
    m.push(metric(
        "crypto.signs_per_commit",
        per_commit.signs,
        "count",
        nw,
    ));
    m.push(metric(
        "crypto.sign_us_per_commit",
        mean(&req.sum_us(&writes, "crypto.sign", false)),
        "us",
        nw,
    ));
    m.push(metric(
        "storage.fsyncs_per_commit",
        per_commit.fsyncs,
        "count",
        nw,
    ));
    m.push(metric(
        "storage.fsync_us",
        median(&req.each_us(&writes, "storage.fsync")),
        "us",
        nw,
    ));
    m.push(metric(
        "storage.wal_bytes_per_commit",
        per_commit.wal_bytes,
        "bytes",
        nw,
    ));
    let user: u64 = traced_writes.iter().map(|w| w.user_bytes).sum();
    m.push(metric(
        "storage.wal_bytes_per_user_byte",
        if user == 0 {
            0.0
        } else {
            per_commit.wal_bytes * nw as f64 / user as f64
        },
        "ratio",
        traced_writes.len(),
    ));
    let ckpt = req.each_us(&writes, "storage.checkpoint");
    let ckpt_bytes = req.bytes(&writes, "storage.checkpoint");
    m.push(metric(
        "storage.checkpoints",
        ckpt.len() as f64,
        "count",
        nw,
    ));
    if ckpt.is_empty() {
        let why = "no checkpoint fell in the traced window";
        m.push(absent("storage.checkpoint_ms", "ms", why));
        m.push(absent("storage.checkpoint_bytes", "bytes", why));
    } else {
        m.push(metric(
            "storage.checkpoint_ms",
            mean(&ckpt) / 1e3,
            "ms",
            ckpt.len(),
        ));
        let total: f64 = ckpt_bytes.iter().sum();
        m.push(metric(
            "storage.checkpoint_bytes",
            total / ckpt.len() as f64,
            "bytes",
            ckpt.len(),
        ));
    }

    // setup
    let ns = out.setups.len();
    let build: Vec<f64> = out.setups.iter().map(|s| s.build_s).collect();
    let bundle: Vec<f64> = out.setups.iter().map(|s| s.bundle_s).collect();
    let last = out.setups.last().copied().unwrap_or_default();
    // The bulk build signs on worker threads that carry no request
    // context, so count every signature made while a set-up ran.
    let setup_signs: Vec<f64> = req
        .roots("setup")
        .iter()
        .map(|r| {
            out.spans
                .iter()
                .filter(|s| s.name == "crypto.sign")
                .filter(|s| s.start_ns >= r.start_ns && s.end_ns <= r.end_ns)
                .count() as f64
        })
        .collect();
    m.push(metric("setup.build_s", median(&build), "s", ns));
    m.push(metric(
        "setup.signs",
        mean(&setup_signs),
        "count",
        setup_signs.len(),
    ));
    m.push(metric("setup.bundle_s", median(&bundle), "s", ns));
    m.push(metric(
        "setup.bundle_bytes",
        last.bundle_bytes as f64,
        "bytes",
        1,
    ));

    // harness health
    let open: Vec<&ReadSample> = open_reads(out, false);
    let timed_w = timed_writes(out);
    let late: Vec<f64> = open
        .iter()
        .map(|r| ms(r.late_ns))
        .chain(timed_w.iter().map(|w| ms(w.late_ns)))
        .collect();
    m.push(metric(
        "gen.late_p99_ms",
        percentile(&late, 0.99),
        "ms",
        late.len(),
    ));
    let lat: Vec<f64> = open.iter().map(|r| ms(r.lat_ns)).collect();
    let (query_p90, commit_p90) = p90s(out);
    m.push(metric("tail.query_p90_ms", query_p90, "ms", lat.len()));
    m.push(metric(
        "tail.query_p99_ms",
        percentile(&lat, 0.99),
        "ms",
        lat.len(),
    ));
    let commit: Vec<f64> = timed_w.iter().map(|w| ms(w.commit_ns)).collect();
    let visible: Vec<f64> = timed_w.iter().map(|w| ms(w.visible_ns)).collect();
    m.push(metric("tail.commit_p90_ms", commit_p90, "ms", commit.len()));
    m.push(metric(
        "tail.commit_p99_ms",
        percentile(&commit, 0.99),
        "ms",
        commit.len(),
    ));
    m.push(metric(
        "tail.visible_p90_ms",
        percentile(&visible, 0.9),
        "ms",
        visible.len(),
    ));
    let plain: Vec<f64> = open_reads(out, true).iter().map(|r| ms(r.lat_ns)).collect();
    let traced: Vec<f64> = open
        .iter()
        .filter(|r| r.traced)
        .map(|r| ms(r.lat_ns))
        .collect();
    m.push(metric(
        "trace.overhead_pct",
        (median(&traced) / median(&plain) - 1.0) * 100.0,
        "%",
        traced.len(),
    ));
    // The harness's spans around the public calls tile a request, so
    // the coverage figures fall below 1 only where untimed work sits
    // between the calls; `trace.seam_share` is the part the wrappers
    // inside the program see.
    let self_time = |s: &Span| req.self_ns[&s.id];
    m.push(metric(
        "trace.coverage",
        req.coverage(&queries, self_time),
        "fraction",
        nq,
    ));
    m.push(metric(
        "trace.commit_coverage",
        req.coverage(&writes, self_time),
        "fraction",
        nw,
    ));
    // An aggregate check's absorbs run inside `client.verify` and are
    // carried as the check's `aux`.
    let seam_time = |s: &Span| {
        if is_seam(s.name) {
            self_time(s) + s.aux
        } else {
            0
        }
    };
    m.push(metric(
        "trace.seam_share",
        req.coverage(&queries, seam_time),
        "fraction",
        nq,
    ));

    // Section 4 cross-check, per range.
    let p = model_params(out.rows);
    let ranges: usize = open_ok.iter().map(|r| r.ranges).sum();
    if ranges > 0 {
        let rows: usize = open_ok.iter().map(|r| r.rows).sum();
        let sel = (rows as f64 / ranges as f64) / out.rows as f64;
        let cost: f64 = open_ok
            .iter()
            .map(|r| r.meter.weighted(p.combine_ratio, p.x, p.sign_ratio))
            .sum::<f64>()
            / ranges as f64;
        let bytes = open_ok.iter().map(|r| r.payload_bytes).sum::<u64>() as f64 / ranges as f64;
        m.push(metric(
            "model.client_cost_ratio",
            cost / vbtree_compute(&p, sel),
            "ratio",
            ranges,
        ));
        m.push(metric(
            "model.vo_bytes_ratio",
            bytes / vbtree_comm(&p, sel),
            "ratio",
            ranges,
        ));
    }
    let (attempted, failed) = counts(out);
    m.push(metric(
        "error_rate",
        failed as f64 / attempted.max(1) as f64,
        "fraction",
        attempted as usize,
    ));
    m
}
