//! A small sequential run of a workload's code paths, for tests.
//!
//! Same set-up, requests, commits and checks as the timed run, but on
//! a 300-row `items` table, with no clock in the loop: `commits` rounds of
//! `reads_per_commit` verified reads followed by one commit pushed to
//! the edge. A wrapped run records spans throughout, as the traced
//! phases of a timed run do. Everything it returns except span times is
//! a function of the seed, which is what the seam-equivalence and
//! determinism tests compare.

use crate::report;
use crate::run::{read_once, write_once, Phase, Shared};
use crate::stack::Stack;
use crate::trace::{self, Span};
use crate::workload::{KeyModel, ReadStream, Scale, Workload, WritePlan};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::Mutex;
use std::time::Instant;
use vbx_core::{CostMeter, RangeQuery};

/// The span recorder is process-wide, so smoke runs take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// What a smoke run produced.
#[derive(Debug)]
pub struct SmokeOutput {
    /// Every request's ranges, in order.
    pub requests: Vec<Vec<RangeQuery>>,
    /// Every response's bytes, in order.
    pub responses: Vec<Vec<u8>>,
    /// Every verification's cost-meter counts, in order.
    pub meters: Vec<CostMeter>,
    /// The WAL directory's files after the run.
    pub files: BTreeMap<String, Vec<u8>>,
    /// Mean response size.
    pub resp_bytes_per_query: f64,
    /// Per commit: signatures, WAL fsyncs and WAL bytes appended, from
    /// the spans (wrapped runs; 0 otherwise).
    pub per_commit: report::CommitCounts,
    /// The spans recorded (wrapped runs; empty otherwise).
    pub spans: Vec<Span>,
    /// Reads, commits and output checks that failed.
    pub failed: usize,
}

/// Run `workload` small and sequentially in `dir` (removed afterwards),
/// wrapping every seam and recording spans when `wrapped`.
pub fn run_smoke(
    workload: Workload,
    seed: u64,
    wrapped: bool,
    dir: &Path,
    commits: usize,
    reads_per_commit: usize,
) -> Result<SmokeOutput, String> {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    trace::drain();
    trace::set_enabled(wrapped);
    let out = smoke_body(workload, seed, wrapped, dir, commits, reads_per_commit);
    trace::set_enabled(false);
    let spans = trace::drain();
    out.map(|out| SmokeOutput {
        per_commit: report::commit_counts(&spans),
        spans,
        ..out
    })
}

fn smoke_body(
    workload: Workload,
    seed: u64,
    wrapped: bool,
    dir: &Path,
    commits: usize,
    reads_per_commit: usize,
) -> Result<SmokeOutput, String> {
    let scale = Scale::smoke(workload);
    let _ = std::fs::remove_dir_all(dir);
    let mut stack = Stack::setup(workload, scale, seed, wrapped, dir)?;
    let plan = WritePlan::new(workload, scale, seed, &stack.schemas, commits);
    let model = KeyModel::new(scale, &plan);
    let sh = Shared {
        workload,
        acc: &stack.acc,
        schema: &stack.schemas[0],
        verifier: stack.verifier.as_ref(),
        model: &model,
        base_seq: stack.base_seq,
        acked: AtomicU64::new(0),
        owner: Mutex::new(stack.central.owner_position()),
    };
    let mut stream = ReadStream::new(workload, scale, seed, "smoke");
    let (mut requests, mut responses, mut meters) = (Vec::new(), Vec::new(), Vec::new());
    let mut failed = 0;
    for (j, commit) in plan.commits.iter().enumerate() {
        for _ in 0..reads_per_commit {
            let queries = stream.next_batch();
            let s = read_once(
                &sh,
                &mut stack.reader,
                &queries,
                Instant::now(),
                Phase::Open,
                true,
            );
            failed += usize::from(!s.ok);
            meters.push(s.meter);
            responses.push(s.body.unwrap_or_default());
            requests.push(queries);
        }
        let client = stack.writer.as_mut().unwrap_or(&mut stack.reader);
        let w = write_once(
            &sh,
            &mut stack.central,
            client,
            commit,
            j as u64,
            Instant::now(),
            Phase::Write,
        );
        failed += usize::from(!w.ok);
    }
    failed += usize::from(stack.edge.applied_seq() != stack.central.delta_log().next_seq());

    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read wal dir: {e}"))? {
        let path = entry.map_err(|e| format!("read wal dir: {e}"))?.path();
        let bytes = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        files.insert(
            path.file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned(),
            bytes,
        );
    }
    stack.close();

    Ok(SmokeOutput {
        resp_bytes_per_query: responses.iter().map(Vec::len).sum::<usize>() as f64
            / responses.len().max(1) as f64,
        requests,
        responses,
        meters,
        files,
        per_commit: report::CommitCounts::default(),
        spans: Vec::new(),
        failed,
    })
}
