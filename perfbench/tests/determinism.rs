//! One seed gives one request stream and one set of counts; another
//! seed gives another stream. These are the counts a change may cite
//! as counts: the client's `CostMeter` operations, response bytes per
//! query, signatures, fsyncs and WAL bytes per commit.

use std::path::PathBuf;
use vbx_perfbench::smoke::{run_smoke, SmokeOutput};
use vbx_perfbench::workload::Workload;

fn smoke(workload: Workload, seed: u64, tag: &str) -> SmokeOutput {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "vbx-perfbench-det-{}-{tag}-{}",
        workload.name(),
        std::process::id()
    ));
    let out = run_smoke(workload, seed, true, &dir, 5, 4).expect("smoke run");
    assert_eq!(
        out.failed,
        0,
        "{}: smoke run failed checks",
        workload.name()
    );
    out
}

#[test]
fn same_seed_same_stream_and_counts() {
    for workload in Workload::ALL {
        let name = workload.name();
        let a = smoke(workload, 11, "a");
        let b = smoke(workload, 11, "b");
        assert_eq!(a.requests, b.requests, "{name}: request stream");
        assert_eq!(a.meters, b.meters, "{name}: client.*_ops");
        assert_eq!(
            a.resp_bytes_per_query, b.resp_bytes_per_query,
            "{name}: resp_bytes_per_query"
        );
        assert!(a.per_commit.signs > 0.0, "{name}: no signatures recorded");
        assert_eq!(
            a.per_commit, b.per_commit,
            "{name}: crypto.signs_per_commit, storage.fsyncs_per_commit, storage.wal_bytes_per_commit"
        );
    }
}

#[test]
fn different_seed_different_stream() {
    for workload in Workload::ALL {
        let a = smoke(workload, 11, "c");
        let b = smoke(workload, 12, "d");
        assert_ne!(
            a.requests,
            b.requests,
            "{}: seed did not change the stream",
            workload.name()
        );
    }
}
