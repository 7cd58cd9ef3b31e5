//! The traced run measures the same program: a smoke run with every
//! seam wrapped and spans recording, and one without, give
//! byte-identical responses, identical WAL and checkpoint files, and
//! identical cost-meter counts.

use std::path::PathBuf;
use vbx_perfbench::smoke::run_smoke;
use vbx_perfbench::workload::Workload;

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vbx-perfbench-{name}-{}", std::process::id()))
}

#[test]
fn wrapped_and_unwrapped_runs_are_identical() {
    for workload in Workload::ALL {
        let name = workload.name();
        let plain = run_smoke(workload, 7, false, &scratch(&format!("{name}-plain")), 6, 4)
            .expect("unwrapped smoke run");
        let wrapped = run_smoke(
            workload,
            7,
            true,
            &scratch(&format!("{name}-wrapped")),
            6,
            4,
        )
        .expect("wrapped smoke run");
        assert_eq!(plain.failed, 0, "{name}: unwrapped run failed checks");
        assert_eq!(wrapped.failed, 0, "{name}: wrapped run failed checks");
        assert_eq!(
            plain.requests, wrapped.requests,
            "{name}: request streams differ"
        );
        assert!(
            plain.responses == wrapped.responses,
            "{name}: response bytes differ"
        );
        assert_eq!(
            plain.meters, wrapped.meters,
            "{name}: cost-meter counts differ"
        );
        assert_eq!(
            plain.files.keys().collect::<Vec<_>>(),
            wrapped.files.keys().collect::<Vec<_>>(),
            "{name}: WAL directory listings differ"
        );
        for (file, bytes) in &plain.files {
            assert!(
                wrapped.files[file] == *bytes,
                "{name}: {file} differs between wrapped and unwrapped runs"
            );
        }
        // The wrapped run recorded spans, as a traced run does, and the
        // unwrapped one none.
        assert!(
            plain.spans.is_empty(),
            "{name}: unwrapped run recorded spans"
        );
        let seen = |span: &str| wrapped.spans.iter().filter(|s| s.name == span).count();
        for span in [
            "net.call",
            "client.decode",
            "client.verify",
            "client.sigverify",
            "edge.query",
            "edge.apply_batch",
            "central.commit_batch",
            "crypto.sign",
            "storage.append",
            "storage.fsync",
        ] {
            assert!(seen(span) > 0, "{name}: no {span} span recorded");
        }
        // Server-side spans joined the client's requests, and the
        // client's aggregate check timed its absorbs.
        assert!(
            wrapped
                .spans
                .iter()
                .filter(|s| s.name == "edge.query")
                .all(|s| s.req != 0 && s.parent != 0),
            "{name}: an edge span did not join its request"
        );
        assert!(
            wrapped
                .spans
                .iter()
                .any(|s| s.name == "client.sigverify" && s.aux > 0),
            "{name}: no absorb time on the aggregate check"
        );
        assert!(
            wrapped.per_commit.fsyncs >= 1.0,
            "{name}: no fsync per commit recorded"
        );
    }
}
