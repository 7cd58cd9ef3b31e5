//! `vbx-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints every metric by name, unit and sample
//! count, then, as the last line of standard output, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics when `--trace 0`, the per-layer metrics when `--trace 1`.
//! A traced run also writes its spans to
//! `.bench_trace/<workload>-<seed>.jsonl`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use vbx_perfbench::report::{self, Metric};
use vbx_perfbench::run::{run, RunConfig};
use vbx_perfbench::trace;
use vbx_perfbench::workload::Workload;

/// Read p90 above which the fixed open-loop rate has reached capacity.
const QUERY_P90_LIMIT_MS: f64 = 25.0;
/// Commit p90 above which the writer can no longer keep its rate (one
/// commit interval at 20 commits/s).
const COMMIT_P90_LIMIT_MS: f64 = 50.0;
/// A run that has not finished by now is stuck: give up without a
/// result.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for m in metrics {
        let note = m
            .note
            .map(|n| format!("  (absent: {n})"))
            .unwrap_or_default();
        println!(
            "{:<34} {:>16.4} {:<9} n={}{note}",
            m.name, m.value, m.unit, m.n
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vbx-perfbench: {e}");
            eprintln!("usage: vbx-perfbench --workload <scan_uniform|point_hot|ingest_mixed> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("vbx-perfbench: run exceeded {WATCHDOG:?}; aborting");
        std::process::exit(3);
    });
    let work_dir = PathBuf::from(".bench_tmp");
    let cfg = RunConfig {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work_dir: work_dir.clone(),
    };
    let t0 = Instant::now();
    let out = match run(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("vbx-perfbench: {e}");
            let _ = std::fs::remove_dir_all(&work_dir);
            return ExitCode::from(1);
        }
    };
    let _ = std::fs::remove_dir(&work_dir);

    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# workload {} seed {} — {} s measured, trace {}, {cpus} CPUs available",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let setups: f64 = out.setups.iter().map(|s| s.total_s).sum();
    println!(
        "# run took {:.1} s, {setups:.1} s of it in {} set-ups",
        t0.elapsed().as_secs_f64(),
        out.setups.len()
    );
    for (check, ok) in &out.checks {
        println!("check {:<48} {}", check, if *ok { "ok" } else { "FAILED" });
    }
    let e2e = report::end_to_end(&out);
    print_table("end-to-end", &e2e);
    let p50s: Vec<String> = report::query_rounds(&out, 0.5)
        .iter()
        .map(|v| format!("{v:.3}"))
        .collect();
    println!("open-loop p50 ms per round: {}", p50s.join(" "));
    // The limits only flag a rate the machine can no longer carry; they
    // never count as failures.
    let (query_p90, commit_p90) = report::p90s(&out);
    for (name, value, limit) in [
        ("query p90", query_p90, QUERY_P90_LIMIT_MS),
        ("commit p90", commit_p90, COMMIT_P90_LIMIT_MS),
    ] {
        let verdict = if value <= limit {
            "within"
        } else {
            "AT CAPACITY: above"
        };
        println!("limit {name} {value:.3} ms {verdict} {limit} ms");
    }
    let shown = if args.trace {
        let layers = report::per_layer(&out);
        print_table("per-layer", &layers);
        let path =
            Path::new(".bench_trace").join(format!("{}-{}.jsonl", args.workload.name(), args.seed));
        match trace::write_jsonl(&path, &out.spans) {
            Ok(()) => println!("# {} spans written to {}", out.spans.len(), path.display()),
            Err(e) => eprintln!("vbx-perfbench: writing spans: {e}"),
        }
        layers
    } else {
        e2e
    };
    let (attempted, failed) = report::counts(&out);
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        json_metrics(&shown)
    );
    ExitCode::SUCCESS
}
