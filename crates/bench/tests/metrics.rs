//! Metrics-plane determinism and cross-check tests (§ Observability).
//!
//! The `--metrics` dump rides the tracer's merged event stream, so it
//! is part of the deterministic surface: JSONL and OpenMetrics bytes
//! must be identical whatever `--jobs` or `--shards` is, and the GC
//! pause accounting must agree exactly with the profiler's GC vtime
//! and the tracer's GC span durations — three instruments, one number.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use apps::hyracks_apps::wc;
use itask_bench::tracefmt::{self, Json};
use itask_bench::{chaos, metricsfmt};
use simcore::metrics::{self, MetricOp};
use simcore::tracer::{self, Event, TraceData};
use simcore::SimDuration;

/// One metered run's artifacts.
struct Artifacts {
    jsonl: Vec<u8>,
    om: Vec<u8>,
    trace_jsonl: Vec<u8>,
    sweeps: String,
}

/// Runs `bin args --metrics <scratch>/metrics.jsonl` (plus `--jobs`,
/// `--shards`, `--trace`, `--profile` as requested) and collects every
/// artifact it wrote.
fn metered_run(
    bin: &str,
    args: &[&str],
    jobs: usize,
    shards: usize,
    trace: bool,
    profile: bool,
    tag: &str,
) -> Artifacts {
    let scratch = std::env::temp_dir().join(format!(
        "itask-metrics-{}-{tag}-j{jobs}-s{shards}",
        std::process::id()
    ));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let metrics: PathBuf = scratch.join("metrics.jsonl");
    let trace_path: PathBuf = scratch.join("trace.json");
    let mut cmd = Command::new(bin);
    cmd.args(args)
        .arg("--jobs")
        .arg(jobs.to_string())
        .arg("--shards")
        .arg(shards.to_string())
        .arg("--metrics")
        .arg(&metrics)
        .env("ITASK_BENCH_RESULTS", &scratch);
    if trace {
        cmd.arg("--trace").arg(&trace_path);
    }
    if profile {
        cmd.arg("--profile");
    }
    let out = cmd
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?} --jobs {jobs} --shards {shards} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    Artifacts {
        jsonl: std::fs::read(&metrics).expect("metrics jsonl written"),
        om: std::fs::read(format!("{}.om", metrics.display())).expect("openmetrics twin written"),
        trace_jsonl: if trace {
            std::fs::read(format!("{}.jsonl", trace_path.display())).expect("trace jsonl written")
        } else {
            Vec::new()
        },
        sweeps: std::fs::read_to_string(scratch.join("BENCH_sweeps.json")).unwrap_or_default(),
    }
}

/// The dump must be byte-identical at `--jobs 1` vs `--jobs 4` and at
/// `--shards 1` vs `--shards 4`.
fn assert_metrics_invariant(bin: &str, args: &[&str], tag: &str) {
    let base = metered_run(bin, args, 1, 1, false, false, tag);
    assert!(!base.jsonl.is_empty(), "{tag}: metrics dump is empty");
    let jobs4 = metered_run(bin, args, 4, 1, false, false, tag);
    assert!(
        base.jsonl == jobs4.jsonl,
        "{tag}: metrics jsonl differs between --jobs 1 and --jobs 4"
    );
    assert!(
        base.om == jobs4.om,
        "{tag}: openmetrics snapshot differs between --jobs 1 and --jobs 4"
    );
    let shards4 = metered_run(bin, args, 1, 4, false, false, tag);
    assert!(
        base.jsonl == shards4.jsonl,
        "{tag}: metrics jsonl differs between --shards 1 and --shards 4"
    );
    assert!(
        base.om == shards4.om,
        "{tag}: openmetrics snapshot differs between --shards 1 and --shards 4"
    );
}

#[test]
fn metrics_invariant_faults_wc() {
    assert_metrics_invariant(env!("CARGO_BIN_EXE_faults"), &["--wc-only"], "faults");
}

#[test]
fn metrics_invariant_service_quick() {
    assert_metrics_invariant(env!("CARGO_BIN_EXE_service"), &["--quick"], "service");
}

#[test]
fn metrics_invariant_smr_quick() {
    assert_metrics_invariant(env!("CARGO_BIN_EXE_smr"), &["--quick"], "smr");
}

#[test]
fn metrics_invariant_table5_quick_wc() {
    // Minutes in debug; the CI golden job runs tests with --release.
    if cfg!(debug_assertions) {
        eprintln!("skipping table5 metrics determinism in debug mode");
        return;
    }
    assert_metrics_invariant(env!("CARGO_BIN_EXE_table5"), &["--quick", "wc"], "table5");
}

/// The dump parses, covers the layers the binary exercises, and its
/// OpenMetrics twin ends with the spec's `# EOF` terminator.
#[test]
fn metrics_dump_schema_and_coverage() {
    let a = metered_run(
        env!("CARGO_BIN_EXE_service"),
        &["--quick"],
        2,
        1,
        false,
        false,
        "schema",
    );
    let runs = metricsfmt::load_jsonl(std::str::from_utf8(&a.jsonl).unwrap())
        .expect("metrics jsonl loads");
    assert!(!runs.is_empty());
    let mut names = std::collections::BTreeSet::new();
    for run in &runs {
        assert!(run.cadence_ns > 0);
        for p in &run.points {
            assert_eq!(p.ts % run.cadence_ns, 0, "point off the cadence grid");
            names.insert(p.metric.clone());
        }
        for h in &run.hists {
            names.insert(h.metric.clone());
        }
    }
    // The service bench exercises memory, IRS, scheduler, admission and
    // completion accounting in one sweep.
    for want in [
        "mem.live_bytes",
        "mem.gc_count",
        "sched.runnable",
        "serve.queue_depth",
        "serve.admitted",
        "serve.completed",
        "serve.latency_ns",
    ] {
        assert!(names.contains(want), "missing {want} in {names:?}");
    }
    let om = std::str::from_utf8(&a.om).unwrap();
    assert!(om.contains("# TYPE serve_admitted counter"), "om families");
    assert!(om.ends_with("# EOF\n"), "om terminator");
}

/// Three instruments, one number: the summed `mem.gc_pause_ns` finals,
/// the profiler's GC vtime, and the summed durations of traced GC
/// spans must agree exactly on the same metered sweep.
#[test]
fn gc_pause_metric_matches_profiler_and_trace() {
    let a = metered_run(
        env!("CARGO_BIN_EXE_faults"),
        &["--wc-only"],
        2,
        1,
        true,
        true,
        "crosscheck",
    );

    // Tracer: sum of GC span durations across all runs.
    let trace_runs = tracefmt::load_jsonl(std::str::from_utf8(&a.trace_jsonl).unwrap())
        .expect("trace jsonl loads");
    let trace_gc_ns: u64 = trace_runs
        .iter()
        .flat_map(|r| &r.events)
        .filter(|e| e.kind == "gc")
        .map(|e| e.dur)
        .sum();

    // Metrics: final cumulative gc_pause_ns per (run, node), summed.
    let metric_runs = metricsfmt::load_jsonl(std::str::from_utf8(&a.jsonl).unwrap())
        .expect("metrics jsonl loads");
    let metric_gc_ns: u64 = metric_runs
        .iter()
        .map(|r| {
            let mut finals = std::collections::BTreeMap::new();
            for p in &r.points {
                if p.metric == "mem.gc_pause_ns" {
                    finals.insert(p.node, p.value as u64);
                }
            }
            finals.values().sum::<u64>()
        })
        .sum();

    // Profiler: the gc stage's vtime in the sweeps sidecar.
    let sweeps = tracefmt::parse(&a.sweeps).expect("sweeps json parses");
    let prof_gc_ns = sweeps
        .get("binaries")
        .and_then(|b| b.get("faults"))
        .and_then(|f| f.get("profile"))
        .and_then(|p| p.get("gc"))
        .and_then(|g| g.get("vtime_ns"))
        .and_then(Json::as_u64)
        .expect("profile gc vtime in sweeps sidecar");

    assert!(trace_gc_ns > 0, "expected GC activity in the faults sweep");
    assert_eq!(
        metric_gc_ns, trace_gc_ns,
        "metrics gc_pause_ns vs traced GC span sum"
    );
    assert_eq!(
        prof_gc_ns, trace_gc_ns,
        "profiler gc vtime vs traced GC span sum"
    );
}

/// `--trace`, `--profile` and `--metrics` compose in one invocation:
/// every sink is written and the metrics bytes match a metrics-only
/// run (arming the tracer must not perturb the metrics fold).
#[test]
fn metrics_compose_with_trace_and_profile() {
    let solo = metered_run(
        env!("CARGO_BIN_EXE_service"),
        &["--quick"],
        2,
        1,
        false,
        false,
        "solo",
    );
    let all = metered_run(
        env!("CARGO_BIN_EXE_service"),
        &["--quick"],
        2,
        1,
        true,
        true,
        "composed",
    );
    assert!(
        !all.trace_jsonl.is_empty(),
        "trace written alongside metrics"
    );
    assert!(
        all.sweeps.contains("\"profile\""),
        "profile in sweeps sidecar"
    );
    assert!(
        solo.jsonl == all.jsonl,
        "metrics jsonl changed when the tracer/profiler were armed too"
    );
    assert!(solo.om == all.om, "openmetrics changed when co-armed");
    // The trace must carry no metric lines (they are split out into the
    // metrics fold, not dumped as trace events).
    let runs = tracefmt::load_jsonl(std::str::from_utf8(&all.trace_jsonl).unwrap())
        .expect("trace jsonl loads");
    for run in &runs {
        assert!(
            run.events.iter().all(|e| e.kind != "metric"),
            "{}: metric events leaked into the trace dump",
            run.label
        );
    }
}

/// Runs `job` under a fresh tracer buffer and returns its harvest.
fn harvest<T>(job: impl FnOnce() -> T) -> (T, Vec<Event>) {
    tracer::begin_run();
    let out = job();
    (out, tracer::take_run().expect("metrics arm the run buffer"))
}

/// Cost bound: replaying the metered `faults --wc-only` sweep
/// in-process, no two harvested counter/gauge events of one run share
/// `(stream, node, metric, cadence cell)`. The harvest is O(cells), not
/// O(updates): the shuffle's per-transfer `net.*` updates never reach
/// it one by one.
#[test]
fn metered_faults_wc_harvests_one_event_per_cell() {
    metrics::enable();
    let (reg, reg_events) = harvest(|| wc::run_regular(chaos::SIZE, &chaos::params()));
    let (it, it_events) = harvest(|| wc::run_itask(chaos::SIZE, &chaos::params()));
    let mut runs = vec![
        ("clean reg".to_string(), reg_events),
        ("clean itask".to_string(), it_events),
    ];
    let mid = SimDuration::from_nanos(it.report.elapsed.min(reg.report.elapsed).as_nanos() / 2);
    for (label, plan) in chaos::schedules(mid) {
        let mut p = chaos::params();
        p.fault_plan = Some(plan);
        runs.push((
            format!("{label} reg"),
            harvest(|| wc::run_regular(chaos::SIZE, &p)).1,
        ));
        runs.push((
            format!("{label} itask"),
            harvest(|| wc::run_itask(chaos::SIZE, &p)).1,
        ));
    }
    metrics::disable();

    let cadence = metrics::cadence_ns();
    let mut cells = 0;
    for (label, events) in &runs {
        let mut seen = BTreeSet::new();
        for e in events {
            let TraceData::Metric { metric, op } = e.data else {
                continue;
            };
            if matches!(op, MetricOp::Observe(_)) {
                continue;
            }
            let key = (e.id.0 >> 32, e.node, metric, e.at.as_nanos() / cadence);
            assert!(
                seen.insert(key),
                "{label}: two harvested events for (stream, node, metric, cell) {key:?}"
            );
        }
        cells += seen.len();
    }
    assert!(cells > 0, "the metered sweep harvested no metric events");
}
