//! The repository benchmark.
//!
//! One run executes one workload for a fixed host-time budget as
//! repeated *passes* over the inputs generated from the run's seed, and
//! reports medians over the passes. An untraced run reports the
//! end-to-end metrics; a traced run records spans around every call into
//! a layer and reports per-layer self times and counts. See README.md
//! for the workloads and the metric definitions.

mod host;
mod spans;
mod suite;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use spans::Spans;
pub use suite::Workload;
use suite::{run_pass, Mode, Pass};

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics (traced runs): name and unit. A layer a workload
/// does not exercise reports 0. `vsec_per_s` leads the list: it is a
/// whole-run figure, but the slowest simulated job sets it on
/// wc-pressure and serve-flood, so it moves with the seed far more than
/// any end-to-end bound allows.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("vsec_per_s", "sim_s/s"),
    ("workloads.gen_s", "s"),
    ("workloads.records", "count"),
    ("simcluster.build_s", "s"),
    ("hyracks.run_s", "s"),
    ("hyracks.map_tuples", "count"),
    ("hyracks.shuffle_bytes", "bytes"),
    ("hyracks.tuples_per_s", "1/s"),
    ("simmem.minor_gcs", "count"),
    ("simmem.full_gcs", "count"),
    ("simmem.useless_gcs", "count"),
    ("simmem.gc_vtime_ms", "sim_ms"),
    ("simmem.useful_gc_ratio", "ratio"),
    ("simmem.peak_heap_mb", "MiB"),
    ("irs.interrupts", "count"),
    ("irs.serializations", "count"),
    ("irs.deserializations", "count"),
    ("irs.serialized_mb", "MiB"),
    ("irs.deflations", "count"),
    ("simstore.io_stall_ms", "sim_ms"),
    ("simnet.bytes", "bytes"),
    ("simcore.metric_events", "count"),
    ("simcore.fold_s", "s"),
    ("simcore.metrics_overhead_ratio", "ratio"),
    ("simserve.run_s", "s"),
    ("simserve.arrivals", "count"),
    ("simserve.shed", "count"),
    ("simserve.completed", "count"),
    ("simserve.admit_ratio", "ratio"),
    ("simserve.peak_queued", "count"),
    ("simserve.arrival_us", "us"),
    ("simsmr.run_s", "s"),
    ("simsmr.commits", "count"),
    ("simsmr.view_changes", "count"),
    ("simsmr.commit_us", "us"),
    ("simcluster.rounds", "count"),
    ("simcluster.quanta", "count"),
    ("simcluster.shard_overhead_ratio", "ratio"),
    ("apps.verify_s", "s"),
    ("unattributed_s", "s"),
    ("traced_wall_s", "s"),
    ("trace_overhead_s", "s"),
];

/// The spans the benchmark records around its calls into the layers;
/// each layer's self time is reported as `<span>_s`.
const LAYER_SPANS: [&str; 7] = [
    "workloads.gen",
    "simcluster.build",
    "hyracks.run",
    "simserve.run",
    "simsmr.run",
    "simcore.fold",
    "apps.verify",
];

/// One run's options.
#[derive(Clone, Debug)]
pub struct Opts {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Host seconds to keep starting passes (or rounds, when traced).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Passes (rounds) run even when `seconds` is already spent.
    pub min_passes: usize,
    /// Corrupt the first output of every pass before its check; the
    /// benchmark's own tests use it to prove the checks can fail.
    pub inject_fault: bool,
}

/// A run's result.
#[derive(Debug)]
pub struct Report {
    /// Simulations whose outputs were checked.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Recorded spans as JSON lines (traced runs).
    pub spans_jsonl: Option<String>,
}

impl Report {
    /// Failed checks over attempted ones.
    pub fn fail_ratio(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// A metric's value.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The one-line result object.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Runs one workload as `opts` says.
pub fn measure(opts: &Opts) -> Report {
    let host = host::Host::probe();
    let mut report = if opts.trace {
        traced(opts)
    } else {
        untraced(opts)
    };
    report.notes.insert(
        0,
        format!(
            "perfbench {} seed={} trace={} fail_ratio={} ({}/{})",
            opts.workload.name(),
            opts.seed,
            u8::from(opts.trace),
            report.fail_ratio(),
            report.failed,
            report.attempted
        ),
    );
    report.notes.insert(1, format!("host: {}", host.line()));
    report
}

/// Calls `round` at least `min_passes` times, then until `seconds` passed.
fn repeat(opts: &Opts, mut round: impl FnMut()) {
    let t0 = Instant::now();
    let mut n = 0;
    while n < opts.min_passes || t0.elapsed().as_secs_f64() < opts.seconds {
        round();
        n += 1;
    }
}

fn untraced(opts: &Opts) -> Report {
    let mut sp = Spans::new(false);
    let mut passes = Vec::new();
    repeat(opts, || {
        passes.push(run_pass(
            opts.workload,
            opts.seed,
            Mode::Standard,
            &mut sp,
            opts.inject_fault,
        ))
    });
    let wall = median(passes.iter().map(|p| p.wall_s));
    let setup = median(passes.iter().map(|p| p.setup_s));
    let rss = host::peak_rss_mb().unwrap_or(0.0);
    let values = [wall, setup, rss];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect();
    let walls: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
    let notes = vec![
        format!(
            "{} passes; medians over passes, peak_rss_mb over the run",
            passes.len()
        ),
        format!("pass walls (s): {}", walls.join(" ")),
        format!(
            "vsec_per_s {} sim_s/s (simulated seconds per pass {})",
            sim_speed(&passes),
            passes[0].vsecs
        ),
    ];
    Report {
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
        metrics,
        notes,
        spans_jsonl: None,
    }
}

/// Traced run: rounds of an untraced pass, a traced pass and (where the
/// workload has one) a reference pass, then one probe pass for the
/// counts only the instruments expose.
fn traced(opts: &Opts) -> Report {
    let w = opts.workload;
    let mut sp = Spans::new(false);
    let (mut plain, mut traced, mut reference) = (Vec::new(), Vec::new(), Vec::new());
    repeat(opts, || {
        let mut pass = |mode, on| {
            sp.set_on(on);
            let p = run_pass(w, opts.seed, mode, &mut sp, opts.inject_fault);
            sp.set_on(false);
            p
        };
        plain.push(pass(Mode::Standard, false));
        traced.push(pass(Mode::Standard, true));
        if w.has_reference() {
            reference.push(pass(Mode::Reference, false));
        }
    });
    let probe = run_pass(w, opts.seed, Mode::Probe, &mut sp, opts.inject_fault);

    // The traced pass with the median wall supplies the breakdown, so
    // its layer self times and the remainder sum to its wall exactly.
    let mut order: Vec<usize> = (0..traced.len()).collect();
    order.sort_by(|&a, &b| traced[a].wall_s.total_cmp(&traced[b].wall_s));
    let root = traced[order[order.len() / 2]]
        .root
        .expect("traced pass has a root span");
    let self_times = sp.self_times(root);
    let layer_sum: f64 = self_times.values().sum();
    let traced_wall = sp.duration_s(root);

    let mut v: BTreeMap<&'static str, f64> = probe.counts.clone();
    for span in LAYER_SPANS {
        let t = self_times.get(span).copied().unwrap_or(0.0);
        v.insert(layer_metric(span), t);
    }
    v.insert(
        "unattributed_s",
        self_times.get("pass").copied().unwrap_or(0.0),
    );
    v.insert("traced_wall_s", traced_wall);
    v.insert("vsec_per_s", sim_speed(&plain));
    let plain_wall = median(plain.iter().map(|p| p.wall_s));
    let traced_median = median(traced.iter().map(|p| p.wall_s));
    v.insert("trace_overhead_s", traced_median - plain_wall);
    let reference_wall = median(reference.iter().map(|p| p.wall_s));
    match w {
        Workload::WcPressure => v.insert(
            "simcore.metrics_overhead_ratio",
            ratio(plain_wall, reference_wall),
        ),
        Workload::SmrShards1 => v.insert(
            "simcluster.shard_overhead_ratio",
            ratio(reference_wall, plain_wall),
        ),
        _ => None,
    };
    let get = |v: &BTreeMap<_, f64>, k: &str| v.get(k).copied().unwrap_or(0.0);
    let gcs = get(&v, "simmem.minor_gcs") + get(&v, "simmem.full_gcs");
    let useless = get(&v, "simmem.useless_gcs");
    let derived = [
        (
            "hyracks.tuples_per_s",
            ratio(get(&v, "hyracks.map_tuples"), get(&v, "hyracks.run_s")),
        ),
        ("simmem.useful_gc_ratio", ratio(gcs - useless, gcs)),
        (
            "simserve.admit_ratio",
            ratio(get(&v, "simserve.admitted"), get(&v, "simserve.arrivals")),
        ),
        (
            "simserve.arrival_us",
            1e6 * ratio(get(&v, "simserve.run_s"), get(&v, "simserve.arrivals")),
        ),
        (
            "simsmr.commit_us",
            1e6 * ratio(get(&v, "simsmr.run_s"), get(&v, "simsmr.commits")),
        ),
    ];
    v.extend(derived);
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, get(&v, name), unit))
        .collect();

    let all: Vec<&Pass> = plain
        .iter()
        .chain(&traced)
        .chain(&reference)
        .chain([&probe])
        .collect();
    let mut attempted: u64 = all.iter().map(|p| p.attempted).sum();
    let mut failed: u64 = all.iter().map(|p| p.failed).sum();
    // Every pass of one seed must read the same counts from the layers'
    // return values as the probe pass did.
    let repeat_ok = all
        .iter()
        .all(|p| p.counts.iter().all(|(k, x)| probe.counts.get(k) == Some(x)));
    attempted += 1;
    failed += u64::from(!repeat_ok);

    let notes = vec![
        format!(
            "{} rounds (untraced, traced{} pass); breakdown from the median traced pass",
            traced.len(),
            if w.has_reference() { ", reference" } else { "" }
        ),
        format!(
            "layer self times + unattributed = {layer_sum:.6} s; traced wall = {traced_wall:.6} s"
        ),
        format!(
            "tracing overhead: traced {traced_median:.4} s - untraced {plain_wall:.4} s = {:+.4} s ({:+.2}%)",
            traced_median - plain_wall,
            100.0 * ratio(traced_median - plain_wall, plain_wall)
        ),
        format!(
            "overhead ratios: simcore.metrics_overhead_ratio={} simcluster.shard_overhead_ratio={}",
            get(&v, "simcore.metrics_overhead_ratio"),
            get(&v, "simcluster.shard_overhead_ratio")
        ),
        format!(
            "per-layer counts repeat across passes: {}",
            if repeat_ok { "yes" } else { "NO" }
        ),
    ];
    Report {
        attempted,
        failed,
        metrics,
        notes,
        spans_jsonl: Some(sp.to_jsonl()),
    }
}

/// Simulation speed: summed simulated seconds of a pass over its host
/// seconds without setup, median over passes.
fn sim_speed(passes: &[Pass]) -> f64 {
    median(passes.iter().map(|p| ratio(p.vsecs, p.wall_s - p.setup_s)))
}

/// `hyracks.run` → `hyracks.run_s`.
fn layer_metric(span: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|m| m.0)
        .find(|m| m.strip_suffix("_s") == Some(span))
        .expect("every layer span has a per-layer metric")
}

/// Median of the values (0 for none).
fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is not positive.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}
