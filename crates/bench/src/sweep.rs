//! Parallel sweep executor for the table/figure binaries.
//!
//! Every harness binary runs a sweep of independent deterministic
//! simulations. Each simulation is a self-contained single-threaded
//! virtual-time world, so whole runs can fan out across OS threads
//! without perturbing results: workers compute raw run data, and the
//! caller assembles rows in the original spec order, keeping the
//! printed tables byte-identical to a serial run.
//!
//! The executor also captures per-run wall-clock time and, via
//! [`SweepLog`], emits a machine-readable `BENCH_sweeps.json` next to
//! the text artifacts so perf changes are visible run over run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use simcore::{metrics, prof, tracer};

/// One schedulable unit of a sweep: a label (for progress lines and
/// `BENCH_sweeps.json`) and a closure that runs one simulation.
///
/// The lifetime lets jobs borrow from the caller's stack (configs,
/// labels): the pool runs under [`std::thread::scope`], so borrows
/// outlive every worker.
pub struct RunSpec<'a, R> {
    /// Human-readable run id, e.g. `"table5 wc 72GB t4 g32KiB"`.
    pub label: String,
    /// The run itself. Builds its own world; returns plain data.
    pub job: Box<dyn FnOnce() -> R + Send + 'a>,
}

/// Builds a [`RunSpec`] from a label and closure.
pub fn spec<'a, R>(
    label: impl Into<String>,
    job: impl FnOnce() -> R + Send + 'a,
) -> RunSpec<'a, R> {
    RunSpec {
        label: label.into(),
        job: Box::new(job),
    }
}

/// The result of one run, in the same position as its spec.
pub struct RunOutcome<R> {
    /// The spec's label.
    pub label: String,
    /// What the job returned.
    pub result: R,
    /// Host wall-clock time for this run, in milliseconds.
    pub wall_ms: u64,
    /// The run's harvested trace events, when `--trace` armed the
    /// tracer (merged in deterministic `(time, node, seq)` order).
    pub trace: Option<tracer::RunTrace>,
    /// The run's folded metrics, when `--metrics` armed the registry
    /// (sampled on the virtual-time cadence grid, `(time, node,
    /// metric)` order).
    pub metrics: Option<metrics::RunMetrics>,
}

/// Resolves a `--jobs` value: `0` means "all available cores".
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs > 0 {
        jobs
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Default worker count from an `ITASK_BENCH_JOBS` environment value
/// (CI and local sweeps set it once instead of hard-coding `--jobs` per
/// invocation). `None`, empty, or unparsable values fall back to `0`
/// (auto) — with a stderr warning when a value was present but bad.
pub fn env_jobs_default(val: Option<&str>) -> usize {
    match val {
        None => 0,
        Some(v) if v.trim().is_empty() => 0,
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("ignoring invalid ITASK_BENCH_JOBS value: {v}");
                0
            }
        },
    }
}

/// Extracts `--jobs N` / `--jobs=N` from an argument list (mutating
/// it), returning the requested worker count (`0` = auto). With no flag
/// present, falls back to the `ITASK_BENCH_JOBS` environment variable.
/// Exits with an error message on a malformed flag value.
pub fn take_jobs_flag(args: &mut Vec<String>) -> usize {
    let mut jobs = env_jobs_default(std::env::var("ITASK_BENCH_JOBS").ok().as_deref());
    let mut i = 0;
    while i < args.len() {
        let (hit, value) = if args[i] == "--jobs" {
            if i + 1 >= args.len() {
                eprintln!("--jobs requires a value");
                std::process::exit(2);
            }
            let v = args.remove(i + 1);
            args.remove(i);
            (true, v)
        } else if let Some(v) = args[i].strip_prefix("--jobs=") {
            let v = v.to_string();
            args.remove(i);
            (true, v)
        } else {
            (false, String::new())
        };
        if hit {
            match value.parse::<usize>() {
                Ok(n) if n > 0 => jobs = n,
                _ => {
                    eprintln!("invalid --jobs value: {value}");
                    std::process::exit(2);
                }
            }
        } else {
            i += 1;
        }
    }
    jobs
}

/// Default shard count from an `ITASK_BENCH_SHARDS` environment value
/// (1 = serial). `None`, empty, zero, or unparsable values fall back to
/// `1` — with a stderr warning when a value was present but bad.
pub fn env_shards_default(val: Option<&str>) -> usize {
    match val {
        None => 1,
        Some(v) if v.trim().is_empty() => 1,
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("ignoring invalid ITASK_BENCH_SHARDS value: {v}");
                1
            }
        },
    }
}

/// Extracts `--shards N` / `--shards=N` from an argument list (mutating
/// it) and installs the count as the process-wide default via
/// [`simcluster::set_shards`]. With no flag present, falls back to the
/// `ITASK_BENCH_SHARDS` environment variable (default 1 = serial).
/// Exits with an error message on a malformed flag value.
///
/// Shards split the *cluster engine* — node simulators advance in
/// lockstep rounds across a fixed worker pool — and are orthogonal to
/// `--jobs` (which parallelizes whole sweep configurations). Stdout,
/// traces, and profiler counters are byte-identical at any shard
/// count.
pub fn take_shards_flag(args: &mut Vec<String>) -> usize {
    let mut shards = env_shards_default(std::env::var("ITASK_BENCH_SHARDS").ok().as_deref());
    let mut i = 0;
    while i < args.len() {
        let (hit, value) = if args[i] == "--shards" {
            if i + 1 >= args.len() {
                eprintln!("--shards requires a value");
                std::process::exit(2);
            }
            let v = args.remove(i + 1);
            args.remove(i);
            (true, v)
        } else if let Some(v) = args[i].strip_prefix("--shards=") {
            let v = v.to_string();
            args.remove(i);
            (true, v)
        } else {
            (false, String::new())
        };
        if hit {
            match value.parse::<usize>() {
                Ok(n) if n > 0 => shards = n,
                _ => {
                    eprintln!("invalid --shards value: {value}");
                    std::process::exit(2);
                }
            }
        } else {
            i += 1;
        }
    }
    simcluster::set_shards(shards);
    shards
}

/// Extracts `--profile` from an argument list (mutating it). When the
/// flag is present, resets and arms the in-simulator profiler including
/// its wall-clock sidecar; [`SweepLog::finish`] then embeds the
/// per-stage breakdown in the binary's JSON sidecar (merged into
/// `BENCH_sweeps.json`) and writes a human-readable
/// `<dir>/sweeps/<bin>.profile.txt`.
///
/// Stdout is untouched: the deterministic tables stay byte-identical
/// with and without `--profile`.
pub fn take_profile_flag(args: &mut Vec<String>) -> bool {
    let mut on = false;
    args.retain(|a| {
        if a == "--profile" {
            on = true;
            false
        } else {
            true
        }
    });
    if on {
        prof::reset();
        prof::enable(true);
    }
    on
}

/// Extracts `--trace <path>` / `--trace=<path>` from an argument list
/// (mutating it). When present, arms the global [`tracer`]; the
/// executor then buffers each run's events and [`SweepLog::finish`]
/// writes Chrome trace-event JSON to `<path>` plus a compact JSONL twin
/// to `<path>.jsonl` (the format `tracectl` consumes).
///
/// Stdout is untouched: the deterministic tables stay byte-identical
/// with and without `--trace`, and the trace files themselves are
/// byte-identical at any `--jobs`.
pub fn take_trace_flag(args: &mut Vec<String>) -> Option<String> {
    let mut path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--trace" {
            if i + 1 >= args.len() {
                eprintln!("--trace requires a path");
                std::process::exit(2);
            }
            let v = args.remove(i + 1);
            args.remove(i);
            path = Some(v);
        } else if let Some(v) = args[i].strip_prefix("--trace=") {
            let v = v.to_string();
            args.remove(i);
            path = Some(v);
        } else {
            i += 1;
        }
    }
    if path.is_some() {
        tracer::enable();
    }
    path
}

/// Extracts `--metrics <path>` / `--metrics=<path>` and the optional
/// `--metrics-cadence-ms N` / `--metrics-cadence-ms=N` from an argument
/// list (mutating it). When a path is present, arms the global
/// [`metrics`] registry (and installs the cadence if one was given);
/// the executor then folds each run's metric stream on its worker and
/// [`SweepLog::finish`] writes JSONL samples to `<path>` plus an
/// OpenMetrics-style final snapshot to `<path>.om`.
///
/// Stdout is untouched: the deterministic tables stay byte-identical
/// with and without `--metrics`, and the dumps themselves are
/// byte-identical at any `--jobs` or `--shards`.
pub fn take_metrics_flag(args: &mut Vec<String>) -> Option<String> {
    let mut path: Option<String> = None;
    let mut cadence_ms: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--metrics" {
            if i + 1 >= args.len() {
                eprintln!("--metrics requires a path");
                std::process::exit(2);
            }
            let v = args.remove(i + 1);
            args.remove(i);
            path = Some(v);
        } else if let Some(v) = args[i].strip_prefix("--metrics=") {
            let v = v.to_string();
            args.remove(i);
            path = Some(v);
        } else if args[i] == "--metrics-cadence-ms" || args[i].starts_with("--metrics-cadence-ms=")
        {
            let value = if args[i] == "--metrics-cadence-ms" {
                if i + 1 >= args.len() {
                    eprintln!("--metrics-cadence-ms requires a value");
                    std::process::exit(2);
                }
                let v = args.remove(i + 1);
                args.remove(i);
                v
            } else {
                let v = args[i]["--metrics-cadence-ms=".len()..].to_string();
                args.remove(i);
                v
            };
            match value.parse::<u64>() {
                Ok(n) if n > 0 => cadence_ms = Some(n),
                _ => {
                    eprintln!("invalid --metrics-cadence-ms value: {value}");
                    std::process::exit(2);
                }
            }
        } else {
            i += 1;
        }
    }
    if path.is_some() {
        if let Some(ms) = cadence_ms {
            metrics::set_cadence_ns(ms.saturating_mul(1_000_000));
        }
        metrics::enable();
    }
    path
}

/// The shared flag surface of every bench binary, parsed in one call.
///
/// [`harness`] consumes the common flags — `--jobs`, `--shards`,
/// `--profile`, `--trace`, `--metrics`, `--metrics-cadence-ms` — with
/// identical semantics everywhere (arming the profiler, tracer, and
/// metrics registry as a side effect, exactly like the individual
/// `take_*_flag` helpers). Binary-specific boolean flags come off with
/// [`Harness::flag`]; whatever remains is positional. [`Harness::log`]
/// then builds a [`SweepLog`] with the trace and metrics sinks already
/// attached, so `--trace`, `--profile`, and `--metrics` compose on
/// every binary without per-binary plumbing.
pub struct Harness {
    /// Arguments left after the common flags were consumed.
    pub args: Vec<String>,
    /// Resolved `--jobs` (0 = auto).
    pub jobs: usize,
    /// Resolved `--shards` (already installed process-wide).
    pub shards: usize,
    /// Whether `--profile` armed the profiler.
    pub profile: bool,
    /// The `--trace` path, if any (tracer already armed).
    pub trace: Option<String>,
    /// The `--metrics` path, if any (registry already armed).
    pub metrics: Option<String>,
}

/// Parses the process arguments into a [`Harness`].
pub fn harness() -> Harness {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    parse_harness(&mut args)
}

/// Flag-parsing core of [`harness`], testable on a plain argument list.
pub fn parse_harness(args: &mut Vec<String>) -> Harness {
    let jobs = take_jobs_flag(args);
    let shards = take_shards_flag(args);
    let profile = take_profile_flag(args);
    let trace = take_trace_flag(args);
    let metrics = take_metrics_flag(args);
    Harness {
        args: std::mem::take(args),
        jobs,
        shards,
        profile,
        trace,
        metrics,
    }
}

impl Harness {
    /// Consumes a binary-specific boolean flag (e.g. `--quick`),
    /// returning whether it was present.
    pub fn flag(&mut self, name: &str) -> bool {
        let before = self.args.len();
        self.args.retain(|a| a != name);
        self.args.len() != before
    }

    /// Builds the binary's [`SweepLog`] with the trace and metrics
    /// sinks attached. Call after any flags that pick the log name
    /// (e.g. `service` vs `service-scale`).
    pub fn log(&self, bin: &str) -> SweepLog {
        let mut log = SweepLog::new(bin, self.jobs);
        log.set_trace(self.trace.clone());
        log.set_metrics(self.metrics.clone());
        log
    }
}

/// Runs every spec on a fixed pool of `jobs` worker threads (`0` =
/// all available cores) and returns outcomes in spec order.
///
/// Workers claim specs through a shared atomic cursor, so a slow run
/// never blocks the queue; one stderr progress line is printed per
/// completed run (`[k/n] <label> <wall_ms>ms`). With `jobs = 1` the
/// specs execute sequentially in order, exactly like the old serial
/// harness.
pub fn run_all<'a, R: Send>(jobs: usize, specs: Vec<RunSpec<'a, R>>) -> Vec<RunOutcome<R>> {
    let n = specs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = effective_jobs(jobs).min(n);
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<RunSpec<'a, R>>>> =
        specs.into_iter().map(|s| Mutex::new(Some(s))).collect();
    let results: Vec<Mutex<Option<RunOutcome<R>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let spec = slots[i]
                    .lock()
                    .expect("sweep slot poisoned")
                    .take()
                    .expect("sweep spec claimed twice");
                let t0 = Instant::now();
                tracer::begin_run();
                let result = (spec.job)();
                let (trace, run_metrics) = split_harvest(tracer::take_run());
                let wall_ms = t0.elapsed().as_millis() as u64;
                let k = done.fetch_add(1, Ordering::Relaxed) + 1;
                eprintln!("[{k}/{n}] {} {wall_ms}ms", spec.label);
                *results[i].lock().expect("sweep result poisoned") = Some(RunOutcome {
                    label: spec.label,
                    result,
                    wall_ms,
                    trace,
                    metrics: run_metrics,
                });
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("sweep result poisoned")
                .expect("sweep worker died before storing a result")
        })
        .collect()
}

/// Splits one run's harvested event stream into its trace and metrics
/// views. Metric ops ride the tracer's buffers (that is what makes them
/// deterministic under sharding and speculation), so with both planes
/// armed the harvest interleaves them; each consumer only sees its own
/// events. The fold runs here — on the sweep worker — so `--jobs`
/// parallelism covers it.
fn split_harvest(
    harvest: Option<tracer::RunTrace>,
) -> (Option<tracer::RunTrace>, Option<metrics::RunMetrics>) {
    let Some(events) = harvest else {
        return (None, None);
    };
    let want_trace = tracer::is_enabled();
    if !metrics::is_enabled() {
        return (want_trace.then_some(events), None);
    }
    let (metric_events, trace_events): (Vec<_>, Vec<_>) = events
        .into_iter()
        .partition(|e| matches!(e.data, tracer::TraceData::Metric { .. }));
    let folded = metrics::fold(&metric_events, metrics::cadence_ns());
    (want_trace.then_some(trace_events), Some(folded))
}

/// Per-binary wall-clock log, persisted as JSON.
///
/// Each binary appends every completed run, then [`SweepLog::finish`]
/// writes a per-binary sidecar (`<dir>/sweeps/<bin>.json`) and
/// regenerates the merged `<dir>/BENCH_sweeps.json` from all sidecars
/// present, so concurrent binaries never clobber each other's rows.
/// `<dir>` is `bench_results`, overridable via `ITASK_BENCH_RESULTS`.
pub struct SweepLog {
    bin: String,
    jobs: usize,
    runs: Vec<(String, u64)>,
    started: Instant,
    trace_path: Option<String>,
    stream: Option<TraceStream>,
    metrics_path: Option<String>,
    mstream: Option<MetricsStream>,
}

/// Incremental trace writer: each absorbed run is rendered, appended to
/// both files, and flushed immediately, so the log never holds more
/// than one run's events beyond the executor's own buffers — a sweep of
/// hundreds of traced runs streams to disk instead of accumulating.
/// The Chrome array's comma state (`first`) lives here so the streamed
/// bytes are identical to a whole-buffer render.
struct TraceStream {
    chrome: std::io::BufWriter<std::fs::File>,
    jsonl: std::io::BufWriter<std::fs::File>,
    run: usize,
    first: bool,
}

impl TraceStream {
    fn open(path: &str) -> std::io::Result<Self> {
        use std::io::Write;
        let path = std::path::Path::new(path);
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut chrome = std::io::BufWriter::new(std::fs::File::create(path)?);
        chrome.write_all(tracer::CHROME_HEADER.as_bytes())?;
        let mut jsonl_path = path.as_os_str().to_owned();
        jsonl_path.push(".jsonl");
        let jsonl = std::io::BufWriter::new(std::fs::File::create(jsonl_path)?);
        Ok(TraceStream {
            chrome,
            jsonl,
            run: 0,
            first: true,
        })
    }

    fn append(&mut self, label: &str, events: &tracer::RunTrace) -> std::io::Result<()> {
        use std::io::Write;
        self.chrome
            .write_all(tracer::chrome_run(self.run, label, events, &mut self.first).as_bytes())?;
        self.jsonl
            .write_all(tracer::jsonl_run(self.run, label, events).as_bytes())?;
        self.run += 1;
        Ok(())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        use std::io::Write;
        self.chrome.flush()?;
        self.jsonl.flush()
    }

    fn close(mut self) -> std::io::Result<()> {
        use std::io::Write;
        self.chrome.write_all(tracer::CHROME_FOOTER.as_bytes())?;
        self.chrome.flush()?;
        self.jsonl.flush()
    }
}

/// Incremental metrics writer: sampled points stream to `<path>` as
/// JSONL per absorbed run; the folded runs are retained (they are tiny
/// next to the raw event stream) so [`MetricsStream::close`] can render
/// the OpenMetrics-style final snapshot to `<path>.om`.
struct MetricsStream {
    jsonl: std::io::BufWriter<std::fs::File>,
    om_path: std::ffi::OsString,
    runs: Vec<(String, metrics::RunMetrics)>,
}

impl MetricsStream {
    fn open(path: &str) -> std::io::Result<Self> {
        let path = std::path::Path::new(path);
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let jsonl = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut om_path = path.as_os_str().to_owned();
        om_path.push(".om");
        Ok(MetricsStream {
            jsonl,
            om_path,
            runs: Vec::new(),
        })
    }

    fn append(&mut self, label: &str, m: &metrics::RunMetrics) -> std::io::Result<()> {
        use std::io::Write;
        self.jsonl
            .write_all(metrics::jsonl_run(self.runs.len(), label, m).as_bytes())?;
        self.runs.push((label.to_string(), m.clone()));
        Ok(())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        use std::io::Write;
        self.jsonl.flush()
    }

    fn close(mut self) -> std::io::Result<()> {
        self.flush()?;
        std::fs::write(&self.om_path, metrics::openmetrics(&self.runs))
    }
}

impl SweepLog {
    /// Starts a log for one binary; `jobs` is the resolved worker count.
    pub fn new(bin: &str, jobs: usize) -> Self {
        SweepLog {
            bin: bin.to_string(),
            jobs: effective_jobs(jobs),
            runs: Vec::new(),
            started: Instant::now(),
            trace_path: None,
            stream: None,
            metrics_path: None,
            mstream: None,
        }
    }

    /// Arms trace export: each absorbed batch streams Chrome JSON to
    /// `path` and JSONL to `path.jsonl` (run index = batch order), and
    /// [`SweepLog::finish`] closes the files. Pass the value returned by
    /// [`take_trace_flag`].
    pub fn set_trace(&mut self, path: Option<String>) {
        self.trace_path = path;
    }

    /// Arms metrics export: each absorbed batch streams JSONL samples
    /// to `path` (run index = batch order) and [`SweepLog::finish`]
    /// writes the final OpenMetrics snapshot to `path.om`. Pass the
    /// value returned by [`take_metrics_flag`].
    pub fn set_metrics(&mut self, path: Option<String>) {
        self.metrics_path = path;
    }

    /// Records the wall-clock of every outcome in a batch, streaming
    /// any harvested traces straight to the trace files (flushed per
    /// batch — nothing is buffered across batches).
    pub fn absorb<R>(&mut self, outcomes: &[RunOutcome<R>]) {
        self.runs.reserve(outcomes.len());
        let mut wrote = false;
        let mut wrote_metrics = false;
        for o in outcomes {
            self.runs.push((o.label.clone(), o.wall_ms));
            if let Some(trace) = &o.trace {
                if let Err(e) = self.append_trace(&o.label, trace) {
                    eprintln!("[sweep] could not stream trace, disarming: {e}");
                    self.trace_path = None;
                    self.stream = None;
                }
                wrote = true;
            }
            if let Some(m) = &o.metrics {
                if let Err(e) = self.append_metrics(&o.label, m) {
                    eprintln!("[sweep] could not stream metrics, disarming: {e}");
                    self.metrics_path = None;
                    self.mstream = None;
                }
                wrote_metrics = true;
            }
        }
        if wrote {
            if let Some(stream) = &mut self.stream {
                if let Err(e) = stream.flush() {
                    eprintln!("[sweep] could not flush trace files: {e}");
                }
            }
        }
        if wrote_metrics {
            if let Some(stream) = &mut self.mstream {
                if let Err(e) = stream.flush() {
                    eprintln!("[sweep] could not flush metrics file: {e}");
                }
            }
        }
    }

    /// Appends one run to the trace files, opening them on first use.
    fn append_trace(&mut self, label: &str, trace: &tracer::RunTrace) -> std::io::Result<()> {
        if self.stream.is_none() {
            let Some(path) = &self.trace_path else {
                return Ok(());
            };
            self.stream = Some(TraceStream::open(path)?);
        }
        self.stream
            .as_mut()
            .expect("just opened")
            .append(label, trace)
    }

    /// Appends one run to the metrics files, opening them on first use.
    fn append_metrics(&mut self, label: &str, m: &metrics::RunMetrics) -> std::io::Result<()> {
        if self.mstream.is_none() {
            let Some(path) = &self.metrics_path else {
                return Ok(());
            };
            self.mstream = Some(MetricsStream::open(path)?);
        }
        self.mstream.as_mut().expect("just opened").append(label, m)
    }

    /// Records a single timed step that ran outside the executor.
    pub fn push(&mut self, label: impl Into<String>, wall_ms: u64) {
        self.runs.push((label.into(), wall_ms));
    }

    /// Writes the sidecar and re-merges `BENCH_sweeps.json`.
    ///
    /// IO failures are reported on stderr but never fail the binary:
    /// the tables themselves are the primary artifact.
    pub fn finish(mut self) {
        let total_ms = self.started.elapsed().as_millis() as u64;
        if let Err(e) = self.finish_traces() {
            eprintln!("[sweep] could not write trace files: {e}");
        }
        if let Err(e) = self.finish_metrics() {
            eprintln!("[sweep] could not write metrics files: {e}");
        }
        if let Err(e) = self.write(total_ms) {
            eprintln!("[sweep] could not write BENCH_sweeps.json: {e}");
        }
    }

    /// Closes the trace files (writing the Chrome footer). A traced
    /// sweep that harvested zero runs still produces valid empty files.
    fn finish_traces(&mut self) -> std::io::Result<()> {
        if self.stream.is_none() {
            if let Some(path) = &self.trace_path {
                self.stream = Some(TraceStream::open(path)?);
            }
        }
        match self.stream.take() {
            Some(stream) => stream.close(),
            None => Ok(()),
        }
    }

    /// Closes the metrics files (writing the `.om` snapshot). A metered
    /// sweep that harvested zero runs still produces valid empty files.
    fn finish_metrics(&mut self) -> std::io::Result<()> {
        if self.mstream.is_none() {
            if let Some(path) = &self.metrics_path {
                self.mstream = Some(MetricsStream::open(path)?);
            }
        }
        match self.mstream.take() {
            Some(stream) => stream.close(),
            None => Ok(()),
        }
    }

    fn write(&self, total_ms: u64) -> std::io::Result<()> {
        let dir = results_dir();
        let sweep_dir = dir.join("sweeps");
        std::fs::create_dir_all(&sweep_dir)?;
        // With `--profile` armed, embed the per-stage breakdown (the
        // deterministic counters plus the wall sidecar) and drop a
        // human-readable twin next to the JSON.
        let profile = prof::is_enabled().then(prof::snapshot);
        let mut body = String::new();
        body.push_str("{\n");
        body.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        body.push_str(&format!("  \"total_wall_ms\": {total_ms},\n"));
        if let Some(snap) = &profile {
            body.push_str(&format!("  \"profile\": {},\n", prof::to_json(snap)));
            std::fs::write(
                sweep_dir.join(format!("{}.profile.txt", self.bin)),
                prof::render_sidecar(snap),
            )?;
        }
        body.push_str("  \"runs\": [\n");
        for (i, (label, ms)) in self.runs.iter().enumerate() {
            let sep = if i + 1 == self.runs.len() { "" } else { "," };
            body.push_str(&format!(
                "    {{\"label\": \"{}\", \"wall_ms\": {ms}}}{sep}\n",
                json_escape(label)
            ));
        }
        body.push_str("  ]\n}");
        std::fs::write(sweep_dir.join(format!("{}.json", self.bin)), &body)?;
        merge_sweeps(&dir)
    }
}

/// Rebuilds `<dir>/BENCH_sweeps.json` from every sidecar in
/// `<dir>/sweeps/`, sorted by binary name for stable output.
fn merge_sweeps(dir: &std::path::Path) -> std::io::Result<()> {
    let sweep_dir = dir.join("sweeps");
    let mut entries: Vec<(String, String)> = Vec::new();
    for entry in std::fs::read_dir(&sweep_dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "json") {
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or_default()
                .to_string();
            entries.push((name, std::fs::read_to_string(&path)?));
        }
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"host_cores\": {cores},\n"));
    out.push_str("  \"binaries\": {\n");
    for (i, (name, body)) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        let indented = body.replace('\n', "\n    ");
        out.push_str(&format!("    \"{}\": {indented}{sep}\n", json_escape(name)));
    }
    out.push_str("  }\n}\n");
    std::fs::write(dir.join("BENCH_sweeps.json"), out)
}

fn results_dir() -> std::path::PathBuf {
    std::env::var_os("ITASK_BENCH_RESULTS")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("bench_results"))
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that arm or disarm the process-global tracer and metrics
    /// planes (or change the cadence) serialize on this lock.
    fn planes() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn outcomes_keep_spec_order() {
        let specs: Vec<RunSpec<'_, usize>> = (0..16usize)
            .map(|i| {
                spec(format!("job{i}"), move || {
                    // Vary the work so completion order scrambles.
                    let mut acc = i;
                    for _ in 0..((16 - i) * 1000) {
                        acc = acc.wrapping_mul(31).wrapping_add(7);
                    }
                    std::hint::black_box(acc);
                    i
                })
            })
            .collect();
        let out = run_all(4, specs);
        let got: Vec<usize> = out.iter().map(|o| o.result).collect();
        assert_eq!(got, (0..16).collect::<Vec<_>>());
        assert_eq!(out[3].label, "job3");
    }

    #[test]
    fn serial_and_parallel_agree() {
        let mk = || {
            (0..8)
                .map(|i: u64| spec(format!("r{i}"), move || i * i))
                .collect::<Vec<_>>()
        };
        let a: Vec<u64> = run_all(1, mk()).into_iter().map(|o| o.result).collect();
        let b: Vec<u64> = run_all(4, mk()).into_iter().map(|o| o.result).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn jobs_flag_parsing() {
        let mut args = vec!["--quick".to_string(), "--jobs".into(), "3".into()];
        assert_eq!(take_jobs_flag(&mut args), 3);
        assert_eq!(args, vec!["--quick".to_string()]);
        let mut args = vec!["--jobs=7".to_string(), "wc".into()];
        assert_eq!(take_jobs_flag(&mut args), 7);
        assert_eq!(args, vec!["wc".to_string()]);
        let mut args = vec!["wc".to_string()];
        assert_eq!(take_jobs_flag(&mut args), 0);
    }

    #[test]
    fn env_default_parses_and_rejects() {
        // The pure helper is what `take_jobs_flag` consults when no
        // --jobs flag is present (flag wins when both are given).
        assert_eq!(env_jobs_default(None), 0);
        assert_eq!(env_jobs_default(Some("")), 0);
        assert_eq!(env_jobs_default(Some("  ")), 0);
        assert_eq!(env_jobs_default(Some("4")), 4);
        assert_eq!(env_jobs_default(Some(" 2 ")), 2);
        assert_eq!(env_jobs_default(Some("zero")), 0);
        assert_eq!(env_jobs_default(Some("-1")), 0);
    }

    #[test]
    fn trace_flag_parsing() {
        let _planes = planes();
        // Note: a hit arms the global tracer; disarm before leaving so
        // other tests in this binary see the default-off state.
        let mut args = vec!["--quick".to_string(), "--trace".into(), "out.json".into()];
        assert_eq!(take_trace_flag(&mut args).as_deref(), Some("out.json"));
        assert_eq!(args, vec!["--quick".to_string()]);
        let mut args = vec!["--trace=t/a.json".to_string(), "wc".into()];
        assert_eq!(take_trace_flag(&mut args).as_deref(), Some("t/a.json"));
        assert_eq!(args, vec!["wc".to_string()]);
        tracer::disable();
        let mut args = vec!["wc".to_string()];
        assert_eq!(take_trace_flag(&mut args), None);
        assert!(!tracer::is_enabled());
    }

    #[test]
    fn traced_sweep_writes_chrome_and_jsonl() {
        use simcore::{SimDuration, SimTime};
        let _planes = planes();
        let dir = std::env::temp_dir().join(format!("itask_sweeptrace_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        tracer::enable();
        let specs: Vec<RunSpec<'_, ()>> = (0..2u64)
            .map(|i| {
                spec(format!("run{i}"), move || {
                    tracer::emit(
                        None,
                        None,
                        SimTime::from_nanos(i),
                        SimDuration::ZERO,
                        tracer::TraceData::NodeCrash,
                    );
                })
            })
            .collect();
        let out = run_all(1, specs);
        tracer::disable();
        assert!(out
            .iter()
            .all(|o| o.trace.as_ref().is_some_and(|t| !t.is_empty())));
        let mut log = SweepLog::new("tracebin", 1);
        let trace_path = dir.join("trace.json");
        log.set_trace(Some(trace_path.to_string_lossy().into_owned()));
        // Absorb one run at a time: the stream must flush per batch, so
        // the JSONL grows on disk before finish() is ever called.
        log.absorb(&out[..1]);
        let partial = std::fs::read_to_string(dir.join("trace.json.jsonl")).unwrap();
        assert_eq!(partial.lines().count(), 2, "first batch on disk already");
        log.absorb(&out[1..]);
        log.finish_traces().unwrap();
        let chrome = std::fs::read_to_string(&trace_path).unwrap();
        assert!(chrome.contains("\"traceEvents\""));
        assert!(chrome.contains("\"run1\""));
        // The streamed bytes must equal a whole-buffer render.
        let whole: Vec<(String, tracer::RunTrace)> = out
            .iter()
            .map(|o| (o.label.clone(), o.trace.clone().unwrap()))
            .collect();
        assert_eq!(chrome, tracer::chrome_json(&whole));
        let jsonl = std::fs::read_to_string(dir.join("trace.json.jsonl")).unwrap();
        assert_eq!(jsonl.lines().count(), 4); // 2 headers + 2 events
        assert_eq!(jsonl, tracer::jsonl(&whole));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_flag_parsing() {
        let _planes = planes();
        // Note: a hit arms the global registry; disarm before leaving
        // so other tests in this binary see the default-off state.
        let mut args = vec![
            "--quick".to_string(),
            "--metrics".into(),
            "m.jsonl".into(),
            "--metrics-cadence-ms=5".into(),
        ];
        assert_eq!(take_metrics_flag(&mut args).as_deref(), Some("m.jsonl"));
        assert_eq!(args, vec!["--quick".to_string()]);
        assert!(metrics::is_enabled());
        assert_eq!(metrics::cadence_ns(), 5_000_000);
        metrics::disable();
        metrics::set_cadence_ns(metrics::DEFAULT_CADENCE_NS);
        let mut args = vec!["--metrics=x/y.jsonl".to_string(), "wc".into()];
        assert_eq!(take_metrics_flag(&mut args).as_deref(), Some("x/y.jsonl"));
        assert_eq!(args, vec!["wc".to_string()]);
        metrics::disable();
        let mut args = vec!["wc".to_string()];
        assert_eq!(take_metrics_flag(&mut args), None);
        assert!(!metrics::is_enabled());
    }

    #[test]
    fn harness_takes_common_and_custom_flags() {
        let mut args = vec![
            "--jobs=2".to_string(),
            "--quick".into(),
            "wc".into(),
            "--shards=1".into(),
        ];
        let mut h = parse_harness(&mut args);
        assert_eq!(h.jobs, 2);
        assert_eq!(h.shards, 1);
        assert!(!h.profile);
        assert_eq!(h.trace, None);
        assert_eq!(h.metrics, None);
        assert!(h.flag("--quick"));
        assert!(!h.flag("--quick"), "flag consumed on first take");
        assert_eq!(h.args, vec!["wc".to_string()]);
    }

    #[test]
    fn trace_and_metrics_compose_in_one_sweep() {
        use simcore::{NodeId, SimDuration, SimTime};
        let _planes = planes();
        let dir = std::env::temp_dir().join(format!("itask_sweepboth_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        tracer::enable();
        metrics::enable();
        let cadence = metrics::cadence_ns();
        let specs: Vec<RunSpec<'_, ()>> = (0..2u64)
            .map(|i| {
                spec(format!("run{i}"), move || {
                    tracer::emit(
                        None,
                        None,
                        SimTime::from_nanos(i),
                        SimDuration::ZERO,
                        tracer::TraceData::NodeCrash,
                    );
                    metrics::counter_add(
                        Some(NodeId(0)),
                        metrics::Metric::MemGcCount,
                        SimTime::from_nanos(cadence / 2),
                        3,
                    );
                })
            })
            .collect();
        let out = run_all(1, specs);
        tracer::disable();
        metrics::disable();
        for o in &out {
            let trace = o.trace.as_ref().expect("trace harvested");
            assert_eq!(trace.len(), 1, "metric ops must not leak into the trace");
            assert!(matches!(trace[0].data, tracer::TraceData::NodeCrash));
            let m = o.metrics.as_ref().expect("metrics folded");
            assert_eq!(m.points.len(), 1);
            assert_eq!(m.points[0].at, cadence);
            assert_eq!(m.points[0].value, 3);
        }
        let mut log = SweepLog::new("bothbin", 1);
        let trace_path = dir.join("trace.json");
        let metrics_path = dir.join("metrics.jsonl");
        log.set_trace(Some(trace_path.to_string_lossy().into_owned()));
        log.set_metrics(Some(metrics_path.to_string_lossy().into_owned()));
        log.absorb(&out);
        log.finish_traces().unwrap();
        log.finish_metrics().unwrap();
        let chrome = std::fs::read_to_string(&trace_path).unwrap();
        assert!(chrome.contains("\"traceEvents\""));
        let mj = std::fs::read_to_string(&metrics_path).unwrap();
        assert_eq!(mj.lines().count(), 4); // 2 run headers + 2 points
        assert!(mj.contains("\"metric\":\"mem.gc_count\""));
        let om = std::fs::read_to_string(dir.join("metrics.jsonl.om")).unwrap();
        assert!(om.contains("# TYPE mem_gc_count counter"));
        assert!(om.ends_with("# EOF\n"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_sweep_is_fine() {
        let out: Vec<RunOutcome<()>> = run_all(4, Vec::new());
        assert!(out.is_empty());
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn sweep_log_writes_sidecar_and_merge() {
        let dir = std::env::temp_dir().join(format!("itask_sweeplog_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("ITASK_BENCH_RESULTS", &dir);
        let mut log = SweepLog::new("testbin", 1);
        log.push("alpha", 12);
        log.push("beta", 34);
        log.finish();
        std::env::remove_var("ITASK_BENCH_RESULTS");
        let sidecar = std::fs::read_to_string(dir.join("sweeps/testbin.json")).unwrap();
        assert!(sidecar.contains("\"alpha\""));
        let merged = std::fs::read_to_string(dir.join("BENCH_sweeps.json")).unwrap();
        assert!(merged.contains("\"testbin\""));
        assert!(merged.contains("\"host_cores\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
