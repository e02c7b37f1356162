//! A deterministic, virtual-time metrics plane: typed counters, gauges
//! and sketch-backed histograms sampled on a fixed virtual-time
//! cadence.
//!
//! Where the tracer ([`crate::tracer`]) answers "what happened, and
//! what caused it", the metrics plane answers "how did state *evolve*":
//! heap occupancy, IRS signal level, queue depth, commit rate — the
//! continuous curves the paper's Figure 3 plots and a production
//! observability stack alerts on. Every layer updates named metrics
//! from the [`Metric`] registry; updates are folded into a time series
//! sampled at exact virtual-time gridpoints (one sample per
//! [`cadence_ns`] cell, emitted only when the value changed — quiescent
//! cells cost nothing) plus one final distribution snapshot per
//! histogram.
//!
//! Determinism contract — the same discipline as the tracer, by
//! construction: metric updates ride the tracer's per-run /
//! per-node-stream buffers as [`crate::tracer::TraceData::Metric`]
//! events, so they inherit stream-namespaced ids, speculation rewind,
//! and the `(time, node, id)` harvest merge. The fold
//! ([`fold`]) is a pure function of that merged order, so a metrics
//! dump is byte-identical at any `--jobs`/`--shards` count. One
//! consequence worth knowing: trace event ids share the per-stream
//! sequences with metric updates, so a trace file written with metrics
//! armed has different (still deterministic) ids than one written
//! without — each flag combination is self-consistent across
//! jobs/shards.
//!
//! Cost contract: a buffer never holds more than one counter/gauge
//! event per `(node, metric, cadence cell)`. [`CellIndex`] folds each
//! update into the cell's aggregate in place as it is emitted (or
//! absorbed from a node's stream segment): adds sum, and a gauge set
//! keeps the write with the largest `(time, id)` — the one the harvest
//! merge would order last. The fold only reads a key's value at cell
//! ends, so the aggregate folds to the same bytes as the raw updates,
//! while a metered run harvests O(cells) events instead of O(updates).
//! Every update still draws its own stream id, so co-armed trace ids
//! do not move, and aggregates in a discarded (rewound) overlay vanish
//! with it. Histogram observations stay raw events: sketches must see
//! every sample in merged order.
//!
//! Disabled cost: every update entry point is a single relaxed atomic
//! load, exactly like the tracer and profiler.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::ids::NodeId;
use crate::sketch::{QuantileSketch, SketchSnapshot};
use crate::time::{SimDuration, SimTime};
use crate::tracer::{self, Event, TraceData};

/// How a metric's updates combine over time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically accumulating count (sampled cumulative).
    Counter,
    /// Last-write-wins instantaneous level.
    Gauge,
    /// Sketch-backed distribution of observed samples.
    Histogram,
}

impl MetricKind {
    /// The OpenMetrics family type this kind renders as.
    pub fn om_type(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "summary",
        }
    }
}

macro_rules! metrics_registry {
    ($(($variant:ident, $name:literal, $kind:ident, $unit:literal),)*) => {
        /// The closed registry of every metric any layer emits.
        ///
        /// Declaration order is the canonical `(node, metric)` merge
        /// order of dumps, so new metrics append — reordering would
        /// shift every golden byte.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum Metric {
            $(
                #[doc = $name]
                $variant,
            )*
        }

        impl Metric {
            /// Every metric, in canonical registry order.
            pub const ALL: &'static [Metric] = &[$(Metric::$variant,)*];

            /// Stable dotted name (`layer.metric`), the JSONL key.
            pub fn name(self) -> &'static str {
                match self { $(Metric::$variant => $name,)* }
            }

            /// How updates combine.
            pub fn kind(self) -> MetricKind {
                match self { $(Metric::$variant => MetricKind::$kind,)* }
            }

            /// Unit hint for renderers (empty = dimensionless count).
            pub fn unit(self) -> &'static str {
                match self { $(Metric::$variant => $unit,)* }
            }

            /// Parses a dotted name back to the registry entry.
            pub fn from_name(name: &str) -> Option<Metric> {
                match name { $($name => Some(Metric::$variant),)* _ => None }
            }
        }
    };
}

metrics_registry! {
    (MemLiveBytes, "mem.live_bytes", Gauge, "bytes"),
    (MemFreeBytes, "mem.free_bytes", Gauge, "bytes"),
    (MemHeapBytes, "mem.heap_bytes", Gauge, "bytes"),
    (MemGcCount, "mem.gc_count", Counter, ""),
    (MemGcPauseNs, "mem.gc_pause_ns", Counter, "nanoseconds"),
    (MemUselessGc, "mem.useless_gc", Counter, ""),
    (MemOom, "mem.oom", Counter, ""),
    (IrsSignal, "irs.signal", Gauge, "level"),
    (IrsInterrupts, "irs.interrupts", Counter, ""),
    (IrsSerialized, "irs.serialized", Counter, ""),
    (IrsSerializedBytes, "irs.serialized_bytes", Counter, "bytes"),
    (IrsDeflations, "irs.deflations", Counter, ""),
    (IrsDeflatedBytes, "irs.deflated_bytes", Counter, "bytes"),
    (SchedRunnable, "sched.runnable", Gauge, "threads"),
    (SchedQuanta, "sched.quanta", Counter, ""),
    (NetInflightBytes, "net.inflight_bytes", Gauge, "bytes"),
    (NetBytes, "net.bytes", Counter, "bytes"),
    (ShuffleBytes, "shuffle.bytes", Counter, "bytes"),
    (ServeQueueDepth, "serve.queue_depth", Gauge, "jobs"),
    (ServeShedDeadline, "serve.shed_deadline", Counter, ""),
    (ServeShedQueueFull, "serve.shed_queue_full", Counter, ""),
    (ServeShedRetryBudget, "serve.shed_retry_budget", Counter, ""),
    (ServeBreakerState, "serve.breaker_state", Gauge, "state"),
    (ServeBrownout, "serve.brownout", Gauge, "state"),
    (ServeAdmitted, "serve.admitted", Counter, ""),
    (ServeCompleted, "serve.completed", Counter, ""),
    (ServeFailed, "serve.failed", Counter, ""),
    (ServeLatencyNs, "serve.latency_ns", Histogram, "nanoseconds"),
    (SmrCommits, "smr.commits", Counter, ""),
    (SmrViewChanges, "smr.view_changes", Counter, ""),
    (SmrLeaseMarginNs, "smr.lease_margin_ns", Gauge, "nanoseconds"),
    (SmrCommitLatencyNs, "smr.commit_latency_ns", Histogram, "nanoseconds"),
}

/// One metric update as recorded in the event stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricOp {
    /// Add to a counter.
    CounterAdd(u64),
    /// Set a gauge to an absolute level.
    GaugeSet(i64),
    /// Adjust a gauge by a delta (e.g. in-flight bytes up/down).
    GaugeAdd(i64),
    /// Record one histogram sample.
    Observe(u64),
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Default sampling cadence: one gridpoint every 10ms of virtual time.
pub const DEFAULT_CADENCE_NS: u64 = 10_000_000;

static CADENCE_NS: AtomicU64 = AtomicU64::new(DEFAULT_CADENCE_NS);

/// Turns metric recording on process-wide. Updates still require the
/// tracer's per-run buffer installed around the run closure.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns metric recording off.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether metrics are armed (single relaxed load — the entire
/// disabled-path cost of every update site).
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the sampling cadence in virtual nanoseconds (min 1).
pub fn set_cadence_ns(ns: u64) {
    CADENCE_NS.store(ns.max(1), Ordering::Relaxed);
}

/// The current sampling cadence in virtual nanoseconds.
pub fn cadence_ns() -> u64 {
    CADENCE_NS.load(Ordering::Relaxed)
}

/// The cadence cell a virtual time falls in (`t / cadence`). Update
/// sites that batch per cell (scheduler quanta, lease margins) compare
/// this against their last-flushed cell.
#[inline]
pub fn cell_of(at: SimTime) -> u64 {
    at.as_nanos() / cadence_ns().max(1)
}

#[inline]
fn record(node: Option<NodeId>, metric: Metric, at: SimTime, op: MetricOp) {
    tracer::emit_raw(
        node,
        None,
        at,
        SimDuration::ZERO,
        TraceData::Metric { metric, op },
    );
}

/// Adds `n` to a counter (no-op while disabled).
#[inline]
pub fn counter_add(node: Option<NodeId>, metric: Metric, at: SimTime, n: u64) {
    if is_enabled() {
        record(node, metric, at, MetricOp::CounterAdd(n));
    }
}

/// Sets a gauge to an absolute level (no-op while disabled).
#[inline]
pub fn gauge_set(node: Option<NodeId>, metric: Metric, at: SimTime, v: i64) {
    if is_enabled() {
        record(node, metric, at, MetricOp::GaugeSet(v));
    }
}

/// Adjusts a gauge by a delta (no-op while disabled).
#[inline]
pub fn gauge_add(node: Option<NodeId>, metric: Metric, at: SimTime, d: i64) {
    if is_enabled() {
        record(node, metric, at, MetricOp::GaugeAdd(d));
    }
}

/// Records one histogram sample (no-op while disabled).
#[inline]
pub fn observe(node: Option<NodeId>, metric: Metric, at: SimTime, v: u64) {
    if is_enabled() {
        record(node, metric, at, MetricOp::Observe(v));
    }
}

/// Per-buffer index of the pre-aggregated metric events: each tracer
/// buffer (the run buffer and every stream overlay) owns one.
///
/// Keys are `(node, metric, cadence cell)`, the cell taken at the
/// cadence in force at emission. A key's first counter/gauge update is
/// appended as an ordinary event; later updates of the same op kind
/// fold into it in place, and the aggregate carries the `(time, id)`
/// of its latest update. A key-cell that mixes op kinds (a set after
/// adds, or an add after sets) stops aggregating: that update and every
/// later one in this buffer stay raw. Dropping a set that a later set
/// overwrites is always exact; summing adds is exact unless a set on
/// the same key-cell, from this or another buffer, is stamped between
/// them. The registry's gauges are each driven by sets alone or by adds
/// alone, so that case never arises.
#[derive(Default)]
pub(crate) struct CellIndex(HashMap<(u32, Metric, u64), Option<usize>>);

impl CellIndex {
    /// Appends `e` to `events`, or folds it into its key-cell's
    /// aggregate there. Non-metric events and histogram observations
    /// are always appended.
    pub(crate) fn push(&mut self, events: &mut Vec<Event>, e: Event) {
        let (metric, op) = match e.data {
            TraceData::Metric { metric, op } if !matches!(op, MetricOp::Observe(_)) => (metric, op),
            _ => {
                events.push(e);
                return;
            }
        };
        let key = (e.node.map_or(u32::MAX, |n| n.0), metric, cell_of(e.at));
        match self.0.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(Some(events.len()));
                events.push(e);
            }
            Entry::Occupied(mut slot) => match *slot.get() {
                Some(i) if merge(&mut events[i], &e, op) => {}
                _ => {
                    slot.insert(None);
                    events.push(e);
                }
            },
        }
    }
}

/// Folds metric update `e` (carrying `op`) into aggregate `agg` of the
/// same key-cell. Returns `false`, leaving `agg` untouched, when their
/// op kinds differ.
fn merge(agg: &mut Event, e: &Event, op: MetricOp) -> bool {
    let TraceData::Metric { op: into, .. } = &mut agg.data else {
        unreachable!("cell index entries point at metric events");
    };
    let later = (e.at, e.id) > (agg.at, agg.id);
    match (into, op) {
        (MetricOp::CounterAdd(sum), MetricOp::CounterAdd(n)) => *sum = sum.wrapping_add(n),
        (MetricOp::GaugeAdd(sum), MetricOp::GaugeAdd(d)) => *sum = sum.wrapping_add(d),
        (MetricOp::GaugeSet(v), MetricOp::GaugeSet(w)) => {
            if later {
                *v = w;
            }
        }
        _ => return false,
    }
    if later {
        agg.at = e.at;
        agg.id = e.id;
    }
    true
}

/// One sampled point of a folded run: the state of `(node, metric)` at
/// gridpoint `at` (counters cumulative, gauges instantaneous).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricPoint {
    /// Gridpoint timestamp, virtual nanoseconds (always a multiple of
    /// the fold cadence).
    pub at: u64,
    /// Node id, `-1` for cluster-wide metrics.
    pub node: i64,
    /// Which metric.
    pub metric: Metric,
    /// Sampled value.
    pub value: i64,
}

/// Final distribution snapshot of one histogram metric on one node.
#[derive(Clone, Debug)]
pub struct HistogramSummary {
    /// Node id, `-1` for cluster-wide metrics.
    pub node: i64,
    /// Which metric.
    pub metric: Metric,
    /// Sum of all observed samples.
    pub sum: u64,
    /// Count, extrema and reporting quantiles.
    pub snap: SketchSnapshot,
}

/// A folded run: the sampled time series plus final histogram
/// summaries, both in deterministic `(time, node, metric)` /
/// `(node, metric)` order.
#[derive(Clone, Debug, Default)]
pub struct RunMetrics {
    /// The cadence the fold sampled at, virtual nanoseconds.
    pub cadence_ns: u64,
    /// Sampled points, ordered by `(at, node, metric)`.
    pub points: Vec<MetricPoint>,
    /// Histogram summaries, ordered by `(node, metric)`.
    pub hists: Vec<HistogramSummary>,
}

impl RunMetrics {
    /// Final (last-sampled) value per `(node, metric)`, in key order.
    pub fn finals(&self) -> BTreeMap<(i64, Metric), i64> {
        let mut out = BTreeMap::new();
        for p in &self.points {
            out.insert((p.node, p.metric), p.value);
        }
        out
    }
}

#[derive(Default)]
struct CellState {
    value: i64,
    emitted: Option<i64>,
}

/// Folds a merged event stream into the sampled time series.
///
/// Cell `k` covers `[k·cadence, (k+1)·cadence)`; its sample is stamped
/// at `(k+1)·cadence`, so a sample at `T` reports the state as of ops
/// strictly before `T` — every point lands on an exact gridpoint
/// regardless of event timing. A `(node, metric)` pair is sampled only
/// in cells where its value changed (change-driven emission), so long
/// quiescent stretches produce no points. Histogram observations are
/// folded in canonical merged order into one sketch per
/// `(node, metric)` — never per-shard-then-merged — keeping the
/// quantiles identical at any shard count.
///
/// The input must be in the tracer's harvest order (`take_run`'s
/// `(time, node, id)` sort); non-metric events are ignored. A harvest
/// arrives pre-aggregated per emission cell ([`CellIndex`]), so fold it
/// at the cadence it was emitted at (or a multiple of it): the harness
/// passes [`cadence_ns`].
pub fn fold(events: &[Event], cadence_ns: u64) -> RunMetrics {
    let cadence = cadence_ns.max(1);
    let mut states: BTreeMap<(i64, Metric), CellState> = BTreeMap::new();
    let mut hists: BTreeMap<(i64, Metric), (QuantileSketch, u64)> = BTreeMap::new();
    let mut points: Vec<MetricPoint> = Vec::new();
    let mut cell: Option<u64> = None;

    fn flush(
        cell: u64,
        cadence: u64,
        states: &mut BTreeMap<(i64, Metric), CellState>,
        points: &mut Vec<MetricPoint>,
    ) {
        let at = (cell + 1).saturating_mul(cadence);
        for ((node, metric), st) in states.iter_mut() {
            if st.emitted != Some(st.value) {
                points.push(MetricPoint {
                    at,
                    node: *node,
                    metric: *metric,
                    value: st.value,
                });
                st.emitted = Some(st.value);
            }
        }
    }

    for e in events {
        let TraceData::Metric { metric, op } = &e.data else {
            continue;
        };
        let node = e.node.map_or(-1, |n| n.0 as i64);
        let k = e.at.as_nanos() / cadence;
        if cell != Some(k) {
            if let Some(c) = cell {
                flush(c, cadence, &mut states, &mut points);
            }
            cell = Some(k);
        }
        match *op {
            MetricOp::Observe(v) => {
                let (sketch, sum) = hists
                    .entry((node, *metric))
                    .or_insert_with(|| (QuantileSketch::default(), 0));
                sketch.insert(v);
                *sum += v;
            }
            MetricOp::CounterAdd(n) => {
                states.entry((node, *metric)).or_default().value += n as i64;
            }
            MetricOp::GaugeSet(v) => {
                states.entry((node, *metric)).or_default().value = v;
            }
            MetricOp::GaugeAdd(d) => {
                states.entry((node, *metric)).or_default().value += d;
            }
        }
    }
    if let Some(c) = cell {
        flush(c, cadence, &mut states, &mut points);
    }
    RunMetrics {
        cadence_ns: cadence,
        points,
        hists: hists
            .into_iter()
            .map(|((node, metric), (sketch, sum))| HistogramSummary {
                node,
                metric,
                sum,
                snap: sketch.snapshot(),
            })
            .collect(),
    }
}

/// Renders one run's JSONL lines: a run-header line (`"kind":"run"`),
/// one line per sampled point, then one line per histogram summary.
/// Self-delimiting, so streamed writers append runs as they finish.
/// This is the format `metricsctl` consumes.
pub fn jsonl_run(run: usize, label: &str, m: &RunMetrics) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"run\":{run},\"kind\":\"run\",\"label\":\"{}\",\"cadence_ns\":{},\"points\":{},\"hists\":{}}}\n",
        tracer::json_escape(label),
        m.cadence_ns,
        m.points.len(),
        m.hists.len(),
    ));
    for p in &m.points {
        out.push_str(&format!(
            "{{\"run\":{run},\"kind\":\"point\",\"ts\":{},\"node\":{},\"metric\":\"{}\",\"value\":{}}}\n",
            p.at,
            p.node,
            p.metric.name(),
            p.value,
        ));
    }
    for h in &m.hists {
        out.push_str(&format!(
            "{{\"run\":{run},\"kind\":\"hist\",\"node\":{},\"metric\":\"{}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}}}\n",
            h.node,
            h.metric.name(),
            h.snap.count,
            h.sum,
            h.snap.min,
            h.snap.max,
            h.snap.p50,
            h.snap.p90,
            h.snap.p99,
            h.snap.p999,
        ));
    }
    out
}

/// Renders the whole JSONL document for a set of folded runs.
pub fn jsonl(runs: &[(String, RunMetrics)]) -> String {
    let mut out = String::new();
    for (run, (label, m)) in runs.iter().enumerate() {
        out.push_str(&jsonl_run(run, label, m));
    }
    out
}

fn om_name(metric: Metric) -> String {
    metric.name().replace('.', "_")
}

/// Renders the final-state snapshot of a set of runs in an
/// OpenMetrics-style text format: one `# TYPE` family per metric in
/// registry order, one row per `(run, node)`, counters/gauges at their
/// final sampled value, histograms as summary quantiles. Ends with
/// `# EOF`.
pub fn openmetrics(runs: &[(String, RunMetrics)]) -> String {
    let mut out = String::new();
    for &metric in Metric::ALL {
        let name = om_name(metric);
        let mut family = String::new();
        for (run, (label, m)) in runs.iter().enumerate() {
            let label = tracer::json_escape(label);
            if metric.kind() == MetricKind::Histogram {
                for h in m.hists.iter().filter(|h| h.metric == metric) {
                    let tags = format!("run=\"{run}\",label=\"{label}\",node=\"{}\"", h.node);
                    family.push_str(&format!("{name}_count{{{tags}}} {}\n", h.snap.count));
                    family.push_str(&format!("{name}_sum{{{tags}}} {}\n", h.sum));
                    for (q, v) in [
                        ("0.5", h.snap.p50),
                        ("0.9", h.snap.p90),
                        ("0.99", h.snap.p99),
                        ("0.999", h.snap.p999),
                    ] {
                        family.push_str(&format!("{name}{{{tags},quantile=\"{q}\"}} {v}\n"));
                    }
                }
            } else {
                for ((node, m2), v) in m.finals() {
                    if m2 != metric {
                        continue;
                    }
                    family.push_str(&format!(
                        "{name}{{run=\"{run}\",label=\"{label}\",node=\"{node}\"}} {v}\n"
                    ));
                }
            }
        }
        if !family.is_empty() {
            out.push_str(&format!("# TYPE {name} {}\n", metric.kind().om_type()));
            if !metric.unit().is_empty() {
                out.push_str(&format!("# UNIT {name} {}\n", metric.unit()));
            }
            out.push_str(&family);
        }
    }
    out.push_str("# EOF\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64, node: Option<u32>, at_ns: u64, metric: Metric, op: MetricOp) -> Event {
        Event {
            id: tracer::EventId(id),
            node: node.map(NodeId),
            scope: None,
            at: SimTime::from_nanos(at_ns),
            dur: SimDuration::ZERO,
            data: TraceData::Metric { metric, op },
        }
    }

    #[test]
    fn registry_names_round_trip() {
        for &m in Metric::ALL {
            assert_eq!(Metric::from_name(m.name()), Some(m));
            assert!(m.name().contains('.'), "{} is layer-dotted", m.name());
        }
        assert_eq!(Metric::from_name("nope"), None);
        assert_eq!(Metric::MemLiveBytes.kind(), MetricKind::Gauge);
        assert_eq!(Metric::MemGcCount.kind(), MetricKind::Counter);
        assert_eq!(Metric::SmrCommitLatencyNs.kind(), MetricKind::Histogram);
    }

    #[test]
    fn fold_samples_on_exact_gridpoints() {
        // Events at awkward times; every sample must land on a multiple
        // of the cadence, stamped one cell after the ops it covers.
        let cadence = 1000;
        let events = vec![
            ev(1, Some(0), 137, Metric::MemLiveBytes, MetricOp::GaugeSet(7)),
            ev(2, Some(0), 999, Metric::MemLiveBytes, MetricOp::GaugeSet(9)),
            ev(
                3,
                Some(0),
                2500,
                Metric::MemLiveBytes,
                MetricOp::GaugeSet(3),
            ),
        ];
        let m = fold(&events, cadence);
        assert_eq!(m.points.len(), 2);
        assert_eq!((m.points[0].at, m.points[0].value), (1000, 9));
        assert_eq!((m.points[1].at, m.points[1].value), (3000, 3));
        for p in &m.points {
            assert_eq!(p.at % cadence, 0, "gridpoint violated: {}", p.at);
        }
    }

    #[test]
    fn cadence_gridpoint_property_under_scrambled_times() {
        // Pseudo-random event times across pseudo-random cadences: all
        // points land on gridpoints, in (time, node, metric) order.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..20 {
            let cadence = next() % 50_000 + 1;
            let mut events = Vec::new();
            let mut t = 0u64;
            for i in 0..200 {
                t += next() % 10_000;
                events.push(ev(
                    i + 1,
                    Some((next() % 3) as u32),
                    t,
                    Metric::SchedRunnable,
                    MetricOp::GaugeSet((next() % 100) as i64),
                ));
            }
            let m = fold(&events, cadence);
            assert!(!m.points.is_empty());
            let mut prev = (0u64, i64::MIN, Metric::MemLiveBytes);
            for p in &m.points {
                assert_eq!(p.at % cadence, 0, "cadence {cadence}: point at {}", p.at);
                let key = (p.at, p.node, p.metric);
                assert!(key >= prev, "points out of (time, node, metric) order");
                prev = key;
            }
        }
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let events = vec![
            ev(1, Some(1), 10, Metric::MemGcCount, MetricOp::CounterAdd(1)),
            ev(2, Some(1), 20, Metric::MemGcCount, MetricOp::CounterAdd(2)),
            ev(3, Some(1), 30, Metric::IrsSignal, MetricOp::GaugeAdd(-1)),
            ev(
                4,
                Some(1),
                1500,
                Metric::MemGcCount,
                MetricOp::CounterAdd(5),
            ),
        ];
        let m = fold(&events, 1000);
        // Cell 0: gc_count=3, signal=-1; cell 1: gc_count=8 (signal
        // unchanged — change-driven emission skips it).
        let got: Vec<(u64, i64, &str, i64)> = m
            .points
            .iter()
            .map(|p| (p.at, p.node, p.metric.name(), p.value))
            .collect();
        assert_eq!(
            got,
            vec![
                (1000, 1, "mem.gc_count", 3),
                (1000, 1, "irs.signal", -1),
                (2000, 1, "mem.gc_count", 8),
            ]
        );
    }

    #[test]
    fn unchanged_values_emit_no_points() {
        let events = vec![
            ev(1, None, 100, Metric::ServeQueueDepth, MetricOp::GaugeSet(4)),
            ev(
                2,
                None,
                1100,
                Metric::ServeQueueDepth,
                MetricOp::GaugeSet(4),
            ),
            ev(
                3,
                None,
                2100,
                Metric::ServeQueueDepth,
                MetricOp::GaugeSet(5),
            ),
        ];
        let m = fold(&events, 1000);
        assert_eq!(m.points.len(), 2, "the re-set to 4 is not re-emitted");
        assert_eq!(m.points[1].value, 5);
    }

    #[test]
    fn histograms_fold_in_merged_order() {
        let events = vec![
            ev(
                1,
                Some(0),
                5,
                Metric::SmrCommitLatencyNs,
                MetricOp::Observe(10),
            ),
            ev(
                2,
                Some(0),
                6,
                Metric::SmrCommitLatencyNs,
                MetricOp::Observe(30),
            ),
            ev(
                3,
                Some(0),
                7,
                Metric::SmrCommitLatencyNs,
                MetricOp::Observe(20),
            ),
        ];
        let m = fold(&events, 1000);
        assert!(m.points.is_empty(), "observations are not gauge points");
        assert_eq!(m.hists.len(), 1);
        let h = &m.hists[0];
        assert_eq!(h.snap.count, 3);
        assert_eq!(h.sum, 60);
        assert_eq!(h.snap.min, 10);
        assert_eq!(h.snap.max, 30);
        assert_eq!(h.snap.p50, 20);
    }

    #[test]
    fn renderers_are_stable() {
        let events = vec![
            ev(
                1,
                Some(0),
                10,
                Metric::MemLiveBytes,
                MetricOp::GaugeSet(640),
            ),
            ev(2, Some(0), 20, Metric::MemGcCount, MetricOp::CounterAdd(1)),
            ev(3, None, 30, Metric::ServeLatencyNs, MetricOp::Observe(500)),
        ];
        let m = fold(&events, 1000);
        let runs = vec![("quick \"wc\"".to_string(), m)];
        let lines = jsonl(&runs);
        assert!(lines.starts_with(
            "{\"run\":0,\"kind\":\"run\",\"label\":\"quick \\\"wc\\\"\",\"cadence_ns\":1000,\"points\":2,\"hists\":1}\n"
        ));
        assert!(lines.contains(
            "{\"run\":0,\"kind\":\"point\",\"ts\":1000,\"node\":0,\"metric\":\"mem.live_bytes\",\"value\":640}"
        ));
        assert!(lines.contains(
            "\"kind\":\"hist\",\"node\":-1,\"metric\":\"serve.latency_ns\",\"count\":1,\"sum\":500"
        ));
        let om = openmetrics(&runs);
        assert!(om.contains("# TYPE mem_live_bytes gauge"));
        assert!(om.contains("# UNIT mem_live_bytes bytes"));
        assert!(om.contains("mem_live_bytes{run=\"0\",label=\"quick \\\"wc\\\"\",node=\"0\"} 640"));
        assert!(om.contains("# TYPE serve_latency_ns summary"));
        assert!(om.contains("serve_latency_ns{run=\"0\",label=\"quick \\\"wc\\\"\",node=\"-1\",quantile=\"0.5\"} 500"));
        assert!(om.ends_with("# EOF\n"));
        assert!(!om.contains("smr_commits"), "absent metrics emit no family");
    }

    /// Pushes `events` through one buffer's [`CellIndex`] and returns
    /// what the buffer would hold.
    fn aggregated(events: &[Event]) -> Vec<Event> {
        let mut index = CellIndex::default();
        let mut out = Vec::new();
        for e in events {
            index.push(&mut out, e.clone());
        }
        out
    }

    fn folded(mut events: Vec<Event>, cadence: u64) -> String {
        events.sort_by_key(|e| (e.at, e.node.map_or(u32::MAX, |n| n.0), e.id));
        jsonl_run(0, "t", &fold(&events, cadence))
    }

    #[test]
    fn cell_index_keeps_one_event_per_key_cell() {
        let events = vec![
            ev(1, Some(0), 10, Metric::NetBytes, MetricOp::CounterAdd(5)),
            ev(2, Some(0), 900, Metric::NetBytes, MetricOp::CounterAdd(7)),
            // A future-stamped drop two cells on is its own key-cell.
            ev(
                3,
                Some(0),
                2500,
                Metric::NetInflightBytes,
                MetricOp::GaugeAdd(-4),
            ),
            ev(
                4,
                Some(0),
                20,
                Metric::NetInflightBytes,
                MetricOp::GaugeAdd(4),
            ),
            // The later-stamped set wins even though it arrived first.
            ev(5, Some(1), 700, Metric::MemLiveBytes, MetricOp::GaugeSet(9)),
            ev(6, Some(1), 300, Metric::MemLiveBytes, MetricOp::GaugeSet(2)),
            ev(7, None, 40, Metric::ServeLatencyNs, MetricOp::Observe(3)),
            ev(8, None, 50, Metric::ServeLatencyNs, MetricOp::Observe(4)),
        ];
        let out = at_cadence(1000, || aggregated(&events));
        let ops: Vec<(u64, u64, MetricOp)> = out
            .iter()
            .map(|e| match e.data {
                TraceData::Metric { op, .. } => (e.id.0, e.at.as_nanos(), op),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(
            ops,
            vec![
                (2, 900, MetricOp::CounterAdd(12)),
                (3, 2500, MetricOp::GaugeAdd(-4)),
                (4, 20, MetricOp::GaugeAdd(4)),
                (5, 700, MetricOp::GaugeSet(9)),
                (7, 40, MetricOp::Observe(3)),
                (8, 50, MetricOp::Observe(4)),
            ]
        );
        assert_eq!(folded(out, 1000), folded(events, 1000));
    }

    #[test]
    fn mixed_ops_on_a_key_cell_fall_back_to_raw() {
        let key = Metric::IrsSignal;
        // Set then adds, and adds then a later set: the key-cell stops
        // aggregating at the first op of the other kind.
        let events = vec![
            ev(1, Some(0), 10, key, MetricOp::GaugeSet(5)),
            ev(2, Some(0), 20, key, MetricOp::GaugeSet(6)),
            ev(3, Some(0), 30, key, MetricOp::GaugeAdd(1)),
            ev(4, Some(0), 40, key, MetricOp::GaugeAdd(1)),
            ev(5, Some(1), 1010, key, MetricOp::GaugeAdd(2)),
            ev(6, Some(1), 1020, key, MetricOp::GaugeAdd(3)),
            ev(7, Some(1), 1030, key, MetricOp::GaugeSet(1)),
            ev(8, Some(1), 1040, key, MetricOp::GaugeAdd(4)),
        ];
        let out = at_cadence(1000, || aggregated(&events));
        let ids: Vec<u64> = out.iter().map(|e| e.id.0).collect();
        assert_eq!(ids, vec![2, 3, 4, 6, 7, 8]);
        assert_eq!(folded(out, 1000), folded(events, 1000));
    }

    /// Runs `f` at cadence `ns`: [`CellIndex`] keys cells at the
    /// process-wide cadence, so tests that set it serialize here.
    fn at_cadence<T>(ns: u64, f: impl FnOnce() -> T) -> T {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_cadence_ns(ns);
        let out = f();
        set_cadence_ns(DEFAULT_CADENCE_NS);
        out
    }

    #[test]
    fn finals_take_last_sample() {
        let events = vec![
            ev(
                1,
                Some(2),
                10,
                Metric::MemFreeBytes,
                MetricOp::GaugeSet(100),
            ),
            ev(
                2,
                Some(2),
                5000,
                Metric::MemFreeBytes,
                MetricOp::GaugeSet(40),
            ),
        ];
        let m = fold(&events, 1000);
        assert_eq!(m.finals().get(&(2, Metric::MemFreeBytes)), Some(&40));
    }
}
