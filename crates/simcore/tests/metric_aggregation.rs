//! Per-cell pre-aggregation must not change what the metrics fold sees.
//!
//! Counter and gauge updates collapse into one event per
//! `(node, metric, cadence cell)` inside the buffer that receives them
//! (the run buffer or a node's stream overlay). This property drives
//! seeded random updates through the driver buffer and several stream
//! overlays — equal-timestamp sets across streams, future-stamped adds,
//! out-of-order sets, rewound (discarded) overlays, random cadences —
//! and checks that folding the harvest gives the same bytes as folding
//! the same updates kept as raw events with the ids they drew.

use simcore::metrics::{self, Metric, MetricKind, MetricOp};
use simcore::tracer::{self, Event, EventId, TraceData};
use simcore::{DetRng, NodeId, SimDuration, SimTime};

const NODES: u32 = 3;
const STREAMS: u32 = 4;

/// The registry's gauges are driven by sets or by adds, never both;
/// these two are the add-driven ones.
fn add_driven(metric: Metric) -> bool {
    matches!(metric, Metric::NetInflightBytes | Metric::IrsSignal)
}

/// A random update of `metric` in the op kind its call sites use.
fn draw_op(rng: &mut DetRng, metric: Metric) -> MetricOp {
    match metric.kind() {
        MetricKind::Counter => MetricOp::CounterAdd(rng.below(1000)),
        MetricKind::Histogram => MetricOp::Observe(rng.below(1_000_000)),
        MetricKind::Gauge if add_driven(metric) => {
            MetricOp::GaugeAdd(rng.below(2001) as i64 - 1000)
        }
        // A narrow range, so re-sets to an unchanged level happen.
        MetricKind::Gauge => MetricOp::GaugeSet(rng.below(6) as i64),
    }
}

fn apply(node: Option<NodeId>, metric: Metric, at: SimTime, op: MetricOp) {
    match op {
        MetricOp::CounterAdd(n) => metrics::counter_add(node, metric, at, n),
        MetricOp::GaugeSet(v) => metrics::gauge_set(node, metric, at, v),
        MetricOp::GaugeAdd(d) => metrics::gauge_add(node, metric, at, d),
        MetricOp::Observe(v) => metrics::observe(node, metric, at, v),
    }
}

/// Emits through the installed buffer and mirrors the update as the raw
/// event it was before aggregation, under the id it drew.
struct Emitter {
    stream: u32,
    seq: u64,
    raw: Vec<Event>,
}

impl Emitter {
    fn new(stream: u32, seq: u64) -> Self {
        Emitter {
            stream,
            seq,
            raw: Vec::new(),
        }
    }

    fn next_id(&mut self) -> EventId {
        self.seq += 1;
        EventId(((self.stream as u64) << 32) | self.seq)
    }

    fn metric(&mut self, node: Option<NodeId>, metric: Metric, at: SimTime, op: MetricOp) {
        apply(node, metric, at, op);
        let id = self.next_id();
        self.raw.push(Event {
            id,
            node,
            scope: None,
            at,
            dur: SimDuration::ZERO,
            data: TraceData::Metric { metric, op },
        });
    }

    /// A trace event between metric updates; its id must be the one it
    /// would draw with no aggregation at all.
    fn trace(&mut self, node: Option<NodeId>, at: SimTime) {
        let got = tracer::emit(node, None, at, SimDuration::ZERO, TraceData::NodeCrash);
        let id = self.next_id();
        assert_eq!(got, id, "trace ids must not move under aggregation");
        self.raw.push(Event {
            id,
            node,
            scope: None,
            at,
            dur: SimDuration::ZERO,
            data: TraceData::NodeCrash,
        });
    }

    /// A burst of random updates around virtual time `now`.
    fn burst(&mut self, rng: &mut DetRng, now: u64, cadence: u64, home: Option<u32>, ops: u64) {
        for _ in 0..ops {
            // Nodes mostly the stream's own, sometimes any node or the
            // cluster (`None`), so keys collide across streams.
            let node = match (home, rng.below(4)) {
                (Some(n), 0 | 1) => Some(NodeId(n)),
                (_, 3) => None,
                _ => Some(NodeId(rng.below(NODES as u64) as u32)),
            };
            if tracer::is_enabled() && rng.chance(0.05) {
                self.trace(node, SimTime::from_nanos(now));
                continue;
            }
            // Mostly the shuffle's hot metrics, like a metered run.
            const HOT: [Metric; 3] = [
                Metric::NetBytes,
                Metric::NetInflightBytes,
                Metric::MemLiveBytes,
            ];
            let metric = if rng.chance(0.6) {
                HOT[rng.index(HOT.len())]
            } else {
                Metric::ALL[rng.index(Metric::ALL.len())]
            };
            let op = draw_op(rng, metric);
            // Timestamps on a coarse grid so equal times are common;
            // some updates land a little in the past, adds may be
            // stamped up to three cells in the future (an in-flight
            // gauge's drain).
            let jitter = rng.below(4) * (cadence / 4 + 1);
            let at = match op {
                MetricOp::GaugeAdd(d) if rng.chance(0.5) => {
                    self.metric(
                        node,
                        metric,
                        SimTime::from_nanos(now),
                        MetricOp::GaugeAdd(d),
                    );
                    let drain = now + rng.below(3 * cadence + 1);
                    self.metric(
                        node,
                        metric,
                        SimTime::from_nanos(drain),
                        MetricOp::GaugeAdd(-d),
                    );
                    continue;
                }
                _ if rng.chance(0.3) => now.saturating_sub(jitter),
                _ => now,
            };
            self.metric(node, metric, SimTime::from_nanos(at), op);
        }
    }
}

fn rendered(events: &[Event], cadence: u64) -> String {
    metrics::jsonl_run(0, "case", &metrics::fold(events, cadence))
}

/// One seeded case: returns (raw update count, harvested metric events).
fn run_case(seed: u64) -> (usize, usize) {
    let mut rng = DetRng::new(seed);
    let cadence = match rng.below(3) {
        0 => rng.range_inclusive(1, 16),
        1 => rng.range_inclusive(100, 5_000),
        _ => rng.range_inclusive(50_000, 1_000_000),
    };
    metrics::set_cadence_ns(cadence);
    if rng.chance(0.5) {
        tracer::enable();
    } else {
        tracer::disable();
    }
    tracer::begin_run();

    let mut driver = Emitter::new(0, 0);
    let mut cursors = vec![0u64; STREAMS as usize + 1];
    let mut raw: Vec<Event> = Vec::new();
    let mut now = rng.below(cadence * 2);
    for _ in 0..rng.range_inclusive(5, 40) {
        let ops = rng.below(10);
        driver.burst(&mut rng, now, cadence, None, ops);
        // One lockstep round: each stream's overlay captures a segment;
        // a rewound overshoot round discards its segment and leaves the
        // node's cursor where it was.
        for stream in 1..=STREAMS {
            let seq = cursors[stream as usize];
            tracer::stream_begin(stream, seq);
            let mut node = Emitter::new(stream, seq);
            let ops = rng.below(16);
            node.burst(&mut rng, now, cadence, Some((stream - 1) % NODES), ops);
            let (next, events) = tracer::stream_take(seq);
            assert_eq!(next, node.seq, "every update consumes its stream id");
            assert!(events.len() <= node.raw.len());
            if rng.chance(0.15) {
                continue;
            }
            cursors[stream as usize] = next;
            tracer::absorb(events);
            raw.extend(node.raw);
        }
        now += rng.below(cadence + cadence / 2 + 1);
    }
    raw.extend(driver.raw);

    let harvest = tracer::take_run().expect("a run buffer was installed");
    let key = |e: &Event| (e.at, e.node.map_or(u32::MAX, |n| n.0), e.id);
    raw.sort_by_key(key);
    assert_eq!(
        rendered(&harvest, cadence),
        rendered(&raw, cadence),
        "seed {seed} cadence {cadence}: aggregated fold differs from raw fold"
    );

    // Trace events pass through untouched, under the same ids.
    let trace = |v: &[Event]| -> Vec<Event> {
        v.iter()
            .filter(|e| !matches!(e.data, TraceData::Metric { .. }))
            .cloned()
            .collect()
    };
    assert_eq!(
        trace(&harvest),
        trace(&raw),
        "seed {seed}: trace events moved"
    );

    // Cost bound: one counter/gauge event per (node, metric, cell).
    let mut seen = std::collections::BTreeSet::new();
    let mut metric_events = 0;
    for e in &harvest {
        let TraceData::Metric { metric, op } = e.data else {
            continue;
        };
        metric_events += 1;
        if matches!(op, MetricOp::Observe(_)) {
            continue;
        }
        let cell = e.at.as_nanos() / cadence;
        assert!(
            seen.insert((e.node, metric, cell)),
            "seed {seed}: two events for {:?} {} cell {cell}",
            e.node,
            metric.name()
        );
    }
    let raw_updates = raw
        .iter()
        .filter(|e| matches!(e.data, TraceData::Metric { .. }))
        .count();
    (raw_updates, metric_events)
}

#[test]
fn aggregated_harvest_folds_like_raw_updates() {
    metrics::enable();
    let (mut raw, mut kept) = (0, 0);
    for seed in 0..300 {
        let (r, k) = run_case(seed);
        raw += r;
        kept += k;
    }
    tracer::disable();
    metrics::disable();
    metrics::set_cadence_ns(metrics::DEFAULT_CADENCE_NS);
    assert!(kept < raw, "nothing aggregated: kept {kept} of {raw}");
}
