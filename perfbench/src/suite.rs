//! The four workloads. A pass generates its inputs from the seed, builds
//! the simulated world, runs every simulation through the layers'
//! public functions and checks every output. The same seed always gives
//! the same inputs, so passes of one run repeat the same work.

use std::collections::BTreeMap;
use std::time::Instant;

use apps::agg::{itask_factories, AggMapOp, AggReduceOp};
use apps::hyracks_apps::wc::{self, WcSpec};
use apps::hyracks_apps::{webmap_inputs, HyracksParams};
use apps::mids::{CountMid, OutKv};
use hyracks::{ItaskFactories, ItaskJobSpec, JobSpec};
use itask_core::IrsConfig;
use simcluster::JobReport;
use simcore::metrics::{self, Metric};
use simcore::rng::stable_hash64;
use simcore::tracer::{self, TraceData};
use simcore::{prof, ByteSize, FaultPlan, NodeId, SimDuration, SimTime};
use simserve::{
    ArrivalGen, EngineKind, LoadShape, PolicyKind, RetryPolicy, ScaleSpec, Service, ServiceConfig,
    TenantModel, WeightRule,
};
use simsmr::{payload_digest, RuntimeMode, SmrConfig};
use workloads::webmap::{AdjRecord, WebmapSize};

use crate::spans::Spans;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Regular Hyracks WC on datasets that fit: the pure dataflow path.
    WcFits,
    /// WC on the memory cliff, metrics plane armed: IRS, spills, full GCs.
    WcPressure,
    /// simserve scale mode under an arrival flood: the admission plane.
    ServeFlood,
    /// simsmr quorums, runtimes and heap pressures: lockstep rounds and RPC.
    SmrShards1,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::WcFits,
        Workload::WcPressure,
        Workload::ServeFlood,
        Workload::SmrShards1,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WcFits => "wc-fits",
            Workload::WcPressure => "wc-pressure",
            Workload::ServeFlood => "serve-flood",
            Workload::SmrShards1 => "smr-shards1",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload has a reference configuration to compare
    /// against (metrics disarmed, or two shards).
    pub fn has_reference(self) -> bool {
        matches!(self, Workload::WcPressure | Workload::SmrShards1)
    }
}

/// How a pass is instrumented.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The workload as defined.
    Standard,
    /// The comparison configuration behind the overhead ratios:
    /// wc-pressure with the metrics plane disarmed, smr at two shards.
    /// Other workloads run as in `Standard`.
    Reference,
    /// `Standard` with the tracer, metrics plane and profiler armed, to
    /// read the counts only those instruments expose.
    Probe,
}

/// What one pass measured.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Host seconds for the whole pass.
    pub wall_s: f64,
    /// Host seconds of input generation and world construction.
    pub setup_s: f64,
    /// Summed simulated seconds of every simulation.
    pub vsecs: f64,
    /// Simulations whose outputs were checked.
    pub attempted: u64,
    /// Simulations whose check failed.
    pub failed: u64,
    /// Deterministic per-layer counts, keyed by metric name.
    pub counts: BTreeMap<&'static str, f64>,
    /// The pass's root span, when spans were recorded.
    pub root: Option<usize>,
}

impl Pass {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.counts.entry(key).or_insert(0.0) += v;
    }

    fn max(&mut self, key: &'static str, v: f64) {
        let e = self.counts.entry(key).or_insert(0.0);
        *e = e.max(v);
    }
}

/// Runs one pass of `w` on the inputs of `seed`. With `inject_fault`,
/// the first simulation's output is corrupted before its check, which
/// must then fail.
pub fn run_pass(w: Workload, seed: u64, mode: Mode, sp: &mut Spans, inject_fault: bool) -> Pass {
    let probe = mode == Mode::Probe;
    let fold = w == Workload::WcPressure && mode != Mode::Reference;
    simcluster::set_shards(1);
    if fold || probe {
        metrics::enable();
    }
    if probe {
        tracer::enable();
        prof::reset();
        prof::enable(false);
    }
    let t0 = Instant::now();
    let root = sp.enter("pass");
    let mut cx = Ctx {
        sp,
        pass: Pass::default(),
        fold,
        probe,
        inject: inject_fault,
    };
    match w {
        Workload::WcFits => wc_fits(&mut cx, seed),
        Workload::WcPressure => wc_pressure(&mut cx, seed),
        Workload::ServeFlood => serve_flood(&mut cx, seed),
        Workload::SmrShards1 => smr(&mut cx, seed, if mode == Mode::Reference { 2 } else { 1 }),
    }
    let mut pass = cx.pass;
    sp.exit();
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass.root = root;
    if probe {
        let map = prof::snapshot()
            .into_iter()
            .find(|s| s.stage == prof::Stage::Map)
            .map_or(0, |s| s.units);
        pass.add("hyracks.map_tuples", map as f64);
        prof::disable();
        tracer::disable();
    }
    if fold || probe {
        metrics::disable();
    }
    pass
}

/// Per-pass state threaded through the workload bodies.
struct Ctx<'a> {
    sp: &'a mut Spans,
    pass: Pass,
    /// Fold the metrics plane's events after each simulation, as
    /// `--metrics` does (wc-pressure's own configuration).
    fold: bool,
    /// Harvest probe counts after each simulation.
    probe: bool,
    /// Corrupt the next checked output.
    inject: bool,
}

impl Ctx<'_> {
    /// Input generation or world construction: counted into `setup_s`.
    fn setup<R>(&mut self, span: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = self.sp.span(span, f);
        self.pass.setup_s += t.elapsed().as_secs_f64();
        r
    }

    /// One simulation, harvesting its event stream when armed.
    /// `heap` is the per-node heap capacity (for the peak-heap count).
    fn simulate<R>(&mut self, span: &'static str, heap: ByteSize, f: impl FnOnce() -> R) -> R {
        let harvest = self.fold || self.probe;
        if harvest {
            tracer::begin_run();
        }
        let r = self.sp.span(span, f);
        if harvest {
            self.harvest(heap);
        }
        r
    }

    /// Harvests the simulation's event stream and folds its metric
    /// events, as the sweep harness does for `--metrics`.
    fn harvest(&mut self, heap: ByteSize) {
        let (folded, n_metric, others) = self.sp.span("simcore.fold", || {
            let events = tracer::take_run().unwrap_or_default();
            let (metric_events, others): (Vec<_>, Vec<_>) = events
                .into_iter()
                .partition(|e| matches!(e.data, TraceData::Metric { .. }));
            let folded = metrics::fold(&metric_events, metrics::cadence_ns());
            (folded, metric_events.len(), others)
        });
        if self.fold {
            self.pass.add("simcore.metric_events", n_metric as f64);
        }
        if !self.probe {
            return;
        }
        for ((_, metric), v) in folded.finals() {
            let v = v as f64;
            match metric {
                Metric::NetBytes => self.pass.add("simnet.bytes", v),
                Metric::ShuffleBytes => self.pass.add("hyracks.shuffle_bytes", v),
                Metric::SchedQuanta => self.pass.add("simcluster.quanta", v),
                Metric::IrsSerializedBytes => self.pass.add("irs.serialized_mb", v / MIB),
                Metric::IrsDeflations => self.pass.add("irs.deflations", v),
                _ => {}
            }
        }
        for e in &others {
            if let TraceData::Gc {
                full,
                reclaimed,
                free_after,
                useless,
            } = e.data
            {
                let p = &mut self.pass;
                p.add(
                    if full {
                        "simmem.full_gcs"
                    } else {
                        "simmem.minor_gcs"
                    },
                    1.0,
                );
                p.add("simmem.useless_gcs", useless as u64 as f64);
                p.add("simmem.gc_vtime_ms", e.dur.as_millis_f64());
                // Occupancy just before the collection: used after plus reclaimed.
                let before = heap.as_u64().saturating_sub(free_after) + reclaimed;
                p.max("simmem.peak_heap_mb", before as f64 / MIB);
            }
        }
    }

    /// Checks one simulation's outputs. `check` receives whether to
    /// corrupt the output first and returns whether it is correct.
    fn check(&mut self, check: impl FnOnce(bool) -> bool) {
        let inject = std::mem::take(&mut self.inject);
        let ok = self.sp.span("apps.verify", || check(inject));
        self.pass.attempted += 1;
        self.pass.failed += u64::from(!ok);
    }
}

const MIB: f64 = (1u64 << 20) as f64;

// ---------------------------------------------------------------- WC

#[derive(Clone, Copy, PartialEq, Eq)]
enum Engine {
    Regular,
    Itask,
}

/// What a WC simulation must end in.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// Completes, and the counted tokens equal vertices + edges.
    Complete,
    /// Dies of the simulated OutOfMemoryError.
    Ome,
}

enum WcJob {
    Regular(JobSpec),
    Itask(ItaskJobSpec, ItaskFactories),
}

/// Each simulation gets its own dataset, derived from the workload
/// seed: the webmap's heavy-tailed degrees make one dataset's size vary
/// with its seed, and more datasets per pass average that out.
fn wc_fits(cx: &mut Ctx, seed: u64) {
    let mut i = 0;
    for size in [WebmapSize::G3, WebmapSize::G10, WebmapSize::G14] {
        for threads in [1, 4, 8] {
            for gran_kib in [16, 32] {
                i += 1;
                let s = derive(seed, i);
                wc_sim(
                    cx,
                    s,
                    size,
                    threads,
                    gran_kib,
                    Engine::Regular,
                    Expect::Complete,
                );
            }
        }
    }
}

/// Dataset seed of the repository's tables and goldens
/// (`HyracksParams::default().seed`): the paper's webmap.
const REFERENCE_DATASET: u64 = 42;

/// The regular run's dataset is derived from the workload seed. The
/// ITask runs use the reference datasets: on datasets whose heaviest
/// vertex has tens of thousands of neighbours, the ITask WC double-counts
/// or dies of the simulated OME (see the `known_defect_*` tests).
fn wc_pressure(cx: &mut Ctx, seed: u64) {
    let (g27, g72) = (WebmapSize::G27, WebmapSize::G72);
    wc_sim(
        cx,
        derive(seed, 1),
        g27,
        8,
        32,
        Engine::Regular,
        Expect::Ome,
    );
    wc_sim(
        cx,
        REFERENCE_DATASET,
        g27,
        8,
        32,
        Engine::Itask,
        Expect::Complete,
    );
    wc_sim(
        cx,
        REFERENCE_DATASET,
        g72,
        8,
        32,
        Engine::Itask,
        Expect::Complete,
    );
}

/// The `i`-th seed derived from a workload seed.
fn derive(seed: u64, i: u64) -> u64 {
    stable_hash64(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn wc_sim(
    cx: &mut Ctx,
    seed: u64,
    size: WebmapSize,
    threads: usize,
    gran_kib: u64,
    engine: Engine,
    expect: Expect,
) {
    let params = HyracksParams {
        threads,
        granularity: ByteSize::kib(gran_kib),
        seed,
        ..HyracksParams::default()
    };
    let inputs = cx.setup("workloads.gen", || webmap_inputs(size, &params, |r| r));
    let records: usize = inputs.iter().flatten().map(Vec::len).sum();
    cx.pass.add("workloads.records", records as f64);
    let buckets = params.buckets();
    let (mut cluster, job) = cx.setup("simcluster.build", || {
        let job = match engine {
            Engine::Regular => WcJob::Regular(JobSpec {
                name: "wc".into(),
                threads,
                granularity: params.granularity,
                buckets,
            }),
            Engine::Itask => WcJob::Itask(
                ItaskJobSpec {
                    name: "wc".into(),
                    irs: IrsConfig {
                        max_parallelism: params.cores,
                        ..IrsConfig::default()
                    },
                    granularity: params.granularity,
                    buckets,
                },
                itask_factories(WcSpec, buckets),
            ),
        };
        (params.cluster(), job)
    });
    let (report, result) = cx.simulate("hyracks.run", params.heap_per_node, || match &job {
        WcJob::Regular(spec) => hyracks::run_regular(
            &mut cluster,
            inputs,
            spec,
            || AggMapOp::new(WcSpec, buckets),
            || AggReduceOp::new(WcSpec, buckets),
        ),
        WcJob::Itask(spec, factories) => {
            hyracks::run_itask::<AdjRecord, CountMid, OutKv>(&mut cluster, inputs, spec, factories)
        }
    });
    cx.pass.vsecs += report.elapsed.as_secs_f64();
    absorb_job_report(&mut cx.pass, &report);
    cx.check(move |inject| {
        let mut result = result;
        if inject {
            match &mut result {
                Ok(outs) => {
                    outs.pop();
                }
                Err(_) => result = Ok(Vec::new()),
            }
        }
        match expect {
            Expect::Complete => result.is_ok_and(|outs| wc::verify(&outs, size, seed)),
            Expect::Ome => result.is_err_and(|e| e.is_oom()),
        }
    });
}

fn absorb_job_report(pass: &mut Pass, r: &JobReport) {
    pass.add("irs.interrupts", r.counter("itask.interrupts"));
    pass.add("irs.serializations", r.counter("itask.serializations"));
    pass.add("irs.deserializations", r.counter("itask.deserializations"));
    let stall: f64 = r
        .nodes
        .iter()
        .map(|n| n.io_stall_time.as_millis_f64())
        .sum();
    pass.add("simstore.io_stall_ms", stall);
}

// ------------------------------------------------------------- serve

/// Aggregate gap between arrivals across the whole population.
const SERVE_GAP: SimDuration = SimDuration::from_nanos(200);
const SERVE_TENANTS: u32 = 1_000_000;

fn serve_flood(cx: &mut Ctx, seed: u64) {
    let bursty = LoadShape::Bursty {
        period: SimDuration::from_millis(8),
        burst_len: SimDuration::from_millis(2),
        mult_pm: 4_000,
    };
    for shape in [LoadShape::Steady, bursty] {
        let cfg = serve_config(seed, shape);
        let heap = cfg.heap_per_node;
        let model = cfg.scale.as_ref().expect("scale mode").model.clone();
        let expected = cx.setup("workloads.gen", || {
            let mut gen = ArrivalGen::new(cfg.seed, model, cfg.horizon);
            std::iter::from_fn(|| gen.next_arrival()).count() as u64
        });
        cx.pass.add("workloads.records", expected as f64);
        let service = cx.setup("simcluster.build", || Service::new(cfg));
        let report = cx.simulate("simserve.run", heap, || service.run());
        cx.pass.vsecs += report.elapsed.as_secs_f64();
        let submitted = report.total(|t| t.submitted);
        let shed = report.total_shed();
        let turned_away = report.total(|t| t.shed_deadline + t.shed_queue);
        let p = &mut cx.pass;
        p.add("simserve.arrivals", submitted as f64);
        p.add("simserve.shed", shed as f64);
        p.add("simserve.completed", report.total(|t| t.completed) as f64);
        // Not reported itself: it feeds simserve.admit_ratio.
        p.add(
            "simserve.admitted",
            (submitted - turned_away.min(submitted)) as f64,
        );
        p.max("simserve.peak_queued", report.peak_queued as f64);
        p.add("simcluster.rounds", report.rounds as f64);
        cx.check(|inject| {
            let mut completed = report.total(|t| t.completed);
            if inject {
                completed += 1;
            }
            // Arrival conservation: every arrival completed, failed or was shed.
            submitted == expected && submitted == completed + report.total(|t| t.failed) + shed
        });
        // Freeing the per-tenant accounting of ~10^5 touched tenants is
        // a visible share of the layer's cost, so it is timed as simserve.
        cx.sp.span("simserve.run", move || drop(report));
    }
}

/// The million-tenant configuration: ITask engine, weighted-fair
/// admission over four shards, two active jobs and two queued per
/// tenant per shard, 4 ms submit deadlines and budgeted retries.
fn serve_config(seed: u64, shape: LoadShape) -> ServiceConfig {
    let mut cfg = ServiceConfig::standard(EngineKind::Itask, 0, seed);
    cfg.admission.policy = PolicyKind::WeightedFair;
    cfg.admission.max_active = 2;
    cfg.admission.queue_cap = Some(2);
    cfg.retry = RetryPolicy::budgeted();
    let mut model = TenantModel::uniform(SERVE_TENANTS, SERVE_GAP);
    model.shape = shape;
    model.deadline = Some(SimDuration::from_millis(4));
    model.weights = WeightRule {
        premium_every: 10,
        premium_weight: 8,
    };
    cfg.scale = Some(ScaleSpec {
        model,
        admission_shards: 4,
    });
    cfg
}

// --------------------------------------------------------------- SMR

/// Repetitions of the 21-configuration SMR grid per pass, each on its
/// own seed derived from the workload seed: about 2 s of host time.
const SMR_REPS: u64 = 160;
const SMR_MODES: [RuntimeMode; 3] = [
    RuntimeMode::Regular,
    RuntimeMode::Itask,
    RuntimeMode::ItaskElect,
];
const SMR_TIERS: [u64; 3] = [45, 75, 92];

struct SmrCase {
    cfg: SmrConfig,
    /// Digest of the whole log, recomputed from the payload digests.
    digest: u64,
    /// The leader-crash ablation, which must force a view change.
    crash: bool,
}

fn smr(cx: &mut Ctx, seed: u64, shards: usize) {
    let cases = cx.setup("workloads.gen", || smr_cases(seed, shards));
    let entries: u64 = cases.iter().map(|c| c.cfg.entries).sum();
    cx.pass.add("workloads.records", entries as f64);
    for case in cases {
        let mut o = cx.simulate("simsmr.run", case.cfg.heap_per_node, || {
            simsmr::run(&case.cfg)
        });
        cx.pass.vsecs += o.elapsed.as_secs_f64();
        cx.pass.add("simsmr.commits", o.commits as f64);
        cx.pass.add("simsmr.view_changes", o.view_changes as f64);
        cx.check(move |inject| {
            if inject {
                if let Some(d) = o.committed_digests.last_mut() {
                    *d ^= 1;
                }
            }
            o.result.is_ok()
                && o.check_safety().is_ok()
                && o.commits == case.cfg.entries
                && o.committed_digest() == case.digest
                && (!case.crash || o.view_changes >= 1)
        });
    }
}

/// Quorums {3, 5} × runtimes × pressure tiers, then the 3-node leader
/// crash at 2 ms under 75% pressure, repeated [`SMR_REPS`] times.
fn smr_cases(seed: u64, shards: usize) -> Vec<SmrCase> {
    let mut cases = Vec::new();
    for rep in 0..SMR_REPS {
        let rep_seed = derive(seed, rep);
        let mut push = |cfg: SmrConfig, crash: bool| {
            let mut cfg = cfg;
            cfg.seed = rep_seed;
            cfg.shards = shards;
            let digest = log_digest(rep_seed, cfg.entries);
            cases.push(SmrCase { cfg, digest, crash });
        };
        for nodes in [3, 5] {
            for p in SMR_TIERS {
                for mode in SMR_MODES {
                    push(SmrConfig::new(nodes, mode).with_pressure(p), false);
                }
            }
        }
        for mode in SMR_MODES {
            let crash = FaultPlan::new(rep_seed)
                .with_crash(NodeId(0), SimTime::ZERO + SimDuration::from_millis(2));
            push(
                SmrConfig::new(3, mode).with_pressure(75).with_faults(crash),
                true,
            );
        }
    }
    cases
}

/// Running digest of a replica that applied entries `1..=entries` in order.
fn log_digest(seed: u64, entries: u64) -> u64 {
    (1..=entries).fold(seed, |prev, i| {
        stable_hash64(prev ^ payload_digest(seed, i))
    })
}
