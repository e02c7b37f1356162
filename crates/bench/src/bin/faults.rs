//! Chaos ablation (§6.1 format): WC and II under escalating fault
//! schedules, regular vs ITask. The regular engine has no recovery
//! plane — a node crash or an unlucky transient kills the job — while
//! the IRS retries transient I/O, rebuilds corrupted spills from
//! lineage and requeues a dead node's partitions, so ITask must survive
//! every schedule with results identical to its fault-free run (checked
//! here against the recovery counters) at a bounded overhead.
//!
//! Usage: `faults [--jobs N] [--wc-only|--ii-only]`. Output is
//! deterministic: all virtual time, seeded workloads, seeded fault
//! schedules.

use apps::hyracks_apps::{ii, wc, HyracksParams};
use apps::RunSummary;
use itask_bench::chaos::{params, schedules, SIZE};
use itask_bench::sweep::{self, SweepLog};
use itask_bench::{cols, print_table};
use simcore::SimDuration;

fn outcome_cell<T>(s: &RunSummary<T>, clean_secs: f64) -> String {
    match &s.result {
        Ok(_) => {
            let over = if clean_secs > 0.0 {
                (s.paper_seconds() / clean_secs - 1.0) * 100.0
            } else {
                0.0
            };
            format!("survives {:+.1}%", over)
        }
        Err(e) => format!("DIES ({})", short_err(e)),
    }
}

fn short_err(e: &simcore::SimError) -> String {
    let s = e.to_string();
    match s.split_once(':') {
        Some((head, _)) => head.to_string(),
        None => s,
    }
}

fn recovery_cell<T>(s: &RunSummary<T>) -> String {
    let r = &s.report;
    format!(
        "{:.0} retries / {:.0} rebuilds / {:.0} requeued",
        r.counter("itask.transient_io_retries"),
        r.counter("itask.corruption_recoveries"),
        r.counter("itask.crash_requeued_partitions"),
    )
}

fn ablate<T: Ord + std::fmt::Debug + Send>(
    jobs: usize,
    log: &mut SweepLog,
    key: &str,
    name: &str,
    run_regular: impl Fn(&HyracksParams) -> RunSummary<T> + Sync,
    run_itask: impl Fn(&HyracksParams) -> RunSummary<T> + Sync,
) {
    // Phase 1: the fault-free runs. The schedules depend on their
    // elapsed times (the crash lands mid-run), so this is a barrier.
    let (run_regular, run_itask) = (&run_regular, &run_itask);
    let clean = sweep::run_all(
        jobs,
        vec![
            sweep::spec(format!("faults {key} clean reg"), move || {
                run_regular(&params())
            }),
            sweep::spec(format!("faults {key} clean itask"), move || {
                run_itask(&params())
            }),
        ],
    );
    log.absorb(&clean);
    let mut clean = clean.into_iter().map(|o| o.result);
    let clean_reg = clean.next().expect("clean regular run");
    let clean_it = clean.next().expect("clean itask run");
    let reg_secs = clean_reg.paper_seconds();
    let it_secs = clean_it.paper_seconds();
    let mut clean_out = clean_it.result.expect("fault-free ITask run must complete");
    clean_out.sort();
    // The crash must land inside *both* engines' lifetimes, so aim at
    // half of the shorter fault-free run.
    let mid = SimDuration::from_nanos(
        clean_it
            .report
            .elapsed
            .min(clean_reg.report.elapsed)
            .as_nanos()
            / 2,
    );

    // Phase 2: every (schedule, engine) run is independent.
    let mut specs: Vec<sweep::RunSpec<RunSummary<T>>> = Vec::new();
    for (label, plan) in schedules(mid) {
        let reg_plan = plan.clone();
        specs.push(sweep::spec(
            format!("faults {key} {label} reg"),
            move || {
                let mut p = params();
                p.fault_plan = Some(reg_plan);
                run_regular(&p)
            },
        ));
        specs.push(sweep::spec(
            format!("faults {key} {label} itask"),
            move || {
                let mut p = params();
                p.fault_plan = Some(plan);
                run_itask(&p)
            },
        ));
    }
    let out = sweep::run_all(jobs, specs);
    log.absorb(&out);
    let mut runs = out.into_iter().map(|o| o.result);

    let mut rows = Vec::new();
    for (label, _) in schedules(mid) {
        let reg = runs.next().expect("regular schedule run");
        let it = runs.next().expect("itask schedule run");
        let identical = match &it.result {
            Ok(out) => {
                let mut out = out.iter().collect::<Vec<_>>();
                out.sort();
                let mut clean = clean_out.iter().collect::<Vec<_>>();
                clean.sort();
                if out == clean {
                    "bit-identical"
                } else {
                    "MISMATCH"
                }
            }
            Err(_) => "-",
        };
        rows.push(vec![
            label.to_string(),
            outcome_cell(&reg, reg_secs),
            outcome_cell(&it, it_secs),
            identical.to_string(),
            recovery_cell(&it),
        ]);
    }
    print_table(
        &format!("Chaos ablation: {name} ({SIZE:?}, 10 nodes, escalating schedules)"),
        &cols(&[
            "schedule",
            "regular",
            "ITask",
            "results",
            "IRS recovery (io/corrupt/crash)",
        ]),
        &rows,
    );
}

fn main() {
    let mut h = sweep::harness();
    let jobs = h.jobs;
    let wc_only = h.flag("--wc-only");
    let ii_only = h.flag("--ii-only");
    let mut log = h.log("faults");
    if !ii_only {
        ablate(
            jobs,
            &mut log,
            "wc",
            "WC",
            |p| wc::run_regular(SIZE, p),
            |p| wc::run_itask(SIZE, p),
        );
    }
    if !wc_only {
        ablate(
            jobs,
            &mut log,
            "ii",
            "II",
            |p| ii::run_regular(SIZE, p),
            |p| ii::run_itask(SIZE, p),
        );
    }
    log.finish();
}
