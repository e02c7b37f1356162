//! Wall-clock trajectory tracking for `benchctl`.
//!
//! Every sweep binary appends its per-run wall times to
//! `bench_results/BENCH_sweeps.json`. `benchctl record` folds that file
//! into a compact committed baseline — one `(bin, label) → wall_ms`
//! entry, the median when a label repeats — and `benchctl gate`
//! compares a fresh sweeps file against the baseline, failing when any
//! run regressed past a tolerance factor or when a baseline label
//! disappeared (renamed labels must be re-recorded, not silently
//! dropped: label drift hides regressions).
//!
//! Wall times are host-dependent, so the gate is a *coarse* regression
//! tripwire (the CI default tolerance is generous); byte-exactness is
//! the goldens' job, not this one's.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use simcore::tracer::json_escape;

use crate::tracefmt::{parse, Json};

/// One `(bin, label)` wall-time entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Entry {
    /// The sweep binary the run belongs to.
    pub bin: String,
    /// The run's sweep label.
    pub label: String,
    /// Median wall milliseconds across that label's runs.
    pub wall_ms: u64,
}

/// Lower-median (element `(n-1)/2` of the sorted list): deterministic
/// for even counts, exact for odd.
fn median(mut v: Vec<u64>) -> u64 {
    v.sort_unstable();
    v[(v.len() - 1) / 2]
}

/// Folds a `BENCH_sweeps.json` document into per-`(bin, label)` median
/// wall times, in `(bin, label)` order.
pub fn parse_sweeps(text: &str) -> Result<Vec<Entry>, String> {
    let doc = parse(text)?;
    let binaries = doc.get("binaries").ok_or("missing \"binaries\" object")?;
    let Json::Obj(bins) = binaries else {
        return Err("\"binaries\" is not an object".into());
    };
    let mut samples: BTreeMap<(String, String), Vec<u64>> = BTreeMap::new();
    for (bin, body) in bins {
        let Some(runs) = body.get("runs").and_then(Json::as_arr) else {
            continue;
        };
        for run in runs {
            let label = run
                .get("label")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{bin}: run without a label"))?;
            let wall = run
                .get("wall_ms")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{bin}: run {label:?} without wall_ms"))?;
            samples
                .entry((bin.clone(), label.to_string()))
                .or_default()
                .push(wall);
        }
    }
    Ok(samples
        .into_iter()
        .map(|((bin, label), walls)| Entry {
            bin,
            label,
            wall_ms: median(walls),
        })
        .collect())
}

/// Renders a trajectory baseline as pretty-printed JSON (one entry per
/// line, `(bin, label)` order — diffs in review stay line-per-run).
pub fn render(entries: &[Entry]) -> String {
    let mut out = String::from("{\n  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"bin\":\"{}\",\"label\":\"{}\",\"wall_ms\":{}}}{comma}",
            json_escape(&e.bin),
            json_escape(&e.label),
            e.wall_ms,
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Loads a committed `BENCH_trajectory.json` baseline.
pub fn parse_trajectory(text: &str) -> Result<Vec<Entry>, String> {
    let doc = parse(text)?;
    let entries = doc
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("missing \"entries\" array")?;
    entries
        .iter()
        .map(|e| {
            Ok(Entry {
                bin: e
                    .get("bin")
                    .and_then(Json::as_str)
                    .ok_or("entry without bin")?
                    .to_string(),
                label: e
                    .get("label")
                    .and_then(Json::as_str)
                    .ok_or("entry without label")?
                    .to_string(),
                wall_ms: e
                    .get("wall_ms")
                    .and_then(Json::as_u64)
                    .ok_or("entry without wall_ms")?,
            })
        })
        .collect()
}

/// The gate's verdict: the rendered report plus how many checks failed.
pub struct GateOutcome {
    /// Human-readable per-entry lines plus a trailing summary.
    pub report: String,
    /// Regressions plus missing labels; `0` means the gate passes.
    pub failures: usize,
}

/// Compares a fresh sweeps fold against the committed baseline.
///
/// Per baseline entry: fail when the current median exceeds
/// `baseline × tolerance`, and *hard*-fail when the label is missing
/// from the current sweeps (drift — a renamed or deleted run must be
/// re-recorded deliberately). New labels only present in the current
/// sweeps are reported but never fail: adding coverage is not a
/// regression.
pub fn gate(baseline: &[Entry], current: &[Entry], tolerance: f64) -> GateOutcome {
    let cur: BTreeMap<(&str, &str), u64> = current
        .iter()
        .map(|e| ((e.bin.as_str(), e.label.as_str()), e.wall_ms))
        .collect();
    let mut report = String::new();
    let mut failures = 0usize;
    for e in baseline {
        let key = (e.bin.as_str(), e.label.as_str());
        match cur.get(&key) {
            Some(&now) => {
                let base = e.wall_ms.max(1);
                let ratio = now as f64 / base as f64;
                let ok = now as f64 <= base as f64 * tolerance;
                if !ok {
                    failures += 1;
                }
                let _ = writeln!(
                    report,
                    "{} {}/{} {}ms -> {now}ms ({ratio:.2}x, tolerance {tolerance:.2}x)",
                    if ok { "ok  " } else { "FAIL" },
                    e.bin,
                    e.label,
                    e.wall_ms,
                );
            }
            None => {
                failures += 1;
                let _ = writeln!(
                    report,
                    "FAIL {}/{} {}ms -> missing from current sweeps (label drift)",
                    e.bin, e.label, e.wall_ms,
                );
            }
        }
    }
    let known: BTreeMap<(&str, &str), ()> = baseline
        .iter()
        .map(|e| ((e.bin.as_str(), e.label.as_str()), ()))
        .collect();
    let mut new = 0usize;
    for e in current {
        if !known.contains_key(&(e.bin.as_str(), e.label.as_str())) {
            new += 1;
        }
    }
    let _ = writeln!(
        report,
        "gate: {} checked, {failures} failed, {new} new label(s) not in baseline",
        baseline.len(),
    );
    GateOutcome { report, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweeps(wall_scale: u64) -> String {
        format!(
            concat!(
                "{{\"host_cores\":8,\"binaries\":{{",
                "\"faults\":{{\"jobs\":2,\"total_wall_ms\":{a},\"runs\":[",
                "{{\"label\":\"faults wc clean reg\",\"wall_ms\":{b}}},",
                "{{\"label\":\"faults wc clean itask\",\"wall_ms\":{c}}},",
                "{{\"label\":\"faults wc clean itask\",\"wall_ms\":{d}}}",
                "]}},",
                "\"smr\":{{\"jobs\":1,\"total_wall_ms\":{e},\"runs\":[",
                "{{\"label\":\"smr steady\",\"wall_ms\":{e}}}",
                "]}}}}}}"
            ),
            a = 150 * wall_scale,
            b = 50 * wall_scale,
            c = 40 * wall_scale,
            d = 60 * wall_scale,
            e = 100 * wall_scale,
        )
    }

    #[test]
    fn parse_sweeps_takes_label_medians() {
        let entries = parse_sweeps(&sweeps(1)).unwrap();
        assert_eq!(entries.len(), 3);
        // Repeated label folds to its (lower) median.
        let itask = entries
            .iter()
            .find(|e| e.label == "faults wc clean itask")
            .unwrap();
        assert_eq!(itask.wall_ms, 40);
        assert_eq!(entries[0].bin, "faults");
        assert_eq!(entries[2].bin, "smr");
    }

    #[test]
    fn trajectory_round_trips_through_render() {
        let entries = parse_sweeps(&sweeps(1)).unwrap();
        let doc = render(&entries);
        assert_eq!(parse_trajectory(&doc).unwrap(), entries);
        // Bytes are deterministic.
        assert_eq!(doc, render(&entries));
    }

    #[test]
    fn gate_passes_within_tolerance() {
        let base = parse_sweeps(&sweeps(1)).unwrap();
        let current = parse_sweeps(&sweeps(2)).unwrap();
        let g = gate(&base, &current, 5.0);
        assert_eq!(g.failures, 0, "{}", g.report);
        assert!(
            g.report.contains("ok   smr/smr steady 100ms -> 200ms"),
            "{}",
            g.report
        );
    }

    #[test]
    fn gate_fails_on_synthetic_regression() {
        let base = parse_sweeps(&sweeps(1)).unwrap();
        // A 100x slowdown must trip any sane tolerance.
        let current = parse_sweeps(&sweeps(100)).unwrap();
        let g = gate(&base, &current, 5.0);
        assert_eq!(g.failures, 3, "{}", g.report);
        assert!(
            g.report.contains("FAIL faults/faults wc clean reg"),
            "{}",
            g.report
        );
        assert!(
            g.report.contains("(100.00x, tolerance 5.00x)"),
            "{}",
            g.report
        );
    }

    #[test]
    fn gate_hard_fails_on_label_drift() {
        let base = parse_sweeps(&sweeps(1)).unwrap();
        let mut current = parse_sweeps(&sweeps(1)).unwrap();
        current.retain(|e| e.bin != "smr");
        let g = gate(&base, &current, 5.0);
        assert_eq!(g.failures, 1, "{}", g.report);
        assert!(
            g.report
                .contains("missing from current sweeps (label drift)"),
            "{}",
            g.report
        );
    }

    #[test]
    fn new_labels_never_fail_the_gate() {
        let base: Vec<Entry> = Vec::new();
        let current = parse_sweeps(&sweeps(1)).unwrap();
        let g = gate(&base, &current, 5.0);
        assert_eq!(g.failures, 0);
        assert!(
            g.report.contains("3 new label(s) not in baseline"),
            "{}",
            g.report
        );
    }
}
