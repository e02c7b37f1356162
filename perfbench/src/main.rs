//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's notes, every metric with its unit, and as the last
//! line one JSON object: `{"correct","attempted","failed","metrics"}`.
//! Traced runs also write their spans to `out/` beside this package.

use std::process::ExitCode;

use perfbench::{measure, Opts, Workload};

/// Passes an untraced run makes even past its time budget, so every
/// end-to-end median has at least this many samples. A traced round is
/// two or three passes plus a probe, so traced runs make at least one.
const MIN_PASSES: usize = 3;

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: Workload::WcFits,
        seed: 1,
        seconds: 10.0,
        trace: false,
        min_passes: MIN_PASSES,
        inject_fault: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => opts.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad value for {flag}: {value}"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    if opts.trace {
        opts.min_passes = 1;
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(|w| w.name()).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut report = measure(&opts);
    if let Some(spans) = &report.spans_jsonl {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "spans-{}-{}.jsonl",
            opts.workload.name(),
            opts.seed
        ));
        match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, spans)) {
            Ok(()) => report.notes.push(format!("spans: {}", path.display())),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    for line in &report.notes {
        println!("{line}");
    }
    for (name, value, unit) in &report.metrics {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
