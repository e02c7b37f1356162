//! Host fingerprint and process memory, printed with every result so
//! numbers from different hosts or builds are reported, never mixed.

use std::path::{Path, PathBuf};

/// Where the benchmark's package lives; the repository root is its parent.
const PACKAGE_DIR: &str = env!("CARGO_MANIFEST_DIR");

/// What a result was measured on.
#[derive(Clone, Debug)]
pub struct Host {
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo` (`unknown` elsewhere).
    pub cpu: String,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// FNV-1a digest of the simulator and benchmark sources. It stands
    /// in for the commit: the benchmark may run from a plain checkout
    /// that is not a git repository.
    pub source: String,
}

impl Host {
    /// Probes the current host and build.
    pub fn probe() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            source: source_digest(),
        }
    }

    /// One-line rendering: `nproc=2 cpu="..." profile=release source=...`.
    pub fn line(&self) -> String {
        format!(
            "nproc={} cpu=\"{}\" profile={} source={}",
            self.nproc, self.cpu, self.profile, self.source
        )
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Digest over every `.rs` and `Cargo.toml` under the repository's
/// `crates/` and the benchmark's own `src/`, in sorted path order.
fn source_digest() -> String {
    let pkg = Path::new(PACKAGE_DIR);
    let Some(root) = pkg.parent() else {
        return "unknown".into();
    };
    let mut files = Vec::new();
    collect(&root.join("crates"), &mut files);
    collect(&pkg.join("src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f);
        let Ok(bytes) = std::fs::read(f) else {
            continue;
        };
        for b in rel.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    if files.is_empty() {
        "unknown".into()
    } else {
        format!("{h:016x}")
    }
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs")
            || p.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(p);
        }
    }
}
