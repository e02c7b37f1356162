//! The chaos ablation's fixed inputs, shared by the `faults` binary and
//! the tests that replay its sweep in-process.

use apps::hyracks_apps::HyracksParams;
use simcore::{ByteSize, FaultPlan, NodeId, SimDuration, SimTime};
use workloads::webmap::WebmapSize;

/// Webmap size every chaos run uses.
pub const SIZE: WebmapSize = WebmapSize::G3;

/// Engine parameters: the default cluster on a 64 MiB heap per node.
pub fn params() -> HyracksParams {
    HyracksParams {
        heap_per_node: ByteSize::mib(64),
        ..Default::default()
    }
}

/// The escalating schedules. `mid_run` is half the program's fault-free
/// elapsed time — where the node crash lands.
pub fn schedules(mid_run: SimDuration) -> Vec<(&'static str, FaultPlan)> {
    let crash_at = SimTime::ZERO + mid_run;
    let slow_from = SimTime::ZERO + SimDuration::from_nanos(mid_run.as_nanos() / 2);
    let slow_until = slow_from + mid_run;
    vec![
        ("fault-free", FaultPlan::new(11)),
        (
            "transient I/O (20‰)",
            FaultPlan::new(11).with_disk_transients(20),
        ),
        (
            "+ spill corruption (10‰)",
            FaultPlan::new(11)
                .with_disk_transients(20)
                .with_corruption(10),
        ),
        (
            "+ net slowdown (4x window)",
            FaultPlan::new(11)
                .with_disk_transients(20)
                .with_corruption(10)
                .with_slowdown(slow_from, slow_until, 4.0),
        ),
        (
            "+ node crash (mid-run)",
            FaultPlan::new(11)
                .with_disk_transients(20)
                .with_corruption(10)
                .with_slowdown(slow_from, slow_until, 4.0)
                .with_crash(NodeId(3), crash_at),
        ),
        (
            "full chaos (50‰, 2 crashes)",
            FaultPlan::new(11)
                .with_disk_transients(50)
                .with_corruption(25)
                .with_slowdown(slow_from, slow_until, 4.0)
                .with_crash(NodeId(3), crash_at)
                .with_crash(NodeId(7), SimTime::ZERO + mid_run + mid_run),
        ),
    ]
}
