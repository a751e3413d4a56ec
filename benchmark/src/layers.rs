//! Per-layer metrics shared by the workloads' traced runs.

use crate::metrics::Metrics;
use crate::util::{now, secs_since};
use noc_telemetry::{Stage, StageProfiler, WorkCounters};
use noc_traffic::source::TrafficSource;

/// Records the stage split of `prof` over `cycles` profiled cycles and the
/// engine's remainder, given the profiled and the unprofiled host ns per
/// simulated cycle.
pub fn set_stage_metrics(
    m: &mut Metrics,
    prof: &StageProfiler,
    cycles: f64,
    profiled_ns: f64,
    plain_ns: f64,
) {
    let per_cycle = |stage: Stage| prof.stage(stage).sum() as f64 / cycles;
    m.set("noc-sim.begin_cycle_ns", per_cycle(Stage::BeginCycle));
    m.set("noc-sim.routing_ns", per_cycle(Stage::Routing));
    m.set("noc-sim.allocation_ns", per_cycle(Stage::Allocation));
    m.set("noc-sim.traversal_ns", per_cycle(Stage::Traversal));
    m.set("noc-sim.finish_cycle_ns", per_cycle(Stage::FinishCycle));
    m.set("sensorwise.controller_ns", per_cycle(Stage::Controller));
    // Routing, allocation and traversal nest inside the two half-cycles;
    // the remainder is injection, MD election and the NBTI monitor.
    let attributed: f64 = [Stage::BeginCycle, Stage::Controller, Stage::FinishCycle]
        .into_iter()
        .map(per_cycle)
        .sum();
    m.set("sensorwise.unattributed_ns", profiled_ns - attributed);
    m.set("sensorwise.profiler_overhead", profiled_ns / plain_ns);
}

/// Records the deterministic work counts per simulated cycle.
pub fn set_work_metrics(m: &mut Metrics, work: &WorkCounters, cycles: f64) {
    m.set("noc-sim.work_per_cycle", work.total() as f64 / cycles);
    m.set(
        "sensorwise.policy_evals_per_cycle",
        work.policy_evaluations as f64 / cycles,
    );
    m.set(
        "sensorwise.sensor_reads_per_cycle",
        work.sensor_reads as f64 / cycles,
    );
}

/// Drives `source` on its own over `cycles` cycles, as the experiment loop
/// would; returns the host seconds it took.
pub fn drive_source(source: &mut dyn TrafficSource, cycles: u64) -> f64 {
    let mut packets = Vec::new();
    let t = now();
    for cycle in 0..cycles {
        packets.clear();
        source.emit(cycle, &mut packets);
    }
    secs_since(t)
}
