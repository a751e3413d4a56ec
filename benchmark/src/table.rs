//! `paper-table2`: the paper's Table II (4 VCs) regenerated through the
//! parallel engine — 2×2 and 4×4 meshes × rates 0.1/0.2/0.3 × the three
//! table policies, 18 experiments fanned across `nproc` workers exactly
//! as `sensorwise::tables::synthetic_table_jobs` does.

use crate::layers::{drive_source, set_stage_metrics, set_work_metrics};
use crate::metrics::{Metrics, Outcome, Samples};
use crate::stats::median;
use crate::util::{mix_seed, now, repeat_for, secs_since};
use noc_sim::types::NodeId;
use noc_telemetry::{StageProfiler, TelemetrySpec, WorkCounters};
use sensorwise::tables::{SyntheticRow, SyntheticTable};
use sensorwise::{
    default_jobs, parallel_map, ExperimentJob, ExperimentResult, PolicyKind, SyntheticScenario,
};
use std::fmt::Write as _;

/// The recorded reference for seed 0 under [`TableConfig::full`].
const REFERENCE: &str = include_str!("../reference/paper-table2.txt");

/// The workload's fixed configuration.
#[derive(Debug, Clone, Copy)]
pub struct TableConfig {
    /// VCs per input port (4 for Table II).
    pub vcs: usize,
    /// Warm-up cycles per experiment.
    pub warmup: u64,
    /// Measured cycles per experiment.
    pub measure: u64,
    /// Worker threads.
    pub jobs: usize,
}

impl TableConfig {
    /// The benchmarked size.
    pub fn full() -> TableConfig {
        TableConfig {
            vcs: 4,
            warmup: 1_000,
            measure: 3_000,
            jobs: default_jobs(),
        }
    }

    /// A small size, used to fill per-layer metrics this workload owns
    /// when another workload is traced.
    pub fn probe() -> TableConfig {
        TableConfig {
            warmup: 200,
            measure: 1_000,
            ..TableConfig::full()
        }
    }

    /// The configuration as a JSON object, for provenance.
    pub fn to_json(self) -> String {
        format!(
            "{{\"vcs\":{},\"cores\":[4,16],\"rates\":[0.1,0.2,0.3],\"policies\":{},\
             \"warmup\":{},\"measure\":{},\"jobs\":{}}}",
            self.vcs,
            PolicyKind::TABLE_POLICIES.len(),
            self.warmup,
            self.measure,
            self.jobs
        )
    }
}

/// The table's scenarios, in row order.
fn scenarios(vcs: usize) -> Vec<SyntheticScenario> {
    [4usize, 16]
        .into_iter()
        .flat_map(|cores| {
            [0.1, 0.2, 0.3]
                .into_iter()
                .map(move |injection_rate| SyntheticScenario {
                    cores,
                    vcs,
                    injection_rate,
                })
        })
        .collect()
}

/// The 18 experiments in `synthetic_table_jobs` order, with both the
/// process-variation and the traffic seed perturbed by `seed` (seed 0 is
/// the repository's own batch).
pub fn batch(cfg: &TableConfig, seed: u64) -> Vec<ExperimentJob> {
    scenarios(cfg.vcs)
        .iter()
        .flat_map(|s| {
            PolicyKind::TABLE_POLICIES.into_iter().map(move |policy| {
                let mut job = s.job(policy, cfg.warmup, cfg.measure);
                job.cfg.pv_seed = mix_seed(job.cfg.pv_seed, seed);
                job.traffic = job
                    .traffic
                    .with_seed(mix_seed(s.seed() ^ 0x7261_6666, seed));
                job
            })
        })
        .collect()
}

/// Simulated cycles of one job.
fn cycles(job: &ExperimentJob) -> u64 {
    job.cfg.warmup_cycles + job.cfg.measure_cycles
}

/// Folds the batch results into Table II, as `synthetic_table_jobs` does.
pub fn assemble(vcs: usize, results: &[ExperimentResult]) -> SyntheticTable {
    let rows = scenarios(vcs)
        .into_iter()
        .zip(results.chunks_exact(PolicyKind::TABLE_POLICIES.len()))
        .map(|(scenario, chunk)| {
            let duty: Vec<(PolicyKind, Vec<f64>)> = PolicyKind::TABLE_POLICIES
                .into_iter()
                .zip(chunk)
                .map(|(p, r)| (p, r.east_input(NodeId(0)).duty_percent.clone()))
                .collect();
            let md_vc = chunk[0].east_input(NodeId(0)).md_vc;
            let gap = duty[0].1[md_vc] - duty[2].1[md_vc];
            SyntheticRow {
                scenario,
                md_vc,
                duty,
                gap,
            }
        })
        .collect();
    SyntheticTable { vcs, rows }
}

/// The table's source data at full precision, one line per experiment:
/// the sampled port (duty cycles, most-degraded VC, initial `Vth`s) and
/// the network statistics. Equal strings mean bit-identical experiments.
pub fn csv(results: &[ExperimentResult]) -> String {
    let mut out = String::new();
    for r in results {
        let port = r.east_input(NodeId(0));
        let _ = writeln!(
            out,
            "{},{},{:?},{:?},{},{},{},{}",
            r.policy,
            port.md_vc,
            port.duty_percent,
            port.initial_vths,
            port.flits_received,
            r.net.packets_injected,
            r.net.packets_ejected,
            r.net.latency_sum
        );
    }
    out
}

/// One regeneration of the table, reduced to what the gate and the
/// metrics need (so a long run holds no more memory than a short one).
struct Pass {
    wall_s: f64,
    busy_s: Vec<f64>,
    /// FNV-1a over the table source data and the rendered table.
    fingerprint: u64,
}

impl Pass {
    /// Simulated kcycles per second of the worker threads' busy time: a
    /// per-thread speed that load imbalance, which moves `wall_s`, leaves
    /// alone.
    fn kcycles_per_s(&self, simulated: f64) -> f64 {
        simulated / self.busy_s.iter().sum::<f64>() / 1e3
    }
}

/// Hashes the table source data and the rendered table together.
fn fingerprint(table_csv: &str, rendered: &str) -> u64 {
    noc_workload::format::fnv64(format!("{table_csv}{rendered}").as_bytes())
}

/// Runs the batch exactly as `run_batch` does, timing each experiment,
/// and renders the table.
fn run_pass(batch: &[ExperimentJob], vcs: usize, jobs: usize) -> Pass {
    let start = now();
    let timed = parallel_map(batch, jobs, |_, job| {
        let t = now();
        let result = job.run();
        (result, secs_since(t))
    });
    let (results, busy_s): (Vec<_>, Vec<_>) = timed.into_iter().unzip();
    let rendered = assemble(vcs, &results).render();
    let wall_s = secs_since(start);
    Pass {
        wall_s,
        busy_s,
        fingerprint: fingerprint(&csv(&results), &rendered),
    }
}

/// The untimed reference: the same batch with the event trace on, run on
/// one worker. Returns the table source data, the pass fingerprint and
/// each experiment's digest.
fn reference(batch: &[ExperimentJob], vcs: usize) -> (String, u64, Vec<u64>) {
    let traced: Vec<ExperimentJob> = batch
        .iter()
        .map(|job| ExperimentJob {
            cfg: job.cfg.clone().with_telemetry(TelemetrySpec {
                trace: true,
                trace_capacity: 1,
                sample_period: 0,
            }),
            traffic: job.traffic.clone(),
        })
        .collect();
    let results = parallel_map(&traced, 1, |_, job| job.run());
    let digests = results
        .iter()
        .map(|r| r.trace_digest().unwrap_or(0))
        .collect();
    let table_csv = csv(&results);
    let print = fingerprint(&table_csv, &assemble(vcs, &results).render());
    (table_csv, print, digests)
}

/// The reference file's lines: the FNV-1a hash of the table source data,
/// then one digest per experiment.
pub fn reference_text(table_csv: &str, digests: &[u64]) -> String {
    let mut out = format!(
        "csv {:016x}\n",
        noc_workload::format::fnv64(table_csv.as_bytes())
    );
    for d in digests {
        let _ = writeln!(out, "digest {d:016x}");
    }
    out
}

/// The seed-0 reference file's contents.
pub fn record(cfg: &TableConfig) -> String {
    let (table_csv, _, digests) = reference(&batch(cfg, 0), cfg.vcs);
    reference_text(&table_csv, &digests)
}

/// The workload's set-up: the 18 jobs built and each made into a
/// ready-to-run experiment (network, traffic source and NBTI monitor
/// constructed, which is all a zero-cycle run of it does). Returns the
/// seconds it took and the batch.
fn set_up(cfg: &TableConfig, seed: u64) -> (f64, Vec<ExperimentJob>) {
    let t = now();
    let jobs = batch(cfg, seed);
    for job in &jobs {
        let empty = ExperimentJob {
            cfg: job.cfg.clone().with_cycles(0, 0),
            traffic: job.traffic.clone(),
        };
        std::hint::black_box(empty.run());
    }
    (secs_since(t), jobs)
}

/// The untraced run: set-up, the timed regenerations, the gate.
pub fn run(cfg: &TableConfig, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    // Every regeneration sets up afresh, as a user's does, so the set-up
    // samples spread over the whole run as the passes do.
    let (passes, peak_rss_mb) = repeat_for(seconds, 3, || {
        let (setup_s, jobs) = set_up(cfg, seed);
        (setup_s, run_pass(&jobs, cfg.vcs, cfg.jobs))
    });
    let jobs = batch(cfg, seed);
    let mut samples = Samples {
        peak_rss_mb,
        ..Samples::default()
    };

    // Gate, untimed: every regeneration must equal the traced one-worker
    // reference, and seed 0 must equal the recorded reference.
    let (ref_csv, ref_print, digests) = reference(&jobs, cfg.vcs);
    let simulated = jobs.iter().map(cycles).sum::<u64>() as f64;
    for (i, (setup_s, pass)) in passes.iter().enumerate() {
        samples.setup_s.push(*setup_s);
        if pass.fingerprint == ref_print {
            samples.wall_s.push(pass.wall_s);
            samples
                .sim_kcycles_per_s
                .push(pass.kcycles_per_s(simulated));
            out.record(None);
        } else {
            out.record(Some(format!("pass {i}: table differs from the reference")));
        }
    }
    out.check(
        "every experiment traced",
        digests.iter().all(|&d| d != 0),
        true,
    );
    if seed == 0 {
        out.check(
            "recorded seed-0 reference",
            reference_text(&ref_csv, &digests).as_str(),
            REFERENCE,
        );
    }
    samples.report("paper-table2", &mut out);
    out
}

/// One profiled regeneration, with the merged stage profile and the
/// summed work counters.
fn run_profiled_pass(
    batch: &[ExperimentJob],
    vcs: usize,
    jobs: usize,
) -> (Pass, StageProfiler, WorkCounters) {
    let start = now();
    let timed = parallel_map(batch, jobs, |_, job| {
        let t = now();
        let (result, prof) = job.run_profiled();
        (result, prof, secs_since(t))
    });
    let wall_s = secs_since(start);
    let mut merged = StageProfiler::new();
    let mut work = WorkCounters::default();
    let mut busy_s = Vec::new();
    let mut results = Vec::new();
    for (result, prof, busy) in timed {
        merged.merge(&prof);
        work += result.work;
        busy_s.push(busy);
        results.push(result);
    }
    let rendered = assemble(vcs, &results).render();
    let pass = Pass {
        wall_s,
        busy_s,
        fingerprint: fingerprint(&csv(&results), &rendered),
    };
    (pass, merged, work)
}

/// Host ns per cycle of each job's traffic source driven on its own over
/// the cycles the experiment simulates.
fn source_ns_per_cycle(batch: &[ExperimentJob]) -> f64 {
    let secs: f64 = batch
        .iter()
        .map(|job| drive_source(job.traffic.build(&job.cfg.noc).as_mut(), cycles(job)))
        .sum();
    secs * 1e9 / batch.iter().map(cycles).sum::<u64>() as f64
}

/// The traced run: untraced and profiled regenerations in turn.
///
/// # Errors
///
/// A profiled regeneration differs from the plain one.
pub fn trace(cfg: &TableConfig, seed: u64, seconds: f64) -> Result<Metrics, String> {
    let jobs = batch(cfg, seed);
    let total_cycles: f64 = jobs.iter().map(|j| cycles(j) as f64).sum();
    let router_cycles: f64 = jobs
        .iter()
        .map(|j| (cycles(j) * j.cfg.noc.num_nodes() as u64) as f64)
        .sum();
    let mut efficiency = Vec::new();
    let mut slowest = Vec::new();
    let mut overhead = Vec::new();
    let mut plain_ns = Vec::new();
    let mut profiled_ns = Vec::new();
    let mut merged = StageProfiler::new();
    let mut work = WorkCounters::default();
    let (pairs, _) = repeat_for(seconds, 1, || {
        let plain = run_pass(&jobs, cfg.vcs, cfg.jobs);
        let profiled = run_profiled_pass(&jobs, cfg.vcs, cfg.jobs);
        (plain, profiled)
    });
    for (plain, (profiled, prof, w)) in &pairs {
        // The profiler observes without influencing: both tables match.
        if profiled.fingerprint != plain.fingerprint {
            return Err("the profiled table differs from the plain one".to_string());
        }
        let (wall, busy) = (profiled.wall_s, &profiled.busy_s);
        let plain_busy: f64 = plain.busy_s.iter().sum();
        efficiency.push(plain_busy / (plain.wall_s * cfg.jobs as f64));
        slowest.push(plain.busy_s.iter().copied().fold(0.0, f64::max) / plain.wall_s);
        overhead.push(wall / plain.wall_s);
        plain_ns.push(plain_busy * 1e9 / total_cycles);
        profiled_ns.push(busy.iter().sum::<f64>() * 1e9 / total_cycles);
        merged.merge(prof);
        work = *w;
    }
    let mut m = Metrics::default();
    let plain = median(&plain_ns);
    let profiled_cycles = total_cycles * pairs.len() as f64;
    set_stage_metrics(
        &mut m,
        &merged,
        profiled_cycles,
        median(&profiled_ns),
        plain,
    );
    set_work_metrics(&mut m, &work, total_cycles);
    m.set(
        "noc-sim.ns_per_router_cycle",
        plain * total_cycles / router_cycles,
    );
    m.set("sensorwise.parallel_efficiency", median(&efficiency));
    m.set("sensorwise.slowest_experiment_share", median(&slowest));
    m.set(
        "noc-traffic.source_ns_per_cycle",
        source_ns_per_cycle(&jobs),
    );
    m.set("benchmark.tracing_overhead", median(&overhead));
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TableConfig {
        TableConfig {
            vcs: 4,
            warmup: 100,
            measure: 400,
            jobs: 2,
        }
    }

    #[test]
    fn seed_zero_is_the_papers_own_table() {
        let cfg = tiny();
        let jobs = batch(&cfg, 0);
        let ours = sensorwise::run_batch(&jobs, 2);
        let paper = sensorwise::tables::synthetic_table_jobs(cfg.vcs, cfg.warmup, cfg.measure, 2);
        assert_eq!(assemble(cfg.vcs, &ours).render(), paper.render());
    }

    #[test]
    fn set_up_takes_far_longer_than_the_timer_resolution() {
        let (secs, jobs) = set_up(&TableConfig::full(), 0);
        assert_eq!(jobs.len(), 18);
        assert!(secs > 1000.0 * crate::util::timer_resolution_s(), "{secs}");
    }

    #[test]
    fn load_imbalance_moves_the_wall_but_not_the_throughput() {
        let balanced = Pass {
            wall_s: 1.0,
            busy_s: vec![1.0, 1.0],
            fingerprint: 0,
        };
        let skewed = Pass {
            wall_s: 1.5,
            busy_s: balanced.busy_s.clone(),
            fingerprint: 0,
        };
        assert_eq!(balanced.kcycles_per_s(4e3), skewed.kcycles_per_s(4e3));
        assert_eq!(balanced.kcycles_per_s(4e3), 2.0);
    }

    #[test]
    fn changing_the_seed_changes_the_inputs_but_not_the_shape() {
        let cfg = tiny();
        let a = batch(&cfg, 1);
        let b = batch(&cfg, 2);
        assert_eq!(a.len(), 18);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.cfg.pv_seed != y.cfg.pv_seed));
        assert_ne!(format!("{:?}", a[0].traffic), format!("{:?}", b[0].traffic));
        assert_ne!(
            run_pass(&a, cfg.vcs, 2).fingerprint,
            run_pass(&b, cfg.vcs, 2).fingerprint
        );
    }

    #[test]
    fn the_table_is_the_same_for_every_worker_count_and_matches_the_reference() {
        let cfg = tiny();
        let jobs = batch(&cfg, 3);
        let one = run_pass(&jobs, cfg.vcs, 1);
        let two = run_pass(&jobs, cfg.vcs, 2);
        assert_eq!(one.fingerprint, two.fingerprint);
        let (_, print, digests) = reference(&jobs, cfg.vcs);
        assert_eq!(print, two.fingerprint);
        assert!(digests.iter().all(|&d| d != 0));
    }
}
