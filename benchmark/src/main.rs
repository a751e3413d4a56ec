//! The repository's benchmark: three workloads, each measured end to end
//! (`--trace 0`) or layer by layer (`--trace 1`).
//!
//! Usage: `nbti-noc-benchmark --workload W --seed N --seconds S --trace 0|1
//! [--work-dir DIR]`, with `W` one of `paper-table2`,
//! `torus-hotspot-replay`, `campaign-remote`. The last line of standard
//! output is the result object; progress and failures go to standard
//! error. `--record-reference` rewrites the seed-0 files in `reference/`
//! instead.

mod campaign;
mod layers;
mod metrics;
mod replay;
mod stats;
mod table;
mod util;

use campaign::CampaignConfig;
use metrics::{Metrics, Outcome, END_TO_END, PER_LAYER};
use replay::ReplayConfig;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use table::TableConfig;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["paper-table2", "torus-hotspot-replay", "campaign-remote"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut work_dir = PathBuf::from(".bench_work");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1 (got {other})")),
                };
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        work_dir,
    })
}

/// The full configuration of a workload, for provenance.
fn config_json(workload: &str) -> String {
    match workload {
        "paper-table2" => TableConfig::full().to_json(),
        "torus-hotspot-replay" => ReplayConfig::full().to_json(),
        _ => CampaignConfig::full().to_json(),
    }
}

/// The untraced run of one workload.
fn run_untraced(args: &Args) -> Outcome {
    let work = &args.work_dir;
    match args.workload.as_str() {
        "paper-table2" => table::run(&TableConfig::full(), args.seed, args.seconds),
        "torus-hotspot-replay" => replay::run(&ReplayConfig::full(), args.seed, args.seconds, work),
        _ => campaign::run(&CampaignConfig::full(), args.seed, args.seconds, work),
    }
}

/// The per-layer metrics one workload's traced routine yields; `full`
/// selects the benchmarked size, otherwise the small probe size.
fn trace_one(
    workload: &str,
    seed: u64,
    seconds: f64,
    full: bool,
    work: &Path,
) -> Result<Metrics, String> {
    match (workload, full) {
        ("paper-table2", true) => table::trace(&TableConfig::full(), seed, seconds),
        ("paper-table2", false) => table::trace(&TableConfig::probe(), seed, 0.0),
        ("torus-hotspot-replay", true) => replay::trace(&ReplayConfig::full(), seed, seconds, work),
        ("torus-hotspot-replay", false) => replay::trace(&ReplayConfig::probe(), seed, 0.0, work),
        (_, true) => campaign::trace(&CampaignConfig::full(), seed, seconds, work),
        (_, false) => campaign::trace(&CampaignConfig::probe(), seed, 0.0, work),
    }
}

/// The traced run: the workload's own routine at full size supplies every
/// layer it loads; the layers it never reaches are filled from short
/// probes of the workloads that do, so every traced run reports the whole
/// catalog.
fn run_traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let own = trace_one(
        &args.workload,
        args.seed,
        args.seconds,
        true,
        &args.work_dir,
    );
    out.record(own.as_ref().err().cloned());
    if let Ok(m) = own {
        out.metrics = m;
    }
    for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
        if out.metrics.missing(PER_LAYER).is_empty() {
            break;
        }
        let probe = trace_one(other, args.seed, 0.0, false, &args.work_dir);
        out.record(probe.as_ref().err().map(|e| format!("{other} probe: {e}")));
        if let Ok(m) = probe {
            out.metrics.fill_from(&m);
        }
    }
    out
}

/// Writes the seed-0 reference files of every workload into the
/// benchmark's `reference/` directory (a maintenance command: run it when
/// a workload's configuration or the simulator's semantics change on
/// purpose, and review the diff).
fn record_references() -> Result<(), String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference");
    let files = [
        ("paper-table2", table::record(&TableConfig::full())),
        (
            "torus-hotspot-replay",
            replay::record(&ReplayConfig::full()),
        ),
        (
            "campaign-remote",
            campaign::record(&CampaignConfig::full())?,
        ),
    ];
    for (name, text) in files {
        let path = dir.join(format!("{name}.txt"));
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

/// The lowest median host probe reading of a run seen on the 2-vCPU
/// x86-64 VM the bounds were set on. That host was busy with neighbours
/// throughout, so a calmer host reads lower and this flags too few runs.
const CALM_PROBE_MS: f64 = 6.1;

/// How much slower than [`CALM_PROBE_MS`] a run's median probe reading may
/// be before the run is flagged as measured on a slow host: the widest
/// bound in `BENCHMARK.json`.
const SLOW_HOST_RATIO: f64 = 1.25;

/// The `host:` line: the host probe readings taken between the run's
/// operations, and whether the run was measured on a slow host. A flagged
/// run still reports its metrics: the flag says why they moved, it does
/// not hide them.
fn host_line(readings: &[f64]) -> String {
    let (fastest, typical) = (stats::min(readings), stats::median(readings));
    let slow = typical > SLOW_HOST_RATIO * CALM_PROBE_MS;
    if slow {
        eprintln!(
            "warning: slow host: the probe read {typical:.3} ms (median of {}), \
             {CALM_PROBE_MS} ms when calm",
            readings.len()
        );
    }
    format!(
        "host: {{\"probe_ms_median\":{typical},\"probe_ms_min\":{fastest},\
         \"readings\":{},\"calm_probe_ms\":{CALM_PROBE_MS},\"slow\":{slow}}}",
        readings.len()
    )
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--record-reference") {
        return match record_references() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("error: work dir {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    println!(
        "config: {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\
         \"workload_config\":{}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sensorwise::default_jobs(),
        config_json(&args.workload)
    );
    let (outcome, catalog) = if args.trace {
        (run_traced(&args), PER_LAYER)
    } else {
        (run_untraced(&args), END_TO_END)
    };
    println!("{}", host_line(&util::probe_readings()));
    for failure in &outcome.failures {
        eprintln!("failed: {failure}");
    }
    let missing = outcome.metrics.missing(catalog);
    if !missing.is_empty() {
        eprintln!("missing metrics: {}", missing.join(", "));
    }
    println!("{}", outcome.to_json(catalog));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn work_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("benchmark-{name}-{}", std::process::id()))
    }

    #[test]
    fn every_seed_yields_every_end_to_end_metric_and_passes_the_gate() {
        let table = TableConfig {
            warmup: 100,
            measure: 300,
            ..TableConfig::full()
        };
        let replay = ReplayConfig {
            cycles: 300,
            ..ReplayConfig::full()
        };
        let campaign = CampaignConfig {
            warmup: 50,
            measure: 200,
            epochs: 2,
            min_pairs: 1,
            ..CampaignConfig::full()
        };
        let work = work_dir("end-to-end");
        for seed in [1, 2] {
            let outcomes = [
                table::run(&table, seed, 0.0),
                replay::run(&replay, seed, 0.0, &work),
                campaign::run(&campaign, seed, 0.0, &work),
            ];
            for (name, o) in WORKLOADS.iter().zip(&outcomes) {
                assert_eq!(o.failed, 0, "{name} seed {seed}: {:?}", o.failures);
                assert!(
                    o.metrics.missing(END_TO_END).is_empty(),
                    "{name} seed {seed}"
                );
                assert!(o.to_json(END_TO_END).starts_with("{\"correct\": true"));
            }
        }
        let _ = std::fs::remove_dir_all(&work);
    }

    #[test]
    fn the_probes_fill_the_whole_per_layer_catalog_for_every_seed() {
        let work = work_dir("per-layer");
        for seed in [1, 2] {
            let mut merged = Metrics::default();
            for workload in WORKLOADS {
                merged.fill_from(&trace_one(workload, seed, 0.0, false, &work).unwrap());
            }
            assert!(
                merged.missing(PER_LAYER).is_empty(),
                "seed {seed}: {:?}",
                merged.missing(PER_LAYER)
            );
        }
        let _ = std::fs::remove_dir_all(&work);
    }
}
