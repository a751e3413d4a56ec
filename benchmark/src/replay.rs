//! `torus-hotspot-replay`: a `hotspot-server` application mix for 64
//! nodes is generated and saved as an `NBTITRC` trace, then replayed on an
//! 8×8 torus with two VCs per port, one thread, the event trace and its
//! digest on — the path of `nbti-noc run --topology torus --trace-in F
//! --digest`.

use crate::layers::{drive_source, set_stage_metrics, set_work_metrics};
use crate::metrics::{Metrics, Outcome, Samples};
use crate::stats::median;
use crate::util::{fresh_dir, mix_seed, ms_since, now, repeat_for, secs_since};
use noc_sim::config::{NocConfig, TopologyKind};
use noc_telemetry::TelemetrySpec;
use noc_workload::{MixGenerator, MixKind, MixSource, MixSpec, TraceSource};
use sensorwise::{
    run_experiment, run_experiment_profiled, ExperimentConfig, ExperimentResult, PolicyKind,
    SyntheticScenario,
};
use std::path::{Path, PathBuf};

/// The recorded live-mix digest for seed 0 under [`ReplayConfig::full`].
const REFERENCE: &str = include_str!("../reference/torus-hotspot-replay.txt");

/// The workload's fixed configuration.
#[derive(Debug, Clone, Copy)]
pub struct ReplayConfig {
    /// Torus side (the fabric has `side²` nodes).
    pub side: usize,
    /// VCs per input port.
    pub vcs: usize,
    /// Mean injection probability per node per cycle.
    pub rate: f64,
    /// Packet length in flits.
    pub packet_len: u16,
    /// Cycles generated and replayed.
    pub cycles: u64,
}

impl ReplayConfig {
    /// The benchmarked size.
    pub fn full() -> ReplayConfig {
        ReplayConfig {
            side: 8,
            vcs: 2,
            rate: 0.1,
            packet_len: 5,
            cycles: 4_000,
        }
    }

    /// A small size, used to fill per-layer metrics this workload owns
    /// when another workload is traced.
    pub fn probe() -> ReplayConfig {
        ReplayConfig {
            cycles: 1_500,
            ..ReplayConfig::full()
        }
    }

    /// The configuration as a JSON object, for provenance.
    pub fn to_json(self) -> String {
        format!(
            "{{\"topology\":\"torus\",\"nodes\":{},\"vcs\":{},\"mix\":\"hotspot-server\",\
             \"rate\":{},\"packet_len\":{},\"cycles\":{},\"policy\":\"sensor-wise\",\
             \"threads\":1,\"trace_sink\":true}}",
            self.side * self.side,
            self.vcs,
            self.rate,
            self.packet_len,
            self.cycles
        )
    }

    fn nodes(&self) -> usize {
        self.side * self.side
    }

    /// The mix; its schedule is a pure function of `seed`.
    fn mix(&self, seed: u64) -> MixSpec {
        MixSpec {
            kind: MixKind::HotspotServer,
            nodes: self.nodes() as u16,
            rate: self.rate,
            packet_len: self.packet_len,
            seed: mix_seed(1, seed),
        }
    }

    /// The experiment, with the event trace on or off. Process variation
    /// is tied to the architecture alone, as for every workload run.
    fn experiment(&self, seed: u64, trace: bool) -> ExperimentConfig {
        let mut noc = NocConfig::paper_synthetic(self.nodes(), self.vcs);
        noc.topology = TopologyKind::Torus;
        let arch = SyntheticScenario {
            cores: self.nodes(),
            vcs: self.vcs,
            injection_rate: 0.0,
        };
        ExperimentConfig::new(noc, PolicyKind::SensorWise)
            .with_cycles(0, self.cycles)
            .with_pv_seed(mix_seed(arch.seed(), seed))
            .with_telemetry(TelemetrySpec {
                trace,
                trace_capacity: 1,
                sample_period: 0,
            })
    }
}

/// Set-up timings of one generated trace.
struct Saved {
    path: PathBuf,
    gen_ms: f64,
    save_ms: f64,
    records: u64,
}

/// Generates the mix and saves it into a fresh directory.
fn generate(cfg: &ReplayConfig, seed: u64, dir: &Path) -> Result<Saved, String> {
    let path = dir.join("hotspot-server.nbtitrc");
    let t = now();
    let writer = MixGenerator::new(cfg.mix(seed))
        .write_trace(cfg.cycles)
        .map_err(|e| e.to_string())?;
    let gen_ms = ms_since(t);
    let records = writer.len();
    let t = now();
    writer.save(&path).map_err(|e| e.to_string())?;
    Ok(Saved {
        path,
        gen_ms,
        save_ms: ms_since(t),
        records,
    })
}

/// The workload's set-up: a fresh directory, the trace generated and
/// saved into it. Returns the seconds it took and the saved trace.
fn set_up(cfg: &ReplayConfig, seed: u64, work: &Path) -> Result<(f64, Saved), String> {
    let t = now();
    let dir = fresh_dir(work, "replay")?;
    let trace = generate(cfg, seed, &dir)?;
    Ok((secs_since(t), trace))
}

/// One replay: load the trace, simulate it. Returns the result, the load
/// milliseconds and the simulation seconds.
fn replay(cfg: &ExperimentConfig, path: &Path) -> Result<(ExperimentResult, f64, f64), String> {
    let t = now();
    let mut source = TraceSource::load(path).map_err(|e| e.to_string())?;
    let load_ms = ms_since(t);
    let t = now();
    let result = run_experiment(cfg, &mut source);
    Ok((result, load_ms, secs_since(t)))
}

/// What the gate compares: FNV-1a over every port's duty cycles and the
/// network statistics, at full precision.
fn fingerprint(r: &ExperimentResult) -> u64 {
    noc_workload::format::fnv64(format!("{:?} {:?}", r.ports, r.net).as_bytes())
}

/// The oracle: the mix driven live, event trace on.
fn live_run(cfg: &ReplayConfig, seed: u64) -> ExperimentResult {
    run_experiment(
        &cfg.experiment(seed, true),
        &mut MixSource::new(cfg.mix(seed)),
    )
}

/// The reference file's contents: the live run's trace digest.
fn reference_text(live: &ExperimentResult) -> String {
    format!("digest {:016x}\n", live.trace_digest().unwrap_or(0))
}

/// The seed-0 reference file's contents.
pub fn record(cfg: &ReplayConfig) -> String {
    reference_text(&live_run(cfg, 0))
}

/// The untraced run: passes of set-up, a sink-on and a sink-off replay;
/// then the gate.
pub fn run(cfg: &ReplayConfig, seed: u64, seconds: f64, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let traced_cfg = cfg.experiment(seed, true);
    let plain_cfg = cfg.experiment(seed, false);
    // Every pass sets up afresh, so the set-up samples spread over the
    // whole run as the replays do. A pass keeps only digests and timings,
    // so a long run holds no more memory than a short one.
    let (passes, peak_rss_mb) = repeat_for(seconds, 3, || -> Result<_, String> {
        let (setup_s, saved) = set_up(cfg, seed, work)?;
        let t = now();
        let (traced, _, _) = replay(&traced_cfg, &saved.path)?;
        let wall = secs_since(t);
        let (plain, _, sim_s) = replay(&plain_cfg, &saved.path)?;
        Ok((
            setup_s,
            traced.trace_digest(),
            wall,
            fingerprint(&plain),
            sim_s,
        ))
    });
    let mut samples = Samples {
        peak_rss_mb,
        ..Samples::default()
    };

    // Gate, untimed: the live generator's digest is the oracle.
    let live = live_run(cfg, seed);
    let want = live.trace_digest();
    let want_fp = fingerprint(&live);
    let cycles = cfg.cycles as f64;
    for (i, pass) in passes.into_iter().enumerate() {
        let (setup_s, digest, wall, print, sim_s) = match pass {
            Ok(p) => p,
            Err(e) => {
                out.record(Some(format!("pass {i}: {e}")));
                continue;
            }
        };
        samples.setup_s.push(setup_s);
        if digest == want {
            samples.wall_s.push(wall);
            out.record(None);
        } else {
            out.record(Some(format!(
                "replay {i}: digest differs from the live mix"
            )));
        }
        if print == want_fp {
            samples.sim_kcycles_per_s.push(cycles / sim_s / 1e3);
            out.record(None);
        } else {
            out.record(Some(format!(
                "plain replay {i}: result differs from the live mix"
            )));
        }
    }
    if seed == 0 {
        out.check(
            "recorded seed-0 digest",
            reference_text(&live).as_str(),
            REFERENCE,
        );
    }
    samples.report("torus-hotspot-replay", &mut out);
    out
}

/// The traced run: the same replays plus a profiled one per pass.
///
/// # Errors
///
/// The trace cannot be written or read back.
pub fn trace(cfg: &ReplayConfig, seed: u64, seconds: f64, work: &Path) -> Result<Metrics, String> {
    let traced_cfg = cfg.experiment(seed, true);
    let plain_cfg = cfg.experiment(seed, false);
    let cycles = cfg.cycles as f64;
    let mut gen_ms = Vec::new();
    let mut save_ms = Vec::new();
    let mut load_ms = Vec::new();
    let mut overhead = Vec::new();
    let mut sink_ratio = Vec::new();
    let mut plain_ns = Vec::new();
    let mut sink_ns = Vec::new();
    let mut profiled_ns = Vec::new();
    let mut merged = noc_telemetry::StageProfiler::new();
    let mut last = None;
    let want = live_run(cfg, seed).trace_digest();
    let (passes, _) = repeat_for(seconds, 1, || -> Result<(), String> {
        let (_, saved) = set_up(cfg, seed, work)?;
        gen_ms.push(saved.gen_ms);
        save_ms.push(saved.save_ms);
        let path = &saved.path;
        let t = now();
        let (traced, load, sink_s) = replay(&traced_cfg, path)?;
        let untraced_wall = secs_since(t);
        let (_, _, plain_s) = replay(&plain_cfg, path)?;
        let t = now();
        let mut source = TraceSource::load(path).map_err(|e| e.to_string())?;
        let p = now();
        let (profiled, prof) = run_experiment_profiled(&traced_cfg, &mut source);
        profiled_ns.push(secs_since(p) * 1e9 / cycles);
        if traced.trace_digest() != want || profiled.trace_digest() != want {
            return Err("a replay's digest differs from the live mix".to_string());
        }
        overhead.push(secs_since(t) / untraced_wall);
        merged.merge(&prof);
        load_ms.push(load);
        sink_ratio.push(sink_s / plain_s);
        sink_ns.push(sink_s * 1e9 / cycles);
        plain_ns.push(plain_s * 1e9 / cycles);
        last = Some((traced, saved));
        Ok(())
    });
    passes.into_iter().collect::<Result<Vec<()>, String>>()?;
    let (traced, saved) = last.ok_or("no replay ran")?;
    let mut m = Metrics::default();
    let profiled_cycles = cycles * profiled_ns.len() as f64;
    set_stage_metrics(
        &mut m,
        &merged,
        profiled_cycles,
        median(&profiled_ns),
        median(&sink_ns),
    );
    set_work_metrics(&mut m, &traced.work, cycles);
    m.set(
        "noc-sim.ns_per_router_cycle",
        median(&plain_ns) / cfg.nodes() as f64,
    );
    let events = traced
        .telemetry
        .as_ref()
        .and_then(|t| t.trace.as_ref())
        .map_or(0, |l| l.total);
    m.set("noc-telemetry.events_per_cycle", events as f64 / cycles);
    m.set("noc-telemetry.trace_overhead", median(&sink_ratio));
    m.set("noc-workload.gen_ms", median(&gen_ms));
    m.set("noc-workload.save_ms", median(&save_ms));
    m.set("noc-workload.load_ms", median(&load_ms));
    m.set("noc-workload.records", saved.records as f64);
    let mut source = TraceSource::load(&saved.path).map_err(|e| e.to_string())?;
    m.set(
        "noc-traffic.source_ns_per_cycle",
        drive_source(&mut source, cfg.cycles) * 1e9 / cycles,
    );
    m.set("benchmark.tracing_overhead", median(&overhead));
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ReplayConfig {
        ReplayConfig {
            cycles: 400,
            ..ReplayConfig::full()
        }
    }

    #[test]
    fn the_replayed_trace_reproduces_the_live_digest() {
        let cfg = tiny();
        let work = std::env::temp_dir().join(format!("replay-test-{}", std::process::id()));
        let saved = generate(&cfg, 5, &fresh_dir(&work, "t").unwrap()).unwrap();
        assert!(saved.records > 0);
        let (replayed, _, _) = replay(&cfg.experiment(5, true), &saved.path).unwrap();
        let live = run_experiment(&cfg.experiment(5, true), &mut MixSource::new(cfg.mix(5)));
        assert!(live.trace_digest().is_some());
        assert_eq!(replayed.trace_digest(), live.trace_digest());
        let (plain, _, _) = replay(&cfg.experiment(5, false), &saved.path).unwrap();
        assert_eq!(fingerprint(&plain), fingerprint(&live));
        let _ = std::fs::remove_dir_all(&work);
    }

    #[test]
    fn set_up_takes_far_longer_than_the_timer_resolution() {
        let work = std::env::temp_dir().join(format!("replay-set-up-{}", std::process::id()));
        let (secs, saved) = set_up(&ReplayConfig::full(), 0, &work).unwrap();
        assert!(secs > 1000.0 * crate::util::timer_resolution_s(), "{secs}");
        // `wall_s` times the replay with the event trace on and
        // `sim_kcycles_per_s` a different replay with it off.
        let path = &saved.path;
        let (traced, _, _) = replay(&ReplayConfig::full().experiment(0, true), path).unwrap();
        let (plain, _, _) = replay(&ReplayConfig::full().experiment(0, false), path).unwrap();
        assert!(traced.trace_digest().is_some() && plain.trace_digest().is_none());
        let _ = std::fs::remove_dir_all(&work);
    }

    #[test]
    fn changing_the_seed_changes_the_trace() {
        let cfg = tiny();
        let a = MixGenerator::new(cfg.mix(1))
            .write_trace(cfg.cycles)
            .unwrap()
            .finish();
        let b = MixGenerator::new(cfg.mix(2))
            .write_trace(cfg.cycles)
            .unwrap()
            .finish();
        assert_ne!(a, b);
        assert_eq!(
            cfg.mix(0).seed,
            1,
            "seed 0 keeps the CLI's default mix seed"
        );
    }
}
