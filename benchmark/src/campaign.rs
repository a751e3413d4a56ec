//! `campaign-remote`: a sensor-wise lifetime campaign dispatched epoch by
//! epoch to one in-process `noc-service` worker over HTTP, checkpointed
//! after every epoch as `nbti-noc campaign run --remote` does. Each pass
//! pair runs the campaign **cold** (empty result store: every epoch is
//! simulated and written back) and then **warm** (the identical campaign
//! again: every epoch is a cache hit).

use crate::layers::{drive_source, set_stage_metrics, set_work_metrics};
use crate::metrics::{Metrics, Outcome, Samples};
use crate::stats::{median, quantile};
use crate::util::{fresh_dir, mix_seed, ms_since, now, repeat_for, secs_since};
use noc_campaign::{
    Campaign, CampaignError, CampaignSpec, EpochExecutor, FsResultStore, RemoteExecutor, WorkerPool,
};
use noc_service::{Server, ServiceConfig, ShutdownReport};
use noc_telemetry::{read_spans_jsonl, Span, SpanKind, SpanLog, StageProfiler};
use sensorwise::{
    ExperimentJob, PolicyKind, SyntheticScenario, WireEpochOutcome, WireEpochRequest,
};
use std::cell::RefCell;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The recorded chained digest for seed 0 under [`CampaignConfig::full`].
const REFERENCE: &str = include_str!("../reference/campaign-remote.txt");

/// The workload's fixed configuration.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Mesh cores.
    pub cores: usize,
    /// VCs per input port.
    pub vcs: usize,
    /// Nominal injection rate.
    pub rate: f64,
    /// Warm-up cycles per epoch.
    pub warmup: u64,
    /// Measured cycles per epoch.
    pub measure: u64,
    /// Epochs per campaign.
    pub epochs: u32,
    /// Minimum cold/warm pass pairs per run.
    pub min_pairs: usize,
}

impl CampaignConfig {
    /// The benchmarked size.
    pub fn full() -> CampaignConfig {
        CampaignConfig {
            cores: 4,
            vcs: 2,
            rate: 0.15,
            warmup: 500,
            measure: 4_000,
            epochs: 16,
            min_pairs: 3,
        }
    }

    /// A small size, used to fill per-layer metrics this workload owns
    /// when another workload is traced.
    pub fn probe() -> CampaignConfig {
        CampaignConfig {
            warmup: 100,
            measure: 500,
            epochs: 20,
            min_pairs: 1,
            ..CampaignConfig::full()
        }
    }

    /// The configuration as a JSON object, for provenance.
    pub fn to_json(self) -> String {
        format!(
            "{{\"cores\":{},\"vcs\":{},\"rate\":{},\"policy\":\"sensor-wise\",\"warmup\":{},\
             \"measure\":{},\"epochs\":{},\"age_acceleration\":1e9,\"drain_limit\":10000,\
             \"service_workers\":1,\"queue_depth\":16,\"poll_ms\":10,\"retries\":2,\
             \"front_end_connections\":1}}",
            self.cores, self.vcs, self.rate, self.warmup, self.measure, self.epochs
        )
    }

    /// The campaign; every epoch's traffic derives from `seed`.
    pub fn spec(&self, seed: u64) -> CampaignSpec {
        let scenario = SyntheticScenario {
            cores: self.cores,
            vcs: self.vcs,
            injection_rate: self.rate,
        };
        let mut base: ExperimentJob =
            scenario.job(PolicyKind::SensorWise, self.warmup, self.measure);
        base.cfg.pv_seed = mix_seed(base.cfg.pv_seed, seed);
        base.traffic = base.traffic.with_seed(mix_seed(1, seed));
        CampaignSpec {
            base,
            epochs: self.epochs,
            age_acceleration: 1.0e9,
            drain_limit: 10_000,
        }
    }
}

/// One worker and its empty store: what a pass pair starts from.
struct Bench {
    dir: PathBuf,
    server: Server,
    store: FsResultStore,
    exec: RemoteExecutor,
    spans_out: PathBuf,
}

impl Bench {
    /// Fresh directories, the store, the worker and the front end's
    /// executor.
    fn start(work: &Path, name: &str) -> Result<Bench, String> {
        let dir = fresh_dir(work, name)?;
        let store_dir = dir.join("store");
        let store = FsResultStore::open(&store_dir).map_err(|e| e.to_string())?;
        let worker_store = FsResultStore::open(&store_dir).map_err(|e| e.to_string())?;
        let spans_out = dir.join("worker.spans.jsonl");
        let server = Server::start_with_cache(
            &ServiceConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 1,
                queue_depth: 16,
                job_timeout_ms: 0,
                spans_out: Some(spans_out.to_string_lossy().into_owned()),
            },
            Some(Arc::new(worker_store)),
        )?;
        let pool =
            WorkerPool::new(&[server.local_addr().to_string()]).map_err(|e| e.to_string())?;
        Ok(Bench {
            dir,
            server,
            store,
            exec: RemoteExecutor::new(pool, 2),
            spans_out,
        })
    }

    /// Stops the worker; returns its accounting and its dumped spans.
    fn stop(self) -> (ShutdownReport, Vec<Span>) {
        self.server.request_shutdown(false);
        let report = self.server.wait();
        let spans = fs::read_to_string(&self.spans_out)
            .ok()
            .and_then(|text| read_spans_jsonl(&text).ok())
            .unwrap_or_default();
        let _ = fs::remove_dir_all(&self.dir);
        (report, spans)
    }
}

/// Wraps an executor to time each dispatch.
struct TimedExecutor<'a> {
    inner: &'a RemoteExecutor,
    dispatch_ms: RefCell<Vec<f64>>,
}

impl EpochExecutor for TimedExecutor<'_> {
    fn execute(
        &self,
        index: u32,
        request: &WireEpochRequest,
    ) -> Result<WireEpochOutcome, CampaignError> {
        let t = now();
        let outcome = self.inner.execute(index, request);
        self.dispatch_ms.borrow_mut().push(ms_since(t));
        outcome
    }

    fn span_log(&self) -> Option<&SpanLog> {
        self.inner.span_log()
    }
}

/// One campaign pass: per-epoch wall and checkpoint-save milliseconds.
#[derive(Default)]
struct Pass {
    epoch_ms: Vec<f64>,
    save_ms: Vec<f64>,
    wall_s: f64,
    digest: u64,
    cycles: u64,
    checkpoint_bytes: u64,
}

/// Runs the campaign through `exec`, saving a checkpoint after every
/// epoch. Each completed epoch counts as one operation of `out`; a failed
/// one ends the pass with an error the caller counts. With
/// `request_bytes`, each epoch's canonical request JSON is built and sized
/// before the epoch, outside its timing (the pass wall includes it).
fn run_pass(
    spec: &CampaignSpec,
    exec: &dyn EpochExecutor,
    store: &FsResultStore,
    checkpoint: &Path,
    mut request_bytes: Option<&mut Vec<usize>>,
    out: &mut Outcome,
) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let start = now();
    let mut campaign = Campaign::new(spec.clone()).map_err(|e| e.to_string())?;
    while !campaign.is_finished() {
        if let Some(bytes) = request_bytes.as_deref_mut() {
            let request = campaign.epoch_request().map_err(|e| e.to_string())?;
            let json = request.to_json().map_err(|e| e.to_string())?;
            bytes.push(json.len());
        }
        let t = now();
        let epoch = campaign.run_next_epoch_with(exec, Some(store));
        let s = now();
        let saved = epoch.is_ok() && campaign.save(checkpoint).is_ok();
        pass.save_ms.push(ms_since(s));
        pass.epoch_ms.push(ms_since(t));
        if let Err(e) = epoch {
            // The caller counts the failed pass once.
            return Err(format!("epoch {}: {e}", campaign.completed()));
        }
        out.record((!saved).then(|| "checkpoint save failed".to_string()));
    }
    pass.wall_s = secs_since(start);
    pass.digest = campaign.chained_digest();
    pass.cycles = campaign.current_cycle().unwrap_or(0);
    pass.checkpoint_bytes = fs::metadata(checkpoint).map_or(0, |m| m.len());
    Ok(pass)
}

/// The worker's view of one pass: per-job spans paired up.
struct JobSpans {
    queue_ms: f64,
    experiment_ms: f64,
    job_ms: f64,
}

/// Pairs each job span with its experiment span, in job order.
fn job_spans(spans: &[Span]) -> Vec<JobSpans> {
    let mut jobs: Vec<(&Span, &Span)> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Job)
        .filter_map(|job| {
            spans
                .iter()
                .find(|e| e.kind == SpanKind::Experiment && e.parent == job.id)
                .map(|e| (job, e))
        })
        .collect();
    jobs.sort_by_key(|(job, _)| job.start_us);
    jobs.into_iter()
        .map(|(job, exp)| JobSpans {
            queue_ms: exp.start_us.saturating_sub(job.start_us) as f64 / 1e3,
            experiment_ms: exp.dur_us as f64 / 1e3,
            job_ms: job.dur_us as f64 / 1e3,
        })
        .collect()
}

/// Dispatch attempts beyond the first, from the executor's spans.
fn retries(spans: &[Span]) -> usize {
    spans
        .iter()
        .filter(|s| s.kind == SpanKind::Dispatch && !s.name.ends_with("-a0"))
        .count()
}

/// Everything one cold/warm pair measured.
struct Pair {
    setup_s: f64,
    cold: Pass,
    warm: Pass,
    warm_hits: u64,
    cold_hits: u64,
    /// Jobs the worker simulated and the host seconds it spent on them.
    simulated: usize,
    experiment_s: f64,
    worker_spans: Vec<Span>,
    dispatch_spans: Vec<Span>,
    timed: Option<(Vec<f64>, Vec<usize>)>,
}

/// The workload's set-up, timed: fresh directories, the store opened
/// (front end and worker), the worker started and the front end's
/// executor connected to it. Returns the seconds it took and the worker.
fn set_up(work: &Path, index: usize) -> Result<(f64, Bench), String> {
    let t = now();
    let bench = Bench::start(work, &format!("campaign-{index}"))?;
    Ok((secs_since(t), bench))
}

/// Set-up, the cold pass, the warm pass and teardown. With `timed`, the
/// cold pass dispatches through a [`TimedExecutor`].
fn run_pair(
    spec: &CampaignSpec,
    work: &Path,
    index: usize,
    timed: bool,
    out: &mut Outcome,
) -> Result<Pair, String> {
    let (setup_s, bench) = set_up(work, index)?;
    let entries = bench
        .store
        .stats()
        .map(|s| s.entries)
        .map_err(|e| e.to_string());
    out.check("cold pass starts from an empty store", entries, Ok(0));
    let checkpoint = bench.dir.join("campaign.nbticamp");
    let wrapper = TimedExecutor {
        inner: &bench.exec,
        dispatch_ms: RefCell::new(Vec::new()),
    };
    let exec: &dyn EpochExecutor = if timed { &wrapper } else { &bench.exec };
    let mut request_bytes = Vec::new();
    let sizing = timed.then_some(&mut request_bytes);
    let cold = run_pass(spec, exec, &bench.store, &checkpoint, sizing, out);
    let cold_hits = bench.server.cache_hits();
    let dispatch_spans = bench.exec.drain_spans();
    let warm = cold
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|_| run_pass(spec, &bench.exec, &bench.store, &checkpoint, None, out));
    let warm_hits = bench.server.cache_hits() - cold_hits;
    let warm_dispatch = bench.exec.drain_spans();
    let timed = timed.then(|| (wrapper.dispatch_ms.take(), request_bytes));
    let (report, worker_spans) = bench.stop();
    for _ in 0..retries(&dispatch_spans) + retries(&warm_dispatch) {
        out.record(Some("dispatch retried".to_string()));
    }
    for _ in 0..report.rejected_busy {
        out.record(Some("worker answered 429".to_string()));
    }
    if report.failed > 0 {
        out.record(Some(format!("{} worker jobs failed", report.failed)));
    }
    Ok(Pair {
        setup_s,
        cold: cold?,
        warm: warm?,
        warm_hits,
        cold_hits,
        simulated: job_spans(&worker_spans).len(),
        experiment_s: experiment_s(&worker_spans),
        worker_spans,
        dispatch_spans,
        timed,
    })
}

/// The local in-process campaign: the determinism oracle.
fn local_digest(spec: &CampaignSpec) -> Result<u64, String> {
    let mut campaign = Campaign::new(spec.clone()).map_err(|e| e.to_string())?;
    while !campaign.is_finished() {
        campaign.run_next_epoch(None).map_err(|e| e.to_string())?;
    }
    Ok(campaign.chained_digest())
}

/// The seed-0 reference file's contents: the local chained digest.
///
/// # Errors
///
/// The local campaign failed.
pub fn record(cfg: &CampaignConfig) -> Result<String, String> {
    Ok(format!("chained {:016x}\n", local_digest(&cfg.spec(0))?))
}

/// Host seconds of worker simulation over a pass, from its spans.
fn experiment_s(worker_spans: &[Span]) -> f64 {
    job_spans(worker_spans)
        .iter()
        .map(|j| j.experiment_ms)
        .sum::<f64>()
        / 1e3
}

/// Checks a pair against the oracle; returns whether it may be measured.
fn gate(pair: &Pair, want: u64, epochs: u32, out: &mut Outcome) -> bool {
    let before = out.failed;
    out.check("cold chained digest", pair.cold.digest, want);
    out.check("warm chained digest", pair.warm.digest, want);
    out.check("cold-pass cache hits", pair.cold_hits, 0);
    out.check("warm-pass cache hits", pair.warm_hits, u64::from(epochs));
    out.check("jobs simulated", pair.simulated, epochs as usize);
    out.failed == before
}

/// The untraced run: cold/warm pairs for `seconds`, then the gate.
pub fn run(cfg: &CampaignConfig, seed: u64, seconds: f64, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let spec = cfg.spec(seed);
    let mut index = 0;
    let (pairs, peak_rss_mb) = repeat_for(seconds, cfg.min_pairs, || {
        index += 1;
        // Keep only what the gate and the metrics need, so a long run
        // holds no more memory than a short one.
        run_pair(&spec, work, index, false, &mut out).map(|mut pair| {
            pair.worker_spans = Vec::new();
            pair.dispatch_spans = Vec::new();
            pair
        })
    });
    let mut samples = Samples {
        peak_rss_mb,
        ..Samples::default()
    };

    let want = match local_digest(&spec) {
        Ok(d) => d,
        Err(e) => {
            out.record(Some(format!("local oracle: {e}")));
            return out;
        }
    };
    if seed == 0 {
        let digest = format!("chained {want:016x}\n");
        out.check("recorded seed-0 chained digest", digest.as_str(), REFERENCE);
    }
    for pair in pairs {
        match pair {
            Ok(pair) => {
                samples.setup_s.push(pair.setup_s);
                if gate(&pair, want, cfg.epochs, &mut out) {
                    samples.wall_s.push(pair.cold.wall_s);
                    samples
                        .sim_kcycles_per_s
                        .push(pair.cold.cycles as f64 / pair.experiment_s / 1e3);
                }
            }
            Err(e) => out.record(Some(e)),
        }
    }
    samples.report("campaign-remote", &mut out);
    out
}

/// Sets `name` to the median of `samples` when they carry one.
fn set_p50(m: &mut Metrics, name: &'static str, samples: &[f64]) {
    if let Some(v) = quantile(samples, 0.5) {
        m.set(name, v);
    }
}

/// The traced run: untraced and timed pairs in turn, the worker's spans
/// split into queue, simulation and post-processing, and the epoch's
/// simulation profiled on its own.
///
/// # Errors
///
/// A pair failed or failed its gate; the traced run reports only clean
/// pairs.
pub fn trace(
    cfg: &CampaignConfig,
    seed: u64,
    seconds: f64,
    work: &Path,
) -> Result<Metrics, String> {
    let spec = cfg.spec(seed);
    let want = local_digest(&spec)?;
    let mut out = Outcome::default();
    let mut cold_ms = Vec::new();
    let mut warm_ms = Vec::new();
    let mut dispatch_ms = Vec::new();
    let mut engine_ms = Vec::new();
    let mut save_ms = Vec::new();
    let mut queue_ms = Vec::new();
    let mut experiment_ms = Vec::new();
    let mut post_ms = Vec::new();
    let mut lag_ms = Vec::new();
    let mut requests = Vec::new();
    let mut overhead = Vec::new();
    let mut last = None;
    let mut index = 0;
    let (rounds, _) = repeat_for(seconds, cfg.min_pairs.max(1), || -> Result<(), String> {
        index += 2;
        let plain = run_pair(&spec, work, index, false, &mut out)?;
        let timed = run_pair(&spec, work, index + 1, true, &mut out)?;
        gate(&plain, want, cfg.epochs, &mut out);
        gate(&timed, want, cfg.epochs, &mut out);
        overhead.push(timed.cold.wall_s / plain.cold.wall_s);
        let (dispatch, bytes) = timed.timed.clone().unwrap_or_default();
        // An epoch's wall is request build + dispatch + integration +
        // checkpoint save; the engine's share is what the other two leave.
        let cold = &timed.cold;
        for ((epoch, save), d) in cold.epoch_ms.iter().zip(&cold.save_ms).zip(&dispatch) {
            engine_ms.push(epoch - d - save);
        }
        dispatch_ms.extend(&dispatch);
        save_ms.extend(&timed.cold.save_ms);
        for pair in [&plain, &timed] {
            cold_ms.extend(&pair.cold.epoch_ms);
            warm_ms.extend(&pair.warm.epoch_ms);
            let jobs = job_spans(&pair.worker_spans);
            let attempts: Vec<&Span> = pair
                .dispatch_spans
                .iter()
                .filter(|s| s.kind == SpanKind::Dispatch)
                .collect();
            for (job, attempt) in jobs.iter().zip(&attempts) {
                queue_ms.push(job.queue_ms);
                experiment_ms.push(job.experiment_ms);
                post_ms.push(job.job_ms - job.queue_ms - job.experiment_ms);
                lag_ms.push(attempt.dur_us as f64 / 1e3 - job.job_ms);
            }
            let request_spans = pair
                .worker_spans
                .iter()
                .filter(|s| s.kind == SpanKind::Request)
                .count();
            // Every submission is a job: simulated (cold) or a hit (warm).
            let answered = jobs.len() + pair.warm_hits as usize;
            requests.push(request_spans as f64 / answered.max(1) as f64);
        }
        last = Some((timed, bytes));
        Ok(())
    });
    rounds.into_iter().collect::<Result<Vec<()>, String>>()?;
    if out.failed > 0 {
        return Err(out.failures.join("; "));
    }
    let (pair, bytes) = last.ok_or("no pair ran")?;
    let mut m = Metrics::default();
    set_p50(&mut m, "noc-campaign.cold_epoch_ms_p50", &cold_ms);
    set_p50(&mut m, "noc-campaign.warm_epoch_ms_p50", &warm_ms);
    set_p50(&mut m, "noc-campaign.dispatch_ms_p50", &dispatch_ms);
    set_p50(&mut m, "noc-campaign.engine_ms_p50", &engine_ms);
    set_p50(&mut m, "noc-campaign.checkpoint_save_ms_p50", &save_ms);
    m.set(
        "noc-campaign.checkpoint_bytes",
        pair.cold.checkpoint_bytes as f64,
    );
    m.set(
        "noc-campaign.request_bytes",
        bytes.iter().sum::<usize>() as f64 / bytes.len().max(1) as f64,
    );
    m.set(
        "noc-campaign.warm_hit_ratio",
        pair.warm_hits as f64 / f64::from(cfg.epochs),
    );
    set_p50(&mut m, "noc-service.queue_wait_ms_p50", &queue_ms);
    set_p50(&mut m, "noc-service.experiment_ms_p50", &experiment_ms);
    set_p50(&mut m, "noc-service.post_experiment_ms_p50", &post_ms);
    set_p50(&mut m, "noc-service.result_lag_ms_p50", &lag_ms);
    m.set("noc-service.requests_per_job", median(&requests));
    m.set("noc-service.cache_hits", pair.warm_hits as f64);
    m.set("benchmark.tracing_overhead", median(&overhead));
    epoch_sim_metrics(&spec.base, &mut m);
    Ok(m)
}

/// Profiles one epoch's simulation standalone: the campaign's base
/// experiment from a fresh network, profiled and unprofiled.
fn epoch_sim_metrics(base: &ExperimentJob, m: &mut Metrics) {
    let cycles = (base.cfg.warmup_cycles + base.cfg.measure_cycles) as f64;
    let mut plain_ns = Vec::new();
    let mut profiled_ns = Vec::new();
    let mut merged = StageProfiler::new();
    let mut work = None;
    for _ in 0..5 {
        let t = now();
        let result = base.run();
        plain_ns.push(secs_since(t) * 1e9 / cycles);
        let t = now();
        let (_, prof) = base.run_profiled();
        profiled_ns.push(secs_since(t) * 1e9 / cycles);
        merged.merge(&prof);
        work = Some(result.work);
    }
    let plain = median(&plain_ns);
    set_stage_metrics(m, &merged, cycles * 5.0, median(&profiled_ns), plain);
    if let Some(work) = work {
        set_work_metrics(m, &work, cycles);
    }
    m.set(
        "noc-sim.ns_per_router_cycle",
        plain / base.cfg.noc.num_nodes() as f64,
    );
    let mut source = base.traffic.build(&base.cfg.noc);
    m.set(
        "noc-traffic.source_ns_per_cycle",
        drive_source(source.as_mut(), cycles as u64) * 1e9 / cycles,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CampaignConfig {
        CampaignConfig {
            warmup: 50,
            measure: 300,
            epochs: 3,
            ..CampaignConfig::full()
        }
    }

    fn work_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("campaign-{name}-{}", std::process::id()))
    }

    #[test]
    fn every_cold_pass_starts_from_an_empty_store_and_the_warm_pass_hits() {
        let cfg = tiny();
        let spec = cfg.spec(4);
        let work = work_dir("pairs");
        let mut out = Outcome::default();
        let want = local_digest(&spec).unwrap();
        for index in 0..2 {
            let pair = run_pair(&spec, &work, index, index == 1, &mut out).unwrap();
            assert!(
                gate(&pair, want, cfg.epochs, &mut out),
                "{:?}",
                out.failures
            );
            // `wall_s` is the front end's wait and `sim_kcycles_per_s` the
            // worker's simulation time: HTTP, polling, checkpoints and the
            // store sit in one and not the other.
            assert!(
                pair.cold.wall_s > 2.0 * pair.experiment_s,
                "{} vs {}",
                pair.cold.wall_s,
                pair.experiment_s
            );
        }
        // Two pairs in one run directory: the second cold pass still
        // simulated every epoch (no hits carried over).
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        let _ = fs::remove_dir_all(&work);
    }

    #[test]
    fn set_up_takes_far_longer_than_the_timer_resolution() {
        let work = work_dir("set-up");
        let (secs, bench) = set_up(&work, 0).unwrap();
        bench.stop();
        assert!(secs > 1000.0 * crate::util::timer_resolution_s(), "{secs}");
        let _ = fs::remove_dir_all(&work);
    }

    #[test]
    fn changing_the_seed_changes_the_campaign() {
        let cfg = tiny();
        assert_ne!(
            local_digest(&cfg.spec(1)).unwrap(),
            local_digest(&cfg.spec(2)).unwrap()
        );
        assert_eq!(cfg.spec(1).epochs, cfg.spec(2).epochs);
    }
}
