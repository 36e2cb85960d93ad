//! `serve_longtail`: few, large, heterogeneous requests on a sharded tier.
//!
//! Model A on a 2-shard `ShardedServeRuntime` over NVLink with
//! cost-balanced placement, dynamic batching and an SLO admission gate,
//! fed the Section VI-D long-tail size mix as Poisson arrivals (the
//! traffic is fixed per workload; the seed draws the payloads).
//! The nominal phase shifts the pooling distribution partway through, so
//! the drift monitor fires and `serve_with_retune` swaps the shard
//! engines while serving continues. A rate ladder replays the
//! in-distribution head at scaled rates for `capacity_rps`.

use std::time::Instant;

use recflex_baselines::Backend;
use recflex_core::feature_cost_estimates;
use recflex_data::{shift_distribution, Batch, Dataset, ModelConfig, ModelPreset, Placement};
use recflex_serve::{
    BatchPolicy, DriftConfig, LifecycleConfig, Request, ServeConfig, ShardedRetunePolicy,
    ShardedServeRuntime, WorkloadSpec,
};
use recflex_sim::{GpuArch, Interconnect};

use crate::layers::{harness_tuner, lock, shared_log, tune_engine, Sample, SharedLog, TimedEngine};
use crate::serving::{
    capacity_probe, check_kept, ladder_factors, ladder_note, search_ladder, unaccounted,
    unit_model, with_payloads, ServeLayers, TRAFFIC_SEED,
};
use crate::stats::{median, percentile, Digest};
use crate::trace::span;
use crate::{metric, Round, Workload};

/// Feature-count fraction of model A.
const MODEL_FRAC: f64 = 0.02;
/// Shards of the tier.
const SHARDS: usize = 2;
/// Samples per size-distribution unit: `long_tail`'s power law spans
/// 1–80 units.
const SIZE_UNIT: u32 = 4;
/// In-distribution requests, then requests from the shifted model.
const HEAD: usize = 600;
const TAIL: usize = 400;
/// Requests per capacity probe: a prefix of the in-distribution head.
const PROBE: usize = 400;
/// Mean inter-arrival gap at the nominal rate, µs.
const GAP_US: f64 = 25.0;
/// End-to-end latency limit, µs.
const SLO_US: f64 = 2_000.0;
/// Dynamic batching: coalesce up to this many samples, holding a request
/// at most `MAX_WAIT_US`.
const MAX_BATCH: u32 = 512;
const MAX_WAIT_US: f64 = 100.0;
/// Simulated cost of one background retune, µs.
const RETUNE_US: f64 = 2_000.0;
/// Kept chunks for the reference and baseline checks.
const KEEP_EVERY: u64 = 16;
const KEEP_MAX: usize = 32;
/// Tier builds per round; `tune_s` is their median.
const TIER_BUILDS: usize = 5;
/// Seed of the tuning histories: part of the deployment, not the traffic.
const HISTORY_SEED: u64 = 0xA11CE;

/// The generated inputs.
pub struct Inputs {
    /// Model A at [`MODEL_FRAC`].
    pub model: ModelConfig,
    /// The simulated device of every shard.
    pub arch: GpuArch,
    /// Tuning history.
    pub history: Dataset,
    /// Nominal-phase stream: [`HEAD`] in-distribution requests, then
    /// [`TAIL`] from the shifted distribution.
    pub stream: Vec<Request>,
}

/// Build the tier: cost-balanced placement and one tuned engine per
/// shard.
fn build_tier<'a>(inputs: &'a Inputs, log: &SharedLog) -> ShardedServeRuntime<'a> {
    let cfg = harness_tuner();
    let costs = feature_cost_estimates(&inputs.model, &inputs.history, &inputs.arch);
    span("core.shard_build", None, || {
        ShardedServeRuntime::build(
            &inputs.model,
            &inputs.arch,
            Placement::balance_by_cost(SHARDS, &costs),
            ServeConfig {
                streams: 4,
                policy: BatchPolicy::Dynamic {
                    max_batch: MAX_BATCH,
                    max_wait_us: MAX_WAIT_US,
                },
                slo_deadline_us: Some(SLO_US),
                closed_loop: false,
                hot_shard_cap: None,
            },
            Interconnect::nvlink(),
            |sub| {
                let history = span("data.generate", None, || {
                    Dataset::synthesize_varied(sub, &[256, 128, 192], HISTORY_SEED)
                });
                Box::new(TimedEngine::new(
                    tune_engine(sub, &history, &inputs.arch, &cfg),
                    log.clone(),
                )) as Box<dyn Backend>
            },
        )
    })
}

/// The workload.
pub struct ServeLongtail;

impl Workload for ServeLongtail {
    type Inputs = Inputs;
    type Observed = Vec<Sample>;
    const NAME: &'static str = "serve_longtail";

    fn setup(seed: u64) -> Inputs {
        let model = ModelPreset::A.scaled(MODEL_FRAC);
        let shifted = shift_distribution(&model, 2.5, 0.0);
        let spec = WorkloadSpec {
            size_unit: SIZE_UNIT,
            ..WorkloadSpec::long_tail(GAP_US)
        };
        let unit = unit_model(&model);
        let (history, stream) = span("data.generate", None, || {
            let history = Dataset::synthesize_varied(&model, &[256, 128, 192], HISTORY_SEED);
            let mut stream =
                with_payloads(&model, &spec.stream(&unit, HEAD, TRAFFIC_SEED), seed, 0);
            let mut tail = with_payloads(
                &shifted,
                &spec.stream(&unit, TAIL, TRAFFIC_SEED + 1),
                seed,
                HEAD as u64,
            );
            let t0 = stream.last().map_or(0.0, |r| r.arrival_us);
            for r in &mut tail {
                r.arrival_us += t0;
            }
            stream.append(&mut tail);
            (history, stream)
        });
        Inputs {
            model,
            arch: GpuArch::v100(),
            history,
            stream,
        }
    }

    fn input_digest(inputs: &Inputs) -> u64 {
        let mut d = Digest::default();
        for b in inputs.history.batches() {
            d.batch(b);
        }
        for r in &inputs.stream {
            d.float(r.arrival_us);
            d.batch(&r.batch);
        }
        d.value()
    }

    fn round(inputs: &Inputs) -> (Round, Vec<Sample>) {
        let mut r = Round::default();
        let log = shared_log(KEEP_EVERY, KEEP_MAX);
        // One build takes a fraction of a second; the median of several
        // keeps `tune_s` steady. The last tier serves.
        let mut builds = Vec::with_capacity(TIER_BUILDS);
        let mut tier = None;
        for _ in 0..TIER_BUILDS {
            drop(tier.take());
            let t = Instant::now();
            tier = Some(build_tier(inputs, &log));
            builds.push(t.elapsed().as_secs_f64());
        }
        let tier = tier.expect("at least one build");
        r.tune_s = median(&builds);
        let cfg = harness_tuner();

        // Nominal phase with the drift retune on the serving path.
        let mut policy = ShardedRetunePolicy {
            drift: DriftConfig {
                window: 16,
                threshold: 0.3,
                feature_threshold: 0.5,
            },
            retune_latency_us: RETUNE_US,
            stagger_us: 0.0,
            lifecycle: LifecycleConfig::default(),
            retuner: Box::new(|sub: &ModelConfig, recent: &[Batch]| {
                let history = Dataset::from_batches(recent.to_vec());
                let engine = tune_engine(sub, &history, &inputs.arch, &cfg);
                (Box::new(TimedEngine::new(engine, log.clone())) as Box<dyn Backend>).into()
            }),
        };
        let offered = inputs.stream.len();
        r.attempted += offered as u64;
        r.requests += offered as u64;
        let t = Instant::now();
        let nominal = span("serve.serve", None, || {
            tier.serve_with_retune(&inputs.stream, &mut policy)
        });
        r.serve_s += t.elapsed().as_secs_f64();
        drop(policy);
        let report = match nominal {
            Ok(rep) => rep,
            Err(e) => {
                r.failed += offered as u64;
                r.notes.push(format!("FAIL: nominal phase: {e}"));
                return (r, Vec::new());
            }
        };
        r.failed += span("bench.check", None, || {
            unaccounted(&inputs.stream, &report.records)
        });
        let log = std::mem::take(&mut *lock(&log));

        let records: Vec<_> = report.records.iter().collect();
        let lat: Vec<f64> = report.completed().map(|q| q.base.latency_us()).collect();
        let attained = report
            .completed()
            .filter(|q| q.base.latency_us() <= SLO_US)
            .count();
        r.sim = vec![
            metric("kernel_us", log.latency_us / log.calls.max(1) as f64, "us"),
            metric("p50_us", percentile(&lat, 0.50), "us"),
            metric("p99_us", percentile(&lat, 0.99), "us"),
            metric(
                "slo_attainment",
                attained as f64 / offered as f64,
                "fraction",
            ),
        ];
        r.layer_sim = ServeLayers {
            shed_frac: report.shed_rate(),
            retunes: report.lifecycle.retunes_attempted as f64,
            promotions: report.lifecycle.retunes_promoted as f64,
            rollbacks: report.lifecycle.retunes_rolled_back as f64,
            samples_per_launch: log.samples as f64 / report.kernel_launches.max(1) as f64,
            ..ServeLayers::default()
        }
        .with_records(&records)
        .metrics();
        r.observed = log.calls;
        r.notes.push(format!(
            "nominal {offered} requests: p50/p99 over {} completed, {} beyond p99; SLO {SLO_US} us; retunes {} promoted {}; launches {}",
            lat.len(),
            lat.len() - (0.99 * lat.len() as f64).ceil() as usize,
            report.lifecycle.retunes_attempted,
            report.lifecycle.retunes_promoted,
            log.calls
        ));
        (r, log.kept)
    }

    fn finish(inputs: &Inputs, kept: Vec<Sample>, r: &mut Round) {
        let tier = build_tier(inputs, &shared_log(0, 0));
        // Rate ladder over a prefix of the in-distribution head.
        let head = &inputs.stream[..PROBE];
        let base_rps = PROBE as f64 / head.last().map_or(1.0, |q| q.arrival_us) * 1e6;
        let ladder: Vec<f64> = ladder_factors().iter().map(|f| f * base_rps).collect();
        let (capacity, probes) = search_ladder(&ladder, |rate| {
            let scale = base_rps / rate;
            let probe: Vec<Request> = head
                .iter()
                .map(|q| Request {
                    arrival_us: q.arrival_us * scale,
                    ..q.clone()
                })
                .collect();
            r.attempted += PROBE as u64;
            match span("serve.serve", None, || tier.serve(&probe)) {
                Ok(rep) => {
                    r.failed += span("bench.check", None, || unaccounted(&probe, &rep.records));
                    let recs: Vec<_> = rep.records.iter().collect();
                    capacity_probe(&recs, SLO_US, 0, MAX_WAIT_US)
                }
                Err(_) => {
                    r.failed += PROBE as u64;
                    None
                }
            }
        });
        let (mismatched, speedup) = span("bench.check", None, || check_kept(&kept));
        r.failed += mismatched;
        r.sim.push(metric("kernel_speedup", speedup, "x"));
        r.sim.push(metric("capacity_rps", capacity, "1/s"));
        r.notes.push(format!(
            "capacity ladder ({PROBE} requests per probe, base {base_rps:.0} rps): {}",
            ladder_note(&probes)
        ));
        r.notes.push(format!(
            "kept {} chunks: {mismatched} differ from the reference",
            kept.len()
        ));
    }
}
