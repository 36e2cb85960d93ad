//! `fleet_burst`: many tiny requests for many small models over a
//! heterogeneous fleet.
//!
//! Six small models are placed on V100, A100 and Edge classes by
//! `FleetAssignment::cheapest_fit` over a cost matrix the round measures
//! by tuning every (model, class) pair. Traffic follows diurnal curves
//! plus a flash crowd; it is fixed per workload and the seed draws the
//! payloads. Requests carry 1–48 samples and arrive fast enough that
//! dynamic batching coalesces several per launch, so fixed per-launch and
//! per-request costs take a larger share of the wall time than in
//! `serve_longtail`.

use std::time::Instant;

use recflex_baselines::Backend;
use recflex_core::RecFlexEngine;
use recflex_data::{
    Batch, Dataset, FleetAssignment, ModelConfig, ModelPreset, Placement, PoolingDist,
};
use recflex_serve::{
    BatchPolicy, DeviceClass, DiurnalCurve, FlashCrowd, FleetMember, FleetRuntime, FleetWorkload,
    QueryGate, Request, ScenarioSpec, ServeConfig, ShardedServeRuntime, TrafficShape, WorkloadSpec,
};
use recflex_sim::{GpuArch, Interconnect};

use crate::layers::{harness_tuner, lock, shared_log, tune_engine, Sample, SharedLog, TimedEngine};
use crate::serving::{
    capacity_probe, check_kept, ladder_factors, ladder_note, search_ladder, unaccounted,
    unit_model, with_payloads, ServeLayers, TRAFFIC_SEED,
};
use crate::stats::{mean, percentile, Digest};
use crate::trace::span;
use crate::{metric, Round, Workload};

/// The models and their feature-count fractions.
const MODELS: [(ModelPreset, f64); 6] = [
    (ModelPreset::A, 0.02),
    (ModelPreset::B, 0.02),
    (ModelPreset::C, 0.02),
    (ModelPreset::D, 0.02),
    (ModelPreset::E, 0.02),
    (ModelPreset::MLPerfLike, 0.2),
];
/// Device classes and their device counts.
const CLASSES: [&str; 3] = ["V100", "A100", "Edge"];
const CAPACITY: [usize; 3] = [2, 2, 2];
/// Requests per scenario.
const REQUESTS: usize = 600;
/// Mean inter-arrival gap per scenario before shaping, µs.
const GAP_US: f64 = 15.0;
/// Per-model end-to-end latency limit, µs.
const SLO_US: f64 = 400.0;
/// Largest request, samples (the power law spans 1–48).
const MAX_SAMPLES: u32 = 48;
/// Size of the probe batch that prices a (model, class) pair.
const PROBE_SAMPLES: u32 = 16;
/// Kept chunks for the reference and baseline checks.
const KEEP_EVERY: u64 = 16;
const KEEP_MAX: usize = 128;
/// Seed of the tuning histories and pricing probes: part of the
/// deployment, not the traffic.
const HISTORY_SEED: u64 = 0xA11CE;

/// The generated inputs.
pub struct Inputs {
    /// The models, in scenario order.
    pub models: Vec<ModelConfig>,
    /// V100, A100, Edge.
    pub archs: Vec<GpuArch>,
    /// Per-model tuning history.
    pub histories: Vec<Dataset>,
    /// Per-model probe batch.
    pub probes: Vec<Batch>,
    /// Per-scenario request streams, in arrival order.
    pub streams: Vec<Vec<Request>>,
}

fn workload(seed: u64) -> FleetWorkload {
    let span_us = GAP_US * REQUESTS as f64;
    FleetWorkload {
        scenarios: MODELS
            .iter()
            .enumerate()
            .map(|(m, (preset, _))| {
                let mut shape = TrafficShape {
                    diurnal: Some(DiurnalCurve {
                        period_us: span_us / 2.0,
                        peak_to_trough: 2.0,
                        phase: 0.13 * m as f64,
                    }),
                    flash_crowds: Vec::new(),
                };
                if m == 1 {
                    shape.flash_crowds.push(FlashCrowd {
                        start_us: 0.45 * span_us,
                        duration_us: 0.08 * span_us,
                        multiplier: 3.0,
                    });
                }
                ScenarioSpec {
                    name: preset.name().to_string(),
                    workload: WorkloadSpec {
                        mean_interarrival_us: GAP_US,
                        size_dist: PoolingDist::PowerLaw {
                            alpha: 1.2,
                            max: MAX_SAMPLES,
                        },
                        size_unit: 1,
                    },
                    shape,
                    requests: REQUESTS,
                    priority: 1,
                }
            })
            .collect(),
        seed,
    }
}

/// `streams` with every arrival time divided by `rate_factor`.
fn rescaled(streams: &[Vec<Request>], rate_factor: f64) -> Vec<Vec<Request>> {
    streams
        .iter()
        .map(|s| {
            s.iter()
                .map(|q| Request {
                    arrival_us: q.arrival_us / rate_factor,
                    ..q.clone()
                })
                .collect()
        })
        .collect()
}

/// Provision the fleet: price every (model, class) pair with a tuned
/// engine, place by cheapest fit, and build the members, whose engines
/// record into `log`. Pricing probes that fail count into `failed`.
fn deploy<'a>(
    inputs: &'a Inputs,
    log: &SharedLog,
    failed: &mut u64,
) -> (FleetRuntime<'a>, Vec<usize>) {
    let cfg = harness_tuner();
    // Provisioning: price every (model, class) pair with a tuned
    // engine, place by cheapest fit, build the members.
    let mut engines: Vec<Vec<RecFlexEngine>> = Vec::new();
    let mut per_sample: Vec<Vec<f64>> = Vec::new();
    for (m, model) in inputs.models.iter().enumerate() {
        let mut row = Vec::new();
        let mut costs = Vec::new();
        for arch in &inputs.archs {
            let engine = TimedEngine::new(
                tune_engine(model, &inputs.histories[m], arch, &cfg),
                shared_log(0, 0),
            );
            match engine.run(model, &engine.engine.tables, &inputs.probes[m], arch) {
                Ok(run) => costs.push(run.latency_us / PROBE_SAMPLES as f64),
                Err(_) => {
                    *failed += 1;
                    costs.push(f64::INFINITY);
                }
            }
            row.push(engine.engine);
        }
        engines.push(row);
        per_sample.push(costs);
    }
    let assignment = FleetAssignment::cheapest_fit(&per_sample, &vec![1; MODELS.len()], &CAPACITY);
    let classes: Vec<DeviceClass<'_>> = CLASSES
        .iter()
        .zip(&inputs.archs)
        .zip(CAPACITY)
        .map(|((name, arch), devices)| DeviceClass {
            name: name.to_string(),
            arch,
            devices,
        })
        .collect();
    let members: Vec<FleetMember<'_>> = inputs
        .models
        .iter()
        .enumerate()
        .map(|(m, model)| {
            let class = assignment.class_of[m];
            let arch = &inputs.archs[class];
            let tuned = &engines[m][class];
            let runtime = span("core.shard_build", None, || {
                ShardedServeRuntime::build(
                    model,
                    arch,
                    Placement::balance(model, 1),
                    ServeConfig {
                        streams: 4,
                        policy: BatchPolicy::DynamicPacked {
                            max_batch: 256,
                            max_wait_us: 0.25 * SLO_US,
                        },
                        slo_deadline_us: Some(SLO_US),
                        closed_loop: false,
                        hot_shard_cap: None,
                    },
                    Interconnect::nvlink(),
                    |sub| {
                        // A one-device placement keeps the whole model:
                        // reuse the decision tuned for this class.
                        let engine = if *sub == tuned.model {
                            RecFlexEngine::from_tune_result(sub, arch, tuned.tune_result.clone())
                        } else {
                            tune_engine(sub, &inputs.histories[m], arch, &cfg)
                        };
                        Box::new(TimedEngine::new(engine, log.clone())) as Box<dyn Backend>
                    },
                )
            });
            FleetMember {
                name: model.name.clone(),
                class,
                runtime,
                slo_deadline_us: Some(SLO_US),
                gate: Some(QueryGate {
                    cost_per_sample_us: per_sample[m][class],
                    deadline_us: SLO_US,
                }),
                tuning: None,
            }
        })
        .collect();
    (FleetRuntime { classes, members }, assignment.class_of)
}

/// The workload.
pub struct FleetBurst;

impl Workload for FleetBurst {
    type Inputs = Inputs;
    type Observed = Vec<Sample>;
    const NAME: &'static str = "fleet_burst";

    fn setup(seed: u64) -> Inputs {
        let models: Vec<ModelConfig> = MODELS.iter().map(|(p, f)| p.scaled(*f)).collect();
        let (histories, probes, streams) = span("data.generate", None, || {
            let histories = models
                .iter()
                .enumerate()
                .map(|(m, model)| {
                    Dataset::synthesize_varied(model, &[256, 128, 192], HISTORY_SEED + m as u64)
                })
                .collect();
            let probes = models
                .iter()
                .map(|model| Batch::generate(model, PROBE_SAMPLES, HISTORY_SEED))
                .collect();
            let traffic = workload(TRAFFIC_SEED);
            let streams = models
                .iter()
                .enumerate()
                .map(|(m, model)| {
                    let shape = traffic.scenario_stream(m, &unit_model(model));
                    with_payloads(model, &shape, seed ^ (m as u64).rotate_left(32), 0)
                })
                .collect();
            (histories, probes, streams)
        });
        Inputs {
            models,
            archs: vec![GpuArch::v100(), GpuArch::a100(), GpuArch::edge()],
            histories,
            probes,
            streams,
        }
    }

    fn input_digest(inputs: &Inputs) -> u64 {
        let mut d = Digest::default();
        for b in inputs
            .histories
            .iter()
            .flat_map(|h| h.batches())
            .chain(&inputs.probes)
        {
            d.batch(b);
        }
        for q in inputs.streams.iter().flatten() {
            d.float(q.arrival_us);
            d.batch(&q.batch);
        }
        d.value()
    }

    fn round(inputs: &Inputs) -> (Round, Vec<Sample>) {
        let mut r = Round::default();
        let log = shared_log(KEEP_EVERY, KEEP_MAX);
        let t = Instant::now();
        let (fleet, class_of) = deploy(inputs, &log, &mut r.failed);
        r.tune_s = t.elapsed().as_secs_f64();
        r.attempted += (MODELS.len() * CLASSES.len()) as u64;

        let offered: usize = inputs.streams.iter().map(Vec::len).sum();
        r.attempted += offered as u64;
        r.requests += offered as u64;
        let t = Instant::now();
        let nominal = span("serve.serve", None, || fleet.serve_streams(&inputs.streams));
        r.serve_s += t.elapsed().as_secs_f64();
        let report = match nominal {
            Ok(rep) => rep,
            Err(e) => {
                r.failed += offered as u64;
                r.notes.push(format!("FAIL: nominal phase: {e}"));
                return (r, Vec::new());
            }
        };
        r.failed += span("bench.check", None, || {
            report
                .models
                .iter()
                .zip(&inputs.streams)
                .map(|(out, stream)| unaccounted(stream, &out.report.records))
                .sum::<u64>()
        });
        let log = std::mem::take(&mut *lock(&log));

        let records: Vec<_> = report
            .models
            .iter()
            .flat_map(|out| out.report.records.iter())
            .collect();
        let lat: Vec<f64> = records
            .iter()
            .filter(|q| !q.base.is_shed())
            .map(|q| q.base.latency_us())
            .collect();
        let gate_shed: u64 = report.models.iter().map(|o| o.gate_shed).sum();
        let shed = records.iter().filter(|q| q.base.is_shed()).count() as u64;
        let launches: u64 = report.models.iter().map(|o| o.report.kernel_launches).sum();
        r.sim = vec![
            metric("kernel_us", log.latency_us / log.calls.max(1) as f64, "us"),
            metric("p50_us", percentile(&lat, 0.50), "us"),
            metric("p99_us", percentile(&lat, 0.99), "us"),
            metric("slo_attainment", report.slo_attainment, "fraction"),
        ];
        r.layer_sim = ServeLayers {
            shed_frac: (shed - gate_shed) as f64 / offered as f64,
            gate_shed_frac: gate_shed as f64 / offered as f64,
            class_util: mean(
                &report
                    .classes
                    .iter()
                    .map(|c| c.utilization)
                    .collect::<Vec<f64>>(),
            ),
            samples_per_launch: log.samples as f64 / launches.max(1) as f64,
            ..ServeLayers::default()
        }
        .with_records(&records)
        .metrics();
        let mut d = Digest::default();
        for &c in &class_of {
            d.word(c as u64);
        }
        r.observed = d.value();
        r.notes.push(format!(
            "placement {class_of:?} over {CLASSES:?}; nominal {offered} requests: p50/p99 over {} completed, {} beyond p99; gate-shed {gate_shed}, shed {}; launches {launches}",
            lat.len(),
            lat.len() - (0.99 * lat.len() as f64).ceil() as usize,
            shed - gate_shed
        ));
        (r, log.kept)
    }

    fn finish(inputs: &Inputs, kept: Vec<Sample>, r: &mut Round) {
        let (fleet, _) = deploy(inputs, &shared_log(0, 0), &mut r.failed);
        // Rate ladder: the whole trace replayed at scaled rates.
        let offered: usize = inputs.streams.iter().map(Vec::len).sum();
        let span_us = inputs
            .streams
            .iter()
            .filter_map(|s| s.last())
            .map(|q| q.arrival_us)
            .fold(1.0, f64::max);
        let base_rps = offered as f64 / span_us * 1e6;
        let ladder: Vec<f64> = ladder_factors().iter().map(|f| f * base_rps).collect();
        let (capacity, probes) = search_ladder(&ladder, |rate| {
            let probe = rescaled(&inputs.streams, rate / base_rps);
            r.attempted += offered as u64;
            match span("serve.serve", None, || fleet.serve_streams(&probe)) {
                Ok(rep) => {
                    let mut all_pass = true;
                    for (out, stream) in rep.models.iter().zip(&probe) {
                        r.failed += span("bench.check", None, || {
                            unaccounted(stream, &out.report.records)
                        });
                        let recs: Vec<_> = out.report.records.iter().collect();
                        all_pass &=
                            capacity_probe(&recs, SLO_US, out.gate_shed as usize, 0.25 * SLO_US)
                                .is_some();
                    }
                    let recs: Vec<_> = rep
                        .models
                        .iter()
                        .flat_map(|o| o.report.records.iter())
                        .collect();
                    let gate_shed = rep.models.iter().map(|o| o.gate_shed as usize).sum();
                    all_pass
                        .then(|| capacity_probe(&recs, f64::INFINITY, gate_shed, f64::INFINITY))
                        .flatten()
                }
                Err(_) => {
                    r.failed += offered as u64;
                    None
                }
            }
        });
        let (mismatched, speedup) = span("bench.check", None, || check_kept(&kept));
        r.failed += mismatched;
        r.sim.push(metric("kernel_speedup", speedup, "x"));
        r.sim.push(metric("capacity_rps", capacity, "1/s"));
        r.notes.push(format!(
            "capacity ladder ({offered} requests per probe, base {base_rps:.0} rps): {}",
            ladder_note(&probes)
        ));
        r.notes.push(format!(
            "kept {} chunks: {mismatched} differ from the reference",
            kept.len()
        ));
    }
}
