//! `tune_portfolio`: offline tuning of models A–E on V100 and A100.
//!
//! Each round tunes every (model, arch) cell with the composed tuner and
//! evaluates the compiled kernel on varied-size evaluation batches
//! through [`TimedEngine`]. Nearly all wall time is in the tuner, the
//! simulator and functional execution; the serving runtime does no work.

use std::time::Instant;

use recflex_baselines::Backend;
use recflex_data::{Dataset, ModelConfig, ModelPreset};
use recflex_embedding::{reference_model_output, FusedOutput, TableSet};
use recflex_sim::GpuArch;

use crate::layers::{baselines, harness_tuner, shared_log, tune_engine, TimedEngine};
use crate::serving::ServeLayers;
use crate::stats::{geomean, percentile, Digest};
use crate::trace::span;
use crate::{metric, Round, Workload};

/// Feature-count fraction of each preset (the harness default scale).
const MODEL_FRAC: f64 = 0.1;
/// Evaluation batch size around which the eval sizes vary.
const BATCH: u32 = 256;
/// Evaluation batches per model.
const EVAL_BATCHES: usize = 8;
/// Seed of the tuning histories. The tuner's work grows with the lookups
/// in its history, so a seeded history would move `tune_s` by ±15 % from
/// seed to seed; the seed draws the evaluation batches instead.
const HISTORY_SEED: u64 = 0xA11CE;

/// One model's generated inputs, shared by its V100 and A100 cells.
pub struct ModelInputs {
    /// The model.
    pub model: ModelConfig,
    /// Its tables.
    pub tables: TableSet,
    /// Tuning history.
    pub history: Dataset,
    /// Evaluation batches (sizes cycle through fractions of [`BATCH`]).
    pub eval: Dataset,
}

/// The generated inputs.
pub struct Inputs {
    /// Models A–E.
    pub models: Vec<ModelInputs>,
    /// V100 and A100.
    pub archs: Vec<GpuArch>,
}

/// Per cell (model-major), per eval batch: RecFlex latency (µs) and the
/// digest of the output.
pub type CellEvals = Vec<Vec<(f64, u64)>>;

/// Digest of every value of an output, by bits.
pub fn output_digest(out: &FusedOutput) -> u64 {
    let mut d = Digest::default();
    d.word(out.data().len() as u64);
    for x in out.data() {
        d.word(x.to_bits() as u64);
    }
    d.value()
}

fn sizes(fracs: &[f64], n: usize) -> Vec<u32> {
    fracs
        .iter()
        .cycle()
        .take(n)
        .map(|f| ((BATCH as f64 * f) as u32).max(1))
        .collect()
}

/// Latency per eval batch of every applicable baseline's fastest run.
fn fastest_baseline(m: &ModelInputs, arch: &GpuArch) -> Vec<f64> {
    // Fastest baseline = smallest total over the eval set.
    baselines(&m.model, &m.history)
        .iter()
        .map(|b| {
            m.eval
                .batches()
                .iter()
                .map(|batch| {
                    b.run(&m.model, &m.tables, batch, arch)
                        .map_or(f64::INFINITY, |r| r.latency_us)
                })
                .collect::<Vec<f64>>()
        })
        .min_by(|a, b| a.iter().sum::<f64>().total_cmp(&b.iter().sum::<f64>()))
        .unwrap_or_default()
}

/// The workload.
pub struct TunePortfolio;

impl Workload for TunePortfolio {
    type Inputs = Inputs;
    type Observed = CellEvals;
    const NAME: &'static str = "tune_portfolio";

    fn setup(seed: u64) -> Inputs {
        let models = ModelPreset::TABLE1
            .iter()
            .enumerate()
            .map(|(i, preset)| {
                let model = preset.scaled(MODEL_FRAC);
                let (history, eval) = span("data.generate", None, || {
                    (
                        Dataset::synthesize_varied(
                            &model,
                            &sizes(&[1.0, 0.5, 0.75], 3),
                            HISTORY_SEED ^ i as u64,
                        ),
                        Dataset::synthesize_varied(
                            &model,
                            &sizes(&[1.0, 0.25, 0.5, 1.0, 0.125, 0.75], EVAL_BATCHES),
                            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64,
                        ),
                    )
                });
                ModelInputs {
                    tables: TableSet::for_model(&model),
                    model,
                    history,
                    eval,
                }
            })
            .collect();
        Inputs {
            models,
            archs: vec![GpuArch::v100(), GpuArch::a100()],
        }
    }

    fn input_digest(inputs: &Inputs) -> u64 {
        let mut d = Digest::default();
        for m in &inputs.models {
            for b in m.history.batches().iter().chain(m.eval.batches()) {
                d.batch(b);
            }
        }
        d.value()
    }

    fn round(inputs: &Inputs) -> (Round, CellEvals) {
        let cfg = harness_tuner();
        let mut r = Round::default();
        let mut evals: CellEvals = Vec::new();
        for m in &inputs.models {
            for arch in &inputs.archs {
                let t = Instant::now();
                let engine = tune_engine(&m.model, &m.history, arch, &cfg);
                r.tune_s += t.elapsed().as_secs_f64();
                r.attempted += 1;
                let timed = TimedEngine::new(engine, shared_log(0, 0));
                let mut cell = Vec::with_capacity(m.eval.len());
                for batch in m.eval.batches() {
                    r.attempted += 1;
                    r.requests += 1;
                    let t = Instant::now();
                    let run = timed.run(&m.model, &m.tables, batch, arch);
                    r.serve_s += t.elapsed().as_secs_f64();
                    match run {
                        Ok(run) => cell.push((
                            run.latency_us,
                            span("bench.check", None, || output_digest(&run.output)),
                        )),
                        Err(_) => {
                            r.failed += 1;
                            cell.push((f64::NAN, 0));
                        }
                    }
                }
                evals.push(cell);
            }
        }
        let totals: Vec<f64> = evals.iter().map(|c| c.iter().map(|e| e.0).sum()).collect();
        let all: Vec<f64> = evals.iter().flatten().map(|e| e.0).collect();
        let mut d = Digest::default();
        for &(lat, out) in evals.iter().flatten() {
            d.float(lat);
            d.word(out);
        }
        r.observed = d.value();
        r.sim = vec![
            metric("kernel_us", geomean(&totals), "us"),
            metric("p50_us", percentile(&all, 0.50), "us"),
            metric("p99_us", percentile(&all, 0.99), "us"),
            metric(
                "capacity_rps",
                geomean(
                    &totals
                        .iter()
                        .map(|t| EVAL_BATCHES as f64 * 1e6 / t)
                        .collect::<Vec<f64>>(),
                ),
                "1/s",
            ),
        ];
        r.layer_sim = ServeLayers::default().metrics();
        r.notes.push(format!(
            "p50_us/p99_us over {} eval batches ({} beyond p99)",
            all.len(),
            all.len() - (0.99 * all.len() as f64).ceil() as usize
        ));
        (r, evals)
    }

    fn finish(inputs: &Inputs, evals: CellEvals, r: &mut Round) {
        span("bench.check", None, || {
            let mut speedups = Vec::new();
            let (mut wins, mut compared) = (0u64, 0u64);
            let cells = inputs
                .models
                .iter()
                .flat_map(|m| inputs.archs.iter().map(move |a| (m, a)));
            for ((m, arch), cell) in cells.zip(&evals) {
                let baseline = fastest_baseline(m, arch);
                for ((batch, &(lat, out)), base) in m.eval.batches().iter().zip(cell).zip(&baseline)
                {
                    if output_digest(&reference_model_output(&m.model, &m.tables, batch)) != out {
                        r.failed += 1;
                    }
                    compared += 1;
                    wins += (lat <= *base) as u64;
                }
                let (base_total, total) = (
                    baseline.iter().sum::<f64>(),
                    cell.iter().map(|e| e.0).sum::<f64>(),
                );
                speedups.push(base_total / total);
                r.notes.push(format!(
                    "cell {}/{}: recflex {total:.1} us, fastest baseline {base_total:.1} us",
                    m.model.name, arch.name
                ));
            }
            r.sim
                .push(metric("kernel_speedup", geomean(&speedups), "x"));
            r.sim.push(metric(
                "slo_attainment",
                wins as f64 / compared.max(1) as f64,
                "fraction",
            ));
            r.notes.push(format!(
                "slo_attainment: eval batches where RecFlex is no slower than the fastest baseline ({wins} of {compared})"
            ));
        });
    }
}
