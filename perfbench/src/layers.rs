//! Timed entry points into each layer of the library.
//!
//! [`TimedEngine`] is a serving backend that performs
//! `RecFlexEngine::run` as its five separate public calls — workload
//! analysis, runtime task mapping, binding, simulated launch, functional
//! execution — with a span around each. [`tune_engine`] composes
//! `RecFlexEngine::tune` from the tuner's public stages the same way. Both
//! do exactly the work of the calls they replace, traced or not, so the
//! traced and untraced runs execute the same program.

use std::sync::{Arc, Mutex};

use recflex_baselines::{
    Backend, BackendError, BackendRun, HugeCtrBackend, RecomBackend, TensorFlowBackend,
    TorchRecBackend,
};
use recflex_compiler::{BoundFusedKernel, DispatchMode, FusedKernelObject, FusedSpec, TaskMap};
use recflex_core::RecFlexEngine;
use recflex_data::{Batch, Dataset, ModelConfig};
use recflex_embedding::{analyze_batch, FusedOutput, TableSet};
use recflex_sim::{launch, GpuArch};
use recflex_tuner::global::tune_global_stage;
use recflex_tuner::local::tune_local_stage;
use recflex_tuner::{TunerConfig, TuningContext};

use crate::trace::{count, span};

/// The tuner configuration of the experiment harness: five occupancy
/// levels, three tuning batches.
pub fn harness_tuner() -> TunerConfig {
    TunerConfig {
        occupancy_levels: Some(vec![1, 2, 4, 8, 16]),
        tuning_batches: 3,
        pad_fill: 2.0,
    }
}

/// `RecFlexEngine::tune`, composed from the tuner's public stages:
/// context, one local stage per occupancy level, the global stage, and
/// the fused-kernel compile.
pub fn tune_engine(
    model: &ModelConfig,
    dataset: &Dataset,
    arch: &GpuArch,
    cfg: &TunerConfig,
) -> RecFlexEngine {
    span("core.tune", None, || {
        let ctx = span("tuner.context", None, || {
            TuningContext::new(model, dataset, arch, cfg)
        });
        let levels = cfg
            .occupancy_levels
            .clone()
            .unwrap_or_else(|| arch.occupancy_levels());
        let winners: Vec<Vec<usize>> = levels
            .iter()
            .map(|&k| span("tuner.local", None, || tune_local_stage(&ctx, k, cfg)))
            .collect();
        let local_evaluations = levels.len() * ctx.candidates.len() * ctx.history.len();
        let tune_result = span("tuner.global", None, || {
            tune_global_stage(&ctx, &levels, winners, local_evaluations)
        });
        count("tuner.evaluations", tune_result.evaluations as f64);
        let object = span("compiler.compile", None, || {
            let mut spec = FusedSpec::new(tune_result.schedules.clone());
            spec.occupancy_target = tune_result.occupancy;
            spec.dispatch = DispatchMode::IfElse;
            FusedKernelObject::compile(spec)
        });
        RecFlexEngine {
            model: model.clone(),
            tables: TableSet::for_model(model),
            object,
            arch: arch.clone(),
            tune_result,
        }
    })
}

/// The baselines that can serve `model`: TensorFlow, RECom (compiled on
/// `history`), TorchRec, and HugeCTR for uniform-dim models.
pub fn baselines(model: &ModelConfig, history: &Dataset) -> Vec<Box<dyn Backend>> {
    let mut all: Vec<Box<dyn Backend>> = vec![
        Box::new(TensorFlowBackend),
        Box::new(RecomBackend::compile(model, history)),
        Box::new(TorchRecBackend::compile(model)),
        Box::new(HugeCtrBackend),
    ];
    all.retain(|b| b.supports(model));
    all
}

/// A served chunk kept for the post-run checks.
pub struct Sample {
    /// The model (shard) the chunk ran on.
    pub model: ModelConfig,
    /// The chunk.
    pub batch: Batch,
    /// What the engine returned for it.
    pub output: FusedOutput,
    /// The device it was simulated on.
    pub arch: GpuArch,
    /// Its simulated latency, µs.
    pub latency_us: f64,
}

/// What every [`TimedEngine`] sharing one log has done.
#[derive(Default)]
pub struct CallLog {
    /// Backend calls made.
    pub calls: u64,
    /// Simulated latency summed over calls, µs.
    pub latency_us: f64,
    /// Samples served.
    pub samples: u64,
    /// Every `sample_every`-th call is kept in [`Self::kept`] (0 keeps
    /// none), up to `max_kept` chunks.
    pub sample_every: u64,
    /// Cap on kept chunks.
    pub max_kept: usize,
    /// The kept chunks.
    pub kept: Vec<Sample>,
}

/// A log shared by the engines of one serving tier or fleet.
pub type SharedLog = Arc<Mutex<CallLog>>;

/// A fresh shared log keeping every `sample_every`-th chunk, at most
/// `max_kept`.
pub fn shared_log(sample_every: u64, max_kept: usize) -> SharedLog {
    Arc::new(Mutex::new(CallLog {
        sample_every,
        max_kept,
        ..CallLog::default()
    }))
}

/// Lock a shared log.
pub fn lock(log: &SharedLog) -> std::sync::MutexGuard<'_, CallLog> {
    log.lock()
        .expect("call log poisoned by a panic in a backend call")
}

/// A tuned engine served through separately timed layer calls.
pub struct TimedEngine {
    /// The wrapped engine.
    pub engine: RecFlexEngine,
    log: SharedLog,
}

impl TimedEngine {
    /// Wrap `engine`, recording into `log`.
    pub fn new(engine: RecFlexEngine, log: SharedLog) -> Self {
        TimedEngine { engine, log }
    }
}

impl Backend for TimedEngine {
    fn name(&self) -> &'static str {
        "RecFlex"
    }

    fn run(
        &self,
        model: &ModelConfig,
        tables: &TableSet,
        batch: &Batch,
        arch: &GpuArch,
    ) -> Result<BackendRun, BackendError> {
        let chunk = {
            let mut log = lock(&self.log);
            log.calls += 1;
            log.calls - 1
        };
        let obj = &self.engine.object;
        let run = span("core.run", Some(chunk), || {
            let workloads = span("embedding.analyze", Some(chunk), || {
                analyze_batch(model, batch)
            });
            let task_map = span("compiler.taskmap", Some(chunk), || {
                TaskMap::runtime(&obj.spec.schedules, &workloads)
            });
            let bound = BoundFusedKernel {
                obj,
                model,
                tables,
                batch,
                workloads,
                task_map,
            };
            let report = span("sim.launch", Some(chunk), || {
                launch(&bound, arch, &obj.launch_config())
            })
            .map_err(|e| BackendError::Launch(e.to_string()))?;
            let output = span("schedules.execute", Some(chunk), || bound.execute());
            count("sim.launches", 1.0);
            count("sim.blocks", bound.task_map.grid_blocks() as f64);
            count("sim.dram_bytes", report.metrics.dram_bytes);
            count("embedding.lookups", batch.total_lookups() as f64);
            Ok(BackendRun {
                output,
                latency_us: report.latency_us,
                kernel_launches: 1,
            })
        })?;
        let mut log = lock(&self.log);
        log.latency_us += run.latency_us;
        log.samples += batch.batch_size as u64;
        if log.sample_every > 0 && chunk % log.sample_every == 0 && log.kept.len() < log.max_kept {
            log.kept.push(Sample {
                model: model.clone(),
                batch: batch.clone(),
                output: run.output.clone(),
                arch: arch.clone(),
                latency_us: run.latency_us,
            });
        }
        Ok(run)
    }
}
