//! The benchmark measures the program it claims to: its timing wrapper
//! and composed tuner reproduce the library's own calls exactly, and a
//! corrupted output fails the run.

use recflex_baselines::Backend;
use recflex_core::RecFlexEngine;
use recflex_data::{Batch, Dataset, ModelPreset};
use recflex_perfbench::layers::{harness_tuner, lock, shared_log, tune_engine, TimedEngine};
use recflex_perfbench::serving::check_kept;
use recflex_perfbench::tune_portfolio::output_digest;
use recflex_perfbench::{measure, Round, Workload};
use recflex_sim::GpuArch;

#[test]
fn timed_wrapper_returns_the_engines_run() {
    let model = ModelPreset::A.scaled(0.01);
    let arch = GpuArch::v100();
    let history = Dataset::synthesize_varied(&model, &[64, 32, 48], 3);
    let engine = RecFlexEngine::tune(&model, &history, &arch, &harness_tuner());
    let timed = TimedEngine::new(engine, shared_log(1, 8));
    for (i, size) in [1u32, 7, 64, 200].into_iter().enumerate() {
        let batch = Batch::generate(&model, size, 100 + i as u64);
        let direct = Backend::run(&timed.engine, &model, &timed.engine.tables, &batch, &arch)
            .expect("engine runs");
        let wrapped = timed
            .run(&model, &timed.engine.tables, &batch, &arch)
            .expect("wrapper runs");
        assert_eq!(direct.latency_us.to_bits(), wrapped.latency_us.to_bits());
        assert_eq!(direct.kernel_launches, wrapped.kernel_launches);
        assert_eq!(
            output_digest(&direct.output),
            output_digest(&wrapped.output)
        );
        assert_eq!(direct.output.data(), wrapped.output.data());
    }
}

#[test]
fn composed_tuner_reproduces_engine_tune() {
    let cfg = harness_tuner();
    for preset in [ModelPreset::A, ModelPreset::D] {
        let model = preset.scaled(0.02);
        let history = Dataset::synthesize_varied(&model, &[256, 128, 192], 11);
        for arch in [GpuArch::v100(), GpuArch::a100()] {
            let library = RecFlexEngine::tune(&model, &history, &arch, &cfg);
            let composed = tune_engine(&model, &history, &arch, &cfg);
            assert_eq!(library.tune_result.choices, composed.tune_result.choices);
            assert_eq!(
                library.tune_result.occupancy,
                composed.tune_result.occupancy
            );
            assert_eq!(library.object, composed.object);
            assert_eq!(
                library.tune_result.mean_latency_us.to_bits(),
                composed.tune_result.mean_latency_us.to_bits()
            );
        }
    }
}

/// A workload whose one round serves a chunk and corrupts one pooled
/// value before the reference check.
struct Corrupted;

impl Workload for Corrupted {
    type Inputs = ();
    type Observed = ();
    const NAME: &'static str = "corrupted";

    fn setup(_seed: u64) {}

    fn input_digest(_inputs: &()) -> u64 {
        0
    }

    fn round(_inputs: &()) -> (Round, ()) {
        let model = ModelPreset::C.scaled(0.01);
        let arch = GpuArch::a100();
        let history = Dataset::synthesize_varied(&model, &[32, 16, 24], 5);
        let log = shared_log(1, 1);
        let timed = TimedEngine::new(
            tune_engine(&model, &history, &arch, &harness_tuner()),
            log.clone(),
        );
        let batch = Batch::generate(&model, 16, 9);
        timed
            .run(&model, &timed.engine.tables, &batch, &arch)
            .expect("wrapper runs");
        let mut kept = std::mem::take(&mut lock(&log).kept);
        let clean = check_kept(&kept).0;
        assert_eq!(clean, 0, "an untouched output matches the reference");
        let before = output_digest(&kept[0].output);
        {
            let mut parts = kept[0].output.split_features_mut();
            parts[0][3] = f32::from_bits(parts[0][3].to_bits() ^ 1);
        }
        assert_ne!(before, output_digest(&kept[0].output));
        let round = Round {
            requests: 1,
            serve_s: 1.0,
            attempted: 1,
            failed: check_kept(&kept).0,
            ..Round::default()
        };
        (round, ())
    }

    fn finish(_inputs: &(), _observed: (), _round: &mut Round) {}
}

#[test]
fn a_flipped_pooled_value_fails_the_run() {
    let report = measure::<Corrupted>(1, 1);
    let rounds = recflex_perfbench::MIN_ROUNDS as u64;
    assert_eq!(report.failed, rounds);
    assert!(!report.correct);
    assert!(report.json().starts_with(&format!(
        "{{\"correct\": false, \"attempted\": {rounds}, \"failed\": {rounds},"
    )));
}
