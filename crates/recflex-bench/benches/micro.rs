//! Criterion micro-benchmarks for the overhead claims of Section VI-E:
//!
//! * `thread_map/runtime_build` — the host-side workload analysis + task
//!   map construction that the paper measures at < 0.1 % of data-loading
//!   time;
//! * `tuning/local_stage_one_feature` — the unit cost behind the
//!   `O(F·K + K)` tuning complexity argument;
//! * simulator primitives (occupancy calculation, block scheduling,
//!   fused-kernel launch) that bound how fast experiments replay;
//! * functional pooling, scalar reference against the fused executor's
//!   vectorized loop.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use recflex_compiler::{FusedKernelObject, FusedSpec, TaskMap};
use recflex_data::{Batch, Dataset, ModelPreset};
use recflex_embedding::{analyze_batch, TableSet};
use recflex_schedules::enumerate_candidates;
use recflex_sim::{launch, occupancy, BlockResources, GpuArch};
use recflex_tuner::{local, TunerConfig, TuningContext};

fn bench_occupancy(c: &mut Criterion) {
    let arch = GpuArch::v100();
    c.bench_function("sim/occupancy_calc", |b| {
        b.iter(|| {
            let res = BlockResources::new(black_box(128), black_box(64), black_box(8192));
            black_box(occupancy::occupancy(&res, &arch))
        })
    });
}

fn bench_scheduler(c: &mut Criterion) {
    let times: Vec<f64> = (0..10_000).map(|i| 50.0 + (i % 17) as f64).collect();
    c.bench_function("sim/schedule_10k_blocks", |b| {
        b.iter(|| {
            black_box(recflex_sim::scheduler::schedule_blocks(
                black_box(&times),
                640,
            ))
        })
    });
}

fn bench_workload_analysis(c: &mut Criterion) {
    let m = ModelPreset::A.scaled(0.1);
    let batch = Batch::generate(&m, 256, 7);
    c.bench_function("host/workload_analysis_100f_256b", |b| {
        b.iter(|| black_box(analyze_batch(&m, &batch)))
    });
}

fn bench_thread_map(c: &mut Criterion) {
    let m = ModelPreset::A.scaled(0.1);
    let batch = Batch::generate(&m, 256, 7);
    let workloads = analyze_batch(&m, &batch);
    let schedules: Vec<_> = m
        .features
        .iter()
        .enumerate()
        .map(|(i, f)| enumerate_candidates(i, f).unwrap().candidates[0])
        .collect();
    c.bench_function("host/thread_map_runtime_build", |b| {
        b.iter(|| black_box(TaskMap::runtime(&schedules, &workloads)))
    });
}

fn bench_fused_launch(c: &mut Criterion) {
    let m = ModelPreset::A.scaled(0.1);
    let tables = TableSet::for_model(&m);
    let batch = Batch::generate(&m, 256, 7);
    let schedules: Vec<_> = m
        .features
        .iter()
        .enumerate()
        .map(|(i, f)| enumerate_candidates(i, f).unwrap().candidates[0])
        .collect();
    let obj = FusedKernelObject::compile(FusedSpec::new(schedules));
    let arch = GpuArch::v100();
    let mut g = c.benchmark_group("sim");
    g.sample_size(20);
    g.bench_function("fused_launch_100f_256b", |b| {
        b.iter(|| {
            let bound = obj.bind(&m, &tables, &batch);
            black_box(
                launch(&bound, &arch, &obj.launch_config())
                    .unwrap()
                    .latency_us,
            )
        })
    });
    g.finish();
}

fn bench_local_stage(c: &mut Criterion) {
    let m = ModelPreset::A.scaled(0.02);
    let ds = Dataset::synthesize(&m, 2, 128, 3);
    let arch = GpuArch::v100();
    let cfg = TunerConfig::fast();
    let mut g = c.benchmark_group("tuning");
    g.sample_size(10);
    g.bench_function("local_stage_20f", |b| {
        b.iter_batched(
            || TuningContext::new(&m, &ds, &arch, &cfg),
            |ctx| black_box(local::tune_local_stage(&ctx, 4, &cfg)),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_cache_plan(c: &mut Criterion) {
    let m = ModelPreset::A.scaled(0.05);
    let ds = Dataset::synthesize(&m, 2, 128, 3);
    let budget = recflex_embedding::CachePlan::full_model_bytes(&m) / 20;
    c.bench_function("host/cache_plan_50f", |b| {
        b.iter(|| black_box(recflex_embedding::CachePlan::plan(&m, ds.batches(), budget)))
    });
}

fn bench_batch_split(c: &mut Criterion) {
    let m = ModelPreset::A.scaled(0.05);
    let batch = Batch::generate(&m, 2560, 7);
    c.bench_function("host/split_2560_at_512", |b| {
        b.iter(|| black_box(recflex_core::serving::split_batch(&batch, 512)))
    });
}

fn bench_functional_exec(c: &mut Criterion) {
    let m = ModelPreset::A.scaled(0.05);
    let tables = TableSet::for_model(&m);
    let batch = Batch::generate(&m, 128, 9);
    c.bench_function("exec/reference_pooling_50f_128b", |b| {
        b.iter(|| {
            black_box(recflex_embedding::reference_model_output(
                &m, &tables, &batch,
            ))
        })
    });
    // The same pooling through the fused kernel's executor, which runs the
    // widest vector build of the loop the host supports; the ratio to the
    // scalar reference above is the vectorization gain.
    let schedules: Vec<_> = m
        .features
        .iter()
        .enumerate()
        .map(|(i, f)| enumerate_candidates(i, f).unwrap().candidates[0])
        .collect();
    let obj = FusedKernelObject::compile(FusedSpec::new(schedules));
    let bound = obj.bind(&m, &tables, &batch);
    c.bench_function("exec/fused_execute_50f_128b", |b| {
        b.iter(|| black_box(bound.execute()))
    });
}

criterion_group!(
    benches,
    bench_occupancy,
    bench_scheduler,
    bench_workload_analysis,
    bench_thread_map,
    bench_fused_launch,
    bench_local_stage,
    bench_cache_plan,
    bench_batch_split,
    bench_functional_exec
);
criterion_main!(benches);
