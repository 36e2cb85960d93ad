//! Local tuning stage: per-feature winners under a fixed occupancy.
//!
//! For occupancy `O_k` and feature `f`, the stage launches one co-execution
//! kernel per tuning batch (candidates side by side on duplicated inputs,
//! grid padded to fill the SM slots) and sums every candidate's block times
//! across batches — Equations 3 + 5. The feature loop is embarrassingly
//! parallel (the paper farms it over eight GPUs; we farm it over cores).

use rayon::prelude::*;
use recflex_sim::{block_times, LaunchConfig};

use crate::coexec::{padding_profile, CoExecKernel};
use crate::{TunerConfig, TuningContext};

/// Tune every feature under occupancy target `k`. Returns the winning
/// candidate index per feature.
pub fn tune_local_stage(ctx: &TuningContext<'_>, k: u32, cfg: &TunerConfig) -> Vec<usize> {
    stage_scores(ctx, k, cfg)
        .iter()
        .map(|scores| argmin(scores))
        .collect()
}

/// Every candidate's score under occupancy target `k`, per feature.
///
/// Scoring reads only the candidates' block times, so each co-execution
/// kernel is timed with [`block_times`], which skips the padding blocks
/// and everything a full launch derives after block times.
fn stage_scores(ctx: &TuningContext<'_>, k: u32, cfg: &TunerConfig) -> Vec<Vec<f64>> {
    let pad = padding_profile(&ctx.history);
    let pad_slots = ctx.arch.num_sms as f64 * k as f64;
    let pad_target = (pad_slots * cfg.pad_fill).ceil() as u32;
    let score_slots = (ctx.arch.num_sms * k).max(1) as f64;
    let config = LaunchConfig::with_occupancy(k);

    ctx.candidates
        .par_iter()
        .map(|cs| {
            let f = cs.feature_idx;
            let mut scores = vec![0.0f64; cs.len()];
            for (bi, batch) in ctx.tuning_batches().iter().enumerate() {
                let w = &ctx.history[bi][f];
                let fb = &batch.features[f];
                let kern = CoExecKernel::new(&cs.candidates, fb, w, pad_target, pad);
                // Candidate union unlaunchable at this occupancy: the batch
                // adds nothing to any score.
                let Ok(times) = block_times(&kern, ctx.arch, &config) else {
                    continue;
                };
                for (i, score) in scores.iter_mut().enumerate() {
                    // The candidate's contribution to the fused two-bound
                    // makespan: its Equation-3 block-time sum spread over
                    // the SM slots, floored by its own worst straggler
                    // block. For saturating workloads the sum term
                    // dominates and this reduces to the paper's Eq. 3.
                    let seg = kern.segment(i);
                    let sum = times.steady[seg.clone()].iter().sum::<f64>() / score_slots;
                    let straggler = times.solo[seg].iter().copied().fold(0.0f64, f64::max);
                    *score += sum.max(straggler);
                }
            }
            scores
        })
        .collect()
}

/// Index of the smallest score (first on ties; all-zero scores fall back
/// to candidate 0, a safe default).
pub(crate) fn argmin(scores: &[f64]) -> usize {
    let mut best = 0usize;
    let mut best_v = f64::INFINITY;
    for (i, &v) in scores.iter().enumerate() {
        let v = if v == 0.0 { f64::INFINITY } else { v };
        if v < best_v {
            best = i;
            best_v = v;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use recflex_data::{Dataset, ModelPreset};
    use recflex_sim::occupancy::control_occupancy;
    use recflex_sim::{launch, GpuArch, SimKernel};

    /// The local stage scored through full launches: every co-execution
    /// kernel goes through `launch`, and scores sum slices of its report.
    fn reference_stage_scores(ctx: &TuningContext<'_>, k: u32, cfg: &TunerConfig) -> Vec<Vec<f64>> {
        let pad = padding_profile(&ctx.history);
        let pad_target = (ctx.arch.num_sms as f64 * k as f64 * cfg.pad_fill).ceil() as u32;
        let slots = (ctx.arch.num_sms * k).max(1) as f64;
        ctx.candidates
            .iter()
            .map(|cs| {
                let f = cs.feature_idx;
                let mut scores = vec![0.0f64; cs.len()];
                for (bi, batch) in ctx.tuning_batches().iter().enumerate() {
                    let kern = CoExecKernel::new(
                        &cs.candidates,
                        &batch.features[f],
                        &ctx.history[bi][f],
                        pad_target,
                        pad,
                    );
                    let Ok(report) = launch(&kern, ctx.arch, &LaunchConfig::with_occupancy(k))
                    else {
                        continue;
                    };
                    for (i, score) in scores.iter_mut().enumerate() {
                        let seg = kern.segment(i);
                        let sum = report.block_time_sum(seg.clone()) / slots;
                        let straggler = report.block_solo_times[seg]
                            .iter()
                            .copied()
                            .fold(0.0f64, f64::max);
                        *score += sum.max(straggler);
                    }
                }
                scores
            })
            .collect()
    }

    /// Whether some candidate of some feature spills at level `k`: its
    /// natural register demand exceeds the co-execution kernel's cap.
    fn some_candidate_spills(ctx: &TuningContext<'_>, k: u32) -> bool {
        let batch = &ctx.tuning_batches()[0];
        ctx.candidates.iter().any(|cs| {
            let f = cs.feature_idx;
            let w = &ctx.history[0][f];
            let kern =
                CoExecKernel::new(&cs.candidates, &batch.features[f], w, 0, Default::default());
            control_occupancy(&kern.resources(), ctx.arch, k)
                .and_then(|ctl| ctl.reg_cap)
                .is_some_and(|cap| cs.candidates.iter().any(|c| c.natural_regs() > cap))
        })
    }

    #[test]
    fn stage_scores_match_full_launch_reference_bitwise() {
        let bits = |v: &[Vec<f64>]| -> Vec<Vec<u64>> {
            v.iter()
                .map(|s| s.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        let presets = [
            ModelPreset::A,
            ModelPreset::B,
            ModelPreset::C,
            ModelPreset::D,
            ModelPreset::E,
        ];
        let cfg = TunerConfig::fast();
        let mut spilled = false;
        for (mi, preset) in presets.into_iter().enumerate() {
            let m = preset.scaled(0.01);
            let ds = Dataset::synthesize(&m, 2, 48, 17 + mi as u64);
            for arch in [GpuArch::v100(), GpuArch::a100()] {
                let mut ctx = TuningContext::new(&m, &ds, &arch, &cfg);
                if preset == ModelPreset::A && arch == GpuArch::a100() {
                    // Host-resident cold rows: profiles carry UVM traffic.
                    for batch in &mut ctx.history {
                        for w in batch.iter_mut() {
                            *w = w.clone().with_uvm_cold_frac(0.3);
                        }
                    }
                }
                for k in [1, 2, 4, 8, 16] {
                    let fast = stage_scores(&ctx, k, &cfg);
                    let reference = reference_stage_scores(&ctx, k, &cfg);
                    let case = format!("{} on {} at k={k}", m.name, arch.name);
                    assert_eq!(bits(&fast), bits(&reference), "{case}");
                    let winners: Vec<usize> = reference.iter().map(|s| argmin(s)).collect();
                    assert_eq!(tune_local_stage(&ctx, k, &cfg), winners, "{case}");
                    spilled |= some_candidate_spills(&ctx, k);
                }
            }
        }
        assert!(spilled, "no level capped a candidate's registers");
    }

    #[test]
    fn argmin_basics() {
        assert_eq!(argmin(&[3.0, 1.0, 2.0]), 1);
        assert_eq!(argmin(&[1.0, 1.0]), 0, "ties break to the first");
        assert_eq!(argmin(&[0.0, 0.0]), 0, "all-unmeasured falls back to 0");
        assert_eq!(argmin(&[0.0, 5.0]), 1, "unmeasured treated as infinity");
    }

    #[test]
    fn local_stage_returns_valid_choices() {
        let m = ModelPreset::A.scaled(0.01);
        let ds = Dataset::synthesize(&m, 2, 48, 5);
        let arch = GpuArch::v100();
        let cfg = TunerConfig::fast();
        let ctx = TuningContext::new(&m, &ds, &arch, &cfg);
        let winners = tune_local_stage(&ctx, 4, &cfg);
        assert_eq!(winners.len(), m.features.len());
        for (f, &w) in winners.iter().enumerate() {
            assert!(
                w < ctx.candidates[f].len(),
                "feature {f} choice out of range"
            );
        }
    }

    #[test]
    fn local_stage_is_deterministic() {
        let m = ModelPreset::C.scaled(0.008);
        let ds = Dataset::synthesize(&m, 2, 32, 9);
        let arch = GpuArch::v100();
        let cfg = TunerConfig::fast();
        let ctx = TuningContext::new(&m, &ds, &arch, &cfg);
        assert_eq!(
            tune_local_stage(&ctx, 4, &cfg),
            tune_local_stage(&ctx, 4, &cfg)
        );
    }

    #[test]
    fn occupancy_changes_winners_for_some_feature() {
        // The whole point of the two-stage design: the best schedule
        // depends on the occupancy environment. Over a heterogeneous
        // model at least one feature should flip between extreme levels.
        let m = ModelPreset::A.scaled(0.02);
        let ds = Dataset::synthesize(&m, 2, 64, 5);
        let arch = GpuArch::v100();
        let cfg = TunerConfig::fast();
        let ctx = TuningContext::new(&m, &ds, &arch, &cfg);
        let low = tune_local_stage(&ctx, 1, &cfg);
        let high = tune_local_stage(&ctx, 16, &cfg);
        assert_ne!(low, high, "occupancy must matter for schedule choice");
    }
}
