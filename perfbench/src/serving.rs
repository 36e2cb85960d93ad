//! Checks and metrics shared by the serving workloads.

use recflex_data::{Batch, Dataset, ModelConfig};
use recflex_embedding::{reference_model_output, TableSet};
use recflex_serve::{Request, ShardedRequestRecord};

use crate::layers::{baselines, Sample};
use crate::stats::{mean, percentile};
use crate::{metric, Metric};

/// Simulated per-layer values of the serving runtime.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServeLayers {
    /// Mean queue wait of completed requests, µs.
    pub queue_us: f64,
    /// Mean device time of completed requests, µs.
    pub device_us: f64,
    /// Mean all-gather time of completed requests, µs.
    pub gather_us: f64,
    /// Mean straggler gap of completed requests, µs.
    pub straggler_us: f64,
    /// Requests shed by the runtime's SLO admission, over offered.
    pub shed_frac: f64,
    /// Requests shed by fleet query gates, over offered.
    pub gate_shed_frac: f64,
    /// Mean busy fraction over device classes.
    pub class_util: f64,
    /// Retune attempts.
    pub retunes: f64,
    /// Promoted retunes.
    pub promotions: f64,
    /// Rolled-back retunes.
    pub rollbacks: f64,
    /// Samples per kernel launch.
    pub samples_per_launch: f64,
}

impl ServeLayers {
    /// Fill the latency breakdown from completed records.
    pub fn with_records(mut self, records: &[&ShardedRequestRecord]) -> Self {
        let done: Vec<&&ShardedRequestRecord> =
            records.iter().filter(|r| !r.base.is_shed()).collect();
        let avg = |f: fn(&ShardedRequestRecord) -> f64| {
            if done.is_empty() {
                0.0
            } else {
                mean(&done.iter().map(|r| f(r)).collect::<Vec<f64>>())
            }
        };
        self.queue_us = avg(|r| r.base.queue_us);
        self.device_us = avg(|r| r.device_us);
        self.gather_us = avg(|r| r.gather_us);
        self.straggler_us = avg(|r| r.straggler_us);
        self
    }

    /// As per-layer metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric(
                "serve.samples_per_launch",
                self.samples_per_launch,
                "samples",
            ),
            metric("serve.queue_us", self.queue_us, "us"),
            metric("serve.device_us", self.device_us, "us"),
            metric("serve.gather_us", self.gather_us, "us"),
            metric("serve.straggler_us", self.straggler_us, "us"),
            metric("serve.shed_frac", self.shed_frac, "fraction"),
            metric("serve.gate_shed_frac", self.gate_shed_frac, "fraction"),
            metric("serve.class_util", self.class_util, "fraction"),
            metric("serve.retunes", self.retunes, "count"),
            metric("serve.promotions", self.promotions, "count"),
            metric("serve.rollbacks", self.rollbacks, "count"),
        ]
    }
}

/// Seed of every serving workload's traffic: request sizes and arrival
/// times. The traffic is part of a workload's definition; `--seed` draws
/// the payloads. With heavy-tailed sizes and Poisson bursts, a thousand
/// requests per seed would otherwise move p99 by ±15 % from seed to seed.
pub const TRAFFIC_SEED: u64 = 0x005E_ED0F_517E;

/// A one-feature slice of `model`: enough for a request generator to
/// draw arrival times and sizes without synthesizing full payloads.
pub fn unit_model(model: &ModelConfig) -> ModelConfig {
    ModelConfig {
        name: model.name.clone(),
        features: model.features[..1].to_vec(),
    }
}

/// The requests of `traffic` with payloads for `model` drawn from
/// `seed`, ids renumbered from `first_id`.
pub fn with_payloads(
    model: &ModelConfig,
    traffic: &[Request],
    seed: u64,
    first_id: u64,
) -> Vec<Request> {
    traffic
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let id = first_id + i as u64;
            Request {
                id,
                arrival_us: q.arrival_us,
                batch: Batch::generate(
                    model,
                    q.batch.batch_size,
                    (seed ^ 0xBA7C_4E5D).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ id,
                ),
            }
        })
        .collect()
}

/// Requests in `offered` without exactly one record: lost or duplicated.
pub fn unaccounted(offered: &[Request], records: &[ShardedRequestRecord]) -> u64 {
    let mut seen = vec![0u32; offered.len()];
    let mut stray = 0u64;
    for r in records {
        match offered.iter().position(|q| q.id == r.base.id) {
            Some(i) => seen[i] += 1,
            None => stray += 1,
        }
    }
    stray + seen.iter().filter(|&&c| c != 1).count() as u64
}

/// Kept chunks whose output differs from the scalar reference, and the
/// fastest applicable baseline's latency over RecFlex latency, both
/// summed over kept chunks.
pub fn check_kept(kept: &[Sample]) -> (u64, f64) {
    let mut mismatches = 0;
    let (mut baseline_us, mut recflex_us) = (0.0, 0.0);
    for s in kept {
        let tables = TableSet::for_model(&s.model);
        let golden = reference_model_output(&s.model, &tables, &s.batch);
        if golden.data().len() != s.output.data().len()
            || golden
                .data()
                .iter()
                .zip(s.output.data())
                .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            mismatches += 1;
        }
        let history = Dataset::from_batches(vec![s.batch.clone()]);
        let fastest = baselines(&s.model, &history)
            .iter()
            .filter_map(|b| b.run(&s.model, &tables, &s.batch, &s.arch).ok())
            .map(|r| r.latency_us)
            .fold(f64::INFINITY, f64::min);
        baseline_us += fastest;
        recflex_us += s.latency_us;
    }
    (mismatches, baseline_us / recflex_us)
}

/// The throughput a ladder probe achieved (completed requests over the
/// span from first arrival to last completion, per simulated second) if
/// it met all three capacity conditions: p99 within `slo_us`, nothing
/// shed beyond `allowed_shed` (edge-gate rejections, which do not depend
/// on the rate), and no growing backlog — the mean queue wait of the last
/// quarter of arrivals is at most that of the first quarter plus
/// `slack_us` (the batcher's own hold time).
pub fn capacity_probe(
    records: &[&ShardedRequestRecord],
    slo_us: f64,
    allowed_shed: usize,
    slack_us: f64,
) -> Option<f64> {
    let shed = records.iter().filter(|r| r.base.is_shed()).count();
    let mut done: Vec<&&ShardedRequestRecord> =
        records.iter().filter(|r| !r.base.is_shed()).collect();
    if shed > allowed_shed || done.is_empty() {
        return None;
    }
    let lat: Vec<f64> = done.iter().map(|r| r.base.latency_us()).collect();
    if percentile(&lat, 0.99) > slo_us {
        return None;
    }
    done.sort_by(|a, b| a.base.arrival_us.total_cmp(&b.base.arrival_us));
    let q = done.len() / 4;
    let wait = |rs: &[&&ShardedRequestRecord]| {
        mean(&rs.iter().map(|r| r.base.queue_us).collect::<Vec<f64>>())
    };
    if q > 0 && wait(&done[done.len() - q..]) > wait(&done[..q]) + slack_us {
        return None;
    }
    let first = done[0].base.arrival_us;
    let last = done.iter().map(|r| r.base.done_us).fold(first, f64::max);
    Some(done.len() as f64 / (last - first) * 1e6)
}

/// Rate ladder as multiples of the nominal rate: eighth-octave steps
/// from ¼× to 16×.
pub fn ladder_factors() -> Vec<f64> {
    (-16..=32).map(|k| 2f64.powf(k as f64 / 8.0)).collect()
}

/// The probes of a ladder search, as `rate:pass` / `rate:fail`.
pub fn ladder_note(probes: &[(f64, bool)]) -> String {
    probes
        .iter()
        .map(|(rate, ok)| format!("{rate:.0}:{}", if *ok { "pass" } else { "fail" }))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Binary search for the highest rung of `ladder` (ascending offered
/// rates) whose probe passes, assuming the conditions hold up to some
/// rate and fail above it. Returns that probe's achieved throughput and
/// every probe made; when even the lowest rung fails, half the lowest
/// rung's rate, so the result stays positive.
pub fn search_ladder(
    ladder: &[f64],
    mut probe: impl FnMut(f64) -> Option<f64>,
) -> (f64, Vec<(f64, bool)>) {
    let mut probes = Vec::new();
    let mut best = None;
    let (mut left, mut right) = (0usize, ladder.len());
    while left < right {
        let mid = (left + right) / 2;
        let achieved = probe(ladder[mid]);
        probes.push((ladder[mid], achieved.is_some()));
        match achieved {
            Some(x) => {
                best = Some(x);
                left = mid + 1;
            }
            None => right = mid,
        }
    }
    (best.unwrap_or(ladder[0] / 2.0), probes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_search_finds_the_last_passing_rung() {
        let ladder: Vec<f64> = (1..=20).map(|k| k as f64).collect();
        for cap in 1..=20 {
            let (rate, probes) = search_ladder(&ladder, |r| (r <= cap as f64).then_some(r));
            assert_eq!(rate, cap as f64);
            assert!(probes.len() <= 5);
        }
        assert_eq!(search_ladder(&ladder, |_| None).0, 0.5);
    }
}
