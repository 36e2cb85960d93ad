//! Functional execution of schedules.
//!
//! Every schedule computes the same mathematical function — sum pooling of
//! the looked-up rows per sample — they differ only in how the work maps to
//! hardware, which the analytic profiles capture. Functional execution
//! therefore accumulates each sample's rows **in CSR order** regardless of
//! the simulated thread mapping, so all schedules, the fused kernel and the
//! baselines produce output bit-identical to the scalar reference. (On a
//! real GPU the tree reductions of `SamplePerBlock` would reassociate the
//! sum; fixing the order here is what makes exact equality testing
//! possible, and is documented as a deliberate substitution in DESIGN.md.)
//!
//! The pooling loop is compiled once per vector ISA (AVX-512, AVX2, plain)
//! and the widest one the host supports is picked per call. Only the loop
//! over a row's `dim` elements vectorizes: each output slot still adds its
//! sample's rows one at a time in CSR order, so every version is
//! bit-identical to
//! [`reference_pooled`](recflex_embedding::reference_pooled).

use std::ops::Range;

use crate::template::ScheduleInstance;
use recflex_data::FeatureBatch;
use recflex_embedding::EmbTable;

impl ScheduleInstance {
    /// Execute this schedule's feature over a whole batch: `out` is
    /// `batch × dim`, sample-row-major.
    pub fn execute<T: EmbTable>(&self, table: &T, fb: &FeatureBatch, out: &mut [f32]) {
        debug_assert_eq!(table.dim(), self.emb_dim);
        pool(table, fb, 0..fb.batch_size(), out);
    }

    /// Execute only the samples owned by block `rel_bidx` (blocks own
    /// disjoint sample ranges, so executing every block of the feature
    /// equals [`execute`](Self::execute)). `out` is still the feature's
    /// full `batch × dim` buffer.
    pub fn execute_block<T: EmbTable>(
        &self,
        table: &T,
        fb: &FeatureBatch,
        rel_bidx: u32,
        out: &mut [f32],
    ) {
        debug_assert_eq!(table.dim(), self.emb_dim);
        let batch = fb.batch_size();
        let spb = self.samples_per_block();
        let s0 = rel_bidx.saturating_mul(spb).min(batch);
        let s1 = (s0 + spb).min(batch);
        pool(table, fb, s0..s1, out);
    }
}

/// Sum-pool samples `samples` of `fb` into their rows of `out`, through the
/// widest compiled version of [`pool_body`] the host supports.
fn pool<T: EmbTable>(table: &T, fb: &FeatureBatch, samples: Range<u32>, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq") {
            // SAFETY: the host supports AVX-512F and AVX-512DQ, checked
            // just above.
            return unsafe { pool_avx512(table, fb, samples, out) };
        }
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the host supports AVX2, checked just above.
            return unsafe { pool_avx2(table, fb, samples, out) };
        }
    }
    pool_body(table, fb, samples, out)
}

/// [`pool_body`] compiled for AVX-512 (`vpmullq` covers the 64-bit
/// multiplies of the virtual table's hash).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn pool_avx512<T: EmbTable>(table: &T, fb: &FeatureBatch, samples: Range<u32>, out: &mut [f32]) {
    pool_body(table, fb, samples, out)
}

/// [`pool_body`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn pool_avx2<T: EmbTable>(table: &T, fb: &FeatureBatch, samples: Range<u32>, out: &mut [f32]) {
    pool_body(table, fb, samples, out)
}

/// The pooling loop: zero each sample's output row, then add its looked-up
/// rows in CSR order. Inlined into each ISA wrapper so `table.value`
/// inlines with it and the `d` loop vectorizes for that ISA.
#[inline(always)]
fn pool_body<T: EmbTable>(table: &T, fb: &FeatureBatch, samples: Range<u32>, out: &mut [f32]) {
    let dim = table.dim() as usize;
    for s in samples {
        let dst = &mut out[s as usize * dim..(s as usize + 1) * dim];
        dst.fill(0.0);
        for &row in fb.sample_indices(s) {
            for (d, slot) in dst.iter_mut().enumerate() {
                *slot += table.value(row, d as u32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::{ScheduleKind, ScheduleParams};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use recflex_data::{FeatureSpec, PoolingDist};
    use recflex_embedding::{reference_pooled, DenseTable, FeatureWorkload, VirtualTable};

    fn spec(dim: u32) -> FeatureSpec {
        FeatureSpec {
            name: "t".into(),
            table_rows: 500,
            emb_dim: dim,
            pooling: PoolingDist::Normal {
                mean: 12.0,
                std: 6.0,
                max: 60,
            },
            coverage: 0.8,
            row_skew: 0.5,
        }
    }

    fn all_kinds(dim: u32) -> Vec<ScheduleInstance> {
        [
            (ScheduleKind::RowPerThread, 1u32, 0u32),
            (ScheduleKind::SubWarp, 8, 0),
            (ScheduleKind::SamplePerWarp, 32, 0),
            (ScheduleKind::SamplePerBlock, 128, 0),
            (ScheduleKind::SmemStaged, 32, 8),
            (ScheduleKind::GatherScatter, 32, 0),
        ]
        .into_iter()
        .map(|(kind, g, stage)| ScheduleInstance {
            kind,
            params: ScheduleParams {
                threads_per_block: 128,
                group_size: g,
                vector_width: 2,
                unroll: 1,
                stage_rows: stage,
            },
            emb_dim: dim,
        })
        .collect()
    }

    #[test]
    fn every_kind_matches_reference_bitwise() {
        let dim = 16;
        let s = spec(dim);
        let fb = FeatureBatch::generate(&s, 96, 33);
        let table = VirtualTable::new(9, 500, dim);
        let mut golden = vec![0.0; 96 * dim as usize];
        reference_pooled(&table, &fb, &mut golden);
        for sched in all_kinds(dim) {
            let mut out = vec![7.0; 96 * dim as usize];
            sched.execute(&table, &fb, &mut out);
            assert_eq!(out, golden, "{:?} diverged", sched.kind);
        }
    }

    #[test]
    fn blockwise_execution_equals_whole_feature() {
        let dim = 8;
        let s = spec(dim);
        let fb = FeatureBatch::generate(&s, 77, 5);
        let table = VirtualTable::new(4, 500, dim);
        let w = FeatureWorkload::analyze(0, &fb, dim, 500);
        for sched in all_kinds(dim) {
            let mut whole = vec![0.0; 77 * dim as usize];
            sched.execute(&table, &fb, &mut whole);
            let mut by_blocks = vec![0.0; 77 * dim as usize];
            for b in 0..sched.required_blocks(&w) {
                sched.execute_block(&table, &fb, b, &mut by_blocks);
            }
            assert_eq!(whole, by_blocks, "{:?} block split diverged", sched.kind);
        }
    }

    #[test]
    fn out_of_range_block_writes_nothing() {
        let dim = 8;
        let s = spec(dim);
        let fb = FeatureBatch::generate(&s, 16, 5);
        let table = VirtualTable::new(4, 500, dim);
        let sched = &all_kinds(dim)[2];
        let mut out = vec![3.0; 16 * dim as usize];
        sched.execute_block(&table, &fb, 999, &mut out);
        assert!(out.iter().all(|&x| x == 3.0));
    }

    /// A random CSR over `rows` table rows: empty samples, repeated rows
    /// within a sample and the last row `rows - 1` all occur.
    fn random_csr(rng: &mut StdRng, rows: u32) -> FeatureBatch {
        let batch = rng.gen_range(0..24u32);
        let mut offsets = vec![0u32];
        let mut indices: Vec<u32> = Vec::new();
        for _ in 0..batch {
            let pf = if rng.gen_range(0..4u32) == 0 {
                0
            } else {
                rng.gen_range(1..12u32)
            };
            for _ in 0..pf {
                let row = match rng.gen_range(0..4u32) {
                    0 => rows - 1,
                    1 if !indices.is_empty() => indices[rng.gen_range(0..indices.len())],
                    _ => rng.gen_range(0..rows),
                };
                indices.push(row);
            }
            offsets.push(indices.len() as u32);
        }
        FeatureBatch { offsets, indices }
    }

    /// Pool `fb` with the plain body and with every ISA wrapper this host
    /// supports; each must equal the scalar reference bit for bit.
    fn assert_every_version_matches<T: EmbTable>(table: &T, fb: &FeatureBatch, case: &str) {
        let n = fb.batch_size() as usize * table.dim() as usize;
        let all = 0..fb.batch_size();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let mut golden = vec![0.0; n];
        reference_pooled(table, fb, &mut golden);
        let mut versions = Vec::new();
        let mut out = vec![f32::NAN; n];
        pool_body(table, fb, all.clone(), &mut out);
        versions.push(("plain", out));
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                let mut out = vec![f32::NAN; n];
                // SAFETY: the host supports AVX2, checked just above.
                unsafe { pool_avx2(table, fb, all.clone(), &mut out) };
                versions.push(("avx2", out));
            }
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq") {
                let mut out = vec![f32::NAN; n];
                // SAFETY: the host supports AVX-512F and AVX-512DQ, checked
                // just above.
                unsafe { pool_avx512(table, fb, all.clone(), &mut out) };
                versions.push(("avx512", out));
            }
        }
        for (isa, out) in versions {
            assert_eq!(bits(&out), bits(&golden), "{isa} diverged: {case}");
        }
    }

    proptest! {
        #[test]
        fn every_isa_matches_reference_on_virtual_tables(
            seed in 0u64..1_000_000,
            dim in 1u32..=130,
            rows in 1u32..300,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let fb = random_csr(&mut rng, rows);
            let table = VirtualTable::new(seed, rows, dim);
            assert_every_version_matches(&table, &fb, &format!("seed {seed} dim {dim}"));
        }

        #[test]
        fn every_isa_matches_reference_on_order_sensitive_tables(
            seed in 0u64..1_000_000,
            dim in 1u32..=130,
            rows in 1u32..64,
        ) {
            // Values mixing ±1e7 with small numbers, -0.0 and subnormals,
            // where the order of a sample's row sum shows in the result
            // bits.
            const PALETTE: [f32; 10] = [
                1e7, -1e7, 1.0, 2.0, -3.0, 0.5, -0.0, 1e-45, -1e-40, 1.17e-38,
            ];
            let mut rng = StdRng::seed_from_u64(seed);
            let fb = random_csr(&mut rng, rows);
            let data = (0..rows * dim)
                .map(|_| PALETTE[rng.gen_range(0..PALETTE.len())])
                .collect();
            let table = DenseTable::new(data, rows, dim);
            assert_every_version_matches(&table, &fb, &format!("seed {seed} dim {dim}"));
        }
    }
}
