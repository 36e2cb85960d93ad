//! The simulated-kernel abstraction.
//!
//! Anything that can be launched on the simulator — a single-feature
//! embedding kernel, the heterogeneous fused kernel, a tuner co-execution
//! kernel with padding blocks, a GEMM — implements [`SimKernel`]: it exposes
//! a grid size, a per-block resource footprint and a per-block analytic
//! [`BlockProfile`]. Profiling is pure and side-effect free, so the launch
//! pipeline evaluates blocks in parallel with rayon.

use crate::occupancy::BlockResources;
use crate::profile::BlockProfile;

/// Context handed to kernels when profiling a block.
///
/// `reg_cap` carries the occupancy-control decision: if the launch capped
/// registers below the kernel's natural demand, the kernel must account the
/// resulting spill traffic itself (it knows its loop trip counts).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProfileCtx {
    /// Per-thread register budget enforced by occupancy control, if any.
    pub reg_cap: Option<u32>,
}

/// A kernel that can be launched on the simulated GPU.
///
/// Implementations must be `Sync`: blocks are profiled concurrently.
pub trait SimKernel: Sync {
    /// Kernel name for reports.
    fn name(&self) -> &str;

    /// Number of thread blocks in the grid.
    fn grid_blocks(&self) -> u32;

    /// Per-block resource footprint (natural demand, before occupancy
    /// control is applied by the launch).
    fn resources(&self) -> BlockResources;

    /// Analytic demands of block `block_idx` under `ctx`.
    fn profile_block(&self, block_idx: u32, ctx: &ProfileCtx) -> BlockProfile;

    /// A trailing run of identical blocks: `Some((n, p))` promises that
    /// the last `n ≤ grid_blocks()` blocks all profile to `p` under `ctx`,
    /// so [`block_times`](crate::launch::block_times) need not profile or
    /// time them. `None` (the default) promises nothing.
    fn uniform_tail(&self, _ctx: &ProfileCtx) -> Option<(u32, BlockProfile)> {
        None
    }
}

/// Blanket impl so `&K` and boxed kernels launch transparently.
impl<K: SimKernel + ?Sized> SimKernel for &K {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn grid_blocks(&self) -> u32 {
        (**self).grid_blocks()
    }
    fn resources(&self) -> BlockResources {
        (**self).resources()
    }
    fn profile_block(&self, block_idx: u32, ctx: &ProfileCtx) -> BlockProfile {
        (**self).profile_block(block_idx, ctx)
    }
    fn uniform_tail(&self, ctx: &ProfileCtx) -> Option<(u32, BlockProfile)> {
        (**self).uniform_tail(ctx)
    }
}

impl<K: SimKernel + ?Sized> SimKernel for Box<K> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn grid_blocks(&self) -> u32 {
        (**self).grid_blocks()
    }
    fn resources(&self) -> BlockResources {
        (**self).resources()
    }
    fn profile_block(&self, block_idx: u32, ctx: &ProfileCtx) -> BlockProfile {
        (**self).profile_block(block_idx, ctx)
    }
    fn uniform_tail(&self, ctx: &ProfileCtx) -> Option<(u32, BlockProfile)> {
        (**self).uniform_tail(ctx)
    }
}

/// A trivially uniform kernel for tests and micro-benchmarks: every block
/// has the same profile.
#[derive(Debug, Clone)]
pub struct UniformKernel {
    /// Kernel name.
    pub name: String,
    /// Grid size in blocks.
    pub blocks: u32,
    /// Per-block resources.
    pub res: BlockResources,
    /// The profile every block reports.
    pub profile: BlockProfile,
}

impl SimKernel for UniformKernel {
    fn name(&self) -> &str {
        &self.name
    }
    fn grid_blocks(&self) -> u32 {
        self.blocks
    }
    fn resources(&self) -> BlockResources {
        self.res
    }
    fn profile_block(&self, _block_idx: u32, ctx: &ProfileCtx) -> BlockProfile {
        let mut p = self.profile;
        if let Some(cap) = ctx.reg_cap {
            let natural = self.res.regs_per_thread;
            if cap < natural {
                p.add_spill(natural - cap, self.res.threads_per_block, 4);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> UniformKernel {
        UniformKernel {
            name: "uniform".into(),
            blocks: 10,
            res: BlockResources::new(128, 64, 0),
            profile: BlockProfile {
                issue_cycles: 50.0,
                mem_transactions: 16,
                bytes_accessed: 512,
                unique_bytes: 512,
                active_warps: 4,
                thread_active_sum: 128,
                thread_useful_sum: 128,
                thread_slot_sum: 128,
                mlp: 2.0,
                ..Default::default()
            },
        }
    }

    #[test]
    fn uniform_kernel_profiles_identically() {
        let k = mk();
        let ctx = ProfileCtx::default();
        let a = k.profile_block(0, &ctx);
        let b = k.profile_block(9, &ctx);
        assert_eq!(a, b);
    }

    #[test]
    fn reg_cap_inflates_traffic() {
        let k = mk();
        let free = k.profile_block(0, &ProfileCtx { reg_cap: None });
        let capped = k.profile_block(0, &ProfileCtx { reg_cap: Some(32) });
        assert!(capped.bytes_accessed > free.bytes_accessed);
    }

    #[test]
    fn trait_objects_launchable() {
        let k = mk();
        let dynk: &dyn SimKernel = &k;
        assert_eq!(dynk.grid_blocks(), 10);
        let boxed: Box<dyn SimKernel> = Box::new(k);
        assert_eq!(boxed.grid_blocks(), 10);
    }
}
