//! The request front end both serving runtimes share.
//!
//! Everything that happens to a request between its arrival and its
//! first device chunk lives here, once: the SLO admission gate
//! ([`sheds_at_admission`]), the drift window that watches admitted
//! traffic ([`DriftWindow`]) and the batch-shaping policy ([`Batcher`]).
//! [`crate::ServeRuntime`] and
//! [`crate::ShardedServeRuntime`] keep their own event loops, executors
//! and records; they call these in the same fixed order — admission,
//! drift, shaping, then the idle-flush checks — and hand shaped chunks
//! back through the [`ChunkSink`] they implement.

use recflex_data::{Batch, ModelConfig};

use crate::drift::{DriftConfig, DriftMonitor};
use crate::runtime::{BatchPolicy, ServeConfig, ServeError};

/// SLO admission: whether request `ri`, effectively arriving at
/// `arrival_us`, must be shed because it cannot finish in time. A
/// per-request absolute deadline (a pipeline stage's remaining budget
/// share) overrides the uniform [`ServeConfig::slo_deadline_us`] gate.
/// The request sheds when its window is already spent or the device
/// already owes more work than the window; `backlog_us` is evaluated only
/// when there is a window left to compare it against.
pub(crate) fn sheds_at_admission(
    config: &ServeConfig,
    deadlines: Option<&[f64]>,
    ri: usize,
    arrival_us: f64,
    backlog_us: impl FnOnce() -> f64,
) -> bool {
    let window = match deadlines {
        Some(d) => Some(d[ri] - arrival_us),
        None => config.slo_deadline_us,
    };
    window.is_some_and(|w| w < 0.0 || backlog_us() > w)
}

/// The run state a [`Batcher`] launches shaped chunks into.
pub(crate) trait ChunkSink {
    /// Launch one device chunk on behalf of `owners` (request indices).
    fn submit(&mut self, batch: Batch, owners: Vec<usize>, now: f64) -> Result<(), ServeError>;
    /// Whether every device is idle. Queried afresh after each submit:
    /// zero-cost chunks retire inside [`Self::submit`].
    fn idle(&self) -> bool;
    /// Answer request `ri` at `now` with nothing to run.
    fn finalize_empty(&mut self, ri: usize, now: f64);
}

/// The batch-shaping policy and the dynamic batcher's buffer.
pub(crate) struct Batcher {
    policy: BatchPolicy,
    /// Requests waiting to be coalesced: owner index plus the samples it
    /// has parked here (the whole batch under `Dynamic`, a boundary-split
    /// head or tail under `DynamicPacked`).
    buffer: Vec<(usize, Batch)>,
    size: u32,
    oldest_us: f64,
}

impl Batcher {
    /// Validate `policy` and start with an empty buffer.
    pub(crate) fn new(policy: BatchPolicy) -> Result<Self, ServeError> {
        match policy {
            BatchPolicy::Split { cap: 0 } => {
                return Err(ServeError::Policy("split cap must be at least 1"))
            }
            BatchPolicy::Dynamic {
                max_batch,
                max_wait_us,
            }
            | BatchPolicy::DynamicPacked {
                max_batch,
                max_wait_us,
            } => {
                if max_batch == 0 {
                    return Err(ServeError::Policy("dynamic max_batch must be at least 1"));
                }
                if !max_wait_us.is_finite() || max_wait_us < 0.0 {
                    return Err(ServeError::Policy(
                        "dynamic max_wait_us must be finite and >= 0",
                    ));
                }
            }
            _ => {}
        }
        Ok(Batcher {
            policy,
            buffer: Vec::new(),
            size: 0,
            oldest_us: f64::INFINITY,
        })
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// When the waiting batch must flush: its oldest member's
    /// `max_wait_us` deadline, never earlier than `now`. `None` while
    /// nothing waits.
    pub(crate) fn flush_due_us(&self, now: f64) -> Option<f64> {
        match self.policy {
            BatchPolicy::Dynamic { max_wait_us, .. }
            | BatchPolicy::DynamicPacked { max_wait_us, .. }
                if !self.is_empty() =>
            {
                Some((self.oldest_us + max_wait_us).max(now))
            }
            _ => None,
        }
    }

    /// Shape one admitted request (index `ri`, effective arrival
    /// `arrival_us`) into device chunks per the policy.
    pub(crate) fn shape(
        &mut self,
        ri: usize,
        batch: &Batch,
        arrival_us: f64,
        now: f64,
        sink: &mut impl ChunkSink,
    ) -> Result<(), ServeError> {
        match self.policy {
            BatchPolicy::Unsplit => sink.submit(batch.clone(), vec![ri], now)?,
            BatchPolicy::Split { cap } => {
                let chunks = split(batch, cap)?;
                if chunks.is_empty() {
                    sink.finalize_empty(ri, now);
                }
                for chunk in chunks {
                    sink.submit(chunk, vec![ri], now)?;
                }
            }
            BatchPolicy::Dynamic { max_batch, .. } => {
                if batch.batch_size == 0 {
                    sink.finalize_empty(ri, now);
                } else if batch.batch_size >= max_batch {
                    // Oversized: flush waiting small requests first so
                    // device order stays FIFO, then split the big one.
                    self.flush(now, sink)?;
                    for chunk in split(batch, max_batch)? {
                        sink.submit(chunk, vec![ri], now)?;
                    }
                } else {
                    if self.size + batch.batch_size > max_batch {
                        self.flush(now, sink)?;
                    }
                    self.park(ri, batch.clone(), arrival_us);
                    if self.size == max_batch || sink.idle() {
                        self.flush(now, sink)?;
                    }
                }
            }
            BatchPolicy::DynamicPacked { max_batch, .. } => {
                if batch.batch_size == 0 {
                    sink.finalize_empty(ri, now);
                    return Ok(());
                }
                // Padding-free coalescing: top the open batch off to
                // exactly `max_batch`, rolling the remainder of a
                // boundary-straddling request into the next batch. The
                // invariant `size < max_batch` holds on entry and exit,
                // so `room >= 1` always.
                let mut part = batch.clone();
                loop {
                    let room = max_batch - self.size;
                    if part.batch_size < room {
                        self.park(ri, part, arrival_us);
                        break;
                    }
                    let mut pieces = split(&part, room)?.into_iter();
                    let head = pieces.next().ok_or(ServeError::Internal(
                        "split of a non-empty batch yielded nothing",
                    ))?;
                    self.park(ri, head, arrival_us);
                    self.flush(now, sink)?;
                    let rest: Vec<Batch> = pieces.collect();
                    if rest.is_empty() {
                        break;
                    }
                    part = Batch::merge(&rest);
                }
                self.flush_if_idle(now, sink)?;
            }
        }
        Ok(())
    }

    /// Launch everything waiting as one merged chunk.
    pub(crate) fn flush(&mut self, now: f64, sink: &mut impl ChunkSink) -> Result<(), ServeError> {
        if self.is_empty() {
            return Ok(());
        }
        let entries = std::mem::take(&mut self.buffer);
        self.size = 0;
        self.oldest_us = f64::INFINITY;
        let owners: Vec<usize> = entries.iter().map(|&(ri, _)| ri).collect();
        let parts: Vec<Batch> = entries.into_iter().map(|(_, b)| b).collect();
        sink.submit(Batch::merge(&parts), owners, now)
    }

    /// Work conservation: an idle device drains the batcher.
    pub(crate) fn flush_if_idle(
        &mut self,
        now: f64,
        sink: &mut impl ChunkSink,
    ) -> Result<(), ServeError> {
        if !self.is_empty() && sink.idle() {
            self.flush(now, sink)?;
        }
        Ok(())
    }

    fn park(&mut self, ri: usize, part: Batch, arrival_us: f64) {
        self.size += part.batch_size;
        self.buffer.push((ri, part));
        self.oldest_us = self.oldest_us.min(arrival_us);
    }
}

/// `Batch::split` at a cap [`Batcher::new`] already validated.
fn split(batch: &Batch, cap: u32) -> Result<Vec<Batch>, ServeError> {
    batch
        .split(cap)
        .map_err(|_| ServeError::Internal("batch split at a zero cap"))
}

/// The drift trigger: the window of recent admitted batches a retuner
/// tunes on, plus the monitor that decides when to retune.
pub(crate) struct DriftWindow {
    monitor: DriftMonitor,
    window: usize,
    /// Most recent admitted batches, oldest first.
    recent: Vec<Batch>,
}

impl DriftWindow {
    pub(crate) fn new(config: DriftConfig, model: &ModelConfig) -> Self {
        DriftWindow {
            monitor: DriftMonitor::for_model(config, model),
            window: config.window.max(1),
            recent: Vec::new(),
        }
    }

    /// Record one admitted batch; true when the monitor fired.
    pub(crate) fn observe(&mut self, batch: &Batch) -> bool {
        self.recent.push(batch.clone());
        if self.recent.len() > self.window {
            self.recent.drain(..self.recent.len() - self.window);
        }
        self.monitor.observe(batch)
    }

    /// Start a fresh observation window for a launching retune attempt
    /// (so its verdict reflects traffic seen after the launch) and hand
    /// back the recent traffic to tune on.
    pub(crate) fn begin_attempt(&mut self) -> &[Batch] {
        self.monitor.reset_window();
        &self.recent
    }

    /// Re-anchor the monitor on the traffic the promoted engine was tuned
    /// for, so the mix that forced the retune reads as baseline.
    pub(crate) fn rebase_on_recent(&mut self) {
        let (lk, sm) = self.recent.iter().fold((0.0, 0.0), |(l, s), b| {
            (l + b.total_lookups() as f64, s + b.batch_size as f64)
        });
        if sm > 0.0 {
            self.monitor.rebase(lk / sm);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use proptest::prelude::*;
    use recflex_data::FeatureBatch;

    const MAX_WAIT_US: f64 = 5.0;

    /// A one-feature batch whose sample `i` looks up row `first + i`, so
    /// the rows of an emitted chunk name exactly which samples it holds.
    fn tagged(first: u32, size: u32) -> Batch {
        Batch {
            batch_size: size,
            features: vec![FeatureBatch {
                offsets: (0..=size).collect(),
                indices: (first..first + size).collect(),
            }],
        }
    }

    struct Chunk {
        batch: Batch,
        owners: Vec<usize>,
        /// Emitted inside `shape` without a preceding idle answer: the
        /// batch was flushed because it filled (or, under `Dynamic`,
        /// because the next request would overflow it).
        filled: bool,
    }

    /// Records every chunk and empty answer; `idle()` answers a scripted
    /// value.
    #[derive(Default)]
    struct Recorder {
        chunks: Vec<Chunk>,
        empties: Vec<usize>,
        idle: bool,
        shaping: bool,
        /// Whether `idle()` answered true since the last submit.
        drained_idle: Cell<bool>,
    }

    impl ChunkSink for Recorder {
        fn submit(&mut self, batch: Batch, owners: Vec<usize>, _: f64) -> Result<(), ServeError> {
            let by_idle = self.drained_idle.replace(false);
            self.chunks.push(Chunk {
                batch,
                owners,
                filled: self.shaping && !by_idle,
            });
            Ok(())
        }

        fn idle(&self) -> bool {
            self.drained_idle.set(self.idle);
            self.idle
        }

        fn finalize_empty(&mut self, ri: usize, _: f64) {
            self.empties.push(ri);
        }
    }

    /// One of the four policies (`kind` 0..4) at cap / `max_batch` `param`.
    fn policy(kind: u32, param: u32) -> BatchPolicy {
        match kind {
            0 => BatchPolicy::Unsplit,
            1 => BatchPolicy::Split { cap: param },
            2 => BatchPolicy::Dynamic {
                max_batch: param,
                max_wait_us: MAX_WAIT_US,
            },
            _ => BatchPolicy::DynamicPacked {
                max_batch: param,
                max_wait_us: MAX_WAIT_US,
            },
        }
    }

    /// Up to 40 arrivals: (request size, device idle?, flush timer fires
    /// after?). One size in six is 0.
    struct Steps;

    impl Strategy for Steps {
        type Value = Vec<(u32, bool, bool)>;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let n = (0usize..40).sample(rng);
            (0..n)
                .map(|_| {
                    let size = match (0u32..6).sample(rng) {
                        0 => 0,
                        _ => (1u32..30).sample(rng),
                    };
                    (
                        size,
                        rng.next_u64().is_multiple_of(2),
                        rng.next_u64().is_multiple_of(4),
                    )
                })
                .collect()
        }
    }

    proptest! {
        /// Every sample of every request lands in exactly one chunk, in
        /// FIFO order, owned by its request; no chunk exceeds the cap;
        /// packed batches that flush because they filled are exactly
        /// `max_batch`; empty requests are answered without a chunk
        /// (`Unsplit` instead forwards every request whole, empty ones
        /// included); the flush deadline tracks the oldest parked request.
        #[test]
        fn batcher_conserves_samples_in_fifo_order_within_the_cap(
            kind in 0u32..4,
            param in 1u32..12,
            steps in Steps,
        ) {
            let policy = policy(kind, param);
            let mut batcher = Batcher::new(policy).unwrap();
            let mut sink = Recorder::default();
            let mut owner_of_row = Vec::new();
            for (ri, &(size, idle, timer)) in steps.iter().enumerate() {
                let now = ri as f64;
                let batch = tagged(owner_of_row.len() as u32, size);
                owner_of_row.extend(std::iter::repeat_n(ri, size as usize));
                sink.idle = idle;
                sink.shaping = true;
                batcher.shape(ri, &batch, now, now, &mut sink).unwrap();
                sink.shaping = false;
                let oldest = batcher
                    .buffer
                    .iter()
                    .map(|&(r, _)| r as f64)
                    .fold(f64::INFINITY, f64::min);
                let due = (!batcher.is_empty()).then(|| (oldest + MAX_WAIT_US).max(now));
                prop_assert_eq!(batcher.flush_due_us(now), due);
                if timer {
                    batcher.flush(now, &mut sink).unwrap();
                }
            }
            batcher.flush(steps.len() as f64, &mut sink).unwrap();
            prop_assert!(batcher.is_empty());

            let rows: Vec<u32> = sink
                .chunks
                .iter()
                .flat_map(|c| c.batch.features[0].indices.iter().copied())
                .collect();
            prop_assert_eq!(rows, (0..owner_of_row.len() as u32).collect::<Vec<_>>());
            let limit = match policy {
                BatchPolicy::Unsplit => u32::MAX,
                BatchPolicy::Split { cap } => cap,
                BatchPolicy::Dynamic { max_batch, .. }
                | BatchPolicy::DynamicPacked { max_batch, .. } => max_batch,
            };
            for c in &sink.chunks {
                prop_assert!(c.batch.batch_size <= limit);
                if c.batch.batch_size > 0 {
                    let mut owners: Vec<usize> = c.batch.features[0]
                        .indices
                        .iter()
                        .map(|&r| owner_of_row[r as usize])
                        .collect();
                    owners.dedup();
                    prop_assert_eq!(&c.owners, &owners);
                }
                if let BatchPolicy::DynamicPacked { max_batch, .. } = policy {
                    prop_assert!(!c.filled || c.batch.batch_size == max_batch);
                }
            }

            let empty: Vec<usize> = (0..steps.len()).filter(|&ri| steps[ri].0 == 0).collect();
            let empty_chunks: Vec<usize> = sink
                .chunks
                .iter()
                .filter(|c| c.batch.batch_size == 0)
                .flat_map(|c| c.owners.iter().copied())
                .collect();
            if policy == BatchPolicy::Unsplit {
                prop_assert!(sink.empties.is_empty());
                prop_assert_eq!(empty_chunks, empty);
            } else {
                prop_assert_eq!(&sink.empties, &empty);
                prop_assert!(empty_chunks.is_empty());
            }
        }
    }
}
