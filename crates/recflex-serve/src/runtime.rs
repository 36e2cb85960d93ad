//! The discrete-event serving runtime.
//!
//! Ties the pieces together: a seeded request stream enters an admission
//! gate (SLO-aware load shedding), flows through the batching policy
//! (forward unsplit, split at a cap, or coalesce dynamically), executes
//! on the multi-stream processor-sharing device, and leaves a full
//! latency record behind. A drift monitor watches admitted traffic and
//! can trigger a *background* retune — supervised by the
//! [`LifecycleMachine`](crate::lifecycle): the attempt
//! may fail or stall, a successful candidate may be canaried against the
//! incumbent before promotion, and failures retry with exponential
//! backoff — all at later simulated timestamps, so serving never pauses.
//!
//! Everything is event-driven over simulated time. Simultaneous events
//! resolve in a fixed priority (completion, then lifecycle transition,
//! then arrival, then batcher flush), so a run is a pure function of
//! `(config, request stream, backend, lifecycle plan)` — replaying the
//! same seed yields a bit-identical [`ServeReport`].

use std::collections::HashMap;

use recflex_baselines::{Backend, BackendError};
use recflex_data::{Batch, ModelConfig};
use recflex_embedding::TableSet;
use recflex_sim::GpuArch;

use crate::admission::{sheds_at_admission, Batcher, ChunkSink, DriftWindow};
use crate::drift::DriftConfig;
use crate::executor::DeviceExecutor;
use crate::lifecycle::{EngineLifecycle, EngineTuning, LifecycleConfig, LifecycleMachine};
use crate::request::Request;
use crate::stats::{RequestRecord, ServeReport, ShardedRequestRecord, ShedReason};

/// How the runtime shapes request batches before launching them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchPolicy {
    /// Forward every request as one device batch (DeepRecSys-style,
    /// Section VI-D: long-tail requests hit the device whole).
    Unsplit,
    /// Split requests into chunks of at most `cap` samples (the
    /// industrial practice of Section VI-D).
    Split {
        /// Maximum chunk size, samples (≥ 1).
        cap: u32,
    },
    /// Dynamic batching: coalesce small requests into one device batch
    /// up to `max_batch` samples, flushing when the batch fills, when
    /// the oldest member has waited `max_wait_us`, or as soon as the
    /// device goes idle (the batcher is work-conserving — it never
    /// holds work while the device has nothing to do). Oversized
    /// requests are split into chunks of at most `max_batch`.
    Dynamic {
        /// Target coalesced batch size, samples (≥ 1).
        max_batch: u32,
        /// Longest a request may wait in the batcher, µs.
        max_wait_us: f64,
    },
    /// [`BatchPolicy::Dynamic`] with padding-free partial merges: when a
    /// request straddles the `max_batch` boundary, the head samples top
    /// the open batch off to *exactly* `max_batch` and the tail rolls
    /// into the next coalesced batch ([`Batch::split`] wired into the
    /// merge path). `Dynamic` instead flushes the open batch short and
    /// starts the request fresh — tight packing costs a request a second
    /// chunk boundary, so it is opt-in and `Dynamic` keeps the old
    /// behavior bit-for-bit.
    DynamicPacked {
        /// Exact coalesced batch size to fill, samples (≥ 1).
        max_batch: u32,
        /// Longest a request may wait in the batcher, µs.
        max_wait_us: f64,
    },
}

/// Static configuration of one serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Concurrent device streams (kernels resident at once).
    pub streams: u32,
    /// Batch shaping policy.
    pub policy: BatchPolicy,
    /// SLO deadline, µs: a request arriving while the device backlog
    /// already exceeds this is shed immediately (it could not possibly
    /// finish in time). `None` admits everything.
    pub slo_deadline_us: Option<f64>,
    /// Closed-loop mode: ignore arrival timestamps and admit each
    /// request the moment the previous one finished — the offline
    /// semantics of `ServingSimulator`. Open-loop (`false`) replays the
    /// stream's own arrival times.
    pub closed_loop: bool,
    /// Sharded-tier straggler cap: chunks bigger than this are re-split
    /// into sub-chunks of at most `cap` samples *after* the batching
    /// policy shapes them, narrowing the per-chunk work the hottest
    /// shard gates on. `Some(0)` is rejected at run start. `None` (the
    /// default) reproduces the un-capped tier bit-for-bit; the
    /// single-device runtime ignores the knob entirely.
    pub hot_shard_cap: Option<u32>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            streams: 4,
            policy: BatchPolicy::Unsplit,
            slo_deadline_us: None,
            closed_loop: false,
            hot_shard_cap: None,
        }
    }
}

/// Drift-triggered background retuning.
///
/// When the [`DriftMonitor`](crate::DriftMonitor) fires, `retuner` is handed the most recent
/// window of admitted batches and must produce a freshly tuned backend.
/// The retune costs `retune_latency_us` of simulated wall time — the old
/// engine keeps serving meanwhile. What happens when it completes is
/// governed by `lifecycle`: with the default [`LifecycleConfig`] the new
/// engine is swapped in unconditionally at the completion timestamp (the
/// historical blind swap, bit-for-bit); otherwise the attempt may fail,
/// stall, canary against the incumbent, roll back and retry with
/// backoff.
pub struct RetunePolicy<'a> {
    /// Drift-detection window and threshold.
    pub drift: DriftConfig,
    /// Simulated cost of one background retune, µs.
    pub retune_latency_us: f64,
    /// Outcome injection, canarying, and retry/backoff for each attempt.
    pub lifecycle: LifecycleConfig,
    /// Builds a new backend from recent traffic.
    #[allow(clippy::type_complexity)]
    pub retuner: Box<dyn FnMut(&[Batch]) -> TunedCandidate + 'a>,
}

/// What a retuner hands back: the freshly tuned backend, plus how the
/// tuning was produced when it went through the profile vault. Plain
/// retuners convert a bare backend with `.into()` — accounting stays
/// opt-in and the no-vault path is unchanged.
pub struct TunedCandidate {
    /// The freshly tuned backend.
    pub backend: Box<dyn Backend>,
    /// Vault accounting (warm start, evaluation count), if reported.
    pub tuning: Option<EngineTuning>,
}

impl From<Box<dyn Backend>> for TunedCandidate {
    fn from(backend: Box<dyn Backend>) -> Self {
        TunedCandidate {
            backend,
            tuning: None,
        }
    }
}

/// Why a serving run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The active backend refused a chunk.
    Backend(BackendError),
    /// The configuration is unusable (e.g. a zero batch cap).
    Policy(&'static str),
    /// The event schedule reached a state that should be unreachable
    /// (e.g. a completion for a chunk nobody owns). Surfaced as an error
    /// so a malformed schedule degrades instead of aborting the process.
    Internal(&'static str),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Backend(e) => write!(f, "backend error: {e}"),
            ServeError::Policy(m) => write!(f, "invalid serving policy: {m}"),
            ServeError::Internal(m) => write!(f, "inconsistent event schedule: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<BackendError> for ServeError {
    fn from(e: BackendError) -> Self {
        ServeError::Backend(e)
    }
}

/// The serving runtime: one backend, one model, one device.
pub struct ServeRuntime<'a> {
    /// Engine serving the traffic (may be hot-swapped by a retune).
    pub backend: &'a dyn Backend,
    /// The model served.
    pub model: &'a ModelConfig,
    /// Its embedding tables.
    pub tables: &'a TableSet,
    /// The simulated device.
    pub arch: &'a GpuArch,
    /// Runtime configuration.
    pub config: ServeConfig,
}

/// Which event fires next; declaration order is tie-break priority.
/// `Lifecycle` sits in the slot the engine swap used to occupy, so the
/// all-success no-canary path fires its promotion at the exact priority
/// of the historical blind swap.
#[derive(PartialEq, Eq, PartialOrd, Ord, Clone, Copy, Debug)]
enum EventKind {
    Completion,
    Lifecycle,
    Arrival,
    Flush,
}

impl ServeRuntime<'_> {
    /// Serve a request stream with a fixed engine.
    pub fn serve(&self, requests: &[Request]) -> Result<ServeReport, ServeError> {
        self.run(requests, None, None)
    }

    /// Serve with a per-request **absolute** admission deadline
    /// (`deadlines[i]` is the wall-clock µs instant request `i` must
    /// finish by). Overrides the uniform [`ServeConfig::slo_deadline_us`]
    /// gate: a request whose remaining time is already spent, or whose
    /// remaining time the device backlog exceeds, sheds at admission.
    /// The plumbing a pipeline stage uses to thread its share of the
    /// end-to-end SLO through this runtime.
    pub fn serve_with_deadlines(
        &self,
        requests: &[Request],
        deadlines: &[f64],
    ) -> Result<ServeReport, ServeError> {
        if deadlines.len() != requests.len() {
            return Err(ServeError::Policy(
                "deadlines must be given for every request",
            ));
        }
        self.run(requests, None, Some(deadlines))
    }

    /// Serve a request stream with drift-triggered background retuning.
    pub fn serve_with_retune(
        &self,
        requests: &[Request],
        retune: &mut RetunePolicy<'_>,
    ) -> Result<ServeReport, ServeError> {
        self.run(requests, Some(retune), None)
    }

    fn run(
        &self,
        requests: &[Request],
        retune: Option<&mut RetunePolicy<'_>>,
        deadlines: Option<&[f64]>,
    ) -> Result<ServeReport, ServeError> {
        let mut batcher = Batcher::new(self.config.policy)?;
        let n = requests.len();
        let mut st = RunState {
            rt: self,
            requests,
            executor: DeviceExecutor::new(self.config.streams),
            records: vec![None; n],
            remaining_chunks: vec![0u32; n],
            first_start_us: vec![f64::INFINITY; n],
            last_done_us: vec![0.0f64; n],
            arrival_eff_us: requests.iter().map(|r| r.arrival_us).collect(),
            chunk_owners: HashMap::new(),
            next_job: 0,
            launches: 0,
            lifecycle: retune.map(|r| {
                EngineLifecycle::new(
                    DriftWindow::new(r.drift, self.model),
                    LifecycleMachine::new(r.lifecycle.clone(), r.retune_latency_us, 1, 0.0),
                    Box::new(|_, recent| (r.retuner)(recent)),
                )
            }),
        };

        let mut cursor = 0usize;
        let mut now = 0.0f64;

        loop {
            // Candidate events, probed in tie-break priority order.
            let mut next: Option<(f64, EventKind)> = None;
            let mut consider = |t: Option<f64>, kind: EventKind| {
                if let Some(t) = t {
                    if next.is_none_or(|(bt, _)| t < bt) {
                        next = Some((t, kind));
                    }
                }
            };
            consider(st.executor.next_completion_us(), EventKind::Completion);
            consider(
                st.lifecycle
                    .as_ref()
                    .and_then(EngineLifecycle::next_timer_us),
                EventKind::Lifecycle,
            );
            let arrival_t = if cursor < n {
                if self.config.closed_loop {
                    // Admit only when the previous request fully drained.
                    (st.executor.is_idle() && batcher.is_empty()).then_some(now)
                } else {
                    Some(requests[cursor].arrival_us.max(now))
                }
            } else {
                None
            };
            consider(arrival_t, EventKind::Arrival);
            consider(batcher.flush_due_us(now), EventKind::Flush);

            let Some((t, kind)) = next else { break };
            now = t;

            match kind {
                EventKind::Completion => {
                    st.executor.advance_to(now);
                    st.note_starts();
                    st.collect_completions()?;
                    batcher.flush_if_idle(now, &mut st)?;
                }
                EventKind::Lifecycle => {
                    if let Some(lifecycle) = st.lifecycle.as_mut() {
                        lifecycle.on_timer(now)?;
                    }
                }
                EventKind::Arrival => {
                    if st.admit(cursor, now, deadlines) {
                        let arrival_us = st.arrival_eff_us[cursor];
                        batcher.shape(cursor, &requests[cursor].batch, arrival_us, now, &mut st)?;
                    }
                    cursor += 1;
                }
                EventKind::Flush => {
                    batcher.flush(now, &mut st)?;
                }
            }
        }

        debug_assert!(st.records.iter().all(Option::is_some));
        let (lifecycle, lifecycle_trace) = st
            .lifecycle
            .map(EngineLifecycle::into_parts)
            .unwrap_or_default();
        Ok(ServeReport {
            records: st.records.into_iter().flatten().collect(),
            kernel_launches: st.launches,
            retunes: lifecycle.retunes_promoted,
            makespan_us: now,
            lifecycle,
            lifecycle_trace,
        })
    }
}

/// Mutable state of one run, split out so admission/flush helpers can
/// borrow it whole while the runtime stays shared. It is also the sink the
/// run's [`Batcher`] launches chunks into.
struct RunState<'a> {
    rt: &'a ServeRuntime<'a>,
    requests: &'a [Request],
    executor: DeviceExecutor,
    records: Vec<Option<RequestRecord>>,
    remaining_chunks: Vec<u32>,
    first_start_us: Vec<f64>,
    last_done_us: Vec<f64>,
    arrival_eff_us: Vec<f64>,
    chunk_owners: HashMap<u64, Vec<usize>>,
    next_job: u64,
    launches: u64,
    /// Drift trigger, lifecycle machine and engine slots (present iff
    /// retuning is on).
    lifecycle: Option<EngineLifecycle<'a>>,
}

impl RunState<'_> {
    /// SLO admission and drift monitoring for request `ri`. Returns
    /// whether it was admitted; a shed request is recorded here.
    fn admit(&mut self, ri: usize, now: f64, deadlines: Option<&[f64]>) -> bool {
        let (rt, req) = (self.rt, &self.requests[ri]);
        let arrival_us = if rt.config.closed_loop {
            now
        } else {
            req.arrival_us
        };
        self.arrival_eff_us[ri] = arrival_us;

        // If the device already owes more work than the deadline, this
        // request cannot finish in time — shed it now rather than poison
        // the queue for everyone behind it.
        if sheds_at_admission(&rt.config, deadlines, ri, arrival_us, || {
            self.executor.backlog_us()
        }) {
            self.records[ri] = Some(
                ShardedRequestRecord::zero_service(
                    req.id,
                    req.batch.batch_size,
                    arrival_us,
                    arrival_us,
                    ShedReason::Admission,
                    false,
                )
                .base,
            );
            return false;
        }

        // Drift monitoring sees every admitted batch.
        if let Some(lifecycle) = self.lifecycle.as_mut() {
            lifecycle.observe(&req.batch, now);
        }
        true
    }

    /// Retire every drained chunk completion, finalizing requests whose
    /// last chunk it was.
    fn collect_completions(&mut self) -> Result<(), ServeError> {
        for (t_done, job) in self.executor.drain_completed() {
            let owners = self
                .chunk_owners
                .remove(&job)
                .ok_or(ServeError::Internal("completion for unknown chunk"))?;
            for ri in owners {
                self.remaining_chunks[ri] -= 1;
                self.last_done_us[ri] = self.last_done_us[ri].max(t_done);
                if self.remaining_chunks[ri] == 0 {
                    self.finalize(ri);
                }
            }
        }
        Ok(())
    }

    /// Fold freshly drained kernel-start events into per-request first
    /// start times, so `queue_us` covers batching delay *and* stream
    /// queueing.
    fn note_starts(&mut self) {
        for (t_start, job) in self.executor.drain_started() {
            if let Some(owners) = self.chunk_owners.get(&job) {
                for &ri in owners {
                    self.first_start_us[ri] = self.first_start_us[ri].min(t_start);
                }
            }
        }
    }

    fn finalize(&mut self, ri: usize) {
        let req = &self.requests[ri];
        let arrival = self.arrival_eff_us[ri];
        let first = self.first_start_us[ri];
        let done = self.last_done_us[ri];
        self.records[ri] = Some(RequestRecord {
            id: req.id,
            batch_size: req.batch.batch_size,
            arrival_us: arrival,
            queue_us: first - arrival,
            service_us: done - first,
            done_us: done,
            shed: ShedReason::None,
        });
    }
}

impl ChunkSink for RunState<'_> {
    fn submit(&mut self, batch: Batch, owners: Vec<usize>, now: f64) -> Result<(), ServeError> {
        let rt = self.rt;
        let engine = self
            .lifecycle
            .as_ref()
            .map_or(rt.backend, |l| l.engine(0, rt.backend));
        let run = engine.run(rt.model, rt.tables, &batch, rt.arch)?;
        self.launches += u64::from(run.kernel_launches);
        let mut work_us = [run.latency_us];
        if let Some(lifecycle) = self.lifecycle.as_mut() {
            lifecycle.shadow(now, &mut work_us, |_, candidate| {
                candidate
                    .run(rt.model, rt.tables, &batch, rt.arch)
                    .map(|r| r.latency_us)
            });
        }
        for &ri in &owners {
            self.remaining_chunks[ri] += 1;
        }
        let job = self.next_job;
        self.next_job += 1;
        self.chunk_owners.insert(job, owners);
        self.executor.submit(now, job, work_us[0]);
        self.note_starts();
        // Zero-cost chunks retire inside `submit`; collect them here so
        // their owners don't wait for a completion event that may never
        // have a distinct timestamp.
        self.collect_completions()
    }

    fn idle(&self) -> bool {
        self.executor.is_idle()
    }

    fn finalize_empty(&mut self, ri: usize, now: f64) {
        self.records[ri] = Some(
            ShardedRequestRecord::zero_service(
                self.requests[ri].id,
                0,
                self.arrival_eff_us[ri],
                now,
                ShedReason::None,
                false,
            )
            .base,
        );
    }
}
