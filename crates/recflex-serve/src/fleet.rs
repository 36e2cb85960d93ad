//! Fleet tier: several models, several device classes, one report.
//!
//! A production recommendation fleet does not serve one model on one
//! device type. It serves a portfolio — a handful of models with wildly
//! different feature mixes — over a pool of heterogeneous accelerators,
//! and the placement of models onto device classes decides fleet-wide
//! SLO attainment (Hercules makes this point for training clusters;
//! DeepRecSys for per-query scheduling). The fleet tier composes:
//!
//! - a [`FleetWorkload`](crate::workload::FleetWorkload) — the merged,
//!   deterministic multi-scenario arrival trace,
//! - one [`ShardedServeRuntime`] per model, pinned to a device class,
//! - an optional per-model [`QueryGate`] — the DeepRecSys-style
//!   batch-size-aware accept/queue decision applied *before* a request
//!   enters the model's runtime,
//! - per-model SLO deadlines and a fleet-wide attainment roll-up.
//!
//! Routing: one per-member fleet pass is the only code that sends an
//! offered request to a member runtime. It resolves each request at the
//! fleet edge (brownout rung, drain window, outage strand, gate) or
//! hands it to the member's pre- or post-migration runtime. Plain
//! serving runs that pass with no migrations and no brownout ladder —
//! every request sits at rung 0, so only the gate can turn it away —
//! and the three passes of a [chaos run](crate::elastic) run the same
//! pass with their migrations and ladder.
//!
//! Determinism: the fleet runs each member runtime on its demuxed slice
//! of the merged trace, in member order. Every member run is itself a
//! pure function of its inputs, so the fleet report is bit-reproducible
//! and a degenerate one-model fleet (no gate, no deadline) serializes
//! byte-identically to the underlying [`ShardedServeRuntime`] report —
//! both invariants are gated by tests and by the `serving_fleet`
//! experiment in CI.

use serde::Serialize;

use crate::elastic::{FleetChaosConfig, FleetChaosStats, MigrationPlan};
use crate::lifecycle::EngineTuning;
use crate::sharded::ShardedServeRuntime;
use crate::stats::{ShardedReport, ShardedRequestRecord, ShedReason};
use crate::workload::FleetArrival;
use crate::Request;
use crate::ServeError;
use recflex_sim::GpuArch;

/// Synthesize the record of a request resolved *at the fleet edge*,
/// before it could enter any member runtime: an admission/brownout shed
/// (`shed != None`) or a degraded zero-pooled edge answer (`degraded`)
/// — zero queue, zero service, done at arrival. Keeps edge decisions
/// visible in the same record stream the runtimes produce, so
/// availability and shed-reason accounting see every offered request.
fn edge_record(req: &Request, shed: ShedReason, degraded: bool) -> ShardedRequestRecord {
    ShardedRequestRecord::zero_service(
        req.id,
        req.batch.batch_size,
        req.arrival_us,
        req.arrival_us,
        shed,
        degraded,
    )
}

/// Splice edge-synthesized records into a member report and restore one
/// arrival order over the combined stream.
fn splice_edge_records(report: &mut ShardedReport, edge: Vec<ShardedRequestRecord>) {
    if edge.is_empty() {
        return;
    }
    report.records.extend(edge);
    report.records.sort_by(|a, b| {
        a.base
            .arrival_us
            .total_cmp(&b.base.arrival_us)
            .then(a.base.id.cmp(&b.base.id))
    });
}

/// Does `record` attain its SLO: answered (completed, or degraded at
/// the edge or in its tier) and, under a deadline, done within it?
pub(crate) fn attains(record: &ShardedRequestRecord, slo_deadline_us: Option<f64>) -> bool {
    !record.base.is_shed() && slo_deadline_us.is_none_or(|d| record.base.latency_us() <= d)
}

/// Requests in `report` that attain `slo_deadline_us`.
fn attained(report: &ShardedReport, slo_deadline_us: Option<f64>) -> u64 {
    report
        .records
        .iter()
        .filter(|r| attains(r, slo_deadline_us))
        .count() as u64
}

/// The attained share of `offered` requests (1.0 when nothing was
/// offered).
fn attainment(attained: u64, offered: u64) -> f64 {
    if offered == 0 {
        1.0
    } else {
        attained as f64 / offered as f64
    }
}

/// A pool of identical simulated devices — one heterogeneity bucket.
pub struct DeviceClass<'a> {
    /// Class name, for reports (e.g. `"V100"`).
    pub name: String,
    /// The simulated device architecture every pool member shares.
    pub arch: &'a GpuArch,
    /// How many devices the class contributes to the fleet budget.
    pub devices: usize,
}

/// A per-query admission gate: the DeepRecSys-style accept/queue
/// decision. A request whose batch would blow the model's latency budget
/// on its assigned class is shed *at the fleet edge* instead of
/// poisoning the lane's queue for everyone behind it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct QueryGate {
    /// Measured per-sample device cost on the member's class, µs.
    pub cost_per_sample_us: f64,
    /// Largest acceptable predicted device time for one query, µs.
    pub deadline_us: f64,
}

impl QueryGate {
    /// Accept a query of `batch_size` pooled samples?
    pub fn admits(&self, batch_size: u32) -> bool {
        batch_size as f64 * self.cost_per_sample_us <= self.deadline_us
    }

    /// The gate with its deadline scaled by `factor` — the fleet
    /// brownout's rung-1 tightening. At a factor of 1.0 this is the gate
    /// itself, bit for bit.
    pub(crate) fn tightened(self, factor: f64) -> QueryGate {
        QueryGate {
            deadline_us: self.deadline_us * factor,
            ..self
        }
    }
}

/// One model in the fleet: its serving runtime, the device class it is
/// placed on, and its SLO policy.
pub struct FleetMember<'a> {
    /// Model/scenario name, for reports.
    pub name: String,
    /// Index into the fleet's device classes.
    pub class: usize,
    /// The model's own sharded serving tier, built against the class
    /// arch.
    pub runtime: ShardedServeRuntime<'a>,
    /// End-to-end latency SLO for this model class, µs. `None` means
    /// every completed request attains.
    pub slo_deadline_us: Option<f64>,
    /// Per-query admission gate. `None` admits everything.
    pub gate: Option<QueryGate>,
    /// How this member's engines were tuned, when the builder went
    /// through the shared profile vault (replicas of one model reuse one
    /// sidecar). `None` for plainly tuned members.
    pub tuning: Option<EngineTuning>,
}

/// The fleet runtime: a pool of device classes and the members placed on
/// them.
pub struct FleetRuntime<'a> {
    /// The heterogeneity buckets.
    pub classes: Vec<DeviceClass<'a>>,
    /// The models, in scenario order — member `i` serves scenario `i` of
    /// the fleet workload.
    pub members: Vec<FleetMember<'a>>,
}

/// Per-model outcome in the fleet report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetModelOutcome {
    /// Model name.
    pub name: String,
    /// Name of the device class the model was placed on.
    pub class: String,
    /// Devices (shards) the model's runtime spans.
    pub shards: usize,
    /// The model's SLO deadline, if any.
    pub slo_deadline_us: Option<f64>,
    /// Requests offered to this model, including gate-shed ones.
    pub requests_offered: u64,
    /// Requests shed at the fleet edge — every [`ShedReason::Admission`]
    /// edge record — before entering the runtime: admission-gate
    /// rejections and, under chaos, also brownout rung-2 priority sheds
    /// and requests shed inside a drain/handoff window.
    pub gate_shed: u64,
    /// Fraction of offered requests that completed within the SLO.
    pub slo_attainment: f64,
    /// Median end-to-end latency over completed requests, µs.
    pub p50_us: f64,
    /// Tail end-to-end latency over completed requests, µs.
    pub p99_us: f64,
    /// Vault tuning accounting carried over from the member, if any.
    pub tuning: Option<EngineTuning>,
    /// The member runtime's full report.
    pub report: ShardedReport,
}

/// Per-device-class utilization in the fleet report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DeviceClassStats {
    /// Class name.
    pub name: String,
    /// Devices in the class.
    pub devices: usize,
    /// Total device-busy time accumulated by members on this class, µs.
    pub busy_us: f64,
    /// `busy_us / (devices × fleet makespan)`.
    pub utilization: f64,
}

/// The fleet-wide report: per-model outcomes, per-class utilization, and
/// the headline SLO attainment number placement strategies compete on.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetReport {
    /// Per-model outcomes, in member order.
    pub models: Vec<FleetModelOutcome>,
    /// Per-class utilization, in class order.
    pub classes: Vec<DeviceClassStats>,
    /// Fleet makespan: the latest member makespan, µs.
    pub makespan_us: f64,
    /// Fleet-wide SLO attainment: attained requests over offered
    /// requests, across all members.
    pub slo_attainment: f64,
    /// Chaos/elasticity observables, populated only by
    /// [`FleetRuntime::serve_chaos`](crate::elastic) runs; `None` (and
    /// serialized as `null`) on the plain serving path.
    pub chaos: Option<FleetChaosStats>,
}

/// One fleet serving pass, rolled up.
pub(crate) struct PassResult {
    /// Per-member outcomes, in member order.
    pub(crate) models: Vec<FleetModelOutcome>,
    /// Each member's device class at the end of the pass: its pinned
    /// class, or its landing class after a migration.
    pub(crate) class_of: Vec<usize>,
    /// Requests answered with degraded zero-pooled edge records.
    pub(crate) edge_degraded: u64,
    /// Requests shed because they arrived inside a drain/handoff window.
    pub(crate) drain_shed: u64,
}

impl<'a> FleetRuntime<'a> {
    /// Serve a merged fleet trace: demux by scenario (preserving the
    /// merged order, which is already per-scenario arrival order) and
    /// run every member on its slice.
    pub fn serve(&self, arrivals: &[FleetArrival]) -> Result<FleetReport, ServeError> {
        self.serve_streams(&self.demux(arrivals)?)
    }

    /// Demux a merged fleet trace into per-member request streams
    /// (preserving the merged order, which is already per-scenario
    /// arrival order). An arrival naming no member is a policy error.
    pub(crate) fn demux(&self, arrivals: &[FleetArrival]) -> Result<Vec<Vec<Request>>, ServeError> {
        let mut streams: Vec<Vec<Request>> = vec![Vec::new(); self.members.len()];
        for a in arrivals {
            streams
                .get_mut(a.scenario)
                .ok_or(ServeError::Policy("arrival scenario has no fleet member"))?
                .push(a.request.clone());
        }
        Ok(streams)
    }

    /// Serve pre-demuxed per-member request streams. `streams[i]` goes
    /// to member `i` after its admission gate; gate rejections surface
    /// as [`ShedReason::Admission`] records in the member report, so
    /// every offered request has a record. This is the fleet pass with
    /// no migrations and no brownout ladder.
    pub fn serve_streams(&self, streams: &[Vec<Request>]) -> Result<FleetReport, ServeError> {
        let no_migrations = vec![None; self.members.len()];
        let pass = self.route(
            streams,
            &FleetChaosConfig::default(),
            &no_migrations,
            &[],
            None,
        )?;
        Ok(self.assemble(pass.models, &pass.class_of, None))
    }

    /// The fleet serving pass: the one place an offered request is
    /// routed. Each request of member `i` is resolved at the fleet edge —
    /// shed whole at brownout rung 2 when its scenario has the lowest
    /// priority, shed (or, at rung 3, answered degraded) inside the
    /// member's drain/handoff window, on a class in an active outage at
    /// rung 3, or by the admission gate (tightened at rung ≥ 1) — or sent
    /// to the member's pre- or post-migration runtime, whose segment
    /// reports merge into one per-member report.
    ///
    /// `ladder[k]` is the rung in effect over epoch `k` of
    /// `chaos.epoch_us`, and rung 0 past its end, so an empty ladder
    /// never browns out. `rebuild(m, c)` builds member `m` against class
    /// `c` for a migration; a migration without one is an internal error.
    pub(crate) fn route(
        &self,
        streams: &[Vec<Request>],
        chaos: &FleetChaosConfig,
        migrations: &[Option<MigrationPlan>],
        ladder: &[u8],
        mut rebuild: Option<&mut dyn FnMut(usize, usize) -> ShardedServeRuntime<'a>>,
    ) -> Result<PassResult, ServeError> {
        if streams.len() != self.members.len() {
            return Err(ServeError::Policy(
                "fleet needs one request stream per member",
            ));
        }
        let bw = chaos.brownout.as_ref();
        let prio = bw.map_or(&[][..], |b| b.priorities.as_slice());
        let (prio_min, prio_max) = prio
            .iter()
            .fold((u32::MAX, u32::MIN), |(lo, hi), &p| (lo.min(p), hi.max(p)));
        // Empty or all-equal priorities leave rung 2 nothing to shed.
        let shed_priorities = prio_min < prio_max;

        let mut models = Vec::with_capacity(self.members.len());
        let mut class_of = Vec::with_capacity(self.members.len());
        let (mut edge_degraded, mut drain_shed) = (0u64, 0u64);
        for (i, (member, stream)) in self.members.iter().zip(streams).enumerate() {
            let mig = migrations[i];
            let (mut pre, mut post, mut edge) = (Vec::new(), Vec::new(), Vec::new());
            for r in stream {
                let t = r.arrival_us;
                let rung = ladder
                    .get((t / chaos.epoch_us) as usize)
                    .copied()
                    .unwrap_or(0);
                let landed = mig.filter(|p| t >= p.resume_us);
                let draining = mig.is_some_and(|p| t >= p.drain.start_us && t < p.resume_us);
                let class_now = landed.map_or(member.class, |p| p.target);
                let stranded = rung >= 3 && chaos.faults.outage_active(class_now, t);
                let tighten = match bw {
                    Some(b) if rung >= 1 => b.gate_tighten,
                    _ => 1.0,
                };
                let gated = member
                    .gate
                    .is_some_and(|g| !g.tightened(tighten).admits(r.batch.batch_size));
                if rung >= 2 && shed_priorities && prio[i] == prio_min {
                    edge.push(edge_record(r, ShedReason::Admission, false));
                } else if draining || stranded || gated {
                    // Rung 3 answers what neither runtime may take
                    // degraded; below it, the request is shed.
                    if rung >= 3 {
                        edge.push(edge_record(r, ShedReason::None, true));
                    } else {
                        edge.push(edge_record(r, ShedReason::Admission, false));
                        drain_shed += u64::from(draining);
                    }
                } else if landed.is_some() {
                    post.push(r.clone());
                } else {
                    pre.push(r.clone());
                }
            }
            edge_degraded += edge.iter().filter(|e| e.degraded).count() as u64;
            let gate_shed = edge
                .iter()
                .filter(|e| e.base.shed == ShedReason::Admission)
                .count() as u64;
            let mut report = member.runtime.serve(&pre)?;
            let class = match mig {
                None => member.class,
                Some(p) => {
                    let rebuild = rebuild
                        .as_deref_mut()
                        .ok_or(ServeError::Internal("fleet migration without a rebuild"))?;
                    let mut landed = rebuild(i, p.target);
                    landed.resilience.plan =
                        chaos
                            .faults
                            .member_plan(i, p.target, landed.placement.num_devices);
                    report = ShardedReport::merge(vec![report, landed.serve(&post)?]);
                    p.target
                }
            };
            splice_edge_records(&mut report, edge);
            models.push(self.finish_member(member, class, stream.len() as u64, gate_shed, report));
            class_of.push(class);
        }
        Ok(PassResult {
            models,
            class_of,
            edge_degraded,
            drain_shed,
        })
    }

    /// Roll one member's finished report up into its fleet outcome.
    /// `class` is the device class the outcome is attributed to — the
    /// member's pinned class, or its landing class after a migration.
    fn finish_member(
        &self,
        member: &FleetMember<'a>,
        class: usize,
        offered: u64,
        gate_shed: u64,
        report: ShardedReport,
    ) -> FleetModelOutcome {
        let attained = attained(&report, member.slo_deadline_us);
        FleetModelOutcome {
            name: member.name.clone(),
            class: self.classes[class].name.clone(),
            shards: member.runtime.placement.num_devices,
            slo_deadline_us: member.slo_deadline_us,
            requests_offered: offered,
            gate_shed,
            slo_attainment: attainment(attained, offered),
            p50_us: report.percentile_us(0.50),
            p99_us: report.percentile_us(0.99),
            tuning: member.tuning,
            report,
        }
    }

    /// Assemble the fleet report from finished member outcomes.
    /// `class_of[i]` attributes member `i`'s busy time to a device class
    /// — the pinned classes on the plain path, the final post-migration
    /// classes on the chaos path. Fleet-wide attainment is recounted
    /// from the member reports.
    pub(crate) fn assemble(
        &self,
        models: Vec<FleetModelOutcome>,
        class_of: &[usize],
        chaos: Option<FleetChaosStats>,
    ) -> FleetReport {
        let makespan_us = models
            .iter()
            .map(|m| m.report.makespan_us)
            .fold(0.0, f64::max);
        let classes = self
            .classes
            .iter()
            .enumerate()
            .map(|(ci, class)| {
                let busy_us: f64 = class_of
                    .iter()
                    .zip(&models)
                    .filter(|(&c, _)| c == ci)
                    .map(|(_, out)| {
                        out.report
                            .per_shard
                            .iter()
                            .chain(&out.report.per_replica)
                            .map(|s| s.device_us)
                            .sum::<f64>()
                    })
                    .sum();
                let capacity = class.devices as f64 * makespan_us;
                DeviceClassStats {
                    name: class.name.clone(),
                    devices: class.devices,
                    busy_us,
                    utilization: if capacity > 0.0 {
                        busy_us / capacity
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        let attained_total = models
            .iter()
            .map(|m| attained(&m.report, m.slo_deadline_us))
            .sum();
        let offered_total = models.iter().map(|m| m.requests_offered).sum();
        FleetReport {
            models,
            classes,
            makespan_us,
            slo_attainment: attainment(attained_total, offered_total),
            chaos,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{BatchPolicy, ServeConfig};
    use crate::workload::{FleetWorkload, ScenarioSpec, TrafficShape};
    use crate::WorkloadSpec;
    use recflex_baselines::TorchRecBackend;
    use recflex_data::{ModelConfig, ModelPreset, Placement};
    use recflex_sim::Interconnect;

    fn config() -> ServeConfig {
        ServeConfig {
            streams: 2,
            policy: BatchPolicy::Split { cap: 256 },
            slo_deadline_us: None,
            closed_loop: false,
            hot_shard_cap: None,
        }
    }

    /// A 1-model, 1-class fleet with no gate and no deadline is the
    /// underlying sharded runtime, bit for bit: the serialized member
    /// report equals the report from calling the runtime directly.
    #[test]
    fn degenerate_fleet_reproduces_sharded_runtime_byte_for_byte() {
        let model = ModelPreset::A.scaled(0.05);
        let arch = GpuArch::v100();
        let placement = Placement::balance(&model, 2);
        let build = || {
            ShardedServeRuntime::build(
                &model,
                &arch,
                placement.clone(),
                config(),
                Interconnect::nvlink(),
                |m| Box::new(TorchRecBackend::compile(m)),
            )
        };
        let workload = FleetWorkload {
            scenarios: vec![ScenarioSpec {
                name: "a".into(),
                workload: WorkloadSpec::long_tail(400.0),
                shape: TrafficShape::flat(),
                requests: 32,
                priority: 1,
            }],
            seed: 42,
        };
        let merged = workload.merged(&[&model]);

        let fleet = FleetRuntime {
            classes: vec![DeviceClass {
                name: "V100".into(),
                arch: &arch,
                devices: 2,
            }],
            members: vec![FleetMember {
                name: "a".into(),
                class: 0,
                runtime: build(),
                slo_deadline_us: None,
                gate: None,
                tuning: None,
            }],
        };
        let fleet_report = fleet.serve(&merged).expect("fleet serve");

        let direct = build()
            .serve(&WorkloadSpec::long_tail(400.0).stream(&model, 32, 42))
            .expect("direct serve");

        assert_eq!(
            serde_json::to_string(&fleet_report.models[0].report).unwrap(),
            serde_json::to_string(&direct).unwrap(),
            "degenerate fleet must reproduce the sharded runtime bit-for-bit"
        );
        assert_eq!(fleet_report.models[0].gate_shed, 0);
        assert!((fleet_report.makespan_us - direct.makespan_us).abs() == 0.0);
        // No deadline: attainment is completion rate.
        assert_eq!(
            fleet_report.slo_attainment,
            1.0 - direct.shed_rate(),
            "attainment without a deadline is the completion rate"
        );

        // Replay the whole fleet report too.
        let again = fleet.serve(&merged).expect("fleet replay");
        assert_eq!(fleet_report, again, "fleet replay must be bit-identical");
    }

    fn one_member_fleet<'a>(model: &'a ModelConfig, arch: &'a GpuArch) -> FleetRuntime<'a> {
        FleetRuntime {
            classes: vec![DeviceClass {
                name: "V100".into(),
                arch,
                devices: 1,
            }],
            members: vec![FleetMember {
                name: "a".into(),
                class: 0,
                runtime: ShardedServeRuntime::build(
                    model,
                    arch,
                    Placement::balance(model, 1),
                    config(),
                    Interconnect::nvlink(),
                    |m| Box::new(TorchRecBackend::compile(m)),
                ),
                slo_deadline_us: None,
                gate: None,
                tuning: None,
            }],
        }
    }

    #[test]
    fn arrival_for_a_missing_member_is_a_policy_error() {
        let model = ModelPreset::A.scaled(0.02);
        let arch = GpuArch::v100();
        let fleet = one_member_fleet(&model, &arch);
        let mut merged = FleetWorkload {
            scenarios: vec![ScenarioSpec {
                name: "a".into(),
                workload: WorkloadSpec::long_tail(400.0),
                shape: TrafficShape::flat(),
                requests: 4,
                priority: 1,
            }],
            seed: 42,
        }
        .merged(&[&model]);
        merged[2].scenario = 1;
        assert!(matches!(fleet.serve(&merged), Err(ServeError::Policy(_))));
    }

    #[test]
    fn stream_count_mismatch_is_a_policy_error() {
        let model = ModelPreset::A.scaled(0.02);
        let arch = GpuArch::v100();
        let fleet = one_member_fleet(&model, &arch);
        let stream = WorkloadSpec::long_tail(400.0).stream(&model, 4, 42);
        for streams in [vec![], vec![stream.clone(), stream]] {
            assert!(matches!(
                fleet.serve_streams(&streams),
                Err(ServeError::Policy(_))
            ));
        }
    }

    #[test]
    fn query_gate_sheds_oversized_batches_at_the_edge() {
        let model = ModelPreset::A.scaled(0.05);
        let arch = GpuArch::v100();
        let build = || {
            ShardedServeRuntime::build(
                &model,
                &arch,
                Placement::balance(&model, 1),
                config(),
                Interconnect::nvlink(),
                |m| Box::new(TorchRecBackend::compile(m)),
            )
        };
        let workload = FleetWorkload {
            scenarios: vec![ScenarioSpec {
                name: "a".into(),
                workload: WorkloadSpec::long_tail(400.0),
                shape: TrafficShape::flat(),
                requests: 48,
                priority: 1,
            }],
            seed: 11,
        };
        let merged = workload.merged(&[&model]);
        let sizes: Vec<u32> = merged.iter().map(|a| a.request.batch.batch_size).collect();
        let cut = *sizes.iter().max().unwrap() as f64; // gate out only the max
        let gate = QueryGate {
            cost_per_sample_us: 1.0,
            deadline_us: cut - 0.5,
        };
        let expect_shed = sizes.iter().filter(|&&s| !gate.admits(s)).count() as u64;
        assert!(expect_shed > 0, "test needs at least one oversized batch");

        let fleet = FleetRuntime {
            classes: vec![DeviceClass {
                name: "V100".into(),
                arch: &arch,
                devices: 1,
            }],
            members: vec![FleetMember {
                name: "a".into(),
                class: 0,
                runtime: build(),
                slo_deadline_us: None,
                gate: Some(gate),
                tuning: None,
            }],
        };
        let report = fleet.serve(&merged).expect("fleet serve");
        assert_eq!(report.models[0].gate_shed, expect_shed);
        let records = &report.models[0].report.records;
        assert_eq!(
            records.len() as u64,
            48,
            "gated requests keep an edge record instead of vanishing"
        );
        let admission_shed = records
            .iter()
            .filter(|r| r.base.shed == crate::stats::ShedReason::Admission)
            .count() as u64;
        assert_eq!(
            admission_shed, expect_shed,
            "gate rejections surface as ShedReason::Admission"
        );
        for pair in records.windows(2) {
            assert!(
                pair[0].base.arrival_us <= pair[1].base.arrival_us,
                "edge records splice back into arrival order"
            );
        }
        // Gate-shed requests count against attainment.
        assert!(report.models[0].slo_attainment <= 1.0 - expect_shed as f64 / 48.0);
    }

    #[test]
    fn class_utilization_accounts_member_busy_time() {
        let (ma, mb) = (ModelPreset::A.scaled(0.05), ModelPreset::C.scaled(0.05));
        let v100 = GpuArch::v100();
        let edge = GpuArch::edge();
        fn build<'a>(
            model: &'a recflex_data::ModelConfig,
            arch: &'a GpuArch,
        ) -> ShardedServeRuntime<'a> {
            ShardedServeRuntime::build(
                model,
                arch,
                Placement::balance(model, 1),
                config(),
                Interconnect::nvlink(),
                |m| Box::new(TorchRecBackend::compile(m)),
            )
        }
        let workload = FleetWorkload {
            scenarios: vec![
                ScenarioSpec {
                    name: "a".into(),
                    workload: WorkloadSpec::long_tail(300.0),
                    shape: TrafficShape::flat(),
                    requests: 24,
                    priority: 1,
                },
                ScenarioSpec {
                    name: "c".into(),
                    workload: WorkloadSpec::long_tail(500.0),
                    shape: TrafficShape::flat(),
                    requests: 16,
                    priority: 1,
                },
            ],
            seed: 5,
        };
        let merged = workload.merged(&[&ma, &mb]);
        let fleet = FleetRuntime {
            classes: vec![
                DeviceClass {
                    name: "V100".into(),
                    arch: &v100,
                    devices: 1,
                },
                DeviceClass {
                    name: "Edge".into(),
                    arch: &edge,
                    devices: 1,
                },
            ],
            members: vec![
                FleetMember {
                    name: "a".into(),
                    class: 0,
                    runtime: build(&ma, &v100),
                    slo_deadline_us: None,
                    gate: None,
                    tuning: None,
                },
                FleetMember {
                    name: "c".into(),
                    class: 1,
                    runtime: build(&mb, &edge),
                    slo_deadline_us: None,
                    gate: None,
                    tuning: None,
                },
            ],
        };
        let report = fleet.serve(&merged).expect("fleet serve");
        assert_eq!(report.classes.len(), 2);
        for (ci, class) in report.classes.iter().enumerate() {
            let expect: f64 = report.models[ci]
                .report
                .per_shard
                .iter()
                .map(|s| s.device_us)
                .sum();
            assert!((class.busy_us - expect).abs() < 1e-9);
            assert!(class.utilization > 0.0 && class.utilization <= 1.0);
        }
        assert!(report.makespan_us >= report.models[0].report.makespan_us);
        assert!(report.makespan_us >= report.models[1].report.makespan_us);
    }
}
