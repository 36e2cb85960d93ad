//! # recflex-perfbench — how fast the program itself runs
//!
//! One command, three workloads (see `README.md` for why each was
//! chosen): `tune_portfolio` (offline tuning of models A–E on V100 and
//! A100), `serve_longtail` (long-tail requests on a 2-shard tier with a
//! mid-run drift retune) and `fleet_burst` (many tiny requests over a
//! heterogeneous fleet). Every workload follows the same shape:
//!
//! 1. **set-up** — generate the inputs from the seed (repeated
//!    [`SETUP_REPEATS`] times; the median is `setup_s`),
//! 2. **rounds** — the workload's timed work: a tune phase (`tune_s`)
//!    and a serving or evaluation phase (`wall_rps`). At least
//!    [`MIN_ROUNDS`] rounds run, more while another round's timed calls
//!    fit in `--seconds`; wall-clock metrics are medians over rounds and
//!    every round must reproduce the first round's simulated results
//!    bit-for-bit,
//! 3. **finish** — once per run: the capacity ladder and the comparisons
//!    against the scalar reference and the baselines.
//!
//! The traced run (`--trace 1`) instead makes one untraced pass and one
//! traced pass of set-up, one round and the finish, checks that both give
//! the same simulated results, and reports per-layer self times from the
//! spans ([`trace`]).

pub mod fleet_burst;
pub mod layers;
pub mod serve_longtail;
pub mod serving;
pub mod stats;
pub mod trace;
pub mod tune_portfolio;

use std::time::Instant;

use stats::{median, Digest};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// Rounds every untraced run makes, whatever `--seconds` says: the
/// smallest count whose median shrugs off one disturbed round.
pub const MIN_ROUNDS: usize = 3;

/// End-to-end metrics in output order, with their units.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("tune_s", "s"),
    ("wall_rps", "1/s"),
    ("kernel_us", "us"),
    ("kernel_speedup", "x"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("slo_attainment", "fraction"),
    ("capacity_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// A named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one round of a workload's timed work produced.
#[derive(Debug, Default, Clone)]
pub struct Round {
    /// Wall time spent in the tuner, s.
    pub tune_s: f64,
    /// Wall time of the timed serving (or evaluation) calls, s.
    pub serve_s: f64,
    /// Requests offered to those calls (evaluation batches for
    /// `tune_portfolio`).
    pub requests: u64,
    /// Operations attempted (requests, evaluation batches, tuned cells).
    pub attempted: u64,
    /// Operations that failed: serving errors, backend or launch errors,
    /// outputs that differ from the reference, lost requests.
    pub failed: u64,
    /// Simulated end-to-end metrics (deterministic for a seed).
    pub sim: Vec<Metric>,
    /// Simulated per-layer values and counts.
    pub layer_sim: Vec<Metric>,
    /// Human-readable detail lines (sample counts and the like).
    pub notes: Vec<String>,
    /// Digest of the round's simulated observations beyond `sim` (per-batch
    /// latencies, output digests).
    pub observed: u64,
}

impl Round {
    /// Digest of every simulated value, by bits.
    pub fn sim_digest(&self) -> u64 {
        let mut d = Digest::default();
        for m in self.sim.iter().chain(&self.layer_sim) {
            d.float(m.value);
        }
        d.word(self.observed);
        d.value()
    }
}

/// One benchmark workload.
pub trait Workload {
    /// The generated inputs.
    type Inputs;
    /// What a round hands to [`Workload::finish`].
    type Observed;
    /// Name on the command line.
    const NAME: &'static str;
    /// Generate the inputs from `seed` (the timed set-up).
    fn setup(seed: u64) -> Self::Inputs;
    /// Digest of the generated inputs.
    fn input_digest(inputs: &Self::Inputs) -> u64;
    /// One round of timed work, with its cheap checks.
    fn round(inputs: &Self::Inputs) -> (Round, Self::Observed);
    /// Untimed work once per run on the first round: the capacity ladder
    /// and the reference and baseline comparisons.
    fn finish(inputs: &Self::Inputs, observed: Self::Observed, round: &mut Round);
}

/// The result of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether every check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Reported metrics, in output order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

impl Report {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn env_lines(name: &str, seed: u64, input_digest: u64) -> Vec<String> {
    vec![
        format!("workload {name} seed {seed} input_digest {input_digest:016x}"),
        format!(
            "pool_workers {} available_parallelism {} RECFLEX_THREADS={} RECFLEX_SCALE={}",
            rayon::current_num_threads(),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            std::env::var("RECFLEX_THREADS").unwrap_or_else(|_| "unset".into()),
            std::env::var("RECFLEX_SCALE").unwrap_or_else(|_| "unset".into()),
        ),
    ]
}

/// The untraced run: end-to-end metrics.
pub fn measure<W: Workload>(seed: u64, seconds: u64) -> Report {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(W::setup(seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    let mut lines = env_lines(W::NAME, seed, W::input_digest(&inputs));

    // The budget counts timed calls only.
    let budget = seconds as f64;
    let mut timed = 0.0;
    let mut rounds: Vec<Round> = Vec::new();
    let mut observed = None;
    let mut cpu = Vec::new();
    loop {
        let (c, t) = (stats::process_cpu_s(), Instant::now());
        let (round, obs) = W::round(&inputs);
        cpu.push((stats::process_cpu_s() - c, t.elapsed().as_secs_f64()));
        observed.get_or_insert(obs);
        let last = round.tune_s + round.serve_s;
        timed += last;
        rounds.push(round);
        if rounds.len() >= MIN_ROUNDS && timed + last > budget {
            break;
        }
    }
    let digest = rounds[0].sim_digest();
    let replayed = rounds.iter().all(|r| r.sim_digest() == digest);
    W::finish(
        &inputs,
        observed.expect("at least one round"),
        &mut rounds[0],
    );
    let first = &rounds[0];
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let tune: Vec<f64> = rounds.iter().map(|r| r.tune_s).collect();
    let rps: Vec<f64> = rounds
        .iter()
        .map(|r| r.requests as f64 / r.serve_s)
        .collect();

    let mut measured = vec![
        metric("setup_s", median(&setups), "s"),
        metric("tune_s", median(&tune), "s"),
        metric("wall_rps", median(&rps), "1/s"),
        metric("peak_rss_mb", stats::peak_rss_mb(), "MB"),
    ];
    measured.extend(first.sim.iter().cloned());
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .map(|(name, unit)| {
            let value = measured
                .iter()
                .find(|m| m.name == *name)
                .map_or(f64::NAN, |m| m.value);
            metric(name, value, unit)
        })
        .collect();

    lines.push(format!(
        "rounds {} setups_s {:?} tune_s {:?} wall_rps {:?}",
        rounds.len(),
        setups,
        tune,
        rps
    ));
    lines.push(format!("rounds (cpu_s, wall_s) {cpu:?}"));
    lines.extend(first.notes.iter().cloned());
    lines.push(format!(
        "simulated_digest {digest:016x} replayed_in_every_round {replayed}"
    ));
    lines.push(format!(
        "failed_frac {} ({failed} of {attempted})",
        failed as f64 / attempted.max(1) as f64
    ));
    if !replayed {
        lines.push("FAIL: a later round changed the simulated results".into());
    }
    Report {
        correct: failed == 0 && replayed,
        attempted,
        failed,
        metrics,
        lines,
    }
}

/// Spans whose self times partition the traced wall time, with the
/// per-layer metric each one reports as.
const SELF_TIMES: [(&str, &str); 15] = [
    ("data.generate", "data.generate_ms"),
    ("embedding.analyze", "embedding.analyze_ms"),
    ("compiler.taskmap", "compiler.taskmap_ms"),
    ("compiler.compile", "compiler.compile_ms"),
    ("schedules.execute", "schedules.execute_ms"),
    ("sim.launch", "sim.launch_ms"),
    ("tuner.context", "tuner.context_ms"),
    ("tuner.local", "tuner.local_ms"),
    ("tuner.global", "tuner.global_ms"),
    ("core.tune", "core.tune_ms"),
    ("core.shard_build", "core.shard_build_ms"),
    ("core.run", "core.run_ms"),
    ("serve.serve", "serve.self_ms"),
    ("bench.check", "bench.check_ms"),
    ("bench.root", "bench.unattributed_ms"),
];

/// The traced run: per-layer metrics. One untraced and one traced pass of
/// set-up plus one round; the spans are written to `trace_path`.
pub fn trace_run<W: Workload>(seed: u64, trace_path: &std::path::Path) -> Report {
    let pass = |digest: &mut u64| {
        let inputs = W::setup(seed);
        *digest = W::input_digest(&inputs);
        let (mut round, observed) = W::round(&inputs);
        W::finish(&inputs, observed, &mut round);
        round
    };
    let mut input_digest = 0;
    let t = Instant::now();
    let untraced = pass(&mut input_digest);
    let untraced_ns = t.elapsed().as_nanos() as u64;

    trace::enable();
    let traced = trace::span("bench.root", None, || pass(&mut input_digest));
    let tr = trace::disable();
    let mut lines = env_lines(W::NAME, seed, input_digest);

    let root_ns = tr.total_ns().get("bench.root").copied().unwrap_or(0);
    let self_ns = tr.self_ns();
    let total_ns = tr.total_ns();
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut metrics: Vec<Metric> = SELF_TIMES
        .iter()
        .map(|(span, name)| metric(name, ms(self_ns.get(span).copied().unwrap_or(0)), "ms"))
        .collect();
    let attributed: u64 = SELF_TIMES
        .iter()
        .map(|(span, _)| self_ns.get(span).copied().unwrap_or(0))
        .sum();
    let backend_ns = total_ns.get("core.run").copied().unwrap_or(0);
    let in_serve_ns: u64 = tr
        .spans
        .iter()
        .filter(|s| {
            s.name == "core.run" && s.parent.is_some_and(|p| tr.spans[p].name == "serve.serve")
        })
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let lookups = tr.count("embedding.lookups");
    let execute_ns = self_ns.get("schedules.execute").copied().unwrap_or(0);
    metrics.extend([
        metric("serve.backend_ms", ms(in_serve_ns), "ms"),
        metric("embedding.lookups", lookups, "count"),
        metric(
            "schedules.execute_ns_per_lookup",
            if lookups > 0.0 {
                execute_ns as f64 / lookups
            } else {
                0.0
            },
            "ns",
        ),
        metric("sim.launches", tr.count("sim.launches"), "count"),
        metric("sim.blocks", tr.count("sim.blocks"), "count"),
        metric("sim.dram_bytes", tr.count("sim.dram_bytes"), "bytes"),
        metric("tuner.evaluations", tr.count("tuner.evaluations"), "count"),
    ]);
    metrics.extend(traced.layer_sim.iter().cloned());
    let overhead_ns = root_ns as f64 - untraced_ns as f64;
    metrics.extend([
        metric("bench.traced_wall_ms", ms(root_ns), "ms"),
        metric("bench.untraced_wall_ms", ms(untraced_ns), "ms"),
        metric("bench.trace_overhead_ms", overhead_ns / 1e6, "ms"),
    ]);

    let same = untraced.sim_digest() == traced.sim_digest();
    let partitioned = attributed == root_ns;
    lines.extend(traced.notes.iter().cloned());
    lines.push(format!(
        "spans {} written to {} (backend calls {} ms in total)",
        tr.spans.len(),
        trace_path.display(),
        ms(backend_ns)
    ));
    lines.push(format!(
        "self times sum {} ms = traced wall {} ms: {partitioned}",
        ms(attributed),
        ms(root_ns)
    ));
    lines.push(format!(
        "simulated results traced {:016x} untraced {:016x} identical: {same}",
        traced.sim_digest(),
        untraced.sim_digest()
    ));
    if let Err(e) = tr.write(trace_path) {
        lines.push(format!("could not write the trace: {e}"));
    }
    let attempted = untraced.attempted + traced.attempted;
    let failed = untraced.failed + traced.failed;
    Report {
        correct: failed == 0 && same && partitioned,
        attempted,
        failed,
        metrics,
        lines,
    }
}
