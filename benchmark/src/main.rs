//! The abwe benchmark: runs one workload from a seed, checks its outputs
//! and prints its metrics, the last line as one JSON object.
//!
//! ```text
//! abwe-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Normally started through `python3 benchmark/run.py`, which builds it
//! first. A run repeats the workload's fixed batch (a closed loop: one
//! process submits the batch and waits for it) until `--seconds` have
//! passed, and reports medians over the repetitions. Every repetition
//! runs the same inputs, all derived from `--seed`, so every repetition
//! must reproduce the same output fingerprint. `--trace 1` alternates
//! untraced and traced repetitions and prints the per-layer metrics.
//! See `benchmark/README.md` for the workloads and metric definitions.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::Instant;

use abw_core::experiments::multi_bottleneck::{self, MultiBottleneckConfig};
use abw_core::experiments::tcp_throughput::{self, CrossTrafficType, TcpThroughputConfig};
use abw_core::fluid;
use abw_core::scenario::dsl::ScenarioSpec;
use abw_core::scenario::{CrossKind, Scenario};
use abw_core::stream::StreamSpec;
use abw_core::tools::registry::{self, ToolConfig, ToolEntry};
use abw_core::tools::Verdict;
use abw_exec::Executor;
use abw_netsim::{SimDuration, SimTime};
use abw_obs::json::ObjectWriter;
use abw_obs::prof::{self, Cost, CostSnapshot};
use abw_stats::{relative_error, Ecdf};
use abw_trace::{SyntheticTrace, SyntheticTraceConfig};
use abwe_benchmark::{
    cpu_seconds_from_stat, derive_seed, highest_supported, median, peak_rss_mb_from_status,
    percentile, tool_metric_name, Fingerprint, SpanNode, Tally, END_TO_END, MIN_BEYOND, PER_LAYER,
    TOOL_METRIC_UNIT,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const USAGE: &str =
    "usage: abwe-benchmark --workload <multihop_streams|tool_sweep|bulk_background> \
     --seed <n> --seconds <s> --trace <0|1>";

/// Seed used when `--seed` is absent (see `benchmark/README.md`).
const DEFAULT_SEED: u64 = 1;

/// Warm-up every probing scenario gets before it is used, as in the
/// paper's experiments.
const WARMUP: SimDuration = SimDuration::from_millis(500);

/// Span names the benchmark opens at the top of each timed batch; their
/// sum is compared with the batch's wall time (`obs.span_cover_frac`).
const TOP_LEVEL_SPANS: [&str; 6] = [
    "experiments.call",
    "probe.estimates",
    "exec.run",
    "trace.generate",
    "trace.sample",
    "stats.ecdf",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    MultihopStreams,
    ToolSweep,
    BulkBackground,
}

/// Workload names as `--workload` takes them.
const WORKLOADS: [(&str, Workload); 3] = [
    ("multihop_streams", Workload::MultihopStreams),
    ("tool_sweep", Workload::ToolSweep),
    ("bulk_background", Workload::BulkBackground),
];

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }

    fn name(self) -> &'static str {
        WORKLOADS
            .iter()
            .find(|(_, w)| *w == self)
            .map_or("", |&(n, _)| n)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10.0;
        let mut trace = false;
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("`{flag}` needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                }
                "--seed" => {
                    seed = value
                        .parse()
                        .map_err(|_| format!("`{value}` is not a seed"))?
                }
                "--seconds" => {
                    seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("`{value}` is not a positive duration"))?
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("`--trace {value}`: expected 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("`--workload` is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// Nanoseconds since the first call: the wall clock injected into
/// `abw_obs::prof` for traced repetitions.
fn clock_ns() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| cpu_seconds_from_stat(&s))
        .unwrap_or(f64::NAN)
}

fn take_spans() -> Option<SpanNode> {
    SpanNode::parse(&prof::take_profile().to_json()).ok()
}

/// What one repetition of a workload measured and checked.
#[derive(Default)]
struct Rep {
    /// Set-up durations: one per repetition, or one per set-up where a
    /// workload sets up several times.
    setup_s: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
    /// Cost counters accumulated during the timed batch.
    costs: CostSnapshot,
    /// Wall time of each avail-bw estimate, ms.
    estimate_ms: Vec<f64>,
    /// Relative error of each estimate against measured truth.
    est_err: Vec<f64>,
    tally: Tally,
    fingerprint: Fingerprint,
    /// Failed correctness checks, one line each.
    failures: Vec<String>,
    /// Per-layer values read from the workload's outputs.
    facts: BTreeMap<String, f64>,
    setup_spans: Option<SpanNode>,
    batch_spans: Option<SpanNode>,
}

impl Rep {
    /// Records a correctness check; each check also counts as an item.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally.record(ok);
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Times the phases of one repetition and collects its spans.
struct Phases {
    traced: bool,
    started: Instant,
    cpu: f64,
    costs: CostSnapshot,
}

impl Phases {
    /// Starts the set-up phase (profiling on for a traced repetition).
    fn setup(traced: bool) -> Phases {
        prof::take_profile();
        if traced {
            prof::enable(clock_ns);
        }
        Phases {
            traced,
            started: Instant::now(),
            cpu: 0.0,
            costs: CostSnapshot::default(),
        }
    }

    /// Ends set-up and starts the timed batch.
    fn batch(&mut self, rep: &mut Rep) {
        if rep.setup_s.is_empty() {
            rep.setup_s.push(self.started.elapsed().as_secs_f64());
        }
        if self.traced {
            rep.setup_spans = take_spans();
        }
        self.costs = prof::snapshot();
        self.cpu = cpu_seconds();
        self.started = Instant::now();
    }

    /// Ends the timed batch; what follows is verification and is not
    /// measured.
    fn done(self, rep: &mut Rep) {
        rep.wall_s = self.started.elapsed().as_secs_f64();
        rep.cpu_s = cpu_seconds() - self.cpu;
        rep.costs = prof::snapshot().delta(&self.costs);
        if self.traced {
            rep.batch_spans = take_spans();
        }
        prof::disable();
    }
}

/// Builds a scenario and warms it up, each step under its layer's span.
fn build_scenario(build: impl FnOnce() -> Scenario, warmup: SimDuration) -> Scenario {
    let mut s = {
        let _span = prof::span("scenario.build");
        build()
    };
    let _span = prof::span("scenario.warmup");
    s.warm_up(warmup);
    s
}

// ---------------------------------------------------------------------
// multihop_streams: Figure 4 at paper scale
// ---------------------------------------------------------------------

/// Tight-link counts of Figure 4.
const FIG4_LINKS: [usize; 3] = [1, 3, 5];
/// Capacity and avail-bw of the canonical tight link (`HopSpec::canonical`).
const TIGHT_CAPACITY_BPS: f64 = 50e6;
const TIGHT_AVAIL_MBPS: f64 = 25.0;
/// Input rate of the direct-probing estimate streams, above the avail-bw
/// so Equation 9 applies.
const ESTIMATE_RATE_BPS: f64 = 30e6;
/// Estimate streams per Figure 4 path, sent before and again after the
/// experiment call, so the latency sample spans the batch.
const ESTIMATE_STREAMS: usize = 150;
/// Set-ups per untraced repetition: one takes milliseconds, and a batch
/// seconds, so set-up repeats to give its median enough samples.
const MULTIHOP_SETUPS: usize = 8;

/// One direct-probing estimate stream.
struct StreamEstimate {
    latency_ms: f64,
    estimate_bps: Option<f64>,
    window: (SimTime, SimTime),
}

/// Sends the estimate streams over one Figure 4 path, timing each.
fn estimate_streams(s: &mut Scenario) -> Vec<StreamEstimate> {
    let mut runner = s.runner();
    runner.stream_gap = SimDuration::from_millis(10);
    let spec = StreamSpec::Periodic {
        rate_bps: ESTIMATE_RATE_BPS,
        size: 1500,
        count: 100,
    };
    (0..ESTIMATE_STREAMS)
        .map(|_| {
            let started = Instant::now();
            let r = runner.run_stream(&mut s.sim, &spec);
            let estimate_bps = r.output_rate_bps().map(|ro| {
                fluid::direct_probing_estimate(TIGHT_CAPACITY_BPS, r.input_rate_bps(), ro)
            });
            let latency_ms = started.elapsed().as_secs_f64() * 1e3;
            let window = match (r.records.first(), r.records.last()) {
                (Some(first), Some(last)) => (first.sent_at, last.recv_at),
                _ => (s.sim.now(), s.sim.now()),
            };
            StreamEstimate {
                latency_ms,
                estimate_bps,
                window,
            }
        })
        .collect()
}

fn multihop_streams(seed: u64, traced: bool) -> Rep {
    let mut rep = Rep::default();
    let mut phases = Phases::setup(traced);
    let config = MultiBottleneckConfig {
        seed: derive_seed(seed, 1),
        ..MultiBottleneckConfig::default()
    };
    let path_seeds: Vec<u64> = FIG4_LINKS
        .iter()
        .map(|&n| derive_seed(seed, 100 + n as u64))
        .collect();
    let path = |n: usize, s: u64| move || Scenario::multi_tight(n, CrossKind::Poisson, s);
    let mut paths: Vec<Scenario> = Vec::new();
    for _ in 0..if traced { 1 } else { MULTIHOP_SETUPS } {
        let started = Instant::now();
        paths = FIG4_LINKS
            .iter()
            .zip(&path_seeds)
            .map(|(&n, &s)| build_scenario(path(n, s), WARMUP))
            .collect();
        rep.setup_s.push(started.elapsed().as_secs_f64());
    }

    phases.batch(&mut rep);
    let mut streams: Vec<Vec<StreamEstimate>> = FIG4_LINKS.iter().map(|_| Vec::new()).collect();
    let mut estimate_round = |paths: &mut [Scenario]| {
        let _span = prof::span("probe.estimates");
        for (s, out) in paths.iter_mut().zip(&mut streams) {
            out.extend(estimate_streams(s));
        }
    };
    estimate_round(&mut paths);
    let fig4 = {
        let _span = prof::span("experiments.call");
        multi_bottleneck::run(&config)
    };
    estimate_round(&mut paths);
    phases.done(&mut rep);

    // Figure 4's shape: at Ri = A the ratio falls with every added tight
    // link, and well below A it stays near 1
    let ratio_at = |n: usize, ri: f64| {
        fig4.curves
            .iter()
            .find(|c| c.tight_links == n)
            .and_then(|c| c.ratio_at(ri))
            .unwrap_or(f64::NAN)
    };
    let at_a: Vec<f64> = FIG4_LINKS
        .iter()
        .map(|&n| ratio_at(n, TIGHT_AVAIL_MBPS))
        .collect();
    rep.check(at_a[0] > at_a[1] && at_a[1] > at_a[2], || {
        format!("fig4: Ro/Ri at Ri = A must fall across 1/3/5 tight links, got {at_a:?}")
    });
    for &n in &FIG4_LINKS {
        let at_15 = ratio_at(n, 15.0);
        rep.check(at_15 >= 0.97, || {
            format!("fig4: {n} tight links at 15 Mb/s: Ro/Ri = {at_15} < 0.97")
        });
    }
    for c in &fig4.curves {
        rep.fingerprint.u64(c.tight_links as u64);
        for &(ri, ratio) in &c.points {
            rep.tally.record(ratio.is_finite());
            rep.fingerprint.f64(ri);
            rep.fingerprint.f64(ratio);
        }
    }

    // estimate errors against the truth measured on a twin of each path:
    // same seed, same cross traffic, no probing, run to the same time
    for (((&n, &s), probed), estimates) in
        FIG4_LINKS.iter().zip(&path_seeds).zip(&paths).zip(streams)
    {
        let mut twin = build_scenario(path(n, s), WARMUP);
        twin.sim.run_until(probed.sim.now());
        for e in estimates {
            rep.estimate_ms.push(e.latency_ms);
            rep.tally.record(e.estimate_bps.is_some());
            if let Some(estimate) = e.estimate_bps {
                let truth = twin.path_avail_bps(e.window.0, e.window.1);
                rep.est_err.push(relative_error(estimate, truth).abs());
                rep.fingerprint.f64(estimate);
            }
        }
    }
    rep
}

// ---------------------------------------------------------------------
// tool_sweep: every registry tool over generated .scn scenarios
// ---------------------------------------------------------------------

/// Cross-traffic models of the generated scenarios (DSL names).
const SWEEP_CROSS: [&str; 2] = ["poisson", "pareto-on-off"];
/// Ingress loss rates of the tight hop (DSL impairment values).
const SWEEP_LOSS: [&str; 4] = ["0", "0.001", "0.01", "0.05"];
/// Scenario seeds per generated spec.
const SWEEP_SEEDS: usize = 12;
/// Simulated-time budget of one estimate; reaching it is a failure.
const SWEEP_DEADLINE: SimDuration = SimDuration::from_secs(600);

/// The `.scn` text of one generated scenario: the canonical 50 Mb/s hop
/// with 25 Mb/s of cross traffic, as in the paper's single-hop runs.
fn sweep_spec(name: &str, cross: &str, loss: &str, seeds: &[u64]) -> String {
    let impair = if loss == "0" {
        String::new()
    } else {
        format!(" impair=\"loss={loss}\"")
    };
    let seeds: Vec<String> = seeds.iter().map(u64::to_string).collect();
    format!(
        "# tool_sweep input generated from the benchmark seed\n\
         scenario {name}\n\
         seeds = {}\n\
         warmup = 500ms\n\
         quick = true\n\
         \n\
         hop capacity=50000000 latency=1ms cross={cross} cross-rate=25000000{impair}\n",
        seeds.join(", ")
    )
}

/// One (spec, seed, tool) estimate, with its scenario built in set-up.
struct Cell {
    spec: usize,
    seed: u64,
    entry: &'static ToolEntry,
    config: ToolConfig,
    scenario: Scenario,
}

struct CellOut {
    spec: usize,
    seed: u64,
    tool: &'static str,
    verdict: Option<Verdict>,
    window: (SimTime, SimTime),
    latency_ms: f64,
}

fn run_cell(cell: Cell) -> CellOut {
    let Cell {
        spec,
        seed,
        entry,
        config,
        mut scenario,
    } = cell;
    let start = scenario.sim.now();
    let mut session = scenario.session();
    let mut tool = entry.build(&config);
    let started = Instant::now();
    let verdict = session.drive_until(&mut scenario.sim, tool.as_mut(), start + SWEEP_DEADLINE);
    CellOut {
        spec,
        seed,
        tool: entry.name,
        verdict,
        window: (start, scenario.sim.now()),
        latency_ms: started.elapsed().as_secs_f64() * 1e3,
    }
}

fn tool_sweep(seed: u64, exec: &Executor, traced: bool) -> Rep {
    let mut rep = Rep::default();
    let mut phases = Phases::setup(traced);
    let mut texts = Vec::new();
    for (ci, cross) in SWEEP_CROSS.iter().enumerate() {
        for (li, loss) in SWEEP_LOSS.iter().enumerate() {
            let tag = (ci * SWEEP_LOSS.len() + li) as u64;
            let seeds: Vec<u64> = (0..SWEEP_SEEDS as u64)
                .map(|k| derive_seed(seed, 1000 + tag * 16 + k))
                .collect();
            let name = format!("sweep-{cross}-loss{li}");
            texts.push((
                format!("{name}.scn"),
                sweep_spec(&name, cross, loss, &seeds),
            ));
        }
    }
    let mut specs = Vec::new();
    for (file, text) in &texts {
        let parsed = {
            let _span = prof::span("scenario.parse");
            ScenarioSpec::parse(text, file)
        };
        match parsed {
            Ok(spec) => specs.push(spec),
            Err(e) => {
                rep.failures
                    .push(format!("tool_sweep: generated spec rejected: {e}"));
                phases.batch(&mut rep);
                phases.done(&mut rep);
                return rep;
            }
        }
    }
    // `Scenario::from_spec` is `from_hops` plus `warm_up`; the two steps
    // run separately here so set-up time splits into build and warm-up
    let mut cells = Vec::new();
    for (si, spec) in specs.iter().enumerate() {
        let config = spec.tool_config();
        for &s in &spec.seeds {
            for entry in spec.tool_entries() {
                let scenario =
                    build_scenario(|| Scenario::from_hops(spec.hops.clone(), s), spec.warmup);
                cells.push(Cell {
                    spec: si,
                    seed: s,
                    entry,
                    config: config.clone(),
                    scenario,
                });
            }
        }
    }

    phases.batch(&mut rep);
    let jobs: Vec<_> = cells.into_iter().map(|c| move || run_cell(c)).collect();
    let outs = {
        let _span = prof::span("exec.run");
        exec.run(jobs)
    };
    phases.done(&mut rep);

    // measured truth: one unprobed twin per (spec, seed) carries the same
    // cross traffic (thinned by the same loss) and is run past the end
    // of every session that used that scenario seed
    let mut groups: BTreeMap<(usize, u64), Vec<usize>> = BTreeMap::new();
    for (i, o) in outs.iter().enumerate() {
        groups.entry((o.spec, o.seed)).or_default().push(i);
    }
    let twin_jobs: Vec<_> = groups
        .iter()
        .map(|(&(si, s), members)| {
            let spec = &specs[si];
            let windows: Vec<(SimTime, SimTime)> =
                members.iter().map(|&i| outs[i].window).collect();
            move || {
                let mut twin = Scenario::from_spec(spec, s);
                let end = windows.iter().map(|w| w.1).max().unwrap_or(twin.sim.now());
                twin.sim.run_until(end);
                windows
                    .iter()
                    .map(|&(a, b)| twin.path_avail_bps(a, b))
                    .collect::<Vec<f64>>()
            }
        })
        .collect();
    let mut truth = vec![f64::NAN; outs.len()];
    for (members, truths) in groups.values().zip(exec.run(twin_jobs)) {
        for (&i, t) in members.iter().zip(truths) {
            truth[i] = t;
        }
    }

    for spec in &specs {
        rep.fingerprint.bytes(spec.to_spec().as_bytes());
    }
    let mut probe_pkts: BTreeMap<&str, u64> = registry::all().iter().map(|e| (e.name, 0)).collect();
    let mut verdicts = 0u64;
    for (o, &avail_truth) in outs.iter().zip(&truth) {
        rep.estimate_ms.push(o.latency_ms);
        rep.fingerprint.bytes(o.tool.as_bytes());
        rep.fingerprint.u64(o.seed);
        rep.fingerprint.u64(o.window.1.as_nanos());
        let Some(v) = &o.verdict else {
            rep.tally.record(false);
            continue;
        };
        verdicts += 1;
        *probe_pkts.entry(o.tool).or_default() += v.probe_packets();
        let estimate = v.avail_bps();
        let clamped = matches!(v, Verdict::Range(r) if r.clamped);
        rep.check(estimate.is_finite() || clamped, || {
            format!(
                "tool_sweep: {} seed {} gave a non-finite verdict that is not flagged clamped",
                o.tool, o.seed
            )
        });
        rep.fingerprint.f64(estimate);
        rep.fingerprint.u64(v.probe_packets());
        let ok = estimate.is_finite() && !clamped;
        rep.tally.record(ok);
        if ok {
            // the capacity prober measures the narrow link, not avail-bw
            let truth = if o.tool == "capacity" {
                specs[o.spec].narrow_capacity_bps()
            } else {
                avail_truth
            };
            rep.est_err.push(relative_error(estimate, truth).abs());
        }
    }
    let total: u64 = probe_pkts.values().sum();
    for (tool, pkts) in probe_pkts {
        rep.facts.insert(tool_metric_name(tool), pkts as f64);
    }
    if verdicts > 0 {
        rep.facts.insert(
            "tools.probe_pkts_per_estimate".into(),
            total as f64 / verdicts as f64,
        );
    }
    rep
}

// ---------------------------------------------------------------------
// bulk_background: Figure 1's trace pipeline and Figure 7's TCP cells
// ---------------------------------------------------------------------

/// Averaging timescales of Figure 1, ms.
const FIG1_TAUS_MS: [u64; 3] = [1, 10, 100];
/// Sample-mean estimates per timescale, and samples per estimate.
const FIG1_TRIALS: usize = 1000;
const FIG1_SAMPLES: usize = 20;
/// Target utilisation of the synthetic trace and the tolerance the
/// trace crate's own test allows.
const TRACE_UTILIZATION: f64 = 0.45;
const TRACE_UTILIZATION_TOLERANCE: f64 = 0.08;

fn bulk_background(seed: u64, exec: &Executor, traced: bool) -> Rep {
    let mut rep = Rep::default();
    let mut phases = Phases::setup(traced);
    let trace_config = SyntheticTraceConfig {
        seed: derive_seed(seed, 1),
        ..SyntheticTraceConfig::default()
    };
    let tcp_config = TcpThroughputConfig {
        seed: derive_seed(seed, 2),
        ..TcpThroughputConfig::default()
    };
    // warm-up: a short trace of the same link faults in the simulator
    // and allocator before the timed batch
    std::hint::black_box(SyntheticTrace::generate(&SyntheticTraceConfig {
        duration: SimDuration::from_secs(1),
        warmup: SimDuration::from_millis(100),
        seed: derive_seed(seed, 3),
        ..SyntheticTraceConfig::default()
    }));

    phases.batch(&mut rep);
    let trace = {
        let _span = prof::span("trace.generate");
        SyntheticTrace::generate(&trace_config)
    };
    let truth = trace.process.mean();
    let mut errors: Vec<Vec<f64>> = Vec::new();
    let mut population_sd = Vec::new();
    {
        let _span = prof::span("trace.sample");
        for (i, &tau_ms) in FIG1_TAUS_MS.iter().enumerate() {
            let tau_ns = tau_ms * 1_000_000;
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, 10 + i as u64));
            let mut errs = Vec::with_capacity(FIG1_TRIALS);
            for _ in 0..FIG1_TRIALS {
                let started = Instant::now();
                let samples = trace.process.poisson_sample(&mut rng, tau_ns, FIG1_SAMPLES);
                let mean = samples.iter().sum::<f64>() / samples.len() as f64;
                rep.estimate_ms.push(started.elapsed().as_secs_f64() * 1e3);
                errs.push(relative_error(mean, truth));
            }
            errors.push(errs);
            population_sd.push(trace.process.population(tau_ns).stddev());
        }
    }
    let above_5pct: Vec<f64> = {
        let _span = prof::span("stats.ecdf");
        errors
            .iter()
            .map(|e| Ecdf::new(e.clone()).fraction_abs_above(0.05))
            .collect()
    };
    let fig7 = {
        let _span = prof::span("experiments.call");
        tcp_throughput::run_with(&tcp_config, exec)
    };
    phases.done(&mut rep);

    let utilization = trace.achieved_utilization;
    let util_ok = (utilization - TRACE_UTILIZATION).abs() <= TRACE_UTILIZATION_TOLERANCE;
    rep.check(util_ok, || {
        format!("trace: utilisation {utilization} is off the {TRACE_UTILIZATION} target")
    });
    rep.check(above_5pct.windows(2).all(|w| w[0] > w[1]), || {
        format!("fig1: share of errors above 5% must fall as tau grows, got {above_5pct:?}")
    });
    let avail = fig7.avail_mbps;
    for c in &fig7.curves {
        for &(wr, goodput) in &c.points {
            rep.tally.record(goodput > 0.0);
            rep.fingerprint.u64(wr);
            rep.fingerprint.f64(goodput);
            if c.cross == CrossTrafficType::ParetoUdp && wr >= 64 {
                rep.check(relative_error(goodput, avail).abs() <= 0.25, || {
                    format!("fig7: against Pareto UDP, Wr = {wr} gives {goodput} Mb/s, not near the {avail} Mb/s avail-bw")
                });
            }
        }
        if c.cross != CrossTrafficType::ParetoUdp {
            let g = c.saturated_mbps();
            rep.check(g > 1.2 * avail, || {
                format!("fig7: against {:?}, TCP gets {g} Mb/s at the largest window, not above the {avail} Mb/s avail-bw", c.cross)
            });
        }
    }
    rep.est_err = errors.iter().flatten().map(|e| e.abs()).collect();
    rep.fingerprint.u64(trace.packets);
    rep.fingerprint.f64(truth);
    for e in errors.iter().flatten().chain(&population_sd) {
        rep.fingerprint.f64(*e);
    }
    let goodputs: Vec<f64> = fig7
        .curves
        .iter()
        .flat_map(|c| c.points.iter().map(|p| p.1))
        .collect();
    rep.facts.insert("tcp.cells".into(), goodputs.len() as f64);
    rep.facts.insert(
        "tcp.goodput_mbps_mean".into(),
        goodputs.iter().sum::<f64>() / goodputs.len().max(1) as f64,
    );
    rep.facts.insert("trace.pkts".into(), trace.packets as f64);
    rep
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

/// The per-layer metrics of one traced repetition.
fn layer_metrics(rep: &Rep, workers: usize) -> BTreeMap<String, f64> {
    let empty = SpanNode::parse("{}").expect("an empty object is a valid tree");
    let setup = rep.setup_spans.as_ref().unwrap_or(&empty);
    let batch = rep.batch_spans.as_ref().unwrap_or(&empty);
    let secs = |ns: u64| ns as f64 / 1e9;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let pkts = rep.costs.get(Cost::PacketsSimulated) as f64;
    let (run_until_calls, run_until_ns) = batch.totals("sim.run_until");
    let quiescence_ns = batch.totals("sim.run_to_quiescence").1;
    let (streams, stream_ns) = batch.totals("probe.stream");
    let (jobs, job_ns) = batch.totals("exec.job");
    let busy_s = secs(batch.totals("exec.worker.busy").1);
    let tool_ns: u64 = registry::all().iter().map(|e| batch.totals(e.name).1).sum();
    let tcp_cells = rep.facts.get("tcp.cells").copied().unwrap_or(0.0);

    let mut m = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };
    put("scenario.parse_s", secs(setup.totals("scenario.parse").1));
    put("scenario.build_s", secs(setup.totals("scenario.build").1));
    put("scenario.warmup_s", secs(setup.totals("scenario.warmup").1));
    put(
        "experiments.call_s",
        secs(batch.totals("experiments.call").1),
    );
    put("exec.jobs", jobs as f64);
    put("exec.busy_s", busy_s);
    put("exec.idle_s", secs(batch.totals("exec.worker.idle").1));
    put("exec.util_frac", ratio(busy_s, workers as f64 * rep.wall_s));
    put("netsim.run_until_calls", run_until_calls as f64);
    put("netsim.busy_s", secs(run_until_ns + quiescence_ns));
    put("netsim.pkts", pkts);
    put(
        "netsim.ns_per_pkt",
        ratio((run_until_ns + quiescence_ns) as f64, pkts),
    );
    put(
        "netsim.events_per_pkt",
        ratio(rep.costs.get(Cost::EventsPopped) as f64, pkts),
    );
    put(
        "netsim.queue_ops_per_pkt",
        ratio(rep.costs.get(Cost::QueueOps) as f64, pkts),
    );
    put(
        "netsim.fluid_frac",
        ratio(rep.costs.get(Cost::FluidPackets) as f64, pkts),
    );
    put("netsim.ff_skips", rep.costs.get(Cost::FfSkips) as f64);
    put("netsim.impair_draws", rep.costs.get(Cost::RngDraws) as f64);
    put("probe.streams", streams as f64);
    put(
        "probe.stream_mean_us",
        ratio(stream_ns as f64 / 1e3, streams as f64),
    );
    put("probe.self_s", secs(batch.self_ns("probe.stream")));
    put(
        "probe.run_until_per_stream",
        ratio(
            batch.child_totals("probe.stream", "sim.run_until").0 as f64,
            streams as f64,
        ),
    );
    put("session.drives", batch.totals("session.drive").0 as f64);
    put("session.self_s", secs(batch.self_ns("session.drive")));
    put(
        "session.ramp_s",
        secs(batch.child_totals("session.drive", "sim.run_until").1),
    );
    put("tools.steps", rep.costs.get(Cost::ToolSteps) as f64);
    put("tools.next_s", secs(tool_ns));
    put("tcp.cells", tcp_cells);
    put("tcp.cell_mean_s", ratio(secs(job_ns), tcp_cells));
    put("trace.generate_s", secs(batch.totals("trace.generate").1));
    put("trace.sample_s", secs(batch.totals("trace.sample").1));
    put("stats.ecdf_s", secs(batch.totals("stats.ecdf").1));
    put(
        "obs.span_cover_frac",
        ratio(secs(batch.top_level_ns(&TOP_LEVEL_SPANS)), rep.wall_s),
    );
    for (name, _) in PER_LAYER {
        m.entry(name.to_string()).or_insert(0.0);
    }
    for e in registry::all() {
        m.entry(tool_metric_name(e.name)).or_insert(0.0);
    }
    for (name, &v) in &rep.facts {
        m.insert(name.clone(), v);
    }
    m
}

/// Unit of a per-layer metric; the rest are per-tool packet counts.
fn layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(TOOL_METRIC_UNIT, |&(_, u)| u)
}

fn push_metric(w: &mut ObjectWriter<'_>, name: &str, value: f64, unit: &str) {
    let mut obj = String::new();
    let mut o = ObjectWriter::new(&mut obj);
    o.f64("value", value).str("unit", unit);
    o.finish();
    w.raw(name, &obj);
}

fn percentile_or_fail(samples: &[f64], pct: f64, what: &str, failures: &mut Vec<String>) -> f64 {
    match percentile(samples, pct) {
        Ok(v) => v,
        Err(e) => {
            failures.push(format!("{what}: {e}"));
            f64::NAN
        }
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("abwe-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workers = abw_exec::available_workers();
    let exec = Executor::new(workers);
    let name = args.workload.name();

    let started = Instant::now();
    let mut reps: Vec<(bool, Rep)> = Vec::new();
    loop {
        let traced = args.trace && reps.len() % 2 == 1;
        let rep = match args.workload {
            Workload::MultihopStreams => multihop_streams(args.seed, traced),
            Workload::ToolSweep => tool_sweep(args.seed, &exec, traced),
            Workload::BulkBackground => bulk_background(args.seed, &exec, traced),
        };
        let failed = !rep.failures.is_empty();
        reps.push((traced, rep));
        let enough = reps.len() >= if args.trace { 2 } else { 1 };
        if failed || (enough && started.elapsed().as_secs_f64() >= args.seconds) {
            break;
        }
    }

    let mut failures: Vec<String> = Vec::new();
    let first = &reps[0].1;
    for (i, (_, rep)) in reps.iter().enumerate() {
        failures.extend(rep.failures.iter().map(|f| format!("rep {i}: {f}")));
        if rep.fingerprint != first.fingerprint {
            failures.push(format!(
                "rep {i}: output fingerprint {:016x} differs from rep 0's {:016x}",
                rep.fingerprint.value(),
                first.fingerprint.value()
            ));
        }
    }
    let mut tally = Tally::default();
    for (_, rep) in &reps {
        tally.add(rep.tally);
    }
    if tally.attempted == 0 {
        failures.push("the workload attempted no items".to_string());
    }
    let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.0).map(|r| &r.1).collect();
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.0).map(|r| &r.1).collect();
    let med = |reps: &[&Rep], f: &dyn Fn(&Rep) -> f64| {
        median(&reps.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let wall_s = med(&untraced, &|r| r.wall_s);
    let latencies: Vec<f64> = untraced
        .iter()
        .flat_map(|r| r.estimate_ms.iter().copied())
        .collect();
    // outputs repeat exactly across repetitions, so errors come from one
    let errors = &first.est_err;
    let peak_rss_mb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| peak_rss_mb_from_status(&s))
        .unwrap_or(f64::NAN);

    let mut e2e: Vec<(&str, f64)> = vec![
        ("wall_s", wall_s),
        (
            "setup_s",
            median(
                &untraced
                    .iter()
                    .flat_map(|r| r.setup_s.iter().copied())
                    .collect::<Vec<_>>(),
            ),
        ),
        ("cpu_s", med(&untraced, &|r| r.cpu_s)),
        (
            "sim_pkts_per_s",
            med(&untraced, &|r| {
                r.costs.get(Cost::PacketsSimulated) as f64 / r.wall_s
            }),
        ),
        ("peak_rss_mb", peak_rss_mb),
    ];
    for (metric, samples, pct) in [
        ("estimate_p50_ms", &latencies, 50.0),
        ("estimate_p90_ms", &latencies, 90.0),
        ("est_err_p50", errors, 50.0),
        ("est_err_p90", errors, 90.0),
    ] {
        e2e.push((
            metric,
            percentile_or_fail(samples, pct, metric, &mut failures),
        ));
    }

    // the human-readable report; the JSON result is the last line
    println!(
        "abwe-benchmark {name}: seed {} | {} repetitions ({} traced) | {workers} exec workers | fingerprint {:016x}",
        args.seed,
        reps.len(),
        traced.len(),
        first.fingerprint.value()
    );
    let e2e: BTreeMap<&str, f64> = e2e.into_iter().collect();
    for (metric, unit) in END_TO_END {
        println!("  {metric:<18} {:>14.6} {unit}", e2e[metric]);
    }
    let walls: Vec<String> = reps
        .iter()
        .map(|(t, r)| format!("{:.4}{}", r.wall_s, if *t { "t" } else { "" }))
        .collect();
    println!("  wall_s by repetition (t = traced): {}", walls.join(" "));
    let tail = |n: usize| highest_supported(n).map_or("none".to_string(), |p| format!("p{p}"));
    println!(
        "  estimates: {} latency samples (highest supported percentile {}), {} error samples (highest {}); a percentile needs {MIN_BEYOND} samples beyond it",
        latencies.len(),
        tail(latencies.len()),
        errors.len(),
        tail(errors.len())
    );
    println!(
        "  failed_frac        {:>14.6} ratio ({} of {} items)",
        tally.failed_frac().unwrap_or(f64::NAN),
        tally.failed,
        tally.attempted
    );
    for f in &failures {
        println!("  CHECK FAILED: {f}");
    }

    let mut metrics = String::new();
    let mut w = ObjectWriter::new(&mut metrics);
    if args.trace && !traced.is_empty() {
        let layers: Vec<BTreeMap<String, f64>> =
            traced.iter().map(|r| layer_metrics(r, workers)).collect();
        let traced_wall = med(&traced, &|r| r.wall_s);
        let mut merged: BTreeMap<String, f64> = BTreeMap::new();
        for key in layers[0].keys() {
            let values: Vec<f64> = layers.iter().map(|l| l[key]).collect();
            merged.insert(key.clone(), median(&values));
        }
        merged.insert("obs.trace_overhead_frac".into(), traced_wall / wall_s - 1.0);
        println!(
            "  per-layer (median of {} traced repetitions, traced wall_s {traced_wall:.6}):",
            traced.len()
        );
        for (metric, value) in &merged {
            println!("    {metric:<34} {value:>16.6} {}", layer_unit(metric));
            push_metric(&mut w, metric, *value, layer_unit(metric));
        }
    } else if !args.trace {
        for (metric, unit) in END_TO_END {
            push_metric(&mut w, metric, e2e[metric], unit);
        }
    }
    w.finish();

    let correct = failures.is_empty();
    let mut out = String::new();
    let mut o = ObjectWriter::new(&mut out);
    o.bool("correct", correct)
        .u64("attempted", tally.attempted)
        .u64("failed", tally.failed)
        .raw("metrics", &metrics);
    o.finish();
    println!("{out}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
