//! Serving-runtime smoke benchmark: compiles four zoo models once, drives
//! one serving workload over a fleet of simulated chips, checks the
//! workload's gates, and appends its labelled records to
//! `BENCH_chip_sim.json` at the repository root.
//!
//! Usage:
//! `cargo run --release -p aim-bench --bin serve_smoke [-- --label <name>]
//!  [--backend cycle-accurate|analytical]
//!  [--mode offline|online|fleet|dag|global|hyperscale] [--check-regression]
//!  [--requests <n>]`
//!
//! Every mode is one row of [`MODES`]: a function that runs the workload and
//! returns a [`Run`] — its records as ordered key/value lists, its gates as
//! `(passed, error message)` pairs, and its regression-gated field.
//! [`finish`] is the one harness all modes share: it stamps each record with
//! `label`/`unix_time_s`/`host_threads`, prints it exactly as it is
//! appended, then checks the gates in order and exits nonzero on the first
//! failure.
//!
//! * `offline` (default): a bursty trace through the offline `serve`
//!   wrapper.  With `--backend analytical` the same fleet is also served
//!   analytically and gated on drift within the calibrated error bound and
//!   a ≥ 10× replay speedup over the cycle-accurate fleet.
//! * `online`: the event-driven `ServeSession` on an interleaved mixed-SLO
//!   trace, gated on the session batcher dominating the offline
//!   `form_groups` scan.
//! * `fleet`: a 2-shard [`FleetSession`] through a chip death, a
//!   degradation episode and elastic scaling, gated on conservation,
//!   failover firing and (analytical leg) the calibration loop's teeth.
//! * `dag`: point requests and multi-stage DAGs through the
//!   [`DagOrchestrator`], gated on stage conservation and priority
//!   inheritance beating an inheritance-off control on the tail p99.
//! * `global`: a two-region [`GlobalRouter`] through a region loss, a flash
//!   crowd and a failback, gated on conservation across the loss and
//!   migration firing.
//! * `hyperscale`: a million-request diurnal trace (`--requests` overrides)
//!   streamed off [`TraceStream`] into a 64-shard × 4-chip analytical fleet
//!   under faults, gated on conservation, byte-identical reports across
//!   worker count and stepping granularity, and peak RSS (`VmHWM`) under a
//!   ceiling independent of the request count.
//!
//! Every mode also gates determinism: repeated runs must serialise to the
//! same bytes.  With `--check-regression` the binary compares its *virtual*
//! throughput (requests per second of simulated chip time — deterministic
//! and machine-independent) against the last trajectory record that ran the
//! same number of requests, and exits nonzero on a >20 % regression.
//! Wall-clock figures are recorded but never gated across machines.

use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use aim_bench::{append_bench_record, last_bench_value, REQUEST_COUNT_KEYS};
use aim_core::pipeline::{AimConfig, CompiledPlan};
use aim_serve::prelude::*;
use aim_serve::scheduler::form_groups;
use serde::{Serialize, Value};
use workloads::inputs::{synthetic_trace, ArrivalShape, SloMix, TraceStream, TrafficConfig};
use workloads::zoo::Model;

/// One trajectory record: `(key, value)` pairs in output order.
type Record = Vec<(String, Value)>;

/// Builds a [`Record`], serialising each value through the serde shim.
macro_rules! record {
    ($($key:literal => $value:expr),* $(,)?) => {
        vec![$(($key.to_string(), Serialize::to_value(&$value))),*]
    };
}

/// Builds a mode's gate list: `passed => error message` pairs.
macro_rules! gates {
    ($($passed:expr => $message:expr),* $(,)?) => {
        vec![$(($passed, String::from($message))),*]
    };
}

/// What one mode hands the shared harness.
struct Run {
    /// Records to append, in order.
    records: Vec<Record>,
    /// `(passed, error message)`, checked in order.
    gates: Vec<(bool, String)>,
    /// The virtual-throughput field `--check-regression` gates on the
    /// cycle-accurate and the analytical leg.  Field names are disjoint per
    /// backend, so each CI matrix leg gates against its own history.
    gated_fields: [&'static str; 2],
}

/// The parsed command line.
struct Cli {
    label: String,
    backend: BackendKind,
    check_regression: bool,
    /// Request count of the hyperscale trace (`--requests`).
    requests: usize,
}

/// A mode: runs its workload and hands back records and gates.
type Mode = fn(&Cli) -> Run;

/// `--mode` name → the workload it runs.
const MODES: [(&str, Mode); 6] = [
    ("offline", offline),
    ("online", online),
    ("fleet", fleet),
    ("dag", dag),
    ("global", global),
    ("hyperscale", hyperscale),
];

const REPS: usize = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let backend = match flag("--backend") {
        None | Some("cycle-accurate") => BackendKind::CycleAccurate,
        Some("analytical") => BackendKind::Analytical,
        Some(other) => {
            eprintln!("error: unknown --backend {other} (use cycle-accurate|analytical)");
            return ExitCode::FAILURE;
        }
    };
    let mode = flag("--mode").unwrap_or("offline");
    let Some(&(_, run_mode)) = MODES.iter().find(|(name, _)| *name == mode) else {
        let names: Vec<&str> = MODES.iter().map(|(name, _)| *name).collect();
        eprintln!("error: unknown --mode {mode} (use {})", names.join("|"));
        return ExitCode::FAILURE;
    };
    let cli = Cli {
        label: flag("--label").unwrap_or("run").to_string(),
        backend,
        check_regression: args.iter().any(|a| a == "--check-regression"),
        requests: flag("--requests")
            .and_then(|v| v.parse().ok())
            .unwrap_or(HYPER_REQUESTS),
    };
    finish(&cli, mode, run_mode(&cli))
}

/// The harness every mode shares: stamps, prints and appends each record,
/// then checks the mode's gates in order and — with `--check-regression` —
/// the gated field against the last record of the same request count.
fn finish(cli: &Cli, mode: &str, run: Run) -> ExitCode {
    let field = per_backend(cli.backend, run.gated_fields[0], run.gated_fields[1]);
    // The gated figure and this run's request count come from the record
    // that carries the gated field.
    let gated = run.records.iter().find_map(|record| {
        let value = |key: &str| record.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let &Value::Float(current) = value(field)? else {
            return None;
        };
        let requests = REQUEST_COUNT_KEYS
            .iter()
            .find_map(|key| match value(key)? {
                &Value::UInt(n) => usize::try_from(n).ok(),
                _ => None,
            })?;
        Some((current, requests))
    });
    // Read the trajectory *before* appending this run's records.
    let previous = gated.and_then(|(_, requests)| last_bench_value(field, requests));

    println!("serve_smoke [{}] --mode {mode}", cli.label);
    let stamp = record! {
        "label" => cli.label,
        "unix_time_s" => SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        "host_threads" => std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
    };
    for fields in run.records {
        let record = Value::Object(stamp.iter().cloned().chain(fields).collect());
        println!(
            "{}",
            serde_json::to_string_pretty(&record).expect("the JSON shim writer never fails")
        );
        append_bench_record(&record);
    }

    if let Some((_, message)) = run.gates.iter().find(|(passed, _)| !passed) {
        eprintln!("error: {message}");
        return ExitCode::FAILURE;
    }
    if cli.check_regression {
        // The gate compares *virtual* throughput — a pure function of the
        // scheduler and the simulated fleet, byte-identical across hosts —
        // so a slower CI runner cannot trip it and a faster one cannot mask
        // a real scheduling regression.
        match (gated, previous) {
            (Some((current, _)), Some(prev)) if current < 0.8 * prev => {
                eprintln!(
                    "error: {field} regressed >20 %: {current:.0} req/s vs previous {prev:.0} req/s"
                );
                return ExitCode::FAILURE;
            }
            (Some((current, _)), Some(prev)) => println!(
                "  regression check   : ok ({field} {current:.0} req/s >= 80 % of previous {prev:.0} req/s)"
            ),
            _ => println!("  regression check   : no previous {field} record, baseline established"),
        }
    }
    ExitCode::SUCCESS
}

/// Runs one session `REPS` times.  Returns the last rep's report, the best
/// wall time (ms), and whether every rep's report serialised to the same
/// bytes.
fn replay<R: Serialize>(mut session: impl FnMut() -> R) -> (R, f64, bool) {
    let mut wall_ms = f64::INFINITY;
    let mut bytes = Vec::with_capacity(REPS);
    let mut report = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let rep = session();
        wall_ms = wall_ms.min(ms_since(start));
        bytes.push(json(&rep));
        report = Some(rep);
    }
    let deterministic = bytes.windows(2).all(|pair| pair[0] == pair[1]);
    (report.expect("REPS >= 1"), wall_ms, deterministic)
}

fn json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("the JSON shim writer never fails")
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Virtual microseconds at the 1 GHz nominal clock.
fn us(cycles: u64) -> f64 {
    cycles as f64 / 1e3
}

/// The value of `backend`'s CI matrix leg.
fn per_backend<T>(backend: BackendKind, cycle_accurate: T, analytical: T) -> T {
    match backend {
        BackendKind::CycleAccurate => cycle_accurate,
        BackendKind::Analytical => analytical,
    }
}

/// A class's SLO attainment row; classes without traffic attain fully.
fn attainment(rows: &[ClassAttainment], class: SloClass) -> f64 {
    rows.iter()
        .find(|c| c.class == class)
        .map_or(1.0, |c| c.attainment)
}

/// The served zoo on `base` silicon (global mode compiles it once per region
/// hardware tier): per-model operator strides keep the one-time compile cost
/// in the seconds range while preserving each model's operator mix.
fn compile_zoo(base: AimConfig) -> Vec<CompiledPlan> {
    let quick = |stride: usize| AimConfig {
        operator_stride: Some(stride),
        cycles_per_slice: 150,
        mapping: aim_core::mapping::MappingStrategy::Sequential,
        ..base
    };
    let zoo: Vec<(Model, AimConfig)> = vec![
        (Model::resnet18(), quick(5)),
        (Model::mobilenet_v2(), quick(7)),
        (Model::vit_base(), quick(7)),
        (Model::gpt2(), quick(7)),
    ];
    use rayon::prelude::*;
    zoo.par_iter()
        .map(|(model, config)| CompiledPlan::compile(model, config))
        .collect()
}

/// Mixed-SLO traffic: 20 % latency-sensitive, 30 % best-effort.
const MIXED: SloMix = SloMix::Mixed {
    latency_share: 0.2,
    best_effort_share: 0.3,
};

/// A 192-request bursty trace over `models` models.
fn bursty_trace(
    models: usize,
    mean_interarrival_cycles: f64,
    burst_repeat_prob: f64,
    slo_mix: SloMix,
    seed: u64,
) -> Vec<TraceRequest> {
    synthetic_trace(&TrafficConfig {
        requests: 192,
        models,
        mean_interarrival_cycles,
        burst_repeat_prob,
        deadline_slack_cycles: 2_000_000,
        shape: ArrivalShape::BurstyExponential,
        slo_mix,
        seed,
    })
}

/// The fleet-mode trace: the online scenario's interleaved mixed-SLO
/// traffic, denser so the chaos strikes a loaded fleet.
fn fleet_trace(models: usize) -> Vec<TraceRequest> {
    bursty_trace(models, 1_200.0, 0.3, MIXED, 0xF1EE5)
}

fn serve_config(chips: usize) -> ServeConfig {
    ServeConfig::builder()
        .chips(chips)
        .max_batch(8)
        .batch_window_cycles(30_000)
        .reload_cycles_per_slice(64)
        .dispatch(DispatchPolicy::LeastLoaded)
        .admission(None)
        .parallel(true)
        .seed(0xC0FFEE)
        .build()
}

fn offline(cli: &Cli) -> Run {
    let compile_start = Instant::now();
    let plans = compile_zoo(AimConfig::full_low_power());
    let compile_ms = ms_since(compile_start);
    let models = plans.len();

    let config = serve_config(8);
    let runtime = ServeRuntime::from_plans(plans.clone(), config);
    let trace = bursty_trace(models, 3_000.0, 0.65, SloMix::AllStandard, 0x77ACE);
    let (report, wall_ms, deterministic) = replay(|| runtime.serve(&trace));

    let mean_utilization = if report.per_chip.is_empty() {
        0.0
    } else {
        report.per_chip.iter().map(|c| c.utilization).sum::<f64>() / report.per_chip.len() as f64
    };
    let mut run = Run {
        records: vec![record! {
            "serve_models" => models,
            "serve_chips" => report.chips,
            "serve_requests" => report.total_requests,
            "serve_compile_ms" => compile_ms,
            "serve_wall_ms" => wall_ms,
            // Trajectory info only: wall clock is machine-dependent.
            "serve_wall_rps" => report.served_requests as f64 / (wall_ms / 1e3),
            "serve_virtual_rps" => report.throughput_rps,
            "serve_p50_us" => us(report.latency_p50_cycles),
            "serve_p95_us" => us(report.latency_p95_cycles),
            "serve_p99_us" => us(report.latency_p99_cycles),
            "serve_mean_batch" => report.mean_batch_size,
            "serve_mean_utilization" => mean_utilization,
            "serve_deadline_misses" => report.deadline_misses,
            "serve_rejected" => report.rejected_requests,
            "serve_deterministic" => deterministic,
        }],
        gates: gates![deterministic => "repeated replays diverged — determinism contract broken"],
        gated_fields: ["serve_virtual_rps", "serve_ana_virtual_rps"],
    };
    if cli.backend == BackendKind::CycleAccurate {
        return run;
    }

    // The timed analytical fleet runs verification-free: that is the
    // production fast path (every replay a cached calibrated prediction),
    // and it keeps the speedup gate independent of how well the host
    // parallelises the verification replays.  A separate untimed run with
    // sampled verification on supplies the drift-vs-bound figures.
    let ana_config = ServeConfig {
        backend: BackendKind::Analytical,
        audit_chips: 0,
        verify_every: 0,
        ..config
    };
    let calibrate_start = Instant::now();
    let ana_runtime = ServeRuntime::from_plans(plans.clone(), ana_config);
    let calibrate_ms = ms_since(calibrate_start);
    let (ana_report, ana_wall_ms, ana_deterministic) = replay(|| ana_runtime.serve(&trace));
    let verification = ServeRuntime::from_plans(
        plans,
        ServeConfig {
            verify_every: 16,
            ..ana_config
        },
    )
    .serve(&trace)
    .verification
    .expect("analytical fleet reports verification stats");
    let speedup = wall_ms / ana_wall_ms;

    // Field names are disjoint from the cycle-accurate record so each
    // backend gates against its own history.
    run.records.push(record! {
        "serve_ana_chips" => ana_report.chips,
        "serve_ana_requests" => ana_report.total_requests,
        "serve_ana_calibrate_ms" => calibrate_ms,
        "serve_ana_wall_ms" => ana_wall_ms,
        // The cycle-accurate replay of the same trace on the same fleet:
        // the speedup baseline.
        "serve_ana_baseline_wall_ms" => wall_ms,
        "serve_ana_speedup" => speedup,
        "serve_ana_virtual_rps" => ana_report.throughput_rps,
        "serve_ana_verified_groups" => verification.sampled,
        "serve_ana_drift_mean" => verification.mean_cycle_drift,
        "serve_ana_drift_max" => verification.max_cycle_drift,
        "serve_ana_error_bound" => verification.error_bound,
        "serve_ana_within_bound" => verification.within_bound,
        "serve_ana_deterministic" => ana_deterministic,
    });
    run.gates.extend(gates![
        ana_deterministic => "analytical replays diverged — determinism contract broken",
        verification.within_bound => format!(
            "sampled verification drift {:.4} exceeds the calibrated bound {:.4}",
            verification.max_cycle_drift, verification.error_bound
        ),
        speedup >= 10.0 => format!(
            "analytical replay speedup {speedup:.1}x below the 10x target \
             ({ana_wall_ms:.1} ms vs {wall_ms:.1} ms)"
        ),
    ]);
    run
}

fn online(cli: &Cli) -> Run {
    let backend = cli.backend;
    let plans = compile_zoo(AimConfig::full_low_power());
    let models = plans.len();
    let config = ServeConfig {
        backend,
        ..serve_config(8)
    };
    let runtime = ServeRuntime::from_plans(plans, config);
    // Fully interleaved mixed-SLO traffic: with no burst repeats,
    // consecutive same-model runs are rare, so the offline consecutive-only
    // scan barely batches — exactly the gap the session's per-model pending
    // queues close.
    let trace = bursty_trace(models, 3_000.0, 0.0, MIXED, 0x0511E);

    // The offline consecutive-only scan is the batching baseline the
    // session's per-model queues must dominate.
    let offline_groups = form_groups(&trace, config.max_batch, config.batch_window_cycles);
    let offline_mean_batch = trace.len() as f64 / offline_groups.len() as f64;

    // Submissions in arrival order, a `run_until` + `poll_completions` step
    // every 16 requests (streaming completed work out mid-trace), then a
    // final drain.
    let mut streamed = 0usize;
    let (report, wall_ms, repeatable) = replay(|| {
        let mut session = runtime.session();
        streamed = 0;
        for (i, request) in trace.iter().enumerate() {
            session.submit(*request);
            if i % 16 == 15 {
                session.run_until(request.arrival_cycles);
                streamed += session.poll_completions().len();
            }
        }
        session.drain()
    });
    // Determinism covers both repeat runs *and* equivalence with the
    // offline wrapper (`serve` = submit-all-then-drain through the same
    // session machinery).
    let deterministic = repeatable && json(&runtime.serve(&trace)) == json(&report);

    let class_stats = |class: SloClass| {
        report
            .per_class
            .iter()
            .find(|c| c.class == class)
            .copied()
            .expect("report carries every class row")
    };
    let ls = class_stats(SloClass::LatencySensitive);
    let standard = class_stats(SloClass::Standard);
    let be = class_stats(SloClass::BestEffort);
    let cycle_accurate = backend == BackendKind::CycleAccurate;
    Run {
        records: vec![record! {
            "serve_online_backend" => backend.name(),
            "serve_online_chips" => report.chips,
            "serve_online_requests" => report.total_requests,
            "serve_online_wall_ms" => wall_ms,
            "serve_online_virtual_rps" => cycle_accurate.then_some(report.throughput_rps),
            "serve_online_ana_virtual_rps" => (!cycle_accurate).then_some(report.throughput_rps),
            "serve_online_mean_batch" => report.mean_batch_size,
            "serve_online_offline_scan_mean_batch" => offline_mean_batch,
            // Outcomes that streamed out of `poll_completions` before the
            // final drain.
            "serve_online_streamed_before_drain" => streamed,
            "serve_online_p50_us" => us(report.latency_p50_cycles),
            "serve_online_p99_us" => us(report.latency_p99_cycles),
            "serve_online_p99_latency_sensitive_us" => us(ls.latency_p99_cycles),
            "serve_online_p99_standard_us" => us(standard.latency_p99_cycles),
            "serve_online_p99_best_effort_us" => us(be.latency_p99_cycles),
            "serve_online_latency_sensitive_requests" => ls.total,
            "serve_online_best_effort_requests" => be.total,
            "serve_online_deadline_misses" => report.deadline_misses,
            "serve_online_rejected" => report.rejected_requests,
            "serve_online_deterministic" => deterministic,
        }],
        gates: gates![
            deterministic => "online session replays diverged from each other or from serve() — \
                              determinism contract broken",
            report.mean_batch_size + 1e-9 >= offline_mean_batch => format!(
                "online batcher ({:.2}) fell below the offline consecutive scan ({:.2})",
                report.mean_batch_size, offline_mean_batch
            ),
            report.mean_batch_size > 1.0 => format!(
                "interleaved trace did not batch (mean {:.2}) — the per-model queues regressed",
                report.mean_batch_size
            ),
        ],
        gated_fields: ["serve_online_virtual_rps", "serve_online_ana_virtual_rps"],
    }
}

/// The fleet-mode chaos: one chip death mid-burst plus one
/// degradation/recovery episode, against a 2-shard fleet with elastic
/// scaling — the production failure drill, deterministic end to end.
fn fleet_faults() -> FaultPlan {
    chip_drill([80_000, 160_000, 320_000])
}

/// Shard 0 loses chip 1, then shard 1's chip 0 runs 75 % slow until it
/// recovers, at the given cycles.
fn chip_drill([death, degradation, recovery]: [u64; 3]) -> FaultPlan {
    fault_plan([
        (death, FaultKind::ChipDeath { shard: 0, chip: 1 }),
        (
            degradation,
            FaultKind::Degradation {
                shard: 1,
                chip: 0,
                slowdown_percent: 75,
            },
        ),
        (recovery, FaultKind::Recovery { shard: 1, chip: 0 }),
    ])
}

fn fault_plan(events: impl IntoIterator<Item = (u64, FaultKind)>) -> FaultPlan {
    FaultPlan::new(
        events
            .into_iter()
            .map(|(at_cycles, kind)| FaultEvent { at_cycles, kind })
            .collect(),
    )
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        shards: 2,
        shard_policy: ShardPolicy::RoundRobin,
        initial_workers: 2,
        scaling: Some(ScalingConfig {
            check_interval_cycles: 20_000,
            scale_up_backlog_cycles: 120_000,
            scale_down_backlog_cycles: 12_000,
            ..ScalingConfig::default()
        }),
    }
}

/// One chaos-drill session: submits `trace`, drains, and returns the report
/// with the number of outcomes streamed out.
fn fleet_drill(runtime: &ServeRuntime, trace: &[TraceRequest]) -> (FleetReport, usize) {
    let mut fleet = FleetSession::new(runtime, fleet_config(), fleet_faults());
    for request in trace {
        fleet.submit(*request);
    }
    let report = fleet.drain();
    (report, fleet.poll_completions().len())
}

fn fleet(cli: &Cli) -> Run {
    let backend = cli.backend;
    let analytical = backend == BackendKind::Analytical;
    let plans = compile_zoo(AimConfig::full_low_power());
    let models = plans.len();
    // The analytical fleet carries sampled verification *in-band* (every
    // 8th analytical group replayed cycle-accurately) — the compile-once
    // template and fused kernel made those audit replays cheap enough to
    // spend inside the timed chaos session.  It also closes the calibration
    // loop: the verification replays double as drift sensors, and an honest
    // fleet must come out with zero demotions (a demotion here means health
    // derates or chaos were misread as model drift).  Cycle-accurate fleets
    // have nothing to verify.
    let config = ServeConfig {
        backend,
        chips: 4,
        verify_every: per_backend(backend, 0, 8),
        calibration: analytical.then(CalibrationLoopConfig::default),
        ..serve_config(4)
    };
    let runtime = ServeRuntime::from_plans(plans.clone(), config);
    let trace = fleet_trace(models);

    let mut conserved = true;
    let (report, wall_ms, deterministic) = replay(|| {
        let (report, outcomes) = fleet_drill(&runtime, &trace);
        conserved &= outcomes == trace.len()
            && report.serve.total_requests == trace.len()
            && report.serve.served_requests + report.serve.rejected_requests
                == report.serve.total_requests;
        report
    });

    // Untimed demotion drill (analytical leg only): replay the same chaos
    // session with model 0's calibration deliberately distorted 1.6x under
    // an aggressive loop config.  The loop must demote the lying model —
    // and, because recalibration folds the lie into the online multiplier,
    // promote it back once adjusted predictions return within bound.  Runs
    // outside the timed reps so it never pollutes the throughput gate.
    let drill = analytical.then(|| {
        let drill_config = ServeConfig {
            verify_every: 4,
            calibration: Some(
                CalibrationLoopConfig::builder()
                    .ewma_decay(0.5)
                    .demote_streak(1)
                    .promote_streak(2)
                    .build(),
            ),
            ..config
        };
        let mut drill_runtime = ServeRuntime::from_plans(plans, drill_config);
        drill_runtime.distort_model_calibration(0, 1.6);
        fleet_drill(&drill_runtime, &trace)
            .0
            .serve
            .calibration
            .expect("the drill leg runs with the calibration loop on")
    });

    let availability = &report.availability;
    let verification = report.serve.verification.as_ref();
    let calibration = report.serve.calibration.as_ref();
    let within_bound = verification.map(|v| v.within_bound);
    let drift_max = verification.map(|v| v.max_cycle_drift);
    let error_bound = verification.map(|v| v.error_bound);
    let demotions = calibration.map(|c| c.demotions);
    let attained = |class| attainment(&availability.per_class_slo_attainment, class);
    Run {
        records: vec![record! {
            "serve_fleet_backend" => backend.name(),
            "serve_fleet_shards" => availability.shards,
            "serve_fleet_chips_per_shard" => config.chips,
            "serve_fleet_requests" => report.serve.total_requests,
            "serve_fleet_wall_ms" => wall_ms,
            "serve_fleet_virtual_rps" => (!analytical).then_some(report.serve.throughput_rps),
            "serve_fleet_ana_virtual_rps" => analytical.then_some(report.serve.throughput_rps),
            "serve_fleet_chip_deaths" => availability.chip_deaths,
            "serve_fleet_degradations" => availability.degradations,
            "serve_fleet_requests_failed_over" => availability.requests_failed_over,
            "serve_fleet_chip_seconds_lost" => availability.chip_seconds_lost,
            "serve_fleet_scale_ups" => availability.scale_ups,
            "serve_fleet_scale_downs" => availability.scale_downs,
            "serve_fleet_peak_workers" => availability.peak_workers,
            "serve_fleet_attainment_latency_sensitive" => attained(SloClass::LatencySensitive),
            "serve_fleet_attainment_standard" => attained(SloClass::Standard),
            "serve_fleet_attainment_best_effort" => attained(SloClass::BestEffort),
            "serve_fleet_conserved" => conserved,
            "serve_fleet_deterministic" => deterministic,
            "serve_fleet_verify_every" => config.verify_every,
            "serve_fleet_verified_groups" => verification.map(|v| v.sampled),
            "serve_fleet_drift_max" => drift_max,
            "serve_fleet_error_bound" => error_bound,
            "serve_fleet_within_bound" => within_bound,
            "serve_recal_samples" => calibration.map(|c| c.samples),
            "serve_recal_recalibrations" => calibration.map(|c| c.recalibrations),
            "serve_recal_demotions" => demotions,
            "serve_recal_drill_demotions" => drill.as_ref().map(|c| c.demotions),
            "serve_recal_drill_promotions" => drill.as_ref().map(|c| c.promotions),
            "serve_recal_drill_recalibrations" => drill.as_ref().map(|c| c.recalibrations),
        }],
        gates: gates![
            conserved => "chaos lost or duplicated requests — conservation contract broken",
            deterministic => "fleet replays diverged — determinism contract broken",
            availability.requests_failed_over > 0 =>
                "the scripted chip death failed over no requests — the drill lost its teeth",
            within_bound != Some(false) => format!(
                "in-fleet sampled verification drift {drift_max:?} exceeds the calibrated bound \
                 {error_bound:?}"
            ),
            demotions.is_none_or(|d| d == 0) => format!(
                "the honest fleet demoted {} model(s) — health derates or chaos were misread as \
                 calibration drift",
                demotions.unwrap_or(0)
            ),
            drill.as_ref().is_none_or(|c| c.demotions > 0) =>
                "the 1.6x mis-calibrated model was never demoted — the drift loop lost its teeth",
            drill.as_ref().is_none_or(|c| c.promotions > 0) =>
                "the demoted model never healed back — recalibration failed to fold the lie into \
                 the online multiplier",
        ],
        gated_fields: ["serve_fleet_virtual_rps", "serve_fleet_ana_virtual_rps"],
    }
}

/// The DAG-mode session workload: a heavy standard/best-effort point
/// backlog with a *minority* of requests upgrading into multi-stage DAGs
/// (cascades, ensembles, think-gap conversations).  Keeping DAGs a
/// minority is what gives the inheritance gate teeth: a promoted upstream
/// stage jumps a large lower-class backlog instead of merely reshuffling
/// an all-latency-sensitive queue.
fn dag_session(models: usize) -> SessionConfig {
    SessionConfig {
        traffic: TrafficConfig {
            requests: 160,
            models,
            mean_interarrival_cycles: 1_000.0,
            burst_repeat_prob: 0.3,
            deadline_slack_cycles: 2_000_000,
            shape: ArrivalShape::BurstyExponential,
            slo_mix: SloMix::Mixed {
                latency_share: 0.05,
                best_effort_share: 0.35,
            },
            seed: 0xDA65,
        },
        users: 8,
        dag_share: 0.25,
        templates: standard_templates(models),
        dag_deadline_slack_cycles: 3_000_000,
    }
}

/// Runs the orchestrated session once; returns the drained report and the
/// streamed stage outcomes.
fn run_dag_session(
    runtime: &ServeRuntime,
    session: &SessionConfig,
    items: &[SessionItem],
    inherit_priority: bool,
) -> (FleetReport, Vec<StageOutcome>) {
    let mut orch = DagOrchestrator::new(
        runtime,
        FleetConfig {
            scaling: None,
            ..fleet_config()
        },
        // A chip dies between the stages of in-flight cascades, then a
        // degradation/recovery episode on the other shard.
        chip_drill([30_000, 90_000, 200_000]),
        session.templates.clone(),
        DagOrchestratorConfig {
            inherit_priority,
            admission: None,
        },
    );
    for item in items {
        orch.submit_item(item);
    }
    let report = orch.drain();
    (report, orch.poll_outcomes())
}

/// p99 (virtual µs) of latency-sensitive tail-stage completion measured
/// from each DAG's arrival — the figure priority inheritance protects.
/// Tail stages are each template's last stage when pinned
/// latency-sensitive (the cascade's classify, the ensemble's vote), and
/// the population is restricted to DAGs whose *own* class sits below
/// latency-sensitive: those are exactly the instances whose upstream
/// stages would crawl at standard/best-effort priority without
/// inheritance, starving the pinned tail.
fn dag_tail_p99_us(items: &[SessionItem], outcomes: &[StageOutcome]) -> f64 {
    let mut tails: Vec<u64> = outcomes
        .iter()
        .filter(|o| o.dag && o.stage + 1 == o.stages && o.class == SloClass::LatencySensitive)
        .filter_map(|o| match (&items[o.item].kind, o.status) {
            (
                SessionItemKind::Dag(dag),
                StageStatus::Fleet {
                    status: CompletionStatus::Served { finish_cycles, .. },
                    ..
                },
            ) if dag.slo != SloClass::LatencySensitive => {
                Some(finish_cycles.saturating_sub(dag.arrival_cycles))
            }
            _ => None,
        })
        .collect();
    tails.sort_unstable();
    if tails.is_empty() {
        return 0.0;
    }
    us(tails[(tails.len() - 1) * 99 / 100])
}

fn dag(cli: &Cli) -> Run {
    let backend = cli.backend;
    let plans = compile_zoo(AimConfig::full_low_power());
    let models = plans.len();
    // Same in-band verification cadence as the fleet mode: sampled
    // cycle-accurate audits on the analytical leg, nothing to verify on
    // the cycle-accurate one.
    let config = ServeConfig {
        backend,
        chips: 4,
        verify_every: per_backend(backend, 0, 8),
        ..serve_config(4)
    };
    let runtime = ServeRuntime::from_plans(plans, config);
    let session = dag_session(models);
    let items = workloads::dag::session_items(&session);
    let stages_expected: usize = items
        .iter()
        .map(|i| match &i.kind {
            SessionItemKind::Point(_) => 1,
            SessionItemKind::Dag(d) => d.stage_gaps.len(),
        })
        .sum();

    let mut conserved = true;
    let mut outcomes = Vec::new();
    let (report, wall_ms, deterministic) = replay(|| {
        let (report, rep_outcomes) = run_dag_session(&runtime, &session, &items, true);
        let dag = report
            .dag
            .as_ref()
            .expect("orchestrated drains carry DAG stats");
        conserved &= rep_outcomes.len() == stages_expected
            && dag.completed + dag.failed == dag.dags
            && dag.stages_served + dag.stages_rejected + dag.stages_shed == dag.stages_total
            && report.serve.total_requests == dag.points + dag.stages_served + dag.stages_rejected;
        outcomes = rep_outcomes;
        report
    });
    let dag = report
        .dag
        .as_ref()
        .expect("orchestrated drains carry DAG stats");

    // The inheritance-off control: same items, same chaos, promotions
    // disabled — the teeth gate compares latency-sensitive tail-stage p99.
    let (_, control_outcomes) = run_dag_session(&runtime, &session, &items, false);
    let tail_p99_us = dag_tail_p99_us(&items, &outcomes);
    let tail_p99_no_inherit_us = dag_tail_p99_us(&items, &control_outcomes);
    let cycle_accurate = backend == BackendKind::CycleAccurate;
    Run {
        records: vec![record! {
            "serve_dag_backend" => backend.name(),
            // Fleet-level submissions (points + submitted stages).
            "serve_dag_requests" => report.serve.total_requests,
            "serve_dag_dags" => dag.dags,
            "serve_dag_points" => dag.points,
            "serve_dag_stages" => dag.stages_total,
            "serve_dag_wall_ms" => wall_ms,
            "serve_dag_virtual_rps" => cycle_accurate.then_some(report.serve.throughput_rps),
            "serve_dag_ana_virtual_rps" => (!cycle_accurate).then_some(report.serve.throughput_rps),
            "serve_dag_completed" => dag.completed,
            "serve_dag_failed" => dag.failed,
            "serve_dag_deadline_misses" => dag.deadline_misses,
            "serve_dag_e2e_p99_us" => us(dag.e2e_p99_cycles),
            "serve_dag_inherited_promotions" => dag.inherited_promotions,
            "serve_dag_tail_p99_us" => tail_p99_us,
            "serve_dag_tail_p99_no_inherit_us" => tail_p99_no_inherit_us,
            "serve_dag_conserved" => conserved,
            "serve_dag_deterministic" => deterministic,
        }],
        gates: gates![
            conserved => "a DAG stage was lost or double-resolved — conservation contract broken",
            deterministic => "orchestrated replays diverged — determinism contract broken",
            dag.inherited_promotions > 0 =>
                "no upstream stage was promoted — inheritance never engaged",
            tail_p99_us < tail_p99_no_inherit_us => format!(
                "priority inheritance failed to protect the latency-sensitive tail: \
                 p99 {tail_p99_us:.0} us with inheritance vs {tail_p99_no_inherit_us:.0} us without"
            ),
        ],
        gated_fields: ["serve_dag_virtual_rps", "serve_dag_ana_virtual_rps"],
    }
}

/// The global-mode chaos: the low-power region dies mid-burst and recovers
/// much later, with a best-effort flash crowd landing while the fleet is a
/// region short — migration, retries and graceful degradation all live.
fn global_faults() -> RegionFaultPlan {
    let flash_crowd = RegionFaultKind::FlashCrowd {
        model: 1,
        requests: 64,
        mean_gap_cycles: 400,
    };
    RegionFaultPlan::new(
        [
            (80_000, RegionFaultKind::RegionOutage { region: 0 }),
            (120_000, flash_crowd),
            (200_000, RegionFaultKind::RegionRecovery { region: 0 }),
        ]
        .map(|(at_cycles, kind)| RegionFaultEvent { at_cycles, kind })
        .to_vec(),
    )
}

fn global_config() -> GlobalConfig {
    GlobalConfig {
        route: RoutePolicy::LeastBacklog,
        retry: RetryConfig {
            max_attempts: 4,
            backoff_base_cycles: 20_000,
            backoff_multiplier: 2,
        },
        shed: ShedPolicy {
            backlog_ceiling_cycles: [400_000, u64::MAX, u64::MAX],
        },
        suspect_grace_cycles: 5_000,
        recovery_warmup_cycles: 10_000,
        class_weights: [1, 2, 4],
    }
}

fn global(cli: &Cli) -> Run {
    let backend = cli.backend;
    // Two heterogeneous regions over the same four-model zoo: the low-power
    // silicon serves the baseline, the sprint silicon absorbs the failover.
    let low_plans = compile_zoo(AimConfig::full_low_power());
    let sprint_plans = compile_zoo(AimConfig::full_sprint());
    let models = low_plans.len();
    let config = ServeConfig {
        backend,
        chips: 4,
        ..serve_config(4)
    };
    let low_runtime = ServeRuntime::from_plans(low_plans, config);
    let sprint_runtime = ServeRuntime::from_plans(sprint_plans, config);
    let resident: Vec<usize> = (0..models).collect();
    let faults = global_faults();
    let trace = with_flash_crowds(&fleet_trace(models), &faults, 2_000_000, 0xF1EE5);
    let region = |name: &str, runtime| RegionSpec {
        name: name.to_string(),
        runtime,
        fleet: fleet_config(),
        faults: FaultPlan::none(),
        models: resident.clone(),
    };

    let mut conserved = true;
    let (report, wall_ms, deterministic) = replay(|| {
        let specs = vec![
            region("lowpower-west", &low_runtime),
            region("sprint-east", &sprint_runtime),
        ];
        let mut router = GlobalRouter::new(specs, models, global_config(), faults.clone());
        for request in &trace {
            router.submit(*request);
        }
        let report = router.drain();
        let summary = &report.summary;
        conserved &= router.poll_completions().len() == trace.len()
            && summary.total_requests == trace.len()
            && summary.served_requests + summary.rejected_requests + summary.shed_requests
                == summary.total_requests;
        report
    });

    let availability = &report.availability;
    let attained = |class| attainment(&availability.per_class_outage_attainment, class);
    let cycle_accurate = backend == BackendKind::CycleAccurate;
    Run {
        records: vec![record! {
            "serve_global_backend" => backend.name(),
            "serve_global_regions" => availability.regions,
            "serve_global_models" => models,
            "serve_global_requests" => report.summary.total_requests,
            "serve_global_wall_ms" => wall_ms,
            "serve_global_virtual_rps" => cycle_accurate.then_some(report.summary.throughput_rps),
            "serve_global_ana_virtual_rps" => (!cycle_accurate).then_some(report.summary.throughput_rps),
            "serve_global_outages" => availability.outages,
            "serve_global_recoveries" => availability.recoveries,
            "serve_global_requests_migrated" => availability.requests_migrated,
            "serve_global_migration_events" => availability.migration_events,
            "serve_global_retries_scheduled" => availability.retries_scheduled,
            "serve_global_requests_shed" => availability.requests_shed,
            "serve_global_region_seconds_lost" => availability.region_seconds_lost,
            // Attainment of requests arriving inside the outage window — the
            // measured degradation cost of losing a region.
            "serve_global_outage_attainment_latency_sensitive" => attained(SloClass::LatencySensitive),
            "serve_global_outage_attainment_standard" => attained(SloClass::Standard),
            "serve_global_outage_attainment_best_effort" => attained(SloClass::BestEffort),
            "serve_global_conserved" => conserved,
            "serve_global_deterministic" => deterministic,
        }],
        gates: gates![
            conserved => "region loss lost or duplicated requests — conservation contract broken",
            deterministic => "global replays diverged — determinism contract broken",
            availability.migration_events > 0 =>
                "the scripted region outage migrated no requests — the drill lost its teeth",
        ],
        gated_fields: ["serve_global_virtual_rps", "serve_global_ana_virtual_rps"],
    }
}

/// Hyperscale fleet shape: 64 shards of 4 analytical chips = 256 chips.
const HYPER_SHARDS: usize = 64;
const HYPER_CHIPS_PER_SHARD: usize = 4;
/// Default (and CI) request count: one million.
const HYPER_REQUESTS: usize = 1_000_000;
/// Peak-RSS ceiling of the hyperscale run, MiB.  The bound is a property of
/// the *fleet shape*, not the trace length: the trace streams off the
/// generator, latency pools are fixed-size sketches, served session state
/// retires as it resolves, and the completion buffer is capped — doubling
/// the request count must not move the peak.  Documented in PERF.md.
const HYPER_RSS_CEILING_MIB: f64 = 512.0;

fn hyper_traffic(requests: usize) -> TrafficConfig {
    // ~60 cycles mean inter-arrival over a million requests spans a
    // ~6e7-cycle virtual horizon; three diurnal waves fit inside it and
    // the fleet runs hot enough (crest rate 1.6x) that queues build and
    // chip deaths catch in-flight work.
    TrafficConfig {
        requests,
        models: 4,
        mean_interarrival_cycles: 60.0,
        burst_repeat_prob: 0.35,
        deadline_slack_cycles: 4_000_000,
        shape: ArrivalShape::DiurnalWave {
            period_cycles: 20_000_000,
            amplitude: 0.6,
        },
        slo_mix: MIXED,
        seed: 0x44E52,
    }
}

/// Faults and scaling stay live at hyperscale: two chip deaths and one
/// degradation/recovery episode spread across the diurnal horizon.
fn hyper_faults() -> FaultPlan {
    fault_plan([
        (
            8_000_000,
            FaultKind::Degradation {
                shard: 17,
                chip: 0,
                slowdown_percent: 60,
            },
        ),
        // Both deaths land on diurnal crests (period/4 + k*period), where
        // the killed chip is most likely to hold in-flight work to orphan.
        (25_000_000, FaultKind::ChipDeath { shard: 3, chip: 1 }),
        (30_000_000, FaultKind::Recovery { shard: 17, chip: 0 }),
        (45_000_000, FaultKind::ChipDeath { shard: 40, chip: 2 }),
    ])
}

fn hyper_fleet_config() -> FleetConfig {
    FleetConfig {
        shards: HYPER_SHARDS,
        shard_policy: ShardPolicy::RoundRobin,
        initial_workers: 3,
        scaling: Some(ScalingConfig {
            check_interval_cycles: 2_000_000,
            scale_up_backlog_cycles: 400_000,
            scale_down_backlog_cycles: 40_000,
            ..ScalingConfig::default()
        }),
    }
}

/// One streamed hyperscale session: requests submitted straight off the
/// [`TraceStream`] (never materialised), outcomes polled every
/// `poll_every` submissions, `run_until` optionally stepped at arrival
/// midpoints (`fine_steps`) to vary the stepping granularity.  Returns the
/// report, outcomes streamed mid-run, outcomes dropped, and wall ms.
fn run_hyperscale_session(
    runtime: &ServeRuntime,
    traffic: &TrafficConfig,
    poll_every: usize,
    fine_steps: bool,
) -> (FleetReport, usize, u64, f64) {
    let start = Instant::now();
    let mut fleet = FleetSession::new(runtime, hyper_fleet_config(), hyper_faults());
    let mut streamed = 0usize;
    let mut previous_arrival = 0u64;
    for (i, request) in TraceStream::new(traffic).enumerate() {
        if fine_steps {
            // Step to the midpoint between consecutive arrivals first: a
            // different run_until granularity that must not move a byte.
            fleet.run_until(previous_arrival.midpoint(request.arrival_cycles));
            previous_arrival = request.arrival_cycles;
        }
        fleet.submit(request);
        if i % poll_every == poll_every - 1 {
            streamed += fleet.poll_completions().len();
        }
    }
    let report = fleet.drain();
    let wall_ms = ms_since(start);
    streamed += fleet.poll_completions().len();
    (report, streamed, fleet.completions_dropped(), wall_ms)
}

/// Peak resident set (`VmHWM`) of this process in MiB, when the platform
/// exposes it.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn hyperscale(cli: &Cli) -> Run {
    let requests = cli.requests;
    let plans = compile_zoo(AimConfig::full_low_power());
    let traffic = hyper_traffic(requests);
    // A small completion cap keeps the streamed-outcome buffer bounded
    // between polls; the drained report still accounts every request.
    // Sparse in-band verification (every 512th group, per-shard) feeds the
    // calibration loop across the million-request horizon.  The chaos here
    // is health events on an honestly calibrated zoo, so the loop must log
    // drift samples and recalibration points yet demote nothing.
    let base_config = ServeConfig {
        backend: BackendKind::Analytical,
        audit_chips: 0,
        verify_every: 512,
        calibration: Some(CalibrationLoopConfig::default()),
        completion_capacity: 4_096,
        ..serve_config(HYPER_CHIPS_PER_SHARD)
    };
    let runtime = ServeRuntime::from_plans(plans.clone(), base_config);

    // Leg A: parallel workers, coarse stepping (submissions drive time).
    let (report, streamed, dropped, wall_ms) =
        run_hyperscale_session(&runtime, &traffic, 4_096, false);

    // Leg B: sequential workers, fine-grained stepping — the determinism
    // cross-check demanded at hyperscale: report bytes must not depend on
    // the worker count or the run_until granularity.
    let seq_runtime = ServeRuntime::from_plans(
        plans,
        ServeConfig {
            parallel: false,
            ..base_config
        },
    );
    let (seq_report, _, _, _) = run_hyperscale_session(&seq_runtime, &traffic, 10_007, true);
    let deterministic = json(&report) == json(&seq_report);

    // served + rejected == submitted, and streamed + dropped covers every
    // outcome.
    let conserved = report.serve.total_requests == requests
        && report.serve.served_requests + report.serve.rejected_requests
            == report.serve.total_requests
        && streamed as u64 + dropped == requests as u64;
    let peak_rss = peak_rss_mib();
    // The zoo is honestly calibrated and the chaos is health events, not
    // model drift — so demotions must stay 0 (the false-alarm gate).
    let calibration = report.serve.calibration.as_ref();
    let demotions = calibration.map(|c| c.demotions);
    Run {
        records: vec![record! {
            "serve_hyper_shards" => HYPER_SHARDS,
            "serve_hyper_chips" => HYPER_SHARDS * HYPER_CHIPS_PER_SHARD,
            "serve_hyper_requests" => report.serve.total_requests,
            // Submission through drain of the parallel session; the CI wall
            // ceiling watches the whole process instead.
            "serve_hyper_wall_ms" => wall_ms,
            "serve_hyper_virtual_rps" => report.serve.throughput_rps,
            "serve_hyper_peak_rss_mib" => peak_rss,
            "serve_hyper_completions_dropped" => dropped,
            "serve_hyper_streamed" => streamed,
            "serve_hyper_p50_us" => us(report.serve.latency_p50_cycles),
            "serve_hyper_p99_us" => us(report.serve.latency_p99_cycles),
            "serve_hyper_mean_batch" => report.serve.mean_batch_size,
            "serve_hyper_deadline_misses" => report.serve.deadline_misses,
            "serve_hyper_rejected" => report.serve.rejected_requests,
            "serve_hyper_requests_failed_over" => report.availability.requests_failed_over,
            "serve_hyper_scale_ups" => report.availability.scale_ups,
            "serve_hyper_scale_downs" => report.availability.scale_downs,
            "serve_hyper_conserved" => conserved,
            "serve_hyper_deterministic" => deterministic,
            "serve_hyper_recal_samples" => calibration.map(|c| c.samples),
            "serve_hyper_recalibrations" => calibration.map(|c| c.recalibrations),
            "serve_hyper_spurious_demotions" => demotions,
        }],
        gates: gates![
            conserved => "hyperscale run lost or duplicated requests — conservation contract broken",
            deterministic => "parallel coarse-stepped and sequential fine-stepped reports diverged \
                              — determinism contract broken at hyperscale",
            peak_rss.is_none_or(|mib| mib <= HYPER_RSS_CEILING_MIB) => format!(
                "peak RSS {:.0} MiB exceeds the {HYPER_RSS_CEILING_MIB:.0} MiB hyperscale ceiling \
                 — memory grew with the request count",
                peak_rss.unwrap_or_default()
            ),
            demotions.is_none_or(|d| d == 0) => format!(
                "{} spurious demotion(s) on an honestly calibrated trace — degradation chaos \
                 leaked into the drift signal",
                demotions.unwrap_or(0)
            ),
        ],
        gated_fields: ["serve_hyper_virtual_rps"; 2],
    }
}
