//! The four benchmark workloads, driven through the public APIs of
//! `workloads`, `aim-core` and `aim-serve`, with the conservation ledger
//! that checks every run.
//!
//! Every repetition builds its runtime afresh (plan compilation plus
//! analytical calibration), so no flip-bank or chip-template cache carries
//! over from an earlier repetition; that construction is the set-up time.

use std::time::Instant;

use aim_core::mapping::MappingStrategy;
use aim_core::pipeline::{AimConfig, CompiledPlan};
use aim_serve::{
    DagOrchestrator, DagOrchestratorConfig, DispatchPolicy, FleetConfig, FleetReport, FleetSession,
    GlobalConfig, GlobalReport, GlobalRouter, RegionSpec, RetryConfig, RoutePolicy, ScalingConfig,
    ServeConfig, ServeRuntime, ShardPolicy, ShedPolicy,
};
use pim_sim::backend::{BackendKind, CalibrationLoopConfig};
use workloads::dag::{standard_templates, SessionConfig, SessionItemKind, SessionStream};
use workloads::inputs::{
    with_flash_crowds, ArrivalShape, FaultEvent, FaultKind, FaultPlan, RegionFaultEvent,
    RegionFaultKind, RegionFaultPlan, SloMix, TraceRequest, TraceStream, TrafficConfig,
};
use workloads::zoo::Model;

use crate::spans::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HyperVerify,
    HyperLean,
    RegionsCycle,
    DagSessions,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HyperVerify,
        Workload::HyperLean,
        Workload::RegionsCycle,
        Workload::DagSessions,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HyperVerify => "hyper_verify",
            Workload::HyperLean => "hyper_lean",
            Workload::RegionsCycle => "regions_cycle",
            Workload::DagSessions => "dag_sessions",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Steps per run: each step submits one block of
    /// `ceil(operations / steps)` operations.
    ///
    /// hyper_verify steps more finely because every shard samples the same
    /// group indices for verification, so replays arrive in three bursts
    /// covering about 6% of the session.  At 128 steps the bursts fill
    /// about 15 steps and the tail percentile (12 steps beyond it) sits on
    /// the edge between burst and quiet steps, jumping from seed to seed;
    /// at 256 it falls inside the bursts.  Finer still costs harness time:
    /// with two shim threads, 1024 steps made the session 40% longer.
    /// regions_cycle keeps about eight requests per step: with fewer, a
    /// step often executes no group at all, which puts the median on the
    /// edge between empty and busy steps.
    pub fn steps_per_run(self) -> usize {
        match self {
            Workload::HyperVerify => 256,
            Workload::RegionsCycle => 128,
            Workload::HyperLean | Workload::DagSessions => 128,
        }
    }

    /// What one operation is, for the printed output.
    pub fn operation(self) -> &'static str {
        match self {
            Workload::DagSessions => "session items",
            _ => "requests",
        }
    }
}

/// Exact simulated counts of one run, by metric name.  A speed-only change
/// leaves every one of them unchanged.
pub type Counts = Vec<(&'static str, f64)>;

/// Everything one repetition measured.
#[derive(Debug)]
pub struct Rep {
    /// Plan compilation plus runtime construction, seconds.
    pub setup_s: f64,
    /// First step start to the return of `drain`, seconds.
    pub session_s: f64,
    /// Operations submitted.
    pub attempted: u64,
    /// Operations lost or duplicated.
    pub failed: u64,
    /// Host time of each step, ms.
    pub steps_ms: Vec<f64>,
    /// The drained report, serialised.
    pub report: Vec<u8>,
    pub counts: Counts,
}

/// Conservation ledger: each operation owns `stride` outcome slots, of
/// which its first `expected` must each resolve exactly once.
#[derive(Debug)]
pub struct Ledger {
    stride: usize,
    expected: Vec<u8>,
    seen: Vec<u8>,
    stray: u64,
}

impl Ledger {
    pub fn new(stride: usize) -> Self {
        Self {
            stride,
            expected: Vec::new(),
            seen: Vec::new(),
            stray: 0,
        }
    }

    /// Registers the next operation, expecting `outcomes` resolutions.
    pub fn submitted(&mut self, outcomes: usize) {
        assert!(
            (1..=self.stride).contains(&outcomes),
            "outcomes fit the stride"
        );
        self.expected
            .push(u8::try_from(outcomes).expect("stride fits u8"));
        self.seen.resize(self.seen.len() + self.stride, 0);
    }

    /// Records one resolution of slot `slot` of operation `op`.
    pub fn resolved(&mut self, op: usize, slot: usize) {
        if slot < self.stride && op < self.expected.len() {
            let cell = &mut self.seen[op * self.stride + slot];
            *cell = cell.saturating_add(1);
        } else {
            self.stray += 1;
        }
    }

    pub fn attempted(&self) -> u64 {
        self.expected.len() as u64
    }

    /// Operations lost or duplicated.  `unreported` outcomes were dropped
    /// by a bounded outcome buffer (counted, not identified): that many
    /// missing single-outcome operations are excused, never more.
    pub fn failed(&self, unreported: u64) -> u64 {
        let mut missing = 0u64;
        let mut duplicated = 0u64;
        for (op, &expected) in self.expected.iter().enumerate() {
            let slots = &self.seen[op * self.stride..(op + 1) * self.stride];
            let (wanted, extra) = slots.split_at(usize::from(expected));
            if wanted.iter().any(|&n| n > 1) || extra.iter().any(|&n| n > 0) {
                duplicated += 1;
            } else if wanted.contains(&0) {
                missing += 1;
            }
        }
        let excused = if self.stride == 1 {
            unreported.min(missing)
        } else {
            0
        };
        let unexplained_drops = unreported.saturating_sub(missing);
        duplicated + (missing - excused) + unexplained_drops + self.stray
    }
}

/// Served + rejected + shed must equal submitted.
pub fn balances(submitted: usize, served: usize, rejected: usize, shed: usize) -> bool {
    served + rejected + shed == submitted
}

/// Seed of the `instance`-th input drawn from `--seed`.  The runs of an
/// invocation serve different instances (each one twice, to check
/// determinism), so an invocation's medians average over several traces
/// instead of resting on one trace's step structure.
pub fn instance_seed(seed: u64, instance: u64) -> u64 {
    mix(seed, 0x100 + instance)
}

/// splitmix64: decorrelates the per-purpose seeds drawn from `--seed`.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The served zoo under one chip config: per-model operator strides keep
/// the compile in the seconds range while preserving each operator mix.
fn compile_zoo(base: AimConfig) -> Vec<CompiledPlan> {
    use rayon::prelude::*;
    let quick = |stride: usize| AimConfig {
        operator_stride: Some(stride),
        cycles_per_slice: 150,
        mapping: MappingStrategy::Sequential,
        ..base
    };
    let zoo = [
        (Model::resnet18(), quick(5)),
        (Model::mobilenet_v2(), quick(7)),
        (Model::vit_base(), quick(7)),
        (Model::gpt2(), quick(7)),
    ];
    zoo.par_iter()
        .map(|(model, config)| CompiledPlan::compile(model, config))
        .collect()
}

/// The serve seed stays fixed while `--seed` varies the traffic: sampled
/// verification hashes each shard's group index with it, so across the 64
/// hyperscale shards the replay count moves in steps of 64 with this seed.
const SERVE_SEED: u64 = 0xC0FFEE;

fn serve_config() -> ServeConfig {
    ServeConfig::builder()
        .chips(4)
        .max_batch(8)
        .batch_window_cycles(30_000)
        .reload_cycles_per_slice(64)
        .dispatch(DispatchPolicy::LeastLoaded)
        .seed(SERVE_SEED)
        .build()
}

/// Runs `build` as the `setup` span; returns what it built and the
/// seconds it took.
fn setup<R>(tracer: &mut Tracer, build: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
    let start = Instant::now();
    let open = tracer.begin("setup");
    let built = build(tracer);
    tracer.end(open);
    (built, start.elapsed().as_secs_f64())
}

/// Compiles the zoo and builds its runtime.
fn build_runtime(tracer: &mut Tracer, aim: AimConfig, config: ServeConfig) -> ServeRuntime {
    let plans = tracer.call("aim-core.compile", || compile_zoo(aim));
    tracer.call("aim-serve.runtime.build", || {
        ServeRuntime::from_plans(plans, config)
    })
}

fn block_len(operations: usize, steps: usize) -> usize {
    operations.div_ceil(steps).max(1)
}

fn elapsed_ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

fn serialize<T: serde::Serialize>(tracer: &mut Tracer, report: &T) -> Vec<u8> {
    tracer
        .call("aim-serve.report.serialize", || {
            serde_json::to_string(report)
        })
        .expect("reports serialise")
        .into_bytes()
}

pub fn run(workload: Workload, seed: u64, tracer: &mut Tracer) -> Rep {
    let steps = workload.steps_per_run();
    match workload {
        Workload::HyperVerify => hyperscale(seed, 200_000, true, steps, tracer),
        Workload::HyperLean => hyperscale(seed, 2_000_000, false, steps, tracer),
        Workload::RegionsCycle => regions(seed, steps, tracer),
        Workload::DagSessions => dag_sessions(seed, steps, tracer),
    }
}

// ---------------------------------------------------------------- hyperscale

const HYPER_MEAN_GAP: f64 = 60.0;

/// Diurnal traffic whose three rate waves span the whole horizon at any
/// request count, so both hyperscale workloads share one trace shape.
fn hyper_traffic(seed: u64, requests: usize) -> TrafficConfig {
    let horizon = requests as f64 * HYPER_MEAN_GAP;
    TrafficConfig {
        requests,
        models: 4,
        mean_interarrival_cycles: HYPER_MEAN_GAP,
        burst_repeat_prob: 0.35,
        deadline_slack_cycles: 4_000_000,
        shape: ArrivalShape::DiurnalWave {
            period_cycles: (horizon / 3.0) as u64,
            amplitude: 0.6,
        },
        slo_mix: SloMix::Mixed {
            latency_share: 0.2,
            best_effort_share: 0.3,
        },
        seed: mix(seed, 1),
    }
}

/// Two chip deaths on diurnal crests and one degradation episode, placed
/// at fixed fractions of the horizon.
fn hyper_faults(requests: usize) -> FaultPlan {
    let at = |fraction: f64| (requests as f64 * HYPER_MEAN_GAP * fraction) as u64;
    FaultPlan::new(vec![
        FaultEvent {
            at_cycles: at(0.13),
            kind: FaultKind::Degradation {
                shard: 17,
                chip: 0,
                slowdown_percent: 60,
            },
        },
        FaultEvent {
            at_cycles: at(5.0 / 12.0),
            kind: FaultKind::ChipDeath { shard: 3, chip: 1 },
        },
        FaultEvent {
            at_cycles: at(0.5),
            kind: FaultKind::Recovery { shard: 17, chip: 0 },
        },
        FaultEvent {
            at_cycles: at(0.75),
            kind: FaultKind::ChipDeath { shard: 40, chip: 2 },
        },
    ])
}

fn hyper_fleet(requests: usize) -> FleetConfig {
    FleetConfig {
        shards: 64,
        shard_policy: ShardPolicy::RoundRobin,
        initial_workers: 3,
        scaling: Some(ScalingConfig {
            check_interval_cycles: (requests as f64 * HYPER_MEAN_GAP / 30.0) as u64,
            scale_up_backlog_cycles: 400_000,
            scale_down_backlog_cycles: 40_000,
            min_workers: 1,
            max_workers: 0,
            class_weights: [1, 2, 4],
        }),
    }
}

fn hyperscale(seed: u64, requests: usize, verify: bool, steps: usize, tracer: &mut Tracer) -> Rep {
    let config = ServeConfig {
        backend: BackendKind::Analytical,
        verify_every: if verify { 512 } else { 0 },
        calibration: verify.then(CalibrationLoopConfig::default),
        completion_capacity: 4_096,
        ..serve_config()
    };
    let (runtime, setup_s) = setup(tracer, |t| {
        build_runtime(t, AimConfig::full_low_power(), config)
    });

    let mut fleet = FleetSession::new(&runtime, hyper_fleet(requests), hyper_faults(requests));
    let mut stream = TraceStream::new(&hyper_traffic(seed, requests));
    let mut ledger = Ledger::new(1);
    let mut steps_ms = Vec::with_capacity(steps);
    let block = block_len(requests, steps);
    let session = Instant::now();
    let open_session = tracer.begin("session");
    while stream.remaining() > 0 {
        let step = Instant::now();
        let open = tracer.begin("step");
        let batch: Vec<TraceRequest> = tracer.call("workloads.trace_gen", || {
            stream.by_ref().take(block).collect()
        });
        let last_arrival = batch.last().map_or(0, |r| r.arrival_cycles);
        for request in batch {
            ledger.submitted(1);
            tracer.call("aim-serve.fleet.submit", || fleet.submit(request));
        }
        tracer.call("aim-serve.fleet.run_until", || {
            fleet.run_until(last_arrival)
        });
        for done in tracer.call("aim-serve.fleet.poll", || fleet.poll_completions()) {
            ledger.resolved(done.outcome.request, 0);
        }
        tracer.end(open);
        steps_ms.push(elapsed_ms(step));
    }
    let report = tracer.call("aim-serve.fleet.drain", || fleet.drain());
    tracer.end(open_session);
    let session_s = session.elapsed().as_secs_f64();
    for done in tracer.call("aim-serve.fleet.poll", || fleet.poll_completions()) {
        ledger.resolved(done.outcome.request, 0);
    }
    let bytes = serialize(tracer, &report);

    let serve = &report.serve;
    let mut failed = ledger.failed(fleet.completions_dropped());
    if serve.total_requests != requests
        || !balances(
            serve.total_requests,
            serve.served_requests,
            serve.rejected_requests,
            0,
        )
    {
        failed = ledger.attempted();
    }
    Rep {
        setup_s,
        session_s,
        attempted: ledger.attempted(),
        failed,
        steps_ms,
        report: bytes,
        counts: fleet_counts(&[&report], [0, 0, 0]),
    }
}

/// Counts of one or more fleets (the regions of a global run), plus the
/// global layer's `[migrated, retries, shed]`.
fn fleet_counts(fleets: &[&FleetReport], global: [usize; 3]) -> Counts {
    // Integer sums: an empty float sum would read -0.
    let sum = |f: &dyn Fn(&FleetReport) -> u64| fleets.iter().map(|r| f(r)).sum::<u64>() as f64;
    let groups = sum(&|r| r.serve.groups_executed as u64);
    let batched: f64 = fleets
        .iter()
        .map(|r| r.serve.mean_batch_size * r.serve.groups_executed as f64)
        .sum();
    let dag = fleets.iter().find_map(|r| r.dag.as_ref());
    let dag_count = |f: &dyn Fn(&aim_serve::DagServeStats) -> usize| dag.map_or(0, f) as f64;
    vec![
        ("aim-serve.session.groups_executed", groups),
        (
            "aim-serve.session.mean_batch",
            if groups > 0.0 { batched / groups } else { 0.0 },
        ),
        (
            "aim-serve.session.served",
            sum(&|r| r.serve.served_requests as u64),
        ),
        (
            "aim-serve.session.rejected",
            sum(&|r| r.serve.rejected_requests as u64),
        ),
        (
            "aim-serve.session.deadline_misses",
            sum(&|r| r.serve.deadline_misses as u64),
        ),
        (
            "aim-serve.fleet.failed_over",
            sum(&|r| r.availability.requests_failed_over as u64),
        ),
        (
            "aim-serve.fleet.scale_ups",
            sum(&|r| r.availability.scale_ups as u64),
        ),
        (
            "aim-serve.fleet.scale_downs",
            sum(&|r| r.availability.scale_downs as u64),
        ),
        ("aim-serve.global.migrated", global[0] as f64),
        ("aim-serve.global.retries", global[1] as f64),
        ("aim-serve.global.shed", global[2] as f64),
        (
            "aim-serve.dag.stages_served",
            dag_count(&|d| d.stages_served),
        ),
        (
            "aim-serve.dag.inherited_promotions",
            dag_count(&|d| d.inherited_promotions),
        ),
        (
            "pim-sim.verify_replays",
            sum(&|r| r.serve.verification.map_or(0, |v| v.sampled as u64)),
        ),
        (
            "aim-serve.calibration.recalibrations",
            sum(&|r| r.serve.calibration.as_ref().map_or(0, |c| c.recalibrations)),
        ),
        (
            "pim-sim.simulated_cycles",
            sum(&|r| r.serve.simulated_cycles),
        ),
    ]
}

// ------------------------------------------------------------------- regions

fn region_fleet() -> FleetConfig {
    FleetConfig {
        shards: 2,
        shard_policy: ShardPolicy::RoundRobin,
        initial_workers: 2,
        scaling: Some(ScalingConfig {
            check_interval_cycles: 20_000,
            scale_up_backlog_cycles: 120_000,
            scale_down_backlog_cycles: 12_000,
            min_workers: 1,
            max_workers: 0,
            class_weights: [1, 2, 4],
        }),
    }
}

/// The low-power region dies mid-burst and recovers late, with a
/// best-effort flash crowd landing while the deployment is a region short.
fn region_faults() -> RegionFaultPlan {
    RegionFaultPlan::new(vec![
        RegionFaultEvent {
            at_cycles: 80_000,
            kind: RegionFaultKind::RegionOutage { region: 0 },
        },
        RegionFaultEvent {
            at_cycles: 120_000,
            kind: RegionFaultKind::FlashCrowd {
                model: 1,
                requests: 64,
                mean_gap_cycles: 400,
            },
        },
        RegionFaultEvent {
            at_cycles: 200_000,
            kind: RegionFaultKind::RegionRecovery { region: 0 },
        },
    ])
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

fn regions(seed: u64, steps: usize, tracer: &mut Tracer) -> Rep {
    let config = ServeConfig {
        backend: BackendKind::CycleAccurate,
        ..serve_config()
    };
    let ((west, east), setup_s) = setup(tracer, |t| {
        (
            build_runtime(t, AimConfig::full_low_power(), config),
            build_runtime(t, AimConfig::full_sprint(), config),
        )
    });

    let models = west.plans().len();
    let region = |name: &str, runtime| RegionSpec {
        name: name.to_string(),
        runtime,
        fleet: region_fleet(),
        faults: FaultPlan::none(),
        models: (0..models).collect(),
    };
    let faults = region_faults();
    let mut router = GlobalRouter::new(
        vec![region("lowpower-west", &west), region("sprint-east", &east)],
        models,
        global_config(),
        faults.clone(),
    );
    // Poisson arrivals draw each model independently: with bursty
    // per-model runs the model mix, and so the kernel work, of a 500-request
    // trace swung by 20% from seed to seed.  At 500 requests the tail of 64
    // steps still moved by 30% (IQR over ten seeds); 1000 requests in 128
    // steps halve that.
    let traffic = TrafficConfig {
        requests: 936,
        models,
        mean_interarrival_cycles: 1_200.0,
        burst_repeat_prob: 0.0,
        deadline_slack_cycles: 2_000_000,
        shape: ArrivalShape::Poisson,
        slo_mix: SloMix::Mixed {
            latency_share: 0.2,
            best_effort_share: 0.3,
        },
        seed: mix(seed, 1),
    };
    let mut ledger = Ledger::new(1);
    let mut steps_ms = Vec::with_capacity(steps);
    let session = Instant::now();
    let open_session = tracer.begin("session");
    // The flash crowd has to be merged into the trace, so this trace is
    // generated whole rather than streamed.
    let trace = tracer.call("workloads.trace_gen", || {
        let base: Vec<TraceRequest> = TraceStream::new(&traffic).collect();
        with_flash_crowds(&base, &faults, 2_000_000, mix(seed, 3))
    });
    for chunk in trace.chunks(block_len(trace.len(), steps)) {
        let step = Instant::now();
        let open = tracer.begin("step");
        for &request in chunk {
            ledger.submitted(1);
            tracer.call("aim-serve.global.submit", || router.submit(request));
        }
        let last_arrival = chunk.last().map_or(0, |r| r.arrival_cycles);
        tracer.call("aim-serve.global.run_until", || {
            router.run_until(last_arrival)
        });
        for done in tracer.call("aim-serve.global.poll", || router.poll_completions()) {
            ledger.resolved(done.request, 0);
        }
        tracer.end(open);
        steps_ms.push(elapsed_ms(step));
    }
    let report: GlobalReport = tracer.call("aim-serve.global.drain", || router.drain());
    tracer.end(open_session);
    let session_s = session.elapsed().as_secs_f64();
    for done in tracer.call("aim-serve.global.poll", || router.poll_completions()) {
        ledger.resolved(done.request, 0);
    }
    let bytes = serialize(tracer, &report);

    let summary = &report.summary;
    let mut failed = ledger.failed(0);
    if summary.total_requests != trace.len()
        || !balances(
            summary.total_requests,
            summary.served_requests,
            summary.rejected_requests,
            summary.shed_requests,
        )
    {
        failed = ledger.attempted();
    }
    let availability = &report.availability;
    let fleets: Vec<&FleetReport> = report.regions.iter().map(|r| &r.fleet).collect();
    Rep {
        setup_s,
        session_s,
        attempted: ledger.attempted(),
        failed,
        steps_ms,
        report: bytes,
        counts: fleet_counts(
            &fleets,
            [
                availability.requests_migrated,
                availability.retries_scheduled,
                availability.requests_shed,
            ],
        ),
    }
}

// ---------------------------------------------------------------------- dags

/// Most stages any standard template has (the fan-out/join ensemble).
const MAX_STAGES: usize = 4;

/// A chip dies between the stages of in-flight cascades, then a
/// degradation/recovery episode on the other shard.
fn dag_faults() -> FaultPlan {
    FaultPlan::new(vec![
        FaultEvent {
            at_cycles: 30_000,
            kind: FaultKind::ChipDeath { shard: 0, chip: 1 },
        },
        FaultEvent {
            at_cycles: 90_000,
            kind: FaultKind::Degradation {
                shard: 1,
                chip: 0,
                slowdown_percent: 75,
            },
        },
        FaultEvent {
            at_cycles: 200_000,
            kind: FaultKind::Recovery { shard: 1, chip: 0 },
        },
    ])
}

fn dag_sessions(seed: u64, steps: usize, tracer: &mut Tracer) -> Rep {
    let config = ServeConfig {
        backend: BackendKind::Analytical,
        ..serve_config()
    };
    let (runtime, setup_s) = setup(tracer, |t| {
        build_runtime(t, AimConfig::full_low_power(), config)
    });

    let models = runtime.plans().len();
    let items = 60_000;
    let session_config = SessionConfig {
        traffic: TrafficConfig {
            requests: items,
            models,
            mean_interarrival_cycles: 1_000.0,
            burst_repeat_prob: 0.3,
            deadline_slack_cycles: 2_000_000,
            shape: ArrivalShape::BurstyExponential,
            slo_mix: SloMix::Mixed {
                latency_share: 0.05,
                best_effort_share: 0.35,
            },
            seed: mix(seed, 1),
        },
        users: 8,
        dag_share: 0.25,
        templates: standard_templates(models),
        dag_deadline_slack_cycles: 3_000_000,
    };
    assert!(session_config
        .templates
        .iter()
        .all(|t| t.len() <= MAX_STAGES));
    let mut orchestrator = DagOrchestrator::new(
        &runtime,
        FleetConfig {
            shards: 2,
            shard_policy: ShardPolicy::RoundRobin,
            initial_workers: 2,
            scaling: None,
        },
        dag_faults(),
        session_config.templates.clone(),
        DagOrchestratorConfig::default(),
    );
    let mut stream = SessionStream::new(&session_config);
    let mut ledger = Ledger::new(MAX_STAGES);
    let mut steps_ms = Vec::with_capacity(steps);
    let block = block_len(items, steps);
    let session = Instant::now();
    let open_session = tracer.begin("session");
    while stream.remaining() > 0 {
        let step = Instant::now();
        let open = tracer.begin("step");
        let chunk: Vec<_> = tracer.call("workloads.trace_gen", || {
            stream.by_ref().take(block).collect()
        });
        let last_arrival = chunk.last().map_or(0, |item| item.arrival_cycles());
        for item in &chunk {
            ledger.submitted(match &item.kind {
                SessionItemKind::Point(_) => 1,
                SessionItemKind::Dag(dag) => dag.stage_gaps.len(),
            });
            tracer.call("aim-serve.dag.submit", || orchestrator.submit_item(item));
        }
        tracer.call("aim-serve.dag.run_until", || {
            orchestrator.run_until(last_arrival)
        });
        for done in tracer.call("aim-serve.dag.poll", || orchestrator.poll_outcomes()) {
            ledger.resolved(done.item, done.stage);
        }
        tracer.end(open);
        steps_ms.push(elapsed_ms(step));
    }
    let report = tracer.call("aim-serve.dag.drain", || orchestrator.drain());
    tracer.end(open_session);
    let session_s = session.elapsed().as_secs_f64();
    for done in tracer.call("aim-serve.dag.poll", || orchestrator.poll_outcomes()) {
        ledger.resolved(done.item, done.stage);
    }
    let bytes = serialize(tracer, &report);

    let mut failed = ledger.failed(0);
    let dag = report.dag.as_ref();
    let ledger_balances = dag.is_some_and(|d| {
        d.points + d.dags == items
            && d.completed + d.failed == d.dags
            && balances(
                d.stages_total,
                d.stages_served,
                d.stages_rejected,
                d.stages_shed,
            )
            && report.serve.total_requests == d.points + d.stages_served + d.stages_rejected
    });
    if !ledger_balances {
        failed = ledger.attempted();
    }
    Rep {
        setup_s,
        session_s,
        attempted: ledger.attempted(),
        failed,
        steps_ms,
        report: bytes,
        counts: fleet_counts(&[&report], [0, 0, 0]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_ledger_has_no_failures() {
        let mut ledger = Ledger::new(4);
        ledger.submitted(1);
        ledger.submitted(3);
        ledger.resolved(0, 0);
        for stage in 0..3 {
            ledger.resolved(1, stage);
        }
        assert_eq!(ledger.attempted(), 2);
        assert_eq!(ledger.failed(0), 0);
    }

    #[test]
    fn lost_and_duplicated_operations_fail() {
        let mut ledger = Ledger::new(4);
        for stages in [1, 3, 2, 2] {
            ledger.submitted(stages);
        }
        ledger.resolved(0, 0);
        ledger.resolved(0, 0); // op 0 duplicated
        ledger.resolved(1, 0); // op 1 loses stages 1 and 2
        ledger.resolved(2, 0);
        ledger.resolved(2, 1);
        ledger.resolved(2, 2); // op 2 resolves a stage it does not have
        ledger.resolved(3, 0);
        ledger.resolved(3, 1); // op 3 clean
        assert_eq!(ledger.failed(0), 3);
        // An outcome for an operation never submitted is a failure too.
        ledger.resolved(9, 0);
        assert_eq!(ledger.failed(0), 4);
    }

    #[test]
    fn dropped_outcomes_excuse_only_as_many_missing_requests() {
        let mut ledger = Ledger::new(1);
        for _ in 0..5 {
            ledger.submitted(1);
        }
        ledger.resolved(0, 0);
        ledger.resolved(1, 0);
        ledger.resolved(2, 0);
        // Two outcomes missing and the buffer reports two dropped: clean.
        assert_eq!(ledger.failed(2), 0);
        // Reporting one dropped leaves one unexplained loss.
        assert_eq!(ledger.failed(1), 1);
        // Claiming more drops than are missing is itself a breach.
        assert_eq!(ledger.failed(3), 1);
    }

    #[test]
    fn balance_rule() {
        assert!(balances(10, 7, 2, 1));
        assert!(!balances(10, 7, 2, 0));
        assert!(!balances(10, 8, 2, 1));
    }

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
