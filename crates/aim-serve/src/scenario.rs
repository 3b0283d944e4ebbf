//! The named chaos-scenario catalogue, FoundationDB-simulation style: each
//! scenario is plain data — a traffic shape, a fleet shape and a fault
//! schedule — and running one is a pure function of that data, so whole
//! fleet runs freeze as golden files under
//! `crates/aim-serve/tests/goldens/` and re-verify byte for byte on every
//! checkout, worker count and execution backend.
//!
//! Three scenarios are frozen:
//!
//! * **`steady-state`** — mixed-SLO bursty traffic, no faults, elastic
//!   scaling live: the control run that pins the scaling hysteresis.
//! * **`chip-death-at-peak`** — diurnal-wave traffic with two chips dying
//!   near the first wave crest, while scaling fights the lost capacity:
//!   pins failover (requeue, exactly-once, availability ledger).
//! * **`rolling-degradation`** — a degradation wave sweeping chip to chip
//!   (degrade → recover → next chip), one chip left degraded at drain:
//!   pins the [`ChipHealth`](pim_sim::backend::ChipHealth) derate under
//!   both backends and the fractional capacity-loss accounting.
//!
//! Together the fault plans cover every
//! [`workloads::inputs::FaultKind`] variant — a coverage test
//! keeps that true as variants are added.
//!
//! A second, **multi-region** catalogue ([`global_all`]) freezes whole
//! [`GlobalRouter`] runs the same way — heterogeneous regions (low-power vs
//! sprint silicon), scripted region outages/recoveries/flash crowds — and
//! covers every [`workloads::inputs::RegionFaultKind`]
//! variant:
//!
//! * **`region-outage-at-peak`** — a region dies at the traffic crest and
//!   never returns: pins eviction-migration, and chip-level failover inside
//!   the surviving region.
//! * **`cross-region-failback`** — the sole holder of a model goes down,
//!   its traffic waits in the retry queue with virtual-time backoff, and is
//!   served after recovery: pins the retry budget and failback.
//! * **`flash-crowd`** — a best-effort surge on one model overruns the
//!   shed ceilings: pins the per-class shed order (best-effort first).
//!
//! A third, **DAG** catalogue ([`dag_all`]) freezes whole
//! [`crate::dag::DagOrchestrator`] runs — multi-stage
//! request DAGs multiplexed with point traffic:
//!
//! * **`dag-cascade-chip-death`** — chips die *between the stages* of
//!   in-flight cascades: pins the dependency-driven resubmission, the
//!   orphan-stage shed ledger, and priority inheritance under failover.

use aim_core::booster::BoosterConfig;
use aim_core::pipeline::{AimConfig, CompiledPlan};
use pim_sim::backend::{BackendKind, CalibrationLoopConfig};
use workloads::dag::{session_items, standard_templates, SessionConfig};
use workloads::inputs::{
    synthetic_trace, with_flash_crowds, ArrivalShape, FaultEvent, FaultKind, FaultPlan,
    RegionFaultEvent, RegionFaultKind, RegionFaultPlan, SloMix, TrafficConfig,
};
use workloads::zoo::Model;

use crate::dag::{DagOrchestrator, DagOrchestratorConfig};
use crate::fleet::{FleetConfig, FleetReport, FleetSession, ScalingConfig, ShardPolicy};
use crate::global::{
    GlobalConfig, GlobalReport, GlobalRouter, RegionSpec, RetryConfig, RoutePolicy, ShedPolicy,
};
use crate::runtime::{ServeConfig, ServeRuntime};
use crate::scheduler::DispatchPolicy;

/// One frozen chaos scenario: everything a run depends on, as plain data.
#[derive(Debug, Clone)]
pub struct ChaosScenario {
    /// Stable scenario name (doubles as the golden file stem).
    pub name: &'static str,
    /// The synthetic traffic the fleet serves.
    pub traffic: TrafficConfig,
    /// Per-shard serving configuration (the backend field is overridden by
    /// [`Self::run`]).
    pub serve: ServeConfig,
    /// Fleet shape: shards, routing, elasticity.
    pub fleet: FleetConfig,
    /// The fault schedule.
    pub faults: FaultPlan,
}

impl ChaosScenario {
    /// Runs the scenario on `plans` under `backend`, submit-all-then-drain.
    #[must_use]
    pub fn run(&self, plans: Vec<CompiledPlan>, backend: BackendKind) -> FleetReport {
        let runtime = ServeRuntime::from_plans(
            plans,
            ServeConfig {
                backend,
                ..self.serve
            },
        );
        let trace = synthetic_trace(&self.traffic);
        FleetSession::serve_trace(&runtime, self.fleet, self.faults.clone(), &trace)
    }
}

/// The plan set every scenario serves: two small MobileNetV2 variants (the
/// same pair the property suites compile), cheap enough for CI yet
/// exercising real mapped batches under both backends.
#[must_use]
pub fn reference_plans() -> Vec<CompiledPlan> {
    let config = AimConfig {
        cycles_per_slice: 40,
        ..AimConfig::baseline()
    };
    vec![
        CompiledPlan::compile(
            &Model::mobilenet_v2(),
            &AimConfig {
                operator_stride: Some(13),
                ..config
            },
        ),
        CompiledPlan::compile(
            &Model::mobilenet_v2(),
            &AimConfig {
                operator_stride: Some(17),
                ..config
            },
        ),
    ]
}

/// Per-shard serving configuration shared by the scenarios.
fn scenario_serve() -> ServeConfig {
    ServeConfig {
        chips: 3,
        max_batch: 4,
        batch_window_cycles: 10_000,
        reload_cycles_per_slice: 32,
        dispatch: DispatchPolicy::LeastLoaded,
        admission: None,
        backend: BackendKind::CycleAccurate,
        audit_chips: 0,
        verify_every: 0,
        calibration: None,
        parallel: true,
        seed: 0xF1EE7,
        completion_capacity: 0,
    }
}

/// Mixed-SLO traffic shared by the steady-state and degradation scenarios.
fn scenario_traffic(requests: usize, seed: u64) -> TrafficConfig {
    TrafficConfig {
        requests,
        models: 2,
        mean_interarrival_cycles: 1_500.0,
        burst_repeat_prob: 0.55,
        deadline_slack_cycles: 120_000,
        shape: ArrivalShape::BurstyExponential,
        slo_mix: SloMix::Mixed {
            latency_share: 0.2,
            best_effort_share: 0.3,
        },
        seed,
    }
}

/// The frozen scenario catalogue, in golden order.
#[must_use]
pub fn all() -> Vec<ChaosScenario> {
    vec![steady_state(), chip_death_at_peak(), rolling_degradation()]
}

/// Looks a scenario up by name.
#[must_use]
pub fn named(name: &str) -> Option<ChaosScenario> {
    all().into_iter().find(|s| s.name == name)
}

/// Mixed-SLO traffic, no faults, elastic scaling live — the control run.
#[must_use]
pub fn steady_state() -> ChaosScenario {
    ChaosScenario {
        name: "steady-state",
        traffic: TrafficConfig {
            mean_interarrival_cycles: 400.0,
            // One day-night wave: the crest piles backlog onto the single
            // starting worker (scale-up), the trough drains it (scale-down).
            shape: ArrivalShape::DiurnalWave {
                period_cycles: 30_000,
                amplitude: 0.85,
            },
            ..scenario_traffic(96, 0x57EAD)
        },
        serve: scenario_serve(),
        fleet: FleetConfig {
            shards: 2,
            shard_policy: ShardPolicy::RoundRobin,
            initial_workers: 1,
            scaling: Some(ScalingConfig {
                check_interval_cycles: 5_000,
                scale_up_backlog_cycles: 12_000,
                scale_down_backlog_cycles: 2_000,
                min_workers: 1,
                max_workers: 0,
                class_weights: [1, 2, 4],
            }),
        },
        faults: FaultPlan::none(),
    }
}

/// Two chips die near the first crest of a diurnal wave while scaling
/// fights the lost capacity.
#[must_use]
pub fn chip_death_at_peak() -> ChaosScenario {
    ChaosScenario {
        name: "chip-death-at-peak",
        traffic: TrafficConfig {
            requests: 96,
            models: 2,
            mean_interarrival_cycles: 600.0,
            burst_repeat_prob: 0.55,
            deadline_slack_cycles: 150_000,
            shape: ArrivalShape::DiurnalWave {
                period_cycles: 120_000,
                amplitude: 0.8,
            },
            slo_mix: SloMix::Mixed {
                latency_share: 0.2,
                best_effort_share: 0.3,
            },
            seed: 0xDEAD5,
        },
        serve: scenario_serve(),
        fleet: FleetConfig {
            shards: 2,
            shard_policy: ShardPolicy::RoundRobin,
            initial_workers: 0,
            scaling: Some(ScalingConfig {
                check_interval_cycles: 10_000,
                scale_up_backlog_cycles: 60_000,
                scale_down_backlog_cycles: 6_000,
                min_workers: 1,
                max_workers: 0,
                class_weights: [1, 2, 4],
            }),
        },
        // The wave crests around a quarter period (~30k cycles): both
        // deaths strike in the thick of it, one per shard.
        faults: FaultPlan::new(vec![
            FaultEvent {
                at_cycles: 25_000,
                kind: FaultKind::ChipDeath { shard: 0, chip: 1 },
            },
            FaultEvent {
                at_cycles: 35_000,
                kind: FaultKind::ChipDeath { shard: 1, chip: 0 },
            },
        ]),
    }
}

/// A degradation wave sweeps chip to chip; the last chip stays degraded
/// through drain so the open-interval capacity accounting is exercised.
///
/// Sampled verification and the online calibration loop are live here (the
/// analytical golden leg pins their stats): degraded chips are exactly where
/// a health-blind verifier would raise false drift alarms, so this golden
/// doubles as the health-aware-calibration pin.
#[must_use]
pub fn rolling_degradation() -> ChaosScenario {
    let episode = |at: u64, shard: usize, chip: usize, slowdown_percent: u32| FaultEvent {
        at_cycles: at,
        kind: FaultKind::Degradation {
            shard,
            chip,
            slowdown_percent,
        },
    };
    let recover = |at: u64, shard: usize, chip: usize| FaultEvent {
        at_cycles: at,
        kind: FaultKind::Recovery { shard, chip },
    };
    ChaosScenario {
        name: "rolling-degradation",
        traffic: scenario_traffic(80, 0x0DE64),
        serve: ServeConfig {
            verify_every: 4,
            calibration: Some(CalibrationLoopConfig::default()),
            ..scenario_serve()
        },
        fleet: FleetConfig {
            shards: 2,
            shard_policy: ShardPolicy::ByModel,
            initial_workers: 0,
            scaling: None,
        },
        faults: FaultPlan::new(vec![
            episode(15_000, 0, 0, 80),
            recover(45_000, 0, 0),
            episode(45_000, 0, 1, 80),
            recover(75_000, 0, 1),
            episode(60_000, 1, 0, 50),
            recover(90_000, 1, 0),
            // This one never recovers: open at drain.
            episode(90_000, 1, 2, 120),
        ]),
    }
}

// --- the DAG catalogue -------------------------------------------------------

/// One frozen DAG chaos scenario: a mixed point + DAG session workload, a
/// fleet shape, a fault schedule and the orchestration policy, as plain
/// data.
#[derive(Debug, Clone)]
pub struct DagChaosScenario {
    /// Stable scenario name (doubles as the golden file stem).
    pub name: &'static str,
    /// The session workload: base traffic, user population, DAG share and
    /// the template catalogue.
    pub session: SessionConfig,
    /// Per-shard serving configuration (the backend field is overridden by
    /// [`Self::run`]).
    pub serve: ServeConfig,
    /// Fleet shape.
    pub fleet: FleetConfig,
    /// The chip-fault schedule.
    pub faults: FaultPlan,
    /// Orchestration policy (inheritance, whole-DAG admission).
    pub orchestrator: DagOrchestratorConfig,
}

impl DagChaosScenario {
    /// Runs the scenario on `plans` under `backend`, submit-all-then-drain
    /// through a [`DagOrchestrator`].
    #[must_use]
    pub fn run(&self, plans: Vec<CompiledPlan>, backend: BackendKind) -> FleetReport {
        let runtime = ServeRuntime::from_plans(
            plans,
            ServeConfig {
                backend,
                ..self.serve
            },
        );
        let items = session_items(&self.session);
        let mut orchestrator = DagOrchestrator::new(
            &runtime,
            self.fleet,
            self.faults.clone(),
            self.session.templates.clone(),
            self.orchestrator,
        );
        for item in &items {
            orchestrator.submit_item(item);
        }
        orchestrator.drain()
    }
}

/// The frozen DAG scenario catalogue, in golden order.
#[must_use]
pub fn dag_all() -> Vec<DagChaosScenario> {
    vec![dag_cascade_chip_death()]
}

/// Looks a DAG scenario up by name.
#[must_use]
pub fn dag_named(name: &str) -> Option<DagChaosScenario> {
    dag_all().into_iter().find(|s| s.name == name)
}

/// Chips die between the stages of in-flight cascades: upstream stages
/// served before the death, downstream stages submitted into the degraded
/// fleet — failover, orphan-stage sheds and inheritance all live at once.
#[must_use]
pub fn dag_cascade_chip_death() -> DagChaosScenario {
    DagChaosScenario {
        name: "dag-cascade-chip-death",
        session: SessionConfig {
            traffic: TrafficConfig {
                mean_interarrival_cycles: 300.0,
                ..scenario_traffic(96, 0xDA6C)
            },
            users: 6,
            dag_share: 0.5,
            templates: standard_templates(2),
            dag_deadline_slack_cycles: 500_000,
        },
        serve: scenario_serve(),
        fleet: FleetConfig {
            shards: 2,
            shard_policy: ShardPolicy::RoundRobin,
            initial_workers: 0,
            scaling: None,
        },
        // Deaths land while early cascade stages have completed and their
        // children are queued or mid-think-gap: one per shard, spread so
        // each catches different pipelines mid-flight.
        faults: FaultPlan::new(vec![
            FaultEvent {
                at_cycles: 8_000,
                kind: FaultKind::ChipDeath { shard: 0, chip: 1 },
            },
            FaultEvent {
                at_cycles: 25_000,
                kind: FaultKind::ChipDeath { shard: 1, chip: 2 },
            },
        ]),
        orchestrator: DagOrchestratorConfig {
            inherit_priority: true,
            admission: None,
        },
    }
}

// --- the multi-region catalogue --------------------------------------------

/// Hardware flavour of one region — the zoo × config matrix from the
/// backend-fidelity suite, reduced to the two booster operating points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum RegionHardware {
    /// Low-power booster silicon (cheap, slower sprint levels).
    LowPower,
    /// Sprint booster silicon (faster aggressive levels).
    Sprint,
}

/// One region of a frozen global scenario, as plain data.
#[derive(Debug, Clone, serde::Serialize)]
pub struct GlobalScenarioRegion {
    /// Region name (carried into the report).
    pub name: &'static str,
    /// Which silicon the region runs.
    pub hardware: RegionHardware,
    /// Per-shard serving configuration (backend overridden by
    /// [`GlobalScenario::run`]).
    pub serve: ServeConfig,
    /// The region's fleet shape.
    pub fleet: FleetConfig,
    /// Chip-level faults striking inside the region.
    pub faults: FaultPlan,
    /// Global models resident in the region.
    pub models: Vec<usize>,
}

/// One frozen multi-region chaos scenario: everything a run depends on.
#[derive(Debug, Clone)]
pub struct GlobalScenario {
    /// Stable scenario name (doubles as the golden file stem).
    pub name: &'static str,
    /// The base traffic; flash-crowd events in `region_faults` amplify it
    /// deterministically before submission.
    pub traffic: TrafficConfig,
    /// Size of the global model catalogue.
    pub models: usize,
    /// The regions, in region order.
    pub regions: Vec<GlobalScenarioRegion>,
    /// Routing, retry, shed and health-timer policy.
    pub global: GlobalConfig,
    /// The scripted region-fault schedule.
    pub region_faults: RegionFaultPlan,
}

impl GlobalScenario {
    /// Runs the scenario under `backend`, submit-all-then-drain.
    #[must_use]
    pub fn run(&self, backend: BackendKind) -> GlobalReport {
        let runtimes: Vec<ServeRuntime> = self
            .regions
            .iter()
            .map(|region| {
                let menu = global_reference_plans(region.hardware);
                let plans = region.models.iter().map(|&m| menu[m].clone()).collect();
                ServeRuntime::from_plans(
                    plans,
                    ServeConfig {
                        backend,
                        ..region.serve
                    },
                )
            })
            .collect();
        let specs = self
            .regions
            .iter()
            .zip(&runtimes)
            .map(|(region, runtime)| RegionSpec {
                name: region.name.to_string(),
                runtime,
                fleet: region.fleet,
                faults: region.faults.clone(),
                models: region.models.clone(),
            })
            .collect();
        let base = synthetic_trace(&self.traffic);
        let trace = with_flash_crowds(
            &base,
            &self.region_faults,
            self.traffic.deadline_slack_cycles,
            self.traffic.seed,
        );
        GlobalRouter::serve_trace(
            specs,
            self.models,
            self.global,
            self.region_faults.clone(),
            &trace,
        )
    }
}

/// The per-hardware plan menu of the global scenarios: the same two
/// MobileNetV2 variants as [`reference_plans`], compiled against the
/// region's booster silicon — so model `m` means the same network
/// everywhere but runs on different chips per region.
#[must_use]
pub fn global_reference_plans(hardware: RegionHardware) -> Vec<CompiledPlan> {
    let booster = match hardware {
        RegionHardware::LowPower => BoosterConfig::low_power(),
        RegionHardware::Sprint => BoosterConfig::sprint(),
    };
    let config = AimConfig {
        cycles_per_slice: 40,
        mode: booster.mode,
        booster: Some(booster),
        ..AimConfig::baseline()
    };
    vec![
        CompiledPlan::compile(
            &Model::mobilenet_v2(),
            &AimConfig {
                operator_stride: Some(13),
                ..config
            },
        ),
        CompiledPlan::compile(
            &Model::mobilenet_v2(),
            &AimConfig {
                operator_stride: Some(17),
                ..config
            },
        ),
    ]
}

/// Region building block shared by the global scenarios.
fn scenario_region(
    name: &'static str,
    hardware: RegionHardware,
    shards: usize,
    models: Vec<usize>,
) -> GlobalScenarioRegion {
    GlobalScenarioRegion {
        name,
        hardware,
        serve: scenario_serve(),
        fleet: FleetConfig {
            shards,
            shard_policy: ShardPolicy::RoundRobin,
            initial_workers: 0,
            scaling: None,
        },
        faults: FaultPlan::none(),
        models,
    }
}

/// The frozen multi-region catalogue, in golden order.
#[must_use]
pub fn global_all() -> Vec<GlobalScenario> {
    vec![
        region_outage_at_peak(),
        cross_region_failback(),
        flash_crowd(),
    ]
}

/// Looks a global scenario up by name.
#[must_use]
pub fn global_named(name: &str) -> Option<GlobalScenario> {
    global_all().into_iter().find(|s| s.name == name)
}

/// A low-power region dies at the traffic crest and never returns: every
/// committed-but-not-started request migrates to the sprint region, which
/// then loses a chip of its own mid-absorption (failover under migration
/// pressure).
#[must_use]
pub fn region_outage_at_peak() -> GlobalScenario {
    let mut survivor = scenario_region("sprint-east", RegionHardware::Sprint, 2, vec![0, 1]);
    // The surviving region loses a chip while absorbing the migrated load.
    survivor.faults = FaultPlan::new(vec![FaultEvent {
        at_cycles: 25_000,
        kind: FaultKind::ChipDeath { shard: 0, chip: 2 },
    }]);
    GlobalScenario {
        name: "region-outage-at-peak",
        traffic: TrafficConfig {
            requests: 96,
            models: 2,
            mean_interarrival_cycles: 350.0,
            burst_repeat_prob: 0.55,
            deadline_slack_cycles: 10_000,
            shape: ArrivalShape::DiurnalWave {
                period_cycles: 120_000,
                amplitude: 0.8,
            },
            slo_mix: SloMix::Mixed {
                latency_share: 0.2,
                best_effort_share: 0.3,
            },
            seed: 0x6E0_0D1E,
        },
        models: 2,
        regions: vec![
            scenario_region("lowpower-west", RegionHardware::LowPower, 2, vec![0, 1]),
            survivor,
        ],
        global: GlobalConfig {
            route: RoutePolicy::ByModel,
            suspect_grace_cycles: 2_000,
            ..GlobalConfig::default()
        },
        // Arrivals crest early at this density: the outage lands in the
        // thick of the backlog and the region stays dark.
        region_faults: RegionFaultPlan::new(vec![RegionFaultEvent {
            at_cycles: 15_000,
            kind: RegionFaultKind::RegionOutage { region: 0 },
        }]),
    }
}

/// The sole holder of model 1 goes down mid-run and comes back: its
/// traffic waits in the retry queue under exponential virtual-time backoff
/// and fails back after recovery — drain-don't-strand end to end.
#[must_use]
pub fn cross_region_failback() -> GlobalScenario {
    GlobalScenario {
        name: "cross-region-failback",
        traffic: TrafficConfig {
            requests: 80,
            models: 2,
            mean_interarrival_cycles: 1_500.0,
            burst_repeat_prob: 0.55,
            deadline_slack_cycles: 90_000,
            shape: ArrivalShape::BurstyExponential,
            slo_mix: SloMix::Mixed {
                latency_share: 0.2,
                best_effort_share: 0.3,
            },
            seed: 0x0FA1_1BAC,
        },
        models: 2,
        regions: vec![
            scenario_region("lowpower-west", RegionHardware::LowPower, 2, vec![0]),
            scenario_region("sprint-east", RegionHardware::Sprint, 1, vec![0, 1]),
        ],
        global: GlobalConfig {
            route: RoutePolicy::ByModel,
            retry: RetryConfig {
                max_attempts: 4,
                backoff_base_cycles: 15_000,
                backoff_multiplier: 2,
            },
            suspect_grace_cycles: 2_000,
            recovery_warmup_cycles: 10_000,
            ..GlobalConfig::default()
        },
        region_faults: RegionFaultPlan::new(vec![
            RegionFaultEvent {
                at_cycles: 20_000,
                kind: RegionFaultKind::RegionOutage { region: 1 },
            },
            RegionFaultEvent {
                at_cycles: 80_000,
                kind: RegionFaultKind::RegionRecovery { region: 1 },
            },
        ]),
    }
}

/// A best-effort flash crowd on one model overruns the shed ceilings:
/// best-effort traffic sheds first while latency-sensitive traffic rides
/// out the surge — the graceful-degradation pin.
#[must_use]
pub fn flash_crowd() -> GlobalScenario {
    GlobalScenario {
        name: "flash-crowd",
        traffic: TrafficConfig {
            requests: 64,
            models: 2,
            mean_interarrival_cycles: 1_800.0,
            burst_repeat_prob: 0.55,
            deadline_slack_cycles: 200_000,
            shape: ArrivalShape::BurstyExponential,
            slo_mix: SloMix::Mixed {
                latency_share: 0.25,
                best_effort_share: 0.25,
            },
            seed: 0xF1A5_C0DE,
        },
        models: 2,
        regions: vec![
            scenario_region("lowpower-west", RegionHardware::LowPower, 1, vec![0, 1]),
            scenario_region("sprint-east", RegionHardware::Sprint, 1, vec![0, 1]),
        ],
        global: GlobalConfig {
            route: RoutePolicy::LeastBacklog,
            shed: ShedPolicy {
                // Best-effort sheds once weighted backlog passes ~8k
                // cycles; standard holds to 600k; latency-sensitive never
                // sheds.
                backlog_ceiling_cycles: [8_000, 600_000, u64::MAX],
            },
            ..GlobalConfig::default()
        },
        region_faults: RegionFaultPlan::new(vec![RegionFaultEvent {
            at_cycles: 40_000,
            kind: RegionFaultKind::FlashCrowd {
                model: 0,
                requests: 96,
                mean_gap_cycles: 40,
            },
        }]),
    }
}
