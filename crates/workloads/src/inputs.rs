//! Synthetic input streams and their toggle statistics.
//!
//! The datasets the paper uses (ImageNet, COCO, Wikitext2) are replaced by
//! synthetic generators whose *bit-level activity* matches the real data
//! classes:
//!
//! * **image-like features** are spatially correlated — neighbouring
//!   activations differ by small amounts, so consecutive bit-serial inputs
//!   flip fewer bits (lower flip fractions, lower variance);
//! * **token-like features** (embeddings of text tokens) are nearly
//!   uncorrelated between positions — consecutive inputs flip close to half
//!   of their bits, with higher variance.
//!
//! The chip-level experiments only consume the per-cycle flip fractions; the
//! bit-exact experiments (Figs. 4/5) consume the raw activation values.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// The class of input data feeding a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InputClass {
    /// Spatially-correlated image features (ImageNet / COCO stand-in).
    ImageLike,
    /// Token-embedding features (Wikitext2 stand-in).
    TokenLike,
}

impl InputClass {
    /// Mean per-cycle flip fraction of the class.
    #[must_use]
    pub fn flip_mean(self) -> f64 {
        match self {
            Self::ImageLike => 0.42,
            Self::TokenLike => 0.50,
        }
    }

    /// Standard deviation of the per-cycle flip fraction.
    #[must_use]
    pub fn flip_std(self) -> f64 {
        match self {
            Self::ImageLike => 0.12,
            Self::TokenLike => 0.16,
        }
    }
}

/// A batch of unsigned 8-bit activation values for bit-exact experiments.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActivationBatch {
    /// Activation values in `[0, 255]`.
    pub values: Vec<i32>,
    /// The class the batch was generated for.
    pub class: InputClass,
}

/// Generates one activation batch of the given class.
///
/// Image-like batches are produced by a smoothed random walk (neighbouring
/// values are close); token-like batches are i.i.d. uniform.
#[must_use]
pub fn activation_batch(class: InputClass, len: usize, seed: u64) -> ActivationBatch {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let values = match class {
        InputClass::ImageLike => {
            let mut v = Vec::with_capacity(len);
            let mut current: i32 = rng.gen_range(40..216);
            for _ in 0..len {
                // Small correlated steps, clamped to the 8-bit range.
                current = (current + rng.gen_range(-18..=18)).clamp(0, 255);
                v.push(current);
            }
            v
        }
        InputClass::TokenLike => (0..len).map(|_| rng.gen_range(0..256)).collect(),
    };
    ActivationBatch { values, class }
}

/// Per-cycle flip fractions for a workload of the given class, sampled from
/// the class statistics (the chip-level fidelity).
#[must_use]
pub fn flip_fractions(class: InputClass, cycles: usize, seed: u64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..cycles)
        .map(|_| {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (class.flip_mean() + class.flip_std() * z).clamp(0.0, 1.0)
        })
        .collect()
}

/// Service-level-objective class of a serving request.
///
/// The variants are declared in ascending scheduling priority, so the
/// derived `Ord` ranks urgency directly: `BestEffort < Standard <
/// LatencySensitive`.  A serving scheduler reads the class three ways —
/// batch-window treatment (latency-sensitive arrivals close an open window
/// immediately), dispatch priority (higher classes jump queued lower-class
/// work that has not started), and per-class admission caps.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub enum SloClass {
    /// Throughput traffic with no latency promise: lowest dispatch priority,
    /// shed first under load.
    BestEffort,
    /// The default interactive tier: batched within the configured window.
    #[default]
    Standard,
    /// Tight-latency traffic: closes its model's batch window on arrival and
    /// dispatches ahead of queued lower-class groups.
    LatencySensitive,
}

impl SloClass {
    /// All classes, in ascending priority order.
    pub const ALL: [Self; 3] = [Self::BestEffort, Self::Standard, Self::LatencySensitive];

    /// Stable index of the class (ascending priority), for per-class tables.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Self::BestEffort => 0,
            Self::Standard => 1,
            Self::LatencySensitive => 2,
        }
    }

    /// Human-readable class name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::BestEffort => "best_effort",
            Self::Standard => "standard",
            Self::LatencySensitive => "latency_sensitive",
        }
    }
}

/// One inference request of a synthetic serving trace.
///
/// Times are virtual, in nominal-frequency chip cycles since trace start, so
/// that every consumer of a trace stays exactly reproducible (no floating
/// point, no wall clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRequest {
    /// Index into the served model list (the serving runtime resolves it).
    pub model: usize,
    /// Arrival time, cycles since trace start.
    pub arrival_cycles: u64,
    /// Completion deadline, cycles since trace start.
    pub deadline_cycles: u64,
    /// Service-level-objective class the request is served under.
    pub slo: SloClass,
}

/// Arrival-process shape of a synthetic serving trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalShape {
    /// Exponential inter-arrival gaps plus per-model burst runs
    /// (`burst_repeat_prob`) — the original serving-trace shape, byte-stable
    /// across releases.
    BurstyExponential,
    /// A memoryless Poisson process: exponential gaps, every request's model
    /// drawn independently and uniformly (`burst_repeat_prob` is ignored) —
    /// the classic open-loop arrival model.
    Poisson,
    /// Exponential gaps whose instantaneous rate swings sinusoidally around
    /// the configured mean — the diurnal day/night wave of production
    /// traffic.  Model choice keeps the bursty repeat behaviour.
    DiurnalWave {
        /// Length of one rate-wave period (cycles of virtual time).
        period_cycles: u64,
        /// Relative swing in `[0, 1)`: the instantaneous arrival rate is
        /// `base × (1 + amplitude × sin(2π t / period))`.
        amplitude: f64,
    },
}

/// SLO-class composition of a synthetic trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SloMix {
    /// Every request is [`SloClass::Standard`] — the historical single-class
    /// traffic, byte-identical to traces generated before classes existed.
    AllStandard,
    /// Classes drawn per request from a dedicated RNG stream (so the
    /// arrival/model streams stay byte-identical to `AllStandard` at the
    /// same seed): `latency_share` of requests are latency-sensitive,
    /// `best_effort_share` best-effort, the rest standard.
    Mixed {
        /// Fraction of latency-sensitive requests, in `[0, 1]`.
        latency_share: f64,
        /// Fraction of best-effort requests, in `[0, 1]`.
        best_effort_share: f64,
    },
}

/// Shape of a synthetic serving-traffic trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrafficConfig {
    /// Number of requests to generate.
    pub requests: usize,
    /// Number of distinct models requests are drawn from.
    pub models: usize,
    /// Mean of the exponential inter-arrival distribution (cycles).
    pub mean_interarrival_cycles: f64,
    /// Probability that a request re-uses the previous request's model —
    /// production traffic is bursty per model, which is what gives dynamic
    /// batching its leverage.
    pub burst_repeat_prob: f64,
    /// Deadline slack granted to each request past its arrival (cycles).
    pub deadline_slack_cycles: u64,
    /// Arrival-process shape.
    pub shape: ArrivalShape,
    /// SLO-class composition of the generated requests.
    pub slo_mix: SloMix,
    /// Seed of the trace stream.
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        Self {
            requests: 64,
            models: 4,
            mean_interarrival_cycles: 4_000.0,
            burst_repeat_prob: 0.6,
            deadline_slack_cycles: 100_000,
            shape: ArrivalShape::BurstyExponential,
            slo_mix: SloMix::AllStandard,
            seed: 0x5E21E,
        }
    }
}

/// A streaming synthetic-trace generator: the iterator equivalent of
/// [`synthetic_trace`], producing **byte-identical** draws one request at a
/// time without ever materialising the trace.
///
/// A million-request diurnal trace costs 32 MiB as a `Vec<TraceRequest>`;
/// hyperscale harnesses submit straight off this iterator instead, keeping
/// generator memory O(1) in the request count.  [`synthetic_trace`] is now a
/// thin `collect()` over this type, so the two can never drift: the RNG
/// draw order (arrival gap, then model, then SLO class from its dedicated
/// stream) is frozen — committed serving benchmarks replay traces by seed.
///
/// ## Arrival overflow
///
/// Virtual arrival times saturate at `u64::MAX` instead of wrapping: on a
/// long enough horizon (or an absurd `mean_interarrival_cycles`) every
/// subsequent request arrives at `u64::MAX` with its deadline clamped to
/// `u64::MAX` too, so traces stay sorted and deadlines never precede
/// arrivals.  The per-request gap itself is also saturated on the float →
/// integer cast (Rust's `as` clamps), so a non-finite or oversized gap can
/// never wrap a small arrival around zero.
#[derive(Debug, Clone)]
pub struct TraceStream {
    config: TrafficConfig,
    rng: ChaCha8Rng,
    /// SLO classes come from a *separate* stream so that enabling a mixed
    /// class composition never perturbs the frozen arrival/model draws.
    slo_rng: ChaCha8Rng,
    arrival: u64,
    previous_model: Option<usize>,
    emitted: usize,
}

impl TraceStream {
    /// Opens a stream over the configured traffic shape.
    ///
    /// # Panics
    ///
    /// Panics if `models` is zero.
    #[must_use]
    pub fn new(config: &TrafficConfig) -> Self {
        assert!(config.models > 0, "a trace needs at least one model");
        Self {
            config: *config,
            rng: ChaCha8Rng::seed_from_u64(config.seed),
            slo_rng: ChaCha8Rng::seed_from_u64(config.seed ^ 0x0051_0C1A_55E5),
            arrival: 0,
            previous_model: None,
            emitted: 0,
        }
    }

    /// Requests still to come.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.config.requests - self.emitted
    }
}

impl Iterator for TraceStream {
    type Item = TraceRequest;

    fn next(&mut self) -> Option<TraceRequest> {
        if self.emitted >= self.config.requests {
            return None;
        }
        self.emitted += 1;
        let config = &self.config;
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        // The RNG draw order of the BurstyExponential arm is frozen:
        // committed serving benchmarks replay its traces by seed.
        let gap = match config.shape {
            ArrivalShape::BurstyExponential | ArrivalShape::Poisson => {
                (-u.ln() * config.mean_interarrival_cycles).round()
            }
            ArrivalShape::DiurnalWave {
                period_cycles,
                amplitude,
            } => {
                let period = period_cycles.max(1) as f64;
                let swing = amplitude.clamp(0.0, 0.99);
                let phase = 2.0 * std::f64::consts::PI * (self.arrival as f64 / period);
                let rate = 1.0 + swing * phase.sin();
                (-u.ln() * config.mean_interarrival_cycles / rate).round()
            }
        };
        // `as u64` saturates (NaN -> 0, oversized -> u64::MAX), and the add
        // saturates again: arrivals pin at u64::MAX rather than wrapping.
        self.arrival = self.arrival.saturating_add(gap as u64);
        let model = match config.shape {
            ArrivalShape::Poisson => self.rng.gen_range(0..config.models),
            ArrivalShape::BurstyExponential | ArrivalShape::DiurnalWave { .. } => {
                match self.previous_model {
                    Some(m) if self.rng.gen_range(0.0..1.0) < config.burst_repeat_prob => m,
                    _ => self.rng.gen_range(0..config.models),
                }
            }
        };
        self.previous_model = Some(model);
        let slo = match config.slo_mix {
            SloMix::AllStandard => SloClass::Standard,
            SloMix::Mixed {
                latency_share,
                best_effort_share,
            } => {
                let u: f64 = self.slo_rng.gen_range(0.0..1.0);
                if u < latency_share {
                    SloClass::LatencySensitive
                } else if u < latency_share + best_effort_share {
                    SloClass::BestEffort
                } else {
                    SloClass::Standard
                }
            }
        };
        Some(TraceRequest {
            model,
            arrival_cycles: self.arrival,
            deadline_cycles: self.arrival.saturating_add(config.deadline_slack_cycles),
            slo,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.remaining();
        (left, Some(left))
    }
}

impl ExactSizeIterator for TraceStream {}
impl std::iter::FusedIterator for TraceStream {}

/// Generates a synthetic serving trace with the configured [`ArrivalShape`]:
/// bursty-exponential (the original behaviour, byte-identical per seed),
/// memoryless Poisson, or a diurnal rate wave.  Requests come back sorted by
/// arrival time.  Deterministic per `(shape, seed)`.
///
/// This is the eager `collect()` over [`TraceStream`]; harnesses that never
/// need the whole trace at once iterate the stream directly.
///
/// # Panics
///
/// Panics if `models` is zero.
#[must_use]
pub fn synthetic_trace(config: &TrafficConfig) -> Vec<TraceRequest> {
    TraceStream::new(config).collect()
}

/// One kind of injected infrastructure fault in a chaos scenario.
///
/// Faults address a chip by `(shard, chip)` — the coordinate system of a
/// sharded serving fleet, where each shard owns its own chip group.  The
/// variants are workload vocabulary (like [`TraceRequest`]): the serving
/// layer decides what each one does to scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// The chip stops executing permanently.  Work it has not started must
    /// fail over to surviving chips.
    ChipDeath {
        /// Shard owning the chip.
        shard: usize,
        /// Chip index within the shard.
        chip: usize,
    },
    /// The chip keeps serving but its service cycles stretch by
    /// `slowdown_percent` (a thermally throttled or margin-limited chip).
    Degradation {
        /// Shard owning the chip.
        shard: usize,
        /// Chip index within the shard.
        chip: usize,
        /// Relative service-cycle stretch, in percent (50 ⇒ 1.5× slower).
        slowdown_percent: u32,
    },
    /// A degraded chip returns to its nominal service rate.
    Recovery {
        /// Shard owning the chip.
        shard: usize,
        /// Chip index within the shard.
        chip: usize,
    },
}

impl FaultKind {
    /// Stable tags of every variant, for coverage accounting ("does each
    /// fault kind appear in at least one frozen scenario?").  Keep in sync
    /// with [`Self::tag`]; `tag` returns exactly one of these.
    pub const TAGS: [&'static str; 3] = ["chip_death", "degradation", "recovery"];

    /// Stable tag of the variant (one of [`Self::TAGS`]).
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            Self::ChipDeath { .. } => "chip_death",
            Self::Degradation { .. } => "degradation",
            Self::Recovery { .. } => "recovery",
        }
    }

    /// Shard the fault targets.
    #[must_use]
    pub fn shard(self) -> usize {
        match self {
            Self::ChipDeath { shard, .. }
            | Self::Degradation { shard, .. }
            | Self::Recovery { shard, .. } => shard,
        }
    }

    /// Chip (within its shard) the fault targets.
    #[must_use]
    pub fn chip(self) -> usize {
        match self {
            Self::ChipDeath { chip, .. }
            | Self::Degradation { chip, .. }
            | Self::Recovery { chip, .. } => chip,
        }
    }

    /// Rank used for deterministic ordering of same-cycle faults.
    fn rank(self) -> usize {
        match self {
            Self::ChipDeath { .. } => 0,
            Self::Degradation { .. } => 1,
            Self::Recovery { .. } => 2,
        }
    }
}

/// One scheduled fault: `kind` strikes at virtual cycle `at_cycles`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Virtual time the fault strikes (cycles since trace start).
    pub at_cycles: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of infrastructure faults, sorted by strike time.
///
/// Like a [`TraceRequest`] trace, a plan is plain data: fixed bytes in,
/// fixed behaviour out.  Construct via [`FaultPlan::new`] (which sorts) so
/// two plans built from the same events compare — and serialize — equal.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The scheduled faults, ascending by `(at_cycles, kind)`.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with no faults (the steady-state scenario).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Builds a plan, sorting the events into the canonical order: ascending
    /// strike time, ties broken by variant rank (deaths before degradations
    /// before recoveries), then shard, then chip.
    #[must_use]
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(Self::canonical_key);
        Self { events }
    }

    /// Sort key of the canonical order [`Self::new`] establishes.
    fn canonical_key(event: &FaultEvent) -> (u64, usize, usize, usize) {
        let kind = event.kind;
        (event.at_cycles, kind.rank(), kind.shard(), kind.chip())
    }

    /// Number of scheduled faults.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules no faults at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Rejects nonsensical scripts loudly instead of letting them be
    /// silently ignored at serve time: a chip that died by [`ChipDeath`]
    /// stays dead, so a second death of the same chip or any later
    /// `Degradation`/`Recovery` addressed to it is a scripting bug.
    ///
    /// Generators ([`chaos_fault_plan`]) and fleet construction both call
    /// this, so a bad plan fails at the source with a message naming the
    /// offending event rather than surfacing as a scheduling panic deep in a
    /// chaos run.
    ///
    /// [`ChipDeath`]: FaultKind::ChipDeath
    ///
    /// # Panics
    ///
    /// Panics when the events are not in the canonical order [`Self::new`]
    /// sorts into (a struct literal can bypass it), on a duplicate
    /// `ChipDeath`, or on a `Degradation`/`Recovery` targeting a chip that
    /// an earlier (or same-cycle) `ChipDeath` killed.
    pub fn validate(&self) {
        assert!(
            self.events.is_sorted_by_key(Self::canonical_key),
            "invalid fault plan: events are not in canonical order (build plans with FaultPlan::new)"
        );
        let mut deaths: Vec<(usize, usize, u64)> = Vec::new();
        // Events are kept in canonical order (deaths sort first on ties), so
        // a single pass sees every death before the events it invalidates.
        for event in &self.events {
            let (shard, chip) = (event.kind.shard(), event.kind.chip());
            let died = deaths
                .iter()
                .find(|&&(s, c, _)| s == shard && c == chip)
                .map(|&(_, _, at)| at);
            match event.kind {
                FaultKind::ChipDeath { .. } => {
                    assert!(
                        died.is_none(),
                        "invalid fault plan: duplicate ChipDeath for chip {chip} of shard \
                         {shard} at cycle {} (it already died at cycle {})",
                        event.at_cycles,
                        died.unwrap_or_default(),
                    );
                    deaths.push((shard, chip, event.at_cycles));
                }
                FaultKind::Degradation { .. } | FaultKind::Recovery { .. } => {
                    assert!(
                        died.is_none(),
                        "invalid fault plan: {} targets chip {chip} of shard {shard} at cycle \
                         {}, but that chip died at cycle {} and dead chips never come back",
                        event.kind.tag(),
                        event.at_cycles,
                        died.unwrap_or_default(),
                    );
                }
            }
        }
    }
}

/// Shape of a synthetic chaos-fault schedule for a sharded fleet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Shards in the fleet the plan addresses.
    pub shards: usize,
    /// Chips per shard.
    pub chips_per_shard: usize,
    /// Faults strike uniformly inside `[0, horizon_cycles)`.
    pub horizon_cycles: u64,
    /// Chip deaths to attempt.  Capped so every shard always keeps at least
    /// one chip alive (dead chips must have survivors to fail over to).
    pub deaths: usize,
    /// Degradation episodes to schedule.  Episodes never target a chip that
    /// dies, so a plan is valid under any interleaving of its events.
    pub degradations: usize,
    /// Degradation slowdowns are drawn uniformly from
    /// `[10, max_slowdown_percent]`.
    pub max_slowdown_percent: u32,
    /// Probability that a degradation episode recovers inside the horizon.
    pub recovery_prob: f64,
    /// Seed of the fault stream.
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            chips_per_shard: 4,
            horizon_cycles: 500_000,
            deaths: 1,
            degradations: 1,
            max_slowdown_percent: 100,
            recovery_prob: 0.5,
            seed: 0xC4A05,
        }
    }
}

/// Generates a deterministic chaos-fault schedule for a sharded fleet.
///
/// The generator draws from a **dedicated RNG stream** (the seed is folded
/// with a fault-stream constant), exactly like [`SloMix::Mixed`]'s class
/// stream: attaching a fault plan to an existing workload never perturbs the
/// frozen arrival/model draws of [`synthetic_trace`] at the same seed.
///
/// Generated plans are valid by construction:
///
/// * deaths never reduce a shard below one live chip, and no chip dies
///   twice;
/// * degradation episodes only target chips that never die, so every
///   `Degradation`/`Recovery` addresses a live chip whenever it strikes;
/// * recoveries always strike strictly after their episode's degradation.
///
/// # Panics
///
/// Panics if `shards` or `chips_per_shard` is zero.
#[must_use]
pub fn chaos_fault_plan(config: &ChaosConfig) -> FaultPlan {
    assert!(config.shards > 0, "a fleet needs at least one shard");
    assert!(
        config.chips_per_shard > 0,
        "a shard needs at least one chip"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x00FA_17C4_A055);
    let horizon = config.horizon_cycles.max(1);
    let mut alive: Vec<Vec<bool>> = vec![vec![true; config.chips_per_shard]; config.shards];
    let mut events = Vec::new();

    for _ in 0..config.deaths {
        // Shards that can still lose a chip (at least two alive).
        let candidates: Vec<usize> = (0..config.shards)
            .filter(|&s| alive[s].iter().filter(|&&a| a).count() > 1)
            .collect();
        let Some(&shard) = candidates.get(rng.gen_range(0..candidates.len().max(1))) else {
            break;
        };
        let live: Vec<usize> = (0..config.chips_per_shard)
            .filter(|&c| alive[shard][c])
            .collect();
        let chip = live[rng.gen_range(0..live.len())];
        alive[shard][chip] = false;
        events.push(FaultEvent {
            at_cycles: rng.gen_range(0..horizon),
            kind: FaultKind::ChipDeath { shard, chip },
        });
    }

    // Degradations avoid every death target, so episode validity never
    // depends on event ordering.
    let stable: Vec<(usize, usize)> = (0..config.shards)
        .flat_map(|s| (0..config.chips_per_shard).map(move |c| (s, c)))
        .filter(|&(s, c)| alive[s][c])
        .collect();
    for _ in 0..config.degradations {
        if stable.is_empty() {
            break;
        }
        let (shard, chip) = stable[rng.gen_range(0..stable.len())];
        let at = rng.gen_range(0..horizon);
        let slowdown_percent = rng.gen_range(10..=config.max_slowdown_percent.max(10));
        events.push(FaultEvent {
            at_cycles: at,
            kind: FaultKind::Degradation {
                shard,
                chip,
                slowdown_percent,
            },
        });
        if rng.gen_range(0.0..1.0) < config.recovery_prob && at + 1 < horizon {
            events.push(FaultEvent {
                at_cycles: rng.gen_range(at + 1..horizon),
                kind: FaultKind::Recovery { shard, chip },
            });
        }
    }

    let plan = FaultPlan::new(events);
    plan.validate();
    plan
}

/// One kind of region-level event in a multi-region chaos script.
///
/// Regions are whole serving fleets; these events are the vocabulary a
/// global router reacts to, exactly as [`FaultKind`] is the vocabulary of a
/// single fleet.  The serving layer decides what each one does to routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RegionFaultKind {
    /// The entire region stops accepting and starting new work (network
    /// partition, power event).  Work it has not started must migrate to
    /// surviving regions.
    RegionOutage {
        /// Region index the outage strikes.
        region: usize,
    },
    /// A downed region returns to service and may take traffic again.
    RegionRecovery {
        /// Region index that recovers.
        region: usize,
    },
    /// A sudden surge of best-effort traffic on one model (a viral moment).
    /// The surge is materialised into the trace by [`with_flash_crowds`];
    /// the router only counts the event.
    FlashCrowd {
        /// Global model index the crowd hammers.
        model: usize,
        /// Extra best-effort requests the surge injects.
        requests: usize,
        /// Mean exponential gap between surge arrivals, in cycles.
        mean_gap_cycles: u64,
    },
}

impl RegionFaultKind {
    /// Stable tags of every variant, for coverage accounting (mirrors
    /// [`FaultKind::TAGS`]).  Keep in sync with [`Self::tag`].
    pub const TAGS: [&'static str; 3] = ["region_outage", "region_recovery", "flash_crowd"];

    /// Stable tag of the variant (one of [`Self::TAGS`]).
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            Self::RegionOutage { .. } => "region_outage",
            Self::RegionRecovery { .. } => "region_recovery",
            Self::FlashCrowd { .. } => "flash_crowd",
        }
    }

    /// Region the event targets (`None` for [`Self::FlashCrowd`], which
    /// targets a model, not a region).
    #[must_use]
    pub fn region(self) -> Option<usize> {
        match self {
            Self::RegionOutage { region } | Self::RegionRecovery { region } => Some(region),
            Self::FlashCrowd { .. } => None,
        }
    }

    /// Rank used for deterministic ordering of same-cycle events.
    fn rank(self) -> usize {
        match self {
            Self::RegionOutage { .. } => 0,
            Self::RegionRecovery { .. } => 1,
            Self::FlashCrowd { .. } => 2,
        }
    }

    /// Secondary sort index: the region targeted, or the model for crowds.
    fn sort_index(self) -> usize {
        match self {
            Self::RegionOutage { region } | Self::RegionRecovery { region } => region,
            Self::FlashCrowd { model, .. } => model,
        }
    }
}

/// One scheduled region event: `kind` strikes at virtual cycle `at_cycles`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RegionFaultEvent {
    /// Virtual time the event strikes (cycles since trace start).
    pub at_cycles: u64,
    /// What happens.
    pub kind: RegionFaultKind,
}

/// A deterministic schedule of region-level events, sorted by strike time.
///
/// Plain data like [`FaultPlan`]: fixed bytes in, fixed behaviour out.
/// Construct via [`RegionFaultPlan::new`] (which sorts) so two plans built
/// from the same events compare — and serialize — equal.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionFaultPlan {
    /// The scheduled events, ascending by `(at_cycles, kind)`.
    pub events: Vec<RegionFaultEvent>,
}

impl RegionFaultPlan {
    /// A plan with no region events (the steady-state scenario).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Builds a plan, sorting the events into the canonical order: ascending
    /// strike time, ties broken by variant rank (outages before recoveries
    /// before crowds), then by targeted region/model.
    #[must_use]
    pub fn new(mut events: Vec<RegionFaultEvent>) -> Self {
        events.sort_by_key(Self::canonical_key);
        Self { events }
    }

    /// Sort key of the canonical order [`Self::new`] establishes.
    fn canonical_key(event: &RegionFaultEvent) -> (u64, usize, usize) {
        (event.at_cycles, event.kind.rank(), event.kind.sort_index())
    }

    /// Number of scheduled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules no events at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Rejects nonsensical scripts loudly, against a topology of `regions`
    /// regions serving `models` global models (mirrors
    /// [`FaultPlan::validate`]).
    ///
    /// # Panics
    ///
    /// Panics when the events are not in the canonical order [`Self::new`]
    /// sorts into, when an event addresses a region or model out of range,
    /// when an outage strikes a region that is already out, when a recovery
    /// targets a region that is not out, or when a flash crowd injects zero
    /// requests.
    pub fn validate(&self, regions: usize, models: usize) {
        assert!(
            self.events.is_sorted_by_key(Self::canonical_key),
            "invalid region plan: events are not in canonical order (build plans with \
             RegionFaultPlan::new)"
        );
        let mut out = vec![false; regions];
        for event in &self.events {
            match event.kind {
                RegionFaultKind::RegionOutage { region } => {
                    assert!(
                        region < regions,
                        "invalid region plan: outage targets region {region} of a \
                         {regions}-region topology"
                    );
                    assert!(
                        !out[region],
                        "invalid region plan: duplicate RegionOutage for region {region} at \
                         cycle {} (it is already out)",
                        event.at_cycles,
                    );
                    out[region] = true;
                }
                RegionFaultKind::RegionRecovery { region } => {
                    assert!(
                        region < regions,
                        "invalid region plan: recovery targets region {region} of a \
                         {regions}-region topology"
                    );
                    assert!(
                        out[region],
                        "invalid region plan: RegionRecovery for region {region} at cycle {} \
                         without a preceding open outage",
                        event.at_cycles,
                    );
                    out[region] = false;
                }
                RegionFaultKind::FlashCrowd {
                    model, requests, ..
                } => {
                    assert!(
                        model < models,
                        "invalid region plan: flash crowd targets model {model} of a \
                         {models}-model catalogue"
                    );
                    assert!(
                        requests > 0,
                        "invalid region plan: flash crowd at cycle {} injects zero requests",
                        event.at_cycles,
                    );
                }
            }
        }
    }
}

/// Shape of a synthetic region-level chaos schedule for a global router.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegionChaosConfig {
    /// Regions in the topology the plan addresses.
    pub regions: usize,
    /// Global models the topology serves (flash crowds target one).
    pub models: usize,
    /// Events strike uniformly inside `[0, horizon_cycles)`.
    pub horizon_cycles: u64,
    /// Region outages to attempt.  Capped so at least one region never goes
    /// out (migrated work needs a potential destination).
    pub outages: usize,
    /// Probability that an outage recovers inside the horizon.
    pub recovery_prob: f64,
    /// Flash-crowd surges to schedule.
    pub flash_crowds: usize,
    /// Extra best-effort requests per surge.
    pub flash_requests: usize,
    /// Mean exponential gap between surge arrivals, in cycles.
    pub flash_mean_gap_cycles: u64,
    /// Seed of the region-chaos stream.
    pub seed: u64,
}

impl Default for RegionChaosConfig {
    fn default() -> Self {
        Self {
            regions: 2,
            models: 2,
            horizon_cycles: 500_000,
            outages: 1,
            recovery_prob: 0.5,
            flash_crowds: 1,
            flash_requests: 16,
            flash_mean_gap_cycles: 500,
            seed: 0x6E0C4A05,
        }
    }
}

/// Generates a deterministic region-level chaos schedule.
///
/// Draws from a **dedicated RNG stream** (the seed is folded with a
/// region-stream constant), like [`chaos_fault_plan`] and [`SloMix::Mixed`]:
/// attaching a region plan to an existing workload never perturbs the frozen
/// arrival/model or chip-fault draws at the same seed.
///
/// Generated plans are valid by construction and pass
/// [`RegionFaultPlan::validate`]: one region (chosen from the stream) never
/// goes out, no region is outaged while already out, and recoveries strike
/// strictly after their outage.
///
/// # Panics
///
/// Panics if `regions` or `models` is zero.
#[must_use]
pub fn region_chaos_plan(config: &RegionChaosConfig) -> RegionFaultPlan {
    assert!(config.regions > 0, "a topology needs at least one region");
    assert!(config.models > 0, "a topology needs at least one model");
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x0012_E610_FA11);
    let horizon = config.horizon_cycles.max(2);
    // One region is never outaged so migrations always have a potential
    // destination (whether it holds the right model is the router's problem).
    let safe = rng.gen_range(0..config.regions);
    // `true` = currently out, `Some(at)` in `last` = may be re-outaged
    // strictly after `at` (its recovery time).
    let mut out = vec![false; config.regions];
    let mut available_after = vec![0u64; config.regions];
    let mut events = Vec::new();

    for _ in 0..config.outages {
        let candidates: Vec<usize> = (0..config.regions)
            .filter(|&r| r != safe && !out[r] && available_after[r] + 1 < horizon)
            .collect();
        if candidates.is_empty() {
            break;
        }
        let region = candidates[rng.gen_range(0..candidates.len())];
        let at = rng.gen_range(available_after[region]..horizon - 1);
        events.push(RegionFaultEvent {
            at_cycles: at,
            kind: RegionFaultKind::RegionOutage { region },
        });
        if rng.gen_range(0.0..1.0) < config.recovery_prob {
            let back = rng.gen_range(at + 1..horizon);
            events.push(RegionFaultEvent {
                at_cycles: back,
                kind: RegionFaultKind::RegionRecovery { region },
            });
            available_after[region] = back;
        } else {
            out[region] = true;
        }
    }

    for _ in 0..config.flash_crowds {
        if config.flash_requests == 0 {
            break;
        }
        events.push(RegionFaultEvent {
            at_cycles: rng.gen_range(0..horizon),
            kind: RegionFaultKind::FlashCrowd {
                model: rng.gen_range(0..config.models),
                requests: config.flash_requests,
                mean_gap_cycles: config.flash_mean_gap_cycles.max(1),
            },
        });
    }

    let plan = RegionFaultPlan::new(events);
    plan.validate(config.regions, config.models);
    plan
}

/// Materialises every [`RegionFaultKind::FlashCrowd`] event of `plan` into
/// extra best-effort [`TraceRequest`]s merged (stably, by arrival) into
/// `base`.
///
/// Each surge draws its exponential gaps from a **dedicated per-event RNG
/// stream** (seed folded with a flash-stream constant and the event index),
/// so adding a surge never perturbs the frozen base trace and two surges
/// never share draws.  Surge arrivals start strictly after the event's
/// strike time; deadlines get `deadline_slack_cycles` of slack.
#[must_use]
pub fn with_flash_crowds(
    base: &[TraceRequest],
    plan: &RegionFaultPlan,
    deadline_slack_cycles: u64,
    seed: u64,
) -> Vec<TraceRequest> {
    let mut merged: Vec<TraceRequest> = base.to_vec();
    for (index, event) in plan.events.iter().enumerate() {
        let RegionFaultKind::FlashCrowd {
            model,
            requests,
            mean_gap_cycles,
        } = event.kind
        else {
            continue;
        };
        let stream =
            seed ^ 0x00F1_A5C0_11D5 ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = ChaCha8Rng::seed_from_u64(stream);
        let mut arrival = event.at_cycles;
        for _ in 0..requests {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            let gap = (-u.ln() * mean_gap_cycles.max(1) as f64).round().max(1.0);
            arrival = arrival.saturating_add(gap as u64);
            merged.push(TraceRequest {
                model,
                arrival_cycles: arrival,
                deadline_cycles: arrival.saturating_add(deadline_slack_cycles),
                slo: SloClass::BestEffort,
            });
        }
    }
    // Stable by arrival: base requests keep their submission order, surge
    // requests slot in after base requests sharing an arrival cycle.
    merged.sort_by_key(|r| r.arrival_cycles);
    merged
}

/// Empirical bit-flip fraction between consecutive values of a batch when
/// streamed bit-serially (averaged over all 8 bit positions).
#[must_use]
pub fn empirical_flip_fraction(batch: &ActivationBatch) -> f64 {
    if batch.values.len() < 2 {
        return 0.0;
    }
    let mut flips = 0u64;
    let mut total = 0u64;
    for pair in batch.values.windows(2) {
        let diff = (pair[0] ^ pair[1]) as u32;
        flips += u64::from(diff.count_ones());
        total += 8;
    }
    flips as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_like_batches_flip_less_than_token_like() {
        let img = activation_batch(InputClass::ImageLike, 4096, 1);
        let tok = activation_batch(InputClass::TokenLike, 4096, 1);
        let f_img = empirical_flip_fraction(&img);
        let f_tok = empirical_flip_fraction(&tok);
        assert!(
            f_img < f_tok,
            "correlated image features must flip fewer bits ({f_img} vs {f_tok})"
        );
        assert!(f_tok > 0.4 && f_tok < 0.6);
    }

    #[test]
    fn batches_stay_in_8bit_range() {
        for class in [InputClass::ImageLike, InputClass::TokenLike] {
            let b = activation_batch(class, 1000, 7);
            assert!(b.values.iter().all(|&v| (0..=255).contains(&v)));
        }
    }

    #[test]
    fn flip_fractions_follow_class_statistics() {
        for class in [InputClass::ImageLike, InputClass::TokenLike] {
            let f = flip_fractions(class, 20_000, 3);
            let mean = f.iter().sum::<f64>() / f.len() as f64;
            assert!(
                (mean - class.flip_mean()).abs() < 0.01,
                "{class:?} mean {mean}"
            );
            assert!(f.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = activation_batch(InputClass::ImageLike, 64, 5);
        let b = activation_batch(InputClass::ImageLike, 64, 5);
        let c = activation_batch(InputClass::ImageLike, 64, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn synthetic_traces_are_sorted_deterministic_and_in_range() {
        let config = TrafficConfig {
            requests: 500,
            models: 4,
            ..TrafficConfig::default()
        };
        let a = synthetic_trace(&config);
        let b = synthetic_trace(&config);
        assert_eq!(a, b, "same seed must reproduce the trace");
        assert_eq!(a.len(), 500);
        assert!(a
            .windows(2)
            .all(|w| w[0].arrival_cycles <= w[1].arrival_cycles));
        assert!(a.iter().all(|r| r.model < 4));
        assert!(a
            .iter()
            .all(|r| r.deadline_cycles == r.arrival_cycles + config.deadline_slack_cycles));
        let other = synthetic_trace(&TrafficConfig {
            seed: config.seed + 1,
            ..config
        });
        assert_ne!(a, other, "a different seed must change the trace");
    }

    #[test]
    fn burstiness_increases_consecutive_model_repeats() {
        let runs = |p: f64| -> usize {
            let trace = synthetic_trace(&TrafficConfig {
                requests: 2_000,
                burst_repeat_prob: p,
                ..TrafficConfig::default()
            });
            trace
                .windows(2)
                .filter(|w| w[0].model == w[1].model)
                .count()
        };
        let bursty = runs(0.8);
        let uniform = runs(0.0);
        assert!(
            bursty > uniform + 200,
            "repeat probability must create model runs ({bursty} vs {uniform})"
        );
    }

    #[test]
    fn trace_interarrival_follows_the_configured_mean() {
        let config = TrafficConfig {
            requests: 5_000,
            mean_interarrival_cycles: 1_000.0,
            ..TrafficConfig::default()
        };
        let trace = synthetic_trace(&config);
        let span = trace.last().unwrap().arrival_cycles - trace[0].arrival_cycles;
        let mean = span as f64 / (trace.len() - 1) as f64;
        assert!(
            (mean - 1_000.0).abs() < 100.0,
            "empirical inter-arrival mean {mean} too far from 1000"
        );
    }

    #[test]
    fn poisson_shape_ignores_burst_correlation() {
        let repeats = |shape: ArrivalShape| -> usize {
            let trace = synthetic_trace(&TrafficConfig {
                requests: 2_000,
                burst_repeat_prob: 0.9,
                shape,
                ..TrafficConfig::default()
            });
            trace
                .windows(2)
                .filter(|w| w[0].model == w[1].model)
                .count()
        };
        let bursty = repeats(ArrivalShape::BurstyExponential);
        let poisson = repeats(ArrivalShape::Poisson);
        // With 4 models, memoryless choice repeats ~25 % of the time; a 0.9
        // repeat probability pushes the bursty trace far above that.
        assert!(
            poisson < 700 && bursty > 1_500,
            "poisson {poisson} vs bursty {bursty}"
        );
    }

    #[test]
    fn poisson_interarrival_follows_the_configured_mean() {
        let trace = synthetic_trace(&TrafficConfig {
            requests: 5_000,
            mean_interarrival_cycles: 1_000.0,
            shape: ArrivalShape::Poisson,
            ..TrafficConfig::default()
        });
        let span = trace.last().unwrap().arrival_cycles - trace[0].arrival_cycles;
        let mean = span as f64 / (trace.len() - 1) as f64;
        assert!((mean - 1_000.0).abs() < 100.0, "poisson mean {mean}");
    }

    #[test]
    fn diurnal_wave_concentrates_arrivals_at_the_peak() {
        let period = 1_000_000u64;
        let trace = synthetic_trace(&TrafficConfig {
            requests: 8_000,
            mean_interarrival_cycles: 500.0,
            shape: ArrivalShape::DiurnalWave {
                period_cycles: period,
                amplitude: 0.8,
            },
            ..TrafficConfig::default()
        });
        // Count arrivals in the rising half-wave (rate > base) vs the
        // falling half-wave of each period.
        let (mut peak, mut trough) = (0usize, 0usize);
        for r in &trace {
            if (r.arrival_cycles % period) < period / 2 {
                peak += 1;
            } else {
                trough += 1;
            }
        }
        assert!(
            peak as f64 > 1.5 * trough as f64,
            "the wave must modulate arrival density (peak {peak}, trough {trough})"
        );
        assert!(trace
            .windows(2)
            .all(|w| w[0].arrival_cycles <= w[1].arrival_cycles));
    }

    #[test]
    fn all_shapes_are_deterministic_per_seed() {
        for shape in [
            ArrivalShape::BurstyExponential,
            ArrivalShape::Poisson,
            ArrivalShape::DiurnalWave {
                period_cycles: 50_000,
                amplitude: 0.5,
            },
        ] {
            let config = TrafficConfig {
                requests: 300,
                shape,
                ..TrafficConfig::default()
            };
            assert_eq!(synthetic_trace(&config), synthetic_trace(&config));
        }
    }

    #[test]
    #[should_panic(expected = "at least one model")]
    fn zero_model_trace_is_rejected() {
        let _ = synthetic_trace(&TrafficConfig {
            models: 0,
            ..TrafficConfig::default()
        });
    }

    #[test]
    fn streamed_traces_match_the_eager_generator_byte_for_byte() {
        // The stream and the eager generator must never drift: every shape
        // and SLO mix, request by request.
        for shape in [
            ArrivalShape::BurstyExponential,
            ArrivalShape::Poisson,
            ArrivalShape::DiurnalWave {
                period_cycles: 40_000,
                amplitude: 0.7,
            },
        ] {
            for slo_mix in [
                SloMix::AllStandard,
                SloMix::Mixed {
                    latency_share: 0.25,
                    best_effort_share: 0.25,
                },
            ] {
                let config = TrafficConfig {
                    requests: 1_000,
                    shape,
                    slo_mix,
                    ..TrafficConfig::default()
                };
                let eager = synthetic_trace(&config);
                let streamed: Vec<TraceRequest> = TraceStream::new(&config).collect();
                assert_eq!(eager, streamed, "{shape:?}/{slo_mix:?} drifted");
            }
        }
    }

    #[test]
    fn trace_stream_reports_exact_length_and_fuses() {
        let config = TrafficConfig {
            requests: 17,
            ..TrafficConfig::default()
        };
        let mut stream = TraceStream::new(&config);
        assert_eq!(stream.len(), 17);
        assert_eq!(stream.size_hint(), (17, Some(17)));
        for left in (0..17usize).rev() {
            assert!(stream.next().is_some());
            assert_eq!(stream.remaining(), left);
        }
        assert!(stream.next().is_none());
        assert!(stream.next().is_none(), "the stream must fuse");
        assert_eq!(stream.len(), 0);
    }

    #[test]
    fn arrivals_saturate_instead_of_wrapping_on_long_horizons() {
        // An absurd mean drives every gap past u64::MAX: arrivals must pin
        // at the ceiling (sorted, deadline clamped), never wrap past zero.
        for shape in [
            ArrivalShape::BurstyExponential,
            ArrivalShape::DiurnalWave {
                period_cycles: 1_000,
                amplitude: 0.9,
            },
        ] {
            let trace = synthetic_trace(&TrafficConfig {
                requests: 8,
                mean_interarrival_cycles: 1e40,
                deadline_slack_cycles: u64::MAX,
                shape,
                ..TrafficConfig::default()
            });
            assert!(
                trace
                    .iter()
                    .all(|r| r.arrival_cycles == u64::MAX && r.deadline_cycles == u64::MAX),
                "{shape:?} must saturate at the u64 ceiling"
            );
            assert!(trace
                .windows(2)
                .all(|w| w[0].arrival_cycles <= w[1].arrival_cycles));
        }
    }

    #[test]
    fn saturated_deadlines_never_precede_their_arrival() {
        // Near the ceiling the deadline add saturates too: deadline >=
        // arrival holds even when arrival + slack would wrap.
        let trace = synthetic_trace(&TrafficConfig {
            requests: 64,
            mean_interarrival_cycles: 2e18, // gaps straddle the u64 boundary
            deadline_slack_cycles: u64::MAX / 2,
            ..TrafficConfig::default()
        });
        assert!(trace.iter().all(|r| r.deadline_cycles >= r.arrival_cycles));
        assert_eq!(trace.last().unwrap().arrival_cycles, u64::MAX);
    }

    #[test]
    fn default_mix_is_all_standard_and_class_draws_leave_arrivals_untouched() {
        let base = TrafficConfig {
            requests: 400,
            ..TrafficConfig::default()
        };
        let plain = synthetic_trace(&base);
        assert!(plain.iter().all(|r| r.slo == SloClass::Standard));
        // Mixing in SLO classes must not move a single arrival or model
        // choice: the class stream is independent of the frozen trace draws.
        let mixed = synthetic_trace(&TrafficConfig {
            slo_mix: SloMix::Mixed {
                latency_share: 0.3,
                best_effort_share: 0.3,
            },
            ..base
        });
        for (a, b) in plain.iter().zip(&mixed) {
            assert_eq!(a.model, b.model);
            assert_eq!(a.arrival_cycles, b.arrival_cycles);
            assert_eq!(a.deadline_cycles, b.deadline_cycles);
        }
    }

    #[test]
    fn mixed_slo_shares_are_respected_and_deterministic() {
        let config = TrafficConfig {
            requests: 4_000,
            slo_mix: SloMix::Mixed {
                latency_share: 0.2,
                best_effort_share: 0.3,
            },
            ..TrafficConfig::default()
        };
        let trace = synthetic_trace(&config);
        assert_eq!(trace, synthetic_trace(&config));
        let count = |class: SloClass| trace.iter().filter(|r| r.slo == class).count() as f64;
        let n = trace.len() as f64;
        assert!((count(SloClass::LatencySensitive) / n - 0.2).abs() < 0.05);
        assert!((count(SloClass::BestEffort) / n - 0.3).abs() < 0.05);
        assert!((count(SloClass::Standard) / n - 0.5).abs() < 0.05);
    }

    #[test]
    fn slo_classes_order_by_priority() {
        assert!(SloClass::LatencySensitive > SloClass::Standard);
        assert!(SloClass::Standard > SloClass::BestEffort);
        assert_eq!(SloClass::default(), SloClass::Standard);
        for (i, class) in SloClass::ALL.iter().enumerate() {
            assert_eq!(class.index(), i);
        }
    }

    #[test]
    fn chaos_plans_are_deterministic_sorted_and_seed_sensitive() {
        let config = ChaosConfig {
            deaths: 3,
            degradations: 4,
            ..ChaosConfig::default()
        };
        let a = chaos_fault_plan(&config);
        let b = chaos_fault_plan(&config);
        assert_eq!(a, b, "same seed must reproduce the plan");
        assert!(!a.is_empty());
        assert!(a
            .events
            .windows(2)
            .all(|w| w[0].at_cycles <= w[1].at_cycles));
        let other = chaos_fault_plan(&ChaosConfig {
            seed: config.seed + 1,
            ..config
        });
        assert_ne!(a, other, "a different seed must change the plan");
    }

    #[test]
    fn chaos_plans_keep_every_shard_alive_and_never_kill_twice() {
        for seed in 0..32u64 {
            let config = ChaosConfig {
                shards: 3,
                chips_per_shard: 3,
                deaths: 20, // far more than the fleet can absorb
                degradations: 5,
                seed,
                ..ChaosConfig::default()
            };
            let plan = chaos_fault_plan(&config);
            let mut dead: Vec<Vec<bool>> = vec![vec![false; 3]; 3];
            for event in &plan.events {
                match event.kind {
                    FaultKind::ChipDeath { shard, chip } => {
                        assert!(!dead[shard][chip], "chip died twice (seed {seed})");
                        dead[shard][chip] = true;
                    }
                    FaultKind::Degradation { shard, chip, .. }
                    | FaultKind::Recovery { shard, chip } => {
                        assert!(
                            !dead[shard][chip],
                            "degradation episode targets a death target (seed {seed})"
                        );
                    }
                }
            }
            for (shard, chips) in dead.iter().enumerate() {
                assert!(
                    chips.iter().any(|&d| !d),
                    "shard {shard} lost every chip (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn chaos_recoveries_strike_after_their_degradation() {
        let plan = chaos_fault_plan(&ChaosConfig {
            shards: 2,
            chips_per_shard: 4,
            deaths: 0,
            degradations: 12,
            recovery_prob: 1.0,
            seed: 7,
            ..ChaosConfig::default()
        });
        for event in &plan.events {
            if let FaultKind::Recovery { shard, chip } = event.kind {
                let degraded_before = plan.events.iter().any(|e| {
                    e.at_cycles < event.at_cycles
                        && matches!(
                            e.kind,
                            FaultKind::Degradation { shard: s, chip: c, .. }
                                if s == shard && c == chip
                        )
                });
                assert!(degraded_before, "recovery without a prior degradation");
            }
        }
    }

    #[test]
    fn chaos_stream_is_independent_of_the_trace_stream() {
        // Generating a fault plan must not perturb the frozen trace draws —
        // the chaos generator owns a dedicated RNG stream.
        let traffic = TrafficConfig {
            requests: 200,
            ..TrafficConfig::default()
        };
        let before = synthetic_trace(&traffic);
        let _ = chaos_fault_plan(&ChaosConfig {
            seed: traffic.seed, // even sharing the seed changes nothing
            ..ChaosConfig::default()
        });
        assert_eq!(before, synthetic_trace(&traffic));
    }

    #[test]
    fn fault_kind_tags_cover_every_variant() {
        let kinds = [
            FaultKind::ChipDeath { shard: 0, chip: 0 },
            FaultKind::Degradation {
                shard: 0,
                chip: 1,
                slowdown_percent: 30,
            },
            FaultKind::Recovery { shard: 1, chip: 0 },
        ];
        for kind in kinds {
            assert!(FaultKind::TAGS.contains(&kind.tag()));
        }
        let tags: Vec<&str> = kinds.iter().map(|k| k.tag()).collect();
        assert_eq!(tags, FaultKind::TAGS);
        assert_eq!(kinds[1].shard(), 0);
        assert_eq!(kinds[1].chip(), 1);
    }

    #[test]
    fn fault_plans_sort_into_canonical_order() {
        let death = FaultEvent {
            at_cycles: 100,
            kind: FaultKind::ChipDeath { shard: 1, chip: 0 },
        };
        let degrade = FaultEvent {
            at_cycles: 100,
            kind: FaultKind::Degradation {
                shard: 0,
                chip: 0,
                slowdown_percent: 25,
            },
        };
        let early = FaultEvent {
            at_cycles: 5,
            kind: FaultKind::Recovery { shard: 0, chip: 2 },
        };
        let plan = FaultPlan::new(vec![degrade, death, early]);
        assert_eq!(plan.events, vec![early, death, degrade]);
        assert_eq!(plan.len(), 3);
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid fault plan: events are not in canonical order")]
    fn unsorted_fault_plans_fail_validation() {
        FaultPlan {
            events: vec![
                FaultEvent {
                    at_cycles: 90,
                    kind: FaultKind::Recovery { shard: 0, chip: 0 },
                },
                FaultEvent {
                    at_cycles: 10,
                    kind: FaultKind::Degradation {
                        shard: 0,
                        chip: 0,
                        slowdown_percent: 50,
                    },
                },
            ],
        }
        .validate();
    }

    #[test]
    fn tiny_batches_are_handled() {
        let b = ActivationBatch {
            values: vec![7],
            class: InputClass::TokenLike,
        };
        assert_eq!(empirical_flip_fraction(&b), 0.0);
    }

    #[test]
    #[should_panic(expected = "duplicate ChipDeath")]
    fn duplicate_chip_deaths_fail_validation() {
        FaultPlan::new(vec![
            FaultEvent {
                at_cycles: 10,
                kind: FaultKind::ChipDeath { shard: 0, chip: 1 },
            },
            FaultEvent {
                at_cycles: 90,
                kind: FaultKind::ChipDeath { shard: 0, chip: 1 },
            },
        ])
        .validate();
    }

    #[test]
    #[should_panic(expected = "dead chips never come back")]
    fn recovery_of_a_dead_chip_fails_validation() {
        FaultPlan::new(vec![
            FaultEvent {
                at_cycles: 10,
                kind: FaultKind::ChipDeath { shard: 1, chip: 0 },
            },
            FaultEvent {
                at_cycles: 50,
                kind: FaultKind::Recovery { shard: 1, chip: 0 },
            },
        ])
        .validate();
    }

    #[test]
    fn validation_accepts_faults_on_distinct_chips() {
        // Same chip index on a *different* shard is a different chip.
        FaultPlan::new(vec![
            FaultEvent {
                at_cycles: 10,
                kind: FaultKind::ChipDeath { shard: 0, chip: 1 },
            },
            FaultEvent {
                at_cycles: 50,
                kind: FaultKind::Degradation {
                    shard: 1,
                    chip: 1,
                    slowdown_percent: 40,
                },
            },
            FaultEvent {
                at_cycles: 80,
                kind: FaultKind::Recovery { shard: 1, chip: 1 },
            },
        ])
        .validate();
    }

    #[test]
    fn region_fault_kinds_expose_stable_tags() {
        let kinds = [
            RegionFaultKind::RegionOutage { region: 0 },
            RegionFaultKind::RegionRecovery { region: 0 },
            RegionFaultKind::FlashCrowd {
                model: 1,
                requests: 8,
                mean_gap_cycles: 100,
            },
        ];
        let tags: Vec<&str> = kinds.iter().map(|k| k.tag()).collect();
        assert_eq!(tags, RegionFaultKind::TAGS);
        assert_eq!(kinds[0].region(), Some(0));
        assert_eq!(kinds[2].region(), None);
    }

    #[test]
    fn region_plans_sort_into_canonical_order() {
        let outage = RegionFaultEvent {
            at_cycles: 100,
            kind: RegionFaultKind::RegionOutage { region: 1 },
        };
        let crowd = RegionFaultEvent {
            at_cycles: 100,
            kind: RegionFaultKind::FlashCrowd {
                model: 0,
                requests: 4,
                mean_gap_cycles: 50,
            },
        };
        let early = RegionFaultEvent {
            at_cycles: 5,
            kind: RegionFaultKind::RegionOutage { region: 0 },
        };
        let plan = RegionFaultPlan::new(vec![crowd, outage, early]);
        assert_eq!(plan.events, vec![early, outage, crowd]);
        assert_eq!(plan.len(), 3);
        assert!(RegionFaultPlan::none().is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid region plan: events are not in canonical order")]
    fn unsorted_region_plans_fail_validation() {
        RegionFaultPlan {
            events: vec![
                RegionFaultEvent {
                    at_cycles: 90,
                    kind: RegionFaultKind::RegionRecovery { region: 0 },
                },
                RegionFaultEvent {
                    at_cycles: 10,
                    kind: RegionFaultKind::RegionOutage { region: 0 },
                },
            ],
        }
        .validate(1, 1);
    }

    #[test]
    #[should_panic(expected = "duplicate RegionOutage")]
    fn double_outage_of_one_region_fails_validation() {
        RegionFaultPlan::new(vec![
            RegionFaultEvent {
                at_cycles: 10,
                kind: RegionFaultKind::RegionOutage { region: 0 },
            },
            RegionFaultEvent {
                at_cycles: 90,
                kind: RegionFaultKind::RegionOutage { region: 0 },
            },
        ])
        .validate(2, 1);
    }

    #[test]
    #[should_panic(expected = "without a preceding open outage")]
    fn recovery_without_an_outage_fails_validation() {
        RegionFaultPlan::new(vec![RegionFaultEvent {
            at_cycles: 40,
            kind: RegionFaultKind::RegionRecovery { region: 1 },
        }])
        .validate(2, 1);
    }

    #[test]
    fn outage_recovery_outage_cycles_are_valid() {
        RegionFaultPlan::new(vec![
            RegionFaultEvent {
                at_cycles: 10,
                kind: RegionFaultKind::RegionOutage { region: 0 },
            },
            RegionFaultEvent {
                at_cycles: 50,
                kind: RegionFaultKind::RegionRecovery { region: 0 },
            },
            RegionFaultEvent {
                at_cycles: 80,
                kind: RegionFaultKind::RegionOutage { region: 0 },
            },
        ])
        .validate(1, 1);
    }

    #[test]
    fn region_chaos_plans_are_deterministic_and_valid() {
        let config = RegionChaosConfig {
            regions: 3,
            models: 2,
            outages: 3,
            flash_crowds: 2,
            ..RegionChaosConfig::default()
        };
        let a = region_chaos_plan(&config);
        let b = region_chaos_plan(&config);
        assert_eq!(a, b);
        a.validate(config.regions, config.models);
        assert!(a
            .events
            .iter()
            .any(|e| matches!(e.kind, RegionFaultKind::RegionOutage { .. })));
    }

    #[test]
    fn region_chaos_stream_is_independent_of_the_other_streams() {
        // Same seed, three different generators: the trace, the chip-fault
        // plan and the region plan each read a dedicated stream, so no one
        // of them perturbs another.
        let seed = 0xABCDE;
        let trace_before = synthetic_trace(&TrafficConfig {
            seed,
            ..TrafficConfig::default()
        });
        let chips_before = chaos_fault_plan(&ChaosConfig {
            seed,
            ..ChaosConfig::default()
        });
        let _regions = region_chaos_plan(&RegionChaosConfig {
            seed,
            ..RegionChaosConfig::default()
        });
        let trace_after = synthetic_trace(&TrafficConfig {
            seed,
            ..TrafficConfig::default()
        });
        let chips_after = chaos_fault_plan(&ChaosConfig {
            seed,
            ..ChaosConfig::default()
        });
        assert_eq!(trace_before, trace_after);
        assert_eq!(chips_before, chips_after);
    }

    #[test]
    fn flash_crowds_amplify_the_trace_without_perturbing_the_base() {
        let base = synthetic_trace(&TrafficConfig::default());
        let plan = RegionFaultPlan::new(vec![RegionFaultEvent {
            at_cycles: 1_000,
            kind: RegionFaultKind::FlashCrowd {
                model: 1,
                requests: 12,
                mean_gap_cycles: 200,
            },
        }]);
        let merged = with_flash_crowds(&base, &plan, 30_000, 0x5E21E);
        assert_eq!(merged.len(), base.len() + 12);
        // Every base request survives untouched.
        let surged: Vec<&TraceRequest> = merged
            .iter()
            .filter(|r| r.slo == SloClass::BestEffort && r.model == 1)
            .collect();
        assert!(surged.len() >= 12);
        assert!(surged.iter().all(|r| r.arrival_cycles > 1_000));
        // Arrivals stay sorted after the merge.
        assert!(merged
            .windows(2)
            .all(|w| w[0].arrival_cycles <= w[1].arrival_cycles));
        // And the merge is a pure function of its inputs.
        assert_eq!(merged, with_flash_crowds(&base, &plan, 30_000, 0x5E21E));
    }

    #[test]
    fn an_empty_region_plan_leaves_the_trace_byte_identical() {
        let base = synthetic_trace(&TrafficConfig::default());
        assert_eq!(
            with_flash_crowds(&base, &RegionFaultPlan::none(), 30_000, 7),
            base
        );
    }
}
