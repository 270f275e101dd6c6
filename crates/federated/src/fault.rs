//! Fault injection for the federation: seed-deterministic fault plans and
//! the one actuator that applies them to every in-process driver.
//!
//! Real edge fleets are not the paper's idealized synchronous ring: uploads
//! are lost, devices straggle behind the round cadence, sensors glitch
//! parameters into NaN, and nodes crash and rejoin. This module injects
//! exactly those failures — reproducibly — so the orchestration layer's
//! resilience (quorum, retries, staleness discounting, admission checks)
//! can be tested instead of assumed.
//!
//! Design:
//!
//! * [`FaultPlan`] decides *ahead of time* which fault (if any) hits each
//!   `(client, round)` cell. Plans are pure functions of
//!   `(FaultConfig, clients, rounds, seed)`, so a run with faults is as
//!   reproducible as one without. At most one fault occupies a cell, and a
//!   crash occupies its whole outage exclusively — plan totals therefore
//!   reconcile exactly against [`crate::RoundReport`] accounting.
//! * A crate-private actuator realizes the plan for both
//!   [`crate::Federation`] and [`crate::Fleet`]: it says whether a client
//!   is offline, how its upload fares in flight (lost sends that spend the
//!   retry budget, a straggler held for later rounds, corruption), and
//!   whether its broadcast is dropped. The flat driver applies the answers
//!   to encoded frames (corruption re-seals the CRC, so server *admission*
//!   must reject the payload); the fleet applies them to decoded updates.
//!   One actuator means one semantics: the two drivers commit the same
//!   bytes under any plan.

use crate::wire;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How a corrupt update mangles its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CorruptionKind {
    /// Overwrites one parameter with NaN (a glitched sensor/serializer).
    NaN,
    /// Multiplies every parameter by a factor (a byzantine amplifier;
    /// negative factors flip the update's direction).
    Amplify(f32),
}

impl CorruptionKind {
    /// Applies the corruption to a parameter vector in place.
    pub fn apply(self, params: &mut [f32]) {
        match self {
            CorruptionKind::NaN => {
                if let Some(p) = params.first_mut() {
                    *p = f32::NAN;
                }
            }
            CorruptionKind::Amplify(factor) => {
                for p in params {
                    *p *= factor;
                }
            }
        }
    }

    /// Applies the corruption to a codec-compressed body in place — the
    /// quantized analogue of [`CorruptionKind::apply`]. `NaN` poisons the
    /// reconstruction (a NaN scale or sparse value makes every affected
    /// parameter non-finite); `Amplify` scales what the server will decode
    /// by exactly the same factor as the dense path (for linear
    /// quantization, scaling both `scale` and `zero_point` scales every
    /// reconstructed value).
    pub fn apply_coded(self, update: &mut wire::CodedUpdate) {
        use wire::CodedUpdate;
        match (self, update) {
            (CorruptionKind::NaN, CodedUpdate::Q8 { scale, .. })
            | (CorruptionKind::NaN, CodedUpdate::Q16 { scale, .. }) => *scale = f32::NAN,
            (CorruptionKind::NaN, CodedUpdate::TopK { values, .. }) => {
                if let Some(v) = values.first_mut() {
                    *v = f32::NAN;
                }
            }
            (
                CorruptionKind::Amplify(factor),
                CodedUpdate::Q8 {
                    scale, zero_point, ..
                },
            )
            | (
                CorruptionKind::Amplify(factor),
                CodedUpdate::Q16 {
                    scale, zero_point, ..
                },
            ) => {
                *scale *= factor;
                *zero_point *= factor;
            }
            (CorruptionKind::Amplify(factor), CodedUpdate::TopK { values, .. }) => {
                for v in values {
                    *v *= factor;
                }
            }
        }
    }
}

/// One scheduled fault in a `(client, round)` cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Fault {
    /// The upload is lost in transit `attempts` times before succeeding
    /// (whether it ever succeeds depends on the orchestrator's retry
    /// budget).
    UploadDrop {
        /// Transmissions lost before one can succeed.
        attempts: u64,
    },
    /// The global-model broadcast to this client is lost; it trains the
    /// next round from its stale parameters.
    DownloadDrop,
    /// The client trains but its upload arrives `delay_rounds` rounds
    /// late, to be applied with a staleness-discounted weight.
    Straggle {
        /// Rounds until the update surfaces.
        delay_rounds: u64,
    },
    /// The upload arrives on time but mangled; server admission should
    /// reject it.
    Corrupt(CorruptionKind),
    /// The device goes dark for `down_rounds` rounds (this one included),
    /// then rejoins and receives the current global model.
    Crash {
        /// Rounds offline, starting with the faulted round.
        down_rounds: u64,
    },
}

/// Per-round fault probabilities and magnitude bounds.
///
/// Each `(client, round)` cell draws **one** categorical outcome, so the
/// probabilities must sum to at most 1. Crash outages additionally block
/// the affected client's following `down_rounds − 1` cells from drawing
/// further faults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability an upload is dropped in transit.
    pub p_upload_drop: f64,
    /// Probability the broadcast to a client is dropped.
    pub p_download_drop: f64,
    /// Probability a client straggles (its update arrives late).
    pub p_straggle: f64,
    /// Probability an upload arrives corrupted (NaN injection).
    pub p_corrupt: f64,
    /// Probability a client crashes (goes offline for several rounds).
    pub p_crash: f64,
    /// Most transmissions a dropped upload loses before one can succeed.
    pub max_drop_attempts: u64,
    /// Longest straggler delay in rounds.
    pub max_straggle_rounds: u64,
    /// Longest crash outage in rounds.
    pub max_crash_rounds: u64,
}

impl FaultConfig {
    /// No faults at all.
    pub fn none() -> Self {
        FaultConfig {
            p_upload_drop: 0.0,
            p_download_drop: 0.0,
            p_straggle: 0.0,
            p_corrupt: 0.0,
            p_crash: 0.0,
            max_drop_attempts: 1,
            max_straggle_rounds: 1,
            max_crash_rounds: 1,
        }
    }

    /// A congested network: uploads and broadcasts get lost, nothing else.
    pub fn lossy_network() -> Self {
        FaultConfig {
            p_upload_drop: 0.2,
            p_download_drop: 0.1,
            max_drop_attempts: 2,
            ..FaultConfig::none()
        }
    }

    /// Heterogeneous hardware: some clients run behind the round cadence.
    pub fn stragglers() -> Self {
        FaultConfig {
            p_straggle: 0.25,
            max_straggle_rounds: 2,
            ..FaultConfig::none()
        }
    }

    /// Devices crash and rejoin; occasional transit loss.
    pub fn flaky_fleet() -> Self {
        FaultConfig {
            p_crash: 0.1,
            max_crash_rounds: 2,
            p_upload_drop: 0.1,
            max_drop_attempts: 1,
            ..FaultConfig::none()
        }
    }

    /// Everything at once, at moderate rates.
    pub fn chaos() -> Self {
        FaultConfig {
            p_upload_drop: 0.15,
            p_download_drop: 0.1,
            p_straggle: 0.1,
            p_corrupt: 0.05,
            p_crash: 0.05,
            max_drop_attempts: 3,
            max_straggle_rounds: 2,
            max_crash_rounds: 2,
        }
    }

    /// Sum of all fault probabilities.
    pub fn total_probability(&self) -> f64 {
        self.p_upload_drop + self.p_download_drop + self.p_straggle + self.p_corrupt + self.p_crash
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// Named fault profiles, so experiment configs and CLI flags can select a
/// fault model without spelling out probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FaultScenario {
    /// Fault-free (the paper's setting).
    #[default]
    None,
    /// [`FaultConfig::lossy_network`].
    LossyNetwork,
    /// [`FaultConfig::stragglers`].
    Stragglers,
    /// [`FaultConfig::flaky_fleet`].
    FlakyFleet,
    /// [`FaultConfig::chaos`].
    Chaos,
}

impl FaultScenario {
    /// Every scenario, for iteration in benches and docs.
    pub const ALL: [FaultScenario; 5] = [
        FaultScenario::None,
        FaultScenario::LossyNetwork,
        FaultScenario::Stragglers,
        FaultScenario::FlakyFleet,
        FaultScenario::Chaos,
    ];

    /// The scenario's fault probabilities.
    pub fn config(self) -> FaultConfig {
        match self {
            FaultScenario::None => FaultConfig::none(),
            FaultScenario::LossyNetwork => FaultConfig::lossy_network(),
            FaultScenario::Stragglers => FaultConfig::stragglers(),
            FaultScenario::FlakyFleet => FaultConfig::flaky_fleet(),
            FaultScenario::Chaos => FaultConfig::chaos(),
        }
    }

    /// The scenario's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            FaultScenario::None => "none",
            FaultScenario::LossyNetwork => "lossy-network",
            FaultScenario::Stragglers => "stragglers",
            FaultScenario::FlakyFleet => "flaky-fleet",
            FaultScenario::Chaos => "chaos",
        }
    }

    /// Parses a CLI name (`none`, `lossy-network`, `stragglers`,
    /// `flaky-fleet`, `chaos`).
    pub fn parse(s: &str) -> Option<Self> {
        FaultScenario::ALL.into_iter().find(|f| f.name() == s)
    }
}

/// Totals of a [`FaultPlan`], for reconciling against round reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PlanCounts {
    /// Scheduled upload-drop faults.
    pub upload_drops: usize,
    /// Scheduled broadcast drops.
    pub download_drops: usize,
    /// Scheduled straggler episodes.
    pub straggles: usize,
    /// Scheduled corruptions.
    pub corruptions: usize,
    /// Scheduled crash episodes.
    pub crashes: usize,
    /// Total client-rounds spent offline across all crashes (overlapping
    /// outages count once).
    pub crash_rounds: u64,
}

/// A deterministic schedule of faults: at most one per `(client, round)`.
///
/// Hand it to [`crate::FederationBuilder::fault_plan`] or
/// [`crate::Fleet::with_options`]; both drivers act it out through one
/// actuator, so a plan means the same in either.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    cells: BTreeMap<(usize, u64), Fault>,
}

impl FaultPlan {
    /// An empty plan (fault-free run).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Generates a plan for `num_clients` clients over rounds `1..=rounds`.
    ///
    /// The plan is a pure function of its arguments: the same seed always
    /// yields the same schedule, independent of the federation's own RNG
    /// streams. Each cell draws one categorical outcome; a crash blocks the
    /// client's remaining outage rounds from drawing further faults.
    ///
    /// # Panics
    ///
    /// Panics if `config`'s probabilities sum above 1 or a magnitude bound
    /// is zero.
    pub fn generate(config: &FaultConfig, num_clients: usize, rounds: u64, seed: u64) -> Self {
        assert!(
            config.total_probability() <= 1.0,
            "fault probabilities sum to {} > 1",
            config.total_probability()
        );
        assert!(
            config.max_drop_attempts > 0
                && config.max_straggle_rounds > 0
                && config.max_crash_rounds > 0,
            "fault magnitude bounds must be at least 1"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cells = BTreeMap::new();
        for client in 0..num_clients {
            let mut round = 1;
            while round <= rounds {
                let draw: f64 = rng.random();
                let mut threshold = config.p_crash;
                if draw < threshold {
                    let down_rounds = rng.random_range(1..=config.max_crash_rounds);
                    cells.insert((client, round), Fault::Crash { down_rounds });
                    round += down_rounds;
                    continue;
                }
                threshold += config.p_straggle;
                if draw < threshold {
                    let delay_rounds = rng.random_range(1..=config.max_straggle_rounds);
                    cells.insert((client, round), Fault::Straggle { delay_rounds });
                } else {
                    threshold += config.p_upload_drop;
                    if draw < threshold {
                        let attempts = rng.random_range(1..=config.max_drop_attempts);
                        cells.insert((client, round), Fault::UploadDrop { attempts });
                    } else {
                        threshold += config.p_download_drop;
                        if draw < threshold {
                            cells.insert((client, round), Fault::DownloadDrop);
                        } else if draw < threshold + config.p_corrupt {
                            cells.insert((client, round), Fault::Corrupt(CorruptionKind::NaN));
                        }
                    }
                }
                round += 1;
            }
        }
        FaultPlan { cells }
    }

    /// A byzantine plan: `client` uploads an `Amplify(factor)`-corrupted
    /// update every round of `1..=rounds` (the poisoning ablation).
    pub fn poison(client: usize, rounds: u64, factor: f32) -> Self {
        let mut plan = FaultPlan::none();
        for round in 1..=rounds {
            plan.insert(
                client,
                round,
                Fault::Corrupt(CorruptionKind::Amplify(factor)),
            );
        }
        plan
    }

    /// Schedules `fault` for `client` in `round` (replacing any previous
    /// fault in that cell). Crash outages may overlap; the client is then
    /// offline for their union.
    pub fn insert(&mut self, client: usize, round: u64, fault: Fault) {
        self.cells.insert((client, round), fault);
    }

    /// The fault scheduled for `client` in `round`, if any.
    pub fn fault_at(&self, client: usize, round: u64) -> Option<Fault> {
        self.cells.get(&(client, round)).copied()
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Iterates over `((client, round), fault)` cells in deterministic
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64, Fault)> + '_ {
        self.cells.iter().map(|(&(c, r), &f)| (c, r, f))
    }

    /// Tallies the plan per fault kind.
    pub fn counts(&self) -> PlanCounts {
        let mut counts = PlanCounts::default();
        for (_, _, fault) in self.iter() {
            match fault {
                Fault::UploadDrop { .. } => counts.upload_drops += 1,
                Fault::DownloadDrop => counts.download_drops += 1,
                Fault::Straggle { .. } => counts.straggles += 1,
                Fault::Corrupt(_) => counts.corruptions += 1,
                Fault::Crash { .. } => counts.crashes += 1,
            }
        }
        counts.crash_rounds = self
            .outages()
            .iter()
            .fold(0, |total: u64, (&(_, s), &e)| total.saturating_add(e - s));
        counts
    }

    /// The crash outages as disjoint round ranges `start..end`, keyed by
    /// `(client, start)`: overlapping crashes of one client merge into
    /// their union.
    fn outages(&self) -> BTreeMap<(usize, u64), u64> {
        let mut spans: Vec<(usize, u64, u64)> = Vec::new();
        for (client, round, fault) in self.iter() {
            let Fault::Crash { down_rounds } = fault else {
                continue;
            };
            let end = round.saturating_add(down_rounds);
            match spans.last_mut() {
                Some((c, _, e)) if *c == client && round <= *e => *e = (*e).max(end),
                _ => spans.push((client, round, end)),
            }
        }
        spans.into_iter().map(|(c, s, e)| ((c, s), e)).collect()
    }
}

/// Re-frames an upload — dense or codec-compressed — with its payload
/// mangled by `kind` and a freshly valid CRC, so it is the server's
/// admission check (not the checksum) that must catch it. Frames that do
/// not decode as uploads pass through untouched (the wire layer will
/// reject them anyway).
pub(crate) fn corrupt_frame(kind: CorruptionKind, frame: &[u8]) -> Vec<u8> {
    let Ok(mut env) = wire::Envelope::decode(frame) else {
        return frame.to_vec();
    };
    match &mut env.payload {
        wire::Payload::ModelUpload { params, .. } => kind.apply(params),
        wire::Payload::CodecUpload { update, .. } => kind.apply_coded(update),
        _ => return frame.to_vec(),
    }
    env.encode()
}

/// How one client's upload fares in flight in one round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Upload {
    /// Arrives after `retries` lost sends, each answered by a retry;
    /// mangled by `corrupt` on the way when set.
    Arrives {
        /// Sends lost (and retried) before the one that lands.
        retries: u64,
        /// In-flight corruption of the landing send.
        corrupt: Option<CorruptionKind>,
    },
    /// Lost on every send: the remaining retry budget (`retries`) is
    /// spent and the round gives the upload up.
    Dropped {
        /// Retries spent before giving up.
        retries: u64,
    },
    /// Held in flight until round `ready`, then delivered
    /// staleness-discounted.
    Straggles {
        /// First round the upload may surface.
        ready: u64,
    },
}

/// A straggler's payload held in flight.
#[derive(Debug)]
struct Stashed<S> {
    /// Round the payload was trained in.
    origin: u64,
    /// First round it may surface.
    ready: u64,
    payload: S,
}

/// Applies a [`FaultPlan`] to a federation's rounds — the one fault
/// actuator every in-process driver asks.
///
/// It answers three questions per `(client, round)`: is the client
/// offline ([`FaultActuator::is_offline`]), what happens to its upload
/// given the retries it has left ([`FaultActuator::upload`]), and is its
/// broadcast dropped ([`FaultActuator::broadcast_dropped`]). Crash
/// outages are the *union* of the scheduled crashes: a later crash never
/// shortens an earlier outage. Stragglers wait in a single slot per
/// client (a client already straggling keeps its first payload); `S` is
/// whatever the driver moves — encoded frames for [`crate::Federation`],
/// decoded updates for [`crate::Fleet`].
#[derive(Debug)]
pub(crate) struct FaultActuator<S> {
    plan: FaultPlan,
    /// The plan's merged crash outages ([`FaultPlan::outages`]).
    outages: BTreeMap<(usize, u64), u64>,
    stash: BTreeMap<usize, Stashed<S>>,
}

impl<S> FaultActuator<S> {
    /// An actuator for `plan` with an empty straggler stash.
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultActuator {
            outages: plan.outages(),
            plan,
            stash: BTreeMap::new(),
        }
    }

    /// Whether `client` is inside a crash outage in `round`.
    pub(crate) fn is_offline(&self, client: usize, round: u64) -> bool {
        // Outages are disjoint, so only the last one starting by `round`
        // can cover it.
        self.outages
            .range(..=(client, round))
            .next_back()
            .is_some_and(|(&(c, _), &end)| c == client && round < end)
    }

    /// The clients offline in `round`, in id order.
    pub(crate) fn offline_in(&self, round: u64) -> impl Iterator<Item = usize> + '_ {
        self.outages
            .iter()
            .filter(move |(&(_, start), &end)| start <= round && round < end)
            .map(|(&(client, _), _)| client)
    }

    /// What happens to `client`'s upload in `round` when it has
    /// `retries_left` retries to spend.
    pub(crate) fn upload(&self, client: usize, round: u64, retries_left: u64) -> Upload {
        match self.plan.fault_at(client, round) {
            Some(Fault::Straggle { delay_rounds }) => Upload::Straggles {
                ready: round.saturating_add(delay_rounds),
            },
            Some(Fault::UploadDrop { attempts }) if attempts > retries_left => Upload::Dropped {
                retries: retries_left,
            },
            Some(Fault::UploadDrop { attempts }) => Upload::Arrives {
                retries: attempts,
                corrupt: None,
            },
            Some(Fault::Corrupt(kind)) => Upload::Arrives {
                retries: 0,
                corrupt: Some(kind),
            },
            _ => Upload::Arrives {
                retries: 0,
                corrupt: None,
            },
        }
    }

    /// Whether the broadcast to `client` in `round` is lost.
    pub(crate) fn broadcast_dropped(&self, client: usize, round: u64) -> bool {
        matches!(self.plan.fault_at(client, round), Some(Fault::DownloadDrop))
    }

    /// Holds a straggler's `payload`, trained in `origin`, until round
    /// `ready` — unless `client` already has one in flight, which it
    /// keeps.
    pub(crate) fn stash(&mut self, client: usize, origin: u64, ready: u64, payload: S) {
        self.stash.entry(client).or_insert(Stashed {
            origin,
            ready,
            payload,
        });
    }

    /// Clients with a straggler payload in flight, in id order.
    pub(crate) fn stashed(&self) -> Vec<usize> {
        self.stash.keys().copied().collect()
    }

    /// Hands over `client`'s straggler payload and its origin round once
    /// the delay has elapsed by `round` and the client is reachable.
    pub(crate) fn take_ready(&mut self, client: usize, round: u64) -> Option<(u64, S)> {
        let ready = self
            .stash
            .get(&client)
            .is_some_and(|s| round >= s.ready && !self.is_offline(client, round));
        if !ready {
            return None;
        }
        self.stash.remove(&client).map(|s| (s.origin, s.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ModelUpdate;

    #[test]
    fn plans_are_seed_deterministic() {
        let cfg = FaultConfig::chaos();
        let a = FaultPlan::generate(&cfg, 8, 50, 7);
        let b = FaultPlan::generate(&cfg, 8, 50, 7);
        let c = FaultPlan::generate(&cfg, 8, 50, 8);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should differ at chaos rates");
    }

    #[test]
    fn zero_probability_plan_is_empty() {
        let plan = FaultPlan::generate(&FaultConfig::none(), 8, 100, 3);
        assert!(plan.is_empty());
        assert_eq!(plan.counts(), PlanCounts::default());
    }

    #[test]
    fn chaos_plan_schedules_every_fault_kind() {
        let plan = FaultPlan::generate(&FaultConfig::chaos(), 16, 200, 11);
        let counts = plan.counts();
        assert!(counts.upload_drops > 0, "{counts:?}");
        assert!(counts.download_drops > 0, "{counts:?}");
        assert!(counts.straggles > 0, "{counts:?}");
        assert!(counts.corruptions > 0, "{counts:?}");
        assert!(counts.crashes > 0, "{counts:?}");
        assert!(counts.crash_rounds >= counts.crashes as u64);
    }

    #[test]
    fn crash_outages_occupy_their_cells_exclusively() {
        let plan = FaultPlan::generate(&FaultConfig::chaos(), 16, 200, 5);
        for (client, round, fault) in plan.iter() {
            if let Fault::Crash { down_rounds } = fault {
                for later in round + 1..round + down_rounds {
                    assert_eq!(
                        plan.fault_at(client, later),
                        None,
                        "client {client} has a fault inside its outage"
                    );
                }
            }
        }
    }

    #[test]
    fn fault_rates_track_probabilities() {
        let cfg = FaultConfig::lossy_network();
        let plan = FaultPlan::generate(&cfg, 10, 1000, 13);
        let counts = plan.counts();
        let cells = 10.0 * 1000.0;
        let drop_rate = counts.upload_drops as f64 / cells;
        assert!(
            (drop_rate - cfg.p_upload_drop).abs() < 0.03,
            "upload-drop rate {drop_rate} far from {}",
            cfg.p_upload_drop
        );
    }

    #[test]
    fn scenario_names_round_trip() {
        for scenario in FaultScenario::ALL {
            assert_eq!(FaultScenario::parse(scenario.name()), Some(scenario));
        }
        assert_eq!(FaultScenario::parse("bogus"), None);
        assert!(FaultScenario::None.config().total_probability() == 0.0);
    }

    #[test]
    fn amplify_corruption_scales_parameters() {
        let mut params = vec![1.0, -2.0];
        CorruptionKind::Amplify(-10.0).apply(&mut params);
        assert_eq!(params, vec![-10.0, 20.0]);
    }

    #[test]
    fn poison_plan_corrupts_one_client_every_round() {
        let plan = FaultPlan::poison(4, 10, -10.0);
        assert_eq!(plan.len(), 10);
        for round in 1..=10 {
            assert_eq!(
                plan.fault_at(4, round),
                Some(Fault::Corrupt(CorruptionKind::Amplify(-10.0)))
            );
            assert_eq!(plan.fault_at(0, round), None);
        }
    }

    #[test]
    #[should_panic(expected = "probabilities")]
    fn overfull_probabilities_panic() {
        let mut cfg = FaultConfig::chaos();
        cfg.p_upload_drop = 0.9;
        let _ = FaultPlan::generate(&cfg, 2, 2, 0);
    }

    fn upload_frame(round: u64, client_id: usize) -> Vec<u8> {
        wire::encode_upload(
            round,
            &ModelUpdate {
                client_id,
                params: vec![1.0, 2.0, 3.0],
                num_samples: 10,
            },
        )
    }

    fn actuator(plan: &FaultPlan) -> FaultActuator<Vec<u8>> {
        FaultActuator::new(plan.clone())
    }

    const CLEAN: Upload = Upload::Arrives {
        retries: 0,
        corrupt: None,
    };

    #[test]
    fn plan_only_applies_to_matching_client_id() {
        let mut plan = FaultPlan::none();
        plan.insert(1, 1, Fault::DownloadDrop);
        plan.insert(1, 2, Fault::Crash { down_rounds: 1 });
        let faults = actuator(&plan);
        assert!(faults.broadcast_dropped(1, 1));
        assert!(!faults.broadcast_dropped(0, 1), "client 0 is unaffected");
        assert!(!faults.is_offline(0, 2));
        assert_eq!(faults.upload(0, 1, 2), CLEAN);
    }

    #[test]
    fn upload_drop_costs_exactly_attempts_retries() {
        let mut plan = FaultPlan::none();
        plan.insert(0, 1, Fault::UploadDrop { attempts: 2 });
        let faults = actuator(&plan);
        assert_eq!(
            faults.upload(0, 1, 2),
            Upload::Arrives {
                retries: 2,
                corrupt: None
            },
            "third send lands"
        );
        assert_eq!(
            faults.upload(0, 1, 1),
            Upload::Dropped { retries: 1 },
            "a budget of one cannot outlast two lost sends"
        );
        assert_eq!(faults.upload(0, 2, 2), CLEAN, "next round clean");
    }

    #[test]
    fn straggler_payload_waits_in_a_single_slot() {
        let mut plan = FaultPlan::none();
        plan.insert(0, 1, Fault::Straggle { delay_rounds: 2 });
        let mut faults = actuator(&plan);
        assert_eq!(faults.upload(0, 1, 2), Upload::Straggles { ready: 3 });
        let frame = upload_frame(1, 0);
        faults.stash(0, 1, 3, frame.clone());
        faults.stash(0, 2, 3, upload_frame(2, 0));
        assert_eq!(faults.stashed(), vec![0]);
        assert_eq!(faults.take_ready(0, 2), None, "not ready yet");
        let (origin, delivered) = faults.take_ready(0, 3).expect("delay elapsed");
        assert_eq!(origin, 1);
        assert_eq!(delivered, frame, "the first payload surfaces verbatim");
        let (round, update) = wire::decode_upload(&delivered).unwrap();
        assert_eq!(round, 1, "origin round rides inside the frame");
        assert_eq!(update.params, vec![1.0, 2.0, 3.0]);
        assert_eq!(faults.take_ready(0, 4), None, "stash drains once");
        assert!(faults.stashed().is_empty());
    }

    #[test]
    fn straggler_payload_waits_out_a_crash() {
        let mut plan = FaultPlan::none();
        plan.insert(0, 1, Fault::Straggle { delay_rounds: 1 });
        plan.insert(0, 2, Fault::Crash { down_rounds: 2 });
        let mut faults = actuator(&plan);
        faults.stash(0, 1, 2, upload_frame(1, 0));
        assert_eq!(faults.take_ready(0, 2), None, "offline in round 2");
        assert_eq!(faults.take_ready(0, 3), None, "offline in round 3");
        assert!(faults.take_ready(0, 4).is_some(), "delivered on rejoin");
    }

    #[test]
    fn corruption_mangles_bytes_but_keeps_the_frame_decodable() {
        let mut plan = FaultPlan::none();
        plan.insert(0, 1, Fault::Corrupt(CorruptionKind::NaN));
        let Upload::Arrives {
            retries: 0,
            corrupt: Some(kind),
        } = actuator(&plan).upload(0, 1, 2)
        else {
            panic!("a corrupt cell arrives mangled");
        };
        let delivered = corrupt_frame(kind, &upload_frame(1, 0));
        // The frame is re-sealed: the CRC passes, so the rejection must
        // come from server admission, exactly like a glitched-but-framed
        // sensor value would.
        let (_, update) = wire::decode_upload(&delivered).expect("CRC still valid");
        assert!(update.params[0].is_nan());
        assert!(update.params[1..].iter().all(|p| p.is_finite()));
        let not_an_upload = wire::encode_broadcast(1, 0, &[1.0]);
        assert_eq!(corrupt_frame(kind, &not_an_upload), not_an_upload);
    }

    #[test]
    fn corruption_survives_codec_frames() {
        let update = ModelUpdate {
            client_id: 0,
            params: vec![1.0, 2.0, 3.0],
            num_samples: 10,
        };
        let reference = vec![0.0f32; 3];
        let refs = {
            let mut w = wire::ReferenceWindow::default();
            w.push(0, reference.clone());
            w
        };
        let codecs = [
            wire::Codec::Q8,
            wire::Codec::Q16,
            wire::Codec::TopK { frac: 1.0 },
        ];
        // NaN poisoning re-seals the CRC, so the decode succeeds and it is
        // admission's finite check that must do the rejecting.
        for codec in codecs {
            let frame = wire::encode_upload_with(codec, 1, &update, Some((0, &reference)));
            let delivered = corrupt_frame(CorruptionKind::NaN, &frame);
            let (_, decoded) = wire::decode_upload_with(&delivered, wire::CODEC_VERSION, &refs)
                .expect("CRC still valid");
            assert!(decoded.params.iter().any(|p| p.is_nan()), "{codec}");
        }
        // Amplify scales what the server decodes by exactly the factor,
        // matching the dense corruption semantics.
        for codec in codecs {
            let frame = wire::encode_upload_with(codec, 1, &update, Some((0, &reference)));
            let delivered = corrupt_frame(CorruptionKind::Amplify(2.0), &frame);
            let (_, mangled) =
                wire::decode_upload_with(&delivered, wire::CODEC_VERSION, &refs).unwrap();
            let (_, clean) = wire::decode_upload_with(&frame, wire::CODEC_VERSION, &refs).unwrap();
            for (c, m) in clean.params.iter().zip(&mangled.params) {
                assert!((2.0 * c - m).abs() < 1e-4, "{codec}: clean {c} mangled {m}");
            }
        }
    }

    #[test]
    fn crash_takes_the_client_offline_then_rejoins() {
        let mut plan = FaultPlan::none();
        plan.insert(0, 2, Fault::Crash { down_rounds: 2 });
        let faults = actuator(&plan);
        assert!(!faults.is_offline(0, 1));
        assert!(faults.is_offline(0, 2));
        assert!(faults.is_offline(0, 3), "outage lasts two rounds");
        assert!(!faults.is_offline(0, 4), "rejoined");
        assert_eq!(faults.offline_in(3).collect::<Vec<_>>(), vec![0]);
        assert_eq!(faults.offline_in(4).count(), 0);
    }

    #[test]
    fn overlapping_crashes_take_the_union_of_their_outages() {
        let mut plan = FaultPlan::none();
        plan.insert(0, 2, Fault::Crash { down_rounds: 3 });
        plan.insert(0, 3, Fault::Crash { down_rounds: 1 });
        let faults = actuator(&plan);
        let offline: Vec<u64> = (1..=6).filter(|&r| faults.is_offline(0, r)).collect();
        assert_eq!(offline, vec![2, 3, 4], "the later crash does not shorten");
        assert_eq!(plan.counts().crash_rounds, 3, "each offline round once");
    }

    #[test]
    fn outages_cost_memory_per_crash_not_per_offline_round() {
        let mut plan = FaultPlan::none();
        plan.insert(1, 3, Fault::Crash { down_rounds: 4 });
        plan.insert(
            1,
            5,
            Fault::Crash {
                down_rounds: u64::MAX,
            },
        );
        plan.insert(
            2,
            1,
            Fault::Crash {
                down_rounds: 1_000_000_000,
            },
        );
        let faults = actuator(&plan);
        assert_eq!(faults.outages.len(), 2, "one merged range per client");
        assert!(!faults.is_offline(1, 2));
        assert!(faults.is_offline(1, u64::MAX - 1), "the end saturates");
        assert!(faults.is_offline(2, 1_000_000_000));
        assert!(!faults.is_offline(2, 1_000_000_001));
        assert!(!faults.is_offline(0, 7), "other clients stay online");
        assert_eq!(faults.offline_in(4).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(plan.counts().crash_rounds, u64::MAX, "the total saturates");
    }

    #[test]
    fn download_drop_swallows_only_that_rounds_broadcast() {
        let mut plan = FaultPlan::none();
        plan.insert(0, 1, Fault::DownloadDrop);
        let faults = actuator(&plan);
        assert!(faults.broadcast_dropped(0, 1));
        assert!(!faults.broadcast_dropped(0, 2));
        assert_eq!(faults.upload(0, 1, 2), CLEAN, "the upload is unaffected");
    }

    #[test]
    fn empty_plan_actuator_is_transparent() {
        let mut faults = actuator(&FaultPlan::none());
        for round in 1..=5 {
            assert!(!faults.is_offline(3, round));
            assert_eq!(faults.upload(3, round, 0), CLEAN);
            assert!(!faults.broadcast_dropped(3, round));
            assert_eq!(faults.take_ready(3, round), None);
        }
        assert!(faults.stashed().is_empty());
    }
}
