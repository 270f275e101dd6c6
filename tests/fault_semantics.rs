//! One fault semantics for both in-process drivers: the flat
//! [`Federation`] and the sharded [`Fleet`] apply a [`FaultPlan`] through
//! the same actuator, so a scripted plan — one cell per fault kind, or
//! overlapping crash outages a generated plan never produces — commits the
//! same bytes, reports, and event counts in both.

mod common;

use common::{MathClient, MathFleetFactory};
use fedpower::federated::report::{RoundReport, TransportStats};
use fedpower::federated::{
    CorruptionKind, Fault, FaultPlan, FedAvgConfig, Federation, Fleet, FleetConfig,
};
use fedpower::telemetry::{EventKind, MemoryRecorder};

type Run = (Vec<f32>, Vec<RoundReport>, TransportStats, MemoryRecorder);

fn fed_cfg(rounds: u64) -> FedAvgConfig {
    let mut cfg = FedAvgConfig::paper();
    cfg.rounds = rounds;
    cfg.steps_per_round = 1;
    cfg
}

fn flat_run(num_clients: usize, rounds: u64, plan: &FaultPlan) -> Run {
    let recorder = MemoryRecorder::new();
    let clients: Vec<MathClient> = (0..num_clients).map(MathClient::new).collect();
    let mut fed = Federation::builder(clients, fed_cfg(rounds))
        .seed(9)
        .fault_plan(plan)
        .recorder(Box::new(recorder.clone()))
        .build()
        .expect("flat federation constructs");
    let reports = fed.run();
    (
        fed.global_params().to_vec(),
        reports,
        *fed.transport(),
        recorder,
    )
}

fn fleet_run(num_clients: usize, shards: usize, rounds: u64, plan: &FaultPlan) -> Run {
    let recorder = MemoryRecorder::new();
    let config = FleetConfig {
        fedavg: fed_cfg(rounds),
        num_clients,
        shards,
        batch: FleetConfig::DEFAULT_BATCH,
    };
    let mut fleet = Fleet::with_options(
        MathFleetFactory,
        config,
        Some(plan),
        Box::new(recorder.clone()),
    )
    .expect("fleet constructs");
    let reports = fleet.run();
    (
        fleet.global_params().to_vec(),
        reports,
        *fleet.transport(),
        recorder,
    )
}

fn assert_same_run(flat: &Run, fleet: &Run) {
    assert_eq!(fleet.0, flat.0, "global bits differ");
    assert_eq!(fleet.1, flat.1, "round reports differ");
    assert_eq!(fleet.2, flat.2, "transport accounting differs");
}

/// One of each fault kind, scripted so the test pins the exact
/// semantics: a straggler delivering late, a dropped broadcast leaving
/// its client on a stale model, a crash outage pinning the pre-crash
/// model, a corrupt upload rejected by admission, and an upload drop
/// that outlasts the retry budget.
#[test]
fn scripted_faults_mean_the_same_in_both_drivers() {
    let mut plan = FaultPlan::none();
    plan.insert(0, 1, Fault::Straggle { delay_rounds: 1 });
    plan.insert(1, 1, Fault::DownloadDrop);
    plan.insert(2, 2, Fault::Crash { down_rounds: 2 });
    plan.insert(3, 2, Fault::Corrupt(CorruptionKind::NaN));
    plan.insert(4, 1, Fault::UploadDrop { attempts: 3 });
    let flat = flat_run(5, 5, &plan);
    for shards in [1, 2, 5] {
        let fleet = fleet_run(5, shards, 5, &plan);
        assert_same_run(&flat, &fleet);
        for recorder in [&flat.3, &fleet.3] {
            assert_eq!(recorder.count(EventKind::StragglerStarted), 1);
            assert_eq!(recorder.count(EventKind::StaleReceived), 1);
            assert_eq!(recorder.count(EventKind::StaleApplied), 1);
            assert_eq!(recorder.count(EventKind::DownloadDropped), 1);
            assert_eq!(recorder.count(EventKind::UpdateRejected), 1, "NaN rejected");
            assert_eq!(
                recorder.count(EventKind::ClientOffline),
                2,
                "two rounds of crash outage"
            );
            assert_eq!(
                recorder.count(EventKind::UploadDropped),
                1,
                "drop budget exhausted"
            );
            assert_eq!(
                recorder.count(EventKind::UploadRetry),
                2,
                "paper budget R=2"
            );
        }
    }
}

/// Overlapping crash outages take their union: a later, shorter crash
/// inside an outage never brings the client back early. Client 0 is
/// offline in rounds 2–4 in both drivers.
#[test]
fn overlapping_crash_outages_take_their_union() {
    let mut plan = FaultPlan::none();
    plan.insert(0, 2, Fault::Crash { down_rounds: 3 });
    plan.insert(0, 3, Fault::Crash { down_rounds: 1 });
    let flat = flat_run(3, 6, &plan);
    let offline: Vec<u64> = flat
        .1
        .iter()
        .filter(|r| r.offline > 0)
        .map(|r| r.round)
        .collect();
    assert_eq!(offline, vec![2, 3, 4], "flat driver outage");
    for shards in [1, 3] {
        assert_same_run(&flat, &fleet_run(3, shards, 6, &plan));
    }
}
