//! `fleet-10k`: sharded rounds of 10 000 lazily materialized clients
//! over 8 shards, 4 local steps per client, `FleetConfig::DEFAULT_BATCH`
//! — the `benches/fleet.rs --quick` topology, run over several rounds.
//! (The 100 000-client profile takes 4–6 s a rep, too long for the
//! fastest-rep summary to find an undisturbed one in a 30 s run.)
//!
//! A rep builds a fresh fleet (set-up) and runs [`ROUNDS`] rounds.
//! Untraced reps drive `DeviceFleetFactory` with no recorder; traced reps
//! drive the same factory through [`TimedFactory`] and keep the spans the
//! fleet emits. Every rep of a run uses the same seed, so every rep —
//! traced or not — must commit the same global model.

use std::sync::atomic::Ordering;
use std::time::Instant;

use fedpower_core::experiment::DeviceFleetFactory;
use fedpower_core::{ExperimentConfig, FleetSpec};
use fedpower_federated::report::RoundReport;
use fedpower_federated::{Fleet, FleetClientFactory, FleetConfig, WorkerPool};
use fedpower_sim::rng::derive_seed;
use fedpower_telemetry::{NullRecorder, Recorder};

use crate::probe::{HeapWatch, Probe, SharedLog, TimedFactory};
use crate::{mean, repeat_for, Args, Layers, Outcome, RepSample, Samples, Summary};

const CLIENTS: usize = 10_000;
const SHARDS: usize = 8;
const STEPS: u64 = 4;
/// Rounds per rep.
const ROUNDS: u64 = 2;

fn config(seed: u64) -> ExperimentConfig {
    ExperimentConfig::builder()
        .quick(true)
        .rounds(ROUNDS)
        .steps_per_round(STEPS)
        .fleet(Some(FleetSpec {
            clients: CLIENTS,
            shards: SHARDS,
        }))
        .seed(derive_seed(seed, 2_000))
        .build()
        .expect("valid fleet configuration")
}

struct Rep {
    setup: f64,
    round_walls: Vec<f64>,
    reports: Vec<RoundReport>,
    global: Vec<f32>,
    peak_mib: f64,
}

impl Rep {
    fn wall(&self) -> f64 {
        self.round_walls.iter().sum()
    }
}

fn rep<F: FleetClientFactory>(
    cfg: &ExperimentConfig,
    factory: impl FnOnce() -> F,
    recorder: Box<dyn Recorder>,
) -> Rep {
    let fleet_cfg = FleetConfig {
        fedavg: cfg.fedavg,
        num_clients: CLIENTS,
        shards: SHARDS,
        batch: FleetConfig::DEFAULT_BATCH,
    };
    let heap = HeapWatch::start();
    let start = Instant::now();
    let mut fleet = Fleet::with_options(factory(), fleet_cfg, None, recorder).expect("valid fleet");
    let setup = start.elapsed().as_secs_f64();
    let mut round_walls = Vec::new();
    let mut reports = Vec::new();
    for _ in 0..ROUNDS {
        let t = Instant::now();
        reports.push(fleet.run_round());
        round_walls.push(t.elapsed().as_secs_f64());
    }
    Rep {
        setup,
        round_walls,
        reports,
        global: fleet.global_params().to_vec(),
        peak_mib: heap.peak_mib(),
    }
}

/// Per-rep layer times of one traced rep.
struct TracedRep {
    wall: f64,
    agent_self: f64,
    agent_train: f64,
    env_steps: f64,
    fleet_self: f64,
    materialize: f64,
    materialized: f64,
    shard: f64,
    shard_max: f64,
    idle_pct: f64,
    aggregate: f64,
    broadcast: f64,
}

fn traced_rep(cfg: &ExperimentConfig) -> (Rep, TracedRep) {
    let probe = Probe::new(false);
    let log = SharedLog::new(&[], true);
    let r = rep(
        cfg,
        || TimedFactory::new(DeviceFleetFactory::new(cfg), &probe),
        Box::new(log.clone()),
    );
    let log = log.take();
    let workers = WorkerPool::default().workers() as f64;
    let span_sum = |name: &str| -> f64 {
        log.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.seconds)
            .sum()
    };
    let shard_max: f64 = (1..=ROUNDS)
        .map(|round| {
            log.spans
                .iter()
                .filter(|s| s.name == "shard" && s.round == round)
                .map(|s| s.seconds)
                .fold(0.0, f64::max)
        })
        .sum();
    let fanout: f64 = r.reports.iter().map(|x| x.timing.train_s).sum();
    let client = Probe::secs(&probe.client_ns);
    let shard = span_sum("shard");
    let (aggregate, broadcast) = (span_sum("aggregate"), span_sum("broadcast"));
    let t = TracedRep {
        wall: r.wall(),
        agent_self: client / workers,
        agent_train: Probe::secs(&probe.train_ns),
        env_steps: probe.env_steps.load(Ordering::SeqCst) as f64,
        fleet_self: fanout - client / workers + aggregate + broadcast,
        materialize: Probe::secs(&probe.materialize_ns),
        materialized: probe.materialized.load(Ordering::SeqCst) as f64,
        shard,
        shard_max: shard_max / ROUNDS as f64,
        idle_pct: 100.0 * (1.0 - shard / (workers * fanout)),
        aggregate,
        broadcast,
    };
    (r, t)
}

pub fn run(args: &Args) -> Outcome {
    let cfg = config(args.seed);
    let mut out = Outcome::default();
    let mut e2e = Samples::default();
    let mut global: Option<Vec<f32>> = None;
    let mut traced = Vec::new();

    let mut check = |out: &mut Outcome, r: &Rep, label: &str| {
        for report in &r.reports {
            out.check(
                report.participants == CLIENTS && report.uploads_ok == CLIENTS,
                || {
                    format!(
                        "{label} round {}: {} participants, {} uploads for {CLIENTS} clients",
                        report.round, report.participants, report.uploads_ok
                    )
                },
            );
        }
        out.check(r.global.iter().all(|p| p.is_finite()), || {
            format!("{label}: the committed global is not finite")
        });
        match &global {
            None => global = Some(r.global.clone()),
            Some(g) => out.check(*g == r.global, || {
                format!("{label}: the committed global differs from the first rep's")
            }),
        }
    };

    repeat_for(args.seconds, 2, |i| {
        let r = rep(
            &cfg,
            || DeviceFleetFactory::new(&cfg),
            Box::new(NullRecorder),
        );
        check(&mut out, &r, &format!("rep {i}"));
        let committed = e2e.account(&mut out, &r.reports);
        e2e.setups.push(r.setup);
        e2e.reps.push(RepSample {
            wall: r.wall(),
            committed,
            rounds_ms: r.round_walls.iter().map(|w| w * 1e3).collect(),
            peak_mib: r.peak_mib,
        });
        if args.trace {
            let (r, t) = traced_rep(&cfg);
            check(&mut out, &r, &format!("traced rep {i}"));
            Samples::default().account(&mut out, &r.reports);
            traced.push(t);
        }
    });

    if !args.trace {
        e2e.report(&mut out, Summary::Fastest);
        return out;
    }
    let mut layers = Layers::default();
    let avg = |f: &dyn Fn(&TracedRep) -> f64| mean(&traced.iter().map(f).collect::<Vec<_>>());
    layers.set("agent.self_s", avg(&|t| t.agent_self));
    layers.set("agent.train_s", avg(&|t| t.agent_train));
    layers.set("agent.env_steps", avg(&|t| t.env_steps));
    layers.set(
        "agent.us_per_step",
        1e6 * avg(&|t| t.agent_train) / avg(&|t| t.env_steps),
    );
    layers.set("fleet.self_s", avg(&|t| t.fleet_self));
    layers.set("fleet.materialize_s", avg(&|t| t.materialize));
    layers.set("fleet.materialized", avg(&|t| t.materialized));
    layers.set("fleet.shard_s", avg(&|t| t.shard));
    layers.set("fleet.shard_max_s", avg(&|t| t.shard_max));
    layers.set("fleet.worker_idle_pct", avg(&|t| t.idle_pct));
    layers.set("fleet.aggregate_s", avg(&|t| t.aggregate));
    layers.set("fleet.broadcast_s", avg(&|t| t.broadcast));
    let traced_walls: Vec<f64> = traced.iter().map(|t| t.wall).collect();
    layers.report(&mut out, &e2e, &traced_walls);
    out
}
