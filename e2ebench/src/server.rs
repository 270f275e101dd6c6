//! `server-loopback`: the standalone federation server and its clients in
//! one process. `netserver::serve_on` runs on a listener the benchmark
//! bound itself; two `netserver::run_client` sessions run on their own
//! threads with one connection each; q8 codec, [`ROUNDS`] rounds of
//! [`STEPS`] local steps.
//!
//! A rep is one session: set-up (clients built, listener bound, both
//! joins acknowledged and installed), then every round until the last
//! global is installed on both clients. All sessions of a run use the
//! same seed, so every session must end on the same global model.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Instant;

use fedpower_agent::PowerController;
use fedpower_core::scenario::table2_scenarios;
use fedpower_core::ExperimentConfig;
use fedpower_federated::{
    run_client, serve_on, AgentClient, Codec, FedAvgConfig, JoinOptions, ServeOptions, ServeReport,
};
use fedpower_sim::rng::derive_seed;
use fedpower_telemetry::EventKind;

use crate::probe::{Call, CallKind, EventLog, HeapWatch, Probe, SharedLog, Timed};
use crate::{
    device_env, mean, quantile, repeat_for, Args, Layers, Outcome, RepSample, Samples, Summary,
};

const ROUNDS: u64 = 200;
const STEPS: u64 = 8;
const SLOTS: usize = 2;

/// Server events a traced session timestamps.
const STAMPED: &[EventKind] = &[
    EventKind::UploadReceived,
    EventKind::UploadAdmitted,
    EventKind::Aggregated,
    EventKind::DownloadDelivered,
];

fn config(seed: u64) -> ExperimentConfig {
    ExperimentConfig::paper().with_seed(derive_seed(seed, 3_000))
}

fn fed_config(cfg: &ExperimentConfig) -> FedAvgConfig {
    FedAvgConfig {
        rounds: ROUNDS,
        steps_per_round: STEPS,
        codec: Codec::Q8,
        ..cfg.fedavg
    }
}

/// The first Table II scenario's two devices, seeded as the program
/// seeds federated clients.
fn clients(cfg: &ExperimentConfig) -> Vec<AgentClient> {
    table2_scenarios()[0]
        .devices()
        .into_iter()
        .enumerate()
        .map(|(d, apps)| {
            AgentClient::new(
                d,
                cfg.controller,
                device_env(apps, cfg),
                derive_seed(cfg.seed, 20 + d as u64),
            )
        })
        .collect()
}

fn initial_global(cfg: &ExperimentConfig) -> Vec<f32> {
    PowerController::new(cfg.controller, derive_seed(cfg.seed, 300)).params()
}

struct Session {
    setup: f64,
    wall: f64,
    peak_mib: f64,
    report: Result<ServeReport, String>,
    finals: Vec<Result<Vec<f32>, String>>,
    calls: Vec<Call>,
    log: EventLog,
}

impl Session {
    /// Times slot `slot` installed a global model, in order; the first
    /// is the join acknowledgement.
    fn installs(&self, slot: usize) -> Vec<Instant> {
        let mut t: Vec<Instant> = self
            .calls
            .iter()
            .filter(|c| c.client == slot && c.kind == CallKind::Download)
            .map(|c| c.end)
            .collect();
        t.sort();
        t
    }

    fn calls_of(&self, slot: usize, kind: CallKind) -> Vec<Call> {
        let mut c: Vec<Call> = self
            .calls
            .iter()
            .filter(|c| c.client == slot && c.kind == kind)
            .copied()
            .collect();
        c.sort_by_key(|c| c.start);
        c
    }
}

fn session(cfg: &ExperimentConfig, traced: bool) -> Session {
    let fed = fed_config(cfg);
    let probe = Probe::new(true);
    let log = SharedLog::new(if traced { STAMPED } else { &[] }, traced);
    let heap = HeapWatch::start();
    let start = Instant::now();
    let clients = clients(cfg);
    let opts = ServeOptions {
        rounds: ROUNDS,
        ..ServeOptions::new(SLOTS, fed, initial_global(cfg))
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener
        .local_addr()
        .expect("a bound listener has an address")
        .to_string();
    let join = JoinOptions::new(addr, &fed);
    let (report, finals) = std::thread::scope(|s| {
        let server = s.spawn(|| {
            let mut recorder = log.clone();
            serve_on(listener, &opts, &mut recorder).map_err(|e| e.to_string())
        });
        let handles: Vec<_> = clients
            .into_iter()
            .map(|c| {
                let (join, probe) = (&join, Arc::clone(&probe));
                s.spawn(move || {
                    let mut client = Timed::new(c, &probe);
                    run_client(join, &mut client).map_err(|e| e.to_string())
                })
            })
            .collect();
        let finals: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (server.join().expect("server thread"), finals)
    });
    let peak_mib = heap.peak_mib();
    let calls = probe.take_calls();
    let mut session = Session {
        setup: 0.0,
        wall: 0.0,
        peak_mib,
        report,
        finals,
        calls,
        log: log.take(),
    };
    let installs: Vec<Vec<Instant>> = (0..SLOTS).map(|s| session.installs(s)).collect();
    if installs.iter().all(|i| !i.is_empty()) {
        let joined = installs.iter().map(|i| i[0]).max().expect("two slots");
        let done = installs
            .iter()
            .map(|i| *i.last().expect("non-empty"))
            .max()
            .expect("two slots");
        session.setup = (joined - start).as_secs_f64();
        session.wall = (done - joined).as_secs_f64();
    }
    session
}

/// Layer times of one traced session, following each round's critical
/// path on slot 0: install → train → upload → admitted → (the other
/// slot admitted) → committed → installed.
#[derive(Default)]
struct TracedSession {
    wall: f64,
    agent_self: f64,
    agent_train: f64,
    env_steps: f64,
    netserver_self: f64,
    wait: f64,
    engine_self: f64,
    upload_ms: Vec<f64>,
    broadcast_ms: Vec<f64>,
    commit_ms: Vec<f64>,
    train_ms: Vec<f64>,
    bytes_per_round: f64,
}

fn trace_session(s: &Session) -> TracedSession {
    let at = |kind: EventKind, round: u64, client: Option<usize>| -> Option<Instant> {
        s.log
            .stamped
            .iter()
            .find(|(_, e)| {
                e.kind == kind && e.round == round && (client.is_none() || e.client == client)
            })
            .map(|(t, _)| *t)
    };
    let installs: Vec<Vec<Instant>> = (0..SLOTS).map(|slot| s.installs(slot)).collect();
    let trains: Vec<Vec<Call>> = (0..SLOTS)
        .map(|slot| s.calls_of(slot, CallKind::Train))
        .collect();
    let uploads: Vec<Vec<Call>> = (0..SLOTS)
        .map(|slot| s.calls_of(slot, CallKind::Upload))
        .collect();
    let mut t = TracedSession {
        wall: s.wall,
        ..TracedSession::default()
    };
    for round in 1..=ROUNDS {
        let r = round as usize;
        let Some(committed) = at(EventKind::Aggregated, round, None) else {
            continue;
        };
        let mut admitted = Vec::new();
        for slot in 0..SLOTS {
            let (Some(train), Some(upload), Some(installed), Some(adm)) = (
                trains[slot].get(r - 1),
                uploads[slot].get(r - 1),
                installs[slot].get(r),
                at(EventKind::UploadAdmitted, round, Some(slot)),
            ) else {
                continue;
            };
            let up = (adm - upload.end).as_secs_f64();
            let down = (*installed - committed).as_secs_f64();
            t.upload_ms.push(up * 1e3);
            t.broadcast_ms.push(down * 1e3);
            t.train_ms.push(train.secs() * 1e3);
            if slot == 0 {
                t.agent_self += train.secs();
                t.netserver_self += up + down;
            }
            admitted.push(adm);
        }
        if let (Some(&last), Some(&own)) = (admitted.iter().max(), admitted.first()) {
            let commit = (committed - last).as_secs_f64();
            t.commit_ms.push(commit * 1e3);
            t.engine_self += commit;
            t.wait += (last - own).as_secs_f64();
        }
    }
    t.agent_train = s
        .calls
        .iter()
        .filter(|c| c.kind == CallKind::Train)
        .map(Call::secs)
        .sum();
    t.env_steps = STEPS as f64 * (trains[0].len() + trains[1].len()) as f64;
    let round_bytes: u64 = s
        .log
        .stamped
        .iter()
        .filter(|(_, e)| {
            e.round >= 1
                && matches!(
                    e.kind,
                    EventKind::UploadReceived | EventKind::DownloadDelivered
                )
        })
        .map(|(_, e)| e.bytes)
        .sum();
    t.bytes_per_round = round_bytes as f64 / ROUNDS as f64;
    t
}

pub fn run(args: &Args) -> Outcome {
    let cfg = config(args.seed);
    let mut out = Outcome::default();
    let mut e2e = Samples::default();
    let mut global: Option<Vec<f32>> = None;
    let mut traced = Vec::new();

    let mut check = |out: &mut Outcome, s: &Session, label: &str| {
        out.attempted += SLOTS as u64 * ROUNDS;
        // A round that missed quorum fails the updates of every slot.
        out.failed += s.log.count(EventKind::UpdateRejected)
            + s.log.count(EventKind::UploadDropped)
            + SLOTS as u64 * s.log.count(EventKind::QuorumSkipped);
        let server_global = match &s.report {
            Ok(report) => {
                out.check(
                    report.rounds_run == ROUNDS && report.rounds_committed == report.rounds_run,
                    || {
                        format!(
                            "{label}: {} of {} rounds committed, {ROUNDS} expected",
                            report.rounds_committed, report.rounds_run
                        )
                    },
                );
                Some(&report.global)
            }
            Err(e) => {
                out.check(false, || format!("{label}: the server failed: {e}"));
                None
            }
        };
        for (slot, fin) in s.finals.iter().enumerate() {
            match fin {
                Ok(params) => out.check(server_global == Some(params), || {
                    format!("{label}: slot {slot} ended on another global than the server")
                }),
                Err(e) => {
                    eprintln!("{label}: run_client on slot {slot} failed: {e}");
                    out.failed += 1;
                }
            }
        }
        if let Some(g) = server_global {
            out.check(g.iter().all(|p| p.is_finite()), || {
                format!("{label}: the final global is not finite")
            });
            match &global {
                None => global = Some(g.clone()),
                Some(first) => out.check(first == g, || {
                    format!("{label}: the final global differs from the first session's")
                }),
            }
        }
    };

    repeat_for(args.seconds, 2, |i| {
        let s = session(&cfg, false);
        check(&mut out, &s, &format!("session {i}"));
        e2e.upload_bytes += s.log.bytes_of(EventKind::UploadReceived);
        e2e.uploads += s.log.count(EventKind::UploadReceived);
        e2e.setups.push(s.setup);
        let installs = s.installs(0);
        e2e.reps.push(RepSample {
            wall: s.wall,
            committed: s
                .report
                .as_ref()
                .map_or(0, |r| SLOTS as u64 * r.rounds_committed),
            rounds_ms: installs
                .windows(2)
                .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
                .collect(),
            peak_mib: s.peak_mib,
        });
        if args.trace {
            let s = session(&cfg, true);
            check(&mut out, &s, &format!("traced session {i}"));
            traced.push(trace_session(&s));
        }
    });

    if !args.trace {
        e2e.report(&mut out, Summary::Median);
        return out;
    }
    let mut layers = Layers::default();
    let avg = |f: &dyn Fn(&TracedSession) -> f64| mean(&traced.iter().map(f).collect::<Vec<_>>());
    let pooled = |f: &dyn Fn(&TracedSession) -> &Vec<f64>| -> Vec<f64> {
        traced.iter().flat_map(|t| f(t).iter().copied()).collect()
    };
    layers.set("agent.self_s", avg(&|t| t.agent_self));
    layers.set("agent.train_s", avg(&|t| t.agent_train));
    layers.set("agent.env_steps", avg(&|t| t.env_steps));
    layers.set(
        "agent.us_per_step",
        1e6 * avg(&|t| t.agent_train) / avg(&|t| t.env_steps),
    );
    layers.set("netserver.self_s", avg(&|t| t.netserver_self));
    layers.set("netserver.wait_s", avg(&|t| t.wait));
    layers.set("engine.self_s", avg(&|t| t.engine_self));
    for (p50, p95, samples) in [
        (
            "netserver.upload_p50_ms",
            "netserver.upload_p95_ms",
            pooled(&|t| &t.upload_ms),
        ),
        (
            "netserver.broadcast_p50_ms",
            "netserver.broadcast_p95_ms",
            pooled(&|t| &t.broadcast_ms),
        ),
        (
            "engine.commit_p50_ms",
            "engine.commit_p95_ms",
            pooled(&|t| &t.commit_ms),
        ),
        (
            "client.train_p50_ms",
            "client.train_p95_ms",
            pooled(&|t| &t.train_ms),
        ),
    ] {
        layers.set(p50, quantile(&samples, 0.5));
        layers.set(p95, quantile(&samples, 0.95));
    }
    layers.set("netserver.bytes_per_round", avg(&|t| t.bytes_per_round));
    let traced_walls: Vec<f64> = traced.iter().map(|t| t.wall).collect();
    layers.report(&mut out, &e2e, &traced_walls);
    out
}
