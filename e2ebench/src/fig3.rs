//! `fig3-paper`: the full Fig. 3 reproduction at the paper profile — the
//! three Table II scenarios with two devices each, 100 rounds of 100
//! local steps, local-only and federated training with the per-round
//! greedy evaluation, dense codec, channel transport, no faults.
//!
//! Untraced runs call the program's own entry points
//! (`run_local_only`, `run_federated_recorded`) exactly as the
//! `fig3_local_vs_federated` binary does. Traced runs execute the
//! benchmark's replica of that loop through [`Timed`] clients, and the
//! replica's evaluation series must match the library's bit for bit.

use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::time::Instant;

use fedpower_agent::{AgentWorkspace, PowerController};
use fedpower_core::config::EvalProtocol;
use fedpower_core::eval::{evaluate_on_app, EvalOptions};
use fedpower_core::experiment::{run_federated_recorded, run_local_only};
use fedpower_core::metrics::{EvalPoint, EvalSeries};
use fedpower_core::scenario::{table2_scenarios, Scenario};
use fedpower_core::ExperimentConfig;
use fedpower_federated::report::RoundReport;
use fedpower_federated::{AgentClient, FederatedClient, Federation};
use fedpower_sim::rng::derive_seed;
use fedpower_telemetry::{Counter, EventKind};
use fedpower_workloads::AppId;

use crate::probe::{Call, HeapWatch, Probe, SharedLog, Timed};
use crate::{device_env, mean, repeat_for, Args, Layers, Outcome, RepSample, Samples, Summary};

/// Distinct seeds one run cycles through. The policy-quality metrics
/// average over them, and a rep that revisits a seed must reproduce the
/// earlier rep's output exactly.
const SEEDS: usize = 8;

/// Set-up samples taken per rep.
const SETUPS_PER_REP: usize = 5;

fn rep_config(seed: u64, rep: usize) -> ExperimentConfig {
    ExperimentConfig::paper().with_seed(derive_seed(seed, 1_000 + (rep % SEEDS) as u64))
}

/// The Fig. 3 output of one seed: per scenario, the local-only and the
/// federated evaluation series.
type Fig3Output = Vec<(Vec<EvalSeries>, Vec<EvalSeries>)>;

fn series_mean(series: &[EvalSeries]) -> f64 {
    series.iter().map(|s| s.mean_reward()).sum::<f64>() / series.len() as f64
}

/// The `fig3_local_vs_federated` summary: (federated, local-only) mean
/// reward, averaged over scenarios.
fn summary(output: &Fig3Output) -> (f64, f64) {
    let n = output.len() as f64;
    let fed = output.iter().map(|(_, f)| series_mean(f)).sum::<f64>() / n;
    let local = output.iter().map(|(l, _)| series_mean(l)).sum::<f64>() / n;
    (fed, local)
}

/// Builds everything the Fig. 3 loop builds before it trains: per
/// scenario, two local-only clients, two federated clients and their
/// federation.
fn setup(cfg: &ExperimentConfig) -> f64 {
    let start = Instant::now();
    for scenario in table2_scenarios() {
        let local = clients(&scenario, cfg, 10);
        let federation = Federation::builder(clients(&scenario, cfg, 20), cfg.fedavg)
            .seed(derive_seed(cfg.seed, 30))
            .transport(cfg.transport)
            .build()
            .expect("channel transport links");
        black_box((local, federation));
    }
    start.elapsed().as_secs_f64()
}

/// The scenario's two devices as clients, seeded from `stream + device`
/// (10 for local-only, 20 for federated, as the program seeds them).
fn clients(scenario: &Scenario, cfg: &ExperimentConfig, stream: u64) -> Vec<AgentClient> {
    scenario
        .devices()
        .into_iter()
        .enumerate()
        .map(|(d, apps)| {
            AgentClient::new(
                d,
                cfg.controller,
                device_env(apps, cfg),
                derive_seed(cfg.seed, stream + d as u64),
            )
        })
        .collect()
}

/// One untraced rep: the program's own Fig. 3 entry points.
struct LibraryRep {
    output: Fig3Output,
    wall: f64,
    peak_mib: f64,
    round_ms: Vec<f64>,
    reports: Vec<RoundReport>,
    round_ends: u64,
}

fn library_rep(cfg: &ExperimentConfig) -> LibraryRep {
    let scenarios = table2_scenarios();
    let mut output = Vec::new();
    let mut logs = Vec::new();
    let mut reports = Vec::new();
    let heap = HeapWatch::start();
    let start = Instant::now();
    for scenario in &scenarios {
        let local = run_local_only(scenario, cfg);
        let log = SharedLog::new(&[EventKind::RoundEnd], false);
        let fed = run_federated_recorded(scenario, cfg, Box::new(log.clone()));
        output.push((local.series, fed.series));
        logs.push(log);
        reports.extend(fed.reports);
    }
    let wall = start.elapsed().as_secs_f64();
    let peak_mib = heap.peak_mib();
    let mut round_ms = Vec::new();
    let mut round_ends = 0;
    for log in logs {
        let stamps: Vec<Instant> = log.take().stamped.iter().map(|(at, _)| *at).collect();
        round_ends += stamps.len() as u64;
        round_ms.extend(stamps.windows(2).map(|w| (w[1] - w[0]).as_secs_f64() * 1e3));
    }
    LibraryRep {
        output,
        wall,
        peak_mib,
        round_ms,
        reports,
        round_ends,
    }
}

/// Eval-layer accounting of a traced rep.
#[derive(Default)]
struct EvalBusy {
    secs: f64,
    episodes: u64,
    steps: u64,
}

/// The program's per-round Fig. 3 evaluation (one application per
/// round, rotating; greedy frozen policy), with every
/// `evaluate_on_app` call timed.
fn eval_point(
    policy: &mut PowerController,
    round: u64,
    device: usize,
    cfg: &ExperimentConfig,
    busy: &mut EvalBusy,
) -> EvalPoint {
    let opts = EvalOptions::from_config(cfg);
    let apps: Vec<AppId> = match cfg.eval_protocol {
        EvalProtocol::RoundRobin => {
            vec![AppId::ALL[((round - 1) % AppId::ALL.len() as u64) as usize]]
        }
        EvalProtocol::AllApps => AppId::ALL.to_vec(),
    };
    let (mut reward, mut mean_level, mut std_level) = (0.0, 0.0, 0.0);
    for (i, &app) in apps.iter().enumerate() {
        let seed = derive_seed(
            cfg.seed,
            9_000 + round * 17 + device as u64 + i as u64 * 131,
        );
        let start = Instant::now();
        let episode = evaluate_on_app(policy, app, &opts, seed);
        busy.secs += start.elapsed().as_secs_f64();
        busy.episodes += 1;
        busy.steps += opts.steps;
        reward += episode.mean_reward;
        mean_level += episode.trace.mean_level().unwrap_or(0.0);
        std_level += episode.trace.std_level().unwrap_or(0.0);
    }
    let n = apps.len() as f64;
    EvalPoint {
        round,
        reward: reward / n,
        mean_level: mean_level / n,
        std_level: std_level / n,
    }
}

/// Per-rep layer times of one traced rep.
#[derive(Default)]
struct TracedRep {
    wall: f64,
    agent_self: f64,
    agent_train: f64,
    env_steps: f64,
    eval: EvalBusy,
    federation_self: f64,
    upload: f64,
    aggregate: f64,
    broadcast: f64,
    bytes: f64,
}

/// Merges intervals into disjoint, sorted ones.
fn merge(mut spans: Vec<(Instant, Instant)>) -> Vec<(Instant, Instant)> {
    spans.sort_by_key(|s| s.0);
    let mut merged: Vec<(Instant, Instant)> = Vec::with_capacity(spans.len());
    for (s, e) in spans {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

/// Seconds of `window` that the disjoint `merged` intervals cover.
fn covered(merged: &[(Instant, Instant)], window: (Instant, Instant)) -> f64 {
    merged
        .iter()
        .filter(|(s, e)| *s < window.1 && *e > window.0)
        .map(|(s, e)| (e.min(&window.1).duration_since(*s.max(&window.0))).as_secs_f64())
        .sum()
}

/// One traced rep: the replica of the program's Fig. 3 loop, with every
/// client call, `run_round` call and evaluation timed.
fn replica_rep(cfg: &ExperimentConfig) -> (Fig3Output, TracedRep) {
    let probe = Probe::new(true);
    let mut rep = TracedRep::default();
    let mut output = Vec::new();
    let mut rounds: Vec<(Instant, Instant)> = Vec::new();
    let mut logs = Vec::new();
    let start = Instant::now();
    for scenario in table2_scenarios() {
        // Local-only: one isolated client per device, one workspace
        // reused across devices and rounds.
        let mut local = Vec::new();
        let mut ws = AgentWorkspace::new();
        for (d, client) in clients(&scenario, cfg, 10).into_iter().enumerate() {
            let mut client = Timed::new(client, &probe);
            let mut s = EvalSeries::new(["local-A", "local-B"][d.min(1)]);
            for round in 1..=cfg.fedavg.rounds {
                client.train_round_with(cfg.fedavg.steps_per_round, &mut ws);
                let mut snapshot = client.inner.agent().clone();
                s.points
                    .push(eval_point(&mut snapshot, round, d, cfg, &mut rep.eval));
            }
            local.push(s);
        }

        // Federated: the federation over timed clients, evaluated after
        // every round.
        let timed: Vec<Timed<AgentClient>> = clients(&scenario, cfg, 20)
            .into_iter()
            .map(|c| Timed::new(c, &probe))
            .collect();
        let mut fed: Vec<EvalSeries> = (0..timed.len())
            .map(|d| EvalSeries::new(format!("federated-{}", (b'A' + d as u8) as char)))
            .collect();
        let log = SharedLog::new(&[], true);
        let mut federation = Federation::builder(timed, cfg.fedavg)
            .seed(derive_seed(cfg.seed, 30))
            .transport(cfg.transport)
            .recorder(Box::new(log.clone()))
            .build()
            .expect("channel transport links");
        for round in 1..=cfg.fedavg.rounds {
            let t = Instant::now();
            federation.run_round();
            rounds.push((t, Instant::now()));
            for (d, series) in fed.iter_mut().enumerate() {
                let mut snapshot = federation.clients()[d].inner.agent().clone();
                series
                    .points
                    .push(eval_point(&mut snapshot, round, d, cfg, &mut rep.eval));
                federation
                    .recorder_mut()
                    .counter(Counter::new("eval_apps", round, Some(d), 1));
            }
        }
        federation.recorder_mut().flush();
        logs.push(log);
        output.push((local, fed));
    }
    rep.wall = start.elapsed().as_secs_f64();

    let calls: Vec<Call> = probe.take_calls();
    let merged = merge(calls.iter().map(|c| (c.start, c.end)).collect());
    rep.agent_self = merged.iter().map(|(s, e)| (*e - *s).as_secs_f64()).sum();
    rep.agent_train = Probe::secs(&probe.train_ns);
    rep.env_steps = probe.env_steps.load(Ordering::SeqCst) as f64;
    rep.federation_self = rounds
        .iter()
        .map(|&w| (w.1 - w.0).as_secs_f64() - covered(&merged, w))
        .sum();
    for log in logs {
        let log = log.take();
        for span in &log.spans {
            match span.name {
                "upload" => rep.upload += span.seconds,
                "aggregate" => rep.aggregate += span.seconds,
                "broadcast" => rep.broadcast += span.seconds,
                _ => {}
            }
        }
        rep.bytes += (log.bytes_of(EventKind::UploadReceived)
            + log.bytes_of(EventKind::DownloadDelivered)) as f64;
    }
    (output, rep)
}

/// Checks one library rep's output and accounting.
fn check_rep(out: &mut Outcome, rep: &LibraryRep, cfg: &ExperimentConfig, label: usize) {
    let rounds = cfg.fedavg.rounds;
    out.check(rep.output.len() == 3, || {
        format!("rep {label}: {} scenarios", rep.output.len())
    });
    for (local, fed) in &rep.output {
        for s in local.iter().chain(fed) {
            out.check(
                s.points.len() as u64 == rounds && s.points.iter().all(|p| p.reward.is_finite()),
                || {
                    format!(
                        "rep {label}: series {} is incomplete or not finite",
                        s.label
                    )
                },
            );
        }
    }
    out.check(rep.round_ends == 3 * rounds, || {
        format!(
            "rep {label}: {} round ends, expected {}",
            rep.round_ends,
            3 * rounds
        )
    });
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut e2e = Samples::default();
    let mut first: Vec<Option<Fig3Output>> = vec![None; SEEDS];
    let mut quality = Vec::new();
    let mut traced = Vec::new();

    repeat_for(args.seconds, SEEDS, |i| {
        let cfg = rep_config(args.seed, i);
        for _ in 0..SETUPS_PER_REP {
            e2e.setups.push(setup(&cfg));
        }
        let rep = library_rep(&cfg);
        check_rep(&mut out, &rep, &cfg, i);
        let committed = e2e.account(&mut out, &rep.reports);
        e2e.reps.push(RepSample {
            wall: rep.wall,
            committed,
            rounds_ms: rep.round_ms,
            peak_mib: rep.peak_mib,
        });
        if args.trace {
            let (output, t) = replica_rep(&cfg);
            out.check(output == rep.output, || {
                format!(
                    "rep {i}: the traced replica's series differ from run_local_only/run_federated"
                )
            });
            traced.push(t);
        }
        match &first[i % SEEDS] {
            None => {
                quality.push(summary(&rep.output));
                first[i % SEEDS] = Some(rep.output);
            }
            Some(earlier) => out.check(*earlier == rep.output, || {
                format!(
                    "rep {i}: output differs from rep {} at the same seed",
                    i - SEEDS
                )
            }),
        }
    });

    // The paper's claim, over the run's seeds: federated training beats
    // local-only training.
    let (fed, local): (Vec<f64>, Vec<f64>) = quality.into_iter().unzip();
    let fed_over_local = fed.iter().sum::<f64>() / local.iter().sum::<f64>();
    eprintln!("fig3-paper: federated {fed:.4?}");
    eprintln!("fig3-paper: local-only {local:.4?}");
    out.check(fed_over_local > 1.0, || {
        format!("federated reward is {fed_over_local:.4} x local-only over {SEEDS} seeds")
    });

    if !args.trace {
        e2e.report(&mut out, Summary::Fastest);
        return out;
    }
    let mut layers = Layers::default();
    let avg = |f: &dyn Fn(&TracedRep) -> f64| mean(&traced.iter().map(f).collect::<Vec<_>>());
    layers.set("quality.fed_reward", mean(&fed));
    layers.set("quality.fed_over_local", fed_over_local);
    layers.set("agent.self_s", avg(&|t| t.agent_self));
    layers.set("agent.train_s", avg(&|t| t.agent_train));
    layers.set("agent.env_steps", avg(&|t| t.env_steps));
    layers.set(
        "agent.us_per_step",
        1e6 * avg(&|t| t.agent_train) / avg(&|t| t.env_steps),
    );
    layers.set("eval.busy_s", avg(&|t| t.eval.secs));
    layers.set("eval.episodes", avg(&|t| t.eval.episodes as f64));
    layers.set(
        "eval.us_per_step",
        1e6 * avg(&|t| t.eval.secs) / avg(&|t| t.eval.steps as f64),
    );
    layers.set("federation.self_s", avg(&|t| t.federation_self));
    layers.set("federation.upload_s", avg(&|t| t.upload));
    layers.set("federation.aggregate_s", avg(&|t| t.aggregate));
    layers.set("federation.broadcast_s", avg(&|t| t.broadcast));
    layers.set("federation.bytes", avg(&|t| t.bytes));
    let traced_walls: Vec<f64> = traced.iter().map(|t| t.wall).collect();
    layers.report(&mut out, &e2e, &traced_walls);
    out
}
