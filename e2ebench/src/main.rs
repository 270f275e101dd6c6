//! End-to-end benchmark of `fedpower`: the Fig. 3 reproduction, sharded
//! 10k-client fleet rounds and a loopback federation server, each
//! checked for correct output and, in a traced run, broken down by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload fig3-paper|fleet-10k|server-loopback \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones. See
//! `e2ebench/README.md` for the metric definitions and the layer tree.

mod fig3;
mod fleet;
mod probe;
mod server;

use std::fmt::Write as _;
use std::time::Instant;

use fedpower_agent::DeviceEnvConfig;
use fedpower_core::ExperimentConfig;
use fedpower_federated::report::RoundReport;
use fedpower_workloads::AppId;

#[global_allocator]
static ALLOCATOR: probe::PeakAlloc = probe::PeakAlloc;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What one run produced: the output checks, the operation counts and
/// the metrics, in the order they are printed.
#[derive(Default)]
pub struct Outcome {
    pub checks_failed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Records one output check; a failed check fails the run and
    /// counts as a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            eprintln!("CHECK FAILED: {}", what());
            self.checks_failed += 1;
        }
    }

    /// Failed operations, failed checks included, over attempted ones.
    pub fn failed_ratio(&self) -> f64 {
        (self.failed + self.checks_failed) as f64 / self.attempted.max(1) as f64
    }

    /// Adds a metric. JSON has no NaN or infinity, so a non-finite value
    /// fails the run and is printed as 0.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.check(value.is_finite(), || format!("{name} is {value}"));
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name, value, unit));
    }

    fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.checks_failed == 0,
            self.attempted.max(1),
            self.failed + self.checks_failed,
        )
    }
}

/// End-to-end figures of one untraced rep.
pub struct RepSample {
    pub wall: f64,
    /// Client updates the rep committed.
    pub committed: u64,
    /// The rep's round intervals, in ms.
    pub rounds_ms: Vec<f64>,
    pub peak_mib: f64,
}

/// How a workload summarizes its reps' timings.
///
/// The machine the benchmark was built on switches between two speed
/// states about 1.5x apart, for seconds to minutes at a time (README.md).
/// A compute-bound workload's cost is fixed by its inputs, so its
/// fastest rep is the one the slow state disturbed least. A server whose
/// round time is set by sleeps and thread wake-ups varies from session
/// to session by nature, and its lucky fastest session is not typical.
#[derive(Clone, Copy)]
pub enum Summary {
    /// Minimum over reps (maximum for throughput).
    Fastest,
    /// Median over reps.
    Median,
}

/// End-to-end samples of a run.
#[derive(Default)]
pub struct Samples {
    pub setups: Vec<f64>,
    pub reps: Vec<RepSample>,
    pub upload_bytes: u64,
    pub uploads: u64,
}

impl Samples {
    /// Counts one rep's round reports — attempted and failed client
    /// updates, upload bytes — and returns the updates it committed. A
    /// round that missed quorum fails every update in it.
    pub fn account(&mut self, out: &mut Outcome, reports: &[RoundReport]) -> u64 {
        let mut committed = 0;
        for r in reports {
            out.attempted += r.participants as u64;
            out.failed += (r.updates_rejected + r.uploads_dropped + r.train_panics) as u64;
            if r.aggregated {
                committed += r.uploads_ok as u64;
            } else {
                out.failed += r.participants as u64;
            }
            self.upload_bytes += r.transport.uploaded_bytes;
            self.uploads += r.transport.uploads;
        }
        committed
    }

    pub fn walls(&self) -> Vec<f64> {
        self.reps.iter().map(|r| r.wall).collect()
    }

    /// The summary of `f` over reps that `summary` asks for.
    fn over_reps(&self, summary: Summary, f: impl Fn(&RepSample) -> f64) -> f64 {
        let values: Vec<f64> = self.reps.iter().map(f).collect();
        match summary {
            Summary::Fastest => values.iter().copied().fold(f64::INFINITY, f64::min),
            Summary::Median => median(&values),
        }
    }

    /// Reports every end-to-end metric. Set-up time and peak heap are
    /// always medians over reps; the timings are summarized as the
    /// workload asks (see [`Summary`]).
    pub fn report(&self, out: &mut Outcome, summary: Summary) {
        out.metric("setup_s", median(&self.setups), "s");
        out.metric("wall_s", self.over_reps(summary, |r| r.wall), "s");
        let throughput = -self.over_reps(summary, |r| -(r.committed as f64) / r.wall);
        out.metric("clients_per_s", throughput, "1/s");
        for (name, q) in [("round_p50_ms", 0.5), ("round_p95_ms", 0.95)] {
            let value = self.over_reps(summary, |r| quantile(&r.rounds_ms, q));
            out.metric(name, value, "ms");
        }
        let peaks: Vec<f64> = self.reps.iter().map(|r| r.peak_mib).collect();
        out.metric("peak_mib", median(&peaks), "MiB");
        let per_client = self.upload_bytes as f64 / self.uploads as f64;
        out.metric("upload_bytes_per_client", per_client, "B");
        out.metric("ok_ratio", 1.0 - out.failed_ratio(), "ratio");
        let walls = self.walls();
        let quartiles: Vec<f64> = [0.0, 0.25, 0.5, 0.75, 1.0]
            .iter()
            .map(|&q| quantile(&walls, q))
            .collect();
        eprintln!(
            "{} reps; rep wall min/quartiles/max {quartiles:.4?} s",
            walls.len()
        );
    }
}

/// Runs `rep` until `seconds` have passed and at least `min_reps` reps
/// ran; `rep` gets its zero-based index.
pub fn repeat_for(seconds: f64, min_reps: usize, mut rep: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i < min_reps || start.elapsed().as_secs_f64() < seconds {
        rep(i);
        i += 1;
    }
}

/// Linear-interpolation quantile (`q` in 0..=1) of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// What tracing adds to the wall-clock, in percent: the median over
/// back-to-back (untraced, traced) pairs of `traced / untraced − 1`, so
/// that drift in the machine's speed between pairs cancels.
pub fn overhead_pct(traced: &[f64], untraced: &[f64]) -> f64 {
    let ratios: Vec<f64> = traced.iter().zip(untraced).map(|(t, u)| t / u).collect();
    100.0 * (median(&ratios) - 1.0)
}

/// A device's environment under the experiment's settings (as the
/// program builds it for its own clients).
pub fn device_env(apps: &[AppId], cfg: &ExperimentConfig) -> DeviceEnvConfig {
    let mut env = DeviceEnvConfig::new(apps);
    env.control_interval_s = cfg.control_interval_s;
    env.norm = cfg.controller.norm;
    env
}

/// The per-layer self times every workload reports; they sum, with
/// `unattributed_s`, to the traced wall-clock `trace.wall_s`.
pub const SELF_TIMES: [&str; 7] = [
    "agent.self_s",
    "eval.busy_s",
    "federation.self_s",
    "fleet.self_s",
    "netserver.self_s",
    "netserver.wait_s",
    "engine.self_s",
];

/// Every per-layer metric, with its unit, in print order. A workload
/// reports 0 for the layers it does not exercise.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("trace.wall_s", "s"),
    ("trace.overhead_pct", "%"),
    ("unattributed_s", "s"),
    ("round.samples", "count"),
    ("agent.self_s", "s"),
    ("agent.train_s", "s"),
    ("agent.env_steps", "count"),
    ("agent.us_per_step", "us"),
    ("eval.busy_s", "s"),
    ("eval.episodes", "count"),
    ("eval.us_per_step", "us"),
    ("federation.self_s", "s"),
    ("federation.upload_s", "s"),
    ("federation.aggregate_s", "s"),
    ("federation.broadcast_s", "s"),
    ("federation.bytes", "B"),
    ("fleet.self_s", "s"),
    ("fleet.materialize_s", "s"),
    ("fleet.materialized", "count"),
    ("fleet.shard_s", "s"),
    ("fleet.shard_max_s", "s"),
    ("fleet.worker_idle_pct", "%"),
    ("fleet.aggregate_s", "s"),
    ("fleet.broadcast_s", "s"),
    ("netserver.self_s", "s"),
    ("netserver.wait_s", "s"),
    ("engine.self_s", "s"),
    ("netserver.upload_p50_ms", "ms"),
    ("netserver.upload_p95_ms", "ms"),
    ("netserver.broadcast_p50_ms", "ms"),
    ("netserver.broadcast_p95_ms", "ms"),
    ("engine.commit_p50_ms", "ms"),
    ("engine.commit_p95_ms", "ms"),
    ("client.train_p50_ms", "ms"),
    ("client.train_p95_ms", "ms"),
    ("netserver.bytes_per_round", "B"),
    ("failed_ratio", "ratio"),
    ("quality.fed_reward", "reward"),
    ("quality.fed_over_local", "ratio"),
];

/// Per-layer values of one traced workload, by name; names a workload
/// does not set are reported as 0.
#[derive(Default)]
pub struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Sets the metrics every workload shares, closes the layer tree —
    /// `unattributed_s` is the traced wall minus every self time — and
    /// reports every per-layer metric.
    pub fn report(mut self, out: &mut Outcome, samples: &Samples, traced_walls: &[f64]) {
        self.set("trace.wall_s", mean(traced_walls));
        self.set(
            "trace.overhead_pct",
            overhead_pct(traced_walls, &samples.walls()),
        );
        let rounds: usize = samples.reps.iter().map(|r| r.rounds_ms.len()).sum();
        self.set("round.samples", rounds as f64);
        self.set("failed_ratio", out.failed_ratio());
        let attributed: f64 = SELF_TIMES.iter().map(|n| self.get(n)).sum();
        self.set("unattributed_s", self.get("trace.wall_s") - attributed);
        for (name, unit) in PER_LAYER {
            out.metric(name, self.get(name), unit);
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: e2ebench --workload fig3-paper|fleet-10k|server-loopback \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let out = match args.workload.as_str() {
        "fig3-paper" => fig3::run(&args),
        "fleet-10k" => fleet::run(&args),
        "server-loopback" => server::run(&args),
        other => {
            eprintln!("error: unknown workload {other}");
            std::process::exit(2);
        }
    };
    for (name, value, unit) in &out.metrics {
        eprintln!("{name:>28} {value:>16.6} {unit}");
    }
    println!("{}", out.to_json());
}
