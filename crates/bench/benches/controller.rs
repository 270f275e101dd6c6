//! Criterion micro-benchmarks backing the §IV-C overhead numbers:
//! per-decision controller latency, training-update cost, FedAvg
//! aggregation and model (de)serialization.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fedpower_agent::{ControllerConfig, PowerController, State};
use fedpower_federated::{AggregationServer, AggregationStrategy, ModelUpdate};
use fedpower_nn::Mlp;
use fedpower_sim::{FreqLevel, PhaseParams, Processor, ProcessorConfig};

fn trained_controller() -> PowerController {
    let mut agent = PowerController::new(ControllerConfig::paper(), 7);
    let state = State::from_features([0.5, 0.4, 0.6, 0.1, 0.2]);
    for i in 0..4000u64 {
        agent.observe(&state, FreqLevel((i % 15) as usize), 0.4);
    }
    agent
}

fn bench_inference(c: &mut Criterion) {
    let mut agent = trained_controller();
    let state = State::from_features([0.5, 0.4, 0.6, 0.1, 0.2]);
    c.bench_function("controller/select_action", |b| {
        b.iter(|| black_box(agent.select_action(black_box(&state))))
    });
    c.bench_function("controller/greedy_action", |b| {
        b.iter(|| black_box(agent.greedy_action(black_box(&state))))
    });
}

fn bench_training_update(c: &mut Criterion) {
    let mut agent = trained_controller();
    c.bench_function("controller/train_once_batch128", |b| {
        b.iter(|| black_box(agent.train_once()))
    });
}

fn bench_fedavg(c: &mut Criterion) {
    let net = Mlp::new(&[5, 32, 15], fedpower_nn::Activation::Relu, 0);
    let updates: Vec<ModelUpdate> = (0..8)
        .map(|i| ModelUpdate {
            client_id: i,
            params: net.params(),
            num_samples: 100,
        })
        .collect();
    let mut server = AggregationServer::new(net.params(), AggregationStrategy::Uniform);
    c.bench_function("server/fedavg_aggregate_8clients", |b| {
        b.iter(|| {
            let mut round = server.accumulator();
            for u in black_box(&updates) {
                round.admit(u.clone(), 1.0).expect("valid update");
            }
            black_box(server.commit_round(round).expect("valid updates"));
        })
    });
}

fn bench_serialization(c: &mut Criterion) {
    let net = Mlp::new(&[5, 32, 15], fedpower_nn::Activation::Relu, 0);
    c.bench_function("model/to_bytes", |b| b.iter(|| black_box(net.to_bytes())));
    let bytes = net.to_bytes();
    c.bench_function("model/from_bytes", |b| {
        b.iter(|| black_box(Mlp::from_bytes(black_box(&bytes)).expect("valid blob")))
    });
}

fn bench_simulator(c: &mut Criterion) {
    let mut cpu = Processor::new(ProcessorConfig::jetson_nano(), 3);
    cpu.set_level(FreqLevel(10));
    let phase = PhaseParams::new(0.8, 6.0, 32.0, 1.0);
    c.bench_function("sim/processor_step", |b| {
        b.iter(|| black_box(cpu.run(black_box(&phase), 0.5)))
    });
}

criterion_group!(
    benches,
    bench_inference,
    bench_training_update,
    bench_fedavg,
    bench_serialization,
    bench_simulator
);
criterion_main!(benches);
