//! Crash consistency of the standalone server's checkpoints: no frame
//! carrying round K's global θ_K may leave the server before the
//! checkpoint that resumes round K is on disk.
//!
//! A client that installs θ_K trains round K + 1. Had θ_K left before
//! checkpoint K was saved, a server killed in between would restart at
//! K − 1 and make that client train round K a second time, breaking
//! resume ≡ uninterrupted. The witness client below checks, every time it
//! installs a broadcast, that the checkpoint on disk already holds that
//! exact model; a slow telemetry flush (the server's last step before the
//! save) holds the window open wide enough for a wrongly ordered server
//! to be caught every time.

use fedpower_federated::{
    run_client, serve_on, FedAvgConfig, FederatedClient, JoinOptions, ModelUpdate, ServeOptions,
};
use fedpower_telemetry::{Counter, Event, Recorder, Span};
use fedpower_wire::checkpoint::Checkpoint;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

const DIM: usize = 4;

/// A deterministic client that reports every installed model the
/// checkpoint on disk does not hold.
#[derive(Debug)]
struct Witness {
    id: usize,
    params: Vec<f32>,
    installs: u64,
    checkpoint: PathBuf,
    violations: Arc<Mutex<Vec<String>>>,
}

impl FederatedClient for Witness {
    type Workspace = ();

    fn id(&self) -> usize {
        self.id
    }

    fn train_round_with(&mut self, _steps: u64, _ws: &mut ()) {
        let target = (self.id + 1) as f32;
        for p in &mut self.params {
            *p += 0.5 * (target - *p);
        }
    }

    fn upload(&mut self) -> ModelUpdate {
        ModelUpdate {
            client_id: self.id,
            params: self.params.clone(),
            num_samples: 1,
        }
    }

    fn download(&mut self, global: &[f32]) {
        self.params = global.to_vec();
        self.installs += 1;
        // The first install is a fresh server's join ack (θ₁, round 0):
        // nothing to resume from yet.
        if self.installs == 1 {
            return;
        }
        let verdict = match Checkpoint::load(&self.checkpoint) {
            Ok(ck) if ck.global == global => return,
            Ok(ck) => format!(
                "client {} installed a model the round-{} checkpoint does not hold",
                self.id, ck.rounds_run
            ),
            Err(e) => format!(
                "client {} installed a model before any checkpoint: {e}",
                self.id
            ),
        };
        self.violations.lock().unwrap().push(verdict);
    }

    fn transfer_bytes(&self) -> usize {
        DIM * 4
    }
}

/// A telemetry sink on a slow disk: every flush takes a while.
#[derive(Debug)]
struct SlowFlush;

impl Recorder for SlowFlush {
    fn event(&mut self, _event: Event) {}
    fn counter(&mut self, _counter: Counter) {}
    fn span(&mut self, _span: Span) {}
    fn flush(&mut self) {
        thread::sleep(Duration::from_millis(100));
    }
}

#[test]
fn no_broadcast_leaves_before_its_round_is_checkpointed() {
    let rounds = 3;
    let config = FedAvgConfig {
        rounds,
        steps_per_round: 1,
        ..FedAvgConfig::default()
    };
    let checkpoint =
        std::env::temp_dir().join(format!("fedpower-ck-order-{}.fpck", std::process::id()));
    let _ = std::fs::remove_file(&checkpoint);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let mut opts = ServeOptions::new(2, config, vec![0.0; DIM]);
    opts.checkpoint = Some(checkpoint.clone());
    let violations = Arc::new(Mutex::new(Vec::new()));
    let clients: Vec<_> = (0..2)
        .map(|id| {
            let join = JoinOptions::new(addr.clone(), &config);
            let mut client = Witness {
                id,
                params: vec![0.0; DIM],
                installs: 0,
                checkpoint: checkpoint.clone(),
                violations: Arc::clone(&violations),
            };
            thread::spawn(move || run_client(&join, &mut client).expect("client"))
        })
        .collect();
    let report = serve_on(listener, &opts, &mut SlowFlush).expect("serve");
    let finals: Vec<Vec<f32>> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    let _ = std::fs::remove_file(&checkpoint);

    assert_eq!(report.rounds_run, rounds);
    for f in &finals {
        assert_eq!(f, &report.global);
    }
    let violations = violations.lock().unwrap();
    assert!(violations.is_empty(), "{violations:#?}");
}
