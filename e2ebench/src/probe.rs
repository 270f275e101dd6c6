//! Instrumentation the benchmark owns: a counting global allocator, a
//! [`FederatedClient`] wrapper and a [`FleetClientFactory`] wrapper that
//! time calls into the program, and a telemetry [`Recorder`] that
//! timestamps the events and keeps the spans the program already emits.
//!
//! Every timestamp is an [`Instant`] from the one monotonic clock of the
//! one benchmark process, so client-side and server-side times compare
//! directly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use fedpower_core::experiment::DeviceFleetFactory;
use fedpower_federated::{AgentClient, FedError, FederatedClient, FleetClientFactory, ModelUpdate};
use fedpower_federated::{Codec, StaleUpdate};
use fedpower_telemetry::{Counter, Event, EventKind, Recorder, Span};

/// Counts live and peak heap bytes. Deallocation sizes come from the
/// `Layout`, so the count is exact for everything routed through the
/// global allocator.
pub struct PeakAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are statistics and publish no other data.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        on_alloc(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, per the
        // caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Heap growth of one measured body: the live bytes when it starts, so
/// the peak it reaches can be reported net of what the benchmark itself
/// already holds.
pub struct HeapWatch {
    base: u64,
}

impl HeapWatch {
    /// Starts watching: resets the peak to the current live heap.
    pub fn start() -> HeapWatch {
        let base = LIVE.load(Ordering::SeqCst);
        PEAK.store(base, Ordering::SeqCst);
        HeapWatch { base }
    }

    /// Peak heap above the starting point, in MiB.
    pub fn peak_mib(&self) -> f64 {
        PEAK.load(Ordering::SeqCst).saturating_sub(self.base) as f64 / (1u64 << 20) as f64
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("no benchmark thread panics while holding a probe lock")
}

/// What a timed client call was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `train_round_with` / `train_block_with`.
    Train,
    /// `upload` / `try_upload`.
    Upload,
    /// `download` / `try_download`: a global model installed.
    Download,
}

/// One timed call into a client.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub client: usize,
    pub kind: CallKind,
    pub start: Instant,
    pub end: Instant,
}

impl Call {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Shared sink of the client and factory wrappers. Busy times are summed
/// across threads in atomics; the individual calls are kept only when
/// `keep_calls` is set (a fleet round makes hundreds of thousands).
#[derive(Debug, Default)]
pub struct Probe {
    keep_calls: bool,
    calls: Mutex<Vec<Call>>,
    /// Nanoseconds inside any wrapped client call.
    pub client_ns: AtomicU64,
    /// Nanoseconds inside training calls.
    pub train_ns: AtomicU64,
    /// Environment steps trained.
    pub env_steps: AtomicU64,
    /// Nanoseconds inside `DeviceFleetFactory::materialize`.
    pub materialize_ns: AtomicU64,
    /// Clients materialized.
    pub materialized: AtomicU64,
}

fn nanos(start: Instant, end: Instant) -> u64 {
    (end - start).as_nanos() as u64
}

impl Probe {
    pub fn new(keep_calls: bool) -> Arc<Probe> {
        Arc::new(Probe {
            keep_calls,
            ..Probe::default()
        })
    }

    fn record(&self, client: usize, kind: CallKind, start: Instant, steps: u64) {
        let end = Instant::now();
        let ns = nanos(start, end);
        self.client_ns.fetch_add(ns, Ordering::Relaxed);
        if kind == CallKind::Train {
            self.train_ns.fetch_add(ns, Ordering::Relaxed);
            self.env_steps.fetch_add(steps, Ordering::Relaxed);
        }
        if self.keep_calls {
            lock(&self.calls).push(Call {
                client,
                kind,
                start,
                end,
            });
        }
    }

    /// Takes the calls recorded so far.
    pub fn take_calls(&self) -> Vec<Call> {
        std::mem::take(&mut *lock(&self.calls))
    }

    pub fn secs(counter: &AtomicU64) -> f64 {
        counter.load(Ordering::SeqCst) as f64 * 1e-9
    }
}

/// A [`FederatedClient`] that times every call into the client it wraps
/// and forwards it unchanged, so a run through `Timed` clients computes
/// exactly what a run through the bare clients computes.
#[derive(Debug)]
pub struct Timed<C> {
    pub inner: C,
    probe: Arc<Probe>,
}

impl<C> Timed<C> {
    pub fn new(inner: C, probe: &Arc<Probe>) -> Self {
        Timed {
            inner,
            probe: Arc::clone(probe),
        }
    }
}

impl<C: FederatedClient> FederatedClient for Timed<C> {
    type Workspace = C::Workspace;

    fn id(&self) -> usize {
        self.inner.id()
    }

    fn train_round_with(&mut self, steps: u64, ws: &mut Self::Workspace) {
        let start = Instant::now();
        self.inner.train_round_with(steps, ws);
        self.probe.record(self.id(), CallKind::Train, start, steps);
    }

    fn train_block_with(clients: &mut [&mut Self], steps: u64, ws: &mut Self::Workspace) {
        let Some(first) = clients.first() else {
            return;
        };
        let probe = Arc::clone(&first.probe);
        let id = first.id();
        let n = clients.len() as u64;
        let start = Instant::now();
        let mut inner: Vec<&mut C> = clients.iter_mut().map(|c| &mut c.inner).collect();
        C::train_block_with(&mut inner, steps, ws);
        probe.record(id, CallKind::Train, start, steps * n);
    }

    fn upload(&mut self) -> ModelUpdate {
        let start = Instant::now();
        let update = self.inner.upload();
        self.probe.record(self.id(), CallKind::Upload, start, 0);
        update
    }

    fn download(&mut self, global: &[f32]) {
        let start = Instant::now();
        self.inner.download(global);
        self.probe.record(self.id(), CallKind::Download, start, 0);
    }

    fn transfer_bytes(&self) -> usize {
        self.inner.transfer_bytes()
    }

    fn transfer_bytes_with(&self, codec: Codec) -> usize {
        self.inner.transfer_bytes_with(codec)
    }

    fn begin_round(&mut self, round: u64) {
        self.inner.begin_round(round);
    }

    fn is_online(&self) -> bool {
        self.inner.is_online()
    }

    fn try_upload(&mut self) -> Result<ModelUpdate, FedError> {
        let start = Instant::now();
        let update = self.inner.try_upload();
        self.probe.record(self.id(), CallKind::Upload, start, 0);
        update
    }

    fn try_download(&mut self, global: &[f32]) -> Result<(), FedError> {
        let start = Instant::now();
        let result = self.inner.try_download(global);
        self.probe.record(self.id(), CallKind::Download, start, 0);
        result
    }

    fn take_stale(&mut self) -> Option<StaleUpdate> {
        self.inner.take_stale()
    }

    fn record_telemetry(&self, round: u64, recorder: &mut dyn Recorder) {
        self.inner.record_telemetry(round, recorder);
    }
}

/// A [`FleetClientFactory`] over [`DeviceFleetFactory`] that times each
/// materialization and hands out [`Timed`] clients.
pub struct TimedFactory {
    inner: DeviceFleetFactory,
    probe: Arc<Probe>,
}

impl TimedFactory {
    pub fn new(inner: DeviceFleetFactory, probe: &Arc<Probe>) -> Self {
        TimedFactory {
            inner,
            probe: Arc::clone(probe),
        }
    }
}

impl FleetClientFactory for TimedFactory {
    type Client = Timed<AgentClient>;

    fn initial_global(&self) -> Vec<f32> {
        self.inner.initial_global()
    }

    fn materialize(&self, id: usize, round: u64) -> Timed<AgentClient> {
        let start = Instant::now();
        let client = self.inner.materialize(id, round);
        let ns = nanos(start, Instant::now());
        self.probe.materialize_ns.fetch_add(ns, Ordering::Relaxed);
        self.probe.materialized.fetch_add(1, Ordering::Relaxed);
        Timed::new(client, &self.probe)
    }
}

/// Index of an event kind in [`EventKind::ALL`].
pub fn kind_index(kind: EventKind) -> usize {
    EventKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("EventKind::ALL lists every kind")
}

/// What an [`EventLog`] has seen.
#[derive(Debug, Default)]
pub struct EventLog {
    /// Event kinds whose events are kept with a timestamp.
    stamp: &'static [EventKind],
    keep_spans: bool,
    /// Events seen, by [`kind_index`].
    pub counts: [u64; EventKind::ALL.len()],
    /// Frame bytes the events moved, by [`kind_index`].
    pub bytes: [u64; EventKind::ALL.len()],
    pub stamped: Vec<(Instant, Event)>,
    pub spans: Vec<Span>,
}

impl EventLog {
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind_index(kind)]
    }

    pub fn bytes_of(&self, kind: EventKind) -> u64 {
        self.bytes[kind_index(kind)]
    }
}

/// A [`Recorder`] that counts every event, timestamps the kinds it was
/// asked to stamp and, when tracing, keeps every span. It is a shared
/// handle, so the benchmark can read the log after handing a copy to the
/// program.
#[derive(Debug, Clone)]
pub struct SharedLog(Arc<Mutex<EventLog>>);

impl SharedLog {
    pub fn new(stamp: &'static [EventKind], keep_spans: bool) -> SharedLog {
        SharedLog(Arc::new(Mutex::new(EventLog {
            stamp,
            keep_spans,
            ..EventLog::default()
        })))
    }

    /// Takes what the log has seen so far, leaving it empty.
    pub fn take(&self) -> EventLog {
        let mut log = lock(&self.0);
        let fresh = EventLog {
            stamp: log.stamp,
            keep_spans: log.keep_spans,
            ..EventLog::default()
        };
        std::mem::replace(&mut *log, fresh)
    }
}

impl Recorder for SharedLog {
    fn event(&mut self, event: Event) {
        let at = Instant::now();
        let mut log = lock(&self.0);
        let i = kind_index(event.kind);
        log.counts[i] += 1;
        log.bytes[i] += event.bytes;
        if log.stamp.contains(&event.kind) {
            log.stamped.push((at, event));
        }
    }

    fn counter(&mut self, _counter: Counter) {}

    fn span(&mut self, span: Span) {
        let mut log = lock(&self.0);
        if log.keep_spans {
            log.spans.push(span);
        }
    }
}
