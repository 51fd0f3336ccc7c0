//! Update visibility, seen from outside the program: a benchmark-owned
//! [`DeltaMonitor`] notes when a sampled inserted edge first appears in a
//! published delta (or in a rebase snapshot).

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use gpma_core::delta::SnapshotDelta;
use gpma_core::framework::GraphSnapshot;
use gpma_graph::{decode_key, Edge};
use gpma_service::DeltaMonitor;

use crate::trace::Tracer;

struct Pending {
    t0: Instant,
    req: u64,
    parent: u64,
}

#[derive(Default)]
struct State {
    pending: HashMap<u64, Pending>,
    samples_ms: Vec<f64>,
    captured: Vec<Arc<SnapshotDelta>>,
}

/// Shared between the load generator and the monitor thread.
pub struct Visibility {
    state: Mutex<State>,
    seen: Condvar,
    capture: bool,
    tracer: Arc<Tracer>,
}

impl Visibility {
    /// A tracker; `capture` keeps a copy of every delta for later replay.
    pub fn new(tracer: Arc<Tracer>, capture: bool) -> Arc<Self> {
        Arc::new(Visibility {
            state: Mutex::new(State::default()),
            seen: Condvar::new(),
            capture,
            tracer,
        })
    }

    /// The monitor half, to register with a service or cluster.
    pub fn monitor(self: &Arc<Self>) -> Box<dyn DeltaMonitor> {
        Box::new(Monitor(Arc::clone(self)))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("visibility state poisoned")
    }

    /// Start timing `e` from `t0`. Call before the ingest call, so the
    /// delta cannot race ahead of the registration.
    pub fn expect(&self, e: Edge, t0: Instant, req: u64, parent: u64) {
        self.lock()
            .pending
            .insert(e.key(), Pending { t0, req, parent });
    }

    /// Stop timing `e` (its batch was shed or timed out).
    pub fn forget(&self, e: Edge) {
        self.lock().pending.remove(&e.key());
    }

    /// Block until `e` has been seen; false on timeout.
    pub fn wait(&self, e: Edge, timeout: Duration) -> bool {
        let key = e.key();
        let deadline = Instant::now() + timeout;
        let mut st = self.lock();
        while st.pending.contains_key(&key) {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            st = self
                .seen
                .wait_timeout(st, deadline - now)
                .expect("visibility state poisoned")
                .0;
        }
        true
    }

    /// Block until nothing is pending; returns how many never showed.
    pub fn drain(&self, timeout: Duration) -> usize {
        let deadline = Instant::now() + timeout;
        let mut st = self.lock();
        while !st.pending.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                let left = st.pending.len();
                st.pending.clear();
                return left;
            }
            st = self
                .seen
                .wait_timeout(st, deadline - now)
                .expect("visibility state poisoned")
                .0;
        }
        0
    }

    /// Take the visibility samples (ms) recorded so far.
    pub fn take_samples(&self) -> Vec<f64> {
        std::mem::take(&mut self.lock().samples_ms)
    }

    /// Take the captured deltas.
    pub fn take_captured(&self) -> Vec<Arc<SnapshotDelta>> {
        std::mem::take(&mut self.lock().captured)
    }

    fn seen_now(&self, st: &mut State, key: u64, now: Instant) {
        if let Some(p) = st.pending.remove(&key) {
            st.samples_ms
                .push(now.duration_since(p.t0).as_secs_f64() * 1e3);
            self.tracer.record("visible", p.req, p.parent, p.t0, now);
        }
    }
}

struct Monitor(Arc<Visibility>);

impl DeltaMonitor for Monitor {
    fn name(&self) -> &str {
        "perfbench-visibility"
    }

    fn on_rebase(&mut self, snapshot: &GraphSnapshot) {
        let now = Instant::now();
        let v = &self.0;
        let mut st = v.lock();
        let keys: Vec<u64> = st.pending.keys().copied().collect();
        for key in keys {
            let (s, d) = decode_key(key);
            if snapshot.contains(s, d) {
                v.seen_now(&mut st, key, now);
            }
        }
        drop(st);
        v.seen.notify_all();
    }

    fn on_delta(&mut self, delta: &SnapshotDelta) {
        let now = Instant::now();
        let v = &self.0;
        let mut st = v.lock();
        if v.capture {
            st.captured.push(Arc::new(delta.clone()));
        }
        if !st.pending.is_empty() {
            for e in delta.inserted() {
                v.seen_now(&mut st, e.key(), now);
            }
        }
        drop(st);
        v.seen.notify_all();
    }
}
