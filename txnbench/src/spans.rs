//! Spans and counters the traced run records around the benchmark's calls
//! into each layer's public functions.
//!
//! A recorder belongs to one client thread and is merged after the run, so
//! recording is a clock read and a `Vec` push. The library's own trace ring
//! stays off.

use colock_core::ResourcePath;
use colock_lockmgr::LockMode;
use std::time::Instant;

/// Lock sets kept per thread for the lock-table replay.
const MAX_LOCK_SETS: usize = 20_000;

/// Requests kept per thread for the session replay.
pub const MAX_REQUESTS: usize = 40_000;

/// A timed call into one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `TransactionManager::begin` / `begin_readonly`.
    Begin,
    /// `Transaction::read`.
    Read,
    /// `Transaction::update`.
    Update,
    /// `Transaction::snapshot_read`.
    SnapshotRead,
    /// `Transaction::checkout`.
    Checkout,
    /// `Transaction::checkin`.
    Checkin,
    /// `Transaction::commit`.
    Commit,
    /// `ProtocolEngine::resource_for`.
    ResourceFor,
    /// An explicit `Transaction::lock` ahead of an operation.
    Lock,
    /// A repeated read lock the explicit lock already covers.
    RelockRead,
    /// A repeated write lock the explicit lock already covers.
    RelockWrite,
    /// `Store::get_at` / `Store::get_at_snapshot`.
    StoreGet,
    /// One request's round trip over the socket.
    Rtt,
    /// Request and response encode + parse, and framing.
    Codec,
    /// `Session::handle`, replayed in process.
    Session,
}

impl Span {
    const COUNT: usize = Span::Session as usize + 1;
}

/// Per-thread span durations (nanoseconds) and counters.
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Vec<Vec<u64>>,
    /// Sum of `LockReport::lock_count()` over explicit locks.
    pub locks_granted: u64,
    /// Explicit locks taken.
    pub explicit_locks: u64,
    /// Sum of sampled encoded object sizes.
    pub object_bytes: u64,
    /// Objects sampled for `object_bytes`.
    pub objects_sampled: u64,
    /// `locks_of()` sets captured before commit.
    pub lock_sets: Vec<Vec<(ResourcePath, LockMode, bool)>>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Recorder {
        Recorder {
            spans: vec![Vec::new(); Span::COUNT],
            ..Recorder::default()
        }
    }

    /// Runs `f`, recording its duration under `span`.
    pub fn time<T>(&mut self, span: Span, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.push(span, start.elapsed().as_nanos() as u64);
        out
    }

    /// Records one duration.
    pub fn push(&mut self, span: Span, ns: u64) {
        self.spans[span as usize].push(ns);
    }

    /// Keeps a lock set for the table replay (bounded).
    pub fn keep_lock_set(&mut self, set: Vec<(ResourcePath, LockMode, bool)>) {
        if self.lock_sets.len() < MAX_LOCK_SETS {
            self.lock_sets.push(set);
        }
    }

    /// Durations of one span.
    pub fn samples(&mut self, span: Span) -> &mut Vec<u64> {
        &mut self.spans[span as usize]
    }

    /// Folds another thread's recorder into this one.
    pub fn merge(&mut self, mut other: Recorder) {
        for (mine, theirs) in self.spans.iter_mut().zip(other.spans.iter_mut()) {
            mine.append(theirs);
        }
        self.locks_granted += other.locks_granted;
        self.explicit_locks += other.explicit_locks;
        self.object_bytes += other.object_bytes;
        self.objects_sampled += other.objects_sampled;
        self.lock_sets.append(&mut other.lock_sets);
    }
}

/// Moves a traced executor's recorder between `active` and `parked`, so that
/// its next transaction is recorded (`on`) or runs as it would untraced.
/// Untraced executors hold no recorder and are left as they are.
pub fn set_recording(active: &mut Option<Recorder>, parked: &mut Option<Recorder>, on: bool) {
    if on == parked.is_some() {
        std::mem::swap(active, parked);
    }
}

/// Runs `f`, timing it into `rec` when tracing.
pub fn timed<T>(rec: &mut Option<Recorder>, span: Span, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(r) => r.time(span, f),
        None => f(),
    }
}
