//! Runs one generated transaction in process, through `Transaction` calls.
//!
//! Traced, every operation is preceded by `ProtocolEngine::resource_for` on
//! its target, an explicit `Transaction::lock` (its `LockReport` gives the
//! locks per request) and a repeated lock the first one already covers —
//! the same covered re-lock the operation then performs inside.

use crate::spans::{set_recording, timed, Recorder, Span};
use crate::world::{set_leaf, TxnSpec};
use colock_core::{AccessMode, InstanceTarget};
use colock_nf2::Value;
use colock_storage::StorageError;
use colock_txn::{Transaction, TransactionManager, TxnError, TxnKind};

/// Why an attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// Deadlock victim.
    Deadlock,
    /// Lock wait timed out.
    Timeout,
    /// Anything else.
    Other,
}

impl Failure {
    /// All causes, in metric order.
    pub const ALL: [Failure; 3] = [Failure::Deadlock, Failure::Timeout, Failure::Other];

    /// Metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            Failure::Deadlock => "deadlock",
            Failure::Timeout => "timeout",
            Failure::Other => "other",
        }
    }

    /// Classifies an engine error.
    pub fn of(e: &TxnError) -> Failure {
        if e.is_deadlock() {
            Failure::Deadlock
        } else if e.is_timeout() {
            Failure::Timeout
        } else {
            Failure::Other
        }
    }
}

/// Sample one object size in this many traced transactions.
const OBJECT_SAMPLE_EVERY: u64 = 16;

/// In-process executor of one client thread.
pub struct Exec<'a> {
    mgr: &'a TransactionManager,
    /// Spans and counters, when tracing and recording.
    pub rec: Option<Recorder>,
    parked: Option<Recorder>,
    done: u64,
}

fn bad_target(target: &InstanceTarget) -> TxnError {
    TxnError::Storage(StorageError::BadTarget(target.to_string()))
}

impl<'a> Exec<'a> {
    /// An executor over `mgr`; `traced` turns the recorder on.
    pub fn new(mgr: &'a TransactionManager, traced: bool) -> Exec<'a> {
        Exec {
            mgr,
            rec: traced.then(Recorder::new),
            parked: None,
            done: 0,
        }
    }

    /// Records the next transactions (`on`) or runs them as untraced.
    pub fn record(&mut self, on: bool) {
        set_recording(&mut self.rec, &mut self.parked, on);
    }

    /// The recorder of a traced executor, taken out after its run.
    pub fn take_recorder(&mut self) -> Option<Recorder> {
        self.rec.take().or_else(|| self.parked.take())
    }

    /// Runs `spec` to commit. On error the dropped handle aborts.
    pub fn run(&mut self, spec: &TxnSpec) -> Result<(), TxnError> {
        let mgr = self.mgr;
        match spec {
            TxnSpec::Rmw { leaves } => {
                let txn = timed(&mut self.rec, Span::Begin, || mgr.begin(TxnKind::Short));
                for leaf in leaves {
                    self.probe(&txn, &leaf.target, AccessMode::Read)?;
                    timed(&mut self.rec, Span::Read, || txn.read(&leaf.target))?;
                    self.store_get(&leaf.target, None)?;
                }
                for leaf in leaves {
                    self.probe(&txn, &leaf.target, AccessMode::Update)?;
                    let value = Value::str(leaf.value.as_str());
                    timed(&mut self.rec, Span::Update, || {
                        txn.update(&leaf.target, value)
                    })?;
                }
                self.commit(txn, spec)
            }
            TxnSpec::Snap { target } => {
                let txn = timed(&mut self.rec, Span::Begin, || mgr.begin_readonly());
                timed(&mut self.rec, Span::SnapshotRead, || {
                    txn.snapshot_read(target)
                })?;
                self.store_get(target, txn.snapshot_ts())?;
                self.commit(txn, spec)
            }
            TxnSpec::Checkout { target, edit } => {
                let txn = timed(&mut self.rec, Span::Begin, || mgr.begin(TxnKind::Long));
                self.probe(&txn, target, AccessMode::Update)?;
                let mut copy = timed(&mut self.rec, Span::Checkout, || {
                    txn.checkout(target, AccessMode::Update)
                })?;
                let inner = &edit.target.steps[target.steps.len()..];
                if !set_leaf(&mut copy, inner, Value::str(edit.value.as_str())) {
                    return Err(bad_target(&edit.target));
                }
                timed(&mut self.rec, Span::Checkin, || txn.checkin(target, copy))?;
                self.commit(txn, spec)
            }
        }
    }

    /// Traced only: resource path, explicit lock, covered re-lock.
    fn probe(
        &mut self,
        txn: &Transaction<'_>,
        target: &InstanceTarget,
        access: AccessMode,
    ) -> Result<(), TxnError> {
        let Some(rec) = self.rec.as_mut() else {
            return Ok(());
        };
        let engine = self.mgr.engine();
        rec.time(Span::ResourceFor, || engine.resource_for(target))?;
        let report = rec.time(Span::Lock, || txn.lock(target, access))?;
        rec.locks_granted += report.lock_count() as u64;
        rec.explicit_locks += 1;
        let relock = match access {
            AccessMode::Read => Span::RelockRead,
            AccessMode::Update => Span::RelockWrite,
        };
        rec.time(relock, || txn.lock(target, access))?;
        Ok(())
    }

    /// Traced only: the storage read of `target`, latest or at a snapshot.
    fn store_get(
        &mut self,
        target: &InstanceTarget,
        snapshot: Option<u64>,
    ) -> Result<(), TxnError> {
        let Some(rec) = self.rec.as_mut() else {
            return Ok(());
        };
        let store = self.mgr.store();
        let key = target.object.as_ref().ok_or_else(|| bad_target(target))?;
        rec.time(Span::StoreGet, || match snapshot {
            Some(ts) => store.get_at_snapshot(&target.relation, key, &target.steps, ts),
            None => store.get_at(&target.relation, key, &target.steps),
        })?;
        Ok(())
    }

    fn commit(&mut self, txn: Transaction<'_>, spec: &TxnSpec) -> Result<(), TxnError> {
        if let Some(rec) = self.rec.as_mut() {
            rec.keep_lock_set(self.mgr.lock_manager().locks_of(txn.id()));
            if self.done.is_multiple_of(OBJECT_SAMPLE_EVERY) {
                let target = spec.target();
                if let Some(key) = &target.object {
                    let object = self.mgr.store().get(&target.relation, key)?;
                    rec.object_bytes += colock_server::wire::encode_value(&object).len() as u64;
                    rec.objects_sampled += 1;
                }
            }
        }
        self.done += 1;
        timed(&mut self.rec, Span::Commit, || txn.commit())
    }
}
