//! The transaction manager.

use crate::error::TxnError;
use crate::transaction::{Transaction, TxnKind};
use crate::Result;
use colock_core::{
    AccessMode, Authorization, InstanceTarget, LockReport, ProtocolEngine, ProtocolOptions,
    ResourcePath, TxnLockCache,
};
use colock_lockmgr::txnid::TxnIdGen;
use colock_lockmgr::{Journal, JournalSink, LockManager, TxnId};
use colock_lockmgr::LockStats;
use colock_storage::Store;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Which lock protocol a manager (or an individual transaction) uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// The paper's protocol with rule 4′.
    Proposed,
    /// The paper's protocol with plain rule 4 (no authorization cooperation).
    ProposedRule4,
    /// XSQL-style whole-object locking.
    WholeObject,
    /// System R tuple-level locking.
    TupleLevel,
    /// Naive traditional DAG on non-disjoint data.
    NaiveDag,
    /// Naive DAG with the all-parents rule given up (§3.2.2): cheap X on
    /// shared data, but from-the-side conflicts go undetected.
    NaiveRelaxed,
}

impl ProtocolKind {
    /// All protocol kinds (for sweeps).
    pub const ALL: [ProtocolKind; 6] = [
        ProtocolKind::Proposed,
        ProtocolKind::ProposedRule4,
        ProtocolKind::WholeObject,
        ProtocolKind::TupleLevel,
        ProtocolKind::NaiveDag,
        ProtocolKind::NaiveRelaxed,
    ];

    /// Short display name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Proposed => "proposed(4')",
            ProtocolKind::ProposedRule4 => "proposed(4)",
            ProtocolKind::WholeObject => "whole-object",
            ProtocolKind::TupleLevel => "tuple-level",
            ProtocolKind::NaiveDag => "naive-dag",
            ProtocolKind::NaiveRelaxed => "naive-relaxed",
        }
    }
}

pub(crate) struct TxnState {
    pub undo: Vec<crate::undo::UndoRecord>,
    pub shrinking: bool,
    /// Check-outs by target text, with the strongest access checked out.
    pub checked_out: HashMap<String, AccessMode>,
    /// Per-transaction ancestor-lock cache; dies with the state at EOT, so
    /// invalidation needs no extra bookkeeping. Cleared on early release.
    pub cache: Arc<TxnLockCache>,
    /// Begun via `begin_readonly`: must never write.
    pub readonly: bool,
    /// Snapshot timestamp pinned in the store's commit clock at begin (MVCC
    /// read-only transactions only); unpinned at EOT.
    pub snapshot_ts: Option<u64>,
}

/// The transaction manager: owns lock manager, engine, store, rights.
pub struct TransactionManager {
    lm: Arc<LockManager<ResourcePath>>,
    engine: Arc<ProtocolEngine>,
    store: Arc<Store>,
    authz: Arc<Authorization>,
    protocol: ProtocolKind,
    idgen: TxnIdGen,
    pub(crate) states: Mutex<HashMap<TxnId, TxnState>>,
    /// Durable long-lock journal, if one has been attached. The manager
    /// keeps the concrete type (the lock manager only sees the sink trait)
    /// so recovery can inspect the medium.
    journal: OnceLock<Arc<Journal<ResourcePath>>>,
    /// Multiversion overlay toggle (`COLOCK_NO_MVCC` ablation): off,
    /// `begin_readonly` degrades to a locking reader.
    mvcc: AtomicBool,
    /// Writer commits since the last backlog sweep.
    commits_since_gc: AtomicU64,
    /// Backlog-sweep cadence in writer commits (`COLOCK_GC_EVERY`, 0 = no
    /// automatic reclamation at all).
    gc_every: AtomicU64,
    /// Semantic commutativity container modes toggle (`COLOCK_NO_SEMANTIC`
    /// ablation): off, element operations degrade to classical X on the
    /// container.
    semantic: AtomicBool,
}

/// `COLOCK_NO_MVCC` set (non-empty, not "0") disables the overlay.
fn mvcc_default() -> bool {
    match std::env::var("COLOCK_NO_MVCC") {
        Ok(v) => v.is_empty() || v == "0",
        Err(_) => true,
    }
}

/// `COLOCK_GC_EVERY` overrides the version-GC cadence (default every 64
/// writer commits; 0 disables automatic reclamation).
fn gc_every_default() -> u64 {
    std::env::var("COLOCK_GC_EVERY").ok().and_then(|v| v.parse().ok()).unwrap_or(64)
}

/// `COLOCK_NO_SEMANTIC` set (non-empty, not "0") disables the semantic
/// Insert/Delete/Member container modes.
fn semantic_default() -> bool {
    match std::env::var("COLOCK_NO_SEMANTIC") {
        Ok(v) => v.is_empty() || v == "0",
        Err(_) => true,
    }
}

/// What `TransactionManager::recover` restored from a journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Owners that were re-adopted (ascending ids), one fresh long
    /// transaction state each.
    pub owners: Vec<TxnId>,
    /// Total long locks re-installed across all owners.
    pub locks: usize,
    /// Torn-tail records dropped during replay (0 for a clean shutdown).
    pub dropped_tail: usize,
}

impl TransactionManager {
    /// Creates a manager over shared components.
    pub fn new(
        lm: Arc<LockManager<ResourcePath>>,
        engine: Arc<ProtocolEngine>,
        store: Arc<Store>,
        authz: Arc<Authorization>,
        protocol: ProtocolKind,
    ) -> Self {
        TransactionManager {
            lm,
            engine,
            store,
            authz,
            protocol,
            idgen: TxnIdGen::new(),
            states: Mutex::new(HashMap::new()),
            journal: OnceLock::new(),
            mvcc: AtomicBool::new(mvcc_default()),
            commits_since_gc: AtomicU64::new(0),
            gc_every: AtomicU64::new(gc_every_default()),
            semantic: AtomicBool::new(semantic_default()),
        }
    }

    /// Whether the multiversion read overlay is active (read-only
    /// transactions elide locks). Defaults to on; `COLOCK_NO_MVCC=1` or
    /// [`TransactionManager::set_mvcc`] turn it off.
    pub fn mvcc_enabled(&self) -> bool {
        self.mvcc.load(Ordering::Relaxed)
    }

    /// Toggles the multiversion overlay (ablation hook; the env-independent
    /// counterpart of `COLOCK_NO_MVCC` for parallel tests).
    pub fn set_mvcc(&self, enabled: bool) {
        self.mvcc.store(enabled, Ordering::Relaxed);
    }

    /// Whether the semantic commutativity container modes (Insert/Delete/
    /// Member) are in play. Defaults to on; `COLOCK_NO_SEMANTIC=1` or
    /// [`TransactionManager::set_semantic`] turn them off.
    pub fn semantic_enabled(&self) -> bool {
        self.semantic.load(Ordering::Relaxed)
    }

    /// Toggles the semantic container modes (the env-independent counterpart
    /// of `COLOCK_NO_SEMANTIC` for parallel tests).
    pub fn set_semantic(&self, enabled: bool) {
        self.semantic.store(enabled, Ordering::Relaxed);
    }

    /// Whether the container HoLU named by `container` should be locked with
    /// the semantic modes: toggle on, a protocol that understands explicit
    /// modes, and a schema whose element keys are derivable (the catalog's
    /// admission rule). Anything else degrades to the classical protocol.
    pub fn semantic_for(&self, container: &InstanceTarget) -> bool {
        if !self.semantic_enabled()
            || !matches!(self.protocol, ProtocolKind::Proposed | ProtocolKind::ProposedRule4)
        {
            return false;
        }
        self.store
            .catalog()
            .admits_semantic_modes(&container.relation, &container.attr_path())
            .unwrap_or(false)
    }

    /// Version-GC cadence in writer commits: every commit reclaims what its
    /// own install supersedes, and every `gc_every`-th also sweeps the
    /// chains left over (0 = no automatic reclamation).
    pub fn gc_every(&self) -> u64 {
        self.gc_every.load(Ordering::Relaxed)
    }

    /// Overrides the version-GC cadence (the env-independent counterpart of
    /// `COLOCK_GC_EVERY`).
    pub fn set_gc_every(&self, every: u64) {
        self.gc_every.store(every, Ordering::Relaxed);
    }

    /// The GC low watermark: the oldest snapshot timestamp still pinned by
    /// an active read-only transaction or store snapshot handle, or the
    /// current stable timestamp when none is active. Versions older than the
    /// newest chain entry ≤ this are unreachable.
    pub fn low_watermark(&self) -> u64 {
        self.store.clock().watermark()
    }

    /// Prunes every version chain up to the low watermark now; returns
    /// entries dropped. Automatic reclamation never walks every chain: see
    /// [`TransactionManager::gc_every`].
    pub fn gc_versions(&self) -> u64 {
        self.store.prune_versions(self.low_watermark())
    }

    /// Locks the per-transaction state map, recovering from poisoning so a
    /// panicking test thread cannot wedge the whole manager.
    pub(crate) fn states_locked(&self) -> MutexGuard<'_, HashMap<TxnId, TxnState>> {
        self.states.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Convenience constructor wiring everything from a store.
    pub fn over_store(store: Arc<Store>, authz: Authorization, protocol: ProtocolKind) -> Self {
        let engine = Arc::new(ProtocolEngine::new(Arc::clone(store.catalog())));
        Self::new(Arc::new(LockManager::new()), engine, store, Arc::new(authz), protocol)
    }

    /// Attaches a durable long-lock journal to this manager *and* its lock
    /// manager; every long-lock grant/conversion/release is recorded
    /// write-ahead from now on. First sink wins (returns `false` if either
    /// the manager or the lock manager already had one).
    pub fn attach_journal(&self, journal: Arc<Journal<ResourcePath>>) -> bool {
        let sink: Arc<dyn JournalSink<ResourcePath>> = Arc::clone(&journal) as _;
        self.journal.set(journal).is_ok() && self.lm.attach_journal(sink)
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&Arc<Journal<ResourcePath>>> {
        self.journal.get()
    }

    /// Whether the attached journal has simulated a crash (after which all
    /// long-lock requests fail unacknowledged).
    pub fn journal_crashed(&self) -> bool {
        self.journal.get().is_some_and(|j| j.crashed())
    }

    /// Replays a journal (the medium text of a crashed peer) into this
    /// manager: every surviving long lock is re-installed in the lock
    /// manager under its original owner, and each owner gets a fresh long
    /// transaction state so it can be resumed, checked in, or aborted
    /// exactly like a live one. The id generator is bumped past the highest
    /// recovered owner so new transactions cannot collide with re-adopted
    /// ones.
    ///
    /// If a journal is attached to *this* manager, the re-installed locks
    /// are re-journaled into it, so a second crash recovers them again.
    pub fn recover(&self, journal_text: &str) -> Result<RecoveryReport> {
        let recovered = Journal::<ResourcePath>::replay(journal_text)?;
        let owners = recovered.owners();
        let mut per_owner: HashMap<TxnId, usize> = HashMap::new();
        for (resource, txn, mode) in &recovered.entries {
            self.lm.install_recovered(*txn, resource.clone(), *mode);
            *per_owner.entry(*txn).or_insert(0) += 1;
        }
        {
            let mut states = self.states_locked();
            for &owner in &owners {
                states.entry(owner).or_insert_with(|| TxnState {
                    undo: Vec::new(),
                    shrinking: false,
                    checked_out: HashMap::new(),
                    cache: Arc::new(TxnLockCache::new()),
                    readonly: false,
                    snapshot_ts: None,
                });
            }
        }
        if let Some(&max) = owners.iter().max() {
            self.idgen.ensure_above(max);
        }
        for &owner in &owners {
            let n = per_owner.get(&owner).copied().unwrap_or(0);
            colock_trace::emit(|| {
                colock_trace::Event::new(colock_trace::EventKind::TxnRecovered, owner.0)
                    .detail(format!("{n} long locks"))
            });
        }
        Ok(RecoveryReport {
            owners,
            locks: recovered.entries.len(),
            dropped_tail: recovered.dropped_tail,
        })
    }

    /// Hands out a handle to a transaction this manager already tracks —
    /// the post-crash counterpart of `begin`, for owners re-adopted by
    /// `recover`. The caller is responsible for not resuming the same
    /// transaction twice concurrently (the second handle's drop would abort
    /// an already-finished transaction).
    pub fn resume(&self, txn: TxnId) -> Result<Transaction<'_>> {
        if !self.states_locked().contains_key(&txn) {
            return Err(TxnError::NotActive(txn));
        }
        Ok(Transaction::new(self, txn, TxnKind::Long))
    }

    /// Starts a transaction.
    pub fn begin(&self, kind: TxnKind) -> Transaction<'_> {
        let id = self.idgen.next();
        self.states_locked().insert(
            id,
            TxnState {
                undo: Vec::new(),
                shrinking: false,
                checked_out: HashMap::new(),
                cache: Arc::new(TxnLockCache::new()),
                readonly: false,
                snapshot_ts: None,
            },
        );
        colock_trace::emit(|| {
            colock_trace::Event::new(colock_trace::EventKind::TxnBegin, id.0)
                .detail(if kind == TxnKind::Long { "long" } else { "short" })
        });
        Transaction::new(self, id, kind)
    }

    /// Starts a read-only transaction. With the multiversion overlay on it
    /// pins a snapshot timestamp at begin and every read resolves against
    /// the version chains — zero locks, never in the waits-for graph, never
    /// blocked behind a long check-out. With the overlay off
    /// (`COLOCK_NO_MVCC`) it degrades to an ordinary locking reader (begin
    /// detail `readonly-locking`), which is the ablation baseline.
    pub fn begin_readonly(&self) -> Transaction<'_> {
        let id = self.idgen.next();
        let snap = self.mvcc_enabled().then(|| self.store.clock().pin());
        self.states_locked().insert(
            id,
            TxnState {
                undo: Vec::new(),
                shrinking: false,
                checked_out: HashMap::new(),
                cache: Arc::new(TxnLockCache::new()),
                readonly: true,
                snapshot_ts: snap,
            },
        );
        colock_trace::emit(|| {
            colock_trace::Event::new(colock_trace::EventKind::TxnBegin, id.0)
                .detail(if snap.is_some() { "readonly" } else { "readonly-locking" })
        });
        Transaction::new_readonly(self, id, snap)
    }

    /// The lock manager.
    pub fn lock_manager(&self) -> &Arc<LockManager<ResourcePath>> {
        &self.lm
    }

    /// The protocol engine.
    pub fn engine(&self) -> &Arc<ProtocolEngine> {
        &self.engine
    }

    /// The store.
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// The rights matrix.
    pub fn authorization(&self) -> &Arc<Authorization> {
        &self.authz
    }

    /// The protocol in use.
    pub fn protocol(&self) -> ProtocolKind {
        self.protocol
    }

    /// Locks `target` for `txn` under the configured protocol.
    pub fn lock(
        &self,
        txn: TxnId,
        target: &InstanceTarget,
        access: AccessMode,
        opts: ProtocolOptions,
    ) -> Result<LockReport> {
        let cache = self.active_cache(txn)?;
        let cache = Some(cache.as_ref());
        let src: &Store = &self.store;
        let report = match self.protocol {
            ProtocolKind::Proposed => self.engine.lock_proposed_cached(
                &self.lm,
                txn,
                src,
                &self.authz,
                target,
                access,
                ProtocolOptions { rule4_prime: true, ..opts },
                cache,
            ),
            ProtocolKind::ProposedRule4 => self.engine.lock_proposed_cached(
                &self.lm,
                txn,
                src,
                &self.authz,
                target,
                access,
                ProtocolOptions { rule4_prime: false, ..opts },
                cache,
            ),
            ProtocolKind::WholeObject => self
                .engine
                .lock_whole_object_cached(&self.lm, txn, src, &self.authz, target, access, opts, cache),
            ProtocolKind::TupleLevel => self
                .engine
                .lock_tuple_level_cached(&self.lm, txn, src, &self.authz, target, access, opts, cache),
            ProtocolKind::NaiveDag => self
                .engine
                .lock_naive_dag_cached(&self.lm, txn, src, &self.authz, target, access, opts, cache),
            ProtocolKind::NaiveRelaxed => self
                .engine
                .lock_naive_relaxed_cached(&self.lm, txn, src, &self.authz, target, access, opts, cache),
        }?;
        Ok(report)
    }

    /// Fetches the ancestor-lock cache of an active, still-growing
    /// transaction (shared entry point of `lock` / `lock_mode`).
    fn active_cache(&self, txn: TxnId) -> Result<Arc<TxnLockCache>> {
        let states = self.states_locked();
        let st = states.get(&txn).ok_or(TxnError::NotActive(txn))?;
        if st.shrinking {
            return Err(TxnError::TwoPhaseViolation(txn));
        }
        // Manager-level backstop for the handle-level guard: a snapshot
        // transaction must never reach the lock table, whatever path the
        // request took.
        if st.readonly && st.snapshot_ts.is_some() {
            return Err(TxnError::ReadOnlyTxn(txn));
        }
        Ok(Arc::clone(&st.cache))
    }

    /// Locks `target` in an explicit multi-granularity mode (IS/IX/S/SIX/X).
    /// The proposed protocol honours the exact mode; the baselines have no
    /// notion of intent requests from above and fall back to the S/X their
    /// access-kind mapping produces.
    pub fn lock_mode(
        &self,
        txn: TxnId,
        target: &InstanceTarget,
        mode: colock_lockmgr::LockMode,
        opts: ProtocolOptions,
    ) -> Result<LockReport> {
        let cache = self.active_cache(txn)?;
        let src: &Store = &self.store;
        match self.protocol {
            ProtocolKind::Proposed => Ok(self.engine.lock_proposed_mode_cached(
                &self.lm,
                txn,
                src,
                &self.authz,
                target,
                mode,
                ProtocolOptions { rule4_prime: true, ..opts },
                Some(cache.as_ref()),
            )?),
            ProtocolKind::ProposedRule4 => Ok(self.engine.lock_proposed_mode_cached(
                &self.lm,
                txn,
                src,
                &self.authz,
                target,
                mode,
                ProtocolOptions { rule4_prime: false, ..opts },
                Some(cache.as_ref()),
            )?),
            _ => {
                // Required parent intent IX singles out the write-side modes
                // including semantic Insert/Delete, which sit below IX and so
                // would be misread as Read by a bare `covers(IX)` test.
                let access = if mode.required_parent_intent() == colock_lockmgr::LockMode::IX {
                    AccessMode::Update
                } else {
                    AccessMode::Read
                };
                self.lock(txn, target, access, opts)
            }
        }
    }

    pub(crate) fn finish(&self, txn: TxnId, commit: bool) -> Result<()> {
        let state = self
            .states_locked()
            .remove(&txn)
            .ok_or(TxnError::NotActive(txn))?;
        if let Some(ts) = state.snapshot_ts {
            // The GC watermark may advance past the snapshot now.
            self.store.clock().unpin(ts);
        }
        let rolled_back = if commit {
            Ok(())
        } else {
            crate::undo::rollback(&self.store, &state.undo)
        };
        // A committing writer installs its new versions *before* releasing
        // its X locks: the patches are composed from subtrees no concurrent
        // transaction may touch yet, and the commit gate makes the whole
        // multi-object install atomic to snapshot readers. With automatic
        // reclamation on, each install also frees the versions it supersedes.
        let every = self.gc_every();
        let mut commit_ts = None;
        let installed: std::result::Result<(), colock_storage::StorageError> = if commit
            && !state.undo.is_empty()
        {
            let patches = crate::undo::commit_patches(&self.store, &state.undo);
            self.store.clock().commit(|c| {
                commit_ts = Some(c.ts());
                for (relation, key, patch) in &patches {
                    self.store.install_version(relation, key, c, patch, every > 0)?;
                }
                Ok(())
            })
        } else {
            Ok(())
        };
        // Locks are released even when an undo record failed: holding them
        // would wedge every waiter behind a transaction that no longer
        // exists. The failure still reaches the caller below.
        self.lm.release_all(txn);
        // Per-transaction rights die with the transaction (ids are never
        // reused; session-granted rule 4′ contexts must not accumulate).
        self.authz.retract(txn);
        colock_trace::emit(|| {
            let kind =
                if commit { colock_trace::EventKind::TxnCommit } else { colock_trace::EventKind::TxnAbort };
            let ev = colock_trace::Event::new(kind, txn.0);
            // A version-installing commit stamps its clock timestamp so the
            // serializability certifier can order snapshot reads against it
            // (reads-from edges are `version ts ≤ snapshot ts`).
            match commit_ts {
                Some(ts) => ev.detail(format!("ts={ts}")),
                None => ev,
            }
        });
        if commit_ts.is_some()
            && every > 0
            && (self.commits_since_gc.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(every)
        {
            self.store.prune_backlog(self.low_watermark());
        }
        rolled_back.map_err(TxnError::from).and(installed.map_err(TxnError::from))
    }

    /// Bumps the elided-read counter (one per lock-free snapshot read).
    pub(crate) fn note_read_elided(&self) {
        LockStats::bump(&self.lm.stats().reads_elided);
    }

    /// Number of active transactions.
    pub fn active_count(&self) -> usize {
        self.states_locked().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colock_core::fixtures::fig1_catalog;

    #[test]
    fn protocol_names_are_distinct() {
        let mut names: Vec<&str> = ProtocolKind::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn begin_and_finish_lifecycle() {
        let store = Arc::new(Store::new(Arc::new(fig1_catalog())));
        let mgr = TransactionManager::over_store(store, Authorization::allow_all(), ProtocolKind::Proposed);
        let t = mgr.begin(TxnKind::Short);
        assert_eq!(mgr.active_count(), 1);
        t.commit().unwrap();
        assert_eq!(mgr.active_count(), 0);
    }
}
