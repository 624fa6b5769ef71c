//! Shared protocol machinery: context, lock reports, error mapping.

use crate::authorization::Authorization;
use crate::graph::derive::derive_lock_graph;
use crate::graph::object::DbLockGraph;
use crate::protocol::target::{AccessMode, InstanceSource, InstanceTarget};
use crate::resource::ResourcePath;
use colock_lockmgr::{
    AcquireOutcome, FastHasher, LockError, LockManager, LockMode, LockRequestOptions, TxnId,
    WaitPolicy,
};
use colock_trace::{rule_scope, RuleTag};
use colock_nf2::Catalog;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::BuildHasherDefault;
use std::sync::{Arc, Mutex, PoisonError};

/// Errors raised by protocol execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Underlying lock manager error (would-block, deadlock, timeout).
    Lock(LockError),
    /// Unknown relation in a target.
    UnknownRelation(String),
    /// The transaction lacks the right the access needs (checked before any
    /// lock is requested).
    Unauthorized {
        /// The requesting transaction.
        txn: TxnId,
        /// The relation whose right is missing.
        relation: String,
        /// The access that was attempted.
        access: AccessMode,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Lock(e) => write!(f, "lock error: {e}"),
            ProtocolError::UnknownRelation(r) => write!(f, "unknown relation `{r}`"),
            ProtocolError::Unauthorized { txn, relation, access } => {
                write!(f, "{txn} lacks {access:?} right on `{relation}`")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<LockError> for ProtocolError {
    fn from(e: LockError) -> Self {
        ProtocolError::Lock(e)
    }
}

/// Options controlling protocol behaviour.
#[derive(Debug, Clone, Copy)]
pub struct ProtocolOptions {
    /// Use rule 4′ (authorization-aware downward propagation) instead of
    /// rule 4.
    pub rule4_prime: bool,
    /// Wait policy passed to the lock manager.
    pub wait: WaitPolicy,
    /// Request long locks (check-out).
    pub long: bool,
    /// Whether accessing a reference implies accessing the referenced data
    /// (the default, §4.5). Operations that provably never dereference —
    /// e.g. deleting a robot without touching its effectors — may disable
    /// downward propagation entirely ("no locks on common data are necessary
    /// at all", §4.5).
    pub deref_refs: bool,
}

impl Default for ProtocolOptions {
    fn default() -> Self {
        ProtocolOptions { rule4_prime: true, wait: WaitPolicy::Block, long: false, deref_refs: true }
    }
}

impl ProtocolOptions {
    /// Rule 4 (no authorization cooperation).
    pub fn rule4_plain() -> Self {
        ProtocolOptions { rule4_prime: false, ..Default::default() }
    }

    /// Non-blocking variant (used by the deterministic scheduler).
    pub fn try_lock(self) -> Self {
        ProtocolOptions { wait: WaitPolicy::Try, ..self }
    }
}

/// Record of the locks a protocol run acquired, in acquisition order.
#[derive(Debug, Clone, Default)]
pub struct LockReport {
    /// `(resource, mode)` per granted (non-redundant) request.
    pub acquired: Vec<(ResourcePath, LockMode)>,
    /// Requests answered `AlreadyHeld` (covered by an earlier lock).
    pub redundant: u64,
    /// Requests that had to wait.
    pub waited: u64,
    /// Complex objects visited by reverse scans (naive-DAG baseline only).
    pub scan_cost: u64,
    /// Entry points locked by downward propagation.
    pub entry_points_locked: u64,
}

impl LockReport {
    /// Number of lock-table touching requests (granted, non-redundant).
    pub fn lock_count(&self) -> usize {
        self.acquired.len()
    }

    /// Renders the report like Fig. 7 annotations: `resource: MODE` lines.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (r, m) in &self.acquired {
            let _ = writeln!(out, "{r}: {m}");
        }
        out
    }

    /// The mode acquired on a resource in this run, if any (join of all
    /// grants on it).
    pub fn mode_of(&self, resource: &ResourcePath) -> Option<LockMode> {
        let mut mode: Option<LockMode> = None;
        for (r, m) in &self.acquired {
            if r == resource {
                mode = Some(mode.map_or(*m, |prev| prev.join(*m)));
            }
        }
        mode
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: LockReport) {
        self.acquired.extend(other.acquired);
        self.redundant += other.redundant;
        self.waited += other.waited;
        self.scan_cost += other.scan_cost;
        self.entry_points_locked += other.entry_points_locked;
    }
}

/// The protocol engine: catalog + derived lock graph + common-data set.
///
/// One engine serves all protocols; each protocol is a method (see the
/// sibling modules). The engine is immutable and shared between transactions.
pub struct ProtocolEngine {
    catalog: Arc<Catalog>,
    graph: DbLockGraph,
    common: HashSet<String>,
    db_name: String,
}

impl ProtocolEngine {
    /// Builds an engine (derives the object-specific lock graphs).
    pub fn new(catalog: Arc<Catalog>) -> Self {
        let graph = derive_lock_graph(&catalog);
        let common = catalog
            .schema()
            .common_data_relations()
            .iter()
            .map(|r| r.name.clone())
            .collect();
        let db_name = catalog.schema().name.clone();
        ProtocolEngine { catalog, graph, common, db_name }
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The derived lock graph.
    pub fn graph(&self) -> &DbLockGraph {
        &self.graph
    }

    /// The database name.
    pub fn db_name(&self) -> &str {
        &self.db_name
    }

    /// Whether a relation holds common data.
    pub fn is_common(&self, relation: &str) -> bool {
        self.common.contains(relation)
    }

    /// The segment of a relation.
    pub fn segment_of(&self, relation: &str) -> Result<&str, ProtocolError> {
        self.catalog
            .schema()
            .relation(relation)
            .map(|r| r.segment.as_str())
            .map_err(|_| ProtocolError::UnknownRelation(relation.to_string()))
    }

    /// The instance resource for a target.
    pub fn resource_for(&self, target: &InstanceTarget) -> Result<ResourcePath, ProtocolError> {
        let seg = self.segment_of(&target.relation)?;
        Ok(target.resource(&self.db_name, seg))
    }

    /// Checks authorization before any lock is requested.
    pub(crate) fn check_authorized(
        &self,
        authz: &Authorization,
        txn: TxnId,
        relation: &str,
        access: AccessMode,
    ) -> Result<(), ProtocolError> {
        let ok = match access {
            AccessMode::Read => authz.can_read(txn, relation),
            AccessMode::Update => authz.can_modify(txn, relation),
        };
        if ok {
            Ok(())
        } else {
            Err(ProtocolError::Unauthorized { txn, relation: relation.to_string(), access })
        }
    }

    /// The lock mode for the target granule given the access.
    pub fn target_mode(access: AccessMode) -> LockMode {
        match access {
            AccessMode::Read => LockMode::S,
            AccessMode::Update => LockMode::X,
        }
    }
}

/// Per-transaction cache of locks already obtained, letting the protocol
/// paths answer "is this request covered?" without a lock-table round-trip.
///
/// Rules 1–5 re-request the same database/segment/relation intention locks
/// on *every* access; before this cache each re-request paid a shard lock
/// just to be told `AlreadyHeld`. An entry `(mode, long)` means the
/// transaction holds at least `mode` on the resource, as a long lock if
/// `long` is set. A request is covered only when the cached mode covers the
/// requested one **and** the cached entry is long if the request is —
/// a long request over a short cached entry must go to the table, otherwise
/// `release_short` would strand long leaf locks without their ancestor
/// intents.
///
/// The cache is owned by the transaction's state and dropped at EOT, so
/// invalidation is automatic; early (pre-EOT) releases must call
/// [`TxnLockCache::clear`].
///
/// Keys hash through the lock table's [`FastHasher`], which for a
/// [`ResourcePath`] is one write of the path's cached hash.
#[derive(Debug, Default)]
pub struct TxnLockCache {
    held: Mutex<HeldMap>,
}

type HeldMap = HashMap<ResourcePath, (LockMode, bool), BuildHasherDefault<FastHasher>>;

impl TxnLockCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, HeldMap> {
        self.held.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether a request for `mode` (long if `long`) is covered by a cached
    /// lock. Admissibility is `satisfies_parent_intent`, not bare `covers`: a
    /// held semantic Insert/Delete answers an IX ancestor requirement without
    /// a conversion — upgrading the container to IX would re-serialize the
    /// commuting inserters the semantic mode exists to keep parallel.
    pub fn covers(&self, resource: &ResourcePath, mode: LockMode, long: bool) -> bool {
        self.locked()
            .get(resource)
            .map(|&(m, l)| m.satisfies_parent_intent(mode) && (l || !long))
            .unwrap_or(false)
    }

    /// Records a lock obtained from the table (joins modes, widens short to
    /// long).
    pub fn record(&self, resource: &ResourcePath, mode: LockMode, long: bool) {
        let mut held = self.locked();
        let entry = held.entry(resource.clone()).or_insert((LockMode::NL, false));
        entry.0 = entry.0.join(mode);
        entry.1 = entry.1 || long;
    }

    /// Forgets everything — required after any early (pre-EOT) release.
    pub fn clear(&self) {
        self.locked().clear();
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.locked().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.locked().is_empty()
    }
}

/// Mutable per-call context: lock manager handle, transaction, data source,
/// rights, options and the accumulating report.
pub(crate) struct Ctx<'a> {
    pub lm: &'a LockManager<ResourcePath>,
    pub txn: TxnId,
    pub src: &'a dyn InstanceSource,
    pub authz: &'a Authorization,
    pub opts: ProtocolOptions,
    pub cache: Option<&'a TxnLockCache>,
    pub report: LockReport,
}

impl<'a> Ctx<'a> {
    pub fn with_cache(
        lm: &'a LockManager<ResourcePath>,
        txn: TxnId,
        src: &'a dyn InstanceSource,
        authz: &'a Authorization,
        opts: ProtocolOptions,
        cache: Option<&'a TxnLockCache>,
    ) -> Self {
        Ctx { lm, txn, src, authz, opts, cache, report: LockReport::default() }
    }

    /// Acquires `mode` on `resource`, recording the outcome. A request
    /// covered by the per-transaction cache is answered as redundant without
    /// touching the lock table at all.
    pub fn acquire(&mut self, resource: &ResourcePath, mode: LockMode) -> Result<(), ProtocolError> {
        if let Some(cache) = self.cache {
            if cache.covers(resource, mode, self.opts.long) {
                self.report.redundant += 1;
                return Ok(());
            }
        }
        let lock_opts = LockRequestOptions { policy: self.opts.wait, long: self.opts.long };
        match self.lm.acquire(self.txn, resource.clone(), mode, lock_opts) {
            Ok(AcquireOutcome::Granted { waited }) => {
                if waited {
                    self.report.waited += 1;
                }
                self.report.acquired.push((resource.clone(), mode));
                if let Some(cache) = self.cache {
                    cache.record(resource, mode, self.opts.long);
                }
                Ok(())
            }
            Ok(AcquireOutcome::AlreadyHeld) => {
                self.report.redundant += 1;
                if let Some(cache) = self.cache {
                    // The table does not widen the long flag on AlreadyHeld,
                    // so cache the covering mode as short only.
                    cache.record(resource, mode, false);
                }
                Ok(())
            }
            Err(e) => Err(ProtocolError::Lock(e)),
        }
    }

    /// Acquires intent locks on every proper ancestor of `resource`,
    /// root-to-leaf (rule 5), as required by rules 1–4. Trace events emitted
    /// under here carry the [`RuleTag::AncestorIntent`] tag.
    ///
    /// The cache-missing ancestors go to the lock manager as one batch
    /// ([`LockManager::acquire_intent_chain`]): compatible links share a
    /// single optimistic fast-path section instead of taking one shard mutex
    /// each, which is what makes deep chains cheap.
    pub fn acquire_ancestor_intents(
        &mut self,
        resource: &ResourcePath,
        mode: LockMode,
    ) -> Result<(), ProtocolError> {
        let _rule = rule_scope(RuleTag::AncestorIntent);
        let intent = mode.required_parent_intent();
        let mut chain: Vec<ResourcePath> = Vec::new();
        for anc in resource.ancestors() {
            if let Some(cache) = self.cache {
                if cache.covers(&anc, intent, self.opts.long) {
                    self.report.redundant += 1;
                    continue;
                }
            }
            chain.push(anc);
        }
        if chain.is_empty() {
            return Ok(());
        }
        let lock_opts = LockRequestOptions { policy: self.opts.wait, long: self.opts.long };
        let outcomes = self
            .lm
            .acquire_intent_chain(self.txn, &chain, intent, lock_opts)
            .map_err(ProtocolError::Lock)?;
        for (anc, outcome) in chain.into_iter().zip(outcomes) {
            match outcome {
                AcquireOutcome::Granted { waited } => {
                    if waited {
                        self.report.waited += 1;
                    }
                    if let Some(cache) = self.cache {
                        cache.record(&anc, intent, self.opts.long);
                    }
                    self.report.acquired.push((anc, intent));
                }
                AcquireOutcome::AlreadyHeld => {
                    self.report.redundant += 1;
                    if let Some(cache) = self.cache {
                        cache.record(&anc, intent, false);
                    }
                }
            }
        }
        Ok(())
    }

    pub fn finish(self) -> LockReport {
        self.report
    }
}
