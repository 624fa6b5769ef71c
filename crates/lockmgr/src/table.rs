//! The lock table: grant/wait queues, conversions, deadlock detection.
//!
//! The table is generic over the resource key `R`; the protocol layer of
//! `colock-core` instantiates it with hierarchical instance paths so that
//! "lock granules within the structure of complex objects" (§4.2) are plain
//! resources here. Scheduling policy:
//!
//! * requests compatible with the granted group **and** with every waiter in
//!   the queue are granted immediately (no overtaking of incompatible
//!   waiters → no starvation),
//! * conversions (upgrades by a transaction that already holds the resource)
//!   only need compatibility with the *other* granted holders and bypass the
//!   queue, as in System R,
//! * on every release the releasing resource's queue is re-processed
//!   front-to-back (conversions first); queues of unrelated resources are
//!   never touched,
//! * when a request starts waiting, the snapshot deadlock detector runs over
//!   the cross-shard waits-for graph; if the new edge closes a cycle, the
//!   **youngest** transaction in the cycle is aborted as the victim.
//!
//! # Sharding and lock order
//!
//! The table is striped `N` ways (default 16): a resource hashes to one
//! shard, and each shard owns its own mutex, so requests on unrelated
//! resources never serialize on a common lock. Every per-resource state
//! additionally carries its own condvar — releases and victim verdicts wake
//! only the waiters of *that* resource, not the whole table (no
//! thundering-herd `notify_all`).
//!
//! Per-transaction lock inventories live in separate *txn stripes* keyed by
//! transaction id. The locking hierarchy is strict and acyclic:
//!
//! 1. shard mutexes, always in ascending shard-index order (single-resource
//!    operations lock exactly one; only the deadlock detector locks all),
//! 2. at most one txn-stripe mutex, only ever acquired *inside* a shard
//!    critical section (leaf level) or on its own.
//!
//! No path locks a shard while holding a stripe and no path locks two
//! stripes, so the manager's own locks cannot deadlock.
//!
//! # Deadlock detection
//!
//! Every waits-for edge is created by an enqueue, so detection triggered at
//! enqueue time is complete: after publishing its wait entry (and dropping
//! its shard lock) the enqueuing thread runs the detector, which locks all
//! shards in canonical order, builds a consistent snapshot of the waits-for
//! graph, and repeatedly extracts cycles. For each cycle the youngest
//! markable member is stamped as victim and woken through its resource's
//! condvar. There is no polling loop and no background thread.
//!
//! # Optimistic intent fast path
//!
//! Short IS/IX requests — the protocol's ancestor-chain intents, the most
//! frequent requests in the system — can bypass the shard mutex entirely.
//! Every (shard, slot) pair owns a versioned atomic *mode-summary word*
//! packing per-class grant counts, a waiter count, a seal bit and a version
//! counter for all resources hashing to that slot. A compatible intent
//! publishes itself by validate-and-CAS on the word (bounded retries); the
//! grant then lives only in the transaction's inventory, marked
//! *optimistic*, and never materializes in the shard map. Any pessimistic
//! S/SIX/X decision on the slot first *seals* the word and *drains*
//! outstanding optimistic grants into real shard grants, so the classic path
//! always decides against a complete granted group; waiters, conversions,
//! long locks and saturated counters all force the fallback. Releases and
//! every pessimistic publication bump the version, so an optimist can never
//! miss a concurrent writer. See DESIGN.md §5 for the word layout and the
//! equivalence argument; `COLOCK_NO_FASTPATH=1` (or [`LockManager::set_fastpath`])
//! disables the fast path for ablations and differential testing.

use crate::adaptive::AdaptivePolicy;
use crate::error::LockError;
use crate::mode::LockMode;
use crate::persistent::{JournalOp, JournalSink};
use crate::stats::LockStats;
use crate::txnid::TxnId;
use crate::Result;
use colock_testkit::explore;
use colock_trace::{self as trace, Event, EventKind};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Multiply-rotate hasher (the `rustc-hash` idiom) for every placement
/// decision and hot map in the table. Placement hashes on each acquire and
/// release were the largest constant factor on the intent chain; SipHash's
/// DoS resistance buys nothing for an in-process table keyed by internal
/// resource ids. Exported so resource keys can hash with the same function
/// the table places them by.
#[derive(Default)]
pub struct FastHasher(u64);

impl FastHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(Self::K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = 0u64;
            for (i, &b) in rest.iter().enumerate() {
                tail |= u64::from(b) << (8 * i);
            }
            self.add(tail);
        }
        self.add(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// Hot maps (shard resources, txn inventories) keyed through [`FastHasher`].
type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// Marker trait for lock-table resource keys.
pub trait Resource: Eq + Hash + Clone + fmt::Debug {}
impl<T: Eq + Hash + Clone + fmt::Debug> Resource for T {}

/// How to behave when a request cannot be granted immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitPolicy {
    /// Fail with [`LockError::WouldBlock`] instead of waiting.
    Try,
    /// Wait (with deadlock detection) until granted.
    Block,
    /// Wait, but at most this long.
    BlockTimeout(Duration),
}

/// Options for one acquire call.
#[derive(Debug, Clone, Copy)]
pub struct LockRequestOptions {
    /// Wait behaviour.
    pub policy: WaitPolicy,
    /// Whether the resulting lock is a *long lock* (survives simulated
    /// shutdowns via [`crate::persistent`]).
    pub long: bool,
}

impl Default for LockRequestOptions {
    fn default() -> Self {
        LockRequestOptions { policy: WaitPolicy::Block, long: false }
    }
}

impl LockRequestOptions {
    /// Non-blocking request.
    pub fn try_lock() -> Self {
        LockRequestOptions { policy: WaitPolicy::Try, long: false }
    }

    /// Long-lock request.
    pub fn long() -> Self {
        LockRequestOptions { policy: WaitPolicy::Block, long: true }
    }
}

/// Result of a successful acquire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireOutcome {
    /// Lock granted now (possibly after waiting; `waited` reports which).
    Granted {
        /// Whether the request had to wait before being granted.
        waited: bool,
    },
    /// The transaction already held the resource in a covering mode.
    AlreadyHeld,
}

#[derive(Debug, Clone)]
struct Grant {
    txn: TxnId,
    mode: LockMode,
    long: bool,
}

#[derive(Debug)]
struct Waiter {
    txn: TxnId,
    /// The *target* mode (join of held and requested for conversions).
    mode: LockMode,
    conversion: bool,
    long: bool,
    granted: bool,
    victim: Option<Vec<TxnId>>,
}

#[derive(Debug, Default)]
struct ResourceState {
    granted: Vec<Grant>,
    waiting: VecDeque<Waiter>,
    /// Wakeups are targeted: only threads blocked on *this* resource wait
    /// here. Cloned out of the shard before sleeping. Lazily allocated by the
    /// first waiter — uncontended resources never pay for a condvar.
    cond: Option<Arc<Condvar>>,
}

/// One entry of a transaction's lock inventory.
#[derive(Debug, Clone, Copy)]
struct HeldLock {
    mode: LockMode,
    long: bool,
    /// Published only in the slot's summary word — the grant has no entry in
    /// the shard map until a pessimistic decision drains it there.
    optimistic: bool,
    /// The resource's placement hash, cached so releases and drains derive
    /// shard and summary slot without rehashing.
    hash: u64,
}

#[derive(Debug)]
struct TxnState<R> {
    held: FastMap<R, HeldLock>,
}

impl<R> Default for TxnState<R> {
    fn default() -> Self {
        TxnState { held: FastMap::default() }
    }
}

#[derive(Debug)]
struct ShardInner<R: Resource> {
    resources: FastMap<R, ResourceState>,
}

impl<R: Resource> Default for ShardInner<R> {
    fn default() -> Self {
        ShardInner { resources: FastMap::default() }
    }
}

/// Number of txn-inventory stripes (fixed; inventories are small maps and
/// only contended across distinct transactions).
const TXN_STRIPES: usize = 16;

/// Default number of lock-table shards.
const DEFAULT_SHARDS: usize = 16;

/// Mode-summary slots per shard. A slot aggregates every resource whose hash
/// lands on it; collisions are only ever conservative (they can force a
/// fallback, never a wrong grant).
const SLOTS_PER_SHARD: usize = 64;

/// Bound on lost-CAS revalidations before an optimistic publication gives up
/// and takes the shard-mutex path.
pub const MAX_FASTPATH_ATTEMPTS: u32 = 4;

/// Packed mode-summary words for the optimistic intent fast path.
///
/// Layout of one `u64`, low to high:
///
/// ```text
/// bits  0..10  optimistic IS grants (inventory-only)
/// bits 10..20  optimistic IX grants (inventory-only)
/// bits 20..30  real share-class grants (S, SIX) in the shard map
/// bits 30..40  real exclusive-class grants (X) in the shard map
/// bits 40..50  waiter-queue entries (granted or not)
/// bit  50      SEALED — a pessimistic S/SIX/X decision is in flight
/// bits 51..64  version — bumped by every publication
/// ```
///
/// Count fields saturate *sticky* at [`COUNT_MAX`]: once a field reaches the
/// ceiling it stops moving and the fast path treats the slot as contended
/// (conservative, not wrong). The release paths repair a saturated field by
/// recounting it from the shard map once the slot's activity drains
/// (`maybe_desaturate`), so one burst no longer disables the fast path for
/// the slot's lifetime. Optimistic fields never reach the ceiling —
/// `admits` refuses the publication one short of it, so their decrements
/// stay exact.
mod summary {
    use crate::mode::LockMode;

    /// Sticky saturation ceiling of every count field.
    pub const COUNT_MAX: u64 = (1 << 10) - 1;
    const IS_SHIFT: u32 = 0;
    const IX_SHIFT: u32 = 10;
    const SHARE_SHIFT: u32 = 20;
    const X_SHIFT: u32 = 30;
    const WAIT_SHIFT: u32 = 40;
    /// The seal bit.
    pub const SEALED: u64 = 1 << 50;
    const VERSION_UNIT: u64 = 1 << 51;

    fn field(w: u64, shift: u32) -> u64 {
        (w >> shift) & COUNT_MAX
    }

    fn inc(w: u64, shift: u32) -> u64 {
        if field(w, shift) == COUNT_MAX {
            w // sticky: a saturated field never moves again
        } else {
            w + (1 << shift)
        }
    }

    fn dec(w: u64, shift: u32) -> u64 {
        let f = field(w, shift);
        if f == COUNT_MAX || f == 0 {
            debug_assert!(f != 0, "summary underflow");
            w
        } else {
            w - (1 << shift)
        }
    }

    pub fn opt_is(w: u64) -> u64 {
        field(w, IS_SHIFT)
    }

    pub fn opt_ix(w: u64) -> u64 {
        field(w, IX_SHIFT)
    }

    pub fn share(w: u64) -> u64 {
        field(w, SHARE_SHIFT)
    }

    pub fn x(w: u64) -> u64 {
        field(w, X_SHIFT)
    }

    pub fn waiters(w: u64) -> u64 {
        field(w, WAIT_SHIFT)
    }

    /// Outstanding optimistic grants on the slot.
    pub fn opt_total(w: u64) -> u64 {
        opt_is(w) + opt_ix(w)
    }

    pub fn sealed(w: u64) -> bool {
        w & SEALED != 0
    }

    pub fn clear_seal(w: u64) -> u64 {
        w & !SEALED
    }

    /// Version bump; the carry out of bit 63 (version wrap) is dropped by
    /// the wrapping add and the count fields below stay intact.
    pub fn bump_version(w: u64) -> u64 {
        w.wrapping_add(VERSION_UNIT)
    }

    /// Whether the summary admits an optimistic publication of `mode`: no
    /// seal, no waiters (FIFO fairness), no conflicting class counts, and
    /// the target count safely below saturation. Modes share the two
    /// optimistic count fields by *lane*: the read-intent lane (IS, Member)
    /// conflicts only with X, the write-intent lane (IX, Insert, Delete)
    /// with both real classes — exactly their compatibility rows.
    pub fn admits(w: u64, mode: LockMode) -> bool {
        if sealed(w) || waiters(w) != 0 || x(w) != 0 {
            return false;
        }
        match mode.fastpath_lane() {
            Some(LockMode::IS) => opt_is(w) < COUNT_MAX - 1,
            Some(LockMode::IX) => share(w) == 0 && opt_ix(w) < COUNT_MAX - 1,
            _ => false,
        }
    }

    fn opt_shift(mode: LockMode) -> u32 {
        match mode.fastpath_lane() {
            Some(LockMode::IS) => IS_SHIFT,
            Some(LockMode::IX) => IX_SHIFT,
            _ => unreachable!("only intent-lane modes publish optimistically"),
        }
    }

    pub fn opt_inc(w: u64, mode: LockMode) -> u64 {
        inc(w, opt_shift(mode))
    }

    pub fn opt_dec(w: u64, mode: LockMode) -> u64 {
        dec(w, opt_shift(mode))
    }

    /// Moves one real grant from `from`'s class to `to`'s class (either may
    /// be an intent or NL, contributing to no class).
    pub fn class_delta(w: u64, from: LockMode, to: LockMode) -> u64 {
        let mut w = w;
        if from.is_share_class() {
            w = dec(w, SHARE_SHIFT);
        } else if from.is_exclusive_class() {
            w = dec(w, X_SHIFT);
        }
        if to.is_share_class() {
            w = inc(w, SHARE_SHIFT);
        } else if to.is_exclusive_class() {
            w = inc(w, X_SHIFT);
        }
        w
    }

    pub fn wait_inc(w: u64) -> u64 {
        inc(w, WAIT_SHIFT)
    }

    pub fn wait_dec(w: u64) -> u64 {
        dec(w, WAIT_SHIFT)
    }

    /// Whether any shard-mutex-owned count field (share / x / waiters) is
    /// pinned at the sticky ceiling. The optimistic fields never saturate
    /// (`admits` refuses one short of it), so they are not consulted.
    pub fn real_saturated(w: u64) -> bool {
        share(w) == COUNT_MAX || x(w) == COUNT_MAX || waiters(w) == COUNT_MAX
    }

    /// Rewrites the share / x / waiter fields to exact recounted values,
    /// leaving the optimistic fields, seal bit and version untouched (the
    /// caller publishes through `slot_update`, which version-bumps).
    pub fn rewrite_real(w: u64, share_n: u64, x_n: u64, wait_n: u64) -> u64 {
        debug_assert!(share_n < COUNT_MAX && x_n < COUNT_MAX && wait_n < COUNT_MAX);
        let mask =
            (COUNT_MAX << SHARE_SHIFT) | (COUNT_MAX << X_SHIFT) | (COUNT_MAX << WAIT_SHIFT);
        (w & !mask) | (share_n << SHARE_SHIFT) | (x_n << X_SHIFT) | (wait_n << WAIT_SHIFT)
    }
}

/// Applies `f` to the slot word with a version bump, retrying until the CAS
/// lands. Returns the published word.
fn slot_update(slot: &AtomicU64, f: impl Fn(u64) -> u64) -> u64 {
    let mut w = slot.load(Ordering::Acquire);
    loop {
        let next = summary::bump_version(f(w));
        match slot.compare_exchange_weak(w, next, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return next,
            Err(cur) => w = cur,
        }
    }
}

/// RAII for the SEALED bit: armed by `seal_and_drain`, cleared on drop on
/// every early exit (journal crash, `WouldBlock`), unless the owner folded
/// the clear into its own publication and `defuse`d the guard.
struct SealGuard<'a> {
    slot: &'a AtomicU64,
    armed: bool,
}

impl SealGuard<'_> {
    fn defuse(&mut self) {
        self.armed = false;
    }
}

impl Drop for SealGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            slot_update(self.slot, summary::clear_seal);
        }
    }
}

/// Test instrumentation hook run between an optimistic publication's
/// validate and its CAS.
type FastpathProbe = Box<dyn FnMut() + Send>;

/// Whether the fast path starts enabled: `COLOCK_NO_FASTPATH` set to any
/// non-empty value other than `0` disables it.
fn fastpath_default() -> bool {
    !std::env::var("COLOCK_NO_FASTPATH").map(|v| !v.is_empty() && v != "0").unwrap_or(false)
}

/// One stripe of the per-transaction state map.
type TxnStripe<R> = Mutex<FastMap<TxnId, TxnState<R>>>;

/// The lock manager.
///
/// ```
/// use colock_lockmgr::{LockManager, LockMode, LockRequestOptions, TxnId};
///
/// let lm: LockManager<&str> = LockManager::new();
/// let (t1, t2) = (TxnId(1), TxnId(2));
/// // Multi-granularity: t1 IX on the relation, X on one tuple.
/// lm.acquire(t1, "cells", LockMode::IX, LockRequestOptions::default()).unwrap();
/// lm.acquire(t1, "cells/c1", LockMode::X, LockRequestOptions::default()).unwrap();
/// // t2 can still IS the relation, but not read t1's tuple.
/// assert!(lm.acquire(t2, "cells", LockMode::IS, LockRequestOptions::try_lock()).is_ok());
/// assert!(lm.acquire(t2, "cells/c1", LockMode::S, LockRequestOptions::try_lock()).is_err());
/// lm.release_all(t1);
/// assert!(lm.acquire(t2, "cells/c1", LockMode::S, LockRequestOptions::try_lock()).is_ok());
/// ```
pub struct LockManager<R: Resource> {
    shards: Box<[Mutex<ShardInner<R>>]>,
    shard_mask: usize,
    stripes: Box<[TxnStripe<R>]>,
    /// Resources currently present across all shards (kept as an atomic so
    /// the `max_table_entries` high-water mark needs no cross-shard lock).
    live_resources: AtomicU64,
    stats: LockStats,
    /// Durable long-lock journal (write-ahead with respect to the grant
    /// acknowledgement). `None` until attached; short-lock operations never
    /// consult it, so the hot path stays journal-free.
    journal: OnceLock<Arc<dyn JournalSink<R>>>,
    /// Mode-summary words, `shards * SLOTS_PER_SHARD` of them: the slot
    /// index embeds the shard index, so same slot ⟹ same shard mutex.
    summaries: Box<[AtomicU64]>,
    /// Per-slot heat: accumulated waits, one counter per summary slot. The
    /// adaptive victim policy ranks deadlock-cycle members by the heat of
    /// the slot they are waiting at.
    heat: Box<[AtomicU64]>,
    /// Adaptive contention-management knobs (all off by default).
    adaptive: AdaptivePolicy,
    /// Whether the optimistic intent fast path is on (default: on unless
    /// `COLOCK_NO_FASTPATH` is set).
    fastpath: AtomicBool,
    /// Set by [`LockManager::begin_drain`]: parked waiters are woken and
    /// refused with [`LockError::Draining`] so shutdown never sleeps behind
    /// a blocked lock request. Granted locks are unaffected.
    draining: AtomicBool,
    /// Cheap flag checked on the publication path; the probe mutex is only
    /// touched when armed.
    probe_armed: AtomicBool,
    /// Test probe run between validate and CAS (deterministic interleaving
    /// tests force version bumps there).
    fastpath_probe: Mutex<Option<FastpathProbe>>,
}

impl<R: Resource> Default for LockManager<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R: Resource> LockManager<R> {
    /// Creates an empty lock manager with the default shard count.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// Creates an empty lock manager striped `n` ways (`n` is rounded up to
    /// a power of two, minimum 1). `with_shards(1)` degenerates to a single
    /// global table — useful as an ablation baseline in benchmarks.
    pub fn with_shards(n: usize) -> Self {
        let n = n.max(1).next_power_of_two();
        LockManager {
            shards: (0..n).map(|_| Mutex::new(ShardInner::default())).collect(),
            shard_mask: n - 1,
            stripes: (0..TXN_STRIPES).map(|_| Mutex::new(FastMap::default())).collect(),
            live_resources: AtomicU64::new(0),
            stats: LockStats::default(),
            journal: OnceLock::new(),
            summaries: (0..n * SLOTS_PER_SHARD).map(|_| AtomicU64::new(0)).collect(),
            heat: (0..n * SLOTS_PER_SHARD).map(|_| AtomicU64::new(0)).collect(),
            adaptive: AdaptivePolicy::from_env(),
            fastpath: AtomicBool::new(fastpath_default()),
            draining: AtomicBool::new(false),
            probe_armed: AtomicBool::new(false),
            fastpath_probe: Mutex::new(None),
        }
    }

    /// Whether the optimistic intent fast path is currently enabled.
    pub fn fastpath_enabled(&self) -> bool {
        self.fastpath.load(Ordering::Relaxed)
    }

    /// Enables or disables the optimistic fast path at runtime (ablations,
    /// differential tests). Outstanding optimistic grants stay valid either
    /// way: the pessimistic path always drains them before deciding against
    /// them.
    pub fn set_fastpath(&self, on: bool) {
        self.fastpath.store(on, Ordering::Relaxed);
    }

    /// Starts draining for shutdown: every parked waiter is woken and its
    /// blocked `acquire` returns [`LockError::Draining`]; blocking requests
    /// issued while the flag is set fail the same way the moment they would
    /// park. Granted locks (including durable long locks) are untouched —
    /// the caller decides whether to release or journal-and-leak them.
    /// Reversed by [`LockManager::end_drain`].
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        // Wake every parked waiter so each one observes the flag under its
        // shard mutex and returns. Locking shard-by-shard is fine: a waiter
        // that parks after we pass its shard re-checks the flag before
        // sleeping and never blocks.
        for shard in self.shards.iter() {
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            for state in shard.resources.values() {
                if let Some(cond) = &state.cond {
                    cond.notify_all();
                }
            }
        }
    }

    /// Clears the drain flag so blocking requests park normally again
    /// (a server restart without process restart).
    pub fn end_drain(&self) {
        self.draining.store(false, Ordering::SeqCst);
    }

    /// Whether [`LockManager::begin_drain`] is in effect.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Installs (or clears) a test probe invoked between an optimistic
    /// publication's validate and its CAS — deterministic interleaving tests
    /// force a version bump in exactly that window. The probe runs with the
    /// caller's txn stripe held: it must only act as transactions owned by
    /// *other* stripes, and only while no optimistic grants are outstanding
    /// on the probed slot (a drain would block on the held stripe).
    pub fn set_fastpath_probe(&self, probe: Option<FastpathProbe>) {
        self.probe_armed.store(probe.is_some(), Ordering::Relaxed);
        *self.fastpath_probe.lock().unwrap_or_else(PoisonError::into_inner) = probe;
    }

    /// Attaches the durable long-lock journal. Every later grant, conversion
    /// or release of a *long* lock is recorded before it is acknowledged. At
    /// most one journal per manager: returns `false` (and changes nothing)
    /// if one is already attached.
    pub fn attach_journal(&self, sink: Arc<dyn JournalSink<R>>) -> bool {
        self.journal.set(sink).is_ok()
    }

    /// Whether a journal is attached.
    pub fn has_journal(&self) -> bool {
        self.journal.get().is_some()
    }

    /// Statistics counters.
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }

    /// The adaptive contention-management policy (runtime-tunable).
    pub fn adaptive(&self) -> &AdaptivePolicy {
        &self.adaptive
    }

    /// Number of shards the table is striped into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `resource` hashes to. Exposed so tests can construct
    /// resource sets that provably land on distinct (or identical) shards.
    pub fn shard_index(&self, resource: &R) -> usize {
        (Self::hash_of(resource) as usize) & self.shard_mask
    }

    /// The one hash every placement decision derives from: low bits pick the
    /// shard, bits 32+ pick the summary slot within it.
    fn hash_of(resource: &R) -> u64 {
        let mut h = FastHasher::default();
        resource.hash(&mut h);
        h.finish()
    }

    /// Global index of the summary slot for hash `h`. Embeds the shard
    /// index, so two resources sharing a slot always share a shard mutex.
    fn slot_index_from_hash(&self, h: u64) -> usize {
        ((h as usize) & self.shard_mask) * SLOTS_PER_SHARD
            + ((h >> 32) as usize & (SLOTS_PER_SHARD - 1))
    }

    fn slot_from_hash(&self, h: u64) -> &AtomicU64 {
        &self.summaries[self.slot_index_from_hash(h)]
    }

    /// Locks one shard, recovering from poisoning: a panicking test thread
    /// must not cascade into every later acquire.
    fn shard_locked(&self, idx: usize) -> MutexGuard<'_, ShardInner<R>> {
        self.shards[idx].lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the txn stripe owning `txn`'s inventory.
    fn stripe_locked(&self, txn: TxnId) -> MutexGuard<'_, FastMap<TxnId, TxnState<R>>> {
        self.stripes[(txn.0 as usize) & (TXN_STRIPES - 1)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The mode `txn` currently holds on `resource` (NL if none).
    pub fn held_mode(&self, txn: TxnId, resource: &R) -> LockMode {
        self.stripe_locked(txn)
            .get(&txn)
            .and_then(|t| t.held.get(resource))
            .map(|h| h.mode)
            .unwrap_or(LockMode::NL)
    }

    /// All `(resource, mode, long)` locks held by `txn`.
    pub fn locks_of(&self, txn: TxnId) -> Vec<(R, LockMode, bool)> {
        self.stripe_locked(txn)
            .get(&txn)
            .map(|t| t.held.iter().map(|(r, h)| (r.clone(), h.mode, h.long)).collect())
            .unwrap_or_default()
    }

    /// All `(txn, mode)` grants on `resource` — the shard map's real grants
    /// plus any optimistic fast-path grants, which live only in the
    /// inventories.
    pub fn holders(&self, resource: &R) -> Vec<(TxnId, LockMode)> {
        let mut out: Vec<(TxnId, LockMode)> = self
            .shard_locked(self.shard_index(resource))
            .resources
            .get(resource)
            .map(|s| s.granted.iter().map(|g| (g.txn, g.mode)).collect())
            .unwrap_or_default();
        for stripe in self.stripes.iter() {
            let guard = stripe.lock().unwrap_or_else(PoisonError::into_inner);
            for (txn, t) in guard.iter() {
                if let Some(h) = t.held.get(resource) {
                    if h.optimistic {
                        out.push((*txn, h.mode));
                    }
                }
            }
        }
        out
    }

    /// Number of resources currently present in the table.
    pub fn table_size(&self) -> usize {
        (0..self.shards.len()).map(|i| self.shard_locked(i).resources.len()).sum()
    }

    /// Total number of grant entries currently held: real grants in the
    /// table plus optimistic fast-path grants in the inventories.
    pub fn grant_count(&self) -> usize {
        let real: usize = (0..self.shards.len())
            .map(|i| self.shard_locked(i).resources.values().map(|s| s.granted.len()).sum::<usize>())
            .sum();
        let optimistic: usize = self
            .stripes
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .values()
                    .map(|t| t.held.values().filter(|h| h.optimistic).count())
                    .sum::<usize>()
            })
            .sum();
        real + optimistic
    }

    /// Number of *ungranted* waiters queued on `resource`. Lets tests (and
    /// stall diagnostics) observe "txn N is enqueued" directly instead of
    /// sleeping and hoping the scheduler got there.
    pub fn waiter_count(&self, resource: &R) -> usize {
        self.shard_locked(self.shard_index(resource))
            .resources
            .get(resource)
            .map(|s| s.waiting.iter().filter(|w| !w.granted).count())
            .unwrap_or(0)
    }

    /// Renders the full lock-table state (holders, waiters, wait targets) —
    /// for diagnostics and stall post-mortems.
    pub fn debug_dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for si in 0..self.shards.len() {
            let shard = self.shard_locked(si);
            for (r, state) in &shard.resources {
                let _ = writeln!(out, "resource {r:?} [shard {si}]:");
                for g in &state.granted {
                    let _ = writeln!(out, "  granted {} {} long={}", g.txn, g.mode, g.long);
                }
                for w in &state.waiting {
                    let _ = writeln!(
                        out,
                        "  waiting {} {} conv={} granted={} victim={}",
                        w.txn,
                        w.mode,
                        w.conversion,
                        w.granted,
                        w.victim.is_some()
                    );
                }
            }
        }
        for stripe in self.stripes.iter() {
            let guard = stripe.lock().unwrap_or_else(PoisonError::into_inner);
            for (txn, t) in guard.iter() {
                for (r, h) in &t.held {
                    if h.optimistic {
                        let _ = writeln!(out, "optimistic {txn} {} on {r:?}", h.mode);
                    }
                }
            }
        }
        out
    }

    /// Acquires (or converts to) `mode` on `resource` for `txn`.
    ///
    /// Short IS/IX requests first try the optimistic fast path (a validated
    /// CAS on the slot's mode-summary word, no shard mutex); every other
    /// request — and every fast-path refusal — takes the classic
    /// shard-mutex path.
    pub fn acquire(
        &self,
        txn: TxnId,
        resource: R,
        mode: LockMode,
        opts: LockRequestOptions,
    ) -> Result<AcquireOutcome> {
        debug_assert!(mode != LockMode::NL, "cannot acquire NL");
        explore::yield_point(|| format!("acquire {mode}|{resource:?}"));
        if mode.is_intent() && !opts.long && self.fastpath.load(Ordering::Relaxed) {
            if let Some(outcome) = self.try_fastpath(txn, &resource, mode) {
                return Ok(outcome);
            }
        }
        self.acquire_pessimistic(txn, resource, mode, opts)
    }

    /// Acquires `mode` (an intent) on every resource of `chain`, front to
    /// back — the protocol layer's ancestor chain. Consecutive fast-path
    /// answers share one stripe critical section and coalesced stats; any
    /// link the fast path refuses (conversion, summary conflict, long
    /// request, fast path disabled) is delegated to the pessimistic path and
    /// the batch resumes after it. Outcomes come back per link, in order; an
    /// error keeps earlier grants, exactly like the equivalent sequence of
    /// [`LockManager::acquire`] calls.
    pub fn acquire_intent_chain(
        &self,
        txn: TxnId,
        chain: &[R],
        mode: LockMode,
        opts: LockRequestOptions,
    ) -> Result<Vec<AcquireOutcome>> {
        debug_assert!(mode.is_intent(), "chain batching is for intent modes");
        explore::yield_point(|| {
            let mut label = format!("chain {mode}");
            for r in chain {
                label.push('|');
                label.push_str(&format!("{r:?}"));
            }
            label
        });
        let mut out = Vec::with_capacity(chain.len());
        if !mode.is_intent() || opts.long || !self.fastpath.load(Ordering::Relaxed) {
            for r in chain {
                out.push(self.acquire(txn, r.clone(), mode, opts)?);
            }
            return Ok(out);
        }
        let mut i = 0;
        while i < chain.len() {
            // Batched section: answer as many consecutive links as the fast
            // path admits under one stripe lock; stats and trace follow
            // after the unlock. `already` holds the covering mode for
            // AlreadyHeld answers, None for fresh optimistic grants.
            let mut batched: Vec<(usize, Option<LockMode>)> = Vec::new();
            let mut hits = 0u64;
            let mut fell_back = false;
            {
                let mut stripe = self.stripe_locked(txn);
                let t = stripe.entry(txn).or_default();
                while i < chain.len() {
                    let r = &chain[i];
                    if let Some(held) = t.held.get(r) {
                        if held.mode.covers(mode) {
                            batched.push((i, Some(held.mode)));
                            out.push(AcquireOutcome::AlreadyHeld);
                            i += 1;
                            continue;
                        }
                        // Conversions belong to the pessimistic path.
                        LockStats::bump(&self.stats.intent_acquires);
                        LockStats::bump(&self.stats.fastpath_fallbacks);
                        fell_back = true;
                        break;
                    }
                    LockStats::bump(&self.stats.intent_acquires);
                    let h = Self::hash_of(r);
                    if !self.publish_optimistic(self.slot_from_hash(h), mode) {
                        LockStats::bump(&self.stats.fastpath_fallbacks);
                        fell_back = true;
                        break;
                    }
                    t.held.insert(r.clone(), HeldLock { mode, long: false, optimistic: true, hash: h });
                    LockStats::raise(&self.stats.max_locks_per_txn, t.held.len() as u64);
                    hits += 1;
                    batched.push((i, None));
                    out.push(AcquireOutcome::Granted { waited: false });
                    i += 1;
                }
            }
            LockStats::add(&self.stats.requests, batched.len() as u64);
            LockStats::add(&self.stats.immediate_grants, hits);
            LockStats::add(&self.stats.fastpath_hits, hits);
            if trace::is_enabled() {
                for &(idx, already) in &batched {
                    let r = &chain[idx];
                    let si = self.shard_index(r);
                    trace::emit(|| {
                        Event::new(EventKind::Request, txn.0)
                            .shard(si as u32)
                            .mode(mode.to_string())
                            .resource(format!("{r:?}"))
                    });
                    trace::emit(|| {
                        let e = Event::new(EventKind::Grant, txn.0)
                            .shard(si as u32)
                            .resource(format!("{r:?}"));
                        match already {
                            Some(held) => e.mode(held.to_string()).detail("already-held"),
                            None => e.mode(mode.to_string()).detail("fastpath"),
                        }
                    });
                }
            }
            if fell_back {
                // Delegate directly (not via `acquire`): the gate already
                // counted this link, so re-entering it would double-count.
                out.push(self.acquire_pessimistic(txn, chain[i].clone(), mode, opts)?);
                i += 1;
            }
        }
        Ok(out)
    }

    /// The optimistic gate: answers a short IS/IX request from the inventory
    /// and the summary word alone — no shard mutex. `None` means the caller
    /// must take the pessimistic path (the fallback is counted here; the
    /// request itself is counted by whichever path answers).
    fn try_fastpath(&self, txn: TxnId, resource: &R, mode: LockMode) -> Option<AcquireOutcome> {
        let h = Self::hash_of(resource);
        let si = (h as usize) & self.shard_mask;
        let slot = self.slot_from_hash(h);
        let mut stripe = self.stripe_locked(txn);
        if let Some(held) = stripe.get(&txn).and_then(|t| t.held.get(resource)) {
            if held.mode.covers(mode) {
                let held_mode = held.mode;
                drop(stripe);
                LockStats::bump(&self.stats.requests);
                trace::emit(|| {
                    Event::new(EventKind::Request, txn.0)
                        .shard(si as u32)
                        .mode(mode.to_string())
                        .resource(format!("{resource:?}"))
                });
                trace::emit(|| {
                    Event::new(EventKind::Grant, txn.0)
                        .shard(si as u32)
                        .mode(held_mode.to_string())
                        .resource(format!("{resource:?}"))
                        .detail("already-held")
                });
                return Some(AcquireOutcome::AlreadyHeld);
            }
            // Conversions belong to the pessimistic path.
            LockStats::bump(&self.stats.intent_acquires);
            LockStats::bump(&self.stats.fastpath_fallbacks);
            return None;
        }
        LockStats::bump(&self.stats.intent_acquires);
        if !self.publish_optimistic(slot, mode) {
            LockStats::bump(&self.stats.fastpath_fallbacks);
            return None;
        }
        // Published: the inventory entry must exist before the stripe
        // unlocks, or a draining pessimist could find the count with nothing
        // to migrate.
        let t = stripe.entry(txn).or_default();
        t.held.insert(resource.clone(), HeldLock { mode, long: false, optimistic: true, hash: h });
        LockStats::raise(&self.stats.max_locks_per_txn, t.held.len() as u64);
        drop(stripe);
        LockStats::bump(&self.stats.requests);
        LockStats::bump(&self.stats.immediate_grants);
        LockStats::bump(&self.stats.fastpath_hits);
        trace::emit(|| {
            Event::new(EventKind::Request, txn.0)
                .shard(si as u32)
                .mode(mode.to_string())
                .resource(format!("{resource:?}"))
        });
        trace::emit(|| {
            Event::new(EventKind::Grant, txn.0)
                .shard(si as u32)
                .mode(mode.to_string())
                .resource(format!("{resource:?}"))
                .detail("fastpath")
        });
        Some(AcquireOutcome::Granted { waited: false })
    }

    /// Bounded validate-and-CAS publication of one optimistic intent into
    /// `slot`. Retries only on a lost CAS (the version moved); any summary
    /// conflict — seal, waiters, class counts, saturation — refuses
    /// immediately.
    fn publish_optimistic(&self, slot: &AtomicU64, mode: LockMode) -> bool {
        let mut attempts = 0;
        loop {
            let w = slot.load(Ordering::Acquire);
            if !summary::admits(w, mode) {
                return false;
            }
            if self.probe_armed.load(Ordering::Relaxed) {
                self.run_probe();
            }
            let next = summary::bump_version(summary::opt_inc(w, mode));
            match slot.compare_exchange(w, next, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => return true,
                Err(_) => {
                    LockStats::bump(&self.stats.fastpath_retries);
                    attempts += 1;
                    if attempts >= MAX_FASTPATH_ATTEMPTS {
                        return false;
                    }
                }
            }
        }
    }

    /// Runs the armed test probe (see [`LockManager::set_fastpath_probe`]).
    fn run_probe(&self) {
        if let Some(f) =
            self.fastpath_probe.lock().unwrap_or_else(PoisonError::into_inner).as_mut()
        {
            f();
        }
    }

    /// The classic shard-mutex acquire path. Pessimistic S/SIX/X decisions
    /// seal the summary slot and drain outstanding optimistic grants into
    /// real shard grants before deciding, so `can_grant` always sees the
    /// complete granted group.
    fn acquire_pessimistic(
        &self,
        txn: TxnId,
        resource: R,
        mode: LockMode,
        opts: LockRequestOptions,
    ) -> Result<AcquireOutcome> {
        LockStats::bump(&self.stats.requests);
        let h = Self::hash_of(&resource);
        let si = (h as usize) & self.shard_mask;
        let slot = self.slot_from_hash(h);
        trace::emit(|| {
            Event::new(EventKind::Request, txn.0)
                .shard(si as u32)
                .mode(mode.to_string())
                .resource(format!("{resource:?}"))
        });
        let mut shard = self.shard_locked(si);

        // Held mode comes from our own grant entry in the shard (there is at
        // most one per txn/resource), keeping the hot path off the stripes.
        let grant = shard
            .resources
            .get(&resource)
            .and_then(|s| s.granted.iter().find(|g| g.txn == txn));
        let mut held = grant.map(|g| g.mode).unwrap_or(LockMode::NL);
        let held_long = grant.is_some_and(|g| g.long);
        if held == LockMode::NL
            && summary::opt_total(slot.load(Ordering::Acquire)) != 0
        {
            // An own fast-path grant lives only in the inventory; surface it
            // so covering answers and conversion events see the true held
            // mode. Zero optimistic counts prove there is nothing to find,
            // keeping the common path at one atomic load.
            let stripe = self.stripe_locked(txn);
            if let Some(e) = stripe.get(&txn).and_then(|t| t.held.get(&resource)) {
                if e.optimistic {
                    held = e.mode;
                }
            }
        }
        if held.covers(mode) {
            trace::emit(|| {
                Event::new(EventKind::Grant, txn.0)
                    .shard(si as u32)
                    .mode(held.to_string())
                    .resource(format!("{resource:?}"))
                    .detail("already-held")
            });
            return Ok(AcquireOutcome::AlreadyHeld);
        }
        let target = held.join(mode);
        let conversion = held != LockMode::NL;
        if conversion {
            LockStats::bump(&self.stats.conversions);
            trace::emit(|| {
                Event::new(EventKind::Conversion, txn.0)
                    .shard(si as u32)
                    .mode(target.to_string())
                    .resource(format!("{resource:?}"))
                    .detail(format!("{held} -> {target}"))
            });
        }

        // A lock is journaled when the resulting grant is long: either the
        // request itself is long, or it converts a grant that already is
        // (the conversion target must survive a crash just like the
        // original mode did).
        let journal_long = opts.long || (conversion && held_long);

        // S/SIX/X decisions must account for every optimistic grant. With
        // optimists outstanding, seal the slot first: from here to our own
        // publication no optimist can publish, and the drain has migrated
        // every outstanding optimistic grant into the shard map — including
        // our own, which is why the seal comes before `can_grant`. With
        // none outstanding — the overwhelmingly common case — skip the
        // seal: the validated CAS at publication time (below) proves no
        // optimist slipped in between decision and grant. Intent targets
        // never seal: optimistic grants are compatible with them by
        // construction (two intents never conflict).
        let mut seal = if !target.is_intent()
            && summary::opt_total(slot.load(Ordering::Acquire)) != 0
        {
            Some(self.seal_and_drain(&mut shard, si, self.slot_index_from_hash(h)))
        } else {
            None
        };

        let mut grantable = self.can_grant(&shard, txn, &resource, target, conversion);
        let mut reserved = false;
        if grantable && !target.is_intent() && seal.is_none() {
            // One CAS that moves our class counts and atomically re-checks
            // that no optimist published since the decision. Failure (an
            // optimist raced in, or the version churned past the retry
            // budget) falls back to the full seal-and-drain decision;
            // draining only *adds* grants, so the request must be
            // re-decided and may now have to wait.
            reserved = self.try_reserve_classes(slot, held, target);
            if !reserved {
                seal = Some(self.seal_and_drain(&mut shard, si, self.slot_index_from_hash(h)));
                grantable = self.can_grant(&shard, txn, &resource, target, conversion);
            }
        }

        if grantable {
            if journal_long {
                // Write-ahead: the record must be durable before the grant
                // is acknowledged. A journal crash aborts the acquire — the
                // caller never learns whether the record made it, and replay
                // decides the lock's fate at restart.
                let op = if conversion { JournalOp::Convert } else { JournalOp::Grant };
                if let Err(e) = self.journal_record(op, txn, &resource, target) {
                    if reserved {
                        // Nothing was installed: retract the reserved class
                        // counts before surfacing the crash.
                        slot_update(slot, |w| summary::class_delta(w, target, held));
                    }
                    return Err(e);
                }
            }
            let (prev, absorbed) =
                self.install_grant(&mut shard, txn, &resource, target, opts.long, h);
            if reserved {
                // The reserve CAS already published the class move; it
                // validated zero optimistic counts, so there was nothing to
                // absorb and the previous mode is the real grant's.
                debug_assert!(absorbed.is_none() && prev == held, "reserve raced an optimist");
            } else {
                self.publish_grant(slot, seal.take(), prev, target, absorbed);
            }
            LockStats::bump(&self.stats.immediate_grants);
            trace::emit(|| {
                Event::new(EventKind::Grant, txn.0)
                    .shard(si as u32)
                    .mode(target.to_string())
                    .resource(format!("{resource:?}"))
                    .detail("immediate")
            });
            return Ok(AcquireOutcome::Granted { waited: false });
        }

        match opts.policy {
            WaitPolicy::Try => {
                let holders = self.conflicting_holders(&shard, txn, &resource, target);
                // A live seal guard unseals itself on drop.
                Err(LockError::WouldBlock { holders })
            }
            WaitPolicy::Block | WaitPolicy::BlockTimeout(_) => {
                // Adaptive wait-depth limiting: refuse instead of joining a
                // queue already at the limit — under hot-spot contention a
                // bounded refusal the caller can retry with backoff beats an
                // unbounded convoy. A live seal guard unseals on drop.
                let limit = self.adaptive.wait_depth_limit();
                if limit != 0 {
                    let depth = shard
                        .resources
                        .get(&resource)
                        .map(|s| s.waiting.iter().filter(|w| !w.granted).count())
                        .unwrap_or(0);
                    if depth >= limit {
                        LockStats::bump(&self.stats.wait_depth_refusals);
                        trace::emit(|| {
                            Event::new(EventKind::Request, txn.0)
                                .shard(si as u32)
                                .mode(target.to_string())
                                .resource(format!("{resource:?}"))
                                .detail("wait-depth-refused")
                        });
                        let holders = self.conflicting_holders(&shard, txn, &resource, target);
                        return Err(LockError::WouldBlock { holders });
                    }
                }
                let deadline = match opts.policy {
                    WaitPolicy::BlockTimeout(d) => Some(Instant::now() + d),
                    _ => None,
                };
                self.block_until_granted(
                    si,
                    shard,
                    txn,
                    resource,
                    target,
                    conversion,
                    opts.long,
                    journal_long,
                    deadline,
                    self.slot_index_from_hash(h),
                    seal,
                )
            }
        }
    }

    /// Releases `resource` for `txn`. Returns `true` if a lock was released.
    pub fn release(&self, txn: TxnId, resource: &R) -> bool {
        explore::yield_point(|| format!("release|{resource:?}"));
        let h = Self::hash_of(resource);
        let si = (h as usize) & self.shard_mask;
        let slot = self.slot_from_hash(h);
        // Optimistic grants live only in the inventory: releasing one never
        // touches the shard. Zero optimistic counts prove ours (if any) is a
        // real grant — one atomic load on the common path.
        if summary::opt_total(slot.load(Ordering::Acquire)) != 0 {
            let mut stripe = self.stripe_locked(txn);
            let opt_mode = stripe
                .get(&txn)
                .and_then(|t| t.held.get(resource))
                .filter(|e| e.optimistic)
                .map(|e| e.mode);
            if let Some(mode) = opt_mode {
                let t = stripe.get_mut(&txn).expect("entry just seen");
                t.held.remove(resource);
                if t.held.is_empty() {
                    stripe.remove(&txn);
                }
                // Trace before the decrement: the summary CAS is what lets a
                // conflicting request through, so the Release event must
                // carry an earlier sequence than any grant it enables — the
                // serializability certifier orders commit-release overlaps
                // by these sequences.
                trace::emit(|| {
                    Event::new(EventKind::Release, txn.0)
                        .shard(si as u32)
                        .mode(mode.to_string())
                        .resource(format!("{resource:?}"))
                });
                // Decrement before the stripe unlocks so a draining
                // pessimist never sees a count with no entry left behind it.
                slot_update(slot, |w| summary::opt_dec(w, mode));
                drop(stripe);
                LockStats::bump(&self.stats.releases);
                // Never migrated ⟹ no real grant ⟹ no queue to process: a
                // conflicting request would have drained this grant first.
                return true;
            }
        }
        let mut shard = self.shard_locked(si);
        let removed = self.remove_grant(&mut shard, txn, resource, slot, true);
        if let Some((mode, long)) = removed {
            LockStats::bump(&self.stats.releases);
            if long {
                // A journal crash here cannot fail the release (the caller's
                // memory state dies with the crash anyway); the frozen
                // journal simply stops acknowledging, and replay decides.
                let _ = self.journal_record(JournalOp::Release, txn, resource, mode);
            }
            trace::emit(|| {
                Event::new(EventKind::Release, txn.0)
                    .shard(si as u32)
                    .mode(mode.to_string())
                    .resource(format!("{resource:?}"))
            });
            if self.has_ungranted_waiters(&shard, resource) {
                self.process_queue(&mut shard, resource);
            }
            self.maybe_desaturate(&shard, self.slot_index_from_hash(h));
        }
        removed.is_some()
    }

    /// Releases all locks of `txn` (end of transaction). Returns the number
    /// released.
    ///
    /// The per-txn inventory is *drained* (not cloned): ownership of the
    /// resource keys moves out of the stripe, and each affected shard is
    /// locked exactly once. Resources with no ungranted waiters skip queue
    /// processing entirely.
    pub fn release_all(&self, txn: TxnId) -> usize {
        explore::yield_point(|| "release_all|*".to_string());
        let mut real: Vec<(R, u64)> = Vec::new();
        let mut opt_count = 0usize;
        {
            let mut stripe = self.stripe_locked(txn);
            let held = stripe.remove(&txn).map(|t| t.held).unwrap_or_default();
            for (r, e) in held {
                if e.optimistic {
                    // Trace before the decrement (see `release`): the event
                    // sequence must precede any grant the CAS enables.
                    self.trace_optimistic_release(txn, &r, e.mode);
                    // Decrement under the stripe (see `release`).
                    slot_update(self.slot_from_hash(e.hash), |w| summary::opt_dec(w, e.mode));
                    opt_count += 1;
                } else {
                    real.push((r, e.hash));
                }
            }
        }
        let n = real.len() + opt_count;
        LockStats::add(&self.stats.releases, opt_count as u64);
        self.release_batch(txn, real);
        n
    }

    /// Releases only the *short* locks of `txn`, keeping long locks — models
    /// the end of a workstation session whose check-outs persist (\[KSUW85\]).
    pub fn release_short(&self, txn: TxnId) -> usize {
        explore::yield_point(|| "release_short|*".to_string());
        let mut real: Vec<(R, u64)> = Vec::new();
        let mut opt_count = 0usize;
        {
            let mut stripe = self.stripe_locked(txn);
            let Some(t) = stripe.get_mut(&txn) else {
                return 0;
            };
            let held = std::mem::take(&mut t.held);
            for (r, e) in held {
                if e.long {
                    t.held.insert(r, e);
                } else if e.optimistic {
                    // Trace before the decrement (see `release`).
                    self.trace_optimistic_release(txn, &r, e.mode);
                    slot_update(self.slot_from_hash(e.hash), |w| summary::opt_dec(w, e.mode));
                    opt_count += 1;
                } else {
                    real.push((r, e.hash));
                }
            }
            if t.held.is_empty() {
                stripe.remove(&txn);
            }
        }
        let n = real.len() + opt_count;
        LockStats::add(&self.stats.releases, opt_count as u64);
        self.release_batch(txn, real);
        n
    }

    /// Traces one optimistic release. Called *before* the summary-slot
    /// decrement, while the stripe is still held: the decrement CAS is what
    /// admits a conflicting grant, so the Release event must carry an
    /// earlier trace sequence than any grant it enables — the
    /// serializability certifier orders commit-release overlaps by those
    /// sequences.
    fn trace_optimistic_release(&self, txn: TxnId, r: &R, mode: LockMode) {
        trace::emit(|| {
            Event::new(EventKind::Release, txn.0)
                .shard(self.shard_index(r) as u32)
                .mode(mode.to_string())
                .resource(format!("{r:?}"))
        });
    }

    /// Removes `txn`'s grants on the given resources (inventory already
    /// drained by the caller, each paired with its cached placement hash),
    /// grouped so each shard is locked once.
    fn release_batch(&self, txn: TxnId, resources: Vec<(R, u64)>) {
        // Group by shard with a single sort (ascending, matching the
        // detector's canonical order) so each shard is locked exactly once.
        // The cached hash rides along so each resource's summary slot is
        // derivable without rehashing.
        let mut keyed: Vec<(usize, u64, R)> = resources
            .into_iter()
            .map(|(r, h)| ((h as usize) & self.shard_mask, h, r))
            .collect();
        keyed.sort_unstable_by_key(|&(si, _, _)| si);
        let mut i = 0;
        while i < keyed.len() {
            let si = keyed[i].0;
            let mut shard = self.shard_locked(si);
            while i < keyed.len() && keyed[i].0 == si {
                let (_, h, ref r) = keyed[i];
                let slot = self.slot_from_hash(h);
                if let Some((mode, long)) = self.remove_grant(&mut shard, txn, r, slot, false) {
                    LockStats::bump(&self.stats.releases);
                    if long {
                        let _ = self.journal_record(JournalOp::Release, txn, r, mode);
                    }
                    trace::emit(|| {
                        Event::new(EventKind::Release, txn.0)
                            .shard(si as u32)
                            .mode(mode.to_string())
                            .resource(format!("{r:?}"))
                    });
                    if self.has_ungranted_waiters(&shard, r) {
                        self.process_queue(&mut shard, r);
                    }
                    self.maybe_desaturate(&shard, self.slot_index_from_hash(h));
                }
                i += 1;
            }
        }
    }

    /// Iterates over every grant — real grants in the table, then optimistic
    /// fast-path grants from the inventories (always short, so persistence
    /// snapshots never capture them).
    pub fn for_each_grant(&self, mut f: impl FnMut(&R, TxnId, LockMode, bool)) {
        for si in 0..self.shards.len() {
            let shard = self.shard_locked(si);
            for (r, state) in &shard.resources {
                for g in &state.granted {
                    f(r, g.txn, g.mode, g.long);
                }
            }
        }
        for stripe in self.stripes.iter() {
            let guard = stripe.lock().unwrap_or_else(PoisonError::into_inner);
            for (txn, t) in guard.iter() {
                for (r, h) in &t.held {
                    if h.optimistic {
                        f(r, *txn, h.mode, false);
                    }
                }
            }
        }
    }

    /// Installs a grant directly (used by crash-recovery of long locks).
    ///
    /// The grant is re-journaled into this manager's journal (if attached):
    /// a recovered lock is as durable as a fresh one, so a second crash
    /// before its release must find it again.
    pub fn install_recovered(&self, txn: TxnId, resource: R, mode: LockMode) {
        let h = Self::hash_of(&resource);
        let si = (h as usize) & self.shard_mask;
        let slot = self.slot_from_hash(h);
        let mut shard = self.shard_locked(si);
        let _ = self.journal_record(JournalOp::Grant, txn, &resource, mode);
        // Recovery is cold: seal and drain unconditionally, keeping the
        // summary publication a single step regardless of the mode.
        let seal = self.seal_and_drain(&mut shard, si, self.slot_index_from_hash(h));
        let (prev, absorbed) = self.install_grant(&mut shard, txn, &resource, mode, true, h);
        self.publish_grant(slot, Some(seal), prev, prev.join(mode), absorbed);
        trace::emit(|| {
            Event::new(EventKind::Grant, txn.0)
                .shard(si as u32)
                .mode(mode.to_string())
                .rule(trace::RuleTag::Recovered)
                .resource(format!("{resource:?}"))
                .detail("recovered")
        });
    }

    /// Debug re-derivation: recomputes every summary word from the shard
    /// maps and the inventories and compares. Only meaningful at quiescent
    /// points (no in-flight acquire or release) — tests and the stress
    /// harnesses call it between rounds. Sticky-saturated count fields are
    /// skipped (they are permanently conservative by design). Returns a
    /// description of the first mismatch.
    pub fn check_summary_consistency(&self) -> std::result::Result<(), String> {
        for si in 0..self.shards.len() {
            let mut share = vec![0u64; SLOTS_PER_SHARD];
            let mut x = vec![0u64; SLOTS_PER_SHARD];
            let mut waiters = vec![0u64; SLOTS_PER_SHARD];
            let mut opt_is = vec![0u64; SLOTS_PER_SHARD];
            let mut opt_ix = vec![0u64; SLOTS_PER_SHARD];
            let shard = self.shard_locked(si);
            for (r, state) in &shard.resources {
                let li = (Self::hash_of(r) >> 32) as usize & (SLOTS_PER_SHARD - 1);
                for g in &state.granted {
                    if g.mode.is_share_class() {
                        share[li] += 1;
                    } else if g.mode.is_exclusive_class() {
                        x[li] += 1;
                    }
                }
                waiters[li] += state.waiting.len() as u64;
            }
            for stripe in self.stripes.iter() {
                let guard = stripe.lock().unwrap_or_else(PoisonError::into_inner);
                for t in guard.values() {
                    for (r, e) in &t.held {
                        if !e.optimistic {
                            continue;
                        }
                        let h = Self::hash_of(r);
                        if (h as usize) & self.shard_mask != si {
                            continue;
                        }
                        let li = (h >> 32) as usize & (SLOTS_PER_SHARD - 1);
                        match e.mode.fastpath_lane() {
                            Some(LockMode::IS) => opt_is[li] += 1,
                            Some(LockMode::IX) => opt_ix[li] += 1,
                            _ => {
                                return Err(format!(
                                    "optimistic non-intent grant {} on {r:?}",
                                    e.mode
                                ))
                            }
                        }
                    }
                }
            }
            for li in 0..SLOTS_PER_SHARD {
                let w = self.summaries[si * SLOTS_PER_SHARD + li].load(Ordering::Acquire);
                let fields = [
                    ("opt_is", summary::opt_is(w), opt_is[li]),
                    ("opt_ix", summary::opt_ix(w), opt_ix[li]),
                    ("share", summary::share(w), share[li]),
                    ("x", summary::x(w), x[li]),
                    ("waiters", summary::waiters(w), waiters[li]),
                ];
                for (name, got, want) in fields {
                    if got != summary::COUNT_MAX && got != want {
                        return Err(format!(
                            "shard {si} slot {li}: summary {name}={got}, table says {want}"
                        ));
                    }
                }
                if summary::sealed(w) {
                    return Err(format!("shard {si} slot {li}: sealed at quiescence"));
                }
            }
        }
        Ok(())
    }

    // ----- internals -------------------------------------------------------

    /// Seals the slot (no optimistic publication can succeed past this
    /// point) and migrates every outstanding optimistic grant hashing to it
    /// into a real shard grant, so `can_grant` decides against the complete
    /// granted group. The caller must hold the mutex of shard `si` — the one
    /// every resource of this slot maps to. The returned guard unseals on
    /// drop unless the caller folds the clear into its own publication.
    fn seal_and_drain<'a>(
        &'a self,
        shard: &mut ShardInner<R>,
        si: usize,
        slot_idx: usize,
    ) -> SealGuard<'a> {
        let slot = &self.summaries[slot_idx];
        debug_assert!(!summary::sealed(slot.load(Ordering::Acquire)), "double seal");
        let w = slot_update(slot, |w| w | summary::SEALED);
        if summary::opt_total(w) != 0 {
            self.drain_slot(shard, si, slot_idx);
        }
        SealGuard { slot, armed: true }
    }

    /// Migrates the optimistic grants of one (shard, slot) pair into the
    /// shard map. Migration emits no trace events: each grant was already
    /// reported when it was published, and a second Grant here could land
    /// inside its owner's shrinking phase (see DESIGN.md §5).
    fn drain_slot(&self, shard: &mut ShardInner<R>, si: usize, slot_idx: usize) {
        LockStats::bump(&self.stats.fastpath_drains);
        let slot = &self.summaries[slot_idx];
        for stripe in self.stripes.iter() {
            // The seal (or a published waiter count) blocks new
            // publications, so counts only fall (owner releases and our own
            // migrations): once zero, no entry is left to find.
            if summary::opt_total(slot.load(Ordering::Acquire)) == 0 {
                break;
            }
            let mut guard = stripe.lock().unwrap_or_else(PoisonError::into_inner);
            for (owner, tstate) in guard.iter_mut() {
                for (r, e) in tstate.held.iter_mut() {
                    if !e.optimistic {
                        continue;
                    }
                    if self.slot_index_from_hash(e.hash) != slot_idx {
                        continue;
                    }
                    debug_assert_eq!((e.hash as usize) & self.shard_mask, si);
                    let state = self.state_entry(shard, r);
                    debug_assert!(state.granted.iter().all(|g| g.txn != *owner));
                    state.granted.push(Grant { txn: *owner, mode: e.mode, long: false });
                    e.optimistic = false;
                    let mode = e.mode;
                    slot_update(slot, |w| summary::opt_dec(w, mode));
                }
            }
        }
        debug_assert_eq!(summary::opt_total(slot.load(Ordering::Acquire)), 0);
    }

    /// Bounded validate-and-CAS publication of a pessimistic class move
    /// (`prev → target`) for a slot with **no** optimistic grants
    /// outstanding. The CAS atomically re-validates that the optimistic
    /// counts are still zero at the publication instant — success proves no
    /// fast-path grant predates this decision, making the seal-and-drain
    /// detour unnecessary. Returns `false` (publishing nothing) when an
    /// optimist shows up or the version churns past the retry budget; the
    /// caller then seals, drains and re-decides. The seal check is
    /// defensive: same-slot pessimists serialize on this shard's mutex.
    fn try_reserve_classes(&self, slot: &AtomicU64, prev: LockMode, target: LockMode) -> bool {
        let mut attempts = 0;
        loop {
            let w = slot.load(Ordering::Acquire);
            if summary::opt_total(w) != 0 || summary::sealed(w) {
                return false;
            }
            let next = summary::bump_version(summary::class_delta(w, prev, target));
            match slot.compare_exchange(w, next, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => return true,
                Err(_) => {
                    attempts += 1;
                    if attempts >= MAX_FASTPATH_ATTEMPTS {
                        return false;
                    }
                }
            }
        }
    }

    /// Publishes a pessimistic grant's effect on the summary word — the
    /// class-count move `prev → now`, the decrement for an absorbed own
    /// optimistic grant, and the seal clear — as one versioned update. A
    /// no-op when nothing changed and no seal is armed (pure intent grants).
    fn publish_grant(
        &self,
        slot: &AtomicU64,
        mut seal: Option<SealGuard<'_>>,
        prev: LockMode,
        now: LockMode,
        absorbed: Option<LockMode>,
    ) {
        let class_moved = prev.is_share_class() != now.is_share_class()
            || prev.is_exclusive_class() != now.is_exclusive_class();
        if seal.is_none() && !class_moved && absorbed.is_none() {
            return;
        }
        slot_update(slot, |w| {
            let mut w = summary::class_delta(w, prev, now);
            if let Some(m) = absorbed {
                w = summary::opt_dec(w, m);
            }
            summary::clear_seal(w)
        });
        if let Some(g) = seal.as_mut() {
            g.defuse();
        }
    }

    fn can_grant(
        &self,
        shard: &ShardInner<R>,
        txn: TxnId,
        resource: &R,
        target: LockMode,
        conversion: bool,
    ) -> bool {
        let Some(state) = shard.resources.get(resource) else {
            return true;
        };
        for g in &state.granted {
            if g.txn == txn {
                continue;
            }
            LockStats::bump(&self.stats.conflict_tests);
            if !target.compatible(g.mode) {
                return false;
            }
        }
        if !conversion {
            // FIFO fairness: do not overtake incompatible waiters.
            for w in &state.waiting {
                if w.txn == txn || w.granted {
                    continue;
                }
                LockStats::bump(&self.stats.conflict_tests);
                if !target.compatible(w.mode) {
                    return false;
                }
            }
        }
        true
    }

    fn conflicting_holders(
        &self,
        shard: &ShardInner<R>,
        txn: TxnId,
        resource: &R,
        target: LockMode,
    ) -> Vec<TxnId> {
        shard
            .resources
            .get(resource)
            .map(|s| {
                s.granted
                    .iter()
                    .filter(|g| g.txn != txn && !target.compatible(g.mode))
                    .map(|g| g.txn)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Resource-state accessor that creates the entry on first use and
    /// maintains the live-resource count / high-water mark.
    fn state_entry<'a>(&self, shard: &'a mut ShardInner<R>, resource: &R) -> &'a mut ResourceState {
        if !shard.resources.contains_key(resource) {
            shard.resources.insert(resource.clone(), ResourceState::default());
            let live = self.live_resources.fetch_add(1, Ordering::Relaxed) + 1;
            LockStats::raise(&self.stats.max_table_entries, live);
        }
        shard.resources.get_mut(resource).expect("just inserted")
    }

    fn drop_state_if_empty(&self, shard: &mut ShardInner<R>, resource: &R) {
        if let Some(s) = shard.resources.get(resource) {
            if s.granted.is_empty() && s.waiting.is_empty() {
                shard.resources.remove(resource);
                self.live_resources.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Installs (or joins) the real grant and the inventory entry. Returns
    /// the grant's previous real mode (`NL` if new) and, when the inventory
    /// entry was an optimistic fast-path grant absorbed by this install, its
    /// mode — the caller owes the summary slot that decrement.
    fn install_grant(
        &self,
        shard: &mut ShardInner<R>,
        txn: TxnId,
        resource: &R,
        mode: LockMode,
        long: bool,
        h: u64,
    ) -> (LockMode, Option<LockMode>) {
        let state = self.state_entry(shard, resource);
        let prev = if let Some(g) = state.granted.iter_mut().find(|g| g.txn == txn) {
            let p = g.mode;
            g.mode = g.mode.join(mode);
            g.long = g.long || long;
            p
        } else {
            state.granted.push(Grant { txn, mode, long });
            LockMode::NL
        };
        // Stripe nests strictly inside the shard critical section (leaf).
        let mut stripe = self.stripe_locked(txn);
        let txn_state = stripe.entry(txn).or_default();
        let entry = txn_state
            .held
            .entry(resource.clone())
            .or_insert(HeldLock { mode: LockMode::NL, long: false, optimistic: false, hash: h });
        let absorbed = if entry.optimistic { Some(entry.mode) } else { None };
        debug_assert!(
            absorbed.is_none() || prev == LockMode::NL,
            "optimistic entry alongside a real grant"
        );
        entry.mode = entry.mode.join(mode);
        entry.long = entry.long || long;
        entry.optimistic = false;
        LockStats::raise(&self.stats.max_locks_per_txn, txn_state.held.len() as u64);
        (prev, absorbed)
    }

    /// Removes `txn`'s grant on `resource`, returning the removed mode and
    /// long flag (the release paths journal and trace from this — no second
    /// lookup). Keeps the summary slot's class count in step.
    fn remove_grant(
        &self,
        shard: &mut ShardInner<R>,
        txn: TxnId,
        resource: &R,
        slot: &AtomicU64,
        update_inventory: bool,
    ) -> Option<(LockMode, bool)> {
        let mut removed = None;
        if let Some(state) = shard.resources.get_mut(resource) {
            if let Some(i) = state.granted.iter().position(|g| g.txn == txn) {
                let g = state.granted.remove(i);
                removed = Some((g.mode, g.long));
            }
        }
        if let Some((mode, _)) = removed {
            if !mode.is_intent() {
                slot_update(slot, |w| summary::class_delta(w, mode, LockMode::NL));
            } else {
                // Intent releases still bump the version so in-flight
                // optimistic validations observe the writer.
                slot_update(slot, |w| w);
            }
        }
        self.drop_state_if_empty(shard, resource);
        if update_inventory {
            let mut stripe = self.stripe_locked(txn);
            if let Some(t) = stripe.get_mut(&txn) {
                t.held.remove(resource);
                if t.held.is_empty() {
                    stripe.remove(&txn);
                }
            }
        }
        removed
    }

    /// Repairs a slot whose share / x / waiter count saturated sticky at
    /// [`summary::COUNT_MAX`]: once the burst that pinned it drains, the
    /// fields are recounted from the shard map and rewritten, so the slot's
    /// fast path comes back instead of staying disabled for the process
    /// lifetime. Called on the release paths with the shard mutex held —
    /// every mutator of those three fields holds it too, so the recount is
    /// exact; the optimistic fields (mutated lock-free) are left alone and
    /// the rewrite goes through a version-bumped CAS. The check is one
    /// atomic load on the common (unsaturated) path.
    fn maybe_desaturate(&self, shard: &ShardInner<R>, slot_idx: usize) {
        let slot = &self.summaries[slot_idx];
        let w = slot.load(Ordering::Acquire);
        if !summary::real_saturated(w) || summary::sealed(w) {
            return;
        }
        let (mut share, mut x, mut waiters) = (0u64, 0u64, 0u64);
        for (r, state) in &shard.resources {
            if self.slot_index_from_hash(Self::hash_of(r)) != slot_idx {
                continue;
            }
            for g in &state.granted {
                if g.mode.is_share_class() {
                    share += 1;
                } else if g.mode.is_exclusive_class() {
                    x += 1;
                }
            }
            waiters += state.waiting.len() as u64;
        }
        if share >= summary::COUNT_MAX || x >= summary::COUNT_MAX || waiters >= summary::COUNT_MAX
        {
            return; // still genuinely at the ceiling
        }
        slot_update(slot, |w| summary::rewrite_real(w, share, x, waiters));
        LockStats::bump(&self.stats.desaturations);
    }

    /// Journals one long-lock operation if a journal is attached; a
    /// mid-append crash surfaces as [`LockError::Crashed`].
    fn journal_record(&self, op: JournalOp, txn: TxnId, resource: &R, mode: LockMode) -> Result<()> {
        if let Some(j) = self.journal.get() {
            j.record(op, txn, resource, mode).map_err(|_| LockError::Crashed)?;
        }
        Ok(())
    }

    fn has_ungranted_waiters(&self, shard: &ShardInner<R>, resource: &R) -> bool {
        shard
            .resources
            .get(resource)
            .map(|s| s.waiting.iter().any(|w| !w.granted))
            .unwrap_or(false)
    }

    /// Grants queued waiters that have become compatible. Conversions are
    /// considered first (anywhere in the queue), then the queue is drained
    /// from the front until the first non-grantable waiter.
    ///
    /// The scan is conservative within one pass (a waiter approved in this
    /// pass is not yet visible as granted to the compatibility checks), so
    /// the pass repeats until a fixpoint: otherwise a waiter directly behind
    /// a freshly granted *compatible* one would be skipped with nothing left
    /// to re-trigger the queue — a lost grant that stalled whole workloads.
    ///
    /// If anything was granted, exactly this resource's condvar is notified.
    fn process_queue(&self, shard: &mut ShardInner<R>, resource: &R) {
        let h = Self::hash_of(resource);
        let slot = self.slot_from_hash(h);
        let mut granted_any = false;
        while let Some(state) = shard.resources.get(resource) {
            // Conversion pass.
            let mut grant_idx: Vec<usize> = Vec::new();
            for (i, w) in state.waiting.iter().enumerate() {
                if w.granted || w.victim.is_some() || !w.conversion {
                    continue;
                }
                if self.queue_compatible(state, w, true) {
                    grant_idx.push(i);
                }
            }
            // FIFO pass: a waiter is granted when it is compatible with the
            // granted group and with every *ungranted incompatible* waiter
            // ahead of it. Compatible waiters may pass blocked compatible
            // predecessors — granting a compatible mode can never delay the
            // predecessor's own grant, so fairness is preserved while the
            // policy stays aligned with the waits-for edge model.
            for (i, w) in state.waiting.iter().enumerate() {
                if w.granted || w.victim.is_some() || w.conversion {
                    continue;
                }
                if self.queue_compatible(state, w, false)
                    && self.no_incompatible_ahead(state, i, w.mode)
                {
                    grant_idx.push(i);
                }
            }
            if grant_idx.is_empty() {
                break;
            }
            let to_grant: Vec<(TxnId, LockMode, bool)> = {
                let state = shard.resources.get_mut(resource).expect("checked above");
                let mut out = Vec::with_capacity(grant_idx.len());
                for &i in &grant_idx {
                    let w = &mut state.waiting[i];
                    w.granted = true;
                    out.push((w.txn, w.mode, w.long));
                }
                out
            };
            for (txn, mode, long) in to_grant {
                explore::note_wakeup(txn.0);
                let (prev, absorbed) = self.install_grant(shard, txn, resource, mode, long, h);
                // The grantee's own waiter entry keeps the slot's waiter
                // count above zero throughout, blocking new optimists; the
                // publication below only races optimistic releases.
                self.publish_grant(slot, None, prev, prev.join(mode), absorbed);
                trace::emit(|| {
                    Event::new(EventKind::Wakeup, txn.0)
                        .shard(self.shard_index(resource) as u32)
                        .mode(mode.to_string())
                        .resource(format!("{resource:?}"))
                });
            }
            granted_any = true;
            // Loop: the new grants may make further waiters grantable.
        }
        if granted_any {
            // Every granted waiter cloned the condvar out before sleeping, so
            // it is always Some here.
            if let Some(cond) = shard.resources.get(resource).and_then(|s| s.cond.as_ref()) {
                LockStats::bump(&self.stats.wakeups);
                cond.notify_all();
            }
        }
    }

    /// Compatibility of waiter `w` with the granted group (ignoring `w.txn`'s
    /// own grant when it is a conversion) and, transitively, with waiters we
    /// already decided to grant in this pass (approximated by re-checking the
    /// granted list, which `install_grant` updates between passes).
    fn queue_compatible(&self, state: &ResourceState, w: &Waiter, conversion: bool) -> bool {
        for g in &state.granted {
            if conversion && g.txn == w.txn {
                continue;
            }
            LockStats::bump(&self.stats.conflict_tests);
            if !w.mode.compatible(g.mode) {
                return false;
            }
        }
        true
    }

    /// No ungranted waiter ahead of `idx` whose requested mode conflicts
    /// with `mode` (granted and victim-marked entries do not block).
    fn no_incompatible_ahead(&self, state: &ResourceState, idx: usize, mode: LockMode) -> bool {
        state
            .waiting
            .iter()
            .take(idx)
            .all(|w| w.granted || w.victim.is_some() || mode.compatible(w.mode))
    }

    #[allow(clippy::too_many_arguments)]
    fn block_until_granted<'a>(
        &'a self,
        si: usize,
        mut shard: MutexGuard<'a, ShardInner<R>>,
        txn: TxnId,
        resource: R,
        target: LockMode,
        conversion: bool,
        long: bool,
        journal_long: bool,
        deadline: Option<Instant>,
        slot_idx: usize,
        mut seal: Option<SealGuard<'a>>,
    ) -> Result<AcquireOutcome> {
        let slot = &self.summaries[slot_idx];
        LockStats::bump(&self.stats.waits);
        // Heat accrues per wait: the adaptive victim policy reads it to rank
        // deadlock-cycle members by the demand on their wait target.
        self.heat[slot_idx].fetch_add(1, Ordering::Relaxed);
        trace::emit(|| {
            Event::new(EventKind::Wait, txn.0)
                .shard(si as u32)
                .mode(target.to_string())
                .resource(format!("{resource:?}"))
        });
        let cond = {
            let state = self.state_entry(&mut shard, &resource);
            state.waiting.push_back(Waiter {
                txn,
                mode: target,
                conversion,
                long,
                granted: false,
                victim: None,
            });
            Arc::clone(state.cond.get_or_insert_with(Default::default))
        };
        // Publish waiters+1 (and clear any seal) in one step: with a
        // non-zero waiter count no optimist can publish, so FIFO order
        // holds against the fast path too.
        slot_update(slot, |w| summary::clear_seal(summary::wait_inc(w)));
        if let Some(g) = seal.as_mut() {
            g.defuse();
        }
        drop(seal);
        // The non-zero waiter count now blocks new optimists, but a
        // seal-free S/SIX/X decision may have raced one publishing between
        // its decision and this point. Migrate any stragglers while the
        // shard is still held, so the queued request never waits behind an
        // invisible optimistic grant.
        if !target.is_intent() && summary::opt_total(slot.load(Ordering::Acquire)) != 0 {
            self.drain_slot(&mut shard, si, slot_idx);
        }
        // Publish the wait edge, then detect with no shard lock held: the
        // detector needs all shards in canonical order.
        drop(shard);
        self.run_detector();
        let mut shard = self.shard_locked(si);

        loop {
            // Check our waiter entry. The status is re-validated under the
            // shard mutex before every wait, so a grant or victim verdict
            // delivered between checks can never be lost.
            let status = {
                let state = shard.resources.get(&resource).expect("resource with waiter");
                let w = state
                    .waiting
                    .iter()
                    .find(|w| w.txn == txn)
                    .expect("own waiter present");
                if let Some(cycle) = &w.victim {
                    Some(Err(LockError::Deadlock { victim: txn, cycle: cycle.clone() }))
                } else if w.granted {
                    Some(Ok(()))
                } else {
                    None
                }
            };
            match status {
                Some(Ok(())) => {
                    self.remove_waiter_entry_only(&mut shard, txn, &resource);
                    slot_update(slot, summary::wait_dec);
                    if journal_long {
                        // The grant was installed by `process_queue`; the
                        // record must still be durable before the waiter's
                        // acquire acknowledges. A crash here leaves the
                        // in-memory grant unacknowledged — replay at restart
                        // is the authority on whether it survived.
                        let op = if conversion { JournalOp::Convert } else { JournalOp::Grant };
                        self.journal_record(op, txn, &resource, target)?;
                    }
                    trace::emit(|| {
                        Event::new(EventKind::Grant, txn.0)
                            .shard(si as u32)
                            .mode(target.to_string())
                            .resource(format!("{resource:?}"))
                            .detail("after-wait")
                    });
                    return Ok(AcquireOutcome::Granted { waited: true });
                }
                Some(Err(e)) => {
                    // Targeted cleanup: only this resource's queue can have
                    // been affected by our departure.
                    self.remove_waiter(&mut shard, txn, &resource);
                    slot_update(slot, summary::wait_dec);
                    if self.has_ungranted_waiters(&shard, &resource) {
                        self.process_queue(&mut shard, &resource);
                    }
                    return Err(e);
                }
                None => {}
            }
            if self.draining.load(Ordering::SeqCst) {
                // Shutdown: refuse instead of sleeping. Status was just
                // checked under the shard mutex — not granted, not a victim.
                self.remove_waiter(&mut shard, txn, &resource);
                slot_update(slot, summary::wait_dec);
                if self.has_ungranted_waiters(&shard, &resource) {
                    self.process_queue(&mut shard, &resource);
                }
                return Err(LockError::Draining);
            }
            match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        // Status was just checked: not granted, not a victim.
                        self.remove_waiter(&mut shard, txn, &resource);
                        slot_update(slot, summary::wait_dec);
                        if self.has_ungranted_waiters(&shard, &resource) {
                            self.process_queue(&mut shard, &resource);
                        }
                        return Err(LockError::Timeout);
                    }
                    explore::before_block(txn.0);
                    let (guard, _) = cond
                        .wait_timeout(shard, d - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    shard = guard;
                    explore::after_block(txn.0);
                }
                None => {
                    explore::before_block(txn.0);
                    shard = cond.wait(shard).unwrap_or_else(PoisonError::into_inner);
                    explore::after_block(txn.0);
                }
            }
        }
    }

    fn remove_waiter(&self, shard: &mut ShardInner<R>, txn: TxnId, resource: &R) {
        if let Some(state) = shard.resources.get_mut(resource) {
            state.waiting.retain(|w| w.txn != txn);
        }
        self.drop_state_if_empty(shard, resource);
    }

    /// Removes only the waiter entry (grant already installed by
    /// `process_queue`).
    fn remove_waiter_entry_only(&self, shard: &mut ShardInner<R>, txn: TxnId, resource: &R) {
        if let Some(state) = shard.resources.get_mut(resource) {
            state.waiting.retain(|w| w.txn != txn);
        }
    }

    /// Snapshot deadlock detector.
    ///
    /// Locks every shard in ascending index order (the canonical order — the
    /// only code path that holds more than one shard), builds the waits-for
    /// graph from the queues, and resolves cycles to fixpoint: each detected
    /// cycle has its youngest markable member stamped as victim and woken
    /// through its own resource's condvar. Granted and already-victimized
    /// waiters contribute no edges, so a marked victim immediately breaks
    /// its cycle and concurrent enqueuers re-detecting the same ring find
    /// nothing — exactly one victim per cycle.
    fn run_detector(&self) {
        LockStats::bump(&self.stats.detector_runs);
        let mut guards: Vec<MutexGuard<'_, ShardInner<R>>> =
            (0..self.shards.len()).map(|i| self.shard_locked(i)).collect();
        let traced = trace::is_enabled();
        loop {
            // Snapshot: waits-for edges plus each waiter's location. When
            // tracing is on, the same pass collects labelled edges for the
            // DOT export (untraced runs skip the string formatting).
            let mut edges: HashMap<TxnId, Vec<TxnId>> = HashMap::new();
            let mut locs: HashMap<TxnId, (usize, R)> = HashMap::new();
            let mut wf_edges: Vec<trace::WaitEdge> = Vec::new();
            for (si, shard) in guards.iter().enumerate() {
                for (r, state) in &shard.resources {
                    for (pos, w) in state.waiting.iter().enumerate() {
                        if w.granted || w.victim.is_some() {
                            // Runnable or already condemned: no outgoing
                            // edges (stale edges would fabricate cycles).
                            continue;
                        }
                        let mut blockers = Vec::new();
                        for g in &state.granted {
                            if g.txn != w.txn && !w.mode.compatible(g.mode) {
                                blockers.push(g.txn);
                            }
                        }
                        // Under FIFO, earlier incompatible waiters also block
                        // us — except for conversions, which bypass queue
                        // order entirely.
                        if !w.conversion {
                            for w2 in state.waiting.iter().take(pos) {
                                if !w2.granted
                                    && w2.victim.is_none()
                                    && w2.txn != w.txn
                                    && !w.mode.compatible(w2.mode)
                                {
                                    blockers.push(w2.txn);
                                }
                            }
                        }
                        if traced {
                            for &b in &blockers {
                                wf_edges.push(trace::WaitEdge {
                                    waiter: w.txn.0,
                                    holder: b.0,
                                    resource: format!("{r:?}"),
                                    mode: w.mode.to_string(),
                                });
                            }
                        }
                        edges.insert(w.txn, blockers);
                        locs.insert(w.txn, (si, r.clone()));
                    }
                }
            }
            let Some(cycle) = find_cycle_snapshot(&edges) else {
                break;
            };
            LockStats::bump(&self.stats.deadlocks);
            let members_detail = {
                let members: Vec<String> = cycle.iter().map(|t| format!("T{}", t.0)).collect();
                members.join(", ")
            };
            // Youngest member (max TxnId) dies; if its waiter is stale
            // (granted meanwhile), fall back to the next youngest so a real
            // cycle is never left standing. With the adaptive hot-victim
            // policy on, members are ranked by the heat of the slot they
            // wait at instead (ties still youngest-first): killing the
            // waiter at the hottest spot frees the deepest demand first.
            // Any cycle member is a protocol-correct victim.
            let mut members = cycle.clone();
            if self.adaptive.hot_victim() {
                members.sort_unstable_by_key(|t| {
                    let heat = locs
                        .get(t)
                        .map(|(_, r)| {
                            let idx = self.slot_index_from_hash(Self::hash_of(r));
                            self.heat[idx].load(Ordering::Relaxed)
                        })
                        .unwrap_or(0);
                    (heat, *t)
                });
            } else {
                members.sort_unstable();
            }
            let mut marked = false;
            for &victim in members.iter().rev() {
                let Some((vsi, vres)) = locs.get(&victim) else {
                    continue;
                };
                let Some(state) = guards[*vsi].resources.get_mut(vres) else {
                    continue;
                };
                if let Some(w) = state
                    .waiting
                    .iter_mut()
                    .find(|w| w.txn == victim && !w.granted && w.victim.is_none())
                {
                    w.victim = Some(cycle.clone());
                    let wmode = w.mode;
                    // The detection event goes out only once a victim is
                    // actually marked, so every DeadlockDetected is followed
                    // by exactly one VictimChosen (stale cycles carry the
                    // `stale` marker instead — see below).
                    trace::emit(|| {
                        Event::new(EventKind::DeadlockDetected, 0).detail(members_detail.clone())
                    });
                    trace::emit(|| {
                        Event::new(EventKind::VictimChosen, victim.0)
                            .shard(*vsi as u32)
                            .mode(wmode.to_string())
                            .resource(format!("{vres:?}"))
                    });
                    if traced {
                        let graph = trace::WaitsForGraph {
                            edges: std::mem::take(&mut wf_edges),
                            cycle: cycle.iter().map(|t| t.0).collect(),
                            victim: Some(victim.0),
                        };
                        trace::record_deadlock_dot(graph.to_dot());
                    }
                    // The victim is a blocked waiter, so it installed the
                    // condvar before sleeping.
                    explore::note_wakeup(victim.0);
                    if let Some(cond) = &state.cond {
                        LockStats::bump(&self.stats.wakeups);
                        cond.notify_all();
                    }
                    marked = true;
                    break;
                }
            }
            if !marked {
                // Every member turned runnable between snapshot and marking;
                // nothing to do (and nothing left to loop on). The cycle is
                // still recorded, marked `stale` so trace consumers know no
                // victim was (or needed to be) chosen.
                trace::emit(|| {
                    Event::new(EventKind::DeadlockDetected, 0)
                        .resource("stale")
                        .detail(members_detail.clone())
                });
                break;
            }
        }
    }
}

/// DFS over the snapshot waits-for graph. Tries every waiting txn (in sorted
/// order, for determinism) as the cycle anchor and returns the first cycle
/// found as a list of txns (first == last omitted).
fn find_cycle_snapshot(edges: &HashMap<TxnId, Vec<TxnId>>) -> Option<Vec<TxnId>> {
    fn dfs(
        edges: &HashMap<TxnId, Vec<TxnId>>,
        node: TxnId,
        start: TxnId,
        path: &mut Vec<TxnId>,
        visited: &mut HashMap<TxnId, bool>, // false = open, true = done
    ) -> Option<Vec<TxnId>> {
        path.push(node);
        visited.insert(node, false);
        if let Some(blockers) = edges.get(&node) {
            for &b in blockers {
                if b == start {
                    return Some(path.clone());
                }
                if visited.contains_key(&b) {
                    continue; // on path (cycle not via start) or exhausted
                }
                if let Some(c) = dfs(edges, b, start, path, visited) {
                    return Some(c);
                }
            }
        }
        visited.insert(node, true);
        path.pop();
        None
    }

    let mut starts: Vec<TxnId> = edges.keys().copied().collect();
    starts.sort_unstable();
    for &start in &starts {
        let mut path = Vec::new();
        let mut visited = HashMap::new();
        if let Some(c) = dfs(edges, start, start, &mut path, &mut visited) {
            return Some(c);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::LockMode::*;
    use colock_testkit::{run_threads, wait_until};
    use std::sync::Arc;
    use std::thread;

    type Mgr = LockManager<&'static str>;

    /// Generous bound for "the other thread is enqueued" waits; the
    /// predicates normally flip within microseconds.
    const WAIT: Duration = Duration::from_secs(5);

    fn t(n: u64) -> TxnId {
        TxnId(n)
    }

    #[test]
    fn grant_and_reentrant_acquire() {
        let m = Mgr::new();
        assert_eq!(
            m.acquire(t(1), "a", S, LockRequestOptions::default()).unwrap(),
            AcquireOutcome::Granted { waited: false }
        );
        assert_eq!(
            m.acquire(t(1), "a", IS, LockRequestOptions::default()).unwrap(),
            AcquireOutcome::AlreadyHeld
        );
        assert_eq!(m.held_mode(t(1), &"a"), S);
    }

    #[test]
    fn compatible_modes_share() {
        let m = Mgr::new();
        m.acquire(t(1), "a", S, LockRequestOptions::default()).unwrap();
        m.acquire(t(2), "a", S, LockRequestOptions::default()).unwrap();
        m.acquire(t(3), "a", IS, LockRequestOptions::default()).unwrap();
        assert_eq!(m.holders(&"a").len(), 3);
    }

    #[test]
    fn incompatible_try_lock_reports_holders() {
        let m = Mgr::new();
        m.acquire(t(1), "a", X, LockRequestOptions::default()).unwrap();
        let err = m.acquire(t(2), "a", S, LockRequestOptions::try_lock()).unwrap_err();
        assert_eq!(err, LockError::WouldBlock { holders: vec![t(1)] });
    }

    #[test]
    fn release_unblocks_waiter() {
        let m = Arc::new(Mgr::new());
        m.acquire(t(1), "a", X, LockRequestOptions::default()).unwrap();
        let m2 = Arc::clone(&m);
        let h = thread::spawn(move || {
            m2.acquire(t(2), "a", X, LockRequestOptions::default()).unwrap()
        });
        wait_until(WAIT, || m.waiter_count(&"a") == 1);
        assert!(m.release(t(1), &"a"));
        assert_eq!(h.join().unwrap(), AcquireOutcome::Granted { waited: true });
        assert_eq!(m.held_mode(t(2), &"a"), X);
    }

    #[test]
    fn conversion_upgrades_mode() {
        let m = Mgr::new();
        m.acquire(t(1), "a", S, LockRequestOptions::default()).unwrap();
        m.acquire(t(1), "a", IX, LockRequestOptions::default()).unwrap();
        assert_eq!(m.held_mode(t(1), &"a"), SIX);
        // Still a single grant entry.
        assert_eq!(m.holders(&"a").len(), 1);
    }

    #[test]
    fn conversion_waits_for_other_readers() {
        let m = Arc::new(Mgr::new());
        m.acquire(t(1), "a", S, LockRequestOptions::default()).unwrap();
        m.acquire(t(2), "a", S, LockRequestOptions::default()).unwrap();
        let err = m.acquire(t(1), "a", X, LockRequestOptions::try_lock()).unwrap_err();
        assert!(matches!(err, LockError::WouldBlock { .. }));
        // Blocking upgrade succeeds once the other reader leaves.
        let m2 = Arc::clone(&m);
        let h = thread::spawn(move || {
            m2.acquire(t(1), "a", X, LockRequestOptions::default()).unwrap()
        });
        wait_until(WAIT, || m.waiter_count(&"a") == 1);
        m.release(t(2), &"a");
        assert_eq!(h.join().unwrap(), AcquireOutcome::Granted { waited: true });
        assert_eq!(m.held_mode(t(1), &"a"), X);
    }

    #[test]
    fn fifo_no_overtaking_of_waiting_x() {
        let m = Arc::new(Mgr::new());
        m.acquire(t(1), "a", S, LockRequestOptions::default()).unwrap();
        // t2 queues an X.
        let m2 = Arc::clone(&m);
        let h2 = thread::spawn(move || {
            m2.acquire(t(2), "a", X, LockRequestOptions::default()).unwrap()
        });
        wait_until(WAIT, || m.waiter_count(&"a") == 1);
        // t3's S would be compatible with the grant, but must not overtake.
        let err = m.acquire(t(3), "a", S, LockRequestOptions::try_lock()).unwrap_err();
        assert!(matches!(err, LockError::WouldBlock { .. }));
        m.release(t(1), &"a");
        h2.join().unwrap();
        m.release_all(t(2));
        m.acquire(t(3), "a", S, LockRequestOptions::default()).unwrap();
    }

    #[test]
    fn deadlock_detected_youngest_aborts() {
        let m = Arc::new(Mgr::new());
        m.acquire(t(1), "a", X, LockRequestOptions::default()).unwrap();
        m.acquire(t(2), "b", X, LockRequestOptions::default()).unwrap();
        // t1 waits for b.
        let m1 = Arc::clone(&m);
        let h1 = thread::spawn(move || m1.acquire(t(1), "b", X, LockRequestOptions::default()));
        wait_until(WAIT, || m.waiter_count(&"b") == 1);
        // t2 requests a -> cycle {1,2}; victim = youngest = t2 (the requester).
        let err = m.acquire(t(2), "a", X, LockRequestOptions::default()).unwrap_err();
        match err {
            LockError::Deadlock { victim, .. } => assert_eq!(victim, t(2)),
            e => panic!("expected deadlock, got {e:?}"),
        }
        // After t2 aborts, t1 proceeds.
        m.release_all(t(2));
        assert!(h1.join().unwrap().is_ok());
        assert_eq!(m.stats().snapshot().deadlocks, 1);
    }

    #[test]
    fn deadlock_victim_can_be_the_waiting_txn() {
        // t2 (younger) waits first; then t1's request closes the cycle and
        // t2 must be chosen and woken as victim.
        let m = Arc::new(Mgr::new());
        m.acquire(t(1), "a", X, LockRequestOptions::default()).unwrap();
        m.acquire(t(2), "b", X, LockRequestOptions::default()).unwrap();
        let m2 = Arc::clone(&m);
        let h2 = thread::spawn(move || m2.acquire(t(2), "a", X, LockRequestOptions::default()));
        wait_until(WAIT, || m.waiter_count(&"a") == 1);
        let m1 = Arc::clone(&m);
        let h1 = thread::spawn(move || m1.acquire(t(1), "b", X, LockRequestOptions::default()));
        let r2 = h2.join().unwrap();
        match r2 {
            Err(LockError::Deadlock { victim, .. }) => assert_eq!(victim, t(2)),
            other => panic!("expected t2 victim, got {other:?}"),
        }
        m.release_all(t(2));
        assert!(h1.join().unwrap().is_ok());
    }

    #[test]
    fn upgrade_deadlock_between_two_readers() {
        let m = Arc::new(Mgr::new());
        m.acquire(t(1), "a", S, LockRequestOptions::default()).unwrap();
        m.acquire(t(2), "a", S, LockRequestOptions::default()).unwrap();
        let m1 = Arc::clone(&m);
        let h1 = thread::spawn(move || m1.acquire(t(1), "a", X, LockRequestOptions::default()));
        wait_until(WAIT, || m.waiter_count(&"a") == 1);
        let r2 = m.acquire(t(2), "a", X, LockRequestOptions::default());
        // One of the two must die (the younger: t2).
        match r2 {
            Err(LockError::Deadlock { victim, .. }) => assert_eq!(victim, t(2)),
            other => panic!("expected deadlock, got {other:?}"),
        }
        m.release_all(t(2));
        assert!(h1.join().unwrap().is_ok());
    }

    #[test]
    fn timeout_fires() {
        let m = Mgr::new();
        m.acquire(t(1), "a", X, LockRequestOptions::default()).unwrap();
        let err = m
            .acquire(
                t(2),
                "a",
                X,
                LockRequestOptions {
                    policy: WaitPolicy::BlockTimeout(Duration::from_millis(40)),
                    long: false,
                },
            )
            .unwrap_err();
        assert_eq!(err, LockError::Timeout);
        // The waiter must be fully cleaned up.
        assert_eq!(m.holders(&"a").len(), 1);
    }

    #[test]
    fn release_all_cleans_table() {
        let m = Mgr::new();
        m.acquire(t(1), "a", IS, LockRequestOptions::default()).unwrap();
        m.acquire(t(1), "b", S, LockRequestOptions::default()).unwrap();
        assert_eq!(m.release_all(t(1)), 2);
        assert_eq!(m.table_size(), 0);
        assert!(m.locks_of(t(1)).is_empty());
    }

    #[test]
    fn release_short_keeps_long_locks() {
        let m = Mgr::new();
        m.acquire(t(1), "a", S, LockRequestOptions::long()).unwrap();
        m.acquire(t(1), "b", IS, LockRequestOptions::default()).unwrap();
        assert_eq!(m.release_short(t(1)), 1);
        assert_eq!(m.held_mode(t(1), &"a"), S);
        assert_eq!(m.held_mode(t(1), &"b"), NL);
    }

    #[test]
    fn stats_count_requests_and_tables() {
        let m = Mgr::new();
        m.acquire(t(1), "a", S, LockRequestOptions::default()).unwrap();
        m.acquire(t(2), "b", S, LockRequestOptions::default()).unwrap();
        let s = m.stats().snapshot();
        assert_eq!(s.requests, 2);
        assert_eq!(s.immediate_grants, 2);
        assert_eq!(s.max_table_entries, 2);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let m: LockManager<&str> = LockManager::with_shards(5);
        assert_eq!(m.shard_count(), 8);
        let m1: LockManager<&str> = LockManager::with_shards(0);
        assert_eq!(m1.shard_count(), 1);
        // The single-shard table still works end to end.
        m1.acquire(t(1), "a", X, LockRequestOptions::default()).unwrap();
        assert_eq!(m1.shard_index(&"anything"), 0);
        m1.release_all(t(1));
        assert_eq!(m1.table_size(), 0);
    }

    #[test]
    fn shard_index_is_stable_and_in_range() {
        let m: LockManager<String> = LockManager::new();
        for i in 0..64 {
            let r = format!("res{i}");
            let s1 = m.shard_index(&r);
            assert_eq!(s1, m.shard_index(&r), "hashing must be deterministic");
            assert!(s1 < m.shard_count());
        }
    }

    #[test]
    fn summary_word_packs_and_saturates() {
        let mut w = 0u64;
        for _ in 0..3 {
            w = summary::opt_inc(w, IS);
        }
        w = summary::opt_inc(w, IX);
        w = summary::class_delta(w, NL, S);
        w = summary::class_delta(w, NL, X);
        w = summary::wait_inc(w);
        assert_eq!(summary::opt_is(w), 3);
        assert_eq!(summary::opt_ix(w), 1);
        assert_eq!(summary::share(w), 1);
        assert_eq!(summary::x(w), 1);
        assert_eq!(summary::waiters(w), 1);
        assert_eq!(summary::opt_total(w), 4);
        // S -> SIX stays within the share class; SIX -> X moves classes.
        let w2 = summary::class_delta(w, S, SIX);
        assert_eq!(summary::share(w2), 1);
        let w3 = summary::class_delta(w2, SIX, X);
        assert_eq!(summary::share(w3), 0);
        assert_eq!(summary::x(w3), 2);
        // Version bumps leave every field alone, even across the wrap.
        let mut v = w;
        for _ in 0..10_000 {
            v = summary::bump_version(v);
        }
        assert_eq!(summary::opt_is(v), 3);
        assert_eq!(summary::waiters(v), 1);
        // Sticky saturation: once a field hits the ceiling it never moves.
        let mut s = 0u64;
        for _ in 0..2000 {
            s = summary::wait_inc(s);
        }
        assert_eq!(summary::waiters(s), summary::COUNT_MAX);
        s = summary::wait_dec(s);
        assert_eq!(summary::waiters(s), summary::COUNT_MAX);
    }

    #[test]
    fn summary_admits_follows_classes() {
        let empty = 0u64;
        assert!(summary::admits(empty, IS));
        assert!(summary::admits(empty, IX));
        assert!(!summary::admits(empty, S));
        assert!(!summary::admits(empty, X));
        let with_share = summary::class_delta(empty, NL, S);
        assert!(summary::admits(with_share, IS));
        assert!(!summary::admits(with_share, IX));
        let with_x = summary::class_delta(empty, NL, X);
        assert!(!summary::admits(with_x, IS));
        let with_wait = summary::wait_inc(empty);
        assert!(!summary::admits(with_wait, IS));
        let sealed = empty | summary::SEALED;
        assert!(!summary::admits(sealed, IS));
        assert!(summary::admits(summary::clear_seal(sealed), IS));
        // Optimistic intents coexist in the word.
        let opt = summary::opt_inc(summary::opt_inc(empty, IS), IX);
        assert!(summary::admits(opt, IS) && summary::admits(opt, IX));
        // Semantic modes are admitted by lane: Member behaves like IS
        // (compatible with S), Insert/Delete like IX (not).
        assert!(summary::admits(empty, Member));
        assert!(summary::admits(empty, Insert) && summary::admits(empty, Delete));
        assert!(summary::admits(with_share, Member));
        assert!(!summary::admits(with_share, Insert));
        assert!(!summary::admits(with_x, Member) && !summary::admits(with_x, Delete));
    }

    #[test]
    fn fastpath_intent_never_enters_the_shard_map() {
        let m = Mgr::new();
        m.set_fastpath(true);
        assert_eq!(
            m.acquire(t(1), "a", IS, LockRequestOptions::default()).unwrap(),
            AcquireOutcome::Granted { waited: false }
        );
        // The grant is inventory-only...
        assert_eq!(m.table_size(), 0);
        assert_eq!(m.held_mode(t(1), &"a"), IS);
        assert_eq!(m.holders(&"a"), vec![(t(1), IS)]);
        assert_eq!(m.grant_count(), 1);
        let s = m.stats().snapshot();
        assert_eq!((s.intent_acquires, s.fastpath_hits, s.fastpath_fallbacks), (1, 1, 0));
        // ...and an S by someone else drains it into a real grant.
        m.acquire(t(2), "a", S, LockRequestOptions::default()).unwrap();
        assert_eq!(m.table_size(), 1);
        assert_eq!(m.holders(&"a").len(), 2);
        assert!(m.stats().snapshot().fastpath_drains >= 1);
        m.check_summary_consistency().unwrap();
        m.release_all(t(1));
        m.release_all(t(2));
        assert_eq!(m.table_size(), 0);
        m.check_summary_consistency().unwrap();
    }

    #[test]
    fn many_threads_on_one_resource_make_progress() {
        let m = Arc::new(Mgr::new());
        let m2 = Arc::clone(&m);
        run_threads(16, Duration::from_secs(60), move |i| {
            let id = t(i as u64 + 1);
            for _ in 0..20 {
                match m2.acquire(id, "hot", X, LockRequestOptions::default()) {
                    Ok(_) => {
                        m2.release(id, &"hot");
                    }
                    Err(LockError::Deadlock { .. }) => {
                        m2.release_all(id);
                    }
                    Err(e) => panic!("{e}"),
                }
            }
        });
        assert_eq!(m.table_size(), 0);
    }

    #[test]
    fn semantic_modes_ride_the_intent_fastpath_lanes() {
        let m = Mgr::new();
        m.set_fastpath(true);
        m.acquire(t(1), "set", Insert, LockRequestOptions::default()).unwrap();
        m.acquire(t(2), "set", Insert, LockRequestOptions::default()).unwrap();
        m.acquire(t(3), "set", Delete, LockRequestOptions::default()).unwrap();
        m.acquire(t(4), "set", Member, LockRequestOptions::default()).unwrap();
        // All four commute: inventory-only grants, no shard-map entry.
        assert_eq!(m.table_size(), 0);
        let s = m.stats().snapshot();
        assert_eq!((s.intent_acquires, s.fastpath_hits, s.fastpath_fallbacks), (4, 4, 0));
        m.check_summary_consistency().unwrap();
        // A whole-container S conflicts with the writers: it drains the
        // slot and is refused, reporting exactly the Insert/Delete holders
        // (the Member holder commutes with S).
        let err = m.acquire(t(5), "set", S, LockRequestOptions::try_lock()).unwrap_err();
        match err {
            LockError::WouldBlock { mut holders } => {
                holders.sort_unstable();
                assert_eq!(holders, vec![t(1), t(2), t(3)]);
            }
            e => panic!("expected WouldBlock, got {e:?}"),
        }
        assert!(m.stats().snapshot().fastpath_drains >= 1);
        for i in 1..=4 {
            m.release_all(t(i));
        }
        assert_eq!(m.table_size(), 0);
        m.check_summary_consistency().unwrap();
    }

    #[test]
    fn saturated_slot_desaturates_and_recovers_fastpath() {
        let m = Mgr::new();
        m.set_fastpath(true);
        // COUNT_MAX concurrent S holders pin the slot's share field at the
        // sticky ceiling.
        let n = summary::COUNT_MAX;
        for i in 1..=n {
            m.acquire(t(i), "hot", S, LockRequestOptions::default()).unwrap();
        }
        let slot = m.slot_from_hash(Mgr::hash_of(&"hot"));
        assert_eq!(summary::share(slot.load(Ordering::Acquire)), summary::COUNT_MAX);
        for i in 1..=n {
            m.release(t(i), &"hot");
        }
        assert_eq!(m.table_size(), 0);
        // Before the fix the share field stayed pinned at COUNT_MAX forever
        // and `admits` refused every IX-lane publication on the slot.
        assert_eq!(summary::share(slot.load(Ordering::Acquire)), 0);
        assert!(m.stats().snapshot().desaturations >= 1);
        let before = m.stats().snapshot();
        m.acquire(t(5000), "hot", IX, LockRequestOptions::default()).unwrap();
        let after = m.stats().snapshot();
        assert_eq!(after.fastpath_hits - before.fastpath_hits, 1);
        m.check_summary_consistency().unwrap();
        m.release_all(t(5000));
        m.check_summary_consistency().unwrap();
    }

    #[test]
    fn wait_depth_limit_refuses_instead_of_parking() {
        let m = Arc::new(Mgr::new());
        m.adaptive().set_wait_depth_limit(1);
        m.acquire(t(1), "a", X, LockRequestOptions::default()).unwrap();
        let m2 = Arc::clone(&m);
        let h = thread::spawn(move || {
            m2.acquire(t(2), "a", X, LockRequestOptions::default()).unwrap()
        });
        wait_until(WAIT, || m.waiter_count(&"a") == 1);
        // The queue is at the limit: a third blocking X is refused with
        // WouldBlock instead of parked behind the convoy.
        let err = m.acquire(t(3), "a", X, LockRequestOptions::default()).unwrap_err();
        assert!(matches!(err, LockError::WouldBlock { .. }));
        assert_eq!(m.stats().snapshot().wait_depth_refusals, 1);
        m.release(t(1), &"a");
        h.join().unwrap();
        m.release_all(t(2));
        assert_eq!(m.table_size(), 0);
    }

    #[test]
    fn hot_victim_policy_kills_hottest_waiter() {
        let m = Arc::new(Mgr::new());
        m.adaptive().set_hot_victim(true);
        let cold = "cold";
        // Pick a hot resource on a different summary slot than `cold` so
        // the heat comparison is meaningful.
        let hot = ["hot0", "hot1", "hot2", "hot3", "hot4", "hot5"]
            .into_iter()
            .find(|r| {
                m.slot_index_from_hash(Mgr::hash_of(r))
                    != m.slot_index_from_hash(Mgr::hash_of(&cold))
            })
            .expect("a candidate on a different slot");
        // Pre-heat `hot`'s slot: every enqueued wait bumps it, timeouts
        // included.
        m.acquire(t(9), hot, X, LockRequestOptions::default()).unwrap();
        for i in 0..4 {
            let err = m
                .acquire(
                    t(10 + i),
                    hot,
                    X,
                    LockRequestOptions {
                        policy: WaitPolicy::BlockTimeout(Duration::from_millis(5)),
                        long: false,
                    },
                )
                .unwrap_err();
            assert_eq!(err, LockError::Timeout);
        }
        m.release_all(t(9));
        // Cycle: t1 (older) holds `cold` and waits on `hot`; t2 (younger)
        // holds `hot` and waits on `cold`. The youngest rule would kill t2;
        // the hot policy kills t1, the waiter at the hotter slot.
        m.acquire(t(2), hot, X, LockRequestOptions::default()).unwrap();
        m.acquire(t(1), cold, X, LockRequestOptions::default()).unwrap();
        let m1 = Arc::clone(&m);
        let h1 = thread::spawn(move || match m1.acquire(t(1), hot, X, LockRequestOptions::default())
        {
            Err(LockError::Deadlock { victim, .. }) => {
                assert_eq!(victim, t(1), "hot policy must pick the hottest waiter");
                m1.release_all(t(1));
            }
            other => panic!("expected t1 to be the victim, got {other:?}"),
        });
        wait_until(WAIT, || m.waiter_count(&hot) == 1);
        let m2 = Arc::clone(&m);
        let h2 = thread::spawn(move || m2.acquire(t(2), cold, X, LockRequestOptions::default()));
        h1.join().unwrap();
        assert!(h2.join().unwrap().is_ok());
        m.release_all(t(2));
        assert_eq!(m.table_size(), 0);
    }
}
