//! Output checks, run after every timed phase and outside it. A failed
//! check fails the run.

use crate::world::{Shadow, World};
use colock_core::ResourcePath;
use colock_lockmgr::persistent::Journal;
use colock_nf2::Value;

/// Everything the checks look at, gathered once the phase has stopped.
#[derive(Debug, Clone)]
pub struct Observed {
    /// Transactions still registered with the manager.
    pub active_txns: usize,
    /// Grants still held in the lock table.
    pub grants: usize,
    /// The lock table's summary-word re-derivation.
    pub summary: Result<(), String>,
    /// Versions installed during the phase.
    pub versions_installed: u64,
    /// Writing transactions committed during the phase (each writes one
    /// object, so each installs exactly one version).
    pub writers_committed: u64,
    /// Written leaves read back by the final snapshot.
    pub leaves_checked: usize,
    /// Leaves whose final snapshot value is not the last committed write.
    pub stale_leaves: Vec<String>,
    /// Owners left live by a replay of the journal medium (0 without one).
    pub journal_live_owners: Result<usize, String>,
    /// Sessions the server had to close forcibly on drain (0 in process).
    pub stragglers: usize,
    /// Whether the library's event ring was on.
    pub trace_ring_on: bool,
}

/// Gathers the observations of a stopped phase.
pub fn observe(
    world: &World,
    shadow: &Shadow,
    versions_before: u64,
    writers_committed: u64,
    stragglers: usize,
) -> Observed {
    let mgr = &world.manager;
    let mut stale_leaves = Vec::new();
    let reader = mgr.begin_readonly();
    for (target, value) in shadow.entries() {
        match reader.snapshot_read(target) {
            Ok(Value::Str(s)) if &s == value => {}
            Ok(other) => stale_leaves.push(format!("{target}: want {value:?}, got {other}")),
            Err(e) => stale_leaves.push(format!("{target}: read failed: {e}")),
        }
    }
    if let Err(e) = reader.commit() {
        stale_leaves.push(format!("final snapshot commit failed: {e}"));
    }
    let journal_live_owners = match &world.journal {
        None => Ok(0),
        Some(j) => Journal::<ResourcePath>::replay(&j.contents())
            .map(|r| r.owners().len())
            .map_err(|e| e.to_string()),
    };
    let lm = mgr.lock_manager();
    Observed {
        active_txns: mgr.active_count(),
        grants: lm.grant_count(),
        summary: lm.check_summary_consistency(),
        versions_installed: mgr.store().versions_installed() - versions_before,
        writers_committed,
        leaves_checked: shadow.len(),
        stale_leaves,
        journal_live_owners,
        stragglers,
        trace_ring_on: colock_trace::is_enabled(),
    }
}

/// Every failed check, or `Ok` when all pass.
pub fn verify(o: &Observed) -> Result<(), Vec<String>> {
    let mut problems = Vec::new();
    if o.active_txns != 0 {
        problems.push(format!("{} transactions still active", o.active_txns));
    }
    if o.grants != 0 {
        problems.push(format!("{} lock grants still held", o.grants));
    }
    if let Err(e) = &o.summary {
        problems.push(format!("lock-table summary inconsistent: {e}"));
    }
    if o.versions_installed != o.writers_committed {
        problems.push(format!(
            "{} versions installed for {} committed writers",
            o.versions_installed, o.writers_committed
        ));
    }
    if o.writers_committed > 0 && o.leaves_checked == 0 {
        problems.push("writers committed but no written leaf was read back".into());
    }
    problems.extend(
        o.stale_leaves
            .iter()
            .take(5)
            .map(|s| format!("stale leaf {s}")),
    );
    match &o.journal_live_owners {
        Ok(0) => {}
        Ok(n) => problems.push(format!("journal replay leaves {n} live owners")),
        Err(e) => problems.push(format!("journal replay failed: {e}")),
    }
    if o.stragglers != 0 {
        problems.push(format!("server drain left {} stragglers", o.stragglers));
    }
    if o.trace_ring_on {
        problems.push("the trace event ring was on during a timed run".into());
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}
