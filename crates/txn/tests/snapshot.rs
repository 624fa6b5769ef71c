//! Multiversion-overlay semantics: snapshot readers see a stable committed
//! state, never block behind long X check-outs, never acquire locks, and
//! version GC respects the low watermark.

use colock_core::authorization::Authorization;
use colock_core::fixtures::fig1_catalog;
use colock_core::{AccessMode, InstanceTarget};
use colock_nf2::value::build::{list, set, tup};
use colock_nf2::{ObjectKey, Value};
use colock_storage::Store;
use colock_txn::{ProtocolKind, TransactionManager, TxnError, TxnKind};
use std::sync::Arc;

fn populated_store() -> Arc<Store> {
    let store = Arc::new(Store::new(Arc::new(fig1_catalog())));
    for (e, t) in [("e1", "grip"), ("e2", "weld")] {
        store
            .insert("effectors", tup(vec![("eff_id", Value::str(e)), ("tool", Value::str(t))]))
            .unwrap();
    }
    store
        .insert(
            "cells",
            tup(vec![
                ("cell_id", Value::str("c1")),
                ("c_objects", set(vec![])),
                (
                    "robots",
                    list(vec![
                        tup(vec![
                            ("robot_id", Value::str("r1")),
                            ("trajectory", Value::str("t1")),
                            ("effectors", set(vec![Value::reference("effectors", "e1")])),
                        ]),
                        tup(vec![
                            ("robot_id", Value::str("r2")),
                            ("trajectory", Value::str("t2")),
                            ("effectors", set(vec![Value::reference("effectors", "e2")])),
                        ]),
                    ]),
                ),
            ]),
        )
        .unwrap();
    store
}

fn manager() -> TransactionManager {
    TransactionManager::over_store(populated_store(), Authorization::allow_all(), ProtocolKind::Proposed)
}

fn trajectory(r: &str) -> InstanceTarget {
    InstanceTarget::object("cells", "c1").elem("robots", r).attr("trajectory")
}

#[test]
fn snapshot_reader_sees_state_as_of_begin() {
    let mgr = manager();
    let reader = mgr.begin_readonly();
    assert!(reader.snapshot_ts().is_some());
    // A writer commits after the reader began.
    let w = mgr.begin(TxnKind::Short);
    w.update(&trajectory("r1"), Value::str("t1-new")).unwrap();
    w.commit().unwrap();
    // Repeatable read: old value, before and after the writer's commit.
    assert_eq!(reader.snapshot_read(&trajectory("r1")).unwrap(), Value::str("t1"));
    assert_eq!(reader.read(&trajectory("r1")).unwrap(), Value::str("t1"));
    reader.commit().unwrap();
    // A reader begun after the commit sees the new value.
    let later = mgr.begin_readonly();
    assert_eq!(later.snapshot_read(&trajectory("r1")).unwrap(), Value::str("t1-new"));
    later.commit().unwrap();
}

#[test]
fn uncommitted_writes_are_invisible_to_snapshots() {
    let mgr = manager();
    let w = mgr.begin(TxnKind::Short);
    w.update(&trajectory("r1"), Value::str("dirty")).unwrap();
    // A reader begun while the write is in flight never sees it...
    let reader = mgr.begin_readonly();
    assert_eq!(reader.snapshot_read(&trajectory("r1")).unwrap(), Value::str("t1"));
    w.abort().unwrap();
    // ...and certainly not after the abort.
    assert_eq!(reader.snapshot_read(&trajectory("r1")).unwrap(), Value::str("t1"));
    reader.commit().unwrap();
}

#[test]
fn snapshot_reader_never_blocks_behind_long_x_checkout() {
    let mgr = manager();
    let designer = mgr.begin(TxnKind::Long);
    designer.checkout(&InstanceTarget::object("cells", "c1"), AccessMode::Update).unwrap();
    // The whole cell is under a long X lock; a locking reader would wait for
    // the entire workstation session. The snapshot reader returns instantly.
    let reader = mgr.begin_readonly();
    assert_eq!(reader.try_snapshot_read(&trajectory("r1")).unwrap(), Value::str("t1"));
    assert_eq!(reader.snapshot_read(&trajectory("r2")).unwrap(), Value::str("t2"));
    reader.commit().unwrap();
    // The ablation baseline does block.
    mgr.set_mvcc(false);
    let blocked = mgr.begin_readonly();
    assert!(blocked.snapshot_ts().is_none());
    let err = blocked.try_snapshot_read(&trajectory("r1")).unwrap_err();
    assert!(err.is_would_block(), "{err}");
    blocked.abort().unwrap();
    designer.abort().unwrap();
}

#[test]
fn snapshot_reads_acquire_zero_locks_and_are_counted() {
    let mgr = manager();
    let before = mgr.lock_manager().stats().snapshot();
    let reader = mgr.begin_readonly();
    reader.snapshot_read(&trajectory("r1")).unwrap();
    reader.snapshot_read(&trajectory("r2")).unwrap();
    reader.commit().unwrap();
    let after = mgr.lock_manager().stats().snapshot().since(&before);
    assert_eq!(after.requests, 0, "snapshot reads must not touch the lock table");
    assert_eq!(after.reads_elided, 2);
}

#[test]
fn writes_and_locks_on_snapshot_txn_are_typed_errors() {
    let mgr = manager();
    let reader = mgr.begin_readonly();
    let id = reader.id();
    for err in [
        reader.update(&trajectory("r1"), Value::str("x")).unwrap_err(),
        reader.insert("effectors", tup(vec![])).unwrap_err(),
        reader.delete("effectors", &ObjectKey::from("e1")).unwrap_err(),
        reader.checkout(&InstanceTarget::object("cells", "c1"), AccessMode::Update).unwrap_err(),
        reader.lock(&trajectory("r1"), AccessMode::Read).unwrap_err(),
        reader.try_lock(&trajectory("r1"), AccessMode::Read).unwrap_err(),
    ] {
        assert_eq!(err, TxnError::ReadOnlyTxn(id), "{err}");
    }
    reader.commit().unwrap();
    // The non-MVCC fallback reader may lock (it has to), but still not write.
    mgr.set_mvcc(false);
    let fallback = mgr.begin_readonly();
    assert!(fallback.lock(&trajectory("r1"), AccessMode::Read).is_ok());
    assert!(matches!(
        fallback.update(&trajectory("r1"), Value::str("x")),
        Err(TxnError::ReadOnlyTxn(_))
    ));
    fallback.commit().unwrap();
}

#[test]
fn gc_respects_active_snapshot_watermark() {
    let mgr = manager();
    mgr.set_gc_every(0); // manual GC only
    let reader = mgr.begin_readonly();
    let pinned = reader.snapshot_ts().unwrap();
    for i in 0..8 {
        let w = mgr.begin(TxnKind::Short);
        w.update(&trajectory("r1"), Value::str(format!("v{i}"))).unwrap();
        w.commit().unwrap();
    }
    assert_eq!(mgr.low_watermark(), pinned);
    mgr.gc_versions();
    // The pinned snapshot still reads its version after pruning.
    assert_eq!(reader.snapshot_read(&trajectory("r1")).unwrap(), Value::str("t1"));
    reader.commit().unwrap();
    // With no reader active the watermark jumps to stable and the chains
    // collapse to the newest entries.
    let entries_before = mgr.store().version_entries("cells").unwrap();
    let pruned = mgr.gc_versions();
    assert!(pruned > 0, "had {entries_before} entries");
    let last = mgr.begin_readonly();
    assert_eq!(last.snapshot_read(&trajectory("r1")).unwrap(), Value::str("v7"));
    last.commit().unwrap();
}

#[test]
fn automatic_gc_bounds_chain_growth() {
    let mgr = manager();
    mgr.set_gc_every(4);
    for i in 0..32 {
        let w = mgr.begin(TxnKind::Short);
        w.update(&trajectory("r2"), Value::str(format!("v{i}"))).unwrap();
        w.commit().unwrap();
    }
    // 32 versions were installed but the cadence GC kept the chain short.
    assert!(mgr.store().versions_pruned() > 0);
    assert!(mgr.store().version_entries("cells").unwrap() <= 4);
}

#[test]
fn multi_object_commit_is_atomic_to_readers() {
    let mgr = manager();
    let w = mgr.begin(TxnKind::Short);
    w.update(&trajectory("r1"), Value::str("both")).unwrap();
    w.update(&trajectory("r2"), Value::str("both")).unwrap();
    w.commit().unwrap();
    let reader = mgr.begin_readonly();
    let a = reader.snapshot_read(&trajectory("r1")).unwrap();
    let b = reader.snapshot_read(&trajectory("r2")).unwrap();
    assert_eq!(a, b, "a snapshot must see all of a commit or none of it");
    reader.commit().unwrap();
}

#[test]
fn snapshot_sees_committed_inserts_and_deletes_consistently() {
    let mgr = manager();
    let w = mgr.begin(TxnKind::Short);
    let key = w
        .insert("effectors", tup(vec![("eff_id", Value::str("e9")), ("tool", Value::str("saw"))]))
        .unwrap();
    // Invisible to snapshots while pending.
    let during = mgr.begin_readonly();
    assert!(during
        .snapshot_read(&InstanceTarget::object("effectors", key.clone()))
        .is_err());
    during.commit().unwrap();
    w.commit().unwrap();
    // Visible after commit; a pre-delete snapshot survives the delete.
    let pre_delete = mgr.begin_readonly();
    assert!(pre_delete.snapshot_read(&InstanceTarget::object("effectors", key.clone())).is_ok());
    let d = mgr.begin(TxnKind::Short);
    d.delete("effectors", &key).unwrap();
    d.commit().unwrap();
    assert!(pre_delete.snapshot_read(&InstanceTarget::object("effectors", key.clone())).is_ok());
    pre_delete.commit().unwrap();
    let post_delete = mgr.begin_readonly();
    assert!(post_delete.snapshot_read(&InstanceTarget::object("effectors", key)).is_err());
    post_delete.commit().unwrap();
}

#[test]
fn store_snapshot_handle_pins_its_versions_against_reclamation() {
    let mgr = manager();
    mgr.set_gc_every(64);
    let store = Arc::clone(mgr.store());
    let key = ObjectKey::from("c1");
    let handle = store.snapshot("cells").unwrap();
    let before = handle.get(&key).expect("committed at setup");
    assert_eq!(mgr.low_watermark(), handle.ts());
    // Enough transactional commits on the object for in-place reuse and a
    // backlog sweep; neither may take the version the handle sees.
    for i in 0..64 {
        let w = mgr.begin(TxnKind::Short);
        w.update(&trajectory("r1"), Value::str(format!("v{i}"))).unwrap();
        w.commit().unwrap();
    }
    assert_eq!(handle.get(&key), Some(before));
    assert_eq!(handle.keys().len(), 1);
    // Dropping the handle unpins it: the next sweep collapses the chain.
    drop(handle);
    assert_eq!(mgr.low_watermark(), store.clock().stable());
    mgr.gc_versions();
    assert_eq!(store.version_entries("cells").unwrap(), 1);
}

#[test]
fn snapshot_reads_stay_repeatable_under_reclaiming_writers() {
    let mgr = manager();
    mgr.set_gc_every(4);
    let done = std::sync::atomic::AtomicBool::new(false);
    let version = |v: &Value| match v {
        Value::Str(s) => s.trim_start_matches('v').parse::<u64>().unwrap_or(0),
        other => panic!("trajectory is a string, got {other:?}"),
    };
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 1..=1500u64 {
                let w = mgr.begin(TxnKind::Short);
                w.update(&trajectory("r1"), Value::str(format!("v{i}"))).unwrap();
                w.commit().unwrap();
            }
            done.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        // Each snapshot must keep reading the value it first saw while the
        // writer's installs recompose and prune around it, and successive
        // snapshots never go back in time.
        let mut last = 0;
        while !done.load(std::sync::atomic::Ordering::Relaxed) {
            let reader = mgr.begin_readonly();
            let first = reader.snapshot_read(&trajectory("r1")).unwrap();
            let handle = mgr.store().snapshot("cells").unwrap();
            let cell = handle.get(&ObjectKey::from("c1")).unwrap();
            std::thread::yield_now();
            assert_eq!(reader.snapshot_read(&trajectory("r1")).unwrap(), first);
            assert_eq!(handle.get(&ObjectKey::from("c1")).unwrap(), cell);
            assert!(version(&first) >= last, "snapshot went back in time");
            last = version(&first);
            reader.commit().unwrap();
        }
    });
}
