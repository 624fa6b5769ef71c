//! The store: relations of complex objects with referential integrity and a
//! multiversion read overlay.
//!
//! Every committed state of an object is kept as an entry of a per-object
//! **version chain**, stamped by a monotonic commit timestamp from the
//! store's [`CommitClock`]. The live map holds the current (possibly
//! uncommitted) state behind `Arc` copy-on-write: installing a version is an
//! `Arc` clone, and the first in-place mutation after it pays the deep copy.
//! Snapshot readers resolve "newest version ≤ ts" against the chains and
//! never consult the live map, so uncommitted in-place writes are invisible
//! to them by construction.

use crate::error::StorageError;
use crate::navigate;
use crate::Result;
use colock_core::TargetStep;
use colock_nf2::{Catalog, ObjectKey, ObjectRef, RelationSchema, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Poison-recovering latch acquisition: a reader/writer that panicked cannot
/// leave a relation permanently unusable — the data is guarded by the
/// transaction locks above, the latch only protects the map structure.
trait Latch<T> {
    fn read_latch(&self) -> RwLockReadGuard<'_, T>;
    fn write_latch(&self) -> RwLockWriteGuard<'_, T>;
}

impl<T> Latch<T> for RwLock<T> {
    fn read_latch(&self) -> RwLockReadGuard<'_, T> {
        self.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_latch(&self) -> RwLockWriteGuard<'_, T> {
        self.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One committed state: the commit timestamp and the object image as of that
/// commit (`None` = the object was deleted by that commit).
type ChainEntry = (u64, Option<Arc<Value>>);

#[derive(Debug, Default)]
struct RelationData {
    /// Live (current) states; shared with chain entries via `Arc`
    /// copy-on-write, so an unmodified install costs one refcount.
    objects: BTreeMap<ObjectKey, Arc<Value>>,
    /// Per-object version chains, ascending by commit timestamp. Every
    /// committed object has at least one entry (non-transactional mutators
    /// auto-commit one version); a key absent here is invisible to every
    /// snapshot.
    chains: BTreeMap<ObjectKey, Vec<ChainEntry>>,
}

/// Newest chain entry visible at snapshot `ts` (`None` if the object did not
/// exist — never committed before `ts`, or deleted by then).
fn visible(chain: &[ChainEntry], ts: u64) -> Option<&Arc<Value>> {
    chain.iter().rev().find(|(t, _)| *t <= ts).and_then(|(_, v)| v.as_ref())
}

/// The monotonic commit-timestamp counter (GTM-style) behind the
/// multiversion overlay.
///
/// `stable` is the newest timestamp whose commit is fully installed; readers
/// snapshot it without any lock. The `gate` mutex serializes commits so a
/// multi-object install publishes atomically: a snapshot taken at `stable`
/// can never observe half of a commit.
#[derive(Debug, Default)]
pub struct CommitClock {
    stable: AtomicU64,
    gate: Mutex<()>,
}

impl CommitClock {
    /// The newest fully-installed commit timestamp — the snapshot timestamp
    /// a read-only transaction takes at begin.
    pub fn stable(&self) -> u64 {
        self.stable.load(Ordering::Acquire)
    }

    /// Runs `f` with a fresh commit timestamp under the commit gate and
    /// publishes the timestamp as stable afterwards. `f` installs the
    /// commit's versions; until it returns, no reader can take a snapshot
    /// that covers the new timestamp.
    pub fn commit<R>(&self, f: impl FnOnce(u64) -> R) -> R {
        let _gate = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        let ts = self.stable.load(Ordering::Relaxed) + 1;
        let out = f(ts);
        self.stable.store(ts, Ordering::Release);
        out
    }
}

/// How a committing transaction's new version of one object is derived (see
/// [`Store::install_version`]).
#[derive(Debug, Clone)]
pub enum VersionPatch {
    /// The whole live object is the new version (the writer held a
    /// whole-object X lock, e.g. it inserted the object).
    Full,
    /// Compose the new version from the last committed image plus the listed
    /// subtrees copied from the live object — the paths this transaction
    /// held element X locks on. A raw live clone would leak the uncommitted
    /// writes of concurrent sibling-element writers into the chain.
    Paths(Vec<Vec<TargetStep>>),
    /// The object was deleted.
    Tombstone,
}

/// An O(1) versioned handle to one relation: a snapshot timestamp plus a
/// borrow of the store. Materialization ([`RelationSnapshot::objects`],
/// [`RelationSnapshot::get`]) resolves against the version chains at the
/// handle's timestamp, so later writes never show through.
#[derive(Debug, Clone, Copy)]
pub struct RelationSnapshot<'s> {
    store: &'s Store,
    relation: &'s str,
    ts: u64,
}

impl RelationSnapshot<'_> {
    /// Relation name.
    pub fn relation(&self) -> &str {
        self.relation
    }

    /// The snapshot timestamp.
    pub fn ts(&self) -> u64 {
        self.ts
    }

    /// `(key, value)` pairs visible at the snapshot, in key order.
    pub fn objects(&self) -> Vec<(ObjectKey, Value)> {
        let data = self.store.data(self.relation).expect("validated at snapshot()").read_latch();
        data.chains
            .iter()
            .filter_map(|(k, chain)| {
                visible(chain, self.ts).map(|v| (k.clone(), (**v).clone()))
            })
            .collect()
    }

    /// The value of one object at the snapshot, if visible.
    pub fn get(&self, key: &ObjectKey) -> Option<Value> {
        let data = self.store.data(self.relation).ok()?.read_latch();
        visible(data.chains.get(key)?, self.ts).map(|v| (**v).clone())
    }

    /// Keys visible at the snapshot, in order.
    pub fn keys(&self) -> Vec<ObjectKey> {
        let data = self.store.data(self.relation).expect("validated at snapshot()").read_latch();
        data.chains
            .iter()
            .filter(|(_, chain)| visible(chain, self.ts).is_some())
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Number of objects visible at the snapshot.
    pub fn len(&self) -> usize {
        let data = self.store.data(self.relation).expect("validated at snapshot()").read_latch();
        data.chains.values().filter(|chain| visible(chain, self.ts).is_some()).count()
    }

    /// Whether nothing is visible at the snapshot.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// `update_at` revisits the node `element_positions` resolved; a write below
/// a path leaves the path itself in place.
const RESOLVED: &str = "element_positions resolved this path";

/// The in-memory complex-object store.
///
/// Thread-safe: relations are guarded by per-relation read/write locks (the
/// *physical* latches of a storage engine — distinct from the transaction
/// locks of `colock-lockmgr`, which are the paper's subject).
///
/// ```
/// use colock_core::fixtures::fig1_catalog;
/// use colock_nf2::value::build::tup;
/// use colock_nf2::{ObjectKey, Value};
/// use colock_storage::Store;
/// use std::sync::Arc;
///
/// let store = Store::new(Arc::new(fig1_catalog()));
/// store.insert("effectors", tup(vec![
///     ("eff_id", Value::str("e1")),
///     ("tool", Value::str("gripper")),
/// ])).unwrap();
/// let v = store.get("effectors", &ObjectKey::from("e1")).unwrap();
/// assert_eq!(v.field("tool"), Some(&Value::str("gripper")));
/// // A reference to a missing object is rejected (referential integrity).
/// assert!(store.insert("effectors", tup(vec![
///     ("eff_id", Value::Int(3)), // wrong type, schema validation fires too
///     ("tool", Value::str("t")),
/// ])).is_err());
/// ```
#[derive(Debug)]
pub struct Store {
    catalog: Arc<Catalog>,
    relations: BTreeMap<String, RwLock<RelationData>>,
    clock: CommitClock,
    /// Objects visited by reverse-reference scans (cumulative, for E2).
    scan_visits: AtomicU64,
    /// Versions installed into chains (cumulative).
    versions_installed: AtomicU64,
    /// Chain entries dropped by [`Store::prune_versions`] (cumulative).
    versions_pruned: AtomicU64,
}

impl Store {
    /// Creates an empty store over a catalog.
    pub fn new(catalog: Arc<Catalog>) -> Self {
        let relations = catalog
            .schema()
            .relations
            .iter()
            .map(|r| (r.name.clone(), RwLock::new(RelationData::default())))
            .collect();
        Store {
            catalog,
            relations,
            clock: CommitClock::default(),
            scan_visits: AtomicU64::new(0),
            versions_installed: AtomicU64::new(0),
            versions_pruned: AtomicU64::new(0),
        }
    }

    /// The catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The commit-timestamp clock of the multiversion overlay.
    pub fn clock(&self) -> &CommitClock {
        &self.clock
    }

    fn schema_of(&self, relation: &str) -> Result<&RelationSchema> {
        self.catalog
            .schema()
            .relation(relation)
            .map_err(|_| StorageError::UnknownRelation(relation.to_string()))
    }

    fn data(&self, relation: &str) -> Result<&RwLock<RelationData>> {
        self.relations
            .get(relation)
            .ok_or_else(|| StorageError::UnknownRelation(relation.to_string()))
    }

    /// Inserts a complex object; validates the value against the schema and
    /// checks that every contained reference resolves. Returns the key.
    /// Auto-commits one version (the non-transactional entry point).
    pub fn insert(&self, relation: &str, value: Value) -> Result<ObjectKey> {
        self.clock.commit(|ts| self.insert_inner(relation, value, Some(ts)))
    }

    /// Transactional insert: identical checks, but no version is installed —
    /// the object stays invisible to snapshots until the owning transaction
    /// commits it via [`Store::install_version`].
    pub fn insert_pending(&self, relation: &str, value: Value) -> Result<ObjectKey> {
        self.insert_inner(relation, value, None)
    }

    fn insert_inner(&self, relation: &str, value: Value, version: Option<u64>) -> Result<ObjectKey> {
        let schema = self.schema_of(relation)?;
        let key = value.check_object(schema)?;
        self.check_refs_resolve(&value)?;
        let mut data = self.data(relation)?.write_latch();
        if data.objects.contains_key(&key) {
            return Err(StorageError::DuplicateObject {
                relation: relation.to_string(),
                key,
            });
        }
        let arc = Arc::new(value);
        if let Some(ts) = version {
            data.chains.entry(key.clone()).or_default().push((ts, Some(Arc::clone(&arc))));
            self.versions_installed.fetch_add(1, Ordering::Relaxed);
        }
        data.objects.insert(key.clone(), arc);
        Ok(key)
    }

    /// Reads a full object (cloned).
    pub fn get(&self, relation: &str, key: &ObjectKey) -> Result<Value> {
        let data = self.data(relation)?.read_latch();
        data.objects.get(key).map(|v| (**v).clone()).ok_or_else(|| StorageError::UnknownObject {
            relation: relation.to_string(),
            key: key.clone(),
        })
    }

    /// Runs `f` over an object without cloning it.
    pub fn with_object<T>(
        &self,
        relation: &str,
        key: &ObjectKey,
        f: impl FnOnce(&Value) -> T,
    ) -> Result<T> {
        let data = self.data(relation)?.read_latch();
        data.objects
            .get(key)
            .map(|v| f(v))
            .ok_or_else(|| StorageError::UnknownObject {
                relation: relation.to_string(),
                key: key.clone(),
            })
    }

    /// Reads the subvalue at `steps` within an object (cloned).
    pub fn get_at(&self, relation: &str, key: &ObjectKey, steps: &[TargetStep]) -> Result<Value> {
        let schema = self.schema_of(relation)?;
        self.with_object(relation, key, |v| {
            navigate::navigate(schema, v, steps).cloned().ok_or_else(|| {
                StorageError::BadTarget(format!("{relation}[{key}].{steps:?}"))
            })
        })?
    }

    /// Reads the subvalue at `steps` as of snapshot timestamp `ts` — against
    /// the version chains only, never the live map, so no lock or latch held
    /// by a writer is ever needed.
    pub fn get_at_snapshot(
        &self,
        relation: &str,
        key: &ObjectKey,
        steps: &[TargetStep],
        ts: u64,
    ) -> Result<Value> {
        let schema = self.schema_of(relation)?;
        let data = self.data(relation)?.read_latch();
        let img = data.chains.get(key).and_then(|chain| visible(chain, ts)).ok_or_else(|| {
            StorageError::UnknownObject { relation: relation.to_string(), key: key.clone() }
        })?;
        navigate::navigate(schema, img, steps)
            .cloned()
            .ok_or_else(|| StorageError::BadTarget(format!("{relation}[{key}].{steps:?}")))
    }

    /// Whether an object is visible at snapshot timestamp `ts`.
    pub fn contains_at(&self, relation: &str, key: &ObjectKey, ts: u64) -> bool {
        self.data(relation)
            .map(|d| {
                d.read_latch().chains.get(key).and_then(|c| visible(c, ts)).is_some()
            })
            .unwrap_or(false)
    }

    /// Keys visible at snapshot timestamp `ts`, in order.
    pub fn keys_at(&self, relation: &str, ts: u64) -> Result<Vec<ObjectKey>> {
        let data = self.data(relation)?.read_latch();
        Ok(data
            .chains
            .iter()
            .filter(|(_, c)| visible(c, ts).is_some())
            .map(|(k, _)| k.clone())
            .collect())
    }

    /// Replaces the whole object; returns the before-image. Auto-commits one
    /// version (the non-transactional entry point).
    pub fn update(&self, relation: &str, key: &ObjectKey, value: Value) -> Result<Value> {
        let schema = self.schema_of(relation)?;
        let new_key = value.check_object(schema)?;
        if &new_key != key {
            return Err(StorageError::BadTarget(format!(
                "update must preserve key ({key} -> {new_key})"
            )));
        }
        self.check_refs_resolve(&value)?;
        self.clock.commit(|ts| {
            let mut data = self.data(relation)?.write_latch();
            match data.objects.get_mut(key) {
                Some(slot) => {
                    let arc = Arc::new(value);
                    let before = std::mem::replace(slot, Arc::clone(&arc));
                    data.chains.entry(key.clone()).or_default().push((ts, Some(arc)));
                    self.versions_installed.fetch_add(1, Ordering::Relaxed);
                    Ok((*before).clone())
                }
                None => Err(StorageError::UnknownObject {
                    relation: relation.to_string(),
                    key: key.clone(),
                }),
            }
        })
    }

    /// Replaces the subvalue at `steps`; returns the before-image of the
    /// *replaced subvalue*. Undo granularity matches lock granularity: a
    /// rollback must restore only the subtree this update touched, or it
    /// would clobber concurrent (element-locked) sibling writes.
    /// Auto-commits one version (the non-transactional entry point).
    pub fn update_at(
        &self,
        relation: &str,
        key: &ObjectKey,
        steps: &[TargetStep],
        new_value: Value,
    ) -> Result<Value> {
        self.clock.commit(|ts| self.update_at_inner(relation, key, steps, new_value, Some(ts)))
    }

    /// Transactional sub-object update: identical semantics, but the result
    /// stays out of the version chains until the owning transaction commits
    /// it via [`Store::install_version`].
    pub fn update_at_pending(
        &self,
        relation: &str,
        key: &ObjectKey,
        steps: &[TargetStep],
        new_value: Value,
    ) -> Result<Value> {
        self.update_at_inner(relation, key, steps, new_value, None)
    }

    fn update_at_inner(
        &self,
        relation: &str,
        key: &ObjectKey,
        steps: &[TargetStep],
        new_value: Value,
        version: Option<u64>,
    ) -> Result<Value> {
        let schema = self.schema_of(relation)?;
        self.check_refs_resolve(&new_value)?;
        let mut data = self.data(relation)?.write_latch();
        let slot = data.objects.get_mut(key).ok_or_else(|| StorageError::UnknownObject {
            relation: relation.to_string(),
            key: key.clone(),
        })?;
        let positions = navigate::element_positions(schema, slot, steps).ok_or_else(|| {
            StorageError::BadTarget(format!("{relation}[{key}].{steps:?}"))
        })?;
        let obj = Arc::make_mut(slot);
        let subtree = navigate::at_positions_mut(obj, steps, &positions).expect(RESOLVED);
        let before = std::mem::replace(subtree, new_value);
        // Re-validate the whole object (type + key stability). A rejected
        // update puts the previous subvalue back: the transaction logs no
        // undo record for a failed write, so nothing else would repair it.
        let rejected = match obj.check_object(schema) {
            Ok(new_key) if &new_key == key => None,
            Ok(_) => Some(StorageError::BadTarget("update_at must not change the key".into())),
            Err(e) => Some(e.into()),
        };
        if let Some(e) = rejected {
            *navigate::at_positions_mut(obj, steps, &positions).expect(RESOLVED) = before;
            return Err(e);
        }
        if let Some(ts) = version {
            let arc = Arc::clone(slot);
            data.chains.entry(key.clone()).or_default().push((ts, Some(arc)));
            self.versions_installed.fetch_add(1, Ordering::Relaxed);
        }
        Ok(before)
    }

    /// Transactional element insert: appends `element` to the keyed set/list
    /// at `container` within `relation[key]` and returns the derived element
    /// key. No version is installed — the element stays invisible to
    /// snapshots until the owning transaction commits it via
    /// [`Store::install_version`] with the element's path in its patch.
    pub fn insert_element_pending(
        &self,
        relation: &str,
        key: &ObjectKey,
        container: &[TargetStep],
        element: Value,
    ) -> Result<ObjectKey> {
        let schema = self.schema_of(relation)?;
        self.check_refs_resolve(&element)?;
        let elem_ty = navigate::element_type(schema, container).ok_or_else(|| {
            StorageError::BadTarget(format!("{relation}[{key}].{container:?} is not a set/list"))
        })?;
        let elem_key = element.element_key(elem_ty).ok_or_else(|| {
            StorageError::BadTarget(format!(
                "element inserted at {relation}[{key}].{container:?} has no derivable key"
            ))
        })?;
        let mut data = self.data(relation)?.write_latch();
        let slot = data.objects.get_mut(key).ok_or_else(|| StorageError::UnknownObject {
            relation: relation.to_string(),
            key: key.clone(),
        })?;
        let obj = Arc::make_mut(slot);
        let cont = navigate::navigate_mut(schema, obj, container).ok_or_else(|| {
            StorageError::BadTarget(format!("{relation}[{key}].{container:?}"))
        })?;
        if navigate::find_element(cont, elem_ty, &elem_key).is_some() {
            return Err(StorageError::DuplicateObject {
                relation: format!("{relation}[{key}].{container:?}"),
                key: elem_key,
            });
        }
        cont.elements_mut()
            .expect("element_type proved this is a container")
            .push(element);
        // Re-validate the whole object (element type, set-key uniqueness).
        // A rejected element comes out again; the push left the container's
        // path in place.
        if let Err(e) = obj.check_object(schema) {
            navigate::navigate_mut(schema, obj, container)
                .and_then(Value::elements_mut)
                .and_then(Vec::pop);
            return Err(e.into());
        }
        Ok(elem_key)
    }

    /// Transactional element removal: removes the element with `elem_key`
    /// from the keyed set/list at `container` and returns its position and
    /// before-image. Snapshots keep seeing the element until a commit
    /// installs a version carrying the removal.
    pub fn remove_element_pending(
        &self,
        relation: &str,
        key: &ObjectKey,
        container: &[TargetStep],
        elem_key: &ObjectKey,
    ) -> Result<(usize, Value)> {
        let schema = self.schema_of(relation)?;
        let elem_ty = navigate::element_type(schema, container).ok_or_else(|| {
            StorageError::BadTarget(format!("{relation}[{key}].{container:?} is not a set/list"))
        })?;
        let mut data = self.data(relation)?.write_latch();
        let slot = data.objects.get_mut(key).ok_or_else(|| StorageError::UnknownObject {
            relation: relation.to_string(),
            key: key.clone(),
        })?;
        let obj = Arc::make_mut(slot);
        let cont = navigate::navigate_mut(schema, obj, container).ok_or_else(|| {
            StorageError::BadTarget(format!("{relation}[{key}].{container:?}"))
        })?;
        navigate::remove_element(cont, elem_ty, elem_key).ok_or_else(|| {
            StorageError::UnknownObject {
                relation: format!("{relation}[{key}].{container:?}"),
                key: elem_key.clone(),
            }
        })
    }

    /// Rollback inverse of the element ops: `Some((at, image))`
    /// re-establishes the element at its original position (undoing a
    /// removal), `None` drops it (undoing an insert). Like
    /// [`Store::restore`], no checks run and no version is installed — the
    /// image is a state the element already held.
    pub fn restore_element(
        &self,
        relation: &str,
        key: &ObjectKey,
        container: &[TargetStep],
        elem_key: &ObjectKey,
        image: Option<(usize, Value)>,
    ) -> Result<()> {
        let schema = self.schema_of(relation)?;
        let elem_ty = navigate::element_type(schema, container).ok_or_else(|| {
            StorageError::BadTarget(format!("{relation}[{key}].{container:?} is not a set/list"))
        })?;
        let mut data = self.data(relation)?.write_latch();
        let slot = data.objects.get_mut(key).ok_or_else(|| StorageError::UnknownObject {
            relation: relation.to_string(),
            key: key.clone(),
        })?;
        let obj = Arc::make_mut(slot);
        let cont = navigate::navigate_mut(schema, obj, container).ok_or_else(|| {
            StorageError::BadTarget(format!("{relation}[{key}].{container:?}"))
        })?;
        navigate::remove_element(cont, elem_ty, elem_key);
        if let Some((at, v)) = image {
            if let Some(es) = cont.elements_mut() {
                es.insert(at.min(es.len()), v);
            }
        }
        Ok(())
    }

    /// Writes a rollback image back at `steps` (the inverse of
    /// [`Store::update_at`]). Like [`Store::restore`], no referential checks
    /// are performed and no version is installed: the image is a state the
    /// object already held.
    pub fn restore_at(
        &self,
        relation: &str,
        key: &ObjectKey,
        steps: &[TargetStep],
        image: Value,
    ) -> Result<()> {
        let schema = self.schema_of(relation)?;
        let mut data = self.data(relation)?.write_latch();
        let slot = data.objects.get_mut(key).ok_or_else(|| StorageError::UnknownObject {
            relation: relation.to_string(),
            key: key.clone(),
        })?;
        let obj = Arc::make_mut(slot);
        let subtree = navigate::navigate_mut(schema, obj, steps).ok_or_else(|| {
            StorageError::BadTarget(format!("{relation}[{key}].{steps:?}"))
        })?;
        *subtree = image;
        Ok(())
    }

    /// Deletes an object; rejected while other objects still reference it
    /// (referential integrity). Returns the before-image. Auto-commits a
    /// tombstone version (the non-transactional entry point).
    pub fn delete(&self, relation: &str, key: &ObjectKey) -> Result<Value> {
        self.clock.commit(|ts| self.delete_inner(relation, key, Some(ts)))
    }

    /// Transactional delete: the object leaves the live map now, but stays
    /// visible to snapshots until the owning transaction commits a tombstone
    /// via [`Store::install_version`].
    pub fn delete_pending(&self, relation: &str, key: &ObjectKey) -> Result<Value> {
        self.delete_inner(relation, key, None)
    }

    fn delete_inner(&self, relation: &str, key: &ObjectKey, version: Option<u64>) -> Result<Value> {
        let referencers = self.count_referencers(relation, key)?;
        if referencers > 0 {
            return Err(StorageError::StillReferenced {
                relation: relation.to_string(),
                key: key.clone(),
                referencers,
            });
        }
        let mut data = self.data(relation)?.write_latch();
        let gone = data.objects.remove(key).ok_or_else(|| StorageError::UnknownObject {
            relation: relation.to_string(),
            key: key.clone(),
        })?;
        if let Some(ts) = version {
            data.chains.entry(key.clone()).or_default().push((ts, None));
            self.versions_installed.fetch_add(1, Ordering::Relaxed);
        }
        Ok((*gone).clone())
    }

    /// Restores an object to a previous image (transaction rollback); also
    /// used to undo a delete (re-insert) or an insert (remove, pass `None`).
    /// Never versions: rollback re-establishes a state the chains already
    /// end in.
    pub fn restore(&self, relation: &str, key: &ObjectKey, image: Option<Value>) -> Result<()> {
        let mut data = self.data(relation)?.write_latch();
        match image {
            Some(v) => {
                data.objects.insert(key.clone(), Arc::new(v));
            }
            None => {
                data.objects.remove(key);
            }
        }
        Ok(())
    }

    /// Installs one object's new committed version at timestamp `ts` — the
    /// commit step of a writing transaction, called under
    /// [`CommitClock::commit`] while the writer still holds its X locks.
    ///
    /// `Paths` composition exists because element X locks admit concurrent
    /// writers on *sibling* elements of the same object: the live object may
    /// carry their uncommitted data, so the new version is the last
    /// committed image plus only the committing transaction's own locked
    /// subtrees. If composition is impossible (no prior committed image, a
    /// path that no longer navigates), the whole live object is installed.
    pub fn install_version(
        &self,
        relation: &str,
        key: &ObjectKey,
        ts: u64,
        patch: &VersionPatch,
    ) -> Result<()> {
        let schema = self.schema_of(relation)?;
        let mut data = self.data(relation)?.write_latch();
        let data = &mut *data;
        let entry = match patch {
            VersionPatch::Tombstone => (ts, None),
            VersionPatch::Full => {
                let live = data.objects.get(key).ok_or_else(|| StorageError::UnknownObject {
                    relation: relation.to_string(),
                    key: key.clone(),
                })?;
                (ts, Some(Arc::clone(live)))
            }
            VersionPatch::Paths(paths) => {
                let live = data.objects.get(key).ok_or_else(|| StorageError::UnknownObject {
                    relation: relation.to_string(),
                    key: key.clone(),
                })?;
                let base = data.chains.get(key).and_then(|c| c.last()).and_then(|(_, v)| v.as_ref());
                match base {
                    None => (ts, Some(Arc::clone(live))),
                    Some(base) => {
                        let mut img = (**base).clone();
                        let composed =
                            paths.iter().all(|path| compose_path(schema, live, &mut img, path));
                        if composed {
                            (ts, Some(Arc::new(img)))
                        } else {
                            (ts, Some(Arc::clone(live)))
                        }
                    }
                }
            }
        };
        data.chains.entry(key.clone()).or_default().push(entry);
        self.versions_installed.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Drops chain entries no active snapshot can reach: per chain, every
    /// entry older than the newest entry ≤ `watermark` (the oldest active
    /// snapshot timestamp). A chain whose only remaining entry is a
    /// tombstone ≤ `watermark` is removed entirely. Returns the number of
    /// entries dropped.
    pub fn prune_versions(&self, watermark: u64) -> u64 {
        let mut pruned = 0u64;
        for lock in self.relations.values() {
            let mut data = lock.write_latch();
            data.chains.retain(|_, chain| {
                let keep_from = chain.iter().rposition(|(t, _)| *t <= watermark).unwrap_or(0);
                pruned += keep_from as u64;
                chain.drain(..keep_from);
                if chain.len() == 1 && chain[0].0 <= watermark && chain[0].1.is_none() {
                    pruned += 1;
                    return false;
                }
                true
            });
        }
        self.versions_pruned.fetch_add(pruned, Ordering::Relaxed);
        pruned
    }

    /// Total chain entries of one relation (GC observability).
    pub fn version_entries(&self, relation: &str) -> Result<usize> {
        Ok(self.data(relation)?.read_latch().chains.values().map(Vec::len).sum())
    }

    /// Versions installed into chains so far (cumulative).
    pub fn versions_installed(&self) -> u64 {
        self.versions_installed.load(Ordering::Relaxed)
    }

    /// Chain entries dropped by pruning so far (cumulative).
    pub fn versions_pruned(&self) -> u64 {
        self.versions_pruned.load(Ordering::Relaxed)
    }

    /// Keys of a relation, in order.
    pub fn keys(&self, relation: &str) -> Result<Vec<ObjectKey>> {
        Ok(self.data(relation)?.read_latch().objects.keys().cloned().collect())
    }

    /// Number of objects in a relation.
    pub fn len(&self, relation: &str) -> Result<usize> {
        Ok(self.data(relation)?.read_latch().objects.len())
    }

    /// Whether a relation is empty.
    pub fn is_empty(&self, relation: &str) -> Result<bool> {
        Ok(self.len(relation)? == 0)
    }

    /// Whether an object exists.
    pub fn contains(&self, relation: &str, key: &ObjectKey) -> bool {
        self.data(relation)
            .map(|d| d.read_latch().objects.contains_key(key))
            .unwrap_or(false)
    }

    /// An O(1) versioned snapshot handle of one relation, pinned at the
    /// current stable commit timestamp. Later writes never show through;
    /// materialization is deferred to the accessors.
    pub fn snapshot(&self, relation: &str) -> Result<RelationSnapshot<'_>> {
        let (name, _) = self
            .relations
            .get_key_value(relation)
            .ok_or_else(|| StorageError::UnknownRelation(relation.to_string()))?;
        Ok(RelationSnapshot { store: self, relation: name, ts: self.clock.stable() })
    }

    /// Objects visited by all reverse scans so far.
    pub fn scan_visits(&self) -> u64 {
        self.scan_visits.load(Ordering::Relaxed)
    }

    pub(crate) fn bump_scan_visits(&self, n: u64) {
        self.scan_visits.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts subobjects referencing `relation[key]` — a full scan over the
    /// relations whose schema can reference `relation`.
    pub fn count_referencers(&self, relation: &str, key: &ObjectKey) -> Result<usize> {
        let mut count = 0;
        for rel in &self.catalog.schema().relations {
            if !rel.direct_ref_targets().contains(&relation) {
                continue;
            }
            let data = self.data(&rel.name)?.read_latch();
            for obj in data.objects.values() {
                let mut refs = Vec::new();
                obj.collect_refs(&mut refs);
                count += refs
                    .iter()
                    .filter(|r| r.relation == relation && &r.key == key)
                    .count();
            }
        }
        Ok(count)
    }

    fn check_refs_resolve(&self, value: &Value) -> Result<()> {
        let mut refs: Vec<&ObjectRef> = Vec::new();
        value.collect_refs(&mut refs);
        for r in refs {
            let data = self.data(&r.relation)?;
            if !data.read_latch().objects.contains_key(&r.key) {
                return Err(StorageError::DanglingReference {
                    relation: r.relation.clone(),
                    key: r.key.clone(),
                });
            }
        }
        Ok(())
    }
}

/// Copies the subtree at `path` from `live` into `img`, element-aware: a
/// trailing elem step that navigates in `live` but not in `img` is an
/// element *insert* (appended to `img`'s container), one that navigates in
/// `img` but not in `live` is an element *removal*. Returns `false` when the
/// path cannot be composed (the caller falls back to the whole live object).
fn compose_path(
    schema: &RelationSchema,
    live: &Arc<Value>,
    img: &mut Value,
    path: &[TargetStep],
) -> bool {
    // The container path of a trailing elem step, plus its element type.
    let elem_context = || {
        let (last, prefix) = path.split_last()?;
        let elem_key = last.elem.clone()?;
        let mut cpath = prefix.to_vec();
        cpath.push(TargetStep::attr(last.attr.clone()));
        let elem_ty = navigate::element_type(schema, &cpath)?;
        Some((cpath, elem_ty, elem_key))
    };
    match navigate::navigate(schema, live, path) {
        Some(src) => {
            if let Some(dst) = navigate::navigate_mut(schema, img, path) {
                dst.clone_from(src);
                return true;
            }
            // In live but not in the committed base: an inserted element.
            let Some((cpath, elem_ty, elem_key)) = elem_context() else {
                return false;
            };
            let Some(es) = navigate::navigate_mut(schema, img, &cpath)
                .and_then(Value::elements_mut)
            else {
                return false;
            };
            es.retain(|e| !e.has_element_key(elem_ty, &elem_key));
            es.push(src.clone());
            true
        }
        None => {
            // Gone from live: a removed element (anything else can't compose).
            let Some((cpath, elem_ty, elem_key)) = elem_context() else {
                return false;
            };
            match navigate::navigate_mut(schema, img, &cpath).and_then(Value::elements_mut) {
                Some(es) => {
                    es.retain(|e| !e.has_element_key(elem_ty, &elem_key));
                    true
                }
                None => false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colock_core::fixtures::fig1_catalog;
    use colock_nf2::value::build::*;
    use colock_nf2::Nf2Error;

    fn store() -> Store {
        Store::new(Arc::new(fig1_catalog()))
    }

    fn effector(id: &str, tool: &str) -> Value {
        tup(vec![("eff_id", Value::str(id)), ("tool", Value::str(tool))])
    }

    fn cell(id: &str, robots: Vec<(&str, Vec<&str>)>) -> Value {
        tup(vec![
            ("cell_id", Value::str(id)),
            ("c_objects", set(vec![])),
            (
                "robots",
                list(
                    robots
                        .into_iter()
                        .map(|(rid, effs)| {
                            tup(vec![
                                ("robot_id", Value::str(rid)),
                                ("trajectory", Value::str(format!("t-{rid}"))),
                                (
                                    "effectors",
                                    set(effs
                                        .into_iter()
                                        .map(|e| Value::reference("effectors", e))
                                        .collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn insert_get_roundtrip() {
        let s = store();
        s.insert("effectors", effector("e1", "gripper")).unwrap();
        let v = s.get("effectors", &ObjectKey::from("e1")).unwrap();
        assert_eq!(v.field("tool"), Some(&Value::str("gripper")));
    }

    #[test]
    fn duplicate_insert_rejected() {
        let s = store();
        s.insert("effectors", effector("e1", "a")).unwrap();
        let err = s.insert("effectors", effector("e1", "b")).unwrap_err();
        assert!(matches!(err, StorageError::DuplicateObject { .. }));
    }

    #[test]
    fn dangling_reference_rejected() {
        let s = store();
        let err = s.insert("cells", cell("c1", vec![("r1", vec!["e1"])])).unwrap_err();
        assert!(matches!(err, StorageError::DanglingReference { .. }));
    }

    #[test]
    fn referenced_object_cannot_be_deleted() {
        let s = store();
        s.insert("effectors", effector("e1", "a")).unwrap();
        s.insert("cells", cell("c1", vec![("r1", vec!["e1"])])).unwrap();
        let err = s.delete("effectors", &ObjectKey::from("e1")).unwrap_err();
        assert!(matches!(err, StorageError::StillReferenced { referencers: 1, .. }));
        // Unreferenced objects delete fine.
        s.insert("effectors", effector("e2", "b")).unwrap();
        assert!(s.delete("effectors", &ObjectKey::from("e2")).is_ok());
    }

    #[test]
    fn update_at_returns_subvalue_before_image() {
        let s = store();
        s.insert("effectors", effector("e1", "a")).unwrap();
        s.insert("cells", cell("c1", vec![("r1", vec!["e1"])])).unwrap();
        let key = ObjectKey::from("c1");
        let before = s
            .update_at(
                "cells",
                &key,
                &[TargetStep::elem("robots", "r1"), TargetStep::attr("trajectory")],
                Value::str("t-new"),
            )
            .unwrap();
        // The before-image is the replaced subvalue itself (path-granular).
        assert_eq!(before, Value::str("t-r1"));
        // And restore_at is its inverse.
        s.restore_at(
            "cells",
            &key,
            &[TargetStep::elem("robots", "r1"), TargetStep::attr("trajectory")],
            before,
        )
        .unwrap();
        let restored = s
            .get_at("cells", &key, &[TargetStep::elem("robots", "r1"), TargetStep::attr("trajectory")])
            .unwrap();
        assert_eq!(restored, Value::str("t-r1"));
        s.update_at(
            "cells",
            &key,
            &[TargetStep::elem("robots", "r1"), TargetStep::attr("trajectory")],
            Value::str("t-new"),
        )
        .unwrap();
        let now = s
            .get_at("cells", &key, &[TargetStep::elem("robots", "r1"), TargetStep::attr("trajectory")])
            .unwrap();
        assert_eq!(now, Value::str("t-new"));
    }

    #[test]
    fn update_at_rejects_key_change() {
        let s = store();
        s.insert("effectors", effector("e1", "a")).unwrap();
        let err = s
            .update_at("effectors", &ObjectKey::from("e1"), &[TargetStep::attr("eff_id")], Value::str("e9"))
            .unwrap_err();
        assert!(matches!(err, StorageError::BadTarget(_)));
        // Object unchanged.
        let v = s.get("effectors", &ObjectKey::from("e1")).unwrap();
        assert_eq!(v.field("eff_id"), Some(&Value::str("e1")));
    }

    #[test]
    fn rejected_update_at_pending_leaves_the_object_intact() {
        let s = store();
        s.insert("effectors", effector("e1", "a")).unwrap();
        s.insert("cells", cell("c1", vec![("r1", vec!["e1"]), ("r2", vec![])])).unwrap();
        let key = ObjectKey::from("c1");
        let original = s.get("cells", &key).unwrap();
        let schema = s.catalog().schema().relation("cells").unwrap().clone();
        let trajectory = [TargetStep::elem("robots", "r2"), TargetStep::attr("trajectory")];
        // A type error deep inside the object.
        let err = s.update_at_pending("cells", &key, &trajectory, Value::Int(7)).unwrap_err();
        let type_mismatch = matches!(err, StorageError::Model(Nf2Error::TypeMismatch { .. }));
        assert!(type_mismatch, "{err:?}");
        // A replaced element whose own key field has the wrong type.
        let bad_robot = tup(vec![
            ("robot_id", Value::Int(2)),
            ("trajectory", Value::str("t")),
            ("effectors", set(vec![])),
        ]);
        let robot_r2 = [TargetStep::elem("robots", "r2")];
        assert!(s.update_at_pending("cells", &key, &robot_r2, bad_robot).is_err());
        // A write through the element's own key field.
        let robot_id = [TargetStep::elem("robots", "r2"), TargetStep::attr("robot_id")];
        assert!(s.update_at_pending("cells", &key, &robot_id, Value::Int(2)).is_err());
        // Neither rejected write shows: the object is unchanged and valid.
        let now = s.get("cells", &key).unwrap();
        assert_eq!(now, original);
        assert_eq!(now.check_object(&schema).unwrap(), key);
        assert_eq!(s.get_at("cells", &key, &trajectory).unwrap(), Value::str("t-r2"));
    }

    #[test]
    fn restore_rolls_back() {
        let s = store();
        s.insert("effectors", effector("e1", "a")).unwrap();
        let key = ObjectKey::from("e1");
        let before = s.update("effectors", &key, effector("e1", "b")).unwrap();
        s.restore("effectors", &key, Some(before)).unwrap();
        let v = s.get("effectors", &key).unwrap();
        assert_eq!(v.field("tool"), Some(&Value::str("a")));
        // Undo an insert.
        s.restore("effectors", &key, None).unwrap();
        assert!(!s.contains("effectors", &key));
    }

    #[test]
    fn keys_are_ordered() {
        let s = store();
        for e in ["e3", "e1", "e2"] {
            s.insert("effectors", effector(e, "t")).unwrap();
        }
        let keys: Vec<String> = s.keys("effectors").unwrap().iter().map(|k| k.to_string()).collect();
        assert_eq!(keys, vec!["e1", "e2", "e3"]);
        assert_eq!(s.len("effectors").unwrap(), 3);
    }

    #[test]
    fn unknown_relation_errors() {
        let s = store();
        assert!(matches!(s.keys("nope"), Err(StorageError::UnknownRelation(_))));
        assert!(s.get("nope", &ObjectKey::from("x")).is_err());
    }

    #[test]
    fn snapshot_is_deep() {
        let s = store();
        s.insert("effectors", effector("e1", "a")).unwrap();
        let snap = s.snapshot("effectors").unwrap();
        s.update("effectors", &ObjectKey::from("e1"), effector("e1", "b")).unwrap();
        assert_eq!(snap.objects()[0].1.field("tool"), Some(&Value::str("a")));
    }

    #[test]
    fn snapshot_handle_is_lazy_and_pinned() {
        let s = store();
        s.insert("effectors", effector("e1", "a")).unwrap();
        let snap = s.snapshot("effectors").unwrap();
        let ts = snap.ts();
        s.insert("effectors", effector("e2", "b")).unwrap();
        s.delete("effectors", &ObjectKey::from("e1")).unwrap();
        // The handle still sees exactly the state at its timestamp.
        assert_eq!(snap.keys().len(), 1);
        assert_eq!(snap.get(&ObjectKey::from("e1")).unwrap().field("tool"), Some(&Value::str("a")));
        assert!(snap.get(&ObjectKey::from("e2")).is_none());
        assert_eq!(snap.len(), 1);
        assert!(!snap.is_empty());
        // A fresh handle sees the new state.
        let now = s.snapshot("effectors").unwrap();
        assert!(now.ts() > ts);
        assert_eq!(now.keys(), vec![ObjectKey::from("e2")]);
    }

    #[test]
    fn pending_writes_are_invisible_to_snapshots() {
        let s = store();
        s.insert("effectors", effector("e1", "a")).unwrap();
        let ts = s.clock().stable();
        // Pending update: live changes, chains do not.
        s.update_at_pending("effectors", &ObjectKey::from("e1"), &[TargetStep::attr("tool")], Value::str("dirty"))
            .unwrap();
        let read = s
            .get_at_snapshot("effectors", &ObjectKey::from("e1"), &[TargetStep::attr("tool")], ts)
            .unwrap();
        assert_eq!(read, Value::str("a"));
        // Pending insert: invisible until installed.
        s.insert_pending("effectors", effector("e2", "b")).unwrap();
        assert!(!s.contains_at("effectors", &ObjectKey::from("e2"), s.clock().stable()));
        // Install both at one commit timestamp.
        s.clock().commit(|ts| {
            s.install_version("effectors", &ObjectKey::from("e1"), ts, &VersionPatch::Paths(vec![vec![
                TargetStep::attr("tool"),
            ]]))
            .unwrap();
            s.install_version("effectors", &ObjectKey::from("e2"), ts, &VersionPatch::Full).unwrap();
        });
        let now = s.clock().stable();
        assert_eq!(
            s.get_at_snapshot("effectors", &ObjectKey::from("e1"), &[TargetStep::attr("tool")], now)
                .unwrap(),
            Value::str("dirty")
        );
        assert!(s.contains_at("effectors", &ObjectKey::from("e2"), now));
        // The old snapshot still reads the old value.
        assert_eq!(
            s.get_at_snapshot("effectors", &ObjectKey::from("e1"), &[TargetStep::attr("tool")], ts)
                .unwrap(),
            Value::str("a")
        );
    }

    #[test]
    fn paths_patch_excludes_sibling_dirty_data() {
        let s = store();
        s.insert("effectors", effector("e1", "x")).unwrap();
        s.insert("effectors", effector("e2", "y")).unwrap();
        s.insert("cells", cell("c1", vec![("r1", vec!["e1"]), ("r2", vec!["e2"])])).unwrap();
        let key = ObjectKey::from("c1");
        let r1 = vec![TargetStep::elem("robots", "r1"), TargetStep::attr("trajectory")];
        let r2 = vec![TargetStep::elem("robots", "r2"), TargetStep::attr("trajectory")];
        // Two concurrent element writers: T1 updates r1, T2 updates r2.
        // Both are pending; T1 commits first.
        s.update_at_pending("cells", &key, &r1, Value::str("t1-traj")).unwrap();
        s.update_at_pending("cells", &key, &r2, Value::str("t2-dirty")).unwrap();
        s.clock().commit(|ts| {
            s.install_version("cells", &key, ts, &VersionPatch::Paths(vec![r1.clone()])).unwrap();
        });
        let now = s.clock().stable();
        // T1's commit carries its own subtree but NOT T2's uncommitted write.
        assert_eq!(s.get_at_snapshot("cells", &key, &r1, now).unwrap(), Value::str("t1-traj"));
        assert_eq!(s.get_at_snapshot("cells", &key, &r2, now).unwrap(), Value::str("t-r2"));
        // After T2 commits, its subtree is visible too.
        s.clock().commit(|ts| {
            s.install_version("cells", &key, ts, &VersionPatch::Paths(vec![r2.clone()])).unwrap();
        });
        let later = s.clock().stable();
        assert_eq!(s.get_at_snapshot("cells", &key, &r2, later).unwrap(), Value::str("t2-dirty"));
        assert_eq!(s.get_at_snapshot("cells", &key, &r1, later).unwrap(), Value::str("t1-traj"));
    }

    fn robot(id: &str) -> Value {
        tup(vec![
            ("robot_id", Value::str(id)),
            ("trajectory", Value::str(format!("t-{id}"))),
            ("effectors", set(vec![])),
        ])
    }

    #[test]
    fn element_insert_remove_restore_roundtrip() {
        let s = store();
        s.insert("cells", cell("c1", vec![("r1", vec![])])).unwrap();
        let key = ObjectKey::from("c1");
        let robots = [TargetStep::attr("robots")];
        // Insert derives the element key from the key attribute.
        let ek = s.insert_element_pending("cells", &key, &robots, robot("r2")).unwrap();
        assert_eq!(ek, ObjectKey::from("r2"));
        assert!(s
            .get_at("cells", &key, &[TargetStep::elem("robots", "r2")])
            .is_ok());
        // Same key again is a duplicate.
        assert!(matches!(
            s.insert_element_pending("cells", &key, &robots, robot("r2")),
            Err(StorageError::DuplicateObject { .. })
        ));
        // Removal returns the before-image; restore re-establishes it.
        let before = s.remove_element_pending("cells", &key, &robots, &ek).unwrap();
        assert!(s.get_at("cells", &key, &[TargetStep::elem("robots", "r2")]).is_err());
        s.restore_element("cells", &key, &robots, &ek, Some(before)).unwrap();
        assert!(s.get_at("cells", &key, &[TargetStep::elem("robots", "r2")]).is_ok());
        // Undo of an insert: restore with None.
        s.restore_element("cells", &key, &robots, &ek, None).unwrap();
        assert!(s.get_at("cells", &key, &[TargetStep::elem("robots", "r2")]).is_err());
    }

    #[test]
    fn element_insert_rejects_bad_targets() {
        let s = store();
        s.insert("cells", cell("c1", vec![("r1", vec![])])).unwrap();
        let key = ObjectKey::from("c1");
        // A scalar attribute is not a container.
        assert!(matches!(
            s.insert_element_pending("cells", &key, &[TargetStep::attr("cell_id")], robot("r2")),
            Err(StorageError::BadTarget(_))
        ));
        // A schema-typed element that fails validation is rolled back whole.
        let original = s.get("cells", &key).unwrap();
        let bad = tup(vec![("robot_id", Value::Int(9))]);
        assert!(s
            .insert_element_pending("cells", &key, &[TargetStep::attr("robots")], bad)
            .is_err());
        assert_eq!(s.get("cells", &key).unwrap(), original);
    }

    #[test]
    fn element_insert_composes_without_leaking_sibling_writes() {
        // The regression install_version's element-awareness exists for: a
        // committing element INSERT used to fall back to the whole live
        // clone, carrying a concurrent sibling writer's uncommitted update
        // into the committed chain.
        let s = store();
        s.insert("cells", cell("c1", vec![("r1", vec![])])).unwrap();
        let key = ObjectKey::from("c1");
        let robots = [TargetStep::attr("robots")];
        let r1_traj = vec![TargetStep::elem("robots", "r1"), TargetStep::attr("trajectory")];
        let r2_path = vec![TargetStep::elem("robots", "r2")];
        // T1 inserts element r2; T2 updates sibling r1 — both pending.
        s.insert_element_pending("cells", &key, &robots, robot("r2")).unwrap();
        s.update_at_pending("cells", &key, &r1_traj, Value::str("t2-dirty")).unwrap();
        // T1 commits alone.
        s.clock().commit(|ts| {
            s.install_version("cells", &key, ts, &VersionPatch::Paths(vec![r2_path.clone()]))
                .unwrap();
        });
        let now = s.clock().stable();
        // The insert is visible, the sibling's dirty write is not.
        assert!(s.get_at_snapshot("cells", &key, &r2_path, now).is_ok());
        assert_eq!(s.get_at_snapshot("cells", &key, &r1_traj, now).unwrap(), Value::str("t-r1"));
        // T2 commits; its update lands on top of the insert.
        s.clock().commit(|ts| {
            s.install_version("cells", &key, ts, &VersionPatch::Paths(vec![r1_traj.clone()]))
                .unwrap();
        });
        let later = s.clock().stable();
        assert_eq!(
            s.get_at_snapshot("cells", &key, &r1_traj, later).unwrap(),
            Value::str("t2-dirty")
        );
        assert!(s.get_at_snapshot("cells", &key, &r2_path, later).is_ok());
    }

    #[test]
    fn element_removal_composes_into_the_committed_image() {
        let s = store();
        s.insert("cells", cell("c1", vec![("r1", vec![]), ("r2", vec![])])).unwrap();
        let key = ObjectKey::from("c1");
        let robots = [TargetStep::attr("robots")];
        let r2_path = vec![TargetStep::elem("robots", "r2")];
        let before_ts = s.clock().stable();
        s.remove_element_pending("cells", &key, &robots, &ObjectKey::from("r2")).unwrap();
        // Visible to snapshots until the removal commits.
        assert!(s.get_at_snapshot("cells", &key, &r2_path, s.clock().stable()).is_ok());
        s.clock().commit(|ts| {
            s.install_version("cells", &key, ts, &VersionPatch::Paths(vec![r2_path.clone()]))
                .unwrap();
        });
        assert!(s.get_at_snapshot("cells", &key, &r2_path, s.clock().stable()).is_err());
        // Old snapshots still see it.
        assert!(s.get_at_snapshot("cells", &key, &r2_path, before_ts).is_ok());
    }

    #[test]
    fn tombstone_hides_object_from_later_snapshots() {
        let s = store();
        s.insert("effectors", effector("e1", "a")).unwrap();
        let before = s.clock().stable();
        s.delete_pending("effectors", &ObjectKey::from("e1")).unwrap();
        // Still visible to snapshots until the tombstone commits.
        assert!(s.contains_at("effectors", &ObjectKey::from("e1"), s.clock().stable()));
        s.clock().commit(|ts| {
            s.install_version("effectors", &ObjectKey::from("e1"), ts, &VersionPatch::Tombstone)
                .unwrap();
        });
        assert!(!s.contains_at("effectors", &ObjectKey::from("e1"), s.clock().stable()));
        assert!(s.contains_at("effectors", &ObjectKey::from("e1"), before));
        assert_eq!(s.keys_at("effectors", before).unwrap().len(), 1);
        assert!(s.keys_at("effectors", s.clock().stable()).unwrap().is_empty());
    }

    #[test]
    fn prune_keeps_watermark_visibility() {
        let s = store();
        s.insert("effectors", effector("e1", "v0")).unwrap();
        for i in 1..=5 {
            s.update("effectors", &ObjectKey::from("e1"), effector("e1", &format!("v{i}")))
                .unwrap();
        }
        assert_eq!(s.version_entries("effectors").unwrap(), 6);
        let watermark = 3; // an active snapshot at ts=3
        let pruned = s.prune_versions(watermark);
        assert_eq!(pruned, 2); // ts 1 and 2 dropped; 3,4,5,6 kept
        assert_eq!(s.version_entries("effectors").unwrap(), 4);
        // The watermark snapshot still reads its version.
        let v = s
            .get_at_snapshot("effectors", &ObjectKey::from("e1"), &[TargetStep::attr("tool")], watermark)
            .unwrap();
        assert_eq!(v, Value::str("v2"));
        assert_eq!(s.versions_pruned(), 2);
        assert!(s.versions_installed() >= 6);
    }

    #[test]
    fn prune_drops_dead_tombstone_chains() {
        let s = store();
        s.insert("effectors", effector("e1", "a")).unwrap();
        s.delete("effectors", &ObjectKey::from("e1")).unwrap();
        assert_eq!(s.version_entries("effectors").unwrap(), 2);
        // Watermark past the tombstone: the whole chain is unreachable.
        let pruned = s.prune_versions(s.clock().stable());
        assert_eq!(pruned, 2);
        assert_eq!(s.version_entries("effectors").unwrap(), 0);
    }
}
