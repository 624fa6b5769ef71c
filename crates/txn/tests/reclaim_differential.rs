//! Differential test of version reclamation: seeded random schedules of
//! concurrent writers and snapshot readers, run once with automatic
//! reclamation off (`set_gc_every(0)`), once with the default cadence and
//! once sweeping after every commit. Every snapshot read must match a model
//! of the committed states at the reader's timestamp, and the three runs
//! must read exactly the same values.
//!
//! Writers update sibling robot trajectories under element X locks, insert
//! and remove `c_objects` elements, and insert and delete whole cells.
//! Readers are `begin_readonly` transactions and `Store::snapshot` handles,
//! opened and closed at random points. Every writer uses the `Try` wait
//! policy, so a conflicting request fails at once and the single-threaded
//! schedule never blocks.

use colock_core::authorization::Authorization;
use colock_core::fixtures::fig1_catalog;
use colock_core::{InstanceTarget, TargetStep};
use colock_lockmgr::WaitPolicy;
use colock_nf2::value::build::{list, set, tup};
use colock_nf2::{ObjectKey, RelationSchema, Value};
use colock_storage::{RelationSnapshot, Store};
use colock_testkit::rng::Rng;
use colock_testkit::{ensure, ensure_eq, forall};
use colock_txn::{ProtocolKind, Transaction, TransactionManager, TxnKind};
use std::collections::BTreeMap;
use std::sync::Arc;

const CELLS: usize = 4;
const ROBOTS: usize = 3;
const OBJECTS: usize = 4;
const STEPS: usize = 400;

fn cell_key(c: usize) -> ObjectKey {
    ObjectKey::from(format!("c{c}"))
}

fn robot_key(r: usize) -> String {
    format!("r{r}")
}

fn c_object(o: usize, name: &str) -> Value {
    tup(vec![
        ("obj_id", Value::str(format!("o{o}"))),
        ("obj_name", Value::str(name)),
    ])
}

fn cell(c: usize) -> Value {
    tup(vec![
        ("cell_id", Value::str(format!("c{c}"))),
        ("c_objects", set(vec![c_object(0, "base")])),
        (
            "robots",
            list(
                (0..ROBOTS)
                    .map(|r| {
                        tup(vec![
                            ("robot_id", Value::str(robot_key(r))),
                            ("trajectory", Value::str("t0")),
                            ("effectors", set(vec![])),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Sets are unordered: a commit that re-inserts an element its own
/// transaction removed composes it at the old position, the model appends
/// it. Reads are compared with `c_objects` sorted.
fn canon(mut v: Value) -> Value {
    let objects = match v.field_mut("c_objects") {
        Some(objects) => objects,
        None => &mut v,
    };
    if let Some(es) = objects.elements_mut() {
        es.sort_by_key(|e| format!("{e:?}"));
    }
    v
}

/// One successful write, replayed into the model when its writer commits.
#[derive(Debug, Clone)]
enum Write {
    Trajectory(usize, usize, String),
    InsertObject(usize, Value),
    RemoveObject(usize, usize),
    InsertCell(usize),
    DeleteCell(usize),
}

type State = BTreeMap<ObjectKey, Value>;

fn object(state: &mut State, c: usize) -> &mut Value {
    state
        .get_mut(&cell_key(c))
        .expect("a committed write's cell exists")
}

fn apply(schema: &RelationSchema, state: &mut State, write: &Write) {
    match write {
        Write::Trajectory(c, r, v) => {
            let steps = [
                TargetStep::elem("robots", robot_key(*r)),
                TargetStep::attr("trajectory"),
            ];
            let obj = object(state, *c);
            *colock_storage::navigate::navigate_mut(schema, obj, &steps).expect("written") =
                Value::str(v.clone());
        }
        Write::InsertObject(c, e) => {
            object(state, *c)
                .field_mut("c_objects")
                .and_then(Value::elements_mut)
                .expect("set")
                .push(e.clone());
        }
        Write::RemoveObject(c, o) => {
            let id = Value::str(format!("o{o}"));
            let es = object(state, *c)
                .field_mut("c_objects")
                .and_then(Value::elements_mut)
                .expect("set");
            es.retain(|e| e.field("obj_id") != Some(&id));
        }
        Write::InsertCell(c) => {
            state.insert(cell_key(*c), cell(*c));
        }
        Write::DeleteCell(c) => {
            state.remove(&cell_key(*c));
        }
    }
}

/// The committed states, by commit timestamp.
struct Model {
    history: Vec<(u64, State)>,
}

impl Model {
    fn at(&self, ts: u64) -> &State {
        &self
            .history
            .iter()
            .rev()
            .find(|(t, _)| *t <= ts)
            .expect("setup state")
            .1
    }
}

/// What a reader asks for: a whole cell or one path inside it.
fn read_target(rng: &mut Rng) -> (usize, Vec<TargetStep>) {
    let c = rng.gen_range(0..CELLS);
    let steps = match rng.gen_range(0..3) {
        0 => vec![],
        1 => vec![TargetStep::attr("c_objects")],
        _ => vec![
            TargetStep::elem("robots", robot_key(rng.gen_range(0..ROBOTS))),
            TargetStep::attr("trajectory"),
        ],
    };
    (c, steps)
}

fn expected(
    schema: &RelationSchema,
    state: &State,
    c: usize,
    steps: &[TargetStep],
) -> Option<Value> {
    let obj = state.get(&cell_key(c))?;
    colock_storage::navigate::navigate(schema, obj, steps)
        .cloned()
        .map(canon)
}

struct Writer<'m> {
    txn: Transaction<'m>,
    writes: Vec<Write>,
}

/// Runs the schedule `seed` with automatic reclamation every `gc_every`
/// commits (`None` = the manager's default) and returns every read, each
/// already checked against the model.
fn run(seed: u64, gc_every: Option<u64>) -> Result<Vec<Option<Value>>, String> {
    let store = Arc::new(Store::new(Arc::new(fig1_catalog())));
    for c in 0..CELLS - 1 {
        store.insert("cells", cell(c)).map_err(|e| e.to_string())?;
    }
    let schema = store
        .catalog()
        .schema()
        .relation("cells")
        .expect("fig1")
        .clone();
    let mgr = TransactionManager::over_store(
        Arc::clone(&store),
        Authorization::allow_all(),
        ProtocolKind::Proposed,
    );
    if let Some(every) = gc_every {
        mgr.set_gc_every(every);
    }
    let mut model = Model {
        history: vec![(
            store.clock().stable(),
            store
                .snapshot("cells")
                .map_err(|e| e.to_string())?
                .objects()
                .into_iter()
                .collect(),
        )],
    };
    let mut rng = Rng::seed_from_u64(seed);
    let mut writers: Vec<Writer<'_>> = Vec::new();
    let mut readers: Vec<(Transaction<'_>, u64)> = Vec::new();
    let mut handles: Vec<RelationSnapshot<'_>> = Vec::new();
    let mut reads = Vec::new();
    let mut next_name = 0u64;

    for _ in 0..STEPS {
        match rng.gen_range(0..16) {
            0 | 1 if writers.len() < 3 => {
                let txn = mgr.begin(TxnKind::Short);
                txn.set_wait_policy(WaitPolicy::Try);
                writers.push(Writer {
                    txn,
                    writes: Vec::new(),
                });
            }
            2..=6 if !writers.is_empty() => {
                let i = rng.gen_range(0..writers.len());
                let w = &mut writers[i];
                let c = rng.gen_range(0..CELLS);
                let object = InstanceTarget::object("cells", cell_key(c));
                let (write, done) = match rng.gen_range(0..10) {
                    0..=4 => {
                        let r = rng.gen_range(0..ROBOTS);
                        next_name += 1;
                        let v = format!("t{next_name}");
                        let target = object
                            .clone()
                            .elem("robots", robot_key(r))
                            .attr("trajectory");
                        (
                            Write::Trajectory(c, r, v.clone()),
                            w.txn.update(&target, Value::str(v)).is_ok(),
                        )
                    }
                    5 | 6 => {
                        next_name += 1;
                        let e = c_object(rng.gen_range(0..OBJECTS), &format!("n{next_name}"));
                        let done = w
                            .txn
                            .insert_element(&object.clone().attr("c_objects"), e.clone())
                            .is_ok();
                        (Write::InsertObject(c, e), done)
                    }
                    7 | 8 => {
                        let o = rng.gen_range(0..OBJECTS);
                        let done = w
                            .txn
                            .delete_element(&object.clone().elem("c_objects", format!("o{o}")))
                            .is_ok();
                        (Write::RemoveObject(c, o), done)
                    }
                    _ if rng.gen_bool(0.5) => {
                        (Write::InsertCell(c), w.txn.insert("cells", cell(c)).is_ok())
                    }
                    _ => (
                        Write::DeleteCell(c),
                        w.txn.delete("cells", &cell_key(c)).is_ok(),
                    ),
                };
                if done {
                    w.writes.push(write);
                }
            }
            7 | 8 if !writers.is_empty() => {
                let w = writers.swap_remove(rng.gen_range(0..writers.len()));
                if rng.gen_bool(0.8) {
                    w.txn.commit().map_err(|e| e.to_string())?;
                    if !w.writes.is_empty() {
                        let mut state = model.at(u64::MAX).clone();
                        for write in &w.writes {
                            apply(&schema, &mut state, write);
                        }
                        model.history.push((store.clock().stable(), state));
                    }
                } else {
                    w.txn.abort().map_err(|e| e.to_string())?;
                }
            }
            9 => {
                let txn = mgr.begin_readonly();
                let ts = txn.snapshot_ts().expect("overlay on");
                readers.push((txn, ts));
            }
            10 => handles.push(store.snapshot("cells").map_err(|e| e.to_string())?),
            11 | 12 if !readers.is_empty() => {
                let (txn, ts) = &readers[rng.gen_range(0..readers.len())];
                let (c, steps) = read_target(&mut rng);
                let mut target = InstanceTarget::object("cells", cell_key(c));
                target.steps = steps.clone();
                let got = txn.snapshot_read(&target).ok().map(canon);
                let want = expected(&schema, model.at(*ts), c, &steps);
                ensure!(
                    got == want,
                    "reader at ts {ts} read {target} as {got:?}, committed {want:?}"
                );
                reads.push(got);
            }
            13 if !handles.is_empty() => {
                let handle = &handles[rng.gen_range(0..handles.len())];
                let c = rng.gen_range(0..CELLS);
                let got = handle.get(&cell_key(c)).map(canon);
                let state = model.at(handle.ts());
                let want = expected(&schema, state, c, &[]);
                ensure!(
                    got == want,
                    "handle at ts {} read c{c} as {got:?}, committed {want:?}",
                    handle.ts()
                );
                ensure_eq!(handle.keys(), state.keys().cloned().collect::<Vec<_>>());
                reads.push(got);
            }
            14 if !readers.is_empty() => {
                let (txn, _) = readers.swap_remove(rng.gen_range(0..readers.len()));
                txn.commit().map_err(|e| e.to_string())?;
            }
            15 if !handles.is_empty() => drop(handles.swap_remove(rng.gen_range(0..handles.len()))),
            _ => {}
        }
    }
    for (txn, ts) in readers {
        for c in 0..CELLS {
            let got = txn
                .snapshot_read(&InstanceTarget::object("cells", cell_key(c)))
                .ok()
                .map(canon);
            let want = expected(&schema, model.at(ts), c, &[]);
            ensure!(
                got == want,
                "reader at ts {ts} read c{c} as {got:?}, committed {want:?}"
            );
            reads.push(got);
        }
        txn.commit().map_err(|e| e.to_string())?;
    }
    drop(handles);
    for w in writers {
        w.txn.abort().map_err(|e| e.to_string())?;
    }
    // With every reader gone, one full sweep leaves one entry per live cell.
    mgr.gc_versions();
    ensure_eq!(
        store.version_entries("cells").map_err(|e| e.to_string())?,
        model.at(u64::MAX).len()
    );
    Ok(reads)
}

#[test]
fn reclamation_never_changes_what_a_snapshot_reads() {
    forall!(
        cases: 32,
        |rng| rng.next_u64(),
        |seed: &u64| {
            let off = run(*seed, Some(0))?;
            ensure_eq!(run(*seed, None)?, off);
            ensure_eq!(run(*seed, Some(1))?, off);
            Ok(())
        }
    );
}
