//! The benchmark's data: workload shapes, the Fig. 1 cells store and its
//! manager, the seeded transaction stream, and the write shadow the final
//! correctness check compares against.

use colock_core::authorization::{Authorization, Right};
use colock_core::ResourcePath;
use colock_core::{InstanceTarget, TargetStep};
use colock_lockmgr::persistent::Journal;
use colock_nf2::{ObjectKey, Value};
use colock_sim::{build_cells_store, CellsConfig};
use colock_testkit::Rng;
use colock_txn::{ProtocolKind, TransactionManager};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Client threads per workload (the host has two cores).
pub const THREADS: usize = 2;

/// Robots per cell (the `colock-sim` default).
const ROBOTS: usize = 4;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Loopback TCP server, 64 cells × 8 `c_objects`, 50/30/20 mix.
    ServedMix,
    /// Direct calls, 4096 cells × 4 `c_objects`, mostly short read-modify-write.
    InprocRmw,
    /// Direct calls, 16 cells × 128 `c_objects`, whole-cell check-outs.
    InprocCheckout,
}

impl Workload {
    /// All workloads, in benchmark order.
    pub const ALL: [Workload; 3] = [
        Workload::ServedMix,
        Workload::InprocRmw,
        Workload::InprocCheckout,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServedMix => "served_mix",
            Workload::InprocRmw => "inproc_rmw",
            Workload::InprocCheckout => "inproc_checkout",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether transactions go through the TCP server.
    pub fn served(self) -> bool {
        self == Workload::ServedMix
    }

    /// Committed transactions at which `peak_rss_mb` is read: near the
    /// middle of a 40 s run of this workload at the lowest throughput seen
    /// on a 2-vCPU host, so that a build twice as slow still reaches it
    /// inside the measured window.
    pub fn rss_at(self) -> u64 {
        match self {
            Workload::ServedMix | Workload::InprocRmw => 100_000,
            Workload::InprocCheckout => 40_000,
        }
    }

    /// Set-ups timed per untraced run: a few seconds' worth of
    /// `inproc_rmw`'s large store, more of the quick ones.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::ServedMix | Workload::InprocCheckout => 21,
            Workload::InprocRmw => 15,
        }
    }

    /// The full-size shape.
    pub fn shape(self) -> Shape {
        match self {
            Workload::ServedMix => Shape {
                cells: 64,
                c_objects: 8,
                effectors: 8,
                journal: true,
                mix: [50, 30, 20],
            },
            Workload::InprocRmw => Shape {
                cells: 4096,
                c_objects: 4,
                effectors: 8,
                journal: false,
                mix: [90, 5, 5],
            },
            Workload::InprocCheckout => Shape {
                cells: 16,
                c_objects: 128,
                effectors: 16,
                journal: true,
                mix: [0, 60, 40],
            },
        }
    }
}

/// Store size and transaction mix of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Cells in the store.
    pub cells: usize,
    /// `c_objects` per cell (even: the two threads split them).
    pub c_objects: usize,
    /// Entries of the shared effectors library.
    pub effectors: usize,
    /// Whether a long-lock journal is attached.
    pub journal: bool,
    /// Percent of short read-modify-write, snapshot-read and check-out
    /// transactions.
    pub mix: [u32; 3],
}

/// Transaction type, for per-type latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Short read-modify-write.
    Rmw,
    /// Read-only snapshot read.
    Snap,
    /// Long check-out + check-in.
    Checkout,
}

impl Kind {
    /// All kinds, in metric order.
    pub const ALL: [Kind; 3] = [Kind::Rmw, Kind::Snap, Kind::Checkout];

    /// Metric-name prefix.
    pub fn prefix(self) -> &'static str {
        match self {
            Kind::Rmw => "rmw",
            Kind::Snap => "snap",
            Kind::Checkout => "checkout",
        }
    }
}

/// One string leaf and the value a transaction writes into it.
#[derive(Debug, Clone)]
pub struct Leaf {
    /// The leaf (a robot trajectory or a `c_object` name).
    pub target: InstanceTarget,
    /// The new value.
    pub value: String,
}

/// One generated transaction.
#[derive(Debug, Clone)]
pub enum TxnSpec {
    /// Read every leaf, then update every leaf, then commit.
    Rmw {
        /// The leaves, in access order.
        leaves: Vec<Leaf>,
    },
    /// Read one target at a snapshot.
    Snap {
        /// The target.
        target: InstanceTarget,
    },
    /// Check `target` out for update, change one leaf of the copy, check it
    /// back in, commit.
    Checkout {
        /// The checked-out subobject.
        target: InstanceTarget,
        /// The leaf inside it that changes.
        edit: Leaf,
    },
}

impl TxnSpec {
    /// The transaction type.
    pub fn kind(&self) -> Kind {
        match self {
            TxnSpec::Rmw { .. } => Kind::Rmw,
            TxnSpec::Snap { .. } => Kind::Snap,
            TxnSpec::Checkout { .. } => Kind::Checkout,
        }
    }

    /// The first target the transaction touches.
    pub fn target(&self) -> &InstanceTarget {
        match self {
            TxnSpec::Rmw { leaves } => &leaves[0].target,
            TxnSpec::Snap { target } | TxnSpec::Checkout { target, .. } => target,
        }
    }

    /// The leaves this transaction writes.
    pub fn writes(&self) -> Vec<&Leaf> {
        match self {
            TxnSpec::Rmw { leaves } => leaves.iter().collect(),
            TxnSpec::Snap { .. } => Vec::new(),
            TxnSpec::Checkout { edit, .. } => vec![edit],
        }
    }
}

fn cell_key(cell: usize) -> ObjectKey {
    CellsConfig::cell_key(cell)
}

/// The whole cell.
pub fn cell(cell: usize) -> InstanceTarget {
    InstanceTarget::object("cells", cell_key(cell))
}

/// One robot of a cell.
pub fn robot(c: usize, r: usize) -> InstanceTarget {
    cell(c).elem("robots", CellsConfig::robot_key(r))
}

/// A robot's trajectory.
pub fn trajectory(c: usize, r: usize) -> InstanceTarget {
    robot(c, r).attr("trajectory")
}

/// One `c_object` of a cell.
pub fn c_object(c: usize, o: usize) -> InstanceTarget {
    let key = format!("{}-o{o}", cell_key(c));
    cell(c).elem("c_objects", ObjectKey::Str(key))
}

/// A `c_object`'s name.
pub fn c_object_name(c: usize, o: usize) -> InstanceTarget {
    c_object(c, o).attr("obj_name")
}

/// Seeded per-thread transaction generator. Writers are partitioned: thread
/// `t` writes only robots and `c_objects` whose index has parity `t`, so
/// two writers never want the same leaf (no S→X conversion deadlock), while
/// both still share every cell, the intent chains above it and — in
/// `inproc_checkout` — the whole-cell X locks.
pub struct Generator {
    workload: Workload,
    shape: Shape,
    thread: usize,
    rng: Rng,
    seq: u64,
}

impl Generator {
    /// A generator for one client thread.
    pub fn new(workload: Workload, shape: Shape, seed: u64, thread: usize) -> Generator {
        let mixed = seed ^ (thread as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Generator {
            workload,
            shape,
            thread,
            rng: Rng::seed_from_u64(mixed),
            seq: 0,
        }
    }

    fn own(&mut self, n: usize) -> usize {
        2 * self.rng.gen_range(0..n / THREADS) + self.thread
    }

    fn leaf(&mut self, target: InstanceTarget) -> Leaf {
        self.seq += 1;
        Leaf {
            target,
            value: format!("w{}.{}", self.thread, self.seq),
        }
    }

    /// The next transaction.
    pub fn next_spec(&mut self) -> TxnSpec {
        let c = self.rng.gen_range(0..self.shape.cells);
        let draw = self.rng.gen_range(0..100u32);
        let [rmw, snap, _] = self.shape.mix;
        let kind = if draw < rmw {
            Kind::Rmw
        } else if draw < rmw + snap {
            Kind::Snap
        } else {
            Kind::Checkout
        };
        let n_obj = self.shape.c_objects;
        match (self.workload, kind) {
            (Workload::ServedMix, Kind::Rmw) => {
                let r = self.own(ROBOTS);
                TxnSpec::Rmw {
                    leaves: vec![self.leaf(trajectory(c, r))],
                }
            }
            (Workload::ServedMix, Kind::Snap) => TxnSpec::Snap {
                target: trajectory(c, self.rng.gen_range(0..ROBOTS)),
            },
            (Workload::InprocRmw, Kind::Rmw) => {
                let (r, o) = (self.own(ROBOTS), self.own(n_obj));
                let leaves = vec![self.leaf(trajectory(c, r)), self.leaf(c_object_name(c, o))];
                TxnSpec::Rmw { leaves }
            }
            (Workload::InprocCheckout, Kind::Rmw) => {
                let o = self.own(n_obj);
                TxnSpec::Rmw {
                    leaves: vec![self.leaf(c_object_name(c, o))],
                }
            }
            (_, Kind::Snap) => TxnSpec::Snap {
                target: c_object(c, self.rng.gen_range(0..n_obj)),
            },
            (Workload::InprocCheckout, Kind::Checkout) => {
                let o = self.own(n_obj);
                TxnSpec::Checkout {
                    target: cell(c),
                    edit: self.leaf(c_object_name(c, o)),
                }
            }
            (_, Kind::Checkout) => {
                let r = self.own(ROBOTS);
                TxnSpec::Checkout {
                    target: robot(c, r),
                    edit: self.leaf(trajectory(c, r)),
                }
            }
        }
    }
}

/// Writes `value` into the leaf `steps` below `root` (steps relative to the
/// checked-out target). Elements are matched on their `_id` key attribute.
pub fn set_leaf(root: &mut Value, steps: &[TargetStep], value: Value) -> bool {
    let mut cur = root;
    for step in steps {
        let Some(next) = cur.field_mut(&step.attr) else {
            return false;
        };
        cur = next;
        if let Some(key) = &step.elem {
            let Some(elems) = cur.elements_mut() else {
                return false;
            };
            let found = elems.iter_mut().find(|e| match e {
                Value::Tuple(fields) => fields
                    .iter()
                    .any(|(n, v)| n.ends_with("_id") && v.as_key().as_ref() == Some(key)),
                _ => false,
            });
            let Some(elem) = found else { return false };
            cur = elem;
        }
    }
    *cur = value;
    true
}

/// The last committed value of every leaf a thread wrote. Writers are
/// partitioned, so each leaf has exactly one writer thread and the union of
/// the threads' shadows is the expected final state.
#[derive(Default)]
pub struct Shadow {
    leaves: HashMap<InstanceTarget, String>,
}

impl Shadow {
    /// Records the writes of a committed transaction.
    pub fn record(&mut self, spec: &TxnSpec) {
        for leaf in spec.writes() {
            match self.leaves.get_mut(&leaf.target) {
                Some(value) => value.clone_from(&leaf.value),
                None => {
                    self.leaves.insert(leaf.target.clone(), leaf.value.clone());
                }
            }
        }
    }

    /// Adds another thread's (disjoint) shadow.
    pub fn merge(&mut self, other: Shadow) {
        self.leaves.extend(other.leaves);
    }

    /// Every recorded leaf with its last committed value.
    pub fn entries(&self) -> impl Iterator<Item = (&InstanceTarget, &String)> {
        self.leaves.iter()
    }

    /// Leaves recorded.
    pub(crate) fn len(&self) -> usize {
        self.leaves.len()
    }
}

/// A built store, its manager and (optionally) its journal.
#[derive(Clone)]
pub struct World {
    /// The manager over the cells store.
    pub manager: Arc<TransactionManager>,
    /// The long-lock journal, when attached.
    pub journal: Option<Arc<Journal<ResourcePath>>>,
}

/// Builds the store, the manager and the journal of `shape`, with the
/// authorization of the standalone server: everything writable except the
/// effectors library, which is read-only (rule 4′ then locks shared entry
/// points S, not X).
pub fn build_world(shape: &Shape) -> World {
    let store = build_cells_store(&CellsConfig {
        n_cells: shape.cells,
        c_objects_per_cell: shape.c_objects,
        n_effectors: shape.effectors,
        ..CellsConfig::default()
    });
    let mut authz = Authorization::allow_all();
    authz.set_relation_default("effectors", Right::Read);
    let manager = Arc::new(TransactionManager::over_store(
        store,
        authz,
        ProtocolKind::Proposed,
    ));
    let journal = shape.journal.then(|| {
        let journal = Arc::new(Journal::over_medium(Arc::new(Mutex::new(String::new()))));
        manager.attach_journal(Arc::clone(&journal));
        journal
    });
    World { manager, journal }
}

impl World {
    /// Bytes on the journal medium (0 without a journal).
    pub fn journal_bytes(&self) -> u64 {
        self.journal.as_ref().map_or(0, |j| {
            j.medium().lock().map(|m| m.len() as u64).unwrap_or(0)
        })
    }

    /// Journal appends so far (0 without a journal).
    pub fn journal_appends(&self) -> u64 {
        self.journal.as_ref().map_or(0, |j| j.appends())
    }

    /// Chain entries over both relations.
    pub fn version_entries(&self) -> u64 {
        let store = self.manager.store();
        ["cells", "effectors"]
            .iter()
            .map(|r| store.version_entries(r).unwrap_or(0) as u64)
            .sum()
    }
}
