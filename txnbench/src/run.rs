//! One benchmark run: set-up, the closed loop of two client threads, the
//! checks, and (traced) the in-process replays.

use crate::check::{observe, verify, Observed};
use crate::exec::{Exec, Failure};
use crate::served::{self, ClientExec, Served};
use crate::spans::Recorder;
use crate::stats::{median_f64, FAILED};
use crate::world::{
    build_world, Generator, Kind, Shadow, Shape, TxnSpec, Workload, World, THREADS,
};
use colock_core::ResourcePath;
use colock_lockmgr::{LockManager, LockRequestOptions, StatsSnapshot, TxnId, WaitPolicy};
use colock_server::wire::Request;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Specs kept per thread for the direct replay of a served run.
const MAX_SPECS: usize = 10_000;

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Store size and mix.
    pub shape: Shape,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds (split between the untraced and the traced phase
    /// of a traced run).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Committed transactions at which peak RSS is read.
    pub rss_at: u64,
    /// Set-ups timed per untraced run (median reported).
    pub setup_reps: usize,
}

impl Config {
    /// The full-size benchmark configuration.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Config {
        Config {
            workload,
            shape: workload.shape(),
            seed,
            seconds,
            trace,
            rss_at: workload.rss_at(),
            setup_reps: workload.setup_reps(),
        }
    }

    /// A tiny configuration for smoke tests.
    pub fn tiny(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Config {
        let shape = Shape {
            cells: 4,
            c_objects: 4,
            effectors: 4,
            ..workload.shape()
        };
        Config {
            shape,
            rss_at: 20,
            setup_reps: 2,
            ..Config::new(workload, seed, seconds, trace)
        }
    }
}

/// Warm-up before a measured window of `seconds`: 10%, at most 1 s.
fn warmup(seconds: f64) -> f64 {
    (seconds * 0.1).min(1.0)
}

/// Results of one phase (one set-up, one closed loop, its checks).
pub struct Phase {
    /// Set-up seconds of this phase's world.
    pub setup_s: f64,
    /// Measured seconds (after warm-up).
    pub elapsed_s: f64,
    /// Attempts started in the measured window.
    pub attempted: u64,
    /// Failed attempts in the measured window.
    pub failed: u64,
    /// Committed transactions in the measured window.
    pub committed: u64,
    /// Failed attempts by cause ([`Failure::ALL`] order).
    pub by_cause: [u64; 3],
    /// Every measured attempt.
    pub samples: Vec<Sample>,
    /// Committed transactions over the whole phase, warm-up included.
    pub total_committed: u64,
    /// Committed long transactions over the whole phase.
    pub total_long: u64,
    /// Peak RSS (MiB) read at `rss_at` commits.
    pub rss_mb: f64,
    /// Whether `rss_at` commits were reached (else read at the end).
    pub rss_at_count: bool,
    /// Lock-manager counter deltas over the phase.
    pub lock: StatsSnapshot,
    /// Journal appends over the phase.
    pub journal_appends: u64,
    /// Journal medium bytes written over the phase.
    pub journal_bytes: u64,
    /// Versions installed over the phase.
    pub versions_installed: u64,
    /// Versions pruned over the phase.
    pub versions_pruned: u64,
    /// Version-chain entries at the end.
    pub version_entries_end: u64,
    /// Requests sent over the socket.
    pub requests: u64,
    /// `txns.inflight_peak` from `STATS` (served only).
    pub inflight_peak: u64,
    /// Merged spans and counters (empty when untraced).
    pub rec: Recorder,
    /// Request stream per thread (traced served only).
    pub streams: Vec<Vec<Request>>,
    /// Transaction stream per thread (traced served only).
    pub specs: Vec<Vec<TxnSpec>>,
    /// What the checks saw.
    pub observed: Observed,
    /// Library defaults in effect.
    pub defaults: Defaults,
}

/// Resolved library defaults (no `COLOCK_*` variable is set).
#[derive(Debug, Clone, Copy)]
pub struct Defaults {
    /// `LockManager::fastpath_enabled`.
    pub fastpath: bool,
    /// `TransactionManager::mvcc_enabled`.
    pub mvcc: bool,
    /// `TransactionManager::gc_every`.
    pub gc_every: u64,
    /// `TransactionManager::semantic_enabled`.
    pub semantic: bool,
}

struct Clock {
    warm_end: Instant,
    deadline: Instant,
    rss_at: u64,
    commits: AtomicU64,
    rss_kb: AtomicU64,
}

impl Clock {
    fn note_commit(&self) {
        if self.commits.fetch_add(1, Ordering::Relaxed) + 1 == self.rss_at {
            self.rss_kb.store(vm_hwm_kb(), Ordering::Relaxed);
        }
    }
}

/// Peak resident set size of this process, KiB (0 where unavailable).
fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

/// One measured attempt.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Transaction type.
    pub kind: Kind,
    /// Latency, ns ([`FAILED`] for a failed attempt).
    pub ns: u64,
    /// Whether its spans were recorded (every other attempt of a traced
    /// phase).
    pub recorded: bool,
}

#[derive(Default)]
struct ThreadOut {
    attempted: u64,
    failed: u64,
    committed: u64,
    by_cause: [u64; 3],
    samples: Vec<Sample>,
    total_committed: u64,
    total_long: u64,
    writers: u64,
    shadow: Shadow,
    end: Option<Instant>,
    rec: Option<Recorder>,
    requests: u64,
    stream: Vec<Request>,
    specs: Vec<TxnSpec>,
}

/// The closed loop of one client thread. In a traced phase every other
/// attempt is recorded (`run_one`'s flag), so that recorded and plain
/// attempts share the same host conditions and their latencies give the
/// tracing overhead.
fn drive(
    cfg: &Config,
    thread: usize,
    clock: &Clock,
    traced: bool,
    keep_specs: bool,
    mut run_one: impl FnMut(&TxnSpec, bool) -> Result<(), Failure>,
) -> ThreadOut {
    let mut gen = Generator::new(cfg.workload, cfg.shape, cfg.seed, thread);
    let mut out = ThreadOut::default();
    for seq in 0u64.. {
        let spec = gen.next_spec();
        let recorded = traced && seq % 2 == 0;
        let start = Instant::now();
        if start >= clock.deadline {
            break;
        }
        let result = run_one(&spec, recorded);
        let end = Instant::now();
        if result.is_ok() {
            clock.note_commit();
            out.total_committed += 1;
            out.total_long += u64::from(spec.kind() == Kind::Checkout);
            out.writers += u64::from(!spec.writes().is_empty());
            out.shadow.record(&spec);
        }
        if start < clock.warm_end {
            continue;
        }
        out.attempted += 1;
        out.end = Some(end);
        let ns = match result {
            Ok(()) => {
                out.committed += 1;
                (end - start).as_nanos() as u64
            }
            Err(f) => {
                out.failed += 1;
                out.by_cause[f as usize] += 1;
                FAILED
            }
        };
        out.samples.push(Sample {
            kind: spec.kind(),
            ns,
            recorded,
        });
        if keep_specs && recorded && out.specs.len() < MAX_SPECS {
            out.specs.push(spec);
        }
    }
    out
}

/// The world a phase runs against.
enum Env {
    Inproc(World),
    Served(Served),
}

impl Env {
    fn build(shape: &Shape, served: bool) -> Result<Env, String> {
        Ok(if served {
            Env::Served(served::setup(shape)?)
        } else {
            Env::Inproc(build_world(shape))
        })
    }

    fn world(&self) -> &World {
        match self {
            Env::Inproc(w) => w,
            Env::Served(s) => &s.world,
        }
    }

    /// Stops the server, if any; returns its drain stragglers.
    fn shutdown(self) -> usize {
        match self {
            Env::Inproc(_) => 0,
            Env::Served(s) => s.shutdown(),
        }
    }
}

/// Times one set-up (world, and for the served path the started server and
/// connected clients), then tears it down.
pub fn setup_once(cfg: &Config) -> Result<f64, String> {
    let start = Instant::now();
    let env = Env::build(&cfg.shape, cfg.workload.served())?;
    let secs = start.elapsed().as_secs_f64();
    env.shutdown();
    Ok(secs)
}

/// Runs one phase of `seconds` measured seconds.
pub fn run_phase(cfg: &Config, seconds: f64, traced: bool) -> Result<Phase, String> {
    let setup_start = Instant::now();
    let mut env = Env::build(&cfg.shape, cfg.workload.served())?;
    let setup_s = setup_start.elapsed().as_secs_f64();

    let world = env.world().clone();
    let mgr = &world.manager;
    let store = mgr.store();
    let stats_before = mgr.lock_manager().stats().snapshot();
    let (appends_before, bytes_before) = (world.journal_appends(), world.journal_bytes());
    let (installed_before, pruned_before) = (store.versions_installed(), store.versions_pruned());
    let start = Instant::now();
    let warm = warmup(seconds);
    let clock = Clock {
        warm_end: start + std::time::Duration::from_secs_f64(warm),
        deadline: start + std::time::Duration::from_secs_f64(warm + seconds),
        rss_at: cfg.rss_at,
        commits: AtomicU64::new(0),
        rss_kb: AtomicU64::new(0),
    };
    let keep_specs = traced && cfg.workload.served();
    let outs: Vec<ThreadOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = match &mut env {
            Env::Inproc(_) => (0..THREADS)
                .map(|t| {
                    let clock = &clock;
                    scope.spawn(move || {
                        let mut exec = Exec::new(mgr, traced);
                        let mut out = drive(cfg, t, clock, traced, keep_specs, |spec, on| {
                            exec.record(on);
                            exec.run(spec).map_err(|e| Failure::of(&e))
                        });
                        out.rec = exec.take_recorder();
                        out
                    })
                })
                .collect(),
            Env::Served(s) => s
                .clients
                .iter_mut()
                .enumerate()
                .map(|(t, client)| {
                    let clock = &clock;
                    scope.spawn(move || {
                        let mut exec = ClientExec::new(client, traced);
                        let mut out = drive(cfg, t, clock, traced, keep_specs, |spec, on| {
                            exec.record(on);
                            exec.run(spec).map_err(|e| served::failure_of(&e))
                        });
                        out.rec = exec.take_recorder();
                        out.requests = exec.requests;
                        out.stream = exec.stream;
                        out
                    })
                })
                .collect(),
        };
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    let inflight_peak = match &mut env {
        Env::Served(s) => served::inflight_peak(&mut s.clients[0]),
        Env::Inproc(_) => 0,
    };
    let stragglers = env.shutdown();
    let end = outs
        .iter()
        .filter_map(|o| o.end)
        .max()
        .unwrap_or(clock.warm_end);
    let lock = mgr.lock_manager().stats().snapshot().since(&stats_before);
    let rss_kb = clock.rss_kb.load(Ordering::Relaxed);

    let mut all = ThreadOut::default();
    let (mut rec, mut streams, mut specs) = (Recorder::new(), Vec::new(), Vec::new());
    for o in outs {
        streams.push(o.stream);
        specs.push(o.specs);
        if let Some(r) = o.rec {
            rec.merge(r);
        }
        all.attempted += o.attempted;
        all.failed += o.failed;
        all.committed += o.committed;
        for (sum, n) in all.by_cause.iter_mut().zip(o.by_cause) {
            *sum += n;
        }
        all.samples.extend(o.samples);
        all.total_committed += o.total_committed;
        all.total_long += o.total_long;
        all.writers += o.writers;
        all.requests += o.requests;
        all.shadow.merge(o.shadow);
    }
    Ok(Phase {
        setup_s,
        elapsed_s: end.saturating_duration_since(clock.warm_end).as_secs_f64(),
        attempted: all.attempted,
        failed: all.failed,
        committed: all.committed,
        by_cause: all.by_cause,
        samples: all.samples,
        total_committed: all.total_committed,
        total_long: all.total_long,
        rss_mb: (if rss_kb > 0 { rss_kb } else { vm_hwm_kb() }) as f64 / 1024.0,
        rss_at_count: rss_kb > 0,
        lock,
        journal_appends: world.journal_appends() - appends_before,
        journal_bytes: world.journal_bytes() - bytes_before,
        versions_installed: store.versions_installed() - installed_before,
        versions_pruned: store.versions_pruned() - pruned_before,
        version_entries_end: world.version_entries(),
        requests: all.requests,
        inflight_peak,
        rec,
        streams,
        specs,
        observed: observe(
            &world,
            &all.shadow,
            installed_before,
            all.writers,
            stragglers,
        ),
        defaults: Defaults {
            fastpath: mgr.lock_manager().fastpath_enabled(),
            mvcc: mgr.mvcc_enabled(),
            gc_every: mgr.gc_every(),
            semantic: mgr.semantic_enabled(),
        },
    })
}

/// Replays captured `locks_of()` sets through `acquire` + `release_all` on
/// a fresh single-threaded lock table; mean ns per set.
pub fn replay_lock_table(sets: &mut [Vec<(ResourcePath, colock_lockmgr::LockMode, bool)>]) -> f64 {
    if sets.is_empty() {
        return 0.0;
    }
    for set in sets.iter_mut() {
        set.sort_by_key(|(r, _, _)| r.len());
    }
    let lm: LockManager<ResourcePath> = LockManager::new();
    let n = sets.len();
    let start = Instant::now();
    for (i, set) in sets.iter_mut().enumerate() {
        let txn = TxnId(i as u64 + 1);
        for (resource, mode, long) in set.drain(..) {
            let opts = LockRequestOptions {
                policy: WaitPolicy::Try,
                long,
            };
            std::hint::black_box(lm.acquire(txn, resource, mode, opts).is_ok());
        }
        lm.release_all(txn);
    }
    start.elapsed().as_nanos() as f64 / n as f64
}

/// Replays a served run's transactions in process, traced, on a fresh
/// world; returns the failed ones.
pub fn replay_direct(shape: &Shape, specs: &[Vec<TxnSpec>], rec: &mut Recorder) -> u64 {
    let world = build_world(shape);
    let mut exec = Exec::new(&world.manager, true);
    let failed = specs
        .iter()
        .flatten()
        .filter(|s| exec.run(s).is_err())
        .count() as u64;
    if let Some(r) = exec.rec {
        rec.merge(r);
    }
    failed
}

/// A finished run: the phase(s) and everything the report needs.
pub struct Outcome {
    /// The configuration.
    pub cfg: Config,
    /// The measured phase (untraced run) or the untraced phase (traced run).
    pub main: Phase,
    /// The traced phase (traced run only).
    pub traced: Option<Phase>,
    /// Median set-up seconds (untraced run; the first phase's set-up in a
    /// traced run).
    pub setup_s: f64,
    /// Lock-table replay, ns per transaction (traced run only).
    pub table_ns_per_txn: f64,
    /// Failed transactions / `ERR` replies in the in-process replays.
    pub replay_errors: u64,
    /// Every failed check.
    pub problems: Vec<String>,
}

/// Runs the benchmark as configured. `Err` is a run that could not be
/// carried out; failed checks come back in [`Outcome::problems`].
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut problems = Vec::new();
    if !cfg.trace {
        // Every timed set-up runs before the measured phase, one after
        // another, so each starts from the same process state.
        let setups = (0..cfg.setup_reps)
            .map(|_| setup_once(cfg))
            .collect::<Result<Vec<f64>, String>>()?;
        let setup_s = median_f64(&setups);
        let main = run_phase(cfg, cfg.seconds, false)?;
        problems.extend(verify(&main.observed).err().unwrap_or_default());
        return Ok(Outcome {
            cfg: cfg.clone(),
            main,
            traced: None,
            setup_s,
            table_ns_per_txn: 0.0,
            replay_errors: 0,
            problems,
        });
    }
    let half = cfg.seconds / 2.0;
    let main = run_phase(cfg, half, false)?;
    problems.extend(verify(&main.observed).err().unwrap_or_default());
    let mut traced = run_phase(cfg, half, true)?;
    problems.extend(verify(&traced.observed).err().unwrap_or_default());
    let mut replay_errors = 0;
    if cfg.workload.served() {
        replay_errors += served::replay_sessions(&cfg.shape, &traced.streams, &mut traced.rec)?;
        replay_errors += replay_direct(&cfg.shape, &traced.specs, &mut traced.rec);
    }
    let table_ns_per_txn = replay_lock_table(&mut traced.rec.lock_sets);
    Ok(Outcome {
        cfg: cfg.clone(),
        setup_s: main.setup_s,
        main,
        traced: Some(traced),
        table_ns_per_txn,
        replay_errors,
        problems,
    })
}
