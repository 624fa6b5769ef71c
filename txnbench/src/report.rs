//! Metrics, the metadata line and the JSON result line.

use crate::exec::Failure;
use crate::run::{Outcome, Phase};
use crate::spans::Span;
use crate::stats::{ns_to_us, percentile, FAILED};
use crate::world::{Kind, THREADS};
use std::fmt::Write;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// `num / den`, 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn p_us(samples: &mut [u64], q: f64) -> f64 {
    percentile(samples, q).map_or(0.0, ns_to_us)
}

/// Latencies of the attempts of `kind` (all kinds when `None`).
fn latencies(p: &Phase, kind: Option<Kind>) -> Vec<u64> {
    p.samples
        .iter()
        .filter(|s| kind.is_none_or(|k| s.kind == k))
        .map(|s| s.ns)
        .collect()
}

/// The gated tail percentile. On a shared 2-vCPU host the p99 of these
/// workloads is set by millisecond host preemption of a latch or lock holder
/// (and by the version GC on `inproc_rmw`), and spread across seeds by more
/// than any bound a gate may have; p90 stays in the body of the
/// distribution. The p99 is still reported, ungated, in the metadata line.
const TAIL: f64 = 0.90;

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(o: &mut Outcome) -> Vec<Metric> {
    let p = &o.main;
    let mut all = latencies(p, None);
    let mut out = vec![
        metric("setup_s", o.setup_s, "s"),
        metric("txn_per_s", ratio(p.committed as f64, p.elapsed_s), "1/s"),
        metric("txn_p50_us", p_us(&mut all, 0.50), "us"),
        metric("txn_p90_us", p_us(&mut all, TAIL), "us"),
    ];
    for kind in Kind::ALL {
        let mut samples = latencies(p, Some(kind));
        let prefix = kind.prefix();
        out.push(metric(
            format!("{prefix}_p50_us"),
            p_us(&mut samples, 0.50),
            "us",
        ));
        out.push(metric(
            format!("{prefix}_p90_us"),
            p_us(&mut samples, TAIL),
            "us",
        ));
    }
    out.push(metric("peak_rss_mb", p.rss_mb, "MB"));
    out
}

/// `"<type>": <p99 µs>` pairs, all types first, for the metadata line.
fn p99_pairs(p: &Phase) -> Vec<String> {
    std::iter::once(("txn", None))
        .chain(Kind::ALL.iter().map(|k| (k.prefix(), Some(*k))))
        .map(|(name, kind)| {
            format!(
                "{}: {}",
                string(name),
                num(p_us(&mut latencies(p, kind), 0.99))
            )
        })
        .collect()
}

/// Per-layer metrics of a traced run: counters from the untraced phase,
/// spans from the traced phase and the in-process replays.
pub fn per_layer(o: &mut Outcome) -> Vec<Metric> {
    let a = &o.main;
    let b = o
        .traced
        .as_mut()
        .expect("per-layer metrics need a traced phase");
    let rec = &mut b.rec;
    let txns = a.total_committed as f64;
    let s = &a.lock;
    let mut out = Vec::new();

    let rtt = p_us(rec.samples(Span::Rtt), 0.5);
    let codec = p_us(rec.samples(Span::Codec), 0.5);
    let session = p_us(rec.samples(Span::Session), 0.5);
    out.push(metric("server.rtt_us", rtt, "us"));
    out.push(metric(
        "server.requests_per_txn",
        ratio(a.requests as f64, txns),
        "count/txn",
    ));
    out.push(metric("server.codec_us", codec, "us"));
    out.push(metric("server.session_us", session, "us"));
    out.push(metric(
        "server.net_us",
        (rtt - session - codec).max(0.0),
        "us",
    ));
    out.push(metric(
        "server.inflight_peak",
        a.inflight_peak as f64,
        "count",
    ));

    let ops = [
        ("begin", Span::Begin),
        ("read", Span::Read),
        ("update", Span::Update),
        ("snapshot_read", Span::SnapshotRead),
        ("checkout", Span::Checkout),
        ("checkin", Span::Checkin),
        ("commit", Span::Commit),
    ];
    for (name, span) in ops {
        let samples = rec.samples(span);
        out.push(metric(
            format!("txn.{name}_p50_us"),
            p_us(samples, 0.50),
            "us",
        ));
        out.push(metric(
            format!("txn.{name}_p99_us"),
            p_us(samples, 0.99),
            "us",
        ));
    }
    for cause in Failure::ALL {
        let n = a.by_cause[cause as usize] as f64;
        out.push(metric(
            format!("txn.abort_frac_{}", cause.name()),
            ratio(n, a.attempted as f64),
            "ratio",
        ));
    }

    out.push(metric(
        "core.resource_for_us",
        p_us(rec.samples(Span::ResourceFor), 0.5),
        "us",
    ));
    out.push(metric(
        "core.lock_us",
        p_us(rec.samples(Span::Lock), 0.5),
        "us",
    ));
    out.push(metric(
        "core.locks_per_lock",
        ratio(rec.locks_granted as f64, rec.explicit_locks as f64),
        "count",
    ));
    let relock_write = p_us(rec.samples(Span::RelockWrite), 0.5);
    let mut relocks = rec.samples(Span::RelockRead).clone();
    relocks.extend_from_slice(rec.samples(Span::RelockWrite));
    out.push(metric(
        "core.covered_relock_us",
        p_us(&mut relocks, 0.5),
        "us",
    ));

    out.push(metric(
        "lockmgr.requests_per_txn",
        ratio(s.requests as f64, txns),
        "count/txn",
    ));
    out.push(metric(
        "lockmgr.immediate_grant_ratio",
        ratio(s.immediate_grants as f64, s.requests as f64),
        "ratio",
    ));
    out.push(metric(
        "lockmgr.fastpath_hit_ratio",
        ratio(s.fastpath_hits as f64, s.intent_acquires as f64),
        "ratio",
    ));
    out.push(metric(
        "lockmgr.conflict_tests_per_txn",
        ratio(s.conflict_tests as f64, txns),
        "count/txn",
    ));
    out.push(metric(
        "lockmgr.waits_per_ktxn",
        ratio(1e3 * s.waits as f64, txns),
        "count/ktxn",
    ));
    out.push(metric(
        "lockmgr.deadlocks_per_ktxn",
        ratio(1e3 * s.deadlocks as f64, txns),
        "count/ktxn",
    ));
    out.push(metric("lockmgr.wakeups", s.wakeups as f64, "count"));
    out.push(metric(
        "lockmgr.max_table_entries",
        s.max_table_entries as f64,
        "count",
    ));
    out.push(metric("lockmgr.table_ns_per_txn", o.table_ns_per_txn, "ns"));
    let long = a.total_long as f64;
    out.push(metric(
        "lockmgr.journal_appends_per_long_txn",
        ratio(a.journal_appends as f64, long),
        "count/txn",
    ));
    out.push(metric(
        "lockmgr.journal_bytes_per_long_txn",
        ratio(a.journal_bytes as f64, long),
        "bytes/txn",
    ));

    let update = p_us(rec.samples(Span::Update), 0.5);
    out.push(metric(
        "storage.get_us",
        p_us(rec.samples(Span::StoreGet), 0.5),
        "us",
    ));
    out.push(metric(
        "storage.write_us",
        (update - relock_write).max(0.0),
        "us",
    ));
    out.push(metric(
        "storage.object_bytes",
        ratio(rec.object_bytes as f64, rec.objects_sampled as f64),
        "bytes",
    ));
    out.push(metric(
        "storage.versions_per_txn",
        ratio(a.versions_installed as f64, txns),
        "count/txn",
    ));
    out.push(metric(
        "storage.versions_pruned_per_ktxn",
        ratio(1e3 * a.versions_pruned as f64, txns),
        "count/ktxn",
    ));
    out.push(metric(
        "storage.version_entries_end",
        a.version_entries_end as f64,
        "count",
    ));

    out.push(metric("trace.overhead_pct", overhead_pct(b), "%"));
    out
}

/// The tracing overhead within the traced phase, whose attempts alternate
/// between recorded and plain: per type, the median latency of committed
/// recorded attempts and of committed plain ones, each weighted by the
/// type's count, compared as a percentage.
fn overhead_pct(p: &Phase) -> f64 {
    let (mut recorded, mut plain) = (0.0, 0.0);
    for kind in Kind::ALL {
        let committed = |on: bool| -> Vec<u64> {
            p.samples
                .iter()
                .filter(|s| s.kind == kind && s.recorded == on && s.ns != FAILED)
                .map(|s| s.ns)
                .collect()
        };
        let (mut on, mut off) = (committed(true), committed(false));
        let n = (on.len() + off.len()) as f64;
        if let (Some(a), Some(b)) = (percentile(&mut on, 0.5), percentile(&mut off, 0.5)) {
            recorded += n * a as f64;
            plain += n * b as f64;
        }
    }
    100.0 * (ratio(recorded, plain) - 1.0)
}

/// A JSON number; non-finite values (never expected) read as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A JSON string literal.
fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(o: &Outcome, metrics: &[Metric]) -> String {
    let phases: Vec<&Phase> = std::iter::once(&o.main).chain(o.traced.as_ref()).collect();
    let attempted: u64 = phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(&m.name),
                num(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        o.problems.is_empty(),
        body.join(", ")
    )
}

/// FNV-1a over the workspace sources below the working directory, so a
/// result names the code it measured even outside a git checkout.
fn source_hash() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "txnbench/src"] {
        walk(std::path::Path::new(root), &mut files);
    }
    if files.is_empty() {
        return "unknown".into();
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The git commit, when the working directory is a git checkout.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// The metadata line: host, build, configuration, resolved library
/// defaults, sample counts and the ungated p99 latencies.
pub fn meta_line(o: &Outcome) -> String {
    let c = &o.cfg;
    let p = &o.main;
    let d = &p.defaults;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let samples: Vec<String> = Kind::ALL
        .iter()
        .map(|k| format!("{}: {}", string(k.prefix()), latencies(p, Some(*k)).len()))
        .collect();
    let problems: Vec<String> = o.problems.iter().map(|s| string(s)).collect();
    format!(
        concat!(
            "{{\"meta\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, ",
            "\"threads\": {}, \"nproc\": {}, \"rustc\": {}, \"commit\": {}, \"source_fnv64\": {}, ",
            "\"cells\": {}, \"c_objects\": {}, \"effectors\": {}, \"journal\": {}, ",
            "\"mix_rmw_snap_checkout\": [{}, {}, {}], ",
            "\"fastpath_enabled\": {}, \"mvcc_enabled\": {}, \"gc_every\": {}, \"semantic_enabled\": {}, ",
            "\"samples\": {{{}}}, \"ungated_p99_us\": {{{}}}, \"rss_at_commits\": {}, \"rss_at_count\": {}, ",
            "\"replay_errors\": {}, \"problems\": [{}]}}}}"
        ),
        string(c.workload.name()),
        c.seed,
        num(c.seconds),
        c.trace,
        THREADS,
        nproc,
        string(env!("TXNBENCH_RUSTC_VERSION")),
        string(&git_commit()),
        string(&source_hash()),
        c.shape.cells,
        c.shape.c_objects,
        c.shape.effectors,
        c.shape.journal,
        c.shape.mix[0],
        c.shape.mix[1],
        c.shape.mix[2],
        d.fastpath,
        d.mvcc,
        d.gc_every,
        d.semantic,
        samples.join(", "),
        p99_pairs(p).join(", "),
        c.rss_at,
        p.rss_at_count,
        o.replay_errors,
        problems.join(", "),
    )
}
