//! Smoke test of the benchmark itself: every workload at a tiny size, both
//! modes, every metric `BENCHMARK.json` names present with its unit, and a
//! corrupted check input failing the run.

use std::process::Command;
use txnbench::check::verify;
use txnbench::report::{end_to_end, per_layer, result_line};
use txnbench::run::{run, run_phase, Config};
use txnbench::world::Workload;

/// `(name, unit)` of every metric listed under `section` in BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section closes");
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        obj[at..]
            .split('"')
            .next()
            .expect("closing quote")
            .to_string()
    };
    body[..end]
        .split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn assert_metrics(workload: Workload, trace: bool) {
    let cfg = Config::tiny(workload, 7, 1.0, trace);
    let mut outcome = run(&cfg).expect("tiny run");
    assert!(
        outcome.problems.is_empty(),
        "{}: checks failed: {:?}",
        workload.name(),
        outcome.problems
    );
    let metrics = if trace {
        per_layer(&mut outcome)
    } else {
        end_to_end(&mut outcome)
    };
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    let want = declared(if trace { "per_layer" } else { "end_to_end" });
    assert_eq!(
        got,
        want,
        "{} trace={trace}: metrics differ from BENCHMARK.json",
        workload.name()
    );
    for m in &metrics {
        // The tracing overhead is a difference of two median latencies,
        // which noise can make negative at this size; everything else is a
        // count, a time or a ratio.
        let signed = m.name == "trace.overhead_pct";
        assert!(
            m.value.is_finite() && (signed || m.value >= 0.0),
            "{}: {} = {}",
            workload.name(),
            m.name,
            m.value
        );
    }
    let line = result_line(&outcome, &metrics);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
}

#[test]
fn served_mix_reports_every_metric() {
    assert_metrics(Workload::ServedMix, false);
    assert_metrics(Workload::ServedMix, true);
}

#[test]
fn inproc_rmw_reports_every_metric() {
    assert_metrics(Workload::InprocRmw, false);
    assert_metrics(Workload::InprocRmw, true);
}

#[test]
fn inproc_checkout_reports_every_metric() {
    assert_metrics(Workload::InprocCheckout, false);
    assert_metrics(Workload::InprocCheckout, true);
}

#[test]
fn corrupted_check_input_fails_the_run() {
    let cfg = Config::tiny(Workload::InprocCheckout, 3, 0.5, false);
    let phase = run_phase(&cfg, cfg.seconds, false).expect("tiny phase");
    assert!(verify(&phase.observed).is_ok(), "clean run must pass");
    assert!(
        phase.observed.writers_committed > 0,
        "the tiny run must commit writers"
    );

    let mut off_by_one = phase.observed.clone();
    off_by_one.versions_installed += 1;
    assert!(
        verify(&off_by_one).is_err(),
        "a version count off by one must fail"
    );

    let mut stale = phase.observed.clone();
    stale
        .stale_leaves
        .push("cells[c1].c_objects[c1-o0].obj_name: want \"w0.1\", got \"x\"".into());
    assert!(verify(&stale).is_err(), "a stale leaf must fail");

    let mut owner = phase.observed;
    owner.journal_live_owners = Ok(1);
    assert!(verify(&owner).is_err(), "a live journal owner must fail");
}

#[test]
fn refuses_to_run_with_colock_variables() {
    let out = Command::new(env!("CARGO_BIN_EXE_txnbench"))
        .args([
            "--workload",
            "inproc_rmw",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .env("COLOCK_NO_MVCC", "1")
        .output()
        .expect("run the benchmark binary");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "a refused run prints no result");
}

#[test]
fn command_line_prints_meta_then_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_txnbench"))
        .args([
            "--workload",
            "inproc_rmw",
            "--seed",
            "5",
            "--seconds",
            "0.5",
            "--trace",
            "0",
        ])
        .env_remove("COLOCK_NO_MVCC")
        .output()
        .expect("run the benchmark binary");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines[lines.len() - 2].starts_with("{\"meta\": {\"workload\": \"inproc_rmw\", \"seed\": 5")
    );
    assert!(lines[lines.len() - 1].starts_with("{\"correct\": true"));
    assert!(lines[lines.len() - 2].contains("\"mvcc_enabled\": true"));
}
