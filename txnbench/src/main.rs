//! `txnbench` command line; see the library docs and `USAGE`.

use txnbench::{cli, report, run};

fn main() {
    let stray = cli::stray_env();
    if !stray.is_empty() {
        eprintln!(
            "txnbench: refusing to run with {} set: unset it to measure the default program",
            stray.join(", ")
        );
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match cli::parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("txnbench: {e}\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    let mut outcome = match run::run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("txnbench: run failed: {e}");
            std::process::exit(1);
        }
    };
    let metrics = if cfg.trace {
        report::per_layer(&mut outcome)
    } else {
        report::end_to_end(&mut outcome)
    };
    println!("{}", report::meta_line(&outcome));
    for problem in &outcome.problems {
        eprintln!("txnbench: check failed: {problem}");
    }
    println!("{}", report::result_line(&outcome, &metrics));
    if !outcome.problems.is_empty() {
        std::process::exit(1);
    }
}
