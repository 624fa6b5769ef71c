//! Command line and environment.

use crate::run::Config;
use crate::world::Workload;

/// Usage text.
pub const USAGE: &str = "usage: txnbench --workload <served_mix|inproc_rmw|inproc_checkout> \
--seed <n> --seconds <n> --trace <0|1>";

/// Parses the arguments (without the program name).
pub fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {value:?}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    let trace = trace.ok_or("--trace is required")?;
    Ok(Config::new(workload, seed, seconds, trace))
}

/// Library code still reads `COLOCK_*` variables (fast path, MVCC, GC
/// cadence, semantic modes, trace, adaptive policy, server tunables), so a
/// stray one would benchmark a different program. Names every one set.
pub fn stray_env() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("COLOCK_"))
        .collect();
    names.sort();
    names
}
