#![forbid(unsafe_code)]
//! # `txnbench` — one benchmark for the served and in-process transaction
//!
//! Three closed-loop workloads over the Fig. 1 cells store, two client
//! threads each:
//!
//! - `served_mix` — an in-process `colock-server` over loopback TCP;
//! - `inproc_rmw` — direct calls on many small complex objects;
//! - `inproc_checkout` — direct calls on few large cells whose robots share
//!   an effectors library, with whole-cell check-outs.
//!
//! An untraced run prints the end-to-end metrics. A traced run prints the
//! per-layer metrics (`server`, `txn`, `core`, `lockmgr`, `storage`) from
//! spans the benchmark records around its own calls into each layer, plus
//! the tracing overhead. See `LAYERS.md` for which metric should move what.

pub mod check;
pub mod cli;
pub mod exec;
pub mod report;
pub mod run;
pub mod served;
pub mod spans;
pub mod stats;
pub mod world;
