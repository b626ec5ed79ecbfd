//! One benchmark for both execution planes: five bounded-input workloads
//! with end-to-end metrics, and a traced run that times each crate's
//! public functions from outside to say where a workload's time goes.
//! `../BENCHMARK.json` is the contract; `README.md` explains the metrics.

pub mod cells;
pub mod compare;
pub mod json;
pub mod layers;
pub mod os;
pub mod report;
pub mod run;
pub mod trace;
pub mod workloads;
