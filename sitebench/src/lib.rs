//! The site benchmark: closed-loop runs of the Dynamo simulator on three
//! site workloads, with end-to-end metrics from an untraced run and
//! per-crate layer timings from a traced one. See `README.md`.

pub mod host;
pub mod layers;
pub mod run;
pub mod scenario;
pub mod stats;
