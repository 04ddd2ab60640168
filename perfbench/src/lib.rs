//! The HyperHammer simulator's benchmark: end-to-end workloads through
//! the release CLI and the campaign server, and a traced run that times
//! each layer's public calls from outside.

pub mod cli;
pub mod probes;
pub mod report;
pub mod run;
pub mod server;
pub mod stages;
pub mod stats;
pub mod workloads;
