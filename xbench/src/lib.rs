//! The benchmark suite's library: workloads, measurement harness,
//! spans, statistics, the JSON reader/writer and the pair-protocol
//! comparison. The `suite` binary is its command line.

pub mod compare;
pub mod harness;
pub mod json;
pub mod layer;
pub mod metrics;
pub mod net;
pub mod serve;
mod stats;
pub mod trace;
