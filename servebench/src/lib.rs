//! The `joinopt serve` benchmark: socket-level end-to-end metrics on
//! four seeded workloads, and a traced in-process replay that times each
//! layer's public functions from outside. See `README.md`.

pub mod affinity;
pub mod alloc;
pub mod check;
pub mod compare;
pub mod replay;
pub mod report;
pub mod runner;
pub mod serve;
pub mod stats;
pub mod workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
