//! Classroom-delivery benchmark for Traffic Warehouse.
//!
//! Times the path from scenario events to windows on students' screens,
//! and the archive write and read paths, through the public API of
//! `tw-core` only. See `README.md` beside this crate for the workloads,
//! metrics and predictions, and `src/main.rs` for the command line.

pub mod cpu;
pub mod lesson;
pub mod metrics;
pub mod reference;
pub mod rss;
pub mod serving;
pub mod stats;
pub mod workloads;

/// A seed kept out of development runs: a later claim of a gain is
/// re-checked on it.
pub const HELD_OUT_SEED: u64 = 7_340_033;
