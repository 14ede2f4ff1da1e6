//! Host-time benchmark of the EVE simulator's two stacks.
//!
//! The paper stack runs (kernel, system) cells through
//! `eve_sim::Runner::run`; the serving stack measures a
//! `ServiceProfile`, builds a `ClusterSim` and runs it. An untraced
//! run reports the end-to-end metrics in [`util::END_TO_END`]; a
//! traced run times calls into each crate's public functions from
//! this crate and reports [`util::PER_LAYER`]. See README.md for the
//! workloads and the layer → end-to-end table.

pub mod cluster;
pub mod paper;
pub mod progress;
pub mod util;

use std::collections::BTreeMap;

/// The workloads, in the order README.md describes them.
pub const WORKLOADS: [&str; 4] = [
    "paper_scalar",
    "paper_vector",
    "cluster_lossy",
    "cluster_ideal",
];

/// What one run measured and whether its outputs were right.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every output checked out and repeated runs agreed.
    pub correct: bool,
    /// Operations attempted: paper cells run, or simulated requests.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric values by name; units live in the metric tables.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Digest lines of every simulated output, printed before the
    /// result so two commits' simulated numbers can be compared.
    pub digests: Vec<String>,
}

impl Outcome {
    /// An outcome with no metrics yet; it is correct when nothing
    /// failed and repeated runs were `consistent`.
    #[must_use]
    pub fn new(attempted: u64, failed: u64, consistent: bool) -> Self {
        Self {
            correct: consistent && failed == 0 && attempted > 0,
            attempted,
            failed,
            ..Self::default()
        }
    }

    /// Records metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Runs workload `name` for `seconds` (untraced) or once (traced).
/// `None` when `name` is not a workload.
#[must_use]
pub fn run(name: &str, seed: u64, seconds: f64, trace: bool) -> Option<Outcome> {
    if let Some(spec) = paper::PaperSpec::named(name) {
        return Some(if trace {
            paper::run_traced(&spec)
        } else {
            paper::run(&spec, seconds)
        });
    }
    let spec = cluster::ClusterSpec::named(name)?;
    Some(if trace {
        cluster::run_traced(&spec, seed)
    } else {
        cluster::run(&spec, seed, seconds)
    })
}
