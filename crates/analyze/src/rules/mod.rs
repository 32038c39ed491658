//! Rule registry and dispatch.
//!
//! Each rule lives in its own module with a `NAME` constant and a
//! `check(&Workspace) -> Result<Vec<Finding>, AnalyzeError>` entry point,
//! and registers with one row of [`ALL`]. Every listed rule runs; a finding
//! is silenced only by a waiver in the source.

pub mod frame_coverage;
pub mod hot_path;
pub mod lock_channel;
pub mod metric_names;
pub mod no_panic;
pub mod pub_reach;

use crate::{AnalyzeError, Finding, Workspace};

/// Meta-rule reported for unparseable waiver comments.
pub const MALFORMED_WAIVER: &str = "malformed-waiver";
/// Meta-rule reported for waivers that no longer silence anything.
pub const STALE_WAIVER: &str = "stale-waiver";

/// One rule's entry point.
type Check = fn(&Workspace) -> Result<Vec<Finding>, AnalyzeError>;

/// Every rule with its check, in the order they run and report.
pub const ALL: &[(&str, Check)] = &[
    (no_panic::NAME, no_panic::check),
    (hot_path::NAME, hot_path::check),
    (metric_names::NAME, metric_names::check),
    (frame_coverage::NAME, frame_coverage::check),
    (lock_channel::NAME, lock_channel::check),
    (pub_reach::NAME, pub_reach::check),
];

/// True when `name` is a registered rule.
pub fn is_known(name: &str) -> bool {
    ALL.iter().any(|(rule, _)| *rule == name)
}

/// Run every rule (or only `only`) and return their findings plus the list
/// of rules that ran.
pub fn run(
    ws: &Workspace,
    only: Option<&str>,
) -> Result<(Vec<Finding>, Vec<String>), AnalyzeError> {
    let mut findings = Vec::new();
    let mut ran = Vec::new();
    for &(name, check) in ALL {
        if only.is_some_and(|o| o != name) {
            continue;
        }
        findings.extend(check(ws)?);
        ran.push(name.to_string());
    }
    Ok((findings, ran))
}
