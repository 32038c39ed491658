//! Rule registry and dispatch.
//!
//! Each rule lives in its own module with a `NAME` constant and a
//! `check(&Workspace) -> Result<Vec<Finding>, AnalyzeError>` entry point.
//! Rules are deny-by-default: they run unless `analyze.json` sets
//! `"enabled": false` in the rule's `"rule.<name>"` section.

pub mod frame_coverage;
pub mod hot_path;
pub mod lock_channel;
pub mod metric_names;
pub mod no_panic;

use tw_json::Value;

use crate::{AnalyzeError, Finding, Workspace};

/// Meta-rule reported for unparseable waiver comments.
pub const MALFORMED_WAIVER: &str = "malformed-waiver";
/// Meta-rule reported for waivers that no longer silence anything.
pub const STALE_WAIVER: &str = "stale-waiver";

/// Every rule, in the order they run and report.
pub const ALL: &[&str] = &[
    no_panic::NAME,
    hot_path::NAME,
    metric_names::NAME,
    frame_coverage::NAME,
    lock_channel::NAME,
];

/// Run the enabled rules (optionally restricted to `only`) and return their
/// findings plus the list of rules that actually ran.
pub fn run(
    ws: &Workspace,
    only: Option<&str>,
) -> Result<(Vec<Finding>, Vec<String>), AnalyzeError> {
    let mut findings = Vec::new();
    let mut ran = Vec::new();
    for &name in ALL {
        if only.is_some_and(|o| o != name) {
            continue;
        }
        let enabled = ws
            .setting(&format!("rule.{name}"), "enabled")
            .and_then(Value::as_bool)
            .unwrap_or(true);
        if !enabled {
            continue;
        }
        let rule_findings = match name {
            n if n == no_panic::NAME => no_panic::check(ws)?,
            n if n == hot_path::NAME => hot_path::check(ws)?,
            n if n == metric_names::NAME => metric_names::check(ws)?,
            n if n == frame_coverage::NAME => frame_coverage::check(ws)?,
            n if n == lock_channel::NAME => lock_channel::check(ws)?,
            _ => Vec::new(),
        };
        findings.extend(rule_findings);
        ran.push(name.to_string());
    }
    Ok((findings, ran))
}
