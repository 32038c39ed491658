//! `hot-path-no-alloc`: the functions named in `analyze.json` — the ingest
//! hot path that PRs past spent so much effort keeping allocation-free —
//! must not regress into allocating per call. The deny list is token-based
//! (`vec!`, `.collect()`, `.to_vec()`, …) and configurable; cold-start
//! allocations inside those functions (first-window scratch builds) carry
//! inline waivers.

use crate::lexer::{contains_token, function_spans};
use crate::{Finding, Workspace, CONFIG_FILE};
use tw_json::Value;

pub const NAME: &str = "hot-path-no-alloc";
const SECTION: &str = "rule.hot-path-no-alloc";

/// Used when `analyze.json` does not override `deny`.
const DEFAULT_DENY: &[&str] = &[
    "Vec::new",
    "vec!",
    ".to_vec()",
    ".collect()",
    ".collect::<",
    ".clone()",
    "Box::new",
    "String::new",
    ".to_string()",
    ".to_owned()",
    "format!",
];

pub fn check(ws: &Workspace) -> Result<Vec<Finding>, crate::AnalyzeError> {
    let mut out = Vec::new();
    let functions = ws
        .setting(SECTION, "functions")
        .and_then(Value::as_string_list)
        .unwrap_or_default();
    let deny: Vec<String> = ws
        .setting(SECTION, "deny")
        .and_then(Value::as_string_list)
        .unwrap_or_else(|| DEFAULT_DENY.iter().map(|s| s.to_string()).collect());

    for spec in &functions {
        let Some((path, fn_name)) = spec.rsplit_once("::") else {
            out.push(Finding::new(
                NAME,
                CONFIG_FILE,
                0,
                format!("bad hot-path spec {spec:?} — expected \"<file>::<fn>\""),
            ));
            continue;
        };
        let Some(file) = ws.file(path) else {
            out.push(Finding::new(
                NAME,
                CONFIG_FILE,
                0,
                format!("hot-path spec {spec:?} names a file that is not in the workspace"),
            ));
            continue;
        };
        let spans = function_spans(&file.scanned, fn_name);
        if spans.is_empty() {
            out.push(Finding::new(
                NAME,
                path,
                0,
                format!("hot-path function `{fn_name}` not found — update {CONFIG_FILE}"),
            ));
            continue;
        }
        for (start, end) in spans {
            for idx in (start - 1)..end {
                let line = &file.scanned.lines[idx];
                if line.in_test {
                    continue;
                }
                for token in &deny {
                    if contains_token(&line.code, token) {
                        out.push(Finding::new(
                            NAME,
                            path,
                            idx + 1,
                            format!("`{token}` inside hot-path function `{fn_name}`"),
                        ));
                        break;
                    }
                }
            }
        }
    }
    Ok(out)
}
