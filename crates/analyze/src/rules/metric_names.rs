//! `metric-name-registry`: every metric name must agree across three places —
//! the code that registers it (`registry.counter("…")` and friends), the
//! canonical manifest (`metrics.json`), and the README's observability
//! documentation. The rule checks all directions:
//!
//! - a literal name passed to `.counter(` / `.gauge(` / `.histogram(` in
//!   non-test library/binary code must exist in the manifest *under that
//!   kind* (wildcard entries like `serve.peer.*.delivered` match per-segment);
//! - a non-literal name on a registry receiver needs a waiver (the one
//!   legitimate case is per-peer wildcard expansion);
//! - every exact manifest entry must be registered by some code literal;
//! - every backticked dotted token in the README whose first segment is a
//!   known metric namespace must exist in the manifest (this is what catches
//!   `pipeline.sort_merges`-style prose drift);
//! - every manifest entry must be documented in the README.

use std::collections::{BTreeMap, BTreeSet};

use tw_json::Value;

use crate::lexer::find_token_from;
use crate::{parse_config, AnalyzeError, FileClass, Finding, Workspace};

pub const NAME: &str = "metric-name-registry";
const SECTION: &str = "rule.metric-name-registry";

const KINDS: &[(&str, &str)] = &[
    ("counter", ".counter("),
    ("gauge", ".gauge("),
    ("histogram", ".histogram("),
];

/// README tokens whose final dot-segment is a file extension are paths, not
/// metric names.
const EXT_SKIP: &[&str] = &[
    "rs", "toml", "md", "json", "zip", "yml", "yaml", "log", "txt", "ppm", "lock", "sh",
];

struct Manifest {
    /// `name -> (kind, manifest line)`; wildcard names keep their `*`.
    entries: BTreeMap<String, (String, usize)>,
    /// First segments of every entry (`pipeline`, `serve`, …).
    prefixes: BTreeSet<String>,
    rel: String,
}

impl Manifest {
    /// Find `name` (exact first, then wildcard) and return the matching
    /// manifest key and its kind.
    fn lookup<'a>(&'a self, name: &str) -> Option<(&'a str, &'a str)> {
        if let Some((key, (kind, _))) = self.entries.get_key_value(name) {
            return Some((key.as_str(), kind.as_str()));
        }
        self.entries
            .iter()
            .find(|(key, _)| key.contains('*') && wildcard_match(key, name))
            .map(|(key, (kind, _))| (key.as_str(), kind.as_str()))
    }
}

/// Segment-wise wildcard match: `*` matches exactly one segment.
fn wildcard_match(pattern: &str, name: &str) -> bool {
    let pat: Vec<&str> = pattern.split('.').collect();
    let got: Vec<&str> = name.split('.').collect();
    pat.len() == got.len() && pat.iter().zip(&got).all(|(p, g)| *p == "*" || p == g)
}

/// The 1-based line declaring manifest entry `key`: the first non-comment
/// line holding it quoted (tw-json values carry no positions), or 0.
fn declared_line(text: &str, key: &str) -> usize {
    let quoted = tw_json::ser::escape_string(key);
    text.lines()
        .position(|line| !line.trim_start().starts_with("//") && line.contains(&quoted))
        .map_or(0, |idx| idx + 1)
}

fn load_manifest(ws: &Workspace, rel: &str) -> Result<Manifest, AnalyzeError> {
    let text = ws.read_text(rel)?;
    let doc = parse_config(rel, &text)?;
    let mut entries = BTreeMap::new();
    let mut prefixes = BTreeSet::new();
    for (kind, _) in KINDS {
        let Some(section) = doc.get(kind).and_then(Value::as_object) else {
            continue;
        };
        for key in section.keys() {
            entries.insert(
                key.to_string(),
                (kind.to_string(), declared_line(&text, key)),
            );
            if let Some(first) = key.split('.').next() {
                prefixes.insert(first.to_string());
            }
        }
    }
    Ok(Manifest {
        entries,
        prefixes,
        rel: rel.to_string(),
    })
}

pub fn check(ws: &Workspace) -> Result<Vec<Finding>, AnalyzeError> {
    let manifest_rel = ws
        .setting(SECTION, "manifest")
        .and_then(Value::as_str)
        .unwrap_or("metrics.json");
    let readme_rel = ws
        .setting(SECTION, "readme")
        .and_then(Value::as_str)
        .unwrap_or("README.md");
    let manifest = load_manifest(ws, manifest_rel)?;

    let mut out = Vec::new();
    let mut used: BTreeSet<String> = BTreeSet::new();
    check_code(ws, &manifest, &mut used, &mut out);

    // Exact manifest entries never registered by a code literal are dead
    // names (wildcards are expanded at runtime and proven by their waived
    // registration sites instead).
    for (name, (_, line)) in &manifest.entries {
        if !name.contains('*') && !used.contains(name) {
            out.push(Finding::new(
                NAME,
                &manifest.rel,
                *line,
                format!("manifest metric `{name}` is never registered in code"),
            ));
        }
    }

    check_readme(ws, &manifest, readme_rel, &mut out)?;
    Ok(out)
}

/// Scan registry call sites in non-test Lib/Bin code.
fn check_code(
    ws: &Workspace,
    manifest: &Manifest,
    used: &mut BTreeSet<String>,
    out: &mut Vec<Finding>,
) {
    for file in &ws.files {
        if file.class == FileClass::TestLike {
            continue;
        }
        for (idx, line) in file.scanned.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            for (kind, method) in KINDS {
                let mut from = 0;
                while let Some(pos) = find_token_from(&line.code, method, from) {
                    from = pos + 1;
                    let arg_col = pos + method.chars().count();
                    check_call_site(file, idx, line, pos, arg_col, kind, manifest, used, out);
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn check_call_site(
    file: &crate::SourceFile,
    idx: usize,
    line: &crate::lexer::ScannedLine,
    method_pos: usize,
    arg_col: usize,
    kind: &str,
    manifest: &Manifest,
    used: &mut BTreeSet<String>,
    out: &mut Vec<Finding>,
) {
    let chars: Vec<char> = line.code.chars().collect();
    let mut col = arg_col;
    while chars.get(col).is_some_and(|c| *c == ' ') {
        col += 1;
    }
    match chars.get(col) {
        Some('"') => {
            // `col` is the opening quote; the scanner records the literal at
            // its first body character, one column later.
            let Some(lit) = file
                .scanned
                .strings
                .iter()
                .find(|s| s.line == idx + 1 && s.col == col + 1)
            else {
                return;
            };
            let name = lit.text.clone();
            if !name.contains('.') {
                if receiver_is_registry(&chars, method_pos) {
                    out.push(Finding::new(
                        NAME,
                        &file.rel,
                        idx + 1,
                        format!("metric name `{name}` has no namespace segment"),
                    ));
                }
                return;
            }
            match manifest.lookup(&name) {
                Some((key, found_kind)) if found_kind == kind => {
                    used.insert(key.to_string());
                }
                Some((_, found_kind)) => {
                    out.push(Finding::new(
                        NAME,
                        &file.rel,
                        idx + 1,
                        format!(
                            "metric `{name}` is a {found_kind} in {} but registered \
                             here as a {kind}",
                            manifest.rel
                        ),
                    ));
                }
                None => {
                    out.push(Finding::new(
                        NAME,
                        &file.rel,
                        idx + 1,
                        format!("metric `{name}` is not declared in {}", manifest.rel),
                    ));
                }
            }
        }
        _ => {
            if receiver_is_registry(&chars, method_pos) {
                out.push(Finding::new(
                    NAME,
                    &file.rel,
                    idx + 1,
                    format!(
                        "non-literal metric name passed to a registry {kind} — \
                         use a literal from {} or waive the expansion site",
                        manifest.rel
                    ),
                ));
            }
        }
    }
}

/// True when the identifier just before the `.counter(` call looks like a
/// metrics registry (`registry`, `some_registry`, `metrics`). Keeps the rule
/// from flagging unrelated `.counter(` methods on other types.
fn receiver_is_registry(chars: &[char], method_pos: usize) -> bool {
    let end = method_pos;
    // method_pos points at the '.'; walk back over the receiver identifier.
    let mut start = end;
    while start > 0 && (chars[start - 1].is_alphanumeric() || chars[start - 1] == '_') {
        start -= 1;
    }
    if start == end {
        // Receiver is an expression (`self.registry().counter(...)` or a
        // chained call); look further back for "registry" textually.
        let prefix: String = chars[..end].iter().collect();
        return prefix.contains("registry") || prefix.contains("metrics");
    }
    let ident: String = chars[start..end].iter().collect();
    ident == "metrics" || ident == "registry" || ident.ends_with("registry")
}

/// Scan the README for backticked dotted tokens in metric namespaces.
fn check_readme(
    ws: &Workspace,
    manifest: &Manifest,
    readme_rel: &str,
    out: &mut Vec<Finding>,
) -> Result<(), AnalyzeError> {
    let text = ws.read_text(readme_rel)?;
    let mut readme_names: BTreeSet<String> = BTreeSet::new();
    let mut pending: Vec<(usize, String)> = Vec::new();

    for (lineno, line) in text.lines().enumerate() {
        let mut last_full: Option<String> = None;
        for (i, span) in line.split('`').enumerate() {
            if i % 2 == 0 {
                continue; // outside backticks
            }
            for raw in span.split([' ', '/', ',']) {
                let token = raw.trim();
                if token.is_empty() {
                    continue;
                }
                let expanded = if let Some(rest) = token.strip_prefix('.') {
                    match &last_full {
                        // `.windows` after `pipeline.events` → pipeline.windows
                        Some(full) => match full.rsplit_once('.') {
                            Some((prefix, _)) => format!("{prefix}.{rest}"),
                            None => continue,
                        },
                        None => continue,
                    }
                } else {
                    token.to_string()
                };
                let Some(normalized) = normalize_metric_token(&expanded) else {
                    continue;
                };
                let first = normalized.split('.').next().unwrap_or("");
                if !manifest.prefixes.contains(first) {
                    continue;
                }
                last_full = Some(normalized.clone());
                readme_names.insert(normalized.clone());
                if manifest.lookup(&normalized).is_none() {
                    pending.push((
                        lineno + 1,
                        format!(
                            "README names `{normalized}` but {} does not declare it \
                             — prose drift",
                            manifest.rel
                        ),
                    ));
                }
            }
        }
    }
    for (line, message) in pending {
        out.push(Finding::new(NAME, readme_rel, line, message));
    }

    for (name, (_, line)) in &manifest.entries {
        let documented = readme_names
            .iter()
            .any(|r| r == name || wildcard_match(name, r) || wildcard_match(r, name));
        if !documented {
            out.push(Finding::new(
                NAME,
                &manifest.rel,
                *line,
                format!("metric `{name}` is missing from the README metric table"),
            ));
        }
    }
    Ok(())
}

/// Validate a candidate README token and normalize `<id>`-style segments to
/// `*`. Returns `None` for tokens that cannot be metric names (single
/// segment, file extensions, flags, …).
fn normalize_metric_token(token: &str) -> Option<String> {
    let segments: Vec<&str> = token.split('.').collect();
    if segments.len() < 2 || segments.iter().any(|s| s.is_empty()) {
        return None;
    }
    if EXT_SKIP.contains(segments.last().unwrap_or(&"")) {
        return None;
    }
    let first = segments[0];
    if !first
        .chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        || first.is_empty()
    {
        return None;
    }
    let mut norm = Vec::with_capacity(segments.len());
    for seg in &segments {
        if seg.contains('<') || *seg == "*" {
            norm.push("*".to_string());
        } else if seg
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        {
            norm.push(seg.to_string());
        } else {
            return None;
        }
    }
    Some(norm.join("."))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wildcard_segments() {
        assert!(wildcard_match(
            "serve.peer.*.delivered",
            "serve.peer.3.delivered"
        ));
        assert!(wildcard_match(
            "serve.peer.*.delivered",
            "serve.peer.*.delivered"
        ));
        assert!(!wildcard_match(
            "serve.peer.*.delivered",
            "serve.peer.delivered"
        ));
        assert!(!wildcard_match("a.*", "b.c"));
    }

    #[test]
    fn readme_token_normalization() {
        assert_eq!(
            normalize_metric_token("serve.peer.<id>.delivered"),
            Some("serve.peer.*.delivered".to_string())
        );
        assert_eq!(
            normalize_metric_token("pipeline.events"),
            Some("pipeline.events".to_string())
        );
        assert_eq!(normalize_metric_token("manifest.json"), None);
        assert_eq!(normalize_metric_token("plain"), None);
        assert_eq!(normalize_metric_token("Has.Upper"), None);
        assert_eq!(normalize_metric_token("a..b"), None);
    }

    #[test]
    fn registry_receivers() {
        let line: Vec<char> = "registry.counter(\"x\")".chars().collect();
        assert!(receiver_is_registry(&line, 8));
        let line: Vec<char> = "self.metrics_registry.counter(\"x\")".chars().collect();
        assert!(receiver_is_registry(&line, 21));
        let line: Vec<char> = "widget.counter(\"x\")".chars().collect();
        assert!(!receiver_is_registry(&line, 6));
    }
}
