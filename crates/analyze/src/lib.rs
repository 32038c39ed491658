//! # tw-analyze
//!
//! Workspace-native static analysis: an offline pass over the workspace's
//! own Rust source that enforces the invariants the code has
//! already bought — no panics in library code, no allocation in the ingest
//! hot path, metric names that agree across code, manifest, and README,
//! every frame kind covered by encode/decode/proptests, no blocking
//! channel operations while a lock guard is live, and no `pub` item that
//! only tests name. The report also counts the tree's non-test code lines.
//!
//! The pass runs as `traffic-warehouse analyze` (or `cargo run -p
//! tw-analyze`) and is gated in CI with `--deny-warnings`. Rules are
//! deny-by-default: every finding must be fixed or explicitly waived with an
//! inline justification:
//!
//! ```text
//! // tw-analyze: allow(no-panic-in-lib, "static table indices are proven by tests")
//! // tw-analyze: allow-file(no-panic-in-lib, "figure data built from vetted literals")
//! ```
//!
//! `analyze.json` at the workspace root configures path scopes and per-rule
//! inputs; `metrics.json` is the canonical manifest of metric names. Both are
//! the workspace's one config dialect, read by `tw-json` (`//` comments and
//! trailing commas allowed, errors by line and column); each top-level key
//! is a section (`"paths"`, `"rule.<name>"`, `"counter"`, …). Source files
//! go through the Rust line scanner in [`lexer`] — recursive-descent, total,
//! and property-tested to never panic on arbitrary bytes.

pub mod lexer;
pub mod report;
pub mod rules;

pub use report::{Finding, Report, Waiver, WaiverScope};

use std::fmt;
use std::path::{Path, PathBuf};

use tw_json::{JsonError, Value};

/// The analyzer's configuration file, at the workspace root.
const CONFIG_FILE: &str = "analyze.json";

/// How a source file participates in analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library code: all rules apply.
    Lib,
    /// Binary / CLI code: panics are the process boundary's prerogative.
    Bin,
    /// Tests, benches, examples, fixtures: scanned (their waivers and the
    /// frame-coverage rule need them) but exempt from the lib rules.
    TestLike,
}

/// One scanned workspace source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    pub class: FileClass,
    pub scanned: lexer::ScannedFile,
    /// Non-blank lines outside `#[cfg(test)]` regions that are not
    /// comment-only (a line inside a multi-line string counts).
    pub code_lines: usize,
}

/// The loaded workspace: configuration plus every scanned source file.
#[derive(Debug, Clone)]
pub struct Workspace {
    pub root: PathBuf,
    pub config: Value,
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Find a scanned file by its workspace-relative path.
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }

    /// Read a workspace-relative text file (for manifests and README).
    pub fn read_text(&self, rel: &str) -> Result<String, AnalyzeError> {
        let path = self.root.join(rel);
        std::fs::read(&path)
            .map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
            .map_err(|e| AnalyzeError::Io(rel.to_string(), e.to_string()))
    }

    /// One `key` of a top-level config `section`, if both exist.
    pub fn setting(&self, section: &str, key: &str) -> Option<&Value> {
        self.config.get(section)?.get(key)
    }
}

/// Parse the text of the workspace-relative config file `rel`.
fn parse_config(rel: &str, text: &str) -> Result<Value, AnalyzeError> {
    tw_json::parse(text).map_err(|e| AnalyzeError::Config(rel.to_string(), e))
}

/// Analysis failures (I/O and configuration; findings are not errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzeError {
    /// `path, message`
    Io(String, String),
    /// `file, parse error` (the error carries its line and column)
    Config(String, JsonError),
    /// No `analyze.json` found walking up from the start directory.
    NoWorkspace(String),
    /// An unknown rule was requested via `--rule`.
    UnknownRule(String),
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::Io(path, e) => write!(f, "{path}: {e}"),
            AnalyzeError::Config(file, e) => write!(f, "{file}: {e}"),
            AnalyzeError::NoWorkspace(start) => {
                write!(f, "no {CONFIG_FILE} found above {start}")
            }
            AnalyzeError::UnknownRule(rule) => {
                write!(
                    f,
                    "unknown rule {rule:?}; known rules: {}",
                    rules::ALL
                        .iter()
                        .map(|(name, _)| *name)
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            }
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// Options for one analysis run.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Restrict the run to one rule (plus waiver hygiene).
    pub rule: Option<String>,
}

/// Walk up from `start` to the nearest directory containing `analyze.json`.
pub fn find_workspace_root(start: &Path) -> Result<PathBuf, AnalyzeError> {
    let mut dir = if start.is_absolute() {
        start.to_path_buf()
    } else {
        std::env::current_dir()
            .map_err(|e| AnalyzeError::Io(".".into(), e.to_string()))?
            .join(start)
    };
    loop {
        if dir.join(CONFIG_FILE).is_file() {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err(AnalyzeError::NoWorkspace(start.display().to_string()));
        }
    }
}

/// Load and scan the workspace rooted at `root`.
pub fn load_workspace(root: &Path) -> Result<Workspace, AnalyzeError> {
    let config_text = std::fs::read_to_string(root.join(CONFIG_FILE))
        .map_err(|e| AnalyzeError::Io(CONFIG_FILE.into(), e.to_string()))?;
    let config = parse_config(CONFIG_FILE, &config_text)?;

    let paths = |key: &str| config.get("paths")?.get(key)?.as_string_list();
    let include = paths("include").unwrap_or_else(|| vec!["crates".to_string()]);
    let exclude = paths("exclude").unwrap_or_default();
    let bin_crates = paths("bin_crates").unwrap_or_default();

    let mut rels = Vec::new();
    for inc in &include {
        collect_rust_files(root, &root.join(inc), &mut rels)?;
    }
    rels.sort();
    rels.dedup();

    let mut files = Vec::new();
    for rel in rels {
        if exclude
            .iter()
            .any(|p| rel == *p || rel.starts_with(&format!("{p}/")))
        {
            continue;
        }
        let bytes = std::fs::read(root.join(&rel))
            .map_err(|e| AnalyzeError::Io(rel.clone(), e.to_string()))?;
        let scanned = lexer::scan_bytes(&bytes);
        let class = classify(&rel, &bin_crates);
        let code_lines = count_code_lines(&bytes, &scanned);
        files.push(SourceFile {
            rel,
            class,
            scanned,
            code_lines,
        });
    }
    Ok(Workspace {
        root: root.to_path_buf(),
        config,
        files,
    })
}

/// Count the lines of `bytes` that are non-blank, outside `#[cfg(test)]`,
/// and not comment-only, pairing each source line with its scanned line.
fn count_code_lines(bytes: &[u8], scanned: &lexer::ScannedFile) -> usize {
    bytes
        .split(|&b| b == b'\n')
        .zip(&scanned.lines)
        .filter(|(raw, line)| {
            !line.in_test
                && !raw.iter().all(u8::is_ascii_whitespace)
                && (!line.code.trim().is_empty() || line.comment.trim().is_empty())
        })
        .count()
}

/// Recursively collect `.rs` files under `dir`, as workspace-relative paths.
pub(crate) fn collect_rust_files(
    root: &Path,
    dir: &Path,
    out: &mut Vec<String>,
) -> Result<(), AnalyzeError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(_) => return Ok(()), // a configured include that does not exist
    };
    let mut names: Vec<PathBuf> = Vec::new();
    for entry in entries.flatten() {
        names.push(entry.path());
    }
    names.sort();
    for path in names {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rust_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

/// Classify a workspace-relative path.
fn classify(rel: &str, bin_crates: &[String]) -> FileClass {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts
        .iter()
        .any(|p| *p == "tests" || *p == "benches" || *p == "examples" || *p == "fixtures")
    {
        return FileClass::TestLike;
    }
    if rel.ends_with("src/main.rs") || parts.contains(&"bin") {
        return FileClass::Bin;
    }
    if bin_crates
        .iter()
        .any(|c| rel == *c || rel.starts_with(&format!("{c}/")))
    {
        return FileClass::Bin;
    }
    FileClass::Lib
}

/// Parse every waiver comment in the workspace. Malformed waivers come back
/// as findings.
fn collect_waivers(ws: &Workspace) -> (Vec<Waiver>, Vec<Finding>) {
    let mut waivers = Vec::new();
    let mut malformed = Vec::new();
    for file in &ws.files {
        for (idx, line) in file.scanned.lines.iter().enumerate() {
            // Waivers live in plain `//` comments; doc comments only *talk*
            // about the syntax (rule docs, this file's own examples).
            let trimmed = line.comment.trim_start();
            if trimmed.starts_with("///") || trimmed.starts_with("//!") {
                continue;
            }
            let Some(pos) = line.comment.find("tw-analyze:") else {
                continue;
            };
            let line_no = idx + 1;
            let rest = &line.comment[pos + "tw-analyze:".len()..];
            match parse_waiver_comment(rest) {
                Ok((rule, reason, file_scope)) => {
                    let scope = if file_scope {
                        WaiverScope::File
                    } else {
                        WaiverScope::Line
                    };
                    let target = if file_scope {
                        0
                    } else {
                        waiver_target(&file.scanned, idx)
                    };
                    waivers.push(Waiver {
                        rule,
                        file: file.rel.clone(),
                        line: line_no,
                        target,
                        reason,
                        scope,
                        used: false,
                    });
                }
                Err(message) => {
                    malformed.push(Finding::new(
                        rules::MALFORMED_WAIVER,
                        &file.rel,
                        line_no,
                        message,
                    ));
                }
            }
        }
    }
    (waivers, malformed)
}

/// The line a comment-scope waiver covers: its own line when it trails code,
/// otherwise the next line carrying code.
fn waiver_target(scanned: &lexer::ScannedFile, idx: usize) -> usize {
    if !scanned.lines[idx].code.trim().is_empty() {
        return idx + 1;
    }
    for (j, line) in scanned.lines.iter().enumerate().skip(idx + 1) {
        if !line.code.trim().is_empty() {
            return j + 1;
        }
    }
    idx + 1
}

/// Parse the text after `tw-analyze:` — `allow(rule, "reason")` or
/// `allow-file(rule, "reason")` — recursive-descent style.
fn parse_waiver_comment(text: &str) -> Result<(String, String, bool), String> {
    let text = text.trim_start();
    let (file_scope, rest) = if let Some(rest) = text.strip_prefix("allow-file") {
        (true, rest)
    } else if let Some(rest) = text.strip_prefix("allow") {
        (false, rest)
    } else {
        return Err("expected `allow(...)` or `allow-file(...)` after `tw-analyze:`".into());
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return Err("expected '(' after allow".into());
    };
    let Some(comma) = rest.find(',') else {
        return Err("expected `allow(<rule>, \"<why>\")` — missing comma".into());
    };
    let rule = rest[..comma].trim().to_string();
    if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_lowercase() || c == '-') {
        return Err(format!("bad rule name {rule:?} in waiver"));
    }
    let rest = rest[comma + 1..].trim_start();
    let Some(rest) = rest.strip_prefix('"') else {
        return Err("waivers need a quoted justification".into());
    };
    let Some(end) = rest.find('"') else {
        return Err("unterminated justification string".into());
    };
    let reason = rest[..end].trim().to_string();
    if reason.is_empty() {
        return Err("waiver justification must not be empty".into());
    }
    let after = rest[end + 1..].trim_start();
    if !after.starts_with(')') {
        return Err("expected ')' closing the waiver".into());
    }
    Ok((rule, reason, file_scope))
}

/// Run the full pass: load, scan, rule-check, waive, and report.
pub fn analyze_with(root: &Path, options: &Options) -> Result<Report, AnalyzeError> {
    if let Some(rule) = &options.rule {
        if !rules::is_known(rule) {
            return Err(AnalyzeError::UnknownRule(rule.clone()));
        }
    }
    let ws = load_workspace(root)?;
    let (mut waivers, malformed) = collect_waivers(&ws);
    let (mut findings, rules_run) = rules::run(&ws, options.rule.as_deref())?;

    // Match findings to waivers: a line waiver covers findings of its rule
    // on its target line, a file waiver covers the whole file.
    for finding in &mut findings {
        let matched = waivers.iter_mut().find(|w| {
            w.rule == finding.rule
                && w.file == finding.file
                && match w.scope {
                    WaiverScope::File => true,
                    WaiverScope::Line => w.target == finding.line,
                }
        });
        if let Some(waiver) = matched {
            waiver.used = true;
            finding.waived = Some(waiver.reason.clone());
        }
    }

    // Waiver hygiene: malformed waivers always surface; waivers that silence
    // nothing are dead weight and must be removed (the ratchet never loosens
    // silently). When a single rule is requested, only that rule's stale
    // waivers are reported — others were never given a chance to match.
    findings.extend(malformed);
    for waiver in &waivers {
        let in_scope = match &options.rule {
            Some(rule) => waiver.rule == *rule,
            None => true,
        };
        if in_scope && !waiver.used && rules::is_known(&waiver.rule) {
            findings.push(Finding::new(
                rules::STALE_WAIVER,
                &waiver.file,
                waiver.line,
                format!(
                    "stale waiver: no {} finding left on its target — remove it",
                    waiver.rule
                ),
            ));
        } else if in_scope && !rules::is_known(&waiver.rule) {
            findings.push(Finding::new(
                rules::STALE_WAIVER,
                &waiver.file,
                waiver.line,
                format!("waiver names unknown rule {:?}", waiver.rule),
            ));
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    Ok(Report {
        findings,
        waivers,
        files_scanned: ws.files.len(),
        code_lines: ws
            .files
            .iter()
            .filter(|f| f.class != FileClass::TestLike)
            .map(|f| f.code_lines)
            .sum(),
        rules_run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiver_comment_grammar() {
        assert_eq!(
            parse_waiver_comment(" allow(no-panic-in-lib, \"why not\")"),
            Ok(("no-panic-in-lib".into(), "why not".into(), false))
        );
        assert_eq!(
            parse_waiver_comment("allow-file(hot-path-no-alloc, \"cold path\") trailing"),
            Ok(("hot-path-no-alloc".into(), "cold path".into(), true))
        );
        assert!(parse_waiver_comment("allow(rule)").is_err());
        assert!(parse_waiver_comment("allow(rule, \"\")").is_err());
        assert!(parse_waiver_comment("allow(RULE, \"x\")").is_err());
        assert!(parse_waiver_comment("deny(rule, \"x\")").is_err());
    }

    #[test]
    fn code_lines_skip_blank_comment_and_test_lines() {
        let src = "//! doc\n\nfn a() {\n    /* block\n       comment */\n    let s = \"one\ntwo\n\nthree\";\n}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        // `fn a() {`, the string's `one`, `two` and `three` lines, and `}`:
        // a line inside a string counts unless it is blank.
        let scanned = lexer::scan(src);
        assert_eq!(count_code_lines(src.as_bytes(), &scanned), 5);
    }

    #[test]
    fn classify_paths() {
        let bins = vec!["crates/cli".to_string()];
        assert_eq!(classify("crates/ingest/src/lib.rs", &bins), FileClass::Lib);
        assert_eq!(classify("crates/cli/src/lib.rs", &bins), FileClass::Bin);
        assert_eq!(classify("crates/serve/src/main.rs", &[]), FileClass::Bin);
        assert_eq!(
            classify("crates/ingest/tests/proptest_frame.rs", &[]),
            FileClass::TestLike
        );
        assert_eq!(
            classify("crates/analyze/tests/fixtures/demo/src/lib.rs", &[]),
            FileClass::TestLike
        );
        assert_eq!(
            classify("crates/core/examples/replay.rs", &[]),
            FileClass::TestLike
        );
    }
}
