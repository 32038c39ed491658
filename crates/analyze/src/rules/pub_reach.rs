//! `pub-reach`: a `pub` item must be reached by code that runs. A `pub`
//! fn, struct, enum, trait, const, static or type declared in non-test
//! library code is a finding unless its name appears as a code token on
//! some other non-test line that is neither its declaration, a `use` line
//! nor an `impl` header. Reaching lines come from every scanned file outside
//! `tests/` directories (library, CLI, benches, examples) and from the
//! `"name_roots"` setting: extra source trees (the `classbench` benchmark) read
//! for names only, so nothing they call can be flagged. An item that stays
//! without such a caller (a paper-figure API, say) carries a waiver naming
//! what it serves. `pub(crate)` items are left to rustc's dead-code lint.
//!
//! The rule matches names, not paths or types, so it errs toward silence:
//!
//! - a method named like any other (`len`, `get`, `new`) is reached by every
//!   call of that name anywhere in the tree;
//! - a type named inside its own `impl` body (a constructor written
//!   `-> Config` rather than `-> Self`) is reached by that body, even if
//!   nothing outside uses it;
//! - a name used only as an inline format argument (`"{NAME}"`) sits in a
//!   string literal and does not count.

use std::collections::HashMap;
use std::path::Path;

use tw_json::Value;

use crate::lexer::{self, ScannedFile};
use crate::{collect_rust_files, AnalyzeError, FileClass, Finding, Workspace};

pub const NAME: &str = "pub-reach";
const SECTION: &str = "rule.pub-reach";

/// Item keywords that declare a name after `pub`.
const ITEM_KEYWORDS: &[&str] = &["fn", "struct", "enum", "trait", "const", "static", "type"];

/// Where each name is mentioned: the first (file, line) seen, and whether a
/// second, different line also names it.
#[derive(Default)]
struct Mentions {
    seen: HashMap<String, ((usize, usize), bool)>,
}

impl Mentions {
    fn add_file(&mut self, file_id: usize, scanned: &ScannedFile) {
        let mut in_use = false;
        for (idx, line) in scanned.lines.iter().enumerate() {
            let code = line.code.trim();
            let starts_use = is_use_start(code);
            let skip = line.in_test || in_use || starts_use || is_impl_header(code);
            if starts_use || in_use {
                in_use = !code.contains(';');
            }
            if skip {
                continue;
            }
            for token in identifiers(code) {
                let here = (file_id, idx + 1);
                self.seen
                    .entry(token.to_string())
                    .and_modify(|(first, again)| *again |= *first != here)
                    .or_insert((here, false));
            }
        }
    }

    /// True when `name` is mentioned on some line other than `at`.
    fn reached(&self, name: &str, at: (usize, usize)) -> bool {
        self.seen
            .get(name)
            .is_some_and(|(first, again)| *again || *first != at)
    }
}

pub fn check(ws: &Workspace) -> Result<Vec<Finding>, AnalyzeError> {
    let mut mentions = Mentions::default();
    for (id, file) in ws.files.iter().enumerate() {
        if !is_test_path(&file.rel) {
            mentions.add_file(id, &file.scanned);
        }
    }
    let roots = ws
        .setting(SECTION, "name_roots")
        .and_then(Value::as_string_list)
        .unwrap_or_default();
    let mut extra = Vec::new();
    for root in &roots {
        collect_rust_files(&ws.root, &ws.root.join(root), &mut extra)?;
    }
    for (offset, rel) in extra.iter().enumerate() {
        if is_test_path(rel) {
            continue;
        }
        let bytes = std::fs::read(ws.root.join(Path::new(rel)))
            .map_err(|e| AnalyzeError::Io(rel.clone(), e.to_string()))?;
        mentions.add_file(ws.files.len() + offset, &lexer::scan_bytes(&bytes));
    }

    let mut out = Vec::new();
    for (id, file) in ws.files.iter().enumerate() {
        if file.class != FileClass::Lib {
            continue;
        }
        for (idx, line) in file.scanned.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let Some((kind, name)) = declared_item(&line.code) else {
                continue;
            };
            if !mentions.reached(name, (id, idx + 1)) {
                out.push(Finding::new(
                    NAME,
                    &file.rel,
                    idx + 1,
                    format!(
                        "`pub {kind} {name}` is named by no non-test code outside its \
                         declaration — delete it, or waive naming the figure, table or \
                         caller it serves"
                    ),
                ));
            }
        }
    }
    Ok(out)
}

/// True for paths inside a `tests/` directory: test code reaches nothing.
fn is_test_path(rel: &str) -> bool {
    rel.split('/').any(|part| part == "tests")
}

/// The identifier tokens of a code line.
fn identifiers(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|t| t.starts_with(|c: char| c.is_alphabetic() || c == '_'))
}

/// True when a (trimmed) code line opens a `use` declaration.
fn is_use_start(code: &str) -> bool {
    let rest = match code.strip_prefix("pub") {
        Some(vis) if vis.starts_with('(') => vis.split_once(')').map_or(vis, |(_, rest)| rest),
        Some(rest) => rest,
        None => code,
    };
    rest.trim_start().starts_with("use ")
}

/// True when a (trimmed) code line is an `impl` header.
fn is_impl_header(code: &str) -> bool {
    let rest = code.strip_prefix("unsafe").unwrap_or(code).trim_start();
    rest.strip_prefix("impl")
        .is_some_and(|after| after.is_empty() || after.starts_with(['<', ' ', '\t']))
}

/// The (keyword, name) a `pub` item declaration on this code line declares:
/// `pub [const|async|unsafe|extern "…"]* <keyword> [mut] <name>`.
fn declared_item(code: &str) -> Option<(&'static str, &str)> {
    let rest = code.trim_start().strip_prefix("pub")?;
    if !rest.starts_with([' ', '\t']) {
        return None; // `pub(crate)` and friends, or an identifier like `public`
    }
    let mut words = rest
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty());
    let mut word = words.next()?;
    loop {
        let next = words.next()?;
        match word {
            "const"
                if ITEM_KEYWORDS.contains(&next)
                    || matches!(next, "unsafe" | "async" | "extern") => {}
            "unsafe" | "async" | "extern" => {}
            _ => {
                let keyword = *ITEM_KEYWORDS.iter().find(|k| **k == word)?;
                let name = if keyword == "static" && next == "mut" {
                    words.next()?
                } else {
                    next
                };
                return (name != "_").then_some((keyword, name));
            }
        }
        word = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declarations_and_their_names() {
        assert_eq!(declared_item("pub fn mxv<S>("), Some(("fn", "mxv")));
        assert_eq!(
            declared_item("    pub const fn new() -> Self {"),
            Some(("fn", "new"))
        );
        assert_eq!(
            declared_item("pub const MAX: usize = 4;"),
            Some(("const", "MAX"))
        );
        assert_eq!(
            declared_item("pub static mut HITS: u64 = 0;"),
            Some(("static", "HITS"))
        );
        assert_eq!(
            declared_item("pub unsafe extern \" \" fn raw()"),
            Some(("fn", "raw"))
        );
        assert_eq!(
            declared_item("pub struct Csr<T> {"),
            Some(("struct", "Csr"))
        );
        assert_eq!(
            declared_item("pub type Result<T> = x;"),
            Some(("type", "Result"))
        );
        assert_eq!(declared_item("pub(crate) fn hidden()"), None);
        assert_eq!(declared_item("pub mod ops;"), None);
        assert_eq!(declared_item("pub use ops::mxv;"), None);
        assert_eq!(declared_item("pub const _: () = ();"), None);
        assert_eq!(declared_item("    pub rows: usize,"), None);
    }

    #[test]
    fn use_lines_and_impl_headers() {
        assert!(is_use_start("use std::fmt;"));
        assert!(is_use_start("pub use ops::{mxv,"));
        assert!(is_use_start("pub(crate) use super::Csr;"));
        assert!(!is_use_start("user.run();"));
        assert!(is_impl_header("impl<T: Copy> Csr<T> {"));
        assert!(is_impl_header("unsafe impl Send for Csr {}"));
        assert!(!is_impl_header("implied(x);"));
    }
}
