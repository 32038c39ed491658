//! `frame-kind-coverage`: every variant of the wire-format frame-kind enum
//! must appear in the encode function, the decode function, and at least one
//! of the configured property-test files. Adding a frame kind without
//! touching all three is exactly the class of bug that corrupts archives
//! silently, so the rule fails closed on the variant's declaration line.

use crate::lexer::{contains_token, enum_spans, function_spans};
use crate::{Finding, Workspace, CONFIG_FILE};
use tw_json::Value;

pub const NAME: &str = "frame-kind-coverage";
const SECTION: &str = "rule.frame-kind-coverage";

pub fn check(ws: &Workspace) -> Result<Vec<Finding>, crate::AnalyzeError> {
    let mut out = Vec::new();
    let Some(spec) = ws.setting(SECTION, "enum").and_then(Value::as_str) else {
        // Rule not configured for this workspace (fixture roots often skip it).
        return Ok(out);
    };
    let encode_fn = ws
        .setting(SECTION, "encode")
        .and_then(Value::as_str)
        .unwrap_or("to_byte");
    let decode_fn = ws
        .setting(SECTION, "decode")
        .and_then(Value::as_str)
        .unwrap_or("from_byte");
    let proptests = ws
        .setting(SECTION, "proptests")
        .and_then(Value::as_string_list)
        .unwrap_or_default();

    let Some((file_rel, enum_name)) = spec.rsplit_once("::") else {
        out.push(Finding::new(
            NAME,
            CONFIG_FILE,
            0,
            format!("bad enum spec {spec:?} — expected \"<file>::<Enum>\""),
        ));
        return Ok(out);
    };
    let Some(file) = ws.file(file_rel) else {
        out.push(Finding::new(
            NAME,
            CONFIG_FILE,
            0,
            format!("enum spec {spec:?} names a file that is not in the workspace"),
        ));
        return Ok(out);
    };
    let spans = enum_spans(&file.scanned, enum_name);
    let Some(&(start, end)) = spans.first() else {
        out.push(Finding::new(
            NAME,
            file_rel,
            0,
            format!("enum `{enum_name}` not found — update {CONFIG_FILE}"),
        ));
        return Ok(out);
    };

    // Variants: lines strictly inside the enum body whose first code token is
    // a capitalized identifier (skips attributes and doc comments, which the
    // scanner already blanked).
    let mut variants: Vec<(String, usize)> = Vec::new();
    for idx in start..end.saturating_sub(1) {
        let code = file.scanned.lines[idx].code.trim();
        let ident: String = code
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if ident.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            variants.push((ident, idx + 1));
        }
    }

    let encode_lines = span_lines(file, encode_fn);
    let decode_lines = span_lines(file, decode_fn);
    for (variant, line) in &variants {
        let mut missing = Vec::new();
        if !encode_lines
            .iter()
            .any(|idx| contains_token(&file.scanned.lines[*idx].code, variant))
        {
            missing.push(format!("encode fn `{encode_fn}`"));
        }
        if !decode_lines
            .iter()
            .any(|idx| contains_token(&file.scanned.lines[*idx].code, variant))
        {
            missing.push(format!("decode fn `{decode_fn}`"));
        }
        let in_proptest = proptests.iter().any(|rel| match ws.file(rel) {
            Some(pt) => pt
                .scanned
                .lines
                .iter()
                .any(|l| contains_token(&l.code, variant)),
            None => false,
        });
        if !proptests.is_empty() && !in_proptest {
            missing.push("the configured proptest files".to_string());
        }
        if !missing.is_empty() {
            out.push(Finding::new(
                NAME,
                file_rel,
                *line,
                format!(
                    "`{enum_name}::{variant}` is not covered by {}",
                    missing.join(", ")
                ),
            ));
        }
    }
    for rel in &proptests {
        if ws.file(rel).is_none() {
            out.push(Finding::new(
                NAME,
                CONFIG_FILE,
                0,
                format!("proptest file {rel:?} is not in the workspace"),
            ));
        }
    }
    Ok(out)
}

/// 0-based line indices covered by every function with this name.
fn span_lines(file: &crate::SourceFile, fn_name: &str) -> Vec<usize> {
    function_spans(&file.scanned, fn_name)
        .into_iter()
        .flat_map(|(start, end)| (start - 1)..end)
        .collect()
}
