//! Findings, waivers, and the rendered reports (human text + machine JSON).

use std::fmt::Write as _;

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier, e.g. `no-panic-in-lib`.
    pub rule: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line (0 = whole file).
    pub line: usize,
    pub message: String,
    /// The justification of the waiver that silenced this finding, if any.
    pub waived: Option<String>,
}

impl Finding {
    pub fn new(rule: &str, file: &str, line: usize, message: impl Into<String>) -> Self {
        Finding {
            rule: rule.to_string(),
            file: file.to_string(),
            line,
            message: message.into(),
            waived: None,
        }
    }
}

/// Where a waiver applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaiverScope {
    /// The line the comment sits on (or the next code line below it).
    Line,
    /// The whole file.
    File,
}

/// A parsed `// tw-analyze: allow(...)` comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    pub rule: String,
    pub file: String,
    /// Line of the waiver comment itself.
    pub line: usize,
    /// Line the waiver covers (== `line` for trailing comments, the next
    /// code line for comment-only lines; unused for file scope).
    pub target: usize,
    pub reason: String,
    pub scope: WaiverScope,
    /// Set during matching; an unused waiver is itself reported.
    pub used: bool,
}

/// The result of one analysis run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub waivers: Vec<Waiver>,
    pub files_scanned: usize,
    /// Non-blank, non-comment lines outside `#[cfg(test)]` in library and
    /// binary files: the size figure a deletion is measured by.
    pub code_lines: usize,
    pub rules_run: Vec<String>,
}

impl Report {
    /// Findings not silenced by a waiver.
    pub fn unwaived(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.waived.is_none())
    }

    pub fn unwaived_count(&self) -> usize {
        self.unwaived().count()
    }

    pub fn waived_count(&self) -> usize {
        self.findings.iter().filter(|f| f.waived.is_some()).count()
    }

    /// The human-readable report: one line per unwaived finding plus a
    /// one-line summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in self.unwaived() {
            if f.line == 0 {
                let _ = writeln!(out, "{}: [{}] {}", f.file, f.rule, f.message);
            } else {
                let _ = writeln!(out, "{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
            }
        }
        let _ = writeln!(
            out,
            "analyze: {} finding(s), {} waived, {} unwaived across {} file(s) \
             ({} non-test code lines in lib and bin files); rules: {}",
            self.findings.len(),
            self.waived_count(),
            self.unwaived_count(),
            self.files_scanned,
            self.code_lines,
            self.rules_run.join(", "),
        );
        out
    }

    /// The waiver audit: every active waiver with its location and reason.
    pub fn render_waivers(&self) -> String {
        let mut out = String::new();
        for w in &self.waivers {
            let scope = match w.scope {
                WaiverScope::Line => "line",
                WaiverScope::File => "file",
            };
            let _ = writeln!(
                out,
                "{}:{}: [{}] ({}) {:?}",
                w.file, w.line, w.rule, scope, w.reason
            );
        }
        let _ = writeln!(out, "{} active waiver(s)", self.waivers.len());
        out
    }

    /// The machine-readable JSON report.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"code_lines\": {},", self.code_lines);
        let _ = writeln!(out, "  \"unwaived\": {},", self.unwaived_count());
        let _ = writeln!(out, "  \"waived\": {},", self.waived_count());
        out.push_str("  \"rules\": [");
        for (i, rule) in self.rules_run.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_string(rule));
        }
        out.push_str("],\n");
        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"waived\": {}}}",
                json_string(&f.rule),
                json_string(&f.file),
                f.line,
                json_string(&f.message),
                match &f.waived {
                    Some(reason) => json_string(reason),
                    None => "null".to_string(),
                },
            );
            out.push_str(if i + 1 < self.findings.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"waivers\": [\n");
        for (i, w) in self.waivers.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"reason\": {}, \"scope\": {}, \"used\": {}}}",
                json_string(&w.rule),
                json_string(&w.file),
                w.line,
                json_string(&w.reason),
                json_string(match w.scope {
                    WaiverScope::Line => "line",
                    WaiverScope::File => "file",
                }),
                w.used,
            );
            out.push_str(if i + 1 < self.waivers.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// JSON-escape a string (quotes included in the output).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_report_lists_only_unwaived() {
        let mut report = Report {
            findings: vec![
                Finding::new("r1", "a.rs", 3, "bad"),
                Finding::new("r2", "b.rs", 7, "worse"),
            ],
            files_scanned: 2,
            rules_run: vec!["r1".into(), "r2".into()],
            ..Report::default()
        };
        report.findings[1].waived = Some("because".into());
        let text = report.render_text();
        assert!(text.contains("a.rs:3: [r1] bad"));
        assert!(!text.contains("b.rs:7"));
        assert!(text.contains("1 waived, 1 unwaived"));
    }

    #[test]
    fn json_escapes_and_structure() {
        let report = Report {
            findings: vec![Finding::new("r", "x.rs", 1, "say \"hi\"\nthere")],
            files_scanned: 1,
            rules_run: vec!["r".into()],
            ..Report::default()
        };
        let json = report.render_json();
        assert!(json.contains("\\\"hi\\\"\\nthere"));
        assert!(json.contains("\"unwaived\": 1"));
        assert!(json.contains("\"waived\": null"));
    }
}
