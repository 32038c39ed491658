//! Golden tests: each rule runs over a small fixture workspace under
//! `tests/fixtures/` that contains the offending shape, the waived shape,
//! and the shapes the rule must ignore. The fixtures are plain source trees
//! with their own `analyze.json` — they are never compiled, only scanned.

use std::path::PathBuf;
use tw_analyze::{analyze_with, AnalyzeError, Finding, Options, Report};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run_rule(fixture_name: &str, rule: &str) -> Report {
    let options = Options {
        rule: Some(rule.to_string()),
    };
    analyze_with(&fixture(fixture_name), &options)
        .unwrap_or_else(|e| panic!("analyzing fixture {fixture_name}: {e}"))
}

fn unwaived<'a>(report: &'a Report, rule: &str) -> Vec<&'a Finding> {
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule && f.waived.is_none())
        .collect()
}

fn waived<'a>(report: &'a Report, rule: &str) -> Vec<&'a Finding> {
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule && f.waived.is_some())
        .collect()
}

#[test]
fn no_panic_fires_on_unwrap_and_honors_waivers() {
    let report = run_rule("no_panic", "no-panic-in-lib");

    let hits = unwaived(&report, "no-panic-in-lib");
    assert_eq!(hits.len(), 2, "expected unwrap + expect hits: {hits:#?}");
    assert!(hits
        .iter()
        .any(|f| f.line == 5 && f.message.contains("unwrap")));
    assert!(hits.iter().any(|f| f.message.contains("expect")));

    let silenced = waived(&report, "no-panic-in-lib");
    assert_eq!(silenced.len(), 1, "the panic! is waived: {silenced:#?}");
    assert!(silenced[0].message.contains("panic!"));

    // The rule ignores the #[cfg(test)] module's unwrap entirely.
    assert!(
        !report.findings.iter().any(|f| f.line > 20),
        "test-module code leaked findings: {:#?}",
        report.findings
    );

    // The meta-rules ride along: a reason-less waiver is malformed, an
    // unused one is stale.
    assert!(
        report.findings.iter().any(|f| f.rule == "malformed-waiver"),
        "missing malformed-waiver: {:#?}",
        report.findings
    );
    assert!(
        report.findings.iter().any(|f| f.rule == "stale-waiver"),
        "missing stale-waiver: {:#?}",
        report.findings
    );
}

#[test]
fn hot_path_fires_inside_configured_functions_only() {
    let report = run_rule("hot_path", "hot-path-no-alloc");

    let hits = unwaived(&report, "hot-path-no-alloc");
    // One real allocation in the hot function, plus the config finding for
    // the spec that names a function the file does not define.
    assert!(
        hits.iter()
            .any(|f| f.message.contains(".collect()") && f.file.ends_with("lib.rs")),
        "missing the .collect() hit: {hits:#?}"
    );
    assert!(
        hits.iter().any(|f| f.message.contains("no_such_fn")),
        "missing the bad-spec finding: {hits:#?}"
    );
    assert_eq!(hits.len(), 2, "cold code must stay silent: {hits:#?}");

    let silenced = waived(&report, "hot-path-no-alloc");
    assert_eq!(silenced.len(), 1, "the vec! is waived: {silenced:#?}");
    assert!(silenced[0].message.contains("vec!"));
}

#[test]
fn metric_registry_catches_the_seeded_readme_drift() {
    // Regression for the drift this PR fixed in the real README: the fixture
    // README still says `pipeline.sort_merges` while the manifest declares
    // `pipeline.coalesce_sort`.
    let report = run_rule("metric_names", "metric-name-registry");
    let hits = unwaived(&report, "metric-name-registry");

    assert!(
        hits.iter()
            .any(|f| f.file == "README.md" && f.message.contains("pipeline.sort_merges")),
        "missing the README drift finding: {hits:#?}"
    );
    assert!(
        hits.iter()
            .any(|f| f.file == "README.md" || f.message.contains("pipeline.coalesce_sort")),
        "manifest entries absent from the README must be reported: {hits:#?}"
    );
    assert!(
        hits.iter()
            .any(|f| f.message.contains("pipeline.not_in_manifest")),
        "missing the undeclared-registration finding: {hits:#?}"
    );
    assert!(
        hits.iter()
            .any(|f| f.message.contains("pipeline.coalesce_sort") && f.message.contains("gauge")),
        "missing the kind-mismatch finding: {hits:#?}"
    );
    let dead = hits
        .iter()
        .find(|f| f.file == "metrics.json" && f.message.contains("pipeline.dead_entry"))
        .unwrap_or_else(|| panic!("missing the never-registered finding: {hits:#?}"));
    // The finding points at the manifest line that declares the entry, past
    // the comment and the `"counter"` section opener.
    assert_eq!(dead.line, 5, "the declaring manifest line: {dead:#?}");
}

#[test]
fn malformed_config_is_a_typed_error_with_its_position() {
    let root = std::env::temp_dir().join(format!("tw-analyze-bad-config-{}", std::process::id()));
    std::fs::create_dir_all(&root).unwrap();
    // Line 3 lacks the comma before the next key.
    std::fs::write(
        root.join("analyze.json"),
        "{\n  \"paths\": {\n    \"include\": [\"crates\"]\n    \"exclude\": [],\n  },\n}\n",
    )
    .unwrap();
    let result = analyze_with(&root, &Options::default());
    std::fs::remove_dir_all(&root).unwrap();

    match result {
        Err(AnalyzeError::Config(file, e)) => {
            assert_eq!(file, "analyze.json");
            assert_eq!((e.line, e.column), (4, 5), "{e}");
            let message = AnalyzeError::Config(file, e).to_string();
            assert!(message.starts_with("analyze.json: "), "{message}");
            assert!(message.contains("line 4 column 5"), "{message}");
        }
        other => panic!("expected a config error, got {other:?}"),
    }
}

#[test]
fn frame_coverage_reports_the_undecoded_variant() {
    let report = run_rule("frame_coverage", "frame-kind-coverage");
    let hits = unwaived(&report, "frame-kind-coverage");

    let delta = hits
        .iter()
        .find(|f| f.message.contains("Kind::Delta"))
        .unwrap_or_else(|| panic!("missing the Kind::Delta finding: {hits:#?}"));
    assert!(
        delta.message.contains("from_byte"),
        "decode gap: {delta:#?}"
    );
    assert!(
        delta.message.contains("proptest"),
        "proptest gap: {delta:#?}"
    );
    assert!(
        !hits
            .iter()
            .any(|f| f.message.contains("Kind::Manifest") || f.message.contains("Kind::Window")),
        "covered variants must stay silent: {hits:#?}"
    );
    assert!(
        hits.iter().any(|f| f.message.contains("missing.rs")),
        "missing the absent-proptest-file finding: {hits:#?}"
    );
}

#[test]
fn lock_across_channel_flags_only_the_live_guard() {
    let report = run_rule("lock_channel", "lock-across-channel");

    let hits = unwaived(&report, "lock-across-channel");
    assert_eq!(hits.len(), 1, "one live-guard overlap: {hits:#?}");
    assert_eq!(hits[0].line, 9, "the offending send: {hits:#?}");
    assert!(hits[0].message.contains("guard"));

    let silenced = waived(&report, "lock-across-channel");
    assert_eq!(silenced.len(), 1, "the waived overlap: {silenced:#?}");
}

#[test]
fn pub_reach_flags_items_that_only_tests_prose_or_imports_name() {
    let report = run_rule("pub_reach", "pub-reach");
    let lib = "crates/demo/src/lib.rs";
    let flagged: Vec<(&str, usize)> = unwaived(&report, "pub-reach")
        .iter()
        .map(|f| (f.file.as_str(), f.line))
        .collect();
    // Named only at its declaration.
    assert!(flagged.contains(&(lib, 4)), "only_declared: {flagged:?}");
    // Named only in a #[cfg(test)] module and under tests/.
    assert!(flagged.contains(&(lib, 7)), "only_tested: {flagged:?}");
    // Named only in a string literal and comments.
    assert!(flagged.contains(&(lib, 12)), "OnlyInProse: {flagged:?}");
    // Named only on use lines and an impl header.
    assert!(flagged.contains(&(lib, 15)), "OnlyImported: {flagged:?}");
    // Reached from another crate, a bench and the extra name root: silent,
    // and so are the name root's own items and crate-private items.
    assert_eq!(flagged.len(), 4, "nothing else is flagged: {flagged:?}");
    let finding = &unwaived(&report, "pub-reach")[0];
    assert!(
        finding.message.contains("`pub fn only_declared`"),
        "{finding:#?}"
    );

    // A waiver silences its item; a waiver over a reached item is stale.
    let silenced = waived(&report, "pub-reach");
    assert_eq!(silenced.len(), 1, "{silenced:#?}");
    assert_eq!((silenced[0].file.as_str(), silenced[0].line), (lib, 37));
    let stale: Vec<_> = unwaived(&report, "stale-waiver");
    assert_eq!(stale.len(), 1, "{stale:#?}");
    assert_eq!((stale[0].file.as_str(), stale[0].line), (lib, 40));
}

#[test]
fn the_report_counts_non_test_code_lines_in_lib_and_bin_files() {
    let report = run_rule("pub_reach", "pub-reach");
    // 19 lines of demo's lib.rs sit outside its test module and are neither
    // blank nor comment-only; app's main.rs has 9. Test, bench and name-root
    // files do not count.
    assert_eq!(report.code_lines, 19 + 9);
    assert!(report.render_text().contains("(28 non-test code lines"));
    assert!(report.render_json().contains("\"code_lines\": 28,"));
}

#[test]
fn the_real_workspace_is_clean() {
    // The same invariant CI enforces: zero unwaived findings over the
    // actual source tree, with every rule enabled.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = analyze_with(&root, &Options::default()).expect("analyzing the workspace");
    let open: Vec<&Finding> = report.unwaived().collect();
    assert!(open.is_empty(), "unwaived findings in the tree: {open:#?}");
    let rules: Vec<&str> = tw_analyze::rules::ALL
        .iter()
        .map(|(name, _)| *name)
        .collect();
    assert_eq!(report.rules_run, rules, "every registered rule runs");
    assert!(rules.contains(&"pub-reach"));
    assert!(
        report.waived_count() > 0,
        "the waiver channel should be exercised by the real tree"
    );
}
