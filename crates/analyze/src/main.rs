//! `tw-analyze` — run the workspace static-analysis pass from the command
//! line. `traffic-warehouse analyze` wraps the same library entry points.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
tw-analyze: workspace-native static analysis

USAGE:
    tw-analyze [--root <dir>] [--rule <name>] [--json <path>]
               [--deny-warnings] [--list-waivers]

OPTIONS:
    --root <dir>      workspace root (default: walk up to analyze.json)
    --rule <name>     run a single rule instead of all of them
    --json <path>     also write the machine-readable report to <path>
    --deny-warnings   exit non-zero when any unwaived finding remains
    --list-waivers    print every active waiver with its justification
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let mut json: Option<PathBuf> = None;
    let mut deny = false;
    let mut list_waivers = false;
    let mut options = tw_analyze::Options::default();

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" | "--rule" | "--json" => {
                let flag = args[i].clone();
                i += 1;
                let Some(value) = args.get(i) else {
                    eprintln!("error: {flag} needs a value\n{USAGE}");
                    return ExitCode::from(2);
                };
                match flag.as_str() {
                    "--root" => root = Some(PathBuf::from(value)),
                    "--json" => json = Some(PathBuf::from(value)),
                    _ => options.rule = Some(value.clone()),
                }
            }
            "--deny-warnings" => deny = true,
            "--list-waivers" => list_waivers = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    let root = match root {
        Some(root) => root,
        None => match tw_analyze::find_workspace_root(&PathBuf::from(".")) {
            Ok(root) => root,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        },
    };
    let report = match tw_analyze::analyze_with(&root, &options) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    if list_waivers {
        print!("{}", report.render_waivers());
        return ExitCode::SUCCESS;
    }
    if let Some(path) = json {
        if let Err(e) = std::fs::write(&path, report.render_json()) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    print!("{}", report.render_text());
    if deny && report.unwaived_count() > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
