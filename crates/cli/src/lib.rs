//! # tw-cli
//!
//! The `traffic-warehouse` command-line tool: the headless delivery vehicle
//! for the game. Educators use it to validate and preview module files and to
//! export the built-in library; students (or scripts) can play a bundle from
//! the terminal, and a lab streams scenarios to a class over TCP.
//!
//! [`USAGE`] documents every subcommand and its flags: `validate`, `render`,
//! `play`, `export-library`, `obfuscate`, `ingest`, `replay`, `serve`,
//! `connect`, `classroom`, `analyze`, `scenarios`, `curriculum`, `figures`
//! and `help`. `ingest`, `serve` and `classroom` describe their window
//! stream with the same flags, parsed into one [`StreamSpec`].

use std::fmt::Write as _;
use tw_core::game::{GameSession, ViewState, WarehouseScene};
use tw_core::module::{
    default_curriculum, from_json_maybe_obfuscated, to_obfuscated_json, validate,
};
use tw_core::patterns::{patterns_for_figure, Figure};
use tw_core::prelude::*;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Validate a module JSON file.
    Validate { path: String },
    /// Render a module to ASCII (and optionally a PPM file).
    Render {
        path: String,
        three_d: bool,
        colors: bool,
        out: Option<String>,
    },
    /// Auto-play a bundle and print the transcript.
    Play { path: String, seed: u64 },
    /// Write the initial library's ZIP bundles into a directory.
    ExportLibrary { directory: String },
    /// Re-emit a module with its correct answer obfuscated.
    Obfuscate { path: String },
    /// Run a named ingest scenario and print per-window statistics,
    /// optionally recording the window stream to a replayable ZIP.
    Ingest(IngestArgs),
    /// Replay a recorded window stream into the live warehouse view.
    Replay { path: String, speed: u64 },
    /// Serve one scenario (live or replayed) to remote `connect` clients
    /// over TCP, framing the window codec.
    Serve(ServeArgs),
    /// Join a `serve` session and follow its window stream.
    Connect {
        addr: String,
        windows: Option<usize>,
        stats: bool,
    },
    /// Serve one scenario (live or replayed) to a classroom of student
    /// clients over a loopback `serve` session.
    Classroom(ClassroomArgs),
    /// Run the workspace static-analysis pass (tw-analyze).
    Analyze {
        root: Option<String>,
        rule: Option<String>,
        json: Option<String>,
        deny_warnings: bool,
        list_waivers: bool,
    },
    /// List the ingest scenario catalog.
    Scenarios,
    /// Print the default curriculum with prerequisites.
    Curriculum,
    /// Print the figure gallery.
    Figures,
    /// Print usage.
    Help,
}

/// An error produced while parsing arguments or running a command.
#[derive(Debug, Clone, PartialEq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// The usage text.
pub const USAGE: &str = "traffic-warehouse <command>

Commands:
  validate <module.json>                      check a learning module against the authoring guidance
  render <module.json> [--three-d] [--colors] [--out file.ppm]
                                              preview a module (ASCII to stdout, optional PPM)
  play <bundle.zip> [--seed N]                auto-play a module bundle and print the transcript
  export-library <directory>                  write the built-in module bundles as .zip files
  obfuscate <module.json>                     re-emit the module with its answer obfuscated
  ingest --scenario <name> [--windows N] [--nodes N] [--seed N] [--batch N] [--window-us N] [--skew-us N] [--horizon-us N] [--record file.zip] [--keyframe-every N] [--json] [--metrics-json file.json] [--stats-every N]
                                              stream a scenario through the ingest
                                              pipeline and print per-window stats
                                              (scenarios: background, ddos, scan,
                                              flash-crowd, p2p, mixed); --skew-us drifts
                                              the per-source clocks (out-of-order stream)
                                              and --horizon-us sets the watermark
                                              reordering horizon that absorbs it;
                                              --record also captures the window stream
                                              as a replayable ZIP (--keyframe-every N
                                              stores every N-th window in full and the
                                              rest as sparse v3 deltas — smaller
                                              archives for steady traffic); --json
                                              emits one
                                              tw-json object per window instead of the
                                              human transcript; --metrics-json writes
                                              the final pipeline metrics snapshot,
                                              --stats-every N prints a one-line stats
                                              summary every N windows
  replay <file.zip> [--speed N]               re-emit a recorded window stream into the live
                                              warehouse view without regenerating any events,
                                              streamed incrementally from disk (--speed N
                                              paces playback at N x real time; default is as
                                              fast as possible)
  classroom --scenario <name> [--students N] [--windows N] [--nodes N] [--seed N]
            [--window-us N] [--skew-us N] [--horizon-us N] [--replay file.zip] [--speed N] [--late N]
            [--metrics-json file.json] [--stats-every N]
                                              serve one window stream (live scenario, or a
                                              recording with --replay) on a loopback port
                                              to N connect students and print per-student
                                              summaries; --late students connect
                                              mid-scenario and catch up from the ring;
                                              --metrics-json writes the serving-stack
                                              snapshot, --stats-every N prints the wire
                                              stats the first student received
  serve --listen <addr> --scenario <name> [--students N] [--windows N] [--nodes N] [--seed N]
        [--window-us N] [--skew-us N] [--horizon-us N] [--replay file.zip] [--speed N]
        [--keyframe-every N] [--metrics-json file.json] [--stats-every N]
                                              serve one window stream (live scenario, or a
                                              recording with --replay) to remote connect
                                              clients as length-prefixed, CRC-checked
                                              frames carrying the window codec;
                                              --students holds the first window until that
                                              many clients have joined, and a slow reader
                                              drops frames (with accounting) instead of
                                              stalling the class; port 0 picks a free port
                                              (printed on the eager `listening on` line);
                                              --keyframe-every N serves every N-th
                                              window in full and the rest as sparse v3
                                              delta frames (late joiners anchor on a
                                              key frame from the catch-up ring);
                                              --metrics-json writes the final snapshot,
                                              --stats-every N also streams Stats frames
                                              to every client every N windows
                                              (readable with connect --stats)
  connect <addr> [--windows N] [--stats]      join a serve session: follow the remote
                                              window stream into a live warehouse view and
                                              print the server's close accounting;
                                              --stats prints the server's live metrics
                                              snapshots as they arrive (the server must
                                              serve with --stats-every)
  analyze [--root <dir>] [--rule <name>] [--json <file.json>] [--deny-warnings] [--list-waivers]
                                              run the workspace static-analysis pass
                                              (lexer + rule engine over the crates'
                                              own source, configured by analyze.json
                                              and metrics.json at the workspace
                                              root); --rule runs one rule,
                                              --json also writes the machine-readable
                                              report, --deny-warnings fails when any
                                              unwaived finding remains, and
                                              --list-waivers prints every active
                                              inline waiver with its justification
  scenarios                                   list the ingest scenario catalog
  curriculum                                  print the default hierarchical curriculum
  figures                                     print every figure's traffic pattern
  help                                        show this message
";

/// The `listen` a parsed classroom carries: its session binds a free
/// loopback port of its own.
const LOOPBACK: &str = "127.0.0.1:0";

/// The window stream `ingest`, `serve` and `classroom` open, parsed once
/// from the flags all three take: `--scenario`, `--windows`, `--nodes`,
/// `--seed`, `--window-us`, `--skew-us`, `--horizon-us`, `--metrics-json`
/// and `--stats-every`. Each command adds its own flags on top: `ingest`
/// takes `--batch`, `--record`, `--keyframe-every` and `--json`
/// ([`IngestArgs`]); `serve` and `classroom` share `--replay`, `--students`
/// and `--speed` ([`ServeArgs`]); `serve` adds `--listen` and
/// `--keyframe-every`, and `classroom` adds `--late` ([`ClassroomArgs`]).
///
/// Defaults: `ingest` streams 4 windows over 1024 nodes in batches of 8192;
/// `serve` and `classroom` stream 256 nodes, 8 live windows or the whole
/// recording, and `classroom` seats 8 students of whom `students / 5`
/// connect late. All three use seed 7 and 100 ms windows, with no clock
/// skew, no reordering horizon and no metrics output.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    /// Scenario name (`serve` and `classroom` take `--replay` instead).
    pub scenario: Option<String>,
    /// Windows to stream (`None`: the whole recording, or 8 live windows).
    pub windows: Option<usize>,
    /// Address-space size for live scenarios.
    pub nodes: u32,
    /// Scenario seed for live scenarios.
    pub seed: u64,
    /// Tumbling-window duration in simulated microseconds.
    pub window_us: u64,
    /// Per-source clock skew in simulated microseconds (0 = sorted stream).
    pub skew_us: u64,
    /// Watermark reordering horizon in simulated microseconds (0 = strict).
    pub horizon_us: u64,
    /// Write the final metrics snapshot (pretty tw-json) here.
    pub metrics_json: Option<String>,
    /// Report metrics every N windows (0 = never): a one-line summary in the
    /// `ingest` transcript (suppressed by `--json`), a Stats frame to every
    /// client of a serve (`connect --stats` prints them).
    pub stats_every: u64,
}

impl Default for StreamSpec {
    /// The `serve` and `classroom` defaults.
    fn default() -> Self {
        StreamSpec {
            scenario: None,
            windows: None,
            nodes: 256,
            seed: 7,
            window_us: 100_000,
            skew_us: 0,
            horizon_us: 0,
            metrics_json: None,
            stats_every: 0,
        }
    }
}

impl StreamSpec {
    /// Take `flag` and its value when it is a stream flag; false otherwise.
    fn take_flag(&mut self, flag: &str, iter: &mut Args<'_>) -> Result<bool, CliError> {
        match flag {
            "--scenario" => self.scenario = Some(text(iter, flag, "a name")?),
            "--windows" => self.windows = Some(at_least_one(iter, flag)?),
            "--nodes" => self.nodes = value(iter, flag)?,
            "--seed" => self.seed = value(iter, flag)?,
            "--window-us" => self.window_us = value(iter, flag)?,
            "--skew-us" => self.skew_us = value(iter, flag)?,
            "--horizon-us" => self.horizon_us = value(iter, flag)?,
            "--metrics-json" => self.metrics_json = Some(text(iter, flag, "a file path")?),
            "--stats-every" => self.stats_every = value(iter, flag)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Windows to stream from a source holding `recorded` windows (`None`
    /// for an unbounded live scenario).
    fn planned(&self, recorded: Option<usize>) -> usize {
        match recorded {
            Some(recorded) => self.windows.unwrap_or(recorded).min(recorded),
            None => self.windows.unwrap_or(8),
        }
    }

    /// The registry a run records into, when metrics output was asked for.
    fn registry(&self) -> Option<tw_core::metrics::MetricsRegistry> {
        (self.metrics_json.is_some() || self.stats_every > 0)
            .then(tw_core::metrics::MetricsRegistry::new)
    }

    /// Open the live scenario as a pipeline recording into `registry`.
    /// Everything is checked before the pipeline is built: a known
    /// scenario, at least 20 nodes, a non-empty window and, when `encoded`
    /// (its windows go through the window codec), an address space the
    /// codec can encode. Returns the pipeline, its scenario and the source's
    /// disorder bound in microseconds.
    fn open_live(
        &self,
        batch_size: usize,
        encoded: bool,
        registry: Option<&tw_core::metrics::MetricsRegistry>,
    ) -> Result<(tw_core::ingest::Pipeline, tw_core::ingest::Scenario, u64), CliError> {
        use tw_core::ingest::{Pipeline, PipelineConfig, Scenario, MAX_DIMENSION};

        let name = self.scenario.as_deref().unwrap_or_default();
        let scenario = Scenario::by_name(name).ok_or_else(|| {
            let known: Vec<&str> = Scenario::all().iter().map(|s| s.name()).collect();
            CliError(format!(
                "unknown scenario {name:?}; known scenarios: {}",
                known.join(", ")
            ))
        })?;
        if self.nodes < 20 {
            return Err(CliError("--nodes must be at least 20".to_string()));
        }
        if encoded && self.nodes as usize > MAX_DIMENSION {
            return Err(CliError(format!(
                "--nodes must be at most {MAX_DIMENSION} to encode windows (the window codec's dimension limit)"
            )));
        }
        if self.window_us == 0 {
            return Err(CliError("--window-us must be at least 1".to_string()));
        }
        let config = PipelineConfig {
            window_us: self.window_us,
            batch_size,
            reorder_horizon_us: self.horizon_us,
            ..PipelineConfig::default()
        };
        let (source, max_disorder_us) = scenario.skewed_source(self.nodes, self.seed, self.skew_us);
        let mut pipeline = Pipeline::new(source, config);
        if let Some(registry) = registry {
            pipeline.instrument(registry);
        }
        Ok((pipeline, scenario, max_disorder_us))
    }
}

/// The arguments after the command name.
type Args<'a> = std::slice::Iter<'a, String>;

/// The next argument as `flag`'s value.
fn value<T: std::str::FromStr>(iter: &mut Args<'_>, flag: &str) -> Result<T, CliError> {
    iter.next()
        .ok_or(CliError(format!("{flag} needs a value")))?
        .parse()
        .map_err(|_| CliError(format!("{flag} value is not valid")))
}

/// `flag`'s value where zero would mean nothing at all (a count or a pace).
fn at_least_one<T>(iter: &mut Args<'_>, flag: &str) -> Result<T, CliError>
where
    T: std::str::FromStr + Default + PartialEq,
{
    let count = value(iter, flag)?;
    if count == T::default() {
        return Err(CliError(format!("{flag} must be at least 1")));
    }
    Ok(count)
}

/// The next argument as the text `name` (a flag or a command) needs: a
/// path, a name or an address, described by `what` when it is missing.
fn text(iter: &mut Args<'_>, name: &str, what: &str) -> Result<String, CliError> {
    iter.next()
        .cloned()
        .ok_or(CliError(format!("{name} needs {what}")))
}

/// Hand each remaining flag to `take`, which consumes the flag's value and
/// returns false for a flag its command does not accept.
fn parse_flags(
    iter: &mut Args<'_>,
    mut take: impl FnMut(&str, &mut Args<'_>) -> Result<bool, CliError>,
) -> Result<(), CliError> {
    while let Some(flag) = iter.next() {
        if !take(flag, iter)? {
            return Err(CliError(format!("unknown flag {flag:?}")));
        }
    }
    Ok(())
}

/// Parse command-line arguments (excluding the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut iter = args.iter();
    let command = iter.next().map(String::as_str).unwrap_or("help");
    match command {
        "validate" => Ok(Command::Validate {
            path: text(&mut iter, command, "a module path")?,
        }),
        "render" => {
            let path = text(&mut iter, command, "a module path")?;
            let mut three_d = false;
            let mut colors = false;
            let mut out = None;
            parse_flags(&mut iter, |flag, iter| {
                match flag {
                    "--three-d" | "--3d" => three_d = true,
                    "--colors" => colors = true,
                    "--out" => out = Some(text(iter, flag, "a file path")?),
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            Ok(Command::Render {
                path,
                three_d,
                colors,
                out,
            })
        }
        "play" => {
            let path = text(&mut iter, command, "a bundle path")?;
            let mut seed = 0u64;
            parse_flags(&mut iter, |flag, iter| match flag {
                "--seed" => {
                    seed = value(iter, flag)?;
                    Ok(true)
                }
                _ => Ok(false),
            })?;
            Ok(Command::Play { path, seed })
        }
        "export-library" => Ok(Command::ExportLibrary {
            directory: text(&mut iter, command, "a directory")?,
        }),
        "obfuscate" => Ok(Command::Obfuscate {
            path: text(&mut iter, command, "a module path")?,
        }),
        "ingest" => {
            let mut args = IngestArgs::default();
            parse_flags(&mut iter, |flag, iter| {
                match flag {
                    "--batch" => args.batch = value(iter, flag)?,
                    "--record" => args.record = Some(text(iter, flag, "a file path")?),
                    "--keyframe-every" => args.keyframe_every = value(iter, flag)?,
                    "--json" => args.json = true,
                    _ => return args.stream.take_flag(flag, iter),
                }
                Ok(true)
            })?;
            if args.stream.scenario.is_none() {
                return Err(CliError("ingest needs --scenario <name>".to_string()));
            }
            if args.keyframe_every > 0 && args.record.is_none() {
                return Err(CliError(
                    "--keyframe-every shapes the recorded archive; it needs --record".to_string(),
                ));
            }
            Ok(Command::Ingest(args))
        }
        "replay" => {
            let path = text(&mut iter, command, "a recording path")?;
            let mut speed = 0u64;
            parse_flags(&mut iter, |flag, iter| match flag {
                "--speed" => {
                    speed = at_least_one(iter, flag)?;
                    Ok(true)
                }
                _ => Ok(false),
            })?;
            Ok(Command::Replay { path, speed })
        }
        "serve" => {
            let mut listen = None;
            let mut args = ServeArgs::new("");
            parse_flags(&mut iter, |flag, iter| {
                match flag {
                    "--listen" => listen = Some(text(iter, flag, "an address")?),
                    "--keyframe-every" => args.keyframe_every = value(iter, flag)?,
                    _ => return args.take_flag(flag, iter),
                }
                Ok(true)
            })?;
            args.listen = listen.ok_or(CliError("serve needs --listen <addr>".to_string()))?;
            args.check(command)?;
            Ok(Command::Serve(args))
        }
        "connect" => {
            let addr = text(&mut iter, command, "a server address")?;
            let mut windows = None;
            let mut stats = false;
            parse_flags(&mut iter, |flag, iter| {
                match flag {
                    "--windows" => windows = Some(at_least_one(iter, flag)?),
                    "--stats" => stats = true,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            Ok(Command::Connect {
                addr,
                windows,
                stats,
            })
        }
        "classroom" => {
            let mut args = ClassroomArgs {
                serve: ServeArgs {
                    students: 8,
                    ..ServeArgs::new(LOOPBACK)
                },
                late: None,
            };
            parse_flags(&mut iter, |flag, iter| match flag {
                "--late" => {
                    args.late = Some(value(iter, flag)?);
                    Ok(true)
                }
                _ => args.serve.take_flag(flag, iter),
            })?;
            args.serve.check(command)?;
            if args.serve.students == 0 {
                return Err(CliError("--students must be at least 1".to_string()));
            }
            Ok(Command::Classroom(args))
        }
        "analyze" => {
            let mut root = None;
            let mut rule = None;
            let mut json = None;
            let mut deny_warnings = false;
            let mut list_waivers = false;
            parse_flags(&mut iter, |flag, iter| {
                match flag {
                    "--root" => root = Some(text(iter, flag, "a directory")?),
                    "--rule" => rule = Some(text(iter, flag, "a rule name")?),
                    "--json" => json = Some(text(iter, flag, "a file path")?),
                    "--deny-warnings" => deny_warnings = true,
                    "--list-waivers" => list_waivers = true,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            Ok(Command::Analyze {
                root,
                rule,
                json,
                deny_warnings,
                list_waivers,
            })
        }
        "scenarios" => Ok(Command::Scenarios),
        "curriculum" => Ok(Command::Curriculum),
        "figures" => Ok(Command::Figures),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(CliError(format!(
            "unknown command {other:?}; run `traffic-warehouse help`"
        ))),
    }
}

/// Run a command, returning the text to print.
pub fn run(command: &Command) -> Result<String, CliError> {
    match command {
        Command::Help => Ok(USAGE.to_string()),
        Command::Validate { path } => {
            let text =
                std::fs::read_to_string(path).map_err(|e| CliError(format!("{path}: {e}")))?;
            let module = from_json_maybe_obfuscated(&text).map_err(|e| CliError(e.to_string()))?;
            Ok(render_validation(&module))
        }
        Command::Render {
            path,
            three_d,
            colors,
            out,
        } => {
            let text =
                std::fs::read_to_string(path).map_err(|e| CliError(format!("{path}: {e}")))?;
            let module = from_json_maybe_obfuscated(&text).map_err(|e| CliError(e.to_string()))?;
            let (ascii, ppm) = render_module(&module, *three_d, *colors);
            if let Some(out_path) = out {
                std::fs::write(out_path, ppm).map_err(|e| CliError(format!("{out_path}: {e}")))?;
            }
            Ok(ascii)
        }
        Command::Play { path, seed } => {
            let bytes = std::fs::read(path).map_err(|e| CliError(format!("{path}: {e}")))?;
            let bundle = tw_core::load_bundle(path, &bytes).map_err(|e| CliError(e.to_string()))?;
            play_bundle(bundle, *seed)
        }
        Command::ExportLibrary { directory } => {
            std::fs::create_dir_all(directory)
                .map_err(|e| CliError(format!("{directory}: {e}")))?;
            let mut out = String::new();
            for (name, bytes) in tw_core::initial_library_zips() {
                let slug: String = name
                    .chars()
                    .map(|c| {
                        if c.is_ascii_alphanumeric() {
                            c.to_ascii_lowercase()
                        } else {
                            '_'
                        }
                    })
                    .collect();
                let path = format!("{directory}/{slug}.zip");
                std::fs::write(&path, &bytes).map_err(|e| CliError(format!("{path}: {e}")))?;
                let _ = writeln!(out, "wrote {path} ({} bytes)", bytes.len());
            }
            Ok(out)
        }
        Command::Obfuscate { path } => {
            let text =
                std::fs::read_to_string(path).map_err(|e| CliError(format!("{path}: {e}")))?;
            let module = from_json_maybe_obfuscated(&text).map_err(|e| CliError(e.to_string()))?;
            to_obfuscated_json(&module).map_err(|e| CliError(e.to_string()))
        }
        Command::Ingest(args) => run_ingest(args),
        Command::Replay { path, speed } => run_replay(path, *speed),
        Command::Serve(args) => run_serve(args),
        Command::Connect {
            addr,
            windows,
            stats,
        } => run_connect(addr, *windows, *stats),
        Command::Classroom(args) => run_classroom(args),
        Command::Analyze {
            root,
            rule,
            json,
            deny_warnings,
            list_waivers,
        } => run_analyze(
            root.as_deref(),
            rule.clone(),
            json.as_deref(),
            *deny_warnings,
            *list_waivers,
        ),
        Command::Scenarios => Ok(render_scenarios()),
        Command::Curriculum => Ok(render_curriculum()),
        Command::Figures => Ok(render_figures()),
    }
}

/// Run the workspace static-analysis pass and render its report.
///
/// Without `--root` the workspace is found by walking up from the current
/// directory to the nearest `analyze.json`. With `--deny-warnings` an
/// unwaived finding is an error (non-zero exit), matching the CI gate.
fn run_analyze(
    root: Option<&str>,
    rule: Option<String>,
    json: Option<&str>,
    deny_warnings: bool,
    list_waivers: bool,
) -> Result<String, CliError> {
    let root = match root {
        Some(dir) => std::path::PathBuf::from(dir),
        None => tw_analyze::find_workspace_root(std::path::Path::new("."))
            .map_err(|e| CliError(e.to_string()))?,
    };
    let options = tw_analyze::Options { rule };
    let report = tw_analyze::analyze_with(&root, &options).map_err(|e| CliError(e.to_string()))?;
    if list_waivers {
        return Ok(report.render_waivers());
    }
    if let Some(path) = json {
        std::fs::write(path, report.render_json())
            .map_err(|e| CliError(format!("writing {path}: {e}")))?;
    }
    let text = report.render_text();
    if deny_warnings && report.unwaived_count() > 0 {
        return Err(CliError(format!(
            "{text}analyze: --deny-warnings with {} unwaived finding(s)",
            report.unwaived_count()
        )));
    }
    Ok(text)
}

/// Arguments for [`run_ingest`] (one scenario streamed through the pipeline).
#[derive(Debug, Clone, PartialEq)]
pub struct IngestArgs {
    /// The stream to ingest.
    pub stream: StreamSpec,
    /// Batch size (the backpressure bound).
    pub batch: usize,
    /// Record the window stream to a replayable ZIP at this path.
    pub record: Option<String>,
    /// Key-frame cadence for the recorded archive: every K-th window is a
    /// self-contained key frame, the rest sparse v3 deltas against the
    /// previous window (0 = every window full, a version-1 archive).
    pub keyframe_every: u64,
    /// Emit one tw-json object per window (machine-readable transcript)
    /// instead of the human per-window lines, banner and totals.
    pub json: bool,
}

impl Default for IngestArgs {
    /// The `ingest` defaults, with no scenario chosen yet.
    fn default() -> Self {
        IngestArgs {
            stream: StreamSpec {
                windows: Some(4),
                nodes: 1024,
                ..StreamSpec::default()
            },
            batch: 8192,
            record: None,
            keyframe_every: 0,
            json: false,
        }
    }
}

impl IngestArgs {
    /// Defaults matching the CLI parser, for tests and embedding callers.
    pub fn new(scenario: &str) -> Self {
        let mut args = IngestArgs::default();
        args.stream.scenario = Some(scenario.to_string());
        args
    }
}

/// A `u64` as a tw-json number: exact while it fits the wire integer
/// (`i64`), a float beyond (same lossy convention as `MetricsSnapshot`).
fn json_u64(value: u64) -> tw_core::json::Value {
    use tw_core::json::{Number, Value};
    i64::try_from(value).map_or_else(
        |_| Value::Number(Number::Float(value as f64)),
        |v| Value::Number(Number::Int(v)),
    )
}

/// One window's [`IngestStats`] as a compact tw-json object (one line of
/// `ingest --json` output).
///
/// [`IngestStats`]: tw_core::ingest::IngestStats
fn ingest_stats_json(stats: &tw_core::ingest::IngestStats) -> String {
    use tw_core::json::{Map, Value};
    let mut object = Map::new();
    object.insert("window", json_u64(stats.window_index));
    object.insert("events", json_u64(stats.events));
    object.insert("packets", json_u64(stats.packets));
    object.insert("nnz", json_u64(stats.nnz as u64));
    object.insert("dropped_late", json_u64(stats.dropped_late));
    object.insert("reordered", json_u64(stats.reordered));
    object.insert("elapsed_us", json_u64(stats.elapsed.as_micros() as u64));
    tw_core::json::to_string(&Value::Object(object))
}

/// Write a final metrics snapshot where `--metrics-json` asked for it.
fn write_metrics_json(
    path: &str,
    snapshot: &tw_core::metrics::MetricsSnapshot,
) -> Result<(), CliError> {
    let mut text = tw_core::json::to_string_pretty(&snapshot.to_json());
    text.push('\n');
    std::fs::write(path, text).map_err(|e| CliError(format!("{path}: {e}")))
}

/// Stream a named scenario through the ingest pipeline and render
/// per-window statistics; with `record`, also capture the window stream as
/// a replayable ZIP at that path. A non-zero `skew_us` drifts the source
/// clocks (an out-of-order stream) and `horizon_us` sets the watermark
/// reordering horizon that absorbs the disorder.
pub fn run_ingest(args: &IngestArgs) -> Result<String, CliError> {
    use tw_core::ingest::{ArchiveRecorder, RecordingMeta};

    let spec = &args.stream;
    if args.batch == 0 {
        return Err(CliError("--batch must be at least 1".to_string()));
    }
    // One registry spans the whole run when any metrics output was asked
    // for; the pipeline records its stage timings and counters into it.
    let registry = spec.registry();
    let (mut pipeline, scenario, max_disorder_us) =
        spec.open_live(args.batch, args.record.is_some(), registry.as_ref())?;
    let mut out = String::new();
    if !args.json {
        let _ = writeln!(
            out,
            "scenario {scenario} ({}): {} nodes, {} us windows, batch {}, seed {}",
            scenario.describe(),
            spec.nodes,
            spec.window_us,
            args.batch,
            spec.seed,
        );
        if spec.skew_us > 0 || spec.horizon_us > 0 {
            let _ = writeln!(
                out,
                "out-of-order: clock skew up to {} us (max disorder {} us), reorder horizon {} us{}",
                spec.skew_us,
                max_disorder_us,
                spec.horizon_us,
                if max_disorder_us > spec.horizon_us {
                    " [WARNING: horizon below the disorder bound; late drops expected]"
                } else {
                    ""
                },
            );
        }
    }
    let mut recorder = args.record.as_ref().map(|_| {
        ArchiveRecorder::new(RecordingMeta {
            scenario: scenario.name().to_string(),
            seed: spec.seed,
            node_count: spec.nodes as usize,
            window_us: spec.window_us,
            keyframe_every: args.keyframe_every,
        })
    });
    // Pull windows one at a time (instead of the batch `run`) so periodic
    // stats lines interleave with the transcript at the cadence asked for.
    // Only the per-window stats are kept for the totals; each matrix goes
    // back to the pipeline's CSR pool once recorded, so the transcript run
    // holds one window in memory and rotation reuses the arrays.
    let windows = spec.planned(None);
    let mut window_stats = Vec::with_capacity(windows);
    while window_stats.len() < windows {
        let report = match pipeline.next_window() {
            Some(report) => report,
            None => break,
        };
        if args.json {
            let _ = writeln!(out, "{}", ingest_stats_json(&report.stats));
        } else {
            let _ = writeln!(out, "{}", report.stats.summary());
        }
        if let Some(recorder) = recorder.as_mut() {
            recorder
                .record(&report)
                .map_err(|e| CliError(e.to_string()))?;
        }
        pipeline.recycle_window(report.matrix);
        window_stats.push(report.stats);
        if !args.json
            && spec.stats_every > 0
            && (window_stats.len() as u64).is_multiple_of(spec.stats_every)
        {
            if let Some(registry) = &registry {
                let _ = writeln!(out, "stats: {}", registry.snapshot().one_line());
            }
        }
    }
    if !args.json {
        let events: u64 = window_stats.iter().map(|s| s.events).sum();
        let packets: u64 = window_stats.iter().map(|s| s.packets).sum();
        let late: u64 = window_stats.iter().map(|s| s.dropped_late).sum();
        let reordered: u64 = window_stats.iter().map(|s| s.reordered).sum();
        let peak_nnz = window_stats.iter().map(|s| s.nnz).max().unwrap_or(0);
        let elapsed: f64 = window_stats.iter().map(|s| s.elapsed.as_secs_f64()).sum();
        let _ = writeln!(
            out,
            "total: {events} events, {packets} packets, {late} late, {reordered} reordered, peak nnz {peak_nnz}, {:.2} ms wall ({:.2} M events/s)",
            elapsed * 1e3,
            if elapsed > 0.0 { events as f64 / elapsed / 1e6 } else { 0.0 },
        );
    }
    if let (Some(recorder), Some(path)) = (recorder, args.record.as_deref()) {
        let recorded = recorder.windows_recorded();
        let bytes = recorder.finish().map_err(|e| CliError(e.to_string()))?;
        std::fs::write(path, &bytes).map_err(|e| CliError(format!("{path}: {e}")))?;
        if !args.json {
            let _ = writeln!(
                out,
                "recorded {recorded} window(s) to {path} ({} bytes); replay with: traffic-warehouse replay {path}",
                bytes.len()
            );
        }
    }
    if let (Some(path), Some(registry)) = (spec.metrics_json.as_deref(), &registry) {
        write_metrics_json(path, &registry.snapshot())?;
        if !args.json {
            let _ = writeln!(out, "wrote metrics snapshot to {path}");
        }
    }
    Ok(out)
}

/// Replay a recorded window stream into a live warehouse session, decoding
/// one window at a time from disk.
pub fn run_replay(path: &str, speed: u64) -> Result<String, CliError> {
    use tw_core::ingest::{FileReplaySource, Paced, WindowStream};

    let replay = FileReplaySource::open(path).map_err(|e| CliError(format!("{path}: {e}")))?;
    let manifest = replay.manifest().clone();
    // The recording streams incrementally: only the directory and manifest
    // are resident; each window entry is read, CRC-checked and decoded as it
    // is pulled. Pacing is the stream's job now — the Paced adapter holds
    // each window until its slot on the classroom cadence.
    let mut stream: Box<dyn WindowStream> = if speed > 0 {
        Box::new(Paced::new(replay, speed))
    } else {
        Box::new(replay)
    };
    // Paced playback (--speed) streams each line to stdout as its window is
    // replayed — the class watches the scenario build up live; buffering
    // everything into the returned string would sleep in silence and then
    // dump the whole transcript at once. Unpaced replay keeps the buffered
    // contract of every other subcommand.
    let mut out = String::new();
    let pacing = speed > 0;
    let mut emit = |line: std::fmt::Arguments<'_>| {
        if pacing {
            println!("{line}");
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
        } else {
            let _ = writeln!(out, "{line}");
        }
    };
    emit(format_args!(
        "replaying {} ({}): {} nodes, {} us windows, {} window(s), seed {}",
        path,
        manifest.scenario,
        manifest.node_count,
        manifest.window_us,
        manifest.window_count(),
        manifest.seed,
    ));

    // The replayed stream drives the same live-warehouse path as a live
    // pipeline: every window re-pallets the 10x10 display scene.
    let mut session = GameSession::start(ModuleBundle::new(&manifest.scenario), manifest.seed)
        .map_err(|e| CliError(e.to_string()))?;
    session.subscribe_live(10);
    while let Some(report) = stream.next_window().map_err(|e| CliError(e.to_string()))? {
        session.ingest_window(&report);
        emit(format_args!("{}", report.stats.summary()));
    }
    let live = session.live().expect("subscribed above");
    emit(format_args!(
        "replayed {} window(s) onto the live warehouse (no events regenerated){}",
        live.windows_seen(),
        if speed > 0 {
            format!(", paced at {speed}x real time")
        } else {
            String::new()
        },
    ));
    Ok(out)
}

/// The facts `classroom` and `serve` share about the one stream a class
/// watches (live scenario or recording): what the banner prints, the
/// windows the session plans to serve, and the registry its metrics land in.
struct ClassStream {
    scenario: String,
    description: String,
    node_count: usize,
    /// The seed the stream was generated with (a recording carries its own).
    seed: u64,
    /// Windows to serve: the whole recording by default, eight windows of
    /// an unbounded live scenario, never more than a recording holds.
    planned: usize,
    /// Spans the pipeline, the hub and the server when metrics output (file
    /// or wire) was asked for.
    registry: Option<tw_core::metrics::MetricsRegistry>,
}

/// Build the one stream a whole class shares — a live scenario or a recorded
/// capture, paced when asked — checking the same rules for `serve` and
/// `classroom` (`command` names the one asking).
fn open_class_stream(
    args: &ServeArgs,
    command: &str,
) -> Result<(ClassStream, Box<dyn tw_core::ingest::WindowStream>), CliError> {
    use tw_core::ingest::{FileReplaySource, Paced, WindowStream};

    args.check(command)?;
    if args.students > 10_000 {
        return Err(CliError("--students is capped at 10000".to_string()));
    }
    let spec = &args.stream;
    let registry = spec.registry();
    let (stream, scenario, description, node_count, seed) = match args.replay.as_deref() {
        Some(path) => {
            let replay =
                FileReplaySource::open(path).map_err(|e| CliError(format!("{path}: {e}")))?;
            let manifest = replay.manifest().clone();
            (
                Box::new(replay) as Box<dyn WindowStream>,
                manifest.scenario,
                format!("replayed from {path}"),
                manifest.node_count,
                manifest.seed,
            )
        }
        None => {
            let (pipeline, scenario, max_disorder_us) =
                spec.open_live(8_192, true, registry.as_ref())?;
            let description = if spec.skew_us > 0 || spec.horizon_us > 0 {
                format!(
                    "{}; clock skew {} us, horizon {} us{}",
                    scenario.describe(),
                    spec.skew_us,
                    spec.horizon_us,
                    if max_disorder_us > spec.horizon_us {
                        " [WARNING: horizon below the disorder bound; late drops expected]"
                    } else {
                        ""
                    },
                )
            } else {
                scenario.describe().to_string()
            };
            (
                Box::new(pipeline) as Box<dyn WindowStream>,
                scenario.name().to_string(),
                description,
                spec.nodes as usize,
                spec.seed,
            )
        }
    };
    let planned = spec.planned(stream.remaining_windows());
    if planned == 0 {
        return Err(CliError("the recording holds no windows".to_string()));
    }
    let stream = if args.speed > 0 {
        Box::new(Paced::new(stream, args.speed))
    } else {
        stream
    };
    let class = ClassStream {
        scenario,
        description,
        node_count,
        seed,
        planned,
        registry,
    };
    Ok((class, stream))
}

/// A finished serve session: the server's summary plus its telemetry.
struct Served {
    summary: tw_core::serve::ServeSummary,
    /// Every telemetry event the session published, drained once it ended.
    events: Vec<tw_core::game::TelemetryEvent>,
    /// Telemetry events the bounded buffer evicted before the drain.
    evicted: u64,
}

impl Served {
    fn lag_events(&self) -> usize {
        use tw_core::game::TelemetryEvent;
        self.events
            .iter()
            .filter(|e| matches!(e, TelemetryEvent::SubscriberLagged { .. }))
            .count()
    }

    /// The lines both transcripts end with: a roster-balance warning when
    /// the books do not balance, then the final metrics snapshot.
    fn write_tail(&self, out: &mut String, metrics_json: Option<&str>) -> Result<(), CliError> {
        if let Some(error) = self.summary.broadcast.conservation_error() {
            let _ = writeln!(out, "WARNING: roster accounting out of balance: {error}");
        }
        if let Some(snapshot) = &self.summary.snapshot {
            let _ = writeln!(out, "metrics: {}", snapshot.one_line());
            if let Some(path) = metrics_json {
                write_metrics_json(path, snapshot)?;
                let _ = writeln!(out, "wrote metrics snapshot to {path}");
            }
        }
        Ok(())
    }
}

/// The serving body `serve` and `classroom` share: serve `stream` on
/// `listener`, holding the first window until `wait_for` students have
/// connected, and fan identical frames out to every connection.
fn serve_class(
    listener: std::net::TcpListener,
    stream: &mut dyn tw_core::ingest::WindowStream,
    class: &ClassStream,
    args: &ServeArgs,
    wait_for: usize,
) -> Result<Served, CliError> {
    use tw_core::game::TelemetryHub;
    use tw_core::serve::{serve, ServeConfig};

    // Size the dashboard buffer to the class — joins, detaches, the close,
    // and one lag event per window per student — so the printed lag count is
    // exact. The clamp bounds memory for absurd classes; beyond it the count
    // can undercount and the printed eviction count says so.
    let telemetry_capacity = args
        .students
        .max(1)
        .saturating_mul(class.planned.saturating_add(3))
        .clamp(1024, 1 << 18);
    let telemetry = TelemetryHub::with_capacity(telemetry_capacity);
    let config = ServeConfig {
        scenario: class.scenario.clone(),
        seed: class.seed,
        channel_capacity: class.planned.clamp(64, 1024),
        ring_capacity: class.planned.clamp(32, 1024),
        wait_for,
        max_windows: class.planned,
        // With a roster the class defines the session: once every student
        // has left there is no one to serve, even mid-stream.
        stop_when_empty: args.students > 0,
        metrics: class.registry.clone(),
        stats_every: args.stream.stats_every,
        keyframe_every: args.keyframe_every,
        ..ServeConfig::default()
    };
    let summary = serve(listener, stream, &config, Some(telemetry.clone()))
        .map_err(|e| CliError(e.to_string()))?;
    Ok(Served {
        summary,
        events: telemetry.drain(),
        evicted: telemetry.dropped(),
    })
}

/// Arguments for [`run_classroom`]: one scenario served over loopback to a
/// class of students.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassroomArgs {
    /// The session the class attends. `students` is the class size, and
    /// the classroom binds its own loopback listener (`listen` is unused).
    pub serve: ServeArgs,
    /// Students that connect mid-scenario (default: one in five).
    pub late: Option<usize>,
}

/// The late students' rendezvous with the class stream: the stream opens
/// the door at the late window, and each late student reports in once its
/// connect has returned.
#[derive(Default)]
struct LateDoor {
    open: std::sync::atomic::AtomicBool,
    arrived: std::sync::atomic::AtomicUsize,
}

/// The class stream with window `late_at` held back until the late students
/// have connected, so each of them joins mid-scenario and catches up from
/// the ring like any late `connect`. A stream that ends or fails first
/// opens the door at that pull instead.
struct HoldForLate<'a> {
    inner: Box<dyn tw_core::ingest::WindowStream>,
    late_at: u64,
    late: usize,
    pulled: u64,
    door: &'a LateDoor,
}

impl tw_core::ingest::WindowStream for HoldForLate<'_> {
    fn next_window(
        &mut self,
    ) -> Result<Option<tw_core::ingest::WindowReport>, tw_core::ingest::StreamError> {
        use std::sync::atomic::Ordering;
        let next = self.inner.next_window();
        let reached = self.pulled == self.late_at || !matches!(next, Ok(Some(_)));
        if reached && !self.door.open.swap(true, Ordering::SeqCst) {
            // The deadline only guards against a wedged student thread.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while self.door.arrived.load(Ordering::SeqCst) < self.late
                && std::time::Instant::now() < deadline
            {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        }
        self.pulled += 1;
        next
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn window_us(&self) -> u64 {
        self.inner.window_us()
    }

    fn remaining_windows(&self) -> Option<usize> {
        self.inner.remaining_windows()
    }
}

/// What one classroom student saw of the session.
struct StudentLine {
    seen: u64,
    last: Option<u64>,
    /// The server's accounting for this student's connection.
    close: tw_core::ingest::CloseSummary,
    /// Wire stats snapshots, each with the last window seen before it.
    stats: Vec<(u64, String)>,
}

/// One student: connect to the class session (a late student only once the
/// door opens) and follow it to the close frame.
fn attend(
    addr: std::net::SocketAddr,
    sid: usize,
    seed: u64,
    late: bool,
    door: &LateDoor,
) -> Result<StudentLine, CliError> {
    use std::sync::atomic::Ordering;
    use tw_core::serve::ClientStream;

    if late {
        while !door.open.load(Ordering::SeqCst) {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }
    let client = ClientStream::connect(addr);
    if late {
        door.arrived.fetch_add(1, Ordering::SeqCst);
    }
    let student = |e: &dyn std::fmt::Display| CliError(format!("student {sid}: {e}"));
    let mut client = client.map_err(|e| student(&e))?;
    let mut last = None;
    let mut stats = Vec::new();
    let session = follow_connection(&mut client, seed, usize::MAX, |step| match step {
        Followed::Stats(snapshot) => stats.push((last.unwrap_or(0), snapshot.one_line())),
        Followed::Window(report) => last = Some(report.stats.window_index),
    })
    .map_err(|e| student(&e))?;
    let close = *client
        .close_summary()
        .ok_or_else(|| student(&"the stream ended without a close frame"))?;
    // With wire stats on, the last snapshot is the server's final one,
    // which the transcript prints as its `metrics:` line.
    stats.pop();
    Ok(StudentLine {
        seen: session.live().map_or(0, |live| live.windows_seen()),
        last,
        close,
        stats,
    })
}

/// Serve one scenario to a classroom: a `serve` session on a loopback port
/// with one `connect` student per thread; returns per-student summaries.
pub fn run_classroom(args: &ClassroomArgs) -> Result<String, CliError> {
    classroom(args).map(|(out, _)| out)
}

/// [`run_classroom`], also returning the session's drained telemetry.
fn classroom(
    args: &ClassroomArgs,
) -> Result<(String, Vec<tw_core::game::TelemetryEvent>), CliError> {
    let serve = &args.serve;
    let (class, stream) = open_class_stream(serve, "classroom")?;
    let students = serve.students;
    let late = args.late.unwrap_or(students / 5);
    let late = late.min(students.saturating_sub(1));
    let on_time = students - late;
    let late_at = (class.planned / 2) as u64;
    let listener = tw_core::serve::loopback_listener().map_err(|e| CliError(e.to_string()))?;
    let addr = listener.local_addr().map_err(|e| CliError(e.to_string()))?;
    let door = LateDoor::default();
    let mut stream = HoldForLate {
        inner: stream,
        late_at,
        late,
        pulled: 0,
        door: &door,
    };

    let (served, lines) = std::thread::scope(|scope| {
        let door = &door;
        let seed = class.seed;
        let threads: Vec<_> = (0..students)
            .map(|sid| {
                scope.spawn(move || attend(addr, sid, seed ^ sid as u64, sid >= on_time, door))
            })
            .collect();
        // The on-time students are the roster `serve` waits for.
        let served = serve_class(listener, &mut stream, &class, serve, on_time);
        // A serve that stopped short of the late window still lets the late
        // group go: they find the session over and report why.
        door.open.store(true, std::sync::atomic::Ordering::SeqCst);
        let lines: Vec<_> = threads
            .into_iter()
            .enumerate()
            .map(|(sid, t)| {
                t.join()
                    .unwrap_or_else(|_| Err(CliError(format!("student {sid}: thread panicked"))))
            })
            .collect();
        (served, lines)
    });
    let served = served?;
    let lines = lines.into_iter().collect::<Result<Vec<_>, _>>()?;

    let mut out = format!(
        "classroom: {} ({}) over {} nodes -> {students} student(s) ({on_time} on time, {late} late at w{late_at})\n",
        class.scenario, class.description, class.node_count,
    );
    for (window, line) in lines.first().map_or(&[][..], |l| &l.stats) {
        let _ = writeln!(out, "  stats after w{window}: {line}");
    }
    for (sid, line) in lines.iter().enumerate() {
        // A student who stayed to the close accounts for every window from
        // its start on, so what its books leave out is where it started.
        let close = &line.close;
        let joined = close
            .windows
            .saturating_sub(close.delivered + close.dropped + close.missed);
        let _ = writeln!(
            out,
            "  student {sid:>3}: joined w{joined:<4} {:>4} window(s)  dropped {:>3}  missed {:>3}  last {}",
            line.seen,
            close.dropped,
            close.missed,
            line.last.map_or("-".to_string(), |w| format!("w{w}")),
        );
    }
    let summary = &served.summary.broadcast;
    let totals = summary.totals();
    // The eviction count prints unconditionally: a zero is the reader's
    // proof the lag count is exact, not merely what survived the telemetry
    // ring.
    let _ = writeln!(
        out,
        "broadcast: {} window(s) served once to {} subscriber(s); {} delivered, {} dropped, {} missed, {} lag event(s), {} telemetry event(s) evicted{}",
        summary.windows,
        summary.subscribers,
        totals.delivered,
        totals.dropped,
        totals.missed,
        served.lag_events(),
        served.evicted,
        if serve.speed > 0 {
            format!(", paced at {}x real time", serve.speed)
        } else {
            String::new()
        },
    );
    served.write_tail(&mut out, serve.stream.metrics_json.as_deref())?;
    Ok((out, served.events))
}

/// Arguments for [`run_serve`] (one scenario served to remote clients).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Address to listen on (e.g. `127.0.0.1:7000`; port 0 picks a free one).
    pub listen: String,
    /// The stream to serve: its scenario is required unless `replay` is
    /// given, and its node, seed, window-length and reordering fields shape
    /// live scenarios only.
    pub stream: StreamSpec,
    /// Recording to serve instead of generating events live.
    pub replay: Option<String>,
    /// Hold the first window until this many clients have connected
    /// (0 = start streaming immediately).
    pub students: usize,
    /// Pace the serve at N x real time (0 = as fast as possible).
    pub speed: u64,
    /// Key-frame cadence on the wire: every K-th window is served as a
    /// self-contained full frame, the rest as sparse v3 delta frames
    /// against the previous window (0 = every window full).
    pub keyframe_every: u64,
}

impl ServeArgs {
    /// Defaults matching the CLI parser, for tests and embedding callers.
    pub fn new(listen: &str) -> Self {
        ServeArgs {
            listen: listen.to_string(),
            stream: StreamSpec::default(),
            replay: None,
            students: 0,
            speed: 0,
            keyframe_every: 0,
        }
    }

    /// Take `flag` and its value when `serve` and `classroom` both accept it:
    /// `--replay`, `--students`, `--speed` or a stream flag.
    fn take_flag(&mut self, flag: &str, iter: &mut Args<'_>) -> Result<bool, CliError> {
        match flag {
            "--replay" => self.replay = Some(text(iter, flag, "a file path")?),
            "--students" => self.students = value(iter, flag)?,
            "--speed" => self.speed = at_least_one(iter, flag)?,
            _ => return self.stream.take_flag(flag, iter),
        }
        Ok(true)
    }

    /// The rules a served stream meets, checked at parse time and again for
    /// programmatic callers: a scenario or a recording but not both, and no
    /// live-ingestion shaping on a recording.
    fn check(&self, command: &str) -> Result<(), CliError> {
        let shapes_ingestion = self.stream.horizon_us > 0 || self.stream.skew_us > 0;
        match (&self.stream.scenario, &self.replay) {
            (None, None) => Err(CliError(format!(
                "{command} needs --scenario <name> or --replay <file.zip>"
            ))),
            (Some(_), Some(_)) => Err(CliError(
                "--scenario and --replay are mutually exclusive (a recording \
                 carries its own scenario)"
                    .to_string(),
            )),
            (None, Some(_)) if shapes_ingestion => Err(CliError(
                "--skew-us/--horizon-us shape live ingestion; a recording was \
                 already windowed when it was captured"
                    .to_string(),
            )),
            _ => Ok(()),
        }
    }
}

/// Bind the listen address and serve one scenario over TCP.
pub fn run_serve(args: &ServeArgs) -> Result<String, CliError> {
    let listener = std::net::TcpListener::bind(&args.listen)
        .map_err(|e| CliError(format!("{}: {e}", args.listen)))?;
    run_serve_on(listener, args)
}

/// Serve one scenario on an already-bound listener: drive the stream once,
/// encode each window once, and fan identical frames out to every connected
/// client; returns per-student accounting once the serve ends.
pub fn run_serve_on(listener: std::net::TcpListener, args: &ServeArgs) -> Result<String, CliError> {
    let (class, mut stream) = open_class_stream(args, "serve")?;
    let addr = listener.local_addr().map_err(|e| CliError(e.to_string()))?;
    print_listening(addr, &class, args);
    let served = serve_class(listener, stream.as_mut(), &class, args, args.students)?;

    let mut out = String::new();
    let summary = &served.summary;
    for report in &summary.broadcast.reports {
        let _ = writeln!(
            out,
            "  student {:>3}: joined w{:<4} delivered {:>4}  dropped {:>3}  missed {:>3}{}",
            report.id,
            report.joined_at,
            report.delivered,
            report.dropped,
            report.missed,
            if report.left_early {
                "  [left early]"
            } else {
                ""
            },
        );
    }
    let totals = summary.broadcast.totals();
    // The eviction count prints unconditionally, like the classroom's: zero
    // means the lag count is exact.
    let _ = writeln!(
        out,
        "served {} window(s) ({} encoded bytes) to {} connection(s); {} delivered, {} dropped, {} missed, {} lag event(s), {} telemetry event(s) evicted",
        summary.windows(),
        summary.encoded_bytes,
        summary.connections(),
        totals.delivered,
        totals.dropped,
        totals.missed,
        served.lag_events(),
        served.evicted,
    );
    served.write_tail(&mut out, args.stream.metrics_json.as_deref())?;
    Ok(out)
}

/// The eager `listening on` line: it streams to stdout (like paced replay)
/// so students — and scripts parsing the bound port — see the address while
/// the serve itself blocks; the accounting stays on the buffered contract.
fn print_listening(addr: std::net::SocketAddr, class: &ClassStream, args: &ServeArgs) {
    use std::io::Write as _;
    println!(
        "listening on {addr}: {} ({}) over {} nodes, {} window(s){}{}",
        class.scenario,
        class.description,
        class.node_count,
        class.planned,
        if args.students > 0 {
            format!(", waiting for {} student(s)", args.students)
        } else {
            String::new()
        },
        if args.speed > 0 {
            format!(", paced at {}x real time", args.speed)
        } else {
            String::new()
        },
    );
    let _ = std::io::stdout().flush();
}

/// One step of a followed serve connection, in wire order.
enum Followed<'a> {
    /// A server metrics snapshot (sent under `--stats-every`).
    Stats(tw_core::metrics::MetricsSnapshot),
    /// A decoded window, already applied to the live warehouse.
    Window(&'a WindowReport),
}

/// Follow a serve connection into a live warehouse session until the close
/// frame, or until `cap` windows: every window re-pallets the 10x10 display
/// scene, the same path a local replay drives. `on` sees each stats
/// snapshot and each window as it arrives.
fn follow_connection(
    client: &mut tw_core::serve::ClientStream,
    seed: u64,
    cap: usize,
    mut on: impl FnMut(Followed<'_>),
) -> Result<GameSession, CliError> {
    use tw_core::ingest::WindowStream;

    let scenario = client.manifest().scenario.clone();
    let mut session = GameSession::start(ModuleBundle::new(&scenario), seed)
        .map_err(|e| CliError(e.to_string()))?;
    session.subscribe_live(10);
    let mut seen = 0usize;
    loop {
        let next = if seen < cap {
            client.next_window().map_err(|e| CliError(e.to_string()))?
        } else {
            None
        };
        for snapshot in client.take_stats() {
            on(Followed::Stats(snapshot));
        }
        let Some(report) = next else {
            break;
        };
        session.ingest_window(&report);
        on(Followed::Window(&report));
        seen += 1;
    }
    Ok(session)
}

/// Join a serve session: follow the remote window stream into a live
/// warehouse view and report the server's close accounting. With `stats`,
/// the server's interleaved metrics snapshots (sent when it serves with
/// `--stats-every`) print as one-line summaries where they arrived.
pub fn run_connect(addr: &str, windows: Option<usize>, stats: bool) -> Result<String, CliError> {
    use tw_core::serve::ClientStream;

    let mut client = ClientStream::connect(addr).map_err(|e| CliError(format!("{addr}: {e}")))?;
    let manifest = client.manifest().clone();
    let mut out = format!(
        "connected to {addr}: {} over {} nodes, {} us windows, seed {}{}\n",
        manifest.scenario,
        manifest.node_count,
        manifest.window_us,
        manifest.seed,
        manifest
            .windows
            .map_or(String::new(), |w| format!(", {w} window(s) planned")),
    );
    let mut stats_seen = 0usize;
    let cap = windows.unwrap_or(usize::MAX);
    let session = follow_connection(&mut client, manifest.seed, cap, |step| match step {
        Followed::Stats(snapshot) => {
            if stats {
                stats_seen += 1;
                let _ = writeln!(out, "stats: {}", snapshot.one_line());
            }
        }
        Followed::Window(report) => {
            let _ = writeln!(out, "{}", report.stats.summary());
        }
    })?;
    if stats {
        let _ = writeln!(out, "received {stats_seen} stats frame(s)");
    }
    let live = session.live().expect("subscribed above");
    match client.close_summary() {
        Some(close) => {
            let _ = writeln!(
                out,
                "server closed: {} window(s) broadcast; delivered {} dropped {} missed {} (saw {})",
                close.windows,
                close.delivered,
                close.dropped,
                close.missed,
                live.windows_seen(),
            );
        }
        None => {
            let _ = writeln!(
                out,
                "left after {} window(s) with the stream still live",
                live.windows_seen()
            );
        }
    }
    Ok(out)
}

/// The scenario catalog as printable text.
pub fn render_scenarios() -> String {
    use tw_core::ingest::Scenario;
    let mut out = String::from("Ingest scenario catalog:\n");
    for scenario in Scenario::all() {
        let _ = writeln!(out, "  {:<12} {}", scenario.name(), scenario.describe());
    }
    out.push_str(
        "\nrun one with:  traffic-warehouse ingest --scenario <name>\n\
         serve a class: traffic-warehouse classroom --scenario <name> --students 30\n",
    );
    out
}

/// Validation report as printable text.
pub fn render_validation(module: &LearningModule) -> String {
    let report = validate(module);
    let mut out = format!(
        "{} ({}x{}, by {}): ",
        module.name,
        module.dimension(),
        module.dimension(),
        module.author
    );
    if report.issues.is_empty() {
        out.push_str("OK, no issues\n");
    } else {
        let _ = writeln!(
            out,
            "{} error(s), {} warning(s)",
            report.errors().count(),
            report.warnings().count()
        );
        for issue in &report.issues {
            let _ = writeln!(
                out,
                "  [{:?}] {}: {}",
                issue.severity, issue.field, issue.message
            );
        }
    }
    out
}

/// Render a module: returns `(ascii preview, ppm bytes)`.
pub fn render_module(module: &LearningModule, three_d: bool, colors: bool) -> (String, Vec<u8>) {
    if three_d {
        let scene = WarehouseScene::build(module);
        let mut view = ViewState::new();
        view.toggle_mode();
        view.colors_on = colors;
        let fb = scene.render(&view, 120, 60);
        (fb.to_ascii(), fb.to_ppm())
    } else {
        let color_plane = colors.then_some(&module.colors);
        let fb = render_matrix_2d(&module.matrix, color_plane);
        let ascii = module.matrix.to_ascii_with_colors(color_plane);
        (ascii, fb.to_ppm())
    }
}

/// Auto-play a bundle and produce a transcript.
pub fn play_bundle(bundle: ModuleBundle, seed: u64) -> Result<String, CliError> {
    let mut out = format!("Playing {:?}: {} module(s)\n", bundle.name, bundle.len());
    let mut session = GameSession::start(bundle, seed).map_err(|e| CliError(e.to_string()))?;
    while !session.is_finished() {
        let (name, question) = {
            let level = session.current_level().expect("not finished");
            (level.name().to_string(), level.question().cloned())
        };
        let _ = writeln!(out, "\n--- {} ---", name);
        match question {
            Some(q) => {
                out.push_str(&q.to_text());
                let outcome = session.answer(q.correct_index);
                let _ = writeln!(
                    out,
                    "answered: {} -> {:?}",
                    q.correct_answer(),
                    outcome.expect("answer accepted")
                );
            }
            None => {
                let _ = writeln!(out, "(no question; skipping)");
                session.skip().map_err(|e| CliError(e.to_string()))?;
                continue;
            }
        }
        session.advance().map_err(|e| CliError(e.to_string()))?;
    }
    let _ = writeln!(out, "\nFinal score: {}", session.score().summary());
    Ok(out)
}

fn render_curriculum() -> String {
    let curriculum = default_curriculum();
    let mut out = String::from("Default Traffic Warehouse curriculum:\n");
    for unit in curriculum
        .schedule()
        .expect("default curriculum is well-formed")
    {
        let _ = writeln!(
            out,
            "  {:<42} {:>2} module(s)   requires: {}",
            unit.name,
            unit.bundle.len(),
            if unit.prerequisites.is_empty() {
                "-".to_string()
            } else {
                unit.prerequisites.join(", ")
            }
        );
    }
    out
}

fn render_figures() -> String {
    let mut out = String::new();
    for figure in Figure::all() {
        let _ = writeln!(out, "Figure {}: {}", figure.number(), figure.title());
        for pattern in patterns_for_figure(figure) {
            let _ = writeln!(out, "\n[{}] {}", pattern.id, pattern.relevant_to);
            out.push_str(&pattern.matrix.to_ascii_with_colors(Some(&pattern.colors)));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// A live `scenario` stream: `windows` windows of `window_us` over `nodes`.
    fn live(scenario: &str, windows: usize, nodes: u32, window_us: u64) -> StreamSpec {
        StreamSpec {
            scenario: Some(scenario.into()),
            windows: Some(windows),
            nodes,
            window_us,
            ..StreamSpec::default()
        }
    }

    #[test]
    fn parses_commands_and_flags() {
        assert_eq!(parse_args(&args(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(
            parse_args(&args(&["validate", "m.json"])).unwrap(),
            Command::Validate {
                path: "m.json".into()
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "render",
                "m.json",
                "--three-d",
                "--colors",
                "--out",
                "x.ppm"
            ]))
            .unwrap(),
            Command::Render {
                path: "m.json".into(),
                three_d: true,
                colors: true,
                out: Some("x.ppm".into())
            }
        );
        assert_eq!(
            parse_args(&args(&["play", "b.zip", "--seed", "9"])).unwrap(),
            Command::Play {
                path: "b.zip".into(),
                seed: 9
            }
        );
        assert_eq!(
            parse_args(&args(&["curriculum"])).unwrap(),
            Command::Curriculum
        );
        assert_eq!(
            parse_args(&args(&[
                "ingest",
                "--scenario",
                "ddos",
                "--windows",
                "2",
                "--nodes",
                "256",
                "--seed",
                "3",
                "--batch",
                "512",
                "--window-us",
                "50000"
            ]))
            .unwrap(),
            Command::Ingest(IngestArgs {
                stream: StreamSpec {
                    seed: 3,
                    ..live("ddos", 2, 256, 50_000)
                },
                batch: 512,
                ..IngestArgs::default()
            })
        );
        // Defaults: 4 windows over 1024 nodes.
        assert_eq!(
            parse_args(&args(&["ingest", "--scenario", "scan"])).unwrap(),
            Command::Ingest(IngestArgs {
                stream: live("scan", 4, 1024, 100_000),
                batch: 8192,
                record: None,
                keyframe_every: 0,
                json: false,
            })
        );
        assert_eq!(
            parse_args(&args(&[
                "ingest",
                "--scenario",
                "ddos",
                "--record",
                "out.zip",
                "--keyframe-every",
                "4"
            ]))
            .unwrap(),
            Command::Ingest(IngestArgs {
                record: Some("out.zip".into()),
                keyframe_every: 4,
                ..IngestArgs::new("ddos")
            })
        );
        assert_eq!(
            parse_args(&args(&[
                "ingest",
                "--scenario",
                "ddos",
                "--skew-us",
                "5000",
                "--horizon-us",
                "20000"
            ]))
            .unwrap(),
            Command::Ingest(IngestArgs {
                stream: StreamSpec {
                    horizon_us: 20_000,
                    skew_us: 5_000,
                    ..live("ddos", 4, 1024, 100_000)
                },
                ..IngestArgs::default()
            })
        );
        assert_eq!(
            parse_args(&args(&["replay", "out.zip"])).unwrap(),
            Command::Replay {
                path: "out.zip".into(),
                speed: 0
            }
        );
        assert_eq!(
            parse_args(&args(&["replay", "out.zip", "--speed", "4"])).unwrap(),
            Command::Replay {
                path: "out.zip".into(),
                speed: 4
            }
        );
        assert_eq!(
            parse_args(&args(&["scenarios"])).unwrap(),
            Command::Scenarios
        );
        assert_eq!(
            parse_args(&args(&[
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--scenario",
                "ddos",
                "--students",
                "30",
                "--windows",
                "6",
                "--speed",
                "4",
                "--keyframe-every",
                "8",
            ]))
            .unwrap(),
            Command::Serve(ServeArgs {
                stream: StreamSpec {
                    scenario: Some("ddos".into()),
                    windows: Some(6),
                    ..StreamSpec::default()
                },
                students: 30,
                speed: 4,
                keyframe_every: 8,
                ..ServeArgs::new("127.0.0.1:0")
            })
        );
        assert_eq!(
            parse_args(&args(&[
                "serve",
                "--listen",
                "0.0.0.0:7000",
                "--replay",
                "c.zip",
            ]))
            .unwrap(),
            Command::Serve(ServeArgs {
                replay: Some("c.zip".into()),
                ..ServeArgs::new("0.0.0.0:7000")
            })
        );
        assert_eq!(
            parse_args(&args(&["connect", "127.0.0.1:7000"])).unwrap(),
            Command::Connect {
                addr: "127.0.0.1:7000".into(),
                windows: None,
                stats: false
            }
        );
        assert_eq!(
            parse_args(&args(&["connect", "127.0.0.1:7000", "--windows", "5"])).unwrap(),
            Command::Connect {
                addr: "127.0.0.1:7000".into(),
                windows: Some(5),
                stats: false
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "classroom",
                "--scenario",
                "ddos",
                "--students",
                "30"
            ]))
            .unwrap(),
            Command::Classroom(ClassroomArgs {
                serve: ServeArgs {
                    stream: StreamSpec {
                        scenario: Some("ddos".into()),
                        ..StreamSpec::default()
                    },
                    students: 30,
                    ..ServeArgs::new(LOOPBACK)
                },
                late: None,
            })
        );
        assert_eq!(
            parse_args(&args(&[
                "classroom",
                "--replay",
                "c.zip",
                "--windows",
                "4",
                "--speed",
                "8",
                "--late",
                "2",
                "--seed",
                "9",
                "--nodes",
                "128",
                "--window-us",
                "50000",
            ]))
            .unwrap(),
            Command::Classroom(ClassroomArgs {
                serve: ServeArgs {
                    stream: StreamSpec {
                        windows: Some(4),
                        nodes: 128,
                        seed: 9,
                        window_us: 50_000,
                        ..StreamSpec::default()
                    },
                    replay: Some("c.zip".into()),
                    students: 8,
                    speed: 8,
                    ..ServeArgs::new(LOOPBACK)
                },
                late: Some(2),
            })
        );
    }

    #[test]
    fn parses_metrics_and_json_flags() {
        assert_eq!(
            parse_args(&args(&[
                "ingest",
                "--scenario",
                "ddos",
                "--json",
                "--metrics-json",
                "m.json",
                "--stats-every",
                "2",
            ]))
            .unwrap(),
            Command::Ingest(IngestArgs {
                stream: StreamSpec {
                    metrics_json: Some("m.json".into()),
                    stats_every: 2,
                    ..live("ddos", 4, 1024, 100_000)
                },
                json: true,
                ..IngestArgs::default()
            })
        );
        assert_eq!(
            parse_args(&args(&[
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--scenario",
                "ddos",
                "--metrics-json",
                "m.json",
                "--stats-every",
                "1",
            ]))
            .unwrap(),
            Command::Serve(ServeArgs {
                stream: StreamSpec {
                    scenario: Some("ddos".into()),
                    metrics_json: Some("m.json".into()),
                    stats_every: 1,
                    ..StreamSpec::default()
                },
                ..ServeArgs::new("127.0.0.1:0")
            })
        );
        assert_eq!(
            parse_args(&args(&["connect", "127.0.0.1:7000", "--stats"])).unwrap(),
            Command::Connect {
                addr: "127.0.0.1:7000".into(),
                windows: None,
                stats: true,
            }
        );
        match parse_args(&args(&[
            "classroom",
            "--scenario",
            "ddos",
            "--metrics-json",
            "m.json",
            "--stats-every",
            "3",
        ]))
        .unwrap()
        {
            Command::Classroom(ClassroomArgs {
                serve:
                    ServeArgs {
                        stream:
                            StreamSpec {
                                metrics_json,
                                stats_every,
                                ..
                            },
                        ..
                    },
                ..
            }) => {
                assert_eq!(metrics_json.as_deref(), Some("m.json"));
                assert_eq!(stats_every, 3);
            }
            other => panic!("parsed {other:?}"),
        }
        // Flags that need values reject their absence.
        assert!(parse_args(&args(&["ingest", "--scenario", "ddos", "--metrics-json"])).is_err());
        assert!(parse_args(&args(&["ingest", "--scenario", "ddos", "--stats-every"])).is_err());
        assert!(parse_args(&args(&[
            "ingest",
            "--scenario",
            "ddos",
            "--stats-every",
            "x"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "serve",
            "--listen",
            "a:0",
            "--scenario",
            "ddos",
            "--metrics-json"
        ]))
        .is_err());
        assert!(parse_args(&args(&["classroom", "--scenario", "ddos", "--stats-every"])).is_err());
    }

    #[test]
    fn stream_commands_share_the_stream_flags_and_keep_their_own() {
        let commands: [&[&str]; 3] = [
            &["ingest", "--scenario", "scan"],
            &["serve", "--listen", "127.0.0.1:0", "--scenario", "scan"],
            &["classroom", "--scenario", "scan"],
        ];
        let stream = |list: &[&str]| match parse_args(&args(list)) {
            Ok(Command::Ingest(parsed)) => parsed.stream,
            Ok(Command::Serve(parsed)) => parsed.stream,
            Ok(Command::Classroom(parsed)) => parsed.serve.stream,
            other => panic!("{list:?} parsed to {other:?}"),
        };
        type Set = fn(&mut StreamSpec);
        let flags: [(&str, &str, Set); 9] = [
            ("--scenario", "ddos", |s| s.scenario = Some("ddos".into())),
            ("--windows", "3", |s| s.windows = Some(3)),
            ("--nodes", "99", |s| s.nodes = 99),
            ("--seed", "5", |s| s.seed = 5),
            ("--window-us", "250", |s| s.window_us = 250),
            ("--skew-us", "40", |s| s.skew_us = 40),
            ("--horizon-us", "60", |s| s.horizon_us = 60),
            ("--metrics-json", "m.json", |s| {
                s.metrics_json = Some("m.json".into())
            }),
            ("--stats-every", "2", |s| s.stats_every = 2),
        ];
        for command in commands {
            let defaults = stream(command);
            for (flag, value, set) in flags {
                let mut expected = defaults.clone();
                set(&mut expected);
                let list = [command, &[flag, value]].concat();
                assert_eq!(stream(&list), expected, "{list:?}");
            }
        }
        // Each command still refuses the other commands' own flags.
        let [ingest, serve, classroom] = commands;
        let refused: [(&[&str], &[&str]); 3] = [
            (
                classroom,
                &[
                    "--keyframe-every",
                    "--listen",
                    "--batch",
                    "--record",
                    "--json",
                ],
            ),
            (
                ingest,
                &["--replay", "--speed", "--students", "--late", "--listen"],
            ),
            (serve, &["--late", "--batch", "--record", "--json"]),
        ];
        for (command, flags) in refused {
            for flag in flags {
                let list = [command, &[flag, "1"]].concat();
                assert_eq!(
                    parse_args(&args(&list)),
                    Err(CliError(format!("unknown flag {flag:?}"))),
                    "{list:?}"
                );
            }
        }
    }

    #[test]
    fn ingest_json_mode_emits_parseable_window_objects() {
        use tw_core::json;
        let out = run_ingest(&IngestArgs {
            stream: live("ddos", 3, 256, 50_000),
            json: true,
            ..IngestArgs::default()
        })
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "pure JSONL, one object per window: {out}");
        for (index, line) in lines.iter().enumerate() {
            let value = json::parse(line).expect("each line parses alone");
            let object = value.as_object().expect("each line is one object");
            assert_eq!(
                object.get("window").and_then(json::Value::as_u64),
                Some(index as u64)
            );
            for field in [
                "events",
                "packets",
                "nnz",
                "dropped_late",
                "reordered",
                "elapsed_us",
            ] {
                assert!(
                    object.get(field).and_then(json::Value::as_u64).is_some(),
                    "{field} missing from {line}"
                );
            }
        }
    }

    #[test]
    fn ingest_metrics_land_in_the_file_and_the_transcript() {
        use tw_core::metrics::MetricsSnapshot;
        let dir = std::env::temp_dir().join(format!("tw-cli-metrics-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ingest.json").to_string_lossy().into_owned();

        let out = run_ingest(&IngestArgs {
            stream: StreamSpec {
                metrics_json: Some(path.clone()),
                stats_every: 2,
                ..live("ddos", 4, 256, 50_000)
            },
            ..IngestArgs::default()
        })
        .unwrap();
        // Two interleaved one-line summaries (after windows 2 and 4).
        assert_eq!(
            out.lines().filter(|l| l.starts_with("stats: ")).count(),
            2,
            "{out}"
        );
        assert!(
            out.contains(&format!("wrote metrics snapshot to {path}")),
            "{out}"
        );

        // The file parses back into a snapshot whose counters match the
        // transcript's own totals.
        let text = std::fs::read_to_string(&path).unwrap();
        let snapshot = MetricsSnapshot::from_json(&tw_core::json::parse(&text).unwrap()).unwrap();
        assert_eq!(snapshot.counter("pipeline.windows"), 4);
        let events: u64 = out
            .lines()
            .find(|l| l.starts_with("total: "))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|n| n.parse().ok())
            .expect("total line carries the event count");
        assert_eq!(snapshot.counter("pipeline.events"), events);
        assert!(
            snapshot
                .histogram("pipeline.coalesce_ns")
                .is_some_and(|h| h.count == 4),
            "one coalesce sample per window"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn classroom_metrics_balance_the_printed_roster() {
        use tw_core::metrics::MetricsSnapshot;
        let dir = std::env::temp_dir().join(format!("tw-cli-class-metrics-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("class.json").to_string_lossy().into_owned();

        let out = run_classroom(&ClassroomArgs {
            serve: ServeArgs {
                stream: StreamSpec {
                    metrics_json: Some(path.clone()),
                    stats_every: 1,
                    ..live("ddos", 3, 128, 50_000)
                },
                students: 4,
                ..ServeArgs::new(LOOPBACK)
            },
            late: Some(0),
        })
        .unwrap();
        assert!(out.contains("metrics: "), "{out}");
        assert!(out.contains("telemetry event(s) evicted"), "{out}");
        assert_eq!(
            out.lines().filter(|l| l.contains("stats after w")).count(),
            3,
            "{out}"
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let snapshot = MetricsSnapshot::from_json(&tw_core::json::parse(&text).unwrap()).unwrap();
        assert_eq!(snapshot.counter("pipeline.windows"), 3);
        assert_eq!(snapshot.counter("broadcast.windows"), 3);
        // Nothing can lag at these capacities: the roster counters conserve.
        assert_eq!(snapshot.counter("broadcast.delivered"), 12);
        assert_eq!(snapshot.counter("broadcast.dropped"), 0);
        assert_eq!(snapshot.counter("broadcast.missed"), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse_args(&args(&["validate"])).is_err());
        assert!(parse_args(&args(&["render"])).is_err());
        assert!(parse_args(&args(&["render", "m.json", "--bogus"])).is_err());
        assert!(parse_args(&args(&["play", "b.zip", "--seed", "abc"])).is_err());
        assert!(parse_args(&args(&["frobnicate"])).is_err());
        assert!(
            parse_args(&args(&["ingest"])).is_err(),
            "--scenario is required"
        );
        assert!(parse_args(&args(&["ingest", "--scenario", "ddos", "--windows", "0"])).is_err());
        assert!(parse_args(&args(&["ingest", "--scenario", "ddos", "--windows", "x"])).is_err());
        assert!(parse_args(&args(&["ingest", "--scenario", "ddos", "--bogus"])).is_err());
        assert!(parse_args(&args(&["ingest", "--scenario", "ddos", "--record"])).is_err());
        assert!(
            parse_args(&args(&[
                "ingest",
                "--scenario",
                "ddos",
                "--keyframe-every",
                "4"
            ]))
            .is_err(),
            "--keyframe-every without --record has nothing to shape"
        );
        assert!(parse_args(&args(&[
            "ingest",
            "--scenario",
            "ddos",
            "--record",
            "o.zip",
            "--keyframe-every",
            "x"
        ]))
        .is_err());
        assert!(
            parse_args(&args(&["replay"])).is_err(),
            "replay needs a path"
        );
        assert!(parse_args(&args(&["replay", "o.zip", "--speed", "0"])).is_err());
        assert!(parse_args(&args(&["replay", "o.zip", "--speed", "x"])).is_err());
        assert!(parse_args(&args(&["replay", "o.zip", "--bogus"])).is_err());
        assert!(
            parse_args(&args(&["classroom"])).is_err(),
            "needs a scenario or a recording"
        );
        assert!(parse_args(&args(&[
            "classroom",
            "--scenario",
            "ddos",
            "--students",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "classroom",
            "--scenario",
            "ddos",
            "--windows",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&args(&["classroom", "--scenario", "ddos", "--bogus"])).is_err());
        assert!(
            parse_args(&args(&["classroom", "--scenario", "ddos", "--speed", "0"])).is_err(),
            "a zero pace would serve nothing; rejected at parse time"
        );
        assert!(parse_args(&args(&["classroom", "--replay"])).is_err());
        assert!(
            parse_args(&args(&[
                "classroom",
                "--scenario",
                "ddos",
                "--replay",
                "c.zip"
            ]))
            .is_err(),
            "a recording carries its own scenario"
        );
        assert!(
            parse_args(&args(&["serve", "--scenario", "ddos"])).is_err(),
            "--listen is required"
        );
        assert!(
            parse_args(&args(&["serve", "--listen", "127.0.0.1:0"])).is_err(),
            "needs a scenario or a recording"
        );
        assert!(
            parse_args(&args(&[
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--scenario",
                "ddos",
                "--replay",
                "c.zip"
            ]))
            .is_err(),
            "a recording carries its own scenario"
        );
        assert!(
            parse_args(&args(&[
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--replay",
                "c.zip",
                "--skew-us",
                "100"
            ]))
            .is_err(),
            "skew applies to live ingestion only"
        );
        assert!(parse_args(&args(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--scenario",
            "ddos",
            "--windows",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--scenario",
            "ddos",
            "--bogus"
        ]))
        .is_err());
        assert!(
            parse_args(&args(&[
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--scenario",
                "ddos",
                "--speed",
                "0"
            ]))
            .is_err(),
            "a zero pace would serve nothing; rejected at parse time"
        );
        assert!(parse_args(&args(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--scenario",
            "ddos",
            "--keyframe-every",
            "x"
        ]))
        .is_err());
        assert!(
            parse_args(&args(&["connect"])).is_err(),
            "connect needs an address"
        );
        assert!(parse_args(&args(&["connect", "a:1", "--windows", "0"])).is_err());
        assert!(parse_args(&args(&["connect", "a:1", "--bogus"])).is_err());
        assert!(parse_args(&args(&["ingest", "--scenario", "ddos", "--skew-us"])).is_err());
        assert!(parse_args(&args(&[
            "ingest",
            "--scenario",
            "ddos",
            "--horizon-us",
            "x"
        ]))
        .is_err());
        assert!(
            parse_args(&args(&[
                "classroom",
                "--replay",
                "c.zip",
                "--skew-us",
                "5000"
            ]))
            .is_err(),
            "skew applies to live ingestion only"
        );
        assert!(
            parse_args(&args(&[
                "classroom",
                "--replay",
                "c.zip",
                "--horizon-us",
                "100"
            ]))
            .is_err(),
            "horizon applies to live ingestion only"
        );
    }

    #[test]
    fn ingest_command_streams_windows() {
        let out = run(&Command::Ingest(IngestArgs {
            stream: live("ddos", 4, 256, 50_000),
            batch: 2048,
            ..IngestArgs::default()
        }))
        .unwrap();
        assert!(out.contains("scenario ddos"));
        assert_eq!(out.lines().filter(|l| l.starts_with("window ")).count(), 4);
        assert!(out.contains("window   0:"));
        assert!(out.contains("window   3:"));
        assert!(out.contains("total: "));
        // Unknown scenarios name the catalog.
        let small = |scenario: &str, nodes, batch, window_us| IngestArgs {
            stream: StreamSpec {
                seed: 1,
                ..live(scenario, 1, nodes, window_us)
            },
            batch,
            ..IngestArgs::default()
        };
        let err = run_ingest(&small("wat", 256, 128, 1_000)).unwrap_err();
        assert!(err.0.contains("known scenarios"));
        assert!(
            run_ingest(&small("ddos", 4, 128, 1_000)).is_err(),
            "tiny address space"
        );
        assert!(
            run_ingest(&small("ddos", 256, 0, 1_000)).is_err(),
            "zero batch"
        );
        assert!(
            run_ingest(&small("ddos", 256, 128, 0)).is_err(),
            "zero window"
        );
    }

    #[test]
    fn ingest_with_skew_and_horizon_loses_nothing() {
        // The ISSUE's acceptance smoke: a skewed DDoS stream with a horizon
        // covering the disorder bound (5000 + 5000/4 = 6250 <= 20000)
        // ingests with zero late drops and a busy reordered counter.
        let out = run_ingest(&IngestArgs {
            stream: StreamSpec {
                horizon_us: 20_000,
                skew_us: 5_000,
                ..live("ddos", 3, 256, 50_000)
            },
            ..IngestArgs::default()
        })
        .unwrap();
        assert!(
            out.contains(
                "clock skew up to 5000 us (max disorder 6250 us), reorder horizon 20000 us"
            ),
            "{out}"
        );
        assert!(out.contains(" 0 late"), "{out}");
        assert!(!out.contains(" 0 reordered,"), "{out}");
        assert!(!out.contains("WARNING"), "{out}");

        // An undersized horizon warns up front and reports its drops.
        let out = run_ingest(&IngestArgs {
            stream: StreamSpec {
                horizon_us: 100,
                skew_us: 20_000,
                ..live("ddos", 3, 256, 50_000)
            },
            ..IngestArgs::default()
        })
        .unwrap();
        assert!(
            out.contains("WARNING: horizon below the disorder bound"),
            "{out}"
        );
    }

    #[test]
    fn record_then_replay_round_trips_the_window_stream() {
        let dir = std::env::temp_dir().join(format!("tw-cli-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let zip = dir.join("ddos.zip").to_string_lossy().into_owned();

        let ingest_out = run(&Command::Ingest(IngestArgs {
            stream: live("ddos", 8, 256, 50_000),
            batch: 2048,
            record: Some(zip.clone()),
            ..IngestArgs::default()
        }))
        .unwrap();
        assert!(ingest_out.contains("recorded 8 window(s)"), "{ingest_out}");

        let replay_out = run(&Command::Replay {
            path: zip.clone(),
            speed: 0,
        })
        .unwrap();
        assert!(replay_out.contains("replaying"), "{replay_out}");
        assert!(replay_out.contains("(ddos)"));
        assert!(replay_out.contains("8 window(s)"));
        assert!(replay_out.contains("replayed 8 window(s) onto the live warehouse"));

        // The replayed per-window lines reproduce the recorded statistics
        // exactly: same window indices, events, packets, nnz (the trailing
        // wall-clock columns are recorded values too, so whole lines match).
        let window_lines = |text: &str| -> Vec<String> {
            text.lines()
                .filter(|l| l.starts_with("window "))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(window_lines(&ingest_out), window_lines(&replay_out));

        // Paced playback streams each line to stdout as it replays, so the
        // returned (buffered) transcript is empty.
        let paced = run_replay(&zip, 1_000).unwrap();
        assert!(paced.is_empty(), "paced replay must stream, not buffer");

        // Recording refuses address spaces beyond the window codec's limit
        // up front instead of panicking mid-capture.
        let err = run_ingest(&IngestArgs {
            stream: StreamSpec {
                seed: 1,
                ..live("ddos", 1, u32::MAX, 1_000)
            },
            batch: 128,
            record: Some("never.zip".into()),
            ..IngestArgs::default()
        })
        .unwrap_err();
        assert!(err.0.contains("codec"), "{err}");

        // Replaying garbage fails cleanly.
        let junk = dir.join("junk.zip").to_string_lossy().into_owned();
        std::fs::write(&junk, b"not a zip").unwrap();
        assert!(run_replay(&junk, 0).is_err());
        assert!(run_replay(dir.join("missing.zip").to_string_lossy().as_ref(), 0).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delta_recordings_replay_like_full_ones() {
        // A cadence-3 archive (key frames at w0/w3/w6, deltas between)
        // replays the identical per-window statistics lines.
        let dir = std::env::temp_dir().join(format!("tw-cli-delta-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let zip = dir.join("delta.zip").to_string_lossy().into_owned();
        let ingest_out = run_ingest(&IngestArgs {
            stream: live("ddos", 7, 256, 50_000),
            batch: 2048,
            record: Some(zip.clone()),
            keyframe_every: 3,
            ..IngestArgs::default()
        })
        .unwrap();
        assert!(ingest_out.contains("recorded 7 window(s)"), "{ingest_out}");
        let replay_out = run_replay(&zip, 0).unwrap();
        assert!(
            replay_out.contains("replayed 7 window(s) onto the live warehouse"),
            "{replay_out}"
        );
        let window_lines = |text: &str| -> Vec<String> {
            text.lines()
                .filter(|l| l.starts_with("window "))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(window_lines(&ingest_out), window_lines(&replay_out));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scenarios_lists_the_whole_catalog() {
        let out = run(&Command::Scenarios).unwrap();
        use tw_core::ingest::Scenario;
        for scenario in Scenario::all() {
            assert!(out.contains(scenario.name()), "{out}");
            assert!(out.contains(scenario.describe()), "{out}");
        }
        assert!(out.contains("classroom"));
    }

    #[test]
    fn classroom_serves_live_and_replayed_scenarios() {
        // Live: 6 students, one late, 3 windows.
        let out = run_classroom(&ClassroomArgs {
            serve: ServeArgs {
                stream: live("ddos", 3, 128, 50_000),
                students: 6,
                ..ServeArgs::new(LOOPBACK)
            },
            late: Some(1),
        })
        .unwrap();
        assert!(
            out.contains("6 student(s) (5 on time, 1 late at w1)"),
            "{out}"
        );
        assert_eq!(
            out.lines().filter(|l| l.contains("student ")).count(),
            6,
            "{out}"
        );
        assert!(out.contains("3 window(s) served once to 6 subscriber(s)"));
        // Every student saw all 3 windows: the late one connected at w1 and,
        // like any late `connect`, caught up from the ring starting at w0.
        assert_eq!(
            out.lines()
                .filter(|l| l.contains("joined w0       3 window(s)"))
                .count(),
            6,
            "{out}"
        );

        // Replay: record 4 windows, broadcast the file to 4 students.
        let dir = std::env::temp_dir().join(format!("tw-cli-classroom-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let zip = dir.join("class.zip").to_string_lossy().into_owned();
        run_ingest(&IngestArgs {
            stream: StreamSpec {
                seed: 3,
                ..live("scan", 4, 128, 50_000)
            },
            batch: 2048,
            record: Some(zip.clone()),
            ..IngestArgs::default()
        })
        .unwrap();
        let out = run_classroom(&ClassroomArgs {
            serve: ServeArgs {
                replay: Some(zip.clone()),
                students: 4,
                ..ServeArgs::new(LOOPBACK)
            },
            late: Some(0),
        })
        .unwrap();
        assert!(out.contains("scan (replayed from"), "{out}");
        assert!(out.contains("4 window(s) served once to 4 subscriber(s)"));
        assert!(out.contains("(4 on time, 0 late"), "{out}");

        // Errors: unknown scenario, missing recording, tiny address space.
        let bad = |scenario: Option<&str>, replay: Option<String>, nodes| {
            run_classroom(&ClassroomArgs {
                serve: ServeArgs {
                    stream: StreamSpec {
                        scenario: scenario.map(String::from),
                        windows: Some(1),
                        nodes,
                        seed: 1,
                        window_us: 1_000,
                        ..StreamSpec::default()
                    },
                    replay,
                    students: 2,
                    ..ServeArgs::new(LOOPBACK)
                },
                late: None,
            })
        };
        assert!(bad(Some("wat"), None, 128)
            .unwrap_err()
            .0
            .contains("known scenarios"));
        assert!(bad(
            None,
            Some(dir.join("gone.zip").to_string_lossy().into_owned()),
            128
        )
        .is_err());
        assert!(bad(Some("ddos"), None, 4).is_err(), "tiny address space");
        let err = bad(Some("ddos"), None, 16_777_217).unwrap_err();
        assert!(err.0.contains("dimension limit"), "{err}");

        // A skewed live classroom: the whole class still sees every window.
        let out = run_classroom(&ClassroomArgs {
            serve: ServeArgs {
                stream: StreamSpec {
                    horizon_us: 20_000,
                    skew_us: 5_000,
                    ..live("ddos", 2, 128, 50_000)
                },
                students: 3,
                ..ServeArgs::new(LOOPBACK)
            },
            late: Some(0),
        })
        .unwrap();
        assert!(
            out.contains("clock skew 5000 us, horizon 20000 us"),
            "{out}"
        );
        assert!(!out.contains("WARNING"), "covered horizon: {out}");
        assert!(out.contains("2 window(s) served once to 3 subscriber(s)"));

        // An undersized horizon warns up front, like `ingest` does.
        let out = run_classroom(&ClassroomArgs {
            serve: ServeArgs {
                stream: StreamSpec {
                    horizon_us: 100,
                    skew_us: 20_000,
                    ..live("ddos", 1, 128, 50_000)
                },
                students: 1,
                ..ServeArgs::new(LOOPBACK)
            },
            late: Some(0),
        })
        .unwrap();
        assert!(
            out.contains("WARNING: horizon below the disorder bound"),
            "{out}"
        );

        // Programmatic callers hit the same skew-vs-replay guard as the parser.
        let err = run_classroom(&ClassroomArgs {
            serve: ServeArgs {
                stream: StreamSpec {
                    windows: Some(1),
                    nodes: 128,
                    seed: 1,
                    window_us: 1_000,
                    skew_us: 5_000,
                    ..StreamSpec::default()
                },
                replay: Some(zip.clone()),
                students: 1,
                ..ServeArgs::new(LOOPBACK)
            },
            late: None,
        })
        .unwrap_err();
        assert!(err.0.contains("live ingestion"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn classroom_replay_forwards_recorded_frames_to_every_student() {
        use tw_core::metrics::MetricsSnapshot;
        let dir = std::env::temp_dir().join(format!("tw-cli-class-forward-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let zip = dir.join("lesson.zip").to_string_lossy().into_owned();
        let path = dir.join("class.json").to_string_lossy().into_owned();
        run_ingest(&IngestArgs {
            stream: live("ddos", 4, 128, 50_000),
            record: Some(zip.clone()),
            ..IngestArgs::default()
        })
        .unwrap();
        let out = run_classroom(&ClassroomArgs {
            serve: ServeArgs {
                stream: StreamSpec {
                    metrics_json: Some(path.clone()),
                    ..StreamSpec::default()
                },
                replay: Some(zip),
                students: 3,
                ..ServeArgs::new(LOOPBACK)
            },
            late: Some(1),
        })
        .unwrap();
        assert!(
            out.contains("4 window(s) served once to 3 subscriber(s)"),
            "{out}"
        );
        assert!(!out.contains("WARNING"), "{out}");
        // Students reach the lesson only through `serve`: a cadence-0
        // recording goes out as its archive entries, never re-encoded.
        let text = std::fs::read_to_string(&path).unwrap();
        let snapshot = MetricsSnapshot::from_json(&tw_core::json::parse(&text).unwrap()).unwrap();
        assert_eq!(snapshot.counter("serve.windows_encoded"), 4);
        assert_eq!(snapshot.counter("serve.windows_forwarded"), 4);
        assert_eq!(snapshot.counter("serve.connections"), 3);
        for peer in 0..3 {
            let count = |what: &str| snapshot.counter(&format!("serve.peer.{peer}.{what}"));
            assert_eq!(
                count("delivered") + count("dropped") + count("missed"),
                4,
                "{snapshot:?}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn classroom_late_students_catch_up_from_the_ring() {
        use tw_core::game::TelemetryEvent;
        let (out, events) = classroom(&ClassroomArgs {
            serve: ServeArgs {
                stream: live("ddos", 4, 128, 50_000),
                students: 5,
                ..ServeArgs::new(LOOPBACK)
            },
            late: Some(2),
        })
        .unwrap();
        assert!(out.contains("(3 on time, 2 late at w2)"), "{out}");
        let caught_up: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::SubscriberJoined { caught_up, .. } => Some(*caught_up),
                _ => None,
            })
            .collect();
        assert_eq!(caught_up.len(), 5, "{events:?}");
        // The roster gate holds w0 for the on-time students; the late ones
        // connect while w2 is held, after w0 and w1 went out.
        assert_eq!(caught_up.iter().filter(|&&c| c == 0).count(), 3);
        assert_eq!(caught_up.iter().filter(|&&c| c >= 2).count(), 2);
    }

    #[test]
    fn held_window_opens_the_late_door_when_the_stream_fails_early() {
        use std::sync::atomic::Ordering;
        use tw_core::ingest::{Pipeline, PipelineConfig, Scenario, WindowStream};
        let pipeline = Pipeline::new(Scenario::Ddos.source(64, 1), PipelineConfig::default());
        let door = LateDoor::default();
        let mut stream = HoldForLate {
            inner: Box::new(tw_core::serve::ChaosStream::new(pipeline, 1)),
            late_at: 5,
            late: 0,
            pulled: 0,
            door: &door,
        };
        assert!(stream.next_window().unwrap().is_some());
        assert!(
            !door.open.load(Ordering::SeqCst),
            "w0 is before the late window"
        );
        assert!(stream.next_window().is_err());
        assert!(
            door.open.load(Ordering::SeqCst),
            "the failure releases the late group"
        );
    }

    #[test]
    fn serve_and_connect_round_trip_over_loopback() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let args = ServeArgs {
            stream: live("ddos", 3, 128, 50_000),
            students: 2,
            ..ServeArgs::new("127.0.0.1:0")
        };
        let (serve_out, client_outs) = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..2)
                .map(|_| {
                    let addr = addr.clone();
                    scope.spawn(move || run_connect(&addr, None, false).unwrap())
                })
                .collect();
            let out = run_serve_on(listener, &args).unwrap();
            let outs: Vec<String> = clients.into_iter().map(|c| c.join().unwrap()).collect();
            (out, outs)
        });
        assert!(serve_out.contains("served 3 window(s)"), "{serve_out}");
        assert!(
            serve_out.contains("telemetry event(s) evicted"),
            "{serve_out}"
        );
        assert_eq!(
            serve_out.lines().filter(|l| l.contains("student ")).count(),
            2,
            "{serve_out}"
        );
        assert!(!serve_out.contains("WARNING"), "{serve_out}");
        for out in &client_outs {
            assert!(out.contains("connected to"), "{out}");
            assert_eq!(
                out.lines().filter(|l| l.starts_with("window ")).count(),
                3,
                "{out}"
            );
            assert!(
                out.contains("delivered 3 dropped 0 missed 0 (saw 3)"),
                "{out}"
            );
        }

        // Error paths: an unbindable address, an unreachable server, and the
        // same stream validation the classroom applies.
        let scenario = |name: &str| StreamSpec {
            scenario: Some(name.into()),
            ..StreamSpec::default()
        };
        assert!(run_serve(&ServeArgs {
            stream: scenario("ddos"),
            ..ServeArgs::new("256.0.0.1:0")
        })
        .is_err());
        assert!(
            run_connect("127.0.0.1:1", None, false).is_err(),
            "nothing listens"
        );
        assert!(run_serve(&ServeArgs {
            stream: scenario("wat"),
            ..ServeArgs::new("127.0.0.1:0")
        })
        .unwrap_err()
        .0
        .contains("known scenarios"));
        assert!(
            run_serve(&ServeArgs {
                stream: StreamSpec {
                    nodes: 4,
                    ..scenario("ddos")
                },
                ..ServeArgs::new("127.0.0.1:0")
            })
            .is_err(),
            "tiny address space"
        );
        // An address space the window codec cannot encode is refused before
        // any pipeline is built, not a panic on the first window.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let err = run_serve_on(
            listener,
            &ServeArgs {
                stream: StreamSpec {
                    nodes: 16_777_217,
                    ..scenario("ddos")
                },
                ..ServeArgs::new("127.0.0.1:0")
            },
        )
        .unwrap_err();
        assert!(err.0.contains("dimension limit"), "{err}");
    }

    #[test]
    fn serve_streams_stats_frames_that_connect_can_print() {
        use tw_core::metrics::MetricsSnapshot;
        let dir = std::env::temp_dir().join(format!("tw-cli-wire-stats-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.json").to_string_lossy().into_owned();

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let args = ServeArgs {
            stream: StreamSpec {
                metrics_json: Some(path.clone()),
                stats_every: 1,
                ..live("ddos", 3, 128, 50_000)
            },
            students: 1,
            ..ServeArgs::new("127.0.0.1:0")
        };
        let (serve_out, client_out) = std::thread::scope(|scope| {
            let client = {
                let addr = addr.clone();
                scope.spawn(move || run_connect(&addr, None, true).unwrap())
            };
            let out = run_serve_on(listener, &args).unwrap();
            (out, client.join().unwrap())
        });

        // The client printed interleaved one-line snapshots: one per window
        // plus the final frame.
        assert_eq!(
            client_out
                .lines()
                .filter(|l| l.starts_with("stats: "))
                .count(),
            4,
            "{client_out}"
        );
        assert!(
            client_out.contains("received 4 stats frame(s)"),
            "{client_out}"
        );
        assert!(
            client_out.contains("serve.windows_encoded=3"),
            "the final wire snapshot carries the full encode count: {client_out}"
        );

        // The server wrote the same final snapshot to disk, and its books
        // balance: windows encoded == delivered + dropped + missed per peer.
        assert!(serve_out.contains("metrics: "), "{serve_out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let snapshot = MetricsSnapshot::from_json(&tw_core::json::parse(&text).unwrap()).unwrap();
        let encoded = snapshot.counter("serve.windows_encoded");
        assert_eq!(encoded, 3);
        assert_eq!(
            snapshot.counter("serve.peer.0.delivered")
                + snapshot.counter("serve.peer.0.dropped")
                + snapshot.counter("serve.peer.0.missed"),
            encoded,
            "{snapshot:?}"
        );
        assert_eq!(snapshot.counter("serve.connections"), 1);
        assert_eq!(snapshot.counter("pipeline.windows"), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validate_and_render_helpers() {
        let module = tw_core::module::template_10x10();
        let report = render_validation(&module);
        assert!(report.contains("OK, no issues"));

        let (ascii_2d, ppm_2d) = render_module(&module, false, true);
        assert!(ascii_2d.contains("WS1"));
        assert!(ppm_2d.starts_with(b"P6\n"));
        let (ascii_3d, ppm_3d) = render_module(&module, true, true);
        assert!(!ascii_3d.is_empty());
        assert!(ppm_3d.len() > ppm_2d.len() / 4);
    }

    #[test]
    fn play_transcript_reports_the_score() {
        let bundle = tw_core::module::library::figure_bundle(Figure::Posture);
        let transcript = play_bundle(bundle, 3).unwrap();
        assert!(transcript.contains("3/3 correct"));
        assert!(transcript.contains("Security"));
        assert!(transcript.contains("Deterrence"));
    }

    #[test]
    fn curriculum_and_figures_render() {
        let curriculum = render_curriculum();
        assert!(curriculum.contains("DDoS"));
        assert!(curriculum.contains("requires"));
        let figures = render_figures();
        assert!(figures.contains("Figure 10: Graph Theory"));
        assert!(figures.contains("ddos/attack"));
    }

    #[test]
    fn file_commands_round_trip_through_a_temp_directory() {
        let dir = std::env::temp_dir().join(format!("tw-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let module_path = dir.join("module.json");
        std::fs::write(&module_path, tw_core::module::template_6x6().to_json()).unwrap();

        let validate_out = run(&Command::Validate {
            path: module_path.to_string_lossy().into_owned(),
        })
        .unwrap();
        assert!(validate_out.contains("OK"));

        let obfuscated = run(&Command::Obfuscate {
            path: module_path.to_string_lossy().into_owned(),
        })
        .unwrap();
        assert!(obfuscated.contains("correct_answer_token"));

        let export_out = run(&Command::ExportLibrary {
            directory: dir.join("library").to_string_lossy().into_owned(),
        })
        .unwrap();
        assert_eq!(export_out.lines().count(), 6);
        let play_target = dir.join("library/ddos_attack.zip");
        assert!(play_target.exists());
        let play_out = run(&Command::Play {
            path: play_target.to_string_lossy().into_owned(),
            seed: 1,
        })
        .unwrap();
        assert!(play_out.contains("4/4 correct"));

        let missing = run(&Command::Validate {
            path: dir.join("nope.json").to_string_lossy().into_owned(),
        });
        assert!(missing.is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
