//! # Traffic Warehouse (`tw-core`)
//!
//! A Rust reproduction of *"Teaching Network Traffic Matrices in an
//! Interactive Game Environment"* (IPPS 2024): an extensible, JSON-driven
//! learning-module system for teaching network traffic matrices, together with
//! a headless implementation of the Traffic Warehouse game that presents those
//! modules as a 3-D shipping warehouse.
//!
//! This crate is the facade: it re-exports the public API of every workspace
//! crate under topical modules and provides a handful of one-call helpers for
//! the most common flows.
//!
//! ```
//! use tw_core::prelude::*;
//!
//! // Load the paper's 10×10 template, play it, answer its question correctly.
//! let module = tw_core::module::template_10x10();
//! let mut level = Level::load(&module, 42).unwrap();
//! let correct = level.question().unwrap().correct_index;
//! assert_eq!(level.answer(correct), QuestionOutcome::Correct);
//! ```

/// JSON parsing and serialization (the educator-facing module format).
pub mod json {
    pub use tw_json::*;
}

/// ZIP bundles of learning modules.
pub mod archive {
    pub use tw_archive::*;
}

/// Traffic/adjacency matrices and analytics.
pub mod matrix {
    pub use tw_matrix::*;
}

/// Lock-free counters, gauges and log2 histograms with mergeable snapshots.
pub mod metrics {
    pub use tw_metrics::*;
}

/// The streaming ingest pipeline (scenarios → windowed matrices).
pub mod ingest {
    pub use tw_ingest::*;
}

/// Traffic-pattern generators for every figure in the paper.
pub mod patterns {
    pub use tw_patterns::*;
}

/// The learning-module schema, validation, templates, builder and library.
pub mod module {
    pub use tw_module::*;
}

/// The multiple-choice question engine.
pub mod quiz {
    pub use tw_quiz::*;
}

/// The headless scene-graph engine.
pub mod engine {
    pub use tw_engine::*;
}

/// Voxel assets and OBJ export.
pub mod voxel {
    pub use tw_voxel::*;
}

/// The software renderer (2-D and 3-D views).
pub mod render {
    pub use tw_render::*;
}

/// The Traffic Warehouse game.
pub mod game {
    pub use tw_game::*;
}

/// Decision matrices, simulated learners and classroom outcome measurement.
pub mod sim {
    pub use tw_sim::*;
}

/// The network serving tier (`serve`/`connect` over TCP frames).
pub mod serve {
    pub use tw_serve::*;
}

/// The most commonly used types, for glob import.
pub mod prelude {
    pub use tw_game::{
        GameSession, Level, LiveWarehouse, TelemetryHub, TrainingLevel, ViewMode, ViewState,
        WarehouseScene,
    };
    pub use tw_ingest::{
        ArchiveRecorder, EventSource, FileReplaySource, IngestStats, Paced, Pipeline,
        PipelineConfig, RecordingMeta, ReplaySource, Scenario, WindowAccumulator, WindowReport,
        WindowStream,
    };
    pub use tw_matrix::{CellColor, ColorMatrix, LabelSet, MatrixProfile, TrafficMatrix};
    pub use tw_metrics::{MetricsRegistry, MetricsSnapshot};
    pub use tw_module::{
        validate, LearningModule, ModuleBuilder, ModuleBundle, Question, ValidationReport,
    };
    pub use tw_patterns::{all_patterns, patterns_for_figure, Figure, Pattern};
    pub use tw_quiz::{PresentedQuestion, QuestionOutcome, QuizSession, SessionScore};
    pub use tw_render::{render_matrix_2d, Framebuffer};
    pub use tw_serve::{ClientStream, ServeConfig, ServeSummary};
}

use tw_module::{LearningModule, ModuleBundle, ModuleError};

/// Load a learning module from JSON text (relaxed syntax, per the paper's
/// listings) and validate it, returning the module and its validation report.
pub fn load_module(
    json_text: &str,
) -> Result<(LearningModule, tw_module::ValidationReport), ModuleError> {
    let module = LearningModule::from_json(json_text)?;
    let report = tw_module::validate(&module);
    Ok((module, report))
}

/// Load a module bundle from ZIP bytes.
pub fn load_bundle(name: &str, zip_bytes: &[u8]) -> Result<ModuleBundle, ModuleError> {
    ModuleBundle::from_zip(name, zip_bytes)
}

/// The complete initial module library shipped with the game, serialized as
/// `(bundle name, zip bytes)` pairs ready to write to disk.
pub fn initial_library_zips() -> Vec<(String, Vec<u8>)> {
    tw_module::library::initial_library()
        .into_iter()
        .map(|bundle| {
            // tw-analyze: allow(no-panic-in-lib, "every built-in bundle round-trips through to_zip in the library tests")
            let bytes = bundle.to_zip().expect("library bundles are valid");
            (bundle.name, bytes)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_module_round_trips_the_template() {
        let text = tw_module::template_10x10().to_json();
        let (module, report) = load_module(&text).unwrap();
        assert_eq!(module.name, "10x10 Template");
        assert!(report.is_valid());
        assert!(load_module("{").is_err());
    }

    #[test]
    fn initial_library_zips_load_back() {
        let zips = initial_library_zips();
        assert_eq!(zips.len(), 6);
        for (name, bytes) in zips {
            let bundle = load_bundle(&name, &bytes).unwrap();
            assert!(!bundle.is_empty(), "{name} is empty");
            assert!(bundle.is_valid(), "{name} has invalid modules");
        }
    }
}
