//! Cross-crate integration: the full educator → bundle → game → telemetry
//! pipeline, exercised end to end through the public facade.

use tw_core::matrix::MatrixProfile;
use tw_core::module::library::{initial_library, LIBRARY_AUTHOR};
use tw_core::prelude::*;

#[test]
fn educator_authors_module_student_plays_it() {
    // Author a module as JSON text with the relaxed syntax from the paper.
    let json_text = r#"{
        // a hand-written lesson
        "name": "Integration Lesson",
        "size": "6x6",
        "author": "Integration Test",
        "axis_labels": ["WS1", "WS2", "SRV1", "EXT1", "ADV1", "ADV2",],
        "traffic_matrix": [
            [0,0,3,0,0,0],
            [0,0,2,0,0,0],
            [0,0,0,1,0,0],
            [0,0,0,0,0,0],
            [0,0,0,0,0,2],
            [0,0,0,0,2,0],
        ],
        "traffic_matrix_colors": [
            [0,0,0,0,2,2],
            [0,0,0,0,2,2],
            [0,0,0,0,2,2],
            [0,0,0,0,0,0],
            [1,1,1,0,0,0],
            [1,1,1,0,0,0],
        ],
        "has_question": true,
        "question": "Where is the adversary coordination happening?",
        "answers": ["Blue space", "Grey space", "Red space",],
        "correct_answer_element": 2,
    }"#;

    let (module, report) = tw_core::load_module(json_text).expect("module parses");
    assert!(report.is_valid(), "{:?}", report.issues);
    let labels = module.matrix.labels();
    let (ws1, srv1) = (
        labels.index_of("WS1").unwrap(),
        labels.index_of("SRV1").unwrap(),
    );
    assert_eq!(module.matrix.get(ws1, srv1), Some(3));

    // Bundle it, zip it, load it back.
    let mut bundle = ModuleBundle::new("Integration");
    bundle.push(module.clone());
    let zip = bundle.to_zip().expect("zip");
    let loaded = tw_core::load_bundle("Integration", &zip).expect("load");
    assert_eq!(loaded.modules()[0], module);

    // Play it through the real game session and verify the telemetry trail.
    let mut session = GameSession::start(loaded, 99).expect("start");
    let correct = session
        .current_level()
        .unwrap()
        .question()
        .unwrap()
        .correct_index;
    assert_eq!(session.answer(correct), Some(QuestionOutcome::Correct));
    session.advance().expect("advance");
    assert!(session.is_finished());
    assert_eq!(session.score().correct, 1);
    let events = session.telemetry().drain();
    assert!(
        events.len() >= 4,
        "expected a full telemetry trail, got {events:?}"
    );
}

#[test]
fn every_library_bundle_survives_zip_and_plays_to_completion() {
    for bundle in initial_library() {
        let name = bundle.name.clone();
        let zip = bundle.to_zip().expect("zip");
        let loaded = tw_core::load_bundle(&name, &zip).expect("load");
        assert_eq!(loaded.len(), bundle.len(), "{name}");
        assert!(loaded
            .modules()
            .iter()
            .all(|m| m.author == LIBRARY_AUTHOR || m.author == "Chasen Milner"));

        let mut session = GameSession::start(loaded, 1).expect("start");
        session.autoplay(|i| i % 2 == 0).expect("autoplay");
        assert!(session.is_finished(), "{name} did not finish");
        assert_eq!(session.score().total(), bundle.len(), "{name} score total");
    }
}

#[test]
fn pattern_profiles_match_module_content_after_round_trip() {
    // Every generated figure module keeps its analytic structure after passing
    // through JSON: the profile computed before and after serialization agrees.
    for pattern in all_patterns() {
        let module = tw_core::module::builder::module_from_pattern(&pattern, "rt", ["d1", "d2"]);
        let reparsed = LearningModule::from_json(&module.to_json()).expect("round trip");
        let before = MatrixProfile::of(&pattern.matrix);
        let after = MatrixProfile::of(&reparsed.matrix);
        assert_eq!(before, after, "profile drifted for {}", pattern.id);
    }
}

#[test]
fn sparse_analytics_agree_with_dense_module_matrices() {
    use tw_core::matrix::ops::reduce_rows;
    use tw_core::matrix::{CooMatrix, PlusTimes};
    // The dense game matrices and the sparse analytics path agree on totals.
    for pattern in patterns_for_figure(Figure::Ddos) {
        let dense_total = pattern.matrix.total_packets();
        let n = pattern.matrix.dimension();
        let mut coo = CooMatrix::new(n, n);
        for (r, c, v) in pattern.matrix.iter_nonzero() {
            coo.push(r, c, u64::from(v));
        }
        let csr64 = coo.to_csr();
        assert_eq!(csr64.nnz(), pattern.matrix.nonzero_count());
        assert_eq!(csr64.values().iter().sum::<u64>(), dense_total);
        let row_sums = reduce_rows(&PlusTimes, &csr64);
        assert_eq!(row_sums, pattern.matrix.out_degrees());
    }
}
