//! Cross-crate integration: longer game flows, classroom measurement, and the
//! analytics substrate feeding the game's motivation.

use proptest::prelude::*;
use tw_core::matrix::stream::{synthetic_events, PacketEvent};
use tw_core::matrix::{CooMatrix, CsrMatrix};
use tw_core::module::library::{full_curriculum, initial_library};
use tw_core::prelude::*;
use tw_core::sim::{ClassroomConfig, LearnerPopulation};

#[test]
fn the_full_curriculum_plays_end_to_end_with_a_quiz_session_in_parallel() {
    // The quiz-session bookkeeping and the game-session bookkeeping agree when
    // driven with the same answers.
    let bundle: ModuleBundle = full_curriculum().into_iter().collect();
    let mut game = GameSession::start(bundle.clone(), 5).expect("game starts");
    let mut quiz = QuizSession::new(&bundle, 5);
    let mut answer_correct = true;
    while !game.is_finished() {
        let game_choice = game
            .current_level()
            .and_then(|l| {
                l.question().map(|q| {
                    if answer_correct {
                        q.correct_index
                    } else {
                        (q.correct_index + 1) % 3
                    }
                })
            })
            .unwrap_or(0);
        let quiz_choice = quiz
            .current_question()
            .map(|q| {
                if answer_correct {
                    q.correct_index
                } else {
                    (q.correct_index + 1) % 3
                }
            })
            .unwrap_or(0);
        game.answer(game_choice);
        game.advance().expect("advance");
        quiz.answer(quiz_choice);
        answer_correct = !answer_correct;
    }
    assert!(quiz.is_finished());
    assert_eq!(game.score().correct, quiz.score().correct);
    assert_eq!(game.score().incorrect, quiz.score().incorrect);
    assert_eq!(game.score().total(), 26);
}

#[test]
fn classroom_measurement_runs_over_the_real_library() {
    let bundle = &initial_library()[1]; // Traffic Topologies
    let report = tw_core::sim::classroom::run_classroom(
        bundle,
        &ClassroomConfig {
            class_size: 10,
            assessment_questions: 9,
            assessment_options: 3,
            seed: 3,
        },
    );
    assert_eq!(report.modules_played, 4);
    assert!(report.knowledge_after > report.knowledge_before);
    assert!(report.in_game.count == 10);
    assert!(
        report.post.mean >= report.pre.mean - 0.15,
        "post should not collapse: {report:?}"
    );
}

/// Build a traffic matrix from packet events with one serial COO pass.
fn serial_matrix_from_events(node_count: usize, events: &[PacketEvent]) -> CsrMatrix<u64> {
    let mut coo = CooMatrix::with_capacity(node_count, node_count, events.len());
    for e in events {
        coo.push(e.source as usize, e.destination as usize, e.packets as u64);
    }
    coo.to_csr()
}

#[test]
fn streaming_analytics_substrate_conserves_packets() {
    let events = synthetic_events(256, 100_000, 42);
    let matrix = serial_matrix_from_events(256, &events);
    let packets: u64 = events.iter().map(|e| e.packets as u64).sum();
    assert_eq!(matrix.iter().map(|(_, _, v)| v).sum::<u64>(), packets);
    assert!(matrix.nnz() > 1_000);
}

#[test]
fn learner_population_improves_with_more_modules() {
    let mut short = LearnerPopulation::generate(12, 0.2, 0.4, 9);
    let mut long = LearnerPopulation::generate(12, 0.2, 0.4, 9);
    for learner in short.learners_mut() {
        for _ in 0..2 {
            learner.study();
        }
    }
    for learner in long.learners_mut() {
        for _ in 0..10 {
            learner.study();
        }
    }
    assert!(long.mean_knowledge() > short.mean_knowledge());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any subset of the curriculum, in any order, plays to completion and the
    /// score accounting always balances.
    #[test]
    fn arbitrary_curricula_always_complete(indices in prop::collection::vec(0usize..26, 1..8), seed in 0u64..1000) {
        let curriculum = full_curriculum();
        let mut bundle = ModuleBundle::new("prop");
        for &i in &indices {
            bundle.push(curriculum[i].clone());
        }
        let mut session = GameSession::start(bundle, seed).expect("start");
        session.autoplay(|i| i % 3 != 0).expect("autoplay");
        prop_assert!(session.is_finished());
        let score = session.score();
        prop_assert_eq!(score.total(), indices.len());
        prop_assert_eq!(score.correct + score.incorrect + score.skipped, indices.len());
    }

    /// The 2-D view renders for arbitrary small matrices without panicking and
    /// with the right dimensions.
    #[test]
    fn render_2d_is_total(n in 1usize..14, cells in prop::collection::vec((0usize..14, 0usize..14, 1u32..15), 0..40)) {
        let mut matrix = TrafficMatrix::zeros_numeric(n);
        for (r, c, v) in cells {
            let _ = matrix.set(r % n, c % n, v);
        }
        let fb = render_matrix_2d(&matrix, None);
        prop_assert_eq!(fb.width(), n * tw_core::render::view2d::CELL_PIXELS);
        prop_assert_eq!(fb.height(), fb.width());
    }
}
