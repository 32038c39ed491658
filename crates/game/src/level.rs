//! One playable level: a learning module loaded into the warehouse.

use crate::controller::PalletLabelController;
use crate::view::ViewState;
use crate::warehouse::WarehouseScene;
use tw_engine::input::{Action, InputEvent};
use tw_engine::TreeError;
use tw_module::LearningModule;
use tw_quiz::{PresentedQuestion, QuestionOutcome, ShuffleSeed};
use tw_render::Framebuffer;

/// A learning module loaded into a scene, with its view state and question.
#[derive(Debug)]
pub struct Level {
    /// The built warehouse scene.
    pub scene: WarehouseScene,
    /// The pallet/label controller after `_ready()`.
    pub controller: PalletLabelController,
    /// The current view state.
    pub view: ViewState,
    question: Option<PresentedQuestion>,
    answered: Option<QuestionOutcome>,
}

impl Level {
    /// Load a module: build the scene, run the controller's ready logic and
    /// shuffle the question with the given seed.
    pub fn load(module: &LearningModule, shuffle_seed: u64) -> Result<Self, TreeError> {
        let mut scene = WarehouseScene::build(module);
        let controller = PalletLabelController::ready(&mut scene.tree, scene.controller)?;
        let question = module
            .question
            .as_ref()
            .map(|q| PresentedQuestion::present(q, ShuffleSeed(shuffle_seed)));
        Ok(Level {
            scene,
            controller,
            view: ViewState::new(),
            question,
            answered: None,
        })
    }

    /// The module's name.
    pub fn name(&self) -> &str {
        &self.scene.module().name
    }

    /// The shuffled question, if the module has one.
    pub fn question(&self) -> Option<&PresentedQuestion> {
        self.question.as_ref()
    }

    /// The outcome of the student's answer, if they have answered.
    pub fn outcome(&self) -> Option<QuestionOutcome> {
        self.answered
    }

    /// Answer the question by display index. Returns `Skipped` for
    /// question-less modules; repeated answers keep the first outcome.
    pub fn answer(&mut self, display_index: usize) -> QuestionOutcome {
        if let Some(existing) = self.answered {
            return existing;
        }
        let outcome = match &self.question {
            Some(q) if q.is_correct(display_index) => QuestionOutcome::Correct,
            Some(_) => QuestionOutcome::Incorrect,
            None => QuestionOutcome::Skipped,
        };
        self.answered = Some(outcome);
        outcome
    }

    /// Handle an input event: view actions are applied to the view state, and
    /// the color toggle also runs the controller's material swap so the scene
    /// tree stays in sync with what is rendered.
    pub fn handle_input(&mut self, event: InputEvent) -> Result<Option<Action>, TreeError> {
        let action = self.view.handle_input(event);
        if let Some(Action::ToggleColors) = action {
            self.controller.change_pallet_color(&mut self.scene.tree)?;
        }
        Ok(action)
    }

    /// Render the level at the current view state.
    pub fn render(&self, width: usize, height: usize) -> Framebuffer {
        self.scene.render(&self.view, width, height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_engine::input::Key;
    use tw_module::template_10x10;

    #[test]
    fn load_presents_a_shuffled_question() {
        let level = Level::load(&template_10x10(), 5).unwrap();
        assert_eq!(level.name(), "10x10 Template");
        let q = level.question().unwrap();
        assert_eq!(q.option_count(), 3);
        assert_eq!(q.correct_answer(), "2");
        assert!(level.outcome().is_none());
    }

    #[test]
    fn answering_is_idempotent() {
        let mut level = Level::load(&template_10x10(), 5).unwrap();
        let correct_index = level.question().unwrap().correct_index;
        assert_eq!(level.answer(correct_index), QuestionOutcome::Correct);
        // A second (different) answer does not change the recorded outcome.
        let wrong = (correct_index + 1) % 3;
        assert_eq!(level.answer(wrong), QuestionOutcome::Correct);
        assert_eq!(level.outcome(), Some(QuestionOutcome::Correct));
    }

    #[test]
    fn question_less_modules_skip() {
        let mut module = template_10x10();
        module.question = None;
        let mut level = Level::load(&module, 0).unwrap();
        assert!(level.question().is_none());
        assert_eq!(level.answer(0), QuestionOutcome::Skipped);
    }

    #[test]
    fn color_toggle_input_updates_both_view_and_scene_tree() {
        let mut level = Level::load(&template_10x10(), 1).unwrap();
        assert_eq!(
            level
                .controller
                .pallet_material(&level.scene.tree, 6)
                .unwrap(),
            "pallet_default_material"
        );
        level.handle_input(InputEvent::Pressed(Key::C)).unwrap();
        assert!(level.view.colors_on);
        assert_eq!(
            level
                .controller
                .pallet_material(&level.scene.tree, 6)
                .unwrap(),
            "pallet_material_r"
        );
        level.handle_input(InputEvent::Pressed(Key::C)).unwrap();
        assert_eq!(
            level
                .controller
                .pallet_material(&level.scene.tree, 6)
                .unwrap(),
            "pallet_default_material"
        );
    }

    #[test]
    fn rendering_both_views_and_the_matrix_view() {
        let mut level = Level::load(&tw_module::template_6x6(), 2).unwrap();
        let before = level.render(48, 48).to_ascii();
        level.handle_input(InputEvent::Pressed(Key::Space)).unwrap();
        level.handle_input(InputEvent::Pressed(Key::E)).unwrap();
        let after = level.render(48, 48).to_ascii();
        assert_ne!(before, after);
    }
}
