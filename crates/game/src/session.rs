//! The game session: walking a module bundle from start to finish.
//!
//! "Traffic Warehouse will take the zip file and load each of the JSON files
//! contained in it and present them sequentially one at a time."

use crate::broadcast::Subscription;
use crate::level::Level;
use crate::live::LiveWarehouse;
use crate::telemetry::{TelemetryEvent, TelemetryHub};
use tw_engine::input::{Action, InputEvent};
use tw_engine::TreeError;
use tw_ingest::WindowReport;
use tw_module::ModuleBundle;
use tw_quiz::{QuestionOutcome, SessionScore};

/// Where the session currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GamePhase {
    /// A module is on screen and the student is exploring it.
    Exploring,
    /// The module's question has been answered; waiting to advance.
    Answered,
    /// Every module has been completed.
    Finished,
}

/// A play-through of one module bundle.
#[derive(Debug)]
pub struct GameSession {
    bundle: ModuleBundle,
    seed: u64,
    current_index: usize,
    current_level: Option<Level>,
    phase: GamePhase,
    score: SessionScore,
    telemetry: TelemetryHub,
    live: Option<LiveWarehouse>,
    broadcast: Option<Subscription>,
}

impl GameSession {
    /// Start a session over a bundle. The seed drives per-module answer shuffles.
    pub fn start(bundle: ModuleBundle, seed: u64) -> Result<Self, TreeError> {
        let telemetry = TelemetryHub::new();
        telemetry.publish(TelemetryEvent::BundleLoaded {
            name: bundle.name.clone(),
            modules: bundle.len(),
        });
        let mut session = GameSession {
            bundle,
            seed,
            current_index: 0,
            current_level: None,
            phase: GamePhase::Finished,
            score: SessionScore::default(),
            telemetry,
            live: None,
            broadcast: None,
        };
        session.load_current()?;
        Ok(session)
    }

    fn load_current(&mut self) -> Result<(), TreeError> {
        if self.current_index >= self.bundle.len() {
            self.current_level = None;
            self.phase = GamePhase::Finished;
            self.telemetry.publish(TelemetryEvent::SessionCompleted {
                correct: self.score.correct,
                answered: self.score.answered(),
            });
            return Ok(());
        }
        let module = &self.bundle.modules()[self.current_index];
        let shuffle_seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.current_index as u64);
        self.current_level = Some(Level::load(module, shuffle_seed)?);
        self.phase = GamePhase::Exploring;
        self.telemetry.publish(TelemetryEvent::ModuleStarted {
            index: self.current_index,
            name: module.name.clone(),
        });
        Ok(())
    }

    /// The current phase.
    pub fn phase(&self) -> GamePhase {
        self.phase
    }

    /// The index of the module currently on screen.
    pub fn current_index(&self) -> usize {
        self.current_index
    }

    /// The level currently on screen, if the session is not finished.
    pub fn current_level(&self) -> Option<&Level> {
        self.current_level.as_ref()
    }

    /// Mutable access to the current level (for rendering with view changes).
    pub fn current_level_mut(&mut self) -> Option<&mut Level> {
        self.current_level.as_mut()
    }

    /// The running score.
    pub fn score(&self) -> &SessionScore {
        &self.score
    }

    /// The telemetry hub (drain it to observe events).
    pub fn telemetry(&self) -> &TelemetryHub {
        &self.telemetry
    }

    /// True when every module has been completed.
    pub fn is_finished(&self) -> bool {
        self.phase == GamePhase::Finished
    }

    /// Subscribe this session to live ingest windows: each
    /// [`WindowReport`] passed to [`GameSession::ingest_window`] re-pallets
    /// a live warehouse scene with `dimension`×`dimension` display pallets.
    pub fn subscribe_live(&mut self, dimension: usize) {
        self.live = Some(LiveWarehouse::new(dimension));
    }

    /// The live warehouse view, if subscribed.
    pub fn live(&self) -> Option<&LiveWarehouse> {
        self.live.as_ref()
    }

    /// Join a classroom broadcast: windows pushed by the
    /// [`Broadcaster`](crate::broadcast::Broadcaster) behind `subscription`
    /// re-pallet this session's live warehouse (`dimension`×`dimension`
    /// display pallets). The session owns the subscription handle — it no
    /// longer needs (or sees) the pipeline that produces the windows.
    pub fn join_broadcast(&mut self, dimension: usize, subscription: Subscription) {
        self.subscribe_live(dimension);
        self.broadcast = Some(subscription);
    }

    /// The joined broadcast subscription, if any.
    pub fn subscription(&self) -> Option<&Subscription> {
        self.broadcast.as_ref()
    }

    /// Ingest every window already buffered on the joined subscription
    /// without blocking; returns how many were applied.
    pub fn poll_broadcast(&mut self) -> usize {
        let Some(subscription) = self.broadcast.take() else {
            return 0;
        };
        let mut applied = 0;
        while let Some(report) = subscription.try_recv() {
            self.ingest_window(&report);
            applied += 1;
        }
        self.broadcast = Some(subscription);
        applied
    }

    /// Follow the joined broadcast until it closes (or `max_windows`
    /// arrive), blocking between windows; returns how many were applied.
    /// A session that never joined returns 0 immediately.
    pub fn follow_broadcast(&mut self, max_windows: usize) -> usize {
        let Some(subscription) = self.broadcast.take() else {
            return 0;
        };
        let mut applied = 0;
        while applied < max_windows {
            let Some(report) = subscription.recv() else {
                break;
            };
            self.ingest_window(&report);
            applied += 1;
        }
        self.broadcast = Some(subscription);
        applied
    }

    /// Deliver one ingest window to the live view (no-op when not
    /// subscribed) and publish it on the telemetry stream.
    pub fn ingest_window(&mut self, report: &WindowReport) {
        let Some(live) = self.live.as_mut() else {
            return;
        };
        live.on_window(report);
        self.telemetry.publish(TelemetryEvent::LiveWindow {
            window_index: report.stats.window_index,
            events: report.stats.events,
            nnz: report.stats.nnz,
        });
    }

    /// Answer the current module's question by display index.
    pub fn answer(&mut self, display_index: usize) -> Option<QuestionOutcome> {
        if self.phase != GamePhase::Exploring {
            return None;
        }
        let level = self.current_level.as_mut()?;
        let outcome = level.answer(display_index);
        self.score.record(outcome);
        self.telemetry.publish(TelemetryEvent::Answered {
            module_index: self.current_index,
            correct: outcome == QuestionOutcome::Correct,
        });
        self.phase = GamePhase::Answered;
        Some(outcome)
    }

    /// Skip the current module's question (open-discussion mode) and move on.
    pub fn skip(&mut self) -> Result<(), TreeError> {
        if self.phase == GamePhase::Finished {
            return Ok(());
        }
        self.score.record(QuestionOutcome::Skipped);
        self.complete_current()
    }

    /// Advance to the next module after answering.
    pub fn advance(&mut self) -> Result<(), TreeError> {
        match self.phase {
            GamePhase::Answered => self.complete_current(),
            GamePhase::Exploring | GamePhase::Finished => Ok(()),
        }
    }

    fn complete_current(&mut self) -> Result<(), TreeError> {
        self.telemetry.publish(TelemetryEvent::ModuleCompleted {
            index: self.current_index,
        });
        self.current_index += 1;
        self.load_current()
    }

    /// Route an input event: view controls go to the current level, answer keys
    /// answer the question, Enter advances after answering.
    pub fn handle_input(&mut self, event: InputEvent) -> Result<Option<Action>, TreeError> {
        let action = {
            let Some(level) = self.current_level.as_mut() else {
                return Ok(None);
            };
            level.handle_input(event)?
        };
        match action {
            Some(Action::ChooseAnswer(option)) => {
                self.answer(option as usize);
            }
            Some(Action::Advance) => self.advance()?,
            Some(Action::ToggleView) => {
                let now_3d = self
                    .current_level
                    .as_ref()
                    .map(|l| l.view.mode == crate::view::ViewMode::ThreeD)
                    .unwrap_or(false);
                self.telemetry
                    .publish(TelemetryEvent::ViewToggled { now_3d });
            }
            Some(Action::RotateLeft) | Some(Action::RotateRight) => {
                if let Some(level) = self.current_level.as_ref() {
                    self.telemetry.publish(TelemetryEvent::ViewRotated {
                        steps: level.view.rotation_steps,
                    });
                }
            }
            Some(Action::ToggleColors) => {
                if let Some(level) = self.current_level.as_ref() {
                    self.telemetry.publish(TelemetryEvent::ColorsToggled {
                        now_colored: level.view.colors_on,
                    });
                }
            }
            _ => {}
        }
        Ok(action)
    }

    /// Play the whole bundle automatically, answering every question with the
    /// given per-question policy (`true` = answer correctly). Used by the
    /// classroom simulator and the pipeline benchmark.
    pub fn autoplay(
        &mut self,
        mut answer_correctly: impl FnMut(usize) -> bool,
    ) -> Result<(), TreeError> {
        while !self.is_finished() {
            let index = self.current_index;
            let choice = {
                // tw-analyze: allow(no-panic-in-lib, "the while guard ensures a current level exists until is_finished flips")
                let level = self.current_level.as_ref().expect("not finished");
                match level.question() {
                    Some(q) => {
                        if answer_correctly(index) {
                            q.correct_index
                        } else {
                            (q.correct_index + 1) % q.option_count()
                        }
                    }
                    None => 0,
                }
            };
            self.answer(choice);
            self.advance()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_engine::input::Key;
    use tw_module::library::{basics_bundle, figure_bundle};
    use tw_patterns::Figure;

    #[test]
    fn full_play_through_with_correct_answers() {
        let bundle = figure_bundle(Figure::Ddos);
        let mut session = GameSession::start(bundle, 7).unwrap();
        assert_eq!(session.phase(), GamePhase::Exploring);
        session.autoplay(|_| true).unwrap();
        assert!(session.is_finished());
        assert_eq!(session.score().correct, 4);
        assert_eq!(session.score().incorrect, 0);
        let events = session.telemetry().drain();
        assert!(matches!(
            events[0],
            TelemetryEvent::BundleLoaded { modules: 4, .. }
        ));
        assert!(events.iter().any(|e| matches!(
            e,
            TelemetryEvent::SessionCompleted {
                correct: 4,
                answered: 4
            }
        )));
        // 1 bundle + 4 module starts + 4 answers + 4 completions + 1 session end.
        assert_eq!(events.len(), 14);
    }

    #[test]
    fn mixed_answers_are_scored() {
        let bundle = basics_bundle();
        let mut session = GameSession::start(bundle, 3).unwrap();
        session.autoplay(|index| index == 0).unwrap();
        assert_eq!(session.score().correct, 1);
        assert_eq!(session.score().incorrect, 1);
        assert!((session.score().accuracy().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn answer_then_advance_via_input_events() {
        let bundle = basics_bundle();
        let mut session = GameSession::start(bundle, 1).unwrap();
        // Find which display key answers correctly for the first module.
        let correct = session
            .current_level()
            .unwrap()
            .question()
            .unwrap()
            .correct_index as u8;
        session
            .handle_input(InputEvent::Pressed(Key::Digit(correct + 1)))
            .unwrap();
        assert_eq!(session.phase(), GamePhase::Answered);
        // Answering again in the Answered phase is ignored.
        assert_eq!(session.answer(0), None);
        session
            .handle_input(InputEvent::Pressed(Key::Enter))
            .unwrap();
        assert_eq!(session.current_index(), 1);
        assert_eq!(session.phase(), GamePhase::Exploring);
    }

    #[test]
    fn skipping_modules_counts_as_skipped() {
        let bundle = basics_bundle();
        let mut session = GameSession::start(bundle, 1).unwrap();
        session.skip().unwrap();
        session.skip().unwrap();
        assert!(session.is_finished());
        assert_eq!(session.score().skipped, 2);
        // Skipping or advancing after the end is a no-op.
        session.skip().unwrap();
        session.advance().unwrap();
        assert!(session.is_finished());
    }

    #[test]
    fn view_interactions_emit_telemetry() {
        let bundle = basics_bundle();
        let mut session = GameSession::start(bundle, 1).unwrap();
        session.telemetry().drain();
        session
            .handle_input(InputEvent::Pressed(Key::Space))
            .unwrap();
        session.handle_input(InputEvent::Pressed(Key::E)).unwrap();
        session.handle_input(InputEvent::Pressed(Key::C)).unwrap();
        let events = session.telemetry().drain();
        assert!(events.contains(&TelemetryEvent::ViewToggled { now_3d: true }));
        assert!(events.contains(&TelemetryEvent::ViewRotated { steps: 1 }));
        assert!(events.contains(&TelemetryEvent::ColorsToggled { now_colored: true }));
    }

    #[test]
    fn session_consumes_a_broadcast_subscription() {
        use crate::broadcast::{BroadcastConfig, Broadcaster, StartOffset};
        use tw_ingest::{Pipeline, PipelineConfig, Scenario};

        let mut caster = Broadcaster::new(BroadcastConfig::default());
        let sub = caster.subscribe(StartOffset::Origin);
        let mut session = GameSession::start(ModuleBundle::new("class"), 1).unwrap();
        assert_eq!(session.follow_broadcast(usize::MAX), 0, "not joined yet");
        session.join_broadcast(10, sub);
        assert!(session.subscription().is_some());
        assert_eq!(session.poll_broadcast(), 0, "nothing broadcast yet");

        let config = PipelineConfig {
            window_us: 50_000,
            batch_size: 4_096,
            reorder_horizon_us: 0,
            ..Default::default()
        };
        let mut pipeline = Pipeline::new(Scenario::Ddos.source(200, 9), config);
        caster.step(&mut pipeline).unwrap();
        assert_eq!(session.poll_broadcast(), 1, "first window applied");
        caster.run(&mut pipeline, 2).unwrap();
        assert_eq!(session.follow_broadcast(usize::MAX), 2);
        let live = session.live().expect("joined");
        assert_eq!(live.windows_seen(), 3);
        assert!(live.scene().is_some());
        // The session received the windows through the handle alone — and the
        // telemetry stream saw every live window.
        let live_events = session
            .telemetry()
            .drain()
            .into_iter()
            .filter(|e| matches!(e, TelemetryEvent::LiveWindow { .. }))
            .count();
        assert_eq!(live_events, 3);
    }

    #[test]
    fn empty_bundle_finishes_immediately() {
        let session = GameSession::start(ModuleBundle::new("empty"), 0).unwrap();
        assert!(session.is_finished());
        assert!(session.current_level().is_none());
    }
}
