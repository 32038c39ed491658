//! The built-in training level (paper Fig. 5).
//!
//! "There is a single built-in module in Traffic Warehouse and that is the
//! training level. This module walks the player through what a traffic matrix
//! is, how to read one, how it is of value to them, and how it will be
//! represented in the game environment. The training module also provides a
//! space for the player to learn the controls of the game without needing to
//! load in a learning module."

// tw-analyze: allow-file(no-panic-in-lib, "training levels are built from the static paper-default labels already validated by their own constructors")
use crate::level::Level;
use crate::view::ViewMode;
use tw_engine::TreeError;
use tw_module::{LearningModule, ModuleBuilder};
use tw_render::Framebuffer;

/// The walk-through steps, matching the three panels of Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainingStep {
    /// Fig. 5a — reading the matrix in the top-down 2-D view.
    Read2D,
    /// Fig. 5b — exploring the warehouse in the 3-D view.
    Explore3D,
    /// Fig. 5c — placing the packets (boxes) onto the pallets.
    PlacePackets,
    /// The walk-through is complete; the player can load learning modules.
    Complete,
}

/// The built-in training module: a small 6×6 matrix whose values are easy to
/// read, with an introductory question.
pub fn training_module() -> LearningModule {
    ModuleBuilder::new("Training: Reading a Traffic Matrix", "Traffic Warehouse")
        .labels(["WS1", "WS2", "SRV1", "EXT1", "ADV1", "ADV2"])
        .expect("static labels")
        .traffic("WS1", "SRV1", 3)
        .expect("valid labels")
        .traffic("WS2", "SRV1", 2)
        .expect("valid labels")
        .traffic("SRV1", "EXT1", 1)
        .expect("valid labels")
        .traffic("EXT1", "WS1", 1)
        .expect("valid labels")
        .traffic("ADV1", "ADV2", 2)
        .expect("valid labels")
        .question("How many packets did WS1 send to SRV1?", ["1", "2", "3"], 2)
        .hint("Each box on a pallet is one packet; the pallet's row is the source and its column is the destination.")
        .build()
}

/// The training level: a [`Level`] plus the walk-through step machine and the
/// packet-placement animation state.
#[derive(Debug)]
pub struct TrainingLevel {
    /// The underlying level.
    pub level: Level,
    step: TrainingStep,
    packets_placed: usize,
    total_packets: usize,
}

impl TrainingLevel {
    /// Start the training level.
    pub fn start() -> Result<Self, TreeError> {
        let module = training_module();
        let total_packets = module.matrix.total_packets() as usize;
        let mut level = Level::load(&module, 0)?;
        // The walk-through begins with no packets placed.
        level.view.packets_placed = Some(0);
        Ok(TrainingLevel {
            level,
            step: TrainingStep::Read2D,
            packets_placed: 0,
            total_packets,
        })
    }

    /// The current walk-through step.
    pub fn step(&self) -> TrainingStep {
        self.step
    }

    /// Packets placed so far out of the module's total.
    pub fn placement_progress(&self) -> (usize, usize) {
        (self.packets_placed, self.total_packets)
    }

    /// Advance the walk-through: 2-D reading → 3-D exploration → packet
    /// placement → complete. Entering the 3-D step switches the view mode.
    pub fn advance_step(&mut self) {
        self.step = match self.step {
            TrainingStep::Read2D => {
                if self.level.view.mode == ViewMode::TwoD {
                    self.level.view.toggle_mode();
                }
                TrainingStep::Explore3D
            }
            TrainingStep::Explore3D => TrainingStep::PlacePackets,
            TrainingStep::PlacePackets => {
                // Completing the placement step places any remaining packets.
                self.packets_placed = self.total_packets;
                self.level.view.packets_placed = None;
                TrainingStep::Complete
            }
            TrainingStep::Complete => TrainingStep::Complete,
        };
    }

    /// Place the next packet box onto its pallet (the Fig. 5c interaction).
    /// Returns how many packets are now placed. Only meaningful during the
    /// placement step, but safe to call at any time.
    pub fn place_next_packet(&mut self) -> usize {
        if self.packets_placed < self.total_packets {
            self.packets_placed += 1;
            self.level.view.packets_placed = Some(self.packets_placed);
        }
        if self.packets_placed == self.total_packets {
            self.level.view.packets_placed = None;
        }
        self.packets_placed
    }

    /// The instruction text shown for the current step.
    pub fn instruction(&self) -> &'static str {
        match self.step {
            TrainingStep::Read2D => {
                "This is a traffic matrix. Each row is a source, each column is a destination, and the number in a cell is how many packets were sent."
            }
            TrainingStep::Explore3D => {
                "Press the spacebar to enter the warehouse. Each cell is a pallet on the floor; rotate the view with Q and E."
            }
            TrainingStep::PlacePackets => {
                "Place one box on a pallet for every packet in the matrix. When every box is placed the warehouse shows the whole matrix."
            }
            TrainingStep::Complete => {
                "Training complete. Load a learning module to analyze real traffic patterns."
            }
        }
    }

    /// Render the three Fig. 5 panels: (a) 2-D view, (b) 3-D view, (c) 3-D view
    /// with all packets placed.
    pub fn render_figure_panels(&mut self, size: usize) -> [Framebuffer; 3] {
        let module = training_module();
        // Panel (a): the 2-D matrix view.
        let panel_a = tw_render::render_matrix_2d(&module.matrix, Some(&module.colors));
        // Panel (b): the 3-D view with no packets placed yet.
        let mut view_b = crate::view::ViewState::new();
        view_b.toggle_mode();
        view_b.packets_placed = Some(0);
        let panel_b = self.level.scene.render(&view_b, size, size);
        // Panel (c): the 3-D view with every packet placed.
        let mut view_c = crate::view::ViewState::new();
        view_c.toggle_mode();
        let panel_c = self.level.scene.render(&view_c, size, size);
        [panel_a, panel_b, panel_c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_module::validate;

    #[test]
    fn training_module_is_valid_and_small() {
        let module = training_module();
        assert!(validate(&module).is_valid());
        assert_eq!(module.dimension(), 6);
        let labels = module.matrix.labels();
        let (ws1, srv1) = (
            labels.index_of("WS1").unwrap(),
            labels.index_of("SRV1").unwrap(),
        );
        assert_eq!(module.matrix.get(ws1, srv1), Some(3));
        assert_eq!(
            module.question.as_ref().unwrap().correct_answer(),
            Some("3")
        );
        assert!(module.hint.is_some());
    }

    #[test]
    fn walk_through_steps_in_order() {
        let mut training = TrainingLevel::start().unwrap();
        assert_eq!(training.step(), TrainingStep::Read2D);
        assert_eq!(training.level.view.mode, ViewMode::TwoD);
        training.advance_step();
        assert_eq!(training.step(), TrainingStep::Explore3D);
        assert_eq!(training.level.view.mode, ViewMode::ThreeD);
        training.advance_step();
        assert_eq!(training.step(), TrainingStep::PlacePackets);
        training.advance_step();
        assert_eq!(training.step(), TrainingStep::Complete);
        let (placed, total) = training.placement_progress();
        assert_eq!(placed, total, "every packet is placed");
        training.advance_step();
        assert_eq!(
            training.step(),
            TrainingStep::Complete,
            "complete is terminal"
        );
    }

    #[test]
    fn packet_placement_progresses_one_box_at_a_time() {
        let mut training = TrainingLevel::start().unwrap();
        let (placed, total) = training.placement_progress();
        assert_eq!(placed, 0);
        assert_eq!(total, 9);
        for expected in 1..=total {
            assert_eq!(training.place_next_packet(), expected);
        }
        assert_eq!(training.placement_progress(), (total, total));
        // Placing beyond the total is a no-op.
        assert_eq!(training.place_next_packet(), total);
    }

    #[test]
    fn instructions_change_per_step() {
        let mut training = TrainingLevel::start().unwrap();
        let mut seen = vec![training.instruction()];
        for _ in 0..3 {
            training.advance_step();
            seen.push(training.instruction());
        }
        seen.dedup();
        assert_eq!(seen.len(), 4, "each step has its own instruction");
    }

    #[test]
    fn figure_panels_differ_as_in_fig5() {
        let mut training = TrainingLevel::start().unwrap();
        let [a, b, c] = training.render_figure_panels(64);
        // Panel (a) is the flat matrix view, a different size than the 3-D panels.
        assert_ne!(a.width(), b.width());
        // Panels (b) and (c) differ because (c) has the boxes placed.
        assert_ne!(b.to_ascii(), c.to_ascii());
        assert!(c.covered_pixels() >= b.covered_pixels());
    }
}
