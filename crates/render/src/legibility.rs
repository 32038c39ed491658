//! The packet-count legibility model (experiment E-S1).
//!
//! The paper reports an empirical authoring limit: "While there is no hard
//! limit in code, through testing it has been found that fewer than 15 packets
//! between any source and destination displays well." In the warehouse
//! metaphor each packet is a box stacked on the cell's pallet; boxes are laid
//! out in a 4×4 footprint and start stacking into a second layer once the
//! footprint is full, at which point boxes in lower layers are hidden from the
//! top-down view and the count can no longer be read off the screen.

/// Boxes per pallet layer (a 4×4 footprint).
pub const BOXES_PER_LAYER: usize = 16;

/// The display limit the paper reports (packets per cell).
pub const DISPLAY_LIMIT: u32 = 15;

/// The position of box `index` (0-based) within a pallet's stack, as
/// `(column, layer, row)` in box units. Boxes fill a layer row-major before
/// starting the next layer.
pub fn stack_layout(index: usize) -> (usize, usize, usize) {
    let layer = index / BOXES_PER_LAYER;
    let within = index % BOXES_PER_LAYER;
    (within % 4, layer, within / 4)
}

/// The number of boxes visible from directly above when `count` boxes are
/// stacked: one per occupied footprint position.
pub fn visible_from_above(count: u32) -> u32 {
    count.min(BOXES_PER_LAYER as u32)
}

/// The legibility score of a cell holding `count` packets: the fraction of
/// boxes that remain individually visible in the top-down view. 1.0 means the
/// student can count every packet; below 1.0 some packets are occluded.
pub fn legibility_score(count: u32) -> f64 {
    if count == 0 {
        return 1.0;
    }
    visible_from_above(count) as f64 / count as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_fills_a_layer_before_stacking() {
        assert_eq!(stack_layout(0), (0, 0, 0));
        assert_eq!(stack_layout(3), (3, 0, 0));
        assert_eq!(stack_layout(4), (0, 0, 1));
        assert_eq!(stack_layout(15), (3, 0, 3));
        assert_eq!(stack_layout(16), (0, 1, 0));
        assert_eq!(stack_layout(33), (1, 2, 0));
    }

    #[test]
    fn counts_below_the_paper_limit_are_fully_legible() {
        for count in 0..=DISPLAY_LIMIT {
            assert_eq!(
                legibility_score(count),
                1.0,
                "count {count} should be fully legible"
            );
        }
    }

    #[test]
    fn counts_above_the_footprint_lose_legibility_monotonically() {
        let scores: Vec<f64> = (17..40).map(legibility_score).collect();
        assert!(scores[0] < 1.0);
        assert!(
            scores.windows(2).all(|w| w[1] <= w[0]),
            "legibility must not increase with count"
        );
        assert!((legibility_score(32) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn visible_boxes_saturate_at_the_footprint() {
        assert_eq!(visible_from_above(3), 3);
        assert_eq!(visible_from_above(16), 16);
        assert_eq!(visible_from_above(100), 16);
    }
}
