//! The 2-D (spreadsheet-style) matrix view.
//!
//! "When the student starts the game they are first shown a network traffic
//! matrix in a top-down 2D view. This view is how they would generally see a
//! matrix in a spreadsheet, a textbook, or a presentation." The 2-D view is a
//! direct cell raster: each matrix cell becomes a square whose brightness
//! scales with the packet count and whose hue follows the color plane.

use crate::framebuffer::Framebuffer;
use tw_matrix::{CellColor, ColorMatrix, TrafficMatrix};

/// Pixels per matrix cell in the 2-D view.
pub const CELL_PIXELS: usize = 8;

/// Render a matrix (and optional color plane) into a fresh framebuffer.
///
/// Layout: row 0 at the top, column 0 at the left — the same orientation as
/// the paper's 2-D screenshots and the `to_ascii` text view.
pub fn render_matrix_2d(matrix: &TrafficMatrix, colors: Option<&ColorMatrix>) -> Framebuffer {
    let n = matrix.dimension();
    let size = n * CELL_PIXELS;
    let mut fb = Framebuffer::new(size.max(1), size.max(1));
    fb.clear([0.10, 0.10, 0.12]);
    let max_value = matrix.max_value().max(1) as f64;

    for row in 0..n {
        for col in 0..n {
            let value = matrix.get(row, col).unwrap_or(0) as f64;
            let cell_color = colors
                .and_then(|c| c.get(row, col))
                .unwrap_or(CellColor::Grey);
            let base = match cell_color {
                CellColor::Grey => [0.72, 0.72, 0.72],
                CellColor::Blue => [0.25, 0.45, 0.9],
                CellColor::Red => [0.9, 0.25, 0.25],
            };
            // Empty cells show a faint tint of the plane color; filled cells
            // brighten with the packet count.
            let intensity = if value == 0.0 {
                0.12
            } else {
                0.35 + 0.65 * (value / max_value)
            };
            let rgb = [
                base[0] * intensity,
                base[1] * intensity,
                base[2] * intensity,
            ];
            fill_cell(&mut fb, row, col, rgb);
        }
    }
    fb
}

fn fill_cell(fb: &mut Framebuffer, row: usize, col: usize, rgb: [f64; 3]) {
    let y0 = row * CELL_PIXELS;
    let x0 = col * CELL_PIXELS;
    for y in y0..y0 + CELL_PIXELS {
        for x in x0..x0 + CELL_PIXELS {
            // One-pixel grid line on the top/left edge of each cell.
            let is_grid = y == y0 || x == x0;
            let color = if is_grid { [0.05, 0.05, 0.06] } else { rgb };
            fb.set_pixel_flat(x, y, color);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_matrix::LabelSet;

    /// Mean brightness of the pixels belonging to one cell, to check
    /// that packet counts are visually distinguishable.
    fn cell_brightness(fb: &Framebuffer, row: usize, col: usize) -> f64 {
        let y0 = row * CELL_PIXELS + 1;
        let x0 = col * CELL_PIXELS + 1;
        let mut total = 0.0;
        let mut count = 0usize;
        for y in y0..row * CELL_PIXELS + CELL_PIXELS {
            for x in x0..col * CELL_PIXELS + CELL_PIXELS {
                let [r, g, b] = fb.pixel(x, y);
                total += (r + g + b) / 3.0;
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }

    fn template() -> (TrafficMatrix, ColorMatrix) {
        let labels = LabelSet::paper_default_10();
        let mut m = TrafficMatrix::zeros(labels.clone());
        for i in 0..10 {
            m.set(i, i, 1).unwrap();
            m.set(i, 9 - i, 2).unwrap();
        }
        let colors = ColorMatrix::from_label_classes(&labels);
        (m, colors)
    }

    #[test]
    fn buffer_size_matches_the_matrix() {
        let (m, _) = template();
        let fb = render_matrix_2d(&m, None);
        assert_eq!(fb.width(), 10 * CELL_PIXELS);
        assert_eq!(fb.height(), 10 * CELL_PIXELS);
    }

    #[test]
    fn filled_cells_are_brighter_than_empty_ones() {
        let (m, _) = template();
        let fb = render_matrix_2d(&m, None);
        let filled = cell_brightness(&fb, 0, 0);
        let heavier = cell_brightness(&fb, 0, 9);
        let empty = cell_brightness(&fb, 0, 5);
        assert!(filled > empty, "filled {filled} vs empty {empty}");
        assert!(
            heavier > filled,
            "2-packet cell must be brighter than 1-packet cell"
        );
    }

    #[test]
    fn color_plane_tints_cells() {
        let (m, colors) = template();
        let fb = render_matrix_2d(&m, Some(&colors));
        // Cell (0,9) is in the red quadrant and holds 2 packets: red dominant.
        let y = CELL_PIXELS / 2;
        let x = 9 * CELL_PIXELS + CELL_PIXELS / 2;
        let [r, g, b] = fb.pixel(x, y);
        assert!(r > g && r > b);
        // Cell (9,0) is in the blue quadrant: blue dominant.
        let [r2, _, b2] = fb.pixel(CELL_PIXELS / 2, 9 * CELL_PIXELS + CELL_PIXELS / 2);
        assert!(b2 > r2);
    }

    #[test]
    fn one_by_one_matrix_renders() {
        let m = TrafficMatrix::zeros(LabelSet::numeric(1));
        let fb = render_matrix_2d(&m, None);
        assert_eq!(fb.width(), CELL_PIXELS);
    }
}
