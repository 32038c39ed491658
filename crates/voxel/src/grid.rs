//! The voxel canvas.

use crate::palette::EMPTY;

/// A bounded 3-D grid of palette-indexed voxels.
///
/// Coordinates are `(x, y, z)` with `y` up, matching the engine's convention.
/// Index 0 ([`EMPTY`]) means no voxel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoxelGrid {
    size_x: usize,
    size_y: usize,
    size_z: usize,
    voxels: Vec<u8>,
}

impl VoxelGrid {
    /// An empty canvas of the given size.
    pub fn new(size_x: usize, size_y: usize, size_z: usize) -> Self {
        VoxelGrid {
            size_x,
            size_y,
            size_z,
            voxels: vec![EMPTY; size_x * size_y * size_z],
        }
    }

    /// The canvas dimensions as `(x, y, z)`.
    pub fn size(&self) -> (usize, usize, usize) {
        (self.size_x, self.size_y, self.size_z)
    }

    fn index(&self, x: usize, y: usize, z: usize) -> Option<usize> {
        if x < self.size_x && y < self.size_y && z < self.size_z {
            Some((y * self.size_z + z) * self.size_x + x)
        } else {
            None
        }
    }

    /// The palette index at a coordinate ([`EMPTY`] when out of range).
    pub fn get(&self, x: usize, y: usize, z: usize) -> u8 {
        self.index(x, y, z).map(|i| self.voxels[i]).unwrap_or(EMPTY)
    }

    /// Place (or clear, with [`EMPTY`]) a voxel. Out-of-range coordinates are ignored.
    pub fn set(&mut self, x: usize, y: usize, z: usize, color: u8) {
        if let Some(i) = self.index(x, y, z) {
            self.voxels[i] = color;
        }
    }

    /// Fill the axis-aligned box `[x0..=x1] × [y0..=y1] × [z0..=z1]`.
    #[allow(clippy::too_many_arguments)] // six box corners + color is the natural signature
    pub fn fill_box(
        &mut self,
        x0: usize,
        y0: usize,
        z0: usize,
        x1: usize,
        y1: usize,
        z1: usize,
        color: u8,
    ) {
        for y in y0..=y1.min(self.size_y.saturating_sub(1)) {
            for z in z0..=z1.min(self.size_z.saturating_sub(1)) {
                for x in x0..=x1.min(self.size_x.saturating_sub(1)) {
                    self.set(x, y, z, color);
                }
            }
        }
    }
}

/// Observers the crate's tests read assets through.
#[cfg(test)]
impl VoxelGrid {
    /// True when a voxel is present at the coordinate.
    pub(crate) fn is_filled(&self, x: usize, y: usize, z: usize) -> bool {
        self.get(x, y, z) != EMPTY
    }

    /// Number of filled voxels.
    pub(crate) fn filled_count(&self) -> usize {
        self.voxels.iter().filter(|&&v| v != EMPTY).count()
    }

    /// Iterate over filled voxels as `(x, y, z, color)`.
    pub(crate) fn iter_filled(&self) -> impl Iterator<Item = (usize, usize, usize, u8)> + '_ {
        (0..self.size_y).flat_map(move |y| {
            (0..self.size_z).flat_map(move |z| {
                (0..self.size_x).filter_map(move |x| {
                    let v = self.get(x, y, z);
                    (v != EMPTY).then_some((x, y, z, v))
                })
            })
        })
    }

    /// The set of distinct colors present (excluding empty), sorted.
    pub(crate) fn colors_used(&self) -> Vec<u8> {
        let mut colors: Vec<u8> = self
            .voxels
            .iter()
            .copied()
            .filter(|&v| v != EMPTY)
            .collect();
        colors.sort_unstable();
        colors.dedup();
        colors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::palette::{ACCENT_BLUE, ACCENT_RED, PALLET_WOOD};

    #[test]
    fn set_get_and_bounds() {
        let mut g = VoxelGrid::new(4, 3, 2);
        assert_eq!(g.size(), (4, 3, 2));
        g.set(1, 2, 1, PALLET_WOOD);
        assert_eq!(g.get(1, 2, 1), PALLET_WOOD);
        assert!(g.is_filled(1, 2, 1));
        assert!(!g.is_filled(0, 0, 0));
        // Out-of-range accesses are safe no-ops.
        g.set(99, 0, 0, PALLET_WOOD);
        assert_eq!(g.get(99, 0, 0), EMPTY);
        assert_eq!(g.filled_count(), 1);
    }

    #[test]
    fn fill_box_and_iteration() {
        let mut g = VoxelGrid::new(5, 5, 5);
        g.fill_box(1, 1, 1, 3, 2, 3, PALLET_WOOD);
        assert_eq!(g.filled_count(), 3 * 2 * 3);
        assert!(g.iter_filled().all(|(_, _, _, c)| c == PALLET_WOOD));
        assert_eq!(g.iter_filled().count(), g.filled_count());
        // Clamped fill beyond bounds does not panic.
        g.fill_box(0, 0, 0, 100, 100, 100, ACCENT_BLUE);
        assert_eq!(g.filled_count(), 125);
    }

    #[test]
    fn recolor_and_colors_used() {
        let mut g = VoxelGrid::new(3, 1, 1);
        g.set(0, 0, 0, ACCENT_BLUE);
        g.set(1, 0, 0, ACCENT_BLUE);
        g.set(2, 0, 0, PALLET_WOOD);
        assert_eq!(g.colors_used(), vec![PALLET_WOOD, ACCENT_BLUE]);
        g.set(0, 0, 0, ACCENT_RED);
        g.set(1, 0, 0, ACCENT_RED);
        assert_eq!(g.colors_used(), vec![PALLET_WOOD, ACCENT_RED]);
    }
}
