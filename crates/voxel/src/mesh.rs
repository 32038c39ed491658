//! Greedy meshing: converting a voxel grid into renderable geometry.
//!
//! Only voxel faces that touch empty space are emitted, and co-planar faces of
//! the same color are merged into larger quads, which keeps triangle counts
//! low enough for the software rasterizer in `tw-render` to draw whole
//! warehouse scenes quickly.

use crate::grid::VoxelGrid;

/// An axis-aligned rectangle of voxel faces sharing one color.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quad {
    /// The four corners in counter-clockwise order (as seen from outside).
    pub corners: [[f64; 3]; 4],
    /// Outward normal.
    pub normal: [f64; 3],
    /// Palette color index.
    pub color: u8,
}

/// A triangle produced by splitting a quad.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triangle {
    /// Vertex positions.
    pub vertices: [[f64; 3]; 3],
    /// Outward normal.
    pub normal: [f64; 3],
    /// Palette color index.
    pub color: u8,
}

/// A mesh: merged quads plus the triangles they expand to.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Mesh {
    /// Merged quads.
    pub quads: Vec<Quad>,
}

impl Mesh {
    /// Expand the quads into triangles (two per quad).
    pub fn triangles(&self) -> Vec<Triangle> {
        let mut out = Vec::with_capacity(self.quads.len() * 2);
        for q in &self.quads {
            out.push(Triangle {
                vertices: [q.corners[0], q.corners[1], q.corners[2]],
                normal: q.normal,
                color: q.color,
            });
            out.push(Triangle {
                vertices: [q.corners[0], q.corners[2], q.corners[3]],
                normal: q.normal,
                color: q.color,
            });
        }
        out
    }
}

/// The six axis directions a face can point.
const DIRECTIONS: [([i64; 3], usize, usize, usize); 6] = [
    // (normal, u-axis index, v-axis index, fixed-axis index)
    ([1, 0, 0], 2, 1, 0),
    ([-1, 0, 0], 2, 1, 0),
    ([0, 1, 0], 0, 2, 1),
    ([0, -1, 0], 0, 2, 1),
    ([0, 0, 1], 0, 1, 2),
    ([0, 0, -1], 0, 1, 2),
];

/// Greedy-mesh a voxel grid: emit merged quads for every exposed face.
pub fn greedy_mesh(grid: &VoxelGrid) -> Mesh {
    let (sx, sy, sz) = grid.size();
    let dims = [sx as i64, sy as i64, sz as i64];
    let mut mesh = Mesh::default();

    for &(normal, u_axis, v_axis, w_axis) in &DIRECTIONS {
        let du = dims[u_axis];
        let dv = dims[v_axis];
        let dw = dims[w_axis];
        for w in 0..dw {
            // Build the mask of exposed faces for this slice.
            let mut mask: Vec<u8> = vec![0; (du * dv) as usize];
            for v in 0..dv {
                for u in 0..du {
                    let mut pos = [0i64; 3];
                    pos[u_axis] = u;
                    pos[v_axis] = v;
                    pos[w_axis] = w;
                    let here = voxel_at(grid, pos);
                    let neighbour = [pos[0] + normal[0], pos[1] + normal[1], pos[2] + normal[2]];
                    let outside = voxel_at(grid, neighbour);
                    if here != 0 && outside == 0 {
                        mask[(v * du + u) as usize] = here;
                    }
                }
            }
            // Greedily merge rectangles of equal color in the mask.
            let mut v = 0i64;
            while v < dv {
                let mut u = 0i64;
                while u < du {
                    let color = mask[(v * du + u) as usize];
                    if color == 0 {
                        u += 1;
                        continue;
                    }
                    // Extend width.
                    let mut width = 1i64;
                    while u + width < du && mask[(v * du + u + width) as usize] == color {
                        width += 1;
                    }
                    // Extend height.
                    let mut height = 1i64;
                    'grow: while v + height < dv {
                        for k in 0..width {
                            if mask[((v + height) * du + u + k) as usize] != color {
                                break 'grow;
                            }
                        }
                        height += 1;
                    }
                    // Clear the mask under the rectangle.
                    for dv2 in 0..height {
                        for du2 in 0..width {
                            mask[((v + dv2) * du + u + du2) as usize] = 0;
                        }
                    }
                    mesh.quads.push(build_quad(
                        normal, u_axis, v_axis, w_axis, u, v, w, width, height, color,
                    ));
                    u += width;
                }
                v += 1;
            }
        }
    }
    mesh
}

fn voxel_at(grid: &VoxelGrid, pos: [i64; 3]) -> u8 {
    if pos.iter().any(|&p| p < 0) {
        return 0;
    }
    grid.get(pos[0] as usize, pos[1] as usize, pos[2] as usize)
}

#[allow(clippy::too_many_arguments)]
fn build_quad(
    normal: [i64; 3],
    u_axis: usize,
    v_axis: usize,
    w_axis: usize,
    u: i64,
    v: i64,
    w: i64,
    width: i64,
    height: i64,
    color: u8,
) -> Quad {
    // The face sits on the positive side of the voxel when the normal is
    // positive, on the voxel's own plane when negative.
    let face_w = if normal.iter().sum::<i64>() > 0 {
        w + 1
    } else {
        w
    };
    let corner = |du: i64, dv: i64| -> [f64; 3] {
        let mut p = [0f64; 3];
        p[u_axis] = (u + du) as f64;
        p[v_axis] = (v + dv) as f64;
        p[w_axis] = face_w as f64;
        p
    };
    let normal_f = [normal[0] as f64, normal[1] as f64, normal[2] as f64];
    // Wind counter-clockwise as seen from the outside (normal direction).
    let corners = if normal.iter().sum::<i64>() > 0 {
        [
            corner(0, 0),
            corner(width, 0),
            corner(width, height),
            corner(0, height),
        ]
    } else {
        [
            corner(0, 0),
            corner(0, height),
            corner(width, height),
            corner(width, 0),
        ]
    };
    Quad {
        corners,
        normal: normal_f,
        color,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::palette::{ACCENT_BLUE, PALLET_WOOD};

    /// Total surface area of a mesh: the sum of its quads' areas.
    fn surface_area(mesh: &Mesh) -> f64 {
        let sub = |a: [f64; 3], b: [f64; 3]| [a[0] - b[0], a[1] - b[1], a[2] - b[2]];
        mesh.quads
            .iter()
            .map(|q| {
                let (e1, e2) = (
                    sub(q.corners[1], q.corners[0]),
                    sub(q.corners[3], q.corners[0]),
                );
                let cross = [
                    e1[1] * e2[2] - e1[2] * e2[1],
                    e1[2] * e2[0] - e1[0] * e2[2],
                    e1[0] * e2[1] - e1[1] * e2[0],
                ];
                (cross[0] * cross[0] + cross[1] * cross[1] + cross[2] * cross[2]).sqrt()
            })
            .sum()
    }

    #[test]
    fn single_voxel_meshes_to_six_faces() {
        let mut g = VoxelGrid::new(3, 3, 3);
        g.set(1, 1, 1, PALLET_WOOD);
        let mesh = greedy_mesh(&g);
        assert_eq!(mesh.quads.len(), 6);
        assert_eq!(mesh.triangles().len(), 12);
        assert!((surface_area(&mesh) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn solid_cube_merges_faces() {
        let mut g = VoxelGrid::new(4, 4, 4);
        g.fill_box(0, 0, 0, 3, 3, 3, PALLET_WOOD);
        let mesh = greedy_mesh(&g);
        // A fully merged 4×4×4 cube needs exactly 6 quads (one per side).
        assert_eq!(mesh.quads.len(), 6);
        assert!((surface_area(&mesh) - 6.0 * 16.0).abs() < 1e-9);
        // No interior faces are emitted.
        assert_eq!(mesh.triangles().len(), 12);
    }

    #[test]
    fn different_colors_do_not_merge() {
        let mut g = VoxelGrid::new(2, 1, 1);
        g.set(0, 0, 0, PALLET_WOOD);
        g.set(1, 0, 0, ACCENT_BLUE);
        let mesh = greedy_mesh(&g);
        // The top faces of the two voxels stay separate (different colors), so
        // the quad count exceeds a single merged box's 6.
        assert!(mesh.quads.len() > 6);
        let colors: std::collections::HashSet<u8> = mesh.quads.iter().map(|q| q.color).collect();
        assert!(colors.contains(&PALLET_WOOD) && colors.contains(&ACCENT_BLUE));
    }

    #[test]
    fn empty_grid_produces_empty_mesh() {
        let mesh = greedy_mesh(&VoxelGrid::new(4, 4, 4));
        assert!(mesh.quads.is_empty());
        assert_eq!(surface_area(&mesh), 0.0);
    }

    #[test]
    fn surface_area_matches_exposed_face_count_for_sparse_grids() {
        // Two separated voxels → 12 unit faces.
        let mut g = VoxelGrid::new(5, 1, 1);
        g.set(0, 0, 0, PALLET_WOOD);
        g.set(4, 0, 0, PALLET_WOOD);
        let mesh = greedy_mesh(&g);
        assert!((surface_area(&mesh) - 12.0).abs() < 1e-9);
    }

    #[test]
    fn normals_are_unit_axis_vectors() {
        let mut g = VoxelGrid::new(2, 2, 2);
        g.fill_box(0, 0, 0, 1, 1, 1, PALLET_WOOD);
        for q in greedy_mesh(&g).quads {
            let len: f64 = q.normal.iter().map(|c| c * c).sum::<f64>();
            assert!((len - 1.0).abs() < 1e-12);
        }
    }
}
