//! A renderable scene: placed voxel meshes drawn through a camera.

use crate::camera::Camera;
use crate::framebuffer::Framebuffer;
use crate::raster::draw_triangle;
use tw_voxel::{greedy_mesh, Mesh, Palette, VoxelGrid};

/// One mesh instance placed in the world.
#[derive(Debug, Clone)]
pub struct PlacedMesh {
    /// The mesh geometry (in model units).
    pub mesh: Mesh,
    /// World-space translation applied to every vertex.
    pub translation: [f64; 3],
    /// Uniform scale applied before translation.
    pub scale: f64,
}

impl PlacedMesh {
    /// Place a voxel grid's mesh at a translation with a uniform scale.
    pub fn from_grid(grid: &VoxelGrid, translation: [f64; 3], scale: f64) -> Self {
        PlacedMesh {
            mesh: greedy_mesh(grid),
            translation,
            scale,
        }
    }
}

/// A list of placed meshes.
#[derive(Debug, Clone, Default)]
pub struct RenderScene {
    /// The placed meshes, drawn in order (depth testing resolves overlap).
    pub meshes: Vec<PlacedMesh>,
}

impl RenderScene {
    /// An empty scene.
    pub fn new() -> Self {
        RenderScene::default()
    }

    /// Add a placed mesh.
    pub fn add(&mut self, placed: PlacedMesh) {
        self.meshes.push(placed);
    }

    /// Render the scene into a framebuffer through a camera, clearing to the
    /// warehouse background color first.
    pub fn render(&self, camera: &Camera, fb: &mut Framebuffer) {
        fb.clear([0.12, 0.12, 0.14]);
        for placed in &self.meshes {
            for tri in placed.mesh.triangles() {
                let transformed = tri.vertices.map(|v| {
                    [
                        v[0] * placed.scale + placed.translation[0],
                        v[1] * placed.scale + placed.translation[1],
                        v[2] * placed.scale + placed.translation[2],
                    ]
                });
                let material = Palette::color(tri.color);
                draw_triangle(
                    fb,
                    camera,
                    transformed,
                    tri.normal,
                    [material.r, material.g, material.b],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_voxel::{box_asset, pallet_asset};

    /// Total triangle count across the scene.
    fn triangle_count(scene: &RenderScene) -> usize {
        scene.meshes.iter().map(|m| m.mesh.quads.len() * 2).sum()
    }

    #[test]
    fn placed_meshes_render_into_the_buffer() {
        let mut scene = RenderScene::new();
        scene.add(PlacedMesh::from_grid(
            &pallet_asset(tw_voxel::palette::ACCENT_BLUE),
            [0.0, 0.0, 0.0],
            0.1,
        ));
        scene.add(PlacedMesh::from_grid(&box_asset(), [0.2, 0.3, 0.2], 0.1));
        assert!(triangle_count(&scene) > 12);

        let camera = Camera::top_down(1.0);
        let mut fb = Framebuffer::new(48, 48);
        scene.render(&camera, &mut fb);
        assert!(fb.covered_pixels() > 50, "covered {}", fb.covered_pixels());
    }

    #[test]
    fn rotating_the_orbit_camera_changes_the_image() {
        let mut scene = RenderScene::new();
        scene.add(PlacedMesh::from_grid(&box_asset(), [0.0, 0.0, 0.0], 0.25));
        scene.add(PlacedMesh::from_grid(&box_asset(), [3.0, 0.0, 0.0], 0.25));
        let mut a = Framebuffer::new(32, 32);
        let mut b = Framebuffer::new(32, 32);
        scene.render(&Camera::orbit_steps(4.0, 0), &mut a);
        scene.render(&Camera::orbit_steps(4.0, 3), &mut b);
        assert_ne!(
            a.to_ascii(),
            b.to_ascii(),
            "Q/E rotation must change the view"
        );
    }

    #[test]
    fn empty_scene_renders_background_only() {
        let scene = RenderScene::new();
        let mut fb = Framebuffer::new(8, 8);
        scene.render(&Camera::top_down(1.0), &mut fb);
        assert_eq!(fb.covered_pixels(), 0);
        assert_eq!(triangle_count(&scene), 0);
    }
}
