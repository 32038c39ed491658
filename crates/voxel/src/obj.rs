//! Wavefront OBJ export.
//!
//! MagicaVoxel's role in the paper's pipeline is to produce `.obj` files the
//! game engine imports ("Can Import .obj — Yes" in Table I, "Can export to
//! .obj — Yes" in Table II); this module closes the same loop for the
//! reproduced pipeline.

use crate::mesh::Mesh;
use crate::palette::Palette;
use std::fmt::Write as _;

/// Serialize a mesh as a Wavefront OBJ document (with an inline comment noting
/// the material palette). Vertices are deduplicated; faces are emitted as
/// quads grouped by material.
pub fn to_obj(mesh: &Mesh, object_name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Traffic Warehouse voxel asset: {object_name}");
    let _ = writeln!(out, "o {object_name}");

    // Deduplicate vertices.
    let mut vertices: Vec<[f64; 3]> = Vec::new();
    let vertex_index = |v: [f64; 3], vertices: &mut Vec<[f64; 3]>| -> usize {
        if let Some(i) = vertices.iter().position(|&existing| existing == v) {
            i + 1
        } else {
            vertices.push(v);
            vertices.len()
        }
    };

    let mut faces: Vec<(u8, [usize; 4])> = Vec::with_capacity(mesh.quads.len());
    for quad in &mesh.quads {
        let idx = [
            vertex_index(quad.corners[0], &mut vertices),
            vertex_index(quad.corners[1], &mut vertices),
            vertex_index(quad.corners[2], &mut vertices),
            vertex_index(quad.corners[3], &mut vertices),
        ];
        faces.push((quad.color, idx));
    }

    for v in &vertices {
        let _ = writeln!(out, "v {} {} {}", v[0], v[1], v[2]);
    }

    // Group faces by material.
    let mut colors: Vec<u8> = faces.iter().map(|(c, _)| *c).collect();
    colors.sort_unstable();
    colors.dedup();
    for color in colors {
        let material = Palette::color(color);
        let _ = writeln!(out, "usemtl {}", material.name);
        for (face_color, idx) in &faces {
            if *face_color == color {
                let _ = writeln!(out, "f {} {} {} {}", idx[0], idx[1], idx[2], idx[3]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assets::{box_asset, pallet_asset};
    use crate::mesh::greedy_mesh;
    use crate::palette::ACCENT_BLUE;

    /// Count the `v` and `f` records of an OBJ document.
    fn obj_stats(obj: &str) -> (usize, usize) {
        let vertices = obj.lines().filter(|l| l.starts_with("v ")).count();
        let faces = obj.lines().filter(|l| l.starts_with("f ")).count();
        (vertices, faces)
    }

    #[test]
    fn obj_structure_for_a_cube() {
        let mesh = greedy_mesh(&box_asset());
        let obj = to_obj(&mesh, "packet_box");
        assert!(obj.starts_with("# Traffic Warehouse voxel asset: packet_box"));
        assert!(obj.contains("o packet_box"));
        let (vertices, faces) = obj_stats(&obj);
        assert_eq!(faces, mesh.quads.len());
        assert!(
            vertices >= 8,
            "a box needs at least 8 distinct vertices, got {vertices}"
        );
        assert!(obj.contains("usemtl box_cardboard"));
        assert!(obj.contains("usemtl accent_grey"));
    }

    #[test]
    fn vertices_are_deduplicated() {
        let mesh = greedy_mesh(&box_asset());
        let obj = to_obj(&mesh, "b");
        let (vertices, _) = obj_stats(&obj);
        // Without dedup a mesh with Q quads would emit 4Q vertices.
        assert!(vertices < mesh.quads.len() * 4);
    }

    #[test]
    fn face_indices_are_within_bounds() {
        let mesh = greedy_mesh(&pallet_asset(ACCENT_BLUE));
        let obj = to_obj(&mesh, "pallet");
        let (vertices, _) = obj_stats(&obj);
        for line in obj.lines().filter(|l| l.starts_with("f ")) {
            for idx in line.split_whitespace().skip(1) {
                let i: usize = idx.parse().unwrap();
                assert!(
                    i >= 1 && i <= vertices,
                    "face index {i} out of range 1..={vertices}"
                );
            }
        }
    }

    #[test]
    fn empty_mesh_exports_header_only() {
        let obj = to_obj(&Mesh::default(), "empty");
        let (vertices, faces) = obj_stats(&obj);
        assert_eq!((vertices, faces), (0, 0));
        assert!(obj.contains("o empty"));
    }
}
