//! Building the warehouse scene for a learning module.
//!
//! The scene tree mirrors the structure visible in the paper's Figs. 2 and 4:
//! a `Data` node holding the parsed module file, a `Pallet and label
//! controller` node with `X`, `Y` and `Pallets` children, one pallet node per
//! matrix cell and one label node per axis entry (each label node's second
//! child is the text label, matching the `get_child(1).text` access in the
//! paper's script).

// tw-analyze: allow-file(no-panic-in-lib, "scene construction from vetted module data; every expect proves a shape the module validators already enforced, and the scene builders are exercised by the warehouse tests")
use crate::view::ViewState;
use tw_engine::{NodeId, NodeKind, SceneTree, Variant};
use tw_module::LearningModule;
use tw_render::{stack_layout, Camera, Framebuffer, PlacedMesh, RenderScene};
use tw_voxel::{box_asset, floor_tile, label_board, pallet_asset, Palette};

/// World units per matrix cell.
pub const CELL_SIZE: f64 = 1.0;
/// Uniform scale applied to the 8-voxel pallet/floor assets so they fit a cell.
const PALLET_SCALE: f64 = CELL_SIZE / 9.0;
/// Uniform scale applied to the 4-voxel box asset.
const BOX_SCALE: f64 = CELL_SIZE / 22.0;

/// A built warehouse scene: the scene tree plus the ids of its key nodes.
#[derive(Debug)]
pub struct WarehouseScene {
    /// The scene tree.
    pub tree: SceneTree,
    /// The `Data` node holding the module contents.
    pub data: NodeId,
    /// The `Pallet and label controller` node.
    pub controller: NodeId,
    /// The `X` axis-label parent node.
    pub x_axis: NodeId,
    /// The `Y` axis-label parent node.
    pub y_axis: NodeId,
    /// The `Pallets` parent node.
    pub pallets: NodeId,
    /// The camera node.
    pub camera: NodeId,
    module: LearningModule,
}

impl WarehouseScene {
    /// Build the scene for a module: lay down the skeleton with empty
    /// pallets, then fill in boxes and data with the routine
    /// [`WarehouseScene::repallet`] uses.
    pub fn build(module: &LearningModule) -> Self {
        let n = module.dimension();
        let mut tree = SceneTree::new(&module.name);

        // Data node: the parsed module file, stored as node properties the way
        // Godot stores the JSON dictionary (filled in by `place`).
        let data = tree
            .spawn(tree.root(), "Data", NodeKind::Data)
            .expect("fresh tree");

        let camera = tree
            .spawn(tree.root(), "Camera3D", NodeKind::Camera3D)
            .expect("fresh tree");

        // Floor.
        let floor = tree
            .spawn(tree.root(), "Floor", NodeKind::Node3D)
            .expect("fresh tree");
        for row in 0..n {
            for col in 0..n {
                let id = tree
                    .spawn(
                        floor,
                        &format!("Tile_{row}_{col}"),
                        NodeKind::MeshInstance3D,
                    )
                    .expect("unique tile names");
                let node = tree.node_mut(id).expect("tile exists");
                node.set(
                    "position",
                    Variant::Vector3(col as f64 * CELL_SIZE, 0.0, row as f64 * CELL_SIZE),
                );
            }
        }

        // Controller with X, Y and Pallets children.
        let controller = tree
            .spawn(tree.root(), "Pallet and label controller", NodeKind::Node3D)
            .expect("fresh tree");
        {
            let node = tree.node_mut(controller).expect("controller exists");
            node.export_with("pallets_are_colored", false);
        }
        let x_axis = tree
            .spawn(controller, "X", NodeKind::Node3D)
            .expect("fresh tree");
        let y_axis = tree
            .spawn(controller, "Y", NodeKind::Node3D)
            .expect("fresh tree");
        for (axis, axis_name) in [(x_axis, "X"), (y_axis, "Y")] {
            for i in 0..n {
                let holder = tree
                    .spawn(axis, &format!("{axis_name}Label{i}"), NodeKind::Node3D)
                    .expect("unique label names");
                // Child 0: the board mesh; child 1: the text label (the paper's
                // script reads `get_child(1).text`).
                tree.spawn(holder, "Board", NodeKind::MeshInstance3D)
                    .expect("unique");
                let text = tree
                    .spawn(holder, "Text", NodeKind::Label3D)
                    .expect("unique");
                tree.node_mut(text).expect("text exists").set("text", "");
            }
        }
        // Wire the exported node references like the Inspector assignment in Fig. 3.
        {
            let node = tree.node_mut(controller).expect("controller exists");
            node.export_with("x_axis", Variant::NodeRef(x_axis.0));
            node.export_with("y_axis", Variant::NodeRef(y_axis.0));
        }

        // Pallets: one per matrix cell, row-major, each with a mesh child whose
        // `material_override` the controller toggles. `place` adds one box
        // child per packet after the mesh.
        let pallets = tree
            .spawn(controller, "Pallets", NodeKind::Node3D)
            .expect("fresh tree");
        {
            let node = tree.node_mut(controller).expect("controller exists");
            node.export_with("pallets", Variant::NodeRef(pallets.0));
        }
        for row in 0..n {
            for col in 0..n {
                let pallet = tree
                    .spawn(pallets, &format!("Pallet_{row}_{col}"), NodeKind::Node3D)
                    .expect("unique pallet names");
                {
                    let node = tree.node_mut(pallet).expect("pallet exists");
                    node.set(
                        "position",
                        Variant::Vector3(col as f64 * CELL_SIZE, 0.0, row as f64 * CELL_SIZE),
                    );
                    node.set("row", row);
                    node.set("col", col);
                }
                let mesh = tree
                    .spawn(pallet, "Mesh", NodeKind::MeshInstance3D)
                    .expect("unique");
                tree.node_mut(mesh)
                    .expect("mesh exists")
                    .set("material_override", "pallet_default_material");
            }
        }

        let mut scene = WarehouseScene {
            tree,
            data,
            controller,
            x_axis,
            y_axis,
            pallets,
            camera,
            module: module.clone(),
        };
        scene.place(module);
        scene
    }

    /// Re-pallet the scene in place for `module`, keeping every node that
    /// does not depend on the packet counts.
    ///
    /// The root is renamed, the `Data` node's properties are refreshed, and
    /// each pallet whose packet count changed drops trailing `Box_p`
    /// children or appends new ones, so a pallet's children stay
    /// `Mesh, Box_0..Box_{k-1}`. Pallet node ids survive, and so does
    /// controller state such as pallet materials and label texts; on a scene
    /// no controller has touched, the result equals
    /// [`WarehouseScene::build`] of the same module node for node. A module
    /// of a different dimension gets a full build instead.
    pub fn repallet(&mut self, module: &LearningModule) {
        if module.dimension() != self.dimension() {
            *self = WarehouseScene::build(module);
            return;
        }
        self.place(module);
        self.module.clone_from(module);
    }

    /// Write the module's packet counts and data onto the skeleton: the one
    /// box-placement routine behind both `build` and `repallet`.
    fn place(&mut self, module: &LearningModule) {
        let tree = &mut self.tree;
        let root = tree.root();
        tree.node_mut(root)
            .expect("root exists")
            .name
            .clone_from(&module.name);
        {
            let node = tree.node_mut(self.data).expect("data node exists");
            node.set("name", module.name.as_str());
            node.set("author", module.author.as_str());
            node.set(
                "axis_labels",
                Variant::Array(
                    module
                        .matrix
                        .labels()
                        .labels()
                        .iter()
                        .map(|l| Variant::from(l.as_str()))
                        .collect(),
                ),
            );
            node.set("traffic_matrix", grid_variant(&module.matrix.to_grid()));
            node.set(
                "traffic_matrix_colors",
                grid_variant(&module.colors.to_codes()),
            );
            node.set("has_question", module.has_question());
        }

        let n = module.dimension();
        let pallets = tree.children(self.pallets).expect("pallets node exists");
        for (cell, pallet) in pallets.into_iter().enumerate() {
            let packets = module.matrix.get(cell / n, cell % n).unwrap_or(0) as usize;
            // Child 0 is the pallet mesh; the rest are its boxes.
            let boxes = tree.child_ids(pallet).expect("pallet exists").len() - 1;
            for _ in packets..boxes {
                let last = *tree
                    .child_ids(pallet)
                    .expect("pallet exists")
                    .last()
                    .expect("a box to remove");
                tree.remove(last).expect("box exists");
            }
            for p in boxes..packets {
                let b = tree
                    .spawn(pallet, &format!("Box_{p}"), NodeKind::MeshInstance3D)
                    .expect("unique box names");
                let node = tree.node_mut(b).expect("box exists");
                node.set("packet_index", p);
            }
        }
    }

    /// The module the scene was built from.
    pub fn module(&self) -> &LearningModule {
        &self.module
    }

    /// The matrix dimension.
    pub fn dimension(&self) -> usize {
        self.module.dimension()
    }

    /// The world-space extent of the warehouse floor.
    pub fn extent(&self) -> f64 {
        self.dimension() as f64 * CELL_SIZE
    }

    /// Build the render scene. `colored` selects whether pallets use their
    /// color-plane accent (the toggle button state); `packets_placed` limits
    /// how many boxes are shown, in row-major packet order (`None` = all),
    /// which is how the training level animates packet placement.
    pub fn render_scene(&self, colored: bool, packets_placed: Option<usize>) -> RenderScene {
        let n = self.dimension();
        let mut scene = RenderScene::new();
        let floor = floor_tile();
        let box_grid = box_asset();
        let mut placed_budget = packets_placed.unwrap_or(usize::MAX);

        for row in 0..n {
            for col in 0..n {
                let origin = [col as f64 * CELL_SIZE, 0.0, row as f64 * CELL_SIZE];
                scene.add(PlacedMesh::from_grid(&floor, origin, PALLET_SCALE));
                let code = self
                    .module
                    .colors
                    .get(row, col)
                    .map(|c| c.code())
                    .unwrap_or(0);
                let accent = if colored {
                    Palette::accent_for_code(code)
                } else {
                    tw_voxel::palette::ACCENT_GREEN
                };
                let pallet = pallet_asset(accent);
                let pallet_origin = [origin[0], 0.05, origin[2]];
                scene.add(PlacedMesh::from_grid(&pallet, pallet_origin, PALLET_SCALE));

                let packets = self.module.matrix.get(row, col).unwrap_or(0) as usize;
                let deck_height = 3.0 * PALLET_SCALE + 0.05;
                for p in 0..packets {
                    if placed_budget == 0 {
                        break;
                    }
                    placed_budget -= 1;
                    let (bx, layer, bz) = stack_layout(p);
                    let box_world = 4.0 * BOX_SCALE;
                    let position = [
                        origin[0] + 0.08 + bx as f64 * (box_world + 0.01),
                        deck_height + layer as f64 * (box_world + 0.005),
                        origin[2] + 0.08 + bz as f64 * (box_world + 0.01),
                    ];
                    scene.add(PlacedMesh::from_grid(&box_grid, position, BOX_SCALE));
                }
            }
        }

        // Axis label boards along the two axes.
        let board = label_board();
        for i in 0..n {
            scene.add(PlacedMesh::from_grid(
                &board,
                [i as f64 * CELL_SIZE, 0.0, -1.2 * CELL_SIZE],
                PALLET_SCALE,
            ));
            scene.add(PlacedMesh::from_grid(
                &board,
                [-1.2 * CELL_SIZE, 0.0, i as f64 * CELL_SIZE],
                PALLET_SCALE,
            ));
        }
        scene
    }

    /// Render the warehouse through the camera described by a view state.
    pub fn render(&self, view: &ViewState, width: usize, height: usize) -> Framebuffer {
        let scene = self.render_scene(view.colors_on, view.packets_placed);
        let camera: Camera = view.camera(self.extent());
        let mut fb = Framebuffer::new(width, height);
        scene.render(&camera, &mut fb);
        fb
    }
}

fn grid_variant(grid: &[Vec<u32>]) -> Variant {
    Variant::Array(
        grid.iter()
            .map(|row| Variant::Array(row.iter().map(|&v| Variant::from(v as i64)).collect()))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_module::template_10x10;

    /// The pallet node for a cell.
    fn pallet_at(scene: &WarehouseScene, row: usize, col: usize) -> Option<NodeId> {
        scene
            .tree
            .child_by_name(scene.pallets, &format!("Pallet_{row}_{col}"))
    }

    /// Total number of packet boxes in the scene: every pallet's children
    /// past its mesh.
    fn total_boxes(scene: &WarehouseScene) -> usize {
        let tree = &scene.tree;
        let pallets = tree.children(scene.pallets).unwrap();
        pallets
            .into_iter()
            .map(|pallet| tree.child_ids(pallet).unwrap().len() - 1)
            .sum()
    }

    #[test]
    fn scene_tree_matches_the_paper_structure() {
        let module = template_10x10();
        let scene = WarehouseScene::build(&module);
        let tree = &scene.tree;
        // Root children: Data, Camera3D, Floor, controller.
        assert_eq!(tree.children(tree.root()).unwrap().len(), 4);
        // The controller has X, Y and Pallets children.
        let kids = tree.children(scene.controller).unwrap();
        assert_eq!(kids.len(), 3);
        assert_eq!(tree.node(scene.x_axis).unwrap().name, "X");
        // 10 label holders per axis, each with Board + Text children.
        assert_eq!(tree.children(scene.x_axis).unwrap().len(), 10);
        let holder = tree.children(scene.y_axis).unwrap()[0];
        let holder_children = tree.children(holder).unwrap();
        assert_eq!(holder_children.len(), 2);
        assert_eq!(
            tree.node(holder_children[1]).unwrap().kind,
            NodeKind::Label3D
        );
        // 100 pallets, one per cell; template has 30 packets → 30 box nodes.
        assert_eq!(tree.children(scene.pallets).unwrap().len(), 100);
        assert_eq!(total_boxes(&scene), 30);
        // The controller exports the references the Inspector shows in Fig. 3.
        let controller = tree.node(scene.controller).unwrap();
        assert_eq!(
            controller.exported(),
            &["pallets_are_colored", "x_axis", "y_axis", "pallets"]
        );
    }

    #[test]
    fn data_node_holds_the_module_dictionary() {
        let module = template_10x10();
        let scene = WarehouseScene::build(&module);
        let data = scene.tree.node(scene.data).unwrap();
        assert_eq!(data.get("name").unwrap().as_str(), Some("10x10 Template"));
        let labels = data.get("axis_labels").unwrap().as_array().unwrap();
        assert_eq!(labels.len(), 10);
        assert_eq!(labels[6].as_str(), Some("ADV1"));
        let colors = data
            .get("traffic_matrix_colors")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(colors.len(), 10);
        assert_eq!(colors[0].as_array().unwrap()[9].as_int(), Some(2));
        // The controller can reach the Data node via the paper's "../Data" path.
        assert_eq!(
            scene.tree.get_node(scene.controller, "../Data").unwrap(),
            scene.data
        );
    }

    #[test]
    fn pallet_lookup_and_extent() {
        let module = template_10x10();
        let scene = WarehouseScene::build(&module);
        assert!(pallet_at(&scene, 3, 7).is_some());
        assert!(pallet_at(&scene, 10, 0).is_none());
        assert_eq!(scene.extent(), 10.0);
        assert_eq!(scene.dimension(), 10);
        assert_eq!(scene.module().name, "10x10 Template");
    }

    #[test]
    fn repallet_keeps_pallets_and_rebuilds_on_a_new_dimension() {
        let mut scene = WarehouseScene::build(&template_10x10());
        let pallet = pallet_at(&scene, 3, 7).unwrap();
        let empty = tw_module::ModuleBuilder::new("empty", "tests").build();
        scene.repallet(&empty);
        assert_eq!(pallet_at(&scene, 3, 7), Some(pallet));
        assert_eq!(total_boxes(&scene), 0);
        assert_eq!(scene.tree.node(scene.tree.root()).unwrap().name, "empty");
        assert_eq!(scene.module().name, "empty");

        let six = tw_module::template_6x6();
        scene.repallet(&six);
        let fresh = WarehouseScene::build(&six);
        assert_eq!(scene.dimension(), 6);
        assert_eq!(scene.tree.print_tree(), fresh.tree.print_tree());
        assert_eq!(total_boxes(&scene), total_boxes(&fresh));
    }

    #[test]
    fn render_scene_box_counts_follow_packet_placement() {
        let module = template_10x10();
        let scene = WarehouseScene::build(&module);
        let full = scene.render_scene(false, None);
        let empty = scene.render_scene(false, Some(0));
        let partial = scene.render_scene(false, Some(10));
        // Every packet box adds meshes; fewer placed packets → fewer meshes.
        assert!(full.meshes.len() > partial.meshes.len());
        assert!(partial.meshes.len() > empty.meshes.len());
        // Floor + pallets + labels are always present.
        assert!(empty.meshes.len() >= 100 * 2);
    }

    #[test]
    fn rendering_produces_non_empty_images_in_both_views() {
        let module = tw_module::template_6x6();
        let scene = WarehouseScene::build(&module);
        let view2d = ViewState::new();
        let fb = scene.render(&view2d, 64, 64);
        assert!(
            fb.covered_pixels() > 500,
            "2-D view covered {}",
            fb.covered_pixels()
        );
        let mut view3d = ViewState::new();
        view3d.toggle_mode();
        let fb3 = scene.render(&view3d, 64, 64);
        assert!(
            fb3.covered_pixels() > 300,
            "3-D view covered {}",
            fb3.covered_pixels()
        );
        assert_ne!(fb.to_ascii(), fb3.to_ascii());
    }

    #[test]
    fn fig2_tree_prints_like_the_figure() {
        let module = crate::training::training_module();
        let text = WarehouseScene::build(&module).tree.print_tree();
        assert!(text.contains("Pallet and label controller"));
        assert!(text.contains("Data"));
        assert!(text.contains("Camera3D"));
    }
}
