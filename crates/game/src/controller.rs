//! The "Pallet and label controller": a native port of the GDScript shown in
//! the paper's implementation section.
//!
//! The original script (attached to the controller node) does three things:
//!
//! 1. in `_ready()`, pull `traffic_matrix_colors` from the pre-loaded JSON in
//!    the `Data` node and flatten it into `pallet_color_array`;
//! 2. `set_labels()`: copy `axis_labels` onto the X and Y label nodes, with
//!    error messages when the label counts disagree;
//! 3. `change_pallet_color()`: toggle every pallet mesh's `material_override`
//!    between the default material and the per-cell color material, using a
//!    `match` with a black fallback for unknown codes.
//!
//! This port performs the same steps against the headless scene tree, so its
//! observable effects (node properties, error strings) can be asserted in
//! tests and compared against the `tw-script` interpretation of the original
//! GDScript.

use tw_engine::{NodeId, SceneTree, TreeError, Variant};

/// Material resource names, mirroring the preloaded `.tres` materials in the
/// paper's script.
pub const MATERIAL_DEFAULT: &str = "pallet_default_material";
/// Red material (color code 2).
pub const MATERIAL_RED: &str = "pallet_material_r";
/// Blue material (color code 1).
pub const MATERIAL_BLUE: &str = "pallet_material_b";
/// Green/grey material (color code 0).
pub const MATERIAL_GREEN: &str = "pallet_material_g";
/// Black fallback material (unknown codes).
pub const MATERIAL_BLACK: &str = "pallet_material_black";

/// The controller state after `_ready()`.
#[derive(Debug)]
pub struct PalletLabelController {
    /// The controller node this "script" is attached to.
    pub node: NodeId,
    data: NodeId,
    x_axis: NodeId,
    y_axis: NodeId,
    pallets: NodeId,
    pallet_color_array: Vec<i64>,
    /// Error messages produced by `printerr` calls, kept for inspection.
    pub errors: Vec<String>,
}

impl PalletLabelController {
    /// Attach the controller to its node and run the `_ready()` logic:
    /// resolve `$"../Data"`, flatten `traffic_matrix_colors`, then `set_labels()`.
    pub fn ready(tree: &mut SceneTree, controller: NodeId) -> Result<Self, TreeError> {
        // @onready var level_data : Node3D = $"../Data"
        let data = tree.get_node(controller, "../Data")?;
        // Exported node references assigned in the Inspector.
        let x_axis = node_ref(tree, controller, "x_axis")?;
        let y_axis = node_ref(tree, controller, "y_axis")?;
        let pallets = node_ref(tree, controller, "pallets")?;

        // for array in level_data.data["traffic_matrix_colors"]: pallet_color_array += array
        let mut pallet_color_array = Vec::new();
        if let Some(Variant::Array(rows)) = tree.node(data)?.get("traffic_matrix_colors").cloned() {
            for row in rows {
                if let Variant::Array(cells) = row {
                    for cell in cells {
                        pallet_color_array.push(cell.as_int().unwrap_or(-1));
                    }
                }
            }
        }

        let mut controller_state = PalletLabelController {
            node: controller,
            data,
            x_axis,
            y_axis,
            pallets,
            pallet_color_array,
            errors: Vec::new(),
        };
        controller_state.set_labels(tree)?;
        Ok(controller_state)
    }

    /// The flattened pallet color codes (row-major).
    pub fn pallet_color_array(&self) -> &[i64] {
        &self.pallet_color_array
    }

    /// The `set_labels()` function from the paper: copy `axis_labels` onto the
    /// text child of every X and Y label holder, with the two error checks.
    pub fn set_labels(&mut self, tree: &mut SceneTree) -> Result<(), TreeError> {
        let y_labels = tree.children(self.y_axis)?;
        let x_labels = tree.children(self.x_axis)?;
        let axis_labels: Vec<String> = match tree.node(self.data)?.get("axis_labels") {
            Some(Variant::Array(items)) => items
                .iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect(),
            _ => Vec::new(),
        };

        if y_labels.len() != x_labels.len() {
            self.errors
                .push("Number of y labels does not match number of x labels!".to_string());
            return Ok(());
        }
        if axis_labels.len() != y_labels.len() {
            self.errors
                .push("Level data does not match number of labels!".to_string());
            return Ok(());
        }
        for (c, label) in axis_labels.iter().enumerate() {
            // y_labels[c].get_child(1).text = label (child 1 is the Text node).
            let y_text = tree.children(y_labels[c])?.get(1).copied();
            let x_text = tree.children(x_labels[c])?.get(1).copied();
            if let Some(id) = y_text {
                tree.node_mut(id)?.set("text", label.as_str());
            }
            if let Some(id) = x_text {
                tree.node_mut(id)?.set("text", label.as_str());
            }
        }
        Ok(())
    }

    /// The `change_pallet_color()` toggle from the paper.
    ///
    /// When pallets are currently colored, reset every pallet mesh to the
    /// default material; otherwise assign each pallet the material matching its
    /// color code (0 → green, 1 → blue, 2 → red, anything else → black).
    pub fn change_pallet_color(&mut self, tree: &mut SceneTree) -> Result<(), TreeError> {
        let pallets_are_colored = tree
            .node(self.node)?
            .get("pallets_are_colored")
            .and_then(Variant::as_bool)
            .unwrap_or(false);
        let pallet_nodes = tree.children(self.pallets)?;

        if pallets_are_colored {
            for &pallet in &pallet_nodes {
                if let Some(&mesh) = tree.children(pallet)?.first() {
                    tree.node_mut(mesh)?
                        .set("material_override", MATERIAL_DEFAULT);
                }
            }
            tree.node_mut(self.node)?.set("pallets_are_colored", false);
        } else {
            for (c, color) in self.pallet_color_array.iter().enumerate() {
                let Some(&pallet) = pallet_nodes.get(c) else {
                    break;
                };
                let material = match color {
                    0 => MATERIAL_GREEN,
                    1 => MATERIAL_BLUE,
                    2 => MATERIAL_RED,
                    _ => MATERIAL_BLACK,
                };
                if let Some(&mesh) = tree.children(pallet)?.first() {
                    tree.node_mut(mesh)?.set("material_override", material);
                }
            }
            tree.node_mut(self.node)?.set("pallets_are_colored", true);
        }
        Ok(())
    }
}

fn node_ref(tree: &SceneTree, node: NodeId, property: &str) -> Result<NodeId, TreeError> {
    let id = tree
        .node(node)?
        .get(property)
        .and_then(Variant::as_node_ref)
        .ok_or_else(|| TreeError::PathNotFound {
            path: format!("exported property {property:?}"),
            failed_segment: property.to_string(),
        })?;
    let resolved = NodeId(id);
    tree.node(resolved)?;
    Ok(resolved)
}

#[cfg(test)]
impl PalletLabelController {
    /// The material currently applied to the pallet at flat index `i`.
    pub(crate) fn pallet_material(&self, tree: &SceneTree, i: usize) -> Option<String> {
        let pallet = *tree.children(self.pallets).ok()?.get(i)?;
        let mesh = *tree.children(pallet).ok()?.first()?;
        tree.node(mesh)
            .ok()?
            .get("material_override")?
            .as_str()
            .map(str::to_string)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warehouse::WarehouseScene;
    use tw_engine::NodeKind;
    use tw_module::template_10x10;

    fn ready_scene() -> (WarehouseScene, PalletLabelController) {
        let module = template_10x10();
        let mut scene = WarehouseScene::build(&module);
        let controller = PalletLabelController::ready(&mut scene.tree, scene.controller).unwrap();
        (scene, controller)
    }

    #[test]
    fn ready_flattens_the_color_array_like_the_script() {
        let (_, controller) = ready_scene();
        assert_eq!(controller.pallet_color_array().len(), 100);
        // Row 0, cols 6..10 are red (2); row 6, cols 0..4 are blue (1).
        assert_eq!(controller.pallet_color_array()[6], 2);
        assert_eq!(controller.pallet_color_array()[60], 1);
        assert_eq!(controller.pallet_color_array()[44], 0);
        assert!(controller.errors.is_empty());
    }

    #[test]
    fn set_labels_writes_the_axis_labels_to_both_axes() {
        let (scene, _) = ready_scene();
        let tree = &scene.tree;
        let x_holders = tree.children(scene.x_axis).unwrap();
        let y_holders = tree.children(scene.y_axis).unwrap();
        for (i, expected) in [
            "WS1", "WS2", "WS3", "SRV1", "EXT1", "EXT2", "ADV1", "ADV2", "ADV3", "ADV4",
        ]
        .iter()
        .enumerate()
        {
            for holders in [&x_holders, &y_holders] {
                let text_node = tree.children(holders[i]).unwrap()[1];
                assert_eq!(
                    tree.node(text_node).unwrap().get("text").unwrap().as_str(),
                    Some(*expected)
                );
            }
        }
    }

    #[test]
    fn set_labels_reports_mismatches_via_printerr() {
        let module = template_10x10();
        let mut scene = WarehouseScene::build(&module);
        // Remove one Y label holder to break the count match.
        let victim = scene.tree.children(scene.y_axis).unwrap()[9];
        scene.tree.remove(victim).unwrap();
        let controller = PalletLabelController::ready(&mut scene.tree, scene.controller).unwrap();
        assert_eq!(
            controller.errors,
            vec!["Number of y labels does not match number of x labels!"]
        );

        // Now remove one from each axis so counts match each other but not the data.
        let mut scene = WarehouseScene::build(&module);
        for axis in [scene.x_axis, scene.y_axis] {
            let victim = scene.tree.children(axis).unwrap()[9];
            scene.tree.remove(victim).unwrap();
        }
        let controller = PalletLabelController::ready(&mut scene.tree, scene.controller).unwrap();
        assert_eq!(
            controller.errors,
            vec!["Level data does not match number of labels!"]
        );
    }

    #[test]
    fn change_pallet_color_toggles_materials_per_cell() {
        let (mut scene, mut controller) = ready_scene();
        // Initially every pallet mesh carries the default material.
        assert_eq!(
            controller.pallet_material(&scene.tree, 0).unwrap(),
            MATERIAL_DEFAULT
        );

        controller.change_pallet_color(&mut scene.tree).unwrap();
        // Cell (0,6) is red space → red material; (6,0) is blue; (4,4) grey → green.
        assert_eq!(
            controller.pallet_material(&scene.tree, 6).unwrap(),
            MATERIAL_RED
        );
        assert_eq!(
            controller.pallet_material(&scene.tree, 60).unwrap(),
            MATERIAL_BLUE
        );
        assert_eq!(
            controller.pallet_material(&scene.tree, 44).unwrap(),
            MATERIAL_GREEN
        );
        assert_eq!(
            scene
                .tree
                .node(scene.controller)
                .unwrap()
                .get("pallets_are_colored")
                .unwrap()
                .as_bool(),
            Some(true)
        );

        // Toggling again restores the default everywhere.
        controller.change_pallet_color(&mut scene.tree).unwrap();
        for i in [0usize, 6, 44, 60, 99] {
            assert_eq!(
                controller.pallet_material(&scene.tree, i).unwrap(),
                MATERIAL_DEFAULT
            );
        }
        assert_eq!(
            scene
                .tree
                .node(scene.controller)
                .unwrap()
                .get("pallets_are_colored")
                .unwrap()
                .as_bool(),
            Some(false)
        );
    }

    #[test]
    fn unknown_color_codes_fall_back_to_black() {
        let module = template_10x10();
        let mut scene = WarehouseScene::build(&module);
        // Corrupt one color code in the Data node before ready() runs.
        let data = scene.data;
        let mut rows = match scene
            .tree
            .node(data)
            .unwrap()
            .get("traffic_matrix_colors")
            .cloned()
        {
            Some(Variant::Array(rows)) => rows,
            _ => panic!("colors missing"),
        };
        if let Variant::Array(cells) = &mut rows[0] {
            cells[0] = Variant::Int(7);
        }
        scene
            .tree
            .node_mut(data)
            .unwrap()
            .set("traffic_matrix_colors", Variant::Array(rows));

        let mut controller =
            PalletLabelController::ready(&mut scene.tree, scene.controller).unwrap();
        controller.change_pallet_color(&mut scene.tree).unwrap();
        assert_eq!(
            controller.pallet_material(&scene.tree, 0).unwrap(),
            MATERIAL_BLACK
        );
    }

    #[test]
    fn ready_fails_without_a_data_sibling() {
        let mut tree = SceneTree::new("Broken level");
        let controller = tree
            .spawn(tree.root(), "Pallet and label controller", NodeKind::Node3D)
            .unwrap();
        assert!(PalletLabelController::ready(&mut tree, controller).is_err());
    }
}
