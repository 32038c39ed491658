//! Run the paper's pallet-and-label controller GDScript, verbatim, against the
//! real warehouse scene tree and check it produces the same observable effects
//! as the native Rust port in `tw-game`.

use tw_engine::Variant;
use tw_game::controller::{MATERIAL_BLUE, MATERIAL_GREEN, MATERIAL_RED};
use tw_game::WarehouseScene;
use tw_module::template_10x10;
use tw_script::{Interpreter, PALLET_CONTROLLER_GDSCRIPT};

fn scripted_scene() -> (WarehouseScene, Interpreter) {
    let module = template_10x10();
    let scene = WarehouseScene::build(&module);
    let exported = [
        ("x_axis", Variant::NodeRef(scene.x_axis.0)),
        ("y_axis", Variant::NodeRef(scene.y_axis.0)),
        ("pallets", Variant::NodeRef(scene.pallets.0)),
        ("pallets_are_colored", Variant::Bool(false)),
    ];
    let interp =
        Interpreter::attach(PALLET_CONTROLLER_GDSCRIPT, scene.controller, &exported).unwrap();
    (scene, interp)
}

#[test]
fn ready_sets_labels_and_flattens_colors_like_the_paper() {
    let (mut scene, mut interp) = scripted_scene();
    interp.ready(&mut scene.tree).unwrap();
    assert!(
        interp.errors.is_empty(),
        "printerr output: {:?}",
        interp.errors
    );

    // pallet_color_array is the flattened 100-entry color list: coloring the
    // pallets reads one entry per pallet, code 2 (red) at cell (0,6) and
    // code 1 (blue) at cell (6,0).
    interp
        .call_function("change_pallet_color", &[], &mut scene.tree)
        .unwrap();
    assert!(interp.errors.is_empty(), "{:?}", interp.errors);
    let pallets = scene.tree.children(scene.pallets).unwrap();
    assert_eq!(pallets.len(), 100);
    for (i, &pallet) in pallets.iter().enumerate() {
        let mesh = scene.tree.children(pallet).unwrap()[0];
        let material = scene.tree.node(mesh).unwrap().get("material_override");
        let expected = match i {
            6 => MATERIAL_RED,
            60 => MATERIAL_BLUE,
            _ => continue,
        };
        assert_eq!(
            material.and_then(Variant::as_str),
            Some(expected),
            "pallet {i}"
        );
    }

    // Labels were written onto the Text child of every axis holder.
    let x_holders = scene.tree.children(scene.x_axis).unwrap();
    let text_node = scene.tree.children(x_holders[9]).unwrap()[1];
    assert_eq!(
        scene
            .tree
            .node(text_node)
            .unwrap()
            .get("text")
            .unwrap()
            .as_str(),
        Some("ADV4")
    );
    let y_holders = scene.tree.children(scene.y_axis).unwrap();
    let text_node = scene.tree.children(y_holders[3]).unwrap()[1];
    assert_eq!(
        scene
            .tree
            .node(text_node)
            .unwrap()
            .get("text")
            .unwrap()
            .as_str(),
        Some("SRV1")
    );
}

#[test]
fn change_pallet_color_matches_the_native_controller() {
    // Scripted version.
    let (mut scripted, mut interp) = scripted_scene();
    interp.ready(&mut scripted.tree).unwrap();
    interp
        .call_function("change_pallet_color", &[], &mut scripted.tree)
        .unwrap();

    // Native version.
    let module = template_10x10();
    let mut native = WarehouseScene::build(&module);
    let mut controller =
        tw_game::PalletLabelController::ready(&mut native.tree, native.controller).unwrap();
    controller.change_pallet_color(&mut native.tree).unwrap();

    let material_of = |scene: &WarehouseScene, index: usize| -> String {
        let pallet = scene.tree.children(scene.pallets).unwrap()[index];
        let mesh = scene.tree.children(pallet).unwrap()[0];
        scene
            .tree
            .node(mesh)
            .unwrap()
            .get("material_override")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    };
    // Every pallet mesh carries the same material in both implementations.
    let scripted_pallets = scripted.tree.children(scripted.pallets).unwrap();
    for i in 0..scripted_pallets.len() {
        assert_eq!(
            material_of(&scripted, i),
            material_of(&native, i),
            "pallet {i}"
        );
    }
    // Spot-check the three material classes directly.
    assert_eq!(material_of(&scripted, 6), MATERIAL_RED);
    assert_eq!(material_of(&scripted, 60), MATERIAL_BLUE);
    assert_eq!(material_of(&scripted, 44), MATERIAL_GREEN);

    // The script also flips its own pallets_are_colored flag: toggling a
    // second time restores the default material everywhere, and a third
    // toggle colors the pallets again.
    interp
        .call_function("change_pallet_color", &[], &mut scripted.tree)
        .unwrap();
    for &pallet in &scripted.tree.children(scripted.pallets).unwrap() {
        let mesh = scripted.tree.children(pallet).unwrap()[0];
        assert_eq!(
            scripted
                .tree
                .node(mesh)
                .unwrap()
                .get("material_override")
                .unwrap()
                .as_str(),
            Some("pallet_material")
        );
    }
    interp
        .call_function("change_pallet_color", &[], &mut scripted.tree)
        .unwrap();
    assert_eq!(material_of(&scripted, 6), MATERIAL_RED);
}

#[test]
fn script_reports_label_mismatch_via_printerr() {
    let module = template_10x10();
    let mut scene = WarehouseScene::build(&module);
    // Drop one Y label holder before the script runs.
    let victim = scene.tree.children(scene.y_axis).unwrap()[9];
    scene.tree.remove(victim).unwrap();
    let exported = [
        ("x_axis", Variant::NodeRef(scene.x_axis.0)),
        ("y_axis", Variant::NodeRef(scene.y_axis.0)),
        ("pallets", Variant::NodeRef(scene.pallets.0)),
        ("pallets_are_colored", Variant::Bool(false)),
    ];
    let mut interp =
        Interpreter::attach(PALLET_CONTROLLER_GDSCRIPT, scene.controller, &exported).unwrap();
    interp.ready(&mut scene.tree).unwrap();
    assert_eq!(
        interp.errors,
        vec!["Number of y labels does not match number of x labels!"]
    );
}

#[test]
fn script_print_log_matches_the_papers_trace() {
    let (mut scene, mut interp) = scripted_scene();
    interp.ready(&mut scene.tree).unwrap();
    interp
        .call_function("change_pallet_color", &[], &mut scene.tree)
        .unwrap();
    assert_eq!(interp.output[0], "Change pallet color button");
    assert_eq!(interp.output[1], "Palets are default! Making them colored");
    assert!(interp.output.iter().any(|l| l == "Matching color: 2"));
    // 2 headers + 100 per-pallet match lines.
    assert_eq!(interp.output.len(), 2 + 100);
}
