//! Cross-crate integration: every figure and table of the paper can be
//! regenerated through the public API, and the regenerated artifacts have the
//! structural properties visible in the paper's panels.

use tw_core::game::{TrainingLevel, WarehouseScene};
use tw_core::matrix::{LinkClass, MatrixProfile};
use tw_core::prelude::*;
use tw_core::render::render_matrix_2d;
use tw_core::sim::{engine_comparison, modeling_comparison};

/// Packets on links that touch adversary space.
fn red_contact(p: &MatrixProfile) -> u64 {
    [
        LinkClass::BlueRedContact,
        LinkClass::GreyRedContact,
        LinkClass::IntraRed,
    ]
    .into_iter()
    .map(|class| p.packets_for(class))
    .sum()
}

#[test]
fn tables_one_and_two_reproduce_the_papers_selections() {
    assert_eq!(engine_comparison().winner(), "Godot");
    assert_eq!(modeling_comparison().winner(), "MagicaVoxel");
    let rendered = engine_comparison().render();
    for cell in [
        "Always Free",
        "C#, GDScript",
        "HTML5, Windows",
        "Almost non-existent",
    ] {
        assert!(rendered.contains(cell), "Table I is missing {cell:?}");
    }
}

#[test]
fn figure_2_and_3_scene_tree_and_inspector() {
    let scene = WarehouseScene::build(&tw_core::module::template_10x10());
    let tree_text = scene.tree.print_tree();
    for node in [
        "Data",
        "Camera3D",
        "Pallet and label controller",
        "X",
        "Y",
        "Pallets",
    ] {
        assert!(tree_text.contains(node), "scene tree missing {node}");
    }
    let mut tree = scene.tree;
    let inspector = tw_core::engine::Inspector::new(&mut tree);
    let panel = inspector
        .render(scene.controller)
        .expect("controller exists");
    assert!(panel.contains("pallets_are_colored: bool = false"));
    assert!(panel.contains("x_axis: NodePath"));
}

#[test]
fn figure_5_training_panels() {
    let mut training = TrainingLevel::start().expect("training starts");
    let [panel_2d, panel_3d, panel_placed] = training.render_figure_panels(96);
    assert!(panel_2d.covered_pixels() > 0);
    assert!(panel_3d.covered_pixels() > 0);
    assert!(panel_placed.covered_pixels() >= panel_3d.covered_pixels());
    assert_ne!(panel_3d.to_ascii(), panel_placed.to_ascii());
    // The PPM exports are valid P6 images.
    assert!(panel_placed.to_ppm().starts_with(b"P6\n"));
}

#[test]
fn figures_6_through_10_have_the_expected_structure() {
    // Fig. 6: the four topologies.
    let topologies = patterns_for_figure(Figure::Topologies);
    let internal = MatrixProfile::of(&topologies[2].matrix);
    assert!(!internal.supernodes.is_empty());
    let isolated = MatrixProfile::of(&topologies[0].matrix);
    assert_eq!(isolated.isolated_pairs.len(), 3);

    // Fig. 7: the attack stages move from red space to blue space.
    let stages = patterns_for_figure(Figure::NotionalAttack);
    let planning = MatrixProfile::of(&stages[0].matrix);
    let lateral = MatrixProfile::of(&stages[3].matrix);
    assert_eq!(
        planning.packets_for(LinkClass::IntraRed),
        planning.total_packets
    );
    assert_eq!(
        lateral.packets_for(LinkClass::IntraBlue),
        lateral.total_packets
    );

    // Fig. 8: only security avoids red contact entirely.
    let postures = patterns_for_figure(Figure::Posture);
    assert_eq!(red_contact(&MatrixProfile::of(&postures[0].matrix)), 0);
    assert!(red_contact(&MatrixProfile::of(&postures[2].matrix)) > 0);

    // Fig. 9: the DDoS attack concentrates on one victim column.
    let ddos = patterns_for_figure(Figure::Ddos);
    let attack = &ddos[2].matrix;
    let in_degrees = attack.in_degrees();
    let max_in = *in_degrees.iter().max().unwrap();
    assert_eq!(max_in, attack.total_packets());

    // Fig. 10: nine graph-theory panels, all on 10×10 numeric labels.
    let graphs = patterns_for_figure(Figure::GraphTheory);
    assert_eq!(graphs.len(), 9);
    assert!(graphs.iter().all(|p| p.dimension() == 10));

    // Every panel renders to a non-trivial 2-D view.
    for pattern in all_patterns() {
        let fb = render_matrix_2d(&pattern.matrix, Some(&pattern.colors));
        assert_eq!(
            fb.width(),
            pattern.dimension() * tw_core::render::view2d::CELL_PIXELS
        );
        assert!(fb.covered_pixels() > 0, "{} rendered empty", pattern.id);
    }
}

#[test]
fn every_figure_module_plays_in_the_game_with_correct_color_toggling() {
    use tw_core::engine::input::{InputEvent, Key};
    for figure in Figure::all() {
        let bundle = tw_core::module::library::figure_bundle(figure);
        let mut session = GameSession::start(bundle, 3).expect("start");
        // Toggle colors on the first module of every figure bundle and check the
        // scene-tree materials follow the module's color plane.
        session
            .handle_input(InputEvent::Pressed(Key::C))
            .expect("input ok");
        let level = session.current_level().expect("level");
        let module = level.scene.module().clone();
        let n = module.dimension();
        for (idx, code) in module
            .colors
            .to_codes()
            .iter()
            .flatten()
            .enumerate()
            .take(n * n)
        {
            let tree = &level.scene.tree;
            let pallet = tree.children(level.scene.pallets).expect("pallets")[idx];
            let mesh = tree.children(pallet).expect("pallet mesh")[0];
            let material = tree
                .node(mesh)
                .expect("mesh")
                .get("material_override")
                .and_then(|m| m.as_str())
                .expect("material");
            let expected = match code {
                0 => "pallet_material_g",
                1 => "pallet_material_b",
                2 => "pallet_material_r",
                _ => "pallet_material_black",
            };
            assert_eq!(material, expected, "figure {figure:?} pallet {idx}");
        }
        session.autoplay(|_| true).expect("autoplay");
        assert!(session.is_finished());
    }
}
