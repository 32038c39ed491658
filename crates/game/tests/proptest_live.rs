//! Property tests for re-palleting the warehouse in place: for ANY sequence
//! of display matrices, a scene updated with `WarehouseScene::repallet` after
//! every step equals a fresh `WarehouseScene::build` of the same module —
//! the same printed tree, and node for node in process order the same name,
//! kind, exports and properties (node ids and `NodeRef` values
//! aside). The pallet controller then colors both scenes alike.
//!
//! `coarsen_window` is held to the per-cell block formula: every cell of
//! an `n`-node window adds into display block `min(a·dimension/n,
//! dimension − 1)` of its row and column, and the u128 block sums are
//! rescaled under the 14-packet display limit.

use proptest::prelude::*;
use tw_engine::{Node, SceneTree, Variant};
use tw_game::{coarsen_window, PalletLabelController, WarehouseScene};
use tw_matrix::{CellColor, CsrMatrix, LabelSet, TrafficMatrix};
use tw_module::{LearningModule, ModuleBuilder};

/// How one cell moves between two steps.
#[derive(Debug, Clone, Copy)]
enum CellStep {
    Unchanged,
    ToZero,
    Grow(u32),
    Shrink(u32),
    Set(u32),
}

fn arb_cell_step() -> impl Strategy<Value = CellStep> {
    (0u8..5, 0u32..15).prop_map(|(kind, v)| match kind {
        0 => CellStep::Unchanged,
        1 => CellStep::ToZero,
        2 => CellStep::Grow(v + 1),
        3 => CellStep::Shrink(v + 1),
        _ => CellStep::Set(v),
    })
}

/// One step: per-cell moves, per-cell color codes, and whether the module
/// carries a question.
type Step = (Vec<CellStep>, Vec<u32>, bool);

fn arb_lesson() -> impl Strategy<Value = (usize, Vec<Step>)> {
    (1usize..=10).prop_flat_map(|d| {
        let step = (
            prop::collection::vec(arb_cell_step(), d * d),
            prop::collection::vec(0u32..3, d * d),
            any::<bool>(),
        );
        (Just(d), prop::collection::vec(step, 1..8))
    })
}

fn apply(cells: &mut [u32], moves: &[CellStep]) {
    for (cell, &step) in cells.iter_mut().zip(moves) {
        *cell = match step {
            CellStep::Unchanged => *cell,
            CellStep::ToZero => 0,
            CellStep::Grow(k) => (*cell + k).min(14),
            CellStep::Shrink(k) => cell.saturating_sub(k),
            CellStep::Set(v) => v,
        };
    }
}

/// The module a live window of this display would produce: the labels
/// `coarsen_window` picks, plus a color plane and optional question.
fn module(step: usize, d: usize, cells: &[u32], colors: &[u32], question: bool) -> LearningModule {
    let labels = if d == 10 {
        LabelSet::paper_default_10()
    } else {
        LabelSet::numeric(d)
    };
    let grid: Vec<Vec<u32>> = cells.chunks(d).map(<[u32]>::to_vec).collect();
    let matrix = TrafficMatrix::from_grid(labels.clone(), &grid).unwrap();
    let mut builder = ModuleBuilder::new(&format!("step {step}"), &format!("author {}", step % 3))
        .labels(labels.labels().to_vec())
        .unwrap()
        .matrix(matrix)
        .unwrap();
    for (i, &code) in colors.iter().enumerate() {
        builder = builder
            .color(i / d, i % d, CellColor::from_code(code).unwrap())
            .unwrap();
    }
    if question {
        builder = builder.question("Which pattern is this?", ["a", "b", "c"], step % 3);
    }
    builder.build()
}

/// A node's properties with every `NodeRef` target blanked out.
fn properties(node: &Node) -> Vec<(String, Variant)> {
    node.properties()
        .map(|(key, value)| {
            let value = match value {
                Variant::NodeRef(_) => Variant::NodeRef(0),
                other => other.clone(),
            };
            (key.to_string(), value)
        })
        .collect()
}

fn assert_same_tree(repalleted: &SceneTree, fresh: &SceneTree) -> Result<(), TestCaseError> {
    prop_assert_eq!(repalleted.print_tree(), fresh.print_tree());
    // Every node, parents before children: the root, then its descendants.
    let order = |tree: &SceneTree| {
        let mut nodes = vec![tree.root()];
        nodes.extend(tree.descendants(tree.root()).unwrap());
        nodes
    };
    let (ours, theirs) = (order(repalleted), order(fresh));
    prop_assert_eq!(ours.len(), theirs.len());
    for (&a, &b) in ours.iter().zip(&theirs) {
        let (a, b) = (repalleted.node(a).unwrap(), fresh.node(b).unwrap());
        prop_assert_eq!(&a.name, &b.name);
        prop_assert_eq!(a.kind, b.kind);
        prop_assert_eq!(a.exported(), b.exported());
        prop_assert_eq!(properties(a), properties(b), "properties of {}", a.name);
    }
    Ok(())
}

/// Ready the controller on a scene, toggle the pallet colors on, and read
/// every pallet's material.
fn colored_materials(scene: &mut WarehouseScene) -> Vec<Option<String>> {
    let mut controller = PalletLabelController::ready(&mut scene.tree, scene.controller).unwrap();
    assert!(controller.errors.is_empty(), "{:?}", controller.errors);
    controller.change_pallet_color(&mut scene.tree).unwrap();
    let cells = scene.dimension() * scene.dimension();
    (0..cells)
        .map(|i| {
            let pallet = *scene.tree.children(scene.pallets).ok()?.get(i)?;
            let mesh = *scene.tree.children(pallet).ok()?.first()?;
            let material = scene.tree.node(mesh).ok()?.get("material_override")?;
            material.as_str().map(str::to_string)
        })
        .collect()
}

/// The packet count the hottest coarsened cell is scaled to.
const DISPLAY_PACKET_LIMIT: u128 = 14;

/// A window shape, its display dimension, and per row 0–9 cells of
/// `(column draw, value)`. Shapes under a dozen nodes (fewer rows than
/// display cells) are drawn as often as shapes up to 600; values run from
/// tiny counts to `u64::MAX`.
type Window = (usize, usize, usize, Vec<Vec<(usize, u64)>>);

fn arb_window() -> impl Strategy<Value = Window> {
    let side = || prop_oneof![0usize..=12, 0usize..=600];
    (side(), side(), 1usize..=12).prop_flat_map(|(rows, cols, dimension)| {
        let value = (0u8..4, any::<u64>()).prop_map(|(kind, v)| match kind {
            0 => u64::MAX,
            1 => v,
            _ => v % 20,
        });
        let row = prop::collection::vec((0usize..600, value), 0..=9);
        (
            Just(rows),
            Just(cols),
            Just(dimension),
            prop::collection::vec(row, rows..=rows),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The flat block-sum kernel equals the per-cell block formula on every
    /// shape: square or not, fewer rows than display cells, empty windows,
    /// and rows long and short enough to run both the four-cell body and
    /// its remainder.
    #[test]
    fn coarsening_matches_the_per_cell_block_formula(window in arb_window()) {
        let (rows, cols, dimension, drawn) = window;
        let mut row_ptr = vec![0];
        let (mut col_idx, mut values) = (Vec::new(), Vec::new());
        for cells in &drawn {
            let mut cells: Vec<(usize, u64)> = if cols == 0 {
                Vec::new()
            } else {
                cells.iter().map(|&(c, v)| (c % cols, v)).collect()
            };
            cells.sort_unstable_by_key(|&(c, _)| c);
            cells.dedup_by_key(|&mut (c, _)| c);
            for (c, v) in cells {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        let matrix = CsrMatrix::from_raw_parts(rows, cols, row_ptr, col_idx, values).unwrap();

        let block = |a: usize| (a * dimension / rows).min(dimension - 1);
        let mut sums = vec![vec![0u128; dimension]; dimension];
        for (r, c, v) in matrix.iter() {
            sums[block(r)][block(c)] += u128::from(v);
        }
        let max = sums.iter().flatten().copied().max().unwrap();
        let display = coarsen_window(&matrix, dimension);
        prop_assert_eq!(display.dimension(), dimension);
        for (br, row) in sums.iter().enumerate() {
            for (bc, &v) in row.iter().enumerate() {
                let expected = match v {
                    0 => 0,
                    v if max <= DISPLAY_PACKET_LIMIT => v as u32,
                    v => (v * DISPLAY_PACKET_LIMIT / max).max(1) as u32,
                };
                prop_assert_eq!(
                    display.get(br, bc).unwrap(),
                    expected,
                    "{rows}x{cols} onto {dimension}: block ({br}, {bc})"
                );
            }
        }
    }

    /// Re-palleting after every step equals a fresh build of that step's
    /// module, for growing, emptied and unchanged cells alike.
    #[test]
    fn repallet_matches_a_fresh_build(lesson in arb_lesson()) {
        let (d, steps) = lesson;
        let mut cells = vec![0u32; d * d];
        let mut scene: Option<WarehouseScene> = None;
        let mut last = None;
        for (i, (moves, colors, question)) in steps.iter().enumerate() {
            apply(&mut cells, moves);
            let module = module(i, d, &cells, colors, *question);
            match &mut scene {
                Some(scene) => scene.repallet(&module),
                None => scene = Some(WarehouseScene::build(&module)),
            }
            let scene = scene.as_ref().unwrap();
            let fresh = WarehouseScene::build(&module);
            assert_same_tree(&scene.tree, &fresh.tree)?;
            prop_assert_eq!(scene.module(), fresh.module());
            let tree = &scene.tree;
            // Every pallet's children past its mesh are its boxes.
            let boxes: usize = tree.children(scene.pallets).unwrap().into_iter()
                .map(|pallet| tree.child_ids(pallet).unwrap().len() - 1)
                .sum();
            prop_assert_eq!(boxes, cells.iter().sum::<u32>() as usize);
            last = Some(module);
        }

        let mut scene = scene.unwrap();
        let mut fresh = WarehouseScene::build(&last.unwrap());
        prop_assert_eq!(colored_materials(&mut scene), colored_materials(&mut fresh));
    }
}
