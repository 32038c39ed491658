//! Property tests for the scene tree: structural invariants hold for
//! arbitrary build/remove sequences.

use proptest::prelude::*;
use tw_engine::{Node, NodeId, NodeKind, SceneTree};

/// Build a tree from a sequence of (parent-choice, remove-choice) operations.
fn build_tree(ops: &[(u8, bool)]) -> SceneTree {
    let mut tree = SceneTree::new("Root");
    let mut alive = vec![tree.root()];
    for (i, &(parent_choice, remove)) in ops.iter().enumerate() {
        let parent = alive[parent_choice as usize % alive.len()];
        if remove && alive.len() > 1 {
            // Remove a non-root node (and forget any of its descendants lazily).
            let victim = alive[(parent_choice as usize % (alive.len() - 1)) + 1];
            if tree.node(victim).is_ok() {
                tree.remove(victim).unwrap();
            }
            alive.retain(|&n| tree.node(n).is_ok());
        } else if tree.node(parent).is_ok() {
            let id = tree
                .add_child(parent, Node::new(&format!("N{i}"), NodeKind::Node3D))
                .unwrap();
            alive.push(id);
        }
    }
    tree
}

/// The root followed by every descendant, parents before children.
fn every_node(tree: &SceneTree) -> Vec<NodeId> {
    let mut nodes = vec![tree.root()];
    nodes.extend(tree.descendants(tree.root()).unwrap());
    nodes
}

/// The absolute path of `node`, e.g. `"/Root/N0/N3"`, built from its parents.
fn path_of(tree: &SceneTree, node: NodeId) -> String {
    let mut segments = Vec::new();
    let mut current = Some(node);
    while let Some(n) = current {
        segments.push(tree.node(n).unwrap().name.clone());
        current = tree.parent(n).unwrap();
    }
    segments.reverse();
    format!("/{}", segments.join("/"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn paths_round_trip_for_every_node(ops in prop::collection::vec((any::<u8>(), any::<bool>()), 1..30)) {
        let tree = build_tree(&ops);
        for node in every_node(&tree) {
            let path = path_of(&tree, node);
            prop_assert!(path.starts_with("/Root"));
            let resolved = tree.get_node(tree.root(), path.trim_start_matches('/')).unwrap_or_else(|_| {
                // Absolute form must always resolve.
                tree.get_node(tree.root(), &path).unwrap()
            });
            prop_assert_eq!(resolved, node, "path {} did not resolve back", path);
        }
    }

    #[test]
    fn removal_never_leaves_dangling_children(ops in prop::collection::vec((any::<u8>(), any::<bool>()), 1..40)) {
        let tree = build_tree(&ops);
        for node in every_node(&tree) {
            for child in tree.children(node).unwrap() {
                prop_assert!(tree.node(child).is_ok(), "child list references a freed node");
                prop_assert_eq!(tree.parent(child).unwrap(), Some(node));
            }
        }
    }
}
