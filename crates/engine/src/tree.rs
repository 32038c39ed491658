//! The scene tree: ownership, hierarchy, paths and lifecycle order.

use crate::node::{Node, NodeId, NodeKind};
use std::collections::BTreeMap;
use std::fmt;

/// Errors produced by tree operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// The node id does not exist (e.g. it was freed).
    UnknownNode(NodeId),
    /// A path lookup failed; contains the path and the segment that failed.
    PathNotFound {
        path: String,
        failed_segment: String,
    },
    /// A sibling with the same name already exists under the parent.
    DuplicateName { parent: NodeId, name: String },
    /// Attempted to remove or reparent the root node.
    CannotModifyRoot,
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::UnknownNode(id) => write!(f, "node {:?} does not exist", id),
            TreeError::PathNotFound {
                path,
                failed_segment,
            } => {
                write!(
                    f,
                    "path {path:?} not found (failed at segment {failed_segment:?})"
                )
            }
            TreeError::DuplicateName { parent, name } => {
                write!(f, "node {:?} already has a child named {name:?}", parent)
            }
            TreeError::CannotModifyRoot => {
                write!(f, "the root node cannot be removed or reparented")
            }
        }
    }
}

impl std::error::Error for TreeError {}

#[derive(Debug)]
struct Slot {
    node: Node,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
}

/// An arena-backed scene tree.
///
/// Node identity is stable for the life of the tree (ids are never reused),
/// and children keep insertion order, which [`SceneTree::descendants`] and
/// [`SceneTree::print_tree`] follow depth-first, parents before children.
#[derive(Debug)]
pub struct SceneTree {
    slots: BTreeMap<u64, Slot>,
    next_id: u64,
    root: NodeId,
}

impl SceneTree {
    /// Create a tree with a root node of the given name.
    pub fn new(root_name: &str) -> Self {
        let mut slots = BTreeMap::new();
        let root = NodeId(0);
        slots.insert(
            0,
            Slot {
                node: Node::new(root_name, NodeKind::Node3D),
                parent: None,
                children: Vec::new(),
            },
        );
        SceneTree {
            slots,
            next_id: 1,
            root,
        }
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of live nodes (including the root).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when only the root exists.
    pub fn is_empty(&self) -> bool {
        self.slots.len() <= 1
    }

    /// Add a child node under `parent`, returning its id.
    pub fn add_child(&mut self, parent: NodeId, node: Node) -> Result<NodeId, TreeError> {
        if !self.slots.contains_key(&parent.0) {
            return Err(TreeError::UnknownNode(parent));
        }
        if self.child_by_name(parent, &node.name).is_some() {
            return Err(TreeError::DuplicateName {
                parent,
                name: node.name,
            });
        }
        let id = NodeId(self.next_id);
        self.next_id += 1;
        self.slots.insert(
            id.0,
            Slot {
                node,
                parent: Some(parent),
                children: Vec::new(),
            },
        );
        self.slots
            .get_mut(&parent.0)
            // tw-analyze: allow(no-panic-in-lib, "the parent id was looked up successfully at the top of this function")
            .expect("parent checked above")
            .children
            .push(id);
        Ok(id)
    }

    /// Convenience: create and add a child with a name and kind.
    pub fn spawn(
        &mut self,
        parent: NodeId,
        name: &str,
        kind: NodeKind,
    ) -> Result<NodeId, TreeError> {
        self.add_child(parent, Node::new(name, kind))
    }

    /// Immutable access to a node.
    pub fn node(&self, id: NodeId) -> Result<&Node, TreeError> {
        self.slots
            .get(&id.0)
            .map(|s| &s.node)
            .ok_or(TreeError::UnknownNode(id))
    }

    /// Mutable access to a node.
    pub fn node_mut(&mut self, id: NodeId) -> Result<&mut Node, TreeError> {
        self.slots
            .get_mut(&id.0)
            .map(|s| &mut s.node)
            .ok_or(TreeError::UnknownNode(id))
    }

    /// A node's parent (None for the root).
    pub fn parent(&self, id: NodeId) -> Result<Option<NodeId>, TreeError> {
        self.slots
            .get(&id.0)
            .map(|s| s.parent)
            .ok_or(TreeError::UnknownNode(id))
    }

    /// A node's children in insertion order.
    pub fn children(&self, id: NodeId) -> Result<Vec<NodeId>, TreeError> {
        self.child_ids(id).map(<[NodeId]>::to_vec)
    }

    /// A node's children in insertion order, borrowed from the tree.
    pub fn child_ids(&self, id: NodeId) -> Result<&[NodeId], TreeError> {
        self.slots
            .get(&id.0)
            .map(|s| s.children.as_slice())
            .ok_or(TreeError::UnknownNode(id))
    }

    /// Remove a node and its whole subtree. The root cannot be removed.
    pub fn remove(&mut self, id: NodeId) -> Result<usize, TreeError> {
        if id == self.root {
            return Err(TreeError::CannotModifyRoot);
        }
        let parent = self.parent(id)?;
        if let Some(p) = parent {
            if let Some(slot) = self.slots.get_mut(&p.0) {
                slot.children.retain(|&c| c != id);
            }
        }
        // Collect the subtree, then drop it.
        let subtree = self.descendants(id)?;
        let mut removed = 0usize;
        for n in subtree.into_iter().chain(std::iter::once(id)) {
            if self.slots.remove(&n.0).is_some() {
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// All descendants of a node (children, grandchildren, …) in depth-first order.
    pub fn descendants(&self, id: NodeId) -> Result<Vec<NodeId>, TreeError> {
        let mut out = Vec::new();
        let mut stack = self.children(id)?;
        stack.reverse();
        while let Some(n) = stack.pop() {
            out.push(n);
            let mut kids = self.children(n)?;
            kids.reverse();
            stack.extend(kids);
        }
        Ok(out)
    }

    /// Resolve a Godot-style node path relative to `from`.
    ///
    /// Supported syntax: `"Child/Grandchild"`, `".."` to go to the parent,
    /// `"."` for the node itself, and a leading `/` to start at the root
    /// (e.g. `"/root/Data"` resolves `root → Data`). This covers the
    /// `$"../Data"` lookup in the paper's controller script.
    pub fn get_node(&self, from: NodeId, path: &str) -> Result<NodeId, TreeError> {
        // The starting node must itself be alive, even for self-referential paths.
        self.node(from)?;
        let mut current = if let Some(stripped) = path.strip_prefix('/') {
            // Absolute path: first segment must name the root.
            let mut segments = stripped.split('/');
            let first = segments.next().unwrap_or("");
            if first != self.node(self.root)?.name {
                return Err(TreeError::PathNotFound {
                    path: path.to_string(),
                    failed_segment: first.to_string(),
                });
            }
            let rest: Vec<&str> = segments.collect();
            return self.walk(self.root, &rest, path);
        } else {
            from
        };
        let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        for (i, segment) in segments.iter().enumerate() {
            current = match *segment {
                "." => current,
                ".." => self
                    .parent(current)?
                    .ok_or_else(|| TreeError::PathNotFound {
                        path: path.to_string(),
                        failed_segment: segment.to_string(),
                    })?,
                name => {
                    self.child_by_name(current, name)
                        .ok_or_else(|| TreeError::PathNotFound {
                            path: path.to_string(),
                            failed_segment: format!("{name} (segment {i})"),
                        })?
                }
            };
        }
        Ok(current)
    }

    fn walk(&self, start: NodeId, segments: &[&str], full_path: &str) -> Result<NodeId, TreeError> {
        let mut current = start;
        for segment in segments {
            if segment.is_empty() || *segment == "." {
                continue;
            }
            current =
                self.child_by_name(current, segment)
                    .ok_or_else(|| TreeError::PathNotFound {
                        path: full_path.to_string(),
                        failed_segment: segment.to_string(),
                    })?;
        }
        Ok(current)
    }

    /// Find a direct child by name.
    pub fn child_by_name(&self, parent: NodeId, name: &str) -> Option<NodeId> {
        self.slots
            .get(&parent.0)?
            .children
            .iter()
            .copied()
            .find(|&c| {
                self.slots
                    .get(&c.0)
                    .map(|s| s.node.name == name)
                    .unwrap_or(false)
            })
    }

    /// Pretty-print the tree in the style of Godot's Scene dock (the paper's
    /// Fig. 2): one node per line, children indented under their parent.
    pub fn print_tree(&self) -> String {
        let mut out = String::new();
        self.print_node(self.root, 0, &mut out);
        out
    }

    fn print_node(&self, id: NodeId, depth: usize, out: &mut String) {
        if let Some(slot) = self.slots.get(&id.0) {
            for _ in 0..depth {
                out.push_str("  ");
            }
            out.push_str(&format!(
                "{} ({})\n",
                slot.node.name,
                slot.node.kind.class_name()
            ));
            for &child in &slot.children {
                self.print_node(child, depth + 1, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> (SceneTree, NodeId, NodeId, NodeId) {
        let mut tree = SceneTree::new("Training level");
        let data = tree.spawn(tree.root(), "Data", NodeKind::Data).unwrap();
        let controller = tree
            .spawn(tree.root(), "Pallet and label controller", NodeKind::Node3D)
            .unwrap();
        let pallets = tree.spawn(controller, "Pallets", NodeKind::Node3D).unwrap();
        (tree, data, controller, pallets)
    }

    #[test]
    fn add_children_and_paths() {
        let (tree, data, controller, pallets) = sample_tree();
        assert_eq!(tree.len(), 4);
        assert_eq!(
            tree.get_node(tree.root(), "Pallet and label controller/Pallets"),
            Ok(pallets)
        );
        assert_eq!(tree.parent(data).unwrap(), Some(tree.root()));
        assert_eq!(tree.children(controller).unwrap(), vec![pallets]);
        assert_eq!(tree.child_by_name(tree.root(), "Data"), Some(data));
        assert_eq!(tree.child_by_name(tree.root(), "Missing"), None);
    }

    #[test]
    fn duplicate_sibling_names_rejected() {
        let (mut tree, _, controller, _) = sample_tree();
        assert!(matches!(
            tree.spawn(controller, "Pallets", NodeKind::Node3D),
            Err(TreeError::DuplicateName { .. })
        ));
        // Same name under a different parent is fine.
        assert!(tree.spawn(tree.root(), "Pallets", NodeKind::Node3D).is_ok());
    }

    #[test]
    fn get_node_supports_relative_parent_and_absolute_paths() {
        let (mut tree, data, controller, pallets) = sample_tree();
        // The paper's @onready lookup: from the controller, "../Data".
        assert_eq!(tree.get_node(controller, "../Data").unwrap(), data);
        assert_eq!(tree.get_node(pallets, "../../Data").unwrap(), data);
        assert_eq!(
            tree.get_node(tree.root(), "Pallet and label controller/Pallets")
                .unwrap(),
            pallets
        );
        assert_eq!(tree.get_node(pallets, ".").unwrap(), pallets);
        assert_eq!(tree.get_node(data, "/Training level/Data").unwrap(), data);
        assert!(tree.get_node(data, "/Wrong root/Data").is_err());
        assert!(tree.get_node(controller, "../Missing").is_err());
        assert!(
            tree.get_node(tree.root(), "..").is_err(),
            "root has no parent"
        );
        let freed = tree.spawn(tree.root(), "Temp", NodeKind::Node).unwrap();
        tree.remove(freed).unwrap();
        assert!(tree.get_node(freed, ".").is_err());
    }

    #[test]
    fn remove_drops_whole_subtree() {
        let (mut tree, _, controller, pallets) = sample_tree();
        tree.spawn(pallets, "Pallet_0_0", NodeKind::MeshInstance3D)
            .unwrap();
        tree.spawn(pallets, "Pallet_0_1", NodeKind::MeshInstance3D)
            .unwrap();
        assert_eq!(tree.len(), 6);
        let removed = tree.remove(controller).unwrap();
        assert_eq!(removed, 4);
        assert_eq!(tree.len(), 2);
        assert!(tree.node(pallets).is_err());
        assert_eq!(tree.remove(tree.root()), Err(TreeError::CannotModifyRoot));
    }

    #[test]
    fn groups_across_the_tree() {
        let (mut tree, _, _, pallets) = sample_tree();
        for i in 0..3 {
            let id = tree
                .spawn(pallets, &format!("Pallet_{i}"), NodeKind::MeshInstance3D)
                .unwrap();
            tree.node_mut(id).unwrap().add_to_group("pallets");
        }
        let in_group = |group| {
            let nodes = tree.descendants(tree.root()).unwrap();
            nodes
                .into_iter()
                .filter(|&n| tree.node(n).unwrap().groups().iter().any(|g| g == group))
                .count()
        };
        assert_eq!(in_group("pallets"), 3);
        assert_eq!(in_group("boxes"), 0);
    }

    #[test]
    fn print_tree_matches_fig2_style() {
        let (mut tree, _, controller, pallets) = sample_tree();
        tree.spawn(controller, "Y", NodeKind::Node3D).unwrap();
        tree.spawn(pallets, "Pallet_0_0", NodeKind::MeshInstance3D)
            .unwrap();
        let text = tree.print_tree();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "Training level (Node3D)");
        assert!(lines.iter().any(|l| l.starts_with("  Data")));
        assert!(lines
            .iter()
            .any(|l| l.contains("Pallet_0_0 (MeshInstance3D)")));
        // Indentation increases with depth.
        let pallet_line = lines.iter().find(|l| l.contains("Pallet_0_0")).unwrap();
        assert!(pallet_line.starts_with("      "));
    }

    #[test]
    fn descendants_order() {
        let (tree, data, controller, pallets) = sample_tree();
        let all = tree.descendants(tree.root()).unwrap();
        assert_eq!(all, vec![data, controller, pallets]);
        assert!(tree.descendants(pallets).unwrap().is_empty());
    }
}
