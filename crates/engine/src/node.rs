//! Nodes: the smallest buildable component of a scene.

use crate::variant::Variant;
use std::collections::BTreeMap;

/// A stable identifier for a node within its [`crate::SceneTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u64);

/// The broad node categories used by Traffic Warehouse scenes. They mirror the
/// Godot classes visible in the paper's scene-tree figure (Node3D, Camera3D,
/// Label3D, MeshInstance3D, …) without the engine-specific behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A plain grouping node.
    Node,
    /// A node with a 3-D transform (position stored in the `position` property).
    Node3D,
    /// A node that displays a mesh (pallets, boxes, the floor).
    MeshInstance3D,
    /// A 3-D text label (axis labels).
    Label3D,
    /// A camera.
    Camera3D,
    /// A data holder (the `Data` node storing the parsed module file).
    Data,
    /// A UI control (question panel, buttons).
    Control,
}

impl NodeKind {
    /// The Godot-style class name, used when printing scene trees.
    pub fn class_name(&self) -> &'static str {
        match self {
            NodeKind::Node => "Node",
            NodeKind::Node3D => "Node3D",
            NodeKind::MeshInstance3D => "MeshInstance3D",
            NodeKind::Label3D => "Label3D",
            NodeKind::Camera3D => "Camera3D",
            NodeKind::Data => "Node",
            NodeKind::Control => "Control",
        }
    }
}

/// A scene node: a named, typed bag of properties plus group tags.
///
/// Structure (parent/children) lives in the [`crate::SceneTree`]; the node
/// itself only stores its own data, mirroring how Godot separates the tree
/// from per-node state.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The node's name (unique among its siblings, enforced by the tree).
    pub name: String,
    /// The node's kind.
    pub kind: NodeKind,
    properties: BTreeMap<String, Variant>,
    exported: Vec<String>,
    groups: Vec<String>,
}

impl Node {
    /// Create a node with a name and kind.
    pub fn new(name: &str, kind: NodeKind) -> Self {
        Node {
            name: name.to_string(),
            kind,
            properties: BTreeMap::new(),
            exported: Vec::new(),
            groups: Vec::new(),
        }
    }

    /// Set a property value.
    pub fn set(&mut self, key: &str, value: impl Into<Variant>) {
        self.properties.insert(key.to_string(), value.into());
    }

    /// Get a property value.
    pub fn get(&self, key: &str) -> Option<&Variant> {
        self.properties.get(key)
    }

    /// Get a property value or `Variant::Nil` when unset.
    pub fn get_or_nil(&self, key: &str) -> Variant {
        self.properties.get(key).cloned().unwrap_or(Variant::Nil)
    }

    /// All properties in name order.
    pub fn properties(&self) -> impl Iterator<Item = (&str, &Variant)> {
        self.properties.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Mark a property as exported (visible in the Inspector). Setting the
    /// value is separate; an exported property without a value reads as Nil.
    pub fn export(&mut self, key: &str) {
        if !self.exported.iter().any(|e| e == key) {
            self.exported.push(key.to_string());
        }
    }

    /// Set a property and export it in one call (the `@export var x := v` idiom).
    pub fn export_with(&mut self, key: &str, value: impl Into<Variant>) {
        self.set(key, value);
        self.export(key);
    }

    /// The exported property names, in declaration order.
    pub fn exported(&self) -> &[String] {
        &self.exported
    }

    /// Add the node to a named group (Godot's tagging mechanism).
    pub fn add_to_group(&mut self, group: &str) {
        if !self.groups.iter().any(|g| g == group) {
            self.groups.push(group.to_string());
        }
    }

    /// The node's groups.
    pub fn groups(&self) -> &[String] {
        &self.groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn properties_and_exports() {
        let mut n = Node::new("Pallet and label controller", NodeKind::Node3D);
        n.export_with("pallets_are_colored", false);
        n.set("internal_counter", 3i64);
        n.export("y_axis");
        assert_eq!(n.get("pallets_are_colored"), Some(&Variant::Bool(false)));
        assert_eq!(n.get_or_nil("missing"), Variant::Nil);
        assert_eq!(
            n.exported(),
            &["pallets_are_colored".to_string(), "y_axis".to_string()]
        );
        assert_eq!(n.properties().count(), 2);
        // Re-exporting is idempotent.
        n.export("y_axis");
        assert_eq!(n.exported().len(), 2);
    }

    #[test]
    fn groups() {
        let mut n = Node::new("Pallet_0_0", NodeKind::MeshInstance3D);
        n.add_to_group("pallets");
        n.add_to_group("pallets");
        n.add_to_group("row_0");
        assert_eq!(n.groups(), ["pallets", "row_0"]);
    }

    #[test]
    fn kind_class_names() {
        assert_eq!(NodeKind::Node3D.class_name(), "Node3D");
        assert_eq!(NodeKind::Label3D.class_name(), "Label3D");
        assert_eq!(NodeKind::Data.class_name(), "Node");
    }
}
