//! The tree-walking interpreter.
//!
//! A script is attached to a node in a [`SceneTree`] (as in Godot). Running
//! `_ready()` initializes `@onready` variables (node-path lookups run against
//! the tree) and then executes the function; any other function can be called
//! afterwards, which is how the color-toggle button invokes
//! `change_pallet_color()`.

use crate::ast::{AssignOp, BinOp, Expr, MatchPattern, Script, Stmt};
use crate::parser::{parse_script, ParseError};
use std::collections::BTreeMap;
use std::collections::HashMap;
use tw_engine::{NodeId, SceneTree, Variant};

/// A runtime or parse error.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptError {
    /// The script failed to parse.
    Parse(String),
    /// A runtime error with a message.
    Runtime(String),
}

impl std::fmt::Display for ScriptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScriptError::Parse(msg) => write!(f, "script parse error: {msg}"),
            ScriptError::Runtime(msg) => write!(f, "script runtime error: {msg}"),
        }
    }
}

impl std::error::Error for ScriptError {}

impl From<ParseError> for ScriptError {
    fn from(e: ParseError) -> Self {
        ScriptError::Parse(e.message)
    }
}

type RunResult<T> = Result<T, ScriptError>;

enum Flow {
    Normal,
    Return(Variant),
}

/// An interpreter instance: one script attached to one node.
pub struct Interpreter {
    script: Script,
    /// The node the script is attached to.
    pub node: NodeId,
    globals: HashMap<String, Variant>,
    /// Lines produced by `print`.
    pub output: Vec<String>,
    /// Lines produced by `printerr`.
    pub errors: Vec<String>,
}

impl Interpreter {
    /// Parse a script and attach it to a node. Exported variables can be
    /// injected through `exported_values` (the Inspector assignment step).
    pub fn attach(
        source: &str,
        node: NodeId,
        exported_values: &[(&str, Variant)],
    ) -> RunResult<Self> {
        let script = parse_script(source)?;
        let mut globals = HashMap::new();
        for var in &script.variables {
            globals.insert(var.name.clone(), Variant::Nil);
        }
        for (name, value) in exported_values {
            globals.insert((*name).to_string(), value.clone());
        }
        Ok(Interpreter {
            script,
            node,
            globals,
            output: Vec::new(),
            errors: Vec::new(),
        })
    }

    /// Read a script global.
    #[cfg(test)]
    pub(crate) fn global(&self, name: &str) -> Option<&Variant> {
        self.globals.get(name)
    }

    /// Run the node-entry sequence: evaluate plain and `@onready` initializers
    /// (in source order), then call `_ready()` if it exists.
    pub fn ready(&mut self, tree: &mut SceneTree) -> RunResult<()> {
        let variables = self.script.variables.clone();
        for var in &variables {
            if var.exported
                && self
                    .globals
                    .get(&var.name)
                    .map(|v| *v != Variant::Nil)
                    .unwrap_or(false)
            {
                // Keep the Inspector-assigned value.
                continue;
            }
            if let Some(init) = &var.init {
                let mut frame = HashMap::new();
                let value = self.eval(init, tree, &mut frame)?;
                self.globals.insert(var.name.clone(), value);
            }
        }
        if self.script.function("_ready").is_some() {
            self.call_function("_ready", &[], tree)?;
        }
        Ok(())
    }

    /// Call a script function by name.
    pub fn call_function(
        &mut self,
        name: &str,
        args: &[Variant],
        tree: &mut SceneTree,
    ) -> RunResult<Variant> {
        let func = self
            .script
            .function(name)
            .cloned()
            .ok_or_else(|| ScriptError::Runtime(format!("unknown function {name:?}")))?;
        if args.len() != func.params.len() {
            return Err(ScriptError::Runtime(format!(
                "function {name:?} expects {} arguments, got {}",
                func.params.len(),
                args.len()
            )));
        }
        let mut frame: HashMap<String, Variant> = HashMap::new();
        for (param, arg) in func.params.iter().zip(args) {
            frame.insert(param.clone(), arg.clone());
        }
        match self.exec_block(&func.body, tree, &mut frame)? {
            Flow::Return(value) => Ok(value),
            Flow::Normal => Ok(Variant::Nil),
        }
    }

    fn exec_block(
        &mut self,
        body: &[Stmt],
        tree: &mut SceneTree,
        frame: &mut HashMap<String, Variant>,
    ) -> RunResult<Flow> {
        for stmt in body {
            match self.exec_stmt(stmt, tree, frame)? {
                Flow::Normal => {}
                flow @ Flow::Return(_) => return Ok(flow),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(
        &mut self,
        stmt: &Stmt,
        tree: &mut SceneTree,
        frame: &mut HashMap<String, Variant>,
    ) -> RunResult<Flow> {
        match stmt {
            Stmt::Pass => Ok(Flow::Normal),
            Stmt::Expr(expr) => {
                self.eval(expr, tree, frame)?;
                Ok(Flow::Normal)
            }
            Stmt::Return(expr) => {
                let value = match expr {
                    Some(e) => self.eval(e, tree, frame)?,
                    None => Variant::Nil,
                };
                Ok(Flow::Return(value))
            }
            Stmt::VarDecl { name, init } => {
                let value = match init {
                    Some(e) => self.eval(e, tree, frame)?,
                    None => Variant::Nil,
                };
                frame.insert(name.clone(), value);
                Ok(Flow::Normal)
            }
            Stmt::Assign { target, op, value } => {
                let new_value = self.eval(value, tree, frame)?;
                let final_value = match op {
                    AssignOp::Set => new_value,
                    AssignOp::Add => {
                        let current = self.eval(target, tree, frame)?;
                        add_variants(&current, &new_value)?
                    }
                    AssignOp::Sub => {
                        let current = self.eval(target, tree, frame)?;
                        numeric_op(&current, &new_value, |a, b| a - b)?
                    }
                };
                self.assign(target, final_value, tree, frame)?;
                Ok(Flow::Normal)
            }
            Stmt::If {
                branches,
                else_body,
            } => {
                for (cond, body) in branches {
                    if self.eval(cond, tree, frame)?.truthy() {
                        return self.exec_block(body, tree, frame);
                    }
                }
                self.exec_block(else_body, tree, frame)
            }
            Stmt::For {
                var,
                iterable,
                body,
            } => {
                let items = match self.eval(iterable, tree, frame)? {
                    Variant::Array(items) => items,
                    Variant::Str(s) => s.chars().map(|c| Variant::Str(c.to_string())).collect(),
                    other => {
                        return Err(ScriptError::Runtime(format!(
                            "cannot iterate over a {} value",
                            other.type_name()
                        )))
                    }
                };
                for item in items {
                    frame.insert(var.clone(), item);
                    match self.exec_block(body, tree, frame)? {
                        Flow::Normal => {}
                        flow @ Flow::Return(_) => return Ok(flow),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Match { subject, arms } => {
                let subject = self.eval(subject, tree, frame)?;
                for (pattern, body) in arms {
                    let matched = match pattern {
                        MatchPattern::Wildcard => true,
                        MatchPattern::Literal(expr) => self.eval(expr, tree, frame)? == subject,
                    };
                    if matched {
                        return self.exec_block(body, tree, frame);
                    }
                }
                Ok(Flow::Normal)
            }
        }
    }

    fn assign(
        &mut self,
        target: &Expr,
        value: Variant,
        tree: &mut SceneTree,
        frame: &mut HashMap<String, Variant>,
    ) -> RunResult<()> {
        match target {
            Expr::Ident(name) => {
                if frame.contains_key(name) {
                    frame.insert(name.clone(), value);
                } else {
                    self.globals.insert(name.clone(), value);
                }
                Ok(())
            }
            Expr::Attr(base, attr) => {
                let base_value = self.eval(base, tree, frame)?;
                match base_value {
                    Variant::NodeRef(id) => {
                        tree.node_mut(NodeId(id))
                            .map_err(|e| ScriptError::Runtime(e.to_string()))?
                            .set(attr, value);
                        Ok(())
                    }
                    other => Err(ScriptError::Runtime(format!(
                        "cannot set attribute {attr:?} on a {} value",
                        other.type_name()
                    ))),
                }
            }
            other => Err(ScriptError::Runtime(format!(
                "invalid assignment target {other:?}"
            ))),
        }
    }

    fn eval(
        &mut self,
        expr: &Expr,
        tree: &mut SceneTree,
        frame: &mut HashMap<String, Variant>,
    ) -> RunResult<Variant> {
        match expr {
            Expr::Int(i) => Ok(Variant::Int(*i)),
            Expr::Float(x) => Ok(Variant::Float(*x)),
            Expr::Str(s) => Ok(Variant::Str(s.clone())),
            Expr::Bool(b) => Ok(Variant::Bool(*b)),
            Expr::Null => Ok(Variant::Nil),
            Expr::Array(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.eval(item, tree, frame)?);
                }
                Ok(Variant::Array(out))
            }
            Expr::Ident(name) => {
                if let Some(v) = frame.get(name) {
                    Ok(v.clone())
                } else if let Some(v) = self.globals.get(name) {
                    Ok(v.clone())
                } else {
                    Err(ScriptError::Runtime(format!("undefined variable {name:?}")))
                }
            }
            Expr::NodePath(path) => {
                let id = tree
                    .get_node(self.node, path)
                    .map_err(|e| ScriptError::Runtime(e.to_string()))?;
                Ok(Variant::NodeRef(id.0))
            }
            Expr::Index(base, index) => {
                let base = self.eval(base, tree, frame)?;
                let index = self.eval(index, tree, frame)?;
                match (&base, &index) {
                    (Variant::Array(items), Variant::Int(i)) => {
                        items.get(*i as usize).cloned().ok_or_else(|| {
                            ScriptError::Runtime(format!("array index {i} out of range"))
                        })
                    }
                    (Variant::Dict(map), Variant::Str(key)) => {
                        map.get(key).cloned().ok_or_else(|| {
                            ScriptError::Runtime(format!("dictionary key {key:?} not found"))
                        })
                    }
                    _ => Err(ScriptError::Runtime(format!(
                        "cannot index a {} value with a {}",
                        base.type_name(),
                        index.type_name()
                    ))),
                }
            }
            Expr::Attr(base, attr) => {
                let base = self.eval(base, tree, frame)?;
                match base {
                    Variant::NodeRef(id) => self.node_attribute(tree, NodeId(id), attr),
                    other => Err(ScriptError::Runtime(format!(
                        "cannot read attribute {attr:?} of a {} value",
                        other.type_name()
                    ))),
                }
            }
            Expr::Not(inner) => Ok(Variant::Bool(!self.eval(inner, tree, frame)?.truthy())),
            Expr::Neg(inner) => {
                let value = self.eval(inner, tree, frame)?;
                match value {
                    Variant::Int(i) => Ok(Variant::Int(-i)),
                    Variant::Float(f) => Ok(Variant::Float(-f)),
                    other => Err(ScriptError::Runtime(format!(
                        "cannot negate a {}",
                        other.type_name()
                    ))),
                }
            }
            Expr::Binary(op, left, right) => {
                let l = self.eval(left, tree, frame)?;
                // Short-circuit booleans.
                match op {
                    BinOp::And => {
                        return Ok(Variant::Bool(
                            l.truthy() && self.eval(right, tree, frame)?.truthy(),
                        ))
                    }
                    BinOp::Or => {
                        return Ok(Variant::Bool(
                            l.truthy() || self.eval(right, tree, frame)?.truthy(),
                        ))
                    }
                    _ => {}
                }
                let r = self.eval(right, tree, frame)?;
                eval_binary(*op, &l, &r)
            }
            Expr::Call(callee, args) => {
                let mut arg_values = Vec::with_capacity(args.len());
                for arg in args {
                    arg_values.push(self.eval(arg, tree, frame)?);
                }
                match callee.as_ref() {
                    Expr::Ident(name) => self.call_named(name, &arg_values, tree),
                    Expr::Attr(base, method) => {
                        let base = self.eval(base, tree, frame)?;
                        self.call_method(&base, method, &arg_values, tree)
                    }
                    other => Err(ScriptError::Runtime(format!("cannot call {other:?}"))),
                }
            }
        }
    }

    fn call_named(
        &mut self,
        name: &str,
        args: &[Variant],
        tree: &mut SceneTree,
    ) -> RunResult<Variant> {
        match name {
            "print" => {
                self.output.push(
                    args.iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join(""),
                );
                Ok(Variant::Nil)
            }
            "printerr" => {
                self.errors.push(
                    args.iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join(""),
                );
                Ok(Variant::Nil)
            }
            "len" => match args.first() {
                Some(Variant::Array(items)) => Ok(Variant::Int(items.len() as i64)),
                Some(Variant::Str(s)) => Ok(Variant::Int(s.chars().count() as i64)),
                Some(Variant::Dict(map)) => Ok(Variant::Int(map.len() as i64)),
                other => Err(ScriptError::Runtime(format!(
                    "len() of unsupported value {other:?}"
                ))),
            },
            "str" => Ok(Variant::Str(
                args.first().map(|v| v.to_string()).unwrap_or_default(),
            )),
            "int" => match args.first() {
                Some(Variant::Int(i)) => Ok(Variant::Int(*i)),
                Some(Variant::Float(f)) => Ok(Variant::Int(*f as i64)),
                Some(Variant::Bool(b)) => Ok(Variant::Int(*b as i64)),
                Some(Variant::Str(s)) => Ok(Variant::Int(s.trim().parse().unwrap_or(0))),
                other => Err(ScriptError::Runtime(format!(
                    "int() of unsupported value {other:?}"
                ))),
            },
            "range" => match args.first() {
                Some(Variant::Int(n)) => Ok(Variant::Array((0..*n).map(Variant::Int).collect())),
                other => Err(ScriptError::Runtime(format!(
                    "range() needs an int, got {other:?}"
                ))),
            },
            "preload" => match args.first() {
                Some(Variant::Str(path)) => {
                    // Resolve "res://…/pallet_material_r.tres" to its resource stem.
                    let stem = path
                        .rsplit('/')
                        .next()
                        .unwrap_or(path)
                        .trim_end_matches(".tres")
                        .trim_end_matches(".obj")
                        .to_string();
                    Ok(Variant::Str(stem))
                }
                other => Err(ScriptError::Runtime(format!(
                    "preload() needs a path string, got {other:?}"
                ))),
            },
            _ => {
                if self.script.function(name).is_some() {
                    self.call_function(name, args, tree)
                } else {
                    Err(ScriptError::Runtime(format!("unknown function {name:?}")))
                }
            }
        }
    }

    fn call_method(
        &mut self,
        base: &Variant,
        method: &str,
        args: &[Variant],
        tree: &mut SceneTree,
    ) -> RunResult<Variant> {
        match base {
            Variant::NodeRef(id) => {
                let id = NodeId(*id);
                match method {
                    "get_children" => {
                        let children = tree
                            .children(id)
                            .map_err(|e| ScriptError::Runtime(e.to_string()))?;
                        Ok(Variant::Array(
                            children
                                .into_iter()
                                .map(|c| Variant::NodeRef(c.0))
                                .collect(),
                        ))
                    }
                    "get_child" => {
                        let index = args.first().and_then(Variant::as_int).ok_or_else(|| {
                            ScriptError::Runtime("get_child() needs an index".to_string())
                        })?;
                        let children = tree
                            .children(id)
                            .map_err(|e| ScriptError::Runtime(e.to_string()))?;
                        children
                            .get(index as usize)
                            .map(|c| Variant::NodeRef(c.0))
                            .ok_or_else(|| {
                                ScriptError::Runtime(format!("child index {index} out of range"))
                            })
                    }
                    "get_node" => {
                        let path = args
                            .first()
                            .and_then(Variant::as_str)
                            .ok_or_else(|| {
                                ScriptError::Runtime("get_node() needs a path".to_string())
                            })?
                            .to_string();
                        let found = tree
                            .get_node(id, &path)
                            .map_err(|e| ScriptError::Runtime(e.to_string()))?;
                        Ok(Variant::NodeRef(found.0))
                    }
                    other => Err(ScriptError::Runtime(format!(
                        "unknown node method {other:?}"
                    ))),
                }
            }
            Variant::Array(items) => match method {
                "size" => Ok(Variant::Int(items.len() as i64)),
                "append" => Err(ScriptError::Runtime(
                    "append() on a temporary array has no effect; use += instead".to_string(),
                )),
                other => Err(ScriptError::Runtime(format!(
                    "unknown array method {other:?}"
                ))),
            },
            other => Err(ScriptError::Runtime(format!(
                "cannot call method {method:?} on a {} value",
                other.type_name()
            ))),
        }
    }

    /// Read a node attribute: a stored property, or the special `data`
    /// attribute which exposes all of the node's properties as a dictionary
    /// (how the controller script reads the pre-loaded module file from the
    /// `Data` node).
    fn node_attribute(&self, tree: &SceneTree, id: NodeId, attr: &str) -> RunResult<Variant> {
        let node = tree
            .node(id)
            .map_err(|e| ScriptError::Runtime(e.to_string()))?;
        if let Some(value) = node.get(attr) {
            return Ok(value.clone());
        }
        if attr == "data" {
            let map: BTreeMap<String, Variant> = node
                .properties()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect();
            return Ok(Variant::Dict(map));
        }
        if attr == "name" {
            return Ok(Variant::Str(node.name.clone()));
        }
        Ok(Variant::Nil)
    }
}

fn add_variants(a: &Variant, b: &Variant) -> RunResult<Variant> {
    match (a, b) {
        (Variant::Array(x), Variant::Array(y)) => {
            let mut out = x.clone();
            out.extend(y.iter().cloned());
            Ok(Variant::Array(out))
        }
        (Variant::Str(x), y) => Ok(Variant::Str(format!("{x}{y}"))),
        _ => numeric_op(a, b, |x, y| x + y),
    }
}

fn numeric_op(a: &Variant, b: &Variant, op: impl Fn(f64, f64) -> f64) -> RunResult<Variant> {
    match (a.as_float(), b.as_float()) {
        (Some(x), Some(y)) => {
            let result = op(x, y);
            if matches!(a, Variant::Int(_)) && matches!(b, Variant::Int(_)) && result.fract() == 0.0
            {
                Ok(Variant::Int(result as i64))
            } else {
                Ok(Variant::Float(result))
            }
        }
        _ => Err(ScriptError::Runtime(format!(
            "arithmetic on incompatible values ({} and {})",
            a.type_name(),
            b.type_name()
        ))),
    }
}

fn eval_binary(op: BinOp, l: &Variant, r: &Variant) -> RunResult<Variant> {
    match op {
        BinOp::Add => add_variants(l, r),
        BinOp::Sub => numeric_op(l, r, |a, b| a - b),
        BinOp::Mul => numeric_op(l, r, |a, b| a * b),
        BinOp::Div => {
            if r.as_float() == Some(0.0) {
                return Err(ScriptError::Runtime("division by zero".to_string()));
            }
            numeric_op(l, r, |a, b| a / b)
        }
        BinOp::Mod => {
            if r.as_float() == Some(0.0) {
                return Err(ScriptError::Runtime("modulo by zero".to_string()));
            }
            numeric_op(l, r, |a, b| a % b)
        }
        BinOp::Eq => Ok(Variant::Bool(l == r)),
        BinOp::Ne => Ok(Variant::Bool(l != r)),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let (Some(a), Some(b)) = (l.as_float(), r.as_float()) else {
                return Err(ScriptError::Runtime(format!(
                    "cannot compare {} and {}",
                    l.type_name(),
                    r.type_name()
                )));
            };
            Ok(Variant::Bool(match op {
                BinOp::Lt => a < b,
                BinOp::Le => a <= b,
                BinOp::Gt => a > b,
                BinOp::Ge => a >= b,
                _ => unreachable!(),
            }))
        }
        BinOp::And | BinOp::Or => unreachable!("short-circuited by the caller"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_engine::NodeKind;

    fn bare_tree() -> (SceneTree, NodeId) {
        let mut tree = SceneTree::new("Root");
        let node = tree
            .spawn(tree.root(), "ScriptHost", NodeKind::Node3D)
            .unwrap();
        (tree, node)
    }

    #[test]
    fn hello_world_prints() {
        let (mut tree, node) = bare_tree();
        let mut interp = Interpreter::attach(crate::HELLO_WORLD_GDSCRIPT, node, &[]).unwrap();
        interp.ready(&mut tree).unwrap();
        assert_eq!(interp.output, vec!["Hello, world!"]);
        assert!(interp.errors.is_empty());
    }

    #[test]
    fn arithmetic_control_flow_and_functions() {
        let src = r#"
var total = 0

func _ready():
	for x in range(5):
		if x % 2 == 0:
			total += x * 10
		elif x == 3:
			total += 1
		else:
			pass
	total += bonus(7)

func bonus(n):
	if n > 5 and not false:
		return n - 2
	return 0
"#;
        let (mut tree, node) = bare_tree();
        let mut interp = Interpreter::attach(src, node, &[]).unwrap();
        interp.ready(&mut tree).unwrap();
        // evens: 0+20+40 = 60; x==3 adds 1; bonus(7) = 5 → 66.
        assert_eq!(interp.global("total"), Some(&Variant::Int(66)));
    }

    #[test]
    fn node_paths_children_and_property_assignment() {
        let src = r#"
@onready var data = $"../Data"

func _ready():
	var kids = data.get_children()
	kids[0].text = "hello " + str(len(kids))
	data.get_child(1).text = data.data["title"]
"#;
        let mut tree = SceneTree::new("Root");
        let host = tree.spawn(tree.root(), "Host", NodeKind::Node3D).unwrap();
        let data = tree.spawn(tree.root(), "Data", NodeKind::Data).unwrap();
        tree.node_mut(data).unwrap().set("title", "Traffic 101");
        let a = tree.spawn(data, "A", NodeKind::Label3D).unwrap();
        let b = tree.spawn(data, "B", NodeKind::Label3D).unwrap();

        let mut interp = Interpreter::attach(src, host, &[]).unwrap();
        interp.ready(&mut tree).unwrap();
        assert_eq!(
            tree.node(a).unwrap().get("text").unwrap().as_str(),
            Some("hello 2")
        );
        assert_eq!(
            tree.node(b).unwrap().get("text").unwrap().as_str(),
            Some("Traffic 101")
        );
    }

    #[test]
    fn match_statement_with_wildcard() {
        let src = r#"
var result = ""

func classify(code):
	match int(code):
		0: result = "grey"
		1: result = "blue"
		2: result = "red"
		_: result = "unknown"
	return result
"#;
        let (mut tree, node) = bare_tree();
        let mut interp = Interpreter::attach(src, node, &[]).unwrap();
        interp.ready(&mut tree).unwrap();
        assert_eq!(
            interp
                .call_function("classify", &[Variant::Int(2)], &mut tree)
                .unwrap(),
            Variant::Str("red".into())
        );
        assert_eq!(
            interp
                .call_function("classify", &[Variant::Int(9)], &mut tree)
                .unwrap(),
            Variant::Str("unknown".into())
        );
        assert_eq!(
            interp
                .call_function("classify", &[Variant::Float(1.0)], &mut tree)
                .unwrap(),
            Variant::Str("blue".into())
        );
    }

    #[test]
    fn runtime_errors_are_reported_not_panicked() {
        let (mut tree, node) = bare_tree();
        let cases = [
            (
                "func _ready():\n\tundefined_var += 1\n",
                "undefined variable",
            ),
            ("func _ready():\n\tvar x = [1][5]\n", "out of range"),
            ("func _ready():\n\tvar x = 1 / 0\n", "division by zero"),
            ("func _ready():\n\tvar x = $\"../Missing\"\n", "not found"),
            ("func _ready():\n\tnope()\n", "unknown function"),
        ];
        for (src, expected) in cases {
            let mut interp = Interpreter::attach(src, node, &[]).unwrap();
            let err = interp.ready(&mut tree).unwrap_err();
            assert!(err.to_string().contains(expected), "{src}: {err}");
        }
    }

    #[test]
    fn exported_values_override_initializers() {
        let src = "@export var speed : int = 5\nfunc _ready():\n\tspeed += 1\n";
        let (mut tree, node) = bare_tree();
        let mut interp = Interpreter::attach(src, node, &[("speed", Variant::Int(40))]).unwrap();
        interp.ready(&mut tree).unwrap();
        assert_eq!(interp.global("speed"), Some(&Variant::Int(41)));
        // Without an inspector value the default initializer applies.
        let mut interp = Interpreter::attach(src, node, &[]).unwrap();
        interp.ready(&mut tree).unwrap();
        assert_eq!(interp.global("speed"), Some(&Variant::Int(6)));
    }
}
