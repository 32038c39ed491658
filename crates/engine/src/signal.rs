//! Signals: Godot's decoupled event mechanism.
//!
//! Traffic Warehouse uses signals for its UI interactions — e.g. the "toggle
//! pallet color" button emits a signal that the pallet controller's
//! `change_pallet_color()` method is connected to. The bus records
//! connections (source node, signal name → target node, method name) and
//! queues emissions; the game loop drains the queue and dispatches each
//! emission to the connected controller methods.

use crate::node::NodeId;
use crate::variant::Variant;
use parking_lot::Mutex;

/// One signal connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Connection {
    /// The node that emits the signal.
    pub source: NodeId,
    /// The signal name (e.g. `"pressed"`).
    pub signal: String,
    /// The node whose method should be called.
    pub target: NodeId,
    /// The method name to call on the target (e.g. `"change_pallet_color"`).
    pub method: String,
}

/// One queued emission with its arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalEmission {
    /// The emitting node.
    pub source: NodeId,
    /// The signal name.
    pub signal: String,
    /// Arguments passed with the emission.
    pub args: Vec<Variant>,
}

/// A dispatched call: which method on which node should run, with which args.
#[derive(Debug, Clone, PartialEq)]
pub struct Dispatch {
    /// The node whose method should run.
    pub target: NodeId,
    /// The method name.
    pub method: String,
    /// The emission arguments.
    pub args: Vec<Variant>,
}

/// The signal bus. Thread-safe so UI/input producers and the game loop can
/// share it (the paper's game is single-threaded, but telemetry in `tw-game`
/// feeds events from a channel).
#[derive(Debug, Default)]
pub struct SignalBus {
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    connections: Vec<Connection>,
    queue: Vec<SignalEmission>,
}

impl SignalBus {
    /// An empty bus.
    pub fn new() -> Self {
        SignalBus::default()
    }

    /// Connect `source.signal` to `target.method`. Duplicate connections are ignored.
    pub fn connect(&self, source: NodeId, signal: &str, target: NodeId, method: &str) {
        let connection = Connection {
            source,
            signal: signal.to_string(),
            target,
            method: method.to_string(),
        };
        let mut inner = self.inner.lock();
        if !inner.connections.contains(&connection) {
            inner.connections.push(connection);
        }
    }

    /// Queue an emission.
    pub fn emit(&self, source: NodeId, signal: &str, args: Vec<Variant>) {
        self.inner.lock().queue.push(SignalEmission {
            source,
            signal: signal.to_string(),
            args,
        });
    }

    /// Drain the queue, resolving each emission against the connections, and
    /// return the calls to dispatch in emission order.
    pub fn drain(&self) -> Vec<Dispatch> {
        let mut inner = self.inner.lock();
        let queue = std::mem::take(&mut inner.queue);
        let mut dispatches = Vec::new();
        for emission in queue {
            for connection in &inner.connections {
                if connection.source == emission.source && connection.signal == emission.signal {
                    dispatches.push(Dispatch {
                        target: connection.target,
                        method: connection.method.clone(),
                        args: emission.args.clone(),
                    });
                }
            }
        }
        dispatches
    }

    /// Number of queued, undispatched emissions.
    pub fn pending(&self) -> usize {
        self.inner.lock().queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_emit_drain() {
        let bus = SignalBus::new();
        let button = NodeId(10);
        let controller = NodeId(20);
        bus.connect(button, "pressed", controller, "change_pallet_color");
        bus.connect(button, "pressed", controller, "change_pallet_color"); // duplicate ignored

        bus.emit(button, "pressed", vec![]);
        assert_eq!(bus.pending(), 1);
        let dispatches = bus.drain();
        assert_eq!(dispatches.len(), 1, "the duplicate connection is ignored");
        assert_eq!(dispatches[0].target, controller);
        assert_eq!(dispatches[0].method, "change_pallet_color");
        assert_eq!(bus.pending(), 0);
        assert!(bus.drain().is_empty());
    }

    #[test]
    fn unconnected_emissions_are_dropped() {
        let bus = SignalBus::new();
        bus.emit(NodeId(1), "pressed", vec![]);
        assert!(bus.drain().is_empty());
    }

    #[test]
    fn multiple_targets_and_args() {
        let bus = SignalBus::new();
        let src = NodeId(1);
        bus.connect(src, "answered", NodeId(2), "record_answer");
        bus.connect(src, "answered", NodeId(3), "update_score");
        bus.emit(src, "answered", vec![Variant::Int(2), Variant::Bool(true)]);
        let dispatches = bus.drain();
        assert_eq!(dispatches.len(), 2);
        assert!(dispatches
            .iter()
            .all(|d| d.args == vec![Variant::Int(2), Variant::Bool(true)]));
    }

    #[test]
    fn signals_are_filtered_by_name() {
        let bus = SignalBus::new();
        let (a, b) = (NodeId(1), NodeId(2));
        bus.connect(a, "pressed", b, "go");
        bus.emit(a, "released", vec![]);
        assert!(bus.drain().is_empty());
    }
}
