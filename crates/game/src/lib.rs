//! # tw-game
//!
//! The Traffic Warehouse game itself, assembled on top of the substrate
//! crates: the stylized shipping warehouse where "each entry in the traffic
//! matrix is represented as a grid of shipping pallets on the warehouse floor
//! that can be loaded with boxes (packets) to be shipped".
//!
//! * [`warehouse`] — builds the scene tree for a learning module (floor,
//!   pallets, boxes, axis labels, data node, camera) and the corresponding
//!   render scene;
//! * [`controller`] — the native port of the paper's "Pallet and label
//!   controller" GDScript (ready-time label assignment, pallet color toggle);
//! * [`view`] — the 2-D/3-D view state driven by the spacebar and Q/E keys;
//! * [`level`] — one loaded module: scene + controller + view + question;
//! * [`training`] — the built-in training level (paper Fig. 5);
//! * [`live`] — live ingest windows coarsened onto the warehouse floor
//!   (the scene re-pallets per tumbling window);
//! * [`session`] — the game state machine walking a module bundle;
//! * [`telemetry`] — the event stream used for the future-work outcome
//!   measurement the paper calls for (bounded, drop-oldest).

pub mod controller;
pub mod level;
pub mod live;
pub mod session;
pub mod telemetry;
pub mod training;
pub mod view;
pub mod warehouse;

pub use controller::PalletLabelController;
pub use level::Level;
pub use live::{coarsen_window, LiveWarehouse};
pub use session::{GamePhase, GameSession};
pub use telemetry::{TelemetryEvent, TelemetryHub, DEFAULT_TELEMETRY_CAPACITY};
pub use training::{TrainingLevel, TrainingStep};
pub use view::{ViewMode, ViewState};
pub use warehouse::WarehouseScene;
