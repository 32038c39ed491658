//! # tw-serve
//!
//! The network serving tier: the one way a lesson reaches its students.
//!
//! The paper's classroom has every student watching the same live
//! traffic-matrix stream, each at their own machine. This crate serves one
//! stream over TCP to every connection: N boxes × many connections replaying
//! one archive or following one live scenario. The `classroom` command is a
//! `serve` session on a loopback port with one [`ClientStream`] per student.
//!
//! * [`server`] — [`serve`]: drive any
//!   [`WindowStream`](tw_ingest::WindowStream) once, frame each window
//!   once, and fan identical [`Arc<[u8]>`](std::sync::Arc) frames out to
//!   every connection through a [`BroadcastHub`], with per-peer writer
//!   threads and a polling acceptor, all joined before `serve` returns;
//! * [`broadcast`] — [`BroadcastHub`]: the fan-out hub over those frames —
//!   catch-up for late joiners from the ring's first key frame, lag-drop
//!   and per-subscriber roster accounting;
//! * [`client`] — [`ClientStream`]: dial a server, read the manifest, and
//!   be a `WindowStream` — every existing consumer (game session,
//!   `collect_stream`) works unchanged across the socket;
//! * [`chaos`] — [`ChaosStream`]: fault injection for proving the failure
//!   paths stay clean.
//!
//! The wire format is `tw-ingest`'s [`frame`](tw_ingest::frame) module:
//! length-prefixed, CRC-checked frames carrying the window codec.

pub mod broadcast;
pub mod chaos;
pub mod client;
pub mod server;

pub use broadcast::{
    BroadcastConfig, BroadcastHub, BroadcastSummary, HubHandle, HubSubscription, RosterTotals,
    SubscriberReport,
};
pub use chaos::ChaosStream;
pub use client::ClientStream;
pub use server::{loopback_listener, serve, ServeConfig, ServeError, ServeSummary};
