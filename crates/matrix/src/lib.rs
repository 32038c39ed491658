//! # tw-matrix
//!
//! Traffic-matrix substrate for the Traffic Warehouse reproduction.
//!
//! The paper defines a network traffic matrix as an adjacency matrix
//! `A(i, j) = v` whose vertices are sources and destinations on a computer
//! network and whose value is the number of packets (or bytes) sent from
//! source `i` to destination `j`. The game itself manipulates tiny 6×6 and
//! 10×10 matrices, but the concepts it teaches come from the GraphBLAS-style
//! analytics the paper's introduction cites (anonymized real-time analysis of
//! terabit-scale traffic), so this crate provides both:
//!
//! * [`dense::TrafficMatrix`] — the small, labelled, dense matrices that
//!   learning modules display, with color planes for blue/grey/red space;
//! * [`coo::CooMatrix`] / [`csr::CsrMatrix`] — sparse formats for large
//!   matrices built from packet event streams;
//! * [`semiring`] / [`ops`] — GraphBLAS-lite operations (`mxm`, `mxv`,
//!   element-wise, reduce, transpose, extract) over configurable semirings;
//! * [`analytics`] — the network-analytics vocabulary the learning modules
//!   teach (degrees, supernodes, isolated links, link classification).

pub mod analytics;
pub mod color;
pub mod coo;
pub mod csr;
pub mod dense;
pub mod error;
pub mod labels;
pub mod ops;
pub mod semiring;
pub mod stream;

pub use analytics::{DegreeSummary, LinkClass, MatrixProfile};
pub use color::{CellColor, ColorMatrix};
pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use dense::TrafficMatrix;
pub use error::{MatrixError, Result};
pub use labels::{LabelSet, NodeClass};
pub use semiring::{MaxPlus, MinPlus, OrAnd, PlusTimes, Semiring};
pub use stream::{PacketEvent, StreamAggregator};
