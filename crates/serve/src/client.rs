//! The connecting side: a TCP frame stream as a [`WindowStream`].
//!
//! [`ClientStream`] dials a serving endpoint, reads the manifest frame, and
//! then yields decoded windows through the same [`WindowStream`] contract
//! every local producer implements — so a [`GameSession`], a classroom
//! student, or `collect_stream` drives a remote scenario exactly as it
//! would a local pipeline or replay. The close frame ends the stream (`Ok(None)`)
//! and leaves the server's per-connection accounting readable via
//! [`ClientStream::close_summary`]. A window frame whose header claims
//! another shape than the manifest's node count is refused before it is
//! decoded.
//!
//! [`GameSession`]: tw_game::GameSession

use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use tw_ingest::frame::{
    parse_frame_payload, read_frame, read_raw_frame, CloseSummary, Frame, FrameError, FrameKind,
    StreamManifest,
};
use tw_ingest::record::check_shape;
use tw_ingest::{decode_window_into, DecodeScratch, StreamError, WindowReport, WindowStream};
use tw_matrix::CsrMatrix;
use tw_metrics::{MetricsRegistry, MetricsSnapshot};

/// A connected window-stream client.
#[derive(Debug)]
pub struct ClientStream {
    reader: BufReader<TcpStream>,
    manifest: StreamManifest,
    close: Option<CloseSummary>,
    seen: u64,
    /// Per-connection decode state: recycled CSR buffers plus the base
    /// window a v3 delta frame applies to. A full-frame stream never
    /// touches the base but still reuses buffers.
    scratch: DecodeScratch,
    /// Stats frames that arrived since the last [`take_stats`] drain, in
    /// wire order. Unbounded growth is capped by the server's cadence: one
    /// snapshot per `stats_every` windows, so draining once per window (or
    /// never caring) both stay O(1) amortised.
    ///
    /// [`take_stats`]: ClientStream::take_stats
    stats: Vec<MetricsSnapshot>,
}

impl ClientStream {
    /// Connect and read the manifest frame; ready to stream windows after.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, FrameError> {
        let socket = TcpStream::connect(addr).map_err(|e| FrameError::Io(e.kind()))?;
        let _ = socket.set_nodelay(true);
        let mut reader = BufReader::new(socket);
        match read_frame(&mut reader)? {
            Frame::Manifest(manifest) => Ok(ClientStream {
                reader,
                manifest,
                close: None,
                seen: 0,
                scratch: DecodeScratch::new(),
                stats: Vec::new(),
            }),
            _ => Err(FrameError::Corrupt("first frame must be the manifest")),
        }
    }

    /// The session header the server announced.
    pub fn manifest(&self) -> &StreamManifest {
        &self.manifest
    }

    /// The server's accounting for this connection, once the close frame
    /// has arrived (i.e. after `next_window` returned `Ok(None)`).
    pub fn close_summary(&self) -> Option<&CloseSummary> {
        self.close.as_ref()
    }

    /// Windows decoded so far.
    pub fn windows_seen(&self) -> u64 {
        self.seen
    }

    /// Drain the server stats snapshots received since the last call, in
    /// wire order. Empty unless the server was started with a stats cadence
    /// (`serve --stats-every`).
    pub fn take_stats(&mut self) -> Vec<MetricsSnapshot> {
        std::mem::take(&mut self.stats)
    }

    /// The most recent undrained server snapshot, if any. After the stream
    /// ends this is the server's final state for the session — every
    /// publish precedes the hub close that ends the stream, so
    /// `serve.windows_encoded` is final in it.
    pub fn last_stats(&self) -> Option<&MetricsSnapshot> {
        self.stats.last()
    }

    /// Count this connection's decode buffer-reuse hits into
    /// `codec.decode_reuse_hits` of the given registry.
    pub fn instrument(&mut self, registry: &MetricsRegistry) {
        self.scratch.instrument(registry);
    }

    /// Hand a consumed window's matrix buffers back for the next decode:
    /// a driving loop that is done with a report can keep the client's
    /// allocations flat instead of freeing and re-growing per window.
    pub fn recycle(&mut self, matrix: CsrMatrix<u64>) {
        self.scratch.recycle(matrix);
    }

    /// Decode buffer-reuse hits on this connection so far.
    pub fn decode_reuse_hits(&self) -> u64 {
        self.scratch.reuse_hits()
    }
}

impl WindowStream for ClientStream {
    fn next_window(&mut self) -> Result<Option<WindowReport>, StreamError> {
        if self.close.is_some() {
            return Ok(None);
        }
        loop {
            // Window payloads (full or delta) decode straight into the
            // connection scratch, so a steady stream reuses the same CSR
            // buffers instead of allocating per window; everything else
            // goes through the ordinary frame parser.
            let (kind, payload) = read_raw_frame(&mut self.reader)?;
            if matches!(kind, FrameKind::Window | FrameKind::DeltaWindow) {
                // A window of another shape than the manifest announced is
                // refused from its header, before the decoder sizes a row
                // index from the claim.
                check_shape(
                    &payload,
                    format_args!("#{}", self.seen),
                    self.manifest.node_count,
                )?;
                match decode_window_into(&payload, &mut self.scratch) {
                    Ok(report) => {
                        self.seen += 1;
                        return Ok(Some(report));
                    }
                    Err(e) => return Err(FrameError::from(e).into()),
                }
            }
            match parse_frame_payload(kind, &payload) {
                Ok(Frame::Stats(snapshot)) => {
                    // Interleaved telemetry, not part of the window stream:
                    // stash it for `take_stats` and keep reading.
                    self.stats.push(snapshot);
                }
                Ok(Frame::Close(summary)) => {
                    self.close = Some(summary);
                    return Ok(None);
                }
                Ok(Frame::Manifest(_)) => {
                    return Err(FrameError::Corrupt("manifest frame arrived mid-stream").into());
                }
                Ok(Frame::Window(_) | Frame::DeltaWindow(_)) => {
                    unreachable!("window kinds are decoded through the scratch above")
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn node_count(&self) -> usize {
        self.manifest.node_count
    }

    fn window_us(&self) -> u64 {
        self.manifest.window_us
    }

    fn remaining_windows(&self) -> Option<usize> {
        // Advisory: the server may stop early (max_windows, empty roster),
        // and lag drops can shrink what actually arrives.
        self.manifest
            .windows
            .map(|w| w.saturating_sub(self.seen) as usize)
    }
}
