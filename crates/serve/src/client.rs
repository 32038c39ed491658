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
use std::sync::Arc;
use tw_ingest::codec::decode_stream_window_into;
use tw_ingest::frame::{
    parse_frame_payload, read_frame, read_raw_frame, CloseSummary, Frame, FrameError, FrameKind,
    StreamManifest,
};
use tw_ingest::record::window_error;
use tw_ingest::{CodecError, DecodeScratch, StreamError, WindowReport, WindowStream};
use tw_matrix::CsrMatrix;
use tw_metrics::{MetricsRegistry, MetricsSnapshot};

/// A connected window-stream client.
#[derive(Debug)]
pub struct ClientStream {
    reader: BufReader<TcpStream>,
    manifest: StreamManifest,
    close: Option<CloseSummary>,
    seen: u64,
    /// Per-connection decode state: the last windows decoded, one of them
    /// the base a delta frame applies to, whose storage the next window is
    /// built in once no report holds it.
    scratch: DecodeScratch,
    /// The receive buffer every frame's payload is read into, kept across
    /// frames so a steady stream neither allocates nor zero-fills one per
    /// window. [`read_raw_frame`] keeps at most the larger of the current
    /// frame's length and 1 MiB, so a large frame's memory is freed at the
    /// next smaller one.
    payload: Vec<u8>,
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
                payload: Vec::new(),
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

    /// Drop a consumed window's matrix: a plain drop. Dropping the report,
    /// or its matrix, is what lets a later decode build in its storage, so
    /// calling this is never needed.
    pub fn recycle(&mut self, matrix: Arc<CsrMatrix<u64>>) {
        drop(matrix);
    }

    /// Windows decoded on this connection so far in a kept window's
    /// storage instead of a new allocation.
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
            // Window payloads (full or delta) decode through the connection
            // scratch, so a steady stream builds each window in a dropped
            // one's storage instead of allocating; everything else goes
            // through the ordinary frame parser.
            let kind = read_raw_frame(&mut self.reader, &mut self.payload)?;
            if matches!(kind, FrameKind::Window | FrameKind::DeltaWindow) {
                // A window of another shape than the manifest announced is
                // refused from its header, before the decoder sizes a row
                // index from the claim.
                match decode_stream_window_into(
                    &self.payload,
                    self.manifest.node_count,
                    &mut self.scratch,
                ) {
                    Ok((report, _)) => {
                        self.seen += 1;
                        return Ok(Some(report));
                    }
                    Err(e @ CodecError::Misshapen { .. }) => {
                        return Err(window_error(e, format_args!("#{}", self.seen)).into())
                    }
                    Err(e) => return Err(FrameError::from(e).into()),
                }
            }
            match parse_frame_payload(kind, &self.payload) {
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
