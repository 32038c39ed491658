//! Wire frames: the v2 window codec on a byte stream.
//!
//! The [`codec`](crate::codec) module encodes one [`WindowReport`] into a
//! self-contained byte blob; this module puts those blobs **on a socket**.
//! A TCP stream gives no message boundaries and no integrity guarantee
//! beyond the transport checksum, so each message travels as a
//! length-prefixed frame:
//!
//! | field    | size | contents                                     |
//! |----------|------|----------------------------------------------|
//! | magic    | 4    | `TWFR`                                       |
//! | version  | 1    | [`FRAME_VERSION`] (tracks the window codec)  |
//! | kind     | 1    | 1 = manifest, 2 = window, 3 = close, 4 = stats, 5 = delta window |
//! | length   | 4    | payload byte count, little-endian u32        |
//! | payload  | n    | kind-specific bytes                          |
//! | checksum | 4    | CRC32 of the payload, little-endian u32      |
//!
//! Three frame kinds make a serving session: a [`StreamManifest`] opens it
//! (scenario identity and matrix dimension, so the client can build its
//! warehouse before the first window lands), [`Frame::Window`] frames carry
//! v2-codec-encoded windows, and a [`CloseSummary`] ends it with the
//! server's per-connection accounting (delivered/dropped/missed), so a
//! student knows whether the stream they saw was complete. A fourth,
//! optional kind interleaves with windows: [`Frame::Stats`] carries the
//! server's live [`MetricsSnapshot`] as `tw-json` bytes, so `connect
//! --stats` can watch ingest rates and fan-out lag without a second
//! connection or a side channel. The fifth kind carries a v3 delta window
//! ([`encode_window_delta`](crate::codec::encode_window_delta) bytes);
//! decoding one needs the previous window as its base, so
//! [`parse_frame_payload`] only validates the payload header and hands the
//! raw bytes to a stateful consumer holding a
//! [`DecodeScratch`](crate::codec::DecodeScratch). A server that sticks to
//! full windows (keyframe cadence 0) emits a byte-identical v2 stream —
//! older clients interoperate unless deltas are switched on.
//!
//! The decoder trusts nothing: a declared length past [`MAX_FRAME_LEN`] is
//! rejected *before* any allocation (the same discipline as the window
//! codec's [`MAX_DIMENSION`](crate::codec::MAX_DIMENSION) guard), version 1
//! frames are refused outright (the frame format was born at window codec
//! v2 — a v1 byte means a foreign or corrupt peer), and every failure is a
//! typed [`FrameError`], never a panic.

use crate::codec::{self, decode_window, encode_window, CodecError};
use crate::window::WindowReport;
use std::fmt;
use std::io::{Read, Write};
use tw_archive::crc32;
use tw_metrics::MetricsSnapshot;

/// The four magic bytes opening every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"TWFR";

/// The frame format version. Starts at 2 in lockstep with
/// [`WINDOW_CODEC_VERSION`](crate::codec::WINDOW_CODEC_VERSION): a version-1
/// frame never existed, so the decoder rejects it as foreign.
pub const FRAME_VERSION: u8 = 2;

/// Upper bound on a declared payload length (64 MiB). A hostile or corrupt
/// length field is refused before any buffer is sized from it.
pub const MAX_FRAME_LEN: usize = 1 << 26;

/// Upper bound on a manifest's scenario-name length.
pub const MAX_SCENARIO_NAME: usize = 1 << 10;

/// Frame header size: magic + version + kind + length.
const HEADER_LEN: usize = 10;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Session header: one [`StreamManifest`], first frame on the wire.
    Manifest,
    /// One v2-codec-encoded window.
    Window,
    /// Session trailer: one [`CloseSummary`], last frame on the wire.
    Close,
    /// A live [`MetricsSnapshot`], interleaved with windows on request.
    Stats,
    /// One v3-codec delta window, patched against the previous window.
    DeltaWindow,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Manifest => 1,
            FrameKind::Window => 2,
            FrameKind::Close => 3,
            FrameKind::Stats => 4,
            FrameKind::DeltaWindow => 5,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(FrameKind::Manifest),
            2 => Some(FrameKind::Window),
            3 => Some(FrameKind::Close),
            4 => Some(FrameKind::Stats),
            5 => Some(FrameKind::DeltaWindow),
            _ => None,
        }
    }
}

/// The session header a server sends before any window: everything a client
/// needs to size its warehouse and pace its expectations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamManifest {
    /// Human-readable scenario name (e.g. `ddos`, `replay:capture.zip`).
    pub scenario: String,
    /// The seed the scenario was generated with (0 for replays).
    pub seed: u64,
    /// Matrix dimension of every window in the session.
    pub node_count: usize,
    /// Tumbling-window duration in simulated microseconds.
    pub window_us: u64,
    /// Total windows the server intends to send, when known in advance.
    pub windows: Option<u64>,
}

/// The session trailer: the server's accounting for this one connection,
/// echoed to the client so both ends agree on what was (and wasn't) seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CloseSummary {
    /// Windows the server broadcast in total.
    pub windows: u64,
    /// Windows enqueued to this connection.
    pub delivered: u64,
    /// Windows dropped for this connection (its channel was full).
    pub dropped: u64,
    /// Windows this connection missed by joining after they left the ring.
    pub missed: u64,
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Session header.
    Manifest(StreamManifest),
    /// One window.
    Window(WindowReport),
    /// Session trailer.
    Close(CloseSummary),
    /// A live metrics snapshot from the server.
    Stats(MetricsSnapshot),
    /// One delta window's raw v3 codec bytes, header-validated only.
    ///
    /// A delta is meaningless without its base window, so the frame layer
    /// does not decode it; feed the bytes to
    /// [`decode_window_into`](crate::codec::decode_window_into) with the
    /// connection's [`DecodeScratch`](crate::codec::DecodeScratch).
    DeltaWindow(Vec<u8>),
}

/// Everything that can go wrong pulling a frame off the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes were not [`FRAME_MAGIC`].
    BadMagic,
    /// The version byte names a format this decoder does not speak
    /// (including the never-issued version 1).
    UnsupportedVersion(u8),
    /// The kind byte names no known frame kind.
    UnknownKind(u8),
    /// The stream ended mid-frame; names the field that was cut short.
    Truncated(&'static str),
    /// The declared payload length exceeds [`MAX_FRAME_LEN`].
    Oversized { declared: u64 },
    /// The payload checksum did not match.
    CrcMismatch { expected: u32, actual: u32 },
    /// The window payload failed to decode.
    Window(CodecError),
    /// A manifest or close payload was malformed; names the field.
    Corrupt(&'static str),
    /// The underlying transport failed.
    Io(std::io::ErrorKind),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "frame: bad magic (expected TWFR)"),
            FrameError::UnsupportedVersion(v) => {
                write!(f, "frame: unsupported version {v} (this decoder speaks {FRAME_VERSION})")
            }
            FrameError::UnknownKind(k) => write!(f, "frame: unknown kind byte {k}"),
            FrameError::Truncated(what) => write!(f, "frame: truncated at {what}"),
            FrameError::Oversized { declared } => write!(
                f,
                "frame: declared payload of {declared} bytes exceeds the {MAX_FRAME_LEN}-byte limit"
            ),
            FrameError::CrcMismatch { expected, actual } => write!(
                f,
                "frame: payload checksum mismatch (header says {expected:#010x}, payload is {actual:#010x})"
            ),
            FrameError::Window(e) => write!(f, "frame: window payload: {e}"),
            FrameError::Corrupt(what) => write!(f, "frame: corrupt payload at {what}"),
            FrameError::Io(kind) => write!(f, "frame: transport error: {kind:?}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<CodecError> for FrameError {
    fn from(e: CodecError) -> Self {
        FrameError::Window(e)
    }
}

/// Map a `Reader` failure inside a manifest/close payload: a short payload
/// is a truncation, an overflowing varint is corruption.
fn payload_err(e: CodecError) -> FrameError {
    match e {
        CodecError::Truncated(what) => FrameError::Truncated(what),
        CodecError::VarintOverflow(what) => FrameError::Corrupt(what),
        _ => FrameError::Corrupt("frame payload"),
    }
}

/// Wrap a payload in a complete frame: header, payload, CRC trailer.
///
/// Panics if the payload exceeds [`MAX_FRAME_LEN`] — encoders control their
/// payload sizes; only *decoders* face untrusted lengths.
pub fn encode_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_FRAME_LEN,
        "frame payload of {} bytes exceeds MAX_FRAME_LEN",
        payload.len()
    );
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + 4);
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(FRAME_VERSION);
    out.push(kind.to_byte());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// Frame one window that is *already* v2-codec encoded.
///
/// This is the serving tier's hot path: the server encodes each window once
/// and fans the identical frame bytes out to every connection.
pub fn encode_window_frame(encoded_window: &[u8]) -> Vec<u8> {
    encode_frame(FrameKind::Window, encoded_window)
}

/// Encode and frame one window (convenience for tests and single senders).
pub fn encode_report_frame(report: &WindowReport) -> Vec<u8> {
    encode_window_frame(&encode_window(report))
}

/// Frame one window that is *already* v3-delta encoded.
///
/// Like [`encode_window_frame`] this is fan-out-friendly: the server
/// diffs each window against its predecessor once and every connection
/// gets the identical frame bytes.
pub fn encode_delta_frame(encoded_delta: &[u8]) -> Vec<u8> {
    encode_frame(FrameKind::DeltaWindow, encoded_delta)
}

/// Split one complete in-memory frame into its kind and payload slice,
/// CRC-verified but not decoded — no allocation, no copy.
///
/// This is how the serving tier inspects its own catch-up ring: entries
/// are fully-encoded frames, and a late join needs to know which are key
/// frames (and patch together the rest) without re-reading a stream.
pub fn split_frame(bytes: &[u8]) -> Result<(FrameKind, &[u8]), FrameError> {
    if bytes.len() < HEADER_LEN {
        return Err(FrameError::Truncated("frame header"));
    }
    if bytes[..4] != FRAME_MAGIC {
        return Err(FrameError::BadMagic);
    }
    if bytes[4] != FRAME_VERSION {
        return Err(FrameError::UnsupportedVersion(bytes[4]));
    }
    let kind = FrameKind::from_byte(bytes[5]).ok_or(FrameError::UnknownKind(bytes[5]))?;
    let declared = u32::from_le_bytes([bytes[6], bytes[7], bytes[8], bytes[9]]) as usize;
    if declared > MAX_FRAME_LEN {
        return Err(FrameError::Oversized {
            declared: declared as u64,
        });
    }
    if bytes.len() != HEADER_LEN + declared + 4 {
        return Err(FrameError::Truncated("frame payload"));
    }
    let payload = &bytes[HEADER_LEN..HEADER_LEN + declared];
    let expected = u32::from_le_bytes([
        bytes[HEADER_LEN + declared],
        bytes[HEADER_LEN + declared + 1],
        bytes[HEADER_LEN + declared + 2],
        bytes[HEADER_LEN + declared + 3],
    ]);
    let actual = crc32(payload);
    if expected != actual {
        return Err(FrameError::CrcMismatch { expected, actual });
    }
    Ok((kind, payload))
}

/// Encode a session-header frame.
pub fn encode_manifest_frame(manifest: &StreamManifest) -> Vec<u8> {
    assert!(
        manifest.scenario.len() <= MAX_SCENARIO_NAME,
        "scenario name of {} bytes exceeds MAX_SCENARIO_NAME",
        manifest.scenario.len()
    );
    let mut payload = Vec::with_capacity(manifest.scenario.len() + 24);
    codec::push_varint(&mut payload, manifest.scenario.len() as u64);
    payload.extend_from_slice(manifest.scenario.as_bytes());
    codec::push_varint(&mut payload, manifest.seed);
    codec::push_varint(&mut payload, manifest.node_count as u64);
    codec::push_varint(&mut payload, manifest.window_us);
    match manifest.windows {
        // Tagged option: 0 = unknown, 1 + n = known count, so a live
        // pipeline's open-ended session is representable.
        None => payload.push(0),
        Some(windows) => {
            payload.push(1);
            codec::push_varint(&mut payload, windows);
        }
    }
    encode_frame(FrameKind::Manifest, &payload)
}

/// Encode a metrics-snapshot frame. The payload is the snapshot's compact
/// `tw-json` rendering: self-describing, schema-stable, and decodable by
/// non-Rust peers without knowing the histogram bucket layout.
pub fn encode_stats_frame(snapshot: &MetricsSnapshot) -> Vec<u8> {
    encode_frame(
        FrameKind::Stats,
        tw_json::to_string(&snapshot.to_json()).as_bytes(),
    )
}

/// Encode a session-trailer frame.
pub fn encode_close_frame(summary: &CloseSummary) -> Vec<u8> {
    let mut payload = Vec::with_capacity(16);
    codec::push_varint(&mut payload, summary.windows);
    codec::push_varint(&mut payload, summary.delivered);
    codec::push_varint(&mut payload, summary.dropped);
    codec::push_varint(&mut payload, summary.missed);
    encode_frame(FrameKind::Close, &payload)
}

fn decode_manifest_payload(payload: &[u8]) -> Result<StreamManifest, FrameError> {
    let mut r = codec::Reader {
        data: payload,
        pos: 0,
    };
    let name_len = r
        .usize_varint("scenario name length")
        .map_err(payload_err)?;
    if name_len > MAX_SCENARIO_NAME {
        return Err(FrameError::Corrupt("scenario name length"));
    }
    if payload.len() - r.pos < name_len {
        return Err(FrameError::Truncated("scenario name"));
    }
    let scenario = std::str::from_utf8(&payload[r.pos..r.pos + name_len])
        .map_err(|_| FrameError::Corrupt("scenario name"))?
        .to_string();
    r.pos += name_len;
    let seed = r.varint("manifest seed").map_err(payload_err)?;
    let node_count = r.usize_varint("manifest node count").map_err(payload_err)?;
    let window_us = r.varint("manifest window duration").map_err(payload_err)?;
    let windows = match r.byte("manifest window-count tag").map_err(payload_err)? {
        0 => None,
        1 => Some(r.varint("manifest window count").map_err(payload_err)?),
        _ => return Err(FrameError::Corrupt("manifest window-count tag")),
    };
    if r.pos != payload.len() {
        return Err(FrameError::Corrupt("manifest trailing bytes"));
    }
    Ok(StreamManifest {
        scenario,
        seed,
        node_count,
        window_us,
        windows,
    })
}

fn decode_stats_payload(payload: &[u8]) -> Result<MetricsSnapshot, FrameError> {
    let text =
        std::str::from_utf8(payload).map_err(|_| FrameError::Corrupt("stats payload utf-8"))?;
    let value = tw_json::parse(text).map_err(|_| FrameError::Corrupt("stats payload json"))?;
    MetricsSnapshot::from_json(&value).map_err(|_| FrameError::Corrupt("stats payload"))
}

fn decode_close_payload(payload: &[u8]) -> Result<CloseSummary, FrameError> {
    let mut r = codec::Reader {
        data: payload,
        pos: 0,
    };
    let summary = CloseSummary {
        windows: r.varint("close window count").map_err(payload_err)?,
        delivered: r.varint("close delivered count").map_err(payload_err)?,
        dropped: r.varint("close dropped count").map_err(payload_err)?,
        missed: r.varint("close missed count").map_err(payload_err)?,
    };
    if r.pos != payload.len() {
        return Err(FrameError::Corrupt("close trailing bytes"));
    }
    Ok(summary)
}

/// Check a delta-window payload's codec header without decoding the body
/// (the body needs a base window only a stateful consumer holds).
fn validate_delta_payload(payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() < 5 {
        return Err(FrameError::Truncated("delta window header"));
    }
    if payload[..4] != codec::WINDOW_MAGIC {
        return Err(FrameError::Window(CodecError::BadMagic));
    }
    if payload[4] != codec::DELTA_WINDOW_VERSION {
        return Err(FrameError::Window(CodecError::UnsupportedVersion(
            payload[4],
        )));
    }
    Ok(())
}

/// Decode a raw frame's payload by kind.
pub fn parse_frame_payload(kind: FrameKind, payload: &[u8]) -> Result<Frame, FrameError> {
    match kind {
        FrameKind::Manifest => Ok(Frame::Manifest(decode_manifest_payload(payload)?)),
        FrameKind::Window => Ok(Frame::Window(decode_window(payload)?)),
        FrameKind::Close => Ok(Frame::Close(decode_close_payload(payload)?)),
        FrameKind::Stats => Ok(Frame::Stats(decode_stats_payload(payload)?)),
        FrameKind::DeltaWindow => {
            validate_delta_payload(payload)?;
            Ok(Frame::DeltaWindow(payload.to_vec()))
        }
    }
}

fn read_exact(
    reader: &mut impl Read,
    buf: &mut [u8],
    what: &'static str,
) -> Result<(), FrameError> {
    reader.read_exact(buf).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => FrameError::Truncated(what),
        kind => FrameError::Io(kind),
    })
}

/// Pull one CRC-verified frame off the stream without decoding its payload.
///
/// Benchmark clients use this to count windows at wire speed (integrity
/// checked, decode skipped); [`read_frame`] layers payload decoding on top.
pub fn read_raw_frame(reader: &mut impl Read) -> Result<(FrameKind, Vec<u8>), FrameError> {
    let mut header = [0u8; HEADER_LEN];
    read_exact(reader, &mut header, "frame header")?;
    if header[..4] != FRAME_MAGIC {
        return Err(FrameError::BadMagic);
    }
    if header[4] != FRAME_VERSION {
        return Err(FrameError::UnsupportedVersion(header[4]));
    }
    let kind = FrameKind::from_byte(header[5]).ok_or(FrameError::UnknownKind(header[5]))?;
    let declared = u32::from_le_bytes([header[6], header[7], header[8], header[9]]) as usize;
    if declared > MAX_FRAME_LEN {
        // Refuse before sizing any buffer from the untrusted length.
        return Err(FrameError::Oversized {
            declared: declared as u64,
        });
    }
    let mut payload = vec![0u8; declared];
    read_exact(reader, &mut payload, "frame payload")?;
    let mut trailer = [0u8; 4];
    read_exact(reader, &mut trailer, "frame checksum")?;
    let expected = u32::from_le_bytes(trailer);
    let actual = crc32(&payload);
    if expected != actual {
        return Err(FrameError::CrcMismatch { expected, actual });
    }
    Ok((kind, payload))
}

/// Pull one frame off the stream and decode its payload.
pub fn read_frame(reader: &mut impl Read) -> Result<Frame, FrameError> {
    let (kind, payload) = read_raw_frame(reader)?;
    parse_frame_payload(kind, &payload)
}

/// Decode the first frame in a byte slice; returns the frame and the number
/// of bytes it consumed.
pub fn decode_frame(data: &[u8]) -> Result<(Frame, usize), FrameError> {
    let mut cursor = data;
    let frame = read_frame(&mut cursor)?;
    Ok((frame, data.len() - cursor.len()))
}

/// Write pre-encoded frame bytes to the transport.
pub fn write_frame(writer: &mut impl Write, frame_bytes: &[u8]) -> Result<(), FrameError> {
    writer
        .write_all(frame_bytes)
        .map_err(|e| FrameError::Io(e.kind()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, PipelineConfig};
    use crate::scenario::Scenario;

    fn sample_report() -> WindowReport {
        let config = PipelineConfig {
            window_us: 50_000,
            batch_size: 4_096,
            reorder_horizon_us: 0,
            ..Default::default()
        };
        Pipeline::new(Scenario::Ddos.source(64, 9), config)
            .next_window()
            .expect("one window")
    }

    fn sample_manifest() -> StreamManifest {
        StreamManifest {
            scenario: "ddos".to_string(),
            seed: 42,
            node_count: 64,
            window_us: 50_000,
            windows: Some(7),
        }
    }

    #[test]
    fn window_frames_round_trip() {
        let report = sample_report();
        let bytes = encode_report_frame(&report);
        let (frame, consumed) = decode_frame(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        match frame {
            Frame::Window(decoded) => {
                assert_eq!(decoded.matrix, report.matrix);
                assert_eq!(decoded.stats.window_index, report.stats.window_index);
                assert_eq!(decoded.stats.events, report.stats.events);
            }
            other => panic!("expected a window frame, got {other:?}"),
        }
    }

    #[test]
    fn manifest_frames_round_trip() {
        for windows in [Some(7), None] {
            let manifest = StreamManifest {
                windows,
                ..sample_manifest()
            };
            let bytes = encode_manifest_frame(&manifest);
            let (frame, consumed) = decode_frame(&bytes).unwrap();
            assert_eq!(consumed, bytes.len());
            assert_eq!(frame, Frame::Manifest(manifest));
        }
    }

    #[test]
    fn close_frames_round_trip() {
        let summary = CloseSummary {
            windows: 12,
            delivered: 9,
            dropped: 2,
            missed: 1,
        };
        let bytes = encode_close_frame(&summary);
        let (frame, consumed) = decode_frame(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(frame, Frame::Close(summary));
    }

    #[test]
    fn stats_frames_round_trip() {
        let registry = tw_metrics::MetricsRegistry::new();
        registry.counter("serve.windows_encoded").add(42);
        registry.gauge("broadcast.subscribers").set(3);
        registry.histogram("serve.encode_ns").observe(12_345);
        let snapshot = registry.snapshot();
        let bytes = encode_stats_frame(&snapshot);
        let (frame, consumed) = decode_frame(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(frame, Frame::Stats(snapshot));
    }

    #[test]
    fn corrupt_stats_payloads_are_typed_not_panics() {
        // CRC-valid frames whose payload is not a snapshot: invalid UTF-8,
        // invalid JSON, and valid JSON of the wrong shape.
        for (payload, what) in [
            (&[0xFFu8, 0xFE][..], "stats payload utf-8"),
            (b"{not json".as_slice(), "stats payload json"),
            (b"[1,2,3]".as_slice(), "stats payload"),
        ] {
            let bytes = encode_frame(FrameKind::Stats, payload);
            assert_eq!(decode_frame(&bytes), Err(FrameError::Corrupt(what)));
        }
    }

    #[test]
    fn frames_concatenate_into_a_session_stream() {
        let report = sample_report();
        let mut wire = encode_manifest_frame(&sample_manifest());
        wire.extend_from_slice(&encode_report_frame(&report));
        wire.extend_from_slice(&encode_close_frame(&CloseSummary::default()));
        let mut cursor: &[u8] = &wire;
        assert!(matches!(read_frame(&mut cursor), Ok(Frame::Manifest(_))));
        assert!(matches!(read_frame(&mut cursor), Ok(Frame::Window(_))));
        assert!(matches!(read_frame(&mut cursor), Ok(Frame::Close(_))));
        assert!(cursor.is_empty());
        // The next read reports clean truncation, not garbage.
        assert_eq!(
            read_frame(&mut cursor),
            Err(FrameError::Truncated("frame header"))
        );
    }

    #[test]
    fn delta_frames_round_trip_through_a_scratch() {
        use crate::codec::{decode_window_into, encode_window_delta, DecodeScratch};
        let prev = sample_report();
        let mut cur = sample_report();
        cur.stats.window_index = prev.stats.window_index + 1;
        let delta_bytes = encode_window_delta(&prev, &cur);
        let frame_bytes = encode_delta_frame(&delta_bytes);
        let (frame, consumed) = decode_frame(&frame_bytes).unwrap();
        assert_eq!(consumed, frame_bytes.len());
        let Frame::DeltaWindow(payload) = frame else {
            panic!("expected a delta window frame, got {frame:?}");
        };
        assert_eq!(payload, delta_bytes);
        let mut scratch = DecodeScratch::new();
        decode_window_into(&encode_window(&prev), &mut scratch).unwrap();
        let decoded = decode_window_into(&payload, &mut scratch).unwrap();
        assert_eq!(decoded.matrix, cur.matrix);
        assert_eq!(decoded.stats, cur.stats);
    }

    #[test]
    fn delta_frame_payload_headers_are_validated() {
        // A delta frame whose payload is not a v3 window is refused at the
        // frame layer, before any stateful decode is attempted.
        for (payload, want) in [
            (
                b"xx".as_slice(),
                FrameError::Truncated("delta window header"),
            ),
            (
                b"nope!".as_slice(),
                FrameError::Window(CodecError::BadMagic),
            ),
            (
                b"TWWR\x02rest".as_slice(),
                FrameError::Window(CodecError::UnsupportedVersion(2)),
            ),
        ] {
            let bytes = encode_frame(FrameKind::DeltaWindow, payload);
            assert_eq!(decode_frame(&bytes), Err(want));
        }
    }

    #[test]
    fn split_frame_exposes_ring_entries_without_copying() {
        let report = sample_report();
        let bytes = encode_report_frame(&report);
        let (kind, payload) = split_frame(&bytes).unwrap();
        assert_eq!(kind, FrameKind::Window);
        assert_eq!(decode_window(payload).unwrap().matrix, report.matrix);

        // Every malformation is a typed error, never a panic.
        assert_eq!(
            split_frame(&bytes[..bytes.len() - 1]),
            Err(FrameError::Truncated("frame payload"))
        );
        assert_eq!(
            split_frame(&bytes[..4]),
            Err(FrameError::Truncated("frame header"))
        );
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert_eq!(split_frame(&wrong), Err(FrameError::BadMagic));
        let mut wrong = bytes.clone();
        wrong[4] = 1;
        assert_eq!(split_frame(&wrong), Err(FrameError::UnsupportedVersion(1)));
        let mut wrong = bytes.clone();
        wrong[5] = 9;
        assert_eq!(split_frame(&wrong), Err(FrameError::UnknownKind(9)));
        let mut wrong = bytes.clone();
        wrong[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            split_frame(&wrong),
            Err(FrameError::Oversized {
                declared: u64::from(u32::MAX)
            })
        );
        let mut wrong = bytes.clone();
        let mid = HEADER_LEN + (bytes.len() - HEADER_LEN - 4) / 2;
        wrong[mid] ^= 0x40;
        assert!(matches!(
            split_frame(&wrong),
            Err(FrameError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode_close_frame(&CloseSummary::default());
        bytes[0] = b'X';
        assert_eq!(decode_frame(&bytes), Err(FrameError::BadMagic));
    }

    #[test]
    fn version_one_frames_are_rejected() {
        // The frame format was born at v2; a v1 byte is a foreign peer.
        let mut bytes = encode_close_frame(&CloseSummary::default());
        bytes[4] = 1;
        assert_eq!(decode_frame(&bytes), Err(FrameError::UnsupportedVersion(1)));
        bytes[4] = FRAME_VERSION + 1;
        assert_eq!(
            decode_frame(&bytes),
            Err(FrameError::UnsupportedVersion(FRAME_VERSION + 1))
        );
    }

    #[test]
    fn unknown_kinds_are_rejected() {
        let mut bytes = encode_close_frame(&CloseSummary::default());
        bytes[5] = 9;
        assert_eq!(decode_frame(&bytes), Err(FrameError::UnknownKind(9)));
    }

    #[test]
    fn every_truncation_point_reports_truncated() {
        let bytes = encode_report_frame(&sample_report());
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                Err(FrameError::Truncated(_)) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_declared_lengths_are_refused_before_allocation() {
        let mut bytes = encode_close_frame(&CloseSummary::default());
        // Declare a u32::MAX-byte payload; the guard must fire on the header
        // alone (the 12 trailing bytes could never satisfy it anyway).
        bytes[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_frame(&bytes),
            Err(FrameError::Oversized {
                declared: u64::from(u32::MAX)
            })
        );
    }

    #[test]
    fn corrupt_payload_bytes_fail_the_checksum() {
        let report = sample_report();
        let mut bytes = encode_report_frame(&report);
        let payload_mid = HEADER_LEN + (bytes.len() - HEADER_LEN - 4) / 2;
        bytes[payload_mid] ^= 0x40;
        assert!(matches!(
            decode_frame(&bytes),
            Err(FrameError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn window_payload_decode_errors_are_typed() {
        // A CRC-valid frame whose payload is not a valid window: the window
        // codec's own typed error surfaces through the frame layer.
        let bytes = encode_frame(FrameKind::Window, b"not a window");
        assert!(matches!(
            decode_frame(&bytes),
            Err(FrameError::Window(CodecError::BadMagic))
        ));
    }

    #[test]
    fn manifest_name_length_is_guarded() {
        // A CRC-valid manifest declaring a huge name must not allocate it.
        let mut payload = Vec::new();
        codec::push_varint(&mut payload, u64::MAX);
        let bytes = encode_frame(FrameKind::Manifest, &payload);
        assert_eq!(
            decode_frame(&bytes),
            Err(FrameError::Corrupt("scenario name length"))
        );
    }

    #[test]
    fn manifest_rejects_non_utf8_names_and_trailing_bytes() {
        let mut payload = Vec::new();
        codec::push_varint(&mut payload, 2);
        payload.extend_from_slice(&[0xFF, 0xFE]);
        codec::push_varint(&mut payload, 1); // seed
        codec::push_varint(&mut payload, 8); // node count
        codec::push_varint(&mut payload, 1_000); // window_us
        payload.push(0); // no window count
        let bytes = encode_frame(FrameKind::Manifest, &payload);
        assert_eq!(
            decode_frame(&bytes),
            Err(FrameError::Corrupt("scenario name"))
        );

        let mut payload = encode_manifest_frame(&sample_manifest())[HEADER_LEN..].to_vec();
        payload.truncate(payload.len() - 4); // strip CRC, keep payload
        payload.push(0xAB);
        let bytes = encode_frame(FrameKind::Manifest, &payload);
        assert_eq!(
            decode_frame(&bytes),
            Err(FrameError::Corrupt("manifest trailing bytes"))
        );
    }

    #[test]
    fn display_messages_name_the_failure() {
        let cases: Vec<(FrameError, &str)> = vec![
            (FrameError::BadMagic, "magic"),
            (FrameError::UnsupportedVersion(1), "version 1"),
            (FrameError::UnknownKind(9), "kind byte 9"),
            (FrameError::Truncated("frame header"), "frame header"),
            (FrameError::Oversized { declared: 99 }, "99 bytes"),
            (
                FrameError::CrcMismatch {
                    expected: 1,
                    actual: 2,
                },
                "checksum mismatch",
            ),
            (FrameError::Window(CodecError::BadMagic), "window payload"),
            (FrameError::Corrupt("scenario name"), "scenario name"),
            (
                FrameError::Io(std::io::ErrorKind::ConnectionReset),
                "transport",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should mention {needle:?}");
        }
    }
}
