//! Property tests for the serving tier's over-the-wire equivalence
//! guarantee: for ANY scenario and client count, serving on an
//! ephemeral loopback port delivers every `connect` client — including one
//! joining mid-broadcast — a window suffix that is cell-for-cell identical
//! to a serial `Pipeline::run` of the same seeded scenario. The hub-level
//! mirror of this property lives in `tw-game`'s `proptest_broadcast.rs`;
//! here the windows additionally survive encode → frame → TCP → decode.
//!
//! A replayed recording adds one more: serving the recorded frames as they
//! are puts the same bytes on every client's wire as encoding each window
//! afresh, for every pairing of recording and serve cadence.

use proptest::prelude::*;
use std::io::Cursor;
use std::time::{Duration, Instant};
use tw_archive::{ZipReader, ZipWriter};
use tw_game::telemetry::{TelemetryEvent, TelemetryHub};
use tw_ingest::frame::{read_raw_frame, FrameKind};
use tw_ingest::{
    collect_stream, decode_window, decode_window_into, ArchiveRecorder, DecodeScratch, Pipeline,
    PipelineConfig, RecordingMeta, ReplaySource, Scenario, StreamError, WindowReport, WindowStream,
    FULL_WINDOW_VERSION,
};
use tw_metrics::MetricsRegistry;
use tw_serve::{loopback_listener, serve, ClientStream, ServeConfig};

#[path = "../../ingest/tests/support/legacy_codec.rs"]
mod legacy_codec;

fn pipeline(scenario: Scenario, nodes: u32, seed: u64) -> Pipeline {
    let config = PipelineConfig {
        window_us: 50_000,
        batch_size: 2_048,
        reorder_horizon_us: 0,
        ..Default::default()
    };
    Pipeline::new(scenario.source(nodes, seed), config)
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (0usize..Scenario::all().len()).prop_map(|i| Scenario::all()[i])
}

/// The windows a client received must equal the serial reference from
/// `start` on, cell-for-cell (`elapsed` is wall-clock and excluded;
/// everything else survives the codec byte-exactly).
fn assert_suffix(
    reference: &[WindowReport],
    received: &[WindowReport],
    start: usize,
) -> Result<(), TestCaseError> {
    let expected = &reference[start.min(reference.len())..];
    prop_assert_eq!(
        received.len(),
        expected.len(),
        "client from window {} got the wrong window count",
        start
    );
    for (reference, received) in expected.iter().zip(received) {
        prop_assert_eq!(&reference.matrix, &received.matrix);
        prop_assert_eq!(reference.stats.window_index, received.stats.window_index);
        prop_assert_eq!(reference.stats.events, received.stats.events);
        prop_assert_eq!(reference.stats.packets, received.stats.packets);
        prop_assert_eq!(reference.stats.nnz, received.stats.nnz);
        prop_assert_eq!(reference.stats.dropped_late, received.stats.dropped_late);
    }
    Ok(())
}

proptest! {
    // TCP setup/teardown per case is comparatively expensive; fewer cases
    // than the hub-level mirror, same property space.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn every_remote_client_observes_the_serial_stream(
        scenario in arb_scenario(),
        nodes in 40u32..120,
        seed in any::<u64>(),
        windows in 2usize..5,
        clients in 2usize..6,
    ) {
        // Serial reference: one pull-based run, no sockets involved.
        let reference = pipeline(scenario, nodes, seed).run(windows);
        prop_assert_eq!(reference.len(), windows, "scenario sources are unbounded");

        let listener = loopback_listener().unwrap();
        let addr = listener.local_addr().unwrap();
        // The roster gate holds the first window until every client has
        // joined, and capacities are sized so nothing can drop:
        // equivalence, not lag, is under test.
        let config = ServeConfig {
            scenario: format!("{scenario:?}"),
            seed,
            channel_capacity: windows + 1,
            ring_capacity: windows + 1,
            wait_for: clients,
            max_windows: windows,
            ..ServeConfig::default()
        };

        let (summary, received) = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..clients)
                .map(|_| {
                    scope.spawn(move || {
                        let mut client = ClientStream::connect(addr)?;
                        let windows = collect_stream(&mut client, usize::MAX)
                            .map_err(|e| match e {
                                tw_ingest::StreamError::Frame(f) => f,
                                other => panic!("non-frame stream error: {other}"),
                            })?;
                        Ok::<_, tw_ingest::FrameError>((windows, *client.close_summary().unwrap()))
                    })
                })
                .collect();
            let mut stream = pipeline(scenario, nodes, seed);
            let summary = serve(listener, &mut stream, &config, None).unwrap();
            let received: Vec<_> = readers
                .into_iter()
                .map(|r| r.join().unwrap().expect("client stream failed"))
                .collect();
            (summary, received)
        });

        prop_assert_eq!(summary.windows(), windows as u64);
        prop_assert_eq!(summary.connections(), clients);
        prop_assert_eq!(summary.broadcast.conservation_error(), None);
        for (client_windows, close) in &received {
            assert_suffix(&reference, client_windows, 0)?;
            prop_assert_eq!(close.windows, windows as u64);
            prop_assert_eq!(close.delivered, windows as u64);
            prop_assert_eq!(close.dropped, 0);
            prop_assert_eq!(close.missed, 0);
        }
    }

    /// A client that joins mid-broadcast still sees a contiguous,
    /// cell-identical suffix, with the head it could not receive accounted
    /// (missed + delivered covers every window).
    #[test]
    fn late_remote_joiners_observe_a_serial_suffix(
        scenario in arb_scenario(),
        nodes in 40u32..100,
        seed in any::<u64>(),
        windows in 3usize..6,
        join_delay_ms in 5u64..40,
    ) {
        let reference = pipeline(scenario, nodes, seed).run(windows);
        let listener = loopback_listener().unwrap();
        let addr = listener.local_addr().unwrap();
        let config = ServeConfig {
            scenario: format!("{scenario:?}"),
            seed,
            channel_capacity: windows + 1,
            ring_capacity: windows + 1,
            wait_for: 1,
            max_windows: windows,
            ..ServeConfig::default()
        };

        let outcome = std::thread::scope(|scope| {
            let on_time = scope.spawn(move || {
                let mut client = ClientStream::connect(addr).unwrap();
                collect_stream(&mut client, usize::MAX).unwrap()
            });
            let late = scope.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(join_delay_ms));
                // The server may already be gone; that is a legal outcome
                // for a very late join, not a failure.
                let mut client = match ClientStream::connect(addr) {
                    Ok(client) => client,
                    Err(_) => return None,
                };
                let windows = collect_stream(&mut client, usize::MAX).unwrap();
                Some((windows, *client.close_summary().unwrap()))
            });
            // Pace the stream (50 ms windows at 10x = 5 ms cadence) so the
            // delayed join lands mid-broadcast at least sometimes.
            let mut stream = tw_ingest::Paced::new(pipeline(scenario, nodes, seed), 10);
            let summary = serve(listener, &mut stream, &config, None).unwrap();
            (summary, on_time.join().unwrap(), late.join().unwrap())
        });
        let (summary, on_time_windows, late_outcome) = outcome;

        prop_assert_eq!(summary.windows(), windows as u64);
        assert_suffix(&reference, &on_time_windows, 0)?;
        if let Some((late_windows, close)) = late_outcome {
            let start = windows - late_windows.len();
            assert_suffix(&reference, &late_windows, start)?;
            prop_assert_eq!(close.windows, windows as u64);
            prop_assert_eq!(
                close.delivered + close.missed,
                windows as u64,
                "an undropped late joiner accounts every window"
            );
        }
    }
}

/// Frames one client read off the wire, manifest through close, raw.
type Wire = Vec<(FrameKind, Vec<u8>)>;

/// Read raw frames until the close frame.
fn read_wire(addr: std::net::SocketAddr) -> Wire {
    let mut socket = std::io::BufReader::new(std::net::TcpStream::connect(addr).unwrap());
    let mut wire = Wire::new();
    loop {
        let (kind, payload) = read_raw_frame(&mut socket).expect("a well-formed frame stream");
        wire.push((kind, payload));
        if kind == FrameKind::Close {
            return wire;
        }
    }
}

/// The replay `serve` drives in the bytes-through property: optionally
/// hides every carried frame (so `serve` must transcode each window), and
/// holds the window at position `join_at` until the late joiner has
/// subscribed, so both runs of a pairing see the same join point.
struct Harness<S> {
    inner: S,
    strip_frames: bool,
    pulled: usize,
    join_at: usize,
    go: Option<std::sync::mpsc::Sender<()>>,
    telemetry: TelemetryHub,
}

impl<S: WindowStream> WindowStream for Harness<S> {
    fn next_window(&mut self) -> Result<Option<WindowReport>, StreamError> {
        if self.pulled == self.join_at {
            if let Some(go) = self.go.take() {
                go.send(()).unwrap();
                // Subscriber 1 is the late joiner: the on-time client joined
                // before the roster gate let the first window out.
                let deadline = Instant::now() + Duration::from_secs(20);
                while !self
                    .telemetry
                    .drain()
                    .iter()
                    .any(|e| matches!(e, TelemetryEvent::PeerConnected { subscriber: 1, .. }))
                {
                    assert!(Instant::now() < deadline, "late joiner never subscribed");
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
        self.pulled += 1;
        let mut report = self.inner.next_window()?;
        if self.strip_frames {
            if let Some(report) = &mut report {
                report.frame = None;
            }
        }
        Ok(report)
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn window_us(&self) -> u64 {
        self.inner.window_us()
    }

    fn remaining_windows(&self) -> Option<usize> {
        self.inner.remaining_windows()
    }
}

/// Which full-window layout a recording's key frames are stored in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// As the recorder writes them: version 4.
    Current,
    /// The first entry rewritten in the version-1 layout, which predates
    /// the `reordered` stats field.
    V1First,
    /// Every full entry rewritten in the version-2 layout, as recordings
    /// made before version 4 hold them.
    V2,
}

/// Record `reports` at key-frame cadence `keyframe_every`, with its full
/// entries in `layout`.
fn recording(reports: &[WindowReport], nodes: u32, keyframe_every: u64, layout: Layout) -> Vec<u8> {
    let mut recorder = ArchiveRecorder::new(RecordingMeta {
        scenario: "bytes-through".to_string(),
        seed: 0,
        node_count: nodes as usize,
        window_us: 50_000,
        keyframe_every,
    });
    for report in reports {
        recorder.record(report).unwrap();
    }
    let bytes = recorder.finish().unwrap();
    if layout == Layout::Current {
        return bytes;
    }
    let mut reader = ZipReader::parse(Cursor::new(&bytes)).unwrap();
    let mut writer = ZipWriter::new();
    let names: Vec<String> = reader.entry_names().map(str::to_string).collect();
    for (i, name) in names.iter().enumerate() {
        let entry = reader.read(name).unwrap();
        let version = match layout {
            Layout::V1First if i == 0 => Some(1),
            Layout::V2 => Some(2),
            _ => None,
        };
        let entry = match version {
            Some(version) if entry.get(4) == Some(&FULL_WINDOW_VERSION) => {
                let report = decode_window(&entry).unwrap();
                if version == 1 {
                    assert_eq!(report.stats.reordered, 0, "strict mode reorders nothing");
                }
                legacy_codec::encode_legacy(&report, version)
            }
            _ => entry,
        };
        writer.add_file(name, &entry).unwrap();
    }
    writer.finish().unwrap()
}

/// One serve session of `recording` to an on-time client and a client
/// joining before the window at `join_at`; returns both clients' wires and
/// the count of windows `serve` forwarded.
fn serve_recording(
    recording: &[u8],
    keyframe_every: u64,
    join_at: usize,
    strip_frames: bool,
) -> (Wire, Wire, u64) {
    let listener = loopback_listener().unwrap();
    let addr = listener.local_addr().unwrap();
    let registry = MetricsRegistry::new();
    let telemetry = TelemetryHub::new();
    let config = ServeConfig {
        scenario: "bytes-through".to_string(),
        channel_capacity: 64,
        ring_capacity: RING,
        wait_for: 1,
        keyframe_every,
        metrics: Some(registry),
        ..ServeConfig::default()
    };
    let (go, joined) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        let on_time = scope.spawn(move || read_wire(addr));
        let late = scope.spawn(move || {
            joined.recv().unwrap();
            read_wire(addr)
        });
        let mut stream = Harness {
            inner: ReplaySource::new(Cursor::new(recording)).unwrap(),
            strip_frames,
            pulled: 0,
            join_at,
            go: Some(go),
            telemetry: telemetry.clone(),
        };
        let summary = serve(listener, &mut stream, &config, Some(telemetry)).unwrap();
        let snapshot = summary.snapshot.as_ref().expect("metrics were on");
        assert_eq!(
            snapshot.counter("serve.windows_encoded"),
            summary.windows(),
            "every published window is counted"
        );
        (
            on_time.join().unwrap(),
            late.join().unwrap(),
            snapshot.counter("serve.windows_forwarded"),
        )
    })
}

/// The catch-up ring size in the bytes-through property: large enough that
/// cadence 8 is not clamped, small enough that a late join past it lands
/// inside a delta chain.
const RING: usize = 8;
/// Windows per recording in the bytes-through property.
const WINDOWS: usize = 14;

proptest! {
    // 3 layouts x 16 cadence pairings x 2 serve sessions per case.
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Bytes-through ≡ transcode on the wire: for every pairing of
    /// recording cadence and serve cadence, with v4 key frames, a legacy
    /// v1 first entry or all key frames in the v2 layout, every client
    /// (one on time, one joining past the ring, mid delta chain for most
    /// cadences) reads the identical raw frame sequence whether `serve`
    /// forwards the recorded frames or encodes every window itself; and
    /// `serve` forwards exactly the windows whose recorded payload is what
    /// it would encode, so legacy full entries are always transcoded.
    #[test]
    fn forwarded_frames_are_the_frames_transcoding_writes(
        scenario in arb_scenario(),
        nodes in 40u32..100,
        seed in any::<u64>(),
        join_at in (RING + 1)..WINDOWS,
    ) {
        let reports = pipeline(scenario, nodes, seed).run(WINDOWS);
        let recordings = [0u64, 1, 3, 8]
            .into_iter()
            .flat_map(|every| [Layout::Current, Layout::V1First, Layout::V2].map(|l| (every, l)));
        for (record_every, layout) in recordings {
            let recording = recording(&reports, nodes, record_every, layout);
            for serve_every in [0u64, 1, 3, 8] {
                let pairing = format!("record {record_every} {layout:?} serve {serve_every}");
                let (on_time, late, forwarded) =
                    serve_recording(&recording, serve_every, join_at, false);
                let (on_time_ref, late_ref, transcoded) =
                    serve_recording(&recording, serve_every, join_at, true);
                prop_assert_eq!(transcoded, 0);
                prop_assert!(on_time == on_time_ref, "on-time wire differs: {}", pairing);
                prop_assert!(late == late_ref, "late wire differs: {}", pairing);
                prop_assert_eq!(on_time.len(), WINDOWS + 2, "manifest, windows, close");

                let key = |every: u64, i: u64| every == 0 || i.is_multiple_of(every);
                // Legacy full entries are transcoded, never forwarded.
                let legacy = |i: u64| match layout {
                    Layout::Current => false,
                    Layout::V1First => i == 0,
                    Layout::V2 => key(record_every, i),
                };
                let expected = (0..WINDOWS as u64)
                    .filter(|&i| key(serve_every, i) == key(record_every, i))
                    .filter(|&i| !legacy(i))
                    .count() as u64;
                prop_assert_eq!(forwarded, expected, "{}", pairing);

                // The late joiner decodes a suffix of the lesson from its
                // first frame on.
                let mut scratch = DecodeScratch::new();
                let windows: Vec<WindowReport> = late
                    .iter()
                    .filter(|(kind, _)| {
                        matches!(kind, FrameKind::Window | FrameKind::DeltaWindow)
                    })
                    .map(|(_, payload)| decode_window_into(payload, &mut scratch).unwrap())
                    .collect();
                prop_assert!(!windows.is_empty());
                assert_suffix(&reports, &windows, WINDOWS - windows.len())?;
            }
        }
    }
}
