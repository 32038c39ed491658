//! Property tests for the window codec and the record/replay archive layer:
//! ANY CSR window survives encode → ZIP → decode cell-for-cell.

use proptest::prelude::*;
use std::io::Cursor;
use std::time::Duration;
use tw_ingest::codec::{decode_window, encode_window};
use tw_ingest::{
    collect_stream, ArchiveRecorder, IngestStats, RecordingMeta, ReplaySource, WindowReport,
};
use tw_matrix::stream::PacketEvent;
use tw_matrix::CsrMatrix;

/// An arbitrary window report over an `n`-address space: random coalesced
/// entries (duplicates collapse through the COO path, matching how real
/// windows are built) plus fully arbitrary stats, including extreme values.
fn arb_report(n: usize) -> impl Strategy<Value = WindowReport> {
    let entries = prop::collection::vec((0..n as u32, 0..n as u32, any::<u64>()), 0..120);
    (
        entries,
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        (any::<u64>(), any::<u64>()),
        any::<u64>(),
    )
        .prop_map(
            move |(
                entries,
                window_index,
                events,
                packets,
                (dropped_late, reordered),
                elapsed_ns,
            )| {
                let mut triples: Vec<(usize, usize, u64)> = entries
                    .into_iter()
                    .map(|(r, c, v)| (r as usize, c as usize, v))
                    .collect();
                triples.sort_unstable_by_key(|&(r, c, _)| (r, c));
                triples.dedup_by_key(|&mut (r, c, _)| (r, c));
                // Stored zeros cannot come out of coalescing; drop them here too.
                triples.retain(|&(_, _, v)| v != 0);
                let matrix = CsrMatrix::from_sorted_triples(n, n, &triples);
                let nnz = matrix.nnz();
                WindowReport {
                    matrix: matrix.into(),
                    stats: IngestStats {
                        window_index,
                        events,
                        packets,
                        nnz,
                        dropped_late,
                        reordered,
                        elapsed: Duration::from_nanos(elapsed_ns),
                    },
                    frame: None,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn encode_decode_round_trips_any_window(report in arb_report(64)) {
        let bytes = encode_window(&report);
        let decoded = decode_window(&bytes).unwrap();
        prop_assert_eq!(&decoded.matrix, &report.matrix);
        prop_assert_eq!(&decoded.stats, &report.stats);
    }

    #[test]
    fn decoder_never_panics_on_arbitrary_bytes(data in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_window(&data);
    }

    #[test]
    fn decoder_never_panics_on_corrupted_windows(
        report in arb_report(32),
        flips in prop::collection::vec((0usize..4096, 1u8..=255), 1..6),
    ) {
        let mut bytes = encode_window(&report);
        for (pos, xor) in flips {
            let len = bytes.len();
            bytes[pos % len] ^= xor;
        }
        // Either decodes (harmless flip) or errors; never panics.
        let _ = decode_window(&bytes);
    }

    #[test]
    fn recorded_archives_replay_cell_for_cell(
        reports in prop::collection::vec(arb_report(48), 1..10),
    ) {
        // Recorded window indices must be unique (entry names collide
        // otherwise, by design); re-index sequentially like a pipeline.
        let mut reports = reports;
        for (i, report) in reports.iter_mut().enumerate() {
            report.stats.window_index = i as u64;
        }
        let mut recorder = ArchiveRecorder::new(RecordingMeta {
            scenario: "proptest".to_string(),
            seed: 42,
            node_count: 48,
            window_us: 1_000,
            keyframe_every: 0,
        });
        for report in &reports {
            recorder.record(report).unwrap();
        }
        let bytes = recorder.finish().unwrap();

        let mut replay = ReplaySource::new(Cursor::new(&bytes)).unwrap();
        prop_assert_eq!(replay.manifest().window_count(), reports.len());
        prop_assert_eq!(replay.manifest().node_count, 48);
        let replayed = collect_stream(&mut replay, usize::MAX).unwrap();
        prop_assert_eq!(replayed.len(), reports.len());
        for (replayed, recorded) in replayed.iter().zip(&reports) {
            prop_assert_eq!(&replayed.matrix, &recorded.matrix);
            prop_assert_eq!(&replayed.stats, &recorded.stats);
        }
    }

    #[test]
    fn pipeline_windows_round_trip_through_the_codec(
        events in prop::collection::vec(
            (0u32..32, 0u32..32, 0u32..16, 0u64..100_000),
            1..300,
        ),
    ) {
        // Windows produced by the real accumulator (not synthetic triples)
        // also survive the codec: build one from a raw event batch.
        let events: Vec<PacketEvent> = events
            .into_iter()
            .map(|(source, destination, packets, timestamp_us)| PacketEvent {
                source,
                destination,
                packets,
                timestamp_us,
            })
            .collect();
        let matrix = tw_ingest::window_matrix(32, &events);
        let nnz = matrix.nnz();
        let report = WindowReport {
            matrix: matrix.into(),
            stats: IngestStats {
                window_index: 0,
                events: events.len() as u64,
                packets: events.iter().map(|e| u64::from(e.packets)).sum(),
                nnz,
                dropped_late: 0,
                reordered: 0,
                elapsed: Duration::from_micros(7),
            },
            frame: None,
        };
        let decoded = decode_window(&encode_window(&report)).unwrap();
        prop_assert_eq!(decoded, report);
    }
}
