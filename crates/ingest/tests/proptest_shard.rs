//! Property tests for the window accumulator's serial-equivalence guarantee:
//! for ANY event stream, the counting-sort merge equals the `window_matrix`
//! reference (one COO matrix, coalesced) cell-for-cell. Beyond arbitrary
//! streams, the edges of the summing pass get their own strategies: totals
//! past `u32::MAX`, zero totals in the first and last row, one node and
//! empty windows.

use proptest::prelude::*;
use tw_ingest::{window_matrix, WindowAccumulator};
use tw_matrix::stream::PacketEvent;

/// Arbitrary streams over a small address space (duplicates and hot cells are
/// likely, which is exactly what stresses coalescing; packet counts include
/// zero, which both paths must drop identically).
fn arb_events(node_count: u32) -> impl Strategy<Value = Vec<PacketEvent>> {
    prop::collection::vec(
        (0..node_count, 0..node_count, 0u32..16, 0u64..1_000_000),
        0..400,
    )
    .prop_map(|tuples| {
        tuples
            .into_iter()
            .map(|(source, destination, packets, timestamp_us)| PacketEvent {
                source,
                destination,
                packets,
                timestamp_us,
            })
            .collect()
    })
}

fn event(source: u32, destination: u32, packets: u32) -> PacketEvent {
    PacketEvent {
        source,
        destination,
        packets,
        timestamp_us: 0,
    }
}

/// Streams whose packet counts reach `u32::MAX`, every event sent two to
/// four times in a row, so repeated cells sum past `u32::MAX`. The first
/// event always carries `u32::MAX` packets.
fn arb_heavy_events(node_count: u32) -> impl Strategy<Value = Vec<PacketEvent>> {
    let packets = prop_oneof![Just(u32::MAX), u32::MAX - 16..=u32::MAX, 0u32..4];
    prop::collection::vec((0..node_count, 0..node_count, packets, 2usize..=4), 1..64).prop_map(
        |tuples| {
            let mut events = Vec::new();
            for (i, (source, destination, packets, copies)) in tuples.into_iter().enumerate() {
                let packets = if i == 0 { u32::MAX } else { packets };
                events.extend(std::iter::repeat_n(
                    event(source, destination, packets),
                    copies,
                ));
            }
            events
        },
    )
}

/// Arbitrary traffic in the middle rows, plus cells in the first and the
/// last row whose every event carries zero packets (sent one to three
/// times), next to one non-zero cell in each of those rows. Returns the
/// stream and the two zero cells.
fn arb_zero_edge_cells(
    node_count: u32,
) -> impl Strategy<Value = (Vec<PacketEvent>, (u32, u32), (u32, u32))> {
    (
        arb_events(node_count - 2),
        0..node_count,
        0..node_count,
        1usize..=3,
        1u32..16,
    )
        .prop_map(move |(middle, first_col, last_col, copies, packets)| {
            let last = node_count - 1;
            let mut events: Vec<PacketEvent> = middle
                .into_iter()
                .map(|e| PacketEvent {
                    source: e.source + 1,
                    ..e
                })
                .collect();
            for _ in 0..copies {
                events.insert(0, event(0, first_col, 0));
                events.push(event(last, last_col, 0));
            }
            events.push(event(0, (first_col + 1) % node_count, packets));
            events.insert(0, event(last, (last_col + 1) % node_count, packets));
            (events, (0, first_col), (last, last_col))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sharded_merge_equals_serial_window_matrix(
        events in arb_events(48),
    ) {
        let mut acc = WindowAccumulator::new(48);
        acc.ingest(&events);
        let merged = acc.merge();
        let serial = window_matrix(48, &events);
        // Structural equality covers row_ptr/col_idx/values — cell-for-cell.
        prop_assert_eq!(&*merged, &serial);
        // And the packet mass balances against the raw stream.
        let total: u64 = events.iter().map(|e| u64::from(e.packets)).sum();
        prop_assert_eq!(merged.values().iter().sum::<u64>(), total);
    }

    /// Recycled rotation scratch must never leak state between windows: a
    /// warm accumulator replaying the same stream window after window keeps
    /// producing the identical matrix a cold accumulator would.
    #[test]
    fn warm_scratch_windows_equal_cold_windows(
        events in arb_events(32),
        windows in 2usize..=5,
    ) {
        let reference = window_matrix(32, &events);
        let mut warm = WindowAccumulator::new(32);
        for index in 0..windows {
            warm.ingest(&events);
            let matrix = warm.merge();
            prop_assert_eq!(&*matrix, &reference);
            drop(matrix);
            prop_assert_eq!(warm.scratch_reuse_hits(), index as u64);
        }
    }

    #[test]
    fn split_ingest_equals_one_shot_ingest(
        events in arb_events(24),
        split in 0usize..400,
    ) {
        let split = split.min(events.len());
        let mut one_shot = WindowAccumulator::new(24);
        one_shot.ingest(&events);
        let mut split_acc = WindowAccumulator::new(24);
        split_acc.ingest(&events[..split]);
        split_acc.ingest(&events[split..]);
        prop_assert_eq!(one_shot.merge(), split_acc.merge());
    }

    /// Repeated cells of near-`u32::MAX` packets sum in `u64`: a cell fed
    /// `u32::MAX` at least twice holds more than `u32::MAX`, and every
    /// total equals the reference's.
    #[test]
    fn duplicate_sums_past_u32_max_equal_serial_window_matrix(
        events in arb_heavy_events(6),
    ) {
        let mut acc = WindowAccumulator::new(6);
        acc.ingest(&events);
        let merged = acc.merge();
        let serial = window_matrix(6, &events);
        prop_assert_eq!(&*merged, &serial);
        let heavy = events[0];
        let total = merged.get(heavy.source as usize, heavy.destination as usize);
        prop_assert!(total > u64::from(u32::MAX), "total {}", total);
        prop_assert_eq!(
            total,
            serial.get(heavy.source as usize, heavy.destination as usize)
        );
    }

    /// Zero totals are dropped in the first and the last row as anywhere
    /// else, and each of those rows keeps exactly its non-zero cell.
    #[test]
    fn zero_totals_in_the_edge_rows_are_dropped(
        case in arb_zero_edge_cells(12),
    ) {
        let (events, zero_first, zero_last) = case;
        let mut acc = WindowAccumulator::new(12);
        acc.ingest(&events);
        let merged = acc.merge();
        prop_assert_eq!(&*merged, &window_matrix(12, &events));
        for (row, col) in [zero_first, zero_last] {
            let (row, col) = (row as usize, col as usize);
            prop_assert_eq!(merged.get(row, col), 0);
            prop_assert_eq!(merged.row_ptr()[row + 1] - merged.row_ptr()[row], 1);
        }
    }

    /// One node, and empty windows of any size: a warm accumulator whose
    /// recycled arrays still hold the last window's cells must merge an
    /// empty window into an empty matrix.
    #[test]
    fn one_node_and_empty_windows_equal_serial_window_matrix(
        events in arb_events(1),
        node_count in 0usize..64,
    ) {
        let mut one = WindowAccumulator::new(1);
        one.ingest(&events);
        let merged = one.merge();
        prop_assert_eq!(&*merged, &window_matrix(1, &events));
        drop(merged);
        prop_assert_eq!(&*one.merge(), &window_matrix(1, &[]));

        let mut acc = WindowAccumulator::new(node_count);
        prop_assert_eq!(&*acc.merge(), &window_matrix(node_count, &[]));
        if node_count > 0 {
            acc.ingest(&[event(0, 0, 5)]);
            drop(acc.merge());
        }
        let empty = acc.merge();
        prop_assert_eq!(empty.nnz(), 0);
        prop_assert_eq!(&*empty, &window_matrix(node_count, &[]));
    }
}
