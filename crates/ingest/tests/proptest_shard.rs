//! Property tests for the window accumulator's serial-equivalence guarantee:
//! for ANY event stream, the counting-sort merge equals the `window_matrix`
//! reference (one COO matrix, coalesced) cell-for-cell.

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
        prop_assert_eq!(&merged, &serial);
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
            prop_assert_eq!(&matrix, &reference);
            warm.recycle(matrix);
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
}
