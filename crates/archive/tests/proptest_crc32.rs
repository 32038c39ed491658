//! Property tests: the dispatching CRC-32 equals the slicing-by-8 tables.
//!
//! [`Crc32::update`] sends inputs of 128 bytes or more to a carry-less-
//! multiply kernel on CPUs that have one; [`crc32_table`] never does. Any
//! input, however it is split across `update` calls and wherever in memory
//! it starts, must give the same checksum both ways.

use proptest::prelude::*;
use tw_archive::crc32::{crc32, crc32_table, Crc32};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dispatch_equals_the_tables_for_any_bytes(data in prop::collection::vec(any::<u8>(), 0..=4096)) {
        prop_assert_eq!(crc32(&data), crc32_table(&data));
    }

    #[test]
    fn any_split_of_incremental_updates_equals_one_shot(
        data in prop::collection::vec(any::<u8>(), 0..=4096),
        cuts in prop::collection::vec(0usize..=4096, 0..6),
    ) {
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut hasher = Crc32::new();
        let mut start = 0;
        for cut in cuts.into_iter().chain([data.len()]) {
            hasher.update(&data[start..cut]);
            start = cut;
        }
        prop_assert_eq!(hasher.finalize(), crc32_table(&data));
    }

    #[test]
    fn unaligned_sub_slices_equal_the_tables(
        data in prop::collection::vec(any::<u8>(), 0..=4096),
        offset in 0usize..64,
        trim in 0usize..64,
    ) {
        // Start and end anywhere, so the kernel's 16-byte loads and the
        // table tail see every alignment.
        let start = offset.min(data.len());
        let end = data.len().saturating_sub(trim).max(start);
        let slice = &data[start..end];
        prop_assert_eq!(crc32(slice), crc32_table(slice));
    }
}
