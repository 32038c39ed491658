//! Property tests: arbitrary file sets round-trip through the ZIP container.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io::Cursor;
use tw_archive::{ArchiveError, ZipReader, ZipWriter};

/// Parse `bytes` and, when that succeeds, read every listed entry: CRCs and
/// local headers are checked at read time, so "never panics" has to cover
/// both steps.
fn parse_and_read_all(bytes: &[u8]) {
    if let Ok(mut r) = ZipReader::parse(Cursor::new(bytes)) {
        let names: Vec<String> = r.entry_names().map(str::to_string).collect();
        for name in names {
            let _ = r.read(&name);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_file_sets_round_trip(
        files in prop::collection::btree_map("[a-z0-9_]{1,12}(\\.json)?", prop::collection::vec(any::<u8>(), 0..512), 0..20)
    ) {
        let mut w = ZipWriter::new();
        for (name, data) in &files {
            w.add_file(name, data).unwrap();
        }
        let bytes = w.finish().unwrap();
        let mut r = ZipReader::parse(Cursor::new(&bytes)).unwrap();
        prop_assert_eq!(r.len(), files.len());
        for (name, data) in &files {
            prop_assert_eq!(r.read(name).unwrap(), data.as_slice());
        }
    }

    #[test]
    fn parser_never_panics_on_arbitrary_bytes(data in prop::collection::vec(any::<u8>(), 0..256)) {
        parse_and_read_all(&data);
    }

    #[test]
    fn parser_never_panics_on_corrupted_archives(
        flips in prop::collection::vec((0usize..4096, any::<u8>()), 1..8)
    ) {
        let mut w = ZipWriter::new();
        w.add_file("a.json", b"{\"name\":\"A\"}").unwrap();
        w.add_file("b.json", &[7u8; 100]).unwrap();
        let mut bytes = w.finish().unwrap();
        for (pos, xor) in flips {
            let len = bytes.len();
            bytes[pos % len] ^= xor;
        }
        // Parse and every read must either succeed (if the flip hit a
        // harmless byte) or error; never panic.
        parse_and_read_all(&bytes);
    }

    #[test]
    fn nested_paths_round_trip(segments in prop::collection::vec("[a-z]{1,8}", 1..5), data in prop::collection::vec(any::<u8>(), 0..64)) {
        let name = segments.join("/");
        let mut w = ZipWriter::new();
        w.add_file(&name, &data).unwrap();
        let bytes = w.finish().unwrap();
        let mut r = ZipReader::parse(Cursor::new(&bytes)).unwrap();
        prop_assert_eq!(r.read(&name).unwrap(), data.as_slice());
    }

    #[test]
    fn tampered_eocd_entry_counts_are_always_rejected(
        names in prop::collection::btree_map("[a-z]{1,10}", 0u8..1, 1..12),
        wrong in any::<u16>(),
    ) {
        let count = names.len();
        let mut w = ZipWriter::new();
        for name in names.keys() {
            w.add_file(name, name.as_bytes()).unwrap();
        }
        let mut bytes = w.finish().unwrap();
        // Force the declared count to disagree with the walked count.
        let wrong = if wrong as usize == count { wrong.wrapping_add(1) } else { wrong };
        let eocd = bytes.len() - 22;
        bytes[eocd + 10..eocd + 12].copy_from_slice(&wrong.to_le_bytes());
        prop_assert_eq!(
            ZipReader::parse(Cursor::new(&bytes)).unwrap_err(),
            ArchiveError::EntryCountMismatch { declared: wrong as usize, walked: count }
        );
    }
}

#[test]
fn crc_of_btreemap_ordering_is_stable() {
    // Guard that the proptest strategy above (BTreeMap) gives deterministic order.
    let mut m = BTreeMap::new();
    m.insert("b", 1);
    m.insert("a", 2);
    assert_eq!(m.keys().collect::<Vec<_>>(), vec![&"a", &"b"]);
}
