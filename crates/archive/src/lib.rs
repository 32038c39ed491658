//! # tw-archive
//!
//! Minimal ZIP archive support for Traffic Warehouse learning-module bundles.
//!
//! The paper distributes learning modules as "a zip file containing multiple
//! JSON files that the user can select and load into the game" (§II). Module
//! files are tiny plain-text JSON, so compression buys nothing; this crate
//! implements the ZIP container format with **stored** (uncompressed) entries
//! only, which keeps the bundle a valid `.zip` that standard tools can open
//! while keeping the implementation dependency-free and easy to audit — the
//! paper explicitly values the ability to review module content "quickly and
//! efficiently" for restricted environments.
//!
//! ```
//! use std::io::Cursor;
//! use tw_archive::{ZipWriter, ZipReader};
//!
//! let mut w = ZipWriter::new();
//! w.add_file("lesson1.json", br#"{"name":"Lesson 1"}"#).unwrap();
//! w.add_file("lesson2.json", br#"{"name":"Lesson 2"}"#).unwrap();
//! let bytes = w.finish().unwrap();
//!
//! // Bytes in memory are read through a `Cursor`; files through a
//! // `BufReader<File>`.
//! let mut r = ZipReader::parse(Cursor::new(&bytes)).unwrap();
//! assert_eq!(r.entry_names().collect::<Vec<_>>(), vec!["lesson1.json", "lesson2.json"]);
//! assert_eq!(r.read("lesson2.json").unwrap(), br#"{"name":"Lesson 2"}"#);
//! ```

pub mod crc32;
pub mod error;
pub mod reader;
pub mod writer;

pub use crc32::crc32;
pub use error::{ArchiveError, Result};
pub use reader::{ZipEntry, ZipReader};
pub use writer::ZipWriter;

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn empty_archive_round_trips() {
        let bytes = ZipWriter::new().finish().unwrap();
        let r = ZipReader::parse(Cursor::new(&bytes)).unwrap();
        assert_eq!(r.len(), 0);
        assert!(r.is_empty());
    }

    #[test]
    fn many_entries_round_trip() {
        let mut w = ZipWriter::new();
        let mut expected = Vec::new();
        for i in 0..64 {
            let name = format!("modules/lesson_{i:02}.json");
            let body = format!("{{\"name\":\"Lesson {i}\",\"size\":\"10x10\"}}").into_bytes();
            w.add_file(&name, &body).unwrap();
            expected.push((name, body));
        }
        let bytes = w.finish().unwrap();
        let mut r = ZipReader::parse(Cursor::new(&bytes)).unwrap();
        assert_eq!(r.len(), 64);
        for (name, body) in expected {
            assert_eq!(r.read(&name).unwrap(), body.as_slice());
        }
    }
}
