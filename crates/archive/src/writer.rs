//! Building stored-entry ZIP archives in memory.

use crate::crc32::crc32;
use crate::error::{ArchiveError, Result};

/// Signature of a local file header.
pub(crate) const LOCAL_FILE_HEADER_SIG: u32 = 0x0403_4B50;
/// Signature of a central directory file header.
pub(crate) const CENTRAL_DIR_HEADER_SIG: u32 = 0x0201_4B50;
/// Signature of the end-of-central-directory record.
pub(crate) const END_OF_CENTRAL_DIR_SIG: u32 = 0x0605_4B50;
/// "Version needed to extract": 1.0, since stored entries need nothing special.
const VERSION_NEEDED: u16 = 10;
/// Compression method 0 = stored.
const METHOD_STORED: u16 = 0;
/// Fixed DOS timestamp (1980-01-01 00:00:00) for reproducible archives.
const DOS_TIME: u16 = 0;
const DOS_DATE: u16 = 0x0021;

/// Validate an entry name: relative, non-empty, no `..` components, no backslashes.
pub fn validate_entry_name(name: &str) -> Result<()> {
    if name.is_empty()
        || name.starts_with('/')
        || name.contains('\\')
        || name.split('/').any(|seg| seg == ".." || seg.is_empty())
    {
        return Err(ArchiveError::UnsafeEntryName(name.to_string()));
    }
    Ok(())
}

#[derive(Debug)]
struct PendingEntry {
    name: String,
    crc: u32,
    size: u32,
    local_header_offset: u32,
}

/// Builds a ZIP archive entirely in memory.
///
/// Output is byte-for-byte deterministic for a given sequence of
/// `add_file` calls (fixed timestamps, no extra fields), which makes module
/// bundles reproducible and easy to diff.
#[derive(Debug)]
pub struct ZipWriter {
    buffer: Vec<u8>,
    entries: Vec<PendingEntry>,
    /// Entry names added so far; keeps the duplicate check O(log n) per add
    /// so archives with tens of thousands of entries (one per recorded
    /// window) stay fast to build.
    names: std::collections::BTreeSet<String>,
}

impl Default for ZipWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl ZipWriter {
    /// Create an empty archive builder.
    pub fn new() -> Self {
        ZipWriter {
            buffer: Vec::new(),
            entries: Vec::new(),
            names: std::collections::BTreeSet::new(),
        }
    }

    /// Number of entries added so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries have been added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Add a file entry with the given name and contents.
    pub fn add_file(&mut self, name: &str, data: &[u8]) -> Result<()> {
        validate_entry_name(name)?;
        if !self.names.insert(name.to_string()) {
            return Err(ArchiveError::DuplicateEntry(name.to_string()));
        }
        let size = u32::try_from(data.len()).map_err(|_| ArchiveError::TooLarge("entry"))?;
        let name_len =
            u16::try_from(name.len()).map_err(|_| ArchiveError::TooLarge("entry name"))?;
        let offset =
            u32::try_from(self.buffer.len()).map_err(|_| ArchiveError::TooLarge("archive"))?;
        let crc = crc32(data);

        // Local file header.
        push_u32(&mut self.buffer, LOCAL_FILE_HEADER_SIG);
        push_u16(&mut self.buffer, VERSION_NEEDED);
        push_u16(&mut self.buffer, 0); // general purpose flags
        push_u16(&mut self.buffer, METHOD_STORED);
        push_u16(&mut self.buffer, DOS_TIME);
        push_u16(&mut self.buffer, DOS_DATE);
        push_u32(&mut self.buffer, crc);
        push_u32(&mut self.buffer, size); // compressed size == size for stored
        push_u32(&mut self.buffer, size);
        push_u16(&mut self.buffer, name_len);
        push_u16(&mut self.buffer, 0); // extra field length
        self.buffer.extend_from_slice(name.as_bytes());
        self.buffer.extend_from_slice(data);

        self.entries.push(PendingEntry {
            name: name.to_string(),
            crc,
            size,
            local_header_offset: offset,
        });
        Ok(())
    }

    /// Finish the archive, appending the central directory, and return the bytes.
    ///
    /// Errors with [`ArchiveError::TooLarge`] instead of silently truncating
    /// when the archive exceeds the classic ZIP format limits: more than
    /// 65,535 entries, or a central directory whose offset or size does not
    /// fit in 32 bits. (The old `as u16`/`as u32` casts here produced a
    /// corrupt end-of-central-directory record with no error.)
    pub fn finish(self) -> Result<Vec<u8>> {
        let entry_count =
            u16::try_from(self.entries.len()).map_err(|_| ArchiveError::TooLarge("entry count"))?;
        let mut buffer = self.buffer;
        let central_dir_offset = u32::try_from(buffer.len())
            .map_err(|_| ArchiveError::TooLarge("central directory offset"))?;

        for entry in &self.entries {
            push_u32(&mut buffer, CENTRAL_DIR_HEADER_SIG);
            push_u16(&mut buffer, VERSION_NEEDED); // version made by
            push_u16(&mut buffer, VERSION_NEEDED); // version needed
            push_u16(&mut buffer, 0); // flags
            push_u16(&mut buffer, METHOD_STORED);
            push_u16(&mut buffer, DOS_TIME);
            push_u16(&mut buffer, DOS_DATE);
            push_u32(&mut buffer, entry.crc);
            push_u32(&mut buffer, entry.size);
            push_u32(&mut buffer, entry.size);
            // Already validated by `add_file`'s checked conversion.
            push_u16(
                &mut buffer,
                // tw-analyze: allow(no-panic-in-lib, "add_file rejects names longer than u16::MAX before they reach the directory writer")
                u16::try_from(entry.name.len()).expect("name length checked on add"),
            );
            push_u16(&mut buffer, 0); // extra length
            push_u16(&mut buffer, 0); // comment length
            push_u16(&mut buffer, 0); // disk number start
            push_u16(&mut buffer, 0); // internal attributes
            push_u32(&mut buffer, 0); // external attributes
            push_u32(&mut buffer, entry.local_header_offset);
            buffer.extend_from_slice(entry.name.as_bytes());
        }

        let central_dir_size = u32::try_from(buffer.len() - central_dir_offset as usize)
            .map_err(|_| ArchiveError::TooLarge("central directory size"))?;
        push_u32(&mut buffer, END_OF_CENTRAL_DIR_SIG);
        push_u16(&mut buffer, 0); // this disk
        push_u16(&mut buffer, 0); // disk with central directory
        push_u16(&mut buffer, entry_count);
        push_u16(&mut buffer, entry_count);
        push_u32(&mut buffer, central_dir_size);
        push_u32(&mut buffer, central_dir_offset);
        push_u16(&mut buffer, 0); // comment length
        Ok(buffer)
    }
}

fn push_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_deterministic() {
        let build = || {
            let mut w = ZipWriter::new();
            w.add_file("a.json", b"{}").unwrap();
            w.add_file("b.json", b"{\"x\":1}").unwrap();
            w.finish().unwrap()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn finish_rejects_more_entries_than_the_eocd_can_count() {
        // The EOCD entry-count field is 16 bits; 65_536 entries used to wrap
        // to 0 silently. Empty payloads keep this regression test fast.
        let mut w = ZipWriter::new();
        for i in 0..=u16::MAX as u32 {
            w.add_file(&format!("w/{i}"), b"").unwrap();
        }
        assert_eq!(w.len(), 65_536);
        assert_eq!(w.finish(), Err(ArchiveError::TooLarge("entry count")));

        // One fewer entry is the format's maximum and still round-trips.
        let mut w = ZipWriter::new();
        for i in 0..u16::MAX {
            w.add_file(&format!("w/{i}"), b"").unwrap();
        }
        let bytes = w.finish().unwrap();
        let r = crate::reader::ZipReader::parse(std::io::Cursor::new(&bytes)).unwrap();
        assert_eq!(r.len(), 65_535);
    }

    #[test]
    fn rejects_unsafe_names() {
        let mut w = ZipWriter::new();
        for bad in ["", "/abs.json", "a/../b.json", "a\\b.json", "a//b.json"] {
            assert!(
                matches!(w.add_file(bad, b"x"), Err(ArchiveError::UnsafeEntryName(_))),
                "should reject {bad:?}"
            );
        }
        assert!(w.add_file("modules/ok.json", b"x").is_ok());
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut w = ZipWriter::new();
        w.add_file("a.json", b"1").unwrap();
        assert_eq!(
            w.add_file("a.json", b"2"),
            Err(ArchiveError::DuplicateEntry("a.json".to_string()))
        );
        assert_eq!(w.len(), 1);
        assert!(!w.is_empty());
    }

    #[test]
    fn local_header_signature_is_pk() {
        let mut w = ZipWriter::new();
        w.add_file("a", b"x").unwrap();
        let bytes = w.finish().unwrap();
        assert_eq!(&bytes[0..4], b"PK\x03\x04");
        // End record signature appears near the end.
        let eocd_pos = bytes.len() - 22;
        assert_eq!(&bytes[eocd_pos..eocd_pos + 4], b"PK\x05\x06");
    }
}
