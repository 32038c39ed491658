//! Parsing stored-entry ZIP archives from memory.

use crate::crc32::crc32;
use crate::error::{ArchiveError, Result};
use crate::writer::{
    validate_entry_name, CENTRAL_DIR_HEADER_SIG, END_OF_CENTRAL_DIR_SIG, LOCAL_FILE_HEADER_SIG,
};

/// One entry in a parsed archive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZipEntry {
    /// The entry's path inside the archive (always relative, `/`-separated).
    pub name: String,
    /// Uncompressed size in bytes.
    pub size: u32,
    /// CRC-32 of the entry data as recorded in the central directory.
    pub crc: u32,
    /// Byte offset of the local file header within the archive.
    pub(crate) offset: u32,
}

/// A parsed, validated ZIP archive held in memory.
///
/// Parsing walks the central directory, validates every local header and
/// checks every entry's CRC up front, so `read` cannot fail after a
/// successful `parse` (other than for unknown names).
#[derive(Debug)]
pub struct ZipReader<'a> {
    data: &'a [u8],
    entries: Vec<ZipEntry>,
    /// Entry name → index into `entries`, so `read` is O(log n) — window
    /// recordings are looked up once per window and can hold tens of
    /// thousands of entries.
    index: std::collections::BTreeMap<String, usize>,
}

impl<'a> ZipReader<'a> {
    /// Parse and validate an archive.
    ///
    /// The central directory is walked from its recorded offset up to the
    /// end-of-central-directory record, and the number of entries actually
    /// walked must equal the entry count the EOCD declares — archives whose
    /// EOCD was truncated (e.g. a 16-bit wrap of a >65,535-entry count)
    /// are rejected instead of silently losing entries.
    pub fn parse(data: &'a [u8]) -> Result<Self> {
        let eocd = find_end_of_central_directory(data)?;
        let declared = read_u16(data, eocd + 10)? as usize;
        let central_dir_offset = read_u32(data, eocd + 16)? as usize;
        if central_dir_offset > eocd {
            return Err(ArchiveError::Truncated("central directory"));
        }

        let (entries, index) = walk_central_directory(&data[central_dir_offset..eocd], declared)?;

        let reader = ZipReader {
            data,
            entries,
            index,
        };
        // Validate every entry's local header and CRC eagerly.
        for entry in &reader.entries {
            let bytes = reader.entry_data(entry)?;
            let actual = crc32(bytes);
            if actual != entry.crc {
                return Err(ArchiveError::CrcMismatch {
                    name: entry.name.clone(),
                    expected: entry.crc,
                    actual,
                });
            }
        }
        Ok(reader)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the archive holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries in central-directory order.
    pub fn entries(&self) -> &[ZipEntry] {
        &self.entries
    }

    /// Entry names in central-directory order.
    pub fn entry_names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.name.as_str())
    }

    /// Read the contents of a named entry.
    pub fn read(&self, name: &str) -> Result<&'a [u8]> {
        Ok(self.read_with_crc(name)?.0)
    }

    /// Read the contents of a named entry together with its CRC-32, which
    /// [`parse`](Self::parse) has already verified against those contents.
    pub fn read_with_crc(&self, name: &str) -> Result<(&'a [u8], u32)> {
        let entry = self
            .index
            .get(name)
            .map(|&i| &self.entries[i])
            .ok_or_else(|| ArchiveError::EntryNotFound(name.to_string()))?;
        Ok((self.entry_data(entry)?, entry.crc))
    }

    /// Read the contents of a named entry as UTF-8 text.
    pub fn read_text(&self, name: &str) -> Result<&'a str> {
        let bytes = self.read(name)?;
        std::str::from_utf8(bytes).map_err(|_| ArchiveError::InvalidEntryName)
    }

    fn entry_data(&self, entry: &ZipEntry) -> Result<&'a [u8]> {
        let off = entry.offset as usize;
        let sig = read_u32(self.data, off)?;
        if sig != LOCAL_FILE_HEADER_SIG {
            return Err(ArchiveError::BadSignature(LOCAL_FILE_HEADER_SIG, sig));
        }
        let method = read_u16(self.data, off + 8)?;
        if method != 0 {
            return Err(ArchiveError::UnsupportedCompression(method));
        }
        let name_len = read_u16(self.data, off + 26)? as usize;
        let extra_len = read_u16(self.data, off + 28)? as usize;
        let data_start = off + 30 + name_len + extra_len;
        slice(self.data, data_start, entry.size as usize, "entry data")
    }
}

/// Walk a central directory held in `cd` (the byte range between the
/// directory's recorded offset and the end-of-central-directory record) and
/// return the validated entry table plus its name index. Shared by the
/// in-memory [`ZipReader`] and the seekable
/// [`SeekZipReader`](crate::seek::SeekZipReader).
pub(crate) fn walk_central_directory(
    cd: &[u8],
    declared: usize,
) -> Result<(Vec<ZipEntry>, std::collections::BTreeMap<String, usize>)> {
    let mut entries = Vec::with_capacity(declared.min(65_535));
    let mut index = std::collections::BTreeMap::new();
    let mut cursor = 0usize;
    while cursor != cd.len() {
        let sig = read_u32(cd, cursor)?;
        if sig != CENTRAL_DIR_HEADER_SIG {
            return Err(ArchiveError::BadSignature(CENTRAL_DIR_HEADER_SIG, sig));
        }
        let method = read_u16(cd, cursor + 10)?;
        if method != 0 {
            return Err(ArchiveError::UnsupportedCompression(method));
        }
        let crc = read_u32(cd, cursor + 16)?;
        let size = read_u32(cd, cursor + 24)?;
        let name_len = read_u16(cd, cursor + 28)? as usize;
        let extra_len = read_u16(cd, cursor + 30)? as usize;
        let comment_len = read_u16(cd, cursor + 32)? as usize;
        let local_offset = read_u32(cd, cursor + 42)?;
        let name_start = cursor + 46;
        let name_bytes = slice(cd, name_start, name_len, "central directory entry name")?;
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| ArchiveError::InvalidEntryName)?
            .to_string();
        validate_entry_name(&name)?;
        if index.insert(name.clone(), entries.len()).is_some() {
            return Err(ArchiveError::DuplicateEntry(name));
        }
        entries.push(ZipEntry {
            name,
            size,
            crc,
            offset: local_offset,
        });
        cursor = name_start + name_len + extra_len + comment_len;
        if cursor > cd.len() {
            return Err(ArchiveError::Truncated("central directory entry"));
        }
    }
    if entries.len() != declared {
        return Err(ArchiveError::EntryCountMismatch {
            declared,
            walked: entries.len(),
        });
    }
    Ok((entries, index))
}

fn find_end_of_central_directory(data: &[u8]) -> Result<usize> {
    // The EOCD record is 22 bytes plus an optional comment of up to 65535
    // bytes; scan backwards for its signature.
    if data.len() < 22 {
        return Err(ArchiveError::MissingEndOfCentralDirectory);
    }
    let min = data.len().saturating_sub(22 + 65_535);
    let mut pos = data.len() - 22;
    loop {
        if read_u32(data, pos)? == END_OF_CENTRAL_DIR_SIG {
            return Ok(pos);
        }
        if pos == min {
            return Err(ArchiveError::MissingEndOfCentralDirectory);
        }
        pos -= 1;
    }
}

pub(crate) fn slice<'a>(
    data: &'a [u8],
    start: usize,
    len: usize,
    what: &'static str,
) -> Result<&'a [u8]> {
    data.get(
        start
            ..start
                .checked_add(len)
                .ok_or(ArchiveError::Truncated(what))?,
    )
    .ok_or(ArchiveError::Truncated(what))
}

pub(crate) fn read_u16(data: &[u8], offset: usize) -> Result<u16> {
    let b = slice(data, offset, 2, "u16 field")?;
    Ok(u16::from_le_bytes([b[0], b[1]]))
}

pub(crate) fn read_u32(data: &[u8], offset: usize) -> Result<u32> {
    let b = slice(data, offset, 4, "u32 field")?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::ZipWriter;

    fn sample() -> Vec<u8> {
        let mut w = ZipWriter::new();
        w.add_file("train.json", b"{\"name\":\"Training\"}")
            .unwrap();
        w.add_file("modules/ddos.json", b"{\"name\":\"DDoS\"}")
            .unwrap();
        w.finish().unwrap()
    }

    #[test]
    fn rejects_eocd_entry_count_mismatch() {
        // The sample holds 2 entries; the EOCD count field is at EOCD+10.
        // An understating count (what the old `as u16` truncation produced
        // for >65,535-entry archives) must be rejected, not silently obeyed.
        for wrong in [0u16, 1, 3, 200] {
            let mut bytes = sample();
            let eocd = bytes.len() - 22;
            bytes[eocd + 10..eocd + 12].copy_from_slice(&wrong.to_le_bytes());
            assert_eq!(
                ZipReader::parse(&bytes).unwrap_err(),
                ArchiveError::EntryCountMismatch {
                    declared: wrong as usize,
                    walked: 2
                },
                "declared {wrong}"
            );
        }
    }

    #[test]
    fn reads_entries_and_text() {
        let bytes = sample();
        let r = ZipReader::parse(&bytes).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(
            r.read_text("train.json").unwrap(),
            "{\"name\":\"Training\"}"
        );
        assert_eq!(r.entries()[1].name, "modules/ddos.json");
        assert_eq!(r.entries()[1].size, 15);
    }

    #[test]
    fn unknown_entry_errors() {
        let bytes = sample();
        let r = ZipReader::parse(&bytes).unwrap();
        assert_eq!(
            r.read("missing.json").unwrap_err(),
            ArchiveError::EntryNotFound("missing.json".to_string())
        );
    }

    #[test]
    fn rejects_non_zip_data() {
        assert_eq!(
            ZipReader::parse(b"this is not a zip").unwrap_err(),
            ArchiveError::MissingEndOfCentralDirectory
        );
        assert_eq!(
            ZipReader::parse(b"").unwrap_err(),
            ArchiveError::MissingEndOfCentralDirectory
        );
    }

    #[test]
    fn detects_corrupted_entry_data() {
        let mut bytes = sample();
        // Flip a byte inside the first entry's data region (after the 30-byte
        // header + 10-byte name).
        bytes[30 + 10 + 2] ^= 0xFF;
        match ZipReader::parse(&bytes) {
            Err(ArchiveError::CrcMismatch { name, .. }) => assert_eq!(name, "train.json"),
            other => panic!("expected CRC mismatch, got {other:?}"),
        }
    }

    #[test]
    fn detects_truncated_archive() {
        let bytes = sample();
        let truncated = &bytes[..bytes.len() - 10];
        assert!(ZipReader::parse(truncated).is_err());
    }

    #[test]
    fn rejects_deflate_entries() {
        let mut bytes = sample();
        // Patch the compression method of the first central directory entry.
        // Find central dir by signature scan.
        let sig = CENTRAL_DIR_HEADER_SIG.to_le_bytes();
        let pos = bytes.windows(4).position(|w| w == sig).unwrap();
        bytes[pos + 10] = 8; // deflate
        assert_eq!(
            ZipReader::parse(&bytes).unwrap_err(),
            ArchiveError::UnsupportedCompression(8)
        );
    }
}
