//! Reading stored-entry ZIP archives from a seekable source.
//!
//! [`ZipReader`] parses only the end-of-central-directory record and the
//! central directory eagerly (a tail read plus one directory read), then
//! reads and CRC-checks individual entries on demand with one seek each, so
//! memory use is bounded by the directory and the largest single entry
//! rather than the archive size. Files are read through a
//! `BufReader<File>`; bytes already in memory through a
//! `std::io::Cursor<&[u8]>`.

use crate::crc32::crc32;
use crate::error::{ArchiveError, Result};
use crate::writer::{
    validate_entry_name, CENTRAL_DIR_HEADER_SIG, END_OF_CENTRAL_DIR_SIG, LOCAL_FILE_HEADER_SIG,
};
use std::collections::BTreeMap;
use std::io::{Read, Seek, SeekFrom};

/// The fixed portion of the end-of-central-directory record.
const EOCD_LEN: usize = 22;
/// An EOCD record may be followed by a comment of up to 65,535 bytes.
const MAX_COMMENT: usize = 65_535;

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

/// A ZIP archive parsed from a seekable source (`std::fs::File`,
/// `std::io::Cursor`, …), reading entries lazily.
///
/// The central directory is walked and validated at construction: entry
/// names, compression method, duplicates, and the entry count the EOCD
/// declares. Entry payloads stay in the source until [`read`](Self::read)
/// is called, which validates the local header and the CRC of just that
/// entry, so corruption inside an entry is detected when that entry is
/// read.
#[derive(Debug)]
pub struct ZipReader<R: Read + Seek> {
    source: R,
    /// The source's length, measured at parse: no entry can hold more than
    /// the bytes past its header, whatever the directory claims.
    source_len: u64,
    entries: Vec<ZipEntry>,
    /// Entry name → index into `entries`, so lookups are O(log n) — window
    /// recordings are looked up once per window and can hold tens of
    /// thousands of entries.
    index: BTreeMap<String, usize>,
}

impl<R: Read + Seek> ZipReader<R> {
    /// Parse the end-of-central-directory record and central directory from
    /// a seekable source.
    ///
    /// The number of directory entries actually walked must equal the count
    /// the EOCD declares, so archives whose EOCD was truncated (e.g. a
    /// 16-bit wrap of a >65,535-entry count) are rejected instead of
    /// silently losing entries.
    pub fn parse(mut source: R) -> Result<Self> {
        let total = source.seek(SeekFrom::End(0))?;
        if total < EOCD_LEN as u64 {
            return Err(ArchiveError::MissingEndOfCentralDirectory);
        }
        // Read the archive tail (EOCD plus the largest possible comment) and
        // scan backwards for the signature.
        let tail_len = (total as usize).min(EOCD_LEN + MAX_COMMENT);
        let tail_start = total - tail_len as u64;
        source.seek(SeekFrom::Start(tail_start))?;
        let mut tail = vec![0u8; tail_len];
        source.read_exact(&mut tail)?;
        let eocd_in_tail = find_eocd_in_tail(&tail)?;

        let declared = read_u16(&tail, eocd_in_tail + 10)? as usize;
        let cd_offset = read_u32(&tail, eocd_in_tail + 16)? as u64;
        let eocd_abs = tail_start + eocd_in_tail as u64;
        if cd_offset > eocd_abs {
            return Err(ArchiveError::Truncated("central directory"));
        }

        // The central directory spans [cd_offset, eocd_abs): read exactly
        // that region (it may already be inside the tail buffer, but one
        // extra bounded read keeps the logic simple and the memory bounded
        // by the directory size). Probe the first signature before
        // committing to the read: a corrupt cd_offset (e.g. zeroed) would
        // otherwise make this "bounded" reader slurp nearly the whole
        // archive just to fail in walk_central_directory.
        let cd_len = (eocd_abs - cd_offset) as usize;
        source.seek(SeekFrom::Start(cd_offset))?;
        if cd_len >= 4 {
            let mut probe = [0u8; 4];
            source.read_exact(&mut probe)?;
            let sig = read_u32(&probe, 0)?;
            if sig != CENTRAL_DIR_HEADER_SIG {
                return Err(ArchiveError::BadSignature(CENTRAL_DIR_HEADER_SIG, sig));
            }
            source.seek(SeekFrom::Start(cd_offset))?;
        }
        // `take` + read_to_end grows incrementally, so even a lying span
        // only allocates what the source actually holds.
        let mut cd = Vec::new();
        Read::take(&mut source, cd_len as u64).read_to_end(&mut cd)?;
        if cd.len() != cd_len {
            return Err(ArchiveError::Truncated("central directory"));
        }
        let (entries, index) = walk_central_directory(&cd, declared)?;

        Ok(ZipReader {
            source,
            source_len: total,
            entries,
            index,
        })
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

    /// Whether the archive contains an entry with this exact name.
    pub fn has_entry(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// An entry's size as the directory records it, capped at the bytes
    /// the source holds past the entry's offset: room a caller can reserve
    /// for [`read_into`](Self::read_into), which a corrupt directory cannot
    /// inflate past the archive. `None` for an unknown name.
    pub fn entry_len(&self, name: &str) -> Option<usize> {
        let entry = &self.entries[*self.index.get(name)?];
        Some(capped(
            entry.size,
            self.source_len.saturating_sub(u64::from(entry.offset)),
        ))
    }

    /// Read one entry's contents from the source (one seek, one bounded
    /// read), validating its local header and CRC.
    pub fn read(&mut self, name: &str) -> Result<Vec<u8>> {
        let mut data = Vec::new();
        self.read_into(name, &mut data)?;
        Ok(data)
    }

    /// Append one entry's contents to `buf` (one seek, one bounded read),
    /// validating its local header and CRC; returns the verified CRC-32.
    ///
    /// The buffer is pre-sized from the directory's entry size, capped at
    /// the bytes the source holds past the entry's header, so a corrupt
    /// directory claiming a 4 GiB entry allocates no more than the archive
    /// before failing with [`ArchiveError::Truncated`]. On any error `buf`
    /// is left as it was passed in.
    pub fn read_into(&mut self, name: &str, buf: &mut Vec<u8>) -> Result<u32> {
        let start = buf.len();
        let result = self.append_entry(name, buf);
        if result.is_err() {
            buf.truncate(start);
        }
        result
    }

    fn append_entry(&mut self, name: &str, buf: &mut Vec<u8>) -> Result<u32> {
        let entry = self
            .index
            .get(name)
            .map(|&i| &self.entries[i])
            .ok_or_else(|| ArchiveError::EntryNotFound(name.to_string()))?;
        let (entry_size, crc) = (entry.size, entry.crc);
        let size = entry_size as usize;

        self.source.seek(SeekFrom::Start(entry.offset as u64))?;
        let mut header = [0u8; 30];
        self.source
            .read_exact(&mut header)
            .map_err(|_| ArchiveError::Truncated("local file header"))?;
        let sig = read_u32(&header, 0)?;
        if sig != LOCAL_FILE_HEADER_SIG {
            return Err(ArchiveError::BadSignature(LOCAL_FILE_HEADER_SIG, sig));
        }
        let method = read_u16(&header, 8)?;
        if method != 0 {
            return Err(ArchiveError::UnsupportedCompression(method));
        }
        let name_len = read_u16(&header, 26)? as u64;
        let extra_len = read_u16(&header, 28)? as u64;
        let data_start = self
            .source
            .seek(SeekFrom::Current((name_len + extra_len) as i64))?;
        buf.reserve(capped(
            entry_size,
            self.source_len.saturating_sub(data_start),
        ));
        let start = buf.len();
        Read::take(&mut self.source, size as u64).read_to_end(buf)?;
        let data = &buf[start..];
        if data.len() != size {
            return Err(ArchiveError::Truncated("entry data"));
        }
        let actual = crc32(data);
        if actual != crc {
            return Err(ArchiveError::CrcMismatch {
                name: name.to_string(),
                expected: crc,
                actual,
            });
        }
        Ok(crc)
    }

    /// Read one entry as UTF-8 text.
    pub fn read_text(&mut self, name: &str) -> Result<String> {
        let bytes = self.read(name)?;
        String::from_utf8(bytes).map_err(|_| ArchiveError::InvalidEntryName)
    }
}

/// A directory-recorded entry size, capped at the bytes `available` in the
/// source.
fn capped(size: u32, available: u64) -> usize {
    usize::try_from(u64::from(size).min(available)).unwrap_or(usize::MAX)
}

/// Locate the EOCD signature scanning the tail buffer backwards.
fn find_eocd_in_tail(tail: &[u8]) -> Result<usize> {
    if tail.len() < EOCD_LEN {
        return Err(ArchiveError::MissingEndOfCentralDirectory);
    }
    let mut pos = tail.len() - EOCD_LEN;
    loop {
        if read_u32(tail, pos)? == END_OF_CENTRAL_DIR_SIG {
            return Ok(pos);
        }
        if pos == 0 {
            return Err(ArchiveError::MissingEndOfCentralDirectory);
        }
        pos -= 1;
    }
}

/// Walk a central directory held in `cd` (the byte range between the
/// directory's recorded offset and the end-of-central-directory record) and
/// return the validated entry table plus its name index.
fn walk_central_directory(
    cd: &[u8],
    declared: usize,
) -> Result<(Vec<ZipEntry>, BTreeMap<String, usize>)> {
    let mut entries = Vec::with_capacity(declared.min(65_535));
    let mut index = BTreeMap::new();
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

fn slice<'a>(data: &'a [u8], start: usize, len: usize, what: &'static str) -> Result<&'a [u8]> {
    data.get(
        start
            ..start
                .checked_add(len)
                .ok_or(ArchiveError::Truncated(what))?,
    )
    .ok_or(ArchiveError::Truncated(what))
}

fn read_u16(data: &[u8], offset: usize) -> Result<u16> {
    let b = slice(data, offset, 2, "u16 field")?;
    Ok(u16::from_le_bytes([b[0], b[1]]))
}

fn read_u32(data: &[u8], offset: usize) -> Result<u32> {
    let b = slice(data, offset, 4, "u32 field")?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::ZipWriter;
    use std::io::Cursor;

    fn sample() -> Vec<u8> {
        let mut w = ZipWriter::new();
        w.add_file("train.json", b"{\"name\":\"Training\"}")
            .unwrap();
        w.add_file("modules/ddos.json", b"{\"name\":\"DDoS\"}")
            .unwrap();
        w.finish().unwrap()
    }

    /// The byte offset of the archive's central directory, from its EOCD.
    fn cd_offset(bytes: &[u8]) -> usize {
        let eocd = bytes.len() - 22;
        u32::from_le_bytes(bytes[eocd + 16..eocd + 20].try_into().unwrap()) as usize
    }

    #[test]
    fn rejects_eocd_entry_count_mismatch() {
        // The sample holds 2 entries; the EOCD count field is at EOCD+10.
        // An understating count (what the old `as u16` truncation produced
        // for >65,535-entry archives) must be rejected, not silently obeyed,
        // and so must an overstating one.
        for wrong in [0u16, 1, 3, 7, 200] {
            let mut bytes = sample();
            let eocd = bytes.len() - 22;
            bytes[eocd + 10..eocd + 12].copy_from_slice(&wrong.to_le_bytes());
            assert_eq!(
                ZipReader::parse(Cursor::new(&bytes)).unwrap_err(),
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
        let mut r = ZipReader::parse(Cursor::new(&bytes)).unwrap();
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert!(r.has_entry("train.json"));
        assert!(!r.has_entry("missing.json"));
        assert_eq!(
            r.entry_names().collect::<Vec<_>>(),
            vec!["train.json", "modules/ddos.json"]
        );
        assert_eq!(r.entries()[1].name, "modules/ddos.json");
        assert_eq!(r.entries()[1].size, 15);
        assert_eq!(
            r.read_text("train.json").unwrap(),
            "{\"name\":\"Training\"}"
        );
        // Entries can be read repeatedly and in any order.
        assert_eq!(r.read("modules/ddos.json").unwrap(), b"{\"name\":\"DDoS\"}");
        assert_eq!(r.read("train.json").unwrap().len(), 19);
    }

    #[test]
    fn unknown_entry_errors() {
        let bytes = sample();
        let mut r = ZipReader::parse(Cursor::new(&bytes)).unwrap();
        assert_eq!(
            r.read("missing.json").unwrap_err(),
            ArchiveError::EntryNotFound("missing.json".to_string())
        );
        let mut buf = b"kept".to_vec();
        assert_eq!(
            r.read_into("missing.json", &mut buf).unwrap_err(),
            ArchiveError::EntryNotFound("missing.json".to_string())
        );
        assert_eq!(buf, b"kept");
        // The reader stays usable after a miss.
        assert!(r.read("train.json").is_ok());
    }

    #[test]
    fn detects_corrupted_entry_data() {
        let mut bytes = sample();
        // Flip a byte inside the first entry's data (30-byte header + name).
        bytes[30 + 10 + 2] ^= 0xFF;
        // Parsing still succeeds: the directory is intact.
        let mut r = ZipReader::parse(Cursor::new(&bytes)).unwrap();
        match r.read("train.json") {
            Err(ArchiveError::CrcMismatch { name, .. }) => assert_eq!(name, "train.json"),
            other => panic!("expected CRC mismatch, got {other:?}"),
        }
        // The other entry remains readable.
        assert!(r.read("modules/ddos.json").is_ok());
    }

    #[test]
    fn rejects_non_zip_data() {
        for input in [b"this is not a zip".to_vec(), Vec::new()] {
            assert_eq!(
                ZipReader::parse(Cursor::new(&input)).unwrap_err(),
                ArchiveError::MissingEndOfCentralDirectory
            );
        }
    }

    #[test]
    fn detects_truncated_archive() {
        // Cutting the tail loses the EOCD record; cutting inside it leaves
        // too few bytes to hold one.
        let bytes = sample();
        for cut in [1, 10, 21, bytes.len() - 1] {
            let truncated = &bytes[..bytes.len() - cut];
            assert!(
                ZipReader::parse(Cursor::new(truncated)).is_err(),
                "cut {cut} bytes"
            );
        }
    }

    #[test]
    fn rejects_deflate_entries() {
        // Deflate in the central directory is rejected at parse...
        let mut bytes = sample();
        let method_field = cd_offset(&bytes) + 10;
        bytes[method_field] = 8;
        assert_eq!(
            ZipReader::parse(Cursor::new(&bytes)).unwrap_err(),
            ArchiveError::UnsupportedCompression(8)
        );
        // ...and deflate in a local header at that entry's read.
        let mut bytes = sample();
        bytes[8] = 8;
        let mut r = ZipReader::parse(Cursor::new(&bytes)).unwrap();
        assert_eq!(
            r.read("train.json").unwrap_err(),
            ArchiveError::UnsupportedCompression(8)
        );
    }

    #[test]
    fn oversized_declared_entry_errors_cleanly() {
        // Patch the first central-directory entry's size field to claim more
        // data than the archive holds: the read must report truncation (via
        // read_exact), not panic or hand back short data.
        let mut bytes = sample();
        let size_field = cd_offset(&bytes) + 24;
        bytes[size_field..size_field + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut r = ZipReader::parse(Cursor::new(&bytes)).unwrap();
        assert_eq!(
            r.read("train.json").unwrap_err(),
            ArchiveError::Truncated("entry data")
        );
    }

    #[test]
    fn a_four_gib_entry_claim_allocates_no_more_than_the_archive() {
        let mut bytes = sample();
        let size_field = cd_offset(&bytes) + 24;
        bytes[size_field..size_field + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut r = ZipReader::parse(Cursor::new(&bytes)).unwrap();
        assert!(r.entry_len("train.json").unwrap() <= bytes.len());
        assert_eq!(r.entry_len("nope.json"), None);
        let mut buf = b"kept".to_vec();
        assert_eq!(
            r.read_into("train.json", &mut buf).unwrap_err(),
            ArchiveError::Truncated("entry data")
        );
        assert_eq!(buf, b"kept", "a failed read leaves the buffer as it was");
        assert!(
            buf.capacity() <= 4 + bytes.len(),
            "reserved {} bytes for a {}-byte archive",
            buf.capacity(),
            bytes.len()
        );
    }

    #[test]
    fn read_into_appends_and_returns_the_verified_crc() {
        let bytes = sample();
        let mut r = ZipReader::parse(Cursor::new(&bytes)).unwrap();
        let mut buf = b"head".to_vec();
        assert_eq!(r.entry_len("modules/ddos.json"), Some(15));
        let crc = r.read_into("modules/ddos.json", &mut buf).unwrap();
        assert_eq!(buf, b"head{\"name\":\"DDoS\"}");
        assert_eq!(crc, crc32(b"{\"name\":\"DDoS\"}"));
        assert_eq!(
            Some(crc),
            r.entries()
                .iter()
                .find(|e| e.name == "modules/ddos.json")
                .map(|e| e.crc)
        );
    }

    #[test]
    fn corrupt_central_directory_offset_fails_fast() {
        // Zero the EOCD's central-directory offset: the 4-byte signature
        // probe must reject it (BadSignature) instead of buffering the span
        // from offset 0 to the EOCD.
        let mut bytes = sample();
        let eocd = bytes.len() - 22;
        bytes[eocd + 16..eocd + 20].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            ZipReader::parse(Cursor::new(&bytes)).unwrap_err(),
            ArchiveError::BadSignature(_, _)
        ));
    }

    #[test]
    fn reads_from_a_real_file() {
        let dir = std::env::temp_dir().join(format!("tw-archive-reader-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.zip");
        std::fs::write(&path, sample()).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let mut r = ZipReader::parse(std::io::BufReader::new(file)).unwrap();
        assert_eq!(
            r.read_text("train.json").unwrap(),
            "{\"name\":\"Training\"}"
        );
        std::fs::remove_dir_all(&dir).ok();
        // Missing files surface as Io errors through the From impl.
        let missing = std::fs::File::open(dir.join("gone.zip"));
        assert!(missing.is_err());
        let err: ArchiveError = missing.unwrap_err().into();
        assert!(matches!(err, ArchiveError::Io(_)));
        assert!(err.to_string().contains("archive I/O"));
    }
}
