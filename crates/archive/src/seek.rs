//! Reading stored-entry ZIP archives from a seekable source.
//!
//! [`ZipReader`](crate::ZipReader) needs the whole archive in memory and
//! validates every entry's CRC up front — right for module bundles, wrong for
//! hour-long window recordings that should stream from disk one window at a
//! time. [`SeekZipReader`] parses only the end-of-central-directory record
//! and the central directory eagerly (a tail read plus one directory read),
//! then reads and CRC-checks individual entries on demand with one seek each,
//! so memory use is bounded by the directory and the largest single entry
//! rather than the archive size.

use crate::crc32::crc32;
use crate::error::{ArchiveError, Result};
use crate::reader::{read_u16, read_u32, walk_central_directory, ZipEntry};
use crate::writer::{CENTRAL_DIR_HEADER_SIG, END_OF_CENTRAL_DIR_SIG, LOCAL_FILE_HEADER_SIG};
use std::collections::BTreeMap;
use std::io::{Read, Seek, SeekFrom};

/// The fixed portion of the end-of-central-directory record.
const EOCD_LEN: usize = 22;
/// An EOCD record may be followed by a comment of up to 65,535 bytes.
const MAX_COMMENT: usize = 65_535;

/// A ZIP archive parsed from a seekable source (`std::fs::File`,
/// `std::io::Cursor`, …), reading entries lazily.
///
/// The central directory is walked and validated at construction — the same
/// checks as [`ZipReader`](crate::ZipReader), including the declared-count
/// cross-check — but entry payloads stay on disk until [`read`](Self::read)
/// is called, which validates the local header and the CRC of just that
/// entry. Unlike `ZipReader`, corruption inside an entry is therefore only
/// detected when the entry is actually read.
#[derive(Debug)]
pub struct SeekZipReader<R: Read + Seek> {
    source: R,
    /// The source's length, measured at parse: no entry can hold more than
    /// the bytes past its header, whatever the directory claims.
    source_len: u64,
    entries: Vec<ZipEntry>,
    index: BTreeMap<String, usize>,
}

impl<R: Read + Seek> SeekZipReader<R> {
    /// Parse the end-of-central-directory record and central directory from
    /// a seekable source.
    pub fn parse(mut source: R) -> Result<Self> {
        let total = source.seek(SeekFrom::End(0))?;
        if total < EOCD_LEN as u64 {
            return Err(ArchiveError::MissingEndOfCentralDirectory);
        }
        // Read the archive tail (EOCD plus the largest possible comment) and
        // scan backwards for the signature, exactly like the in-memory path.
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

        Ok(SeekZipReader {
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

    #[test]
    fn reads_entries_lazily_from_a_cursor() {
        let bytes = sample();
        let mut r = SeekZipReader::parse(Cursor::new(&bytes)).unwrap();
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert!(r.has_entry("train.json"));
        assert!(!r.has_entry("missing.json"));
        assert_eq!(
            r.entry_names().collect::<Vec<_>>(),
            vec!["train.json", "modules/ddos.json"]
        );
        assert_eq!(
            r.read_text("train.json").unwrap(),
            "{\"name\":\"Training\"}"
        );
        // Entries can be read repeatedly and in any order.
        assert_eq!(r.read("modules/ddos.json").unwrap(), b"{\"name\":\"DDoS\"}");
        assert_eq!(r.read("train.json").unwrap().len(), 19);
        assert_eq!(
            r.read("nope.json").unwrap_err(),
            ArchiveError::EntryNotFound("nope.json".to_string())
        );
    }

    #[test]
    fn matches_the_in_memory_reader_on_every_entry() {
        let mut w = ZipWriter::new();
        for i in 0..50 {
            w.add_file(&format!("e/{i:03}.bin"), format!("payload {i}").as_bytes())
                .unwrap();
        }
        let bytes = w.finish().unwrap();
        let eager = crate::ZipReader::parse(&bytes).unwrap();
        let mut lazy = SeekZipReader::parse(Cursor::new(&bytes)).unwrap();
        assert_eq!(eager.len(), lazy.len());
        for name in eager.entry_names().map(str::to_string).collect::<Vec<_>>() {
            assert_eq!(eager.read(&name).unwrap(), lazy.read(&name).unwrap());
        }
    }

    #[test]
    fn corruption_is_detected_at_entry_read_time() {
        let mut bytes = sample();
        // Flip a byte inside the first entry's data (30-byte header + name).
        bytes[30 + 10 + 2] ^= 0xFF;
        // Parsing still succeeds: the directory is intact.
        let mut r = SeekZipReader::parse(Cursor::new(&bytes)).unwrap();
        match r.read("train.json") {
            Err(ArchiveError::CrcMismatch { name, .. }) => assert_eq!(name, "train.json"),
            other => panic!("expected CRC mismatch, got {other:?}"),
        }
        // The other entry remains readable.
        assert!(r.read("modules/ddos.json").is_ok());
    }

    #[test]
    fn rejects_non_zip_sources() {
        assert_eq!(
            SeekZipReader::parse(Cursor::new(b"this is not a zip".to_vec())).unwrap_err(),
            ArchiveError::MissingEndOfCentralDirectory
        );
        assert_eq!(
            SeekZipReader::parse(Cursor::new(Vec::new())).unwrap_err(),
            ArchiveError::MissingEndOfCentralDirectory
        );
    }

    #[test]
    fn rejects_declared_count_mismatch() {
        let mut bytes = sample();
        let eocd = bytes.len() - 22;
        bytes[eocd + 10..eocd + 12].copy_from_slice(&7u16.to_le_bytes());
        assert_eq!(
            SeekZipReader::parse(Cursor::new(&bytes)).unwrap_err(),
            ArchiveError::EntryCountMismatch {
                declared: 7,
                walked: 2
            }
        );
    }

    #[test]
    fn oversized_declared_entry_errors_cleanly() {
        // Patch the first central-directory entry's size field to claim more
        // data than the archive holds: the read must report truncation (via
        // read_exact), not panic or hand back short data.
        let mut bytes = sample();
        let eocd = bytes.len() - 22;
        let cd_offset =
            u32::from_le_bytes(bytes[eocd + 16..eocd + 20].try_into().unwrap()) as usize;
        let size_field = cd_offset + 24;
        bytes[size_field..size_field + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut r = SeekZipReader::parse(Cursor::new(&bytes)).unwrap();
        assert_eq!(
            r.read("train.json").unwrap_err(),
            ArchiveError::Truncated("entry data")
        );
    }

    #[test]
    fn a_four_gib_entry_claim_allocates_no_more_than_the_archive() {
        let mut bytes = sample();
        let eocd = bytes.len() - 22;
        let cd_offset =
            u32::from_le_bytes(bytes[eocd + 16..eocd + 20].try_into().unwrap()) as usize;
        let size_field = cd_offset + 24;
        bytes[size_field..size_field + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut r = SeekZipReader::parse(Cursor::new(&bytes)).unwrap();
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
        let mut r = SeekZipReader::parse(Cursor::new(&bytes)).unwrap();
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
            SeekZipReader::parse(Cursor::new(&bytes)).unwrap_err(),
            ArchiveError::BadSignature(_, _)
        ));
    }

    #[test]
    fn empty_archive_parses() {
        let bytes = ZipWriter::new().finish().unwrap();
        let r = SeekZipReader::parse(Cursor::new(&bytes)).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn reads_from_a_real_file() {
        let dir = std::env::temp_dir().join(format!("tw-archive-seek-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.zip");
        std::fs::write(&path, sample()).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let mut r = SeekZipReader::parse(std::io::BufReader::new(file)).unwrap();
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
