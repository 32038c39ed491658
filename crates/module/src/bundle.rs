//! Module bundles: ZIP files containing multiple learning-module JSONs.
//!
//! "Learning modules consist of a zip file containing multiple JSON files that
//! the user can select and load into the game. Traffic Warehouse will take the
//! zip file and load each of the JSON files contained in it and present them
//! sequentially one at a time."

use crate::error::{ModuleError, Result};
use crate::schema::LearningModule;
use crate::validate::validate;
use std::io::Cursor;
use tw_archive::{ZipReader, ZipWriter};

/// An ordered collection of learning modules, serializable as a ZIP bundle.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ModuleBundle {
    /// Bundle display name (derived from the file name by callers).
    pub name: String,
    modules: Vec<LearningModule>,
}

impl ModuleBundle {
    /// An empty bundle with a display name.
    pub fn new(name: &str) -> Self {
        ModuleBundle {
            name: name.to_string(),
            modules: Vec::new(),
        }
    }

    /// Append a module; presentation order is append order.
    pub fn push(&mut self, module: LearningModule) {
        self.modules.push(module);
    }

    /// The modules in presentation order.
    pub fn modules(&self) -> &[LearningModule] {
        &self.modules
    }

    /// Number of modules.
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// True when the bundle has no modules.
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }

    /// True when every module passes validation with no errors.
    pub fn is_valid(&self) -> bool {
        self.modules.iter().all(|m| validate(m).is_valid())
    }

    /// Serialize to ZIP bytes. Entries are named `NN_slug.json` so the
    /// presentation order survives tools that sort entries alphabetically.
    pub fn to_zip(&self) -> Result<Vec<u8>> {
        let mut writer = ZipWriter::new();
        for (i, module) in self.modules.iter().enumerate() {
            let slug: String = module
                .name
                .chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() {
                        c.to_ascii_lowercase()
                    } else {
                        '_'
                    }
                })
                .collect();
            let entry_name = format!("{i:02}_{slug}.json");
            writer.add_file(&entry_name, module.to_json().as_bytes())?;
        }
        Ok(writer.finish()?)
    }

    /// Parse a bundle from ZIP bytes. Entries are loaded in name order (which
    /// matches authoring order for bundles produced by [`ModuleBundle::to_zip`]);
    /// non-JSON entries are rejected so a student cannot accidentally load a
    /// bundle with stray content.
    pub fn from_zip(name: &str, bytes: &[u8]) -> Result<Self> {
        let mut reader = ZipReader::parse(Cursor::new(bytes))?;
        if reader.is_empty() {
            return Err(ModuleError::EmptyBundle);
        }
        let mut entry_names: Vec<String> = reader.entry_names().map(str::to_string).collect();
        entry_names.sort();
        let mut modules = Vec::with_capacity(entry_names.len());
        for entry in &entry_names {
            if !entry.to_ascii_lowercase().ends_with(".json") {
                return Err(ModuleError::NotAModuleFile(entry.clone()));
            }
            let text = reader.read_text(entry)?;
            let module = LearningModule::from_json(&text)
                .map_err(|e| ModuleError::Invalid(format!("{entry}: {e}")))?;
            modules.push(module);
        }
        Ok(ModuleBundle {
            name: name.to_string(),
            modules,
        })
    }
}

impl FromIterator<LearningModule> for ModuleBundle {
    fn from_iter<T: IntoIterator<Item = LearningModule>>(iter: T) -> Self {
        ModuleBundle {
            name: String::new(),
            modules: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::{template_10x10, template_6x6};

    fn sample_bundle() -> ModuleBundle {
        let mut bundle = ModuleBundle::new("Templates");
        bundle.push(template_6x6());
        bundle.push(template_10x10());
        bundle
    }

    #[test]
    fn zip_round_trip_preserves_order_and_content() {
        let bundle = sample_bundle();
        let bytes = bundle.to_zip().unwrap();
        let loaded = ModuleBundle::from_zip("Templates", &bytes).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.modules()[0].name, "6x6 Template");
        assert_eq!(loaded.modules()[1].name, "10x10 Template");
        assert_eq!(loaded.modules(), bundle.modules());
        assert!(loaded.is_valid());
    }

    #[test]
    fn empty_zip_is_rejected() {
        let bytes = tw_archive::ZipWriter::new().finish().unwrap();
        assert_eq!(
            ModuleBundle::from_zip("x", &bytes).unwrap_err(),
            ModuleError::EmptyBundle
        );
        assert!(ModuleBundle::new("x").is_empty());
    }

    #[test]
    fn non_json_entries_are_rejected() {
        let mut writer = tw_archive::ZipWriter::new();
        writer.add_file("readme.txt", b"hello").unwrap();
        let bytes = writer.finish().unwrap();
        assert!(matches!(
            ModuleBundle::from_zip("x", &bytes).unwrap_err(),
            ModuleError::NotAModuleFile(name) if name == "readme.txt"
        ));
    }

    #[test]
    fn malformed_module_errors_name_the_entry() {
        let mut writer = tw_archive::ZipWriter::new();
        writer
            .add_file("00_bad.json", b"{\"name\": \"incomplete\"}")
            .unwrap();
        let bytes = writer.finish().unwrap();
        match ModuleBundle::from_zip("x", &bytes).unwrap_err() {
            ModuleError::Invalid(msg) => assert!(msg.contains("00_bad.json"), "{msg}"),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn corrupt_entries_fail_their_crc_check() {
        let mut bytes = sample_bundle().to_zip().unwrap();
        // Flip the case of one letter inside the second module's JSON: the
        // text still parses, so only the entry's CRC can catch it.
        let pos = bytes
            .windows(14)
            .position(|w| w == b"10x10 Template")
            .unwrap();
        bytes[pos + 6] ^= 0x20;
        match ModuleBundle::from_zip("x", &bytes).unwrap_err() {
            ModuleError::Archive(tw_archive::ArchiveError::CrcMismatch { name, .. }) => {
                assert!(name.starts_with("01_"), "{name}")
            }
            other => panic!("expected a CRC mismatch, got {other:?}"),
        }
    }

    #[test]
    fn validate_all_reports_only_problem_modules() {
        let mut bundle = sample_bundle();
        let mut broken = template_6x6();
        broken.matrix.set(0, 0, 99).unwrap();
        bundle.push(broken);
        let problems: Vec<usize> = bundle
            .modules()
            .iter()
            .enumerate()
            .filter(|(_, m)| !validate(m).issues.is_empty())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(problems, vec![2]);
        assert!(bundle.is_valid(), "packet-count overflow is only a warning");
    }

    #[test]
    fn from_iterator_collects_modules() {
        let bundle: ModuleBundle = vec![template_6x6(), template_10x10()].into_iter().collect();
        assert_eq!(bundle.len(), 2);
    }

    #[test]
    fn bundles_are_deterministic() {
        assert_eq!(
            sample_bundle().to_zip().unwrap(),
            sample_bundle().to_zip().unwrap()
        );
    }
}
