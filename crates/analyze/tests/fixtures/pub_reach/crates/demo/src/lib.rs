//! Fixture library for the pub-reach golden test: scanned, never compiled.

/// Named only here, at its declaration: flagged.
pub fn only_declared() {}

/// Named only by the test module below and by `tests/usage.rs`: flagged.
pub fn only_tested() -> u32 {
    1
}

/// Named only in prose: a string literal and this crate's comments. Flagged.
pub struct OnlyInProse;

/// Named only on `use` lines and an `impl` header: flagged.
pub struct OnlyImported;

impl Default for OnlyImported {
    fn default() -> Self {
        Self
    }
}

/// Called by the binary crate: reached.
pub fn used_by_app() -> &'static str {
    // OnlyInProse is described here, not called.
    "OnlyInProse"
}

/// Called by a bench: reached.
pub fn used_by_bench() {}

/// Read by the extra name root: reached.
pub const USED_BY_ROOT: u32 = 3;

/// Only tests call it, but a waiver names what it serves.
// tw-analyze: allow(pub-reach, "fixture: stands in for a paper-figure API")
pub fn waived_item() {}

/// Reached by the binary, so its waiver silences nothing: a stale waiver.
// tw-analyze: allow(pub-reach, "fixture: no longer needed")
pub fn reached_and_waived() {}

/// Crate-private items are left to rustc's dead-code lint.
pub(crate) fn private_helper() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_tested_is_one() {
        assert_eq!(only_tested(), 1);
        waived_item();
    }
}
