//! An extra name root: its names reach, its own items are never checked.

pub fn never_checked() -> u32 {
    demo::USED_BY_ROOT
}
