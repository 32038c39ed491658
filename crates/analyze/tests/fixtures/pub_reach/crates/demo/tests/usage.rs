//! Integration tests name items, but test code reaches nothing.

#[test]
fn only_tested_from_outside() {
    assert_eq!(demo::only_tested(), 1);
    let _ = demo::OnlyInProse;
}
