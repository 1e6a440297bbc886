//! The checked-in golden snapshots under `tests/golden/`: one routine
//! compares a rendering against its fixture, and rewrites the fixture
//! instead when `SMART_UPDATE_GOLDEN` is set, so an intended change
//! shows up as a reviewable diff of the file.

/// Join `lines` into a snapshot, each line ending in `\n`.
pub fn lines<S: AsRef<str>>(lines: impl IntoIterator<Item = S>) -> String {
    lines.into_iter().fold(String::new(), |mut out, line| {
        out.push_str(line.as_ref());
        out.push('\n');
        out
    })
}

/// Assert that `got` equals the fixture `tests/golden/<name>`; `what`
/// names the snapshot in the failure message. With
/// `SMART_UPDATE_GOLDEN` set, a differing fixture is rewritten with
/// `got` and the test fails once, asking for a rerun without it.
///
/// # Panics
///
/// Panics when `got` differs from the fixture, or after rewriting it.
pub fn check(name: &str, got: &str, what: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    if got != expected && std::env::var_os("SMART_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, got).expect("rewrite golden fixture");
        panic!("golden fixture updated at {path}; rerun without SMART_UPDATE_GOLDEN");
    }
    assert_eq!(
        got, expected,
        "{what} drifted from the golden snapshot; if the change is \
         intentional, regenerate with SMART_UPDATE_GOLDEN=1"
    );
}
