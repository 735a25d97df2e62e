//! Pins the `repro` binary's stdout byte for byte against committed golden
//! files, so any change to a printed paper table is deliberate: a change
//! that alters the output must regenerate the files and say why.
//!
//! Regenerate with
//! `cargo run --release -p rome-bench --bin repro > crates/bench/tests/golden/repro.txt`
//! (and the same with `-- --calibrated` into `repro_calibrated.txt`).

use std::path::Path;
use std::process::Command;

fn assert_matches_golden(args: &[&str], golden: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(golden);
    let expected = std::fs::read(&path).expect("golden file present");
    if out.stdout != expected {
        let got = String::from_utf8_lossy(&out.stdout);
        let want = String::from_utf8_lossy(&expected);
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "repro {args:?} differs from {} at line {}:\n  got:  {:?}\n  want: {:?}",
            path.display(),
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line),
        );
    }
}

#[test]
fn repro_output_matches_golden() {
    assert_matches_golden(&[], "repro.txt");
}

#[test]
fn calibrated_repro_output_matches_golden() {
    assert_matches_golden(&["--calibrated"], "repro_calibrated.txt");
}
