//! The `parbox-cli` binary's error paths, run as a user runs them.

use std::process::Command;

/// Writes a small document to a fresh path under the temp directory.
fn document(name: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("parbox-cli-{}-{name}.xml", std::process::id()));
    std::fs::write(
        &path,
        "<site><item><name>x</name></item><item/><person/></site>",
    )
    .unwrap();
    path
}

#[test]
fn run_rejects_an_unknown_strategy_before_printing_anything() {
    let doc = document("bogus");
    let out = Command::new(env!("CARGO_BIN_EXE_parbox-cli"))
        .arg("run")
        .arg(&doc)
        .args(["[//item]", "--fragments", "2", "--strategy", "Bogus"])
        .output()
        .unwrap();
    std::fs::remove_file(&doc).unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown strategy \"Bogus\""), "{stderr}");
}

#[test]
fn run_accepts_every_name_it_lists() {
    let doc = document("names");
    for name in ["ParBoX", "NaiveDistributed", "auto", "Auto", "HybridParBoX"] {
        let out = Command::new(env!("CARGO_BIN_EXE_parbox-cli"))
            .arg("run")
            .arg(&doc)
            .args(["[//item]", "--fragments", "2", "--strategy", name])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    std::fs::remove_file(&doc).unwrap();
}
