//! `mpmc` refuses a missing option value, or another option where the
//! value belongs, with exit 2 before it does any work, so a slip on the
//! command line cannot write a file named after an option.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh empty directory under the target's temp dir, named per case.
fn empty_dir(case: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("mpmc_args_{case}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn option_in_place_of_a_value_exits_2_naming_it_and_writes_nothing() {
    let profile = ["profile", "gzip", "--machine", "workstation", "--sets", "32"];
    let cases: [(&str, Vec<&str>, &str); 5] = [
        ("out_is_a_flag", [&profile[..], &["--out", "--fast"]].concat(), "--out"),
        ("out_missing", [&profile[..], &["--fast", "--out"]].concat(), "--out"),
        (
            "machine_is_an_option",
            vec!["profile", "gzip", "--machine", "--out", "g.prof"],
            "--machine",
        ),
        ("trace_out_is_an_option", vec!["trace", "twolf", "--out", "--steps", "2000"], "--out"),
        ("power_is_an_option", vec!["serve", "--stdio", "--power", "--workers", "2"], "--power"),
    ];
    for (case, args, name) in cases {
        let dir = empty_dir(case);
        let out = Command::new(env!("CARGO_BIN_EXE_mpmc"))
            .args(&args)
            .current_dir(&dir)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(name), "{args:?}: {stderr}");
        let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
    }
}
