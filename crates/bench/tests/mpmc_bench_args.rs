//! `mpmc-bench overload` refuses a missing or unparsable option value,
//! or another option where the value belongs, with exit 2 before it
//! starts a server, so a slip on the command line cannot write the
//! report into a directory named after an option.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh empty directory under the target's temp dir, named per case.
fn empty_dir(case: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("mpmc_bench_args_{case}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn bad_option_values_exit_2_naming_the_option_and_write_nothing() {
    let cases: [(&str, &[&str], &str); 5] = [
        ("out_is_an_option", &["overload", "--out", "--tiny"], "--out"),
        ("out_missing", &["overload", "--tiny", "--out"], "--out"),
        ("seed_is_an_option", &["overload", "--seed", "--chaos"], "--seed"),
        ("seed_unparsable", &["overload", "--seed", "forty-two"], "--seed"),
        ("seed_missing", &["overload", "--seed"], "--seed"),
    ];
    for (case, args, name) in cases {
        let dir = empty_dir(case);
        let out = Command::new(env!("CARGO_BIN_EXE_mpmc-bench"))
            .args(args)
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
