//! The `prfpga` binary's argument checking: a bad value, a misspelled
//! flag or a flag with no value must stop the command with a message,
//! never fall back to a default.

use std::process::{Command, Output};

fn prfpga(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_prfpga"))
        .args(args)
        .output()
        .expect("run prfpga")
}

/// Runs `args`, asserts a non-zero exit, and returns stderr.
fn rejected(args: &[&str]) -> String {
    let out = prfpga(args);
    assert!(!out.status.success(), "{args:?} exited 0");
    String::from_utf8(out.stderr).unwrap()
}

#[test]
fn unparsable_value_is_an_error() {
    let err = rejected(&["defrag", "--tasks", "abc"]);
    assert!(err.contains("bad --tasks"), "{err}");
}

#[test]
fn unknown_flag_is_an_error() {
    let err = rejected(&["defrag", "--dpeth", "3"]);
    assert!(err.contains("unknown flag --dpeth"), "{err}");
}

#[test]
fn flag_without_value_is_an_error() {
    let err = rejected(&["sweep", "--json"]);
    assert!(err.contains("--json needs a value"), "{err}");
    let err = rejected(&["sweep", "--json", "--metrics", "m.json"]);
    assert!(err.contains("--json needs a value"), "{err}");
}

#[test]
fn stray_argument_is_an_error() {
    let err = rejected(&["plan", "xc5vlx110t", "fir", "--prm", "fir"]);
    assert!(err.contains("unexpected argument"), "{err}");
}

#[test]
fn valid_flags_still_run() {
    let out = prfpga(&["plan", "xc5vlx110t", "--prm", "fir"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("H=5"), "{stdout}");
}
