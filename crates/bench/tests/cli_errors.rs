//! `regen`'s command-line error paths, driven through the built binary.

use checkmate_bench::experiments::ALL_IDS;
use std::process::Command;

fn regen(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_regen"))
        .args(args)
        .output()
        .expect("spawn regen")
}

/// An id no experiment answers to used to run nothing and exit 0; it is
/// rejected before anything runs, with the known ids listed.
#[test]
fn unknown_experiment_id_exits_2_and_lists_the_known_ids() {
    let out = regen(&["--scale", "quick", "--exp", "fig7,fig99"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fig99"), "{stderr}");
    for id in ALL_IDS {
        assert!(stderr.contains(id), "{id} not listed in: {stderr}");
    }
    assert!(out.stdout.is_empty(), "an experiment ran before the check");
}

#[test]
fn help_exits_0() {
    let out = regen(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: regen"));
}
