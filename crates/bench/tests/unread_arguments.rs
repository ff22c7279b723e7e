//! Every experiment driver refuses an argument it does not read, naming
//! it, before any solve runs: a misspelt flag or a stale argument layout
//! must fail loudly instead of running a different experiment.

use std::process::{Command, Output};

const DRIVERS: [(&str, &str); 15] = [
    ("exp_all", env!("CARGO_BIN_EXE_exp_all")),
    ("exp_attacker", env!("CARGO_BIN_EXE_exp_attacker")),
    ("exp_chaos", env!("CARGO_BIN_EXE_exp_chaos")),
    ("exp_exploration", env!("CARGO_BIN_EXE_exp_exploration")),
    ("exp_fig1", env!("CARGO_BIN_EXE_exp_fig1")),
    ("exp_fig2", env!("CARGO_BIN_EXE_exp_fig2")),
    ("exp_fleet", env!("CARGO_BIN_EXE_exp_fleet")),
    ("exp_hardness", env!("CARGO_BIN_EXE_exp_hardness")),
    ("exp_online", env!("CARGO_BIN_EXE_exp_online")),
    ("exp_scale", env!("CARGO_BIN_EXE_exp_scale")),
    ("exp_table3", env!("CARGO_BIN_EXE_exp_table3")),
    ("exp_table4", env!("CARGO_BIN_EXE_exp_table4")),
    ("exp_table5", env!("CARGO_BIN_EXE_exp_table5")),
    ("exp_table6", env!("CARGO_BIN_EXE_exp_table6")),
    ("exp_table7", env!("CARGO_BIN_EXE_exp_table7")),
];

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .expect("driver spawns")
}

/// Assert that the run failed and that its stderr contains `needle`.
fn assert_refused(what: &str, out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{what} was accepted:\n{stderr}");
    assert!(
        stderr.contains(needle),
        "{what} must name {needle}:\n{stderr}"
    );
}

#[test]
fn every_driver_refuses_an_unknown_flag() {
    for (name, exe) in DRIVERS {
        let out = run(exe, &["--no-such-flag"]);
        assert_refused(name, &out, "'--no-such-flag'");
    }
}

#[test]
fn exp_online_refuses_the_old_thread_argument() {
    let exe = env!("CARGO_BIN_EXE_exp_online");
    assert_refused("exp_online 3 1", &run(exe, &["3", "1"]), "'1'");
}

#[test]
fn exp_online_refuses_a_checkpoint_epoch_without_a_directory() {
    let exe = env!("CARGO_BIN_EXE_exp_online");
    let out = run(exe, &["3", "--checkpoint-epoch", "2"]);
    assert_refused("--checkpoint-epoch alone", &out, "--checkpoint-epoch");
}
