//! Determinism across processes: the same run in two child processes
//! prints byte-identical reports. Std's `RandomState` seeds every process
//! differently, so a decision that hung on hash-map iteration order would
//! show up here as two different reports.

use std::process::Command;

/// Runs the `pagecross` binary with `args` and returns its stdout.
fn report(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_pagecross"))
        .args(args)
        .output()
        .expect("spawn pagecross");
    assert!(
        out.status.success(),
        "pagecross {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn assert_same_in_two_processes(args: &[&str]) {
    let first = report(args);
    let second = report(args);
    assert!(!first.is_empty(), "pagecross {args:?} printed nothing");
    assert!(
        first == second,
        "pagecross {args:?} printed two different reports:\n{}\n---\n{}",
        String::from_utf8_lossy(&first),
        String::from_utf8_lossy(&second)
    );
}

const RUN: [&str; 7] = [
    "run",
    "--workload",
    "gap.s00",
    "--warmup",
    "5000",
    "--instructions",
    "50000",
];

#[test]
fn berti_dripper_run_is_identical_across_processes() {
    assert_same_in_two_processes(&RUN);
}

#[test]
fn os_run_is_identical_across_processes() {
    let os = ["--os", "on", "--phys-mem", "64M", "--thp", "0.5"];
    assert_same_in_two_processes(&[&RUN[..], &os[..]].concat());
}
