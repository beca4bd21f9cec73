//! Process-level behavior of `usd-sim`: argument errors exit 2 with a
//! `usd-sim: …` message on stderr, before any simulation work starts, and
//! a replica run reports its lanes.

use std::process::{Command, Output};

fn usd_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_usd-sim"))
        .args(args)
        .output()
        .expect("spawning usd-sim")
}

fn assert_exit_2(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.starts_with("usd-sim: "), "stderr: {stderr}");
    assert!(stderr.contains(needle), "stderr: {stderr}");
}

#[test]
fn oversized_topology_exits_2_before_generating_the_graph() {
    // reg8 at n = 6·10⁸ needs 2m = 4.8·10⁹ adjacency entries, past the
    // u32 CSR offsets. Generating it would take tens of GB; the size check
    // rejects it from n alone.
    let out = usd_sim(&[
        "run",
        "--topology",
        "regular",
        "--degree",
        "8",
        "--n",
        "600000000",
    ]);
    assert_exit_2(&out, "CSR offsets");
}

#[test]
fn unknown_backend_exits_2_and_lists_the_backends() {
    let out = usd_sim(&["run", "--n", "500", "--backend", "warp"]);
    assert_exit_2(
        &out,
        "expected agent|count|batch|graph|batchgraph|skip|replica",
    );
}

#[test]
fn retired_seq_backend_exits_2() {
    let out = usd_sim(&["run", "--n", "500", "--backend", "seq"]);
    assert_exit_2(&out, "unknown backend 'seq'");
}

#[test]
fn trace_exits_2_on_replica_and_with_checkpoints() {
    let dir = std::env::temp_dir();
    let trace = dir.join(format!("usd_exit_{}.usdt", std::process::id()));
    let ckpt = dir.join(format!("usd_exit_{}.ckpt", std::process::id()));
    let (trace, ckpt) = (trace.to_str().unwrap(), ckpt.to_str().unwrap());
    let out = usd_sim(&[
        "run",
        "--n",
        "500",
        "--backend",
        "replica",
        "--trace",
        trace,
    ]);
    assert_exit_2(&out, "mixture of lanes");
    for flag in ["--checkpoint", "--resume"] {
        let out = usd_sim(&["run", "--n", "500", "--trace", trace, flag, ckpt]);
        assert_exit_2(&out, "a checkpoint carries no trajectory");
    }
    assert!(!std::path::Path::new(trace).exists());
}

/// A tied k = 2 ensemble elects both opinions across its lanes, so the
/// lane-summed counts are a mixture. The headline must still report that
/// every lane stabilized, not a frozen configuration.
#[test]
fn replica_headline_reports_the_lanes() {
    let out = usd_sim(&[
        "run",
        "--n",
        "2000",
        "--k",
        "2",
        "--bias",
        "0",
        "--seed",
        "4",
        "--backend",
        "replica",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(!stdout.contains("froze"), "stdout: {stdout}");
    assert!(
        stdout.contains("ensemble: 64/64 lanes stabilized"),
        "stdout: {stdout}"
    );
}
