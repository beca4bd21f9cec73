//! Process-level exit codes of `usd-sim`: argument errors exit 2 with a
//! `usd-sim: …` message on stderr, before any simulation work starts.

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
        "expected agent|count|batch|graph|batchgraph|seq|skip|replica",
    );
}
