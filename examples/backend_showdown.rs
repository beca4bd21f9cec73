//! Backend showdown: one USD instance, every simulation backend.
//!
//! ```text
//! cargo run --release --example backend_showdown [n] [--json [path]]
//! ```
//!
//! `--json` writes the rows to `path` (default `BENCH_showdown.json`; they
//! carry no `effective_per_s`, so they are no `bench_compare` baseline).
//!
//! Runs the same Figure-1 instance to stabilization on each backend the
//! workspace provides — per-agent, countwise, batch-leaping, the active-edge
//! graphwise engine (on the complete graph, its degenerate topology), and
//! the two USD-specialized engines — and prints interactions, winner, and
//! wall clock per backend. With the default n = 2 000 000 the batch
//! backend's sub-constant-per-interaction leaping is already visible; pass
//! a larger n (it alone handles 10⁸+ comfortably) to watch the gap widen.
//! The graphwise row materializes all C(n, 2) clique edges, so it sits out
//! once that edge list stops being demo-sized (run with n ≤ 20 000 to see
//! it; its real habitat is sparse topologies via `usd-sim run --topology`).

use plurality_consensus::prelude::*;
use sim_stats::json::ObjectWriter;
use usd_core::backend::Backend;
use usd_core::RunSpec;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut n: u64 = 2_000_000;
    let mut json: Option<String> = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        if arg == "--json" {
            json = Some(match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().unwrap().clone(),
                _ => "BENCH_showdown.json".to_string(),
            });
        } else if let Ok(v) = arg.parse() {
            n = v;
        } else {
            eprintln!("usage: backend_showdown [n] [--json [path]]");
            std::process::exit(2);
        }
    }
    let k = 4usize;
    let mut rows: Vec<String> = Vec::new();
    let config = InitialConfigBuilder::new(n, k).figure1();
    println!("instance: {config}");
    println!(
        "{:<8} {:>16} {:>12} {:>12} winner",
        "backend", "interactions", "par. time", "wall"
    );

    for backend in Backend::ALL {
        // The agentwise engine allocates per-agent state; skip it once n
        // makes that silly in a demo. The graphwise engine's degenerate
        // clique instance materializes all C(n, 2) edges — demo-sized
        // populations only.
        if backend.capabilities().topologies
            && backend != Backend::Agent
            && n > usd_core::backend::COMPLETE_GRAPH_MAX_N
        {
            println!("{:<8} {:>16}", backend.name(), "(skipped: O(n^2) edges)");
            continue;
        }
        if backend.per_agent_memory() && n > 20_000_000 {
            println!("{:<8} {:>16}", backend.name(), "(skipped: O(n) memory)");
            continue;
        }
        let mut rng = SimRng::new(7);
        let start = std::time::Instant::now();
        let result = RunSpec::new(&config).backend(backend).run(&mut rng);
        let wall = start.elapsed();
        let winner = match result.outcome {
            ConsensusOutcome::Winner(w) => format!("opinion {}", w + 1),
            ConsensusOutcome::AllUndecided => "all-undecided".to_string(),
            ConsensusOutcome::Frozen => "frozen".to_string(),
            ConsensusOutcome::Timeout => "timeout".to_string(),
        };
        println!(
            "{:<8} {:>16} {:>12.2} {:>12.2?} {}",
            backend.name(),
            result.interactions,
            result.parallel_time(n),
            wall,
            winner
        );
        let per_s = result.interactions as f64 / wall.as_secs_f64();
        let mut row = ObjectWriter::new();
        row.str("backend", backend.name())
            .str("topology", "clique")
            .u64("n", n)
            .str("mode", "stabilize")
            .f64("wall_s", wall.as_secs_f64(), 6)
            .u64("scheduled", result.interactions)
            .f64("scheduled_per_s", per_s, 1)
            .str("winner", &winner);
        rows.push(row.finish());
    }
    if let Some(path) = json {
        let mut doc = ObjectWriter::document();
        doc.str("workload", "backend_showdown").rows("rows", rows);
        std::fs::write(&path, doc.finish()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }
}
