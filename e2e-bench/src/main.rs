//! End-to-end and per-layer benchmark of USD stabilization runs.
//!
//! ```text
//! usd-e2e-bench --workload <name> --seed <u64> --seconds <s> --trace <0|1>
//!               [--usd-sim <path>]
//! ```
//!
//! Each iteration runs the workload's fixed seed list (derived from
//! `--seed`) to stabilization; iterations repeat until `--seconds` is
//! spent. Every time reported is, per seed, the median over the run's
//! iterations, summed over the seed list. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` interleaves traced iterations with
//! untraced ones and prints the per-layer metrics.
//! `--usd-sim` names the CLI binary the traced mode spawns. The last line
//! of standard output is the JSON result; see `README.md` beside this
//! package for the metric map.

mod report;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use report::{median, seed_sum, Metric, Report};
use workload::{SeedRun, TracedRun, Workload};

/// Fewest iterations an untraced run makes, however long they take. A
/// traced run makes at least one traced and one untraced iteration.
const MIN_ITERS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    usd_sim: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut usd_sim = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::find(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--usd-sim" => usd_sim = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        usd_sim,
    })
}

/// Runs attempted and runs that failed a check; each failure is logged.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, what: &str, verdict: &Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            println!("FAIL {what}: {e}");
        }
    }
}

/// Whether two runs of one seed did the same work and ended the same way.
fn same_run(a: &SeedRun, b: &SeedRun) -> Result<(), String> {
    if (a.scheduled, a.effective, a.result) == (b.scheduled, b.effective, b.result) {
        Ok(())
    } else {
        Err(format!(
            "scheduled/effective {}/{} vs {}/{} ({:?} vs {:?})",
            a.scheduled, a.effective, b.scheduled, b.effective, a.result, b.result
        ))
    }
}

/// The result of one benchmark run: its metrics and the run tally.
struct Outcome {
    report: Report,
    tally: Tally,
}

/// Run workload `w` for about `seconds`, untraced or traced, and gather
/// its metrics. `usd_sim` is the CLI binary the traced mode spawns (its
/// metrics read 0 without one).
fn measure(w: &Workload, seed: u64, seconds: f64, trace: bool, usd_sim: Option<&Path>) -> Outcome {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let threads = w.threads.min(nproc);
    let seeds = w.seeds(seed);
    let config = w.config();
    println!("{}", report::fingerprint(nproc, threads));
    println!(
        "workload {} n={} k={} backend={} seeds={} trace={}",
        w.name,
        w.n,
        config.k(),
        w.backend,
        seeds.len(),
        u8::from(trace)
    );

    let min_iters = if trace { 1 } else { MIN_ITERS };
    let mut tally = Tally::default();
    // Iterations × seeds; every iteration replays the same seed list.
    let mut plain: Vec<Vec<SeedRun>> = Vec::new();
    let mut traced: Vec<Vec<TracedRun>> = Vec::new();
    let start = Instant::now();
    loop {
        let iter_start = Instant::now();
        let runs: Vec<SeedRun> = seeds
            .iter()
            .map(|&s| w.run_plain(&config, s, threads))
            .collect();
        for (i, run) in runs.iter().enumerate() {
            // Same seed, same trajectory, every iteration.
            let verdict = match plain.first() {
                Some(first) => run.verdict.clone().and_then(|_| same_run(&first[i], run)),
                None => run.verdict.clone(),
            };
            tally.record(&format!("seed {} untraced", seeds[i].rng), &verdict);
            if plain.is_empty() {
                println!(
                    "  seed {}: {} interactions, {:?}",
                    seeds[i].rng, run.scheduled, run.result.outcome
                );
            }
        }
        println!(
            "iter {}: setup {:.4} s, run {:.4} s, total {:.4} s",
            plain.len(),
            runs.iter().map(|r| r.setup_s).sum::<f64>(),
            runs.iter().map(|r| r.run_s).sum::<f64>(),
            runs.iter().map(|r| r.total_s).sum::<f64>(),
        );
        plain.push(runs);
        if trace {
            let runs: Vec<TracedRun> = seeds
                .iter()
                .map(|&s| w.run_traced(&config, s, threads))
                .collect();
            for (i, run) in runs.iter().enumerate() {
                let verdict = run
                    .plain
                    .verdict
                    .clone()
                    .and_then(|_| same_run(&plain[0][i], &run.plain));
                tally.record(&format!("seed {} traced", seeds[i].rng), &verdict);
            }
            traced.push(runs);
        }
        let elapsed = start.elapsed().as_secs_f64();
        let last = iter_start.elapsed().as_secs_f64();
        if plain.len() >= min_iters && elapsed + last > seconds {
            break;
        }
    }

    // The split build + drive must give what the one-shot RunSpec gives.
    if let Some(oneshot) = w.run_oneshot(&config, seeds[0], threads) {
        let split = plain[0][0].result;
        let verdict = if oneshot == split {
            Ok(())
        } else {
            Err(format!("split {split:?} vs one-shot RunSpec {oneshot:?}"))
        };
        tally.record("build_simulator + drive vs RunSpec", &verdict);
    }

    let mut out = Report::default();
    let total_s = seed_sum(&plain, |r| r.total_s);
    if trace {
        let cli_args = report::cli_args(w, &config, seeds[0], threads);
        let cli = usd_sim.zip(cli_args).map(|(bin, cli_args)| {
            let (verdict, process_s) = report::spawn_cli(bin, &cli_args, &plain[0][0]);
            tally.record("usd-sim run", &verdict);
            process_s
        });
        // The first seed's in-process setup_s + run_s.
        let first_setup_run = median(plain.iter().map(|runs| runs[0].setup_s + runs[0].run_s));
        report::per_layer(&mut out, &traced, cli, first_setup_run);
        out.push(Metric::secs(
            "trace.overhead_s",
            seed_sum(&traced, |r| r.plain.total_s) - total_s,
        ));
    } else {
        let run_s = seed_sum(&plain, |r| r.run_s);
        let scheduled: u64 = plain[0].iter().map(|r| r.scheduled).sum();
        out.push(Metric::secs("setup_s", seed_sum(&plain, |r| r.setup_s)));
        out.push(Metric::secs("run_s", run_s));
        out.push(Metric::secs("total_s", total_s));
        out.push(Metric::new(
            "interactions_per_s",
            scheduled as f64 / run_s,
            "1/s",
        ));
        out.push(Metric::new("peak_rss_mb", report::peak_rss_mb(), "MB"));
        out.push(Metric::new(
            "success_ratio",
            (tally.attempted - tally.failed) as f64 / tally.attempted as f64,
            "ratio",
        ));
    }
    println!(
        "{} iterations in {:.2} s; {} of {} runs failed a check",
        plain.len(),
        start.elapsed().as_secs_f64(),
        tally.failed,
        tally.attempted
    );
    Outcome { report: out, tally }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usd-e2e-bench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace && args.usd_sim.is_none() {
        eprintln!("usd-e2e-bench: --trace 1 needs --usd-sim");
        return ExitCode::from(2);
    }
    let Outcome { report, tally } = measure(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        args.usd_sim.as_deref(),
    );
    for m in report.metrics() {
        println!("{:<34} {:>22} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json(tally.attempted, tally.failed));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use usd_core::Backend;
    use workload::{Kind, WORKLOADS};

    /// `(name, unit)` of every entry listed under `key` in the repository's
    /// `BENCHMARK.json`, in order.
    fn listed(key: &str) -> Vec<(String, Option<String>)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let at = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let list = &json[at..];
        let list = &list[list.find('[').expect("a list") + 1..list.find(']').expect("closed")];
        let field = |entry: &str, f: &str| {
            let rest = &entry[entry.find(&format!("\"{f}\""))? + f.len() + 2..];
            let rest = &rest[rest.find('"')? + 1..];
            Some(rest[..rest.find('"')?].to_string())
        };
        list.split('}')
            .filter_map(|entry| Some((field(entry, "name")?, field(entry, "unit"))))
            .collect()
    }

    fn printed(report: &Report) -> Vec<(String, Option<String>)> {
        report
            .metrics()
            .iter()
            .map(|m| (m.name.to_string(), Some(m.unit.to_string())))
            .collect()
    }

    #[test]
    fn workload_definitions_are_pinned() {
        let pinned = [
            ("reg8-1m", Kind::Reg8, 1_000_000, Backend::BatchGraph, 2),
            (
                "torus-endgame",
                Kind::TorusEndgame { patch: 128 },
                1 << 18,
                Backend::BatchGraph,
                2,
            ),
            ("clique-fig1", Kind::CliqueFig1, 250_000, Backend::Batch, 15),
            (
                "ensemble-clique",
                Kind::EnsembleClique { lanes: 64 },
                100_000,
                Backend::Replica,
                11,
            ),
        ];
        assert_eq!(WORKLOADS.len(), pinned.len());
        for (w, (name, kind, n, backend, k)) in WORKLOADS.iter().zip(pinned) {
            assert_eq!((w.name, w.kind, w.n, w.backend), (name, kind, n, backend));
            let config = w.config();
            assert_eq!((config.n(), config.k()), (n, k), "{name}");
            assert_eq!(config.plurality(), Some(0), "{name}");
        }
        // The seed derivation is part of the workload: same seed, same list.
        let seeds = WORKLOADS[0].seeds(1);
        assert_eq!(seeds, WORKLOADS[0].seeds(1));
        assert_eq!(seeds[0].rng, 10_690_935_957_657_183_836);
        assert_ne!(seeds[0], WORKLOADS[0].seeds(2)[0]);
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, names);
        for w in WORKLOADS {
            let tiny = w.tiny();
            let untraced = measure(&tiny, 3, 0.0, false, None);
            assert_eq!(
                printed(&untraced.report),
                listed("end_to_end"),
                "{}",
                w.name
            );
            let traced = measure(&tiny, 3, 0.0, true, None);
            assert_eq!(printed(&traced.report), listed("per_layer"), "{}", w.name);
        }
    }

    #[test]
    fn tiny_workloads_pass_the_correctness_check() {
        for w in WORKLOADS {
            for seed in [1, 2] {
                let out = measure(&w.tiny(), seed, 0.0, true, None);
                assert!(out.tally.attempted > 0);
                assert_eq!(out.tally.failed, 0, "{} seed {seed}", w.name);
            }
        }
    }
}
