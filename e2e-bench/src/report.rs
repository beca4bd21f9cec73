//! Metric aggregation, the host fingerprint, the `usd-sim` process probe,
//! and the JSON result line.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use pop_proto::EngineTelemetry;
use usd_core::UsdConfig;

use crate::workload::{Kind, RunSeed, SeedRun, TracedRun, Workload};

/// One named, unit-carrying figure.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        Metric { name, value, unit }
    }

    pub fn secs(name: &'static str, value: f64) -> Self {
        Metric::new(name, value, "s")
    }

    fn count(name: &'static str, value: u64) -> Self {
        Metric::new(name, value as f64, "count")
    }
}

/// The metrics of one run, in print order.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            failed == 0,
            metrics.join(", ")
        )
    }
}

/// Sum over the seed list of each seed's median over the run's
/// iterations. Every iteration repeats the same trajectories, so the
/// spread between them is host interference alone.
pub fn seed_sum<T>(iters: &[Vec<T>], f: impl Fn(&T) -> f64) -> f64 {
    (0..iters[0].len())
        .map(|i| median(iters.iter().map(|runs| f(&runs[i]))))
        .sum()
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    assert!(!v.is_empty(), "median of an empty sample");
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was attempted.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Host fingerprint: cores, CPU model, compiler, commit, pinned threads.
pub fn fingerprint(nproc: usize, threads: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = command_line(Command::new("rustc").arg("--version"));
    // The ceiling keeps git from reading a repository above this directory.
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]);
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
    {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    let commit = command_line(&mut git);
    format!(
        "host: nproc={nproc} cpu=\"{cpu}\" rustc=\"{rustc}\" commit={commit} \
         threads={threads} (USD_THREADS not read)"
    )
}

/// First line of a command's standard output, or `unknown`.
fn command_line(cmd: &mut Command) -> String {
    cmd.stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The process's resident-set high-water mark, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<f64>().ok())
        .expect("/proc/self/status reports VmHWM");
    kb / 1024.0
}

/// The `usd-sim run` arguments that replay `seed` of `w`, or `None` where
/// the CLI cannot express the workload (the torus patch layout) or the
/// process is not probed (the replica ensemble).
pub fn cli_args(
    w: &Workload,
    config: &UsdConfig,
    seed: RunSeed,
    threads: usize,
) -> Option<Vec<String>> {
    let common = [
        "run".to_string(),
        "--n".to_string(),
        w.n.to_string(),
        "--k".to_string(),
        config.k().to_string(),
        "--seed".to_string(),
        seed.rng.to_string(),
        "--backend".to_string(),
        w.backend.name().to_string(),
    ];
    let extra: Vec<String> = match w.kind {
        Kind::Reg8 => vec![
            "--topology".into(),
            "regular:8".into(),
            "--topo-seed".into(),
            seed.topo.to_string(),
        ],
        // A heartbeat too slow ever to print selects the chunked drive
        // loop, so the process replays the in-process trajectory.
        Kind::CliqueFig1 => vec![
            "--threads".into(),
            threads.to_string(),
            "--progress-every".into(),
            "1000000".into(),
        ],
        Kind::TorusEndgame { .. } | Kind::EnsembleClique { .. } => return None,
    };
    Some(common.into_iter().chain(extra).collect())
}

/// Spawn `usd-sim` once, wait for it, and check that it reports the
/// interaction count the in-process run of the same seed reached.
pub fn spawn_cli(bin: &Path, args: &[String], expect: &SeedRun) -> (Result<(), String>, f64) {
    let t = Instant::now();
    let out = Command::new(bin)
        .args(args)
        .env_remove("USD_THREADS")
        .output();
    let process_s = t.elapsed().as_secs_f64();
    let verdict = match out {
        Err(e) => Err(format!("cannot spawn {}: {e}", bin.display())),
        Ok(o) if !o.status.success() => Err(format!(
            "usd-sim exited with {}: {}",
            o.status,
            String::from_utf8_lossy(&o.stderr).trim()
        )),
        Ok(o) => {
            let stdout = String::from_utf8_lossy(&o.stdout);
            match reported_interactions(&stdout) {
                Some(i) if i == expect.result.interactions => Ok(()),
                Some(i) => Err(format!(
                    "usd-sim reports {i} interactions, the in-process run {}",
                    expect.result.interactions
                )),
                None => Err(format!(
                    "no stabilization line in usd-sim output:\n{stdout}"
                )),
            }
        }
    };
    (verdict, process_s)
}

/// The interaction count on `usd-sim run`'s stabilization line.
fn reported_interactions(stdout: &str) -> Option<u64> {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("stabilized on opinion"))?;
    let after = line.split(" after ").nth(1)?;
    after
        .split_whitespace()
        .next()?
        .replace(',', "")
        .parse()
        .ok()
}

/// Counter-wise sum of the runs' telemetry (the counters the per-layer
/// metrics read).
fn summed(runs: &[TracedRun]) -> EngineTelemetry {
    let mut sum = EngineTelemetry::new();
    for r in runs {
        let t = &r.telemetry;
        sum.scheduled += t.scheduled;
        sum.effective += t.effective;
        sum.blocks += t.blocks;
        sum.block_draws += t.block_draws;
        sum.block_applied += t.block_applied;
        sum.fallback_literal += t.fallback_literal;
        sum.table_draws += t.table_draws;
        sum.sparse_enters += t.sparse_enters;
        sum.sparse.absorb(t.sparse);
    }
    sum
}

/// The per-layer metrics: times are [`seed_sum`]s over the traced
/// iterations, counts (identical in every iteration) come from the first.
/// `cli_s` is the `usd-sim` process wall time for the first seed,
/// `first_setup_run_s` the in-process `setup_s + run_s` of that seed.
pub fn per_layer(
    out: &mut Report,
    traced: &[Vec<TracedRun>],
    cli_s: Option<f64>,
    first_setup_run_s: f64,
) {
    let sum = |f: &dyn Fn(&TracedRun) -> f64| seed_sum(traced, f);
    let tel = summed(&traced[0]);

    out.push(Metric::secs(
        "topology.build_s",
        sum(&|r| r.setup.topology_s),
    ));
    out.push(Metric::secs("graph.csr_s", sum(&|r| r.setup.csr_s)));
    out.push(Metric::count(
        "graph.edges",
        traced[0].iter().map(|r| r.setup.edges).sum(),
    ));
    out.push(Metric::new(
        "graph.csr_bytes_computed",
        traced[0].iter().map(|r| r.setup.csr_bytes).sum::<u64>() as f64,
        "bytes",
    ));
    out.push(Metric::secs(
        "simulator.layout_s",
        sum(&|r| r.setup.layout_s),
    ));
    out.push(Metric::secs("simulator.init_s", sum(&|r| r.setup.init_s)));
    out.push(Metric::secs(
        "simulator.dense_s",
        sum(&|r| r.chunks.dense_s),
    ));
    out.push(Metric::new(
        "simulator.ns_per_block",
        ratio(
            sum(&|r| r.chunks.dense_s) * 1e9,
            traced[0].iter().map(|r| r.chunks.dense_blocks).sum::<u64>() as f64,
        ),
        "ns",
    ));
    out.push(Metric::secs(
        "simulator.sparse_s",
        sum(&|r| r.chunks.sparse_s),
    ));
    out.push(Metric::new(
        "simulator.ns_per_sparse_event",
        ratio(
            sum(&|r| r.chunks.sparse_s) * 1e9,
            traced[0]
                .iter()
                .map(|r| r.chunks.sparse_events)
                .sum::<u64>() as f64,
        ),
        "ns",
    ));
    out.push(Metric::new(
        "simulator.block_apply_ratio",
        ratio(tel.block_applied as f64, tel.block_draws as f64),
        "ratio",
    ));
    out.push(Metric::secs("runspec.drive_s", sum(&|r| r.plain.run_s)));
    out.push(Metric::count(
        "runspec.chunks",
        traced[0].iter().map(|r| r.chunks.chunks).sum(),
    ));
    out.push(Metric::count("telemetry.scheduled", tel.scheduled));
    out.push(Metric::count("telemetry.effective", tel.effective));
    out.push(Metric::count("telemetry.blocks", tel.blocks));
    out.push(Metric::count("telemetry.block_draws", tel.block_draws));
    out.push(Metric::count("telemetry.block_applied", tel.block_applied));
    out.push(Metric::count(
        "telemetry.fallback_literal",
        tel.fallback_literal,
    ));
    out.push(Metric::count("telemetry.table_draws", tel.table_draws));
    out.push(Metric::count("telemetry.sparse_enters", tel.sparse_enters));
    out.push(Metric::count("telemetry.sparse_events", tel.sparse.events));
    out.push(Metric::count(
        "telemetry.sparse_flushes",
        tel.sparse.flushes,
    ));
    out.push(Metric::new(
        "rates.effective_fraction",
        tel.effective_fraction(),
        "ratio",
    ));
    out.push(Metric::new(
        "rates.fallback_rate",
        tel.fallback_rate(),
        "ratio",
    ));
    out.push(Metric::new("rates.cancel_rate", tel.cancel_rate(), "ratio"));
    out.push(Metric::new(
        "replica.tail_ratio",
        traced[0].iter().map(|r| r.tail_ratio).sum::<f64>() / traced[0].len() as f64,
        "ratio",
    ));
    out.push(Metric::secs("replica.straggler_s", sum(&|r| r.straggler_s)));
    out.push(Metric::secs("usd_cli.process_s", cli_s.unwrap_or(0.0)));
    out.push(Metric::secs(
        "usd_cli.overhead_s",
        cli_s.map_or(0.0, |p| p - first_setup_run_s),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_sum_adds_each_seeds_median_iteration() {
        let iters = vec![vec![3.0, 10.0], vec![1.0, 12.0], vec![2.0, 11.0]];
        assert_eq!(seed_sum(&iters, |&x| x), 13.0);
        assert_eq!(median([4.0, 1.0, 2.0, 3.0].into_iter()), 2.5);
    }

    #[test]
    fn parses_the_cli_stabilization_line() {
        let out = "initial: ...\nstabilized on opinion 1 after 21,830,259 interactions \
                   (21.83 parallel time); plurality won: true; wall clock 2.00s\n";
        assert_eq!(reported_interactions(out), Some(21_830_259));
        assert_eq!(reported_interactions("budget exhausted\n"), None);
    }
}
