//! Subcommand implementations for `usd-sim`.

use pop_proto::checkpoint::{SnapshotReader, SnapshotWriter};
use pop_proto::telemetry::timeline::phase_tag;
use pop_proto::telemetry::EngineTelemetry;
use pop_proto::topology::TopologyFamily;
use pop_proto::{EventHistograms, Simulator, TimelineRecorder};
use sim_stats::json::ObjectWriter;
use sim_stats::rng::SimRng;
use sim_stats::summary::Summary;
use sim_stats::tables::{fmt_sig, fmt_thousands, TextTable};
use std::path::{Path, PathBuf};
use usd_core::backend::{make_agent_topology_simulator, Backend, RunTicker};
use usd_core::checkpoint::RunCheckpoint;
use usd_core::encode::Trajectory;
use usd_core::init::InitialConfigBuilder;
use usd_core::stabilization::ConsensusOutcome;
use usd_core::theory::{self, Bounds};
use usd_core::{EnsembleOutcome, RunSpec, TrajectoryRecorder, DEFAULT_REPLICAS};

/// CLI usage text.
pub const USAGE: &str = "\
usd-sim — Undecided State Dynamics simulator

commands:
  run    --n <u64> --k <usize> [--bias <u64> | --max-bias] [--seed <u64>]
         [--backend agent|count|batch|graph|batchgraph|skip|replica]
         [--replicas <1..=64>] [--threads <t>]
         [--trace <file.usdt>]
         [--topology complete|cycle|torus|hypercube|regular[:d]|er[:avg]]
         [--degree <usize>] [--topo-seed <u64>]
         [--telemetry[=table|json]] [--progress-every <secs>]
         [--timeline <out.jsonl>] [--timeline-cadence <interactions>]
         [--histograms]
         [--checkpoint <file.ckpt>] [--checkpoint-every <interactions>]
         [--resume <file.ckpt>]
           one exact run to stabilization; optionally record a trajectory
           (backend default: skip; use batch for n >= 10^7, agent for
           per-agent ground truth). --trace snapshots the configuration
           about once per parallel round on any backend but replica (its
           lane-summed counts are a mixture), not with --checkpoint or
           --resume (a checkpoint carries no trajectory).
           --backend replica packs up to 64 independent replica runs of
           the same instance into one bit-parallel engine pass (one lane
           per bit of a machine word) and prints a per-lane ensemble
           summary; --replicas sets the lane count (default 64, replica
           backend only). Checkpoints of ensemble runs carry the lane
           count in their identity (backend 'replica:<lanes>').
           --threads caps the worker threads of the thread-capable
           engine (batch; default: USD_THREADS env, else all cores).
           Trajectories are bit-identical for any thread count, so
           checkpoints resume under a different --threads.
           --topology runs on an interaction graph instead of the clique
           (backend default becomes batchgraph — the block-leaping engine;
           graph, agent, and replica also work); --degree sets d
           for regular/er; the
           population is snapped to the nearest feasible size for the
           family. --telemetry prints the engine's run report (counters,
           timing spans, derived rates) as a table or one JSON object;
           --progress-every emits a stderr heartbeat for long runs (phase
           tag, effective fraction, instantaneous effective rate).
           --timeline writes a flight-recorder sample (telemetry deltas +
           phase tag) every cadence interactions to schema-stable JSONL
           (cadence default: max(n, 65536) — deterministic in the
           interaction clock, so fixed seeds reproduce bit-identical
           files); --histograms prints log-bucketed per-event histograms
           (skip lengths, block totals, flush sizes; p50/p90/p99).
           --checkpoint persists a crash-safe resume point (engine state,
           RNG stream position, flight recorder) every --checkpoint-every
           interactions (default max(16n, 2^22)): temp file + fsync +
           atomic rename, with the previous checkpoint rotated to
           <file>.prev as a fallback; --resume restarts a run from such a
           file bit-identically (same flags required — the checkpoint
           echoes the run identity and mismatches are rejected); output
           directories for --checkpoint/--timeline are probed for
           writability before the run starts. Resumed runs drive through
           the same chunked loop as checkpointed runs, so an interrupted +
           resumed run reproduces the uninterrupted run byte-for-byte
           (final state and timeline)
  sweep  --n <u64> [--seeds <u64>] [--seed <u64>]
         [--backend agent|count|batch|graph|batchgraph|skip|replica]
           stabilization time across the admissible k grid vs the bounds
  bounds --n <u64> --k <usize>
           print the paper's bound curves for (n, k)
  trace  <file.usdt>
           inspect a trajectory recorded by `run --trace`
  help
";

/// A fatal CLI error (message printed to stderr, exit code 2).
#[derive(Debug)]
pub struct CliError(pub String);

impl From<String> for CliError {
    fn from(s: String) -> Self {
        CliError(s)
    }
}

/// Minimal flag parser: `--name value` / `--name=value` pairs plus
/// boolean flags (which may also carry an inline `=value`, the
/// `--telemetry[=json]` shape).
pub struct Flags {
    pairs: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Flags {
    /// Parse; `bools` lists flags that take no value (unless given inline
    /// with `=`).
    pub fn parse(args: &[String], bools: &[&str]) -> Result<Self, CliError> {
        let mut pairs = Vec::new();
        let mut positional = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if let Some((key, value)) = name.split_once('=') {
                    pairs.push((key.to_string(), Some(value.to_string())));
                } else if bools.contains(&name) {
                    pairs.push((name.to_string(), None));
                } else {
                    let v = it
                        .next()
                        .ok_or_else(|| CliError(format!("--{name} needs a value")))?;
                    pairs.push((name.to_string(), Some(v.clone())));
                }
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Flags { pairs, positional })
    }

    /// Tri-state lookup for flags with an optional inline value: `None`
    /// when absent, `Some(None)` for the bare flag, `Some(Some(v))` for
    /// `--name=v`.
    pub fn get_opt(&self, name: &str) -> Option<Option<&str>> {
        self.pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_deref())
    }

    /// Look up a value flag and parse it.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError>
    where
        T::Err: std::fmt::Display,
    {
        for (k, v) in &self.pairs {
            if k == name {
                let v = v
                    .as_ref()
                    .ok_or_else(|| CliError(format!("--{name} needs a value")))?;
                return v
                    .parse::<T>()
                    .map(Some)
                    .map_err(|e| CliError(format!("--{name}: {e}")));
            }
        }
        Ok(None)
    }

    /// Whether a boolean flag is present.
    pub fn has(&self, name: &str) -> bool {
        self.pairs.iter().any(|(k, v)| k == name && v.is_none())
    }

    /// Positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }
}

/// Output format for the `run --telemetry` engine report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TelemetryFormat {
    Table,
    Json,
}

/// Stderr progress heartbeat for long runs (`run --progress-every`):
/// prints at most once per period, fed the engine's clocks and telemetry
/// by the chunked stabilization drivers. Each line carries the phase tag
/// (dense/sparse), the cumulative effective fraction, and the
/// instantaneous effective-event rate since the previous line.
struct Heartbeat {
    period: std::time::Duration,
    started: std::time::Instant,
    last_printed: std::time::Instant,
    n: u64,
    /// Effective clock at the previous printed line (instantaneous rate).
    last_effective: u64,
}

impl Heartbeat {
    fn new(period: std::time::Duration, n: u64) -> Self {
        let now = std::time::Instant::now();
        Heartbeat {
            period,
            started: now,
            last_printed: now,
            n,
            last_effective: 0,
        }
    }

    fn tick(&mut self, interactions: u64, telemetry: &EngineTelemetry) {
        let since_last = self.last_printed.elapsed();
        if since_last < self.period {
            return;
        }
        let eff_per_sec =
            (telemetry.effective - self.last_effective) as f64 / since_last.as_secs_f64().max(1e-9);
        eprintln!(
            "usd-sim: {} interactions (~{} parallel time) [{} phase, eff {:.1}%, {}/s effective], {:.1?} elapsed",
            fmt_thousands(interactions),
            fmt_sig(interactions as f64 / self.n as f64, 4),
            phase_tag(telemetry),
            telemetry.effective_fraction() * 100.0,
            fmt_thousands(eff_per_sec as u64),
            self.started.elapsed(),
        );
        self.last_effective = telemetry.effective;
        self.last_printed = std::time::Instant::now();
    }
}

/// Periodic crash-safe checkpoint writes (`run --checkpoint`), driven from
/// the [`RunTicker::checkpoint_tick`] hook at chunk boundaries. Writes are
/// pure observation — no RNG draws, no horizon bounds — so a checkpointed
/// run's trajectory is identical to the same ticked run without the flag.
/// A failed write warns on stderr and the run continues; the previous
/// checkpoint (if any) survives untouched thanks to the atomic-rename
/// persistence chain.
struct CheckpointSink {
    path: PathBuf,
    every: u64,
    /// Next scheduled-clock mark to persist at; `None` until the first
    /// boundary initializes it from the live clock (which on resumed runs
    /// is mid-flight).
    next: Option<u64>,
    /// Backend identity string as persisted — the backend name, with the
    /// lane count appended (`replica:<lanes>`) for ensemble runs.
    backend: String,
    n: u64,
    k: u32,
    seed: u64,
    topology: String,
    written: u64,
}

/// Chunk-boundary observer combining the optional stderr heartbeat, the
/// optional `--timeline` flight recorder, and the optional `--checkpoint`
/// sink behind one [`RunTicker`]. The recorder bounds driving chunks via
/// its sampling horizon so samples land exactly on cadence marks.
struct RunMonitor {
    heartbeat: Option<Heartbeat>,
    recorder: Option<TimelineRecorder>,
    checkpoint: Option<CheckpointSink>,
}

impl RunTicker for RunMonitor {
    fn horizon(&self, scheduled: u64) -> u64 {
        self.recorder
            .as_ref()
            .map_or(u64::MAX, |r| r.horizon(scheduled))
    }

    fn tick(&mut self, sim: &dyn Simulator) {
        if let Some(r) = &mut self.recorder {
            r.record_if_due(sim);
        }
        if let Some(hb) = &mut self.heartbeat {
            hb.tick(sim.interactions(), sim.telemetry());
        }
    }

    fn checkpoint_tick(&mut self, sim: &dyn Simulator, rng: &SimRng) {
        let Some(c) = self.checkpoint.as_mut() else {
            return;
        };
        let clock = sim.interactions();
        let due = match c.next {
            Some(mark) => clock >= mark,
            None => {
                // First boundary: schedule the next cadence mark past the
                // live clock without writing (the engine state at the
                // clock's current mark is already on disk or trivial).
                c.next = Some((clock / c.every + 1).saturating_mul(c.every));
                false
            }
        };
        if !due {
            return;
        }
        c.next = Some((clock / c.every + 1).saturating_mul(c.every));
        let mut w = SnapshotWriter::new();
        if let Err(e) = sim.snapshot_state(&mut w) {
            eprintln!("usd-sim: checkpoint skipped: {e}");
            return;
        }
        let ckpt = RunCheckpoint {
            backend: c.backend.clone(),
            n: c.n,
            k: c.k,
            seed: c.seed,
            topology: c.topology.clone(),
            rng: rng.state(),
            recorder: self.recorder.clone(),
            engine: w.into_bytes(),
        };
        match ckpt.save(&c.path) {
            Ok(()) => c.written += 1,
            Err(e) => eprintln!(
                "usd-sim: checkpoint write failed ({}): {e}",
                c.path.display()
            ),
        }
    }
}

/// Preflight an output path: verify its parent directory exists and is
/// writable *before* the run starts, so a multi-hour run cannot die at the
/// final write (or, for checkpoints, silently never persist). Probes with
/// a uniquely named scratch file, mirroring the topology sweep's
/// timeline-dir preflight.
fn preflight_writable(path: &str, flag: &str) -> Result<(), CliError> {
    let parent = Path::new(path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or_else(|| Path::new("."));
    if !parent.is_dir() {
        return Err(CliError(format!(
            "{flag} {path}: directory {} does not exist",
            parent.display()
        )));
    }
    let probe = parent.join(format!(".usd_write_probe.{}", std::process::id()));
    std::fs::write(&probe, b"usd-sim write probe").map_err(|e| {
        CliError(format!(
            "{flag} {path}: {} is not writable: {e}",
            parent.display()
        ))
    })?;
    let _ = std::fs::remove_file(&probe);
    Ok(())
}

/// Print the per-event histogram quantile table (`run --histograms`).
fn print_histograms(backend: Backend, hist: &EventHistograms) {
    println!("event histograms ({backend}):");
    let mut t = TextTable::new(&["histogram", "p50", "p90", "p99", "events"]);
    for (name, h) in hist.fields() {
        t.row_owned(vec![
            name.to_string(),
            fmt_sig(h.p50(), 4),
            fmt_sig(h.p90(), 4),
            fmt_sig(h.p99(), 4),
            fmt_thousands(h.total()),
        ]);
    }
    print!("{t}");
}

/// One-line schema-stable JSON run report (`run --telemetry=json`): the
/// instance, the outcome, the optional `--histograms` quantiles, and the
/// engine's telemetry object.
#[allow(clippy::too_many_arguments)]
fn run_report_json(
    backend: Backend,
    n: u64,
    k: usize,
    seed: u64,
    result: &usd_core::stabilization::StabilizationResult,
    elapsed: std::time::Duration,
    histograms: Option<&EventHistograms>,
    telemetry: &EngineTelemetry,
) -> String {
    let outcome = match result.outcome {
        ConsensusOutcome::Winner(w) => format!("winner:{w}"),
        ConsensusOutcome::AllUndecided => "all-undecided".to_string(),
        ConsensusOutcome::Frozen => "frozen".to_string(),
        ConsensusOutcome::Timeout => "timeout".to_string(),
    };
    let mut o = ObjectWriter::new();
    o.str("backend", backend.name())
        .u64("n", n)
        .u64("k", k as u64)
        .u64("seed", seed)
        .str("outcome", &outcome)
        .u64("interactions", result.interactions)
        .f64("parallel_time", result.parallel_time(n), 6)
        .f64("wall_ms", elapsed.as_secs_f64() * 1e3, 3);
    if let Some(h) = histograms {
        o.object("histograms", |o| h.write_json(o));
    }
    o.object("telemetry", |o| telemetry.write_json(o));
    o.finish()
}

/// `usd-sim run`.
pub fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(args, &["max-bias", "telemetry", "histograms"])?;
    let mut n: u64 = flags.get("n")?.unwrap_or(100_000);
    let k: usize = flags.get("k")?.unwrap_or_else(|| theory::figure1_k(n));
    let seed: u64 = flags.get("seed")?.unwrap_or(42);
    let topology: Option<TopologyFamily> = flags.get("topology")?;
    let topo_seed: u64 = flags.get("topo-seed")?.unwrap_or(7);
    let topology = match (topology, flags.get::<usize>("degree")?) {
        (_, Some(0)) => {
            return Err(CliError("--degree must be at least 1".to_string()));
        }
        (Some(t), Some(d)) => Some(t.with_degree(d)),
        (t, None) => t,
        (None, Some(_)) => {
            return Err(CliError("--degree requires --topology".to_string()));
        }
    };
    let backend: Backend = flags.get("backend")?.unwrap_or(if topology.is_some() {
        Backend::BatchGraph
    } else {
        Backend::SkipAhead
    });
    let caps = backend.capabilities();
    let lanes: u32 = match flags.get::<u32>("replicas")? {
        Some(0) => {
            return Err(CliError("--replicas must be at least 1".to_string()));
        }
        Some(r) if r > DEFAULT_REPLICAS => {
            return Err(CliError(format!(
                "--replicas {r} exceeds the {DEFAULT_REPLICAS}-lane word width"
            )));
        }
        Some(r) if r > caps.replicas => {
            return Err(CliError(format!(
                "--replicas {r} requires --backend replica (the {backend} \
                 backend runs a single lane)"
            )));
        }
        Some(r) => r,
        None if caps.replicas > 1 => DEFAULT_REPLICAS,
        None => 1,
    };
    let threads: Option<usize> = match flags.get::<usize>("threads")? {
        Some(0) => {
            return Err(CliError("--threads must be at least 1".to_string()));
        }
        Some(t) if !caps.threads => {
            return Err(CliError(format!(
                "--threads {t} has no effect on the {backend} backend \
                 (thread-capable backends: batch)"
            )));
        }
        t => t,
    };
    // Backend identity as persisted in checkpoints and echoed on resume:
    // ensemble runs append the lane count so a checkpoint from a 64-lane
    // run can never resume a 32-lane one.
    let backend_id = if lanes > 1 {
        format!("{}:{lanes}", backend.name())
    } else {
        backend.name().to_string()
    };
    let trace_path: Option<String> = flags.get("trace")?;
    let telemetry_format = match flags.get_opt("telemetry") {
        None => None,
        Some(None) | Some(Some("table")) => Some(TelemetryFormat::Table),
        Some(Some("json")) => Some(TelemetryFormat::Json),
        Some(Some(other)) => {
            return Err(CliError(format!(
                "--telemetry: unknown format '{other}' (use table or json)"
            )));
        }
    };
    let heartbeat_period = match flags.get::<f64>("progress-every")? {
        Some(s) if s > 0.0 && s.is_finite() => Some(std::time::Duration::from_secs_f64(s)),
        Some(s) => {
            return Err(CliError(format!(
                "--progress-every needs a positive number of seconds, got {s}"
            )));
        }
        None => None,
    };
    let timeline_path: Option<String> = flags.get("timeline")?;
    let timeline_cadence = match flags.get::<u64>("timeline-cadence")? {
        Some(0) => {
            return Err(CliError(
                "--timeline-cadence must be at least 1 interaction".to_string(),
            ));
        }
        Some(c) if timeline_path.is_none() => {
            return Err(CliError(format!(
                "--timeline-cadence {c} requires --timeline"
            )));
        }
        c => c,
    };
    let checkpoint_path: Option<String> = flags.get("checkpoint")?;
    let checkpoint_every = match flags.get::<u64>("checkpoint-every")? {
        Some(0) => {
            return Err(CliError(
                "--checkpoint-every must be at least 1 interaction".to_string(),
            ));
        }
        Some(c) if checkpoint_path.is_none() => {
            return Err(CliError(format!(
                "--checkpoint-every {c} requires --checkpoint"
            )));
        }
        c => c,
    };
    let resume_path: Option<String> = flags.get("resume")?;
    let want_histograms = flags.has("histograms");
    if let Some(family) = topology {
        if !caps.topologies {
            return Err(CliError(format!(
                "--topology requires a topology-capable backend \
                 (agent, graph, batchgraph, or replica), got {backend}"
            )));
        }
        let snapped = family.snap_n(n as usize) as u64;
        if snapped != n {
            println!("note: n snapped to {snapped} for the {family} family");
            n = snapped;
        }
        family.check_size(n as usize)?;
    }
    if n < 2 || k < 1 || (k as u64) > n {
        return Err(CliError(format!("invalid instance n={n}, k={k}")));
    }
    if trace_path.is_some() && caps.replicas > 1 {
        return Err(CliError(format!(
            "--trace records one trajectory; the {backend} backend's lane-summed \
             counts are a mixture of lanes"
        )));
    }
    if trace_path.is_some() && (checkpoint_path.is_some() || resume_path.is_some()) {
        return Err(CliError(
            "--trace cannot be combined with --checkpoint/--resume: a checkpoint \
             carries no trajectory"
                .to_string(),
        ));
    }
    // Preflight output directories now: a run can take hours, and the
    // final timeline write — or every checkpoint along the way — would
    // otherwise be the first time an unwritable path surfaces.
    if let Some(p) = &timeline_path {
        preflight_writable(p, "--timeline")?;
    }
    if let Some(p) = &checkpoint_path {
        preflight_writable(p, "--checkpoint")?;
    }
    if let Some(p) = &trace_path {
        preflight_writable(p, "--trace")?;
    }
    if matches!(backend, Backend::Graph | Backend::BatchGraph)
        && topology.is_none()
        && n > usd_core::backend::COMPLETE_GRAPH_MAX_N
    {
        return Err(CliError(format!(
            "--backend {backend} without --topology runs the complete graph \
             (n(n-1)/2 edges); n={n} exceeds the cap of {} — pass --topology \
             for a sparse graph or use agent/count/batch for the clique",
            usd_core::backend::COMPLETE_GRAPH_MAX_N
        )));
    }

    let builder = InitialConfigBuilder::new(n, k);
    let requested_bias = if flags.has("max-bias") {
        None // max_admissible_bias clamps internally
    } else if let Some(b) = flags.get::<u64>("bias")? {
        Some(b)
    } else {
        Some(theory::sqrt_n_log_n(n)) // the figure1 default
    };
    let config = match requested_bias {
        None => builder.max_admissible_bias(),
        Some(b) => {
            if b.saturating_add(k as u64) > n {
                return Err(CliError(format!(
                    "bias {b} leaves no room for {k} nonempty opinions at n={n} \
                     (need bias + k <= n; try --bias 0 or a larger --n)"
                )));
            }
            builder.equal_minorities(b)
        }
    };
    match topology {
        Some(family) => println!("initial: {config} (backend: {backend}, topology: {family})"),
        None => println!("initial: {config} (backend: {backend})"),
    }

    // Load and validate the resume point up front: header, checksum, and
    // the run-identity echo against the flags (a checkpoint from a
    // different run is rejected before any simulation happens).
    let resumed: Option<(RunCheckpoint, PathBuf)> = match &resume_path {
        Some(p) => {
            let (ckpt, from) = RunCheckpoint::load(Path::new(p))
                .map_err(|e| CliError(format!("--resume {p}: {e}")))?;
            let topo_name = topology.map(|f| f.name()).unwrap_or_default();
            ckpt.check_identity(&backend_id, n, k as u32, seed, &topo_name)
                .map_err(|e| CliError(format!("--resume {p}: {e}")))?;
            Some((ckpt, from))
        }
        None => None,
    };

    let mut rng = SimRng::new(seed);
    let started = std::time::Instant::now();
    // Snapshots about once per parallel round, from the same observer the
    // library's `record_run` drives.
    let mut tracer = trace_path
        .as_ref()
        .map(|_| TrajectoryRecorder::new(&config, 0, n));
    let mut trajectory: Option<Trajectory> = None;
    // The flight recorder: fresh from the flags, or — on resume — the
    // checkpoint's restored recorder, mid-samples, so the rewritten JSONL
    // is byte-for-byte the uninterrupted run's. The recorder also bounds
    // driving chunks, so its presence must follow the checkpoint (not the
    // flags) for the resumed trajectory to line up.
    let recorder = match &resumed {
        Some((ckpt, _)) => {
            if ckpt.recorder.is_none() && timeline_path.is_some() {
                return Err(CliError(
                    "--timeline on a resumed run needs a checkpoint carrying the flight \
                     recorder (the original run did not pass --timeline)"
                        .to_string(),
                ));
            }
            if let (Some(rec), Some(c)) = (&ckpt.recorder, timeline_cadence) {
                if rec.cadence() != c {
                    return Err(CliError(format!(
                        "--timeline-cadence {c} conflicts with the checkpoint's recorded \
                         cadence {}",
                        rec.cadence()
                    )));
                }
            }
            ckpt.recorder.clone()
        }
        None => timeline_path.as_ref().map(|_| match timeline_cadence {
            Some(c) => TimelineRecorder::new(c),
            None => TimelineRecorder::with_default_cadence(n),
        }),
    };
    let mut monitor = RunMonitor {
        heartbeat: heartbeat_period.map(|p| Heartbeat::new(p, n)),
        recorder,
        checkpoint: checkpoint_path.as_ref().map(|p| CheckpointSink {
            path: PathBuf::from(p),
            every: checkpoint_every.unwrap_or_else(|| (16 * n).max(1 << 22)),
            next: None,
            backend: backend_id.clone(),
            n,
            k: k as u32,
            seed,
            topology: topology.map(|f| f.name()).unwrap_or_default(),
            written: 0,
        }),
    };
    // Read off the engine once the drive ends (it outlives the drive).
    let mut telemetry: Option<EngineTelemetry> = None;
    let mut histograms: Option<EventHistograms> = None;
    // Per-lane outcomes of an ensemble run, read off the kept engine.
    let mut ensemble: Option<EnsembleOutcome> = None;
    // Whether any chunk-boundary instrumentation is attached: a monitor
    // forces the chunked drive loop; without one a clique run is a single
    // uninterrupted `run_to_silence`.
    let monitored =
        monitor.heartbeat.is_some() || monitor.recorder.is_some() || monitor.checkpoint.is_some();
    let result = if let Some((ckpt, from)) = &resumed {
        // Rebuild the simulator exactly as the original run did (the
        // constructors consume the same RNG draws — e.g. the shuffled
        // initial layout on topologies), restore the engine payload,
        // reposition the RNG at the saved stream position, and drive
        // through the same chunked loops a checkpointed run uses: chunk
        // boundaries are a pure function of the absolute interaction
        // clock, so the resumed trajectory is the uninterrupted one.
        let bad = |e: String| CliError(format!("--resume {}: {e}", from.display()));
        let saved_rng = SimRng::from_state(ckpt.rng)
            .ok_or_else(|| bad("checkpoint RNG state is all-zero".to_string()))?;
        if let (Backend::Agent, Some(family)) = (backend, topology) {
            let mut sim = make_agent_topology_simulator(&config, family, topo_seed, &mut rng);
            let mut r = SnapshotReader::new(&ckpt.engine);
            Simulator::restore_state(&mut sim, &mut r).map_err(|e| bad(e.to_string()))?;
            rng = saved_rng;
            if telemetry_format.is_some() {
                Simulator::set_span_timing(&mut sim, true);
            }
            if want_histograms && Simulator::histograms(&sim).is_none() {
                return Err(bad(
                    "--histograms needs a checkpoint recorded with --histograms".to_string(),
                ));
            }
            println!(
                "resumed from {} at {} interactions",
                from.display(),
                fmt_thousands(Simulator::interactions(&sim)),
            );
            let result = RunSpec::new(&config)
                .backend(backend)
                .ticker(&mut monitor)
                .drive_agent_graph(&mut sim, &mut rng);
            if let Some(rec) = monitor.recorder.as_mut() {
                rec.finish(&sim);
            }
            histograms = Simulator::histograms(&sim);
            telemetry = Some(*Simulator::telemetry(&sim));
            result
        } else {
            let mut build = RunSpec::new(&config).backend(backend).replicas(lanes);
            if let Some(t) = threads {
                build = build.threads(t);
            }
            let build = match topology {
                Some(family) => build.topology(family).topo_seed(topo_seed),
                None => build,
            };
            let mut sim: Box<dyn Simulator> = build.build_simulator(&mut rng);
            let mut r = SnapshotReader::new(&ckpt.engine);
            sim.restore_state(&mut r).map_err(|e| bad(e.to_string()))?;
            rng = saved_rng;
            if telemetry_format.is_some() {
                sim.set_span_timing(true);
            }
            if want_histograms && sim.histograms().is_none() {
                return Err(bad(
                    "--histograms needs a checkpoint recorded with --histograms".to_string(),
                ));
            }
            println!(
                "resumed from {} at {} interactions",
                from.display(),
                fmt_thousands(sim.interactions()),
            );
            let result = RunSpec::new(&config)
                .backend(backend)
                .ticker(&mut monitor)
                .drive(sim.as_mut(), &mut rng);
            if let Some(rec) = monitor.recorder.as_mut() {
                rec.finish(sim.as_ref());
            }
            histograms = sim.histograms();
            telemetry = Some(*sim.telemetry());
            if lanes > 1 {
                ensemble = Some(EnsembleOutcome::from_simulator(
                    sim.as_ref(),
                    k,
                    config.plurality(),
                ));
            }
            result
        }
    } else {
        let mut spec = RunSpec::new(&config)
            .backend(backend)
            .replicas(lanes)
            .span_timing(telemetry_format.is_some())
            .histograms(want_histograms);
        if let Some(family) = topology {
            spec = spec.topology(family).topo_seed(topo_seed);
        }
        if let Some(t) = threads {
            spec = spec.threads(t);
        }
        if monitored {
            // The ticker forces the chunked drive loop; without one (and
            // without a trace observer) a clique run is a single
            // `run_to_silence`, interaction-identical to an uninstrumented
            // run for the same seed.
            spec = spec.ticker(&mut monitor);
        }
        if let Some(t) = tracer.as_mut() {
            spec = spec.observer(t);
        }
        let (result, sim) = spec.run_keeping(&mut rng);
        // No engine only for an edgeless topology graph: nothing ran.
        if let Some(s) = &sim {
            if let Some(rec) = monitor.recorder.as_mut() {
                rec.finish(s.as_ref());
            }
            histograms = s.histograms();
            telemetry = Some(*s.telemetry());
            if lanes > 1 {
                ensemble = Some(EnsembleOutcome::from_simulator(
                    s.as_ref(),
                    k,
                    config.plurality(),
                ));
            }
        }
        trajectory = tracer.take().map(|t| match &sim {
            Some(s) => t.finish(s.interactions(), s.counts()),
            None => t.finish(0, config.to_count_config().counts()),
        });
        result
    };
    let elapsed = started.elapsed();

    if let Some(ens) = &ensemble {
        // A replica run measures one independent run per lane. Its
        // aggregate counts are lane sums — a mixture whenever lanes elect
        // different winners — so the headline reports the lanes instead.
        let times = ens.stabilization_times();
        let lane_times = if times.is_empty() {
            String::new()
        } else {
            let s = Summary::of(&times);
            let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = times.iter().cloned().fold(0.0f64, f64::max);
            format!(
                ", T parallel mean {} (min {}, max {})",
                fmt_sig(s.mean() / n as f64, 4),
                fmt_sig(min / n as f64, 4),
                fmt_sig(max / n as f64, 4),
            )
        };
        println!(
            "ensemble: {}/{} lanes stabilized, plurality won {}/{}{lane_times}; wall clock {:.2?}",
            ens.stabilized_lanes(),
            ens.len(),
            ens.plurality_wins(),
            ens.len(),
            elapsed,
        );
    } else {
        match result.outcome {
            ConsensusOutcome::Winner(w) => println!(
                "stabilized on opinion {} after {} interactions ({:.2} parallel time); plurality won: {}; wall clock {:.2?}",
                w + 1,
                fmt_thousands(result.interactions),
                result.parallel_time(n),
                result.plurality_won(),
                elapsed,
            ),
            ConsensusOutcome::AllUndecided => println!(
                "absorbed in the all-undecided state after {} interactions; wall clock {:.2?}",
                fmt_thousands(result.interactions),
                elapsed,
            ),
            ConsensusOutcome::Frozen => println!(
                "froze in a mixed configuration (disconnected topology) after {} interactions; \
                 wall clock {:.2?}",
                fmt_thousands(result.interactions),
                elapsed,
            ),
            ConsensusOutcome::Timeout => println!("budget exhausted"),
        }
    }

    if let Some(format) = telemetry_format {
        let t = telemetry.unwrap_or_default();
        match format {
            TelemetryFormat::Table => {
                println!("telemetry ({backend}):");
                print!("{}", t.table());
            }
            TelemetryFormat::Json => {
                println!(
                    "{}",
                    run_report_json(
                        backend,
                        n,
                        k,
                        seed,
                        &result,
                        elapsed,
                        histograms.as_ref(),
                        &t
                    )
                );
            }
        }
    }

    if want_histograms && telemetry_format != Some(TelemetryFormat::Json) {
        print_histograms(backend, &histograms.clone().unwrap_or_default());
    }

    if let (Some(path), Some(rec)) = (&timeline_path, &monitor.recorder) {
        std::fs::write(path, rec.to_jsonl())
            .map_err(|e| CliError(format!("writing {path}: {e}")))?;
        println!(
            "timeline: {} samples (cadence {}) -> {path}",
            rec.samples().len(),
            fmt_thousands(rec.cadence()),
        );
    }

    if let Some(c) = &monitor.checkpoint {
        println!(
            "checkpoints: {} written (every {} interactions) -> {}",
            c.written,
            fmt_thousands(c.every),
            c.path.display(),
        );
    }

    if let (Some(path), Some(trajectory)) = (trace_path, trajectory) {
        let blob = trajectory.encode();
        std::fs::write(&path, &blob).map_err(|e| CliError(format!("writing {path}: {e}")))?;
        println!(
            "trace: {} snapshots, {} bytes -> {path}",
            trajectory.snapshots.len(),
            blob.len()
        );
    }
    Ok(())
}

/// `usd-sim sweep`.
pub fn cmd_sweep(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(args, &[])?;
    let n: u64 = flags.get("n")?.unwrap_or(50_000);
    let seeds: u64 = flags.get("seeds")?.unwrap_or(5);
    let seed: u64 = flags.get("seed")?.unwrap_or(42);
    let backend: Backend = flags.get("backend")?.unwrap_or(Backend::SkipAhead);
    if n < 16 {
        return Err(CliError("need --n >= 16".into()));
    }
    if matches!(backend, Backend::Graph | Backend::BatchGraph)
        && n > usd_core::backend::COMPLETE_GRAPH_MAX_N
    {
        return Err(CliError(format!(
            "--backend {backend} sweeps the complete graph; n={n} exceeds the \
             cap of {}",
            usd_core::backend::COMPLETE_GRAPH_MAX_N
        )));
    }

    let max_k = ((n as f64).sqrt() / (n as f64).ln()).floor().max(3.0) as usize;
    let mut t = TextTable::new(&["k", "T parallel", "lower", "T/lower", "upper", "T/upper"]);
    let mut k = 3usize;
    while k <= max_k {
        let config = InitialConfigBuilder::new(n, k).max_admissible_bias();
        let mut times = Vec::new();
        for s in 0..seeds {
            let mut rng = SimRng::new(seed ^ (k as u64) << 32 ^ s);
            let result = RunSpec::new(&config).backend(backend).run(&mut rng);
            times.push(result.parallel_time(n));
        }
        let mean = Summary::of(&times).mean();
        let b = Bounds::new(n, k);
        let lower = b.lower_bound_parallel();
        let upper = b.upper_bound_parallel();
        t.row_owned(vec![
            k.to_string(),
            fmt_sig(mean, 4),
            fmt_sig(lower, 4),
            if lower > 0.0 {
                fmt_sig(mean / lower, 3)
            } else {
                "-".into()
            },
            fmt_sig(upper, 4),
            fmt_sig(mean / upper, 3),
        ]);
        k = (k * 3).div_ceil(2);
    }
    println!(
        "stabilization sweep at n={} ({} seeds/cell, backend {backend})",
        fmt_thousands(n),
        seeds
    );
    print!("{t}");
    Ok(())
}

/// `usd-sim bounds`.
pub fn cmd_bounds(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(args, &[])?;
    let n: u64 = flags.get("n")?.unwrap_or(1_000_000);
    let k: usize = flags.get("k")?.unwrap_or_else(|| theory::figure1_k(n));
    let b = Bounds::new(n, k);
    let mut t = TextTable::new(&["quantity", "value"]);
    t.row_owned(vec!["n".into(), fmt_thousands(n)]);
    t.row_owned(vec!["k".into(), k.to_string()]);
    t.row_owned(vec![
        "k admissible (<= sqrt n/ln n)".into(),
        theory::k_is_admissible(n, k).to_string(),
    ]);
    t.row_owned(vec![
        "sqrt(n ln n)".into(),
        fmt_thousands(theory::sqrt_n_log_n(n)),
    ]);
    t.row_owned(vec![
        "max admissible bias".into(),
        fmt_thousands(theory::max_admissible_bias(n, k)),
    ]);
    t.row_owned(vec![
        "lower bound (parallel)".into(),
        fmt_sig(b.lower_bound_parallel(), 5),
    ]);
    t.row_owned(vec![
        "upper bound k ln n (parallel)".into(),
        fmt_sig(b.upper_bound_parallel(), 5),
    ]);
    t.row_owned(vec![
        "undecided plateau n/2-n/4k".into(),
        fmt_sig(usd_core::analysis::undecided_plateau(n, k), 6),
    ]);
    t.row_owned(vec![
        "Lemma 3.1 ceiling".into(),
        fmt_sig(b.undecided_ceiling(), 6),
    ]);
    t.row_owned(vec![
        "Lemma 3.3 time kn/25".into(),
        fmt_sig(b.opinion_growth_time(), 5),
    ]);
    t.row_owned(vec![
        "Lemma 3.4 time kn/24".into(),
        fmt_sig(b.gap_doubling_time(), 5),
    ]);
    print!("{t}");
    Ok(())
}

/// `usd-sim trace`.
pub fn cmd_trace(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(args, &[])?;
    let path = flags
        .positional()
        .first()
        .ok_or_else(|| CliError("trace: need a file path".into()))?;
    let blob = std::fs::read(path).map_err(|e| CliError(format!("reading {path}: {e}")))?;
    let traj = Trajectory::decode(&blob[..]).map_err(|e| CliError(format!("decoding: {e}")))?;
    println!(
        "trajectory: n={}, k={}, {} snapshots",
        fmt_thousands(traj.n),
        traj.k,
        traj.snapshots.len()
    );
    let mut t = TextTable::new(&["parallel time", "x1", "max gap", "u"]);
    // Print at most 20 evenly spaced snapshots.
    let step = (traj.snapshots.len() / 20).max(1);
    for (i, (ticks, cfg)) in traj.snapshots.iter().enumerate() {
        if i % step != 0 && i != traj.snapshots.len() - 1 {
            continue;
        }
        t.row_owned(vec![
            fmt_sig(*ticks as f64 / traj.n as f64, 4),
            cfg.sorted_desc()[0].to_string(),
            cfg.max_gap().to_string(),
            cfg.u().to_string(),
        ]);
    }
    print!("{t}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn flags_parse_pairs_bools_positional() {
        let f = Flags::parse(&s(&["--n", "100", "--max-bias", "file.bin"]), &["max-bias"]).unwrap();
        assert_eq!(f.get::<u64>("n").unwrap(), Some(100));
        assert!(f.has("max-bias"));
        assert_eq!(f.positional(), &["file.bin".to_string()]);
        assert_eq!(f.get::<u64>("missing").unwrap(), None);
    }

    #[test]
    fn flags_report_missing_values() {
        assert!(Flags::parse(&s(&["--n"]), &[]).is_err());
    }

    #[test]
    fn flags_split_inline_equals_values() {
        let f = Flags::parse(&s(&["--n=100", "--telemetry=json"]), &["telemetry"]).unwrap();
        assert_eq!(f.get::<u64>("n").unwrap(), Some(100));
        assert_eq!(f.get_opt("telemetry"), Some(Some("json")));
        let f = Flags::parse(&s(&["--telemetry"]), &["telemetry"]).unwrap();
        assert_eq!(f.get_opt("telemetry"), Some(None));
        assert_eq!(f.get_opt("missing"), None);
    }

    #[test]
    fn run_accepts_telemetry_and_heartbeat_on_every_backend() {
        for b in ["agent", "count", "batch", "graph", "batchgraph", "skip"] {
            cmd_run(&s(&[
                "--n",
                "500",
                "--k",
                "2",
                "--seed",
                "3",
                "--backend",
                b,
                "--telemetry=json",
            ]))
            .unwrap_or_else(|e| panic!("backend {b}: {}", e.0));
        }
        // Table form (bare and explicit), topology runs, a heartbeat run,
        // and the trace path all accept the report flags.
        cmd_run(&s(&["--n", "500", "--k", "2", "--telemetry"])).unwrap();
        cmd_run(&s(&["--n", "500", "--k", "2", "--telemetry=table"])).unwrap();
        cmd_run(&s(&[
            "--n",
            "256",
            "--k",
            "2",
            "--topology",
            "torus",
            "--telemetry=json",
        ]))
        .unwrap();
        cmd_run(&s(&[
            "--n",
            "256",
            "--k",
            "2",
            "--topology",
            "cycle",
            "--backend",
            "agent",
            "--telemetry",
        ]))
        .unwrap();
        cmd_run(&s(&["--n", "500", "--k", "2", "--progress-every", "1000"])).unwrap();
    }

    /// `run_report_json` for a fixed run, with or without histograms.
    fn pinned_report(histograms: Option<&EventHistograms>) -> String {
        let result = usd_core::stabilization::StabilizationResult {
            outcome: ConsensusOutcome::Winner(1),
            interactions: 123_456,
            initial_plurality: Some(1),
        };
        let mut telemetry = EngineTelemetry::new();
        telemetry.scheduled = 123_456;
        telemetry.effective = 40_000;
        telemetry.pair_draws = 123_456;
        telemetry.spans.dense_ns = 9;
        run_report_json(
            Backend::Graph,
            1_000,
            3,
            42,
            &result,
            std::time::Duration::from_micros(2_500),
            histograms,
            &telemetry,
        )
    }

    const PINNED_REPORT: &str = "{\"backend\":\"graph\",\"n\":1000,\"k\":3,\"seed\":42,\
        \"outcome\":\"winner:1\",\"interactions\":123456,\"parallel_time\":123.456000,\
        \"wall_ms\":2.500,\"telemetry\":{\"scheduled\":123456,\"effective\":40000,\
        \"dense_steps\":0,\"blocks\":0,\"block_draws\":0,\"block_applied\":0,\
        \"fallback_literal\":0,\"sparse_enters\":0,\"sparse_exits\":0,\
        \"pair_draws\":123456,\"skip_draws\":0,\"table_draws\":0,\
        \"sparse\":{\"events\":0,\"skip_draws\":0,\"event_draws\":0,\"flushes\":0,\
        \"updates_deferred\":0,\"updates_immediate\":0,\"entries_applied\":0,\
        \"entries_cancelled\":0,\"log_cache_hits\":0,\"log_cache_misses\":0,\
        \"bypass_enters\":0,\"bypass_exits\":0},\"spans\":{\"dense_ns\":9,\
        \"sparse_ns\":0,\"gather_ns\":0,\"apply_ns\":0},\
        \"rates\":{\"effective_fraction\":0.324002,\"cancel_rate\":0.000000,\
        \"fallback_rate\":0.000000}}}";
    const PINNED_REPORT_WITH_HISTOGRAMS: &str =
        "{\"backend\":\"graph\",\"n\":1000,\"k\":3,\"seed\":42,\
        \"outcome\":\"winner:1\",\"interactions\":123456,\"parallel_time\":123.456000,\
        \"wall_ms\":2.500,\"histograms\":{\"skip_len\":{\"p50\":16,\"p90\":32,\
        \"p99\":32,\"n\":40},\"block_total\":{\"p50\":0,\"p90\":0,\"p99\":0,\"n\":0},\
        \"block_size\":{\"p50\":4,\"p90\":4,\"p99\":4,\"n\":1},\
        \"flush_size\":{\"p50\":0,\"p90\":0,\"p99\":0,\"n\":0},\
        \"flush_occupancy\":{\"p50\":0,\"p90\":0,\"p99\":0,\"n\":0},\
        \"fallback_run\":{\"p50\":0,\"p90\":0,\"p99\":0,\"n\":0}},\
        \"telemetry\":{\"scheduled\":123456,\"effective\":40000,\"dense_steps\":0,\
        \"blocks\":0,\"block_draws\":0,\"block_applied\":0,\"fallback_literal\":0,\
        \"sparse_enters\":0,\"sparse_exits\":0,\"pair_draws\":123456,\"skip_draws\":0,\
        \"table_draws\":0,\"sparse\":{\"events\":0,\"skip_draws\":0,\"event_draws\":0,\
        \"flushes\":0,\"updates_deferred\":0,\"updates_immediate\":0,\
        \"entries_applied\":0,\"entries_cancelled\":0,\"log_cache_hits\":0,\
        \"log_cache_misses\":0,\"bypass_enters\":0,\"bypass_exits\":0},\
        \"spans\":{\"dense_ns\":9,\"sparse_ns\":0,\"gather_ns\":0,\"apply_ns\":0},\
        \"rates\":{\"effective_fraction\":0.324002,\"cancel_rate\":0.000000,\
        \"fallback_rate\":0.000000}}}";

    #[test]
    fn run_report_json_bytes_are_pinned() {
        assert_eq!(pinned_report(None), PINNED_REPORT);
        let mut h = EventHistograms::new();
        for v in 1..=40u64 {
            h.skip_len.add_u64(v);
        }
        h.block_size.add_u64(6);
        assert_eq!(pinned_report(Some(&h)), PINNED_REPORT_WITH_HISTOGRAMS);
    }

    #[test]
    fn pinned_reports_parse_with_the_documented_keys_in_order() {
        use sim_stats::json::{parse, Value};
        let head = [
            "backend",
            "n",
            "k",
            "seed",
            "outcome",
            "interactions",
            "parallel_time",
            "wall_ms",
        ];
        let bare = parse(PINNED_REPORT).unwrap();
        let keys: Vec<&str> = bare.keys().collect();
        assert_eq!(keys, [&head[..], &["telemetry"]].concat());
        let full = parse(PINNED_REPORT_WITH_HISTOGRAMS).unwrap();
        let keys: Vec<&str> = full.keys().collect();
        assert_eq!(keys, [&head[..], &["histograms", "telemetry"]].concat());
        assert_eq!(
            full.get("outcome").and_then(Value::as_str),
            Some("winner:1")
        );
        assert_eq!(full.get("n").and_then(Value::as_u64), Some(1_000));
        let scheduled = full.get("telemetry").and_then(|t| t.get("scheduled"));
        assert_eq!(scheduled.and_then(Value::as_u64), Some(123_456));
    }

    #[test]
    fn run_rejects_bad_telemetry_and_heartbeat_values() {
        assert!(cmd_run(&s(&["--n", "500", "--telemetry=yaml"])).is_err());
        assert!(cmd_run(&s(&["--n", "500", "--progress-every", "0"])).is_err());
        assert!(cmd_run(&s(&["--n", "500", "--progress-every", "-2"])).is_err());
    }

    #[test]
    fn flags_report_bad_parse() {
        let f = Flags::parse(&s(&["--n", "abc"]), &[]).unwrap();
        assert!(f.get::<u64>("n").is_err());
    }

    #[test]
    fn run_and_trace_roundtrip_through_a_file() {
        let dir = std::env::temp_dir().join(format!("usd_cli_test.{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.usdt");
        let path_str = path.to_str().unwrap().to_string();
        let timeline = dir.join("t.jsonl");
        let timeline_str = timeline.to_str().unwrap().to_string();

        // Every scalar clique backend records, next to the flight recorder
        // and the histograms.
        for b in ["agent", "count", "batch", "skip"] {
            cmd_run(&s(&[
                "--n",
                "2000",
                "--k",
                "3",
                "--seed",
                "5",
                "--backend",
                b,
                "--trace",
                &path_str,
                "--timeline",
                &timeline_str,
                "--histograms",
            ]))
            .unwrap_or_else(|e| panic!("backend {b}: {}", e.0));
            cmd_trace(&s(&[&path_str])).unwrap();
            // And the file decodes through the library too.
            let blob = std::fs::read(&path).unwrap();
            let traj = Trajectory::decode(&blob[..]).unwrap();
            assert_eq!((traj.n, traj.k), (2000, 3), "{b}");
            assert!(traj.snapshots.len() >= 2, "{b}");
            // Final snapshot is silent (consensus or all-undecided).
            let (_, last) = traj.snapshots.last().unwrap();
            assert!(last.is_silent(), "{b}");
        }
        // A graph topology records through the same observer.
        cmd_run(&s(&[
            "--n",
            "256",
            "--k",
            "2",
            "--topology",
            "torus",
            "--trace",
            &path_str,
        ]))
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bounds_command_runs() {
        cmd_bounds(&s(&["--n", "100000", "--k", "8"])).unwrap();
    }

    #[test]
    fn run_accepts_topologies() {
        for t in ["cycle", "torus", "hypercube", "regular:4", "er:6"] {
            cmd_run(&s(&[
                "--n",
                "256",
                "--k",
                "2",
                "--seed",
                "3",
                "--topology",
                t,
            ]))
            .unwrap_or_else(|e| panic!("topology {t}: {}", e.0));
        }
        // Agent backend and --degree also work on topologies.
        cmd_run(&s(&[
            "--n",
            "100",
            "--k",
            "2",
            "--topology",
            "regular",
            "--degree",
            "6",
            "--backend",
            "agent",
        ]))
        .unwrap();
    }

    #[test]
    fn run_rejects_bad_topology_combinations() {
        // Clique-only backend on a topology.
        assert!(cmd_run(&s(&[
            "--n",
            "256",
            "--topology",
            "cycle",
            "--backend",
            "batch"
        ]))
        .is_err());
        // --degree without --topology.
        assert!(cmd_run(&s(&["--n", "256", "--degree", "8"])).is_err());
        // Unknown family.
        assert!(cmd_run(&s(&["--n", "256", "--topology", "moebius"])).is_err());
    }

    #[test]
    fn run_accepts_every_backend() {
        for b in ["agent", "count", "batch", "graph", "skip"] {
            cmd_run(&s(&[
                "--n",
                "500",
                "--k",
                "2",
                "--seed",
                "3",
                "--backend",
                b,
            ]))
            .unwrap_or_else(|e| panic!("backend {b}: {}", e.0));
        }
    }

    #[test]
    fn run_rejects_unknown_backend_and_trace_combination() {
        assert!(cmd_run(&s(&["--n", "500", "--backend", "warp"])).is_err());
        // `seq` is retired.
        assert!(cmd_run(&s(&["--n", "500", "--backend", "seq"])).is_err());
        // A replica trace would record a mixture of lanes, and a
        // checkpoint carries no trajectory; both are rejected before any
        // file is written.
        let trace = std::env::temp_dir().join("usd_cli_never_written.usdt");
        let trace = trace.to_str().unwrap();
        assert!(cmd_run(&s(&[
            "--n",
            "500",
            "--backend",
            "replica",
            "--trace",
            trace
        ]))
        .is_err());
        let ckpt = std::env::temp_dir().join("usd_cli_never_written.ckpt");
        let ckpt = ckpt.to_str().unwrap();
        assert!(cmd_run(&s(&["--n", "500", "--trace", trace, "--checkpoint", ckpt])).is_err());
        assert!(cmd_run(&s(&["--n", "500", "--trace", trace, "--resume", ckpt])).is_err());
        assert!(!Path::new(trace).exists());
    }

    #[test]
    fn sweep_command_runs_small() {
        cmd_sweep(&s(&["--n", "2000", "--seeds", "1"])).unwrap();
    }

    #[test]
    fn run_rejects_bad_instance() {
        assert!(cmd_run(&s(&["--n", "1"])).is_err());
        assert!(cmd_run(&s(&["--n", "10", "--k", "11"])).is_err());
        // Default figure1 bias does not fit tiny populations: clean error,
        // not a panic.
        assert!(cmd_run(&s(&["--n", "2", "--k", "2"])).is_err());
        assert!(cmd_run(&s(&["--n", "10", "--k", "2", "--bias", "9"])).is_err());
    }

    #[test]
    fn trace_rejects_missing_file() {
        assert!(cmd_trace(&s(&["/nonexistent/file.usdt"])).is_err());
        assert!(cmd_trace(&s(&[])).is_err());
    }
}
