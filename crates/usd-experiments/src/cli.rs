//! Uniform command-line argument handling for the experiment binaries.
//!
//! Every binary accepts the same flags:
//!
//! ```text
//! --n <u64>        population size
//! --k <usize>      number of opinions (default: experiment-specific)
//! --seeds <u64>    number of independent runs per cell
//! --seed <u64>     master seed (default 42)
//! --csv <path>     also write results as CSV next to the stdout report
//! --quick          shrink everything for a fast smoke run
//! --threads <t>    worker-thread count for sweeps (default: USD_THREADS
//!                  env, else available parallelism)
//! --topology <f>   interaction-graph family (topology experiments only)
//! --degree <d>     degree parameter for regular/er families
//! --backend <b>    simulation backend, where the experiment honors it
//!                  (fig1, the lemma probes E3/E4/E5, the scaling sweeps
//!                  E6/E7/E10, E8, E11, and E13: any generic backend;
//!                  topology_sweep: any backend whose
//!                  `capabilities().topologies` holds — agent, graph,
//!                  batchgraph, replica)
//! --timeline-dir <dir>
//!                  write one flight-recorder JSONL per sweep cell from
//!                  the cell's representative run (topology_sweep only)
//! --resume-dir <dir>
//!                  persist each completed sweep cell in <dir> and skip
//!                  cells already completed by a previous interrupted run
//!                  with the same parameters (topology_sweep only)
//! ```
//!
//! Parsing is by hand (no external dependency) and strict: unknown flags
//! are errors, so typos do not silently run the default experiment.

use pop_proto::topology::TopologyFamily;
use usd_core::backend::Backend;

/// Parsed experiment arguments with per-experiment defaults filled in by
/// the caller.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpArgs {
    /// Population size.
    pub n: u64,
    /// Number of opinions (`None` → experiment picks, e.g. the paper's k).
    pub k: Option<usize>,
    /// Independent repetitions per sweep cell.
    pub seeds: u64,
    /// Master seed.
    pub seed: u64,
    /// Optional CSV output path.
    pub csv: Option<String>,
    /// Shrink parameters for a smoke run.
    pub quick: bool,
    /// Sweep worker-thread override (`None` → `USD_THREADS` env, else
    /// available parallelism).
    pub threads: Option<usize>,
    /// Restrict topology experiments to one graph family.
    pub topology: Option<TopologyFamily>,
    /// Degree parameter for degree-parameterized families.
    pub degree: Option<usize>,
    /// Simulation backend, for the experiments that honor it (`None` →
    /// experiment default).
    pub backend: Option<Backend>,
    /// Directory for per-cell flight-recorder JSONL files (experiments
    /// that sample timelines; currently topology_sweep).
    pub timeline_dir: Option<String>,
    /// Directory for idempotent per-cell result files: completed cells
    /// are persisted there as they finish and skipped on a re-run
    /// (currently topology_sweep).
    pub resume_dir: Option<String>,
}

impl Default for ExpArgs {
    fn default() -> Self {
        ExpArgs {
            n: 100_000,
            k: None,
            seeds: 5,
            seed: 42,
            csv: None,
            quick: false,
            threads: None,
            topology: None,
            degree: None,
            backend: None,
            timeline_dir: None,
            resume_dir: None,
        }
    }
}

impl ExpArgs {
    /// Parse from an iterator of argument strings (excluding `argv[0]`).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = ExpArgs::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut take = |name: &str| {
                it.next()
                    .ok_or_else(|| format!("flag {name} needs a value"))
            };
            match flag.as_str() {
                "--n" => {
                    out.n = take("--n")?.parse().map_err(|e| format!("--n: {e}"))?;
                }
                "--k" => {
                    out.k = Some(take("--k")?.parse().map_err(|e| format!("--k: {e}"))?);
                }
                "--seeds" => {
                    out.seeds = take("--seeds")?
                        .parse()
                        .map_err(|e| format!("--seeds: {e}"))?;
                }
                "--seed" => {
                    out.seed = take("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--csv" => {
                    out.csv = Some(take("--csv")?);
                }
                "--quick" => {
                    out.quick = true;
                }
                "--threads" => {
                    out.threads = Some(
                        take("--threads")?
                            .parse()
                            .map_err(|e| format!("--threads: {e}"))?,
                    );
                }
                "--topology" => {
                    out.topology = Some(take("--topology")?.parse()?);
                }
                "--backend" => {
                    out.backend = Some(take("--backend")?.parse()?);
                }
                "--timeline-dir" => {
                    out.timeline_dir = Some(take("--timeline-dir")?);
                }
                "--resume-dir" => {
                    out.resume_dir = Some(take("--resume-dir")?);
                }
                "--degree" => {
                    out.degree = Some(
                        take("--degree")?
                            .parse()
                            .map_err(|e| format!("--degree: {e}"))?,
                    );
                }
                "--help" | "-h" => {
                    return Err("flags: --n <u64> --k <usize> --seeds <u64> --seed <u64> \
                         --csv <path> --quick --threads <usize> \
                         --topology <family> --degree <usize> --backend <name> \
                         --timeline-dir <dir> --resume-dir <dir>"
                        .to_string());
                }
                other => return Err(format!("unknown flag '{other}' (try --help)")),
            }
        }
        if out.n < 2 {
            return Err("--n must be at least 2".to_string());
        }
        if out.seeds == 0 {
            return Err("--seeds must be positive".to_string());
        }
        if out.threads == Some(0) {
            return Err("--threads must be positive".to_string());
        }
        if out.degree == Some(0) {
            return Err("--degree must be at least 1".to_string());
        }
        Ok(out)
    }

    /// Parse from the process environment; print the error and exit(2) on
    /// failure (for use in `fn main`). Applies `--threads` to the sweep
    /// runner as a process-wide override.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(args) => {
                crate::runner::set_thread_override(args.threads);
                args
            }
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// The k to use: explicit `--k` or the experiment's default.
    pub fn k_or(&self, default: usize) -> usize {
        self.k.unwrap_or(default)
    }

    /// The backend to use: explicit `--backend` or the experiment's
    /// default.
    pub fn backend_or(&self, default: Backend) -> Backend {
        self.backend.unwrap_or(default)
    }

    /// [`ExpArgs::backend_or`] for clique experiments running at
    /// population `n`: validates the choice via
    /// [`validate_clique_backend`] and exits(2) with the error message
    /// when the run could only panic later — the [`ExpArgs::from_env`]
    /// convention for flag errors, intended for the binary-backed report
    /// entry points. Library embedders that must not have their process
    /// terminated should pre-validate via [`validate_clique_backend`]
    /// before calling a report function.
    pub fn clique_backend_or(&self, default: Backend, n: u64) -> Backend {
        let backend = self.backend_or(default);
        match validate_clique_backend(backend, n) {
            Ok(()) => backend,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// Quick-mode reduction helper: `value` normally, `quick` when --quick.
    pub fn unless_quick<T>(&self, value: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            value
        }
    }
}

/// Validate a backend choice for a *clique* experiment at population `n`:
/// the graph engines here mean the complete graph, whose Θ(n²) edge list
/// is capped at [`usd_core::backend::COMPLETE_GRAPH_MAX_N`] agents.
/// Binaries call this (via [`ExpArgs::clique_backend_or`]) up front and
/// exit non-zero instead of panicking mid-run.
pub fn validate_clique_backend(backend: Backend, n: u64) -> Result<(), String> {
    let cap = usd_core::backend::COMPLETE_GRAPH_MAX_N;
    if matches!(backend, Backend::Graph | Backend::BatchGraph) && n > cap {
        return Err(format!(
            "--backend {backend} runs the complete graph in this experiment \
             (n(n-1)/2 edges); n = {n} exceeds the {cap} cap — pass --n {cap} \
             or less (or --quick), or use topology_sweep for sparse graphs"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ExpArgs, String> {
        ExpArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.n, 100_000);
        assert_eq!(a.k, None);
        assert_eq!(a.seeds, 5);
        assert_eq!(a.seed, 42);
        assert!(!a.quick);
    }

    #[test]
    fn full_flag_set() {
        let a = parse(&[
            "--n",
            "5000",
            "--k",
            "7",
            "--seeds",
            "3",
            "--seed",
            "9",
            "--csv",
            "/tmp/x.csv",
            "--quick",
            "--threads",
            "2",
            "--topology",
            "regular:6",
            "--degree",
            "4",
            "--timeline-dir",
            "/tmp/timelines",
            "--resume-dir",
            "/tmp/cells",
        ])
        .unwrap();
        assert_eq!(a.n, 5000);
        assert_eq!(a.k, Some(7));
        assert_eq!(a.seeds, 3);
        assert_eq!(a.seed, 9);
        assert_eq!(a.csv.as_deref(), Some("/tmp/x.csv"));
        assert!(a.quick);
        assert_eq!(a.threads, Some(2));
        assert_eq!(a.topology, Some(TopologyFamily::Regular { d: 6 }));
        assert_eq!(a.degree, Some(4));
        assert_eq!(a.timeline_dir.as_deref(), Some("/tmp/timelines"));
        assert_eq!(a.resume_dir.as_deref(), Some("/tmp/cells"));
    }

    #[test]
    fn topology_and_threads_validation() {
        assert!(parse(&["--topology", "moebius"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--degree", "x"]).is_err());
        let a = parse(&["--topology", "hypercube"]).unwrap();
        assert_eq!(a.topology, Some(TopologyFamily::Hypercube));
    }

    #[test]
    fn clique_backend_validation() {
        use usd_core::backend::COMPLETE_GRAPH_MAX_N;
        assert!(validate_clique_backend(Backend::Graph, COMPLETE_GRAPH_MAX_N).is_ok());
        assert!(validate_clique_backend(Backend::Graph, COMPLETE_GRAPH_MAX_N + 1).is_err());
        assert!(validate_clique_backend(Backend::BatchGraph, 1_000_000).is_err());
        // Non-graph backends have no cap.
        assert!(validate_clique_backend(Backend::Batch, u64::MAX / 2).is_ok());
        assert!(validate_clique_backend(Backend::Sequential, 1_000_000).is_ok());
    }

    #[test]
    fn backend_flag_parses_and_rejects_unknown() {
        let a = parse(&["--backend", "batchgraph"]).unwrap();
        assert_eq!(a.backend, Some(Backend::BatchGraph));
        assert_eq!(a.backend_or(Backend::SkipAhead), Backend::BatchGraph);
        assert_eq!(
            parse(&[]).unwrap().backend_or(Backend::Count),
            Backend::Count
        );
        assert!(parse(&["--backend", "warp9"]).is_err());
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(parse(&["--bogus"]).is_err());
    }

    #[test]
    fn missing_value_rejected() {
        assert!(parse(&["--n"]).is_err());
    }

    #[test]
    fn bad_number_rejected() {
        assert!(parse(&["--n", "abc"]).is_err());
        assert!(parse(&["--n", "1"]).is_err());
        assert!(parse(&["--seeds", "0"]).is_err());
    }

    #[test]
    fn helpers() {
        let a = parse(&["--k", "4", "--quick"]).unwrap();
        assert_eq!(a.k_or(9), 4);
        assert_eq!(a.unless_quick(100, 5), 5);
        let b = parse(&[]).unwrap();
        assert_eq!(b.k_or(9), 9);
        assert_eq!(b.unless_quick(100, 5), 100);
    }
}
