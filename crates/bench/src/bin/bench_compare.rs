//! Perf-regression gate over `bench_backends --json` output.
//!
//! ```text
//! cargo run --release -p usd-bench --bin bench_compare -- \
//!     <baseline.json> <candidate.json> [--threshold <frac>]
//!     [--summary <path>]
//! cargo run --release -p usd-bench --bin bench_compare -- \
//!     --assert-telemetry <run.json>
//! cargo run --release -p usd-bench --bin bench_compare -- \
//!     --assert-timeline <run.jsonl>
//! cargo run --release -p usd-bench --bin bench_compare -- \
//!     --assert-checkpoint <run.ckpt>
//! ```
//!
//! `--summary <path>` additionally **appends** a markdown per-scenario
//! ratio table to `path` (created if missing) — pass
//! `"$GITHUB_STEP_SUMMARY"` in CI and the gate verdict renders on the run
//! page, pass or fail, without downloading artifacts. The summary is
//! written before the exit code is decided, so a failing gate still
//! reports its table. When the candidate rows carry telemetry blocks, a
//! second table of key telemetry rates (effective fraction, sparse cancel
//! rate, literal-fallback rate) per scenario is appended after the ratio
//! table; when they carry event-histogram blocks (`bench_backends` always
//! embeds them since the flight-recorder PR), a third table trends each
//! histogram's p50/p90/p99 against the baseline's quantiles. The
//! quantile trends are advisory, not gated: the values are power-of-two
//! bin lower edges, so any movement is a genuine bucket shift worth
//! eyeballing in review, but distribution shape is too workload-coupled
//! for a hard threshold.
//!
//! `--assert-telemetry <run.json>` is a separate smoke mode: it checks
//! that **every** row of the document carries a non-empty telemetry block
//! with `scheduled > 0`, and exits `1` listing the offending rows
//! otherwise. CI runs it on the fresh bench output so a backend that
//! silently stops reporting telemetry (a new engine forgetting to
//! instrument, a refactor dropping the counters) fails the build instead
//! of quietly degrading the run reports.
//!
//! `--assert-timeline <run.jsonl>` is the same idea for the flight
//! recorder: every line of a `usd-sim run --timeline` JSONL must be a
//! record carrying the full schema key set **in emission order**, with
//! `sample` counting up from 0 and the cumulative `scheduled`/`effective`
//! clocks monotone. Exit `1` lists every violating line; an unreadable or
//! empty file is exit `2` (an empty timeline means the recorder never
//! sampled — a wiring bug, not a schema drift).
//!
//! `--assert-checkpoint <run.ckpt>` validates a `usd-sim run --checkpoint`
//! file end to end: the sealed container header (magic, format version,
//! CRC-32 of the body) and the full structural decode of the run
//! checkpoint behind it — identity echo, RNG stream words, optional
//! flight recorder, engine payload. Exit `0` prints a one-line summary of
//! the run the file would resume; a corrupt, truncated, or
//! wrong-versioned file is exit `1` with the validation error; an
//! unreadable path is exit `2`. CI runs it on the checkpoint the
//! kill-and-resume smoke job leaves behind, so a schema drift between
//! writer and validator fails the build.
//!
//! Matches rows by `(backend, topology, n, mode)` and, for every
//! **stabilization** row present in both files, compares the candidate's
//! effective-interaction throughput against the baseline's. Exit codes:
//!
//! * `0` — every compared row is within `threshold` (default 0.40, i.e. a
//!   row may lose at most 40% of its baseline stabilization rate);
//! * `1` — at least one row regressed past the threshold;
//! * `2` — usage or parse error, or any baseline stabilization row is
//!   missing from the candidate (a misconfigured gate must fail loudly,
//!   not silently lose coverage — this is what catches a quick-mode or
//!   `--backend`-filtered candidate being compared against the committed
//!   full-mode baseline). Extra candidate rows are fine: new scenarios
//!   join the gate when the baseline is regenerated.
//!
//! `target`-mode rows (fixed scheduled-interaction drives) are reported
//! for context but not gated: their wall time is dominated by the
//! scheduled-throughput extremes the sparse skipper produces, which swing
//! orders of magnitude with trivial phase-boundary shifts. Documents are
//! read with the strict `sim_stats::json` parser and every field is looked
//! up by key, so neither the order of a row's keys nor the names its
//! nested `histograms`/`telemetry` objects repeat can shift what the gate
//! reads.

use sim_stats::json::{self, Value};

/// The telemetry summary a row may carry (`None` when the row predates
/// telemetry, or its block is empty/unparseable — the distinction only
/// matters to `--assert-telemetry`, which treats all three as failures).
#[derive(Debug, Clone, Copy, PartialEq)]
struct TelemetrySummary {
    scheduled: u64,
    effective_fraction: f64,
    cancel_rate: f64,
    fallback_rate: f64,
}

/// One histogram field's quantile summary, as `EventHistograms::to_json`
/// emits it: power-of-two bin lower edges plus the event count.
#[derive(Debug, Clone, PartialEq)]
struct HistField {
    name: String,
    p50: f64,
    p90: f64,
    p99: f64,
    n: u64,
}

/// One parsed benchmark row (the fields the gate needs).
#[derive(Debug, Clone, PartialEq)]
struct CmpRow {
    backend: String,
    topology: String,
    n: u64,
    mode: String,
    scheduled_per_s: f64,
    effective_per_s: f64,
    /// Per-event histogram quantiles in schema order (empty when the row
    /// predates the flight-recorder PR, or the block is malformed).
    histograms: Vec<HistField>,
    telemetry: Option<TelemetrySummary>,
}

impl CmpRow {
    fn key(&self) -> String {
        format!(
            "{}/{} n={} [{}]",
            self.backend, self.topology, self.n, self.mode
        )
    }
}

/// Summarize a row's nested `telemetry` object. `None` when the key is
/// absent or the block lacks the expected counters/rates.
fn parse_telemetry(row: &Value) -> Option<TelemetrySummary> {
    let t = row.get("telemetry")?;
    let rate = |key| t.get("rates")?.get(key)?.as_f64();
    Some(TelemetrySummary {
        scheduled: t.get("scheduled")?.as_u64()?,
        effective_fraction: rate("effective_fraction")?,
        cancel_rate: rate("cancel_rate")?,
        fallback_rate: rate("fallback_rate")?,
    })
}

/// A row's nested `histograms` object as per-field quantile summaries, in
/// the order the block lists them. Histograms are advisory, so a missing
/// block or a malformed field yields no columns, unlike the row's own
/// scalar fields whose absence is a parse error.
fn parse_histograms(row: &Value) -> Vec<HistField> {
    let fields = row.get("histograms").and_then(Value::as_object);
    fields
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, f)| {
            Some(HistField {
                name: name.clone(),
                p50: f.get("p50")?.as_f64()?,
                p90: f.get("p90")?.as_f64()?,
                p99: f.get("p99")?.as_f64()?,
                n: f.get("n")?.as_u64()?,
            })
        })
        .collect()
}

/// Parse the `rows` array of a `bench_backends --json` document.
fn parse_rows(doc: &str) -> Result<Vec<CmpRow>, String> {
    let doc = json::parse(doc).map_err(|e| e.to_string())?;
    let rows = doc
        .get("rows")
        .and_then(Value::as_array)
        .ok_or("no \"rows\" array")?;
    rows.iter()
        .enumerate()
        .map(|(i, row)| {
            let missing =
                |kind: &str, key: &str| format!("missing {kind} field '{key}' in row {i}");
            let text = |key| {
                let v = row.get(key).and_then(Value::as_str);
                v.map(str::to_string).ok_or_else(|| missing("string", key))
            };
            let num = |key| {
                let v = row.get(key).and_then(Value::as_f64);
                v.ok_or_else(|| missing("numeric", key))
            };
            let n = row.get("n").and_then(Value::as_u64);
            Ok(CmpRow {
                backend: text("backend")?,
                topology: text("topology")?,
                n: n.ok_or_else(|| missing("integer", "n"))?,
                mode: text("mode")?,
                scheduled_per_s: num("scheduled_per_s")?,
                effective_per_s: num("effective_per_s")?,
                histograms: parse_histograms(row),
                telemetry: parse_telemetry(row),
            })
        })
        .collect()
}

/// `--assert-telemetry` check: every row must carry a telemetry block
/// with `scheduled > 0`. Returns the keys of the rows that fail.
fn missing_telemetry(rows: &[CmpRow]) -> Vec<String> {
    rows.iter()
        .filter(|r| !matches!(r.telemetry, Some(t) if t.scheduled > 0))
        .map(|r| r.key())
        .collect()
}

/// The keys of every flight-recorder JSONL record, in the order
/// `TimelineSample::to_json` emits them. Spelled out here rather than taken
/// from the writer: this list is the schema the writer is checked against.
const TIMELINE_KEYS: [&str; 15] = [
    "sample",
    "scheduled",
    "effective",
    "phase",
    "d_scheduled",
    "d_effective",
    "d_dense_steps",
    "d_blocks",
    "d_block_applied",
    "d_fallback_literal",
    "d_sparse_enters",
    "d_sparse_exits",
    "d_sparse_events",
    "d_sparse_flushes",
    "rates",
];

/// The keys of a record's `rates` object, in emission order.
const TIMELINE_RATE_KEYS: [&str; 3] = ["effective_fraction", "cancel_rate", "fallback_rate"];

/// The first difference between an object's keys and the expected list.
fn key_mismatch(obj: &Value, expected: &[&str]) -> Option<String> {
    let keys: Vec<&str> = obj.keys().collect();
    let i = (0..=expected.len()).find(|&i| keys.get(i) != expected.get(i))?;
    Some(match expected.get(i) {
        Some(key) => format!("missing or out-of-order key \"{key}\""),
        None => format!("unexpected key \"{}\"", keys[i]),
    })
}

/// `--assert-timeline` check over one flight-recorder JSONL document:
/// every line is a JSON object whose keys are exactly the schema keys in
/// emission order, `sample` counts up from 0, and the cumulative
/// `scheduled`/`effective` clocks never go backwards. Ok carries the
/// sample count; Err lists every violation found (all lines are checked
/// so one bad record does not mask the rest).
fn assert_timeline(doc: &str) -> Result<usize, Vec<String>> {
    let mut problems = Vec::new();
    let mut count = 0u64;
    let mut last_clocks = [0.0f64; 2];
    for (lineno, line) in doc.lines().enumerate() {
        let ln = lineno + 1;
        let index = count;
        count += 1;
        let record = match json::parse(line) {
            Ok(v) if v.as_object().is_some() => v,
            _ => {
                problems.push(format!("line {ln}: not a one-line JSON record"));
                continue;
            }
        };
        let rates = record.get("rates").unwrap_or(&Value::Null);
        let mismatch = key_mismatch(&record, &TIMELINE_KEYS)
            .or_else(|| key_mismatch(rates, &TIMELINE_RATE_KEYS).map(|m| format!("rates: {m}")));
        if let Some(m) = mismatch {
            problems.push(format!("line {ln}: {m}"));
            continue;
        }
        match record.get("sample").and_then(Value::as_u64) {
            Some(s) if s == index => {}
            Some(s) => problems.push(format!("line {ln}: sample index {s} (expected {index})")),
            None => problems.push(format!("line {ln}: sample is not an integer")),
        }
        for (key, last) in ["scheduled", "effective"].into_iter().zip(&mut last_clocks) {
            let clock = record.get(key).and_then(Value::as_f64).unwrap_or(-1.0);
            if clock < *last {
                problems.push(format!(
                    "line {ln}: {key} clock went backwards ({last} -> {clock})"
                ));
            }
            *last = clock;
        }
    }
    if problems.is_empty() {
        Ok(count as usize)
    } else {
        Err(problems)
    }
}

/// `--assert-checkpoint` check over raw checkpoint-file bytes: the sealed
/// header must validate (magic, version, CRC) and the body must decode as
/// a complete run checkpoint. Ok carries the summary line printed on
/// success; Err the validation failure.
fn assert_checkpoint(bytes: &[u8]) -> Result<String, String> {
    let ckpt = usd_core::RunCheckpoint::from_bytes(bytes)
        .map_err(|e| format!("invalid checkpoint: {e}"))?;
    Ok(format!(
        "valid checkpoint: backend={} n={} k={} seed={} topology={} \
         recorder={} engine-payload={}B sealed={}B",
        ckpt.backend,
        ckpt.n,
        ckpt.k,
        ckpt.seed,
        if ckpt.topology.is_empty() {
            "clique"
        } else {
            &ckpt.topology
        },
        if ckpt.recorder.is_some() { "yes" } else { "no" },
        ckpt.engine.len(),
        bytes.len()
    ))
}

/// One gated comparison.
#[derive(Debug)]
struct Comparison {
    key: String,
    baseline: f64,
    candidate: f64,
    /// candidate / baseline (1.0 = parity, < 1 = slower).
    ratio: f64,
    regressed: bool,
}

/// Compare every stabilization row of the baseline against the candidate.
/// Errors when any baseline stabilization row is missing from the
/// candidate — a partially overlapping candidate (quick vs full scenario
/// set, a `--backend`/`--topology`-filtered run, a scenario silently
/// dropped from the grid) must fail the gate loudly, not shrink its
/// coverage.
fn compare(
    baseline: &[CmpRow],
    candidate: &[CmpRow],
    threshold: f64,
) -> Result<Vec<Comparison>, String> {
    let mut out = Vec::new();
    let mut missing = Vec::new();
    for b in baseline.iter().filter(|r| r.mode == "stabilize") {
        let Some(c) = candidate.iter().find(|r| {
            r.backend == b.backend && r.topology == b.topology && r.n == b.n && r.mode == b.mode
        }) else {
            missing.push(b.key());
            continue;
        };
        if b.effective_per_s <= 0.0 {
            continue; // a zero-rate baseline row cannot be regressed against
        }
        let ratio = c.effective_per_s / b.effective_per_s;
        out.push(Comparison {
            key: b.key(),
            baseline: b.effective_per_s,
            candidate: c.effective_per_s,
            ratio,
            regressed: ratio < 1.0 - threshold,
        });
    }
    if !missing.is_empty() {
        return Err(format!(
            "{} baseline stabilization row(s) have no candidate counterpart — \
             the gate would silently lose coverage (quick vs full scenario \
             set, or a filtered/renamed grid?):\n  {}",
            missing.len(),
            missing.join("\n  ")
        ));
    }
    if out.is_empty() {
        return Err("baseline contains no stabilization rows — nothing to gate".to_string());
    }
    Ok(out)
}

/// Append `doc` to the summary file (`$GITHUB_STEP_SUMMARY` is append-
/// oriented: other steps may have written before us). Creates the file if
/// missing; a write failure is reported but does not change the gate
/// verdict.
fn append_summary(path: &str, doc: &str) {
    use std::io::Write;
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(doc.as_bytes()));
    match written {
        Ok(()) => println!("wrote summary to {path}"),
        Err(e) => eprintln!("cannot write summary {path}: {e}"),
    }
}

/// Render the gate verdict as a markdown document (one table row per
/// gated scenario, most-regressed first), for `$GITHUB_STEP_SUMMARY`.
fn summary_markdown(comparisons: &[Comparison], threshold: f64) -> String {
    let regressions = comparisons.iter().filter(|c| c.regressed).count();
    let mut doc = String::from("## Perf-regression gate (`bench_compare`)\n\n");
    doc.push_str(&format!(
        "**{}** — {} stabilization row(s) gated against the committed \
         baseline, {} regression(s) past the {:.0}% threshold.\n\n",
        if regressions == 0 {
            "PASS ✅"
        } else {
            "FAIL ❌"
        },
        comparisons.len(),
        regressions,
        threshold * 100.0
    ));
    doc.push_str("| scenario | baseline eff/s | candidate eff/s | ratio | verdict |\n");
    doc.push_str("|---|---:|---:|---:|---|\n");
    let mut rows: Vec<&Comparison> = comparisons.iter().collect();
    rows.sort_by(|a, b| a.ratio.total_cmp(&b.ratio));
    for c in rows {
        doc.push_str(&format!(
            "| `{}` | {:.3e} | {:.3e} | {:.3} | {} |\n",
            c.key,
            c.baseline,
            c.candidate,
            c.ratio,
            if c.regressed { "**REGRESSED**" } else { "ok" }
        ));
    }
    doc.push('\n');
    doc
}

/// Render the candidate rows' telemetry rates as a markdown table (every
/// row, both modes — the rates characterize the run even where wall time
/// is not gated). Empty string when no row carries telemetry, so old
/// documents produce no stub section.
fn telemetry_markdown(rows: &[CmpRow]) -> String {
    if rows.iter().all(|r| r.telemetry.is_none()) {
        return String::new();
    }
    let mut doc = String::from("### Candidate telemetry rates\n\n");
    doc.push_str("| scenario | effective frac | cancel rate | fallback rate |\n");
    doc.push_str("|---|---:|---:|---:|\n");
    for r in rows {
        match r.telemetry {
            Some(t) => doc.push_str(&format!(
                "| `{}` | {:.4} | {:.4} | {:.4} |\n",
                r.key(),
                t.effective_fraction,
                t.cancel_rate,
                t.fallback_rate
            )),
            None => doc.push_str(&format!("| `{}` | — | — | — |\n", r.key())),
        }
    }
    doc.push('\n');
    doc
}

/// Histogram-quantile trend table: one markdown row per (scenario,
/// histogram field) with events in the candidate, alongside the
/// baseline's quantiles for the same field where present ("—" when the
/// committed baseline predates histograms — regenerating it picks the
/// column up). Advisory only: quantiles are power-of-two bin lower
/// edges, so any movement is a real bucket shift worth a look in review,
/// but the shapes are too workload-coupled to gate on. Empty string when
/// no candidate row recorded any events.
fn histogram_markdown(baseline: &[CmpRow], candidate: &[CmpRow]) -> String {
    if candidate
        .iter()
        .all(|r| r.histograms.iter().all(|f| f.n == 0))
    {
        return String::new();
    }
    let mut doc = String::from("### Event-histogram quantile trends\n\n");
    doc.push_str(
        "| scenario | histogram | p50 | p90 | p99 | events | baseline p50/p90/p99 |\n\
         |---|---|---:|---:|---:|---:|---:|\n",
    );
    for r in candidate {
        let base = baseline.iter().find(|b| {
            b.backend == r.backend && b.topology == r.topology && b.n == r.n && b.mode == r.mode
        });
        for f in r.histograms.iter().filter(|f| f.n > 0) {
            let base_cell = base
                .and_then(|b| b.histograms.iter().find(|bf| bf.name == f.name && bf.n > 0))
                .map_or("—".to_string(), |bf| {
                    format!("{:.0}/{:.0}/{:.0}", bf.p50, bf.p90, bf.p99)
                });
            doc.push_str(&format!(
                "| `{}` | {} | {:.0} | {:.0} | {:.0} | {} | {} |\n",
                r.key(),
                f.name,
                f.p50,
                f.p90,
                f.p99,
                f.n,
                base_cell
            ));
        }
    }
    doc.push('\n');
    doc
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut threshold = 0.40f64;
    let mut summary: Option<String> = None;
    let mut assert_telemetry: Option<String> = None;
    let mut assert_timeline_path: Option<String> = None;
    let mut assert_checkpoint_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--assert-telemetry" => match it.next() {
                Some(path) if !path.is_empty() => assert_telemetry = Some(path.clone()),
                _ => {
                    eprintln!("--assert-telemetry needs a run-JSON path");
                    std::process::exit(2);
                }
            },
            "--assert-timeline" => match it.next() {
                Some(path) if !path.is_empty() => assert_timeline_path = Some(path.clone()),
                _ => {
                    eprintln!("--assert-timeline needs a timeline-JSONL path");
                    std::process::exit(2);
                }
            },
            "--assert-checkpoint" => match it.next() {
                Some(path) if !path.is_empty() => assert_checkpoint_path = Some(path.clone()),
                _ => {
                    eprintln!("--assert-checkpoint needs a checkpoint-file path");
                    std::process::exit(2);
                }
            },
            "--threshold" => {
                threshold = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|t| (0.0..1.0).contains(t))
                    .unwrap_or_else(|| {
                        eprintln!("--threshold needs a fraction in [0, 1)");
                        std::process::exit(2);
                    });
            }
            "--summary" => match it.next() {
                Some(path) if !path.is_empty() => summary = Some(path.clone()),
                _ => {
                    eprintln!("--summary needs a non-empty path");
                    std::process::exit(2);
                }
            },
            other if !other.starts_with("--") => paths.push(other.to_string()),
            other => {
                eprintln!("unknown flag '{other}' (usage: bench_compare <baseline.json> <candidate.json> [--threshold <frac>] [--summary <path>] | bench_compare --assert-telemetry <run.json> | bench_compare --assert-timeline <run.jsonl> | bench_compare --assert-checkpoint <run.ckpt>)");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = assert_checkpoint_path {
        // Standalone smoke mode, like the other --assert-* flags: rejects
        // stray positionals and mode mixing instead of ignoring them.
        if !paths.is_empty() || assert_telemetry.is_some() || assert_timeline_path.is_some() {
            eprintln!("--assert-checkpoint takes a single checkpoint path and no other mode");
            std::process::exit(2);
        }
        let bytes = std::fs::read(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        match assert_checkpoint(&bytes) {
            Ok(summary) => {
                println!("{path}: {summary}");
                return;
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = assert_timeline_path {
        // Standalone smoke mode, like --assert-telemetry below: rejects
        // stray positionals and mode mixing instead of ignoring them.
        if !paths.is_empty() || assert_telemetry.is_some() {
            eprintln!("--assert-timeline takes a single JSONL path and no other mode");
            std::process::exit(2);
        }
        let doc = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        match assert_timeline(&doc) {
            Ok(0) => {
                eprintln!("{path}: empty timeline — the recorder never sampled");
                std::process::exit(2);
            }
            Ok(samples) => {
                println!("{path}: {samples} schema-conforming timeline sample(s), clocks monotone");
                return;
            }
            Err(problems) => {
                eprintln!(
                    "{path}: {} timeline schema violation(s):\n  {}",
                    problems.len(),
                    problems.join("\n  ")
                );
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = assert_telemetry {
        // Standalone smoke mode: no baseline involved, so it rejects any
        // extra positional paths instead of silently ignoring them.
        if !paths.is_empty() {
            eprintln!("--assert-telemetry takes no positional paths (got {paths:?})");
            std::process::exit(2);
        }
        let doc = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        let rows = parse_rows(&doc).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(2);
        });
        if rows.is_empty() {
            eprintln!("{path}: no rows — nothing to assert telemetry on");
            std::process::exit(2);
        }
        let missing = missing_telemetry(&rows);
        if missing.is_empty() {
            println!(
                "{path}: all {} row(s) report a telemetry block with scheduled > 0",
                rows.len()
            );
            return;
        }
        eprintln!(
            "{path}: {} of {} row(s) missing a live telemetry block:\n  {}",
            missing.len(),
            rows.len(),
            missing.join("\n  ")
        );
        std::process::exit(1);
    }
    if paths.len() != 2 {
        eprintln!("usage: bench_compare <baseline.json> <candidate.json> [--threshold <frac>] [--summary <path>] | bench_compare --assert-telemetry <run.json> | bench_compare --assert-timeline <run.jsonl> | bench_compare --assert-checkpoint <run.ckpt>");
        std::process::exit(2);
    }
    // Every exit-2 path below reports through this, so a mis-set-up gate
    // (unreadable/corrupt JSON, disjoint scenario sets) is visible on the
    // run page too, not just in the step log.
    let fail_setup = |e: String| -> ! {
        if let Some(path) = &summary {
            let doc = format!("## Perf-regression gate (`bench_compare`)\n\n**ERROR** — {e}\n");
            append_summary(path, &doc);
        }
        eprintln!("{e}");
        std::process::exit(2);
    };
    let read = |path: &str| -> Vec<CmpRow> {
        let doc = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail_setup(format!("cannot read {path}: {e}")));
        parse_rows(&doc).unwrap_or_else(|e| fail_setup(format!("cannot parse {path}: {e}")))
    };
    let baseline = read(&paths[0]);
    let candidate = read(&paths[1]);
    let comparisons = compare(&baseline, &candidate, threshold).unwrap_or_else(|e| fail_setup(e));
    if let Some(path) = &summary {
        let doc = summary_markdown(&comparisons, threshold)
            + &telemetry_markdown(&candidate)
            + &histogram_markdown(&baseline, &candidate);
        append_summary(path, &doc);
    }

    println!(
        "{:<40} {:>14} {:>14} {:>8}  verdict (gate: ratio >= {:.2})",
        "stabilization row",
        "baseline eff/s",
        "candidate eff/s",
        "ratio",
        1.0 - threshold
    );
    let mut regressions = 0usize;
    for c in &comparisons {
        println!(
            "{:<40} {:>14.3e} {:>14.3e} {:>8.3}  {}",
            c.key,
            c.baseline,
            c.candidate,
            c.ratio,
            if c.regressed { "REGRESSED" } else { "ok" }
        );
        regressions += c.regressed as usize;
    }
    println!(
        "{} rows gated, {} regression(s) past the {:.0}% threshold",
        comparisons.len(),
        regressions,
        threshold * 100.0
    );
    if regressions > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A telemetry block in the `EngineTelemetry::to_json` layout (the
    /// fields the parser extracts, inside the same nesting).
    fn telemetry_json(scheduled: u64) -> String {
        format!(
            "{{\"scheduled\":{scheduled},\"effective\":7,\"dense_steps\":3,\
             \"sparse\":{{\"events\":2,\"entries_applied\":5,\"entries_cancelled\":5}},\
             \"spans\":{{\"dense_ns\":0,\"sparse_ns\":0}},\
             \"rates\":{{\"effective_fraction\":0.070000,\"cancel_rate\":0.500000,\
             \"fallback_rate\":0.125000}}}}"
        )
    }

    /// A histograms block in the `EventHistograms::to_json` layout: two
    /// live fields, the rest empty (an engine never exercises them all).
    fn histograms_json(p99: u64) -> String {
        format!(
            "{{\"skip_len\":{{\"p50\":2,\"p90\":16,\"p99\":{p99},\"n\":523}},\
             \"block_total\":{{\"p50\":0,\"p90\":0,\"p99\":0,\"n\":0}},\
             \"block_size\":{{\"p50\":4,\"p90\":8,\"p99\":8,\"n\":12}},\
             \"flush_size\":{{\"p50\":0,\"p90\":0,\"p99\":0,\"n\":0}},\
             \"flush_occupancy\":{{\"p50\":0,\"p90\":0,\"p99\":0,\"n\":0}},\
             \"fallback_run\":{{\"p50\":0,\"p90\":0,\"p99\":0,\"n\":0}}}}"
        )
    }

    fn doc_with_blocks(
        rows: &[(&str, &str, u64, &str, f64)],
        histograms: Option<&str>,
        telemetry: Option<&str>,
    ) -> String {
        let body: Vec<String> = rows
            .iter()
            .map(|(b, t, n, m, eff)| {
                let hist = histograms.map_or(String::new(), |h| format!(",\"histograms\":{h}"));
                let tail = telemetry.map_or(String::new(), |t| format!(",\"telemetry\":{t}"));
                format!(
                    "  {{\"backend\":\"{b}\",\"topology\":\"{t}\",\"n\":{n},\"mode\":\"{m}\",\
                     \"wall_s\":1.0,\"scheduled\":100,\"effective\":50,\
                     \"scheduled_per_s\":{:.1},\"effective_per_s\":{eff:.1}{hist}{tail}}}",
                    eff * 2.0
                )
            })
            .collect();
        format!(
            "{{\n\"workload\": \"bench_backends\",\n\"quick\": false,\n\"rows\": [\n{}\n]\n}}\n",
            body.join(",\n")
        )
    }

    fn doc_with_telemetry(
        rows: &[(&str, &str, u64, &str, f64)],
        telemetry: Option<&str>,
    ) -> String {
        doc_with_blocks(rows, None, telemetry)
    }

    fn doc(rows: &[(&str, &str, u64, &str, f64)]) -> String {
        doc_with_telemetry(rows, None)
    }

    #[test]
    fn parses_the_bench_backends_layout() {
        let rows = parse_rows(&doc(&[
            ("agent", "regular:8", 100_000, "stabilize", 5.0e6),
            ("graph", "cycle-frontier", 65_536, "target", 4.6e3),
        ]))
        .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].backend, "agent");
        assert_eq!(rows[0].topology, "regular:8");
        assert_eq!(rows[0].n, 100_000);
        assert_eq!(rows[0].mode, "stabilize");
        assert!((rows[0].effective_per_s - 5.0e6).abs() < 1.0);
        assert_eq!(rows[1].mode, "target");
    }

    #[test]
    fn self_comparison_passes() {
        let rows = parse_rows(&doc(&[
            ("agent", "regular:8", 100_000, "stabilize", 5.0e6),
            ("batchgraph", "regular:8", 100_000, "stabilize", 1.5e7),
        ]))
        .unwrap();
        let cmp = compare(&rows, &rows, 0.40).unwrap();
        assert_eq!(cmp.len(), 2);
        assert!(cmp.iter().all(|c| !c.regressed));
        assert!(cmp.iter().all(|c| (c.ratio - 1.0).abs() < 1e-9));
    }

    #[test]
    fn regression_past_threshold_is_flagged_and_target_rows_are_not_gated() {
        let base = parse_rows(&doc(&[
            ("agent", "regular:8", 100_000, "stabilize", 5.0e6),
            ("graph", "cycle-frontier", 65_536, "target", 1.0e10),
        ]))
        .unwrap();
        let cand = parse_rows(&doc(&[
            ("agent", "regular:8", 100_000, "stabilize", 2.0e6), // -60%
            ("graph", "cycle-frontier", 65_536, "target", 1.0e3), // not gated
        ]))
        .unwrap();
        let cmp = compare(&base, &cand, 0.40).unwrap();
        assert_eq!(cmp.len(), 1, "target rows must not be gated");
        assert!(cmp[0].regressed);
        // A 40% loss exactly at the threshold still passes.
        let cand_ok = parse_rows(&doc(&[(
            "agent",
            "regular:8",
            100_000,
            "stabilize",
            3.0e6, // -40%
        )]))
        .unwrap();
        let cmp = compare(&base, &cand_ok, 0.40).unwrap();
        assert!(!cmp[0].regressed);
    }

    #[test]
    fn disjoint_scenario_sets_fail_loudly() {
        let base = parse_rows(&doc(&[(
            "agent",
            "regular:8",
            1_000_000,
            "stabilize",
            5.0e6,
        )]))
        .unwrap();
        let cand = parse_rows(&doc(&[(
            "agent",
            "regular:8",
            20_000, // quick-mode n: no overlap
            "stabilize",
            5.0e6,
        )]))
        .unwrap();
        assert!(compare(&base, &cand, 0.40).is_err());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(parse_rows("{}").is_err());
        assert!(parse_rows("{\"rows\": [{\"backend\":\"agent\"}]}").is_err());
        assert!(parse_rows("{\"rows\": [{\"backend\":\"agent\"").is_err());
    }

    #[test]
    fn nested_telemetry_blocks_parse_and_do_not_break_row_splitting() {
        let spec: &[(&str, &str, u64, &str, f64)] = &[
            ("graph", "torus-endgame", 65_536, "stabilize", 3.5e6),
            ("batchgraph", "cycle-frontier", 65_536, "target", 4.6e3),
        ];
        let rows = parse_rows(&doc_with_telemetry(spec, Some(&telemetry_json(100)))).unwrap();
        assert_eq!(rows.len(), 2, "balanced scan must split rows, not braces");
        for r in &rows {
            let t = r.telemetry.expect("telemetry block parsed");
            assert_eq!(t.scheduled, 100);
            assert!((t.effective_fraction - 0.07).abs() < 1e-9);
            assert!((t.cancel_rate - 0.5).abs() < 1e-9);
            assert!((t.fallback_rate - 0.125).abs() < 1e-9);
        }
        // The row's own top-level fields still resolve by first
        // occurrence even though the telemetry block repeats their names.
        assert_eq!(rows[0].n, 65_536);
        assert!((rows[0].effective_per_s - 3.5e6).abs() < 1.0);
        // Rows without telemetry parse as None, and an empty block also
        // summarizes to None rather than a half-filled struct.
        let bare = parse_rows(&doc(spec)).unwrap();
        assert!(bare.iter().all(|r| r.telemetry.is_none()));
        let empty = parse_rows(&doc_with_telemetry(spec, Some("{}"))).unwrap();
        assert!(empty.iter().all(|r| r.telemetry.is_none()));
    }

    #[test]
    fn assert_telemetry_flags_missing_and_dead_blocks() {
        let spec: &[(&str, &str, u64, &str, f64)] =
            &[("graph", "torus-endgame", 65_536, "stabilize", 3.5e6)];
        let live = parse_rows(&doc_with_telemetry(spec, Some(&telemetry_json(100)))).unwrap();
        assert!(missing_telemetry(&live).is_empty());
        let absent = parse_rows(&doc(spec)).unwrap();
        assert_eq!(missing_telemetry(&absent).len(), 1);
        // A block that parses but never scheduled anything is equally dead.
        let zeroed = parse_rows(&doc_with_telemetry(spec, Some(&telemetry_json(0)))).unwrap();
        let missing = missing_telemetry(&zeroed);
        assert_eq!(missing.len(), 1);
        assert!(missing[0].contains("torus-endgame"), "{missing:?}");
    }

    #[test]
    fn telemetry_markdown_lists_rates_and_skips_bare_documents() {
        let spec: &[(&str, &str, u64, &str, f64)] = &[
            ("graph", "torus-endgame", 65_536, "stabilize", 3.5e6),
            ("agent", "regular:8", 100_000, "target", 5.0e6),
        ];
        let bare = parse_rows(&doc(spec)).unwrap();
        assert!(telemetry_markdown(&bare).is_empty());
        let mut rows = parse_rows(&doc_with_telemetry(spec, Some(&telemetry_json(100)))).unwrap();
        rows[1].telemetry = None; // one instrumented row is enough for a table
        let md = telemetry_markdown(&rows);
        assert!(md.contains("| scenario | effective frac | cancel rate | fallback rate |"));
        assert!(
            md.contains("| `graph/torus-endgame n=65536 [stabilize]` | 0.0700 | 0.5000 | 0.1250 |")
        );
        assert!(md.contains("| `agent/regular:8 n=100000 [target]` | — | — | — |"));
    }

    #[test]
    fn histogram_blocks_parse_in_schema_order_and_tolerate_absence() {
        let spec: &[(&str, &str, u64, &str, f64)] =
            &[("batch", "clique", 1_000_000, "stabilize", 5.0e6)];
        let rows = parse_rows(&doc_with_blocks(
            spec,
            Some(&histograms_json(64)),
            Some(&telemetry_json(100)),
        ))
        .unwrap();
        assert_eq!(rows.len(), 1);
        let h = &rows[0].histograms;
        assert_eq!(h.len(), 6, "all six schema fields parse: {h:?}");
        assert_eq!(h[0].name, "skip_len");
        assert_eq!(
            (h[0].p50, h[0].p90, h[0].p99, h[0].n),
            (2.0, 16.0, 64.0, 523)
        );
        assert_eq!(h[2].name, "block_size");
        assert_eq!(h[2].n, 12);
        // The row's own scalar fields are unaffected by the extra nesting
        // (the block repeats "n"), and telemetry still parses after it.
        assert_eq!(rows[0].n, 1_000_000);
        assert_eq!(rows[0].telemetry.unwrap().scheduled, 100);
        // A pre-histogram document parses to empty quantile lists.
        let bare = parse_rows(&doc(spec)).unwrap();
        assert!(bare[0].histograms.is_empty());
    }

    #[test]
    fn row_fields_are_found_by_key_not_by_position() {
        // A valid row whose histograms object comes before the row's own
        // "n": the nested event count (7) must not be read as the row's n.
        let doc = "{\"rows\": [{\"backend\":\"batch\",\"topology\":\"clique\",\
                   \"histograms\":{\"skip_len\":{\"p50\":2,\"p90\":4,\"p99\":8,\"n\":7}},\
                   \"n\":1000,\"mode\":\"stabilize\",\
                   \"scheduled_per_s\":2.0,\"effective_per_s\":1.0}]}";
        let rows = parse_rows(doc).unwrap();
        assert_eq!(rows[0].n, 1_000);
        assert_eq!(rows[0].histograms[0].n, 7);
        assert_eq!(rows[0].effective_per_s, 1.0);
    }

    #[test]
    fn the_committed_baseline_parses() {
        let rows = parse_rows(include_str!("../../../../BENCH_backends.json")).unwrap();
        assert_eq!(rows.len(), 20);
        assert_eq!(rows.iter().filter(|r| r.mode == "stabilize").count(), 17);
        let batch = rows
            .iter()
            .find(|r| r.backend == "batch" && r.topology == "clique" && r.n == 1_000_000)
            .expect("the batch clique row");
        assert_eq!(batch.effective_per_s, 84_165_793.0);
        assert!(rows.iter().all(|r| r.histograms.len() == 6));
        assert!(missing_telemetry(&rows).is_empty());
    }

    #[test]
    fn histogram_markdown_trends_against_baseline_and_skips_empty() {
        let spec: &[(&str, &str, u64, &str, f64)] =
            &[("batch", "clique", 1_000_000, "stabilize", 5.0e6)];
        let base_old = parse_rows(&doc(spec)).unwrap();
        let base_new =
            parse_rows(&doc_with_blocks(spec, Some(&histograms_json(32)), None)).unwrap();
        let cand = parse_rows(&doc_with_blocks(spec, Some(&histograms_json(64)), None)).unwrap();
        // No candidate histograms (or all-empty ones) → no section.
        assert!(histogram_markdown(&base_new, &base_old).is_empty());
        // Baseline predates histograms → candidate columns, "—" baseline.
        let md = histogram_markdown(&base_old, &cand);
        assert!(md.contains("### Event-histogram quantile trends"), "{md}");
        assert!(md.contains(
            "| `batch/clique n=1000000 [stabilize]` | skip_len | 2 | 16 | 64 | 523 | — |"
        ));
        // Zero-count fields are dropped, not rendered as all-zero rows.
        assert!(!md.contains("flush_size"));
        // Baseline with quantiles → diff column.
        let md = histogram_markdown(&base_new, &cand);
        assert!(
            md.contains("| skip_len | 2 | 16 | 64 | 523 | 2/16/32 |"),
            "{md}"
        );
    }

    #[test]
    fn assert_timeline_accepts_conforming_jsonl() {
        let line = |i: u64, sched: u64, eff: u64| {
            format!(
                "{{\"sample\":{i},\"scheduled\":{sched},\"effective\":{eff},\
                 \"phase\":\"dense\",\"d_scheduled\":{sched},\"d_effective\":{eff},\
                 \"d_dense_steps\":1,\"d_blocks\":0,\"d_block_applied\":0,\
                 \"d_fallback_literal\":0,\"d_sparse_enters\":0,\
                 \"d_sparse_exits\":0,\"d_sparse_events\":0,\
                 \"d_sparse_flushes\":0,\
                 \"rates\":{{\"effective_fraction\":0.5,\"cancel_rate\":0.0,\
                 \"fallback_rate\":0.0}}}}\n"
            )
        };
        let good = line(0, 65_536, 100) + &line(1, 131_072, 250) + &line(2, 140_000, 250);
        assert_eq!(assert_timeline(&good), Ok(3));
        assert_eq!(assert_timeline(""), Ok(0), "empty file: caller decides");
    }

    #[test]
    fn assert_timeline_flags_schema_and_monotonicity_violations() {
        let good = "{\"sample\":0,\"scheduled\":10,\"effective\":5,\
             \"phase\":\"dense\",\"d_scheduled\":10,\"d_effective\":5,\
             \"d_dense_steps\":1,\"d_blocks\":0,\"d_block_applied\":0,\
             \"d_fallback_literal\":0,\"d_sparse_enters\":0,\
             \"d_sparse_exits\":0,\"d_sparse_events\":0,\
             \"d_sparse_flushes\":0,\
             \"rates\":{\"effective_fraction\":0.5,\"cancel_rate\":0.0,\
             \"fallback_rate\":0.0}}";
        // A dropped key fails even though every other key is present.
        let missing = good.replace("\"d_blocks\":0,", "");
        let problems = assert_timeline(&missing).unwrap_err();
        assert!(problems[0].contains("d_blocks"), "{problems:?}");
        // A reordered schema fails: same keys, wrong emission order.
        let reordered = good.replace("\"d_blocks\":0,", "").replace(
            "\"d_sparse_flushes\":0,",
            "\"d_sparse_flushes\":0,\"d_blocks\":0,",
        );
        assert!(assert_timeline(&reordered).is_err());
        // Sample indices must count up from zero...
        let renumbered = good.replace("\"sample\":0", "\"sample\":7");
        assert!(assert_timeline(&renumbered).unwrap_err()[0].contains("sample index"));
        // ...and the cumulative clocks must never go backwards.
        let second = good
            .replace("\"sample\":0", "\"sample\":1")
            .replace("\"scheduled\":10", "\"scheduled\":4");
        let doc = format!("{good}\n{second}\n");
        let problems = assert_timeline(&doc).unwrap_err();
        assert!(
            problems.iter().any(|p| p.contains("backwards")),
            "{problems:?}"
        );
        // Junk lines are reported with their line number.
        let doc = format!("{good}\nnot json\n");
        assert!(assert_timeline(&doc).unwrap_err()[0].contains("line 2"));
    }

    #[test]
    fn assert_timeline_checks_the_rates_keys_and_rejects_extra_keys() {
        let good = "{\"sample\":0,\"scheduled\":10,\"effective\":5,\"phase\":\"dense\",\
             \"d_scheduled\":10,\"d_effective\":5,\"d_dense_steps\":1,\"d_blocks\":0,\
             \"d_block_applied\":0,\"d_fallback_literal\":0,\"d_sparse_enters\":0,\
             \"d_sparse_exits\":0,\"d_sparse_events\":0,\"d_sparse_flushes\":0,\
             \"rates\":{\"effective_fraction\":0.5,\"cancel_rate\":0.0,\"fallback_rate\":0.0}}";
        assert_eq!(assert_timeline(good), Ok(1));
        let no_cancel = good.replace("\"cancel_rate\":0.0,", "");
        let problems = assert_timeline(&no_cancel).unwrap_err();
        assert!(problems[0].contains("rates: missing or out-of-order key \"cancel_rate\""));
        let extra = good.replace("\"rates\":", "\"extra\":1,\"rates\":");
        assert!(assert_timeline(&extra).unwrap_err()[0].contains("key \"rates\""));
        let trailing = good.replace("}}", "},\"late\":1}");
        assert!(assert_timeline(&trailing).unwrap_err()[0].contains("unexpected key \"late\""));
    }

    #[test]
    fn assert_checkpoint_validates_sealed_files_and_rejects_corruption() {
        use pop_proto::checkpoint::SnapshotWriter;
        let config = usd_core::UsdConfig::decided(vec![60, 40]);
        let mut sim = usd_core::make_simulator(usd_core::Backend::Count, &config);
        let mut rng = sim_stats::rng::SimRng::new(5);
        sim.run_until(&mut rng, 400, &mut |_| false);
        let mut w = SnapshotWriter::new();
        sim.snapshot_state(&mut w).unwrap();
        let ckpt = usd_core::RunCheckpoint {
            backend: "count".into(),
            n: 100,
            k: 2,
            seed: 5,
            topology: String::new(),
            rng: rng.state(),
            recorder: None,
            engine: w.into_bytes(),
        };
        let bytes = ckpt.to_bytes();
        let summary = assert_checkpoint(&bytes).expect("pristine file validates");
        assert!(summary.contains("backend=count"), "{summary}");
        assert!(summary.contains("topology=clique"), "{summary}");
        assert!(summary.contains("recorder=no"), "{summary}");
        // Any bit flip or truncation fails the CRC/structure gate.
        let mut bad = bytes.clone();
        bad[bytes.len() / 2] ^= 0x10;
        assert!(assert_checkpoint(&bad).is_err());
        assert!(assert_checkpoint(&bytes[..bytes.len() - 3]).is_err());
        assert!(assert_checkpoint(b"not a checkpoint").is_err());
    }

    #[test]
    fn summary_markdown_renders_verdicts_most_regressed_first() {
        let base = parse_rows(&doc(&[
            ("agent", "regular:8", 100_000, "stabilize", 5.0e6),
            ("graph", "cycle-frontier", 4_096, "stabilize", 1.2e7),
            ("batchgraph", "torus-endgame", 65_536, "stabilize", 3.5e6),
        ]))
        .unwrap();
        let cand = parse_rows(&doc(&[
            ("agent", "regular:8", 100_000, "stabilize", 5.2e6), // ok
            ("graph", "cycle-frontier", 4_096, "stabilize", 4.0e6), // -67%
            ("batchgraph", "torus-endgame", 65_536, "stabilize", 3.4e6), // ok
        ]))
        .unwrap();
        let cmp = compare(&base, &cand, 0.40).unwrap();
        let md = summary_markdown(&cmp, 0.40);
        assert!(md.contains("FAIL ❌"), "{md}");
        assert!(md.contains("1 regression(s) past the 40% threshold"));
        assert!(md.contains("| scenario | baseline eff/s | candidate eff/s | ratio | verdict |"));
        assert!(md.contains("**REGRESSED**"));
        // Most-regressed row sorts first.
        let first_row = md
            .lines()
            .find(|l| l.starts_with("| `"))
            .expect("a data row");
        assert!(
            first_row.contains("cycle-frontier"),
            "worst ratio not first: {first_row}"
        );
        // A clean comparison renders PASS.
        let clean = compare(&base, &base, 0.40).unwrap();
        let md = summary_markdown(&clean, 0.40);
        assert!(md.contains("PASS ✅"), "{md}");
        assert!(!md.contains("REGRESSED"));
    }

    #[test]
    fn append_summary_creates_and_appends() {
        let dir =
            std::env::temp_dir().join(format!("bench_compare_summary_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("summary.md");
        let path_str = path.to_str().unwrap();
        append_summary(path_str, "first\n");
        append_summary(path_str, "second\n");
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            content, "first\nsecond\n",
            "summary must append, not truncate"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
