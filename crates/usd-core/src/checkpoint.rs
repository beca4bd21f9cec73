//! Crash-safe run checkpoints for the USD drivers.
//!
//! A [`RunCheckpoint`] packages everything a `usd-sim run` needs to resume
//! bit-identically: the run identity (backend, n, k, seed, topology), the
//! driver RNG stream position, the optional `--timeline` flight recorder,
//! and the engine's own opaque state payload (written through
//! [`Simulator::snapshot_state`](pop_proto::Simulator::snapshot_state)).
//!
//! The container serializes through [`pop_proto::checkpoint`]: a sealed
//! body behind the magic/version/CRC header, persisted atomically
//! (temp file + fsync + rename) with a one-deep `.prev` fallback chain.
//! Loading validates the header, the checksum, and the run identity echo,
//! and never panics on corrupt or truncated input.
//!
//! Resume contract: rebuild the simulator from the *flags* exactly as the
//! original run did (the constructor consumes the same RNG draws — e.g.
//! the shuffled initial layout on topologies), then
//! [`restore_state`](pop_proto::Simulator::restore_state) from
//! [`RunCheckpoint::engine`] and continue with the RNG positioned at
//! [`RunCheckpoint::rng`]. Chunk boundaries in the drivers are a pure
//! function of the absolute interaction clock, so the resumed trajectory —
//! including the timeline JSONL — is byte-for-byte the uninterrupted one.

use pop_proto::checkpoint::{self, CheckpointError, FaultPlan, SnapshotReader, SnapshotWriter};
use pop_proto::telemetry::timeline::TimelineRecorder;
use std::path::{Path, PathBuf};

/// The identity of a single run: the fields that pin which trajectory a
/// persisted artifact (a [`RunCheckpoint`], a `topology_sweep` cell file)
/// belongs to. Extracted so every consumer that echoes and re-validates a
/// run identity — [`RunCheckpoint::check_identity`], the sweep's
/// `--resume-dir` cell headers — shares one definition and one mismatch
/// report instead of re-deriving the strings independently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunIdentity {
    /// Backend flag name (`agent`, …, `replica`; replica ensembles append
    /// the lane count, e.g. `replica:64`, keeping the wire format a single
    /// string).
    pub backend: String,
    /// Population size.
    pub n: u64,
    /// Opinion count k (the engines hold k + 1 states).
    pub k: u32,
    /// Master seed of the run.
    pub seed: u64,
    /// Topology family name (e.g. `regular:8`); empty for clique runs.
    pub topology: String,
}

impl RunIdentity {
    /// Build an identity from its fields.
    pub fn new(
        backend: impl Into<String>,
        n: u64,
        k: u32,
        seed: u64,
        topology: impl Into<String>,
    ) -> RunIdentity {
        RunIdentity {
            backend: backend.into(),
            n,
            k,
            seed,
            topology: topology.into(),
        }
    }

    /// The canonical one-line rendering, used verbatim in sweep cell
    /// headers: `backend=… n=… k=… seed=… topology='…'`.
    pub fn describe(&self) -> String {
        format!(
            "backend={} n={} k={} seed={} topology='{}'",
            self.backend, self.n, self.k, self.seed, self.topology
        )
    }

    /// Field-by-field comparison against what the caller's flags say,
    /// naming every mismatching field (`self` is the persisted echo,
    /// `flags` the live request). Empty means the identities agree.
    pub fn mismatches(&self, flags: &RunIdentity) -> Vec<String> {
        let mut out = Vec::new();
        if self.backend != flags.backend {
            out.push(format!(
                "backend {} (flags say {})",
                self.backend, flags.backend
            ));
        }
        if self.n != flags.n {
            out.push(format!("n {} (flags say {})", self.n, flags.n));
        }
        if self.k != flags.k {
            out.push(format!("k {} (flags say {})", self.k, flags.k));
        }
        if self.seed != flags.seed {
            out.push(format!("seed {} (flags say {})", self.seed, flags.seed));
        }
        if self.topology != flags.topology {
            out.push(format!(
                "topology '{}' (flags say '{}')",
                self.topology, flags.topology
            ));
        }
        out
    }
}

impl std::fmt::Display for RunIdentity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.describe())
    }
}

/// A complete, resumable snapshot of a single `usd-sim run`.
#[derive(Debug, Clone)]
pub struct RunCheckpoint {
    /// Backend flag name (`agent`, `count`, `batch`, `graph`,
    /// `batchgraph`, `skip`; `replica:<lanes>` for ensembles).
    pub backend: String,
    /// Population size.
    pub n: u64,
    /// Opinion count k (the engines hold k + 1 states).
    pub k: u32,
    /// Master seed of the run.
    pub seed: u64,
    /// Topology family name (e.g. `regular:8`); empty for clique runs.
    pub topology: String,
    /// Driver RNG stream position (Xoshiro256++ state words).
    pub rng: [u64; 4],
    /// The `--timeline` flight recorder, when the run samples one.
    pub recorder: Option<TimelineRecorder>,
    /// Opaque engine payload ([`snapshot_state`] bytes).
    ///
    /// [`snapshot_state`]: pop_proto::Simulator::snapshot_state
    pub engine: Vec<u8>,
}

impl RunCheckpoint {
    /// Serialize and seal (magic + version + CRC header).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_str(&self.backend);
        w.put_u64(self.n);
        w.put_u32(self.k);
        w.put_u64(self.seed);
        w.put_str(&self.topology);
        for word in self.rng {
            w.put_u64(word);
        }
        match &self.recorder {
            Some(rec) => {
                w.put_bool(true);
                rec.write_snapshot(&mut w);
            }
            None => w.put_bool(false),
        }
        w.put_bytes(&self.engine);
        checkpoint::seal(&w.into_bytes())
    }

    /// Parse a sealed checkpoint, validating header and checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<RunCheckpoint, CheckpointError> {
        Self::decode_body(checkpoint::open(bytes)?)
    }

    /// Decode an already-validated (header-stripped) checkpoint body.
    fn decode_body(body: &[u8]) -> Result<RunCheckpoint, CheckpointError> {
        let mut r = SnapshotReader::new(body);
        let backend = r.get_string()?;
        let n = r.get_u64()?;
        let k = r.get_u32()?;
        let seed = r.get_u64()?;
        let topology = r.get_string()?;
        let mut rng = [0u64; 4];
        for word in &mut rng {
            *word = r.get_u64()?;
        }
        if rng == [0, 0, 0, 0] {
            return Err(CheckpointError::Corrupt(
                "checkpoint RNG state is all-zero".into(),
            ));
        }
        let recorder = if r.get_bool()? {
            Some(TimelineRecorder::read_snapshot(&mut r)?)
        } else {
            None
        };
        let engine = r.get_bytes()?.to_vec();
        r.expect_end()?;
        Ok(RunCheckpoint {
            backend,
            n,
            k,
            seed,
            topology,
            rng,
            recorder,
            engine,
        })
    }

    /// Persist atomically at `path`, rotating any existing checkpoint to
    /// `<path>.prev` first (the fallback chain [`RunCheckpoint::load`]
    /// walks).
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        checkpoint::persist(path, &self.to_bytes())
    }

    /// [`RunCheckpoint::save`] under a fault-injection plan (test harness).
    pub fn save_with(&self, path: &Path, plan: &mut FaultPlan) -> Result<(), CheckpointError> {
        checkpoint::persist_with(path, &self.to_bytes(), plan)
    }

    /// Load from `path`, falling back to `<path>.prev` if the primary is
    /// missing, truncated, or corrupt. Returns the checkpoint and the path
    /// that actually validated.
    pub fn load(path: &Path) -> Result<(RunCheckpoint, PathBuf), CheckpointError> {
        let (body, from) = checkpoint::load_chain(path)?;
        match RunCheckpoint::decode_body(&body) {
            Ok(ckpt) => Ok((ckpt, from)),
            Err(primary_err) => {
                // The primary passed the CRC gate but failed structural
                // decoding; give the rotated predecessor one chance.
                let prev = checkpoint::prev_path(path);
                if from != prev {
                    if let Ok(body) = checkpoint::load_one(&prev) {
                        if let Ok(ckpt) = RunCheckpoint::decode_body(&body) {
                            return Ok((ckpt, prev));
                        }
                    }
                }
                Err(primary_err)
            }
        }
    }

    /// The identity echo this checkpoint carries, as a [`RunIdentity`].
    pub fn identity(&self) -> RunIdentity {
        RunIdentity::new(
            self.backend.clone(),
            self.n,
            self.k,
            self.seed,
            self.topology.clone(),
        )
    }

    /// Validate the run-identity echo against the caller's flags; the
    /// error message names every mismatching field (delegates to
    /// [`RunIdentity::mismatches`]).
    pub fn check_identity(
        &self,
        backend: &str,
        n: u64,
        k: u32,
        seed: u64,
        topology: &str,
    ) -> Result<(), CheckpointError> {
        let flags = RunIdentity::new(backend, n, k, seed, topology);
        let mismatches = self.identity().mismatches(&flags);
        if mismatches.is_empty() {
            Ok(())
        } else {
            Err(CheckpointError::Corrupt(format!(
                "checkpoint was written by a different run: {}",
                mismatches.join(", ")
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_stats::rng::SimRng;

    fn sample() -> RunCheckpoint {
        let config = crate::config::UsdConfig::decided(vec![60, 40]);
        let mut sim = crate::backend::make_simulator(crate::Backend::Count, &config);
        let mut rng = SimRng::new(9);
        sim.run_to_silence(&mut rng, 500);
        let mut w = SnapshotWriter::new();
        sim.snapshot_state(&mut w).unwrap();
        RunCheckpoint {
            backend: "count".into(),
            n: 100,
            k: 2,
            seed: 9,
            topology: String::new(),
            rng: rng.state(),
            recorder: None,
            engine: w.into_bytes(),
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let ckpt = sample();
        let bytes = ckpt.to_bytes();
        let back = RunCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back.backend, "count");
        assert_eq!((back.n, back.k, back.seed), (100, 2, 9));
        assert_eq!(back.topology, "");
        assert_eq!(back.rng, ckpt.rng);
        assert!(back.recorder.is_none());
        assert_eq!(back.engine, ckpt.engine);
        // Same state serializes to the same bytes.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn every_corruption_is_rejected_cleanly() {
        let bytes = sample().to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                RunCheckpoint::from_bytes(&bad).is_err(),
                "bit flip at byte {i} went unnoticed"
            );
        }
        for len in 0..bytes.len() {
            assert!(RunCheckpoint::from_bytes(&bytes[..len]).is_err());
        }
    }

    #[test]
    fn identity_mismatch_names_the_field() {
        let ckpt = sample();
        assert!(ckpt.check_identity("count", 100, 2, 9, "").is_ok());
        let err = ckpt
            .check_identity("graph", 100, 2, 9, "cycle")
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("backend"), "{msg}");
        assert!(msg.contains("topology"), "{msg}");
        assert!(!msg.contains("seed"), "{msg}");
    }

    #[test]
    fn run_identity_describes_and_diffs() {
        let a = RunIdentity::new("replica:64", 1000, 2, 7, "regular:8");
        assert_eq!(
            a.describe(),
            "backend=replica:64 n=1000 k=2 seed=7 topology='regular:8'"
        );
        assert_eq!(a.to_string(), a.describe());
        assert!(a.mismatches(&a.clone()).is_empty());
        let b = RunIdentity::new("agent", 1000, 3, 7, "regular:8");
        let diff = a.mismatches(&b);
        assert_eq!(diff.len(), 2);
        assert!(diff[0].contains("backend"), "{diff:?}");
        assert!(diff[1].contains("k"), "{diff:?}");
    }

    #[test]
    fn save_load_walks_the_fallback_chain() {
        let dir = std::env::temp_dir().join(format!("usd_core_ckpt_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let ckpt = sample();
        ckpt.save(&path).unwrap();
        ckpt.save(&path).unwrap(); // rotates the first into .prev
                                   // Corrupt the primary; load must fall back to .prev.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (back, from) = RunCheckpoint::load(&path).unwrap();
        assert_eq!(from, checkpoint::prev_path(&path));
        assert_eq!(back.engine, ckpt.engine);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
