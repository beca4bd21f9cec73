//! Fault-injection harness for the checkpoint subsystem: randomized
//! bit-flips and truncations of sealed checkpoint files must be rejected
//! with a clean [`CheckpointError`] on every backend (the CRC gate), fuzzed
//! engine payloads must never panic the restore path, and I/O faults
//! injected at every point of the persist sequence must leave a loadable
//! checkpoint on disk (the `.prev` fallback chain). The companion
//! process-kill variant — [`FaultPlan::kill_on_op`] aborts mid-persist —
//! is exercised end-to-end by the CI kill-and-resume smoke job, since an
//! abort cannot run inside a test thread.

use pop_proto::checkpoint::{FaultPlan, SnapshotReader, SnapshotWriter};
use pop_proto::simulator::snapshot_tags;
use sim_stats::rng::SimRng;
use usd_core::backend::{make_simulator, Backend};
use usd_core::config::UsdConfig;
use usd_core::RunCheckpoint;

/// A mid-flight checkpoint for `backend` on a small dead-heat instance.
fn checkpoint_for(backend: Backend) -> RunCheckpoint {
    let config = UsdConfig::decided(vec![300, 212]);
    let mut sim = make_simulator(backend, &config);
    let mut rng = SimRng::new(0xFA11 ^ backend as u64);
    sim.run_until(&mut rng, 3_000, &mut |_| false);
    let mut w = SnapshotWriter::new();
    sim.snapshot_state(&mut w).expect("snapshot");
    RunCheckpoint {
        backend: backend.name().to_string(),
        n: 512,
        k: 2,
        seed: 0xFA11 ^ backend as u64,
        topology: String::new(),
        rng: rng.state(),
        recorder: None,
        engine: w.into_bytes(),
    }
}

/// Sealed-file corruption on every backend: any single bit flip and any
/// truncation is caught (CRC + length header) and surfaces as `Err`,
/// never a panic. Positions are drawn from the deterministic [`SimRng`]
/// so the property sweep is reproducible.
#[test]
fn sealed_corruption_is_rejected_on_every_backend() {
    let mut rng = SimRng::new(2024);
    for backend in Backend::ALL {
        let bytes = checkpoint_for(backend).to_bytes();
        assert!(RunCheckpoint::from_bytes(&bytes).is_ok());
        for _ in 0..400 {
            let mut bad = bytes.clone();
            let pos = (rng.next() as usize) % bad.len();
            let bit = 1u8 << (rng.next() % 8);
            bad[pos] ^= bit;
            assert!(
                RunCheckpoint::from_bytes(&bad).is_err(),
                "{}: bit flip at byte {pos} (mask {bit:#04x}) accepted",
                backend.name()
            );
        }
        for _ in 0..200 {
            let len = (rng.next() as usize) % bytes.len();
            assert!(
                RunCheckpoint::from_bytes(&bytes[..len]).is_err(),
                "{}: truncation to {len} bytes accepted",
                backend.name()
            );
        }
    }
}

/// Engine-payload fuzzing on every backend: feeding mutated (flipped or
/// truncated) snapshot bytes to a fresh simulator's `restore_state` must
/// never panic — a clean `Err` or a structurally-valid `Ok` are both
/// acceptable (the sealed container's CRC is what guarantees rejection in
/// the real load path; this test pins down the no-panic contract of the
/// layer beneath it). Truncations in particular must always error.
#[test]
fn fuzzed_engine_payload_never_panics_restore() {
    let config = UsdConfig::decided(vec![300, 212]);
    let mut rng = SimRng::new(77);
    for backend in Backend::ALL {
        let good = checkpoint_for(backend).engine;
        {
            let mut sim = make_simulator(backend, &config);
            sim.restore_state(&mut SnapshotReader::new(&good))
                .expect("pristine payload restores");
        }
        for _ in 0..300 {
            let mut bad = good.clone();
            for _ in 0..=(rng.next() % 4) {
                let pos = (rng.next() as usize) % bad.len();
                bad[pos] ^= 1u8 << (rng.next() % 8);
            }
            let mut sim = make_simulator(backend, &config);
            let _ = sim.restore_state(&mut SnapshotReader::new(&bad));
        }
        for _ in 0..100 {
            let len = (rng.next() as usize) % good.len();
            let mut sim = make_simulator(backend, &config);
            assert!(
                sim.restore_state(&mut SnapshotReader::new(&good[..len]))
                    .is_err(),
                "{}: truncated payload ({len} bytes) restored",
                backend.name()
            );
        }
        // A payload written by a *different* backend is rejected by the
        // engine tag, not misinterpreted.
        for other in Backend::ALL {
            if other == backend {
                continue;
            }
            let foreign = checkpoint_for(other).engine;
            let mut sim = make_simulator(backend, &config);
            assert!(
                sim.restore_state(&mut SnapshotReader::new(&foreign))
                    .is_err(),
                "{} accepted a payload from {}",
                backend.name(),
                other.name()
            );
        }
        // A payload carrying a retired engine tag (the sharded graph engine,
        // the sequential USD engine; reserved, never reused) is rejected by
        // that tag on every remaining engine. Every payload starts with its
        // engine tag byte.
        for tag in [snapshot_tags::PAR_GRAPH, snapshot_tags::USD_SEQ] {
            let mut retired = good.clone();
            retired[0] = tag;
            let mut sim = make_simulator(backend, &config);
            let err = sim
                .restore_state(&mut SnapshotReader::new(&retired))
                .expect_err("a retired-tag payload restored");
            assert!(
                err.to_string().contains("retired"),
                "{} (tag {tag}): {err}",
                backend.name()
            );
        }
    }
}

/// I/O faults injected at every file operation of the persist sequence:
/// whatever point the write dies at, the chain on disk still loads — the
/// new checkpoint if the rename committed, the previous one otherwise.
/// This is the crash-safety contract `--checkpoint` relies on.
#[test]
fn persist_faults_at_every_op_leave_a_loadable_chain() {
    let dir = std::env::temp_dir().join(format!("usd_fault_chain_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.ckpt");

    let first = checkpoint_for(Backend::Count);
    let mut second = checkpoint_for(Backend::Count);
    second.seed ^= 1; // distinguishable payloads

    // Count the ops a clean persist performs.
    let mut counter = FaultPlan::none();
    first.save_with(&path, &mut counter).unwrap();
    let total_ops = counter.ops_seen();
    assert!(total_ops >= 3, "persist should at least create/sync/rename");

    for op in 1..=total_ops {
        // Reset the chain: `first` is the durable checkpoint.
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(pop_proto::checkpoint::prev_path(&path));
        first.save(&path).unwrap();

        let mut plan = FaultPlan::fail_on_op(op);
        let res = second.save_with(&path, &mut plan);
        let (loaded, from) = RunCheckpoint::load(&path)
            .unwrap_or_else(|e| panic!("fault at op {op}: chain unloadable: {e}"));
        match res {
            // The persist claims success: the new checkpoint must be live.
            Ok(()) => assert_eq!(loaded.seed, second.seed, "fault at op {op}"),
            // The persist failed: whichever file validates must be one of
            // the two coherent states, never a torn hybrid.
            Err(_) => assert!(
                loaded.seed == first.seed || loaded.seed == second.seed,
                "fault at op {op}: loaded a torn checkpoint from {}",
                from.display()
            ),
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
