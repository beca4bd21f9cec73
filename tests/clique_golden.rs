//! Golden trajectory pins for the clique engines: the FNV-1a hash of the
//! per-event `(interactions, counts)` sequence of `agent`, `count`, `batch`
//! and `skip` on three configurations × three seeds, each driven two ways:
//!
//! * **plain** — `advance_changed` until silence, one record per
//!   configuration-changing advancement (the `run_to_silence` drive);
//! * **observed** — `RunSpec::observer`, one record per observation of the
//!   chunked `advance_observed` drive (chunk boundaries truncate the
//!   leaping engines' skips, so this is a distinct trajectory there).
//!
//! Any change to an engine's RNG draw order, clocks or transition
//! bookkeeping moves these hashes, in the style of the graph-engine pins in
//! `tests/topology_equivalence.rs`.

use plurality_consensus::prelude::*;
use pop_proto::Observation;
use usd_core::backend::make_simulator;

/// Incremental 64-bit FNV-1a over `(interactions, counts)` records.
struct TrajectoryHash(u64);

impl TrajectoryHash {
    fn new() -> Self {
        TrajectoryHash(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn record(&mut self, interactions: u64, counts: &[u64]) {
        self.bytes(&interactions.to_le_bytes());
        for c in counts {
            self.bytes(&c.to_le_bytes());
        }
    }
}

const BUDGET: u64 = u64::MAX / 2;

/// The three pinned configurations: `fig1` (Figure-1 family, n = 600,
/// k = 3), `k8` (n = 400 with 70 undecided agents at the start) and `tie`
/// (a near-tied k = 2 race, n = 500).
fn configs() -> [(&'static str, UsdConfig); 3] {
    [
        ("fig1", InitialConfigBuilder::new(600, 3).figure1()),
        (
            "k8",
            UsdConfig::new(vec![90, 60, 50, 30, 30, 30, 20, 20], 70),
        ),
        ("tie", UsdConfig::decided(vec![260, 240])),
    ]
}

const SEEDS: [u64; 3] = [1, 2, 3];

/// Plain drive: every configuration-changing advancement, then the final
/// clock.
fn plain_hash(backend: Backend, config: &UsdConfig, seed: u64) -> u64 {
    let mut sim = make_simulator(backend, config);
    let mut rng = SimRng::new(seed);
    let mut h = TrajectoryHash::new();
    while !sim.is_silent() {
        let (advanced, changed) = sim.advance_changed(&mut rng, BUDGET - sim.interactions());
        assert!(advanced > 0, "{backend}: stalled before silence");
        if changed {
            h.record(sim.interactions(), sim.counts());
        }
    }
    h.record(sim.interactions(), sim.counts());
    h.0
}

/// Observed drive through `RunSpec::observer`: every observation, then the
/// classified result's clock.
fn observed_hash(backend: Backend, config: &UsdConfig, seed: u64) -> u64 {
    let mut h = TrajectoryHash::new();
    let mut observer = |o: &Observation<'_>| {
        h.record(o.interactions, o.counts);
        true
    };
    let mut rng = SimRng::new(seed);
    let result = RunSpec::new(config)
        .backend(backend)
        .observer(&mut observer)
        .run(&mut rng);
    assert!(
        result.stabilized(),
        "{backend}: observed run did not stabilize"
    );
    h.record(result.interactions, &[]);
    h.0
}

/// `(label, plain, observed)` for every pinned cell of `backend`.
fn cells(backend: Backend) -> Vec<(String, u64, u64)> {
    let mut out = Vec::new();
    for (name, config) in configs() {
        for seed in SEEDS {
            out.push((
                format!("{backend} {name} s{seed}"),
                plain_hash(backend, &config, seed),
                observed_hash(backend, &config, seed),
            ));
        }
    }
    out
}

/// Golden pins, recorded before the USD-specialized simulator hierarchy
/// was folded into the generic `Simulator` engines.
#[test]
fn clique_engine_trajectories_match_golden_hashes() {
    const GOLDEN: &[(&str, u64, u64)] = &[
        ("agent fig1 s1", 0x50ea4bbf79376e9c, 0x1a2132c337054bca),
        ("agent fig1 s2", 0xe7cc33f733fe93fb, 0x4cbef41f0ccfc129),
        ("agent fig1 s3", 0xdf427171c0008db2, 0x8f3e690c350089e4),
        ("agent k8 s1", 0x2f8cf59d92af4171, 0x6e24151e4d958646),
        ("agent k8 s2", 0x665d2c97c588c252, 0x96b65c399e930f1d),
        ("agent k8 s3", 0xaf8137405d7623e1, 0x1503cc0dca62eb36),
        ("agent tie s1", 0x4c559eaf90b8f0c8, 0xce7ed13266828bb7),
        ("agent tie s2", 0x9d6558d6e39bebd7, 0xa3f5c17f48c79b48),
        ("agent tie s3", 0xfbae62f0b1a5297a, 0xeaa7d30fc93d3a61),
        ("count fig1 s1", 0x9cb2a1adcaefedef, 0xd464970fc91c213d),
        ("count fig1 s2", 0x1de51a960063be35, 0x5196eef0024978e7),
        ("count fig1 s3", 0xd8407ec191c37ec7, 0x8a4ab6fa71974665),
        ("count k8 s1", 0x599365e759f328c2, 0x73ac06baf921976d),
        ("count k8 s2", 0xec083106f1800878, 0x5d810465ab414663),
        ("count k8 s3", 0xc5c2118929b456a2, 0xe88575c7de17e94d),
        ("count tie s1", 0xdfc2edf33c24b015, 0x69bcc3e96814d44e),
        ("count tie s2", 0x410ed1b72743dbee, 0x1c08fff472f3e4dd),
        ("count tie s3", 0xf8fce6a8c2dec85c, 0x99c82ed2dd5f13a3),
        ("batch fig1 s1", 0xd3bcaa716a3a122c, 0x857b9aa22c56277a),
        ("batch fig1 s2", 0x197e5935d9443d5f, 0xec6fcdc805a8b88d),
        ("batch fig1 s3", 0x09080a3f3b3617e5, 0x50ed682f9acefa37),
        ("batch k8 s1", 0xedf3bdae8e4fdf33, 0x27b904d1d748f988),
        ("batch k8 s2", 0xd2548685e86198cf, 0xa16b7598461fbba4),
        ("batch k8 s3", 0xdf732cf585bf5a01, 0xb99ead3aa5349c56),
        ("batch tie s1", 0x584046c06c59f634, 0x8c3db74c44ec00db),
        ("batch tie s2", 0x99630334d759a98e, 0x32b24a67fff2d53d),
        ("batch tie s3", 0x8086446aae5bee75, 0x005132e405366fee),
        ("skip fig1 s1", 0x83683bb3be397474, 0xd26e560d78746532),
        ("skip fig1 s2", 0x6559ae445c955707, 0x0b27ebbe0dfcfe25),
        ("skip fig1 s3", 0xc511507ea6d93f20, 0xd27f26d45566da4e),
        ("skip k8 s1", 0x9fc65087e348cbfd, 0xa9645d1757516b72),
        ("skip k8 s2", 0x078b1dfe3a479dff, 0xc4f7828474da2f34),
        ("skip k8 s3", 0x1b91dab98fd80a22, 0x2c0d2a5cf7ccadcd),
        ("skip tie s1", 0x4c931174d856077e, 0xfd6e5646ec54594d),
        ("skip tie s2", 0xeb59e1bd69251a93, 0x20d0446f08c82b2c),
        ("skip tie s3", 0x5e88fd645161e5cd, 0x68a412deba68d526),
    ];
    let actual: Vec<(String, u64, u64)> = [
        Backend::Agent,
        Backend::Count,
        Backend::Batch,
        Backend::SkipAhead,
    ]
    .into_iter()
    .flat_map(cells)
    .collect();
    let table: String = actual
        .iter()
        .map(|(l, p, o)| format!("        (\"{l}\", 0x{p:016x}, 0x{o:016x}),\n"))
        .collect();
    assert_eq!(actual.len(), GOLDEN.len(), "golden grid changed:\n{table}");
    for ((label, plain, observed), &(g_label, g_plain, g_observed)) in actual.iter().zip(GOLDEN) {
        assert_eq!(label, g_label, "golden grid changed:\n{table}");
        assert_eq!(
            (*plain, *observed),
            (g_plain, g_observed),
            "{label}: trajectory diverged from the golden pin:\n{table}"
        );
    }
}

/// On the per-interaction engines a chunk boundary truncates nothing, so
/// the observed drive replays the plain trajectory event for event.
#[test]
fn event_engines_observe_the_plain_trajectory() {
    for backend in [Backend::Agent, Backend::Count] {
        for (name, config) in configs() {
            let seed = SEEDS[0];
            let mut plain = Vec::new();
            let mut sim = make_simulator(backend, &config);
            let mut rng = SimRng::new(seed);
            while !sim.is_silent() {
                if sim.advance_changed(&mut rng, BUDGET).1 {
                    plain.push((sim.interactions(), sim.counts().to_vec()));
                }
            }
            let mut observed = Vec::new();
            let mut observer = |o: &Observation<'_>| {
                observed.push((o.interactions, o.counts.to_vec()));
                true
            };
            RunSpec::new(&config)
                .backend(backend)
                .observer(&mut observer)
                .run(&mut SimRng::new(seed));
            assert_eq!(plain, observed, "{backend} {name}");
        }
    }
}
