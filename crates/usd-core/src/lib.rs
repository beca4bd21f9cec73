//! Undecided State Dynamics (USD) for plurality consensus — the object of
//! study of El-Hayek, Elsässer & Schmid, *"An Almost Tight Lower Bound for
//! Plurality Consensus with Undecided State Dynamics in the Population
//! Protocol Model"* (PODC 2025).
//!
//! # The protocol
//!
//! Each of `n` agents holds one of `k` opinions or the undecided state ⊥
//! (k + 1 states total). When the uniform random scheduler brings two agents
//! together:
//!
//! * two **different opinions** clash: both agents become undecided;
//! * a **decided** agent meets an **undecided** one: the undecided agent
//!   adopts the opinion;
//! * anything else (same opinion, or two undecided agents) changes nothing.
//!
//! The system *stabilizes* when every agent holds the same opinion (or, in
//! the degenerate absorbing case, when every agent is undecided).
//!
//! # What this crate provides
//!
//! * [`protocol::UndecidedStateDynamics`] — the protocol as a
//!   [`pop_proto::Protocol`], so the generic substrate simulators run it;
//! * [`config::UsdConfig`] — the paper's configuration vector
//!   x = (x₁, …, x_k, u) with invariants, orderings, and gap accessors;
//! * [`init`] — initial-configuration families, including the paper's
//!   lower-bound family (equal minorities, majority bias
//!   β = O((√n/(k log n))^¼ · √(n log n))) and the Figure 1 family;
//! * [`skip_ahead`] — the USD-specialized [`SkipAheadSimulator`]
//!   (geometric skipping over no-op interactions, exact in distribution),
//!   a [`pop_proto::Simulator`] like every other engine;
//! * [`backend`] and [`runspec`] — the seven backends (the skip-ahead
//!   engine and the six `pop-proto` engines: `agent`, `count`, the
//!   batch-leaping `batch` for n ≥ 10⁸, the two graph engines and the
//!   replica ensemble engine) behind one entry point, [`RunSpec`], for
//!   experiments and the CLI;
//! * [`analysis`] — every quantity the proof manipulates: the plateau
//!   n/2 − n/4k, the per-opinion threshold uᵢ = (n − xᵢ)/2, closed-form
//!   one-step drifts of u(t) and Δᵢⱼ(t), the maximum pairwise gap, and the
//!   monochromatic distance of Becchetti et al.;
//! * [`stabilization`] — the classified outcome of a run and a
//!   first-crossing detector;
//! * [`recording`] — a round-cadence [`TrajectoryRecorder`] observer that
//!   records a run on any backend;
//! * [`theory`] — the paper's bound curves (Theorem 3.5 lower bound,
//!   Amir et al. upper bound, admissible-bias and valid-k predicates);
//! * [`phases`] — segmentation of a run into the ramp / plateau / endgame
//!   phases discussed in §2;
//! * [`encode`] — compact binary trace encoding for large experiment runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod backend;
pub mod checkpoint;
pub mod config;
pub mod encode;
pub mod init;
pub mod mean_field;
pub mod phases;
pub mod protocol;
pub mod recording;
pub mod runspec;
pub mod skip_ahead;
pub mod stabilization;
pub mod theory;

pub use analysis::{
    expected_gap_drift, expected_undecided_drift, max_gap, monochromatic_distance,
    opinion_threshold, undecided_plateau,
};
pub use backend::{
    make_simulator, make_topology_simulator, Backend, Capabilities, ObservationGranularity,
};
pub use checkpoint::{RunCheckpoint, RunIdentity};
pub use config::UsdConfig;
pub use init::InitialConfigBuilder;
pub use protocol::{UndecidedStateDynamics, UsdState};
pub use recording::{record_run, TrajectoryRecorder};
pub use runspec::{EnsembleOutcome, LaneOutcome, RunSpec, DEFAULT_REPLICAS};
pub use skip_ahead::SkipAheadSimulator;
pub use stabilization::{ConsensusOutcome, DoublingDetector, StabilizationResult};
pub use theory::Bounds;
