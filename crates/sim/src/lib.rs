//! Experiment harness for the PNM reproduction: everything needed to
//! regenerate the paper's evaluation (§6) and discussion (§7) numbers.
//!
//! - [`scenario`] — scheme selection and the paper's path scenarios.
//! - [`runner`] — seeded, parallel Monte-Carlo runs.
//! - [`figures`] — regenerates Figures 4–7.
//! - [`attack_matrix`](mod@attack_matrix) — the scheme × attack security matrix (§3, §5).
//! - [`attack_stream`] — the one attack-stream generator and the sequential
//!   reference every pairwise equivalence suite checks against.
//! - [`latency`] — the §7 traceback-latency claim on the Mica2 radio model.
//! - [`chaos`] — fault-injection soak: localization degradation under
//!   bursty loss, corruption, and duplication.
//! - [`table`] — console/CSV result tables.
//!
//! The `regen-figures` binary drives all of it:
//!
//! ```text
//! cargo run -p pnm-sim --release --bin regen-figures -- all --runs 100
//! ```
//!
//! The other binary is `trace-demo` (one traceback packet by packet, set
//! up by its flags). The fault soaks' gates are named tests: the sweep's
//! in [`chaos`], the gateway edge's in pnm-gateway's `resilience` suite.
//! The repository benchmark is `perfbench`, a workspace of its own; it
//! times every layer these crates' tests check.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod attack_matrix;
pub mod attack_stream;
pub mod background;
pub mod baselines_cmp;
pub mod chaos;
pub mod dynamics;
pub mod field_study;
pub mod figures;
pub mod filtering;
pub mod frames;
pub mod latency;
pub mod one_by_one;
pub mod overhead;
pub mod runner;
pub mod scenario;
pub mod table;

pub use ablation::{
    mac_width_table, measure_mac_width, measure_tradeoff, tradeoff_table, MacWidthRow, TradeoffRow,
};
pub use attack_matrix::{attack_matrix, evaluate_cell, AttackScenario, Outcome};
pub use attack_stream::{
    composite_plan, drained_evidence, sequential_reference, AttackPath, AttackStream, Reference,
};
pub use background::{background_table, run_background_traffic, BackgroundRun};
pub use baselines_cmp::{baselines_table, compare_approaches, ApproachCost};
pub use chaos::{
    chaos_table, run_point as run_chaos_point, sweep_points as chaos_sweep_points, ChaosConfig,
    ChaosPoint, ChaosRun,
};
pub use dynamics::{dynamics_table, run_with_churn, DynamicsRun};
pub use field_study::{field_study_table, run_field_study, FieldRound, FieldStudy};
pub use figures::{fig4, fig5, fig6, fig67, fig7, identification_sweep, IdentificationPoint};
pub use filtering::{filtering_table, run_filtering_traceback, FilteringRun, SefParams};
pub use frames::{frames_table, measure_frames, FrameCell};
pub use latency::{latency_table, traceback_latency, LatencyResult};
pub use one_by_one::{iterative_cleanup, one_by_one_table, CatchRound, CleanupResult};
pub use overhead::{measure_overhead, overhead_table, OverheadCell};
pub use runner::{bogus_packet, parallel_runs, run_honest_path, HonestRun};
pub use scenario::{PathScenario, SchemeKind};
pub use table::Table;

/// The seven attack classes, which [`AttackStream::pnm`] takes by name.
pub use pnm_adversary::AttackKind;
