//! Experiment harness: the parallel campaign runner, the figure registry
//! and the `pagecross` CLI.
//!
//! Each paper artefact (Figs. 2–4, 9–19, Tables III & V and the ablations)
//! is an entry of the [`figures`] registry, run by the `figures` bench
//! target, which prints the paper's rows/series plus a paper-vs-measured
//! summary line. See EXPERIMENTS.md for the index and recorded results.

pub mod campaign;
pub mod cli;
pub mod figures;
pub mod microbench;
pub mod table;

pub use campaign::{
    core_schemes, env_jobs, env_scale, ipcs_of, motivation_set, quick_seen_set, run_grid,
    run_one_timed, CampaignConfig, CampaignRun, CellTiming, Scheme, ShardStats, Subject,
    WorkloadResult,
};
pub use table::{fmt_opt_ratio, fmt_pct, geomean_speedup, Table};
