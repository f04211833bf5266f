//! Command-line front-end for the simulator (the `pagecross` binary).
//!
//! Subcommands:
//!
//! * `list [--suite <id>]` — print the workload registry;
//! * `run --workload <name> [--prefetcher p] [--policy q] [...]` — one
//!   simulation, full report;
//! * `compare --workload <name> [--prefetcher p]` — Discard vs Permit vs
//!   DRIPPER in one line;
//! * `campaign [--suite <id>] [--prefetcher p] [--jobs n] [--per-suite k]
//!   [--trace-dir <dir>]` — a figure-style (workload × scheme) grid on the
//!   worker pool, with per-experiment timing and the wall-clock/speedup
//!   summary; with `--trace-dir`, the grid runs over every `.pct` trace in
//!   a directory instead of the registry;
//! * `record --workload <name> [--out <path>]` — serialize a workload's
//!   instruction stream to a `.pct` trace file;
//! * `replay --trace <path> [...]` — simulate a recorded trace (counters
//!   are bit-identical to the direct run it was recorded from).
//!
//! Argument parsing is hand-rolled (the workspace is dependency-minimal);
//! the parsed command is a plain enum so it is unit-testable.

use crate::campaign::{
    core_schemes, env_jobs, run_grid, CampaignConfig, CampaignRun, Subject, WorkloadResult,
};
use crate::table::fmt_opt_ratio;
use pagecross_cpu::trace::TraceFactory;
use pagecross_cpu::{
    L2PrefetcherKind, OsConfig, PgcPolicyKind, PrefetcherKind, Report, SimulationBuilder,
    TelemetryConfig,
};
use pagecross_mem::HugePagePolicy;
use pagecross_telemetry::{chrome_trace_json, interval_to_json, validate_jsonl};
use pagecross_trace::TraceReplay;
use pagecross_types::OsStats;
use pagecross_workloads::{seen_workloads, suite, SuiteId, Workload};
use std::path::{Path, PathBuf};

/// A parsed CLI invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// List workloads, optionally restricted to one suite.
    List {
        /// Suite filter.
        suite: Option<SuiteId>,
    },
    /// Run one simulation.
    Run(RunArgs),
    /// Compare the three core policies on one workload.
    Compare {
        /// Workload name.
        workload: String,
        /// L1D prefetcher.
        prefetcher: PrefetcherKind,
    },
    /// Run a figure-style experiment grid on the parallel campaign runner.
    Campaign {
        /// Optional suite restriction (default: representative cross-suite
        /// set).
        suite: Option<SuiteId>,
        /// L1D prefetcher.
        prefetcher: PrefetcherKind,
        /// Worker threads (0 = `PAGECROSS_JOBS` / all cores).
        jobs: usize,
        /// Cap on workloads taken per suite (`None` = all of a filtered
        /// suite, or 4 per suite for the cross-suite set).
        per_suite: Option<usize>,
        /// Run the grid over every `.pct` trace in this directory instead
        /// of registry workloads.
        trace_dir: Option<String>,
    },
    /// Record a workload's instruction stream to a `.pct` trace file.
    Record {
        /// Workload name (registry lookup).
        workload: String,
        /// Output path (default: `<workload>.pct`).
        out: Option<String>,
        /// Warm-up instructions to record (0 = workload default).
        warmup: u64,
        /// Measured instructions to record (0 = workload default).
        instructions: u64,
    },
    /// Simulate a recorded `.pct` trace.
    Replay(ReplayArgs),
    /// Validate a telemetry JSONL file emitted by `--telemetry-out`.
    CheckTelemetry {
        /// Path of the JSONL file.
        jsonl: String,
    },
    /// Print usage.
    Help,
}

/// The imitation-OS flags shared by `run` and `replay` (`--os`,
/// `--phys-mem`, `--thp`, `--fault-ns`).
#[derive(Clone, Debug, PartialEq)]
pub struct OsArgs {
    /// `--os on` enables the OS model (off by default).
    pub enabled: bool,
    /// Physical memory capacity in bytes (0 = [`OsConfig`] default).
    pub phys_mem_bytes: u64,
    /// THP aggressiveness in [0, 1] (0 = never promote).
    pub thp: f64,
    /// Minor-fault handler latency in nanoseconds (0 = [`OsConfig`]
    /// default cycle costs; a major fault costs 8x the minor).
    pub fault_ns: u64,
}

impl Default for OsArgs {
    fn default() -> Self {
        Self {
            enabled: false,
            phys_mem_bytes: 0,
            thp: 0.0,
            fault_ns: 0,
        }
    }
}

impl OsArgs {
    /// The [`OsConfig`] these flags describe, or `None` when `--os` is off.
    pub fn to_config(&self) -> Option<OsConfig> {
        if !self.enabled {
            return None;
        }
        let mut cfg = OsConfig::default();
        if self.phys_mem_bytes > 0 {
            cfg.phys_mem_bytes = self.phys_mem_bytes;
        }
        cfg.thp = self.thp;
        if self.fault_ns > 0 {
            // 4 GHz core: 1 ns = 4 cycles; Linux major faults (I/O plus
            // handler) run ~8x the minor-fault cost in this model.
            cfg.minor_fault_cycles = self.fault_ns * 4;
            cfg.major_fault_cycles = self.fault_ns * 32;
        }
        Some(cfg)
    }
}

/// Arguments of the `replay` subcommand.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayArgs {
    /// Path of the `.pct` trace.
    pub trace: String,
    /// L1D prefetcher.
    pub prefetcher: PrefetcherKind,
    /// Page-cross policy.
    pub policy: PgcPolicyKind,
    /// L2C prefetcher.
    pub l2: L2PrefetcherKind,
    /// Huge-page fraction (0 disables).
    pub huge_fraction: f64,
    /// Warm-up instructions (0 = first third of the recording).
    pub warmup: u64,
    /// Measured instructions (0 = rest of the recording).
    pub instructions: u64,
    /// Interval time-series JSONL output path (`None` = telemetry off).
    pub telemetry_out: Option<String>,
    /// Retired instructions per telemetry sampling interval.
    pub telemetry_interval: u64,
    /// Chrome trace-event JSON output path (`None` = event tracing off).
    pub telemetry_trace: Option<String>,
    /// Imitation-OS model flags.
    pub os: OsArgs,
}

impl Default for ReplayArgs {
    fn default() -> Self {
        Self {
            trace: String::new(),
            prefetcher: PrefetcherKind::Berti,
            policy: PgcPolicyKind::Dripper,
            l2: L2PrefetcherKind::None,
            huge_fraction: 0.0,
            warmup: 0,
            instructions: 0,
            telemetry_out: None,
            telemetry_interval: DEFAULT_TELEMETRY_INTERVAL,
            telemetry_trace: None,
            os: OsArgs::default(),
        }
    }
}

/// Arguments of the `run` subcommand.
#[derive(Clone, Debug, PartialEq)]
pub struct RunArgs {
    /// Workload name (registry lookup).
    pub workload: String,
    /// L1D prefetcher.
    pub prefetcher: PrefetcherKind,
    /// Page-cross policy.
    pub policy: PgcPolicyKind,
    /// L2C prefetcher.
    pub l2: L2PrefetcherKind,
    /// Huge-page fraction (0 disables).
    pub huge_fraction: f64,
    /// Warm-up instructions (0 = workload default).
    pub warmup: u64,
    /// Measured instructions (0 = workload default).
    pub instructions: u64,
    /// Interval time-series JSONL output path (`None` = telemetry off).
    pub telemetry_out: Option<String>,
    /// Retired instructions per telemetry sampling interval.
    pub telemetry_interval: u64,
    /// Chrome trace-event JSON output path (`None` = event tracing off).
    pub telemetry_trace: Option<String>,
    /// Imitation-OS model flags.
    pub os: OsArgs,
}

/// Default `--telemetry-interval`: one sample per 10k retired instructions.
pub const DEFAULT_TELEMETRY_INTERVAL: u64 = 10_000;

impl Default for RunArgs {
    fn default() -> Self {
        Self {
            workload: String::new(),
            prefetcher: PrefetcherKind::Berti,
            policy: PgcPolicyKind::Dripper,
            l2: L2PrefetcherKind::None,
            huge_fraction: 0.0,
            warmup: 0,
            instructions: 0,
            telemetry_out: None,
            telemetry_interval: DEFAULT_TELEMETRY_INTERVAL,
            telemetry_trace: None,
            os: OsArgs::default(),
        }
    }
}

/// A CLI error with a user-facing message.
#[derive(Clone, Debug, PartialEq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// Parses the `--telemetry-*` flags shared by `run` and `replay` into the
/// given argument fields.
fn parse_telemetry_flags(
    kv: &std::collections::HashMap<String, String>,
    out: &mut Option<String>,
    interval: &mut u64,
    trace: &mut Option<String>,
) -> Result<(), CliError> {
    if let Some(p) = kv.get("telemetry-out") {
        *out = Some(p.clone());
    }
    if let Some(p) = kv.get("telemetry-interval") {
        *interval = p.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(|| {
            CliError(format!(
                "--telemetry-interval expects a positive count, got '{p}'"
            ))
        })?;
    }
    if let Some(p) = kv.get("telemetry-trace") {
        *trace = Some(p.clone());
    }
    Ok(())
}

/// Parses a byte-size literal: plain bytes, or with a `K`/`M`/`G` suffix
/// (binary multiples, case-insensitive), e.g. `64M`, `2G`, `67108864`.
fn parse_size(s: &str) -> Option<u64> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1u64 << 10),
        b'M' | b'm' => (&s[..s.len() - 1], 1u64 << 20),
        b'G' | b'g' => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(mult)
}

/// Parses the imitation-OS flags shared by `run` and `replay`.
fn parse_os_flags(
    kv: &std::collections::HashMap<String, String>,
    os: &mut OsArgs,
) -> Result<(), CliError> {
    if let Some(p) = kv.get("os") {
        os.enabled = match p.as_str() {
            "on" => true,
            "off" => false,
            _ => return Err(CliError(format!("--os expects on|off, got '{p}'"))),
        };
    }
    if let Some(p) = kv.get("phys-mem") {
        os.phys_mem_bytes = parse_size(p).filter(|&n| n >= 64 << 20).ok_or_else(|| {
            CliError(format!(
                "--phys-mem expects a size of at least 64M (e.g. 64M, 2G), got '{p}'"
            ))
        })?;
    }
    if let Some(p) = kv.get("thp") {
        os.thp = p
            .parse::<f64>()
            .ok()
            .filter(|t| (0.0..=1.0).contains(t))
            .ok_or_else(|| CliError(format!("--thp expects a fraction in [0, 1], got '{p}'")))?;
    }
    if let Some(p) = kv.get("fault-ns") {
        os.fault_ns =
            p.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                CliError(format!("--fault-ns expects a positive count, got '{p}'"))
            })?;
    }
    Ok(())
}

fn parse_jobs(s: Option<&str>) -> Result<usize, CliError> {
    match s {
        None => Ok(0), // 0 = resolve via env_jobs() at execution time
        Some(p) => p
            .parse::<usize>()
            .ok()
            .filter(|&j| j >= 1)
            .ok_or_else(|| CliError(format!("--jobs expects a positive count, got '{p}'"))),
    }
}

fn parse_suite(s: &str) -> Result<SuiteId, CliError> {
    SuiteId::ALL
        .into_iter()
        .find(|id| id.label() == s)
        .ok_or_else(|| {
            CliError(format!(
                "unknown suite '{s}' (try: spec06, gap, qmm_int, …)"
            ))
        })
}

fn parse_prefetcher(s: &str) -> Result<PrefetcherKind, CliError> {
    match s {
        "none" => Ok(PrefetcherKind::None),
        "next-line" => Ok(PrefetcherKind::NextLine),
        "stride" => Ok(PrefetcherKind::Stride),
        "berti" => Ok(PrefetcherKind::Berti),
        "ipcp" => Ok(PrefetcherKind::Ipcp),
        "bop" => Ok(PrefetcherKind::Bop),
        _ => Err(CliError(format!("unknown prefetcher '{s}'"))),
    }
}

fn parse_policy(s: &str) -> Result<PgcPolicyKind, CliError> {
    match s {
        "permit" => Ok(PgcPolicyKind::PermitPgc),
        "discard" => Ok(PgcPolicyKind::DiscardPgc),
        "discard-ptw" => Ok(PgcPolicyKind::DiscardPtw),
        "iso-storage" => Ok(PgcPolicyKind::IsoStorage),
        "dripper" => Ok(PgcPolicyKind::Dripper),
        "dripper-sf" => Ok(PgcPolicyKind::DripperSf),
        "ppf" => Ok(PgcPolicyKind::Ppf),
        "ppf-dthr" => Ok(PgcPolicyKind::PpfDthr),
        _ => Err(CliError(format!("unknown policy '{s}'"))),
    }
}

fn parse_l2(s: &str) -> Result<L2PrefetcherKind, CliError> {
    match s {
        "none" => Ok(L2PrefetcherKind::None),
        "spp" => Ok(L2PrefetcherKind::Spp),
        "ipcp" => Ok(L2PrefetcherKind::Ipcp),
        "bop" => Ok(L2PrefetcherKind::Bop),
        _ => Err(CliError(format!("unknown l2 prefetcher '{s}'"))),
    }
}

/// Parses an argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter().map(String::as_str);
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };

    let mut kv = std::collections::HashMap::new();
    let rest: Vec<&str> = it.collect();
    let mut i = 0;
    while i < rest.len() {
        let key = rest[i];
        if !key.starts_with("--") {
            return Err(CliError(format!("expected --flag, got '{key}'")));
        }
        let val = rest
            .get(i + 1)
            .ok_or_else(|| CliError(format!("flag '{key}' needs a value")))?;
        kv.insert(key.trim_start_matches("--").to_string(), val.to_string());
        i += 2;
    }
    let get = |k: &str| kv.get(k).map(String::as_str);

    match cmd {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "list" => Ok(Command::List {
            suite: get("suite").map(parse_suite).transpose()?,
        }),
        "run" => {
            let mut a = RunArgs {
                workload: get("workload")
                    .ok_or_else(|| CliError("run requires --workload <name>".into()))?
                    .to_string(),
                ..Default::default()
            };
            if let Some(p) = get("prefetcher") {
                a.prefetcher = parse_prefetcher(p)?;
            }
            if let Some(p) = get("policy") {
                a.policy = parse_policy(p)?;
            }
            if let Some(p) = get("l2") {
                a.l2 = parse_l2(p)?;
            }
            if let Some(p) = get("huge") {
                a.huge_fraction = p
                    .parse()
                    .map_err(|_| CliError(format!("--huge expects a fraction, got '{p}'")))?;
            }
            if let Some(p) = get("warmup") {
                a.warmup = p
                    .parse()
                    .map_err(|_| CliError(format!("--warmup expects a count, got '{p}'")))?;
            }
            if let Some(p) = get("instructions") {
                a.instructions = p
                    .parse()
                    .map_err(|_| CliError(format!("--instructions expects a count, got '{p}'")))?;
            }
            parse_telemetry_flags(
                &kv,
                &mut a.telemetry_out,
                &mut a.telemetry_interval,
                &mut a.telemetry_trace,
            )?;
            parse_os_flags(&kv, &mut a.os)?;
            Ok(Command::Run(a))
        }
        "compare" => Ok(Command::Compare {
            workload: get("workload")
                .ok_or_else(|| CliError("compare requires --workload <name>".into()))?
                .to_string(),
            prefetcher: get("prefetcher")
                .map(parse_prefetcher)
                .transpose()?
                .unwrap_or(PrefetcherKind::Berti),
        }),
        "campaign" => Ok(Command::Campaign {
            suite: get("suite").map(parse_suite).transpose()?,
            prefetcher: get("prefetcher")
                .map(parse_prefetcher)
                .transpose()?
                .unwrap_or(PrefetcherKind::Berti),
            jobs: parse_jobs(get("jobs"))?,
            per_suite: get("per-suite")
                .map(|p| {
                    p.parse::<usize>().ok().filter(|&k| k >= 1).ok_or_else(|| {
                        CliError(format!("--per-suite expects a positive count, got '{p}'"))
                    })
                })
                .transpose()?,
            trace_dir: get("trace-dir").map(str::to_string),
        }),
        "record" => Ok(Command::Record {
            workload: get("workload")
                .ok_or_else(|| CliError("record requires --workload <name>".into()))?
                .to_string(),
            out: get("out").map(str::to_string),
            warmup: get("warmup")
                .map(|p| {
                    p.parse()
                        .map_err(|_| CliError(format!("--warmup expects a count, got '{p}'")))
                })
                .transpose()?
                .unwrap_or(0),
            instructions: get("instructions")
                .map(|p| {
                    p.parse()
                        .map_err(|_| CliError(format!("--instructions expects a count, got '{p}'")))
                })
                .transpose()?
                .unwrap_or(0),
        }),
        "replay" => {
            let mut a = ReplayArgs {
                trace: get("trace")
                    .ok_or_else(|| CliError("replay requires --trace <path>".into()))?
                    .to_string(),
                ..Default::default()
            };
            if let Some(p) = get("prefetcher") {
                a.prefetcher = parse_prefetcher(p)?;
            }
            if let Some(p) = get("policy") {
                a.policy = parse_policy(p)?;
            }
            if let Some(p) = get("l2") {
                a.l2 = parse_l2(p)?;
            }
            if let Some(p) = get("huge") {
                a.huge_fraction = p
                    .parse()
                    .map_err(|_| CliError(format!("--huge expects a fraction, got '{p}'")))?;
            }
            if let Some(p) = get("warmup") {
                a.warmup = p
                    .parse()
                    .map_err(|_| CliError(format!("--warmup expects a count, got '{p}'")))?;
            }
            if let Some(p) = get("instructions") {
                a.instructions = p
                    .parse()
                    .map_err(|_| CliError(format!("--instructions expects a count, got '{p}'")))?;
            }
            parse_telemetry_flags(
                &kv,
                &mut a.telemetry_out,
                &mut a.telemetry_interval,
                &mut a.telemetry_trace,
            )?;
            parse_os_flags(&kv, &mut a.os)?;
            Ok(Command::Replay(a))
        }
        "check-telemetry" => Ok(Command::CheckTelemetry {
            jsonl: get("jsonl")
                .ok_or_else(|| CliError("check-telemetry requires --jsonl <path>".into()))?
                .to_string(),
        }),
        other => Err(CliError(format!(
            "unknown subcommand '{other}' (try 'help')"
        ))),
    }
}

/// Usage text.
pub const USAGE: &str = "\
pagecross — simulate page-cross prefetch filtering (HPCA'25 reproduction)

USAGE:
  pagecross list [--suite <id>]
  pagecross run --workload <name> [--prefetcher berti|ipcp|bop|stride|next-line|none]
                [--policy dripper|permit|discard|discard-ptw|iso-storage|dripper-sf|ppf|ppf-dthr]
                [--l2 none|spp|ipcp|bop] [--huge <fraction>]
                [--warmup <n>] [--instructions <n>]
                [--telemetry-out <path.jsonl>] [--telemetry-interval <n>]
                [--telemetry-trace <path.json>]
                [--os on|off] [--phys-mem <size>] [--thp <f>] [--fault-ns <n>]
  pagecross compare --workload <name> [--prefetcher <p>]
  pagecross campaign [--suite <id>] [--prefetcher <p>] [--jobs <n>] [--per-suite <k>]
                     [--trace-dir <dir>]
  pagecross record --workload <name> [--out <path>] [--warmup <n>] [--instructions <n>]
  pagecross replay --trace <path> [--prefetcher <p>] [--policy <q>] [--l2 <p>]
                   [--huge <fraction>] [--warmup <n>] [--instructions <n>]
                   [--telemetry-out <path.jsonl>] [--telemetry-interval <n>]
                   [--telemetry-trace <path.json>]
                   [--os on|off] [--phys-mem <size>] [--thp <f>] [--fault-ns <n>]
  pagecross check-telemetry --jsonl <path>

Suites: spec06 spec17 gap ligra parsec gkb5 qmm_int qmm_fp

Campaigns run on a worker pool: --jobs (or PAGECROSS_JOBS) sets the
thread count, defaulting to all available cores. Results are
deterministic for a given seed regardless of the worker count.
--per-suite caps the workloads taken per suite (default: all of a
filtered --suite, or 4 per suite for the cross-suite set).

record serializes a workload's stream to a compact checksummed .pct
file (default length: the workload's warm-up + measured defaults).
replay simulates such a file; with default lengths on both sides, the
replayed counters are bit-identical to the direct run. campaign
--trace-dir sweeps the scheme grid over every .pct file in a directory.

Telemetry: --telemetry-out samples every stats delta each
--telemetry-interval retired instructions (default 10000) into a JSONL
time series; --telemetry-trace additionally records structured events
(cache fills/evictions, page walks, DRIPPER decisions) as a Chrome
trace-event file viewable in Perfetto (ui.perfetto.dev).
check-telemetry validates a JSONL file's schema and monotonicity.
Collection is observation-only: reported counters are bit-identical
with telemetry on or off.

OS model: --os on adds demand paging, CLOCK frame reclamation, online
THP promotion, and TLB shootdowns on top of the memory hierarchy.
--phys-mem caps physical memory (binary suffixes: 64M, 2G; minimum
64M), --thp sets promotion aggressiveness in [0,1] (a 2MB region
promotes once ceil((1-thp)*512) of its 4KB pages are resident), and
--fault-ns sets the minor-fault handler latency in nanoseconds (major
faults cost 8x). With --os off (the default) every report is
bit-identical to a build without the OS model.
";

/// Prints the standard single-run report block (shared by `run` and
/// `replay`, so a replayed trace can be diffed against its direct run with
/// plain text tools).
fn print_report(r: &Report) {
    println!("workload     {}", r.workload);
    println!("prefetcher   {} / policy {}", r.prefetcher, r.policy);
    println!(
        "IPC          {:.4}  ({} instr, {} cycles)",
        r.ipc(),
        r.core.instructions,
        r.core.cycles
    );
    println!(
        "MPKI         l1i {:.2}  l1d {:.2}  llc {:.2}  dtlb {:.2}  stlb {:.2}",
        r.l1i_mpki(),
        r.l1d_mpki(),
        r.llc_mpki(),
        r.dtlb_mpki(),
        r.stlb_mpki()
    );
    println!(
        "prefetch     candidates {}  in-page {}  pgc-candidates {}",
        r.prefetch.candidates, r.prefetch.inpage_issued, r.prefetch.pgc_candidates
    );
    println!(
        "page-cross   issued {}  discarded {}  spec-walks {}  useful {}  useless {}",
        r.prefetch.pgc_issued,
        r.prefetch.pgc_discarded,
        r.prefetch.speculative_walks,
        r.l1d.pgc_useful,
        r.l1d.pgc_useless
    );
    println!(
        "quality      coverage {}  accuracy {}  pgc-accuracy {:.3}",
        fmt_opt_ratio(r.coverage()),
        fmt_opt_ratio(r.prefetch_accuracy()),
        r.pgc_accuracy()
    );
    // Printed only when the OS model ran, so OS-off output stays
    // byte-identical to builds without the model (verify.sh diffs it).
    if r.os != OsStats::default() {
        println!(
            "os           minor {}  major {}  reclaims {}  promote {}  demote {}  shootdowns {}",
            r.os.minor_faults,
            r.os.major_faults,
            r.os.reclaims,
            r.os.thp_promotions,
            r.os.thp_demotions,
            r.os.shootdowns
        );
    }
}

/// Runs `builder` over `w`, collecting telemetry when either output path
/// is set, and writes the requested files. Returns the report plus the
/// telemetry summary lines to print after the report block (so the report
/// itself stays diffable between `run` and `replay`).
fn simulate_with_telemetry(
    builder: &SimulationBuilder,
    w: &dyn TraceFactory,
    out: Option<&str>,
    interval: u64,
    trace: Option<&str>,
) -> Result<(Report, Vec<String>), CliError> {
    let tcfg = (out.is_some() || trace.is_some()).then(|| TelemetryConfig {
        interval,
        events: trace.is_some(),
        ..TelemetryConfig::default()
    });
    let mut run = builder
        .run(&[w], tcfg.as_ref())
        .map_err(|e| CliError(format!("simulation aborted: {e}")))?;
    let report = run.reports.swap_remove(0);
    let mut lines = Vec::new();
    let Some(telemetry) = run.telemetry else {
        return Ok((report, lines));
    };
    if let Some(path) = out {
        let mut text = String::new();
        for rec in &telemetry.intervals {
            text.push_str(&interval_to_json(rec));
            text.push('\n');
        }
        std::fs::write(path, &text)
            .map_err(|e| CliError(format!("cannot write telemetry JSONL '{path}': {e}")))?;
        lines.push(format!(
            "telemetry    {} intervals -> {path}",
            telemetry.intervals.len()
        ));
    }
    if let Some(path) = trace {
        std::fs::write(path, chrome_trace_json(&telemetry.events))
            .map_err(|e| CliError(format!("cannot write chrome trace '{path}': {e}")))?;
        lines.push(format!(
            "trace        {} events kept of {} seen -> {path}",
            telemetry.events.len(),
            telemetry.events_seen
        ));
    }
    Ok((report, lines))
}

/// Collects the `.pct` files of a directory, sorted by name so the grid
/// order (and therefore the output) is stable across filesystems.
fn trace_dir_replays(dir: &Path) -> Result<Vec<TraceReplay>, CliError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| CliError(format!("cannot read trace dir '{}': {e}", dir.display())))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "pct"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(CliError(format!("no .pct traces in '{}'", dir.display())));
    }
    paths
        .iter()
        .map(|p| {
            // Full scan before the campaign starts: a corrupt trace fails
            // here with a named file, not as a panic on some worker thread.
            pagecross_trace::verify_file(p)
                .and_then(|_| TraceReplay::open(p))
                .map_err(|e| CliError(format!("cannot open trace '{}': {e}", p.display())))
        })
        .collect()
}

fn find_workload(name: &str) -> Result<&'static Workload, CliError> {
    for id in SuiteId::ALL {
        if let Some(w) = suite(id).workloads().iter().find(|w| w.name() == name) {
            return Ok(w);
        }
    }
    Err(CliError(format!(
        "unknown workload '{name}' (use 'pagecross list')"
    )))
}

/// Formats the discard/permit/dripper row from three grid-ordered cell
/// results of one workload.
fn compare_row(cells: &[WorkloadResult]) -> String {
    let d = cells[0].report.ipc();
    let p = cells[1].report.ipc();
    let x = cells[2].report.ipc();
    format!(
        "{:<14} discard ipc={:.3}  permit {:+.2}%  dripper {:+.2}%",
        cells[0].workload,
        d,
        (p / d - 1.0) * 100.0,
        (x / d - 1.0) * 100.0
    )
}

/// Runs the three core policies for `workloads` on the worker pool and
/// prints one compare row per workload. `jobs == 0` resolves via
/// [`env_jobs`].
fn run_compare_grid<S: Subject + ?Sized>(
    workloads: &[&S],
    pf: PrefetcherKind,
    jobs: usize,
) -> CampaignRun {
    let jobs = if jobs == 0 { env_jobs() } else { jobs };
    let run = run_grid(
        workloads,
        &core_schemes(pf),
        &CampaignConfig::default(),
        jobs,
    );
    for cells in run.results.chunks(3) {
        println!("{}", compare_row(cells));
    }
    run
}

/// Executes a parsed command, printing to stdout. Returns an exit code.
pub fn execute(cmd: Command) -> i32 {
    match cmd {
        Command::Help => {
            print!("{USAGE}");
            0
        }
        Command::List { suite: filter } => {
            for id in SuiteId::ALL {
                if filter.is_some_and(|f| f != id) {
                    continue;
                }
                for w in suite(id).workloads() {
                    println!(
                        "{:<14} suite={:<8} {} {}",
                        w.name(),
                        id.label(),
                        if w.is_seen() { "seen  " } else { "unseen" },
                        if w.is_intensive() {
                            "intensive"
                        } else {
                            "non-intensive"
                        },
                    );
                }
            }
            0
        }
        Command::Run(a) => {
            let w = match find_workload(&a.workload) {
                Ok(w) => w,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 2;
                }
            };
            let (dw, di) = w.default_lengths();
            let builder = SimulationBuilder::new()
                .prefetcher(a.prefetcher)
                .pgc_policy(a.policy)
                .l2_prefetcher(a.l2)
                .huge_pages(if a.huge_fraction > 0.0 {
                    HugePagePolicy::Fraction(a.huge_fraction)
                } else {
                    HugePagePolicy::None
                })
                .warmup(if a.warmup > 0 { a.warmup } else { dw })
                .instructions(if a.instructions > 0 {
                    a.instructions
                } else {
                    di
                });
            let builder = match a.os.to_config() {
                Some(cfg) => builder.os(cfg),
                None => builder,
            };
            match simulate_with_telemetry(
                &builder,
                w,
                a.telemetry_out.as_deref(),
                a.telemetry_interval,
                a.telemetry_trace.as_deref(),
            ) {
                Ok((r, lines)) => {
                    print_report(&r);
                    for line in &lines {
                        println!("{line}");
                    }
                    0
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    2
                }
            }
        }
        Command::Compare {
            workload,
            prefetcher,
        } => match find_workload(&workload) {
            Ok(w) => {
                // The three schemes run concurrently on the pool.
                run_compare_grid(&[w], prefetcher, 0);
                0
            }
            Err(e) => {
                eprintln!("error: {e}");
                2
            }
        },
        Command::Campaign {
            suite: filter,
            prefetcher,
            jobs,
            per_suite,
            trace_dir,
        } => {
            let run = if let Some(dir) = trace_dir {
                let replays = match trace_dir_replays(Path::new(&dir)) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return 2;
                    }
                };
                let refs: Vec<&TraceReplay> = replays.iter().collect();
                run_compare_grid(&refs, prefetcher, jobs)
            } else {
                let ws: Vec<&Workload> = match filter {
                    Some(id) => seen_workloads()
                        .into_iter()
                        .filter(|w| w.suite() == id)
                        .take(per_suite.unwrap_or(usize::MAX))
                        .collect(),
                    None => pagecross_workloads::representative_seen(per_suite.unwrap_or(4)),
                };
                run_compare_grid(&ws, prefetcher, jobs)
            };
            println!();
            for t in &run.timings {
                println!(
                    "[timing] {:<14} {:<12} {:>10.2?}",
                    t.workload, t.scheme, t.elapsed
                );
            }
            for s in &run.shards {
                println!("[shard {}] {} cells, busy {:.2?}", s.shard, s.cells, s.busy);
            }
            let ph = run.phase_totals();
            println!(
                "[phases] setup {:.2?}, warmup {:.2?}, measure {:.2?} (total {:.2?})",
                ph.setup,
                ph.warmup,
                ph.measure,
                ph.total()
            );
            println!("{}", run.timing_line());
            0
        }
        Command::Record {
            workload,
            out,
            warmup,
            instructions,
        } => {
            let w = match find_workload(&workload) {
                Ok(w) => w,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 2;
                }
            };
            let (dw, di) = w.default_lengths();
            let warm = if warmup > 0 { warmup } else { dw };
            let meas = if instructions > 0 { instructions } else { di };
            let path = PathBuf::from(out.unwrap_or_else(|| format!("{workload}.pct")));
            match pagecross_trace::record(w, warm + meas, w.params().seed, &path) {
                Ok(meta) => {
                    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                    println!(
                        "recorded {} instructions of {} to {} ({} bytes, {:.2} bytes/instr)",
                        meta.instr_count,
                        meta.name,
                        path.display(),
                        bytes,
                        bytes as f64 / meta.instr_count.max(1) as f64
                    );
                    0
                }
                Err(e) => {
                    eprintln!("error: recording to '{}': {e}", path.display());
                    2
                }
            }
        }
        Command::Replay(a) => {
            // Full scan up front (every chunk CRC + end marker) so a trace
            // corrupted past the header is a clean CLI error, not a panic
            // halfway through the simulation.
            if let Err(e) = pagecross_trace::verify_file(Path::new(&a.trace)) {
                eprintln!("error: cannot open trace '{}': {e}", a.trace);
                return 2;
            }
            let replay = match TraceReplay::open(Path::new(&a.trace)) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: cannot open trace '{}': {e}", a.trace);
                    return 2;
                }
            };
            let (dw, di) = replay.lengths();
            let builder = SimulationBuilder::new()
                .prefetcher(a.prefetcher)
                .pgc_policy(a.policy)
                .l2_prefetcher(a.l2)
                .huge_pages(if a.huge_fraction > 0.0 {
                    HugePagePolicy::Fraction(a.huge_fraction)
                } else {
                    HugePagePolicy::None
                })
                .warmup(if a.warmup > 0 { a.warmup } else { dw })
                .instructions(if a.instructions > 0 {
                    a.instructions
                } else {
                    di
                });
            let builder = match a.os.to_config() {
                Some(cfg) => builder.os(cfg),
                None => builder,
            };
            match simulate_with_telemetry(
                &builder,
                &replay,
                a.telemetry_out.as_deref(),
                a.telemetry_interval,
                a.telemetry_trace.as_deref(),
            ) {
                Ok((r, lines)) => {
                    print_report(&r);
                    for line in &lines {
                        println!("{line}");
                    }
                    0
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    2
                }
            }
        }
        Command::CheckTelemetry { jsonl } => {
            let text = match std::fs::read_to_string(&jsonl) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read '{jsonl}': {e}");
                    return 2;
                }
            };
            match validate_jsonl(&text) {
                Ok(s) => {
                    println!(
                        "ok: {} intervals, {} instructions, {} cycles",
                        s.lines, s.final_instructions, s.final_cycles
                    );
                    0
                }
                Err(e) => {
                    eprintln!("error: invalid telemetry '{jsonl}': {e}");
                    1
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
    }

    #[test]
    fn list_with_suite() {
        assert_eq!(
            parse(&argv("list --suite gap")).unwrap(),
            Command::List {
                suite: Some(SuiteId::Gap)
            }
        );
        assert!(parse(&argv("list --suite nope")).is_err());
    }

    #[test]
    fn run_parses_all_flags() {
        let cmd = parse(&argv(
            "run --workload gap.s00 --prefetcher bop --policy permit --l2 spp --huge 0.5 \
             --warmup 1000 --instructions 2000",
        ))
        .unwrap();
        let Command::Run(a) = cmd else {
            panic!("expected run")
        };
        assert_eq!(a.workload, "gap.s00");
        assert_eq!(a.prefetcher, PrefetcherKind::Bop);
        assert_eq!(a.policy, PgcPolicyKind::PermitPgc);
        assert_eq!(a.l2, L2PrefetcherKind::Spp);
        assert!((a.huge_fraction - 0.5).abs() < 1e-12);
        assert_eq!(a.warmup, 1_000);
        assert_eq!(a.instructions, 2_000);
    }

    #[test]
    fn run_requires_workload() {
        assert!(parse(&argv("run --policy dripper")).is_err());
    }

    #[test]
    fn flags_need_values() {
        assert!(parse(&argv("run --workload")).is_err());
        assert!(parse(&argv("list --suite gap stray")).is_err());
    }

    #[test]
    fn unknown_subcommand_rejected() {
        let e = parse(&argv("frobnicate")).unwrap_err();
        assert!(e.0.contains("unknown subcommand"));
    }

    #[test]
    fn defaults_are_berti_dripper() {
        let Command::Run(a) = parse(&argv("run --workload spec06.s00")).unwrap() else {
            panic!("expected run")
        };
        assert_eq!(a.prefetcher, PrefetcherKind::Berti);
        assert_eq!(a.policy, PgcPolicyKind::Dripper);
    }

    #[test]
    fn campaign_parses_jobs() {
        assert_eq!(
            parse(&argv(
                "campaign --suite gap --prefetcher bop --jobs 4 --per-suite 2"
            ))
            .unwrap(),
            Command::Campaign {
                suite: Some(SuiteId::Gap),
                prefetcher: PrefetcherKind::Bop,
                jobs: 4,
                per_suite: Some(2),
                trace_dir: None,
            }
        );
        // Defaults: jobs 0 (auto), representative cross-suite set of 4.
        assert_eq!(
            parse(&argv("campaign")).unwrap(),
            Command::Campaign {
                suite: None,
                prefetcher: PrefetcherKind::Berti,
                jobs: 0,
                per_suite: None,
                trace_dir: None,
            }
        );
        assert_eq!(
            parse(&argv("campaign --trace-dir traces --jobs 2")).unwrap(),
            Command::Campaign {
                suite: None,
                prefetcher: PrefetcherKind::Berti,
                jobs: 2,
                per_suite: None,
                trace_dir: Some("traces".to_string()),
            }
        );
        assert!(parse(&argv("campaign --jobs 0")).is_err());
        assert!(parse(&argv("campaign --jobs many")).is_err());
        assert!(parse(&argv("campaign --per-suite 0")).is_err());
    }

    #[test]
    fn telemetry_flags_parse_with_defaults() {
        let Command::Run(a) = parse(&argv(
            "run --workload gap.s00 --telemetry-out t.jsonl --telemetry-interval 5000 \
             --telemetry-trace t.json",
        ))
        .unwrap() else {
            panic!("expected run")
        };
        assert_eq!(a.telemetry_out.as_deref(), Some("t.jsonl"));
        assert_eq!(a.telemetry_interval, 5_000);
        assert_eq!(a.telemetry_trace.as_deref(), Some("t.json"));

        let Command::Run(b) = parse(&argv("run --workload gap.s00")).unwrap() else {
            panic!("expected run")
        };
        assert_eq!(b.telemetry_out, None);
        assert_eq!(b.telemetry_interval, DEFAULT_TELEMETRY_INTERVAL);
        assert_eq!(b.telemetry_trace, None);

        let Command::Replay(c) =
            parse(&argv("replay --trace g.pct --telemetry-out r.jsonl")).unwrap()
        else {
            panic!("expected replay")
        };
        assert_eq!(c.telemetry_out.as_deref(), Some("r.jsonl"));

        assert!(parse(&argv("run --workload gap.s00 --telemetry-interval 0")).is_err());
        assert!(parse(&argv("run --workload gap.s00 --telemetry-interval x")).is_err());
    }

    #[test]
    fn os_flags_parse_with_defaults() {
        let Command::Run(a) = parse(&argv(
            "run --workload gap.s00 --os on --phys-mem 64M --thp 0.5 --fault-ns 1000",
        ))
        .unwrap() else {
            panic!("expected run")
        };
        assert!(a.os.enabled);
        assert_eq!(a.os.phys_mem_bytes, 64 << 20);
        assert!((a.os.thp - 0.5).abs() < 1e-12);
        assert_eq!(a.os.fault_ns, 1_000);
        let cfg = a.os.to_config().expect("os is on");
        assert_eq!(cfg.phys_mem_bytes, 64 << 20);
        assert_eq!(cfg.minor_fault_cycles, 4_000);
        assert_eq!(cfg.major_fault_cycles, 32_000);

        let Command::Run(b) = parse(&argv("run --workload gap.s00")).unwrap() else {
            panic!("expected run")
        };
        assert_eq!(b.os, OsArgs::default());
        assert_eq!(b.os.to_config(), None, "off by default");

        let Command::Replay(c) =
            parse(&argv("replay --trace g.pct --os on --phys-mem 2G")).unwrap()
        else {
            panic!("expected replay")
        };
        assert!(c.os.enabled);
        assert_eq!(c.os.phys_mem_bytes, 2 << 30);
        // Unset size/latency flags fall back to the OsConfig defaults.
        let cfg = c.os.to_config().expect("os is on");
        assert_eq!(
            cfg.minor_fault_cycles,
            OsConfig::default().minor_fault_cycles
        );

        assert!(parse(&argv("run --workload gap.s00 --os maybe")).is_err());
        assert!(parse(&argv("run --workload gap.s00 --phys-mem 63M")).is_err());
        assert!(parse(&argv("run --workload gap.s00 --phys-mem lots")).is_err());
        assert!(parse(&argv("run --workload gap.s00 --thp 1.5")).is_err());
        assert!(parse(&argv("run --workload gap.s00 --fault-ns 0")).is_err());
    }

    #[test]
    fn size_literals_parse_binary_suffixes() {
        assert_eq!(parse_size("64M"), Some(64 << 20));
        assert_eq!(parse_size("2g"), Some(2 << 30));
        assert_eq!(parse_size("128k"), Some(128 << 10));
        assert_eq!(parse_size("4096"), Some(4096));
        assert_eq!(parse_size(""), None);
        assert_eq!(parse_size("M"), None);
        assert_eq!(parse_size("12Q"), None);
    }

    #[test]
    fn check_telemetry_parses() {
        assert_eq!(
            parse(&argv("check-telemetry --jsonl out.jsonl")).unwrap(),
            Command::CheckTelemetry {
                jsonl: "out.jsonl".to_string()
            }
        );
        assert!(parse(&argv("check-telemetry")).is_err());
    }

    #[test]
    fn run_with_telemetry_emits_checkable_outputs() {
        let dir = std::env::temp_dir().join(format!("pct-telem-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl = dir.join("out.jsonl");
        let trace = dir.join("trace.json");
        let code = execute(Command::Run(RunArgs {
            workload: "gap.s00".to_string(),
            warmup: 1_000,
            instructions: 5_000,
            telemetry_out: Some(jsonl.to_string_lossy().into_owned()),
            telemetry_interval: 1_000,
            telemetry_trace: Some(trace.to_string_lossy().into_owned()),
            ..Default::default()
        }));
        assert_eq!(code, 0);
        let code = execute(Command::CheckTelemetry {
            jsonl: jsonl.to_string_lossy().into_owned(),
        });
        assert_eq!(code, 0, "emitted JSONL must validate");
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        assert!(trace_text.contains("\"traceEvents\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_telemetry_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("pct-telem-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.jsonl");
        std::fs::write(&bad, "{\"seq\":1}\n").unwrap();
        assert_eq!(
            execute(Command::CheckTelemetry {
                jsonl: bad.to_string_lossy().into_owned(),
            }),
            1
        );
        assert_eq!(
            execute(Command::CheckTelemetry {
                jsonl: "/nonexistent.jsonl".to_string(),
            }),
            2
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_and_replay_parse() {
        assert_eq!(
            parse(&argv(
                "record --workload gap.s00 --out /tmp/g.pct --warmup 100 --instructions 200"
            ))
            .unwrap(),
            Command::Record {
                workload: "gap.s00".to_string(),
                out: Some("/tmp/g.pct".to_string()),
                warmup: 100,
                instructions: 200,
            }
        );
        assert_eq!(
            parse(&argv("record --workload gap.s00")).unwrap(),
            Command::Record {
                workload: "gap.s00".to_string(),
                out: None,
                warmup: 0,
                instructions: 0
            }
        );
        assert!(
            parse(&argv("record")).is_err(),
            "record requires --workload"
        );

        let Command::Replay(a) = parse(&argv(
            "replay --trace /tmp/g.pct --prefetcher ipcp --policy permit",
        ))
        .unwrap() else {
            panic!("expected replay")
        };
        assert_eq!(a.trace, "/tmp/g.pct");
        assert_eq!(a.prefetcher, PrefetcherKind::Ipcp);
        assert_eq!(a.policy, PgcPolicyKind::PermitPgc);
        assert_eq!(a.warmup, 0, "defaults derive from the recording length");
        assert!(parse(&argv("replay")).is_err(), "replay requires --trace");
    }

    #[test]
    fn record_then_replay_roundtrip_via_execute() {
        let dir = std::env::temp_dir().join(format!("pct-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("gap.s00.pct");
        let code = execute(Command::Record {
            workload: "gap.s00".to_string(),
            out: Some(out.to_string_lossy().into_owned()),
            warmup: 500,
            instructions: 1_500,
        });
        assert_eq!(code, 0);
        let code = execute(Command::Replay(ReplayArgs {
            trace: out.to_string_lossy().into_owned(),
            ..Default::default()
        }));
        assert_eq!(code, 0);
        // A trace-dir campaign over the same directory also runs clean.
        let code = execute(Command::Campaign {
            suite: None,
            prefetcher: PrefetcherKind::Berti,
            jobs: 2,
            per_suite: None,
            trace_dir: Some(dir.to_string_lossy().into_owned()),
        });
        assert_eq!(code, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_dir_errors_are_reported() {
        let empty = std::env::temp_dir().join(format!("pct-empty-{}", std::process::id()));
        std::fs::create_dir_all(&empty).unwrap();
        assert!(trace_dir_replays(&empty).is_err(), "no traces -> error");
        assert!(trace_dir_replays(Path::new("/nonexistent-dir")).is_err());
        std::fs::remove_dir_all(&empty).ok();
    }

    #[test]
    fn find_workload_by_name() {
        assert!(find_workload("gap.s00").is_ok());
        assert!(find_workload("gap.u00").is_ok());
        assert!(find_workload("nonexistent.z99").is_err());
    }

    #[test]
    fn execute_list_and_help_succeed() {
        assert_eq!(execute(Command::Help), 0);
        assert_eq!(
            execute(Command::List {
                suite: Some(SuiteId::QmmFp)
            }),
            0
        );
    }
}
