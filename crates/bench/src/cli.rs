//! Command-line front-end for the simulator (the `pagecross` binary).
//!
//! Subcommands:
//!
//! * `list [--suite <id>]` — print the workload registry;
//! * `run (--workload <name> | --trace <path>) [--prefetcher p]
//!   [--policy q] [...]` — one simulation of a registry workload or of a
//!   recorded `.pct` trace, full report (a replayed trace's counters are
//!   bit-identical to the direct run it was recorded from);
//! * `campaign [--suite <id>] [--per-suite k]` or `campaign (--workload
//!   <name> | --trace-dir <dir>)`, each with `[--prefetcher p] [--jobs n]`
//!   — the Discard vs Permit vs DRIPPER grid on the worker pool: one row
//!   per workload, then per-cell timing and the wall-clock/speedup
//!   summary. The grid spans a representative cross-suite set, one suite,
//!   one workload, or every `.pct` trace in a directory;
//!   `PAGECROSS_SCALE` scales its run lengths;
//! * `record --workload <name> [--out <path>]` — serialize a workload's
//!   instruction stream to a `.pct` trace file;
//! * `check-telemetry --jsonl <path>` — validate a telemetry JSONL file.
//!
//! Parsing is hand-rolled (the workspace is dependency-minimal) and driven
//! by one flag table, `SUBCOMMANDS`: a flag the table does not list for
//! the subcommand, or a flag given twice, is an error. The parsed command
//! is a plain enum so it is unit-testable.

use crate::campaign::{
    core_schemes, env_jobs, env_scale, run_grid, CampaignConfig, CampaignRun, Subject,
    WorkloadResult,
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
use pagecross_workloads::{representative_seen, seen_workloads, suite, SuiteId, Workload};
use std::collections::BTreeMap;
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
    /// Run the Discard/Permit/DRIPPER grid on the parallel campaign runner.
    Campaign {
        /// The workloads the grid spans.
        grid: Grid,
        /// L1D prefetcher.
        prefetcher: PrefetcherKind,
        /// Worker threads (0 = `PAGECROSS_JOBS` / all cores).
        jobs: usize,
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
    /// Validate a telemetry JSONL file emitted by `--telemetry-out`.
    CheckTelemetry {
        /// Path of the JSONL file.
        jsonl: String,
    },
    /// Print usage.
    Help,
}

/// What `run` simulates.
#[derive(Clone, Debug, PartialEq)]
pub enum Source {
    /// A registry workload, by name (`--workload`).
    Workload(String),
    /// A recorded `.pct` trace, by path (`--trace`).
    Trace(String),
}

/// The workloads a `campaign` grid spans.
#[derive(Clone, Debug, PartialEq)]
pub enum Grid {
    /// Registry workloads (`--suite`, `--per-suite`).
    Registry {
        /// Suite restriction (`None` = representative cross-suite set).
        suite: Option<SuiteId>,
        /// Cap on workloads taken per suite (`None` = all of a filtered
        /// suite, or 4 per suite for the cross-suite set).
        per_suite: Option<usize>,
    },
    /// One registry workload (`--workload`).
    Workload(String),
    /// Every `.pct` trace in a directory (`--trace-dir`).
    TraceDir(String),
}

/// The imitation-OS flags of `run` (`--os`, `--phys-mem`, `--thp`,
/// `--fault-ns`).
#[derive(Clone, Debug, Default, PartialEq)]
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

/// Arguments of the `run` subcommand.
#[derive(Clone, Debug, PartialEq)]
pub struct RunArgs {
    /// What to simulate.
    pub source: Source,
    /// L1D prefetcher.
    pub prefetcher: PrefetcherKind,
    /// Page-cross policy.
    pub policy: PgcPolicyKind,
    /// L2C prefetcher.
    pub l2: L2PrefetcherKind,
    /// Huge-page fraction (0 disables).
    pub huge_fraction: f64,
    /// Warm-up instructions (0 = the source's default: the workload's, or
    /// the first third of a recording).
    pub warmup: u64,
    /// Measured instructions (0 = the source's default: the workload's, or
    /// the rest of a recording).
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
            source: Source::Workload(String::new()),
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

/// The flag table: every subcommand and the flags (without the leading
/// `--`) it accepts. Each flag takes exactly one value; [`USAGE`] lists
/// every flag under its subcommand.
const SUBCOMMANDS: &[(&str, &[&str])] = &[
    ("help", &[]),
    ("list", &["suite"]),
    (
        "run",
        &[
            "workload",
            "trace",
            "prefetcher",
            "policy",
            "l2",
            "huge",
            "warmup",
            "instructions",
            "telemetry-out",
            "telemetry-interval",
            "telemetry-trace",
            "os",
            "phys-mem",
            "thp",
            "fault-ns",
        ],
    ),
    (
        "campaign",
        &[
            "workload",
            "suite",
            "per-suite",
            "trace-dir",
            "prefetcher",
            "jobs",
        ],
    ),
    ("record", &["workload", "out", "warmup", "instructions"]),
    ("check-telemetry", &["jsonl"]),
];

/// A typed flag value: what it expects (for the error message) and its
/// parser.
type Value<T> = (&'static str, fn(&str) -> Option<T>);

const COUNT: Value<u64> = ("a count", |s| s.parse().ok());
const POSITIVE: Value<u64> = ("a positive count", |s| s.parse().ok().filter(|&n| n >= 1));
const POSITIVE_USIZE: Value<usize> = ("a positive count", |s| s.parse().ok().filter(|&n| n >= 1));
const FRACTION: Value<f64> = ("a fraction in [0, 1]", |s| {
    s.parse().ok().filter(|f| (0.0..=1.0).contains(f))
});
const PHYS_MEM: Value<u64> = ("a size of at least 64M (e.g. 64M, 2G)", |s| {
    parse_size(s).filter(|&n| n >= 64 << 20)
});
const ON_OFF: Value<bool> = ("on|off", |s| match s {
    "on" => Some(true),
    "off" => Some(false),
    _ => None,
});
const SUITE: Value<SuiteId> = (
    "a suite (spec06 spec17 gap ligra parsec gkb5 qmm_int qmm_fp)",
    |s| SuiteId::ALL.into_iter().find(|id| id.label() == s),
);
const PREFETCHER: Value<PrefetcherKind> = ("berti|ipcp|bop|stride|next-line|none", |s| {
    Some(match s {
        "none" => PrefetcherKind::None,
        "next-line" => PrefetcherKind::NextLine,
        "stride" => PrefetcherKind::Stride,
        "berti" => PrefetcherKind::Berti,
        "ipcp" => PrefetcherKind::Ipcp,
        "bop" => PrefetcherKind::Bop,
        _ => return None,
    })
});
const POLICY: Value<PgcPolicyKind> = (
    "dripper|permit|discard|discard-ptw|iso-storage|dripper-sf|ppf|ppf-dthr",
    |s| {
        Some(match s {
            "permit" => PgcPolicyKind::PermitPgc,
            "discard" => PgcPolicyKind::DiscardPgc,
            "discard-ptw" => PgcPolicyKind::DiscardPtw,
            "iso-storage" => PgcPolicyKind::IsoStorage,
            "dripper" => PgcPolicyKind::Dripper,
            "dripper-sf" => PgcPolicyKind::DripperSf,
            "ppf" => PgcPolicyKind::Ppf,
            "ppf-dthr" => PgcPolicyKind::PpfDthr,
            _ => return None,
        })
    },
);
const L2: Value<L2PrefetcherKind> = ("none|spp|ipcp|bop", |s| {
    Some(match s {
        "none" => L2PrefetcherKind::None,
        "spp" => L2PrefetcherKind::Spp,
        "ipcp" => L2PrefetcherKind::Ipcp,
        "bop" => L2PrefetcherKind::Bop,
        _ => return None,
    })
});

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

/// The `--flag value` pairs of one invocation, checked against the flag
/// table.
struct Flags<'a>(BTreeMap<&'a str, &'a str>);

impl<'a> Flags<'a> {
    /// Tokenizes the arguments after the subcommand, rejecting stray words,
    /// missing values, repeated flags and flags not in `allowed`.
    fn tokenize(cmd: &str, allowed: &[&str], args: &'a [String]) -> Result<Self, CliError> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(tok) = it.next() {
            let name = tok
                .strip_prefix("--")
                .ok_or_else(|| CliError(format!("expected --flag, got '{tok}'")))?;
            if !allowed.contains(&name) {
                return Err(CliError(format!("{cmd} does not take --{name}")));
            }
            let value = it
                .next()
                .ok_or_else(|| CliError(format!("flag '--{name}' needs a value")))?;
            if map.insert(name, value.as_str()).is_some() {
                return Err(CliError(format!("--{name} given more than once")));
            }
        }
        Ok(Self(map))
    }

    /// The raw value of `--name`, if given.
    fn text(&self, name: &str) -> Option<String> {
        self.0.get(name).map(|v| v.to_string())
    }

    /// The value of `--name`, which `cmd` requires.
    fn required(&self, cmd: &str, name: &str) -> Result<String, CliError> {
        self.text(name)
            .ok_or_else(|| CliError(format!("{cmd} requires --{name}")))
    }

    /// The typed value of `--name`, if given.
    fn value<T>(&self, name: &str, (expects, parse): Value<T>) -> Result<Option<T>, CliError> {
        self.0
            .get(name)
            .map(|v| {
                parse(v).ok_or_else(|| CliError(format!("--{name} expects {expects}, got '{v}'")))
            })
            .transpose()
    }

    /// Errors when more than one of `names` is given.
    fn exclusive(&self, names: &[&str]) -> Result<(), CliError> {
        let given: Vec<&&str> = names.iter().filter(|n| self.0.contains_key(*n)).collect();
        match given[..] {
            [a, b, ..] => Err(CliError(format!("--{a} and --{b} cannot be combined"))),
            _ => Ok(()),
        }
    }
}

/// Parses an argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    let cmd = match cmd.as_str() {
        "--help" | "-h" => "help",
        c => c,
    };
    let (_, allowed) = SUBCOMMANDS
        .iter()
        .find(|(name, _)| *name == cmd)
        .ok_or_else(|| CliError(format!("unknown subcommand '{cmd}' (try 'help')")))?;
    let f = Flags::tokenize(cmd, allowed, rest)?;
    Ok(match cmd {
        "help" => Command::Help,
        "list" => Command::List {
            suite: f.value("suite", SUITE)?,
        },
        "run" => Command::Run(parse_run(&f)?),
        "campaign" => {
            f.exclusive(&["workload", "trace-dir", "suite"])?;
            f.exclusive(&["workload", "trace-dir", "per-suite"])?;
            let grid = match (f.text("workload"), f.text("trace-dir")) {
                (Some(w), _) => Grid::Workload(w),
                (_, Some(dir)) => Grid::TraceDir(dir),
                _ => Grid::Registry {
                    suite: f.value("suite", SUITE)?,
                    per_suite: f.value("per-suite", POSITIVE_USIZE)?,
                },
            };
            Command::Campaign {
                grid,
                prefetcher: f
                    .value("prefetcher", PREFETCHER)?
                    .unwrap_or(PrefetcherKind::Berti),
                // 0 = resolve via env_jobs() at execution time.
                jobs: f.value("jobs", POSITIVE_USIZE)?.unwrap_or(0),
            }
        }
        "record" => Command::Record {
            workload: f.required(cmd, "workload")?,
            out: f.text("out"),
            warmup: f.value("warmup", COUNT)?.unwrap_or(0),
            instructions: f.value("instructions", COUNT)?.unwrap_or(0),
        },
        "check-telemetry" => Command::CheckTelemetry {
            jsonl: f.required(cmd, "jsonl")?,
        },
        _ => unreachable!("every subcommand in the flag table has a parse arm"),
    })
}

/// Parses the flags of `run`.
fn parse_run(f: &Flags) -> Result<RunArgs, CliError> {
    f.exclusive(&["workload", "trace"])?;
    let source = match (f.text("workload"), f.text("trace")) {
        (Some(w), _) => Source::Workload(w),
        (_, Some(t)) => Source::Trace(t),
        _ => return Err(CliError("run requires --workload or --trace".into())),
    };
    let d = RunArgs::default();
    Ok(RunArgs {
        source,
        prefetcher: f.value("prefetcher", PREFETCHER)?.unwrap_or(d.prefetcher),
        policy: f.value("policy", POLICY)?.unwrap_or(d.policy),
        l2: f.value("l2", L2)?.unwrap_or(d.l2),
        huge_fraction: f.value("huge", FRACTION)?.unwrap_or(d.huge_fraction),
        warmup: f.value("warmup", COUNT)?.unwrap_or(d.warmup),
        instructions: f.value("instructions", COUNT)?.unwrap_or(d.instructions),
        telemetry_out: f.text("telemetry-out"),
        telemetry_interval: f
            .value("telemetry-interval", POSITIVE)?
            .unwrap_or(d.telemetry_interval),
        telemetry_trace: f.text("telemetry-trace"),
        os: OsArgs {
            enabled: f.value("os", ON_OFF)?.unwrap_or_default(),
            phys_mem_bytes: f.value("phys-mem", PHYS_MEM)?.unwrap_or_default(),
            thp: f.value("thp", FRACTION)?.unwrap_or_default(),
            fault_ns: f.value("fault-ns", POSITIVE)?.unwrap_or_default(),
        },
    })
}

/// Usage text.
pub const USAGE: &str = "\
pagecross — simulate page-cross prefetch filtering (HPCA'25 reproduction)

USAGE:
  pagecross list [--suite <id>]
  pagecross run (--workload <name> | --trace <path>)
                [--prefetcher berti|ipcp|bop|stride|next-line|none]
                [--policy dripper|permit|discard|discard-ptw|iso-storage|dripper-sf|ppf|ppf-dthr]
                [--l2 none|spp|ipcp|bop] [--huge <fraction>]
                [--warmup <n>] [--instructions <n>]
                [--telemetry-out <path.jsonl>] [--telemetry-interval <n>]
                [--telemetry-trace <path.json>]
                [--os on|off] [--phys-mem <size>] [--thp <f>] [--fault-ns <n>]
  pagecross campaign [--suite <id>] [--per-suite <k>] [--prefetcher <p>] [--jobs <n>]
  pagecross campaign (--workload <name> | --trace-dir <dir>) [--prefetcher <p>] [--jobs <n>]
  pagecross record --workload <name> [--out <path>] [--warmup <n>] [--instructions <n>]
  pagecross check-telemetry --jsonl <path>

Suites: spec06 spec17 gap ligra parsec gkb5 qmm_int qmm_fp

campaign runs Discard, Permit and DRIPPER on every workload of its grid
and prints one row per workload (IPC under Discard, speedups of the
other two), then per-cell timing. The grid is a representative
cross-suite set by default, one --suite, one --workload, or every .pct
trace in a --trace-dir. --per-suite caps the workloads taken per suite
(default: all of a filtered --suite, or 4 per suite for the cross-suite
set). PAGECROSS_SCALE multiplies every cell's run length (default 1).
Campaigns run on a worker pool: --jobs (or PAGECROSS_JOBS) sets the
thread count, defaulting to all available cores. Results are
deterministic for a given seed regardless of the worker count.

record serializes a workload's stream to a compact checksummed .pct
file (default length: the workload's warm-up + measured defaults).
run --trace simulates such a file; with default lengths on both sides,
the replayed counters are bit-identical to the direct run.

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

/// Prints the standard single-run report block (the same for a workload and
/// for its recorded trace, so a replay can be diffed against the direct run
/// with plain text tools).
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

/// Builds the simulation `a` describes over `subject`, runs it (collecting
/// telemetry when either output path is set) and writes the requested
/// telemetry files. Returns the report plus the telemetry summary lines to
/// print after the report block (so the report itself stays diffable
/// between a direct run and a replayed trace).
fn simulate_with_telemetry(
    a: &RunArgs,
    subject: &dyn Subject,
) -> Result<(Report, Vec<String>), CliError> {
    let (dw, di) = subject.lengths();
    let mut builder = SimulationBuilder::new()
        .prefetcher(a.prefetcher)
        .pgc_policy(a.policy)
        .l2_prefetcher(a.l2)
        .huge_pages(if a.huge_fraction > 0.0 {
            HugePagePolicy::Fraction(a.huge_fraction)
        } else {
            HugePagePolicy::None
        })
        .warmup(or_default(a.warmup, dw))
        .instructions(or_default(a.instructions, di));
    if let Some(cfg) = a.os.to_config() {
        builder = builder.os(cfg);
    }
    let (out, trace) = (a.telemetry_out.as_deref(), a.telemetry_trace.as_deref());
    let tcfg = (out.is_some() || trace.is_some()).then(|| TelemetryConfig {
        interval: a.telemetry_interval,
        events: trace.is_some(),
        ..TelemetryConfig::default()
    });
    let mut run = builder
        .run(&[subject.factory()], tcfg.as_ref())
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

/// `n`, or `default` when `n` is 0 (a length flag left unset).
fn or_default(n: u64, default: u64) -> u64 {
    if n > 0 {
        n
    } else {
        default
    }
}

/// Opens a `.pct` trace after a full scan (every chunk CRC + end marker),
/// so a trace corrupted past the header is a clean CLI error naming the
/// file, not a panic halfway through a simulation or on a worker thread.
fn open_trace(path: &Path) -> Result<TraceReplay, CliError> {
    pagecross_trace::verify_file(path)
        .and_then(|_| TraceReplay::open(path))
        .map_err(|e| CliError(format!("cannot open trace '{}': {e}", path.display())))
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
    paths.iter().map(|p| open_trace(p)).collect()
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

/// Runs the three core policies for `workloads` on `jobs` pool workers
/// and prints one compare row per workload.
fn run_compare_grid<S: Subject + ?Sized>(
    workloads: &[&S],
    pf: PrefetcherKind,
    jobs: usize,
    cfg: &CampaignConfig,
) -> CampaignRun {
    let run = run_grid(workloads, &core_schemes(pf), cfg, jobs);
    for cells in run.results.chunks(3) {
        println!("{}", compare_row(cells));
    }
    run
}

/// Executes a parsed command, printing to stdout. Returns an exit code: 0
/// on success, 1 for a telemetry file that fails validation, 2 for any
/// other error (reported on stderr).
pub fn execute(cmd: Command) -> i32 {
    try_execute(cmd).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        2
    })
}

fn try_execute(cmd: Command) -> Result<i32, CliError> {
    match cmd {
        Command::Help => print!("{USAGE}"),
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
        }
        Command::Run(a) => {
            let replay;
            let subject: &dyn Subject = match &a.source {
                Source::Workload(name) => find_workload(name)?,
                Source::Trace(path) => {
                    replay = open_trace(Path::new(path))?;
                    &replay
                }
            };
            let (r, lines) = simulate_with_telemetry(&a, subject)?;
            print_report(&r);
            for line in &lines {
                println!("{line}");
            }
        }
        Command::Campaign {
            grid,
            prefetcher,
            jobs,
        } => {
            let cfg = env_scale();
            let jobs = if jobs == 0 { env_jobs() } else { jobs };
            let run = match grid {
                Grid::Registry { suite, per_suite } => {
                    let ws: Vec<&Workload> = match suite {
                        Some(id) => seen_workloads()
                            .into_iter()
                            .filter(|w| w.suite() == id)
                            .take(per_suite.unwrap_or(usize::MAX))
                            .collect(),
                        None => representative_seen(per_suite.unwrap_or(4)),
                    };
                    run_compare_grid(&ws, prefetcher, jobs, &cfg)
                }
                Grid::Workload(name) => {
                    run_compare_grid(&[find_workload(&name)?], prefetcher, jobs, &cfg)
                }
                Grid::TraceDir(dir) => {
                    let replays = trace_dir_replays(Path::new(&dir))?;
                    let refs: Vec<&TraceReplay> = replays.iter().collect();
                    run_compare_grid(&refs, prefetcher, jobs, &cfg)
                }
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
        }
        Command::Record {
            workload,
            out,
            warmup,
            instructions,
        } => {
            let w = find_workload(&workload)?;
            let (dw, di) = w.default_lengths();
            let len = or_default(warmup, dw) + or_default(instructions, di);
            let path = PathBuf::from(out.unwrap_or_else(|| format!("{workload}.pct")));
            let meta = pagecross_trace::record(w, len, w.params().seed, &path)
                .map_err(|e| CliError(format!("recording to '{}': {e}", path.display())))?;
            let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            println!(
                "recorded {} instructions of {} to {} ({} bytes, {:.2} bytes/instr)",
                meta.instr_count,
                meta.name,
                path.display(),
                bytes,
                bytes as f64 / meta.instr_count.max(1) as f64
            );
        }
        Command::CheckTelemetry { jsonl } => {
            let text = std::fs::read_to_string(&jsonl)
                .map_err(|e| CliError(format!("cannot read '{jsonl}': {e}")))?;
            match validate_jsonl(&text) {
                Ok(s) => println!(
                    "ok: {} intervals, {} instructions, {} cycles",
                    s.lines, s.final_instructions, s.final_cycles
                ),
                Err(e) => {
                    eprintln!("error: invalid telemetry '{jsonl}': {e}");
                    return Ok(1);
                }
            }
        }
    }
    Ok(0)
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
        assert_eq!(a.source, Source::Workload("gap.s00".to_string()));
        assert_eq!(a.prefetcher, PrefetcherKind::Bop);
        assert_eq!(a.policy, PgcPolicyKind::PermitPgc);
        assert_eq!(a.l2, L2PrefetcherKind::Spp);
        assert!((a.huge_fraction - 0.5).abs() < 1e-12);
        assert_eq!(a.warmup, 1_000);
        assert_eq!(a.instructions, 2_000);
        assert!(parse(&argv("run --workload gap.s00 --huge 1.5")).is_err());
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
        for gone in ["replay --trace t.pct", "compare --workload gap.s00"] {
            assert!(parse(&argv(gone)).is_err(), "{gone}");
        }
    }

    #[test]
    fn misspelt_flag_is_an_error() {
        let e = parse(&argv("run --workload gap.s00 --polcy permit")).unwrap_err();
        assert_eq!(e.0, "run does not take --polcy");
    }

    #[test]
    fn flag_of_another_subcommand_is_an_error() {
        let e = parse(&argv("list --jobs 4")).unwrap_err();
        assert_eq!(e.0, "list does not take --jobs");
        assert!(parse(&argv("record --workload gap.s00 --policy permit")).is_err());
    }

    #[test]
    fn repeated_flag_is_an_error() {
        let e = parse(&argv(
            "run --workload gap.s00 --policy permit --policy discard",
        ))
        .unwrap_err();
        assert_eq!(e.0, "--policy given more than once");
    }

    #[test]
    fn run_takes_one_source() {
        let e = parse(&argv("run --workload w --trace t")).unwrap_err();
        assert_eq!(e.0, "--workload and --trace cannot be combined");
    }

    #[test]
    fn campaign_workload_excludes_suite_selection() {
        let e = parse(&argv("campaign --workload w --suite gap")).unwrap_err();
        assert_eq!(e.0, "--workload and --suite cannot be combined");
        let e = parse(&argv("campaign --workload w --per-suite 2")).unwrap_err();
        assert_eq!(e.0, "--workload and --per-suite cannot be combined");
        assert!(parse(&argv("campaign --trace-dir d --suite gap")).is_err());
        assert!(parse(&argv("campaign --trace-dir d --workload w")).is_err());
    }

    #[test]
    fn every_table_flag_is_in_usage_under_its_subcommand() {
        for (cmd, flags) in SUBCOMMANDS {
            // Every usage entry of `cmd`, each up to the next entry or the
            // blank line that ends the list.
            let entries: String = USAGE
                .match_indices(&format!("  pagecross {cmd} "))
                .map(|(start, _)| {
                    let entry = &USAGE[start + 2..];
                    let end = [entry.find("\n  pagecross "), entry.find("\n\n")]
                        .into_iter()
                        .flatten()
                        .min()
                        .expect("the usage list ends with a blank line");
                    &entry[..end]
                })
                .collect();
            for flag in *flags {
                assert!(
                    entries.contains(&format!("--{flag} ")),
                    "--{flag} missing from the USAGE of {cmd}"
                );
            }
        }
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
                grid: Grid::Registry {
                    suite: Some(SuiteId::Gap),
                    per_suite: Some(2),
                },
                prefetcher: PrefetcherKind::Bop,
                jobs: 4,
            }
        );
        // Defaults: jobs 0 (auto), representative cross-suite set of 4.
        assert_eq!(
            parse(&argv("campaign")).unwrap(),
            Command::Campaign {
                grid: Grid::Registry {
                    suite: None,
                    per_suite: None,
                },
                prefetcher: PrefetcherKind::Berti,
                jobs: 0,
            }
        );
        assert_eq!(
            parse(&argv("campaign --trace-dir traces --jobs 2")).unwrap(),
            Command::Campaign {
                grid: Grid::TraceDir("traces".to_string()),
                prefetcher: PrefetcherKind::Berti,
                jobs: 2,
            }
        );
        assert_eq!(
            parse(&argv("campaign --workload spec06.s03 --prefetcher ipcp")).unwrap(),
            Command::Campaign {
                grid: Grid::Workload("spec06.s03".to_string()),
                prefetcher: PrefetcherKind::Ipcp,
                jobs: 0,
            }
        );
        assert!(parse(&argv("campaign --jobs 0")).is_err());
        assert!(parse(&argv("campaign --jobs many")).is_err());
        assert!(parse(&argv("campaign --per-suite 0")).is_err());
    }

    #[test]
    fn grid_run_measures_the_scaled_length() {
        let w = find_workload("gap.s00").unwrap();
        let cfg = CampaignConfig {
            warmup_scale: 0.05,
            measure_scale: 0.05,
            ..Default::default()
        };
        let run = run_compare_grid(&[w], PrefetcherKind::Berti, 1, &cfg);
        let (_, measure) = w.default_lengths();
        assert_eq!(run.results.len(), 3);
        for cell in &run.results {
            assert_eq!(cell.report.core.instructions, measure / 20);
        }
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

        let Command::Run(c) = parse(&argv("run --trace g.pct --telemetry-out r.jsonl")).unwrap()
        else {
            panic!("expected run")
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

        let Command::Run(c) = parse(&argv("run --trace g.pct --os on --phys-mem 2G")).unwrap()
        else {
            panic!("expected run")
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
            source: Source::Workload("gap.s00".to_string()),
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

        let Command::Run(a) = parse(&argv(
            "run --trace /tmp/g.pct --prefetcher ipcp --policy permit",
        ))
        .unwrap() else {
            panic!("expected run")
        };
        assert_eq!(a.source, Source::Trace("/tmp/g.pct".to_string()));
        assert_eq!(a.prefetcher, PrefetcherKind::Ipcp);
        assert_eq!(a.policy, PgcPolicyKind::PermitPgc);
        assert_eq!(a.warmup, 0, "defaults derive from the recording length");
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
        let code = execute(Command::Run(RunArgs {
            source: Source::Trace(out.to_string_lossy().into_owned()),
            ..Default::default()
        }));
        assert_eq!(code, 0);
        // A trace-dir campaign over the same directory also runs clean.
        let code = execute(Command::Campaign {
            grid: Grid::TraceDir(dir.to_string_lossy().into_owned()),
            prefetcher: PrefetcherKind::Berti,
            jobs: 2,
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
