//! The figure registry: every paper figure, table and ablation as an id,
//! the cells it needs and a renderer over their results.
//!
//! `cargo bench -p pagecross-bench --bench figures -- [id ...]` (no ids:
//! all) collects the union of the requested figures' cells, simulates each
//! distinct cell once on the campaign runner (`run_cells`) and renders the
//! figures in registry order. Each figure prints `[id]`-prefixed TSV rows and
//! a paper-vs-measured SUMMARY line. Cells are memoised in-process only,
//! keyed by everything that reaches `SimulationBuilder`, so nothing can go
//! stale. See EXPERIMENTS.md for the index and recorded results.

mod ablations;
mod berti;
mod motivation;
mod schemes;
mod system;

use moka_pgc::{FilterConfig, ProgramFeature, SystemFeature, ThresholdConfig};
use pagecross_cpu::trace::TraceFactory;
use pagecross_cpu::{
    BoundaryMode, L2PrefetcherKind, OsConfig, PgcPolicyKind, PrefetcherKind, Report,
};
use pagecross_mem::HugePagePolicy;
use pagecross_types::FastMap;
use pagecross_workloads::Workload;

use crate::campaign::{
    env_jobs, env_scale, ipcs_of, run_cells, CampaignConfig, CampaignRun, Scheme, Subject,
    WorkloadResult,
};
use crate::table::{fmt_pct, geomean_speedup, Table};

/// One simulation a figure needs: `workloads` run together, one per core (a
/// single-core cell is a mix of one), for `lengths` scaled by the campaign
/// config, under `scheme`.
#[derive(Clone, Debug)]
pub struct Cell {
    /// The workloads, one per core.
    pub workloads: Vec<&'static Workload>,
    /// Unscaled (warm-up, measured) instruction counts per core.
    pub lengths: (u64, u64),
    /// Everything else that configures the run. Its label is display only.
    pub scheme: Scheme,
}

impl Cell {
    /// `scheme` on one workload at the workload's default lengths.
    pub fn new(workload: &'static Workload, scheme: Scheme) -> Self {
        Self {
            workloads: vec![workload],
            lengths: workload.default_lengths(),
            scheme,
        }
    }

    fn key(&self, cfg: &CampaignConfig) -> CellKey {
        let s = &self.scheme;
        let (warmup, instructions) = cfg.lengths(self.lengths);
        CellKey {
            workloads: self.workloads.iter().map(|w| w.name()).collect(),
            prefetcher: s.prefetcher,
            policy: s.policy,
            filter: s.filter.as_ref().map(filter_key),
            l2: s.l2,
            boundary: s.boundary,
            huge: match s.huge {
                HugePagePolicy::None => (0, 0),
                HugePagePolicy::Fraction(f) => (1, f.to_bits()),
                HugePagePolicy::All => (2, 0),
            },
            os: s.os.map(os_key),
            warmup,
            instructions,
            seed: cfg.seed,
        }
    }
}

impl Subject for Cell {
    fn factories(&self) -> Vec<&dyn TraceFactory> {
        self.workloads
            .iter()
            .map(|&w| w as &dyn TraceFactory)
            .collect()
    }

    fn suite_label(&self) -> &'static str {
        match self.workloads[..] {
            [w] => w.suite_label(),
            _ => "mix",
        }
    }

    fn lengths(&self) -> (u64, u64) {
        self.lengths
    }
}

/// Everything of a cell that reaches `SimulationBuilder`, with every `f64`
/// as its bits. The scheme label is left out, so figures that ask for the
/// same simulation under different labels share one run.
#[derive(PartialEq, Eq, Hash)]
struct CellKey {
    workloads: Vec<&'static str>,
    prefetcher: PrefetcherKind,
    policy: PgcPolicyKind,
    filter: Option<(Vec<ProgramFeature>, Vec<SystemFeature>, Vec<u64>)>,
    l2: L2PrefetcherKind,
    boundary: BoundaryMode,
    huge: (u8, u64),
    os: Option<[u64; 6]>,
    warmup: u64,
    instructions: u64,
    seed: u64,
}

// The destructuring below is exhaustive on purpose: a field added to a
// config must be added to the key, or two different runs would share one.
fn filter_key(cfg: &FilterConfig) -> (Vec<ProgramFeature>, Vec<SystemFeature>, Vec<u64>) {
    let FilterConfig {
        program_features,
        system_features,
        wt_entries,
        weight_bits,
        vub_entries,
        pub_entries,
        adaptive,
        static_threshold,
        threshold_cfg,
    } = cfg;
    let ThresholdConfig {
        t_low,
        t_medium,
        t_high,
        t_min,
        t_max,
        acc_low,
        acc_medium,
        l1i_mpki_high,
        rob_pressure,
        inflight_high,
        llc_missrate_extreme,
        llc_mpki_extreme,
        ipc_drop,
    } = threshold_cfg;
    let words = vec![
        *wt_entries as u64,
        u64::from(*weight_bits),
        *vub_entries as u64,
        *pub_entries as u64,
        u64::from(*adaptive),
        *static_threshold as u64,
        *t_low as u64,
        *t_medium as u64,
        *t_high as u64,
        *t_min as u64,
        *t_max as u64,
        acc_low.to_bits(),
        acc_medium.to_bits(),
        l1i_mpki_high.to_bits(),
        rob_pressure.to_bits(),
        u64::from(*inflight_high),
        llc_missrate_extreme.to_bits(),
        llc_mpki_extreme.to_bits(),
        ipc_drop.to_bits(),
    ];
    (program_features.clone(), system_features.clone(), words)
}

fn os_key(cfg: OsConfig) -> [u64; 6] {
    let OsConfig {
        phys_mem_bytes,
        thp,
        minor_fault_cycles,
        major_fault_cycles,
        ipi_cycles,
        promote_cycles,
    } = cfg;
    [
        phys_mem_bytes,
        thp.to_bits(),
        minor_fault_cycles,
        major_fault_cycles,
        ipi_cycles,
        promote_cycles,
    ]
}

/// The L1D prefetchers the paper evaluates every scheme with.
const PREFETCHERS: [PrefetcherKind; 3] = [
    PrefetcherKind::Berti,
    PrefetcherKind::Bop,
    PrefetcherKind::Ipcp,
];

/// The workload-major, scheme-minor grid of single-core cells, the order
/// [`crate::run_grid`] uses.
fn grid(workloads: &[&'static Workload], schemes: &[Scheme]) -> Vec<Cell> {
    workloads
        .iter()
        .flat_map(|&w| schemes.iter().map(move |s| Cell::new(w, s.clone())))
        .collect()
}

/// Geomean speedup of each scheme after the first over the first, as
/// (label, speedup), from results of a [`grid`] over `schemes`.
fn geomeans_vs_first(results: &[WorkloadResult], schemes: &[Scheme]) -> Vec<(String, f64)> {
    let base = ipcs_of(results, &schemes[0].label);
    schemes[1..]
        .iter()
        .map(|s| {
            let g = geomean_speedup(&ipcs_of(results, &s.label), &base);
            (s.label.clone(), g)
        })
        .collect()
}

/// dTLB, sTLB, L1D and LLC MPKI of `r` minus those of `base`.
fn mpki_deltas(r: &Report, base: &Report) -> [f64; 4] {
    [
        r.dtlb_mpki() - base.dtlb_mpki(),
        r.stlb_mpki() - base.stlb_mpki(),
        r.l1d_mpki() - base.l1d_mpki(),
        r.llc_mpki() - base.llc_mpki(),
    ]
}

/// Appends a (workload, `a` speedup, `b` speedup) row per workload and a
/// GEOMEAN row, speedups over `base`, from a workload-major grid whose
/// schemes are exactly `base`, `a` and `b`. Returns the two geomeans.
fn speedup_rows(results: &[WorkloadResult], t: &mut Table, [base, a, b]: [&str; 3]) -> (f64, f64) {
    let [base, a, b] = [base, a, b].map(|s| ipcs_of(results, s));
    for (i, chunk) in results.chunks(3).enumerate() {
        let workload = chunk[0].workload.clone();
        t.row(&[workload, fmt_pct(a[i] / base[i]), fmt_pct(b[i] / base[i])]);
    }
    let (ga, gb) = (geomean_speedup(&a, &base), geomean_speedup(&b, &base));
    t.row(&["GEOMEAN".into(), fmt_pct(ga), fmt_pct(gb)]);
    (ga, gb)
}

/// One registry entry: a paper figure, table or ablation.
#[derive(Clone, Copy, Debug)]
pub struct Figure {
    /// The tag the figure prints, e.g. `fig10` or `ablation_buffers`.
    pub id: &'static str,
    /// The cells the figure needs, in the order `render` reads them.
    pub cells: fn() -> Vec<Cell>,
    /// Renders the figure's rows and SUMMARY line from its cells' results,
    /// given in `cells` order and under the labels `cells` chose.
    pub render: fn(&[WorkloadResult], &mut Table),
}

const fn fig(
    id: &'static str,
    cells: fn() -> Vec<Cell>,
    render: fn(&[WorkloadResult], &mut Table),
) -> Figure {
    Figure { id, cells, render }
}

/// Every figure, in the order a full run prints them.
pub const REGISTRY: [Figure; 20] = [
    fig("fig02", motivation::fig02_cells, motivation::fig02),
    fig("fig03", motivation::fig03_cells, motivation::fig03),
    fig("fig04", motivation::fig04_cells, motivation::fig04),
    fig("fig09", schemes::fig09_cells, schemes::fig09),
    fig("fig10", berti::core_cells, berti::fig10),
    fig("fig11", berti::core_cells, berti::fig11),
    fig("fig12", berti::core_cells, berti::fig12),
    fig("fig13", berti::core_cells, berti::fig13),
    fig("fig14", schemes::fig14_cells, schemes::fig14),
    fig("fig15", schemes::fig15_cells, schemes::fig15),
    fig("fig16", schemes::fig16_cells, schemes::fig16),
    fig("fig17", schemes::fig17_cells, schemes::fig17),
    fig("fig18", berti::fig18_cells, berti::fig18),
    fig("fig19", system::fig19_cells, system::fig19),
    fig("fig_thp", system::thp_cells, system::thp),
    fig("table03", Vec::new, ablations::table03),
    fig("table05", berti::table05_cells, berti::table05),
    fig(
        "ablation_threshold",
        schemes::threshold_cells,
        schemes::threshold,
    ),
    fig(
        "ablation_buffers",
        ablations::buffers_cells,
        ablations::buffers,
    ),
    fig(
        "ablation_wt_size",
        ablations::wt_size_cells,
        ablations::wt_size,
    ),
];

/// What one registry run produced.
pub struct Outcome {
    /// Each figure's output, in the order the figures were given.
    pub outputs: Vec<Table>,
    /// Cells the figures asked for, repeats included.
    pub requested: usize,
    /// The distinct cells, each simulated once.
    pub run: CampaignRun,
}

/// Simulates the union of `figures`' cells, each distinct cell once, on
/// `jobs` workers, then renders every figure from its own cells' results.
pub fn run(figures: &[&Figure], cfg: &CampaignConfig, jobs: usize) -> Outcome {
    let requests: Vec<Vec<Cell>> = figures.iter().map(|f| (f.cells)()).collect();
    let mut index: FastMap<CellKey, usize> = FastMap::default();
    let mut distinct: Vec<(&Cell, &Scheme)> = Vec::new();
    let slots: Vec<Vec<usize>> = requests
        .iter()
        .map(|cells| {
            cells
                .iter()
                .map(|c| {
                    *index.entry(c.key(cfg)).or_insert_with(|| {
                        distinct.push((c, &c.scheme));
                        distinct.len() - 1
                    })
                })
                .collect()
        })
        .collect();
    let run = run_cells(&distinct, cfg, jobs);
    let outputs = figures
        .iter()
        .zip(&requests)
        .zip(&slots)
        .map(|((f, cells), slots)| {
            let results: Vec<WorkloadResult> = cells
                .iter()
                .zip(slots)
                .map(|(c, &i)| WorkloadResult {
                    scheme: c.scheme.label.clone(),
                    ..run.results[i].clone()
                })
                .collect();
            let mut table = Table::new(f.id);
            (f.render)(&results, &mut table);
            table
        })
        .collect();
    Outcome {
        outputs,
        requested: requests.iter().map(Vec::len).sum(),
        run,
    }
}

/// The registry entries named by `args` (all when none is named), in
/// registry order. The `--bench` flag cargo appends is ignored; an unknown
/// id is an error that lists the valid ones.
pub fn select(args: impl IntoIterator<Item = String>) -> Result<Vec<&'static Figure>, String> {
    let ids: Vec<String> = args.into_iter().filter(|a| a != "--bench").collect();
    if let Some(bad) = ids.iter().find(|id| !REGISTRY.iter().any(|f| f.id == *id)) {
        let valid: Vec<&str> = REGISTRY.iter().map(|f| f.id).collect();
        return Err(format!(
            "unknown figure id '{bad}'; valid ids: {}",
            valid.join(" ")
        ));
    }
    Ok(REGISTRY
        .iter()
        .filter(|f| ids.is_empty() || ids.iter().any(|id| id == f.id))
        .collect())
}

/// The `figures` bench: runs the figures `args` select at
/// `PAGECROSS_SCALE` on `PAGECROSS_JOBS` workers and prints them to stdout,
/// with the cell counts, timing and any failed cells on stderr. Returns
/// the exit code: 0, 1 when a cell failed, 2 for an unknown id.
pub fn main(args: impl IntoIterator<Item = String>) -> i32 {
    let figures = match select(args) {
        Ok(figures) => figures,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let out = run(&figures, &env_scale(), env_jobs());
    for table in &out.outputs {
        print!("{}", table.text());
    }
    eprintln!(
        "[figures] {} cells requested, {} simulated",
        out.requested,
        out.run.results.len()
    );
    eprintln!("{}", out.run.timing_line());
    let mut code = 0;
    for r in &out.run.results {
        if let Some(e) = &r.error {
            eprintln!("[figures] cell {} {} failed: {e}", r.workload, r.scheme);
            code = 1;
        }
    }
    code
}
