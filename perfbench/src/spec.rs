//! The three workloads: which templates run, on which configuration, and
//! how a seed turns a registry template into a trace factory.

use pagecross::cpu::trace::{TraceFactory, TraceSource};
use pagecross::cpu::{OsConfig, PgcPolicyKind, PrefetcherKind, SimulationBuilder, TelemetryConfig};
use pagecross::moka::{dripper, DiscardPgc, PermitPgc, PgcPolicy, TargetPrefetcher};
use pagecross::prefetch::{Berti, Bop, Ipcp, L1dPrefetcher};
use pagecross::workloads::{suite, GenParams, SuiteId, SyntheticTrace};

/// Physical frame placement seed. Fixed, so that `--seed` moves only the
/// generated instruction stream.
pub const FRAME_SEED: u64 = 0xC0FFEE;

/// One benchmark workload.
pub struct Spec {
    pub name: &'static str,
    /// Registry templates, one per core.
    pub templates: &'static [&'static str],
    pub prefetcher: PrefetcherKind,
    pub policy: PgcPolicyKind,
    pub os: Option<OsConfig>,
    pub telemetry: Option<TelemetryConfig>,
    /// Record the single template to `.pct` during set-up and replay it
    /// with the inline decoder.
    pub replay: bool,
    pub warmup: u64,
    pub instructions: u64,
}

pub const WORKLOADS: [&str; 3] = ["gap_dripper", "mix4_os64m", "qmm_replay_permit"];

pub fn spec(name: &str) -> Option<Spec> {
    let s = match name {
        "gap_dripper" => Spec {
            name: "gap_dripper",
            templates: &["gap.s00"],
            prefetcher: PrefetcherKind::Berti,
            policy: PgcPolicyKind::Dripper,
            os: None,
            telemetry: None,
            replay: false,
            warmup: 50_000,
            instructions: 1_000_000,
        },
        "mix4_os64m" => Spec {
            name: "mix4_os64m",
            templates: &["gap.s00", "gap.s01", "gap.s02", "gap.s03"],
            prefetcher: PrefetcherKind::Ipcp,
            policy: PgcPolicyKind::DiscardPgc,
            os: Some(OsConfig {
                phys_mem_bytes: 64 << 20,
                thp: 0.5,
                ..OsConfig::default()
            }),
            telemetry: None,
            replay: false,
            warmup: 50_000,
            instructions: 250_000,
        },
        "qmm_replay_permit" => Spec {
            name: "qmm_replay_permit",
            templates: &["qmm_int.s00"],
            prefetcher: PrefetcherKind::Bop,
            policy: PgcPolicyKind::PermitPgc,
            os: None,
            telemetry: Some(TelemetryConfig {
                interval: 10_000,
                events: true,
                event_capacity: 65_536,
                event_sample: 8,
            }),
            replay: true,
            warmup: 50_000,
            instructions: 1_000_000,
        },
        _ => return None,
    };
    Some(s)
}

impl Spec {
    pub fn cores(&self) -> usize {
        self.templates.len()
    }

    /// The untraced run's builder.
    pub fn builder(&self) -> SimulationBuilder {
        let b = SimulationBuilder::new()
            .prefetcher(self.prefetcher)
            .pgc_policy(self.policy)
            .warmup(self.warmup)
            .instructions(self.instructions)
            .seed(FRAME_SEED);
        match self.os {
            Some(os) => b.os(os),
            None => b,
        }
    }

    /// The traced run's prefetcher: what the builder makes for this kind.
    pub fn make_prefetcher(&self) -> Box<dyn L1dPrefetcher> {
        match self.prefetcher {
            PrefetcherKind::Berti => Box::new(Berti::new(1)),
            PrefetcherKind::Ipcp => Box::new(Ipcp::new(1)),
            PrefetcherKind::Bop => Box::new(Bop::new(1)),
            k => unreachable!("no workload uses prefetcher {k:?}"),
        }
    }

    /// The traced run's page-cross policy: what the builder makes for
    /// this kind.
    pub fn make_policy(&self) -> Box<dyn PgcPolicy> {
        match self.policy {
            PgcPolicyKind::Dripper => Box::new(dripper(match self.prefetcher {
                PrefetcherKind::Berti => TargetPrefetcher::Berti,
                PrefetcherKind::Bop => TargetPrefetcher::Bop,
                _ => TargetPrefetcher::Ipcp,
            })),
            PgcPolicyKind::DiscardPgc => Box::new(DiscardPgc),
            PgcPolicyKind::PermitPgc => Box::new(PermitPgc),
            k => unreachable!("no workload uses policy {k:?}"),
        }
    }

    /// One factory per core: each template with its generator seed
    /// replaced by `seed`. Everything else, the footprint scale included,
    /// stays the registry's.
    pub fn factories(&self, seed: u64) -> Vec<Seeded> {
        self.templates
            .iter()
            .map(|&t| Seeded::new(t, seed))
            .collect()
    }
}

/// A registry template with its generator seed overridden.
pub struct Seeded {
    name: String,
    params: GenParams,
}

impl Seeded {
    fn new(template: &str, seed: u64) -> Self {
        let w = SuiteId::ALL
            .iter()
            .flat_map(|&id| suite(id).workloads())
            .find(|w| w.name() == template)
            .unwrap_or_else(|| panic!("template {template} is not in the registry"));
        let mut params = w.params().clone();
        params.seed = seed;
        Self {
            name: template.to_string(),
            params,
        }
    }
}

impl TraceFactory for Seeded {
    fn name(&self) -> &str {
        &self.name
    }

    fn build(&self) -> Box<dyn TraceSource> {
        Box::new(SyntheticTrace::new(self.params.clone()))
    }
}
