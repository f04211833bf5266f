//! The Page-Cross Filter: MOKA's five hardware components assembled
//! (paper §III-B, Figs. 6 & 7).
//!
//! Prediction (Fig. 6): hash the selected program features into their
//! weight tables, gate the system-feature weights on the current snapshot,
//! sum everything into `w_final`, and compare against the activation
//! threshold `T_a`. Training (Fig. 7): the vUB catches false negatives on
//! L1D demand misses; the pUB rewards PCB blocks that serve demand hits and
//! punishes PCB blocks evicted without serving any.

use crate::buffers::{UpdateBuffer, UpdateEntry};
use crate::features::{FeatureContext, ProgramFeature};
use crate::perceptron::PerceptronBank;
use crate::system_features::{SystemFeature, SystemFeatureBank};
use crate::threshold::{AdaptiveThreshold, ThresholdConfig};
use pagecross_types::{Decision, PrefetchCandidate, SystemSnapshot};

/// Configuration of a Page-Cross Filter instance.
#[derive(Clone, Debug)]
pub struct FilterConfig {
    /// Selected program features (one weight table each).
    pub program_features: Vec<ProgramFeature>,
    /// Selected system features (one gated counter each).
    pub system_features: Vec<SystemFeature>,
    /// Weight-table entries. Table III prints "512" but its 0.625 KB line
    /// item and 1.44 KB total are only consistent with ~1000 5-bit entries,
    /// so the default is 1024.
    pub wt_entries: usize,
    /// Weight width in bits (5 in Table III).
    pub weight_bits: u32,
    /// vUB capacity (4 in Table III).
    pub vub_entries: usize,
    /// pUB capacity (128 in Table III).
    pub pub_entries: usize,
    /// Use the adaptive thresholding scheme; otherwise `static_threshold`.
    pub adaptive: bool,
    /// Activation threshold when `adaptive` is false.
    pub static_threshold: i32,
    /// Adaptive-scheme constants.
    pub threshold_cfg: ThresholdConfig,
}

impl FilterConfig {
    /// Table III defaults with the given feature selection and adaptive
    /// thresholding enabled.
    pub fn with_features(
        program_features: Vec<ProgramFeature>,
        system_features: Vec<SystemFeature>,
    ) -> Self {
        Self {
            program_features,
            system_features,
            wt_entries: 1024,
            weight_bits: 5,
            vub_entries: 4,
            pub_entries: 128,
            adaptive: true,
            static_threshold: 0,
            threshold_cfg: ThresholdConfig::default(),
        }
    }

    /// Storage cost in bits (Table III accounting): weight tables + system
    /// feature counters + vUB/pUB entries at 36 tag + 12 index bits each.
    pub fn storage_bits(&self) -> u64 {
        let wt =
            self.program_features.len() as u64 * self.wt_entries as u64 * self.weight_bits as u64;
        let sf = self.system_features.len() as u64 * self.weight_bits as u64;
        let ub_entry_bits = 36 + 12;
        let ub = (self.vub_entries as u64 + self.pub_entries as u64) * ub_entry_bits;
        wt + sf + ub
    }

    /// Storage cost in (decimal) kilobytes, matching Table III's units.
    pub fn storage_kb(&self) -> f64 {
        self.storage_bits() as f64 / 8.0 / 1000.0
    }
}

/// Aggregate filter statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Page-cross candidates evaluated.
    pub decisions: u64,
    /// Candidates the filter issued.
    pub issued: u64,
    /// Candidates the filter discarded.
    pub discarded: u64,
    /// False negatives caught by the vUB (positive training events).
    pub vub_trainings: u64,
    /// Positive trainings from PCB demand hits.
    pub pub_rewards: u64,
    /// Negative trainings from useless PCB evictions.
    pub pub_punishes: u64,
}

/// A MOKA Page-Cross Filter.
#[derive(Clone, Debug)]
pub struct PageCrossFilter {
    bank: PerceptronBank,
    sf: SystemFeatureBank,
    vub: UpdateBuffer,
    pbuf: UpdateBuffer,
    adaptive: Option<AdaptiveThreshold>,
    static_threshold: i32,
    /// Indices + mask of the most recent Issue decision, waiting for the
    /// physical address callback.
    pending_issue: Option<(Vec<u16>, u8)>,
    /// Statistics.
    pub stats: FilterStats,
    cfg: FilterConfig,
}

impl PageCrossFilter {
    /// Builds a filter from its configuration.
    pub fn new(cfg: FilterConfig) -> Self {
        Self {
            bank: PerceptronBank::new(&cfg.program_features, cfg.wt_entries, cfg.weight_bits),
            sf: SystemFeatureBank::new(&cfg.system_features, cfg.weight_bits),
            vub: UpdateBuffer::new(cfg.vub_entries.max(1)),
            pbuf: UpdateBuffer::new(cfg.pub_entries.max(1)),
            adaptive: cfg
                .adaptive
                .then(|| AdaptiveThreshold::new(cfg.threshold_cfg)),
            static_threshold: cfg.static_threshold,
            pending_issue: None,
            stats: FilterStats::default(),
            cfg,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &FilterConfig {
        &self.cfg
    }

    /// The activation threshold currently in force.
    pub fn threshold(&self) -> i32 {
        self.adaptive
            .as_ref()
            .map_or(self.static_threshold, |a| a.threshold())
    }

    /// Fraction of perceptron weights at a saturating bound (telemetry
    /// signal; 0.0 when no program-feature tables are configured).
    pub fn weight_saturation(&self) -> f64 {
        self.bank.saturation_fraction()
    }

    /// The cumulative weight the filter would compute for this context.
    pub fn weight(&self, ctx: &FeatureContext, snap: &SystemSnapshot) -> i32 {
        self.bank.predict(ctx) + self.sf.predict(self.sf.active_mask(snap))
    }

    /// Decides the fate of a page-cross candidate (Fig. 6). A `Discard`
    /// decision records the candidate in the vUB; an `Issue` decision arms
    /// [`PageCrossFilter::confirm_issue`], which must be called with the
    /// physical line (or [`PageCrossFilter::cancel_issue`] if the prefetch
    /// was dropped as redundant).
    pub fn decide(
        &mut self,
        cand: &PrefetchCandidate,
        ctx: &FeatureContext,
        snap: &SystemSnapshot,
    ) -> Decision {
        self.stats.decisions += 1;
        let indices = self.bank.indices(ctx);
        let mask = self.sf.active_mask(snap);

        let disabled = self.adaptive.as_ref().is_some_and(|a| a.is_disabled());
        let w_final = self.bank.predict_at(&indices) + self.sf.predict(mask);
        let issue = !disabled && w_final > self.threshold();

        if issue {
            self.stats.issued += 1;
            self.pending_issue = Some((indices, mask));
            Decision::Issue
        } else {
            self.stats.discarded += 1;
            self.vub.insert(UpdateEntry {
                line: cand.target.line().raw(),
                indices,
                sf_mask: mask,
            });
            Decision::Discard
        }
    }

    /// Confirms the last `Issue` decision with the fetched physical line,
    /// recording it in the pUB.
    pub fn confirm_issue(&mut self, phys_line: u64) {
        if let Some((indices, sf_mask)) = self.pending_issue.take() {
            self.pbuf.insert(UpdateEntry {
                line: phys_line,
                indices,
                sf_mask,
            });
        }
    }

    /// Cancels the last `Issue` decision (target was redundant).
    pub fn cancel_issue(&mut self) {
        self.pending_issue = None;
    }

    /// L1D demand miss (virtual line): a vUB hit is a false negative —
    /// positive training (Fig. 7, steps ➀–➂).
    pub fn on_l1d_demand_miss(&mut self, virt_line: u64) {
        if let Some(e) = self.vub.take(virt_line) {
            self.stats.vub_trainings += 1;
            self.bank.reward(&e.indices);
            self.sf.reward(e.sf_mask);
        }
    }

    /// First demand hit on a PCB block (physical line): positive training
    /// via the pUB (Fig. 7, steps ➃–➆).
    pub fn on_pcb_first_hit(&mut self, phys_line: u64) {
        if let Some(e) = self.pbuf.take(phys_line) {
            self.stats.pub_rewards += 1;
            self.bank.reward(&e.indices);
            self.sf.reward(e.sf_mask);
        }
    }

    /// Eviction of a PCB block (Fig. 7, steps ➇–⑪): blocks that never
    /// served a hit punish their pUB entry.
    pub fn on_pcb_eviction(&mut self, phys_line: u64, served_hits: bool) {
        if served_hits {
            // Useful block; any remaining pUB entry is stale.
            self.pbuf.take(phys_line);
            return;
        }
        if let Some(e) = self.pbuf.take(phys_line) {
            self.stats.pub_punishes += 1;
            self.bank.punish(&e.indices);
            self.sf.punish(e.sf_mask);
        }
    }

    /// In-epoch spot check of the adaptive scheme.
    pub fn spot_check(&mut self, snap: &SystemSnapshot) {
        if let Some(a) = &mut self.adaptive {
            a.spot_check(snap);
        }
    }

    /// End-of-epoch update: advances the adaptive scheme and decays the
    /// system-feature weights so stale phase evidence fades.
    pub fn end_epoch(&mut self, snap: &SystemSnapshot) {
        if let Some(a) = &mut self.adaptive {
            a.end_epoch(snap);
        }
        self.sf.decay();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagecross_types::VirtAddr;

    fn cand(target: u64) -> PrefetchCandidate {
        PrefetchCandidate {
            pc: 0x400,
            trigger: VirtAddr::new(0x1FC0),
            target: VirtAddr::new(target),
            delta: 1,
            first_page_access: false,
        }
    }

    fn ctx() -> FeatureContext {
        FeatureContext {
            pc: 0x400,
            va: 0x1FC0,
            target_va: 0x2000,
            delta: 1,
            ..Default::default()
        }
    }

    fn filter(static_thr: i32) -> PageCrossFilter {
        let mut cfg = FilterConfig::with_features(
            vec![ProgramFeature::Delta],
            vec![SystemFeature::StlbMpki, SystemFeature::StlbMissRate],
        );
        cfg.adaptive = false;
        cfg.static_threshold = static_thr;
        PageCrossFilter::new(cfg)
    }

    #[test]
    fn fresh_filter_discards_above_zero_threshold() {
        let mut f = filter(0);
        let d = f.decide(&cand(0x2000), &ctx(), &SystemSnapshot::default());
        assert_eq!(d, Decision::Discard, "weight 0 is not > threshold 0");
        assert_eq!(f.stats.discarded, 1);
    }

    #[test]
    fn vub_false_negative_trains_toward_issue() {
        let mut f = filter(0);
        let snap = SystemSnapshot::default();
        // Discard, then the demand miss arrives: false negative. After one
        // round of vUB training the weights (program + gated system
        // features) exceed the threshold.
        let d = f.decide(&cand(0x2000), &ctx(), &snap);
        assert_eq!(d, Decision::Discard, "fresh filter starts conservative");
        f.on_l1d_demand_miss(VirtAddr::new(0x2000).line().raw());
        assert_eq!(f.stats.vub_trainings, 1);
        let d = f.decide(&cand(0x2000), &ctx(), &snap);
        assert_eq!(d, Decision::Issue);
    }

    #[test]
    fn pub_reward_and_punish_cycle() {
        let mut f = filter(-10); // permissive: always issues
        let snap = SystemSnapshot::default();
        let d = f.decide(&cand(0x2000), &ctx(), &snap);
        assert_eq!(d, Decision::Issue);
        f.confirm_issue(0x999);
        f.on_pcb_first_hit(0x999);
        assert_eq!(f.stats.pub_rewards, 1);

        let d = f.decide(&cand(0x2000), &ctx(), &snap);
        assert_eq!(d, Decision::Issue);
        f.confirm_issue(0x999);
        f.on_pcb_eviction(0x999, false);
        assert_eq!(f.stats.pub_punishes, 1);
    }

    #[test]
    fn useful_eviction_does_not_punish() {
        let mut f = filter(-10);
        f.decide(&cand(0x2000), &ctx(), &SystemSnapshot::default());
        f.confirm_issue(0x42);
        f.on_pcb_eviction(0x42, true);
        assert_eq!(f.stats.pub_punishes, 0);
    }

    #[test]
    fn cancel_issue_leaves_pub_empty() {
        let mut f = filter(-10);
        f.decide(&cand(0x2000), &ctx(), &SystemSnapshot::default());
        f.cancel_issue();
        f.on_pcb_eviction(0x0, false);
        assert_eq!(f.stats.pub_punishes, 0, "nothing was recorded");
    }

    #[test]
    fn repeated_useless_issues_learn_to_discard() {
        let mut f = filter(0);
        let snap = SystemSnapshot::default();
        // Bootstrap to issuing via vUB training.
        for _ in 0..4 {
            f.decide(&cand(0x2000), &ctx(), &snap);
            f.on_l1d_demand_miss(VirtAddr::new(0x2000).line().raw());
        }
        assert_eq!(f.decide(&cand(0x2000), &ctx(), &snap), Decision::Issue);
        f.confirm_issue(0x1);
        // Now the prefetches turn out useless.
        let mut flips = 0;
        for i in 0..20u64 {
            f.on_pcb_eviction(i, false);
            let d = f.decide(&cand(0x2000), &ctx(), &snap);
            if d == Decision::Discard {
                flips += 1;
                break;
            }
            f.confirm_issue(i + 1);
        }
        assert!(
            flips > 0,
            "negative training must eventually flip the decision"
        );
    }

    #[test]
    fn system_features_contribute_when_gated() {
        let mut cfg = FilterConfig::with_features(vec![], vec![SystemFeature::StlbMissRate]);
        cfg.adaptive = false;
        cfg.static_threshold = 0;
        let mut f = PageCrossFilter::new(cfg);
        // High sTLB miss rate activates the feature.
        let hot = SystemSnapshot {
            stlb_miss_rate: 0.5,
            ..Default::default()
        };
        // Train it positive once via the vUB.
        assert_eq!(f.decide(&cand(0x2000), &ctx(), &hot), Decision::Discard);
        f.on_l1d_demand_miss(VirtAddr::new(0x2000).line().raw());
        assert_eq!(f.decide(&cand(0x2000), &ctx(), &hot), Decision::Issue);
        // Same candidate under a cold snapshot: feature gated off -> weight 0.
        let cold = SystemSnapshot::default();
        assert_eq!(f.decide(&cand(0x2000), &ctx(), &cold), Decision::Discard);
    }

    #[test]
    fn adaptive_disable_discards_everything() {
        let cfg = FilterConfig::with_features(vec![ProgramFeature::Delta], vec![]);
        let mut f = PageCrossFilter::new(cfg);
        let extreme = SystemSnapshot {
            llc_miss_rate: 0.99,
            llc_mpki: 80.0,
            pgc_useful: 1,
            pgc_useless: 20,
            ..Default::default()
        };
        f.spot_check(&extreme);
        // Even a heavily-trained candidate is discarded while disabled.
        let snap = SystemSnapshot::default();
        for _ in 0..10 {
            f.decide(&cand(0x2000), &ctx(), &snap);
            f.on_l1d_demand_miss(VirtAddr::new(0x2000).line().raw());
        }
        assert_eq!(f.decide(&cand(0x2000), &ctx(), &snap), Decision::Discard);
        // Epoch boundary lifts the disable; training done via the vUB while
        // disabled lets it resume issuing ("activated again thanks to vUB").
        f.end_epoch(&snap);
        assert_eq!(f.decide(&cand(0x2000), &ctx(), &snap), Decision::Issue);
    }

    #[test]
    fn table_iii_storage_budget() {
        let cfg = FilterConfig::with_features(
            vec![ProgramFeature::Delta],
            vec![SystemFeature::StlbMpki, SystemFeature::StlbMissRate],
        );
        let kb = cfg.storage_kb();
        assert!(
            (kb - 1.44).abs() < 0.05,
            "DRIPPER storage should be ~1.44KB, got {kb:.3}"
        );
    }
}
