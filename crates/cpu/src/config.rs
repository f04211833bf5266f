//! Core-model configuration (Table IV core parameters).

/// Which boundary the page-cross policy filters at (§V-B6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum BoundaryMode {
    /// Filter every prefetch that crosses a 4 KB boundary, regardless of
    /// the backing page size — DRIPPER's default, which §V-B6 shows wins.
    #[default]
    Fixed4K,
    /// Filter at the backing page's own boundary: 4 KB pages filter at
    /// 4 KB, 2 MB pages at 2 MB — the `DRIPPER(filter@2MB)` variant, which
    /// for `Permit PGC` reproduces the page-size-aware proposal (the paper’s reference \[89\]).
    PageSizeAware,
}

/// Core timing parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreConfig {
    /// Reorder-buffer entries (352).
    pub rob_size: usize,
    /// Issue width (6).
    pub issue_width: u32,
    /// Extra front-end bubble cycles after a branch misprediction.
    pub mispredict_penalty: u64,
    /// Retired instructions per filter epoch (adaptive thresholding).
    pub epoch_instrs: u64,
    /// Retired instructions between in-epoch spot checks and snapshot
    /// refreshes.
    pub spot_interval: u64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self {
            rob_size: 352,
            issue_width: 6,
            mispredict_penalty: 12,
            epoch_instrs: 2_000,
            spot_interval: 250,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iv_core_defaults() {
        let c = CoreConfig::default();
        assert_eq!(c.rob_size, 352);
        assert_eq!(c.issue_width, 6);
        assert!(c.spot_interval < c.epoch_instrs);
    }

    #[test]
    fn boundary_default_is_4k() {
        assert_eq!(BoundaryMode::default(), BoundaryMode::Fixed4K);
    }
}
