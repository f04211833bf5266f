//! MOKA's bouquet of program features (paper §III-D1, Table I).
//!
//! A *program feature* is a deterministic function of the triggering load's
//! context — PC, virtual address, the delta the prefetcher applied, short
//! PC/VA/delta histories, and the first-page-access flag — that indexes a
//! perceptron weight table. The framework ships **55** features (the paper:
//! "In total, MOKA contains 55 program features crafted using our expertise
//! as well as prior work in domain"); Table I lists the best-performing
//! subset, all of which are implemented here verbatim, plus the extended
//! shift/xor combinations that fill out the bouquet.
//!
//! Features are prefetcher-*independent*: nothing here peeks at prefetcher
//! metadata, which is what lets one filter design serve Berti, IPCP and BOP.

/// The context a feature is evaluated against.
///
/// Histories are most-recent-first: index 0 is the current access `i`,
/// index 1 is `i-1`, index 2 is `i-2`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FeatureContext {
    /// PC of the triggering load.
    pub pc: u64,
    /// Virtual address of the triggering load.
    pub va: u64,
    /// Virtual address of the prefetch target.
    pub target_va: u64,
    /// Signed line delta the prefetcher applied.
    pub delta: i64,
    /// The triggering access was the first touch to its 4 KB page.
    pub first_page_access: bool,
    /// Last three access VAs (current first).
    pub va_hist: [u64; 3],
    /// Last three access PCs (current first).
    pub pc_hist: [u64; 3],
    /// Last three observed line deltas (current first).
    pub delta_hist: [i64; 3],
}

/// One program feature from the bouquet.
///
/// Shift-parameterised variants take the shift amount in bits; the bouquet
/// instantiates them at 6 (line), 12 (4 KB page) and 21 (2 MB page).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProgramFeature {
    /// Constant bias input.
    Bias,
    /// Raw virtual address (line granularity).
    Va,
    /// Virtual address shifted right by `n`.
    VaShift(u8),
    /// Cache-line offset within the 4 KB page.
    CacheLineOffset,
    /// Program counter.
    Pc,
    /// PC shifted right by `n`.
    PcShift(u8),
    /// PC + cache-line offset.
    PcPlusOffset,
    /// PC ⊕ cache-line offset.
    PcXorOffset,
    /// The prefetcher's delta.
    Delta,
    /// Delta + first-page-access flag.
    DeltaPlusFirstAccess,
    /// VAᵢ₋₂ ⊕ VAᵢ₋₁ ⊕ VAᵢ.
    VaHistXor,
    /// (VAᵢ₋₂ ≫ 12) ⊕ (VAᵢ₋₁ ≫ 12) ⊕ (VAᵢ ≫ 12).
    VaPageHistXor,
    /// PCᵢ₋₂ ⊕ PCᵢ₋₁ ⊕ PCᵢ.
    PcHistXor,
    /// PC ⊕ VA.
    PcXorVa,
    /// PC ⊕ (VA ≫ n).
    PcXorVaShift(u8),
    /// VA ⊕ Delta.
    VaXorDelta,
    /// PC ⊕ Delta — DRIPPER's program feature for BOP and IPCP (Table II).
    PcXorDelta,
    /// (VA ≫ n) ⊕ Delta.
    VaShiftXorDelta(u8),
    /// PC ⊕ FirstPageAccess.
    PcXorFirstAccess,
    /// VA ⊕ FirstPageAccess.
    VaXorFirstAccess,
    /// (VA ≫ n) ⊕ FirstPageAccess.
    VaShiftXorFirstAccess(u8),
    /// CacheLineOffset + FirstPageAccess.
    OffsetPlusFirstAccess,
    /// PC + Delta.
    PcPlusDelta,
    /// VA + Delta (the target line, expressed additively).
    VaPlusDelta,
    /// PC ⊕ VA ⊕ Delta.
    PcXorVaXorDelta,
    /// Δᵢ₋₂ ⊕ Δᵢ₋₁ ⊕ Δᵢ.
    DeltaHistXor,
    /// PC ⊕ (Δᵢ₋₁ ⊕ Δᵢ).
    PcXorDeltaHist,
    /// Signed page distance the prefetch travels (target page − trigger page).
    PageDistance,
    /// PC ⊕ page distance.
    PcXorPageDistance,
    /// Target VA shifted right by `n`.
    TargetVaShift(u8),
    /// Cache-line offset of the target within its page.
    TargetOffset,
    /// PC ⊕ target offset.
    PcXorTargetOffset,
    /// Offset ⊕ Delta.
    OffsetXorDelta,
    /// Sign of the delta (direction feature).
    DeltaSign,
    /// |Delta| bucketed by powers of two.
    DeltaMagnitude,
    /// PC rotated ⊕ VA (decorrelated variant of PC ⊕ VA).
    PcRotXorVa,
    /// (VAᵢ₋₁ ⊕ VAᵢ) ⊕ Delta.
    VaHistXorDelta,
}

const SHIFTS: [u8; 3] = [6, 12, 21];

impl ProgramFeature {
    /// The complete 55-feature bouquet.
    pub fn bouquet() -> Vec<ProgramFeature> {
        use ProgramFeature::*;
        let mut v = vec![
            Bias,
            Va,
            CacheLineOffset,
            Pc,
            PcPlusOffset,
            PcXorOffset,
            Delta,
            DeltaPlusFirstAccess,
            VaHistXor,
            VaPageHistXor,
            PcHistXor,
            PcXorVa,
            VaXorDelta,
            PcXorDelta,
            PcXorFirstAccess,
            VaXorFirstAccess,
            OffsetPlusFirstAccess,
            PcPlusDelta,
            VaPlusDelta,
            PcXorVaXorDelta,
            DeltaHistXor,
            PcXorDeltaHist,
            PageDistance,
            PcXorPageDistance,
            TargetOffset,
            PcXorTargetOffset,
            OffsetXorDelta,
            DeltaSign,
            DeltaMagnitude,
            PcRotXorVa,
            VaHistXorDelta,
        ];
        for s in SHIFTS {
            v.push(VaShift(s));
            v.push(PcShift(s));
            v.push(PcXorVaShift(s));
            v.push(VaShiftXorDelta(s));
            v.push(VaShiftXorFirstAccess(s));
            v.push(TargetVaShift(s));
        }
        // 31 + 6*3 = 49; six more high-shift page-granularity variants.
        v.push(VaShift(30));
        v.push(PcXorVaShift(30));
        v.push(VaShiftXorDelta(30));
        v.push(TargetVaShift(30));
        v.push(PcShift(30));
        v.push(VaShiftXorFirstAccess(30));
        v
    }

    /// Evaluates the feature to a raw 64-bit value (pre-hash).
    pub fn value(self, ctx: &FeatureContext) -> u64 {
        use ProgramFeature::*;
        let line = ctx.va >> 6;
        let offset = (ctx.va >> 6) & 0x3F;
        let delta = ctx.delta as u64;
        let fpa = ctx.first_page_access as u64;
        match self {
            Bias => 0,
            Va => line,
            VaShift(n) => ctx.va >> n,
            CacheLineOffset => offset,
            Pc => ctx.pc,
            PcShift(n) => ctx.pc >> n,
            PcPlusOffset => ctx.pc.wrapping_add(offset),
            PcXorOffset => ctx.pc ^ offset,
            Delta => delta,
            DeltaPlusFirstAccess => delta.wrapping_add(fpa),
            VaHistXor => (ctx.va_hist[2] >> 6) ^ (ctx.va_hist[1] >> 6) ^ line,
            VaPageHistXor => (ctx.va_hist[2] >> 12) ^ (ctx.va_hist[1] >> 12) ^ (ctx.va >> 12),
            PcHistXor => ctx.pc_hist[2] ^ ctx.pc_hist[1] ^ ctx.pc,
            PcXorVa => ctx.pc ^ line,
            PcXorVaShift(n) => ctx.pc ^ (ctx.va >> n),
            VaXorDelta => line ^ delta,
            PcXorDelta => ctx.pc ^ delta,
            VaShiftXorDelta(n) => (ctx.va >> n) ^ delta,
            PcXorFirstAccess => ctx.pc ^ fpa,
            VaXorFirstAccess => line ^ fpa,
            VaShiftXorFirstAccess(n) => (ctx.va >> n) ^ fpa,
            OffsetPlusFirstAccess => offset + fpa,
            PcPlusDelta => ctx.pc.wrapping_add(delta),
            VaPlusDelta => line.wrapping_add(delta),
            PcXorVaXorDelta => ctx.pc ^ line ^ delta,
            DeltaHistXor => (ctx.delta_hist[2] as u64) ^ (ctx.delta_hist[1] as u64) ^ delta,
            PcXorDeltaHist => ctx.pc ^ (ctx.delta_hist[1] as u64) ^ delta,
            PageDistance => ((ctx.target_va >> 12) as i64 - (ctx.va >> 12) as i64) as u64,
            PcXorPageDistance => {
                ctx.pc ^ (((ctx.target_va >> 12) as i64 - (ctx.va >> 12) as i64) as u64)
            }
            TargetVaShift(n) => ctx.target_va >> n,
            TargetOffset => (ctx.target_va >> 6) & 0x3F,
            PcXorTargetOffset => ctx.pc ^ ((ctx.target_va >> 6) & 0x3F),
            OffsetXorDelta => offset ^ delta,
            DeltaSign => (ctx.delta < 0) as u64,
            DeltaMagnitude => 63 - (ctx.delta.unsigned_abs().max(1)).leading_zeros() as u64,
            PcRotXorVa => ctx.pc.rotate_left(17) ^ line,
            VaHistXorDelta => ((ctx.va_hist[1] >> 6) ^ line) ^ delta,
        }
    }

    /// Hashes the feature value into a weight-table index in `[0, entries)`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `entries` is not a power of two.
    pub fn index(self, ctx: &FeatureContext, entries: usize) -> usize {
        debug_assert!(
            entries.is_power_of_two(),
            "weight tables are power-of-two sized"
        );
        (mix64(self.value(ctx)) & (entries as u64 - 1)) as usize
    }

    /// A short stable label for reports.
    pub fn label(self) -> String {
        format!("{self:?}")
    }
}

/// SplitMix64 finaliser: a cheap, well-distributed hash.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> FeatureContext {
        FeatureContext {
            pc: 0x0040_1230,
            va: 0x7FFF_1234_5678,
            target_va: 0x7FFF_1234_6000,
            delta: 38,
            first_page_access: true,
            va_hist: [0x7FFF_1234_5678, 0x7FFF_1234_5638, 0x7FFF_1234_55F8],
            pc_hist: [0x0040_1230, 0x0040_1228, 0x0040_1220],
            delta_hist: [38, 1, 1],
        }
    }

    #[test]
    fn bouquet_has_55_features() {
        let b = ProgramFeature::bouquet();
        assert_eq!(b.len(), 55, "the paper's bouquet size");
        // All distinct.
        let set: pagecross_types::FastSet<_> = b.iter().collect();
        assert_eq!(set.len(), 55);
    }

    #[test]
    fn table_i_features_present() {
        use ProgramFeature::*;
        let b = ProgramFeature::bouquet();
        for f in [
            Va,
            VaShift(12),
            VaShift(21),
            CacheLineOffset,
            Pc,
            PcPlusOffset,
            VaHistXor,
            VaPageHistXor,
            PcHistXor,
            PcXorVa,
            PcXorVaShift(12),
            VaXorDelta,
            PcXorDelta,
            VaShiftXorDelta(12),
            PcXorFirstAccess,
            VaXorFirstAccess,
            VaShiftXorFirstAccess(12),
            OffsetPlusFirstAccess,
            DeltaPlusFirstAccess,
            Delta, // Table II (DRIPPER for Berti)
        ] {
            assert!(
                b.contains(&f),
                "Table I/II feature {f:?} missing from bouquet"
            );
        }
    }

    #[test]
    fn values_are_deterministic() {
        let c = ctx();
        for f in ProgramFeature::bouquet() {
            assert_eq!(f.value(&c), f.value(&c));
        }
    }

    #[test]
    fn delta_sensitivity() {
        let mut a = ctx();
        let mut b = ctx();
        a.delta = 1;
        b.delta = -1;
        assert_ne!(
            ProgramFeature::Delta.value(&a),
            ProgramFeature::Delta.value(&b)
        );
        assert_ne!(
            ProgramFeature::PcXorDelta.value(&a),
            ProgramFeature::PcXorDelta.value(&b)
        );
        assert_ne!(
            ProgramFeature::DeltaSign.value(&a),
            ProgramFeature::DeltaSign.value(&b)
        );
    }

    #[test]
    fn page_distance_signed() {
        let mut c = ctx();
        c.va = 0x5000;
        c.target_va = 0x4000; // backward cross
        assert_eq!(ProgramFeature::PageDistance.value(&c), (-1i64) as u64);
    }

    #[test]
    fn index_in_range() {
        let c = ctx();
        for f in ProgramFeature::bouquet() {
            let i = f.index(&c, 512);
            assert!(i < 512);
        }
    }

    #[test]
    fn hash_spreads_adjacent_values() {
        // Adjacent deltas should not collide into the same 512-entry slot
        // systematically.
        let mut collisions = 0;
        for d in 0..64i64 {
            let mut a = ctx();
            a.delta = d;
            let mut b = ctx();
            b.delta = d + 1;
            if ProgramFeature::Delta.index(&a, 512) == ProgramFeature::Delta.index(&b, 512) {
                collisions += 1;
            }
        }
        assert!(
            collisions < 8,
            "hash should separate adjacent deltas, got {collisions}"
        );
    }

    #[test]
    fn delta_magnitude_buckets() {
        let mut c = ctx();
        c.delta = 1;
        assert_eq!(ProgramFeature::DeltaMagnitude.value(&c), 0);
        c.delta = -8;
        assert_eq!(ProgramFeature::DeltaMagnitude.value(&c), 3);
        c.delta = 100;
        assert_eq!(ProgramFeature::DeltaMagnitude.value(&c), 6);
    }

    #[test]
    fn first_page_access_flag_matters() {
        let mut a = ctx();
        let mut b = ctx();
        a.first_page_access = true;
        b.first_page_access = false;
        assert_ne!(
            ProgramFeature::VaXorFirstAccess.value(&a),
            ProgramFeature::VaXorFirstAccess.value(&b)
        );
    }

    #[test]
    fn labels_nonempty_and_unique_enough() {
        let b = ProgramFeature::bouquet();
        let labels: pagecross_types::FastSet<String> = b.iter().map(|f| f.label()).collect();
        assert_eq!(labels.len(), b.len());
    }
}
