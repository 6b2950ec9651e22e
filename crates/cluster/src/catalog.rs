//! The GPU catalog: Table 1 of the paper.

use std::fmt;

const GIB: u64 = 1 << 30;

/// How an instance is billed.
///
/// On-demand capacity is held until released and billed at the catalog rate
/// ([`GpuSpec::price_per_hour`]); spot capacity is billed at a steep
/// discount ([`GpuModel::spot_price_per_hour`]) but can be reclaimed by the
/// provider with little warning (a `preemption-warning` availability event
/// followed by a `scale-down`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PricingTier {
    /// Provider-guaranteed capacity at the full catalog rate.
    OnDemand,
    /// Preemptible capacity at the discounted spot rate.
    Spot,
}

impl fmt::Display for PricingTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PricingTier::OnDemand => f.write_str("on-demand"),
            PricingTier::Spot => f.write_str("spot"),
        }
    }
}

/// The GPU models used in the paper's evaluation (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GpuModel {
    /// NVIDIA A100-80GB (the in-house baseline GPU).
    A100,
    /// NVIDIA RTX A6000 48GB.
    A6000,
    /// NVIDIA RTX A5000 24GB.
    A5000,
    /// NVIDIA A40 48GB — high FP16 throughput, favoured for prefill.
    A40,
    /// NVIDIA GeForce RTX 3090 Ti 24GB — high memory bandwidth, favoured for
    /// decode.
    Rtx3090Ti,
}

impl GpuModel {
    /// All catalog entries, in Table 1 order.
    pub const ALL: [GpuModel; 5] = [
        GpuModel::A100,
        GpuModel::A6000,
        GpuModel::A5000,
        GpuModel::A40,
        GpuModel::Rtx3090Ti,
    ];

    /// Hardware specification for this model (Table 1).
    pub const fn spec(self) -> GpuSpec {
        match self {
            GpuModel::A100 => GpuSpec {
                model: self,
                mem_bandwidth: 2_000e9,
                peak_fp16_flops: 312e12,
                memory_bytes: 80 * GIB,
                price_per_hour: 1.753,
            },
            GpuModel::A6000 => GpuSpec {
                model: self,
                mem_bandwidth: 768e9,
                peak_fp16_flops: 38.7e12,
                memory_bytes: 48 * GIB,
                price_per_hour: 0.483,
            },
            GpuModel::A5000 => GpuSpec {
                model: self,
                mem_bandwidth: 626.8e9,
                peak_fp16_flops: 27.8e12,
                memory_bytes: 24 * GIB,
                price_per_hour: 0.223,
            },
            GpuModel::A40 => GpuSpec {
                model: self,
                mem_bandwidth: 696e9,
                peak_fp16_flops: 149.7e12,
                memory_bytes: 48 * GIB,
                price_per_hour: 0.403,
            },
            GpuModel::Rtx3090Ti => GpuSpec {
                model: self,
                mem_bandwidth: 1_008e9,
                peak_fp16_flops: 40e12,
                memory_bytes: 24 * GIB,
                price_per_hour: 0.307,
            },
        }
    }

    /// Spot-market rental price in USD per GPU-hour.
    ///
    /// Roughly 40% of the on-demand rate, matching the discount the paper's
    /// cloud provider advertises for preemptible capacity. The trade-off is
    /// reclamation risk: spot instances receive a `preemption-warning`
    /// availability event and are pulled shortly after.
    pub const fn spot_price_per_hour(self) -> f64 {
        match self {
            GpuModel::A100 => 0.701,
            GpuModel::A6000 => 0.193,
            GpuModel::A5000 => 0.089,
            GpuModel::A40 => 0.161,
            GpuModel::Rtx3090Ti => 0.123,
        }
    }

    /// Rental price in USD per GPU-hour at the given billing tier.
    pub const fn price_per_hour(self, tier: PricingTier) -> f64 {
        match tier {
            PricingTier::OnDemand => self.spec().price_per_hour,
            PricingTier::Spot => self.spot_price_per_hour(),
        }
    }

    /// Short display name matching the paper's tables.
    pub const fn short_name(self) -> &'static str {
        match self {
            GpuModel::A100 => "A100",
            GpuModel::A6000 => "A6000",
            GpuModel::A5000 => "A5000",
            GpuModel::A40 => "A40",
            GpuModel::Rtx3090Ti => "3090Ti",
        }
    }
}

impl fmt::Display for GpuModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Hardware specification of one GPU model.
///
/// ```
/// use ts_cluster::GpuModel;
/// let a40 = GpuModel::A40.spec();
/// let ti = GpuModel::Rtx3090Ti.spec();
/// // A40 has more compute; 3090Ti has more memory bandwidth (Fig. 1's point)
/// assert!(a40.peak_fp16_flops > ti.peak_fp16_flops);
/// assert!(ti.mem_bandwidth > a40.mem_bandwidth);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// The catalog model.
    pub model: GpuModel,
    /// Device memory access bandwidth in bytes/second.
    pub mem_bandwidth: f64,
    /// Peak FP16 throughput in FLOP/second.
    pub peak_fp16_flops: f64,
    /// Device memory capacity in bytes.
    pub memory_bytes: u64,
    /// Rental price in USD per GPU-hour.
    pub price_per_hour: f64,
}

impl GpuSpec {
    /// Ratio of compute to memory bandwidth (FLOPs per byte at the roofline
    /// ridge). Higher values favour the compute-bound prefill phase.
    pub fn compute_intensity(&self) -> f64 {
        self.peak_fp16_flops / self.mem_bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let a100 = GpuModel::A100.spec();
        assert_eq!(a100.memory_bytes, 80 * GIB);
        assert!((a100.price_per_hour - 1.753).abs() < 1e-9);
        let a5000 = GpuModel::A5000.spec();
        assert!((a5000.mem_bandwidth - 626.8e9).abs() < 1.0);
        assert!((a5000.peak_fp16_flops - 27.8e12).abs() < 1.0);
    }

    #[test]
    fn a40_is_prefill_friendly_3090ti_is_decode_friendly() {
        // The motivating observation (Fig. 1): A40 has ~3.7x the FLOPS of the
        // 3090Ti while the 3090Ti has ~1.45x the bandwidth of the A40.
        let a40 = GpuModel::A40.spec();
        let ti = GpuModel::Rtx3090Ti.spec();
        assert!(a40.compute_intensity() > 4.0 * ti.compute_intensity());
    }

    #[test]
    fn all_lists_every_model_once() {
        let mut names: Vec<_> = GpuModel::ALL.iter().map(|m| m.short_name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn spot_prices_discount_every_model() {
        for m in GpuModel::ALL {
            let od = m.price_per_hour(PricingTier::OnDemand);
            let spot = m.price_per_hour(PricingTier::Spot);
            assert_eq!(od, m.spec().price_per_hour);
            assert_eq!(spot, m.spot_price_per_hour());
            assert!(spot > 0.0, "{m}: spot price must be positive");
            let discount = spot / od;
            assert!(
                (0.3..=0.5).contains(&discount),
                "{m}: spot should be a steep discount, got {discount:.2}x"
            );
        }
    }

    #[test]
    fn specs_are_physically_sane() {
        for m in GpuModel::ALL {
            let s = m.spec();
            assert!(s.mem_bandwidth > 100e9);
            assert!(s.peak_fp16_flops > 1e12);
            assert!(s.memory_bytes >= 24 * GIB);
            assert!(s.price_per_hour > 0.0);
        }
    }
}
