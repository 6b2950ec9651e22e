//! Workload presets.

use crate::distribution::LengthDistribution;

/// A named serving workload: prompt/output length distributions plus a mean
/// Poisson arrival rate.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Human-readable name (`"coding"`, `"conversation"`, ...).
    pub name: String,
    /// Prompt-length distribution.
    pub prompt: LengthDistribution,
    /// Output-length distribution.
    pub output: LengthDistribution,
    /// Mean arrival rate in requests/second.
    pub rate: f64,
}

impl WorkloadSpec {
    /// Creates a custom workload.
    ///
    /// # Panics
    /// Panics if `rate` is not positive and finite.
    pub fn new(
        name: &str,
        prompt: LengthDistribution,
        output: LengthDistribution,
        rate: f64,
    ) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "bad rate {rate}");
        WorkloadSpec {
            name: name.to_owned(),
            prompt,
            output,
            rate,
        }
    }

    /// Returns a copy with a different arrival rate.
    pub fn with_rate(&self, rate: f64) -> Self {
        let mut w = self.clone();
        assert!(rate.is_finite() && rate > 0.0, "bad rate {rate}");
        w.rate = rate;
        w
    }

    /// Ratio of mean prompt tokens to mean output tokens — the statistic the
    /// profiler watches to detect coding↔conversation shifts.
    pub fn prompt_output_ratio(&self) -> f64 {
        self.prompt.mean() / self.output.mean()
    }
}

/// The coding workload of the paper (Appendix E): median prompt >1000
/// tokens, median output 13 tokens — prefill-heavy.
pub fn coding(rate: f64) -> WorkloadSpec {
    WorkloadSpec::new(
        "coding",
        LengthDistribution::lognormal(1400, 0.4, 64, 4096),
        LengthDistribution::lognormal(13, 0.8, 1, 256),
        rate,
    )
}

/// The conversation workload of the paper: median prompt ~1000 tokens,
/// median output 129 tokens — decode-heavy.
pub fn conversation(rate: f64) -> WorkloadSpec {
    WorkloadSpec::new(
        "conversation",
        LengthDistribution::lognormal(1000, 0.5, 32, 4096),
        LengthDistribution::lognormal(129, 0.7, 4, 1024),
        rate,
    )
}

/// A single [`WorkloadSpec`] whose mean prompt/output lengths match a
/// weighted mixture of workloads — what the scheduler plans for when the
/// profiler reports blended traffic (Appendix E: "the overall system
/// workload varies when the proportions of incoming requests for various
/// services change").
///
/// The blend preserves weighted mean lengths and total rate; per-request
/// variance uses the weighted average sigma.
///
/// # Panics
/// Panics if `parts` is empty or any weight is non-positive.
pub fn blend(parts: &[(WorkloadSpec, f64)]) -> WorkloadSpec {
    assert!(!parts.is_empty(), "blend needs at least one component");
    assert!(
        parts.iter().all(|(_, w)| w.is_finite() && *w > 0.0),
        "blend weights must be positive"
    );
    let total_w: f64 = parts.iter().map(|(_, w)| w).sum();
    let mut mean_prompt = 0.0;
    let mut mean_output = 0.0;
    let mut sigma_p = 0.0;
    let mut sigma_o = 0.0;
    let mut rate = 0.0;
    let mut max_p = 0u32;
    let mut max_o = 0u32;
    for (spec, w) in parts {
        let f = w / total_w;
        mean_prompt += f * spec.prompt.mean();
        mean_output += f * spec.output.mean();
        sigma_p += f * spec.prompt.sigma;
        sigma_o += f * spec.output.sigma;
        rate += spec.rate;
        max_p = max_p.max(spec.prompt.max);
        max_o = max_o.max(spec.output.max);
    }
    // median = mean / exp(sigma^2/2) for a lognormal
    let med = |mean: f64, sigma: f64| ((mean / (sigma * sigma / 2.0).exp()).round() as u32).max(1);
    WorkloadSpec::new(
        "blend",
        LengthDistribution::lognormal(med(mean_prompt, sigma_p), sigma_p, 1, max_p),
        LengthDistribution::lognormal(med(mean_output, sigma_o), sigma_o, 1, max_o),
        rate,
    )
}

/// The fixed-shape micro-benchmark workload used by Figures 1/18 and
/// Table 5: constant `prompt_len`/`output_len`.
pub fn fixed(prompt_len: u32, output_len: u32, rate: f64) -> WorkloadSpec {
    WorkloadSpec::new(
        "fixed",
        LengthDistribution::constant(prompt_len),
        LengthDistribution::constant(output_len),
        rate,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coding_is_prefill_heavy_conversation_is_decode_heavy() {
        let c = coding(1.0);
        let v = conversation(1.0);
        assert!(
            c.prompt_output_ratio() > 25.0,
            "{}",
            c.prompt_output_ratio()
        );
        assert!(
            v.prompt_output_ratio() < 10.0,
            "{}",
            v.prompt_output_ratio()
        );
        assert!(c.output.mean() < v.output.mean());
    }

    #[test]
    fn with_rate_only_changes_rate() {
        let c = coding(1.0);
        let c2 = c.with_rate(5.0);
        assert_eq!(c2.prompt, c.prompt);
        assert_eq!(c2.rate, 5.0);
    }

    #[test]
    fn fixed_workload_is_degenerate() {
        let f = fixed(512, 16, 2.0);
        assert_eq!((f.prompt.mean(), f.output.mean()), (512.0, 16.0));
    }

    #[test]
    #[should_panic]
    fn zero_rate_panics() {
        let _ = coding(0.0);
    }

    #[test]
    fn blend_matches_weighted_means() {
        let c = coding(2.0);
        let v = conversation(2.0);
        let b = blend(&[(c.clone(), 1.0), (v.clone(), 1.0)]);
        assert_eq!(b.rate, 4.0);
        let want_prompt = (c.prompt.mean() + v.prompt.mean()) / 2.0;
        let want_output = (c.output.mean() + v.output.mean()) / 2.0;
        assert!(
            (b.prompt.mean() / want_prompt - 1.0).abs() < 0.05,
            "{} vs {want_prompt}",
            b.prompt.mean()
        );
        assert!(
            (b.output.mean() / want_output - 1.0).abs() < 0.05,
            "{} vs {want_output}",
            b.output.mean()
        );
        // blend's ratio sits between the components'
        assert!(b.prompt_output_ratio() < c.prompt_output_ratio());
        assert!(b.prompt_output_ratio() > v.prompt_output_ratio());
    }

    #[test]
    #[should_panic]
    fn blend_rejects_empty() {
        let _ = blend(&[]);
    }
}
