//! Synthetic KV tensors with LLM-like statistics.
//!
//! We cannot run LLaMA here, so quantization quality is evaluated on
//! synthetic key/value tensors that mimic the empirical structure of
//! transformer KV caches: per-channel Gaussian values with heterogeneous
//! channel scales and a small fraction of heavy-tailed outlier channels
//! (the structure KIVI-style quantizers are designed around).

use rand::Rng;
use ts_common::rng::standard_normal;
use ts_common::ModelSpec;

/// Normal draw with the given mean and standard deviation.
fn sample_normal<R: Rng>(rng: &mut R, mean: f64, std: f64) -> f64 {
    mean + std * standard_normal(rng)
}

/// A synthetic `[tokens × channels]` K or V tensor, row-major.
#[derive(Debug, Clone)]
pub struct SyntheticKv {
    /// Number of token rows.
    pub tokens: usize,
    /// Number of channels (kv_heads × head_dim).
    pub channels: usize,
    /// Row-major values.
    pub values: Vec<f32>,
}

impl SyntheticKv {
    /// Value at `(token, channel)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[inline]
    pub fn at(&self, token: usize, channel: usize) -> f32 {
        self.values[token * self.channels + channel]
    }
}

/// Generates a KV tensor for `tokens` tokens of the model's KV width.
///
/// Each channel `c` draws i.i.d. `N(0, s_c)` where `s_c ~ LogNormal(0, 0.5)`;
/// 2% of channels are "outlier" channels with 8× the scale, mirroring the
/// per-channel outlier structure of real caches.
pub fn generate_kv<R: Rng>(model: &ModelSpec, tokens: usize, rng: &mut R) -> SyntheticKv {
    let channels = model.num_kv_heads * model.head_dim();
    let mut channel_scale = Vec::with_capacity(channels);
    for _ in 0..channels {
        let mut s = sample_normal(rng, 0.0, 0.5).exp();
        if rng.gen_bool(0.02) {
            s *= 8.0;
        }
        channel_scale.push(s);
    }
    let mut values = Vec::with_capacity(tokens * channels);
    for _ in 0..tokens {
        for &s in &channel_scale {
            values.push(sample_normal(rng, 0.0, s) as f32);
        }
    }
    SyntheticKv {
        tokens,
        channels,
        values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_common::seeded_rng;

    #[test]
    fn shape_matches_model() {
        let m = ModelSpec::llama_7b();
        let mut rng = seeded_rng(1);
        let kv = generate_kv(&m, 16, &mut rng);
        assert_eq!(kv.tokens, 16);
        assert_eq!(kv.channels, 4096);
        assert_eq!(kv.values.len(), 16 * 4096);
    }

    #[test]
    fn deterministic_given_seed() {
        let m = ModelSpec::llama_7b();
        let a = generate_kv(&m, 4, &mut seeded_rng(7)).values;
        let b = generate_kv(&m, 4, &mut seeded_rng(7)).values;
        assert_eq!(a, b);
    }

    #[test]
    fn has_outlier_structure() {
        let m = ModelSpec::llama_13b();
        let kv = generate_kv(&m, 64, &mut seeded_rng(3));
        // per-channel std spread should be wide (outliers present)
        let mut stds = Vec::new();
        for c in 0..kv.channels {
            let mut sum = 0.0f64;
            let mut sq = 0.0f64;
            for t in 0..kv.tokens {
                let v = kv.at(t, c) as f64;
                sum += v;
                sq += v * v;
            }
            let n = kv.tokens as f64;
            stds.push(((sq - sum * sum / n) / n).sqrt());
        }
        let max = stds.iter().cloned().fold(0.0, f64::max);
        let med = {
            let mut s = stds.clone();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s[s.len() / 2]
        };
        assert!(
            max > 4.0 * med,
            "expected outlier channels: max {max}, median {med}"
        );
    }

    #[test]
    fn values_are_finite() {
        let m = ModelSpec::llama_7b();
        let kv = generate_kv(&m, 8, &mut seeded_rng(11));
        assert!(kv.values.iter().all(|v| v.is_finite()));
    }
}
