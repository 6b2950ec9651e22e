//! Batching-effect curves (Figure 2 of the paper).
//!
//! Figure 2 plots GPU efficiency (tokens/second) against batched token count
//! for the two phases: prefill saturates once a batch exceeds ~1k tokens,
//! while decode throughput keeps climbing with batch size. These generators
//! reproduce those curves from the roofline model so the bench harness can
//! print the same series.

use crate::roofline::{decode_step_time, prefill_time, StageHardware};
use crate::ModelParams;
use ts_cluster::GpuSpec;
use ts_common::ModelSpec;

/// One point of a batching curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPoint {
    /// Batch size: total tokens for prefill, sequences for decode.
    pub batch: u64,
    /// Throughput in tokens/second.
    pub tokens_per_sec: f64,
}

/// Prefill throughput (tokens/s) versus total batched tokens, for prompts of
/// `seq_len` tokens each (Figure 2 uses 1024).
pub fn prefill_curve(
    model: &ModelSpec,
    gpu: GpuSpec,
    seq_len: u64,
    batch_tokens: &[u64],
    params: &ModelParams,
) -> Vec<BatchPoint> {
    let hw = StageHardware::single(gpu);
    batch_tokens
        .iter()
        .map(|&bt| {
            let t = prefill_time(model, model.num_layers, &hw, bt, seq_len, params);
            BatchPoint {
                batch: bt,
                tokens_per_sec: bt as f64 / t.as_secs_f64(),
            }
        })
        .collect()
}

/// Decode throughput (tokens/s) versus batch size at context `seq_len`.
pub fn decode_curve(
    model: &ModelSpec,
    gpu: GpuSpec,
    seq_len: u64,
    batch_sizes: &[u64],
    params: &ModelParams,
) -> Vec<BatchPoint> {
    let hw = StageHardware::single(gpu);
    batch_sizes
        .iter()
        .map(|&b| {
            let t = decode_step_time(model, model.num_layers, &hw, b, seq_len, params);
            BatchPoint {
                batch: b,
                tokens_per_sec: b as f64 / t.as_secs_f64(),
            }
        })
        .collect()
}

/// The batched-token size beyond which prefill throughput improves by less
/// than `epsilon` (relative) per doubling — the "saturation point" that the
/// paper pegs at ~1024 tokens.
pub fn prefill_saturation_point(
    model: &ModelSpec,
    gpu: GpuSpec,
    seq_len: u64,
    epsilon: f64,
    params: &ModelParams,
) -> u64 {
    let sizes: Vec<u64> = (5..=15).map(|e| 1u64 << e).collect(); // 32..32768
    let curve = prefill_curve(model, gpu, seq_len, &sizes, params);
    for w in curve.windows(2) {
        let gain = w[1].tokens_per_sec / w[0].tokens_per_sec - 1.0;
        if gain < epsilon {
            return w[0].batch;
        }
    }
    *sizes.last().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_cluster::GpuModel;

    #[test]
    fn prefill_saturates_decode_does_not() {
        // The qualitative content of Figure 2.
        let m = ModelSpec::llama_7b();
        let p = ModelParams::default();
        let gpu = GpuModel::A5000.spec();

        let pf = prefill_curve(&m, gpu, 1024, &[128, 512, 1024, 4096, 16384], &p);
        let early_gain = pf[1].tokens_per_sec / pf[0].tokens_per_sec;
        let late_gain = pf[4].tokens_per_sec / pf[3].tokens_per_sec;
        assert!(early_gain > 1.5, "prefill should gain early: {early_gain}");
        assert!(late_gain < 1.15, "prefill should plateau late: {late_gain}");

        let dc = decode_curve(&m, gpu, 1024, &[1, 4, 16, 64, 128], &p);
        assert!(
            dc[4].tokens_per_sec > 10.0 * dc[0].tokens_per_sec,
            "decode should keep gaining from batching"
        );
    }

    #[test]
    fn saturation_point_near_1k_tokens() {
        let m = ModelSpec::llama_7b();
        let p = ModelParams::default();
        let sat = prefill_saturation_point(&m, GpuModel::A5000.spec(), 1024, 0.10, &p);
        assert!(
            (256..=4096).contains(&sat),
            "saturation at {sat}, expected near 1024"
        );
    }

    #[test]
    fn curves_are_monotone_in_throughput() {
        let m = ModelSpec::llama_7b();
        let p = ModelParams::default();
        let dc = decode_curve(&m, GpuModel::A40.spec(), 512, &[1, 2, 4, 8, 16, 32], &p);
        for w in dc.windows(2) {
            assert!(w[1].tokens_per_sec >= w[0].tokens_per_sec * 0.99);
        }
    }
}
