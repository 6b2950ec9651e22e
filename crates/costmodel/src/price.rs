//! Dollars-per-request accounting (Figure 1 of the paper).
//!
//! For a single request on a single GPU, the prefill price is the prefill
//! execution time valued at the GPU's hourly rate, and the decode price is
//! the summed per-step decode time valued likewise. Figure 1 shows that the
//! A40 (compute-rich) prefills a 512/16 request more cheaply while the
//! 3090Ti (bandwidth-rich) decodes it more cheaply — the observation that
//! motivates heterogeneous phase designation.

use crate::roofline::{decode_step_time, prefill_time, StageHardware};
use crate::ModelParams;
use ts_cluster::GpuSpec;
use ts_common::{ModelSpec, SimDuration};

/// Prefill / decode cost split for one request on one GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestPrice {
    /// Prefill time.
    pub prefill_time: SimDuration,
    /// Total decode time across all steps.
    pub decode_time: SimDuration,
    /// Prefill cost in USD.
    pub prefill: f64,
    /// Decode cost in USD.
    pub decode: f64,
}

impl RequestPrice {
    /// Total cost of the request in USD.
    pub fn total(&self) -> f64 {
        self.prefill + self.decode
    }
}

/// Computes the price of serving one request with `prompt_len` input tokens
/// and `output_len` generated tokens on a single GPU of the given spec.
pub fn request_price(
    model: &ModelSpec,
    gpu: GpuSpec,
    prompt_len: u64,
    output_len: u64,
    params: &ModelParams,
) -> RequestPrice {
    let hw = StageHardware::single(gpu);
    let pf = prefill_time(model, model.num_layers, &hw, prompt_len, prompt_len, params);
    let mut dec = SimDuration::ZERO;
    // Each decode step attends over a growing context.
    for step in 1..output_len {
        let ctx = prompt_len + step;
        dec += decode_step_time(model, model.num_layers, &hw, 1, ctx, params);
    }
    let rate = gpu.price_per_hour / 3600.0;
    RequestPrice {
        prefill_time: pf,
        decode_time: dec,
        prefill: pf.as_secs_f64() * rate,
        decode: dec.as_secs_f64() * rate,
    }
}

/// Cost-efficiency of a full serving run: USD per 1000 generated tokens,
/// given the hourly price of the hardware and the measured token throughput.
/// This is the quantity the paper's cost-efficiency argument is about.
///
/// # Panics
/// Panics if either argument is non-positive.
pub fn dollars_per_kilo_token(price_per_hour: f64, tokens_per_sec: f64) -> f64 {
    assert!(price_per_hour > 0.0, "price must be positive");
    assert!(tokens_per_sec > 0.0, "throughput must be positive");
    let tokens_per_hour = tokens_per_sec * 3600.0;
    price_per_hour / tokens_per_hour * 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_cluster::GpuModel;

    #[test]
    fn figure1_shape_holds() {
        // Fig. 1: for a 512/16 request, A40 prefill is cheaper than 3090Ti
        // prefill, and 3090Ti decode is cheaper than A40 decode.
        let m = ModelSpec::llama_7b();
        let p = ModelParams::default();
        let a40 = request_price(&m, GpuModel::A40.spec(), 512, 16, &p);
        let ti = request_price(&m, GpuModel::Rtx3090Ti.spec(), 512, 16, &p);
        assert!(a40.prefill < ti.prefill, "A40 should prefill cheaper");
        assert!(ti.decode < a40.decode, "3090Ti should decode cheaper");
    }

    #[test]
    fn decode_dominates_long_outputs() {
        let m = ModelSpec::llama_7b();
        let p = ModelParams::default();
        let long = request_price(&m, GpuModel::A5000.spec(), 128, 512, &p);
        assert!(long.decode > 10.0 * long.prefill);
    }

    #[test]
    fn prices_are_positive_and_total_adds_up() {
        let m = ModelSpec::llama_13b();
        let p = ModelParams::default();
        let r = request_price(&m, GpuModel::A6000.spec(), 512, 64, &p);
        assert!(r.prefill > 0.0 && r.decode > 0.0);
        assert!((r.total() - (r.prefill + r.decode)).abs() < 1e-15);
    }

    #[test]
    fn dollars_per_kilo_token_math() {
        // $3.6/hr at 1000 tok/s -> 3.6e6 tokens/hr -> $0.001 per 1k tokens
        let v = dollars_per_kilo_token(3.6, 1000.0);
        assert!((v - 0.001).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn zero_throughput_panics() {
        let _ = dollars_per_kilo_token(1.0, 0.0);
    }

    #[test]
    fn single_output_token_has_zero_decode() {
        let m = ModelSpec::llama_7b();
        let p = ModelParams::default();
        let r = request_price(&m, GpuModel::A40.spec(), 512, 1, &p);
        assert_eq!(r.decode, 0.0);
    }
}
