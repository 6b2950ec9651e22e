//! # ts-kvcache
//!
//! The KV-cache communication codec.
//!
//! Phase-split serving must move the KV cache produced by prefill replicas to
//! decode replicas over slow cloud links; ThunderServe compresses it with
//! one-shot 4-bit group-wise quantization (§4 of the paper, after KIVI),
//! dequantizing immediately on receipt so *computation always runs in 16-bit*.
//! KV memory on a replica is not managed here: the simulator accounts it as
//! a token count against the replica's KV capacity.
//!
//! * [`quant`] — group-wise asymmetric int4/int8 quantization with real bit
//!   packing;
//! * [`codec`] — the wire codec for whole per-request KV slabs, plus the one
//!   wire-size rule, [`codec::KvWirePrecision::wire_bytes`], that sizes every
//!   KV transfer the cost model prices and the simulator moves;
//! * [`synthetic`] — LLM-like synthetic KV tensor generator (Gaussian with
//!   per-channel scales and heavy-tailed outliers);
//! * [`fidelity`] — reconstruction-quality metrics (SNR, max error, attention
//!   output cosine similarity), the proxy for the paper's Tables 2/6/7.
//!
//! # Examples
//!
//! ```
//! use ts_kvcache::quant::{quantize, QuantBits};
//!
//! let data: Vec<f32> = (0..256).map(|i| (i as f32 * 0.37).sin()).collect();
//! let q = quantize(&data, QuantBits::Int4, 64);
//! let back = q.dequantize();
//! let max_err = data.iter().zip(&back).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
//! assert!(max_err < 0.075); // within one quantization step
//! let f16_bytes = data.len() * 2;
//! assert!((q.wire_bytes() as f64) < 0.4 * f16_bytes as f64); // far below fp16 size
//! ```

pub mod codec;
pub mod fidelity;
pub mod quant;
pub mod synthetic;

pub use codec::KvCodec;
pub use quant::{quantize, QuantBits, QuantizedTensor};
