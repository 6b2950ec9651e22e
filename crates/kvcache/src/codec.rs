//! The KV-cache communication codec.
//!
//! Wraps [`crate::quant`] into the per-request operation a prefill replica
//! performs before shipping a KV cache: quantize → pack → (wire) → unpack →
//! dequantize. [`KvWirePrecision::wire_bytes`] is the one wire-size rule:
//! the cost model, the estimator and the simulator's wire, fabric flows and
//! traced bytes all turn "`tokens` tokens of `layers` layers of model M at
//! 4-bit" into wire bytes with it.

use crate::quant::{decode_wire, encode_wire, quantize, QuantBits, QuantizedTensor};
use ts_common::ModelSpec;

/// KV transfer precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KvWirePrecision {
    /// Uncompressed fp16 (the baseline in Table 8 / Figure 18).
    F16,
    /// 8-bit group-wise quantization.
    Int8 {
        /// Values per scale/zero pair.
        group_size: usize,
    },
    /// 4-bit group-wise quantization (ThunderServe's default).
    Int4 {
        /// Values per scale/zero pair.
        group_size: usize,
    },
    /// 2-bit group-wise quantization (KIVI's most aggressive setting;
    /// trades fidelity for another 2x wire shrink).
    Int2 {
        /// Values per scale/zero pair.
        group_size: usize,
    },
}

impl KvWirePrecision {
    /// ThunderServe's default: int4 with 64-value groups.
    pub const DEFAULT_COMPRESSED: KvWirePrecision = KvWirePrecision::Int4 { group_size: 64 };

    /// Wire bytes per KV element (including amortized metadata).
    pub fn bytes_per_element(&self) -> f64 {
        match *self {
            KvWirePrecision::F16 => 2.0,
            KvWirePrecision::Int8 { group_size } => 1.0 + 8.0 / group_size as f64,
            KvWirePrecision::Int4 { group_size } => 0.5 + 8.0 / group_size as f64,
            KvWirePrecision::Int2 { group_size } => 0.25 + 8.0 / group_size as f64,
        }
    }

    /// Wire bytes of the KV slice of `layers` transformer layers of `model`
    /// for `tokens` tokens: its fp16 elements times
    /// [`Self::bytes_per_element`], rounded up. Every KV transfer is sized
    /// by this rule, one route leg or a whole route at a time.
    pub fn wire_bytes(&self, model: &ModelSpec, tokens: u64, layers: usize) -> u64 {
        let elements = model.kv_bytes_per_token_layers(layers) / 2; // fp16 elements
        (elements as f64 * tokens as f64 * self.bytes_per_element()).ceil() as u64
    }
}

/// Per-model KV wire codec.
#[derive(Debug, Clone)]
pub struct KvCodec {
    model: ModelSpec,
    precision: KvWirePrecision,
}

impl KvCodec {
    /// Creates a codec for `model` at the given wire precision.
    pub fn new(model: ModelSpec, precision: KvWirePrecision) -> Self {
        KvCodec { model, precision }
    }

    /// The configured precision.
    pub fn precision(&self) -> KvWirePrecision {
        self.precision
    }

    /// Wire bytes for the full-model KV cache of `tokens` tokens.
    pub fn wire_bytes(&self, tokens: u64) -> u64 {
        self.precision
            .wire_bytes(&self.model, tokens, self.model.num_layers)
    }

    /// Encodes a flat KV tensor for transmission. For quantized precisions
    /// this performs real quantization + packing; fp16 is a plain copy.
    pub fn encode(&self, values: &[f32]) -> Vec<u8> {
        match self.precision {
            KvWirePrecision::F16 => {
                // Model fp16 by truncating mantissas via f32→f16→f32 bit ops
                // is unnecessary for sizing; ship raw little-endian f32
                // halves' worth: we emulate fp16 payload size by packing
                // 2 bytes per element from the f32 bit pattern's top half.
                let mut buf = Vec::with_capacity(values.len() * 2);
                for &v in values {
                    let bits = half_bits(v);
                    buf.extend_from_slice(&bits.to_le_bytes());
                }
                buf
            }
            KvWirePrecision::Int8 { group_size } => {
                encode_wire(&quantize(values, QuantBits::Int8, group_size))
            }
            KvWirePrecision::Int4 { group_size } => {
                encode_wire(&quantize(values, QuantBits::Int4, group_size))
            }
            KvWirePrecision::Int2 { group_size } => {
                encode_wire(&quantize(values, QuantBits::Int2, group_size))
            }
        }
    }

    /// Decodes bytes produced by [`KvCodec::encode`] back to f32 values.
    ///
    /// # Errors
    /// Returns a description of the corruption for malformed buffers.
    pub fn decode(&self, wire: &[u8]) -> Result<Vec<f32>, String> {
        match self.precision {
            KvWirePrecision::F16 => {
                if !wire.len().is_multiple_of(2) {
                    return Err("odd fp16 payload length".into());
                }
                Ok(wire
                    .chunks_exact(2)
                    .map(|c| half_to_f32(u16::from_le_bytes([c[0], c[1]])))
                    .collect())
            }
            KvWirePrecision::Int8 { .. }
            | KvWirePrecision::Int4 { .. }
            | KvWirePrecision::Int2 { .. } => {
                let t: QuantizedTensor = decode_wire(wire)?;
                Ok(t.dequantize())
            }
        }
    }
}

/// f32 → IEEE 754 half bits (round-to-nearest-even, no subnormal care needed
/// for KV magnitudes).
fn half_bits(v: f32) -> u16 {
    let bits = v.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32 - 127 + 15;
    let mant = bits & 0x007F_FFFF;
    if exp <= 0 {
        return sign; // flush to zero
    }
    if exp >= 31 {
        return sign | 0x7C00; // infinity
    }
    // round mantissa from 23 to 10 bits
    let mant10 = ((mant + 0x0000_1000) >> 13) as u16;
    if mant10 == 0x0400 {
        // mantissa overflowed into exponent
        return sign | (((exp + 1) as u16) << 10);
    }
    sign | ((exp as u16) << 10) | (mant10 & 0x03FF)
}

/// IEEE 754 half bits → f32.
fn half_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let mant = (h & 0x03FF) as u32;
    let bits = if exp == 0 {
        if mant == 0 {
            sign
        } else {
            // subnormal half — normalize
            let mut e = 127 - 15 + 1;
            let mut m = mant;
            while m & 0x0400 == 0 {
                m <<= 1;
                e -= 1;
            }
            sign | ((e as u32) << 23) | ((m & 0x03FF) << 13)
        }
    } else if exp == 31 {
        sign | 0x7F80_0000 | (mant << 13)
    } else {
        sign | ((exp + 127 - 15) << 23) | (mant << 13)
    };
    f32::from_bits(bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_ratios() {
        let ratio = |p: KvWirePrecision| p.bytes_per_element() / 2.0;
        assert_eq!(ratio(KvWirePrecision::F16), 1.0);
        let r4 = ratio(KvWirePrecision::DEFAULT_COMPRESSED);
        assert!(r4 > 0.25 && r4 < 0.35, "int4 ratio {r4}");
        let r8 = ratio(KvWirePrecision::Int8 { group_size: 64 });
        assert!(r8 > 0.5 && r8 < 0.6);
        let r2 = ratio(KvWirePrecision::Int2 { group_size: 64 });
        assert!(r2 > 0.12 && r2 < 0.2, "int2 ratio {r2}");
    }

    #[test]
    fn int2_codec_round_trips_coarsely() {
        let m = ModelSpec::llama_7b();
        let codec = KvCodec::new(m, KvWirePrecision::Int2 { group_size: 32 });
        let xs: Vec<f32> = (0..640)
            .map(|i| ((i * 13) % 64) as f32 / 32.0 - 1.0)
            .collect();
        let wire = codec.encode(&xs);
        let back = codec.decode(&wire).unwrap();
        assert_eq!(back.len(), xs.len());
        // coarse: within one-third of each group's range
        for (a, b) in xs.iter().zip(&back) {
            assert!((a - b).abs() < 0.7, "{a} vs {b}");
        }
    }

    #[test]
    fn wire_bytes_scale_with_tokens_and_precision() {
        let m = ModelSpec::llama_7b();
        let f16 = KvCodec::new(m.clone(), KvWirePrecision::F16);
        let i4 = KvCodec::new(m.clone(), KvWirePrecision::DEFAULT_COMPRESSED);
        assert_eq!(f16.wire_bytes(100), m.kv_bytes_per_token() * 100);
        let ratio = i4.wire_bytes(100) as f64 / f16.wire_bytes(100) as f64;
        assert!(ratio < 0.35, "ratio {ratio}");
    }

    #[test]
    fn layer_subset_wire_bytes_partition_the_whole() {
        let m = ModelSpec::llama_7b();
        let p = KvWirePrecision::DEFAULT_COMPRESSED;
        let codec = KvCodec::new(m.clone(), p);
        let split = p.wire_bytes(&m, 100, 10) + p.wire_bytes(&m, 100, m.num_layers - 10);
        let whole = codec.wire_bytes(100);
        // Per-leg ceils may add at most one byte each.
        assert!(split >= whole && split <= whole + 2, "{split} vs {whole}");
        assert_eq!(p.wire_bytes(&m, 100, m.num_layers), whole);
    }

    #[test]
    fn f16_codec_round_trips_with_half_precision() {
        let m = ModelSpec::llama_7b();
        let codec = KvCodec::new(m, KvWirePrecision::F16);
        let xs: Vec<f32> = (0..100).map(|i| (i as f32 * 0.173).sin() * 4.0).collect();
        let wire = codec.encode(&xs);
        assert_eq!(wire.len(), 200);
        let back = codec.decode(&wire).unwrap();
        for (a, b) in xs.iter().zip(&back) {
            assert!((a - b).abs() < 4.0 * 2f32.powi(-10), "{a} vs {b}");
        }
    }

    #[test]
    fn int4_codec_round_trips() {
        let m = ModelSpec::llama_7b();
        let codec = KvCodec::new(m, KvWirePrecision::DEFAULT_COMPRESSED);
        let xs: Vec<f32> = (0..999)
            .map(|i| ((i * 37) % 100) as f32 / 50.0 - 1.0)
            .collect();
        let wire = codec.encode(&xs);
        let back = codec.decode(&wire).unwrap();
        assert_eq!(back.len(), xs.len());
        for (a, b) in xs.iter().zip(&back) {
            assert!((a - b).abs() < 0.08, "{a} vs {b}");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        let m = ModelSpec::llama_7b();
        let codec = KvCodec::new(m.clone(), KvWirePrecision::DEFAULT_COMPRESSED);
        assert!(codec.decode(&[1, 2, 3]).is_err());
        let f16 = KvCodec::new(m, KvWirePrecision::F16);
        assert!(f16.decode(&[0u8; 3]).is_err());
    }

    #[test]
    fn half_conversion_edge_cases() {
        for v in [0.0f32, -0.0, 1.0, -1.0, 65504.0, 1e-8, f32::INFINITY] {
            let h = half_bits(v);
            let back = half_to_f32(h);
            if v.abs() < 6e-5 {
                assert_eq!(back, if v.is_sign_negative() { -0.0 } else { 0.0 });
            } else if v.is_infinite() {
                assert!(back.is_infinite());
            } else {
                assert!((back - v).abs() / v.abs().max(1.0) < 1e-3, "{v} -> {back}");
            }
        }
    }
}
