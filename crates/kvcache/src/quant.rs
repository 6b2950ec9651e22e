//! Group-wise asymmetric quantization with real bit packing.
//!
//! Values are split into contiguous groups of `group_size`; each group stores
//! an `f32` scale and zero-point plus `bits`-wide codes. Int4 codes are
//! packed two per byte (low nibble first). This is the KIVI-style one-shot
//! scheme of §4: the prefill replica quantizes, the wire carries the packed
//! representation, and the decode replica dequantizes back to 16-bit before
//! any computation.

/// Quantization width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuantBits {
    /// 2-bit codes, four per byte (KIVI's most aggressive setting).
    Int2,
    /// 4-bit codes, two per byte.
    Int4,
    /// 8-bit codes.
    Int8,
}

impl QuantBits {
    /// Number of bits per code.
    #[inline]
    pub const fn bits(self) -> u32 {
        match self {
            QuantBits::Int2 => 2,
            QuantBits::Int4 => 4,
            QuantBits::Int8 => 8,
        }
    }

    /// Largest code value (`2^bits - 1`).
    #[inline]
    pub const fn max_code(self) -> u32 {
        (1 << self.bits()) - 1
    }
}

/// A quantized tensor: packed codes plus per-group scale/zero metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedTensor {
    bits: QuantBits,
    group_size: usize,
    len: usize,
    scales: Vec<f32>,
    zeros: Vec<f32>,
    data: Vec<u8>,
}

impl QuantizedTensor {
    /// Quantization width.
    pub fn bits(&self) -> QuantBits {
        self.bits
    }

    /// Number of original elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total bytes this tensor occupies on the wire: packed codes plus
    /// per-group `f32` scale and zero-point, plus a small fixed header.
    pub fn wire_bytes(&self) -> usize {
        const HEADER: usize = 16; // bits, group_size, len
        HEADER + self.data.len() + (self.scales.len() + self.zeros.len()) * 4
    }

    /// Compression ratio relative to fp16 storage of the same element count
    /// (e.g. ~0.27 for int4 with group size 64).
    pub fn ratio_vs_f16(&self) -> f64 {
        self.wire_bytes() as f64 / (self.len.max(1) * 2) as f64
    }

    /// Reconstructs the original values (lossily).
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.len);
        for (gi, chunk_start) in (0..self.len).step_by(self.group_size).enumerate() {
            let scale = self.scales[gi];
            let zero = self.zeros[gi];
            let group_len = self.group_size.min(self.len - chunk_start);
            for k in 0..group_len {
                let idx = chunk_start + k;
                let code = match self.bits {
                    QuantBits::Int8 => self.data[idx] as u32,
                    QuantBits::Int4 => {
                        let byte = self.data[idx / 2];
                        if idx % 2 == 0 {
                            (byte & 0x0F) as u32
                        } else {
                            (byte >> 4) as u32
                        }
                    }
                    QuantBits::Int2 => {
                        let byte = self.data[idx / 4];
                        ((byte >> (2 * (idx % 4))) & 0x03) as u32
                    }
                };
                out.push(code as f32 * scale + zero);
            }
        }
        out
    }
}

/// Quantizes `values` with the given width and group size.
///
/// Each group's range `[min, max]` maps linearly onto the code range; a
/// degenerate group (all values equal) gets scale 0 and reconstructs exactly.
///
/// # Panics
/// Panics if `group_size` is zero or any value is not finite.
pub fn quantize(values: &[f32], bits: QuantBits, group_size: usize) -> QuantizedTensor {
    assert!(group_size > 0, "group size must be positive");
    let n = values.len();
    let num_groups = n.div_ceil(group_size);
    let mut scales = Vec::with_capacity(num_groups);
    let mut zeros = Vec::with_capacity(num_groups);
    let packed_len = match bits {
        QuantBits::Int8 => n,
        QuantBits::Int4 => n.div_ceil(2),
        QuantBits::Int2 => n.div_ceil(4),
    };
    let mut data = vec![0u8; packed_len];
    let max_code = bits.max_code() as f32;

    for (gi, group) in values.chunks(group_size).enumerate() {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &v in group {
            assert!(v.is_finite(), "cannot quantize non-finite value {v}");
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let scale = if hi > lo { (hi - lo) / max_code } else { 0.0 };
        scales.push(scale);
        zeros.push(lo);
        for (k, &v) in group.iter().enumerate() {
            let code = if scale > 0.0 {
                (((v - lo) / scale).round() as u32).min(bits.max_code())
            } else {
                0
            };
            let idx = gi * group_size + k;
            match bits {
                QuantBits::Int8 => data[idx] = code as u8,
                QuantBits::Int4 => {
                    if idx.is_multiple_of(2) {
                        data[idx / 2] |= code as u8 & 0x0F;
                    } else {
                        data[idx / 2] |= (code as u8) << 4;
                    }
                }
                QuantBits::Int2 => {
                    data[idx / 4] |= ((code as u8) & 0x03) << (2 * (idx % 4));
                }
            }
        }
    }

    QuantizedTensor {
        bits,
        group_size,
        len: n,
        scales,
        zeros,
        data,
    }
}

/// Serializes a tensor into a flat byte buffer (header + metadata + codes) —
/// the exact bytes a prefill replica would put on the wire.
pub fn encode_wire(t: &QuantizedTensor) -> Vec<u8> {
    let mut buf = Vec::with_capacity(t.wire_bytes());
    buf.extend_from_slice(&t.bits.bits().to_le_bytes());
    buf.extend_from_slice(&(t.group_size as u32).to_le_bytes());
    buf.extend_from_slice(&(t.len as u64).to_le_bytes());
    for &v in t.scales.iter().chain(&t.zeros) {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    buf.extend_from_slice(&t.data);
    buf
}

/// Parses bytes produced by [`encode_wire`].
///
/// # Errors
/// Returns a message describing the corruption if the buffer is malformed,
/// including a header whose lengths the buffer cannot hold.
pub fn decode_wire(buf: &[u8]) -> Result<QuantizedTensor, String> {
    let Some((header, body)) = buf.split_first_chunk::<16>() else {
        return Err("buffer too short for header".into());
    };
    let [b0, b1, b2, b3, g0, g1, g2, g3, len @ ..] = *header;
    let bits = match u32::from_le_bytes([b0, b1, b2, b3]) {
        2 => QuantBits::Int2,
        4 => QuantBits::Int4,
        8 => QuantBits::Int8,
        other => return Err(format!("unknown bit width {other}")),
    };
    let group_size = u32::from_le_bytes([g0, g1, g2, g3]) as usize;
    if group_size == 0 {
        return Err("zero group size".into());
    }
    let len = u64::from_le_bytes(len) as usize;
    let num_groups = len.div_ceil(group_size);
    // The header is untrusted: `num_groups * 8` overflows for a hostile
    // `len`, so the size is checked before anything is allocated.
    let meta_len = num_groups
        .checked_mul(8)
        .filter(|&m| m <= body.len())
        .ok_or("buffer too short for metadata")?;
    let (meta, codes) = body.split_at(meta_len);
    let mut floats = meta
        .as_chunks::<4>()
        .0
        .iter()
        .map(|&c| f32::from_le_bytes(c));
    let scales: Vec<f32> = floats.by_ref().take(num_groups).collect();
    let zeros: Vec<f32> = floats.collect();
    let packed_len = match bits {
        QuantBits::Int8 => len,
        QuantBits::Int4 => len.div_ceil(2),
        QuantBits::Int2 => len.div_ceil(4),
    };
    if codes.len() != packed_len {
        return Err(format!(
            "expected {packed_len} code bytes, got {}",
            codes.len()
        ));
    }
    Ok(QuantizedTensor {
        bits,
        group_size,
        len,
        scales,
        zeros,
        data: codes.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f32> {
        (0..n).map(|i| i as f32 * 0.01 - 1.0).collect()
    }

    #[test]
    fn int8_round_trip_error_within_half_step() {
        let xs = ramp(1000);
        let q = quantize(&xs, QuantBits::Int8, 128);
        let back = q.dequantize();
        assert_eq!(back.len(), xs.len());
        // step = range/255 per group; error <= step/2 + float fuzz
        let step = (128.0 * 0.01) / 255.0;
        for (a, b) in xs.iter().zip(&back) {
            assert!((a - b).abs() <= step / 2.0 + 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn int4_round_trip_error_within_half_step() {
        let xs = ramp(512);
        let q = quantize(&xs, QuantBits::Int4, 64);
        let back = q.dequantize();
        let step = (64.0 * 0.01) / 15.0;
        for (a, b) in xs.iter().zip(&back) {
            assert!((a - b).abs() <= step / 2.0 + 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn int2_round_trip_error_within_half_step() {
        let xs = ramp(256);
        let q = quantize(&xs, QuantBits::Int2, 32);
        let back = q.dequantize();
        let step = (32.0 * 0.01) / 3.0;
        for (a, b) in xs.iter().zip(&back) {
            assert!((a - b).abs() <= step / 2.0 + 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn int2_wire_round_trip_with_odd_lengths() {
        for n in [1usize, 3, 4, 5, 63, 64, 65] {
            let xs = ramp(n);
            let q = quantize(&xs, QuantBits::Int2, 16);
            let q2 = decode_wire(&encode_wire(&q)).unwrap();
            assert_eq!(q, q2, "n={n}");
            assert_eq!(q2.dequantize().len(), n);
        }
    }

    #[test]
    fn int2_is_about_8x_smaller_than_f16() {
        let xs = ramp(16384);
        let q = quantize(&xs, QuantBits::Int2, 128);
        let r = q.ratio_vs_f16();
        assert!(r > 0.12 && r < 0.17, "ratio {r}");
    }

    #[test]
    fn constant_group_reconstructs_exactly() {
        let xs = vec![3.25f32; 100];
        for bits in [QuantBits::Int2, QuantBits::Int4, QuantBits::Int8] {
            let q = quantize(&xs, bits, 32);
            assert_eq!(q.dequantize(), xs);
        }
    }

    #[test]
    fn odd_lengths_and_partial_groups() {
        let xs = ramp(77);
        let q = quantize(&xs, QuantBits::Int4, 16);
        assert_eq!(q.len(), 77);
        assert_eq!(q.dequantize().len(), 77);
    }

    #[test]
    fn empty_input() {
        let q = quantize(&[], QuantBits::Int4, 64);
        assert!(q.is_empty());
        assert!(q.dequantize().is_empty());
    }

    #[test]
    fn int4_is_about_4x_smaller_than_f16() {
        let xs = ramp(16384);
        let q = quantize(&xs, QuantBits::Int4, 128);
        let r = q.ratio_vs_f16();
        assert!(r > 0.24 && r < 0.30, "ratio {r}");
    }

    #[test]
    fn wire_round_trip() {
        let xs = ramp(333);
        let q = quantize(&xs, QuantBits::Int4, 64);
        let wire = encode_wire(&q);
        let q2 = decode_wire(&wire).unwrap();
        assert_eq!(q, q2);
        assert_eq!(q2.dequantize(), q.dequantize());
    }

    #[test]
    fn decode_rejects_corruption() {
        let xs = ramp(64);
        let q = quantize(&xs, QuantBits::Int8, 32);
        let wire = encode_wire(&q);
        assert!(decode_wire(&wire[..8]).is_err());
        let mut bad = wire.to_vec();
        bad[0] = 7; // invalid bit width
        assert!(decode_wire(&bad).is_err());
        let mut truncated = wire.to_vec();
        truncated.pop();
        assert!(decode_wire(&truncated).is_err());
    }

    #[test]
    fn decode_rejects_a_header_whose_metadata_size_overflows() {
        // group_size 1 and len 2^61 make `num_groups * 8` wrap to 0.
        let mut wire = Vec::new();
        wire.extend_from_slice(&8u32.to_le_bytes());
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.extend_from_slice(&(1u64 << 61).to_le_bytes());
        wire.extend_from_slice(&[0u8; 8]);
        assert_eq!(
            decode_wire(&wire).unwrap_err(),
            "buffer too short for metadata"
        );
    }

    #[test]
    fn codes_saturate_at_extremes() {
        // Round-off at group boundaries must clamp into the code range.
        let xs = vec![-1e30f32, 1e30f32];
        let q = quantize(&xs, QuantBits::Int4, 2);
        let back = q.dequantize();
        assert_eq!(back[0], -1e30);
        assert_eq!(back[1], 1e30);
    }

    #[test]
    #[should_panic]
    fn nan_panics() {
        let _ = quantize(&[f32::NAN], QuantBits::Int8, 8);
    }
}
