//! Transformer model descriptions.
//!
//! [`ModelSpec`] captures the architectural parameters the cost model and the
//! KV-cache manager need: layer count, hidden size, attention geometry, MLP
//! width, vocabulary size and element width. Presets are provided for the
//! LLaMA family sizes used throughout the paper (7B, 13B, 30B).

/// Numeric element type used for weights, activations and KV cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 16-bit floating point (fp16/bf16); the serving default.
    F16,
    /// 32-bit floating point.
    F32,
    /// 8-bit integer (quantized storage).
    I8,
    /// 4-bit integer (quantized storage; two elements per byte).
    I4,
}

impl DType {
    /// Storage size of one element in **bits**.
    ///
    /// ```
    /// use ts_common::DType;
    /// assert_eq!(DType::F16.bits(), 16);
    /// assert_eq!(DType::I4.bits(), 4);
    /// ```
    #[inline]
    pub const fn bits(self) -> u64 {
        match self {
            DType::F16 => 16,
            DType::F32 => 32,
            DType::I8 => 8,
            DType::I4 => 4,
        }
    }

    /// Storage size of `n` elements in bytes, rounding up to whole bytes.
    #[inline]
    pub const fn bytes_for(self, n: u64) -> u64 {
        (n * self.bits()).div_ceil(8)
    }
}

/// Architecture description of a decoder-only transformer.
///
/// All sizes are in *elements*, not bytes; use [`ModelSpec::weight_bytes`] and
/// friends for storage estimates.
///
/// ```
/// use ts_common::ModelSpec;
/// let m = ModelSpec::llama_7b();
/// assert_eq!(m.num_layers, 32);
/// // KV per token = 2 (K and V) * layers * hidden * 2 bytes
/// assert_eq!(m.kv_bytes_per_token(), 2 * 32 * 4096 * 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelSpec {
    /// Human-readable model name, e.g. `"llama-30b"`.
    pub name: String,
    /// Number of transformer layers.
    pub num_layers: usize,
    /// Model (embedding) dimension.
    pub hidden_size: usize,
    /// Number of attention heads.
    pub num_heads: usize,
    /// Number of KV heads (== `num_heads` unless grouped-query attention).
    pub num_kv_heads: usize,
    /// Feed-forward intermediate dimension.
    pub intermediate_size: usize,
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Whether the MLP is gated (SwiGLU-style, 3 projections) like the
    /// LLaMA family, or classic 2-projection (OPT, Falcon).
    pub mlp_gated: bool,
    /// Element type of the served weights and KV cache.
    pub dtype: DType,
}

impl ModelSpec {
    /// LLaMA-7B: 32 layers, hidden 4096, 32 heads, FFN 11008.
    pub fn llama_7b() -> Self {
        Self::llama("llama-7b", 32, 4096, 32, 11008)
    }

    /// LLaMA-13B: 40 layers, hidden 5120, 40 heads, FFN 13824.
    pub fn llama_13b() -> Self {
        Self::llama("llama-13b", 40, 5120, 40, 13824)
    }

    /// LLaMA-30B: 60 layers, hidden 6656, 52 heads, FFN 17920.
    pub fn llama_30b() -> Self {
        Self::llama("llama-30b", 60, 6656, 52, 17920)
    }

    fn llama(
        name: &str,
        num_layers: usize,
        hidden_size: usize,
        num_heads: usize,
        intermediate_size: usize,
    ) -> Self {
        ModelSpec {
            name: name.to_owned(),
            num_layers,
            hidden_size,
            num_heads,
            num_kv_heads: num_heads,
            intermediate_size,
            vocab_size: 32_000,
            mlp_gated: true,
            dtype: DType::F16,
        }
    }

    /// Dimension of a single attention head.
    #[inline]
    pub fn head_dim(&self) -> usize {
        self.hidden_size / self.num_heads
    }

    /// Approximate total parameter count.
    ///
    /// Counts per layer: QKV + output projections
    /// (`2*h*h + 2*h*kv_dim`) and a gated MLP (`3*h*ffn` for the LLaMA
    /// SwiGLU family), plus embedding and LM head (`2*vocab*h`).
    pub fn param_count(&self) -> u64 {
        let embed = 2 * (self.vocab_size as u64) * (self.hidden_size as u64);
        self.per_layer_params() * self.num_layers as u64 + embed
    }

    /// Parameters of one transformer layer (attention + MLP projections).
    fn per_layer_params(&self) -> u64 {
        let h = self.hidden_size as u64;
        let kv = (self.num_kv_heads * self.head_dim()) as u64;
        let ffn = self.intermediate_size as u64;
        let mlp = if self.mlp_gated {
            3 * h * ffn
        } else {
            2 * h * ffn
        };
        2 * h * h + 2 * h * kv + mlp
    }

    /// Bytes needed to store the full weights at the serving dtype.
    #[inline]
    pub fn weight_bytes(&self) -> u64 {
        self.dtype.bytes_for(self.param_count())
    }

    /// Bytes needed to store the weights of `layers` transformer layers
    /// (excluding embeddings), used for non-uniform pipeline partitioning.
    pub fn layer_weight_bytes(&self, layers: usize) -> u64 {
        self.dtype
            .bytes_for(self.per_layer_params() * layers as u64)
    }

    /// KV-cache bytes per token across **all** layers (both K and V).
    ///
    /// This is the `2·s·h·N_bytes`-per-token quantity of the paper's Eq. (1).
    #[inline]
    pub fn kv_bytes_per_token(&self) -> u64 {
        let kv_dim = (self.num_kv_heads * self.head_dim()) as u64;
        self.dtype.bytes_for(2 * kv_dim) * self.num_layers as u64
    }

    /// KV-cache bytes per token for a contiguous slice of `layers` layers.
    #[inline]
    pub fn kv_bytes_per_token_layers(&self, layers: usize) -> u64 {
        let kv_dim = (self.num_kv_heads * self.head_dim()) as u64;
        self.dtype.bytes_for(2 * kv_dim) * layers as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_counts_are_in_expected_ballpark() {
        // Within 15% of the nominal sizes.
        let cases = [
            (ModelSpec::llama_7b(), 6.7e9),
            (ModelSpec::llama_13b(), 13.0e9),
            (ModelSpec::llama_30b(), 32.5e9),
        ];
        for (m, nominal) in cases {
            let p = m.param_count() as f64;
            assert!(
                (p / nominal - 1.0).abs() < 0.15,
                "{}: {p} vs nominal {nominal}",
                m.name
            );
        }
    }

    #[test]
    fn weight_bytes_matches_dtype() {
        let mut m = ModelSpec::llama_7b();
        let f16 = m.weight_bytes();
        m.dtype = DType::F32;
        assert_eq!(m.weight_bytes(), f16 * 2);
    }

    #[test]
    fn kv_bytes_scale_with_layers() {
        let m = ModelSpec::llama_13b();
        assert_eq!(
            m.kv_bytes_per_token(),
            m.kv_bytes_per_token_layers(m.num_layers)
        );
        assert_eq!(
            m.kv_bytes_per_token_layers(10) * 4,
            m.kv_bytes_per_token_layers(40)
        );
    }

    #[test]
    fn i4_rounds_up_to_whole_bytes() {
        assert_eq!(DType::I4.bytes_for(3), 2);
        assert_eq!(DType::I4.bytes_for(4), 2);
        assert_eq!(DType::I8.bytes_for(3), 3);
    }

    #[test]
    fn gqa_shrinks_kv_not_weights() {
        // Grouped-query attention: 4 of LLaMA-30B's 52 heads carry KV.
        let mha = ModelSpec::llama_30b();
        let mut f = mha.clone();
        f.num_kv_heads = 4;
        assert_eq!(
            f.kv_bytes_per_token() * (f.num_heads / f.num_kv_heads) as u64,
            mha.kv_bytes_per_token()
        );
        // weights move modestly (only the K/V projections shrink)
        let ratio = f.param_count() as f64 / mha.param_count() as f64;
        assert!(ratio > 0.8 && ratio < 1.0, "ratio {ratio}");
    }

    #[test]
    fn head_dim_divides_hidden() {
        for m in [
            ModelSpec::llama_7b(),
            ModelSpec::llama_13b(),
            ModelSpec::llama_30b(),
        ] {
            assert_eq!(m.head_dim() * m.num_heads, m.hidden_size);
        }
    }
}
