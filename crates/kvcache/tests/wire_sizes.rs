//! Pins the KV wire-size rule to the serialized wire's historical
//! arithmetic: fp16 bytes of the layer slice, times tokens, times the
//! precision's size relative to fp16, truncated. Every shape, element type,
//! wire precision and layer count is checked on tokens 0..=1024 and 4096.

use ts_common::{DType, ModelSpec};
use ts_kvcache::codec::{KvCodec, KvWirePrecision};

/// The serialized wire's byte count before the wire-size rule: fp16 bytes
/// scaled by the precision's ratio to fp16, floored.
fn oracle(model: &ModelSpec, tokens: u64, layers: usize, precision: KvWirePrecision) -> u64 {
    (model.kv_bytes_per_token_layers(layers) as f64
        * tokens as f64
        * (precision.bytes_per_element() / 2.0)) as u64
}

fn shapes() -> Vec<ModelSpec> {
    let mut gqa = ModelSpec::llama_30b();
    gqa.num_kv_heads = 4;
    vec![
        ModelSpec::llama_7b(),
        ModelSpec::llama_13b(),
        ModelSpec::llama_30b(),
        gqa,
    ]
}

fn precisions() -> Vec<KvWirePrecision> {
    let mut out = vec![KvWirePrecision::F16];
    for group_size in [32, 64] {
        out.extend([
            KvWirePrecision::Int8 { group_size },
            KvWirePrecision::Int4 { group_size },
            KvWirePrecision::Int2 { group_size },
        ]);
    }
    out
}

#[test]
fn wire_size_rule_matches_the_serialized_arithmetic() {
    let tokens: Vec<u64> = (0..=1024).chain([4096]).collect();
    let mut checked = 0u64;
    for shape in shapes() {
        for dtype in [DType::F16, DType::F32, DType::I8, DType::I4] {
            let model = ModelSpec {
                dtype,
                ..shape.clone()
            };
            for precision in precisions() {
                let codec = KvCodec::new(model.clone(), precision);
                for layers in 1..=model.num_layers {
                    for &t in &tokens {
                        assert_eq!(
                            precision.wire_bytes(&model, t, layers),
                            oracle(&model, t, layers, precision),
                            "{} {dtype:?} {precision:?}: {t} tokens, {layers} layers",
                            model.name
                        );
                        checked += 1;
                    }
                }
                let whole = model.num_layers;
                assert_eq!(
                    codec.wire_bytes(1000),
                    oracle(&model, 1000, whole, precision)
                );
            }
        }
    }
    assert_eq!(checked, 4 * 7 * (32 + 40 + 60 + 60) * 1026);
}
