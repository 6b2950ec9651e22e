//! The served-model catalog: which models a deployment hosts, with their
//! per-tenant service objectives and traffic shares.
//!
//! A single-model deployment is the one-entry special case
//! ([`ServedModel::single`]); everything downstream (scheduler, simulator,
//! metrics) treats the catalog as the source of truth for per-model
//! [`ModelSpec`]s and [`SloSpec`]s.

use crate::ids::ModelId;
use crate::{Error, ModelSpec, Result, SimDuration, SloSpec};

/// One entry of the served-model catalog: a model, its SLO, and its share of
/// the aggregate request stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedModel {
    /// Identity threaded through plans, requests and metrics.
    pub id: ModelId,
    /// Architecture and precision of the served model.
    pub spec: ModelSpec,
    /// The tenant's service-level objective, evaluated per model by
    /// metrics consumers.
    pub slo: SloSpec,
    /// Fraction of aggregate traffic addressed to this model. Shares of a
    /// catalog sum to 1 (see [`validate_catalog`]).
    pub traffic_share: f64,
}

impl ServedModel {
    /// Creates a catalog entry, validating the traffic share.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] if `traffic_share` is not a finite
    /// positive fraction.
    pub fn new(id: ModelId, spec: ModelSpec, slo: SloSpec, traffic_share: f64) -> Result<Self> {
        if !traffic_share.is_finite() || traffic_share <= 0.0 || traffic_share > 1.0 {
            return Err(Error::InvalidConfig(format!(
                "traffic share {traffic_share} for {id} must be in (0, 1]"
            )));
        }
        Ok(ServedModel {
            id,
            spec,
            slo,
            traffic_share,
        })
    }

    /// The one-entry catalog of a single-model deployment: the default
    /// identity `ModelId(0)` owning the whole request stream.
    pub fn single(spec: ModelSpec, slo: SloSpec) -> Self {
        ServedModel {
            id: ModelId(0),
            spec,
            slo,
            traffic_share: 1.0,
        }
    }

    /// A LLaMA-7B chat tenant with the paper's interactive SLO flavour
    /// (tight TTFT/TPOT). Deduplicates the ad-hoc preset + SLO pairing in
    /// benches, tests and examples.
    pub fn llama_7b_chat(id: ModelId, traffic_share: f64) -> Result<Self> {
        ServedModel::new(
            id,
            ModelSpec::llama_7b(),
            SloSpec::new(
                SimDuration::from_millis(1000),
                SimDuration::from_millis(100),
                SimDuration::from_secs(20),
            ),
            traffic_share,
        )
    }

    /// A LLaMA-13B chat tenant (interactive SLO, mid-size model).
    pub fn llama_13b_chat(id: ModelId, traffic_share: f64) -> Result<Self> {
        ServedModel::new(
            id,
            ModelSpec::llama_13b(),
            SloSpec::new(
                SimDuration::from_millis(1600),
                SimDuration::from_millis(120),
                SimDuration::from_secs(24),
            ),
            traffic_share,
        )
    }

    /// A LLaMA-30B coding tenant with the paper's relaxed long-form SLO
    /// (coding prompts are long; deadlines scale accordingly).
    pub fn llama_30b_coding(id: ModelId, traffic_share: f64) -> Result<Self> {
        ServedModel::new(
            id,
            ModelSpec::llama_30b(),
            SloSpec::new(
                SimDuration::from_millis(3200),
                SimDuration::from_millis(240),
                SimDuration::from_secs(48),
            ),
            traffic_share,
        )
    }
}

/// Validates a catalog: non-empty, distinct ids, shares summing to 1 (±1e-6).
///
/// # Errors
/// Returns [`Error::InvalidConfig`] when any of those fails.
pub fn validate_catalog(models: &[ServedModel]) -> Result<()> {
    if models.is_empty() {
        return Err(Error::InvalidConfig("empty model catalog".into()));
    }
    let mut total = 0.0;
    for (i, m) in models.iter().enumerate() {
        if models[..i].iter().any(|o| o.id == m.id) {
            return Err(Error::InvalidConfig(format!(
                "duplicate catalog entry for {}",
                m.id
            )));
        }
        total += m.traffic_share;
    }
    if (total - 1.0).abs() > 1e-6 {
        return Err(Error::InvalidConfig(format!(
            "catalog traffic shares sum to {total}, expected 1"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_owns_the_stream() {
        let m = ServedModel::single(
            ModelSpec::llama_13b(),
            SloSpec::new(
                SimDuration::from_millis(500),
                SimDuration::from_millis(50),
                SimDuration::from_secs(5),
            ),
        );
        assert_eq!(m.id, ModelId(0));
        assert_eq!(m.traffic_share, 1.0);
        assert!(validate_catalog(&[m]).is_ok());
    }

    #[test]
    fn share_must_be_a_positive_fraction() {
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            assert!(ServedModel::llama_7b_chat(ModelId(1), bad).is_err());
        }
    }

    #[test]
    fn catalog_rejects_duplicate_ids_and_bad_shares() {
        let a = ServedModel::llama_7b_chat(ModelId(1), 0.5).unwrap();
        let b = ServedModel::llama_30b_coding(ModelId(2), 0.5).unwrap();
        assert!(validate_catalog(&[a.clone(), b.clone()]).is_ok());
        assert!(validate_catalog(&[]).is_err());
        assert!(validate_catalog(&[a.clone(), a.clone()]).is_err());
        let short = ServedModel::llama_30b_coding(ModelId(2), 0.25).unwrap();
        assert!(validate_catalog(&[a, short]).is_err());
        assert!(b.spec.num_layers > 32, "presets carry distinct specs");
    }
}
