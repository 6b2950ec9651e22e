//! Human-readable (de)serialization of deployment plans.
//!
//! The runtime hands plans between the scheduler, operators and tools; this
//! module defines a stable line-oriented text format so plans can be saved,
//! inspected, diffed and replayed without a JSON dependency:
//!
//! ```text
//! thunderserve-plan v1
//! group prefill tp=2 pp=2
//! stage layers=20 gpus=0,1
//! stage layers=20 gpus=2,3
//! group decode tp=4 pp=1
//! stage layers=40 gpus=4,5,6,7
//! routing 1x1
//! 1
//! ```

use crate::ids::ModelId;
use crate::plan::ModelRouting;
use crate::{
    DeploymentPlan, Error, GpuId, GroupSpec, ParallelConfig, Phase, Result, RoutingMatrix,
    StageSpec,
};
use std::fmt::Write as _;

/// Magic first line of the format.
pub const HEADER: &str = "thunderserve-plan v1";

/// Renders a plan to the text format.
///
/// Single-model plans render exactly as before multi-model support: the
/// `model=<id>` group token and the trailing per-model `model … routing`
/// sections only appear on multi-model plans, so legacy plans stay
/// byte-stable and legacy files parse unchanged.
pub fn to_text(plan: &DeploymentPlan) -> String {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    for g in &plan.groups {
        let _ = write!(
            out,
            "group {} tp={} pp={}",
            g.phase,
            g.parallel.tp(),
            g.parallel.pp()
        );
        if g.model != ModelId(0) {
            let _ = write!(out, " model={}", g.model.0);
        }
        out.push('\n');
        for st in &g.stages {
            let gpus = st
                .gpus
                .iter()
                .map(|g| g.0.to_string())
                .collect::<Vec<_>>()
                .join(",");
            let _ = writeln!(out, "stage layers={} gpus={}", st.layers, gpus);
        }
    }
    write_matrix(&mut out, "routing", &plan.routing);
    for mr in &plan.model_routing {
        let header = format!("model {} share={:.12} routing", mr.model.0, mr.share);
        write_matrix(&mut out, &header, &mr.routing);
    }
    out
}

fn write_matrix(out: &mut String, header: &str, r: &RoutingMatrix) {
    let _ = writeln!(out, "{header} {}x{}", r.num_prefill(), r.num_decode());
    for i in 0..r.num_prefill() {
        let row = (0..r.num_decode())
            .map(|j| format!("{:.12}", r.rate(i, j)))
            .collect::<Vec<_>>()
            .join(" ");
        out.push_str(&row);
        out.push('\n');
    }
}

/// Parses a plan from the text format.
///
/// # Errors
/// Returns [`Error::InvalidConfig`] describing the first malformed line, and
/// propagates the structural validation of [`DeploymentPlan::new_multi`]:
/// the per-model sections, or the aggregate alone on a single-model plan,
/// must form a plan `new_multi` accepts.
pub fn from_text(text: &str) -> Result<DeploymentPlan> {
    let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
    let bad = |msg: String| Error::InvalidConfig(format!("plan parse: {msg}"));

    if lines.next() != Some(HEADER) {
        return Err(bad(format!("missing header {HEADER:?}")));
    }

    let mut groups: Vec<GroupSpec> = Vec::new();
    let mut current: Option<(Phase, usize, usize, ModelId, Vec<StageSpec>)> = None;
    let mut routing: Option<RoutingMatrix> = None;
    // (model, share) whose matrix rows are currently being collected, and
    // finished per-model entries.
    let mut pending_model: Option<(ModelId, f64)> = None;
    let mut model_routing: Vec<ModelRouting> = Vec::new();

    let finish_group = |g: Option<(Phase, usize, usize, ModelId, Vec<StageSpec>)>,
                        groups: &mut Vec<GroupSpec>|
     -> Result<()> {
        if let Some((phase, tp, pp, model, stages)) = g {
            groups.push(
                GroupSpec::new(phase, ParallelConfig::new(tp, pp)?, stages)?.with_model(model),
            );
        }
        Ok(())
    };

    let mut rows_needed = 0usize;
    let mut cols = 0usize;
    let mut rows: Vec<Vec<f64>> = Vec::new();

    for line in lines {
        if rows_needed > 0 {
            let row: Vec<f64> = line
                .split_whitespace()
                .map(|v| v.parse().map_err(|_| bad(format!("bad rate {v:?}"))))
                .collect::<Result<_>>()?;
            if row.len() != cols {
                return Err(bad(format!(
                    "routing row has {} cells, want {cols}",
                    row.len()
                )));
            }
            rows.push(row);
            rows_needed -= 1;
            if rows_needed == 0 {
                let matrix = RoutingMatrix::new(std::mem::take(&mut rows))?;
                match pending_model.take() {
                    Some((model, share)) => model_routing.push(ModelRouting {
                        model,
                        routing: matrix,
                        share,
                    }),
                    None => routing = Some(matrix),
                }
            }
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("group") => {
                finish_group(current.take(), &mut groups)?;
                let phase = match parts.next() {
                    Some("prefill") => Phase::Prefill,
                    Some("decode") => Phase::Decode,
                    other => return Err(bad(format!("bad phase {other:?}"))),
                };
                let tp = parse_kv(parts.next(), "tp").map_err(bad)?;
                let pp = parse_kv(parts.next(), "pp").map_err(bad)?;
                // Optional model tag; absent on (and before) single-model
                // plans, where the default identity ModelId(0) applies.
                let model = match parts.next() {
                    Some(tok) => ModelId(
                        tok.strip_prefix("model=")
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| bad(format!("expected model=<n>, got {tok:?}")))?,
                    ),
                    None => ModelId(0),
                };
                current = Some((phase, tp, pp, model, Vec::new()));
            }
            Some("stage") => {
                let (_, _, _, _, stages) = current
                    .as_mut()
                    .ok_or_else(|| bad("stage before any group".into()))?;
                let layers = parse_kv(parts.next(), "layers").map_err(bad)?;
                let gpus_str = parts
                    .next()
                    .and_then(|s| s.strip_prefix("gpus="))
                    .ok_or_else(|| bad("stage missing gpus=".into()))?;
                let gpus: Vec<GpuId> = gpus_str
                    .split(',')
                    .map(|v| {
                        v.parse::<u32>()
                            .map(GpuId)
                            .map_err(|_| bad(format!("bad gpu id {v:?}")))
                    })
                    .collect::<Result<_>>()?;
                stages.push(StageSpec { gpus, layers });
            }
            Some("routing") => {
                finish_group(current.take(), &mut groups)?;
                if routing.is_some() {
                    return Err(bad("duplicate aggregate routing section".into()));
                }
                (rows_needed, cols) = parse_dims(parts.next()).map_err(bad)?;
            }
            Some("model") => {
                if routing.is_none() {
                    return Err(bad("model routing before aggregate routing".into()));
                }
                let id: u32 = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("model missing id".into()))?;
                let share: f64 = parts
                    .next()
                    .and_then(|t| t.strip_prefix("share="))
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("model missing share=".into()))?;
                if parts.next() != Some("routing") {
                    return Err(bad("model line missing routing section".into()));
                }
                pending_model = Some((ModelId(id), share));
                (rows_needed, cols) = parse_dims(parts.next()).map_err(bad)?;
            }
            other => return Err(bad(format!("unexpected token {other:?}"))),
        }
    }
    if rows_needed > 0 {
        return Err(bad("truncated routing matrix".into()));
    }
    let routing = routing.ok_or_else(|| bad("missing routing section".into()))?;
    if model_routing.is_empty() {
        return DeploymentPlan::new_multi(
            groups,
            vec![ModelRouting {
                model: ModelId(0),
                routing,
                share: 1.0,
            }],
        );
    }
    // On a multi-model plan the aggregate section is redundant: it must be
    // the block-diagonal share x routing that `new_multi` derives.
    let plan = DeploymentPlan::new_multi(groups, model_routing)?;
    let derived = &plan.routing;
    let agrees = (derived.num_prefill(), derived.num_decode())
        == (routing.num_prefill(), routing.num_decode())
        && (0..routing.num_prefill()).all(|i| {
            (0..routing.num_decode())
                .all(|j| (derived.rate(i, j) - routing.rate(i, j)).abs() <= 1e-6)
        });
    if !agrees {
        return Err(bad(
            "aggregate routing disagrees with the per-model shares and routing".into(),
        ));
    }
    Ok(plan)
}

fn parse_dims(token: Option<&str>) -> std::result::Result<(usize, usize), String> {
    let dims = token.ok_or("routing missing dims")?;
    let (m, n) = dims
        .split_once('x')
        .ok_or_else(|| format!("bad routing dims {dims:?}"))?;
    let rows: usize = m.parse().map_err(|_| format!("bad rows {m:?}"))?;
    let cols: usize = n.parse().map_err(|_| format!("bad cols {n:?}"))?;
    if rows == 0 || cols == 0 {
        return Err("routing dims must be positive".into());
    }
    Ok((rows, cols))
}

fn parse_kv(token: Option<&str>, key: &str) -> std::result::Result<usize, String> {
    token
        .and_then(|t| t.strip_prefix(key))
        .and_then(|t| t.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("expected {key}=<n>, got {token:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> DeploymentPlan {
        let stage = |ids: &[u32], layers: usize| StageSpec {
            gpus: ids.iter().map(|&i| GpuId(i)).collect(),
            layers,
        };
        let groups = vec![
            GroupSpec::new(
                Phase::Prefill,
                ParallelConfig::new(2, 2).unwrap(),
                vec![stage(&[0, 1], 25), stage(&[2, 3], 15)],
            )
            .unwrap(),
            GroupSpec::new(
                Phase::Decode,
                ParallelConfig::new(4, 1).unwrap(),
                vec![stage(&[4, 5, 6, 7], 40)],
            )
            .unwrap(),
        ];
        let routing = RoutingMatrix::new(vec![vec![1.0]]).unwrap();
        DeploymentPlan::new(groups, routing).unwrap()
    }

    #[test]
    fn round_trips() {
        let plan = sample_plan();
        let text = to_text(&plan);
        let back = from_text(&text).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn round_trips_fractional_routing() {
        let g = |phase, id| GroupSpec::single_stage(phase, vec![GpuId(id)], 40).unwrap();
        let plan = DeploymentPlan::new(
            vec![
                g(Phase::Prefill, 0),
                g(Phase::Decode, 1),
                g(Phase::Decode, 2),
            ],
            RoutingMatrix::new(vec![vec![0.125, 0.875]]).unwrap(),
        )
        .unwrap();
        let back = from_text(&to_text(&plan)).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert!(from_text("").is_err());
        assert!(from_text("not a plan").is_err());
        let good = to_text(&sample_plan());
        // corrupt the header
        assert!(from_text(&good.replace("v1", "v9")).is_err());
        // truncate the routing matrix
        let truncated: String = good
            .lines()
            .take(good.lines().count() - 1)
            .collect::<Vec<_>>()
            .join("\n");
        assert!(from_text(&truncated).is_err());
        // bad gpu id
        assert!(from_text(&good.replace("gpus=0,1", "gpus=0,x")).is_err());
        // stage before group
        assert!(from_text(&format!("{HEADER}\nstage layers=1 gpus=0")).is_err());
    }

    #[test]
    fn text_is_stable_and_readable() {
        let text = to_text(&sample_plan());
        assert!(text.starts_with(HEADER));
        assert!(text.contains("group prefill tp=2 pp=2"));
        assert!(text.contains("stage layers=25 gpus=0,1"));
        assert!(text.contains("routing 1x1"));
    }

    /// A plan file written before multi-model support (no `model=` tokens,
    /// no per-model sections) must parse with every group on the default
    /// `ModelId(0)` — and single-model plans must keep writing that exact
    /// shape.
    #[test]
    fn legacy_fixture_parses_to_default_model() {
        let fixture = "thunderserve-plan v1\n\
            group prefill tp=2 pp=2\n\
            stage layers=25 gpus=0,1\n\
            stage layers=15 gpus=2,3\n\
            group decode tp=4 pp=1\n\
            stage layers=40 gpus=4,5,6,7\n\
            routing 1x1\n\
            1.000000000000\n";
        let plan = from_text(fixture).unwrap();
        assert!(!plan.is_multi_model());
        assert!(plan.groups.iter().all(|g| g.model == ModelId(0)));
        assert_eq!(plan.models(), vec![ModelId(0)]);
        // The legacy byte shape is also what we still write for this plan.
        assert_eq!(to_text(&plan), fixture);
    }

    fn multi_plan() -> DeploymentPlan {
        let g = |phase, id, model| {
            GroupSpec::single_stage(phase, vec![GpuId(id)], 40)
                .unwrap()
                .with_model(ModelId(model))
        };
        DeploymentPlan::new_multi(
            vec![
                g(Phase::Prefill, 0, 1),
                g(Phase::Decode, 1, 1),
                g(Phase::Prefill, 2, 2),
                g(Phase::Decode, 3, 2),
                g(Phase::Decode, 4, 2),
            ],
            vec![
                ModelRouting {
                    model: ModelId(1),
                    routing: RoutingMatrix::uniform(1, 1),
                    share: 0.25,
                },
                ModelRouting {
                    model: ModelId(2),
                    routing: RoutingMatrix::new(vec![vec![0.125, 0.875]]).unwrap(),
                    share: 0.75,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn multi_model_plan_round_trips() {
        let plan = multi_plan();
        let text = to_text(&plan);
        assert!(text.contains("group prefill tp=1 pp=1 model=1"));
        assert!(text.contains("model 2 share=0.750000000000 routing 1x2"));
        let back = from_text(&text).unwrap();
        assert_eq!(plan.groups, back.groups);
        assert_eq!(plan.model_routing.len(), back.model_routing.len());
        for (a, b) in plan.model_routing.iter().zip(&back.model_routing) {
            assert_eq!(a.model, b.model);
            assert!((a.share - b.share).abs() < 1e-9);
            for i in 0..a.routing.num_prefill() {
                for j in 0..a.routing.num_decode() {
                    assert!((a.routing.rate(i, j) - b.routing.rate(i, j)).abs() < 1e-9);
                }
            }
        }
    }

    /// Model sections that `DeploymentPlan::new_multi` would reject do not
    /// parse either.
    #[test]
    fn rejects_model_sections_new_multi_rejects() {
        let good = to_text(&multi_plan());
        from_text(&good).unwrap();
        let share =
            |from: &str, to: &str| good.replace(&format!("share={from}"), &format!("share={to}"));
        for text in [
            share("0.750000000000", "NaN"),
            share("0.750000000000", "-1"),
            share("0.250000000000", "0.05").replace("share=0.750000000000", "share=0.15"),
        ] {
            assert!(from_text(&text).is_err(), "{text}");
        }
        // Two sections for the default model.
        let one_model = format!(
            "{HEADER}\ngroup prefill tp=1 pp=1\nstage layers=1 gpus=0\n\
             group decode tp=1 pp=1\nstage layers=1 gpus=1\nrouting 1x1\n1\n\
             model 0 share=0.5 routing 1x1\n1\nmodel 0 share=0.5 routing 1x1\n1\n"
        );
        assert!(from_text(&one_model).is_err());
        // Model 1's groups with no section of their own, beside a
        // multi-model section and on an otherwise single-model plan.
        let (model_1, rest) = good.split_once("model 1 share").unwrap();
        let orphan = format!(
            "{model_1}model 2 share=1.0{}",
            rest.split_once("model 2 share=0.750000000000").unwrap().1
        );
        assert!(from_text(&orphan).is_err(), "{orphan}");
        assert!(from_text(model_1).is_err(), "{model_1}");
        // An aggregate that disagrees with share x routing: swap model 2's
        // two aggregate cells.
        let swapped = good
            .replace("0.093750000000", "X")
            .replace("0.656250000000", "0.093750000000")
            .replace('X', "0.656250000000");
        assert_ne!(swapped, good);
        assert!(from_text(&swapped).is_err(), "{swapped}");
    }

    #[test]
    fn rejects_malformed_model_sections() {
        let good = to_text(&multi_plan());
        // bad model token on a group line
        assert!(from_text(&good.replace("model=1", "model=x")).is_err());
        // per-model section with wrong dimensions
        assert!(from_text(&good.replace(
            "share=0.750000000000 routing 1x2",
            "share=0.750000000000 routing 2x2\n0.5 0.5"
        ))
        .is_err());
        // per-model section before the aggregate routing
        assert!(from_text(&format!(
            "{HEADER}\ngroup prefill tp=1 pp=1\nstage layers=1 gpus=0\nmodel 1 share=1.0 routing 1x1\n1\n"
        ))
        .is_err());
    }
}
