//! Prometheus text-exposition export of a [`MetricsSnapshot`] and a
//! parser-free line-format conformance validator.
//!
//! The workspace has no Prometheus client crate (and must not grow one),
//! so the exporter writes exposition-format text by hand and the validator
//! exists to keep the hand-rolled writer honest: it checks HELP/TYPE
//! ordering, metric-name and label well-formedness, label-value escaping,
//! and the summary rules (quantile labels in `[0, 1]`, strictly increasing,
//! then `_sum` and `_count`) — all by scanning lines, never by
//! round-tripping through a parser AST.

use ts_common::SimDuration;

use crate::burn::HealthState;
use crate::snapshot::{MeanPeak, MetricsSnapshot, RolePressure, Summary};

/// The metric families [`render_prometheus`] writes, in order.
pub const FAMILIES: [&str; 13] = [
    "ts_ttft_seconds",
    "ts_e2e_seconds",
    "ts_queue_depth_jobs",
    "ts_batch_occupancy_seqs",
    "ts_requests_total",
    "ts_slo_miss_total",
    "ts_hedges_total",
    "ts_requeues_total",
    "ts_windows_closed_total",
    "ts_ttft_ewma_seconds",
    "ts_e2e_ewma_seconds",
    "ts_slo_burn_rate",
    "ts_health_state",
];

/// Escapes a label value per the exposition format: backslash, double
/// quote and newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// One sample line: metric-name suffix, label text, value text.
type Sample = (&'static str, String, String);

fn seconds(d: SimDuration) -> String {
    format!("{:.9}", d.as_secs_f64())
}

/// A latency population's summary samples (seconds).
fn summary(s: &Summary) -> Vec<Sample> {
    let quantiles = s.quantiles.iter();
    let quantiles = quantiles.map(|&(q, v)| ("", format!("quantile=\"{q}\""), seconds(v)));
    let sum = ("_sum", String::new(), seconds(s.sum));
    quantiles
        .chain([sum, ("_count", String::new(), s.count.to_string())])
        .collect()
}

/// One pressure signal's samples, labelled by role and statistic.
fn pressure(s: &MetricsSnapshot, signal: fn(&RolePressure) -> MeanPeak) -> Vec<Sample> {
    let mut samples = Vec::new();
    for p in &s.pressure {
        let (m, role) = (signal(p), escape_label(&p.role.to_string()));
        for (stat, v) in [("mean", m.mean), ("peak", m.peak)] {
            let labels = format!("role=\"{role}\",stat=\"{stat}\"");
            samples.push(("", labels, format!("{v:.9}")));
        }
    }
    samples
}

/// An unlabelled single-sample family.
fn scalar(value: impl ToString) -> Vec<Sample> {
    vec![("", String::new(), value.to_string())]
}

/// Renders a snapshot in Prometheus text exposition format: the
/// [`FAMILIES`], in order.
pub fn render_prometheus(s: &MetricsSnapshot) -> String {
    let t = &s.totals;
    let outcomes = [
        ("finished", t.finished),
        ("dropped", t.dropped),
        ("rejected", t.rejected),
    ];
    let outcomes = outcomes.map(|(o, n)| ("", format!("outcome=\"{o}\""), n.to_string()));
    let ewma = |v: Option<f64>| v.map_or(Vec::new(), |v| scalar(format!("{v:.9}")));
    let (mut burn, mut state) = (Vec::new(), Vec::new());
    for h in &s.health {
        let t = h.tenant.map_or("global".to_string(), |m| m.0.to_string());
        let t = escape_label(&t);
        for (window, rate) in [("fast", h.fast_burn), ("slow", h.slow_burn)] {
            let labels = format!("tenant=\"{t}\",window=\"{window}\"");
            burn.push(("", labels, format!("{rate:.9}")));
        }
        let level = match h.state {
            HealthState::Healthy => 0,
            HealthState::Warning => 1,
            HealthState::Critical => 2,
        };
        state.push(("", format!("tenant=\"{t}\""), level.to_string()));
    }
    let per_role = "per role: time-weighted mean and peak.";
    let families: [(&str, &str, Vec<Sample>); 13] = [
        ("Time to first token.", "summary", summary(&s.ttft)),
        ("End-to-end request latency.", "summary", summary(&s.e2e)),
        (
            &format!("Prefill queue depth {per_role}"),
            "gauge",
            pressure(s, |p| p.queue_depth),
        ),
        (
            &format!("Decode batch occupancy {per_role}"),
            "gauge",
            pressure(s, |p| p.batch_occupancy),
        ),
        ("Terminal request outcomes.", "counter", outcomes.to_vec()),
        (
            "Completed requests that missed their SLO.",
            "counter",
            scalar(t.slo_miss),
        ),
        ("Hedged duplicate launches.", "counter", scalar(s.hedges)),
        (
            "Requests requeued by fault recovery.",
            "counter",
            scalar(s.requeues),
        ),
        (
            "Fixed aggregation windows closed.",
            "counter",
            scalar(s.windows_closed()),
        ),
        ("Smoothed time to first token.", "gauge", ewma(s.ttft_ewma)),
        ("Smoothed end-to-end latency.", "gauge", ewma(s.e2e_ewma)),
        ("SLO burn rate per tenant and window.", "gauge", burn),
        (
            "Distilled health (0 healthy, 1 warning, 2 critical).",
            "gauge",
            state,
        ),
    ];
    let mut out = String::new();
    for (name, (help, kind, samples)) in FAMILIES.iter().zip(families) {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        for (suffix, labels, value) in samples {
            let labels = if labels.is_empty() {
                labels
            } else {
                format!("{{{labels}}}")
            };
            out.push_str(&format!("{name}{suffix}{labels} {value}\n"));
        }
    }
    out
}

/// Structural statistics of a validated exposition document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpositionStats {
    /// Metric family names (HELP/TYPE pairs), in document order.
    pub families: Vec<String>,
    /// Sample lines.
    pub samples: usize,
}

fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Splits a sample line into `(metric name, label text, value text)`.
/// The label text excludes the surrounding braces and is empty when the
/// sample carries no labels.
fn split_sample(line: &str) -> Result<(&str, &str, &str), String> {
    if let Some(open) = line.find('{') {
        let name = &line[..open];
        let close = line
            .rfind('}')
            .ok_or_else(|| format!("unclosed label braces: {line:?}"))?;
        if close < open {
            return Err(format!("mismatched label braces: {line:?}"));
        }
        let labels = &line[open + 1..close];
        let rest = line[close + 1..].trim_start();
        Ok((name, labels, rest))
    } else {
        let (name, value) = line
            .split_once(' ')
            .ok_or_else(|| format!("sample without value: {line:?}"))?;
        Ok((name, "", value.trim_start()))
    }
}

/// Validates the label text of one sample, returning the value of the
/// `quantile` label if present.
fn validate_labels(labels: &str, line_no: usize) -> Result<Option<String>, String> {
    let mut quantile = None;
    let bytes = labels.as_bytes();
    let mut pos = 0;
    while pos < bytes.len() {
        let rest = &labels[pos..];
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {line_no}: label without '='"))?;
        let key = &rest[..eq];
        if !valid_label_name(key) {
            return Err(format!("line {line_no}: bad label name {key:?}"));
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("line {line_no}: label value must be quoted"));
        }
        // Scan the quoted value, honouring escapes.
        let mut value = String::new();
        let mut chars = after[1..].char_indices();
        let mut consumed = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    consumed = Some(i + 1);
                    break;
                }
                '\\' => match chars.next() {
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, 'n')) => value.push('\n'),
                    other => {
                        return Err(format!(
                            "line {line_no}: bad escape in label value ({other:?})"
                        ))
                    }
                },
                '\n' => {
                    return Err(format!("line {line_no}: raw newline in label value"));
                }
                _ => value.push(c),
            }
        }
        let consumed =
            consumed.ok_or_else(|| format!("line {line_no}: unterminated label value"))?;
        if key == "quantile" {
            quantile = Some(value);
        }
        pos += eq + 1 + 1 + consumed;
        // Optional comma between labels (trailing comma is legal).
        if labels[pos..].starts_with(',') {
            pos += 1;
        } else if !labels[pos..].is_empty() {
            return Err(format!("line {line_no}: expected ',' between labels"));
        }
    }
    Ok(quantile)
}

fn parse_value(v: &str, line_no: usize) -> Result<f64, String> {
    match v {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        _ => v
            .parse::<f64>()
            .map_err(|_| format!("line {line_no}: bad sample value {v:?}")),
    }
}

/// State of the summary family currently being scanned.
#[derive(Default)]
struct SummaryCheck {
    last_quantile: Option<f64>,
    sum: bool,
    count: bool,
}

impl SummaryCheck {
    fn finish(&self, family: &str) -> Result<(), String> {
        match (self.sum, self.count) {
            (true, true) => Ok(()),
            (false, _) => Err(format!("summary {family}: missing _sum")),
            (_, false) => Err(format!("summary {family}: missing _count")),
        }
    }
}

/// Validates Prometheus text-exposition output line by line.
///
/// Enforced rules: every sample belongs to a family announced by a
/// preceding `# HELP`/`# TYPE` pair (in that order, exactly once per
/// family); metric and label names are well-formed; label values are
/// quoted with only `\\`, `\"` and `\n` escapes; sample values parse. A
/// summary family's samples are its quantiles, each labelled `quantile` in
/// `[0, 1]` and strictly increasing, plus its `_sum` and `_count`, both
/// required.
pub fn validate_exposition(text: &str) -> Result<ExpositionStats, String> {
    let mut stats = ExpositionStats {
        families: Vec::new(),
        samples: 0,
    };
    let mut pending_help: Option<String> = None;
    let mut family: Option<(String, String)> = None; // (name, type)
    let mut summary = SummaryCheck::default();

    let close_family =
        |family: &Option<(String, String)>, summary: &SummaryCheck| -> Result<(), String> {
            match family {
                Some((name, kind)) if kind == "summary" => summary.finish(name),
                _ => Ok(()),
            }
        };

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, _help) = rest
                .split_once(' ')
                .ok_or_else(|| format!("line {line_no}: HELP without docstring"))?;
            if !valid_metric_name(name) {
                return Err(format!("line {line_no}: bad metric name {name:?}"));
            }
            if stats.families.iter().any(|s| s == name) {
                return Err(format!("line {line_no}: family {name} repeated"));
            }
            close_family(&family, &summary)?;
            family = None;
            summary = SummaryCheck::default();
            pending_help = Some(name.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| format!("line {line_no}: TYPE without a type"))?;
            if pending_help.as_deref() != Some(name) {
                return Err(format!(
                    "line {line_no}: TYPE {name} must directly follow its HELP"
                ));
            }
            if !matches!(kind, "counter" | "gauge" | "summary" | "untyped") {
                return Err(format!("line {line_no}: unknown metric type {kind:?}"));
            }
            pending_help = None;
            stats.families.push(name.to_string());
            family = Some((name.to_string(), kind.to_string()));
            continue;
        }
        if line.starts_with('#') {
            // Free-form comment.
            continue;
        }
        // A sample line.
        let (fam_name, fam_kind) = family
            .as_ref()
            .ok_or_else(|| format!("line {line_no}: sample before any HELP/TYPE"))?;
        let (name, labels, value) = split_sample(line)?;
        if !valid_metric_name(name) {
            return Err(format!("line {line_no}: bad metric name {name:?}"));
        }
        let is_summary = fam_kind == "summary";
        let suffix = name.strip_prefix(fam_name.as_str());
        let member = match suffix {
            Some("") => true,
            Some("_sum" | "_count") => is_summary,
            _ => false,
        };
        if !member {
            return Err(format!(
                "line {line_no}: sample {name} outside family {fam_name}"
            ));
        }
        let quantile = validate_labels(labels, line_no)?;
        parse_value(value, line_no)?;
        stats.samples += 1;
        if !is_summary {
            continue;
        }
        match suffix {
            Some("_sum") => summary.sum = true,
            Some("_count") => summary.count = true,
            _ => {
                let q = quantile
                    .ok_or_else(|| format!("line {line_no}: summary sample without quantile"))?;
                let q = parse_value(&q, line_no)?;
                if !(0.0..=1.0).contains(&q) {
                    return Err(format!("line {line_no}: quantile {q} outside [0, 1]"));
                }
                if summary.last_quantile.is_some_and(|prev| q <= prev) {
                    return Err(format!("line {line_no}: quantile {q} not increasing"));
                }
                summary.last_quantile = Some(q);
            }
        }
    }
    if pending_help.is_some() {
        return Err("document ends with a HELP line missing its TYPE".into());
    }
    close_family(&family, &summary)?;
    Ok(stats)
}

/// Validates an exposition [`render_prometheus`] wrote: it must pass
/// [`validate_exposition`] and carry exactly the [`FAMILIES`], in order.
pub fn validate_export(text: &str) -> Result<ExpositionStats, String> {
    let stats = validate_exposition(text)?;
    if stats.families != FAMILIES {
        return Err(format!(
            "families {:?} are not the exporter's {FAMILIES:?}",
            stats.families
        ));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::burn::BurnMonitor;
    use crate::event::Role;
    use crate::snapshot::{RolePressure, WindowCounts};
    use ts_common::{ModelId, SimDuration, SimTime};

    fn multi_tenant_snapshot() -> MetricsSnapshot {
        let ms = SimDuration::from_millis;
        let mut tight = BurnMonitor::new();
        tight.observe(false);
        let counts = WindowCounts {
            arrived: 40,
            finished: 34,
            dropped: 6,
            slo_miss: 3,
            ..WindowCounts::default()
        };
        let stat = |mean, peak| MeanPeak { mean, peak };
        MetricsSnapshot {
            at: SimTime::from_secs_f64(5.2),
            ttft: Summary {
                count: 34,
                sum: ms(3060),
                quantiles: vec![(0.5, ms(90)), (0.9, ms(90)), (0.99, ms(90))],
            },
            e2e: Summary {
                count: 0,
                sum: SimDuration::ZERO,
                quantiles: Vec::new(),
            },
            ttft_ewma: Some(0.09),
            e2e_ewma: None,
            pressure: vec![RolePressure {
                role: Role::Prefill,
                queue_depth: stat(1.5, 4.0),
                batch_occupancy: stat(0.0, 0.0),
            }],
            totals: counts,
            hedges: 0,
            requeues: 2,
            windows: vec![counts; 6],
            health: vec![
                BurnMonitor::new().signal(None),
                tight.signal(Some(ModelId(1))),
            ],
        }
    }

    #[test]
    fn exporter_output_conforms_round_trip() {
        let text = render_prometheus(&multi_tenant_snapshot());
        validate_export(&text).expect("exporter must conform");
        // Both tenants and the global signal appear.
        assert!(text.contains("ts_slo_burn_rate{tenant=\"global\",window=\"fast\"}"));
        assert!(text.contains("ts_health_state{tenant=\"1\"} 2"));
        assert!(text.contains("ts_requests_total{outcome=\"dropped\"} 6"));
        assert!(text.contains("ts_ttft_seconds{quantile=\"0.99\"} 0.090000000"));
        assert!(text.contains("ts_queue_depth_jobs{role=\"prefill\",stat=\"peak\"} 4.0"));
        assert!(text.contains("ts_windows_closed_total 5"));
        // An empty population is a summary of _sum and _count alone.
        assert!(text.contains("ts_e2e_seconds_count 0\n# HELP"));
    }

    const SUMMARY: &str = "# HELP s d\n# TYPE s summary\n";

    #[test]
    fn validator_rejects_a_quantile_outside_the_unit_interval() {
        let bad = format!("{SUMMARY}s{{quantile=\"1.5\"}} 2\ns_sum 1\ns_count 1\n");
        let err = validate_exposition(&bad).unwrap_err();
        assert!(err.contains("outside [0, 1]"), "{err}");
    }

    #[test]
    fn validator_rejects_non_monotone_quantiles() {
        let bad = format!(
            "{SUMMARY}s{{quantile=\"0.9\"}} 2\ns{{quantile=\"0.9\"}} 3\ns_sum 1\ns_count 1\n"
        );
        let err = validate_exposition(&bad).unwrap_err();
        assert!(err.contains("not increasing"), "{err}");
    }

    #[test]
    fn validator_rejects_a_summary_sample_without_quantile() {
        let bad = format!("{SUMMARY}s 2\ns_sum 1\ns_count 1\n");
        let err = validate_exposition(&bad).unwrap_err();
        assert!(err.contains("without quantile"), "{err}");
    }

    #[test]
    fn validator_requires_summary_sum_and_count() {
        let no_count = format!("{SUMMARY}s{{quantile=\"0.5\"}} 2\ns_sum 1\n");
        let err = validate_exposition(&no_count).unwrap_err();
        assert!(err.contains("missing _count"), "{err}");
        let no_sum = format!("{SUMMARY}s_count 1\n# HELP g d\n# TYPE g gauge\ng 1\n");
        let err = validate_exposition(&no_sum).unwrap_err();
        assert!(err.contains("missing _sum"), "{err}");
    }

    #[test]
    fn validator_keeps_sum_and_count_to_summaries() {
        let bad = "# HELP g d\n# TYPE g gauge\ng_count 1\n";
        let err = validate_exposition(bad).unwrap_err();
        assert!(err.contains("outside family"), "{err}");
        let bucket = format!("{SUMMARY}s_bucket{{le=\"1\"}} 1\ns_sum 1\ns_count 1\n");
        assert!(validate_exposition(&bucket).is_err());
    }

    #[test]
    fn validator_rejects_type_before_help() {
        let bad = "# TYPE x counter\nx 1\n";
        assert!(validate_exposition(bad).is_err());
    }

    #[test]
    fn validator_rejects_bad_escapes_and_accepts_good_ones() {
        let good = "# HELP g d\n# TYPE g gauge\ng{a=\"x\\\\y\\\"z\\n\"} 1\n";
        assert!(validate_exposition(good).is_ok());
        let bad = "# HELP g d\n# TYPE g gauge\ng{a=\"x\\qy\"} 1\n";
        assert!(validate_exposition(bad).is_err());
    }

    #[test]
    fn validator_rejects_samples_outside_their_family() {
        let bad = "# HELP a d\n# TYPE a counter\nb 1\n";
        let err = validate_exposition(bad).unwrap_err();
        assert!(err.contains("outside family"), "{err}");
    }

    #[test]
    fn validator_rejects_repeated_family() {
        let bad = "# HELP a d\n# TYPE a counter\na 1\n# HELP a d\n# TYPE a counter\na 2\n";
        assert!(validate_exposition(bad).is_err());
    }

    #[test]
    fn export_check_rejects_a_dropped_family() {
        let text = render_prometheus(&multi_tenant_snapshot());
        let cut = text.find("# HELP ts_hedges_total").unwrap();
        let end = text.find("# HELP ts_requeues_total").unwrap();
        let dropped = format!("{}{}", &text[..cut], &text[end..]);
        assert!(validate_exposition(&dropped).is_ok());
        let err = validate_export(&dropped).unwrap_err();
        assert!(err.contains("not the exporter's"), "{err}");
    }

    #[test]
    fn escape_label_round_trip() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
