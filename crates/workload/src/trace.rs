//! Trace import.
//!
//! Real deployments replay production traces (the paper uses the Azure LLM
//! inference traces). This module defines a minimal interchange format so
//! users can feed their own traces to the simulator and CLI: one request per
//! line, `arrival_seconds,prompt_tokens,output_tokens`, with `#` comments.

use ts_common::{Error, Request, RequestId, Result, SimTime};

/// Parses the CSV-like trace format. Requests are sorted by arrival and get
/// sequential ids.
///
/// # Errors
/// Returns [`Error::InvalidConfig`] naming the first malformed line.
pub fn from_csv(text: &str) -> Result<Vec<Request>> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split(',').map(str::trim);
        let bad = |what: &str| {
            Error::InvalidConfig(format!("trace line {}: {what}: {line:?}", lineno + 1))
        };
        let arrival: f64 = parts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("bad arrival"))?;
        if !arrival.is_finite() || arrival < 0.0 {
            return Err(bad("negative or non-finite arrival"));
        }
        let prompt: u32 = parts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("bad prompt length"))?;
        let output: u32 = parts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("bad output length"))?;
        if parts.next().is_some() {
            return Err(bad("trailing fields"));
        }
        out.push(Request::new(
            RequestId(0),
            SimTime::from_secs_f64(arrival),
            prompt,
            output,
        ));
    }
    out.sort_by_key(|r| r.arrival);
    for (i, r) in out.iter_mut().enumerate() {
        r.id = RequestId(i as u64);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate;
    use crate::spec;
    use ts_common::SimDuration;

    /// Serializes requests to the trace format.
    fn to_csv(requests: &[Request]) -> String {
        let mut out = String::from("# arrival_s,prompt_tokens,output_tokens\n");
        for r in requests {
            out.push_str(&format!(
                "{:.6},{},{}\n",
                r.arrival.as_secs_f64(),
                r.prompt_len,
                r.output_len
            ));
        }
        out
    }

    #[test]
    fn round_trips_generated_traces() {
        let reqs = generate(&spec::coding(3.0), SimDuration::from_secs(60), 3);
        let csv = to_csv(&reqs);
        let back = from_csv(&csv).unwrap();
        assert_eq!(reqs.len(), back.len());
        for (a, b) in reqs.iter().zip(&back) {
            assert_eq!(a.prompt_len, b.prompt_len);
            assert_eq!(a.output_len, b.output_len);
            // arrivals match to the printed microsecond precision
            assert!(
                a.arrival.saturating_since(b.arrival).as_micros() <= 1
                    && b.arrival.saturating_since(a.arrival).as_micros() <= 1
            );
        }
    }

    #[test]
    fn sorts_and_renumbers() {
        let csv = "# header\n5.0,100,10\n1.0,200,20\n\n3.0,300,30\n";
        let reqs = from_csv(csv).unwrap();
        assert_eq!(reqs.len(), 3);
        assert_eq!(reqs[0].prompt_len, 200);
        assert_eq!(reqs[2].prompt_len, 100);
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id.0, i as u64);
        }
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(from_csv("abc,1,2").is_err());
        assert!(from_csv("1.0,x,2").is_err());
        assert!(from_csv("1.0,1").is_err());
        assert!(from_csv("1.0,1,2,3").is_err());
        assert!(from_csv("-1.0,1,2").is_err());
        assert!(from_csv("").unwrap().is_empty());
    }
}
