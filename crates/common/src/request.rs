//! Inference requests.

use crate::ids::ModelId;
use crate::{RequestId, SimTime};

/// A single serving request: a prompt of `prompt_len` tokens arriving at
/// `arrival`, for which `output_len` tokens must be generated.
///
/// The output length is carried with the request because the simulator (like
/// the paper's DistServe-derived simulator) replays workloads whose response
/// lengths are drawn up front from the workload distribution.
///
/// ```
/// use ts_common::{Request, RequestId, SimTime};
/// let r = Request::new(RequestId(1), SimTime::ZERO, 512, 16);
/// assert_eq!(r.total_tokens(), 528);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request {
    /// Unique id.
    pub id: RequestId,
    /// Arrival instant.
    pub arrival: SimTime,
    /// Prompt (input) length in tokens. Always at least 1.
    pub prompt_len: u32,
    /// Number of tokens to generate. Always at least 1 (the first token is
    /// produced by prefill; subsequent ones by decode).
    pub output_len: u32,
    /// The model this request is addressed to. [`Request::new`] sets
    /// [`ModelId`]`(0)`, the single-model identity; the trace format
    /// (`ts_workload::trace`) carries no model column.
    pub model: ModelId,
}

impl Request {
    /// Creates a request, clamping lengths up to 1 token each.
    pub fn new(id: RequestId, arrival: SimTime, prompt_len: u32, output_len: u32) -> Self {
        Request {
            id,
            arrival,
            prompt_len: prompt_len.max(1),
            output_len: output_len.max(1),
            model: ModelId(0),
        }
    }

    /// The same request addressed to `model` (builder style).
    pub fn with_model(mut self, model: ModelId) -> Self {
        self.model = model;
        self
    }

    /// Prompt plus generated tokens.
    #[inline]
    pub fn total_tokens(&self) -> u64 {
        self.prompt_len as u64 + self.output_len as u64
    }

    /// Number of decode *steps* this request needs after prefill (the first
    /// output token comes out of prefill itself).
    #[inline]
    pub fn decode_steps(&self) -> u32 {
        self.output_len.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_clamped_to_one() {
        let r = Request::new(RequestId(0), SimTime::ZERO, 0, 0);
        assert_eq!(r.prompt_len, 1);
        assert_eq!(r.output_len, 1);
        assert_eq!(r.decode_steps(), 0);
    }

    #[test]
    fn decode_steps_excludes_first_token() {
        let r = Request::new(RequestId(0), SimTime::ZERO, 100, 10);
        assert_eq!(r.decode_steps(), 9);
    }
}
