//! The continuous-batching scheduler of one serving replica.
//!
//! Modeled on vLLM-style iteration-level scheduling: the engine runs in
//! *steps*; at every step the batch is re-formed from whatever work exists
//! right now — one decode token for each running request, plus prompt
//! chunks of newly admitted requests (chunked prefill) up to the step's
//! prefill cap.  Requests enter the running set through **admission
//! control** ([`ContinuousBatcher::try_admit`]): a request is admitted only
//! when its worst-case KV footprint (prompt + full output) fits in the
//! replica's remaining KV budget, so the engine can never be forced to
//! preempt mid-decode.  The batcher keeps no queue: requests wait in the
//! serving engine's one FCFS gateway until a replica admits them.
//!
//! The scheduler *conserves* requests and tokens: nothing is dropped,
//! nothing is duplicated, every admitted request eventually decodes
//! exactly its requested output tokens — the invariants pinned by the
//! workspace-level property test.
//!
//! Every replica runs the same step budgets: at most 512 prefill tokens
//! per step, beside one decode token per running request, and at most 32
//! running requests.

use serde::{Deserialize, Serialize};

use crate::metrics::RequestRecord;
use crate::trace::Request;

/// Cap on prefill tokens per step (chunked prefill), so a long prompt
/// cannot starve the decode cadence of running requests.
const MAX_PREFILL_TOKENS: usize = 512;

/// Cap on concurrently running requests (vLLM's `max_num_seqs`): wide
/// decode batches trade decode cadence for throughput, so engines keep the
/// running set bounded and let excess demand queue at the gateway — where
/// an elastic scale-out can still pick it up.
const MAX_RUNNING_REQUESTS: usize = 32;

/// A request inside the running batch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct ActiveRequest {
    request: Request,
    /// When admission control let the request in.
    admitted: f64,
    /// Prompt tokens already prefilled.
    prompt_done: usize,
    /// Output tokens already decoded (the first is produced by the step
    /// that finishes the prefill).
    generated: usize,
    /// When the first output token was produced.
    first_token: Option<f64>,
}

/// What one engine step will execute, as planned by
/// [`ContinuousBatcher::plan_step`]: its two token counts.  Which requests
/// they go to follows from the running set's FCFS order, so
/// [`ContinuousBatcher::commit_step`] re-derives it in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepPlan {
    /// Total prompt tokens this step.
    pub prefill_tokens: usize,
    /// Total decode tokens this step.
    pub decode_tokens: usize,
}

impl StepPlan {
    /// Total tokens the step processes.
    pub fn batch_tokens(&self) -> usize {
        self.prefill_tokens + self.decode_tokens
    }
}

/// Iteration-level scheduler state of one replica.
#[derive(Debug, Clone)]
pub struct ContinuousBatcher {
    /// KV capacity in tokens (from the KV-cache memory model and the
    /// replica's tightest stage).  A request reserves its prompt plus its
    /// full output.
    kv_capacity_tokens: usize,
    running: Vec<ActiveRequest>,
    /// KV tokens reserved by running requests (prompt + full output each).
    reserved_kv_tokens: usize,
    peak_kv_tokens: usize,
    total_prefill_tokens: u64,
    total_decode_tokens: u64,
}

impl ContinuousBatcher {
    /// Create an empty scheduler over `kv_capacity_tokens` KV tokens.
    /// Panics on a zero capacity.
    pub fn new(kv_capacity_tokens: usize) -> Self {
        assert!(
            kv_capacity_tokens > 0,
            "kv_capacity_tokens must be positive"
        );
        ContinuousBatcher {
            kv_capacity_tokens,
            running: Vec::new(),
            reserved_kv_tokens: 0,
            peak_kv_tokens: 0,
            total_prefill_tokens: 0,
            total_decode_tokens: 0,
        }
    }

    /// A request the scheduler can serve: at least one prompt and one
    /// output token (the first output token is produced by the prefill),
    /// and a KV footprint within the replica's budget.  Traces enforce
    /// this already; admission re-checks it so a hand-built `Request`
    /// fails loudly instead of wedging mid-decode.
    fn check_servable(&self, request: &Request) {
        assert!(
            request.prompt_tokens >= 1 && request.output_tokens >= 1,
            "request {} must have ≥ 1 prompt and ≥ 1 output token",
            request.id
        );
        assert!(
            request.total_tokens() <= self.kv_capacity_tokens,
            "request {} needs {} KV tokens but the replica caps at {}",
            request.id,
            request.total_tokens(),
            self.kv_capacity_tokens
        );
    }

    /// Whether any running work exists.
    pub fn has_work(&self) -> bool {
        !self.running.is_empty()
    }

    /// Outstanding work in tokens: un-prefilled prompt plus un-decoded
    /// output across the running requests — the autoscaler's backlog
    /// signal and its scale-in victim-selection key.
    pub fn outstanding_tokens(&self) -> usize {
        self.running
            .iter()
            .map(|a| {
                (a.request.prompt_tokens - a.prompt_done) + (a.request.output_tokens - a.generated)
            })
            .sum()
    }

    /// Largest KV reservation ever held.
    pub fn peak_kv_tokens(&self) -> usize {
        self.peak_kv_tokens
    }

    /// Total prompt tokens prefilled so far.
    pub fn total_prefill_tokens(&self) -> u64 {
        self.total_prefill_tokens
    }

    /// Total output tokens decoded so far.
    pub fn total_decode_tokens(&self) -> u64 {
        self.total_decode_tokens
    }

    /// Admission control: move `request` into the running set at `now` if
    /// the running-set cap and its worst-case KV footprint allow.  Returns
    /// whether the request was admitted.  The caller keeps the queue (the
    /// serving engine's FCFS gateway, where a scale-out can still pick the
    /// request up).
    pub fn try_admit(&mut self, request: Request, now: f64) -> bool {
        self.check_servable(&request);
        let need = request.total_tokens();
        if self.running.len() >= MAX_RUNNING_REQUESTS
            || self.reserved_kv_tokens + need > self.kv_capacity_tokens
        {
            return false;
        }
        self.reserved_kv_tokens += need;
        self.peak_kv_tokens = self.peak_kv_tokens.max(self.reserved_kv_tokens);
        self.running.push(ActiveRequest {
            request,
            admitted: now,
            prompt_done: 0,
            generated: 0,
            first_token: None,
        });
        true
    }

    /// Form the next engine step over the running set: every decoding
    /// request contributes one token, and prompt chunks (FCFS over the
    /// running set) fill the chunked-prefill cap.  Returns `None` when
    /// nothing is running.
    pub fn plan_step(&self) -> Option<StepPlan> {
        let decoding = self
            .running
            .iter()
            .filter(|a| a.prompt_done == a.request.prompt_tokens)
            .count();
        let decode_tokens = decoding;
        let mut prefill_budget = MAX_PREFILL_TOKENS;
        let mut prefill_tokens = 0usize;
        for active in &self.running {
            if prefill_budget == 0 {
                break;
            }
            let chunk = (active.request.prompt_tokens - active.prompt_done).min(prefill_budget);
            prefill_budget -= chunk;
            prefill_tokens += chunk;
        }
        let plan = StepPlan {
            prefill_tokens,
            decode_tokens,
        };
        (plan.batch_tokens() > 0).then_some(plan)
    }

    /// Apply a step planned by [`ContinuousBatcher::plan_step`] that
    /// finished at `end`, in one FCFS pass over the running set: the first
    /// `plan.decode_tokens` decoding requests decode one token each, and
    /// prompt chunks spend `plan.prefill_tokens` on the requests still
    /// prefilling (a prompt that completes produces the request's first
    /// output token in the same step).  Finished requests retire, free
    /// their KV and are handed to `complete` in running-set order.
    ///
    /// # Panics
    ///
    /// If the running set cannot spend both budgets exactly, i.e. `plan`
    /// was not planned on this state.
    pub fn commit_step(
        &mut self,
        plan: StepPlan,
        replica: usize,
        end: f64,
        mut complete: impl FnMut(RequestRecord),
    ) {
        let mut decode_budget = plan.decode_tokens;
        let mut prefill_budget = plan.prefill_tokens;
        self.running.retain_mut(|active| {
            let remaining = active.request.prompt_tokens - active.prompt_done;
            if remaining == 0 {
                if decode_budget > 0 {
                    decode_budget -= 1;
                    active.generated += 1;
                }
            } else if prefill_budget > 0 {
                let chunk = remaining.min(prefill_budget);
                prefill_budget -= chunk;
                active.prompt_done += chunk;
                if chunk == remaining {
                    // Prefill emits the first output token.
                    active.generated = 1;
                    active.first_token = Some(end);
                    self.total_decode_tokens += 1;
                }
            }
            if active.generated < active.request.output_tokens {
                return true;
            }
            self.reserved_kv_tokens -= active.request.total_tokens();
            complete(RequestRecord {
                id: active.request.id,
                replica,
                arrival: active.request.arrival,
                admitted: active.admitted,
                first_token: active.first_token.expect("completed implies first token"),
                completion: end,
                prompt_tokens: active.request.prompt_tokens,
                output_tokens: active.request.output_tokens,
            });
            false
        });
        assert!(
            decode_budget == 0 && prefill_budget == 0,
            "step plan {plan:?} does not match the running set"
        );
        self.total_prefill_tokens += plan.prefill_tokens as u64;
        self.total_decode_tokens += plan.decode_tokens as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(id: u64, arrival: f64, prompt: usize, output: usize) -> Request {
        Request {
            id,
            arrival,
            prompt_tokens: prompt,
            output_tokens: output,
        }
    }

    /// Drive the batcher with 1-second steps until `pending` (FCFS, by
    /// arrival) has been admitted and everything has run; returns the
    /// completion records in completion order.
    fn drain(
        batcher: &mut ContinuousBatcher,
        pending: &[Request],
        mut now: f64,
    ) -> Vec<RequestRecord> {
        let mut records = Vec::new();
        let mut next = 0;
        for _ in 0..100_000 {
            while next < pending.len()
                && pending[next].arrival <= now
                && batcher.try_admit(pending[next], now)
            {
                next += 1;
            }
            match batcher.plan_step() {
                Some(plan) => {
                    now += 1.0;
                    batcher.commit_step(plan, 0, now, |r| records.push(r));
                }
                None if next < pending.len() => now = now.max(pending[next].arrival),
                None => return records,
            }
        }
        panic!("batcher failed to drain");
    }

    #[test]
    fn a_single_request_prefills_then_decodes() {
        let mut b = ContinuousBatcher::new(1_000);
        // 768-token prompt (2 chunked steps at 512), 4 output tokens.
        let records = drain(&mut b, &[request(0, 0.0, 768, 4)], 0.0);
        assert_eq!(records.len(), 1);
        let r = records[0];
        // Steps: prefill 512, prefill 256 (+ first token), 3 decode steps.
        assert_eq!(r.first_token, 2.0);
        assert_eq!(r.completion, 5.0);
        assert_eq!(b.total_prefill_tokens(), 768);
        assert_eq!(b.total_decode_tokens(), 4);
        assert_eq!(b.reserved_kv_tokens, 0);
        assert_eq!(b.peak_kv_tokens(), 772);
    }

    #[test]
    fn decode_has_priority_over_prefill_in_the_budget() {
        let mut b = ContinuousBatcher::new(10_000);
        assert!(b.try_admit(request(0, 0.0, 32, 50), 0.0));
        // First step prefills request 0 entirely.
        let plan = b.plan_step().unwrap();
        assert_eq!(plan.prefill_tokens, 32);
        b.commit_step(plan, 0, 1.0, |_| {});
        // A newcomer's prefill shares the step with the decode, up to the
        // chunked-prefill cap.
        assert!(b.try_admit(request(1, 1.0, 600, 1), 1.0));
        let plan = b.plan_step().unwrap();
        assert_eq!(plan.decode_tokens, 1);
        assert_eq!(plan.prefill_tokens, MAX_PREFILL_TOKENS);
        assert_eq!(plan.batch_tokens(), MAX_PREFILL_TOKENS + 1);
    }

    #[test]
    #[should_panic(expected = "does not match the running set")]
    fn a_plan_the_running_set_cannot_spend_is_rejected() {
        let mut b = ContinuousBatcher::new(1_000);
        assert!(b.try_admit(request(0, 0.0, 8, 4), 0.0));
        // Nothing is decoding yet, so the decode token has no taker.
        let plan = StepPlan {
            prefill_tokens: 8,
            decode_tokens: 1,
        };
        b.commit_step(plan, 0, 1.0, |_| {});
    }

    #[test]
    fn admission_respects_the_kv_budget() {
        // Capacity 100: request 0 (60) admits, request 1 (60) does not fit
        // beside it.
        let mut b = ContinuousBatcher::new(100);
        assert!(b.try_admit(request(0, 0.0, 50, 10), 0.0));
        assert!(!b.try_admit(request(1, 0.0, 50, 10), 0.0));
        assert_eq!(b.running.len(), 1);
        assert_eq!(b.reserved_kv_tokens, 60);
        // Everything still completes once capacity frees up.
        let rest = [request(1, 0.0, 50, 10), request(2, 0.0, 10, 10)];
        let records = drain(&mut b, &rest, 0.0);
        assert_eq!(records.len(), 3);
        assert!(b.peak_kv_tokens() <= 100);
    }

    #[test]
    fn oversized_requests_are_rejected_up_front() {
        let mut b = ContinuousBatcher::new(100);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.try_admit(request(0, 0.0, 90, 20), 0.0);
        }));
        assert!(result.is_err());
    }

    #[test]
    #[should_panic(expected = "≥ 1 prompt and ≥ 1 output token")]
    fn zero_prompt_requests_are_rejected() {
        let mut b = ContinuousBatcher::new(100);
        b.try_admit(request(0, 0.0, 0, 5), 0.0);
    }

    #[test]
    #[should_panic(expected = "≥ 1 prompt and ≥ 1 output token")]
    fn zero_output_requests_are_rejected_by_try_admit() {
        let mut b = ContinuousBatcher::new(100);
        b.try_admit(request(0, 0.0, 5, 0), 0.0);
    }

    #[test]
    fn requests_and_tokens_are_conserved() {
        let mut b = ContinuousBatcher::new(2_000);
        let requests = [
            request(0, 0.0, 40, 8),
            request(1, 0.5, 10, 30),
            request(2, 3.0, 700, 2),
            request(3, 3.0, 7, 7),
        ];
        let records = drain(&mut b, &requests, 0.0);
        assert_eq!(records.len(), 4);
        let mut ids: Vec<u64> = records.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        let expected_prefill: u64 = requests.iter().map(|r| r.prompt_tokens as u64).sum();
        let expected_decode: u64 = requests.iter().map(|r| r.output_tokens as u64).sum();
        assert_eq!(b.total_prefill_tokens(), expected_prefill);
        assert_eq!(b.total_decode_tokens(), expected_decode);
        for r in &records {
            assert!(r.admitted >= r.arrival);
            assert!(r.first_token > r.admitted);
            assert!(r.completion >= r.first_token);
        }
        assert_eq!(b.reserved_kv_tokens, 0);
        assert_eq!(b.outstanding_tokens(), 0);
    }

    #[test]
    fn plan_step_is_none_without_running_work() {
        let mut b = ContinuousBatcher::new(500);
        assert!(b.plan_step().is_none());
        assert!(!b.has_work());
        assert!(b.try_admit(request(0, 5.0, 10, 1), 5.0));
        assert!(b.has_work());
        assert!(b.plan_step().is_some());
    }

    #[test]
    fn outstanding_tokens_track_remaining_work() {
        let mut b = ContinuousBatcher::new(500);
        assert!(b.try_admit(request(0, 0.0, 32, 4), 0.0));
        assert_eq!(b.outstanding_tokens(), 36);
        let plan = b.plan_step().unwrap();
        b.commit_step(plan, 0, 1.0, |_| {}); // prefill done + first token
        assert_eq!(b.outstanding_tokens(), 3);
    }

    #[test]
    #[should_panic(expected = "kv_capacity_tokens must be positive")]
    fn a_zero_kv_capacity_is_rejected() {
        let _ = ContinuousBatcher::new(0);
    }

    #[test]
    fn the_running_set_cap_bounds_concurrency() {
        let mut b = ContinuousBatcher::new(10_000);
        let cap = MAX_RUNNING_REQUESTS as u64;
        for id in 0..cap + 2 {
            assert_eq!(b.try_admit(request(id, 0.0, 8, 4), 0.0), id < cap);
        }
        assert_eq!(b.running.len(), MAX_RUNNING_REQUESTS);
        // A later request gets in only once a completion frees a slot.
        let records = drain(&mut b, &[request(99, 0.0, 8, 4)], 0.0);
        assert_eq!(records.len(), MAX_RUNNING_REQUESTS + 1);
        let late = records.iter().find(|r| r.id == 99).unwrap();
        assert!(late.admitted > 0.0);
    }
}
