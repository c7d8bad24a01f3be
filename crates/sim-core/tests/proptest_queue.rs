//! Model property test: `EventQueue` must pop exactly the `(time, payload)`
//! sequence of a naive oracle over arbitrary push/pop interleavings,
//! including same-time bursts (zero-delta events), far-future pushes and
//! several thousand live events.
//!
//! The oracle is a `Vec` that pops the minimum `(time, insertion index)`
//! by linear scan. `(at, seq)` keys are unique and totally ordered, so any
//! correct queue produces that one pop sequence.

use proptest::prelude::*;
use sim_core::engine::EventQueue;
use sim_core::time::SimTime;

/// One step of an interleaving: push an event at a time offset, or pop.
#[derive(Clone, Debug)]
enum Step {
    /// Push at `base + delta` where `delta` may be zero (tie burst) or
    /// huge (far-future timer).
    Push(u64),
    Pop,
    /// Pop `n` times in a row.
    PopMany(u8),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        // Dense near-term pushes.
        (0u64..1_000_000).prop_map(Step::Push),
        // Zero-delta events (exact ties with the running base time).
        Just(Step::Push(0)),
        // Far-future pushes: seconds to minutes ahead.
        (1_000_000_000u64..120_000_000_000).prop_map(Step::Push),
        (0u64..1_000_000).prop_map(Step::Push),
        Just(Step::Pop),
        (1u8..40).prop_map(Step::PopMany),
    ]
}

/// The oracle: pending events as `(time << 64) | payload` keys in no
/// particular order. The payload doubles as the insertion index, so the
/// minimum key is the event the queue must pop next.
#[derive(Default)]
struct Model {
    keys: Vec<u128>,
    /// Index of the minimum key, kept up to date on every push and pop.
    min: Option<usize>,
}

fn key(at: SimTime, payload: u64) -> u128 {
    (u128::from(at.0) << 64) | u128::from(payload)
}

fn unkey(k: u128) -> (SimTime, u64) {
    (SimTime((k >> 64) as u64), k as u64)
}

impl Model {
    fn push(&mut self, at: SimTime, payload: u64) {
        let k = key(at, payload);
        if self.min.is_none_or(|m| k < self.keys[m]) {
            self.min = Some(self.keys.len());
        }
        self.keys.push(k);
    }

    /// Removes the minimum key, then finds the next one by linear scan.
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let k = self.keys.swap_remove(self.min?);
        self.min = (0..self.keys.len()).min_by_key(|&i| self.keys[i]);
        Some(unkey(k))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.min.map(|m| unkey(self.keys[m]).0)
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    /// Everything still pending, in pop order: repeated minimum
    /// extraction is a sort.
    fn into_sorted(mut self) -> Vec<(SimTime, u64)> {
        self.keys.sort_unstable();
        self.keys.into_iter().map(unkey).collect()
    }
}

/// Runs an interleaving against the queue and the oracle and asserts
/// pop-for-pop equality. `base` advances with every push so schedules
/// drift forward like real simulations do.
fn run_model(steps: &[Step]) -> Result<(), TestCaseError> {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut model = Model::default();
    let mut base: u64 = 0;
    let mut payload: u64 = 0;
    for s in steps {
        match s {
            Step::Push(delta) => {
                // Every 7th push repeats the previous timestamp exactly,
                // forcing FIFO tie-breaks independent of `delta`.
                if !payload.is_multiple_of(7) {
                    base = base.wrapping_add(*delta) % 600_000_000_000;
                }
                q.push(SimTime(base), payload);
                model.push(SimTime(base), payload);
                payload += 1;
            }
            Step::Pop => {
                prop_assert_eq!(q.pop(), model.pop());
                prop_assert_eq!(q.len(), model.len());
            }
            Step::PopMany(n) => {
                for _ in 0..*n {
                    prop_assert_eq!(q.pop(), model.pop());
                }
            }
        }
        prop_assert_eq!(q.peek_time(), model.peek_time());
    }
    // Drain both to the end.
    prop_assert_eq!(q.len(), model.len());
    for want in model.into_sorted() {
        prop_assert_eq!(q.pop(), Some(want));
    }
    prop_assert_eq!(q.pop(), None);
    prop_assert!(q.is_empty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random interleavings pop in oracle order.
    #[test]
    fn queue_matches_model(steps in proptest::collection::vec(step(), 1..400)) {
        run_model(&steps)?;
    }

    /// Push-heavy interleavings with several thousand live events, then a
    /// complete drain.
    #[test]
    fn queue_matches_model_at_scale(
        deltas in proptest::collection::vec(0u64..50_000_000, 3000..4000),
        far in proptest::collection::vec(1_000_000_000u64..300_000_000_000, 0..64),
    ) {
        let mut steps: Vec<Step> = deltas.into_iter().map(Step::Push).collect();
        // Sprinkle far-future events at deterministic positions.
        for (i, f) in far.into_iter().enumerate() {
            steps.insert((i * 53) % steps.len(), Step::Push(f));
        }
        steps.push(Step::PopMany(200));
        run_model(&steps)?;
    }
}
