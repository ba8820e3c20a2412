//! Span arithmetic for the traced run: self time of nested spans, peak
//! concurrency of weighted intervals, the runner's idle per worker thread,
//! and the in-order sink's hold-back.
//!
//! Times are nanoseconds since the traced run's own clock origin.

/// The layer a span times. `Eval` and `Sink` are the runner's containers:
/// one evaluation of a `(point, replication)` item on a worker, and one
/// in-order delivery of a point's replications to the serial sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Eval,
    Sink,
    Enumerate,
    Scenario,
    Testbed,
    Model,
    Contention,
    Aggregate,
    Render,
    Write,
}

impl Layer {
    /// Number of layers, for arrays indexed by `layer as usize`.
    pub const COUNT: usize = Layer::Write as usize + 1;
}

/// One timed call. `work` is a layer-specific count: frames simulated for
/// `Testbed`, bytes rendered for `Render`, zero elsewhere.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub work: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its direct children covers.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let outer = &spans[parent];
            let (start, end) = (span.start.max(outer.start), span.end.min(outer.end));
            if start < end {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut inner)| {
            inner.sort_unstable();
            let mut covered = 0;
            let mut open: Option<(u64, u64)> = None;
            for (start, end) in inner {
                open = match open {
                    Some((from, to)) if start <= to => Some((from, to.max(end))),
                    Some((from, to)) => {
                        covered += to - from;
                        Some((start, end))
                    }
                    None => Some((start, end)),
                };
            }
            if let Some((from, to)) = open {
                covered += to - from;
            }
            span.duration() - covered
        })
        .collect()
}

/// Largest total weight of half-open intervals `[start, end)` open at one
/// instant. Empty intervals never count.
pub fn peak_concurrency(intervals: &[(u64, u64, u64)]) -> u64 {
    // (time, opens, weight): at equal times `false` sorts first, so an
    // interval ending at t is closed before one starting at t opens.
    let mut events: Vec<(u64, bool, u64)> = intervals
        .iter()
        .filter(|(start, end, _)| start < end)
        .flat_map(|&(start, end, weight)| [(start, true, weight), (end, false, weight)])
        .collect();
    events.sort_unstable();
    let (mut open, mut peak) = (0u64, 0u64);
    for (_, opens, weight) in events {
        if opens {
            open += weight;
            peak = peak.max(open);
        } else {
            open -= weight;
        }
    }
    peak
}

/// Runner idle from the top-level spans the worker threads ran, given as
/// `(thread, start, end)`; a thread's spans do not overlap. Returns
/// `(wait, drain)`: the gaps between each thread's consecutive spans (the
/// collector's lock, backpressure, claiming the next item), and each
/// thread's drain from its last span to the last span end of any thread
/// (no item left to claim). Time before a thread's first span, after the
/// last span of all, and inside spans but outside their children is not
/// idle: it stays unattributed.
pub fn runner_idle(spans: &[(usize, u64, u64)]) -> (u64, u64) {
    let mut sorted = spans.to_vec();
    sorted.sort_unstable();
    let last_end = sorted.iter().map(|&(_, _, end)| end).max().unwrap_or(0);
    let (mut wait, mut drain) = (0, 0);
    for (i, &(thread, _, end)) in sorted.iter().enumerate() {
        match sorted.get(i + 1) {
            Some(&(next, start, _)) if next == thread => wait += start.saturating_sub(end),
            _ => drain += last_end - end,
        }
    }
    (wait, drain)
}

/// Hold-back of the in-order sink, from per-point timestamps: `ready[p]` is
/// when point `p`'s last replication finished evaluating and `received[p]`
/// when the sink took the point. Returns the most points held back at once
/// and the total nanoseconds points spent held back.
pub fn holdback(ready: &[u64], received: &[u64]) -> (u64, u64) {
    let held: Vec<(u64, u64, u64)> = ready
        .iter()
        .zip(received)
        .map(|(&ready, &received)| (ready, received.max(ready), 1))
        .collect();
    let waited = held
        .iter()
        .map(|(ready, received, _)| received - ready)
        .sum();
    (peak_concurrency(&held), waited)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            start,
            end,
            parent,
            work: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(Layer::Eval, 0, 100, None),
            span(Layer::Scenario, 10, 30, Some(0)),
            span(Layer::Testbed, 30, 80, Some(0)),
            // A grandchild is charged to its parent, not to the root.
            span(Layer::Model, 40, 50, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_them() {
        let spans = [
            span(Layer::Sink, 100, 200, None),
            span(Layer::Aggregate, 110, 150, Some(0)),
            span(Layer::Render, 140, 160, Some(0)),
            // Runs past its parent's end: only [190, 200) is covered.
            span(Layer::Write, 190, 230, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
        // The self time of a leaf is its duration.
        assert_eq!(self_times(&spans)[3], 40);
    }

    #[test]
    fn self_times_plus_children_sum_to_the_root() {
        let spans = [
            span(Layer::Eval, 0, 1_000, None),
            span(Layer::Scenario, 0, 100, Some(0)),
            span(Layer::Testbed, 100, 900, Some(0)),
            span(Layer::Model, 900, 950, Some(0)),
            span(Layer::Contention, 950, 990, Some(0)),
        ];
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 1_000);
    }

    #[test]
    fn peak_concurrency_weighs_open_intervals() {
        assert_eq!(peak_concurrency(&[]), 0);
        // 400k-frame sessions on two workers: both resident at once.
        let sessions = [(0, 10, 400), (2, 12, 400), (10, 20, 400), (12, 22, 400)];
        assert_eq!(peak_concurrency(&sessions), 800);
        // Back-to-back intervals do not overlap; empty ones never count.
        assert_eq!(peak_concurrency(&[(0, 5, 1), (5, 9, 1), (7, 7, 5)]), 1);
    }

    #[test]
    fn runner_idle_splits_per_thread_gaps_from_the_drain() {
        assert_eq!(runner_idle(&[]), (0, 0));
        let spans = [
            // Thread 0 waits 2 between its first two spans, 5 before its
            // last, and drains from 30 until thread 1 ends at 40.
            (0, 25, 30),
            (0, 0, 10),
            (0, 12, 20),
            // Thread 1 never waits and ends last.
            (1, 1, 15),
            (1, 15, 40),
        ];
        assert_eq!(runner_idle(&spans), (2 + 5, 10));
        // Time before a thread's first span is not idle.
        assert_eq!(runner_idle(&[(0, 100, 110), (1, 0, 110)]), (0, 0));
    }

    #[test]
    fn holdback_high_water_and_wait_from_timestamps() {
        // Point 0 is slow: points 1 and 2 finish first and wait for it.
        let ready = [50, 10, 20, 60];
        let received = [50, 51, 52, 60];
        let (high_water, waited) = holdback(&ready, &received);
        assert_eq!(high_water, 2);
        assert_eq!(waited, 41 + 32);
        // An in-order run never holds anything back.
        assert_eq!(holdback(&[1, 2, 3], &[1, 2, 3]), (0, 0));
    }
}
