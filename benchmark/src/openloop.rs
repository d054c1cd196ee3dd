//! Open-loop load: requests are due on a fixed schedule whether or not the
//! previous one has completed, and each is timed **from its due time**, so a
//! stall in the system under test shows up in every request that had to wait
//! behind it (no coordinated omission).  One connection cannot pipeline, so a
//! late request is sent as soon as the connection is free; how late the
//! generator itself ran is reported beside the latencies.

use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug)]
pub struct OpenLoopSample {
    /// How long after its due time it was actually sent.
    pub late: Duration,
    /// Due time → completion.
    pub latency: Duration,
}

/// Issue `count` requests at `rate_per_s`, the first due immediately.  `op`
/// receives the request index and its due time and returns when the request
/// has completed.
pub fn run_open_loop<R>(
    rate_per_s: f64,
    count: usize,
    mut op: impl FnMut(usize, Instant) -> R,
) -> (Vec<OpenLoopSample>, Vec<R>) {
    assert!(rate_per_s > 0.0, "open loop needs a positive rate");
    let interval = Duration::from_secs_f64(1.0 / rate_per_s);
    let start = Instant::now();
    let mut samples = Vec::with_capacity(count);
    let mut replies = Vec::with_capacity(count);
    for i in 0..count {
        let due = start + interval.mul_f64(i as f64);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        replies.push(op(i, due));
        let done = Instant::now();
        samples.push(OpenLoopSample {
            late: sent.saturating_duration_since(due),
            latency: done.saturating_duration_since(due),
        });
    }
    (samples, replies)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_due_on_the_schedule() {
        let (samples, dues) = run_open_loop(1000.0, 20, |_, due| due);
        assert_eq!(samples.len(), 20);
        for pair in dues.windows(2) {
            assert_eq!(pair[1] - pair[0], Duration::from_millis(1));
        }
        // 20 requests at 1 kHz span 19 ms of schedule.
        assert_eq!(dues[19] - dues[0], Duration::from_millis(19));
    }

    #[test]
    fn a_stalled_server_inflates_the_requests_behind_it() {
        // A fake server that answers in ~0 except request 5, which stalls for
        // 30 ms.  At 1 kHz the next ~30 requests were due during the stall:
        // timed from their due times they inherit what is left of it, while a
        // closed-loop timer would have seen one slow request and 39 fast ones.
        let stall = Duration::from_millis(30);
        let (samples, _) = run_open_loop(1000.0, 40, |i, _| {
            if i == 5 {
                std::thread::sleep(stall);
            }
        });
        assert!(samples[5].latency >= stall);
        assert!(samples[4].latency < Duration::from_millis(10));
        // Request 6 was due 1 ms after request 5 and could not be sent until
        // the stall ended.
        assert!(samples[6].late >= Duration::from_millis(25));
        assert!(samples[6].latency >= Duration::from_millis(25));
        // The backlog drains: each later request waited about 1 ms less.
        assert!(samples[15].latency >= Duration::from_millis(15));
        assert!(samples[15].latency < samples[6].latency);
        let inflated = samples
            .iter()
            .filter(|s| s.latency >= Duration::from_millis(5))
            .count();
        assert!(inflated >= 20, "only {inflated} samples saw the stall");
    }
}
