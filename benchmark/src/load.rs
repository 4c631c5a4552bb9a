//! Open-loop load: requests are sent on a fixed-interval schedule whether
//! or not earlier ones have completed, so a queue can grow. One generator
//! thread submits, one reaper thread waits the handles in order.

use std::sync::mpsc;
use std::time::{Duration, Instant};

pub struct OpenLoop {
    /// Latency of every request answered acceptably, in µs **from the
    /// time the request was due**, which counts the wait a stall imposes
    /// on later requests; in the order the requests were due. A request
    /// that failed or was refused has no latency: it is counted in
    /// `failed`, and a phase with any of those misses its latency limit.
    pub samples: Vec<f64>,
    /// How late each request was handed to the system, in µs.
    pub lateness_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// Sleep until close to `due`, then yield-spin: a sleep alone overshoots
/// by tens of µs, a spin alone takes a core from the system under test.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(150) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Run `rate` requests per second for `seconds`. `submit(i)` hands request
/// `i` to the system and returns its handle, or `None` if it was refused;
/// `complete(handle)` blocks until the request is done and says whether
/// its answer was acceptable. A generator that has fallen a quarter of the
/// phase behind its schedule stops; what it never sent counts as failed.
pub fn open_loop<H: Send>(
    rate: f64,
    seconds: f64,
    mut submit: impl FnMut(u64) -> Option<H> + Send,
    mut complete: impl FnMut(H) -> bool + Send,
) -> OpenLoop {
    let total = (rate * seconds).round().max(1.0) as u64;
    let interval = Duration::from_secs_f64(1.0 / rate);
    let (tx, rx) = mpsc::channel::<(Option<H>, Instant)>();
    // Room for a second of an ordinary rate; a rate far past what the
    // system takes grows the vectors as far as it actually gets.
    let room = (total as usize).min(1 << 16);
    let start = Instant::now();
    let cutoff = start + Duration::from_secs_f64(seconds * 1.25);
    let (lateness_us, (samples, failed)) = std::thread::scope(|scope| {
        let reaper = scope.spawn(move || {
            let mut samples = Vec::with_capacity(room);
            let mut failed = 0u64;
            for (handle, due) in rx {
                let ok = handle.is_some_and(&mut complete);
                if ok {
                    samples.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
                } else {
                    failed += 1;
                }
            }
            (samples, failed)
        });
        let mut lateness = Vec::with_capacity(room);
        let mut unsent = 0;
        for i in 0..total {
            let due = start + interval.mul_f64(i as f64);
            wait_until(due);
            let now = Instant::now();
            if now > cutoff {
                unsent = total - i;
                break;
            }
            lateness.push(now.saturating_duration_since(due).as_secs_f64() * 1e6);
            let handle = submit(i);
            if tx.send((handle, due)).is_err() {
                break;
            }
        }
        drop(tx);
        let (samples, failed) = reaper.join().expect("reaper thread panicked");
        // What was never sent failed too: a schedule the generator could
        // not hold must not pass on the strength of the requests it did
        // send.
        (lateness, (samples, failed + unsent))
    });
    OpenLoop { samples, lateness_us, attempted: total, failed }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_time_when_the_generator_runs_late() {
        // 1000 req/s for 20 ms; submitting request 0 stalls the generator
        // for 8 ms. Service itself is instant, so any latency measured
        // from the *submit* time would be ~0. From the due time, requests
        // 1..=7 carry the stall they inherited.
        let r = open_loop(
            1_000.0,
            0.020,
            |i| {
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(8));
                }
                Some(i)
            },
            |_| true,
        );
        assert_eq!((r.attempted, r.failed, r.samples.len()), (20, 0, 20));
        assert!(r.lateness_us[0] < 1_000.0, "request 0 was on time: {}", r.lateness_us[0]);
        assert!(r.lateness_us[1] > 6_000.0, "request 1 was handed over late: {}", r.lateness_us[1]);
        assert!(r.samples[1] > 6_000.0, "and its latency says so: {}", r.samples[1]);
        assert!(r.samples[4] > 3_000.0, "request 4 still carries 4 ms of the stall");
        let last = *r.samples.last().unwrap();
        assert!(last < 2_000.0, "the generator catches up afterwards: {last}");
    }

    #[test]
    fn a_generator_far_behind_its_schedule_stops_and_counts_the_rest_as_failed() {
        // 100 requests in 10 ms, but each submit takes 1 ms: the schedule
        // cannot be kept, and the phase may not run on for 100 ms.
        let t = Instant::now();
        let r = open_loop(
            10_000.0,
            0.010,
            |i| {
                std::thread::sleep(Duration::from_millis(1));
                Some(i)
            },
            |_| true,
        );
        assert_eq!(r.attempted, 100);
        assert!(t.elapsed().as_secs_f64() < 0.05, "stopped near 12.5 ms, not after 100");
        assert_eq!(r.failed + r.samples.len() as u64, 100);
        assert!(r.failed > 50, "most were never sent: {}", r.failed);
    }

    #[test]
    fn refused_and_wrong_answers_are_failures_without_samples() {
        let r = open_loop(2_000.0, 0.01, |i| (i % 4 != 0).then_some(i), |i| i % 4 != 1);
        assert_eq!((r.attempted, r.failed, r.samples.len()), (20, 10, 10));
    }
}
