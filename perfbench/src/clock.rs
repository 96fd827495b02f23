//! One monotonic clock for every stamp the benchmark takes, so client,
//! decorator and phase stamps subtract cleanly.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Fix the epoch; `main` calls this first, so `now_ns()` reads as time
/// since process start.
pub fn start() {
    EPOCH.get_or_init(Instant::now);
}

/// Nanoseconds since the epoch.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Sleep until `at_ns` (returns at once when it has passed).
pub fn sleep_until(at_ns: u64) {
    let now = now_ns();
    if at_ns > now {
        std::thread::sleep(std::time::Duration::from_nanos(at_ns - now));
    }
}

pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}
