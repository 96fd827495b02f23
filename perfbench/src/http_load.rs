//! HTTP load: the open-loop schedule, the closed-loop throughput phase
//! and the one-at-a-time replay, all from at most `conns` client threads
//! that each hold at most one connection at a time.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::adapter::{generate, Failure, Recipe};
use crate::clock::{now_ns, sleep_until};
use crate::inputs::Request;

/// One request's fate.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub index: usize,
    pub seed: u64,
    pub scheduled: u64,
    pub sent: u64,
    pub received: u64,
    pub result: Result<Recipe, Failure>,
}

impl Outcome {
    /// Due time to full response, ms; a failure misses every limit.
    pub fn latency_ms(&self) -> f64 {
        match self.result {
            Ok(_) => (self.received - self.scheduled) as f64 / 1e6,
            Err(_) => f64::INFINITY,
        }
    }
}

/// Run `conns` client threads that claim request indices in order until
/// `claim` says stop. `claim(i)` returns the time request `i` is due, or
/// `None` to stop the thread.
fn drive(
    addr: SocketAddr,
    reqs: &[Request],
    conns: usize,
    claim: impl Fn(usize) -> Option<u64> + Sync,
) -> Vec<Outcome> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..conns {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::SeqCst);
                let Some(req) = reqs.get(index) else { break };
                let Some(scheduled) = claim(index) else { break };
                sleep_until(scheduled);
                let sent = now_ns();
                let result = generate(addr, &req.pantry, req.seed);
                let received = now_ns();
                let outcome = Outcome {
                    index,
                    seed: req.seed,
                    scheduled,
                    sent,
                    received,
                    result,
                };
                out.lock().unwrap_or_else(|p| p.into_inner()).push(outcome);
            });
        }
    });
    let mut out = out.into_inner().unwrap_or_else(|p| p.into_inner());
    out.sort_by_key(|o| o.index);
    out
}

/// Send every request of `schedule` at its due time after `t0` (as soon
/// after as a connection frees up).
pub fn open_loop(addr: SocketAddr, schedule: &[Request], conns: usize, t0: u64) -> Vec<Outcome> {
    drive(addr, schedule, conns, |i| Some(t0 + schedule[i].due_ns))
}

/// Keep `conns` requests in flight until `until`; returns every request
/// sent (those received after `until` included).
pub fn closed_loop(addr: SocketAddr, pool: &[Request], conns: usize, until: u64) -> Vec<Outcome> {
    drive(addr, pool, conns, |_| {
        let now = now_ns();
        (now < until).then_some(now)
    })
}

/// Whether the generator kept up with its schedule.
#[derive(Debug, Clone, Copy)]
pub struct LoadCheck {
    pub offered_per_s: f64,
    pub achieved_per_s: f64,
}

impl LoadCheck {
    /// Time from `t0` until the last response arrived, at least the
    /// schedule's `span_ns`: a backlog that grows through the schedule
    /// stretches it.
    pub fn span_ns(outcomes: &[Outcome], t0: u64, span_ns: u64) -> u64 {
        let last = outcomes.iter().map(|o| o.received).max().unwrap_or(t0);
        last.saturating_sub(t0).max(span_ns)
    }

    /// Offered: arrivals over the schedule's `span_ns`. Achieved:
    /// successful responses over `served_ns`, the sum of
    /// [`LoadCheck::span_ns`] over the phases the schedule ran in.
    pub fn of(outcomes: &[Outcome], span_ns: u64, served_ns: u64) -> LoadCheck {
        let ok = outcomes.iter().filter(|o| o.result.is_ok()).count();
        LoadCheck {
            offered_per_s: outcomes.len() as f64 / (span_ns as f64 / 1e9),
            achieved_per_s: ok as f64 / (served_ns as f64 / 1e9),
        }
    }

    pub fn valid(&self) -> bool {
        self.achieved_per_s >= 0.95 * self.offered_per_s
    }
}

/// Re-send the chosen requests one at a time (each decodes as a batch of
/// one) and count those whose recipe differs from the original response.
pub fn replay(
    addr: SocketAddr,
    reqs: &[Request],
    outcomes: &[Outcome],
    indices: &[usize],
) -> usize {
    indices
        .iter()
        .filter(|&&i| {
            let again = generate(addr, &reqs[i].pantry, reqs[i].seed);
            match (&outcomes[i].result, again) {
                (Ok(original), Ok(replayed)) => *original != replayed,
                (Ok(_), Err(_)) => true,
                // Already counted as failed.
                (Err(_), _) => false,
            }
        })
        .count()
}
