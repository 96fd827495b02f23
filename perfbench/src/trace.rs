//! The traced run: what the [`crate::adapter::Timed`] decorator records
//! on the runner thread, and the per-layer split computed from it, the
//! client's stamps and the obs-metric deltas of the timed phase.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use crate::adapter::ObsDelta;
use crate::stats::{bucket_percentile, mean, required, sorted, split, Stamps};

/// Decorator records, shared between the runner thread and the driver.
#[derive(Default)]
pub struct StepLog {
    state: Mutex<LogState>,
}

#[derive(Debug, Clone, Default)]
pub struct LogState {
    recording: bool,
    /// Engine id → request seed, for every admission (recorded or not),
    /// so a request admitted just before recording starts still joins.
    id_seed: BTreeMap<u64, u64>,
    /// Request seed → `admit_traced` start and end.
    admits: BTreeMap<u64, (u64, u64)>,
    /// Request seed → end of the `step` call that finished it.
    done: BTreeMap<u64, u64>,
    /// `(start, end, active() at start)` of each `step` call.
    steps: Vec<(u64, u64, usize)>,
    /// Time with sequences active but neither `admit` nor `step` running.
    idle_ns: u64,
    last_end: u64,
    last_active: usize,
}

impl LogState {
    fn gap(&mut self, start: u64) {
        if self.recording && self.last_active > 0 {
            self.idle_ns += start.saturating_sub(self.last_end);
        }
    }
}

impl StepLog {
    fn lock(&self) -> MutexGuard<'_, LogState> {
        // Records are plain appends: a panic mid-update leaves them usable.
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    pub fn admit(
        &self,
        start: u64,
        end: u64,
        id: Option<u64>,
        seed: Option<u64>,
        active_after: usize,
    ) {
        let mut s = self.lock();
        s.gap(start);
        if let (Some(id), Some(seed)) = (id, seed) {
            s.id_seed.insert(id, seed);
            if s.recording {
                s.admits.insert(seed, (start, end));
            }
        }
        s.last_end = end;
        s.last_active = active_after;
    }

    pub fn step(&self, start: u64, end: u64, active: usize, finished: &[u64], active_after: usize) {
        let mut s = self.lock();
        s.gap(start);
        let recording = s.recording;
        if recording {
            s.steps.push((start, end, active));
        }
        for id in finished {
            if let Some(seed) = s.id_seed.remove(id) {
                if recording {
                    s.done.insert(seed, end);
                }
            }
        }
        s.last_end = end;
        s.last_active = active_after;
    }

    pub fn set_recording(&self, on: bool) {
        self.lock().recording = on;
    }

    pub fn snapshot(&self) -> LogState {
        self.lock().clone()
    }
}

/// What the driver stamped for one request of the traced phase.
#[derive(Debug, Clone, Copy)]
pub struct ClientStamp {
    pub seed: u64,
    pub scheduled: u64,
    pub sent: u64,
    pub received: u64,
}

impl From<&crate::http_load::Outcome> for ClientStamp {
    fn from(o: &crate::http_load::Outcome) -> Self {
        ClientStamp {
            seed: o.seed,
            scheduled: o.scheduled,
            sent: o.sent,
            received: o.received,
        }
    }
}

impl From<&crate::offline::Done> for ClientStamp {
    fn from(d: &crate::offline::Done) -> Self {
        ClientStamp {
            seed: d.seed,
            scheduled: d.scheduled,
            sent: d.sent,
            received: d.received,
        }
    }
}

/// A request's spans may miss its latency by float rounding only; more
/// means stamps of different requests were joined.
pub const MAX_RESIDUAL_MS: f64 = 1e-3;

/// The per-layer metrics of one traced phase lasting `wall_ns`, and the
/// largest span residual (ms). `trace.overhead_ratio` is the caller's (it
/// needs the untraced passes).
pub fn layer_metrics(
    log: &LogState,
    clients: &[ClientStamp],
    obs: &ObsDelta,
    wall_ns: u64,
) -> Result<(BTreeMap<&'static str, f64>, f64), String> {
    let mut spans = Vec::with_capacity(clients.len());
    for c in clients {
        let (Some(&(admit_start, admit_end)), Some(&done)) =
            (log.admits.get(&c.seed), log.done.get(&c.seed))
        else {
            return Err(format!("request seed {} has no decorator records", c.seed));
        };
        spans.push(split(&Stamps {
            scheduled: c.scheduled,
            sent: c.sent,
            admit_start,
            admit_end,
            done,
            received: c.received,
        }));
    }
    let col = |f: fn(&crate::stats::Split) -> f64| sorted(spans.iter().map(f).collect());
    let late = col(|s| s.late);
    let queue = col(|s| s.queue);
    let respond = col(|s| s.respond);
    let decode = col(|s| s.decode);
    let residual = col(|s| s.residual);
    let admit_us = sorted(
        log.admits
            .values()
            .map(|(a, b)| (b - a) as f64 / 1e3)
            .collect(),
    );
    let step_us = sorted(
        log.steps
            .iter()
            .map(|(a, b, _)| (b - a) as f64 / 1e3)
            .collect(),
    );
    let step_ns: f64 = log.steps.iter().map(|(a, b, _)| (b - a) as f64).sum();
    let rows: Vec<f64> = log.steps.iter().map(|&(_, _, n)| n as f64).collect();
    let steps = log.steps.len() as f64;
    let recipes = log.done.len() as f64;
    if step_ns <= 0.0 || recipes == 0.0 {
        return Err("the traced phase ran no steps".into());
    }
    let ttft = |p| {
        bucket_percentile(&obs.ttft_buckets, p)
            .map(|ns| ns / 1e6)
            .ok_or_else(|| format!("too few TTFT samples for p{p}"))
    };
    let wall = wall_ns as f64;
    let prompt_tokens = (obs.kv_hits + obs.kv_misses) as f64;
    let attend = obs.attend_ns as f64 / step_ns;
    let matmul = obs.matmul_ns as f64 / step_ns;

    let mut m = BTreeMap::new();
    m.insert("loadgen.late_ms_p50", required(&late, 50.0, "late p50")?);
    m.insert("loadgen.late_ms_p90", required(&late, 90.0, "late p90")?);
    m.insert(
        "serving.batch.queue_ms_p50",
        required(&queue, 50.0, "queue p50")?,
    );
    m.insert(
        "serving.batch.queue_ms_p90",
        required(&queue, 90.0, "queue p90")?,
    );
    m.insert("serving.batch.idle_share", log.idle_ns as f64 / wall);
    m.insert("serving.batch.batch_size_mean", mean(&rows));
    m.insert(
        "serving.http.respond_ms_p50",
        required(&respond, 50.0, "respond p50")?,
    );
    m.insert(
        "batch_backend.admit_us_p50",
        required(&admit_us, 50.0, "admit p50")?,
    );
    m.insert(
        "batch_backend.step_us_p50",
        required(&step_us, 50.0, "step p50")?,
    );
    m.insert(
        "batch_backend.step_us_p99",
        required(&step_us, 99.0, "step p99")?,
    );
    m.insert("batch_backend.busy_share", step_ns / wall);
    m.insert(
        "batch_backend.decode_ms_p50",
        required(&decode, 50.0, "decode p50")?,
    );
    m.insert("models.batch.steps", steps);
    m.insert(
        "models.batch.rows_per_recipe",
        rows.iter().sum::<f64>() / recipes,
    );
    m.insert("models.batch.ttft_ms_p50", ttft(50.0)?);
    m.insert("models.batch.ttft_ms_p90", ttft(90.0)?);
    m.insert(
        "kv_block.prefix_hit_ratio",
        if prompt_tokens > 0.0 {
            obs.kv_hits as f64 / prompt_tokens
        } else {
            0.0
        },
    );
    m.insert("transformer.attend_share", attend);
    m.insert("tensor.matmul_share", matmul);
    m.insert("models.step_other_share", 1.0 - attend - matmul);
    m.insert("tensor.pool_wait_share", obs.pool_wait_ns as f64 / step_ns);
    m.insert(
        "tensor.pool_launches_per_step",
        obs.pool_launches as f64 / steps,
    );
    Ok((m, residual.last().copied().unwrap_or(0.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_time_counts_only_gaps_with_work_in_flight() {
        let log = StepLog::default();
        log.set_recording(true);
        log.admit(100, 110, Some(1), Some(77), 1);
        log.step(130, 200, 1, &[], 1); // 20 ns idle before this step
        log.step(200, 260, 1, &[1], 0); // back to back
        log.admit(400, 405, Some(2), Some(78), 1); // engine was empty: not idle
        let s = log.snapshot();
        assert_eq!(s.idle_ns, 20);
        assert_eq!(s.admits.get(&77), Some(&(100, 110)));
        assert_eq!(s.done.get(&77), Some(&260));
        assert_eq!(s.steps.len(), 2);
    }

    #[test]
    fn requests_admitted_before_recording_still_join() {
        let log = StepLog::default();
        log.admit(0, 5, Some(9), Some(900), 1);
        log.set_recording(true);
        log.step(10, 20, 1, &[9], 0);
        let s = log.snapshot();
        assert!(s.admits.is_empty());
        assert_eq!(s.done.get(&900), Some(&20));
    }
}
