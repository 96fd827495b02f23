//! The offline batch: one thread keeps a backend's batch slots full
//! through the public `StepBackend` verbs, no HTTP in between.

use std::collections::{BTreeMap, VecDeque};

use ratatouille::serving::batch::StepBackendFactory;

use crate::adapter::{Engine, Recipe};
use crate::clock::now_ns;
use crate::inputs::Request;

/// A recipe finished inside the measured window.
#[derive(Debug, Clone)]
pub struct Done {
    pub index: usize,
    pub seed: u64,
    /// When the slot it took became free (the window start for the
    /// first batch).
    pub scheduled: u64,
    /// When the driver called admit.
    pub sent: u64,
    /// When the driver held the finished recipe.
    pub received: u64,
    pub recipe: Recipe,
}

impl Done {
    pub fn latency_ms(&self) -> f64 {
        (self.received - self.scheduled) as f64 / 1e6
    }
}

/// One timed pass.
pub struct Run {
    /// Recipes finished in the window, by index.
    pub done: Vec<Done>,
    pub t0: u64,
    /// Time measured: the window, or less if the input ran out.
    pub window_ns: u64,
}

/// Admit `reqs` in order into every free slot and step until `window_ns`
/// has passed.
pub fn run(engine: &mut Engine, reqs: &[Request], window_ns: u64) -> Result<Run, String> {
    let t0 = now_ns();
    let until = t0 + window_ns;
    let mut next = 0;
    let mut freed: VecDeque<u64> = VecDeque::new();
    let mut inflight: BTreeMap<u64, (usize, u64, u64)> = BTreeMap::new();
    let mut done = Vec::new();
    while now_ns() < until {
        while engine.free_slots() > 0 {
            let Some(req) = reqs.get(next) else { break };
            let scheduled = freed.pop_front().unwrap_or(t0);
            let sent = now_ns();
            let id = engine
                .admit(&req.pantry, req.seed)
                .ok_or_else(|| format!("admission {next} refused with a free slot"))?;
            inflight.insert(id, (next, scheduled, sent));
            next += 1;
        }
        if engine.active() == 0 {
            break; // input exhausted
        }
        let finished = engine.step();
        let received = now_ns();
        for (id, recipe) in finished {
            let (index, scheduled, sent) = inflight
                .remove(&id)
                .ok_or_else(|| format!("unknown engine id {id}"))?;
            freed.push_back(received);
            if received <= until {
                done.push(Done {
                    index,
                    seed: reqs[index].seed,
                    scheduled,
                    sent,
                    received,
                    recipe,
                });
            }
        }
    }
    done.sort_by_key(|d| d.index);
    Ok(Run {
        done,
        t0,
        window_ns: now_ns().min(until) - t0,
    })
}

/// Decode each picked recipe again, alone, on a fresh backend from
/// `factory`; count those that differ.
pub fn replay(
    factory: &StepBackendFactory,
    reqs: &[Request],
    done: &[Done],
    picks: &[usize],
) -> Result<usize, String> {
    let mut engine = Engine::build(factory);
    let mut mismatches = 0;
    for &p in picks {
        let d = &done[p];
        let req = &reqs[d.index];
        let id = engine
            .admit(&req.pantry, req.seed)
            .ok_or_else(|| "replay admission refused on an idle backend".to_string())?;
        let again = loop {
            if let Some((_, r)) = engine.step().into_iter().find(|(fid, _)| *fid == id) {
                break r;
            }
            if engine.active() == 0 {
                return Err("a replayed request retired without a recipe".to_string());
            }
        };
        if again != d.recipe {
            mismatches += 1;
        }
    }
    Ok(mismatches)
}
