//! The benchmark's whole coupling surface to the program, in one file:
//!
//! * building the served stack: an untrained [`TrainedModel`] over the
//!   reproduction corpus's BPE tokenizer, [`TrainedModel::batched_factory`]
//!   and [`ApiServer::start_batched`], both with default configs;
//! * the HTTP API: `POST /api/generate` with `{"ingredients", "seed"}`;
//! * the [`StepBackend`] trait: the offline driver and the traced
//!   decorator [`Timed`];
//! * reads of the always-on `obs` metrics registry ([`ObsSnapshot`]).
//!
//! When one of these interfaces changes, this is the file to adapt.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use ratatouille::models::registry::{ModelKind, ModelSpec};
use ratatouille::models::train::TrainStats;
use ratatouille::models::BatchEngineConfig;
use ratatouille::serving::batch::{
    AdmitOutcome, BatchServerConfig, StepBackend, StepBackendFactory,
};
use ratatouille::serving::json::Json;
use ratatouille::serving::{ApiServer, GeneratedRecipe};
use ratatouille::{Pipeline, PipelineConfig, TrainedModel};

use crate::clock::now_ns;
use crate::trace::StepLog;

/// The two served tiers the workloads use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// DistilGPT2, the tier the web app serves.
    Distil,
    /// GPT-2 medium, the Table-I bulk-generation tier.
    Medium,
}

/// An untrained (deterministic-init) model over the BPE tokenizer fit on
/// the fixed reproduction corpus, packaged as the pipeline's
/// [`TrainedModel`] so the production factory can serve it.
pub fn untrained_model(tier: Tier) -> TrainedModel {
    let config = PipelineConfig::reproduction();
    let pipeline = Pipeline::prepare(config.clone());
    let kind = match tier {
        Tier::Distil => ModelKind::DistilGpt2,
        Tier::Medium => ModelKind::Gpt2Medium,
    };
    let spec = ModelSpec::build(kind, &pipeline.train_texts);
    let train_cfg = spec.default_train_config();
    TrainedModel {
        spec,
        stats: TrainStats {
            losses: Vec::new(),
            steps_run: 0,
            wall_secs: 0.0,
            tokens_per_sec: 0.0,
        },
        train_cfg,
        sampler: config.sampler,
        train_texts: Vec::new(),
    }
}

/// The production batched factory with the default engine config.
pub fn factory(model: &TrainedModel) -> Result<StepBackendFactory, String> {
    model
        .batched_factory(BatchEngineConfig::default())
        .ok_or_else(|| "model has no batched decode path".to_string())
}

/// Wrap a factory so every backend it builds is a [`Timed`] decorator
/// reporting into `log`.
pub fn timed_factory(inner: StepBackendFactory, log: Arc<StepLog>) -> StepBackendFactory {
    Arc::new(move || {
        Box::new(Timed {
            inner: inner(),
            log: Arc::clone(&log),
        }) as Box<dyn StepBackend>
    })
}

/// A [`StepBackend`] decorator that stamps `admit_traced` and `step`
/// with the benchmark's clock and samples `active()`. It forwards every
/// call, the trace meta included, unchanged.
pub struct Timed {
    inner: Box<dyn StepBackend>,
    log: Arc<StepLog>,
}

impl StepBackend for Timed {
    fn model_name(&self) -> String {
        self.inner.model_name()
    }

    fn admit(&mut self, ingredients: &[String], seed: Option<u64>) -> AdmitOutcome {
        self.admit_traced(ingredients, seed, obs::reqtrace::TraceMeta::default())
    }

    fn admit_traced(
        &mut self,
        ingredients: &[String],
        seed: Option<u64>,
        meta: obs::reqtrace::TraceMeta,
    ) -> AdmitOutcome {
        let start = now_ns();
        let out = self.inner.admit_traced(ingredients, seed, meta);
        let end = now_ns();
        let id = match out {
            AdmitOutcome::Admitted(id) => Some(id),
            AdmitOutcome::BatchFull | AdmitOutcome::PoolExhausted => None,
        };
        self.log.admit(start, end, id, seed, self.inner.active());
        out
    }

    fn step(&mut self) -> Vec<(u64, GeneratedRecipe)> {
        let active = self.inner.active();
        let start = now_ns();
        let done = self.inner.step();
        let end = now_ns();
        let ids: Vec<u64> = done.iter().map(|(id, _)| *id).collect();
        self.log.step(start, end, active, &ids, self.inner.active());
        done
    }

    fn active(&self) -> usize {
        self.inner.active()
    }

    fn free_slots(&self) -> usize {
        self.inner.free_slots()
    }
}

/// A generated recipe as the benchmark compares it: the fields the
/// batch-determinism contract pins byte for byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recipe {
    pub title: String,
    pub ingredients: Vec<String>,
    pub instructions: Vec<String>,
    pub well_formed: bool,
}

impl Recipe {
    fn from_generated(r: GeneratedRecipe) -> Recipe {
        Recipe {
            title: r.title,
            ingredients: r.ingredients,
            instructions: r.instructions,
            well_formed: r.well_formed,
        }
    }

    /// Canonical bytes for digests: fields separated by control bytes
    /// that never occur in generated text.
    pub fn canonical(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(self.title.as_bytes());
        for list in [&self.ingredients, &self.instructions] {
            out.push(0x1e);
            for item in list {
                out.extend_from_slice(item.as_bytes());
                out.push(0x1f);
            }
        }
        out.push(u8::from(self.well_formed));
        out
    }
}

/// The batched API server on an ephemeral localhost port.
pub struct Server {
    api: ApiServer,
}

impl Server {
    /// `ApiServer::start_batched` with the default server config.
    pub fn start(factory: StepBackendFactory) -> Result<Server, String> {
        ApiServer::start_batched("127.0.0.1:0", BatchServerConfig::default(), factory)
            .map(|api| Server { api })
            .map_err(|e| format!("server failed to start: {e}"))
    }

    pub fn addr(&self) -> SocketAddr {
        self.api.addr()
    }

    /// Graceful shutdown; joins the server's threads.
    pub fn stop(self) {
        self.api.stop();
    }
}

/// Why a request produced no recipe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The server answered with a non-200 status.
    Status(u16),
    /// Connect, write, read or parse error.
    Transport(String),
}

/// `POST /api/generate` over a fresh connection (the server answers one
/// request per connection), blocking until the whole body is read.
pub fn generate(addr: SocketAddr, pantry: &[String], seed: u64) -> Result<Recipe, Failure> {
    let items: Vec<String> = pantry.iter().map(|s| json_string(s)).collect();
    let body = format!("{{\"ingredients\":[{}],\"seed\":{seed}}}", items.join(","));
    let raw = format!(
        "POST /api/generate HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let transport = |e: std::io::Error| Failure::Transport(e.to_string());
    let mut stream =
        TcpStream::connect_timeout(&addr, Duration::from_secs(30)).map_err(transport)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(transport)?;
    stream.write_all(raw.as_bytes()).map_err(transport)?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response).map_err(transport)?;
    let text =
        String::from_utf8(response).map_err(|_| Failure::Transport("non-UTF-8 response".into()))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| Failure::Transport("response without a header end".into()))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| Failure::Transport("response without a status".into()))?;
    if status != 200 {
        return Err(Failure::Status(status));
    }
    let json =
        Json::parse(body).map_err(|e| Failure::Transport(format!("bad JSON body: {e:?}")))?;
    let title = json.get("title").and_then(Json::as_str);
    let well_formed = json.get("well_formed").and_then(Json::as_bool);
    let (Some(title), Some(well_formed)) = (title, well_formed) else {
        return Err(Failure::Transport(
            "response lacks title or well_formed".into(),
        ));
    };
    Ok(Recipe {
        title: title.to_string(),
        ingredients: json
            .get("ingredients")
            .map(Json::as_string_vec)
            .unwrap_or_default(),
        instructions: json
            .get("instructions")
            .map(Json::as_string_vec)
            .unwrap_or_default(),
        well_formed,
    })
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The offline driver's handle on one backend replica.
pub struct Engine {
    backend: Box<dyn StepBackend>,
}

impl Engine {
    pub fn build(factory: &StepBackendFactory) -> Engine {
        Engine { backend: factory() }
    }

    /// Admit with a pinned seed; `None` when the backend refuses.
    pub fn admit(&mut self, pantry: &[String], seed: u64) -> Option<u64> {
        let meta = obs::reqtrace::TraceMeta::default();
        match self.backend.admit_traced(pantry, Some(seed), meta) {
            AdmitOutcome::Admitted(id) => Some(id),
            AdmitOutcome::BatchFull | AdmitOutcome::PoolExhausted => None,
        }
    }

    pub fn step(&mut self) -> Vec<(u64, Recipe)> {
        self.backend
            .step()
            .into_iter()
            .map(|(id, r)| (id, Recipe::from_generated(r)))
            .collect()
    }

    pub fn active(&self) -> usize {
        self.backend.active()
    }

    pub fn free_slots(&self) -> usize {
        self.backend.free_slots()
    }
}

/// The always-on obs metrics the per-layer split reads, as totals at one
/// instant. Subtract two snapshots to confine them to a phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsSnapshot {
    pub kv_hits: u64,
    pub kv_misses: u64,
    pub pool_launches: u64,
    pub attend_ns: u64,
    pub matmul_ns: u64,
    pub pool_wait_ns: u64,
    /// `ttft_ns` as cumulative `(upper bound ns, count)` buckets.
    pub ttft_buckets: Vec<(u64, u64)>,
}

impl ObsSnapshot {
    pub fn take() -> ObsSnapshot {
        use obs::metrics::MetricSnapshot;
        let mut snap = ObsSnapshot::default();
        for (name, metric) in obs::metrics::snapshot_all() {
            match (name.as_str(), metric) {
                ("decode_kv_hits_total", MetricSnapshot::Counter(v)) => snap.kv_hits = v,
                ("decode_kv_misses_total", MetricSnapshot::Counter(v)) => snap.kv_misses = v,
                ("tensor_pool_launches_total", MetricSnapshot::Counter(v)) => {
                    snap.pool_launches = v
                }
                ("attend_ns", MetricSnapshot::Histogram(h)) => snap.attend_ns = h.sum,
                ("tensor_matmul_ns", MetricSnapshot::Histogram(h)) => snap.matmul_ns = h.sum,
                ("tensor_pool_queue_wait_ns", MetricSnapshot::Histogram(h)) => {
                    snap.pool_wait_ns = h.sum
                }
                _ => {}
            }
        }
        // Bucket counts are only exposed through the Prometheus text.
        let text = obs::metrics::render_prometheus();
        snap.ttft_buckets = text
            .lines()
            .filter_map(|l| l.strip_prefix("ttft_ns_bucket{le=\""))
            .filter_map(|rest| {
                let (le, count) = rest.split_once("\"} ")?;
                Some((le.parse().ok()?, count.trim().parse().ok()?))
            })
            .collect();
        snap
    }

    /// `self - earlier`, with the TTFT buckets turned into per-bucket
    /// sample counts `(upper bound ns, samples in the interval)`.
    pub fn since(&self, earlier: &ObsSnapshot) -> ObsDelta {
        let cumulative_at = |buckets: &[(u64, u64)], le: u64| {
            buckets
                .iter()
                .filter(|(b, _)| *b <= le)
                .map(|(_, c)| *c)
                .max()
                .unwrap_or(0)
        };
        let mut ttft = Vec::new();
        let mut prev = 0;
        for &(le, _) in &self.ttft_buckets {
            let cum =
                cumulative_at(&self.ttft_buckets, le) - cumulative_at(&earlier.ttft_buckets, le);
            if cum > prev {
                ttft.push((le, cum - prev));
            }
            prev = cum;
        }
        ObsDelta {
            kv_hits: self.kv_hits - earlier.kv_hits,
            kv_misses: self.kv_misses - earlier.kv_misses,
            pool_launches: self.pool_launches - earlier.pool_launches,
            attend_ns: self.attend_ns - earlier.attend_ns,
            matmul_ns: self.matmul_ns - earlier.matmul_ns,
            pool_wait_ns: self.pool_wait_ns - earlier.pool_wait_ns,
            ttft_buckets: ttft,
        }
    }
}

/// Obs metric growth over one phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsDelta {
    pub kv_hits: u64,
    pub kv_misses: u64,
    pub pool_launches: u64,
    pub attend_ns: u64,
    pub matmul_ns: u64,
    pub pool_wait_ns: u64,
    /// `(bucket upper bound ns, samples)` in ascending bound order.
    pub ttft_buckets: Vec<(u64, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_delta_confines_ttft_buckets_to_the_interval() {
        let before = ObsSnapshot {
            kv_hits: 10,
            kv_misses: 5,
            ttft_buckets: vec![(100, 2), (200, 3)],
            ..ObsSnapshot::default()
        };
        let after = ObsSnapshot {
            kv_hits: 40,
            kv_misses: 8,
            ttft_buckets: vec![(50, 1), (100, 4), (200, 5), (400, 9)],
            ..ObsSnapshot::default()
        };
        let d = after.since(&before);
        assert_eq!((d.kv_hits, d.kv_misses), (30, 3));
        // Cumulative counts 1, 4, 5, 9 minus 0, 2, 3, 3 → 1, 2, 2, 6 → per bucket 1, 1, 0, 4.
        assert_eq!(d.ttft_buckets, vec![(50, 1), (100, 1), (400, 4)]);
    }
}
