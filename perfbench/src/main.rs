//! The repository's end-to-end benchmark (see README.md beside this
//! crate): boots the production batched serving stack in-process, drives
//! it with a seeded workload, checks the outputs and prints one JSON
//! result line.
//!
//! ```text
//! perfbench --workload <unique_pantries|popular_pantries|offline_batch> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```

mod adapter;
mod clock;
mod http_load;
mod inputs;
mod offline;
mod stats;
mod trace;

use std::process::ExitCode;
use std::sync::Arc;

use adapter::{Engine, ObsSnapshot, Server, Tier};
use clock::{now_ns, secs};
use http_load::{LoadCheck, Outcome};
use inputs::{input_digest, open_schedule, pool, replay_sample, Digest, PantryMix, Stream};
use stats::{median, median_rate, percentile, required, sorted, Report, END_TO_END, PER_LAYER};
use trace::{ClientStamp, StepLog};

/// Open-loop arrival rate, about a quarter of what two connections
/// sustain on either HTTP workload (≈40 recipes/s on a 2-vCPU x86-64
/// host).
const RATE_PER_S: f64 = 10.0;
/// An untraced HTTP run alternates open-loop and closed-loop phases in
/// cycles of about this many seconds, so both phases sample the host
/// across the whole run rather than one stretch of it.
const CYCLE_S: f64 = 5.0;
/// Share of each cycle spent in the open loop; the rest is the
/// closed-loop throughput phase.
const OPEN_SHARE: f64 = 0.7;
/// Offline throughput is the median rate over this many equal slices of
/// the run.
const RATE_SLICES: usize = 5;
/// Set-ups per offline run; `setup_s` is their median. An HTTP run sets
/// up once per cycle and reports the median of those.
const SETUPS: usize = 5;
/// Requests that warm a fresh server before it counts as set up.
const WARM_REQUESTS: usize = 4;
/// Requests the output check replays alone, per HTTP run.
const HTTP_REPLAYS: usize = 16;
/// Recipes the output check decodes again alone, per offline run.
const OFFLINE_REPLAYS: usize = 4;
/// The offline output digest covers requests `0..OFFLINE_DIGEST`.
const OFFLINE_DIGEST: usize = 64;
/// Upper bound on the request rate any phase can reach, sizing the
/// closed-loop and offline input pools.
const MAX_RATE_PER_S: f64 = 400.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Http(PantryMix),
    Offline,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "unique_pantries" => Workload::Http(PantryMix::Unique),
                    "popular_pantries" => Workload::Http(PantryMix::Popular),
                    "offline_batch" => Workload::Offline,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if s.is_nan() || s < 1.0 {
                    return Err(format!("seconds must be at least 1, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    clock::start();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| {
        let report = match (args.workload, args.trace) {
            (Workload::Http(mix), false) => http_untraced(mix, &args),
            (Workload::Http(mix), true) => http_traced(mix, &args),
            (Workload::Offline, false) => offline_untraced(&args),
            (Workload::Offline, true) => offline_traced(&args),
        }?;
        print_table(&report);
        report.json(if args.trace { PER_LAYER } else { END_TO_END })
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_table(report: &Report) {
    let error_share = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "# {:<34} {:>14}",
        "error_share",
        format!("{error_share} ratio")
    );
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        if let Some(v) = report.values.get(name) {
            println!("# {name:<34} {:>14}", format!("{v:.4} {unit}"));
        }
    }
}

/// Client threads: one per CPU, at most two.
fn conns() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// VmHWM of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Build `SETUPS` times, stopping all but the last; the first set-up is
/// timed from process start. Returns the last and the median seconds.
fn timed_setups<T>(
    mut build: impl FnMut() -> Result<T, String>,
    stop: impl Fn(T),
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for k in 0..SETUPS {
        if let Some(previous) = kept.take() {
            stop(previous);
        }
        let start = if k == 0 { 0 } else { now_ns() };
        kept = Some(build()?);
        times.push(secs(now_ns() - start));
    }
    let times = sorted(times);
    Ok((kept.ok_or("no set-up ran")?, times[times.len() / 2]))
}

/// The served stack, warm: untrained DistilGPT2 behind `start_batched`,
/// its factory wrapped in the timing decorator when `log` is given.
fn http_setup(mix: PantryMix, seed: u64, log: Option<Arc<StepLog>>) -> Result<Server, String> {
    let model = adapter::untrained_model(Tier::Distil);
    let mut factory = adapter::factory(&model)?;
    if let Some(log) = log {
        factory = adapter::timed_factory(factory, log);
    }
    let server = Server::start(factory)?;
    for r in pool(mix, seed, Stream::Warm, WARM_REQUESTS) {
        adapter::generate(server.addr(), &r.pantry, r.seed)
            .map_err(|e| format!("warm-up request failed: {e:?}"))?;
    }
    Ok(server)
}

fn latencies(outcomes: &[Outcome]) -> Vec<f64> {
    sorted(outcomes.iter().map(Outcome::latency_ms).collect())
}

fn http_output_digest(outcomes: &[Outcome]) -> String {
    let mut d = Digest::default();
    for o in outcomes {
        match &o.result {
            Ok(r) => d.add(&r.canonical()),
            Err(_) => d.add(b"failed"),
        }
    }
    d.hex()
}

/// Every listed percentile the sample supports, ms.
fn print_percentiles(label: &str, sorted_ms: &[f64]) {
    let shown: Vec<String> = [50.0, 90.0, 95.0, 99.0]
        .iter()
        .filter_map(|&p| percentile(sorted_ms, p).map(|v| format!("p{p} {v:.3}")))
        .collect();
    println!(
        "# {label} over {} samples, ms: {}",
        sorted_ms.len(),
        shown.join(", ")
    );
}

/// The span join is a correctness check, not a measurement: printed, and
/// above [`trace::MAX_RESIDUAL_MS`] it fails the run.
fn print_residual(residual_ms: f64) {
    println!("# trace.span_residual_ms_max {residual_ms:e} ms (largest |latency - sum of spans|)");
}

fn print_load(label: &str, outcomes: &[Outcome], load: &LoadCheck) {
    println!(
        "# {label}: {} requests, offered {:.2}/s, achieved {:.2}/s",
        outcomes.len(),
        load.offered_per_s,
        load.achieved_per_s,
    );
    let late = sorted(
        outcomes
            .iter()
            .map(|o| (o.sent - o.scheduled) as f64 / 1e6)
            .collect(),
    );
    print_percentiles(&format!("{label} lateness"), &late);
}

fn http_untraced(mix: PantryMix, args: &Args) -> Result<Report, String> {
    let conns = conns();
    let cycles = ((args.seconds / CYCLE_S).round() as u64).max(1);
    let cycle_ns = (args.seconds * 1e9) as u64 / cycles;
    let open_ns = (cycle_ns as f64 * OPEN_SHARE) as u64;
    let closed_ns = cycle_ns - open_ns;
    // One schedule over the open phases laid end to end; cycle `k` sends
    // the requests due in `[k * open_ns, (k + 1) * open_ns)`.
    let schedule = open_schedule(mix, args.seed, RATE_PER_S, cycles * open_ns);
    let closed_pool = pool(
        mix,
        args.seed,
        Stream::Closed,
        (secs(cycles * closed_ns) * MAX_RATE_PER_S) as usize,
    );
    let mut inputs = input_digest(&schedule);
    inputs.add(input_digest(&closed_pool).hex().as_bytes());

    let mut open = Vec::with_capacity(schedule.len());
    let mut closed = Vec::new();
    let mut spans = Vec::with_capacity(cycles as usize);
    let mut completed = Vec::with_capacity(cycles as usize);
    let mut setups = Vec::with_capacity(cycles as usize);
    let mut server: Option<Server> = None;
    for k in 0..cycles {
        // A fresh server per cycle, so where its threads happen to land
        // is sampled once per cycle rather than fixed for the run.
        if let Some(previous) = server.take() {
            previous.stop();
        }
        let start = if k == 0 { 0 } else { now_ns() };
        let addr = server.insert(http_setup(mix, args.seed, None)?).addr();
        setups.push(secs(now_ns() - start));
        let first = open.len();
        let end = schedule.partition_point(|r| r.due_ns < (k + 1) * open_ns);
        // Due times count from the start of the whole schedule, so `t0`
        // is set back by the open time of the earlier cycles.
        let t0 = now_ns() + 1_000_000 - k * open_ns;
        let part = http_load::open_loop(addr, &schedule[first..end], conns, t0);
        spans.push(LoadCheck::span_ns(&part, t0 + k * open_ns, open_ns));
        open.extend(part.into_iter().map(|o| Outcome {
            index: o.index + first,
            ..o
        }));

        let closed_t0 = now_ns();
        let until = closed_t0 + closed_ns;
        let part = http_load::closed_loop(addr, &closed_pool[closed.len()..], conns, until);
        completed.push(
            part.iter()
                .filter(|o| o.result.is_ok() && o.received <= until)
                .count(),
        );
        closed.extend(part);
    }
    let load = LoadCheck::of(&open, cycles * open_ns, spans.iter().sum());
    let server = server.ok_or("no cycle ran")?;
    let picks = replay_sample(args.seed, open.len(), HTTP_REPLAYS);
    let mismatches = http_load::replay(server.addr(), &schedule, &open, &picks);
    server.stop();
    if closed.len() == closed_pool.len() {
        return Err(format!(
            "the closed loop used all {} pooled requests before time ran out; raise MAX_RATE_PER_S",
            closed.len()
        ));
    }

    print_load("open loop", &open, &load);
    println!(
        "# input_digest {} output_digest {}",
        inputs.hex(),
        http_output_digest(&open)
    );
    let errors = open
        .iter()
        .chain(&closed)
        .filter(|o| o.result.is_err())
        .count();
    let shown: Vec<String> = completed.iter().map(usize::to_string).collect();
    println!(
        "# closed loop: {} sent in {cycles} phases of {:.2} s at {conns} connections, completed per phase [{}]; replayed {} alone, {mismatches} differed",
        closed.len(),
        secs(closed_ns),
        shown.join(", "),
        picks.len()
    );
    if !load.valid() {
        return Err(format!(
            "open loop invalid: achieved {:.2}/s of offered {:.2}/s (the backlog grew)",
            load.achieved_per_s, load.offered_per_s
        ));
    }
    let lat = latencies(&open);
    print_percentiles("open-loop latency", &lat);
    let mut report = Report {
        correct: errors + mismatches == 0,
        attempted: (open.len() + closed.len() + picks.len()) as u64,
        failed: (errors + mismatches) as u64,
        ..Report::default()
    };
    report.values.insert("setup_s", median(&setups));
    report
        .values
        .insert("latency_p50_ms", required(&lat, 50.0, "latency p50")?);
    report
        .values
        .insert("latency_p90_ms", required(&lat, 90.0, "latency p90")?);
    report.values.insert(
        "recipes_per_s",
        completed.iter().sum::<usize>() as f64 / secs(cycles * closed_ns),
    );
    report.values.insert("peak_rss_mb", peak_rss_mb()?);
    Ok(report)
}

/// Requests of `traced` whose recipe differs from the same request in an
/// untraced pass (indices line up: a shorter schedule from the same seed
/// is a prefix of a longer one in pantries and seeds).
fn http_mismatches(untraced: &[Outcome], traced: &[Outcome]) -> usize {
    untraced
        .iter()
        .zip(traced)
        .filter(|(u, t)| matches!((&u.result, &t.result), (Ok(x), Ok(y)) if x != y))
        .count()
}

fn http_traced(mix: PantryMix, args: &Args) -> Result<Report, String> {
    let conns = conns();
    // An untraced quarter, the traced half, another untraced quarter: the
    // untraced passes bracket the traced one, so a steady drift in host
    // speed cancels out of the overhead ratio.
    let quarter_ns = (args.seconds * 1e9 / 4.0) as u64;
    let short = open_schedule(mix, args.seed, RATE_PER_S, quarter_ns);
    let long = open_schedule(mix, args.seed, RATE_PER_S, 2 * quarter_ns);
    println!("# input_digest {}", input_digest(&long).hex());
    let untraced_pass = || -> Result<Vec<Outcome>, String> {
        let server = http_setup(mix, args.seed, None)?;
        let t0 = now_ns() + 1_000_000;
        let out = http_load::open_loop(server.addr(), &short, conns, t0);
        server.stop();
        print_load(
            "untraced open loop",
            &out,
            &LoadCheck::of(&out, quarter_ns, LoadCheck::span_ns(&out, t0, quarter_ns)),
        );
        Ok(out)
    };

    let before = untraced_pass()?;
    let log = Arc::new(StepLog::default());
    let server = http_setup(mix, args.seed, Some(Arc::clone(&log)))?;
    let obs_before = ObsSnapshot::take();
    log.set_recording(true);
    let t0 = now_ns() + 1_000_000;
    let traced = http_load::open_loop(server.addr(), &long, conns, t0);
    let wall = now_ns() - t0;
    log.set_recording(false);
    let delta = ObsSnapshot::take().since(&obs_before);
    server.stop();
    print_load(
        "traced open loop",
        &traced,
        &LoadCheck::of(
            &traced,
            2 * quarter_ns,
            LoadCheck::span_ns(&traced, t0, 2 * quarter_ns),
        ),
    );
    println!("# output_digest {}", http_output_digest(&traced));
    let after = untraced_pass()?;

    let errors = before
        .iter()
        .chain(&traced)
        .chain(&after)
        .filter(|o| o.result.is_err())
        .count();
    let mismatches = http_mismatches(&before, &traced) + http_mismatches(&after, &traced);
    let clients: Vec<ClientStamp> = traced
        .iter()
        .filter(|o| o.result.is_ok())
        .map(ClientStamp::from)
        .collect();
    let (mut values, residual) = trace::layer_metrics(&log.snapshot(), &clients, &delta, wall)?;
    print_residual(residual);
    let untraced_lat = sorted(
        before
            .iter()
            .chain(&after)
            .map(Outcome::latency_ms)
            .collect(),
    );
    let traced_lat = latencies(&traced);
    let untraced_p50 = required(&untraced_lat, 50.0, "latency p50")?;
    let traced_p50 = required(&traced_lat, 50.0, "latency p50")?;
    values.insert("trace.overhead_ratio", traced_p50 / untraced_p50);
    Ok(Report {
        correct: errors + mismatches == 0 && residual <= trace::MAX_RESIDUAL_MS,
        attempted: (before.len() + traced.len() + after.len()) as u64,
        failed: (errors + mismatches) as u64,
        values,
    })
}

fn offline_factory() -> Result<ratatouille::serving::batch::StepBackendFactory, String> {
    adapter::factory(&adapter::untrained_model(Tier::Medium))
}

fn offline_output_digest(done: &[offline::Done]) -> String {
    let mut d = Digest::default();
    let prefix: Vec<_> = done
        .iter()
        .take_while(|x| x.index < OFFLINE_DIGEST)
        .collect();
    if prefix.len() < OFFLINE_DIGEST || prefix.iter().enumerate().any(|(i, x)| x.index != i) {
        return format!(
            "incomplete({} of the first {OFFLINE_DIGEST} finished)",
            prefix.len()
        );
    }
    for x in prefix {
        d.add(&x.recipe.canonical());
    }
    d.hex()
}

fn offline_inputs(args: &Args) -> Vec<inputs::Request> {
    pool(
        PantryMix::Unique,
        args.seed,
        Stream::Offline,
        (args.seconds * MAX_RATE_PER_S) as usize,
    )
}

fn offline_untraced(args: &Args) -> Result<Report, String> {
    let ((factory, mut engine), setup_s) = timed_setups(
        || {
            let factory = offline_factory()?;
            let engine = Engine::build(&factory);
            Ok((factory, engine))
        },
        drop,
    )?;
    let reqs = offline_inputs(args);
    let run = offline::run(&mut engine, &reqs, (args.seconds * 1e9) as u64)?;
    let (done, window) = (&run.done, run.window_ns);
    drop(engine);
    let picks = replay_sample(args.seed, done.len(), OFFLINE_REPLAYS);
    let mismatches = offline::replay(&factory, &reqs, done, &picks)?;
    println!(
        "# input_digest {} output_digest {}",
        input_digest(&reqs).hex(),
        offline_output_digest(done)
    );
    println!(
        "# {} recipes in {:.2} s; replayed {} alone, {mismatches} differed",
        done.len(),
        secs(window),
        picks.len()
    );

    let lat = sorted(done.iter().map(offline::Done::latency_ms).collect());
    let mut report = Report {
        correct: mismatches == 0,
        attempted: (done.len() + picks.len()) as u64,
        failed: mismatches as u64,
        ..Report::default()
    };
    report.values.insert("setup_s", setup_s);
    report
        .values
        .insert("latency_p50_ms", required(&lat, 50.0, "latency p50")?);
    report
        .values
        .insert("latency_p90_ms", required(&lat, 90.0, "latency p90")?);
    let completions: Vec<u64> = done.iter().map(|d| d.received).collect();
    report.values.insert(
        "recipes_per_s",
        median_rate(&completions, run.t0, window, RATE_SLICES),
    );
    report.values.insert("peak_rss_mb", peak_rss_mb()?);
    Ok(report)
}

fn offline_traced(args: &Args) -> Result<Report, String> {
    let factory = offline_factory()?;
    let reqs = offline_inputs(args);
    println!("# input_digest {}", input_digest(&reqs).hex());
    // Untraced quarter, traced half, untraced quarter, as for HTTP; each
    // pass starts a fresh backend at request 0.
    let quarter_ns = (args.seconds * 1e9 / 4.0) as u64;
    let untraced_pass = || offline::run(&mut Engine::build(&factory), &reqs, quarter_ns);

    let before = untraced_pass()?;
    let log = Arc::new(StepLog::default());
    let mut engine = Engine::build(&adapter::timed_factory(
        Arc::clone(&factory),
        Arc::clone(&log),
    ));
    let obs_before = ObsSnapshot::take();
    log.set_recording(true);
    let traced = offline::run(&mut engine, &reqs, 2 * quarter_ns)?;
    log.set_recording(false);
    let delta = ObsSnapshot::take().since(&obs_before);
    drop(engine);
    println!("# output_digest {}", offline_output_digest(&traced.done));
    let after = untraced_pass()?;

    let by_index: std::collections::BTreeMap<usize, &adapter::Recipe> =
        traced.done.iter().map(|d| (d.index, &d.recipe)).collect();
    let mismatches = before
        .done
        .iter()
        .chain(&after.done)
        .filter(|d| by_index.get(&d.index).is_some_and(|r| **r != d.recipe))
        .count();
    let clients: Vec<ClientStamp> = traced.done.iter().map(ClientStamp::from).collect();
    let (mut values, residual) =
        trace::layer_metrics(&log.snapshot(), &clients, &delta, traced.window_ns)?;
    print_residual(residual);
    let untraced_rate =
        (before.done.len() + after.done.len()) as f64 / secs(before.window_ns + after.window_ns);
    let traced_rate = traced.done.len() as f64 / secs(traced.window_ns);
    // Time per recipe, traced over untraced: above 1 is overhead, as on HTTP.
    values.insert("trace.overhead_ratio", untraced_rate / traced_rate);
    Ok(Report {
        correct: mismatches == 0 && residual <= trace::MAX_RESIDUAL_MS,
        attempted: (before.done.len() + traced.done.len() + after.done.len()) as u64,
        failed: mismatches as u64,
        values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload popular_pantries --seed 7 --seconds 30 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::Http(PantryMix::Popular));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 30.0, true));
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 3")).is_err());
        assert!(parse_args(&argv("--workload offline_batch --seed 1")).is_err());
        assert!(parse_args(&argv("--workload offline_batch --seed 1 --seconds 0")).is_err());
    }
}
