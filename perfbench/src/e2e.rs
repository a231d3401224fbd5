//! The end-to-end run: the shipped `betalike-serve` binary as a child
//! process, driven over TCP by closed-loop clients at depth 1.
//!
//! Every workload follows one shape: set up several times (the median is
//! `setup_s`), run its timed loop for `--seconds`, then run short probes
//! for the end-to-end metrics its loop does not produce, then the untimed
//! output checks. All ten end-to-end metrics are printed on every
//! workload; the ones a workload's loop produces are its own, the probe
//! ones are there so a regression anywhere shows on every run.

use crate::serve::{
    audit_line, cache_counts, call, flag, ScratchDir, ServerBin, ServerProc, METRICS_LINE,
};
use crate::stats::{Blocked, Samples};
use crate::workload::{self as wl, CountQuery, Sizes};
use betalike_microdata::json::Json;
use betalike_server::artifact::Artifact;
use betalike_server::{Algo, Client, PublishRequest, Registry};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections of the count loops (the benchmark host has two
/// cores).
pub const COUNT_CONNECTIONS: usize = 2;

/// The publish workload reads the server's peak RSS after this many timed
/// publishes, so a faster publish path (more resident artifacts by the end
/// of the loop) does not read as a memory regression.
const RSS_AT_PUBLISHES: usize = 20;

/// What one run needs to know.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The server under test.
    pub bin: ServerBin,
    /// Where scratch data directories and traces go.
    pub out: PathBuf,
    /// The workload seed.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Dataset and loop sizes.
    pub sizes: Sizes,
}

/// The result of one run: the checks, the operation counts, the metrics
/// and a human-readable report.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output and shape check passed and nothing failed.
    pub correct: bool,
    /// Operations sent.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Report lines printed before the result.
    pub report: Vec<String>,
}

impl Outcome {
    /// An outcome with no checks failed yet.
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    /// Records a failed or refused operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.check(false, what);
    }

    /// Records a check; a false one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: String) {
        if !ok {
            self.correct = false;
            if self.report.iter().filter(|l| l.starts_with("FAIL")).count() < 20 {
                self.report.push(format!("FAIL {what}"));
            }
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Adds a report line.
    pub fn note(&mut self, line: String) {
        self.report.push(line);
    }
}

/// The end-to-end metrics of one run, filled by the loop and the probes.
#[derive(Default)]
struct E2e {
    setup: Vec<f64>,
    publish: Option<Samples>,
    publish_rows: usize,
    store_bytes_per_row: Option<f64>,
    count: Option<Blocked>,
    verify: Option<Samples>,
    rss_mb: Option<f64>,
}

impl E2e {
    fn finish(self, out: &mut Outcome) -> Result<(), String> {
        let missing = |what: &str| format!("no {what} measured");
        let setup = Samples::new(self.setup);
        let publish = self.publish.ok_or_else(|| missing("publish latency"))?;
        let count = self.count.ok_or_else(|| missing("count latency"))?;
        let verify = self.verify.ok_or_else(|| missing("verify latency"))?;
        out.note(format!(
            "setup: {} (median of {} set-ups)",
            setup.describe(0.5, 1.0, "s"),
            setup.len()
        ));
        out.note(format!("publish: {}", publish.describe(0.5, 1.0, "s")));
        out.note(format!("publish: {}", publish.describe(0.9, 1.0, "s")));
        out.note(format!("count: {}", count.describe(1e3, "ms")));
        out.note(format!("verify: {}", verify.describe(0.5, 1.0, "s")));
        out.metric("setup_s", setup.median(), "s");
        out.metric("publish_p50_s", publish.median(), "s");
        out.metric("publish_p90_s", publish.quantile(0.9), "s");
        out.metric(
            "publish_rows_per_s",
            (self.publish_rows * publish.len()) as f64 / publish.sum(),
            "rows/s",
        );
        out.metric(
            "store_bytes_per_row",
            self.store_bytes_per_row
                .ok_or_else(|| missing("store size"))?,
            "B/row",
        );
        out.metric("count_p50_ms", count.p50 * 1e3, "ms");
        out.metric("count_p99_ms", count.p99 * 1e3, "ms");
        out.metric("count_qps", count.rate, "1/s");
        out.metric("verify_p50_s", verify.median(), "s");
        out.metric(
            "server_rss_mb",
            self.rss_mb.ok_or_else(|| missing("server memory"))?,
            "MB",
        );
        Ok(())
    }
}

/// Runs one workload end to end.
///
/// # Errors
///
/// Infrastructure failures (the server would not start, a directory
/// could not be made); failed operations are counted in the outcome.
pub fn run(ctx: &Ctx, workload: &str) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    match workload {
        "publish" => publish(ctx, &mut out)?,
        "count-engine" => count_engine(ctx, &mut out)?,
        "count-hot" => count_hot(ctx, &mut out)?,
        "verify" => verify(ctx, &mut out)?,
        other => return Err(format!("unknown workload `{other}`")),
    }
    Ok(out)
}

/// Sends one fresh publish; checks `ok`, `cached: false` and
/// `persisted: true`, and records the handle for the closing oracle
/// check. Returns the latency (`+∞` on failure).
fn publish_fresh(
    client: &mut Client,
    req: &PublishRequest,
    out: &mut Outcome,
    published: &mut Vec<String>,
) -> f64 {
    out.attempted += 1;
    let handle = req.handle();
    let start = Instant::now();
    let reply = call(client, &wl::publish_line(req));
    let secs = start.elapsed().as_secs_f64();
    match reply {
        Ok(doc) => {
            let fresh = flag(&doc, "cached") == Some(false)
                && flag(&doc, "persisted") == Some(true)
                && doc.get("handle").and_then(Json::as_str) == Some(handle.as_str());
            out.check(
                fresh,
                format!("publish {handle}: not a fresh persisted publish"),
            );
            published.push(handle);
            secs
        }
        Err(e) => {
            out.fail(format!("publish {handle}: {e}"));
            f64::INFINITY
        }
    }
}

/// Sends one `verify`; checks `pass` (and `battery_pass` when asked).
/// Returns the latency (`+∞` on failure).
fn verify_handle(client: &mut Client, handle: &str, battery: bool, out: &mut Outcome) -> f64 {
    out.attempted += 1;
    let start = Instant::now();
    let reply = call(client, &wl::verify_line(handle, battery));
    let secs = start.elapsed().as_secs_f64();
    match reply {
        Ok(doc)
            if flag(&doc, "pass") == Some(true)
                && (!battery || flag(&doc, "battery_pass") == Some(true)) =>
        {
            secs
        }
        Ok(_) => {
            out.fail(format!("verify {handle} (battery {battery}) did not pass"));
            f64::INFINITY
        }
        Err(e) => {
            out.fail(format!("verify {handle}: {e}"));
            f64::INFINITY
        }
    }
}

/// The untimed closing check: every handle the run published passes the
/// oracle.
fn oracle_check(
    server: &ServerProc,
    published: &[String],
    out: &mut Outcome,
) -> Result<(), String> {
    let mut client = server.connect()?;
    for handle in published {
        verify_handle(&mut client, handle, false, out);
    }
    out.note(format!(
        "checked: {} published handles pass the oracle",
        published.len()
    ));
    Ok(())
}

/// One count reply.
struct CountReply {
    index: usize,
    /// Completion time, seconds since the loop started.
    at: f64,
    secs: f64,
    estimate: Option<f64>,
}

fn send_count(client: &mut Client, line: &str) -> (f64, Result<f64, String>) {
    let start = Instant::now();
    let reply = call(client, line);
    let secs = start.elapsed().as_secs_f64();
    let estimate = reply.and_then(|doc| {
        doc.get("estimate")
            .and_then(Json::as_f64)
            .ok_or_else(|| "count reply has no estimate".to_string())
    });
    (secs, estimate)
}

/// A closed loop over `queries` on `connections` connections, each taking
/// the next unsent query, for `window` seconds or until the list runs
/// out. Returns the replies, the elapsed time and whether the list ran
/// out.
fn count_loop(
    server: &ServerProc,
    queries: &[CountQuery],
    connections: usize,
    window: f64,
) -> Result<(Vec<CountReply>, f64, bool), String> {
    let next = AtomicUsize::new(0);
    let clients = (0..connections)
        .map(|_| server.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(window);
    let per_thread: Vec<Vec<CountReply>> = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let next = &next;
                s.spawn(move || {
                    let mut replies = Vec::new();
                    while Instant::now() < deadline {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(q) = queries.get(index) else { break };
                        let (secs, estimate) = send_count(&mut client, &q.line);
                        replies.push(CountReply {
                            index,
                            at: start.elapsed().as_secs_f64(),
                            secs,
                            estimate: estimate.ok(),
                        });
                    }
                    replies
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_default())
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64().min(window);
    let exhausted = next.load(Ordering::Relaxed) >= queries.len();
    Ok((
        per_thread.into_iter().flatten().collect(),
        elapsed,
        exhausted,
    ))
}

/// Publishes `requests` in process (the same deterministic pipeline the
/// server runs) and returns the answerers' estimates for `wanted` query
/// indices, computed on two threads.
fn expected_estimates(
    requests: &[PublishRequest],
    queries: &[CountQuery],
    wanted: &[usize],
) -> Result<Vec<Option<f64>>, String> {
    let registry = Registry::new();
    let artifacts: Vec<Arc<Artifact>> = requests
        .iter()
        .map(|r| Artifact::publish(&registry, r))
        .collect::<Result<_, _>>()?;
    let chunk = wanted.len().div_ceil(2).max(1);
    let parts: Vec<Vec<Option<f64>>> = std::thread::scope(|s| {
        let workers: Vec<_> = wanted
            .chunks(chunk)
            .map(|part| {
                let artifacts = &artifacts;
                s.spawn(move || {
                    part.iter()
                        .map(|&i| {
                            let q = &queries[i];
                            artifacts[q.target].answerer.estimate(&q.query).ok()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_default())
            .collect()
    });
    Ok(parts.into_iter().flatten().collect())
}

/// Checks every reply against the in-process estimate, bit for bit, and
/// returns `(completed_at, latency)` samples (`+∞` latency for failures).
fn check_counts(
    replies: &[CountReply],
    requests: &[PublishRequest],
    queries: &[CountQuery],
    out: &mut Outcome,
) -> Result<Vec<(f64, f64)>, String> {
    let wanted: Vec<usize> = replies.iter().map(|r| r.index).collect();
    let expected = expected_estimates(requests, queries, &wanted)?;
    let mut samples = Vec::with_capacity(replies.len());
    let mut mismatched = 0usize;
    for (reply, want) in replies.iter().zip(&expected) {
        out.attempted += 1;
        let line = &queries[reply.index].line;
        match (reply.estimate, want) {
            (Some(got), Some(want)) if got.to_bits() == want.to_bits() => {}
            (Some(got), want) => {
                mismatched += 1;
                if mismatched <= 3 {
                    out.note(format!(
                        "count `{line}` estimated {got}, in process {want:?}"
                    ));
                }
            }
            (None, _) => {
                out.fail(format!("count `{line}` failed"));
                samples.push((reply.at, f64::INFINITY));
                continue;
            }
        }
        samples.push((reply.at, reply.secs));
    }
    out.check(
        mismatched == 0,
        format!("{mismatched} count estimates differ from the in-process answerer"),
    );
    out.note(format!(
        "checked: {} count estimates bit-identical to in-process PublishedAnswerer::estimate",
        replies.len() - mismatched
    ));
    Ok(samples)
}

/// The count targets of a set of publish requests: `(handle, perturbed)`.
fn targets(requests: &[PublishRequest]) -> Vec<(String, bool)> {
    requests
        .iter()
        .map(|r| (r.handle(), r.algo == Algo::Perturb))
        .collect()
}

/// The count probe: publish the probe's perturbation artifact (untimed),
/// then send distinct count queries to it on the loop's connection count
/// for the probe window.
fn probe_counts(
    ctx: &Ctx,
    server: &ServerProc,
    m: &mut E2e,
    published: &mut Vec<String>,
    out: &mut Outcome,
) -> Result<(), String> {
    let requests = [wl::probe_count_artifact(ctx.sizes.rows)];
    publish_fresh(&mut server.connect()?, &requests[0], out, published);
    let queries = wl::count_queries(
        ctx.seed,
        "probe-count",
        &targets(&requests),
        ctx.sizes.probe_counts,
        &HashSet::new(),
    );
    let (replies, elapsed, _) =
        count_loop(server, &queries, COUNT_CONNECTIONS, ctx.sizes.probe_seconds)?;
    let samples = check_counts(&replies, &requests, &queries, out)?;
    m.count = Some(Blocked::new(&samples, elapsed));
    Ok(())
}

/// The verify probe: publish the probe artifact at the verify size, then
/// time `verify` with the attack battery on it.
fn probe_verify(
    ctx: &Ctx,
    server: &ServerProc,
    m: &mut E2e,
    published: &mut Vec<String>,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut client = server.connect()?;
    let req = wl::probe_verify_artifact(ctx.sizes.verify_rows);
    publish_fresh(&mut client, &req, out, published);
    let latencies = (0..ctx.sizes.probe_verifies)
        .map(|_| verify_handle(&mut client, &req.handle(), true, out))
        .collect();
    m.verify = Some(Samples::new(latencies));
    Ok(())
}

fn store_bytes_per_row(dir: &ScratchDir, artifacts: usize, rows: usize) -> f64 {
    dir.bytes() as f64 / (artifacts * rows) as f64
}

/// Runs `setup` (which returns the server it started) at least three
/// times and until the set-ups have taken `setup_seconds` in total, and
/// keeps the last server. Each duration is a `setup_s` sample.
fn setups<T>(
    ctx: &Ctx,
    m: &mut E2e,
    mut setup: impl FnMut() -> Result<(ServerProc, T), String>,
) -> Result<(ServerProc, T), String> {
    let mut total = 0.0;
    loop {
        let start = Instant::now();
        let (server, state) = setup()?;
        let secs = start.elapsed().as_secs_f64();
        m.setup.push(secs);
        total += secs;
        if m.setup.len() >= ctx.sizes.setups && total >= ctx.sizes.setup_seconds
            || m.setup.len() >= 5 * ctx.sizes.setups
        {
            return Ok((server, state));
        }
        server.stop()?;
    }
}

/// Publishes `requests` in order on a fresh server. Every publish but the
/// first (which pays CENSUS generation and the Hilbert keys) is a fresh
/// publish sample in `latencies`.
fn publish_all(
    client: &mut Client,
    requests: &[PublishRequest],
    out: &mut Outcome,
    published: &mut Vec<String>,
    latencies: &mut Vec<f64>,
) {
    for (i, req) in requests.iter().enumerate() {
        let secs = publish_fresh(client, req, out, published);
        if i > 0 {
            latencies.push(secs);
        }
    }
}

/// `publish`: fresh publishes on one connection to a durable server.
fn publish(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let rows = ctx.sizes.rows;
    let mut m = E2e::default();
    let mut published = Vec::new();
    let (server, dir) = setups(ctx, &mut m, || {
        let dir = ScratchDir::new(&ctx.out)?;
        published.clear();
        let server = ServerProc::spawn(&ctx.bin, Some(dir.path()), &[])?;
        let mut client = server.connect()?;
        publish_fresh(
            &mut client,
            &wl::publish_warmup(ctx.seed, rows),
            out,
            &mut published,
        );
        Ok((server, dir))
    })?;

    let mut client = server.connect()?;
    let mut requests = Vec::new();
    let mut latencies = Vec::new();
    let end = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    while Instant::now() < end {
        let req = wl::publish_request(ctx.seed, requests.len() as u64, rows);
        latencies.push(publish_fresh(&mut client, &req, out, &mut published));
        requests.push(req);
        if requests.len() == RSS_AT_PUBLISHES {
            m.rss_mb = Some(server.peak_rss_mb()?);
        }
    }
    if m.rss_mb.is_none() {
        m.rss_mb = Some(server.peak_rss_mb()?);
    }
    m.publish = Some(Samples::new(latencies));
    m.publish_rows = rows;
    m.store_bytes_per_row = Some(store_bytes_per_row(&dir, published.len(), rows));
    out.note(format!(
        "shape: {} fresh publishes, none cached; server RSS read after {}",
        requests.len(),
        requests.len().min(RSS_AT_PUBLISHES)
    ));

    probe_counts(ctx, &server, &mut m, &mut published, out)?;
    probe_verify(ctx, &server, &mut m, &mut published, out)?;
    oracle_check(&server, &published, out)?;
    server.stop()?;
    m.finish(out)
}

/// A count server's set-up: publish the count artifacts into a fresh data
/// dir, restart the server over it, and touch each handle once (store
/// load, checksum, BPUB decode, restore and catalog rebuild).
fn count_setup(
    ctx: &Ctx,
    requests: &[PublishRequest],
    out: &mut Outcome,
    published: &mut Vec<String>,
    latencies: &mut Vec<f64>,
) -> Result<(ServerProc, ScratchDir), String> {
    let dir = ScratchDir::new(&ctx.out)?;
    published.clear();
    let first = ServerProc::spawn(&ctx.bin, Some(dir.path()), &[])?;
    publish_all(&mut first.connect()?, requests, out, published, latencies);
    first.stop()?;
    let server = ServerProc::spawn(&ctx.bin, Some(dir.path()), &[])?;
    let mut client = server.connect()?;
    for req in requests {
        out.attempted += 1;
        if let Err(e) = call(&mut client, &audit_line(&req.handle())) {
            out.fail(format!("touch {}: {e}", req.handle()));
        }
    }
    Ok((server, dir))
}

/// Set-up publishes as the publish figures of a workload whose loop
/// publishes nothing, and the store they leave as its store figure.
fn setup_publishes(
    m: &mut E2e,
    latencies: Vec<f64>,
    dir: &ScratchDir,
    artifacts: usize,
    rows: usize,
) {
    m.publish = Some(Samples::new(latencies));
    m.publish_rows = rows;
    m.store_bytes_per_row = Some(store_bytes_per_row(dir, artifacts, rows));
}

/// The probe and closing checks shared by both count workloads.
fn count_tail(
    ctx: &Ctx,
    server: ServerProc,
    mut m: E2e,
    mut published: Vec<String>,
    out: &mut Outcome,
) -> Result<(), String> {
    probe_verify(ctx, &server, &mut m, &mut published, out)?;
    oracle_check(&server, &published, out)?;
    server.stop()?;
    m.finish(out)
}

/// `count-engine`: distinct estimate queries on two connections, so the
/// result cache always misses.
fn count_engine(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let requests = wl::count_artifacts(ctx.seed, &ctx.sizes);
    let queries = wl::count_queries(
        ctx.seed,
        "engine",
        &targets(&requests),
        ctx.sizes.engine_lines,
        &HashSet::new(),
    );
    let mut m = E2e::default();
    let mut published = Vec::new();
    let mut publishes = Vec::new();
    let (server, dir) = setups(ctx, &mut m, || {
        count_setup(ctx, &requests, out, &mut published, &mut publishes)
    })?;
    setup_publishes(&mut m, publishes, &dir, published.len(), ctx.sizes.rows);

    let (replies, elapsed, exhausted) =
        count_loop(&server, &queries, COUNT_CONNECTIONS, ctx.seconds)?;
    m.rss_mb = Some(server.peak_rss_mb()?);
    let (hits, misses) = cache_counts(&call(&mut server.connect()?, METRICS_LINE)?)?;
    let sent: HashSet<&str> = replies
        .iter()
        .map(|r| queries[r.index].line.as_str())
        .collect();
    out.check(
        sent.len() == replies.len(),
        format!(
            "{} of {} count lines repeated",
            replies.len() - sent.len(),
            replies.len()
        ),
    );
    if exhausted {
        out.note(format!(
            "count-engine sent all {} distinct queries and stopped after {elapsed:.2} s",
            queries.len()
        ));
    }
    let ratio = hits as f64 / (hits + misses).max(1) as f64;
    out.check(
        ratio < 0.001,
        format!("count-engine result-cache hit ratio {ratio} (hits {hits}, misses {misses})"),
    );
    out.note(format!(
        "shape: {} distinct count lines on {COUNT_CONNECTIONS} connections, \
         result-cache hits {hits} misses {misses} (ratio {ratio:.4})",
        replies.len()
    ));
    let samples = check_counts(&replies, &requests, &queries, out)?;
    m.count = Some(Blocked::new(&samples, elapsed));
    count_tail(ctx, server, m, published, out)
}

/// `count-hot`: a warmed pool of distinct queries replayed in a seeded
/// order on one connection, so every timed request is a cache hit.
fn count_hot(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let requests = wl::count_artifacts(ctx.seed, &ctx.sizes);
    let pool = wl::count_queries(
        ctx.seed,
        "hot",
        &targets(&requests),
        ctx.sizes.hot_pool,
        &HashSet::new(),
    );
    let capacity = betalike_server::ServerConfig::default().result_cache;
    out.check(
        pool.len() == ctx.sizes.hot_pool && pool.len() <= capacity / 2,
        format!(
            "count-hot pool of {} does not fit well inside the default {capacity}-entry result cache",
            pool.len()
        ),
    );
    let mut m = E2e::default();
    let mut published = Vec::new();
    let mut publishes = Vec::new();
    let (server, dir) = setups(ctx, &mut m, || {
        let (server, dir) = count_setup(ctx, &requests, out, &mut published, &mut publishes)?;
        let mut client = server.connect()?;
        for q in &pool {
            out.attempted += 1;
            if let Err(e) = call(&mut client, &q.line) {
                out.fail(format!("warm `{}`: {e}", q.line));
            }
        }
        Ok((server, dir))
    })?;
    setup_publishes(&mut m, publishes, &dir, published.len(), ctx.sizes.rows);
    let all: Vec<usize> = (0..pool.len()).collect();
    let expected = expected_estimates(&requests, &pool, &all)?;

    let mut client = server.connect()?;
    let mut samples = Vec::new();
    let mut mismatched = 0usize;
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(ctx.seconds);
    while Instant::now() < end {
        let i = wl::replay_index(ctx.seed, pool.len(), samples.len() as u64);
        out.attempted += 1;
        let (secs, estimate) = send_count(&mut client, &pool[i].line);
        let at = start.elapsed().as_secs_f64();
        match (estimate, expected[i]) {
            (Ok(got), Some(want)) if got.to_bits() == want.to_bits() => samples.push((at, secs)),
            (Ok(_), _) => {
                mismatched += 1;
                samples.push((at, secs));
            }
            (Err(e), _) => {
                out.fail(format!("count `{}`: {e}", pool[i].line));
                samples.push((at, f64::INFINITY));
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64().min(ctx.seconds);
    m.rss_mb = Some(server.peak_rss_mb()?);
    out.check(
        mismatched == 0,
        format!("{mismatched} count-hot estimates differ from the in-process answerer"),
    );
    let (hits, misses) = cache_counts(&call(&mut client, METRICS_LINE)?)?;
    let timed = samples.len() as u64;
    out.check(
        misses == pool.len() as u64 && hits == timed,
        format!(
            "count-hot: {misses} misses (want {} from warm-up), {hits} hits (want {timed})",
            pool.len()
        ),
    );
    out.note(format!(
        "shape: pool of {} distinct lines warmed, {timed} timed replays, \
         result-cache hits {hits} misses {misses} (hit ratio after warm-up {:.4})",
        pool.len(),
        hits as f64 / timed.max(1) as f64
    ));
    out.note(format!(
        "checked: {} count estimates bit-identical to in-process PublishedAnswerer::estimate",
        timed as usize - mismatched
    ));
    m.count = Some(Blocked::new(&samples, elapsed));
    count_tail(ctx, server, m, published, out)
}

/// `verify`: `verify` with the attack battery over BUREL artifacts at the
/// verify size.
fn verify(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let rows = ctx.sizes.verify_rows;
    let requests = wl::verify_artifacts(ctx.seed, rows);
    let mut m = E2e::default();
    let mut published = Vec::new();
    let mut publishes = Vec::new();
    let (server, dir) = setups(ctx, &mut m, || {
        let dir = ScratchDir::new(&ctx.out)?;
        published.clear();
        let server = ServerProc::spawn(&ctx.bin, Some(dir.path()), &[])?;
        publish_all(
            &mut server.connect()?,
            &requests,
            out,
            &mut published,
            &mut publishes,
        );
        Ok((server, dir))
    })?;
    setup_publishes(&mut m, publishes, &dir, published.len(), rows);

    let mut client = server.connect()?;
    let offset = (wl::derive_seed(ctx.seed, "verify-order", 0) % requests.len() as u64) as usize;
    let mut latencies = Vec::new();
    let end = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    while Instant::now() < end {
        let handle = requests[(offset + latencies.len()) % requests.len()].handle();
        latencies.push(verify_handle(&mut client, &handle, true, out));
    }
    m.verify = Some(Samples::new(latencies));
    m.rss_mb = Some(server.peak_rss_mb()?);

    probe_counts(ctx, &server, &mut m, &mut published, out)?;
    oracle_check(&server, &published, out)?;
    server.stop()?;
    m.finish(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one workload at smoke size against an in-process server.
    fn smoke(workload: &str, out: &str) -> Outcome {
        let ctx = Ctx {
            bin: ServerBin::InProcess,
            out: PathBuf::from(".perfbench-out").join(out),
            seed: 11,
            seconds: 0.3,
            sizes: Sizes::smoke(),
        };
        std::fs::create_dir_all(&ctx.out).unwrap();
        let outcome = run(&ctx, workload).unwrap();
        assert!(
            outcome.correct && outcome.failed == 0,
            "{workload}: {:#?}",
            outcome.report
        );
        outcome
    }

    fn shape_line(outcome: &Outcome) -> &str {
        outcome
            .report
            .iter()
            .find(|l| l.starts_with("shape:"))
            .expect("a shape line")
    }

    const E2E_METRICS: [&str; 10] = [
        "setup_s",
        "publish_p50_s",
        "publish_p90_s",
        "publish_rows_per_s",
        "store_bytes_per_row",
        "count_p50_ms",
        "count_p99_ms",
        "count_qps",
        "verify_p50_s",
        "server_rss_mb",
    ];

    fn assert_all_metrics(outcome: &Outcome) {
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, E2E_METRICS);
        for (name, value, _) in &outcome.metrics {
            assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
        }
    }

    #[test]
    fn count_engine_repeats_no_line_and_always_misses() {
        // The run itself checks both (a repeat or a hit fails it); the
        // shape line records what it saw.
        let outcome = smoke("count-engine", "test-engine");
        assert!(shape_line(&outcome).contains("result-cache hits 0 "));
        assert_all_metrics(&outcome);
    }

    #[test]
    fn count_hot_fits_the_cache_and_always_hits() {
        let outcome = smoke("count-hot", "test-hot");
        assert!(shape_line(&outcome).contains("hit ratio after warm-up 1.0000"));
        assert_all_metrics(&outcome);
    }

    #[test]
    fn publish_and_verify_pass_their_checks() {
        let publish = smoke("publish", "test-publish");
        assert!(shape_line(&publish).contains("none cached"));
        assert_all_metrics(&publish);
        assert_all_metrics(&smoke("verify", "test-verify"));
    }
}
