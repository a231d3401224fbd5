//! The traced run: the seeded inputs of all four workloads replayed in
//! process through each layer's public functions, with one span recorded
//! by this file around every call.
//!
//! No span sits inside the program. Where a composite call runs stages
//! internally (`burel_with_keys`, `Artifact::publish`,
//! `run_battery_snapshot`), the composite and its stage functions are each
//! timed on the same inputs and the difference is reported as that layer's
//! residual. Network-facing numbers (transport, obs overhead, the publish
//! and count reconciliations) come from the shipped binary, started by
//! this run next to the in-process replay.

use crate::e2e::{Ctx, Outcome, COUNT_CONNECTIONS};
use crate::serve::{audit_line, cache_counts, call, flag, ScratchDir, ServerProc, METRICS_LINE};
use crate::stats::Samples;
use crate::workload::{self as wl, CountQuery, QI, SA};
use betalike::bucketize::dp_partition;
use betalike::burel::rows_per_bucket;
use betalike::ectree::{bi_split, BetaEligibility};
use betalike::model::BetaLikeness;
use betalike::retrieve::{hilbert_keys, Materializer};
use betalike::{burel_with_keys, perturb, BurelConfig};
use betalike_attacks::corruption::corruption_attack_generalized;
use betalike_attacks::definetti::{definetti_attack, DefinettiConfig};
use betalike_attacks::naive_bayes::naive_bayes_attack;
use betalike_metrics::audit::audit_partition;
use betalike_microdata::census::{self, CensusConfig};
use betalike_microdata::json::Json;
use betalike_query::{Catalog, CatalogStats};
use betalike_server::artifact::{Artifact, AUDIT_METRIC};
use betalike_server::{persist, Algo, CountRequest, LocalServer, Registry, ServerConfig};
use betalike_store::{publication_to_vec, ArtifactStore};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, HashSet};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Publish requests replayed (the first ones of the publish workload).
const PUBLISH_REPLAY: u64 = 10;
/// Count-engine lines replayed in process and over TCP.
const ENGINE_REPLAY: usize = 4_000;
/// count-hot replays in process.
const HOT_REPLAY: u64 = 20_000;
/// Paired obs-on / obs-off blocks, and requests per block.
const OBS_PAIRS: usize = 10;
const OBS_BLOCK: u64 = 2_000;
/// Timed repetitions of the one-off set-up calls (generation, keys).
const SETUP_REPEATS: usize = 3;

/// One recorded call.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    req: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span recorder. Spans nest through [`Tracer::span`];
/// self time is a span's duration minus its children's.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Records `f` as a span that may contain child spans.
    fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.open(name, req);
        let value = f(self);
        self.close(id);
        value
    }

    /// Records `f` as a leaf span.
    fn leaf<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, req);
        let value = f();
        self.close(id);
        value
    }

    /// Records a call timed elsewhere (on another thread).
    fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        let span = Span {
            name,
            req,
            parent: self.stack.last().copied(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
    }

    fn open(&mut self, name: &'static str, req: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            req,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    fn close(&mut self, id: usize) {
        self.stack.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Self time in seconds of every span, by index.
    fn self_times(&self) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c) as f64 * 1e-9)
            .collect()
    }

    /// Self time per request id of every span named `name`.
    fn by_req(&self, name: &str) -> BTreeMap<u64, f64> {
        let selfs = self.self_times();
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(selfs) {
            if s.name == name {
                *out.entry(s.req).or_insert(0.0) += t;
            }
        }
        out
    }

    /// Self times of every span named `name`.
    fn samples(&self, name: &str) -> Samples {
        Samples::new(self.by_req(name).into_values().collect())
    }

    /// Writes every span as one JSON line.
    fn write(&self, path: &Path) -> Result<(), String> {
        let selfs = self.self_times();
        let mut text = String::new();
        for (id, (s, self_s)) in self.spans.iter().zip(selfs).enumerate() {
            let doc = Json::Obj(vec![
                ("id".into(), Json::Num(id as f64)),
                ("name".into(), Json::Str(s.name.into())),
                ("req".into(), Json::Num(s.req as f64)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("start_ns".into(), Json::Num(s.start_ns as f64)),
                ("end_ns".into(), Json::Num(s.end_ns as f64)),
                ("self_ns".into(), Json::Num((self_s * 1e9).round())),
            ]);
            text.push_str(&doc.compact());
            text.push('\n');
        }
        std::fs::File::create(path)
            .and_then(|mut f| f.write_all(text.as_bytes()))
            .map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// Per-request values of `name`, restricted to `reqs`.
fn pick(t: &Tracer, name: &str, reqs: &HashSet<u64>) -> BTreeMap<u64, f64> {
    t.by_req(name)
        .into_iter()
        .filter(|(r, _)| reqs.contains(r))
        .collect()
}

/// Median over requests of `total(r) − Σ parts(r)`.
fn residual(total: &BTreeMap<u64, f64>, parts: &[&BTreeMap<u64, f64>]) -> f64 {
    Samples::new(
        total
            .iter()
            .map(|(r, v)| {
                v - parts
                    .iter()
                    .map(|p| p.get(r).copied().unwrap_or(0.0))
                    .sum::<f64>()
            })
            .collect(),
    )
    .median()
}

fn median_of(m: &BTreeMap<u64, f64>) -> f64 {
    Samples::new(m.values().copied().collect()).median()
}

/// Runs the traced replay. `workload` picks which count replay the
/// result-cache hit ratio is scraped from (count-hot's warmed pool, or
/// otherwise the count-engine stream); everything else is replayed for
/// all four workloads so every run reports every layer.
///
/// # Errors
///
/// Infrastructure failures; failed operations are counted in the outcome.
pub fn run(ctx: &Ctx, workload: &str) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let mut t = Tracer::new();
    let registry = Registry::new();

    publish_layers(ctx, &mut t, &registry, &mut out)?;
    let (engine_ratio, hot_ratio) = count_layers(ctx, &mut t, &registry, &mut out)?;
    verify_layers(ctx, &mut t, &mut out)?;
    let ratio = if workload == "count-hot" {
        hot_ratio
    } else {
        engine_ratio
    };
    out.metric("server.result_cache_hit_ratio", ratio, "ratio");

    let path = ctx.out.join(format!("trace-{workload}-{}.jsonl", ctx.seed));
    t.write(&path)?;
    out.note(format!(
        "{} spans written to {}",
        t.spans.len(),
        path.display()
    ));
    Ok(out)
}

/// Generation, Hilbert keys, and the publish path: the first publish
/// requests of the publish workload, stage by stage, as a durable
/// in-process dispatch, and over TCP against the binary.
fn publish_layers(
    ctx: &Ctx,
    t: &mut Tracer,
    registry: &Registry,
    out: &mut Outcome,
) -> Result<(), String> {
    let rows = ctx.sizes.rows;
    let warmup = wl::publish_warmup(ctx.seed, rows);
    for rep in 0..SETUP_REPEATS as u64 {
        if rep + 1 < SETUP_REPEATS as u64 {
            t.leaf("microdata.generate", rep, || {
                census::generate(&CensusConfig::new(rows, wl::DATASET_SEED))
            });
        } else {
            t.leaf("microdata.generate", rep, || {
                registry.dataset(&warmup.dataset)
            });
        }
    }
    let dataset = registry.dataset(&warmup.dataset);
    let table = Arc::clone(&dataset.table);
    for rep in 0..SETUP_REPEATS as u64 {
        if rep + 1 < SETUP_REPEATS as u64 {
            t.leaf("core.hilbert_keys", rep, || hilbert_keys(&table, &QI));
        } else {
            t.leaf("core.hilbert_keys", rep, || {
                registry.hilbert_keys(&dataset, &QI)
            });
        }
    }
    out.metric(
        "microdata.generate_s",
        t.samples("microdata.generate").median(),
        "s",
    );
    out.metric(
        "core.hilbert_keys_s",
        t.samples("core.hilbert_keys").median(),
        "s",
    );
    let keys = registry.hilbert_keys(&dataset, &QI);

    let store_dir = ScratchDir::new(&ctx.out)?;
    let (store, _) = ArtifactStore::open(store_dir.path()).map_err(|e| e.to_string())?;
    let dispatch_dir = ScratchDir::new(&ctx.out)?;
    let local = LocalServer::new(&ServerConfig {
        data_dir: Some(dispatch_dir.path().to_path_buf()),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("in-process server: {e}"))?;
    out.attempted += 1;
    check_publish_reply(&local.respond_line(&wl::publish_line(&warmup)).0, out);

    let mut burel_reqs = HashSet::new();
    let mut ecs = Vec::new();
    let mut bytes = Vec::new();
    let requests: Vec<_> = (0..PUBLISH_REPLAY)
        .map(|i| wl::publish_request(ctx.seed, i, rows))
        .collect();
    for (r, req) in requests.iter().enumerate() {
        let r = r as u64;
        t.span("publish", r, |t| -> Result<(), String> {
            let artifact = if req.algo == Algo::Burel {
                burel_reqs.insert(r);
                let cfg = BurelConfig::new(req.beta).with_seed(req.seed);
                let model =
                    BetaLikeness::with_bound(cfg.beta, cfg.bound).map_err(|e| e.to_string())?;
                let dist = table.sa_distribution(SA);
                let buckets = t.leaf("core.bucketize", r, || {
                    dp_partition(&dist, &model, cfg.bucket_slack.clamp(0.0, 0.99))
                });
                let sizes: Vec<u64> = buckets.iter().map(|b| b.count).collect();
                let eligibility = BetaEligibility::from_buckets(&buckets);
                let templates = t
                    .leaf("core.ectree", r, || bi_split(&sizes, &eligibility))
                    .ok_or("root not eligible")?;
                t.leaf("core.materialize", r, || {
                    let bucket_rows = rows_per_bucket(&table, SA, &buckets);
                    let mut mat = Materializer::with_seed_choice(
                        &keys,
                        &bucket_rows,
                        cfg.strategy,
                        cfg.seed_choice,
                    );
                    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
                    templates
                        .iter()
                        .map(|tpl| mat.fill(&tpl.counts, &mut rng))
                        .collect::<Vec<_>>()
                });
                let partition = t
                    .leaf("core.burel", r, || {
                        burel_with_keys(&table, &QI, SA, &cfg, &keys)
                    })
                    .map_err(|e| e.to_string())?;
                ecs.push(partition.num_ecs() as f64);
                t.leaf("query.catalog_build", r, || {
                    Catalog::for_partition(&table, &partition)
                });
                let artifact = t.leaf("server.artifact_publish", r, || {
                    Artifact::publish(registry, req)
                })?;
                t.leaf("metrics.audit", r, || {
                    audit_partition(&table, &partition, AUDIT_METRIC)
                });
                artifact
            } else {
                let model = BetaLikeness::new(req.beta).map_err(|e| e.to_string())?;
                t.leaf("core.perturb", r, || perturb(&table, SA, &model, req.seed))
                    .map_err(|e| e.to_string())?;
                t.leaf("server.artifact_publish", r, || {
                    Artifact::publish(registry, req)
                })?
            };
            // Fills the artifact's lazy audit, so the snapshot below times
            // only the snapshot (the audit was timed above).
            artifact.audit();
            let snap = t.leaf("server.snapshot", r, || persist::snapshot(&artifact));
            let encoded = t
                .leaf("store.encode", r, || publication_to_vec(&snap))
                .map_err(|e| e.to_string())?;
            if req.algo == Algo::Burel {
                bytes.push(encoded.len() as f64);
            }
            t.leaf("store.save", r, || store.save(&snap))
                .map_err(|e| e.to_string())?;
            let line = wl::publish_line(req);
            out.attempted += 1;
            let (reply, _) = t.leaf("server.publish_dispatch", r, || local.respond_line(&line));
            check_publish_reply(&reply, out);
            Ok(())
        })?;
    }
    drop(local);
    let manifest = std::fs::metadata(store_dir.path().join("MANIFEST"))
        .map_err(|e| format!("MANIFEST: {e}"))?
        .len();

    // The same requests over TCP against the binary, for the end-to-end
    // side of the reconciliation.
    let tcp_dir = ScratchDir::new(&ctx.out)?;
    let server = ServerProc::spawn(&ctx.bin, Some(tcp_dir.path()), &[])?;
    let mut client = server.connect()?;
    out.attempted += 1;
    if let Err(e) = call(&mut client, &wl::publish_line(&warmup)) {
        out.fail(format!("warm-up publish: {e}"));
    }
    for (r, req) in requests.iter().enumerate() {
        out.attempted += 1;
        let start = Instant::now();
        let reply = client.call_raw(&wl::publish_line(req));
        t.record("e2e.publish", r as u64, start, Instant::now());
        match reply {
            Ok(reply) => check_publish_reply(&reply, out),
            Err(e) => out.fail(format!("publish over TCP: {e}")),
        }
    }
    drop(client);
    server.stop()?;

    let b = &burel_reqs;
    let bucketize = pick(t, "core.bucketize", b);
    let ectree = pick(t, "core.ectree", b);
    let materialize = pick(t, "core.materialize", b);
    let burel = pick(t, "core.burel", b);
    let catalog = pick(t, "query.catalog_build", b);
    let compute = pick(t, "server.artifact_publish", b);
    let audit = pick(t, "metrics.audit", b);
    let snapshot = pick(t, "server.snapshot", b);
    let encode = pick(t, "store.encode", b);
    let save = pick(t, "store.save", b);
    let dispatch = pick(t, "server.publish_dispatch", b);
    let e2e = pick(t, "e2e.publish", b);
    out.metric("core.bucketize_s", median_of(&bucketize), "s");
    out.metric("core.ectree_s", median_of(&ectree), "s");
    out.metric("core.materialize_s", median_of(&materialize), "s");
    out.metric("core.burel_s", median_of(&burel), "s");
    out.metric(
        "core.burel_residual_s",
        residual(&burel, &[&bucketize, &ectree, &materialize]),
        "s",
    );
    out.metric("core.perturb_s", t.samples("core.perturb").median(), "s");
    out.metric("core.ecs", Samples::new(ecs).median(), "count");
    out.metric("metrics.audit_s", median_of(&audit), "s");
    out.metric("query.catalog_build_s", median_of(&catalog), "s");
    out.metric(
        "server.publish_compute_residual_s",
        residual(&compute, &[&burel, &catalog]),
        "s",
    );
    out.metric("server.snapshot_s", median_of(&snapshot), "s");
    out.metric("store.encode_s", median_of(&encode), "s");
    out.metric("store.save_s", median_of(&save), "s");
    out.metric(
        "store.bytes_per_artifact",
        Samples::new(bytes).median(),
        "B",
    );
    out.metric(
        "store.manifest_bytes_per_save",
        manifest as f64 / PUBLISH_REPLAY as f64,
        "B",
    );
    out.metric("server.publish_dispatch_s", median_of(&dispatch), "s");
    // Stage chain of one BUREL publish: Artifact::publish (BUREL, catalog,
    // answerer), audit, snapshot, save (encode, write, fsync, manifest).
    let unattributed = residual(&dispatch, &[&compute, &audit, &snapshot, &save]);
    let transport = residual(&e2e, &[&dispatch]);
    out.metric("recon.publish_unattributed_s", unattributed, "s");
    out.metric("server.publish_residual_s", transport, "s");
    out.metric("recon.publish_e2e_p50_s", median_of(&e2e), "s");
    out.note(format!(
        "publish reconciliation (BUREL medians): compute {:.4} + audit {:.4} + snapshot {:.4} \
         + save {:.4} + unattributed {unattributed:.4} = dispatch {:.4}; \
         dispatch + residual {transport:.4} vs end-to-end {:.4} s",
        median_of(&compute),
        median_of(&audit),
        median_of(&snapshot),
        median_of(&save),
        median_of(&dispatch),
        median_of(&e2e),
    ));
    Ok(())
}

/// Checks a publish reply line: `ok`, fresh, persisted.
fn check_publish_reply(reply: &str, out: &mut Outcome) {
    match Json::parse(reply) {
        Ok(doc)
            if flag(&doc, "ok") == Some(true)
                && flag(&doc, "cached") == Some(false)
                && flag(&doc, "persisted") == Some(true) => {}
        _ => out.fail(format!("publish reply `{reply}`")),
    }
}

/// The estimate in a count reply line.
fn reply_estimate(reply: &str) -> Option<f64> {
    let doc = Json::parse(reply).ok()?;
    (flag(&doc, "ok") == Some(true))
        .then(|| doc.get("estimate").and_then(Json::as_f64))
        .flatten()
}

fn touch(local: &LocalServer, handle: &str, out: &mut Outcome) {
    out.attempted += 1;
    let (reply, _) = local.respond_line(&audit_line(handle));
    if !reply.starts_with(r#"{"ok":true"#) {
        out.fail(format!("touch {handle}: {reply}"));
    }
}

fn local_hit_ratio(local: &LocalServer) -> Result<(u64, u64), String> {
    let (reply, _) = local.respond_line(METRICS_LINE);
    cache_counts(&Json::parse(&reply).map_err(|e| e.to_string())?)
}

/// The store read path, the query engine, and the serving layers of
/// count-engine and count-hot. Returns the result-cache hit ratios of the
/// count-engine replay and of count-hot's replay after warm-up.
fn count_layers(
    ctx: &Ctx,
    t: &mut Tracer,
    registry: &Registry,
    out: &mut Outcome,
) -> Result<(f64, f64), String> {
    let requests = wl::count_artifacts(ctx.seed, &ctx.sizes);
    let targets: Vec<(String, bool)> = requests
        .iter()
        .map(|r| (r.handle(), r.algo == Algo::Perturb))
        .collect();
    let dir = ScratchDir::new(&ctx.out)?;
    {
        let (store, _) = ArtifactStore::open(dir.path()).map_err(|e| e.to_string())?;
        for req in &requests {
            let artifact = Artifact::publish(registry, req)?;
            store
                .save(&persist::snapshot(&artifact))
                .map_err(|e| e.to_string())?;
        }
    }

    // Store read path: load (checksum, BPUB decode) and restore (catalog
    // rebuild), with catalog counters attached for the plan shapes.
    let stats = CatalogStats::default();
    let (store, _) = ArtifactStore::open(dir.path()).map_err(|e| e.to_string())?;
    let mut restored = Vec::new();
    for (r, req) in requests.iter().enumerate() {
        let r = r as u64;
        let snap = t
            .leaf("store.load", r, || store.load(&req.handle()))
            .map_err(|e| e.to_string())?
            .ok_or("saved artifact is missing")?;
        restored.push(t.leaf("server.restore", r, || {
            persist::restore_with(snap, true, Some(stats.clone()))
        })?);
    }
    drop(store);
    out.metric("store.load_s", t.samples("store.load").median(), "s");
    out.metric(
        "server.restore_s",
        t.samples("server.restore").median(),
        "s",
    );

    // count-engine: distinct lines, every one a result-cache miss.
    let engine = wl::count_queries(ctx.seed, "engine", &targets, ENGINE_REPLAY, &HashSet::new());
    let local = local_server(dir.path())?;
    for (handle, _) in &targets {
        touch(&local, handle, out);
    }
    // Two passes, so each keeps one copy of the artifacts hot in cache:
    // the answerer alone, then the whole in-process dispatch.
    let base = 1_000_000u64;
    let estimates: Vec<_> = engine
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let name = if targets[q.target].1 {
                "query.estimate_perturbed"
            } else {
                "query.estimate_generalized"
            };
            t.leaf(name, base + i as u64, || {
                restored[q.target].answerer.estimate(&q.query)
            })
        })
        .collect();
    for (i, (q, want)) in engine.iter().zip(estimates).enumerate() {
        let (reply, _) = t.leaf("server.dispatch", base + i as u64, || {
            local.respond_line(&q.line)
        });
        out.attempted += 1;
        match (want, reply_estimate(&reply)) {
            (Ok(want), Some(got)) if want.to_bits() == got.to_bits() => {}
            (want, got) => out.fail(format!(
                "count `{}`: in process {want:?}, dispatched {got:?}",
                q.line
            )),
        }
    }
    let (hits, misses) = local_hit_ratio(&local)?;
    let engine_ratio = hits as f64 / (hits + misses).max(1) as f64;
    drop(local);
    let n = engine.len() as f64;
    let groups = stats.disjoint.get()
        + stats.full_cover.get()
        + stats.straddle.get()
        + stats.residual_scan.get();
    out.metric(
        "query.estimate_generalized_us",
        t.samples("query.estimate_generalized").median() * 1e6,
        "us",
    );
    out.metric(
        "query.estimate_perturbed_us",
        t.samples("query.estimate_perturbed").median() * 1e6,
        "us",
    );
    out.metric("query.groups_per_count", groups as f64 / n, "count");
    out.metric(
        "query.straddle_per_count",
        stats.straddle.get() as f64 / n,
        "count",
    );
    out.metric(
        "query.residual_scan_per_count",
        stats.residual_scan.get() as f64 / n,
        "count",
    );
    let dispatch_us = t.samples("server.dispatch").median() * 1e6;
    out.metric("server.dispatch_us", dispatch_us, "us");

    // count-hot: a warmed pool, replayed in the seeded order.
    let engine_lines: HashSet<String> = engine.iter().map(|q| q.line.clone()).collect();
    let pool = wl::count_queries(ctx.seed, "hot", &targets, ctx.sizes.hot_pool, &engine_lines);
    let local = local_server(dir.path())?;
    let mut warm = Vec::new();
    for q in &pool {
        out.attempted += 1;
        warm.push(local.respond_line(&q.line).0);
    }
    let (_, warm_misses) = local_hit_ratio(&local)?;
    let base = 2_000_000u64;
    for i in 0..HOT_REPLAY {
        let r = base + i;
        let index = wl::replay_index(ctx.seed, pool.len(), i);
        let q = &pool[index];
        let (parsed, reply) = t.span("count", r, |t| {
            let parsed = t.leaf("server.parse", r, || {
                Json::parse(&q.line)
                    .map_err(|e| e.to_string())
                    .and_then(|doc| CountRequest::from_json(&doc))
            });
            let (reply, _) = t.leaf("server.cache_hit", r, || local.respond_line(&q.line));
            (parsed, reply)
        });
        out.attempted += 1;
        if parsed.is_err() || reply != warm[index] {
            out.fail(format!("count-hot replay of `{}` differs: {reply}", q.line));
        }
    }
    let (hits, misses) = local_hit_ratio(&local)?;
    let hot_ratio = hits as f64 / (hits + misses - warm_misses).max(1) as f64;
    drop(local);
    let cache_hit_us = t.samples("server.cache_hit").median() * 1e6;
    out.metric(
        "server.parse_us",
        t.samples("server.parse").median() * 1e6,
        "us",
    );
    out.metric("server.cache_hit_us", cache_hit_us, "us");

    // Transport and obs overhead: paired count-hot replays against the
    // binary with obs on (the default) and with --no-obs.
    let copy_on = copy_dir(ctx, dir.path())?;
    let copy_off = copy_dir(ctx, dir.path())?;
    let on = ServerProc::spawn(&ctx.bin, Some(copy_on.path()), &[])?;
    let off = ServerProc::spawn(&ctx.bin, Some(copy_off.path()), &["--no-obs"])?;
    let mut clients = [on.connect()?, off.connect()?];
    for client in &mut clients {
        for (handle, _) in &targets {
            out.attempted += 1;
            if let Err(e) = call(client, &audit_line(handle)) {
                out.fail(format!("touch {handle}: {e}"));
            }
        }
        for q in &pool {
            out.attempted += 1;
            if let Err(e) = call(client, &q.line) {
                out.fail(format!("warm `{}`: {e}", q.line));
            }
        }
    }
    let mut rtt_on = Vec::new();
    let mut overhead = Vec::new();
    let mut next = 0u64;
    for pair in 0..OBS_PAIRS {
        let mut block_median = [0.0f64; 2];
        let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
        let block_start = next;
        for side in order {
            let mut rtts = Vec::new();
            for i in block_start..block_start + OBS_BLOCK {
                let q = &pool[wl::replay_index(ctx.seed, pool.len(), HOT_REPLAY + i)];
                out.attempted += 1;
                let start = Instant::now();
                let reply = clients[side].call_raw(&q.line);
                let end = Instant::now();
                let name = if side == 0 {
                    "e2e.count_hot"
                } else {
                    "e2e.count_hot_no_obs"
                };
                t.record(name, 3_000_000 + i, start, end);
                if reply.is_err() {
                    out.fail(format!("count-hot over TCP: {reply:?}"));
                }
                rtts.push((end - start).as_secs_f64());
            }
            if side == 0 {
                rtt_on.extend(&rtts);
            }
            block_median[side] = Samples::new(rtts).median();
        }
        next += OBS_BLOCK;
        overhead.push((block_median[0] - block_median[1]) * 1e6);
    }
    let overhead = Samples::new(overhead);
    let rtt_us = Samples::new(rtt_on).median() * 1e6;
    out.metric("server.transport_us", rtt_us - cache_hit_us, "us");
    out.metric("obs.overhead_us", overhead.median(), "us");
    out.metric("obs.overhead_iqr_us", overhead.iqr(), "us");
    out.note(format!(
        "obs overhead: {:.3} us median of {} paired blocks (IQR {:.3} us), signed",
        overhead.median(),
        overhead.len(),
        overhead.iqr()
    ));
    let (hits, _) = cache_counts(&call(&mut clients[0], METRICS_LINE)?)?;
    out.check(
        hits >= OBS_PAIRS as u64 * OBS_BLOCK,
        format!("count-hot over TCP: only {hits} result-cache hits"),
    );
    drop(clients);
    off.stop()?;

    // Count reconciliation: the count-engine lines over TCP on the loop's
    // connection count (none sent to this server before, so all miss).
    let e2e = engine_rtts(&on, &engine)?;
    for (i, (start, end)) in e2e.iter().enumerate() {
        t.record("e2e.count_engine", 4_000_000 + i as u64, *start, *end);
    }
    on.stop()?;
    let e2e_us = t.samples("e2e.count_engine").median() * 1e6;
    out.metric("recon.count_e2e_p50_us", e2e_us, "us");
    out.metric(
        "recon.count_residual_us",
        e2e_us - dispatch_us - (rtt_us - cache_hit_us),
        "us",
    );
    out.note(format!(
        "count reconciliation: dispatch {dispatch_us:.2} + transport {:.2} vs end-to-end \
         {e2e_us:.2} us (count-engine lines, {COUNT_CONNECTIONS} connections)",
        rtt_us - cache_hit_us
    ));
    Ok((engine_ratio, hot_ratio))
}

fn local_server(dir: &Path) -> Result<LocalServer, String> {
    LocalServer::new(&ServerConfig {
        data_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("in-process server: {e}"))
}

/// A copy of a store directory, so two processes never share one.
fn copy_dir(ctx: &Ctx, from: &Path) -> Result<ScratchDir, String> {
    fn copy(from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(to)?;
        for entry in std::fs::read_dir(from)? {
            let entry = entry?;
            let target = to.join(entry.file_name());
            if entry.file_type()?.is_dir() {
                copy(&entry.path(), &target)?;
            } else {
                std::fs::copy(entry.path(), target)?;
            }
        }
        Ok(())
    }
    let dir = ScratchDir::new(&ctx.out)?;
    copy(from, dir.path()).map_err(|e| format!("copy store: {e}"))?;
    Ok(dir)
}

/// Sends `queries` over TCP on the count loop's connection count and
/// returns each request's start and end.
fn engine_rtts(
    server: &ServerProc,
    queries: &[CountQuery],
) -> Result<Vec<(Instant, Instant)>, String> {
    let clients = (0..COUNT_CONNECTIONS)
        .map(|_| server.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let per: Vec<Vec<(Instant, Instant)>> = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                s.spawn(move || {
                    queries
                        .iter()
                        .skip(c)
                        .step_by(COUNT_CONNECTIONS)
                        .filter_map(|q| {
                            let start = Instant::now();
                            client
                                .call_raw(&q.line)
                                .ok()
                                .map(|_| (start, Instant::now()))
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
    let all: Vec<(Instant, Instant)> = per.into_iter().flatten().collect();
    if all.len() != queries.len() {
        return Err(format!(
            "{} of {} count-engine lines failed over TCP",
            queries.len() - all.len(),
            queries.len()
        ));
    }
    Ok(all)
}

/// The verify path at the verify size: the oracle, the battery, and the
/// battery's attacks on the same inputs.
fn verify_layers(ctx: &Ctx, t: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let registry = Registry::new();
    let mut rounds = Vec::new();
    for (r, req) in wl::verify_artifacts(ctx.seed, ctx.sizes.verify_rows)
        .iter()
        .enumerate()
    {
        let r = 5_000_000 + r as u64;
        let artifact = Artifact::publish(&registry, req)?;
        let snap = persist::snapshot(&artifact);
        let partition = artifact.partition.as_ref().ok_or("BUREL has a partition")?;
        let table = artifact.answerer.source();
        t.span("verify", r, |t| {
            out.attempted += 2;
            let oracle = t.leaf("conformance.oracle", r, || {
                betalike_conformance::verify_snapshot(&snap)
            });
            if !oracle.pass() {
                out.fail(format!("oracle rejects {}", req.handle()));
            }
            match t.leaf("conformance.battery", r, || {
                betalike_conformance::run_battery_snapshot(&snap)
            }) {
                Ok(report) if report.pass() => {}
                other => out.fail(format!("battery on {}: {other:?}", req.handle())),
            }
            t.leaf("attacks.naive_bayes", r, || {
                naive_bayes_attack(table, partition)
            });
            let def = t.leaf("attacks.definetti", r, || {
                definetti_attack(table, partition, &DefinettiConfig::default())
            });
            rounds.push(def.iterations as f64);
            t.leaf("attacks.corruption", r, || {
                (
                    corruption_attack_generalized(table, partition, 0.0, req.seed),
                    corruption_attack_generalized(table, partition, 0.5, req.seed),
                )
            });
        });
    }
    let all: HashSet<u64> = t.by_req("conformance.battery").into_keys().collect();
    let battery = pick(t, "conformance.battery", &all);
    let nb = pick(t, "attacks.naive_bayes", &all);
    let def = pick(t, "attacks.definetti", &all);
    let corr = pick(t, "attacks.corruption", &all);
    out.metric(
        "conformance.oracle_s",
        t.samples("conformance.oracle").median(),
        "s",
    );
    out.metric("conformance.battery_s", median_of(&battery), "s");
    out.metric(
        "conformance.battery_residual_s",
        residual(&battery, &[&nb, &def, &corr]),
        "s",
    );
    out.metric("attacks.naive_bayes_s", median_of(&nb), "s");
    out.metric("attacks.definetti_s", median_of(&def), "s");
    out.metric("attacks.corruption_s", median_of(&corr), "s");
    out.metric(
        "attacks.definetti_rounds",
        Samples::new(rounds).median(),
        "count",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::ServerBin;
    use crate::workload::Sizes;
    use std::path::PathBuf;

    #[test]
    fn traced_run_reports_every_layer_at_smoke_size() {
        let ctx = Ctx {
            bin: ServerBin::InProcess,
            out: PathBuf::from(".perfbench-out").join("test-trace"),
            seed: 11,
            seconds: 0.3,
            sizes: Sizes::smoke(),
        };
        std::fs::create_dir_all(&ctx.out).unwrap();
        let outcome = run(&ctx, "count-hot").unwrap();
        assert!(
            outcome.correct && outcome.failed == 0,
            "{:#?}",
            outcome.report
        );
        let names: HashSet<&str> = outcome.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names.len(), outcome.metrics.len(), "a layer metric repeats");
        for (name, value, _) in &outcome.metrics {
            assert!(value.is_finite(), "{name} = {value}");
        }
        let ratio = outcome
            .metrics
            .iter()
            .find(|m| m.0 == "server.result_cache_hit_ratio")
            .unwrap();
        assert_eq!(ratio.1, 1.0);
    }
}
