//! Seeded request generation. Everything the server sees is built here
//! from the workload seed, so the same seed gives byte-identical request
//! lines and a different seed gives different ones.

use betalike_microdata::census::{self, CensusConfig};
use betalike_microdata::hash::fnv1a64;
use betalike_microdata::json::Json;
use betalike_microdata::Table;
use betalike_query::{generate_workload, AggQuery, WorkloadConfig};
use betalike_server::{Algo, CountRequest, DatasetSpec, PublishRequest};
use std::collections::HashSet;

/// The four workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["publish", "count-engine", "count-hot", "verify"];

/// The CENSUS generator seed. The paper evaluates one fixed table; the
/// workload seed varies everything drawn from it (algorithm seeds, query
/// streams, replay order), not the table itself.
pub const DATASET_SEED: u64 = 42;

/// QI attributes the generalized artifacts publish and the queries
/// predicate on (Age, Gender, Education: the workspace default QI = 3).
pub const QI: [usize; 3] = [0, 1, 2];

/// QI attributes the perturbed artifact's queries draw from: perturbation
/// publishes every QI verbatim, so queries may predicate on any of them.
pub const PERTURBED_QI_POOL: [usize; 5] = [0, 1, 2, 3, 4];

/// The sensitive attribute (Salary class).
pub const SA: usize = census::attr::SALARY;

/// Count-query shape (the paper's defaults).
pub const LAMBDA: usize = 3;
/// Expected selectivity of a count query.
pub const THETA: f64 = 0.1;

/// Sizes of one benchmark run. `full()` is what the benchmark measures;
/// `smoke()` keeps the self-tests fast.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// CENSUS rows for publish, count-engine and count-hot.
    pub rows: usize,
    /// CENSUS rows for the verify workload (the attack battery is ~20×
    /// slower per row than a publish).
    pub verify_rows: usize,
    /// BUREL β=4 artifacts behind the generalized count queries.
    pub count_burel: usize,
    /// Distinct queries count-engine pre-generates: an upper bound on what
    /// one run can send. A run that uses them all stops early (and says
    /// so) rather than repeat a line.
    pub engine_lines: usize,
    /// Distinct queries in count-hot's pool (must fit the default
    /// 1024-entry result cache).
    pub hot_pool: usize,
    /// Least number of set-ups per run, for the `setup_s` median.
    pub setups: usize,
    /// Set-ups repeat (up to five times `setups`) until they have taken
    /// this long in total, so a cheap set-up is sampled more often.
    pub setup_seconds: f64,
    /// Length of the count probe the publish and verify workloads run.
    pub probe_seconds: f64,
    /// Distinct count queries generated for the count probe (an upper
    /// bound on what the probe window sends).
    pub probe_counts: usize,
    /// `verify` calls in the verify probe of the other workloads.
    pub probe_verifies: usize,
}

impl Sizes {
    /// The measured sizes.
    pub fn full() -> Self {
        Sizes {
            rows: 500_000,
            verify_rows: 20_000,
            count_burel: 4,
            engine_lines: 60_000,
            hot_pool: 256,
            setups: 3,
            setup_seconds: 1.5,
            probe_seconds: 3.0,
            probe_counts: 50_000,
            probe_verifies: 3,
        }
    }

    /// Small sizes for self-tests.
    #[cfg(test)]
    pub fn smoke() -> Self {
        Sizes {
            rows: 5_000,
            verify_rows: 2_000,
            count_burel: 2,
            engine_lines: 2_000,
            hot_pool: 64,
            setups: 2,
            setup_seconds: 0.0,
            probe_seconds: 0.2,
            probe_counts: 2_000,
            probe_verifies: 1,
        }
    }
}

/// A seed for the `i`-th draw of stream `tag`: a mix of the workload seed,
/// the stream name and the index, kept below 2^53 so it survives the
/// wire's JSON numbers exactly.
pub fn derive_seed(seed: u64, tag: &str, i: u64) -> u64 {
    let mut x = seed ^ fnv1a64(tag.as_bytes()) ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    // splitmix64 finalizer
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (x ^ (x >> 31)) & ((1 << 53) - 1)
}

fn census(rows: usize) -> DatasetSpec {
    DatasetSpec::Census {
        rows,
        seed: DATASET_SEED,
    }
}

fn request(rows: usize, algo: Algo, beta: f64, seed: u64) -> PublishRequest {
    PublishRequest {
        dataset: census(rows),
        algo,
        qi: QI.len(),
        beta,
        t: 0.0,
        seed,
    }
    .normalized()
}

/// The wire line of a publish request.
pub fn publish_line(req: &PublishRequest) -> String {
    req.to_json().compact()
}

/// The publish workload's `i`-th request: BUREL cycling β ∈ {2,3,4,5},
/// with every fifth request a perturbation publish, each with a fresh
/// algorithm seed so no request hits the artifact cache.
pub fn publish_request(seed: u64, i: u64, rows: usize) -> PublishRequest {
    let algo_seed = derive_seed(seed, "publish", i);
    if i % 5 == 4 {
        request(rows, Algo::Perturb, 4.0, algo_seed)
    } else {
        let burel_index = i - i / 5;
        request(rows, Algo::Burel, 2.0 + (burel_index % 4) as f64, algo_seed)
    }
}

/// The publish workload's untimed warm-up: pays CENSUS generation and the
/// Hilbert keys once, as a real publisher does.
pub fn publish_warmup(seed: u64, rows: usize) -> PublishRequest {
    request(
        rows,
        Algo::Burel,
        4.0,
        derive_seed(seed, "publish-warmup", 0),
    )
}

/// The artifacts count-engine and count-hot query: `count_burel` BUREL
/// β=4 publications with distinct algorithm seeds, then one perturbation
/// publication. Several BUREL artifacts widen the space of distinct
/// generalized queries (one artifact over three QIs admits only ~13k
/// distinct λ=3, θ=0.1 queries), so no query line repeats within a run.
pub fn count_artifacts(seed: u64, sizes: &Sizes) -> Vec<PublishRequest> {
    let mut out: Vec<PublishRequest> = (0..sizes.count_burel as u64)
        .map(|i| {
            request(
                sizes.rows,
                Algo::Burel,
                4.0,
                derive_seed(seed, "count-burel", i),
            )
        })
        .collect();
    out.push(request(
        sizes.rows,
        Algo::Perturb,
        4.0,
        derive_seed(seed, "count-perturb", 0),
    ));
    out
}

/// The verify workload's artifacts: BUREL over the β cycle {2,3,4,5}.
pub fn verify_artifacts(seed: u64, rows: usize) -> Vec<PublishRequest> {
    (0..4u64)
        .map(|i| {
            request(
                rows,
                Algo::Burel,
                2.0 + i as f64,
                derive_seed(seed, "verify", i),
            )
        })
        .collect()
}

/// The verify probe's artifact: a BUREL β=4 publication at the verify
/// size, the same for every seed so the probe times one fixed battery.
pub fn probe_verify_artifact(rows: usize) -> PublishRequest {
    request(rows, Algo::Burel, 4.0, derive_seed(0, "probe-verify", 0))
}

/// The count probe's artifact: a perturbation publication of CENSUS
/// `rows`, the same for every seed. Its estimates take ~1 ms each, long
/// against the host's wake-up latency, so the probe times the engine.
pub fn probe_count_artifact(rows: usize) -> PublishRequest {
    request(rows, Algo::Perturb, 4.0, derive_seed(0, "probe-count", 0))
}

/// The wire line of a `verify` request.
pub fn verify_line(handle: &str, battery: bool) -> String {
    Json::Obj(vec![
        ("op".into(), Json::Str("verify".into())),
        ("handle".into(), Json::Str(handle.into())),
        ("battery".into(), Json::Bool(battery)),
    ])
    .compact()
}

/// One count query: the artifact it targets (an index into the workload's
/// artifact list), the in-process query, and its wire line.
#[derive(Debug, Clone)]
pub struct CountQuery {
    /// Index of the target artifact.
    pub target: usize,
    /// The query as the in-process answerer takes it.
    pub query: AggQuery,
    /// The request line sent to the server.
    pub line: String,
}

/// A table carrying the CENSUS schema; `generate_workload` reads only the
/// attribute domains from it.
fn schema_table() -> Table {
    census::generate(&CensusConfig::new(64, DATASET_SEED))
}

/// Draws `n` distinct count queries (λ=3, θ=0.1, `exact: false`) through
/// `generate_workload`, interleaved 3:1 between the generalized targets
/// and the perturbed target, round-robin over the generalized targets.
/// Lines listed in `exclude` are never produced. Returns fewer than `n`
/// lines only if the query space is exhausted.
///
/// `targets` pairs each artifact handle with whether it is perturbed.
pub fn count_queries(
    seed: u64,
    tag: &str,
    targets: &[(String, bool)],
    n: usize,
    exclude: &HashSet<String>,
) -> Vec<CountQuery> {
    let table = schema_table();
    let generalized: Vec<usize> = (0..targets.len()).filter(|&t| !targets[t].1).collect();
    let perturbed: Vec<usize> = (0..targets.len()).filter(|&t| targets[t].1).collect();
    // One draw stream per target, refilled in chunks from generate_workload.
    let mut streams: Vec<Stream> = (0..targets.len())
        .map(|t| {
            let pool = if targets[t].1 {
                PERTURBED_QI_POOL.to_vec()
            } else {
                QI.to_vec()
            };
            Stream::new(derive_seed(seed, tag, t as u64), pool)
        })
        .collect();
    let mut seen: HashSet<String> = HashSet::new();
    let mut out = Vec::with_capacity(n);
    let mut next_generalized = 0usize;
    let mut exhausted = 0usize;
    while out.len() < n && exhausted < targets.len() * 4 {
        let slot = out.len();
        let target = if !perturbed.is_empty() && (slot % 4 == 3 || generalized.is_empty()) {
            perturbed[(slot / 4) % perturbed.len()]
        } else {
            let t = generalized[next_generalized % generalized.len()];
            next_generalized += 1;
            t
        };
        match streams[target].next_distinct(&table, &targets[target].0, &mut seen, exclude) {
            Some((query, line)) => out.push(CountQuery {
                target,
                query,
                line,
            }),
            None => exhausted += 1,
        }
    }
    out
}

/// Draws from one target's query stream, skipping lines already produced.
struct Stream {
    seed: u64,
    qi_pool: Vec<usize>,
    chunk: u64,
    buffer: Vec<AggQuery>,
}

impl Stream {
    const CHUNK: usize = 4_096;
    /// Consecutive duplicate draws after which the space counts as spent.
    const GIVE_UP: usize = 50_000;

    fn new(seed: u64, qi_pool: Vec<usize>) -> Self {
        Stream {
            seed,
            qi_pool,
            chunk: 0,
            buffer: Vec::new(),
        }
    }

    fn next_distinct(
        &mut self,
        table: &Table,
        handle: &str,
        seen: &mut HashSet<String>,
        exclude: &HashSet<String>,
    ) -> Option<(AggQuery, String)> {
        for _ in 0..Self::GIVE_UP {
            if self.buffer.is_empty() {
                let cfg = WorkloadConfig {
                    qi_pool: self.qi_pool.clone(),
                    sa: SA,
                    lambda: LAMBDA,
                    theta: THETA,
                    num_queries: Self::CHUNK,
                    seed: derive_seed(self.seed, "chunk", self.chunk),
                };
                self.chunk += 1;
                self.buffer = generate_workload(table, &cfg);
                self.buffer.reverse();
            }
            let query = self.buffer.pop()?;
            let line = count_line(handle, &query);
            if !exclude.contains(&line) && seen.insert(line.clone()) {
                return Some((query, line));
            }
        }
        None
    }
}

/// The wire line of an estimate-only count request.
pub fn count_line(handle: &str, query: &AggQuery) -> String {
    CountRequest {
        handle: handle.to_string(),
        qi_preds: query.qi_preds.clone(),
        sa_lo: query.sa_pred.lo,
        sa_hi: query.sa_pred.hi,
        exact: false,
    }
    .to_json()
    .compact()
}

/// The `i`-th index of a seeded replay order over a pool of `len` lines,
/// drawn uniformly with replacement.
pub fn replay_index(seed: u64, len: usize, i: u64) -> usize {
    (derive_seed(seed, "replay", i) % len as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn targets() -> Vec<(String, bool)> {
        vec![
            ("pub-00000000000000aa".into(), false),
            ("pub-00000000000000bb".into(), false),
            ("pub-00000000000000cc".into(), true),
        ]
    }

    fn all_lines(seed: u64) -> Vec<String> {
        let sizes = Sizes::smoke();
        let mut lines: Vec<String> = (0..20)
            .map(|i| publish_line(&publish_request(seed, i, sizes.rows)))
            .collect();
        lines.push(publish_line(&publish_warmup(seed, sizes.rows)));
        lines.extend(count_artifacts(seed, &sizes).iter().map(publish_line));
        lines.extend(
            verify_artifacts(seed, sizes.verify_rows)
                .iter()
                .map(publish_line),
        );
        lines.extend(
            count_queries(seed, "engine", &targets(), 500, &HashSet::new())
                .into_iter()
                .map(|q| q.line),
        );
        lines.extend((0..100).map(|i| replay_index(seed, 64, i).to_string()));
        lines
    }

    #[test]
    fn same_seed_gives_byte_identical_lines() {
        assert_eq!(all_lines(7), all_lines(7));
    }

    #[test]
    fn different_seed_gives_different_lines() {
        let (a, b) = (all_lines(7), all_lines(8));
        assert_eq!(a.len(), b.len());
        let differing = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        assert!(differing > a.len() / 2, "only {differing} lines differ");
    }

    #[test]
    fn seeds_survive_json_numbers() {
        for i in 0..1000 {
            let s = derive_seed(u64::MAX - i, "publish", i);
            assert_eq!(s as f64 as u64, s);
        }
    }

    #[test]
    fn publish_stream_mixes_schemes_and_never_repeats() {
        let reqs: Vec<PublishRequest> = (0..40).map(|i| publish_request(3, i, 1000)).collect();
        let perturbs = reqs.iter().filter(|r| r.algo == Algo::Perturb).count();
        assert_eq!(perturbs, 8);
        let betas: HashSet<u64> = reqs
            .iter()
            .filter(|r| r.algo == Algo::Burel)
            .map(|r| r.beta as u64)
            .collect();
        assert_eq!(betas, HashSet::from([2, 3, 4, 5]));
        let handles: HashSet<String> = reqs.iter().map(PublishRequest::handle).collect();
        assert_eq!(handles.len(), reqs.len());
        assert!(!handles.contains(&publish_warmup(3, 1000).handle()));
    }

    #[test]
    fn count_queries_are_distinct_and_mixed_three_to_one() {
        let qs = count_queries(5, "engine", &targets(), 2_000, &HashSet::new());
        assert_eq!(qs.len(), 2_000);
        let lines: HashSet<&str> = qs.iter().map(|q| q.line.as_str()).collect();
        assert_eq!(lines.len(), qs.len(), "a query line repeats");
        let perturbed = qs.iter().filter(|q| q.target == 2).count();
        assert_eq!(perturbed, 500);
        // Excluded lines are never produced.
        let exclude: HashSet<String> = qs[..100].iter().map(|q| q.line.clone()).collect();
        let again = count_queries(5, "engine", &targets(), 2_000, &exclude);
        assert!(again.iter().all(|q| !exclude.contains(&q.line)));
    }
}
