//! Host-measured benchmark of shrinksvm: train and predict on seeded
//! paper-analog workloads. See README.md beside this package.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dense-higgs-p2 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones.

// Every clock read here is host wall time, which is what this benchmark
// measures; none of it feeds the simulated LogGP clocks the workspace's
// wall-clock lint protects.
#![allow(clippy::disallowed_methods)]

mod probes;
mod spans;

use std::process::ExitCode;
use std::time::Instant;

use shrinksvm::core::cache::CacheStats;
use shrinksvm::core::dist::DistRunResult;
use shrinksvm::core::smo::TrainOutput;
use shrinksvm::datagen::{FeatureStyle, PlantedConfig};
use shrinksvm::prelude::*;
use shrinksvm::sparse::io::{read_libsvm_from, write_libsvm_to};

use spans::Tracer;

/// Largest allowed gap between a DistSolver model's held-out accuracy and
/// the sequential SmoSolver's on the same rows. Both solve the same dual
/// to ε = 1e-3 but stop at different points, so a few held-out rows may
/// flip; 0.03 is about four rows of a 125-row held-out set (URL).
const ACC_TOL: f64 = 0.03;

/// Fewest rounds of the main loop; each round sets up, trains and
/// predicts every problem. Two give every best-of-rounds figure a second
/// sample and the traced run one traced and one untraced round.
const MIN_ROUNDS: usize = 2;

/// Pool threads of the libsvm baseline, and the host's core count the
/// workloads are sized for.
const POOL_THREADS: usize = 2;

#[derive(Clone, Copy, PartialEq)]
enum Solver {
    /// `DistSolver`, p = 2 simulated ranks, t = 1, `ShrinkPolicy::best()`.
    Dist,
    /// `SmoSolver` with a `ThreadPool` of `POOL_THREADS`.
    Pool,
}

#[derive(Clone, Copy, PartialEq)]
enum Data {
    Higgs,
    Url,
}

/// One workload. A run trains `problems` independent planted problems,
/// all made from the run's seed, because one problem's cost swings up to
/// 2× with the seed (whether a second gradient reconstruction fires);
/// their mean is steady from seed to seed.
struct Workload {
    name: &'static str,
    data: Data,
    solver: Solver,
    problems: usize,
    n_train: usize,
    n_test: usize,
    /// Kernel-cache budget (per rank for DistSolver): about a fifth of one
    /// problem's kernel matrix, so the LRU evicts.
    cache_bytes: usize,
    /// Held-out passes per problem per round, spread over the round. Cheap
    /// passes are repeated so that each held-out row gets many chances to
    /// run while the host is fast (see README.md, Host noise).
    passes: usize,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "dense-higgs-p2",
        data: Data::Higgs,
        solver: Solver::Dist,
        problems: 8,
        n_train: 1000,
        n_test: 500,
        cache_bytes: 2 << 20,
        passes: 4,
    },
    Workload {
        name: "sparse-url-p2",
        data: Data::Url,
        solver: Solver::Dist,
        problems: 24,
        n_train: 400,
        n_test: 125,
        cache_bytes: 1 << 20,
        passes: 2,
    },
    Workload {
        name: "libsvm-pool-higgs",
        data: Data::Higgs,
        solver: Solver::Pool,
        problems: 8,
        n_train: 1000,
        n_test: 500,
        cache_bytes: 2 << 20,
        passes: 10,
    },
];

impl Workload {
    /// The paper preset's generator values (HIGGS or URL) with a seed
    /// derived from the run's seed and the problem index.
    fn planted(&self, seed: u64, k: usize) -> PlantedConfig {
        let seed = seed.wrapping_mul(1000).wrapping_add(k as u64);
        let n = self.n_train + self.n_test;
        match self.data {
            Data::Higgs => PlantedConfig {
                n,
                dim: 28,
                nnz_per_row: 28,
                sv_fraction: 0.40,
                label_noise: 0.08,
                margin_scale: 1.0,
                style: FeatureStyle::Dense,
                target_norm: None,
                feature_skew: 0.0,
                seed,
            },
            Data::Url => PlantedConfig {
                n,
                dim: 50_000,
                nnz_per_row: 40,
                sv_fraction: 0.04,
                label_noise: 0.03,
                margin_scale: 2.5,
                style: FeatureStyle::SparseBinary,
                target_norm: Some(3.27),
                feature_skew: 4.0,
                seed,
            },
        }
    }

    fn params(&self) -> SvmParams {
        let (c, sigma_sq) = match self.data {
            Data::Higgs => (32.0, 64.0),
            Data::Url => (10.0, 4.0),
        };
        let p = SvmParams::new(c, KernelKind::rbf_from_sigma_sq(sigma_sq))
            .with_epsilon(1e-3)
            .with_cache_bytes(self.cache_bytes);
        match self.solver {
            Solver::Dist => p.with_shrink(ShrinkPolicy::best()),
            Solver::Pool => p,
        }
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One planted problem: its libsvm text, the parsed split, and the
/// sequential-SmoSolver reference trained on the same rows.
struct Problem {
    text: Vec<u8>,
    train: Dataset,
    test: Dataset,
    reference_bytes: Vec<u8>,
    reference_accuracy: f64,
    /// libsvm-pool-higgs only: the `DistRunResult::makespan` the library
    /// models for the same solve on one node with the pool's threads (see
    /// `pool_modeled_s`). SmoSolver itself has no simulated clock.
    pool_modeled_s: f64,
}

/// What the checks and metrics need from one `train()` call.
struct Trained {
    host_s: f64,
    /// `SvmModel::write_to` bytes of the model.
    bytes: Vec<u8>,
    modeled_s: f64,
    run: Run,
}

/// The solver's own result of a `train()` call.
enum Run {
    Dist(Box<DistRunResult>),
    Smo(Box<TrainOutput>),
}

impl Run {
    fn model(&self) -> &SvmModel {
        match self {
            Run::Dist(d) => &d.model,
            Run::Smo(o) => &o.model,
        }
    }

    fn iterations(&self) -> u64 {
        match self {
            Run::Dist(d) => d.iterations,
            Run::Smo(o) => o.iterations,
        }
    }

    fn converged(&self) -> bool {
        match self {
            Run::Dist(d) => d.converged,
            Run::Smo(o) => o.converged,
        }
    }

    fn dist(&self) -> Option<&DistRunResult> {
        match self {
            Run::Dist(d) => Some(d),
            Run::Smo(_) => None,
        }
    }

    /// Kernel-cache counters; DistSolver's are summed over ranks.
    fn cache(&self) -> CacheStats {
        match self {
            Run::Dist(d) => CacheStats {
                hits: d.metrics.counter("kernel_cache_hits"),
                misses: d.metrics.counter("kernel_cache_misses"),
                insertions: d.metrics.counter("kernel_cache_insertions"),
                evictions: d.metrics.counter("kernel_cache_evictions"),
            },
            Run::Smo(o) => o.cache_stats,
        }
    }
}

fn model_bytes(m: &SvmModel) -> Vec<u8> {
    let mut out = Vec::new();
    m.write_to(&mut out).expect("writing to a Vec cannot fail");
    out
}

/// The library's simulated makespan of the libsvm baseline's solve: one
/// node (p = 1) with `POOL_THREADS` worker threads, no shrinking, the same
/// parameters and rows. `SmoSolver` runs outside the simulator, so this is
/// the modeled figure the library gives for the same work.
fn pool_modeled_s(w: &Workload, train: &Dataset) -> Result<f64, String> {
    caught(|| {
        let r = DistSolver::new(train, w.params())
            .with_threads(POOL_THREADS)
            .train()
            .map_err(|e| e.to_string())?;
        if r.converged {
            Ok(r.makespan)
        } else {
            Err("did not converge".into())
        }
    })
}

/// Run `f`, turning a panic into an error carrying its message.
fn caught<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("panicked: {}", msg.lines().next().unwrap_or("")))
    })
}

/// One `train()` call of the workload's solver. A panic inside the library
/// is returned as an error, so it counts as one failed call.
///
/// `tracing` turns on `DistSolver::with_tracing`; without a `pool` the
/// SmoSolver runs sequentially (t = 1).
fn train(
    w: &Workload,
    p: &Problem,
    pool: Option<&ThreadPool>,
    tracing: bool,
) -> Result<Trained, String> {
    caught(|| train_inner(w, p, pool, tracing))
}

fn train_inner(
    w: &Workload,
    p: &Problem,
    pool: Option<&ThreadPool>,
    tracing: bool,
) -> Result<Trained, String> {
    let params = w.params();
    let t0 = Instant::now();
    match w.solver {
        Solver::Dist => {
            let mut s = DistSolver::new(&p.train, params).with_processes(2);
            if tracing {
                s = s.with_tracing();
            }
            let r = s.train().map_err(|e| e.to_string())?;
            let host_s = t0.elapsed().as_secs_f64();
            Ok(Trained {
                host_s,
                bytes: model_bytes(&r.model),
                modeled_s: r.makespan,
                run: Run::Dist(Box::new(r)),
            })
        }
        Solver::Pool => {
            let solver = SmoSolver::new(&p.train, params);
            let solver = match pool {
                Some(pool) => solver.with_pool(pool),
                None => solver,
            };
            let out = solver.train().map_err(|e| e.to_string())?;
            let host_s = t0.elapsed().as_secs_f64();
            Ok(Trained {
                host_s,
                bytes: model_bytes(&out.model),
                modeled_s: p.pool_modeled_s,
                run: Run::Smo(Box::new(out)),
            })
        }
    }
}

/// Parse one problem's libsvm text and split it, as a user's program does
/// before training. Returns the split, the seconds of the whole setup and
/// those of its parse.
fn setup(w: &Workload, text: &[u8], tr: &mut Tracer) -> ((Dataset, Dataset), f64, f64) {
    let root = tr.begin("setup");
    let sp = tr.begin("sparse.read_libsvm");
    let t0 = Instant::now();
    let ds = read_libsvm_from(text).expect("benchmark-generated libsvm text parses");
    let parse_s = t0.elapsed().as_secs_f64();
    tr.end(sp, &[("bytes", text.len() as f64)]);
    let sp = tr.begin("sparse.split_at");
    let split = ds.split_at(w.n_train);
    let setup_s = t0.elapsed().as_secs_f64();
    tr.end(sp, &[]);
    tr.end(root, &[]);
    (split, setup_s, parse_s)
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile of the samples; NaN for none.
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-round record of the main loop.
struct Round {
    traced: bool,
    /// Host seconds of each problem's `train()` call.
    train_s: Vec<f64>,
    /// Traced run only: host seconds of each problem's comparison call,
    /// made right after its `train()` call (see `compare`); NaN otherwise.
    compare_s: Vec<f64>,
    /// Held-out passes in the order they ran: the problem, and the host
    /// microseconds of each of its `decision` calls.
    passes: Vec<(usize, Vec<f64>)>,
}

/// Results of the main loop that the metrics are computed from.
struct Measured {
    rounds: Vec<Round>,
    /// Per problem: seconds of each of its setups (parse and split) and of
    /// their parse part. Each round sets every problem up twice.
    setup_s: Vec<Vec<f64>>,
    parse_s: Vec<Vec<f64>>,
    /// First successful `train()` result per problem (all later ones must
    /// match it).
    first: Vec<Option<Trained>>,
    /// DistSolver traced run: PerfDoctor's zero-network what-if of the
    /// first `with_tracing()` train of each problem.
    zero_network_s: Vec<Option<f64>>,
    accuracy: f64,
    tally: Tally,
}

impl Measured {
    fn trained(&self) -> impl Iterator<Item = &Trained> {
        self.first.iter().flatten()
    }
}

/// Library calls made, and how many of them failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// The first `SHOWN_FAILURES` failure messages, repeated at the end of
    /// the run so that the tail of standard error names them.
    shown: Vec<String>,
}

const SHOWN_FAILURES: usize = 5;

impl Tally {
    /// Count a failed check of a call already counted.
    fn fail(&mut self, what: String) {
        self.failed += 1;
        eprintln!("FAILED: {what}");
        if self.shown.len() < SHOWN_FAILURES {
            self.shown.push(what);
        }
    }

    /// Count one call; print and count it when it failed.
    fn check<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| self.fail(format!("{what}: {e}"))).ok()
    }
}

/// The traced run's comparison call for a problem, made next to its
/// measured `train()` call so that both sides get the same number of
/// samples from the same stretches of the run: `with_tracing()` on
/// DistSolver (for `obs.tracing_overhead`), the sequential t = 1
/// SmoSolver on libsvm-pool-higgs (for `threads.pool_speedup`).
fn compare(w: &Workload, p: &Problem) -> Result<Trained, String> {
    match w.solver {
        Solver::Dist => train(w, p, None, true),
        Solver::Pool => train(w, p, None, false),
    }
}

/// After a `train()` call erred: repeat it once, untimed and uncounted, and
/// say whether the error follows from the inputs. The solvers are
/// deterministic, so an error that does not repeat came from the host's
/// timing (see README.md, Checks).
fn repeat_note(w: &Workload, p: &Problem, pool: &ThreadPool, first: Option<&Trained>) -> String {
    match train(w, p, Some(pool), false) {
        Err(e) => format!("the same call repeated at once failed too: {e}"),
        Ok(t) if first.is_some_and(|f| f.bytes != t.bytes) => {
            "the same call repeated at once succeeded with another model".into()
        }
        Ok(_) => "the same call repeated at once succeeded, \
                  so the error does not follow from the inputs"
            .into(),
    }
}

/// Interleave setups, `train()` calls and held-out prediction passes until
/// the deadline, checking every output.
fn measure(
    a: &Args,
    problems: &[Problem],
    pool: &ThreadPool,
    tr: &mut Tracer,
    tally: Tally,
) -> Measured {
    let w = a.workload;
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(a.seconds);
    let mut m = Measured {
        rounds: Vec::new(),
        setup_s: problems.iter().map(|_| Vec::new()).collect(),
        parse_s: problems.iter().map(|_| Vec::new()).collect(),
        first: problems.iter().map(|_| None).collect(),
        zero_network_s: problems.iter().map(|_| None).collect(),
        accuracy: 0.0,
        tally,
    };
    let mut first_decisions: Vec<Option<Vec<u64>>> = problems.iter().map(|_| None).collect();
    // Rounds are whole. Another one starts while at least half a round's
    // time is left, so a run ends within about half a round of the deadline
    // even when the host is slow.
    let more = |rounds: usize| {
        let half_round = start.elapsed() / (2 * rounds.max(1)) as u32;
        rounds < MIN_ROUNDS || Instant::now() + half_round < deadline
    };
    while more(m.rounds.len()) {
        // Trace mode alternates traced and untraced rounds, so the span
        // overhead is measured in the same run.
        let traced = a.trace && m.rounds.len().is_multiple_of(2);
        tr.set_on(traced);
        let mut round = Round {
            traced,
            train_s: Vec::with_capacity(problems.len()),
            compare_s: Vec::with_capacity(problems.len()),
            passes: Vec::with_capacity(problems.len() * w.passes),
        };
        let (mut right, mut total) = (0usize, 0usize);
        // Each problem's setups, `train()` call and held-out passes follow
        // one another, so every kind of sample is spread over the round.
        for (k, p) in problems.iter().enumerate() {
            let (_, setup_s, parse_s) = setup(w, &p.text, tr);
            m.setup_s[k].push(setup_s);
            m.parse_s[k].push(parse_s);

            m.tally.attempted += 1;
            let sp = tr.begin("train");
            let result = train(w, p, Some(pool), false);
            let iters = result.as_ref().map_or(0.0, |t| t.run.iterations() as f64);
            tr.end(sp, &[("iterations", iters)]);
            let t = match result {
                Ok(t) => Some(t),
                Err(e) => {
                    let again = repeat_note(w, p, pool, m.first[k].as_ref());
                    m.tally
                        .fail(format!("problem {k}: train() error: {e}; {again}"));
                    None
                }
            };
            round
                .train_s
                .push(t.as_ref().map_or(f64::NAN, |t| t.host_s));
            if let Some(t) = t {
                if !t.run.converged() {
                    m.tally.fail(format!("problem {k}: did not converge"));
                }
                match &m.first[k] {
                    None => {
                        if w.solver == Solver::Pool && t.bytes != p.reference_bytes {
                            m.tally
                                .fail(format!("problem {k}: pooled model differs from t=1"));
                        }
                        m.first[k] = Some(t);
                    }
                    Some(f) => {
                        if t.bytes != f.bytes {
                            m.tally.fail(format!("problem {k}: model bytes changed"));
                        }
                        if t.modeled_s.to_bits() != f.modeled_s.to_bits() {
                            m.tally.fail(format!("problem {k}: modeled_s changed"));
                        }
                    }
                }
            }

            let mut compare_s = f64::NAN;
            if a.trace {
                let sp = tr.begin("train.compare");
                let c = m.tally.check("comparison train", compare(w, p));
                tr.end(
                    sp,
                    &[(
                        "iterations",
                        c.as_ref().map_or(0.0, |c| c.run.iterations() as f64),
                    )],
                );
                if let Some(c) = c {
                    // Tracing and the thread count leave the model as it is.
                    let expected = match w.solver {
                        Solver::Dist => m.first[k].as_ref().map(|f| &f.bytes),
                        Solver::Pool => Some(&p.reference_bytes),
                    };
                    if !c.run.converged() {
                        m.tally
                            .fail(format!("problem {k}: comparison train did not converge"));
                    } else if expected.is_some_and(|b| *b != c.bytes) {
                        m.tally
                            .fail(format!("problem {k}: comparison model differs"));
                    } else {
                        compare_s = c.host_s;
                    }
                    if let Some(doc) = c.run.dist().and_then(|d| d.perf.as_ref()) {
                        m.zero_network_s[k].get_or_insert(doc.projections.zero_network);
                    }
                }
            }
            round.compare_s.push(compare_s);

            // After train() call k, passes of problems k, k + K/passes, ….
            for i in 0..w.passes {
                let j = (k + i * problems.len() / w.passes) % problems.len();
                let Some(first) = &m.first[j] else { continue };
                let pass = predict_pass(first.run.model(), &problems[j].test, tr);
                m.tally.attempted += pass.decisions.len() as u64;
                match &first_decisions[j] {
                    None => first_decisions[j] = Some(pass.decisions),
                    Some(f) => {
                        let changed = f
                            .iter()
                            .zip(&pass.decisions)
                            .filter(|(x, y)| x != y)
                            .count();
                        for _ in 0..changed {
                            m.tally.fail(format!("problem {j}: decision value changed"));
                        }
                    }
                }
                let acc = pass.right as f64 / problems[j].test.len() as f64;
                if w.solver == Solver::Dist
                    && (acc - problems[j].reference_accuracy).abs() > ACC_TOL
                {
                    m.tally.fail(format!(
                        "problem {j}: accuracy {acc:.4} vs SmoSolver {:.4} (tolerance {ACC_TOL})",
                        problems[j].reference_accuracy
                    ));
                }
                if i == 0 {
                    right += pass.right;
                    total += problems[j].test.len();
                }
                round.passes.push((j, pass.us));
            }

            let (_, setup_s, parse_s) = setup(w, &p.text, tr);
            m.setup_s[k].push(setup_s);
            m.parse_s[k].push(parse_s);
        }
        m.accuracy = right as f64 / total.max(1) as f64;
        m.rounds.push(round);
    }
    tr.set_on(false);
    m
}

struct Pass {
    /// Host microseconds of each `decision` call.
    us: Vec<f64>,
    /// Bits of each decision value.
    decisions: Vec<u64>,
    /// Rows predicted with their label's sign.
    right: usize,
}

/// Untimed `decision` calls before each held-out pass. A pass follows a
/// `train()` call, which evicts the model from the CPU caches; a serving
/// user pays that once per model, not once per row.
const WARMUP_ROWS: usize = 4;

/// One timed `SvmModel::decision` call per held-out row.
fn predict_pass(model: &SvmModel, test: &Dataset, tr: &mut Tracer) -> Pass {
    for i in 0..test.len().min(WARMUP_ROWS) {
        std::hint::black_box(model.decision(test.x.row(i)));
    }
    let root = tr.begin("predict");
    let mut pass = Pass {
        us: Vec::with_capacity(test.len()),
        decisions: Vec::with_capacity(test.len()),
        right: 0,
    };
    for i in 0..test.len() {
        let row = test.x.row(i);
        let sp = tr.begin("model.decision");
        let t0 = Instant::now();
        let d = std::hint::black_box(model.decision(std::hint::black_box(row)));
        pass.us.push(t0.elapsed().as_secs_f64() * 1e6);
        tr.end(sp, &[]);
        pass.decisions.push(d.to_bits());
        if (d >= 0.0) == (test.y[i] > 0.0) {
            pass.right += 1;
        }
    }
    tr.end(root, &[("rows", test.len() as f64)]);
    pass
}

/// For each problem, the fastest of its samples, skipping the NaN of a
/// failed call; infinite when it has none.
fn fastest<'a>(problems: usize, samples: impl Iterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; problems];
    for row in samples {
        for (b, &x) in best.iter_mut().zip(row) {
            if x.is_finite() {
                *b = b.min(x);
            }
        }
    }
    best
}

/// Host seconds of one `train()` call: for each problem the fastest of
/// its successful calls in the selected rounds, averaged over problems.
fn train_s(m: &Measured, traced: bool) -> f64 {
    let rounds = m.rounds.iter().filter(|r| r.traced == traced);
    let best = fastest(m.first.len(), rounds.map(|r| &r.train_s[..]));
    mean(best.into_iter().filter(|v| v.is_finite()))
}

/// Traced run: the fastest comparison call over the fastest `train()`
/// call, each per problem over every round (so both sides have the same
/// sample count), summed over the problems where both succeeded.
fn compare_ratio(m: &Measured) -> f64 {
    let k = m.first.len();
    let train = fastest(k, m.rounds.iter().map(|r| &r.train_s[..]));
    let compare = fastest(k, m.rounds.iter().map(|r| &r.compare_s[..]));
    let (num, den) = compare
        .iter()
        .zip(&train)
        .filter(|(c, t)| c.is_finite() && t.is_finite())
        .fold((0.0, 0.0), |(n, d), (c, t)| (n + c, d + t));
    num / den
}

/// Seconds of one setup of every problem: for each problem the fastest of
/// its setups over the run, summed over problems. `parse` selects the
/// parse part only.
fn setup_s(m: &Measured, parse: bool) -> f64 {
    let per_problem = if parse { &m.parse_s } else { &m.setup_s };
    per_problem
        .iter()
        .map(|v| v.iter().copied().fold(f64::INFINITY, f64::min))
        .sum()
}

/// Host microseconds of every untraced `decision` call of the run.
fn decision_calls(m: &Measured) -> Vec<f64> {
    m.rounds
        .iter()
        .filter(|r| !r.traced)
        .flat_map(|r| &r.passes)
        .flat_map(|(_, us)| us.iter().copied())
        .collect()
}

/// Host microseconds of one `decision` call per held-out row, with the
/// problem each belongs to: for every row, the fastest of its untraced
/// calls (one per pass), so a call the host slowed is replaced by a clean
/// one of the same row.
fn predict_us(m: &Measured) -> Vec<(f64, usize)> {
    let mut out = Vec::new();
    for k in 0..m.first.len() {
        let mut best: Vec<f64> = Vec::new();
        let passes = m
            .rounds
            .iter()
            .filter(|r| !r.traced)
            .flat_map(|r| &r.passes);
        for (_, us) in passes.filter(|(j, _)| *j == k) {
            if best.is_empty() {
                best = us.clone();
            }
            for (b, &u) in best.iter_mut().zip(us) {
                *b = b.min(u);
            }
        }
        out.extend(best.into_iter().map(|us| (us, k)));
    }
    out
}

/// Mean of the values; NaN for none.
fn mean(v: impl Iterator<Item = f64>) -> f64 {
    let (mut s, mut n) = (0.0, 0usize);
    for x in v {
        s += x;
        n += 1;
    }
    s / n as f64
}

/// A named metric value with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn end_to_end(m: &Measured) -> Vec<Metric> {
    let us: Vec<f64> = predict_us(m).iter().map(|x| x.0).collect();
    vec![
        metric("train_s", train_s(m, false), "s"),
        metric("modeled_s", mean(m.trained().map(|t| t.modeled_s)), "s"),
        metric("accuracy", m.accuracy, "fraction"),
        metric("predict_us_p50", median(&us), "us"),
        metric("predict_us_p99", quantile(&decision_calls(m), 0.99), "us"),
        metric("setup_s", setup_s(m, false), "s"),
        metric("peak_rss_mib", peak_rss_mib(), "MiB"),
    ]
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { -1.0 };
            format!(
                "\"{}\": {{\"value\": {v:e}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = a.workload;
    let started = Instant::now();
    let mut tr = Tracer::new();
    let pool = ThreadPool::new(POOL_THREADS);

    // Inputs: the program sees only the generated libsvm text.
    let texts: Vec<Vec<u8>> = (0..w.problems)
        .map(|k| {
            let ds = w.planted(a.seed, k).generate();
            let mut text = Vec::new();
            write_libsvm_to(&ds, &mut text).expect("writing to a Vec cannot fail");
            text
        })
        .collect();

    // This set-up gives the datasets; the measured ones run in the rounds
    // of the main loop. References: the sequential SmoSolver on the same
    // rows, and on libsvm-pool-higgs the library's modeled makespan.
    let mut startup = Tally::default();
    let problems: Vec<Problem> = texts
        .into_iter()
        .enumerate()
        .map(|(k, text)| {
            let ((train, test), _, _) = setup(w, &text, &mut tr);
            let reference = SmoSolver::new(&train, w.params())
                .train()
                .expect("reference SmoSolver trains");
            let pool_modeled_s = match w.solver {
                Solver::Dist => f64::NAN,
                Solver::Pool => startup
                    .check(
                        &format!("problem {k}: modeled pool solve"),
                        pool_modeled_s(w, &train),
                    )
                    .unwrap_or(f64::NAN),
            };
            Problem {
                text,
                reference_bytes: model_bytes(&reference.model),
                reference_accuracy: accuracy(&reference.model, &test),
                pool_modeled_s,
                train,
                test,
            }
        })
        .collect();

    eprintln!(
        "inputs and references ready after {:.1} s",
        started.elapsed().as_secs_f64()
    );
    let mut m = measure(&a, &problems, &pool, &mut tr, startup);
    let mut tally = std::mem::take(&mut m.tally);
    let metrics = if a.trace {
        let ctx = probes::Ctx {
            w,
            problems: &problems,
            measured: &m,
            train_s: train_s(&m, false),
            pool: &pool,
        };
        let metrics = probes::per_layer(&ctx, &mut tr, &mut tally);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-seed{}.jsonl", w.name, a.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.to_jsonl())) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("spans not written: {e}"),
        }
        eprint!("{}", tr.summary());
        println!("{:<36} {:>14} {:<9} should move", "metric", "value", "unit");
        for mt in &metrics {
            println!(
                "{:<36} {:>14.6} {:<9} {}",
                mt.name,
                mt.value,
                mt.unit,
                probes::moves(mt.name)
            );
        }
        metrics
    } else {
        let metrics = end_to_end(&m);
        for mt in &metrics {
            println!("{:<16} {:>14.6} {}", mt.name, mt.value, mt.unit);
        }
        metrics
    };
    let untraced = m.rounds.iter().filter(|r| !r.traced).count();
    println!(
        "workload {} seed {}: {} problems, {} rounds ({} untraced) = {} train() calls, \
         {} held-out rows timed, {} untraced decision calls, {} setups per problem",
        w.name,
        a.seed,
        problems.len(),
        m.rounds.len(),
        untraced,
        m.rounds.len() * problems.len(),
        predict_us(&m).len(),
        decision_calls(&m).len(),
        m.setup_s[0].len()
    );
    if tally.failed > 0 {
        eprintln!(
            "perfbench: {} of {} calls failed; the first ones:",
            tally.failed, tally.attempted
        );
        for what in &tally.shown {
            eprintln!("  {what}");
        }
    }
    println!(
        "{}",
        json_line(tally.failed == 0, tally.attempted, tally.failed, &metrics)
    );
    ExitCode::SUCCESS
}
