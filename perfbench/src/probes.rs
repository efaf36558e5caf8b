//! Per-layer metrics of the traced run. Each layer is measured from
//! outside: by timing calls into its public functions on the workload's
//! own rows and payload sizes, or by reading the counters a `train()` call
//! returns. A metric of a layer the workload's solver does not call reads
//! 0 (see README.md).

use std::time::Instant;

use shrinksvm::core::cache::KernelCache;
use shrinksvm::core::dist::DistRunResult;
use shrinksvm::core::kernel::KernelEval;
use shrinksvm::core::perfmodel::ComputeCharge;
use shrinksvm::mpisim::{Comm, CommStats, MaxLoc, MinLoc};
use shrinksvm::prelude::*;
use shrinksvm::sparse::{ops, ScratchPad};

use crate::spans::Tracer;
use crate::{
    caught, compare_ratio, mean, median, metric, setup_s, Measured, Metric, Problem, Run, Solver,
    Tally, Workload,
};

/// Timed batches per probe; each probe reports the median batch.
const BATCHES: usize = 15;

pub struct Ctx<'a> {
    pub w: &'a Workload,
    pub problems: &'a [Problem],
    pub measured: &'a Measured,
    /// Untraced end-to-end `train_s` of the same run.
    pub train_s: f64,
    pub pool: &'a ThreadPool,
}

/// Median over `BATCHES` of host nanoseconds per operation; `batch` runs
/// one batch and returns its operation count.
fn ns_per_op(tr: &mut Tracer, name: &'static str, mut batch: impl FnMut() -> usize) -> f64 {
    let mut per_op = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let sp = tr.begin(name);
        let t0 = Instant::now();
        let ops = batch();
        let ns = t0.elapsed().as_nanos() as f64;
        tr.end(sp, &[("ops", ops as f64)]);
        per_op.push(ns / ops.max(1) as f64);
    }
    median(&per_op)
}

/// Deterministic pseudo-random index in `0..n`.
fn pick(i: usize, salt: usize, n: usize) -> usize {
    (i.wrapping_mul(2_654_435_761)
        .wrapping_add(salt.wrapping_mul(40_503))
        >> 7)
        % n
}

struct Sparse {
    dot_ns: f64,
    scratch_dot_ns: f64,
    scratch_load_ns: f64,
    dot_modeled_over_host: f64,
}

fn sparse(c: &Ctx, tr: &mut Tracer) -> Sparse {
    let root = tr.begin("probe.sparse");
    let k_count = c.problems.len();
    let pairs: Vec<_> = (0..4096)
        .map(|i| {
            let x = &c.problems[i % k_count].train.x;
            (x.row(pick(i, 1, x.nrows())), x.row(pick(i, 2, x.nrows())))
        })
        .collect();
    let dot_ns = ns_per_op(tr, "sparse.dot", || {
        let mut s = 0.0;
        for (a, b) in &pairs {
            s += ops::dot(std::hint::black_box(*a), *b);
        }
        std::hint::black_box(s);
        pairs.len()
    });
    let nnz = mean(pairs.iter().map(|(a, b)| (a.nnz() + b.nnz()) as f64));
    let modeled_ns = ComputeCharge::default().lambda_per_nnz * nnz * 1e9;

    let dim = c
        .problems
        .iter()
        .map(|p| p.train.x.ncols())
        .max()
        .unwrap_or(1);
    let mut pad = ScratchPad::new(dim);
    let scratch_load_ns = ns_per_op(tr, "sparse.scratch_load_clear", || {
        for (a, _) in &pairs {
            pad.load(std::hint::black_box(*a));
            pad.clear();
        }
        pairs.len()
    });
    // One load per problem, then a dot against every training row.
    let scratch_dot_ns = ns_per_op(tr, "sparse.scratch_dot", || {
        let mut s = 0.0;
        let mut dots = 0;
        for p in c.problems {
            let x = &p.train.x;
            pad.load(x.row(0));
            for j in 0..x.nrows() {
                s += pad.dot(std::hint::black_box(x.row(j)));
            }
            pad.clear();
            dots += x.nrows();
        }
        std::hint::black_box(s);
        dots
    });
    tr.end(root, &[]);
    Sparse {
        dot_ns,
        scratch_dot_ns,
        scratch_load_ns,
        dot_modeled_over_host: modeled_ns / dot_ns,
    }
}

/// `(fill_row_us, modeled_over_host)` of `KernelEval::fill_row`.
fn kernel(c: &Ctx, tr: &mut Tracer) -> (f64, f64) {
    let root = tr.begin("probe.kernel");
    let ch = ComputeCharge::default();
    let kind = c.w.params().kernel;
    let evals: Vec<KernelEval> = c
        .problems
        .iter()
        .map(|p| KernelEval::new(kind, &p.train.x))
        .collect();
    let mut out = vec![0.0; c.w.n_train];
    let (mut host_ns, mut modeled_s) = (0.0, 0.0);
    let mut next = 0usize;
    let mut per_row = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let sp = tr.begin("kernel.fill_row");
        let mut model = 0.0;
        let t0 = Instant::now();
        for _ in 0..8 {
            let ke = &evals[next % evals.len()];
            let x = ke.matrix();
            let i = pick(next, 3, x.nrows());
            ke.fill_row(i, &mut out[..x.nrows()]);
            std::hint::black_box(&out);
            next += 1;
            model += (0..x.nrows())
                .map(|j| ch.eval_cost(x.row_nnz(i) + x.row_nnz(j)))
                .sum::<f64>();
        }
        let ns = t0.elapsed().as_nanos() as f64;
        tr.end(sp, &[("rows", 8.0)]);
        per_row.push(ns / 8.0 / 1e3);
        host_ns += ns;
        modeled_s += model;
    }
    tr.end(root, &[]);
    (median(&per_row), modeled_s * 1e9 / host_ns)
}

/// Host nanoseconds of a `KernelCache::get_or_compute` hit.
fn cache_hit_ns(c: &Ctx, tr: &mut Tracer) -> f64 {
    let root = tr.begin("probe.cache");
    let rows = 256;
    let mut cache = KernelCache::with_capacity_rows(rows);
    for key in 0..rows {
        cache.get_or_compute(key, || vec![key as f64; c.w.n_train]);
    }
    let misses = cache.stats().misses;
    let ns = ns_per_op(tr, "cache.get_or_compute_hit", || {
        for i in 0..4096 {
            let row = cache.get_or_compute(pick(i, 4, rows), Vec::new);
            std::hint::black_box(row);
        }
        4096
    });
    assert_eq!(cache.stats().misses, misses, "the probe must only hit");
    tr.end(root, &[]);
    ns
}

/// Host nanoseconds per element of the dense gradient update
/// `g += cu·K_up + cl·K_low` that a cache hit leaves to do.
fn fma_ns(c: &Ctx, tr: &mut Tracer) -> f64 {
    let n = c.w.n_train;
    let ru: Vec<f64> = (0..n).map(|j| (j as f64).sin()).collect();
    let rl: Vec<f64> = (0..n).map(|j| (j as f64).cos()).collect();
    let mut g = vec![0.0; n];
    let root = tr.begin("probe.gradient_update");
    let ns = ns_per_op(tr, "smo.gradient_update", || {
        for s in 0..64 {
            let (cu, cl) = std::hint::black_box((1e-3 * s as f64, -1e-3));
            for j in 0..n {
                g[j] += cu * ru[j] + cl * rl[j];
            }
        }
        std::hint::black_box(&g);
        64 * n
    });
    tr.end(root, &[]);
    ns
}

/// Host and modeled microseconds per call of one mpisim operation, run in
/// `Universe::new(2).with_cost(CostParams::fdr())` the way the solver
/// calls it.
fn mpisim_op<F>(
    tr: &mut Tracer,
    tally: &mut Tally,
    name: &'static str,
    iters: usize,
    op: F,
) -> (f64, f64)
where
    F: Fn(&mut Comm) + Send + Sync,
{
    let u = Universe::new(2).with_cost(CostParams::fdr());
    let mut host_us = Vec::new();
    let mut modeled_us = 0.0;
    for _ in 0..5 {
        let sp = tr.begin(name);
        let outs = caught(|| {
            Ok(u.run(|c| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    op(c);
                }
                t0.elapsed().as_secs_f64()
            }))
        });
        tr.end(sp, &[("calls", iters as f64)]);
        let Some(outs) = tally.check(name, outs) else {
            continue;
        };
        let host = outs.iter().map(|o| o.value).fold(0.0, f64::max);
        host_us.push(host * 1e6 / iters as f64);
        modeled_us = outs.iter().map(|o| o.clock).fold(0.0, f64::max) * 1e6 / iters as f64;
    }
    (median(&host_us), modeled_us)
}

struct Mpisim {
    allreduce: (f64, f64),
    bcast: (f64, f64),
    ring: (f64, f64),
    spawn_join_us: f64,
}

fn mpisim(c: &Ctx, tr: &mut Tracer, tally: &mut Tally) -> Mpisim {
    let root = tr.begin("probe.mpisim");
    // Pivot broadcast: a 16-byte β header plus two serialized rows
    // (44-byte header and 12 bytes per stored entry each).
    let nnz = mean(c.problems.iter().map(|p| p.train.x.mean_row_nnz()));
    let bcast_bytes = 16 + 2 * (44 + (12.0 * nnz).round() as usize);
    // Reconstruction ring: each rank's share of the support-vector block.
    let ring_bytes = mean(c.measured.trained().flat_map(|t| {
        let d = t
            .run
            .dist()
            .expect("mpisim is probed on DistSolver workloads");
        d.trace.recon_events.iter().map(|e| e.sv_bytes as f64 / 2.0)
    }));
    let ring_bytes = if ring_bytes > 0.0 {
        ring_bytes as usize
    } else {
        bcast_bytes
    };
    let allreduce = mpisim_op(tr, tally, "mpisim.allreduce_minloc_maxloc", 2000, |c| {
        let r = c.rank();
        c.allreduce_minloc_maxloc(
            MinLoc {
                value: r as f64,
                index: r as u64,
            },
            MaxLoc {
                value: r as f64,
                index: r as u64,
            },
        );
    });
    let payload = vec![7u8; bcast_bytes];
    let bcast = mpisim_op(tr, tally, "mpisim.bcast", 2000, |c| {
        std::hint::black_box(c.bcast(0, &payload));
    });
    let block = vec![7u8; ring_bytes];
    let ring = mpisim_op(tr, tally, "mpisim.ring_shift", 200, |c| {
        std::hint::black_box(c.ring_shift(&block));
    });
    let u = Universe::new(2).with_cost(CostParams::fdr());
    let spawn_join_us = median(
        &(0..31)
            .filter_map(|_| {
                let sp = tr.begin("mpisim.run_empty");
                let t0 = Instant::now();
                let r = caught(|| Ok(u.run(|_| ())));
                let us = t0.elapsed().as_secs_f64() * 1e6;
                tr.end(sp, &[]);
                tally.check("mpisim.run_empty", r).map(|_| us)
            })
            .collect::<Vec<_>>(),
    );
    tr.end(root, &[]);
    Mpisim {
        allreduce,
        bcast,
        ring,
        spawn_join_us,
    }
}

/// Host microseconds of one `ThreadPool::parallel_for_slices` call over a
/// gradient-sized slice with a trivial body.
fn dispatch_us(c: &Ctx, tr: &mut Tracer) -> f64 {
    let root = tr.begin("probe.threads");
    let mut g = vec![0.0f64; c.w.n_train];
    let ns = ns_per_op(tr, "threads.parallel_for_slices", || {
        for _ in 0..100 {
            c.pool.parallel_for_slices(&mut g, |_, chunk| {
                for x in chunk {
                    *x += 1.0;
                }
            });
        }
        100
    });
    tr.end(root, &[]);
    ns / 1e3
}

/// `ShrinkPolicy::none()` (the paper's Original) on every problem's rows:
/// the sum of its makespans over the sum of `ShrinkPolicy::best()`'s.
fn speedup_vs_original(c: &Ctx, tr: &mut Tracer, tally: &mut Tally) -> f64 {
    let (mut original, mut best) = (0.0, 0.0);
    for (k, p) in c.problems.iter().enumerate() {
        let Some(first) = &c.measured.first[k] else {
            continue;
        };
        let sp = tr.begin("train.original");
        let params = c.w.params().with_shrink(ShrinkPolicy::none());
        let r = caught(|| {
            DistSolver::new(&p.train, params)
                .with_processes(2)
                .train()
                .map_err(|e| e.to_string())
        });
        let r = tally.check("train Original", r);
        tr.end(
            sp,
            &[(
                "iterations",
                r.as_ref().map_or(0.0, |r| r.iterations as f64),
            )],
        );
        if let Some(r) = r {
            original += r.makespan;
            best += first.modeled_s;
        }
    }
    original / best
}

/// Every per-layer metric, in a fixed order.
pub fn per_layer(c: &Ctx, tr: &mut Tracer, tally: &mut Tally) -> Vec<Metric> {
    tr.set_on(true);
    let ch = ComputeCharge::default();
    let dist = c.w.solver == Solver::Dist;
    let pool = c.w.solver == Solver::Pool;
    let per_train = |f: &dyn Fn(&crate::Trained) -> f64| mean(c.measured.trained().map(f));
    let (hits, lookups) = c.measured.trained().fold((0.0, 0.0), |(h, l), t| {
        let cs = t.run.cache();
        (h + cs.hits as f64, l + (cs.hits + cs.misses) as f64)
    });
    let iterations = per_train(&|t| t.run.iterations() as f64);
    let modeled_s = per_train(&|t| t.modeled_s);

    let s = sparse(c, tr);
    let (fill_row_us, kernel_ratio) = kernel(c, tr);
    let hit_ns = cache_hit_ns(c, tr);
    let fma = fma_ns(c, tr);
    let text_bytes: usize = c.problems.iter().map(|p| p.text.len()).sum();

    let mut m = vec![
        metric("sparse.dot_ns", s.dot_ns, "ns"),
        metric("sparse.scratch_dot_ns", s.scratch_dot_ns, "ns"),
        metric("sparse.scratch_load_ns", s.scratch_load_ns, "ns"),
        metric(
            "sparse.parse_mb_per_s",
            text_bytes as f64 / 1e6 / setup_s(c.measured, true),
            "MB/s",
        ),
        metric(
            "sparse.dot_modeled_over_host",
            s.dot_modeled_over_host,
            "ratio",
        ),
        metric("kernel.fill_row_us", fill_row_us, "us"),
        metric(
            "kernel.evals",
            per_train(&|t| match &t.run {
                Run::Smo(o) => o.kernel_evals as f64,
                Run::Dist(_) => 0.0,
            }),
            "count",
        ),
        metric(
            "kernel.row_fills",
            per_train(&|t| t.run.cache().misses as f64),
            "count",
        ),
        metric("kernel.modeled_over_host", kernel_ratio, "ratio"),
        metric("cache.hit_rate", hits / lookups.max(1.0), "fraction"),
        metric("cache.hit_ns", hit_ns, "ns"),
        metric(
            "cache.evictions",
            per_train(&|t| t.run.cache().evictions as f64),
            "count",
        ),
        metric(
            "cache.modeled_over_host",
            ch.cache_lookup * 1e9 / hit_ns,
            "ratio",
        ),
        metric("smo.iterations", iterations, "count"),
        metric("smo.host_us_per_iter", c.train_s * 1e6 / iterations, "us"),
        metric(
            "smo.fma_modeled_over_host",
            2.0 * ch.fma_per_elem * 1e9 / fma,
            "ratio",
        ),
    ];

    // Layers the workload's solver does not call read 0.
    let original = dist.then(|| speedup_vs_original(c, tr, tally));
    let mp = dist.then(|| mpisim(c, tr, tally));
    let on_dist = |f: &dyn Fn(&DistRunResult, &crate::Trained) -> f64| {
        per_train(&|t| t.run.dist().map_or(0.0, |d| f(d, t)))
    };
    let rank_mean = |f: fn(&CommStats) -> f64| {
        on_dist(&|d, _| d.rank_stats.iter().map(f).sum::<f64>() / d.rank_stats.len() as f64)
    };
    let op = |f: fn(&Mpisim) -> f64| mp.as_ref().map_or(0.0, f);
    let zero_network = mean(c.measured.zero_network_s.iter().flatten().copied());
    m.extend([
        metric("recon.modeled_s", on_dist(&|d, _| d.recon_time), "s"),
        metric(
            "recon.count",
            on_dist(&|d, _| d.trace.recon_events.len() as f64),
            "count",
        ),
        metric(
            "shrink.samples_shrunk",
            on_dist(&|d, _| d.metrics.counter("samples_shrunk") as f64),
            "count",
        ),
        metric(
            "shrink.speedup_vs_original",
            original.unwrap_or(0.0),
            "ratio",
        ),
        metric("dist.compute_modeled_s", rank_mean(|s| s.compute_time), "s"),
        metric(
            "dist.transfer_modeled_s",
            rank_mean(|s| s.transfer_time),
            "s",
        ),
        metric("dist.idle_modeled_s", rank_mean(|s| s.idle_time), "s"),
        metric(
            "dist.whatif_zero_network_s",
            if dist { zero_network } else { 0.0 },
            "s",
        ),
        metric(
            "dist.host_over_modeled",
            if dist { c.train_s / modeled_s } else { 0.0 },
            "ratio",
        ),
        metric("mpisim.allreduce_us", op(|m| m.allreduce.0), "us"),
        metric("mpisim.bcast_us", op(|m| m.bcast.0), "us"),
        metric("mpisim.ring_shift_us", op(|m| m.ring.0), "us"),
        metric("mpisim.spawn_join_us", op(|m| m.spawn_join_us), "us"),
        metric(
            "mpisim.allreduce_modeled_over_host",
            op(|m| m.allreduce.1 / m.allreduce.0),
            "ratio",
        ),
        metric(
            "mpisim.bcast_modeled_over_host",
            op(|m| m.bcast.1 / m.bcast.0),
            "ratio",
        ),
        metric(
            "mpisim.ring_shift_modeled_over_host",
            op(|m| m.ring.1 / m.ring.0),
            "ratio",
        ),
        metric(
            "mpisim.modeled_over_host",
            op(|m| (m.allreduce.1 + m.bcast.1 + m.ring.1) / (m.allreduce.0 + m.bcast.0 + m.ring.0)),
            "ratio",
        ),
        metric(
            "mpisim.rounds_per_iter",
            on_dist(&|d, t| {
                let s = &d.rank_stats[0];
                (s.allreduces + s.bcasts) as f64 / t.run.iterations() as f64
            }),
            "count",
        ),
        metric(
            "mpisim.bytes_per_iter",
            on_dist(&|d, t| {
                d.rank_stats
                    .iter()
                    .map(|s| s.bytes_sent as f64)
                    .sum::<f64>()
                    / t.run.iterations() as f64
            }),
            "B",
        ),
        // The comparison call is `with_tracing()` on DistSolver workloads.
        metric(
            "obs.tracing_overhead",
            if dist { compare_ratio(c.measured) } else { 0.0 },
            "ratio",
        ),
    ]);

    // The comparison call is the t = 1 SmoSolver on libsvm-pool-higgs.
    let threads = pool.then(|| (dispatch_us(c, tr), compare_ratio(c.measured)));
    m.extend([
        metric("threads.dispatch_us", threads.map_or(0.0, |t| t.0), "us"),
        metric(
            "threads.pool_speedup",
            threads.map_or(0.0, |t| t.1),
            "ratio",
        ),
    ]);

    let n_sv: Vec<f64> = c
        .measured
        .first
        .iter()
        .map(|t| t.as_ref().map_or(f64::NAN, |t| t.run.model().n_sv() as f64))
        .collect();
    let ns_per_sv: Vec<f64> = crate::predict_us(c.measured)
        .iter()
        .map(|&(us, k)| us * 1e3 / n_sv[k].max(1.0))
        .collect();
    m.extend([
        metric(
            "model.n_sv",
            per_train(&|t| t.run.model().n_sv() as f64),
            "count",
        ),
        metric("model.decision_ns_per_sv", median(&ns_per_sv), "ns"),
        metric(
            "bench.span_overhead",
            crate::train_s(c.measured, true) / c.train_s,
            "ratio",
        ),
    ]);
    tr.set_on(false);
    m
}

/// The end-to-end metric and workload each per-layer metric should move.
pub fn moves(name: &str) -> &'static str {
    match name {
        "sparse.dot_ns" | "model.decision_ns_per_sv" => {
            "predict_us_* on all, most on sparse-url-p2 (merge-join)"
        }
        "sparse.scratch_dot_ns" | "sparse.scratch_load_ns" => {
            "train_s on sparse-url-p2 (scatter/gather sweep)"
        }
        "sparse.parse_mb_per_s" => "setup_s on all, most on sparse-url-p2",
        "sparse.dot_modeled_over_host" | "kernel.modeled_over_host" => {
            "none; calibration gap of ComputeCharge"
        }
        "kernel.fill_row_us" | "kernel.evals" | "kernel.row_fills" => {
            "train_s on libsvm-pool-higgs"
        }
        "cache.modeled_over_host" | "smo.fma_modeled_over_host" => {
            "none; calibration gap of ComputeCharge"
        }
        "mpisim.allreduce_modeled_over_host"
        | "mpisim.bcast_modeled_over_host"
        | "mpisim.ring_shift_modeled_over_host"
        | "mpisim.modeled_over_host" => "none; calibration gap of CostParams::fdr()",
        n if n.starts_with("cache.") => "train_s on libsvm-pool-higgs and dense-higgs-p2",
        "smo.iterations" | "smo.host_us_per_iter" => "train_s and modeled_s on all",
        n if n.starts_with("recon.") || n.starts_with("shrink.") => {
            "modeled_s on dense-higgs-p2 and sparse-url-p2; none on libsvm-pool-higgs"
        }
        "dist.host_over_modeled" => "none; host/model gap of train_s over modeled_s",
        n if n.starts_with("dist.") => "modeled_s on dense-higgs-p2 and sparse-url-p2",
        "mpisim.rounds_per_iter" | "mpisim.bytes_per_iter" => {
            "modeled_s on dense-higgs-p2 and sparse-url-p2"
        }
        n if n.starts_with("mpisim.") => {
            "train_s on dense-higgs-p2 (most) and sparse-url-p2 (little)"
        }
        n if n.starts_with("threads.") => "train_s on libsvm-pool-higgs only",
        "model.n_sv" => "predict_us_* on all",
        "obs.tracing_overhead" => "none (end-to-end runs are untraced); tracing budget",
        "bench.span_overhead" => "none; the benchmark's own span cost in the traced run",
        _ => "unmapped",
    }
}
