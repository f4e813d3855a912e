//! The three workloads. Each builds its inputs from the seed, sets up
//! (timed, several times), warms up once, then repeats its verified unit
//! of work; with tracing on, the measuring time is split between the
//! untraced unit (plus per-layer stage timings) and the traced entry
//! points that feed the ledger.

use crate::{timed, Config, Loop, Run};
use pselinv_bench::workloads::{analyze_structure, des_machine};
use pselinv_chaos::{FaultPlan, FaultSpec};
use pselinv_des::{simulate, simulate_traced, SimResult};
use pselinv_dist::taskgraph::{selinv_graph, GraphOptions};
use pselinv_dist::{
    factor_poles, replay_volumes, try_batched_selinv, try_batched_selinv_traced,
    try_distributed_selinv, try_distributed_selinv_traced, BatchOptions, CommPlan, DistOptions,
    Layout,
};
use pselinv_factor::{factorize, LdlFactor};
use pselinv_mpisim::{Grid2D, RunOptions};
use pselinv_order::nd::NdOptions;
use pselinv_order::{analyze, AnalyzeOptions, OrderingChoice, SymbolicFactor};
use pselinv_profile::WaitReport;
use pselinv_selinv::{selinv_ldlt, SelectedInverse};
use pselinv_sparse::{gen, SparseMatrix};
use pselinv_trace::{CollKind, Trace};
use pselinv_trees::rng::hash2;
use pselinv_trees::{TreeBuilder, TreeScheme};
use std::sync::Arc;

/// Tree routing of every restricted collective: the paper's scheme.
const SCHEME: TreeScheme = TreeScheme::ShiftedBinary;
/// Tree-shift seed. A property of the plan, not of the inputs, so it stays
/// fixed while `--seed` varies the inputs.
const TREE_SEED: u64 = 0x5e11;
/// Phase-2 window of the asynchronous engine.
const LOOKAHEAD: usize = 4;

/// A workload's set-up: the symbolic analysis, then the dist-crate plan
/// built on its result.
struct Setup<A, P> {
    analyze: A,
    plan: P,
}

impl<A: Fn() -> SymbolicFactor, P: Fn(&Arc<SymbolicFactor>)> Setup<A, P> {
    /// Times one set-up into `setup_s`, `order.analyze_s` and `dist.plan_s`.
    fn time(&self, run: &mut Run) -> Arc<SymbolicFactor> {
        let (sf, a) = timed(|| Arc::new((self.analyze)()));
        let ((), p) = timed(|| (self.plan)(&sf));
        run.stage("order.analyze_s").push(a);
        run.stage("dist.plan_s").push(p);
        run.setup.push(a + p);
        sf
    }

    /// The first set-up, which also records the structure's metadata.
    fn first(&self, run: &mut Run) -> Arc<SymbolicFactor> {
        let sf = self.time(run);
        run.set("order.nnz_l", sf.nnz_factor() as f64);
        run.set("order.supernodes", sf.num_supernodes() as f64);
        run.meta.push(("n", sf.n.to_string()));
        run.meta.push(("nnz_l", sf.nnz_factor().to_string()));
        run.meta.push(("supernodes", sf.num_supernodes().to_string()));
        sf
    }
}

fn plan_all(sf: &Arc<SymbolicFactor>, grid: Grid2D) {
    let layout = Layout::new(sf.clone(), grid);
    std::hint::black_box(
        CommPlan::new(layout, TreeBuilder::new(SCHEME, TREE_SEED)).precompute_all(),
    );
}

/// Visits every stored entry of a selected inverse with its counterpart.
fn zip_entries(a: &SelectedInverse, b: &SelectedInverse, mut f: impl FnMut(f64, f64)) {
    for (pa, pb) in a.panels.iter().zip(&b.panels) {
        for (x, y) in pa.diag.data().iter().zip(pb.diag.data()) {
            f(*x, *y);
        }
        for (x, y) in pa.below.data().iter().zip(pb.below.data()) {
            f(*x, *y);
        }
    }
}

/// `got` must agree with `reference` within `1e-9 · (1 + max|A⁻¹|)` on
/// every selected entry.
fn check_close(got: &SelectedInverse, reference: &SelectedInverse) -> Result<(), String> {
    let (mut max_ref, mut max_diff) = (0.0f64, 0.0f64);
    zip_entries(got, reference, |g, r| {
        max_ref = max_ref.max(r.abs());
        let d = (g - r).abs();
        // `f64::max` would drop a NaN; keep it so the check below fails.
        if d > max_diff || d.is_nan() {
            max_diff = d;
        }
    });
    let tol = 1e-9 * (1.0 + max_ref);
    if max_diff.is_nan() || max_diff > tol {
        return Err(format!("max |A⁻¹ − reference| = {max_diff:e} exceeds {tol:e}"));
    }
    Ok(())
}

/// `got` must be bit-identical to `reference`.
fn check_bits(got: &SelectedInverse, reference: &SelectedInverse) -> Result<(), String> {
    let mut differ = 0usize;
    zip_entries(got, reference, |g, r| differ += usize::from(g.to_bits() != r.to_bits()));
    if differ > 0 {
        return Err(format!("{differ} entries differ bitwise from the reference"));
    }
    Ok(())
}

/// Damages a result so that its verification must fail (self-test only).
fn corrupt(cfg: &Config, rep: u64, inv: &mut SelectedInverse) {
    if cfg.corrupt_rep == Some(rep) {
        inv.panels[0].diag.data_mut()[0] += 1.0;
    }
}

/// Ledger values read from an mpisim trace: pool counters and
/// message/wait/span accounting. `wall` is the traced call's wall time.
fn mpisim_layers(run: &mut Run, trace: &Trace, wall: f64) {
    let ranks = &trace.ranks;
    let sum = |f: &dyn Fn(&pselinv_trace::RankMetrics) -> u64| -> f64 {
        ranks.iter().map(|r| f(&r.metrics) as f64).sum()
    };
    let max = |f: &dyn Fn(&pselinv_trace::RankMetrics) -> usize| -> f64 {
        ranks.iter().map(|r| f(&r.metrics)).max().unwrap_or(0) as f64
    };
    let busy_s = sum(&|m| m.pool_busy_us) * 1e-6;
    let workers = sum(&|m| m.pool_workers as u64);
    run.set("pool.executed", sum(&|m| m.pool_executed));
    run.set("pool.stolen", sum(&|m| m.pool_stolen));
    run.set("pool.busy_s", busy_s);
    run.set("pool.utilization", if workers > 0.0 { busy_s / (workers * wall) } else { 0.0 });

    let sent: Vec<f64> = ranks.iter().map(|r| r.metrics.total_sent_bytes() as f64).collect();
    let mean_sent = sent.iter().sum::<f64>() / sent.len() as f64;
    let max_sent = sent.iter().copied().fold(0.0, f64::max);
    run.set("mpisim.msgs", sum(&|m| m.total_sent_msgs()));
    run.set("mpisim.bytes_sent", sum(&|m| m.total_sent_bytes()));
    run.set("mpisim.bytes_copied", sum(&|m| m.bytes_copied));
    run.set("mpisim.sent_max_over_mean", if mean_sent > 0.0 { max_sent / mean_sent } else { 0.0 });
    run.set("mpisim.stash_hwm", max(&|m| m.stash_hwm));
    run.set("dist.outstanding_hwm", max(&|m| m.outstanding_hwm));

    let waits = WaitReport::from_trace(trace);
    let kinds = [
        (CollKind::DiagBcast, "mpisim.wait_s.diag_bcast", "mpisim.span_s.diag_bcast"),
        (CollKind::Transpose, "mpisim.wait_s.transpose", "mpisim.span_s.transpose"),
        (CollKind::ColBcast, "mpisim.wait_s.col_bcast", "mpisim.span_s.col_bcast"),
        (CollKind::RowReduce, "mpisim.wait_s.row_reduce", "mpisim.span_s.row_reduce"),
        (CollKind::DiagReduce, "mpisim.wait_s.diag_reduce", "mpisim.span_s.diag_reduce"),
        (CollKind::AinvTranspose, "mpisim.wait_s.ainv_transpose", "mpisim.span_s.ainv_transpose"),
    ];
    for (kind, wait, span) in kinds {
        run.set(wait, waits.wait_us(kind) as f64 * 1e-6);
        run.set(span, sum(&|m| m.kind(kind).span_time_us) * 1e-6);
    }
    let transfer_us: u64 = waits.ranks.iter().map(|r| r.total_transfer_us()).sum();
    run.set("mpisim.transfer_s", transfer_us as f64 * 1e-6);
}

/// The traced half of a `--trace 1` run on the mpisim backend: repeats
/// `call` (one traced call, verified, with its wall time) for `seconds`,
/// reads the ledger from the last verified trace, and returns the best
/// traced wall. The walls are reported as stage `label`.
fn traced_mpisim(
    run: &mut Run,
    seconds: f64,
    label: &'static str,
    mut call: impl FnMut() -> (Result<Trace, String>, f64),
) -> Result<f64, String> {
    let mut last = None;
    let mut lp = Loop::new(seconds);
    while lp.more() {
        let (r, wall) = call();
        if run.record(lp.rep, r.as_ref().map(drop).map_err(Clone::clone)) {
            run.stage(label).push(wall);
            last = r.ok().map(|trace| (trace, wall));
        }
    }
    let (trace, wall) = last.ok_or("no traced repetition passed verification")?;
    mpisim_layers(run, &trace, wall);
    Ok(run.best(label))
}

/// `fem3d`: the compute path. A 3-D FEM matrix (audikw_1 proxy, geometric
/// nested dissection); one unit is `factorize`, sequential `selinv_ldlt`,
/// and the distributed selected inversion on a 1×1 grid with a 2-thread
/// pool. No messages: the engine's bookkeeping, the pool and the dense
/// kernels do all the work.
pub fn fem3d(cfg: &Config) -> Result<Run, String> {
    let nx = if cfg.tiny { 4 } else { 10 };
    let w = gen::fem_3d(nx, nx, nx, 3, cfg.seed);
    let grid = Grid2D::new(1, 1);
    let opts = AnalyzeOptions {
        ordering: OrderingChoice::NestedDissection(w.geometry, NdOptions::default()),
        ..Default::default()
    };
    let mut run = Run {
        unit_stages: &["factor.factorize_s", "selinv.seq_s", "dist.selinv_s"],
        ..Run::default()
    };
    let setup = Setup {
        analyze: || analyze(&w.matrix.pattern(), &opts),
        plan: |sf: &Arc<SymbolicFactor>| plan_all(sf, grid),
    };
    let sf = setup.first(&mut run);
    let threaded = DistOptions {
        scheme: SCHEME,
        seed: TREE_SEED,
        threads: 2,
        lookahead: LOOKAHEAD,
        ..Default::default()
    };
    let serial = DistOptions { threads: 1, ..threaded };
    let run_opts = RunOptions::default();
    run.meta.extend([
        ("matrix", w.name.clone()),
        ("grid", "1x1".into()),
        ("threads", "2".into()),
        ("lookahead", LOOKAHEAD.to_string()),
        ("latency_model", "none (1x1 grid sends no messages)".into()),
    ]);

    // Warm-up; the threads-1 run is the bit-identity reference.
    let f0 = factorize(&w.matrix, sf.clone()).map_err(|e| format!("factorize: {e:?}"))?;
    let seq0 = selinv_ldlt(&f0);
    let dist = |f: &LdlFactor, o: &DistOptions| {
        try_distributed_selinv(f, grid, o, &run_opts).map(|r| r.0).map_err(|e| e.to_string())
    };
    let reference = dist(&f0, &serial)?;
    check_close(&reference, &seq0)?;
    check_bits(&dist(&f0, &threaded)?, &reference)?;

    let untraced_s = cfg.untraced_seconds();
    let mut lp = Loop::with_setups(untraced_s, run.setup.best());
    while lp.more() {
        let rep = lp.rep;
        while lp.setup_due() {
            setup.time(&mut run);
        }
        let (f, t_factor) = timed(|| factorize(&w.matrix, sf.clone()));
        let f = match f {
            Ok(f) => f,
            Err(e) => {
                run.record(rep, Err(format!("factorize: {e:?}")));
                continue;
            }
        };
        let (seq, t_seq) = timed(|| selinv_ldlt(&f));
        let (d, t_dist) = timed(|| dist(&f, &threaded));
        // The serial 1×1 run is a per-layer stage, timed only when tracing.
        let (d1, t_serial) =
            if cfg.trace { timed(|| dist(&f, &serial).map(Some)) } else { (Ok(None), 0.0) };
        let ok = run.record(
            rep,
            d.and_then(|mut d| {
                corrupt(cfg, rep, &mut d);
                check_close(&d, &seq)?;
                check_bits(&d, &reference)?;
                match d1? {
                    Some(d1) => check_bits(&d1, &reference),
                    None => Ok(()),
                }
            }),
        );
        if ok {
            run.unit.push(t_factor + t_seq + t_dist);
            run.stage("factor.factorize_s").push(t_factor);
            run.stage("selinv.seq_s").push(t_seq);
            run.stage("dist.selinv_s").push(t_dist);
            if cfg.trace {
                run.stage("dist.serial_1x1_s").push(t_serial);
            }
        }
    }
    run.meta
        .push(("verify", "1e-9*(1+max|inv|) vs selinv_ldlt; bit-identical to threads-1".into()));
    if !cfg.trace {
        return Ok(run);
    }

    let traced = traced_mpisim(&mut run, cfg.seconds - untraced_s, "traced dist.selinv_s", || {
        let (r, wall) =
            timed(|| try_distributed_selinv_traced(&f0, grid, &threaded, &run_opts, "fem3d"));
        let r = r.map_err(|e| e.to_string());
        (r.and_then(|(inv, _, trace)| check_bits(&inv, &reference).map(|()| trace)), wall)
    })?;

    let factor_flops = f0.flops();
    let selinv_flops =
        selinv_graph(&Layout::new(sf.clone(), grid), &GraphOptions::default()).total_flops();
    let (factor_s, seq_s) = (run.best("factor.factorize_s"), run.best("selinv.seq_s"));
    let (dist_s, serial_s) = (run.best("dist.selinv_s"), run.best("dist.serial_1x1_s"));
    run.set("factor.flops", factor_flops);
    run.set("factor.gflops", factor_flops / factor_s * 1e-9);
    run.set("selinv.flops", selinv_flops);
    run.set("selinv.gflops", selinv_flops / seq_s * 1e-9);
    run.set("dist.serial_over_seq", serial_s / seq_s);
    run.set("dist.selinv_gflops", selinv_flops / dist_s * 1e-9);
    run.set("trace.overhead_ratio", traced / dist_s);
    Ok(run)
}

/// Eigenvalues of [`gen::grid_laplacian_2d`] on an `nx × nx` grid:
/// `4.01 − 2cos(iπ/(nx+1)) − 2cos(jπ/(nx+1))`, sorted and deduplicated.
fn laplacian_spectrum(nx: usize) -> Vec<f64> {
    let c: Vec<f64> =
        (1..=nx).map(|i| 2.0 * (i as f64 * std::f64::consts::PI / (nx + 1) as f64).cos()).collect();
    let mut ev: Vec<f64> = c.iter().flat_map(|a| c.iter().map(move |b| 4.01 - a - b)).collect();
    ev.sort_by(f64::total_cmp);
    ev.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    ev
}

/// Largest `|L_ij|` a shifted LDLᵀ factor may have. The factorization
/// does not pivot, so on an indefinite shift the entries of `L` can grow,
/// and the selected inverse then amplifies rounding: sequential and
/// distributed evaluation orders drift apart by more than the check's
/// tolerance (both also drift from a solve-based reference). Shifts whose
/// factor stays below this growth are in the regime where the check is
/// meaningful.
const MAX_GROWTH: f64 = 100.0;

/// `count` shifts inside the spectrum, so every pole is indefinite like the
/// real pole expansion. Shift `k` is the midpoint of a spectral gap of at
/// least `1e-3` in the `k`-th equal slice of the spectrum: the first, in a
/// seed-chosen order, whose factor's growth stays within [`MAX_GROWTH`].
fn pole_shifts(
    h: &SparseMatrix,
    sf: &Arc<SymbolicFactor>,
    nx: usize,
    count: usize,
    seed: u64,
) -> Result<Vec<f64>, String> {
    let ev = laplacian_spectrum(nx);
    let (lo, hi) = (ev[0], ev[ev.len() - 1]);
    let slice = (hi - lo) / count as f64;
    (0..count)
        .map(|k| {
            let (a, b) = (lo + slice * k as f64, lo + slice * (k + 1) as f64);
            let gaps: Vec<f64> = ev
                .windows(2)
                .filter(|g| g[1] - g[0] >= 1e-3 && g[0] >= a && g[1] <= b)
                .map(|g| 0.5 * (g[0] + g[1]))
                .collect();
            let start = hash2(seed, k as u64) as usize;
            (0..gaps.len())
                .map(|i| gaps[(start + i) % gaps.len()])
                .find(|&sigma| {
                    factor_poles(h, &[sigma], sf.clone()).is_ok_and(|f| growth(&f[0]) <= MAX_GROWTH)
                })
                .ok_or_else(|| format!("no well-conditioned shift in spectrum slice {k}"))
        })
        .collect()
}

/// Largest `|L_ij|` below the unit diagonal of an LDLᵀ factor.
fn growth(f: &LdlFactor) -> f64 {
    f.panels
        .iter()
        .flat_map(|p| {
            let w = p.width();
            let diag = (0..w).flat_map(move |j| (j + 1..w).map(move |i| p.diag[(i, j)]));
            diag.chain(p.below.data().iter().copied())
        })
        .fold(0.0, |m, v| m.max(v.abs()))
}

/// `poles`: communication and the engine under latency. A batched PEXSI
/// pole set — 8 indefinite shifts of the 2-D Laplacian — through one
/// shared plan on a 2×2 grid (threads 1), with a modeled NIC latency on
/// every message. The progress loop, tag lanes, nonblocking tree
/// collectives and the mpisim runtime dominate; dense work is small.
pub fn poles(cfg: &Config) -> Result<Run, String> {
    const POLES: usize = 8;
    const NIC_DELAY_US: u64 = 250;
    let nx = if cfg.tiny { 12 } else { 46 };
    let w = gen::grid_laplacian_2d(nx, nx);
    let grid = Grid2D::new(2, 2);
    let mut run = Run { unit_stages: &["dist.batch_s"], ..Run::default() };
    let opts = AnalyzeOptions::default();
    let setup = Setup {
        analyze: || analyze(&w.matrix.pattern(), &opts),
        plan: |sf: &Arc<SymbolicFactor>| plan_all(sf, grid),
    };
    let sf = setup.first(&mut run);
    let shifts = pole_shifts(&w.matrix, &sf, nx, POLES, cfg.seed)?;
    let batch = BatchOptions {
        dist: DistOptions {
            scheme: SCHEME,
            seed: TREE_SEED,
            threads: 1,
            lookahead: LOOKAHEAD,
            ..Default::default()
        },
        max_inflight: 4,
    };
    let nic = FaultPlan::new(cfg.seed)
        .with_default(FaultSpec { delay_us: NIC_DELAY_US, ..FaultSpec::default() });
    let run_opts = RunOptions { faults: Some(nic), ..RunOptions::default() };
    run.meta.extend([
        ("matrix", w.name.clone()),
        ("grid", "2x2".into()),
        ("threads", "1".into()),
        ("lookahead", LOOKAHEAD.to_string()),
        ("max_inflight", batch.max_inflight.to_string()),
        ("poles", POLES.to_string()),
        ("shifts", format!("{shifts:?}")),
        ("latency_model", format!("{NIC_DELAY_US} us per message (courier threads)")),
    ]);

    let factors =
        factor_poles(&w.matrix, &shifts, sf).map_err(|e| format!("factor_poles: {e:?}"))?;
    let seq: Vec<SelectedInverse> = factors.iter().map(selinv_ldlt).collect();
    let check =
        |inverses: &[SelectedInverse], first: Option<&[SelectedInverse]>| -> Result<(), String> {
            for (q, inv) in inverses.iter().enumerate() {
                check_close(inv, &seq[q]).map_err(|e| format!("pole {q}: {e}"))?;
                if let Some(first) = first {
                    check_bits(inv, &first[q]).map_err(|e| format!("pole {q}: {e}"))?;
                }
            }
            Ok(())
        };
    // Warm-up; its inverses are the bit-identity reference of every later
    // repetition.
    let first =
        try_batched_selinv(&factors, grid, &batch, &run_opts).map_err(|e| e.to_string())?.inverses;
    check(&first, None)?;

    let untraced_s = cfg.untraced_seconds();
    let mut lp = Loop::with_setups(untraced_s, run.setup.best());
    while lp.more() {
        let rep = lp.rep;
        while lp.setup_due() {
            setup.time(&mut run);
        }
        if cfg.trace {
            let (f, t) = timed(|| factor_poles(&w.matrix, &shifts, factors[0].symbolic.clone()));
            if run.record(rep, f.map(drop).map_err(|e| format!("factor_poles: {e:?}"))) {
                run.stage("factor.poles_s").push(t);
            }
        }
        let (r, wall) = timed(|| try_batched_selinv(&factors, grid, &batch, &run_opts));
        let ok = run.record(
            rep,
            r.map_err(|e| e.to_string()).and_then(|mut r| {
                corrupt(cfg, rep, &mut r.inverses[0]);
                check(&r.inverses, Some(&first))
            }),
        );
        if ok {
            run.unit.push(wall);
            run.stage("dist.batch_s").push(wall);
        }
    }
    run.meta.push((
        "verify",
        "each pole 1e-9*(1+max|inv|) vs selinv_ldlt; bit-identical across reps".into(),
    ));
    if !cfg.trace {
        return Ok(run);
    }

    let traced = traced_mpisim(&mut run, cfg.seconds - untraced_s, "traced dist.batch_s", || {
        let (r, wall) =
            timed(|| try_batched_selinv_traced(&factors, grid, &batch, &run_opts, "poles"));
        let r = r.map_err(|e| e.to_string());
        (r.and_then(|(b, trace)| check(&b.inverses, Some(&first)).map(|()| trace)), wall)
    })?;

    let factor_flops: f64 = factors.iter().map(|f| f.flops()).sum();
    let (poles_s, batch_s) = (run.best("factor.poles_s"), run.best("dist.batch_s"));
    run.set("factor.flops", factor_flops);
    run.set("factor.gflops", factor_flops / poles_s * 1e-9);
    run.set("dist.poles_per_s", POLES as f64 / batch_s);
    run.set("trace.overhead_ratio", traced / batch_s);
    Ok(run)
}

/// The observable outcome of one `scale` prediction; identical across
/// repetitions of one seed.
#[derive(Clone, Debug, PartialEq)]
struct Prediction {
    replay_bytes: u64,
    tasks: usize,
    edges: usize,
    makespan_bits: u64,
    messages: u64,
    bytes: u64,
}

impl Prediction {
    fn new(replay_bytes: u64, g: &pselinv_dist::taskgraph::TaskGraph, sim: &SimResult) -> Self {
        Prediction {
            replay_bytes,
            tasks: g.num_tasks(),
            edges: g.succ.len(),
            makespan_bits: sim.makespan.to_bits(),
            messages: sim.messages,
            bytes: sim.bytes,
        }
    }
}

/// `scale`: the paper-scale model. A DG Hamiltonian proxy predicted on a
/// 16×16 grid (P = 256): communication-volume replay, selected-inversion
/// task graph, and discrete-event simulation. `trees`, `taskgraph` and
/// `des` do all the work; no numerics, no mpisim.
pub fn scale(cfg: &Config) -> Result<Run, String> {
    // P = 256 rather than 1024: at P = 1024 the best-of times of the
    // prediction drifted 1.4–3.4× more between interleaved runs.
    let ((gx, gy, gz, b), p) = if cfg.tiny { ((3, 3, 2, 8), 4) } else { ((10, 10, 4, 24), 16) };
    let w = gen::dg_hamiltonian(gx, gy, gz, b, cfg.seed);
    let grid = Grid2D::new(p, p);
    let mut run = Run {
        unit_stages: &["dist.replay_s", "dist.taskgraph_s", "des.simulate_s"],
        ..Run::default()
    };
    // The replay and the task graph derive their own plans, so set-up here
    // is the symbolic analysis plus the layout.
    let setup = Setup {
        analyze: || Arc::try_unwrap(analyze_structure(&w, 48, 1)).expect("sole owner"),
        plan: |sf: &Arc<SymbolicFactor>| drop(std::hint::black_box(Layout::new(sf.clone(), grid))),
    };
    let sf = setup.first(&mut run);
    let layout = Layout::new(sf, grid);
    let machine = des_machine(cfg.seed);
    let graph_opts = GraphOptions { scheme: SCHEME, seed: TREE_SEED, pipelining: true };
    run.meta.extend([
        ("matrix", w.name.clone()),
        ("grid", format!("{p}x{p}")),
        ("threads", "1".into()),
        ("latency_model", format!("DES machine (des_machine, seed {})", cfg.seed)),
    ]);

    let first = {
        let vol = replay_volumes(&layout, TreeBuilder::new(SCHEME, TREE_SEED));
        let g = selinv_graph(&layout, &graph_opts);
        let sim = simulate(&g, machine);
        let col = vol.col_bcast_stats_mb();
        let row = vol.row_reduce_stats_mb();
        run.set("trees.col_bcast_max_over_mean", col.max / col.mean);
        run.set("trees.row_reduce_max_over_mean", row.max / row.mean);
        run.set("dist.taskgraph_tasks", g.num_tasks() as f64);
        run.set("dist.taskgraph_edges", g.succ.len() as f64);
        run.set("des.messages", sim.messages as f64);
        run.set("des.bytes", sim.bytes as f64);
        run.set("des.makespan_s", sim.makespan);
        run.set("des.comm_to_comp", sim.comm_to_comp());
        Prediction::new(vol.total_bytes(), &g, &sim)
    };
    let verify = |got: Prediction| -> Result<(), String> {
        if got != first {
            return Err(format!("prediction {got:?} differs from the first {first:?}"));
        }
        Ok(())
    };

    let untraced_s = cfg.untraced_seconds();
    let mut lp = Loop::with_setups(untraced_s, run.setup.best());
    while lp.more() {
        let rep = lp.rep;
        while lp.setup_due() {
            setup.time(&mut run);
        }
        let (vol, t_replay) =
            timed(|| replay_volumes(&layout, TreeBuilder::new(SCHEME, TREE_SEED)));
        let (g, t_graph) = timed(|| selinv_graph(&layout, &graph_opts));
        let (sim, t_sim) = timed(|| simulate(&g, machine));
        let mut got = Prediction::new(vol.total_bytes(), &g, &sim);
        if cfg.corrupt_rep == Some(rep) {
            got.messages += 1;
        }
        if run.record(rep, verify(got)) {
            run.unit.push(t_replay + t_graph + t_sim);
            run.stage("dist.replay_s").push(t_replay);
            run.stage("dist.taskgraph_s").push(t_graph);
            run.stage("des.simulate_s").push(t_sim);
        }
    }
    run.meta.push((
        "verify",
        "replay bytes, tasks, edges, makespan, messages, bytes identical across reps".into(),
    ));
    if !cfg.trace {
        return Ok(run);
    }

    let mut lp = Loop::new(cfg.seconds - untraced_s);
    while lp.more() {
        let rep = lp.rep;
        let ((replay_bytes, g, sim), wall) = timed(|| {
            let vol = replay_volumes(&layout, TreeBuilder::new(SCHEME, TREE_SEED));
            let g = selinv_graph(&layout, &graph_opts);
            let (sim, _trace) = simulate_traced(&g, machine, "scale");
            (vol.total_bytes(), g, sim)
        });
        if run.record(rep, verify(Prediction::new(replay_bytes, &g, &sim))) {
            run.stage("traced unit wall").push(wall);
        }
    }
    run.set("des.msgs_per_s", first.messages as f64 / run.best("des.simulate_s"));
    run.set("trace.overhead_ratio", run.best("traced unit wall") / run.unit.best());
    Ok(run)
}
