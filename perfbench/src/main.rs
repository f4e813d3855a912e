//! Benchmark of the selected-inversion stack on three workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fem3d|poles|scale> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload repeats its unit of work for `--seconds` after one
//! warm-up, verifying every repetition's output; a repetition that fails
//! its check is counted in `failed` and left out of every timing. With
//! `--trace 0` the last line of standard output is a JSON object holding
//! the end-to-end metrics; with `--trace 1` it holds the per-layer ledger
//! ([`LEDGER`]), measured by a separate run that also times the traced
//! entry points. Every earlier line is a human-readable report starting
//! with `#`: run metadata and, beside each gated timing, its noise
//! diagnostics. `README.md` explains the workloads and the ledger.
//!
//! `--tiny` shrinks every workload to a size that runs in well under a
//! second, and `--corrupt-rep <i>` damages repetition `i`'s output before
//! it is verified; both exist for the self-test in `tests/`.

mod heap;
mod workloads;

use pselinv_trace::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// One per-layer metric of the ledger: what it measures, the end-to-end
/// metric it should move, and the workloads on which it should not move.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    /// The end-to-end metric (on the workload) that a change in this
    /// metric should move.
    pub moves: &'static str,
    /// Workloads where the prediction is no change ("-" for none).
    pub flat_on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    flat_on: &'static str,
) -> Layer {
    Layer { name, unit, moves, flat_on }
}

/// The per-layer ledger, in output order. A workload emits every entry; an
/// entry named like a timed stage reads that stage's best, and an entry
/// the workload does not exercise reads 0, which is the "predicted flat"
/// claim made literal.
pub const LEDGER: &[Layer] = &[
    layer("order.analyze_s", "s", "setup_s on all", "-"),
    layer("order.nnz_l", "count", "every metric on all (structure changed)", "-"),
    layer("order.supernodes", "count", "every metric on all (structure changed)", "-"),
    layer("dist.plan_s", "s", "setup_s on fem3d, poles", "-"),
    layer("factor.flops", "count", "unit_s on fem3d", "scale"),
    layer("factor.gflops", "GFLOP/s", "unit_s on fem3d", "scale"),
    layer("factor.factorize_s", "s", "unit_s on fem3d", "scale"),
    layer("factor.poles_s", "s", "unit_s on fem3d", "scale"),
    layer("selinv.flops", "count", "unit_s on fem3d", "-"),
    layer("selinv.gflops", "GFLOP/s", "unit_s on fem3d", "-"),
    layer("selinv.seq_s", "s", "unit_s on fem3d", "-"),
    layer("dist.selinv_s", "s", "unit_s on fem3d", "scale"),
    layer("dist.serial_1x1_s", "s", "unit_s on fem3d", "scale"),
    layer("dist.serial_over_seq", "ratio", "unit_s on fem3d", "scale"),
    layer("dist.selinv_gflops", "GFLOP/s", "unit_s on fem3d", "scale"),
    layer("pool.executed", "count", "unit_s on fem3d", "poles"),
    layer("pool.stolen", "count", "unit_s on fem3d", "poles"),
    layer("pool.busy_s", "s", "unit_s on fem3d", "poles"),
    layer("pool.utilization", "ratio", "unit_s on fem3d", "poles"),
    layer("mpisim.msgs", "count", "unit_s on poles", "fem3d"),
    layer("mpisim.bytes_sent", "bytes", "unit_s on poles", "fem3d"),
    layer("mpisim.bytes_copied", "bytes", "unit_s on poles", "fem3d"),
    layer("mpisim.sent_max_over_mean", "ratio", "unit_s on poles", "fem3d"),
    layer("mpisim.stash_hwm", "count", "unit_s on poles", "fem3d"),
    layer("mpisim.wait_s.diag_bcast", "s", "unit_s on poles", "fem3d"),
    layer("mpisim.wait_s.transpose", "s", "unit_s on poles", "fem3d"),
    layer("mpisim.wait_s.col_bcast", "s", "unit_s on poles", "fem3d"),
    layer("mpisim.wait_s.row_reduce", "s", "unit_s on poles", "fem3d"),
    layer("mpisim.wait_s.diag_reduce", "s", "unit_s on poles", "fem3d"),
    layer("mpisim.wait_s.ainv_transpose", "s", "unit_s on poles", "fem3d"),
    layer("mpisim.span_s.diag_bcast", "s", "unit_s on poles", "fem3d"),
    layer("mpisim.span_s.transpose", "s", "unit_s on poles", "fem3d"),
    layer("mpisim.span_s.col_bcast", "s", "unit_s on poles", "fem3d"),
    layer("mpisim.span_s.row_reduce", "s", "unit_s on poles", "fem3d"),
    layer("mpisim.span_s.diag_reduce", "s", "unit_s on poles", "fem3d"),
    layer("mpisim.span_s.ainv_transpose", "s", "unit_s on poles", "fem3d"),
    layer("mpisim.transfer_s", "s", "unit_s on poles", "fem3d"),
    layer("dist.outstanding_hwm", "count", "unit_s on poles", "-"),
    layer("dist.batch_s", "s", "unit_s on poles", "-"),
    layer("dist.poles_per_s", "1/s", "unit_s on poles", "-"),
    layer("trees.col_bcast_max_over_mean", "ratio", "unit_s on scale", "-"),
    layer("trees.row_reduce_max_over_mean", "ratio", "unit_s on scale", "-"),
    layer("dist.replay_s", "s", "unit_s on scale", "-"),
    layer("dist.taskgraph_s", "s", "unit_s on scale", "-"),
    layer("dist.taskgraph_tasks", "count", "unit_s on scale", "-"),
    layer("dist.taskgraph_edges", "count", "unit_s on scale", "-"),
    layer("des.simulate_s", "s", "unit_s on scale", "-"),
    layer("des.messages", "count", "unit_s on scale", "-"),
    layer("des.bytes", "bytes", "unit_s on scale", "-"),
    layer("des.msgs_per_s", "1/s", "unit_s on scale", "-"),
    layer("des.makespan_s", "s", "unit_s on scale (simulated, exact)", "-"),
    layer("des.comm_to_comp", "ratio", "unit_s on scale", "-"),
    layer("trace.overhead_ratio", "ratio", "- (traced / untraced best wall)", "-"),
];

/// The end-to-end metrics, emitted on every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("unit_s", "s"), ("peak_heap_mb", "MB")];

/// Parsed command line.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub corrupt_rep: Option<u64>,
}

impl Config {
    /// Seconds of the untraced measured loop: all of `--seconds`, or half
    /// of it when the other half goes to the traced entry points.
    pub fn untraced_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    fn parse(mut args: impl Iterator<Item = String>) -> Result<Config, String> {
        let mut cfg = Config {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
            tiny: false,
            corrupt_rep: None,
        };
        while let Some(flag) = args.next() {
            if flag == "--tiny" {
                cfg.tiny = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => cfg.workload = value,
                "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    cfg.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                "--corrupt-rep" => cfg.corrupt_rep = Some(value.parse().map_err(|e| bad(&e))?),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
            return Err(format!("--seconds {} out of range (0, 600]", cfg.seconds));
        }
        Ok(cfg)
    }
}

/// Repetitions every measured loop makes, however short `--seconds` is.
const MIN_REPS: u64 = 3;

/// Wall-time samples of one timed call, in seconds.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, seconds: f64) {
        self.0.push(seconds);
    }

    /// Nearest-rank quantile, `q` in `[0, 1]`.
    fn quantile(&self, q: f64) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v[((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1]
    }

    pub fn best(&self) -> f64 {
        self.quantile(0.0)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Times one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Share of the measured loop spent on set-ups, and the bounds on their
/// number (including the one before measuring). The median of the set-ups
/// is the gated `setup_s`; a short set-up is sampled more often, so that
/// its median rests on enough samples to be steady.
const SETUP_SHARE: f64 = 0.05;
const MIN_SETUPS: u32 = 21;
const MAX_SETUPS: u32 = 81;

/// Repetition counter and deadline of one measured loop.
pub struct Loop {
    start: Instant,
    seconds: f64,
    pub rep: u64,
    setups: u32,
    setup_reps: u32,
}

impl Loop {
    /// A loop of `seconds` that times no set-ups.
    pub fn new(seconds: f64) -> Loop {
        Loop { start: Instant::now(), seconds, rep: 0, setups: 1, setup_reps: 1 }
    }

    /// A loop of `seconds` that also times set-ups, given the duration of
    /// the one already made before it.
    pub fn with_setups(seconds: f64, first_setup_s: f64) -> Loop {
        let n = (SETUP_SHARE * seconds / first_setup_s).round();
        let setup_reps = n.clamp(f64::from(MIN_SETUPS), f64::from(MAX_SETUPS)) as u32;
        Loop { setup_reps, ..Loop::new(seconds) }
    }

    /// Whether to time another set-up now. The set-ups are spread evenly
    /// over the loop, so their median samples the same mix of fast and
    /// slow host phases as the whole run instead of its first moments.
    pub fn setup_due(&mut self) -> bool {
        let due = self.setups < self.setup_reps
            && self.start.elapsed().as_secs_f64()
                >= self.seconds * f64::from(self.setups - 1) / f64::from(self.setup_reps - 1);
        if due {
            self.setups += 1;
        }
        due
    }

    /// Whether to run another repetition: at least [`MIN_REPS`], then
    /// until the deadline.
    pub fn more(&mut self) -> bool {
        let go = self.rep < MIN_REPS || self.start.elapsed().as_secs_f64() < self.seconds;
        if go {
            self.rep += 1;
        }
        go
    }
}

/// Everything a workload measured.
#[derive(Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    /// Full set-ups (symbolic analysis plus communication plan); the
    /// median is gated.
    pub setup: Samples,
    /// Wall time of each verified unit of work (diagnostics only).
    pub unit: Samples,
    /// Timed stages, reported with their noise diagnostics.
    pub stages: Vec<(&'static str, Samples)>,
    /// The stages that make up one unit. The gated `unit_s` is the sum of
    /// their best-of-R times: each timed window is then one stage long,
    /// so a best-of sample is less likely to straddle a slow host phase
    /// than one spanning the whole unit.
    pub unit_stages: &'static [&'static str],
    /// Per-layer ledger values this workload measured.
    pub layers: BTreeMap<&'static str, f64>,
    /// Run metadata, printed with the report.
    pub meta: Vec<(&'static str, String)>,
}

impl Run {
    /// Counts one attempted unit; a failed one is reported on stderr.
    pub fn record(&mut self, rep: u64, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                eprintln!("repetition {rep} failed: {e}");
                false
            }
        }
    }

    pub fn stage(&mut self, name: &'static str) -> &mut Samples {
        if let Some(i) = self.stages.iter().position(|(n, _)| *n == name) {
            return &mut self.stages[i].1;
        }
        self.stages.push((name, Samples::default()));
        &mut self.stages.last_mut().expect("just pushed").1
    }

    pub fn best(&self, stage: &str) -> f64 {
        self.stages.iter().find(|(n, _)| *n == stage).map_or(f64::NAN, |(_, s)| s.best())
    }

    /// A ledger value: set explicitly, else the best of the stage of that
    /// name, else 0 (the workload does not exercise it).
    fn layer(&self, name: &str) -> f64 {
        match self.layers.get(name) {
            Some(&v) => v,
            None => self.stages.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, s)| s.best()),
        }
    }

    /// The gated `unit_s`: the sum of the unit's stage bests.
    pub fn unit_s(&self) -> f64 {
        self.unit_stages.iter().map(|s| self.best(s)).sum()
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(LEDGER.iter().any(|l| l.name == name), "{name} is not in the ledger");
        self.layers.insert(name, value);
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The commit the benchmark runs on, read from `.git` in the working
/// directory without spawning `git`; "unknown" outside a git checkout.
fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| r.to_string(), |s| s.trim().to_string()),
        None => head.trim().to_string(),
    }
}

fn diagnostics(name: &str, s: &Samples, gated: &str) -> String {
    let best = s.best();
    format!(
        "# {name:<20} {gated:<6} best {best:.6} s  median {:.6}  p90 {:.6}  n {}  median/best {:.3}",
        s.median(),
        s.quantile(0.9),
        s.len(),
        s.median() / best
    )
}

fn metric(name: &str, value: f64, unit: &str) -> (String, Json) {
    (name.to_string(), Json::obj([("value", value.into()), ("unit", unit.into())]))
}

fn main() -> ExitCode {
    let cfg = match Config::parse(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match report(&cfg) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the workload and prints the report, ending with the result line.
fn report(cfg: &Config) -> Result<(), String> {
    let run = match cfg.workload.as_str() {
        "fem3d" => workloads::fem3d(cfg)?,
        "poles" => workloads::poles(cfg)?,
        "scale" => workloads::scale(cfg)?,
        w => return Err(format!("unknown workload {w:?} (expected fem3d, poles or scale)")),
    };
    if run.unit.is_empty() {
        return Err("no repetition passed verification".into());
    }
    let rss = peak_rss_mb()?;

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut meta = vec![
        ("workload", cfg.workload.clone()),
        ("seed", cfg.seed.to_string()),
        ("trace", u8::from(cfg.trace).to_string()),
        ("seconds", cfg.seconds.to_string()),
        ("nproc", nproc.to_string()),
        ("git_rev", git_rev()),
        ("reps", run.unit.len().to_string()),
        ("setup_reps", run.setup.len().to_string()),
        ("peak_rss_mb", format!("{rss:.1}")),
    ];
    meta.extend(run.meta.iter().cloned());
    let meta = Json::Obj(meta.into_iter().map(|(k, v)| (k.to_string(), v.into())).collect());
    println!("# meta {}", meta.to_string_compact());
    println!(
        "# attempted {}  failed {}  error_rate {}",
        run.attempted,
        run.failed,
        run.failed as f64 / run.attempted as f64
    );
    println!("{}", diagnostics("setup_s", &run.setup, "median"));
    println!("# unit_s {:.6} s = sum of best {}", run.unit_s(), run.unit_stages.join(" + "));
    println!("{}", diagnostics("unit wall", &run.unit, "-"));
    for (name, s) in &run.stages {
        println!("{}", diagnostics(name, s, "best"));
    }

    let metrics: Vec<(String, Json)> = if cfg.trace {
        println!(
            "# {:<32} {:>16} {:<8} {:<40} flat on",
            "per-layer metric", "value", "unit", "moves"
        );
        LEDGER
            .iter()
            .map(|l| {
                let v = run.layer(l.name);
                println!("# {:<32} {v:>16.6} {:<8} {:<40} {}", l.name, l.unit, l.moves, l.flat_on);
                metric(l.name, v, l.unit)
            })
            .collect()
    } else {
        let values = [run.setup.median(), run.unit_s(), heap::peak_mb()];
        END_TO_END.iter().zip(values).map(|(&(name, unit), v)| metric(name, v, unit)).collect()
    };
    let result = Json::obj([
        ("correct", (run.failed == 0).into()),
        ("attempted", run.attempted.into()),
        ("failed", run.failed.into()),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.to_string_compact());
    Ok(())
}
