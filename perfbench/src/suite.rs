//! The four workloads and what one round of each does.
//!
//! A round is a fixed amount of simulated work, identical for every
//! round of a run at a given seed; a run repeats whole rounds until its
//! time is up and reports medians over them.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use nuba_bench::runner::{run_matrix_ctx_with, Job, JobOutcome, JobResult, RunnerCtx};
use nuba_bench::{main_configs, sweep_benchmarks, Harness};
use nuba_core::session::default_warm_accesses;
use nuba_core::{SimError, SimReport, SimSession};
use nuba_types::state::fnv1a;
use nuba_types::{ArchKind, Fidelity, GpuConfig};
use nuba_workloads::{BenchmarkId, ScaleProfile, SharingClass, Workload};

use crate::checks::{self, Checks, NocPoint};
use crate::clock::CpuTimer;
use crate::stats::median;
use crate::trace::Tracer;

/// Worker threads for the runner and for `latency_sweep`'s sessions: the
/// 2-CPU reference box's `nproc`.
pub const WORKERS: usize = 2;

/// `dense_*`: one long window, past MDR's first 20k-cycle epoch.
const DENSE_CYCLES: u64 = 30_000;
/// `dense_*` jobs per round, each on its own input seed: host cost per
/// simulated cycle differs by up to a quarter between SGEMM seeds, so a
/// round averages several.
const DENSE_JOBS: u64 = 4;
/// 120 chunks per dense round: enough for a p90 with ten beyond it.
const DENSE_CHUNK: u64 = 250;
/// `latency_sweep`: per-benchmark window on the 1-SM, 1-warp machine.
const LATENCY_CYCLES: u64 = 1_000_000;
/// Also the prefix compared against a non-skipping run.
const LATENCY_CHUNK: u64 = 50_000;
/// `matrix_fast`: the Fig 7 + Fig 10 window at `NUBA_FAST` scale.
pub const MATRIX_CYCLES: u64 = 2_000;
/// Chunk of the matrix's stand-alone re-runs.
const MATRIX_CHUNK: u64 = 200;
/// Fig 10's NoC bandwidths in TB/s.
const NOC_TBS: [f64; 4] = [0.7, 1.4, 2.8, 5.6];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    DenseSgemm,
    DenseLbm,
    LatencySweep,
    MatrixFast,
}

impl Shape {
    pub const ALL: [Shape; 4] = [
        Shape::DenseSgemm,
        Shape::DenseLbm,
        Shape::LatencySweep,
        Shape::MatrixFast,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Shape::DenseSgemm => "dense_sgemm",
            Shape::DenseLbm => "dense_lbm",
            Shape::LatencySweep => "latency_sweep",
            Shape::MatrixFast => "matrix_fast",
        }
    }

    pub fn parse(s: &str) -> Option<Shape> {
        Shape::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// A job the benchmark drives itself through `SimSession`, built the
/// way `Harness::try_run` builds it.
#[derive(Clone)]
pub struct SessionJob {
    pub label: String,
    pub bench: BenchmarkId,
    /// Raw configuration; seed and page size are pinned by [`prepare`].
    pub cfg: GpuConfig,
    pub scale: ScaleProfile,
    pub seed: u64,
    pub cycles: u64,
    pub chunk: u64,
}

/// The input seed of part `part` of a round (a dense job, a matrix
/// benchmark), derived from the run's seed with the SplitMix64 mixer.
pub fn sub_seed(seed: u64, part: u64) -> u64 {
    let mut z = seed ^ part.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Pin the seed and page size onto `cfg`, as the harness and runner do.
pub fn prepare(cfg: &GpuConfig, scale: ScaleProfile, seed: u64) -> GpuConfig {
    let mut cfg = cfg.clone();
    cfg.seed = seed;
    cfg.page_bytes = scale.page_bytes;
    cfg
}

/// Warm-state key of the runner's checkpoint cache.
fn warm_key(bench: BenchmarkId, cfg: &GpuConfig, wl: &Workload) -> (BenchmarkId, u64, usize) {
    (bench, cfg.state_hash(), default_warm_accesses(cfg, wl))
}

/// Jobs whose warm key appeared earlier in the list, as a share of all
/// jobs: the runner's warm-reuse opportunity, worked out apart from it.
pub fn warm_reuse_share(jobs: &[Job], scale: ScaleProfile) -> f64 {
    let mut workloads: HashMap<(BenchmarkId, usize, u64), Workload> = HashMap::new();
    let mut seen = std::collections::HashSet::new();
    let mut reused = 0usize;
    for job in jobs {
        let (bench, seed) = (&job.bench, job_seed(job));
        let cfg = prepare(&job.cfg, scale, seed);
        let wl = workloads
            .entry((*bench, cfg.num_sms, seed))
            .or_insert_with(|| Workload::build(*bench, scale, cfg.num_sms, seed));
        if !seen.insert(warm_key(*bench, &cfg, wl)) {
            reused += 1;
        }
    }
    reused as f64 / jobs.len().max(1) as f64
}

/// Counters for the per-layer metrics, filled by traced rounds only.
#[derive(Debug, Default)]
pub struct LayerCounts {
    pub run_s: f64,
    pub run_cycles: u64,
    pub run_warp_ops: u64,
    pub stepped: Vec<f64>,
    pub skipped_share: Vec<f64>,
    pub checkpoint_kib: Vec<f64>,
    pub runner_job_s: Vec<f64>,
    pub pool_busy_share: Vec<f64>,
    pub warm_reuse_share: Vec<f64>,
}

/// What one round measured.
#[derive(Debug, Clone)]
pub struct Round {
    pub traced: bool,
    /// Jobs simulated (each is one operation).
    pub jobs: u64,
    /// Simulated cycles and warp ops per host CPU second of the timed
    /// windows.
    pub cycles_per_s: f64,
    pub warp_ops_per_s: f64,
    /// Host CPU seconds for the whole workload, set-up included.
    pub cpu_s: f64,
    /// Host CPU seconds of set-up.
    pub setup_s: f64,
    /// Wall seconds for the whole workload, set-up included; printed
    /// beside `cpu_s`, not reported.
    pub wall_s: f64,
    /// Wall seconds for the round including its checks.
    pub total_s: f64,
    /// Jobs that ended in an error.
    pub failed: u64,
    pub digest: u64,
}

/// Everything a run carries between rounds.
pub struct Ctx {
    pub shape: Shape,
    pub seed: u64,
    pub tracer: Tracer,
    pub checks: Checks,
    pub layers: LayerCounts,
    /// The last round's reports, by job, for the traced run's
    /// component replays and runner cross-check.
    pub last_reports: Vec<(SessionJob, SimReport)>,
}

impl Ctx {
    pub fn new(shape: Shape, seed: u64) -> Ctx {
        Ctx {
            shape,
            seed,
            tracer: Tracer::new(false),
            checks: Checks::default(),
            layers: LayerCounts::default(),
            last_reports: Vec::new(),
        }
    }
}

/// The jobs `dense_*` and `latency_sweep` drive themselves.
pub fn session_jobs(shape: Shape, seed: u64) -> Vec<SessionJob> {
    let dense = |bench: BenchmarkId| {
        (0..DENSE_JOBS)
            .map(|part| SessionJob {
                label: format!("{bench}#{part}"),
                bench,
                cfg: GpuConfig::paper_baseline(ArchKind::Nuba),
                scale: ScaleProfile::default(),
                seed: sub_seed(seed, part),
                cycles: DENSE_CYCLES,
                chunk: DENSE_CHUNK,
            })
            .collect()
    };
    match shape {
        Shape::DenseSgemm => dense(BenchmarkId::Sgemm),
        Shape::DenseLbm => dense(BenchmarkId::Lbm),
        Shape::LatencySweep => {
            let cfg = GpuConfig::paper_baseline(ArchKind::Nuba)
                .scaled(1.0 / 64.0)
                .with_active_warps(1);
            BenchmarkId::ALL
                .iter()
                .map(|&bench| SessionJob {
                    label: bench.to_string(),
                    bench,
                    cfg: cfg.clone(),
                    scale: ScaleProfile::default(),
                    seed,
                    cycles: LATENCY_CYCLES,
                    chunk: LATENCY_CHUNK,
                })
                .collect()
        }
        Shape::MatrixFast => Vec::new(),
    }
}

/// The Fig 7 and Fig 10 job lists of `all_experiments` on the sweep
/// subset, in that binary's order. Every job of one benchmark shares
/// that benchmark's input seed, so the figures' comparisons and the
/// warm-state reuse between them hold; the benchmarks' seeds differ, so
/// the seed-sensitive ones (AlexNet and SqueezeNet retire 2-3x more warp
/// ops on some seeds than on others) do not swing together.
pub fn matrix_jobs(seed: u64) -> Vec<Job> {
    let sweep = sweep_benchmarks();
    let mut jobs: Vec<Job> = sweep
        .iter()
        .flat_map(|&b| main_configs().map(|(_, cfg)| Job::new(b.to_string(), b, cfg)))
        .collect();
    for &b in &sweep {
        let cfg = GpuConfig::paper_baseline(ArchKind::MemSideUba).with_noc_tbs(1.4);
        jobs.push(Job::new(b.to_string(), b, cfg));
    }
    for arch in [ArchKind::MemSideUba, ArchKind::SmSideUba, ArchKind::Nuba] {
        for tbs in NOC_TBS {
            let cfg = GpuConfig::paper_baseline(arch).with_noc_tbs(tbs);
            for &b in &sweep {
                jobs.push(Job::new(format!("{b}@{tbs}"), b, cfg.clone()));
            }
        }
    }
    for job in &mut jobs {
        let part = sweep.iter().position(|&b| b == job.bench);
        job.seed = Some(sub_seed(seed, part.expect("a sweep benchmark") as u64));
    }
    jobs
}

/// The input seed the runner gives `job` (every matrix job has one).
pub fn job_seed(job: &Job) -> u64 {
    job.seed.expect("matrix jobs carry their seed")
}

/// The harness the matrix runs under.
pub fn matrix_harness(seed: u64) -> Harness {
    Harness {
        cycles: MATRIX_CYCLES,
        scale: ScaleProfile::fast(),
        seed,
        fidelity: Fidelity::Full,
    }
}

/// Result of one self-driven session job.
pub struct SessionOut {
    pub report: SimReport,
    /// Report after the first chunk.
    pub prefix: SimReport,
    /// CPU seconds of the job's thread in set-up and in the timed window.
    pub setup_s: f64,
    pub window_s: f64,
    pub session: SimSession,
}

/// Build, warm and run `job` in chunks, with spans around every call.
pub fn run_session(job: &SessionJob, tr: &mut Tracer) -> Result<SessionOut, SimError> {
    let cfg = prepare(&job.cfg, job.scale, job.seed);
    let t0 = CpuTimer::thread();
    let s = tr.begin("workload_build", "workloads");
    let wl = Workload::build(job.bench, job.scale, cfg.num_sms, job.seed);
    tr.end(s);
    let s = tr.begin("session_build", "core");
    let mut session = SimSession::builder(cfg, wl).build()?;
    tr.end(s);
    let s = tr.begin("warm", "core");
    session.warm();
    tr.end(s);
    let setup_s = t0.elapsed();

    let t1 = CpuTimer::thread();
    let mut prefix = None;
    while session.cycle() < job.cycles {
        let n = job.chunk.min(job.cycles - session.cycle());
        let s = tr.begin("run_window", "core");
        let r = session.run_window(n)?;
        tr.end(s);
        prefix.get_or_insert(r);
    }
    let window_s = t1.elapsed();
    let s = tr.begin("report", "core");
    let report = session.gpu().report();
    tr.end(s);
    Ok(SessionOut {
        prefix: prefix.unwrap_or_else(|| report.clone()),
        report,
        setup_s,
        window_s,
        session,
    })
}

/// FNV-1a over every job's label and full report.
pub fn digest<'a>(reports: impl IntoIterator<Item = (&'a str, &'a SimReport)>) -> u64 {
    let mut text = String::new();
    for (label, r) in reports {
        text.push_str(label);
        text.push_str(&format!("{r:?}\n"));
    }
    fnv1a(text.as_bytes())
}

/// Run one round of the context's workload.
pub fn round(ctx: &mut Ctx, index: usize, traced: bool) -> Round {
    match ctx.shape {
        Shape::MatrixFast => matrix_round(ctx, index, traced),
        shape => sessions_round(ctx, shape, index, traced),
    }
}

/// Run `jobs` on `workers` threads, job `i` on thread `i % workers`,
/// each with spans on its own lane; results come back in job order.
fn run_sessions(
    jobs: &[SessionJob],
    workers: usize,
    tr: &mut Tracer,
) -> Vec<Result<SessionOut, SimError>> {
    let done = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let mut wtr = tr.worker(w + 1);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for (i, job) in jobs.iter().enumerate().skip(w).step_by(workers) {
                        let s = wtr.begin("job", "bench");
                        out.push((i, run_session(job, &mut wtr)));
                        wtr.end(s);
                    }
                    (out, wtr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a session worker panicked"))
            .collect::<Vec<_>>()
    });
    let mut results: Vec<Option<Result<SessionOut, SimError>>> =
        jobs.iter().map(|_| None).collect();
    for (out, wtr) in done {
        tr.merge(wtr);
        for (i, r) in out {
            results[i] = Some(r);
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every job ran on a worker"))
        .collect()
}

fn sessions_round(ctx: &mut Ctx, shape: Shape, index: usize, traced: bool) -> Round {
    let t0 = Instant::now();
    let cpu0 = CpuTimer::process();
    let jobs = session_jobs(shape, ctx.seed);
    // `latency_sweep`'s small compute-bound sessions run on both CPUs:
    // one thread alone ran 1.3-1.4x faster in some 30 s runs than in
    // others (spread 0.11-0.29 over ten runs), two in parallel spread
    // 0.02-0.08. The dense sessions are memory-heavy; two of them at once
    // spread more than one (0.16 against 0.06-0.12), so they run alone.
    let workers = if shape == Shape::LatencySweep {
        WORKERS
    } else {
        1
    };
    let results = run_sessions(&jobs, workers, &mut ctx.tracer);
    let mut out = Vec::with_capacity(jobs.len());
    let (mut cycles, mut warp_ops, mut window_s) = (0, 0, 0.0);
    let mut round = Round {
        traced,
        jobs: jobs.len() as u64,
        cycles_per_s: 0.0,
        warp_ops_per_s: 0.0,
        cpu_s: 0.0,
        setup_s: 0.0,
        wall_s: 0.0,
        total_s: 0.0,
        failed: 0,
        digest: 0,
    };
    for (job, result) in jobs.iter().zip(results) {
        match result {
            Ok(o) => {
                cycles += o.report.cycles;
                warp_ops += o.report.warp_ops;
                window_s += o.window_s;
                round.setup_s += o.setup_s;
                out.push((job, o));
            }
            Err(e) => {
                eprintln!("{}: {e}", job.label);
                round.failed += 1;
            }
        }
    }
    round.cpu_s = cpu0.elapsed();
    round.wall_s = t0.elapsed().as_secs_f64();
    round.cycles_per_s = cycles as f64 / window_s;
    round.warp_ops_per_s = warp_ops as f64 / window_s;
    round.digest = digest(out.iter().map(|(j, o)| (j.label.as_str(), &o.report)));

    // Untimed: checks, and the traced layer probes.
    let mut stepped = 0u64;
    for (job, o) in &out {
        let cfg = prepare(&job.cfg, job.scale, job.seed);
        ctx.checks
            .extend(checks::report_properties(&job.label, &cfg, &o.report));
        ctx.checks
            .extend(checks::simulator_properties(&job.label, o.session.gpu()));
        stepped += o.session.gpu().detail_steps();
        if traced {
            checkpoint_probe(ctx, &o.session);
        }
    }
    if shape == Shape::LatencySweep && index == 0 {
        skip_equivalence(ctx, &out);
    }
    if traced {
        let l = &mut ctx.layers;
        l.run_s += window_s;
        l.run_cycles += cycles;
        l.run_warp_ops += warp_ops;
        l.stepped.push(stepped as f64);
        l.skipped_share
            .push(1.0 - stepped as f64 / cycles.max(1) as f64);
    }
    ctx.last_reports = out
        .into_iter()
        .map(|(j, o)| (j.clone(), o.report))
        .collect();
    round.total_s = t0.elapsed().as_secs_f64();
    round
}

/// Checkpoint the session and restore it, with spans; the restored
/// session must resume at the same cycle.
fn checkpoint_probe(ctx: &mut Ctx, session: &SimSession) {
    let s = ctx.tracer.begin("checkpoint", "core");
    let ckpt = session.checkpoint();
    ctx.tracer.end(s);
    ctx.layers
        .checkpoint_kib
        .push(ckpt.to_bytes().len() as f64 / 1024.0);
    let wl = session.workload().clone();
    let s = ctx.tracer.begin("restore", "core");
    let resumed = SimSession::resume(&ckpt, wl);
    ctx.tracer.end(s);
    match resumed {
        Ok(r) => ctx.checks.expect(r.cycle() == session.cycle(), || {
            format!(
                "restored session at cycle {} not {}",
                r.cycle(),
                session.cycle()
            )
        }),
        Err(e) => ctx.checks.expect(false, || format!("restore failed: {e}")),
    }
}

/// The first chunk of every latency session, re-run cycle by cycle
/// without event skipping, must give the same report.
fn skip_equivalence(ctx: &mut Ctx, out: &[(&SessionJob, SessionOut)]) {
    for (job, o) in out {
        let cfg = prepare(&job.cfg, job.scale, job.seed);
        let wl = Workload::build(job.bench, job.scale, cfg.num_sms, job.seed);
        let stepped = SimSession::builder(cfg, wl).build().and_then(|mut s| {
            s.warm();
            s.gpu_mut().set_skip(false);
            s.run_window(job.chunk)
        });
        match stepped {
            Ok(r) => ctx.checks.expect(r == o.prefix, || {
                format!(
                    "{}: stepped prefix differs from the skipping run",
                    job.label
                )
            }),
            Err(e) => ctx
                .checks
                .expect(false, || format!("{} stepped prefix: {e}", job.label)),
        }
    }
}

fn matrix_round(ctx: &mut Ctx, index: usize, traced: bool) -> Round {
    let seed = ctx.seed;
    let h = matrix_harness(seed);
    let t0 = Instant::now();
    let cpu0 = CpuTimer::process();
    let jobs = matrix_jobs(seed);
    let s = ctx.tracer.begin("run_matrix", "runner");
    let t_matrix = Instant::now();
    let cpu_matrix = CpuTimer::process();
    let results = run_matrix_ctx_with(&RunnerCtx::new(), &h, &jobs, WORKERS);
    let matrix_cpu_s = cpu_matrix.elapsed();
    let matrix_s = t_matrix.elapsed().as_secs_f64();
    add_job_spans(&mut ctx.tracer, t_matrix, &results);
    ctx.tracer.end(s);
    let cpu_s = cpu0.elapsed();
    let wall_s = t0.elapsed().as_secs_f64();

    let ok: Vec<&JobResult> = results
        .iter()
        .filter(|r| r.outcome == JobOutcome::Ok)
        .collect();
    for r in results.iter().filter(|r| r.outcome != JobOutcome::Ok) {
        eprintln!("{}: ended {:?}: {:?}", r.label, r.outcome, r.error);
    }
    let setup_s = setup_pass(ctx, &h, &jobs);
    // Throughput is the median job's: AlexNet's and SqueezeNet's warp ops
    // per cycle swing 3-5x with their seed (the other eight benchmarks'
    // by about a tenth), which would dominate a sum over the matrix. The
    // runner times jobs by wall clock only, so each job's CPU seconds are
    // its wall seconds scaled by the matrix's CPU seconds per summed job
    // wall second.
    let job_wall_s: f64 = results.iter().map(|r| r.wall_seconds).sum();
    let cpu_per_wall = matrix_cpu_s / job_wall_s;
    let per_job = |f: fn(&SimReport) -> u64| {
        median(
            &ok.iter()
                .map(|r| f(&r.report) as f64 / (r.wall_seconds * cpu_per_wall))
                .collect::<Vec<_>>(),
        )
    };
    let mut round = Round {
        traced,
        jobs: jobs.len() as u64,
        cycles_per_s: per_job(|r| r.cycles),
        warp_ops_per_s: per_job(|r| r.warp_ops),
        cpu_s,
        setup_s,
        wall_s,
        total_s: 0.0,
        failed: (results.len() - ok.len()) as u64,
        digest: digest(results.iter().map(|r| (r.label.as_str(), &r.report))),
    };

    for (job, r) in jobs.iter().zip(&results) {
        if r.outcome != JobOutcome::Ok {
            continue;
        }
        let cfg = prepare(&job.cfg, h.scale, job_seed(job));
        ctx.checks
            .extend(checks::report_properties(&job.label, &cfg, &r.report));
    }
    matrix_properties(ctx, &jobs, &results);
    if index == 0 || traced {
        rerun_per_config(ctx, &h, &jobs, &results, traced);
    }
    if traced {
        let busy: f64 = results.iter().map(|r| r.wall_seconds).sum();
        let l = &mut ctx.layers;
        l.runner_job_s
            .extend(results.iter().map(|r| r.wall_seconds));
        l.pool_busy_share.push(busy / (WORKERS as f64 * matrix_s));
        l.warm_reuse_share.push(warm_reuse_share(&jobs, h.scale));
    }
    round.total_s = t0.elapsed().as_secs_f64();
    round
}

/// Job spans from the runner's own start offsets and durations, packed
/// onto as many lanes as ran at once.
pub fn add_job_spans(tr: &mut Tracer, matrix_start: Instant, results: &[JobResult]) {
    let mut order: Vec<&JobResult> = results.iter().collect();
    order.sort_by(|a, b| a.start_offset_secs.total_cmp(&b.start_offset_secs));
    let mut lane_free: Vec<f64> = Vec::new();
    for r in order {
        let lane = match lane_free
            .iter()
            .position(|&free| free <= r.start_offset_secs + 1e-4)
        {
            Some(l) => l,
            None => {
                lane_free.push(0.0);
                lane_free.len() - 1
            }
        };
        lane_free[lane] = r.start_offset_secs + r.wall_seconds;
        tr.add(
            "job",
            "runner",
            matrix_start + Duration::from_secs_f64(r.start_offset_secs),
            Duration::from_secs_f64(r.wall_seconds),
            lane + 1,
        );
    }
}

/// The runner's per-job set-up: the same jobs through `run_matrix` with
/// a fresh `RunnerCtx` and a one-cycle window, so each job builds its
/// workload and warms a simulator or restores the warm-state cache's
/// checkpoint, then steps once and reports. Returns the host CPU
/// seconds of that pass, both workers' together.
fn setup_pass(ctx: &mut Ctx, h: &Harness, jobs: &[Job]) -> f64 {
    let h = Harness { cycles: 1, ..*h };
    let s = ctx.tracer.begin("setup_matrix", "runner");
    let t = Instant::now();
    let cpu = CpuTimer::process();
    let results = run_matrix_ctx_with(&RunnerCtx::new(), &h, jobs, WORKERS);
    let cpu_s = cpu.elapsed();
    add_job_spans(&mut ctx.tracer, t, &results);
    ctx.tracer.end(s);
    for r in results.iter().filter(|r| r.outcome != JobOutcome::Ok) {
        ctx.checks.expect(false, || {
            format!("{} set-up: ended {:?}: {:?}", r.label, r.outcome, r.error)
        });
    }
    cpu_s
}

/// Fig 7 / Fig 10 properties, and identical reports for identical jobs.
fn matrix_properties(ctx: &mut Ctx, jobs: &[Job], results: &[JobResult]) {
    let sweep = sweep_benchmarks();
    let n = sweep.len();
    for (i, &b) in sweep.iter().enumerate() {
        if b.spec().sharing == SharingClass::Low {
            // Fig 7 rows: UBA-mem, UBA-sm, NUBA-No-Rep, NUBA.
            let row = &results[4 * i..4 * i + 4];
            ctx.checks.extend(checks::low_sharing_property(
                &b.to_string(),
                &row[2].report,
                &row[0].report,
            ));
        }
    }
    let f10 = &results[5 * n..];
    for (k, arch) in [ArchKind::MemSideUba, ArchKind::SmSideUba, ArchKind::Nuba]
        .into_iter()
        .enumerate()
    {
        for (i, &b) in sweep.iter().enumerate() {
            let series: Vec<NocPoint> = NOC_TBS
                .iter()
                .enumerate()
                .map(|(j, &tbs)| NocPoint {
                    arch,
                    tbs,
                    report: &f10[(k * NOC_TBS.len() + j) * n + i].report,
                })
                .collect();
            ctx.checks
                .extend(checks::noc_series_properties(&b.to_string(), &series));
        }
    }
    let mut first: HashMap<(BenchmarkId, u64), &JobResult> = HashMap::new();
    for (job, r) in jobs.iter().zip(results) {
        let other = *first.entry((job.bench, job.cfg.state_hash())).or_insert(r);
        ctx.checks.expect(other.report == r.report, || {
            format!(
                "{} and {}: same job, different reports",
                other.label, r.label
            )
        });
    }
}

/// One job per distinct configuration, re-run alone both through
/// `Harness::try_run` and through a chunked session the benchmark
/// drives, must equal the runner's report; the session also gets the
/// request-balance and invariant checks.
fn rerun_per_config(ctx: &mut Ctx, h: &Harness, jobs: &[Job], results: &[JobResult], traced: bool) {
    let sweep = sweep_benchmarks();
    let mut seen = std::collections::HashSet::new();
    let mut picks = Vec::new();
    for job in jobs {
        if seen.insert(job.cfg.state_hash()) {
            let bench = sweep[picks.len() % sweep.len()];
            let idx = jobs
                .iter()
                .position(|j| j.bench == bench && j.cfg.state_hash() == job.cfg.state_hash())
                .expect("every configuration runs every sweep benchmark");
            picks.push(idx);
        }
    }
    let mut cycles = 0;
    let mut warp_ops = 0;
    let mut window_s = 0.0;
    let mut stepped = 0;
    let mut last = Vec::new();
    for idx in picks {
        let job = &jobs[idx];
        let runner = &results[idx].report;
        let alone = Harness {
            seed: job_seed(job),
            ..*h
        };
        match alone.try_run(job.bench, job.cfg.clone()) {
            Ok(r) => ctx.checks.expect(&r == runner, || {
                format!("{}: Harness::try_run differs from the runner", job.label)
            }),
            Err(e) => ctx
                .checks
                .expect(false, || format!("{} try_run: {e}", job.label)),
        }
        let sj = SessionJob {
            label: job.label.clone(),
            bench: job.bench,
            cfg: job.cfg.clone(),
            scale: h.scale,
            seed: job_seed(job),
            cycles: h.cycles,
            chunk: MATRIX_CHUNK,
        };
        let s = ctx.tracer.begin("rerun", "bench");
        let out = run_session(&sj, &mut ctx.tracer);
        ctx.tracer.end(s);
        match out {
            Ok(o) => {
                ctx.checks.expect(&o.report == runner, || {
                    format!("{}: chunked re-run differs from the runner", job.label)
                });
                ctx.checks
                    .extend(checks::simulator_properties(&job.label, o.session.gpu()));
                cycles += o.report.cycles;
                warp_ops += o.report.warp_ops;
                window_s += o.window_s;
                stepped += o.session.gpu().detail_steps();
                if traced {
                    checkpoint_probe(ctx, &o.session);
                }
                last.push((sj, o.report));
            }
            Err(e) => ctx
                .checks
                .expect(false, || format!("{} re-run: {e}", job.label)),
        }
    }
    if traced {
        let l = &mut ctx.layers;
        l.run_s += window_s;
        l.run_cycles += cycles;
        l.run_warp_ops += warp_ops;
        l.stepped.push(stepped as f64);
        l.skipped_share
            .push(1.0 - stepped as f64 / cycles.max(1) as f64);
    }
    ctx.last_reports = last;
}

/// Traced runs of `dense_*` and `latency_sweep` also push their jobs
/// through the runner once: its per-job times and pool use, and a
/// cross-check that it reproduces the benchmark's own reports.
pub fn runner_replay(ctx: &mut Ctx) {
    let Some((first, _)) = ctx.last_reports.first() else {
        return;
    };
    let h = Harness {
        cycles: first.cycles,
        scale: first.scale,
        seed: ctx.seed,
        fidelity: Fidelity::Full,
    };
    let jobs: Vec<Job> = ctx
        .last_reports
        .iter()
        .map(|(j, _)| Job::new(j.label.clone(), j.bench, j.cfg.clone()).with_seed(j.seed))
        .collect();
    let s = ctx.tracer.begin("run_matrix", "runner");
    let t = Instant::now();
    let results = run_matrix_ctx_with(&RunnerCtx::new(), &h, &jobs, WORKERS);
    let matrix_s = t.elapsed().as_secs_f64();
    add_job_spans(&mut ctx.tracer, t, &results);
    ctx.tracer.end(s);
    for ((job, own), r) in ctx.last_reports.iter().zip(&results) {
        ctx.checks
            .expect(r.outcome == JobOutcome::Ok && &r.report == own, || {
                format!("{}: runner report differs from the session's", job.label)
            });
    }
    let busy: f64 = results.iter().map(|r| r.wall_seconds).sum();
    let l = &mut ctx.layers;
    l.runner_job_s
        .extend(results.iter().map(|r| r.wall_seconds));
    l.pool_busy_share.push(busy / (WORKERS as f64 * matrix_s));
    l.warm_reuse_share.push(warm_reuse_share(&jobs, h.scale));
}
