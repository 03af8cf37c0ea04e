//! # perfbench
//!
//! A wall-clock benchmark of the Privateer reproduction. For one workload
//! it builds the programs, compiles them with the full pipeline (profile
//! → classify → select → transform), runs the original module
//! sequentially and the privatized module under the speculative engine at
//! `nproc` workers and at one worker, and checks every output against the
//! workload's plain-Rust oracle. Timings are medians over a closed loop
//! that runs back to back for a fixed number of seconds.
//!
//! Every layer is measured from outside: the benchmark times its own
//! calls into each layer's public functions and reads the counters the
//! layers already expose. With tracing on, one extra run records the
//! benchmark's spans around those calls and collects the engine's own
//! phase totals. `README.md` in this directory lists every metric.

pub mod spans;
pub mod workload;

use privateer::pipeline::{privatize, PipelineConfig, Privatized};
use privateer_ir::Module;
use privateer_runtime::{EngineConfig, EngineEvent, EngineStats, MainRuntime};
use privateer_telemetry::Telemetry;
use privateer_vm::{load_module, BasicRuntime, Interp, NopHooks, ProgramImage, Trap};
use spans::{Span, SpanLog};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::path::PathBuf;
use std::time::Instant;
pub use workload::{Scale, Spec, WorkloadId};

/// Checkpoint period of every parallel run, as in the figure binaries.
pub const CHECKPOINT_PERIOD: u64 = 16;
/// Seed of the engine's misspeculation injector.
pub const INJECT_SEED: u64 = 0xf19;
/// Set-up is repeated at least this many times and for at least
/// `SETUP_SECONDS`; `setup_s` is the median.
pub const SETUP_REPS: usize = 15;
/// See [`SETUP_REPS`].
pub const SETUP_SECONDS: f64 = 1.0;
/// Events each engine thread's trace ring holds in the traced run: enough
/// that no workload drops any (dijkstra records about 1.2 M).
pub const TRACE_RING_CAPACITY: usize = 1 << 22;
/// The timed loop runs each step at least this many times.
pub const MIN_ROUNDS: usize = 3;
/// The share of the timed loop that compiles may take.
pub const COMPILE_SHARE: f64 = 0.5;

/// What one benchmark run does.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: WorkloadId,
    /// Input scale.
    pub scale: Scale,
    /// Input seed; `None` keeps the figure binaries' inputs.
    pub seed: Option<u64>,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Also make the traced run and report the per-layer metrics.
    pub trace: bool,
    /// Where the traced run's span file goes.
    pub out_dir: PathBuf,
    /// Corrupt the expected output, so every run must count as failed
    /// (the self-test's check that the correctness gate works).
    pub corrupt_reference: bool,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// The measurements `value` is the median of; empty for an exact
    /// count or a value derived from other metrics.
    pub samples: Vec<f64>,
}

impl Metric {
    /// The median of `samples`.
    pub fn sampled(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name,
            value: median(&samples),
            unit,
            samples,
        }
    }

    /// An exact count or a derived value.
    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples: Vec::new(),
        }
    }
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Program executions whose output was checked.
    pub attempted: u64,
    /// Executions whose output bytes or trap differed from the reference.
    pub failed: u64,
    /// Counts that should have repeated exactly and did not.
    pub nondeterministic: Vec<String>,
    /// The end-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Host, build and configuration facts recorded with the results.
    pub meta: Vec<(&'static str, String)>,
    /// Where the spans were written.
    pub span_file: Option<PathBuf>,
}

impl Outcome {
    /// No mismatching output and no count that failed to repeat.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.nondeterministic.is_empty()
    }

    /// Failed executions over attempted ones.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Median of `v` (mean of the middle two for an even count).
fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The host's usable cores.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Static instruction count of a module: instructions placed in blocks.
fn static_insts(m: &Module) -> u64 {
    m.functions
        .iter()
        .map(|f| f.blocks.iter().map(|b| b.insts.len() as u64).sum::<u64>())
        .sum()
}

/// One program of the workload, set up and compiled.
struct Prog {
    name: &'static str,
    module: Module,
    reference: Vec<u8>,
    image: ProgramImage,
    inject_rate: f64,
    compiled: Option<(Module, ProgramImage)>,
}

/// The exact compile-time counts of one compile sample.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct CompileCounts {
    insts_in: u64,
    insts_out: u64,
    selected: u64,
    rejected: u64,
    checks: u64,
    elided: u64,
}

impl CompileCounts {
    fn of(input: &Module, p: &Privatized) -> CompileCounts {
        let mut c = CompileCounts {
            insts_in: static_insts(input),
            insts_out: static_insts(&p.module),
            selected: p.reports.len() as u64,
            rejected: p.rejected.len() as u64,
            ..CompileCounts::default()
        };
        for r in &p.reports {
            let k = r.checks;
            c.checks += (k.privacy_reads + k.privacy_writes + k.separation) as u64;
            c.elided += k.elided as u64;
        }
        c
    }

    fn add(&mut self, o: &CompileCounts) {
        self.insts_in += o.insts_in;
        self.insts_out += o.insts_out;
        self.selected += o.selected;
        self.rejected += o.rejected;
        self.checks += o.checks;
        self.elided += o.elided;
    }
}

/// One parallel-run sample, summed over the workload's programs.
#[derive(Debug, Clone, Copy, Default)]
struct ParSample {
    wall: f64,
    stats: EngineStats,
    main_insts: u64,
    committed_iters: u64,
}

impl ParSample {
    fn add(&mut self, o: &ParSample) {
        self.wall += o.wall;
        self.main_insts += o.main_insts;
        self.committed_iters += o.committed_iters;
        let (a, b) = (&mut self.stats, &o.stats);
        a.invocations += b.invocations;
        a.checkpoints += b.checkpoints;
        a.misspecs += b.misspecs;
        a.recovered_iters += b.recovered_iters;
        a.iters_speculative += b.iters_speculative;
        a.capacity_ns += b.capacity_ns;
        a.body_ns += b.body_ns;
        a.priv_read_ns += b.priv_read_ns;
        a.priv_write_ns += b.priv_write_ns;
        a.checkpoint_ns += b.checkpoint_ns;
        a.recovery_ns += b.recovery_ns;
        a.priv_fast_words += b.priv_fast_words;
        a.priv_slow_bytes += b.priv_slow_bytes;
        a.contrib_pages += b.contrib_pages;
        a.squashed_pages_dropped += b.squashed_pages_dropped;
        a.sim.total += b.sim.total;
    }

    /// The counts that must repeat exactly from run to run. Under
    /// injected misspeculation only the committed schedule (checkpoints,
    /// recovered iterations) repeats: how much squashed speculative work
    /// ran before a misspeculation was seen, and so the pages it shipped,
    /// the words it checked and its simulated cycles, depends on timing.
    fn exact(&self, injected: bool) -> [u64; 5] {
        let s = &self.stats;
        let squash_dependent = if injected {
            [0; 3]
        } else {
            [
                s.contrib_pages,
                s.priv_fast_words,
                self.main_insts + s.sim.total,
            ]
        };
        let [a, b, c] = squash_dependent;
        [s.checkpoints, s.recovered_iters, a, b, c]
    }
}

/// Remembers the first value of a count and reports any later value that
/// differs.
struct Exact<T> {
    what: &'static str,
    first: Option<T>,
}

impl<T: PartialEq + Debug + Copy> Exact<T> {
    fn new(what: &'static str) -> Exact<T> {
        Exact { what, first: None }
    }

    fn observe(&mut self, v: T, errs: &mut Vec<String>) {
        match self.first {
            None => self.first = Some(v),
            Some(f) if f != v => errs.push(format!("{}: {f:?} then {v:?}", self.what)),
            Some(_) => {}
        }
    }

    fn get(&self) -> T {
        self.first.expect("at least one sample")
    }
}

/// Counts checked executions and the ones whose output or trap differed.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
}

impl Gate {
    fn check(&mut self, what: &str, prog: &Prog, result: Result<(), Trap>, out: &[u8]) {
        self.attempted += 1;
        let want = &prog.reference;
        let mismatch = match result {
            Err(t) => Some(format!("trapped: {t}")),
            Ok(()) if out != want => Some(format!(
                "output differs ({} bytes, expected {})",
                out.len(),
                want.len()
            )),
            Ok(()) => None,
        };
        if let Some(why) = mismatch {
            self.failed += 1;
            eprintln!("perfbench: {what} run of {}: {why}", prog.name);
        }
    }
}

/// The timed loop's per-round tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Task {
    Compile,
    Profile,
    Seq,
    Par,
    Par1,
}

/// All measurements of one run.
#[derive(Default)]
struct Samples {
    setup: Vec<f64>,
    load: Vec<f64>,
    compile: Vec<f64>,
    profile: Vec<f64>,
    profile_insts: u64,
    seq: Vec<f64>,
    seq_counts: Option<(u64, u64)>,
    par: Vec<ParSample>,
    par1: Vec<ParSample>,
}

struct Runner {
    progs: Vec<Prog>,
    workers: usize,
    injected: bool,
    gate: Gate,
    errs: Vec<String>,
    compile_exact: Exact<CompileCounts>,
    seq_exact: Exact<(u64, u64)>,
    par_exact: Exact<[u64; 5]>,
    par1_exact: Exact<[u64; 5]>,
    samples: Samples,
}

impl Runner {
    fn compile(&mut self) -> Result<(), String> {
        let mut wall = 0.0;
        let mut counts = CompileCounts::default();
        for prog in &mut self.progs {
            let t0 = Instant::now();
            let p = privatize(&prog.module, &PipelineConfig::default())
                .map_err(|e| format!("privatizing {}: {e}", prog.name))?;
            wall += t0.elapsed().as_secs_f64();
            counts.add(&CompileCounts::of(&prog.module, &p));
            if prog.compiled.is_none() {
                let image = load_module(&p.module);
                prog.compiled = Some((p.module, image));
            }
        }
        self.compile_exact.observe(counts, &mut self.errs);
        self.samples.compile.push(wall);
        Ok(())
    }

    fn profile(&mut self) -> Result<(), String> {
        let mut wall = 0.0;
        let mut insts = 0;
        for prog in &self.progs {
            let t0 = Instant::now();
            let (profile, _) = privateer_profile::profile_module(&prog.module, &prog.image)
                .map_err(|t| format!("profiling {}: {t}", prog.name))?;
            wall += t0.elapsed().as_secs_f64();
            insts += profile.total_insts;
        }
        self.samples.profile.push(wall);
        self.samples.profile_insts = insts;
        Ok(())
    }

    fn seq_one(prog: &Prog, gate: &mut Gate) -> (f64, u64, u64) {
        let mut interp = Interp::new(&prog.module, &prog.image, NopHooks, BasicRuntime::strict());
        let t0 = Instant::now();
        let r = interp.run_main();
        let wall = t0.elapsed().as_secs_f64();
        let out = interp.rt.take_output();
        gate.check("sequential", prog, r, &out);
        let s = interp.stats;
        (wall, s.insts, s.loads + s.stores)
    }

    fn seq(&mut self) {
        let (mut wall, mut insts, mut mem_ops) = (0.0, 0, 0);
        for prog in &self.progs {
            let (w, i, m) = Runner::seq_one(prog, &mut self.gate);
            wall += w;
            insts += i;
            mem_ops += m;
        }
        self.seq_exact.observe((insts, mem_ops), &mut self.errs);
        self.samples.seq.push(wall);
        self.samples.seq_counts = Some((insts, mem_ops));
    }

    fn par_one(prog: &Prog, workers: usize, tel: Telemetry, gate: &mut Gate) -> ParSample {
        let (module, image) = prog.compiled.as_ref().expect("compiled during warm-up");
        let cfg = EngineConfig {
            workers,
            merge_lanes: workers,
            checkpoint_period: CHECKPOINT_PERIOD,
            inject_rate: prog.inject_rate,
            inject_seed: INJECT_SEED,
            ..EngineConfig::default()
        };
        let rt = MainRuntime::with_telemetry(image, cfg, tel);
        let mut interp = Interp::new(module, image, NopHooks, rt);
        let t0 = Instant::now();
        let r = interp.run_main();
        let wall = t0.elapsed().as_secs_f64();
        let out = interp.rt.take_output();
        let what = if workers == 1 { "1-worker" } else { "parallel" };
        gate.check(what, prog, r, &out);
        let committed_iters = interp
            .rt
            .events
            .iter()
            .map(|e| match e.event {
                EngineEvent::CheckpointCommitted { base, end, .. } => (end - base) as u64,
                _ => 0,
            })
            .sum();
        ParSample {
            wall,
            stats: interp.rt.stats,
            main_insts: interp.stats.insts,
            committed_iters,
        }
    }

    fn par(&mut self, workers: usize) {
        let mut sample = ParSample::default();
        for prog in &self.progs {
            let s = Runner::par_one(prog, workers, Telemetry::disabled(), &mut self.gate);
            sample.add(&s);
        }
        if workers == 1 {
            self.par1_exact
                .observe(sample.exact(self.injected), &mut self.errs);
            self.samples.par1.push(sample);
        } else {
            self.par_exact
                .observe(sample.exact(self.injected), &mut self.errs);
            self.samples.par.push(sample);
        }
    }

    fn task(&mut self, t: Task) -> Result<(), String> {
        match t {
            Task::Compile => self.compile()?,
            Task::Profile => self.profile()?,
            Task::Seq => self.seq(),
            Task::Par => self.par(self.workers),
            Task::Par1 => self.par(1),
        }
        Ok(())
    }

    /// The closed loop, back to back until the next step would overrun
    /// `seconds`. A step is either one compile (plus a `profile_module`
    /// call when tracing) or one round of the three executions, whose
    /// order rotates each round. A compile runs whenever compiles have had
    /// less than `COMPILE_SHARE` of the loop's time, so a workload with a
    /// long compile still gets many execution samples. Each step runs at
    /// least `MIN_ROUNDS` times. Returns the number of execution rounds.
    fn timed_loop(&mut self, seconds: f64, trace: bool) -> Result<usize, String> {
        let execs = [Task::Seq, Task::Par, Task::Par1];
        let start = Instant::now();
        let (mut compiles, mut rounds) = (0, 0);
        let (mut compile_total, mut last_compile, mut last_round) = (0.0, 0.0, 0.0);
        loop {
            let elapsed = start.elapsed().as_secs_f64();
            let compile_next = compile_total < COMPILE_SHARE * elapsed
                || (compiles < MIN_ROUNDS && rounds >= MIN_ROUNDS);
            let next = if compile_next {
                last_compile
            } else {
                last_round
            };
            if compiles >= MIN_ROUNDS && rounds >= MIN_ROUNDS && elapsed + next > seconds {
                return Ok(rounds);
            }
            let t0 = Instant::now();
            if compile_next {
                self.task(Task::Compile)?;
                if trace {
                    self.task(Task::Profile)?;
                }
                last_compile = t0.elapsed().as_secs_f64();
                compile_total += last_compile;
                compiles += 1;
            } else {
                for k in 0..execs.len() {
                    self.task(execs[(k + rounds) % execs.len()])?;
                }
                last_round = t0.elapsed().as_secs_f64();
                rounds += 1;
            }
        }
    }
}

/// Peak resident set size of this process, from `/proc/self/status`.
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

/// CPU time the hypervisor gave to other guests (all CPUs, seconds since
/// boot), from `/proc/stat`; `None` where the kernel does not report it.
fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    let ticks: u64 = cpu.split_whitespace().nth(7)?.parse().ok()?;
    // USER_HZ is 100 on every Linux architecture the benchmark runs on.
    Some(ticks as f64 / 100.0)
}

/// The commit the benchmark runs on, when the working directory is the
/// top of a git work tree (git may not search the directories above it).
fn git_rev() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

/// Set the workload up repeatedly (see [`SETUP_REPS`]): build every
/// module, compute its reference output and load it. Returns the programs
/// of the last set-up.
fn set_up(opts: &Options, samples: &mut Samples) -> Vec<Prog> {
    let specs = opts.workload.programs(opts.scale, opts.seed);
    let mut progs = Vec::new();
    let start = Instant::now();
    while samples.setup.len() < SETUP_REPS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        progs.clear();
        let (mut load, t0) = (0.0, Instant::now());
        for spec in &specs {
            let module = spec.build();
            let reference = spec.reference();
            let tl = Instant::now();
            let image = load_module(&module);
            load += tl.elapsed().as_secs_f64();
            progs.push(Prog {
                name: spec.name(),
                module,
                reference,
                image,
                inject_rate: opts.workload.inject_rate(),
                compiled: None,
            });
        }
        samples.setup.push(t0.elapsed().as_secs_f64());
        samples.load.push(load);
    }
    if opts.corrupt_reference {
        for p in &mut progs {
            match p.reference.first_mut() {
                Some(b) => *b ^= 0x01,
                None => p.reference.push(b'!'),
            }
        }
    }
    progs
}

/// What the traced run measured.
struct Traced {
    spans: Vec<Span>,
    phase_self_ns: BTreeMap<&'static str, u64>,
    events: u64,
    dropped: u64,
    par_wall: f64,
}

/// One run with tracing on: the benchmark's spans around each layer call,
/// plus the engine's own phase telemetry for the parallel run.
fn traced_run(opts: &Options, r: &mut Runner, run_id: u64) -> Result<Traced, String> {
    let mut log = SpanLog::new(run_id);
    let mut t = Traced {
        spans: Vec::new(),
        phase_self_ns: BTreeMap::new(),
        events: 0,
        dropped: 0,
        par_wall: 0.0,
    };
    let (mut compiled, mut seq, mut par) = (CompileCounts::default(), (0, 0), ParSample::default());
    log.enter(format!("perfbench::traced_run/{}", opts.workload.name()));
    for (i, spec) in opts
        .workload
        .programs(opts.scale, opts.seed)
        .iter()
        .enumerate()
    {
        log.enter(format!("program/{}", spec.name()));
        let module = log.time("workloads::build", || spec.build());
        let mut reference = log.time("workloads::reference_output", || spec.reference());
        if opts.corrupt_reference {
            reference = r.progs[i].reference.clone();
        }
        let image = log.time("vm::load_module", || load_module(&module));
        let profiled = log.time("profile::profile_module", || {
            privateer_profile::profile_module(&module, &image)
        });
        profiled.map_err(|e| format!("profiling {}: {e}", spec.name()))?;
        let p = log
            .time("core::pipeline::privatize", || {
                privatize(&module, &PipelineConfig::default())
            })
            .map_err(|e| format!("privatizing {}: {e}", spec.name()))?;
        compiled.add(&CompileCounts::of(&module, &p));
        let pimage = log.time("vm::load_module", || load_module(&p.module));
        let prog = Prog {
            name: spec.name(),
            module,
            reference,
            image,
            inject_rate: opts.workload.inject_rate(),
            compiled: Some((p.module, pimage)),
        };
        log.enter("vm::Interp::run_main/sequential");
        let (_, insts, mem_ops) = Runner::seq_one(&prog, &mut r.gate);
        log.exit();
        seq = (seq.0 + insts, seq.1 + mem_ops);
        let tel = Telemetry::with_capacity(TRACE_RING_CAPACITY);
        log.enter("vm::Interp::run_main/parallel");
        let s = Runner::par_one(&prog, r.workers, tel.clone(), &mut r.gate);
        log.exit();
        par.add(&s);
        let trace = tel.trace();
        t.events += trace.events.len() as u64;
        t.dropped += trace.dropped;
        for (phase, ns) in spans::phase_self_ns(&trace.events) {
            *t.phase_self_ns.entry(phase).or_default() += ns;
        }
        log.exit();
    }
    log.exit();
    // The traced run must do exactly the work the untraced ones did.
    r.compile_exact.observe(compiled, &mut r.errs);
    r.seq_exact.observe(seq, &mut r.errs);
    r.par_exact.observe(par.exact(r.injected), &mut r.errs);
    t.par_wall = par.wall;
    t.spans = log.finish();
    Ok(t)
}

/// Run the benchmark.
///
/// # Errors
///
/// A layer failed outright (the pipeline rejected a workload, profiling
/// trapped) or the span file could not be written. Output mismatches and
/// counts that do not repeat are reported in the [`Outcome`] instead.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let workers = nproc();
    let steal0 = steal_s();
    let mut samples = Samples::default();
    let progs = set_up(opts, &mut samples);
    let mut r = Runner {
        progs,
        workers,
        injected: opts.workload.inject_rate() > 0.0,
        gate: Gate::default(),
        errs: Vec::new(),
        compile_exact: Exact::new("compile counts"),
        seq_exact: Exact::new("sequential instructions and memory operations"),
        par_exact: Exact::new("parallel-run counts"),
        par1_exact: Exact::new("1-worker-run counts"),
        samples,
    };

    // One untimed warm-up round; it also compiles the modules the
    // parallel runs execute.
    for t in [Task::Compile, Task::Seq, Task::Par, Task::Par1] {
        r.task(t)?;
    }
    r.samples = Samples {
        setup: std::mem::take(&mut r.samples.setup),
        load: std::mem::take(&mut r.samples.load),
        ..Samples::default()
    };
    let rounds = r.timed_loop(opts.seconds, opts.trace)?;

    let s = &r.samples;
    let walls = |v: &[ParSample]| v.iter().map(|p| p.wall).collect();
    let e2e = vec![
        Metric::sampled("setup_s", "s", s.setup.clone()),
        Metric::sampled("compile_s", "s", s.compile.clone()),
        Metric::sampled("seq_s", "s", s.seq.clone()),
        Metric::sampled("par_s", "s", walls(&s.par)),
        Metric::sampled("par1_s", "s", walls(&s.par1)),
    ];
    let (compile_s, seq_s, par_s) = (e2e[1].value, e2e[2].value, e2e[3].value);
    let speedup = seq_s / par_s;
    let mut out = Outcome {
        end_to_end: e2e,
        ..Outcome::default()
    };
    out.end_to_end.push(Metric::exact("speedup", "x", speedup));

    let seed_text = opts.seed.map_or("default".to_string(), |s| s.to_string());
    let inputs: Vec<String> = opts
        .workload
        .programs(opts.scale, opts.seed)
        .iter()
        .map(|p| format!("{p:?}"))
        .collect();
    out.meta = vec![
        ("workload", opts.workload.name().to_string()),
        ("scale", format!("{:?}", opts.scale).to_lowercase()),
        ("seed", seed_text.clone()),
        ("inputs", inputs.join("; ")),
        ("nproc", workers.to_string()),
        ("workers", workers.to_string()),
        ("merge_lanes", workers.to_string()),
        ("checkpoint_period", CHECKPOINT_PERIOD.to_string()),
        ("inject_rate", opts.workload.inject_rate().to_string()),
        ("inject_seed", format!("{INJECT_SEED:#x}")),
        ("rounds", rounds.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("git_rev", git_rev()),
        ("rustc", env!("PERFBENCH_RUSTC_VERSION").to_string()),
    ];
    if let (Some(a), Some(b)) = (steal0, steal_s()) {
        out.meta.push(("host_steal_s", format!("{:.2}", b - a)));
    }

    if opts.trace {
        let run_id = opts.seed.unwrap_or(0);
        let traced = traced_run(opts, &mut r, run_id)?;
        out.per_layer = per_layer(&r, &traced, seq_s, par_s, speedup, compile_s);
        std::fs::create_dir_all(&opts.out_dir)
            .map_err(|e| format!("creating {}: {e}", opts.out_dir.display()))?;
        let path = opts.out_dir.join(format!(
            "spans-{}-{}.jsonl",
            opts.workload.name(),
            seed_text
        ));
        spans::check_tree(&traced.spans)?;
        std::fs::write(&path, spans::to_json_lines(&traced.spans))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        out.span_file = Some(path);
    }

    // Measured last, so it covers every run above.
    out.end_to_end
        .push(Metric::exact("peak_rss_mb", "MB", peak_rss_mb()?));
    out.attempted = r.gate.attempted;
    out.failed = r.gate.failed;
    out.nondeterministic = r.errs;
    if opts.trace {
        let ratio = out.fail_ratio();
        out.per_layer
            .push(Metric::exact("fail_ratio", "ratio", ratio));
    }
    Ok(out)
}

/// The per-layer metrics (see `README.md` for what each should move).
fn per_layer(
    r: &Runner,
    t: &Traced,
    seq_s: f64,
    par_s: f64,
    speedup: f64,
    compile_s: f64,
) -> Vec<Metric> {
    let s = &r.samples;
    let cc = r.compile_exact.get();
    let (vm_insts, vm_mem_ops) = s.seq_counts.expect("sequential samples");
    let secs = |ns: u64| ns as f64 / 1e9;
    let exact = |name, unit, v: u64| Metric::exact(name, unit, v as f64);
    let derived = Metric::exact;
    let par = |name, unit, f: &dyn Fn(&ParSample) -> f64| {
        Metric::sampled(name, unit, s.par.iter().map(f).collect())
    };
    let count = |name, f: &dyn Fn(&EngineStats) -> u64| par(name, "count", &|p| f(&p.stats) as f64);
    let busy = |name, f: &dyn Fn(&EngineStats) -> u64| par(name, "s", &|p| secs(f(&p.stats)));
    let profile_s = median(&s.profile);
    let misspecs = s.par.iter().map(|p| p.stats.misspecs);
    let misspec_spread = misspecs.clone().max().unwrap_or(0) - misspecs.min().unwrap_or(0);
    let body = busy("runtime.body_s", &|st| st.body_ns);
    let body1 = median(
        &s.par1
            .iter()
            .map(|p| secs(p.stats.body_ns))
            .collect::<Vec<_>>(),
    );
    let model = par("model.speedup", "x", &|p| {
        vm_insts as f64 / (p.main_insts + p.stats.sim.total).max(1) as f64
    });
    let phase = |n: &str| secs(t.phase_self_ns.get(n).copied().unwrap_or(0));

    vec![
        exact("ir.insts_in", "count", cc.insts_in),
        exact("ir.insts_out", "count", cc.insts_out),
        Metric::sampled("profile.s", "s", s.profile.clone()),
        derived(
            "profile.ns_per_inst",
            "ns",
            profile_s * 1e9 / s.profile_insts.max(1) as f64,
        ),
        derived("core.passes_s", "s", compile_s - profile_s),
        exact("core.loops_selected", "count", cc.selected),
        exact("core.loops_rejected", "count", cc.rejected),
        exact("core.checks", "count", cc.checks),
        exact("core.checks_elided", "count", cc.elided),
        Metric::sampled("vm.load_s", "s", s.load.clone()),
        exact("vm.insts", "count", vm_insts),
        exact("vm.mem_ops", "count", vm_mem_ops),
        derived("vm.ns_per_inst", "ns", seq_s * 1e9 / vm_insts.max(1) as f64),
        count("runtime.invocations", &|st| st.invocations),
        count("runtime.checkpoints", &|st| st.checkpoints),
        count("runtime.iters_spec", &|st| st.iters_speculative),
        count("runtime.misspecs", &|st| st.misspecs),
        exact("runtime.misspecs_spread", "count", misspec_spread),
        count("runtime.recovered_iters", &|st| st.recovered_iters),
        count("runtime.priv_fast_words", &|st| st.priv_fast_words),
        count("runtime.priv_slow_bytes", &|st| st.priv_slow_bytes),
        count("runtime.contrib_pages", &|st| st.contrib_pages),
        count("runtime.squashed_pages", &|st| st.squashed_pages_dropped),
        derived("runtime.iter_inflation", "ratio", body.value / body1),
        body,
        busy("runtime.priv_read_s", &|st| st.priv_read_ns),
        busy("runtime.priv_write_s", &|st| st.priv_write_ns),
        busy("runtime.checkpoint_s", &|st| st.checkpoint_ns),
        busy("runtime.recovery_s", &|st| st.recovery_ns),
        busy("runtime.capacity_s", &|st| st.capacity_ns),
        par("runtime.useful_share", "ratio", &|p| p.stats.breakdown().0),
        par("runtime.spawn_join_share", "ratio", &|p| {
            p.stats.breakdown().5
        }),
        par("runtime.spec_yield", "ratio", &|p| {
            p.committed_iters as f64 / p.stats.iters_speculative.max(1) as f64
        }),
        derived("trace.parallel_s", "s", phase("parallel")),
        derived("trace.iteration_s", "s", phase("iteration")),
        derived("trace.priv_read_s", "s", phase("priv_read")),
        derived("trace.priv_write_s", "s", phase("priv_write")),
        derived("trace.package_s", "s", phase("package")),
        derived("trace.normalize_s", "s", phase("normalize")),
        derived("trace.merge_s", "s", phase("merge")),
        derived("trace.merge_lane_s", "s", phase("merge_lane")),
        derived("trace.commit_s", "s", phase("commit")),
        derived("trace.recovery_s", "s", phase("recovery")),
        exact("trace.events", "count", t.events),
        exact("trace.dropped", "count", t.dropped),
        derived("telemetry.overhead", "ratio", t.par_wall / par_s),
        derived("model.gap", "ratio", model.value / speedup),
        model,
    ]
}
