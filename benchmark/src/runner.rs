//! Runs an in-process [`Plan`]: repeated fixed-size reps for the timings,
//! one oracle-checked pass for correctness, and — in the traced run —
//! per-call timing, tracing-on/off reps and layer replay.

use std::collections::VecDeque;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::engine::Engine;
use crate::host;
use crate::outcome::Outcome;
use crate::plan::{Durable, Plan, ADAPTIVE, FIXED_DW, FIXED_GR, GRID_BLOCKS, GRID_TASKS};
use crate::replay::{self, LayerTotals, Recording};
use crate::spans::Spans;
use crate::stats::{
    fast_decile, fnv1a, median, percentile_or_highest, ratio, LogHistogram, FNV_OFFSET,
};
use crate::surface::{
    decode_system, encode_system_into, recover_journal, BlockAddr, DestSet, Journal, Omega, Op,
    ProtocolCostModel, ProtocolEvent, Reference, ReferenceMemory, SharedBlockWorkload, System,
    SystemConfig, TraceWriter,
};

/// How one run is to be carried out.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workload seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) or the untraced
    /// one (end-to-end metrics).
    pub traced: bool,
    /// Shrink every workload tenfold (CI smoke).
    pub smoke: bool,
    /// Directory for journals and span files; inside the checkout.
    pub out_dir: PathBuf,
    /// The `tmc` binary, for `corpus-cli`.
    pub tmc_bin: PathBuf,
    /// The committed scenario corpus, for `corpus-cli`.
    pub scenarios_dir: PathBuf,
}

/// Simulated results of one cell over the measured region: exact
/// functions of the seed.
#[derive(Debug, Clone, PartialEq)]
struct CellSim {
    bits: u64,
    digest: u64,
    counters: Vec<(&'static str, u64)>,
}

/// What one rep produced.
struct Rep {
    generate_s: f64,
    setup_s: f64,
    measure_s: f64,
    cell_measure_s: Vec<f64>,
    cells: Vec<CellSim>,
    refused: u64,
}

/// What the rep does inside the timed region.
#[derive(Clone, Copy, PartialEq)]
enum Flavor {
    /// What the plan says: bare references, or the durable pipeline.
    Workload,
    /// References only, with protocol tracing off or on (drained and
    /// dropped): the pair behind `obs.trace_on_slowdown`.
    Bare { tracing: bool },
    /// The workload with every call timed; `record` also captures the
    /// layer-replay streams and replays them.
    Probed { record: bool },
}

/// A sink that counts bytes: the JSONL stream of the durable workload is
/// encoded in full and written nowhere.
#[derive(Default)]
struct CountingSink(u64);

impl std::io::Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Timings of the durable pipeline, over every rep that ran it.
#[derive(Default)]
struct DurableStats {
    checkpoint_ms: Vec<f64>,
    encode_ms: Vec<f64>,
    append_ms: Vec<f64>,
    snapshot_bytes: u64,
    journal_bytes: u64,
    journal_ns: f64,
    jsonl_events: u64,
    jsonl_ns: f64,
    jsonl_bytes: u64,
    failures: u64,
}

/// Per-call timings of the probed reps.
#[derive(Default)]
struct Probe {
    read_ns: LogHistogram,
    write_ns: LogHistogram,
    read_hit_ns: (f64, u64),
    read_miss_ns: (f64, u64),
    calls_ns: (f64, u64),
    drain_ns: f64,
    drained_events: u64,
    layers: LayerTotals,
    /// Σ hottest-link bits, Σ busiest-layer bits, Σ total bits, max links
    /// used — over the recorded cells' ledgers.
    hottest_bits: u64,
    max_layer_bits: u64,
    ledger_bits: u64,
    links_used: usize,
}

/// State the instrumented loop threads through one cell.
struct Instruments<'a> {
    per_call: bool,
    durable: Option<(Durable, &'a Path)>,
    durable_stats: &'a mut DurableStats,
    probe: &'a mut Probe,
    recording: Option<Recording>,
    spans: &'a mut Spans,
}

fn run_plain(engine: &mut dyn Engine, refs: &[Reference], stamp: &mut u64) -> u64 {
    let mut refused = 0;
    for r in refs {
        match r.op {
            Op::Read => match engine.read(r.proc, r.addr) {
                Some(v) => {
                    black_box(v);
                }
                None => refused += 1,
            },
            Op::Write => {
                refused += u64::from(!engine.write(r.proc, r.addr, *stamp));
                *stamp += 1;
            }
        }
    }
    refused
}

/// Calls since the last drain, waiting for their events.
#[derive(Default)]
struct Pending {
    /// Duration and kind (`true` = read) of each timed call.
    calls: Vec<(u64, bool)>,
    /// For each write, the writer and the other holders of the block just
    /// before it — the destination set if the write multicasts.
    holders: VecDeque<Option<(usize, DestSet)>>,
}

/// Matches the drained events to the calls that produced them. Each call
/// ends in exactly one `Read` or `Write` event, in call order, preceded
/// by the events of its transaction; so a read's duration goes to the hit
/// or miss mean its event names, and a write's recorded holders become a
/// replayable multicast only if its transaction really cast.
fn absorb_events(
    events: &[ProtocolEvent],
    pending: &mut Pending,
    probe: &mut Probe,
    mut recording: Option<&mut Recording>,
) {
    let mut calls = pending.calls.drain(..);
    let mut cast_seen = false;
    for e in events {
        match e {
            ProtocolEvent::Read { hit, .. } => {
                cast_seen = false;
                if let Some((ns, _)) = calls.by_ref().find(|(_, is_read)| *is_read) {
                    let slot = if *hit {
                        &mut probe.read_hit_ns
                    } else {
                        &mut probe.read_miss_ns
                    };
                    slot.0 += ns as f64;
                    slot.1 += 1;
                }
            }
            ProtocolEvent::Write { .. } => {
                if let (Some(Some(cast)), Some(rec), true) = (
                    pending.holders.pop_front(),
                    recording.as_deref_mut(),
                    cast_seen,
                ) {
                    rec.casts.push(cast);
                }
                cast_seen = false;
            }
            ProtocolEvent::Cast { .. } => cast_seen = true,
            ProtocolEvent::Miss { proc, block, .. } => {
                if let Some(rec) = recording.as_deref_mut() {
                    rec.misses.push((*proc, *block));
                }
            }
            _ => {}
        }
    }
    drop(calls);
    if let Some(rec) = recording {
        let room = rec.max_events.saturating_sub(rec.events.len());
        rec.events.extend(events.iter().take(room).cloned());
    }
}

struct DurableCell<'a> {
    opts: Durable,
    writer: TraceWriter<CountingSink>,
    journal: Journal,
    path: &'a Path,
    buf: Vec<u8>,
}

/// The instrumented loop: the references of one cell's measured region
/// with whatever `ins` asks for around them.
fn run_instrumented(
    engine: &mut dyn Engine,
    cfg: Option<&SystemConfig>,
    refs: &[Reference],
    stamp: &mut u64,
    ins: &mut Instruments,
) -> u64 {
    // Protocol tracing is what makes a cell instrumentable beyond call
    // timing; the baselines have none.
    let tracing = engine.as_system().is_some();
    if let Some(sys) = engine.as_system() {
        sys.set_tracing(true);
    }
    let mut durable = match (ins.durable, cfg) {
        (Some((opts, path)), Some(cfg)) if tracing => Some(DurableCell {
            opts,
            writer: TraceWriter::new(CountingSink::default(), &replay::trace_header(cfg))
                .expect("the counting sink cannot fail"),
            journal: Journal::create(path).expect("journal directory is writable"),
            path,
            buf: Vec::new(),
        }),
        _ => None,
    };
    let drain_every = durable.as_ref().map_or(4096, |d| d.opts.drain_every);
    let mut pending = Pending::default();
    let mut refused = 0;

    for (i, r) in refs.iter().enumerate() {
        if let (true, Op::Write, Some(cfg)) = (ins.recording.is_some(), r.op, cfg) {
            let present = engine
                .as_system()
                .and_then(|s| s.present_set(cfg.spec.block_of(r.addr)));
            pending.holders.push_back(present.and_then(|present| {
                let mut others = present.clone();
                others.remove(r.proc);
                (!others.is_empty()).then_some((r.proc, others))
            }));
        }
        let t = ins.per_call.then(Instant::now);
        let is_read = r.op == Op::Read;
        match r.op {
            Op::Read => match engine.read(r.proc, r.addr) {
                Some(v) => {
                    black_box(v);
                }
                None => refused += 1,
            },
            Op::Write => {
                refused += u64::from(!engine.write(r.proc, r.addr, *stamp));
                *stamp += 1;
            }
        }
        if let Some(t) = t {
            let ns = t.elapsed().as_nanos() as u64;
            let hist = if is_read {
                &mut ins.probe.read_ns
            } else {
                &mut ins.probe.write_ns
            };
            hist.record(ns);
            ins.probe.calls_ns.0 += ns as f64;
            ins.probe.calls_ns.1 += 1;
            if tracing {
                pending.calls.push((ns, is_read));
            }
        }
        if !tracing {
            continue;
        }
        let done = i + 1;
        let checkpoint = durable
            .as_ref()
            .is_some_and(|d| done % d.opts.checkpoint_every == 0);
        if done % drain_every == 0 || checkpoint || done == refs.len() {
            let sys = engine.as_system().expect("tracing implies a system");
            drain(sys, durable.as_mut(), &mut pending, ins);
        }
        if checkpoint {
            let sys = engine.as_system().expect("durable implies a system");
            let d = durable.as_mut().expect("checked above");
            take_checkpoint(sys, d, ins);
        }
    }

    if let Some(d) = durable {
        let total_bits = engine.total_bits();
        ins.durable_stats.journal_bytes += d.journal.appended_bytes();
        match d.writer.finish(replay::trace_trailer(total_bits)) {
            Ok(sink) => ins.durable_stats.jsonl_bytes += sink.0,
            Err(_) => ins.durable_stats.failures += 1,
        }
    }
    if let Some(sys) = engine.as_system() {
        sys.set_tracing(false);
    }
    refused
}

fn drain(
    sys: &mut System,
    durable: Option<&mut DurableCell>,
    pending: &mut Pending,
    ins: &mut Instruments,
) {
    let t = Instant::now();
    let events = sys.drain_trace();
    let drain_ns = t.elapsed().as_nanos() as f64;
    ins.probe.drain_ns += drain_ns;
    ins.probe.drained_events += events.len() as u64;
    let mut batch_ns = drain_ns;
    if let Some(d) = durable {
        let t = Instant::now();
        for e in &events {
            if d.writer.event(e).is_err() {
                ins.durable_stats.failures += 1;
            }
        }
        let ns = t.elapsed().as_nanos() as f64;
        ins.durable_stats.jsonl_events += events.len() as u64;
        ins.durable_stats.jsonl_ns += ns;
        batch_ns += ns;
    }
    ins.spans.closed("drain-batch", batch_ns as u64);
    absorb_events(&events, pending, ins.probe, ins.recording.as_mut());
}

fn take_checkpoint(sys: &System, d: &mut DurableCell, ins: &mut Instruments) {
    let stats = &mut *ins.durable_stats;
    if d.journal.frames() >= d.opts.rotate_every {
        stats.journal_bytes += d.journal.appended_bytes();
        d.journal = Journal::create(d.path).expect("journal directory is writable");
    }
    let t0 = Instant::now();
    let encoded = encode_system_into(sys, &mut d.buf);
    let t1 = Instant::now();
    let appended = d.journal.append(&d.buf);
    let t2 = Instant::now();
    if encoded.is_err() || appended.is_err() {
        stats.failures += 1;
        return;
    }
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    stats.encode_ms.push(ms(t0, t1));
    stats.append_ms.push(ms(t1, t2));
    stats.checkpoint_ms.push(ms(t0, t2));
    stats.journal_ns += (t2 - t1).as_nanos() as f64;
    stats.snapshot_bytes = d.buf.len() as u64;
    ins.spans.closed("checkpoint", (t2 - t0).as_nanos() as u64);
}

/// An engine's ledger and counters where the measured region starts.
struct Mark {
    bits: u64,
    counters: Vec<(&'static str, u64)>,
}

impl Mark {
    fn at(engine: &dyn Engine) -> Self {
        Mark {
            bits: engine.total_bits(),
            counters: engine.counters().iter().collect(),
        }
    }

    /// What the engine simulated since the mark.
    fn since(&self, engine: &dyn Engine) -> CellSim {
        let was = |name| {
            let before = self.counters.iter().find(|(n, _)| *n == name);
            before.map_or(0, |(_, v)| *v)
        };
        CellSim {
            bits: engine.total_bits() - self.bits,
            digest: engine.digest(),
            counters: engine
                .counters()
                .iter()
                .map(|(name, v)| (name, v - was(name)))
                .filter(|(_, v)| *v != 0)
                .collect(),
        }
    }
}

/// Everything a run accumulates across reps.
struct Session<'a> {
    plan: &'a Plan,
    opts: &'a RunOptions,
    journal_path: PathBuf,
    durable_stats: DurableStats,
    probe: Probe,
    spans: Spans,
}

impl Session<'_> {
    fn rep(&mut self, flavor: Flavor) -> Rep {
        let plan = self.plan;
        let total = plan.warmup + plan.measured;
        let mut rep = Rep {
            generate_s: 0.0,
            setup_s: 0.0,
            measure_s: 0.0,
            cell_measure_s: Vec::new(),
            cells: Vec::new(),
            refused: 0,
        };
        let system_cells = plan.cells().filter(|c| c.kind.config().is_some()).count();
        self.spans.enter("rep");
        for group in &plan.groups {
            self.spans.enter("generate");
            let t = Instant::now();
            let trace = (group.generate)(self.opts.seed, total);
            rep.generate_s += t.elapsed().as_secs_f64();
            self.spans.exit();
            let refs = trace.iter().as_slice();
            let (warm, measured) = refs.split_at(plan.warmup);
            for cell in &group.cells {
                self.spans.enter("construct");
                let t = Instant::now();
                let mut engine = cell.kind.build(plan.n_procs);
                self.spans.exit();
                self.spans.enter("warm-up");
                let mut stamp = 1;
                rep.refused += run_plain(engine.as_mut(), warm, &mut stamp);
                rep.setup_s += t.elapsed().as_secs_f64();
                self.spans.exit();
                let mark = Mark::at(engine.as_ref());

                let instrumented = match flavor {
                    Flavor::Workload => plan.durable.is_some(),
                    Flavor::Bare { tracing } => tracing,
                    Flavor::Probed { .. } => true,
                };
                self.spans.enter("measure");
                let t = Instant::now();
                let mut recording = None;
                if instrumented {
                    let record = flavor == (Flavor::Probed { record: true });
                    let mut ins = Instruments {
                        per_call: matches!(flavor, Flavor::Probed { .. }),
                        durable: match flavor {
                            Flavor::Bare { .. } => None,
                            _ => plan.durable.map(|d| (d, self.journal_path.as_path())),
                        },
                        durable_stats: &mut self.durable_stats,
                        probe: &mut self.probe,
                        recording: (record && cell.kind.config().is_some()).then(|| Recording {
                            max_events: replay::CODEC_EVENTS / system_cells.max(1),
                            ..Recording::default()
                        }),
                        spans: &mut self.spans,
                    };
                    rep.refused += run_instrumented(
                        engine.as_mut(),
                        cell.kind.config(),
                        measured,
                        &mut stamp,
                        &mut ins,
                    );
                    recording = ins.recording;
                } else {
                    rep.refused += run_plain(engine.as_mut(), measured, &mut stamp);
                }
                let cell_s = t.elapsed().as_secs_f64();
                self.spans.exit();
                rep.measure_s += cell_s;
                rep.cell_measure_s.push(cell_s);
                rep.cells.push(mark.since(engine.as_ref()));
                if let (Some(rec), Some(cfg)) = (recording, cell.kind.config()) {
                    self.spans.enter("layer-replay");
                    self.after_recorded_cell(engine.as_mut(), cfg, measured, &rec);
                    self.spans.exit();
                }
            }
        }
        self.spans.exit();
        rep
    }

    fn after_recorded_cell(
        &mut self,
        engine: &mut dyn Engine,
        cfg: &SystemConfig,
        measured: &[Reference],
        rec: &Recording,
    ) {
        replay::replay_cell(cfg, measured, rec, &mut self.probe.layers);
        let sys = engine.as_system().expect("recorded cells are systems");
        let ledger = sys.traffic();
        let net = Omega::with_ports(cfg.n_caches).expect("n_caches is a power of two");
        self.probe.ledger_bits += ledger.total_bits();
        self.probe.hottest_bits += ledger.hottest_link().map_or(0, |(_, b)| b);
        self.probe.max_layer_bits += (0..net.link_layers())
            .map(|l| ledger.layer_bits(l))
            .max()
            .unwrap_or(0);
        self.probe.links_used = self.probe.links_used.max(ledger.links_used());
    }

    /// One oracle-checked pass over every cell; returns the cells'
    /// simulated results, the number of stale reads, and each group's
    /// realised write fraction over the measured region.
    fn verify(&mut self) -> (Vec<CellSim>, u64, Vec<f64>) {
        let plan = self.plan;
        let mut cells = Vec::new();
        let mut wrong = 0;
        let mut write_fractions = Vec::new();
        self.spans.enter("verify");
        for group in &plan.groups {
            let trace = (group.generate)(self.opts.seed, plan.warmup + plan.measured);
            for cell in &group.cells {
                let mut engine = cell.kind.build(plan.n_procs);
                let mut oracle = ReferenceMemory::new();
                let mut mark = Mark::at(engine.as_ref());
                for (i, r) in trace.iter().enumerate() {
                    if i == plan.warmup {
                        mark = Mark::at(engine.as_ref());
                    }
                    match r.op {
                        Op::Read => {
                            wrong +=
                                u64::from(engine.read(r.proc, r.addr) != Some(oracle.read(r.addr)));
                        }
                        Op::Write => {
                            let stamp = oracle.stamp();
                            wrong += u64::from(!engine.write(r.proc, r.addr, stamp));
                            oracle.write(r.addr, stamp);
                        }
                    }
                }
                cells.push(mark.since(engine.as_ref()));
            }
            let measured = &trace.iter().as_slice()[plan.warmup..];
            let writes = measured.iter().filter(|r| r.op == Op::Write).count();
            write_fractions.push(writes as f64 / measured.len() as f64);
        }
        self.spans.exit();
        (cells, wrong, write_fractions)
    }
}

/// Runs reps of `flavor` until `budget_s` has passed, at least `min`.
fn reps_for(session: &mut Session, flavor: Flavor, budget_s: f64, min: usize) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min || start.elapsed().as_secs_f64() < budget_s {
        reps.push(session.rep(flavor));
    }
    reps
}

fn samples(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter().map(f).collect()
}

/// Runs an in-process workload and returns its metrics: the end-to-end
/// ones when `opts.traced` is false, the per-layer ones when it is true.
pub fn run(plan: &Plan, opts: &RunOptions) -> Outcome {
    let journal_dir = opts.out_dir.join("journal");
    if plan.durable.is_some() {
        std::fs::create_dir_all(&journal_dir).expect("output directory is writable");
    }
    let mut session = Session {
        plan,
        opts,
        journal_path: journal_dir.join(format!("{}-{}.journal", plan.name, std::process::id())),
        durable_stats: DurableStats::default(),
        probe: Probe::default(),
        spans: Spans::new(opts.traced),
    };
    let n_cells = plan.cells().count();
    let refs_per_rep = (n_cells * plan.measured) as u64;
    let ops_per_rep = (n_cells * (plan.warmup + plan.measured)) as u64;

    let min_reps = if opts.smoke { 1 } else { 3 };
    let workload_budget = if opts.traced {
        opts.seconds * 0.3
    } else {
        opts.seconds
    };
    let reps = reps_for(&mut session, Flavor::Workload, workload_budget, min_reps);
    // Peak memory is read before the oracle pass and the replays, which
    // allocate what the workload itself never does.
    let peak_rss_mib = host::peak_rss_mib();

    let mut out = Outcome::new(plan.name);
    out.reps = reps.len();
    out.refs_per_rep = refs_per_rep;
    out.attempted = ops_per_rep * (reps.len() as u64 + 1);
    out.failed = reps.iter().map(|r| r.refused).sum();
    out.failed += session.durable_stats.failures;
    // Every rep must reproduce the first one's simulated results exactly.
    out.failed += reps
        .iter()
        .map(|r| {
            r.cells
                .iter()
                .zip(&reps[0].cells)
                .filter(|(a, b)| a != b)
                .count() as u64
        })
        .sum::<u64>();

    let sim_bits: u64 = reps[0].cells.iter().map(|c| c.bits).sum();
    out.sim_digest = reps[0].cells.iter().fold(FNV_OFFSET, |h, c| {
        fnv1a(fnv1a(h, &c.digest.to_le_bytes()), &c.bits.to_le_bytes())
    });

    if !opts.traced {
        let rates = samples(&reps, |r| refs_per_rep as f64 / r.measure_s);
        out.put_reading("refs_per_s", rates, true);
        out.put("sim_bits_per_ref", sim_bits as f64 / refs_per_rep as f64);
        out.put("peak_rss_mib", peak_rss_mib);
        let setups = samples(&reps, |r| r.generate_s + r.setup_s);
        out.put_reading("setup_s", setups, false);
    } else {
        traced_metrics(&mut session, &reps, &mut out);
    }

    let (verified, wrong, write_fractions) = session.verify();
    out.failed += wrong;
    out.failed += verified
        .iter()
        .zip(&reps[0].cells)
        .filter(|(a, b)| a != b)
        .count() as u64;
    if opts.traced {
        out.put(
            "core.analytic_err_pct",
            analytic_err_pct(plan, &verified, &write_fractions),
        );
    }
    if plan.durable.is_some() {
        out.journal_dir = Some(journal_dir.display().to_string());
        let _ = std::fs::remove_file(&session.journal_path);
    }
    out.spans = session.spans;
    out
}

fn sum_counter(cells: &[CellSim], name: &str) -> f64 {
    cells
        .iter()
        .flat_map(|c| &c.counters)
        .filter(|(n, _)| *n == name)
        .map(|(_, v)| *v as f64)
        .sum()
}

/// The traced run's remaining phases and every per-layer metric.
fn traced_metrics(session: &mut Session, workload_reps: &[Rep], out: &mut Outcome) {
    let plan = session.plan;
    let seconds = session.opts.seconds;
    let min = 1;
    // Tracing off vs on over the same references. Without a durable
    // pipeline the workload reps already are the tracing-off side.
    let bare_off = match plan.durable {
        Some(_) => reps_for(session, Flavor::Bare { tracing: false }, seconds * 0.1, min),
        None => Vec::new(),
    };
    let bare_on = reps_for(session, Flavor::Bare { tracing: true }, seconds * 0.15, min);
    // The drains of the tracing-on reps are what `obs.drain_*` reports;
    // reset the rest of the probe so only probed reps feed the call timings.
    let mut probed = vec![session.rep(Flavor::Probed { record: true })];
    probed.extend(reps_for(
        session,
        Flavor::Probed { record: false },
        seconds * 0.3,
        min,
    ));

    let n_cells = plan.cells().count();
    let refs_per_rep = (n_cells * plan.measured) as f64;
    let per_ref_ns =
        |reps: &[Rep]| fast_decile(&samples(reps, |r| r.measure_s * 1e9 / refs_per_rep), false);
    let workload_ns = per_ref_ns(workload_reps);
    let off_ns = if bare_off.is_empty() {
        workload_ns
    } else {
        per_ref_ns(&bare_off)
    };

    // The six addends of paper-grid's throughput; elsewhere one of them,
    // and zero for the engines the workload does not run.
    for name in [
        ADAPTIVE,
        FIXED_DW,
        FIXED_GR,
        "baselines.no_cache_refs_per_s",
        "baselines.dir_invalidate_refs_per_s",
        "baselines.update_only_refs_per_s",
    ] {
        out.put(name, 0.0);
    }
    let cell_metric: Vec<&str> = plan.cells().map(|c| c.throughput_metric).collect();
    let mut names = cell_metric.clone();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let rates = samples(workload_reps, |r| {
            let (refs, secs) = cell_metric
                .iter()
                .zip(&r.cell_measure_s)
                .filter(|(m, _)| **m == name)
                .fold((0.0, 0.0), |(n, s), (_, cs)| {
                    (n + plan.measured as f64, s + cs)
                });
            ratio(refs, secs)
        });
        out.put_reading(name, rates, true);
    }

    let p = &session.probe;
    let l = &p.layers;
    let refs = l.refs as f64;
    let generate_s = fast_decile(&samples(workload_reps, |r| r.generate_s), false);
    let generated = (plan.groups.len() * (plan.warmup + plan.measured)) as f64;
    out.put("workload.gen_ns_per_ref", generate_s * 1e9 / generated);

    out.put("memsys.tag_lookup_ns_per_ref", ratio(l.tag_ns, refs));
    out.put("memsys.tag_hit_ratio", ratio(l.tag_hits as f64, refs));
    out.put("memsys.block_store_ns_per_ref", ratio(l.store_ns, refs));
    out.put("memsys.main_memory_ns_per_ref", ratio(l.memory_ns, refs));
    out.put("memsys.resident_pages", l.resident_pages as f64);
    out.put("memsys.oracle_ns_per_ref", ratio(l.oracle_ns, refs));

    out.put(
        "omeganet.unicast_bill_ns_per_msg",
        ratio(l.unicast_ns, l.unicasts as f64),
    );
    out.put(
        "omeganet.multicast_cached_ns_per_cast",
        ratio(l.cast_cached_ns, l.casts as f64),
    );
    out.put(
        "omeganet.multicast_uncached_ns_per_cast",
        ratio(l.cast_uncached_ns, l.uncached_casts as f64),
    );
    out.put(
        "omeganet.castcache_hit_ratio",
        ratio(l.cast_hits as f64, l.casts as f64),
    );
    out.put(
        "omeganet.destset_mean_len",
        ratio(l.dest_len_sum as f64, l.casts as f64),
    );
    let ledger = p.ledger_bits as f64;
    out.put(
        "omeganet.hottest_link_share",
        ratio(p.hottest_bits as f64, ledger),
    );
    out.put(
        "omeganet.max_layer_share",
        ratio(p.max_layer_bits as f64, ledger),
    );
    out.put("omeganet.links_used", p.links_used as f64);

    out.put("core.read_ns_p50", p.read_ns.percentile_or_highest(0.5));
    out.put("core.read_ns_p99", p.read_ns.percentile_or_highest(0.99));
    out.put("core.write_ns_p50", p.write_ns.percentile_or_highest(0.5));
    out.put("core.write_ns_p99", p.write_ns.percentile_or_highest(0.99));
    out.put(
        "core.read_hit_ns_mean",
        ratio(p.read_hit_ns.0, p.read_hit_ns.1 as f64),
    );
    out.put(
        "core.read_miss_ns_mean",
        ratio(p.read_miss_ns.0, p.read_miss_ns.1 as f64),
    );
    let mean_call_ns = ratio(p.calls_ns.0, p.calls_ns.1 as f64);
    out.put(
        "core.unattributed_ns_per_ref",
        mean_call_ns - l.hot_path_ns_per_ref(),
    );
    out.put(
        "memsys.share_of_call_time",
        ratio(l.memsys_ns_per_ref(), mean_call_ns),
    );

    // Simulated counts over the two-mode cells' measured regions.
    let sims: Vec<CellSim> = workload_reps[0]
        .cells
        .iter()
        .zip(plan.cells())
        .filter(|(_, cell)| cell.kind.config().is_some())
        .map(|(sim, _)| sim.clone())
        .collect();
    let sim_refs = (sims.len() * plan.measured) as f64;
    let kref = |name: &str| sum_counter(&sims, name) * 1000.0 / sim_refs;
    let hits = sum_counter(&sims, "read_hit");
    let misses = sum_counter(&sims, "read_miss_cold") + sum_counter(&sims, "read_miss_invalid");
    let remote = sum_counter(&sims, "read_remote_gr");
    out.put("core.read_hit_share", ratio(hits, hits + misses + remote));
    out.put(
        "core.read_miss_per_kref",
        (misses + remote) * 1000.0 / sim_refs,
    );
    out.put("core.replacements_per_kref", kref("replacements"));
    out.put(
        "core.ownership_transfers_per_kref",
        kref("ownership_transfers"),
    );
    out.put("core.updates_multicast_per_kref", kref("updates_multicast"));
    out.put("core.adaptive_switches_per_kref", kref("adaptive_switches"));
    out.put(
        "core.msgs_per_ref",
        sum_counter(&sims, "msgs_total") / sim_refs,
    );

    let d = &session.durable_stats;
    out.put("core.checkpoint_ms_p50", median(&d.checkpoint_ms));
    out.put(
        "core.checkpoint_ms_p90",
        percentile_or_highest(&d.checkpoint_ms, 0.9),
    );
    out.put("core.snapshot_encode_ms_p50", median(&d.encode_ms));
    out.put("core.journal_append_ms_p50", median(&d.append_ms));
    out.put("core.snapshot_bytes", d.snapshot_bytes as f64);
    out.put(
        "core.journal_mb_per_s",
        ratio(d.journal_bytes as f64 / 1e6, d.journal_ns / 1e9),
    );
    let (decode_ms, recover_ms) = match plan.durable {
        Some(_) => decode_and_recover(session, out),
        None => (0.0, 0.0),
    };
    out.put("core.snapshot_decode_ms_p50", decode_ms);
    out.put("core.recover_ms", recover_ms);

    let p = &session.probe;
    let d = &session.durable_stats;
    let events = p.drained_events as f64;
    let traced_refs: f64 = (bare_on.len() + probed.len()) as f64 * refs_per_rep
        + if plan.durable.is_some() {
            workload_reps.len() as f64 * refs_per_rep
        } else {
            0.0
        };
    out.put("obs.events_per_ref", ratio(events, traced_refs));
    out.put("obs.drain_ns_per_event", ratio(p.drain_ns, events));
    out.put(
        "obs.jsonl_encode_ns_per_event",
        ratio(p.layers.encode_ns, p.layers.events as f64),
    );
    out.put(
        "obs.jsonl_bytes_per_event",
        ratio(p.layers.encoded_bytes as f64, p.layers.events as f64),
    );
    out.put(
        "obs.jsonl_parse_ns_per_event",
        ratio(p.layers.parse_ns, p.layers.events as f64),
    );
    out.put("obs.trace_on_slowdown", ratio(per_ref_ns(&bare_on), off_ns));
    // Share of the workload's wall spent in the trace codec and the
    // checkpoint path, measured inline: > 0 only where the workload
    // itself traces and checkpoints.
    let durable_ns = d.jsonl_ns + d.checkpoint_ms.iter().sum::<f64>() * 1e6;
    let durable_wall_ns: f64 = workload_reps
        .iter()
        .chain(&probed)
        .map(|r| r.measure_s * 1e9)
        .sum();
    out.put(
        "obs.durable_share_of_wall",
        if plan.durable.is_some() {
            ratio(durable_ns, durable_wall_ns)
        } else {
            0.0
        },
    );
    out.failed += p.layers.codec_failures;

    for name in [
        "scenario.parse_us_per_file",
        "scenario.run_ms_per_scenario",
        "scenario.check_ms_per_scenario",
        "scenario.check_over_run_ratio",
        "scenario.slowest_scenario_share",
        "scenario.cli_overhead_ms",
    ] {
        out.put(name, 0.0);
    }
    out.put(
        "bench.trace_overhead_share",
        ratio(per_ref_ns(&probed) - workload_ns, workload_ns),
    );
}

/// Decodes the last snapshot and recovers the last journal of the traced
/// durable run: the read side of the checkpoint path.
fn decode_and_recover(session: &mut Session, out: &mut Outcome) -> (f64, f64) {
    session.spans.enter("decode-and-recover");
    let t = Instant::now();
    let recovered = recover_journal(&session.journal_path);
    let recover_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut decode_ms = Vec::new();
    match recovered {
        Ok(rec) if rec.damage.is_none() && rec.last().is_some() => {
            let frame = rec.last().expect("checked above");
            for _ in 0..5 {
                let t = Instant::now();
                let ok = decode_system(frame).is_ok();
                decode_ms.push(t.elapsed().as_secs_f64() * 1e3);
                out.failed += u64::from(!ok);
            }
        }
        _ => out.failed += 1,
    }
    session.spans.exit();
    (median(&decode_ms), recover_ms)
}

/// Largest relative gap, in percent, between the fixed-mode cells'
/// measured bits per reference and the paper's eq. 11 (distributed write)
/// and eq. 12 (global read) at the realised write fraction. Only
/// `paper-grid` has the analytic reference; `0.0` elsewhere.
fn analytic_err_pct(plan: &Plan, cells: &[CellSim], write_fractions: &[f64]) -> f64 {
    let mut worst: f64 = 0.0;
    let mut sims = cells.iter();
    for (group, &w) in plan.groups.iter().zip(write_fractions) {
        for cell in &group.cells {
            let sim = sims.next().expect("one result per cell");
            let (Some(cfg), FIXED_DW | FIXED_GR) = (cell.kind.config(), cell.throughput_metric)
            else {
                continue;
            };
            // Request and datum messages are the same size under the
            // default sizing, so one M serves eq. 12's two legs.
            let model = ProtocolCostModel::new(
                GRID_TASKS as u64,
                plan.n_procs as u64,
                cfg.sizing.request_bits(),
            );
            let predicted = if cell.throughput_metric == FIXED_DW {
                model.distributed_write(w, mean_update_cast_bits(cfg))
            } else {
                model.global_read(w)
            };
            let got = sim.bits as f64 / plan.measured as f64;
            worst = worst.max((got - predicted).abs() / predicted * 100.0);
        }
    }
    worst
}

/// CC₄(n) for eq. 11 from the network itself: the cost of one update
/// multicast from a block's writer to the other sharing tasks, averaged
/// over the grid's blocks (the writer, hence the set, differs per block).
fn mean_update_cast_bits(cfg: &SystemConfig) -> f64 {
    let net = Omega::with_ports(cfg.n_caches).expect("n_caches is a power of two");
    let shape = SharedBlockWorkload::new(GRID_TASKS, GRID_BLOCKS, 0.0);
    let total: u64 = (0..GRID_BLOCKS)
        .map(|b| {
            let writer = shape.writer_of_block(BlockAddr::new(b));
            let others =
                DestSet::from_ports(cfg.n_caches, (0..GRID_TASKS).filter(|&t| t != writer))
                    .expect("task ports are in range");
            net.multicast_cost(cfg.multicast, &others, cfg.sizing.update_bits())
                .expect("nonempty in-range set")
        })
        .sum();
    total as f64 / GRID_BLOCKS as f64
}
