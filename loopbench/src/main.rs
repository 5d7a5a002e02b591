//! Closed-loop benchmark of the SCOPe serving loop.
//!
//! ```text
//! cargo run --release --manifest-path loopbench/Cargo.toml -- \
//!     --workload <ingest-skewed|churn-wide|durable-journal> --seed <n> \
//!     --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! One producer hands the engine one `EventColumns` batch at a time, the
//! next only after the engine call returns, and after each epoch's
//! deliveries closes the epoch: advance heat, re-solve, checkpoint
//! (journaled: sync before the advance, durable checkpoint after the
//! re-solve). A run repeats one round of the same seeded input:
//!
//! 1. a verification round checks every epoch against the cold
//!    `reference::full_resolve` (and, on a multi-threaded workload, a
//!    one-thread twin whose checkpoints must match byte for byte);
//! 2. timed rounds run until `--seconds` have passed, each from a fresh
//!    engine, and every round's deterministic counts must equal the
//!    verification round's;
//! 3. every round ends mid-epoch in a crash; recovery from there is timed
//!    once, the recovered engine equal to the never-crashed twin, and
//!    set-up is timed once more.
//!
//! With `--trace 1` traced rounds alternate with untraced ones and the
//! last line reports per-layer metrics; otherwise it reports the
//! end-to-end ones. The line before it records the seed, configuration,
//! counts and sample sizes. A failed check exits non-zero without a
//! result line.

mod alloc;
mod driver;
mod run;
mod stats;
mod trace;
mod workload;

use driver::{Driver, Journaled, Plain, Split};
use run::{Check, Crash, Recovery, Round};
use scope_wal::MemStorage;
use stats::{fnv1a, median, quantile};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::{Layer, Tracer, LAYERS};
use workload::Spec;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

pub type BoxError = Box<dyn std::error::Error>;

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, BoxError> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 25.0f64, false);
    let mut out = PathBuf::from("loopbench/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse()?,
            "--seconds" => seconds = value.parse()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}").into()),
                }
            }
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown argument {other}").into()),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = workload::find(&name).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|s| s.name).collect();
        format!("unknown workload {name} (one of {})", names.join(", "))
    })?;
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
        out,
    })
}

/// Engine construction, registration of every object and, when
/// journaled, journal creation.
fn build(spec: &Spec, traced: bool, threads: usize) -> Result<Box<dyn Driver>, BoxError> {
    Ok(match (spec.durable, traced) {
        (false, _) => Box::new(Plain::new(spec, threads)?),
        (true, false) => Box::new(Journaled::new(spec)?),
        (true, true) => Box::new(Split::new(spec)?),
    })
}

struct Session {
    setup_s: Vec<f64>,
    reference: run::Counts,
    untraced: Vec<Round>,
    traced: Vec<Round>,
    recoveries: Vec<Recovery>,
    traced_recoveries: Vec<Recovery>,
    loop_trace: Tracer,
    recovery_trace: Tracer,
    gates: Vec<&'static str>,
}

/// Time one set-up, then tear it down.
fn time_setup(spec: &Spec) -> Result<f64, BoxError> {
    let t = Instant::now();
    let d = build(spec, false, spec.threads)?;
    let secs = t.elapsed().as_secs_f64();
    drop(d);
    Ok(secs)
}

/// Recover once from `crash` (for a journal, from a torn crash of
/// `store`) and check the recovered engine against the never-crashed
/// twin. The first store a journal recovery leaves is kept in `keep`.
fn recover_once(
    spec: &Spec,
    crash: &Crash,
    store: Option<&MemStorage>,
    tr: &mut Tracer,
    keep: &mut Option<MemStorage>,
) -> Result<Recovery, BoxError> {
    let rec = match store {
        None => run::recover_plain(spec, &crash.last_checkpoint, &crash.tail, tr)?,
        Some(store) => {
            let crashed = run::torn_crash(store, crash.torn);
            let (rec, left) = if tr.is_on() {
                run::recover_split(spec, crashed, tr)?
            } else {
                run::recover_journaled(spec, crashed)?
            };
            keep.get_or_insert(left);
            rec
        }
    };
    if rec.checkpoint != crash.twin {
        return Err("a recovered engine differs from the never-crashed twin".into());
    }
    Ok(rec)
}

fn session(args: &Args) -> Result<Session, BoxError> {
    let spec = args.spec;
    let mut off = Tracer::new(false);
    let mut gates = Vec::new();

    // Untimed set-ups first, so the timed ones start from a warm heap.
    for _ in 0..2 {
        time_setup(spec)?;
    }

    // Verification round: every epoch against the cold full re-solve.
    let mut d = build(spec, false, spec.threads)?;
    let (verified, log) = run::round(spec, args.seed, 0, d.as_mut(), &mut off, Check::FullResolve)?;
    drop(d);
    gates.push("every epoch equals reference::full_resolve (choices and objective bits)");
    let reference = verified.counts.clone();
    if reference.degraded_accounts > 0 {
        return Err("a shard served a degraded placement in the verification round".into());
    }

    if spec.threads > 1 {
        let mut d = build(spec, false, 1)?;
        let (twin, one) = run::round(spec, args.seed, 0, d.as_mut(), &mut off, Check::Record)?;
        drop(d);
        if one != log || twin.counts != reference {
            return Err(format!(
                "{} threads and 1 thread disagree: per-epoch outcomes or checkpoints differ",
                spec.threads
            )
            .into());
        }
        if run::digest_without_threads(&twin.crash.twin)
            != run::digest_without_threads(&verified.crash.twin)
        {
            return Err("1-thread and multi-thread final checkpoints differ".into());
        }
        gates.push("1 thread and the workload's threads leave byte-identical checkpoints every epoch (thread-count field aside)");
    }
    drop(verified);

    // Timed rounds, alternating untraced and traced when tracing; each is
    // followed by a recovery from its crash point (traced after a traced
    // round) and, when untraced, by one more set-up.
    let mut s = Session {
        setup_s: Vec::new(),
        reference,
        untraced: Vec::new(),
        traced: Vec::new(),
        recoveries: Vec::new(),
        traced_recoveries: Vec::new(),
        loop_trace: Tracer::new(true),
        recovery_trace: Tracer::new(true),
        gates,
    };
    // The newest crashed store and the first recovered one, per kind.
    let mut stores: [Option<MemStorage>; 2] = [None, None];
    let mut recovered: [Option<MemStorage>; 2] = [None, None];
    let start = Instant::now();
    for id in 1u32.. {
        let is_traced = args.trace && id % 2 == 0;
        let kind = usize::from(is_traced);
        let round_start = Instant::now();
        let heap = alloc::live();
        let mut d = build(spec, is_traced, spec.threads)?;
        if !is_traced {
            s.setup_s.push(round_start.elapsed().as_secs_f64());
        }
        let engine_heap = alloc::live().saturating_sub(heap);
        let tr = if is_traced {
            &mut s.loop_trace
        } else {
            &mut off
        };
        let (mut r, _) = run::round(spec, args.seed, id, d.as_mut(), tr, Check::None)?;
        stores[kind] = d.crash();
        r.peak_heap += engine_heap;
        if r.counts != s.reference {
            return Err(format!(
                "round {id} drifted from the verification round:\n  {:?}\nvs\n  {:?}",
                r.counts, s.reference
            )
            .into());
        }

        // One recovery from the round's crash point and, after an untraced
        // round, one more set-up: spread over the run like the rounds, so
        // one slow spell of the machine does not decide their statistics.
        let crash = std::mem::take(&mut r.crash);
        let done = (s.recoveries.len() + s.traced_recoveries.len()) as u32;
        s.recovery_trace.at(done, spec.epochs);
        let tr = if is_traced {
            &mut s.recovery_trace
        } else {
            &mut off
        };
        let rec = recover_once(
            spec,
            &crash,
            stores[kind].as_ref(),
            tr,
            &mut recovered[kind],
        )?;
        if is_traced {
            s.traced_recoveries.push(rec);
        } else {
            s.recoveries.push(rec);
            s.setup_s.push(time_setup(spec)?);
        }
        if is_traced {
            s.traced.push(r);
        } else {
            s.untraced.push(r);
        }
        // Stop before a round that would end past the measuring time.
        let enough = !s.untraced.is_empty() && (!args.trace || !s.traced.is_empty());
        let next_end = start.elapsed() + round_start.elapsed();
        if enough && next_end.as_secs_f64() > args.seconds {
            break;
        }
    }
    s.gates
        .push("every timed round repeats the verification round's counts exactly");
    s.gates
        .push("every recovered engine's checkpoint equals the never-crashed twin's");

    if let [Some(u), Some(t)] = &stores {
        if run::store_bytes(u)? != run::store_bytes(t)? {
            return Err(
                "the traced journal loop left different storage bytes than JournaledEngine".into(),
            );
        }
        s.gates
            .push("the traced journal loop leaves the same storage bytes as JournaledEngine");
    }
    if let [Some(u), Some(t)] = &recovered {
        if run::store_bytes(u)? != run::store_bytes(t)? {
            return Err(
                "the traced recovery left different storage bytes than JournaledEngine::recover"
                    .into(),
            );
        }
        s.gates
            .push("the traced recovery leaves the same storage bytes as JournaledEngine::recover");
    }
    Ok(s)
}

/// Deterministic counts must also repeat across processes: the first run
/// of a build, workload, seed and configuration records them, later runs
/// of the same build compare. The build is part of the key, so a change
/// to the engine that rightly moves a count starts a record of its own.
fn check_repeat(args: &Args, counts: &run::Counts) -> Result<(), BoxError> {
    let spec = args.spec;
    let build = fnv1a(&std::fs::read(std::env::current_exe()?)?);
    let config = format!("{spec:?} {:?}", spec.config());
    let dir = args.out.join("counts");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "{}-seed{}-{:016x}-{build:016x}.txt",
        spec.name,
        args.seed,
        fnv1a(config.as_bytes())
    ));
    let now = format!("{counts:?}\n");
    match std::fs::read_to_string(&path) {
        Ok(before) if before != now => Err(format!(
            "counts drifted from an earlier run of this build ({}):\n  {}vs\n  {now}",
            path.display(),
            before
        )
        .into()),
        Ok(_) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(std::fs::write(&path, now)?),
        Err(e) => Err(format!("cannot read the earlier counts {}: {e}", path.display()).into()),
    }
}

struct Metrics(String);

impl Metrics {
    fn new() -> Metrics {
        Metrics(String::new())
    }

    fn add(&mut self, name: &str, unit: &str, value: f64) -> Result<(), BoxError> {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite").into());
        }
        if !self.0.is_empty() {
            self.0.push_str(", ");
        }
        let _ = write!(
            self.0,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
        Ok(())
    }
}

fn ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 * 1e-6).collect()
}

/// Each call's fastest time in ms over `rounds`. Every round makes the
/// same calls on the same input, so a call's repeats differ only by what
/// the rest of the machine added to them. On a shared machine whose speed
/// changes in spells of a fraction of a second, a median over rounds would
/// follow the share of the run that fell in a slow spell; the fastest
/// repeat is the call's own cost. Quantiles are then taken over the calls.
fn fastest_calls(rounds: &[Round], f: impl Fn(&Round) -> &[u64]) -> Vec<f64> {
    let n = rounds.first().map_or(0, |r| f(r).len());
    let mut calls = vec![u64::MAX; n];
    for r in rounds {
        for (call, &ns) in calls.iter_mut().zip(f(r)) {
            *call = (*call).min(ns);
        }
    }
    ms(&calls)
}

/// Events delivered in a round over its timed loop time, with every
/// delivery and epoch close at its fastest repeat.
fn events_per_s(rounds: &[Round]) -> f64 {
    let events = rounds.first().map_or(0, |r| r.counts.events);
    let batch = fastest_calls(rounds, |r| &r.batch_ns);
    let close = fastest_calls(rounds, |r| &r.close_ns);
    let loop_ms: f64 = batch.iter().chain(&close).sum();
    events as f64 / (loop_ms * 1e-3)
}

fn end_to_end(args: &Args, s: &Session) -> Result<Metrics, BoxError> {
    let spec = args.spec;
    let objects = spec.objects as f64;
    let c = &s.reference;
    let peak = s.untraced.iter().map(|r| r.peak_heap).max().unwrap_or(0);
    let mut m = Metrics::new();
    let rounds = &s.untraced;
    let batch = fastest_calls(rounds, |r| &r.batch_ns);
    let close = fastest_calls(rounds, |r| &r.close_ns);
    m.add("events_per_s", "events/s", events_per_s(rounds))?;
    m.add("batch_ms_p50", "ms", quantile(&batch, 0.5))?;
    m.add("batch_ms_p99", "ms", quantile(&batch, 0.99))?;
    m.add("epoch_close_ms_p50", "ms", quantile(&close, 0.5))?;
    m.add("epoch_close_ms_p90", "ms", quantile(&close, 0.9))?;
    // Every set-up, and every recovery, repeats the same work.
    let setup = s.setup_s.iter().copied().fold(f64::INFINITY, f64::min);
    m.add("setup_s", "s", setup)?;
    let recover = s.recoveries.iter().map(|r| r.ns).min().unwrap_or(0);
    m.add("recover_ms", "ms", recover as f64 * 1e-6)?;
    m.add(
        "placement_cost_cents",
        "cents",
        f64::from_bits(c.objective_bits),
    )?;
    m.add(
        "checkpoint_bytes_per_object",
        "B",
        c.checkpoint_bytes as f64 / objects,
    )?;
    m.add(
        "write_bytes_per_event",
        "B",
        c.written as f64 / c.events as f64,
    )?;
    m.add("peak_heap_bytes_per_object", "B", peak as f64 / objects)?;
    Ok(m)
}

fn per_layer(args: &Args, s: &Session) -> Result<Metrics, BoxError> {
    let spec = args.spec;
    let c = &s.reference;
    let loop_self = s.loop_trace.self_ns();
    // Per traced round: a layer's self time (ns) and its share of the loop.
    // Only traced rounds record spans, so the rounds here are `s.traced`.
    let busy = |layer: Layer| -> Vec<f64> {
        loop_self
            .values()
            .map(|l| l[layer as usize] as f64)
            .collect()
    };
    let share = |layer: Layer| -> f64 {
        let shares: Vec<f64> = busy(layer)
            .iter()
            .zip(&s.traced)
            .map(|(b, r)| b / r.loop_ns as f64)
            .collect();
        median(&shares)
    };
    let busy_ns = |layer: Layer| median(&busy(layer));
    let rec_self = s.recovery_trace.self_ns();
    let rec_busy = |layer: Layer| -> f64 {
        let v: Vec<f64> = rec_self
            .values()
            .map(|l| l[layer as usize] as f64)
            .collect();
        median(&v)
    };
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let events = c.events;
    let deliveries = u64::from(spec.epochs) * spec.deliveries_per_epoch as u64;
    let encoded = s.traced.last().map_or(0, |r| r.encoded);
    let cold: Vec<f64> = s
        .loop_trace
        .durations_at(Layer::Resolve, 0)
        .iter()
        .map(|&n| n as f64)
        .collect();
    let rec = s.traced_recoveries.first().cloned().unwrap_or_default();

    let mut m = Metrics::new();
    let i = busy_ns(Layer::Intake);
    m.add("serve.intake.busy_ms", "ms", i * 1e-6)?;
    m.add("serve.intake.share", "ratio", share(Layer::Intake))?;
    m.add("serve.intake.ns_per_event", "ns/event", per(i, events))?;
    m.add("serve.intake.calls", "count", deliveries as f64)?;
    m.add("serve.intake.folded", "count", c.folded as f64)?;
    m.add("serve.intake.dropped", "count", c.dropped as f64)?;
    m.add("serve.intake.quarantined", "count", c.quarantined as f64)?;
    m.add("serve.intake.unknown", "count", c.unknown as f64)?;
    let a = busy_ns(Layer::Advance);
    m.add("serve.advance.busy_ms", "ms", a * 1e-6)?;
    m.add("serve.advance.share", "ratio", share(Layer::Advance))?;
    m.add(
        "serve.advance.ns_per_object",
        "ns/object",
        per(a, spec.objects as u64 * u64::from(spec.epochs)),
    )?;
    let r = busy_ns(Layer::Resolve);
    m.add("serve.resolve.busy_ms", "ms", r * 1e-6)?;
    m.add("serve.resolve.share", "ratio", share(Layer::Resolve))?;
    m.add("serve.resolve.cold_ms", "ms", median(&cold) * 1e-6)?;
    m.add("serve.resolve.rows_patched", "count", c.rows_patched as f64)?;
    m.add(
        "serve.resolve.retier_decisions",
        "count",
        c.retier_decisions as f64,
    )?;
    m.add(
        "serve.resolve.useful_ratio",
        "ratio",
        per(c.retier_decisions as f64, c.rows_patched),
    )?;
    m.add(
        "serve.resolve.us_per_row",
        "us/row",
        per(r * 1e-3, c.rows_patched),
    )?;
    m.add(
        "serve.resolve.degraded_accounts",
        "count",
        c.degraded_accounts as f64,
    )?;
    let k = busy_ns(Layer::Checkpoint);
    m.add("serve.checkpoint.busy_ms", "ms", k * 1e-6)?;
    m.add("serve.checkpoint.share", "ratio", share(Layer::Checkpoint))?;
    m.add("serve.checkpoint.bytes", "B", encoded as f64)?;
    m.add("serve.checkpoint.ns_per_byte", "ns/B", per(k, encoded))?;
    let w = busy_ns(Layer::WalAppend);
    m.add("wal.append.busy_ms", "ms", w * 1e-6)?;
    m.add("wal.append.share", "ratio", share(Layer::WalAppend))?;
    m.add("wal.append.frames", "count", c.io.frames as f64)?;
    m.add("wal.append.bytes", "B", c.io.frame_bytes as f64)?;
    m.add("wal.append.ns_per_event", "ns/event", per(w, events))?;
    m.add("wal.sync.busy_ms", "ms", busy_ns(Layer::WalSync) * 1e-6)?;
    m.add("wal.sync.share", "ratio", share(Layer::WalSync))?;
    m.add("wal.sync.syncs", "count", c.io.syncs as f64)?;
    m.add(
        "wal.publish.busy_ms",
        "ms",
        busy_ns(Layer::WalPublish) * 1e-6,
    )?;
    m.add("wal.publish.share", "ratio", share(Layer::WalPublish))?;
    m.add("wal.publish.bytes", "B", c.io.publish_bytes as f64)?;
    m.add("wal.publish.publishes", "count", c.io.publishes as f64)?;
    m.add(
        "wal.recover.busy_ms",
        "ms",
        rec_busy(Layer::WalRecover) * 1e-6,
    )?;
    m.add(
        "serve.restore.busy_ms",
        "ms",
        rec_busy(Layer::Restore) * 1e-6,
    )?;
    m.add("serve.replay.busy_ms", "ms", rec_busy(Layer::Replay) * 1e-6)?;
    m.add("recovery.replayed", "count", rec.replayed as f64)?;
    m.add("recovery.torn_bytes", "B", rec.torn_bytes as f64)?;
    m.add("recovery.quarantined", "count", rec.quarantined as f64)?;
    let harness = |l: &[u64; LAYERS]| l[Layer::Delivery as usize] + l[Layer::Close as usize];
    let unaccounted: Vec<f64> = loop_self.values().map(|l| harness(l) as f64).collect();
    let unaccounted_share: Vec<f64> = unaccounted
        .iter()
        .zip(&s.traced)
        .map(|(u, r)| u / r.loop_ns as f64)
        .collect();
    m.add("harness.unaccounted_ms", "ms", median(&unaccounted) * 1e-6)?;
    m.add(
        "harness.unaccounted_share",
        "ratio",
        median(&unaccounted_share),
    )?;
    m.add(
        "harness.tracing_overhead",
        "ratio",
        events_per_s(&s.untraced) / events_per_s(&s.traced) - 1.0,
    )?;
    Ok(m)
}

/// The line before the result: what ran, on what, and how much of it.
fn describe(args: &Args, s: &Session, spans: Option<&Path>) -> String {
    let spec = args.spec;
    let cfg = spec.config();
    let flush = if spec.durable {
        "JournaledEngine over MemStorage: every delivery appended before it is folded, journal synced at every epoch boundary, a durable checkpoint published every epoch (2 kept); the crash keeps every delivery after the last sync but tears the last frame"
    } else {
        "no journal: the checkpoint is encoded every epoch and handed back to the caller"
    };
    let batches: usize = s.untraced.iter().map(|r| r.batch_ns.len()).sum();
    let epochs: usize = s.untraced.iter().map(|r| r.close_ns.len()).sum();
    let gates: Vec<String> = s.gates.iter().map(|g| format!("\"{g}\"")).collect();
    let round_eps: Vec<String> = s
        .untraced
        .iter()
        .map(|r| format!("{:.0}", r.counts.events as f64 / (r.loop_ns as f64 * 1e-9)))
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"why\": \"{}\", \"seed\": {}, \"nproc\": {}, \"trace\": {}, \
         \"config\": {{\"objects\": {}, \"accounts\": {}, \"epochs_per_round\": {}, \"epoch_days\": 1, \
         \"events_per_epoch\": {}, \"deliveries_per_epoch\": {}, \"threads\": {}, \"traffic\": \"{:?}\", \
         \"horizon_days\": {}, \"decay_per_day\": {}, \"bucket_base\": {}, \"bucket_hysteresis\": {}, \
         \"crash_after_deliveries\": {}}}, \"flush_policy\": \"{flush}\", \
         \"samples\": {{\"setups\": {}, \"untraced_rounds\": {}, \"traced_rounds\": {}, \"batches\": {batches}, \
         \"epochs\": {epochs}, \"recoveries\": {}, \"traced_recoveries\": {}, \
         \"events_per_s_by_round\": [{}]}}, \
         \"counts\": \"{:?}\", \"gates\": [{}], \"spans\": {}}}",
        spec.name,
        spec.why,
        args.seed,
        scope_cloudsim::parallel::default_threads(),
        u8::from(args.trace),
        spec.objects,
        spec.accounts,
        spec.epochs,
        spec.events_per_epoch,
        spec.deliveries_per_epoch,
        spec.threads,
        spec.traffic,
        cfg.horizon_days,
        cfg.decay_per_day,
        cfg.bucket_base,
        cfg.bucket_hysteresis,
        spec.tail_deliveries(),
        s.setup_s.len(),
        s.untraced.len(),
        s.traced.len(),
        s.recoveries.len(),
        s.traced_recoveries.len(),
        round_eps.join(", "),
        s.reference,
        gates.join(", "),
        spans.map_or("null".to_string(), |p| format!("\"{}\"", p.display())),
    )
}

fn main_result() -> Result<String, BoxError> {
    let args = parse_args()?;
    let s = session(&args)?;
    check_repeat(&args, &s.reference)?;

    let spans = args
        .out
        .join(format!("spans-{}-seed{}.tsv", args.spec.name, args.seed));
    if args.trace {
        let mut text = String::from("id\tname\tparent\tround\tepoch\tstart_ns\tend_ns\n");
        s.loop_trace.render(&mut text);
        s.recovery_trace.render(&mut text);
        std::fs::write(&spans, text)?;
    }
    let spans = args.trace.then_some(spans.as_path());
    let metrics = if args.trace {
        per_layer(&args, &s)?
    } else {
        end_to_end(&args, &s)?
    };
    println!("{}", describe(&args, &s, spans));
    let attempted: u64 = s
        .untraced
        .iter()
        .chain(&s.traced)
        .map(|r| r.calls)
        .sum::<u64>()
        + (s.recoveries.len() + s.traced_recoveries.len()) as u64;
    let failed: u64 = s
        .untraced
        .iter()
        .chain(&s.traced)
        .map(|r| r.degraded_calls)
        .sum();
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.0
    ))
}

fn main() -> ExitCode {
    match main_result() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("loopbench: {e}");
            ExitCode::FAILURE
        }
    }
}
