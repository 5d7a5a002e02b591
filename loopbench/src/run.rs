//! One round of the closed loop, the verification it can carry, and the
//! crash recoveries that follow it.

use crate::alloc;
use crate::driver::{Driver, IoCounts};
use crate::stats::fnv1a;
use crate::trace::{Layer, Tracer};
use crate::workload::{catalog, schemes, Spec};
use crate::BoxError;
use scope_cloudsim::EventColumns;
use scope_serve::{reference, JournaledEngine, ServeEngine};
use scope_wal::{Journal, JournalConfig, MemStorage, RecordPayload, Storage};
use std::collections::BTreeMap;
use std::time::Instant;

/// Counts a round produces; identical for every round of one workload
/// and seed, whichever driver ran it, traced or not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub events: u64,
    pub folded: u64,
    pub dropped: u64,
    pub quarantined: u64,
    pub unknown: u64,
    pub rows_patched: u64,
    pub retier_decisions: u64,
    pub degraded_accounts: u64,
    /// Length of the last epoch's checkpoint.
    pub checkpoint_bytes: u64,
    pub written: u64,
    pub io: IoCounts,
    /// Bits of the final epoch's total objective.
    pub objective_bits: u64,
    /// Digest over every epoch's objective bits, rows patched and
    /// re-tierings.
    pub epoch_digest: u64,
}

/// What one epoch decided; the verification rounds compare these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochRecord {
    pub objective_bits: u64,
    pub rows_patched: usize,
    pub retier_decisions: usize,
    /// Digest of the epoch's checkpoint without its thread-count field.
    pub checkpoint_digest: u64,
}

pub struct Round {
    pub counts: Counts,
    pub loop_ns: u64,
    pub batch_ns: Vec<u64>,
    pub close_ns: Vec<u64>,
    /// Highest live heap in the timed loop above what was live before it.
    pub peak_heap: usize,
    /// Engine calls made in the timed loop, and those that served a
    /// degraded shard.
    pub calls: u64,
    pub degraded_calls: u64,
    /// Checkpoint bytes encoded by the driver's own checkpoint calls.
    pub encoded: u64,
    pub crash: Crash,
}

/// Where a round stopped: the state after its last closed epoch, the
/// crash tail that followed, and the checkpoint of the never-crashed
/// engine that recovery must reproduce.
#[derive(Debug, Default)]
pub struct Crash {
    pub last_checkpoint: Vec<u8>,
    pub tail: Vec<EventColumns>,
    pub twin: Vec<u8>,
    /// Bytes a torn write cuts off the last journal frame.
    pub torn: u64,
}

fn ns(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

/// Offset and length of the thread-count field in a checkpoint: magic,
/// version, fingerprint, horizon days and four f64 settings precede it.
const THREADS_FIELD: (usize, usize) = (4 + 4 + 8 + 4 + 4 * 8, 8);

/// Checkpoint digest that ignores the recorded thread count (and the
/// trailing checksum that covers it): the only bytes a thread count may
/// change.
pub fn digest_without_threads(bytes: &[u8]) -> u64 {
    let (at, len) = THREADS_FIELD;
    if bytes.len() < at + len + 8 {
        return fnv1a(bytes);
    }
    let mut kept = bytes[..at].to_vec();
    kept.extend_from_slice(&bytes[at + len..bytes.len() - 8]);
    fnv1a(&kept)
}

/// What a round checks besides its counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Nothing: a timed round.
    None,
    /// Record every epoch's outcome and checkpoint digest.
    Record,
    /// Record, and compare every epoch with the cold full re-solve.
    FullResolve,
}

/// Drive `spec.epochs` closed epochs, then deliver the first half of the
/// next epoch and stop there (the crash point). Each delivery is generated
/// just before it is delivered, outside the timed interval, as a consumer
/// hands over a batch it has just decoded. The timed loop is every
/// delivery call plus every epoch close, from the last delivery's return
/// to the checkpoint.
pub fn round(
    spec: &Spec,
    seed: u64,
    id: u32,
    d: &mut dyn Driver,
    tr: &mut Tracer,
    check: Check,
) -> Result<(Round, Vec<EpochRecord>), BoxError> {
    let mut log = Vec::new();
    let mut counts = Counts::default();
    let mut digest = Vec::with_capacity(spec.epochs as usize * 24);
    let (mut loop_ns, mut calls, mut degraded_calls) = (0u64, 0u64, 0u64);
    let mut batch_ns = Vec::with_capacity(spec.epochs as usize * spec.deliveries_per_epoch);
    let mut close_ns = Vec::with_capacity(spec.epochs as usize);
    let mut final_objective = 0.0f64;
    let mut seq = 0u64;
    let base_heap = alloc::live();
    alloc::reset_peak();
    let mut batch = EventColumns::default();
    for epoch in 0..spec.epochs {
        tr.at(id, epoch);
        let mut last = Instant::now();
        for k in 0..spec.deliveries_per_epoch {
            spec.fill_delivery(seed, epoch, k, &mut batch);
            tr.begin(Layer::Delivery);
            let t0 = Instant::now();
            let report = d.deliver(seq, &batch, tr)?;
            last = Instant::now();
            tr.end();
            batch_ns.push(ns(t0, last));
            loop_ns += ns(t0, last);
            seq += 1;
            counts.events += batch.len() as u64;
            counts.folded += report.folded;
            counts.dropped += report.dropped;
            counts.quarantined += report.quarantined;
            counts.unknown += report.unknown;
        }
        tr.begin(Layer::Close);
        d.boundary(epoch + 1, tr)?;
        let cold = match check {
            Check::FullResolve => Some(reference::full_resolve(d.engine())?),
            _ => None,
        };
        let outcome = d.resolve(tr)?;
        d.persist(u64::from(epoch) + 1, tr)?;
        let end = Instant::now();
        tr.end();
        close_ns.push(ns(last, end));
        loop_ns += ns(last, end);
        calls += spec.deliveries_per_epoch as u64 + 3;
        degraded_calls += u64::from(outcome.degraded_accounts > 0);

        if let Some(cold) = cold {
            if outcome.accounts.len() != cold.len() {
                return Err(
                    format!("epoch {epoch}: account count differs from full_resolve").into(),
                );
            }
            for (inc, full) in outcome.accounts.iter().zip(&cold) {
                if inc.account != full.account
                    || inc.assignment.choices != full.assignment.choices
                    || inc.assignment.objective.to_bits() != full.assignment.objective.to_bits()
                {
                    return Err(format!(
                        "epoch {epoch}: incremental outcome for {} differs from full_resolve",
                        inc.account
                    )
                    .into());
                }
            }
            if outcome.total_objective.to_bits() != reference::total_objective(&cold).to_bits() {
                return Err(
                    format!("epoch {epoch}: total objective differs from full_resolve").into(),
                );
            }
        }
        if check != Check::None {
            log.push(EpochRecord {
                objective_bits: outcome.total_objective.to_bits(),
                rows_patched: outcome.rows_patched,
                retier_decisions: outcome.retier_decisions,
                checkpoint_digest: digest_without_threads(&d.engine().checkpoint()),
            });
        }
        counts.rows_patched += outcome.rows_patched as u64;
        counts.retier_decisions += outcome.retier_decisions as u64;
        counts.degraded_accounts += outcome.degraded_accounts as u64;
        digest.extend_from_slice(&outcome.total_objective.to_bits().to_le_bytes());
        digest.extend_from_slice(&(outcome.rows_patched as u64).to_le_bytes());
        digest.extend_from_slice(&(outcome.retier_decisions as u64).to_le_bytes());
        final_objective = outcome.total_objective;
    }
    let peak_heap = alloc::peak().saturating_sub(base_heap);
    counts.objective_bits = final_objective.to_bits();
    counts.epoch_digest = fnv1a(&digest);
    counts.written = d.written();
    counts.io = d.io();
    let last_checkpoint = d.engine().checkpoint();
    counts.checkpoint_bytes = last_checkpoint.len() as u64;

    // The crash tail: untraced, untimed deliveries of the unfinished epoch.
    let mut quiet = Tracer::new(false);
    let tail: Vec<EventColumns> = (0..spec.tail_deliveries())
        .map(|k| {
            let mut batch = EventColumns::default();
            spec.fill_delivery(seed, spec.epochs, k, &mut batch);
            batch
        })
        .collect();
    // A plain engine's producer re-delivers the whole tail; a journal
    // replays all of it but the torn last frame.
    let mut twin = Vec::new();
    for (k, batch) in tail.iter().enumerate() {
        if spec.durable && k + 1 == tail.len() {
            twin = d.engine().checkpoint();
        }
        d.deliver(seq, batch, &mut quiet)?;
        seq += 1;
    }
    if !spec.durable {
        twin = d.engine().checkpoint();
    }
    let crash = Crash {
        last_checkpoint,
        twin,
        torn: d.io().last_frame / 2,
        tail,
    };
    let round = Round {
        counts,
        loop_ns,
        batch_ns,
        close_ns,
        peak_heap,
        calls,
        degraded_calls,
        encoded: d.encoded(),
        crash,
    };
    Ok((round, log))
}

/// What one recovery found, how long it took to reach a ready engine
/// with its tail replayed, and that engine's checkpoint.
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    pub ns: u64,
    pub replayed: u64,
    pub torn_bytes: u64,
    pub quarantined: u64,
    pub checkpoint: Vec<u8>,
}

/// Sequence number of the first crash-tail delivery.
fn tail_seq(spec: &Spec) -> u64 {
    u64::from(spec.epochs) * spec.deliveries_per_epoch as u64
}

/// Deliveries a recovered journal must reflect: all but the torn one.
fn check_resumed(spec: &Spec, resumed: u64) -> Result<(), BoxError> {
    let expected = tail_seq(spec) + spec.tail_deliveries() as u64 - 1;
    if resumed != expected {
        return Err(
            format!("recovery resumed after {resumed} deliveries, expected {expected}").into(),
        );
    }
    Ok(())
}

/// Recovery of a plain engine: restore the last checkpoint, then the
/// producer re-delivers the tail.
pub fn recover_plain(
    spec: &Spec,
    last_checkpoint: &[u8],
    tail: &[EventColumns],
    tr: &mut Tracer,
) -> Result<Recovery, BoxError> {
    let start = Instant::now();
    tr.begin(Layer::Recovery);
    let mut engine = tr.leaf(Layer::Restore, || {
        ServeEngine::restore(catalog(), schemes(), last_checkpoint)
    })?;
    let first = tail_seq(spec);
    tr.leaf(Layer::Replay, || {
        for (k, batch) in tail.iter().enumerate() {
            engine.ingest_sequenced(first + k as u64, batch)?;
        }
        Ok::<(), BoxError>(())
    })?;
    tr.end();
    let ns = ns(start, Instant::now());
    Ok(Recovery {
        ns,
        replayed: tail.len() as u64,
        checkpoint: engine.checkpoint(),
        ..Recovery::default()
    })
}

/// A torn crash of `store`: every delivery after the last sync survives
/// except the last, whose frame keeps only its first part.
pub fn torn_crash(store: &MemStorage, torn: u64) -> MemStorage {
    let mut crashed = store.clone();
    for (name, len) in store.pending_objects() {
        crashed.crash_torn(&name, len.saturating_sub(torn as usize));
    }
    crashed.crash();
    crashed
}

/// Every object of a store with its bytes.
pub fn store_bytes(store: &MemStorage) -> Result<BTreeMap<String, Vec<u8>>, BoxError> {
    let mut objects = BTreeMap::new();
    for name in store.list()? {
        let bytes = store.read(&name)?;
        objects.insert(name, bytes);
    }
    Ok(objects)
}

/// `JournaledEngine::recover` on a crashed store; also returns the store
/// as recovery leaves it.
pub fn recover_journaled(
    spec: &Spec,
    store: MemStorage,
) -> Result<(Recovery, MemStorage), BoxError> {
    let start = Instant::now();
    let (j, report) = JournaledEngine::recover(
        store,
        JournalConfig::default(),
        catalog(),
        schemes(),
        || spec.engine(spec.threads),
    )?;
    let ns = ns(start, Instant::now());
    check_resumed(spec, report.resume_deliveries)?;
    let rec = Recovery {
        ns,
        replayed: report.replayed,
        torn_bytes: report.wal.torn_bytes,
        quarantined: (report.wal.quarantined_records.len()
            + report.wal.quarantined_checkpoints.len()) as u64,
        checkpoint: j.engine().checkpoint(),
    };
    Ok((rec, j.crash()))
}

/// The same recovery as [`recover_journaled`], spelled out as the calls
/// `JournaledEngine::recover` makes, each in its own span.
pub fn recover_split(
    spec: &Spec,
    store: MemStorage,
    tr: &mut Tracer,
) -> Result<(Recovery, MemStorage), BoxError> {
    let start = Instant::now();
    tr.begin(Layer::Recovery);
    let recovered = tr.leaf(Layer::WalRecover, || {
        Journal::recover(store, JournalConfig::default(), |state| {
            ServeEngine::restore(catalog(), schemes(), state).is_ok()
        })
    })?;
    let mut engine = tr.leaf(Layer::Restore, || match &recovered.state {
        Some(state) => ServeEngine::restore(catalog(), schemes(), state),
        None => spec.engine(spec.threads),
    })?;
    tr.leaf(Layer::Replay, || {
        for record in &recovered.tail {
            if let RecordPayload::Batch(columns) = &record.payload {
                engine.ingest_sequenced(record.seq, columns)?;
            }
        }
        Ok::<(), BoxError>(())
    })?;
    tr.end();
    let ns = ns(start, Instant::now());
    let replayed = recovered.tail.len() as u64;
    check_resumed(spec, recovered.covered_deliveries + replayed)?;
    let report = &recovered.report;
    let rec = Recovery {
        ns,
        replayed,
        torn_bytes: report.torn_bytes,
        quarantined: (report.quarantined_records.len() + report.quarantined_checkpoints.len())
            as u64,
        checkpoint: engine.checkpoint(),
    };
    Ok((rec, recovered.journal.into_storage()))
}
