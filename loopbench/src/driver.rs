//! The engine behind the closed loop, in its three forms: a plain
//! `ServeEngine`, a `JournaledEngine` over `MemStorage`, and the same
//! journaled loop spelled out as the `Journal` and `ServeEngine` calls
//! `JournaledEngine` makes, so each can carry its own span.

use crate::trace::{Layer, Tracer};
use crate::workload::Spec;
use crate::BoxError;
use scope_cloudsim::EventColumns;
use scope_serve::{IngestReport, JournaledEngine, ResolveOutcome, ServeEngine};
use scope_wal::{Journal, JournalConfig, MemStorage, Storage, WalError};
use std::hint::black_box;

/// What the journal handed to storage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounts {
    pub frames: u64,
    pub frame_bytes: u64,
    /// Length of the newest appended frame (a torn crash cuts into it).
    pub last_frame: u64,
    pub syncs: u64,
    pub publishes: u64,
    pub publish_bytes: u64,
}

/// A [`Storage`] that counts what passes through it.
#[derive(Debug)]
pub struct Counted<S> {
    inner: S,
    pub io: IoCounts,
}

impl<S: Storage> Counted<S> {
    pub fn new(inner: S) -> Self {
        Counted {
            inner,
            io: IoCounts::default(),
        }
    }

    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Storage> Storage for Counted<S> {
    fn list(&self) -> Result<Vec<String>, WalError> {
        self.inner.list()
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, WalError> {
        self.inner.read(name)
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        self.io.frames += 1;
        self.io.frame_bytes += bytes.len() as u64;
        self.io.last_frame = bytes.len() as u64;
        self.inner.append(name, bytes)
    }

    fn sync(&mut self, name: &str) -> Result<(), WalError> {
        self.io.syncs += 1;
        self.inner.sync(name)
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        self.io.publishes += 1;
        self.io.publish_bytes += bytes.len() as u64;
        self.inner.write_atomic(name, bytes)
    }

    fn delete(&mut self, name: &str) -> Result<(), WalError> {
        self.inner.delete(name)
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), WalError> {
        self.inner.truncate(name, len)
    }
}

/// One engine call per method; the harness times each call site.
pub trait Driver {
    fn engine(&self) -> &ServeEngine;
    /// One delivery (journal append, then sequenced intake).
    fn deliver(
        &mut self,
        seq: u64,
        batch: &EventColumns,
        tr: &mut Tracer,
    ) -> Result<IngestReport, BoxError>;
    /// Epoch boundary (journal marker and sync, then heat advance).
    fn boundary(&mut self, day: u32, tr: &mut Tracer) -> Result<(), BoxError>;
    fn resolve(&mut self, tr: &mut Tracer) -> Result<ResolveOutcome, BoxError>;
    /// Encode the checkpoint (and publish it durably).
    fn persist(&mut self, marker: u64, tr: &mut Tracer) -> Result<(), BoxError>;
    /// Bytes handed to storage; a plain engine counts the checkpoint
    /// bytes it encoded for the caller to persist.
    fn written(&self) -> u64;
    fn io(&self) -> IoCounts;
    /// Checkpoint bytes encoded by calls this driver times itself (0 for
    /// `JournaledEngine`, which encodes inside `checkpoint_durable`).
    fn encoded(&self) -> u64;
    /// Crash: drop every in-memory structure and keep what the journal's
    /// storage holds (nothing for a plain engine).
    fn crash(self: Box<Self>) -> Option<MemStorage>;
}

pub struct Plain {
    engine: ServeEngine,
    encoded: u64,
}

impl Plain {
    pub fn new(spec: &Spec, threads: usize) -> Result<Plain, BoxError> {
        Ok(Plain {
            engine: spec.engine(threads)?,
            encoded: 0,
        })
    }
}

impl Driver for Plain {
    fn engine(&self) -> &ServeEngine {
        &self.engine
    }

    fn deliver(
        &mut self,
        seq: u64,
        batch: &EventColumns,
        tr: &mut Tracer,
    ) -> Result<IngestReport, BoxError> {
        Ok(tr.leaf(Layer::Intake, || self.engine.ingest_sequenced(seq, batch))?)
    }

    fn boundary(&mut self, day: u32, tr: &mut Tracer) -> Result<(), BoxError> {
        tr.leaf(Layer::Advance, || self.engine.advance(day));
        Ok(())
    }

    fn resolve(&mut self, tr: &mut Tracer) -> Result<ResolveOutcome, BoxError> {
        Ok(tr.leaf(Layer::Resolve, || self.engine.reoptimize())?)
    }

    fn persist(&mut self, _marker: u64, tr: &mut Tracer) -> Result<(), BoxError> {
        // The buffer is released inside the span, as the caller would.
        let len = tr.leaf(Layer::Checkpoint, || {
            black_box(self.engine.checkpoint()).len()
        });
        self.encoded += len as u64;
        Ok(())
    }

    fn written(&self) -> u64 {
        self.encoded
    }

    fn io(&self) -> IoCounts {
        IoCounts::default()
    }

    fn encoded(&self) -> u64 {
        self.encoded
    }

    fn crash(self: Box<Self>) -> Option<MemStorage> {
        None
    }
}

/// `JournaledEngine` over fresh storage: the untraced journaled loop.
pub struct Journaled {
    inner: JournaledEngine<Counted<MemStorage>>,
}

impl Journaled {
    pub fn new(spec: &Spec) -> Result<Journaled, BoxError> {
        let storage = Counted::new(MemStorage::new());
        let inner = JournaledEngine::create(
            spec.engine(spec.threads)?,
            storage,
            JournalConfig::default(),
        )?;
        Ok(Journaled { inner })
    }
}

impl Driver for Journaled {
    fn engine(&self) -> &ServeEngine {
        self.inner.engine()
    }

    fn deliver(
        &mut self,
        seq: u64,
        batch: &EventColumns,
        _tr: &mut Tracer,
    ) -> Result<IngestReport, BoxError> {
        Ok(self.inner.ingest_sequenced(seq, batch)?)
    }

    fn boundary(&mut self, day: u32, _tr: &mut Tracer) -> Result<(), BoxError> {
        Ok(self.inner.advance(day)?)
    }

    fn resolve(&mut self, _tr: &mut Tracer) -> Result<ResolveOutcome, BoxError> {
        Ok(self.inner.reoptimize()?)
    }

    fn persist(&mut self, marker: u64, _tr: &mut Tracer) -> Result<(), BoxError> {
        Ok(self.inner.checkpoint_durable(marker)?)
    }

    fn written(&self) -> u64 {
        let io = self.io();
        io.frame_bytes + io.publish_bytes
    }

    fn io(&self) -> IoCounts {
        self.inner.journal().storage().io
    }

    fn encoded(&self) -> u64 {
        0
    }

    fn crash(self: Box<Self>) -> Option<MemStorage> {
        Some(self.inner.crash().into_inner())
    }
}

/// The traced durable loop: the `Journal` and `ServeEngine` calls that
/// `JournaledEngine` wraps, in its order, each in its own span.
pub struct Split {
    engine: ServeEngine,
    journal: Journal<Counted<MemStorage>>,
    encoded: u64,
}

impl Split {
    pub fn new(spec: &Spec) -> Result<Split, BoxError> {
        let storage = Counted::new(MemStorage::new());
        Ok(Split {
            engine: spec.engine(spec.threads)?,
            journal: Journal::create(storage, JournalConfig::default())?,
            encoded: 0,
        })
    }
}

impl Driver for Split {
    fn engine(&self) -> &ServeEngine {
        &self.engine
    }

    fn deliver(
        &mut self,
        seq: u64,
        batch: &EventColumns,
        tr: &mut Tracer,
    ) -> Result<IngestReport, BoxError> {
        tr.leaf(Layer::WalAppend, || self.journal.append(seq, batch))?;
        Ok(tr.leaf(Layer::Intake, || self.engine.ingest_sequenced(seq, batch))?)
    }

    fn boundary(&mut self, day: u32, tr: &mut Tracer) -> Result<(), BoxError> {
        let epoch = self.engine.epoch();
        tr.leaf(Layer::WalSync, || {
            self.journal.append_epoch(epoch, day)?;
            self.journal.sync()
        })?;
        tr.leaf(Layer::Advance, || self.engine.advance(day));
        Ok(())
    }

    fn resolve(&mut self, tr: &mut Tracer) -> Result<ResolveOutcome, BoxError> {
        Ok(tr.leaf(Layer::Resolve, || self.engine.reoptimize())?)
    }

    fn persist(&mut self, marker: u64, tr: &mut Tracer) -> Result<(), BoxError> {
        let snapshot = tr.leaf(Layer::Checkpoint, || self.engine.checkpoint());
        self.encoded += snapshot.len() as u64;
        // `checkpoint_durable` releases the snapshot after publishing it.
        tr.leaf(Layer::WalPublish, || {
            let published = self.journal.publish_checkpoint(&snapshot, marker);
            drop(snapshot);
            published
        })?;
        Ok(())
    }

    fn written(&self) -> u64 {
        let io = self.io();
        io.frame_bytes + io.publish_bytes
    }

    fn io(&self) -> IoCounts {
        self.journal.storage().io
    }

    fn encoded(&self) -> u64 {
        self.encoded
    }

    fn crash(self: Box<Self>) -> Option<MemStorage> {
        Some(self.journal.into_storage().into_inner())
    }
}
