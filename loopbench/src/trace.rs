//! In-memory spans around the calls into each layer, kept until the run
//! ends; self time per layer is a span's duration minus its children's.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// A traced call site. `Delivery`, `Close` and `Recovery` are the harness
/// spans the layer calls nest under; their self time is the harness's own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Delivery,
    Close,
    Intake,
    Advance,
    Resolve,
    Checkpoint,
    WalAppend,
    WalSync,
    WalPublish,
    Recovery,
    WalRecover,
    Restore,
    Replay,
}

pub const LAYERS: usize = 13;

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Delivery => "harness.delivery",
            Layer::Close => "harness.close",
            Layer::Intake => "serve.intake",
            Layer::Advance => "serve.advance",
            Layer::Resolve => "serve.resolve",
            Layer::Checkpoint => "serve.checkpoint",
            Layer::WalAppend => "wal.append",
            Layer::WalSync => "wal.sync",
            Layer::WalPublish => "wal.publish",
            Layer::Recovery => "harness.recovery",
            Layer::WalRecover => "wal.recover",
            Layer::Restore => "serve.restore",
            Layer::Replay => "serve.replay",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub parent: u32,
    /// Round (or recovery) ordinal and epoch id the call belongs to.
    pub round: u32,
    pub epoch: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder; a disabled tracer only runs the wrapped calls.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    round: u32,
    epoch: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            round: 0,
            epoch: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn at(&mut self, round: u32, epoch: u32) {
        self.round = round;
        self.epoch = epoch;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, layer: Layer) {
        if !self.on {
            return;
        }
        let span = Span {
            layer,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            round: self.round,
            epoch: self.epoch,
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.stack.push(self.spans.len() as u32);
        self.spans.push(span);
    }

    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        if let Some(id) = self.stack.pop() {
            self.spans[id as usize].end_ns = end;
        }
    }

    /// Run `f` inside a span of `layer`.
    pub fn leaf<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.begin(layer);
        let out = f();
        self.end();
        out
    }

    /// Self time (ns) per layer, per round.
    pub fn self_ns(&self) -> BTreeMap<u32, [u64; LAYERS]> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<u32, [u64; LAYERS]> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            out.entry(s.round).or_insert([0; LAYERS])[s.layer as usize] +=
                (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    /// Durations (ns) of the spans of `layer` in epoch `epoch`.
    pub fn durations_at(&self, layer: Layer, epoch: u32) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.epoch == epoch)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Tab-separated dump: id, name, parent (-1 for none), round, epoch,
    /// start and end in ns since the tracer was created.
    pub fn render(&self, out: &mut String) {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = writeln!(
                out,
                "{id}\t{}\t{parent}\t{}\t{}\t{}\t{}",
                s.layer.name(),
                s.round,
                s.epoch,
                s.start_ns,
                s.end_ns
            );
        }
    }
}
