//! The three serving-loop workloads: engine configuration, object fleet
//! and the seeded traffic each epoch delivers.

use scope_cloudsim::{AccessKind, EventColumns, TierCatalog, TierId};
use scope_serve::{CompressionOption, ServeConfig, ServeEngine, ServeError, ServeObject};

/// Where an epoch's reads land.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// Squared-uniform draws concentrate reads on a head of low ids
    /// (`r * r / n`) that drifts by `drift` ids per day.
    Skewed { drift: u32 },
    /// Uniform draws over a window of `width` ids whose start moves by
    /// `step` ids per day, wrapping around the fleet.
    Window { width: u32, step: u32 },
}

/// One workload: sizes, engine settings and traffic shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub objects: usize,
    pub accounts: usize,
    /// Closed epochs per round; every epoch is one day.
    pub epochs: u32,
    pub events_per_epoch: usize,
    pub deliveries_per_epoch: usize,
    /// Re-solve fan-out threads.
    pub threads: usize,
    pub traffic: Traffic,
    /// Journal through `MemStorage` (sync + durable checkpoint each epoch).
    pub durable: bool,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "ingest-skewed",
        why: "4k objects, 600k skewed events a day in 16 deliveries, no journal: loads serve.intake (~75% of loop time); re-solve and checkpoint stay light, no WAL",
        objects: 4_000,
        accounts: 8,
        epochs: 50,
        events_per_epoch: 600_000,
        deliveries_per_epoch: 16,
        threads: 1,
        traffic: Traffic::Skewed { drift: 1 },
        durable: false,
    },
    Spec {
        name: "churn-wide",
        why: "16k objects, uniform traffic on a 2k-id hot window moving 500 ids a day, 2 threads, no journal: loads serve.resolve (~37%) and serve.checkpoint (~52%); intake ~5%, no WAL",
        objects: 16_000,
        accounts: 32,
        epochs: 50,
        events_per_epoch: 60_000,
        deliveries_per_epoch: 16,
        threads: 2,
        traffic: Traffic::Window {
            width: 2_000,
            step: 500,
        },
        durable: false,
    },
    Spec {
        name: "durable-journal",
        why: "16k objects, 160k skewed events a day through JournaledEngine on in-memory storage, synced and checkpointed every epoch, then torn-crash recovery: loads wal.* and recovery",
        objects: 16_000,
        accounts: 8,
        epochs: 50,
        events_per_epoch: 160_000,
        deliveries_per_epoch: 16,
        threads: 1,
        traffic: Traffic::Skewed { drift: 1 },
        durable: true,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

impl Spec {
    /// The engine's horizon: the closed epochs plus the day the crash tail
    /// is delivered on (events past the horizon would only be dropped).
    pub fn horizon_days(&self) -> u32 {
        self.epochs + 1
    }

    /// Deliveries of the unfinished epoch that precede the crash.
    pub fn tail_deliveries(&self) -> usize {
        self.deliveries_per_epoch / 2
    }

    pub fn config(&self) -> ServeConfig {
        let horizon_days = self.horizon_days();
        ServeConfig {
            horizon_days,
            horizon_months: f64::from(horizon_days) / 30.0,
            threads: self.threads,
            // The serve_bench heat dynamics: short memory, coarse buckets
            // and a wide hysteresis band, so rows re-bucket when traffic
            // genuinely moves rather than with event noise.
            decay_per_day: 0.82,
            bucket_base: 3.0,
            bucket_hysteresis: 4.0,
            ..ServeConfig::default()
        }
    }

    /// Engine construction plus registration of the whole fleet, the
    /// serve_bench fleet: distinct sizes, accounts round-robin, every
    /// third object latency-bound (archive ruled out).
    pub fn engine(&self, threads: usize) -> Result<ServeEngine, ServeError> {
        let config = ServeConfig {
            threads,
            ..self.config()
        };
        let mut engine = ServeEngine::new(catalog(), schemes(), config)?;
        for i in 0..self.objects {
            let mut spec = ServeObject::new(
                format!("obj-{i:06}"),
                format!("account-{}", i % self.accounts),
                0.5 + (i as f64) * 0.173,
                TierId(i % 2),
            )
            .with_residency_days((i as u32 * 13) % 200);
            if i % 3 == 0 {
                spec = spec.with_latency_threshold(2.0);
            }
            engine.register(spec)?;
        }
        Ok(engine)
    }

    /// Delivery `k` of epoch `epoch` (every event stamped with day
    /// `epoch`), generated into `cols` from the seed alone: the same seed
    /// gives the same batches, and each can be generated just before it
    /// is delivered.
    pub fn fill_delivery(&self, seed: u64, epoch: u32, k: usize, cols: &mut EventColumns) {
        let mut rng = Rng::new(seed, epoch, k as u32);
        let n = self.objects as u64;
        let per = self.events_per_epoch / self.deliveries_per_epoch;
        cols.days.clear();
        cols.periods.clear();
        cols.object_ids.clear();
        cols.kinds.clear();
        cols.volumes.clear();
        for _ in 0..per {
            let r = u64::from(rng.next()) % n;
            let id = match self.traffic {
                Traffic::Skewed { drift } => (r * r / n + u64::from(epoch) * u64::from(drift)) % n,
                Traffic::Window { width, step } => {
                    (u64::from(epoch) * u64::from(step) + r % u64::from(width)) % n
                }
            };
            let volume = 0.02 + f64::from(rng.next() % 128) / 100.0;
            let kind = if rng.next() % 10 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            cols.push_resolved(epoch, id as u32, kind, volume);
        }
    }
}

pub fn catalog() -> TierCatalog {
    TierCatalog::azure_hot_cool_archive()
}

pub fn schemes() -> Vec<CompressionOption> {
    vec![
        CompressionOption::none(),
        CompressionOption::new("gzip", 3.5, 1.5),
        CompressionOption::new("zstd", 2.4, 0.35),
        CompressionOption::new("lz4", 2.1, 0.15),
        CompressionOption::new("snappy", 1.8, 0.08),
        CompressionOption::new("brotli", 3.9, 2.6),
    ]
}

/// 64-bit LCG (the serve_bench generator) keyed by seed, epoch and
/// delivery through a SplitMix64 finalizer, yielding the high 32 bits.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, epoch: u32, delivery: u32) -> Rng {
        let key = (u64::from(epoch) << 32 | u64::from(delivery)) + 1;
        let mut z = seed ^ key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng(z ^ (z >> 31))
    }

    fn next(&mut self) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as u32
    }
}
