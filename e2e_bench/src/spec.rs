//! The three workloads, their shapes and their latency limits.

/// Which join a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's two-dimensional band join (plain LLHJ, columnar scans).
    Band,
    /// Uniform equi join `r.x = s.a` (indexed LLHJ).
    Equi,
    /// Zipf(1.0)-skewed equi join (indexed LLHJ behind the shard mesh).
    Zipf,
}

/// How the runtime is deployed.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Nodes per chain.
    pub width: usize,
    /// Driver batch size in tuples.
    pub batch: usize,
    /// Entry-frame flush interval, in µs of stream time.
    pub flush_us: Option<u64>,
    /// Initial shard count when the workload runs through the mesh; 0
    /// for a fixed chain (`run_pipeline`).
    pub shards: usize,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub shape: Shape,
    /// Fixed offered rate, tuples/s per stream.
    pub rate: f64,
    /// Window length at the fixed rate, µs.  Ladder rungs shrink it in
    /// proportion to their rate so the resident window stays the same.
    pub window_us: u64,
    /// Join-attribute domain.
    pub domain: u32,
    /// Tail latency limit a ladder rung must meet, ms, and the
    /// percentile it applies to.
    pub limit_ms: f64,
    pub limit_pct: f64,
}

impl Spec {
    /// Tuples resident per stream window.
    pub fn resident(&self) -> usize {
        (self.rate * self.window_us as f64 / 1e6).round() as usize
    }

    /// Whether the workload's own entry point is the shard mesh.
    pub fn meshed(&self) -> bool {
        self.shape.shards > 0
    }

    /// The mesh plan for a schedule of `events` events: split to two
    /// shards after a third, merge back after two thirds.  Fixed chains
    /// have none.
    pub fn steps(&self, events: usize) -> Vec<(usize, usize, usize)> {
        if !self.meshed() {
            return Vec::new();
        }
        let w = self.shape.width;
        vec![
            (events / 3, 2 * self.shape.shards, w),
            (2 * events / 3, self.shape.shards, w),
        ]
    }
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "band_b1",
        kind: Kind::Band,
        shape: Shape {
            width: 2,
            batch: 1,
            flush_us: None,
            shards: 0,
        },
        rate: 8_000.0,
        window_us: 250_000,
        domain: 1_000,
        // p95, not p99: with a p99 limit the top rung flipped between
        // 10k and 48k tuples/s over five seeds on a 2-core host, where
        // one scheduler stall of a few ms covers 1% of a rung's results.
        limit_ms: 1.0,
        limit_pct: 0.95,
    },
    Spec {
        name: "equi_b64",
        kind: Kind::Equi,
        shape: Shape {
            width: 2,
            batch: 64,
            flush_us: Some(5_000),
            shards: 0,
        },
        rate: 20_000.0,
        // 100 ms windows over 10,000 keys: 0.2 matches per arrival.  The
        // scalar Kang oracle costs one comparison per resident tuple, so
        // a 2,000-tuple window keeps every ladder rung checkable.
        window_us: 100_000,
        domain: 10_000,
        limit_ms: 10.0,
        limit_pct: 0.99,
    },
    Spec {
        name: "zipf_mesh",
        kind: Kind::Zipf,
        shape: Shape {
            width: 1,
            batch: 4,
            flush_us: Some(2_000),
            shards: 1,
        },
        rate: 2_000.0,
        window_us: 500_000,
        domain: 2_000,
        limit_ms: 10.0,
        limit_pct: 0.99,
    },
];

pub fn by_name(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}
