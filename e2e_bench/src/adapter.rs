//! Every call the benchmark makes into the handshake-join crates.
//!
//! The rest of the benchmark sees only the plain types defined here
//! (`Schedule`, `RunRecord`, `MeshOut`, ...), so a change that deletes
//! a transport or collapses the runtime's entry points has exactly one
//! benchmark file to follow.

use crate::spec::{Kind, Shape};
use llhj_baselines::run_kang;
use llhj_core::driver::{DriverSchedule, StreamEvent};
use llhj_core::homing::RoundRobin;
use llhj_core::node::PipelineNode;
use llhj_core::predicate::JoinPredicate;
use llhj_core::result::TimedResult;
use llhj_core::shard::{MeshPlan, RouteMode, ShardRouter};
use llhj_core::store::{ColumnarPayload, ColumnarWindow};
use llhj_core::time::{TimeDelta, Timestamp};
use llhj_core::tuple::StreamTuple;
use llhj_core::window::WindowSpec;
use llhj_runtime::channel::{spsc_unbounded, TryRecvError};
use llhj_runtime::{
    llhj_factory, llhj_indexed_factory, llhj_indexed_nodes, llhj_nodes, run_pipeline, MeshPipeline,
    NodeFactory, Pacing, PipelineOptions,
};
use llhj_sim::{run_mesh_simulation, run_simulation, Algorithm, SimConfig};
use llhj_workload::{
    BandJoinWorkload, BandPredicate, EquiJoinWorkload, EquiXaPredicate, RTuple, STuple,
    ZipfEquiJoinWorkload,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A replayable driver schedule of the benchmark schema.
pub type Schedule = DriverSchedule<RTuple, STuple>;
/// Raw arrivals of both streams, before window expiries are scheduled.
pub type Arrivals = (Vec<(Timestamp, RTuple)>, Vec<(Timestamp, STuple)>);
/// Sorted `(r_seq, s_seq)` result keys.
pub type Keys = Vec<(u64, u64)>;

/// Stream time every generated schedule starts at, so the runtime's
/// threads are up before the first arrival is due.
const LEAD: TimeDelta = TimeDelta::from_millis(20);

/// Generates `tuples` arrivals per stream at `rate` tuples/s per stream
/// from `seed`.  The same seed yields the same payload sequence at every
/// rate, so rate-ladder rungs differ only in their clocks.
pub fn generate(kind: Kind, domain: u32, rate: f64, tuples: usize, seed: u64) -> Arrivals {
    let duration = TimeDelta::from_secs_f64(tuples as f64 / rate);
    let (r, s) = match kind {
        Kind::Band => {
            let w = BandJoinWorkload::scaled(rate, duration, domain, seed);
            (w.generate_r(), w.generate_s())
        }
        Kind::Equi => {
            let w = EquiJoinWorkload {
                rate_per_sec: rate,
                duration,
                domain,
                seed,
            };
            (w.generate_r(), w.generate_s())
        }
        Kind::Zipf => {
            let w = ZipfEquiJoinWorkload {
                rate_per_sec: rate,
                duration,
                domain,
                theta: 1.0,
                seed,
            };
            (w.generate_r(), w.generate_s())
        }
    };
    let shift = |ts: Timestamp| ts.saturating_add(LEAD);
    (
        r.into_iter().map(|(ts, t)| (shift(ts), t)).collect(),
        s.into_iter().map(|(ts, t)| (shift(ts), t)).collect(),
    )
}

/// Splits arrivals into `parts` consecutive slices of equal length per
/// stream, each shifted to start at the same stream time as a fresh
/// schedule.
pub fn split(arrivals: Arrivals, parts: usize) -> Vec<Arrivals> {
    fn cut<T>(stream: Vec<(Timestamp, T)>, parts: usize) -> Vec<Vec<(Timestamp, T)>> {
        let len = stream.len() / parts.max(1);
        let mut out: Vec<Vec<_>> = (0..parts).map(|_| Vec::with_capacity(len)).collect();
        for (i, (ts, t)) in stream.into_iter().enumerate().take(len * parts) {
            out[i / len].push((ts, t));
        }
        for part in &mut out {
            let first = part.first().map_or(Timestamp::ZERO, |p| p.0);
            for (ts, _) in part.iter_mut() {
                *ts = ts
                    .saturating_sub(first.saturating_since(Timestamp::ZERO))
                    .saturating_add(LEAD);
            }
        }
        out
    }
    cut(arrivals.0, parts)
        .into_iter()
        .zip(cut(arrivals.1, parts))
        .collect()
}

/// Builds the driver schedule for time windows of `window_us`, cut at the
/// last arrival: trailing expiries change no result, only the run length.
pub fn build_schedule(arrivals: Arrivals, window_us: u64) -> Schedule {
    let window = WindowSpec::Time(TimeDelta::from_micros(window_us));
    let schedule = DriverSchedule::build(arrivals.0, arrivals.1, window, window);
    let last = schedule
        .events()
        .iter()
        .rposition(|e| e.event.is_arrival())
        .map_or(0, |i| i + 1);
    schedule.truncated(last)
}

/// Arrivals per stream in a schedule (R side; the workloads are symmetric).
pub fn tuples_per_stream(schedule: &Schedule) -> usize {
    schedule.r_count()
}

/// Stream time of the last scheduled event, in seconds.
pub fn last_event_s(schedule: &Schedule) -> f64 {
    schedule.events().last().map_or(0.0, |e| e.at.as_secs_f64())
}

/// Number of events in a schedule.
pub fn event_count(schedule: &Schedule) -> usize {
    schedule.events().len()
}

/// One result's timing: `ts_us` is the later input's scheduled arrival and
/// `latency_us` the stream-clock delay to its detection, or `None` when the
/// detecting chain's clock reads earlier than the arrival (see
/// [`timing_of`]).
#[derive(Clone, Copy)]
pub struct Sample {
    pub ts_us: u64,
    pub latency_us: Option<u64>,
}

/// Timing of one result.  A correct stream clock never reads earlier than
/// a result's own arrival (the driver injects no earlier than that), so a
/// detection stamp below it comes from a chain whose clock started late —
/// a mesh chain created by a shard split starts its own clock at the
/// split.  Such results carry no usable latency.
fn timing_of<R, S>(t: &TimedResult<R, S>) -> Sample {
    let ts = t.result.ts().as_micros();
    let det = t.detected_at.as_micros();
    Sample {
        ts_us: ts,
        latency_us: (det >= ts).then(|| det - ts),
    }
}

fn keys_of<R, S>(results: &[TimedResult<R, S>]) -> Keys {
    let mut keys: Keys = results
        .iter()
        .map(|t| {
            let (r, s) = t.result.key();
            (r.0, s.0)
        })
        .collect();
    keys.sort_unstable();
    keys
}

/// What one replay through a fixed chain (`run_pipeline`) returned.
pub struct RunRecord {
    pub keys: Keys,
    pub samples: Vec<Sample>,
    /// Wall time of the `run_pipeline` call, in seconds.
    pub call_s: f64,
    /// Arrivals per stream actually injected.
    pub arrivals: usize,
    pub comparisons: u64,
    /// Sum over nodes of the R and S window peaks.
    pub window_peak_tuples: u64,
    pub frames: u64,
    pub batch_allocs: u64,
    pub idle_wakeups: u64,
}

fn options(shape: &Shape, paced: bool) -> PipelineOptions {
    PipelineOptions {
        batch_size: shape.batch,
        flush_interval: shape.flush_us.map(TimeDelta::from_micros),
        pacing: if paced {
            Pacing::RealTime { speedup: 1.0 }
        } else {
            Pacing::Unpaced
        },
        ..Default::default()
    }
}

/// Builds the chain's nodes: plain LLHJ for the band join, indexed LLHJ
/// for the equi joins.
pub fn chain_nodes(kind: Kind, width: usize) -> Vec<Box<dyn PipelineNode<RTuple, STuple>>> {
    match kind {
        Kind::Band => llhj_nodes(width, BandPredicate::default()),
        Kind::Equi | Kind::Zipf => llhj_indexed_nodes(width, EquiXaPredicate),
    }
}

/// Replays `schedule` through a fixed chain of `shape.width` nodes.
pub fn run_chain(
    kind: Kind,
    shape: &Shape,
    nodes: Vec<Box<dyn PipelineNode<RTuple, STuple>>>,
    schedule: &Schedule,
    paced: bool,
) -> RunRecord {
    match kind {
        Kind::Band => chain_with(nodes, BandPredicate::default(), shape, schedule, paced),
        Kind::Equi | Kind::Zipf => chain_with(nodes, EquiXaPredicate, shape, schedule, paced),
    }
}

fn chain_with<P>(
    nodes: Vec<Box<dyn PipelineNode<RTuple, STuple>>>,
    pred: P,
    shape: &Shape,
    schedule: &Schedule,
    paced: bool,
) -> RunRecord
where
    P: JoinPredicate<RTuple, STuple> + Send,
{
    let opts = options(shape, paced);
    let start = Instant::now();
    let out = run_pipeline(nodes, pred, RoundRobin, schedule, &opts);
    let call_s = start.elapsed().as_secs_f64();
    RunRecord {
        keys: keys_of(&out.results),
        samples: out.results.iter().map(timing_of).collect(),
        call_s,
        arrivals: out.arrivals_per_stream.0,
        comparisons: out.total_comparisons(),
        window_peak_tuples: out
            .counters
            .iter()
            .map(|c| (c.wr_peak + c.ws_peak) as u64)
            .sum(),
        frames: out.frames_injected,
        batch_allocs: out.batch_allocs,
        idle_wakeups: out.idle_wakeups,
    }
}

/// The mesh steering plan as `(after_events, shards, width)` steps.
pub type Steps = Vec<(usize, usize, usize)>;

/// A deployed shard mesh, between construction and replay.
pub enum Mesh {
    Band(MeshPipeline<RTuple, STuple, BandPredicate, RoundRobin>),
    Equi(MeshPipeline<RTuple, STuple, EquiXaPredicate, RoundRobin>),
}

fn mesh_parts<P>(
    pred: P,
    factory: NodeFactory<RTuple, STuple>,
) -> (P, NodeFactory<RTuple, STuple>, RouteMode)
where
    P: JoinPredicate<RTuple, STuple>,
{
    let mode = RouteMode::for_predicate(&pred);
    (pred, factory, mode)
}

/// Deploys a mesh of `shards` chains: fragment-replicate for the keyless
/// band join, co-partitioned for the equi joins.
pub fn mesh_new(kind: Kind, shape: &Shape, shards: usize, width: usize, paced: bool) -> Mesh {
    let opts = options(shape, paced);
    match kind {
        Kind::Band => {
            let (pred, factory, mode) = mesh_parts(
                BandPredicate::default(),
                llhj_factory(BandPredicate::default()),
            );
            Mesh::Band(MeshPipeline::new(
                shards, width, factory, pred, RoundRobin, mode, opts,
            ))
        }
        Kind::Equi | Kind::Zipf => {
            let (pred, factory, mode) =
                mesh_parts(EquiXaPredicate, llhj_indexed_factory(EquiXaPredicate));
            Mesh::Equi(MeshPipeline::new(
                shards, width, factory, pred, RoundRobin, mode, opts,
            ))
        }
    }
}

/// The result of draining a mesh.
pub struct MeshOut {
    pub keys: Keys,
    pub samples: Vec<Sample>,
    pub moved_tuples: u64,
    pub reshards: usize,
}

impl Mesh {
    /// Replays `schedule`, firing the plan's reshapes at their event
    /// indexes.
    pub fn run(&mut self, schedule: &Schedule, steps: &Steps) {
        let plan = MeshPlan::from_steps(steps);
        match self {
            Mesh::Band(m) => m.run_schedule(schedule, &plan),
            Mesh::Equi(m) => m.run_schedule(schedule, &plan),
        }
    }

    /// Drains every chain and merges their results.
    pub fn finish(self) -> MeshOut {
        macro_rules! out {
            ($out:expr) => {{
                let out = $out;
                MeshOut {
                    keys: keys_of(&out.results),
                    samples: out.results.iter().map(timing_of).collect(),
                    moved_tuples: out.reshard_log.iter().map(|e| e.moved_tuples as u64).sum(),
                    reshards: out.reshard_log.len(),
                }
            }};
        }
        match self {
            Mesh::Band(m) => out!(m.finish()),
            Mesh::Equi(m) => out!(m.finish()),
        }
    }
}

/// The Kang oracle's sorted result keys for `schedule`.
pub fn kang_keys(kind: Kind, schedule: &Schedule) -> Keys {
    match kind {
        Kind::Band => keys_of(&run_kang(BandPredicate::default(), schedule).results),
        Kind::Equi | Kind::Zipf => keys_of(&run_kang(EquiXaPredicate, schedule).results),
    }
}

/// Share of the routed events that went to the busiest shard while the
/// mesh had more than one shard (1.0 when it never had).
pub fn hot_shard_share(kind: Kind, schedule: &Schedule, steps: &Steps) -> f64 {
    match kind {
        Kind::Band => share_with(BandPredicate::default(), schedule, steps),
        Kind::Equi | Kind::Zipf => share_with(EquiXaPredicate, schedule, steps),
    }
}

fn share_with<P: JoinPredicate<RTuple, STuple>>(
    pred: P,
    schedule: &Schedule,
    steps: &Steps,
) -> f64 {
    let mode = RouteMode::for_predicate(&pred);
    let mut router = ShardRouter::new(pred, mode, 1);
    let mut per_shard = vec![0u64; 1];
    let mut plan = steps.iter().peekable();
    for (idx, event) in schedule.events().iter().enumerate() {
        while let Some(&(_, shards, _)) = plan.next_if(|s| s.0 <= idx) {
            while router.shards() < shards {
                router.split();
            }
            while router.shards() > shards {
                router.merge();
            }
            per_shard.resize(per_shard.len().max(shards), 0);
        }
        let route = router.route(&event.event);
        if router.shards() > 1 {
            for shard in route.targets(router.shards()) {
                per_shard[shard] += 1;
            }
        }
    }
    let total: u64 = per_shard.iter().sum();
    if total == 0 {
        return 1.0;
    }
    *per_shard.iter().max().expect("one shard at least") as f64 / total as f64
}

/// Simulated result latencies (µs) for the same schedule and shape.
pub fn sim_latencies_us(
    kind: Kind,
    shape: &Shape,
    schedule: &Schedule,
    window_us: u64,
    rate: f64,
    steps: &Steps,
) -> Vec<u64> {
    let mut config = SimConfig::new(
        shape.width,
        match kind {
            Kind::Band => Algorithm::Llhj,
            Kind::Equi | Kind::Zipf => Algorithm::LlhjIndexed,
        },
    );
    config.batch_size = shape.batch;
    config.window_r = WindowSpec::Time(TimeDelta::from_micros(window_us));
    config.window_s = config.window_r;
    config.expected_rate_per_sec = rate;
    let results = match (kind, shape.shards) {
        (Kind::Band, _) => {
            run_simulation(&config, BandPredicate::default(), RoundRobin, schedule).results
        }
        (_, 0 | 1) if steps.is_empty() => {
            run_simulation(&config, EquiXaPredicate, RoundRobin, schedule).results
        }
        _ => {
            run_mesh_simulation(
                &config,
                EquiXaPredicate,
                RoundRobin,
                RouteMode::CoPartition,
                shape.shards.max(1),
                schedule,
                &MeshPlan::from_steps(steps),
            )
            .results
        }
    };
    results.iter().map(|t| t.latency().as_micros()).collect()
}

/// Per-operation store costs measured on one window of the workload's own
/// tuples at its resident size.
pub struct StoreCosts {
    pub scan_ns_per_tuple: f64,
    pub probe_ns: f64,
    pub insert_ns: f64,
    pub expire_ns: f64,
}

/// Times `ColumnarWindow` operations: band scans and hash probes by the
/// S side of `schedule` against an R window of `resident` tuples, plus
/// insertion and expiry of those tuples.  Each figure is the median of
/// `reps` timed passes.
pub fn store_costs(kind: Kind, schedule: &Schedule, resident: usize, reps: usize) -> StoreCosts {
    let (r, s) = arrivals_of(schedule);
    let resident = resident.min(r.len()).max(1);
    let rows = &r[..resident];
    let probes: Vec<&StreamTuple<STuple>> = s.iter().take(512).copied().collect();
    let indexed =
        || ColumnarWindow::<RTuple>::with_index(Arc::new(|t: &RTuple| t.join_attr() as u64));
    let fill = |w: &mut ColumnarWindow<RTuple>| {
        for t in rows {
            w.insert_with_attr((*t).clone(), t.payload.join_attr(), false);
        }
    };
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };

    let mut insert = Vec::with_capacity(reps);
    let mut expire = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut w = if kind == Kind::Band {
            ColumnarWindow::new()
        } else {
            indexed()
        };
        let start = Instant::now();
        fill(&mut w);
        insert.push(start.elapsed().as_nanos() as f64 / resident as f64);
        let start = Instant::now();
        for t in rows {
            black_box(w.remove(t.seq));
        }
        expire.push(start.elapsed().as_nanos() as f64 / resident as f64);
    }

    let mut plain = ColumnarWindow::new();
    fill(&mut plain);
    let mut keyed = indexed();
    fill(&mut keyed);
    let mut scan = Vec::with_capacity(reps);
    let mut probe = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        let mut hits = 0u64;
        for p in &probes {
            hits += scan_one(kind, &plain, &p.payload);
        }
        black_box(hits);
        scan.push(start.elapsed().as_nanos() as f64 / (probes.len() * resident) as f64);
        let start = Instant::now();
        let mut hits = 0u64;
        for p in &probes {
            hits += keyed.probe_matches(
                p.payload.join_attr() as u64,
                false,
                |r| r.x == p.payload.a,
                |t| {
                    black_box(t);
                },
            );
        }
        black_box(hits);
        probe.push(start.elapsed().as_nanos() as f64 / probes.len() as f64);
    }
    StoreCosts {
        scan_ns_per_tuple: median(scan),
        probe_ns: median(probe),
        insert_ns: median(insert),
        expire_ns: median(expire),
    }
}

/// One band scan of the R window by the S tuple `s`, with the workload's
/// own predicate (the node's scan path).
fn scan_one(kind: Kind, window: &ColumnarWindow<RTuple>, s: &STuple) -> u64 {
    fn with<P: JoinPredicate<RTuple, STuple>>(
        pred: P,
        window: &ColumnarWindow<RTuple>,
        s: &STuple,
    ) -> u64 {
        let band = pred
            .r_band(s)
            .expect("benchmark predicates expose a band form");
        let mut hits = 0u64;
        window.scan_band(
            band,
            false,
            pred.band_exact(),
            |r| pred.matches(r, s),
            |_| hits += 1,
        );
        hits
    }
    match kind {
        Kind::Band => with(BandPredicate::default(), window, s),
        Kind::Equi | Kind::Zipf => with(EquiXaPredicate, window, s),
    }
}

fn arrivals_of(schedule: &Schedule) -> (Vec<&StreamTuple<RTuple>>, Vec<&StreamTuple<STuple>>) {
    let mut r = Vec::new();
    let mut s = Vec::new();
    for e in schedule.events() {
        match &e.event {
            StreamEvent::ArrivalR(t) => r.push(t),
            StreamEvent::ArrivalS(t) => s.push(t),
            _ => {}
        }
    }
    (r, s)
}

/// One-way hop latency (ns) of the default SPSC edge — the ring link the
/// chain uses between neighbouring workers — measured as half the round
/// trip of a frame bounced between two threads, for each frame size in
/// `batches`.  Blocks of 200 round trips alternate between the sizes;
/// each figure is the median over `rounds` blocks.
pub fn ring_hop_ns(batches: &[usize], rounds: usize) -> Vec<f64> {
    const TRIPS: usize = 200;
    let capacity = PipelineOptions::default().ring_capacity;
    let (ping_tx, ping_rx) = spsc_unbounded::<Vec<u64>>(capacity, None);
    let (pong_tx, pong_rx) = spsc_unbounded::<Vec<u64>>(capacity, None);
    let echo = std::thread::spawn(move || loop {
        match ping_rx.recv_timeout(Duration::from_millis(50)) {
            Ok(frame) => {
                if pong_tx.send(frame).is_err() {
                    return;
                }
            }
            Err(TryRecvError::Empty) => {}
            Err(TryRecvError::Disconnected) => return,
        }
    });
    let mut frames: Vec<Vec<u64>> = batches.iter().map(|&b| (0..b as u64).collect()).collect();
    let mut blocks = vec![Vec::with_capacity(rounds); batches.len()];
    // Round 0 warms both threads up and is discarded.
    for round in 0..=rounds {
        for (i, slot) in frames.iter_mut().enumerate() {
            let mut frame = std::mem::take(slot);
            let start = Instant::now();
            for _ in 0..TRIPS {
                ping_tx.send(frame).expect("echo thread alive");
                frame = loop {
                    match pong_rx.recv_timeout(Duration::from_millis(50)) {
                        Ok(f) => break f,
                        Err(TryRecvError::Empty) => {}
                        Err(TryRecvError::Disconnected) => panic!("echo thread died"),
                    }
                };
            }
            if round > 0 {
                blocks[i].push(start.elapsed().as_nanos() as f64 / (2 * TRIPS) as f64);
            }
            *slot = frame;
        }
    }
    for (frame, &b) in frames.iter().zip(batches) {
        assert_eq!(frame.len(), b, "the frame must come back whole");
    }
    drop(ping_tx);
    echo.join().expect("echo thread panicked");
    blocks
        .into_iter()
        .map(|mut v| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        })
        .collect()
}

/// Whether the runtime could pin `threads` threads on the running host.
pub fn pinning_available(threads: usize) -> bool {
    llhj_runtime::pinning_available(threads)
}
