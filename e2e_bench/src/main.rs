//! Oracle-checked wall-clock benchmark of the threaded handshake-join
//! runtime.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload band_b1 --seed 7 --seconds 30 --trace 0
//! ```
//!
//! Every workload is an open loop: the runtime's driver replays a
//! pre-generated schedule in real time and latency runs from each result's
//! scheduled arrival, so a stalled driver shows up as latency.  Every run
//! is compared with the Kang oracle on the same schedule.
//!
//! `--trace 0` prints the end-to-end metrics: latency and peak RSS at the
//! fixed rate, and set-up time.  `--trace 1` is a
//! separate run that records a span around every call into a layer and
//! prints the per-layer metrics with each span's self time, the
//! sustainable rate on a rate ladder among them; the spans are written to
//! `out/trace-<workload>-<seed>.json` under this package.
//!
//! `cargo test --release --manifest-path e2e_bench/Cargo.toml` runs a
//! tiny-scale self-test of the output contract.
//! Human-readable lines come first; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.

mod adapter;
mod host;
mod json;
mod spec;
mod stats;
mod trace;

use adapter::{Keys, Mesh, RunRecord, Sample, Schedule};
use spec::Spec;
use stats::Latency;
use std::process::ExitCode;
use trace::Tracer;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Share of `--seconds` spent replaying the fixed-rate input in short
/// repetitions, so that a scheduler stall spoils one repetition rather
/// than the figure.  The input is `FIXED_SLICES` consecutive slices of the
/// seeded streams, replayed in turn.
const FIXED_SHARE: f64 = 0.75;
const FIXED_SLICES: usize = 4;
/// A repetition replays this much stream time, but at least
/// `FIXED_REP_WINDOWS` windows.
const FIXED_REP_S: f64 = 0.4;
const FIXED_REP_WINDOWS: usize = 2;
/// Stream time every ladder rung replays, as a share of `--seconds` ...
const RUNG_SHARE: f64 = 0.015;
/// ... but at least this many windows, so the first quarter of a rung is
/// no more than the window filling up.
const RUNG_WINDOWS: usize = 2;
/// Stream time of the traced run's replays, as a share of `--seconds`.
const TRACE_SHARE: f64 = 0.15;
/// Attempts per rung; one passing attempt passes the rung.
const RUNG_ATTEMPTS: usize = 3;
/// Rate ratio between ladder strides, each split into `RUNG_SPLIT` rungs.
const RUNG_STEP: f64 = 1.25;
const RUNG_SPLIT: usize = 4;
const MAX_STRIDES: usize = 24;
/// A rung has a growing backlog when its last quarter's p50 exceeds its
/// first quarter's by more than this factor.
const BACKLOG_FACTOR: f64 = 2.0;

/// Self times are reported for every span of these names.
const SPANS: [&str; 19] = [
    "bench",
    "setup",
    "workload.gen",
    "driver.schedule",
    "runtime.construct",
    "untraced",
    "main",
    "runtime.pipeline.run",
    "runtime.mesh.new",
    "runtime.mesh.run",
    "runtime.mesh.finish",
    "oracle.kang",
    "oracle.compare",
    "probe",
    "ladder",
    "core.store",
    "runtime.ring",
    "diag.unpaced",
    "sim.run",
];

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Self-test scale: one repetition, one single-attempt ladder rung and
    /// short micro-benchmarks.
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = spec::by_name(&workload).ok_or_else(|| {
        let names: Vec<_> = spec::WORKLOADS.iter().map(|s| s.name).collect();
        format!("unknown workload {workload} (one of {})", names.join(", "))
    })?;
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        tiny,
    })
}

/// Named metrics in print order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        println!("# {name} = {value} {unit}");
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    json::string(n),
                    json::string(u)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Oracle tally over the runs that count towards `correct`.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, what: &str, got: &Keys, oracle: &Keys) -> u64 {
        let (missing, spurious) = stats::diff(got, oracle);
        println!(
            "# oracle {what}: {} pairs, kang {}, missing {missing}, spurious {spurious}",
            got.len(),
            oracle.len()
        );
        self.attempted += oracle.len() as u64;
        self.failed += missing + spurious;
        missing + spurious
    }
}

/// Figures from the fixed-chain entry point (`run_pipeline`).
struct ChainStats {
    record: RunRecord,
    cpu_s: f64,
    tail_ms: f64,
}

/// Wall times of the mesh entry point's three calls.
struct MeshStats {
    new_s: f64,
    run_s: f64,
    finish_s: f64,
    moved_tuples: u64,
    reshards: usize,
}

/// One replay through a workload's own entry point.
struct Replay {
    keys: Keys,
    samples: Vec<Sample>,
    wall_s: f64,
    chain: Option<ChainStats>,
    mesh: Option<MeshStats>,
}

fn replay_chain(spec: &Spec, schedule: &Schedule, paced: bool, tr: &mut Tracer) -> Replay {
    let shape = spec::Shape {
        shards: 0,
        ..spec.shape
    };
    let (nodes, _) = tr.time("runtime.construct", || {
        adapter::chain_nodes(spec.kind, shape.width)
    });
    let cpu0 = host::cpu_time_s();
    let (record, wall_s) = tr.time("runtime.pipeline.run", || {
        adapter::run_chain(spec.kind, &shape, nodes, schedule, paced)
    });
    let cpu_s = host::cpu_time_s() - cpu0;
    let tail_ms = (record.call_s - adapter::last_event_s(schedule)) * 1e3;
    let mut record = record;
    Replay {
        keys: std::mem::take(&mut record.keys),
        samples: std::mem::take(&mut record.samples),
        wall_s,
        chain: Some(ChainStats {
            record,
            cpu_s,
            tail_ms,
        }),
        mesh: None,
    }
}

/// Replays through a mesh of the workload's shape; a fixed-chain workload
/// gets one shard.
fn replay_mesh(
    spec: &Spec,
    schedule: &Schedule,
    steps: &adapter::Steps,
    paced: bool,
    tr: &mut Tracer,
) -> Replay {
    let shards = spec.shape.shards.max(1);
    let (mut mesh, new_s) = tr.time("runtime.mesh.new", || {
        adapter::mesh_new(spec.kind, &spec.shape, shards, spec.shape.width, paced)
    });
    let ((), run_s) = tr.time("runtime.mesh.run", || mesh.run(schedule, steps));
    let (out, finish_s) = tr.time("runtime.mesh.finish", || mesh.finish());
    Replay {
        keys: out.keys,
        samples: out.samples,
        wall_s: new_s + run_s + finish_s,
        chain: None,
        mesh: Some(MeshStats {
            new_s,
            run_s,
            finish_s,
            moved_tuples: out.moved_tuples,
            reshards: out.reshards,
        }),
    }
}

/// Replays through the workload's own entry point: the mesh (with its
/// split/merge plan) for meshed workloads, a fixed chain otherwise.
fn replay(spec: &Spec, schedule: &Schedule, paced: bool, tr: &mut Tracer) -> Replay {
    if spec.meshed() {
        let steps = spec.steps(adapter::event_count(schedule));
        replay_mesh(spec, schedule, &steps, paced, tr)
    } else {
        replay_chain(spec, schedule, paced, tr)
    }
}

fn describe_latency(what: &str, lat: &Latency) {
    let p999 = lat
        .p999_ms
        .map_or("n/a (fewer than 10 samples beyond it)".to_string(), |v| {
            format!("{v:.4} ms")
        });
    println!(
        "# {what}: p50 {:.4} ms, p99 {:.4} ms, p99.9 {p999} over n={} samples \
         ({} untimed); p50 first/last quarter {:.4}/{:.4} ms",
        lat.p50_ms, lat.p99_ms, lat.n, lat.untimed, lat.p50_first_ms, lat.p50_last_ms
    );
}

/// Generates `parts` consecutive schedules of `tuples` tuples per stream
/// and constructs the workload's entry point, timed as one set-up.
fn set_up(
    spec: &Spec,
    tuples: usize,
    parts: usize,
    seed: u64,
    tr: &mut Tracer,
) -> (Vec<Schedule>, f64) {
    let open = tr.enter("setup");
    let (arrivals, _) = tr.time("workload.gen", || {
        adapter::generate(spec.kind, spec.domain, spec.rate, tuples * parts, seed)
    });
    let (schedules, _) = tr.time("driver.schedule", || {
        adapter::split(arrivals, parts)
            .into_iter()
            .map(|part| adapter::build_schedule(part, spec.window_us))
            .collect()
    });
    let mesh = if spec.meshed() {
        let shards = spec.shape.shards;
        Some(
            tr.time("runtime.mesh.new", || {
                adapter::mesh_new(spec.kind, &spec.shape, shards, spec.shape.width, true)
            })
            .0,
        )
    } else {
        drop(tr.time("runtime.construct", || {
            adapter::chain_nodes(spec.kind, spec.shape.width)
        }));
        None
    };
    let secs = tr.exit(open);
    // Drain the unused mesh outside the timed set-up.
    drop(mesh.map(Mesh::finish));
    (schedules, secs)
}

/// Tuples per stream of one fixed-rate repetition, and the number of
/// repetitions.
fn fixed_plan(args: &Args) -> (usize, usize) {
    let spec = &args.spec;
    let tuples = ((spec.rate * FIXED_REP_S) as usize).max(FIXED_REP_WINDOWS * spec.resident());
    let reps = (spec.rate * args.seconds * FIXED_SHARE / tuples as f64) as usize;
    (tuples, if args.tiny { 1 } else { reps.max(3) })
}

/// Result of one ladder rung.
struct Rung {
    rate: f64,
    pass: bool,
}

/// The sustainable rate: the highest rung of a fixed ladder of rates
/// `rate · RUNG_STEP^(k / RUNG_SPLIT)` at which a replay of the same tuples
/// meets all three conditions.  The ladder is walked in strides of
/// `RUNG_SPLIT` rungs up to the first failure, then rung by rung from the
/// last passing stride, stopping at the first failure — the same answer as
/// a rung-by-rung walk whenever passing is monotone in the rate, at a
/// fraction of the rungs.  Returns 0 when even the fixed rate fails.
fn ladder(args: &Args, tr: &mut Tracer) -> (f64, Vec<Rung>) {
    let max_strides = if args.tiny { 1 } else { MAX_STRIDES };
    let mut rungs = Vec::new();
    let mut base = None;
    for stride in 0..max_strides {
        let rung = run_rung(args, stride * RUNG_SPLIT, tr);
        let pass = rung.pass;
        rungs.push(rung);
        if !pass {
            break;
        }
        base = Some(stride * RUNG_SPLIT);
    }
    let Some(base) = base else {
        return (0.0, rungs);
    };
    let mut sustainable = args.spec.rate * rung_ratio(base);
    if rungs.last().is_some_and(|r| !r.pass) {
        for k in base + 1..base + RUNG_SPLIT {
            let rung = run_rung(args, k, tr);
            let (pass, rate) = (rung.pass, rung.rate);
            rungs.push(rung);
            if !pass {
                break;
            }
            sustainable = rate;
        }
    }
    (sustainable, rungs)
}

fn rung_ratio(k: usize) -> f64 {
    RUNG_STEP.powf(k as f64 / RUNG_SPLIT as f64)
}

/// Replays ladder rung `k` until an attempt passes or the attempts run out.
fn run_rung(args: &Args, k: usize, tr: &mut Tracer) -> Rung {
    let spec = &args.spec;
    let rate = spec.rate * rung_ratio(k);
    let window_us = (spec.window_us as f64 * spec.rate / rate).round() as u64;
    let tuples = ((rate * args.seconds * RUNG_SHARE) as usize).max(RUNG_WINDOWS * spec.resident());
    let schedule = adapter::build_schedule(
        adapter::generate(spec.kind, spec.domain, rate, tuples, args.seed),
        window_us,
    );
    let oracle = adapter::kang_keys(spec.kind, &schedule);
    // A rung fails when all its attempts fail: a scheduler stall must not
    // end the ladder, a real overload fails every attempt.
    let attempts = if args.tiny { 1 } else { RUNG_ATTEMPTS };
    let pass = (0..attempts).any(|attempt| {
        rung_attempt(
            spec, k, attempt, rate, window_us, tuples, &schedule, &oracle, tr,
        )
    });
    Rung { rate, pass }
}

/// One paced replay of a rung; true when it meets all three conditions.
#[allow(clippy::too_many_arguments)]
fn rung_attempt(
    spec: &Spec,
    k: usize,
    attempt: usize,
    rate: f64,
    window_us: u64,
    tuples: usize,
    schedule: &Schedule,
    oracle: &Keys,
    tr: &mut Tracer,
) -> bool {
    let run = replay(spec, schedule, true, tr);
    let (missing, spurious) = stats::diff(&run.keys, oracle);
    let lat = stats::latency(&run.samples);
    let (exact, flat, under) = match &lat {
        Some(l) => (
            missing + spurious == 0,
            l.p50_last_ms <= BACKLOG_FACTOR * l.p50_first_ms,
            l.quantile_ms(spec.limit_pct) <= spec.limit_ms,
        ),
        None => (false, false, false),
    };
    let pass = exact && flat && under;
    println!(
        "# rung {k}.{attempt}: {rate:.0} tuples/s per stream, window {:.1} ms, {tuples} tuples/stream: \
         kang {} pairs, missing {missing}, spurious {spurious}; {}; exact={exact} \
         backlog_flat={flat} p{}_under_{}ms={under} -> {} ({:.2} s)",
        window_us as f64 / 1e3,
        oracle.len(),
        lat.as_ref().map_or("no samples".to_string(), |l| format!(
            "p50 {:.4} ms p95 {:.4} ms p99 {:.4} ms n={} first/last-quarter p50 {:.4}/{:.4} ms",
            l.p50_ms, l.quantile_ms(0.95), l.p99_ms, l.n, l.p50_first_ms, l.p50_last_ms
        )),
        spec.limit_pct * 100.0,
        spec.limit_ms,
        if pass { "pass" } else { "fail" },
        run.wall_s
    );
    pass
}

fn end_to_end(args: &Args, metrics: &mut Metrics, tally: &mut Tally) {
    let spec = &args.spec;
    let mut tr = Tracer::new(false, String::new());
    let (tuples, reps) = fixed_plan(args);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut schedules = Vec::new();
    for _ in 0..SETUP_REPS {
        let (s, secs) = set_up(spec, tuples, FIXED_SLICES.min(reps), args.seed, &mut tr);
        setups.push(secs);
        schedules = s;
    }

    let mut p50 = Vec::new();
    let mut rss = Vec::new();
    let mut rss_reset = true;
    // Host interference only ever adds latency and comes in episodes that
    // can spoil most repetitions of a run.  p50 is the median over
    // repetitions; the rarer p99 is taken over the pooled samples of the
    // quietest quarter of the repetitions (those with the lowest own p99).
    // Only that quarter's samples are kept, so the bookkeeping does not
    // grow into the peak RSS of later repetitions.
    let keep = reps.div_ceil(4);
    let mut quietest: Vec<(f64, Vec<u64>)> = Vec::with_capacity(keep + 1);
    let mut samples = 0;
    let oracles: Vec<Keys> = schedules
        .iter()
        .map(|s| adapter::kang_keys(spec.kind, s))
        .collect();
    for rep in 0..reps {
        let (schedule, oracle) = (
            &schedules[rep % schedules.len()],
            &oracles[rep % oracles.len()],
        );
        rss_reset &= host::reset_peak_rss();
        let run = replay(spec, schedule, true, &mut tr);
        rss.push(host::peak_rss_mb());
        tally.check(&format!("fixed-rate rep {rep}"), &run.keys, oracle);
        if let Some(lat) = stats::latency(&run.samples) {
            describe_latency(
                &format!(
                    "fixed-rate rep {rep} ({:.0} tuples/s per stream)",
                    spec.rate
                ),
                &lat,
            );
            p50.push(lat.p50_ms);
            samples += lat.n;
            quietest.push((
                lat.p99_ms,
                run.samples.iter().filter_map(|s| s.latency_us).collect(),
            ));
            quietest.sort_by(|a, b| a.0.total_cmp(&b.0));
            quietest.truncate(keep);
        }
    }
    let mut quiet: Vec<u64> = quietest.into_iter().flat_map(|(_, l)| l).collect();
    quiet.sort_unstable();

    assert!(
        !quiet.is_empty(),
        "the fixed-rate repetitions produced no timed results"
    );
    println!(
        "# latency over {reps} repetitions of {tuples} tuples/stream, {samples} samples: p50 is the \
         median of the repetitions' p50, p99 is over the {} samples of the quietest quarter",
        quiet.len()
    );
    metrics.put("latency_p50_ms", stats::median(p50), "ms");
    metrics.put("latency_p99_ms", stats::quantile_ms(&quiet, 0.99), "ms");
    metrics.put("setup_s", stats::median(setups), "s");
    if !rss_reset {
        println!("# peak RSS: high-water mark reset unavailable, figures cover the whole process");
    }
    // The median over repetitions of each replay's own peak.
    metrics.put("peak_rss_mb", stats::median(rss), "MB");
}

fn traced(args: &Args, metrics: &mut Metrics, tally: &mut Tally) {
    let spec = &args.spec;
    let run_id = format!("{}-{}-{}", spec.name, args.seed, std::process::id());
    let mut tr = Tracer::new(true, run_id);
    let root = tr.enter("bench");
    let tuples = ((spec.rate * args.seconds * TRACE_SHARE) as usize)
        .max(FIXED_REP_WINDOWS * spec.resident());
    let (mut schedules, _) = set_up(spec, tuples, 1, args.seed, &mut tr);
    let schedule = schedules.pop().expect("one schedule");
    let steps = spec.steps(adapter::event_count(&schedule));

    // The untraced twin of the traced replay below: tracing overhead is
    // the difference between the two.
    let open = tr.enter("untraced");
    tr.set_enabled(false);
    let plain = replay(spec, &schedule, true, &mut tr);
    tr.set_enabled(true);
    tr.exit(open);
    let main_open = tr.enter("main");
    let main = replay(spec, &schedule, true, &mut tr);
    tr.exit(main_open);

    let (oracle, kang_s) = tr.time("oracle.kang", || adapter::kang_keys(spec.kind, &schedule));
    let open = tr.enter("oracle.compare");
    tally.check("untraced replay", &plain.keys, &oracle);
    tally.check("traced replay", &main.keys, &oracle);
    tr.exit(open);

    let plain_lat = stats::latency(&plain.samples);
    let main_lat = stats::latency(&main.samples);
    if let Some(l) = &plain_lat {
        describe_latency("untraced replay", l);
    }
    if let Some(l) = &main_lat {
        describe_latency("traced replay", l);
    }

    // The other entry point, on the same schedule: a fixed chain at the
    // mesh's starting shape for meshed workloads, a one-shard mesh of the
    // chain's shape otherwise — so every layer is measured on every
    // workload.
    let probe_open = tr.enter("probe");
    let probe = if spec.meshed() {
        replay_chain(spec, &schedule, true, &mut tr)
    } else {
        replay_mesh(spec, &schedule, &Vec::new(), true, &mut tr)
    };
    tr.exit(probe_open);
    let (missing, spurious) = stats::diff(&probe.keys, &oracle);
    println!(
        "# probe through the other entry point: missing {missing}, spurious {spurious} (diagnostic)"
    );
    let (chain, mesh) = if spec.meshed() {
        (
            probe.chain.expect("chain probe"),
            main.mesh.expect("meshed replay"),
        )
    } else {
        (
            main.chain.expect("chain replay"),
            probe.mesh.expect("mesh probe"),
        )
    };

    let reps = if args.tiny { 3 } else { 15 };
    let (store, _) = tr.time("core.store", || {
        adapter::store_costs(spec.kind, &schedule, spec.resident(), reps)
    });
    let rounds = if args.tiny { 5 } else { 41 };
    let (hops, _) = tr.time("runtime.ring", || adapter::ring_hop_ns(&[1, 64], rounds));

    // The sustainable rate, untraced like the comparison replay.
    let open = tr.enter("ladder");
    tr.set_enabled(false);
    let (sustainable, rungs) = ladder(args, &mut tr);
    tr.set_enabled(true);
    tr.exit(open);
    println!(
        "# ladder: {} rungs run, {} passed; conditions: exact vs kang, last/first quarter p50 <= {BACKLOG_FACTOR}x, p{} <= {} ms",
        rungs.len(),
        rungs.iter().filter(|r| r.pass).count(),
        spec.limit_pct * 100.0,
        spec.limit_ms
    );
    if let Some(last) = rungs.last() {
        println!(
            "# ladder stopped at {:.0} tuples/s per stream ({})",
            last.rate,
            if last.pass {
                "last rung below the failing stride"
            } else {
                "first failing rung"
            }
        );
    }

    let open = tr.enter("diag.unpaced");
    let unpaced = replay(spec, &schedule, false, &mut tr);
    tr.exit(open);
    let (missing, spurious) = stats::diff(&unpaced.keys, &oracle);
    println!(
        "# unpaced diagnostic: {} pairs vs kang {}, missing {missing}, spurious {spurious} (not counted as failures)",
        unpaced.keys.len(),
        oracle.len()
    );

    let (sim, _) = tr.time("sim.run", || {
        adapter::sim_latencies_us(
            spec.kind,
            &spec.shape,
            &schedule,
            spec.window_us,
            spec.rate,
            &steps,
        )
    });
    tr.exit(root);

    let n = adapter::tuples_per_stream(&schedule) as f64;
    let r = &chain.record;
    let measured_p50 = plain_lat.as_ref().map_or(f64::NAN, |l| l.p50_ms);
    let mut sim_sorted = sim;
    sim_sorted.sort_unstable();
    let sim_p50 = if sim_sorted.is_empty() {
        f64::NAN
    } else {
        stats::quantile_ms(&sim_sorted, 0.5)
    };
    println!(
        "# sim: p50 {sim_p50:.4} ms over {} simulated results",
        sim_sorted.len()
    );
    println!(
        "# mesh: {} reshards, {} tuples moved",
        mesh.reshards, mesh.moved_tuples
    );

    metrics.put(
        "core.store.scan_ns_per_tuple",
        store.scan_ns_per_tuple,
        "ns",
    );
    metrics.put("core.store.probe_ns", store.probe_ns, "ns");
    metrics.put("core.store.insert_ns", store.insert_ns, "ns");
    metrics.put("core.store.expire_ns", store.expire_ns, "ns");
    metrics.put(
        "core.node.comparisons_per_arrival",
        r.comparisons as f64 / (2 * r.arrivals).max(1) as f64,
        "count",
    );
    metrics.put(
        "core.node.window_peak_tuples",
        r.window_peak_tuples as f64,
        "count",
    );
    metrics.put("runtime.ring.hop_ns_b1", hops[0], "ns");
    metrics.put("runtime.ring.hop_ns_b64", hops[1], "ns");
    metrics.put(
        "runtime.pipeline.frames_per_ktuple",
        r.frames as f64 * 1e3 / (2 * r.arrivals).max(1) as f64,
        "count",
    );
    metrics.put(
        "runtime.pipeline.batch_allocs_per_kframe",
        r.batch_allocs as f64 * 1e3 / r.frames.max(1) as f64,
        "count",
    );
    metrics.put(
        "runtime.pipeline.idle_wakeups_per_s",
        r.idle_wakeups as f64 / r.call_s,
        "1/s",
    );
    metrics.put(
        "runtime.pipeline.cpu_us_per_tuple",
        chain.cpu_s * 1e6 / (2 * r.arrivals).max(1) as f64,
        "us",
    );
    metrics.put("runtime.pipeline.tail_ms", chain.tail_ms, "ms");
    metrics.put("runtime.pipeline.unpaced_tps", n / unpaced.wall_s, "1/s");
    metrics.put(
        "runtime.pipeline.unpaced_error_ratio",
        (missing + spurious) as f64 / oracle.len().max(1) as f64,
        "ratio",
    );
    metrics.put("runtime.mesh.new_s", mesh.new_s, "s");
    metrics.put("runtime.mesh.run_s", mesh.run_s, "s");
    metrics.put("runtime.mesh.finish_s", mesh.finish_s, "s");
    metrics.put(
        "runtime.mesh.moved_tuples",
        mesh.moved_tuples as f64,
        "count",
    );
    metrics.put(
        "core.shard.hot_shard_share",
        adapter::hot_shard_share(spec.kind, &schedule, &steps),
        "ratio",
    );
    metrics.put("runtime.ladder.sustainable_tps", sustainable, "1/s");
    metrics.put("baselines.kang.tps", n / kang_s, "1/s");
    metrics.put("workload.gen_s", tr.self_ms("workload.gen") / 1e3, "s");
    metrics.put("sim.latency_p50_ms", sim_p50, "ms");
    metrics.put("sim.gap_p50", measured_p50 / sim_p50, "ratio");
    if let (Some(t), Some(u)) = (&main_lat, &plain_lat) {
        metrics.put("trace.overhead_p50_ms", t.p50_ms - u.p50_ms, "ms");
        metrics.put("trace.overhead_p99_ms", t.p99_ms - u.p99_ms, "ms");
    }
    for name in SPANS {
        metrics.put(self_metric(name), tr.self_ms(name), "ms");
    }

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-{}.json", spec.name, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.to_json())) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => println!("# spans not written ({e})"),
    }
}

/// `self_ms.<span>`, with a static lifetime for the metric table.
fn self_metric(span: &str) -> &'static str {
    Box::leak(format!("self_ms.{span}").into_boxed_str())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            eprintln!("usage: e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]");
            return ExitCode::from(2);
        }
    };
    let pinning = adapter::pinning_available(args.spec.shape.width + 2);
    println!("# host {}", host::describe(args.seed, pinning));
    println!(
        "# workload {}: {:.0} tuples/s per stream, window {} ms, batch {}, width {}, {} mode",
        args.spec.name,
        args.spec.rate,
        args.spec.window_us / 1000,
        args.spec.shape.batch,
        args.spec.shape.width,
        if args.trace {
            "traced (per-layer)"
        } else {
            "end-to-end"
        }
    );
    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    if args.trace {
        traced(&args, &mut metrics, &mut tally);
    } else {
        end_to_end(&args, &mut metrics, &mut tally);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        metrics.json()
    );
    ExitCode::SUCCESS
}
