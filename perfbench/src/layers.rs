//! The traced run: per-layer numbers for one workload, measured from
//! outside the crates by timing calls to each layer's public functions.
//!
//! Every workload breaks down the same five [`LAYER_CELLS`] over its own
//! trace (the node workload uses its first tenant's benchmark), so every
//! traced run reports every per-layer metric. Layers a workload never
//! reaches report zero: only the node workload has context switches.

use crate::json;
use crate::measure::{
    buffers, fastest, ratio, sum_fastest, timed, Checks, Metrics, Window, MAX_PASSES,
};
use crate::spans::{traced_replay, Layer, SpanLog, LAYERS};
use crate::workloads::{
    self, build, nproc, Cell, Kind, Report, TraceSpec, EPOCH_LEN, LAYER_CELLS, SHARD_CELLS,
};
use dmt_sim::{Engine, Env, RunStats, Runner, Setup, ShardSource, SimError};
use dmt_trace::{TraceFile, TraceMeta, TraceWriter};

/// The trace whose layers the traced run breaks down.
fn layer_spec(kind: Kind) -> TraceSpec {
    match kind {
        Kind::Replay(s) | Kind::Sharded(s) => TraceSpec {
            cells: &LAYER_CELLS,
            ..s
        },
        Kind::Node(n) => TraceSpec {
            bench: 0,
            thp: false,
            mult: n.mult,
            accesses: 4 * EPOCH_LEN,
            warmup: 8_192,
            cells: &LAYER_CELLS,
        },
    }
}

fn cell_index(cell: Cell) -> usize {
    LAYER_CELLS
        .iter()
        .position(|c| c.key() == cell.key())
        .expect("shard cells are layer cells")
}

/// Accesses the shard survey replays at least: four epochs, and one per
/// shard worker, so that every worker gets whole epochs and interior
/// barriers exist.
fn shard_survey_len() -> usize {
    nproc().max(4) * EPOCH_LEN
}

/// Per cell and layer, the pass with the least self time: its summary
/// row and the run id it came from.
type Best = [((u64, u64, u64), u32); LAYERS.len()];

/// Run the per-layer survey of workload `name`.
pub fn run(
    kind: Kind,
    seed: u64,
    window: &Window,
    checks: &mut Checks,
) -> Result<Report, SimError> {
    let spec = layer_spec(kind);
    let w = spec.workload();
    let cells = spec.cells;
    let n = cells.len();
    let batched = Runner::builder().build();
    let scalar = Runner::builder().engine(Engine::Scalar).build();
    let telemetry = Runner::builder().telemetry(true).build();
    let mut m = Metrics::default();

    // Rounds: trace, Setup, then per cell a fresh rig each for the scalar
    // engine, the batched engine, the traced pipeline and (shard cells)
    // telemetry. Every host time below is the fastest of the rounds.
    let phase = Window::new(0.6 * window.seconds(), 3, 8);
    let mut trace_s = Vec::with_capacity(MAX_PASSES);
    let mut setup_s = Vec::with_capacity(MAX_PASSES);
    let mut build_s = buffers(n);
    let mut scalar_s = buffers(n);
    let mut batched_s = buffers(n);
    let mut traced_s = buffers(n);
    let mut telem_s = buffers(n);
    let mut stats: Vec<Option<RunStats>> = vec![None; n];
    let mut same = vec![true; n];
    let mut traced_same = vec![true; n];
    let mut best: Vec<Option<Best>> = vec![None; n];
    let mut first_traced = Vec::with_capacity(n);
    let mut log = SpanLog::new(0, spec.accesses * 5 + spec.accesses / 128);
    let mut sample = String::new();
    let mut buddy = (0u64, 0u64);
    let mut rounds = 0;
    while phase.open(rounds) {
        let (trace, t) = timed(|| w.trace(spec.accesses, seed));
        trace_s.push(t);
        let (setup, t) = timed(|| Setup::of_workload(w.as_ref(), &trace));
        setup_s.push(t);
        for (c, cell) in cells.iter().enumerate() {
            for (runner, times) in [(&scalar, &mut scalar_s[c]), (&batched, &mut batched_s[c])] {
                let (rig, t) = timed(|| build(runner, *cell, spec.thp, &setup));
                let mut rig = rig?;
                build_s[c].push(t);
                if rounds == 0 && runner.engine() == Engine::Batched {
                    let cc = rig.component_counters();
                    buddy.0 += cc.alloc_splits;
                    buddy.1 += cc.alloc_merges;
                }
                let ((s, _), t) = timed(|| runner.replay(rig.as_mut(), &trace, spec.warmup));
                times.push(t);
                same[c] &= *stats[c].get_or_insert(s) == s;
            }
            if SHARD_CELLS.iter().any(|s| s.key() == cell.key()) {
                let mut rig = build(&telemetry, *cell, spec.thp, &setup)?;
                let ((s, _), t) = timed(|| telemetry.replay(rig.as_mut(), &trace, spec.warmup));
                telem_s[c].push(t);
                same[c] &= stats[c] == Some(s);
            }

            let mut rig = build(&batched, *cell, spec.thp, &setup)?;
            log.restart((rounds * n + c) as u32);
            let t = traced_replay(rig.as_mut(), &trace, spec.warmup, &mut log);
            traced_s[c].push(t.wall_s);
            traced_same[c] &= stats[c] == Some(t.stats);
            let sum = log.summary();
            let b = best[c].get_or_insert([((0, 0, u64::MAX), log.run); LAYERS.len()]);
            for (slot, row) in b.iter_mut().zip(sum) {
                if row.2 < slot.0 .2 {
                    *slot = (row, log.run);
                }
            }
            if rounds == 0 {
                if c == 0 {
                    sample = span_sample(&log);
                }
                first_traced.push((t, rig.component_counters()));
            }
        }
        rounds += 1;
    }
    let trace = w.trace(spec.accesses, seed);
    let setup = Setup::of_workload(w.as_ref(), &trace);
    let pages = setup.pages.len() as f64;
    for (c, cell) in cells.iter().enumerate() {
        checks.check(same[c], || {
            format!(
                "{}: scalar, batched and telemetry replays disagree",
                cell.key()
            )
        });
        checks.check(traced_same[c], || {
            format!(
                "{}: traced {:?} != replay {:?}",
                cell.key(),
                first_traced[c].0.stats,
                stats[c]
            )
        });
    }
    m.put("workloads.trace_s", fastest(&trace_s), "s");
    m.put("sim.rig.setup_s", fastest(&setup_s), "s");
    for env in [Env::Native, Env::Virt] {
        let of_env: Vec<f64> = cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.env == env)
            .map(|(i, _)| fastest(&build_s[i]))
            .collect();
        let mean = of_env.iter().sum::<f64>() / of_env.len() as f64;
        let key = if env == Env::Native { "native" } else { "virt" };
        m.put(format!("sim.runner.build_rig_s.{key}"), mean, "s");
        m.put(
            format!("sim.runner.build_us_per_page.{key}"),
            mean / pages * 1e6,
            "us",
        );
    }
    m.put("mem.buddy_splits", buddy.0 as f64, "count");
    m.put("mem.buddy_merges", buddy.1 as f64, "count");

    // The traced scalar pipeline: simulated counts from the first round,
    // self times from each layer's fastest round.
    let best: Vec<Best> = best
        .into_iter()
        .map(|b| b.expect("at least one round"))
        .collect();
    let (mut tlb_hits, mut tlb_lookups) = (0u64, 0u64);
    let (mut pwc_hits, mut pwc_lookups) = (0u64, 0u64);
    let mut pte = [0u64; 4];
    let mut walks = 0u64;
    for (t, cc) in &first_traced {
        tlb_hits += t.tlb.l1_hits + t.tlb.stlb_hits;
        tlb_lookups += t.tlb.total();
        pwc_hits += cc.pwc_l2_hits + cc.pwc_l3_hits + cc.pwc_l4_hits;
        pwc_lookups += cc.pwc_l2_hits + cc.pwc_l3_hits + cc.pwc_l4_hits + cc.pwc_misses;
        for (acc, v) in pte.iter_mut().zip(t.pte) {
            *acc += v;
        }
        walks += t.stats.walks;
    }
    // Leaf layers: mean self time per call over every cell.
    let per_call = |layer: Layer| {
        let calls: u64 = best.iter().map(|b| b[layer as usize].0 .0).sum();
        let selft: u64 = best.iter().map(|b| b[layer as usize].0 .2).sum();
        ratio(selft as f64, calls as f64)
    };
    for (c, cell) in cells.iter().enumerate() {
        let (calls, _, selft) = best[c][Layer::Translate as usize].0;
        m.put(
            format!("sim.backends.translate_ns.{}", cell.key()),
            ratio(selft as f64, calls as f64),
            "ns",
        );
        let s = first_traced[c].0.stats;
        m.put(
            format!("sim.backends.refs_per_walk.{}", cell.key()),
            ratio(s.walk_refs as f64, s.walks as f64),
            "refs",
        );
    }
    m.put("cache.tlb.lookup_ns", per_call(Layer::Lookup), "ns");
    m.put(
        "cache.tlb.probe_block_ns",
        per_call(Layer::ProbeBlock),
        "ns",
    );
    m.put("cache.tlb.fill_ns", per_call(Layer::Fill), "ns");
    m.put(
        "cache.tlb.hit_ratio",
        ratio(tlb_hits as f64, tlb_lookups as f64),
        "ratio",
    );
    m.put("sim.rig.data_pa_ns", per_call(Layer::DataPa), "ns");
    m.put(
        "cache.hierarchy.access_ns",
        per_call(Layer::HierAccess),
        "ns",
    );
    for (level, v) in ["l1", "l2", "llc", "dram"].iter().zip(pte) {
        m.put(
            format!("cache.hierarchy.pte_{level}_per_walk"),
            ratio(v as f64, walks as f64),
            "fetches",
        );
    }
    m.put(
        "cache.pwc.hit_ratio",
        ratio(pwc_hits as f64, pwc_lookups as f64),
        "ratio",
    );
    for (c, cell) in cells.iter().enumerate() {
        m.put(
            format!("sim.engine.batch_speedup.{}", cell.key()),
            fastest(&scalar_s[c]) / fastest(&batched_s[c]),
            "x",
        );
    }

    // Trace codec and sharded replay, over a trace long enough that each
    // of the K workers replays whole epochs.
    let long;
    let (strace, ssetup) = if spec.accesses >= shard_survey_len() {
        (&trace, &setup)
    } else {
        let t = w.trace(shard_survey_len(), seed);
        let s = Setup::of_workload(w.as_ref(), &t);
        long = (t, s);
        (&long.0, &long.1)
    };
    let phase = Window::new(0.25 * window.seconds(), 3, 8);
    let meta = TraceMeta::of_workload(w.as_ref()).chunked(workloads::CHUNK_LEN);
    let mut encode_s = Vec::with_capacity(MAX_PASSES);
    let mut decode_s = Vec::with_capacity(MAX_PASSES);
    let mut bytes = Vec::new();
    let k = nproc();
    let one = Runner::builder().shards(1).epoch_len(EPOCH_LEN).build();
    let many = Runner::builder().shards(k).epoch_len(EPOCH_LEN).build();
    let mut k1_s = buffers(SHARD_CELLS.len());
    let mut kn_s = buffers(SHARD_CELLS.len());
    let mut epochs_s = buffers(SHARD_CELLS.len());
    let mut plain_s = buffers(SHARD_CELLS.len());
    let mut shard_ok = true;
    let mut rounds_b = 0;
    let mut decoded = Vec::with_capacity(strace.len());
    while phase.open(rounds_b) {
        let (r, t) = timed(|| -> std::io::Result<Vec<u8>> {
            let mut buf = Vec::new();
            let mut tw = TraceWriter::new(&mut buf, &meta)?;
            tw.push_all(strace.iter().copied())?;
            tw.finish()?;
            Ok(buf)
        });
        bytes = r?;
        encode_s.push(t);
        let file = TraceFile::from_bytes(bytes.clone())?;
        decoded.clear();
        let (r, t) = timed(|| -> Result<(), dmt_trace::TraceError> {
            for i in 0..file.chunk_count() {
                file.decode_chunk(i, &mut decoded)?;
            }
            Ok(())
        });
        r?;
        decode_s.push(t);
        for (i, cell) in SHARD_CELLS.iter().enumerate() {
            let sharded = |runner: &Runner| {
                timed(|| {
                    runner.replay_sharded(
                        cell.env,
                        cell.design,
                        spec.thp,
                        ssetup,
                        ShardSource::File(&file),
                        spec.warmup,
                        0,
                    )
                })
            };
            let (a, t) = sharded(&one);
            k1_s[i].push(t);
            let (b, t) = crate::alloc::pause_peak(|| sharded(&many));
            kn_s[i].push(t);
            let mut rig = build(&batched, *cell, spec.thp, ssetup)?;
            let (serial, t) = timed(|| {
                one.replay_epochs_serial(rig.as_mut(), ShardSource::File(&file), spec.warmup, 0)
            });
            epochs_s[i].push(t);
            let mut rig = build(&batched, *cell, spec.thp, ssetup)?;
            let (_, t) = timed(|| batched.replay(rig.as_mut(), strace, spec.warmup));
            plain_s[i].push(t);
            let (a, b, (serial, _)) = (a?, b?, serial?);
            shard_ok &= a.stats == serial && b.stats == serial && a.alloc_hash == b.alloc_hash;
        }
        rounds_b += 1;
    }
    checks.check(decoded == *strace, || {
        "decoded chunks differ from the encoded trace".into()
    });
    checks.check(shard_ok, || {
        "sharded replay disagrees with serial epoch replay".into()
    });
    let accesses = strace.len() as f64;
    m.put(
        "trace.encode_ns_per_access",
        fastest(&encode_s) / accesses * 1e9,
        "ns",
    );
    m.put(
        "trace.decode_ns_per_access",
        fastest(&decode_s) / accesses * 1e9,
        "ns",
    );
    m.put(
        "trace.bytes_per_access",
        bytes.len() as f64 / accesses,
        "bytes",
    );
    m.put(
        "sim.shard.speedup",
        sum_fastest(&k1_s) / sum_fastest(&kn_s),
        "x",
    );
    m.put(
        "sim.shard.barrier_frac",
        sum_fastest(&epochs_s) / sum_fastest(&plain_s) - 1.0,
        "ratio",
    );

    // The cloud node's own layer, on the node workload only.
    let node = match kind {
        Kind::Node(spec) => Some(node_layer(spec, seed, window, checks)?),
        _ => None,
    };
    let (switches, flushes, shootdowns, restarts, churn_s) = node.unwrap_or_default();
    m.put("sim.cloudnode.switches_per_kacc", switches, "1/kacc");
    m.put("sim.cloudnode.tagged_flushes_per_kacc", flushes, "1/kacc");
    m.put("sim.cloudnode.shootdowns_per_kacc", shootdowns, "1/kacc");
    m.put("sim.cloudnode.restarts_per_kacc", restarts, "1/kacc");
    m.put("sim.cloudnode.churn_s", churn_s, "s");

    let of_shard_cells = |v: &[Vec<f64>]| -> f64 {
        SHARD_CELLS
            .iter()
            .map(|c| fastest(&v[cell_index(*c)]))
            .sum()
    };
    m.put(
        "telemetry.overhead_frac",
        of_shard_cells(&telem_s) / of_shard_cells(&batched_s) - 1.0,
        "ratio",
    );
    m.put(
        "bench.trace_overhead_frac",
        sum_fastest(&traced_s) / sum_fastest(&scalar_s) - 1.0,
        "ratio",
    );

    let mut rows = Vec::new();
    for (cell, b) in cells.iter().zip(&best) {
        for (l, ((calls, total, selft), run)) in LAYERS.iter().zip(b) {
            let mut o = json::Obj::default();
            o.num("run", *run as f64);
            o.str("cell", &cell.key());
            o.str("layer", l.name());
            o.num("calls", *calls as f64);
            o.num("total_ns", *total as f64);
            o.num("self_ns", *selft as f64);
            rows.push(o.render());
        }
    }
    let mut layers = json::Obj::default();
    layers.raw("spans", &format!("[{}]", rows.join(",")));
    layers.raw("first_spans_of_run_0", &sample);

    let shape = vec![
        ("layer_bench", w.name().to_string()),
        ("layer_thp", spec.thp.to_string()),
        ("layer_accesses", spec.accesses.to_string()),
        ("layer_touched_pages", setup.pages.len().to_string()),
        (
            "layer_cells",
            cells.iter().map(Cell::key).collect::<Vec<_>>().join(","),
        ),
        ("shard_survey_accesses", strace.len().to_string()),
        ("rounds", format!("{rounds}+{rounds_b}")),
    ];
    Ok(Report {
        metrics: m,
        passes: rounds,
        shape,
        layers: Some(layers.render()),
    })
}

/// The first spans of `log`, as `[start, end, parent, layer]` rows.
fn span_sample(log: &SpanLog) -> String {
    let first: Vec<String> = log
        .spans
        .iter()
        .take(64)
        .map(|s| {
            format!(
                "[{},{},{},{}]",
                s.start,
                s.end,
                s.parent as i64,
                json::quote(s.layer.name())
            )
        })
        .collect();
    format!("[{}]", first.join(","))
}

/// Node-layer event rates (per thousand measured accesses) and the host
/// time churn adds, from runs with and without kill/restart churn.
fn node_layer(
    spec: workloads::NodeSpec,
    seed: u64,
    window: &Window,
    checks: &mut Checks,
) -> Result<(f64, f64, f64, f64, f64), SimError> {
    let runner = Runner::builder().build();
    let phase = Window::new(0.2 * window.seconds(), 2, 6);
    let mut with_s = buffers(spec.designs.len());
    let mut without_s = buffers(spec.designs.len());
    let mut events = [0u64; 5];
    let mut rounds = 0;
    let mut same = true;
    while phase.open(rounds) {
        let mut now = [0u64; 5];
        for (i, &d) in spec.designs.iter().enumerate() {
            let (r, t) = timed(|| runner.run_node(&spec.config(d, seed, spec.accesses, true)));
            let (s, _) = r?;
            with_s[i].push(t);
            let (r, t) = timed(|| runner.run_node(&spec.config(d, seed, spec.accesses, false)));
            r?;
            without_s[i].push(t);
            now[0] += s.node.accesses;
            now[1] += s.context_switches;
            now[2] += s.tagged_flushes;
            now[3] += s.cross_tenant_shootdowns;
            now[4] += s
                .tenants
                .iter()
                .map(|t| u64::from(t.incarnations - 1))
                .sum::<u64>();
        }
        same &= rounds == 0 || now == events;
        events = now;
        rounds += 1;
    }
    checks.check(same, || "node event counts differ between rounds".into());
    let per_kacc = |v: u64| v as f64 * 1e3 / events[0] as f64;
    let churn: f64 = (0..spec.designs.len())
        .map(|i| fastest(&with_s[i]) - fastest(&without_s[i]))
        .sum();
    Ok((
        per_kacc(events[1]),
        per_kacc(events[2]),
        per_kacc(events[3]),
        per_kacc(events[4]),
        churn,
    ))
}
