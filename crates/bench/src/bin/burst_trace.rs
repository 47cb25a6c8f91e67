//! `burst-trace`: run the three ring disciplines on the simulated cluster
//! and export the full observability stack — a Chrome/Perfetto timeline,
//! the plain-text flame summary, the merged metrics registry and the
//! machine-readable `BENCH_e2e.json` report.
//!
//! The harness self-validates everything it emits: every per-rank trace
//! passes the structural span checks, the Perfetto JSON round-trips
//! through serde, the metrics merge is order-independent, and on the
//! fault-free path the measured wire time must match the exact-count
//! analytic prediction from `crates/perf` within 1 % — any violation exits
//! non-zero, which is what the CI observability job keys on.
//!
//! ```text
//! cargo run -p burst-bench --bin burst-trace -- \
//!     --seq 2048 --d 64 --nodes 2 --gpn 4 --out target/burst-trace \
//!     [--fault] [--transport] [--baseline baselines/BENCH_e2e.json]
//! ```
//!
//! Every run also carries the per-rank **virtual-memory accountant**: each
//! method's ledger is validated (balanced, leak-free), its per-category
//! peak census lands in `BENCH_e2e.json`, and `mem/<category>` counter
//! tracks ride next to the span timeline in the Perfetto export — which is
//! streamed to disk through the O(step) incremental writer and checked
//! byte-identical against the buffered serialization. With `--baseline`,
//! the fresh report is gated against a committed one: a >10 % tokens/GPU/s
//! drop or a >1 % gated peak-bytes rise on any lane exits non-zero.
//!
//! A second mode compares two exported timelines span-kind by span-kind —
//! e.g. a clean run against a reliable-transport run of the same shape, to
//! see exactly where the retransmit overhead landed:
//!
//! ```text
//! cargo run -p burst-bench --bin burst-trace -- diff clean.json faulty.json
//! ```

use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::ExitCode;

use burst_comm::obs::{
    self, compare_to_baseline, flame_text, mem_counter_events, to_perfetto, to_perfetto_grouped,
    validate_mem, E2eReport, MemReport, MethodReport, PerfettoTrace, RankTrace, Registry, SpanKind,
    StreamingPerfettoWriter,
};
use burst_comm::{
    CommStats, DetectorCfg, FaultCounters, FaultPlan, Topology, TransportPolicy, WireDtype, World,
};
use burst_dattn::{escalate_attn, try_run_attention_opts, Algo, CostModel, Layout};
use burst_kernels::AttnMask;
use burst_perf::commtime::{
    exact_wire_counts_dtype, exact_wire_counts_masked_dtype, layer_comm_times, RetransCensus,
    RingMethod,
};
use burst_perf::Cluster;
use burst_tensor::randn_mat;

/// Measured wire time may diverge from the exact-count prediction by at
/// most this relative error on the fault-free path.
const MAX_COMM_REL_ERR: f64 = 0.01;

struct Args {
    seq: usize,
    d: usize,
    nodes: usize,
    gpn: usize,
    out: String,
    fault: bool,
    transport: bool,
    baseline: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seq: 2048,
        d: 64,
        nodes: 2,
        gpn: 4,
        out: "target/burst-trace".to_string(),
        fault: false,
        transport: false,
        baseline: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            argv.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag {
            "--seq" => args.seq = value("--seq")?.parse().map_err(|e| format!("--seq: {e}"))?,
            "--d" => args.d = value("--d")?.parse().map_err(|e| format!("--d: {e}"))?,
            "--nodes" => {
                args.nodes = value("--nodes")?
                    .parse()
                    .map_err(|e| format!("--nodes: {e}"))?
            }
            "--gpn" => args.gpn = value("--gpn")?.parse().map_err(|e| format!("--gpn: {e}"))?,
            "--out" => args.out = value("--out")?,
            "--fault" => args.fault = true,
            "--transport" => args.transport = true,
            "--baseline" => args.baseline = Some(value("--baseline")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    let world = args.nodes * args.gpn;
    if world == 0 || args.seq == 0 || args.d == 0 {
        return Err("--seq, --d, --nodes and --gpn must be positive".to_string());
    }
    if !args.seq.is_multiple_of(world) {
        return Err(format!("--seq {} must divide by world {world}", args.seq));
    }
    Ok(args)
}

/// One method's run: per-rank traces plus the per-rank comm/fault counters
/// and the finished per-rank memory ledgers.
struct MethodRun {
    traces: Vec<RankTrace>,
    stats: Vec<CommStats>,
    faults: Vec<FaultCounters>,
    mem: Vec<MemReport>,
}

fn run_method(
    algo: Algo,
    topo: &Topology,
    seq: usize,
    d: usize,
    mask: &AttnMask,
    layout: Layout,
    skip: bool,
) -> MethodRun {
    let g = topo.world_size();
    let q = randn_mat(seq, d, 0.7, 41);
    let k = randn_mat(seq, d, 0.7, 42);
    let v = randn_mat(seq, d, 0.7, 43);
    let grad_o = randn_mat(seq, d, 0.8, 44);
    let scale = 1.0 / (d as f32).sqrt();
    let cost = CostModel::a800();
    let world = World::new(topo.clone());
    let outs = world.run(|comm| {
        let idx = layout.indices(seq, g, comm.rank());
        let (ql, kl, vl, dol) = (
            q.gather_rows(&idx),
            k.gather_rows(&idx),
            v.gather_rows(&idx),
            grad_o.gather_rows(&idx),
        );
        comm.start_trace();
        comm.start_mem_accounting();
        try_run_attention_opts(
            algo, comm, &ql, &kl, &vl, &dol, scale, mask, layout, seq, &cost, skip,
        )
        .expect("fault-free schedule failed");
        comm.take_mem_report().expect("accounting was on")
    });
    let mut run = MethodRun {
        traces: Vec::with_capacity(g),
        stats: Vec::with_capacity(g),
        faults: Vec::with_capacity(g),
        mem: Vec::with_capacity(g),
    };
    for o in outs {
        run.stats.push(o.stats);
        run.faults.push(o.faults);
        run.mem.push(o.result);
        run.traces
            .push(o.trace.expect("tracing was on; world must return a trace"));
    }
    run
}

/// Useful FLOPs of one attention layer pass under `mask`: the same
/// 14 · d FLOPs per (query, key) pair as `obs::causal_attn_flops`, with
/// the pair count read off the mask instead of assumed dense-causal.
fn masked_attn_flops(mask: &AttnMask, seq_len: usize, head_dim: usize) -> f64 {
    14.0 * head_dim as f64 * mask.allowed_pairs(seq_len) as f64
}

/// Fold one rank's counters and span aggregates into a fresh registry.
fn rank_registry(trace: &RankTrace, stats: &CommStats, faults: &FaultCounters) -> Registry {
    let mut reg = Registry::new();
    reg.add_counter("comm/intra_msgs", stats.intra_msgs);
    reg.add_counter("comm/inter_msgs", stats.inter_msgs);
    reg.add_counter("comm/intra_bytes", stats.intra_bytes as u64);
    reg.add_counter("comm/inter_bytes", stats.inter_bytes as u64);
    reg.add_counter("comm/rounds_skipped", stats.rounds_skipped);
    reg.add_counter("comm/wire_bytes_saved", stats.skipped_bytes as u64);
    reg.add_secs("time/wait", trace.total_secs(SpanKind::Wait));
    reg.add_secs("time/compute", trace.total_secs(SpanKind::Kernel));
    let recompute: f64 = trace
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Kernel && s.name == "recompute")
        .map(|s| s.duration())
        .sum();
    reg.add_secs("time/recompute", recompute);
    reg.gauge_max("time/makespan", trace.end_time);
    reg.add_counter("faults/delays", faults.delays);
    reg.add_counter("faults/drops", faults.drops);
    reg.add_counter("faults/corruptions", faults.corruptions);
    reg.add_counter("faults/crashes", faults.crashes);
    reg.add_counter("faults/timeouts", faults.timeouts);
    reg.add_counter("faults/retries", faults.retries);
    reg.add_counter("faults/flaps", faults.flaps);
    reg.add_counter("faults/retransmits", faults.retransmits);
    reg.add_counter("faults/healed", faults.healed);
    reg.add_counter("faults/giveups", faults.giveups);
    reg.add_counter("faults/suspicions", faults.suspicions);
    reg.add_counter("comm/retrans_msgs", stats.retrans_msgs);
    reg.add_counter("comm/retrans_bytes", stats.retrans_bytes as u64);
    let retrans: f64 = trace
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Retransmit)
        .map(|s| s.duration())
        .sum();
    reg.add_secs("time/retrans", retrans);
    let bounds = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2];
    for s in trace.spans.iter().filter(|s| s.kind == SpanKind::Send) {
        reg.observe("comm/send_secs", &bounds, s.duration());
    }
    reg
}

/// Merge per-rank registries in forward and reverse rank order and check
/// both orders agree — the determinism contract CI relies on.
fn merged_metrics(run: &MethodRun) -> Result<Registry, String> {
    let per_rank: Vec<Registry> = run
        .traces
        .iter()
        .zip(&run.stats)
        .zip(&run.faults)
        .map(|((t, s), f)| rank_registry(t, s, f))
        .collect();
    let mut fwd = Registry::new();
    for r in &per_rank {
        fwd.merge_from(r);
    }
    let mut rev = Registry::new();
    for r in per_rank.iter().rev() {
        rev.merge_from(r);
    }
    if fwd.to_json() != rev.to_json() {
        return Err("metrics merge is rank-order dependent".to_string());
    }
    Ok(fwd)
}

/// Crash one rank mid-ring and report how the trace layer copes: every
/// surviving timeline must still validate, with open spans force-closed
/// (and warned about) at crash time.
fn fault_demo(topo: &Topology, seq: usize, d: usize) -> Result<(), String> {
    let g = topo.world_size();
    let q = randn_mat(seq, d, 0.7, 51);
    let k = randn_mat(seq, d, 0.7, 52);
    let v = randn_mat(seq, d, 0.7, 53);
    let grad_o = randn_mat(seq, d, 0.8, 54);
    let scale = 1.0 / (d as f32).sqrt();
    let mask = AttnMask::Causal;
    let cost = CostModel::a800();
    let layout = Layout::Zigzag;
    let plan = FaultPlan::new(9).crash_at_op(1, 6);
    let world = World::with_faults(topo.clone(), plan);
    let outs = world.run_faulty(|comm| {
        let idx = layout.indices(seq, g, comm.rank());
        let (ql, kl, vl, dol) = (
            q.gather_rows(&idx),
            k.gather_rows(&idx),
            v.gather_rows(&idx),
            grad_o.gather_rows(&idx),
        );
        comm.start_trace();
        try_run_attention_opts(
            Algo::BurstTopo,
            comm,
            &ql,
            &kl,
            &vl,
            &dol,
            scale,
            &mask,
            layout,
            seq,
            &cost,
            false,
        )
        .map(|_| ())
    });
    let mut failed = 0usize;
    let mut warnings = 0usize;
    for o in &outs {
        if o.result.is_err() {
            failed += 1;
        }
        let trace = o
            .trace
            .as_ref()
            .ok_or_else(|| format!("rank {} lost its trace across the crash", o.rank))?;
        warnings += trace.warnings.len();
        obs::validate(trace).map_err(|e| format!("faulty rank {} trace: {e}", o.rank))?;
    }
    if failed == 0 || warnings == 0 {
        return Err(format!(
            "fault demo expected failing ranks with force-closed spans, \
             got {failed} failures / {warnings} warnings"
        ));
    }
    println!(
        "fault demo: {failed}/{g} ranks failed, {warnings} spans force-closed \
         with warnings, all timelines still validate"
    );
    Ok(())
}

/// Run one attention pass (traced) and return the per-rank outputs next to
/// the observability state, so runs can be compared bit for bit.
#[allow(clippy::type_complexity)]
fn traced_attention(
    topo: &Topology,
    seq: usize,
    d: usize,
    plan: Option<FaultPlan>,
) -> (Vec<(Vec<f32>, Vec<f32>)>, MethodRun) {
    let g = topo.world_size();
    let q = randn_mat(seq, d, 0.7, 61);
    let k = randn_mat(seq, d, 0.7, 62);
    let v = randn_mat(seq, d, 0.7, 63);
    let grad_o = randn_mat(seq, d, 0.8, 64);
    let scale = 1.0 / (d as f32).sqrt();
    let mask = AttnMask::Causal;
    let cost = CostModel::a800();
    let layout = Layout::Zigzag;
    let world = match plan {
        Some(p) => World::with_faults(topo.clone(), p),
        None => World::new(topo.clone()),
    };
    let outs = world.run(|comm| {
        let idx = layout.indices(seq, g, comm.rank());
        let (ql, kl, vl, dol) = (
            q.gather_rows(&idx),
            k.gather_rows(&idx),
            v.gather_rows(&idx),
            grad_o.gather_rows(&idx),
        );
        comm.start_trace();
        comm.start_mem_accounting();
        let (o, lse, dq, dk, dv) = try_run_attention_opts(
            Algo::BurstTopo,
            comm,
            &ql,
            &kl,
            &vl,
            &dol,
            scale,
            &mask,
            layout,
            seq,
            &cost,
            false,
        )
        .unwrap_or_else(|e| escalate_attn(comm, e));
        let mut flat = o.as_slice().to_vec();
        flat.extend_from_slice(dq.as_slice());
        flat.extend_from_slice(dk.as_slice());
        flat.extend_from_slice(dv.as_slice());
        let mem = comm.take_mem_report().expect("accounting was on");
        ((flat, lse), mem)
    });
    let mut run = MethodRun {
        traces: Vec::with_capacity(g),
        stats: Vec::with_capacity(g),
        faults: Vec::with_capacity(g),
        mem: Vec::with_capacity(g),
    };
    let mut values = Vec::with_capacity(g);
    for o in outs {
        let (vals, mem) = o.result;
        values.push(vals);
        run.mem.push(mem);
        run.stats.push(o.stats);
        run.faults.push(o.faults);
        run.traces
            .push(o.trace.expect("tracing was on; world must return a trace"));
    }
    (values, run)
}

/// Reliable-transport demo: a seeded flap + drop + partition plan, healed
/// entirely on the wire. Asserts the heal is bit-transparent, that the
/// clean comm census is untouched by the recovery traffic, and that the
/// exact retransmit-byte census accounts for every recovery byte — then
/// exports the faulty timeline so `diff` can show the overhead.
fn transport_demo(args: &Args, topo: &Topology, cluster: &Cluster) -> Result<(), String> {
    let seed: u64 = std::env::var("FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let tp = TransportPolicy::default();
    let budget = tp.min_retry_budget();
    let g = topo.world_size();
    // Seed-derived transient windows, all strictly inside the retry budget.
    let frac = |salt: u64| (seed.wrapping_mul(0x9e37_79b9).wrapping_add(salt) % 97) as f64 / 97.0;
    let w0 = 1e-5 + frac(1) * budget * 0.4;
    let w1 = 1e-5 + frac(2) * budget * 0.4;
    let split = 1 + (seed as usize % (g - 1));
    let groups: [Vec<usize>; 2] = [(0..split).collect(), (split..g).collect()];
    let group_refs: [&[usize]; 2] = [&groups[0], &groups[1]];
    let plan = FaultPlan::new(seed)
        .flap_link(0, 1 % g, 0.0, w0)
        .drop_msg(1 % g, 2 % g, 1 + seed % 3)
        .partition(&group_refs, 2.0 * budget, 2.0 * budget + w1)
        .recv_deadline(60.0)
        .reliable()
        .with_detector(DetectorCfg::default());

    let (clean_vals, clean) = traced_attention(topo, args.seq, args.d, None);
    let (healed_vals, healed) = traced_attention(topo, args.seq, args.d, Some(plan));

    for (r, (c, h)) in clean_vals.iter().zip(&healed_vals).enumerate() {
        if c != h {
            return Err(format!(
                "transport demo: rank {r} outputs are not bit-identical to the clean run"
            ));
        }
    }
    // Both ledgers must balance: the reliable transport heals on the wire
    // without leaking a single accounted buffer.
    for (label, run) in [("clean", &clean), ("healed", &healed)] {
        for m in &run.mem {
            validate_mem(m)
                .map_err(|e| format!("transport demo: {label} rank {} ledger: {e}", m.rank))?;
        }
    }
    // The clean comm census must not see the recovery traffic…
    let clean_bytes: f64 = clean.stats.iter().map(|s| s.total_bytes()).sum();
    let healed_bytes: f64 = healed.stats.iter().map(|s| s.total_bytes()).sum();
    if clean_bytes != healed_bytes {
        return Err(format!(
            "transport demo: clean byte census moved under faults \
             ({clean_bytes} vs {healed_bytes})"
        ));
    }
    // …and the retransmit census must account for every recovery byte.
    let census = RetransCensus::from_run(&healed.stats);
    let with_retrans: f64 = healed
        .stats
        .iter()
        .map(|s| s.wire_bytes_with_retrans())
        .sum();
    if with_retrans != healed_bytes + census.bytes {
        return Err(format!(
            "transport demo: retransmit census mismatch \
             ({with_retrans} != {healed_bytes} + {})",
            census.bytes
        ));
    }
    let retransmits: u64 = healed.faults.iter().map(|f| f.retransmits).sum();
    if census.msgs != retransmits || census.msgs == 0 {
        return Err(format!(
            "transport demo: {} retransmit msgs in the census, {retransmits} counted",
            census.msgs
        ));
    }
    let giveups: u64 = healed.faults.iter().map(|f| f.giveups).sum();
    let timeouts: u64 = healed.faults.iter().map(|f| f.timeouts).sum();
    let suspicions: u64 = healed.faults.iter().map(|f| f.suspicions).sum();
    if giveups + timeouts + suspicions != 0 {
        return Err(format!(
            "transport demo: a transient plan escalated \
             (giveups {giveups}, timeouts {timeouts}, suspicions {suspicions})"
        ));
    }
    // The ≤1% comm gate holds with faults on: Retransmit spans live on
    // their own lane, outside the clean wire census.
    let predicted =
        exact_wire_counts_dtype(cluster, args.seq, args.d, RingMethod::Burst, WireDtype::F32)
            .secs(cluster);
    let (intra, inter) = obs::wire_secs(&healed.traces);
    let measured = intra + inter;
    let rel_err = (measured - predicted).abs() / predicted;
    if rel_err > MAX_COMM_REL_ERR {
        return Err(format!(
            "transport demo: measured comm {measured}s diverges from exact \
             prediction {predicted}s by {:.3}% with faults on",
            100.0 * rel_err
        ));
    }
    let (r_intra, r_inter) = obs::retrans_secs(&healed.traces);
    let flaps: u64 = healed.faults.iter().map(|f| f.flaps).sum();
    let drops: u64 = healed.faults.iter().map(|f| f.drops).sum();
    let healed_n: u64 = healed.faults.iter().map(|f| f.healed).sum();
    println!(
        "[recovery] seed={seed} flaps={flaps} drops={drops} retransmits={retransmits} \
         healed={healed_n} giveups=0 timeouts=0 suspicions=0 \
         retrans_bytes={} retrans_secs={:.6} comm_rel_err={rel_err:.5}",
        census.bytes,
        r_intra + r_inter,
    );
    // Both timelines carry their memory counter tracks (pid = rank, the
    // ungrouped convention), so `diff` can show where the recovery bytes
    // landed — the retransmit queue lane — next to the span overhead.
    let mut faulty_trace = to_perfetto(&healed.traces);
    for m in &healed.mem {
        faulty_trace
            .traceEvents
            .extend(mem_counter_events(m, m.rank as u64));
    }
    let json =
        serde_json::to_string_pretty(&faulty_trace).map_err(|e| format!("perfetto serde: {e}"))?;
    write_file(&args.out, "trace.transport.perfetto.json", &json)?;
    let mut clean_trace = to_perfetto(&clean.traces);
    for m in &clean.mem {
        clean_trace
            .traceEvents
            .extend(mem_counter_events(m, m.rank as u64));
    }
    let clean_json =
        serde_json::to_string_pretty(&clean_trace).map_err(|e| format!("perfetto serde: {e}"))?;
    write_file(&args.out, "trace.clean.perfetto.json", &clean_json)?;
    let census_json =
        serde_json::to_string_pretty(&census).map_err(|e| format!("census serde: {e}"))?;
    write_file(&args.out, "retrans_census.json", &census_json)?;
    println!(
        "transport demo: wrote trace.transport.perfetto.json, retrans_census.json to {}",
        args.out
    );
    Ok(())
}

/// Per-span-kind `(count, total seconds)` census of an exported timeline.
fn span_census(trace: &PerfettoTrace) -> BTreeMap<String, (u64, f64)> {
    let mut census: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    for e in &trace.traceEvents {
        if e.cat == "__metadata" || e.ph == "C" {
            continue;
        }
        let entry = census.entry(e.cat.clone()).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += e.dur / 1e6; // µs back to seconds
    }
    census
}

/// Per-category peak-bytes census of an exported timeline's `mem/…`
/// counter tracks: the maximum sampled value of each counter across all
/// pids — i.e. the worst single rank, the same convention as
/// `peak_census`.
fn mem_peak_census(trace: &PerfettoTrace) -> BTreeMap<String, u64> {
    let mut census: BTreeMap<String, u64> = BTreeMap::new();
    for e in &trace.traceEvents {
        if e.ph != "C" || e.cat != "mem" {
            continue;
        }
        let peak = census.entry(e.name.clone()).or_insert(0);
        *peak = (*peak).max(e.args.value as u64);
    }
    census
}

/// `burst-trace diff a.json b.json`: per-span-kind count and duration
/// deltas between two exported timelines — e.g. a clean run against a
/// reliable-transport run, where the delta *is* the recovery overhead.
/// When either timeline carries memory counter tracks, a second table
/// shows the per-category peak-bytes deltas.
fn run_diff(path_a: &str, path_b: &str) -> Result<(), String> {
    let load = |path: &str| -> Result<PerfettoTrace, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: not a perfetto trace: {e}"))
    };
    let trace_a = load(path_a)?;
    let trace_b = load(path_b)?;
    let a = span_census(&trace_a);
    let b = span_census(&trace_b);
    let kinds: Vec<&String> = {
        let mut k: Vec<&String> = a.keys().chain(b.keys()).collect();
        k.sort_unstable();
        k.dedup();
        k
    };
    println!(
        "{:<14} {:>8} {:>8} {:>7}  {:>12} {:>12} {:>12}",
        "span", "n(a)", "n(b)", "Δn", "secs(a)", "secs(b)", "Δsecs"
    );
    let (mut da, mut db) = ((0u64, 0.0f64), (0u64, 0.0f64));
    for kind in kinds {
        let (na, sa) = a.get(kind).copied().unwrap_or((0, 0.0));
        let (nb, sb) = b.get(kind).copied().unwrap_or((0, 0.0));
        da.0 += na;
        da.1 += sa;
        db.0 += nb;
        db.1 += sb;
        println!(
            "{kind:<14} {na:>8} {nb:>8} {:>+7}  {sa:>12.6} {sb:>12.6} {:>+12.6}",
            nb as i64 - na as i64,
            sb - sa,
        );
    }
    println!(
        "{:<14} {:>8} {:>8} {:>+7}  {:>12.6} {:>12.6} {:>+12.6}",
        "total",
        da.0,
        db.0,
        db.0 as i64 - da.0 as i64,
        da.1,
        db.1,
        db.1 - da.1,
    );
    let ma = mem_peak_census(&trace_a);
    let mb = mem_peak_census(&trace_b);
    if !ma.is_empty() || !mb.is_empty() {
        let lanes: Vec<&String> = {
            let mut k: Vec<&String> = ma.keys().chain(mb.keys()).collect();
            k.sort_unstable();
            k.dedup();
            k
        };
        println!();
        println!(
            "{:<18} {:>14} {:>14} {:>15}",
            "peak", "bytes(a)", "bytes(b)", "Δbytes"
        );
        let (mut ta, mut tb) = (0u64, 0u64);
        for lane in lanes {
            let pa = ma.get(lane).copied().unwrap_or(0);
            let pb = mb.get(lane).copied().unwrap_or(0);
            ta += pa;
            tb += pb;
            println!(
                "{lane:<18} {pa:>14} {pb:>14} {:>+15}",
                pb as i64 - pa as i64
            );
        }
        println!(
            "{:<18} {ta:>14} {tb:>14} {:>+15}",
            "total",
            tb as i64 - ta as i64
        );
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    let topo = Topology::a800(args.nodes, args.gpn);
    let cluster = Cluster::a800(args.nodes, args.gpn);
    // The analytic predictions only mean something if both models describe
    // the same machine.
    assert_eq!(topo.intra.latency, cluster.nvlink.latency);
    assert_eq!(topo.intra.bandwidth, cluster.nvlink.bandwidth);
    assert_eq!(topo.inter.latency, cluster.nic.latency);
    assert_eq!(topo.inter.bandwidth, cluster.nic.bandwidth);

    let table1 = layer_comm_times(&cluster, args.seq, args.d);
    /// One row of the report: a schedule run either dense (causal mask,
    /// zigzag layout, no skipping — the legacy configuration) or masked
    /// (sliding window over the contiguous layout with round skipping on,
    /// the skip-rich configuration the sparsity gates police).
    struct Row {
        name: &'static str,
        algo: Algo,
        method: RingMethod,
        table1_secs: f64,
        mask: AttnMask,
        layout: Layout,
        skip: bool,
    }
    let window = AttnMask::SlidingWindow {
        window: (args.seq / 4).max(1),
    };
    let dense_row = |name, algo, method, table1_secs| Row {
        name,
        algo,
        method,
        table1_secs,
        mask: AttnMask::Causal,
        layout: Layout::Zigzag,
        skip: false,
    };
    let masked_row = |name, algo, method, table1_secs| Row {
        name,
        algo,
        method,
        table1_secs,
        mask: window.clone(),
        layout: Layout::Contiguous,
        skip: true,
    };
    let rows = [
        dense_row("ring", Algo::RingFlat, RingMethod::Ring, table1.ring),
        dense_row(
            "double_ring",
            Algo::DoubleRing,
            RingMethod::DoubleRing,
            table1.double_ring,
        ),
        dense_row("burst", Algo::BurstTopo, RingMethod::Burst, table1.burst),
        masked_row("ring_masked", Algo::RingFlat, RingMethod::Ring, table1.ring),
        masked_row(
            "double_ring_masked",
            Algo::DoubleRing,
            RingMethod::DoubleRing,
            table1.double_ring,
        ),
        masked_row(
            "burst_masked",
            Algo::BurstTopo,
            RingMethod::Burst,
            table1.burst,
        ),
    ];

    std::fs::create_dir_all(&args.out).map_err(|e| format!("mkdir {}: {e}", args.out))?;
    let mut report = E2eReport::new(args.nodes, args.gpn, args.seq, args.d);
    let mut groups: Vec<(String, Vec<RankTrace>)> = Vec::new();
    let mut mem_groups: Vec<Vec<MemReport>> = Vec::new();
    let mut flame = String::new();
    let mut metrics = Registry::new();

    for row in rows {
        let name = row.name;
        let run = run_method(
            row.algo, &topo, args.seq, args.d, &row.mask, row.layout, row.skip,
        );
        for t in &run.traces {
            obs::validate(t).map_err(|e| format!("{name} rank {} trace: {e}", t.rank))?;
            if !t.warnings.is_empty() {
                return Err(format!(
                    "{name} rank {} left spans unclosed on a healthy run: {:?}",
                    t.rank, t.warnings
                ));
            }
        }
        for m in &run.mem {
            validate_mem(m).map_err(|e| format!("{name} rank {} ledger: {e}", m.rank))?;
            if !m.warnings.is_empty() || m.live_at_close != 0 {
                return Err(format!(
                    "{name} rank {} leaked {} B on a healthy run: {:?}",
                    m.rank, m.live_at_close, m.warnings
                ));
            }
        }
        let predicted = if row.skip {
            exact_wire_counts_masked_dtype(
                &cluster,
                args.seq,
                args.d,
                row.method,
                WireDtype::F32,
                &row.mask,
                row.layout,
                None,
                true,
            )
            .counts
            .secs(&cluster)
        } else {
            exact_wire_counts_dtype(&cluster, args.seq, args.d, row.method, WireDtype::F32)
                .secs(&cluster)
        };
        let rounds_skipped: u64 = run.stats.iter().map(|s| s.rounds_skipped).sum();
        let bytes_saved: f64 = run.stats.iter().map(|s| s.skipped_bytes).sum();
        let mut m = MethodReport::from_traces(
            name,
            &run.traces,
            args.seq,
            args.d,
            cluster.peak_flops,
            predicted,
            row.table1_secs,
        )
        .with_mem(&run.mem)
        .with_skips(rounds_skipped, bytes_saved);
        // MFU against the FLOPs the mask actually allows — `from_traces`
        // assumes dense-causal, which overstates useful work under a
        // window (identical for the causal rows).
        m.mfu = obs::mfu(
            masked_attn_flops(&row.mask, args.seq, args.d),
            m.makespan_secs,
            m.world,
            cluster.peak_flops,
        );
        if row.skip {
            // The sparsity gates: a masked row that skips nothing is
            // vacuous, and whatever it did skip must reconstruct the
            // dense wire census to the byte when added back.
            if m.rounds_skipped == 0 || m.wire_bytes_saved <= 0.0 {
                return Err(format!(
                    "{name}: masked run elided no rounds — the skip path is vacuous"
                ));
            }
            let dense =
                exact_wire_counts_dtype(&cluster, args.seq, args.d, row.method, WireDtype::F32);
            let measured_bytes: f64 = run.stats.iter().map(|s| s.total_bytes()).sum();
            if measured_bytes + m.wire_bytes_saved != dense.intra_bytes + dense.inter_bytes {
                return Err(format!(
                    "{name}: measured {measured_bytes} B + saved {} B do not reconstruct \
                     the dense census {} B",
                    m.wire_bytes_saved,
                    dense.intra_bytes + dense.inter_bytes
                ));
            }
        } else if m.rounds_skipped != 0 || m.wire_bytes_saved != 0.0 {
            return Err(format!("{name}: dense run billed phantom skips"));
        }
        println!(
            "{name:>18}: makespan {:.6}s  overlap {:.3}  mfu {:.4}  \
             comm {:.6}s (predicted {:.6}s, rel err {:.5})  peak {:.3} MB gated  \
             skipped {} rounds / {:.3} MB saved",
            m.makespan_secs,
            m.overlap_efficiency,
            m.mfu,
            m.comm_measured_secs,
            m.comm_predicted_secs,
            m.comm_rel_err,
            m.peak.gated_total as f64 / 1e6,
            m.rounds_skipped,
            m.wire_bytes_saved / 1e6,
        );
        if m.comm_rel_err > MAX_COMM_REL_ERR {
            return Err(format!(
                "{name}: measured comm {}s diverges from exact prediction {}s \
                 by {:.3}% (> {:.0}%)",
                m.comm_measured_secs,
                m.comm_predicted_secs,
                100.0 * m.comm_rel_err,
                100.0 * MAX_COMM_REL_ERR
            ));
        }
        report.methods.push(m);
        metrics.merge_from(&merged_metrics(&run)?);
        flame.push_str(&format!("== {name} ==\n"));
        flame.push_str(&flame_text(&run.traces));
        flame.push('\n');
        groups.push((name.to_string(), run.traces));
        mem_groups.push(run.mem);
    }

    report
        .validate_schema()
        .map_err(|e| format!("BENCH_e2e.json schema: {e}"))?;

    let mut perfetto = to_perfetto_grouped(&groups);
    // Memory counter tracks ride next to each method's span timeline on
    // the same pid grid (`pid = group * 100 + rank`).
    for (g, mems) in mem_groups.iter().enumerate() {
        for m in mems {
            perfetto
                .traceEvents
                .extend(mem_counter_events(m, (g as u64) * 100 + m.rank as u64));
        }
    }
    let perfetto_json =
        serde_json::to_string_pretty(&perfetto).map_err(|e| format!("perfetto serde: {e}"))?;
    let back: PerfettoTrace =
        serde_json::from_str(&perfetto_json).map_err(|e| format!("perfetto re-parse: {e}"))?;
    if back != perfetto {
        return Err("perfetto trace does not round-trip through serde".to_string());
    }

    // The timeline goes to disk through the O(step) streaming writer; the
    // buffered serialization above only exists to prove — on every single
    // run — that the streamed document is byte-identical to it.
    let high_water = stream_trace_file(&args.out, "trace.perfetto.json", &perfetto)?;
    let streamed_path = std::path::Path::new(&args.out).join("trace.perfetto.json");
    let streamed = std::fs::read_to_string(&streamed_path)
        .map_err(|e| format!("{}: {e}", streamed_path.display()))?;
    if streamed != perfetto_json {
        return Err(
            "streamed perfetto export diverges from the buffered serialization".to_string(),
        );
    }
    println!(
        "streaming export: {} events, {} B document, {high_water} B writer high-water",
        perfetto.traceEvents.len(),
        perfetto_json.len(),
    );
    let report_json =
        serde_json::to_string_pretty(&report).map_err(|e| format!("report serde: {e}"))?;
    write_file(&args.out, "BENCH_e2e.json", &report_json)?;
    let metrics_json = serde_json::to_string_pretty(&metrics.to_json())
        .map_err(|e| format!("metrics serde: {e}"))?;
    write_file(&args.out, "metrics.json", &metrics_json)?;
    write_file(&args.out, "flame.txt", &flame)?;
    print!("{flame}");
    println!(
        "wrote trace.perfetto.json, BENCH_e2e.json, metrics.json, flame.txt to {}",
        args.out
    );

    if let Some(path) = &args.baseline {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let baseline: E2eReport =
            serde_json::from_str(&text).map_err(|e| format!("{path}: not an e2e report: {e}"))?;
        let violations = compare_to_baseline(&report, &baseline);
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("baseline regression: {v}");
            }
            return Err(format!(
                "{} perf-trajectory violation(s) against {path}",
                violations.len()
            ));
        }
        println!(
            "baseline gate: ok — {} methods within bands against {path}",
            report.methods.len()
        );
    }

    if args.fault {
        fault_demo(&topo, args.seq, args.d)?;
    }
    if args.transport {
        if topo.world_size() < 2 {
            return Err("--transport needs a world of at least 2 ranks".to_string());
        }
        transport_demo(args, &topo, &cluster)?;
    }
    Ok(())
}

/// Stream a Perfetto trace to `dir/name` event by event (O(step) resident
/// memory). Returns the writer's high-water mark in bytes.
fn stream_trace_file(dir: &str, name: &str, trace: &PerfettoTrace) -> Result<usize, String> {
    let path = std::path::Path::new(dir).join(name);
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = StreamingPerfettoWriter::pretty(std::io::BufWriter::new(file));
    for e in &trace.traceEvents {
        w.write_event(e)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let high_water = w.high_water_bytes();
    w.finish().map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(high_water)
}

fn write_file(dir: &str, name: &str, content: &str) -> Result<(), String> {
    let path = std::path::Path::new(dir).join(name);
    let mut f = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    f.write_all(content.as_bytes())
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("diff") {
        return match &argv[1..] {
            [a, b] => match run_diff(a, b) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("burst-trace: diff: {e}");
                    ExitCode::FAILURE
                }
            },
            _ => {
                eprintln!("usage: burst-trace diff <a.perfetto.json> <b.perfetto.json>");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "burst-trace: {e}\nusage: burst-trace [--seq N] [--d D] \
                 [--nodes N] [--gpn G] [--out DIR] [--fault] [--transport] \
                 [--baseline FILE] | burst-trace diff <a.json> <b.json>"
            );
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("burst-trace: FAIL: {e}");
            ExitCode::FAILURE
        }
    }
}
