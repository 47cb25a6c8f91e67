//! `burst-verify`: the self-validating differential gate, as a binary.
//!
//! Runs a seeded matrix of every distributed attention schedule (flat ring,
//! BurstAttention, double-ring, topology-aware Burst, Ulysses and USP) plus
//! full engine train steps against the serial `f64` oracle from
//! `crates/verify`, including one fault + recovery case per schedule and
//! the engine's in-step recovery on the flat and the two-level ring. Prints one line per cell and exits non-zero on the first
//! divergence — which is what the CI `verify` job keys on.
//!
//! ```text
//! cargo run --release -p burst-bench --bin burst-verify -- \
//!     [--seeds 3] [--seed-base 100] [--steps 3] [--out target/burst-verify]
//! ```
//!
//! The report (`VERIFY.json`) records every cell with its worst observed
//! deviation, so a red CI run ships the exact failing configuration.

use std::io::Write as _;
use std::process::ExitCode;

use burst_comm::{FaultPlan, Topology, TransportPolicy};
use burst_dattn::{Algo, Layout};
use burst_kernels::{AttnMask, BlockSparseMask};
use burst_model::engine::{Backend, EngineConfig};
use burst_verify::diff::{
    attn_inputs, elastic_ops_after, engine_elastic, engine_resume, engine_run, engine_span,
    run_ring_family, run_ring_family_opts, run_usp, GlobalAttn,
};
use burst_verify::oracle::{oracle_attention, oracle_train, OracleAttn};
use burst_verify::{
    compare_slice, Divergence, ORACLE_ATTN_ATOL, ORACLE_ATTN_RTOL, ORACLE_GRAD_ATOL,
    ORACLE_GRAD_RTOL, ORACLE_TRAIN_ATOL, ORACLE_TRAIN_RTOL,
};

struct Args {
    seeds: u64,
    seed_base: u64,
    steps: usize,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 3,
        seed_base: 100,
        steps: 3,
        out: "target/burst-verify".to_string(),
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
            "--seeds" => {
                args.seeds = value("--seeds")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?
            }
            "--seed-base" => {
                args.seed_base = value("--seed-base")?
                    .parse()
                    .map_err(|e| format!("--seed-base: {e}"))?
            }
            "--steps" => {
                args.steps = value("--steps")?
                    .parse()
                    .map_err(|e| format!("--steps: {e}"))?
            }
            "--out" => args.out = value("--out")?,
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    if args.seeds == 0 || args.steps == 0 {
        return Err("--seeds and --steps must be positive".to_string());
    }
    Ok(args)
}

/// One matrix cell's outcome, for the JSON report.
struct Cell {
    name: String,
    seed: u64,
    ok: bool,
    detail: String,
}

fn check_attn(label: &str, got: &GlobalAttn, want: &OracleAttn) -> Result<(), Divergence> {
    compare_slice(
        &format!("{label}/o"),
        got.o.as_slice(),
        want.o.as_slice(),
        ORACLE_ATTN_ATOL,
        ORACLE_ATTN_RTOL,
    )?;
    compare_slice(
        &format!("{label}/lse"),
        &got.lse,
        &want.lse,
        ORACLE_ATTN_ATOL,
        ORACLE_ATTN_RTOL,
    )?;
    for (what, g, w) in [
        ("dq", &got.dq, &want.dq),
        ("dk", &got.dk, &want.dk),
        ("dv", &got.dv, &want.dv),
    ] {
        compare_slice(
            &format!("{label}/{what}"),
            g.as_slice(),
            w.as_slice(),
            ORACLE_GRAD_ATOL,
            ORACLE_GRAD_RTOL,
        )?;
    }
    Ok(())
}

fn oracle_for(n: usize, d: usize, seed: u64, mask: &AttnMask) -> OracleAttn {
    let (q, k, v, go) = attn_inputs(n, d, seed);
    oracle_attention(&q, &k, &v, &go, 1.0 / (d as f32).sqrt(), mask)
}

/// The attention half of the matrix: every schedule, clean and faulted.
fn attention_cells(seed: u64, cells: &mut Vec<Cell>) {
    let g = 4usize;
    let (n, d, heads) = (8 * g, 8usize, 4usize);
    let topo = Topology::single_node(g);
    let multi = Topology::a800(2, 2);
    let delay = FaultPlan::new(seed)
        .delay_link(0, 1, 3e-3, 1e-3)
        .slow_compute((seed % g as u64) as usize, 2.0);

    let ring_algos = [
        ("ring-flat", Algo::RingFlat),
        ("burst-flat", Algo::BurstFlat),
        ("double-ring", Algo::DoubleRing),
        ("burst-topo", Algo::BurstTopo),
    ];
    let want = oracle_for(n, d, seed, &AttnMask::Causal);
    for (name, algo) in ring_algos {
        for (variant, topo, plan) in [
            ("clean", &topo, None),
            ("multinode", &multi, None),
            ("delay-fault", &topo, Some(&delay)),
        ] {
            let label = format!("attn/{name}/{variant}");
            let outcome = run_ring_family(
                algo,
                Layout::Zigzag,
                topo,
                n,
                d,
                seed,
                &AttnMask::Causal,
                plan,
            )
            .map_err(|e| e.to_string())
            .and_then(|got| check_attn(&label, &got, &want).map_err(|d| d.to_string()));
            push(cells, &label, seed, outcome);
        }
    }

    // Head parallelism: pure Ulysses (one Ulysses group spanning the world)
    // and USP with Ulysses groups of two.
    for (variant, plan) in [("clean", None), ("delay-fault", Some(&delay))] {
        for (name, u) in [("ulysses", g), ("usp-u2", 2)] {
            let label = format!("attn/{name}/{variant}");
            let outcome = run_usp(&topo, n, d, heads, u, seed, &AttnMask::Causal, plan)
                .map_err(|e| e.to_string())
                .and_then(|got| {
                    for (h, got_h) in got.iter().enumerate() {
                        let want =
                            oracle_for(n, d, seed.wrapping_mul(64) + h as u64, &AttnMask::Causal);
                        check_attn(&format!("{label}/head{h}"), got_h, &want)
                            .map_err(|d| d.to_string())?;
                    }
                    Ok(())
                });
            push(cells, &label, seed, outcome);
        }
    }
}

/// Deterministic random block-sparse pattern (xorshift64, diagonal kept
/// allowed) — the same generator the verify-crate test matrix uses.
fn random_block_sparse(n: usize, block: usize, seed: u64) -> AttnMask {
    let nblocks = n.div_ceil(block);
    let mut s = seed | 1;
    let mut allowed = vec![false; nblocks * nblocks];
    for bi in 0..nblocks {
        for bj in 0..nblocks {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            allowed[bi * nblocks + bj] = bi == bj || (s >> 33) & 3 == 0;
        }
    }
    AttnMask::BlockSparse(BlockSparseMask::new(block, nblocks, allowed))
}

/// The masked rows of the matrix: every sparse mask kind through every
/// ring-family schedule with mask-aware round skipping ON, checked against
/// the oracle — and against the skip-OFF run of the same cell **bit for
/// bit** (skipping must be a pure communication optimisation). The
/// contiguous layout keeps fully-masked rounds plentiful, so the skip path
/// is genuinely exercised, and the multi-node topology exercises
/// forwarding-only hops.
fn masked_cells(seed: u64, cells: &mut Vec<Cell>) {
    let (n, d) = (32usize, 8usize);
    let multi = Topology::a800(2, 2);
    let masks = [
        ("sliding-window", AttnMask::SlidingWindow { window: 8 }),
        (
            "dilated",
            AttnMask::Dilated {
                window: 16,
                step: 2,
            },
        ),
        ("block-sparse", random_block_sparse(n, 4, seed)),
    ];
    let ring_algos = [
        ("ring-flat", Algo::RingFlat),
        ("burst-flat", Algo::BurstFlat),
        ("double-ring", Algo::DoubleRing),
        ("burst-topo", Algo::BurstTopo),
    ];
    for (mask_name, mask) in &masks {
        let want = oracle_for(n, d, seed, mask);
        for (name, algo) in ring_algos {
            let label = format!("attn/{name}/masked-{mask_name}");
            let outcome = run_ring_family_opts(
                algo,
                Layout::Contiguous,
                &multi,
                n,
                d,
                seed,
                mask,
                None,
                true,
                None,
            )
            .map_err(|e| e.to_string())
            .and_then(|got| {
                check_attn(&label, &got, &want).map_err(|d| d.to_string())?;
                let dense = run_ring_family_opts(
                    algo,
                    Layout::Contiguous,
                    &multi,
                    n,
                    d,
                    seed,
                    mask,
                    None,
                    false,
                    None,
                )
                .map_err(|e| e.to_string())?;
                for (what, a, b) in [
                    ("o", &got.o, &dense.o),
                    ("dq", &got.dq, &dense.dq),
                    ("dk", &got.dk, &dense.dk),
                    ("dv", &got.dv, &dense.dv),
                ] {
                    if bits_differ(a.as_slice(), b.as_slice()) {
                        return Err(format!("{what}: skip-on differs from skip-off"));
                    }
                }
                if bits_differ(&got.lse, &dense.lse) {
                    return Err("lse: skip-on differs from skip-off".to_string());
                }
                Ok(())
            });
            push(cells, &label, seed, outcome);
        }
    }
}

/// The engine half: every backend trains against the oracle train-step,
/// with a poisoned-gradient skip + resume case per backend.
fn engine_cells(seed: u64, steps: usize, cells: &mut Vec<Cell>) {
    let backends = [
        ("local", Backend::Local),
        ("ring-flat", Backend::Ring(Algo::RingFlat)),
        ("burst-flat", Backend::Ring(Algo::BurstFlat)),
        ("double-ring", Backend::Ring(Algo::DoubleRing)),
        ("burst-topo", Backend::Ring(Algo::BurstTopo)),
        ("ulysses", Backend::Ulysses),
        ("usp-u2", Backend::Usp { ulysses_size: 2 }),
    ];
    for (name, backend) in backends {
        let g = match backend {
            Backend::Local => 1,
            Backend::Ulysses => 2,
            _ => 4,
        };
        let mut cfg = EngineConfig::tiny(backend);
        cfg.seed = seed;
        let topo = Topology::single_node(g);

        let label = format!("engine/{name}/clean");
        let want = oracle_train(&cfg, steps, &[]);
        let outcome = engine_run(&cfg, &topo, steps, None)
            .map_err(|e| e.to_string())
            .and_then(|run| {
                compare_slice(
                    &format!("{label}/losses"),
                    &run.losses,
                    &want.losses,
                    ORACLE_TRAIN_ATOL,
                    ORACLE_TRAIN_RTOL,
                )
                .and_then(|()| {
                    compare_slice(
                        &format!("{label}/flat"),
                        &run.flat,
                        &want.flat,
                        ORACLE_TRAIN_ATOL,
                        ORACLE_TRAIN_RTOL,
                    )
                })
                .map_err(|d| d.to_string())
            });
        push(cells, &label, seed, outcome);

        // Fault + resume: poison a gradient at step 1, expect a lockstep
        // skip matching the skipping oracle, then resume past the cut and
        // demand bit-identical state with the uninterrupted faulty run.
        let label = format!("engine/{name}/poison-skip-resume");
        let bad_rank = (seed % g as u64) as usize;
        let plan = FaultPlan::new(seed).poison_grad(bad_rank, 1, f32::NAN);
        let want = oracle_train(&cfg, steps, &[1]);
        let outcome = engine_run(&cfg, &topo, steps, Some(&plan))
            .map_err(|e| e.to_string())
            .and_then(|run| {
                if run.skipped != 1 {
                    return Err(format!("expected 1 skipped step, saw {}", run.skipped));
                }
                compare_slice(
                    &format!("{label}/flat"),
                    &run.flat,
                    &want.flat,
                    ORACLE_TRAIN_ATOL,
                    ORACLE_TRAIN_RTOL,
                )
                .map_err(|d| d.to_string())?;
                let resumed =
                    engine_resume(&cfg, &topo, 2, steps, Some(&plan)).map_err(|e| e.to_string())?;
                if resumed
                    .flat
                    .iter()
                    .zip(&run.flat)
                    .any(|(a, b)| a.to_bits() != b.to_bits())
                {
                    return Err("resume after poisoned step is not bit-exact".to_string());
                }
                Ok(())
            });
        push(cells, &label, seed, outcome);
    }

    // In-step recovery: crash one rank mid-step; the survivors evict it,
    // replay the step in place and train on. The whole run must be
    // bit-identical to a fresh full world chained into a fresh 3-rank flat
    // world at the crash step. On 4 ranks of one node that is the flat
    // BurstAttention ring. On 2 × 2, topology-aware Burst's three survivors
    // are ragged across the nodes, so every step from the crash on falls
    // back to the flat ring.
    let steps = steps.max(2);
    let mut flat = EngineConfig::tiny(Backend::Ring(Algo::BurstFlat));
    flat.model.seq_len = 48; // zigzag needs n % 2g == 0 for g in {3, 4}
    flat.seed = seed;
    let victim = 1 + (seed % 3) as usize;
    let f = 1usize;
    let mut topo_aware = flat.clone();
    topo_aware.backend = Backend::Ring(Algo::BurstTopo);
    for (label, cfg, topo, fallbacks) in [
        (
            "engine/elastic/shrink-continue",
            &flat,
            Topology::single_node(4),
            0,
        ),
        (
            "engine/elastic-burst-topo/ragged-fallback",
            &topo_aware,
            Topology::a800(2, 2),
            steps - f,
        ),
    ] {
        let before = elastic_ops_after(cfg, &topo, victim, f);
        let after = elastic_ops_after(cfg, &topo, victim, f + 1);
        let plan = FaultPlan::new(seed)
            .crash_at_op(victim, (before + after) / 2)
            .recv_deadline(60.0);
        let outcome = engine_elastic(cfg, &topo, steps, Some(&plan), None, 0)
            .map_err(|e| e.to_string())
            .and_then(|run| {
                if run.evicted != vec![victim] {
                    return Err(format!("evicted {:?}, expected [{victim}]", run.evicted));
                }
                if run.steps_replayed != 1 {
                    return Err(format!("steps_replayed {}, expected 1", run.steps_replayed));
                }
                if run.flat_fallbacks != fallbacks {
                    return Err(format!(
                        "flat_fallbacks {}, expected {fallbacks}",
                        run.flat_fallbacks
                    ));
                }
                let phase1 =
                    engine_span(cfg, &topo, 0, f, None, None).map_err(|e| e.to_string())?;
                let small = Topology::single_node(3);
                let phase2 = engine_span(&flat, &small, f, steps, Some(&phase1.flat), None)
                    .map_err(|e| e.to_string())?;
                let want: Vec<f32> = phase1
                    .losses
                    .iter()
                    .chain(&phase2.losses)
                    .copied()
                    .collect();
                if bits_differ(&run.losses, &want) {
                    return Err("elastic losses diverge from segmented reference".to_string());
                }
                if bits_differ(&run.flat, &phase2.flat) {
                    return Err("elastic final state diverges from segmented reference".to_string());
                }
                Ok(())
            });
        push(cells, label, seed, outcome);
    }
}

/// The recovery-ladder cells of the reliable transport.
///
/// * `engine/transport/transient-clean` — a seeded plan carrying every
///   transient fault class (drops, a burst window, corruption, a link
///   flap, a partition), all inside the retry budget, run under the
///   reliable transport through the *elastic* engine: it must finish with
///   zero evictions and zero step replays, and its losses and final state
///   must be bit-identical to the clean run — transient faults never
///   reach the rungs above the transport.
/// * `engine/transport/escalation-parity` — one dropped attention message
///   with retries disabled must reproduce today's escalation path
///   exactly: the sender is evicted, the step replays on the shrunken
///   ring, and the whole run equals the PR 7 segmented elastic reference
///   (a fresh small world). The same plan under the transport heals to
///   the clean fixed point.
fn transport_cells(seed: u64, steps: usize, cells: &mut Vec<Cell>) {
    let steps = steps.max(2);

    // --- transient-clean -------------------------------------------------
    let mut cfg = EngineConfig::tiny(Backend::Ring(Algo::BurstFlat));
    cfg.seed = seed;
    let topo = Topology::single_node(4);
    let label = "engine/transport/transient-clean".to_string();
    let budget = TransportPolicy::default().min_retry_budget();
    let transient = FaultPlan::new(seed)
        .drop_msg(1, 2, 3)
        .drop_burst(2, 3, 5, 2)
        .corrupt_msg(3, 0, 2)
        .flap_link(0, 1, 0.0, (budget * 0.4).min(8e-4))
        .partition(&[&[0, 1], &[2, 3]], 1.2e-3, 2e-3)
        .recv_deadline(60.0)
        .reliable();
    let outcome = engine_run(&cfg, &topo, steps, None)
        .map_err(|e| e.to_string())
        .and_then(|clean| {
            let run = engine_elastic(&cfg, &topo, steps, Some(&transient), None, 0)
                .map_err(|e| e.to_string())?;
            if !run.evicted.is_empty() {
                return Err(format!("transient plan evicted {:?}", run.evicted));
            }
            if run.steps_replayed != 0 {
                return Err(format!(
                    "transient plan replayed {} steps",
                    run.steps_replayed
                ));
            }
            if bits_differ(&run.losses, &clean.losses) {
                return Err("healed losses diverge from the clean run".to_string());
            }
            if bits_differ(&run.flat, &clean.flat) {
                return Err("healed final state diverges from the clean run".to_string());
            }
            Ok(())
        });
    push(cells, &label, seed, outcome);

    // --- escalation-parity -----------------------------------------------
    // The drop is aimed at the victim's first *attention* K/V send, past
    // the FSDP gather prelude (one ring all-gather of g-1 hops for the
    // whole parameter bucket), so the legacy path escalates instantly at
    // the receiver instead of stalling in the gather's receive-retry loop.
    let mut cfg = EngineConfig::tiny(Backend::Ring(Algo::BurstFlat));
    cfg.model.seq_len = 48; // zigzag needs n % 2g == 0 for g in {3, 4}
    cfg.seed = seed;
    let victim = 1 + (seed % 2) as usize;
    let dst = victim + 1;
    let prelude = topo.world_size() as u64 - 1;
    let one_drop = move |reliable: bool| {
        let p = FaultPlan::new(seed)
            .drop_msg(victim, dst, prelude)
            .recv_deadline(60.0);
        if reliable {
            p.reliable()
        } else {
            p
        }
    };
    let label = "engine/transport/escalation-parity".to_string();
    let outcome = engine_elastic(&cfg, &topo, steps, Some(&one_drop(false)), None, 0)
        .map_err(|e| e.to_string())
        .and_then(|run| {
            if run.evicted != vec![victim] {
                return Err(format!("evicted {:?}, expected [{victim}]", run.evicted));
            }
            if run.steps_replayed != 1 {
                return Err(format!("steps_replayed {}, expected 1", run.steps_replayed));
            }
            // PR 7 reference: the eviction lands in step 0, so the whole
            // run must equal a fresh 3-rank world, bit for bit.
            let small = Topology::single_node(3);
            let reference =
                engine_span(&cfg, &small, 0, steps, None, None).map_err(|e| e.to_string())?;
            if bits_differ(&run.losses, &reference.losses) {
                return Err("escalation losses diverge from the PR 7 reference".to_string());
            }
            if bits_differ(&run.flat, &reference.flat) {
                return Err("escalation state diverges from the PR 7 reference".to_string());
            }
            // The very same drop under the transport heals to the clean
            // fixed point instead: full ring, nothing evicted or replayed.
            let clean = engine_run(&cfg, &topo, steps, None).map_err(|e| e.to_string())?;
            let healed = engine_elastic(&cfg, &topo, steps, Some(&one_drop(true)), None, 0)
                .map_err(|e| e.to_string())?;
            if !healed.evicted.is_empty() || healed.steps_replayed != 0 {
                return Err(format!(
                    "reliable path escalated anyway: evicted {:?}, replayed {}",
                    healed.evicted, healed.steps_replayed
                ));
            }
            if bits_differ(&healed.flat, &clean.flat) {
                return Err("healed state diverges from the clean run".to_string());
            }
            Ok(())
        });
    push(cells, &label, seed, outcome);
}

fn bits_differ(a: &[f32], b: &[f32]) -> bool {
    a.len() != b.len() || a.iter().zip(b).any(|(x, y)| x.to_bits() != y.to_bits())
}

fn push(cells: &mut Vec<Cell>, label: &str, seed: u64, outcome: Result<(), String>) {
    let (ok, detail) = match outcome {
        Ok(()) => (true, "ok".to_string()),
        Err(e) => (false, e),
    };
    println!(
        "{} {label} [seed {seed}]{}",
        if ok { "PASS" } else { "FAIL" },
        if ok {
            String::new()
        } else {
            format!(": {detail}")
        }
    );
    cells.push(Cell {
        name: label.to_string(),
        seed,
        ok,
        detail,
    });
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn run(args: &Args) -> Result<(), String> {
    let mut cells = Vec::new();
    for s in 0..args.seeds {
        let seed = args.seed_base + s;
        attention_cells(seed, &mut cells);
        masked_cells(seed, &mut cells);
        engine_cells(seed, args.steps, &mut cells);
        transport_cells(seed, args.steps, &mut cells);
    }
    let failed: Vec<&Cell> = cells.iter().filter(|c| !c.ok).collect();

    std::fs::create_dir_all(&args.out).map_err(|e| format!("mkdir {}: {e}", args.out))?;
    let path = format!("{}/VERIFY.json", args.out);
    let mut f = std::fs::File::create(&path).map_err(|e| format!("create {path}: {e}"))?;
    writeln!(f, "{{").map_err(|e| e.to_string())?;
    writeln!(
        f,
        "  \"cells\": {}, \"failed\": {}, \"seeds\": {},",
        cells.len(),
        failed.len(),
        args.seeds
    )
    .map_err(|e| e.to_string())?;
    writeln!(f, "  \"results\": [").map_err(|e| e.to_string())?;
    for (i, c) in cells.iter().enumerate() {
        writeln!(
            f,
            "    {{\"name\": \"{}\", \"seed\": {}, \"ok\": {}, \"detail\": \"{}\"}}{}",
            json_escape(&c.name),
            c.seed,
            c.ok,
            json_escape(&c.detail),
            if i + 1 == cells.len() { "" } else { "," }
        )
        .map_err(|e| e.to_string())?;
    }
    writeln!(f, "  ]").map_err(|e| e.to_string())?;
    writeln!(f, "}}").map_err(|e| e.to_string())?;

    println!(
        "burst-verify: {}/{} cells passed; report at {path}",
        cells.len() - failed.len(),
        cells.len()
    );
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} cell(s) diverged: {}",
            failed.len(),
            failed
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "burst-verify: {e}\nusage: burst-verify [--seeds N] [--seed-base B] \
                 [--steps S] [--out DIR]"
            );
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("burst-verify: FAIL: {e}");
            ExitCode::FAILURE
        }
    }
}
