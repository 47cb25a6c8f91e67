//! Correctness of DeepSpeed-Ulysses head parallelism and the USP hybrid,
//! validated per head against the single-device blocked kernel, plus the
//! head-divisibility failure mode the paper exploits (40 heads on 32 GPUs).

use burst_comm::{Topology, World};
use burst_dattn::ulysses::{try_ulysses_backward, try_ulysses_forward, UlyssesError};
use burst_dattn::usp::{try_usp_backward, try_usp_forward, UspTopo};
use burst_dattn::{CostModel, DattnError, Layout};
use burst_kernels::{flash_backward, flash_forward, AttnMask};
use burst_tensor::testutil::assert_allclose;
use burst_tensor::{randn_mat, Mat};

const TOL: f32 = 2e-3;

/// Per-head global tensors.
struct HeadProblem {
    q: Vec<Mat>,
    k: Vec<Mat>,
    v: Vec<Mat>,
    grad_o: Vec<Mat>,
    scale: f32,
}

fn head_problem(n: usize, heads: usize, dh: usize) -> HeadProblem {
    HeadProblem {
        q: (0..heads)
            .map(|h| randn_mat(n, dh, 0.7, 100 + h as u64))
            .collect(),
        k: (0..heads)
            .map(|h| randn_mat(n, dh, 0.7, 200 + h as u64))
            .collect(),
        v: (0..heads)
            .map(|h| randn_mat(n, dh, 0.7, 300 + h as u64))
            .collect(),
        grad_o: (0..heads)
            .map(|h| randn_mat(n, dh, 0.8, 400 + h as u64))
            .collect(),
        scale: 1.0 / (dh as f32).sqrt(),
    }
}

struct HeadRef {
    o: Vec<Mat>,
    dq: Vec<Mat>,
    dk: Vec<Mat>,
    dv: Vec<Mat>,
}

fn head_reference(p: &HeadProblem, mask: &AttnMask, n: usize) -> HeadRef {
    let idx: Vec<usize> = (0..n).collect();
    let mut r = HeadRef {
        o: vec![],
        dq: vec![],
        dk: vec![],
        dv: vec![],
    };
    for h in 0..p.q.len() {
        let fwd = flash_forward(&p.q[h], &p.k[h], &p.v[h], p.scale, mask, &idx, &idx);
        let (dq, dk, dv, _) = flash_backward(
            &p.q[h],
            &p.k[h],
            &p.v[h],
            &fwd.o,
            &p.grad_o[h],
            &fwd.lse,
            p.scale,
            mask,
            &idx,
            &idx,
        );
        r.o.push(fwd.o);
        r.dq.push(dq);
        r.dk.push(dk);
        r.dv.push(dv);
    }
    r
}

#[test]
fn ulysses_matches_reference_per_head() {
    let (n, heads, dh, g) = (24usize, 4usize, 5usize, 2usize);
    let p = head_problem(n, heads, dh);
    let mask = AttnMask::Causal;
    let r = head_reference(&p, &mask, n);
    let world = World::new(Topology::single_node(g));
    let outs = world.run_results(|comm| {
        let members: Vec<usize> = (0..g).collect();
        let member_idx: Vec<Vec<usize>> = (0..g)
            .map(|m| Layout::Contiguous.indices(n, g, m))
            .collect();
        let my_idx = &member_idx[comm.rank()];
        let ql: Vec<Mat> = p.q.iter().map(|m| m.gather_rows(my_idx)).collect();
        let kl: Vec<Mat> = p.k.iter().map(|m| m.gather_rows(my_idx)).collect();
        let vl: Vec<Mat> = p.v.iter().map(|m| m.gather_rows(my_idx)).collect();
        let dol: Vec<Mat> = p.grad_o.iter().map(|m| m.gather_rows(my_idx)).collect();
        let (o, saved) = try_ulysses_forward(
            comm,
            &members,
            &member_idx,
            &ql,
            &kl,
            &vl,
            p.scale,
            &mask,
            &CostModel::free(),
        )
        .expect("ulysses forward");
        let (dq, dk, dv) = try_ulysses_backward(
            comm,
            &members,
            &member_idx,
            &saved,
            &dol,
            p.scale,
            &mask,
            &CostModel::free(),
        )
        .expect("ulysses backward");
        (o, dq, dk, dv)
    });
    for (rank, (o, dq, dk, dv)) in outs.iter().enumerate() {
        let idx = Layout::Contiguous.indices(n, g, rank);
        for h in 0..heads {
            let ctx = format!("rank {rank} head {h}");
            assert_allclose(&o[h], &r.o[h].gather_rows(&idx), TOL, &format!("{ctx} O"));
            assert_allclose(
                &dq[h],
                &r.dq[h].gather_rows(&idx),
                TOL,
                &format!("{ctx} dQ"),
            );
            assert_allclose(
                &dk[h],
                &r.dk[h].gather_rows(&idx),
                TOL,
                &format!("{ctx} dK"),
            );
            assert_allclose(
                &dv[h],
                &r.dv[h].gather_rows(&idx),
                TOL,
                &format!("{ctx} dV"),
            );
        }
    }
}

#[test]
fn ulysses_rejects_indivisible_heads() {
    // The paper's 14B setting: 40 heads cannot be head-parallelised over 32
    // GPUs; here 3 heads over 2 ranks.
    let (n, heads, dh, g) = (8usize, 3usize, 4usize, 2usize);
    let p = head_problem(n, heads, dh);
    let world = World::new(Topology::single_node(g));
    let outs = world.run_results(|comm| {
        let members: Vec<usize> = (0..g).collect();
        let member_idx: Vec<Vec<usize>> = (0..g)
            .map(|m| Layout::Contiguous.indices(n, g, m))
            .collect();
        let my_idx = &member_idx[comm.rank()];
        let ql: Vec<Mat> = p.q.iter().map(|m| m.gather_rows(my_idx)).collect();
        try_ulysses_forward(
            comm,
            &members,
            &member_idx,
            &ql,
            &ql,
            &ql,
            p.scale,
            &AttnMask::Causal,
            &CostModel::free(),
        )
        .err()
    });
    for out in outs {
        assert_eq!(
            out,
            Some(DattnError::Infeasible(UlyssesError::HeadsNotDivisible {
                heads: 3,
                group: 2
            }))
        );
    }
}

#[test]
fn ulysses_communication_scales_inversely_with_group() {
    // Per-rank all-to-all volume shrinks as the group grows — the property
    // that makes Ulysses cheap (until head count caps it).
    let (n, heads, dh) = (32usize, 8usize, 4usize);
    let p = head_problem(n, heads, dh);
    let measure = |g: usize| {
        let world = World::new(Topology::single_node(g));
        let outs = world.run(|comm| {
            let members: Vec<usize> = (0..g).collect();
            let member_idx: Vec<Vec<usize>> = (0..g)
                .map(|m| Layout::Contiguous.indices(n, g, m))
                .collect();
            let my_idx = &member_idx[comm.rank()];
            let ql: Vec<Mat> = p.q.iter().map(|m| m.gather_rows(my_idx)).collect();
            let kl: Vec<Mat> = p.k.iter().map(|m| m.gather_rows(my_idx)).collect();
            let vl: Vec<Mat> = p.v.iter().map(|m| m.gather_rows(my_idx)).collect();
            try_ulysses_forward(
                comm,
                &members,
                &member_idx,
                &ql,
                &kl,
                &vl,
                p.scale,
                &AttnMask::Causal,
                &CostModel::free(),
            )
            .expect("fwd");
        });
        outs[0].stats.total_elems()
    };
    let v2 = measure(2);
    let v4 = measure(4);
    // Volume per rank ≈ 4·(N/G)·d·(G−1)/G: strictly decreasing in G.
    assert!(
        v4 < v2,
        "per-rank Ulysses volume should shrink with G: G=2 → {v2}, G=4 → {v4}"
    );
}

#[test]
fn usp_matches_reference_per_head() {
    // G = 4 ranks as U=2 Ulysses groups × R=2 ring groups.
    let (n, heads, dh, g, u) = (32usize, 4usize, 5usize, 4usize, 2usize);
    let p = head_problem(n, heads, dh);
    let mask = AttnMask::Causal;
    let r = head_reference(&p, &mask, n);
    let world = World::new(Topology::a800(2, 2));
    let outs = world.run_results(|comm| {
        let topo = UspTopo::new(comm, u);
        let my_idx = topo.local_idx(n);
        let ql: Vec<Mat> = p.q.iter().map(|m| m.gather_rows(&my_idx)).collect();
        let kl: Vec<Mat> = p.k.iter().map(|m| m.gather_rows(&my_idx)).collect();
        let vl: Vec<Mat> = p.v.iter().map(|m| m.gather_rows(&my_idx)).collect();
        let dol: Vec<Mat> = p.grad_o.iter().map(|m| m.gather_rows(&my_idx)).collect();
        let (o, saved) = try_usp_forward(
            comm,
            &topo,
            &ql,
            &kl,
            &vl,
            p.scale,
            &mask,
            n,
            &CostModel::free(),
        )
        .expect("usp forward");
        let (dq, dk, dv) = try_usp_backward(
            comm,
            &topo,
            &saved,
            &dol,
            p.scale,
            &mask,
            n,
            &CostModel::free(),
        )
        .expect("usp backward");
        (my_idx, o, dq, dk, dv)
    });
    assert_eq!(outs.len(), g);
    for (rank, (idx, o, dq, dk, dv)) in outs.iter().enumerate() {
        for h in 0..heads {
            let ctx = format!("rank {rank} head {h}");
            assert_allclose(&o[h], &r.o[h].gather_rows(idx), TOL, &format!("{ctx} O"));
            assert_allclose(&dq[h], &r.dq[h].gather_rows(idx), TOL, &format!("{ctx} dQ"));
            assert_allclose(&dk[h], &r.dk[h].gather_rows(idx), TOL, &format!("{ctx} dK"));
            assert_allclose(&dv[h], &r.dv[h].gather_rows(idx), TOL, &format!("{ctx} dV"));
        }
    }
}

#[test]
fn usp_with_u_equal_world_degenerates_to_ulysses_shape() {
    // U = G: the ring group is a singleton — pure head parallelism.
    let (n, heads, dh, g) = (16usize, 4usize, 4usize, 4usize);
    let p = head_problem(n, heads, dh);
    let mask = AttnMask::Causal;
    let r = head_reference(&p, &mask, n);
    let world = World::new(Topology::single_node(g));
    let outs = world.run_results(|comm| {
        let topo = UspTopo::new(comm, g);
        assert_eq!(topo.ring, 1);
        let my_idx = topo.local_idx(n);
        let ql: Vec<Mat> = p.q.iter().map(|m| m.gather_rows(&my_idx)).collect();
        let kl: Vec<Mat> = p.k.iter().map(|m| m.gather_rows(&my_idx)).collect();
        let vl: Vec<Mat> = p.v.iter().map(|m| m.gather_rows(&my_idx)).collect();
        let (o, _) = try_usp_forward(
            comm,
            &topo,
            &ql,
            &kl,
            &vl,
            p.scale,
            &mask,
            n,
            &CostModel::free(),
        )
        .expect("usp forward");
        (my_idx, o)
    });
    for (idx, o) in &outs {
        for (h, oh) in o.iter().enumerate().take(heads) {
            assert_allclose(oh, &r.o[h].gather_rows(idx), TOL, "U=G output");
        }
    }
}

#[test]
fn usp_rejects_indivisible_heads() {
    let (n, heads, dh, g, u) = (16usize, 3usize, 4usize, 4usize, 2usize);
    let p = head_problem(n, heads, dh);
    let world = World::new(Topology::single_node(g));
    let outs = world.run_results(|comm| {
        let topo = UspTopo::new(comm, u);
        let my_idx = topo.local_idx(n);
        let ql: Vec<Mat> = p.q.iter().map(|m| m.gather_rows(&my_idx)).collect();
        try_usp_forward(
            comm,
            &topo,
            &ql,
            &ql,
            &ql,
            p.scale,
            &AttnMask::Causal,
            n,
            &CostModel::free(),
        )
        .err()
    });
    for out in outs {
        assert_eq!(
            out,
            Some(DattnError::Infeasible(UlyssesError::HeadsNotDivisible {
                heads: 3,
                group: 2
            }))
        );
    }
}
