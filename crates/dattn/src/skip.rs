//! Mask-aware round skipping: the mask's pair count lifted to the schedule.
//!
//! Every dattn schedule moves K/V (or Q/∇O) shards around a ring and folds
//! one (q-shard × kv-shard) *tile* per round. With a sparse [`AttnMask`]
//! many of those tiles are fully masked: the kernels already skip them
//! tile-by-tile, but the schedule still ships the shard and opens the
//! round. A [`SkipPlan`] counts the allowed pairs of every tile once per
//! pass — each shard is at most two arithmetic progressions of tokens
//! ([`Layout::spans`]), so [`AttnMask::pairs_between`] counts a tile in
//! closed form without visiting its tokens, span pair by span pair — and
//! derives, for each hop of each schedule, a *gate*: what of that hop's
//! payload still has a consumer downstream. A tile is live when its count
//! is positive. A gated-off hop sends nothing; a round with no compute, no
//! send and no receive is *idle* — no span, no virtual time, one
//! `rounds_skipped` tick.
//!
//! The same gates drive both the live loops (`ring.rs`, `double_ring.rs`)
//! and the symbolic per-rank censuses below, so the masked analytic wire
//! counts equal the measured counters *by construction* — there is exactly
//! one place deciding whether a hop happens and what it carries.
//!
//! ## Gate algebra (flat ring, `G` ranks)
//!
//! Write `live[i][j]` for "tile (q-shard `i`, kv-shard `j`) has at least
//! one allowed pair", `kv[i][j]` for the set of kv-shard `j`'s spans that
//! hold a key some query of q-shard `i` attends to, and `q[i][j]` for the
//! set of q-shard `i`'s spans that hold a query attending into kv-shard
//! `j` ([`SpanSet`]; both are empty exactly when the tile is dead). The
//! processor of kv-shard `x` at ring step `t` is rank `(x + t) mod G`; the
//! consumer of q-bundle `j` at step `t` is rank `(j + t) mod G`. Then:
//!
//! * forward kv hop at step `t` carries `⋃ kv[(x+t')%G][x]` over
//!   `t' ∈ (t, G)` — the spans some later rank still folds; empty means
//!   gated off;
//! * Algorithm 1 kv hop: the same union over `t' ∈ (t, G)` — at the final
//!   (homecoming) step the range is empty, so the read-only K/V never ride
//!   home with skipping on (the waste Algorithm 2 removes, here recovered
//!   for free);
//! * Algorithm 1 ∇K/∇V hop at step `t`: keep the whole shard iff
//!   `∃ t' ∈ [0, t]: live[(x+t')%G][x]` — some contribution is already in
//!   the circulating buffer and must reach home;
//! * Algorithm 2 read-only hop: `⋃ q[j][(j+t')%G]` over `t' ∈ (t, G)`;
//! * Algorithm 2 ∇Q hop: keep the whole shard iff
//!   `∃ t' ∈ [0, t]: live[j][(j+t')%G]`.
//!
//! The read-only payloads — the forward's K/V, Algorithm 1's (K, V) half
//! and Algorithm 2's (Q, ∇O, Lse, D) bundle — are cut per span; compute
//! and the gradient streams keep whole-shard gates. Under causal and
//! window masks a shard's own tile touches both of its zigzag chunks, so
//! both gradient spans are live from step 0 and a span gate on a gradient
//! would drop nothing.
//!
//! All gates are monotone along the ring: a hop's span set is a subset of
//! what the sender holds, because its consumer range nests inside the
//! range of the hop that delivered the shard. So sender and receiver agree
//! without any metadata exchange — the receiver reads the set from the
//! plan — no later gate can ask a rank to forward a span it never
//! received, and the first live consumer after a gap *materializes* the
//! zero gradient buffers the dense schedule would have carried to it
//! (bit-identical, since a skipped tile contributes exactly nothing to the
//! accumulators).
//!
//! ## Span gates and bit identity
//!
//! A shard stores its spans one after the other, so every span set is one
//! window of its rows ([`SkipPlan::window`]), and the kernels take the
//! window's rows with their global indices. The plan splits a shard into
//! its spans only when the first span ends on a kernel tile boundary
//! ([`burst_kernels::flash::DEFAULT_BLOCK`]): a dropped span is then whole
//! tiles that are fully masked for every consumer the hop feeds — tiles
//! the kernels skip anyway — and every kept tile keeps its rows, its
//! indices and its place in the accumulation order. Any other shard gets
//! all of its spans or none, which is the shard gate.
//!
//! A [`SkipPlan::dense`] plan opens every gate on every span and reports
//! no idle rounds — the skip-off path *is* the legacy schedule, byte for
//! byte and span for span.

use crate::layout::Layout;
use burst_kernels::flash::DEFAULT_BLOCK;
use burst_kernels::AttnMask;
use std::ops::{BitOr, Range};

/// A set of one shard's token spans ([`Layout::spans`]): bit `s` is span
/// `s`. What a read-only hop carries; empty means the hop is gated off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSet(u8);

impl SpanSet {
    /// No span: nothing to send.
    pub const NONE: SpanSet = SpanSet(0);
    /// Every span: the whole shard.
    pub const ALL: SpanSet = SpanSet(0b11);

    fn span(s: usize) -> SpanSet {
        SpanSet(1 << s)
    }

    /// The set holds at least one span.
    #[inline]
    pub fn any(self) -> bool {
        self.0 != 0
    }

    /// This set where the hop exists, nothing where it does not.
    fn when(self, open: bool) -> SpanSet {
        if open {
            self
        } else {
            SpanSet::NONE
        }
    }
}

impl BitOr for SpanSet {
    type Output = SpanSet;

    fn bitor(self, rhs: SpanSet) -> SpanSet {
        SpanSet(self.0 | rhs.0)
    }
}

/// Per-pass tile pair counts for one ring, plus the hop gates derived from
/// which spans of each tile hold allowed pairs.
#[derive(Debug, Clone)]
pub struct SkipPlan {
    g: usize,
    /// Dense plans gate nothing (legacy traffic); built plans consult the
    /// tables below, which are empty on the dense plan.
    dense: bool,
    /// `pairs[q * g + k]` — allowed pairs of tile (q-shard, kv-shard).
    pairs: Vec<u128>,
    /// `kv_reads[q * g + k]` — the spans of kv-shard `k` that q-shard `q`
    /// reads.
    kv_reads: Vec<SpanSet>,
    /// `q_reads[q * g + k]` — the spans of q-shard `q` that read kv-shard
    /// `k`.
    q_reads: Vec<SpanSet>,
    /// Rows of each position's first span.
    head: Vec<usize>,
}

impl SkipPlan {
    /// The skip-off plan: every gate open on every span, no round ever
    /// idle.
    pub fn dense(g: usize) -> SkipPlan {
        SkipPlan {
            g,
            dense: true,
            pairs: Vec::new(),
            kv_reads: Vec::new(),
            q_reads: Vec::new(),
            head: Vec::new(),
        }
    }

    /// Count the allowed pairs of all `g²` tiles of a `g`-position ring
    /// over `layout`, every position cut at `max_token`, span pair by span
    /// pair: O(g²) closed-form counts ([`AttnMask::pairs_between`]), no
    /// token scan. A shard is split into its spans only when its first
    /// span ends on a kernel tile boundary (module docs).
    pub fn build(
        mask: &AttnMask,
        layout: Layout,
        seq_len: usize,
        g: usize,
        max_token: Option<usize>,
    ) -> SkipPlan {
        let spans: Vec<_> = (0..g)
            .map(|p| layout.spans(seq_len, g, p, max_token))
            .collect();
        let split: Vec<bool> = spans
            .iter()
            .map(|s| s.len() == 2 && s[0].len.is_multiple_of(DEFAULT_BLOCK))
            .collect();
        let mut pairs = Vec::with_capacity(g * g);
        let mut kv_reads = Vec::with_capacity(g * g);
        let mut q_reads = Vec::with_capacity(g * g);
        for (qi, q) in spans.iter().enumerate() {
            for (ki, k) in spans.iter().enumerate() {
                let (mut n, mut q_set, mut kv_set) = (0, SpanSet::NONE, SpanSet::NONE);
                for (a, sa) in q.iter().enumerate() {
                    for (b, sb) in k.iter().enumerate() {
                        let c =
                            mask.pairs_between(std::slice::from_ref(sa), std::slice::from_ref(sb));
                        if c > 0 {
                            n += c;
                            q_set = q_set | SpanSet::span(a);
                            kv_set = kv_set | SpanSet::span(b);
                        }
                    }
                }
                let whole = if n > 0 { SpanSet::ALL } else { SpanSet::NONE };
                pairs.push(n);
                q_reads.push(if split[qi] { q_set } else { whole });
                kv_reads.push(if split[ki] { kv_set } else { whole });
            }
        }
        SkipPlan {
            g,
            dense: false,
            pairs,
            kv_reads,
            q_reads,
            head: spans.iter().map(|s| s[0].len).collect(),
        }
    }

    #[inline]
    pub fn ring_size(&self) -> usize {
        self.g
    }

    /// Tile (q-shard, kv-shard) has at least one allowed pair (every tile
    /// is live on the dense plan).
    #[inline]
    pub fn live(&self, q_shard: usize, kv_shard: usize) -> bool {
        self.dense || self.pairs[q_shard * self.g + kv_shard] > 0
    }

    /// Allowed pairs of tile (q-shard, kv-shard): the pairs the kernels
    /// fold for it. Only built plans count; the dense plan panics.
    #[track_caller]
    pub fn pairs(&self, q_shard: usize, kv_shard: usize) -> u128 {
        assert!(!self.dense, "the dense skip plan counts no pairs");
        self.pairs[q_shard * self.g + kv_shard]
    }

    /// The spans of kv-shard `kv_shard` that q-shard `q_shard` reads: every
    /// span on the dense plan, none when the tile is dead, all of them
    /// when the plan does not split the kv shard.
    #[inline]
    fn kv_reads(&self, q_shard: usize, kv_shard: usize) -> SpanSet {
        if self.dense {
            SpanSet::ALL
        } else {
            self.kv_reads[q_shard * self.g + kv_shard]
        }
    }

    /// The spans of q-shard `q_shard` that read kv-shard `kv_shard` (as
    /// [`Self::kv_reads`], split on the q shard instead).
    #[inline]
    fn q_reads(&self, q_shard: usize, kv_shard: usize) -> SpanSet {
        if self.dense {
            SpanSet::ALL
        } else {
            self.q_reads[q_shard * self.g + kv_shard]
        }
    }

    /// The window of `shard`'s `rows` rows that `set` covers; `None` for
    /// the empty set, which sends nothing (a shard cut to no rows still
    /// sends when its set is not empty, as the dense schedule does). Only
    /// built plans split a shard, so on the dense plan a set is all or
    /// nothing.
    pub fn window(&self, shard: usize, set: SpanSet, rows: usize) -> Option<Range<usize>> {
        let head = if self.dense { rows } else { self.head[shard] };
        match set.0 {
            0 => None,
            0b01 => Some(0..head),
            0b10 => Some(head..rows),
            _ => Some(0..rows),
        }
    }

    /// Any kv-shard live for this q-shard (the q-shard's ∇Q is nonzero-able).
    pub fn row_any(&self, q_shard: usize) -> bool {
        (0..self.g).any(|k| self.live(q_shard, k))
    }

    /// Any q-shard live for this kv-shard (its ∇K/∇V have a contributor).
    pub fn col_any(&self, kv_shard: usize) -> bool {
        (0..self.g).any(|q| self.live(q, kv_shard))
    }

    /// The spans of kv-shard `shard` that some step `t ∈ [lo, hi)` folds:
    /// `⋃ kv[(shard + t) % g][shard]` (every span on the dense plan).
    fn kv_consumer_in(&self, shard: usize, lo: usize, hi: usize) -> SpanSet {
        let g = self.g;
        self.union(lo..hi, |t| self.kv_reads((shard + t) % g, shard))
    }

    /// The spans of q-bundle `bundle` that some step `t ∈ [lo, hi)` reads:
    /// `⋃ q[bundle][(bundle + t) % g]`.
    fn ro_consumer_in(&self, bundle: usize, lo: usize, hi: usize) -> SpanSet {
        let g = self.g;
        self.union(lo..hi, |t| self.q_reads(bundle, (bundle + t) % g))
    }

    /// Union of `set(t)` over `steps`; every span on the dense plan, which
    /// gates nothing.
    fn union(&self, steps: Range<usize>, set: impl Fn(usize) -> SpanSet) -> SpanSet {
        if self.dense {
            return SpanSet::ALL;
        }
        steps.fold(SpanSet::NONE, |acc, t| acc | set(t))
    }

    // ---- flat-ring hop gates -------------------------------------------

    /// Forward kv hop: the spans of `shard` that leave its step-`hop`
    /// holder — those a later rank still folds.
    pub fn fwd_kv_hop(&self, shard: usize, hop: usize) -> SpanSet {
        self.kv_consumer_in(shard, hop + 1, self.g)
    }

    /// Algorithm 1 read-only kv hop (steps `0..g`; the homecoming step
    /// `g−1` has an empty consumer range, so it carries nothing when
    /// built).
    pub fn alg1_kv_hop(&self, shard: usize, hop: usize) -> SpanSet {
        self.kv_consumer_in(shard, hop + 1, self.g)
    }

    /// Algorithm 1 ∇K/∇V hop: the whole shard, once any contribution is in
    /// flight.
    pub fn alg1_dkv_hop(&self, shard: usize, hop: usize) -> bool {
        self.kv_consumer_in(shard, 0, hop + 1).any()
    }

    /// Algorithm 2 read-only bundle hop.
    pub fn alg2_ro_hop(&self, bundle: usize, hop: usize) -> SpanSet {
        self.ro_consumer_in(bundle, hop + 1, self.g)
    }

    /// Algorithm 2 ∇Q hop: the whole shard, once any contribution is in
    /// flight; the homecoming gate (`hop = g−1`) is `row_any(bundle)`.
    pub fn alg2_dq_hop(&self, bundle: usize, hop: usize) -> bool {
        self.ro_consumer_in(bundle, 0, hop + 1).any()
    }

    // ---- per-round plans (single source of truth for loop + census) ----

    /// One rank-round of the flat forward.
    pub fn flat_fwd_round(&self, me: usize, step: usize) -> FlatFwdRound {
        let g = self.g;
        let shard_out = (me + g - step % g) % g;
        let shard_in = (me + g - step % g + g - 1) % g;
        let hop = |shard| self.fwd_kv_hop(shard, step).when(step < g - 1);
        FlatFwdRound {
            shard_out,
            shard_in,
            send: hop(shard_out),
            recv: hop(shard_in),
            compute: self.live(me, shard_out),
        }
    }

    /// One rank-round of Algorithm 1's backward.
    pub fn flat_alg1_round(&self, me: usize, step: usize) -> FlatAlg1Round {
        let g = self.g;
        let shard_out = (me + g - step % g) % g;
        let shard_in = (me + g - step % g + g - 1) % g;
        FlatAlg1Round {
            shard_out,
            shard_in,
            send_kv: self.alg1_kv_hop(shard_out, step),
            send_dkv: self.alg1_dkv_hop(shard_out, step),
            recv_kv: self.alg1_kv_hop(shard_in, step),
            recv_dkv: self.alg1_dkv_hop(shard_in, step),
            compute: self.live(me, shard_out),
        }
    }

    /// One rank-round of Algorithm 2's backward (round `0` is the warm-up:
    /// nothing is received, the local bundle departs).
    pub fn flat_alg2_round(&self, me: usize, round: usize) -> FlatAlg2Round {
        let g = self.g;
        let bundle = (me + g - round % g) % g;
        let warmup = round == 0;
        FlatAlg2Round {
            bundle,
            recv_ro: if warmup {
                SpanSet::NONE
            } else {
                self.alg2_ro_hop(bundle, round - 1)
            },
            fwd_ro: self.alg2_ro_hop(bundle, round).when(round < g - 1),
            recv_dq: !warmup && self.alg2_dq_hop(bundle, round - 1),
            send_dq: self.alg2_dq_hop(bundle, round),
            compute: self.live(bundle, me),
        }
    }

    /// Gate on Algorithm 2's final homecoming receive of this rank's ∇Q.
    pub fn flat_alg2_final(&self, me: usize) -> bool {
        self.dense || self.row_any(me)
    }

    // ---- per-pass memory activity (gates the pass-scoped ledger slots) --

    /// Does the flat forward ever land a received (K, V) bundle here?
    pub fn flat_fwd_recv_any(&self, me: usize) -> bool {
        (0..self.g).any(|s| self.flat_fwd_round(me, s).recv.any())
    }

    /// Which halves of Algorithm 1's circulating (K, V, ∇K, ∇V) slot this
    /// rank ever holds: `(kv_buf, dkv_buf)`.
    pub fn flat_alg1_bufs(&self, me: usize) -> (bool, bool) {
        let mut kv = false;
        let mut dkv = false;
        for s in 0..self.g {
            let r = self.flat_alg1_round(me, s);
            kv |= r.recv_kv.any();
            dkv |= r.recv_dkv || r.compute;
        }
        (kv, dkv)
    }

    /// Which of Algorithm 2's steady-state slots this rank ever touches:
    /// `(ro_bundle, dq_ring, dq_buf)`.
    pub fn flat_alg2_bufs(&self, me: usize) -> (bool, bool, bool) {
        let mut ro = false;
        let mut dq_ring = self.flat_alg2_final(me);
        let mut dq_buf = false;
        for s in 0..self.g {
            let r = self.flat_alg2_round(me, s);
            ro |= r.recv_ro.any();
            dq_ring |= r.send_dq || r.recv_dq;
            dq_buf |= r.compute || r.recv_dq;
        }
        (ro, dq_ring, dq_buf)
    }

    // ---- double-ring hop gates -----------------------------------------

    /// Rank processing kv-shard / q-bundle `x` at double-ring slot `t`
    /// (forward and Algorithm 2 traversal: the inner ring advances every
    /// slot, the outer ring every `p` slots, and the shard ladder resets
    /// to the sweep's start shard at each outer boundary).
    fn dr_proc(x: usize, t: usize, n: usize, p: usize) -> usize {
        let (ox, ix) = (x / p, x % p);
        ((ox + t / p) % n) * p + (ix + t % p) % p
    }

    /// Same for Algorithm 1's continuous traversal: hops `1..=t` contain
    /// `⌊t/p⌋` inter hops (one after every `p`-th step), the rest intra.
    fn dr_alg1_proc(x: usize, t: usize, n: usize, p: usize) -> usize {
        let q = t / p;
        let (ox, ix) = (x / p, x % p);
        ((ox + q) % n) * p + (ix + (t - q)) % p
    }

    /// Shard / bundle handled by `me` at forward / Algorithm 2 slot
    /// `(outer, inner)` — the inverse of [`Self::dr_proc`].
    fn dr_held(me: usize, outer: usize, inner: usize, n: usize, p: usize) -> usize {
        let (om, im) = (me / p, me % p);
        ((om + n - outer % n) % n) * p + (im + p - inner % p) % p
    }

    /// Shard held by `me` at Algorithm 1 step `t` — the inverse of
    /// [`Self::dr_alg1_proc`].
    fn dr_alg1_held(me: usize, t: usize, n: usize, p: usize) -> usize {
        let q = t / p;
        let (om, im) = (me / p, me % p);
        ((om + n - q % n) % n) * p + (im + p - (t - q) % p) % p
    }

    /// `⋃ kv[dr_proc(shard, t)][shard]` over `t ∈ [lo, hi)`.
    fn dr_kv_consumer_in(&self, shard: usize, lo: usize, hi: usize, n: usize, p: usize) -> SpanSet {
        self.union(lo..hi, |t| {
            self.kv_reads(Self::dr_proc(shard, t, n, p), shard)
        })
    }

    /// `⋃ q[bundle][dr_proc(bundle, t)]` over `t ∈ [lo, hi)`.
    fn dr_ro_consumer_in(
        &self,
        bundle: usize,
        lo: usize,
        hi: usize,
        n: usize,
        p: usize,
    ) -> SpanSet {
        self.union(lo..hi, |t| {
            self.q_reads(bundle, Self::dr_proc(bundle, t, n, p))
        })
    }

    /// `⋃ kv[dr_alg1_proc(shard, t)][shard]` over `t ∈ [lo, hi)`.
    fn dr_alg1_consumer_in(
        &self,
        shard: usize,
        lo: usize,
        hi: usize,
        n: usize,
        p: usize,
    ) -> SpanSet {
        self.union(lo..hi, |t| {
            self.kv_reads(Self::dr_alg1_proc(shard, t, n, p), shard)
        })
    }

    // ---- double-ring per-round plans ------------------------------------

    /// Gates for one outer-ring boundary of the double-ring forward: the
    /// early posting of the *next sweep's* start shard to the peer node,
    /// and the matching receive after this sweep drains. A start shard
    /// carries the spans some slot of a later sweep still folds.
    pub fn dr_fwd_outer(&self, me: usize, outer: usize, n: usize, p: usize) -> DrFwdOuter {
        let start_shard = Self::dr_held(me, outer, 0, n, p);
        let start_in = Self::dr_held(me, outer + 1, 0, n, p);
        let later = |shard| {
            self.dr_kv_consumer_in(shard, (outer + 1) * p, n * p, n, p)
                .when(outer + 1 < n)
        };
        DrFwdOuter {
            start_shard,
            start_in,
            send_inter: later(start_shard),
            recv_inter: later(start_in),
        }
    }

    /// Gates for one inner slot of the double-ring forward. Intra hops are
    /// scoped to the current sweep: a shard leaves this slot with the spans
    /// a later slot of the *same* sweep still folds (later sweeps reach it
    /// via the outer ring's start-shard chain instead).
    pub fn dr_fwd_slot(
        &self,
        me: usize,
        outer: usize,
        inner: usize,
        n: usize,
        p: usize,
    ) -> DrFwdSlot {
        let shard = Self::dr_held(me, outer, inner, n, p);
        let shard_in = Self::dr_held(me, outer, inner + 1, n, p);
        let t = outer * p + inner;
        let sweep = |x| {
            self.dr_kv_consumer_in(x, t + 1, (outer + 1) * p, n, p)
                .when(inner + 1 < p)
        };
        DrFwdSlot {
            shard,
            shard_in,
            send: sweep(shard),
            recv: sweep(shard_in),
            compute: self.live(me, shard),
        }
    }

    /// Gates for one step of Algorithm 1's double-ring backward (the
    /// continuous 4-mat circulation). The read-only (K, V) half carries the
    /// spans future consumers read, the (∇K, ∇V) half travels whole on
    /// accumulated contributions; the final step `n·p − 1` breaks before
    /// sending.
    pub fn dr_alg1_slot(&self, me: usize, t: usize, n: usize, p: usize) -> DrAlg1Slot {
        let np = n * p;
        let shard = Self::dr_alg1_held(me, t, n, p);
        let shard_in = Self::dr_alg1_held(me, t + 1, n, p);
        let last = t + 1 == np;
        let kv = |x| self.dr_alg1_consumer_in(x, t + 1, np, n, p).when(!last);
        let dkv = |x| !last && self.dr_alg1_consumer_in(x, 0, t + 1, n, p).any();
        DrAlg1Slot {
            shard,
            shard_in,
            inter: t % p == p - 1,
            send_kv: kv(shard),
            send_dkv: dkv(shard),
            recv_kv: kv(shard_in),
            recv_dkv: dkv(shard_in),
            compute: self.live(me, shard),
        }
    }

    /// Algorithm 1's completion hops: the ∇K/∇V bundles finish their ride
    /// home (one inter hop when `n > 1`, then `n mod p` intra hops). Each
    /// hop's gate is `col_any` of the shard it carries — the full sweep
    /// visits every rank, so a shard with any contributor anywhere holds a
    /// nonzero gradient here.
    pub fn dr_alg1_completion(&self, me: usize, n: usize, p: usize) -> Vec<DrCompletionHop> {
        let (om, im) = (me / p, me % p);
        let mut hops = Vec::new();
        if n > 1 {
            let held = ((om + 1) % n) * p + (im + n) % p;
            let next = om * p + (im + n) % p;
            hops.push(DrCompletionHop {
                inter: true,
                send_shard: held,
                recv_shard: next,
                send: self.dense || self.col_any(held),
                recv: self.dense || self.col_any(next),
            });
        }
        for j in 0..n % p {
            let cur = om * p + (im + n - j) % p;
            let nxt = om * p + (im + n - j - 1) % p;
            hops.push(DrCompletionHop {
                inter: false,
                send_shard: cur,
                recv_shard: nxt,
                send: self.dense || self.col_any(cur),
                recv: self.dense || self.col_any(nxt),
            });
        }
        hops
    }

    /// Gates for one outer-ring boundary of Algorithm 2's double-ring
    /// backward: the early posting of the next sweep's read-only start
    /// bundle `(Q, ∇O, lse, D)`.
    pub fn dr_alg2_outer(&self, me: usize, outer: usize, n: usize, p: usize) -> DrAlg2Outer {
        let start_bundle = Self::dr_held(me, outer, 0, n, p);
        let start_in = Self::dr_held(me, outer + 1, 0, n, p);
        let later = |bundle| {
            self.dr_ro_consumer_in(bundle, (outer + 1) * p, n * p, n, p)
                .when(outer + 1 < n)
        };
        DrAlg2Outer {
            start_bundle,
            start_in,
            send_inter: later(start_bundle),
            recv_inter: later(start_in),
        }
    }

    /// Gates for one inner slot of Algorithm 2's double-ring backward. The
    /// ∇Q stream rides the slot ladder (intra within a sweep, one diagonal
    /// hop per boundary): held whole once any contribution is aboard.
    pub fn dr_alg2_slot(
        &self,
        me: usize,
        outer: usize,
        inner: usize,
        n: usize,
        p: usize,
    ) -> DrAlg2Slot {
        let bundle = Self::dr_held(me, outer, inner, n, p);
        let bundle_in = Self::dr_held(me, outer, inner + 1, n, p);
        let t = outer * p + inner;
        let sweep = |x| {
            self.dr_ro_consumer_in(x, t + 1, (outer + 1) * p, n, p)
                .when(inner + 1 < p)
        };
        DrAlg2Slot {
            bundle,
            bundle_in,
            diag: inner + 1 == p,
            send_ro: sweep(bundle),
            recv_ro: sweep(bundle_in),
            recv_dq: t > 0 && self.dr_ro_consumer_in(bundle, 0, t, n, p).any(),
            send_dq: self.dr_ro_consumer_in(bundle, 0, t + 1, n, p).any(),
            compute: self.live(bundle, me),
        }
    }

    /// Gate on Algorithm 2's double-ring homecoming receive of this rank's
    /// ∇Q (the diagonal sender's final gate covers every slot, i.e. every
    /// rank, so both sides reduce to `row_any`).
    pub fn dr_alg2_final(&self, me: usize) -> bool {
        self.dense || self.row_any(me)
    }

    // ---- double-ring per-pass memory activity ---------------------------

    /// Double-ring forward buffers this rank ever lands: `(start, cur)`.
    pub fn dr_fwd_bufs(&self, me: usize, n: usize, p: usize) -> (bool, bool) {
        let start = (0..n).any(|o| self.dr_fwd_outer(me, o, n, p).recv_inter.any());
        let cur = (0..n).any(|o| (0..p).any(|i| self.dr_fwd_slot(me, o, i, n, p).recv.any()));
        (start, cur)
    }

    /// Which halves of Algorithm 1's circulating 4-mat bundle this rank
    /// ever holds on the double ring: `(kv, dkv)`.
    pub fn dr_alg1_bufs(&self, me: usize, n: usize, p: usize) -> (bool, bool) {
        let np = n * p;
        let mut kv = false;
        let mut dkv = false;
        for t in 0..np {
            let s = self.dr_alg1_slot(me, t, n, p);
            kv |= s.recv_kv.any();
            dkv |= s.recv_dkv || s.compute;
        }
        for h in self.dr_alg1_completion(me, n, p) {
            dkv |= h.recv;
        }
        (kv, dkv)
    }

    /// Algorithm 2 double-ring slots this rank ever touches:
    /// `(start, cur, dq_ring, dq_buf)`.
    pub fn dr_alg2_bufs(&self, me: usize, n: usize, p: usize) -> (bool, bool, bool, bool) {
        let start = (0..n).any(|o| self.dr_alg2_outer(me, o, n, p).recv_inter.any());
        let mut cur = false;
        let mut dq_ring = self.dr_alg2_final(me);
        let mut dq_buf = false;
        for o in 0..n {
            for i in 0..p {
                let s = self.dr_alg2_slot(me, o, i, n, p);
                cur |= s.recv_ro.any();
                dq_ring |= s.send_dq || s.recv_dq;
                dq_buf |= s.compute || s.recv_dq;
            }
        }
        (start, cur, dq_ring, dq_buf)
    }
}

/// Gates for one rank-round of the flat forward.
#[derive(Debug, Clone, Copy)]
pub struct FlatFwdRound {
    /// Shard held (and computed against) this round.
    pub shard_out: usize,
    /// Shard arriving this round (if any).
    pub shard_in: usize,
    pub send: SpanSet,
    pub recv: SpanSet,
    pub compute: bool,
}

impl FlatFwdRound {
    /// No compute, no send, no receive: the round never opens.
    pub fn idle(&self) -> bool {
        !(self.send.any() || self.recv.any() || self.compute)
    }
}

/// Gates for one rank-round of Algorithm 1's backward.
#[derive(Debug, Clone, Copy)]
pub struct FlatAlg1Round {
    pub shard_out: usize,
    pub shard_in: usize,
    pub send_kv: SpanSet,
    pub send_dkv: bool,
    pub recv_kv: SpanSet,
    pub recv_dkv: bool,
    pub compute: bool,
}

impl FlatAlg1Round {
    pub fn idle(&self) -> bool {
        !(self.send_kv.any()
            || self.send_dkv
            || self.recv_kv.any()
            || self.recv_dkv
            || self.compute)
    }
}

/// Gates for one rank-round of Algorithm 2's backward.
#[derive(Debug, Clone, Copy)]
pub struct FlatAlg2Round {
    /// Which q-bundle this round handles.
    pub bundle: usize,
    pub recv_ro: SpanSet,
    pub fwd_ro: SpanSet,
    pub recv_dq: bool,
    pub send_dq: bool,
    pub compute: bool,
}

impl FlatAlg2Round {
    pub fn idle(&self) -> bool {
        !(self.recv_ro.any() || self.fwd_ro.any() || self.recv_dq || self.send_dq || self.compute)
    }
}

/// Gates for one outer-ring boundary of the double-ring forward.
#[derive(Debug, Clone, Copy)]
pub struct DrFwdOuter {
    /// Start shard of the current sweep (the one posted early).
    pub start_shard: usize,
    /// Start shard of the next sweep (the one received after draining).
    pub start_in: usize,
    pub send_inter: SpanSet,
    pub recv_inter: SpanSet,
}

/// Gates for one inner slot of the double-ring forward.
#[derive(Debug, Clone, Copy)]
pub struct DrFwdSlot {
    /// Shard computed against this slot.
    pub shard: usize,
    /// Shard arriving on the intra ring this slot (if any).
    pub shard_in: usize,
    pub send: SpanSet,
    pub recv: SpanSet,
    pub compute: bool,
}

impl DrFwdSlot {
    /// No compute, no intra send, no intra receive: the slot never opens.
    pub fn idle(&self) -> bool {
        !(self.send.any() || self.recv.any() || self.compute)
    }
}

/// Gates for one step of Algorithm 1's double-ring backward.
#[derive(Debug, Clone, Copy)]
pub struct DrAlg1Slot {
    pub shard: usize,
    pub shard_in: usize,
    /// This step's outbound hop crosses the outer (node) ring.
    pub inter: bool,
    pub send_kv: SpanSet,
    pub send_dkv: bool,
    pub recv_kv: SpanSet,
    pub recv_dkv: bool,
    pub compute: bool,
}

impl DrAlg1Slot {
    pub fn idle(&self) -> bool {
        !(self.send_kv.any()
            || self.send_dkv
            || self.recv_kv.any()
            || self.recv_dkv
            || self.compute)
    }
}

/// One hop of Algorithm 1's double-ring completion phase (∇K/∇V bundles
/// finishing the ride home).
#[derive(Debug, Clone, Copy)]
pub struct DrCompletionHop {
    pub inter: bool,
    /// Shard whose gradients depart on this hop.
    pub send_shard: usize,
    /// Shard whose gradients arrive on this hop.
    pub recv_shard: usize,
    pub send: bool,
    pub recv: bool,
}

/// Gates for one outer-ring boundary of Algorithm 2's double-ring backward.
#[derive(Debug, Clone, Copy)]
pub struct DrAlg2Outer {
    pub start_bundle: usize,
    pub start_in: usize,
    pub send_inter: SpanSet,
    pub recv_inter: SpanSet,
}

/// Gates for one inner slot of Algorithm 2's double-ring backward.
#[derive(Debug, Clone, Copy)]
pub struct DrAlg2Slot {
    /// Which q-bundle this slot handles.
    pub bundle: usize,
    /// Bundle arriving on the intra ring this slot (if any).
    pub bundle_in: usize,
    /// This slot's ∇Q hop is the per-sweep diagonal (inter when `n > 1`).
    pub diag: bool,
    pub send_ro: SpanSet,
    pub recv_ro: SpanSet,
    pub recv_dq: bool,
    pub send_dq: bool,
    pub compute: bool,
}

impl DrAlg2Slot {
    pub fn idle(&self) -> bool {
        !(self.send_ro.any() || self.recv_ro.any() || self.recv_dq || self.send_dq || self.compute)
    }
}

// ---------------------------------------------------------------------
// Symbolic per-rank censuses
// ---------------------------------------------------------------------

/// Shard geometry shared by the censuses: per-position row counts (post
/// `max_token` filtering) and the K/Q and V/∇O column widths.
#[derive(Debug, Clone)]
pub struct RingGeom {
    /// Rows owned by each ring position.
    pub rows: Vec<usize>,
    /// Columns of Q/K/∇Q (head dim).
    pub d: usize,
    /// Columns of V/O/∇O.
    pub dv: usize,
}

impl RingGeom {
    pub fn build(
        layout: Layout,
        seq_len: usize,
        g: usize,
        d: usize,
        dv: usize,
        max_token: Option<usize>,
    ) -> RingGeom {
        let rows = (0..g)
            .map(|p| {
                let spans = layout.spans(seq_len, g, p, max_token);
                spans.iter().map(|s| s.len).sum()
            })
            .collect();
        RingGeom { rows, d, dv }
    }
}

/// Exact per-rank wire activity of one masked pass, in logical elements
/// (dtype-free — the perf crate converts to bytes at the wire dtype;
/// `vec` elements are the always-f32 softmax statistics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaskedWire {
    pub intra_msgs: u64,
    pub inter_msgs: u64,
    pub intra_mat_elems: u64,
    pub inter_mat_elems: u64,
    pub intra_vec_elems: u64,
    pub inter_vec_elems: u64,
    /// Rank-rounds elided entirely (no span, no clock).
    pub rounds_skipped: u64,
    /// Matrix elements the gates kept off the wire (dense-schedule dual).
    pub skipped_mat_elems: u64,
    /// Vector elements the gates kept off the wire.
    pub skipped_vec_elems: u64,
}

impl MaskedWire {
    pub fn add(&self, other: &MaskedWire) -> MaskedWire {
        MaskedWire {
            intra_msgs: self.intra_msgs + other.intra_msgs,
            inter_msgs: self.inter_msgs + other.inter_msgs,
            intra_mat_elems: self.intra_mat_elems + other.intra_mat_elems,
            inter_mat_elems: self.inter_mat_elems + other.inter_mat_elems,
            intra_vec_elems: self.intra_vec_elems + other.intra_vec_elems,
            inter_vec_elems: self.inter_vec_elems + other.inter_vec_elems,
            rounds_skipped: self.rounds_skipped + other.rounds_skipped,
            skipped_mat_elems: self.skipped_mat_elems + other.skipped_mat_elems,
            skipped_vec_elems: self.skipped_vec_elems + other.skipped_vec_elems,
        }
    }

    pub fn msgs(&self) -> u64 {
        self.intra_msgs + self.inter_msgs
    }

    pub fn mat_elems(&self) -> u64 {
        self.intra_mat_elems + self.inter_mat_elems
    }

    pub fn vec_elems(&self) -> u64 {
        self.intra_vec_elems + self.inter_vec_elems
    }

    fn mat(&mut self, inter: bool, elems: u64) {
        if inter {
            self.inter_msgs += 1;
            self.inter_mat_elems += elems;
        } else {
            self.intra_msgs += 1;
            self.intra_mat_elems += elems;
        }
    }

    fn vec(&mut self, inter: bool, elems: u64) {
        if inter {
            self.inter_msgs += 1;
            self.inter_vec_elems += elems;
        } else {
            self.intra_msgs += 1;
            self.intra_vec_elems += elems;
        }
    }

    /// One (K, V) or (∇K, ∇V) hop of a `rows`-row shard carrying `sent` of
    /// its rows (`None`: gated off): two matrices when it is posted, the
    /// other rows billed to the skip dual.
    fn kv_hop(&mut self, inter: bool, sent: Option<usize>, rows: usize, geom: &RingGeom) {
        if let Some(n) = sent {
            self.mat(inter, (n * geom.d) as u64);
            self.mat(inter, (n * geom.dv) as u64);
        }
        let dropped = rows - sent.unwrap_or(0);
        self.skipped_mat_elems += (dropped * (geom.d + geom.dv)) as u64;
    }

    /// One read-only (Q, ∇O, Lse, D) hop of a `rows`-row bundle carrying
    /// `sent` of its rows: two matrices and two statistics vectors.
    fn ro_hop(&mut self, inter: bool, sent: Option<usize>, rows: usize, geom: &RingGeom) {
        if let Some(n) = sent {
            self.mat(inter, (n * geom.d) as u64);
            self.mat(inter, (n * geom.dv) as u64);
            self.vec(inter, n as u64);
            self.vec(inter, n as u64);
        }
        let dropped = rows - sent.unwrap_or(0);
        self.skipped_mat_elems += (dropped * (geom.d + geom.dv)) as u64;
        self.skipped_vec_elems += 2 * dropped as u64;
    }
}

/// Rows of `shard` a hop carrying `set` sends (`None`: gated off).
fn sent(plan: &SkipPlan, geom: &RingGeom, shard: usize, set: SpanSet) -> Option<usize> {
    plan.window(shard, set, geom.rows[shard]).map(|w| w.len())
}

/// Flat forward census for `me`. `edge_inter` is the link class of this
/// rank's ring edge to its successor (all flat-ring sends use it).
pub fn census_flat_forward(
    plan: &SkipPlan,
    geom: &RingGeom,
    edge_inter: bool,
    me: usize,
) -> MaskedWire {
    let g = plan.ring_size();
    let mut w = MaskedWire::default();
    for step in 0..g {
        let r = plan.flat_fwd_round(me, step);
        if r.idle() {
            w.rounds_skipped += 1;
        }
        if step < g - 1 {
            let rows = geom.rows[r.shard_out];
            w.kv_hop(
                edge_inter,
                sent(plan, geom, r.shard_out, r.send),
                rows,
                geom,
            );
        }
    }
    w
}

/// Algorithm 1 backward census for `me` (overlap-mode independent).
pub fn census_flat_alg1(
    plan: &SkipPlan,
    geom: &RingGeom,
    edge_inter: bool,
    me: usize,
) -> MaskedWire {
    let g = plan.ring_size();
    let mut w = MaskedWire::default();
    if g == 1 {
        return w;
    }
    for step in 0..g {
        let r = plan.flat_alg1_round(me, step);
        if r.idle() {
            w.rounds_skipped += 1;
        }
        let rows = geom.rows[r.shard_out];
        w.kv_hop(
            edge_inter,
            sent(plan, geom, r.shard_out, r.send_kv),
            rows,
            geom,
        );
        w.kv_hop(edge_inter, r.send_dkv.then_some(rows), rows, geom);
    }
    w
}

/// Algorithm 2 backward census for `me` (fine-overlap round structure;
/// message and byte totals are overlap-mode independent).
pub fn census_flat_alg2(
    plan: &SkipPlan,
    geom: &RingGeom,
    edge_inter: bool,
    me: usize,
) -> MaskedWire {
    let g = plan.ring_size();
    let mut w = MaskedWire::default();
    if g == 1 {
        return w;
    }
    for round in 0..g {
        let r = plan.flat_alg2_round(me, round);
        if r.idle() {
            w.rounds_skipped += 1;
        }
        if round < g - 1 {
            let rows = geom.rows[r.bundle];
            w.ro_hop(edge_inter, sent(plan, geom, r.bundle, r.fwd_ro), rows, geom);
        }
        let dq = (geom.rows[r.bundle] * geom.d) as u64;
        if r.send_dq {
            w.mat(edge_inter, dq);
        } else {
            w.skipped_mat_elems += dq;
        }
    }
    if !plan.flat_alg2_final(me) {
        w.rounds_skipped += 1;
    }
    w
}

/// Double-ring forward census for `me` on an `n`-node × `p`-GPU world
/// (canonical slot-is-rank placement: intra-sweep hops ride node-local
/// links; outer-ring start-shard hops are inter-node, which only exist
/// when `n > 1`).
pub fn census_dr_forward(
    plan: &SkipPlan,
    geom: &RingGeom,
    n: usize,
    p: usize,
    me: usize,
) -> MaskedWire {
    let mut w = MaskedWire::default();
    for outer in 0..n {
        let op = plan.dr_fwd_outer(me, outer, n, p);
        if outer + 1 < n {
            let rows = geom.rows[op.start_shard];
            w.kv_hop(
                true,
                sent(plan, geom, op.start_shard, op.send_inter),
                rows,
                geom,
            );
        }
        for inner in 0..p {
            let s = plan.dr_fwd_slot(me, outer, inner, n, p);
            if s.idle() {
                w.rounds_skipped += 1;
            }
            if inner + 1 < p {
                let rows = geom.rows[s.shard];
                w.kv_hop(false, sent(plan, geom, s.shard, s.send), rows, geom);
            }
        }
    }
    w
}

/// Algorithm 1 double-ring backward census for `me`, including the
/// completion phase. The completion span counts as one skipped round iff
/// it has hops and every one of this rank's gates is off.
pub fn census_dr_alg1(
    plan: &SkipPlan,
    geom: &RingGeom,
    n: usize,
    p: usize,
    me: usize,
) -> MaskedWire {
    let np = n * p;
    let mut w = MaskedWire::default();
    for t in 0..np {
        let s = plan.dr_alg1_slot(me, t, n, p);
        if s.idle() {
            w.rounds_skipped += 1;
        }
        if t + 1 < np {
            let rows = geom.rows[s.shard];
            w.kv_hop(s.inter, sent(plan, geom, s.shard, s.send_kv), rows, geom);
            w.kv_hop(s.inter, s.send_dkv.then_some(rows), rows, geom);
        }
    }
    let hops = plan.dr_alg1_completion(me, n, p);
    if !hops.is_empty() && hops.iter().all(|h| !(h.send || h.recv)) {
        w.rounds_skipped += 1;
    }
    for h in &hops {
        let rows = geom.rows[h.send_shard];
        w.kv_hop(h.inter, h.send.then_some(rows), rows, geom);
    }
    w
}

/// Algorithm 2 double-ring backward census for `me`. The ∇Q diagonal hop
/// (one per sweep) is inter-node when `n > 1`, node-local otherwise.
pub fn census_dr_alg2(
    plan: &SkipPlan,
    geom: &RingGeom,
    n: usize,
    p: usize,
    me: usize,
) -> MaskedWire {
    let np = n * p;
    let mut w = MaskedWire::default();
    if np == 1 {
        return w;
    }
    for outer in 0..n {
        let op = plan.dr_alg2_outer(me, outer, n, p);
        if outer + 1 < n {
            let rows = geom.rows[op.start_bundle];
            w.ro_hop(
                true,
                sent(plan, geom, op.start_bundle, op.send_inter),
                rows,
                geom,
            );
        }
        for inner in 0..p {
            let s = plan.dr_alg2_slot(me, outer, inner, n, p);
            if s.idle() {
                w.rounds_skipped += 1;
            }
            let rows = geom.rows[s.bundle];
            if inner + 1 < p {
                w.ro_hop(false, sent(plan, geom, s.bundle, s.send_ro), rows, geom);
            }
            let dq = (rows * geom.d) as u64;
            let inter = s.diag && n > 1;
            if s.send_dq {
                w.mat(inter, dq);
            } else {
                w.skipped_mat_elems += dq;
            }
        }
    }
    if !plan.dr_alg2_final(me) {
        w.rounds_skipped += 1;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    fn causal_plan(g: usize, n: usize) -> SkipPlan {
        SkipPlan::build(&AttnMask::Causal, Layout::Contiguous, n, g, None)
    }

    #[test]
    fn dense_plan_gates_everything_on() {
        let p = SkipPlan::dense(4);
        for x in 0..4 {
            for h in 0..4 {
                assert_eq!(p.alg1_kv_hop(x, h), SpanSet::ALL);
                assert!(p.alg1_dkv_hop(x, h));
                assert_eq!(p.alg2_ro_hop(x, h), SpanSet::ALL);
                assert!(p.alg2_dq_hop(x, h));
                assert!(!p.flat_fwd_round(x, h).idle());
                assert!(!p.flat_alg1_round(x, h).idle());
                assert!(!p.flat_alg2_round(x, h).idle());
            }
            assert!(p.flat_alg2_final(x));
            assert_eq!(p.flat_alg1_bufs(x), (true, true));
            assert_eq!(p.flat_alg2_bufs(x), (true, true, true));
            assert!(p.flat_fwd_recv_any(x));
        }
    }

    #[test]
    fn causal_contiguous_liveness_is_lower_triangular() {
        let g = 4;
        let p = causal_plan(g, 16);
        for q in 0..g {
            for k in 0..g {
                assert_eq!(p.live(q, k), k <= q, "tile ({q},{k})");
            }
        }
        // Forward: shard c is forwarded at hop h iff a rank > c still needs
        // it, i.e. h ≤ g−2−c; the last shard never moves.
        for c in 0..g {
            for h in 0..g - 1 {
                assert_eq!(p.fwd_kv_hop(c, h).any(), h + c + 1 < g, "shard {c} hop {h}");
            }
        }
        // Alg 1 homecoming kv hop is always gated off on built plans.
        for c in 0..g {
            assert_eq!(p.alg1_kv_hop(c, g - 1), SpanSet::NONE);
        }
    }

    #[test]
    fn dense_census_matches_closed_forms() {
        // G ranks, r rows each, square heads: forward 2(G−1) mats per rank,
        // alg1 4G mats, alg2 (G−1)(2 mats + 2 vecs) + G dq mats.
        let (g, r, d) = (4, 3, 8);
        let plan = SkipPlan::dense(g);
        let geom = RingGeom {
            rows: vec![r; g],
            d,
            dv: d,
        };
        for me in 0..g {
            let f = census_flat_forward(&plan, &geom, false, me);
            assert_eq!(f.msgs(), 2 * (g as u64 - 1));
            assert_eq!(f.mat_elems(), 2 * (g as u64 - 1) * (r * d) as u64);
            assert_eq!(f.rounds_skipped, 0);
            assert_eq!(f.skipped_mat_elems, 0);

            let a1 = census_flat_alg1(&plan, &geom, false, me);
            assert_eq!(a1.msgs(), 4 * g as u64);
            assert_eq!(a1.mat_elems(), 4 * g as u64 * (r * d) as u64);

            let a2 = census_flat_alg2(&plan, &geom, false, me);
            assert_eq!(a2.msgs(), 4 * (g as u64 - 1) + g as u64);
            assert_eq!(
                a2.mat_elems(),
                2 * (g as u64 - 1) * (r * d) as u64 + g as u64 * (r * d) as u64
            );
            assert_eq!(a2.vec_elems(), 2 * (g as u64 - 1) * r as u64);
        }
    }

    #[test]
    fn masked_census_duals_to_dense() {
        // sent + skipped == dense schedule totals, per rank, any mask.
        let g = 4;
        let n = 32;
        let geom = RingGeom {
            rows: vec![n / g; g],
            d: 8,
            dv: 8,
        };
        let dense = SkipPlan::dense(g);
        for mask in [
            AttnMask::Causal,
            AttnMask::SlidingWindow { window: 6 },
            AttnMask::Dilated { window: 9, step: 2 },
        ] {
            let plan = SkipPlan::build(&mask, Layout::Contiguous, n, g, None);
            for me in 0..g {
                let m = census_flat_forward(&plan, &geom, false, me);
                let d0 = census_flat_forward(&dense, &geom, false, me);
                assert_eq!(m.mat_elems() + m.skipped_mat_elems, d0.mat_elems());
                let m = census_flat_alg1(&plan, &geom, false, me);
                let d0 = census_flat_alg1(&dense, &geom, false, me);
                assert_eq!(m.mat_elems() + m.skipped_mat_elems, d0.mat_elems());
                let m = census_flat_alg2(&plan, &geom, false, me);
                let d0 = census_flat_alg2(&dense, &geom, false, me);
                assert_eq!(m.mat_elems() + m.skipped_mat_elems, d0.mat_elems());
                assert_eq!(m.vec_elems() + m.skipped_vec_elems, d0.vec_elems());
            }
        }
    }

    #[test]
    fn window_mask_skips_far_rounds() {
        // Contiguous layout, narrow window: distant tiles are dead, so some
        // rounds are idle and some hops are gated off.
        let g = 4;
        let plan = SkipPlan::build(
            &AttnMask::SlidingWindow { window: 8 },
            Layout::Contiguous,
            32,
            g,
            None,
        );
        // Tile (q-shard 3, kv-shard 0): rows 24..32 vs keys 0..8 — distance
        // ≥ 17 > window, fully masked.
        assert!(!plan.live(3, 0));
        assert!(plan.live(3, 3) && plan.live(3, 2));
        let geom = RingGeom {
            rows: vec![8; g],
            d: 4,
            dv: 4,
        };
        let total: u64 = (0..g)
            .map(|me| census_flat_forward(&plan, &geom, false, me).rounds_skipped)
            .sum();
        assert!(total > 0, "expected idle forward rounds under the window");
        let dense_total: u64 = (0..g)
            .map(|me| census_flat_forward(&SkipPlan::dense(g), &geom, false, me).msgs())
            .sum();
        let masked_total: u64 = (0..g)
            .map(|me| census_flat_forward(&plan, &geom, false, me).msgs())
            .sum();
        assert!(masked_total < dense_total);
    }

    #[test]
    fn empty_row_gates_dq_homecoming_off() {
        // With max_token cutting rank 3's rows to zero, its bundle is dead:
        // row_any(3) is false and the final ∇Q homecoming is gated off.
        let plan = SkipPlan::build(&AttnMask::Causal, Layout::Contiguous, 32, 4, Some(24));
        assert!(!plan.row_any(3));
        assert!(!plan.flat_alg2_final(3));
        assert!(plan.flat_alg2_final(0));
    }

    #[test]
    fn dr_dense_census_matches_closed_forms() {
        // fwd + alg1 message counts per rank on a dense double ring:
        // inter = 6(n−1)+2 when n>1, intra = 6n(p−1)+2(n mod p).
        let r = 4usize;
        for (n, p) in [(2usize, 2usize), (3, 2), (2, 3), (1, 4), (4, 1), (2, 1)] {
            let g = n * p;
            let plan = SkipPlan::dense(g);
            let geom = RingGeom {
                rows: vec![r; g],
                d: 8,
                dv: 8,
            };
            let exp_inter = if n > 1 { 6 * (n as u64 - 1) + 2 } else { 0 };
            let exp_intra = 6 * (n as u64) * (p as u64 - 1) + 2 * (n % p) as u64;
            for me in 0..g {
                let w = census_dr_forward(&plan, &geom, n, p, me)
                    .add(&census_dr_alg1(&plan, &geom, n, p, me));
                assert_eq!(w.inter_msgs, exp_inter, "n={n} p={p} me={me}");
                assert_eq!(w.intra_msgs, exp_intra, "n={n} p={p} me={me}");
                assert_eq!(w.rounds_skipped, 0);
                assert_eq!(w.skipped_mat_elems, 0);

                // Alg2: RO boundaries are 4 msgs each, diagonal ∇Q hops are
                // inter only across real node edges.
                let a2 = census_dr_alg2(&plan, &geom, n, p, me);
                let (e_inter, e_intra) = if g == 1 {
                    (0, 0)
                } else if n > 1 {
                    (4 * (n as u64 - 1) + n as u64, 5 * n as u64 * (p as u64 - 1))
                } else {
                    (0, 5 * (p as u64 - 1) + 1)
                };
                assert_eq!(a2.inter_msgs, e_inter, "alg2 n={n} p={p} me={me}");
                assert_eq!(a2.intra_msgs, e_intra, "alg2 n={n} p={p} me={me}");
            }
        }
    }

    #[test]
    fn dr_masked_census_duals_to_dense() {
        // sent + skipped == dense totals per rank on the double ring too.
        let seq = 48;
        for (n, p) in [(2usize, 3usize), (3, 2), (2, 2)] {
            let g = n * p;
            let geom = RingGeom {
                rows: vec![seq / g; g],
                d: 8,
                dv: 8,
            };
            let dense = SkipPlan::dense(g);
            for mask in [
                AttnMask::Causal,
                AttnMask::SlidingWindow { window: 7 },
                AttnMask::Dilated { window: 9, step: 2 },
            ] {
                let plan = SkipPlan::build(&mask, Layout::Contiguous, seq, g, None);
                for me in 0..g {
                    for (m, d0) in [
                        (
                            census_dr_forward(&plan, &geom, n, p, me),
                            census_dr_forward(&dense, &geom, n, p, me),
                        ),
                        (
                            census_dr_alg1(&plan, &geom, n, p, me),
                            census_dr_alg1(&dense, &geom, n, p, me),
                        ),
                        (
                            census_dr_alg2(&plan, &geom, n, p, me),
                            census_dr_alg2(&dense, &geom, n, p, me),
                        ),
                    ] {
                        assert_eq!(m.mat_elems() + m.skipped_mat_elems, d0.mat_elems());
                        assert_eq!(m.vec_elems() + m.skipped_vec_elems, d0.vec_elems());
                    }
                }
            }
        }
    }

    #[test]
    fn dr_gates_agree_between_sender_and_receiver() {
        // Every receive gate must equal the matching sender's send gate, and
        // both sides must name the same shard — the loop's hold-consistency
        // invariant (an Absent hold is never read).
        let seq = 48;
        for (n, p) in [(2usize, 3usize), (3, 2), (4, 2)] {
            let g = n * p;
            let intra_prev = |me: usize| (me / p) * p + (me % p + p - 1) % p;
            let peer_prev = |me: usize| ((me / p + n - 1) % n) * p + me % p;
            let diag_prev = |me: usize| ((me / p + n - 1) % n) * p + (me % p + p - 1) % p;
            for mask in [
                AttnMask::SlidingWindow { window: 7 },
                AttnMask::Dilated { window: 9, step: 3 },
            ] {
                let plan = SkipPlan::build(&mask, Layout::Contiguous, seq, g, None);
                for me in 0..g {
                    for o in 0..n {
                        let op = plan.dr_fwd_outer(me, o, n, p);
                        let pp = plan.dr_fwd_outer(peer_prev(me), o, n, p);
                        assert_eq!(op.recv_inter, pp.send_inter);
                        assert_eq!(op.start_in, pp.start_shard);
                        let o2 = plan.dr_alg2_outer(me, o, n, p);
                        let p2 = plan.dr_alg2_outer(peer_prev(me), o, n, p);
                        assert_eq!(o2.recv_inter, p2.send_inter);
                        for i in 0..p {
                            let s = plan.dr_fwd_slot(me, o, i, n, p);
                            let sp = plan.dr_fwd_slot(intra_prev(me), o, i, n, p);
                            assert_eq!(s.recv, sp.send);
                            if s.recv.any() {
                                assert_eq!(s.shard_in, sp.shard);
                            }
                            let b = plan.dr_alg2_slot(me, o, i, n, p);
                            let bp = plan.dr_alg2_slot(intra_prev(me), o, i, n, p);
                            assert_eq!(b.recv_ro, bp.send_ro);
                            // ∇Q stream: my receive at slot t pairs with the
                            // previous slot-holder's send at t−1.
                            let t = o * p + i;
                            if t > 0 {
                                let (po, pi) = ((t - 1) / p, (t - 1) % p);
                                let sender = if i == 0 {
                                    diag_prev(me)
                                } else {
                                    intra_prev(me)
                                };
                                let sb = plan.dr_alg2_slot(sender, po, pi, n, p);
                                assert_eq!(b.recv_dq, sb.send_dq);
                                assert_eq!(b.bundle, sb.bundle);
                            }
                        }
                    }
                    for t in 0..g {
                        let s = plan.dr_alg1_slot(me, t, n, p);
                        let src = if t % p == p - 1 {
                            peer_prev(me)
                        } else {
                            intra_prev(me)
                        };
                        let ss = plan.dr_alg1_slot(src, t, n, p);
                        assert_eq!(s.recv_kv, ss.send_kv);
                        assert_eq!(s.recv_dkv, ss.send_dkv);
                        if s.recv_kv.any() || s.recv_dkv {
                            assert_eq!(s.shard_in, ss.shard);
                        }
                        // Compute requires the shard to actually be here: any
                        // step with compute on must have had last hop's recv
                        // on (or hold the local shard at t = 0).
                        if s.compute && t > 0 {
                            let prev = plan.dr_alg1_slot(me, t - 1, n, p);
                            assert!(prev.recv_kv.any(), "t={t} me={me} n={n} p={p}");
                        }
                    }
                    // Homecoming: the diagonal sender's last-slot ∇Q gate must
                    // equal this rank's final-receive gate.
                    let sb = plan.dr_alg2_slot(diag_prev(me), n - 1, p - 1, n, p);
                    assert_eq!(sb.bundle, me);
                    assert_eq!(sb.send_dq, plan.dr_alg2_final(me));
                }
            }
        }
    }

    #[test]
    fn dr_fwd_compute_implies_shard_present() {
        // Monotone-superset chains: a live compute slot always has its shard
        // delivered (start chain across sweeps, intra chain within).
        let seq = 60;
        let (n, p) = (3usize, 2usize);
        let g = n * p;
        let plan = SkipPlan::build(
            &AttnMask::SlidingWindow { window: 11 },
            Layout::Contiguous,
            seq,
            g,
            None,
        );
        for me in 0..g {
            for o in 0..n {
                let have_start = o == 0 || plan.dr_fwd_outer(me, o - 1, n, p).recv_inter.any();
                for i in 0..p {
                    let s = plan.dr_fwd_slot(me, o, i, n, p);
                    if !s.compute {
                        continue;
                    }
                    if i == 0 {
                        assert!(have_start, "me={me} o={o}");
                    } else {
                        assert!(
                            plan.dr_fwd_slot(me, o, i - 1, n, p).recv.any(),
                            "me={me} o={o} i={i}"
                        );
                    }
                }
            }
        }
    }
}
