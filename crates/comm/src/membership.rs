//! Elastic membership: an epoch-numbered alive set per world, gossip-style
//! failure detection, and *shrinking* ring collectives that re-derive their
//! neighbors from the current alive set.
//!
//! The failure model is **fail-stop**: a rank that dies stays dead, and a
//! suspicion raised after bounded retries is trusted (no healthy rank is
//! falsely evicted under crash faults, because suspicion is driven by
//! channel disconnection — [`CommError::PeerLost`] — which only a dead
//! rank's dropped endpoints can produce).
//!
//! ## Protocol
//!
//! A rank that hits `PeerLost` (or exhausts its deterministic retry budget
//! on `Timeout`) mid-collective does three things, in order:
//!
//! 1. **abort pill** — sends a [`CtrlMsg`] with [`CtrlKind::Abort`] to
//!    every other alive non-suspect rank so the ones blocked on it — ring
//!    neighbors on either level of the two-level ring, or followers of a
//!    leader gather — stop waiting for data that will never come (they
//!    observe [`CommError::Aborted`] and join in);
//! 2. **agreement** — enters [`agree_on_eviction`], a leader-based round
//!    (lowest alive non-suspect rank leads): followers send `Propose`, the
//!    leader merges every proposal, bumps the epoch iff the union is
//!    non-empty, and distributes `Decide`; a drain barrier (`Ack`/`Go`)
//!    guarantees every stale in-flight message from the aborted collective
//!    is discarded on every survivor before anyone resumes sending;
//! 3. **re-derive and re-run** — the collective returns
//!    [`CommError::Evicted`] and the caller re-runs it on the shrunken
//!    ring.
//!
//! Ranks whose collective attempt *succeeded* still join the agreement with
//! an empty proposal — the agreement doubles as a commit barrier, so a
//! survivor can never run ahead into the next collective while its peers
//! are still deciding who died.
//!
//! The drain barrier is correct because channel sends enqueue immediately:
//! every data send precedes its sender's `Propose` (program order), every
//! `Propose` precedes the leader's `Decide`, and every `Decide` precedes
//! the receiver's drain — so by the time a survivor drains, all stale
//! messages addressed to it are already in its queues.

use crate::comm::{Communicator, CtrlKind, CtrlMsg, MsgData};
use crate::double_ring::{all_gather_on, reduce_scatter_on, DoubleRingSpec};
use crate::fault::{splitmix64, CommError};
use burst_obs::SpanKind;
use burst_tensor::Mat;

/// Burn one retry backoff as virtual compute and count it (the metrics
/// layer reports control-plane retries as a fault-survival signal).
fn backoff_retry(comm: &mut Communicator, policy: &RetryPolicy, attempt: u32) {
    comm.faults.retries += 1;
    comm.advance_compute_named("retry_backoff", policy.backoff(attempt, comm.rank()));
}

/// Epoch-numbered view of which ranks are alive. Every rank keeps its own
/// copy; the eviction agreement keeps the copies consistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    epoch: u64,
    alive: Vec<bool>,
}

impl Membership {
    /// A fresh view: every rank of an `n`-rank world alive, epoch 0.
    pub fn new(world_size: usize) -> Self {
        assert!(world_size > 0, "membership needs at least one rank");
        Membership {
            epoch: 0,
            alive: vec![true; world_size],
        }
    }

    /// Total ranks the world started with (alive or not).
    pub fn world_size(&self) -> usize {
        self.alive.len()
    }

    /// Current membership epoch (bumped once per eviction round).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Force the epoch (applied from a leader's `Decide`).
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    pub fn is_alive(&self, rank: usize) -> bool {
        self.alive.get(rank).copied().unwrap_or(false)
    }

    /// The alive ranks in ascending order — the member list of every
    /// shrinking collective.
    pub fn alive_ranks(&self) -> Vec<usize> {
        (0..self.alive.len()).filter(|&r| self.alive[r]).collect()
    }

    pub fn num_alive(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// Position of `rank` within the alive list (its ring slot), if alive.
    pub fn pos_of(&self, rank: usize) -> Option<usize> {
        if !self.is_alive(rank) {
            return None;
        }
        Some((0..rank).filter(|&r| self.alive[r]).count())
    }

    /// Mark `rank` dead. Returns whether the view changed. Does **not**
    /// bump the epoch — only the agreement does that, once per round.
    pub fn evict(&mut self, rank: usize) -> bool {
        if rank < self.alive.len() && self.alive[rank] {
            self.alive[rank] = false;
            true
        } else {
            false
        }
    }

    /// Mark `rank` alive again — the inverse of [`Membership::evict`].
    /// Returns whether the view changed. Like `evict`, this does **not**
    /// bump the epoch; only the join agreement does, once per admitted
    /// round.
    pub fn readmit(&mut self, rank: usize) -> bool {
        if rank < self.alive.len() && !self.alive[rank] {
            self.alive[rank] = true;
            true
        } else {
            false
        }
    }

    /// Cyclic next alive rank after `rank` (returns `rank` when alone).
    pub fn next_alive(&self, rank: usize) -> usize {
        let n = self.alive.len();
        for step in 1..=n {
            let r = (rank + step) % n;
            if self.alive[r] {
                return r;
            }
        }
        rank
    }

    /// Cyclic previous alive rank before `rank` (returns `rank` when alone).
    pub fn prev_alive(&self, rank: usize) -> usize {
        let n = self.alive.len();
        for step in 1..=n {
            let r = (rank + n - step) % n;
            if self.alive[r] {
                return r;
            }
        }
        rank
    }
}

/// Bounded, virtual-clock-aware, seed-deterministic retry schedule applied
/// before a timed-out peer is declared dead. Backoff is exponential with
/// seeded jitter in `[0.5, 1.0]·cap`, burned as virtual compute time so
/// the schedule is bit-reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Receive attempts before the peer is suspected (>= 1).
    pub max_attempts: u32,
    /// First backoff, in virtual seconds.
    pub base_backoff: f64,
    /// Backoff cap, in virtual seconds.
    pub max_backoff: f64,
    /// Jitter seed (mixes with rank and attempt index).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: 1e-4,
            max_backoff: 1e-2,
            seed: 0x9e37_79b9,
        }
    }
}

impl RetryPolicy {
    /// The virtual-time backoff before retry `attempt` (0-based) on `rank`.
    /// Deterministic in (seed, rank, attempt).
    pub fn backoff(&self, attempt: u32, rank: usize) -> f64 {
        let raw = (self.base_backoff * f64::from(1u32 << attempt.min(20))).min(self.max_backoff);
        let h = splitmix64(self.seed ^ ((rank as u64) << 32) ^ u64::from(attempt));
        let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
        raw * (0.5 + 0.5 * frac)
    }
}

/// The outcome of one eviction agreement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgreeOutcome {
    /// Ranks evicted this round (empty = nothing changed, commit).
    pub evicted: Vec<usize>,
    /// The membership epoch after the round.
    pub epoch: u64,
}

fn ctrl(kind: CtrlKind, epoch: u64, suspects: Vec<usize>) -> MsgData {
    MsgData::Ctrl(CtrlMsg {
        kind,
        epoch,
        suspects,
    })
}

/// Ranks a failure implicates, for gossip: the lost/late peer, or the
/// suspect list an abort pill carried.
fn suspects_of(e: &CommError) -> Vec<usize> {
    match e {
        CommError::PeerLost { src, .. } | CommError::Timeout { src, .. } => vec![*src],
        CommError::Aborted { suspects, .. } => suspects.clone(),
        _ => Vec::new(),
    }
}

/// [`suspects_of`], filtered through the failure detector: a terminated
/// peer (channel disconnect) is dead by construction and an abort pill
/// carries its sender's already-confirmed suspicion, but a *timeout* is
/// only escalated when the detector's accumulated evidence (consecutive
/// receive failures vs the policy's `max_attempts`, or phi from the
/// heartbeat/retransmit channels) confirms the peer dead rather than
/// slow. With the default detector config this reproduces the
/// pre-detector escalation decision exactly, because any timeout that
/// escapes a `max_attempts` retry loop has recorded exactly that many
/// consecutive failures.
fn confirmed_suspects(comm: &mut Communicator, e: &CommError, policy: &RetryPolicy) -> Vec<usize> {
    match e {
        CommError::Timeout { src, .. } => {
            if comm.peer_confirmed_dead(*src, policy.max_attempts) {
                vec![*src]
            } else {
                Vec::new()
            }
        }
        other => suspects_of(other),
    }
}

/// Best-effort abort pills to every other alive non-suspect rank, so a peer
/// blocked on this rank's data observes [`CommError::Aborted`] instead of
/// hanging until the wall backstop. Every rank is pilled, not just the
/// flat ring neighbors, because a collective can wait on any of them: the
/// two-level ring on its cross-node and in-node neighbors, a leader gather
/// on the leader. The pill precedes this rank's `Propose` on every channel,
/// so a rank blocked on this one reads the pill, never the proposal; the
/// pills nobody was waiting for are folded into gossip or drained by the
/// agreement. Send failures are ignored — a dead rank needs no pill.
pub fn send_abort(comm: &mut Communicator, m: &Membership, suspects: &[usize]) {
    let me = comm.rank();
    let healthy: Vec<usize> = m
        .alive_ranks()
        .into_iter()
        .filter(|r| !suspects.contains(r))
        .collect();
    let Some(pos) = healthy.iter().position(|&r| r == me) else {
        return;
    };
    // Next ring neighbor first, previous last: on three or fewer healthy
    // ranks these are the flat ring's two pills, in the same order.
    let g = healthy.len();
    for step in 1..g {
        let pill = ctrl(CtrlKind::Abort, m.epoch(), suspects.to_vec());
        let _ = comm.try_send(healthy[(pos + step) % g], pill);
    }
}

/// Receive from `src` until a control message of kind `want` arrives.
/// Stale data payloads from the aborted collective are discarded; abort
/// pills fold their suspect lists into `gossip`. Timeouts retry on the
/// policy's schedule before giving up.
fn wait_for_ctrl(
    comm: &mut Communicator,
    src: usize,
    want: CtrlKind,
    policy: &RetryPolicy,
    gossip: &mut Vec<usize>,
) -> Result<CtrlMsg, CommError> {
    let mut attempt = 0u32;
    loop {
        match comm.try_recv(src) {
            Ok(MsgData::Ctrl(c)) if c.kind == want => return Ok(c),
            Ok(MsgData::Ctrl(c)) if c.kind == CtrlKind::Abort => {
                gossip.extend(c.suspects);
            }
            Ok(_) => {} // stale data from the aborted collective
            Err(CommError::Timeout { .. }) if attempt + 1 < policy.max_attempts.max(1) => {
                backoff_retry(comm, policy, attempt);
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// True when the continuing partition after an eviction decision is a
/// strict minority of the pre-agreement membership. The winning side of a
/// network split keeps at least half the ranks, so a side whose decision
/// evicts a strict majority has necessarily mistaken a partition (or its
/// own isolation) for mass death; continuing would train a divergent
/// split-brain replica. An exact half keeps today's behavior: a two-rank
/// ring shrinking to one survivor still continues.
fn quorum_lost(m: &Membership, pre_alive: usize, evicted: &[usize]) -> bool {
    !evicted.is_empty() && 2 * m.num_alive() < pre_alive
}

/// Park the local rank after a lost quorum: mark it evicted in its own
/// membership and report the self-eviction. Callers observe the rank in
/// the returned set (or `!m.is_alive(me)`) and park instead of training
/// ahead on the minority side of a split.
fn park_self(comm: &mut Communicator, m: &mut Membership, epoch: u64) -> AgreeOutcome {
    let me = comm.rank();
    m.evict(me);
    comm.span_instant(SpanKind::Fault, "minority_partition");
    comm.span_end();
    AgreeOutcome {
        evicted: vec![me],
        epoch,
    }
}

/// Leader-based eviction agreement; see the module docs for the protocol.
///
/// Every alive rank must call this with its current suspect list (empty if
/// its collective attempt succeeded). Returns the agreed eviction set and
/// the updated epoch; `m` is updated in place. The call is also a barrier:
/// when it returns, every survivor has applied the same decision and
/// drained every stale message addressed to it.
///
/// **Quorum rule.** A decision that would leave the continuing side with a
/// strict minority of the pre-agreement membership parks the local rank
/// instead: the call returns `evicted = [me]` with the rank marked dead in
/// its own `m`. This is what stops a live-but-unreachable rank — one whose
/// peers all stopped answering because *they* evicted *it* — from evicting
/// the entire majority in absentia and training ahead as a split brain.
pub fn agree_on_eviction(
    comm: &mut Communicator,
    m: &mut Membership,
    suspects: &[usize],
    policy: &RetryPolicy,
) -> Result<AgreeOutcome, CommError> {
    let me = comm.rank();
    comm.span_begin(SpanKind::Eviction, "agree_on_eviction");
    let mut suspects: Vec<usize> = suspects
        .iter()
        .copied()
        .filter(|&s| s != me && m.is_alive(s))
        .collect();
    loop {
        suspects.sort_unstable();
        suspects.dedup();
        let healthy: Vec<usize> = m
            .alive_ranks()
            .into_iter()
            .filter(|r| !suspects.contains(r))
            .collect();
        let leader = healthy.first().copied().unwrap_or(me);
        if leader == me {
            // Leader: gather proposals from every healthy peer, merge,
            // decide, then run the drain barrier.
            let mut union = suspects.clone();
            for &p in healthy.iter().filter(|&&p| p != me) {
                let mut gossip = Vec::new();
                match wait_for_ctrl(comm, p, CtrlKind::Propose, policy, &mut gossip) {
                    Ok(c) => union.extend(c.suspects),
                    // A peer that dies while proposing is itself evicted.
                    Err(_) => union.push(p),
                }
                union.extend(gossip);
            }
            union.sort_unstable();
            union.dedup();
            union.retain(|&r| r != me && m.is_alive(r));
            let evicted = union;
            let epoch = if evicted.is_empty() {
                m.epoch()
            } else {
                m.epoch() + 1
            };
            let pre_alive = m.num_alive();
            for &r in &evicted {
                m.evict(r);
            }
            m.set_epoch(epoch);
            let survivors: Vec<usize> = m.alive_ranks().into_iter().filter(|&r| r != me).collect();
            for &p in &survivors {
                let _ = comm.try_send(p, ctrl(CtrlKind::Decide, epoch, evicted.clone()));
            }
            for &p in &survivors {
                // Tolerant: a follower dying mid-barrier is caught on the
                // next collective attempt.
                let _ = wait_for_ctrl(comm, p, CtrlKind::Ack, policy, &mut Vec::new());
            }
            comm.drain_all();
            for &p in &survivors {
                let _ = comm.try_send(p, ctrl(CtrlKind::Go, epoch, Vec::new()));
            }
            if !evicted.is_empty() {
                comm.span_instant(SpanKind::Epoch, "epoch_bump");
            }
            if quorum_lost(m, pre_alive, &evicted) {
                return Ok(park_self(comm, m, epoch));
            }
            comm.span_end();
            return Ok(AgreeOutcome { evicted, epoch });
        }
        // Follower: propose to the leader, wait for its decision. A dead
        // leader becomes a suspect and the loop re-elects.
        if comm
            .try_send(leader, ctrl(CtrlKind::Propose, m.epoch(), suspects.clone()))
            .is_err()
        {
            suspects.push(leader);
            continue;
        }
        let mut gossip = Vec::new();
        match wait_for_ctrl(comm, leader, CtrlKind::Decide, policy, &mut gossip) {
            Ok(decide) => {
                let pre_alive = m.num_alive();
                for &r in &decide.suspects {
                    m.evict(r);
                }
                m.set_epoch(decide.epoch);
                comm.drain_all();
                let _ = comm.try_send(leader, ctrl(CtrlKind::Ack, decide.epoch, Vec::new()));
                let _ = wait_for_ctrl(comm, leader, CtrlKind::Go, policy, &mut Vec::new());
                if !decide.suspects.is_empty() {
                    comm.span_instant(SpanKind::Epoch, "epoch_bump");
                }
                if quorum_lost(m, pre_alive, &decide.suspects) {
                    return Ok(park_self(comm, m, decide.epoch));
                }
                comm.span_end();
                return Ok(AgreeOutcome {
                    evicted: decide.suspects,
                    epoch: decide.epoch,
                });
            }
            Err(_) => {
                suspects.push(leader);
                suspects.extend(gossip);
            }
        }
    }
}

/// The outcome of one join agreement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinOutcome {
    /// Ranks re-admitted this round (empty = the join round aborted, e.g.
    /// every petitioner died mid-protocol).
    pub admitted: Vec<usize>,
    /// The membership epoch after the round.
    pub epoch: u64,
}

/// Leader-based re-admission agreement — the **Join leg** of the epoch
/// protocol, the inverse of [`agree_on_eviction`].
///
/// Every current member calls this with the scheduled `joiners` set (known
/// deterministically to every rank — a real cluster's scheduler plays this
/// role); every joiner calls it too, with the same set. Roles:
///
/// * **joiner** — waits parked for the leader's [`CtrlKind::Join`] invite
///   (sending nothing unsolicited: a drain barrier the members run while it
///   waits would sweep an early petition away), replies `Join`, waits for
///   `Decide`, applies it, drains, `Ack`s and waits for `Go`. A joiner the
///   decision did not admit keeps waiting parked.
/// * **member (follower)** — proposes the join set, waits for `Decide`,
///   applies, drains, `Ack`/`Go` — the same drain barrier as eviction, so
///   no stale pre-join message can leak into the grown ring.
/// * **leader** — gathers the member proposals (the commit barrier), then
///   invites each scheduled joiner and collects its reply (a joiner that
///   dies mid-join is simply dropped from the admitted set — the abort pill
///   of the join leg is "you are not in the `Decide`"), bumps the epoch iff
///   someone was admitted, and distributes `Decide`/`Go` to members **and**
///   admitted joiners.
///
/// A member that dies mid-join surfaces as a typed error; callers fall back
/// to [`agree_on_eviction`], exactly as for any other collective failure.
pub fn agree_on_join(
    comm: &mut Communicator,
    m: &mut Membership,
    joiners: &[usize],
    policy: &RetryPolicy,
) -> Result<JoinOutcome, CommError> {
    let me = comm.rank();
    comm.span_begin(SpanKind::Join, "agree_on_join");
    let joiners: Vec<usize> = {
        let mut j: Vec<usize> = joiners
            .iter()
            .copied()
            .filter(|&r| r < m.world_size() && !m.is_alive(r))
            .collect();
        j.sort_unstable();
        j.dedup();
        j
    };
    let joining = joiners.contains(&me);
    assert!(
        joining || m.is_alive(me),
        "rank {me}: join agreement from a rank that is neither member nor joiner"
    );
    let members = m.alive_ranks();
    let leader = members[0];
    let finish = |comm: &mut Communicator, m: &mut Membership, admitted: Vec<usize>, epoch| {
        for &r in &admitted {
            m.readmit(r);
            comm.span_instant(SpanKind::Rejoin, "rank_readmitted");
        }
        m.set_epoch(epoch);
        comm.span_end();
        Ok(JoinOutcome { admitted, epoch })
    };
    if joining {
        // Petitioner: wait for the leader's invite before sending anything —
        // a parked rank's unsolicited message could be swept up by a drain
        // barrier the members run while it waits. Then: reply → Decide →
        // drain → Ack → Go.
        wait_for_ctrl(comm, leader, CtrlKind::Join, policy, &mut Vec::new())?;
        comm.try_send(leader, ctrl(CtrlKind::Join, 0, vec![me]))?;
        let decide = wait_for_ctrl(comm, leader, CtrlKind::Decide, policy, &mut Vec::new())?;
        if !decide.suspects.contains(&me) {
            // Not admitted this round; stay parked.
            comm.span_end();
            return Ok(JoinOutcome {
                admitted: Vec::new(),
                epoch: decide.epoch,
            });
        }
        comm.drain_all();
        comm.try_send(leader, ctrl(CtrlKind::Ack, decide.epoch, Vec::new()))?;
        wait_for_ctrl(comm, leader, CtrlKind::Go, policy, &mut Vec::new())?;
        // A parked rank may have missed evictions; the leader ships its
        // authoritative alive set so the joiner's view is exact.
        let flags = recv_vec_retry(comm, leader, policy)?;
        for (r, f) in flags.iter().enumerate() {
            if *f > 0.5 {
                m.readmit(r);
            } else {
                m.evict(r);
            }
        }
        return finish(comm, m, decide.suspects, decide.epoch);
    }
    if leader == me {
        // Gather member proposals first (the commit half of the barrier). A
        // member dying here is an eviction concern — bail with the error.
        for &p in members.iter().filter(|&&p| p != me) {
            wait_for_ctrl(comm, p, CtrlKind::Propose, policy, &mut Vec::new())?;
        }
        // Invite each petitioner and collect its reply; a joiner that dies
        // mid-protocol is dropped (the abort pill of the join leg is "you
        // are not in the `Decide`"), nothing else stops.
        let mut admitted: Vec<usize> = Vec::new();
        for &j in &joiners {
            if comm
                .try_send(j, ctrl(CtrlKind::Join, m.epoch(), Vec::new()))
                .is_ok()
                && wait_for_ctrl(comm, j, CtrlKind::Join, policy, &mut Vec::new()).is_ok()
            {
                admitted.push(j);
            }
        }
        let epoch = if admitted.is_empty() {
            m.epoch()
        } else {
            m.epoch() + 1
        };
        let audience: Vec<usize> = members
            .iter()
            .copied()
            .filter(|&p| p != me)
            .chain(admitted.iter().copied())
            .collect();
        for &p in &audience {
            comm.try_send(p, ctrl(CtrlKind::Decide, epoch, admitted.clone()))?;
        }
        for &p in &audience {
            let _ = wait_for_ctrl(comm, p, CtrlKind::Ack, policy, &mut Vec::new());
        }
        comm.drain_all();
        for &p in &audience {
            let _ = comm.try_send(p, ctrl(CtrlKind::Go, epoch, Vec::new()));
        }
        // Authoritative alive set for each admitted (previously parked)
        // joiner: their own flags plus everything they missed while parked.
        let mut flags: Vec<f32> = (0..m.world_size())
            .map(|r| if m.is_alive(r) { 1.0 } else { 0.0 })
            .collect();
        for &r in &admitted {
            flags[r] = 1.0;
        }
        for &j in &admitted {
            comm.try_send_vec(j, &flags)?;
        }
        if !admitted.is_empty() {
            comm.span_instant(SpanKind::Epoch, "epoch_bump");
        }
        return finish(comm, m, admitted, epoch);
    }
    // Member follower.
    comm.try_send(leader, ctrl(CtrlKind::Propose, m.epoch(), joiners.clone()))?;
    let decide = wait_for_ctrl(comm, leader, CtrlKind::Decide, policy, &mut Vec::new())?;
    comm.drain_all();
    comm.try_send(leader, ctrl(CtrlKind::Ack, decide.epoch, Vec::new()))?;
    let _ = wait_for_ctrl(comm, leader, CtrlKind::Go, policy, &mut Vec::new());
    if !decide.suspects.is_empty() {
        comm.span_instant(SpanKind::Epoch, "epoch_bump");
    }
    finish(comm, m, decide.suspects, decide.epoch)
}

/// Voluntary departure: every current member (leavers included) applies the
/// deterministic leave schedule — evict the leavers, bump the epoch once —
/// and the survivors synchronise on a [`shrink_barrier`]. No agreement
/// round is needed because the schedule is shared knowledge (the scheduler
/// told everyone); the barrier is what makes the departure a clean cut
/// between epochs. Leavers skip the barrier and park.
pub fn agree_on_leave(
    comm: &mut Communicator,
    m: &mut Membership,
    leavers: &[usize],
    policy: &RetryPolicy,
) -> Result<AgreeOutcome, CommError> {
    let me = comm.rank();
    comm.span_begin(SpanKind::Eviction, "voluntary_leave");
    let mut departed: Vec<usize> = Vec::new();
    for &r in leavers {
        if m.evict(r) {
            departed.push(r);
        }
    }
    departed.sort_unstable();
    let epoch = if departed.is_empty() {
        m.epoch()
    } else {
        m.epoch() + 1
    };
    m.set_epoch(epoch);
    if !departed.is_empty() {
        comm.span_instant(SpanKind::Epoch, "epoch_bump");
    }
    if !departed.contains(&me) {
        shrink_barrier(comm, m, policy)?;
    }
    comm.span_end();
    Ok(AgreeOutcome {
        evicted: departed,
        epoch,
    })
}

/// Barrier over the alive set: gather-to-leader + release, mirroring
/// [`Communicator::try_barrier`] on the membership ring.
pub fn shrink_barrier(
    comm: &mut Communicator,
    m: &mut Membership,
    policy: &RetryPolicy,
) -> Result<(), CommError> {
    let (members, pos) = ring_neighbors(comm, m);
    let attempt = (|| {
        if members.len() == 1 {
            return Ok(());
        }
        if pos == 0 {
            for &src in &members[1..] {
                let mut tries = 0u32;
                loop {
                    match comm.try_recv(src) {
                        Ok(_) => break,
                        Err(CommError::Timeout { .. })
                            if tries + 1 < policy.max_attempts.max(1) =>
                        {
                            backoff_retry(comm, policy, tries);
                            tries += 1;
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
            for &dst in &members[1..] {
                comm.try_send(dst, MsgData::Empty)?;
            }
        } else {
            comm.try_send(members[0], MsgData::Empty)?;
            let mut tries = 0u32;
            loop {
                match comm.try_recv(members[0]) {
                    Ok(_) => break,
                    Err(CommError::Timeout { .. }) if tries + 1 < policy.max_attempts.max(1) => {
                        backoff_retry(comm, policy, tries);
                        tries += 1;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(())
    })();
    finish_collective(comm, m, attempt, policy)
}

/// Receive a vector from `src`, retrying timeouts on the policy schedule.
fn recv_vec_retry(
    comm: &mut Communicator,
    src: usize,
    policy: &RetryPolicy,
) -> Result<Vec<f32>, CommError> {
    let mut attempt = 0u32;
    loop {
        match comm.try_recv_vec(src) {
            Err(CommError::Timeout { .. }) if attempt + 1 < policy.max_attempts.max(1) => {
                backoff_retry(comm, policy, attempt);
                attempt += 1;
            }
            other => return other,
        }
    }
}

/// All-reduce (sum) of a flat vector over the alive set. Mirrors
/// [`Communicator::try_all_reduce_vec`] exactly — leader-gather summed in
/// ascending member order, then broadcast — so a shrunken world's reduction
/// is bit-identical to a fresh world of the same size.
pub fn shrink_all_reduce_vec(
    comm: &mut Communicator,
    m: &mut Membership,
    v: &[f32],
    policy: &RetryPolicy,
) -> Result<Vec<f32>, CommError> {
    let (members, pos) = ring_neighbors(comm, m);
    let g = members.len();
    let attempt = (|| {
        if g == 1 {
            return Ok(v.to_vec());
        }
        if pos == 0 {
            let mut acc = v.to_vec();
            for &src in &members[1..] {
                let part = recv_vec_retry(comm, src, policy)?;
                if part.len() != acc.len() {
                    return Err(CommError::ShapeMismatch {
                        rank: comm.rank(),
                        src,
                        expected: "all-reduce vector of matching length",
                        got: format!("Vec[{}] (expected Vec[{}])", part.len(), acc.len()),
                    });
                }
                for (a, p) in acc.iter_mut().zip(&part) {
                    *a += p;
                }
            }
            for &dst in &members[1..] {
                comm.try_send_vec(dst, &acc)?;
            }
            Ok(acc)
        } else {
            comm.try_send_vec(members[0], v)?;
            recv_vec_retry(comm, members[0], policy)
        }
    })();
    finish_collective(comm, m, attempt, policy)
}

/// All-reduce (sum) of a matrix over the alive set: the shrinking ring
/// reduce-scatter + all-gather when the rows divide evenly (the algorithm,
/// and thus the accumulation order, of [`Communicator::try_all_reduce_mat`]
/// on a fresh world of the survivors' shape), otherwise leader-gather in
/// ascending member order plus broadcast.
pub fn shrink_all_reduce_mat(
    comm: &mut Communicator,
    m: &mut Membership,
    mat: &Mat,
    policy: &RetryPolicy,
) -> Result<Mat, CommError> {
    let g = m.num_alive();
    if g == 1 {
        return Ok(mat.clone());
    }
    if mat.rows().is_multiple_of(g) && mat.rows() >= g {
        let parts = mat.chunk_rows(g);
        let mine = shrink_reduce_scatter_mat(comm, m, &parts, policy)?;
        let gathered = shrink_all_gather_mat(comm, m, &mine, policy)?;
        return Ok(Mat::vstack(&gathered));
    }
    let (members, pos) = ring_neighbors(comm, m);
    let attempt = (|| {
        if pos == 0 {
            let mut acc = mat.clone();
            for &src in &members[1..] {
                let part = recv_mat_retry(comm, src, policy)?;
                if part.shape() != acc.shape() {
                    return Err(CommError::ShapeMismatch {
                        rank: comm.rank(),
                        src,
                        expected: "all-reduce contribution of matching shape",
                        got: format!("Mat {}x{}", part.rows(), part.cols()),
                    });
                }
                acc.add_assign(&part);
            }
            for &dst in &members[1..] {
                comm.try_send_mat(dst, &acc)?;
            }
            Ok(acc)
        } else {
            comm.try_send_mat(members[0], mat)?;
            recv_mat_retry(comm, members[0], policy)
        }
    })();
    finish_collective(comm, m, attempt, policy)
}

/// Receive a matrix from `src`, retrying timeouts on the policy schedule.
fn recv_mat_retry(
    comm: &mut Communicator,
    src: usize,
    policy: &RetryPolicy,
) -> Result<Mat, CommError> {
    let mut attempt = 0u32;
    loop {
        match comm.try_recv_mat(src) {
            Err(CommError::Timeout { .. }) if attempt + 1 < policy.max_attempts.max(1) => {
                backoff_retry(comm, policy, attempt);
                attempt += 1;
            }
            other => return other,
        }
    }
}

/// Shared epilogue of every shrinking collective: on failure, pill the
/// neighbors; always join the agreement (commit barrier); convert an
/// agreed eviction into [`CommError::Evicted`] so the caller re-derives
/// its ring and re-runs. A rank observing its *own* crash reports it
/// directly — the dead must not participate in the agreement.
fn finish_collective<T>(
    comm: &mut Communicator,
    m: &mut Membership,
    result: Result<T, CommError>,
    policy: &RetryPolicy,
) -> Result<T, CommError> {
    if matches!(result, Err(CommError::Crashed { .. })) {
        return result;
    }
    let my_suspects = match &result {
        Err(e) => {
            let s = confirmed_suspects(comm, e, policy);
            send_abort(comm, m, &s);
            s
        }
        Ok(_) => Vec::new(),
    };
    let out = agree_on_eviction(comm, m, &my_suspects, policy)?;
    if !out.evicted.is_empty() {
        return Err(CommError::Evicted {
            rank: comm.rank(),
            epoch: out.epoch,
            evicted: out.evicted,
            at: comm.time(),
        });
    }
    result
}

fn ring_neighbors(comm: &Communicator, m: &Membership) -> (Vec<usize>, usize) {
    let me = comm.rank();
    assert!(
        m.is_alive(me),
        "rank {me}: shrinking collective on an evicted rank"
    );
    let members = m.alive_ranks();
    let pos = m.pos_of(me).expect("alive rank has a position");
    (members, pos)
}

/// One step of the shrinking ring: send `data` to the next alive rank,
/// receive from the previous alive rank. On failure the membership
/// agreement runs and [`CommError::Evicted`] tells the caller to re-derive
/// and re-run.
pub fn shrink_ring_shift(
    comm: &mut Communicator,
    m: &mut Membership,
    data: MsgData,
    policy: &RetryPolicy,
) -> Result<MsgData, CommError> {
    let (members, pos) = ring_neighbors(comm, m);
    let g = members.len();
    let attempt = (|| {
        if g == 1 {
            return Ok(data.clone());
        }
        comm.try_send(members[(pos + 1) % g], data.clone())?;
        let prev = members[(pos + g - 1) % g];
        let mut tries = 0u32;
        loop {
            match comm.try_recv(prev) {
                Ok(MsgData::Ctrl(c)) => {
                    return Err(CommError::Aborted {
                        rank: comm.rank(),
                        src: prev,
                        epoch: c.epoch,
                        suspects: c.suspects,
                        at: comm.time(),
                    });
                }
                Err(CommError::Timeout { .. }) if tries + 1 < policy.max_attempts.max(1) => {
                    backoff_retry(comm, policy, tries);
                    tries += 1;
                }
                other => return other,
            }
        }
    })();
    finish_collective(comm, m, attempt, policy)
}

/// The ring geometry of the alive set: the two-level split when the
/// survivors are node-balanced ([`DoubleRingSpec::from_members`]),
/// otherwise the one-level ring over the alive list. Slot order is
/// ascending rank order either way, so a slot is a ring position.
fn alive_spec(comm: &Communicator, m: &Membership) -> DoubleRingSpec {
    let (members, _) = ring_neighbors(comm, m);
    DoubleRingSpec::from_members(comm.topology(), &members)
        .unwrap_or_else(|| DoubleRingSpec::one_level(&members))
}

/// Shrinking ring all-gather over the alive set: returns one block per
/// alive rank, indexed by ring position (ascending rank order). Runs the
/// schedule of [`Communicator::try_all_gather_mat`] on the alive set's
/// [`DoubleRingSpec`] — two-level when the survivors are node-balanced,
/// one-level when they are ragged — so a shrunken world matches a fresh
/// world of the survivors' shape, or a fresh flat world of their count.
pub fn shrink_all_gather_mat(
    comm: &mut Communicator,
    m: &mut Membership,
    mine: &Mat,
    policy: &RetryPolicy,
) -> Result<Vec<Mat>, CommError> {
    let spec = alive_spec(comm, m);
    let attempt = all_gather_on(comm, &spec, mine, |c, src| recv_mat_retry(c, src, policy));
    finish_collective(comm, m, attempt, policy)
}

/// Shrinking ring reduce-scatter (sum): `parts[p]` is this rank's
/// contribution to the alive rank at ring position `p` (`parts.len()` must
/// equal the alive count); returns the reduced block this rank owns. The
/// schedule and summation order of [`Communicator::try_reduce_scatter_mat`]
/// on the alive set's [`DoubleRingSpec`], as in [`shrink_all_gather_mat`].
pub fn shrink_reduce_scatter_mat(
    comm: &mut Communicator,
    m: &mut Membership,
    parts: &[Mat],
    policy: &RetryPolicy,
) -> Result<Mat, CommError> {
    let spec = alive_spec(comm, m);
    let attempt = reduce_scatter_on(comm, &spec, parts, |c, src| recv_mat_retry(c, src, policy));
    finish_collective(comm, m, attempt, policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::topology::Topology;
    use crate::world::World;

    #[test]
    fn membership_bookkeeping() {
        let mut m = Membership::new(4);
        assert_eq!(m.alive_ranks(), vec![0, 1, 2, 3]);
        assert_eq!(m.pos_of(2), Some(2));
        assert!(m.evict(2));
        assert!(!m.evict(2), "double eviction is a no-op");
        assert_eq!(m.alive_ranks(), vec![0, 1, 3]);
        assert_eq!(m.pos_of(3), Some(2));
        assert_eq!(m.pos_of(2), None);
        assert_eq!(m.next_alive(1), 3);
        assert_eq!(m.prev_alive(3), 1);
        assert_eq!(m.next_alive(3), 0);
        assert_eq!(m.num_alive(), 3);
        assert!(m.readmit(2), "an evicted rank can be re-admitted");
        assert!(!m.readmit(2), "double re-admission is a no-op");
        assert!(!m.readmit(7), "out-of-range re-admission is a no-op");
        assert_eq!(m.alive_ranks(), vec![0, 1, 2, 3]);
        assert_eq!(m.pos_of(2), Some(2));
    }

    #[test]
    fn leave_then_rejoin_restores_the_full_ring() {
        // Rank 2 departs voluntarily, parks, and petitions for re-admission;
        // the grown ring must be the original ring at a higher epoch, and a
        // collective over it must see all four contributions again.
        let world = World::new(Topology::single_node(4));
        let outs = world.run_results(|comm| {
            let mut m = Membership::new(comm.world_size());
            let policy = RetryPolicy::default();
            let leave = agree_on_leave(comm, &mut m, &[2], &policy).unwrap();
            assert_eq!(leave.evicted, vec![2]);
            assert_eq!(leave.epoch, 1);
            let join = agree_on_join(comm, &mut m, &[2], &policy).unwrap();
            let sum = shrink_all_reduce_vec(comm, &mut m, &[comm.rank() as f32], &policy).unwrap();
            (join, m.alive_ranks(), m.epoch(), sum)
        });
        for (r, (join, alive, epoch, sum)) in outs.into_iter().enumerate() {
            assert_eq!(join.admitted, vec![2], "rank {r} must see rank 2 admitted");
            assert_eq!(join.epoch, 2, "leave then join = two epoch bumps");
            assert_eq!(alive, vec![0, 1, 2, 3], "rank {r}: ring must regrow");
            assert_eq!(epoch, 2);
            assert_eq!(sum, vec![6.0], "rank {r}: full-ring reduction");
        }
    }

    #[test]
    fn joiner_crash_mid_join_is_dropped_not_fatal() {
        // Rank 3 leaves, then dies on its very first comm op of the join
        // petition. The leader must drop it from the admitted set and the
        // surviving members complete the round with nothing admitted.
        let plan = FaultPlan::new(13).crash_at_op(3, 0).recv_deadline(60.0);
        let world = World::with_faults(Topology::single_node(4), plan);
        let outs = world.run_faulty::<_, CommError, _>(|comm| {
            let mut m = Membership::new(comm.world_size());
            let policy = RetryPolicy::default();
            // Everyone knows the schedule: rank 3 is leaving. The leaver
            // skips the survivor barrier, so its first comm op is the Join
            // petition — where the crash fires.
            m.evict(3);
            m.set_epoch(1);
            if comm.rank() != 3 {
                shrink_barrier(comm, &mut m, &policy)?;
            }
            let join = agree_on_join(comm, &mut m, &[3], &policy)?;
            Ok((join, m.alive_ranks(), m.epoch()))
        });
        assert!(
            matches!(outs[3].result, Err(CommError::Crashed { rank: 3, .. })),
            "the dead joiner reports its own crash: {:?}",
            outs[3].result
        );
        for (r, out) in outs.iter().enumerate().take(3) {
            let (join, alive, epoch) = out.result.as_ref().expect("member completes");
            assert!(
                join.admitted.is_empty(),
                "rank {r}: a dead petitioner must not be admitted"
            );
            assert_eq!(*alive, vec![0, 1, 2], "rank {r}: ring stays shrunken");
            assert_eq!(*epoch, 1, "rank {r}: aborted join must not bump the epoch");
        }
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_growing() {
        let p = RetryPolicy::default();
        for attempt in 0..8 {
            let a = p.backoff(attempt, 3);
            assert_eq!(a, p.backoff(attempt, 3), "backoff must be reproducible");
            assert!(a > 0.0 && a <= p.max_backoff);
        }
        assert!(
            p.backoff(5, 0) >= p.backoff(0, 0),
            "later attempts back off at least as long"
        );
        assert_ne!(p.backoff(0, 0), p.backoff(0, 1), "per-rank jitter");
    }

    /// Every rank but `victim`, after checking that the victim reported its
    /// own crash.
    fn survivors_of<T: std::fmt::Debug>(
        victim: usize,
        outs: &[crate::world::RankOutput<Result<T, CommError>>],
    ) -> Vec<usize> {
        assert!(
            matches!(outs[victim].result, Err(CommError::Crashed { rank, .. }) if rank == victim),
            "the dead rank reports its own crash: {:?}",
            outs[victim].result
        );
        (0..outs.len()).filter(|&r| r != victim).collect()
    }

    /// Shrinking all-gather with `victim` crashing at its `op`-th comm op:
    /// the survivors must evict the victim alone, in one epoch, and gather
    /// every survivor's block in ring order.
    fn all_gather_through_a_crash(topo: Topology, victim: usize, op: u64) {
        let plan = FaultPlan::new(5)
            .crash_at_op(victim, op)
            .recv_deadline(60.0);
        let world = World::with_faults(topo, plan);
        let outs = world.run_faulty::<_, CommError, _>(|comm| {
            let mut m = Membership::new(comm.world_size());
            let policy = RetryPolicy::default();
            let mine = Mat::from_vec(1, 2, vec![comm.rank() as f32, 10.0 + comm.rank() as f32]);
            loop {
                match shrink_all_gather_mat(comm, &mut m, &mine, &policy) {
                    Ok(blocks) => return Ok((blocks, m.alive_ranks(), m.epoch())),
                    Err(CommError::Evicted { .. }) => continue,
                    Err(e) => return Err(e),
                }
            }
        });
        let survivors = survivors_of(victim, &outs);
        for &r in &survivors {
            let (blocks, alive, epoch) = outs[r].result.as_ref().unwrap_or_else(|e| {
                panic!("rank {r} (victim {victim} at op {op}) must complete: {e:?}")
            });
            assert_eq!(*alive, survivors, "rank {r}: only rank {victim} is evicted");
            assert_eq!(*epoch, 1, "one eviction round bumps the epoch once");
            assert_eq!(blocks.len(), survivors.len());
            for (b, &src) in blocks.iter().zip(&survivors) {
                assert_eq!(
                    b.as_slice(),
                    &[src as f32, 10.0 + src as f32],
                    "rank {r}: block must come from alive rank {src}"
                );
            }
        }
    }

    /// Shrinking reduce-scatter with `victim` crashing at its `op`-th comm
    /// op: the survivors must evict the victim alone, in one epoch, and each
    /// own the sum of every survivor's part for its ring position.
    fn reduce_scatter_through_a_crash(topo: Topology, victim: usize, op: u64) {
        let plan = FaultPlan::new(11)
            .crash_at_op(victim, op)
            .recv_deadline(60.0);
        let world = World::with_faults(topo, plan);
        let outs = world.run_faulty::<_, CommError, _>(|comm| {
            let mut m = Membership::new(comm.world_size());
            let policy = RetryPolicy::default();
            loop {
                let g = m.num_alive();
                // parts[p] = rank-tagged contribution for position p.
                let parts: Vec<Mat> = (0..g)
                    .map(|p| Mat::from_vec(1, 1, vec![(comm.rank() * 10 + p) as f32]))
                    .collect();
                match shrink_reduce_scatter_mat(comm, &mut m, &parts, &policy) {
                    Ok(mine) => return Ok((mine, m.alive_ranks(), m.epoch())),
                    Err(CommError::Evicted { .. }) => continue,
                    Err(e) => return Err(e),
                }
            }
        });
        let survivors = survivors_of(victim, &outs);
        for (pos, &r) in survivors.iter().enumerate() {
            let (mine, alive, epoch) = outs[r].result.as_ref().unwrap_or_else(|e| {
                panic!("rank {r} (victim {victim} at op {op}) must complete: {e:?}")
            });
            assert_eq!(*alive, survivors, "rank {r}: only rank {victim} is evicted");
            assert_eq!(*epoch, 1, "one eviction round bumps the epoch once");
            let expect: usize = survivors.iter().map(|&s| s * 10 + pos).sum();
            assert_eq!(
                mine.as_slice(),
                &[expect as f32],
                "rank {r} owns the summed block"
            );
        }
    }

    /// Multi-node worlds whose full ring is two-level, with two victims
    /// each (the agreement leader and a rank on another node), and the
    /// number of comm ops one ring collective takes on each.
    fn two_level_crash_cases() -> Vec<(Topology, usize, u64)> {
        let mut cases = Vec::new();
        for (nodes, gpn, victims) in [(2, 4, [0, 5]), (3, 2, [0, 3])] {
            // `nodes − 1` cross-node steps of one send and one receive,
            // `gpn − 1` in-node steps of `nodes` of each.
            let ops = 2 * (nodes - 1) + 2 * nodes * (gpn - 1);
            for victim in victims {
                for op in 0..ops as u64 {
                    cases.push((Topology::a800(nodes, gpn), victim, op));
                }
            }
        }
        cases
    }

    #[test]
    fn shrinking_all_gather_survives_a_crashed_rank() {
        // Rank 2 dies on its second comm op; ranks 0 and 1 must agree to
        // evict it and complete the all-gather on the two-rank ring.
        all_gather_through_a_crash(Topology::single_node(3), 2, 1);
        // A two-level ring waits on cross-node and in-node neighbours, not
        // on flat ones: every rank left waiting on an aborting rank must be
        // pilled, or it times out and suspects a healthy rank.
        for (topo, victim, op) in two_level_crash_cases() {
            all_gather_through_a_crash(topo, victim, op);
        }
    }

    #[test]
    fn leader_gather_crash_wakes_every_blocked_follower() {
        // Rank 2 dies before sending its contribution. The leader's gather
        // fails on it while ranks 1, 3 and 4 wait for the leader's
        // broadcast; rank 3 is no flat neighbor of the leader, so only a
        // pill to every rank keeps it from timing out and suspecting the
        // healthy leader.
        let plan = FaultPlan::new(3).crash_at_op(2, 0).recv_deadline(60.0);
        let world = World::with_faults(Topology::single_node(5), plan);
        let outs = world.run_faulty::<_, CommError, _>(|comm| {
            let mut m = Membership::new(comm.world_size());
            let policy = RetryPolicy::default();
            loop {
                match shrink_all_reduce_vec(comm, &mut m, &[comm.rank() as f32], &policy) {
                    Ok(sum) => return Ok((sum, m.alive_ranks(), m.epoch())),
                    Err(CommError::Evicted { .. }) => continue,
                    Err(e) => return Err(e),
                }
            }
        });
        for r in survivors_of(2, &outs) {
            let (sum, alive, epoch) = outs[r].result.as_ref().expect("survivor completes");
            assert_eq!(*alive, vec![0, 1, 3, 4], "rank {r}: only rank 2 is evicted");
            assert_eq!(*epoch, 1, "one eviction round bumps the epoch once");
            assert_eq!(*sum, vec![8.0], "rank {r}: the survivors' sum");
        }
    }

    #[test]
    fn shrinking_reduce_scatter_matches_manual_sum_after_eviction() {
        // Rank 1 dies before its first op.
        reduce_scatter_through_a_crash(Topology::single_node(3), 1, 0);
        for (topo, victim, op) in two_level_crash_cases() {
            reduce_scatter_through_a_crash(topo, victim, op);
        }
    }

    #[test]
    fn clean_shrink_collectives_run_without_faults() {
        // No fault plan installed: the agreement still runs (commit
        // barrier) and must be a no-op.
        let world = World::new(Topology::single_node(4));
        let outs = world.run_results(|comm| {
            let mut m = Membership::new(comm.world_size());
            let policy = RetryPolicy::default();
            let mine = Mat::from_vec(1, 1, vec![comm.rank() as f32]);
            let blocks = shrink_all_gather_mat(comm, &mut m, &mine, &policy).unwrap();
            let shifted =
                shrink_ring_shift(comm, &mut m, MsgData::Scalar(comm.rank() as f64), &policy)
                    .unwrap();
            (blocks.len(), shifted, m.epoch())
        });
        for (r, (n, shifted, epoch)) in outs.into_iter().enumerate() {
            assert_eq!(n, 4);
            assert_eq!(epoch, 0, "clean run must not bump the epoch");
            match shifted {
                MsgData::Scalar(s) => assert_eq!(s as usize, (r + 3) % 4),
                other => panic!("rank {r}: expected scalar, got {other:?}"),
            }
        }
    }
}
