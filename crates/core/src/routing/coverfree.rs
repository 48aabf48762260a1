//! The cover-free parallel routing plan (Section 4.2 of the paper).
//!
//! All `k` super-messages per node route simultaneously: each message
//! `(u, j)` gets a receiver set `A_{(u,j)}` drawn from a `(k-1, δ)`-cover-free
//! family w.r.t. `H = {INind(u)}_u ∪ {OUTind(v)}_v` (Eq. (2)); position `pos`
//! of its codeword goes to the `pos`-th member. Round A sends codeword symbols
//! to receiver-set members under the `InLoad = 1` filter; round B forwards
//! them to targets under the `OutLoad = 1` filter. One work item per chunk,
//! each carrying every message, so the round cost is `O(chunks)` — constant
//! in `k`.
//!
//! Two refinements over the paper's analysis, both noted in `DESIGN.md`:
//!
//! * Overlap positions dropped by the load filters are *computable by
//!   every node* from public data, so the decoder treats them as **known
//!   erasures** instead of errors — doubling their budget efficiency
//!   relative to Lemma 4.6's accounting.
//! * The decode margin (Lemma 4.5's inequality) is checked *numerically* at
//!   construction time from the exact worst-case erasure count of the
//!   verified family; infeasible parameter combinations are rejected before
//!   any round runs, which is what lets [`super::RoutingMode::Auto`] fall
//!   back cleanly.

use super::pack::{PackCode, PackPlan, Targets};
use super::{EngineUsed, RouterConfig, RoutingInstance};
use crate::error::CoreError;
use bdclique_coverfree::{CoverFreeFamily, CoverFreeParams};
use bdclique_netsim::Network;

/// The cover-free engine's plan: verified receiver sets plus the load
/// filters as per-message position masks.
pub(crate) struct CfPlan {
    code: PackCode,
    /// Every message index: each chunk's work item carries all of them.
    all: Vec<u32>,
    /// Receiver set per message (ascending node ids), `L` each, flattened.
    sets: Vec<u32>,
    /// `InLoad(src, w) = 1` per message position, flattened like `sets`.
    scattered: Vec<bool>,
    targets: Targets,
    /// `OutLoad(w, v) = 1` per (target row, position), `L` per row.
    forwarded: Vec<bool>,
}

/// Marks in `ok` every position of every message in one constraint group of
/// H whose relay no other message of the group uses — the `InLoad`/`OutLoad`
/// = 1 test restricted to that group. `row(idx)` is the mask row of message
/// `idx`; `count` is an all-zero scratch of size `n`, left all-zero.
fn mark_unshared(
    sets: &[u32],
    l: usize,
    group: &[u32],
    count: &mut [u32],
    row: impl Fn(usize) -> usize,
    ok: &mut [bool],
) {
    let set = |idx: u32| &sets[idx as usize * l..][..l];
    for &idx in group {
        for &w in set(idx) {
            count[w as usize] += 1;
        }
    }
    for &idx in group {
        let r = row(idx as usize);
        for (pos, &w) in set(idx).iter().enumerate() {
            ok[r * l + pos] = count[w as usize] == 1;
        }
    }
    for &idx in group {
        for &w in set(idx) {
            count[w as usize] = 0;
        }
    }
}

impl CfPlan {
    /// Builds the verified family and the load masks and validates the
    /// decode margin; every infeasibility is reported here, before any round.
    pub(crate) fn new(
        net: &Network,
        instance: &RoutingInstance,
        cfg: &RouterConfig,
    ) -> Result<Self, CoreError> {
        let n = instance.n;
        let num_msgs = instance.messages.len();
        let k = instance
            .max_source_multiplicity()
            .max(instance.max_target_multiplicity())
            .max(1);

        // Group size controls the per-group collision probability (~(k-1)/group
        // per other set); default keeps the expected cover fraction near 1/8.
        let group = cfg
            .cf_group_size
            .unwrap_or((8 * k.saturating_sub(1)).max(4));
        if group < 2 || n / group == 0 {
            return Err(CoreError::infeasible(format!(
                "group size {group} invalid for n = {n}"
            )));
        }
        let l = (n / group).min((1usize << cfg.symbol_bits) - 1);
        if l < 2 {
            return Err(CoreError::infeasible(format!(
                "receiver sets of size {l} are too small"
            )));
        }

        // Constraint collection H: per-source slots INind(u) and per-target
        // slots OUTind(v) (Eq. 2).
        let targets = Targets::new(instance);
        let mut in_ind: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut out_ind: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (idx, msg) in instance.messages.iter().enumerate() {
            in_ind[msg.src].push(idx as u32);
            for v in targets.of(idx) {
                out_ind[v].push(idx as u32);
            }
        }
        let h: Vec<Vec<u32>> = in_ind
            .iter()
            .chain(&out_ind)
            .filter(|t| t.len() >= 2)
            .cloned()
            .collect();
        let params = CoverFreeParams {
            n,
            m: num_msgs,
            r: k.saturating_sub(1),
            set_size: l,
        };
        let family = CoverFreeFamily::build(params, &h, cfg.cf_delta, 0xbdc11e, cfg.cf_seed_tries)
            .map_err(|e| CoreError::infeasible(format!("cover-free family: {e}")))?;
        let sets: Vec<u32> = (0..num_msgs).flat_map(|i| family.set(i)).collect();

        // The load filters (public data: every node computes them
        // identically), counted inside each constraint group.
        let mut count = vec![0u32; n];
        let mut scattered = vec![false; num_msgs * l];
        for group in &in_ind {
            mark_unshared(&sets, l, group, &mut count, |idx| idx, &mut scattered);
        }
        let mut forwarded = vec![false; targets.total() * l];
        for (v, group) in out_ind.iter().enumerate() {
            let row = |idx| {
                targets
                    .row(idx, v)
                    .expect("OUTind(v) lists messages targeting v")
            };
            mark_unshared(&sets, l, group, &mut count, row, &mut forwarded);
        }

        // Exact worst-case erasure count: positions lost to either filter,
        // maximized over (message, target) pairs. This replaces Lemma 4.5's
        // δ-based bound with the measured quantity.
        let mut worst_erasures = 0;
        for (idx, msg) in instance.messages.iter().enumerate() {
            for (r, v) in targets.rows(idx).zip(targets.of(idx)) {
                if v == msg.src {
                    continue;
                }
                let lost = (0..l)
                    .filter(|&pos| !scattered[idx * l + pos] || !forwarded[r * l + pos])
                    .count();
                worst_erasures = worst_erasures.max(lost);
            }
        }

        // Decode margin: per codeword, adversarial errors ≤ ⌊αn⌋ per round (at
        // the source in round A, at the target in round B) + slack; filtered
        // positions are known erasures.
        let code = PackCode::new(net, cfg, instance.payload_bits, l, worst_erasures)?;
        Ok(Self {
            code,
            all: (0..num_msgs as u32).collect(),
            sets,
            scattered,
            targets,
            forwarded,
        })
    }
}

impl PackPlan for CfPlan {
    const ENGINE: EngineUsed = EngineUsed::CoverFree;

    fn code(&self) -> &PackCode {
        &self.code
    }

    fn stages(&self) -> usize {
        1
    }

    fn targets(&self) -> &Targets {
        &self.targets
    }

    /// One work item per chunk.
    fn work_len(&self) -> usize {
        self.code.chunks
    }

    fn item(&self, i: usize) -> (&[u32], usize) {
        (&self.all, i)
    }

    fn relay(&self, idx: usize, pos: usize) -> usize {
        self.sets[idx * self.code.l + pos] as usize
    }

    fn scattered(&self, idx: usize, pos: usize) -> bool {
        self.scattered[idx * self.code.l + pos]
    }

    fn forwarded(&self, idx: usize, pos: usize, v: usize) -> bool {
        self.targets
            .row(idx, v)
            .is_some_and(|r| self.forwarded[r * self.code.l + pos])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{route, RoutingMode, SuperMessage};
    use bdclique_bits::BitVec;
    use bdclique_netsim::Adversary;

    fn cover_free() -> RouterConfig {
        RouterConfig {
            mode: RoutingMode::CoverFree,
            ..RouterConfig::default()
        }
    }

    fn instance(
        n: usize,
        payload_bits: usize,
        msgs: Vec<(usize, usize, Vec<usize>)>,
    ) -> RoutingInstance {
        let messages = msgs
            .into_iter()
            .map(|(src, slot, targets)| SuperMessage {
                src,
                slot,
                payload: BitVec::from_fn(payload_bits, |i| (i * 7 + src + 3 * slot) % 5 < 2),
                targets,
            })
            .collect();
        RoutingInstance {
            n,
            payload_bits,
            messages,
        }
    }

    #[test]
    fn fault_free_two_messages_per_node() {
        let n = 64;
        // Every node sends 2 messages; message (u, j) targets (u + j + 1) % n.
        let msgs: Vec<(usize, usize, Vec<usize>)> = (0..n)
            .flat_map(|u| (0..2).map(move |j| (u, j, vec![(u + j + 1) % n])))
            .collect();
        let inst = instance(n, 16, msgs);
        let mut net = Network::new(n, 9, 0.0, Adversary::none());
        let out = route(&mut net, &inst, &cover_free()).unwrap();
        assert_eq!(out.report.decode_failures, 0);
        assert_eq!(out.report.rounds, 2 * out.report.chunks as u64);
        for msg in &inst.messages {
            for &t in &msg.targets {
                assert_eq!(
                    out.delivered[t].get(&(msg.src, msg.slot)),
                    Some(&msg.payload),
                    "message ({}, {})",
                    msg.src,
                    msg.slot
                );
            }
        }
    }

    #[test]
    fn multi_target_broadcast_style() {
        let n = 32;
        let inst = instance(n, 8, vec![(5, 0, (0..n).collect())]);
        let mut net = Network::new(n, 9, 0.0, Adversary::none());
        let out = route(&mut net, &inst, &cover_free()).unwrap();
        for v in 0..n {
            assert_eq!(
                out.delivered[v].get(&(5, 0)),
                Some(&inst.messages[0].payload)
            );
        }
    }

    #[test]
    fn survives_adaptive_attack_within_margin() {
        // n = 256, k = 2, budget 1: the cover-free margin holds and every
        // payload must decode despite an adaptive greedy flipper.
        let n = 256;
        let msgs: Vec<(usize, usize, Vec<usize>)> = (0..n)
            .flat_map(|u| (0..2).map(move |j| (u, j, vec![(u + j * 9 + 1) % n])))
            .collect();
        let inst = instance(n, 16, msgs);
        let adv = bdclique_netsim::Adversary::adaptive(TestGreedy);
        let mut net = Network::new(n, 9, 1.2 / n as f64, adv);
        let out = route(&mut net, &inst, &cover_free()).unwrap();
        assert_eq!(out.report.decode_failures, 0);
        assert!(net.stats().edges_corrupted > 0);
        for msg in &inst.messages {
            for &t in &msg.targets {
                assert_eq!(
                    out.delivered[t].get(&(msg.src, msg.slot)),
                    Some(&msg.payload)
                );
            }
        }
    }

    /// Minimal in-crate adaptive flipper (the full strategy suite lives in
    /// `bdclique-adversary`, which would be a cyclic dev-dependency here).
    #[derive(Default)]
    struct TestGreedy;

    impl bdclique_netsim::AdaptiveStrategy for TestGreedy {
        fn corrupt(
            &mut self,
            _view: &bdclique_netsim::AdversaryView<'_>,
            scope: &mut bdclique_netsim::AdaptiveScope<'_>,
        ) {
            let n = scope.n();
            for u in 0..n {
                for v in (u + 1)..n {
                    if scope.intended(u, v).is_none() && scope.intended(v, u).is_none() {
                        continue;
                    }
                    if !scope.try_acquire(u, v) {
                        continue;
                    }
                    for (a, b) in [(u, v), (v, u)] {
                        if let Some(f) = scope.intended(a, b) {
                            let mut flipped = f.clone();
                            for i in 0..flipped.len() {
                                flipped.flip(i);
                            }
                            scope.try_corrupt(a, b, Some(flipped));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn infeasibility_detected_before_any_round() {
        let n = 16;
        let msgs: Vec<(usize, usize, Vec<usize>)> = (0..n)
            .flat_map(|u| (0..4).map(move |j| (u, j, vec![(u + j + 1) % n])))
            .collect();
        let inst = instance(n, 8, msgs);
        // alpha = 0.4: budget 6, e_allow = 13 — hopeless for L ≤ n/8.
        let mut net = Network::new(n, 9, 0.4, Adversary::none());
        let err = route(&mut net, &inst, &cover_free()).unwrap_err();
        assert!(matches!(err, CoreError::Infeasible { .. }));
        assert_eq!(
            net.rounds(),
            0,
            "no rounds may run before feasibility is known"
        );
    }

    /// The event-driven executor is bit-identical to the lockstep path on
    /// the cover-free engine: same outputs, stats, and per-round corruption
    /// history — multi-chunk (so prefetch actually pipelines), multi-target,
    /// and under an active adversary.
    #[test]
    fn event_driven_matches_lockstep() {
        let ring = |n: usize| -> Vec<(usize, usize, Vec<usize>)> {
            (0..n)
                .flat_map(|u| (0..2).map(move |j| (u, j, vec![(u + j + 1) % n])))
                .collect()
        };
        let cases: Vec<(usize, f64, RoutingInstance)> = vec![
            (64, 0.0, instance(64, 64, ring(64))), // multi-chunk pipeline
            (32, 0.0, instance(32, 8, vec![(5, 0, (0..32).collect())])),
            (256, 1.2 / 256.0, instance(256, 16, ring(256))),
        ];
        for (case, (n, alpha, inst)) in cases.into_iter().enumerate() {
            let run = |event: bool| {
                let adversary = if alpha > 0.0 {
                    Adversary::adaptive(TestGreedy)
                } else {
                    Adversary::none()
                };
                let mut net = Network::new(n, 9, alpha, adversary);
                let cfg = RouterConfig {
                    event_driven: event,
                    ..cover_free()
                };
                let out = route(&mut net, &inst, &cfg).unwrap();
                let hist: Vec<_> = net
                    .history()
                    .records()
                    .iter()
                    .map(|r| (r.round, r.corrupted.clone(), r.frames, r.bits))
                    .collect();
                let stats = *net.stats();
                (out, stats, hist)
            };
            let (lock_out, lock_stats, lock_hist) = run(false);
            let (ev_out, ev_stats, ev_hist) = run(true);
            assert_eq!(lock_stats, ev_stats, "case {case}: stats");
            assert_eq!(lock_hist, ev_hist, "case {case}: round history");
            assert_eq!(lock_out.report, ev_out.report, "case {case}: report");
            for (x, (a, b)) in lock_out
                .delivered
                .iter()
                .zip(ev_out.delivered.iter())
                .enumerate()
            {
                assert_eq!(a, b, "case {case}: delivered payloads at node {x}");
            }
        }
    }
}
