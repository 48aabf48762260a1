//! The scheduled unit-instance plan (the paper's Section 3 warm-up).
//!
//! Messages are colored into *stages* such that within a stage every node is
//! the source of at most one active message and the target of at most one
//! active message (multi-target messages deliver to all their targets in one
//! stage). Each `(stage, chunk)` work item runs the two-round scatter/gather
//! of [`super::pack`]: the source spreads one Reed–Solomon symbol to every
//! relay `0..L` (position `w` goes to node `w`), then relays forward to the
//! targets. Per codeword the adversary corrupts at most `⌊αn⌋` symbols in
//! each of the two rounds, against a decoding radius of `(L - k)/2` chosen as
//! `2⌊αn⌋ + slack`; suppressed frames are decoded as erasures. No position is
//! a known erasure.
//!
//! When the network bandwidth exceeds one wire slot (`symbol_bits + 1`),
//! multiple work items run in parallel lanes of a single round pair — the
//! `B`-fold speedup of Lemma 2.9 / Theorem 4.1.

use super::pack::{PackCode, PackPlan, Targets};
use super::{EngineUsed, RouterConfig, RoutingInstance};
use crate::error::CoreError;
use bdclique_netsim::Network;
use std::collections::HashSet;

/// First-fit stage coloring: same-source or shared-target messages never
/// share a stage; each message takes the smallest stage where its source
/// and all its targets are free. Returns `stage_of[msg_idx]`.
///
/// Implemented with per-endpoint counters: `src_next[u]` / `tgt_next[v]`
/// hold each endpoint's smallest free stage (its *mex*), so the scan for a
/// message starts at the maximum of its endpoints' counters — every earlier
/// stage is provably occupied by one of them — and probes occupancy in two
/// hash sets keyed `(endpoint, stage)`. This is the same coloring the old
/// `O(stages · n)`-memory occupancy matrices computed (stage-for-stage
/// identical, regression-tested below), in `O(incidences)` memory and
/// near-linear time: the scan past the counter maximum only crosses stages
/// genuinely blocked by a conflicting endpoint, so total work is bounded by
/// the conflict count rather than `messages × stages`.
///
/// Stage count never exceeds the greedy coloring bound `2·Δ − 1`, where `Δ`
/// is the maximum per-endpoint multiplicity: a single-target message
/// conflicts with at most `(deg(src) − 1) + (deg(tgt) − 1) ≤ 2Δ − 2` other
/// messages, so first-fit places it below stage `2Δ − 1`.
fn schedule_stages(instance: &RoutingInstance) -> Vec<usize> {
    let mut stage_of = vec![0usize; instance.messages.len()];
    let mut src_next = vec![0u32; instance.n];
    let mut tgt_next = vec![0u32; instance.n];
    let mut src_used: HashSet<(u32, u32)> = HashSet::new();
    let mut tgt_used: HashSet<(u32, u32)> = HashSet::new();
    for (idx, m) in instance.messages.iter().enumerate() {
        let src = m.src as u32;
        let mut stage = m
            .targets
            .iter()
            .map(|&t| tgt_next[t])
            .fold(src_next[m.src], u32::max);
        loop {
            let free = !src_used.contains(&(src, stage))
                && m.targets
                    .iter()
                    .all(|&t| !tgt_used.contains(&(t as u32, stage)));
            if free {
                break;
            }
            stage += 1;
        }
        src_used.insert((src, stage));
        while src_used.contains(&(src, src_next[m.src])) {
            src_next[m.src] += 1;
        }
        for &t in &m.targets {
            tgt_used.insert((t as u32, stage));
            while tgt_used.contains(&(t as u32, tgt_next[t])) {
                tgt_next[t] += 1;
            }
        }
        stage_of[idx] = stage as usize;
    }
    stage_of
}

/// The unit engine's plan: stage coloring, identity relays `0..L`, no
/// known erasures.
pub(crate) struct UnitPlan {
    code: PackCode,
    /// Message indices per stage.
    stage_msgs: Vec<Vec<u32>>,
    targets: Targets,
    /// Source of every message: relays forward to every target but it.
    src: Vec<u32>,
}

impl UnitPlan {
    /// Sizes the code (`L = min(n, 2^m − 1)` relays) and schedules stages.
    pub(crate) fn new(
        net: &Network,
        instance: &RoutingInstance,
        cfg: &RouterConfig,
    ) -> Result<Self, CoreError> {
        let l = instance.n.min((1usize << cfg.symbol_bits) - 1);
        let code = PackCode::new(net, cfg, instance.payload_bits, l, 0)?;
        let stage_of = schedule_stages(instance);
        let mut stage_msgs = vec![Vec::new(); stage_of.iter().max().map_or(0, |&s| s + 1)];
        for (idx, &s) in stage_of.iter().enumerate() {
            stage_msgs[s].push(idx as u32);
        }
        let src = instance.messages.iter().map(|m| m.src as u32).collect();
        Ok(Self {
            code,
            stage_msgs,
            targets: Targets::new(instance),
            src,
        })
    }
}

impl PackPlan for UnitPlan {
    const ENGINE: EngineUsed = EngineUsed::Unit;

    fn code(&self) -> &PackCode {
        &self.code
    }

    fn stages(&self) -> usize {
        self.stage_msgs.len()
    }

    fn targets(&self) -> &Targets {
        &self.targets
    }

    /// `(stage, chunk)` pairs, stage-major.
    fn work_len(&self) -> usize {
        self.stage_msgs.len() * self.code.chunks
    }

    fn item(&self, i: usize) -> (&[u32], usize) {
        (&self.stage_msgs[i / self.code.chunks], i % self.code.chunks)
    }

    fn relay(&self, _idx: usize, pos: usize) -> usize {
        pos
    }

    fn scattered(&self, _idx: usize, _pos: usize) -> bool {
        true
    }

    fn forwarded(&self, idx: usize, _pos: usize, v: usize) -> bool {
        v != self.src[idx] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{route, RoutingMode, SuperMessage};
    use bdclique_bits::BitVec;
    use bdclique_netsim::Adversary;

    fn unit() -> RouterConfig {
        RouterConfig {
            mode: RoutingMode::Unit,
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
                payload: BitVec::from_fn(payload_bits, |i| (i + src + slot) % 3 == 0),
                targets,
            })
            .collect();
        RoutingInstance {
            n,
            payload_bits,
            messages,
        }
    }

    /// The original occupancy-matrix first-fit coloring, kept as the oracle
    /// for the counter-based scheduler.
    fn schedule_stages_dense_oracle(instance: &RoutingInstance) -> Vec<usize> {
        let mut stage_of = vec![usize::MAX; instance.messages.len()];
        let mut stage_sources: Vec<Vec<bool>> = Vec::new();
        let mut stage_targets: Vec<Vec<bool>> = Vec::new();
        for (idx, m) in instance.messages.iter().enumerate() {
            let mut stage = 0usize;
            loop {
                if stage == stage_sources.len() {
                    stage_sources.push(vec![false; instance.n]);
                    stage_targets.push(vec![false; instance.n]);
                }
                let src_free = !stage_sources[stage][m.src];
                let tgts_free = m.targets.iter().all(|&t| !stage_targets[stage][t]);
                if src_free && tgts_free {
                    stage_sources[stage][m.src] = true;
                    for &t in &m.targets {
                        stage_targets[stage][t] = true;
                    }
                    stage_of[idx] = stage;
                    break;
                }
                stage += 1;
            }
        }
        stage_of
    }

    #[test]
    fn stage_coloring_respects_conflicts() {
        let inst = instance(
            8,
            4,
            vec![
                (0, 0, vec![1]),
                (0, 1, vec![2]), // same src as first => different stage
                (3, 0, vec![1]), // shares target 1 with first => different stage
                (4, 0, vec![5]), // independent => can share stage 0
            ],
        );
        let stages = schedule_stages(&inst);
        assert_ne!(stages[0], stages[1]);
        assert_ne!(stages[0], stages[2]);
        assert_eq!(stages[0], stages[3]);
    }

    /// The counter-based scheduler is the first-fit coloring, stage for
    /// stage — round counts and every golden depending on them are
    /// unchanged.
    #[test]
    fn counter_scheduler_matches_first_fit_oracle() {
        let mut cases: Vec<RoutingInstance> = Vec::new();
        // A √n-wave shape (every node sends s messages, segment-local
        // targets), the workload the scheduler exists for.
        let (n, s) = (16usize, 4usize);
        cases.push(instance(
            n,
            4,
            (0..n)
                .flat_map(|v| (0..s).map(move |j| (v, j, vec![(v / s) * s + j])))
                .collect(),
        ));
        // A conflict chain (a,b),(b,c),(c,d),… that pushes naive counters
        // past the greedy bound.
        cases.push(instance(
            8,
            4,
            (0..7).map(|i| (i, 0, vec![i + 1])).collect(),
        ));
        // Multi-target messages and self-targets.
        cases.push(instance(
            8,
            4,
            vec![
                (0, 0, vec![1, 2, 3]),
                (1, 0, vec![2, 0]),
                (0, 1, vec![0, 4]),
                (5, 0, vec![1]),
                (2, 0, vec![3, 4, 5, 6]),
            ],
        ));
        // Pseudo-random dense instance.
        cases.push(instance(
            12,
            4,
            (0..60)
                .map(|i| (i * 7 % 12, i / 12, vec![(i * 5 + 3) % 12]))
                .collect(),
        ));
        for (case, inst) in cases.iter().enumerate() {
            assert_eq!(
                schedule_stages(inst),
                schedule_stages_dense_oracle(inst),
                "case {case} diverged from the first-fit oracle"
            );
        }
    }

    /// First-fit never exceeds the greedy coloring bound `2·Δ − 1` on
    /// single-target instances.
    #[test]
    fn stage_count_within_greedy_bound() {
        for seed in 0..20usize {
            let n = 8 + seed % 9;
            let msgs: Vec<(usize, usize, Vec<usize>)> = (0..(3 * n))
                .map(|i| {
                    let src = (i * 7 + seed) % n;
                    (src, i / n, vec![(i * 11 + seed * 3 + 1) % n])
                })
                .collect();
            let inst = instance(n, 4, msgs);
            let stages = schedule_stages(&inst);
            let num_stages = stages.iter().map(|&s| s + 1).max().unwrap();
            let delta = inst
                .max_source_multiplicity()
                .max(inst.max_target_multiplicity());
            assert!(
                num_stages < 2 * delta,
                "seed {seed}: {num_stages} stages > 2·{delta} − 1"
            );
        }
    }

    #[test]
    fn fault_free_roundtrip_single_message() {
        let mut net = Network::new(8, 9, 0.0, Adversary::none());
        let inst = instance(8, 12, vec![(2, 0, vec![5, 6])]);
        let out = route(&mut net, &inst, &unit()).unwrap();
        assert_eq!(
            out.delivered[5].get(&(2, 0)),
            Some(&inst.messages[0].payload)
        );
        assert_eq!(
            out.delivered[6].get(&(2, 0)),
            Some(&inst.messages[0].payload)
        );
        assert_eq!(out.report.decode_failures, 0);
        assert_eq!(out.report.rounds, 2); // one stage, one chunk
    }

    #[test]
    fn multi_chunk_payload() {
        let mut net = Network::new(8, 9, 0.0, Adversary::none());
        // capacity per chunk: (7 - 2) symbols * 8 bits = 40 bits (slack 1).
        let inst = instance(8, 100, vec![(0, 0, vec![7])]);
        let out = route(&mut net, &inst, &unit()).unwrap();
        assert_eq!(
            out.delivered[7].get(&(0, 0)),
            Some(&inst.messages[0].payload)
        );
        assert!(out.report.chunks >= 2);
    }

    #[test]
    fn self_target_is_local_and_free() {
        let mut net = Network::new(8, 9, 0.0, Adversary::none());
        let inst = instance(8, 8, vec![(3, 0, vec![3])]);
        let out = route(&mut net, &inst, &unit()).unwrap();
        assert_eq!(
            out.delivered[3].get(&(3, 0)),
            Some(&inst.messages[0].payload)
        );
        assert_eq!(out.report.rounds, 2); // stage still runs (no other msgs needed it, but schedule exists)
    }

    #[test]
    fn bandwidth_lanes_reduce_rounds() {
        // Two independent messages, bandwidth for 2 lanes: 1 round pair.
        let mut wide = Network::new(8, 18, 0.0, Adversary::none());
        let inst = instance(
            8,
            8,
            vec![(0, 0, vec![1]), (0, 1, vec![2])], // same src: 2 stages
        );
        let out = route(&mut wide, &inst, &unit()).unwrap();
        assert_eq!(out.report.rounds, 2, "two stages share one round pair");
        assert_eq!(
            out.delivered[1].get(&(0, 0)),
            Some(&inst.messages[0].payload)
        );
        assert_eq!(
            out.delivered[2].get(&(0, 1)),
            Some(&inst.messages[1].payload)
        );
    }

    #[test]
    fn infeasible_alpha_is_reported() {
        // n = 8, alpha = 0.45: budget 3, e_allow = 7, needs L > 14 > 8.
        let mut net = Network::new(8, 9, 0.45, Adversary::none());
        let inst = instance(8, 8, vec![(0, 0, vec![1])]);
        assert!(matches!(
            route(&mut net, &inst, &unit()),
            Err(CoreError::Infeasible { .. })
        ));
    }

    /// The event-driven executor is bit-identical to the lockstep path on
    /// the unit engine: same outputs, same rounds, same stats, same
    /// corruption history — across single- and multi-pack, multi-chunk,
    /// multi-target, and adversarial instances.
    #[test]
    fn event_driven_matches_lockstep() {
        use bdclique_adversary::adaptive::GreedyLoad;
        use bdclique_adversary::Payload;

        let cases: Vec<(usize, usize, f64, RoutingInstance)> = vec![
            (8, 9, 0.0, instance(8, 12, vec![(2, 0, vec![5, 6])])),
            (8, 9, 0.0, instance(8, 100, vec![(0, 0, vec![7])])),
            (
                8,
                18,
                0.0,
                instance(8, 8, vec![(0, 0, vec![1]), (0, 1, vec![2])]),
            ),
            (
                16,
                18,
                1.2 / 16.0,
                instance(
                    16,
                    40,
                    (0..48)
                        .map(|i| (i % 16, i / 16, vec![(i * 7 + 3) % 16]))
                        .collect(),
                ),
            ),
        ];
        for (case, (n, bw, alpha, inst)) in cases.into_iter().enumerate() {
            let run = |event: bool| {
                let adversary = if alpha > 0.0 {
                    Adversary::adaptive(GreedyLoad::new(Payload::Flip, 0xe0 + case as u64))
                } else {
                    Adversary::none()
                };
                let mut net = Network::new(n, bw, alpha, adversary);
                let cfg = RouterConfig {
                    event_driven: event,
                    ..unit()
                };
                let out = route(&mut net, &inst, &cfg).unwrap();
                let corrupted: Vec<_> = net
                    .history()
                    .records()
                    .iter()
                    .map(|r| (r.round, r.corrupted.clone(), r.frames, r.bits))
                    .collect();
                let stats = *net.stats();
                (out, stats, corrupted)
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
