//! Outside-in benchmark of the headline workloads.
//!
//! Every timing here is taken around a public call into one layer —
//! [`AllToAllInstance::random`] (problem), [`Network::new`] (netsim),
//! [`AllToAllProtocol::session`] / [`ProtocolSession::step`] (protocols),
//! [`RouteSession::new`] / [`RouteSession::step`] (routing) — and adversary
//! time comes from the [`Timed`] decorator around the concrete strategies.
//! Nothing inside the simulator is instrumented, so the untraced run measures
//! exactly the program a user runs.
//!
//! Trials are closed-loop: one trial in flight, lockstep execution
//! (`event_driven: false`), parallel pack encode/decode on the rayon pool,
//! which sizes itself from `available_parallelism`.

use bdclique_adversary::adaptive::GreedyLoad;
use bdclique_adversary::corruptors::PayloadCorruptor;
use bdclique_adversary::plans::RandomMatchings;
use bdclique_adversary::Payload;
use bdclique_bench::{AdversarySpec, TrialSeeds};
use bdclique_bits::BitVec;
use bdclique_core::protocols::{AllToAllProtocol, DetSqrt, NaiveExchange, ProtocolSession, Step};
use bdclique_core::routing::{
    shared_codeword_cache, CodewordCache, EngineUsed, RouteSession, RouterConfig, RoutingInstance,
    RoutingMode, RoutingReport, SuperMessage,
};
use bdclique_core::{AllToAllInstance, CoreError};
use bdclique_netsim::{
    AdaptiveScope, AdaptiveStrategy, Adversary, AdversaryView, CorruptionScope, Corruptor,
    EdgePlan, EdgeSet, NetStats, Network, SeedStream, Topology,
};
use bdclique_snapshot::{Dec, Enc, SnapError};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Bits per all-to-all message.
const B: usize = 1;
/// Edge bandwidth in bits per round.
const BANDWIDTH: usize = 18;
/// `route-cf-4096`: super-messages per source (and, by construction, per
/// target).
pub const CF_K: usize = 4;
/// `route-cf-4096`: payload bits λ per super-message.
const CF_PAYLOAD_BITS: usize = 256;

/// One benchmark workload. See `README.md` for why each was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `DetSqrt` on the unit engine under the adaptive greedy adversary.
    DetSqrtGreedy,
    /// `NaiveExchange`, fault-free: netsim and problem only. Run by hand:
    /// memory-bound, its spread on a shared VM is too wide for the
    /// benchmark's bounds, so `BENCHMARK.json` leaves it out.
    Naive,
    /// A direct cover-free route under random matchings.
    RouteCf,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::DetSqrtGreedy, Workload::Naive, Workload::RouteCf];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DetSqrtGreedy => "detsqrt-1024-greedy",
            Workload::Naive => "naive-4096",
            Workload::RouteCf => "route-cf-4096",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Clique size.
    pub fn n(self) -> usize {
        match self {
            Workload::DetSqrtGreedy => 1024,
            Workload::Naive | Workload::RouteCf => 4096,
        }
    }

    /// The round count every trial must take.
    pub fn rounds(self) -> u64 {
        match self {
            Workload::DetSqrtGreedy => 64,
            Workload::Naive => 1,
            Workload::RouteCf => 2,
        }
    }

    /// Whether the workload runs an all-to-all protocol (rather than a
    /// direct route).
    pub fn is_protocol(self) -> bool {
        self != Workload::RouteCf
    }

    /// α, chosen so that the per-node budget `⌊αn⌋` is 4 under attack.
    pub fn alpha(self) -> f64 {
        match self {
            Workload::Naive => 0.0,
            w => 4.2 / w.n() as f64,
        }
    }

    /// The adversary, as the scenario engine names it.
    fn adversary(self) -> AdversarySpec {
        match self {
            Workload::DetSqrtGreedy => AdversarySpec::GreedyFlip,
            Workload::Naive => AdversarySpec::None,
            Workload::RouteCf => AdversarySpec::RandomMatchingsFlip,
        }
    }

    /// Messages (all-to-all) or (message, target) pairs (route) one trial
    /// must deliver.
    pub fn messages(self) -> u64 {
        let n = self.n() as u64;
        if self.is_protocol() {
            n * n
        } else {
            n * CF_K as u64
        }
    }

    /// Seeds of trial `trial` of run seed `seed`. Trials fork from a stream
    /// keyed by the workload name, so no two workloads share inputs.
    fn trial_seeds(self, seed: u64, trial: u64) -> TrialSeeds {
        TrialSeeds::derive(
            SeedStream::new(seed)
                .fork(self.name())
                .fork_u64(trial)
                .seed(),
        )
    }
}

/// The router every workload uses: lockstep, so the `core::exec` pool never
/// starts; `mode` forces the engine so no feasibility probe runs.
fn router(mode: RoutingMode) -> RouterConfig {
    RouterConfig {
        mode,
        event_driven: false,
        ..Default::default()
    }
}

/// Adversary busy time and call count, shared by the [`Timed`] decorators of
/// one trial.
#[derive(Debug, Clone, Default)]
struct AdversaryClock(Rc<Cell<(Duration, u64)>>);

impl AdversaryClock {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        let (busy, calls) = self.0.get();
        self.0.set((busy + start.elapsed(), calls + 1));
        r
    }

    fn busy(&self) -> Duration {
        self.0.get().0
    }

    fn calls(&self) -> u64 {
        self.0.get().1
    }
}

/// Times every call into the wrapped adversary component; behaviour,
/// randomness and snapshot state are the inner component's.
#[derive(Debug)]
struct Timed<T> {
    inner: T,
    clock: AdversaryClock,
}

impl<T> Timed<T> {
    fn new(inner: T, clock: &AdversaryClock) -> Self {
        Self {
            inner,
            clock: clock.clone(),
        }
    }
}

impl<S: AdaptiveStrategy> AdaptiveStrategy for Timed<S> {
    fn corrupt(&mut self, view: &AdversaryView<'_>, scope: &mut AdaptiveScope<'_>) {
        let inner = &mut self.inner;
        self.clock.time(|| inner.corrupt(view, scope));
    }

    fn save_state(&self, enc: &mut Enc) {
        self.inner.save_state(enc);
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapError> {
        self.inner.load_state(dec)
    }
}

impl<P: EdgePlan> EdgePlan for Timed<P> {
    fn edges(&mut self, round: u64, n: usize, budget: usize) -> EdgeSet {
        let inner = &mut self.inner;
        self.clock.time(|| inner.edges(round, n, budget))
    }

    fn edges_on(&mut self, round: u64, topo: &Topology, alpha: f64) -> EdgeSet {
        let inner = &mut self.inner;
        self.clock.time(|| inner.edges_on(round, topo, alpha))
    }

    fn save_state(&self, enc: &mut Enc) {
        self.inner.save_state(enc);
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapError> {
        self.inner.load_state(dec)
    }
}

impl<C: Corruptor> Corruptor for Timed<C> {
    fn corrupt(
        &mut self,
        view: &AdversaryView<'_>,
        edges: &EdgeSet,
        scope: &mut CorruptionScope<'_>,
    ) {
        let inner = &mut self.inner;
        self.clock.time(|| inner.corrupt(view, edges, scope));
    }

    fn save_state(&self, enc: &mut Enc) {
        self.inner.save_state(enc);
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapError> {
        self.inner.load_state(dec)
    }
}

/// The workload's adversary, seeded from `seed`. Untraced it is
/// [`AdversarySpec::build`] itself; traced, the same strategies are built
/// from the same `plan` / `payload` forks and wrapped in [`Timed`].
fn adversary(workload: Workload, seed: u64, clock: Option<&AdversaryClock>) -> Adversary {
    let spec = workload.adversary();
    let Some(clock) = clock else {
        return spec.build(seed);
    };
    let stream = SeedStream::new(seed);
    let plan_seed = stream.fork("plan").seed();
    let payload_seed = stream.fork("payload").seed();
    match spec {
        AdversarySpec::None => Adversary::none(),
        AdversarySpec::GreedyFlip => {
            Adversary::adaptive(Timed::new(GreedyLoad::new(Payload::Flip, plan_seed), clock))
        }
        AdversarySpec::RandomMatchingsFlip => Adversary::non_adaptive(
            Timed::new(RandomMatchings::new(plan_seed), clock),
            Timed::new(PayloadCorruptor::new(Payload::Flip, payload_seed), clock),
        ),
        other => unreachable!("no workload uses {}", other.key()),
    }
}

/// The `route-cf-4096` instance: source `u` sends [`CF_K`] messages of
/// [`CF_PAYLOAD_BITS`] random bits, message `j` to `π_j(u)` for `CF_K` seeded
/// random permutations `π_j`, so every source and every target has
/// multiplicity exactly `CF_K`.
pub fn routing_instance(n: usize, seed: u64) -> RoutingInstance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let perms: Vec<Vec<usize>> = (0..CF_K)
        .map(|_| {
            let mut p: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                p.swap(i, rng.gen_range(0..=i));
            }
            p
        })
        .collect();
    let messages = (0..n)
        .flat_map(|u| (0..CF_K).map(move |j| (u, j)))
        .map(|(u, j)| SuperMessage {
            src: u,
            slot: j,
            payload: BitVec::from_fn(CF_PAYLOAD_BITS, |_| rng.gen()),
            targets: vec![perms[j][u]],
        })
        .collect();
    RoutingInstance {
        n,
        payload_bits: CF_PAYLOAD_BITS,
        messages,
    }
}

/// What one trial measured and produced.
#[derive(Debug, Clone)]
pub struct TrialRecord {
    /// Instance draw.
    pub instance: Duration,
    /// [`Network::new`].
    pub net_open: Duration,
    /// Protocol session or route session open.
    pub open: Duration,
    /// Each `step()` call, adversary time included.
    pub steps: Vec<Duration>,
    /// Output check.
    pub score: Duration,
    /// Time inside the adversary (traced trials only).
    pub adversary_busy: Duration,
    /// Calls into the adversary (traced trials only).
    pub adversary_calls: u64,
    /// Exact netsim work counts.
    pub stats: NetStats,
    /// Wrong or missing messages, or (message, target) pairs.
    pub errors: usize,
    /// The route's report (`route-cf-4096` only).
    pub report: Option<RoutingReport>,
    /// Codeword cache `(hits, misses)` (traced trials of coding workloads).
    pub cache: Option<(u64, u64)>,
}

impl TrialRecord {
    /// Set-up: instance draw plus network open.
    pub fn setup(&self) -> Duration {
        self.instance + self.net_open
    }

    /// Session open to output.
    pub fn trial(&self) -> Duration {
        self.open + self.steps.iter().sum::<Duration>()
    }

    /// Step time outside the adversary.
    pub fn step_self(&self) -> Duration {
        self.steps
            .iter()
            .sum::<Duration>()
            .saturating_sub(self.adversary_busy)
    }

    /// The per-trial output check.
    ///
    /// # Errors
    ///
    /// Describes the first check that failed.
    pub fn check(&self, workload: Workload) -> Result<(), String> {
        if self.errors != 0 {
            return Err(format!("{} messages wrong or missing", self.errors));
        }
        if self.stats.rounds != workload.rounds() {
            return Err(format!(
                "{} rounds, expected {}",
                self.stats.rounds,
                workload.rounds()
            ));
        }
        match (&self.report, workload.is_protocol()) {
            (None, true) => Ok(()),
            (Some(r), false) if r.engine == EngineUsed::CoverFree && r.decode_failures == 0 => {
                Ok(())
            }
            (report, _) => Err(format!("unexpected routing report {report:?}")),
        }
    }

    /// Everything about the trial that must repeat exactly for one seed.
    pub fn exact_counts(&self) -> impl PartialEq + std::fmt::Debug {
        (
            self.stats,
            self.errors,
            self.report.clone(),
            self.cache,
            self.adversary_calls,
        )
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Runs trial `trial` of `workload` under run seed `seed`. A traced trial
/// wraps the adversary in [`Timed`] and threads a fresh codeword cache
/// through the run to count encodes; both are output-neutral.
///
/// # Errors
///
/// Propagates protocol and routing errors.
pub fn run_trial(
    workload: Workload,
    seed: u64,
    trial: u64,
    traced: bool,
) -> Result<TrialRecord, CoreError> {
    let seeds = workload.trial_seeds(seed, trial);
    let n = workload.n();
    let clock = traced.then(AdversaryClock::default);
    let cache = traced.then(|| shared_codeword_cache(CodewordCache::DEFAULT_MAX_SYMBOLS));
    let open_network = || {
        timed(|| {
            Network::new(
                n,
                BANDWIDTH,
                workload.alpha(),
                adversary(workload, seeds.adversary, clock.as_ref()),
            )
        })
    };
    let mut steps = Vec::with_capacity(workload.rounds() as usize);
    let (net, errors, report, instance, net_open, open, score);
    if workload.is_protocol() {
        let mut rng = ChaCha8Rng::seed_from_u64(seeds.instance);
        let inst;
        (inst, instance) = timed(|| AllToAllInstance::random(n, B, &mut rng));
        let mut network;
        (network, net_open) = open_network();
        let proto: Box<dyn AllToAllProtocol> = match workload {
            Workload::Naive => Box::new(NaiveExchange),
            _ => {
                let mut p = DetSqrt::new(router(RoutingMode::Unit));
                if let Some(cache) = &cache {
                    p.attach_codeword_cache(cache.clone());
                }
                Box::new(p)
            }
        };
        let session: Result<Box<dyn ProtocolSession + '_>, CoreError>;
        (session, open) = timed(|| proto.session(&network, &inst));
        let mut session = session?;
        let out = loop {
            let (step, t) = timed(|| session.step(&mut network));
            steps.push(t);
            if let Step::Done(out) = step? {
                break out;
            }
        };
        drop(session);
        (errors, score) = timed(|| inst.count_errors(&out));
        report = None;
        net = network;
    } else {
        let inst;
        (inst, instance) = timed(|| routing_instance(n, seeds.instance));
        let mut network;
        (network, net_open) = open_network();
        let cfg = router(RoutingMode::CoverFree);
        let owned = inst.clone();
        let session;
        (session, open) = timed(|| match &cache {
            Some(cache) => RouteSession::new_cached(&network, owned, &cfg, cache.clone()),
            None => RouteSession::new(&network, owned, &cfg),
        });
        let mut session = session?;
        let out = loop {
            let (step, t) = timed(|| session.step(&mut network));
            steps.push(t);
            if let Some(out) = step? {
                break out;
            }
        };
        (errors, score) = timed(|| {
            inst.messages
                .iter()
                .flat_map(|m| m.targets.iter().map(move |&t| (m, t)))
                .filter(|&(m, t)| out.delivered[t].get(&(m.src, m.slot)) != Some(&m.payload))
                .count()
        });
        report = Some(out.report);
        net = network;
    }
    Ok(TrialRecord {
        instance,
        net_open,
        open,
        steps,
        score,
        adversary_busy: clock.as_ref().map_or(Duration::ZERO, AdversaryClock::busy),
        adversary_calls: clock.as_ref().map_or(0, AdversaryClock::calls),
        stats: *net.stats(),
        errors,
        report,
        cache: cache.map(|c| c.lock().expect("codeword cache lock poisoned").stats()),
    })
}
