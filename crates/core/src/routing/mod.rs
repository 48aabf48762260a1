//! Resilient super-message routing (Theorem 4.1 / Theorem 1.1).
//!
//! An instance consists of super-messages, each identified by `(src, slot)`
//! with a payload of at most `payload_bits` bits and a target list known to
//! all nodes. One pack pipeline (`pack`) runs the two-round scatter/gather
//! for two plans:
//!
//! * the *scheduled unit-instance* plan (`unit`): messages are greedily
//!   colored into stages so that each stage has per-node source- and
//!   target-multiplicity 1, and every stage scatters one Reed–Solomon
//!   codeword symbol per relay node. Maximal decode margin (`2·⌊αn⌋` errors
//!   against a radius of `(L-k)/2`), round cost `O(stages · chunks)`.
//! * the paper's Section 4.2 *cover-free* plan (`coverfree`): all `k`
//!   messages per node route *simultaneously* through a `(k-1, δ)`-cover-free
//!   family of receiver sets with the `InLoad`/`OutLoad` = 1 filters; overlap
//!   positions become *known erasures* (our erasure-aware refinement of
//!   Lemma 4.6). Round cost `O(chunks)` — constant in `k` — at the price of
//!   a tighter decode margin.
//!
//! [`route`] picks the plan per [`RouterConfig::mode`]; `Auto` uses the
//! cover-free plan whenever its margin validates and falls back to unit
//! scheduling otherwise, which mirrors how the paper trades the two (its
//! constants make the cover-free margin positive only asymptotically; see
//! `DESIGN.md`, substitution 4).

mod coverfree;
mod pack;
mod unit;

use crate::error::CoreError;
use bdclique_bits::BitVec;
use bdclique_codes::{BitCode, ReedSolomon, SymbolCode};
use bdclique_netsim::Network;
use bdclique_snapshot::{Dec, Enc, SnapError};
use pack::PackSession;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// One super-message: `slot` disambiguates multiple messages from the same
/// source (the paper's index `j`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperMessage {
    /// Source node.
    pub src: usize,
    /// Source-local slot `j`.
    pub slot: usize,
    /// Payload (at most the instance's `payload_bits`).
    pub payload: BitVec,
    /// Target nodes (may include `src`; duplicates ignored).
    pub targets: Vec<usize>,
}

/// A routing instance: the global knowledge shared by all nodes (message
/// identities, payload sizes, and target lists — but of course not payload
/// *contents*, which only sources hold).
#[derive(Debug, Clone)]
pub struct RoutingInstance {
    /// Clique size.
    pub n: usize,
    /// Upper bound λ on payload bits (all payloads padded to this on the
    /// wire).
    pub payload_bits: usize,
    /// The super-messages.
    pub messages: Vec<SuperMessage>,
}

impl RoutingInstance {
    /// Validates shape invariants.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidInput`] with a diagnosis.
    pub fn validate(&self) -> Result<(), CoreError> {
        let mut seen = std::collections::HashSet::new();
        for m in &self.messages {
            if m.src >= self.n {
                return Err(CoreError::invalid(format!("src {} out of range", m.src)));
            }
            if m.payload.len() > self.payload_bits {
                return Err(CoreError::invalid(format!(
                    "payload of ({}, {}) has {} bits > λ = {}",
                    m.src,
                    m.slot,
                    m.payload.len(),
                    self.payload_bits
                )));
            }
            if m.targets.is_empty() {
                return Err(CoreError::invalid(format!(
                    "message ({}, {}) has no targets",
                    m.src, m.slot
                )));
            }
            if m.targets.iter().any(|&t| t >= self.n) {
                return Err(CoreError::invalid("target out of range".to_string()));
            }
            if !seen.insert((m.src, m.slot)) {
                return Err(CoreError::invalid(format!(
                    "duplicate message id ({}, {})",
                    m.src, m.slot
                )));
            }
        }
        Ok(())
    }

    /// Maximum number of messages per source node.
    pub fn max_source_multiplicity(&self) -> usize {
        let mut counts = vec![0usize; self.n];
        for m in &self.messages {
            counts[m.src] += 1;
        }
        counts.into_iter().max().unwrap_or(0)
    }

    /// Serializes the instance for checkpointing. Protocol sessions whose
    /// in-flight waves are built from *received* data (not re-derivable
    /// from the problem instance) store the whole wave this way.
    pub(crate) fn snapshot(&self, enc: &mut Enc) {
        enc.put_usize(self.n);
        enc.put_usize(self.payload_bits);
        enc.put_seq(&self.messages, |e, m| {
            e.put_usize(m.src);
            e.put_usize(m.slot);
            e.put_bits(&m.payload);
            e.put_seq(&m.targets, |e, &t| e.put_usize(t));
        });
    }

    /// Decodes an instance written by [`RoutingInstance::snapshot`].
    pub(crate) fn restore(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
        let n = dec.get_usize()?;
        let payload_bits = dec.get_usize()?;
        let messages = dec.get_seq(25, |d| {
            let src = d.get_usize()?;
            let slot = d.get_usize()?;
            let payload = d.get_bits()?;
            let targets = d.get_seq(8, Dec::get_usize)?;
            Ok(SuperMessage {
                src,
                slot,
                payload,
                targets,
            })
        })?;
        Ok(Self {
            n,
            payload_bits,
            messages,
        })
    }

    /// Maximum number of messages targeting any single node.
    pub fn max_target_multiplicity(&self) -> usize {
        let mut counts = vec![0usize; self.n];
        for m in &self.messages {
            let mut uniq: Vec<usize> = m.targets.clone();
            uniq.sort_unstable();
            uniq.dedup();
            for t in uniq {
                counts[t] += 1;
            }
        }
        counts.into_iter().max().unwrap_or(0)
    }
}

/// Which engine to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingMode {
    /// Cover-free when its margin validates, otherwise unit scheduling.
    #[default]
    Auto,
    /// Force the scheduled unit-instance engine.
    Unit,
    /// Force the cover-free engine (error if infeasible).
    CoverFree,
}

/// Router tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterConfig {
    /// Engine selection.
    pub mode: RoutingMode,
    /// Fan the per-pack encode, relay gather, forward planning and decode
    /// out across the rayon thread pool. `false` runs them on one thread:
    /// the bit-identity oracle for the parallel path. Network rounds stay
    /// strictly sequential either way.
    pub parallel: bool,
    /// Run the session on the **event-driven pack executor**: round-A
    /// codeword encoding and frame assembly for upcoming packs run ahead of
    /// the network's virtual clock on the shared worker pool
    /// ([`crate::exec`]), staging finished batches on a
    /// [`bdclique_netsim::MessageBus`] keyed by virtual delivery time, while
    /// round-B erasure decoding drains asynchronously behind it. Exchanges
    /// themselves stay strictly serialized in virtual-round order (the
    /// mobile adversary acts per virtual round), so wire content, stats,
    /// history digests, and outputs are bit-identical to the lockstep path —
    /// property-tested in `tests/event_identity.rs`. Costs one instance
    /// clone on the borrowed-[`route`] path (background tasks need owned
    /// data); [`RouteSession::new`]/[`RouteSession::new_cached`] hand over
    /// ownership and pay nothing.
    pub event_driven: bool,
    /// Bits per Reed–Solomon symbol (field GF(2^m)); the wire slot is one
    /// bit wider (a validity flag).
    pub symbol_bits: u32,
    /// Extra error-correction slack added on top of the `2·⌊αn⌋` worst-case
    /// adversarial symbol corruptions.
    pub extra_error_slack: usize,
    /// Cover-free engine: ground-group size (elements per group); the
    /// receiver-set size is `n / group_size`. `None` picks
    /// `max(4, 8·(k−1))` where `k` is the instance's multiplicity.
    pub cf_group_size: Option<usize>,
    /// Cover-free engine: maximum acceptable verified cover fraction δ.
    pub cf_delta: f64,
    /// Cover-free engine: seed-retry budget for the verified construction.
    pub cf_seed_tries: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            mode: RoutingMode::Auto,
            parallel: true,
            event_driven: false,
            symbol_bits: 8,
            extra_error_slack: 1,
            cf_group_size: None,
            cf_delta: 0.5,
            cf_seed_tries: 64,
        }
    }
}

/// Which engine actually ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineUsed {
    /// Scheduled unit instances.
    Unit,
    /// Cover-free parallel routing.
    CoverFree,
}

/// Execution report for a routing call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingReport {
    /// Engine that ran.
    pub engine: EngineUsed,
    /// Network rounds consumed.
    pub rounds: u64,
    /// Unit engine: number of stages scheduled (1 for cover-free, 0 for
    /// an instance without messages).
    pub stages: usize,
    /// Payload chunks per message.
    pub chunks: usize,
    /// Codeword decodes that failed (0 when the adversary is within the
    /// validated margin).
    pub decode_failures: usize,
}

/// Routing results: `delivered[v]` maps `(src, slot)` to the payload `v`
/// decoded. `BTreeMap` so iteration order is identical on every process —
/// the determinism invariant the no-hashmap-iteration lint enforces.
#[derive(Debug, Clone)]
pub struct RoutingOutput {
    /// Per-node delivered payloads.
    pub delivered: Vec<BTreeMap<(usize, usize), BitVec>>,
    /// Execution report.
    pub report: RoutingReport,
}

/// A routing call in flight: one [`RouteSession::step`] advances exactly one
/// network `exchange`, so callers (protocol sessions, the driver) can observe
/// or intervene between rounds. Engine selection and feasibility validation
/// happen at construction, before any round runs — [`route`] is a thin loop
/// over this type. Codewords are encoded lazily, per pack, optionally
/// through a shared [`CodewordCache`] ([`RouteSession::new_cached`]).
pub struct RouteSession<'i> {
    engine: EngineSession<'i>,
}

enum EngineSession<'i> {
    /// Zero messages on `n` nodes: no feasibility constraint can apply to
    /// an instance that routes nothing, so the output is known up front and
    /// the first step returns it without running a round.
    Empty(usize, Option<RoutingOutput>),
    Unit(PackSession<'i, unit::UnitPlan>),
    CoverFree(PackSession<'i, coverfree::CfPlan>),
}

/// The checks every engine shares, run before any plan is built: instance
/// shape, the complete topology (both plans use every node as a potential
/// relay), the symbol width, and — for a non-empty instance — a bandwidth
/// that fits one wire slot.
fn preflight(
    net: &Network,
    instance: &RoutingInstance,
    cfg: &RouterConfig,
) -> Result<(), CoreError> {
    instance.validate()?;
    if instance.n != net.n() {
        return Err(CoreError::invalid("instance size != network size"));
    }
    if !net.topology().is_complete() {
        return Err(CoreError::infeasible(
            "super-message routing requires the complete topology (K_n): the \
             scatter/gather pattern uses every node as a relay"
                .to_string(),
        ));
    }
    if !(2..=8).contains(&cfg.symbol_bits) {
        return Err(CoreError::invalid("symbol_bits must be in 2..=8"));
    }
    let slot = cfg.symbol_bits as usize + 1;
    if !instance.messages.is_empty() && net.bandwidth() < slot {
        return Err(CoreError::infeasible(format!(
            "bandwidth {} < wire slot {slot} (symbol + validity bit)",
            net.bandwidth()
        )));
    }
    Ok(())
}

impl EngineSession<'_> {
    fn empty(n: usize, cfg: &RouterConfig, finished: bool) -> Self {
        let engine = match cfg.mode {
            RoutingMode::CoverFree => EngineUsed::CoverFree,
            RoutingMode::Auto | RoutingMode::Unit => EngineUsed::Unit,
        };
        let output = RoutingOutput {
            delivered: vec![BTreeMap::new(); n],
            report: RoutingReport {
                engine,
                rounds: 0,
                stages: 0,
                chunks: 0,
                decode_failures: 0,
            },
        };
        EngineSession::Empty(n, (!finished).then_some(output))
    }
}

impl RouteSession<'static> {
    /// Validates the instance and constructs the configured engine's
    /// session. Takes the instance by value — protocol sessions hand over
    /// the waves they build, clone-free.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidInput`] for malformed instances and
    /// [`CoreError::Infeasible`] when no engine's decode margin validates
    /// for the network's α. No rounds run on the error path.
    pub fn new(
        net: &Network,
        instance: RoutingInstance,
        cfg: &RouterConfig,
    ) -> Result<Self, CoreError> {
        Self::with_instance(net, Cow::Owned(instance), cfg, None)
    }

    /// [`RouteSession::new`] with a shared [`CodewordCache`]: chunks whose
    /// codewords are already resident (from an earlier pack or an earlier
    /// session on the same cache — e.g. a previous protocol wave) skip
    /// re-encoding; misses fall back to the lazy per-pack encode path and
    /// populate the cache. Wire behavior and outputs are bit-identical to
    /// the uncached session.
    ///
    /// # Errors
    ///
    /// As [`RouteSession::new`].
    pub fn new_cached(
        net: &Network,
        instance: RoutingInstance,
        cfg: &RouterConfig,
        cache: SharedCodewordCache,
    ) -> Result<Self, CoreError> {
        Self::with_instance(net, Cow::Owned(instance), cfg, Some(cache))
    }
}

impl<'i> RouteSession<'i> {
    /// [`RouteSession::new`] over a borrowed instance — the zero-copy path
    /// behind [`route`] for callers that keep ownership.
    ///
    /// # Errors
    ///
    /// As [`RouteSession::new`].
    pub fn borrowed(
        net: &Network,
        instance: &'i RoutingInstance,
        cfg: &RouterConfig,
    ) -> Result<Self, CoreError> {
        Self::with_instance(net, Cow::Borrowed(instance), cfg, None)
    }

    fn with_instance(
        net: &Network,
        instance: Cow<'i, RoutingInstance>,
        cfg: &RouterConfig,
        cache: Option<SharedCodewordCache>,
    ) -> Result<Self, CoreError> {
        preflight(net, &instance, cfg)?;
        if instance.messages.is_empty() {
            let engine = EngineSession::empty(instance.n, cfg, false);
            return Ok(Self { engine });
        }
        let cover_free = match cfg.mode {
            RoutingMode::Unit => None,
            RoutingMode::CoverFree => Some(coverfree::CfPlan::new(net, &instance, cfg)?),
            // Auto probes the cover-free margin first (all its infeasibility
            // checks live in plan construction, before any round), and falls
            // back to unit scheduling.
            RoutingMode::Auto => match coverfree::CfPlan::new(net, &instance, cfg) {
                Ok(plan) => Some(plan),
                Err(CoreError::Infeasible { .. }) => None,
                Err(e) => return Err(e),
            },
        };
        let engine = match cover_free {
            Some(plan) => {
                EngineSession::CoverFree(PackSession::new(net, instance, cfg, plan, cache))
            }
            None => {
                let plan = unit::UnitPlan::new(net, &instance, cfg)?;
                EngineSession::Unit(PackSession::new(net, instance, cfg, plan, cache))
            }
        };
        Ok(Self { engine })
    }

    /// Advances at most one `exchange`; returns `Some(output)` once the
    /// final round of the instance has run. Stepping a completed session is
    /// an error, not an empty result.
    ///
    /// # Errors
    ///
    /// Propagates engine errors ([`CoreError`]).
    pub fn step(&mut self, net: &mut Network) -> Result<Option<RoutingOutput>, CoreError> {
        match &mut self.engine {
            EngineSession::Empty(_, output) => output
                .take()
                .map(Some)
                .ok_or_else(|| CoreError::invalid("routing session stepped after completion")),
            EngineSession::Unit(s) => s.step(net),
            EngineSession::CoverFree(s) => s.step(net),
        }
    }

    /// Serializes the session's dynamic state (engine discriminant, the
    /// instance, the cursor into the work list, relay holdings, and decoded
    /// chunks), quiescing any in-flight event-path work to the current step
    /// boundary first. The session remains valid; continuing to step it is
    /// bit-identical to never having snapshotted.
    ///
    /// # Errors
    ///
    /// Currently infallible, but returns `Result` so future engines with
    /// non-quiesceable state can decline.
    pub(crate) fn snapshot(&mut self, net: &mut Network, enc: &mut Enc) -> Result<(), CoreError> {
        match &mut self.engine {
            EngineSession::Empty(n, output) => {
                enc.put_u8(2);
                RoutingInstance {
                    n: *n,
                    payload_bits: 0,
                    messages: Vec::new(),
                }
                .snapshot(enc);
                enc.put_bool(output.is_none());
            }
            EngineSession::Unit(s) => {
                enc.put_u8(0);
                s.instance().snapshot(enc);
                s.snapshot_state(net, enc);
            }
            EngineSession::CoverFree(s) => {
                enc.put_u8(1);
                s.instance().snapshot(enc);
                s.snapshot_state(net, enc);
            }
        }
        Ok(())
    }

    /// Reopens a session from state written by [`RouteSession::snapshot`].
    /// The engine recorded in the snapshot is rebuilt directly (no Auto
    /// re-probe, so a borderline margin cannot flip engines across a
    /// restore), its plan re-derived from `cfg` and the decoded instance,
    /// and the dynamic state overlaid.
    ///
    /// # Errors
    ///
    /// [`CoreError`] on corrupt state or when the network's parameters no
    /// longer match the snapshotted session's (e.g. a mid-run α change).
    pub(crate) fn restore(
        net: &Network,
        cfg: &RouterConfig,
        cache: Option<SharedCodewordCache>,
        dec: &mut Dec<'_>,
    ) -> Result<RouteSession<'static>, CoreError> {
        let tag = dec.get_u8()?;
        let instance = RoutingInstance::restore(dec)?;
        preflight(net, &instance, cfg)?;
        let engine = match tag {
            0 => {
                let plan = unit::UnitPlan::new(net, &instance, cfg)?;
                EngineSession::Unit(PackSession::restore(net, instance, cfg, plan, cache, dec)?)
            }
            1 => {
                let plan = coverfree::CfPlan::new(net, &instance, cfg)?;
                EngineSession::CoverFree(PackSession::restore(
                    net, instance, cfg, plan, cache, dec,
                )?)
            }
            2 if instance.messages.is_empty() => {
                EngineSession::empty(instance.n, cfg, dec.get_bool()?)
            }
            t => return Err(CoreError::invalid(format!("snapshot: engine tag {t}"))),
        };
        Ok(RouteSession { engine })
    }
}

/// Routes an instance over the network with the configured engine, running
/// the session to completion. Borrows the instance — no payload copies.
///
/// # Errors
///
/// [`CoreError::InvalidInput`] for malformed instances and
/// [`CoreError::Infeasible`] when no engine's decode margin validates for
/// the network's α.
pub fn route(
    net: &mut Network,
    instance: &RoutingInstance,
    cfg: &RouterConfig,
) -> Result<RoutingOutput, CoreError> {
    let mut session = RouteSession::borrowed(net, instance, cfg)?;
    loop {
        if let Some(out) = session.step(net)? {
            return Ok(out);
        }
    }
}

/// Maps `f` over work units, fanned out across the rayon pool or on one
/// thread, always collecting in input order — the single switch point
/// between the engines' parallel paths and their serial oracles, so the two
/// cannot drift apart (the `compile` / `compile_serial` pattern).
pub(crate) fn map_units<T, U, F>(parallel: bool, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Send + Sync,
{
    use rayon::prelude::*;
    if parallel {
        items.into_par_iter().map(f).collect()
    } else {
        items.into_iter().map(f).collect()
    }
}

/// Adversarial symbols per codeword a session must absorb at the network's
/// *current* fault budget: `2·⌊αn⌋` (one budget's worth per round of the
/// two-round scatter/gather) plus the configured slack. The single
/// definition both engines size their codes from at construction **and**
/// [`check_budget`] re-evaluates on every step — keeping them one function
/// is what makes the mid-session re-validation trustworthy.
pub(crate) fn absorbed_error_budget(net: &Network, slack: usize) -> usize {
    2 * net.fault_budget() + slack
}

/// Decode margins are fixed at session construction from the then-current
/// fault budget; a [`Network::set_alpha`](bdclique_netsim::Network::set_alpha)
/// (e.g. from a scheduled observer) that *raises* the budget mid-session
/// would silently undershoot the decoding radius, so both engines
/// re-validate it before every exchange and refuse to continue once it has
/// grown past the `e_allow` symbols their code absorbs.
pub(crate) fn check_budget(net: &Network, e_allow: usize, slack: usize) -> Result<(), CoreError> {
    let e_now = absorbed_error_budget(net, slack);
    if e_now > e_allow {
        return Err(CoreError::infeasible(format!(
            "fault budget grew mid-session: the code absorbs {e_allow} adversarial symbols \
             per codeword but the current budget implies {e_now}"
        )));
    }
    Ok(())
}

/// A content-addressed cache of Reed–Solomon codewords, shared between
/// routing sessions (e.g. the two waves of
/// [`crate::protocols::DetSqrt`]) via [`SharedCodewordCache`].
///
/// Entries are keyed by an FNV-1a digest of the code's parameters and the
/// chunk's bit content, and every hit re-verifies the stored chunk bits by
/// equality — a hash collision degrades to a miss, never a wrong codeword,
/// so the cache is correctness-neutral by construction (systematic RS
/// encoding is a pure function of the chunk). A symbol budget bounds the
/// footprint: once `max_symbols` codeword symbols are resident, further
/// inserts are dropped (first-in wins — the entries most likely to recur,
/// such as the shared all-zero padding chunk, are inserted earliest).
#[derive(Debug)]
pub struct CodewordCache {
    /// digest → entries; each entry keeps the chunk for hit verification.
    map: HashMap<u64, Vec<(BitVec, Vec<u16>)>>,
    /// Codeword symbols currently resident.
    symbols: usize,
    /// Insertion stops once `symbols` would exceed this.
    max_symbols: usize,
    hits: u64,
    misses: u64,
}

/// A [`CodewordCache`] behind `Arc<Mutex<_>>`, the handle
/// [`RouteSession::new_cached`] accepts so several sessions (protocol
/// waves) can share one cache. Engines take the lock in two short batch
/// sections per pack (probe all, insert all), never inside the parallel
/// encode fan-out.
pub type SharedCodewordCache = Arc<Mutex<CodewordCache>>;

/// Creates a [`SharedCodewordCache`] with the given symbol budget
/// ([`CodewordCache::DEFAULT_MAX_SYMBOLS`] is a sensible default).
pub fn shared_codeword_cache(max_symbols: usize) -> SharedCodewordCache {
    Arc::new(Mutex::new(CodewordCache::new(max_symbols)))
}

impl CodewordCache {
    /// Default symbol budget: 2²¹ symbols ≈ 4 MiB of `u16`s — roughly 8k
    /// cached codewords at the `L = 255` codes the large-`n` scenarios use.
    pub const DEFAULT_MAX_SYMBOLS: usize = 1 << 21;

    /// An empty cache holding at most `max_symbols` codeword symbols.
    pub fn new(max_symbols: usize) -> Self {
        Self {
            map: HashMap::new(),
            symbols: 0,
            max_symbols,
            hits: 0,
            misses: 0,
        }
    }

    /// `(hits, misses)` counters across the cache's lifetime.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Codeword symbols currently resident.
    pub fn resident_symbols(&self) -> usize {
        self.symbols
    }

    /// FNV-1a over the code's identifying parameters and the chunk's bits,
    /// 64 bits at a time (the trailing partial word reads zero-padded,
    /// matching [`BitVec`]'s equality semantics).
    fn digest(code: &ReedSolomon, chunk: &BitVec) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(code.symbol_bits() as u64);
        mix(code.codeword_len() as u64);
        mix(code.message_len() as u64);
        mix(chunk.len() as u64);
        let mut pos = 0;
        while pos < chunk.len() {
            let width = (chunk.len() - pos).min(64) as u32;
            mix(chunk.read_uint(pos, width));
            pos += 64;
        }
        h
    }

    /// Looks up the codeword for `chunk` under `code`, verifying the stored
    /// chunk by equality before returning it.
    pub fn get(&mut self, code: &ReedSolomon, chunk: &BitVec) -> Option<Vec<u16>> {
        let key = Self::digest(code, chunk);
        let hit = self
            .map
            .get(&key)
            .and_then(|entries| entries.iter().find(|(c, _)| c == chunk))
            .map(|(_, cw)| cw.clone());
        if hit.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Inserts a freshly encoded codeword, unless the symbol budget is
    /// exhausted or an equal chunk is already resident.
    pub fn insert(&mut self, code: &ReedSolomon, chunk: BitVec, codeword: Vec<u16>) {
        if self.symbols + codeword.len() > self.max_symbols {
            return;
        }
        let key = Self::digest(code, &chunk);
        let entries = self.map.entry(key).or_default();
        if entries.iter().any(|(c, _)| c == &chunk) {
            return;
        }
        self.symbols += codeword.len();
        entries.push((chunk, codeword));
    }
}

/// Bits `[chunk·cap, (chunk+1)·cap)` of `payload`, zero-padded to `cap` —
/// the chunk both engines encode. Shared so the cache keys and the wire
/// content cannot drift between them.
pub(crate) fn payload_chunk(payload: &BitVec, chunk: usize, cap: usize) -> BitVec {
    let start = chunk * cap;
    let end = ((chunk + 1) * cap).min(payload.len());
    let mut bits = BitVec::zeros(cap);
    if start < payload.len() {
        bits.write_bits(0, &payload.slice(start, end));
    }
    bits
}

/// Encodes `chunks` into codewords, fanned out via [`map_units`]. With a
/// cache, all chunks are probed under one lock acquisition first, only
/// misses are encoded, and fresh codewords are inserted under a second lock
/// — the parallel section never touches the mutex. Encoding is
/// deterministic, so the result is bit-identical with or without the cache,
/// parallel or not.
pub(crate) fn encode_chunks(
    parallel: bool,
    code: &ReedSolomon,
    cache: Option<&SharedCodewordCache>,
    chunks: Vec<BitVec>,
) -> Result<Vec<Vec<u16>>, CoreError> {
    let encode = |bits: &BitVec| {
        code.encode_bits(bits)
            .map_err(|e| CoreError::invalid(format!("encode: {e}")))
    };
    let Some(cache) = cache else {
        return map_units(parallel, chunks, |bits| encode(&bits))
            .into_iter()
            .collect();
    };

    // Probe pass: one lock acquisition for the whole pack.
    let probed: Vec<(BitVec, Option<Vec<u16>>)> = {
        let mut c = cache.lock().expect("codeword cache poisoned");
        chunks
            .into_iter()
            .map(|bits| {
                let hit = c.get(code, &bits);
                (bits, hit)
            })
            .collect()
    };

    // Encode the misses, fanned out; fresh codewords keep their chunk.
    type Encoded = Result<(Vec<u16>, Option<BitVec>), CoreError>;
    let encoded: Vec<Encoded> = map_units(parallel, probed, |(bits, hit)| match hit {
        Some(cw) => Ok((cw, None)),
        None => Ok((encode(&bits)?, Some(bits))),
    });

    let mut out = Vec::with_capacity(encoded.len());
    let mut fresh = Vec::new();
    for unit in encoded {
        let (cw, bits) = unit?;
        if let Some(bits) = bits {
            fresh.push((bits, cw.clone()));
        }
        out.push(cw);
    }
    if !fresh.is_empty() {
        let mut c = cache.lock().expect("codeword cache poisoned");
        for (bits, cw) in fresh {
            c.insert(code, bits, cw);
        }
    }
    Ok(out)
}

/// Per-node delivered payloads: `delivered[v]` maps `(src, slot)` to bits.
pub(crate) type DeliveredMaps = Vec<BTreeMap<(usize, usize), BitVec>>;

/// Serializes per-node delivered payloads in ascending key order — the
/// deterministic encoding both engines' snapshots share. `BTreeMap`
/// iteration is already ascending by key, so the encoding is byte-identical
/// to the sorted `HashMap` encoding it replaces.
pub(crate) fn snapshot_delivered(delivered: &[BTreeMap<(usize, usize), BitVec>], enc: &mut Enc) {
    enc.put_usize(delivered.len());
    for per_node in delivered {
        let entries: Vec<(&(usize, usize), &BitVec)> = per_node.iter().collect();
        enc.put_seq(&entries, |e, ((src, slot), bits)| {
            e.put_usize(*src);
            e.put_usize(*slot);
            e.put_bits(bits);
        });
    }
}

/// Decodes what [`snapshot_delivered`] wrote, rejecting out-of-order keys
/// (which would break byte-identical re-encoding).
pub(crate) fn restore_delivered(dec: &mut Dec<'_>) -> Result<DeliveredMaps, SnapError> {
    let n = dec.get_len(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut last: Option<(usize, usize)> = None;
        let entries = dec.get_seq(24, |d| {
            let src = d.get_usize()?;
            let slot = d.get_usize()?;
            let bits = d.get_bits()?;
            Ok(((src, slot), bits))
        })?;
        let mut map = BTreeMap::new();
        for ((src, slot), bits) in entries {
            if last.is_some_and(|p| p >= (src, slot)) {
                return Err(SnapError::corrupt("delivered entries out of order"));
            }
            last = Some((src, slot));
            map.insert((src, slot), bits);
        }
        out.push(map);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdclique_netsim::{Adversary, Network};

    fn rs_code() -> ReedSolomon {
        ReedSolomon::new(8, 15, 9).unwrap()
    }

    fn chunk(seed: usize, len: usize) -> BitVec {
        BitVec::from_fn(len, |i| (i * 7 + seed).is_multiple_of(3))
    }

    #[test]
    fn codeword_cache_hit_verifies_and_counts() {
        let code = rs_code();
        let mut cache = CodewordCache::new(1 << 16);
        let bits = chunk(1, 72);
        assert!(cache.get(&code, &bits).is_none());
        let cw = code.encode_bits(&bits).unwrap();
        cache.insert(&code, bits.clone(), cw.clone());
        assert_eq!(cache.get(&code, &bits), Some(cw.clone()));
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.resident_symbols(), cw.len());
        // A different chunk of the same length misses.
        assert!(cache.get(&code, &chunk(2, 72)).is_none());
    }

    #[test]
    fn codeword_cache_key_separates_codes() {
        // The same chunk under two different codes must not collide.
        let a = ReedSolomon::new(8, 15, 9).unwrap();
        let b = ReedSolomon::new(8, 20, 9).unwrap();
        let bits = chunk(3, 72);
        let mut cache = CodewordCache::new(1 << 16);
        cache.insert(&a, bits.clone(), a.encode_bits(&bits).unwrap());
        assert!(cache.get(&b, &bits).is_none());
        assert_eq!(cache.get(&a, &bits).unwrap(), a.encode_bits(&bits).unwrap());
    }

    #[test]
    fn codeword_cache_respects_symbol_budget() {
        let code = rs_code();
        let mut cache = CodewordCache::new(20); // room for one 15-symbol codeword
        let first = chunk(1, 72);
        let second = chunk(2, 72);
        cache.insert(&code, first.clone(), code.encode_bits(&first).unwrap());
        cache.insert(&code, second.clone(), code.encode_bits(&second).unwrap());
        assert_eq!(cache.resident_symbols(), 15);
        assert!(cache.get(&code, &first).is_some());
        assert!(cache.get(&code, &second).is_none());
    }

    #[test]
    fn codeword_cache_insert_dedupes_equal_chunks() {
        let code = rs_code();
        let mut cache = CodewordCache::new(1 << 16);
        let bits = chunk(4, 72);
        let cw = code.encode_bits(&bits).unwrap();
        cache.insert(&code, bits.clone(), cw.clone());
        cache.insert(&code, bits.clone(), cw.clone());
        assert_eq!(cache.resident_symbols(), cw.len());
    }

    #[test]
    fn payload_chunk_pads_and_slices() {
        let payload = BitVec::from_fn(10, |i| i % 2 == 0);
        let c0 = payload_chunk(&payload, 0, 8);
        assert_eq!(c0, payload.slice(0, 8));
        let c1 = payload_chunk(&payload, 1, 8);
        assert_eq!(c1.len(), 8);
        assert_eq!(c1.slice(0, 2), payload.slice(8, 10));
        assert_eq!(c1.count_ones(), payload.slice(8, 10).count_ones());
        // Entirely past the payload: all zeros.
        assert_eq!(payload_chunk(&payload, 2, 8), BitVec::zeros(8));
    }

    /// A cached session is bit-identical to an uncached one, and a second
    /// session over the same instance and cache encodes nothing anew.
    #[test]
    fn cached_routing_matches_uncached_and_reuses_codewords() {
        let n = 16;
        let instance = RoutingInstance {
            n,
            payload_bits: 96,
            messages: (0..n)
                .map(|v| SuperMessage {
                    src: v,
                    slot: 0,
                    payload: BitVec::from_fn(96, |i| (i + v) % 5 < 2),
                    targets: vec![(v + 3) % n],
                })
                .collect(),
        };
        let cfg = RouterConfig {
            mode: RoutingMode::Unit,
            ..RouterConfig::default()
        };

        let mut net_plain = Network::new(n, 9, 0.0, Adversary::none());
        let plain = route(&mut net_plain, &instance, &cfg).unwrap();

        let cache = shared_codeword_cache(CodewordCache::DEFAULT_MAX_SYMBOLS);
        let run_cached = |cache: &SharedCodewordCache| {
            let mut net = Network::new(n, 9, 0.0, Adversary::none());
            let mut session =
                RouteSession::new_cached(&net, instance.clone(), &cfg, cache.clone()).unwrap();
            loop {
                if let Some(out) = session.step(&mut net).unwrap() {
                    return out;
                }
            }
        };

        let first = run_cached(&cache);
        assert_eq!(first.delivered.len(), plain.delivered.len());
        for (a, b) in first.delivered.iter().zip(plain.delivered.iter()) {
            assert_eq!(a, b);
        }
        let (hits_after_first, misses_after_first) = cache.lock().unwrap().stats();
        assert_eq!(hits_after_first, 0, "first run sees a cold cache");
        assert!(misses_after_first > 0);

        let second = run_cached(&cache);
        for (a, b) in second.delivered.iter().zip(plain.delivered.iter()) {
            assert_eq!(a, b);
        }
        let (hits, misses) = cache.lock().unwrap().stats();
        assert_eq!(
            misses, misses_after_first,
            "second identical run must not encode anything anew"
        );
        assert_eq!(hits, misses_after_first, "every probe of run 2 hits");
    }

    /// Both routed engines address every node as a relay, so a sparse
    /// topology is rejected as infeasible before any round runs.
    #[test]
    fn sparse_topology_is_infeasible_for_routing() {
        use bdclique_netsim::Topology;
        let instance = RoutingInstance {
            n: 8,
            payload_bits: 8,
            messages: vec![SuperMessage {
                src: 0,
                slot: 0,
                payload: BitVec::from_fn(8, |i| i % 2 == 0),
                targets: vec![3],
            }],
        };
        for mode in [RoutingMode::Auto, RoutingMode::Unit, RoutingMode::CoverFree] {
            let mut net = Network::on_topology(Topology::ring(8), 9, 0.0, Adversary::none());
            let cfg = RouterConfig {
                mode,
                ..RouterConfig::default()
            };
            assert!(
                matches!(
                    route(&mut net, &instance, &cfg),
                    Err(CoreError::Infeasible { .. })
                ),
                "{mode:?} must refuse a sparse topology"
            );
            assert_eq!(net.rounds(), 0, "no round may run on the error path");
        }
    }

    /// The cover-free engine's lazy per-pack encode path with a shared cache
    /// is bit-identical to the plain run as well.
    #[test]
    fn cached_coverfree_matches_uncached() {
        let n = 64;
        let instance = RoutingInstance {
            n,
            payload_bits: 16,
            messages: (0..n)
                .flat_map(|u| {
                    (0..2).map(move |j| SuperMessage {
                        src: u,
                        slot: j,
                        payload: BitVec::from_fn(16, |i| (i * 7 + u + 3 * j) % 5 < 2),
                        targets: vec![(u + j + 1) % n],
                    })
                })
                .collect(),
        };
        let cfg = RouterConfig {
            mode: RoutingMode::CoverFree,
            ..RouterConfig::default()
        };
        let mut net_plain = Network::new(n, 9, 0.0, Adversary::none());
        let plain = route(&mut net_plain, &instance, &cfg).unwrap();

        let cache = shared_codeword_cache(CodewordCache::DEFAULT_MAX_SYMBOLS);
        let mut net = Network::new(n, 9, 0.0, Adversary::none());
        let mut session =
            RouteSession::new_cached(&net, instance.clone(), &cfg, cache.clone()).unwrap();
        let cached = loop {
            if let Some(out) = session.step(&mut net).unwrap() {
                break out;
            }
        };
        for (a, b) in cached.delivered.iter().zip(plain.delivered.iter()) {
            assert_eq!(a, b);
        }
        let (_, misses) = cache.lock().unwrap().stats();
        assert!(misses > 0, "the lazy path must have probed the cache");
    }

    /// A session snapshotted after round A (step 1) or after round B
    /// (step 2) and restored onto the same network finishes with the
    /// output, stats and report of an uninterrupted run — on both plans,
    /// lockstep and event-driven, under attack.
    #[test]
    fn snapshot_restore_at_both_step_boundaries() {
        use bdclique_adversary::adaptive::GreedyLoad;
        use bdclique_adversary::Payload;
        let n = 128;
        let instance = RoutingInstance {
            n,
            payload_bits: 200,
            messages: (0..n)
                .flat_map(|u| (0..2).map(move |j| (u, j)))
                .map(|(u, j)| SuperMessage {
                    src: u,
                    slot: j,
                    payload: BitVec::from_fn(200, |i| (i * 3 + u + j) % 7 < 3),
                    targets: vec![(u + 9 * j + 1) % n],
                })
                .collect(),
        };
        for mode in [RoutingMode::Unit, RoutingMode::CoverFree] {
            for event_driven in [false, true] {
                let cfg = RouterConfig {
                    mode,
                    event_driven,
                    ..RouterConfig::default()
                };
                let run = |stop: Option<usize>| {
                    let adversary = Adversary::adaptive(GreedyLoad::new(Payload::Flip, 7));
                    let mut net = Network::new(n, 9, 1.2 / n as f64, adversary);
                    let mut session = RouteSession::borrowed(&net, &instance, &cfg).unwrap();
                    for step in 0.. {
                        if Some(step) == stop {
                            let mut enc = Enc::new();
                            session.snapshot(&mut net, &mut enc).unwrap();
                            let bytes = enc.into_bytes();
                            let mut dec = Dec::new(&bytes);
                            session = RouteSession::restore(&net, &cfg, None, &mut dec).unwrap();
                            dec.finish().unwrap();
                        }
                        if let Some(out) = session.step(&mut net).unwrap() {
                            return (out.delivered, out.report, *net.stats());
                        }
                    }
                    unreachable!()
                };
                let whole = run(None);
                assert!(whole.1.rounds > 2, "{mode:?}: more than one pack");
                assert_eq!(whole.1.decode_failures, 0, "{mode:?}");
                for stop in [1, 2] {
                    assert_eq!(
                        run(Some(stop)),
                        whole,
                        "{mode:?}, event_driven {event_driven}: restored after step {stop}"
                    );
                }
            }
        }
    }
}
