//! The one pack pipeline behind both Theorem 4.1 engines.
//!
//! Both engines run the same two-round scatter/gather per *pack*: round A,
//! every source sends one Reed–Solomon symbol per codeword position to that
//! position's relay; round B, every relay forwards what it holds to the
//! message's targets, which decode with suppressed frames as erasures. They
//! differ only in the [`PackPlan`]: which relay carries which position of
//! which message, which positions are known erasures, and the work list.
//! [`PackSession`] runs everything else exactly once — lazy encode, frame
//! build, gather, forward, decode, fold, the event path, snapshot/restore
//! and finish.
//!
//! A pack is `lanes` consecutive work items, one per wire lane; each item
//! names its active messages and the payload chunk they route. Per pack the
//! session lays the items out flat, lane-major: *entry* `e` is one
//! (lane, message) pair, its codeword is `codewords[e]`, and after round A
//! its relays' holdings are `held[e·L + pos]`.
//!
//! # Determinism and parallelism
//!
//! Round-A encode, the relay gather, round-B forward planning and the
//! decode fan out via [`map_units`] ([`RouterConfig::parallel`]); network
//! exchanges stay strictly sequential. Frames are materialized in ascending
//! `(from, to)` order without a sort over frames: round-A sources are
//! grouped once and their ascending relay lists merged, round-B forwards
//! are bucketed by relay with a counting sort. Decoded chunks fold into a
//! keyed store, so fold order never matters and `parallel: false` is a
//! bit-identical oracle.
//!
//! # Event-driven pack execution
//!
//! With [`RouterConfig::event_driven`] the lockstep "one pack at a time"
//! barrier is broken while the *virtual* round structure stays intact.
//! Every pack `p` owns two virtual rounds (`rounds_before + 2p` for the
//! scatter, `+ 2p + 1` for the forward); the session:
//!
//! * **prefetches round A** — codeword encoding and frame assembly for
//!   upcoming packs run as [`crate::exec`] jobs ahead of the clock, each
//!   producing an arena-free [`Traffic`] batch that is posted onto a
//!   [`MessageBus`] tagged with its virtual delivery time and drained only
//!   when the network clock reaches it;
//! * **decodes round B asynchronously** — the delivered frames of a
//!   finished pack move into a background decode job whose results fold
//!   into the chunk store later (bounded in-flight window, fully drained
//!   before output assembly).
//!
//! Exchanges — the only part the mobile adversary observes — stay strictly
//! serialized in virtual-round order, and frames are built by the same
//! function with the same contents, so wire behavior, stats, history
//! digests, and outputs are bit-identical to the lockstep path
//! (`tests/event_identity.rs` pins this across the protocol matrix).

use super::{
    absorbed_error_budget, check_budget, encode_chunks, map_units, payload_chunk, DeliveredMaps,
    EngineUsed, RouterConfig, RoutingInstance, RoutingOutput, RoutingReport, SharedCodewordCache,
};
use crate::error::CoreError;
use crate::exec::{self, Job};
use bdclique_bits::BitVec;
use bdclique_codes::{BitCode, ReedSolomon};
use bdclique_netsim::{Delivery, FramePool, MessageBus, Network, Traffic};
use bdclique_snapshot::{Dec, Enc};
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Code and wire parameters of a plan.
pub(crate) struct PackCode {
    pub(crate) code: ReedSolomon,
    /// Codeword length: positions (and relays) per message.
    pub(crate) l: usize,
    symbol_bits: u32,
    /// Wire slot width: symbol + validity bit.
    slot: usize,
    /// Parallel lanes per round pair.
    pub(crate) lanes: usize,
    /// Payload bits per chunk.
    cap_bits: usize,
    /// Chunks per message.
    pub(crate) chunks: usize,
    /// Adversarial symbols per codeword the code absorbs (`2·⌊αn⌋ + slack`
    /// at construction), re-validated every step by [`check_budget`].
    e_allow: usize,
}

impl PackCode {
    /// Sizes a length-`l` code that absorbs the network's current
    /// adversarial budget plus `erasures` known erasures per codeword, with
    /// the largest message length left over.
    pub(crate) fn new(
        net: &Network,
        cfg: &RouterConfig,
        payload_bits: usize,
        l: usize,
        erasures: usize,
    ) -> Result<Self, CoreError> {
        let m = cfg.symbol_bits;
        let e_allow = absorbed_error_budget(net, cfg.extra_error_slack);
        if l <= 2 * e_allow + erasures {
            return Err(CoreError::infeasible(format!(
                "{l} codeword positions cannot absorb 2·{e_allow} adversarial symbols \
                 + {erasures} known erasures"
            )));
        }
        let k_rs = l - 2 * e_allow - erasures;
        let code = ReedSolomon::new(m, l, k_rs)
            .map_err(|e| CoreError::infeasible(format!("RS construction: {e}")))?;
        let slot = m as usize + 1;
        let cap_bits = k_rs * m as usize;
        Ok(Self {
            code,
            l,
            symbol_bits: m,
            slot,
            lanes: (net.bandwidth() / slot).max(1),
            cap_bits,
            chunks: payload_bits.div_ceil(cap_bits).max(1),
            e_allow,
        })
    }

    /// Writes a valid symbol into lane `lane`'s slot of `frame`.
    fn write(&self, frame: &mut BitVec, lane: usize, sym: u16) {
        frame.set(lane * self.slot, true);
        frame.write_uint(lane * self.slot + 1, self.symbol_bits, u64::from(sym));
    }

    /// Lane `lane`'s symbol in `frame`, `None` when the frame is too short
    /// or its validity bit is clear.
    fn read(&self, frame: &BitVec, lane: usize) -> Option<u16> {
        (frame.len() >= (lane + 1) * self.slot && frame.get(lane * self.slot))
            .then(|| frame.read_uint(lane * self.slot + 1, self.symbol_bits) as u16)
    }
}

/// Everything that distinguishes one Theorem 4.1 engine from another.
pub(crate) trait PackPlan: Send + Sync + 'static {
    /// The engine this plan implements, for the report.
    const ENGINE: EngineUsed;
    /// Code and wire parameters.
    fn code(&self) -> &PackCode;
    /// Stages scheduled, for the report.
    fn stages(&self) -> usize;
    /// Every message's distinct targets.
    fn targets(&self) -> &Targets;
    /// Work items; a pack runs `lanes` consecutive items, one per lane.
    fn work_len(&self) -> usize;
    /// Work item `i`: its active message indices and its chunk.
    fn item(&self, i: usize) -> (&[u32], usize);
    /// The relay node of codeword position `pos` of message `idx`. Strictly
    /// ascending in `pos` over scattered positions, which is what lets
    /// round A emit a source's frames in relay order by merging.
    fn relay(&self, idx: usize, pos: usize) -> usize;
    /// Whether the source scatters position `pos` at all (`false` is a
    /// known erasure at every target).
    fn scattered(&self, idx: usize, pos: usize) -> bool;
    /// Whether the relay of scattered position `pos` forwards it to target
    /// `v` (`false` is a known erasure at `v`).
    fn forwarded(&self, idx: usize, pos: usize, v: usize) -> bool;
}

/// Relay-grid sentinel for "relay holds nothing here" (a downstream
/// erasure); valid symbols are field elements `< 2^8`.
const ABSENT: u16 = u16::MAX;

/// What one round-A build produces: the pack's codewords (one per entry)
/// and its fully assembled traffic.
type EncodeResult = Result<(Vec<Vec<u16>>, Traffic), CoreError>;

/// One decoded unit: `((target, msg_idx, chunk), bits, decode_failed)`.
type Decoded = ((usize, usize, usize), BitVec, bool);

/// The distinct targets of every message, ascending, flattened: message
/// `idx` owns rows `off[idx]..off[idx + 1]` of `list`.
pub(crate) struct Targets {
    list: Vec<u32>,
    off: Vec<usize>,
}

impl Targets {
    pub(crate) fn new(instance: &RoutingInstance) -> Self {
        let mut list = Vec::new();
        let mut off = vec![0];
        for msg in &instance.messages {
            let mut uniq: Vec<u32> = msg.targets.iter().map(|&t| t as u32).collect();
            uniq.sort_unstable();
            uniq.dedup();
            list.extend(uniq);
            off.push(list.len());
        }
        Self { list, off }
    }

    /// Rows over all messages.
    pub(crate) fn total(&self) -> usize {
        self.list.len()
    }

    /// The rows of message `idx`.
    pub(crate) fn rows(&self, idx: usize) -> std::ops::Range<usize> {
        self.off[idx]..self.off[idx + 1]
    }

    /// The distinct targets of message `idx`, ascending.
    pub(crate) fn of(&self, idx: usize) -> impl Iterator<Item = usize> + '_ {
        self.list[self.rows(idx)].iter().map(|&t| t as usize)
    }

    /// The row of target `v` of message `idx`, if `v` is one.
    pub(crate) fn row(&self, idx: usize, v: usize) -> Option<usize> {
        let rows = self.rows(idx);
        let i = self.list[rows.clone()].binary_search(&(v as u32)).ok()?;
        Some(rows.start + i)
    }
}

/// One pack laid out flat, lane-major, with what its builders read: entry
/// `e` is message `entries[e].1` in lane `entries[e].0`; `chunks[lane]` is
/// the lane's payload chunk.
struct Pack<'a, P> {
    instance: &'a RoutingInstance,
    plan: &'a P,
    parallel: bool,
    entries: Vec<(u32, u32)>,
    chunks: Vec<usize>,
}

impl<'a, P: PackPlan> Pack<'a, P> {
    fn new(instance: &'a RoutingInstance, plan: &'a P, parallel: bool, start: usize) -> Self {
        let end = (start + plan.code().lanes).min(plan.work_len());
        let mut entries = Vec::new();
        let mut chunks = Vec::with_capacity(end - start);
        for (lane, i) in (start..end).enumerate() {
            let (msgs, chunk) = plan.item(i);
            entries.extend(msgs.iter().map(|&idx| (lane as u32, idx)));
            chunks.push(chunk);
        }
        Self {
            instance,
            plan,
            parallel,
            entries,
            chunks,
        }
    }

    /// `(lane, message index)` of entry `e`.
    fn entry(&self, e: usize) -> (usize, usize) {
        let (lane, idx) = self.entries[e];
        (lane as usize, idx as usize)
    }

    /// Encodes the pack's codewords and materializes its round-A traffic in
    /// ascending `(src, relay)` order. The single builder behind both the
    /// lockstep path (frames drawn from the network arena) and the
    /// event-mode prefetch jobs (pooled zeroed buffers) — a zeroed arena
    /// buffer and `BitVec::zeros` are indistinguishable on the wire.
    fn round_a(
        &self,
        cache: Option<&SharedCodewordCache>,
        mut traffic: Traffic,
        mut frame_buffer: impl FnMut(usize) -> BitVec,
    ) -> EncodeResult {
        let (c, plan, messages) = (self.plan.code(), self.plan, &self.instance.messages);
        let chunks = (0..self.entries.len())
            .map(|e| {
                let (lane, idx) = self.entry(e);
                payload_chunk(&messages[idx].payload, self.chunks[lane], c.cap_bits)
            })
            .collect();
        let codewords = encode_chunks(self.parallel, &c.code, cache, chunks)?;

        // A frame (src, w) carries one slot per lane in which `src` scatters
        // to `w`. Every entry's relays ascend with the position, so merging
        // the entries of one source yields its frames in relay order.
        let mut by_src: Vec<(u32, u32)> = (0..self.entries.len())
            .map(|e| (messages[self.entry(e).1].src as u32, e as u32))
            .collect();
        by_src.sort_unstable();
        let mut cursors: Vec<(usize, usize)> = Vec::new(); // (entry, next pos)
        for group in by_src.chunk_by(|a, b| a.0 == b.0) {
            let src = group[0].0 as usize;
            cursors.clear();
            cursors.extend(group.iter().map(|&(_, e)| (e as usize, 0)));
            loop {
                let mut w = usize::MAX;
                for (e, pos) in cursors.iter_mut() {
                    let idx = self.entry(*e).1;
                    while *pos < c.l && !plan.scattered(idx, *pos) {
                        *pos += 1;
                    }
                    if *pos < c.l {
                        w = w.min(plan.relay(idx, *pos));
                    }
                }
                if w == usize::MAX {
                    break;
                }
                // The source keeps its own symbol: no frame to itself.
                let mut frame = (w != src).then(|| frame_buffer(c.lanes * c.slot));
                for (e, pos) in cursors.iter_mut() {
                    let (lane, idx) = self.entry(*e);
                    if *pos < c.l && plan.relay(idx, *pos) == w {
                        if let Some(frame) = &mut frame {
                            c.write(frame, lane, codewords[*e][*pos]);
                        }
                        *pos += 1;
                    }
                }
                if let Some(frame) = frame {
                    traffic.send(src, w, frame);
                }
            }
        }
        Ok((codewords, traffic))
    }

    /// The relay grid after round A: `held[e·L + pos]` is what the relay of
    /// entry `e`'s position `pos` holds — its own-source symbol, the symbol
    /// its inbox carried, or [`ABSENT`]. Entries are independent and fan
    /// out.
    fn gather(&self, codewords: &[Vec<u16>], delivery: &Delivery) -> Vec<u16> {
        let c = self.plan.code();
        let entries = (0..self.entries.len()).collect();
        let rows: Vec<Vec<u16>> = map_units(self.parallel, entries, |e| {
            let (lane, idx) = self.entry(e);
            let src = self.instance.messages[idx].src;
            (0..c.l)
                .map(|pos| match self.plan.relay(idx, pos) {
                    _ if !self.plan.scattered(idx, pos) => None,
                    w if w == src => Some(codewords[e][pos]),
                    w => delivery.received(w, src).and_then(|f| c.read(f, lane)),
                })
                .map(|sym| sym.unwrap_or(ABSENT))
                .collect()
        });
        rows.concat()
    }

    /// Round-B traffic: every relay forwards what it holds to each target
    /// the plan lets it reach, one frame per `(relay, target)` with a slot
    /// per lane, in ascending `(relay, target)` order. A forward frame is
    /// sent even when the relay holds nothing (validity bit clear) — wire
    /// behavior the adversary model and the goldens observe.
    fn round_b(&self, held: &[u16], net: &mut Network) -> Traffic {
        let (c, plan, n) = (self.plan.code(), self.plan, self.instance.n);
        // Bucket the pack's scattered positions by relay (a counting sort):
        // `at[start[w]..start[w + 1]]` lists the `e·L + pos` relay `w` holds.
        let scattered = || {
            self.entries
                .iter()
                .enumerate()
                .flat_map(move |(e, &(_, idx))| {
                    let idx = idx as usize;
                    (0..c.l)
                        .filter(move |&pos| plan.scattered(idx, pos))
                        .map(move |pos| (plan.relay(idx, pos), e * c.l + pos))
                })
        };
        let mut start = vec![0usize; n + 1];
        for (w, _) in scattered() {
            start[w + 1] += 1;
        }
        for w in 0..n {
            start[w + 1] += start[w];
        }
        let mut at = vec![0u32; start[n]];
        let mut fill = start.clone();
        for (w, g) in scattered() {
            at[fill[w]] = g as u32;
            fill[w] += 1;
        }

        // Each relay's forwards `(target, lane, symbol)`, sorted by target.
        // Within one lane a target hears from a relay for at most one
        // message (stage coloring / the OutLoad = 1 filter), so slots never
        // collide.
        let relays: Vec<usize> = (0..n).filter(|&w| start[w] < start[w + 1]).collect();
        let forwards: Vec<Vec<(u32, u32, u16)>> = map_units(self.parallel, relays.clone(), |w| {
            let mut out = Vec::new();
            for &g in &at[start[w]..start[w + 1]] {
                let (e, pos) = (g as usize / c.l, g as usize % c.l);
                let (lane, idx) = self.entry(e);
                for v in plan.targets().of(idx) {
                    if v != w && plan.forwarded(idx, pos, v) {
                        out.push((v as u32, lane as u32, held[g as usize]));
                    }
                }
            }
            out.sort_unstable();
            out
        });

        let mut traffic = net.traffic();
        for (&w, out) in relays.iter().zip(&forwards) {
            for group in out.chunk_by(|a, b| a.0 == b.0) {
                let mut frame = net.frame_buffer(c.lanes * c.slot);
                for &(_, lane, sym) in group.iter().filter(|f| f.2 != ABSENT) {
                    c.write(&mut frame, lane as usize, sym);
                }
                traffic.send(w, group[0].0 as usize, frame);
            }
        }
        traffic
    }

    /// Decodes the pack at its targets, one unit per `(entry, target)`,
    /// fanned out via [`map_units`]. Shared by the lockstep path (decode
    /// right after the exchange) and the event-mode background jobs;
    /// results are keyed `(target, msg_idx, chunk)` so folding is
    /// order-independent.
    fn decode(&self, held: &[u16], delivery: &Delivery) -> Vec<Decoded> {
        let (c, plan) = (self.plan.code(), self.plan);
        let mut units: Vec<(usize, usize)> = Vec::new(); // (entry, target)
        for e in 0..self.entries.len() {
            let idx = self.entry(e).1;
            let src = self.instance.messages[idx].src;
            units.extend(plan.targets().of(idx).filter(|&v| v != src).map(|v| (e, v)));
        }
        map_units(self.parallel, units, |(e, v)| {
            let (lane, idx) = self.entry(e);
            let mut received = vec![0u16; c.l];
            let mut erasures = vec![false; c.l];
            for pos in 0..c.l {
                let sym = match plan.relay(idx, pos) {
                    // Known filter erasures.
                    _ if !plan.scattered(idx, pos) || !plan.forwarded(idx, pos, v) => None,
                    w if w == v => Some(held[e * c.l + pos]).filter(|&s| s != ABSENT),
                    w => delivery.received(v, w).and_then(|f| c.read(f, lane)),
                };
                match sym {
                    Some(sym) => received[pos] = sym,
                    None => erasures[pos] = true,
                }
            }
            let key = (v, idx, self.chunks[lane]);
            match c.code.decode_bits(&received, &erasures, c.cap_bits) {
                Ok(bits) => (key, bits, false),
                Err(_) => (key, BitVec::zeros(c.cap_bits), true),
            }
        })
    }
}

/// An engine's instance handle: borrowed (the zero-copy [`super::route`]
/// path) or behind an `Arc` so event-driven background jobs can hold the
/// instance across packs. Owned instances move behind the `Arc` for free; a
/// borrowed instance is cloned only when event mode needs owned data.
enum Inst<'i> {
    Borrowed(&'i RoutingInstance),
    Shared(Arc<RoutingInstance>),
}

impl std::ops::Deref for Inst<'_> {
    type Target = RoutingInstance;

    fn deref(&self) -> &RoutingInstance {
        match self {
            Inst::Borrowed(i) => i,
            Inst::Shared(i) => i,
        }
    }
}

impl Inst<'_> {
    fn shared(&self) -> Arc<RoutingInstance> {
        match self {
            Inst::Shared(i) => i.clone(),
            Inst::Borrowed(_) => unreachable!("event mode always holds a shared instance"),
        }
    }
}

/// What one background decode job produces: the decoded units plus the
/// consumed delivery, handed back for main-thread arena reclaim.
type DecodeBatch = (Vec<Decoded>, Delivery);

/// How many round-A packs are encoded ahead of the virtual clock. Two keeps
/// one batch always cooking while the current one is on the wire, without
/// pinning more than one spare traffic matrix.
const PREFETCH_PACKS: usize = 2;

/// Decode jobs allowed in flight before the oldest is folded; bounds how
/// many deliveries a session keeps alive at once.
const DECODES_IN_FLIGHT: usize = 2;

/// Per-session event-executor state (see the module docs).
struct EventState {
    /// Staging area for prefetched round-A batches, keyed by virtual time.
    bus: MessageBus,
    /// `(pack_start, job)` for dispatched round-A prefetches, pack order.
    encodes: VecDeque<(usize, Job<EncodeResult>)>,
    /// Frontier of dispatched prefetches (next `pack_start` to hand out).
    next_dispatch: usize,
    /// In-flight decode jobs, pack order.
    decodes: VecDeque<Job<DecodeBatch>>,
    /// Network shape for building arena-free traffic off-thread.
    n: usize,
    bandwidth: usize,
    /// `Sync` free-list of frame buffers shared with the prefetch jobs (the
    /// network's arena is not `Sync`); delivered frames recycle into later
    /// prefetches.
    pool: Arc<FramePool>,
}

/// A Theorem 4.1 route as a resumable session over plan `P`: every
/// [`PackSession::step`] executes exactly one `exchange` (round A or round B
/// of the current pack); the step that completes the final pack also
/// assembles the output.
pub(crate) struct PackSession<'i, P> {
    /// Borrowed for the zero-copy [`super::route`] path, shared when a
    /// protocol session hands a wave over (or event mode needs owned data).
    instance: Inst<'i>,
    plan: Arc<P>,
    /// Fan per-pack work out over rayon ([`RouterConfig::parallel`]).
    parallel: bool,
    /// Optional shared codeword cache ([`super::RouteSession::new_cached`]).
    cache: Option<SharedCodewordCache>,
    extra_error_slack: usize,
    /// Start of the current pack within the plan's work list.
    pack_start: usize,
    /// The relay grid between round A and round B of the current pack
    /// (`None`: round A runs next).
    held: Option<Vec<u16>>,
    /// Decoded chunks per (target, msg_idx); ordered so output assembly
    /// never iterates a hash map.
    chunk_store: BTreeMap<(usize, usize), Vec<BitVec>>,
    delivered: DeliveredMaps,
    decode_failures: usize,
    rounds_before: u64,
    /// Set once the output has been assembled; stepping again is an error
    /// (the drained state could otherwise masquerade as an empty result).
    finished: bool,
    /// `Some` when running on the event-driven pack executor.
    event: Option<EventState>,
}

impl<'i, P: PackPlan> PackSession<'i, P> {
    /// Opens a session over a feasible plan. No rounds run until the first
    /// [`PackSession::step`]; codewords are encoded lazily, per pack.
    pub(crate) fn new(
        net: &Network,
        instance: Cow<'i, RoutingInstance>,
        cfg: &RouterConfig,
        plan: P,
        cache: Option<SharedCodewordCache>,
    ) -> Self {
        let mut delivered: DeliveredMaps = vec![BTreeMap::new(); instance.n];
        // Local deliveries (target == src) never touch the network.
        for msg in &instance.messages {
            if msg.targets.contains(&msg.src) {
                delivered[msg.src].insert((msg.src, msg.slot), msg.payload.clone());
            }
        }
        let instance = match instance {
            Cow::Owned(i) => Inst::Shared(Arc::new(i)),
            Cow::Borrowed(i) if cfg.event_driven => Inst::Shared(Arc::new(i.clone())),
            Cow::Borrowed(i) => Inst::Borrowed(i),
        };
        Self {
            instance,
            plan: Arc::new(plan),
            parallel: cfg.parallel,
            cache,
            extra_error_slack: cfg.extra_error_slack,
            pack_start: 0,
            held: None,
            chunk_store: BTreeMap::new(),
            delivered,
            decode_failures: 0,
            rounds_before: net.rounds(),
            finished: false,
            event: cfg.event_driven.then(|| EventState {
                bus: MessageBus::new(),
                encodes: VecDeque::new(),
                next_dispatch: 0,
                decodes: VecDeque::new(),
                n: net.n(),
                bandwidth: net.bandwidth(),
                pool: Arc::new(FramePool::new()),
            }),
        }
    }

    /// The session's instance, for [`super::RouteSession::snapshot`].
    pub(crate) fn instance(&self) -> &RoutingInstance {
        &self.instance
    }

    /// Dispatches round-A prefetch jobs until [`PREFETCH_PACKS`] are in
    /// flight (or the work list is exhausted).
    fn dispatch_prefetch(&mut self) {
        let Some(ev) = &mut self.event else { return };
        while ev.encodes.len() < PREFETCH_PACKS && ev.next_dispatch < self.plan.work_len() {
            let pack_start = ev.next_dispatch;
            ev.next_dispatch += self.plan.code().lanes;
            let instance = self.instance.shared();
            let plan = self.plan.clone();
            let cache = self.cache.clone();
            let parallel = self.parallel;
            let (n, bandwidth) = (ev.n, ev.bandwidth);
            let pool = ev.pool.clone();
            let job = exec::spawn(move || {
                // Pooled buffers are zeroed, so indistinguishable from
                // `BitVec::zeros`; the taker batches the lock traffic.
                let mut taker = pool.taker();
                let traffic = Traffic::new(n, bandwidth);
                Pack::new(&instance, &*plan, parallel, pack_start).round_a(
                    cache.as_ref(),
                    traffic,
                    |len| taker.take(len),
                )
            });
            ev.encodes.push_back((pack_start, job));
        }
    }

    /// Folds decoded units into the chunk store — keyed writes, so the fold
    /// is order-independent across packs.
    fn fold(&mut self, decoded: Vec<Decoded>) {
        let c = self.plan.code();
        for ((v, idx, chunk), bits, failed) in decoded {
            self.decode_failures += usize::from(failed);
            self.chunk_store
                .entry((v, idx))
                .or_insert_with(|| vec![BitVec::zeros(c.cap_bits); c.chunks])[chunk] = bits;
        }
    }

    /// Joins in-flight decode jobs down to `down_to`, folding their results
    /// and reclaiming their deliveries (frames into the `Sync` pool for the
    /// next prefetch, tables into the arena).
    fn drain_decodes(&mut self, net: &mut Network, down_to: usize) {
        while let Some(ev) = self.event.as_mut().filter(|ev| ev.decodes.len() > down_to) {
            let job = ev.decodes.pop_front().expect("checked non-empty");
            let pool = ev.pool.clone();
            let (decoded, delivery) = job.join();
            net.reclaim_split(delivery, &pool);
            self.fold(decoded);
        }
    }

    /// The current pack.
    fn pack(&self) -> Pack<'_, P> {
        Pack::new(&self.instance, &*self.plan, self.parallel, self.pack_start)
    }

    /// Round A: encode and frame build (prefetched off-thread in event mode
    /// and pulled from the message bus at the network's virtual time),
    /// exchange, and the relay gather.
    fn step_round_a(&mut self, net: &mut Network) -> Result<Vec<u16>, CoreError> {
        let (codewords, traffic) = if self.event.is_some() {
            self.dispatch_prefetch();
            let ev = self.event.as_mut().expect("event mode");
            let (start, job) = ev
                .encodes
                .pop_front()
                .expect("prefetch covers current pack");
            debug_assert_eq!(start, self.pack_start, "prefetch FIFO tracks the clock");
            let (codewords, batch) = job.join()?;
            let vtime = net.virtual_time();
            ev.bus.post(vtime, batch);
            let traffic = ev.bus.take(vtime).expect("batch staged for current vtime");
            (codewords, traffic)
        } else {
            let traffic = net.traffic();
            self.pack()
                .round_a(self.cache.as_ref(), traffic, |len| net.frame_buffer(len))?
        };
        let delivery = net.exchange(traffic);
        let held = self.pack().gather(&codewords, &delivery);
        net.reclaim(delivery);
        Ok(held)
    }

    /// Round B: forward, exchange, and decode — inline on the lockstep path,
    /// as a background job (joined later) in event mode.
    fn step_round_b(&mut self, net: &mut Network, held: Vec<u16>) {
        let traffic = self.pack().round_b(&held, net);
        let delivery = net.exchange(traffic);
        if let Some(ev) = &mut self.event {
            let (instance, plan) = (self.instance.shared(), self.plan.clone());
            let (parallel, start) = (self.parallel, self.pack_start);
            ev.decodes.push_back(exec::spawn(move || {
                let decoded =
                    Pack::new(&instance, &*plan, parallel, start).decode(&held, &delivery);
                (decoded, delivery)
            }));
            self.drain_decodes(net, DECODES_IN_FLIGHT);
        } else {
            let decoded = self.pack().decode(&held, &delivery);
            net.reclaim(delivery);
            self.fold(decoded);
        }
    }

    /// Advances one exchange; `Some(output)` when the final pack is done.
    pub(crate) fn step(&mut self, net: &mut Network) -> Result<Option<RoutingOutput>, CoreError> {
        if self.finished {
            return Err(CoreError::invalid(
                "routing session stepped after completion",
            ));
        }
        if self.pack_start < self.plan.work_len() {
            check_budget(net, self.plan.code().e_allow, self.extra_error_slack)?;
            match self.held.take() {
                None => {
                    self.held = Some(self.step_round_a(net)?);
                    return Ok(None);
                }
                Some(held) => {
                    self.step_round_b(net, held);
                    self.pack_start += self.plan.code().lanes;
                }
            }
        }
        if self.pack_start < self.plan.work_len() {
            return Ok(None);
        }
        Ok(Some(self.finish(net)))
    }

    /// The dispatch frontier the event executor must sit at when the
    /// session is exactly between two steps.
    fn quiesced_dispatch(&self) -> usize {
        let lanes = self.plan.code().lanes;
        self.pack_start + self.held.as_ref().map_or(0, |_| lanes)
    }

    /// Serializes the session's dynamic state (everything the plan does not
    /// re-derive). Event-path work is quiesced to the current step boundary
    /// first: background decodes are joined (the fold is order-independent,
    /// so folding early is invisible), prefetched round-A encodes are
    /// discarded (encoding is pure, so re-running it is bit-identical) and
    /// re-dispatched on the next step.
    pub(crate) fn snapshot_state(&mut self, net: &mut Network, enc: &mut Enc) {
        self.drain_decodes(net, 0);
        let next = self.quiesced_dispatch();
        if let Some(ev) = &mut self.event {
            ev.encodes.clear();
            ev.next_dispatch = next;
        }
        enc.put_usize(self.plan.code().e_allow);
        enc.put_usize(self.pack_start);
        enc.put_opt(self.held.as_ref(), |e, held| {
            e.put_seq(held, |e, &s| e.put_u16(s));
        });
        let entries: Vec<(&(usize, usize), &Vec<BitVec>)> = self.chunk_store.iter().collect();
        enc.put_seq(&entries, |e, ((v, idx), chunks)| {
            e.put_usize(*v);
            e.put_usize(*idx);
            e.put_seq(chunks, |e, b| e.put_bits(b));
        });
        super::snapshot_delivered(&self.delivered, enc);
        enc.put_usize(self.decode_failures);
        enc.put_u64(self.rounds_before);
        enc.put_bool(self.finished);
    }

    /// Rebuilds a session over `plan` (a deterministic function of the
    /// instance and config) and overlays the dynamic state written by
    /// [`PackSession::snapshot_state`].
    pub(crate) fn restore(
        net: &Network,
        instance: RoutingInstance,
        cfg: &RouterConfig,
        plan: P,
        cache: Option<SharedCodewordCache>,
        dec: &mut Dec<'_>,
    ) -> Result<PackSession<'static, P>, CoreError> {
        let mut s = PackSession::new(net, Cow::Owned(instance), cfg, plan, cache);
        let (e_allow, lanes) = (s.plan.code().e_allow, s.plan.code().lanes);
        let saved = dec.get_usize()?;
        if saved != e_allow {
            return Err(CoreError::invalid(format!(
                "snapshot: absorbed error budget drifted across restore \
                 (saved {saved}, rebuilt {e_allow})"
            )));
        }
        s.pack_start = dec.get_usize()?;
        if s.pack_start > s.plan.work_len() || !s.pack_start.is_multiple_of(lanes) {
            return Err(CoreError::invalid("snapshot: pack cursor out of range"));
        }
        s.held = dec.get_opt(|d| d.get_seq(2, Dec::get_u16))?;
        if let Some(held) = &s.held {
            if held.len() != s.pack().entries.len() * s.plan.code().l {
                return Err(CoreError::invalid("snapshot: relay grid size mismatch"));
            }
        }
        let entries = dec.get_seq(24, |d| {
            let v = d.get_usize()?;
            let idx = d.get_usize()?;
            let chunks = d.get_seq(8, Dec::get_bits)?;
            Ok(((v, idx), chunks))
        })?;
        let mut last = None;
        for ((v, idx), chunks) in entries {
            let in_range = v < s.instance.n
                && idx < s.instance.messages.len()
                && chunks.len() == s.plan.code().chunks;
            if last.is_some_and(|p| p >= (v, idx)) || !in_range {
                return Err(CoreError::invalid(
                    "snapshot: chunk store out of order or out of range",
                ));
            }
            last = Some((v, idx));
            s.chunk_store.insert((v, idx), chunks);
        }
        s.delivered = super::restore_delivered(dec)?;
        if s.delivered.len() != s.instance.n {
            return Err(CoreError::invalid(
                "snapshot: delivered table size mismatch",
            ));
        }
        s.decode_failures = dec.get_usize()?;
        s.rounds_before = dec.get_u64()?;
        s.finished = dec.get_bool()?;
        let next = s.quiesced_dispatch();
        if let Some(ev) = &mut s.event {
            ev.next_dispatch = next;
        }
        Ok(s)
    }

    /// Assembles the chunked payloads into the final output, draining every
    /// outstanding event-mode decode first.
    fn finish(&mut self, net: &mut Network) -> RoutingOutput {
        self.drain_decodes(net, 0);
        self.finished = true;
        let mut delivered = std::mem::take(&mut self.delivered);
        for ((v, idx), chunks) in std::mem::take(&mut self.chunk_store) {
            let msg = &self.instance.messages[idx];
            let mut full = BitVec::concat(chunks.iter());
            full.truncate(msg.payload.len());
            delivered[v].insert((msg.src, msg.slot), full);
        }
        RoutingOutput {
            delivered,
            report: RoutingReport {
                engine: P::ENGINE,
                rounds: net.rounds() - self.rounds_before,
                stages: self.plan.stages(),
                chunks: self.plan.code().chunks,
                decode_failures: self.decode_failures,
            },
        }
    }
}

