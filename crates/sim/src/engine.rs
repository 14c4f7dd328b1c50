//! The trace-driven front-end simulator.

use crate::attr::AttrSink;
use crate::cache::SetAssocCache;
use crate::config::{UarchConfig, Workload};
use crate::counters::{CounterSet, SimReport};
use crate::heatmap::HeatMap;
use crate::image::{ProgramImage, SimTerm};
use crate::rng::SplitMix64;
use propeller_profile::{HardwareProfile, LbrRecord, LbrSample, SamplingConfig, LBR_DEPTH};
use std::collections::{HashMap, VecDeque};

/// What to collect during simulation.
#[derive(Clone, Debug, Default)]
pub struct SimOptions {
    /// Collect LBR samples at this configuration.
    pub sampling: Option<SamplingConfig>,
    /// Collect a heat map with `(address buckets, time buckets)`.
    pub heatmap: Option<(usize, usize)>,
    /// Collect the call-site code-miss profile: counts of L1i misses at
    /// callee entry, keyed by `(call-site block address, callee entry
    /// address)` — the input to §3.5's prefetch insertion.
    pub collect_call_misses: bool,
    /// Attribute every counted event to the `(function, basic block)`
    /// it hit, plus folded call stacks weighted by cycles — the
    /// simulator-side `perf record -g` + `perf report` data.
    pub attribution: bool,
}

/// Encoded call instruction length (return address displacement).
const CALL_LEN: u64 = 5;

struct Frontend {
    l1i: SetAssocCache,
    l2: SetAssocCache,
    l3: SetAssocCache,
    itlb: SetAssocCache,
    stlb: SetAssocCache,
    btb: SetAssocCache,
    dsb: SetAssocCache,
    cycles: f64,
    counters: CounterSet,
    cfg: UarchConfig,
    heatmap: Option<HeatMap>,
    /// The line `fetch` touched last, `None` once a `prefetch` has
    /// touched the caches since. iTLB, L1i and DSB all hold that line
    /// at MRU, so fetching it again would hit all three and move
    /// nothing: `fetch` skips it. Every call fetches the callee's entry
    /// line twice in a row, and most blocks start in the line their
    /// predecessor ended in.
    last_line: Option<u64>,
}

impl Frontend {
    /// A cold front end; a heat map, if `opts` asks for one, covers
    /// the `text` address range.
    fn new(cfg: &UarchConfig, text: (u64, u64), opts: &SimOptions, budget: u64) -> Self {
        let page = if cfg.itlb.hugepages { 2 << 20 } else { 4096 };
        let l1_entries = if cfg.itlb.hugepages {
            cfg.itlb.l1_entries_2m
        } else {
            cfg.itlb.l1_entries_4k
        };
        let heatmap = opts.heatmap.map(|(rows, cols)| {
            HeatMap::new(
                text.0,
                text.1.max(text.0 + 1),
                rows,
                cols,
                budget * 2,
            )
        });
        Frontend {
            l1i: SetAssocCache::with_capacity(cfg.l1i.capacity, cfg.l1i.assoc, cfg.l1i.line),
            l2: SetAssocCache::with_capacity(cfg.l2.capacity, cfg.l2.assoc, cfg.l2.line),
            l3: SetAssocCache::with_capacity(cfg.l3.capacity, cfg.l3.assoc, cfg.l3.line),
            itlb: SetAssocCache::new(next_pow2(l1_entries / 4), 4, page),
            stlb: SetAssocCache::new(next_pow2(cfg.itlb.stlb_entries / 8), 8, page),
            btb: SetAssocCache::new(next_pow2(cfg.btb_entries / 8), 8, 1),
            dsb: SetAssocCache::new(next_pow2(cfg.dsb_windows / 8), 8, 64),
            cycles: 0.0,
            counters: CounterSet::default(),
            cfg: *cfg,
            heatmap,
            last_line: None,
        }
    }

    /// Fetches the byte range `[addr, addr + len)`; returns whether any
    /// line missed L1i.
    fn fetch(&mut self, addr: u64, len: u32) -> bool {
        let mut missed = false;
        let line = self.cfg.l1i.line;
        let mut a = addr & !(line - 1);
        let end = addr + len.max(1) as u64;
        while a < end {
            if self.last_line != Some(a) {
                self.last_line = Some(a);
                if !self.itlb.access(a) {
                    self.counters.itlb_misses += 1;
                    if !self.stlb.access(a) {
                        self.counters.stlb_walks += 1;
                        self.cycles += self.cfg.penalties.stlb_walk;
                    } else {
                        self.cycles += self.cfg.penalties.itlb_miss;
                    }
                }
                if !self.l1i.access(a) {
                    missed = true;
                    self.counters.l1i_misses += 1;
                    if !self.l2.access(a) {
                        self.counters.l2_code_misses += 1;
                        if !self.l3.access(a) {
                            self.counters.l3_code_misses += 1;
                            self.cycles += self.cfg.penalties.l3_miss;
                        } else {
                            self.cycles += self.cfg.penalties.l2_miss;
                        }
                    } else {
                        self.cycles += self.cfg.penalties.l1i_miss;
                    }
                }
                if !self.dsb.access(a) {
                    self.counters.dsb_misses += 1;
                }
            }
            if let Some(h) = &mut self.heatmap {
                h.record(a);
            }
            a += line;
        }
        missed
    }

    /// Issues a software prefetch of `addr`: warms the i-caches and the
    /// TLBs without stall penalties or demand-miss counter charges.
    fn prefetch(&mut self, addr: u64) {
        self.counters.prefetches += 1;
        self.last_line = None;
        if !self.itlb.access(addr) {
            self.stlb.access(addr);
        }
        if !self.l1i.access(addr)
            && !self.l2.access(addr) {
                self.l3.access(addr);
            }
    }

    /// Retires `n` instructions.
    fn retire(&mut self, n: u32) {
        self.counters.insts += n as u64;
        self.cycles += n as f64 * self.cfg.penalties.base_cpi;
    }

    /// A taken control transfer from `from`; `predictable_by_btb` is
    /// false for returns (served by the RSB).
    fn taken(&mut self, from: u64, predictable_by_btb: bool) {
        self.counters.taken_branches += 1;
        self.cycles += self.cfg.penalties.taken_branch;
        if predictable_by_btb && !self.btb.access(from) {
            self.counters.baclears += 1;
            self.cycles += self.cfg.penalties.baclears;
        }
    }
}

fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

struct Sampler {
    ring: VecDeque<LbrRecord>,
    period: u64,
    until_next: u64,
    profile: HardwareProfile,
}

impl Sampler {
    fn new(cfg: &SamplingConfig, binary: &str) -> Self {
        Sampler {
            ring: VecDeque::with_capacity(LBR_DEPTH),
            period: cfg.period.max(1),
            until_next: cfg.period.max(1),
            profile: HardwareProfile::new(binary),
        }
    }

    fn record(&mut self, from: u64, to: u64) {
        if self.ring.len() == LBR_DEPTH {
            self.ring.pop_front();
        }
        self.ring.push_back(LbrRecord { from, to });
        self.until_next -= 1;
        if self.until_next == 0 {
            self.until_next = self.period;
            self.profile
                .samples
                .push(LbrSample::new(self.ring.iter().copied().collect()));
        }
    }
}

struct Frame {
    /// Dense function index.
    f: u32,
    /// The current block, in [`ProgramImage::blocks`].
    b: u32,
    /// The next call site to take, in [`ProgramImage::calls`]; set on
    /// entering `b`.
    call_idx: u32,
    entered: bool,
}

impl Frame {
    /// A frame about to enter block `b` of function `f`.
    fn at(f: u32, b: u32) -> Self {
        Frame { f, b, call_idx: 0, entered: false }
    }
}

/// [`simulate`], plus telemetry: a `simulate` span under `parent`
/// carrying the run's wall time, and `sim.*` counters (blocks, insts,
/// cycles, L1i/iTLB misses) accumulated across runs.
///
/// # Panics
///
/// Same as [`simulate`].
pub fn simulate_traced(
    image: &ProgramImage,
    workload: &Workload,
    uarch: &UarchConfig,
    opts: &SimOptions,
    tel: &propeller_telemetry::Telemetry,
    parent: Option<propeller_telemetry::SpanId>,
) -> SimReport {
    let _span = tel.span_under("simulate", parent);
    let report = simulate(image, workload, uarch, opts);
    if tel.is_enabled() {
        let c = &report.counters;
        tel.counter_add("sim.blocks", c.blocks);
        tel.counter_add("sim.insts", c.insts);
        tel.counter_add("sim.cycles", c.cycles);
        tel.counter_add("sim.l1i_misses", c.l1i_misses);
        tel.counter_add("sim.itlb_misses", c.itlb_misses);
        if let Some(a) = &report.attribution {
            let _attr_span = tel.span_under("sim.attribution", parent);
            tel.counter_add("attr.symbols", a.symbols.len() as u64);
            tel.counter_add("attr.block_rows", a.block_rows() as u64);
            if let Some(f) = &report.folded {
                tel.counter_add("attr.folded_stacks", f.stacks.len() as u64);
            }
        }
    }
    report
}

/// Runs `workload` over `image` with LBR sampling on and returns the
/// collected profile plus the run's counters — `perf record` and
/// `perf stat` over the same execution. This is the re-profiling
/// primitive quality audits use, e.g. re-simulating the workload
/// against an optimized layout to measure profile staleness.
///
/// # Panics
///
/// Same as [`simulate`].
pub fn collect_profile(
    image: &ProgramImage,
    workload: &Workload,
    uarch: &UarchConfig,
    sampling: SamplingConfig,
) -> (HardwareProfile, CounterSet) {
    let report = simulate(
        image,
        workload,
        uarch,
        &SimOptions {
            sampling: Some(sampling),
            ..SimOptions::default()
        },
    );
    (report.profile.expect("sampling enabled"), report.counters)
}

/// Runs the workload over the image and reports counters, an optional
/// LBR profile, and an optional heat map.
///
/// # Panics
///
/// Panics if the workload names an entry function absent from the
/// image, or has no entries with positive weight while the budget is
/// nonzero.
pub fn simulate(
    image: &ProgramImage,
    workload: &Workload,
    uarch: &UarchConfig,
    opts: &SimOptions,
) -> SimReport {
    let text = (image.text_start, image.text_end);
    let mut fe = Frontend::new(uarch, text, opts, workload.block_budget);
    let mut rng = SplitMix64::new(workload.seed);
    let mut sampler = opts
        .sampling
        .as_ref()
        .map(|cfg| Sampler::new(cfg, "simulated-binary"));

    // Lossless `as u32`: `ProgramImage::build` rejects programs whose
    // function count exceeds u32::MAX.
    let entries: Vec<(u32, f64)> = workload
        .entries
        .iter()
        .map(|(fid, w)| {
            let f = image
                .index_of(*fid)
                .unwrap_or_else(|| panic!("entry {fid} not in image"));
            (f as u32, *w)
        })
        .collect();
    let total_weight: f64 = entries.iter().map(|(_, w)| w).sum();
    assert!(
        workload.block_budget == 0 || total_weight > 0.0,
        "workload needs weighted entries"
    );

    let mut stack: Vec<Frame> = Vec::new();
    // The function ids of the live frames, root first — the folded
    // call chain attribution charges cycle weights to. Mirrors
    // `stack` so attribution never needs to borrow it.
    let mut call_chain: Vec<u32> = Vec::new();
    let mut attr = opts.attribution.then(|| AttrSink::new(image));
    let mut executed_blocks = 0u64;
    let mut call_misses: HashMap<(u64, u64), u64> = HashMap::new();

    // Runs `$body` and charges every counter/cycle delta it produces
    // to block `$b` of function `$f` (snapshot-diff, so attribution
    // cannot drift from the aggregate counters). `$f`/`$b` are
    // evaluated before the body runs.
    macro_rules! charged {
        ($f:expr, $b:expr, $body:block) => {{
            if let Some(sink) = attr.as_mut() {
                let (cf, cb) = ($f, $b);
                let prev = fe.counters;
                let prev_cycles = fe.cycles;
                $body
                sink.charge(&call_chain, cf, cb, (&prev, prev_cycles), (&fe.counters, fe.cycles));
            } else {
                $body
            }
        }};
    }

    while executed_blocks < workload.block_budget {
        if stack.is_empty() {
            // Dispatch a new request.
            let mut draw = rng.next_f64() * total_weight;
            let mut chosen = entries[0].0;
            for &(f, w) in &entries {
                if draw < w {
                    chosen = f;
                    break;
                }
                draw -= w;
            }
            stack.push(Frame::at(chosen, image.first_block[chosen as usize]));
            call_chain.push(chosen);
        }
        let top = stack.last_mut().expect("nonempty");
        let block = &image.blocks[top.b as usize];
        if !top.entered {
            top.entered = true;
            top.call_idx = block.calls.0;
            executed_blocks += 1;
            charged!(top.f, top.b, {
                fe.counters.blocks += 1;
                fe.fetch(block.addr, block.size);
                fe.retire(block.straight_insts);
                let (from, to) = block.prefetches;
                for &target in &image.prefetches[from as usize..to as usize] {
                    let entry = image.first_block[target as usize];
                    fe.prefetch(image.blocks[entry as usize].addr);
                }
            });
        }
        if top.call_idx < block.calls.1 {
            let (off, callee) = image.calls[top.call_idx as usize];
            let (cf, cb) = (top.f, top.b);
            top.call_idx += 1;
            if stack.len() < workload.max_call_depth {
                let from = block.addr + off as u64;
                let callee_entry = image.first_block[callee as usize];
                let to = image.blocks[callee_entry as usize].addr;
                // The transfer itself belongs to the call site...
                charged!(cf, cb, {
                    fe.taken(from, true);
                });
                // Fetch the callee's entry line at transfer time; a miss
                // here is exactly what a software prefetch earlier in
                // the caller would have hidden. It is charged to the
                // callee's entry block, where `perf` reports it.
                let missed: bool;
                charged!(callee, callee_entry, {
                    missed = fe.fetch(to, 1);
                });
                if missed && opts.collect_call_misses {
                    *call_misses.entry((block.addr, to)).or_insert(0) += 1;
                }
                if let Some(s) = &mut sampler {
                    s.record(from, to);
                }
                stack.push(Frame::at(callee, callee_entry));
                call_chain.push(callee);
            }
            continue;
        }
        // Terminator.
        let end = block.addr + block.size as u64;
        let from = end.saturating_sub(1);
        match block.term {
            SimTerm::Ret => {
                // Both the return's retire and its transfer belong to
                // the returning block; charge before popping so the
                // call chain still names the callee as the leaf.
                let (rf, rb) = (top.f, top.b);
                charged!(rf, rb, {
                    fe.retire(block.branch_insts);
                    stack.pop();
                    if let Some(caller) = stack.last() {
                        let (call_off, _) = image.calls[caller.call_idx as usize - 1];
                        let to = image.blocks[caller.b as usize].addr + call_off as u64 + CALL_LEN;
                        fe.taken(from, false);
                        if let Some(s) = &mut sampler {
                            s.record(from, to);
                        }
                    }
                });
                call_chain.pop();
            }
            SimTerm::Jump(t) => {
                charged!(top.f, top.b, {
                    fe.retire(block.branch_insts);
                    let target = &image.blocks[t as usize];
                    if block.branch_insts == 0 {
                        debug_assert_eq!(target.addr, end, "deleted jump implies adjacency");
                        fe.counters.fallthroughs += 1;
                    } else {
                        fe.taken(from, true);
                        if let Some(s) = &mut sampler {
                            s.record(from, target.addr);
                        }
                    }
                });
                top.b = t;
                top.entered = false;
            }
            SimTerm::Cond { taken, ft, p } => {
                let choose_taken = rng.chance(p);
                let t = if choose_taken { taken } else { ft };
                let target_addr = image.blocks[t as usize].addr;
                let contiguous = target_addr == end;
                // Executed branch instructions: the first Jcc always;
                // the trailing JMP only on the (non-contiguous)
                // fall-through path of a two-branch block.
                let executed = if block.branch_insts == 2 && !choose_taken {
                    2
                } else {
                    block.branch_insts.min(1)
                };
                charged!(top.f, top.b, {
                    fe.retire(executed);
                    if contiguous {
                        fe.counters.fallthroughs += 1;
                    } else {
                        fe.taken(from, true);
                        if let Some(s) = &mut sampler {
                            s.record(from, target_addr);
                        }
                    }
                });
                top.b = t;
                top.entered = false;
            }
        }
    }

    fe.counters.cycles = fe.cycles.round() as u64;
    let (attribution, folded) = match attr {
        Some(sink) => {
            let (a, f) = sink.finalize(&fe.counters);
            (Some(a), Some(f))
        }
        None => (None, None),
    };
    SimReport {
        counters: fe.counters,
        profile: sampler.map(|s| s.profile),
        heatmap: fe.heatmap,
        call_misses: opts.collect_call_misses.then_some(call_misses),
        attribution,
        folded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, TlbConfig};

    /// A core small enough that a few hundred accesses over four pages
    /// evict at every level.
    fn tiny_core() -> UarchConfig {
        let cache = |capacity, assoc| CacheConfig {
            capacity,
            assoc,
            line: 64,
        };
        UarchConfig {
            l1i: cache(512, 2),
            l2: cache(2048, 2),
            l3: cache(8192, 4),
            itlb: TlbConfig {
                l1_entries_4k: 2,
                l1_entries_2m: 2,
                stlb_entries: 3,
                hugepages: false,
            },
            btb_entries: 8,
            dsb_windows: 8,
            ..UarchConfig::default()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The same-line filter is invisible: a front end that never
        /// remembers its last line returns, counts, charges and maps
        /// exactly the same, step by step — over same-line repeats,
        /// multi-line fetches across a page boundary, and a prefetch
        /// between two fetches of one line.
        #[test]
        fn same_line_filter_changes_nothing(
            heatmap in proptest::any::<bool>(),
            ops in proptest::collection::vec(
                (0u8..6, proptest::any::<u16>(), proptest::any::<u8>()), 1..400),
        ) {
            let opts = SimOptions {
                heatmap: heatmap.then_some((8, 4)),
                ..SimOptions::default()
            };
            let text = (0x1000, 0x5000);
            let mut filtered = Frontend::new(&tiny_core(), text, &opts, 300);
            let mut plain = Frontend::new(&tiny_core(), text, &opts, 300);
            let mut addr = text.0;
            for (step, (kind, a, len)) in ops.into_iter().enumerate() {
                let fresh = text.0 + u64::from(a) % (text.1 - text.0);
                match kind {
                    // A fetch somewhere else, up to four lines long.
                    0 | 1 => addr = fresh,
                    // The line just fetched, or the one after it.
                    2 => addr = (addr & !63) + u64::from(a % 96),
                    3 => {}
                    4 => {
                        let target = if a % 2 == 0 { addr } else { fresh };
                        filtered.prefetch(target);
                        plain.prefetch(target);
                    }
                    _ => {
                        filtered.taken(fresh, a % 3 != 0);
                        plain.taken(fresh, a % 3 != 0);
                    }
                }
                if kind < 4 {
                    plain.last_line = None;
                    proptest::prop_assert_eq!(
                        filtered.fetch(addr, u32::from(len)),
                        plain.fetch(addr, u32::from(len)),
                        "step {}", step
                    );
                }
                proptest::prop_assert_eq!(filtered.counters, plain.counters, "step {}", step);
                proptest::prop_assert_eq!(
                    filtered.cycles.to_bits(), plain.cycles.to_bits(), "step {}", step);
                proptest::prop_assert_eq!(&filtered.heatmap, &plain.heatmap, "step {}", step);
            }
        }
    }

    #[test]
    fn a_repeated_line_is_skipped_until_a_prefetch_touches_the_caches() {
        let mut fe = Frontend::new(&tiny_core(), (0, 0x1000), &SimOptions::default(), 1);
        assert!(fe.fetch(0x100, 1));
        assert!(!fe.fetch(0x13f, 1));
        assert_eq!(fe.l1i.accesses(), 1, "same line: skipped");
        // Two lines, the first already fetched: only the second is new.
        assert!(fe.fetch(0x120, 64));
        assert_eq!((fe.l1i.accesses(), fe.last_line), (2, Some(0x140)));
        fe.prefetch(0x140);
        assert_eq!(fe.last_line, None);
        assert!(!fe.fetch(0x140, 1));
        assert_eq!(fe.l1i.accesses(), 4, "the prefetch and the fetch after it both access");
    }
}
