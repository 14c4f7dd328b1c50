//! Symbol-attributed µarch counters — the simulator's `perf report`.
//!
//! During simulation every counted event (cycles, retired instructions,
//! i-cache/iTLB misses, BACLEARs, taken branches, …) is charged to the
//! function and basic block whose address range it hit, yielding a
//! deterministic [`AttributedCounters`] table whose per-event sums are
//! *exactly* the whole-program [`CounterSet`] — the conservation
//! property the regression gate and the report renderers rely on.
//!
//! Collection piggybacks on the normal counter updates: the engine
//! snapshots the frontend's counters before each attributable
//! operation and charges the delta to the current `(function, block)`
//! context, so attribution can never drift from the aggregate
//! counters. Cycles accumulate as `f64` penalties and are converted to
//! integers by deterministic cumulative rounding, with the final
//! remainder (at most a rounding ulp) assigned to the hottest block so
//! the per-block sum equals the whole-program cycle count bit-exactly.

use crate::counters::CounterSet;
use crate::image::ProgramImage;
use std::collections::BTreeMap;

/// Declares [`Event`] from the one table that pairs each variant with
/// the [`CounterSet`] field it counts. The field's name is also the
/// event's stable name, so the variant list, the names and both field
/// accessors cannot drift apart.
macro_rules! events {
    ($($(#[$doc:meta])* $variant:ident => $field:ident,)*) => {
        /// One hardware event the attribution layer can slice by. Each maps
        /// onto a [`CounterSet`] field (and, through it, a Table 4 event).
        #[derive(Copy, Clone, PartialEq, Eq, Debug)]
        pub enum Event {
            $($(#[$doc])* $variant,)*
        }

        impl Event {
            /// Every attributable event, in the table's order.
            pub const ALL: [Event; [$(Event::$variant),*].len()] = [$(Event::$variant),*];

            /// The event's stable name (JSON keys, CLI `--event` values).
            pub fn name(self) -> &'static str {
                match self {
                    $(Event::$variant => stringify!($field),)*
                }
            }

            /// Reads this event's count out of a counter set.
            pub fn get(self, c: &CounterSet) -> u64 {
                match self {
                    $(Event::$variant => c.$field,)*
                }
            }

            /// This event's count in a counter set, for writing.
            pub fn field_mut(self, c: &mut CounterSet) -> &mut u64 {
                match self {
                    $(Event::$variant => &mut c.$field,)*
                }
            }
        }
    };
}

events! {
    /// Total cycles.
    Cycles => cycles,
    /// Instructions retired.
    Insts => insts,
    /// Basic blocks executed.
    Blocks => blocks,
    /// Taken branches (B2).
    TakenBranches => taken_branches,
    /// Not-taken (fall-through) transfers.
    Fallthroughs => fallthroughs,
    /// L1 i-cache misses (I1).
    L1iMisses => l1i_misses,
    /// L2 code read misses (I2).
    L2CodeMisses => l2_code_misses,
    /// Code misses served from memory (I3).
    L3CodeMisses => l3_code_misses,
    /// First-level iTLB misses (T1).
    ItlbMisses => itlb_misses,
    /// STLB misses causing a page walk (T2).
    StlbWalks => stlb_walks,
    /// Front-end resteers from BTB misses (B1).
    Baclears => baclears,
    /// DSB window misses.
    DsbMisses => dsb_misses,
    /// Software prefetches executed.
    Prefetches => prefetches,
}

impl Event {
    /// Parses [`Event::name`] output.
    pub fn from_name(s: &str) -> Option<Event> {
        Event::ALL.into_iter().find(|e| e.name() == s)
    }
}

/// Adds `cur - prev` of every event into `into` (cycles stay zero
/// during collection; they are distributed from the `f64` accumulator
/// at finalize time).
fn add_delta(into: &mut CounterSet, prev: &CounterSet, cur: &CounterSet) {
    for e in Event::ALL {
        let d = e.get(cur) - e.get(prev);
        if d != 0 {
            *e.field_mut(into) += d;
        }
    }
}

/// Sums every event of `b` into `a`.
pub(crate) fn add_counters(a: &mut CounterSet, b: &CounterSet) {
    for e in Event::ALL {
        *e.field_mut(a) += e.get(b);
    }
}

/// One basic block's attributed events.
#[derive(Clone, PartialEq, Debug)]
pub struct BlockAttribution {
    /// The block's final virtual address.
    pub addr: u64,
    /// The block's final size in bytes.
    pub size: u32,
    /// Events charged to this block.
    pub counters: CounterSet,
}

/// One function's attributed events.
#[derive(Clone, PartialEq, Debug)]
pub struct SymbolAttribution {
    /// The function's symbol name.
    pub name: String,
    /// Sum over the function's blocks.
    pub total: CounterSet,
    /// Per-block rows, indexed by basic-block id.
    pub blocks: Vec<BlockAttribution>,
}

/// The symbol-attribution table of one simulation run.
///
/// Invariant: for every event, the per-symbol (and per-block) sums
/// equal the run's whole-program [`CounterSet`] exactly.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct AttributedCounters {
    /// One entry per function, in image (dense index) order.
    pub symbols: Vec<SymbolAttribution>,
}

impl AttributedCounters {
    /// Sum of every symbol's counters — by construction equal to the
    /// run's whole-program counter set.
    pub fn totals(&self) -> CounterSet {
        let mut t = CounterSet::default();
        for s in &self.symbols {
            add_counters(&mut t, &s.total);
        }
        t
    }

    /// Number of per-block rows in the table.
    pub fn block_rows(&self) -> usize {
        self.symbols.iter().map(|s| s.blocks.len()).sum()
    }

    /// The attribution row for `name`, if present.
    pub fn symbol(&self, name: &str) -> Option<&SymbolAttribution> {
        self.symbols.iter().find(|s| s.name == name)
    }

    /// Indices of the `n` symbols with the highest count for `event`,
    /// descending; ties break by symbol name so the order is
    /// deterministic. Symbols with a zero count are skipped.
    pub fn top_by(&self, event: Event, n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.symbols.len())
            .filter(|&i| event.get(&self.symbols[i].total) > 0)
            .collect();
        idx.sort_by(|&a, &b| {
            let (va, vb) = (
                event.get(&self.symbols[a].total),
                event.get(&self.symbols[b].total),
            );
            vb.cmp(&va)
                .then_with(|| self.symbols[a].name.cmp(&self.symbols[b].name))
        });
        idx.truncate(n);
        idx
    }
}

/// Folded call stacks with attributed cycle weights — the input format
/// of Brendan Gregg's `flamegraph.pl` (one `a;b;c weight` line per
/// distinct stack).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct FoldedStacks {
    /// `(stack frames root-first, cycles)` per distinct stack, in
    /// deterministic (lexicographic) order.
    pub stacks: Vec<(Vec<String>, u64)>,
}

impl FoldedStacks {
    /// Renders the folded-stack text (`caller;callee weight` lines).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (frames, weight) in &self.stacks {
            if *weight == 0 {
                continue;
            }
            out.push_str(&frames.join(";"));
            out.push(' ');
            out.push_str(&weight.to_string());
            out.push('\n');
        }
        out
    }

    /// Total attributed weight across stacks.
    pub fn total_weight(&self) -> u64 {
        self.stacks.iter().map(|(_, w)| w).sum()
    }
}

/// One block's in-flight attribution state.
#[derive(Clone, Default)]
struct BlockSlot {
    counters: CounterSet,
    cycles_f: f64,
}

/// The engine-side collector. Charges counter deltas to
/// `(function, block)` contexts and folded cycle weights to call
/// chains while the simulation runs.
pub(crate) struct AttrSink<'a> {
    image: &'a ProgramImage,
    /// One slot per block of `image.blocks`.
    blocks: Vec<BlockSlot>,
    folded: BTreeMap<Vec<u32>, f64>,
}

impl<'a> AttrSink<'a> {
    pub(crate) fn new(image: &'a ProgramImage) -> Self {
        AttrSink {
            image,
            blocks: vec![BlockSlot::default(); image.blocks.len()],
            folded: BTreeMap::new(),
        }
    }

    /// Charges the window between the `prev` and `cur` engine
    /// snapshots (each a `(counters, cycles)` pair) to block `b` (an
    /// index into the image's `blocks`) of function `f`, and its cycle
    /// delta to the call chain (with `f` as the leaf).
    pub(crate) fn charge(
        &mut self,
        chain: &[u32],
        f: u32,
        b: u32,
        prev: (&CounterSet, f64),
        cur: (&CounterSet, f64),
    ) {
        let slot = &mut self.blocks[b as usize];
        add_delta(&mut slot.counters, prev.0, cur.0);
        let dc = cur.1 - prev.1;
        if dc > 0.0 {
            slot.cycles_f += dc;
            let mut key: Vec<u32> = chain.to_vec();
            if key.last() != Some(&f) {
                key.push(f);
            }
            *self.folded.entry(key).or_insert(0.0) += dc;
        }
    }

    /// Converts the collected state into the public table, distributing
    /// the `f64` cycle accumulators so the per-block integer sum equals
    /// `total.cycles` bit-exactly.
    pub(crate) fn finalize(self, total: &CounterSet) -> (AttributedCounters, FoldedStacks) {
        // Cumulative rounding: monotone because cycle deltas are
        // non-negative, so each block gets `round(cum) - assigned`.
        let mut assigned = 0u64;
        let mut cum = 0.0f64;
        let mut symbols = Vec::with_capacity(self.image.names.len());
        // Track the hottest block to absorb the final remainder (float
        // summation order here differs from the engine's event order,
        // so the two roundings can disagree by an ulp's worth).
        let mut hottest: Option<(usize, usize)> = None;
        let mut hottest_cycles = 0.0f64;
        let image = self.image;
        for (fi, (name, w)) in image
            .names
            .iter()
            .zip(image.first_block.windows(2))
            .enumerate()
        {
            let span = w[0] as usize..w[1] as usize;
            let mut blocks = Vec::with_capacity(span.len());
            let placed = &image.blocks[span.clone()];
            for (bi, (slot, at)) in self.blocks[span].iter().zip(placed).enumerate() {
                cum += slot.cycles_f;
                let up_to = cum.round() as u64;
                let cycles = up_to.saturating_sub(assigned);
                assigned += cycles;
                if slot.cycles_f > hottest_cycles {
                    hottest_cycles = slot.cycles_f;
                    hottest = Some((fi, bi));
                }
                let mut counters = slot.counters;
                counters.cycles = cycles;
                blocks.push(BlockAttribution {
                    addr: at.addr,
                    size: at.size,
                    counters,
                });
            }
            symbols.push(SymbolAttribution {
                name: name.to_string(),
                total: CounterSet::default(),
                blocks,
            });
        }
        // Absorb the remainder into the hottest block so the total is
        // exact even when the two float-summation orders round apart.
        if assigned != total.cycles {
            if let Some((fi, bi)) = hottest {
                let c = &mut symbols[fi].blocks[bi].counters.cycles;
                *c = (*c as i64 + (total.cycles as i64 - assigned as i64)).max(0) as u64;
            }
        }
        for s in &mut symbols {
            let mut t = CounterSet::default();
            for b in &s.blocks {
                add_counters(&mut t, &b.counters);
            }
            s.total = t;
        }

        // Fold the per-chain cycle accumulators the same way so the
        // flamegraph's total weight matches the run's cycle count.
        let mut stacks = Vec::with_capacity(self.folded.len());
        let mut cum = 0.0f64;
        let mut assigned = 0u64;
        for (key, cycles_f) in &self.folded {
            cum += cycles_f;
            let up_to = cum.round() as u64;
            let weight = up_to.saturating_sub(assigned);
            assigned += weight;
            stacks.push((
                key.iter()
                    .map(|&f| symbols[f as usize].name.clone())
                    .collect(),
                weight,
            ));
        }
        if assigned != total.cycles && !stacks.is_empty() {
            let hot = (0..stacks.len()).max_by_key(|&i| stacks[i].1).unwrap_or(0);
            let w = &mut stacks[hot].1;
            *w = (*w as i64 + (total.cycles as i64 - assigned as i64)).max(0) as u64;
        }
        (AttributedCounters { symbols }, FoldedStacks { stacks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_names_round_trip() {
        for e in Event::ALL {
            assert_eq!(Event::from_name(e.name()), Some(e));
        }
        assert_eq!(Event::from_name("no_such_event"), None);
    }

    #[test]
    fn event_get_set_cover_every_field() {
        let mut c = CounterSet::default();
        for (i, e) in Event::ALL.into_iter().enumerate() {
            *e.field_mut(&mut c) = (i as u64 + 1) * 7;
        }
        for (i, e) in Event::ALL.into_iter().enumerate() {
            assert_eq!(e.get(&c), (i as u64 + 1) * 7, "{}", e.name());
        }
    }

    #[test]
    fn add_delta_charges_differences() {
        let prev = CounterSet {
            insts: 10,
            l1i_misses: 2,
            ..CounterSet::default()
        };
        let cur = CounterSet {
            insts: 15,
            l1i_misses: 2,
            baclears: 1,
            ..CounterSet::default()
        };
        let mut into = CounterSet::default();
        add_delta(&mut into, &prev, &cur);
        assert_eq!(into.insts, 5);
        assert_eq!(into.l1i_misses, 0);
        assert_eq!(into.baclears, 1);
    }

    #[test]
    fn top_by_sorts_descending_with_name_ties() {
        let sym = |name: &str, cycles: u64| SymbolAttribution {
            name: name.into(),
            total: CounterSet {
                cycles,
                ..CounterSet::default()
            },
            blocks: vec![],
        };
        let a = AttributedCounters {
            symbols: vec![
                sym("zeta", 10),
                sym("alpha", 10),
                sym("mid", 50),
                sym("cold", 0),
            ],
        };
        assert_eq!(a.top_by(Event::Cycles, 10), vec![2, 1, 0]);
        assert_eq!(a.top_by(Event::Cycles, 1), vec![2]);
    }

    #[test]
    fn folded_text_skips_zero_weights() {
        let f = FoldedStacks {
            stacks: vec![
                (vec!["main".into(), "a".into()], 12),
                (vec!["main".into(), "b".into()], 0),
            ],
        };
        assert_eq!(f.to_text(), "main;a 12\n");
        assert_eq!(f.total_weight(), 12);
    }
}
