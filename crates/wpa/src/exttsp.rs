//! The Ext-TSP basic block reordering algorithm (Newell & Pupyrev,
//! "Improved Basic Block Reordering", 2018), as used by Propeller for
//! intra-function layout (§3.3) and — on the whole-program graph — for
//! inter-procedural layout (§4.7).
//!
//! Ext-TSP maximizes `Σ weight(e) · gain(e)` where a fall-through edge
//! gains 1.0 and short forward/backward jumps gain up to 0.1, decaying
//! linearly with distance. The optimizer greedily merges chains of
//! blocks, always applying the highest-gain merge; the priority queue
//! with lazy invalidation implements the paper's "logarithmic time
//! retrieval of the most profitable action" improvement.
//!
//! # Cost of one gain evaluation
//!
//! Retrieval is logarithmic; *evaluating* a candidate pair `(x, y)` is
//! not. A pair has up to `|x| + 1` merge variants (concatenation, then
//! every split of `x` while `|x| ≤ chain_split_threshold`), and fully
//! scoring one walks every block of both chains: `O(|x| + |y| + deg)`
//! (`deg` = outgoing edges of the two chains). That walk is plain array
//! reads — every node carries its [`Place`] (chain, index and byte
//! offset in that chain), so `X1·Y·X2` is scored where its three slices
//! lie, with shifted offsets, no position map and no sequence copy —
//! and each chain caches its own score, so the `base` a gain is
//! measured against costs two loads.
//!
//! Most variants cannot win, and [`Optimizer::best_merge`] proves that
//! before scoring them. Relative to `base`, merging changes only two
//! kinds of terms: edges between `x` and `y` (usually one to three),
//! and edges inside `x` that cross the split, whose distance grows by
//! `|Y|` bytes so that their score can only shrink. One walk per pair
//! ([`MergeScratch::load`]) collects the first kind and a prefix sum of
//! the second kind's losses over `k`; each variant then gets an upper
//! bound on its gain in `O(#x↔y edges)`, and only a variant whose bound
//! could beat the running best is fully scored. A pair therefore costs
//! `O(|x| + |y| + deg + |x| · #x↔y edges)` plus a few full scorings
//! (on the benchmark's inter-procedural problem, one variant in ten).
//! The bound is exact in `f64`, so the decisions — and every gain — are
//! the ones the unfiltered scan makes; see [`MergeScratch::load`].
//!
//! # The floating-point order is part of the contract
//!
//! `run_report.json` carries every merge gain as an `f64`, and CI
//! `cmp`s it across `--jobs` and against a committed baseline. A
//! sequence score is therefore always accumulated the same way: one
//! `f64` from `0.0`, blocks in sequence order, each block's outgoing
//! edges in input order. A chain's cached score is the *re-scored*
//! merged sequence, never `base + gain`, which rounds differently.
//! `exttsp/reference.rs` keeps the old implementation as the
//! bit-for-bit test oracle.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

#[cfg(test)]
mod reference;

/// A layout node (a basic block, or a whole section for the
/// inter-procedural variant).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Node {
    /// Caller-meaningful identifier (block id / section index).
    pub id: u32,
    /// Size in bytes.
    pub size: u32,
    /// Execution count (used for tie-breaking and density ordering).
    pub count: u64,
}

/// A weighted directed edge between nodes.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Edge {
    /// Source node id.
    pub src: u32,
    /// Destination node id.
    pub dst: u32,
    /// Dynamic weight.
    pub weight: u64,
}

/// Score of a perfect fall-through.
const FALLTHROUGH_WEIGHT: f64 = 1.0;
/// Peak score of a short forward jump.
const FORWARD_WEIGHT: f64 = 0.1;
/// Peak score of a short backward jump.
const BACKWARD_WEIGHT: f64 = 0.1;

/// Scoring windows and search parameters; defaults follow the
/// published constants.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct ExtTspParams {
    /// Maximum forward jump distance that still scores.
    pub forward_window: u64,
    /// Maximum backward jump distance that still scores.
    pub backward_window: u64,
    /// Chains no longer than this are considered for 3-way split
    /// merges; longer chains only concatenate (the scalability knob of
    /// §4.7).
    pub chain_split_threshold: usize,
    /// Worker threads for merge-gain evaluation. Gains for a batch of
    /// candidate pairs are computed in parallel but reduced in the
    /// serial submission order, so the heap sequence — and therefore
    /// the final layout — is bit-identical at every value. `1` (the
    /// default) evaluates inline.
    pub jobs: usize,
}

impl Default for ExtTspParams {
    fn default() -> Self {
        ExtTspParams {
            forward_window: 1024,
            backward_window: 640,
            chain_split_threshold: 128,
            jobs: 1,
        }
    }
}

/// Scores one edge given the source block's end offset and the
/// destination block's start offset.
fn edge_score(params: &ExtTspParams, w: u64, src_end: u64, dst_start: u64) -> f64 {
    let w = w as f64;
    if src_end == dst_start {
        return w * FALLTHROUGH_WEIGHT;
    }
    if dst_start > src_end {
        let d = dst_start - src_end;
        if d < params.forward_window {
            return w * FORWARD_WEIGHT * (1.0 - d as f64 / params.forward_window as f64);
        }
    } else {
        let d = src_end - dst_start;
        if d < params.backward_window {
            return w * BACKWARD_WEIGHT * (1.0 - d as f64 / params.backward_window as f64);
        }
    }
    0.0
}

/// The caller's problem over dense node indices. Ids are translated
/// once, here at the API boundary; nothing past it hashes.
struct DenseGraph {
    sizes: Vec<u64>,
    /// `(src, dst, weight)` of every edge whose endpoints are both
    /// nodes, in input order.
    edges: Vec<(usize, usize, u64)>,
}

fn dense_index(nodes: &[Node]) -> HashMap<u32, usize> {
    nodes.iter().enumerate().map(|(i, n)| (n.id, i)).collect()
}

impl DenseGraph {
    fn new(nodes: &[Node], edges: &[Edge], dense: &HashMap<u32, usize>) -> Self {
        DenseGraph {
            sizes: nodes.iter().map(|n| n.size as u64).collect(),
            edges: edges
                .iter()
                .filter_map(|e| Some((*dense.get(&e.src)?, *dense.get(&e.dst)?, e.weight)))
                .collect(),
        }
    }

    /// Ext-TSP score of laying out `order` (dense indices); edges with
    /// an endpoint outside `order` do not score.
    fn score(&self, order: impl IntoIterator<Item = usize>, params: &ExtTspParams) -> f64 {
        const ABSENT: u64 = u64::MAX;
        let mut pos = vec![ABSENT; self.sizes.len()];
        let mut cursor = 0u64;
        for i in order {
            pos[i] = cursor;
            cursor += self.sizes[i];
        }
        let mut total = 0.0;
        for &(s, d, w) in &self.edges {
            if pos[s] != ABSENT && pos[d] != ABSENT {
                total += edge_score(params, w, pos[s] + self.sizes[s], pos[d]);
            }
        }
        total
    }
}

/// Computes the Ext-TSP score of a complete layout. Exposed for tests,
/// benches and the ablation harness. Ids in `order` that are not in
/// `nodes` are skipped, like edges with an unknown endpoint.
pub fn score_layout(order: &[u32], nodes: &[Node], edges: &[Edge], params: &ExtTspParams) -> f64 {
    let dense = dense_index(nodes);
    let order = order.iter().filter_map(|id| dense.get(id).copied());
    DenseGraph::new(nodes, edges, &dense).score(order, params)
}

#[derive(Clone, Debug)]
struct Chain {
    blocks: Vec<usize>, // dense node indices
    version: u64,
    /// Total bytes of `blocks`.
    size: u64,
    /// Score of the edges internal to `blocks`, re-scored from scratch
    /// whenever `blocks` changes.
    score: f64,
}

/// Where a node currently sits.
#[derive(Copy, Clone)]
struct Place {
    chain: usize,
    /// Index in the chain's block list.
    idx: usize,
    /// Byte offset from the chain's start.
    off: u64,
}

#[derive(Copy, Clone)]
struct HeapEntry {
    gain: f64,
    x: usize,
    y: usize,
    vx: u64,
    vy: u64,
    /// Merge variant: `usize::MAX` = concat(x,y); otherwise split x at
    /// this position and lay out X1, Y, X2.
    split: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Primary: gain. Equal-gain candidates are ordered by a stable
        // key — (smaller x, then smaller y, then smaller split) pops
        // first — never by insertion order or hash iteration at call
        // sites. Chain ids are dense node indices of each chain's
        // founding block, so the key is a pure function of the input
        // problem; provenance replay and the `--jobs` byte-identity
        // gates both depend on this total order staying stable.
        self.gain
            .total_cmp(&other.gain)
            .then_with(|| other.x.cmp(&self.x))
            .then_with(|| other.y.cmp(&self.y))
            .then_with(|| other.split.cmp(&self.split))
    }
}

/// The greedy chain-merging optimizer.
struct Optimizer<'a> {
    params: &'a ExtTspParams,
    sizes: &'a [u64],
    /// Outgoing `(dst, weight)` edges per node, in input order.
    out: Vec<Vec<(usize, u64)>>,
    chains: Vec<Option<Chain>>,
    place: Vec<Place>,
    /// Chains sharing an edge with chain `c`, ascending.
    neighbors: Vec<Vec<usize>>,
    entry_idx: usize,
}

impl<'a> Optimizer<'a> {
    fn new(graph: &'a DenseGraph, entry_idx: usize, params: &'a ExtTspParams) -> Self {
        let n = graph.sizes.len();
        let mut out = vec![Vec::new(); n];
        let mut neighbors = vec![Vec::new(); n];
        for &(s, d, w) in &graph.edges {
            out[s].push((d, w));
            if s != d {
                neighbors[s].push(d);
                neighbors[d].push(s);
            }
        }
        for list in &mut neighbors {
            list.sort_unstable();
            list.dedup();
        }
        let mut opt = Optimizer {
            params,
            sizes: &graph.sizes,
            out,
            chains: Vec::with_capacity(n),
            place: (0..n)
                .map(|b| Place {
                    chain: b,
                    idx: 0,
                    off: 0,
                })
                .collect(),
            neighbors,
            entry_idx,
        };
        for b in 0..n {
            // A singleton scores only its self-loops.
            let score = opt.score_segments([(&[b][..], 0)], |p| (p.chain == b).then_some(0));
            opt.chains.push(Some(Chain {
                blocks: vec![b],
                version: 0,
                size: graph.sizes[b],
                score,
            }));
        }
        opt
    }

    /// Scores all edges internal to the sequence formed by laying
    /// `segments` end to end. Each segment is a run of blocks that are
    /// already contiguous in some chain, plus the shift that turns their
    /// chain offsets into sequence offsets; `pos` gives the sequence
    /// offset of any node, `None` when it is not part of the sequence.
    fn score_segments<const N: usize>(
        &self,
        segments: [(&[usize], u64); N],
        pos: impl Fn(Place) -> Option<u64>,
    ) -> f64 {
        let mut total = 0.0;
        for (blocks, shift) in segments {
            for &b in blocks {
                let end = self.place[b].off + shift + self.sizes[b];
                for &(other, w) in &self.out[b] {
                    if let Some(dp) = pos(self.place[other]) {
                        total += edge_score(self.params, w, end, dp);
                    }
                }
            }
        }
        total
    }

    /// Score of `X1 · Y · X2`, where `X1 = x[..k]` and `X2 = x[k..]`
    /// (`k = |x|` is plain concatenation).
    fn score_merged(&self, x: usize, y: usize, k: usize) -> f64 {
        let (cx, cy) = (self.chain(x), self.chain(y));
        let y_at = cx.blocks.get(k).map_or(cx.size, |&b| self.place[b].off);
        self.score_segments(
            [
                (&cx.blocks[..k], 0),
                (&cy.blocks, y_at),
                (&cx.blocks[k..], cy.size),
            ],
            |p| {
                if p.chain == x {
                    Some(if p.idx < k { p.off } else { p.off + cy.size })
                } else if p.chain == y {
                    Some(y_at + p.off)
                } else {
                    None
                }
            },
        )
    }

    fn chain(&self, c: usize) -> &Chain {
        self.chains[c].as_ref().expect("live chain")
    }

    /// Whether `X1 · Y · X2` split at `k` keeps the entry block first
    /// (or does not contain it).
    fn entry_ok(&self, x: usize, y: usize, k: usize) -> bool {
        let e = self.place[self.entry_idx];
        if e.chain == x {
            e.idx == 0 && k > 0
        } else if e.chain == y {
            e.idx == 0 && k == 0
        } else {
            true
        }
    }

    /// Enumerates merge variants of chains `x` and `y` and returns the
    /// best `(gain, split)` if any is valid and positive. A variant is
    /// fully scored only when its bound says it could replace the
    /// running best.
    fn best_merge(&self, x: usize, y: usize) -> Option<(f64, usize)> {
        SCRATCH.with_borrow_mut(|scratch| self.best_merge_in(x, y, scratch))
    }

    fn best_merge_in(
        &self,
        x: usize,
        y: usize,
        scratch: &mut MergeScratch,
    ) -> Option<(f64, usize)> {
        let len = self.chain(x).blocks.len();
        let splits = len <= self.params.chain_split_threshold;
        let base = self.chain(x).score + self.chain(y).score;
        let slack = scratch.load(self, x, y, splits);
        let mut best: Option<(f64, usize)> = None;
        let mut consider = |k: usize, split: usize| {
            if !self.entry_ok(x, y, k) {
                return;
            }
            let threshold = best.map_or(0.0, |(g, _)| g) + 1e-9;
            let cannot_win = scratch.estimate(self, x, k) + slack <= threshold;
            #[cfg(test)]
            SCORINGS.with(|c| {
                let (candidates, full) = c.get();
                c.set((candidates + 1, full + u64::from(!cannot_win)));
            });
            if cannot_win {
                #[cfg(test)]
                assert!(
                    self.score_merged(x, y, k) - base <= threshold,
                    "the bound skipped a variant that wins: ({x}, {y}, {k})"
                );
                return;
            }
            let gain = self.score_merged(x, y, k) - base;
            if gain > threshold {
                best = Some((gain, split));
            }
        };
        // concat(x, y)
        consider(len, usize::MAX);
        // Splits of x with y inserted: X1 Y X2; a split at 0 is
        // concat(y, x), which a chain too large to split still gets.
        if splits {
            for k in 0..len {
                consider(k, k);
            }
        } else {
            consider(0, 0);
        }
        best
    }

    /// Applies the merge described by `(x, y, split)`.
    fn apply(&mut self, x: usize, y: usize, split: usize) {
        let k = if split == usize::MAX {
            self.chain(x).blocks.len()
        } else {
            split
        };
        let score = self.score_merged(x, y, k);
        let cy = self.chains[y].take().expect("live chain");
        let cx = self.chains[x].as_mut().expect("live chain");
        cx.blocks.splice(k..k, cy.blocks);
        cx.version += 1;
        cx.size += cy.size;
        cx.score = score;
        let mut off = match k.checked_sub(1) {
            Some(prev) => self.place[cx.blocks[prev]].off + self.sizes[cx.blocks[prev]],
            None => 0,
        };
        for (idx, &b) in cx.blocks.iter().enumerate().skip(k) {
            self.place[b] = Place { chain: x, idx, off };
            off += self.sizes[b];
        }
        // Neighbors: y's become x's, the smaller list folded into the
        // larger.
        let ny = std::mem::take(&mut self.neighbors[y]);
        let nx = std::mem::take(&mut self.neighbors[x]);
        for &n in ny.iter().filter(|&&n| n != x) {
            let list = &mut self.neighbors[n];
            if let Ok(i) = list.binary_search(&y) {
                list.remove(i);
            }
            if let Err(i) = list.binary_search(&x) {
                list.insert(i, x);
            }
        }
        let (mut merged, small) = if nx.len() >= ny.len() {
            (nx, ny)
        } else {
            (ny, nx)
        };
        for n in small {
            if let Err(i) = merged.binary_search(&n) {
                merged.insert(i, n);
            }
        }
        merged.retain(|&n| n != x && n != y);
        self.neighbors[x] = merged;
    }
}

/// An edge between the two chains of a candidate pair, with where its
/// ends sit in their own chains.
#[derive(Copy, Clone)]
struct PairEdge {
    weight: u64,
    /// Whether the `x` end is the source.
    x_is_src: bool,
    /// Index of the `x` end in `x`: a split at `k ≤ x_idx` moves it
    /// behind `y`.
    x_idx: usize,
    x_off: u64,
    x_size: u64,
    y_off: u64,
    y_size: u64,
}

/// What [`Optimizer::best_merge`] needs to bound every variant of one
/// pair `(x, y)`: its `x`↔`y` edges and, per split `k`, the score the
/// edges inside `x` lose to it.
struct MergeScratch {
    /// `x → y` and `y → x` edges.
    pair: Vec<PairEdge>,
    /// `loss[k]` for `0 ≤ k < |x|` when `x` may split, else empty.
    loss: Vec<f64>,
    /// `|Y|` in bytes.
    y_size: u64,
}

thread_local! {
    /// The [`MergeScratch`] of the thread evaluating gains — the serial
    /// loop's, or one fan-out worker's — reused across pairs and runs,
    /// so evaluation allocates only while its buffers grow past the
    /// largest pair the thread has seen.
    static SCRATCH: std::cell::RefCell<MergeScratch> = const {
        std::cell::RefCell::new(MergeScratch {
            pair: Vec::new(),
            loss: Vec::new(),
            y_size: 0,
        })
    };
}

impl MergeScratch {
    /// Fills the scratch for the pair `(x, y)` (`splits`: whether `x`
    /// may split) and returns the `slack` that makes
    /// `estimate(k) + slack` an upper bound on the gain of variant `k`
    /// *as `best_merge` computes it in `f64`*.
    ///
    /// # Why the filter is exact
    ///
    /// Write `S(k)` for the merged score `score_merged(x, y, k)`. Its
    /// terms are the edges inside `x`, inside `y` and between them;
    /// every one is `≥ 0`. Against `score(X) + score(Y)`:
    /// - an edge inside `y`, or inside `x` not crossing the split,
    ///   keeps its distance, so `edge_score` returns the same `f64`;
    /// - an edge inside `x` whose ends sit on both sides of `k` keeps
    ///   its direction and its distance grows by `|Y|` (a zero-distance
    ///   fall-through becomes a jump of `|Y|`), and `edge_score` is
    ///   non-increasing in the distance — in `f64` too, since `d / win`,
    ///   `1 − ·` and the products are monotone roundings — so its term
    ///   drops by a `loss_e ≥ 0`;
    /// - an edge between `x` and `y` is scored here with `edge_score`
    ///   on the exact offsets `score_merged` uses, so its `f64` term is
    ///   the same one.
    ///
    /// So in exact arithmetic over those `f64` terms,
    /// `Σterms(S(k)) = Σterms(X) + Σterms(Y) + Σ_{x↔y}(k) − Σ_{e crosses k} loss_e`,
    /// and `estimate(k)` computes the last two sums. What remains is
    /// rounding. Let `u = 2⁻⁵³` and
    /// `T = score(X) + score(Y) + Σ_{x↔y} w + Σ_e t_e` (`t_e` = the term
    /// of a crossing-capable edge before the split). Every term, every
    /// partial sum and every prefix of the loss array lies in `[−T, T]`
    /// (each `x↔y` term is at most `w as f64`, each loss at most its
    /// `t_e`), so each of the `m` roundings involved — `S(k)`,
    /// `score(X)`, `score(Y)` and `base` as the optimizer sums them;
    /// the `x↔y` sum, the losses, the difference array and its prefix
    /// sums and the final subtractions here; `estimate + slack` — is
    /// off by at most `u·T`. Hence
    /// `S(k) − base ≤ estimate(k) + m·u·T` in exact arithmetic and, as
    /// `slack = 4·m·u·T` leaves `3·m·u·T` for the rounding of `T` itself
    /// and of the comparison, `fl(estimate + slack) ≤ threshold` implies
    /// `S(k) − base ≤ threshold`, so the rounded gain cannot exceed
    /// `threshold` (a representable number) either: the variant could
    /// not have replaced `best`. The bound never assumes weights below
    /// 2⁵³: `w as f64` rounds the same way on both sides.
    fn load(&mut self, opt: &Optimizer<'_>, x: usize, y: usize, splits: bool) -> f64 {
        let (cx, cy) = (opt.chain(x), opt.chain(y));
        let params = opt.params;
        self.pair.clear();
        self.loss.clear();
        if splits {
            self.loss.resize(cx.blocks.len(), 0.0);
        }
        self.y_size = cy.size;
        let mut magnitude = cx.score + cy.score;
        // Roundings: base, estimate − loss, estimate + slack, and the
        // prefix sums; the rest are counted per edge below.
        let mut roundings = 3 + self.loss.len();
        for (xi, &b) in cx.blocks.iter().enumerate() {
            let end = opt.place[b].off + opt.sizes[b];
            for &(other, weight) in &opt.out[b] {
                let p = opt.place[other];
                if p.chain == x {
                    // Its term in S(k) and in score(X).
                    roundings += 2;
                    if splits && p.idx != xi {
                        let kept = edge_score(params, weight, end, p.off);
                        let moved = if xi < p.idx {
                            edge_score(params, weight, end, p.off + cy.size)
                        } else {
                            edge_score(params, weight, end + cy.size, p.off)
                        };
                        let (lo, hi) = (xi.min(p.idx), xi.max(p.idx));
                        // Crosses every split k in lo+1 ..= hi.
                        self.loss[lo + 1] += kept - moved;
                        if let Some(l) = self.loss.get_mut(hi + 1) {
                            *l -= kept - moved;
                        }
                        magnitude += kept;
                        roundings += 3;
                    }
                } else if p.chain == y {
                    self.pair.push(PairEdge {
                        weight,
                        x_is_src: true,
                        x_idx: xi,
                        x_off: opt.place[b].off,
                        x_size: opt.sizes[b],
                        y_off: p.off,
                        y_size: opt.sizes[other],
                    });
                }
            }
        }
        for &b in &cy.blocks {
            for &(other, weight) in &opt.out[b] {
                let p = opt.place[other];
                if p.chain == y {
                    roundings += 2;
                } else if p.chain == x {
                    self.pair.push(PairEdge {
                        weight,
                        x_is_src: false,
                        x_idx: p.idx,
                        x_off: p.off,
                        x_size: opt.sizes[other],
                        y_off: opt.place[b].off,
                        y_size: opt.sizes[b],
                    });
                }
            }
        }
        for k in 1..self.loss.len() {
            self.loss[k] += self.loss[k - 1];
        }
        for e in &self.pair {
            // Its term in S(k) and in the estimate.
            roundings += 2;
            magnitude += e.weight as f64;
        }
        4.0 * roundings as f64 * (f64::EPSILON / 2.0) * magnitude
    }

    /// The split-dependent part of the gain of variant `k` of the
    /// loaded pair (`k = |x|`: concatenation): the `x↔y` terms minus
    /// the crossing losses.
    fn estimate(&self, opt: &Optimizer<'_>, x: usize, k: usize) -> f64 {
        let cx = opt.chain(x);
        let y_at = cx.blocks.get(k).map_or(cx.size, |&b| opt.place[b].off);
        let mut gain = 0.0;
        for e in &self.pair {
            let x_at = if e.x_idx < k {
                e.x_off
            } else {
                e.x_off + self.y_size
            };
            let y_pos = y_at + e.y_off;
            gain += if e.x_is_src {
                edge_score(opt.params, e.weight, x_at + e.x_size, y_pos)
            } else {
                edge_score(opt.params, e.weight, y_pos + e.y_size, x_at)
            };
        }
        gain - self.loss.get(k).copied().unwrap_or(0.0)
    }
}

/// The best live, version-fresh, positive-gain candidate currently in
/// `heap`, as the rejected-alternative record. A linear scan over the
/// heap's backing store: selection by the total [`HeapEntry`] order, so
/// the result is independent of the heap's internal arrangement — and
/// the heap itself is never touched, so arming provenance cannot
/// perturb the merge sequence.
fn best_queued_alternative(opt: &Optimizer<'_>, heap: &BinaryHeap<HeapEntry>) -> Option<RejectedAlt> {
    let mut best: Option<&HeapEntry> = None;
    for e in heap.iter() {
        if e.gain <= 1e-9 || opt.chains[e.x].is_none() || opt.chains[e.y].is_none() {
            continue;
        }
        if opt.chain(e.x).version != e.vx || opt.chain(e.y).version != e.vy {
            continue;
        }
        if best.is_none_or(|b| e.cmp(b) == Ordering::Greater) {
            best = Some(e);
        }
    }
    best.map(|e| RejectedAlt {
        x: e.x,
        y: e.y,
        gain: e.gain,
        split: (e.split != usize::MAX).then_some(e.split),
    })
}

/// Estimated work units (≈ 5 ns each) every worker thread of a gain
/// batch must have before the batch is fanned out. [`eval_pairs`]
/// charges a pair `20 + 6·(|x| + |y|)`: a least-squares fit over the
/// 1 908 batches of ≥ 200 blocks in the benchmark's `refresh_interproc`
/// gave ≈ 104 ns per pair plus ≈ 27 ns per block of the two chains.
/// Measured on a 2-vCPU VM, where spawning and joining two scoped
/// threads costs ≈ 60 µs: batches of 2¹⁷–2¹⁹ units (1–3 ms inline) ran
/// about 25 % slower split over two workers than inline, and from 2¹⁹
/// up (3–6 ms) only broke even; at 2¹⁶ per thread the default-scale
/// `ablation-interproc` fanned out nine batches of its 782-section
/// layout and took 65 ms at `jobs = 2` against 63 ms at `jobs = 1`.
const WORK_PER_THREAD: u64 = 1 << 18;

#[cfg(test)]
thread_local! {
    /// Batches this thread fanned out, so tests can tell the parallel
    /// path was really taken.
    static FAN_OUTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// `(candidates, full scorings)` of the merge variants this thread
    /// evaluated: variants past `entry_ok`, and those the bound could
    /// not rule out.
    static SCORINGS: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// Evaluates [`Optimizer::best_merge`] for every ordered pair in
/// `pairs`, returning results in `pairs` order. With `jobs > 1` and
/// enough estimated work per worker (from the chain lengths alone, so
/// the decision is a function of the input) the pair list is cut into
/// contiguous chunks evaluated on scoped worker threads and the
/// per-chunk results are concatenated in chunk order — `best_merge` is
/// read-only, so the output is byte-for-byte the same as the serial
/// evaluation regardless of thread interleaving.
fn eval_pairs(
    opt: &Optimizer<'_>,
    pairs: &[(usize, usize)],
    jobs: usize,
) -> Vec<Option<(f64, usize)>> {
    let work = |&(x, y): &(usize, usize)| -> u64 {
        20 + 6 * (opt.chain(x).blocks.len() + opt.chain(y).blocks.len()) as u64
    };
    let workers = if jobs > 1 {
        let affordable = pairs.iter().map(work).sum::<u64>() / WORK_PER_THREAD;
        jobs.min(pairs.len())
            .min(usize::try_from(affordable).unwrap_or(usize::MAX))
    } else {
        1
    };
    if workers <= 1 {
        return pairs.iter().map(|&(x, y)| opt.best_merge(x, y)).collect();
    }
    #[cfg(test)]
    FAN_OUTS.with(|c| c.set(c.get() + 1));
    let chunk = pairs.len().div_ceil(workers);
    let mut out = Vec::with_capacity(pairs.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = pairs
            .chunks(chunk)
            .map(|c| {
                s.spawn(move || {
                    c.iter()
                        .map(|&(x, y)| opt.best_merge(x, y))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            // `best_merge` only panics on a dead chain, which callers
            // never pass; a panic here is a bug worth propagating.
            out.extend(h.join().expect("gain evaluation does not panic"));
        }
    });
    out
}

/// One committed chain merge, in commit order — the provenance trail
/// explaining how a final layout was assembled.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct MergeRecord {
    /// Ext-TSP score gained by this merge.
    pub gain: f64,
    /// Whether the merge split the receiving chain (X1 Y X2) rather
    /// than concatenating.
    pub split: bool,
}

/// The best still-valid merge candidate left in the queue at the moment
/// another candidate was committed — the decision the optimizer
/// *rejected* by choosing the winner.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct RejectedAlt {
    /// Receiving chain id (dense node index of its founding block).
    pub x: usize,
    /// Absorbed chain id.
    pub y: usize,
    /// The gain this alternative would have realized.
    pub gain: f64,
    /// Split position into `x`, `None` for plain concatenation.
    pub split: Option<usize>,
}

/// One committed merge with enough context to replay it exactly: which
/// chain absorbed which, at what split point, and what the best
/// rejected alternative was at that moment.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct MergeStep {
    /// Receiving chain id (dense node index of its founding block).
    pub x: usize,
    /// Absorbed chain id.
    pub y: usize,
    /// Ext-TSP score gained.
    pub gain: f64,
    /// Split position into `x` (lay out X1 Y X2), `None` for
    /// concatenation.
    pub split: Option<usize>,
    /// The best live, up-to-date candidate still queued when this merge
    /// committed — `None` when the queue held no other valid
    /// positive-gain candidate.
    pub rejected: Option<RejectedAlt>,
}

/// Full candidate-level provenance of one optimizer run, collected only
/// when armed via [`MergeLog::with_detail`] — every committed step in
/// replayable form plus the count of candidate evaluations performed
/// (so rejected work is `evaluations - steps.len()`).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct MergeDetail {
    /// Committed merges with replay context, in commit order.
    pub steps: Vec<MergeStep>,
    /// Total candidate merge evaluations performed (accepted and
    /// rejected alike).
    pub evaluations: u64,
}

/// What one [`order_nodes_logged`] run did, for provenance reporting.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct MergeLog {
    /// Every committed merge, in order.
    pub merges: Vec<MergeRecord>,
    /// Ext-TSP score of the returned layout.
    pub final_score: f64,
    /// Ext-TSP score of the input (compiler) order.
    pub input_score: f64,
    /// Whether the optimizer's layout scored below the input order and
    /// the input order was returned instead.
    pub used_input_order: bool,
    /// Candidate-level detail; collected only when the log was armed
    /// with [`MergeLog::with_detail`].
    pub detail: Option<MergeDetail>,
}

impl MergeLog {
    /// A log armed for candidate-level provenance collection.
    pub fn with_detail() -> MergeLog {
        MergeLog {
            detail: Some(MergeDetail::default()),
            ..MergeLog::default()
        }
    }
}

/// The chains a recorded merge sequence builds, one step at a time,
/// from fresh singleton chains — the one replay rule behind
/// [`replay_merges`] and the doctor's `explain`.
#[derive(Debug)]
pub struct ChainReplay {
    /// Per chain id (dense index of its founding node): its nodes in
    /// order, `None` once absorbed.
    chains: Vec<Option<Vec<usize>>>,
}

impl ChainReplay {
    /// `n` singleton chains: chain `i` holds node `i`.
    pub fn new(n: usize) -> ChainReplay {
        ChainReplay {
            chains: (0..n).map(|i| Some(vec![i])).collect(),
        }
    }

    /// Lays chain `step.y` into chain `step.x` — after `x`'s first
    /// `split` nodes, or at its end for a concatenation — and returns
    /// the merged chain.
    ///
    /// # Errors
    ///
    /// Reports a structurally impossible step (a chain id out of range
    /// or already absorbed, a chain absorbing itself, a split beyond
    /// the receiving chain); the chains are then left as they were.
    pub fn apply(&mut self, step: &MergeStep) -> Result<&[usize], String> {
        let (x, y) = (step.x, step.y);
        let live = |c: usize| self.chains.get(c).and_then(Option::as_ref);
        let len = live(x)
            .ok_or_else(|| format!("receiving chain {x} is out of range or already dead"))?
            .len();
        if x == y || live(y).is_none() {
            return Err(format!("absorbed chain {y} is out of range or already dead"));
        }
        let k = step.split.unwrap_or(len);
        if k > len {
            return Err(format!("split {k} beyond chain length {len}"));
        }
        let absorbed = self.chains[y].take().unwrap_or_default();
        let merged = self.chains[x].get_or_insert_with(Vec::new);
        merged.splice(k..k, absorbed);
        Ok(merged)
    }
}

/// Replays a recorded merge sequence over fresh singleton chains and
/// reassembles the final node order with the exact rule the optimizer
/// uses (entry chain first, remaining chains by descending density,
/// ties by founding block). Returns the reconstructed order, which must
/// equal what [`order_nodes_logged`] returned when it recorded `steps`
/// (unless that run fell back to the input order).
///
/// # Errors
///
/// Reports the first structurally impossible step (dead chain, split
/// out of range) or a missing entry node.
pub fn replay_merges(nodes: &[Node], entry: u32, steps: &[MergeStep]) -> Result<Vec<u32>, String> {
    let entry_idx = nodes
        .iter()
        .position(|n| n.id == entry)
        .ok_or_else(|| format!("entry node {entry} not in node list"))?;
    let mut replay = ChainReplay::new(nodes.len());
    for (si, s) in steps.iter().enumerate() {
        replay.apply(s).map_err(|e| format!("step {si}: {e}"))?;
    }
    let chains = replay.chains;
    let entry_chain = chains
        .iter()
        .position(|c| c.as_ref().is_some_and(|b| b.contains(&entry_idx)))
        .ok_or("entry block lost during replay")?;
    let mut rest: Vec<usize> = Vec::new();
    for (ci, c) in chains.iter().enumerate() {
        if c.is_some() && ci != entry_chain {
            rest.push(ci);
        }
    }
    let density = |ci: usize| -> f64 {
        let blocks = chains[ci].as_ref().expect("live chain");
        let count = blocks
            .iter()
            .fold(0u64, |s, &b| s.saturating_add(nodes[b].count));
        let size: u64 = blocks
            .iter()
            .map(|&b| nodes[b].size as u64)
            .sum::<u64>()
            .max(1);
        count as f64 / size as f64
    };
    rest.sort_by(|&a, &b| {
        density(b)
            .total_cmp(&density(a))
            .then_with(|| chains[a].as_ref().unwrap()[0].cmp(&chains[b].as_ref().unwrap()[0]))
    });
    let mut order = Vec::with_capacity(nodes.len());
    for &b in chains[entry_chain].as_ref().expect("entry chain") {
        order.push(nodes[b].id);
    }
    for ci in rest {
        for &b in chains[ci].as_ref().expect("live chain") {
            order.push(nodes[b].id);
        }
    }
    Ok(order)
}

/// Orders `nodes` to maximize the Ext-TSP score, keeping `entry` first.
///
/// Nodes never observed in an edge stay in their own chains and are
/// appended in descending density order after the merged hot chains.
///
/// # Panics
///
/// Panics if `entry` is not among `nodes` or ids are duplicated.
pub fn order_nodes(nodes: &[Node], edges: &[Edge], entry: u32, params: &ExtTspParams) -> Vec<u32> {
    order_nodes_logged(
        nodes,
        edges,
        entry,
        params,
        &propeller_telemetry::Telemetry::disabled(),
        None,
    )
}

/// [`order_nodes`], recording an `exttsp.merges` counter and an
/// `exttsp.merge_gain` histogram (the score gain of every chain merge
/// the optimizer commits) into `tel`, and filling `log` (when given)
/// with the committed merges and the final-vs-input layout scores.
///
/// # Panics
///
/// Same as [`order_nodes`].
pub fn order_nodes_logged(
    nodes: &[Node],
    edges: &[Edge],
    entry: u32,
    params: &ExtTspParams,
    tel: &propeller_telemetry::Telemetry,
    mut log: Option<&mut MergeLog>,
) -> Vec<u32> {
    assert!(!nodes.is_empty(), "need at least one node");
    let dense = dense_index(nodes);
    assert_eq!(dense.len(), nodes.len(), "duplicate node id");
    let entry_idx = *dense.get(&entry).expect("entry must be a node");
    let graph = DenseGraph::new(nodes, edges, &dense);
    let mut opt = Optimizer::new(&graph, entry_idx, params);

    let mut heap = BinaryHeap::new();
    // Evaluates a batch of pairs and pushes the results in submission
    // order — the heap sees the exact sequence the serial code would
    // have pushed, so the pop order (and every tie-break) is
    // independent of `params.jobs`.
    let push_evaluated =
        |opt: &Optimizer, heap: &mut BinaryHeap<HeapEntry>, ordered: &[(usize, usize)]| {
            let evals = eval_pairs(opt, ordered, params.jobs);
            for (&(x, y), ev) in ordered.iter().zip(evals) {
                if let Some((gain, split)) = ev {
                    heap.push(HeapEntry {
                        gain,
                        x,
                        y,
                        vx: opt.chain(x).version,
                        vy: opt.chain(y).version,
                        split,
                    });
                }
            }
        };
    let detail_on = log.as_deref().is_some_and(|l| l.detail.is_some());
    // Neighbor lists ascend, so this is every adjacent unordered pair
    // in ascending `(x, y)` order, both directions each.
    let ordered: Vec<(usize, usize)> = (0..nodes.len())
        .flat_map(|x| opt.neighbors[x].iter().map(move |&y| (x, y)))
        .filter(|&(x, y)| x < y)
        .flat_map(|(x, y)| [(x, y), (y, x)])
        .collect();
    let mut evaluations = ordered.len() as u64;
    push_evaluated(&opt, &mut heap, &ordered);

    let mut merges = 0u64;
    while let Some(entry) = heap.pop() {
        if entry.gain <= 1e-9 {
            break;
        }
        let (x, y) = (entry.x, entry.y);
        if opt.chains[x].is_none() || opt.chains[y].is_none() {
            continue;
        }
        if opt.chain(x).version != entry.vx || opt.chain(y).version != entry.vy {
            // Stale: recompute and requeue.
            evaluations += 1;
            push_evaluated(&opt, &mut heap, &[(x, y)]);
            continue;
        }
        // The rejected alternative must be read before `apply` bumps
        // chain versions (a read-only heap scan, so the merge sequence
        // is identical whether or not detail is armed).
        let rejected = if detail_on {
            best_queued_alternative(&opt, &heap)
        } else {
            None
        };
        opt.apply(x, y, entry.split);
        merges += 1;
        if tel.is_enabled() {
            tel.observe("exttsp.merge_gain", entry.gain);
        }
        if let Some(log) = log.as_deref_mut() {
            log.merges.push(MergeRecord {
                gain: entry.gain,
                split: entry.split != usize::MAX,
            });
            if let Some(detail) = log.detail.as_mut() {
                detail.steps.push(MergeStep {
                    x,
                    y,
                    gain: entry.gain,
                    split: (entry.split != usize::MAX).then_some(entry.split),
                    rejected,
                });
            }
        }
        let ordered: Vec<(usize, usize)> = opt.neighbors[x]
            .iter()
            .flat_map(|&n| [(x, n), (n, x)])
            .collect();
        evaluations += ordered.len() as u64;
        push_evaluated(&opt, &mut heap, &ordered);
    }
    if let Some(detail) = log.as_deref_mut().and_then(|l| l.detail.as_mut()) {
        detail.evaluations = evaluations;
    }

    if tel.is_enabled() && merges > 0 {
        tel.counter_add("exttsp.merges", merges);
    }

    // Assemble: entry chain first, then remaining chains by density.
    let entry_chain = opt.place[entry_idx].chain;
    let mut rest: Vec<(f64, &Chain)> = opt
        .chains
        .iter()
        .enumerate()
        .filter(|&(ci, _)| ci != entry_chain)
        .filter_map(|(_, c)| c.as_ref())
        .map(|c| {
            let count = c
                .blocks
                .iter()
                .fold(0u64, |s, &b| s.saturating_add(nodes[b].count));
            (count as f64 / c.size.max(1) as f64, c)
        })
        .collect();
    rest.sort_by(|a, b| {
        b.0.total_cmp(&a.0)
            .then_with(|| a.1.blocks[0].cmp(&b.1.blocks[0]))
    });
    let order: Vec<usize> = std::iter::once(opt.chain(entry_chain))
        .chain(rest.into_iter().map(|(_, c)| c))
        .flat_map(|c| c.blocks.iter().copied())
        .collect();

    // Greedy chain merging can lock in early merges and end up scoring
    // below the incoming (original) order on loop-dense graphs. Never
    // return a layout worse than the one the compiler already had.
    let merged_score = graph.score(order.iter().copied(), params);
    let input_score = graph.score(0..nodes.len(), params);
    let fall_back = entry_idx == 0 && merged_score + 1e-9 < input_score;
    if let Some(log) = log {
        log.input_score = input_score;
        log.final_score = if fall_back { input_score } else { merged_score };
        log.used_input_order = fall_back;
    }
    if fall_back {
        return nodes.iter().map(|n| n.id).collect();
    }
    order.into_iter().map(|b| nodes[b].id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(sizes: &[(u32, u32, u64)]) -> Vec<Node> {
        sizes
            .iter()
            .map(|&(id, size, count)| Node { id, size, count })
            .collect()
    }

    fn edge(src: u32, dst: u32, weight: u64) -> Edge {
        Edge { src, dst, weight }
    }

    #[test]
    fn hot_path_becomes_fallthrough_chain() {
        // 0 -> 2 hot, 0 -> 1 cold, both -> 3. Original order 0,1,2,3.
        let ns = nodes(&[(0, 20, 100), (1, 20, 5), (2, 20, 95), (3, 20, 100)]);
        let es = vec![
            edge(0, 1, 5),
            edge(0, 2, 95),
            edge(1, 3, 5),
            edge(2, 3, 95),
        ];
        let order = order_nodes(&ns, &es, 0, &ExtTspParams::default());
        assert_eq!(order[0], 0);
        // 2 must directly follow 0; 3 follows 2.
        let p2 = order.iter().position(|&b| b == 2).unwrap();
        let p3 = order.iter().position(|&b| b == 3).unwrap();
        assert_eq!(p2, 1, "hot successor adjacent: {order:?}");
        assert_eq!(p3, 2, "chain continues: {order:?}");
        // Score is at least the original order's.
        let base = score_layout(&[0, 1, 2, 3], &ns, &es, &ExtTspParams::default());
        let opt = score_layout(&order, &ns, &es, &ExtTspParams::default());
        assert!(opt >= base);
    }

    #[test]
    fn entry_stays_first_even_with_hot_incoming_edges() {
        // A loop back edge 2 -> 0 would love to put 2 before 0.
        let ns = nodes(&[(0, 10, 100), (1, 10, 100), (2, 10, 100)]);
        let es = vec![edge(0, 1, 100), edge(1, 2, 100), edge(2, 0, 99)];
        let order = order_nodes(&ns, &es, 0, &ExtTspParams::default());
        assert_eq!(order[0], 0, "{order:?}");
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn isolated_nodes_appended_by_density() {
        let ns = nodes(&[(0, 10, 10), (7, 10, 0), (8, 10, 500)]);
        let es = vec![];
        let order = order_nodes(&ns, &es, 0, &ExtTspParams::default());
        assert_eq!(order, vec![0, 8, 7]);
    }

    #[test]
    fn split_merge_beats_concat_for_sandwiched_callout() {
        // Chain 0-1 exists (hot). Node 2 is hottest between 0 and 1:
        // 0->2 (100), 2->1 (100), 0->1 (10). Best layout: 0,2,1 which
        // needs splitting the (0,1) chain if it formed first.
        let ns = nodes(&[(0, 10, 110), (1, 10, 110), (2, 10, 100)]);
        let es = vec![edge(0, 1, 30), edge(0, 2, 100), edge(2, 1, 100)];
        let order = order_nodes(&ns, &es, 0, &ExtTspParams::default());
        assert_eq!(order, vec![0, 2, 1]);
    }

    #[test]
    fn score_layout_prefers_fallthrough() {
        let ns = nodes(&[(0, 10, 1), (1, 10, 1)]);
        let es = vec![edge(0, 1, 10)];
        let p = ExtTspParams::default();
        let adjacent = score_layout(&[0, 1], &ns, &es, &p);
        let reversed = score_layout(&[1, 0], &ns, &es, &p);
        assert!((adjacent - 10.0).abs() < 1e-9);
        // Backward jump of distance 20 scores 0.1 * (1 - 20/640) * 10.
        let expected = 10.0 * 0.1 * (1.0 - 20.0 / 640.0);
        assert!((reversed - expected).abs() < 1e-9);
        assert!(adjacent > reversed);
    }

    #[test]
    fn forward_window_cutoff() {
        let ns = nodes(&[(0, 10, 1), (1, 2000, 1), (2, 10, 1)]);
        let es = vec![edge(0, 2, 10)];
        let p = ExtTspParams::default();
        // 0 .. 1(2000 bytes) .. 2: forward distance 2000 > 1024 -> 0.
        assert_eq!(score_layout(&[0, 1, 2], &ns, &es, &p), 0.0);
    }

    #[test]
    fn deterministic_output() {
        let ns: Vec<Node> = (0..30)
            .map(|i| Node {
                id: i,
                size: 16 + (i % 7),
                count: (i as u64 * 37) % 100,
            })
            .collect();
        let es: Vec<Edge> = (0..29)
            .map(|i| edge(i, i + 1, ((i as u64 * 13) % 50) + 1))
            .chain((0..10).map(|i| edge(i * 2, (i * 3 + 5) % 30, 40)))
            .collect();
        let a = order_nodes(&ns, &es, 0, &ExtTspParams::default());
        let b = order_nodes(&ns, &es, 0, &ExtTspParams::default());
        assert_eq!(a, b);
        assert_eq!(a.len(), 30);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..30).collect::<Vec<_>>(), "permutation");
    }

    #[test]
    fn merge_log_records_commits_and_scores() {
        let ns = nodes(&[(0, 20, 100), (1, 20, 5), (2, 20, 95), (3, 20, 100)]);
        let es = vec![
            edge(0, 1, 5),
            edge(0, 2, 95),
            edge(1, 3, 5),
            edge(2, 3, 95),
        ];
        let p = ExtTspParams::default();
        let mut log = MergeLog::default();
        let order = order_nodes_logged(
            &ns,
            &es,
            0,
            &p,
            &propeller_telemetry::Telemetry::disabled(),
            Some(&mut log),
        );
        assert!(!log.merges.is_empty());
        assert!(log.merges.iter().all(|m| m.gain > 0.0));
        assert!((log.final_score - score_layout(&order, &ns, &es, &p)).abs() < 1e-9);
        assert!(log.final_score >= log.input_score - 1e-9);
        assert!(!log.used_input_order);
    }

    #[test]
    #[should_panic(expected = "entry must be a node")]
    fn unknown_entry_panics() {
        order_nodes(&nodes(&[(0, 1, 0)]), &[], 9, &ExtTspParams::default());
    }

    #[test]
    fn equal_gain_candidates_pop_by_stable_key_not_insertion_order() {
        // The tie-break audit: equal-gain heap entries must order by
        // the stable (x, y, split) key — smaller ids first — no matter
        // what order they were pushed in. Provenance replay and the
        // --jobs byte-identity gates depend on this.
        let entry = |x: usize, y: usize, split: usize| HeapEntry {
            gain: 1.0,
            x,
            y,
            vx: 0,
            vy: 0,
            split,
        };
        let a = entry(0, 1, usize::MAX);
        let b = entry(0, 2, usize::MAX);
        let c = entry(1, 0, usize::MAX);
        let d = entry(0, 1, 1);
        // Pairwise: smaller x wins, then smaller y, then smaller split.
        assert_eq!(a.cmp(&c), Ordering::Greater, "smaller x pops first");
        assert_eq!(a.cmp(&b), Ordering::Greater, "smaller y pops first");
        assert_eq!(d.cmp(&a), Ordering::Greater, "smaller split pops first");
        // `Eq` agrees with `Ord`: equal gain alone is not equality.
        for (p, q) in [(&a, &b), (&a, &c), (&a, &d), (&a, &a)] {
            assert_eq!(p == q, p.cmp(q) == Ordering::Equal);
        }
        assert!(a != d && a == entry(0, 1, usize::MAX));
        for perm in [
            vec![&a, &b, &c, &d],
            vec![&d, &c, &b, &a],
            vec![&b, &d, &a, &c],
        ] {
            let mut heap = BinaryHeap::new();
            for e in perm {
                heap.push(*e);
            }
            let popped: Vec<(usize, usize, usize)> = std::iter::from_fn(|| heap.pop())
                .map(|e| (e.x, e.y, e.split))
                .collect();
            assert_eq!(
                popped,
                vec![
                    (0, 1, 1),
                    (0, 1, usize::MAX),
                    (0, 2, usize::MAX),
                    (1, 0, usize::MAX)
                ],
                "pop order must be the stable key order"
            );
        }
    }

    #[test]
    fn equal_gain_merge_commits_smallest_chain_ids() {
        // Two disjoint, perfectly symmetric hot pairs: (1,2) and (3,4)
        // have identical merge gains, so the tie-break alone decides
        // which commits first — it must be the smaller chain ids.
        let ns = nodes(&[(0, 10, 1), (1, 10, 50), (2, 10, 50), (3, 10, 50), (4, 10, 50)]);
        let es = vec![edge(1, 2, 40), edge(3, 4, 40), edge(0, 1, 1), edge(0, 3, 1)];
        let mut log = MergeLog::with_detail();
        order_nodes_logged(
            &ns,
            &es,
            0,
            &ExtTspParams::default(),
            &propeller_telemetry::Telemetry::disabled(),
            Some(&mut log),
        );
        let steps = &log.detail.as_ref().unwrap().steps;
        let first_hot = steps
            .iter()
            .find(|s| (s.gain - 40.0).abs() < 1e-6)
            .expect("a full-weight fallthrough merge committed");
        assert_eq!((first_hot.x, first_hot.y), (1, 2), "{steps:?}");
    }

    #[test]
    fn detail_arming_never_changes_the_layout_or_merge_sequence() {
        let ns: Vec<Node> = (0..40)
            .map(|i| Node {
                id: i,
                size: 14 + (i % 5),
                count: (i as u64 * 29) % 90,
            })
            .collect();
        let es: Vec<Edge> = (0..39)
            .map(|i| edge(i, i + 1, ((i as u64 * 23) % 70) + 1))
            .chain((0..15).map(|i| edge((i * 7) % 40, (i * 3 + 2) % 40, 30)))
            .collect();
        let p = ExtTspParams::default();
        let tel = propeller_telemetry::Telemetry::disabled();
        let mut plain = MergeLog::default();
        let a = order_nodes_logged(&ns, &es, 0, &p, &tel, Some(&mut plain));
        let mut armed = MergeLog::with_detail();
        let b = order_nodes_logged(&ns, &es, 0, &p, &tel, Some(&mut armed));
        assert_eq!(a, b, "arming detail must not perturb the layout");
        assert_eq!(plain.merges, armed.merges);
        let detail = armed.detail.unwrap();
        assert_eq!(detail.steps.len(), armed.merges.len());
        assert!(detail.evaluations >= detail.steps.len() as u64);
        // Each recorded step matches its terse record.
        for (s, m) in detail.steps.iter().zip(&armed.merges) {
            assert_eq!(s.gain, m.gain);
            assert_eq!(s.split.is_some(), m.split);
        }
        // At least one early step had a competing live candidate.
        assert!(detail.steps.iter().any(|s| s.rejected.is_some()));
        // A rejected alternative never beats the winner.
        for s in &detail.steps {
            if let Some(r) = &s.rejected {
                assert!(r.gain <= s.gain + 1e-9, "{s:?}");
            }
        }
    }

    #[test]
    fn replaying_recorded_steps_reconstructs_the_exact_order() {
        // Hot edges stride by two, so the input order scores poorly and
        // the optimizer's merged layout (two fall-through chains)
        // always wins — no input-order fallback.
        let ns: Vec<Node> = (0..20)
            .map(|i| Node {
                id: i,
                size: 16,
                count: 10 + (i as u64 % 4),
            })
            .collect();
        let es: Vec<Edge> = (0..18)
            .map(|i| edge(i, i + 2, 100 + (i as u64 % 3)))
            .chain([edge(0, 1, 1)])
            .collect();
        let mut log = MergeLog::with_detail();
        let order = order_nodes_logged(
            &ns,
            &es,
            0,
            &ExtTspParams::default(),
            &propeller_telemetry::Telemetry::disabled(),
            Some(&mut log),
        );
        assert!(!log.used_input_order);
        let replayed =
            replay_merges(&ns, 0, &log.detail.as_ref().unwrap().steps).expect("replay");
        assert_eq!(replayed, order);
        let mut sorted = replayed.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>(), "permutation");
    }

    #[test]
    fn a_chain_of_saturated_counts_stays_the_densest() {
        // Chain {1, 2} sums two counts past u64::MAX. Pinned, it is the
        // densest chain after the entry's; wrapped, it would read as
        // cold and trail node 3.
        let half = u64::MAX / 2 + 1;
        let ns = nodes(&[(0, 10, 1), (1, 10, half), (2, 10, half), (3, 10, 1000)]);
        let mut log = MergeLog::with_detail();
        let order = order_nodes_logged(
            &ns,
            &[edge(1, 2, 100)],
            0,
            &ExtTspParams::default(),
            &propeller_telemetry::Telemetry::disabled(),
            Some(&mut log),
        );
        assert_eq!(order, [0, 1, 2, 3]);
        let steps = &log.detail.as_ref().unwrap().steps;
        assert_eq!(replay_merges(&ns, 0, steps), Ok(order));
    }

    #[test]
    fn replay_rejects_malformed_steps() {
        let ns = nodes(&[(0, 10, 1), (1, 10, 1)]);
        let dead = MergeStep {
            x: 0,
            y: 1,
            gain: 1.0,
            split: None,
            rejected: None,
        };
        // Absorbing the same chain twice is impossible.
        assert!(replay_merges(&ns, 0, &[dead, dead]).is_err());
        let oob = MergeStep {
            x: 0,
            y: 5,
            gain: 1.0,
            split: None,
            rejected: None,
        };
        assert!(replay_merges(&ns, 0, &[oob]).is_err());
        let bad_split = MergeStep {
            x: 0,
            y: 1,
            gain: 1.0,
            split: Some(9),
            rejected: None,
        };
        assert!(replay_merges(&ns, 0, &[bad_split]).is_err());
        assert!(replay_merges(&ns, 9, &[]).is_err(), "unknown entry");
    }

    #[test]
    fn parallel_gain_evaluation_is_bit_identical_to_serial() {
        // Large enough that re-evaluations around long chains clear
        // `WORK_PER_THREAD` for several workers, with long-range
        // shortcuts so chains meet many others.
        let n = 1200u32;
        let ns: Vec<Node> = (0..n)
            .map(|i| Node {
                id: i,
                size: 12 + (i % 9),
                count: (i as u64 * 41) % 120,
            })
            .collect();
        let es: Vec<Edge> = (0..n - 1)
            .map(|i| edge(i, i + 1, ((i as u64 * 17) % 60) + 1))
            .chain((0..n / 2).map(|i| edge((i * 5) % n, (i * 7 + 3) % n, 35)))
            .chain((0..n / 4).map(|i| edge((i * 11 + 1) % n, (i * 2) % n, 50)))
            .collect();
        let tel = propeller_telemetry::Telemetry::disabled();
        let serial = ExtTspParams::default();
        let mut log1 = MergeLog::with_detail();
        let a = order_nodes_logged(&ns, &es, 0, &serial, &tel, Some(&mut log1));
        assert_eq!(FAN_OUTS.get(), 0, "jobs = 1 never spawns");
        for jobs in [2, 3, 8] {
            let parallel = ExtTspParams { jobs, ..serial };
            let before = FAN_OUTS.get();
            let mut log2 = MergeLog::with_detail();
            let b = order_nodes_logged(&ns, &es, 0, &parallel, &tel, Some(&mut log2));
            assert!(
                FAN_OUTS.get() > before,
                "the gate never opened at jobs={jobs}"
            );
            assert_eq!(a, b, "layout diverged at jobs={jobs}");
            assert_eq!(
                log_bits(&log1),
                log_bits(&log2),
                "merge log diverged at jobs={jobs}"
            );
        }
    }

    #[test]
    fn the_bound_leaves_few_variants_to_full_scoring_on_a_sparse_section_graph() {
        // Shaped like the benchmark's inter-procedural problem (166
        // sections, 212 edges), where 3 922 of 44 404 candidate variants
        // (8.8 %) are fully scored: sizes 3–501 bytes, median 78; half
        // the weights at most 4, one in twenty above 100; half the
        // edges between neighbouring sections (a function's clusters),
        // the rest calls up to about 100 sections away, 70 % forward;
        // page-scale windows; the densest section as entry. Without the
        // bound every candidate is scored.
        let mut rng = proptest::test_runner::TestRng::deterministic(29);
        let n = 170u32;
        let ns: Vec<Node> = (0..n)
            .map(|id| {
                let r = rng.u64_in(0, 1000);
                Node {
                    id,
                    size: (3 + r * r * r / 2_000_000) as u32,
                    count: rng.u64_in(0, 3000),
                }
            })
            .collect();
        let es: Vec<Edge> = (0..215)
            .map(|_| {
                let src = rng.u64_in(0, n as u64) as u32;
                let hop = if rng.u64_in(0, 100) < 55 {
                    1
                } else {
                    rng.u64_in(2, 100) as u32
                };
                let dst = if rng.u64_in(0, 100) < 70 {
                    (src + hop) % n
                } else {
                    (src + n - hop) % n
                };
                let weight = match rng.u64_in(0, 100) {
                    0..50 => rng.u64_in(1, 5),
                    50..76 => rng.u64_in(5, 17),
                    76..94 => rng.u64_in(17, 101),
                    _ => rng.u64_in(101, 1400),
                };
                edge(src, dst, weight)
            })
            .collect();
        let entry = ns
            .iter()
            .max_by(|a, b| {
                (a.count as f64 / a.size as f64).total_cmp(&(b.count as f64 / b.size as f64))
            })
            .map_or(0, |n| n.id);
        let params = ExtTspParams {
            forward_window: 4096,
            backward_window: 4096,
            ..ExtTspParams::default()
        };
        SCORINGS.set((0, 0));
        order_nodes(&ns, &es, entry, &params);
        let (candidates, full) = SCORINGS.get();
        assert!(candidates > 10_000, "a problem this size has many variants");
        assert!(
            full * 100 <= candidates * 15,
            "{full} of {candidates} variants fully scored"
        );
    }

    #[test]
    fn small_batches_stay_inline_at_any_job_count() {
        let ns = nodes(&[(0, 20, 100), (1, 20, 5), (2, 20, 95), (3, 20, 100)]);
        let es = vec![edge(0, 1, 5), edge(0, 2, 95), edge(1, 3, 5), edge(2, 3, 95)];
        let params = ExtTspParams {
            jobs: 8,
            ..ExtTspParams::default()
        };
        let before = FAN_OUTS.get();
        order_nodes(&ns, &es, 0, &params);
        assert_eq!(FAN_OUTS.get(), before);
    }

    #[test]
    fn score_layout_skips_ids_that_are_not_nodes() {
        let ns = nodes(&[(0, 10, 1), (1, 10, 1), (2, 10, 1)]);
        let es = vec![edge(0, 1, 10), edge(1, 2, 10), edge(7, 0, 99)];
        let p = ExtTspParams::default();
        let clean = score_layout(&[0, 1, 2], &ns, &es, &p);
        assert!((clean - 20.0).abs() < 1e-9);
        // An unknown id occupies no bytes and scores nothing.
        assert_eq!(score_layout(&[0, 9, 1, 2, 7], &ns, &es, &p), clean);
        assert_eq!(score_layout(&[9], &ns, &es, &p), 0.0);
    }

    /// A merge log with every float as its bit pattern, so comparisons
    /// are exact (and `-0.0`/`NaN` cannot hide a difference).
    fn log_bits(log: &MergeLog) -> impl PartialEq + std::fmt::Debug {
        let alt = |r: &RejectedAlt| (r.x, r.y, r.gain.to_bits(), r.split);
        let detail = log.detail.as_ref().expect("detail armed");
        (
            log.merges
                .iter()
                .map(|m| (m.gain.to_bits(), m.split))
                .collect::<Vec<_>>(),
            (
                log.final_score.to_bits(),
                log.input_score.to_bits(),
                log.used_input_order,
            ),
            detail
                .steps
                .iter()
                .map(|s| {
                    (
                        s.x,
                        s.y,
                        s.gain.to_bits(),
                        s.split,
                        s.rejected.as_ref().map(alt),
                    )
                })
                .collect::<Vec<_>>(),
            detail.evaluations,
        )
    }

    /// A random Ext-TSP problem: sparse ids, zero-sized nodes,
    /// self-loops, duplicate edges, edges to ids that are not nodes,
    /// any node as entry.
    fn random_problem(
        raw_nodes: &[(u32, u16)],
        raw_edges: &[(u16, u16, u64)],
        entry_pick: u16,
    ) -> (Vec<Node>, Vec<Edge>, u32) {
        let n = raw_nodes.len() as u32;
        let id = |i: u32| i * 3 + 1;
        let ns: Vec<Node> = raw_nodes
            .iter()
            .zip(0..)
            .map(|(&(size, count), i)| Node {
                id: id(i),
                size,
                count: count as u64,
            })
            .collect();
        // `% (n + 1)`: index n maps to an id no node has.
        let es: Vec<Edge> = raw_edges
            .iter()
            .map(|&(s, d, w)| edge(id(s as u32 % (n + 1)), id(d as u32 % (n + 1)), w))
            .collect();
        (ns, es, id(entry_pick as u32 % n))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(192))]

        /// The rewritten inner loop against the kept pre-rewrite
        /// implementation: same order, same log, every f64 to the bit.
        /// Besides plain draws, the regimes where the bound on skipped
        /// variants is tightest: one weight for every edge (exact ties,
        /// decided by the `(x, y, split)` key), weights where `w as f64`
        /// rounds (from 2⁵³ and just below `u64::MAX`), windows of 1–64
        /// bytes (many terms at or past the window edge), and up to 200
        /// nodes, so that chains grow past the split threshold.
        #[test]
        fn matches_the_reference_implementation_bit_for_bit(
            raw_nodes in proptest::collection::vec((0u32..300, proptest::any::<u16>()), 2..49),
            raw_edges in proptest::collection::vec(
                (proptest::any::<u16>(), proptest::any::<u16>(), 1u64..2000), 0..160),
            entry_pick in proptest::any::<u16>(),
            knobs in 0usize..6,
            weights in 0usize..4,
            windows in (0usize..2, 1u64..=64, 1u64..=64),
            grow in (
                0usize..16,
                proptest::collection::vec((0u32..300, proptest::any::<u16>()), 125..153),
                proptest::collection::vec(
                    (proptest::any::<u16>(), proptest::any::<u16>(), 1u64..2000), 0..60),
            ),
        ) {
            let (mut raw_nodes, mut raw_edges, mut entry_pick) = (raw_nodes, raw_edges, entry_pick);
            let big = grow.0 == 0;
            if big {
                // A path from the entry through the added nodes, heavier
                // than any drawn edge, so that chains grow long.
                let first = raw_nodes.len() as u16;
                entry_pick = first - 1;
                raw_edges.extend(
                    grow.1.iter().zip(first..).map(|(&(_, c), i)| (i - 1, i, 2000 + c as u64 % 2000)),
                );
                raw_nodes.extend(grow.1);
                raw_edges.extend(grow.2);
            }
            let shared = raw_edges.first().map_or(1, |e| e.2);
            for e in &mut raw_edges {
                e.2 = match weights {
                    0 => e.2,
                    1 => shared,
                    2 => (1 << 53) + e.2,
                    _ => u64::MAX - 4096 + e.2,
                };
            }
            let (ns, es, entry) = random_problem(&raw_nodes, &raw_edges, entry_pick);
            let mut params = ExtTspParams {
                chain_split_threshold: if big { 128 } else { [0, 3, 128][knobs % 3] },
                jobs: [1, 4][knobs / 3],
                ..ExtTspParams::default()
            };
            if windows.0 == 1 {
                (params.forward_window, params.backward_window) = (windows.1, windows.2);
            }
            let tel = propeller_telemetry::Telemetry::disabled();
            let mut new = MergeLog::with_detail();
            let order = order_nodes_logged(&ns, &es, entry, &params, &tel, Some(&mut new));
            let mut old = MergeLog::with_detail();
            let expected = reference::order_nodes_logged(&ns, &es, entry, &params, Some(&mut old));
            proptest::prop_assert_eq!(&order, &expected);
            proptest::prop_assert_eq!(log_bits(&new), log_bits(&old));
            proptest::prop_assert_eq!(
                score_layout(&order, &ns, &es, &params).to_bits(),
                reference::score_layout(&order, &ns, &es, &params).to_bits()
            );
            if !new.used_input_order {
                let steps = &new.detail.as_ref().unwrap().steps;
                proptest::prop_assert_eq!(replay_merges(&ns, entry, steps), Ok(order));
            }
        }
    }

    /// Independent layout oracle (ROADMAP 5a): on graphs of at most 8
    /// nodes every entry-first permutation is scored, and the greedy
    /// result must sit between the input order and that optimum.
    ///
    /// Worst greedy/optimal ratio observed over the 160 cases below:
    /// 0.808; 141 of the 151 cases whose optimum is positive reach it
    /// exactly.
    #[test]
    fn greedy_layout_sits_between_input_order_and_brute_force_optimum() {
        const WORST_RATIO_FLOOR: f64 = 0.80;
        fn permutations(items: &mut [usize], k: usize, visit: &mut impl FnMut(&[usize])) {
            if k == items.len() {
                return visit(items);
            }
            for i in k..items.len() {
                items.swap(k, i);
                permutations(items, k + 1, visit);
                items.swap(k, i);
            }
        }
        let tel = propeller_telemetry::Telemetry::disabled();
        let params = ExtTspParams::default();
        let mut worst = 1.0f64;
        for case in 0..160u64 {
            let mut rng = proptest::test_runner::TestRng::deterministic(case);
            let n = rng.usize_in(3, 9);
            let raw_nodes: Vec<(u32, u16)> = (0..n)
                .map(|_| (rng.u64_in(1, 400) as u32, rng.next_u64() as u16))
                .collect();
            let raw_edges: Vec<(u16, u16, u64)> = (0..rng.usize_in(1, 3 * n))
                .map(|_| {
                    (
                        rng.next_u64() as u16,
                        rng.next_u64() as u16,
                        rng.u64_in(1, 500),
                    )
                })
                .collect();
            let (ns, es, entry) = random_problem(&raw_nodes, &raw_edges, rng.next_u64() as u16);
            let mut log = MergeLog::default();
            let order = order_nodes_logged(&ns, &es, entry, &params, &tel, Some(&mut log));
            assert_eq!(order[0], entry);

            let dense = dense_index(&ns);
            let graph = DenseGraph::new(&ns, &es, &dense);
            let mut perm: Vec<usize> = (0..n).collect();
            perm.swap(0, dense[&entry]);
            let mut optimal = f64::MIN;
            permutations(&mut perm, 1, &mut |p| {
                optimal = optimal.max(graph.score(p.iter().copied(), &params));
            });
            assert!(
                log.final_score <= optimal + 1e-9,
                "case {case}: beat the optimum?"
            );
            if ns[0].id == entry {
                assert!(log.input_score <= log.final_score + 1e-9, "case {case}");
            }
            if optimal > 0.0 {
                worst = worst.min(log.final_score / optimal);
            }
        }
        assert!(
            worst >= WORST_RATIO_FLOOR,
            "greedy fell to {worst:.4} of optimal"
        );
    }
}
