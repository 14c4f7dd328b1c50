//! The pre-PR-13 Ext-TSP implementation, kept verbatim as the test
//! oracle the rewritten inner loop is compared against: a fresh
//! `HashMap` of positions per scored sequence, a materialised `Vec` per
//! merge variant, both chains re-scored on every call, `HashSet`
//! neighbor sets collected and sorted on every merge. Serial only.
//! Do not optimise this file — its value is that it is the old code.

use super::{edge_score, Edge, ExtTspParams, HeapEntry, MergeLog, MergeRecord, MergeStep, Node, RejectedAlt};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// The old `score_layout` (panics on an `order` id absent from `nodes`).
pub(super) fn score_layout(order: &[u32], nodes: &[Node], edges: &[Edge], params: &ExtTspParams) -> f64 {
    let size_of: HashMap<u32, u64> = nodes.iter().map(|n| (n.id, n.size as u64)).collect();
    let mut pos: HashMap<u32, u64> = HashMap::with_capacity(order.len());
    let mut cursor = 0u64;
    for &id in order {
        pos.insert(id, cursor);
        cursor += size_of[&id];
    }
    let mut total = 0.0;
    for e in edges {
        let (Some(&sp), Some(&dp)) = (pos.get(&e.src), pos.get(&e.dst)) else {
            continue;
        };
        total += edge_score(params, e.weight, sp + size_of[&e.src], dp);
    }
    total
}

#[derive(Clone, Debug)]
struct Chain {
    blocks: Vec<usize>, // dense node indices
    version: u64,
}

/// The greedy chain-merging optimizer.
struct Optimizer<'a> {
    params: &'a ExtTspParams,
    sizes: Vec<u64>,
    /// Incident edges per dense node index: `(other end, weight,
    /// is_outgoing)`.
    incident: Vec<Vec<(usize, u64, bool)>>,
    chains: Vec<Option<Chain>>,
    chain_of: Vec<usize>,
    neighbors: Vec<HashSet<usize>>,
    entry_idx: usize,
}

impl<'a> Optimizer<'a> {
    /// Scores all edges internal to the block sequence `seq`.
    fn score_seq(&self, seq: &[usize]) -> f64 {
        let mut pos = HashMap::with_capacity(seq.len());
        let mut cursor = 0u64;
        for &b in seq {
            pos.insert(b, cursor);
            cursor += self.sizes[b];
        }
        let mut total = 0.0;
        for &b in seq {
            for &(other, w, outgoing) in &self.incident[b] {
                if !outgoing {
                    continue;
                }
                if let Some(&dp) = pos.get(&other) {
                    total += edge_score(self.params, w, pos[&b] + self.sizes[b], dp);
                }
            }
        }
        total
    }

    fn chain(&self, c: usize) -> &Chain {
        self.chains[c].as_ref().expect("live chain")
    }

    /// Whether a merged sequence would violate the entry-first
    /// constraint.
    fn entry_ok(&self, seq: &[usize]) -> bool {
        matches!(
            seq.iter().position(|&b| b == self.entry_idx),
            Some(0) | None
        )
    }

    /// Enumerates merge variants of chains `x` and `y` and returns the
    /// best `(gain, split)` if any is valid and positive.
    fn best_merge(&self, x: usize, y: usize) -> Option<(f64, usize)> {
        let cx = self.chain(x);
        let cy = self.chain(y);
        let base = self.score_seq(&cx.blocks) + self.score_seq(&cy.blocks);
        let mut best: Option<(f64, usize)> = None;
        let mut consider = |seq: &[usize], split: usize, this: &Self| {
            if !this.entry_ok(seq) {
                return;
            }
            let gain = this.score_seq(seq) - base;
            if gain > best.map_or(0.0, |(g, _)| g) + 1e-9 {
                best = Some((gain, split));
            }
        };
        // concat(x, y)
        let mut seq = cx.blocks.clone();
        seq.extend_from_slice(&cy.blocks);
        consider(&seq, usize::MAX, self);
        // Splits of x with y inserted: X1 Y X2 (split = 1..len). A
        // split at len(x) is concat; at 0 it is concat(y, x) — both
        // covered by the loop bounds when x is small enough.
        if cx.blocks.len() <= self.params.chain_split_threshold {
            for k in 0..cx.blocks.len() {
                let mut seq = Vec::with_capacity(cx.blocks.len() + cy.blocks.len());
                seq.extend_from_slice(&cx.blocks[..k]);
                seq.extend_from_slice(&cy.blocks);
                seq.extend_from_slice(&cx.blocks[k..]);
                consider(&seq, k, self);
            }
        } else {
            // Large chain: still allow concat(y, x).
            let mut seq = cy.blocks.clone();
            seq.extend_from_slice(&cx.blocks);
            consider(&seq, 0, self);
        }
        best
    }

    /// Applies the merge described by `(x, y, split)`.
    fn apply(&mut self, x: usize, y: usize, split: usize) {
        let cy = self.chains[y].take().expect("live chain");
        let cx = self.chains[x].as_mut().expect("live chain");
        if split == usize::MAX {
            cx.blocks.extend_from_slice(&cy.blocks);
        } else {
            let tail = cx.blocks.split_off(split);
            cx.blocks.extend_from_slice(&cy.blocks);
            cx.blocks.extend_from_slice(&tail);
        }
        cx.version += 1;
        for &b in &cy.blocks {
            self.chain_of[b] = x;
        }
        // Merge neighbor sets.
        let ny = std::mem::take(&mut self.neighbors[y]);
        for n in ny {
            if n != x {
                self.neighbors[n].remove(&y);
                self.neighbors[n].insert(x);
                self.neighbors[x].insert(n);
            }
        }
        self.neighbors[x].remove(&y);
        self.neighbors[x].remove(&x);
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
/// The old `order_nodes_logged`, minus telemetry and the parallel
/// fan-out (which only ever reproduced the serial result).
pub(super) fn order_nodes_logged(
    nodes: &[Node],
    edges: &[Edge],
    entry: u32,
    params: &ExtTspParams,
    mut log: Option<&mut MergeLog>,
) -> Vec<u32> {
    assert!(!nodes.is_empty(), "need at least one node");
    let mut dense: HashMap<u32, usize> = HashMap::with_capacity(nodes.len());
    for (i, n) in nodes.iter().enumerate() {
        let prev = dense.insert(n.id, i);
        assert!(prev.is_none(), "duplicate node id {}", n.id);
    }
    let entry_idx = *dense.get(&entry).expect("entry must be a node");

    let mut incident = vec![Vec::new(); nodes.len()];
    for e in edges {
        let (Some(&s), Some(&d)) = (dense.get(&e.src), dense.get(&e.dst)) else {
            continue;
        };
        incident[s].push((d, e.weight, true));
        if s != d {
            incident[d].push((s, e.weight, false));
        }
    }

    let mut opt = Optimizer {
        params,
        sizes: nodes.iter().map(|n| n.size as u64).collect(),
        incident,
        chains: (0..nodes.len())
            .map(|i| {
                Some(Chain {
                    blocks: vec![i],
                    version: 0,
                })
            })
            .collect(),
        chain_of: (0..nodes.len()).collect(),
        neighbors: vec![HashSet::new(); nodes.len()],
        entry_idx,
    };
    for e in edges {
        let (Some(&s), Some(&d)) = (dense.get(&e.src), dense.get(&e.dst)) else {
            continue;
        };
        if s != d {
            opt.neighbors[s].insert(d);
            opt.neighbors[d].insert(s);
        }
    }

    let mut heap = BinaryHeap::new();
    let push_pair = |opt: &Optimizer, heap: &mut BinaryHeap<HeapEntry>, x: usize, y: usize| {
        if let Some((gain, split)) = opt.best_merge(x, y) {
            heap.push(HeapEntry {
                gain,
                x,
                y,
                vx: opt.chain(x).version,
                vy: opt.chain(y).version,
                split,
            });
        }
    };
    // Pushes a batch of evaluated pairs in submission order — the heap
    // sees the exact sequence the serial code would have pushed, so the
    // pop order (and every tie-break) is independent of `params.jobs`.
    let push_evaluated = |opt: &Optimizer,
                          heap: &mut BinaryHeap<HeapEntry>,
                          ordered: &[(usize, usize)],
                          evals: Vec<Option<(f64, usize)>>| {
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
    let mut evaluations = 0u64;
    let mut pairs: Vec<(usize, usize)> = (0..nodes.len())
        .flat_map(|x| opt.neighbors[x].iter().map(move |&y| (x, y)))
        .filter(|&(x, y)| x < y)
        .collect();
    pairs.sort_unstable();
    let ordered: Vec<(usize, usize)> = pairs
        .into_iter()
        .flat_map(|(x, y)| [(x, y), (y, x)])
        .collect();
    evaluations += ordered.len() as u64;
    let evals = eval_pairs(&opt, &ordered);
    push_evaluated(&opt, &mut heap, &ordered, evals);

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
            push_pair(&opt, &mut heap, x, y);
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
        let mut affected: Vec<usize> = opt.neighbors[x].iter().copied().collect();
        affected.sort_unstable();
        let ordered: Vec<(usize, usize)> = affected
            .into_iter()
            .flat_map(|n| [(x, n), (n, x)])
            .collect();
        evaluations += ordered.len() as u64;
        let evals = eval_pairs(&opt, &ordered);
        push_evaluated(&opt, &mut heap, &ordered, evals);
    }
    if let Some(detail) = log.as_deref_mut().and_then(|l| l.detail.as_mut()) {
        detail.evaluations = evaluations;
    }

    // Assemble: entry chain first, then remaining chains by density.
    let mut rest: Vec<usize> = Vec::new();
    let entry_chain = opt.chain_of[entry_idx];
    for (ci, c) in opt.chains.iter().enumerate() {
        if c.is_some() && ci != entry_chain {
            rest.push(ci);
        }
    }
    let density = |ci: usize| -> f64 {
        let c = opt.chain(ci);
        let count: u64 = c.blocks.iter().map(|&b| nodes[b].count).sum();
        let size: u64 = c.blocks.iter().map(|&b| opt.sizes[b]).sum::<u64>().max(1);
        count as f64 / size as f64
    };
    rest.sort_by(|&a, &b| {
        density(b)
            .total_cmp(&density(a))
            .then_with(|| opt.chain(a).blocks[0].cmp(&opt.chain(b).blocks[0]))
    });

    let mut order = Vec::with_capacity(nodes.len());
    for &b in &opt.chain(entry_chain).blocks {
        order.push(nodes[b].id);
    }
    for ci in rest {
        for &b in &opt.chain(ci).blocks {
            order.push(nodes[b].id);
        }
    }

    // Greedy chain merging can lock in early merges and end up scoring
    // below the incoming (original) order on loop-dense graphs. Never
    // return a layout worse than the one the compiler already had.
    let input_order: Vec<u32> = nodes.iter().map(|n| n.id).collect();
    let merged_score = score_layout(&order, nodes, edges, params);
    let input_score = score_layout(&input_order, nodes, edges, params);
    let fall_back = input_order.first() == Some(&entry) && merged_score + 1e-9 < input_score;
    if let Some(log) = log {
        log.input_score = input_score;
        log.final_score = if fall_back { input_score } else { merged_score };
        log.used_input_order = fall_back;
    }
    if fall_back {
        return input_order;
    }
    order
}

fn eval_pairs(opt: &Optimizer<'_>, pairs: &[(usize, usize)]) -> Vec<Option<(f64, usize)>> {
    pairs.iter().map(|&(x, y)| opt.best_merge(x, y)).collect()
}
