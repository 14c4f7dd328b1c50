//! Block frequency propagation.

use crate::function::Function;
use crate::inst::Terminator;

/// Number of damped iterations used to converge cyclic CFGs.
const ITERATIONS: usize = 64;

/// Propagates an entry frequency through a function's CFG, writing the
/// resulting frequency into each block.
///
/// Frequencies follow branch probabilities: a block's frequency is the
/// probability-weighted sum of its predecessors' frequencies, with the
/// entry block additionally receiving `entry_freq`. Loops (back edges
/// with probability `< 1`) converge geometrically; the iteration count is
/// bounded, so pathological always-taken loops saturate rather than
/// diverge.
///
/// `believed` maps each conditional branch's taken probability to the
/// one the profile saw (`|p| p` propagates the true CFG); the function
/// itself is not changed.
///
/// This models the PGO frequency metadata that the compiler would have
/// computed from an instrumented profile.
pub fn propagate_frequencies(f: &mut Function, entry_freq: u64, believed: impl Fn(f64) -> f64) {
    let n = f.blocks.len();
    // Every edge `(from, to, probability)` once, in block order.
    let mut edges = Vec::with_capacity(2 * n);
    for (i, b) in f.blocks.iter().enumerate() {
        let term = match b.term {
            Terminator::CondBr {
                taken,
                fallthrough,
                prob_taken,
            } => Terminator::CondBr {
                taken,
                fallthrough,
                prob_taken: believed(prob_taken),
            },
            term => term,
        };
        edges.extend(term.successors().map(|(j, p)| (i, j.index(), p)));
    }
    let mut freq = vec![0.0f64; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..ITERATIONS {
        next.fill(0.0);
        next[0] = entry_freq as f64;
        for &(i, j, p) in &edges {
            next[j] += freq[i] * p;
        }
        // Converged?
        let delta: f64 = next
            .iter()
            .zip(&freq)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        std::mem::swap(&mut freq, &mut next);
        if delta < 0.5 {
            break;
        }
    }
    for (b, v) in f.blocks.iter_mut().zip(&freq) {
        b.freq = v.round() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::ids::{BlockId, FunctionId, ModuleId};
    use crate::inst::{Inst, Terminator};

    fn function(terms: impl IntoIterator<Item = Terminator>) -> Function {
        let mut fb = FunctionBuilder::new("f");
        for term in terms {
            fb.add_block([Inst::Alu], term);
        }
        fb.finish(FunctionId(0), ModuleId(0))
    }

    fn cond(taken: u32, fallthrough: u32, prob_taken: f64) -> Terminator {
        Terminator::CondBr {
            taken: BlockId(taken),
            fallthrough: BlockId(fallthrough),
            prob_taken,
        }
    }

    #[test]
    fn straight_line_keeps_entry_freq() {
        let mut f = function([Terminator::Jump(BlockId(1)), Terminator::Ret]);
        propagate_frequencies(&mut f, 100, |p| p);
        assert_eq!(f.blocks[0].freq, 100);
        assert_eq!(f.blocks[1].freq, 100);
    }

    #[test]
    fn diamond_splits_by_probability() {
        let mut f = function([
            cond(1, 2, 0.25),
            Terminator::Jump(BlockId(3)),
            Terminator::Jump(BlockId(3)),
            Terminator::Ret,
        ]);
        propagate_frequencies(&mut f, 1000, |p| p);
        assert_eq!(f.blocks[1].freq, 250);
        assert_eq!(f.blocks[2].freq, 750);
        assert_eq!(f.blocks[3].freq, 1000);
    }

    #[test]
    fn believed_probabilities_steer_without_editing() {
        let mut f = function([
            cond(1, 2, 0.9),
            Terminator::Jump(BlockId(3)),
            Terminator::Jump(BlockId(3)),
            Terminator::Ret,
        ]);
        let before = f.blocks[0].term;
        propagate_frequencies(&mut f, 1000, |p| if p > 0.85 { 0.0 } else { p });
        assert_eq!(f.blocks[1].freq, 0);
        assert_eq!(f.blocks[2].freq, 1000);
        assert_eq!(f.blocks[0].term, before);
    }

    #[test]
    fn loop_converges_geometrically() {
        // bb0 -> bb1; bb1 -> bb1 (p=0.9) | bb2; expected bb1 freq = 10x entry.
        let mut f = function([
            Terminator::Jump(BlockId(1)),
            cond(1, 2, 0.9),
            Terminator::Ret,
        ]);
        propagate_frequencies(&mut f, 100, |p| p);
        let loop_freq = f.blocks[1].freq as f64;
        assert!((900.0..=1000.0).contains(&loop_freq), "freq={loop_freq}");
        assert!((95..=100).contains(&f.blocks[2].freq));
    }

    #[test]
    fn unreachable_blocks_stay_cold() {
        let mut f = function([Terminator::Ret, Terminator::Ret]);
        propagate_frequencies(&mut f, 50, |p| p);
        assert_eq!(f.blocks[0].freq, 50);
        assert_eq!(f.blocks[1].freq, 0);
    }
}
