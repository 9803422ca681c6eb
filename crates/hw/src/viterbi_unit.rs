//! Cycle-accurate model of the Viterbi decoder unit (Figure 3).
//!
//! The unit solves the log-domain recursion of equation (7):
//!
//! ```text
//! log δ_t(j) = max_i [ log δ_{t−1}(i) + log a_ij ] + log b_j(O_t)
//! ```
//!
//! It is "a set of 32-bit adder(s) and comparator(s)"; the adder and the
//! comparator are pipelined and the comparator takes two cycles.  Transition
//! probabilities stream in as matrix columns (one column per destination
//! state), the previous frame's path scores (`Delta(t−1)`) come from RAM, and
//! the senone score `b_j(O_t)` arrives from the OP unit.  The unit handles 3,
//! 5 and 7-state HMMs.
//!
//! A step costs its arithmetic.  The adder's width is dispatched once per
//! step: at the full 23 bits its quantisation is the identity, so the adds
//! are plain f32 adds, and narrower widths keep the quantising
//! [`SoftFloat::add`].  The columns are the ones [`TransitionMatrix`] derives
//! once, and the result, [`HmmStep`], holds its scores and back-pointers
//! inline, so a step allocates nothing.

use crate::clock::{ClockGate, CycleCount};
use crate::HwError;
use asr_acoustic::{HmmTopology, TransitionMatrix};
use asr_float::{LogProb, MantissaWidth, SoftFloat};

/// Cycles per add (path score + transition, and + senone score).
const ADD_CYCLES: CycleCount = 1;
/// Cycles per compare ("Add & Compare (2 cycles)" in Figure 3).
const COMPARE_CYCLES: CycleCount = 2;
/// Pipeline fill cycles per destination-state column.
const COLUMN_FILL_CYCLES: CycleCount = 1;

/// The one charge of an HMM step: each destination column costs a fill, its
/// transition adds, a compare and the senone add; the exit reduction then
/// costs an add per state and one compare.
fn step_charge(states: usize, transition_adds: usize) -> ViterbiUnitStats {
    let states = states as u64;
    let adds = transition_adds as u64 + 2 * states;
    let compares = states + 1;
    ViterbiUnitStats {
        cycles: COLUMN_FILL_CYCLES * states + ADD_CYCLES * adds + COMPARE_CYCLES * compares,
        hmm_updates: 1,
        adds,
        compares,
    }
}

/// Activity statistics of the Viterbi unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViterbiUnitStats {
    /// Total busy cycles.
    pub cycles: CycleCount,
    /// HMM-frame updates performed (one per active triphone per frame).
    pub hmm_updates: u64,
    /// Individual add operations.
    pub adds: u64,
    /// Individual compare operations.
    pub compares: u64,
}

/// Result of advancing one HMM by one frame.
///
/// Scores and back-pointers are held inline (the unit handles at most
/// [`HmmTopology::MAX_STATES`] states), so a step allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HmmStep {
    states: usize,
    scores: [LogProb; HmmTopology::MAX_STATES],
    backpointers: [usize; HmmTopology::MAX_STATES],
    /// Score of leaving the HMM this frame (best exit-state score + exit
    /// transition), used by the word-decode stage to start successor phones.
    pub exit_score: LogProb,
}

impl HmmStep {
    /// New path score per emitting state (`log δ_t(j)`).
    pub fn scores(&self) -> &[LogProb] {
        &self.scores[..self.states]
    }

    /// Back-pointer per destination state: the source state that won the
    /// max, or `usize::MAX` where the token entering the HMM won state 0.
    /// The datapath produces it and the unit's tests check it; the software
    /// search keeps its own word history and does not read it.
    pub fn backpointers(&self) -> &[usize] {
        &self.backpointers[..self.states]
    }
}

/// The Viterbi decoder unit simulator.
#[derive(Debug, Clone)]
pub struct ViterbiUnit {
    datapath: SoftFloat,
    stats: ViterbiUnitStats,
    gate: ClockGate,
}

impl ViterbiUnit {
    /// Builds a Viterbi unit whose adder carries `width` mantissa bits.
    pub fn new(width: MantissaWidth) -> Self {
        ViterbiUnit {
            datapath: SoftFloat::with_width(width),
            stats: ViterbiUnitStats::default(),
            gate: ClockGate::new(),
        }
    }

    /// Cycles to advance one HMM of `states` emitting states by one frame,
    /// `transition_adds` being its non-zero incoming transitions over all
    /// columns (`2·states − 1` for a Bakis HMM).  Exactly what
    /// [`ViterbiUnit::step_hmm`] charges.
    pub fn cycles_per_hmm(states: usize, transition_adds: usize) -> CycleCount {
        step_charge(states, transition_adds).cycles
    }

    /// Activity statistics since the last reset.
    pub fn stats(&self) -> &ViterbiUnitStats {
        &self.stats
    }

    /// Clock-gating record.
    pub fn clock_gate(&self) -> &ClockGate {
        &self.gate
    }

    /// Records idle (clock-gated) cycles.
    pub fn idle(&mut self, cycles: CycleCount) {
        self.gate.record_gated(cycles);
    }

    /// Advances one HMM by one frame.
    ///
    /// * `prev_scores` — `log δ_{t−1}(i)` for each emitting state (use
    ///   [`LogProb::zero`] for states not yet reachable);
    /// * `entry_score` — score of entering state 0 from outside the HMM this
    ///   frame (the merged exit of the predecessor triphone), or
    ///   [`LogProb::zero`] if none;
    /// * `transitions` — the HMM's transition matrix;
    /// * `senone_scores` — `log b_j(O_t)` for each emitting state, as produced
    ///   by the OP unit.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::ShapeMismatch`] if the score vectors do not match
    /// the transition matrix's state count.
    pub fn step_hmm(
        &mut self,
        prev_scores: &[LogProb],
        entry_score: LogProb,
        transitions: &TransitionMatrix,
        senone_scores: &[LogProb],
    ) -> Result<HmmStep, HwError> {
        let n = transitions.num_states();
        if prev_scores.len() != n || senone_scores.len() != n {
            return Err(HwError::ShapeMismatch(format!(
                "expected {n} states, got {} prev scores and {} senone scores",
                prev_scores.len(),
                senone_scores.len()
            )));
        }
        let datapath = self.datapath;
        Ok(if datapath.width() == MantissaWidth::FULL {
            self.recurse(
                prev_scores,
                entry_score,
                transitions,
                senone_scores,
                |a, b| a + b,
            )
        } else {
            self.recurse(
                prev_scores,
                entry_score,
                transitions,
                senone_scores,
                |a, b| datapath.add(a, b),
            )
        })
    }

    /// The recursion of [`ViterbiUnit::step_hmm`] on the adder `add` (the
    /// datapath's add at its width), shapes already checked.
    #[inline(always)]
    fn recurse(
        &mut self,
        prev_scores: &[LogProb],
        entry_score: LogProb,
        transitions: &TransitionMatrix,
        senone_scores: &[LogProb],
        add: impl Fn(f32, f32) -> f32,
    ) -> HmmStep {
        // Log zero absorbs: a sum with an unreachable operand is unreachable.
        let add = |a: LogProb, b: LogProb| {
            if a.is_zero() || b.is_zero() {
                LogProb::zero()
            } else {
                LogProb::new(add(a.raw(), b.raw()))
            }
        };
        let mut step = HmmStep {
            states: senone_scores.len(),
            scores: [LogProb::zero(); HmmTopology::MAX_STATES],
            backpointers: [0; HmmTopology::MAX_STATES],
            exit_score: LogProb::zero(),
        };
        let mut transition_adds = 0;
        let columns = senone_scores
            .iter()
            .zip(&mut step.scores)
            .zip(&mut step.backpointers);
        for (j, ((&obs_j, score), backpointer)) in columns.enumerate() {
            // Max over incoming transitions (the streamed matrix column).
            let mut best = LogProb::zero();
            let mut best_src = j;
            for (i, a_ij) in transitions.column(j) {
                let candidate = add(prev_scores[i], a_ij);
                transition_adds += 1;
                if candidate.raw() > best.raw() {
                    best = candidate;
                    best_src = i;
                }
            }
            // A token entering the HMM this frame competes for state 0.
            if j == 0 && !entry_score.is_zero() && entry_score.raw() > best.raw() {
                best = entry_score;
                best_src = usize::MAX; // sentinel: came from outside
            }
            // Final add of the senone score b_j(O_t).
            *score = add(best, obs_j);
            *backpointer = best_src;
        }
        // Exit score: best over states of score + exit transition.
        for (i, &score_i) in step.scores[..step.states].iter().enumerate() {
            let e = add(score_i, transitions.log_exit_prob(i));
            if e.raw() > step.exit_score.raw() {
                step.exit_score = e;
            }
        }
        let charge = step_charge(step.states, transition_adds);
        self.stats.adds += charge.adds;
        self.stats.compares += charge.compares;
        self.stats.cycles += charge.cycles;
        self.stats.hmm_updates += charge.hmm_updates;
        self.gate.record_active(charge.cycles);
        step
    }

    /// Resets statistics and clock-gating counters.
    pub fn reset_stats(&mut self) {
        self.stats = ViterbiUnitStats::default();
        self.gate.reset();
    }
}

impl Default for ViterbiUnit {
    fn default() -> Self {
        Self::new(MantissaWidth::FULL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bakis3() -> TransitionMatrix {
        TransitionMatrix::bakis(HmmTopology::Three, 0.6).unwrap()
    }

    /// Reference software Viterbi step for comparison.
    fn reference_step(
        prev: &[LogProb],
        entry: LogProb,
        t: &TransitionMatrix,
        obs: &[LogProb],
    ) -> Vec<LogProb> {
        let n = t.num_states();
        (0..n)
            .map(|j| {
                let mut best = LogProb::zero();
                for (i, &prev_i) in prev.iter().enumerate() {
                    let c = prev_i + t.log_prob(i, j);
                    if c.raw() > best.raw() {
                        best = c;
                    }
                }
                if j == 0 && entry.raw() > best.raw() {
                    best = entry;
                }
                best + obs[j]
            })
            .collect()
    }

    /// The unit's step as the per-operation datapath computes it: every add
    /// through [`SoftFloat::add`] at `width`, every column found by scanning
    /// the row-major matrix, cycles and operations counted one by one.
    /// Returns the step's scores, back-pointers and exit score, and the
    /// stats it adds.
    fn per_operation_step(
        width: MantissaWidth,
        prev: &[LogProb],
        entry: LogProb,
        t: &TransitionMatrix,
        obs: &[LogProb],
    ) -> (Vec<LogProb>, Vec<usize>, LogProb, ViterbiUnitStats) {
        let fp = SoftFloat::with_width(width);
        let add = |a: LogProb, b: LogProb| {
            if a.is_zero() || b.is_zero() {
                LogProb::zero()
            } else {
                LogProb::new(fp.add(a.raw(), b.raw()))
            }
        };
        let n = t.num_states();
        let mut stats = ViterbiUnitStats {
            hmm_updates: 1,
            ..ViterbiUnitStats::default()
        };
        let (mut scores, mut backpointers) = (Vec::new(), Vec::new());
        for (j, &obs_j) in obs.iter().enumerate() {
            stats.cycles += COLUMN_FILL_CYCLES;
            let (mut best, mut best_src) = (LogProb::zero(), j);
            for i in (0..n).filter(|&i| !t.log_prob(i, j).is_zero()) {
                let candidate = add(prev[i], t.log_prob(i, j));
                stats.cycles += ADD_CYCLES;
                stats.adds += 1;
                if candidate.raw() > best.raw() {
                    (best, best_src) = (candidate, i);
                }
            }
            stats.cycles += COMPARE_CYCLES;
            stats.compares += 1;
            if j == 0 && !entry.is_zero() && entry.raw() > best.raw() {
                (best, best_src) = (entry, usize::MAX);
            }
            scores.push(add(best, obs_j));
            backpointers.push(best_src);
            stats.cycles += ADD_CYCLES;
            stats.adds += 1;
        }
        let mut exit = LogProb::zero();
        for (i, &score) in scores.iter().enumerate() {
            let e = add(score, t.log_exit_prob(i));
            stats.cycles += ADD_CYCLES;
            stats.adds += 1;
            if e.raw() > exit.raw() {
                exit = e;
            }
        }
        stats.cycles += COMPARE_CYCLES;
        stats.compares += 1;
        (scores, backpointers, exit, stats)
    }

    /// A random left-to-right matrix: every self-loop present, a third of
    /// the forward and exit transitions absent.
    fn random_left_to_right(topology: HmmTopology, rng: &mut crate::TestRng) -> TransitionMatrix {
        let n = topology.num_states();
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..=n)
                    .map(|j| match j {
                        j if j < i => 0.0,
                        j if j == i => 0.05 + f64::from(rng.uniform(0.0, 1.0)),
                        _ if rng.below(3) == 0 => 0.0,
                        _ => f64::from(rng.uniform(0.0, 1.0)),
                    })
                    .collect()
            })
            .collect();
        TransitionMatrix::new(topology, &rows).unwrap()
    }

    proptest! {
        /// The width-dispatched, allocation-free step against the
        /// per-operation reference, bit for bit, at every datapath width:
        /// 3-, 5- and 7-state Bakis and random left-to-right matrices,
        /// log-zero previous scores, and entry scores above and below the
        /// best transition into state 0.
        #[test]
        fn prop_step_is_the_per_operation_recursion(seed in 0u64..u64::MAX) {
            let mut rng = crate::TestRng(seed);
            for topology in HmmTopology::ALL {
                let n = topology.num_states();
                let matrices = [
                    TransitionMatrix::bakis(topology, f64::from(rng.uniform(0.05, 0.95))).unwrap(),
                    random_left_to_right(topology, &mut rng),
                ];
                for t in &matrices {
                    let prev: Vec<LogProb> = (0..n)
                        .map(|_| match rng.below(4) {
                            0 => LogProb::zero(),
                            _ => LogProb::new(rng.uniform(-60.0, 0.0)),
                        })
                        .collect();
                    let obs: Vec<LogProb> = (0..n)
                        .map(|_| match rng.below(8) {
                            0 => LogProb::zero(),
                            _ => LogProb::new(rng.uniform(-30.0, 0.0)),
                        })
                        .collect();
                    let best_into_0 = prev[0] + t.log_prob(0, 0);
                    let entry = match rng.below(3) {
                        0 => LogProb::zero(),
                        1 => LogProb::new(best_into_0.raw() + rng.uniform(0.0, 5.0)),
                        _ => LogProb::new(best_into_0.raw() - rng.uniform(0.0, 5.0)),
                    };
                    for bits in 1..=23 {
                        let width = MantissaWidth::new(bits).unwrap();
                        let mut unit = ViterbiUnit::new(width);
                        let step = unit.step_hmm(&prev, entry, t, &obs).unwrap();
                        let (scores, backpointers, exit, stats) =
                            per_operation_step(width, &prev, entry, t, &obs);
                        let bits_of = |s: &[LogProb]| s.iter().map(|p| p.raw().to_bits()).collect::<Vec<_>>();
                        prop_assert_eq!(bits_of(step.scores()), bits_of(&scores), "{} {:?}", width, t);
                        prop_assert_eq!(step.backpointers(), &backpointers[..]);
                        prop_assert_eq!(step.exit_score.raw().to_bits(), exit.raw().to_bits());
                        prop_assert_eq!(unit.stats(), &stats);
                        prop_assert_eq!(unit.clock_gate().active_cycles(), stats.cycles);
                    }
                }
            }
        }
    }

    #[test]
    fn matches_reference_recursion() {
        let t = bakis3();
        let mut unit = ViterbiUnit::default();
        let prev = vec![LogProb::new(-5.0), LogProb::new(-7.0), LogProb::new(-9.0)];
        let obs = vec![LogProb::new(-2.0), LogProb::new(-1.5), LogProb::new(-3.0)];
        let step = unit.step_hmm(&prev, LogProb::zero(), &t, &obs).unwrap();
        let reference = reference_step(&prev, LogProb::zero(), &t, &obs);
        for (hw, sw) in step.scores().iter().zip(&reference) {
            assert!(
                (hw.raw() - sw.raw()).abs() < 1e-4,
                "{} vs {}",
                hw.raw(),
                sw.raw()
            );
        }
        assert_eq!(step.scores().len(), 3);
        assert_eq!(step.backpointers().len(), 3);
    }

    #[test]
    fn backpointers_identify_the_max_source() {
        let t = bakis3();
        let mut unit = ViterbiUnit::default();
        // State 1 of the previous frame is far better than state 0, so the
        // winner into state 1 must be the self-loop (source 1), and into
        // state 2 the forward transition from 1.
        let prev = vec![LogProb::new(-50.0), LogProb::new(-1.0), LogProb::new(-40.0)];
        let obs = vec![LogProb::new(-1.0); 3];
        let step = unit.step_hmm(&prev, LogProb::zero(), &t, &obs).unwrap();
        assert_eq!(step.backpointers()[1], 1);
        assert_eq!(step.backpointers()[2], 1);
    }

    #[test]
    fn entry_token_wins_empty_hmm() {
        let t = bakis3();
        let mut unit = ViterbiUnit::default();
        let prev = vec![LogProb::zero(); 3];
        let obs = vec![LogProb::new(-1.0); 3];
        let entry = LogProb::new(-4.0);
        let step = unit.step_hmm(&prev, entry, &t, &obs).unwrap();
        // State 0 becomes entry + obs; other states stay unreachable.
        assert!((step.scores()[0].raw() - (-5.0)).abs() < 1e-4);
        assert!(step.scores()[1].is_zero());
        assert!(step.scores()[2].is_zero());
        assert_eq!(step.backpointers()[0], usize::MAX);
        assert!(step.exit_score.is_zero() || step.exit_score.raw() < step.scores()[0].raw());
    }

    #[test]
    fn exit_score_comes_from_last_state() {
        let t = bakis3();
        let mut unit = ViterbiUnit::default();
        let prev = vec![LogProb::new(-2.0), LogProb::new(-2.0), LogProb::new(-2.0)];
        let obs = vec![LogProb::new(-1.0); 3];
        let step = unit.step_hmm(&prev, LogProb::zero(), &t, &obs).unwrap();
        // Only the last state has a non-zero exit transition in a Bakis model.
        let expected = step.scores()[2] + t.log_exit_prob(2);
        assert!((step.exit_score.raw() - expected.raw()).abs() < 1e-4);
    }

    #[test]
    fn handles_all_supported_topologies() {
        let mut unit = ViterbiUnit::default();
        for topo in HmmTopology::ALL {
            let t = TransitionMatrix::bakis(topo, 0.5).unwrap();
            let n = topo.num_states();
            let prev = vec![LogProb::new(-3.0); n];
            let obs = vec![LogProb::new(-2.0); n];
            let step = unit.step_hmm(&prev, LogProb::zero(), &t, &obs).unwrap();
            assert_eq!(step.scores().len(), n);
            assert!(step.scores().iter().all(|s| s.raw().is_finite()));
        }
        assert_eq!(unit.stats().hmm_updates, 3);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let t = bakis3();
        let mut unit = ViterbiUnit::default();
        assert!(matches!(
            unit.step_hmm(&[LogProb::ONE; 2], LogProb::zero(), &t, &[LogProb::ONE; 3]),
            Err(HwError::ShapeMismatch(_))
        ));
        assert!(matches!(
            unit.step_hmm(&[LogProb::ONE; 3], LogProb::zero(), &t, &[LogProb::ONE; 5]),
            Err(HwError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn cycle_count_matches_analytic_model() {
        for (topology, cycles) in HmmTopology::ALL.into_iter().zip([22, 36, 50]) {
            let n = topology.num_states();
            let t = TransitionMatrix::bakis(topology, 0.6).unwrap();
            let mut unit = ViterbiUnit::default();
            let prev = vec![LogProb::new(-1.0); n];
            let obs = vec![LogProb::new(-1.0); n];
            unit.step_hmm(&prev, LogProb::zero(), &t, &obs).unwrap();
            // Bakis: a self-loop into every state, a forward transition into
            // every state but the first.
            assert_eq!(
                unit.stats().cycles,
                ViterbiUnit::cycles_per_hmm(n, 2 * n - 1)
            );
            assert_eq!(unit.stats().cycles, cycles, "{topology}");
        }
    }

    #[test]
    fn stats_and_gating() {
        let t = bakis3();
        let mut unit = ViterbiUnit::default();
        let prev = vec![LogProb::new(-1.0); 3];
        let obs = vec![LogProb::new(-1.0); 3];
        unit.step_hmm(&prev, LogProb::zero(), &t, &obs).unwrap();
        unit.idle(1_000);
        assert!(unit.clock_gate().activity_factor() < 0.2);
        assert!(unit.clock_gate().active_cycles() > 0);
        unit.reset_stats();
        assert_eq!(unit.stats(), &ViterbiUnitStats::default());
        assert_eq!(unit.clock_gate().total_cycles(), 0);
    }
}
